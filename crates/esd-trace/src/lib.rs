#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Synthetic workload generation for deduplication studies on NVMM.
//!
//! The ESD paper evaluates on LLC-eviction traces of 12 SPEC CPU 2017 and 8
//! PARSEC 2.1 applications. Those binaries and gem5 traces cannot ship with
//! this reproduction, so this crate regenerates statistically equivalent
//! streams: each application is described by an [`AppProfile`] capturing the
//! paper's published workload characterization — duplicate rate (Fig. 1),
//! zero-line dominance, content locality / reference-count skew (Fig. 3),
//! read/write mix and memory-boundness — and [`generate_trace`] expands a
//! profile into a deterministic [`Trace`].
//!
//! The crate also provides the paper's offline analyses
//! ([`duplicate_rate`], [`refcount_buckets`]) and a compact binary trace
//! format ([`encode_trace`] / [`decode_trace`]).
//!
//! # Examples
//!
//! ```
//! use esd_trace::{duplicate_rate, generate_trace, AppProfile};
//!
//! let lbm = AppProfile::by_name("lbm").expect("paper workload");
//! let trace = generate_trace(&lbm, 7, 10_000);
//! let rate = duplicate_rate(&trace);
//! assert!((rate - lbm.dup_rate).abs() < 0.1);
//! ```

mod access;
mod analysis;
mod generate;
mod io;
mod line;
mod mix;
mod profile;
mod text;
mod zipf;

pub use access::{Access, AccessKind, Trace};
pub use analysis::{duplicate_rate, refcount_buckets, zero_line_rate, RefCountBuckets};
pub use generate::{generate_trace, TraceGenerator};
pub use io::{decode_trace, encode_trace, DecodeTraceError};
pub use line::{CacheLine, LINE_BYTES};
pub use mix::interleave_traces;
pub use profile::{AppProfile, Suite};
pub use text::{parse_trace_text, render_trace_text, ParseTraceError, ParseTraceErrorKind};
pub use zipf::{Zipf, ZipfSums};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<AppProfile>();
        assert_send_sync::<TraceGenerator>();
        assert_send_sync::<CacheLine>();
    }
}
