#![warn(missing_docs)]

//! Cryptographic and cyclic-redundancy fingerprint functions used by the
//! deduplication baselines that ESD is compared against.
//!
//! The ESD paper evaluates three fingerprint families:
//!
//! * **SHA-1** (and MD5) — the traditional content hash used by
//!   `Dedup_SHA1`-style full deduplication; collision-free in practice but
//!   costing hundreds of nanoseconds per cache line (321 ns for SHA-1,
//!   312 ns for MD5 per the paper's Section III-C).
//! * **CRC-32 / CRC-64** — the lightweight fingerprint used by DeWrite;
//!   cheap but with a much higher collision rate (paper Fig. 8), requiring a
//!   verify read.
//! * **ECC** — no computation at all (provided by [`esd-ecc`]); ESD's choice.
//!
//! All implementations here are from scratch and bit-exact against the
//! standard test vectors; [`FingerprintKind`] attaches the paper's
//! latency/energy model so simulation code can charge costs uniformly.
//!
//! [`esd-ecc`]: https://docs.rs/esd-ecc
//!
//! # Examples
//!
//! ```
//! use esd_hash::{sha1, Sha1Digest};
//!
//! let d = sha1(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d",
//! );
//! ```

mod cost;
mod crc;
mod lanes;
mod md5;
mod sha1;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use cost::{FingerprintCost, FingerprintKind};
pub use crc::{crc32, crc64, Crc32, Crc64};
pub use lanes::{md5_batch, sha1_batch};
pub use md5::{md5, md5_lines4, Md5, Md5Digest};
pub use sha1::{sha1, sha1_lines4, Sha1, Sha1Digest};

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Sha1Digest>();
        assert_send_sync::<super::Md5Digest>();
        assert_send_sync::<super::FingerprintKind>();
    }
}
