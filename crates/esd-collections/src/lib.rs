#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Flat, cache-friendly collections for the replay hot path.
//!
//! The simulator's metadata structures (AMT, fingerprint stores, EFIT index,
//! predictor counters, encryption counters, the verify shadow map) are all
//! keyed by 64-bit addresses or fingerprints and live on the critical path
//! of every simulated access. `std::collections::HashMap` spends most of a
//! probe SipHash-ing the key; this crate provides the two pieces that
//! replace it:
//!
//! * [`fx`] — an FxHash-style multiply-xor finisher for `u64` keys (and a
//!   [`std::hash::Hasher`] wrapper for generic keys), written in-repo so the
//!   workspace stays dependency-free;
//! * [`U64Map`] — an open-addressed `u64 → V` table with linear probing and
//!   tombstone-free (backward-shift) removal, so long-lived tables never
//!   degrade from deleted-entry litter;
//! * [`LineTable`] — per-line state keyed by 64-byte line address: an
//!   indexed array over the dense prefix of line numbers, a hash map
//!   beyond it;
//! * [`prefetch`] — a cache hint for memory a caller will read soon, which
//!   [`U64Map::prefetch`] aims at the slot a probe would start at.
//!
//! The hasher and both collections are deterministic: no per-process hash
//! seeding, so replay results and iteration-free algorithms built on them
//! reproduce exactly across runs and thread counts.

pub mod fx;
mod line_table;
mod map;

pub use fx::{FxBuildHasher, FxHasher};
pub use line_table::LineTable;
pub use map::U64Map;

/// Hints the CPU to bring the cache lines holding the first and the last
/// byte of `*value` into every cache level: all of it for a value of at
/// most 65 bytes. A hint, not a load: it reads nothing into the program,
/// blocks no instruction's retirement on a miss, and changes no state a
/// program can observe, so issuing it early lets the miss overlap other
/// work. A no-op off x86_64.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = std::ptr::from_ref(value).cast::<i8>();
        let last = first.wrapping_add(std::mem::size_of::<T>().saturating_sub(1));
        // SAFETY: `prefetch` instructions never fault, whatever the
        // address, and write nothing; both addresses lie inside `*value`,
        // which the borrow keeps alive. SSE, which `_mm_prefetch` needs,
        // is part of the x86_64 baseline.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            _mm_prefetch::<_MM_HINT_T0>(last);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}
