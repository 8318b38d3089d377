#![warn(missing_docs)]

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
//!   beyond it.
//!
//! All three are deterministic: no per-process hash seeding, so replay
//! results and iteration-free algorithms built on them reproduce exactly
//! across runs and thread counts.

pub mod fx;
mod line_table;
mod map;

pub use fx::{FxBuildHasher, FxHasher};
pub use line_table::LineTable;
pub use map::U64Map;
