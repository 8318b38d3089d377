//! The storage medium: actual line contents held by the PCM array.
//!
//! The timing model ([`crate::PcmDevice`]) answers *when*; the medium answers
//! *what*. Keeping real bytes (and their stored ECC) lets the dedup schemes
//! perform genuine byte-by-byte comparisons — so fingerprint collisions
//! resolve the way they would in hardware — and lets tests inject bit errors
//! that the ECC path must correct.
//!
//! # Fault injection
//!
//! Beyond the targeted [`Medium::inject_bit_flip`] hook, the medium can run
//! a seeded raw-bit-error-rate (RBER) model: every read of a stored line
//! Bernoulli-samples each of its 576 stored bits (512 data + 64 packed ECC)
//! and flips the losers *persistently*, so errors accumulate across reads
//! until a rewrite (or a scrub) restores the line. The sampler is a
//! SplitMix64 stream compared against a fixed-point threshold — no floating
//! point, so runs reproduce bit-exactly on any platform. While injection is
//! enabled the medium also keeps a pristine shadow of each corrupted line
//! (ground truth as of its last store), which lets callers detect SEC-DED
//! *miscorrections*: decodes that claim success but return wrong content.

use esd_collections::{LineTable, U64Map};

use crate::config::LINE_BYTES;

/// Stored bits per line that the fault model samples: 512 data bits plus
/// the 64-bit packed ECC word.
const STORED_BITS: usize = LINE_BYTES * 8 + 64;

/// One stored line: content plus its stored per-line ECC (as a packed u64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredLine {
    /// The 64 stored bytes (ciphertext, in an encrypted-NVMM system).
    pub data: [u8; LINE_BYTES],
    /// The packed per-line ECC stored alongside the data.
    pub ecc: u64,
}

/// Counters kept by the RBER fault injector (all zero when injection is
/// disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads of stored lines that went through the Bernoulli sampler.
    pub reads_sampled: u64,
    /// Data bits flipped by the injector.
    pub data_bits_flipped: u64,
    /// Stored-ECC bits flipped by the injector (check-bit / parity drift).
    pub ecc_bits_flipped: u64,
}

impl FaultStats {
    /// Total bits the injector has flipped.
    #[must_use]
    pub fn bits_flipped(&self) -> u64 {
        self.data_bits_flipped + self.ecc_bits_flipped
    }
}

/// State of the seeded RBER injector; allocated only while enabled so the
/// default (fault-free) configuration pays nothing.
#[derive(Debug, Clone)]
struct FaultState {
    /// SplitMix64 stream state.
    rng: u64,
    /// Per-bit flip probability as a 2^64 fixed-point threshold: a draw
    /// below this value flips the bit. `0` means "track pristine copies but
    /// never flip randomly" (useful for targeted-injection tests).
    threshold: u64,
    /// Ground truth for corrupted lines: content as of the last store.
    /// Lines absent from this map have not drifted since their last write.
    pristine: U64Map<StoredLine>,
    stats: FaultStats,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sparse content store for the PCM array, plus write-wear accounting.
///
/// Every `line_addr` is a 64-byte line address: the cells are indexed by
/// line number (see [`LineTable`]), so an unaligned address would alias
/// its line, and debug builds assert alignment.
///
/// # Examples
///
/// ```
/// use esd_sim::Medium;
/// let mut m = Medium::new();
/// m.store(0x40, [9u8; 64], 0x1234);
/// assert_eq!(m.load(0x40).unwrap().data[0], 9);
/// assert_eq!(m.wear(0x40), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Medium {
    /// Every line ever stored, with its write count, indexed by line
    /// number: a store or a load is one indexed access.
    cells: LineTable<Cell>,
    faults: Option<FaultState>,
}

/// One line of the array: what it holds and how often it was written.
#[derive(Debug, Clone, Copy)]
struct Cell {
    line: StoredLine,
    wear: u64,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            line: StoredLine {
                data: [0; LINE_BYTES],
                ecc: 0,
            },
            wear: 0,
        }
    }
}

impl Medium {
    /// Creates an empty medium.
    #[must_use]
    pub fn new() -> Self {
        Medium::default()
    }

    /// Turns on the seeded RBER injector. `rber_per_tbit` is the expected
    /// number of flipped bits per 10^12 bit-reads; `0` still enables
    /// pristine-copy tracking (so [`Medium::inject_bit_flip`] feeds the
    /// miscorrection detector) but never flips bits randomly.
    pub fn enable_fault_injection(&mut self, rber_per_tbit: u64, seed: u64) {
        // p * 2^64, computed exactly in u128: the Bernoulli threshold for a
        // uniform u64 draw.
        let threshold = ((u128::from(rber_per_tbit) << 64) / 1_000_000_000_000) as u64;
        self.faults = Some(FaultState {
            rng: seed,
            threshold,
            pristine: U64Map::new(),
            stats: FaultStats::default(),
        });
    }

    /// Fault-injector counters (all zero when injection is disabled).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// The line's content as of its last store, untouched by injected
    /// flips — the decode ground truth. Returns `None` when fault injection
    /// is disabled (no shadow is kept) or the line was never written.
    #[must_use]
    pub fn pristine(&self, line_addr: u64) -> Option<&StoredLine> {
        let faults = self.faults.as_ref()?;
        faults
            .pristine
            .get(line_addr)
            .or_else(|| self.load(line_addr))
    }

    /// Stores a line, bumping its wear counter. A store rewrites every cell,
    /// so any accumulated fault drift on the line is cleared.
    pub fn store(&mut self, line_addr: u64, data: [u8; LINE_BYTES], ecc: u64) {
        let cell = self.cells.get_or_default(line_addr);
        cell.line = StoredLine { data, ecc };
        cell.wear += 1;
        if let Some(faults) = self.faults.as_mut() {
            faults.pristine.remove(line_addr);
        }
    }

    /// Loads a line, or `None` if the address was never written.
    #[must_use]
    pub fn load(&self, line_addr: u64) -> Option<&StoredLine> {
        self.cells.get(line_addr).map(|cell| &cell.line)
    }

    /// Runs the RBER sampler over one stored line, as part of a read.
    /// No-op unless [`Medium::enable_fault_injection`] was called and the
    /// line exists; flips persist until the line is next stored.
    pub fn degrade(&mut self, line_addr: u64) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let Some(Cell { line: stored, .. }) = self.cells.get_mut(line_addr) else {
            return;
        };
        faults.stats.reads_sampled += 1;
        if faults.threshold == 0 {
            return;
        }
        for bit in 0..STORED_BITS {
            if splitmix64(&mut faults.rng) < faults.threshold {
                // First flip since the last store: snapshot ground truth.
                faults.pristine.get_or_insert_with(line_addr, || *stored);
                if bit < LINE_BYTES * 8 {
                    stored.data[bit / 8] ^= 1 << (bit % 8);
                    faults.stats.data_bits_flipped += 1;
                } else {
                    stored.ecc ^= 1u64 << (bit - LINE_BYTES * 8);
                    faults.stats.ecc_bits_flipped += 1;
                }
            }
        }
    }

    /// Stores a scrub rewrite: like [`Medium::store`], except that when the
    /// rewritten content differs from the line's recorded ground truth the
    /// pristine shadow is preserved rather than cleared. A scrub rewrite
    /// derives its content from an ECC decode, so a miscorrected decode
    /// must not launder wrong data into new ground truth — keeping the
    /// shadow lets later reads detect the line as miscorrected.
    pub(crate) fn store_scrubbed(&mut self, line_addr: u64, data: [u8; LINE_BYTES], ecc: u64) {
        let pristine = self
            .faults
            .as_ref()
            .and_then(|f| f.pristine.get(line_addr).copied());
        self.store(line_addr, data, ecc);
        if let (Some(faults), Some(pristine)) = (self.faults.as_mut(), pristine) {
            if pristine.data != data {
                faults.pristine.insert(line_addr, pristine);
            }
        }
    }

    /// Copies a stored line between addresses (wear-leveling gap moves),
    /// bumping the destination's wear. The raw — possibly drifted — cells
    /// are copied verbatim, and the pristine shadow migrates with them so
    /// ground truth stays attached to the content, not the address.
    pub(crate) fn copy_line(&mut self, from: u64, to: u64) {
        let Some(line) = self.load(from).copied() else {
            return;
        };
        let pristine = self
            .faults
            .as_ref()
            .and_then(|f| f.pristine.get(from).copied());
        self.store(to, line.data, line.ecc);
        if let (Some(faults), Some(pristine)) = (self.faults.as_mut(), pristine) {
            faults.pristine.insert(to, pristine);
        }
    }

    /// Number of distinct lines currently stored.
    #[must_use]
    pub fn lines_stored(&self) -> usize {
        self.cells.len()
    }

    /// All stored line addresses in ascending order (scrub walk order —
    /// sorted so walks are deterministic regardless of map iteration).
    #[must_use]
    pub fn addresses_sorted(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.cells.iter().map(|(addr, _)| addr).collect();
        addrs.sort_unstable();
        addrs
    }

    /// Write count for a line (endurance accounting).
    #[must_use]
    pub fn wear(&self, line_addr: u64) -> u64 {
        self.cells.get(line_addr).map_or(0, |cell| cell.wear)
    }

    /// The maximum per-line write count — the endurance hot spot.
    #[must_use]
    pub fn max_wear(&self) -> u64 {
        self.cells
            .iter()
            .map(|(_, cell)| cell.wear)
            .max()
            .unwrap_or(0)
    }

    /// Total writes absorbed by the medium.
    #[must_use]
    pub fn total_wear(&self) -> u64 {
        self.cells.iter().map(|(_, cell)| cell.wear).sum()
    }

    /// Flips one stored bit (targeted fault injection for the ECC recovery
    /// path). Bytes `0..64` address the data; bytes `64..72` address the
    /// packed ECC word (little-endian), so stored check and overall-parity
    /// bits can be corrupted too. When fault injection is enabled the
    /// pristine shadow is snapshotted first, so the miscorrection detector
    /// sees the flip.
    ///
    /// Returns `true` if the line existed and the bit was flipped.
    ///
    /// # Panics
    ///
    /// Panics if `byte >= 72` or `bit >= 8`.
    pub fn inject_bit_flip(&mut self, line_addr: u64, byte: usize, bit: u8) -> bool {
        assert!(byte < LINE_BYTES + 8, "byte index out of range");
        assert!(bit < 8, "bit index out of range");
        let Some(Cell { line: stored, .. }) = self.cells.get_mut(line_addr) else {
            return false;
        };
        if let Some(faults) = self.faults.as_mut() {
            faults.pristine.get_or_insert_with(line_addr, || *stored);
        }
        if byte < LINE_BYTES {
            stored.data[byte] ^= 1 << bit;
        } else {
            stored.ecc ^= 1u64 << ((byte - LINE_BYTES) * 8 + bit as usize);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The implementation this module had before `lines` and `wear` became
    /// one table: two `std` maps (and a third for the pristine shadow),
    /// kept verbatim as the model the flat one is checked against.
    mod reference {
        use super::super::{splitmix64, FaultStats, StoredLine, LINE_BYTES, STORED_BITS};
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        struct TwoMapFaults {
            rng: u64,
            threshold: u64,
            pristine: HashMap<u64, StoredLine>,
            stats: FaultStats,
        }

        #[derive(Debug, Clone, Default)]
        pub struct TwoMapMedium {
            lines: HashMap<u64, StoredLine>,
            wear: HashMap<u64, u64>,
            faults: Option<TwoMapFaults>,
        }

        impl TwoMapMedium {
            pub fn enable_fault_injection(&mut self, rber_per_tbit: u64, seed: u64) {
                // p * 2^64, computed exactly in u128: the Bernoulli threshold for a
                // uniform u64 draw.
                let threshold = ((u128::from(rber_per_tbit) << 64) / 1_000_000_000_000) as u64;
                self.faults = Some(TwoMapFaults {
                    rng: seed,
                    threshold,
                    pristine: HashMap::new(),
                    stats: FaultStats::default(),
                });
            }

            pub fn fault_stats(&self) -> FaultStats {
                self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
            }

            pub fn pristine(&self, line_addr: u64) -> Option<&StoredLine> {
                let faults = self.faults.as_ref()?;
                faults
                    .pristine
                    .get(&line_addr)
                    .or_else(|| self.lines.get(&line_addr))
            }

            pub fn store(&mut self, line_addr: u64, data: [u8; LINE_BYTES], ecc: u64) {
                self.lines.insert(line_addr, StoredLine { data, ecc });
                *self.wear.entry(line_addr).or_insert(0) += 1;
                if let Some(faults) = self.faults.as_mut() {
                    faults.pristine.remove(&line_addr);
                }
            }

            pub fn load(&self, line_addr: u64) -> Option<&StoredLine> {
                self.lines.get(&line_addr)
            }

            pub fn degrade(&mut self, line_addr: u64) {
                let Some(faults) = self.faults.as_mut() else {
                    return;
                };
                let Some(stored) = self.lines.get_mut(&line_addr) else {
                    return;
                };
                faults.stats.reads_sampled += 1;
                if faults.threshold == 0 {
                    return;
                }
                for bit in 0..STORED_BITS {
                    if splitmix64(&mut faults.rng) < faults.threshold {
                        // First flip since the last store: snapshot ground truth.
                        faults.pristine.entry(line_addr).or_insert(*stored);
                        if bit < LINE_BYTES * 8 {
                            stored.data[bit / 8] ^= 1 << (bit % 8);
                            faults.stats.data_bits_flipped += 1;
                        } else {
                            stored.ecc ^= 1u64 << (bit - LINE_BYTES * 8);
                            faults.stats.ecc_bits_flipped += 1;
                        }
                    }
                }
            }

            pub fn store_scrubbed(&mut self, line_addr: u64, data: [u8; LINE_BYTES], ecc: u64) {
                let pristine = self
                    .faults
                    .as_ref()
                    .and_then(|f| f.pristine.get(&line_addr).copied());
                self.store(line_addr, data, ecc);
                if let (Some(faults), Some(pristine)) = (self.faults.as_mut(), pristine) {
                    if pristine.data != data {
                        faults.pristine.insert(line_addr, pristine);
                    }
                }
            }

            pub fn copy_line(&mut self, from: u64, to: u64) {
                let Some(line) = self.lines.get(&from).copied() else {
                    return;
                };
                let pristine = self
                    .faults
                    .as_ref()
                    .and_then(|f| f.pristine.get(&from).copied());
                self.store(to, line.data, line.ecc);
                if let (Some(faults), Some(pristine)) = (self.faults.as_mut(), pristine) {
                    faults.pristine.insert(to, pristine);
                }
            }

            pub fn lines_stored(&self) -> usize {
                self.lines.len()
            }

            pub fn addresses_sorted(&self) -> Vec<u64> {
                let mut addrs: Vec<u64> = self.lines.keys().copied().collect();
                addrs.sort_unstable();
                addrs
            }

            pub fn wear(&self, line_addr: u64) -> u64 {
                self.wear.get(&line_addr).copied().unwrap_or(0)
            }

            pub fn max_wear(&self) -> u64 {
                self.wear.values().copied().max().unwrap_or(0)
            }

            pub fn total_wear(&self) -> u64 {
                self.wear.values().sum()
            }

            pub fn inject_bit_flip(&mut self, line_addr: u64, byte: usize, bit: u8) -> bool {
                assert!(byte < LINE_BYTES + 8, "byte index out of range");
                assert!(bit < 8, "bit index out of range");
                // Split the borrow: snapshot before mutating the stored line.
                if self.lines.contains_key(&line_addr) {
                    if let Some(faults) = self.faults.as_mut() {
                        let stored = self.lines[&line_addr];
                        faults.pristine.entry(line_addr).or_insert(stored);
                    }
                }
                match self.lines.get_mut(&line_addr) {
                    Some(stored) => {
                        if byte < LINE_BYTES {
                            stored.data[byte] ^= 1 << bit;
                        } else {
                            stored.ecc ^= 1u64 << ((byte - LINE_BYTES) * 8 + bit as usize);
                        }
                        true
                    }
                    None => false,
                }
            }
        }
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = Medium::new();
        assert!(m.load(0).is_none());
        m.store(0, [1u8; LINE_BYTES], 42);
        let line = m.load(0).unwrap();
        assert_eq!(line.data, [1u8; LINE_BYTES]);
        assert_eq!(line.ecc, 42);
        assert_eq!(m.lines_stored(), 1);
    }

    #[test]
    fn wear_accumulates_per_line() {
        let mut m = Medium::new();
        m.store(0, [0u8; LINE_BYTES], 0);
        m.store(0, [1u8; LINE_BYTES], 1);
        m.store(64, [2u8; LINE_BYTES], 2);
        assert_eq!(m.wear(0), 2);
        assert_eq!(m.wear(64), 1);
        assert_eq!(m.wear(128), 0);
        assert_eq!(m.max_wear(), 2);
        assert_eq!(m.total_wear(), 3);
    }

    #[test]
    fn bit_flip_injection() {
        let mut m = Medium::new();
        assert!(!m.inject_bit_flip(0, 0, 0), "missing line is reported");
        m.store(0, [0u8; LINE_BYTES], 0);
        assert!(m.inject_bit_flip(0, 3, 5));
        assert_eq!(m.load(0).unwrap().data[3], 1 << 5);
    }

    #[test]
    fn bit_flip_reaches_stored_ecc() {
        let mut m = Medium::new();
        m.store(0, [0u8; LINE_BYTES], 0);
        assert!(m.inject_bit_flip(0, LINE_BYTES, 0), "first ECC bit");
        assert_eq!(m.load(0).unwrap().ecc, 1);
        assert!(m.inject_bit_flip(0, LINE_BYTES + 7, 7), "last ECC bit");
        assert_eq!(m.load(0).unwrap().ecc, 1 | (1 << 63));
        assert_eq!(m.load(0).unwrap().data, [0u8; LINE_BYTES], "data untouched");
    }

    #[test]
    #[should_panic(expected = "byte index out of range")]
    fn bit_flip_validates_byte() {
        let mut m = Medium::new();
        m.store(0, [0u8; LINE_BYTES], 0);
        m.inject_bit_flip(0, 72, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not a 64-byte line address")]
    fn unaligned_addresses_are_refused_in_debug_builds() {
        let mut m = Medium::new();
        m.store(0x48, [0u8; LINE_BYTES], 0);
    }

    #[test]
    fn degrade_is_inert_without_injection() {
        let mut m = Medium::new();
        m.store(0, [7u8; LINE_BYTES], 9);
        m.degrade(0);
        assert_eq!(m.load(0).unwrap().data, [7u8; LINE_BYTES]);
        assert_eq!(m.fault_stats(), FaultStats::default());
        assert!(m.pristine(0).is_none(), "no shadow without injection");
    }

    #[test]
    fn degrade_flips_persist_and_are_seed_deterministic() {
        let run = |seed| {
            let mut m = Medium::new();
            // Enormous RBER so a handful of reads certainly flips bits.
            m.enable_fault_injection(20_000_000_000, seed);
            m.store(0, [0u8; LINE_BYTES], 0);
            for _ in 0..50 {
                m.degrade(0);
            }
            (*m.load(0).unwrap(), m.fault_stats())
        };
        let (a, sa) = run(1);
        let (b, sb) = run(1);
        assert_eq!(a, b, "same seed, same flips");
        assert_eq!(sa, sb);
        assert!(sa.bits_flipped() > 0, "flips happened");
        assert_eq!(sa.reads_sampled, 50);
        let (c, _) = run(2);
        assert_ne!(a, c, "different seed diverges (overwhelmingly likely)");
    }

    #[test]
    fn pristine_tracks_ground_truth_until_rewrite() {
        let mut m = Medium::new();
        m.enable_fault_injection(0, 0);
        m.store(0, [3u8; LINE_BYTES], 1);
        assert_eq!(m.pristine(0).unwrap().data, [3u8; LINE_BYTES]);
        m.inject_bit_flip(0, 0, 0);
        assert_eq!(m.load(0).unwrap().data[0], 2, "stored bits drifted");
        assert_eq!(m.pristine(0).unwrap().data[0], 3, "shadow keeps truth");
        m.store(0, [5u8; LINE_BYTES], 2);
        assert_eq!(
            m.pristine(0).unwrap().data,
            [5u8; LINE_BYTES],
            "rewrite resets"
        );
    }

    #[test]
    fn copy_line_migrates_pristine_shadow() {
        let mut m = Medium::new();
        m.enable_fault_injection(0, 0);
        m.store(0, [3u8; LINE_BYTES], 1);
        m.inject_bit_flip(0, 0, 0);
        m.copy_line(0, 64);
        assert_eq!(m.load(64).unwrap().data[0], 2, "raw cells copied");
        assert_eq!(
            m.pristine(64).unwrap().data[0],
            3,
            "truth followed the move"
        );
    }

    #[test]
    fn flat_medium_matches_the_two_map_model() {
        use reference::TwoMapMedium;
        const LINES: u64 = 48; // few enough that every op mostly hits stored lines
        for seed in 0..48u64 {
            let mut flat = Medium::new();
            let mut model = TwoMapMedium::default();
            // A third of the episodes fault-free, a third tracking pristine
            // copies only, a third flipping about one bit per sampled read.
            if seed % 3 != 0 {
                let rber = (seed % 3 - 1) * 2_000_000_000;
                flat.enable_fault_injection(rber, seed);
                model.enable_fault_injection(rber, seed);
            }
            // A third of the addresses lie far past the lines allocated
            // from zero, as tenant-namespaced ones do, so the flat
            // medium's cells span both halves of its table.
            let place = |x: u64| {
                let line = x % LINES * 64;
                if x.is_multiple_of(3) {
                    ((1 + (x >> 8) % 3) << 48) | line
                } else {
                    line
                }
            };
            let mut rng = seed;
            for step in 0..4_096 {
                let draw = splitmix64(&mut rng);
                let addr = place(draw >> 8);
                let other = place(draw >> 16);
                let data = [(draw >> 24) as u8; LINE_BYTES];
                let ecc = draw >> 32;
                match draw % 8 {
                    0..=2 => {
                        flat.store(addr, data, ecc);
                        model.store(addr, data, ecc);
                    }
                    3 => {
                        flat.degrade(addr);
                        model.degrade(addr);
                    }
                    4 => {
                        // A scrub that trusted a miscorrected decode.
                        flat.store_scrubbed(addr, data, ecc);
                        model.store_scrubbed(addr, data, ecc);
                    }
                    5 => {
                        // A scrub that restored the ground truth.
                        if let Some(truth) = model.pristine(addr).copied() {
                            flat.store_scrubbed(addr, truth.data, truth.ecc);
                            model.store_scrubbed(addr, truth.data, truth.ecc);
                        }
                    }
                    6 => {
                        flat.copy_line(addr, other);
                        model.copy_line(addr, other);
                    }
                    _ => {
                        let (byte, bit) = ((draw >> 40) as usize % 72, (draw >> 48) as u8 % 8);
                        assert_eq!(
                            flat.inject_bit_flip(addr, byte, bit),
                            model.inject_bit_flip(addr, byte, bit)
                        );
                    }
                }
                for a in [addr, other] {
                    assert_eq!(flat.load(a), model.load(a), "seed {seed} step {step}");
                    assert_eq!(
                        flat.pristine(a),
                        model.pristine(a),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(flat.wear(a), model.wear(a), "seed {seed} step {step}");
                }
            }
            assert_eq!(flat.addresses_sorted(), model.addresses_sorted());
            for a in flat.addresses_sorted() {
                assert_eq!(flat.load(a), model.load(a));
                assert_eq!(flat.pristine(a), model.pristine(a));
                assert_eq!(flat.wear(a), model.wear(a));
            }
            assert_eq!(flat.lines_stored(), model.lines_stored());
            assert_eq!(flat.max_wear(), model.max_wear());
            assert_eq!(flat.total_wear(), model.total_wear());
            assert_eq!(flat.fault_stats(), model.fault_stats());
            assert!(
                flat.addresses_sorted().last() > Some(&(1 << 48)),
                "far addresses were stored"
            );
            if seed % 3 == 2 {
                assert!(
                    flat.fault_stats().bits_flipped() > 0,
                    "the sampler must fire"
                );
            }
        }
    }
}
