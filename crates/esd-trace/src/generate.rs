//! Deterministic synthetic trace generation from an [`AppProfile`].
//!
//! The generator reproduces the content statistics ESD exploits:
//!
//! * a configurable duplicate-write rate (the profile's `dup_rate`);
//! * zero-line dominance where the paper observed it;
//! * Zipf-skewed popularity over a hot content pool (content locality);
//! * fresh, globally unique content for the non-duplicate remainder;
//! * address temporal locality and read-after-write consistency (reads
//!   target previously written addresses).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::{Access, Trace};
use crate::line::CacheLine;
use crate::profile::AppProfile;
use crate::zipf::{Zipf, ZipfSums};

/// Fraction of duplicate draws that target a *uniformly random* previously
/// written content rather than the age-biased hot head. These "cold
/// duplicates" reference low-reference-count lines whose fingerprints a
/// selective cache will usually have evicted — the duplicates full
/// deduplication still catches but ESD deliberately misses (the paper's
/// ~18% selectivity gap).
const COLD_DUP_FRACTION: f64 = 0.30;

/// Zipf exponent of every profile's address distribution. The post-LLC
/// stream still concentrates on a hot subset of the working set, which is
/// what keeps the paper's AMT cache hit rate high at 512 KB (Fig. 18b).
const ADDRESS_EXPONENT: f64 = 1.1;

/// Generates a reproducible synthetic trace.
///
/// # Examples
///
/// ```
/// use esd_trace::{generate_trace, AppProfile};
/// let profile = AppProfile::demo();
/// let a = generate_trace(&profile, 42, 1000);
/// let b = generate_trace(&profile, 42, 1000);
/// assert_eq!(a, b); // same seed, same trace
/// assert_eq!(a.len(), 1000);
/// ```
#[must_use]
pub fn generate_trace(profile: &AppProfile, seed: u64, accesses: usize) -> Trace {
    TraceGenerator::new(profile.clone(), seed).generate(accesses)
}

/// Streaming trace generator (use [`generate_trace`] unless you need to pull
/// records incrementally).
///
/// As an [`Iterator`] it is an endless stream of accesses: the first `n` it
/// yields are exactly the records [`generate`](Self::generate)`(n)` returns.
/// [`reseed`](Self::reseed) restarts the stream under another seed and
/// keeps the profile's address distribution, so many streams of one profile
/// (one per tenant, say) share a single O(working set) build.
///
/// ```
/// use esd_trace::{generate_trace, AppProfile, TraceGenerator};
/// let profile = AppProfile::demo();
/// let mut generator = TraceGenerator::new(profile.clone(), 1);
/// for seed in [7, 8] {
///     generator.reseed(seed);
///     let streamed: Vec<_> = generator.by_ref().take(100).collect();
///     assert_eq!(streamed, generate_trace(&profile, seed, 100).accesses);
/// }
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    profile: AppProfile,
    rng: StdRng,
    addr_zipf: Zipf,
    /// Addresses written so far, for read-after-write targeting.
    written: Vec<u64>,
    /// Distinct non-zero contents written so far, in first-appearance order.
    /// Duplicate draws sample this list with an age bias, so early contents
    /// become the heavy head of the reference-count distribution.
    distinct: Vec<CacheLine>,
    /// Per-generator namespace so different seeds yield disjoint fresh lines.
    unique_namespace: u64,
    fresh_counter: u64,
}

impl TraceGenerator {
    /// Creates a generator for one workload.
    #[must_use]
    pub fn new(profile: AppProfile, seed: u64) -> Self {
        let addr_zipf = Zipf::new(profile.working_set_lines, ADDRESS_EXPONENT);
        TraceGenerator::with_zipf(profile, seed, addr_zipf)
    }

    /// Creates the generator [`TraceGenerator::new`] does, with the address
    /// distribution cut from `sums` (see [`TraceGenerator::address_sums`])
    /// instead of built from scratch: the streams are identical.
    ///
    /// # Panics
    ///
    /// Panics if `sums` were built with another exponent than the address
    /// distribution's, or cover fewer items than the profile's working set.
    #[must_use]
    pub fn with_sums(profile: AppProfile, seed: u64, sums: &ZipfSums) -> Self {
        assert!(
            sums.exponent().to_bits() == ADDRESS_EXPONENT.to_bits(),
            "address sums need exponent {ADDRESS_EXPONENT}, not {}",
            sums.exponent()
        );
        assert!(
            sums.len() >= profile.working_set_lines,
            "address sums over {} lines, short of {}'s working set of {}",
            sums.len(),
            profile.name,
            profile.working_set_lines
        );
        let addr_zipf = sums.zipf(profile.working_set_lines);
        TraceGenerator::with_zipf(profile, seed, addr_zipf)
    }

    /// The running sums every profile of `profiles` can cut its address
    /// distribution from: over the largest working set among them, built
    /// once (none when `profiles` is empty).
    #[must_use]
    pub fn address_sums<'a>(profiles: impl IntoIterator<Item = &'a AppProfile>) -> ZipfSums {
        let lines = profiles
            .into_iter()
            .map(|p| p.working_set_lines)
            .max()
            .unwrap_or(0);
        ZipfSums::new(lines, ADDRESS_EXPONENT)
    }

    fn with_zipf(profile: AppProfile, seed: u64, addr_zipf: Zipf) -> Self {
        let mut generator = TraceGenerator {
            profile,
            rng: StdRng::seed_from_u64(seed),
            addr_zipf,
            written: Vec::new(),
            distinct: Vec::new(),
            unique_namespace: 0,
            fresh_counter: 0,
        };
        generator.reseed(seed);
        generator
    }

    /// Restarts the stream as if freshly created with `seed`: resets the
    /// RNG, the fresh-content namespace and the written history, and keeps
    /// the profile and its address distribution.
    pub fn reseed(&mut self, seed: u64) {
        let name = hash_name(&self.profile.name);
        self.rng = StdRng::seed_from_u64(seed ^ name);
        self.unique_namespace = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(name);
        self.written.clear();
        self.distinct.clear();
        self.fresh_counter = 0;
    }

    /// Produces the next `n` records as a [`Trace`].
    pub fn generate(&mut self, n: usize) -> Trace {
        let mut trace = Trace::new(self.profile.name.clone());
        trace.accesses.reserve(n);
        trace.accesses.extend(self.by_ref().take(n));
        trace
    }

    fn next_access(&mut self) -> Access {
        let gap = self.instruction_gap();
        let is_read =
            !self.written.is_empty() && self.rng.gen::<f64>() < self.profile.read_fraction;
        if is_read {
            // Demand reads favor recently written addresses (temporal
            // locality survives the cache hierarchy at coarse grain), with
            // a uniform tail over the whole history.
            let len = self.written.len();
            let u: f64 = self.rng.gen();
            let from_end = ((len as f64) * u.powi(3)) as usize;
            let idx = len - 1 - from_end.min(len - 1);
            Access::read(self.written[idx], gap)
        } else {
            let addr = self.pick_write_addr();
            let data = self.pick_content();
            self.written.push(addr);
            Access::write(addr, data, gap)
        }
    }

    fn instruction_gap(&mut self) -> u32 {
        let mean = self.profile.mean_instruction_gap.max(2);
        self.rng.gen_range(mean / 2..mean + mean / 2)
    }

    fn pick_write_addr(&mut self) -> u64 {
        (self.addr_zipf.sample(&mut self.rng) as u64) * 64
    }

    fn pick_content(&mut self) -> CacheLine {
        let u: f64 = self.rng.gen();
        if u < self.profile.zero_fraction {
            CacheLine::ZERO
        } else if u < self.profile.dup_rate && !self.distinct.is_empty() {
            let idx = if self.rng.gen::<f64>() < COLD_DUP_FRACTION {
                // Cold duplicate: uniform over everything written so far.
                self.rng.gen_range(0..self.distinct.len())
            } else {
                // Age-biased draw over previously written contents:
                // exponent > 1 concentrates references on the oldest
                // (hottest) contents, producing the paper's skewed
                // reference-count distribution.
                let r: f64 = self.rng.gen();
                ((self.distinct.len() as f64) * r.powf(self.profile.content_skew)) as usize
            };
            self.distinct[idx.min(self.distinct.len() - 1)]
        } else {
            self.fresh_counter += 1;
            let line = CacheLine::from_seed(
                self.unique_namespace
                    .wrapping_add(self.fresh_counter)
                    .wrapping_mul(0xD129_0D3B_92D1_4A75),
            );
            self.distinct.push(line);
            line
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        Some(self.next_access())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs and platforms.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h & 0x0000_FFFF_FFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::analysis::duplicate_rate;

    #[test]
    fn deterministic_for_same_seed() {
        let p = AppProfile::demo();
        assert_eq!(generate_trace(&p, 1, 500), generate_trace(&p, 1, 500));
    }

    #[test]
    fn reseeding_after_streaming_equals_a_fresh_generator() {
        let paper = ["dedup", "deepsjeng"].map(|name| AppProfile::by_name(name).unwrap());
        for p in [AppProfile::demo()].into_iter().chain(paper) {
            let name = p.name.clone();
            let mut generator = TraceGenerator::new(p.clone(), 3);
            let _ = generator.generate(5_000);
            for seed in [3, 4, u64::MAX] {
                generator.reseed(seed);
                let streamed: Vec<Access> = generator.by_ref().take(3_000).collect();
                let fresh = TraceGenerator::new(p.clone(), seed).generate(3_000);
                assert_eq!(streamed, fresh.accesses, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = AppProfile::demo();
        assert_ne!(generate_trace(&p, 1, 500), generate_trace(&p, 2, 500));
    }

    #[test]
    fn read_fraction_is_respected() {
        let p = AppProfile::demo();
        let t = generate_trace(&p, 3, 20_000);
        let reads = t.read_count() as f64 / t.len() as f64;
        assert!(
            (reads - p.read_fraction).abs() < 0.02,
            "read fraction {reads}"
        );
    }

    #[test]
    fn duplicate_rate_tracks_profile() {
        for name in ["leela", "lbm", "deepsjeng"] {
            let p = AppProfile::by_name(name).unwrap();
            let t = generate_trace(&p, 11, 40_000);
            let measured = duplicate_rate(&t);
            assert!(
                (measured - p.dup_rate).abs() < 0.06,
                "{name}: measured {measured}, profile {}",
                p.dup_rate
            );
        }
    }

    #[test]
    fn reads_target_written_addresses() {
        let p = AppProfile::demo();
        let t = generate_trace(&p, 5, 5_000);
        let mut written = std::collections::HashSet::new();
        for a in &t {
            match a.kind {
                AccessKind::Write => {
                    written.insert(a.addr);
                }
                AccessKind::Read => {
                    assert!(written.contains(&a.addr), "read of never-written address");
                }
            }
        }
    }

    #[test]
    fn addresses_are_line_aligned_and_in_working_set() {
        let p = AppProfile::demo();
        let t = generate_trace(&p, 9, 2_000);
        for a in &t {
            assert_eq!(a.addr % 64, 0);
            assert!(a.addr < (p.working_set_lines as u64) * 64);
        }
    }

    #[test]
    fn zero_fraction_shows_up_in_content() {
        let p = AppProfile::by_name("deepsjeng").unwrap();
        let t = generate_trace(&p, 13, 20_000);
        let (zeros, writes) = t.iter().fold((0usize, 0usize), |(z, w), a| match a.data {
            Some(line) => (z + usize::from(line.is_zero()), w + 1),
            None => (z, w),
        });
        let frac = zeros as f64 / writes as f64;
        assert!(
            (frac - p.zero_fraction).abs() < 0.03,
            "zero fraction {frac}"
        );
    }
}
