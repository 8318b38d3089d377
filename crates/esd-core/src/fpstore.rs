//! The full fingerprint store used by the Dedup_SHA1 and DeWrite baselines.
//!
//! Full-deduplication schemes keep *every* fingerprint: the complete index
//! lives in NVMM and only a slice is cached in controller SRAM. A cache miss
//! therefore forces a fingerprint **NVMM lookup** on the critical write path
//! — the bottleneck the paper quantifies in Figure 5 and that ESD's
//! selective deduplication eliminates.
//!
//! The SRAM slice is not a second host structure: each table entry carries
//! its own recency stamp (see `sram_cache.rs`), so a cached lookup is one
//! table probe.

use esd_collections::U64Map;
use esd_sim::{CacheStats, NvmmSystem, Ps};

use crate::sram_cache::{Cached, SramCache};

/// Base NVMM address of the fingerprint-store region.
const FP_NVMM_BASE: u64 = 1 << 45;
/// Range (in 64-byte lines) the store's entries hash into for bank mapping.
const FP_NVMM_LINES: u64 = 1 << 24;

/// Where a fingerprint lookup was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupSource {
    /// Found in the SRAM fingerprint cache.
    Cache,
    /// Found only after reading the NVMM-resident store.
    Nvmm,
    /// Not present anywhere (a new, unique fingerprint); the NVMM lookup was
    /// still paid if the cache missed.
    Absent,
}

/// Result of one fingerprint lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpLookup {
    /// Physical line the fingerprint maps to, if present.
    pub physical: Option<u64>,
    /// Time the lookup completed.
    pub done: Ps,
    /// Where it was resolved.
    pub source: LookupSource,
}

/// A full fingerprint index: authoritative table in NVMM, hot slice in SRAM.
///
/// One table, `fingerprint → physical`, that only grows. An entry is
/// written once, for a fingerprint the store does not hold, at a freshly
/// allocated line, and it pins that line for good: full deduplication
/// never reclaims (the space cost Figure 19 charges these schemes for). So
/// no entry is ever re-pointed or removed, and no two entries name one
/// line.
///
/// # Examples
///
/// ```
/// use esd_core::{FingerprintStore, LookupSource};
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
///
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// let mut store = FingerprintStore::new(1 << 10, 29);
/// store.insert(Ps::ZERO, 0xFEED, 0x40, &mut nvmm);
/// let hit = store.lookup(Ps::ZERO, 0xFEED, &mut nvmm);
/// assert_eq!(hit.physical, Some(0x40));
/// assert_eq!(hit.source, LookupSource::Cache);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintStore {
    /// Authoritative fingerprint → physical table ("in NVMM"), each entry
    /// with its SRAM state.
    table: U64Map<Cached<u64>>,
    /// The SRAM cache over `table`'s hot entries.
    sram: SramCache,
    entry_bytes: usize,
    sram_latency: Ps,
    /// Inserts not yet flushed as an NVMM metadata-line write (amortization).
    pending_inserts: usize,
    nvmm_lookups: u64,
    nvmm_insert_writes: u64,
}

impl FingerprintStore {
    /// Creates a store whose SRAM cache holds `cache_bytes` of entries, each
    /// `entry_bytes` wide (29 B for SHA-1 entries, 17 B for DeWrite's CRC
    /// entries); a budget below one entry gives a one-entry cache.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is zero.
    #[must_use]
    pub fn new(cache_bytes: u64, entry_bytes: usize) -> Self {
        assert!(entry_bytes > 0, "entry size must be nonzero");
        FingerprintStore {
            table: U64Map::new(),
            sram: SramCache::new(cache_bytes as usize / entry_bytes),
            entry_bytes,
            sram_latency: Ps::from_ns(2),
            pending_inserts: 0,
            nvmm_lookups: 0,
            nvmm_insert_writes: 0,
        }
    }

    /// SRAM cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.sram.stats()
    }

    /// Total fingerprints stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// NVMM bytes occupied by the full index.
    #[must_use]
    pub fn nvmm_bytes(&self) -> u64 {
        (self.table.len() * self.entry_bytes) as u64
    }

    /// Number of NVMM lookups (cache misses) and amortized insert writes.
    #[must_use]
    pub fn nvmm_traffic(&self) -> (u64, u64) {
        (self.nvmm_lookups, self.nvmm_insert_writes)
    }

    /// Drops every SRAM-cached entry, as a power-loss event would. The
    /// authoritative NVMM-resident index survives.
    pub fn drop_sram_cache(&mut self) {
        self.sram.drop_all(&mut self.table);
    }

    /// Physical lines pinned by index entries, in no particular order (one
    /// reference per entry; full-dedup indexes never release their lines).
    #[must_use]
    pub fn pinned_physicals(&self) -> Vec<u64> {
        self.table.values().map(|entry| entry.value).collect()
    }

    /// NVMM lines a journal-less recovery must scan to rebuild this index.
    #[must_use]
    pub fn scan_lines(&self) -> u64 {
        self.nvmm_bytes().div_ceil(64)
    }

    /// Looks up a fingerprint, charging SRAM time and — on a cache miss —
    /// one NVMM metadata read (paid whether or not the fingerprint exists).
    pub fn lookup(&mut self, now: Ps, fingerprint: u64, nvmm: &mut NvmmSystem) -> FpLookup {
        let t = now + self.sram_latency;
        let entry = self.table.get_mut(fingerprint);
        let physical = entry.as_ref().map(|entry| entry.value);
        if self.sram.lookup(entry).is_some() {
            return FpLookup {
                physical,
                done: t,
                source: LookupSource::Cache,
            };
        }
        // Cache miss: the store must be consulted in NVMM.
        let completion = nvmm.metadata_read(t, Self::meta_line_of(fingerprint));
        self.nvmm_lookups += 1;
        let source = if physical.is_some() {
            self.sram.admit(&mut self.table, fingerprint, false);
            LookupSource::Nvmm
        } else {
            LookupSource::Absent
        };
        FpLookup {
            physical,
            done: completion.finish,
            source,
        }
    }

    /// Hints the table slot a look-up of `fingerprint` probes first; no
    /// time is charged and nothing moves (see [`U64Map::prefetch`]).
    pub(crate) fn prefetch(&self, fingerprint: u64) {
        self.table.prefetch(fingerprint);
    }

    /// Inserts a fingerprint the store does not hold, mapped to a line no
    /// entry names (debug builds check the first); NVMM index writes are
    /// amortized over the number of entries per 64-byte metadata line.
    pub fn insert(&mut self, now: Ps, fingerprint: u64, physical: u64, nvmm: &mut NvmmSystem) {
        let previous = self.table.insert(fingerprint, Cached::new(physical));
        debug_assert!(
            previous.is_none(),
            "fingerprint {fingerprint:#x} is already stored"
        );
        self.sram.admit(&mut self.table, fingerprint, false);
        self.pending_inserts += 1;
        let entries_per_line = (64 / self.entry_bytes).max(1);
        if self.pending_inserts >= entries_per_line {
            self.pending_inserts = 0;
            nvmm.metadata_write(now, Self::meta_line_of(fingerprint));
            self.nvmm_insert_writes += 1;
        }
    }

    fn meta_line_of(fingerprint: u64) -> u64 {
        FP_NVMM_BASE + (fingerprint % FP_NVMM_LINES) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_sim::PcmConfig;

    fn nvmm() -> NvmmSystem {
        NvmmSystem::new(PcmConfig::default())
    }

    #[test]
    fn cache_hit_is_sram_speed() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 29);
        store.insert(Ps::ZERO, 1, 0x40, &mut mem);
        let hit = store.lookup(Ps::ZERO, 1, &mut mem);
        assert_eq!(hit.source, LookupSource::Cache);
        assert_eq!(hit.done, Ps::from_ns(2));
    }

    #[test]
    fn cache_miss_pays_nvmm_read_even_when_absent() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 29);
        let miss = store.lookup(Ps::ZERO, 42, &mut mem);
        assert_eq!(miss.source, LookupSource::Absent);
        assert!(miss.physical.is_none());
        assert!(miss.done >= Ps::from_ns(75), "NVMM lookup dominates");
        assert_eq!(store.nvmm_traffic().0, 1);
        assert_eq!(mem.stats().metadata.reads, 1);
    }

    #[test]
    fn evicted_entry_is_refetched_from_nvmm() {
        let mut mem = nvmm();
        // One-entry cache.
        let mut store = FingerprintStore::new(29, 29);
        store.insert(Ps::ZERO, 1, 0x40, &mut mem);
        store.insert(Ps::ZERO, 2, 0x80, &mut mem); // evicts fp 1 from cache
        let hit = store.lookup(Ps::ZERO, 1, &mut mem);
        assert_eq!(hit.source, LookupSource::Nvmm);
        assert_eq!(hit.physical, Some(0x40));
    }

    #[test]
    fn insert_writes_are_amortized_per_metadata_line() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(4096, 29); // 2 entries per 64B line
        store.insert(Ps::ZERO, 1, 0x40, &mut mem);
        assert_eq!(mem.stats().metadata.writes, 0);
        store.insert(Ps::ZERO, 2, 0x80, &mut mem);
        assert_eq!(mem.stats().metadata.writes, 1);
        assert_eq!(store.nvmm_traffic().1, 1);
    }

    #[test]
    fn footprint_scales_with_entry_width() {
        let mut mem = nvmm();
        let mut sha1 = FingerprintStore::new(1024, 29);
        let mut crc = FingerprintStore::new(1024, 17);
        for i in 0..10u64 {
            sha1.insert(Ps::ZERO, i, i * 64, &mut mem);
            crc.insert(Ps::ZERO, i, i * 64, &mut mem);
        }
        assert_eq!(sha1.nvmm_bytes(), 290);
        assert_eq!(crc.nvmm_bytes(), 170);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is already stored")]
    fn inserting_a_stored_fingerprint_panics() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 29);
        store.insert(Ps::ZERO, 7, 0x40, &mut mem);
        store.insert(Ps::ZERO, 7, 0x80, &mut mem);
    }
}
