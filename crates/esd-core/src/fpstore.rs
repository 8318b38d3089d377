//! The full fingerprint store used by the Dedup_SHA1 and DeWrite baselines.
//!
//! Full-deduplication schemes keep *every* fingerprint: the complete index
//! lives in NVMM and only a slice is cached in controller SRAM. A cache miss
//! therefore forces a fingerprint **NVMM lookup** on the critical write path
//! — the bottleneck the paper quantifies in Figure 5 and that ESD's
//! selective deduplication eliminates.

use esd_collections::U64Map;
use esd_sim::{CacheStats, LruCache, NvmmSystem, Ps};

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
/// The forward table (`fingerprint → physical`) and the reverse table
/// (`physical → fingerprint`) are kept mutually consistent as a bijection:
/// re-pointing a fingerprint drops its stale reverse entry, and re-claiming
/// a physical line drops the stale fingerprint that used to describe it.
///
/// # Examples
///
/// ```
/// use esd_core::{FingerprintStore, LookupSource};
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
///
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// // Pre-size the index for the expected number of unique lines so the
/// // open-addressed tables never rehash mid-replay.
/// let mut store = FingerprintStore::with_expected_entries(1 << 10, 29, 4096);
/// store.insert(Ps::ZERO, 0xFEED, 0x40, &mut nvmm);
/// let hit = store.lookup(Ps::ZERO, 0xFEED, &mut nvmm);
/// assert_eq!(hit.physical, Some(0x40));
/// assert_eq!(hit.source, LookupSource::Cache);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintStore {
    /// Authoritative fingerprint → physical table ("in NVMM").
    table: U64Map<u64>,
    by_physical: U64Map<u64>,
    cache: LruCache<u64, u64>,
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
    /// entries).
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is zero or the cache holds fewer than one
    /// entry.
    #[must_use]
    pub fn new(cache_bytes: u64, entry_bytes: usize) -> Self {
        FingerprintStore::with_expected_entries(cache_bytes, entry_bytes, 0)
    }

    /// Like [`FingerprintStore::new`], but pre-sizes the index tables for
    /// `expected_entries` unique fingerprints so they never rehash during a
    /// replay. `0` starts at the minimum size and grows on demand.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is zero or the cache holds fewer than one
    /// entry.
    #[must_use]
    pub fn with_expected_entries(
        cache_bytes: u64,
        entry_bytes: usize,
        expected_entries: usize,
    ) -> Self {
        assert!(entry_bytes > 0, "entry size must be nonzero");
        let entries = (cache_bytes as usize / entry_bytes).max(1);
        FingerprintStore {
            table: U64Map::with_capacity(expected_entries),
            by_physical: U64Map::with_capacity(expected_entries),
            cache: LruCache::new(entries),
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
        self.cache.stats()
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
        let keys: Vec<u64> = self.cache.iter().map(|(k, _)| *k).collect();
        for key in keys {
            self.cache.remove(&key);
        }
    }

    /// Physical lines pinned by index entries (one reference per entry;
    /// full-dedup indexes never release their lines).
    #[must_use]
    pub fn pinned_physicals(&self) -> Vec<u64> {
        self.by_physical.keys().collect()
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
        if let Some(&physical) = self.cache.get(&fingerprint) {
            return FpLookup {
                physical: Some(physical),
                done: t,
                source: LookupSource::Cache,
            };
        }
        // Cache miss: the store must be consulted in NVMM.
        let completion = nvmm.metadata_read(t, Self::meta_line_of(fingerprint));
        self.nvmm_lookups += 1;
        let done = completion.finish;
        match self.table.get(fingerprint).copied() {
            Some(physical) => {
                self.cache.insert(fingerprint, physical);
                FpLookup {
                    physical: Some(physical),
                    done,
                    source: LookupSource::Nvmm,
                }
            }
            None => FpLookup {
                physical: None,
                done,
                source: LookupSource::Absent,
            },
        }
    }

    /// Inserts a new fingerprint; NVMM index writes are amortized over the
    /// number of entries per 64-byte metadata line.
    ///
    /// The forward and reverse tables stay a bijection: if `fingerprint`
    /// previously mapped to another physical line, or `physical` was
    /// previously described by another fingerprint, the stale halves of
    /// those pairings are dropped.
    pub fn insert(&mut self, now: Ps, fingerprint: u64, physical: u64, nvmm: &mut NvmmSystem) {
        if let Some(old_physical) = self.table.insert(fingerprint, physical) {
            if old_physical != physical
                && self.by_physical.get(old_physical) == Some(&fingerprint)
            {
                self.by_physical.remove(old_physical);
            }
        }
        if let Some(old_fp) = self.by_physical.insert(physical, fingerprint) {
            if old_fp != fingerprint {
                self.table.remove(old_fp);
                self.cache.remove(&old_fp);
            }
        }
        self.cache.insert(fingerprint, physical);
        self.pending_inserts += 1;
        let entries_per_line = (64 / self.entry_bytes).max(1);
        if self.pending_inserts >= entries_per_line {
            self.pending_inserts = 0;
            nvmm.metadata_write(now, Self::meta_line_of(fingerprint));
            self.nvmm_insert_writes += 1;
        }
    }

    /// Removes the fingerprint mapped to a freed physical line.
    pub fn remove_physical(&mut self, physical: u64) {
        if let Some(fp) = self.by_physical.remove(physical) {
            self.table.remove(fp);
            self.cache.remove(&fp);
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

    /// Asserts `table` and `by_physical` are exact inverses of each other.
    fn assert_bijection(store: &FingerprintStore) {
        assert_eq!(store.table.len(), store.by_physical.len());
        for (fp, &physical) in store.table.iter() {
            assert_eq!(
                store.by_physical.get(physical),
                Some(&fp),
                "by_physical[{physical:#x}] must point back to fp {fp:#x}"
            );
        }
        for (physical, &fp) in store.by_physical.iter() {
            assert_eq!(
                store.table.get(fp),
                Some(&physical),
                "table[{fp:#x}] must point back to physical {physical:#x}"
            );
        }
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
        assert_bijection(&store);
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
    fn remove_physical_drops_fingerprint() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 17);
        store.insert(Ps::ZERO, 7, 0x40, &mut mem);
        store.remove_physical(0x40);
        assert!(store.is_empty());
        let miss = store.lookup(Ps::ZERO, 7, &mut mem);
        assert_eq!(miss.source, LookupSource::Absent);
        assert_bijection(&store);
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
    fn insert_overwrite_drops_stale_reverse_entry() {
        // Re-pointing fp 7 from line 0x40 to 0x80 must not leave
        // by_physical[0x40] referring to it; freeing 0x40 afterwards would
        // otherwise delete the live mapping.
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 29);
        store.insert(Ps::ZERO, 7, 0x40, &mut mem);
        store.insert(Ps::ZERO, 7, 0x80, &mut mem);
        assert_bijection(&store);
        assert_eq!(store.len(), 1);
        store.remove_physical(0x40); // stale address: must be a no-op
        let hit = store.lookup(Ps::ZERO, 7, &mut mem);
        assert_eq!(hit.physical, Some(0x80));
        assert_bijection(&store);
    }

    #[test]
    fn duplicate_physical_evicts_stale_fingerprint() {
        // Line 0x40 is rewritten with new content (fp 8): the old
        // fingerprint (fp 7) no longer describes any line and must leave
        // both the table and the SRAM cache.
        let mut mem = nvmm();
        let mut store = FingerprintStore::new(1024, 29);
        store.insert(Ps::ZERO, 7, 0x40, &mut mem);
        store.insert(Ps::ZERO, 8, 0x40, &mut mem);
        assert_bijection(&store);
        assert_eq!(store.len(), 1);
        let stale = store.lookup(Ps::ZERO, 7, &mut mem);
        assert_eq!(stale.source, LookupSource::Absent);
        let live = store.lookup(Ps::ZERO, 8, &mut mem);
        assert_eq!(live.physical, Some(0x40));
    }

    #[test]
    fn tables_stay_consistent_under_churn() {
        let mut mem = nvmm();
        let mut store = FingerprintStore::with_expected_entries(64 * 29, 29, 32);
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let fp = x % 48;
            let physical = ((x >> 8) % 48) * 64;
            match x % 4 {
                0 => {
                    store.remove_physical(physical);
                }
                1 => {
                    store.lookup(Ps::ZERO, fp, &mut mem);
                }
                _ => {
                    store.insert(Ps::ZERO, fp, physical, &mut mem);
                }
            }
        }
        assert_bijection(&store);
        // Every cached entry (including those refilled by lookups) must
        // agree with the authoritative table.
        for fp in store.table.keys().collect::<Vec<_>>() {
            let hit = store.lookup(Ps::ZERO, fp, &mut mem);
            assert_eq!(hit.physical, store.table.get(fp).copied());
        }
    }
}
