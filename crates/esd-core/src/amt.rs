//! The Address Mapping Table (AMT).
//!
//! The AMT records the many-to-one mapping from a logical line address
//! (`initAddr`) to the physical line that holds its (deduplicated) content.
//! Per the paper (§III-B) the full table lives in NVMM while hot entries are
//! buffered in a memory-controller SRAM cache; a miss therefore costs one
//! metadata read from NVMM on the access path, and dirty evictions cost a
//! metadata write.
//!
//! The simulator keeps one host table: each mapping carries its own SRAM
//! state (recency stamp, dirty bit; see `sram_cache.rs`), so a cached
//! translation is one table probe.

use esd_collections::U64Map;
use esd_sim::{CacheStats, NvmmSystem, Ps};

use crate::sram_cache::{Cached, SramCache};

/// Bytes per AMT entry: `initAddr` (4) + `Addr_base` (4) + `Addr_offsets`
/// (1), per the paper's Figure 7.
pub const AMT_ENTRY_BYTES: usize = 9;

/// Base address of the AMT's NVMM-resident region (far above data lines).
pub(crate) const AMT_NVMM_BASE: u64 = 1 << 44;

/// AMT entries per 64-byte NVMM line.
const ENTRIES_PER_LINE: u64 = (64 / AMT_ENTRY_BYTES) as u64;

/// The address-mapping table with its SRAM hot-entry cache.
///
/// # Examples
///
/// ```
/// use esd_core::Amt;
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
///
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// let mut amt = Amt::new(512 << 10);
/// let t = amt.update(Ps::ZERO, 0x40, 0x1000, &mut nvmm);
/// let (phys, _t) = amt.translate(t, 0x40, &mut nvmm);
/// assert_eq!(phys, Some(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct Amt {
    /// Authoritative table ("in NVMM"): logical -> physical, each entry
    /// with its SRAM state.
    table: U64Map<Cached<u64>>,
    /// The SRAM cache over `table`'s hot entries.
    sram: SramCache,
    /// SRAM probe latency.
    sram_latency: Ps,
    /// NVMM metadata traffic counters.
    nvmm_fills: u64,
    nvmm_writebacks: u64,
}

impl Amt {
    /// Creates an AMT whose SRAM cache holds `cache_bytes` of entries; a
    /// budget below one entry (0 included) gives a one-entry cache.
    #[must_use]
    pub fn new(cache_bytes: u64) -> Self {
        Amt::with_sram_latency(cache_bytes, Ps::from_ns(2))
    }

    /// Creates an AMT with an explicit SRAM probe latency; a budget below
    /// one entry (0 included) gives a one-entry cache.
    #[must_use]
    pub fn with_sram_latency(cache_bytes: u64, sram_latency: Ps) -> Self {
        Amt {
            table: U64Map::new(),
            sram: SramCache::new(cache_bytes as usize / AMT_ENTRY_BYTES),
            sram_latency,
            nvmm_fills: 0,
            nvmm_writebacks: 0,
        }
    }

    /// SRAM cache hit/miss statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.sram.stats()
    }

    /// Drops every cached (SRAM) entry, as a power-loss event would. The
    /// authoritative NVMM-resident table survives — dirty entries are
    /// assumed flushed by eADR/battery backing, per the paper's §III-E.
    pub fn drop_sram_cache(&mut self) {
        self.sram.drop_all(&mut self.table);
    }

    /// Number of mappings in the authoritative table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// NVMM-resident footprint of the full table, in bytes.
    #[must_use]
    pub fn nvmm_bytes(&self) -> u64 {
        (self.table.len() * AMT_ENTRY_BYTES) as u64
    }

    /// Metadata fills (misses served from NVMM) and write-backs so far.
    #[must_use]
    pub fn nvmm_traffic(&self) -> (u64, u64) {
        (self.nvmm_fills, self.nvmm_writebacks)
    }

    /// Current physical mapping without charging any time (test/inspection).
    #[must_use]
    pub fn peek(&self, logical: u64) -> Option<u64> {
        self.table.get(logical).map(|entry| entry.value)
    }

    /// Hints the table slot a translation of `logical` probes first; no
    /// time is charged and nothing moves (see [`U64Map::prefetch`]).
    pub(crate) fn prefetch(&self, logical: u64) {
        self.table.prefetch(logical);
    }

    /// Iterates the authoritative table's `(logical, physical)` mappings
    /// without charging any time (crash-recovery audit).
    pub fn mappings(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.table
            .iter()
            .map(|(logical, entry)| (logical, entry.value))
    }

    /// Translates a logical address, charging SRAM probe time and — on a
    /// cache miss for a mapped address — one NVMM metadata read.
    ///
    /// Returns the physical address (or `None` for never-mapped logicals)
    /// and the time at which the translation completed.
    pub fn translate(&mut self, now: Ps, logical: u64, nvmm: &mut NvmmSystem) -> (Option<u64>, Ps) {
        let t = now + self.sram_latency;
        let entry = self.table.get_mut(logical);
        let physical = entry.as_ref().map(|entry| entry.value);
        if self.sram.lookup(entry).is_some() || physical.is_none() {
            return (physical, t);
        }
        // Miss: fetch the entry's NVMM metadata line.
        let completion = nvmm.metadata_read(t, Self::meta_line_of(logical));
        self.nvmm_fills += 1;
        self.admit(logical, false, completion.finish, nvmm);
        (physical, completion.finish)
    }

    /// Installs or replaces the mapping for `logical`, charging SRAM time;
    /// dirty evictions charge an asynchronous NVMM metadata write.
    ///
    /// Returns the time at which the update is visible.
    pub fn update(&mut self, now: Ps, logical: u64, physical: u64, nvmm: &mut NvmmSystem) -> Ps {
        let t = now + self.sram_latency;
        let entry = self
            .table
            .get_or_insert_with(logical, || Cached::new(physical));
        entry.value = physical;
        if entry.is_resident() {
            entry.dirty = true;
            self.sram.touch(entry);
        } else {
            self.admit(logical, true, t, nvmm);
        }
        t
    }

    /// Brings `logical`'s entry into SRAM; evicting a dirty entry writes it
    /// back to NVMM at `t`.
    fn admit(&mut self, logical: u64, dirty: bool, t: Ps, nvmm: &mut NvmmSystem) {
        if let Some((victim, true)) = self.sram.admit(&mut self.table, logical, dirty) {
            nvmm.metadata_write(t, Self::meta_line_of(victim));
            self.nvmm_writebacks += 1;
        }
    }

    /// The NVMM metadata line that stores a logical address's AMT entry.
    fn meta_line_of(logical: u64) -> u64 {
        AMT_NVMM_BASE + (logical / 64 / ENTRIES_PER_LINE) * 64
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
    fn a_prefetch_moves_no_stat_and_no_mapping() {
        // Room for three cached entries, so the cache evicts.
        let mut hinted = Amt::new((3 * AMT_ENTRY_BYTES) as u64);
        let mut plain = hinted.clone();
        let (mut mem_hinted, mut mem_plain) = (nvmm(), nvmm());
        let mut now = Ps::ZERO;
        for step in 0..200u64 {
            let logical = ((step * 7) % 23) << 6;
            for probe in [logical, logical + (1 << 40), u64::MAX - step] {
                hinted.prefetch(probe);
            }
            assert_eq!(hinted.cache_stats(), plain.cache_stats());
            assert!(hinted.mappings().eq(plain.mappings()));
            now = if step % 3 == 0 {
                let done = hinted.update(now, logical, step << 6, &mut mem_hinted);
                assert_eq!(plain.update(now, logical, step << 6, &mut mem_plain), done);
                done
            } else {
                let translated = hinted.translate(now, logical, &mut mem_hinted);
                assert_eq!(plain.translate(now, logical, &mut mem_plain), translated);
                translated.1
            };
        }
        assert_eq!(hinted.cache_stats(), plain.cache_stats());
        assert!(hinted.mappings().eq(plain.mappings()));
        assert_eq!(hinted.nvmm_traffic(), plain.nvmm_traffic());
    }

    #[test]
    fn unmapped_translation_is_fast_none() {
        let mut amt = Amt::new(1024);
        let mut mem = nvmm();
        let (phys, t) = amt.translate(Ps::ZERO, 0x40, &mut mem);
        assert_eq!(phys, None);
        assert_eq!(t, Ps::from_ns(2));
        assert_eq!(mem.stats().metadata.reads, 0);
    }

    #[test]
    fn cached_translation_costs_only_sram() {
        let mut amt = Amt::new(1024);
        let mut mem = nvmm();
        let t = amt.update(Ps::ZERO, 0x40, 0x1000, &mut mem);
        let (phys, t2) = amt.translate(t, 0x40, &mut mem);
        assert_eq!(phys, Some(0x1000));
        assert_eq!(t2, t + Ps::from_ns(2));
        assert_eq!(mem.stats().metadata.reads, 0);
    }

    #[test]
    fn cold_translation_charges_nvmm_read() {
        // Cache of exactly one entry: updating a second logical evicts the
        // first, so translating the first again must go to NVMM.
        let mut amt = Amt::new(AMT_ENTRY_BYTES as u64);
        let mut mem = nvmm();
        amt.update(Ps::ZERO, 0x40, 0x1000, &mut mem);
        amt.update(Ps::ZERO, 0x80, 0x2000, &mut mem);
        let before = mem.stats().metadata.reads;
        let (phys, t) = amt.translate(Ps::ZERO, 0x40, &mut mem);
        assert_eq!(phys, Some(0x1000));
        assert_eq!(mem.stats().metadata.reads, before + 1);
        assert!(t >= Ps::from_ns(75), "NVMM fill dominates");
        assert_eq!(amt.nvmm_traffic().0, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut amt = Amt::new(AMT_ENTRY_BYTES as u64); // one entry
        let mut mem = nvmm();
        amt.update(Ps::ZERO, 0x40, 0x1000, &mut mem); // dirty
        amt.update(Ps::ZERO, 0x80, 0x2000, &mut mem); // evicts dirty 0x40
        assert_eq!(mem.stats().metadata.writes, 1);
        assert_eq!(amt.nvmm_traffic().1, 1);
    }

    #[test]
    fn remap_overwrites_previous_mapping() {
        let mut amt = Amt::new(1024);
        let mut mem = nvmm();
        amt.update(Ps::ZERO, 0x40, 0x1000, &mut mem);
        amt.update(Ps::ZERO, 0x40, 0x3000, &mut mem);
        assert_eq!(amt.peek(0x40), Some(0x3000));
        assert_eq!(amt.len(), 1);
        assert_eq!(
            mem.stats().metadata.writes,
            0,
            "self-replacement is not an eviction"
        );
    }

    #[test]
    fn footprint_grows_with_mappings() {
        let mut amt = Amt::new(1024);
        let mut mem = nvmm();
        for i in 0..10u64 {
            amt.update(Ps::ZERO, i * 64, i * 64, &mut mem);
        }
        assert_eq!(amt.nvmm_bytes(), 90);
        assert!(!amt.is_empty());
    }
}
