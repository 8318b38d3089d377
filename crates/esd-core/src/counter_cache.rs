//! Counter-cache model for counter-mode encryption.
//!
//! CME derives each line's pad from a per-line write counter. Counters are
//! persisted in NVMM (split-counter layout: one 64-byte block carries the
//! shared major counter plus 64 per-line minor counters) and cached in the
//! memory controller. The paper — like most dedup-for-NVMM work — assumes
//! counters are always cache-resident; this module makes that assumption a
//! measurable knob: with a finite cache, counter misses add an NVMM read to
//! the access path and dirty evictions add a write-back, exactly as modeled
//! in secure-memory designs such as SuperMem (MICRO'19).
//!
//! Every counter block touched has an entry in one host table, carrying its
//! SRAM state (recency stamp, dirty bit; see `sram_cache.rs`), the same
//! mechanism as the AMT's and the fingerprint store's caches.
//!
//! Disabled by default (`counter_cache_bytes = 0` in
//! [`esd_sim::ControllerConfig`]) to preserve the paper's assumption.

use esd_collections::U64Map;
use esd_sim::{CacheStats, NvmmSystem, Ps};

use crate::sram_cache::{Cached, SramCache};

/// Lines covered by one 64-byte counter block (split-counter layout).
pub const COUNTER_BLOCK_LINES: u64 = 64;
/// Bytes of SRAM per cached counter block (the block itself plus tag).
pub const COUNTER_ENTRY_BYTES: usize = 72;
/// NVMM region holding persisted counter blocks.
const CTR_NVMM_BASE: u64 = 1 << 46;

/// An LRU cache of counter blocks with miss/write-back charging.
///
/// # Examples
///
/// ```
/// use esd_core::CounterCache;
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
///
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// let mut cc = CounterCache::new(8 << 10);
/// let t1 = cc.access(Ps::ZERO, 0x40, true, &mut nvmm);  // miss: NVMM fill
/// let t2 = cc.access(t1, 0x40, false, &mut nvmm);       // hit: SRAM speed
/// assert!(t2 - t1 < t1);
/// ```
#[derive(Debug, Clone)]
pub struct CounterCache {
    /// Every counter block touched so far, by block number.
    blocks: U64Map<Cached<()>>,
    sram: SramCache,
    sram_latency: Ps,
    fills: u64,
    writebacks: u64,
}

impl CounterCache {
    /// Creates a counter cache holding `bytes` of counter blocks; a budget
    /// below one block gives a one-block cache.
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        CounterCache {
            blocks: U64Map::new(),
            sram: SramCache::new(bytes as usize / COUNTER_ENTRY_BYTES),
            sram_latency: Ps::from_ns(2),
            fills: 0,
            writebacks: 0,
        }
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.sram.stats()
    }

    /// NVMM fills and dirty write-backs performed so far.
    #[must_use]
    pub fn nvmm_traffic(&self) -> (u64, u64) {
        (self.fills, self.writebacks)
    }

    /// Makes the counter for `line_addr` available, returning the time at
    /// which the pad generation can start. Writes bump the counter (dirty).
    pub fn access(&mut self, now: Ps, line_addr: u64, write: bool, nvmm: &mut NvmmSystem) -> Ps {
        let block = line_addr / 64 / COUNTER_BLOCK_LINES;
        let entry = self.blocks.get_or_insert_with(block, || Cached::new(()));
        if let Some(entry) = self.sram.lookup(Some(entry)) {
            entry.dirty |= write;
            return now + self.sram_latency;
        }
        // Miss: fetch the counter block from NVMM.
        let completion = nvmm.metadata_read(now + self.sram_latency, Self::block_addr(block));
        self.fills += 1;
        if let Some((victim, true)) = self.sram.admit(&mut self.blocks, block, write) {
            nvmm.metadata_write(completion.finish, Self::block_addr(victim));
            self.writebacks += 1;
        }
        completion.finish
    }

    fn block_addr(block: u64) -> u64 {
        CTR_NVMM_BASE + block * 64
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
    fn miss_then_hit() {
        let mut mem = nvmm();
        let mut cc = CounterCache::new(8 << 10);
        let t1 = cc.access(Ps::ZERO, 0x40, false, &mut mem);
        assert!(t1 >= Ps::from_ns(75), "miss pays an NVMM read");
        assert_eq!(mem.stats().metadata.reads, 1);
        let t2 = cc.access(t1, 0x40, false, &mut mem);
        assert_eq!(t2, t1 + Ps::from_ns(2), "hit is SRAM speed");
        assert_eq!(cc.nvmm_traffic(), (1, 0));
    }

    #[test]
    fn lines_in_one_block_share_the_entry() {
        let mut mem = nvmm();
        let mut cc = CounterCache::new(8 << 10);
        cc.access(Ps::ZERO, 0, false, &mut mem);
        // Line 63 is in the same 64-line counter block as line 0.
        let t = cc.access(Ps::from_us(1), 63 * 64, false, &mut mem);
        assert_eq!(t, Ps::from_us(1) + Ps::from_ns(2));
        assert_eq!(mem.stats().metadata.reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut mem = nvmm();
        let mut cc = CounterCache::new(COUNTER_ENTRY_BYTES as u64); // one block
        cc.access(Ps::ZERO, 0, true, &mut mem); // dirty block 0
        cc.access(Ps::ZERO, 64 * 64 * 64, false, &mut mem); // evicts block 0
        assert_eq!(mem.stats().metadata.writes, 1);
        assert_eq!(cc.nvmm_traffic().1, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut mem = nvmm();
        let mut cc = CounterCache::new(COUNTER_ENTRY_BYTES as u64);
        cc.access(Ps::ZERO, 0, false, &mut mem);
        cc.access(Ps::ZERO, 64 * 64 * 64, false, &mut mem);
        assert_eq!(mem.stats().metadata.writes, 0);
    }
}
