//! The ECC-based Fingerprint Index Table (EFIT).
//!
//! The EFIT is ESD's only fingerprint structure and lives *entirely* in the
//! memory-controller SRAM — nothing spills to NVMM, which is what eliminates
//! the fingerprint NVMM-lookup bottleneck (paper §III-D). Each entry is
//! ⟨ECC, Addr_base, Addr_offsets, referH⟩ = 14 bytes (Figure 7).
//!
//! Replacement uses the paper's **Least Reference Count Used (LRCU)**
//! policy: entries with reference count 1 are evicted first, keeping hot
//! fingerprints resident; a periodic refresh subtracts a fixed value from
//! all counts so stale entries age out. A plain-LRU mode is provided for the
//! paper's Figure 18 "without LRCU" ablation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use esd_collections::U64Map;
use esd_sim::CacheStats;

/// Bytes per EFIT entry: ECC (8) + `Addr_base` (4) + `Addr_offsets` (1) +
/// `referH` (1), per the paper's Figure 7.
pub const EFIT_ENTRY_BYTES: usize = 14;

/// Maximum `referH` value (1 byte). A line referenced beyond this is treated
/// as new and rewritten (paper §III-D).
pub const REFER_MAX: u8 = u8::MAX;

/// EFIT replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EfitPolicy {
    /// Least Reference Count Used — the paper's policy.
    Lrcu,
    /// Plain LRU (the Figure 18 ablation baseline).
    Lru,
}

/// A fingerprint entry as seen by the dedup engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EfitEntry {
    /// Physical line this fingerprint maps to.
    pub physical: u64,
    /// Current reference count (`referH`).
    pub refer: u8,
}

/// Null link of the intrusive list.
const NIL: u32 = u32::MAX;

/// One slab entry. `prev`/`next` are meaningful only while the node is on
/// the stamp-ordered list.
#[derive(Debug, Clone, Copy)]
struct Node {
    fingerprint: u64,
    physical: u64,
    stamp: u64,
    prev: u32,
    next: u32,
    refer: u8,
}

/// A `refer >= 2` entry's place in the eviction order: `(refer, stamp,
/// slot)`.
type HotKey = (u8, u64, u32);

/// The EFIT: an SRAM-resident ECC-fingerprint index with LRCU replacement.
///
/// Entries live in a slab behind one fingerprint index. Eviction order is
/// ascending `(refer, stamp)` with unique, monotone stamps, kept in two
/// parts: an intrusive stamp-ordered list of the `refer == 1` entries
/// (every entry under [`EfitPolicy::Lru`]), whose head is the victim, and
/// a min-heap of `(refer, stamp, slot)` keys for the LRCU entries with
/// `refer >= 2`, consulted only when the list is empty. Inserts and LRU
/// refreshes take a fresh stamp and append. [`Efit::bump_ref`] keeps the
/// stamp and pushes the entry's new key, leaving the old one in the heap:
/// a key is live while its node still carries that `(refer, stamp)`, and
/// eviction pops past the stale ones. Stamps are never reused and a slot
/// that changes hands takes a fresh one, so a stale key cannot come back
/// to life. Decay rebuilds the heap from its live keys, and a heap past
/// `2 * capacity + 64` keys drops its stale ones, which bounds it whatever
/// the decay interval.
///
/// # Examples
///
/// ```
/// use esd_core::{Efit, EfitPolicy};
/// let mut efit = Efit::new(1 << 10, EfitPolicy::Lrcu); // 1 KB => 73 entries
/// efit.insert(0xABCD, 0x40);
/// assert_eq!(efit.lookup(0xABCD).map(|e| e.physical), Some(0x40));
/// assert!(efit.lookup(0xBEEF).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Efit {
    policy: EfitPolicy,
    capacity: usize,
    /// Fingerprint → slab slot. Its iteration order is the order of
    /// [`Efit::pinned_physicals`], which decides the allocator's free-list
    /// order after a crash; see [`Efit::touch`].
    index: U64Map<u32>,
    nodes: Vec<Node>,
    /// Oldest and newest node of the stamp-ordered list.
    head: u32,
    tail: u32,
    /// The key of every LRCU entry with `refer >= 2`, least first, mixed
    /// with keys that have gone stale; see [`Efit::is_live`].
    hot: BinaryHeap<Reverse<HotKey>>,
    stamp_counter: u64,
    decay_interval: u64,
    ops_since_decay: u64,
    stats: CacheStats,
}

impl Efit {
    /// Default number of insert/bump operations between LRCU decay passes.
    pub const DEFAULT_DECAY_INTERVAL: u64 = 65_536;

    /// Creates an EFIT sized to `capacity_bytes` of SRAM.
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds what a 32-bit slot number addresses.
    #[must_use]
    pub fn new(capacity_bytes: u64, policy: EfitPolicy) -> Self {
        let capacity = (capacity_bytes as usize / EFIT_ENTRY_BYTES).max(1);
        assert!(capacity < NIL as usize, "EFIT capacity exceeds u32 slots");
        Efit {
            policy,
            capacity,
            index: U64Map::with_capacity(capacity),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            hot: BinaryHeap::new(),
            stamp_counter: 0,
            decay_interval: Self::DEFAULT_DECAY_INTERVAL,
            ops_since_decay: 0,
            stats: CacheStats::default(),
        }
    }

    /// Overrides the decay interval (operations between refresh passes).
    pub fn set_decay_interval(&mut self, interval: u64) {
        self.decay_interval = interval.max(1);
    }

    /// The current decay interval.
    #[must_use]
    pub fn decay_interval(&self) -> u64 {
        self.decay_interval
    }

    /// Number of entries the SRAM can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The replacement policy in use.
    #[must_use]
    pub fn policy(&self) -> EfitPolicy {
        self.policy
    }

    /// SRAM bytes occupied by live entries.
    #[must_use]
    pub fn sram_bytes(&self) -> u64 {
        (self.index.len() * EFIT_ENTRY_BYTES) as u64
    }

    /// Looks up a fingerprint, counting the probe in the statistics and
    /// (under LRU) refreshing recency.
    pub fn lookup(&mut self, fingerprint: u64) -> Option<EfitEntry> {
        let Some(&slot) = self.index.get(fingerprint) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        if self.policy == EfitPolicy::Lru {
            self.unlink(slot);
            self.push_back(slot);
            self.touch(fingerprint, slot);
        }
        let node = &self.nodes[slot as usize];
        Some(EfitEntry {
            physical: node.physical,
            refer: node.refer,
        })
    }

    /// Increments a fingerprint's reference count, returning the new value
    /// (saturating at [`REFER_MAX`]).
    ///
    /// Returns `None` if the fingerprint is not resident.
    pub fn bump_ref(&mut self, fingerprint: u64) -> Option<u8> {
        self.tick();
        let slot = *self.index.get(fingerprint)?;
        let node = self.nodes[slot as usize];
        let refer = node.refer.saturating_add(1);
        self.nodes[slot as usize].refer = refer;
        if self.policy == EfitPolicy::Lrcu && refer != node.refer {
            // Off the list if it was on it; the key it had in the heap
            // otherwise went stale with the count.
            if node.refer == 1 {
                self.unlink(slot);
            }
            self.hot.push(Reverse((refer, node.stamp, slot)));
            if self.hot.len() > self.hot_bound() {
                let nodes = &self.nodes;
                self.hot.retain(|&Reverse(key)| Self::is_live(nodes, key));
            }
        }
        self.touch(fingerprint, slot);
        Some(refer)
    }

    /// Inserts a fingerprint → physical mapping with `referH = 1`, evicting
    /// per the policy if full.
    ///
    /// Returns the physical line of the displaced entry (the LRCU victim,
    /// or the old target when `fingerprint` is replaced in place). The
    /// caller holds one reference-count *pin* per resident entry, so it
    /// must `decref` the returned physical.
    pub fn insert(&mut self, fingerprint: u64, physical: u64) -> Option<u64> {
        self.tick();
        let (slot, displaced) = if let Some(&slot) = self.index.get(fingerprint) {
            // Replace an existing mapping in place. It comes off the list
            // if it is on it; a key it has in the heap goes stale with the
            // fresh stamp below.
            if self.policy == EfitPolicy::Lru || self.nodes[slot as usize].refer == 1 {
                self.unlink(slot);
            }
            (slot, Some(self.nodes[slot as usize].physical))
        } else if self.nodes.len() < self.capacity {
            (self.nodes.len() as u32, None)
        } else {
            // The victim's slot is reused at once, so the slab never has
            // holes and needs no free list.
            let slot = if self.head != NIL {
                let slot = self.head;
                self.unlink(slot);
                slot
            } else {
                loop {
                    let Reverse(key) = self.hot.pop().expect("a full table has entries");
                    if Self::is_live(&self.nodes, key) {
                        break key.2;
                    }
                }
            };
            let victim = self.nodes[slot as usize];
            self.index.remove(victim.fingerprint);
            self.stats.evictions += 1;
            (slot, Some(victim.physical))
        };
        let node = Node {
            fingerprint,
            physical,
            stamp: 0,
            prev: NIL,
            next: NIL,
            refer: 1,
        };
        match self.nodes.get_mut(slot as usize) {
            Some(resident) => *resident = node,
            None => self.nodes.push(node),
        }
        self.push_back(slot);
        self.index.insert(fingerprint, slot);
        displaced
    }

    /// Physical lines currently pinned by resident entries (one per entry).
    #[must_use]
    pub fn pinned_physicals(&self) -> Vec<u64> {
        self.index
            .values()
            .map(|&slot| self.nodes[slot as usize].physical)
            .collect()
    }

    /// Empties the table as a power-loss event would (the EFIT is SRAM-only
    /// and advisory), while preserving every configuration knob: capacity,
    /// replacement policy, and any decay-interval override a sensitivity
    /// study has set. Statistics reset with the contents.
    pub fn reset(&mut self) {
        self.index = U64Map::with_capacity(self.capacity);
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hot.clear();
        self.stamp_counter = 0;
        self.ops_since_decay = 0;
        self.stats = CacheStats::default();
    }

    /// Re-inserts a resident key on every hit that changes the entry.
    /// `U64Map::insert` grows at 7/8 load before it probes, even for a key
    /// it already holds, so a full table of 7·2^k entries doubles at the
    /// first such hit; iteration order, and with it `pinned_physicals` and
    /// every report after a crash, depends on when that happens.
    fn touch(&mut self, fingerprint: u64, slot: u32) {
        self.index.insert(fingerprint, slot);
    }

    /// Whether `key` is its slot's current key: every change of a node's
    /// `(refer, stamp)` leaves the key pushed for the old pair stale.
    fn is_live(nodes: &[Node], (refer, stamp, slot): HotKey) -> bool {
        let node = &nodes[slot as usize];
        node.refer == refer && node.stamp == stamp
    }

    /// Most keys `hot` may hold once a bump returns: at most `capacity` are
    /// live, so dropping the stale ones of a heap this long at least halves
    /// it, and the pass costs O(1) per bump.
    fn hot_bound(&self) -> usize {
        2 * self.capacity + 64
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            _ => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.nodes[next as usize].prev = prev,
        }
    }

    /// Links `slot` in front of list node `at` (`NIL` appends).
    fn link_before(&mut self, slot: u32, at: u32) {
        let prev = match at {
            NIL => std::mem::replace(&mut self.tail, slot),
            _ => std::mem::replace(&mut self.nodes[at as usize].prev, slot),
        };
        match prev {
            NIL => self.head = slot,
            _ => self.nodes[prev as usize].next = slot,
        }
        let node = &mut self.nodes[slot as usize];
        node.prev = prev;
        node.next = at;
    }

    /// Gives `slot` a fresh stamp, which is the largest, and appends it.
    fn push_back(&mut self, slot: u32) {
        self.stamp_counter += 1;
        self.nodes[slot as usize].stamp = self.stamp_counter;
        self.link_before(slot, NIL);
    }

    /// Advances the decay clock; under LRCU, periodically subtracts one from
    /// every reference count (floored at 1) so counts stay fresh (§III-D).
    fn tick(&mut self) {
        if self.policy != EfitPolicy::Lrcu {
            return;
        }
        self.ops_since_decay += 1;
        if self.ops_since_decay < self.decay_interval {
            return;
        }
        self.ops_since_decay = 0;
        // One pass over the live keys of `hot` in order. Counts of 3 and
        // above keep their relative order one lower. The `refer == 2` run
        // comes first and in stamp order, so it merges into the list, whose
        // entries were stamped at any time, with a cursor that only moves
        // forward.
        let mut hot = std::mem::take(&mut self.hot).into_vec();
        hot.retain(|&Reverse(key)| Self::is_live(&self.nodes, key));
        hot.sort_unstable_by_key(|&Reverse(key)| key);
        let mut cursor = self.head;
        self.hot = hot
            .into_iter()
            .filter_map(|Reverse((refer, stamp, slot))| {
                self.nodes[slot as usize].refer = refer - 1;
                if refer > 2 {
                    return Some(Reverse((refer - 1, stamp, slot)));
                }
                while cursor != NIL && self.nodes[cursor as usize].stamp < stamp {
                    cursor = self.nodes[cursor as usize].next;
                }
                self.link_before(slot, cursor);
                None
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: EfitPolicy) -> Efit {
        // 3 entries.
        Efit::new((EFIT_ENTRY_BYTES * 3) as u64, policy)
    }

    #[test]
    fn capacity_derives_from_entry_size() {
        let efit = Efit::new(512 << 10, EfitPolicy::Lrcu);
        assert_eq!(efit.capacity(), (512 << 10) / EFIT_ENTRY_BYTES);
    }

    #[test]
    fn lookup_hit_and_miss_are_counted() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.insert(1, 0x40);
        assert!(efit.lookup(1).is_some());
        assert!(efit.lookup(2).is_none());
        assert_eq!(efit.stats().hits, 1);
        assert_eq!(efit.stats().misses, 1);
    }

    #[test]
    fn lrcu_evicts_lowest_reference_count_first() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.insert(1, 0x40);
        efit.insert(2, 0x80);
        efit.insert(3, 0xC0);
        efit.bump_ref(2);
        efit.bump_ref(3);
        efit.bump_ref(3);
        // All full; fp 1 has refer 1 => evicted first.
        let evicted = efit.insert(4, 0x100);
        assert_eq!(evicted, Some(0x40), "fp 1's line is displaced");
        assert!(efit.lookup(2).is_some());
        assert!(efit.lookup(3).is_some());
    }

    #[test]
    fn lrcu_prefers_oldest_among_equal_counts() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.insert(1, 0x40);
        efit.insert(2, 0x80);
        efit.insert(3, 0xC0);
        let evicted = efit.insert(4, 0x100);
        assert_eq!(evicted, Some(0x40), "all refer=1, oldest goes first");
    }

    #[test]
    fn lru_mode_ignores_reference_counts() {
        let mut efit = small(EfitPolicy::Lru);
        efit.insert(1, 0x40);
        efit.insert(2, 0x80);
        efit.insert(3, 0xC0);
        efit.bump_ref(1); // would protect under LRCU
        let _ = efit.lookup(2); // refresh 2 and 3 under LRU
        let _ = efit.lookup(3);
        let evicted = efit.insert(4, 0x100);
        assert_eq!(evicted, Some(0x40), "LRU evicts least-recent regardless of refer");
    }

    #[test]
    fn bump_ref_saturates_at_max() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.insert(1, 0x40);
        for _ in 0..300 {
            efit.bump_ref(1);
        }
        assert_eq!(efit.lookup(1).unwrap().refer, REFER_MAX);
        assert_eq!(efit.bump_ref(99), None, "absent fingerprint");
    }

    #[test]
    fn decay_subtracts_one_and_merges_by_stamp() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.set_decay_interval(4);
        let refer = |efit: &mut Efit, fp| efit.lookup(fp).map(|e| e.refer);
        efit.insert(1, 0x40); // op 1
        efit.bump_ref(1); // op 2
        efit.bump_ref(1); // op 3
        assert_eq!(refer(&mut efit, 1), Some(3));
        efit.insert(2, 0x80); // op 4: decay (3 -> 2), then the insert
        assert_eq!(refer(&mut efit, 1), Some(2));
        assert_eq!(refer(&mut efit, 2), Some(1), "inserted after the pass");
        efit.insert(3, 0xC0); // op 5
        efit.bump_ref(3); // op 6
        efit.bump_ref(2); // op 7: bumped after 3, stamped before it

        // op 8: decay brings all three to 1. They rejoin the eviction
        // order by stamp, not in the order they were bumped or decayed.
        assert_eq!(efit.insert(4, 0x100), Some(0x40));
        assert_eq!(efit.insert(5, 0x140), Some(0x80));
        assert_eq!(efit.insert(6, 0x180), Some(0xC0)); // op 10
        efit.bump_ref(99); // op 11: absent fingerprints advance the clock too
        efit.bump_ref(99); // op 12: decay
        assert_eq!(refer(&mut efit, 4), Some(1), "counts floor at one");
    }

    #[test]
    fn stale_keys_never_outgrow_the_compaction_bound() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.set_decay_interval(u64::MAX); // no rebuild comes to the rescue
        let bound = efit.hot_bound();
        assert!(bound < 100, "each entry below pushes more keys than that");
        for fp in 0..40u64 {
            efit.insert(fp, fp * 0x40);
            // To saturation and past it: 254 keys, all but the last stale.
            for _ in 0..300 {
                efit.bump_ref(fp);
                assert!(efit.hot.len() <= bound, "{} keys", efit.hot.len());
            }
        }
        // What is live is still in order: three saturated entries, the
        // oldest stamp goes first.
        assert_eq!(efit.insert(99, 0), Some(37 * 0x40));
    }

    #[test]
    fn reinsert_same_fingerprint_replaces_mapping() {
        let mut efit = small(EfitPolicy::Lrcu);
        efit.insert(1, 0x40);
        assert_eq!(efit.insert(1, 0x80), Some(0x40), "old pin released");
        assert_eq!(efit.lookup(1).unwrap().physical, 0x80);
        assert_eq!(efit.len(), 1);
    }
}
