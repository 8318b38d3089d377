//! The SRAM cache of an NVMM-resident table, kept in the table itself.
//!
//! The AMT, the fingerprint store and the counter cache each buffer the hot
//! part of a table in controller SRAM. Rather than keep a second host
//! structure beside the table, every table entry is a [`Cached`] value that
//! carries its own SRAM state: a recency stamp from the cache's clock
//! (0 means "not resident"), its position in the resident-key list, and a
//! dirty bit. A hit is one table probe and one stamp write.
//!
//! An eviction takes the resident entry with the least stamp. The victim
//! order is a snapshot of the resident `(stamp, key)` pairs, sorted once and
//! popped until a pair's stamp is still the entry's current stamp; it is
//! rebuilt from the resident-key list (never by scanning the table) only
//! when it runs out. Stamps are unique and only grow, so any entry stamped
//! after the snapshot was taken is younger than every pair in it: the first
//! current pair popped is the exact least-recently-used entry.

use esd_collections::U64Map;
use esd_sim::CacheStats;

/// A table value plus the SRAM state of its entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cached<V> {
    pub value: V,
    /// Recency stamp; 0 while the entry is not in SRAM.
    stamp: u64,
    /// Index of the key in `SramCache::resident` while resident.
    pos: u32,
    /// Modified in SRAM since it was filled (meaningless when not resident).
    pub dirty: bool,
}

impl<V> Cached<V> {
    /// A table entry that is not in SRAM.
    pub fn new(value: V) -> Self {
        Cached {
            value,
            stamp: 0,
            pos: 0,
            dirty: false,
        }
    }

    /// Whether the entry is in SRAM.
    pub fn is_resident(&self) -> bool {
        self.stamp != 0
    }
}

/// Clock, capacity, resident keys, victim order and statistics of one SRAM
/// cache over a `U64Map<Cached<V>>`.
#[derive(Debug, Clone)]
pub(crate) struct SramCache {
    clock: u64,
    capacity: usize,
    /// Keys of the resident entries, in no particular order.
    resident: Vec<u64>,
    /// Snapshot of resident `(stamp, key)` pairs, least stamp last.
    victims: Vec<(u64, u64)>,
    stats: CacheStats,
}

impl SramCache {
    /// A cache of `capacity` entries; fewer than one counts as one.
    pub fn new(capacity: usize) -> Self {
        SramCache {
            clock: 0,
            capacity: capacity.max(1),
            resident: Vec::new(),
            victims: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Hits, misses and evictions so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Counts one lookup of `entry` (`None`: not in the table). A resident
    /// entry is a hit, becomes the most recent and is handed back.
    pub fn lookup<'a, V>(&mut self, entry: Option<&'a mut Cached<V>>) -> Option<&'a mut Cached<V>> {
        match entry {
            Some(entry) if entry.is_resident() => {
                self.stats.hits += 1;
                entry.stamp = self.tick();
                Some(entry)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Makes a resident entry the most recent without counting a lookup.
    pub fn touch<V>(&mut self, entry: &mut Cached<V>) {
        debug_assert!(entry.is_resident());
        entry.stamp = self.tick();
    }

    /// Brings `key`'s entry, which must be in `table` and not resident, into
    /// SRAM as the most recent, evicting the least recent entry if the cache
    /// is full. Returns the evicted key and its entry's dirty bit.
    pub fn admit<V>(
        &mut self,
        table: &mut U64Map<Cached<V>>,
        key: u64,
        dirty: bool,
    ) -> Option<(u64, bool)> {
        let (evicted, pos) = if self.resident.len() == self.capacity {
            // The new key takes the victim's place in the resident list.
            let (victim, victim_dirty, pos) = self.evict(table);
            self.resident[pos as usize] = key;
            (Some((victim, victim_dirty)), pos)
        } else {
            self.resident.push(key);
            (None, self.resident.len() as u32 - 1)
        };
        let stamp = self.tick();
        let entry = table.get_mut(key).expect("admitted key is in the table");
        debug_assert!(!entry.is_resident());
        entry.stamp = stamp;
        entry.pos = pos;
        entry.dirty = dirty;
        evicted
    }

    /// Empties the cache, as a power loss does: entries leave SRAM without
    /// write-backs, and the statistics stay.
    pub fn drop_all<V>(&mut self, table: &mut U64Map<Cached<V>>) {
        for key in self.resident.drain(..) {
            let entry = table.get_mut(key).expect("resident key is in the table");
            entry.stamp = 0;
            entry.dirty = false;
        }
        self.victims.clear();
    }

    /// Takes the least recently used resident entry out of SRAM, leaving its
    /// key in the resident list; returns the key, its dirty bit and its
    /// position in the list.
    fn evict<V>(&mut self, table: &mut U64Map<Cached<V>>) -> (u64, bool, u32) {
        loop {
            let Some((stamp, key)) = self.victims.pop() else {
                self.snapshot(table);
                continue;
            };
            // A pair is stale if its entry was touched or dropped (and perhaps
            // re-admitted with a newer stamp) since the snapshot.
            let Some(entry) = table.get_mut(key).filter(|e| e.stamp == stamp) else {
                continue;
            };
            entry.stamp = 0;
            self.stats.evictions += 1;
            return (key, entry.dirty, entry.pos);
        }
    }

    /// Rebuilds the victim order from the resident keys: cost bounded by
    /// the capacity, not by the table's size.
    fn snapshot<V>(&mut self, table: &U64Map<Cached<V>>) {
        debug_assert!(!self.resident.is_empty(), "evicting from an empty cache");
        self.victims.extend(self.resident.iter().map(|&key| {
            let entry = table.get(key).expect("resident key is in the table");
            (entry.stamp, key)
        }));
        sort_by_stamp_descending(&mut self.victims);
    }
}

/// Sorts `(stamp, key)` pairs by stamp, greatest first: one stable counting
/// pass per byte of the stamps' span, two or three in practice. Every
/// eviction pays a share of a sort, so with small caches, where most
/// misses evict, a comparison sort is a large part of a run's cost.
fn sort_by_stamp_descending(pairs: &mut Vec<(u64, u64)>) {
    let (low, high) = pairs
        .iter()
        .fold((u64::MAX, 0), |(low, high), &(stamp, _)| {
            (low.min(stamp), high.max(stamp))
        });
    let span = high.saturating_sub(low);
    let mut sorted = vec![(0, 0); pairs.len()];
    let mut shift = 0;
    while shift < u64::BITS && span >> shift != 0 {
        let digit = |stamp: u64| 255 - (((stamp - low) >> shift) & 0xFF) as usize;
        let mut next = [0usize; 256];
        for &(stamp, _) in pairs.iter() {
            next[digit(stamp)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for &pair in pairs.iter() {
            let d = digit(pair.0);
            sorted[next[d]] = pair;
            next[d] += 1;
        }
        std::mem::swap(pairs, &mut sorted);
        shift += 8;
    }
}
