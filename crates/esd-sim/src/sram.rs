//! An LRU cache model for controller-resident metadata SRAM.
//!
//! Used for the AMT hot-entry cache, the fingerprint caches of the
//! full-deduplication baselines, and the encryption-counter cache. (ESD's
//! EFIT uses its own Least-Reference-Count-Used policy, implemented in
//! `esd-core`.)
//!
//! The cache is a **flat LRU**: entries live in a contiguous slab threaded
//! with an intrusive doubly-linked recency list (O(1) touch), and keys are
//! located through an open-addressed index keyed by an FxHash-style
//! multiply-xor hash (`esd-collections`). The seed's `HashMap` + `BTreeMap`
//! implementation — O(log n) per touch — is preserved bit-for-bit in the
//! crate's test code (`sram_ref.rs`); an equivalence property test drives
//! both with identical operation sequences.

use std::hash::{BuildHasher, Hash};

use esd_collections::FxBuildHasher;

/// Hit/miss counters for a metadata cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sentinel for "no slot" in the recency links and the index.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    hash: u64,
    /// Neighbour toward the most-recently-used end.
    prev: u32,
    /// Neighbour toward the least-recently-used end.
    next: u32,
}

/// A capacity-bounded LRU cache.
///
/// # Examples
///
/// ```
/// use esd_sim::LruCache;
/// let mut cache: LruCache<u64, &str> = LruCache::new(2);
/// cache.insert(1, "a");
/// cache.insert(2, "b");
/// cache.get(&1);          // 1 is now most recent
/// cache.insert(3, "c");   // evicts 2
/// assert!(cache.get(&2).is_none());
/// assert!(cache.get(&1).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    /// Entry slab; slot numbers are stable except for `remove`'s
    /// swap-compaction.
    entries: Vec<Entry<K, V>>,
    /// Open-addressed index: hash → slab slot, linear probing,
    /// backward-shift deletion. Sized once at construction (the capacity
    /// is fixed), so it never rehashes.
    index: Vec<u32>,
    mask: usize,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (the eviction victim).
    tail: u32,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        // Strictly more index slots than entries (7/8 max load), so a probe
        // always terminates at an empty slot.
        let slots = capacity
            .saturating_mul(8)
            .div_ceil(7)
            .max(8)
            .next_power_of_two();
        LruCache {
            capacity,
            entries: Vec::new(),
            index: vec![NIL; slots],
            mask: slots - 1,
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn hash_of(key: &K) -> u64 {
        FxBuildHasher.hash_one(key)
    }

    /// Index *position* whose slot holds `key`, if present.
    #[inline]
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let mut pos = hash as usize & self.mask;
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return None;
            }
            let entry = &self.entries[slot as usize];
            if entry.hash == hash && entry.key == *key {
                return Some(pos);
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Places `slot` into the index (key must not already be present).
    fn index_insert(&mut self, hash: u64, slot: u32) {
        let mut pos = hash as usize & self.mask;
        while self.index[pos] != NIL {
            pos = (pos + 1) & self.mask;
        }
        self.index[pos] = slot;
    }

    /// Empties index position `pos` and backward-shifts the cluster after
    /// it so no tombstone is left.
    fn index_remove_at(&mut self, pos: usize) {
        let mut hole = pos;
        self.index[hole] = NIL;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let slot = self.index[i];
            if slot == NIL {
                break;
            }
            let ideal = self.entries[slot as usize].hash as usize & self.mask;
            if (i.wrapping_sub(ideal) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.index[hole] = slot;
                self.index[i] = NIL;
                hole = i;
            }
        }
    }

    /// Rewrites the index entry pointing at slab slot `from` to `to`
    /// (after a swap-compaction moved the entry).
    fn index_retarget(&mut self, hash: u64, from: u32, to: u32) {
        let mut pos = hash as usize & self.mask;
        loop {
            if self.index[pos] == from {
                self.index[pos] = to;
                return;
            }
            debug_assert_ne!(self.index[pos], NIL, "moved slot must be indexed");
            pos = (pos + 1) & self.mask;
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.entries[slot as usize];
            (e.prev, e.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next as usize].prev = prev;
        }
    }

    /// Links `slot` in as the most-recently-used entry.
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.entries[slot as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entries[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves `slot` to the most-recently-used position.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let hash = Self::hash_of(key);
        match self.find(hash, key) {
            Some(pos) => {
                let slot = self.index[pos];
                self.stats.hits += 1;
                self.touch(slot);
                Some(&self.entries[slot as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a key without affecting recency or statistics.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        let hash = Self::hash_of(key);
        self.find(hash, key)
            .map(|pos| &self.entries[self.index[pos] as usize].value)
    }

    /// Mutable lookup, refreshing recency on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let hash = Self::hash_of(key);
        match self.find(hash, key) {
            Some(pos) => {
                let slot = self.index[pos];
                self.stats.hits += 1;
                self.touch(slot);
                Some(&mut self.entries[slot as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a key, returning the evicted `(key, value)` if the cache was
    /// full, or the previous value if the key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let hash = Self::hash_of(&key);
        if let Some(pos) = self.find(hash, &key) {
            let slot = self.index[pos];
            let old = std::mem::replace(&mut self.entries[slot as usize].value, value);
            self.touch(slot);
            return Some((key, old));
        }
        if self.entries.len() == self.capacity {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            let victim_hash = self.entries[victim as usize].hash;
            let victim_pos = self
                .find(victim_hash, &self.entries[victim as usize].key.clone())
                .expect("victim is indexed");
            self.index_remove_at(victim_pos);
            self.stats.evictions += 1;
            self.unlink(victim);
            let entry = &mut self.entries[victim as usize];
            let old_key = std::mem::replace(&mut entry.key, key);
            let old_value = std::mem::replace(&mut entry.value, value);
            entry.hash = hash;
            self.push_front(victim);
            self.index_insert(hash, victim);
            return Some((old_key, old_value));
        }
        let slot = self.entries.len() as u32;
        self.entries.push(Entry {
            key,
            value,
            hash,
            prev: NIL,
            next: NIL,
        });
        self.push_front(slot);
        self.index_insert(hash, slot);
        None
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = Self::hash_of(key);
        let pos = self.find(hash, key)?;
        let slot = self.index[pos];
        self.index_remove_at(pos);
        self.unlink(slot);
        // Swap-compact the slab so it stays dense: the last entry moves
        // into the vacated slot, and its links and index slot follow.
        let last = self.entries.len() as u32 - 1;
        let removed = self.entries.swap_remove(slot as usize);
        if slot != last {
            let moved_hash = self.entries[slot as usize].hash;
            self.index_retarget(moved_hash, last, slot);
            let (prev, next) = {
                let e = &self.entries[slot as usize];
                (e.prev, e.next)
            };
            if prev == NIL {
                self.head = slot;
            } else {
                self.entries[prev as usize].next = slot;
            }
            if next == NIL {
                self.tail = slot;
            } else {
                self.entries[next as usize].prev = slot;
            }
        }
        Some(removed.value)
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|e| (&e.key, &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(3);
        cache.insert(1, 'a');
        cache.insert(2, 'b');
        cache.insert(3, 'c');
        cache.get(&1);
        cache.get(&2);
        let evicted = cache.insert(4, 'd');
        assert_eq!(evicted, Some((3, 'c')));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_updates_value_and_returns_old() {
        let mut cache = LruCache::new(2);
        cache.insert(1, 'a');
        assert_eq!(cache.insert(1, 'b'), Some((1, 'a')));
        assert_eq!(cache.peek(&1), Some(&'b'));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut cache = LruCache::new(2);
        cache.insert(1, ());
        cache.get(&1);
        cache.get(&2);
        cache.get(&2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn peek_does_not_perturb_recency() {
        let mut cache = LruCache::new(2);
        cache.insert(1, 'a');
        cache.insert(2, 'b');
        let _ = cache.peek(&1);
        let evicted = cache.insert(3, 'c');
        assert_eq!(evicted, Some((1, 'a')), "peek must not refresh key 1");
    }

    #[test]
    fn remove_frees_space() {
        let mut cache = LruCache::new(1);
        cache.insert(1, 'a');
        assert_eq!(cache.remove(&1), Some('a'));
        assert!(cache.is_empty());
        assert_eq!(cache.insert(2, 'b'), None);
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut cache = LruCache::new(2);
        cache.insert(1, 10);
        *cache.get_mut(&1).unwrap() += 5;
        assert_eq!(cache.peek(&1), Some(&15));
    }

    #[test]
    #[should_panic(expected = "cache capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u64, ()>::new(0);
    }

    #[test]
    fn remove_middle_keeps_list_and_index_consistent() {
        // Exercises swap-compaction: remove entries from every list
        // position and keep using the cache afterwards.
        let mut cache = LruCache::new(4);
        for i in 0..4u64 {
            cache.insert(i, i * 10);
        }
        assert_eq!(cache.remove(&1), Some(10)); // middle of the list
        assert_eq!(cache.remove(&3), Some(30)); // was MRU
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&0), Some(&0));
        assert_eq!(cache.peek(&2), Some(&20));
        // Refill and force an eviction: LRU order must still be coherent.
        cache.insert(5, 50);
        cache.insert(6, 60);
        cache.get(&0); // refresh 0; LRU is now 2
        let evicted = cache.insert(7, 70);
        assert_eq!(evicted, Some((2, 20)));
    }

    #[test]
    fn eviction_reuses_slot_without_growth() {
        let mut cache = LruCache::new(2);
        for i in 0..100u64 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 98);
        assert_eq!(cache.peek(&99), Some(&99));
        assert_eq!(cache.peek(&98), Some(&98));
    }
}
