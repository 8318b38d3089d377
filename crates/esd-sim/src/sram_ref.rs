//! The seed's map-based LRU cache, kept as a bit-exact reference for the
//! flat LRU in [`crate::sram`]. Test code only.
//!
//! This is the original implementation: a `HashMap` of entries plus a
//! `BTreeMap` of recency stamps, O(log n) per touch. The flat LRU must
//! reproduce its hit/miss/eviction behaviour *exactly* — the equivalence
//! property test below drives both with identical operation sequences.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::sram::CacheStats;

/// The original capacity-bounded LRU cache (reference implementation).
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    next_stamp: u64,
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
        LruCache {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.entries.contains_key(key) {
            self.stats.hits += 1;
            self.touch(key);
            self.entries.get(key).map(|(v, _)| v)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks up a key without affecting recency or statistics.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _)| v)
    }

    /// Mutable lookup, refreshing recency on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.entries.contains_key(key) {
            self.stats.hits += 1;
            self.touch(key);
            self.entries.get_mut(key).map(|(v, _)| v)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inserts a key, returning the evicted `(key, value)` if the cache was
    /// full, or the previous value if the key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some((old, stamp)) = self.entries.remove(&key) {
            self.recency.remove(&stamp);
            let stamp = self.bump();
            self.recency.insert(stamp, key.clone());
            self.entries.insert(key.clone(), (value, stamp));
            return Some((key, old));
        }
        let evicted = if self.entries.len() == self.capacity {
            let (&oldest_stamp, _) = self.recency.iter().next().expect("nonempty recency");
            let victim_key = self.recency.remove(&oldest_stamp).expect("stamp present");
            let (victim_val, _) = self.entries.remove(&victim_key).expect("entry present");
            self.stats.evictions += 1;
            Some((victim_key, victim_val))
        } else {
            None
        };
        let stamp = self.bump();
        self.recency.insert(stamp, key.clone());
        self.entries.insert(key, (value, stamp));
        evicted
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (value, stamp) = self.entries.remove(key)?;
        self.recency.remove(&stamp);
        Some(value)
    }

    fn bump(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    fn touch(&mut self, key: &K) {
        if let Some((_, stamp)) = self.entries.get(key) {
            let old = *stamp;
            self.recency.remove(&old);
            let new = self.bump();
            self.recency.insert(new, key.clone());
            if let Some((_, stamp_slot)) = self.entries.get_mut(key) {
                *stamp_slot = new;
            }
        }
    }
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum CacheOp {
        Get(u64),
        GetMut(u64),
        Peek(u64),
        Insert(u64, u64),
        Remove(u64),
    }

    proptest! {
        /// The flat LRU (slab + intrusive list + open-addressed index) and
        /// the seed's map-based implementation produce identical results —
        /// every return value, the hit/miss/eviction counters, and the
        /// exact victim of every eviction — on arbitrary operation
        /// sequences.
        #[test]
        fn flat_lru_matches_map_based_reference(
            capacity in 1usize..8,
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..16).prop_map(CacheOp::Get),
                    (0u64..16).prop_map(CacheOp::GetMut),
                    (0u64..16).prop_map(CacheOp::Peek),
                    (0u64..16, any::<u64>()).prop_map(|(k, v)| CacheOp::Insert(k, v)),
                    (0u64..16).prop_map(CacheOp::Remove),
                ],
                1..400,
            ),
        ) {
            let mut flat: crate::LruCache<u64, u64> = crate::LruCache::new(capacity);
            let mut reference: LruCache<u64, u64> = LruCache::new(capacity);
            for op in &ops {
                match *op {
                    CacheOp::Get(k) => {
                        prop_assert_eq!(flat.get(&k).copied(), reference.get(&k).copied());
                    }
                    CacheOp::GetMut(k) => {
                        let a = flat.get_mut(&k).map(|v| { *v += 1; *v });
                        let b = reference.get_mut(&k).map(|v| { *v += 1; *v });
                        prop_assert_eq!(a, b);
                    }
                    CacheOp::Peek(k) => {
                        prop_assert_eq!(flat.peek(&k).copied(), reference.peek(&k).copied());
                    }
                    CacheOp::Insert(k, v) => {
                        // Same displaced entry, including the eviction victim.
                        prop_assert_eq!(flat.insert(k, v), reference.insert(k, v));
                    }
                    CacheOp::Remove(k) => {
                        prop_assert_eq!(flat.remove(&k), reference.remove(&k));
                    }
                }
                prop_assert_eq!(flat.len(), reference.len());
                prop_assert_eq!(flat.stats(), reference.stats());
            }
            // The survivors match too, not just the observed responses.
            for (k, v) in flat.iter() {
                prop_assert_eq!(reference.peek(k), Some(v));
            }
        }
    }

    #[test]
    fn reference_still_evicts_least_recently_used() {
        let mut cache = LruCache::new(3);
        cache.insert(1, 'a');
        cache.insert(2, 'b');
        cache.insert(3, 'c');
        cache.get(&1);
        cache.get(&2);
        let evicted = cache.insert(4, 'd');
        assert_eq!(evicted, Some((3, 'c')));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    #[should_panic(expected = "cache capacity must be nonzero")]
    fn reference_zero_capacity_panics() {
        let _ = LruCache::<u64, ()>::new(0);
    }
}
