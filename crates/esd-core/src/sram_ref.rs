//! The seed's map-based LRU cache, kept as a bit-exact reference for the
//! stamped SRAM cache in [`crate::sram_cache`]. Test code only.
//!
//! This is the original implementation: a `HashMap` of entries plus a
//! `BTreeMap` of recency stamps, O(log n) per touch. The stamped cache must
//! reproduce its hit/miss/eviction behaviour *exactly* — the equivalence
//! property tests below drive both with identical operation sequences.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use esd_sim::CacheStats;

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
    use crate::sram_cache::{Cached, SramCache};
    use esd_collections::U64Map;
    use proptest::prelude::*;

    /// A table whose SRAM part is an [`SramCache`], driven through the
    /// reference's API. Entries stay in the table when evicted, as the
    /// AMT's and the store's do.
    struct Stamped {
        table: U64Map<Cached<u64>>,
        sram: SramCache,
    }

    impl Stamped {
        fn get(&mut self, key: u64) -> Option<(u64, bool)> {
            let entry = self.sram.lookup(self.table.get_mut(key))?;
            Some((entry.value, entry.dirty))
        }

        fn get_mut(&mut self, key: u64) -> Option<(u64, bool)> {
            let entry = self.sram.lookup(self.table.get_mut(key))?;
            entry.value += 1;
            entry.dirty = !entry.dirty;
            Some((entry.value, entry.dirty))
        }

        fn peek(&self, key: u64) -> Option<(u64, bool)> {
            let entry = self.table.get(key).filter(|e| e.is_resident())?;
            Some((entry.value, entry.dirty))
        }

        fn insert(&mut self, key: u64, value: u64, dirty: bool) -> Option<(u64, (u64, bool))> {
            let entry = self.table.get_or_insert_with(key, || Cached::new(value));
            if entry.is_resident() {
                let old = (entry.value, entry.dirty);
                (entry.value, entry.dirty) = (value, dirty);
                self.sram.touch(entry);
                return Some((key, old));
            }
            entry.value = value;
            let (victim, victim_dirty) = self.sram.admit(&mut self.table, key, dirty)?;
            Some((victim, (self.table.get(victim)?.value, victim_dirty)))
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Get(u64),
        GetMut(u64),
        Peek(u64),
        Insert(u64, u64, bool),
        /// Power loss: every entry leaves SRAM.
        DropAll,
    }

    /// Operations over keys `0..keys`; one pick in `5 * drop_one_in` is a
    /// power loss.
    fn ops(
        keys: u64,
        drop_one_in: u32,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<CacheOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0..keys).prop_map(CacheOp::Get),
                (0..keys).prop_map(CacheOp::GetMut),
                (0..keys).prop_map(CacheOp::Peek),
                (0..keys, any::<u64>(), any::<bool>())
                    .prop_map(|(k, v, d)| CacheOp::Insert(k, v, d)),
                (0..drop_one_in, 0..keys).prop_map(|(n, k)| match n {
                    0 => CacheOp::DropAll,
                    _ => CacheOp::Get(k),
                }),
            ],
            len,
        )
    }

    /// Drives the stamped cache and the reference with `ops`, comparing
    /// every return value (the exact victim of every eviction included),
    /// the statistics after every step, and the survivors at the end.
    fn check(capacity: usize, keys: u64, ops: &[CacheOp]) {
        let mut stamped = Stamped {
            table: U64Map::new(),
            sram: SramCache::new(capacity),
        };
        let mut reference: LruCache<u64, (u64, bool)> = LruCache::new(capacity);
        for op in ops {
            match *op {
                CacheOp::Get(k) => {
                    prop_assert_eq!(stamped.get(k), reference.get(&k).copied());
                }
                CacheOp::GetMut(k) => {
                    let b = reference.get_mut(&k).map(|v| {
                        *v = (v.0 + 1, !v.1);
                        *v
                    });
                    prop_assert_eq!(stamped.get_mut(k), b);
                }
                CacheOp::Peek(k) => {
                    prop_assert_eq!(stamped.peek(k), reference.peek(&k).copied());
                }
                CacheOp::Insert(k, v, d) => {
                    prop_assert_eq!(stamped.insert(k, v, d), reference.insert(k, (v, d)));
                }
                CacheOp::DropAll => {
                    stamped.sram.drop_all(&mut stamped.table);
                    for k in 0..keys {
                        reference.remove(&k);
                    }
                }
            }
            prop_assert_eq!(stamped.sram.stats(), reference.stats());
        }
        for k in 0..keys {
            prop_assert_eq!(stamped.peek(k), reference.peek(&k).copied());
        }
        prop_assert_eq!(
            (0..keys).filter(|&k| stamped.peek(k).is_some()).count(),
            reference.len()
        );
    }

    proptest! {
        /// Small caches over few keys: every operation hits both resident
        /// and absent keys, and evictions and power losses interleave closely.
        #[test]
        fn stamped_lru_matches_map_based_reference(
            capacity in 1usize..8,
            ops in ops(16, 8, 1..400),
        ) {
            check(capacity, 16, &ops);
        }

        /// Larger caches over long runs: most victim pairs go stale before
        /// they are popped, and the victim order is rebuilt many times.
        #[test]
        fn lru_matches_reference(
            capacity in 1usize..64,
            ops in ops(96, 200, 1..3_000),
        ) {
            check(capacity, 96, &ops);
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
