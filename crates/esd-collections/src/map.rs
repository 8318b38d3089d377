//! An open-addressed `u64 → V` table with linear probing and
//! tombstone-free removal.

use crate::fx::hash_u64;

/// Minimum slot-array size (a power of two).
const MIN_SLOTS: usize = 8;

/// An open-addressed hash map from `u64` keys to `V` values.
///
/// Designed for the simulator's metadata hot paths: one multiply-xor hash,
/// a linear probe over a contiguous slot array, and **backward-shift
/// deletion** instead of tombstones, so long-lived tables (the AMT and the
/// fingerprint indexes live for an entire replay) never accumulate
/// deleted-entry litter that lengthens probes.
///
/// The table resizes at 7/8 occupancy and never shrinks. Iteration order is
/// unspecified but deterministic for a given insertion/removal history
/// (hashing is unseeded), which the replay-determinism tests rely on.
///
/// # Examples
///
/// ```
/// use esd_collections::U64Map;
/// let mut map: U64Map<u64> = U64Map::new();
/// map.insert(0x40, 7);
/// assert_eq!(map.get(0x40), Some(&7));
/// assert_eq!(map.insert(0x40, 8), Some(7));
/// assert_eq!(map.remove(0x40), Some(8));
/// assert!(map.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct U64Map<V> {
    slots: Vec<Option<(u64, V)>>,
    mask: usize,
    len: usize,
}

impl<V> Default for U64Map<V> {
    fn default() -> Self {
        U64Map::new()
    }
}

impl<V> U64Map<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        U64Map {
            slots: (0..MIN_SLOTS).map(|_| None).collect(),
            mask: MIN_SLOTS - 1,
            len: 0,
        }
    }

    /// Creates a map pre-sized to hold `capacity` entries without resizing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = slots_for(capacity);
        U64Map {
            slots: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        hash_u64(key) as usize & self.mask
    }

    /// Hints the cache line of the slot a probe of `key` starts at (see
    /// [`crate::prefetch`]). Reads no slot, moves nothing and counts
    /// nothing: the map is exactly as it was.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        crate::prefetch(&self.slots[self.ideal(key)]);
    }

    /// Index of the slot holding `key`, or of the vacancy that ends its
    /// probe path (where an insert would put it).
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = self.ideal(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k != key => i = (i + 1) & self.mask,
                _ => return i,
            }
        }
    }

    /// Index of the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let i = self.probe(key);
        self.slots[i].is_some().then_some(i)
    }

    /// A shared reference to the value for `key`.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.slots[i].as_ref().unwrap().1)
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key)
            .map(|i| &mut self.slots[i].as_mut().unwrap().1)
    }

    /// Whether `key` is present.
    #[inline]
    #[must_use]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Resize *before* probing so the insertion slot stays valid.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.ideal(key);
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, value)),
                Some(_) => i = (i + 1) & self.mask,
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// A mutable reference to the value for `key`, inserting
    /// `default(key)` first if absent.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let mut i = self.probe(key);
        if self.slots[i].is_none() {
            // As in `insert`, a table at its load limit grows before it
            // takes a new key (never on a look-up of a resident one), and
            // growth moves the vacancy.
            if (self.len + 1) * 8 > self.slots.len() * 7 {
                self.grow();
                i = self.probe(key);
            }
            self.slots[i] = Some((key, default()));
            self.len += 1;
        }
        &mut self.slots[i].as_mut().expect("probed slot is occupied").1
    }

    /// Removes `key`, returning its value. Uses backward-shift deletion:
    /// the probe chain after the hole is compacted, so no tombstone is
    /// left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("found slot is occupied");
        self.len -= 1;
        // Backward shift: walk the cluster after the hole; any entry whose
        // ideal slot lies cyclically at or before the hole moves into it.
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let Some((k, _)) = &self.slots[i] else { break };
            let ideal = self.ideal(*k);
            // Distance from the entry's ideal slot to where it sits now vs
            // to the hole; moving is safe iff the hole is on its probe path.
            if (i.wrapping_sub(ideal) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
        Some(value)
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Iterates over `(key, &mut value)` pairs in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> {
        self.slots
            .iter_mut()
            .filter_map(|slot| slot.as_mut().map(|(k, v)| (*k, v)))
    }

    /// Iterates over the values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over the keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    fn grow(&mut self) {
        let new_slots = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_slots).map(|_| None).collect());
        self.mask = new_slots - 1;
        for slot in old {
            if let Some((key, _)) = slot {
                // Re-probe into the doubled table; no occupancy check
                // needed (the new table is strictly larger).
                let mut i = self.ideal(key);
                while self.slots[i].is_some() {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = slot;
            }
        }
    }
}

/// Slot count (power of two) keeping `capacity` entries under 7/8 load.
fn slots_for(capacity: usize) -> usize {
    let needed = capacity.saturating_mul(8).div_ceil(7).max(MIN_SLOTS);
    needed.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut map = U64Map::new();
        assert_eq!(map.insert(1, "a"), None);
        assert_eq!(map.insert(2, "b"), None);
        assert_eq!(map.insert(1, "c"), Some("a"));
        assert_eq!(map.get(1), Some(&"c"));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove(1), Some("c"));
        assert_eq!(map.remove(1), None);
        assert_eq!(map.len(), 1);
        assert!(map.contains_key(2));
        assert!(!map.contains_key(1));
    }

    #[test]
    fn zero_key_is_a_valid_key() {
        // Address 0 is a real physical line; the empty-slot encoding must
        // not confuse it with vacancy.
        let mut map = U64Map::new();
        map.insert(0, 99u64);
        assert_eq!(map.get(0), Some(&99));
        assert_eq!(map.remove(0), Some(99));
        assert!(map.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut map = U64Map::with_capacity(4);
        for i in 0..10_000u64 {
            map.insert(i * 64, i);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(map.get(i * 64), Some(&i), "key {i} lost in growth");
        }
    }

    #[test]
    fn with_capacity_avoids_resizing() {
        let map: U64Map<u64> = U64Map::with_capacity(1000);
        assert!(map.slots.len() >= 1000 * 8 / 7);
        assert!(map.slots.len().is_power_of_two());
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut map = U64Map::new();
        *map.get_or_insert_with(5, || 10u64) += 1;
        *map.get_or_insert_with(5, || 999) += 1;
        assert_eq!(map.get(5), Some(&12));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn get_or_insert_with_lays_the_table_out_as_find_then_insert_does() {
        // Iteration order feeds replay reports, so the one-probe form must
        // grow exactly when the two-step form it replaced did.
        let mut one_probe = U64Map::new();
        let mut two_step = U64Map::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 6_000;
            *one_probe.get_or_insert_with(key, || step) += 1;
            if !two_step.contains_key(key) {
                two_step.insert(key, step);
            }
            *two_step.get_mut(key).unwrap() += 1;
        }
        assert!(one_probe.iter().eq(two_step.iter()));
    }

    #[test]
    fn a_prefetch_leaves_the_map_as_it_was() {
        let snapshot = |map: &U64Map<u64>| map.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>();
        // Empty, and at its 7/8 growth point: the next new key doubles it.
        let empty: U64Map<u64> = U64Map::new();
        empty.prefetch(0);
        empty.prefetch(u64::MAX);
        assert!(empty.is_empty());
        assert_eq!(empty.slots.len(), MIN_SLOTS);
        let mut map = U64Map::new();
        let mut twin = U64Map::new();
        for key in 0..7u64 {
            map.insert(key << 6, key);
            twin.insert(key << 6, key);
        }
        let before = snapshot(&map);
        for key in (0..7u64).chain(100..140) {
            map.prefetch(key << 6);
        }
        assert_eq!(map.len(), 7);
        assert_eq!(map.slots.len(), MIN_SLOTS);
        assert_eq!(snapshot(&map), before);
        // It grows when, and into the order, a map that never saw one does.
        map.insert(7 << 6, 7);
        twin.insert(7 << 6, 7);
        assert_eq!(map.slots.len(), 2 * MIN_SLOTS);
        assert_eq!(snapshot(&map), snapshot(&twin));
    }

    #[test]
    fn backward_shift_preserves_probe_chains() {
        // Build dense clusters, delete from their middles, and check every
        // survivor is still reachable — the failure mode of naive deletion.
        let mut map = U64Map::new();
        let mut model = HashMap::new();
        // xorshift so keys are arbitrary but reproducible.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut keys = Vec::new();
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 1_024; // small key space forces collisions
            keys.push(key);
            map.insert(key, x);
            model.insert(key, x);
        }
        for (i, key) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(map.remove(*key), model.remove(key), "removing {key}");
            }
        }
        assert_eq!(map.len(), model.len());
        for (key, value) in &model {
            assert_eq!(map.get(*key), Some(value), "key {key} unreachable");
        }
        for (key, value) in map.iter() {
            assert_eq!(model.get(&key), Some(value));
        }
    }

    #[test]
    fn clear_retains_allocation() {
        let mut map = U64Map::new();
        for i in 0..100u64 {
            map.insert(i, i);
        }
        let slots = map.slots.len();
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.slots.len(), slots);
        map.insert(7, 7);
        assert_eq!(map.get(7), Some(&7));
    }

    #[test]
    fn iterators_cover_all_entries() {
        let mut map = U64Map::new();
        for i in 0..50u64 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.keys().count(), 50);
        assert_eq!(map.values().sum::<u64>(), (0..50u64).map(|i| i * 2).sum());
        for (_, v) in map.iter_mut() {
            *v += 1;
        }
        assert_eq!(map.get(0), Some(&1));
    }
}
