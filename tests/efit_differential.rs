//! Differential test of the slab EFIT against the `BTreeSet` EFIT it
//! replaced. The old implementation is kept here, logic unchanged, as a
//! second reference next to the naive model in
//! `crates/esd-core/tests/efit_model.rs`: it shares the `U64Map` index, so
//! it also fixes the *order* of `pinned_physicals`, which decides the
//! allocator's free-list order after a crash and through it every physical
//! address, bank timing and `RunReport` that follows. It removes and
//! re-inserts an order key on every bump, so it is also the reference for
//! the shipped table's lazily-deleted heap of `refer >= 2` entries.

use std::collections::BTreeSet;

use esd::core::{Efit, EfitEntry, EfitPolicy, EFIT_ENTRY_BYTES};
use esd::sim::CacheStats;
use esd_collections::U64Map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct Slot {
    physical: u64,
    refer: u8,
    stamp: u64,
}

/// The EFIT as shipped before the slab rewrite, minus `by_physical` (a map
/// nothing read) and the accessors this test does not call.
struct BTreeEfit {
    policy: EfitPolicy,
    capacity: usize,
    entries: U64Map<Slot>,
    /// Eviction order: (priority, stamp, fingerprint) — for LRCU the
    /// priority is the reference count, for LRU it is constant.
    order: BTreeSet<(u8, u64, u64)>,
    stamp_counter: u64,
    decay_interval: u64,
    ops_since_decay: u64,
    stats: CacheStats,
}

impl BTreeEfit {
    fn new(capacity_bytes: u64, policy: EfitPolicy) -> Self {
        let capacity = (capacity_bytes as usize / EFIT_ENTRY_BYTES).max(1);
        BTreeEfit {
            policy,
            capacity,
            entries: U64Map::with_capacity(capacity),
            order: BTreeSet::new(),
            stamp_counter: 0,
            decay_interval: Efit::DEFAULT_DECAY_INTERVAL,
            ops_since_decay: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_decay_interval(&mut self, interval: u64) {
        self.decay_interval = interval.max(1);
    }

    fn lookup(&mut self, fingerprint: u64) -> Option<EfitEntry> {
        if let Some(slot) = self.entries.get(fingerprint).copied() {
            self.stats.hits += 1;
            if self.policy == EfitPolicy::Lru {
                self.retag(fingerprint);
            }
            Some(EfitEntry {
                physical: slot.physical,
                refer: slot.refer,
            })
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn bump_ref(&mut self, fingerprint: u64) -> Option<u8> {
        self.tick();
        let slot = self.entries.get(fingerprint).copied()?;
        let key = self.order_key(&slot, fingerprint);
        self.order.remove(&key);
        let new_refer = slot.refer.saturating_add(1);
        let new_slot = Slot {
            refer: new_refer,
            ..slot
        };
        self.order.insert(self.order_key(&new_slot, fingerprint));
        self.entries.insert(fingerprint, new_slot);
        Some(new_refer)
    }

    fn insert(&mut self, fingerprint: u64, physical: u64) -> Option<u64> {
        self.tick();
        if let Some(old) = self.entries.get(fingerprint).copied() {
            let key = self.order_key(&old, fingerprint);
            self.order.remove(&key);
            let slot = Slot {
                physical,
                refer: 1,
                stamp: self.bump_stamp(),
            };
            self.order.insert(self.order_key(&slot, fingerprint));
            self.entries.insert(fingerprint, slot);
            return Some(old.physical);
        }
        let displaced = if self.entries.len() >= self.capacity {
            let &victim_key = self.order.iter().next().expect("full table has entries");
            let (_, _, victim_fp) = victim_key;
            self.order.remove(&victim_key);
            let victim = self.entries.remove(victim_fp).expect("victim resident");
            self.stats.evictions += 1;
            Some(victim.physical)
        } else {
            None
        };
        let slot = Slot {
            physical,
            refer: 1,
            stamp: self.bump_stamp(),
        };
        self.order.insert(self.order_key(&slot, fingerprint));
        self.entries.insert(fingerprint, slot);
        displaced
    }

    fn pinned_physicals(&self) -> Vec<u64> {
        self.entries.values().map(|slot| slot.physical).collect()
    }

    fn reset(&mut self) {
        self.entries = U64Map::with_capacity(self.capacity);
        self.order = BTreeSet::new();
        self.stamp_counter = 0;
        self.ops_since_decay = 0;
        self.stats = CacheStats::default();
    }

    fn order_key(&self, slot: &Slot, fp: u64) -> (u8, u64, u64) {
        match self.policy {
            EfitPolicy::Lrcu => (slot.refer, slot.stamp, fp),
            EfitPolicy::Lru => (0, slot.stamp, fp),
        }
    }

    fn bump_stamp(&mut self) -> u64 {
        self.stamp_counter += 1;
        self.stamp_counter
    }

    fn retag(&mut self, fingerprint: u64) {
        if let Some(slot) = self.entries.get(fingerprint).copied() {
            let key = self.order_key(&slot, fingerprint);
            self.order.remove(&key);
            let new_slot = Slot {
                stamp: self.bump_stamp(),
                ..slot
            };
            self.order.insert(self.order_key(&new_slot, fingerprint));
            self.entries.insert(fingerprint, new_slot);
        }
    }

    fn tick(&mut self) {
        if self.policy != EfitPolicy::Lrcu {
            return;
        }
        self.ops_since_decay += 1;
        if self.ops_since_decay < self.decay_interval {
            return;
        }
        self.ops_since_decay = 0;
        let mut rebuilt = BTreeSet::new();
        for (fp, slot) in self.entries.iter_mut() {
            slot.refer = slot.refer.saturating_sub(1).max(1);
            rebuilt.insert((slot.refer, slot.stamp, fp));
        }
        self.order = rebuilt;
    }
}

const EPISODES: u64 = 256;
const OPS_PER_EPISODE: u64 = 4_096;

/// Runs `EPISODES` x `OPS_PER_EPISODE` (over a million) seeded random
/// operations through both tables and compares everything a caller can see.
fn differential(policy: EfitPolicy) {
    for episode in 0..EPISODES {
        let mut rng = StdRng::seed_from_u64(0xEF17 ^ (episode << 8) ^ policy as u64);
        // Capacities 7·2^k are where `U64Map` doubles on a hit of a full
        // table, which changes `pinned_physicals` order from then on.
        let capacity = match episode % 4 {
            0 => 7usize << rng.gen_range(0..6u32),
            1 => rng.gen_range(1..=8),
            _ => rng.gen_range(1..=300),
        };
        let decay = match episode % 3 {
            0 => rng.gen_range(2..=16u64),
            1 => rng.gen_range(17..=1_000),
            _ => Efit::DEFAULT_DECAY_INTERVAL,
        };
        // From "everything fits" to "mostly misses".
        let keys = (capacity as u64 * rng.gen_range(1..=12) / 2).max(2);
        let bytes = (capacity * EFIT_ENTRY_BYTES) as u64;
        let mut new = Efit::new(bytes, policy);
        let mut old = BTreeEfit::new(bytes, policy);
        new.set_decay_interval(decay);
        old.set_decay_interval(decay);
        let context = format!("{policy:?} episode {episode} capacity {capacity} decay {decay}");

        for op in 0..OPS_PER_EPISODE {
            if op == OPS_PER_EPISODE / 2 && episode % 8 == 0 {
                new.reset();
                old.reset();
            }
            // A third of the traffic goes to two fingerprints, so counts
            // climb past 2 and, without decay, saturate.
            let fp = if rng.gen_bool(0.3) {
                rng.gen_range(0..2)
            } else {
                rng.gen_range(0..keys)
            };
            match rng.gen_range(0..100u32) {
                0..=29 => assert_eq!(new.lookup(fp), old.lookup(fp), "{context} op {op}"),
                30..=64 => assert_eq!(new.bump_ref(fp), old.bump_ref(fp), "{context} op {op}"),
                _ => {
                    let physical = rng.gen_range(0..1u64 << 20) * 64;
                    assert_eq!(
                        new.insert(fp, physical),
                        old.insert(fp, physical),
                        "{context} op {op}: displaced physical"
                    );
                }
            }
            if op % 61 == 0 || op + 1 == OPS_PER_EPISODE {
                assert_eq!(new.len(), old.entries.len(), "{context} op {op}");
                assert_eq!(new.stats(), old.stats, "{context} op {op}");
                assert_eq!(
                    new.pinned_physicals(),
                    old.pinned_physicals(),
                    "{context} op {op}: pin order"
                );
            }
        }
    }
}

#[test]
fn slab_efit_matches_btreeset_efit_under_lrcu() {
    differential(EfitPolicy::Lrcu);
}

#[test]
fn slab_efit_matches_btreeset_efit_under_lru() {
    differential(EfitPolicy::Lru);
}

/// The dedup-hit path on its own: no decay, every resident entry bumped to
/// `refer >= 2` before each insert, so every victim comes out of the lazy
/// heap from under the stale keys of 50 x capacity and more bumps, which is
/// also enough of them to make a small table's heap drop its stale keys.
#[test]
fn bump_dominated_victims_match_btreeset_efit() {
    for capacity in 1..=8usize {
        let mut rng = StdRng::seed_from_u64(0xB0B0 ^ capacity as u64);
        let bytes = (capacity * EFIT_ENTRY_BYTES) as u64;
        let mut new = Efit::new(bytes, EfitPolicy::Lrcu);
        let mut old = BTreeEfit::new(bytes, EfitPolicy::Lrcu);
        new.set_decay_interval(u64::MAX);
        old.set_decay_interval(u64::MAX);
        let mut resident: Vec<u64> = Vec::new();
        let mut evictions = 0u64;
        for fp in 0..200u64 {
            let context = format!("capacity {capacity} insert {fp}");
            for &r in &resident {
                let refer = new.lookup(r).map(|e| e.refer);
                assert_eq!(refer, old.lookup(r).map(|e| e.refer), "{context}");
                assert!(refer >= Some(2), "{context}: {r} is still on the list");
            }
            // Physical lines name their fingerprints, so a victim's says
            // which entry left.
            let displaced = new.insert(fp, fp * 64);
            assert_eq!(displaced, old.insert(fp, fp * 64), "{context}: victim");
            if let Some(physical) = displaced {
                resident.retain(|&r| r != physical / 64);
                evictions += 1;
            }
            resident.push(fp);
            assert_eq!(new.bump_ref(fp), old.bump_ref(fp), "{context}");
            // Without decay the survivors saturate, and a newcomer that
            // does not is the next victim. Every other one is saturated at
            // once, which makes the victim the oldest entry or one the
            // random bumps have not yet carried to the top.
            let to_newcomer = if rng.gen_bool(0.5) { 254 } else { 0 };
            for i in 0..to_newcomer + 50 * capacity + rng.gen_range(0..64) {
                let target = if i < to_newcomer {
                    fp
                } else {
                    resident[rng.gen_range(0..resident.len())]
                };
                assert_eq!(new.bump_ref(target), old.bump_ref(target), "{context}");
            }
            assert_eq!(new.stats(), old.stats, "{context}");
            assert_eq!(new.pinned_physicals(), old.pinned_physicals(), "{context}");
        }
        assert_eq!(evictions, 200 - capacity as u64, "capacity {capacity}");
        assert_eq!(new.stats().evictions, evictions, "capacity {capacity}");
    }
}
