//! Model-based property tests: the EFIT against a naive reference
//! implementation of LRCU (with decay) and LRU, the allocator against a
//! reference-multiset model, and structural invariants of the predictor
//! under arbitrary operation sequences.

use esd_core::{DupPredictor, Efit, EfitPolicy, PhysicalAllocator, EFIT_ENTRY_BYTES};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference EFIT: a plain map, linear-scan victim selection, and decay as
/// a loop over every entry. Shares no code or structure with the real one.
struct NaiveEfit {
    policy: EfitPolicy,
    capacity: usize,
    decay_interval: u64,
    entries: HashMap<u64, (u64, u8, u64)>, // fp -> (physical, refer, stamp)
    stamp: u64,
    ops_since_decay: u64,
}

impl NaiveEfit {
    fn new(capacity: usize, policy: EfitPolicy, decay_interval: u64) -> Self {
        NaiveEfit {
            policy,
            capacity,
            decay_interval,
            entries: HashMap::new(),
            stamp: 0,
            ops_since_decay: 0,
        }
    }

    /// Every `decay_interval` bumps and inserts (hits or not), LRCU lowers
    /// every count by one, never below one.
    fn tick(&mut self) {
        if self.policy != EfitPolicy::Lrcu {
            return;
        }
        self.ops_since_decay += 1;
        if self.ops_since_decay == self.decay_interval {
            self.ops_since_decay = 0;
            for entry in self.entries.values_mut() {
                entry.1 = (entry.1 - 1).max(1);
            }
        }
    }

    fn lookup(&mut self, fp: u64) -> Option<(u64, u8)> {
        let lru = self.policy == EfitPolicy::Lru;
        let entry = self.entries.get_mut(&fp)?;
        if lru {
            self.stamp += 1;
            entry.2 = self.stamp;
        }
        Some((entry.0, entry.1))
    }

    fn bump(&mut self, fp: u64) -> Option<u8> {
        self.tick();
        let entry = self.entries.get_mut(&fp)?;
        entry.1 = entry.1.saturating_add(1);
        Some(entry.1)
    }

    /// Returns the physical the insert displaced: the replaced mapping's,
    /// or that of the victim, the oldest entry among those with the lowest
    /// count (LRCU) or the oldest entry outright (LRU).
    fn insert(&mut self, fp: u64, physical: u64) -> Option<u64> {
        self.tick();
        self.stamp += 1;
        let mut displaced = self.entries.remove(&fp).map(|(old, _, _)| old);
        if displaced.is_none() && self.entries.len() >= self.capacity {
            let lrcu = self.policy == EfitPolicy::Lrcu;
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, &(_, refer, stamp))| (if lrcu { refer } else { 0 }, stamp))
                .map(|(fp, _)| fp)
                .expect("nonempty");
            displaced = self.entries.remove(&victim).map(|(old, _, _)| old);
        }
        self.entries.insert(fp, (physical, 1, self.stamp));
        displaced
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Bump(u64),
    Insert(u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u64..24).prop_map(Op::Lookup),
        (0u64..24).prop_map(Op::Bump),
        (0u64..24, 0u64..1024).prop_map(|(fp, p)| Op::Insert(fp, p * 64)),
    ];
    proptest::collection::vec(op, 1..300)
}

/// Capacity (down to a single entry), policy and decay interval (from
/// "every other operation" to "never").
fn arb_table() -> impl Strategy<Value = (usize, EfitPolicy, u64)> {
    (
        1usize..=8,
        prop_oneof![Just(EfitPolicy::Lrcu), Just(EfitPolicy::Lru)],
        prop_oneof![2u64..=12, Just(u64::MAX)],
    )
}

proptest! {
    /// The EFIT agrees with the naive reference on every return value
    /// (looked-up entry, bumped count, displaced physical) for arbitrary
    /// interleavings of lookups, bumps and inserts, under both policies,
    /// with decay firing as often as every second operation.
    #[test]
    fn efit_matches_naive_reference(
        (capacity, policy, decay) in arb_table(),
        ops in arb_ops(),
    ) {
        let mut efit = Efit::new((EFIT_ENTRY_BYTES * capacity) as u64, policy);
        efit.set_decay_interval(decay);
        let mut reference = NaiveEfit::new(capacity, policy, decay);

        for op in &ops {
            match *op {
                Op::Lookup(fp) => {
                    let got = efit.lookup(fp).map(|e| (e.physical, e.refer));
                    prop_assert_eq!(got, reference.lookup(fp), "lookup({})", fp);
                }
                Op::Bump(fp) => {
                    prop_assert_eq!(efit.bump_ref(fp), reference.bump(fp), "bump({})", fp);
                }
                Op::Insert(fp, p) => {
                    prop_assert_eq!(
                        efit.insert(fp, p),
                        reference.insert(fp, p),
                        "insert({}, {:#x}) displaced",
                        fp,
                        p
                    );
                }
            }
            prop_assert_eq!(efit.len(), reference.entries.len());
            prop_assert!(efit.len() <= capacity);
        }
        let mut pinned = efit.pinned_physicals();
        let mut expected: Vec<u64> = reference.entries.values().map(|e| e.0).collect();
        pinned.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(pinned, expected);
    }

    /// The allocator agrees with a model — a multiset of references, a
    /// stack of freed lines and a bump pointer — on every return value
    /// and every observable after each operation.
    #[test]
    fn allocator_accounting_is_exact(ops in proptest::collection::vec((0u8..3, any::<u16>()), 1..200)) {
        let mut alloc = PhysicalAllocator::new();
        let mut refs: Vec<u64> = Vec::new(); // one element per reference held
        let mut freed: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for (op, pick) in ops {
            let pick = usize::from(pick);
            match op {
                0 => {
                    // Freed lines come back last-in first-out; only then
                    // does the watermark move.
                    let expected = freed.pop().unwrap_or_else(|| {
                        next += 64;
                        next - 64
                    });
                    prop_assert_eq!(alloc.allocate(), expected);
                    refs.push(expected);
                }
                1 if !refs.is_empty() => {
                    let line = refs[pick % refs.len()];
                    alloc.incref(line);
                    refs.push(line);
                }
                2 if !refs.is_empty() => {
                    let line = refs.swap_remove(pick % refs.len());
                    let last = !refs.contains(&line);
                    prop_assert_eq!(alloc.decref(line), last);
                    if last {
                        freed.push(line);
                    }
                }
                _ => {}
            }
            let mut model: Vec<(u64, u32)> = Vec::new();
            for &line in &refs {
                match model.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, count)) => *count += 1,
                    None => model.push((line, 1)),
                }
            }
            model.sort_unstable();
            let mut counts: Vec<(u64, u32)> = alloc.refcounts().collect();
            counts.sort_unstable();
            prop_assert_eq!(&counts, &model);
            prop_assert_eq!(alloc.live_lines(), model.len());
            prop_assert_eq!(alloc.high_watermark(), next);
            for &(line, count) in &model {
                prop_assert_eq!(alloc.refcount(line), count);
            }
            for &line in &freed {
                prop_assert_eq!(alloc.refcount(line), 0);
            }
        }
    }

    /// The predictor's accuracy counters always sum to the number of
    /// updates, and per-address counters stay within their two bits.
    #[test]
    fn predictor_counters_stay_bounded(
        updates in proptest::collection::vec((0u64..8, any::<bool>()), 1..200)
    ) {
        let mut p = DupPredictor::new();
        for &(addr, dup) in &updates {
            p.update(addr * 64, dup);
        }
        let s = p.stats();
        prop_assert_eq!(s.correct + s.incorrect, updates.len() as u64);
        let acc = s.accuracy().expect("at least one update scored");
        prop_assert!((0.0..=1.0).contains(&acc));
    }
}

/// Repeating one duplicate content forever: the predictor converges to
/// always-correct, LRCU keeps the hot entry forever.
#[test]
fn hot_entry_survives_arbitrary_cold_churn() {
    const CAPACITY: usize = 4;
    let mut efit = Efit::new((EFIT_ENTRY_BYTES * CAPACITY) as u64, EfitPolicy::Lrcu);
    efit.set_decay_interval(u64::MAX);
    efit.insert(999, 0x1000);
    for _ in 0..10 {
        efit.bump_ref(999);
    }
    // Flood with cold entries far beyond capacity.
    for fp in 0..1000u64 {
        efit.insert(fp, fp * 64);
    }
    assert!(
        efit.lookup(999).is_some(),
        "high-reference entry must survive cold churn under LRCU"
    );
}
