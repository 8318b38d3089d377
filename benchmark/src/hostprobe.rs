//! The host-speed probe, and times expressed in *reference seconds*.
//!
//! The box this benchmark runs on is a small VM on a shared host. For
//! minutes at a time its cores run a third to a half slower — neighbours on
//! the sibling hardware threads and in the shared cache — and every
//! wall-clock time of this CPU-bound program moves with them: ten runs of
//! one binary spread by 0.25-0.38 of their median, whatever statistic a run
//! reports and however long it measures (README, "Measured spreads").
//!
//! So every CPU-bound time is measured next to a fixed piece of work of the
//! benchmark's own that does in miniature what the simulator does — random
//! look-ups in a long-lived 19 MB hash table of 64-byte lines, then a small
//! deduplicating store built from nothing (hash each line, index it, keep an
//! ordered recency set, evict) and dropped again — and reported as
//! `seconds x REFERENCE_S / probe seconds`: the time the call would have
//! taken had the host run the probe at its quiet speed. The probe is code of
//! this package, which no measured change may edit, so it is the same on
//! both sides of any comparison and cancels out of every ratio between them.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// One probe pass on this box when nothing disturbs it, in seconds. A fixed
/// constant, so that reference seconds read like wall seconds on a quiet
/// host; its value moves every reported time by the same factor and no
/// comparison at all.
pub const REFERENCE_S: f64 = 0.028;

const ENTRIES: u64 = 200_000;
const LOOKUPS: u32 = 200_000;
const KEY_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Lines the miniature store takes in per pass.
const STORE_LINES: u32 = 30_000;

/// Fixed-key SipHash, so a table's layout is the same in every process.
type FixedHash = BuildHasherDefault<DefaultHasher>;
type Table = HashMap<u64, [u8; 64], FixedHash>;

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// The probe's work on one thread.
struct Worker {
    table: Table,
    state: u64,
}

pub struct HostProbe {
    /// One per thread the measured calls keep busy.
    workers: Vec<Worker>,
    /// Passes per sample.
    passes: u32,
    /// Seconds per pass of the latest sample.
    last: f64,
}

/// A duration and the probe samples on either side of it.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// Wall seconds, as measured.
    pub seconds: f64,
    /// Mean of the probe sample before and the sample after, in seconds
    /// per pass.
    pub probe_s: f64,
}

impl Paced {
    /// The duration in reference seconds.
    pub fn reference_s(&self) -> f64 {
        self.seconds * REFERENCE_S / self.probe_s
    }
}

impl HostProbe {
    /// Builds the tables and takes two samples, the first to warm up. A
    /// sample is `passes` passes on each of `threads` threads at once: one
    /// pass on one thread where the measured calls are single-threaded and
    /// a few tenths of a second long, more where they are longer or keep
    /// several cores busy.
    pub fn new(passes: u32, threads: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|t| {
                let mut table =
                    Table::with_capacity_and_hasher(ENTRIES as usize, Default::default());
                for i in 0..ENTRIES {
                    table.insert(i.wrapping_mul(KEY_STRIDE), [i as u8; 64]);
                }
                Worker {
                    table,
                    state: 0x2545_F491_4F6C_DD1D ^ t as u64,
                }
            })
            .collect();
        let mut probe = HostProbe {
            workers,
            passes: passes.max(1),
            last: 0.0,
        };
        probe.sample();
        probe.sample();
        probe
    }

    /// One sample. Returns its seconds per pass; with several threads, the
    /// time in which they together finish one pass each, over their number
    /// (their rates add, as those of a pool's workers do).
    pub fn sample(&mut self) -> f64 {
        let passes = self.passes;
        let per_pass: Vec<f64> = match self.workers.as_mut_slice() {
            [only] => vec![only.passes(passes)],
            many => std::thread::scope(|scope| {
                let running: Vec<_> = many
                    .iter_mut()
                    .map(|worker| scope.spawn(move || worker.passes(passes)))
                    .collect();
                running
                    .into_iter()
                    .map(|thread| thread.join().expect("probe thread"))
                    .collect()
            }),
        };
        let rate: f64 = per_pass.iter().map(|seconds| 1.0 / seconds).sum();
        self.last = per_pass.len() as f64 / rate;
        self.last
    }

    /// Runs `work`, which returns the seconds it measured, then takes one
    /// sample; pairs the duration with the samples on either side of it.
    pub fn pace(&mut self, work: impl FnOnce() -> f64) -> Paced {
        let before = self.last;
        let seconds = work();
        let after = self.sample();
        Paced {
            seconds,
            probe_s: (before + after) / 2.0,
        }
    }
}

impl Worker {
    /// The look-ups, then the miniature store, `passes` times. Returns the
    /// seconds per pass.
    fn passes(&mut self, passes: u32) -> f64 {
        let t0 = Instant::now();
        for _ in 0..passes {
            self.lookups();
            self.miniature_store();
        }
        t0.elapsed().as_secs_f64() / f64::from(passes)
    }

    /// `LOOKUPS` look-ups of pseudo-random keys in the long-lived table,
    /// each updating the line it finds.
    fn lookups(&mut self) {
        let mut s = self.state;
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            s = xorshift(s);
            let key = (s % ENTRIES).wrapping_mul(KEY_STRIDE);
            if let Some(line) = self.table.get_mut(&key) {
                line[0] = line[0].wrapping_add(1);
                sum += u64::from(line[1]);
            }
        }
        self.state = s;
        std::hint::black_box(sum);
    }

    /// A deduplicating store in miniature, built from nothing and dropped:
    /// a third of the lines repeat an earlier one; each line is hashed,
    /// looked up in a fingerprint index with an ordered recency set that
    /// evicts beyond a quarter of the lines, written to an address map, and
    /// another address is read back.
    fn miniature_store(&mut self) {
        let mut index: HashMap<u64, (u32, u32), FixedHash> = HashMap::default();
        let mut recency: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut store: HashMap<u64, [u64; 8], FixedHash> = HashMap::default();
        let capacity = (STORE_LINES / 4) as usize;
        let mut s = self.state;
        let mut sum = 0u64;
        for i in 0..STORE_LINES {
            s = xorshift(s);
            let content = if s.is_multiple_of(3) {
                (s >> 8) % (u64::from(i) / 2 + 1)
            } else {
                u64::from(i) | 1 << 40
            };
            let mut line = [0u64; 8];
            let mut x = content.wrapping_mul(KEY_STRIDE);
            for word in &mut line {
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                *word = x;
            }
            let mut hasher = DefaultHasher::new();
            for word in &line {
                hasher.write_u64(*word);
            }
            let fingerprint = hasher.finish();
            match index.get_mut(&fingerprint) {
                Some((count, stamp)) => {
                    recency.remove(&(*stamp, fingerprint));
                    *count += 1;
                    *stamp = i;
                    recency.insert((i, fingerprint));
                }
                None => {
                    index.insert(fingerprint, (1, i));
                    recency.insert((i, fingerprint));
                    if recency.len() > capacity {
                        if let Some((_, oldest)) = recency.pop_first() {
                            index.remove(&oldest);
                        }
                    }
                }
            }
            store.insert((s >> 20) % u64::from(STORE_LINES), line);
            if let Some(found) = store.get(&((s >> 34) % u64::from(STORE_LINES))) {
                sum ^= found[(s & 7) as usize];
            }
        }
        self.state = s;
        std::hint::black_box((sum, index.len(), store.len()));
    }
}
