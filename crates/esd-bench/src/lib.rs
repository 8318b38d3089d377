#![warn(missing_docs)]

//! The benchmark harness that regenerates every table and figure of the
//! ESD paper (HPCA 2023).
//!
//! Each `fig*` binary in `src/bin/` replays the 20 SPEC CPU 2017 / PARSEC
//! workload profiles through the four schemes (Baseline, Dedup_SHA1,
//! DeWrite, ESD) and prints the corresponding figure's rows or series. This
//! library holds the shared sweep/formatting machinery.
//!
//! # Parallelism
//!
//! [`Sweep::run`] schedules one task per (workload, scheme) pair on a
//! work-stealing pool of scoped threads. Each workload's trace is generated
//! exactly once — the first task that needs it materializes it into a
//! shared [`Arc<Trace>`] slot; later tasks (on any thread) reuse it. The
//! pool is bounded by [`std::thread::available_parallelism`] and can be
//! pinned with the `ESD_THREADS` environment variable.
//!
//! Run length and seed can be overridden with the `ESD_ACCESSES` and
//! `ESD_SEED` environment variables. Unparseable values are reported on
//! stderr and the default is used.
//!
//! # Fault injection
//!
//! `ESD_RBER` (expected flipped bits per 10^12 bit-reads) turns on the
//! seeded fault injector for every run in the sweep; `ESD_RBER_SEED`
//! re-seeds it and `ESD_SCRUB_EVERY` interleaves a background scrub tick
//! every N trace accesses. All three default to off, leaving the sweep
//! bit-identical to a build without the reliability subsystem.

pub mod figures;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use esd_core::{replay_with, RunOptions, RunReport, SchemeKind};
use esd_sim::SystemConfig;
use esd_trace::{generate_trace, AppProfile, Trace};

/// Default accesses replayed per workload (overridable via `ESD_ACCESSES`).
pub const DEFAULT_ACCESSES: usize = 1_000_000;
/// Default RNG seed (overridable via `ESD_SEED`).
pub const DEFAULT_SEED: u64 = 42;

/// Sweep parameters shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Workloads to replay.
    pub apps: Vec<AppProfile>,
    /// Accesses per workload.
    pub accesses: usize,
    /// Trace-generation seed.
    pub seed: u64,
    /// System configuration (Table I defaults).
    pub config: SystemConfig,
    /// Worker-thread cap; `None` means use the machine's available
    /// parallelism. Populated from `ESD_THREADS` by [`Sweep::new`].
    pub threads: Option<usize>,
    /// Background-scrub cadence in trace accesses (`None` disables
    /// scrubbing). Populated from `ESD_SCRUB_EVERY` by [`Sweep::new`].
    pub scrub_interval: Option<u64>,
    /// Epoch time-series cadence in trace accesses. Defaults to a tenth of
    /// the run (ten snapshots per task); override with `ESD_EPOCH_EVERY`
    /// (`0` disables collection). Epoch collection is read-only: it never
    /// perturbs the simulation itself.
    pub epoch_interval: Option<u64>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new(AppProfile::all())
    }
}

impl Sweep {
    /// Creates a sweep over the given workloads with environment-tunable
    /// length, seed and thread count.
    #[must_use]
    pub fn new(apps: Vec<AppProfile>) -> Self {
        let mut config = SystemConfig::default();
        config.pcm.rber_per_tbit = env_or("ESD_RBER", config.pcm.rber_per_tbit);
        config.pcm.rber_seed = env_or("ESD_RBER_SEED", config.pcm.rber_seed);
        let accesses = env_or("ESD_ACCESSES", DEFAULT_ACCESSES);
        Sweep {
            apps,
            accesses,
            seed: env_or("ESD_SEED", DEFAULT_SEED),
            config,
            threads: env_threads(),
            scrub_interval: match env_or("ESD_SCRUB_EVERY", 0) {
                0 => None,
                n => Some(n),
            },
            epoch_interval: match env_or("ESD_EPOCH_EVERY", (accesses as u64 / 10).max(1)) {
                0 => None,
                n => Some(n),
            },
        }
    }

    /// The per-replay [`RunOptions`] this sweep uses (verification on,
    /// scrub cadence from [`Sweep::scrub_interval`], epoch collection from
    /// [`Sweep::epoch_interval`]).
    #[must_use]
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            scrub_interval: self.scrub_interval,
            epoch_interval: self.epoch_interval,
            ..RunOptions::default()
        }
    }

    /// The worker-thread count this sweep was asked for, before clamping to
    /// the task count: `ESD_THREADS` if set, else the machine's available
    /// parallelism. [`SweepOutcome`] carries it next to the effective count,
    /// so a sweep that silently fell back to one thread is visible.
    #[must_use]
    pub fn requested_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1)
    }

    /// The number of worker threads [`Sweep::run`] will use for `n_tasks`
    /// runnable tasks: `min(n_tasks, cap)` where the cap is
    /// [`Sweep::requested_threads`], and never zero.
    #[must_use]
    pub fn worker_count(&self, n_tasks: usize) -> usize {
        self.requested_threads().min(n_tasks.max(1))
    }

    /// Replays every workload through every scheme, in parallel over
    /// (workload, scheme) tasks. Returns one row per workload, with reports
    /// in `schemes` order.
    ///
    /// # Panics
    ///
    /// Panics if a verified run detects data corruption (which would be a
    /// scheme bug, not a workload property).
    #[must_use]
    pub fn run(&self, schemes: &[SchemeKind]) -> Vec<AppRow> {
        self.run_timed(schemes).rows
    }

    /// Like [`Sweep::run`], but also reports wall-clock timing for the
    /// whole sweep and for each (workload, scheme) replay, which is what
    /// the repo benchmark's `sweep-paper` workload measures.
    ///
    /// # Panics
    ///
    /// Panics if a verified run detects data corruption.
    #[must_use]
    pub fn run_timed(&self, schemes: &[SchemeKind]) -> SweepOutcome {
        let n_apps = self.apps.len();
        let n_schemes = schemes.len();
        let n_tasks = n_apps * n_schemes;
        let started = Instant::now();
        if n_tasks == 0 {
            return SweepOutcome {
                rows: Vec::new(),
                wall: started.elapsed(),
                threads: 0,
                requested_threads: self.requested_threads(),
                tasks: Vec::new(),
            };
        }
        let requested = self.requested_threads();
        let workers = self.worker_count(n_tasks);
        if workers < requested {
            eprintln!(
                "warning: sweep running on {workers} of {requested} requested worker \
                 threads (only {n_tasks} runnable tasks)"
            );
        }
        let options = self.run_options();

        // One shared slot per workload: the first task that needs a trace
        // generates it; everyone else clones the Arc.
        let traces: Vec<OnceLock<Arc<Trace>>> = (0..n_apps).map(|_| OnceLock::new()).collect();
        // One write-once slot per task; no result aggregation channel needed.
        let results: Vec<OnceLock<(RunReport, f64)>> =
            (0..n_tasks).map(|_| OnceLock::new()).collect();

        // Task t = app-major pair (t / n_schemes, t % n_schemes). Queues are
        // seeded with contiguous app-major chunks so each worker starts on
        // its own workloads (trace generation mostly uncontended); stealing
        // from the *back* of a victim's queue takes the work farthest from
        // what the victim is touching now.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * n_tasks / workers;
                let hi = (w + 1) * n_tasks / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        std::thread::scope(|scope| {
            for me in 0..workers {
                let traces = &traces;
                let results = &results;
                let queues = &queues;
                scope.spawn(move || loop {
                    let task = claim_task(queues, me);
                    let Some(task) = task else { break };
                    let (a, s) = (task / n_schemes, task % n_schemes);
                    let trace = Arc::clone(traces[a].get_or_init(|| {
                        Arc::new(generate_trace(&self.apps[a], self.seed, self.accesses))
                    }));
                    let kind = schemes[s];
                    let t0 = Instant::now();
                    let report = replay_with(kind, &trace, &self.config, &options)
                        .unwrap_or_else(|e| panic!("data corruption in {kind}: {e}"));
                    let seconds = t0.elapsed().as_secs_f64();
                    results[task]
                        .set((report, seconds))
                        .unwrap_or_else(|_| unreachable!("task {task} claimed twice"));
                });
            }
        });

        let mut results: Vec<Option<(RunReport, f64)>> =
            results.into_iter().map(OnceLock::into_inner).collect();
        let mut rows = Vec::with_capacity(n_apps);
        let mut tasks = Vec::with_capacity(n_tasks);
        for (a, app) in self.apps.iter().enumerate() {
            let mut reports = Vec::with_capacity(n_schemes);
            for (s, &kind) in schemes.iter().enumerate() {
                let (report, seconds) = results[a * n_schemes + s]
                    .take()
                    .expect("every task ran exactly once");
                tasks.push(TaskTiming {
                    app: app.name.clone(),
                    scheme: kind,
                    seconds,
                });
                reports.push(report);
            }
            rows.push(AppRow {
                app: app.clone(),
                reports,
            });
        }
        SweepOutcome {
            rows,
            wall: started.elapsed(),
            threads: workers,
            requested_threads: requested,
            tasks,
        }
    }

    /// Single-threaded reference sweep: same task set as [`Sweep::run`],
    /// replayed in order on the calling thread with each trace generated
    /// once. Used by the determinism test and as the serial baseline of
    /// the repo benchmark's `bench.sweep.parallel_speedup`.
    ///
    /// # Panics
    ///
    /// Panics if a verified run detects data corruption.
    #[must_use]
    pub fn run_serial(&self, schemes: &[SchemeKind]) -> Vec<AppRow> {
        let options = self.run_options();
        self.apps
            .iter()
            .map(|app| {
                let trace = generate_trace(app, self.seed, self.accesses);
                let reports = schemes
                    .iter()
                    .map(|&kind| {
                        replay_with(kind, &trace, &self.config, &options)
                            .unwrap_or_else(|e| panic!("data corruption in {kind}: {e}"))
                    })
                    .collect();
                AppRow {
                    app: app.clone(),
                    reports,
                }
            })
            .collect()
    }
}

/// Pops the next task for worker `me`: front of its own queue, else steal
/// from the back of another worker's queue. `None` means all tasks are
/// claimed and the worker should exit (tasks never spawn tasks, so empty
/// queues cannot refill).
fn claim_task(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(task) = queues[me].lock().expect("queue lock").pop_front() {
        return Some(task);
    }
    let n = queues.len();
    (1..n)
        .map(|d| (me + d) % n)
        .find_map(|victim| queues[victim].lock().expect("queue lock").pop_back())
}

/// One workload's reports across the swept schemes.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// The workload.
    pub app: AppProfile,
    /// One report per swept scheme, in sweep order.
    pub reports: Vec<RunReport>,
}

impl AppRow {
    /// The report for a given scheme, if it was part of the sweep.
    #[must_use]
    pub fn report(&self, kind: SchemeKind) -> Option<&RunReport> {
        self.reports.iter().find(|r| r.scheme == kind)
    }
}

/// Everything [`Sweep::run_timed`] measures.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One row per workload (same shape as [`Sweep::run`]'s return value).
    pub rows: Vec<AppRow>,
    /// Wall-clock time for the whole sweep, trace generation included.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Worker threads requested (`ESD_THREADS` or machine parallelism)
    /// before clamping to the task count.
    pub requested_threads: usize,
    /// Per-(workload, scheme) replay timings, in row-major sweep order.
    pub tasks: Vec<TaskTiming>,
}

impl SweepOutcome {
    /// Total accesses replayed across all tasks.
    #[must_use]
    pub fn total_accesses(&self, accesses_per_task: usize) -> u64 {
        self.tasks.len() as u64 * accesses_per_task as u64
    }

    /// Aggregate replay throughput in accesses per wall-clock second.
    #[must_use]
    pub fn accesses_per_second(&self, accesses_per_task: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.total_accesses(accesses_per_task) as f64 / wall
    }
}

/// Wall-clock cost of one (workload, scheme) replay.
#[derive(Debug, Clone)]
pub struct TaskTiming {
    /// Workload name.
    pub app: String,
    /// Scheme replayed.
    pub scheme: SchemeKind,
    /// Replay time in seconds (excludes trace generation, which is shared).
    pub seconds: f64,
}

/// Reads the environment variable `name` as a `T` — the one parser behind
/// every `ESD_*` knob, all of which [`Sweep::new`] reads. Unset yields
/// `default` silently. A set but malformed value also yields `default`,
/// after one stderr line
/// `warning: ignoring NAME="raw" (<parse error>); using default <default>`,
/// so a typo like `ESD_ACCESSES=4x` neither aborts the run nor passes
/// unnoticed.
fn env_or<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    raw.trim().parse().unwrap_or_else(|err| {
        eprintln!("warning: ignoring {name}={raw:?} ({err}); using default {default}");
        default
    })
}

/// `ESD_THREADS`: a positive worker-thread cap, or `None` for auto.
/// An explicit `ESD_THREADS=0` is almost certainly a mistaken attempt to
/// disable parallelism (that would be `ESD_THREADS=1`), so it warns
/// instead of being silently treated as auto.
fn env_threads() -> Option<usize> {
    if std::env::var("ESD_THREADS").is_ok_and(|raw| raw.parse() == Ok(0usize)) {
        eprintln!(
            "warning: ESD_THREADS=0 means auto (machine parallelism), not serial; \
             use ESD_THREADS=1 to pin a single worker"
        );
    }
    match env_or::<usize>("ESD_THREADS", 0) {
        0 => None,
        n => Some(n),
    }
}

/// Prints a figure header in a uniform style. A sweep under fault
/// injection (`ESD_RBER`) says so, since its figures are not the paper's.
pub fn print_figure_header(id: &str, caption: &str, sweep: &Sweep) {
    println!("=== {id}: {caption} ===");
    println!(
        "    ({} workloads x {} accesses, seed {})",
        sweep.apps.len(),
        sweep.accesses,
        sweep.seed
    );
    if sweep.config.pcm.rber_per_tbit > 0 {
        println!(
            "    fault injection ON (rber {} per 10^12 bit-reads, seed {:#x}, {})",
            sweep.config.pcm.rber_per_tbit,
            sweep.config.pcm.rber_seed,
            sweep.scrub_interval.map_or_else(
                || "scrub off".to_string(),
                |n| format!("scrub every {n} accesses")
            )
        );
    }
    println!();
}

/// Formats a table row: a left-aligned label plus fixed-width numeric cells.
#[must_use]
pub fn format_row(label: &str, cells: &[String]) -> String {
    let mut out = format!("{label:<14}");
    for cell in cells {
        out.push_str(&format!("{cell:>12}"));
    }
    out
}

/// Geometric mean of a non-empty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep(apps: Vec<AppProfile>) -> Sweep {
        let mut sweep = Sweep::new(apps);
        sweep.accesses = 1_000;
        sweep
    }

    #[test]
    fn sweep_runs_all_schemes_for_each_app() {
        let sweep = small_sweep(vec![AppProfile::demo()]);
        let rows = sweep.run(&SchemeKind::ALL);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].reports.len(), 4);
        assert!(rows[0].report(SchemeKind::Esd).is_some());
        assert!(rows[0].report(SchemeKind::Baseline).is_some());
    }

    #[test]
    fn run_timed_times_every_task() {
        let sweep = small_sweep(vec![AppProfile::demo()]);
        let outcome = sweep.run_timed(&[SchemeKind::Baseline, SchemeKind::Esd]);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(outcome.tasks.len(), 2);
        assert!(outcome.threads >= 1 && outcome.threads <= 2);
        assert!(outcome.wall > Duration::ZERO);
        assert!(outcome.tasks.iter().all(|t| t.seconds >= 0.0));
        assert!(outcome.accesses_per_second(sweep.accesses) > 0.0);
    }

    #[test]
    fn empty_sweep_is_empty_outcome() {
        let sweep = small_sweep(Vec::new());
        let outcome = sweep.run_timed(&SchemeKind::ALL);
        assert!(outcome.rows.is_empty());
        assert!(outcome.tasks.is_empty());
    }

    #[test]
    fn worker_count_respects_cap_and_task_count() {
        let mut sweep = small_sweep(vec![AppProfile::demo()]);
        sweep.threads = Some(3);
        assert_eq!(sweep.worker_count(100), 3);
        assert_eq!(sweep.worker_count(2), 2);
        assert_eq!(sweep.worker_count(0), 1);
        sweep.threads = None;
        assert!(sweep.worker_count(usize::MAX) >= 1);
    }

    #[test]
    fn requested_threads_are_honored_by_the_pool() {
        // The multithreaded smoke: a sweep that *requests* more than one
        // worker must actually run on that many — an effective count of 1
        // here is the silent-serial regression. Thread spawning does not
        // depend on core count, so this holds even on a single-CPU runner.
        let mut sweep = small_sweep(vec![AppProfile::demo()]);
        sweep.threads = Some(4);
        let outcome = sweep.run_timed(&SchemeKind::ALL); // 4 tasks
        assert_eq!(outcome.requested_threads, 4);
        assert_eq!(
            outcome.threads, 4,
            "effective threads fell back to {} with 4 requested",
            outcome.threads
        );
    }

    #[test]
    fn claim_task_drains_own_queue_then_steals() {
        let queues = vec![
            Mutex::new(VecDeque::from([0, 1])),
            Mutex::new(VecDeque::from([2, 3])),
        ];
        assert_eq!(claim_task(&queues, 0), Some(0));
        assert_eq!(claim_task(&queues, 0), Some(1));
        // Own queue empty: steal from the BACK of worker 1's queue.
        assert_eq!(claim_task(&queues, 0), Some(3));
        assert_eq!(claim_task(&queues, 1), Some(2));
        assert_eq!(claim_task(&queues, 0), None);
        assert_eq!(claim_task(&queues, 1), None);
    }

    #[test]
    fn env_or_warns_and_falls_back_on_malformed_values() {
        // Unique variable names: tests in this binary run concurrently and
        // the environment is process-global.
        std::env::set_var("ESD_BENCH_TEST_BAD", "4x");
        assert_eq!(env_or("ESD_BENCH_TEST_BAD", 7u32), 7);
        std::env::set_var("ESD_BENCH_TEST_GOOD", " 12 ");
        assert_eq!(env_or("ESD_BENCH_TEST_GOOD", 7u32), 12);
        assert_eq!(env_or("ESD_BENCH_TEST_UNSET", 7usize), 7);
        for name in ["BAD", "GOOD"] {
            std::env::remove_var(format!("ESD_BENCH_TEST_{name}"));
        }
    }

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn format_row_is_aligned() {
        let row = format_row("lbm", &["1.00".into(), "2.00".into()]);
        assert!(row.starts_with("lbm"));
        assert!(row.len() >= 14 + 24);
    }
}
