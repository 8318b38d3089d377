#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The harness that regenerates every table and figure of the ESD paper
//! (HPCA 2023).
//!
//! [`FIGURES`] names every figure `esd-cli fig <name>` prints: each
//! replays its workloads (most of the 20 SPEC CPU 2017 / PARSEC profiles)
//! through its schemes and prints the figure's rows or series. Run length,
//! seed, thread count and fault injection are the [`Sweep`]'s fields, set
//! by the caller; nothing here reads the environment.
//!
//! # Parallelism
//!
//! [`Sweep::run_tasks`] runs a fixed number of tasks per workload on a
//! work-stealing pool of scoped threads and returns their results in
//! (workload, task) order, whatever the thread count. [`Sweep::run`] is
//! the (workload, scheme) replay on it; the figures that sweep cache sizes,
//! extra schemes or trace statistics hand it their own tasks. Each
//! workload's trace is generated exactly once, by the first task that
//! needs it, shared as one [`Arc<Trace>`] by that workload's other tasks
//! (on any thread), and dropped when its last task returns: a sweep holds
//! about one trace per worker, not one per workload. The pool is bounded
//! by [`std::thread::available_parallelism`] unless [`Sweep::threads`]
//! pins it.
//!
//! # Fault injection
//!
//! A non-zero `config.pcm.rber_per_tbit` (expected flipped bits per 10^12
//! bit-reads) turns on the seeded fault injector for every run in the
//! sweep, `config.pcm.rber_seed` seeds it, and [`Sweep::scrub_interval`]
//! interleaves a background scrub tick every N trace accesses. All three
//! default to off, leaving the sweep bit-identical to a build without the
//! reliability subsystem.

mod catalog;
pub mod figures;

pub use catalog::{fig15_cdf, figure, Figure, FIGURES, SWEEPLESS};

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use esd_core::{run_trace, RunOptions, RunReport, Scheme, SchemeKind};
use esd_sim::SystemConfig;
use esd_trace::{AppProfile, Trace, TraceGenerator, ZipfSums};

/// Default accesses replayed per workload.
pub const DEFAULT_ACCESSES: usize = 1_000_000;
/// Default trace-generation seed.
pub const DEFAULT_SEED: u64 = 42;

/// Sweep parameters shared by all figures.
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
    /// parallelism.
    pub threads: Option<usize>,
    /// Background-scrub cadence in trace accesses (`None` disables
    /// scrubbing).
    pub scrub_interval: Option<u64>,
    /// Epoch time-series cadence in trace accesses (`None` collects none).
    /// Epoch collection is read-only: it never perturbs the simulation.
    pub epoch_interval: Option<u64>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new(AppProfile::all())
    }
}

impl Sweep {
    /// Creates a sweep over the given workloads with the defaults:
    /// [`DEFAULT_ACCESSES`] accesses, seed [`DEFAULT_SEED`], Table I with
    /// the fault injector off, no scrub, no epochs, and the machine's
    /// parallelism.
    #[must_use]
    pub fn new(apps: Vec<AppProfile>) -> Self {
        Sweep {
            apps,
            accesses: DEFAULT_ACCESSES,
            seed: DEFAULT_SEED,
            config: SystemConfig::default(),
            threads: None,
            scrub_interval: None,
            epoch_interval: None,
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
    /// the task count: [`Sweep::threads`] if set, else the machine's
    /// available parallelism. [`SweepOutcome`] carries it next to the
    /// effective count, so a sweep that silently fell back to one thread is
    /// visible.
    #[must_use]
    pub fn requested_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1)
    }

    /// The number of worker threads [`Sweep::run_tasks`] will use for `n_tasks`
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
        let started = Instant::now();
        let n_tasks = self.apps.len() * schemes.len();
        let requested_threads = self.requested_threads();
        if n_tasks == 0 {
            return SweepOutcome {
                rows: Vec::new(),
                wall: started.elapsed(),
                threads: 0,
                requested_threads,
                tasks: Vec::new(),
            };
        }
        let options = self.run_options();
        let results = self.run_tasks(schemes.len(), |_, trace, s| {
            let kind = schemes[s];
            let t0 = Instant::now();
            let report = run_trace(
                Scheme::new(kind, &self.config),
                trace,
                &self.config,
                &options,
            )
            .unwrap_or_else(|e| panic!("data corruption in {kind}: {e}"));
            (report, t0.elapsed().as_secs_f64())
        });

        let mut results = results.into_iter();
        let mut rows = Vec::with_capacity(self.apps.len());
        let mut tasks = Vec::with_capacity(n_tasks);
        for app in &self.apps {
            let mut reports = Vec::with_capacity(schemes.len());
            for (&kind, (report, seconds)) in schemes.iter().zip(results.by_ref()) {
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
            threads: self.worker_count(n_tasks),
            requested_threads,
            tasks,
        }
    }

    /// Runs `tasks_per_app` tasks per workload on a work-stealing pool of
    /// [`Sweep::worker_count`] scoped threads and returns their results in
    /// (app, task) order, whatever the thread count: result
    /// `a * tasks_per_app + i` is `task(&apps[a], &trace_a, i)`.
    ///
    /// Each workload's trace is generated once, by the first of its tasks
    /// to run, and every task of that workload gets the same [`Arc`]. The
    /// pool drops it as soon as the workload's last task returns, so a
    /// sweep holds about one trace per worker (plus one a thief is working
    /// on), not one per workload.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any task.
    #[must_use]
    pub fn run_tasks<T, F>(&self, tasks_per_app: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&AppProfile, &Arc<Trace>, usize) -> T + Sync,
    {
        let n_tasks = self.apps.len() * tasks_per_app;
        if n_tasks == 0 {
            return Vec::new();
        }
        let requested = self.requested_threads();
        let workers = self.worker_count(n_tasks);
        if workers < requested {
            eprintln!(
                "warning: sweep running on {workers} of {requested} requested worker \
                 threads (only {n_tasks} runnable tasks)"
            );
        }

        // One set of running sums for the whole sweep: every workload's
        // address distribution is a prefix of the largest one's.
        let sums = TraceGenerator::address_sums(&self.apps);
        let slots: Vec<TraceSlot> = (0..self.apps.len())
            .map(|_| TraceSlot {
                trace: Mutex::new(None),
                pending: AtomicUsize::new(tasks_per_app),
            })
            .collect();

        // Task t = app-major pair (t / tasks_per_app, t % tasks_per_app).
        // Queues are seeded with contiguous app-major chunks so each worker
        // starts on its own workloads (trace generation mostly uncontended);
        // stealing from the *back* of a victim's queue takes the work
        // farthest from what the victim is touching now.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * n_tasks / workers;
                let hi = (w + 1) * n_tasks / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let (sums, slots, queues, task) = (&sums, &slots, &queues, &task);
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        while let Some(t) = claim_task(queues, me) {
                            let (a, i) = (t / tasks_per_app, t % tasks_per_app);
                            let app = &self.apps[a];
                            let slot = &slots[a];
                            let trace = {
                                let mut held = slot.trace.lock().expect("trace slot");
                                Arc::clone(
                                    held.get_or_insert_with(|| Arc::new(self.generate(sums, app))),
                                )
                            };
                            done.push((t, task(app, &trace, i)));
                            // The mutex guards the slot; the count only elects
                            // the app's last task to empty it, after every
                            // other task of the app took its clone.
                            if slot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                                *slot.trace.lock().expect("trace slot") = None;
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        // Every task index was claimed exactly once.
        done.sort_unstable_by_key(|&(t, _)| t);
        done.into_iter().map(|(_, value)| value).collect()
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
        let sums = TraceGenerator::address_sums(&self.apps);
        self.apps
            .iter()
            .map(|app| {
                let trace = self.generate(&sums, app);
                let reports = schemes
                    .iter()
                    .map(|&kind| {
                        run_trace(
                            Scheme::new(kind, &self.config),
                            &trace,
                            &self.config,
                            &options,
                        )
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

    /// `app`'s trace, identical to [`esd_trace::generate_trace`]'s, with its
    /// address distribution cut from the sweep's shared `sums`.
    fn generate(&self, sums: &ZipfSums, app: &AppProfile) -> Trace {
        TraceGenerator::with_sums(app.clone(), self.seed, sums).generate(self.accesses)
    }
}

/// One workload's trace while its tasks run: filled by the first task that
/// needs it, emptied when `pending` (tasks not yet returned) reaches zero.
struct TraceSlot {
    trace: Mutex<Option<Arc<Trace>>>,
    pending: AtomicUsize,
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
    /// Worker threads requested ([`Sweep::threads`] or machine
    /// parallelism) before clamping to the task count.
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

/// Writes a figure header in a uniform style to `out`. A sweep under fault
/// injection (a non-zero `config.pcm.rber_per_tbit`, `esd-cli fig
/// --rber`) says so, since its figures are not the paper's.
pub fn print_figure_header(
    out: &mut dyn Write,
    id: &str,
    caption: &str,
    sweep: &Sweep,
) -> io::Result<()> {
    writeln!(out, "=== {id}: {caption} ===")?;
    writeln!(
        out,
        "    ({} workloads x {} accesses, seed {})",
        sweep.apps.len(),
        sweep.accesses,
        sweep.seed
    )?;
    if sweep.config.pcm.rber_per_tbit > 0 {
        writeln!(
            out,
            "    fault injection ON (rber {} per 10^12 bit-reads, seed {:#x}, {})",
            sweep.config.pcm.rber_per_tbit,
            sweep.config.pcm.rber_seed,
            sweep.scrub_interval.map_or_else(
                || "scrub off".to_string(),
                |n| format!("scrub every {n} accesses")
            )
        )?;
    }
    writeln!(out)
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
    use esd_trace::generate_trace;

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

    /// What a task sees: its app, the trace it was handed and its index.
    fn task_view(app: &AppProfile, trace: &Trace, i: usize) -> (String, String, usize, usize) {
        (app.name.clone(), trace.name.clone(), trace.write_count(), i)
    }

    #[test]
    fn run_tasks_returns_app_task_order_at_any_thread_count() {
        let apps: Vec<AppProfile> = AppProfile::all().into_iter().take(5).collect();
        let expected: Vec<_> = apps
            .iter()
            .flat_map(|app| {
                let trace = generate_trace(app, DEFAULT_SEED, 1_000);
                (0..3).map(move |i| task_view(app, &trace, i))
            })
            .collect();
        for threads in [1, 2, 8] {
            let mut sweep = small_sweep(apps.clone());
            sweep.seed = DEFAULT_SEED;
            sweep.threads = Some(threads);
            let got = sweep.run_tasks(3, |app, trace, i| task_view(app, trace, i));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn run_tasks_hands_every_task_of_an_app_the_same_trace() {
        let mut sweep = small_sweep(AppProfile::all().into_iter().take(4).collect());
        sweep.threads = Some(4);
        let traces = sweep.run_tasks(5, |_, trace, _| Arc::clone(trace));
        for (a, app) in traces.chunks(5).enumerate() {
            assert!(app.iter().all(|t| Arc::ptr_eq(t, &app[0])), "app {a}");
        }
        for (a, b) in traces
            .iter()
            .step_by(5)
            .zip(traces.iter().step_by(5).skip(1))
        {
            assert!(!Arc::ptr_eq(a, b), "two apps shared one trace");
        }
    }

    #[test]
    fn run_tasks_releases_a_trace_after_its_last_task() {
        let mut sweep = small_sweep(AppProfile::all().into_iter().take(4).collect());
        sweep.threads = Some(1);
        let seen: Mutex<Vec<std::sync::Weak<Trace>>> = Mutex::new(Vec::new());
        let released = sweep.run_tasks(3, |_, trace, i| {
            let mut seen = seen.lock().expect("seen");
            let previous_gone = i != 0 || seen.last().is_none_or(|w| w.upgrade().is_none());
            if i == 0 {
                seen.push(Arc::downgrade(trace));
            }
            previous_gone
        });
        assert_eq!(released, vec![true; 12]);
        let seen = seen.into_inner().expect("seen");
        assert_eq!(seen.len(), 4);
        assert!(
            seen.iter().all(|w| w.upgrade().is_none()),
            "a trace outlived the sweep"
        );
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
