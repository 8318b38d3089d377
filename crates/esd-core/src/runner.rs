//! The trace runner: drives a scheme with a trace through the CPU model and
//! collects a [`RunReport`].

use std::error::Error;
use std::fmt;

use esd_sim::SystemConfig;
use esd_trace::{AppProfile, Trace};

use crate::journal::CrashPoint;
use crate::report::RunReport;
use crate::scheme::{Scheme, SchemeKind};

/// Constructs a scheme of the given kind over a fresh simulated system
/// ([`Scheme::new`] under the name the harnesses use).
#[must_use]
pub fn build_scheme(kind: SchemeKind, config: &SystemConfig) -> Scheme {
    Scheme::new(kind, config)
}

/// A data-integrity violation detected during a verified run: a read
/// returned different content than the most recent write to that address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The scheme that corrupted data.
    pub scheme: SchemeKind,
    /// The logical address.
    pub addr: u64,
    /// Index of the offending access in the trace.
    pub access_index: usize,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} returned wrong data for address {:#x} at access {}",
            self.scheme, self.addr, self.access_index
        )
    }
}

impl Error for VerifyError {}

/// Knobs for one trace replay beyond the scheme and trace themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Verify every read against a shadow copy (the paper's "no data loss"
    /// guarantee, §III-E). Reads the scheme itself flags as uncorrectable
    /// or miscorrected are exempt — they are *reported* data loss, not a
    /// scheme bug.
    pub verify: bool,
    /// Run a background scrub tick every this many trace accesses
    /// (`None` disables scrubbing).
    pub scrub_interval: Option<u64>,
    /// Stored lines each scrub tick visits.
    pub scrub_lines_per_tick: usize,
    /// Install an enabled observability collector into the scheme: trace
    /// events for every write-path stage, scrub ticks and ECC outcomes,
    /// plus the metrics registry. The collector is extracted into
    /// [`RunReport::obs`] at end of run. Off by default — the disabled
    /// collector compiles to early-return no-ops on the hot path.
    pub observe: bool,
    /// Ring-buffer capacity for trace events when `observe` is set
    /// (`0` selects [`esd_obs::DEFAULT_TRACE_CAPACITY`]). The ring keeps
    /// the newest events and counts what it dropped.
    pub trace_capacity: usize,
    /// Collect a time-series [`esd_obs::EpochSnapshot`] every this many
    /// trace accesses (`None` disables epoch collection).
    pub epoch_interval: Option<u64>,
    /// Ignored; kept only until `benchmark/` stops naming it.
    pub shards: u32,
    /// Ignored; kept only until `benchmark/` stops naming it.
    pub batch: u32,
    /// Accesses the trace advances between two merges of the cross-slice
    /// directory. This is a *model* knob: cross-slice dedup publishes
    /// become visible at quantum ends, so changing the quantum changes
    /// which remote duplicates are caught. `0` means [`DEFAULT_QUANTUM`],
    /// and a value past the trace length means one merge at the end.
    /// Defaults to [`DEFAULT_QUANTUM`].
    pub quantum: u32,
    /// Inject a power-loss crash at this trace access (and write-path
    /// stage), then run the scheme's recovery routine before the access
    /// re-executes. The access index counts from 0 and must be within the
    /// trace; the crash fires when replay reaches it, on every slice at
    /// once (power loss is global). Recovery cost lands in
    /// [`RunReport::recovery`]. `None` (the default) replays without
    /// injection and leaves the report byte-identical to earlier versions.
    pub crash_at: Option<CrashPoint>,
    /// Checkpoint the metadata journal every this many journaled records.
    /// `None` disables journaling: recovery then rebuilds by scanning the
    /// full NVMM-resident metadata regions instead of replaying a bounded
    /// window — correct either way, but recovery time scales with the
    /// choice (the tradeoff the recovery curve in EXPERIMENTS.md measures).
    /// Journal writes are posted metadata traffic: they cost energy and
    /// bank occupancy, never write latency. Defaults to `None`.
    pub journal_every: Option<u64>,
    /// Which kernel backend the compute kernels (AES-128, SHA-1, MD5) run
    /// on: `Scalar` forces the portable implementations, `Auto` (the
    /// default) takes AES-NI, SHA-NI and AVX2 MD5 where the host has them.
    /// Purely a *host-speed* knob — every hardware kernel is bit-exact with
    /// its scalar path, so the [`RunReport`] is byte-identical across
    /// backends; only wall-clock changes. Applied process-wide (via
    /// [`esd_kernels::set_backend`]) before the replay starts.
    pub kernels: esd_kernels::KernelBackend,
}

impl Default for RunOptions {
    /// Verification on, the [`DEFAULT_QUANTUM`], everything else off. The
    /// same value in every process: nothing here reads the environment.
    fn default() -> Self {
        RunOptions {
            verify: true,
            scrub_interval: None,
            scrub_lines_per_tick: 1024,
            observe: false,
            trace_capacity: 0,
            epoch_interval: None,
            shards: 1,
            batch: DEFAULT_BATCH,
            quantum: DEFAULT_QUANTUM,
            crash_at: None,
            journal_every: None,
            kernels: esd_kernels::KernelBackend::Auto,
        }
    }
}

/// Accesses the replay engine gathers into one block before computing the
/// block's fingerprint keys in one multi-lane kernel call.
pub const DEFAULT_BATCH: u32 = 64;

/// The sync quantum of [`RunOptions::default`], in trace accesses.
pub const DEFAULT_QUANTUM: u32 = 4096;

/// Resolves a requested sync quantum against a trace of `trace_len`
/// accesses, clamping degenerate values: `0` falls back to
/// [`DEFAULT_QUANTUM`], and anything beyond the trace length is capped at
/// it (one merge at the end — larger values cannot change the schedule).
#[must_use]
pub(crate) fn effective_quantum(requested: u32, trace_len: usize) -> u32 {
    let requested = if requested == 0 {
        DEFAULT_QUANTUM
    } else {
        requested
    };
    let cap = u32::try_from(trace_len.max(1)).unwrap_or(u32::MAX);
    requested.min(cap)
}

/// Replays `trace` through `scheme`, optionally verifying every read
/// against a shadow copy (the paper's "no data loss" guarantee, §III-E).
///
/// # Errors
///
/// With `verify` set, returns [`VerifyError`] if any read returns content
/// that differs from the most recent write to that logical address.
pub fn run_trace(
    scheme: &Scheme,
    trace: &Trace,
    config: &SystemConfig,
    verify: bool,
) -> Result<RunReport, VerifyError> {
    run_trace_with(
        scheme,
        trace,
        config,
        &RunOptions {
            verify,
            ..RunOptions::default()
        },
    )
}

/// [`run_trace`] with the full set of [`RunOptions`]: shadow verification
/// plus an optional interleaved background scrubber, whose PCM traffic and
/// repairs land in the report's `reliability` block.
///
/// Replay always runs on the bank-sliced engine: the trace is split by
/// PCM bank into `config.pcm.banks` slices, each simulated by its own
/// scheme instance over a one-bank slice of the system, one after another
/// on the calling thread. The passed `scheme` acts as a **template**: it
/// supplies the scheme kind and construction-time knobs (EFIT policy and
/// decay interval, codec, wear leveling), every slice is forked from it,
/// and it is not itself driven — inspect the returned [`RunReport`] (e.g.
/// [`RunReport::fingerprint_cache`]) rather than the scheme object after
/// the run.
///
/// # Errors
///
/// With `options.verify` set, returns [`VerifyError`] if any read the
/// scheme presents as valid differs from the most recent write to that
/// logical address (the earliest offending access across all slices).
/// Reads flagged uncorrectable or miscorrected are surfaced through
/// [`crate::SchemeStats`], not as errors.
pub fn run_trace_with(
    scheme: &Scheme,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    // Dispatch is a process-global; bit-exactness of the hardware kernels
    // keeps the report byte-identical across this choice.
    esd_kernels::set_backend(options.kernels);
    crate::shard::run_sharded(scheme, trace, config, options)
}

/// Replays an already-generated trace through a fresh scheme of the given
/// kind, with verification on. This is the unit of work the parallel sweep
/// schedules: callers generate each workload's trace once, share it (e.g.
/// behind an `Arc`), and fan the schemes out over it.
///
/// # Errors
///
/// Propagates [`VerifyError`] from [`run_trace`].
pub fn replay(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
) -> Result<RunReport, VerifyError> {
    replay_with(kind, trace, config, &RunOptions::default())
}

/// [`replay`] with explicit [`RunOptions`] (scrub interval, verification).
///
/// # Errors
///
/// Propagates [`VerifyError`] from [`run_trace_with`].
pub fn replay_with(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    run_trace_with(&Scheme::new(kind, config), trace, config, options)
}

/// Convenience: generate a workload's trace and replay it through one
/// scheme, with verification on.
///
/// # Errors
///
/// Propagates [`VerifyError`] from [`run_trace`].
pub fn run_app(
    kind: SchemeKind,
    profile: &AppProfile,
    seed: u64,
    accesses: usize,
    config: &SystemConfig,
) -> Result<RunReport, VerifyError> {
    let trace = esd_trace::generate_trace(profile, seed, accesses);
    run_trace(&Scheme::new(kind, config), &trace, config, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        esd_trace::generate_trace(&AppProfile::demo(), 7, 3_000)
    }

    #[test]
    fn effective_quantum_clamps_degenerate_values() {
        // 0 falls back to the default; oversized requests clamp to the
        // trace length; in-range requests pass through untouched.
        assert_eq!(effective_quantum(0, 10_000), DEFAULT_QUANTUM);
        assert_eq!(effective_quantum(1_000_000, 10_000), 10_000);
        assert_eq!(effective_quantum(512, 10_000), 512);
        // An empty trace still yields a positive quantum.
        assert_eq!(effective_quantum(512, 0), 1);
        assert_eq!(effective_quantum(0, 0), 1);
    }

    #[test]
    fn all_schemes_replay_verified() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        for kind in SchemeKind::ALL {
            let report = run_trace(&build_scheme(kind, &config), &trace, &config, true)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.stats.writes_received as usize, trace.write_count());
            assert_eq!(report.stats.reads_served as usize, trace.read_count());
            assert!(report.ipc > 0.0, "{kind} must make progress");
        }
    }

    #[test]
    fn dedup_schemes_write_less_than_baseline() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        let mut reports = Vec::new();
        for kind in SchemeKind::ALL {
            reports.push(run_trace(&build_scheme(kind, &config), &trace, &config, true).unwrap());
        }
        let baseline_writes = reports[0].nvmm_data_writes();
        for report in &reports[1..] {
            assert!(
                report.nvmm_data_writes() < baseline_writes,
                "{} wrote {} >= baseline {}",
                report.scheme,
                report.nvmm_data_writes(),
                baseline_writes
            );
        }
    }

    #[test]
    fn esd_eliminates_fewer_duplicates_than_full_dedup() {
        // Selectivity: ESD must dedup less than (or equal to) full schemes,
        // never more.
        let config = SystemConfig::default();
        let trace = demo_trace();
        let r_sha1 = replay(SchemeKind::DedupSha1, &trace, &config).unwrap();
        let r_esd = replay(SchemeKind::Esd, &trace, &config).unwrap();
        assert!(r_esd.write_reduction() <= r_sha1.write_reduction() + 1e-9);
        assert!(r_esd.write_reduction() > 0.0);
    }

    #[test]
    fn run_app_is_deterministic() {
        let config = SystemConfig::default();
        let p = AppProfile::demo();
        let a = run_app(SchemeKind::Esd, &p, 3, 2_000, &config).unwrap();
        let b = run_app(SchemeKind::Esd, &p, 3, 2_000, &config).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.write_latency, b.write_latency);
    }

    #[test]
    fn epoch_interval_collects_time_series() {
        let config = SystemConfig::default();
        let trace = demo_trace(); // 3000 accesses
        let options = RunOptions {
            epoch_interval: Some(500),
            ..RunOptions::default()
        };
        let report = replay_with(SchemeKind::Esd, &trace, &config, &options).unwrap();
        assert_eq!(report.epochs.len(), 6);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.index, i as u64);
            assert_eq!(e.end_access, (i as u64 + 1) * 500);
            assert!(e.ipc > 0.0, "epoch {i} must show progress");
            assert!((0.0..=1.0).contains(&e.dedup_rate));
            assert!((0.0..=1.0).contains(&e.fingerprint_hit_rate));
        }
        let times: Vec<_> = report.epochs.iter().map(|e| e.end_time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "time must advance");
    }

    #[test]
    fn observe_extracts_trace_events_and_metrics() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        let options = RunOptions {
            observe: true,
            scrub_interval: Some(1_000),
            epoch_interval: Some(1_000),
            ..RunOptions::default()
        };
        let report = replay_with(SchemeKind::Esd, &trace, &config, &options).unwrap();
        let obs = report.obs.as_ref().expect("observe=true extracts the collector");
        let names: Vec<&str> = obs.tracer().events().map(|e| e.name).collect();
        for expected in ["efit_probe", "device_write", "scrub_tick", "write_buffer_depth"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(!obs.registry().is_empty(), "spans must feed the registry");
        // The run without observability produces the same simulation result.
        let plain_options = RunOptions {
            observe: false,
            ..options
        };
        let plain = replay_with(SchemeKind::Esd, &trace, &config, &plain_options).unwrap();
        assert_eq!(plain.stats, report.stats);
        assert_eq!(plain.ipc, report.ipc);
        assert_eq!(plain.write_latency, report.write_latency);
    }

    #[test]
    fn dewrite_report_carries_predictor_stats() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        let r = replay(SchemeKind::DeWrite, &trace, &config).unwrap();
        let p = r.predictor.expect("DeWrite predicts");
        assert!(p.total() > 0, "outcomes must be scored");
        let base = replay(SchemeKind::Baseline, &trace, &config).unwrap();
        assert!(base.predictor.is_none(), "Baseline does not predict");
    }

    #[test]
    fn verify_error_displays() {
        let e = VerifyError {
            scheme: SchemeKind::Esd,
            addr: 0x40,
            access_index: 3,
        };
        assert!(e.to_string().contains("0x40"));
    }
}
