//! The trace runner: drives a scheme with a trace through the CPU model and
//! collects a [`RunReport`].

use std::error::Error;
use std::fmt;

use esd_sim::SystemConfig;
use esd_trace::Trace;

use crate::journal::CrashPoint;
use crate::report::RunReport;
use crate::scheme::{Scheme, SchemeKind};

/// [`Scheme::new`] under another name. Kept only until `benchmark/` stops
/// naming it.
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
    /// Ignored; kept only until `benchmark/` stops naming it.
    pub quantum: u32,
    /// Inject a power-loss crash at this trace access (and write-path
    /// stage), then run the scheme's recovery routine before the access
    /// re-executes. The access index counts from 0 and must be within the
    /// trace; the crash fires when replay reaches it. Recovery cost lands in
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
    /// Verification on, everything else off. The same value in every
    /// process: nothing here reads the environment.
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
/// block's fingerprint keys in one call over the block.
pub const DEFAULT_BATCH: u32 = 64;

/// [`RunOptions::quantum`]'s default. Ignored like the field; kept only
/// until `benchmark/` stops naming it.
pub const DEFAULT_QUANTUM: u32 = 4096;

/// Replays `trace` through `scheme` and collects a [`RunReport`]: shadow
/// verification of every read (the paper's "no data loss" guarantee,
/// §III-E) plus whatever else `options` turns on — an interleaved
/// background scrubber, whose PCM traffic and repairs land in the report's
/// `reliability` block, observability, epochs, an injected crash.
///
/// The whole trace replays in program order through `scheme` itself over
/// the full `config`, with one CPU model. The replay continues from the
/// scheme's current state: a scheme built with [`Scheme::with_policy`],
/// tuned with [`Scheme::efit_decay_interval`] or crashed with
/// [`Scheme::crash_and_recover`] replays as it stands. The scheme is
/// consumed; read what it ended with from the returned report.
///
/// # Errors
///
/// With `options.verify` set, returns [`VerifyError`] at the first read
/// the scheme presents as valid that differs from the most recent write to
/// that logical address.
/// Reads flagged uncorrectable or miscorrected are surfaced through
/// [`crate::SchemeStats`], not as errors.
pub fn run_trace(
    scheme: Scheme,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    crate::replay::run(scheme, trace, config, options)
}

/// [`run_trace`] over a fresh [`Scheme::new`] of `kind`. Kept only until
/// `benchmark/` stops naming it.
///
/// # Errors
///
/// Propagates [`VerifyError`] from [`run_trace`].
pub fn replay_with(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    run_trace(Scheme::new(kind, config), trace, config, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_trace::AppProfile;

    fn demo_trace() -> Trace {
        esd_trace::generate_trace(&AppProfile::demo(), 7, 3_000)
    }

    /// A verified replay of a fresh `kind` scheme.
    fn replay(kind: SchemeKind, trace: &Trace, config: &SystemConfig) -> RunReport {
        run_trace(
            Scheme::new(kind, config),
            trace,
            config,
            &RunOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
    }

    #[test]
    fn all_schemes_replay_verified() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        for kind in SchemeKind::ALL {
            let report = replay(kind, &trace, &config);
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
            reports.push(replay(kind, &trace, &config));
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
        let r_sha1 = replay(SchemeKind::DedupSha1, &trace, &config);
        let r_esd = replay(SchemeKind::Esd, &trace, &config);
        assert!(r_esd.write_reduction() <= r_sha1.write_reduction() + 1e-9);
        assert!(r_esd.write_reduction() > 0.0);
    }

    #[test]
    fn run_trace_is_deterministic() {
        let config = SystemConfig::default();
        let trace = esd_trace::generate_trace(&AppProfile::demo(), 3, 2_000);
        let a = replay(SchemeKind::Esd, &trace, &config);
        let b = replay(SchemeKind::Esd, &trace, &config);
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
        let report = run_trace(
            Scheme::new(SchemeKind::Esd, &config),
            &trace,
            &config,
            &options,
        )
        .unwrap();
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
        let report = run_trace(
            Scheme::new(SchemeKind::Esd, &config),
            &trace,
            &config,
            &options,
        )
        .unwrap();
        let obs = report
            .obs
            .as_ref()
            .expect("observe=true extracts the collector");
        let names: Vec<&str> = obs.tracer().events().map(|e| e.name).collect();
        for expected in [
            "efit_probe",
            "device_write",
            "scrub_tick",
            "write_buffer_depth",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(!obs.registry().is_empty(), "spans must feed the registry");
        // The run without observability produces the same simulation result.
        let plain_options = RunOptions {
            observe: false,
            ..options
        };
        let plain = run_trace(
            Scheme::new(SchemeKind::Esd, &config),
            &trace,
            &config,
            &plain_options,
        )
        .unwrap();
        assert_eq!(plain.stats, report.stats);
        assert_eq!(plain.ipc, report.ipc);
        assert_eq!(plain.write_latency, report.write_latency);
    }

    #[test]
    fn dewrite_report_carries_predictor_stats() {
        let config = SystemConfig::default();
        let trace = demo_trace();
        let r = replay(SchemeKind::DeWrite, &trace, &config);
        let p = r.predictor.expect("DeWrite predicts");
        assert!(p.total() > 0, "outcomes must be scored");
        let base = replay(SchemeKind::Baseline, &trace, &config);
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
