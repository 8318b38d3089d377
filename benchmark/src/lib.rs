//! The repo benchmark: five named workloads measured end to end with
//! tracing off, and — in a separate traced run — drilled layer by layer
//! from the outside in. See `README.md` in this directory for what each
//! number means and how a claim must use them.

pub mod attribution;
pub mod drill;
pub mod env;
pub mod hostprobe;
pub mod replay;
pub mod report;
pub mod serve_events;
pub mod serve_tcp;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sweep;

use std::time::Instant;

use hostprobe::{HostProbe, Paced};
use report::Outcome;
use spans::Recorder;
use spec::{MetricSpec, Sizes};

/// Calls `rep` (which returns the seconds it measured) until `seconds` of
/// wall time have passed, and at least `min_reps` times, with a probe sample
/// after each call.
pub(crate) fn timed_reps(
    seconds: f64,
    min_reps: usize,
    probe: &mut HostProbe,
    mut rep: impl FnMut() -> f64,
) -> Vec<Paced> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        times.push(probe.pace(&mut rep));
    }
    times
}

/// Builds the inputs `sizes.setup_builds` times, a probe pass after each,
/// after `sizes.setup_warmups` untimed builds: the first few grow the heap
/// and take up to twice as long as every later one. Returns the build times
/// and the last build.
pub(crate) fn paced_setups<T>(
    probe: &mut HostProbe,
    sizes: &Sizes,
    mut build: impl FnMut() -> T,
) -> (Vec<Paced>, T) {
    for _ in 0..sizes.setup_warmups {
        std::hint::black_box(build());
    }
    probe.sample();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..sizes.setup_builds.max(1) {
        setups.push(probe.pace(|| {
            let t0 = Instant::now();
            built = Some(build());
            t0.elapsed().as_secs_f64()
        }));
    }
    (setups, built.expect("at least one set-up build"))
}

fn reference_median(times: &[Paced]) -> f64 {
    let reference: Vec<f64> = times.iter().map(Paced::reference_s).collect();
    stats::median(&reference)
}

/// Rate and time (in microseconds) of repetitions that each do `ops`
/// operations, from the median repetition in reference seconds. What the
/// wall clock and the probe read goes to standard error, every repetition
/// of it.
pub(crate) fn per_rep(ops: f64, times: &[Paced]) -> (f64, f64) {
    let wall: Vec<f64> = times.iter().map(|t| t.seconds).collect();
    let probes: Vec<f64> = times.iter().map(|t| t.probe_s).collect();
    let median_s = reference_median(times);
    eprintln!(
        "# {} repetitions: median {:.4} s by the wall clock ({:.1} ops/s), {median_s:.4} reference s; \
         probe pass median {:.5} s = {:.3} x the reference {}",
        times.len(),
        stats::median(&wall),
        ops / stats::median(&wall),
        stats::median(&probes),
        stats::median(&probes) / hostprobe::REFERENCE_S,
        hostprobe::REFERENCE_S
    );
    let listed = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("# wall seconds: {}", listed(&wall));
    eprintln!("# probe seconds: {}", listed(&probes));
    (ops / median_s, median_s * 1e6)
}

/// Sets the four end-to-end metrics; `setups` are the set-up build times.
pub(crate) fn finish_end_to_end(
    out: &mut Outcome,
    (ops_per_s, latency_p50_us): (f64, f64),
    setups: &[Paced],
) {
    out.set("ops_per_s", ops_per_s);
    out.set("latency_p50_us", latency_p50_us);
    out.set("peak_rss_mb", env::peak_rss_mb());
    out.set("setup_s", reference_median(setups));
    let listed: Vec<String> = setups
        .iter()
        .map(|t| format!("{:.4}/{:.4}", t.seconds, t.probe_s))
        .collect();
    eprintln!("# set-up wall/probe seconds: {}", listed.join(" "));
}

/// Reports 0 for every metric of `table` the workload did not set: the
/// layer is not on this workload's path.
fn fill_off_path(out: &mut Outcome, table: &'static [MetricSpec]) {
    for m in table {
        if out.get(m.name).is_none() {
            out.set(m.name, 0.0);
        }
    }
}

/// Runs one workload once, untraced: the end-to-end metrics.
///
/// # Panics
///
/// Panics on an unknown workload name or when the run's metrics do not
/// match the benchmark's tables.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let out = match known(workload) {
        name @ (spec::REPLAY_ESD | spec::REPLAY_SHA1) => replay::run(name, seed, seconds, sizes),
        spec::SWEEP => sweep::run(seed, seconds, sizes),
        spec::SERVE_TCP => serve_tcp::run(seed, seconds, sizes),
        _ => serve_events::run(seed, seconds, sizes),
    };
    out.validate(&spec::END_TO_END)
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    out
}

/// Runs one workload once with the span recorder: the per-layer metrics,
/// and the spans they were computed from.
///
/// # Panics
///
/// Panics on an unknown workload name, when the run's metrics do not match
/// the benchmark's tables, or when the span tree is malformed (a bug in the
/// benchmark, not in the program).
pub fn run_traced(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> (Outcome, Recorder) {
    let mut rec = Recorder::new();
    // How fast the host ran meanwhile: probe passes before and after.
    let mut probe = HostProbe::new(1, 1);
    let mut passes: Vec<f64> = (0..3).map(|_| probe.sample()).collect();
    let mut out = match known(workload) {
        name @ (spec::REPLAY_ESD | spec::REPLAY_SHA1) => {
            replay::run_traced(name, seed, sizes, &mut rec)
        }
        spec::SWEEP => sweep::run_traced(seed, sizes, &mut rec),
        spec::SERVE_TCP => serve_tcp::run_traced(seed, seconds, sizes, &mut rec),
        _ => serve_events::run_traced(seed, sizes, &mut rec),
    };
    passes.extend((0..3).map(|_| probe.sample()));
    out.set(
        "bench.host.probe_ratio",
        stats::median(&passes) / hostprobe::REFERENCE_S,
    );
    out.set("bench.spans_recorded", rec.spans().len() as f64);
    fill_off_path(&mut out, &spec::PER_LAYER);
    out.validate(&spec::PER_LAYER)
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    rec.check_well_formed()
        .unwrap_or_else(|e| panic!("{workload}: span tree: {e}"));
    (out, rec)
}

fn known(workload: &str) -> &'static str {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|n| *n == workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"))
}
