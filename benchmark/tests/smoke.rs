//! Seconds-long smoke of the whole benchmark at tiny sizes: every workload
//! emits exactly the metrics `BENCHMARK.json` lists, the span tree of every
//! traced run is well-formed, and the committed `BENCHMARK.json` is the one
//! the tables render.

use esd_benchmark::spans::Recorder;
use esd_benchmark::spec::{self, Sizes};
use esd_benchmark::{run_traced, run_untraced};

/// `--seconds` of every smoke run. The TCP sessions get a quarter each,
/// which must cover the two 44 ms bursts their 24 traced requests take.
const SECONDS: f64 = 1.2;

fn name_is_legal(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_units_and_reasons_fit_the_contract() {
    let mut seen = std::collections::HashSet::new();
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        assert!(name_is_legal(m.name), "metric name {:?}", m.name);
        assert!(seen.insert(m.name), "metric {} listed twice", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "unit of {}",
            m.name
        );
        assert!(
            m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "unit {:?} of {}",
            m.unit,
            m.name
        );
        assert!(
            matches!(m.better, "higher" | "lower"),
            "direction of {}",
            m.name
        );
    }
    for m in &spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(spec::PER_LAYER.len() <= 128);
    for w in &spec::WORKLOADS {
        assert!(name_is_legal(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "name {} used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}: {} chars",
            w.name,
            w.why.len()
        );
    }
}

#[test]
fn committed_benchmark_json_is_what_the_tables_render() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `esd-benchmark spec`"
    );
    assert!(committed.len() <= 64 * 1024);
}

/// Untraced: exactly the end-to-end metrics, none of them zero, nothing failed.
fn check_untraced(workload: &str) {
    let out = run_untraced(workload, 7, SECONDS, &Sizes::tiny());
    assert_eq!(out.metrics.len(), spec::END_TO_END.len(), "{workload}");
    for m in &spec::END_TO_END {
        let value = out
            .get(m.name)
            .unwrap_or_else(|| panic!("{workload}: no {}", m.name));
        assert!(value > 0.0, "{workload}: {} = {value}", m.name);
    }
    assert!(out.attempted >= 1, "{workload}");
    assert_eq!(out.failed, 0, "{workload}");
    let line = out.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

/// Traced: exactly the per-layer metrics, a well-formed span tree, the
/// exact counts repeat at one seed, and the Chrome trace can be written.
fn check_traced(workload: &str) -> Recorder {
    let (out, spans) = run_traced(workload, 7, SECONDS, &Sizes::tiny());
    assert_eq!(out.metrics.len(), spec::PER_LAYER.len(), "{workload}");
    assert_eq!(out.failed, 0, "{workload}");
    assert_eq!(
        out.get("bench.ablations_mismatched"),
        Some(0.0),
        "{workload}"
    );
    spans
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        spans.self_times().iter().all(|&t| t >= 0),
        "{workload}: negative self time"
    );
    assert_eq!(
        spans.spans()[0].name,
        workload,
        "the root span is the workload"
    );
    assert!(
        spans.spans()[1..].iter().all(|s| s.parent.is_some()),
        "{workload}: one root"
    );
    let (again, _) = run_traced(workload, 7, SECONDS, &Sizes::tiny());
    for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
        assert_eq!(
            out.get(m.name),
            again.get(m.name),
            "{workload}: {} must repeat",
            m.name
        );
    }
    let path = std::env::temp_dir().join(format!(
        "esd-benchmark-smoke-{}-{workload}.json",
        std::process::id()
    ));
    spans.write_chrome_trace(&path).expect("write the trace");
    let written = std::fs::read_to_string(&path).expect("read the trace back");
    std::fs::remove_file(&path).expect("remove the trace");
    assert_eq!(
        written.matches("\"ph\": \"X\"").count(),
        spans.spans().len()
    );
    spans
}

#[test]
fn replay_esd_unique() {
    check_untraced(spec::REPLAY_ESD);
    let spans = check_traced(spec::REPLAY_ESD);
    for name in [
        "core.shard.replay_with",
        "ablation.batch_1",
        "core.efit",
        "ecc.encode_lines",
        "sim.pcm",
    ] {
        assert!(spans.total_ns(name) > 0, "span {name}");
    }
}

#[test]
fn replay_sha1_dup() {
    check_untraced(spec::REPLAY_SHA1);
    let spans = check_traced(spec::REPLAY_SHA1);
    assert!(spans.total_ns("hash.sha1") > 0 && spans.total_ns("core.fpstore") > 0);
}

#[test]
fn sweep_paper() {
    check_untraced(spec::SWEEP);
    let spans = check_traced(spec::SWEEP);
    assert!(
        spans.total_ns("bench.sweep.run_timed") > 0 && spans.total_ns("bench.sweep.run_serial") > 0
    );
    assert_eq!(
        spans
            .spans()
            .iter()
            .filter(|s| s.name == "trace.generate")
            .count(),
        Sizes::tiny().sweep_profiles
    );
}

#[test]
fn serve_tcp_closed() {
    check_untraced(spec::SERVE_TCP);
    let spans = check_traced(spec::SERVE_TCP);
    // Tenants 2 and 3 are traced: one span per request, sharing its id with
    // the write that sent it.
    let requests = spans.spans().iter().filter(|s| s.name == "request").count();
    assert_eq!(requests, 2 * Sizes::tiny().tcp_traced_requests);
    assert_eq!(
        spans
            .spans()
            .iter()
            .filter(|s| s.name == "client.write_frame")
            .count(),
        requests
    );
}

#[test]
fn serve_events_overload() {
    check_untraced(spec::SERVE_EVENTS);
    let spans = check_traced(spec::SERVE_EVENTS);
    assert!(spans.total_ns("server.service.run_events") > 0);
    let (out, _) = run_traced(spec::SERVE_EVENTS, 7, SECONDS, &Sizes::tiny());
    let rejected = out.get("server.service.rejected_share").expect("emitted");
    assert!(
        rejected > 0.0 && rejected < 1.0,
        "the overload must reject a share, got {rejected}"
    );
    assert!(
        out.get("server.service.speedup_workers_nproc")
            .expect("emitted")
            > 0.0
    );
}

#[test]
fn a_malformed_span_tree_is_rejected() {
    let mut rec = Recorder::new();
    rec.timed("parent", 0, |rec| {
        // A child recorded as starting before its parent did.
        let early = std::time::Instant::now() - std::time::Duration::from_millis(5);
        rec.add("child", 0, early, std::time::Instant::now());
    });
    assert!(rec.check_well_formed().is_err());
}
