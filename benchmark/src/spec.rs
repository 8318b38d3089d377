//! The benchmark's contract in one place: workload names, metric names with
//! unit, direction and bound, and the input sizes. `BENCHMARK.json` at the
//! repo root is rendered from these tables (`esd-benchmark spec`), and the
//! smoke test checks that every run emits exactly these names.

/// One benchmark workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const REPLAY_ESD: &str = "replay-esd-unique";
pub const REPLAY_SHA1: &str = "replay-sha1-dup";
pub const SWEEP: &str = "sweep-paper";
pub const SERVE_TCP: &str = "serve-tcp-closed";
pub const SERVE_EVENTS: &str = "serve-events-overload";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: REPLAY_ESD,
        why: "ESD on leela (33% duplicates, 62% reads): mostly-unique writes make EFIT insert/evict, ECC, AES and PCM writes do the work; no hash is computed",
    },
    WorkloadSpec {
        name: REPLAY_SHA1,
        why: "Dedup_SHA1 on lbm (86% duplicates, write-heavy): SHA-1 kernels, batch pipeline, fingerprint store and AMT do the work; EFIT is never touched",
    },
    WorkloadSpec {
        name: SWEEP,
        why: "what fig_all makes a user wait for: 20 profiles x 4 schemes on the work-stealing pool, trace generation inside the timed section; Baseline and DeWrite carry weight only here",
    },
    WorkloadSpec {
        name: SERVE_TCP,
        why: "public serve_tcp, one closed-loop client with 16 requests in flight, four tenant sessions in turn: framing, syscalls per request and lock hand-off dominate, the scheme barely matters",
    },
    WorkloadSpec {
        name: SERVE_EVENTS,
        why: "Service::run_events under 8 tenants x 2M qps against queue depth 64: no sockets, global-order dispatch, staging and an admission queue that rejects a fixed share",
    },
];

/// A metric a run emits. `bound` is set for end-to-end metrics only.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    /// Counts and digests of simulated behaviour: must repeat bit for bit
    /// at one seed, and a host-speed change must not move them.
    pub exact: bool,
    /// Which end-to-end metric, on which workload, this metric should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound: None,
        exact: true,
        moves: "nothing: a host-speed change that moves it has changed the model",
    }
}

/// End-to-end metrics, host time, measured with tracing off. Every workload
/// emits all four. `ops_per_s` counts simulated accesses on `replay-*` and
/// `sweep-paper` and answered (applied) requests on `serve-*`;
/// `latency_p50_us` is the request round trip on `serve-tcp-closed` and one
/// whole `replay_with` / `run_timed` / `run_events` call elsewhere.
///
/// The times behind `ops_per_s` and `latency_p50_us` on the four CPU-bound
/// workloads, and behind `setup_s` on all five, are reference seconds: wall
/// seconds scaled by the host-speed probe that ran next to them (see
/// `hostprobe`). Wall time alone cannot be held to any bound the contract
/// allows on a shared host whose cores slow by a third or more for minutes
/// at a time. `serve-tcp-closed` waits on timers and the loopback stack, not
/// on the CPU, so its two time metrics stay wall time.
///
/// The bounds of the time metrics are the widest the contract allows: what
/// is left after the probe has taken the host's pace out is a spread of
/// 0.02-0.05 (README, "Measured spreads"), a third of that bound, not of a
/// tighter one. `peak_rss_mb` moves with the seed, as hash maps cross a
/// growth threshold or not.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

const ESD_REPLAY: &str =
    "ops_per_s on replay-esd-unique, a quarter of sweep-paper; not replay-sha1-dup";
const SHA1_REPLAY: &str = "ops_per_s on replay-sha1-dup; not replay-esd-unique (no hashes)";
const ALL_REPLAY: &str =
    "ops_per_s on replay-esd-unique most (unique writes), Baseline's share of sweep-paper";
const ENGINE: &str = "ops_per_s on all three replay workloads (at most 1 - 1/ratio); not serve-*";
const SWEEP_ONLY: &str = "ops_per_s on sweep-paper, setup_s on replay-*; not ops_per_s on replay-*";
const TCP_ONLY: &str =
    "latency_p50_us and ops_per_s on serve-tcp-closed; not serve-events-overload";
const SERVICE: &str = "ops_per_s on serve-events-overload first, serve-tcp-closed once transport stops dominating; not replay-*";

/// Per-layer metrics from the traced run. A layer a workload never calls
/// reports 0 (see README: "0 means not on this workload's path").
pub const PER_LAYER: [MetricSpec; 71] = [
    // Host time per operation.
    layer("trace.generate_ns_per_access", "ns", "lower", SWEEP_ONLY),
    layer("ecc.encode_ns_per_line", "ns", "lower", ESD_REPLAY),
    layer(
        "ecc.decode_ns_per_line",
        "ns",
        "lower",
        "ops_per_s on replay-esd-unique (read-heavy) and sweep-paper",
    ),
    layer("hash.sha1_ns_per_line", "ns", "lower", SHA1_REPLAY),
    layer(
        "hash.md5_ns_per_line",
        "ns",
        "lower",
        "no workload computes MD5: kernel baseline only",
    ),
    layer(
        "hash.crc32_ns_per_line",
        "ns",
        "lower",
        "ops_per_s on DeWrite's share of sweep-paper",
    ),
    layer("crypto.encrypt_ns_per_line", "ns", "lower", ALL_REPLAY),
    layer("crypto.decrypt_ns_per_line", "ns", "lower", ALL_REPLAY),
    layer("core.efit.ns_per_op", "ns", "lower", ESD_REPLAY),
    layer("core.fpstore.ns_per_op", "ns", "lower", SHA1_REPLAY),
    layer("core.amt.ns_per_op", "ns", "lower", ALL_REPLAY),
    layer("sim.pcm.ns_per_access", "ns", "lower", ALL_REPLAY),
    layer("sim.cpu.ns_per_access", "ns", "lower", ALL_REPLAY),
    layer("core.scheme.ns_per_access", "ns", "lower", ENGINE),
    layer("server.proto.codec_ns_per_msg", "ns", "lower", TCP_ONLY),
    layer("server.proto.frame_ns_per_msg", "ns", "lower", TCP_ONLY),
    layer("server.service.admit_ns_per_req", "ns", "lower", SERVICE),
    layer("server.service.drain_ns_per_req", "ns", "lower", SERVICE),
    layer(
        "server.load.events_ns_per_req",
        "ns",
        "lower",
        "setup_s on serve-*",
    ),
    layer(
        "bench.sweep.scheme_s.baseline",
        "s",
        "lower",
        "ops_per_s on sweep-paper",
    ),
    layer(
        "bench.sweep.scheme_s.sha1",
        "s",
        "lower",
        "ops_per_s on sweep-paper",
    ),
    layer(
        "bench.sweep.scheme_s.dewrite",
        "s",
        "lower",
        "ops_per_s on sweep-paper",
    ),
    layer(
        "bench.sweep.scheme_s.esd",
        "s",
        "lower",
        "ops_per_s on sweep-paper",
    ),
    // Shares of the workload's end-to-end time (base: bench.e2e_base_s).
    layer("bench.e2e_base_s", "s", "lower", "base of every .share"),
    layer("trace.share", "share", "lower", SWEEP_ONLY),
    layer("ecc.share", "share", "lower", ESD_REPLAY),
    layer("hash.share", "share", "lower", SHA1_REPLAY),
    layer("crypto.share", "share", "lower", ALL_REPLAY),
    layer("core.efit.share", "share", "lower", ESD_REPLAY),
    layer("core.fpstore.share", "share", "lower", SHA1_REPLAY),
    layer("core.amt.share", "share", "lower", ALL_REPLAY),
    layer("sim.pcm.share", "share", "lower", ALL_REPLAY),
    layer("sim.cpu.share", "share", "lower", ALL_REPLAY),
    layer("core.scheme.share", "share", "lower", ENGINE),
    layer(
        "core.shard.unattributed_share",
        "share",
        "lower",
        "engine glue, CPU model, verification shadow: what no drill explains",
    ),
    layer("server.proto.share", "share", "lower", TCP_ONLY),
    layer("server.service.share", "share", "lower", SERVICE),
    // Ratios, each against the base named in the README.
    layer("core.shard.engine_overhead_ratio", "ratio", "lower", ENGINE),
    layer("core.shard.speedup_shards_nproc", "ratio", "higher", ENGINE),
    layer("core.shard.speedup_batch64", "ratio", "higher", SHA1_REPLAY),
    layer(
        "kernels.replay_speedup_simd",
        "ratio",
        "higher",
        "ops_per_s on replay-sha1-dup (SHA-NI) and replay-esd-unique (AES-NI)",
    ),
    layer(
        "obs.overhead_ratio",
        "ratio",
        "lower",
        "nothing end to end: observe is off in every end-to-end run",
    ),
    layer(
        "bench.sweep.parallel_speedup",
        "ratio",
        "higher",
        SWEEP_ONLY,
    ),
    layer(
        "server.service.speedup_workers_nproc",
        "ratio",
        "higher",
        SERVICE,
    ),
    layer("server.live.p50_us", "us", "lower", TCP_ONLY),
    layer("server.live.transport_us", "us", "lower", TCP_ONLY),
    layer("server.live.ptail_us", "us", "lower", TCP_ONLY),
    layer(
        "server.live.ptail_percentile",
        "%",
        "higher",
        "states which percentile ptail_us is",
    ),
    layer(
        "server.live.samples",
        "count",
        "higher",
        "sample count behind p50_us and ptail_us",
    ),
    layer(
        "bench.trace_overhead_ratio",
        "ratio",
        "lower",
        "nothing: end-to-end numbers come from the untraced run",
    ),
    // Useful-outcome ratios and exact counts: the simulated-time invariant.
    exact("core.efit.hit_ratio", "ratio"),
    exact("core.efit.evictions", "count"),
    exact("core.fpstore.cache_hit_ratio", "ratio"),
    exact("core.amt.cache_hit_ratio", "ratio"),
    exact("crypto.pad_cache_hit_ratio", "ratio"),
    exact("sim.dedup_ratio", "ratio"),
    exact("sim.pcm_reads", "count"),
    exact("sim.pcm_writes", "count"),
    exact("sim.fingerprint_computations", "count"),
    exact("sim.compare_reads", "count"),
    exact("sim.avg_write_latency_ps", "ps"),
    exact("sim.avg_read_latency_ps", "ps"),
    exact("sim.ipc_milli", "count"),
    exact("sim.report_digest", "count"),
    exact("server.service.rejected_share", "share"),
    exact("server.service.dedup_ratio", "ratio"),
    exact("server.service.state_digest", "count"),
    // Output checks of the traced run's ablations, as counts.
    layer(
        "bench.ablations_checked",
        "count",
        "higher",
        "ablation reports compared against the reference",
    ),
    layer(
        "bench.ablations_mismatched",
        "count",
        "lower",
        "must be 0: shards, batch, kernels and observe may not change a report",
    ),
    layer(
        "bench.host.probe_ratio",
        "ratio",
        "lower",
        "nothing: probe pass time over its reference, how slow the host ran during the traced run, whose times are wall time",
    ),
    layer(
        "bench.spans_recorded",
        "count",
        "lower",
        "size of the written Chrome trace",
    ),
];

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Input sizes and repetition floors. [`Sizes::full`] is what
/// `BENCHMARK.json` measures; [`Sizes::tiny`] is the seconds-long smoke.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Accesses in each `replay-*` trace.
    pub replay_accesses: usize,
    /// Accesses per (profile, scheme) task of `sweep-paper`.
    pub sweep_accesses: usize,
    /// Profiles swept (the first n of the paper's 20).
    pub sweep_profiles: usize,
    /// Tenants and requests per tenant of `serve-events-overload`.
    pub events_tenants: u32,
    pub events_per_tenant: u64,
    /// Length of each tenant's request list on `serve-tcp-closed` (the
    /// client cycles through it, so memory does not grow with throughput).
    pub tcp_requests_per_tenant: usize,
    /// Requests per session in the traced (count-bounded) TCP run.
    pub tcp_traced_requests: usize,
    /// Times the inputs are built, a probe pass after each; `setup_s` is
    /// the median.
    pub setup_builds: usize,
    /// Untimed builds before those.
    pub setup_warmups: usize,
    /// Fewest timed repetitions, whatever `--seconds` says.
    pub min_reps: usize,
    /// Accesses of each serve workload's request stream the layer drills see.
    pub serve_drill_accesses: usize,
}

impl Sizes {
    pub const fn full() -> Self {
        Sizes {
            replay_accesses: 400_000,
            sweep_accesses: 60_000,
            sweep_profiles: 20,
            events_tenants: 8,
            events_per_tenant: 50_000,
            tcp_requests_per_tenant: 20_000,
            tcp_traced_requests: 400,
            setup_builds: 9,
            setup_warmups: 4,
            min_reps: 3,
            serve_drill_accesses: 100_000,
        }
    }

    pub const fn tiny() -> Self {
        Sizes {
            replay_accesses: 6_000,
            sweep_accesses: 1_500,
            sweep_profiles: 3,
            events_tenants: 8,
            events_per_tenant: 1_500,
            tcp_requests_per_tenant: 400,
            tcp_traced_requests: 24,
            setup_builds: 3,
            setup_warmups: 1,
            min_reps: 2,
            serve_drill_accesses: 4_000,
        }
    }
}

/// Requests the TCP client keeps in flight.
pub const TCP_WINDOW: usize = 16;
/// Tenant sessions the TCP workload runs one after another.
pub const TCP_SESSIONS: u32 = 4;
/// Offered rate per tenant (simulated requests per second) on the events
/// workload, against `queue_depth` 64: a fixed share is rejected.
pub const EVENTS_QPS: u64 = 2_000_000;
pub const QUEUE_DEPTH: usize = 64;
pub const SERVICE_BATCH: usize = 16;

/// The default `--seconds`, and the `run_seconds` of `BENCHMARK.json`:
/// forty to eighty repetitions a run on the replay and events workloads,
/// ten on the sweep, and 114 runs inside the driver's 3 420 s.
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better,
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}
