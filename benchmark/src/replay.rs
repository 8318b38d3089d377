//! `replay-esd-unique` and `replay-sha1-dup`: one scheme, one profile, one
//! trace built in set-up, `replay_with` called again and again.

use std::time::Instant;

use esd_core::{replay_with, RunOptions, RunReport, SchemeKind};
use esd_kernels::KernelBackend;
use esd_sim::SystemConfig;
use esd_trace::{generate_trace, AppProfile, Trace};

use crate::attribution::{emit_layers, Tally};
use crate::drill::{drill_layers, scheme_loop, LayerCosts};
use crate::hostprobe::HostProbe;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::spec::{Sizes, REPLAY_ESD};
use crate::stats::median;
use crate::{env, finish_end_to_end, paced_setups, per_rep, timed_reps};

fn scheme_and_profile(workload: &str) -> (SchemeKind, AppProfile) {
    let (kind, profile) = if workload == REPLAY_ESD {
        (SchemeKind::Esd, "leela")
    } else {
        (SchemeKind::DedupSha1, "lbm")
    };
    (
        kind,
        AppProfile::by_name(profile).expect("profile of the paper's suite"),
    )
}

/// One verified replay; `None` when the scheme returned wrong data.
fn replay(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Option<RunReport> {
    replay_with(kind, trace, config, options).ok()
}

/// The untraced run: end-to-end metrics only.
pub fn run(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let (kind, profile) = scheme_and_profile(workload);
    let config = SystemConfig::default();
    let options = env::replay_options();
    let accesses = sizes.replay_accesses;

    let mut probe = HostProbe::new(1, 1);
    let (setups, trace) = paced_setups(&mut probe, sizes, || {
        generate_trace(&profile, seed, accesses)
    });

    let mut out = Outcome::default();
    // Warm-up, and the report every timed repetition must reproduce.
    let reference = replay(kind, &trace, &config, &options);
    out.attempted += 1;
    out.failed += u64::from(reference.is_none());
    let times = timed_reps(seconds, sizes.min_reps, &mut probe, || {
        let t0 = Instant::now();
        let report = replay(kind, &trace, &config, &options);
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        out.failed += u64::from(report.is_none() || report != reference);
        dt
    });
    finish_end_to_end(&mut out, per_rep(accesses as f64, &times), &setups);
    out
}

/// The traced run: per-layer metrics, ablations and their output checks.
pub fn run_traced(workload: &'static str, seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Outcome {
    let (kind, profile) = scheme_and_profile(workload);
    let config = SystemConfig::default();
    let options = env::replay_options();
    let accesses = sizes.replay_accesses;
    let mut out = Outcome::default();

    rec.timed(workload, 0, |rec| {
        let (trace, gen_ns) = rec.timed("trace.generate", 0, |_| {
            generate_trace(&profile, seed, accesses)
        });
        out.set(
            "trace.generate_ns_per_access",
            gen_ns as f64 / accesses as f64,
        );

        // The same call with and without a span around it, alternating.
        let reference = replay(kind, &trace, &config, &options);
        out.attempted += 1;
        out.failed += u64::from(reference.is_none());
        let (mut plain, mut spanned) = (Vec::new(), Vec::new());
        for rep in 0..2 {
            let t0 = Instant::now();
            let report = replay(kind, &trace, &config, &options);
            plain.push(t0.elapsed().as_nanos() as f64);
            out.attempted += 1;
            out.failed += u64::from(report != reference);
            let (report, ns) = rec.timed("core.shard.replay_with", rep, |_| {
                replay(kind, &trace, &config, &options)
            });
            spanned.push(ns as f64);
            out.attempted += 1;
            out.failed += u64::from(report != reference);
        }
        let base_ns = median(&spanned);
        out.set("bench.trace_overhead_ratio", base_ns / median(&plain));

        // Ablations: each may change host time only, never the report.
        let ablations = [
            (
                "ablation.shards_nproc",
                RunOptions {
                    shards: env::nproc() as u32,
                    ..options
                },
            ),
            (
                "ablation.batch_1",
                RunOptions {
                    batch: 1,
                    ..options
                },
            ),
            (
                "ablation.kernels_scalar",
                RunOptions {
                    kernels: KernelBackend::Scalar,
                    ..options
                },
            ),
            (
                "ablation.observe",
                RunOptions {
                    observe: true,
                    ..options
                },
            ),
        ];
        let mut ablation_ns = [0.0; 4];
        let mut mismatched = 0u64;
        for (i, (name, ablated)) in ablations.iter().enumerate() {
            let (report, ns) =
                rec.timed(name, i as u64, |_| replay(kind, &trace, &config, ablated));
            ablation_ns[i] = ns as f64;
            // `observe` attaches its collector to the report; nothing else may differ.
            let report = report.map(|r| RunReport { obs: None, ..r });
            mismatched += u64::from(report != reference);
        }
        esd_kernels::set_backend(KernelBackend::Auto);
        out.attempted += ablations.len() as u64;
        out.failed += mismatched;
        out.set("bench.ablations_checked", ablations.len() as f64);
        out.set("bench.ablations_mismatched", mismatched as f64);
        out.set("core.shard.speedup_shards_nproc", base_ns / ablation_ns[0]);
        out.set("core.shard.speedup_batch64", ablation_ns[1] / base_ns);
        out.set("kernels.replay_speedup_simd", ablation_ns[2] / base_ns);
        out.set("obs.overhead_ratio", ablation_ns[3] / base_ns);

        let loop_ns = scheme_loop(rec, kind, &trace, &config, 0) as f64;
        out.set("core.scheme.ns_per_access", loop_ns / accesses as f64);
        out.set("core.scheme.share", loop_ns / base_ns);
        out.set("core.shard.engine_overhead_ratio", base_ns / loop_ns);

        let mut costs = LayerCosts::default();
        rec.timed("drill", 0, |rec| {
            drill_layers(rec, &trace, &config, 0, &mut costs)
        });
        let mut tally = Tally::default();
        if let Some(report) = &reference {
            tally.add_report(report);
        }
        let attributed = emit_layers(&mut out, &costs, &tally, base_ns, 0.0);
        out.set("core.shard.unattributed_share", 1.0 - attributed);
        tally.emit_invariants(&mut out);
    });
    out
}
