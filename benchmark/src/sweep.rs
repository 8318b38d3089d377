//! `sweep-paper`: `Sweep::run_timed` over every profile and the paper's four
//! schemes, trace generation inside the timed section — what `fig_all`
//! makes a user wait for.

use esd_bench::{AppRow, Sweep};
use esd_core::SchemeKind;
use esd_sim::SystemConfig;
use esd_trace::{generate_trace, AppProfile};

use crate::attribution::{emit_layers, Tally};
use crate::drill::{drill_layers, scheme_loop, LayerCosts};
use crate::hostprobe::HostProbe;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::spec::{Sizes, SWEEP};
use crate::{env, finish_end_to_end, paced_setups, per_rep, timed_reps};

/// The sweep, field by field (`Sweep::new` would read the environment).
/// Its per-replay options come from `RunOptions::default()` inside
/// `esd-bench`, which — with every `ESD_*` variable removed — is shards 1,
/// batch 64, quantum 4096, kernels auto: the values `env::replay_options`
/// pins for the replay workloads.
fn sweep(seed: u64, accesses: usize, profiles: usize) -> Sweep {
    Sweep {
        apps: AppProfile::all().into_iter().take(profiles).collect(),
        accesses,
        seed,
        config: SystemConfig::default(),
        threads: Some(pool_threads()),
        scrub_interval: None,
        epoch_interval: None,
    }
}

/// Worker threads of the pool; the probe of [`run`] uses as many.
fn pool_threads() -> usize {
    env::nproc().min(2)
}

/// Tasks of `rows` whose report differs from the reference sweep's.
fn mismatches(rows: &[AppRow], reference: &[AppRow]) -> u64 {
    let mut wrong = rows.len().abs_diff(reference.len()) as u64 * SchemeKind::ALL.len() as u64;
    for (row, expected) in rows.iter().zip(reference) {
        wrong += row.reports.len().abs_diff(expected.reports.len()) as u64;
        wrong += row
            .reports
            .iter()
            .zip(&expected.reports)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    wrong
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    // One sweep takes over a second on every worker thread of the pool:
    // between sweeps the probe makes three passes on as many threads, where
    // the replays take one pass on one thread between calls.
    let mut probe = HostProbe::new(3, pool_threads());
    // Set-up: build the sweep and run a miniature of it, which faults in
    // every scheme's code and warms the allocator before anything is timed.
    let (setups, _) = paced_setups(&mut probe, sizes, || {
        sweep(seed, sizes.sweep_accesses / 30, sizes.sweep_profiles).run(&SchemeKind::ALL)
    });
    let sweep = sweep(seed, sizes.sweep_accesses, sizes.sweep_profiles);

    let mut out = Outcome::default();
    // `run_timed` panics on a verification failure, so reaching the
    // comparison means every task verified.
    let reference = sweep.run_timed(&SchemeKind::ALL);
    let tasks = reference.tasks.len() as u64;
    out.attempted += tasks;
    let ops = reference.total_accesses(sizes.sweep_accesses) as f64;
    let times = timed_reps(seconds, sizes.min_reps, &mut probe, || {
        let outcome = sweep.run_timed(&SchemeKind::ALL);
        out.attempted += tasks;
        out.failed += mismatches(&outcome.rows, &reference.rows);
        outcome.wall.as_secs_f64()
    });
    finish_end_to_end(&mut out, per_rep(ops, &times), &setups);
    out
}

/// The traced run.
pub fn run_traced(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Outcome {
    let sweep = sweep(seed, sizes.sweep_accesses, sizes.sweep_profiles);
    let accesses = sizes.sweep_accesses;
    let mut out = Outcome::default();

    rec.timed(SWEEP, 0, |rec| {
        let plain = sweep.run_timed(&SchemeKind::ALL);
        let tasks = plain.tasks.len() as u64;
        let (traced, _) = rec.timed("bench.sweep.run_timed", 0, |_| {
            sweep.run_timed(&SchemeKind::ALL)
        });
        out.attempted += 2 * tasks;
        out.failed += mismatches(&traced.rows, &plain.rows);
        let wall_ns = traced.wall.as_nanos() as f64;
        out.set(
            "bench.trace_overhead_ratio",
            wall_ns / plain.wall.as_nanos() as f64,
        );
        for (kind, name) in [
            (SchemeKind::Baseline, "bench.sweep.scheme_s.baseline"),
            (SchemeKind::DedupSha1, "bench.sweep.scheme_s.sha1"),
            (SchemeKind::DeWrite, "bench.sweep.scheme_s.dewrite"),
            (SchemeKind::Esd, "bench.sweep.scheme_s.esd"),
        ] {
            let seconds: f64 = traced
                .tasks
                .iter()
                .filter(|t| t.scheme == kind)
                .map(|t| t.seconds)
                .sum();
            out.set(name, seconds);
        }

        // The pool against the same tasks on one thread; rows must agree.
        let (serial, serial_ns) = rec.timed("bench.sweep.run_serial", 0, |_| {
            sweep.run_serial(&SchemeKind::ALL)
        });
        out.attempted += tasks;
        let mismatched = mismatches(&serial, &plain.rows);
        out.failed += mismatched;
        out.set("bench.ablations_checked", tasks as f64);
        out.set("bench.ablations_mismatched", mismatched as f64);
        out.set("bench.sweep.parallel_speedup", serial_ns as f64 / wall_ns);

        // Drill every profile's trace; the scheme loop runs all four schemes.
        let mut costs = LayerCosts::default();
        let (mut gen_ns, mut loop_ns) = (0u64, 0u64);
        rec.timed("drill", 0, |rec| {
            for (i, app) in sweep.apps.iter().enumerate() {
                let id = i as u64;
                let (trace, ns) = rec.timed("trace.generate", id, |_| {
                    generate_trace(app, seed, accesses)
                });
                gen_ns += ns;
                drill_layers(rec, &trace, &sweep.config, id, &mut costs);
                for kind in SchemeKind::ALL {
                    loop_ns += scheme_loop(rec, kind, &trace, &sweep.config, id);
                }
            }
        });
        let generated = (sweep.apps.len() * accesses) as f64;
        out.set("trace.generate_ns_per_access", gen_ns as f64 / generated);
        let replayed = traced.total_accesses(accesses) as f64;
        out.set("core.scheme.ns_per_access", loop_ns as f64 / replayed);

        // Shares are of the CPU time the pool had: wall time x workers.
        let base_ns = wall_ns * traced.threads as f64;
        let replay_ns: f64 = traced.tasks.iter().map(|t| t.seconds * 1e9).sum();
        out.set("core.scheme.share", loop_ns as f64 / base_ns);
        out.set(
            "core.shard.engine_overhead_ratio",
            replay_ns / loop_ns as f64,
        );
        let mut tally = Tally::default();
        for report in traced.rows.iter().flat_map(|row| &row.reports) {
            tally.add_report(report);
        }
        let attributed = emit_layers(&mut out, &costs, &tally, base_ns, gen_ns as f64);
        out.set("core.shard.unattributed_share", 1.0 - attributed);
        tally.emit_invariants(&mut out);
    });
    out
}
