//! Ablation: the two design choices that make ESD *ESD*.
//!
//! * **Selectivity** — `ESD_Full` keeps ECC fingerprints for *every* line
//!   (full store in NVMM). It catches more duplicates but re-introduces the
//!   fingerprint NVMM lookups the paper's Figure 5 indicts.
//! * **The verify read** — `ESD_NoVerify` trusts ECC equality outright.
//!   It shaves the compare read off the dedup path but silently aliases
//!   colliding lines (run with care; verification is disabled here).

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd_trace::AppProfile;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::Esd,
    SchemeKind::EsdFull,
    SchemeKind::EsdNoVerify,
];

fn main() {
    let apps: Vec<AppProfile> = ["gcc", "leela", "lbm", "x264"]
        .iter()
        .map(|n| AppProfile::by_name(n).expect("paper workload"))
        .collect();
    let sweep = Sweep::new(apps);
    print_figure_header(
        "Ablation: selectivity and verify read",
        "ESD vs full-store ESD vs no-verify ESD",
        &sweep,
    );

    println!(
        "{}",
        format_row(
            "app/scheme",
            &[
                "write_spd".into(),
                "dedup".into(),
                "fp_nvmm_rd".into(),
                "meta_nvmm_B".into(),
            ]
        )
    );
    let reports = sweep.run_tasks(SCHEMES.len(), |_, trace, s| {
        let kind = SCHEMES[s];
        let scheme = Scheme::new(kind, &sweep.config);
        // ESD_NoVerify can alias collided lines; skip verification so
        // the ablation still reports its (unsafe) performance.
        let options = RunOptions {
            verify: kind != SchemeKind::EsdNoVerify,
            ..RunOptions::default()
        };
        run_trace(scheme, trace, &sweep.config, &options).unwrap_or_else(|e| panic!("{kind}: {e}"))
    });
    for (app, reports) in sweep.apps.iter().zip(reports.chunks(SCHEMES.len())) {
        // SCHEMES[0] is Baseline: every speedup is against it.
        let baseline_write = reports[0].avg_write_latency().as_ns_f64();
        for (i, (kind, report)) in SCHEMES.iter().zip(reports).enumerate() {
            let speedup = if i == 0 {
                1.0
            } else {
                baseline_write / report.avg_write_latency().as_ns_f64()
            };
            println!(
                "{}",
                format_row(
                    &format!("{}/{}", app.name, kind.name()),
                    &[
                        format!("{speedup:.2}x"),
                        report.stats.writes_deduplicated.to_string(),
                        report.pcm.metadata.reads.to_string(),
                        report.metadata.nvmm_bytes.to_string(),
                    ]
                )
            );
        }
        println!();
    }
    println!("reading: selectivity trades some dedup count for zero fingerprint");
    println!("NVMM reads; the verify read costs little and buys correctness.");
}
