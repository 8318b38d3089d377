//! Ablation: the two design choices that make ESD *ESD*.
//!
//! * **Selectivity** — `ESD_Full` keeps ECC fingerprints for *every* line
//!   (full store in NVMM). It catches more duplicates but re-introduces the
//!   fingerprint NVMM lookups the paper's Figure 5 indicts.
//! * **The verify read** — `ESD_NoVerify` trusts ECC equality outright.
//!   It shaves the compare read off the dedup path but silently aliases
//!   colliding lines (run with care; verification is disabled here).

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{build_scheme, run_trace, SchemeKind};
use esd_trace::{generate_trace, AppProfile};

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
    for app in &sweep.apps {
        let trace = generate_trace(app, sweep.seed, sweep.accesses);
        let mut baseline_write = None;
        for kind in SCHEMES {
            let scheme = build_scheme(kind, &sweep.config);
            // ESD_NoVerify can alias collided lines; skip verification so
            // the ablation still reports its (unsafe) performance.
            let verify = kind != SchemeKind::EsdNoVerify;
            let report = run_trace(&scheme, &trace, &sweep.config, verify)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let write_ns = report.avg_write_latency().as_ns_f64();
            let speedup = match baseline_write {
                None => {
                    baseline_write = Some(write_ns);
                    1.0
                }
                Some(base) => base / write_ns,
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
