//! Extended scheme comparison: the paper's four systems plus Dedup_MD5 and
//! PDE (Parallelism of Deduplication and Encryption, §II-C).
//!
//! PDE hides hash latency behind encryption for every line but wastes
//! cryptographic energy on duplicates — the reason the paper rejects it.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{build_scheme, run_trace, SchemeKind};
use esd_trace::{generate_trace, AppProfile};

fn main() {
    let apps: Vec<AppProfile> = ["deepsjeng", "gcc", "lbm", "leela"]
        .iter()
        .map(|n| AppProfile::by_name(n).expect("paper workload"))
        .collect();
    let sweep = Sweep::new(apps);
    print_figure_header(
        "Extended comparison",
        "all eight schemes (incl. Dedup_MD5 and PDE)",
        &sweep,
    );

    for app in &sweep.apps {
        let trace = generate_trace(app, sweep.seed, sweep.accesses);
        println!("[{}]", app.name);
        println!(
            "{}",
            format_row(
                "scheme",
                &[
                    "write_avg".into(),
                    "read_avg".into(),
                    "ipc".into(),
                    "energy_uJ".into(),
                    "dedup".into(),
                ]
            )
        );
        for kind in SchemeKind::EXTENDED {
            let scheme = build_scheme(kind, &sweep.config);
            let verify = kind != SchemeKind::EsdNoVerify;
            let report = run_trace(&scheme, &trace, &sweep.config, verify)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            println!(
                "{}",
                format_row(
                    kind.name(),
                    &[
                        report.avg_write_latency().to_string(),
                        report.avg_read_latency().to_string(),
                        format!("{:.2}", report.ipc),
                        format!("{:.1}", report.total_energy().as_uj_f64()),
                        report.stats.writes_deduplicated.to_string(),
                    ]
                )
            );
        }
        println!();
    }
}
