//! Extended scheme comparison: the paper's four systems plus Dedup_MD5 and
//! PDE (Parallelism of Deduplication and Encryption, §II-C).
//!
//! PDE hides hash latency behind encryption for every line but wastes
//! cryptographic energy on duplicates — the reason the paper rejects it.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd_trace::AppProfile;

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

    let rows = sweep.run_tasks(SchemeKind::EXTENDED.len(), |_, trace, s| {
        let kind = SchemeKind::EXTENDED[s];
        let scheme = Scheme::new(kind, &sweep.config);
        let options = RunOptions {
            verify: kind != SchemeKind::EsdNoVerify,
            ..RunOptions::default()
        };
        let report = run_trace(scheme, trace, &sweep.config, &options)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        format_row(
            kind.name(),
            &[
                report.avg_write_latency().to_string(),
                report.avg_read_latency().to_string(),
                format!("{:.2}", report.ipc),
                format!("{:.1}", report.total_energy().as_uj_f64()),
                report.stats.writes_deduplicated.to_string(),
            ],
        )
    });
    for (app, app_rows) in sweep
        .apps
        .iter()
        .zip(rows.chunks(SchemeKind::EXTENDED.len()))
    {
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
        for row in app_rows {
            println!("{row}");
        }
        println!();
    }
}
