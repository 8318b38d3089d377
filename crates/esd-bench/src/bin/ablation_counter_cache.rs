//! Ablation: the encryption-counter residency assumption.
//!
//! The paper (like most dedup-for-NVMM work) assumes counter-mode
//! encryption counters are always available in the controller. Real secure
//! memories cache counters and pay an NVMM read on a miss (split-counter
//! layout, as in SuperMem). This bench measures how ESD's results move when
//! that assumption is relaxed.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{build_scheme, run_trace, SchemeKind};
use esd_trace::{generate_trace, AppProfile};

fn main() {
    let apps: Vec<AppProfile> = ["gcc", "lbm"]
        .iter()
        .map(|n| AppProfile::by_name(n).expect("paper workload"))
        .collect();
    let mut sweep = Sweep::new(apps);
    sweep.accesses = sweep.accesses.min(300_000);
    print_figure_header(
        "Ablation: counter cache",
        "ESD under finite encryption-counter caches",
        &sweep,
    );

    println!(
        "{}",
        format_row(
            "app/ctr-cache",
            &["write_avg".into(), "read_avg".into(), "ctr_hit".into(), "meta_rd".into()]
        )
    );
    for app in &sweep.apps {
        let trace = generate_trace(app, sweep.seed, sweep.accesses);
        for (label, bytes) in [
            ("ideal", 0u64),
            ("64KB", 64 << 10),
            ("256KB", 256 << 10),
            ("1MB", 1 << 20),
        ] {
            let mut config = sweep.config;
            config.controller.counter_cache_bytes = bytes;
            let scheme = build_scheme(SchemeKind::Esd, &config);
            let report = run_trace(&scheme, &trace, &config, true).expect("verified");
            println!(
                "{}",
                format_row(
                    &format!("{}/{}", app.name, label),
                    &[
                        report.avg_write_latency().to_string(),
                        report.avg_read_latency().to_string(),
                        String::from("-"),
                        report.pcm.metadata.reads.to_string(),
                    ]
                )
            );
        }
        println!();
    }
    println!("the ideal row reproduces the paper's assumption; finite caches add");
    println!("counter-fill reads to the access path, shrinking (not erasing) ESD's win.");
}
