//! Sensitivity ablations on the simulator's structural parameters:
//! write-buffer depth, PCM bank count, and EFIT decay interval.
//!
//! These quantify how robust the paper's conclusions are to substrate
//! choices Table I does not pin down.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd_trace::{generate_trace, AppProfile};

fn main() {
    let unverified = RunOptions {
        verify: false,
        ..RunOptions::default()
    };
    let mut sweep = Sweep::new(vec![AppProfile::by_name("lbm").expect("paper workload")]);
    sweep.accesses = sweep.accesses.min(300_000);
    print_figure_header(
        "Sensitivity",
        "write-buffer depth and bank count (lbm, Baseline vs ESD)",
        &sweep,
    );
    let app = sweep.apps[0].clone();
    let trace = generate_trace(&app, sweep.seed, sweep.accesses);

    println!("(a) write-buffer depth");
    println!(
        "{}",
        format_row(
            "depth",
            &[
                "base_w_avg".into(),
                "esd_w_avg".into(),
                "base_ipc".into(),
                "esd_ipc".into()
            ]
        )
    );
    for depth in [4u32, 8, 16, 32, 64, 128] {
        let mut config = sweep.config;
        config.controller.write_buffer_depth = depth;
        let mut cells = Vec::new();
        let mut ipcs = Vec::new();
        for kind in [SchemeKind::Baseline, SchemeKind::Esd] {
            let scheme = Scheme::new(kind, &config);
            let report = run_trace(scheme, &trace, &config, &unverified).expect("run");
            cells.push(report.avg_write_latency().to_string());
            ipcs.push(format!("{:.2}", report.ipc));
        }
        cells.extend(ipcs);
        println!("{}", format_row(&depth.to_string(), &cells));
    }

    println!();
    println!("(b) PCM bank count");
    println!(
        "{}",
        format_row(
            "banks",
            &[
                "base_w_avg".into(),
                "esd_w_avg".into(),
                "esd_speedup".into()
            ]
        )
    );
    for banks in [4u32, 8, 16, 32] {
        let mut config = sweep.config;
        config.pcm.banks = banks;
        let mut latencies = Vec::new();
        for kind in [SchemeKind::Baseline, SchemeKind::Esd] {
            let scheme = Scheme::new(kind, &config);
            let report = run_trace(scheme, &trace, &config, &unverified).expect("run");
            latencies.push(report.avg_write_latency().as_ns_f64());
        }
        println!(
            "{}",
            format_row(
                &banks.to_string(),
                &[
                    format!("{:.0}ns", latencies[0]),
                    format!("{:.0}ns", latencies[1]),
                    format!("{:.2}x", latencies[0] / latencies[1]),
                ]
            )
        );
    }

    println!();
    println!("(c) EFIT decay interval (LRCU refresh, gcc)");
    let gcc = AppProfile::by_name("gcc").expect("paper workload");
    let gcc_trace = generate_trace(&gcc, sweep.seed, sweep.accesses);
    println!(
        "{}",
        format_row("interval", &["dedup".into(), "efit_hit".into()])
    );
    for interval in [1024u64, 4096, 8192, 32768, u64::MAX] {
        let config = sweep.config;
        let mut scheme = Scheme::new(SchemeKind::Esd, &config);
        scheme.efit_decay_interval(interval);
        let report = run_trace(scheme, &gcc_trace, &config, &unverified).expect("run");
        let label = if interval == u64::MAX {
            "never".to_owned()
        } else {
            interval.to_string()
        };
        println!(
            "{}",
            format_row(
                &label,
                &[
                    report.stats.writes_deduplicated.to_string(),
                    format!(
                        "{:.1}%",
                        report.fingerprint_cache.map_or(0.0, |c| c.hit_rate()) * 100.0
                    ),
                ]
            )
        );
    }
}
