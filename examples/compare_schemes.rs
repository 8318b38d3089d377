//! Compare all four schemes (Baseline, Dedup_SHA1, DeWrite, ESD) on one
//! workload — the paper's evaluation in miniature.
//!
//! ```sh
//! cargo run --release --example compare_schemes [app] [accesses]
//! # e.g.
//! cargo run --release --example compare_schemes gcc 200000
//! ```

use esd::core::{run_trace, RunOptions, RunReport, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let app_name = args.next().unwrap_or_else(|| "gcc".to_owned());
    let accesses: usize = args.next().map_or(Ok(100_000), |v| v.parse())?;

    let app = AppProfile::by_name(&app_name)
        .ok_or_else(|| format!("unknown workload {app_name:?}; see AppProfile::all()"))?;
    let config = SystemConfig::default();
    let trace = generate_trace(&app, 42, accesses);
    println!(
        "workload {} | {} accesses | {} writes | measured dup rate {:.1}%",
        app.name,
        trace.len(),
        trace.write_count(),
        esd::trace::duplicate_rate(&trace) * 100.0
    );
    println!();

    let mut reports: Vec<RunReport> = Vec::new();
    for kind in SchemeKind::ALL {
        let scheme = Scheme::new(kind, &config);
        reports.push(run_trace(scheme, &trace, &config, &RunOptions::default())?);
    }

    println!(
        "{:<11} {:>10} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "scheme", "nvmm_wr", "write_avg", "write_p99", "read_avg", "ipc", "energy", "meta_bytes"
    );
    for r in &reports {
        println!(
            "{:<11} {:>10} {:>12} {:>12} {:>12} {:>8.2} {:>12} {:>12}",
            r.scheme.name(),
            r.nvmm_data_writes(),
            r.avg_write_latency().to_string(),
            r.write_latency.percentile(0.99).to_string(),
            r.avg_read_latency().to_string(),
            r.ipc,
            r.total_energy().to_string(),
            r.metadata.total_bytes(),
        );
    }

    println!();
    let baseline = &reports[0];
    for r in &reports[1..] {
        let n = r.normalized_to(baseline);
        println!(
            "{:<11} write {:.2}x  read {:.2}x  ipc {:.2}x  energy {:.2}  traffic {:.2}",
            r.scheme.name(),
            n.write_speedup,
            n.read_speedup,
            n.ipc_ratio,
            n.energy_ratio,
            n.write_traffic_ratio,
        );
    }
    Ok(())
}
