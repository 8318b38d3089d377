//! Quickstart: run ESD against the no-dedup baseline on one paper workload
//! and print the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use esd::core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::default();
    let app = AppProfile::by_name("lbm").expect("lbm is a paper workload");
    const ACCESSES: usize = 100_000;

    println!(
        "workload: {} ({}), {} accesses",
        app.name, app.suite, ACCESSES
    );
    println!("config:\n{}", config.to_table());

    // One trace, replayed through a fresh scheme of each kind with every
    // read verified (the default options).
    let trace = generate_trace(&app, 42, ACCESSES);
    let run = |kind| {
        run_trace(
            Scheme::new(kind, &config),
            &trace,
            &config,
            &RunOptions::default(),
        )
    };
    let baseline = run(SchemeKind::Baseline)?;
    let esd = run(SchemeKind::Esd)?;
    let n = esd.normalized_to(&baseline);

    println!(
        "NVMM writes     : {} -> {} ({:.1}% eliminated)",
        baseline.nvmm_data_writes(),
        esd.nvmm_data_writes(),
        esd.write_reduction() * 100.0,
    );
    println!(
        "avg write latency: {} -> {} ({:.2}x speedup)",
        baseline.avg_write_latency(),
        esd.avg_write_latency(),
        n.write_speedup,
    );
    println!(
        "avg read latency : {} -> {} ({:.2}x speedup)",
        baseline.avg_read_latency(),
        esd.avg_read_latency(),
        n.read_speedup,
    );
    println!(
        "IPC              : {:.2} -> {:.2} ({:.2}x)",
        baseline.ipc, esd.ipc, n.ipc_ratio
    );
    println!(
        "energy           : {} -> {} ({:.1}% saved)",
        baseline.total_energy(),
        esd.total_energy(),
        (1.0 - n.energy_ratio) * 100.0,
    );
    println!(
        "p99 write latency: {} -> {}",
        baseline.write_latency.percentile(0.99),
        esd.write_latency.percentile(0.99),
    );
    println!(
        "hash computations by ESD: {} (the point of ECC-assisted dedup)",
        esd.stats.fingerprint_computations
    );
    Ok(())
}
