//! Endurance exploration: sweep the workload duplicate rate and watch how
//! much write traffic (and therefore PCM wear) each scheme removes.
//!
//! PCM cells endure 10–100 million writes; every eliminated write is
//! lifetime. This example sweeps a synthetic workload's duplicate rate from
//! 10% to 99% and reports NVMM writes, write reduction and the hottest
//! line's wear for ESD vs full deduplication.
//!
//! ```sh
//! cargo run --release --example endurance_explorer
//! ```

use esd::core::{build_scheme, run_trace, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::default();
    const ACCESSES: usize = 60_000;

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "dup", "base_wr", "esd_wr", "esd_saved", "full_saved", "esd_max_wear"
    );
    for dup_pct in [10u32, 30, 50, 62, 80, 90, 99] {
        let mut profile = AppProfile::demo();
        profile.name = format!("sweep-{dup_pct}");
        profile.dup_rate = f64::from(dup_pct) / 100.0;
        profile.zero_fraction = (profile.dup_rate * 0.3).min(0.3);

        let trace = generate_trace(&profile, 7, ACCESSES);

        let mut results = Vec::new();
        for kind in [SchemeKind::Baseline, SchemeKind::Esd, SchemeKind::DedupSha1] {
            let scheme = build_scheme(kind, &config);
            results.push(run_trace(&scheme, &trace, &config, true)?);
        }
        let base = results[0].nvmm_data_writes();
        let esd = &results[1];
        let full = &results[2];
        println!(
            "{:>7}% {:>12} {:>12} {:>11.1}% {:>13.1}% {:>12}",
            dup_pct,
            base,
            esd.nvmm_data_writes(),
            (1.0 - esd.nvmm_data_writes() as f64 / base as f64) * 100.0,
            (1.0 - full.nvmm_data_writes() as f64 / base as f64) * 100.0,
            esd.max_wear,
        );
    }
    println!();
    println!("every eliminated write is PCM lifetime: at a 10^8-write endurance");
    println!("limit, halving write traffic roughly doubles device life.");
    Ok(())
}
