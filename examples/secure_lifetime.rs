//! Device-lifetime composition: deduplication removes writes, Start-Gap
//! wear leveling spreads the survivors — together they multiply PCM life.
//!
//! ```sh
//! cargo run --release --example secure_lifetime
//! ```

use esd::core::{run_trace, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

/// PCM cell endurance assumed for the lifetime projection.
const CELL_ENDURANCE: f64 = 1e8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::default();
    let app = AppProfile::by_name("mcf").expect("paper workload");
    const ACCESSES: usize = 120_000;
    let trace = generate_trace(&app, 42, ACCESSES);

    let baseline = Scheme::new(SchemeKind::Baseline, &config);
    let esd = Scheme::new(SchemeKind::Esd, &config);
    let esd_leveled = Scheme::with_wear_leveling(
        &config,
        2 * app.working_set_lines as u64, // leveled region covers the store
        64,
    );

    let reports = [
        ("Baseline", run_trace(&baseline, &trace, &config, true)?),
        ("ESD", run_trace(&esd, &trace, &config, true)?),
        (
            "ESD + Start-Gap",
            run_trace(&esd_leveled, &trace, &config, true)?,
        ),
    ];

    println!("workload {} | {} accesses\n", app.name, ACCESSES);
    println!(
        "{:<16} {:>12} {:>10} {:>18}",
        "config", "nvmm_writes", "max_wear", "projected lifetime"
    );
    let base_wear = reports[0].1.max_wear as f64;
    for (name, report) in &reports {
        // Lifetime scales inversely with the hottest cell's write rate.
        let relative_life = base_wear / report.max_wear as f64;
        println!(
            "{:<16} {:>12} {:>10} {:>17.1}x",
            name,
            report.nvmm_data_writes(),
            report.max_wear,
            relative_life
        );
    }
    println!();
    println!(
        "(at {CELL_ENDURANCE:.0e} writes/cell, the hottest line bounds device life;\n\
         dedup cuts total writes, leveling equalizes them — the factors compose)"
    );
    println!();
    println!("{}", reports[2].1.summary());
    Ok(())
}
