//! Figure 18: EFIT hit rate (with and without LRCU) and AMT hit rate as a
//! function of metadata-cache size (64 KB .. 2048 KB).
//!
//! Paper shape: hit rates climb steeply until ~512 KB and then flatten —
//! the justification for Table I's 512 KB metadata caches — and LRCU beats
//! plain LRU at every size.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, EfitPolicy, Scheme, SchemeKind};
use esd_trace::{generate_trace, AppProfile};

const SIZES_KB: [u64; 6] = [64, 128, 256, 512, 1024, 2048];

fn main() {
    // The sweep is expensive (6 sizes x 2 policies + 6 AMT sizes); use the
    // paper's 8 CDF applications as the workload sample.
    let apps: Vec<AppProfile> = esd_bench::figures::CDF_APPS
        .iter()
        .map(|n| AppProfile::by_name(n).expect("paper workload"))
        .collect();
    let mut sweep = Sweep::new(apps);
    sweep.accesses = sweep.accesses.min(500_000);
    print_figure_header(
        "Figure 18",
        "EFIT (a) and AMT (b) hit rates vs cache size",
        &sweep,
    );

    println!("(a) EFIT hit rate");
    println!(
        "{}",
        format_row("size", &["LRCU".into(), "LRU".into()])
    );
    for kb in SIZES_KB {
        let mut rates = [0.0f64; 2];
        for (i, policy) in [EfitPolicy::Lrcu, EfitPolicy::Lru].into_iter().enumerate() {
            let mut sum = 0.0;
            for app in &sweep.apps {
                let trace = generate_trace(app, sweep.seed, sweep.accesses);
                let mut config = sweep.config;
                config.controller.fingerprint_cache_bytes = kb << 10;
                let scheme = Scheme::with_policy(&config, policy);
                let report = run_trace(&scheme, &trace, &config, false).expect("unverified run");
                sum += report
                    .fingerprint_cache
                    .expect("ESD has an EFIT")
                    .hit_rate();
            }
            rates[i] = sum / sweep.apps.len() as f64;
        }
        println!(
            "{}",
            format_row(
                &format!("{kb}KB"),
                &rates.iter().map(|r| format!("{:.2}%", r * 100.0)).collect::<Vec<_>>()
            )
        );
    }

    println!();
    println!("(b) AMT hit rate");
    println!("{}", format_row("size", &["AMT".into()]));
    for kb in SIZES_KB {
        let mut sum = 0.0;
        for app in &sweep.apps {
            let trace = generate_trace(app, sweep.seed, sweep.accesses);
            let mut config = sweep.config;
            config.controller.mapping_cache_bytes = kb << 10;
            let scheme = Scheme::new(SchemeKind::Esd, &config);
            let report = run_trace(&scheme, &trace, &config, false).expect("unverified run");
            sum += report.amt_cache.expect("ESD has an AMT").hit_rate();
        }
        let rate = sum / sweep.apps.len() as f64;
        println!(
            "{}",
            format_row(&format!("{kb}KB"), &[format!("{:.2}%", rate * 100.0)])
        );
    }
}
