//! Figure 18: EFIT hit rate (with and without LRCU) and AMT hit rate as a
//! function of metadata-cache size (64 KB .. 2048 KB).
//!
//! Paper shape: hit rates climb steeply until ~512 KB and then flatten —
//! the justification for Table I's 512 KB metadata caches — and LRCU beats
//! plain LRU at every size.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, EfitPolicy, RunOptions, Scheme, SchemeKind};
use esd_trace::AppProfile;

const SIZES_KB: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
const POLICIES: [EfitPolicy; 2] = [EfitPolicy::Lrcu, EfitPolicy::Lru];
/// Per app, task `k * 2 + p` is the EFIT at `SIZES_KB[k]` under
/// `POLICIES[p]`; task `EFIT_TASKS + k` is the AMT at `SIZES_KB[k]`.
const EFIT_TASKS: usize = SIZES_KB.len() * POLICIES.len();
const TASKS: usize = EFIT_TASKS + SIZES_KB.len();

fn main() {
    let unverified = RunOptions {
        verify: false,
        ..RunOptions::default()
    };
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

    let hit_rates = sweep.run_tasks(TASKS, |_, trace, i| {
        let mut config = sweep.config;
        if i < EFIT_TASKS {
            config.controller.fingerprint_cache_bytes = SIZES_KB[i / POLICIES.len()] << 10;
            let scheme = Scheme::with_policy(&config, POLICIES[i % POLICIES.len()]);
            let report = run_trace(scheme, trace, &config, &unverified).expect("unverified run");
            report
                .fingerprint_cache
                .expect("ESD has an EFIT")
                .hit_rate()
        } else {
            config.controller.mapping_cache_bytes = SIZES_KB[i - EFIT_TASKS] << 10;
            let scheme = Scheme::new(SchemeKind::Esd, &config);
            let report = run_trace(scheme, trace, &config, &unverified).expect("unverified run");
            report.amt_cache.expect("ESD has an AMT").hit_rate()
        }
    });
    // Task `i`'s hit rate averaged over the apps, summed in app order.
    let mean = |i: usize| {
        let sum = hit_rates
            .iter()
            .skip(i)
            .step_by(TASKS)
            .fold(0.0, |s, r| s + r);
        sum / sweep.apps.len() as f64
    };
    let percent = |rate: f64| format!("{:.2}%", rate * 100.0);

    println!("(a) EFIT hit rate");
    println!("{}", format_row("size", &["LRCU".into(), "LRU".into()]));
    for (k, kb) in SIZES_KB.iter().enumerate() {
        let rates: Vec<String> = (0..POLICIES.len())
            .map(|p| percent(mean(k * POLICIES.len() + p)))
            .collect();
        println!("{}", format_row(&format!("{kb}KB"), &rates));
    }

    println!();
    println!("(b) AMT hit rate");
    println!("{}", format_row("size", &["AMT".into()]));
    for (k, kb) in SIZES_KB.iter().enumerate() {
        let rate = percent(mean(EFIT_TASKS + k));
        println!("{}", format_row(&format!("{kb}KB"), &[rate]));
    }
}
