//! Integration: deduplication stacked on Start-Gap wear leveling must stay
//! correct (contents survive rotation) and actually flatten wear.

use esd::core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

#[test]
fn esd_with_wear_leveling_preserves_all_data() {
    let config = SystemConfig::default();
    let mut app = AppProfile::demo();
    app.working_set_lines = 2048;
    let trace = generate_trace(&app, 17, 20_000);
    let scheme = Scheme::with_wear_leveling(&config, 64 << 10, 16);
    let report = run_trace(scheme, &trace, &config, &RunOptions::default())
        .expect("verified run under wear leveling");
    assert!(report.stats.writes_deduplicated > 0, "dedup still active");
    assert!(report.wear_moves > 100, "the gap must actually rotate");
}

#[test]
fn leveling_reduces_peak_wear_for_in_place_writes() {
    // ESD's out-of-place allocation already spreads wear; the scheme whose
    // hot addresses wear out a fixed physical line is the in-place
    // Baseline — that is where Start-Gap must help.
    let config = SystemConfig::default();
    let mut app = AppProfile::demo();
    app.working_set_lines = 64;
    app.dup_rate = 0.0;
    app.zero_fraction = 0.0;
    app.read_fraction = 0.1;
    let trace = generate_trace(&app, 3, 30_000);

    let plain = Scheme::new(SchemeKind::Baseline, &config);
    let plain_report = run_trace(plain, &trace, &config, &RunOptions::default()).unwrap();

    let mut leveled = Scheme::new(SchemeKind::Baseline, &config);
    leveled.nvmm_mut().enable_wear_leveling(64, 8);
    let leveled_report = run_trace(leveled, &trace, &config, &RunOptions::default()).unwrap();

    assert!(
        leveled_report.max_wear * 2 < plain_report.max_wear,
        "leveling must substantially lower peak wear ({} vs {})",
        leveled_report.max_wear,
        plain_report.max_wear
    );

    // ESD's out-of-place writes, for contrast, already have minimal wear.
    let esd_scheme = Scheme::new(SchemeKind::Esd, &config);
    let esd_report = run_trace(esd_scheme, &trace, &config, &RunOptions::default()).unwrap();
    assert!(esd_report.max_wear <= leveled_report.max_wear);
}
