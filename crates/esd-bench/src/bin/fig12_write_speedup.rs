//! Figure 12: write speedup normalized to the Baseline.
//!
//! Paper shape: ESD speeds up writes for all applications (up to 3.4x vs
//! Baseline, 4.3x vs Dedup_SHA1, 2.6x vs DeWrite); Dedup_SHA1 only wins on
//! a few highly duplicate applications (deepsjeng, lbm, roms).

use esd_bench::{figures, print_figure_header, Sweep};
use esd_core::SchemeKind;

fn main() {
    let sweep = Sweep::default();
    print_figure_header(
        "Figure 12",
        "Write speedup normalized to the Baseline",
        &sweep,
    );
    let rows = sweep.run(&SchemeKind::ALL);
    figures::print_fig12(&rows);
}
