//! Figure 13: read speedup normalized to the Baseline.
//!
//! Paper shape: ESD speeds up reads for all applications (up to 5.3x vs
//! Baseline) by removing write traffic that interferes with reads;
//! Dedup_SHA1 degrades reads for most applications.

use esd_bench::{figures, print_figure_header, Sweep};
use esd_core::SchemeKind;

fn main() {
    let sweep = Sweep::default();
    print_figure_header(
        "Figure 13",
        "Read speedup normalized to the Baseline",
        &sweep,
    );
    let rows = sweep.run(&SchemeKind::ALL);
    figures::print_fig13(&rows);
}
