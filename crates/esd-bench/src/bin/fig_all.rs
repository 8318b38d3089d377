//! Runs the main 20-workload x 4-scheme sweep once and prints every figure
//! that shares it: Figures 5, 11, 12, 13, 14, 15, 16, 17 and 19, plus the
//! endurance summary.
//!
//! This is the cheapest way to regenerate the bulk of the paper's
//! evaluation on a single core; the remaining figures have their own
//! binaries (`fig01`, `fig02`, `fig03`, `fig08`, `fig18`, `config`).

use esd_bench::figures;
use esd_bench::{print_figure_header, Sweep};
use esd_core::SchemeKind;

fn main() {
    let sweep = Sweep::default();
    print_figure_header(
        "Figures 5, 11-17, 19",
        "full evaluation sweep (single simulation pass)",
        &sweep,
    );
    let rows = sweep.run(&SchemeKind::ALL);
    figures::print_fig05(&rows);
    figures::print_fig11(&rows);
    figures::print_fig12(&rows);
    figures::print_fig13(&rows);
    figures::print_fig14(&rows);
    figures::print_fig15(&rows);
    figures::print_fig16(&rows);
    figures::print_fig17(&rows);
    figures::print_fig19(&rows);
    figures::print_wear(&rows);
}
