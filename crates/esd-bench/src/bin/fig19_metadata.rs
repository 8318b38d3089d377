//! Figure 19: metadata space overhead normalized to Dedup_SHA1.
//!
//! Paper shape: ESD reduces metadata space by 81.2% vs Dedup_SHA1 and
//! 60.9% vs DeWrite — it stores no fingerprints in NVMM at all, only the
//! address-mapping table.

use esd_bench::{figures, print_figure_header, Sweep};
use esd_core::SchemeKind;

fn main() {
    let sweep = Sweep::default();
    print_figure_header(
        "Figure 19",
        "Metadata overhead normalized to Dedup_SHA1",
        &sweep,
    );
    let rows = sweep.run(&SchemeKind::ALL);
    figures::print_fig19(&rows);
}
