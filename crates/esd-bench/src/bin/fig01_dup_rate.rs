//! Figure 1: duplicate rate of cache lines across the 20 applications.
//!
//! Paper shape: 33.1% (leela) to 99.9% (deepsjeng, roms), average 62.9%.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_trace::{duplicate_rate, zero_line_rate};

fn main() {
    let sweep = Sweep::default();
    print_figure_header("Figure 1", "Duplicate rate of cache lines", &sweep);
    println!(
        "{}",
        format_row("app", &["dup_rate".into(), "zero_lines".into()])
    );
    let rates = sweep.run_tasks(1, |_, trace, _| {
        (duplicate_rate(trace), zero_line_rate(trace))
    });
    let mut sum = 0.0;
    for (app, &(rate, zero)) in sweep.apps.iter().zip(&rates) {
        sum += rate;
        println!(
            "{}",
            format_row(
                &app.name,
                &[
                    format!("{:.1}%", rate * 100.0),
                    format!("{:.1}%", zero * 100.0)
                ]
            )
        );
    }
    println!(
        "{}",
        format_row(
            "average",
            &[
                format!("{:.1}%", sum / sweep.apps.len() as f64 * 100.0),
                String::new()
            ]
        )
    );
}
