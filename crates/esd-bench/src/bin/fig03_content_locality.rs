//! Figure 3: (a) the cache-line distribution before deduplication and
//! (b) the occupied-space distribution after deduplication, bucketed by
//! reference count (num1, num10, num100, num1000, num1000+).
//!
//! Paper shape: strong content locality — lines referenced >1000 times are
//! ~0.08% of unique lines but ~42.7% of pre-dedup storage volume.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_trace::refcount_buckets;

fn main() {
    let sweep = Sweep::default();
    print_figure_header(
        "Figure 3",
        "Content locality (reference-count buckets)",
        &sweep,
    );

    let header = vec![
        "num1".to_owned(),
        "num10".to_owned(),
        "num100".to_owned(),
        "num1000".to_owned(),
        "num1000+".to_owned(),
    ];

    println!("(a) unique-line distribution before deduplication");
    println!("{}", format_row("app", &header));
    let mut content_sum = [0.0f64; 5];
    let mut volume_rows = Vec::new();
    let all_buckets = sweep.run_tasks(1, |_, trace, _| refcount_buckets(trace));
    for (app, buckets) in sweep.apps.iter().zip(&all_buckets) {
        let cf = buckets.content_fractions();
        for (s, v) in content_sum.iter_mut().zip(cf.iter()) {
            *s += v;
        }
        println!(
            "{}",
            format_row(
                &app.name,
                &cf.iter()
                    .map(|v| format!("{:.2}%", v * 100.0))
                    .collect::<Vec<_>>()
            )
        );
        volume_rows.push((app.name.clone(), buckets.volume_fractions()));
    }
    let n = sweep.apps.len() as f64;
    println!(
        "{}",
        format_row(
            "average",
            &content_sum
                .iter()
                .map(|s| format!("{:.2}%", s / n * 100.0))
                .collect::<Vec<_>>()
        )
    );

    println!();
    println!("(b) pre-dedup storage volume by reference-count bucket");
    println!("{}", format_row("app", &header));
    let mut volume_sum = [0.0f64; 5];
    for (name, vf) in &volume_rows {
        for (s, v) in volume_sum.iter_mut().zip(vf.iter()) {
            *s += v;
        }
        println!(
            "{}",
            format_row(
                name,
                &vf.iter()
                    .map(|v| format!("{:.1}%", v * 100.0))
                    .collect::<Vec<_>>()
            )
        );
    }
    println!(
        "{}",
        format_row(
            "average",
            &volume_sum
                .iter()
                .map(|s| format!("{:.1}%", s / n * 100.0))
                .collect::<Vec<_>>()
        )
    );
}
