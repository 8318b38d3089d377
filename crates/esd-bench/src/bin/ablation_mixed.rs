//! Multi-programmed mixes: four co-running applications share the memory
//! controller; dedup structures now juggle several applications' content at
//! once — the closest this harness gets to the paper's 8-core full-system
//! runs.

use esd_bench::{format_row, print_figure_header, Sweep};
use esd_core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd_trace::{generate_trace, interleave_traces, AppProfile};

const MIXES: [[&str; 4]; 3] = [
    ["gcc", "lbm", "leela", "x264"],
    ["deepsjeng", "mcf", "bodytrack", "swaptions"],
    ["blackscholes", "dedup", "wrf", "namd"],
];

fn main() {
    let mut sweep = Sweep::new(vec![]);
    sweep.accesses = sweep.accesses.min(250_000);
    print_figure_header(
        "Mixed workloads",
        "four co-running applications per mix",
        &sweep,
    );

    for mix_apps in MIXES {
        // The component traces go as soon as they are interleaved: only
        // the mix is replayed.
        let mixed = {
            let traces: Vec<_> = mix_apps
                .iter()
                .map(|name| {
                    let app = AppProfile::by_name(name).expect("paper workload");
                    generate_trace(&app, sweep.seed, sweep.accesses)
                })
                .collect();
            interleave_traces(&traces, 1 << 36)
        };
        println!("[{}] ({} accesses)", mixed.name, mixed.len());
        println!(
            "{}",
            format_row(
                "scheme",
                &[
                    "write_avg".into(),
                    "read_avg".into(),
                    "ipc".into(),
                    "dedup%".into()
                ]
            )
        );
        for kind in SchemeKind::ALL {
            let scheme = Scheme::new(kind, &sweep.config);
            let report =
                run_trace(scheme, &mixed, &sweep.config, &RunOptions::default()).expect("verified");
            println!(
                "{}",
                format_row(
                    kind.name(),
                    &[
                        report.avg_write_latency().to_string(),
                        report.avg_read_latency().to_string(),
                        format!("{:.2}", report.ipc),
                        format!("{:.1}%", report.write_reduction() * 100.0),
                    ]
                )
            );
        }
        println!();
    }
}
