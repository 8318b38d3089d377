//! Command line of the repo benchmark.
//!
//! ```text
//! esd-benchmark run    [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! esd-benchmark repeat [--sets K] [--runs R] [--seed S] [--seconds N]
//! esd-benchmark spec
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! the last line of standard output, the JSON object `BENCHMARK.json`'s
//! contract asks for. `run` without `--workload` runs every workload, each
//! untraced and then traced, each in a child process of its own.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use esd_benchmark::report::{parse_result_line, print_table, ParsedRun};
use esd_benchmark::spec::{self, MetricSpec, Sizes};
use esd_benchmark::stats::{median, quartiles};
use esd_benchmark::{env, run_traced, run_untraced};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        sets: 2,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                // NaN and infinity parse as numbers; neither is a run length.
                if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => parsed.sets = value.parse().map_err(|_| bad("an integer"))?,
            "--runs" => parsed.runs = value.parse().map_err(|_| bad("an integer"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !spec::WORKLOADS.iter().any(|known| known.name == w) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; known: {}", names.join(", ")));
        }
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in a child process and parses its result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ParsedRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    eprintln!("# {workload} seed {seed} trace {}", u8::from(traced));
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    parse_result_line(last).ok_or_else(|| {
        format!(
            "{workload}: no result line (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })
}

fn print_run(workload: &str, run: &ParsedRun) {
    let metrics = run.metrics.iter().map(|(n, v)| (n.as_str(), *v));
    print_table(workload, metrics, run.attempted, run.failed);
}

fn metrics_json(run: &ParsedRun) -> String {
    let fields: Vec<String> = run
        .metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, {}}}",
        run.attempted,
        run.failed,
        fields.join(", ")
    )
}

/// Every workload, untraced then traced, each in its own process; writes
/// the numbers and the environment fingerprint to `out/results-seed<S>.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    let mut blocks = Vec::new();
    for w in &spec::WORKLOADS {
        let end_to_end = child(w.name, args.seed, args.seconds, false)?;
        print_run(w.name, &end_to_end);
        let layers = child(w.name, args.seed, args.seconds, true)?;
        print_run(w.name, &layers);
        correct &= end_to_end.failed == 0 && layers.failed == 0;
        blocks.push(format!(
            "    \"{}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            w.name,
            metrics_json(&end_to_end),
            metrics_json(&layers)
        ));
    }
    let path = out_dir().join(format!("results-seed{}.json", args.seed));
    // `BENCHMARK.json` may hold name, unit and direction only, so what each
    // per-layer metric is predicted to move is recorded beside the numbers.
    let moves: Vec<String> = spec::PER_LAYER
        .iter()
        .map(|m| format!("    \"{}\": \"{}\"", m.name, m.moves))
        .collect();
    let body = format!(
        "{{\n  \"claim\": null,\n  \"seed\": {},\n  \"run_seconds\": {},\n  \"environment\": {{{}}},\n  \
         \"workloads\": {{\n{}\n  }},\n  \"per_layer_should_move\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds,
        env::fingerprint_json(),
        blocks.join(",\n"),
        moves.join(",\n")
    );
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("creating {}: {e}", out_dir().display()))?;
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("# wrote {}", path.display());
    Ok(correct)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &MetricSpec, first: f64, second: f64) -> f64 {
    if m.better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// The acceptance check, run the way the driver runs it: `sets` sets of
/// `runs` untraced runs per workload, each run with another seed; per
/// metric the spread (quartile distance over median) must stay within the
/// bound, and no later set's median may be worse than the first's by more
/// than the bound. One traced run per set and workload checks that every
/// exact count repeats.
fn repeat(args: &Args) -> Result<bool, String> {
    if args.sets < 2 || args.runs < 2 {
        return Err("repeat needs --sets >= 2 and --runs >= 2".to_owned());
    }
    let mut steady = true;
    for w in &spec::WORKLOADS {
        let mut medians: Vec<Vec<f64>> = Vec::new();
        let mut exact: Vec<ParsedRun> = Vec::new();
        let mut failed: Vec<u64> = Vec::new();
        for set in 0..args.sets {
            let runs: Vec<ParsedRun> = (0..args.runs as u64)
                .map(|i| child(w.name, args.seed + i, args.seconds, false))
                .collect::<Result<_, _>>()?;
            failed.push(runs.iter().map(|r| r.failed).sum());
            let mut set_medians = Vec::new();
            for m in &spec::END_TO_END {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| {
                        r.get(m.name)
                            .ok_or_else(|| format!("{}: no {}", w.name, m.name))
                    })
                    .collect::<Result<_, _>>()?;
                let [q1, q2, q3] = quartiles(&values);
                let spread = (q3 - q1) / q2;
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                // The set-up time's spread is reported but not held to its bound.
                let verdict = if spread <= bound / 3.0 {
                    "steady"
                } else if spread <= bound || m.name == "setup_s" {
                    "above a third of the bound"
                } else {
                    steady = false;
                    "UNSTEADY"
                };
                println!(
                    "{:<22} set {set} {:<16} median {:>14.4} q1 {:>14.4} q3 {:>14.4} {:<4} spread {:.4} of bound {bound} {verdict}",
                    w.name, m.name, median(&values), q1, q3, m.unit, spread
                );
                // Every run made is reported, not only its summary.
                let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!(
                    "{:<22} set {set} {:<16} runs {}",
                    w.name,
                    m.name,
                    listed.join(" ")
                );
                set_medians.push(median(&values));
            }
            medians.push(set_medians);
            exact.push(child(w.name, args.seed, args.seconds, true)?);
        }
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            for set in 1..args.sets {
                let worse = worsening(m, medians[0][i], medians[set][i]);
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                let verdict = if worse > bound {
                    steady = false;
                    "DISAGREE"
                } else {
                    "agree"
                };
                println!(
                    "{:<22} set {set} vs 0 {:<16} worse by {worse:+.4} of bound {bound} {verdict}",
                    w.name, m.name
                );
            }
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let values: Vec<Option<f64>> = exact.iter().map(|r| r.get(m.name)).collect();
            if values.iter().any(|v| *v != values[0]) {
                steady = false;
                println!(
                    "{:<22} {:<38} DIFFERS between sets: {values:?}",
                    w.name, m.name
                );
            }
        }
        if failed.iter().any(|f| *f != failed[0])
            || exact.iter().any(|r| r.failed != exact[0].failed)
        {
            steady = false;
            println!(
                "{:<22} failed counts differ between sets: {failed:?}",
                w.name
            );
        }
    }
    Ok(steady)
}

fn main() -> ExitCode {
    // Before anything else: no ambient ESD_* knob may reach the crates.
    env::scrub();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: esd-benchmark run|repeat|spec [flags]");
        return ExitCode::from(2);
    };
    let parsed = match parse_args(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (command.as_str(), &parsed.workload) {
        ("spec", _) => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        ("run", Some(workload)) => {
            let out = if parsed.traced {
                let (out, spans) =
                    run_traced(workload, parsed.seed, parsed.seconds, &Sizes::full());
                let path = out_dir().join(format!("trace-{workload}.json"));
                match spans.write_chrome_trace(&path) {
                    Ok(()) => eprintln!("# wrote {}", path.display()),
                    Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
                }
                out
            } else {
                run_untraced(workload, parsed.seed, parsed.seconds, &Sizes::full())
            };
            out.print(workload);
            Ok(out.failed == 0)
        }
        ("run", None) => run_all(&parsed),
        ("repeat", _) => repeat(&parsed),
        _ => Err(format!("unknown command {command}")),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
