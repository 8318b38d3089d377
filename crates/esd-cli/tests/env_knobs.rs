//! CLI-level contract of the environment: `esd-cli` takes every knob as a
//! flag, and no `ESD_*` variable reaches a run or a figure — neither one
//! whose knob is gone nor one naming a model input that is now a flag only.

use std::process::{Command, Output};

/// Each variable at a value that would change the run or the figure if it
/// were read: the first six are run knobs, the last seven the figure
/// sweep's (`ESD_THREADS=0` drew a warning, the injector's seed and scrub
/// cadence are printed in a figure's header when `ESD_RBER` is on).
const VARIABLES: [(&str, &str); 13] = [
    ("ESD_SHARDS", "4"),
    ("ESD_BATCH", "1"),
    ("ESD_KERNEL", "scalar"),
    ("ESD_QUANTUM", "64"),
    ("ESD_CRASH_AT", "1000:mapping-update"),
    ("ESD_JOURNAL_EVERY", "16"),
    ("ESD_ACCESSES", "1000"),
    ("ESD_SEED", "7"),
    ("ESD_THREADS", "0"),
    ("ESD_RBER", "2000000000"),
    ("ESD_RBER_SEED", "77"),
    ("ESD_SCRUB_EVERY", "500"),
    ("ESD_EPOCH_EVERY", "100"),
];

/// `esd-cli` with `args` and none of [`VARIABLES`] set.
fn esd_cli(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esd-cli"));
    cmd.args(args);
    for (variable, _) in VARIABLES {
        cmd.env_remove(variable);
    }
    cmd
}

fn run_demo() -> Command {
    // Long enough that a crash at access 1000 lands inside the trace.
    esd_cli(&["run", "--app", "demo", "--accesses", "2000"])
}

/// Asserts that `out` is a usage error: a failure whose stderr starts with
/// `error: <message>` and which printed nothing on stdout.
fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(stderr.starts_with(&format!("error: {message}")), "{stderr}");
}

#[test]
fn retired_knobs_are_no_flag_and_no_variable() {
    let plain = run_demo().output().expect("esd-cli runs");
    assert!(plain.status.success());
    for flag in ["shards", "batch", "kernels", "quantum"] {
        let out = run_demo()
            .args([&format!("--{flag}"), "64"])
            .output()
            .expect("esd-cli runs");
        assert_usage_error(&out, &format!("unknown option --{flag}"));
    }
    for (variable, value) in VARIABLES {
        let ambient = run_demo()
            .env(variable, value)
            .output()
            .expect("esd-cli runs");
        assert_eq!(ambient.stdout, plain.stdout, "{variable}");
        assert_eq!(ambient.stderr, plain.stderr, "{variable}");
    }
}

#[test]
fn no_variable_reaches_a_figure() {
    let figure = || esd_cli(&["fig", "fig01_dup_rate", "--accesses", "2000"]);
    let plain = figure().output().expect("esd-cli runs");
    assert!(plain.status.success());
    let stdout = String::from_utf8_lossy(&plain.stdout);
    assert!(
        stdout.starts_with("=== Figure 1: Duplicate rate of cache lines ===\n    (20 workloads x 2000 accesses, seed 42)\n\n"),
        "{stdout}"
    );
    let ambient = figure().envs(VARIABLES).output().expect("esd-cli runs");
    assert_eq!(ambient.stdout, plain.stdout);
    assert_eq!(ambient.stderr, plain.stderr);
}

#[test]
fn a_figure_refuses_what_it_cannot_serve() {
    let out = |args: &[&str]| esd_cli(args).output().expect("esd-cli runs");
    assert_usage_error(
        &out(&["fig", "fig11_write_reduction"]),
        "unknown figure \"fig11_write_reduction\"",
    );
    assert_usage_error(
        &out(&["fig", "fig01_dup_rate", "--threads", "0"]),
        "--threads must be at least 1",
    );
    // Epochs are collected, never printed: no figure takes the knob.
    assert_usage_error(
        &out(&["fig", "fig01_dup_rate", "--epoch-every", "100"]),
        "unknown option --epoch-every",
    );
    assert_usage_error(&out(&["fig"]), "missing required argument <figure>");
    // Two figures replay no workload: a sweep flag would be ignored, so
    // each is refused before anything is printed.
    let sweep_flags = [
        ("accesses", "5"),
        ("seed", "9"),
        ("threads", "1"),
        ("rber", "1000"),
        ("rber-seed", "3"),
        ("scrub-every", "100"),
    ];
    for figure in ["fig08_collisions", "ablation_wear_leveling"] {
        for (flag, value) in sweep_flags {
            assert_usage_error(
                &out(&["fig", figure, &format!("--{flag}"), value]),
                &format!("{figure} replays no workload and takes no --{flag}"),
            );
        }
        assert_usage_error(
            &out(&[
                "fig",
                figure,
                "--seed",
                "9",
                "--accesses",
                "5",
                "--rber",
                "1000",
            ]),
            &format!("{figure} replays no workload and takes no --accesses"),
        );
    }
}
