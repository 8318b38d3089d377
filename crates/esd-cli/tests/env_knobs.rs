//! CLI-level contract of the environment: `esd-cli` takes every knob as a
//! flag, and no `ESD_*` variable reaches a run — neither one whose knob is
//! gone nor one naming a model input that is now a flag only.

use std::process::Command;

/// Each variable at a value that would change the run if it were read.
const VARIABLES: [(&str, &str); 6] = [
    ("ESD_SHARDS", "4"),
    ("ESD_BATCH", "1"),
    ("ESD_KERNEL", "scalar"),
    ("ESD_QUANTUM", "64"),
    ("ESD_CRASH_AT", "1000:mapping-update"),
    ("ESD_JOURNAL_EVERY", "16"),
];

fn run_demo() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esd-cli"));
    // Long enough that a crash at access 1000 lands inside the trace.
    cmd.args(["run", "--app", "demo", "--accesses", "2000"]);
    for (variable, _) in VARIABLES {
        cmd.env_remove(variable);
    }
    cmd
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
        assert!(!out.status.success(), "--{flag} must be refused");
        assert!(out.stdout.is_empty(), "nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown option --{flag}")),
            "{stderr}"
        );
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
