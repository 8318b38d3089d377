//! CLI-level contract of the `ESD_*` environment knobs: a set-but-malformed
//! value must warn on stderr and fall back to the default instead of
//! silently masking the typo or failing the run, and a well-formed value
//! must be honored silently.

use std::process::Command;

fn run_demo() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esd-cli"));
    cmd.args(["run", "--app", "demo", "--accesses", "500"]);
    // Start from a clean slate so ambient knobs don't add warnings.
    for knob in ["ESD_QUANTUM", "ESD_CRASH_AT", "ESD_JOURNAL_EVERY"] {
        cmd.env_remove(knob);
    }
    cmd
}

#[test]
fn malformed_integer_knobs_warn_and_fall_back() {
    let out = run_demo()
        .env("ESD_QUANTUM", "4x")
        .output()
        .expect("esd-cli runs");
    assert!(
        out.status.success(),
        "a malformed ESD_QUANTUM must not fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: ignoring ESD_QUANTUM=\"4x\"") && stderr.contains("using default"),
        "ESD_QUANTUM stderr must warn about the ignored value:\n{stderr}"
    );
}

#[test]
fn malformed_crash_point_warns_and_stays_off() {
    let out = run_demo()
        .env("ESD_CRASH_AT", "not-a-point")
        .output()
        .expect("esd-cli runs");
    assert!(
        out.status.success(),
        "a malformed ESD_CRASH_AT must not fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: ignoring ESD_CRASH_AT=\"not-a-point\"")
            && stderr.contains("crash injection stays off"),
        "stderr must warn and keep injection off:\n{stderr}"
    );
}

#[test]
fn malformed_journal_interval_warns_and_stays_off() {
    let out = run_demo()
        .env("ESD_JOURNAL_EVERY", "often")
        .output()
        .expect("esd-cli runs");
    assert!(
        out.status.success(),
        "a malformed ESD_JOURNAL_EVERY must not fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: ignoring ESD_JOURNAL_EVERY=\"often\"")
            && stderr.contains("journaling stays off"),
        "stderr must warn and keep journaling off:\n{stderr}"
    );
}

#[test]
fn well_formed_knobs_are_honored_silently() {
    let out = run_demo()
        .env("ESD_QUANTUM", "1024")
        .env("ESD_JOURNAL_EVERY", "64")
        .output()
        .expect("esd-cli runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("warning: ignoring ESD_"),
        "well-formed knobs must not warn:\n{stderr}"
    );
}

#[test]
fn retired_knobs_are_no_flag_and_no_variable() {
    let plain = run_demo().output().expect("esd-cli runs");
    assert!(plain.status.success());
    // Each variable at the value that once picked the other code path.
    for (flag, variable, value) in [
        ("shards", "ESD_SHARDS", "4"),
        ("batch", "ESD_BATCH", "1"),
        ("kernels", "ESD_KERNEL", "scalar"),
    ] {
        let out = run_demo()
            .args([&format!("--{flag}"), "4"])
            .output()
            .expect("esd-cli runs");
        assert!(!out.status.success(), "--{flag} must be refused");
        assert!(out.stdout.is_empty(), "nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown option --{flag}")),
            "{stderr}"
        );

        let ambient = run_demo()
            .env(variable, value)
            .output()
            .expect("esd-cli runs");
        assert_eq!(ambient.stdout, plain.stdout, "{variable}");
        assert_eq!(ambient.stderr, plain.stderr, "{variable}");
    }
}
