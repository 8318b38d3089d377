//! CLI-level contract of the `ESD_*` environment knobs: a set-but-malformed
//! value must warn on stderr and fall back to the default instead of
//! silently masking the typo or failing the run, and a well-formed value
//! must be honored silently. Companion to `kernel_flags.rs`, which covers
//! `ESD_KERNEL`.

use std::process::Command;

fn run_demo() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esd-cli"));
    cmd.args(["run", "--app", "demo", "--accesses", "500"]);
    // Start from a clean slate so ambient knobs don't add warnings.
    for knob in [
        "ESD_BATCH",
        "ESD_QUANTUM",
        "ESD_CRASH_AT",
        "ESD_JOURNAL_EVERY",
    ] {
        cmd.env_remove(knob);
    }
    cmd
}

#[test]
fn malformed_integer_knobs_warn_and_fall_back() {
    for knob in ["ESD_BATCH", "ESD_QUANTUM"] {
        let out = run_demo()
            .env(knob, "4x")
            .output()
            .expect("esd-cli runs");
        assert!(
            out.status.success(),
            "a malformed {knob} must not fail the run"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("warning: ignoring {knob}=\"4x\""))
                && stderr.contains("using default"),
            "{knob} stderr must warn about the ignored value:\n{stderr}"
        );
    }
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
        .env("ESD_BATCH", "16")
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
fn the_retired_shards_knob_is_no_flag_and_no_variable() {
    let out = run_demo()
        .args(["--shards", "4"])
        .output()
        .expect("esd-cli runs");
    assert!(!out.status.success(), "--shards must be refused");
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown option --shards"),
        "{stderr}"
    );

    let plain = run_demo().output().expect("esd-cli runs");
    let ambient = run_demo()
        .env("ESD_SHARDS", "4")
        .output()
        .expect("esd-cli runs");
    assert!(plain.status.success());
    assert_eq!(ambient.stdout, plain.stdout);
    assert_eq!(ambient.stderr, plain.stderr);
}
