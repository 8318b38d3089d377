//! `esd-cli` whose reader stops after one line (`esd-cli ... | head -1`)
//! ends quietly: no panic, no backtrace, and not the panic exit status.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs `esd-cli args`, reads one line of its standard output and closes
/// the pipe; returns that line, the exit code and standard error.
fn first_line_then_close(args: &[&str]) -> (String, Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_esd-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esd-cli starts");
    let mut line = String::new();
    {
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        stdout.read_line(&mut line).expect("first line");
    } // the reader and the pipe close here
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("esd-cli exits");
    (line, status.code(), stderr)
}

#[test]
fn a_figure_read_for_one_line_ends_without_a_panic() {
    let (line, code, stderr) =
        first_line_then_close(&["fig", "fig01_dup_rate", "--accesses", "2000"]);
    assert_eq!(line, "=== Figure 1: Duplicate rate of cache lines ===\n");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(code, Some(101), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn every_command_that_prints_a_table_ends_quietly_when_its_reader_does() {
    for args in [
        &["apps"][..],
        &["config"],
        &["help"],
        &["compare", "--app", "demo", "--accesses", "2000"],
        &["run", "--app", "demo", "--accesses", "2000"],
    ] {
        let (line, code, stderr) = first_line_then_close(args);
        assert!(!line.is_empty(), "{args:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
