//! `esd-cli fig fig15_cdf --app <app>`: Figure 15's full write-latency CDF
//! of one of its eight applications, and nothing for any other name.

use std::process::{Command, Output};

fn fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esd-cli"))
        .arg("fig")
        .args(args)
        .output()
        .expect("esd-cli runs")
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn the_dump_prints_each_dedup_scheme_of_the_named_app() {
    let out = fig(&["fig15_cdf", "--app", "gcc", "--accesses", "2000"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with(
            "=== Figure 15: CDF of write latency ===\n    \
             (8 workloads x 2000 accesses, seed 42)\n\n[gcc / Dedup_SHA1]\n"
        ),
        "{stdout}"
    );
    for scheme in ["DeWrite", "ESD"] {
        assert!(
            stdout.contains(&format!("\n[gcc / {scheme}]\n")),
            "{scheme}"
        );
    }
    // The output of the `fig15_tail_latency gcc` binary this command
    // replaced, at the same length, byte for byte.
    assert_eq!(
        (out.stdout.len(), fnv1a(&out.stdout)),
        (2314, 0x4f3e_565c_f9dc_59cd)
    );
}

#[test]
fn an_app_outside_the_figure_is_refused_before_any_replay() {
    // A replay of this length would abort on its first trace allocation:
    // the name is checked before the sweep starts.
    for app in ["lbm", "gcc2"] {
        let out = fig(&[
            "fig15_cdf",
            "--app",
            app,
            "--accesses",
            "18446744073709551615",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(out.stdout.is_empty(), "{app}: printed before refusing");
        assert!(
            stderr.starts_with("error: fig15_cdf plots one of gcc, leela,"),
            "{stderr}"
        );
        assert!(stderr.contains(&format!("not {app:?}")), "{stderr}");
    }
}

#[test]
fn the_app_flag_belongs_to_the_dump_alone() {
    for (args, message) in [
        (&["fig15_cdf"][..], "error: fig15_cdf needs --app"),
        (
            &["fig01_dup_rate", "--app", "gcc"][..],
            "error: --app belongs to fig15_cdf only",
        ),
    ] {
        let out = fig(args);
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).starts_with(message));
    }
}
