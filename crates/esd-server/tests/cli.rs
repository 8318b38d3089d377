//! The `esd-serve` binary from the outside: a flag value it cannot serve is
//! a usage error, not a panic, and `--json` means the same in both modes.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use esd_server::{
    decode_response, encode_request, read_frame, write_frame, Envelope, Request, Response,
};
use esd_sim::Ps;
use esd_trace::CacheLine;

fn esd_serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_esd-serve"))
}

/// A server whose test failed before its one session closed would
/// otherwise listen on after the suite.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_flag_it_cannot_serve_is_a_usage_error() {
    let cases = [
        (
            ["--tenants", "70000"],
            "esd-serve: --tenants must be at most 65535",
        ),
        // Retired with the threads behind it; not to come back as a no-op.
        (["--workers", "2"], "esd-serve: unknown flag --workers"),
        // Retired with the fingerprint staging it sized.
        (["--batch", "16"], "esd-serve: unknown flag --batch"),
    ];
    for (flag, complaint) in cases {
        for mode in [&[][..], &["--tcp", "127.0.0.1:0"][..]] {
            let out = esd_serve()
                .args(mode)
                .args(flag)
                .output()
                .expect("esd-serve runs");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(!out.status.success(), "{flag:?} {mode:?}: {stderr}");
            assert!(
                out.stdout.is_empty(),
                "{flag:?} {mode:?}: nothing was served"
            );
            assert!(stderr.starts_with(complaint), "{flag:?} {mode:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{flag:?} {mode:?}: {stderr}");
        }
    }
}

#[test]
fn tcp_mode_prints_the_metrics_export_after_the_stat_lines() {
    let child = esd_serve()
        .args(["--tcp", "127.0.0.1:0", "--connections", "1", "--json"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("esd-serve starts");
    let mut child = Reaped(child);
    let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("esd-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let write = Envelope {
        tenant: 1,
        seq: 0,
        arrival: Ps::ZERO,
        request: Request::Write {
            local: 0x40,
            line: CacheLine::from_fill(0x5A),
        },
    };
    write_frame(&mut stream, &encode_request(&write)).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a response");
    let response = decode_response(&payload).unwrap();
    assert!(
        matches!(response, Response::Written { seq: 0, .. }),
        "{response:?}"
    );
    drop(stream);

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(child.0.wait().unwrap().success());
    let lines: Vec<&str> = rest.lines().collect();
    assert_eq!(lines.len(), 5, "four stat lines and the export: {rest}");
    for (tenant, line) in lines[..4].iter().enumerate() {
        assert!(
            line.starts_with(&format!("tenant {tenant}: offered=")),
            "{line}"
        );
    }
    let json = lines[4];
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(json.contains("\"tenant1/writes\":1"), "{json}");
    assert!(
        json.contains("\"tenant1/request_latency\":{\"count\":1"),
        "{json}"
    );
}
