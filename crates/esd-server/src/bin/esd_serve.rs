#![deny(unsafe_code)]

//! `esd-serve` — run the multi-tenant dedup service.
//!
//! Default mode drives the built-in load generator (`tenants × qps`)
//! against a fresh service and prints one stat line per tenant — the
//! lines the CI smoke job greps. `--tcp ADDR` instead listens for framed
//! protocol connections (see `esd_server::proto`).

use std::io::{self, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Mutex;

use esd_core::tenant::MAX_TENANT;
use esd_server::{run_load, serve_tcp, LoadSpec, Service, ServiceConfig};
use esd_trace::AppProfile;

fn usage() -> String {
    "\
esd-serve — multi-tenant deduplication service

USAGE:
    esd-serve [--scheme NAME] [--tenants N] [--qps N] [--requests N]
              [--queue-depth N] [--seed N] [--profile NAME] [--json]
    esd-serve --tcp ADDR [--connections N] [--scheme NAME] [--tenants N]
              [--queue-depth N] [--json]

Load-generator mode (default) replays tenants × qps open-loop request
streams through one shared scheme instance and prints per-tenant stats:
    tenant 0: offered=… admitted=… rejected=… writes=… reads=… \
dedup_rate=… p50_ns=… p95_ns=… p99_ns=…
A full admission queue rejects with a retry hint; `offered` always equals
`admitted + rejected` (checked and reported as `admission_invariant`).

TCP mode serves the length-prefixed frame protocol: each frame is one
request envelope (tenant id, sequence number, write/read), answered in
order. A connection is one tenant's session (its first frame names the
tenant); sessions run concurrently, and a malformed frame closes only the
connection it arrived on. `--connections N` exits after N sessions have
closed (default 1).

OPTIONS:
    --scheme NAME      baseline|sha1|md5|pde|dewrite|esd|esd-full|esd-noverify,
                       or the name a report prints, any case (default esd)
    --tenants N        tenant count, at most 65535 (default 4)
    --qps N            per-tenant offered rate, requests per simulated
                       second (default 1000000)
    --requests N       requests per tenant (default 2000)
    --queue-depth N    per-tenant admission bound (default 64)
    --seed N           base trace seed; tenant t uses seed+t, wrapping
                       (default 42)
    --profile NAME     trace profile (default demo; see `esd-cli apps`)
    --json             also print the metrics-registry JSON export, after
                       the stat lines (either mode)
    --tcp ADDR         serve the frame protocol on ADDR instead
    --connections N    TCP sessions to serve before exiting (default 1)"
        .to_string()
}

/// Minimal `--flag value` parser (same contract as esd-cli's): flags may
/// appear in any order, unknown flags are errors, `-h`/`--help` prints
/// usage.
struct Flags {
    pairs: Vec<(String, String)>,
    json: bool,
}

impl Flags {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Flags>, String> {
        let mut pairs = Vec::new();
        let mut json = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "-h" | "--help" => return Ok(None),
                "--json" => json = true,
                flag if flag.starts_with("--") => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))?;
                    pairs.push((flag[2..].to_string(), value));
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(Some(Flags { pairs, json }))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse {raw:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

fn service_config(flags: &Flags) -> Result<ServiceConfig, String> {
    let config = ServiceConfig {
        scheme: flags.get("scheme").unwrap_or("esd").parse()?,
        tenants: flags.get_parsed_or("tenants", 4u32)?,
        queue_depth: flags.get_parsed_or("queue-depth", 64usize)?,
        ..ServiceConfig::default()
    };
    if config.tenants == 0 {
        return Err("--tenants must be at least 1".to_string());
    }
    if config.tenants > MAX_TENANT {
        return Err(format!(
            "--tenants must be at most {MAX_TENANT}: the namespace field is 16 bits wide"
        ));
    }
    if config.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".to_string());
    }
    Ok(config)
}

/// Why a run stopped short.
enum Failure {
    /// A bad flag or a failed run, reported on standard error.
    Message(String),
    /// Writing standard output failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(error: io::Error) -> Self {
        Failure::Output(error)
    }
}

fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), Failure> {
    if let Some(addr) = flags.get("tcp") {
        flags.known(&["tcp", "connections", "scheme", "tenants", "queue-depth"])?;
        let config = service_config(flags)?;
        let connections = flags.get_parsed_or("connections", 1usize)?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("inspecting listener: {e}"))?;
        writeln!(
            out,
            "esd-serve listening on {bound} ({} tenants)",
            config.tenants
        )?;
        let service = Mutex::new(Service::new(&config));
        serve_tcp(&listener, &service, connections).map_err(|e| format!("serving: {e}"))?;
        // `serve_tcp` joined every session and would have passed a panic on.
        let svc = service.lock().expect("service lock");
        for tenant in 0..svc.tenant_count() {
            writeln!(out, "{}", svc.stats_line(tenant))?;
        }
        if flags.json {
            writeln!(out, "{}", svc.metrics_json())?;
        }
        return Ok(());
    }

    flags.known(&[
        "scheme",
        "tenants",
        "qps",
        "requests",
        "queue-depth",
        "seed",
        "profile",
    ])?;
    let config = service_config(flags)?;
    let profile_name = flags.get("profile").unwrap_or("demo");
    let profile = if profile_name == "demo" {
        AppProfile::demo()
    } else {
        AppProfile::by_name(profile_name)
            .ok_or_else(|| format!("unknown profile {profile_name:?}"))?
    };
    let spec = LoadSpec {
        tenants: config.tenants,
        qps: flags.get_parsed_or("qps", 1_000_000u64)?,
        requests_per_tenant: flags.get_parsed_or("requests", 2_000u64)?,
        profile,
        seed: flags.get_parsed_or("seed", 42u64)?,
    };
    if spec.qps == 0 {
        return Err("--qps must be at least 1".to_string().into());
    }
    let mut service = Service::new(&config);
    let report = run_load(&mut service, &spec);
    for tenant in &report.summary.tenants {
        writeln!(out, "{}", service.stats_line(tenant.tenant))?;
    }
    let mut leak = 0u64;
    for t in &report.summary.tenants {
        leak += t.offered.abs_diff(t.admitted + t.rejected);
    }
    writeln!(
        out,
        "admission_invariant: {} (leaked={leak})",
        if leak == 0 { "ok" } else { "VIOLATED" }
    )?;
    writeln!(
        out,
        "service: scheme={} tenants={} qps={} applied={} throughput_rps={:.0} sim_end_ns={}",
        flags.get("scheme").unwrap_or("esd").to_ascii_lowercase(),
        report.tenants,
        report.qps,
        report.summary.applied,
        report.achieved_throughput,
        report.summary.sim_end.as_ns(),
    )?;
    if flags.json {
        writeln!(out, "{}", report.metrics_json)?;
    }
    if leak != 0 {
        return Err(format!("{leak} offered requests unaccounted for").into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    let flags = match Flags::parse(std::env::args().skip(1)) {
        Ok(Some(flags)) => flags,
        Ok(None) => return exit(writeln!(out, "{}", usage()).map_err(Failure::from)),
        Err(e) => {
            eprintln!("esd-serve: {e}");
            eprintln!("run `esd-serve --help` for usage");
            return ExitCode::FAILURE;
        }
    };
    exit(run(&flags, &mut out).and_then(|()| Ok(out.flush()?)))
}

/// The exit status of a run that ended with `result`.
fn exit(result: Result<(), Failure>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed the pipe early (`| head`) has all it wanted.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("esd-serve: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("esd-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
