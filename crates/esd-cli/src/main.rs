//! `esd-cli` — drive the ESD encrypted-NVMM deduplication simulator from
//! the command line.
//!
//! ```text
//! esd-cli run      --app lbm --scheme esd [--accesses N] [--seed N] [reliability flags]
//! esd-cli compare  --app gcc [--accesses N] [--seed N] [reliability flags]
//! esd-cli generate --app gcc --out trace.esdt [--format bin|text] [--accesses N]
//! esd-cli analyze  <trace-file>
//! esd-cli replay   <trace-file> --scheme esd [reliability flags]
//! esd-cli apps
//! esd-cli config
//! ```
//!
//! Reliability flags: `--rber <flips per 10^12 bit-reads>` enables the
//! seeded fault injector, `--rber-seed <N>` picks its stream, and
//! `--scrub-every <accesses>` (with `--scrub-lines <N>` per tick) runs the
//! background scrubber.
//!
//! Crash consistency (`run`/`compare`/`replay`): `--crash-at
//! <access[:stage]>` injects a deterministic power-loss crash while that
//! trace access is in flight at the named write-path stage (default
//! `unique-write`) and recovers before replay resumes; `--journal-every
//! <records>` checkpoints the metadata journal at that interval so recovery
//! replays a bounded window instead of scanning all metadata (`0` = off).
//!
//! Observability flags (`run`/`replay`): `--metrics-json <file>` writes
//! latency percentiles, epoch series, and the span-fed metrics registry;
//! `--trace-events <file>` writes Chrome trace-event JSON (load in Perfetto
//! or `chrome://tracing`); `--epoch-every <N>` samples a time-series
//! snapshot every N accesses.
//!
//! Every knob is a flag; no `ESD_*` environment variable changes a run.
//! The cross-slice sync quantum is always `esd_core::DEFAULT_QUANTUM`.

mod args;

use std::fs;
use std::process::ExitCode;

use args::Args;
use esd_core::{build_scheme, run_trace_with, RunOptions, RunReport, SchemeKind};
use esd_sim::SystemConfig;
use esd_trace::{
    decode_trace, duplicate_rate, encode_trace, generate_trace, parse_trace_text,
    refcount_buckets, render_trace_text, zero_line_rate, AppProfile, Trace,
};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    let rest: Vec<String> = argv.collect();
    match dispatch(&command, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     esd-cli run      --app <name> --scheme <scheme> [--accesses N] [--seed N]\n  \
     esd-cli compare  --app <name> [--accesses N] [--seed N] [--extended true]\n  \
     esd-cli generate --app <name> --out <file> [--format bin|text] [--accesses N] [--seed N]\n  \
     esd-cli analyze  <trace-file>\n  \
     esd-cli replay   <trace-file> --scheme <scheme>\n  \
     esd-cli apps\n  \
     esd-cli config\n\n\
     schemes: baseline, sha1, md5, pde, dewrite, esd, esd-full, esd-noverify\n\
     \x20        (or the name a report prints, e.g. Dedup_SHA1, ESD_Full; any case)\n\
     reliability (run/compare/replay): [--rber <per-10^12-bit-reads>] [--rber-seed N]\n\
     \x20                                 [--scrub-every <accesses>] [--scrub-lines N]\n\
     crash (run/compare/replay):       [--crash-at <access[:stage]>] (inject a power-loss\n\
     \x20                                 crash and recover; stage defaults to unique-write)\n\
     \x20                                 [--journal-every <records>] (metadata journal\n\
     \x20                                 checkpoint interval; 0 = off, scan on recovery)\n\
     observability (run/replay): [--metrics-json <file>] [--trace-events <file>]\n\
     \x20                           [--epoch-every <accesses>]"
}

fn dispatch(command: &str, rest: Vec<String>) -> Result<(), String> {
    match command {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "generate" => cmd_generate(rest),
        "analyze" => cmd_analyze(rest),
        "replay" => cmd_replay(rest),
        "apps" => {
            cmd_apps();
            Ok(())
        }
        "config" => {
            print!("{}", SystemConfig::default().to_table());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn app_by_name(name: &str) -> Result<AppProfile, String> {
    if name == "demo" {
        return Ok(AppProfile::demo());
    }
    AppProfile::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?} (see `esd-cli apps`)"))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let bytes = fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if let Ok(trace) = decode_trace(&bytes) {
        return Ok(trace);
    }
    let text = String::from_utf8(bytes).map_err(|_| {
        format!("{path} is neither a binary ESD trace nor UTF-8 text")
    })?;
    let name = path.rsplit('/').next().unwrap_or(path);
    parse_trace_text(name, &text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Flag names shared by `run`, `compare` and `replay`.
const RELIABILITY_FLAGS: [&str; 4] = ["rber", "rber-seed", "scrub-every", "scrub-lines"];

/// Applies the reliability flags: `--rber`/`--rber-seed` configure the
/// fault injector on `config.pcm`, `--scrub-every`/`--scrub-lines` shape
/// the returned [`RunOptions`]'s background scrubber.
fn reliability_options(args: &Args, config: &mut SystemConfig) -> Result<RunOptions, String> {
    config.pcm.rber_per_tbit = args
        .get_parsed_or("rber", config.pcm.rber_per_tbit)
        .map_err(|e| e.to_string())?;
    config.pcm.rber_seed = args
        .get_parsed_or("rber-seed", config.pcm.rber_seed)
        .map_err(|e| e.to_string())?;
    let scrub_every: u64 = args.get_parsed_or("scrub-every", 0).map_err(|e| e.to_string())?;
    let scrub_lines: usize =
        args.get_parsed_or("scrub-lines", 1024).map_err(|e| e.to_string())?;
    if scrub_lines == 0 {
        return Err("--scrub-lines must be positive".to_owned());
    }
    Ok(RunOptions {
        verify: true,
        scrub_interval: (scrub_every > 0).then_some(scrub_every),
        scrub_lines_per_tick: scrub_lines,
        ..RunOptions::default()
    })
}

/// Flag names for crash injection and journaling, shared by `run`,
/// `compare` and `replay`.
const CRASH_FLAGS: [&str; 2] = ["crash-at", "journal-every"];

/// Applies the crash-consistency knobs: `--crash-at <access[:stage]>`
/// injects a deterministic power-loss crash (recovery cost lands in the
/// report's recovery block), `--journal-every <records>` sets the metadata
/// journal's checkpoint interval (`0` disables journaling, so recovery
/// falls back to a full metadata scan).
fn crash_options(args: &Args, options: &mut RunOptions) -> Result<(), String> {
    if let Some(raw) = args.get("crash-at") {
        options.crash_at = Some(raw.parse().map_err(|e| format!("--crash-at: {e}"))?);
    }
    let journal: u64 = args.get_parsed_or("journal-every", 0).map_err(|e| e.to_string())?;
    options.journal_every = (journal > 0).then_some(journal);
    Ok(())
}

/// Flag names shared by `run` and `replay` for observability outputs.
const OBS_FLAGS: [&str; 3] = ["metrics-json", "trace-events", "epoch-every"];

/// Output paths requested by the observability flags.
struct ObsOutputs {
    metrics_json: Option<String>,
    trace_events: Option<String>,
}

/// Applies the observability flags: `--epoch-every` turns on time-series
/// collection, and either output path (`--metrics-json`, `--trace-events`)
/// installs the enabled collector into the run.
fn observability_options(args: &Args, options: &mut RunOptions) -> Result<ObsOutputs, String> {
    let epoch_every: u64 = args.get_parsed_or("epoch-every", 0).map_err(|e| e.to_string())?;
    options.epoch_interval = (epoch_every > 0).then_some(epoch_every);
    let outputs = ObsOutputs {
        metrics_json: args.get("metrics-json").map(str::to_owned),
        trace_events: args.get("trace-events").map(str::to_owned),
    };
    options.observe = outputs.metrics_json.is_some() || outputs.trace_events.is_some();
    Ok(outputs)
}

/// Writes the requested observability artifacts for one finished run.
fn write_observability(report: &RunReport, outputs: &ObsOutputs) -> Result<(), String> {
    if let Some(path) = &outputs.trace_events {
        let json = report
            .obs
            .as_ref()
            .map(esd_obs::Obs::to_chrome_json)
            .unwrap_or_else(|| "{\"traceEvents\":[]}".to_owned());
        fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Chrome trace events to {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(path) = &outputs.metrics_json {
        fs::write(path, metrics_document(report)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    Ok(())
}

/// Renders one run's metrics as a JSON document: latency percentiles, the
/// epoch time-series, predictor accuracy, and the span-fed registry.
fn metrics_document(report: &RunReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"scheme\":\"");
    out.push_str(report.scheme.name());
    out.push_str("\",\"app\":\"");
    out.push_str(&report.app.replace('"', "'"));
    out.push_str("\",\"write_latency\":");
    out.push_str(&esd_obs::histogram_json(&report.write_latency));
    out.push_str(",\"read_latency\":");
    out.push_str(&esd_obs::histogram_json(&report.read_latency));
    out.push_str(",\"predictor\":");
    match &report.predictor {
        Some(p) => {
            out.push_str(&format!(
                "{{\"correct\":{},\"incorrect\":{},\"accuracy\":{}}}",
                p.correct,
                p.incorrect,
                p.accuracy().map_or("null".to_owned(), |a| format!("{a:.6}")),
            ));
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"epochs\":");
    out.push_str(&esd_obs::epochs_to_json(&report.epochs));
    out.push_str(",\"registry\":");
    match &report.obs {
        Some(obs) => out.push_str(&obs.metrics_json()),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

fn run_one(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, String> {
    let scheme = build_scheme(kind, config);
    // The no-verify ablation aliases colliding lines by design.
    let options = RunOptions {
        verify: options.verify && kind != SchemeKind::EsdNoVerify,
        ..*options
    };
    run_trace_with(&scheme, trace, config, &options).map_err(|e| e.to_string())
}

fn cmd_run(rest: Vec<String>) -> Result<(), String> {
    let allowed: Vec<&str> = [
        &["app", "scheme", "accesses", "seed"][..],
        &CRASH_FLAGS[..],
        &RELIABILITY_FLAGS[..],
        &OBS_FLAGS[..],
    ]
    .concat();
    let args = Args::parse(rest, &allowed).map_err(|e| e.to_string())?;
    let app = app_by_name(args.get_or("app", "demo"))?;
    let kind: SchemeKind = args.get_or("scheme", "esd").parse()?;
    let accesses = args.get_parsed_or("accesses", 100_000usize).map_err(|e| e.to_string())?;
    let seed = args.get_parsed_or("seed", 42u64).map_err(|e| e.to_string())?;
    let mut config = SystemConfig::default();
    let mut options = reliability_options(&args, &mut config)?;
    crash_options(&args, &mut options)?;
    let outputs = observability_options(&args, &mut options)?;
    let trace = generate_trace(&app, seed, accesses);
    let report = run_one(kind, &trace, &config, &options)?;
    print!("{}", report.summary());
    write_observability(&report, &outputs)?;
    Ok(())
}

fn cmd_compare(rest: Vec<String>) -> Result<(), String> {
    let allowed: Vec<&str> = [
        &["app", "accesses", "seed", "extended"][..],
        &CRASH_FLAGS[..],
        &RELIABILITY_FLAGS[..],
    ]
    .concat();
    let args = Args::parse(rest, &allowed).map_err(|e| e.to_string())?;
    let app = app_by_name(args.get_or("app", "demo"))?;
    let accesses = args.get_parsed_or("accesses", 100_000usize).map_err(|e| e.to_string())?;
    let seed = args.get_parsed_or("seed", 42u64).map_err(|e| e.to_string())?;
    let extended: bool = args.get_parsed_or("extended", false).map_err(|e| e.to_string())?;
    let mut config = SystemConfig::default();
    let mut options = reliability_options(&args, &mut config)?;
    crash_options(&args, &mut options)?;
    let trace = generate_trace(&app, seed, accesses);

    let schemes: &[SchemeKind] = if extended {
        &SchemeKind::EXTENDED
    } else {
        &SchemeKind::ALL
    };
    println!(
        "{:<13} {:>10} {:>12} {:>12} {:>7} {:>12}",
        "scheme", "nvmm_wr", "write_avg", "read_avg", "ipc", "energy"
    );
    let mut reports = Vec::with_capacity(schemes.len());
    for &kind in schemes {
        let report = run_one(kind, &trace, &config, &options)?;
        println!(
            "{:<13} {:>10} {:>12} {:>12} {:>7.2} {:>12}",
            kind.name(),
            report.nvmm_data_writes(),
            report.avg_write_latency().to_string(),
            report.avg_read_latency().to_string(),
            report.ipc,
            report.total_energy().to_string(),
        );
        reports.push(report);
    }
    if let Some(base) = reports.iter().find(|r| r.scheme == SchemeKind::Baseline) {
        println!();
        for report in reports.iter().filter(|r| r.scheme != SchemeKind::Baseline) {
            let n = report.normalized_to(base);
            println!(
                "{:<13} write {:>5.2}x  read {:>5.2}x  ipc {:>5.2}x  energy {:>5.2}",
                report.scheme.name(),
                n.write_speedup,
                n.read_speedup,
                n.ipc_ratio,
                n.energy_ratio
            );
        }
    }
    Ok(())
}

fn cmd_generate(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest, &["app", "out", "format", "accesses", "seed"])
        .map_err(|e| e.to_string())?;
    let app = app_by_name(args.get_or("app", "demo"))?;
    let out = args
        .get("out")
        .ok_or_else(|| "missing required --out <file>".to_owned())?;
    let accesses = args.get_parsed_or("accesses", 100_000usize).map_err(|e| e.to_string())?;
    let seed = args.get_parsed_or("seed", 42u64).map_err(|e| e.to_string())?;
    let trace = generate_trace(&app, seed, accesses);
    match args.get_or("format", "bin") {
        "bin" => fs::write(out, encode_trace(&trace)).map_err(|e| e.to_string())?,
        "text" => fs::write(out, render_trace_text(&trace)).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format {other:?} (bin|text)")),
    }
    println!("wrote {} records to {out}", trace.len());
    Ok(())
}

fn cmd_analyze(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest, &[]).map_err(|e| e.to_string())?;
    let path = args
        .required_positional(0, "<trace-file>")
        .map_err(|e| e.to_string())?;
    let trace = load_trace(path)?;
    println!("trace {} ({} records)", trace.name, trace.len());
    println!("  reads {}, writes {}", trace.read_count(), trace.write_count());
    println!("  duplicate rate {:.1}%", duplicate_rate(&trace) * 100.0);
    println!("  zero lines     {:.1}%", zero_line_rate(&trace) * 100.0);
    let buckets = refcount_buckets(&trace);
    println!("  unique contents {}", buckets.unique_contents());
    let cf = buckets.content_fractions();
    let vf = buckets.volume_fractions();
    for (i, label) in ["num1", "num10", "num100", "num1000", "num1000+"].iter().enumerate() {
        println!(
            "  {label:<9} {:>7.2}% of contents, {:>6.1}% of volume",
            cf[i] * 100.0,
            vf[i] * 100.0
        );
    }
    Ok(())
}

fn cmd_replay(rest: Vec<String>) -> Result<(), String> {
    let allowed: Vec<&str> = [
        &["scheme"][..],
        &CRASH_FLAGS[..],
        &RELIABILITY_FLAGS[..],
        &OBS_FLAGS[..],
    ]
    .concat();
    let args = Args::parse(rest, &allowed).map_err(|e| e.to_string())?;
    let path = args
        .required_positional(0, "<trace-file>")
        .map_err(|e| e.to_string())?;
    let kind: SchemeKind = args.get_or("scheme", "esd").parse()?;
    let trace = load_trace(path)?;
    let mut config = SystemConfig::default();
    let mut options = reliability_options(&args, &mut config)?;
    crash_options(&args, &mut options)?;
    let outputs = observability_options(&args, &mut options)?;
    let report = run_one(kind, &trace, &config, &options)?;
    print!("{}", report.summary());
    write_observability(&report, &outputs)?;
    Ok(())
}

fn cmd_apps() {
    println!("{:<14} {:<14} {:>8} {:>7} {:>8} {:>7}", "name", "suite", "dup", "zero", "reads", "gap");
    for app in AppProfile::all() {
        println!(
            "{:<14} {:<14} {:>7.1}% {:>6.1}% {:>7.1}% {:>7}",
            app.name,
            app.suite.to_string(),
            app.dup_rate * 100.0,
            app.zero_fraction * 100.0,
            app.read_fraction * 100.0,
            app.mean_instruction_gap
        );
    }
    println!("{:<14} {:<14} {:>7.1}% (synthetic smoke-test profile)", "demo", "-", 60.0);
}
