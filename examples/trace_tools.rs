//! Trace tooling: generate a workload, save it in both the binary and the
//! artifact's textual "regulation" format, reload, and analyze.
//!
//! ```sh
//! cargo run --release --example trace_tools [app] [accesses] [out-dir]
//! ```

use std::fs;
use std::path::PathBuf;

use esd::trace::{
    decode_trace, duplicate_rate, encode_trace, generate_trace, parse_trace_text, refcount_buckets,
    render_trace_text, zero_line_rate, AppProfile,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let app_name = args.next().unwrap_or_else(|| "dedup".to_owned());
    let accesses: usize = args.next().map_or(Ok(20_000), |v| v.parse())?;
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| "target/traces".to_owned()));

    let app =
        AppProfile::by_name(&app_name).ok_or_else(|| format!("unknown workload {app_name:?}"))?;
    let trace = generate_trace(&app, 42, accesses);

    fs::create_dir_all(&out_dir)?;
    let bin_path = out_dir.join(format!("{app_name}.esdt"));
    let txt_path = out_dir.join(format!("{app_name}.trace"));
    fs::write(&bin_path, encode_trace(&trace))?;
    fs::write(&txt_path, render_trace_text(&trace))?;
    println!("wrote {} ({} records)", bin_path.display(), trace.len());
    println!("wrote {}", txt_path.display());

    // Reload through both formats and prove equality.
    let from_bin = decode_trace(&fs::read(&bin_path)?)?;
    let from_txt = parse_trace_text(&app_name, &fs::read_to_string(&txt_path)?)?;
    assert_eq!(from_bin, trace, "binary round trip");
    assert_eq!(from_txt, trace, "text round trip");
    println!("round trips verified (binary + text)");

    // The paper's workload analyses.
    println!();
    println!("duplicate rate : {:.1}%", duplicate_rate(&trace) * 100.0);
    println!("zero lines     : {:.1}%", zero_line_rate(&trace) * 100.0);
    let buckets = refcount_buckets(&trace);
    println!("unique contents: {}", buckets.unique_contents());
    let cf = buckets.content_fractions();
    let vf = buckets.volume_fractions();
    println!("refcount bucket    contents     volume");
    for (i, label) in ["num1", "num10", "num100", "num1000", "num1000+"]
        .iter()
        .enumerate()
    {
        println!(
            "{label:<15} {:>9.2}% {:>9.1}%",
            cf[i] * 100.0,
            vf[i] * 100.0
        );
    }
    Ok(())
}
