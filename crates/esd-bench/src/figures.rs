//! Printers for the figures of the paper's evaluation that share one
//! 20-workload x 4-scheme sweep, all of which `fig_all` prints.

use std::io::{self, Write};

use esd_core::SchemeKind;

use crate::{format_row, geomean, AppRow};

/// The three deduplication schemes, in figure column order.
pub const DEDUP_SCHEMES: [SchemeKind; 3] =
    [SchemeKind::DedupSha1, SchemeKind::DeWrite, SchemeKind::Esd];

/// The eight applications whose write-latency CDFs Figure 15 plots.
pub const CDF_APPS: [&str; 8] = [
    "gcc",
    "leela",
    "bodytrack",
    "dedup",
    "facesim",
    "fluidanimate",
    "wrf",
    "x264",
];

fn scheme_header() -> Vec<String> {
    DEDUP_SCHEMES.iter().map(|s| s.name().to_owned()).collect()
}

/// Figure 11: write reduction vs Baseline.
pub fn print_fig11(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 11: NVMM write reduction vs Baseline (higher is better) ---"
    )?;
    writeln!(out, "{}", format_row("app", &scheme_header()))?;
    let mut sums = [0.0f64; 3];
    for row in rows {
        let base = row
            .report(SchemeKind::Baseline)
            .expect("baseline")
            .nvmm_data_writes() as f64;
        let cells: Vec<String> = DEDUP_SCHEMES
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let writes = row.report(kind).expect("scheme").nvmm_data_writes() as f64;
                let reduction = 1.0 - writes / base;
                sums[i] += reduction;
                format!("{:.1}%", reduction * 100.0)
            })
            .collect();
        writeln!(out, "{}", format_row(&row.app.name, &cells))?;
    }
    let n = rows.len() as f64;
    writeln!(
        out,
        "{}",
        format_row(
            "average",
            &sums
                .iter()
                .map(|s| format!("{:.1}%", s / n * 100.0))
                .collect::<Vec<_>>()
        )
    )?;
    writeln!(out)
}

fn print_speedup_figure(
    rows: &[AppRow],
    title: &str,
    metric: impl Fn(&esd_core::Normalized) -> f64,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "{title}")?;
    writeln!(out, "{}", format_row("app", &scheme_header()))?;
    let mut per_scheme: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for row in rows {
        let base = row.report(SchemeKind::Baseline).expect("baseline");
        let cells: Vec<String> = DEDUP_SCHEMES
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let n = row.report(kind).expect("scheme").normalized_to(base);
                let v = metric(&n);
                per_scheme[i].push(v);
                format!("{v:.2}x")
            })
            .collect();
        writeln!(out, "{}", format_row(&row.app.name, &cells))?;
    }
    writeln!(
        out,
        "{}",
        format_row(
            "geomean",
            &per_scheme
                .iter()
                .map(|v| format!("{:.2}x", geomean(v)))
                .collect::<Vec<_>>()
        )
    )?;
    writeln!(out)
}

/// Figure 12: write speedup normalized to Baseline.
pub fn print_fig12(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    print_speedup_figure(
        rows,
        "--- Figure 12: write speedup normalized to Baseline ---",
        |n| n.write_speedup,
        out,
    )
}

/// Figure 13: read speedup normalized to Baseline.
pub fn print_fig13(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    print_speedup_figure(
        rows,
        "--- Figure 13: read speedup normalized to Baseline ---",
        |n| n.read_speedup,
        out,
    )
}

/// Figure 14: IPC normalized to Baseline.
pub fn print_fig14(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    print_speedup_figure(
        rows,
        "--- Figure 14: IPC normalized to Baseline ---",
        |n| n.ipc_ratio,
        out,
    )
}

/// Figure 15: CDF of write latency for the paper's eight selected
/// applications.
pub fn print_fig15(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 15: CDF of write latency (8 selected applications) ---"
    )?;
    for row in rows
        .iter()
        .filter(|r| CDF_APPS.contains(&r.app.name.as_str()))
    {
        writeln!(out, "[{}]", row.app.name)?;
        writeln!(out, "{}", format_row("percentile", &scheme_header()))?;
        for q in [0.50, 0.90, 0.95, 0.99, 0.999] {
            let cells: Vec<String> = DEDUP_SCHEMES
                .iter()
                .map(|&kind| {
                    let p = row
                        .report(kind)
                        .expect("scheme")
                        .write_latency
                        .percentile(q);
                    format!("{:.0}ns", p.as_ns_f64())
                })
                .collect();
            let label = format!("p{}", q * 100.0);
            writeln!(out, "{}", format_row(&label, &cells))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 16: energy consumption normalized to Baseline (lower is better).
pub fn print_fig16(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 16: energy normalized to Baseline (lower is better) ---"
    )?;
    writeln!(out, "{}", format_row("app", &scheme_header()))?;
    let mut per_scheme: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for row in rows {
        let base = row.report(SchemeKind::Baseline).expect("baseline");
        let cells: Vec<String> = DEDUP_SCHEMES
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let n = row.report(kind).expect("scheme").normalized_to(base);
                per_scheme[i].push(n.energy_ratio);
                format!("{:.2}", n.energy_ratio)
            })
            .collect();
        writeln!(out, "{}", format_row(&row.app.name, &cells))?;
    }
    writeln!(
        out,
        "{}",
        format_row(
            "geomean",
            &per_scheme
                .iter()
                .map(|v| format!("{:.2}", geomean(v)))
                .collect::<Vec<_>>()
        )
    )?;
    writeln!(out)
}

/// Figure 17: write-latency decomposition (fractions of total write time).
pub fn print_fig17(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 17: write latency profile (aggregated over workloads) ---"
    )?;
    writeln!(
        out,
        "{}",
        format_row(
            "scheme",
            &esd_sim::WriteLatencyBreakdown::NAMES
                .iter()
                .map(|n| (*n).to_owned())
                .collect::<Vec<_>>()
        )
    )?;
    for &kind in &[
        SchemeKind::Baseline,
        SchemeKind::DedupSha1,
        SchemeKind::DeWrite,
        SchemeKind::Esd,
    ] {
        let mut total = esd_sim::WriteLatencyBreakdown::default();
        for row in rows {
            total.merge(&row.report(kind).expect("scheme").breakdown);
        }
        let f = total.fractions();
        writeln!(
            out,
            "{}",
            format_row(
                kind.name(),
                &f.iter()
                    .map(|v| format!("{:.1}%", v * 100.0))
                    .collect::<Vec<_>>()
            )
        )?;
    }
    writeln!(out)
}

/// Figure 19: metadata space overhead normalized to Dedup_SHA1.
pub fn print_fig19(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 19: metadata overhead normalized to Dedup_SHA1 (lower is better) ---"
    )?;
    writeln!(
        out,
        "{}",
        format_row(
            "app",
            &[
                "Dedup_SHA1".into(),
                "DeWrite".into(),
                "ESD".into(),
                "ESD(NVMM)".into()
            ]
        )
    )?;
    let mut sums = [0.0f64; 4];
    for row in rows {
        let sha1 = row
            .report(SchemeKind::DedupSha1)
            .expect("sha1")
            .metadata
            .total_bytes() as f64;
        let dewrite = row
            .report(SchemeKind::DeWrite)
            .expect("dewrite")
            .metadata
            .total_bytes() as f64;
        let esd = row.report(SchemeKind::Esd).expect("esd").metadata;
        let cells = [
            1.0,
            dewrite / sha1,
            esd.total_bytes() as f64 / sha1,
            esd.nvmm_bytes as f64 / sha1,
        ];
        for (s, c) in sums.iter_mut().zip(cells.iter()) {
            *s += c;
        }
        writeln!(
            out,
            "{}",
            format_row(
                &row.app.name,
                &cells.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>()
            )
        )?;
    }
    let n = rows.len() as f64;
    writeln!(
        out,
        "{}",
        format_row(
            "average",
            &sums
                .iter()
                .map(|s| format!("{:.2}", s / n))
                .collect::<Vec<_>>()
        )
    )?;
    writeln!(out)
}

/// Figure 5: duplicate lines filtered by cache- vs NVMM-resident
/// fingerprints, and the NVMM-lookup share of write latency, for the
/// full-deduplication scheme (Dedup_SHA1).
pub fn print_fig05(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 5: dup filtering source and NVMM-lookup overhead (Dedup_SHA1) ---"
    )?;
    writeln!(
        out,
        "{}",
        format_row(
            "app",
            &["cache_filt".into(), "nvmm_filt".into(), "lookup_lat".into()]
        )
    )?;
    let mut sums = [0.0f64; 3];
    for row in rows {
        let r = row.report(SchemeKind::DedupSha1).expect("sha1");
        let writes = r.stats.writes_received.max(1) as f64;
        let cache = r.stats.dedup_cache_filtered as f64 / writes;
        let nvmm = r.stats.dedup_nvmm_filtered as f64 / writes;
        // Index 2 of the seven-stage decomposition is `nvmm_lookup`.
        let lookup_share = r.breakdown.fractions()[2];
        sums[0] += cache;
        sums[1] += nvmm;
        sums[2] += lookup_share;
        writeln!(
            out,
            "{}",
            format_row(
                &row.app.name,
                &[
                    format!("{:.1}%", cache * 100.0),
                    format!("{:.1}%", nvmm * 100.0),
                    format!("{:.1}%", lookup_share * 100.0),
                ]
            )
        )?;
    }
    let n = rows.len() as f64;
    writeln!(
        out,
        "{}",
        format_row(
            "average",
            &sums
                .iter()
                .map(|s| format!("{:.1}%", s / n * 100.0))
                .collect::<Vec<_>>()
        )
    )?;
    writeln!(out)
}

/// Endurance summary (companion to Figure 11): peak per-line wear.
pub fn print_wear(rows: &[AppRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Endurance: peak per-line write count (lower is better) ---"
    )?;
    writeln!(
        out,
        "{}",
        format_row(
            "app",
            &[
                "Baseline".into(),
                "Dedup_SHA1".into(),
                "DeWrite".into(),
                "ESD".into()
            ]
        )
    )?;
    for row in rows {
        let cells: Vec<String> = SchemeKind::ALL
            .iter()
            .map(|&kind| row.report(kind).expect("scheme").max_wear.to_string())
            .collect();
        writeln!(out, "{}", format_row(&row.app.name, &cells))?;
    }
    writeln!(out)
}
