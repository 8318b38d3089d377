//! Every figure `esd-cli fig <name>` prints, by name.
//!
//! Each figure takes the [`Sweep`] the command line built (all 20
//! workloads, with the run length, seed, thread count and fault-injection
//! settings it was given), replaces its workloads with the figure's own
//! list and caps its run length where the figure is expensive. The
//! collision and wear-leveling figures replay no workload ([`SWEEPLESS`]):
//! `esd-cli` refuses every sweep flag for them.

use std::collections::HashMap;
use std::io::{self, Write};

use esd_core::{run_trace, EfitPolicy, RunOptions, Scheme, SchemeKind};
use esd_ecc::EccFingerprint;
use esd_hash::FingerprintKind;
use esd_sim::{AccessClass, PcmConfig, PcmDevice, PcmOp, Ps, StartGap};
use esd_trace::{
    duplicate_rate, generate_trace, interleave_traces, refcount_buckets, zero_line_rate,
    AppProfile, CacheLine, RefCountBuckets, TraceGenerator, Zipf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::figures::{self, CDF_APPS, DEDUP_SCHEMES};
use crate::{format_row, print_figure_header, Sweep};

/// A figure: writes itself to `out` from the sweep it is handed, stopping
/// at the first write that fails.
pub type Figure = fn(Sweep, &mut dyn Write) -> io::Result<()>;

/// The figures, in the order `scripts/regenerate-results.sh` writes them
/// to `results/<name>.txt`.
pub const FIGURES: [(&str, Figure); 12] = [
    ("fig_all", fig_all),
    ("fig01_dup_rate", fig01_dup_rate),
    ("fig02_worst_case", fig02_worst_case),
    ("fig03_content_locality", fig03_content_locality),
    ("fig08_collisions", fig08_collisions),
    ("fig18_cache_sweep", fig18_cache_sweep),
    ("ablation_counter_cache", ablation_counter_cache),
    ("ablation_extended", ablation_extended),
    ("ablation_mixed", ablation_mixed),
    ("ablation_selective", ablation_selective),
    ("ablation_sensitivity", ablation_sensitivity),
    ("ablation_wear_leveling", ablation_wear_leveling),
];

/// The figures that replay no workload: no knob of the sweep reaches
/// them.
pub const SWEEPLESS: [&str; 2] = ["fig08_collisions", "ablation_wear_leveling"];

/// The figure called `name`, if [`FIGURES`] has one.
#[must_use]
pub fn figure(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// The paper workloads named in `names`, in that order.
fn apps(names: &[&str]) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| AppProfile::by_name(n).expect("paper workload"))
        .collect()
}

/// Verification off: the cache and sensitivity sweeps measure timing only.
fn unverified() -> RunOptions {
    RunOptions {
        verify: false,
        ..RunOptions::default()
    }
}

/// Figures 5, 11–17 and 19 plus the endurance summary, from one 20-workload
/// x 4-scheme sweep.
fn fig_all(sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    print_figure_header(
        out,
        "Figures 5, 11-17, 19",
        "full evaluation sweep (single simulation pass)",
        &sweep,
    )?;
    let rows = sweep.run(&SchemeKind::ALL);
    figures::print_fig05(&rows, out)?;
    figures::print_fig11(&rows, out)?;
    figures::print_fig12(&rows, out)?;
    figures::print_fig13(&rows, out)?;
    figures::print_fig14(&rows, out)?;
    figures::print_fig15(&rows, out)?;
    figures::print_fig16(&rows, out)?;
    figures::print_fig17(&rows, out)?;
    figures::print_fig19(&rows, out)?;
    figures::print_wear(&rows, out)?;
    Ok(())
}

/// Figure 15's full write-latency CDF of one of [`CDF_APPS`], one
/// `latency_ns fraction` line per point, per dedup scheme (for plotting).
///
/// # Errors
///
/// The first write to `out` that fails.
///
/// # Panics
///
/// Panics if `app` is not one of [`CDF_APPS`].
pub fn fig15_cdf(mut sweep: Sweep, app: &str, out: &mut dyn Write) -> io::Result<()> {
    assert!(CDF_APPS.contains(&app), "fig15_cdf plots no {app:?}");
    // The header names the figure's sweep; only `app` is replayed, and
    // its trace depends on nothing but its profile and the seed.
    sweep.apps = apps(&CDF_APPS);
    print_figure_header(out, "Figure 15", "CDF of write latency", &sweep)?;
    sweep.apps = apps(&[app]);
    for (&kind, r) in DEDUP_SCHEMES
        .iter()
        .zip(&sweep.run(&DEDUP_SCHEMES)[0].reports)
    {
        writeln!(out, "[{app} / {kind}]")?;
        for (lat, frac) in r.write_latency.cdf() {
            writeln!(out, "{:.1} {:.5}", Ps(lat.as_ps()).as_ns_f64(), frac)?;
        }
    }
    Ok(())
}

/// Figure 1: duplicate rate of cache lines across the 20 applications.
///
/// Paper shape: 33.1% (leela) to 99.9% (deepsjeng, roms), average 62.9%.
fn fig01_dup_rate(sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    print_figure_header(out, "Figure 1", "Duplicate rate of cache lines", &sweep)?;
    writeln!(
        out,
        "{}",
        format_row("app", &["dup_rate".into(), "zero_lines".into()])
    )?;
    let rates = sweep.run_tasks(1, |_, trace, _| {
        (duplicate_rate(trace), zero_line_rate(trace))
    });
    let mut sum = 0.0;
    for (app, &(rate, zero)) in sweep.apps.iter().zip(&rates) {
        sum += rate;
        writeln!(
            out,
            "{}",
            format_row(
                &app.name,
                &[
                    format!("{:.1}%", rate * 100.0),
                    format!("{:.1}%", zero * 100.0)
                ]
            )
        )?;
    }
    writeln!(
        out,
        "{}",
        format_row(
            "average",
            &[
                format!("{:.1}%", sum / sweep.apps.len() as f64 * 100.0),
                String::new()
            ]
        )
    )
}

/// Figure 2: the dedup schemes' IPC normalized to the Baseline in the
/// worst case (leela — low duplicate rate — and lbm — write-intensive).
///
/// Paper shape: naive inline deduplication (Dedup_SHA1) *degrades*
/// performance substantially on these workloads; that observation
/// motivates ESD.
fn fig02_worst_case(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&["leela", "lbm"]);
    print_figure_header(
        out,
        "Figure 2",
        "Worst-case performance normalized to Baseline (IPC ratio)",
        &sweep,
    )?;
    let rows = sweep.run(&SchemeKind::ALL);
    writeln!(
        out,
        "{}",
        format_row(
            "app",
            &["Dedup_SHA1".into(), "DeWrite".into(), "ESD".into()]
        )
    )?;
    for row in &rows {
        let base = row.report(SchemeKind::Baseline).expect("baseline");
        let cells: Vec<String> = DEDUP_SCHEMES
            .iter()
            .map(|&kind| {
                let n = row.report(kind).expect("scheme").normalized_to(base);
                format!("{:.2}", n.ipc_ratio)
            })
            .collect();
        writeln!(out, "{}", format_row(&row.app.name, &cells))?;
    }
    Ok(())
}

/// Figure 3: (a) the cache-line distribution before deduplication and (b)
/// the occupied-space distribution after it, bucketed by reference count
/// (num1, num10, num100, num1000, num1000+).
///
/// Paper shape: strong content locality — lines referenced >1000 times are
/// ~0.08% of unique lines but ~42.7% of pre-dedup storage volume.
fn fig03_content_locality(sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    print_figure_header(
        out,
        "Figure 3",
        "Content locality (reference-count buckets)",
        &sweep,
    )?;
    let header: Vec<String> = ["num1", "num10", "num100", "num1000", "num1000+"]
        .map(str::to_owned)
        .to_vec();
    let all_buckets = sweep.run_tasks(1, |_, trace, _| refcount_buckets(trace));
    let n = sweep.apps.len() as f64;
    let table = |out: &mut dyn Write,
                 title: &str,
                 decimals: usize,
                 fractions: fn(&RefCountBuckets) -> [f64; 5]|
     -> io::Result<()> {
        writeln!(out, "{title}")?;
        writeln!(out, "{}", format_row("app", &header))?;
        let mut sum = [0.0f64; 5];
        for (app, buckets) in sweep.apps.iter().zip(&all_buckets) {
            let f = fractions(buckets);
            for (s, v) in sum.iter_mut().zip(f) {
                *s += v;
            }
            let cells: Vec<String> = f
                .iter()
                .map(|v| format!("{:.decimals$}%", v * 100.0))
                .collect();
            writeln!(out, "{}", format_row(&app.name, &cells))?;
        }
        let averages: Vec<String> = sum
            .iter()
            .map(|s| format!("{:.decimals$}%", s / n * 100.0))
            .collect();
        writeln!(out, "{}", format_row("average", &averages))
    };
    table(
        out,
        "(a) unique-line distribution before deduplication",
        2,
        RefCountBuckets::content_fractions,
    )?;
    writeln!(out)?;
    table(
        out,
        "(b) pre-dedup storage volume by reference-count bucket",
        1,
        RefCountBuckets::volume_fractions,
    )
}

/// Lines per collision corpus.
const CORPUS_LINES: usize = 200_000;

#[derive(Clone, Copy)]
enum Mutation {
    None,
    BitFlips,
    ByteRewrites,
}

fn corpus(mutation: Mutation, seed: u64) -> Vec<[u8; 64]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(CORPUS_LINES);
    let base_count = match mutation {
        Mutation::None => CORPUS_LINES,
        _ => CORPUS_LINES / 2,
    };
    for i in 0..base_count {
        lines.push(CacheLine::from_seed(seed.wrapping_add(i as u64)).into_bytes());
    }
    while lines.len() < CORPUS_LINES {
        let mut m = lines[rng.gen_range(0..base_count)];
        let edits = rng.gen_range(1..=2);
        for _ in 0..edits {
            match mutation {
                Mutation::None => unreachable!("random corpus needs no mutations"),
                Mutation::BitFlips => m[rng.gen_range(0..64)] ^= 1 << rng.gen_range(0..8),
                Mutation::ByteRewrites => m[rng.gen_range(0..64)] ^= rng.gen_range(1..=255u8),
            }
        }
        lines.push(m);
    }
    lines
}

/// Counts colliding pairs: distinct contents sharing a fingerprint.
fn collisions(lines: &[[u8; 64]], fp: impl Fn(&[u8; 64]) -> u64) -> u64 {
    let mut groups: HashMap<u64, Vec<&[u8; 64]>> = HashMap::new();
    for line in lines {
        groups.entry(fp(line)).or_default().push(line);
    }
    let mut collisions = 0u64;
    for group in groups.values() {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                if a != b {
                    collisions += 1;
                }
            }
        }
    }
    collisions
}

fn fingerprint_of(name: &str) -> impl Fn(&[u8; 64]) -> u64 + '_ {
    move |line| match name {
        "ECC" => EccFingerprint::of_line(line).to_u64(),
        "ECC-Hsiao" => esd_ecc::hsiao::encode_line(line),
        "CRC32" => FingerprintKind::Crc32.compute_key(line).expect("key"),
        "CRC64" => FingerprintKind::Crc64.compute_key(line).expect("key"),
        "MD5" => FingerprintKind::Md5.compute_key(line).expect("key"),
        "SHA1" => FingerprintKind::Sha1.compute_key(line).expect("key"),
        other => unreachable!("unknown fingerprint {other}"),
    }
}

/// Figure 8: colliding pairs of each fingerprint family over three
/// corpora of [`CORPUS_LINES`] lines (seed 7, whatever the sweep says).
///
/// Two distinct lines "collide" when their fingerprints match. A colliding
/// filter forces an extra verify read (ESD, DeWrite) or silently corrupts
/// data (hash-trusting schemes). The corpora:
///
/// * `random`   — independent random lines (the birthday-bound regime);
/// * `bit-flip` — 1–2 single-bit mutations of existing lines (SEC-DED's
///   minimum distance of 4 makes ECC *provably* collision-free here);
/// * `byte-mut` — 1–2 random byte rewrites (adversarial for per-word ECC:
///   a localized >=4-bit XOR pattern can be a valid Hamming codeword).
///
/// The last corpus is where this reproduction *diverges* from the paper's
/// Figure 8: a real per-word Hamming(72,64) fingerprint collides more often
/// than CRC-32 under small byte-granularity edits. ESD remains correct
/// regardless (collisions only cost a verify read); EXPERIMENTS.md
/// discusses it.
fn fig08_collisions(_: Sweep, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "=== Figure 8: fingerprint collision rates (normalized to CRC32) ==="
    )?;
    writeln!(out, "    (corpus: {CORPUS_LINES} lines per variant)")?;
    writeln!(out)?;

    let families = ["ECC", "ECC-Hsiao", "CRC32", "CRC64", "MD5", "SHA1"];
    let corpora = [
        ("random", Mutation::None),
        ("bit-flip", Mutation::BitFlips),
        ("byte-mut", Mutation::ByteRewrites),
    ];
    writeln!(
        out,
        "{}",
        format_row("fingerprint", &corpora.map(|(n, _)| n.to_owned()))
    )?;
    for family in families {
        let row: Vec<String> = corpora
            .iter()
            .map(|&(_, mutation)| {
                collisions(&corpus(mutation, 7), fingerprint_of(family)).to_string()
            })
            .collect();
        writeln!(out, "{}", format_row(family, &row))?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "colliding pairs, absolute. SEC-DED distance 4 makes ECC immune to"
    )?;
    writeln!(
        out,
        "1-2 bit flips; localized byte rewrites can land on Hamming codewords,"
    )?;
    writeln!(
        out,
        "where ECC collides more than CRC32 — a divergence from the paper's"
    )?;
    writeln!(
        out,
        "idealized Figure 8 that ESD's verify read absorbs without data loss."
    )
}

const SIZES_KB: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
const POLICIES: [EfitPolicy; 2] = [EfitPolicy::Lrcu, EfitPolicy::Lru];
/// Per app, task `k * 2 + p` is the EFIT at `SIZES_KB[k]` under
/// `POLICIES[p]`; task `EFIT_TASKS + k` is the AMT at `SIZES_KB[k]`.
const EFIT_TASKS: usize = SIZES_KB.len() * POLICIES.len();
const CACHE_TASKS: usize = EFIT_TASKS + SIZES_KB.len();

/// Figure 18: EFIT hit rate (LRCU and LRU) and AMT hit rate against
/// metadata-cache size, averaged over the eight [`CDF_APPS`] (the sweep
/// is 18 replays per workload), at most 500 000 accesses each.
///
/// Paper shape: hit rates climb steeply until ~512 KB and then flatten —
/// the justification for Table I's 512 KB metadata caches — and LRCU beats
/// plain LRU at every size.
fn fig18_cache_sweep(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&CDF_APPS);
    sweep.accesses = sweep.accesses.min(500_000);
    print_figure_header(
        out,
        "Figure 18",
        "EFIT (a) and AMT (b) hit rates vs cache size",
        &sweep,
    )?;

    let hit_rates = sweep.run_tasks(CACHE_TASKS, |_, trace, i| {
        let mut config = sweep.config;
        if i < EFIT_TASKS {
            config.controller.fingerprint_cache_bytes = SIZES_KB[i / POLICIES.len()] << 10;
            let scheme = Scheme::with_policy(&config, POLICIES[i % POLICIES.len()]);
            let report = run_trace(scheme, trace, &config, &unverified()).expect("unverified run");
            report
                .fingerprint_cache
                .expect("ESD has an EFIT")
                .hit_rate()
        } else {
            config.controller.mapping_cache_bytes = SIZES_KB[i - EFIT_TASKS] << 10;
            let scheme = Scheme::new(SchemeKind::Esd, &config);
            let report = run_trace(scheme, trace, &config, &unverified()).expect("unverified run");
            report.amt_cache.expect("ESD has an AMT").hit_rate()
        }
    });
    // Task `i`'s hit rate averaged over the apps, summed in app order.
    let mean = |i: usize| {
        let sum = hit_rates
            .iter()
            .skip(i)
            .step_by(CACHE_TASKS)
            .fold(0.0, |s, r| s + r);
        sum / sweep.apps.len() as f64
    };
    let percent = |rate: f64| format!("{:.2}%", rate * 100.0);

    writeln!(out, "(a) EFIT hit rate")?;
    writeln!(
        out,
        "{}",
        format_row("size", &["LRCU".into(), "LRU".into()])
    )?;
    for (k, kb) in SIZES_KB.iter().enumerate() {
        let rates: Vec<String> = (0..POLICIES.len())
            .map(|p| percent(mean(k * POLICIES.len() + p)))
            .collect();
        writeln!(out, "{}", format_row(&format!("{kb}KB"), &rates))?;
    }

    writeln!(out)?;
    writeln!(out, "(b) AMT hit rate")?;
    writeln!(out, "{}", format_row("size", &["AMT".into()]))?;
    for (k, kb) in SIZES_KB.iter().enumerate() {
        let rate = percent(mean(EFIT_TASKS + k));
        writeln!(out, "{}", format_row(&format!("{kb}KB"), &[rate]))?;
    }
    Ok(())
}

/// Counter-cache sizes, `0` being the paper's always-resident counters.
const COUNTER_CACHES: [(&str, u64); 4] = [
    ("ideal", 0),
    ("64KB", 64 << 10),
    ("256KB", 256 << 10),
    ("1MB", 1 << 20),
];

/// Ablation: the encryption-counter residency assumption (gcc and lbm, at
/// most 300 000 accesses).
///
/// The paper (like most dedup-for-NVMM work) assumes counter-mode
/// encryption counters are always available in the controller. Real secure
/// memories cache counters and pay an NVMM read on a miss (split-counter
/// layout, as in SuperMem). This measures how ESD's results move when that
/// assumption is relaxed.
fn ablation_counter_cache(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&["gcc", "lbm"]);
    sweep.accesses = sweep.accesses.min(300_000);
    print_figure_header(
        out,
        "Ablation: counter cache",
        "ESD under finite encryption-counter caches",
        &sweep,
    )?;

    writeln!(
        out,
        "{}",
        format_row(
            "app/ctr-cache",
            &[
                "write_avg".into(),
                "read_avg".into(),
                "ctr_hit".into(),
                "meta_rd".into()
            ]
        )
    )?;
    let rows = sweep.run_tasks(COUNTER_CACHES.len(), |app, trace, c| {
        let (label, bytes) = COUNTER_CACHES[c];
        let mut config = sweep.config;
        config.controller.counter_cache_bytes = bytes;
        let scheme = Scheme::new(SchemeKind::Esd, &config);
        let report = run_trace(scheme, trace, &config, &RunOptions::default()).expect("verified");
        format_row(
            &format!("{}/{}", app.name, label),
            &[
                report.avg_write_latency().to_string(),
                report.avg_read_latency().to_string(),
                String::from("-"),
                report.pcm.metadata.reads.to_string(),
            ],
        )
    });
    for app_rows in rows.chunks(COUNTER_CACHES.len()) {
        for row in app_rows {
            writeln!(out, "{row}")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "the ideal row reproduces the paper's assumption; finite caches add"
    )?;
    writeln!(
        out,
        "counter-fill reads to the access path, shrinking (not erasing) ESD's win."
    )
}

/// Verification on, except for `ESD_NoVerify`, which aliases colliding
/// lines by design and is reported for its (unsafe) performance.
fn options_for(kind: SchemeKind) -> RunOptions {
    RunOptions {
        verify: kind != SchemeKind::EsdNoVerify,
        ..RunOptions::default()
    }
}

/// Extended comparison: the paper's four systems plus Dedup_MD5, PDE
/// (Parallelism of Deduplication and Encryption, §II-C) and the two ESD
/// ablations, on deepsjeng, gcc, lbm and leela.
///
/// PDE hides hash latency behind encryption for every line but wastes
/// cryptographic energy on duplicates — the reason the paper rejects it.
fn ablation_extended(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&["deepsjeng", "gcc", "lbm", "leela"]);
    print_figure_header(
        out,
        "Extended comparison",
        "all eight schemes (incl. Dedup_MD5 and PDE)",
        &sweep,
    )?;

    let rows = sweep.run_tasks(SchemeKind::EXTENDED.len(), |_, trace, s| {
        let kind = SchemeKind::EXTENDED[s];
        let scheme = Scheme::new(kind, &sweep.config);
        let report = run_trace(scheme, trace, &sweep.config, &options_for(kind))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        format_row(
            kind.name(),
            &[
                report.avg_write_latency().to_string(),
                report.avg_read_latency().to_string(),
                format!("{:.2}", report.ipc),
                format!("{:.1}", report.total_energy().as_uj_f64()),
                report.stats.writes_deduplicated.to_string(),
            ],
        )
    });
    for (app, app_rows) in sweep
        .apps
        .iter()
        .zip(rows.chunks(SchemeKind::EXTENDED.len()))
    {
        writeln!(out, "[{}]", app.name)?;
        writeln!(
            out,
            "{}",
            format_row(
                "scheme",
                &[
                    "write_avg".into(),
                    "read_avg".into(),
                    "ipc".into(),
                    "energy_uJ".into(),
                    "dedup".into(),
                ]
            )
        )?;
        for row in app_rows {
            writeln!(out, "{row}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

const MIXES: [[&str; 4]; 3] = [
    ["gcc", "lbm", "leela", "x264"],
    ["deepsjeng", "mcf", "bodytrack", "swaptions"],
    ["blackscholes", "dedup", "wrf", "namd"],
];

/// Multi-programmed mixes: four co-running applications share the memory
/// controller, so the dedup structures juggle several applications'
/// content at once — the closest this harness gets to the paper's 8-core
/// full-system runs. At most 250 000 accesses per component; the mixes
/// replay one after another on the calling thread.
fn ablation_mixed(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = Vec::new();
    sweep.accesses = sweep.accesses.min(250_000);
    print_figure_header(
        out,
        "Mixed workloads",
        "four co-running applications per mix",
        &sweep,
    )?;

    // Every component's address distribution is cut from one set of
    // running sums, built for the largest working set of any mix.
    let mixes = MIXES.map(|mix_apps| apps(&mix_apps));
    let sums = TraceGenerator::address_sums(mixes.iter().flatten());
    for mix_apps in mixes {
        // The component traces go as soon as they are interleaved: only
        // the mix is replayed.
        let mixed = {
            let traces: Vec<_> = mix_apps
                .into_iter()
                .map(|app| {
                    TraceGenerator::with_sums(app, sweep.seed, &sums).generate(sweep.accesses)
                })
                .collect();
            interleave_traces(&traces, 1 << 36)
        };
        writeln!(out, "[{}] ({} accesses)", mixed.name, mixed.len())?;
        writeln!(
            out,
            "{}",
            format_row(
                "scheme",
                &[
                    "write_avg".into(),
                    "read_avg".into(),
                    "ipc".into(),
                    "dedup%".into()
                ]
            )
        )?;
        for kind in SchemeKind::ALL {
            let scheme = Scheme::new(kind, &sweep.config);
            let report =
                run_trace(scheme, &mixed, &sweep.config, &RunOptions::default()).expect("verified");
            writeln!(
                out,
                "{}",
                format_row(
                    kind.name(),
                    &[
                        report.avg_write_latency().to_string(),
                        report.avg_read_latency().to_string(),
                        format!("{:.2}", report.ipc),
                        format!("{:.1}%", report.write_reduction() * 100.0),
                    ]
                )
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

const SELECTIVE_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::Esd,
    SchemeKind::EsdFull,
    SchemeKind::EsdNoVerify,
];

/// Ablation: the two design choices that make ESD *ESD*, on gcc, leela,
/// lbm and x264.
///
/// * **Selectivity** — `ESD_Full` keeps ECC fingerprints for *every* line
///   (full store in NVMM). It catches more duplicates but re-introduces the
///   fingerprint NVMM lookups the paper's Figure 5 indicts.
/// * **The verify read** — `ESD_NoVerify` trusts ECC equality outright.
///   It shaves the compare read off the dedup path but silently aliases
///   colliding lines (its replay is not verified).
fn ablation_selective(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&["gcc", "leela", "lbm", "x264"]);
    print_figure_header(
        out,
        "Ablation: selectivity and verify read",
        "ESD vs full-store ESD vs no-verify ESD",
        &sweep,
    )?;

    writeln!(
        out,
        "{}",
        format_row(
            "app/scheme",
            &[
                "write_spd".into(),
                "dedup".into(),
                "fp_nvmm_rd".into(),
                "meta_nvmm_B".into(),
            ]
        )
    )?;
    let reports = sweep.run_tasks(SELECTIVE_SCHEMES.len(), |_, trace, s| {
        let kind = SELECTIVE_SCHEMES[s];
        let scheme = Scheme::new(kind, &sweep.config);
        run_trace(scheme, trace, &sweep.config, &options_for(kind))
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
    });
    for (app, reports) in sweep
        .apps
        .iter()
        .zip(reports.chunks(SELECTIVE_SCHEMES.len()))
    {
        // SELECTIVE_SCHEMES[0] is Baseline: every speedup is against it.
        let baseline_write = reports[0].avg_write_latency().as_ns_f64();
        for (i, (kind, report)) in SELECTIVE_SCHEMES.iter().zip(reports).enumerate() {
            let speedup = if i == 0 {
                1.0
            } else {
                baseline_write / report.avg_write_latency().as_ns_f64()
            };
            writeln!(
                out,
                "{}",
                format_row(
                    &format!("{}/{}", app.name, kind.name()),
                    &[
                        format!("{speedup:.2}x"),
                        report.stats.writes_deduplicated.to_string(),
                        report.pcm.metadata.reads.to_string(),
                        report.metadata.nvmm_bytes.to_string(),
                    ]
                )
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "reading: selectivity trades some dedup count for zero fingerprint"
    )?;
    writeln!(
        out,
        "NVMM reads; the verify read costs little and buys correctness."
    )
}

/// Sensitivity to the simulator's structural parameters that Table I does
/// not pin down: write-buffer depth and PCM bank count (lbm, Baseline vs
/// ESD), and the EFIT decay interval (gcc), at most 300 000 accesses, one
/// replay after another on the calling thread.
fn ablation_sensitivity(mut sweep: Sweep, out: &mut dyn Write) -> io::Result<()> {
    sweep.apps = apps(&["lbm"]);
    sweep.accesses = sweep.accesses.min(300_000);
    print_figure_header(
        out,
        "Sensitivity",
        "write-buffer depth and bank count (lbm, Baseline vs ESD)",
        &sweep,
    )?;
    let trace = generate_trace(&sweep.apps[0], sweep.seed, sweep.accesses);

    writeln!(out, "(a) write-buffer depth")?;
    writeln!(
        out,
        "{}",
        format_row(
            "depth",
            &[
                "base_w_avg".into(),
                "esd_w_avg".into(),
                "base_ipc".into(),
                "esd_ipc".into()
            ]
        )
    )?;
    for depth in [4u32, 8, 16, 32, 64, 128] {
        let mut config = sweep.config;
        config.controller.write_buffer_depth = depth;
        let mut cells = Vec::new();
        let mut ipcs = Vec::new();
        for kind in [SchemeKind::Baseline, SchemeKind::Esd] {
            let scheme = Scheme::new(kind, &config);
            let report = run_trace(scheme, &trace, &config, &unverified()).expect("run");
            cells.push(report.avg_write_latency().to_string());
            ipcs.push(format!("{:.2}", report.ipc));
        }
        cells.extend(ipcs);
        writeln!(out, "{}", format_row(&depth.to_string(), &cells))?;
    }

    writeln!(out)?;
    writeln!(out, "(b) PCM bank count")?;
    writeln!(
        out,
        "{}",
        format_row(
            "banks",
            &[
                "base_w_avg".into(),
                "esd_w_avg".into(),
                "esd_speedup".into()
            ]
        )
    )?;
    for banks in [4u32, 8, 16, 32] {
        let mut config = sweep.config;
        config.pcm.banks = banks;
        let latencies: Vec<f64> = [SchemeKind::Baseline, SchemeKind::Esd]
            .iter()
            .map(|&kind| {
                let scheme = Scheme::new(kind, &config);
                let report = run_trace(scheme, &trace, &config, &unverified()).expect("run");
                report.avg_write_latency().as_ns_f64()
            })
            .collect();
        writeln!(
            out,
            "{}",
            format_row(
                &banks.to_string(),
                &[
                    format!("{:.0}ns", latencies[0]),
                    format!("{:.0}ns", latencies[1]),
                    format!("{:.2}x", latencies[0] / latencies[1]),
                ]
            )
        )?;
    }

    writeln!(out)?;
    writeln!(out, "(c) EFIT decay interval (LRCU refresh, gcc)")?;
    let gcc_trace = generate_trace(&apps(&["gcc"])[0], sweep.seed, sweep.accesses);
    writeln!(
        out,
        "{}",
        format_row("interval", &["dedup".into(), "efit_hit".into()])
    )?;
    for interval in [1024u64, 4096, 8192, 32768, u64::MAX] {
        let mut scheme = Scheme::new(SchemeKind::Esd, &sweep.config);
        scheme.efit_decay_interval(interval);
        let report = run_trace(scheme, &gcc_trace, &sweep.config, &unverified()).expect("run");
        let label = if interval == u64::MAX {
            "never".to_owned()
        } else {
            interval.to_string()
        };
        writeln!(
            out,
            "{}",
            format_row(
                &label,
                &[
                    report.stats.writes_deduplicated.to_string(),
                    format!(
                        "{:.1}%",
                        report.fingerprint_cache.map_or(0.0, |c| c.hit_rate()) * 100.0
                    ),
                ]
            )
        )?;
    }
    Ok(())
}

const WEAR_LINES: u64 = 4096;
const WEAR_WRITES: usize = 400_000;

/// Peak and mean per-line wear, and the leveler's extra device
/// operations, for [`WEAR_WRITES`] Zipf(1.1) writes over [`WEAR_LINES`]
/// lines with Start-Gap moving its gap every `gap_interval` writes (`None`:
/// no leveling).
fn wear_run(gap_interval: Option<u32>) -> (u64, f64, u64) {
    let mut pcm = PcmDevice::new(PcmConfig::default());
    let mut leveler = gap_interval.map(|g| StartGap::new(WEAR_LINES, g));
    let zipf = Zipf::new(WEAR_LINES as usize, 1.1);
    let mut rng = StdRng::seed_from_u64(7);
    let mut wear: HashMap<u64, u64> = HashMap::new();
    let mut extra_ops = 0u64;
    let mut now = Ps::ZERO;

    for _ in 0..WEAR_WRITES {
        let logical = zipf.sample(&mut rng) as u64;
        let physical = leveler.as_ref().map_or(logical, |l| l.translate(logical));
        pcm.access(now, physical * 64, PcmOp::Write, AccessClass::Data);
        *wear.entry(physical).or_insert(0) += 1;
        if let Some(leveler) = leveler.as_mut() {
            if let Some(mv) = leveler.on_write() {
                // The gap move is one read plus one write of real traffic.
                pcm.access(now, mv.from * 64, PcmOp::Read, AccessClass::Metadata);
                pcm.access(now, mv.to * 64, PcmOp::Write, AccessClass::Metadata);
                *wear.entry(mv.to).or_insert(0) += 1;
                extra_ops += 2;
            }
        }
        now += Ps::from_ns(50);
    }

    let max_wear = wear.values().copied().max().unwrap_or(0);
    let mean_wear = wear.values().copied().sum::<u64>() as f64 / wear.len() as f64;
    (max_wear, mean_wear, extra_ops)
}

/// Ablation: Start-Gap wear leveling under a write hot spot, on the raw
/// device (no workload, so the sweep is ignored).
///
/// Deduplication reduces total writes; wear leveling spreads the remainder.
/// This reports the peak per-line wear with and without Start-Gap, plus the
/// extra copy traffic the leveler costs.
fn ablation_wear_leveling(_: Sweep, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "=== Ablation: Start-Gap wear leveling ===")?;
    writeln!(
        out,
        "    ({WEAR_WRITES} Zipf(1.1) writes over {WEAR_LINES} lines)"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>12} {:>12}",
        "config", "max_wear", "mean_wear", "max/mean", "extra_ops"
    )?;
    for (label, interval) in [
        ("no leveling", None),
        ("gap every 128", Some(128u32)),
        ("gap every 32", Some(32)),
        ("gap every 8", Some(8)),
    ] {
        let (max, mean, extra) = wear_run(interval);
        writeln!(
            out,
            "{:<16} {:>10} {:>10.1} {:>12.2} {:>12}",
            label,
            max,
            mean,
            max as f64 / mean,
            extra
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "smaller gap intervals flatten the wear distribution (max/mean -> 1)"
    )?;
    writeln!(out, "at the price of proportionally more copy traffic.")
}
