//! Run reports: everything the paper's figures are computed from.

use esd_obs::{EpochSnapshot, Obs};
use esd_sim::{
    CacheStats, Energy, FaultStats, LatencyHistogram, PcmStats, Ps, WriteLatencyBreakdown,
};

use crate::journal::RecoveryReport;
use crate::predictor::PredictorStats;
use crate::scheme::{MetadataFootprint, SchemeKind, SchemeStats};
use crate::scrub::ScrubStats;

/// Reliability-subsystem accounting for one run: what the fault injector
/// did to the medium and what the background scrubber repaired. All-zero
/// when fault injection and scrubbing are off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityReport {
    /// Fault-injector counters (bits flipped into the medium).
    pub faults: FaultStats,
    /// Background-scrub counters.
    pub scrub: ScrubStats,
}

/// The complete result of replaying one trace through one scheme.
///
/// `PartialEq` compares every field (histograms included), so two reports
/// are equal only if the runs were byte-identical — the property the
/// parallel sweep's determinism test leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Workload name.
    pub app: String,
    /// Scheme-level counters.
    pub stats: SchemeStats,
    /// Device-level counters (reads/writes/energy by class).
    pub pcm: PcmStats,
    /// Write-path latency distribution (Figure 15's CDF source).
    pub write_latency: LatencyHistogram,
    /// Read latency distribution.
    pub read_latency: LatencyHistogram,
    /// The seven-stage write-latency decomposition (Figure 17). The stages
    /// partition every write's end-to-end latency exactly.
    pub breakdown: WriteLatencyBreakdown,
    /// Instructions per cycle achieved (Figure 14).
    pub ipc: f64,
    /// Fingerprint-structure cache statistics, if any (EFIT for ESD).
    pub fingerprint_cache: Option<CacheStats>,
    /// AMT cache statistics, if any.
    pub amt_cache: Option<CacheStats>,
    /// Metadata footprint at end of run (Figure 19).
    pub metadata: MetadataFootprint,
    /// Peak per-line write count (endurance hot spot).
    pub max_wear: u64,
    /// Total Start-Gap wear-leveling rotations performed across the run
    /// (zero when wear leveling is off).
    pub wear_moves: u64,
    /// Fault-injection and scrub accounting (all-zero when disabled).
    pub reliability: ReliabilityReport,
    /// Periodic time-series snapshots (empty unless the run asked for
    /// epoch collection via [`crate::RunOptions::epoch_interval`]).
    pub epochs: Vec<EpochSnapshot>,
    /// Duplication-predictor accuracy counters, for schemes that predict
    /// (DeWrite's F2/F4 analysis); `None` for the rest.
    pub predictor: Option<PredictorStats>,
    /// The observability collector extracted from the scheme at end of run:
    /// trace events and the metrics registry. `None` unless the run enabled
    /// tracing via [`crate::RunOptions::observe`].
    pub obs: Option<Obs>,
    /// What the injected power-loss crash cost to recover from. `None`
    /// unless the run injected a crash via
    /// [`crate::RunOptions::crash_at`].
    pub recovery: Option<RecoveryReport>,
}

impl RunReport {
    /// Mean write-path latency.
    #[must_use]
    pub fn avg_write_latency(&self) -> Ps {
        self.write_latency.mean()
    }

    /// Mean read latency.
    #[must_use]
    pub fn avg_read_latency(&self) -> Ps {
        self.read_latency.mean()
    }

    /// Total energy: device accesses plus fingerprint/crypto computation.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.pcm.total_energy() + self.stats.compute_energy
    }

    /// Data-line writes that actually reached NVMM (Figure 11's numerator).
    #[must_use]
    pub fn nvmm_data_writes(&self) -> u64 {
        self.pcm.data.writes
    }

    /// Fraction of incoming writes eliminated by deduplication.
    #[must_use]
    pub fn write_reduction(&self) -> f64 {
        if self.stats.writes_received == 0 {
            0.0
        } else {
            self.stats.writes_deduplicated as f64 / self.stats.writes_received as f64
        }
    }

    /// A multi-line human-readable summary of this run.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} on {}", self.scheme, self.app);
        let _ = writeln!(
            out,
            "  writes: {} received, {} unique, {} deduplicated ({:.1}%)",
            self.stats.writes_received,
            self.stats.writes_unique,
            self.stats.writes_deduplicated,
            self.write_reduction() * 100.0
        );
        let _ = writeln!(
            out,
            "  latency: write avg {} p99 {}, read avg {}",
            self.avg_write_latency(),
            self.write_latency.percentile(0.99),
            self.avg_read_latency()
        );
        let _ = writeln!(
            out,
            "  device: {} data writes, {} data reads, {} metadata accesses",
            self.pcm.data.writes,
            self.pcm.data.reads,
            self.pcm.metadata.reads + self.pcm.metadata.writes
        );
        let _ = writeln!(
            out,
            "  ipc {:.2} | energy {} | peak wear {} | metadata {} B NVMM + {} B SRAM",
            self.ipc,
            self.total_energy(),
            self.max_wear,
            self.metadata.nvmm_bytes,
            self.metadata.sram_bytes
        );
        if self.reliability.faults.bits_flipped() > 0 || self.stats.reads_uncorrectable > 0 {
            let _ = writeln!(
                out,
                "  reliability: {} bits flipped ({} in stored ECC), {} reads corrected, \
                 {} uncorrectable ({} logical lines lost), {} miscorrections, {} fp drift",
                self.reliability.faults.bits_flipped(),
                self.reliability.faults.ecc_bits_flipped,
                self.stats.reads_corrected,
                self.stats.reads_uncorrectable,
                self.stats.uncorrectable_blast_logicals,
                self.stats.miscorrections,
                self.stats.efit_fingerprint_drift
            );
        }
        if let Some(p) = &self.predictor {
            match p.accuracy() {
                Some(acc) => {
                    let _ = writeln!(
                        out,
                        "  predictor: {:.1}% accurate over {} outcomes \
                         ({} F2/F4 mispredictions charged)",
                        acc * 100.0,
                        p.total(),
                        self.stats.mispredictions
                    );
                }
                None => {
                    let _ = writeln!(out, "  predictor: no outcomes recorded");
                }
            }
        }
        if !self.epochs.is_empty() {
            let _ = writeln!(out, "  epochs: {} snapshots collected", self.epochs.len());
        }
        if self.reliability.scrub.lines_scanned > 0 {
            let _ = writeln!(
                out,
                "  scrub: {} ticks, {} lines scanned, {} corrected ({} miscorrective), \
                 {} uncorrectable",
                self.reliability.scrub.ticks,
                self.reliability.scrub.lines_scanned,
                self.reliability.scrub.lines_corrected,
                self.reliability.scrub.lines_miscorrected,
                self.reliability.scrub.lines_uncorrectable
            );
        }
        if let Some(r) = &self.recovery {
            let journal = match r.journal_interval {
                Some(n) => format!("journal every {n}"),
                None => "no journal (full scan)".into(),
            };
            let _ = writeln!(
                out,
                "  recovery: crash at access {} ({}), {}; {} records replayed over \
                 {} reads, {} pins released, {} torn rollbacks, {} refcounts leaked, \
                 latency {} energy {} pJ",
                r.crash_access,
                r.crash_stage,
                journal,
                r.records_replayed,
                r.replay_reads,
                r.pins_released,
                r.torn_rollbacks,
                r.refcounts_leaked,
                r.latency,
                r.energy_pj
            );
        }
        out
    }
}

/// A report normalized against the Baseline run of the same workload — the
/// form every figure in the paper uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalized {
    /// Baseline average write latency / this scheme's (higher is better).
    pub write_speedup: f64,
    /// Baseline average read latency / this scheme's (higher is better).
    pub read_speedup: f64,
    /// This scheme's IPC / Baseline's (higher is better).
    pub ipc_ratio: f64,
    /// This scheme's total energy / Baseline's (lower is better).
    pub energy_ratio: f64,
    /// This scheme's NVMM data writes / Baseline's (lower is better).
    pub write_traffic_ratio: f64,
}

impl RunReport {
    /// Normalizes this report against a baseline run of the same workload.
    ///
    /// # Panics
    ///
    /// Panics if the two reports are for different workloads.
    #[must_use]
    pub fn normalized_to(&self, baseline: &RunReport) -> Normalized {
        assert_eq!(self.app, baseline.app, "normalize within one workload");
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        Normalized {
            write_speedup: ratio(
                baseline.avg_write_latency().as_ps() as f64,
                self.avg_write_latency().as_ps() as f64,
            ),
            read_speedup: ratio(
                baseline.avg_read_latency().as_ps() as f64,
                self.avg_read_latency().as_ps() as f64,
            ),
            ipc_ratio: ratio(self.ipc, baseline.ipc),
            energy_ratio: ratio(
                self.total_energy().as_pj() as f64,
                baseline.total_energy().as_pj() as f64,
            ),
            write_traffic_ratio: ratio(
                self.nvmm_data_writes() as f64,
                baseline.nvmm_data_writes() as f64,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(scheme: SchemeKind, write_ns: u64, ipc: f64) -> RunReport {
        let mut write_latency = LatencyHistogram::new();
        write_latency.record(Ps::from_ns(write_ns));
        let mut read_latency = LatencyHistogram::new();
        read_latency.record(Ps::from_ns(80));
        RunReport {
            scheme,
            app: "demo".into(),
            stats: SchemeStats {
                writes_received: 10,
                writes_deduplicated: 4,
                ..SchemeStats::default()
            },
            pcm: PcmStats::default(),
            write_latency,
            read_latency,
            breakdown: WriteLatencyBreakdown::default(),
            ipc,
            fingerprint_cache: None,
            amt_cache: None,
            metadata: MetadataFootprint::default(),
            max_wear: 1,
            wear_moves: 0,
            reliability: ReliabilityReport::default(),
            epochs: Vec::new(),
            predictor: None,
            obs: None,
            recovery: None,
        }
    }

    #[test]
    fn summary_surfaces_predictor_accuracy() {
        let mut r = dummy(SchemeKind::DeWrite, 100, 1.0);
        assert!(!r.summary().contains("predictor"), "no predictor, no line");
        r.predictor = Some(PredictorStats {
            correct: 3,
            incorrect: 1,
        });
        assert!(r.summary().contains("75.0% accurate over 4 outcomes"));
        r.predictor = Some(PredictorStats::default());
        assert!(r.summary().contains("no outcomes recorded"));
    }

    #[test]
    fn write_reduction_is_dedup_fraction() {
        let r = dummy(SchemeKind::Esd, 100, 1.0);
        assert!((r.write_reduction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn normalization_ratios() {
        let base = dummy(SchemeKind::Baseline, 200, 1.0);
        let esd = dummy(SchemeKind::Esd, 100, 2.0);
        let n = esd.normalized_to(&base);
        assert!(
            (n.write_speedup - 2.0).abs() < 0.15,
            "bucket rounding tolerated"
        );
        assert!((n.ipc_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "normalize within one workload")]
    fn cross_app_normalization_panics() {
        let base = dummy(SchemeKind::Baseline, 200, 1.0);
        let mut other = dummy(SchemeKind::Esd, 100, 2.0);
        other.app = "other".into();
        let _ = other.normalized_to(&base);
    }
}
