//! Metadata journaling and the crash/recovery model (paper §III-E).
//!
//! The paper's crash-consistency argument is structural: SRAM-resident
//! structures (EFIT, fingerprint cache, AMT cache) are *advisory* — losing
//! them costs missed deduplications, never correctness — while the AMT's
//! authoritative copy and the full fingerprint indexes live in NVMM, and
//! encryption counters are flushed by eADR. This module turns that argument
//! into a costed model:
//!
//! * every durable metadata mutation (AMT update, allocator transition,
//!   index insert) appends a 16-byte record to an NVMM-resident **journal**;
//!   records are flushed as 64-byte metadata-line writes (4 records/line)
//!   and folded into a **checkpoint** every `interval` records;
//! * a **crash** can be injected deterministically at any of the seven
//!   write-path stages of any access ([`CrashPoint`]);
//! * **recovery** drops the advisory SRAM state, replays the journal tail
//!   since the last checkpoint (or scans the full metadata region when
//!   journaling is off), rolls back at most one torn record, and audits the
//!   allocator's refcounts against the rebuilt metadata.
//!
//! Journal traffic is posted: it charges NVMM energy and bank occupancy but
//! never extends a write's critical-path latency, preserving the invariant
//! that the seven breakdown buckets partition every write's latency exactly.

use std::fmt;
use std::str::FromStr;

use esd_sim::{NvmmSystem, Ps};

/// Base NVMM address of the journal region (above the AMT and fingerprint
/// regions, which live at `1 << 44` and `1 << 45`).
pub const JOURNAL_NVMM_BASE: u64 = 1 << 46;

/// Journal ring size in 64-byte lines; appends wrap round-robin so bank
/// mapping stays bounded.
const JOURNAL_LINES: u64 = 1 << 20;

/// Journal records per 64-byte NVMM line (16-byte records).
pub const RECORDS_PER_LINE: u64 = 4;

/// The seven write-path stages at which a crash can be injected — one per
/// bucket of [`esd_sim::WriteLatencyBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashStage {
    /// During fingerprint (hash/ECC) computation.
    FingerprintCompute,
    /// During the SRAM fingerprint-structure probe.
    SramProbe,
    /// During an NVMM fingerprint lookup.
    NvmmLookup,
    /// During the verify read-back of a dedup candidate.
    CompareRead,
    /// During the byte comparison itself.
    Compare,
    /// During the AMT mapping update — metadata may be torn.
    MappingUpdate,
    /// During the unique-line device write — metadata may be torn.
    UniqueWrite,
}

impl CrashStage {
    /// All seven stages, in write-path order.
    pub const ALL: [CrashStage; 7] = [
        CrashStage::FingerprintCompute,
        CrashStage::SramProbe,
        CrashStage::NvmmLookup,
        CrashStage::CompareRead,
        CrashStage::Compare,
        CrashStage::MappingUpdate,
        CrashStage::UniqueWrite,
    ];

    /// Stable kebab-case name (CLI / JSON spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CrashStage::FingerprintCompute => "fingerprint-compute",
            CrashStage::SramProbe => "sram-probe",
            CrashStage::NvmmLookup => "nvmm-lookup",
            CrashStage::CompareRead => "compare-read",
            CrashStage::Compare => "compare",
            CrashStage::MappingUpdate => "mapping-update",
            CrashStage::UniqueWrite => "unique-write",
        }
    }

    /// Whether a crash at this stage can tear durable metadata. The first
    /// five stages only compute or probe — nothing durable has been
    /// mutated yet, so power loss there loses no metadata at all.
    #[must_use]
    pub fn tears_metadata(self) -> bool {
        matches!(self, CrashStage::MappingUpdate | CrashStage::UniqueWrite)
    }
}

impl fmt::Display for CrashStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CrashStage {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CrashStage::ALL
            .iter()
            .copied()
            .find(|stage| stage.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown crash stage {s:?} (expected one of: {})",
                    CrashStage::ALL.map(CrashStage::name).join(", ")
                )
            })
    }
}

/// A deterministic crash-injection point: power is lost immediately before
/// trace access `access` executes, with the in-flight write modeled as
/// having reached `stage`.
///
/// Parses from `"<access>"` or `"<access>:<stage>"` (stage defaults to
/// `unique-write`, the deepest — and only torn-metadata-capable — stage).
///
/// # Examples
///
/// ```
/// use esd_core::{CrashPoint, CrashStage};
/// let p: CrashPoint = "1000:mapping-update".parse().unwrap();
/// assert_eq!(p.access, 1000);
/// assert_eq!(p.stage, CrashStage::MappingUpdate);
/// let q: CrashPoint = "42".parse().unwrap();
/// assert_eq!(q.stage, CrashStage::UniqueWrite);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrashPoint {
    /// Index of the trace access the crash interrupts (0-based); the access
    /// itself was never acknowledged and re-executes after recovery.
    pub access: u64,
    /// Write-path stage the in-flight access had reached.
    pub stage: CrashStage,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.access, self.stage)
    }
}

impl FromStr for CrashPoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (access_str, stage) = match s.split_once(':') {
            Some((a, stage_str)) => (a, stage_str.parse()?),
            None => (s, CrashStage::UniqueWrite),
        };
        let access = access_str
            .trim()
            .parse()
            .map_err(|_| format!("bad crash access index {access_str:?} (expected an integer)"))?;
        Ok(CrashPoint { access, stage })
    }
}

/// The NVMM-resident metadata journal.
///
/// Append-only 16-byte records describing durable metadata mutations, posted
/// to NVMM one 64-byte line at a time, with a checkpoint (one extra
/// metadata-line write folding the tail into the authoritative tables)
/// every `interval` records. Disabled (`interval == None`) it records
/// nothing and recovery pays a full metadata scan instead.
#[derive(Debug, Clone)]
pub struct MetadataJournal {
    interval: Option<u64>,
    records_since_checkpoint: u64,
    checkpoints: u64,
    pending_records: u64,
    next_line: u64,
}

impl MetadataJournal {
    /// Creates a journal; `None` disables journaling entirely.
    #[must_use]
    pub fn new(interval: Option<u64>) -> Self {
        MetadataJournal {
            interval: interval.filter(|&i| i > 0),
            records_since_checkpoint: 0,
            checkpoints: 0,
            pending_records: 0,
            next_line: 0,
        }
    }

    /// Whether journaling is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.interval.is_some()
    }

    /// The configured checkpoint interval, in records.
    #[must_use]
    pub fn interval(&self) -> Option<u64> {
        self.interval
    }

    /// Records appended since the last checkpoint (the replay window).
    #[must_use]
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Checkpoints taken over the run.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Appends one record. Posts an NVMM metadata write each time a journal
    /// line fills and folds a checkpoint every `interval` records. Posted
    /// traffic charges energy and bank occupancy only — never write latency.
    pub fn record(&mut self, now: Ps, nvmm: &mut NvmmSystem) {
        if !self.enabled() {
            return;
        }
        self.records_since_checkpoint += 1;
        self.pending_records += 1;
        if self.pending_records >= RECORDS_PER_LINE {
            self.flush_line(now, nvmm);
        }
        if self.records_since_checkpoint >= self.interval.unwrap_or(u64::MAX) {
            self.checkpoint(now, nvmm);
        }
    }

    /// Folds the journal tail into a checkpoint (one posted metadata write
    /// after flushing any partial line), resetting the replay window.
    /// Recovery calls this to start the post-crash epoch clean.
    pub fn checkpoint(&mut self, now: Ps, nvmm: &mut NvmmSystem) {
        if !self.enabled() {
            return;
        }
        if self.pending_records > 0 {
            self.flush_line(now, nvmm);
        }
        nvmm.metadata_write(now, self.line_addr());
        self.checkpoints += 1;
        self.records_since_checkpoint = 0;
    }

    /// NVMM metadata reads a recovery replay must issue: one for the
    /// checkpoint root plus one per journal line in the replay window
    /// (partial tail line included).
    #[must_use]
    pub fn replay_reads(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        1 + self.records_since_checkpoint.div_ceil(RECORDS_PER_LINE)
    }

    /// NVMM line address of the journal's current tail.
    #[must_use]
    pub fn line_addr(&self) -> u64 {
        JOURNAL_NVMM_BASE + (self.next_line % JOURNAL_LINES) * 64
    }

    fn flush_line(&mut self, now: Ps, nvmm: &mut NvmmSystem) {
        nvmm.metadata_write(now, self.line_addr());
        self.next_line = self.next_line.wrapping_add(1);
        self.pending_records = 0;
    }
}

impl Default for MetadataJournal {
    /// A disabled journal.
    fn default() -> Self {
        MetadataJournal::new(None)
    }
}

/// What one recovery cost, produced by
/// [`crate::Scheme::crash_recover_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Time recovery completed (the core stalls until then).
    pub finish: Ps,
    /// Recovery duration.
    pub latency: Ps,
    /// Journal records replayed (zero when journaling was off).
    pub records_replayed: u64,
    /// NVMM metadata reads issued by the replay or rebuild scan.
    pub replay_reads: u64,
    /// Advisory SRAM pins (EFIT entries) released by the reset.
    pub pins_released: u64,
    /// Torn journal/metadata records detected and rolled back.
    pub torn_rollbacks: u64,
    /// Refcounts that disagree with the rebuilt metadata after recovery
    /// (must be zero: the recovery-correctness property).
    pub refcounts_leaked: u64,
    /// NVMM energy spent on recovery traffic, in picojoules.
    pub energy_pj: u64,
}

impl RecoverySummary {
    /// A free recovery at `now`: nothing to rebuild (e.g. Baseline, which
    /// keeps no dedup metadata — a torn in-flight write never reached
    /// durability and its access simply re-executes).
    #[must_use]
    pub fn trivial(now: Ps) -> Self {
        RecoverySummary {
            finish: now,
            latency: Ps::ZERO,
            records_replayed: 0,
            replay_reads: 0,
            pins_released: 0,
            torn_rollbacks: 0,
            refcounts_leaked: 0,
            energy_pj: 0,
        }
    }
}

/// Whole-run recovery accounting: the injected crash point and what
/// recovering from it cost, in [`crate::RunReport::recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The injected crash point.
    pub crash_access: u64,
    /// Stage the in-flight access had reached.
    pub crash_stage: CrashStage,
    /// Journal checkpoint interval the run used (`None` = journaling off).
    pub journal_interval: Option<u64>,
    /// Journal records replayed.
    pub records_replayed: u64,
    /// Recovery NVMM metadata reads.
    pub replay_reads: u64,
    /// Advisory pins released.
    pub pins_released: u64,
    /// Torn records rolled back (at most one: the in-flight write).
    pub torn_rollbacks: u64,
    /// Refcount-audit disagreements after recovery (must be zero).
    pub refcounts_leaked: u64,
    /// Recovery wall time.
    pub latency: Ps,
    /// Recovery NVMM energy, in picojoules.
    pub energy_pj: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_sim::PcmConfig;

    fn nvmm() -> NvmmSystem {
        NvmmSystem::new(PcmConfig::default())
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in CrashStage::ALL {
            assert_eq!(stage.name().parse::<CrashStage>(), Ok(stage));
        }
        assert!("warp-core".parse::<CrashStage>().is_err());
    }

    #[test]
    fn only_the_mutating_stages_tear_metadata() {
        let tearing: Vec<_> = CrashStage::ALL
            .into_iter()
            .filter(|s| s.tears_metadata())
            .collect();
        assert_eq!(
            tearing,
            vec![CrashStage::MappingUpdate, CrashStage::UniqueWrite]
        );
    }

    #[test]
    fn crash_point_parses_with_and_without_stage() {
        let p: CrashPoint = "500:compare-read".parse().unwrap();
        assert_eq!(p.access, 500);
        assert_eq!(p.stage, CrashStage::CompareRead);
        let q: CrashPoint = "7".parse().unwrap();
        assert_eq!(q.stage, CrashStage::UniqueWrite);
        assert!("abc".parse::<CrashPoint>().is_err());
        assert!("5:abc".parse::<CrashPoint>().is_err());
        assert_eq!(p.to_string(), "500:compare-read");
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut mem = nvmm();
        let mut journal = MetadataJournal::default();
        assert!(!journal.enabled());
        for _ in 0..100 {
            journal.record(Ps::ZERO, &mut mem);
        }
        assert_eq!(journal.records_since_checkpoint(), 0);
        assert_eq!(journal.replay_reads(), 0);
        assert_eq!(mem.stats().metadata.writes, 0);
    }

    #[test]
    fn journal_flushes_lines_and_checkpoints() {
        let mut mem = nvmm();
        let mut journal = MetadataJournal::new(Some(8));
        for _ in 0..8 {
            journal.record(Ps::ZERO, &mut mem);
        }
        // 8 records = 2 full lines + 1 checkpoint write.
        assert_eq!(mem.stats().metadata.writes, 3);
        assert_eq!(journal.checkpoints(), 1);
        assert_eq!(journal.records_since_checkpoint(), 0);
        // Replay window grows with the tail and includes the partial line.
        journal.record(Ps::ZERO, &mut mem);
        assert_eq!(journal.replay_reads(), 2, "checkpoint root + 1 tail line");
        assert_eq!(journal.records_since_checkpoint(), 1);
    }

    #[test]
    fn zero_interval_means_disabled() {
        assert!(!MetadataJournal::new(Some(0)).enabled());
        assert!(MetadataJournal::new(Some(1)).enabled());
    }
}
