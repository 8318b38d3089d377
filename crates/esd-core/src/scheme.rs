//! The write path, once: [`Scheme`] is the single pipeline every
//! [`SchemeKind`] runs — fingerprint → index probe → optional verify read →
//! remap or encrypt-and-write — with the stages a kind takes selected by
//! its [`Policy`] row. Baseline (paper §IV), Dedup_SHA1, DeWrite (Figure 4),
//! ESD (Figure 9), PDE (§II-C) and the ablations differ only in that row.

use esd_ecc::EccCodec;
use esd_hash::FingerprintKind;
use esd_obs::Obs;
use esd_sim::{CacheStats, Energy, NvmmSystem, Ps, SystemConfig, WriteLatencyBreakdown};
use esd_trace::CacheLine;

use crate::efit::{Efit, EfitPolicy, EFIT_ENTRY_BYTES, REFER_MAX};
use crate::fpstore::{FingerprintStore, LookupSource};
use crate::journal::{MetadataJournal, RecoverySummary};
use crate::machinery::{Core, Stage};
use crate::predictor::{DupPredictor, PredictorStats};

/// Identifies the eight schemes: the paper's four and four variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Encrypt-and-write, no deduplication.
    Baseline,
    /// Traditional full deduplication with SHA-1 fingerprints.
    DedupSha1,
    /// DeWrite: CRC fingerprints, prediction-driven parallel encryption,
    /// full deduplication (MICRO'18).
    DeWrite,
    /// ESD: ECC-assisted, selective deduplication (this paper).
    Esd,
    /// Traditional full deduplication with MD5 fingerprints.
    DedupMd5,
    /// PDE: fingerprinting in parallel with encryption for every line
    /// (the approach the paper's §II-C argues against).
    Pde,
    /// Ablation: ECC fingerprints with a full NVMM-backed store.
    EsdFull,
    /// Ablation: ESD that trusts ECC equality without a verify read
    /// (unsafe; measures the verify read's cost).
    EsdNoVerify,
}

impl SchemeKind {
    /// The paper's four evaluated schemes, in presentation order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Baseline,
        SchemeKind::DedupSha1,
        SchemeKind::DeWrite,
        SchemeKind::Esd,
    ];

    /// Every scheme, including the extra variants and ablations.
    pub const EXTENDED: [SchemeKind; 8] = [
        SchemeKind::Baseline,
        SchemeKind::DedupSha1,
        SchemeKind::DedupMd5,
        SchemeKind::Pde,
        SchemeKind::DeWrite,
        SchemeKind::Esd,
        SchemeKind::EsdFull,
        SchemeKind::EsdNoVerify,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::DedupSha1 => "Dedup_SHA1",
            SchemeKind::DeWrite => "DeWrite",
            SchemeKind::Esd => "ESD",
            SchemeKind::DedupMd5 => "Dedup_MD5",
            SchemeKind::Pde => "PDE",
            SchemeKind::EsdFull => "ESD_Full",
            SchemeKind::EsdNoVerify => "ESD_NoVerify",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses [`SchemeKind::name`] in any case, with `-` accepted for `_`, and
/// the short forms `sha1` and `md5`.
///
/// # Examples
///
/// ```
/// use esd_core::SchemeKind;
/// assert_eq!("ESD_Full".parse(), Ok(SchemeKind::EsdFull));
/// assert_eq!("esd-full".parse(), Ok(SchemeKind::EsdFull));
/// assert_eq!("sha1".parse(), Ok(SchemeKind::DedupSha1));
/// ```
impl std::str::FromStr for SchemeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let wanted = s.trim().replace('-', "_");
        SchemeKind::EXTENDED
            .into_iter()
            .find(|kind| {
                let name = kind.name();
                let short = name.strip_prefix("Dedup_").unwrap_or(name);
                name.eq_ignore_ascii_case(&wanted) || short.eq_ignore_ascii_case(&wanted)
            })
            .ok_or_else(|| {
                format!(
                    "unknown scheme {s:?} (expected one of: {})",
                    SchemeKind::EXTENDED.map(SchemeKind::name).join(", ")
                )
            })
    }
}

/// Outcome of one write through a scheme's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResult {
    /// When the controller pipeline finished processing (this blocks the
    /// core; the device write itself does not).
    pub processing_done: Ps,
    /// Completion time of the device write, or `None` when the line was
    /// deduplicated and nothing was written.
    pub device_finish: Option<Ps>,
    /// Full write-path latency (arrival to durability or dedup decision),
    /// the quantity in the paper's latency CDFs.
    pub latency: Ps,
    /// Whether the line was eliminated by deduplication.
    pub deduplicated: bool,
}

/// Integrity classification of one completed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The address was never written; the architectural zero line is
    /// returned.
    Unmapped,
    /// The stored line decoded cleanly.
    Clean,
    /// One or more single-bit errors were corrected on the fly.
    Corrected {
        /// Number of 8-byte words that had a bit corrected.
        words: u8,
    },
    /// The stored line has an uncorrectable (multi-bit-per-word) error.
    /// The returned data is a zero line and must NOT be interpreted as
    /// content; schemes count the event and its dedup blast radius.
    Uncorrectable,
    /// ECC decode claimed success but the fault injector's pristine shadow
    /// shows the content is wrong — a SEC-DED miscorrection (three or more
    /// flips aliasing onto a correctable syndrome). Real hardware would
    /// silently consume this data; the returned line carries it, flagged.
    Miscorrected,
}

impl ReadOutcome {
    /// Whether the returned data is trustworthy line content.
    #[must_use]
    pub fn is_data_valid(self) -> bool {
        !matches!(self, ReadOutcome::Uncorrectable | ReadOutcome::Miscorrected)
    }
}

/// Outcome of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// When decrypted data was available to the core.
    pub finish: Ps,
    /// The plaintext line: all-zero for never-written addresses, and also
    /// all-zero — flagged by `outcome` — when the stored line was
    /// uncorrectable. Check `outcome` before trusting the bytes.
    pub data: CacheLine,
    /// Integrity of the returned data.
    pub outcome: ReadOutcome,
}

/// Scheme-level counters (device-level counters live in
/// [`esd_sim::PcmStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Writes received from the LLC.
    pub writes_received: u64,
    /// Writes that reached the device as unique lines.
    pub writes_unique: u64,
    /// Writes eliminated by deduplication.
    pub writes_deduplicated: u64,
    /// Deduplications resolved entirely from SRAM-resident fingerprints.
    pub dedup_cache_filtered: u64,
    /// Deduplications that required the NVMM-resident fingerprint store.
    pub dedup_nvmm_filtered: u64,
    /// Fingerprint computations performed (hash/CRC; zero for ESD).
    pub fingerprint_computations: u64,
    /// Read-back byte-comparisons performed.
    pub compare_reads: u64,
    /// Comparisons that found a real duplicate.
    pub compare_hits: u64,
    /// DeWrite mispredictions (both directions).
    pub mispredictions: u64,
    /// Reads served.
    pub reads_served: u64,
    /// Reads (demand and verify) whose ECC decode corrected at least one
    /// bit.
    pub reads_corrected: u64,
    /// Total corrected 8-byte words across all reads.
    pub corrected_words: u64,
    /// Corrected words by word position within the 64-byte line.
    pub corrected_by_word: [u64; 8],
    /// Corrections that repaired a stored check / overall-parity bit — the
    /// ECC (i.e. fingerprint) material itself had drifted.
    pub corrected_ecc_bits: u64,
    /// Reads that hit an uncorrectable (multi-bit-per-word) error.
    pub reads_uncorrectable: u64,
    /// ECC decodes that claimed success but returned wrong content (SEC-DED
    /// miscorrection, detected against the fault injector's ground truth).
    pub miscorrections: u64,
    /// Logical lines affected by invalid demand reads: each event adds the
    /// failing physical line's reference count — the dedup blast radius,
    /// amplified by sharing (includes fingerprint-index pins).
    pub uncorrectable_blast_logicals: u64,
    /// Verify reads of a fingerprint-matched candidate that observed
    /// drifted stored-ECC bits — EFIT fingerprint-drift events (ESD
    /// variants only).
    pub efit_fingerprint_drift: u64,
    /// Energy spent on fingerprints and cryptography (device energy is in
    /// the PCM statistics).
    pub compute_energy: Energy,
}

/// `finish - start` for a write's end-to-end latency. A completion before
/// its start is a timing-attribution bug; surface it instead of flattening
/// it to zero latency.
pub(crate) fn write_latency(start: Ps, finish: Ps) -> Ps {
    debug_assert!(
        finish >= start,
        "write finished at {finish} before it started at {start}"
    );
    finish
        .checked_sub(start)
        .expect("write completion must not precede its arrival")
}

/// `finish - start` for read-path and recovery intervals — the read-side
/// twin of [`write_latency`], with the same contract: a completion earlier
/// than its start is a timing-attribution bug and must panic rather than
/// silently flatten to zero.
pub(crate) fn elapsed_latency(start: Ps, finish: Ps) -> Ps {
    debug_assert!(
        finish >= start,
        "interval finished at {finish} before it started at {start}"
    );
    finish
        .checked_sub(start)
        .expect("completion must not precede its start")
}

/// NVMM- and SRAM-resident metadata footprint (paper Figure 19).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataFootprint {
    /// Bytes of deduplication metadata resident in NVMM (fingerprint store
    /// plus address-mapping table).
    pub nvmm_bytes: u64,
    /// Bytes of metadata resident in controller SRAM.
    pub sram_bytes: u64,
}

impl MetadataFootprint {
    /// Total across both placements.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.nvmm_bytes + self.sram_bytes
    }
}

/// The fingerprint function a scheme's write path applies to line content,
/// advertised to the replay engine so it can precompute a whole block of
/// keys in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintSpec {
    /// A hash/CRC family key, compressed to 64 bits exactly as
    /// [`FingerprintKind::compute_key`] does.
    Hash(FingerprintKind),
    /// The packed per-line ECC under the given codec
    /// ([`EccCodec::line_fingerprint`]).
    Ecc(EccCodec),
}

impl FingerprintSpec {
    /// Computes the keys for a block of lines, appending one per line to
    /// `out` — bit-exact with the scalar per-line fingerprint.
    pub fn compute_keys(self, lines: &[[u8; 64]], out: &mut Vec<u64>) {
        match self {
            FingerprintSpec::Hash(kind) => kind.compute_keys(lines, out),
            FingerprintSpec::Ecc(codec) => codec.line_fingerprints(lines, out),
        }
    }

    /// The key of one line: what [`Scheme::write`] computes inline, and
    /// what [`Scheme::write_keyed`] takes precomputed.
    #[must_use]
    pub fn compute_key(self, line: &[u8; 64]) -> u64 {
        match self {
            FingerprintSpec::Hash(kind) => {
                kind.compute_key(line).expect("hash kinds compute a key")
            }
            FingerprintSpec::Ecc(codec) => codec.line_fingerprint(line),
        }
    }
}

/// Bytes per stored SHA-1 index entry: 20 B digest + 5 B physical address +
/// 4 B reference count.
pub const SHA1_ENTRY_BYTES: usize = 29;

/// Bytes per stored MD5 index entry: 16 B digest + 5 B physical address +
/// 4 B reference count.
pub const MD5_ENTRY_BYTES: usize = 25;

/// Bytes per stored CRC index entry (the paper cites 16 B + 3 bits per
/// physical line for DeWrite's metadata).
pub const DEWRITE_ENTRY_BYTES: usize = 17;

/// The fingerprint index a scheme keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexPolicy {
    /// No index: nothing is ever deduplicated.
    None,
    /// A full [`FingerprintStore`] — authoritative table in NVMM, hot slice
    /// in SRAM — with entries this wide. Entries pin their lines for good
    /// (full deduplication never reclaims).
    Store { entry_bytes: usize },
    /// The selective, SRAM-only [`Efit`] with this replacement policy.
    Efit(EfitPolicy),
}

/// When encryption overlaps fingerprinting instead of following it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// Fingerprint, decide, then encrypt what turned out unique.
    Never,
    /// PDE (§II-C): every line is encrypted alongside its hash, so the
    /// cheaper of the two is hidden and the work on duplicates is wasted.
    Always,
    /// DeWrite: overlapped only for lines predicted non-duplicate. A wrong
    /// "non-duplicate" wastes the encryption (the paper's F4); a wrong
    /// "duplicate" serialises it behind the whole front end (F2).
    Predicted,
}

/// Where a logical line is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mapping {
    /// At its own address: no AMT, no allocator, no counter cache, no
    /// durable dedup metadata to journal or recover.
    Identity,
    /// Wherever the allocator put its content, through the AMT.
    Amt,
}

/// Which stages of the one write path a scheme takes — the whole
/// difference between the eight [`SchemeKind`]s (DESIGN.md §3b has the
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Policy {
    /// The kind this row describes.
    pub kind: SchemeKind,
    /// Fill byte of the (documented, fixed) CME key.
    pub key: u8,
    /// Fingerprint source; `None` skips fingerprinting and the index.
    pub fingerprint: Option<FingerprintSpec>,
    /// The fingerprint index.
    pub index: IndexPolicy,
    /// Byte-compare a fingerprint match against a read-back of the
    /// candidate before deduplicating.
    pub verify: bool,
    /// Encryption/fingerprint overlap.
    pub overlap: Overlap,
    /// Logical-to-physical mapping.
    pub mapping: Mapping,
}

impl Policy {
    /// The row for `kind`.
    pub(crate) fn of(kind: SchemeKind) -> Policy {
        use FingerprintKind::{Crc32, Md5, Sha1};
        use Overlap::{Always, Never, Predicted};
        let hash = |kind| Some(FingerprintSpec::Hash(kind));
        let ecc = Some(FingerprintSpec::Ecc(EccCodec::Hamming));
        let store = |entry_bytes| IndexPolicy::Store { entry_bytes };
        let efit = IndexPolicy::Efit(EfitPolicy::Lrcu);
        // An ECC store entry: 8 B fingerprint + 5 B physical + 1 B refer.
        #[rustfmt::skip]
        let (key, fingerprint, index, verify, overlap) = match kind {
            SchemeKind::Baseline    => (0xB0, None,        IndexPolicy::None,          false, Never),
            SchemeKind::DedupSha1   => (0x51, hash(Sha1),  store(SHA1_ENTRY_BYTES),    false, Never),
            SchemeKind::DedupMd5    => (0x1D, hash(Md5),   store(MD5_ENTRY_BYTES),     false, Never),
            SchemeKind::Pde         => (0x1D, hash(Sha1),  store(SHA1_ENTRY_BYTES),    false, Always),
            SchemeKind::DeWrite     => (0xDE, hash(Crc32), store(DEWRITE_ENTRY_BYTES), true,  Predicted),
            SchemeKind::Esd         => (0xE5, ecc,         efit,                       true,  Never),
            SchemeKind::EsdFull     => (0xEF, ecc,         store(EFIT_ENTRY_BYTES),    true,  Never),
            SchemeKind::EsdNoVerify => (0xEA, ecc,         efit,                       false, Never),
        };
        Policy {
            kind,
            key,
            fingerprint,
            index,
            verify,
            overlap,
            mapping: if fingerprint.is_some() {
                Mapping::Amt
            } else {
                Mapping::Identity
            },
        }
    }
}

/// The live fingerprint index behind an [`IndexPolicy`].
#[derive(Debug)]
enum Index {
    None,
    Store(FingerprintStore),
    Efit(Efit),
}

/// A local dedup candidate the index probe produced.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    physical: u64,
    /// Resolved from SRAM (EFIT or the store's cache) rather than NVMM.
    in_sram: bool,
    /// Its one-byte `referH` is full: the paper rewrites the line as new
    /// instead of deduplicating (§III-D).
    saturated: bool,
}

/// A complete write-path scheme over its own simulated NVMM: one concrete
/// type for all eight [`SchemeKind`]s. The trace runner drives
/// [`Scheme::write`] / [`Scheme::read`] in program order; `Scheme` is
/// `Send`, so the server's sessions can share one behind a lock.
///
/// # Examples
///
/// ```
/// use esd_core::{Scheme, SchemeKind};
/// use esd_sim::{Ps, SystemConfig};
/// use esd_trace::CacheLine;
///
/// let mut esd = Scheme::new(SchemeKind::Esd, &SystemConfig::default());
/// let first = esd.write(Ps::ZERO, 0x40, CacheLine::from_fill(7));
/// let second = esd.write(first.latency, 0x80, CacheLine::from_fill(7));
/// assert!(!first.deduplicated);
/// assert!(second.deduplicated);
/// // ESD's fingerprint is the ECC the controller computed anyway:
/// assert_eq!(esd.stats().fingerprint_computations, 0);
/// assert_eq!(esd.read(Ps::from_us(1), 0x80).data, CacheLine::from_fill(7));
/// ```
#[derive(Debug)]
pub struct Scheme {
    core: Core,
    index: Index,
    predictor: DupPredictor,
    policy: Policy,
}

impl Scheme {
    /// Constructs a scheme of the given kind over a fresh simulated system,
    /// with a fixed (documented) per-kind CME key.
    #[must_use]
    pub fn new(kind: SchemeKind, config: &SystemConfig) -> Self {
        Scheme::from_policy(config, Policy::of(kind))
    }

    /// ESD with an explicit EFIT replacement policy (LRU is the Figure 18
    /// ablation).
    #[must_use]
    pub fn with_policy(config: &SystemConfig, policy: EfitPolicy) -> Self {
        let mut row = Policy::of(SchemeKind::Esd);
        row.index = IndexPolicy::Efit(policy);
        Scheme::from_policy(config, row)
    }

    /// ESD fingerprinting with an explicit SEC-DED codec (Hamming vs the
    /// Hsiao code most controllers actually ship) — the collision
    /// structure of the fingerprint space differs between the two.
    #[must_use]
    pub fn with_codec(config: &SystemConfig, codec: EccCodec) -> Self {
        let mut row = Policy::of(SchemeKind::Esd);
        row.fingerprint = Some(FingerprintSpec::Ecc(codec));
        Scheme::from_policy(config, row)
    }

    /// ESD with Start-Gap wear leveling under the deduplicated store:
    /// dedup removes writes, the leveler spreads the remainder.
    ///
    /// # Panics
    ///
    /// Panics on zero `region_lines` or `gap_interval`.
    #[must_use]
    pub fn with_wear_leveling(config: &SystemConfig, region_lines: u64, gap_interval: u32) -> Self {
        let mut scheme = Scheme::new(SchemeKind::Esd, config);
        scheme
            .core
            .nvmm
            .enable_wear_leveling(region_lines, gap_interval);
        scheme
    }

    fn from_policy(config: &SystemConfig, policy: Policy) -> Self {
        let cache_bytes = config.controller.fingerprint_cache_bytes;
        let index = match policy.index {
            IndexPolicy::None => Index::None,
            IndexPolicy::Store { entry_bytes } => {
                Index::Store(FingerprintStore::new(cache_bytes, entry_bytes))
            }
            IndexPolicy::Efit(policy) => Index::Efit(Efit::new(cache_bytes, policy)),
        };
        Scheme {
            core: Core::new(config, &policy),
            index,
            predictor: DupPredictor::new(),
            policy,
        }
    }

    /// Which scheme this is.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        self.policy.kind
    }

    /// Processes one LLC eviction arriving at `now`.
    pub fn write(&mut self, now: Ps, logical: u64, line: CacheLine) -> WriteResult {
        self.write_keyed(now, logical, line, None)
    }

    /// [`Scheme::write`] as replay and the service call it, optionally
    /// with the line's `fingerprint` key, computed ahead by the kernels
    /// [`Scheme::fingerprint_spec`] names. The key must be the one
    /// [`FingerprintSpec::compute_key`] gives for `line`; `None` computes
    /// it here.
    ///
    /// A precomputed key saves host wall-clock, never simulated time: the
    /// latency, energy and observability of computing it inline are charged
    /// either way.
    ///
    /// This is the one body that charges the write path, for every kind:
    /// each stage runs or not by the scheme's policy row, and every
    /// breakdown bucket is charged through one helper (`Core::charge`),
    /// which also emits the stage's span.
    pub fn write_keyed(
        &mut self,
        now: Ps,
        logical: u64,
        line: CacheLine,
        fingerprint: Option<u64>,
    ) -> WriteResult {
        let Scheme {
            core,
            index,
            predictor,
            policy,
        } = self;
        core.stats.writes_received += 1;
        let mut t = now;

        // Stage 1 — fingerprint. An ECC fingerprint is free: the controller
        // computed it already. A hash is on the critical path for every
        // line; a precomputed key skips only the host-side hash. Encryption
        // that overlaps the hash leaves only the longer of the two exposed.
        let fp = policy
            .fingerprint
            .map(|spec| fingerprint.unwrap_or_else(|| spec.compute_key(line.as_bytes())));
        let mut encrypted = false;
        if let Some(FingerprintSpec::Hash(kind)) = policy.fingerprint {
            let cost = kind.cost();
            core.stats.fingerprint_computations += 1;
            core.stats.compute_energy += Energy::from_pj(cost.energy_pj);
            encrypted = match policy.overlap {
                Overlap::Never => false,
                Overlap::Always => true,
                Overlap::Predicted => !predictor.predict(logical),
            };
            let mut exposed = Ps::from_ns(cost.latency_ns);
            if encrypted {
                core.charge_crypt_energy(); // the work happens even if wasted
                exposed = exposed.max(core.encrypt_latency());
            }
            t = core.charge(Stage::Fingerprint, now, now + exposed);
        }

        // Stage 2 — index probe: the SRAM-only EFIT, or the store's SRAM
        // cache and then its NVMM-resident table. An EFIT miss definitively
        // classifies the line as not deduplicable here: no NVMM lookup.
        let candidate = match (&mut *index, fp) {
            (Index::Store(store), Some(fp)) => {
                let lookup = store.lookup(t, fp, &mut core.nvmm);
                let in_sram = lookup.source == LookupSource::Cache;
                t = if in_sram {
                    core.charge(Stage::CacheProbe, t, lookup.done)
                } else {
                    core.charge(Stage::NvmmLookup, t, lookup.done)
                };
                lookup.physical.map(|physical| Candidate {
                    physical,
                    in_sram,
                    saturated: false,
                })
            }
            (Index::Efit(efit), Some(fp)) => {
                t = core.charge(Stage::EfitProbe, t, t + core.sram_latency);
                efit.lookup(fp).map(|entry| Candidate {
                    physical: entry.physical,
                    in_sram: true,
                    saturated: entry.refer == REFER_MAX,
                })
            }
            _ => None,
        };

        // Stage 3 — verify read: a fingerprint match only marks the line
        // *similar*; read the candidate back (PCM reads are cheap next to
        // writes — the asymmetry ESD exploits) and compare byte by byte.
        // Hash-trusting schemes skip this and take equality on faith.
        let mut duplicate = candidate;
        if let (Some(found), true) = (candidate, policy.verify) {
            let (finish, read) = core.read_physical(t, found.physical);
            core.charge(Stage::CompareRead, t, finish);
            t = core.charge(Stage::Compare, finish, finish + core.compare_latency);
            core.stats.compare_reads += 1;
            if read.ecc_bit_corrections > 0
                && matches!(policy.fingerprint, Some(FingerprintSpec::Ecc(_)))
            {
                // The stored ECC bits of the candidate drifted: the
                // fingerprint material itself no longer matches the index.
                core.stats.efit_fingerprint_drift += 1;
            }
            // An unreadable or untrustworthy candidate is not a duplicate.
            if read.outcome.is_data_valid() && read.plain == Some(line) {
                core.stats.compare_hits += 1;
            } else {
                duplicate = None;
            }
        }

        // Stage 4 — resolve: deduplicate onto the candidate, unless its
        // `referH` is saturated; then the line is written as new.
        let duplicate = duplicate.filter(|found| !found.saturated);
        if policy.overlap == Overlap::Predicted {
            predictor.update(logical, duplicate.is_some());
            // F4: overlapped encryption wasted on a duplicate. F2: a unique
            // line that was predicted duplicate, still unencrypted.
            if duplicate.is_some() == encrypted {
                core.stats.mispredictions += 1;
            }
        }
        if let (Some(found), Some(fp)) = (duplicate, fp) {
            core.stats.writes_deduplicated += 1;
            if found.in_sram {
                core.stats.dedup_cache_filtered += 1;
            } else {
                core.stats.dedup_nvmm_filtered += 1;
            }
            if let Index::Efit(efit) = index {
                efit.bump_ref(fp);
            }
            let done = core.remap_to(t, logical, found.physical);
            core.charge(Stage::MappingUpdate, t, done);
            return WriteResult {
                processing_done: done,
                device_finish: None,
                latency: write_latency(now, done),
                deduplicated: true,
            };
        }

        // Stage 5 — unique write: encrypt (unless already overlapped),
        // write, map, then index the new line.
        let before_write = t;
        if policy.overlap == Overlap::Predicted && !encrypted {
            // The F2 penalty: encryption serialises behind everything else,
            // as part of this write's unique-write stage.
            let encrypted_at = t + core.encrypt_latency();
            core.obs.span("write", "encrypt", t, encrypted_at);
            t = encrypted_at;
            encrypted = true;
        }
        let (done, finish, physical) = core.write_unique(t, logical, &line, encrypted);
        match (index, fp) {
            // A colliding entry keeps its first owner and this line is stored
            // unindexed. Otherwise the new entry pins its line: full
            // deduplication never reclaims (the space cost Figure 19 charges
            // these schemes for).
            (Index::Store(store), Some(fp)) if candidate.is_none() => {
                core.alloc.incref(physical);
                store.insert(done, fp, physical, &mut core.nvmm);
                core.journal_record(done);
            }
            (Index::Efit(efit), Some(fp)) => {
                // The EFIT entry pins its target line (one reference
                // count), so a fingerprint can never point at recycled
                // storage; the pin of any displaced entry is released.
                core.alloc.incref(physical);
                if let Some(displaced) = efit.insert(fp, physical) {
                    core.alloc.decref(displaced);
                }
            }
            _ => {}
        }
        core.charge(Stage::UniqueWrite, before_write, finish);
        WriteResult {
            processing_done: done,
            device_finish: Some(finish),
            latency: write_latency(now, finish),
            deduplicated: false,
        }
    }

    /// Processes one demand read arriving at `now`.
    pub fn read(&mut self, now: Ps, logical: u64) -> ReadResult {
        self.core.read_logical(now, logical)
    }

    /// Scheme-level counters.
    #[must_use]
    pub fn stats(&self) -> SchemeStats {
        self.core.stats
    }

    /// The paper's write-latency decomposition (Figure 17).
    #[must_use]
    pub fn breakdown(&self) -> WriteLatencyBreakdown {
        self.core.breakdown
    }

    /// Current metadata footprint (Figure 19): the AMT and a full store's
    /// table live in NVMM; the EFIT is SRAM only.
    #[must_use]
    pub fn metadata_footprint(&self) -> MetadataFootprint {
        let (index_nvmm, sram_bytes) = match &self.index {
            Index::None => (0, 0),
            Index::Store(store) => (store.nvmm_bytes(), 0),
            Index::Efit(efit) => (0, efit.sram_bytes()),
        };
        MetadataFootprint {
            nvmm_bytes: index_nvmm + self.core.amt.nvmm_bytes(),
            sram_bytes,
        }
    }

    /// The underlying memory system (device counters, medium, energy).
    #[must_use]
    pub fn nvmm(&self) -> &NvmmSystem {
        &self.core.nvmm
    }

    /// Mutable access to the memory system (fault injection in tests).
    pub fn nvmm_mut(&mut self) -> &mut NvmmSystem {
        &mut self.core.nvmm
    }

    /// Fingerprint-cache statistics, if the scheme has a fingerprint
    /// structure (`None` for Baseline).
    #[must_use]
    pub fn fingerprint_cache_stats(&self) -> Option<CacheStats> {
        match &self.index {
            Index::None => None,
            Index::Store(store) => Some(store.cache_stats()),
            Index::Efit(efit) => Some(efit.stats()),
        }
    }

    /// AMT-cache statistics, if the scheme remaps addresses.
    #[must_use]
    pub fn amt_cache_stats(&self) -> Option<CacheStats> {
        (self.policy.mapping == Mapping::Amt).then(|| self.core.amt.cache_stats())
    }

    /// The scheme's observability sink, for the runner to install an
    /// enabled collector into and to drain at the end of a run.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.core.obs
    }

    /// Duplication-predictor accuracy counters, for schemes that predict
    /// (DeWrite); `None` otherwise.
    #[must_use]
    pub fn predictor_stats(&self) -> Option<PredictorStats> {
        (self.policy.overlap == Overlap::Predicted).then(|| self.predictor.stats())
    }

    /// How this scheme derives its write-path fingerprint — always a pure
    /// function of line content, so the replay engine can precompute a
    /// block's keys in one call. `None` means the scheme
    /// computes no fingerprint (Baseline) and the engine gathers nothing.
    #[must_use]
    pub fn fingerprint_spec(&self) -> Option<FingerprintSpec> {
        self.policy.fingerprint
    }

    /// Hints the slots an access to `logical` will probe first: its AMT
    /// mapping and, for a write with its `fingerprint` key, the EFIT or
    /// store slot of the key. Charges nothing, reads no table and changes
    /// nothing a report sees. Baseline has neither structure, and replay
    /// skips it.
    pub fn prefetch(&self, logical: u64, fingerprint: Option<u64>) {
        if self.policy.mapping == Mapping::Amt {
            self.core.amt.prefetch(logical);
        }
        match (&self.index, fingerprint) {
            (Index::Store(store), Some(fp)) => store.prefetch(fp),
            (Index::Efit(efit), Some(fp)) => efit.prefetch(fp),
            _ => {}
        }
    }

    /// Sets the metadata-journal checkpoint interval (in records) before
    /// replay starts; `None` disables journaling, making recovery pay a
    /// full metadata scan instead of a journal-tail replay. A scheme with
    /// no durable dedup metadata (Baseline) never appends a record.
    pub fn journal_configure(&mut self, interval: Option<u64>) {
        self.core.journal = MetadataJournal::new(interval);
    }

    /// Switches the scheme's encryption engine into multi-tenant service
    /// mode: subsequent [`Scheme::set_active_tenant`] calls select a
    /// per-tenant key derived from `master`
    /// (`esd_crypto::derive_tenant_key`).
    pub fn tenancy_configure(&mut self, master: [u8; 16]) {
        self.core.cme.enable_tenancy(master);
    }

    /// Selects the tenant whose derived key encrypts subsequent writes.
    /// Only meaningful after [`Scheme::tenancy_configure`].
    pub fn set_active_tenant(&mut self, tenant: u32) {
        self.core.cme.set_active_tenant(tenant);
    }

    /// The EFIT, for inspection (hit rates, occupancy); `None` for kinds
    /// that index in a full store or not at all.
    #[must_use]
    pub fn efit(&self) -> Option<&Efit> {
        match &self.index {
            Index::Efit(efit) => Some(efit),
            _ => None,
        }
    }

    /// Overrides the EFIT's LRCU decay interval (for sensitivity studies);
    /// the override survives crashes.
    ///
    /// # Panics
    ///
    /// Panics if this scheme has no EFIT.
    pub fn efit_decay_interval(&mut self, interval: u64) {
        let Index::Efit(efit) = &mut self.index else {
            panic!("{} has no EFIT", self.policy.kind);
        };
        efit.set_decay_interval(interval);
    }

    /// Simulates a power-loss event and recovery, per the paper's §III-E:
    /// every SRAM structure is lost — the EFIT or the fingerprint store's
    /// cache (harmless: only future deduplication opportunities disappear,
    /// never data) and the AMT's hot-entry cache (refilled from the
    /// NVMM-resident table on demand). Encryption counters are persisted
    /// with eADR and survive.
    ///
    /// Every reference-count pin held by the discarded EFIT is released.
    /// The EFIT's configuration — capacity, policy and any decay-interval
    /// override — survives the crash (it is controller provisioning, not
    /// volatile state).
    pub fn crash_and_recover(&mut self) {
        self.drop_index_sram();
        self.core.amt.drop_sram_cache();
    }

    /// Loses the index's SRAM part. A store keeps its NVMM-resident table;
    /// the EFIT is emptied in place (preserving its configured knobs) and
    /// the reference-count pins of its entries are released. Returns how
    /// many pins dropped.
    fn drop_index_sram(&mut self) -> u64 {
        match &mut self.index {
            Index::None => 0,
            Index::Store(store) => {
                store.drop_sram_cache();
                0
            }
            Index::Efit(efit) => {
                let pinned = efit.pinned_physicals();
                for &physical in &pinned {
                    self.core.alloc.decref(physical);
                }
                efit.reset();
                pinned.len() as u64
            }
        }
    }

    /// Simulates a power loss at `now` and recovers this scheme to a
    /// consistent state: advisory SRAM structures are dropped, durable
    /// metadata is replayed from the journal (or rebuilt by a full scan),
    /// and — when `torn_write` — the in-flight access's torn tail record is
    /// detected and rolled back. (The engine decides `torn_write` from the
    /// crash stage and the interrupted access.)
    ///
    /// An identity-mapped scheme (Baseline) has no durable dedup metadata: the
    /// torn in-flight line never reached an acknowledgment, the interrupted
    /// access simply re-executes, and recovery is free.
    pub fn crash_recover_at(&mut self, now: Ps, torn_write: bool) -> RecoverySummary {
        if self.policy.mapping == Mapping::Identity {
            return RecoverySummary::trivial(now);
        }
        // EFIT pins evaporate with power, so the lines they held alive go
        // back to refcount parity before the audit; a store's entries are
        // durable and keep pinning theirs.
        let pins_released = self.drop_index_sram();
        let (pins, scan_lines) = match &self.index {
            Index::Store(store) => (store.pinned_physicals(), store.scan_lines()),
            _ => (Vec::new(), 0),
        };
        let mut summary = self.core.recover(now, torn_write, &pins, scan_lines);
        summary.pins_released = pins_released;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_kind_names_match_paper() {
        assert_eq!(SchemeKind::Baseline.name(), "Baseline");
        assert_eq!(SchemeKind::DedupSha1.name(), "Dedup_SHA1");
        assert_eq!(SchemeKind::DeWrite.name(), "DeWrite");
        assert_eq!(SchemeKind::Esd.name(), "ESD");
        assert_eq!(SchemeKind::ALL.len(), 4);
        assert_eq!(SchemeKind::Esd.to_string(), "ESD");
    }

    #[test]
    fn scheme_kind_parses_its_own_name_and_the_cli_spellings() {
        for kind in SchemeKind::EXTENDED {
            let name = kind.name();
            assert_eq!(name.parse(), Ok(kind));
            assert_eq!(name.to_ascii_lowercase().parse(), Ok(kind));
            let dashed = name.to_ascii_uppercase().replace('_', "-");
            assert_eq!(dashed.parse(), Ok(kind));
        }
        assert_eq!("sha1".parse(), Ok(SchemeKind::DedupSha1));
        assert_eq!("MD5".parse(), Ok(SchemeKind::DedupMd5));
        assert_eq!(" esd-noverify ".parse(), Ok(SchemeKind::EsdNoVerify));
        let err = "esd2".parse::<SchemeKind>().unwrap_err();
        assert!(err.starts_with("unknown scheme \"esd2\""), "{err}");
        assert!(err.contains("ESD_NoVerify"), "{err}");
    }

    #[test]
    #[should_panic]
    fn non_monotone_write_completion_panics() {
        // A device completion earlier than the write's arrival is a
        // timing-attribution bug; it must not be flattened to zero latency.
        let _ = write_latency(Ps::from_ns(10), Ps::from_ns(5));
    }

    #[test]
    #[should_panic]
    fn non_monotone_read_completion_panics() {
        let _ = elapsed_latency(Ps::from_ns(10), Ps::from_ns(5));
    }

    #[test]
    fn monotone_latencies_subtract_exactly() {
        assert_eq!(
            write_latency(Ps::from_ns(5), Ps::from_ns(12)),
            Ps::from_ns(7)
        );
        assert_eq!(elapsed_latency(Ps::from_ns(5), Ps::from_ns(5)), Ps::ZERO);
    }

    #[test]
    fn policy_rows_differ_only_where_the_schemes_do() {
        let row = Policy::of;
        // Dedup_SHA1 and PDE: same fingerprint and index, only the overlap.
        let (sha1, pde) = (row(SchemeKind::DedupSha1), row(SchemeKind::Pde));
        assert_eq!(sha1.index, pde.index);
        assert_eq!(
            (sha1.overlap, pde.overlap),
            (Overlap::Never, Overlap::Always)
        );
        // ESD and its ablations: the index, and the verify read.
        let (esd, full, trusting) = (
            row(SchemeKind::Esd),
            row(SchemeKind::EsdFull),
            row(SchemeKind::EsdNoVerify),
        );
        assert_eq!(esd.fingerprint, full.fingerprint);
        assert_eq!(
            full.index,
            IndexPolicy::Store {
                entry_bytes: EFIT_ENTRY_BYTES
            }
        );
        assert_eq!(esd.index, trusting.index);
        assert!(esd.verify && full.verify && !trusting.verify);
        // Only Baseline stores in place, and only it has no fingerprint.
        for kind in SchemeKind::EXTENDED {
            let baseline = kind == SchemeKind::Baseline;
            assert_eq!(row(kind).mapping == Mapping::Identity, baseline, "{kind}");
            assert_eq!(row(kind).fingerprint.is_none(), baseline, "{kind}");
            assert_eq!(row(kind).kind, kind);
        }
        // Entry widths order as the paper's metadata comparison does.
        const _: () = assert!(DEWRITE_ENTRY_BYTES < MD5_ENTRY_BYTES);
        const _: () = assert!(MD5_ENTRY_BYTES < SHA1_ENTRY_BYTES);
    }

    #[test]
    fn constructors_apply_their_knobs() {
        let config = SystemConfig::default();
        let mut scheme = Scheme::with_policy(&config, EfitPolicy::Lru);
        scheme.efit_decay_interval(77);
        scheme.nvmm_mut().enable_wear_leveling(1 << 10, 16);
        let efit = scheme.efit().expect("ESD keeps an EFIT");
        assert_eq!(efit.policy(), EfitPolicy::Lru);
        assert_eq!(efit.decay_interval(), 77);
        assert_eq!(
            scheme.nvmm().wear_leveler().map(|l| l.lines()),
            Some(1 << 10)
        );
        let hsiao = Scheme::with_codec(&config, EccCodec::Hsiao);
        assert_eq!(
            hsiao.fingerprint_spec(),
            Some(FingerprintSpec::Ecc(EccCodec::Hsiao))
        );
    }
}
