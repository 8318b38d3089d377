//! The machinery under the write-path pipeline: NVMM, encryption engine,
//! address mapping, physical allocation, the cross-slice dedup directory,
//! recovery and accounting. [`crate::Scheme`] decides *which* stages a
//! write takes; everything a stage does to the simulated system is here.

use esd_collections::U64Map;
use esd_crypto::CmeEngine;
use esd_obs::Obs;
use esd_sim::{Energy, NvmmSystem, Ps, SystemConfig, WriteLatencyBreakdown};
use esd_trace::CacheLine;

use crate::alloc::PhysicalAllocator;
use crate::amt::Amt;
use crate::counter_cache::CounterCache;
use crate::journal::{MetadataJournal, RecoverySummary};
use crate::scheme::{
    elapsed_latency, write_latency, Mapping, Policy, ReadOutcome, ReadResult, SchemeStats,
    WriteResult,
};

/// Marker physical address meaning "this logical line deduplicated onto a
/// line owned by another replay slice". Never produced by
/// [`PhysicalAllocator`]; mapping-release and read paths special-case it so
/// it can never reach the reference counter or the medium.
pub(crate) const REMOTE_SENTINEL: u64 = u64::MAX;

/// One advertisement in the cross-slice dedup directory: a slice that wrote
/// `line` as unique at `physical` offers it as a dedup target to the other
/// slices. The owner pins `physical` with one reference count for the rest
/// of the run, so the advertised plaintext can never be recycled under a
/// remote sharer.
#[derive(Debug, Clone)]
pub(crate) struct RemoteEntry {
    /// Replay slice that owns the physical line.
    pub owner: u32,
    /// The advertised plaintext, byte-compared by verifying remote probes.
    pub line: CacheLine,
}

/// The cross-slice dedup directory: every advertisement the slices have
/// made, by fingerprint.
///
/// The sharded engine owns the one instance. For the length of a quantum
/// it is frozen and every slice probes it through a shared reference; at
/// the quantum's end the engine holds it mutably and folds the slices'
/// publish queues in. A probe copies nothing: [`Directory::get`] hands out
/// a reference into the arena.
///
/// The probed table holds 24-byte `fingerprint → position` slots; the
/// 68-byte entries sit in an append-only arena beside it, so a probe that
/// misses (every first write of new content) touches no entry at all.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    index: U64Map<u32>,
    entries: Vec<RemoteEntry>,
}

impl Directory {
    /// The advertisement for `fingerprint`, if any slice has made one.
    #[inline]
    pub(crate) fn get(&self, fingerprint: u64) -> Option<&RemoteEntry> {
        self.index
            .get(fingerprint)
            .map(|&at| &self.entries[at as usize])
    }

    /// Folds one slice's queued publishes in, first writer wins: the engine
    /// calls this in slice order, so of two slices that advertised the same
    /// fingerprint in one quantum the lower-numbered keeps it.
    pub(crate) fn merge(&mut self, publishes: impl IntoIterator<Item = (u64, RemoteEntry)>) {
        for (fingerprint, entry) in publishes {
            let next = u32::try_from(self.entries.len()).expect("directory indexes with u32");
            // One probe: a resident fingerprint answers with an older position.
            if *self.index.get_or_insert_with(fingerprint, || next) == next {
                self.entries.push(entry);
            }
        }
    }
}

/// What the sharded replay engine installs into each slice's scheme before
/// replay: the slice's identity, its outgoing publish queue (drained by
/// the engine at each quantum end), and the plaintext mirror for logical
/// lines this slice has deduplicated onto remote physical lines. The directory
/// itself is lent to the write path per call (see [`Directory`]).
#[derive(Debug)]
pub(crate) struct ShardCtx {
    pub(crate) slice: u32,
    pub(crate) publishes: Vec<(u64, RemoteEntry)>,
    pub(crate) remote_lines: U64Map<CacheLine>,
}

impl ShardCtx {
    pub(crate) fn new(slice: u32) -> Self {
        ShardCtx {
            slice,
            publishes: Vec::new(),
            remote_lines: U64Map::new(),
        }
    }
}

/// Outcome of probing the cross-slice dedup directory on the write path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RemoteProbe {
    /// No usable remote candidate (nothing advertised, the entry is this
    /// slice's own, or a trust-mode content mismatch).
    /// Nothing was charged; the caller proceeds as if never probing.
    Miss,
    /// A cross-slice duplicate: the remap is complete and the result is
    /// final.
    Dedup(WriteResult),
    /// The verify read found different bytes — a fingerprint collision
    /// across slices. The compare read and comparator time were charged;
    /// the caller resumes its unique-write path at the returned instant.
    Collision(Ps),
}

/// A charged stage of the write path: one bucket of the write-latency
/// breakdown and the span that shows it in a trace. Two stages share the
/// `sram_probe` bucket; otherwise span and bucket are one to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Fingerprint,
    EfitProbe,
    CacheProbe,
    NvmmLookup,
    CompareRead,
    Compare,
    MappingUpdate,
    UniqueWrite,
}

impl Stage {
    fn span(self) -> &'static str {
        match self {
            Stage::Fingerprint => "fingerprint",
            Stage::EfitProbe => "efit_probe",
            Stage::CacheProbe => "fingerprint_cache_probe",
            Stage::NvmmLookup => "fingerprint_nvmm_lookup",
            Stage::CompareRead => "compare_read",
            Stage::Compare => "compare",
            Stage::MappingUpdate => "mapping_update",
            Stage::UniqueWrite => "unique_write",
        }
    }

    fn bucket(self, breakdown: &mut WriteLatencyBreakdown) -> &mut Ps {
        match self {
            Stage::Fingerprint => &mut breakdown.fingerprint_compute,
            Stage::EfitProbe | Stage::CacheProbe => &mut breakdown.sram_probe,
            Stage::NvmmLookup => &mut breakdown.nvmm_lookup,
            Stage::CompareRead => &mut breakdown.compare_read,
            Stage::Compare => &mut breakdown.compare,
            Stage::MappingUpdate => &mut breakdown.mapping_update,
            Stage::UniqueWrite => &mut breakdown.unique_write,
        }
    }
}

/// Shared machinery of every scheme: NVMM, encryption engine, address
/// mapping, physical allocation, and accounting.
#[derive(Debug)]
pub(crate) struct Core {
    pub nvmm: NvmmSystem,
    pub cme: CmeEngine,
    /// Logical lines are stored at their own address ([`Mapping::Identity`]):
    /// the AMT, the allocator, the counter cache and the journal stay
    /// untouched.
    identity: bool,
    pub amt: Amt,
    pub alloc: PhysicalAllocator,
    pub stats: SchemeStats,
    pub breakdown: WriteLatencyBreakdown,
    pub sram_latency: Ps,
    /// Exposed byte-compare latency after the candidate line is read.
    pub compare_latency: Ps,
    /// Finite encryption-counter cache; `None` models always-resident
    /// counters (the paper's assumption).
    pub counters: Option<CounterCache>,
    /// Observability sink: disabled (a single-branch no-op on every
    /// record) unless the runner installs an enabled collector.
    pub obs: Obs,
    /// Cross-slice dedup context; `None` outside the sharded replay
    /// engine (then all remote paths are dead code).
    pub shard: Option<ShardCtx>,
    /// NVMM-resident metadata journal (disabled unless the run sets a
    /// checkpoint interval).
    pub journal: MetadataJournal,
    /// The physical line of every permanent directory-publish pin this
    /// slice has taken, one element per pin — the recovery refcount audit's
    /// record of intentional pins. Only recovery reads it, so a publish
    /// appends and hashes nothing.
    pub publish_pins: Vec<u64>,
}

impl Core {
    pub fn new(config: &SystemConfig, policy: &Policy) -> Self {
        let identity = policy.mapping == Mapping::Identity;
        // An identity-mapped scheme never consults these two; give it the
        // smallest ones rather than the configured SRAM budgets.
        let budget = |bytes: u64| if identity { 0 } else { bytes };
        let counter_bytes = budget(config.controller.counter_cache_bytes);
        Core {
            nvmm: NvmmSystem::new(config.pcm),
            cme: CmeEngine::new([policy.key; 16]),
            identity,
            amt: Amt::with_sram_latency(
                budget(config.controller.mapping_cache_bytes),
                config.controller.sram_latency,
            ),
            alloc: PhysicalAllocator::new(),
            stats: SchemeStats::default(),
            breakdown: WriteLatencyBreakdown::default(),
            sram_latency: config.controller.sram_latency,
            compare_latency: Ps::from_ns(2),
            counters: (counter_bytes > 0).then(|| CounterCache::new(counter_bytes)),
            obs: Obs::disabled(),
            shard: None,
            journal: MetadataJournal::default(),
            publish_pins: Vec::new(),
        }
    }

    /// Charges `start..end` of the write in flight to `stage`'s breakdown
    /// bucket and records its span; returns `end`. Every bucket charge goes
    /// through here, so a mis-ordered timestamp panics (see
    /// [`write_latency`]) and every charged stage is visible in the trace.
    pub fn charge(&mut self, stage: Stage, start: Ps, end: Ps) -> Ps {
        *stage.bucket(&mut self.breakdown) += write_latency(start, end);
        self.obs.span("write", stage.span(), start, end);
        end
    }

    /// Appends one metadata-journal record at `t` (posted NVMM traffic:
    /// energy and bank occupancy only, never write latency).
    pub fn journal_record(&mut self, t: Ps) {
        self.journal.record(t, &mut self.nvmm);
    }

    /// Charges one cryptographic operation's energy.
    pub fn charge_crypt_energy(&mut self) {
        self.stats.compute_energy += Energy::from_pj(self.cme.cost_model().crypt_energy_pj);
    }

    /// Encryption latency on the write path.
    pub fn encrypt_latency(&self) -> Ps {
        Ps::from_ns(self.cme.cost_model().encrypt_latency_ns)
    }

    /// Releases `logical`'s previous mapping, dropping the reference it
    /// held on its physical line (the allocator recycles a line whose last
    /// reference drops).
    fn release_old_mapping(&mut self, logical: u64) {
        match self.amt.peek(logical) {
            // The old mapping pointed at another slice's line: drop the
            // plaintext mirror. The remote physical stays pinned by its
            // owner's directory entry, never by this slice's refcounts.
            Some(REMOTE_SENTINEL) => {
                if let Some(ctx) = self.shard.as_mut() {
                    ctx.remote_lines.remove(logical);
                }
            }
            Some(old) => {
                self.alloc.decref(old);
            }
            None => {}
        }
    }

    /// Remaps `logical` onto an existing physical line (a successful
    /// deduplication), handling reference counts. Returns the completion
    /// time of the mapping update.
    pub fn remap_to(&mut self, t: Ps, logical: u64, physical: u64) -> Ps {
        if self.amt.peek(logical) == Some(physical) {
            // Same mapping rewritten with identical content: nothing to do.
            return t + self.sram_latency;
        }
        self.alloc.incref(physical);
        self.release_old_mapping(logical);
        let done = self.amt.update(t, logical, physical, &mut self.nvmm);
        self.journal_record(done);
        done
    }

    /// Remaps `logical` onto a line owned by another replay slice: installs
    /// the [`REMOTE_SENTINEL`] in the AMT and mirrors the plaintext so
    /// demand reads can be served without touching the remote slice's
    /// simulator. Returns the completion time of the mapping update.
    fn remap_remote(&mut self, t: Ps, logical: u64, line: CacheLine) -> Ps {
        let done = if self.amt.peek(logical) == Some(REMOTE_SENTINEL) {
            // Already remote: refresh the mirrored plaintext in place.
            t + self.sram_latency
        } else {
            self.release_old_mapping(logical);
            let done = self.amt.update(t, logical, REMOTE_SENTINEL, &mut self.nvmm);
            self.journal_record(done);
            done
        };
        self.shard
            .as_mut()
            .expect("remote remap requires a shard context")
            .remote_lines
            .insert(logical, line);
        done
    }

    /// What the other slices can see advertised under `fingerprint` this
    /// quantum: `None` outside sharded replay, for a scheme that takes no
    /// part in cross-slice dedup, or when no slice has advertised it.
    #[inline]
    pub fn advertised<'d>(
        &self,
        directory: Option<&'d Directory>,
        fingerprint: u64,
    ) -> Option<&'d RemoteEntry> {
        self.shard.as_ref().and(directory)?.get(fingerprint)
    }

    /// Tries to deduplicate onto `advertised`, the directory's entry for
    /// this line's fingerprint ([`Core::advertised`]), at `t` (with the
    /// interval `now..t` already charged by the caller).
    ///
    /// With `verify_read` set, a matching entry from another slice is
    /// byte-verified first: one remote read is charged against this slice's
    /// device statistics (without occupying a local bank) plus the exposed
    /// comparator time, and a mismatch returns
    /// [`RemoteProbe::Collision`] with those charges kept, so the latency
    /// buckets still partition the write exactly. Without `verify_read`
    /// (hash-fingerprint schemes that trust equality), a mismatch is
    /// reported as a plain [`RemoteProbe::Miss`] and nothing is charged —
    /// the plaintext compare is the simulator's free correctness guard
    /// against cross-slice hash collisions, mirroring the trust those
    /// schemes place in their local stores.
    ///
    /// Remote deduplications count as `dedup_cache_filtered`: the directory
    /// is a controller-level structure and no NVMM fingerprint store is
    /// consulted.
    pub fn try_remote_dedup(
        &mut self,
        now: Ps,
        t: Ps,
        logical: u64,
        line: &CacheLine,
        advertised: Option<&RemoteEntry>,
        verify_read: bool,
    ) -> RemoteProbe {
        let Some(entry) = advertised else {
            return RemoteProbe::Miss;
        };
        if self.shard.as_ref().map(|ctx| ctx.slice) == Some(entry.owner) {
            return RemoteProbe::Miss;
        }
        let mut t = t;
        if verify_read {
            let completion = self.nvmm.charge_remote_read(t);
            self.stats.compare_reads += 1;
            self.charge(Stage::CompareRead, t, completion.finish);
            let compared = completion.finish + self.compare_latency;
            self.charge(Stage::Compare, completion.finish, compared);
            if entry.line != *line {
                return RemoteProbe::Collision(compared);
            }
            self.stats.compare_hits += 1;
            t = compared;
        } else if entry.line != *line {
            return RemoteProbe::Miss;
        }
        self.stats.writes_deduplicated += 1;
        self.stats.dedup_cache_filtered += 1;
        self.obs.counter_add("remote_dedup", 1);
        let done = self.remap_remote(t, logical, entry.line);
        self.charge(Stage::MappingUpdate, t, done);
        RemoteProbe::Dedup(WriteResult {
            processing_done: done,
            device_finish: None,
            latency: write_latency(now, done),
            deduplicated: true,
        })
    }

    /// Advertises a freshly written unique line to the other replay slices.
    ///
    /// Publishing is selective: the caller asks only when the directory has
    /// no entry for `fingerprint` yet (any owner, [`Core::advertised`]), so
    /// at most roughly one line per distinct published content is ever
    /// pinned. The physical line gains one permanent reference count (so the
    /// advertised plaintext can never be recycled) and the entry is queued
    /// for the engine to merge into the directory at the quantum's end,
    /// first-writer-wins in slice order. A publish that loses that race
    /// keeps its pin — a deterministic, bounded leak documented in the
    /// design notes.
    pub fn publish(&mut self, fingerprint: u64, physical: u64, line: &CacheLine) {
        let Some(ctx) = self.shard.as_mut() else {
            return;
        };
        let entry = RemoteEntry {
            owner: ctx.slice,
            line: *line,
        };
        ctx.publishes.push((fingerprint, entry));
        self.alloc.incref(physical);
        self.publish_pins.push(physical);
    }

    /// Encrypts and writes a unique line, updating the mapping: at a
    /// freshly allocated physical address, or in place under
    /// [`Mapping::Identity`]. Encryption is charged starting at `t` unless
    /// `already_encrypted` (it overlapped the fingerprint stage). Returns
    /// `(processing_done, device_finish, physical)`.
    pub fn write_unique(
        &mut self,
        t: Ps,
        logical: u64,
        line: &CacheLine,
        already_encrypted: bool,
    ) -> (Ps, Ps, u64) {
        let physical = if self.identity {
            logical
        } else {
            self.release_old_mapping(logical);
            self.alloc.allocate()
        };
        let mut t = t;
        if let Some(counters) = self.counters.as_mut() {
            t = counters.access(t, physical, true, &mut self.nvmm);
        }
        if !already_encrypted {
            let encrypted_at = t + self.encrypt_latency();
            self.obs.span("write", "encrypt", t, encrypted_at);
            t = encrypted_at;
        }
        self.charge_crypt_energy();
        let cipher = self.cme.encrypt_line(physical, line.as_bytes());
        let ecc = esd_ecc::encode_line(&cipher).to_u64();
        let completion = self.nvmm.write_line(t, physical, cipher, ecc);
        self.obs.span("write", "device_write", t, completion.finish);
        let processing_done = if self.identity {
            t
        } else {
            let done = self.amt.update(t, logical, physical, &mut self.nvmm);
            self.journal_record(done);
            done
        };
        self.stats.writes_unique += 1;
        (processing_done, completion.finish, physical)
    }

    /// Reads, ECC-corrects and decrypts the line at a *physical* address.
    /// The returned [`PhysicalRead`] distinguishes never-written addresses,
    /// clean and corrected decodes, uncorrectable errors and detected
    /// miscorrections — nothing is silently masked.
    pub fn read_physical(&mut self, t: Ps, physical: u64) -> (Ps, PhysicalRead) {
        let (completion, stored) = self.nvmm.read_line(t, physical);
        // The counter fetch proceeds in parallel with the data read.
        let counter_ready = match self.counters.as_mut() {
            Some(counters) => counters.access(t, physical, false, &mut self.nvmm),
            None => t,
        };
        let finish = completion.finish.max(counter_ready)
            + Ps::from_ns(self.cme.cost_model().decrypt_exposed_latency_ns);
        let Some(stored) = stored else {
            let unmapped = PhysicalRead {
                plain: None,
                outcome: ReadOutcome::Unmapped,
                ecc_bit_corrections: 0,
            };
            return (finish, unmapped);
        };
        let pristine = self.nvmm.pristine_line(physical).copied();
        let decoded = decode_stored(&mut self.stats, &stored, pristine.as_ref());
        match decoded.outcome {
            ReadOutcome::Corrected { .. } => self.obs.instant("ecc", "ecc_corrected", finish),
            ReadOutcome::Uncorrectable => self.obs.instant("ecc", "ecc_uncorrectable", finish),
            ReadOutcome::Miscorrected => self.obs.instant("ecc", "ecc_miscorrected", finish),
            ReadOutcome::Clean | ReadOutcome::Unmapped => {}
        }
        let plain = decoded.cipher.and_then(|cipher| {
            self.charge_crypt_energy();
            self.cme
                .decrypt_line(physical, &cipher)
                .ok()
                .map(CacheLine::new)
        });
        // A missing decrypt counter (cannot normally happen for a stored
        // line) must not surface as a valid zero read.
        let outcome = if plain.is_none() && decoded.outcome.is_data_valid() {
            self.stats.reads_uncorrectable += 1;
            ReadOutcome::Uncorrectable
        } else {
            decoded.outcome
        };
        let read = PhysicalRead {
            plain,
            outcome,
            ecc_bit_corrections: decoded.ecc_bit_corrections,
        };
        (finish, read)
    }

    /// The full read path: translate via the AMT (or not at all under
    /// [`Mapping::Identity`]), read, decrypt. Invalid reads (uncorrectable
    /// or miscorrected) are counted together with their dedup blast radius
    /// and flagged in the result's `outcome`; the data of an uncorrectable
    /// read is a zero line, never fabricated content presented as valid.
    pub fn read_logical(&mut self, now: Ps, logical: u64) -> ReadResult {
        self.stats.reads_served += 1;
        let (mapped, t) = if self.identity {
            (Some(logical), now)
        } else {
            self.amt.translate(now, logical, &mut self.nvmm)
        };
        match mapped {
            Some(REMOTE_SENTINEL) => {
                // The line lives in another replay slice's bank partition.
                // Charge one remote read (latency, energy and counters on
                // this slice, no local bank occupancy) plus the exposed
                // decrypt, and serve the mirrored plaintext. Remote reads
                // bypass the fault injector — a documented simplification:
                // the owner's copy is scrubbed and ECC-protected there.
                let completion = self.nvmm.charge_remote_read(t);
                let finish = completion.finish
                    + Ps::from_ns(self.cme.cost_model().decrypt_exposed_latency_ns);
                self.charge_crypt_energy();
                let data = self
                    .shard
                    .as_ref()
                    .and_then(|ctx| ctx.remote_lines.get(logical))
                    .copied()
                    .expect("remote sentinel mapping must mirror its plaintext");
                ReadResult {
                    finish,
                    data,
                    outcome: ReadOutcome::Clean,
                }
            }
            Some(physical) => {
                let (finish, read) = self.read_physical(t, physical);
                if !read.outcome.is_data_valid() {
                    // Dedup blast radius: every logical line mapped onto
                    // this physical line — its reference count, including
                    // fingerprint-index pins — is affected by the loss
                    // (exactly one line when nothing is shared).
                    self.stats.uncorrectable_blast_logicals +=
                        u64::from(self.alloc.refcount(physical)).max(1);
                }
                ReadResult {
                    finish,
                    data: read.plain.unwrap_or(CacheLine::ZERO),
                    outcome: read.outcome,
                }
            }
            None => ReadResult {
                finish: t,
                data: CacheLine::ZERO,
                outcome: ReadOutcome::Unmapped,
            },
        }
    }

    /// Power-loss recovery over this core's durable metadata.
    ///
    /// Drops the advisory AMT SRAM cache, detects and rolls back a torn
    /// tail record (`torn_write`), replays the journal window since the
    /// last checkpoint — or, with journaling off, scans the authoritative
    /// AMT region plus the scheme's index region (`index_scan_lines`) to
    /// rebuild — then folds a fresh checkpoint and audits the allocator's
    /// reference counts against the rebuilt mapping state. `index_pins`
    /// are the physical lines the scheme's durable fingerprint index pins
    /// (one reference each); EFIT pins must be released by the caller
    /// *before* recovery since the EFIT is advisory SRAM.
    ///
    /// All recovery traffic is charged as chained NVMM metadata reads (plus
    /// the checkpoint's posted write), so recovery latency and energy scale
    /// with the journal interval — the tradeoff the recovery curve in
    /// EXPERIMENTS.md measures.
    pub fn recover(
        &mut self,
        now: Ps,
        torn_write: bool,
        index_pins: &[u64],
        index_scan_lines: u64,
    ) -> RecoverySummary {
        let energy_before = self.nvmm.stats().total_energy().as_pj();
        self.amt.drop_sram_cache();
        let mut t = now;
        let mut replay_reads = 0u64;
        let mut torn_rollbacks = 0u64;
        if torn_write {
            // The in-flight write reached durable structures but its tail
            // record never committed: detection reads the journal tail (a
            // scan finds the tear as part of the rebuild) and the record is
            // rolled back. The access was never acknowledged; the engine
            // re-executes it after recovery, so nothing acknowledged is
            // lost.
            if self.journal.enabled() {
                let completion = self.nvmm.metadata_read(t, self.journal.line_addr());
                t = completion.finish;
                replay_reads += 1;
            }
            torn_rollbacks = 1;
        }
        let records_replayed = self.journal.records_since_checkpoint();
        if self.journal.enabled() {
            // Replay: checkpoint root plus every journal line in the window,
            // read back in order.
            for _ in 0..self.journal.replay_reads() {
                let completion = self.nvmm.metadata_read(t, self.journal.line_addr());
                t = completion.finish;
                replay_reads += 1;
            }
        } else {
            // No journal: rebuild by scanning the authoritative AMT region
            // and the scheme's index region line by line.
            let scan_lines = self.amt.nvmm_bytes().div_ceil(64) + index_scan_lines;
            for i in 0..scan_lines {
                let completion = self
                    .nvmm
                    .metadata_read(t, crate::amt::AMT_NVMM_BASE + i * 64);
                t = completion.finish;
            }
            replay_reads += scan_lines;
        }
        // Start the post-crash epoch from a clean checkpoint.
        self.journal.checkpoint(t, &mut self.nvmm);
        self.obs.span("crash", "recovery", now, t);

        // Refcount audit: every allocated line's count must equal the
        // references the rebuilt metadata holds on it — AMT mappings (the
        // remote sentinel pins nothing locally), the scheme's index pins,
        // and this slice's intentional directory-publish pins.
        let mut expected: U64Map<u64> = U64Map::new();
        let mut expect = |physical: u64| *expected.get_or_insert_with(physical, || 0) += 1;
        for (_logical, physical) in self.amt.mappings() {
            if physical != REMOTE_SENTINEL {
                expect(physical);
            }
        }
        index_pins.iter().copied().for_each(&mut expect);
        self.publish_pins.iter().copied().for_each(&mut expect);
        let mut leaked = 0u64;
        for (physical, count) in self.alloc.refcounts() {
            let wanted = expected.remove(physical).unwrap_or(0);
            leaked += u64::from(count).abs_diff(wanted);
        }
        for (_physical, &wanted) in expected.iter() {
            leaked += wanted; // expected pins on lines no longer allocated
        }

        RecoverySummary {
            finish: t,
            latency: elapsed_latency(now, t),
            records_replayed,
            replay_reads,
            pins_released: 0,
            torn_rollbacks,
            refcounts_leaked: leaked,
            energy_pj: self.nvmm.stats().total_energy().as_pj() - energy_before,
        }
    }
}

/// What [`Core::read_physical`] hands back to the pipeline: the decrypted
/// plaintext when one exists, the read's integrity classification, and how
/// many of its corrections repaired stored-ECC (fingerprint) bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhysicalRead {
    /// Decrypted plaintext; `None` for unmapped addresses and uncorrectable
    /// lines. Present for miscorrections — hardware returns the wrong
    /// bytes — so always gate use on `outcome.is_data_valid()`.
    pub plain: Option<CacheLine>,
    /// Integrity classification of the read.
    pub outcome: ReadOutcome,
    /// Words whose *stored ECC* bits (check/parity) were repaired.
    pub ecc_bit_corrections: u8,
}

/// One stored line decoded against its ECC and the fault injector's ground
/// truth.
struct DecodedStore {
    /// The corrected ciphertext when decode produced bytes (including
    /// miscorrections); `None` when uncorrectable.
    cipher: Option<[u8; esd_sim::LINE_BYTES]>,
    /// Integrity classification (never `Unmapped` — a line was stored).
    outcome: ReadOutcome,
    /// Words whose stored-ECC bits were repaired.
    ecc_bit_corrections: u8,
}

/// Decodes one stored line, updating the reliability counters.
fn decode_stored(
    stats: &mut SchemeStats,
    stored: &esd_sim::StoredLine,
    pristine: Option<&esd_sim::StoredLine>,
) -> DecodedStore {
    match esd_ecc::decode_line(&stored.data, esd_ecc::LineEcc::from_u64(stored.ecc)) {
        Ok(decoded) => {
            let mut ecc_bit_corrections = 0u8;
            if decoded.corrected_words > 0 {
                stats.reads_corrected += 1;
                stats.corrected_words += decoded.corrected_words as u64;
                for (w, c) in decoded.corrected.iter().enumerate() {
                    if c.is_some() {
                        stats.corrected_by_word[w] += 1;
                    }
                }
                ecc_bit_corrections = decoded.corrected_ecc_bits() as u8;
                stats.corrected_ecc_bits += u64::from(ecc_bit_corrections);
            }
            // A decode that "succeeds" with wrong bytes is a SEC-DED
            // miscorrection (three or more flips aliased onto a clean or
            // correctable syndrome) — only detectable against the fault
            // injector's pristine shadow.
            let miscorrected = pristine.is_some_and(|p| decoded.line != p.data);
            let outcome = if miscorrected {
                stats.miscorrections += 1;
                ReadOutcome::Miscorrected
            } else if decoded.corrected_words > 0 {
                ReadOutcome::Corrected {
                    words: decoded.corrected_words as u8,
                }
            } else {
                ReadOutcome::Clean
            };
            DecodedStore {
                cipher: Some(decoded.line),
                outcome,
                ecc_bit_corrections,
            }
        }
        Err(_) => {
            stats.reads_uncorrectable += 1;
            DecodedStore {
                cipher: None,
                outcome: ReadOutcome::Uncorrectable,
                ecc_bit_corrections: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;

    fn core() -> Core {
        Core::new(&SystemConfig::default(), &Policy::of(SchemeKind::Esd))
    }

    #[test]
    fn core_unique_write_then_read_round_trips() {
        let mut core = core();
        let line = CacheLine::from_fill(0x5A);
        let (done, finish, phys) = core.write_unique(Ps::ZERO, 0x40, &line, false);
        assert!(finish >= done - core.sram_latency);
        let result = core.read_logical(finish, 0x40);
        assert_eq!(result.data, line);
        assert_eq!(core.amt.peek(0x40), Some(phys));
    }

    #[test]
    fn identity_mapping_stores_in_place_and_skips_the_amt() {
        let mut core = Core::new(&SystemConfig::default(), &Policy::of(SchemeKind::Baseline));
        let line = CacheLine::from_fill(0x5A);
        let (done, finish, phys) = core.write_unique(Ps::ZERO, 0x1040, &line, false);
        assert_eq!(phys, 0x1040);
        assert_eq!(
            done,
            core.encrypt_latency(),
            "processing ends with encryption"
        );
        assert!(core.amt.is_empty());
        assert_eq!(core.alloc.live_lines(), 0);
        assert_eq!(core.read_logical(finish, 0x1040).data, line);
        assert_eq!(core.nvmm.stats().metadata.reads, 0);
    }

    #[test]
    fn overwrite_frees_previous_physical() {
        let mut core = core();
        let (_, _, p1) = core.write_unique(Ps::ZERO, 0x40, &CacheLine::from_fill(1), false);
        let (_, _, p2) = core.write_unique(Ps::ZERO, 0x40, &CacheLine::from_fill(2), false);
        // The overwritten line is released before the new one is allocated,
        // so the allocator hands the same line straight back.
        assert_eq!(p2, p1);
        assert_eq!(core.alloc.refcount(p2), 1);
        assert_eq!(core.alloc.live_lines(), 1);
    }

    #[test]
    fn remap_shares_physical_and_releases_old() {
        let mut core = core();
        let (_, _, p1) = core.write_unique(Ps::ZERO, 0x40, &CacheLine::from_fill(1), false);
        let (_, _, p2) = core.write_unique(Ps::ZERO, 0x80, &CacheLine::from_fill(2), false);
        // Dedup 0x40 onto p2: p1 loses its only reference.
        core.remap_to(Ps::ZERO, 0x40, p2);
        assert_eq!(core.alloc.refcount(p1), 0);
        assert_eq!(core.alloc.refcount(p2), 2);
        // Re-dedup of the same mapping is a no-op.
        core.remap_to(Ps::ZERO, 0x40, p2);
        assert_eq!(core.alloc.refcount(p2), 2);
    }

    #[test]
    fn charge_adds_to_the_bucket_and_emits_the_span() {
        let mut core = core();
        core.obs = Obs::enabled(0);
        let end = core.charge(Stage::Compare, Ps::from_ns(5), Ps::from_ns(7));
        assert_eq!(end, Ps::from_ns(7));
        assert_eq!(core.breakdown.compare, Ps::from_ns(2));
        let event = *core.obs.tracer().events().next().expect("one span");
        assert_eq!(
            (event.name, event.ts, event.dur),
            ("compare", Ps::from_ns(5), Ps::from_ns(2))
        );
    }

    #[test]
    #[should_panic]
    fn mis_ordered_charge_panics_instead_of_flattening_to_zero() {
        core().charge(Stage::UniqueWrite, Ps::from_ns(10), Ps::from_ns(5));
    }

    fn entry(owner: u32, fill: u8) -> RemoteEntry {
        RemoteEntry {
            owner,
            line: CacheLine::from_fill(fill),
        }
    }

    #[test]
    fn directory_keeps_the_first_advertisement_of_a_fingerprint() {
        let mut directory = Directory::default();
        assert!(directory.get(7).is_none());
        directory.merge([(7, entry(2, 0xAA)), (9, entry(2, 0xBB))]);
        // A later merge — a higher slice at the same quantum end, or any
        // slice at a later one — never displaces an entry.
        directory.merge([(7, entry(5, 0xCC)), (11, entry(5, 0xDD))]);
        let owners = |fp| directory.get(fp).map(|e| (e.owner, e.line));
        assert_eq!(owners(7), Some((2, CacheLine::from_fill(0xAA))));
        assert_eq!(owners(9), Some((2, CacheLine::from_fill(0xBB))));
        assert_eq!(owners(11), Some((5, CacheLine::from_fill(0xDD))));
        assert!(directory.get(8).is_none());
    }

    #[test]
    fn an_owners_own_advertisement_is_a_miss_and_charges_nothing() {
        let line = CacheLine::from_fill(0x42);
        let mut directory = Directory::default();
        directory.merge([(7, entry(3, 0x42))]);
        let probe = |slice: u32| {
            let mut core = core();
            core.shard = Some(ShardCtx::new(slice));
            let advertised = core.advertised(Some(&directory), 7);
            assert!(advertised.is_some());
            let result = core.try_remote_dedup(Ps::ZERO, Ps::ZERO, 0x40, &line, advertised, true);
            (result, core.stats, core.breakdown)
        };
        let (own, stats, breakdown) = probe(3);
        assert!(matches!(own, RemoteProbe::Miss));
        assert_eq!(stats, SchemeStats::default());
        assert_eq!(breakdown, WriteLatencyBreakdown::default());
        let (other, stats, _) = probe(4);
        assert!(matches!(other, RemoteProbe::Dedup(r) if r.deduplicated));
        assert_eq!((stats.compare_reads, stats.writes_deduplicated), (1, 1));
        // Without a shard context the directory is never consulted.
        assert!(core().advertised(Some(&directory), 7).is_none());
    }

    #[test]
    fn read_of_unmapped_logical_returns_zero_line() {
        let mut core = core();
        let r = core.read_logical(Ps::ZERO, 0xFFFF_0040);
        assert!(r.data.is_zero());
        assert_eq!(r.outcome, ReadOutcome::Unmapped);
        assert_eq!(core.stats.reads_uncorrectable, 0);
    }

    #[test]
    fn corrected_read_counts_word_position_and_stays_valid() {
        let mut core = core();
        let line = CacheLine::from_fill(0x77);
        let (_, finish, phys) = core.write_unique(Ps::ZERO, 0x40, &line, false);
        core.nvmm.medium_mut().inject_bit_flip(phys, 26, 1); // word 3
        let r = core.read_logical(finish, 0x40);
        assert_eq!(r.outcome, ReadOutcome::Corrected { words: 1 });
        assert_eq!(r.data, line, "single flips must round-trip");
        assert_eq!(core.stats.reads_corrected, 1);
        assert_eq!(core.stats.corrected_words, 1);
        assert_eq!(core.stats.corrected_by_word[3], 1);
        assert_eq!(core.stats.corrected_ecc_bits, 0);
    }

    #[test]
    fn uncorrectable_read_is_flagged_and_counts_blast_radius() {
        let mut core = core();
        let line = CacheLine::from_fill(0x3C);
        let (_, finish, phys) = core.write_unique(Ps::ZERO, 0x40, &line, false);
        // Share the physical line with a second logical address.
        core.remap_to(finish, 0x80, phys);
        core.nvmm.medium_mut().inject_bit_flip(phys, 0, 0);
        core.nvmm.medium_mut().inject_bit_flip(phys, 0, 1);
        let r = core.read_logical(finish, 0x40);
        assert_eq!(r.outcome, ReadOutcome::Uncorrectable);
        assert!(r.data.is_zero(), "no fabricated content");
        assert!(!r.outcome.is_data_valid());
        assert_eq!(core.stats.reads_uncorrectable, 1);
        assert_eq!(
            core.stats.uncorrectable_blast_logicals, 2,
            "both sharers of the physical line are lost"
        );
    }
}
