//! Trace replay: the whole trace, in program order, through one scheme over
//! the full system — one CPU model, one verification shadow, one scrubber —
//! collected into a [`RunReport`].
//!
//! Accesses run in blocks of [`DEFAULT_BATCH`], each in three stages:
//! gather, compute the write lines' keys in one call over the block
//! ([`crate::FingerprintSpec::compute_keys`]), then execute the block in
//! trace order, handing each write its key and each verified read the line
//! it must return. Gather is one in-order pass over the block: a write
//! pushes its line for fingerprinting (a scheme without a fingerprint,
//! Baseline, pushes nothing) and records its trace index in the
//! verification shadow; a verified read looks its address up and records
//! the index of the last write to it. The shadow is a [`LineTable`] whose
//! array covers, from the start, as many lines as the trace has accesses,
//! so for a trace drawn from a working set below that a verified write is
//! one array store and a verified read one array load; far or sparse
//! addresses go to its map.
//!
//! Gather runs one block ahead of execute, with the two blocks' lines,
//! keys and expected indices double-buffered, and it issues cache hints
//! ([`esd_collections::prefetch`]) where the next block will miss: the
//! line of each verified read's expected write, somewhere in the trace,
//! and the AMT slot of each access and the EFIT or store slot of each
//! write's key. A hint blocks nothing, so the misses of a whole block are
//! in flight while the block before it executes, and execute compares each
//! read against the trace's line in place. A hint reads no table, moves no
//! stamp, counts nothing and allocates nothing, and a table that grows
//! before the block executes only makes a hint useless. Keys are pure
//! functions of line content, the scheme charges the full modeled
//! fingerprint cost either way, and the shadow is host state only, so
//! nothing gather does reaches the report. Block bounds depend on the
//! trace and the crash point only: a block ends after [`DEFAULT_BATCH`]
//! accesses or at the crash point, and the crash fires just before the
//! block that starts there executes.

use std::ops::Range;

use esd_collections::{prefetch, LineTable};
use esd_obs::{EpochSnapshot, Obs};
use esd_sim::{CpuModel, LatencyHistogram, Ps, SystemConfig, LINE_BYTES};
use esd_trace::{AccessKind, CacheLine, Trace};

use crate::journal::{RecoveryReport, RecoverySummary};
use crate::report::{ReliabilityReport, RunReport};
use crate::runner::{RunOptions, VerifyError, DEFAULT_BATCH};
use crate::scheme::{elapsed_latency, FingerprintSpec, Scheme};
use crate::scrub::Scrubber;

/// Cumulative state at the last epoch boundary, the base of the next
/// epoch's deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    end_time: Ps,
    instructions: u64,
    writes_received: u64,
    writes_deduplicated: u64,
    fp_hits: u64,
    fp_misses: u64,
    energy_pj: u64,
}

/// Everything the replay owns for the duration of the run.
struct Replay<'a> {
    trace: &'a Trace,
    options: &'a RunOptions,
    config: &'a SystemConfig,
    scheme: Scheme,
    cpu: CpuModel,
    scrubber: Option<Scrubber>,
    write_latency: LatencyHistogram,
    read_latency: LatencyHistogram,
    epochs: Vec<EpochSnapshot>,
    /// Access index at which the next epoch closes (`usize::MAX` with
    /// epochs off), so each access checks for a boundary with one compare.
    next_epoch: usize,
    mark: Mark,
    /// Fingerprint-cache `(hits, misses)` the crash erased from the
    /// scheme's own counters (the EFIT's reset with its contents), kept so
    /// the epoch series stays cumulative.
    fp_erased: (u64, u64),
    /// What recovery cost after the injected crash (`None` when no crash
    /// fired).
    recovery: Option<RecoverySummary>,
}

/// The access index at which epoch `index` of `interval` accesses closes,
/// `usize::MAX` when epochs are off or the boundary lies past any trace.
fn epoch_end(interval: Option<u64>, index: usize) -> usize {
    interval.map_or(usize::MAX, |n| {
        let end = (index as u64 + 1).saturating_mul(n.max(1));
        usize::try_from(end).unwrap_or(usize::MAX)
    })
}

/// `num / den`, zero on an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Replay<'_> {
    /// Closes the epoch ending at access `next_epoch`, at the current
    /// instant: deltas against the previous boundary, occupancies as they
    /// stand now.
    fn record_epoch(&mut self) {
        let now = self.cpu.now();
        let stats = self.scheme.stats();
        let (hits, misses) = self
            .scheme
            .fingerprint_cache_stats()
            .map_or((0, 0), |c| (c.hits, c.misses));
        let mark = Mark {
            end_time: now,
            instructions: self.cpu.instructions(),
            writes_received: stats.writes_received,
            writes_deduplicated: stats.writes_deduplicated,
            fp_hits: hits + self.fp_erased.0,
            fp_misses: misses + self.fp_erased.1,
            energy_pj: (self.scheme.nvmm().stats().total_energy() + stats.compute_energy).as_pj(),
        };
        let prev = std::mem::replace(&mut self.mark, mark);
        let d_cycles = self
            .config
            .cpu
            .clock
            .ps_to_cycles_f64(elapsed_latency(prev.end_time, now));
        let d_hits = mark.fp_hits - prev.fp_hits;
        let d_lookups = d_hits + (mark.fp_misses - prev.fp_misses);
        let epoch = EpochSnapshot {
            index: self.epochs.len() as u64,
            end_access: self.next_epoch as u64,
            end_time: now,
            ipc: ratio((mark.instructions - prev.instructions) as f64, d_cycles),
            dedup_rate: ratio(
                (mark.writes_deduplicated - prev.writes_deduplicated) as f64,
                (mark.writes_received - prev.writes_received) as f64,
            ),
            fingerprint_hit_rate: ratio(d_hits as f64, d_lookups as f64),
            write_buffer_depth: self.cpu.write_buffer_occupancy() as u64,
            busy_banks: self.scheme.nvmm().pcm().busy_banks(now) as u64,
            energy_pj: mark.energy_pj - prev.energy_pj,
        };
        let obs = self.scheme.obs_mut();
        obs.counter_sample(
            "epoch",
            "write_buffer_depth",
            now,
            epoch.write_buffer_depth as f64,
        );
        obs.counter_sample("epoch", "busy_banks", now, epoch.busy_banks as f64);
        obs.counter_sample("epoch", "ipc", now, epoch.ipc);
        self.epochs.push(epoch);
    }

    /// Closes every epoch whose boundary lies at or before access `g`.
    #[cold]
    fn catch_up_epochs(&mut self, g: usize) {
        while self.next_epoch <= g {
            self.record_epoch();
            self.next_epoch = epoch_end(self.options.epoch_interval, self.epochs.len());
        }
    }

    /// Replays access `g`: epoch catch-up, CPU execute, scrub tick, then
    /// the memory access itself. `fingerprint` carries a write's key from
    /// the block's fingerprint stage (`None` for a scheme without one);
    /// `expected` is the trace line of the write a verified read must
    /// return (`None` when unverified or the address was never written).
    fn access(
        &mut self,
        g: usize,
        fingerprint: Option<u64>,
        expected: Option<&CacheLine>,
    ) -> Result<(), VerifyError> {
        if g >= self.next_epoch {
            self.catch_up_epochs(g);
        }
        let access = &self.trace.accesses[g];
        self.cpu.execute(u64::from(access.instruction_gap));
        let now = self.cpu.now();
        if let (Some(scrubber), Some(interval)) =
            (self.scrubber.as_mut(), self.options.scrub_interval)
        {
            if g > 0 && (g as u64).is_multiple_of(interval.max(1)) {
                let scrub_end = scrubber.tick(self.scheme.nvmm_mut(), now);
                self.scheme
                    .obs_mut()
                    .span("scrub", "scrub_tick", now, scrub_end.max(now));
            }
        }
        match access.kind {
            AccessKind::Write => {
                let line = access.data.expect("write carries data");
                let result = self.scheme.write_keyed(now, access.addr, line, fingerprint);
                self.write_latency.record(result.latency);
                let release = result
                    .device_finish
                    .map_or(result.processing_done, |f| f.max(result.processing_done));
                self.cpu.admit_write(release);
            }
            AccessKind::Read => {
                let result = self.scheme.read(now, access.addr);
                self.read_latency
                    .record(elapsed_latency(now, result.finish));
                self.cpu.complete_read(result.finish);
                if let Some(expected) = expected {
                    if result.outcome.is_data_valid() && result.data != *expected {
                        return Err(VerifyError {
                            scheme: self.scheme.kind(),
                            addr: access.addr,
                            access_index: g,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Injects the power-loss crash: the scheme loses its volatile state
    /// and recovers from the current instant, with the core stalled (as a
    /// read stall) until recovery finishes. `torn` marks the in-flight
    /// write's metadata as torn — the crash stage reaches the scheme only
    /// through that.
    fn crash(&mut self, torn: bool) {
        let counters = |scheme: &Scheme| {
            scheme
                .fingerprint_cache_stats()
                .map_or((0, 0), |c| (c.hits, c.misses))
        };
        let before = counters(&self.scheme);
        let summary = self.scheme.crash_recover_at(self.cpu.now(), torn);
        let after = counters(&self.scheme);
        self.fp_erased.0 += before.0 - after.0;
        self.fp_erased.1 += before.1 - after.1;
        self.cpu.stall_until(summary.finish);
        self.recovery = Some(summary);
    }

    fn into_report(mut self) -> RunReport {
        let options = self.options;
        let obs = options
            .observe
            .then(|| std::mem::take(self.scheme.obs_mut()));
        let recovery = options
            .crash_at
            .zip(self.recovery)
            .map(|(point, summary)| RecoveryReport {
                crash_access: point.access,
                crash_stage: point.stage,
                journal_interval: options.journal_every,
                records_replayed: summary.records_replayed,
                replay_reads: summary.replay_reads,
                pins_released: summary.pins_released,
                torn_rollbacks: summary.torn_rollbacks,
                refcounts_leaked: summary.refcounts_leaked,
                latency: summary.latency,
                energy_pj: summary.energy_pj,
            });
        let scheme = &self.scheme;
        let nvmm = scheme.nvmm();
        RunReport {
            scheme: scheme.kind(),
            app: self.trace.name.clone(),
            stats: scheme.stats(),
            pcm: *nvmm.stats(),
            write_latency: self.write_latency,
            read_latency: self.read_latency,
            breakdown: scheme.breakdown(),
            ipc: self.cpu.ipc(),
            fingerprint_cache: scheme.fingerprint_cache_stats(),
            amt_cache: scheme.amt_cache_stats(),
            metadata: scheme.metadata_footprint(),
            max_wear: nvmm.medium().max_wear(),
            wear_moves: nvmm.wear_leveler().map_or(0, |l| l.total_moves()),
            reliability: ReliabilityReport {
                faults: nvmm.medium().fault_stats(),
                scrub: self.scrubber.map(|s| s.stats()).unwrap_or_default(),
            },
            epochs: self.epochs,
            predictor: scheme.predictor_stats(),
            obs,
            recovery,
        }
    }
}

/// One block of accesses as gather leaves it for execute.
#[derive(Default)]
struct Block {
    /// The block's trace indices.
    range: Range<usize>,
    /// The block's write lines, in order (none for a scheme without a
    /// fingerprint).
    lines: Vec<[u8; LINE_BYTES]>,
    /// Their keys.
    keys: Vec<u64>,
    /// Each verified read's expected line, in order: the trace index of the
    /// last write to its address before it, `None` if there was none.
    expected: Vec<Option<u32>>,
}

impl Block {
    /// Executes the block in trace order, handing each write its key and
    /// each verified read the trace line it must return, compared in place.
    fn execute(&self, replay: &mut Replay<'_>) -> Result<(), VerifyError> {
        let trace = replay.trace;
        let mut keys = self.keys.iter().copied();
        let mut expected = self.expected.iter().copied();
        for (g, access) in self.range.clone().zip(&trace.accesses[self.range.clone()]) {
            let (fingerprint, expected) = match access.kind {
                AccessKind::Write => (keys.next(), None),
                AccessKind::Read => (
                    None,
                    expected.next().flatten().map(|w| {
                        trace.accesses[w as usize]
                            .data
                            .as_ref()
                            .expect("write carries data")
                    }),
                ),
            };
            replay.access(g, fingerprint, expected)?;
        }
        Ok(())
    }
}

/// The gather stage: what it reads, and the verification shadow it keeps
/// across blocks.
struct Gather<'a> {
    trace: &'a Trace,
    /// The scheme's fingerprint, `None` for a scheme without one.
    spec: Option<FingerprintSpec>,
    verify: bool,
    /// Logical address → trace index of the last write to it gathered so
    /// far (whose `data` is what a later read must return). Empty unless
    /// `verify`. A trace touches at most as many lines as it has accesses,
    /// so the array covers that many (rounded up to a power of two) from
    /// the start; it is filled only up to the highest line written, and
    /// nothing iterates it.
    shadow: LineTable<u32>,
}

impl Gather<'_> {
    /// Gathers accesses `range` into `block`, in trace order so a read sees
    /// exactly the writes before it, its own block's included: a write
    /// records its index in the shadow and pushes its line for
    /// fingerprinting; a verified read records the index of the write it
    /// must return. Then the block's keys are computed in one call. What
    /// the block will read first gets a cache hint instead of a load: each
    /// expected line, and each access's mapping and index slot in
    /// `scheme`, which nothing here changes.
    fn block(&mut self, range: Range<usize>, scheme: &Scheme, block: &mut Block) {
        block.lines.clear();
        block.keys.clear();
        block.expected.clear();
        let accesses = &self.trace.accesses[range.clone()];
        for (g, access) in range.clone().zip(accesses) {
            match access.kind {
                AccessKind::Write => {
                    if self.spec.is_some() {
                        block
                            .lines
                            .push(*access.data.expect("write carries data").as_bytes());
                    }
                    if self.verify {
                        *self.shadow.get_or_default(access.addr) = g as u32;
                    }
                }
                AccessKind::Read if self.verify => {
                    let w = self.shadow.get(access.addr).copied();
                    if let Some(w) = w {
                        prefetch(&self.trace.accesses[w as usize].data);
                    }
                    block.expected.push(w);
                }
                AccessKind::Read => {}
            }
        }
        // Only a scheme with a fingerprint has an AMT and an index to hint.
        if let Some(spec) = self.spec {
            spec.compute_keys(&block.lines, &mut block.keys);
            let mut keys = block.keys.iter().copied();
            for access in accesses {
                let key = match access.kind {
                    AccessKind::Write => keys.next(),
                    AccessKind::Read => None,
                };
                scheme.prefetch(access.addr, key);
            }
        }
        block.range = range;
    }
}

/// Replays `trace` through `scheme` over the full `config`.
pub(crate) fn run(
    mut scheme: Scheme,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    assert!(
        trace.len() <= u32::MAX as usize,
        "the verification shadow indexes accesses with u32"
    );
    // Dispatch is a process-global; bit-exactness of the hardware kernels
    // keeps the report byte-identical across this choice.
    esd_kernels::set_backend(options.kernels);
    scheme.journal_configure(options.journal_every);
    if options.observe {
        *scheme.obs_mut() = Obs::enabled(options.trace_capacity);
    }
    let spec = scheme.fingerprint_spec();
    let mut replay = Replay {
        trace,
        options,
        config,
        scheme,
        cpu: CpuModel::new(config.cpu, config.controller.write_buffer_depth),
        scrubber: options
            .scrub_interval
            .map(|_| Scrubber::new(options.scrub_lines_per_tick)),
        write_latency: LatencyHistogram::new(),
        read_latency: LatencyHistogram::new(),
        epochs: Vec::new(),
        next_epoch: epoch_end(options.epoch_interval, 0),
        mark: Mark::default(),
        fp_erased: (0, 0),
        recovery: None,
    };

    // The injected crash is a replay boundary: every access before it
    // completes and is acknowledged, the power loss hits while access `g`
    // is in flight, recovery runs, and replay resumes *at* `g` — the
    // in-flight access was never acknowledged, so re-executing it is
    // exactly what real hardware sees. A point beyond the trace never
    // fires. The in-flight write's metadata is torn when the stage it
    // crashed in mutates durable metadata.
    let total = trace.len();
    let crash = options.crash_at.and_then(|point| {
        let g = usize::try_from(point.access).ok().filter(|&g| g < total)?;
        let torn =
            matches!(trace.accesses[g].kind, AccessKind::Write) && point.stage.tears_metadata();
        Some((g, torn))
    });

    let block_end = |start: usize| {
        let end = total.min(start + DEFAULT_BATCH as usize);
        match crash {
            Some((g, _)) if start < g && g < end => g,
            _ => end,
        }
    };
    let mut gather = Gather {
        trace,
        spec,
        verify: options.verify,
        shadow: LineTable::with_dense_span(total),
    };
    let (mut current, mut next) = (Block::default(), Block::default());
    gather.block(0..block_end(0), &replay.scheme, &mut current);
    while current.range.start < total {
        // Gather runs a block ahead, so its hints are in flight while this
        // block executes.
        let start = current.range.end;
        gather.block(start..block_end(start), &replay.scheme, &mut next);
        if let Some((g, torn)) = crash {
            if g == current.range.start {
                replay.crash(torn);
            }
        }
        current.execute(&mut replay)?;
        std::mem::swap(&mut current, &mut next);
    }
    // Close the epochs whose boundaries the last access did not reach.
    replay.catch_up_epochs(total);
    Ok(replay.into_report())
}
