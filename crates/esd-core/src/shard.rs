//! Bank-sliced replay: one trace, split by PCM bank into independent
//! slices, simulated one after another on the calling thread and merged
//! into a single [`RunReport`].
//!
//! # Model
//!
//! The PCM device exposes `config.pcm.banks` independently schedulable
//! banks. The engine statically partitions the *logical* address space
//! bank-granularly — `slice_of(addr) = (addr / 64) % banks` — and gives
//! each slice its own complete scheme instance over a 1-bank slice of the
//! system (its share of device capacity, metadata caches and write-buffer
//! depth, see [`slice_config`]). Every slice replays exactly the accesses
//! it owns, charging the **full** instruction gap between consecutive owned
//! accesses to its private CPU model, so slice-local time tracks global
//! program time: each slice models "the core plus my bank", stalled only by
//! its own memory traffic.
//!
//! # The quantum and the directory
//!
//! The trace advances in quanta of [`RunOptions::quantum`] accesses, and
//! slices are data-independent within one: cross-slice deduplication goes
//! through a [`Directory`] the engine owns, lends frozen to each slice in
//! turn for the length of a quantum, and updates only at the quantum's end,
//! when it folds the slices' publish queues in, **in slice order**,
//! first-writer-wins. A slice therefore never sees what another advertised
//! in the same quantum, not even a slice the loop visited before it: the
//! report is a function of the slicing and the quantum, which are the
//! model, and not of the order the host visits slices in. All statistics
//! are merged by commutative/ordered reduction in slice order at the end of
//! the run.

use esd_collections::U64Map;
use esd_obs::{EpochSnapshot, EventKind, Obs, TraceEvent};
use esd_sim::{
    CacheStats, CpuModel, FaultStats, LatencyHistogram, PcmStats, Ps, SystemConfig,
    WriteLatencyBreakdown, LINE_BYTES,
};
use esd_trace::{AccessKind, Trace};

use crate::journal::{CrashStage, RecoveryReport, RecoverySummary};
use crate::machinery::{Directory, ShardCtx};
use crate::predictor::PredictorStats;
use crate::report::{ReliabilityReport, RunReport};
use crate::runner::{RunOptions, VerifyError, DEFAULT_BATCH};
use crate::scheme::{elapsed_latency, MetadataFootprint, Scheme, SchemeStats};
use crate::scrub::{ScrubStats, Scrubber};

/// Which replay slice owns a logical line address.
#[inline]
pub(crate) fn slice_of(addr: u64, nslices: u32) -> u32 {
    ((addr / LINE_BYTES as u64) % u64::from(nslices.max(1))) as u32
}

/// Derives the per-slice system configuration: one bank, a proportional
/// share of device capacity, metadata caches and write-buffer depth, and a
/// slice-distinct fault-injection seed. The CPU parameters are untouched —
/// every slice models the full core against its own bank.
pub(crate) fn slice_config(config: &SystemConfig, slice: u32, nslices: u32) -> SystemConfig {
    let n = u64::from(nslices.max(1));
    let share = |bytes: u64, floor: u64| if bytes == 0 { 0 } else { (bytes / n).max(floor) };
    let mut cfg = *config;
    cfg.pcm.banks = 1;
    cfg.pcm.capacity_bytes = share(config.pcm.capacity_bytes, LINE_BYTES as u64);
    // Decorrelate the per-slice fault injectors (golden-ratio mix) while
    // keeping them a pure function of (seed, slice).
    cfg.pcm.rber_seed = config.pcm.rber_seed
        ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(slice) + 1);
    cfg.controller.fingerprint_cache_bytes =
        share(config.controller.fingerprint_cache_bytes, 4096);
    cfg.controller.mapping_cache_bytes = share(config.controller.mapping_cache_bytes, 4096);
    cfg.controller.counter_cache_bytes = share(config.controller.counter_cache_bytes, 4096);
    cfg.controller.write_buffer_depth =
        (config.controller.write_buffer_depth / nslices.max(1)).max(1);
    cfg
}

/// Cumulative slice-local state captured at one global epoch boundary.
#[derive(Debug, Clone, Copy, Default)]
struct SliceMark {
    end_time: Ps,
    writes_received: u64,
    writes_deduplicated: u64,
    fp_hits: u64,
    fp_misses: u64,
    energy_pj: u64,
    write_buffer_depth: u64,
    busy_banks: u64,
}

/// One block's write lines, gathered from the trace, and the fingerprint
/// keys the multi-lane kernels computed for them. Kept on the slice so a
/// run allocates them once, not once per block.
#[derive(Default)]
struct BatchBuffers {
    /// The block's write-line payloads, contiguous for the lane kernels.
    lines: Vec<[u8; LINE_BYTES]>,
    /// One fingerprint key per gathered line, in gather order.
    keys: Vec<u64>,
}

/// Everything one replay slice owns for the duration of the run.
struct SliceState {
    scheme: Scheme,
    cpu: CpuModel,
    scrubber: Option<Scrubber>,
    /// Verification shadow: logical address → global trace index of the
    /// last write to it (whose `data` is what a read must return).
    shadow: U64Map<u32>,
    write_latency: LatencyHistogram,
    read_latency: LatencyHistogram,
    /// `(global access index, instructions to execute before it)` for every
    /// owned access, in trace order.
    owned: Vec<(u32, u64)>,
    cursor: usize,
    marks: Vec<SliceMark>,
    error: Option<VerifyError>,
    buffers: BatchBuffers,
    /// What recovery cost this slice after an injected crash (`None` when
    /// no crash fired).
    recovery: Option<RecoverySummary>,
    /// Fingerprint-cache `(hits, misses)` the crash erased from the
    /// scheme's own counters (the EFIT's reset with its contents), kept so
    /// the epoch marks stay cumulative.
    fp_erased: (u64, u64),
}

impl SliceState {
    fn record_mark(&mut self) {
        let now = self.cpu.now();
        let stats = self.scheme.stats();
        let (fp_hits, fp_misses) = self
            .scheme
            .fingerprint_cache_stats()
            .map_or((0, 0), |c| (c.hits, c.misses));
        self.marks.push(SliceMark {
            end_time: now,
            writes_received: stats.writes_received,
            writes_deduplicated: stats.writes_deduplicated,
            fp_hits: fp_hits + self.fp_erased.0,
            fp_misses: fp_misses + self.fp_erased.1,
            energy_pj: (self.scheme.nvmm().stats().total_energy() + stats.compute_energy)
                .as_pj(),
            write_buffer_depth: self.cpu.write_buffer_occupancy() as u64,
            busy_banks: self.scheme.nvmm().pcm().busy_banks(now) as u64,
        });
    }
}

/// Static partition of the trace: per-slice access lists (with full-gap
/// instruction charges), per-slice write counts (shadow presizing), and the
/// global instruction prefix at every epoch boundary.
struct Partition {
    owned: Vec<Vec<(u32, u64)>>,
    writes: Vec<usize>,
    instr_at_boundary: Vec<u64>,
}

fn partition_trace(trace: &Trace, nslices: usize, epoch_n: Option<u64>) -> Partition {
    assert!(
        trace.len() <= u32::MAX as usize,
        "sharded replay indexes accesses with u32"
    );
    let mut owned: Vec<Vec<(u32, u64)>> = vec![Vec::new(); nslices];
    let mut writes = vec![0usize; nslices];
    let mut instr_at_boundary = Vec::new();
    let mut total_gap = 0u64;
    let mut last_seen = vec![0u64; nslices];
    for (i, access) in trace.iter().enumerate() {
        let s = slice_of(access.addr, nslices as u32) as usize;
        total_gap += u64::from(access.instruction_gap);
        let exec = total_gap - last_seen[s];
        last_seen[s] = total_gap;
        owned[s].push((i as u32, exec));
        if matches!(access.kind, AccessKind::Write) {
            writes[s] += 1;
        }
        if let Some(n) = epoch_n {
            if ((i + 1) as u64).is_multiple_of(n) {
                instr_at_boundary.push(total_gap);
            }
        }
    }
    Partition {
        owned,
        writes,
        instr_at_boundary,
    }
}

/// Replays one owned access: epoch-mark catch-up, CPU execute, scrub tick,
/// then the memory access itself, over slice-local state.
///
/// `fingerprint` carries a write's key from the block's fingerprint stage
/// (`None` for a scheme without one); the scheme charges the same modeled
/// cost as if it had computed the key inline.
fn replay_access(
    slice: &mut SliceState,
    directory: &Directory,
    trace: &Trace,
    options: &RunOptions,
    g: u32,
    exec: u64,
    fingerprint: Option<u64>,
) {
    if let Some(n) = options.epoch_interval.map(|n| n.max(1)) {
        while (slice.marks.len() as u64 + 1) * n <= u64::from(g) {
            slice.record_mark();
        }
    }
    slice.cpu.execute(exec);
    let now = slice.cpu.now();
    if let (Some(scrubber), Some(interval)) = (slice.scrubber.as_mut(), options.scrub_interval)
    {
        if u64::from(g).is_multiple_of(interval.max(1)) && g > 0 {
            let scrub_end = scrubber.tick(slice.scheme.nvmm_mut(), now);
            slice
                .scheme
                .obs_mut()
                .span("scrub", "scrub_tick", now, scrub_end.max(now));
        }
    }
    let access = &trace.accesses[g as usize];
    match access.kind {
        AccessKind::Write => {
            let line = access.data.expect("write carries data");
            let result =
                slice
                    .scheme
                    .write_in_slice(Some(directory), now, access.addr, line, fingerprint);
            slice.write_latency.record(result.latency);
            let release = result
                .device_finish
                .map_or(result.processing_done, |f| f.max(result.processing_done));
            slice.cpu.admit_write(release);
            if options.verify {
                slice.shadow.insert(access.addr, g);
            }
        }
        AccessKind::Read => {
            let result = slice.scheme.read(now, access.addr);
            slice
                .read_latency
                .record(elapsed_latency(now, result.finish));
            slice.cpu.complete_read(result.finish);
            if options.verify && result.outcome.is_data_valid() && slice.error.is_none() {
                if let Some(&written) = slice.shadow.get(access.addr) {
                    if trace.accesses[written as usize].data.as_ref() != Some(&result.data) {
                        slice.error = Some(VerifyError {
                            scheme: slice.scheme.kind(),
                            addr: access.addr,
                            access_index: g as usize,
                        });
                    }
                }
            }
        }
    }
}

/// Replays every owned access with global index `< end` (starting from the
/// slice's cursor), recording epoch marks at each crossed global boundary.
///
/// The quantum runs in blocks of up to [`DEFAULT_BATCH`] accesses, each in
/// three stages: gather the block's write lines, compute their keys in one
/// multi-lane kernel call ([`crate::FingerprintSpec::compute_keys`]), then
/// execute the block in trace order, handing each write its key. A scheme
/// without a fingerprint (Baseline) gathers nothing. Keys are pure
/// functions of line content and the scheme charges the full modeled
/// fingerprint cost either way, so where the host computes a key never
/// reaches the report.
fn process_quantum(
    slice: &mut SliceState,
    directory: &Directory,
    trace: &Trace,
    options: &RunOptions,
    end: u32,
) {
    let spec = slice.scheme.fingerprint_spec();
    loop {
        // Gather.
        let from = slice.cursor;
        let block = &slice.owned[from..];
        let upto = from
            + block
                .iter()
                .take(DEFAULT_BATCH as usize)
                .take_while(|&&(g, _)| g < end)
                .count();
        if upto == from {
            break;
        }
        let BatchBuffers { lines, keys } = &mut slice.buffers;
        lines.clear();
        keys.clear();
        if let Some(spec) = spec {
            for &(g, _) in &block[..upto - from] {
                let access = &trace.accesses[g as usize];
                if matches!(access.kind, AccessKind::Write) {
                    lines.push(*access.data.expect("write carries data").as_bytes());
                }
            }
            // Fingerprint.
            spec.compute_keys(lines, keys);
        }
        // Execute.
        let mut key_ix = 0usize;
        for i in from..upto {
            let (g, exec) = slice.owned[i];
            slice.cursor += 1;
            let fp = if matches!(trace.accesses[g as usize].kind, AccessKind::Write) {
                let fp = slice.buffers.keys.get(key_ix).copied();
                key_ix += 1;
                fp
            } else {
                None
            };
            replay_access(slice, directory, trace, options, g, exec, fp);
        }
    }
}

/// Injects the power-loss crash into one slice: the scheme loses its
/// volatile state and runs recovery from its slice-local current time,
/// with the core stalled (as a read stall) until recovery finishes. Power
/// loss is global, so every slice recovers concurrently — the merged
/// report takes the max latency across slices. `torn` marks the slice
/// whose in-flight metadata write was torn (the owner of the crash access,
/// when that access is a write and the crash stage mutates durable
/// metadata) — the crash stage reaches the scheme only through that.
fn crash_slice(slice: &mut SliceState, torn: bool) {
    let now = slice.cpu.now();
    let counters = |scheme: &Scheme| {
        scheme
            .fingerprint_cache_stats()
            .map_or((0, 0), |c| (c.hits, c.misses))
    };
    let before = counters(&slice.scheme);
    let summary = slice.scheme.crash_recover_at(now, torn);
    let after = counters(&slice.scheme);
    slice.fp_erased.0 += before.0 - after.0;
    slice.fp_erased.1 += before.1 - after.1;
    slice.cpu.stall_until(summary.finish);
    slice.recovery = Some(summary);
}

/// `num / den`, zero on an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum_scheme_stats(slices: &[SliceState]) -> SchemeStats {
    let mut out = SchemeStats::default();
    for s in slices {
        let st = s.scheme.stats();
        out.writes_received += st.writes_received;
        out.writes_unique += st.writes_unique;
        out.writes_deduplicated += st.writes_deduplicated;
        out.dedup_cache_filtered += st.dedup_cache_filtered;
        out.dedup_nvmm_filtered += st.dedup_nvmm_filtered;
        out.fingerprint_computations += st.fingerprint_computations;
        out.compare_reads += st.compare_reads;
        out.compare_hits += st.compare_hits;
        out.mispredictions += st.mispredictions;
        out.reads_served += st.reads_served;
        out.reads_corrected += st.reads_corrected;
        out.corrected_words += st.corrected_words;
        for (acc, w) in out.corrected_by_word.iter_mut().zip(st.corrected_by_word) {
            *acc += w;
        }
        out.corrected_ecc_bits += st.corrected_ecc_bits;
        out.reads_uncorrectable += st.reads_uncorrectable;
        out.miscorrections += st.miscorrections;
        out.uncorrectable_blast_logicals += st.uncorrectable_blast_logicals;
        out.efit_fingerprint_drift += st.efit_fingerprint_drift;
        out.compute_energy += st.compute_energy;
    }
    out
}

fn sum_pcm_stats(slices: &[SliceState]) -> PcmStats {
    let mut out = PcmStats::default();
    for s in slices {
        let st = s.scheme.nvmm().stats();
        for (acc, c) in [
            (&mut out.data, st.data),
            (&mut out.metadata, st.metadata),
            (&mut out.scrub, st.scrub),
        ] {
            acc.reads += c.reads;
            acc.writes += c.writes;
            acc.energy += c.energy;
        }
        out.busy_time += st.busy_time;
    }
    out
}

fn sum_cache_stats(stats: impl Iterator<Item = Option<CacheStats>>) -> Option<CacheStats> {
    stats.flatten().fold(None, |acc, c| {
        let mut acc = acc.unwrap_or_default();
        acc.hits += c.hits;
        acc.misses += c.misses;
        acc.evictions += c.evictions;
        Some(acc)
    })
}

/// Builds the merged epoch series: boundary times are the max across
/// slices, occupancies (write-buffer depth, busy banks) are **summed**
/// across slices — each slice contributes its own bank and buffer share —
/// and rates come from summed per-interval deltas, with the instruction
/// deltas read off the trace's exact global prefix sums.
fn merge_epochs(
    slices: &[SliceState],
    instr_at_boundary: &[u64],
    interval: u64,
    config: &SystemConfig,
) -> Vec<EpochSnapshot> {
    let num_epochs = instr_at_boundary.len();
    let mut epochs = Vec::with_capacity(num_epochs);
    let mut prev_time = Ps::ZERO;
    let mut prev = SliceMark::default();
    let mut prev_instr = 0u64;
    for (k, &instr) in instr_at_boundary.iter().enumerate() {
        let mut end_time = Ps::ZERO;
        let mut cum = SliceMark::default();
        for s in slices {
            let m = &s.marks[k];
            end_time = end_time.max(m.end_time);
            cum.writes_received += m.writes_received;
            cum.writes_deduplicated += m.writes_deduplicated;
            cum.fp_hits += m.fp_hits;
            cum.fp_misses += m.fp_misses;
            cum.energy_pj += m.energy_pj;
            cum.write_buffer_depth += m.write_buffer_depth;
            cum.busy_banks += m.busy_banks;
        }
        let d_instr = instr - prev_instr;
        let d_cycles = config
            .cpu
            .clock
            .ps_to_cycles_f64(elapsed_latency(prev_time, end_time));
        let d_writes = cum.writes_received - prev.writes_received;
        let d_dedup = cum.writes_deduplicated - prev.writes_deduplicated;
        let d_hits = cum.fp_hits - prev.fp_hits;
        let d_lookups = d_hits + (cum.fp_misses - prev.fp_misses);
        epochs.push(EpochSnapshot {
            index: k as u64,
            end_access: (k as u64 + 1) * interval,
            end_time,
            ipc: ratio(d_instr as f64, d_cycles),
            dedup_rate: ratio(d_dedup as f64, d_writes as f64),
            fingerprint_hit_rate: ratio(d_hits as f64, d_lookups as f64),
            write_buffer_depth: cum.write_buffer_depth,
            busy_banks: cum.busy_banks,
            energy_pj: cum.energy_pj - prev.energy_pj,
        });
        prev_time = end_time;
        prev = cum;
        prev_instr = instr;
    }
    epochs
}

/// Merges the slices' observability collectors (and the synthesized epoch
/// counter tracks) into one timeline: events are stably sorted by
/// timestamp, registries fold in slice order, and dropped-event counts sum.
fn merge_obs(
    slices: &mut [SliceState],
    epochs: &[EpochSnapshot],
    trace_capacity: usize,
) -> Obs {
    let mut merged = Obs::enabled(trace_capacity);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut dropped = 0u64;
    for slice in slices.iter_mut() {
        let taken = std::mem::take(slice.scheme.obs_mut());
        dropped += taken.tracer().dropped();
        events.extend(taken.tracer().events().copied());
        merged.registry_mut().merge(taken.registry());
    }
    for e in epochs {
        for (name, value) in [
            ("write_buffer_depth", e.write_buffer_depth as f64),
            ("busy_banks", e.busy_banks as f64),
            ("ipc", e.ipc),
        ] {
            events.push(TraceEvent {
                name,
                cat: "epoch",
                kind: EventKind::Counter,
                ts: e.end_time,
                dur: Ps::ZERO,
                value,
            });
        }
    }
    events.sort_by_key(|e| e.ts); // stable: slice order breaks ties
    for event in events {
        merged.tracer_mut().push_event(event);
    }
    merged.tracer_mut().add_dropped(dropped);
    if let Some(last) = epochs.last() {
        merged
            .registry_mut()
            .gauge_set("write_buffer_depth", last.write_buffer_depth as f64);
        merged
            .registry_mut()
            .gauge_set("busy_banks", last.busy_banks as f64);
        merged.registry_mut().gauge_set("ipc", last.ipc);
    }
    merged
}

/// Runs the bank-sliced replay and merges the slices into one
/// deterministic [`RunReport`].
pub(crate) fn run_sharded(
    template: &Scheme,
    trace: &Trace,
    config: &SystemConfig,
    options: &RunOptions,
) -> Result<RunReport, VerifyError> {
    let nslices = config.pcm.banks.max(1) as usize;
    let epoch_n = options.epoch_interval.map(|n| n.max(1));
    let partition = partition_trace(trace, nslices, epoch_n);
    let num_epochs = partition.instr_at_boundary.len();

    let mut owned = partition.owned;
    let mut slices: Vec<SliceState> = (0..nslices)
        .map(|s| {
            let cfg = slice_config(config, s as u32, nslices as u32);
            let mut scheme = template.fork_slice(&cfg);
            scheme.attach_shard(ShardCtx::new(s as u32));
            scheme.journal_configure(options.journal_every);
            if options.observe {
                *scheme.obs_mut() = Obs::enabled(options.trace_capacity);
            }
            SliceState {
                cpu: CpuModel::new(cfg.cpu, cfg.controller.write_buffer_depth),
                scheme,
                scrubber: options
                    .scrub_interval
                    .map(|_| Scrubber::new(options.scrub_lines_per_tick)),
                shadow: if options.verify {
                    U64Map::with_capacity(partition.writes[s])
                } else {
                    U64Map::new()
                },
                write_latency: LatencyHistogram::new(),
                read_latency: LatencyHistogram::new(),
                owned: std::mem::take(&mut owned[s]),
                cursor: 0,
                marks: Vec::with_capacity(num_epochs),
                error: None,
                buffers: BatchBuffers::default(),
                recovery: None,
                fp_erased: (0, 0),
            }
        })
        .collect();

    let total = trace.len() as u32;
    // The quantum is a *model* knob: it decides when cross-slice publishes
    // become visible.
    let quantum = crate::runner::effective_quantum(options.quantum, trace.len());
    // Resolve the injected crash once: a point beyond the trace never
    // fires. The crash is a *replay boundary*: every access before it
    // completes and is acknowledged, the power loss hits while access
    // `g` is in flight at the configured stage, recovery runs, and replay
    // resumes *at* `g` — the in-flight access was never acknowledged, so
    // re-executing it is exactly what real hardware sees. The boundary is
    // a pure function of the crash point: quanta are capped at `g`, and
    // blocks at quanta, so no block straddles it.
    let crash: Option<(u32, CrashStage)> = options.crash_at.and_then(|point| {
        u32::try_from(point.access)
            .ok()
            .filter(|&g| g < total)
            .map(|g| (g, point.stage))
    });
    // The torn slice: the owner of the crash access, when that access is a
    // write and the stage it crashed in mutates durable metadata. This is
    // all the schemes need to know of the stage.
    let torn_slice: Option<usize> = crash.and_then(|(g, stage)| {
        let access = &trace.accesses[g as usize];
        (matches!(access.kind, AccessKind::Write) && stage.tears_metadata())
            .then(|| slice_of(access.addr, nslices as u32) as usize)
    });
    let mut directory = Directory::default();
    let mut start = 0u32;
    while start < total {
        let mut end = total.min(start.saturating_add(quantum));
        if let Some((g, _)) = crash {
            if start == g {
                for (s, slice) in slices.iter_mut().enumerate() {
                    crash_slice(slice, torn_slice == Some(s));
                }
            } else if start < g && g < end {
                end = g;
            }
        }
        for slice in slices.iter_mut() {
            process_quantum(slice, &directory, trace, options, end);
        }
        // Only now, with every slice through the quantum, do its publishes
        // become visible — in slice order, the first-writer-wins tiebreak.
        for slice in slices.iter_mut() {
            if let Some(publishes) = slice.scheme.queued_publishes() {
                directory.merge(publishes.drain(..));
            }
        }
        start = end;
    }

    // Flush the tail epoch marks every slice still owes (its last owned
    // access may precede later global boundaries).
    for slice in slices.iter_mut() {
        while slice.marks.len() < num_epochs {
            slice.record_mark();
        }
    }

    if let Some(err) = slices
        .iter()
        .filter_map(|s| s.error.clone())
        .min_by_key(|e| e.access_index)
    {
        return Err(err);
    }

    let epochs = merge_epochs(
        &slices,
        &partition.instr_at_boundary,
        epoch_n.unwrap_or(1),
        config,
    );

    let mut write_latency = LatencyHistogram::new();
    let mut read_latency = LatencyHistogram::new();
    let mut breakdown = WriteLatencyBreakdown::default();
    let mut metadata = MetadataFootprint::default();
    let mut faults = FaultStats::default();
    let mut scrub = ScrubStats::default();
    let mut max_wear = 0u64;
    let mut wear_moves = 0u64;
    let mut end_time = Ps::ZERO;
    for s in &slices {
        write_latency.merge(&s.write_latency);
        read_latency.merge(&s.read_latency);
        breakdown.merge(&s.scheme.breakdown());
        let m = s.scheme.metadata_footprint();
        metadata.nvmm_bytes += m.nvmm_bytes;
        metadata.sram_bytes += m.sram_bytes;
        let f = s.scheme.nvmm().medium().fault_stats();
        faults.reads_sampled += f.reads_sampled;
        faults.data_bits_flipped += f.data_bits_flipped;
        faults.ecc_bits_flipped += f.ecc_bits_flipped;
        if let Some(sc) = &s.scrubber {
            let st = sc.stats();
            scrub.ticks += st.ticks;
            scrub.lines_scanned += st.lines_scanned;
            scrub.lines_corrected += st.lines_corrected;
            scrub.words_corrected += st.words_corrected;
            scrub.lines_uncorrectable += st.lines_uncorrectable;
            scrub.lines_miscorrected += st.lines_miscorrected;
        }
        max_wear = max_wear.max(s.scheme.nvmm().medium().max_wear());
        wear_moves += s
            .scheme
            .nvmm()
            .wear_leveler()
            .map_or(0, |l| l.total_moves());
        end_time = end_time.max(s.cpu.now());
    }
    let predictor = slices
        .iter()
        .filter_map(|s| s.scheme.predictor_stats())
        .fold(None::<PredictorStats>, |acc, p| {
            let mut acc = acc.unwrap_or_default();
            acc.correct += p.correct;
            acc.incorrect += p.incorrect;
            Some(acc)
        });
    let obs = options
        .observe
        .then(|| merge_obs(&mut slices, &epochs, options.trace_capacity));
    // Slices recover concurrently after a global power loss: counters and
    // energy sum, wall-clock recovery latency is the slowest slice.
    let recovery = options.crash_at.and_then(|point| {
        let mut merged: Option<RecoveryReport> = None;
        for summary in slices.iter().filter_map(|s| s.recovery.as_ref()) {
            let r = merged.get_or_insert(RecoveryReport {
                crash_access: point.access,
                crash_stage: point.stage,
                journal_interval: options.journal_every,
                records_replayed: 0,
                replay_reads: 0,
                pins_released: 0,
                torn_rollbacks: 0,
                refcounts_leaked: 0,
                latency: Ps::ZERO,
                energy_pj: 0,
            });
            r.records_replayed += summary.records_replayed;
            r.replay_reads += summary.replay_reads;
            r.pins_released += summary.pins_released;
            r.torn_rollbacks += summary.torn_rollbacks;
            r.refcounts_leaked += summary.refcounts_leaked;
            r.latency = r.latency.max(summary.latency);
            r.energy_pj += summary.energy_pj;
        }
        merged
    });

    Ok(RunReport {
        scheme: template.kind(),
        app: trace.name.clone(),
        stats: sum_scheme_stats(&slices),
        pcm: sum_pcm_stats(&slices),
        write_latency,
        read_latency,
        breakdown,
        ipc: ratio(
            trace.total_instructions() as f64,
            config.cpu.clock.ps_to_cycles_f64(end_time),
        ),
        fingerprint_cache: sum_cache_stats(
            slices.iter().map(|s| s.scheme.fingerprint_cache_stats()),
        ),
        amt_cache: sum_cache_stats(slices.iter().map(|s| s.scheme.amt_cache_stats())),
        metadata,
        max_wear,
        wear_moves,
        reliability: ReliabilityReport { faults, scrub },
        epochs,
        predictor,
        obs,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use esd_trace::{Access, CacheLine};

    #[test]
    fn a_publish_becomes_visible_at_the_next_quantum_not_before() {
        // Three writes of one content to lines in three different slices.
        let line = CacheLine::from_fill(0x5D);
        let mut trace = Trace::new("hand-built");
        for slice in 0..3u64 {
            trace.accesses.push(Access::write(slice * 64, line, 10));
        }
        let config = SystemConfig::default();
        let deduplicated = |quantum: u32| {
            let options = RunOptions {
                quantum,
                ..RunOptions::default()
            };
            let template = Scheme::new(SchemeKind::Esd, &config);
            let report = run_sharded(&template, &trace, &config, &options).expect("verified run");
            assert_eq!(report.stats.writes_received, 3);
            report.stats.writes_deduplicated
        };
        // One quantum: nobody sees anybody's advertisement.
        assert_eq!(deduplicated(3), 0);
        // The first two share a quantum and both write; the third runs
        // after the merge that published them.
        assert_eq!(deduplicated(2), 1);
        // A merge after every access: only the first is unique.
        assert_eq!(deduplicated(1), 2);
    }
}
