//! `serve-events-overload`: `Service::run_events` on a pre-generated event
//! list that offers more than the service can apply, so the bounded
//! admission queues reject a fixed, deterministic share.

use std::collections::HashMap;
use std::time::Instant;

use esd_core::{tenant, SchemeKind};
use esd_server::{Envelope, LoadSpec, Request, Response, Service, ServiceConfig, ServiceSummary};
use esd_sim::SystemConfig;
use esd_trace::{Access, AppProfile, CacheLine, Trace};

use crate::attribution::{emit_layers, low48, Tally};
use crate::drill::{drill_layers, scheme_loop, LayerCosts};
use crate::hostprobe::HostProbe;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::spec::{Sizes, EVENTS_QPS, QUEUE_DEPTH, SERVE_EVENTS, SERVICE_BATCH};
use crate::{env, finish_end_to_end, paced_setups, per_rep, timed_reps};

/// The service configuration, field by field.
pub(crate) fn service_config(tenants: u32, workers: usize) -> ServiceConfig {
    ServiceConfig {
        scheme: SchemeKind::Esd,
        tenants,
        queue_depth: QUEUE_DEPTH,
        batch: SERVICE_BATCH,
        workers,
        master_key: [0x4D; 16],
        system: SystemConfig::default(),
    }
}

fn load(seed: u64, sizes: &Sizes) -> LoadSpec {
    LoadSpec {
        tenants: sizes.events_tenants,
        qps: EVENTS_QPS,
        requests_per_tenant: sizes.events_per_tenant,
        profile: AppProfile::by_name("dedup").expect("profile of the paper's suite"),
        seed,
    }
}

/// A request stream as a trace in tenant-namespaced addresses, so the
/// layer drills can be fed a serve workload's own inputs.
pub(crate) fn as_trace(requests: impl Iterator<Item = (u32, Request)>) -> Trace {
    let mut trace = Trace::new("requests");
    trace.accesses = requests
        .map(|(t, request)| match request {
            Request::Write { local, line } => Access::write(tenant::namespaced(t, local), line, 0),
            Request::Read { local } => Access::read(tenant::namespaced(t, local), 0),
        })
        .collect();
    trace
}

/// Adds the service's shared scheme to a tally.
pub(crate) fn tally_service(service: &Service, tally: &mut Tally) {
    let scheme = service.scheme();
    tally.add_scheme(
        scheme.kind(),
        &scheme.stats(),
        scheme.nvmm().stats(),
        scheme.fingerprint_cache_stats(),
        scheme.amt_cache_stats(),
    );
}

/// Emits the service-level invariants.
pub(crate) fn emit_service_invariants(out: &mut Outcome, summary: &ServiceSummary) {
    let sum = |f: fn(&esd_server::TenantSummary) -> u64| {
        summary.tenants.iter().map(f).sum::<u64>() as f64
    };
    let (offered, rejected) = (sum(|t| t.offered), sum(|t| t.rejected));
    let (writes, deduplicated) = (sum(|t| t.writes), sum(|t| t.deduplicated));
    out.set(
        "server.service.rejected_share",
        if offered > 0.0 {
            rejected / offered
        } else {
            0.0
        },
    );
    out.set(
        "server.service.dedup_ratio",
        if writes > 0.0 {
            deduplicated / writes
        } else {
            0.0
        },
    );
    out.set("server.service.state_digest", low48(summary.state_digest));
}

/// Checks one finished run: per tenant `offered == admitted + rejected`,
/// every event answered exactly once, and every `Data` line equal to the
/// last line written to that address before it in apply order. Returns the
/// number of wrong outcomes. A `Rejected` answer is the admission queue
/// working as specified, not a failure; its share is an invariant.
fn audit(
    by_tenant: &[Vec<Request>],
    responses: &[(u32, Response)],
    summary: &ServiceSummary,
) -> u64 {
    let mut wrong = 0u64;
    for t in &summary.tenants {
        wrong += t.offered.abs_diff(t.admitted + t.rejected);
    }
    let mut answers: Vec<Vec<u8>> = by_tenant.iter().map(|reqs| vec![0; reqs.len()]).collect();
    let mut shadow: HashMap<(u32, u64), CacheLine> = HashMap::new();
    for &(t, response) in responses {
        let Some(request) = by_tenant
            .get(t as usize)
            .and_then(|reqs| reqs.get(response.seq() as usize))
        else {
            wrong += 1; // an answer to a request nobody sent
            continue;
        };
        let seen = &mut answers[t as usize][response.seq() as usize];
        *seen = seen.saturating_add(1);
        match (*request, response) {
            (Request::Write { local, line }, Response::Written { .. }) => {
                shadow.insert((t, local), line);
            }
            (Request::Read { local }, Response::Data { line, .. }) => {
                let expected = shadow.get(&(t, local)).copied().unwrap_or(CacheLine::ZERO);
                wrong += u64::from(line != expected);
            }
            (_, Response::Rejected { .. }) => {}
            _ => wrong += 1, // a write answered with data, or the reverse
        }
    }
    wrong + answers.iter().flatten().filter(|&&n| n != 1).count() as u64
}

fn requests_by_tenant(events: &[Envelope], tenants: u32) -> Vec<Vec<Request>> {
    let mut by_tenant: Vec<Vec<Request>> = vec![Vec::new(); tenants as usize];
    for e in events {
        debug_assert_eq!(e.seq as usize, by_tenant[e.tenant as usize].len());
        by_tenant[e.tenant as usize].push(e.request);
    }
    by_tenant
}

struct Rep {
    seconds: f64,
    summary: ServiceSummary,
    wrong: u64,
    responses: Vec<(u32, Response)>,
    service: Service,
}

/// One repetition on a fresh service; only `run_events` is timed.
fn rep(config: &ServiceConfig, events: &[Envelope], by_tenant: &[Vec<Request>]) -> Rep {
    let mut service = Service::new(config);
    let input = events.to_vec();
    let t0 = Instant::now();
    let responses = service.run_events(input);
    let seconds = t0.elapsed().as_secs_f64();
    let summary = service.summary();
    let wrong = audit(by_tenant, &responses, &summary);
    Rep {
        seconds,
        summary,
        wrong,
        responses,
        service,
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let spec = load(seed, sizes);
    let config = service_config(spec.tenants, 1);
    let mut probe = HostProbe::new(1, 1);
    let (setups, events) = paced_setups(&mut probe, sizes, || {
        std::hint::black_box(Service::new(&config));
        spec.events()
    });
    let by_tenant = requests_by_tenant(&events, spec.tenants);
    let offered = events.len() as u64;

    let mut out = Outcome::default();
    let reference = rep(&config, &events, &by_tenant);
    out.attempted += offered;
    out.failed += reference.wrong;
    let applied = reference.summary.applied as f64;
    let times = timed_reps(seconds, sizes.min_reps, &mut probe, || {
        let r = rep(&config, &events, &by_tenant);
        out.attempted += offered;
        // A run that differs from the first is wrong as a whole.
        out.failed += if r.summary == reference.summary {
            r.wrong
        } else {
            offered
        };
        r.seconds
    });
    finish_end_to_end(&mut out, per_rep(applied, &times), &setups);
    out
}

/// Admit and drain through the public entry points, timed apart: admit
/// everything that is due (or the next event, when nothing is), drain one
/// stage, repeat. Returns `(admit_ns, admits, drain_ns, applied)`.
fn drill_admit_drain(
    rec: &mut Recorder,
    config: &ServiceConfig,
    events: &[Envelope],
) -> (u64, u64, u64, u64) {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| (e.arrival, e.seq, e.tenant));
    let mut service = Service::new(config);
    let (mut admit_ns, mut drain_ns, mut applied) = (0u64, 0u64, 0u64);
    let mut next = 0usize;
    let mut stage = 0u64;
    while next < sorted.len() || service.pending() > 0 {
        let t0 = Instant::now();
        let due_from = next;
        while next < sorted.len()
            && (sorted[next].arrival <= service.clock()
                || next == due_from && service.pending() == 0)
        {
            std::hint::black_box(service.admit(sorted[next]));
            next += 1;
        }
        let t1 = Instant::now();
        let responses = service.drain_stage();
        let t2 = Instant::now();
        applied += responses.len() as u64;
        admit_ns += (t1 - t0).as_nanos() as u64;
        drain_ns += (t2 - t1).as_nanos() as u64;
        if stage < 256 {
            // A sample of the interleaving for the trace file; the totals
            // above cover every stage.
            rec.add("server.service.admit", stage, t0, t1);
            rec.add("server.service.drain_stage", stage, t1, t2);
        }
        stage += 1;
    }
    (admit_ns, next as u64, drain_ns, applied)
}

/// The traced run.
pub fn run_traced(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Outcome {
    let spec = load(seed, sizes);
    let config = service_config(spec.tenants, 1);
    let mut out = Outcome::default();

    rec.timed(SERVE_EVENTS, 0, |rec| {
        let (events, ns) = rec.timed("server.load.events", 0, |_| spec.events());
        let offered = events.len() as u64;
        out.set("server.load.events_ns_per_req", ns as f64 / offered as f64);
        let by_tenant = requests_by_tenant(&events, spec.tenants);

        let plain = rep(&config, &events, &by_tenant);
        let (traced, _) = rec.timed("server.service.run_events", 0, |_| {
            rep(&config, &events, &by_tenant)
        });
        out.attempted += 2 * offered;
        out.failed += plain.wrong
            + if traced.summary == plain.summary {
                traced.wrong
            } else {
                offered
            };
        let base_ns = traced.seconds * 1e9;
        out.set("bench.trace_overhead_ratio", traced.seconds / plain.seconds);

        // Workers only split the pure fingerprint precomputation, so the
        // summary may not change. Measured on the first quarter of every
        // tenant's stream, against its own one-worker base.
        let quarter: Vec<Envelope> = events
            .iter()
            .filter(|e| e.seq < spec.requests_per_tenant / 4)
            .copied()
            .collect();
        let quarter_by_tenant = requests_by_tenant(&quarter, spec.tenants);
        let (one, _) = rec.timed("ablation.workers_1", 0, |_| {
            rep(&config, &quarter, &quarter_by_tenant)
        });
        let many_config = service_config(spec.tenants, env::nproc());
        let (many, _) = rec.timed("ablation.workers_nproc", 0, |_| {
            rep(&many_config, &quarter, &quarter_by_tenant)
        });
        let mismatched = u64::from(many.summary != one.summary);
        out.attempted += 1;
        out.failed += mismatched;
        out.set("bench.ablations_checked", 1.0);
        out.set("bench.ablations_mismatched", mismatched as f64);
        out.set(
            "server.service.speedup_workers_nproc",
            one.seconds / many.seconds,
        );

        let ((admit_ns, admits, drain_ns, applied), _) =
            rec.timed("drill.server.service", 0, |rec| {
                drill_admit_drain(rec, &config, &events)
            });
        out.set(
            "server.service.admit_ns_per_req",
            admit_ns as f64 / admits.max(1) as f64,
        );
        out.set(
            "server.service.drain_ns_per_req",
            drain_ns as f64 / applied.max(1) as f64,
        );
        out.set(
            "server.service.share",
            (admit_ns + drain_ns) as f64 / base_ns,
        );

        // The layers under the service, over the head of the request stream
        // in arrival order.
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.arrival, e.seq, e.tenant));
        sorted.truncate(sizes.serve_drill_accesses);
        let trace = as_trace(sorted.iter().map(|e| (e.tenant, e.request)));
        let loop_ns = scheme_loop(rec, config.scheme, &trace, &config.system, 0) as f64;
        let per_access = loop_ns / trace.len() as f64;
        out.set("core.scheme.ns_per_access", per_access);
        out.set(
            "core.scheme.share",
            per_access * traced.summary.applied as f64 / base_ns,
        );
        let mut costs = LayerCosts::default();
        rec.timed("drill", 0, |rec| {
            drill_layers(rec, &trace, &config.system, 0, &mut costs)
        });
        let mut tally = Tally::default();
        tally_service(&traced.service, &mut tally);
        for (_, response) in &traced.responses {
            match *response {
                Response::Written { latency, .. } => {
                    tally.write_latency_ps += u128::from(latency.as_ps());
                    tally.writes_timed += 1;
                }
                Response::Data { latency, .. } => {
                    tally.read_latency_ps += u128::from(latency.as_ps());
                    tally.reads_timed += 1;
                }
                Response::Rejected { .. } => {}
            }
        }
        let attributed = emit_layers(&mut out, &costs, &tally, base_ns, 0.0);
        out.set("core.shard.unattributed_share", 1.0 - attributed);
        tally.emit_invariants(&mut out);
        emit_service_invariants(&mut out, &traced.summary);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_shadow_entry_raises_the_failed_count() {
        let sizes = Sizes::tiny();
        let spec = load(7, &sizes);
        let config = service_config(spec.tenants, 1);
        let events = spec.events();
        let mut by_tenant = requests_by_tenant(&events, spec.tenants);
        let clean = rep(&config, &events, &by_tenant);
        assert_eq!(clean.wrong, 0, "the unmodified run checks out");

        // Find an applied read and the applied write to the same address
        // before it, then corrupt what the checker believes was written.
        let applied: Vec<(u32, u64)> = clean
            .responses
            .iter()
            .filter(|(_, r)| !matches!(r, Response::Rejected { .. }))
            .map(|&(t, r)| (t, r.seq()))
            .collect();
        let mut last_write: HashMap<(u32, u64), u64> = HashMap::new();
        let mut victim = None;
        for &(t, seq) in &applied {
            match by_tenant[t as usize][seq as usize] {
                Request::Write { local, .. } => {
                    last_write.insert((t, local), seq);
                }
                Request::Read { local } => {
                    if let Some(&write_seq) = last_write.get(&(t, local)) {
                        victim = Some((t, write_seq));
                        break;
                    }
                }
            }
        }
        let (t, write_seq) = victim.expect("the load reads back something it wrote");
        let Request::Write { local, line } = by_tenant[t as usize][write_seq as usize] else {
            unreachable!("the victim is a write")
        };
        let mut bytes = line.into_bytes();
        bytes[0] ^= 0xFF;
        by_tenant[t as usize][write_seq as usize] = Request::Write {
            local,
            line: CacheLine::new(bytes),
        };
        let wrong = audit(&by_tenant, &clean.responses, &clean.summary);
        assert!(
            wrong >= 1,
            "a read that disagrees with the shadow must count as failed"
        );
    }
}
