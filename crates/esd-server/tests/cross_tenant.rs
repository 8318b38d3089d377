//! Cross-tenant correctness of the multi-tenant service: identical
//! plaintext deduplicates in the shared store while per-tenant keystreams
//! never coincide (no key leakage), and the outcome — per-tenant stats,
//! responses, and the final shared-store state — is byte-identical across
//! batch sizes, which only cap how many requests one `drain_stage` call
//! applies.

use esd_crypto::{derive_tenant_key, CmeEngine};
use esd_server::{run_load, Envelope, LoadSpec, Request, Response, Service, ServiceConfig};
use esd_sim::Ps;
use esd_trace::CacheLine;

#[test]
fn identical_plaintext_dedups_across_tenants_in_the_shared_store() {
    let mut service = Service::new(&ServiceConfig::default());
    let line = CacheLine::from_fill(0xC3);
    let events: Vec<Envelope> = (0..4u32)
        .map(|tenant| Envelope {
            tenant,
            seq: 0,
            arrival: Ps::from_ns(u64::from(tenant)),
            request: Request::Write { local: 0x1000, line },
        })
        .collect();
    let responses = service.run_events(events);
    let dedups = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Written { deduplicated: true, .. }))
        .count();
    assert_eq!(dedups, 3, "three of four identical writes must dedup");
    // One stored line serves all four tenants.
    assert_eq!(service.scheme().nvmm().stats().data.writes, 1);
    // ... and every tenant still reads its own copy back.
    let reads: Vec<Envelope> = (0..4u32)
        .map(|tenant| Envelope {
            tenant,
            seq: 1,
            arrival: Ps::from_us(1),
            request: Request::Read { local: 0x1000 },
        })
        .collect();
    for (_, r) in service.run_events(reads) {
        let Response::Data { line: got, .. } = r else {
            panic!("read must complete, got {r:?}");
        };
        assert_eq!(got, line, "every tenant reads the shared line back");
    }
}

#[test]
fn tenant_keystreams_never_coincide() {
    let master = [0x4D; 16];
    // Derived CME keys are pairwise distinct and never equal the master.
    let keys: Vec<[u8; 16]> = (0..8u32).map(|t| derive_tenant_key(&master, t)).collect();
    for (i, a) in keys.iter().enumerate() {
        assert_ne!(*a, master, "tenant {i} key must differ from the master");
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "tenants {i} and {j} must not share a key");
        }
    }
    // Same plaintext, same device address, same counter — the on-device
    // ciphertext still differs per tenant, so observing one tenant's
    // stored bytes reveals nothing about another's keystream.
    let plain = [0xA5u8; 64];
    let ciphertexts: Vec<[u8; 64]> = (0..3u32)
        .map(|tenant| {
            let mut cme = CmeEngine::new(master);
            cme.enable_tenancy(master);
            cme.set_active_tenant(tenant);
            cme.encrypt_line(0x40, &plain)
        })
        .collect();
    for i in 0..ciphertexts.len() {
        for j in i + 1..ciphertexts.len() {
            assert_ne!(
                ciphertexts[i], ciphertexts[j],
                "tenants {i} and {j} produced identical ciphertext"
            );
        }
    }
}

/// A load shape that exercises every code path whose order could depend on
/// the batch size: duplicate-heavy writes, reads, and enough backlog
/// against a small queue to force rejections.
fn contended_spec(tenants: u32) -> LoadSpec {
    LoadSpec {
        tenants,
        qps: 50_000_000, // 20 ns between arrivals: deliberately over capacity
        requests_per_tenant: 600,
        ..LoadSpec::default()
    }
}

fn run_with(batch: usize) -> (esd_server::ServiceSummary, Vec<(u32, Response)>) {
    let config = ServiceConfig {
        tenants: 4,
        queue_depth: 8,
        batch,
        ..ServiceConfig::default()
    };
    let mut service = Service::new(&config);
    let responses = service.run_events(contended_spec(4).events());
    (service.summary(), responses)
}

#[test]
fn outcome_is_byte_identical_across_batch_sizes() {
    let (reference_summary, reference_responses) = run_with(1);
    let rejected: u64 = reference_summary.tenants.iter().map(|t| t.rejected).sum();
    assert!(
        rejected > 0,
        "the contended load must actually exercise rejection"
    );
    for batch in [4, 16, 64] {
        let (summary, responses) = run_with(batch);
        assert_eq!(
            summary, reference_summary,
            "summary diverged at batch={batch}"
        );
        assert_eq!(
            responses, reference_responses,
            "responses diverged at batch={batch}"
        );
    }
}

/// The input order of `run_events` is not part of the workload: the list
/// the load generator emits (tenant-major), the sorted list and a shuffle
/// produce the same responses in the same order.
#[test]
fn run_events_ignores_the_order_its_input_comes_in() {
    let run = |events: Vec<Envelope>| {
        let mut service = Service::new(&ServiceConfig {
            tenants: 4,
            queue_depth: 8,
            ..ServiceConfig::default()
        });
        let responses = service.run_events(events);
        (service.summary(), responses)
    };
    let emitted = contended_spec(4).events();
    let mut sorted = emitted.clone();
    sorted.sort_by_key(|e| (e.arrival, e.seq, e.tenant));
    let mut shuffled = emitted.clone();
    let mut state = 0x5EED_u64;
    for i in (1..shuffled.len()).rev() {
        // Fisher-Yates over a 64-bit LCG (Knuth's MMIX constants).
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    assert_ne!(shuffled, sorted);
    let reference = run(sorted);
    assert_eq!(run(shuffled), reference, "shuffled input");
    assert_eq!(run(emitted), reference, "tenant-major input");
}

/// Who is served next is decided by `(arrival, seq, tenant)` over the
/// queue heads, not by the order the queues were filled in; the batch size
/// only decides how many of them one `drain_stage` call applies.
#[test]
fn drain_order_follows_arrival_not_admission() {
    for batch in [1, 4, 64] {
        drain_in_stages(batch);
    }
}

fn drain_in_stages(batch: usize) {
    let mut service = Service::new(&ServiceConfig {
        tenants: 6,
        batch,
        ..ServiceConfig::default()
    });
    let env = |tenant: u32, seq: u64, arrival_ns: u64| Envelope {
        tenant,
        seq,
        arrival: Ps::from_ns(arrival_ns),
        request: Request::Write {
            local: 0x40 * seq,
            line: CacheLine::from_fill(tenant as u8),
        },
    };
    // Tenant t's first request arrives at 50 - 10t ns: admitted latest
    // first. Each tenant's own queue is in arrival order, as the service
    // requires. Tenants 4 and 5 tie on arrival and on sequence number.
    let mut expected = Vec::new();
    for tenant in 0..5u32 {
        let first = 50 - 10 * u64::from(tenant);
        for (seq, arrival) in [(0, first), (1, first + 25)] {
            assert!(service.admit(env(tenant, seq, arrival)).is_none());
            expected.push((Ps::from_ns(arrival), seq, tenant));
        }
    }
    assert!(service.admit(env(5, 0, 10)).is_none());
    expected.push((Ps::from_ns(10), 0, 5));
    expected.sort();
    assert_eq!(service.pending(), expected.len());

    let mut applied = Vec::new();
    while service.pending() > 0 {
        let cap = service.pending().min(batch);
        let stage = service.drain_stage();
        assert_eq!(stage.len(), cap, "a stage is one batch, or what is left");
        applied.extend(stage.into_iter().map(|(tenant, r)| (r.seq(), tenant)));
    }
    let expected: Vec<(u64, u32)> = expected.into_iter().map(|(_, s, t)| (s, t)).collect();
    assert_eq!(applied, expected);
    assert_eq!(
        applied[..2],
        [(0, 4), (0, 5)],
        "a tie goes to the lower tenant id"
    );
}

#[test]
fn rejections_never_leak_requests() {
    // The contended four, and more tenants than requests each: hundreds of
    // queues that are mostly empty, every one of them overrun when it is not.
    let many = LoadSpec {
        requests_per_tenant: 20,
        ..contended_spec(600)
    };
    for spec in [contended_spec(4), many] {
        let mut service = Service::new(&ServiceConfig {
            tenants: spec.tenants,
            queue_depth: 8,
            ..ServiceConfig::default()
        });
        let report = run_load(&mut service, &spec);
        assert_eq!(service.pending(), 0);
        for t in &report.summary.tenants {
            assert_eq!(t.offered, spec.requests_per_tenant);
            assert_eq!(
                t.offered,
                t.admitted + t.rejected,
                "tenant {} of {} leaked a request",
                t.tenant,
                spec.tenants
            );
            assert_eq!(
                t.admitted,
                t.writes + t.reads,
                "tenant {} of {} admitted a request that never applied",
                t.tenant,
                spec.tenants
            );
        }
    }
}
