//! The service computes each admitted write's fingerprint key once, at
//! admission, and its queue carries the key to the keyed write. Whatever
//! order requests are admitted and drained in, every response and the final
//! state digest must be those of the same requests, in the order the
//! service applied them, written through the unkeyed `Scheme::write` of a
//! scheme nobody hands a key.

use std::collections::HashMap;

use esd::core::{tenant, Scheme, SchemeKind};
use esd::sim::{LatencyHistogram, Ps, SystemConfig};
use esd::trace::CacheLine;
use esd_obs::Registry;
use esd_server::{Envelope, Request, Response, Service, ServiceConfig};
use proptest::prelude::*;

const TENANTS: u32 = 4;

/// A tenant's counter or histogram, by its export name.
const ACCESSES: usize = 0;
const WRITES: usize = 1;
const READS: usize = 2;
const DEDUPLICATED: usize = 3;
const REJECTED: usize = 4;
const LATENCY: usize = 5;
const NAMES: [&str; 6] = [
    "accesses",
    "writes",
    "reads",
    "deduplicated",
    "rejected",
    "request_latency",
];

/// The service's bookkeeping in its plainest form: a scheme written
/// through `Scheme::write`, a count of queued requests per tenant, the
/// tenants' counters and latency histograms, and the order in which each
/// of them first left zero (the order the export lists them in).
struct Reference {
    scheme: Scheme,
    depth: usize,
    queued: Vec<usize>,
    counts: Vec<[u64; 5]>,
    latency: Vec<LatencyHistogram>,
    moved: Vec<(u32, usize)>,
    clock: Ps,
    applied: u64,
    service_total: Ps,
}

impl Reference {
    fn new(config: &ServiceConfig) -> Self {
        let mut scheme = Scheme::new(config.scheme, &config.system);
        scheme.tenancy_configure(config.master_key);
        let tenants = config.tenants as usize;
        Reference {
            scheme,
            depth: config.queue_depth,
            queued: vec![0; tenants],
            counts: vec![[0; 5]; tenants],
            latency: vec![LatencyHistogram::new(); tenants],
            moved: Vec::new(),
            clock: Ps::ZERO,
            applied: 0,
            service_total: Ps::ZERO,
        }
    }

    /// Counts one more of `tenant`'s `metric`.
    fn bump(&mut self, tenant: u32, metric: usize) {
        let count = &mut self.counts[tenant as usize][metric];
        if *count == 0 {
            self.moved.push((tenant, metric));
        }
        *count += 1;
    }

    fn admit(&mut self, env: &Envelope) -> Option<Response> {
        let ahead = self.queued[env.tenant as usize];
        if ahead < self.depth {
            self.queued[env.tenant as usize] += 1;
            return None;
        }
        self.bump(env.tenant, REJECTED);
        let estimate = if self.applied == 0 {
            Ps::from_ns(200)
        } else {
            self.service_total / self.applied
        };
        Some(Response::Rejected {
            seq: env.seq,
            retry_after: estimate * ahead as u64,
        })
    }

    fn apply(&mut self, env: &Envelope) -> Response {
        let t = env.tenant;
        self.queued[t as usize] -= 1;
        let start = env.arrival.max(self.clock);
        self.scheme.set_active_tenant(t);
        if self.counts[t as usize][WRITES] + self.counts[t as usize][READS] == 0 {
            self.moved.push((t, ACCESSES));
        }
        let (response, latency, service) = match env.request {
            Request::Write { local, line } => {
                let result = self.scheme.write(start, tenant::namespaced(t, local), line);
                self.clock = result.processing_done;
                self.bump(t, WRITES);
                if result.deduplicated {
                    self.bump(t, DEDUPLICATED);
                }
                let latency = start + result.latency - env.arrival;
                let response = Response::Written {
                    seq: env.seq,
                    deduplicated: result.deduplicated,
                    latency,
                };
                (response, latency, result.latency)
            }
            Request::Read { local } => {
                let result = self.scheme.read(start, tenant::namespaced(t, local));
                self.clock = result.finish;
                self.bump(t, READS);
                let latency = result.finish - env.arrival;
                let response = Response::Data {
                    seq: env.seq,
                    latency,
                    line: result.data,
                };
                (response, latency, result.finish - start)
            }
        };
        let histogram = &mut self.latency[t as usize];
        if histogram.count() == 0 {
            self.moved.push((t, LATENCY));
        }
        histogram.record(latency);
        self.applied += 1;
        self.service_total += service;
        response
    }

    /// FNV-1a over what `Service::state_digest` covers: the scheme's
    /// stats, breakdown, footprint and device stats, the registry export
    /// and the clock.
    fn state_digest(&self) -> u64 {
        let mut registry = Registry::new();
        for &(t, metric) in &self.moved {
            let name = format!("tenant{t}/{}", NAMES[metric]);
            let accesses = self.counts[t as usize][WRITES] + self.counts[t as usize][READS];
            match metric {
                LATENCY => registry.histogram_set(name, self.latency[t as usize].clone()),
                ACCESSES => registry.counter_add(name, accesses),
                _ => registry.counter_add(name, self.counts[t as usize][metric]),
            }
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(format!("{:?}", self.scheme.stats()).as_bytes());
        eat(format!("{:?}", self.scheme.breakdown()).as_bytes());
        eat(format!("{:?}", self.scheme.metadata_footprint()).as_bytes());
        eat(format!("{:?}", self.scheme.nvmm().stats()).as_bytes());
        eat(registry.to_json().as_bytes());
        eat(&self.clock.as_ps().to_le_bytes());
        hash
    }
}

/// A service and its reference driven side by side.
struct Twins {
    service: Service,
    reference: Reference,
    /// Each admitted, unapplied request by `(tenant, seq)`.
    pending: HashMap<(u32, u64), Envelope>,
    /// Each tenant's last offered `(arrival_ns, seq)`.
    last: Vec<(u64, u64)>,
}

impl Twins {
    /// Offers `tenant`'s next request to both; they must answer alike.
    /// `content` 0-3 writes one of four lines (zero among them), 4 reads.
    fn offer(&mut self, tenant: u32, (arrival, seq): (u64, u64), content: u8, slot: u64) {
        self.last[tenant as usize] = (arrival, seq);
        let local = 0x40 * slot;
        let request = match content {
            4 => Request::Read { local },
            fill => Request::Write {
                local,
                line: CacheLine::from_fill(fill),
            },
        };
        let env = Envelope {
            tenant,
            seq,
            arrival: Ps::from_ns(arrival),
            request,
        };
        let answer = self.service.admit(env);
        assert_eq!(answer, self.reference.admit(&env), "{env:?}");
        if answer.is_none() {
            self.pending.insert((tenant, seq), env);
        }
    }

    /// Checks each of the service's responses against the reference's
    /// apply of the same request.
    fn check(&mut self, applied: Vec<(u32, Response)>) {
        for (tenant, response) in applied {
            let env = self
                .pending
                .remove(&(tenant, response.seq()))
                .expect("the service applies only what it admitted");
            assert_eq!(response, self.reference.apply(&env), "{env:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tenants move at their own pace, so a tenant admitted late often
    /// sorts before requests already queued (the `partition_point`
    /// insert); bursts give every tenant the same `(arrival, seq)`. Writes
    /// land on four slots per tenant with four contents, so lines repeat
    /// within and across tenants.
    #[test]
    fn keyed_apply_matches_unkeyed_writes_in_the_service_order(
        kind in 0usize..8,
        depth in 1usize..=4,
        batch in 1usize..=6,
        ops in prop::collection::vec((0u8..10, 0u32..TENANTS, 0u64..3, 0u8..5, 0u64..4), 1..300),
    ) {
        let config = ServiceConfig {
            scheme: SchemeKind::EXTENDED[kind],
            tenants: TENANTS,
            queue_depth: depth,
            batch,
            ..ServiceConfig::default()
        };
        let mut twins = Twins {
            service: Service::new(&config),
            reference: Reference::new(&config),
            pending: HashMap::new(),
            last: vec![(0, 0); TENANTS as usize],
        };
        for (op, tenant, arrival_step, content, slot) in ops {
            match op {
                0..=6 => {
                    let (arrival, seq) = twins.last[tenant as usize];
                    let pace = u64::from(tenant + 1);
                    twins.offer(tenant, (arrival + arrival_step * pace, seq + 1), content, slot);
                }
                7 => {
                    let arrival = twins.last.iter().map(|&(a, _)| a).max().expect("tenants");
                    let seq = twins.last.iter().map(|&(_, s)| s).max().expect("tenants") + 1;
                    for tenant in 0..TENANTS {
                        twins.offer(tenant, (arrival, seq), content, (slot + u64::from(tenant)) % 4);
                    }
                }
                _ => {
                    let applied = twins.service.drain_stage();
                    twins.check(applied);
                }
            }
        }
        let applied = twins.service.drain();
        twins.check(applied);
        prop_assert!(twins.pending.is_empty());
        prop_assert_eq!(twins.service.state_digest(), twins.reference.state_digest());
    }
}

#[test]
fn a_precomputed_key_changes_nothing_for_any_kind() {
    let config = SystemConfig::default();
    let lines: Vec<CacheLine> = (0..4u8).map(CacheLine::from_fill).collect();
    for kind in SchemeKind::EXTENDED {
        let mut unkeyed = Scheme::new(kind, &config);
        let mut keyed = Scheme::new(kind, &config);
        let spec = keyed.fingerprint_spec();
        let mut now = Ps::ZERO;
        for i in 0..64u64 {
            // Twelve slots, four contents: first writes, overwrites and
            // duplicates, within and across slots.
            let (logical, line) = (0x40 * (i % 12), lines[(i / 5 % 4) as usize]);
            let key = spec.map(|spec| spec.compute_key(line.as_bytes()));
            let expected = unkeyed.write(now, logical, line);
            let got = keyed.write_keyed(now, logical, line, key);
            assert_eq!(got, expected, "{kind} write {i}");
            assert_eq!(keyed.stats(), unkeyed.stats(), "{kind} write {i}");
            assert_eq!(keyed.breakdown(), unkeyed.breakdown(), "{kind} write {i}");
            now = got.processing_done;
        }
        assert_eq!(unkeyed.stats().writes_received, 64, "{kind}");
    }
}
