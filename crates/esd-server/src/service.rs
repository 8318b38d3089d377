//! The multi-tenant dedup service: one shared scheme instance, per-tenant
//! namespaces and keys, bounded admission, and a deterministic apply path.
//!
//! # Determinism
//!
//! Requests are applied one at a time in global `(arrival, seq, tenant)`
//! order. The batch size only caps how many [`Service::drain_stage`]
//! applies per call — it changes neither the apply order, the simulated
//! clock evolution, nor any admission decision, so per-tenant stats and
//! the final shared-store state are byte-identical across batch sizes (see
//! `crates/esd-server/tests/cross_tenant.rs`).
//!
//! # Fairness
//!
//! With tenants offering same-timestamp bursts, the global order breaks
//! ties by sequence number before tenant id — request `i` of every
//! tenant runs before request `i + 1` of any tenant, a strict
//! round-robin interleave rather than burst-at-a-time service. The live
//! front end ([`crate::live`]) stamps each request with the clock under
//! the service lock and drains it at once, so concurrent sessions are
//! served in the order they win the lock.

use std::collections::VecDeque;

use esd_core::{prefetch, tenant as ns, Scheme, SchemeKind};
use esd_obs::Registry;
use esd_sim::{LatencyHistogram, Ps, SystemConfig};

use crate::proto::{Envelope, Request, Response};

/// Fallback per-request service estimate used for retry hints before the
/// first request completes.
const DEFAULT_SERVICE_ESTIMATE: Ps = Ps(200_000); // 200 ns

/// How far ahead in its merged order [`Service::run_events`] hints an
/// envelope: far enough that the miss on a 104-byte envelope in a list
/// larger than the caches is over by the time it is read.
const ENVELOPE_AHEAD: usize = 16;

/// How many applies ahead the apply path hints the AMT and index slots a
/// queued request will probe, through [`Scheme::prefetch`].
const SLOTS_AHEAD: usize = 16;

/// Configuration of a [`Service`] instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Which dedup scheme backs the shared store.
    pub scheme: SchemeKind,
    /// Number of tenants (ids `0..tenants`).
    pub tenants: u32,
    /// Bound on each tenant's admitted-but-incomplete requests; an arrival
    /// beyond it is rejected with a retry hint.
    pub queue_depth: usize,
    /// At most this many requests are applied per [`Service::drain_stage`]
    /// call (apply order is unaffected).
    pub batch: usize,
    /// Ignored; kept only until `benchmark/` stops naming it.
    pub workers: usize,
    /// Master key from which every tenant's CME key is derived.
    pub master_key: [u8; 16],
    /// Simulated system configuration for the shared scheme instance.
    pub system: SystemConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scheme: SchemeKind::Esd,
            tenants: 4,
            queue_depth: 64,
            batch: 16,
            workers: 1,
            master_key: [0x4D; 16],
            system: SystemConfig::default(),
        }
    }
}

/// One of a tenant's exported metrics; exported as `tenant{id}/{name}`.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Accesses,
    Writes,
    Reads,
    Deduplicated,
    Rejected,
    Latency,
}

impl Metric {
    fn name(self) -> &'static str {
        match self {
            Metric::Accesses => "accesses",
            Metric::Writes => "writes",
            Metric::Reads => "reads",
            Metric::Deduplicated => "deduplicated",
            Metric::Rejected => "rejected",
            Metric::Latency => "request_latency",
        }
    }
}

/// One tenant's admission state and accounting.
#[derive(Debug)]
struct TenantState {
    /// This tenant's requests in the service queue; the queue depth bounds
    /// it.
    queued: usize,
    offered: u64,
    admitted: u64,
    rejected: u64,
    writes: u64,
    reads: u64,
    deduplicated: u64,
    /// Simulated latency (queue wait + service) of every applied request.
    latency: LatencyHistogram,
}

impl TenantState {
    fn new() -> Self {
        TenantState {
            queued: 0,
            offered: 0,
            admitted: 0,
            rejected: 0,
            writes: 0,
            reads: 0,
            deduplicated: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// The value of a counter metric (of the latency histogram: its
    /// sample count).
    fn count(&self, metric: Metric) -> u64 {
        match metric {
            Metric::Accesses => self.writes + self.reads,
            Metric::Writes => self.writes,
            Metric::Reads => self.reads,
            Metric::Deduplicated => self.deduplicated,
            Metric::Rejected => self.rejected,
            Metric::Latency => self.latency.count(),
        }
    }
}

/// The key requests are applied in.
fn order_key(env: &Envelope) -> (Ps, u64, u32) {
    (env.arrival, env.seq, env.tenant)
}

/// An admitted request with, for a write to a scheme that fingerprints,
/// its line's key, computed once at admission.
#[derive(Debug, Clone, Copy)]
struct Queued {
    env: Envelope,
    key: Option<u64>,
}

/// Stats summary of one tenant, with simulated request-latency tail
/// percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: u32,
    /// Requests presented for admission.
    pub offered: u64,
    /// Requests admitted (and eventually applied).
    pub admitted: u64,
    /// Requests rejected by the full admission queue.
    pub rejected: u64,
    /// Writes applied.
    pub writes: u64,
    /// Reads applied.
    pub reads: u64,
    /// Writes that deduplicated against the shared store.
    pub deduplicated: u64,
    /// Median simulated request latency (queue wait + service).
    pub p50: Ps,
    /// 95th-percentile simulated request latency.
    pub p95: Ps,
    /// 99th-percentile simulated request latency.
    pub p99: Ps,
}

impl TenantSummary {
    /// Fraction of this tenant's writes eliminated by deduplication.
    #[must_use]
    pub fn dedup_rate(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.deduplicated as f64 / self.writes as f64
        }
    }
}

/// Whole-service summary: per-tenant stats plus shared-store totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// One row per tenant, in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// Requests applied across all tenants.
    pub applied: u64,
    /// Simulated clock after the last applied request.
    pub sim_end: Ps,
    /// Digest of the shared-store state (scheme stats, device stats,
    /// metadata footprint, per-tenant registry export) — equal digests
    /// mean byte-identical outcomes.
    pub state_digest: u64,
}

/// The multi-tenant service: one shared scheme, one ordered admission
/// queue with a per-tenant bound, a deterministic apply path, and
/// per-tenant stats exported as an `esd-obs` registry.
///
/// # Examples
///
/// ```
/// use esd_server::{Envelope, Request, Response, Service, ServiceConfig};
/// use esd_sim::Ps;
/// use esd_trace::CacheLine;
///
/// let mut service = Service::new(&ServiceConfig::default());
/// let line = CacheLine::from_fill(7);
/// let events = (0..2u32).map(|tenant| Envelope {
///     tenant,
///     seq: 0,
///     arrival: Ps::ZERO,
///     request: Request::Write { local: 0x40, line },
/// }).collect();
/// let responses = service.run_events(events);
/// // Identical plaintext from two tenants deduplicates in the shared store:
/// assert!(responses.iter().any(|(_, r)| matches!(r,
///     Response::Written { deduplicated: true, .. })));
/// ```
pub struct Service {
    scheme: Scheme,
    tenants: Vec<TenantState>,
    /// Every tenant's admitted, unapplied requests in global
    /// `(arrival, seq, tenant)` order, equal keys in admission order: the
    /// next request to apply is at the front.
    queue: VecDeque<Queued>,
    /// Each `(tenant, metric)` in the order it first left zero, which is
    /// the order the export lists it in (and the state digest covers).
    first_moved: Vec<(u32, Metric)>,
    clock: Ps,
    queue_depth: usize,
    batch: usize,
    applied: u64,
    /// Sum of pure service latencies, for the retry-hint estimate.
    service_total: Ps,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("tenants", &self.tenants.len())
            .field("clock", &self.clock)
            .field("queue_depth", &self.queue_depth)
            .field("batch", &self.batch)
            .field("applied", &self.applied)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Builds the shared scheme, enables per-tenant keys, and registers
    /// `config.tenants` tenants with nothing queued.
    ///
    /// # Panics
    ///
    /// Panics on zero tenants/queue depth and on a tenant count above
    /// [`esd_core::tenant::MAX_TENANT`].
    #[must_use]
    pub fn new(config: &ServiceConfig) -> Self {
        assert!(config.tenants > 0, "a service needs at least one tenant");
        assert!(
            config.tenants <= ns::MAX_TENANT,
            "tenant count exceeds the namespace field"
        );
        assert!(config.queue_depth > 0, "queue depth must be nonzero");
        let mut scheme = Scheme::new(config.scheme, &config.system);
        scheme.tenancy_configure(config.master_key);
        Service {
            scheme,
            tenants: (0..config.tenants).map(|_| TenantState::new()).collect(),
            queue: VecDeque::new(),
            first_moved: Vec::new(),
            clock: Ps::ZERO,
            queue_depth: config.queue_depth,
            batch: config.batch.max(1),
            applied: 0,
            service_total: Ps::ZERO,
        }
    }

    /// Number of configured tenants.
    #[must_use]
    pub fn tenant_count(&self) -> u32 {
        self.tenants.len() as u32
    }

    /// The simulated clock after the last applied request.
    #[must_use]
    pub fn clock(&self) -> Ps {
        self.clock
    }

    /// Admitted-but-unapplied requests across all tenants.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The metrics registry: per-tenant counters (`tenant{id}/accesses`,
    /// `writes`, `reads`, `deduplicated`, `rejected`) and request-latency
    /// histograms (`tenant{id}/request_latency`), each listed from the
    /// moment it first moved, in that order. Built on each call from the
    /// tenants' own counts.
    #[must_use]
    pub fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        for &(tenant, metric) in &self.first_moved {
            let name = format!("tenant{tenant}/{}", metric.name());
            let state = &self.tenants[tenant as usize];
            match metric {
                Metric::Latency => registry.histogram_set(name, state.latency.clone()),
                counter => registry.counter_add(name, state.count(counter)),
            }
        }
        registry
    }

    /// The metrics as a JSON object (the `esd-obs` registry export).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.registry().to_json()
    }

    /// The shared scheme, for store-level inspection.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Offers one request for admission. Returns `None` when it was
    /// queued, or `Some(Rejected)` with a retry hint when the tenant
    /// already has `queue_depth` requests queued (the request is dropped —
    /// backpressure is the client's to handle).
    ///
    /// Admitting a write computes its line's fingerprint key, once, and
    /// queues it with the request: the apply path hints the index slot of
    /// the key ahead and hands it to [`Scheme::write_keyed`]. A rejected
    /// request computes none. The key saves host time only; the scheme
    /// charges the fingerprint's simulated cost when the write is applied.
    ///
    /// Requests are applied in `(arrival, seq, tenant)` order, equal keys
    /// in the order they were admitted. One tenant's requests must be
    /// offered in that order: the service then applies each tenant's
    /// requests first in, first out, and the next request of all is the
    /// least of the tenants' earliest. Across tenants any order will do: a
    /// request whose key is below a queued one's is slotted in after every
    /// queued request whose key is not greater than its own.
    ///
    /// # Panics
    ///
    /// Panics on a tenant id outside `0..tenant_count()`.
    pub fn admit(&mut self, env: Envelope) -> Option<Response> {
        let state = &mut self.tenants[env.tenant as usize];
        state.offered += 1;
        if state.queued >= self.queue_depth {
            if state.rejected == 0 {
                self.first_moved.push((env.tenant, Metric::Rejected));
            }
            state.rejected += 1;
            let ahead = state.queued as u64;
            // Rough deterministic drain estimate: everything ahead of this
            // request at the average observed service latency.
            let retry_after = self.service_estimate() * ahead;
            return Some(Response::Rejected {
                seq: env.seq,
                retry_after,
            });
        }
        state.admitted += 1;
        state.queued += 1;
        let key = match env.request {
            Request::Write { line, .. } => self
                .scheme
                .fingerprint_spec()
                .map(|spec| spec.compute_key(line.as_bytes())),
            Request::Read { .. } => None,
        };
        let queued = Queued { env, key };
        let order = order_key(&env);
        // `partition_point` alone would place it the same, but the back
        // check spares every in-order admission the binary search, which
        // cost `serve-events-overload` 11 % of its throughput.
        if self
            .queue
            .back()
            .is_none_or(|last| order_key(&last.env) <= order)
        {
            self.queue.push_back(queued);
        } else {
            let at = self.queue.partition_point(|q| order_key(&q.env) <= order);
            self.queue.insert(at, queued);
        }
        None
    }

    fn service_estimate(&self) -> Ps {
        if self.applied == 0 {
            DEFAULT_SERVICE_ESTIMATE
        } else {
            self.service_total / self.applied
        }
    }

    /// Takes the next request in global order off the queue and applies
    /// it; `None` when nothing is queued. First it hints the slots the
    /// request [`SLOTS_AHEAD`] applies later will probe, so their misses
    /// overlap the applies in between.
    fn apply_next(&mut self) -> Option<(u32, Response)> {
        let Queued { env, key } = self.queue.pop_front()?;
        self.tenants[env.tenant as usize].queued -= 1;
        if let Some(ahead) = self.queue.get(SLOTS_AHEAD - 1) {
            let (Request::Write { local, .. } | Request::Read { local }) = ahead.env.request;
            self.scheme
                .prefetch(ns::namespaced(ahead.env.tenant, local), ahead.key);
        }
        Some((env.tenant, self.apply(&env, key)))
    }

    /// Applies one request against the shared scheme under the tenant's
    /// namespace and key, advancing the simulated clock and recording the
    /// tenant's stats. `key` is the written line's fingerprint key, as
    /// admission computed it.
    fn apply(&mut self, env: &Envelope, key: Option<u64>) -> Response {
        let tenant = env.tenant;
        let start = env.arrival.max(self.clock);
        self.scheme.set_active_tenant(tenant);
        let state = &mut self.tenants[tenant as usize];
        let moved = &mut self.first_moved;
        if state.writes + state.reads == 0 {
            moved.push((tenant, Metric::Accesses));
        }
        let (response, request_latency, service_latency) = match env.request {
            Request::Write { local, line } => {
                let logical = ns::namespaced(tenant, local);
                let result = self.scheme.write_keyed(start, logical, line, key);
                self.clock = result.processing_done;
                if state.writes == 0 {
                    moved.push((tenant, Metric::Writes));
                }
                state.writes += 1;
                if result.deduplicated {
                    if state.deduplicated == 0 {
                        moved.push((tenant, Metric::Deduplicated));
                    }
                    state.deduplicated += 1;
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
                let logical = ns::namespaced(tenant, local);
                let result = self.scheme.read(start, logical);
                self.clock = result.finish;
                if state.reads == 0 {
                    moved.push((tenant, Metric::Reads));
                }
                state.reads += 1;
                let latency = result.finish - env.arrival;
                let response = Response::Data {
                    seq: env.seq,
                    latency,
                    line: result.data,
                };
                (response, latency, result.finish - start)
            }
        };
        if state.latency.count() == 0 {
            moved.push((tenant, Metric::Latency));
        }
        state.latency.record(request_latency);
        self.applied += 1;
        self.service_total += service_latency;
        response
    }

    /// Applies up to one batch of queued requests, returning their
    /// responses in apply order. Used by the live front end; the
    /// deterministic load path goes through [`Service::run_events`].
    pub fn drain_stage(&mut self) -> Vec<(u32, Response)> {
        let n = self.queue.len().min(self.batch);
        let mut out = Vec::with_capacity(n);
        out.extend(std::iter::from_fn(|| self.apply_next()).take(n));
        out
    }

    /// Drains every queued request.
    pub fn drain(&mut self) -> Vec<(u32, Response)> {
        let mut out = Vec::with_capacity(self.queue.len());
        out.extend(std::iter::from_fn(|| self.apply_next()));
        out
    }

    /// Runs a complete pre-generated workload deterministically: events
    /// are admitted in arrival order — interleaved with the applies that
    /// make them due, so admission decisions see the queue occupancy the
    /// arrival saw — and applied in global `(arrival, seq, tenant)` order.
    /// Returns every response (including rejections).
    ///
    /// # Panics
    ///
    /// Panics on more than `u32::MAX` events.
    pub fn run_events(&mut self, events: Vec<Envelope>) -> Vec<(u32, Response)> {
        // Sorting keys with the event's index moves a quarter of the bytes
        // the events themselves would. The sort is stable, so it merges the
        // sorted runs a load is made of (one per tenant) instead of sorting
        // from scratch. Only the order outlives it, so the keys are freed
        // before the responses are allocated.
        let mut keys: Vec<(Ps, u64, u32, u32)> = events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let i = u32::try_from(i).expect("at most u32::MAX events");
                (e.arrival, e.seq, e.tenant, i)
            })
            .collect();
        keys.sort();
        let order: Vec<u32> = keys.iter().map(|&(.., i)| i).collect();
        drop(keys);
        let mut next = 0;
        let mut out = Vec::with_capacity(events.len());
        loop {
            while let Some(&i) = order.get(next) {
                let env = events[i as usize];
                if env.arrival > self.clock {
                    break;
                }
                next += 1;
                if let Some(&ahead) = order.get(next + ENVELOPE_AHEAD) {
                    prefetch(&events[ahead as usize]);
                }
                if let Some(rejection) = self.admit(env) {
                    out.push((env.tenant, rejection));
                }
            }
            if let Some(applied) = self.apply_next() {
                out.push(applied);
                continue;
            }
            let Some(&i) = order.get(next) else {
                break;
            };
            // Idle until the next arrival.
            self.clock = self.clock.max(events[i as usize].arrival);
        }
        out
    }

    /// One tenant's stats snapshot.
    ///
    /// # Panics
    ///
    /// Panics on a tenant id outside `0..tenant_count()`.
    #[must_use]
    pub fn tenant_summary(&self, tenant: u32) -> TenantSummary {
        let state = &self.tenants[tenant as usize];
        TenantSummary {
            tenant,
            offered: state.offered,
            admitted: state.admitted,
            rejected: state.rejected,
            writes: state.writes,
            reads: state.reads,
            deduplicated: state.deduplicated,
            p50: state.latency.percentile(0.50),
            p95: state.latency.percentile(0.95),
            p99: state.latency.percentile(0.99),
        }
    }

    /// The human-readable per-tenant stat line the smoke jobs grep:
    /// `tenant 0: offered=… admitted=… rejected=… dedup_rate=… p50_ns=…`.
    #[must_use]
    pub fn stats_line(&self, tenant: u32) -> String {
        let s = self.tenant_summary(tenant);
        format!(
            "tenant {}: offered={} admitted={} rejected={} writes={} reads={} \
             dedup_rate={:.3} p50_ns={} p95_ns={} p99_ns={}",
            s.tenant,
            s.offered,
            s.admitted,
            s.rejected,
            s.writes,
            s.reads,
            s.dedup_rate(),
            s.p50.as_ns(),
            s.p95.as_ns(),
            s.p99.as_ns(),
        )
    }

    /// Whole-service summary with the state digest.
    #[must_use]
    pub fn summary(&self) -> ServiceSummary {
        self.summary_with(&self.metrics_json())
    }

    /// [`Service::summary`] with the registry export already rendered, so
    /// a caller that prints the export renders it once.
    pub(crate) fn summary_with(&self, metrics_json: &str) -> ServiceSummary {
        ServiceSummary {
            tenants: (0..self.tenant_count())
                .map(|t| self.tenant_summary(t))
                .collect(),
            applied: self.applied,
            sim_end: self.clock,
            state_digest: self.state_digest_with(metrics_json),
        }
    }

    /// FNV-1a digest over the shared store's observable state: scheme
    /// stats, device stats, metadata footprint, and the full per-tenant
    /// registry export. Two runs with equal digests produced byte-identical
    /// outcomes at this granularity.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        self.state_digest_with(&self.metrics_json())
    }

    /// [`Service::state_digest`] over an export `metrics_json` the caller
    /// rendered from this service as it stands.
    fn state_digest_with(&self, metrics_json: &str) -> u64 {
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
        eat(metrics_json.as_bytes());
        eat(&self.clock.as_ps().to_le_bytes());
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_trace::CacheLine;
    use proptest::prelude::*;

    fn write_env(tenant: u32, seq: u64, arrival: Ps, local: u64, fill: u8) -> Envelope {
        Envelope {
            tenant,
            seq,
            arrival,
            request: Request::Write {
                local,
                line: CacheLine::from_fill(fill),
            },
        }
    }

    #[test]
    fn cross_tenant_duplicates_collapse_in_the_shared_store() {
        let mut service = Service::new(&ServiceConfig::default());
        let events = vec![
            write_env(0, 0, Ps::ZERO, 0x40, 0x7A),
            write_env(1, 0, Ps::from_ns(1), 0x40, 0x7A),
        ];
        let responses = service.run_events(events);
        assert_eq!(responses.len(), 2);
        assert!(matches!(
            responses[1].1,
            Response::Written {
                deduplicated: true,
                ..
            }
        ));
        assert_eq!(service.scheme().nvmm().stats().data.writes, 1);
    }

    #[test]
    fn reads_are_tenant_private() {
        let mut service = Service::new(&ServiceConfig::default());
        let mut events = vec![write_env(0, 0, Ps::ZERO, 0x40, 0x55)];
        events.push(Envelope {
            tenant: 1,
            seq: 0,
            arrival: Ps::from_ns(10),
            request: Request::Read { local: 0x40 },
        });
        events.push(Envelope {
            tenant: 0,
            seq: 1,
            arrival: Ps::from_ns(20),
            request: Request::Read { local: 0x40 },
        });
        let responses = service.run_events(events);
        // Tenant 1 never wrote 0x40 in *its* namespace: zero line.
        let t1_read = responses
            .iter()
            .find(|(t, r)| *t == 1 && matches!(r, Response::Data { .. }))
            .expect("tenant 1 read completed");
        let Response::Data { line, .. } = t1_read.1 else {
            unreachable!()
        };
        assert!(line.is_zero());
        // Tenant 0 reads its own write back.
        let t0_read = responses
            .iter()
            .find(|(t, r)| *t == 0 && matches!(r, Response::Data { .. }))
            .expect("tenant 0 read completed");
        let Response::Data { line, .. } = t0_read.1 else {
            unreachable!()
        };
        assert_eq!(line, CacheLine::from_fill(0x55));
    }

    #[test]
    fn full_queue_rejects_with_retry_hint_and_leaks_nothing() {
        let config = ServiceConfig {
            queue_depth: 4,
            ..ServiceConfig::default()
        };
        let mut service = Service::new(&config);
        // 12 simultaneous arrivals against a depth-4 queue: 4 admitted,
        // 8 rejected (nothing drains at arrival time 0 until applies run).
        let events: Vec<Envelope> = (0..12)
            .map(|i| write_env(0, i, Ps::ZERO, 0x40 * i, i as u8))
            .collect();
        let responses = service.run_events(events);
        let s = service.tenant_summary(0);
        assert_eq!(s.offered, 12);
        assert!(s.rejected > 0, "a depth-4 queue must reject a 12-burst");
        assert_eq!(s.offered, s.admitted + s.rejected, "zero rejection leak");
        let hints: Vec<Ps> = responses
            .iter()
            .filter_map(|(_, r)| match r {
                Response::Rejected { retry_after, .. } => Some(*retry_after),
                _ => None,
            })
            .collect();
        assert_eq!(hints.len() as u64, s.rejected);
        assert!(hints.iter().all(|h| *h > Ps::ZERO), "hints must be usable");
    }

    #[test]
    fn round_robin_interleaves_simultaneous_tenants() {
        let config = ServiceConfig {
            batch: 8,
            ..ServiceConfig::default()
        };
        let mut service = Service::new(&config);
        let mut events = Vec::new();
        for seq in 0..3u64 {
            for tenant in 0..3u32 {
                events.push(write_env(tenant, seq, Ps::ZERO, 0x40 * seq, seq as u8));
            }
        }
        let responses = service.run_events(events);
        let applied_order: Vec<u32> = responses
            .iter()
            .filter(|(_, r)| matches!(r, Response::Written { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(applied_order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn registry_exports_per_tenant_metrics() {
        let mut service = Service::new(&ServiceConfig::default());
        let events = vec![
            write_env(0, 0, Ps::ZERO, 0x40, 1),
            write_env(2, 0, Ps::ZERO, 0x40, 1),
        ];
        service.run_events(events);
        assert_eq!(service.registry().counter("tenant0/writes"), Some(1));
        assert_eq!(service.registry().counter("tenant2/writes"), Some(1));
        assert_eq!(service.registry().counter("tenant2/deduplicated"), Some(1));
        let json = service.metrics_json();
        assert!(json.contains("tenant0/request_latency"), "{json}");
        let line = service.stats_line(2);
        assert!(line.contains("dedup_rate=1.000"), "{line}");
    }

    #[test]
    fn stats_lines_cover_every_tenant() {
        let service = Service::new(&ServiceConfig::default());
        for t in 0..service.tenant_count() {
            assert!(service.stats_line(t).starts_with(&format!("tenant {t}:")));
        }
    }

    /// The rule the ordered queue replaced, kept as its reference: one
    /// bounded FIFO per tenant, and the next request of all is the least
    /// `(arrival, seq, tenant)` among the queue heads.
    struct PerTenantFifos {
        queues: Vec<VecDeque<Envelope>>,
        depth: usize,
    }

    impl PerTenantFifos {
        /// Whether `env` was admitted.
        fn admit(&mut self, env: Envelope) -> bool {
            let queue = &mut self.queues[env.tenant as usize];
            let admitted = queue.len() < self.depth;
            if admitted {
                queue.push_back(env);
            }
            admitted
        }

        fn pop(&mut self) -> Option<Envelope> {
            let (_, tenant) = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(t, queue)| Some((order_key(queue.front()?), t)))
                .min()?;
            self.queues[tenant].pop_front()
        }

        fn len(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }
    }

    /// A service and its reference driven side by side.
    struct Twins {
        service: Service,
        model: PerTenantFifos,
        /// Each tenant's last offered `(arrival_ns, seq)`.
        last: Vec<(u64, u64)>,
        /// Requests each tenant has offered.
        offered: Vec<u64>,
    }

    impl Twins {
        /// Offers `tenant`'s next request at `key` to both; they must agree
        /// on whether it is rejected. A tenant's requests alternate between
        /// writes and reads, which tells equal keys of one tenant apart.
        fn offer(&mut self, tenant: u32, (arrival, seq): (u64, u64)) {
            let t = tenant as usize;
            self.last[t] = (arrival, seq);
            let local = 0x40 * (seq % 4);
            let request = if self.offered[t].is_multiple_of(2) {
                Request::Write {
                    local,
                    line: CacheLine::from_fill(seq as u8),
                }
            } else {
                Request::Read { local }
            };
            self.offered[t] += 1;
            let env = Envelope {
                tenant,
                seq,
                arrival: Ps::from_ns(arrival),
                request,
            };
            let rejected = self.service.admit(env).is_some();
            assert_eq!(rejected, !self.model.admit(env), "{env:?}");
        }
    }

    /// The apply order as `(tenant, seq, is_write)`.
    fn responses_as(responses: &[(u32, Response)]) -> Vec<(u32, u64, bool)> {
        responses
            .iter()
            .map(|(t, r)| (*t, r.seq(), matches!(r, Response::Written { .. })))
            .collect()
    }

    /// The reference's apply order in the same terms.
    fn model_as(applied: impl Iterator<Item = Envelope>) -> Vec<(u32, u64, bool)> {
        applied
            .map(|env| {
                let write = matches!(env.request, Request::Write { .. });
                (env.tenant, env.seq, write)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of admissions and drains, each tenant's
        /// requests in key order, tenants admitted out of order with each
        /// other, equal `(arrival, seq)` across tenants and equal keys
        /// within one: the ordered queue applies and rejects exactly what
        /// the per-tenant FIFOs do.
        #[test]
        fn ordered_queue_matches_per_tenant_fifos(
            depth in 1usize..=4,
            batch in 1usize..=6,
            ops in prop::collection::vec((0u8..10, 0u32..4, 0u64..3, 0u64..=1), 1..300),
        ) {
            const TENANTS: u32 = 4;
            let config = ServiceConfig {
                tenants: TENANTS,
                queue_depth: depth,
                batch,
                ..ServiceConfig::default()
            };
            let mut twins = Twins {
                service: Service::new(&config),
                model: PerTenantFifos {
                    queues: vec![VecDeque::new(); TENANTS as usize],
                    depth,
                },
                last: vec![(0, 0); TENANTS as usize],
                offered: vec![0; TENANTS as usize],
            };
            for (op, tenant, arrival_step, seq_step) in ops {
                match op {
                    // One tenant's next request. Each tenant's arrivals move
                    // at their own pace, so admissions cross in time.
                    0..=6 => {
                        let (arrival, seq) = twins.last[tenant as usize];
                        let pace = u64::from(tenant + 1);
                        twins.offer(tenant, (arrival + arrival_step * pace, seq + seq_step));
                    }
                    // Every tenant offers one and the same `(arrival, seq)`.
                    7 => {
                        let key = twins.last.iter().copied().max().expect("tenants");
                        for tenant in 0..TENANTS {
                            twins.offer(tenant, key);
                        }
                    }
                    _ => {
                        let applied = responses_as(&twins.service.drain_stage());
                        let model = &mut twins.model;
                        let expected = model_as(std::iter::from_fn(|| model.pop()).take(batch));
                        prop_assert_eq!(applied, expected);
                    }
                }
                prop_assert_eq!(twins.service.pending(), twins.model.len());
            }
            let applied = responses_as(&twins.service.drain());
            let model = &mut twins.model;
            prop_assert_eq!(applied, model_as(std::iter::from_fn(|| model.pop())));
        }
    }
}
