//! The multi-tenant dedup service: one shared scheme instance, per-tenant
//! namespaces and keys, bounded admission queues, and a deterministic
//! apply path.
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

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

use esd_core::{tenant as ns, Scheme, SchemeKind};
use esd_obs::{CounterId, HistogramId, Registry};
use esd_sim::{Ps, SystemConfig};

use crate::proto::{Envelope, Request, Response};

/// Fallback per-request service estimate used for retry hints before the
/// first request completes.
const DEFAULT_SERVICE_ESTIMATE: Ps = Ps(200_000); // 200 ns

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

/// Interns a metric name, so the `&'static str` names the `esd-obs`
/// registry requires can be built per tenant without leaking a fresh copy
/// for every [`Service`] constructed in the same process.
fn intern(name: String) -> &'static str {
    static TABLE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    // Nothing below can panic with the lock held (a failed allocation aborts).
    let mut table = TABLE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("intern table lock");
    if let Some(&s) = table.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, leaked);
    leaked
}

/// One tenant's handles into the service registry. A handle records
/// nothing until it is first used, so a metric still appears in the export
/// when the tenant first moves it and the export's order, which the state
/// digest covers, is the order requests were served in.
#[derive(Debug, Clone, Copy)]
struct TenantMetrics {
    accesses: CounterId,
    writes: CounterId,
    reads: CounterId,
    deduplicated: CounterId,
    rejected: CounterId,
    latency: HistogramId,
    /// The name behind `latency`, for reading the histogram back.
    latency_name: &'static str,
}

impl TenantMetrics {
    fn new(tenant: u32, registry: &mut Registry) -> Self {
        let name = |metric: &str| intern(format!("tenant{tenant}/{metric}"));
        let latency_name = name("request_latency");
        TenantMetrics {
            accesses: registry.counter_id(name("accesses")),
            writes: registry.counter_id(name("writes")),
            reads: registry.counter_id(name("reads")),
            deduplicated: registry.counter_id(name("deduplicated")),
            rejected: registry.counter_id(name("rejected")),
            latency: registry.histogram_id(latency_name),
            latency_name,
        }
    }
}

/// Per-tenant admission queue and accounting.
#[derive(Debug)]
struct TenantState {
    /// Admitted requests not yet applied, in arrival order; the queue
    /// depth bounds its length.
    queue: VecDeque<Envelope>,
    offered: u64,
    admitted: u64,
    rejected: u64,
    writes: u64,
    reads: u64,
    deduplicated: u64,
    metrics: TenantMetrics,
}

impl TenantState {
    fn new(tenant: u32, registry: &mut Registry) -> Self {
        TenantState {
            queue: VecDeque::new(),
            offered: 0,
            admitted: 0,
            rejected: 0,
            writes: 0,
            reads: 0,
            deduplicated: 0,
            metrics: TenantMetrics::new(tenant, registry),
        }
    }
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

/// The multi-tenant service: one shared scheme, per-tenant queues, a
/// deterministic apply path, and live stats in an `esd-obs` registry.
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
    /// `(arrival, seq, tenant)` of the head of every non-empty queue, least
    /// first: the next request in global order is on top.
    heads: BinaryHeap<Reverse<(Ps, u64, u32)>>,
    /// Requests in the tenants' queues, all told.
    queued: usize,
    registry: Registry,
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
    /// `config.tenants` empty queues.
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
        let mut registry = Registry::new();
        Service {
            scheme,
            tenants: (0..config.tenants)
                .map(|tenant| TenantState::new(tenant, &mut registry))
                .collect(),
            heads: BinaryHeap::new(),
            queued: 0,
            registry,
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
        self.queued
    }

    /// The live metrics registry (per-tenant counters and latency
    /// histograms).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The live metrics as a JSON object (the `esd-obs` registry export).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.registry.to_json()
    }

    /// The shared scheme, for store-level inspection.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Offers one request for admission. Returns `None` when it was
    /// queued, or `Some(Rejected)` with a retry hint when the tenant's
    /// bounded queue is full (the request is dropped — backpressure is the
    /// client's to handle).
    ///
    /// One tenant's requests must be offered in arrival order: its queue is
    /// FIFO, and the service takes the head for the tenant's earliest
    /// request. Across tenants any order will do.
    ///
    /// # Panics
    ///
    /// Panics on a tenant id outside `0..tenant_count()`.
    pub fn admit(&mut self, env: Envelope) -> Option<Response> {
        let state = &mut self.tenants[env.tenant as usize];
        state.offered += 1;
        if state.queue.len() >= self.queue_depth {
            state.rejected += 1;
            let ahead = state.queue.len() as u64;
            self.registry.counter_add_by_id(state.metrics.rejected, 1);
            // Rough deterministic drain estimate: everything ahead of this
            // request at the average observed service latency.
            let retry_after = self.service_estimate() * ahead;
            return Some(Response::Rejected {
                seq: env.seq,
                retry_after,
            });
        }
        state.admitted += 1;
        if state.queue.is_empty() {
            self.heads.push(Reverse((env.arrival, env.seq, env.tenant)));
        }
        state.queue.push_back(env);
        self.queued += 1;
        None
    }

    fn service_estimate(&self) -> Ps {
        if self.applied == 0 {
            DEFAULT_SERVICE_ESTIMATE
        } else {
            self.service_total / self.applied
        }
    }

    /// Takes the next request in global `(arrival, seq, tenant)` order off
    /// its queue and applies it; `None` when every queue is empty.
    /// Per-tenant queues are FIFO, so a queue's head is the tenant's
    /// earliest request, and the least of the heads the next of all.
    fn apply_next(&mut self) -> Option<(u32, Response)> {
        let env = {
            let mut top = self.heads.peek_mut()?;
            let Reverse((_, _, tenant)) = *top;
            let queue = &mut self.tenants[tenant as usize].queue;
            // `heads` keys exactly the non-empty queues: `admit` adds, the match below removes.
            let env = queue.pop_front().expect("a queue with a head is not empty");
            match queue.front() {
                Some(next) => *top = Reverse((next.arrival, next.seq, tenant)),
                None => {
                    PeekMut::pop(top);
                }
            }
            env
        };
        self.queued -= 1;
        Some((env.tenant, self.apply(&env)))
    }

    /// Applies one request against the shared scheme under the tenant's
    /// namespace and key, advancing the simulated clock and recording the
    /// tenant's stats.
    fn apply(&mut self, env: &Envelope) -> Response {
        let tenant = env.tenant;
        let start = env.arrival.max(self.clock);
        self.scheme.set_active_tenant(tenant);
        let state = &mut self.tenants[tenant as usize];
        let metrics = state.metrics;
        self.registry.counter_add_by_id(metrics.accesses, 1);
        let (response, request_latency, service_latency) = match env.request {
            Request::Write { local, line } => {
                let logical = ns::namespaced(tenant, local);
                let result = self.scheme.write(start, logical, line);
                self.clock = result.processing_done;
                state.writes += 1;
                self.registry.counter_add_by_id(metrics.writes, 1);
                if result.deduplicated {
                    state.deduplicated += 1;
                    self.registry.counter_add_by_id(metrics.deduplicated, 1);
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
                state.reads += 1;
                self.registry.counter_add_by_id(metrics.reads, 1);
                let latency = result.finish - env.arrival;
                let response = Response::Data {
                    seq: env.seq,
                    latency,
                    line: result.data,
                };
                (response, latency, result.finish - start)
            }
        };
        self.applied += 1;
        self.service_total += service_latency;
        self.registry
            .histogram_record_by_id(metrics.latency, request_latency);
        response
    }

    /// Applies up to one batch of queued requests, returning their
    /// responses in apply order. Used by the live front end; the
    /// deterministic load path goes through [`Service::run_events`].
    pub fn drain_stage(&mut self) -> Vec<(u32, Response)> {
        let n = self.queued.min(self.batch);
        let mut out = Vec::with_capacity(n);
        out.extend(std::iter::from_fn(|| self.apply_next()).take(n));
        out
    }

    /// Drains every queued request.
    pub fn drain(&mut self) -> Vec<(u32, Response)> {
        let mut out = Vec::with_capacity(self.queued);
        out.extend(std::iter::from_fn(|| self.apply_next()));
        out
    }

    /// Admits the events from `*next` on that have become due, collecting
    /// the rejections.
    fn admit_due(&mut self, events: &[Envelope], next: &mut usize, out: &mut Vec<(u32, Response)>) {
        while let Some(&env) = events.get(*next).filter(|env| env.arrival <= self.clock) {
            *next += 1;
            if let Some(rejection) = self.admit(env) {
                out.push((env.tenant, rejection));
            }
        }
    }

    /// Runs a complete pre-generated workload deterministically: events
    /// are admitted in arrival order — interleaved with the applies that
    /// make them due, so admission decisions see the queue occupancy the
    /// arrival saw — and applied in global `(arrival, seq, tenant)` order.
    /// Returns every response (including rejections).
    pub fn run_events(&mut self, mut events: Vec<Envelope>) -> Vec<(u32, Response)> {
        events.sort_by_key(|e| (e.arrival, e.seq, e.tenant));
        let mut next = 0usize;
        let mut out = Vec::with_capacity(events.len());
        loop {
            self.admit_due(&events, &mut next, &mut out);
            if let Some(applied) = self.apply_next() {
                out.push(applied);
                continue;
            }
            let Some(upcoming) = events.get(next) else {
                break;
            };
            // Idle until the next arrival.
            self.clock = self.clock.max(upcoming.arrival);
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
        let (p50, p95, p99) = match self.registry.histogram(state.metrics.latency_name) {
            Some(h) => (h.percentile(0.50), h.percentile(0.95), h.percentile(0.99)),
            None => (Ps::ZERO, Ps::ZERO, Ps::ZERO),
        };
        TenantSummary {
            tenant,
            offered: state.offered,
            admitted: state.admitted,
            rejected: state.rejected,
            writes: state.writes,
            reads: state.reads,
            deduplicated: state.deduplicated,
            p50,
            p95,
            p99,
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
        ServiceSummary {
            tenants: (0..self.tenant_count())
                .map(|t| self.tenant_summary(t))
                .collect(),
            applied: self.applied,
            sim_end: self.clock,
            state_digest: self.state_digest(),
        }
    }

    /// FNV-1a digest over the shared store's observable state: scheme
    /// stats, device stats, metadata footprint, and the full per-tenant
    /// registry export. Two runs with equal digests produced byte-identical
    /// outcomes at this granularity.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
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
        eat(self.registry.to_json().as_bytes());
        eat(&self.clock.as_ps().to_le_bytes());
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_trace::CacheLine;

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
}
