//! Deterministic multi-tenant load generation: per-tenant open-loop
//! request streams derived from the trace generator, paced at a target
//! rate, merged into one event list for [`Service::run_events`].

use esd_sim::Ps;
use esd_trace::{AppProfile, TraceGenerator};

use crate::proto::{Envelope, Request, Response};
use crate::service::{Service, ServiceSummary};

/// One picosecond-denominated second, for qps → inter-arrival conversion.
const PS_PER_SECOND: u64 = 1_000_000_000_000;

/// A reproducible tenants × qps workload.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Number of tenants offering load (must match the service's count).
    pub tenants: u32,
    /// Requests per simulated second each tenant offers (open loop).
    pub qps: u64,
    /// Requests per tenant.
    pub requests_per_tenant: u64,
    /// Trace profile each tenant's stream is drawn from.
    pub profile: AppProfile,
    /// Base seed; tenant `t` uses `seed + t` (wrapping) so streams are
    /// distinct but share the profile's duplicate population (cross-tenant
    /// dedup).
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            tenants: 4,
            qps: 1_000_000,
            requests_per_tenant: 2_000,
            profile: AppProfile::demo(),
            seed: 42,
        }
    }
}

impl LoadSpec {
    /// Generates the merged event list: tenant `t`'s `i`-th request
    /// arrives at `i × (1s / qps)`, with addresses and lines drawn from
    /// the trace generator under seed `seed + t` (wrapping).
    ///
    /// One generator serves every tenant, reseeded per tenant, so the
    /// profile's address distribution is built once per load, and the
    /// stream fills a list sized up front.
    ///
    /// # Panics
    ///
    /// Panics when `qps` is zero.
    #[must_use]
    pub fn events(&self) -> Vec<Envelope> {
        assert!(self.qps > 0, "load needs a nonzero rate");
        let gap = Ps(PS_PER_SECOND / self.qps);
        let per_tenant = self.requests_per_tenant as usize;
        let mut events = Vec::with_capacity(self.tenants as usize * per_tenant);
        if self.tenants == 0 {
            return events; // no stream, so no address distribution to build
        }
        let mut generator = TraceGenerator::new(self.profile.clone(), self.seed);
        for tenant in 0..self.tenants {
            generator.reseed(self.seed.wrapping_add(u64::from(tenant)));
            let stream = generator.by_ref().take(per_tenant).enumerate();
            events.extend(stream.map(|(i, access)| {
                // An access is a write exactly when it carries a line.
                let request = match access.data {
                    Some(line) => Request::Write {
                        local: access.addr,
                        line,
                    },
                    None => Request::Read { local: access.addr },
                };
                Envelope {
                    tenant,
                    seq: i as u64,
                    arrival: gap * (i as u64),
                    request,
                }
            }));
        }
        events
    }
}

/// Outcome of one load run: the service summary plus offered/achieved
/// throughput.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The spec that produced this report.
    pub tenants: u32,
    /// Offered per-tenant rate (requests per simulated second).
    pub qps: u64,
    /// Per-tenant and whole-service stats after the run.
    pub summary: ServiceSummary,
    /// Applied requests per simulated second, across all tenants.
    pub achieved_throughput: f64,
}

/// Runs `spec` against `service` to completion and reports.
pub fn run_load(service: &mut Service, spec: &LoadSpec) -> LoadReport {
    assert_eq!(
        spec.tenants,
        service.tenant_count(),
        "load spec and service disagree on tenant count"
    );
    let responses = service.run_events(spec.events());
    debug_assert!(
        responses
            .iter()
            .all(|(t, r)| matches!(r, Response::Rejected { .. }) || *t < spec.tenants),
        "responses must carry valid tenant ids"
    );
    let summary = service.summary();
    let sim_seconds = summary.sim_end.as_ps() as f64 / PS_PER_SECOND as f64;
    let achieved_throughput = if sim_seconds > 0.0 {
        summary.applied as f64 / sim_seconds
    } else {
        0.0
    };
    LoadReport {
        tenants: spec.tenants,
        qps: spec.qps,
        summary,
        achieved_throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn load_paces_arrivals_at_the_offered_rate() {
        let spec = LoadSpec {
            tenants: 2,
            qps: 1_000_000, // 1 µs apart
            requests_per_tenant: 4,
            ..LoadSpec::default()
        };
        let events = spec.events();
        assert_eq!(events.len(), 8);
        let t0: Vec<&Envelope> = events.iter().filter(|e| e.tenant == 0).collect();
        assert_eq!(t0[1].arrival - t0[0].arrival, Ps::from_us(1));
    }

    /// The event list as built before the generator was shared: one
    /// `generate_trace` per tenant, converted access by access.
    fn events_per_tenant_trace(spec: &LoadSpec) -> Vec<Envelope> {
        let gap = Ps(PS_PER_SECOND / spec.qps);
        let mut events = Vec::new();
        for tenant in 0..spec.tenants {
            let trace = esd_trace::generate_trace(
                &spec.profile,
                spec.seed.wrapping_add(u64::from(tenant)),
                spec.requests_per_tenant as usize,
            );
            for (i, access) in trace.accesses.iter().enumerate() {
                let request = match access.data {
                    Some(line) => Request::Write {
                        local: access.addr,
                        line,
                    },
                    None => Request::Read { local: access.addr },
                };
                events.push(Envelope {
                    tenant,
                    seq: i as u64,
                    arrival: gap * (i as u64),
                    request,
                });
            }
        }
        events
    }

    #[test]
    fn events_equal_one_generated_trace_per_tenant() {
        let dedup = AppProfile::by_name("dedup").expect("profile of the paper's suite");
        for profile in [AppProfile::demo(), dedup] {
            for tenants in [1u32, 3, 8] {
                for requests_per_tenant in [0u64, 1, 257] {
                    for seed in [42, u64::MAX - 1] {
                        let spec = LoadSpec {
                            tenants,
                            qps: 1_000_000,
                            requests_per_tenant,
                            profile: profile.clone(),
                            seed,
                        };
                        assert_eq!(
                            spec.events(),
                            events_per_tenant_trace(&spec),
                            "{} tenants {tenants} requests {requests_per_tenant} seed {seed}",
                            profile.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tenant_seeds_wrap_past_the_largest_seed() {
        let spec = LoadSpec {
            tenants: 2,
            requests_per_tenant: 10,
            seed: u64::MAX,
            ..LoadSpec::default()
        };
        let events = spec.events();
        assert_eq!(events.len(), 20);
        let tenant1: Vec<Request> = events
            .iter()
            .filter(|e| e.tenant == 1)
            .map(|e| e.request)
            .collect();
        let seed0 = LoadSpec {
            tenants: 1,
            seed: 0,
            ..spec
        };
        let seed0: Vec<Request> = seed0.events().iter().map(|e| e.request).collect();
        assert_eq!(tenant1, seed0, "tenant 1 runs under seed 0");
    }

    #[test]
    fn run_load_reports_every_tenant_and_nonzero_throughput() {
        // The tenants x qps curve of EXPERIMENTS.md, from an idle service
        // to one whose admission queues overflow.
        for tenants in [2u32, 4, 8] {
            for qps in [250_000u64, 1_000_000, 4_000_000] {
                let config = ServiceConfig {
                    tenants,
                    ..ServiceConfig::default()
                };
                let mut service = Service::new(&config);
                let spec = LoadSpec {
                    tenants,
                    qps,
                    ..LoadSpec::default()
                };
                let report = run_load(&mut service, &spec);
                let point = format!("tenants {tenants} qps {qps}");
                assert_eq!(report.summary.tenants.len(), tenants as usize, "{point}");
                assert!(report.summary.applied > 0, "{point}");
                assert!(report.achieved_throughput > 0.0, "{point}");
                for t in &report.summary.tenants {
                    assert_eq!(t.offered, spec.requests_per_tenant, "{point}");
                    assert_eq!(t.offered, t.admitted + t.rejected, "{point}");
                    assert_eq!(t.writes + t.reads, t.admitted, "{point}");
                    // Nonzero per-tenant throughput: no tenant is starved.
                    assert!(t.admitted > 0, "{point}: tenant {} starved", t.tenant);
                }
            }
        }
    }

    #[test]
    fn distinct_seeds_per_tenant_still_share_duplicates() {
        let mut service = Service::new(&ServiceConfig::default());
        let spec = LoadSpec {
            requests_per_tenant: 500,
            ..LoadSpec::default()
        };
        let report = run_load(&mut service, &spec);
        let total_dedup: u64 = report.summary.tenants.iter().map(|t| t.deduplicated).sum();
        assert!(
            total_dedup > 0,
            "demo profile duplicates must dedup across tenants"
        );
    }
}
