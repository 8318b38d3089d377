#![warn(missing_docs)]

//! Dependency-free observability for the ESD simulator stack.
//!
//! Three pieces, all designed to cost nothing when disabled:
//!
//! * a [`Registry`] of named counters, gauges and log-bucketed latency
//!   histograms (reusing [`esd_sim::LatencyHistogram`]) with JSON export;
//! * a bounded ring-buffer [`Tracer`] whose events export as Chrome
//!   trace-event JSON, loadable in Perfetto or `chrome://tracing`;
//! * the [`Obs`] facade the simulator layers call: every method is a
//!   single-branch no-op when observability is off, so the instrumented
//!   hot paths keep their throughput.
//!
//! [`EpochSnapshot`] carries the runner's periodic time-series samples
//! (IPC, dedup rate, cache hit rate, queue occupancy, energy).
//!
//! # Examples
//!
//! ```
//! use esd_obs::Obs;
//! use esd_sim::Ps;
//!
//! let mut obs = Obs::enabled(1024);
//! obs.span("write", "efit_probe", Ps::ZERO, Ps::from_ns(2));
//! obs.instant("ecc", "ecc_corrected", Ps::from_ns(80));
//! obs.counter_sample("occupancy", "write_buffer_depth", Ps::from_ns(100), 3.0);
//! let json = obs.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(obs.metrics_json().contains("efit_probe"));
//! ```

mod metrics;
mod trace;

pub use metrics::{histogram_json, CounterId, HistogramId, Registry};
pub use trace::{EventKind, TraceEvent, Tracer};

use esd_sim::Ps;

/// Default ring-buffer capacity used when tracing is enabled without an
/// explicit size: enough for the full write path of tens of thousands of
/// accesses without unbounded memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One point of the runner's epoch time-series: deltas and instantaneous
/// occupancies measured over `epoch_interval` accesses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochSnapshot {
    /// Epoch index, starting at zero.
    pub index: u64,
    /// One past the last trace access covered by this epoch.
    pub end_access: u64,
    /// Simulated time at the epoch boundary.
    pub end_time: Ps,
    /// Instructions per cycle achieved within this epoch alone.
    pub ipc: f64,
    /// Fraction of this epoch's writes eliminated by deduplication.
    pub dedup_rate: f64,
    /// Fingerprint-structure (EFIT / fingerprint cache) hit rate within
    /// this epoch; zero for schemes without one.
    pub fingerprint_hit_rate: f64,
    /// Write-buffer slots still occupied at the epoch boundary.
    pub write_buffer_depth: u64,
    /// PCM banks still busy at the epoch boundary.
    pub busy_banks: u64,
    /// Energy (device + compute) spent within this epoch, in picojoules.
    pub energy_pj: u64,
}

impl EpochSnapshot {
    /// Renders one epoch as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"index\":{},\"end_access\":{},\"end_time_ns\":{},\"ipc\":{},\
             \"dedup_rate\":{},\"fingerprint_hit_rate\":{},\
             \"write_buffer_depth\":{},\"busy_banks\":{},\"energy_pj\":{}}}",
            self.index,
            self.end_access,
            metrics::json_f64(self.end_time.as_ns_f64()),
            metrics::json_f64(self.ipc),
            metrics::json_f64(self.dedup_rate),
            metrics::json_f64(self.fingerprint_hit_rate),
            self.write_buffer_depth,
            self.busy_banks,
            self.energy_pj,
        )
    }
}

/// Renders an epoch series as a JSON array.
#[must_use]
pub fn epochs_to_json(epochs: &[EpochSnapshot]) -> String {
    let mut out = String::from("[");
    for (i, e) in epochs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json());
    }
    out.push(']');
    out
}

/// The observability facade the simulator layers hold.
///
/// Constructed disabled by default; every recording method early-returns on
/// a single predictable branch in that state, so instrumented hot paths
/// compile to (almost) the uninstrumented code.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obs {
    enabled: bool,
    tracer: Tracer,
    registry: Registry,
}

impl Obs {
    /// A disabled sink: all recording methods are no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// An enabled collector with a bounded trace ring buffer; a zero
    /// `trace_capacity` selects [`DEFAULT_TRACE_CAPACITY`].
    #[must_use]
    pub fn enabled(trace_capacity: usize) -> Self {
        let capacity = if trace_capacity == 0 {
            DEFAULT_TRACE_CAPACITY
        } else {
            trace_capacity
        };
        Obs {
            enabled: true,
            tracer: Tracer::with_capacity(capacity),
            registry: Registry::new(),
        }
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed span (`start..end`) as a trace event and a
    /// latency-histogram sample under `name`.
    #[inline]
    pub fn span(&mut self, cat: &'static str, name: &'static str, start: Ps, end: Ps) {
        if !self.enabled {
            return;
        }
        self.tracer.push_span(cat, name, start, end);
        self.registry
            .histogram_record(name, end.saturating_sub(start));
    }

    /// Records an instantaneous event and bumps the counter of the same
    /// name.
    #[inline]
    pub fn instant(&mut self, cat: &'static str, name: &'static str, ts: Ps) {
        if !self.enabled {
            return;
        }
        self.tracer.push_instant(cat, name, ts);
        self.registry.counter_add(name, 1);
    }

    /// Records a counter-track sample (Perfetto draws these as occupancy
    /// graphs) and sets the gauge of the same name.
    #[inline]
    pub fn counter_sample(&mut self, cat: &'static str, name: &'static str, ts: Ps, value: f64) {
        if !self.enabled {
            return;
        }
        self.tracer.push_counter(cat, name, ts, value);
        self.registry.gauge_set(name, value);
    }

    /// Adds to a named counter without emitting a trace event.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        self.registry.counter_add(name, n);
    }

    /// The trace ring buffer.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the trace ring buffer, for merging per-shard
    /// buffers into one timeline.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the metrics registry, for merging per-shard
    /// registries.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Exports the trace buffer as Chrome trace-event JSON (the Perfetto /
    /// `chrome://tracing` interchange format).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        self.tracer.to_chrome_json()
    }

    /// Exports the metrics registry as JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.registry.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let mut obs = Obs::disabled();
        obs.span("write", "efit_probe", Ps::ZERO, Ps::from_ns(2));
        obs.instant("ecc", "ecc_corrected", Ps::ZERO);
        obs.counter_sample("occupancy", "banks", Ps::ZERO, 1.0);
        obs.counter_add("writes", 1);
        assert!(!obs.is_enabled());
        assert_eq!(obs.tracer().len(), 0);
        assert!(obs.registry().is_empty());
    }

    #[test]
    fn enabled_obs_records_spans_and_histograms() {
        let mut obs = Obs::enabled(16);
        obs.span("write", "device_write", Ps::from_ns(10), Ps::from_ns(160));
        obs.span("write", "device_write", Ps::from_ns(200), Ps::from_ns(360));
        assert_eq!(obs.tracer().len(), 2);
        let h = obs.registry().histogram("device_write").expect("histogram");
        assert_eq!(h.count(), 2);
        assert!(h.mean() >= Ps::from_ns(150));
    }

    #[test]
    fn zero_capacity_selects_default() {
        let obs = Obs::enabled(0);
        assert_eq!(obs.tracer().capacity(), DEFAULT_TRACE_CAPACITY);
    }

    #[test]
    fn epoch_snapshot_json_has_every_field() {
        let e = EpochSnapshot {
            index: 1,
            end_access: 2000,
            end_time: Ps::from_us(5),
            ipc: 3.5,
            dedup_rate: 0.25,
            fingerprint_hit_rate: 0.5,
            write_buffer_depth: 3,
            busy_banks: 2,
            energy_pj: 999,
        };
        let json = e.to_json();
        for key in [
            "index",
            "end_access",
            "end_time_ns",
            "ipc",
            "dedup_rate",
            "fingerprint_hit_rate",
            "write_buffer_depth",
            "busy_banks",
            "energy_pj",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let arr = epochs_to_json(&[e, e]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"index\"").count(), 2);
    }

    #[test]
    fn obs_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<Tracer>();
        assert_send_sync::<Registry>();
        assert_send_sync::<EpochSnapshot>();
    }
}
