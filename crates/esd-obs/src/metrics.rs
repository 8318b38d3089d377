//! The metrics registry: named counters, gauges and latency histograms.
//!
//! The registry owns its names as `Cow<'static, str>`: a simulator layer
//! records under a string literal and nothing is copied, a caller that
//! composes names at run time (the service's `tenant3/writes`) hands over
//! a `String`. Each kind keeps its entries in first-recorded order, the
//! export order, beside an index from name to position, so a call costs
//! one hash of its name however many metrics are recorded. The registry
//! holds no handles: a caller that counts on a hot path keeps its own
//! counts and builds a registry when it exports, as `esd-server`'s
//! service does.

use std::borrow::Cow;
use std::collections::HashMap;

use esd_sim::{LatencyHistogram, Ps};

/// Formats a float for JSON: six decimal places, non-finite mapped to 0
/// (JSON has no NaN/Infinity).
#[must_use]
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_owned()
    }
}

/// Escapes and quotes a string for JSON.
#[must_use]
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Entries of one metric kind in first-recorded order, with an index
/// from each name to its position.
#[derive(Debug, Clone, PartialEq)]
struct Entries<T> {
    list: Vec<(Cow<'static, str>, T)>,
    index: HashMap<Cow<'static, str>, usize>,
}

impl<T> Default for Entries<T> {
    fn default() -> Self {
        Entries {
            list: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<T> Entries<T> {
    /// The value of entry `name`, appended as `init()` if absent.
    fn entry(&mut self, name: Cow<'static, str>, init: fn() -> T) -> &mut T {
        let at = match self.index.get(&*name) {
            Some(&at) => at,
            None => {
                self.index.insert(name.clone(), self.list.len());
                self.list.push((name, init()));
                self.list.len() - 1
            }
        };
        &mut self.list[at].1
    }

    /// The value of entry `name`, if any.
    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&at| &self.list[at].1)
    }

    /// All entries, in first-recorded order.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.list.iter().map(|(k, v)| (&**k, v))
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A registry of named counters, gauges and log-bucketed latency
/// histograms.
///
/// # Examples
///
/// ```
/// use esd_obs::Registry;
/// use esd_sim::Ps;
///
/// let mut r = Registry::new();
/// r.counter_add("writes", 2);
/// r.gauge_set("write_buffer_depth", 3.0);
/// r.histogram_record("device_write", Ps::from_ns(154));
/// assert_eq!(r.counter("writes"), Some(2));
/// assert!(r.to_json().contains("p999_ns"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Entries<u64>,
    gauges: Entries<f64>,
    histograms: Entries<LatencyHistogram>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: impl Into<Cow<'static, str>>, n: u64) {
        *self.counters.entry(name.into(), u64::default) += n;
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        *self.gauges.entry(name.into(), f64::default) = value;
    }

    /// Records one latency sample into the histogram `name`.
    pub fn histogram_record(&mut self, name: impl Into<Cow<'static, str>>, value: Ps) {
        self.histograms
            .entry(name.into(), LatencyHistogram::new)
            .record(value);
    }

    /// Sets the histogram `name` to `h`, replacing whatever was recorded
    /// under it: for a caller that keeps its own histogram and exports it
    /// whole.
    pub fn histogram_set(&mut self, name: impl Into<Cow<'static, str>>, h: LatencyHistogram) {
        *self.histograms.entry(name.into(), LatencyHistogram::new) = h;
    }

    /// The current value of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// All counters, in first-recorded order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges, in first-recorded order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms, in first-recorded order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.histograms.iter()
    }

    /// Renders the registry as a JSON object with `counters`, `gauges`
    /// and `histograms` sections; each histogram reports count, mean and
    /// the p50/p95/p99/p999 tail in nanoseconds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(name), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(name), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(name), histogram_json(h)));
        }
        out.push_str("}}");
        out
    }
}

/// Renders one histogram's summary (count, mean, p50/p95/p99/p999 in
/// nanoseconds) as a JSON object.
#[must_use]
pub fn histogram_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
         \"p999_ns\":{}}}",
        h.count(),
        json_f64(h.mean().as_ns_f64()),
        json_f64(h.percentile(0.50).as_ns_f64()),
        json_f64(h.percentile(0.95).as_ns_f64()),
        json_f64(h.percentile(0.99).as_ns_f64()),
        json_f64(h.percentile(0.999).as_ns_f64()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = Registry::new();
        r.counter_add("scrub_ticks", 1);
        r.counter_add("scrub_ticks", 2);
        r.gauge_set("depth", 1.0);
        r.gauge_set("depth", 4.0);
        assert_eq!(r.counter("scrub_ticks"), Some(3));
        assert_eq!(r.gauge("depth"), Some(4.0));
        assert_eq!(r.counter("missing"), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn histograms_record_and_summarize() {
        let mut r = Registry::new();
        for ns in [10, 20, 30, 40] {
            r.histogram_record("lat", Ps::from_ns(ns));
        }
        let h = r.histogram("lat").expect("histogram");
        assert_eq!(h.count(), 4);
        let json = histogram_json(h);
        for key in ["count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns"] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
    }

    #[test]
    fn owned_and_static_names_are_one_metric() {
        let mut r = Registry::new();
        for tenant in 0..2 {
            r.counter_add(format!("tenant{tenant}/writes"), 1);
        }
        r.counter_add("tenant1/writes", 2);
        r.counter_add(String::from("tenant0/writes"), 4);
        assert_eq!(r.counter("tenant0/writes"), Some(5));
        assert_eq!(r.counter("tenant1/writes"), Some(3));
        assert_eq!(
            r.counters().map(|(k, _)| k).collect::<Vec<_>>(),
            ["tenant0/writes", "tenant1/writes"]
        );
    }

    #[test]
    fn a_set_histogram_replaces_in_place() {
        let mut r = Registry::new();
        r.histogram_record("stale", Ps::from_ns(99));
        r.histogram_record("kept", Ps::from_ns(5));
        let mut lat = LatencyHistogram::new();
        for ns in [10, 20, 30] {
            lat.record(Ps::from_ns(ns));
        }
        r.histogram_set("stale", lat.clone());
        r.histogram_set(String::from("new"), lat.clone());
        assert_eq!(r.histogram("stale"), Some(&lat));
        assert_eq!(r.histogram("kept").map(LatencyHistogram::count), Some(1));
        assert_eq!(
            r.histograms().map(|(k, _)| k).collect::<Vec<_>>(),
            ["stale", "kept", "new"]
        );
    }

    #[test]
    fn registry_json_is_balanced_and_keyed() {
        let mut r = Registry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 0.5);
        r.histogram_record("h", Ps(42));
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"c\"",
            "\"g\"",
            "\"h\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
    }

    #[test]
    fn json_str_escapes_controls() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "0.000000");
    }
}
