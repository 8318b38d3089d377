//! The metrics registry: named counters, gauges and latency histograms.
//!
//! Names are `&'static str`, and a call that names its metric finds it by
//! a linear scan comparing string *contents*: fine for the handful of
//! metrics a simulator layer records, linear in the entry count for a
//! caller that has hundreds (the service keeps six per tenant). Such a
//! caller asks once for a [`CounterId`] or [`HistogramId`] and records
//! through it in O(1).

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

/// Handle to one counter of the [`Registry`] that issued it (or of a clone
/// of that registry); see [`Registry::counter_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to one histogram of the [`Registry`] that issued it (or of a
/// clone of that registry); see [`Registry::histogram_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Entry position of a handle nothing has been recorded through yet.
const UNRESOLVED: u32 = u32::MAX;

/// Entries of one metric kind, in first-recorded order.
type Entries<T> = Vec<(&'static str, T)>;

/// Where entry `name` is, appended as `init()` if absent.
fn position<T>(entries: &mut Entries<T>, name: &'static str, init: fn() -> T) -> usize {
    entries
        .iter()
        .position(|(k, _)| *k == name)
        .unwrap_or_else(|| {
            entries.push((name, init()));
            entries.len() - 1
        })
}

/// The value of entry `name`, appended as `init()` if absent.
fn entry<'a, T>(entries: &'a mut Entries<T>, name: &'static str, init: fn() -> T) -> &'a mut T {
    let at = position(entries, name, init);
    &mut entries[at].1
}

/// The value handle `id` stands for. The first call finds or appends the
/// entry by name and remembers where it is.
fn resolve<'a, T>(
    handles: &mut [(&'static str, u32)],
    entries: &'a mut Entries<T>,
    id: u32,
    init: fn() -> T,
) -> &'a mut T {
    let (name, at) = &mut handles[id as usize];
    if *at == UNRESOLVED {
        *at = position(entries, name, init) as u32;
    }
    &mut entries[*at as usize].1
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
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Entries<u64>,
    gauges: Entries<f64>,
    histograms: Entries<LatencyHistogram>,
    /// Per issued [`CounterId`]: its name and its position in `counters`,
    /// [`UNRESOLVED`] until the first record through it.
    counter_handles: Vec<(&'static str, u32)>,
    /// The same for each [`HistogramId`] and `histograms`.
    histogram_handles: Vec<(&'static str, u32)>,
}

/// Registries are equal when they recorded the same things in the same
/// order; which handles were issued is not part of what was recorded.
impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
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
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *entry(&mut self.counters, name, u64::default) += n;
    }

    /// A handle to the counter `name` for [`Registry::counter_add_by_id`].
    ///
    /// Taking a handle records nothing: the counter appears, in
    /// first-recorded order like any other, when something is first added
    /// through the handle, and never if nothing is. The handle indexes
    /// this registry and its clones only.
    pub fn counter_id(&mut self, name: &'static str) -> CounterId {
        self.counter_handles.push((name, UNRESOLVED));
        CounterId(self.counter_handles.len() as u32 - 1)
    }

    /// Adds `n` to the counter behind `id`: the same effect as
    /// [`Registry::counter_add`] under the handle's name, without the
    /// search.
    ///
    /// # Panics
    ///
    /// May panic on a handle another registry issued.
    #[inline]
    pub fn counter_add_by_id(&mut self, id: CounterId, n: u64) {
        *resolve(
            &mut self.counter_handles,
            &mut self.counters,
            id.0,
            u64::default,
        ) += n;
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        *entry(&mut self.gauges, name, f64::default) = value;
    }

    /// Records one latency sample into the histogram `name`.
    pub fn histogram_record(&mut self, name: &'static str, value: Ps) {
        entry(&mut self.histograms, name, LatencyHistogram::new).record(value);
    }

    /// A handle to the histogram `name` for
    /// [`Registry::histogram_record_by_id`], with the laziness and scope of
    /// [`Registry::counter_id`].
    pub fn histogram_id(&mut self, name: &'static str) -> HistogramId {
        self.histogram_handles.push((name, UNRESOLVED));
        HistogramId(self.histogram_handles.len() as u32 - 1)
    }

    /// Records one latency sample into the histogram behind `id`.
    ///
    /// # Panics
    ///
    /// May panic on a handle another registry issued.
    #[inline]
    pub fn histogram_record_by_id(&mut self, id: HistogramId, value: Ps) {
        resolve(
            &mut self.histogram_handles,
            &mut self.histograms,
            id.0,
            LatencyHistogram::new,
        )
        .record(value);
    }

    /// The current value of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// The current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// The histogram `name`, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, h)| h)
    }

    /// All counters, in first-recorded order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// All gauges, in first-recorded order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().copied()
    }

    /// All histograms, in first-recorded order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        self.histograms.iter().map(|(k, h)| (*k, h))
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
    fn handles_record_what_names_record() {
        let mut by_name = Registry::new();
        let mut by_id = Registry::new();
        // Taken in one order, first used in another: the export follows use.
        let idle = by_id.counter_id("idle");
        let b = by_id.counter_id("b");
        let a = by_id.counter_id("a");
        let silent = by_id.histogram_id("silent");
        let lat = by_id.histogram_id("lat");
        for n in 1..=3u64 {
            by_name.counter_add("a", n);
            by_id.counter_add_by_id(a, n);
            by_name.counter_add("b", 1);
            by_id.counter_add_by_id(b, 1);
            by_name.histogram_record("lat", Ps::from_ns(10 * n));
            by_id.histogram_record_by_id(lat, Ps::from_ns(10 * n));
        }
        assert_eq!(by_id.to_json(), by_name.to_json());
        assert_eq!(by_id, by_name);
        assert_eq!(
            by_id.counters().map(|(k, _)| k).collect::<Vec<_>>(),
            ["a", "b"]
        );
        // A handle nothing was recorded through leaves no entry.
        let _ = (idle, silent);
        assert_eq!(by_id.counter("idle"), None);
        assert!(by_id.histogram("silent").is_none());
        assert!(!by_id.to_json().contains("idle") && !by_id.to_json().contains("silent"));

        // A handle and its name are one metric, whichever came first.
        by_id.counter_add("a", 4);
        by_id.counter_add("late", 1);
        let late = by_id.counter_id("late");
        by_id.counter_add_by_id(late, 1);
        assert_eq!(by_id.counter("a"), Some(10));
        assert_eq!(by_id.counter("late"), Some(2));
        assert_eq!(by_id.counters().count(), 3);
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
