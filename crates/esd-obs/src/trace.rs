//! A bounded ring-buffer event tracer exporting Chrome trace-event JSON.
//!
//! The format is the "JSON Array Format" documented by the Chromium
//! tracing project and accepted by Perfetto: an object with a
//! `traceEvents` array of events whose `ph` field distinguishes complete
//! spans (`"X"`), instants (`"i"`) and counter samples (`"C"`), with
//! timestamps and durations in microseconds.

use std::collections::VecDeque;

use esd_sim::Ps;

use crate::metrics::{json_f64, json_str};

/// What kind of trace event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`): a named interval with a duration.
    Span,
    /// An instantaneous event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`): Perfetto renders these as a track.
    Counter,
}

/// One recorded event. Names and categories are `&'static str` so
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event name (the span/instant/counter label).
    pub name: &'static str,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Span, instant or counter.
    pub kind: EventKind,
    /// Start timestamp (simulated time).
    pub ts: Ps,
    /// Duration; zero for instants and counters.
    pub dur: Ps,
    /// Sample value; meaningful for counters only.
    pub value: f64,
}

impl TraceEvent {
    /// Renders this event as one Chrome trace-event JSON object.
    /// Timestamps and durations are microseconds per the format.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let ts = json_f64(self.ts.as_ps() as f64 / 1e6);
        match self.kind {
            EventKind::Span => format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1}}",
                json_str(self.name),
                json_str(self.cat),
                ts,
                json_f64(self.dur.as_ps() as f64 / 1e6),
            ),
            EventKind::Instant => format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"ts\":{},\"s\":\"g\",\"pid\":1,\"tid\":1}}",
                json_str(self.name),
                json_str(self.cat),
                ts,
            ),
            EventKind::Counter => format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"value\":{}}}}}",
                json_str(self.name),
                json_str(self.cat),
                ts,
                json_f64(self.value),
            ),
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s: a flight recorder that keeps
/// the most recent `capacity` events and counts what it had to drop.
#[derive(Debug, Clone, PartialEq)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(crate::DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer needs a nonzero capacity");
        Tracer {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full (oldest first).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records a complete span `start..end`.
    pub fn push_span(&mut self, cat: &'static str, name: &'static str, start: Ps, end: Ps) {
        self.push(TraceEvent {
            name,
            cat,
            kind: EventKind::Span,
            ts: start,
            dur: end.saturating_sub(start),
            value: 0.0,
        });
    }

    /// Records an instantaneous event at `ts`.
    pub fn push_instant(&mut self, cat: &'static str, name: &'static str, ts: Ps) {
        self.push(TraceEvent {
            name,
            cat,
            kind: EventKind::Instant,
            ts,
            dur: Ps::ZERO,
            value: 0.0,
        });
    }

    /// Records a counter sample at `ts`.
    pub fn push_counter(&mut self, cat: &'static str, name: &'static str, ts: Ps, value: f64) {
        self.push(TraceEvent {
            name,
            cat,
            kind: EventKind::Counter,
            ts,
            dur: Ps::ZERO,
            value,
        });
    }

    /// Exports the buffer as a Chrome trace-event JSON document.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_chrome_json());
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":");
        out.push_str(&self.dropped.to_string());
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let mut t = Tracer::with_capacity(2);
        t.push_instant("a", "first", Ps(1));
        t.push_instant("a", "second", Ps(2));
        t.push_instant("a", "third", Ps(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let names: Vec<&str> = t.events().map(|e| e.name).collect();
        assert_eq!(names, ["second", "third"]);
    }

    #[test]
    fn span_event_renders_microseconds() {
        let mut t = Tracer::with_capacity(4);
        t.push_span(
            "write",
            "device_write",
            Ps::from_ns(1500),
            Ps::from_ns(2500),
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.500000"), "{json}");
        assert!(json.contains("\"dur\":1.000000"), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn instant_and_counter_phases() {
        let mut t = Tracer::with_capacity(4);
        t.push_instant("ecc", "ecc_uncorrectable", Ps::from_ns(10));
        t.push_counter("occupancy", "busy_banks", Ps::from_ns(20), 3.0);
        let json = t.to_chrome_json();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":3"));
    }

    #[test]
    fn braces_stay_balanced() {
        let mut t = Tracer::with_capacity(8);
        t.push_span("w", "a", Ps(0), Ps(5));
        t.push_instant("w", "b", Ps(1));
        t.push_counter("w", "c", Ps(2), 1.5);
        let json = t.to_chrome_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_panics() {
        let _ = Tracer::with_capacity(0);
    }
}
