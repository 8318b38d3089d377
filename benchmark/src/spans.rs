//! The traced run's span recorder: spans are kept in memory and written as
//! Chrome-trace JSON when the run ends. Spans are recorded here, around the
//! calls into each layer; nothing inside the measured crates is instrumented.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; `id` is the
/// request or repetition it belongs to (spans of one request share it).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a new span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, u64) {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            id,
        });
        self.stack.push(index);
        self.spans[index].start_ns = self.ns(Instant::now());
        let result = f(self);
        let end = self.ns(Instant::now());
        self.spans[index].end_ns = end;
        self.stack.pop();
        (result, end - self.spans[index].start_ns)
    }

    /// Records an already-measured interval as a child of the open span.
    /// Used for requests in flight, whose intervals overlap each other.
    pub fn add(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            id,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover (the union of their intervals, so overlapping children
    /// count once).
    pub fn self_times(&self) -> Vec<i64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() as i64 - covered as i64
            })
            .collect()
    }

    /// Checks the tree: every span closed, ends after it starts, lies
    /// inside its parent, and has no negative self time.
    pub fn check_well_formed(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let self_times = self.self_times();
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", span.name));
            }
            if let Some(p) = span.parent {
                let parent = self
                    .spans
                    .get(p)
                    .ok_or_else(|| format!("span {i} has no parent {p}"))?;
                if p >= i {
                    return Err(format!("span {i} ({}) precedes its parent", span.name));
                }
                if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        span.name, parent.name
                    ));
                }
            }
            if self_times[i] < 0 {
                return Err(format!("span {i} ({}) has negative self time", span.name));
            }
        }
        Ok(())
    }

    /// Writes the spans as Chrome-trace "complete" events. Stack spans share
    /// thread 0; overlapping request spans spread over 16 more lanes by id.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        let last = self.spans.len().saturating_sub(1);
        let self_times = self.self_times();
        for (i, span) in self.spans.iter().enumerate() {
            let lane = if span.name.starts_with("request") {
                1 + span.id % 16
            } else {
                0
            };
            let parent = span.parent.map_or(-1, |p| p as i64);
            let comma = if i == last { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {lane}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}, \"self_us\": {:.3}}}}}{comma}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.id,
                self_times[i] as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
