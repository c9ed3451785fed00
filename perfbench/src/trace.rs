//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions from
//! the benchmark's own code: a name (the layer metric it feeds), start and
//! end on a per-run monotonic clock, the span that caused it, and the
//! job/cell/shard identifier it belongs to. Nothing is written while the run
//! measures; [`Tracer::write_jsonl`] dumps everything once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric name, e.g. `inject.prepare`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Job/cell/shard identifier, e.g. `j3/matmul/s1`.
    pub id: String,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span list plus named counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's epoch for an instant taken elsewhere.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span whose bounds were measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            id: id.to_owned(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Self::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Close a span opened with [`Self::open`].
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, parent, id, start, Instant::now());
        (out, idx)
    }

    /// Add `by` to a named counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Mean duration (ms) of the spans with this name, 0 when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Write every span (one JSON object per line) and the counters.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        for (name, value) in &self.counts {
            let _ = writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
