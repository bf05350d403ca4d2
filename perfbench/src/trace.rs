//! Spans around the benchmark's own calls into each layer.
//!
//! A span has a name, an op id, a parent span, and start/end instants.
//! Spans are kept in memory during the run and written out as JSON lines
//! when it ends; per-op layer times are derived from them afterwards,
//! so the traced loop does no bookkeeping beyond two clock reads per
//! span.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `client.submit`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// Index of the parent span in the tracer, `None` for an op's root.
    pub parent: Option<usize>,
    /// Start and end, relative to the tracer's origin.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Name of the root span every traced op carries.
pub const OP: &str = "op";

/// An in-memory span recorder, one per client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Layer values the spans cannot see — phases the program reports
    /// about itself, joined per op (`(op, layer, ms)`).
    joined: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// An empty tracer whose span times are relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            joined: Vec::new(),
        }
    }

    /// Record a finished span and return its index (the parent handle
    /// of spans nested in it).
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Duration of span `i` in milliseconds.
    pub fn span_ms(&self, i: usize) -> f64 {
        self.spans[i].ms()
    }

    /// Attach a layer value reported by the program itself (a report's
    /// `phases`) to `op`.
    pub fn join(&mut self, op: u64, layer: &'static str, ms: f64) {
        self.joined.push((op, layer, ms));
    }

    /// Move another thread's spans and joined values into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.joined.extend(other.joined);
    }

    /// Per op: the total milliseconds of each span name and joined layer.
    /// Ops whose root span is missing are skipped.
    pub fn per_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.op).or_default().entry(s.name).or_insert(0.0) += s.ms();
        }
        for &(op, layer, ms) in &self.joined {
            if let Some(entry) = out.get_mut(&op) {
                *entry.entry(layer).or_insert(0.0) += ms;
            }
        }
        out.retain(|_, m| m.contains_key(OP));
        out
    }

    /// Write every span as one JSON line: name, op, span id, parent id,
    /// and start/end in microseconds since the tracer's origin.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{i},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Median over `ops` of the value each op has for `layer` (0 where an op
/// lacks it).
pub fn layer_median(ops: &[&BTreeMap<&'static str, f64>], layer: &str) -> f64 {
    let values: Vec<f64> = ops
        .iter()
        .map(|m| m.get(layer).copied().unwrap_or(0.0))
        .collect();
    median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn per_op_sums_spans_and_joined_values() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.span(OP, 7, None, at(0), at(10));
        let a = tr.span("a", 7, Some(root), at(1), at(4));
        tr.span("a.inner", 7, Some(a), at(2), at(3));
        tr.span("b", 7, Some(root), at(5), at(9));
        tr.join(7, "phase", 2.5);
        let per_op = tr.per_op();
        let op = &per_op[&7];
        assert!((op[OP] - 10.0).abs() < 1e-9);
        assert!((op["a"] - 3.0).abs() < 1e-9);
        assert!((op["phase"] - 2.5).abs() < 1e-9);
        let mut other = Tracer::new(t0);
        let r = other.span(OP, 8, None, at(0), at(2));
        other.span("a", 8, Some(r), at(0), at(1));
        tr.absorb(other);
        let per_op = tr.per_op();
        assert!((per_op[&8]["a"] - 1.0).abs() < 1e-9);
        let ops: Vec<_> = per_op.values().collect();
        assert!((layer_median(&ops, "b") - 2.0).abs() < 1e-9);
    }
}
