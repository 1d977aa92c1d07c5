//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each crate's public functions; the program under test is not
//! instrumented. A span's *self time* is its duration minus the part its
//! child spans cover, so summing self times per span name splits an
//! operation into per-crate layers without double counting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of each traced operation.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

/// Records spans and per-operation counters for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: Vec<(u64, &'static str, f64)>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span;
    /// returns its result and the span's duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        (out, (end - start) as f64 / 1e9)
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed(name, f).0
    }

    /// Runs `f` as the root span of operation `op` and returns its result
    /// with the operation's wall time in seconds.
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.op = op;
        self.timed(OP, f)
    }

    /// Adds `value` to the counter `name` of the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push((self.op, name, value));
    }

    /// Moves another thread's recordings into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counters.extend(other.counters);
    }

    /// Per-operation self time (seconds) of every span name, plus the
    /// share of each operation's root span that named child spans cover.
    pub fn summarize(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            if s.name == OP {
                root_ns += dur;
                covered_ns += dur.saturating_sub(self_ns);
                continue;
            }
            *per_op.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 / 1e9;
        }
        let mut counts: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for &(op, name, v) in &self.counters {
            *counts.entry(op).or_default().entry(name).or_default() += v;
        }
        Summary {
            self_s: per_op,
            counts,
            coverage: if root_ns == 0 {
                1.0
            } else {
                covered_ns as f64 / root_ns as f64
            },
        }
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Aggregated view of a trace.
pub struct Summary {
    /// Operation → span name → self time in seconds.
    pub self_s: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Operation → counter name → value.
    pub counts: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Fraction of all root-span time that child spans cover.
    pub coverage: f64,
}

impl Summary {
    /// Median over the operations that ran span `name` of its per-op
    /// self time, in seconds (0 when no operation ran it).
    pub fn self_median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .self_s
            .values()
            .filter_map(|m| m.get(name).copied())
            .collect();
        crate::stats::median(&v)
    }

    /// Median over the operations that recorded counter `name`.
    pub fn count_median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .counts
            .values()
            .filter_map(|m| m.get(name).copied())
            .collect();
        crate::stats::median(&v)
    }

    /// Total self time per span name over all operations, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for m in self.self_s.values() {
            for (k, v) in m {
                *out.entry(*k).or_default() += v;
            }
        }
        out
    }
}
