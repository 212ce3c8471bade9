//! Spans for the traced mode, kept in memory and written out at exit.
//!
//! A span records its name, start, end, parent span and operation id.
//! Each thread owns one [`Trace`]; spans nest by closure, so a span's
//! parent is whatever span was open on the same thread when it started.
//! A layer's self time is its span's duration minus its children's.

use miscela_core::MiningReport;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span every operation opens; its self time is the
/// benchmark's own glue between layer calls.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    /// The operation kind, on root spans only.
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Laid out from a [`MiningReport`] phase duration rather than timed
    /// around a call.
    pub derived: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    thread: u32,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u32>,
}

impl Trace {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Trace {
            epoch,
            thread,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&self, name: &'static str, kind: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let parent = self.open.borrow().last().map(|&i| spans[i].id).unwrap_or(0);
        let index = spans.len();
        spans.push(Span {
            id: index as u32 + 1,
            parent,
            op: self.op.get(),
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.open.borrow_mut().push(index);
        index
    }

    fn end(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end_ns;
        self.open.borrow_mut().pop();
    }

    /// Runs one operation of `kind` under a fresh operation id and a root
    /// span.
    pub fn op<T>(&self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        self.op.set(self.op.get() + 1);
        let index = self.begin(OP, kind);
        let out = f();
        self.end(index);
        out
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name, "");
        let out = f();
        self.end(index);
        out
    }

    /// Adds the miner's phase split as children of the innermost open
    /// span, laid end to end from that span's start.
    pub fn phases(&self, report: &MiningReport) {
        let mut spans = self.spans.borrow_mut();
        let Some(&parent_index) = self.open.borrow().last() else {
            return;
        };
        let parent = spans[parent_index].id;
        let mut at = spans[parent_index].start_ns;
        for (name, d) in [
            ("core.extraction", report.extraction_time),
            ("core.spatial", report.spatial_time),
            ("core.search", report.search_time),
        ] {
            let id = spans.len() as u32 + 1;
            let end = at + d.as_nanos() as u64;
            spans.push(Span {
                id,
                parent,
                op: self.op.get(),
                name,
                kind: "",
                start_ns: at,
                end_ns: end,
                derived: true,
            });
            at = end;
        }
    }

    pub fn into_spans(self) -> (u32, Vec<Span>) {
        (self.thread, self.spans.into_inner())
    }
}

/// Runs `f` inside a span when tracing, or just runs it.
pub fn span<T>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-layer self times, summed within each operation.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Layer name → one entry per operation that called it: the summed
    /// self time in milliseconds.
    pub per_op: BTreeMap<&'static str, Vec<f64>>,
    /// Root span durations, in milliseconds, by operation kind.
    pub op_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Summed self time of every non-root span, in milliseconds.
    pub covered_ms: f64,
    /// Summed root span durations, in milliseconds.
    pub total_ms: f64,
}

impl LayerTimes {
    /// The median over operations of a layer's per-operation self time;
    /// 0 when no operation called the layer.
    pub fn median_ms(&self, layer: &str) -> f64 {
        self.per_op
            .get(layer)
            .map(|v| crate::stats::median(v))
            .unwrap_or(0.0)
    }

    /// Share of the operations' wall time that layer spans account for.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_ms > 0.0 {
            100.0 * self.covered_ms / self.total_ms
        } else {
            0.0
        }
    }
}

/// Folds the spans of every thread into per-operation layer self times.
pub fn layer_times(threads: &[(u32, Vec<Span>)]) -> LayerTimes {
    let mut out = LayerTimes::default();
    for (_, spans) in threads {
        let mut child_ns = vec![0u64; spans.len() + 1];
        for s in spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        // (op, layer) → summed self time.
        let mut sums: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
        for s in spans {
            let self_ns = s.duration_ns().saturating_sub(child_ns[s.id as usize]);
            if s.parent == 0 {
                let ms = s.duration_ns() as f64 / 1e6;
                out.op_ms.entry(s.kind).or_default().push(ms);
                out.total_ms += ms;
            } else {
                *sums.entry((s.op, s.name)).or_default() += self_ns;
                out.covered_ms += self_ns as f64 / 1e6;
            }
        }
        for ((_, layer), ns) in sums {
            out.per_op.entry(layer).or_default().push(ns as f64 / 1e6);
        }
    }
    out
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &std::path::Path, threads: &[(u32, Vec<Span>)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads {
        for s in spans {
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.id, s.parent, s.op, s.name, s.kind, s.start_ns, s.end_ns, s.derived
            )?;
        }
    }
    out.flush()
}
