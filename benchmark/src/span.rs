//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`.  Spans of one
//! op share its `op_id`.  Nothing is written until the workload ends;
//! with the tracer off, [`Tracer::span`] is one branch around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `algos.cannon`.
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op_id: u64,
}

/// Span recorder; single-threaded, like the harness's calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards calls (`false`).
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` belonging to op `op_id`.
    pub fn span<T>(&mut self, name: &str, op_id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of [`self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − the part of it child spans cover).
    pub self_ns: u64,
}

/// A layer's self time: each span's duration minus the part of its
/// interval that its direct children cover (children are clipped to the
/// parent and overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let row = table.entry(s.name.clone()).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total - covered.min(total);
    }
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps.
#[must_use]
pub fn chrome_trace(spans: &[Span], process_name: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.op_id
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The self-time table the traced pass prints.
#[must_use]
pub fn render_self_times(table: &BTreeMap<String, SelfTime>) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in table {
        let _ = writeln!(
            out,
            "{name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("gen", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("kernel", 50, 70, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 100 - 20 - 50);
        assert_eq!(t["run"].self_ns, 50 - 20);
        assert_eq!(t["kernel"].self_ns, 20);
        assert_eq!(t["gen"].total_ns, 20);
    }

    #[test]
    fn overlapping_and_escaping_children_are_unioned_and_clipped() {
        let spans = vec![
            span("op", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // runs past the parent's end
            span("d", 120, 130, Some(0)), // inside a
        ];
        let t = self_times(&spans);
        // Covered: [110,170) ∪ [190,200) = 70.
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["op"].count, 1);
    }

    #[test]
    fn tracer_records_parents_and_is_free_when_off() {
        let mut on = Tracer::new(true);
        let v = on.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[0].parent, None);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert_eq!(on.spans()[1].op_id, 7);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        t.span("algos.cannon", 3, |t| t.span("dense.gen", 3, |_| ()));
        let text = chrome_trace(t.spans(), "fig_sweep");
        let doc = crate::json::parse(&text).expect("parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("algos.cannon")
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
    }
}
