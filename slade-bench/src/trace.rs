//! The bench's own span recorder: a span around every call the bench
//! makes into a layer, kept in memory and written out when the run ends.
//! Spans inside the program are a later change.
//!
//! A span's self time is its duration minus the part of it its children
//! cover, so the rows of a waterfall are exclusive and add up to the root
//! spans exactly.

use serde_json::{Map, Value};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `nn.engine.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// The request (or chunk) every span of one tree shares.
    pub request: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened with [`Recorder::begin`] now.
    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now()).max(self.spans[span].start_ns);
    }

    /// Times `f` as a child span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One waterfall row: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The exclusive waterfall of `spans`, rows in order of first appearance,
/// with the summed duration of the root spans.
///
/// # Panics
///
/// Panics when the self times do not add up to the roots: that would be a
/// bug in the recorder, and the per-layer shares would be wrong.
pub fn waterfall(spans: &[Span]) -> (Vec<Row>, u64) {
    // Children of each span, clipped to it, to take their union below.
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut root_ns = 0u64;
    for (i, span) in spans.iter().enumerate() {
        let dur = span.end_ns - span.start_ns;
        let kids = &mut children[i];
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start_ns);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        if span.parent.is_none() {
            root_ns += dur;
        }
        match rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => {
                row.count += 1;
                row.total_ns += dur;
                row.self_ns += dur - covered;
            }
            None => rows.push(Row {
                name: span.name,
                count: 1,
                total_ns: dur,
                self_ns: dur - covered,
            }),
        }
    }
    // Holds exactly when no child outlives its parent and siblings do not
    // overlap, which is how the bench records: one thread, nested calls.
    // Overlapping siblings would be counted once in the parent's cover
    // and twice in their own rows.
    let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
    assert_eq!(
        self_sum, root_ns,
        "waterfall does not close: self {self_sum} ns, roots {root_ns} ns"
    );
    (rows, root_ns)
}

/// Share of the root time spent in rows whose name starts with `prefix`.
pub fn self_share(rows: &[Row], root_ns: u64, prefix: &str) -> f64 {
    if root_ns == 0 {
        return 0.0;
    }
    let ns: u64 = rows.iter().filter(|r| r.name.starts_with(prefix)).map(|r| r.self_ns).sum();
    ns as f64 / root_ns as f64
}

/// Renders the waterfall as the table the run prints.
pub fn render(workload: &str, rows: &[Row], root_ns: u64) -> String {
    let mut out = format!(
        "waterfall {workload}: {} root time, exclusive rows\n  {:<28} {:>8} {:>12} {:>12} {:>7}\n",
        fmt_ms(root_ns),
        "span",
        "count",
        "total",
        "self",
        "share"
    );
    for row in rows {
        out.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>12} {:>6.1}%\n",
            row.name,
            row.count,
            fmt_ms(row.total_ns),
            fmt_ms(row.self_ns),
            100.0 * row.self_ns as f64 / root_ns.max(1) as f64
        ));
    }
    let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
    out.push_str(&format!(
        "  {:<28} {:>8} {:>12} {:>12}\n",
        "sum of self",
        "",
        "",
        fmt_ms(self_sum)
    ));
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// The trace file: every span, and the waterfall computed from them.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], rows: &[Row], root_ns: u64) -> Value {
    let mut doc = Map::new();
    doc.insert("workload".into(), Value::Str(workload.into()));
    doc.insert("seed".into(), Value::UInt(seed));
    doc.insert("root_ns".into(), Value::UInt(root_ns));
    let rows_json = rows
        .iter()
        .map(|r| {
            let mut m = Map::new();
            m.insert("name".into(), Value::Str(r.name.into()));
            m.insert("count".into(), Value::UInt(r.count));
            m.insert("total_ns".into(), Value::UInt(r.total_ns));
            m.insert("self_ns".into(), Value::UInt(r.self_ns));
            Value::Object(m)
        })
        .collect();
    doc.insert("waterfall".into(), Value::Array(rows_json));
    let spans_json = spans
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("name".into(), Value::Str(s.name.into()));
            m.insert("start_ns".into(), Value::UInt(s.start_ns));
            m.insert("end_ns".into(), Value::UInt(s.end_ns));
            m.insert("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)));
            m.insert("request".into(), Value::UInt(s.request));
            Value::Object(m)
        })
        .collect();
    doc.insert("spans".into(), Value::Array(spans_json));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_child_cover_and_sums_to_roots() {
        let mut rec = Recorder::default();
        let e = rec.epoch;
        let root = rec.record("root", at(e, 0), at(e, 100), None, 1);
        let a = rec.record("a", at(e, 10), at(e, 40), Some(root), 1);
        rec.record("a.leaf", at(e, 15), at(e, 25), Some(a), 1);
        rec.record("b", at(e, 50), at(e, 90), Some(root), 1);
        let root2 = rec.record("root", at(e, 200), at(e, 230), None, 2);
        rec.record("b", at(e, 200), at(e, 230), Some(root2), 2);
        let (rows, root_ns) = waterfall(rec.spans());
        assert_eq!(root_ns, 130_000);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("root").self_ns, 30_000); // 100 - 30 - 40, and 30 - 30
        assert_eq!(get("a").self_ns, 20_000);
        assert_eq!(get("a.leaf").self_ns, 10_000);
        assert_eq!(get("b").self_ns, 70_000);
        assert_eq!(get("b").count, 2);
        assert!((self_share(&rows, root_ns, "a") - 30.0 / 130.0).abs() < 1e-12);
        assert!(render("t", &rows, root_ns).contains("sum of self"));
        let json = to_json("t", 1, rec.spans(), &rows, root_ns).render();
        assert!(json.contains("\"parent\":null") && json.contains("\"request\":2"));
    }

    #[test]
    fn begin_end_and_scope_nest() {
        let mut rec = Recorder::default();
        let root = rec.begin("root", None, 0);
        let v = rec.scope("child", Some(root), 0, || 7);
        rec.end(root);
        assert_eq!(v, 7);
        let (rows, root_ns) = waterfall(rec.spans());
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), root_ns);
    }
}
