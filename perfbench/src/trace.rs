//! The benchmark's own outside-in tracer.
//!
//! Every span is recorded by benchmark code around a call into one public
//! layer of the library; nothing inside the library is instrumented. A span
//! holds its name (`layer.call`), start and end on one monotonic clock, the
//! id of the span that caused it, and the id of the operation it belongs to
//! (the root span's own id). Spans stay in memory until the run ends and
//! are then written out as JSON lines.
//!
//! A disabled tracer records nothing and only calls through, so the timed
//! (untraced) runs execute exactly the calls a user would make.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Causing span, `0` for an operation's root.
    pub parent: u32,
    /// Root span id of the operation this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span measures: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Where a new span hangs: the enclosing span and its operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub op: u32,
    pub span: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: Mutex<(u32, Vec<Span>)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, parent: Option<Ctx>) -> Ctx {
        let mut st = self.state.lock().expect("tracer poisoned");
        st.0 += 1;
        let id = st.0;
        Ctx {
            op: parent.map_or(id, |p| p.op),
            span: id,
        }
    }

    fn close(&self, ctx: Ctx, parent: Option<Ctx>, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.state.lock().expect("tracer poisoned").1.push(Span {
            id: ctx.span,
            parent: parent.map_or(0, |p| p.span),
            op: ctx.op,
            name,
            start_ns,
            end_ns,
        });
    }

    fn timed<R>(&self, parent: Option<Ctx>, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.on {
            return f(parent.unwrap_or_default());
        }
        let ctx = self.open(parent);
        let start = self.now();
        let out = f(ctx);
        self.close(ctx, parent, name, start);
        out
    }

    /// Run one operation as a root span named `name` (`op.<class>`).
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        self.timed(None, name, f)
    }

    /// Run one layer call as a child span of `parent`.
    pub fn child<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        self.timed(Some(parent), name, f)
    }

    /// [`Self::child`] that also returns the call's wall time in
    /// milliseconds, for per-layer values derived from several spans of
    /// one operation.
    pub fn child_ms<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.child(parent, name, |_| {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed().as_secs_f64() * 1e3)
        })
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.state.lock().expect("tracer poisoned").1.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name aggregate of a trace.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: usize,
    pub self_ns: u64,
    pub durs_ms: Vec<f64>,
}

/// Aggregate spans by name: count, summed self time, durations.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += self_ns;
        e.durs_ms.push(s.dur_ns() as f64 / 1e6);
    }
    out
}

/// Coverage of one operation class (`op.<class>` roots): the share of the
/// roots' wall time their layer spans cover, and the median uncovered
/// ("dark") time per operation in milliseconds.
pub fn coverage(spans: &[Span], root: &str) -> Option<(f64, f64)> {
    let selfs = self_times(spans);
    let mut wall = 0u64;
    let mut dark = 0u64;
    let mut dark_ms = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent == 0 && s.name == root {
            wall += s.dur_ns();
            dark += self_ns;
            dark_ms.push(self_ns as f64 / 1e6);
        }
    }
    (wall > 0).then(|| (1.0 - dark as f64 / wall as f64, stats::median(&dark_ms)))
}

/// Serving-layer queue waits: for each submit span named `name`, the time
/// from the `submit` call to the job closure's entry (its `serve.run`
/// child), in milliseconds.
pub fn queue_waits_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let starts: BTreeMap<u32, u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.id, s.start_ns))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "serve.run")
        .filter_map(|s| {
            starts
                .get(&s.parent)
                .map(|&t| (s.start_ns - t) as f64 / 1e6)
        })
        .collect()
}

/// Write the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(&[], 0, 100), 0);
        assert_eq!(union_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(union_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(union_ns(&[(10, 20), (20, 30)], 0, 100), 20);
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // root [0,100) with overlapping children [10,40) and [30,60) and a
        // grandchild [12,20) that must not count against the root.
        let spans = vec![
            span(1, 0, "op.match", 0, 100),
            span(2, 1, "index.build", 10, 40),
            span(3, 1, "pipeline.run", 30, 60),
            span(4, 2, "index.probe", 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
        let (cov, dark_ms) = coverage(&spans, "op.match").expect("root present");
        assert!((cov - 0.5).abs() < 1e-12);
        assert!((dark_ms - 50.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.op("op.query", |ctx| t.child(ctx, "search.query", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_the_operation_id() {
        let t = Tracer::new(true);
        t.op("op.match", |ctx| {
            t.child(ctx, "serve.point", |c| t.child(c, "serve.run", |_| ()))
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == spans[0].id));
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(queue_waits_ms(&spans, "serve.point").len(), 1);
    }
}
