//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! of the program (name, layer, start, end, parent, op id). Spans stay
//! in memory and are written once, as chrome-trace JSON, when the run
//! ends. With recording off, [`Tracer::op`] and [`Tracer::span`] only
//! call their closure, so traced and untraced passes run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root-span name of a workload op.
const OP: &str = "op";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, e.g. `run_prepared`.
    pub name: &'static str,
    /// Layer (a module of the program), or `bench` for root spans.
    pub layer: &'static str,
    /// Op id shared by every span of one op.
    pub op: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Recording thread (one per client).
    pub tid: u32,
    /// Seconds since the run's time origin.
    pub start_s: f64,
    /// Seconds since the run's time origin.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans for one thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    tid: u32,
    ops: u64,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`; times are relative to `t0`.
    pub fn new(on: bool, t0: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            t0,
            tid,
            ops: 0,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as one op, under a root span named [`OP`].
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.ops += 1;
        self.op = (u64::from(self.tid) << 32) | self.ops;
        let i = self.open_span("bench", OP);
        let out = f(self);
        self.close_span(i);
        out
    }

    /// Run `f` under a span for call `name` into `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let i = self.open_span(layer, name);
        let out = f();
        self.close_span(i);
        out
    }

    fn open_span(&mut self, layer: &'static str, name: &'static str) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            tid: self.tid,
            start_s: now,
            end_s: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close_span(&mut self, i: usize) {
        self.spans[i].end_s = self.t0.elapsed().as_secs_f64();
        self.open.pop();
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate span lists from several tracers, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Durations of every span for call `name` into `layer`.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::dur)
        .collect()
}

/// Where the wall time of ops went.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Ops seen.
    pub ops: usize,
    /// Summed wall time of those ops.
    pub op_wall_s: f64,
    /// Self time per layer: span time not covered by child spans.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Op wall time that no layer span covers.
    pub uncovered_s: f64,
}

impl Breakdown {
    /// Share of op wall time no span covers.
    pub fn uncovered_frac(&self) -> f64 {
        if self.op_wall_s > 0.0 {
            self.uncovered_s / self.op_wall_s
        } else {
            0.0
        }
    }
}

/// Self time per layer, and the op time no layer span covers.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        let self_s = s.dur() - covered[i];
        if s.parent.is_none() {
            b.ops += 1;
            b.op_wall_s += s.dur();
            b.uncovered_s += self_s;
        } else {
            *b.self_s.entry(s.layer).or_insert(0.0) += self_s;
        }
    }
    b
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON for `spans`, with
/// `meta` key/value pairs under `otherData`.
pub fn chrome_json(spans: &[Span], meta: &[(String, String)]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.layer,
                s.tid,
                s.start_s * 1e6,
                s.dur() * 1e6,
                s.op
            )
        })
        .collect();
    let other: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{}}}}}\n",
        events.join(",\n"),
        other.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_report_gaps() {
        let mk = |name, layer, parent, start_s, end_s| Span {
            name,
            layer,
            op: 1,
            parent,
            tid: 0,
            start_s,
            end_s,
        };
        let spans = vec![
            mk(OP, "bench", None, 0.0, 10.0),
            mk("run", "core", Some(0), 1.0, 8.0),
            mk("inner", "cluster", Some(1), 2.0, 5.0),
            mk(OP, "bench", None, 10.0, 20.0),
            mk("gemm", "matrix", Some(3), 10.0, 20.0),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.ops, 2);
        assert_eq!(b.op_wall_s, 20.0);
        assert_eq!(b.self_s["core"], 4.0);
        assert_eq!(b.self_s["cluster"], 3.0);
        assert_eq!(b.self_s["matrix"], 10.0);
        assert_eq!(b.uncovered_frac(), 0.15);
    }

    #[test]
    fn tracer_off_records_nothing_and_merge_rebases_parents() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0, 0);
        assert_eq!(off.op(|t| t.span("core", "x", || 7)), 7);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(true, t0, 1);
        on.op(|t| t.span("core", "x", || ()));
        let a = on.into_spans();
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[1].op, (1 << 32) | 1);
    }
}
