//! Run results: metrics, notes and the final JSON line.

use crate::layers::WireCounts;
use crate::stats::{count_above, median, quantile};
use crate::sys::CpuSplit;
use crate::trace::{breakdown, Span};

/// One named measurement.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run found.
#[derive(Default)]
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed or returned a wrong result.
    pub failed: u64,
    /// Failure descriptions (timed or not); any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record an error.
    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }

    /// Did every op and check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is not valid JSON; report it as null.
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Keep at most this many failure messages from one pass.
pub const MAX_ERRORS: usize = 5;

/// One closed-loop measurement window.
#[derive(Default)]
pub struct Pass {
    /// Latency of every successful op.
    pub lat: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (typed error or wrong result).
    pub failed: u64,
    /// First failure messages.
    pub errors: Vec<String>,
    /// Wall seconds of the window.
    pub window_s: f64,
    /// CPU used during the window.
    pub cpu: CpuSplit,
    /// Metered shuffle + broadcast bytes of the successful ops.
    pub wire_bytes: u64,
    /// Largest per-op peak resident bytes.
    pub peak_bytes: u64,
    /// Spans recorded (traced passes only).
    pub spans: Vec<Span>,
}

impl Pass {
    /// Successful ops.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Record a failed op.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e);
        }
    }

    /// CPU per successful op.
    pub fn cpu_per_op(&self) -> CpuSplit {
        let ops = self.ok().max(1) as f64;
        CpuSplit {
            coord_s: self.cpu.coord_s / ops,
            worker_s: self.cpu.worker_s / ops,
        }
    }

    /// Fold the pass's counts and errors into `out`.
    pub fn account(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.errors.extend(self.errors.iter().cloned());
    }
}

/// Record the end-to-end metrics of an untraced pass.
pub fn end_to_end(out: &mut Outcome, pass: &Pass, setup_s: &[f64]) {
    let ops = pass.ok().max(1) as f64;
    let p90 = quantile(&pass.lat, 0.9);
    out.metric("latency_p50_s", median(&pass.lat), "s");
    out.metric("latency_p90_s", p90, "s");
    out.metric("throughput_ops", pass.ok() as f64 / pass.window_s, "1/s");
    out.metric("cpu_s_per_op", pass.cpu_per_op().total(), "s");
    out.metric("wire_bytes_per_op", pass.wire_bytes as f64 / ops, "bytes");
    out.metric("peak_resident_bytes", pass.peak_bytes as f64, "bytes");
    out.metric("setup_s", median(setup_s), "s");
    out.metric(
        "success_frac",
        pass.ok() as f64 / pass.attempted.max(1) as f64,
        "fraction",
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.4}", quantile(&pass.lat, d as f64 / 10.0)))
        .collect();
    out.note(format!(
        "samples {} ({} above p90), window {:.3} s, latency deciles [{}] s, setup runs {:?}",
        pass.lat.len(),
        count_above(&pass.lat, p90),
        pass.window_s,
        deciles.join(" "),
        setup_s
    ));
}

/// Per-layer numbers every workload reports in its traced run.
pub struct Layers {
    /// `parse_script` seconds per call.
    pub parse_s: f64,
    /// `Session::prepare` seconds per call.
    pub prepare_s: f64,
    /// `verify_planned` + `check_liveness` seconds.
    pub verify_s: f64,
    /// `Session::run_prepared` seconds per call.
    pub run_s: f64,
    /// Dense tile kernel rate.
    pub gemm_gflops: f64,
    /// Matmul flops per op, computed from the plan.
    pub gemm_flops_per_op: f64,
    /// `Cluster::repartition` seconds for one V-sized matrix.
    pub repartition_s: f64,
    /// `Cluster::broadcast` seconds for one W-sized matrix.
    pub broadcast_s: f64,
    /// Transport counts per op.
    pub wire: WireCounts,
    /// CPU per op of the coordinating side and of the workers.
    pub cpu_per_op: CpuSplit,
    /// `SharedStore` high-water footprint.
    pub store_peak_bytes: f64,
    /// `SharedStore` spill bytes per op.
    pub spill_bytes_per_op: f64,
    /// Serve round trips and server-side numbers.
    pub serve: ServeLayer,
}

/// Serve-layer numbers from client round trips.
pub struct ServeLayer {
    /// Median `Client::submit` round trip.
    pub submit_rtt_s: f64,
    /// Median `Client::fetch` round trip.
    pub fetch_rtt_s: f64,
    /// Median `Client::lint` round trip.
    pub lint_rtt_s: f64,
    /// Median server-reported run wall time per submit.
    pub exec_s: f64,
    /// Median of submit round trip minus its run wall time.
    pub overhead_s: f64,
    /// Plan-cache hits over hits + misses, from `Client::stats`.
    pub plan_cache_hit_rate: f64,
}

/// Record the per-layer metrics of a traced run, the tracing overhead
/// (traced minus untraced op p50) and the self-time breakdown.
pub fn per_layer(out: &mut Outcome, l: &Layers, untraced: &Pass, traced: &Pass) {
    let s = &l.serve;
    let rows: [(&str, f64, &'static str); 24] = [
        ("lang.parse_s", l.parse_s, "s"),
        ("core.prepare_s", l.prepare_s, "s"),
        ("analyze.verify_s", l.verify_s, "s"),
        ("core.run_s", l.run_s, "s"),
        ("matrix.gemm_gflops", l.gemm_gflops, "GFLOP/s"),
        ("matrix.gemm_flops_per_op", l.gemm_flops_per_op, "flop"),
        ("cluster.repartition_s", l.repartition_s, "s"),
        ("cluster.broadcast_s", l.broadcast_s, "s"),
        ("cluster.frames_per_op", l.wire.frames, "count"),
        ("cluster.frame_bytes_per_op", l.wire.frame_bytes, "bytes"),
        ("cluster.peer_bytes_per_op", l.wire.peer_bytes, "bytes"),
        ("cluster.relay_bytes_per_op", l.wire.relay_bytes, "bytes"),
        ("cluster.coord_cpu_s_per_op", l.cpu_per_op.coord_s, "s"),
        ("cluster.worker_cpu_s_per_op", l.cpu_per_op.worker_s, "s"),
        ("store.peak_footprint_bytes", l.store_peak_bytes, "bytes"),
        ("store.spill_bytes_per_op", l.spill_bytes_per_op, "bytes"),
        ("serve.submit_rtt_s", s.submit_rtt_s, "s"),
        ("serve.fetch_rtt_s", s.fetch_rtt_s, "s"),
        ("serve.lint_rtt_s", s.lint_rtt_s, "s"),
        ("serve.exec_s", s.exec_s, "s"),
        ("serve.overhead_s", s.overhead_s, "s"),
        (
            "serve.plan_cache_hit_rate",
            s.plan_cache_hit_rate,
            "fraction",
        ),
        (
            "trace.overhead_s",
            median(&traced.lat) - median(&untraced.lat),
            "s",
        ),
        (
            "trace.uncovered_frac",
            breakdown(&traced.spans).uncovered_frac(),
            "fraction",
        ),
    ];
    for (name, value, unit) in rows {
        out.metric(name, value, unit);
    }
    let b = breakdown(&traced.spans);
    let per_op = b.ops.max(1) as f64;
    let selfs: Vec<String> = b
        .self_s
        .iter()
        .map(|(layer, s)| format!("{layer} {:.6}", s / per_op))
        .collect();
    out.note(format!(
        "traced ops {}: op wall {:.6} s, self time per op [{}], uncovered {:.6} s ({:.2}%)",
        b.ops,
        b.op_wall_s / per_op,
        selfs.join(", "),
        b.uncovered_s / per_op,
        100.0 * b.uncovered_frac()
    ));
}
