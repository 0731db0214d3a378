//! The execution flight recorder: a per-step [`Trace`] merged from the
//! cluster's span buffer and diffed against the planner's predictions.
//!
//! Every executed plan step contributes a [`StepTrace`] carrying:
//!
//! * the planner's **predicted** cost-model bytes for the step (Table 2:
//!   `0` for non-communication dependencies, `|A|` for partition, `N·|A|`
//!   for broadcast, `N·|AB|` for a CPMM output event),
//! * the **actual** event bytes the cluster measured for the same step
//!   (steady-state only — recovery traffic is attributed separately),
//! * the physical **wire** bytes the simulated transport shipped, and
//! * the low-level [`OpSpan`]s (per-worker sent/received, blocks touched,
//!   buffer-pool activity) the step was assembled from.
//!
//! [`Trace::conformance`] returns the per-step `(predicted, actual)`
//! pairs; for dense workloads the two are equal byte-for-byte, which
//! `tests/cost_conformance.rs` enforces for every Table 2 dependency
//! type. `|A|` is a *worst-case* (dense) estimate, so sparse inputs may
//! deviate in either direction: fewer non-zeros than declared undershoot,
//! CSC index overhead can overshoot. [`Trace::overshoots`] lists steps
//! whose actual exceeds predicted — the conformance gate in
//! `scripts/verify.sh` runs a dense PageRank and requires it to be empty.
//!
//! [`Trace::to_chrome_json`] renders the trace in the Trace Event Format
//! understood by `chrome://tracing` / Perfetto: one complete (`"ph":"X"`)
//! event per step on a per-stage track, plus one event per span.

use std::fmt::Write as _;

use dmac_cluster::OpSpan;
use dmac_matrix::exec::PoolStats;

use dmac_cluster::json::{escape as json_str, JsonObj};

/// Execution record of one plan step.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Index of the step in `Plan::steps`.
    pub step: usize,
    /// Stage the step executed in.
    pub stage: usize,
    /// Phase tag (iteration number).
    pub phase: usize,
    /// Step kind: `"partition"`, `"broadcast"`, `"transpose"`,
    /// `"extract"`, `"reference"`, or the compute strategy name.
    pub kind: String,
    /// Human-readable label (node labels, paper-style).
    pub label: String,
    /// The planner's predicted cost-model bytes for this step.
    pub predicted_bytes: u64,
    /// Measured steady-state event bytes (cost-model units).
    pub actual_bytes: u64,
    /// Measured steady-state wire bytes (what the transport shipped).
    pub wire_bytes: u64,
    /// Physical payload bytes the transport backend receipted for the
    /// step's steady-state spans. Conformance-asserted equal to the
    /// metered wire bytes of every mirrored primitive, so on a real
    /// backend this confirms each wire byte physically crossed a socket.
    pub transport_bytes: u64,
    /// Wire bytes attributed to recovery while this step was in flight
    /// (failed-attempt partial work, lineage replay, source refetch).
    pub recovery_wire_bytes: u64,
    /// The estimator's predicted non-zero count for the step's output
    /// matrix (0 for steps without a matrix output).
    pub predicted_nnz: u64,
    /// Observed non-zero count of the materialised output (0 for steps
    /// without a matrix output).
    pub observed_nnz: u64,
    /// Density class of the *predicted* output profile (`"empty"`,
    /// `"sparse"`, `"medium"`, `"dense"`; empty string when the step has
    /// no matrix output).
    pub density_class: &'static str,
    /// Logical bytes of all values resident after this step executed
    /// (each distributed value counted once across aliasing nodes).
    /// Verified against the plan's memory certificate: invariant V21
    /// requires `resident_bytes ≤ certificate.per_step[step]`.
    pub resident_bytes: u64,
    /// Simulated clock when the step started.
    pub sim_start_sec: f64,
    /// Simulated clock when the step completed.
    pub sim_end_sec: f64,
    /// The primitive spans this step was assembled from (includes
    /// recovery-flagged spans).
    pub spans: Vec<OpSpan>,
}

impl StepTrace {
    /// `actual - predicted` when positive: bytes the cost model failed to
    /// anticipate.
    pub fn overshoot_bytes(&self) -> u64 {
        self.actual_bytes.saturating_sub(self.predicted_bytes)
    }

    /// Total blocks touched across the step's steady-state spans.
    pub fn blocks(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| !s.recovery)
            .map(|s| s.blocks)
            .sum()
    }
}

/// One `(predicted, actual)` byte pair from [`Trace::conformance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conformance {
    /// Step index.
    pub step: usize,
    /// Step kind (see [`StepTrace::kind`]).
    pub kind: String,
    /// Human-readable label.
    pub label: String,
    /// Planner-predicted cost-model bytes.
    pub predicted: u64,
    /// Measured steady-state event bytes.
    pub actual: u64,
}

impl Conformance {
    /// True when the measurement does not exceed the prediction (the cost
    /// model is an upper bound by construction for dense data).
    pub fn holds(&self) -> bool {
        self.actual <= self.predicted
    }

    /// Render the pair as a JSON object (service `Stats` responses, bench
    /// artifacts).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("step", self.step as u64)
            .str("kind", &self.kind)
            .str("label", &self.label)
            .u64("predicted", self.predicted)
            .u64("actual", self.actual)
            .bool("holds", self.holds())
            .build()
    }
}

/// The trace's third byte channel: traffic between the store's RAM tier
/// and its disk tier attributed to one run (checkpoint writes, spills
/// under memory pressure, and reloads of spilled inputs). Metered at the
/// run level rather than per step because spills happen while the session
/// resolves inputs and absorbs outputs, not inside the engine's stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillTraffic {
    /// Resident→disk displacement events.
    pub spills: u64,
    /// Blob bytes physically written (content addressing makes rewrites
    /// of unchanged matrices free).
    pub spill_bytes: u64,
    /// Disk→resident reload events.
    pub loads: u64,
    /// Blob bytes read back.
    pub load_bytes: u64,
}

impl SpillTraffic {
    /// Bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.spill_bytes + self.load_bytes
    }

    /// Difference of two cumulative counter snapshots (`self - earlier`).
    pub fn since(&self, earlier: &SpillTraffic) -> SpillTraffic {
        SpillTraffic {
            spills: self.spills - earlier.spills,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
            loads: self.loads - earlier.loads,
            load_bytes: self.load_bytes - earlier.load_bytes,
        }
    }
}

/// Per-stage aggregate used by the golden snapshot tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageSummary {
    /// Stage index.
    pub stage: usize,
    /// Step kinds executed in the stage, in order.
    pub kinds: Vec<String>,
    /// Sum of predicted bytes over the stage's steps.
    pub predicted_bytes: u64,
    /// Sum of steady-state event bytes.
    pub actual_bytes: u64,
    /// Sum of steady-state wire bytes.
    pub wire_bytes: u64,
}

/// The merged flight-recorder trace attached to
/// [`crate::engine::ExecReport`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of logical workers the run used.
    pub workers: usize,
    /// Number of stages the plan executed as.
    pub stage_count: usize,
    /// One record per executed plan step, in execution order.
    pub steps: Vec<StepTrace>,
    /// Cumulative result-buffer-pool counters at the end of the run.
    pub pool: PoolStats,
    /// Store↔disk traffic attributed to this run (the third channel,
    /// next to steady-state and recovery bytes). All zero without a
    /// disk-backed store.
    pub spill: SpillTraffic,
}

impl Trace {
    /// Per-step `(predicted, actual)` cost-model byte pairs, in execution
    /// order. This is the paper's Table 2 made testable: for each step the
    /// planner's 0 / `|A|` / `N·|A|` (/ `N·|AB|`) prediction sits next to
    /// what the cluster measured.
    pub fn conformance(&self) -> Vec<Conformance> {
        self.steps
            .iter()
            .map(|s| Conformance {
                step: s.step,
                kind: s.kind.clone(),
                label: s.label.clone(),
                predicted: s.predicted_bytes,
                actual: s.actual_bytes,
            })
            .collect()
    }

    /// Steps whose measured bytes exceed the prediction (empty on a
    /// conforming run).
    pub fn overshoots(&self) -> Vec<&StepTrace> {
        self.steps
            .iter()
            .filter(|s| s.actual_bytes > s.predicted_bytes)
            .collect()
    }

    /// Total predicted bytes over all steps (equals the planner's
    /// `estimated_comm`).
    pub fn predicted_total(&self) -> u64 {
        self.steps.iter().map(|s| s.predicted_bytes).sum()
    }

    /// Total measured steady-state event bytes.
    pub fn actual_total(&self) -> u64 {
        self.steps.iter().map(|s| s.actual_bytes).sum()
    }

    /// Total steady-state wire bytes.
    pub fn wire_total(&self) -> u64 {
        self.steps.iter().map(|s| s.wire_bytes).sum()
    }

    /// Total wire bytes attributed to recovery.
    pub fn recovery_wire_total(&self) -> u64 {
        self.steps.iter().map(|s| s.recovery_wire_bytes).sum()
    }

    /// Total physical transport payload bytes (steady state).
    pub fn transport_total(&self) -> u64 {
        self.steps.iter().map(|s| s.transport_bytes).sum()
    }

    /// Bytes sent per worker, summed over steady-state spans.
    pub fn sent_per_worker(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.workers];
        for step in &self.steps {
            for span in step.spans.iter().filter(|s| !s.recovery) {
                for (w, &b) in span.sent.iter().enumerate() {
                    if w < v.len() {
                        v[w] += b;
                    }
                }
            }
        }
        v
    }

    /// Bytes received per worker, summed over steady-state spans.
    pub fn received_per_worker(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.workers];
        for step in &self.steps {
            for span in step.spans.iter().filter(|s| !s.recovery) {
                for (w, &b) in span.received.iter().enumerate() {
                    if w < v.len() {
                        v[w] += b;
                    }
                }
            }
        }
        v
    }

    /// Aggregate the trace per stage (kinds in order, byte totals).
    pub fn per_stage(&self) -> Vec<StageSummary> {
        let mut out: Vec<StageSummary> = Vec::with_capacity(self.stage_count);
        for step in &self.steps {
            if out.last().map(|s| s.stage) != Some(step.stage) {
                out.push(StageSummary {
                    stage: step.stage,
                    ..StageSummary::default()
                });
            }
            let cur = out.last_mut().expect("just pushed");
            cur.kinds.push(step.kind.clone());
            cur.predicted_bytes += step.predicted_bytes;
            cur.actual_bytes += step.actual_bytes;
            cur.wire_bytes += step.wire_bytes;
        }
        out
    }

    /// Deterministic textual rendering of the trace's structure: workers,
    /// stage count, and per stage the step kinds plus predicted / actual /
    /// wire byte totals. Timing and pool counters are deliberately
    /// excluded (they vary run to run); everything else is bit-stable for
    /// a fixed seed, which makes this the golden-snapshot format.
    pub fn golden_summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workers={} stages={} steps={}",
            self.workers,
            self.stage_count,
            self.steps.len()
        );
        for st in self.per_stage() {
            let _ = writeln!(
                s,
                "stage {:>2}: pred={} actual={} wire={} [{}]",
                st.stage,
                st.predicted_bytes,
                st.actual_bytes,
                st.wire_bytes,
                st.kinds.join(",")
            );
        }
        let _ = writeln!(
            s,
            "spill: spills={} spill_bytes={} loads={} load_bytes={}",
            self.spill.spills, self.spill.spill_bytes, self.spill.loads, self.spill.load_bytes
        );
        s
    }

    /// Total predicted output non-zeros over all steps.
    pub fn predicted_nnz_total(&self) -> u64 {
        self.steps.iter().map(|s| s.predicted_nnz).sum()
    }

    /// Total observed output non-zeros over all steps.
    pub fn observed_nnz_total(&self) -> u64 {
        self.steps.iter().map(|s| s.observed_nnz).sum()
    }

    /// Peak of the per-step resident-byte meter (0 for empty traces).
    pub fn peak_resident(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.resident_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Human-readable conformance table (bench bins, debugging).
    pub fn conformance_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>4} {:>5} {:<12} {:>14} {:>14} {:>14} {:>12} {:>12} {:<7} label",
            "step", "stage", "kind", "predicted", "actual", "wire", "pred_nnz", "obs_nnz", "class"
        );
        for t in &self.steps {
            let mark = if t.actual_bytes > t.predicted_bytes {
                " OVER"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "{:>4} {:>5} {:<12} {:>14} {:>14} {:>14} {:>12} {:>12} {:<7} {}{}",
                t.step,
                t.stage,
                t.kind,
                t.predicted_bytes,
                t.actual_bytes,
                t.wire_bytes,
                t.predicted_nnz,
                t.observed_nnz,
                if t.density_class.is_empty() {
                    "-"
                } else {
                    t.density_class
                },
                t.label,
                mark
            );
        }
        let _ = writeln!(
            s,
            "total predicted={} actual={} wire={} recovery_wire={} spill={} load={}",
            self.predicted_total(),
            self.actual_total(),
            self.wire_total(),
            self.recovery_wire_total(),
            self.spill.spill_bytes,
            self.spill.load_bytes
        );
        s
    }

    /// Render the trace in the Trace Event Format consumed by
    /// `chrome://tracing` and Perfetto (`"traceEvents"` array of complete
    /// `"ph":"X"` events). Timestamps are the *simulated* clock in
    /// microseconds; each stage gets its own track (`tid`), steps are
    /// pid 1, their constituent spans pid 2.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: &mut String, ev: String| {
            if !first {
                s.push(',');
            }
            first = false;
            s.push('\n');
            s.push_str(&ev);
        };
        for t in &self.steps {
            let ts = t.sim_start_sec * 1e6;
            let dur = ((t.sim_end_sec - t.sim_start_sec) * 1e6).max(0.01);
            push(
                &mut s,
                format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"step\":{},\"phase\":{},\
                     \"predicted_bytes\":{},\"actual_bytes\":{},\"wire_bytes\":{},\
                     \"recovery_wire_bytes\":{},\"predicted_nnz\":{},\"observed_nnz\":{},\
                     \"density_class\":{},\"resident_bytes\":{}}}}}",
                    json_str(&format!("{} {}", t.kind, t.label)),
                    json_str(&t.kind),
                    ts,
                    dur,
                    t.stage,
                    t.step,
                    t.phase,
                    t.predicted_bytes,
                    t.actual_bytes,
                    t.wire_bytes,
                    t.recovery_wire_bytes,
                    t.predicted_nnz,
                    t.observed_nnz,
                    json_str(t.density_class),
                    t.resident_bytes,
                ),
            );
            for span in &t.spans {
                let ts = span.start_sec * 1e6;
                let dur = (span.sim_dur_sec() * 1e6).max(0.01);
                push(
                    &mut s,
                    format!(
                        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                         \"pid\":2,\"tid\":{},\"args\":{{\"wire_bytes\":{},\"event_bytes\":{},\
                         \"blocks\":{},\"pool_reused\":{},\"pool_allocated\":{},\
                         \"recovery\":{},\"wall_sec\":{:.9}}}}}",
                        json_str(&if span.label.is_empty() {
                            span.op.to_string()
                        } else {
                            format!("{} {}", span.op, span.label)
                        }),
                        json_str(span.op),
                        ts,
                        dur,
                        t.stage,
                        span.wire_bytes,
                        span.event_bytes,
                        span.blocks,
                        span.pool_reused,
                        span.pool_allocated,
                        span.recovery,
                        span.wall_sec,
                    ),
                );
            }
        }
        let _ = write!(
            s,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workers\":{},\"stages\":{},\
             \"pool_reused\":{},\"pool_allocated\":{},\"pool_returned\":{},\"pool_dropped\":{},\
             \"spills\":{},\"spill_bytes\":{},\"loads\":{},\"load_bytes\":{}}}}}",
            self.workers,
            self.stage_count,
            self.pool.reused,
            self.pool.allocated,
            self.pool.returned,
            self.pool.dropped,
            self.spill.spills,
            self.spill.spill_bytes,
            self.spill.loads,
            self.spill.load_bytes
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(stage: usize, kind: &str, pred: u64, actual: u64, wire: u64) -> StepTrace {
        StepTrace {
            step: 0,
            stage,
            kind: kind.to_string(),
            label: format!("{kind}-label"),
            predicted_bytes: pred,
            actual_bytes: actual,
            wire_bytes: wire,
            ..StepTrace::default()
        }
    }

    fn sample() -> Trace {
        Trace {
            workers: 4,
            stage_count: 2,
            steps: vec![
                step(0, "partition", 100, 100, 75),
                step(0, "RMM1", 0, 0, 0),
                step(1, "broadcast", 400, 400, 300),
            ],
            pool: PoolStats::default(),
            spill: SpillTraffic::default(),
        }
    }

    #[test]
    fn conformance_pairs_match_steps() {
        let t = sample();
        let c = t.conformance();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(Conformance::holds));
        assert_eq!(c[0].predicted, 100);
        assert_eq!(c[2].actual, 400);
        assert_eq!(t.predicted_total(), 500);
        assert_eq!(t.actual_total(), 500);
        assert_eq!(t.wire_total(), 375);
        assert!(t.overshoots().is_empty());
    }

    #[test]
    fn overshoot_detection() {
        let mut t = sample();
        t.steps[0].actual_bytes = 150;
        let over = t.overshoots();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].overshoot_bytes(), 50);
        assert!(!t.conformance()[0].holds());
    }

    #[test]
    fn per_stage_aggregates_in_order() {
        let t = sample();
        let stages = t.per_stage();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].kinds, vec!["partition", "RMM1"]);
        assert_eq!(stages[0].predicted_bytes, 100);
        assert_eq!(stages[1].wire_bytes, 300);
    }

    #[test]
    fn golden_summary_is_stable_text() {
        let t = sample();
        let s = t.golden_summary();
        assert!(s.starts_with("workers=4 stages=2 steps=3\n"), "{s}");
        assert!(s.contains("stage  0: pred=100 actual=100 wire=75 [partition,RMM1]"));
        assert!(s.contains("stage  1: pred=400 actual=400 wire=300 [broadcast]"));
        assert!(
            s.ends_with("spill: spills=0 spill_bytes=0 loads=0 load_bytes=0\n"),
            "{s}"
        );
    }

    #[test]
    fn spill_channel_is_summarised_and_diffable() {
        let mut t = sample();
        t.spill = SpillTraffic {
            spills: 2,
            spill_bytes: 1000,
            loads: 1,
            load_bytes: 400,
        };
        assert!(t
            .golden_summary()
            .contains("spill: spills=2 spill_bytes=1000 loads=1 load_bytes=400"));
        assert!(t.to_chrome_json().contains("\"spill_bytes\":1000"));
        let earlier = SpillTraffic {
            spills: 1,
            spill_bytes: 600,
            loads: 0,
            load_bytes: 0,
        };
        let delta = t.spill.since(&earlier);
        assert_eq!(delta.spills, 1);
        assert_eq!(delta.total_bytes(), 800);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = sample();
        t.steps[0].spans.push(OpSpan {
            op: "partition",
            label: "A \"quoted\"".into(),
            wire_bytes: 75,
            event_bytes: 100,
            ..OpSpan::default()
        });
        let j = t.to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.trim_end().ends_with('}'), "{j}");
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\\\"quoted\\\""), "escaping: {j}");
        assert!(j.contains("\"workers\":4"));
        // one step event per step + one span event
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn nnz_channel_totals_and_rendering() {
        let mut t = sample();
        t.steps[0].predicted_nnz = 120;
        t.steps[0].observed_nnz = 100;
        t.steps[0].density_class = "sparse";
        t.steps[2].predicted_nnz = 50;
        t.steps[2].observed_nnz = 50;
        t.steps[2].density_class = "dense";
        assert_eq!(t.predicted_nnz_total(), 170);
        assert_eq!(t.observed_nnz_total(), 150);
        let table = t.conformance_table();
        assert!(table.contains("pred_nnz"), "{table}");
        assert!(table.contains("sparse"), "{table}");
        let j = t.to_chrome_json();
        assert!(j.contains("\"predicted_nnz\":120"), "{j}");
        assert!(j.contains("\"observed_nnz\":100"), "{j}");
        assert!(j.contains("\"density_class\":\"dense\""), "{j}");
        // golden_summary format must not change with the nnz channel.
        assert!(t
            .golden_summary()
            .starts_with("workers=4 stages=2 steps=3\n"));
        assert!(!t.golden_summary().contains("nnz"));
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
