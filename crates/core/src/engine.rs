//! Plan execution on the simulated cluster (paper §5.2–§5.3).
//!
//! The engine walks the staged plan in order, mapping each step onto the
//! cluster primitives of `dmac-cluster`:
//!
//! | plan step | runtime |
//! |---|---|
//! | `partition` | metered all-to-all shuffle |
//! | `broadcast` | metered one-to-all replication |
//! | `transpose` / `extract` / `reference` | local (free) |
//! | `compute` RMM1/RMM2 | communication-free local multiply |
//! | `compute` CPMM | per-worker partials + metered output shuffle |
//! | `compute` cell-wise / unary | scheme-aligned local work |
//! | `compute` reduce | local partials + driver combine |
//!
//! Around every step the engine snapshots the cluster's byte meter and
//! simulated clock, attributing the deltas to the step's *phase* (the
//! iteration tag), which yields the per-iteration accumulated curves of
//! Figure 6.
//!
//! ## Fault tolerance
//!
//! Every step executes under an attempt loop. When a step fails with
//! [`WorkerLost`](dmac_cluster::ClusterError::WorkerLost) — whether the
//! host died at a stage boundary, at primitive entry, or mid-replay — the
//! engine hands the failure to [`crate::recovery`]: the host is
//! decommissioned, lost state is rebuilt through plan lineage, and the
//! step is re-executed, all without caller intervention. Each loss
//! consumes one attempt from the [`RecoveryPolicy`] budget; exhausting it
//! surfaces the typed [`CoreError::RecoveryExhausted`]. The bytes and
//! simulated seconds spent on failed attempts and recovery are excluded
//! from the per-phase curves and reported separately in
//! [`ExecReport::recovery`] (they *are* included in the report's total
//! clock and ledger — failures cost real time).

use std::collections::HashMap;
use std::time::Instant;

use dmac_cluster::cluster::{CellOp, ReduceKind};
use dmac_cluster::{
    Cluster, ClusterError, CommStats, DistMatrix, PartitionScheme, SimClock, UnaryTileOp,
};
use dmac_lang::{BinOp, MatrixId, MatrixOrigin, OpKind, Program, ReduceOp, ScalarId, UnaryOp};
use dmac_matrix::BlockedMatrix;

use crate::error::{CoreError, Result};
use crate::plan::{FusedInstr, Plan, PlanStep};
use crate::recovery::{self, RecoveryPolicy, RecoveryStats};
use crate::stage;
use crate::trace::{StepTrace, Trace};

/// Per-phase (per-iteration) statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Measured local compute seconds (max-across-workers per step, summed).
    pub compute_sec: f64,
    /// Modelled network seconds.
    pub comm_sec: f64,
    /// Shuffle traffic in bytes.
    pub shuffle_bytes: u64,
    /// Broadcast traffic in bytes.
    pub broadcast_bytes: u64,
}

impl PhaseStats {
    /// Total simulated time of the phase.
    pub fn total_sec(&self) -> f64 {
        self.compute_sec + self.comm_sec
    }

    /// Total bytes moved in the phase.
    pub fn total_bytes(&self) -> u64 {
        self.shuffle_bytes + self.broadcast_bytes
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Full communication ledger of the run.
    pub comm: CommStats,
    /// Simulated clock: measured compute + modelled network time
    /// (including time lost to failures and recovery).
    pub sim: SimClock,
    /// Real wall-clock seconds the simulation took (all workers run
    /// sequentially in-process, so this exceeds `sim` on multi-worker
    /// configs).
    pub wall_sec: f64,
    /// Statistics per phase tag (index = phase); failure/recovery costs
    /// are excluded (see [`ExecReport::recovery`]).
    pub per_phase: Vec<PhaseStats>,
    /// Number of stages the plan was scheduled into.
    pub stage_count: usize,
    /// The planner's own communication estimate (cost-model units).
    pub planner_estimate: u64,
    /// What worker failures cost this run (zeroes on a healthy run).
    pub recovery: RecoveryStats,
    /// The flight-recorder trace: per-step spans, predicted vs actual
    /// cost-model bytes, per-worker traffic, buffer-pool counters.
    pub trace: Trace,
}

impl ExecReport {
    /// Simulated execution time (the paper's reported "execution time").
    pub fn sim_time_sec(&self) -> f64 {
        self.sim.total_sec()
    }

    /// Render the report as a JSON object: totals, per-phase series,
    /// recovery and buffer-pool counters, and the trace's byte totals.
    /// Used by the `dmac-serve` `Stats` response and the bench bins.
    pub fn to_json(&self) -> String {
        use dmac_cluster::json::{arr_of, JsonObj};
        let phases = arr_of(self.per_phase.iter().map(|p| {
            JsonObj::new()
                .f64("compute_sec", p.compute_sec)
                .f64("comm_sec", p.comm_sec)
                .u64("shuffle_bytes", p.shuffle_bytes)
                .u64("broadcast_bytes", p.broadcast_bytes)
                .build()
        }));
        JsonObj::new()
            .f64("sim_sec", self.sim.total_sec())
            .f64("compute_sec", self.sim.compute_sec())
            .f64("comm_sec", self.sim.comm_sec())
            .f64("wall_sec", self.wall_sec)
            .u64("stage_count", self.stage_count as u64)
            .u64("planner_estimate", self.planner_estimate)
            .u64("shuffle_bytes", self.comm.shuffle_bytes())
            .u64("broadcast_bytes", self.comm.broadcast_bytes())
            .u64("recovery_bytes", self.comm.recovery_bytes())
            .u64("retry_bytes", self.comm.retry_bytes())
            .raw("per_phase", &phases)
            .raw(
                "recovery",
                &JsonObj::new()
                    .u64("worker_failures", self.recovery.worker_failures as u64)
                    .u64("recovery_rounds", self.recovery.recovery_rounds as u64)
                    .u64("recovery_bytes", self.recovery.recovery_bytes)
                    .f64("recovery_sec", self.recovery.recovery_sec)
                    .build(),
            )
            .raw(
                "trace",
                &JsonObj::new()
                    .u64("steps", self.trace.steps.len() as u64)
                    .u64("predicted_bytes", self.trace.predicted_total())
                    .u64("actual_bytes", self.trace.actual_total())
                    .u64("wire_bytes", self.trace.wire_total())
                    .u64("transport_bytes", self.trace.transport_total())
                    .u64("recovery_wire_bytes", self.trace.recovery_wire_total())
                    .u64("predicted_nnz", self.trace.predicted_nnz_total())
                    .u64("observed_nnz", self.trace.observed_nnz_total())
                    .u64("spills", self.trace.spill.spills)
                    .u64("spill_bytes", self.trace.spill.spill_bytes)
                    .u64("loads", self.trace.spill.loads)
                    .u64("load_bytes", self.trace.spill.load_bytes)
                    .u64("peak_resident_bytes", self.trace.peak_resident())
                    .build(),
            )
            .raw(
                "step_nnz",
                &arr_of(self.trace.steps.iter().map(|s| {
                    JsonObj::new()
                        .u64("step", s.step as u64)
                        .u64("predicted_nnz", s.predicted_nnz)
                        .u64("observed_nnz", s.observed_nnz)
                        .str("density_class", s.density_class)
                        .u64("resident_bytes", s.resident_bytes)
                        .build()
                })),
            )
            .raw(
                "pool",
                &JsonObj::new()
                    .u64("reused", self.trace.pool.reused as u64)
                    .u64("allocated", self.trace.pool.allocated as u64)
                    .u64("returned", self.trace.pool.returned as u64)
                    .u64("dropped", self.trace.pool.dropped as u64)
                    .build(),
            )
            .build()
    }
}

/// Everything a run produces besides the report.
#[derive(Debug, Default)]
pub struct RunOutputs {
    /// Values of output nodes, keyed by program matrix id.
    pub matrices: HashMap<MatrixId, DistMatrix>,
    /// Values to persist into the session environment, keyed by name.
    pub stored: HashMap<String, DistMatrix>,
    /// All reduction results.
    pub scalars: HashMap<ScalarId, f64>,
    /// Best materialised placement of each *load* input (Spark-style RDD
    /// caching): if a source was repartitioned to a Row/Column scheme
    /// during the run, the session keeps that copy so later programs
    /// start from it (the cross-program half of dependency exploitation).
    pub cached_inputs: HashMap<MatrixId, DistMatrix>,
}

/// Deterministic pseudo-random dense entries for `RandomMatrix` inputs
/// (SplitMix64 over the cell coordinates — no external RNG dependency).
pub fn random_cell(seed: u64, matrix: MatrixId, i: usize, j: usize) -> f64 {
    let mut z = seed
        .wrapping_add((matrix as u64) << 48)
        .wrapping_add((i as u64) << 24)
        .wrapping_add(j as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Everything immutable a run (and its recovery) needs: the program, the
/// plan, durable input bindings, and the lineage maps derived from the
/// plan (which step produces each node; which nodes are sources).
pub(crate) struct ExecCtx<'a> {
    pub program: &'a Program,
    pub plan: &'a Plan,
    pub bindings: &'a HashMap<MatrixId, DistMatrix>,
    pub block_size: usize,
    pub seed: u64,
    /// `producer[node]` = index of the plan step producing `node`
    /// (`None` for source nodes).
    pub producer: Vec<Option<usize>>,
    /// Source node → matrix id (durable lineage roots).
    pub sources: HashMap<usize, MatrixId>,
    /// Stage of each step (for recovery's re-executed-stage accounting).
    pub step_stage: Vec<usize>,
}

/// Materialise a source node: clone its durable binding (`load`) or
/// regenerate it from the recorded seed (`random`). During recovery the
/// re-read of a binding is metered as [`CommKind::Recovery`]
/// (dmac_cluster) traffic — durable storage is remote; regeneration is
/// free.
pub(crate) fn seed_source(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    node: usize,
    mid: MatrixId,
    recovering: bool,
) -> Result<DistMatrix> {
    let decl = ctx.program.decl(mid)?;
    let dist = match decl.origin {
        MatrixOrigin::Load => {
            let d = ctx
                .bindings
                .get(&mid)
                .cloned()
                .ok_or_else(|| CoreError::Unbound(decl.name.clone()))?;
            if recovering {
                cluster.charge_recovery(format!("refetch({})", decl.name), d.logical_bytes())?;
            }
            d
        }
        MatrixOrigin::Random => {
            let m = BlockedMatrix::from_fn(
                decl.stats.rows,
                decl.stats.cols,
                ctx.block_size,
                |i, j| random_cell(ctx.seed, mid, i, j),
            )?;
            cluster.load(&m, ctx.plan.nodes[node].scheme)
        }
        MatrixOrigin::Op(_) => {
            return Err(CoreError::Engine(format!(
                "source node for op-produced matrix {mid}"
            )))
        }
    };
    if dist.rows() != decl.stats.rows || dist.cols() != decl.stats.cols {
        return Err(CoreError::Engine(format!(
            "binding for '{}' is {}x{}, declared {}x{}",
            decl.name,
            dist.rows(),
            dist.cols(),
            decl.stats.rows,
            decl.stats.cols
        )));
    }
    Ok(dist)
}

/// Execute one plan step against the current values. State is only
/// assigned on success, so a step that fails mid-flight (worker loss,
/// exhausted send retries) can be re-executed after recovery.
pub(crate) fn exec_step(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    step_idx: usize,
    values: &mut [Option<DistMatrix>],
    scalars: &mut HashMap<ScalarId, f64>,
) -> Result<()> {
    let plan = ctx.plan;
    let take = |v: &[Option<DistMatrix>], n: usize| -> Result<DistMatrix> {
        v[n].clone()
            .ok_or_else(|| CoreError::Engine(format!("node {n} used before definition")))
    };
    match &plan.steps[step_idx] {
        PlanStep::Partition { src, out, .. } => {
            let m = take(values, *src)?;
            let target = plan.nodes[*out].scheme;
            let label = format!("m{}", plan.nodes[*out].matrix);
            values[*out] = Some(cluster.repartition(&m, target, &label)?);
        }
        PlanStep::Broadcast { src, out, .. } => {
            let m = take(values, *src)?;
            let label = format!("m{}", plan.nodes[*out].matrix);
            values[*out] = Some(cluster.broadcast(&m, &label)?);
        }
        PlanStep::Transpose { src, out, .. } => {
            let m = take(values, *src)?;
            values[*out] = Some(cluster.transpose(&m)?);
        }
        PlanStep::Extract { src, out, .. } => {
            let m = take(values, *src)?;
            values[*out] = Some(cluster.extract(&m, plan.nodes[*out].scheme)?);
        }
        PlanStep::Reference { src, out, .. } => {
            values[*out] = Some(take(values, *src)?);
        }
        PlanStep::Free { node, .. } => {
            // Release the node's value. The transport is only told to drop
            // shards when no other live node aliases the same distributed
            // value (Reference steps clone the handle) and the value is not
            // a durable binding the session still owns. `take` first makes
            // the step idempotent under post-failure re-execution.
            if let Some(m) = values[*node].take() {
                let rid = m.rid();
                let aliased = values
                    .iter()
                    .any(|v| v.as_ref().is_some_and(|x| x.rid() == rid));
                let bound_source = ctx
                    .sources
                    .get(node)
                    .is_some_and(|mid| ctx.bindings.contains_key(mid));
                if !aliased && !bound_source {
                    cluster.free(&m)?;
                }
            }
        }
        PlanStep::Compute {
            op,
            strategy,
            inputs,
            out,
            out_scalar,
            ..
        } => {
            let operator = &ctx.program.ops()[*op];
            let declared = out.map(|n| plan.nodes[n].scheme);
            let result = run_compute(
                cluster,
                &operator.kind,
                *strategy,
                inputs,
                declared,
                values,
                scalars,
            )?;
            match result {
                ComputeResult::Matrix(mut m) => {
                    let node = *out.as_ref().ok_or_else(|| {
                        CoreError::Engine(format!("operator {op} produced an unexpected matrix"))
                    })?;
                    // SystemML-S stores results back into the hash
                    // cache; reconcile the physical scheme with the
                    // plan node's declared scheme.
                    if plan.nodes[node].scheme == PartitionScheme::Hash
                        && m.scheme() != PartitionScheme::Hash
                    {
                        m = cluster.rehash(&m)?;
                    }
                    values[node] = Some(m);
                }
                ComputeResult::Scalar(v) => {
                    let sid = out_scalar.ok_or_else(|| {
                        CoreError::Engine(format!("operator {op} produced an unexpected scalar"))
                    })?;
                    scalars.insert(sid, v);
                }
            }
        }
        PlanStep::FusedCellWise {
            ops,
            prog,
            inputs,
            out,
            ..
        } => {
            // Resolve the symbolic scalar expressions now (the plan keeps
            // them symbolic so lineage replay re-reads the live values).
            let scalar_env = |id: ScalarId| -> f64 { *scalars.get(&id).unwrap_or(&f64::NAN) };
            let kernel: Vec<dmac_matrix::FusedOp> = prog
                .iter()
                .map(|instr| match instr {
                    FusedInstr::Leaf(i) => dmac_matrix::FusedOp::Leaf(*i),
                    FusedInstr::Add => dmac_matrix::FusedOp::Add,
                    FusedInstr::Sub => dmac_matrix::FusedOp::Sub,
                    FusedInstr::CellMul => dmac_matrix::FusedOp::CellMul,
                    FusedInstr::CellDiv => dmac_matrix::FusedOp::CellDiv,
                    FusedInstr::Scale(e) => dmac_matrix::FusedOp::Scale(e.eval(&scalar_env)),
                    FusedInstr::AddScalar(e) => {
                        dmac_matrix::FusedOp::AddScalar(e.eval(&scalar_env))
                    }
                })
                .collect();
            let operands = inputs
                .iter()
                .map(|&n| take(values, n))
                .collect::<Result<Vec<_>>>()?;
            let refs: Vec<&DistMatrix> = operands.iter().collect();
            // The span label names the subsumed operators.
            let subsumed: Vec<&str> = ops
                .iter()
                .map(|&o| match &ctx.program.ops()[o].kind {
                    OpKind::Binary { op, .. } => op.name(),
                    OpKind::Unary { op, .. } => op.name(),
                    OpKind::Reduce { .. } => "reduce",
                })
                .collect();
            let label = subsumed.join("+");
            values[*out] = Some(cluster.fused_cellwise(&refs, &kernel, &label)?);
        }
    }
    Ok(())
}

/// Extract the lost host from a recoverable error, if it is one.
fn worker_lost(e: &CoreError) -> Option<usize> {
    match e {
        CoreError::Cluster(ClusterError::WorkerLost(host)) => Some(*host),
        _ => None,
    }
}

/// Snapshot of every byte counter, for attributing deltas.
#[derive(Clone, Copy)]
struct CommSnap {
    shuffle: u64,
    broadcast: u64,
    recovery: u64,
    retry: u64,
}

impl CommSnap {
    fn take(cluster: &Cluster) -> CommSnap {
        let c = cluster.comm();
        CommSnap {
            shuffle: c.shuffle_bytes(),
            broadcast: c.broadcast_bytes(),
            recovery: c.recovery_bytes(),
            retry: c.retry_bytes(),
        }
    }

    fn all(&self) -> u64 {
        self.shuffle + self.broadcast + self.recovery + self.retry
    }
}

/// Execute `plan` for `program` on `cluster`.
///
/// `bindings` supplies a distributed matrix for every `load` declaration
/// (by matrix id); `random` declarations are generated deterministically
/// from `seed`. The cluster's meters are reset at entry. Worker losses
/// are recovered transparently within `policy`'s attempt budget.
#[allow(clippy::too_many_arguments)] // flat run-context; Session is the ergonomic entry point
pub fn execute(
    cluster: &mut Cluster,
    program: &Program,
    plan: &Plan,
    bindings: &HashMap<MatrixId, DistMatrix>,
    block_size: usize,
    seed: u64,
    planner_estimate: u64,
    policy: &RecoveryPolicy,
    store: Option<&crate::store::SharedStore>,
) -> Result<(ExecReport, RunOutputs)> {
    cluster.reset_meters();
    let wall_start = Instant::now();
    let stages = stage::schedule(plan);

    let mut producer: Vec<Option<usize>> = vec![None; plan.nodes.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        if let Some(out) = step.out_node() {
            producer[out] = Some(i);
        }
    }
    let ctx = ExecCtx {
        program,
        plan,
        bindings,
        block_size,
        seed,
        producer,
        sources: plan.sources.iter().copied().collect(),
        step_stage: stages.step_stage.clone(),
    };

    let mut values: Vec<Option<DistMatrix>> = vec![None; plan.nodes.len()];
    let mut scalars: HashMap<ScalarId, f64> = HashMap::new();

    // Seed source nodes.
    for &(node, mid) in &plan.sources {
        values[node] = Some(seed_source(cluster, &ctx, node, mid, false)?);
    }

    // Liveness is the *plan's* job: the planner splices explicit `Free`
    // steps at each intermediate's last use (see `crate::liveness`), so
    // the engine releases exactly what the certificate says, when it says.
    // `last_use`/`keep` are still derived here for recovery, which must
    // re-drop values lineage replay resurrects (a node's last use includes
    // its own `Free` step, so the two mechanisms compose).
    let mut last_use = vec![usize::MAX; plan.nodes.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        for n in step.in_nodes() {
            last_use[n] = i;
        }
    }
    let mut keep = vec![false; plan.nodes.len()];
    for (node, _, _) in &plan.outputs {
        keep[*node] = true;
    }
    // Nodes eligible for input-placement caching must survive to the end.
    for &(_, mid) in &plan.sources {
        if bindings.contains_key(&mid) {
            for (n, node) in plan.nodes.iter().enumerate() {
                if node.matrix == mid && !node.transposed && node.scheme.is_rc() {
                    keep[n] = true;
                    break;
                }
            }
        }
    }

    let mut per_phase: Vec<PhaseStats> = Vec::new();
    let mut step_traces: Vec<StepTrace> = Vec::with_capacity(plan.steps.len());
    let mut stats = RecoveryStats::default();
    let mut attempts_left = policy.max_attempts;
    let mut current_stage = usize::MAX;
    // Resident metering: logical bytes per distributed value, cached by
    // rid so each value is priced once per run.
    let mut rid_bytes: HashMap<u64, u64> = HashMap::new();
    let mut last_pressure = 0u64;

    for (step_idx, step) in plan.steps.iter().enumerate() {
        let stage = stages.step_stage[step_idx];
        if stage != current_stage {
            current_stage = stage;
            // Stage boundary: the fault plan may take a host down here.
            // The loss is detected by the next primitive's liveness check.
            cluster.begin_stage(stage);
        }

        // Flight recorder: remember where this step's spans start and
        // when (simulated clock) the step began.
        let span_from = cluster.span_count();
        let sim_start = cluster.clock().total_sec();

        let mut comm0 = CommSnap::take(cluster);
        let mut clock0 = *cluster.clock();
        loop {
            match exec_step(cluster, &ctx, step_idx, &mut values, &mut scalars) {
                Ok(()) => break,
                Err(e) => {
                    let Some(mut dead) = worker_lost(&e) else {
                        return Err(e);
                    };
                    // The failed attempt's spans (recorded clean) belong
                    // to recovery, not to the steady-state run; re-flag
                    // them and record everything until the retry as
                    // recovery traffic.
                    cluster.mark_spans_recovery(span_from);
                    cluster.set_recovery_mode(true);
                    // Recover, tolerating further losses mid-recovery as
                    // long as the attempt budget holds.
                    loop {
                        stats.worker_failures += 1;
                        if attempts_left == 0 {
                            return Err(CoreError::RecoveryExhausted {
                                worker: dead,
                                attempts: policy.max_attempts,
                            });
                        }
                        attempts_left -= 1;
                        match recovery::recover(
                            cluster,
                            &ctx,
                            &mut values,
                            &mut scalars,
                            step_idx,
                            dead,
                            &last_use,
                            &keep,
                            &mut stats,
                        ) {
                            Ok(()) => break,
                            Err(e2) => match worker_lost(&e2) {
                                Some(h) => dead = h,
                                None => return Err(e2),
                            },
                        }
                    }
                    stats.recovery_rounds += 1;
                    cluster.set_recovery_mode(false);
                    // Charge the failed attempt + recovery work to the
                    // recovery meters, then re-baseline so the retried
                    // step's phase attribution stays clean.
                    let snap = CommSnap::take(cluster);
                    stats.recovery_bytes += snap.all() - comm0.all();
                    stats.recovery_sec += cluster.clock().total_sec() - clock0.total_sec();
                    comm0 = snap;
                    clock0 = *cluster.clock();
                }
            }
        }

        // Assemble the step's flight-recorder record from the spans the
        // cluster primitives emitted while it was in flight (recovery
        // replays of earlier steps included, flagged).
        let spans = cluster.spans()[span_from..].to_vec();
        let (kind, label) = step_identity(plan, program, step);
        // nnz channel: the estimator's prediction next to what the step
        // actually materialised (read before liveness releases the value).
        let (predicted_nnz, observed_nnz, density_class) = match step.out_node() {
            Some(out) => {
                let predicted = plan.step_predicted_nnz(step_idx);
                let observed = values[out].as_ref().map(|m| m.nnz() as u64).unwrap_or(0);
                let decl = program.decl(plan.nodes[out].matrix)?;
                let class =
                    crate::DensityClass::classify(predicted, decl.stats.rows, decl.stats.cols)
                        .as_str();
                (predicted, observed, class)
            }
            None => (0, 0, ""),
        };
        // Meter residency after the step (and any release it performed):
        // logical bytes of all live values, each distributed value counted
        // once however many nodes alias it. The certificate prices nodes
        // individually, so it dominates this by construction (V21).
        let resident_bytes = {
            let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
            let mut sum = 0u64;
            for v in values.iter().flatten() {
                if seen.insert(v.rid()) {
                    sum += *rid_bytes
                        .entry(v.rid())
                        .or_insert_with(|| v.logical_bytes());
                }
            }
            sum
        };
        // Charge the footprint against the shared store's byte budget so
        // a capacity-bounded store displaces cold entries *during* the
        // run instead of over-committing RAM. Early `Free` steps lower
        // this curve, which is exactly how the liveness pass converts a
        // certified peak into fewer spills (the session zeroes the
        // pressure once the run's values are released).
        if let Some(store) = store {
            if resident_bytes != last_pressure {
                last_pressure = resident_bytes;
                store.set_external_pressure(resident_bytes)?;
            }
        }
        step_traces.push(StepTrace {
            step: step_idx,
            stage,
            phase: step.phase(),
            kind,
            label,
            predicted_bytes: plan.predicted_bytes(step_idx),
            actual_bytes: spans
                .iter()
                .filter(|s| !s.recovery)
                .map(|s| s.event_bytes)
                .sum(),
            wire_bytes: spans
                .iter()
                .filter(|s| !s.recovery)
                .map(|s| s.wire_bytes)
                .sum(),
            transport_bytes: spans
                .iter()
                .filter(|s| !s.recovery)
                .map(|s| s.transport_bytes)
                .sum(),
            recovery_wire_bytes: spans
                .iter()
                .filter(|s| s.recovery)
                .map(|s| s.wire_bytes)
                .sum(),
            predicted_nnz,
            observed_nnz,
            density_class,
            resident_bytes,
            sim_start_sec: sim_start,
            sim_end_sec: cluster.clock().total_sec(),
            spans,
        });

        // Attribute the deltas to the step's phase.
        let phase = step.phase();
        if per_phase.len() <= phase {
            per_phase.resize(phase + 1, PhaseStats::default());
        }
        let p = &mut per_phase[phase];
        let snap = CommSnap::take(cluster);
        p.shuffle_bytes += snap.shuffle - comm0.shuffle;
        p.broadcast_bytes += snap.broadcast - comm0.broadcast;
        p.compute_sec += cluster.clock().compute_sec() - clock0.compute_sec();
        p.comm_sec += cluster.clock().comm_sec() - clock0.comm_sec();
    }

    // Collect outputs.
    let take = |v: &Vec<Option<DistMatrix>>, n: usize| -> Result<DistMatrix> {
        v[n].clone()
            .ok_or_else(|| CoreError::Engine(format!("node {n} used before definition")))
    };
    let mut outputs = RunOutputs {
        scalars,
        ..Default::default()
    };
    // Cache improved placements of load inputs: prefer the first
    // untransposed Row/Column materialisation of each source matrix.
    for &(_, mid) in &plan.sources {
        if !bindings.contains_key(&mid) {
            continue; // randoms are regenerated per run
        }
        for (n, node) in plan.nodes.iter().enumerate() {
            if node.matrix == mid && !node.transposed && node.scheme.is_rc() {
                if let Some(v) = &values[n] {
                    outputs.cached_inputs.insert(mid, v.clone());
                    break;
                }
            }
        }
    }
    for (node, mid, name) in &plan.outputs {
        let m = take(&values, *node)?;
        outputs.matrices.insert(*mid, m.clone());
        if let Some(name) = name {
            outputs.stored.insert(name.clone(), m);
        }
    }

    let report = ExecReport {
        comm: cluster.comm().clone(),
        sim: *cluster.clock(),
        wall_sec: wall_start.elapsed().as_secs_f64(),
        per_phase,
        stage_count: stages.count,
        planner_estimate,
        recovery: stats,
        trace: Trace {
            workers: cluster.workers(),
            stage_count: stages.count,
            steps: step_traces,
            pool: cluster.pool_stats(),
            // The session fills this in after absorbing outputs; the
            // engine itself never touches the store's disk tier.
            spill: Default::default(),
        },
    };
    Ok((report, outputs))
}

/// Flight-recorder identity of a plan step: its kind tag (extended
/// operator name or compute strategy) and a human-readable label.
fn step_identity(plan: &Plan, program: &Program, step: &PlanStep) -> (String, String) {
    match step {
        PlanStep::Partition { out, .. } => ("partition".into(), plan.node_label(program, *out)),
        PlanStep::Broadcast { out, .. } => ("broadcast".into(), plan.node_label(program, *out)),
        PlanStep::Transpose { out, .. } => ("transpose".into(), plan.node_label(program, *out)),
        PlanStep::Extract { out, .. } => ("extract".into(), plan.node_label(program, *out)),
        PlanStep::Reference { out, .. } => ("reference".into(), plan.node_label(program, *out)),
        PlanStep::Compute {
            strategy,
            out,
            out_scalar,
            ..
        } => {
            let label = match (out, out_scalar) {
                (Some(n), _) => plan.node_label(program, *n),
                (None, Some(s)) => format!("scalar s{}", s),
                (None, None) => String::new(),
            };
            (strategy.name(), label)
        }
        PlanStep::Free { node, .. } => ("free".into(), plan.node_label(program, *node)),
        PlanStep::FusedCellWise { ops, out, .. } => (
            format!("Fused({})", ops.len()),
            plan.node_label(program, *out),
        ),
    }
}

enum ComputeResult {
    Matrix(DistMatrix),
    Scalar(f64),
}

fn run_compute(
    cluster: &mut Cluster,
    kind: &OpKind,
    strategy: crate::strategy::Strategy,
    inputs: &[usize],
    declared_scheme: Option<PartitionScheme>,
    values: &[Option<DistMatrix>],
    scalars: &HashMap<ScalarId, f64>,
) -> Result<ComputeResult> {
    use crate::strategy::Strategy as S;
    let val = |n: usize| -> Result<DistMatrix> {
        values[n]
            .clone()
            .ok_or_else(|| CoreError::Engine(format!("node {n} used before definition")))
    };
    let scalar_env = |id: ScalarId| -> f64 { *scalars.get(&id).unwrap_or(&f64::NAN) };

    match (kind, strategy) {
        (
            OpKind::Binary {
                op: BinOp::MatMul, ..
            },
            S::Rmm1,
        ) => Ok(ComputeResult::Matrix(
            cluster.rmm1(&val(inputs[0])?, &val(inputs[1])?)?,
        )),
        (
            OpKind::Binary {
                op: BinOp::MatMul, ..
            },
            S::Rmm2,
        ) => Ok(ComputeResult::Matrix(
            cluster.rmm2(&val(inputs[0])?, &val(inputs[1])?)?,
        )),
        (
            OpKind::Binary {
                op: BinOp::MatMul, ..
            },
            S::Cpmm,
        ) => {
            // The output scheme was pinned by Re-assignment (or finalised
            // to Row); for a SystemML-S (Hash) output, aggregate to Row and
            // rehash afterwards.
            let declared = declared_scheme
                .ok_or_else(|| CoreError::Engine("cpmm without output node".into()))?;
            let target = if declared.is_rc() {
                declared
            } else {
                PartitionScheme::Row
            };
            Ok(ComputeResult::Matrix(cluster.cpmm(
                &val(inputs[0])?,
                &val(inputs[1])?,
                target,
            )?))
        }
        (OpKind::Binary { op, .. }, S::CellAligned(_)) => {
            let cell = match op {
                BinOp::Add => CellOp::Add,
                BinOp::Sub => CellOp::Sub,
                BinOp::CellMul => CellOp::Mul,
                BinOp::CellDiv => CellOp::Div,
                BinOp::MatMul => return Err(CoreError::Engine("matmul with cell strategy".into())),
            };
            Ok(ComputeResult::Matrix(cluster.cellwise(
                &val(inputs[0])?,
                &val(inputs[1])?,
                cell,
            )?))
        }
        (OpKind::Unary { op, .. }, S::UnaryLocal) => {
            let m = val(inputs[0])?;
            // The named-operator form (not a closure) keeps scalar maps
            // mirrorable on physical transport backends.
            let tile_op = match op {
                UnaryOp::Scale(s) => UnaryTileOp::Scale(s.eval(&scalar_env)),
                UnaryOp::AddScalar(s) => UnaryTileOp::AddScalar(s.eval(&scalar_env)),
            };
            Ok(ComputeResult::Matrix(cluster.unary(&m, tile_op)?))
        }
        (OpKind::Reduce { op, .. }, S::ReduceLocal) => {
            let m = val(inputs[0])?;
            let v = match op {
                ReduceOp::Sum | ReduceOp::Value => cluster.reduce(&m, ReduceKind::Sum)?,
                ReduceOp::Norm2 => cluster.reduce(&m, ReduceKind::Norm2)?,
            };
            Ok(ComputeResult::Scalar(v))
        }
        (k, s) => Err(CoreError::Engine(format!(
            "strategy {s:?} incompatible with operator {k:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_report_json_carries_the_nnz_channel() {
        let mut p = dmac_lang::Program::new();
        let a = p.load("A", 8, 8, 1.0);
        let b = p.add(a, a).unwrap();
        p.output(b);
        let mut s = crate::Session::builder().workers(2).block_size(4).build();
        let m = dmac_matrix::BlockedMatrix::from_fn(8, 8, 4, |i, j| (i + j) as f64).unwrap();
        s.bind("A", m).unwrap();
        let json = s.run(&p).unwrap().to_json();
        for needle in [
            "\"predicted_nnz\":",
            "\"observed_nnz\":",
            "\"step_nnz\":[",
            "\"density_class\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn random_cell_is_deterministic_and_uniform_ish() {
        let a = random_cell(42, 1, 3, 4);
        let b = random_cell(42, 1, 3, 4);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        assert_ne!(random_cell(42, 1, 3, 5), a);
        assert_ne!(random_cell(43, 1, 3, 4), a);
        // crude uniformity: mean of many samples near 0.5
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| random_cell(7, 0, i, i * 31 + 1))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
