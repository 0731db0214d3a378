//! The simulated cluster: configuration, metering, failure injection, and
//! the communication primitives (`repartition`, `broadcast`) plus the three
//! distributed multiplication strategies (RMM1, RMM2, CPMM) and the
//! scheme-aligned cell-wise operators.
//!
//! ## Logical workers vs physical hosts
//!
//! The cluster separates *logical workers* (the `N` partitions every
//! [`DistMatrix`] and compute loop is keyed on) from *physical hosts* (the
//! machines that can die). Initially worker `w` runs on host `w`; when a
//! host is [`Cluster::decommission`]ed after a failure, its logical workers
//! are remapped round-robin onto the survivors. Because every numeric loop
//! stays keyed on logical workers, the f64 summation order — and therefore
//! the bit pattern of every result — is identical before and after
//! recovery; only the *cost model* changes (surviving hosts now run more
//! than one logical worker, so their compute time adds up).
//!
//! ## Fault handling
//!
//! Every primitive enters through `op_entry`, which checks host liveness
//! *before* any scheme or shape validation — a dead worker always surfaces
//! as [`ClusterError::WorkerLost`], never as a misleading validation error
//! — and then gives the seeded [`FaultInjector`] a chance to kill a host.
//! Metered transfers go through [`Cluster::send`], which retries transient
//! failures up to the plan's attempt budget, charging wasted bytes to the
//! retry meter.

// Worker loops index several parallel per-worker structures by id; an
// iterator would obscure the symmetry.
#![allow(clippy::needless_range_loop)]
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dmac_matrix::exec::{run_tasks, PoolStats, ResultBufferPool};
use dmac_matrix::{Block, BlockedMatrix, CscBlock, DenseBlock};

use crate::comm::{CommKind, CommStats, NetworkModel, SimClock};
use crate::dist::{DistMatrix, GridMeta};
use crate::error::{ClusterError, Result};
use crate::fault::{FaultEvent, FaultInjector, FaultPlan};
use crate::kernels;
use crate::partition::PartitionScheme;
use crate::trace::{OpSpan, TraceBuffer};
use crate::transport::{
    MoveItem, PartialDesc, SimTransport, TileTransform, Transport, TransportStats, UnaryTileOp,
};

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// `N`/`K`: number of workers.
    pub workers: usize,
    /// `L`: local threads per worker.
    pub local_threads: usize,
    /// Network model converting metered bytes into simulated seconds.
    pub network: NetworkModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            local_threads: 8,
            network: NetworkModel::default(),
        }
    }
}

/// A simulated cluster: `N` logical workers, a byte meter, and a simulated
/// clock. All distributed operators live here as methods.
///
/// ```
/// use dmac_cluster::{Cluster, ClusterConfig, PartitionScheme};
/// use dmac_matrix::BlockedMatrix;
///
/// let mut cl = Cluster::new(ClusterConfig::default());
/// let m = BlockedMatrix::from_fn(8, 8, 4, |i, j| (i * 8 + j) as f64).unwrap();
/// let row = cl.load(&m, PartitionScheme::Row);          // free initial load
/// let col = cl.repartition(&row, PartitionScheme::Col, "m").unwrap();
/// assert!(cl.comm().shuffle_bytes() > 0);               // metered!
/// assert_eq!(col.to_blocked().unwrap().to_dense(), m.to_dense());
/// ```
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    comm: CommStats,
    clock: SimClock,
    /// Hosts currently down (includes every decommissioned host).
    failed: HashSet<usize>,
    /// Hosts permanently removed by recovery; they can never heal.
    decommissioned: HashSet<usize>,
    /// `assignment[w]` is the physical host running logical worker `w`.
    assignment: Vec<usize>,
    faults: FaultInjector,
    pool: ResultBufferPool,
    tracer: TraceBuffer,
    /// Physical execution backend mirroring every primitive (see
    /// [`crate::transport`]). The engine always consumes the in-process
    /// oracle's values; the transport's state is shadow state proven
    /// byte-equal after each op.
    transport: Box<dyn Transport>,
}

/// Snapshot taken when a primitive starts, closed into an [`OpSpan`].
struct SpanStart {
    sim0: f64,
    wall0: Instant,
    pool0: PoolStats,
}

impl Cluster {
    /// Build a cluster from configuration.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster {
            config,
            comm: CommStats::default(),
            clock: SimClock::default(),
            failed: HashSet::new(),
            decommissioned: HashSet::new(),
            assignment: (0..config.workers).collect(),
            faults: FaultInjector::disabled(),
            pool: ResultBufferPool::new(2 * config.local_threads),
            tracer: TraceBuffer::new(),
            transport: Box::new(SimTransport::new()),
        }
    }

    /// Build a cluster with a fault plan installed.
    pub fn with_faults(config: ClusterConfig, plan: FaultPlan) -> Cluster {
        let mut cl = Cluster::new(config);
        cl.set_fault_plan(plan);
        cl
    }

    /// Build a cluster over an explicit transport backend (e.g. a real
    /// multi-process [`crate::transport::socket::SocketTransport`]).
    pub fn with_transport(config: ClusterConfig, transport: Box<dyn Transport>) -> Cluster {
        let mut cl = Cluster::new(config);
        cl.transport = transport;
        let assignment = cl.assignment.clone();
        cl.transport.set_assignment(&assignment);
        cl
    }

    /// The transport backend's cumulative counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Name of the active transport backend (`"sim"`, `"socket"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Whether the backend runs real worker processes.
    pub fn transport_is_physical(&self) -> bool {
        self.transport.is_physical()
    }

    /// Gather `m` from the transport's *physical* stores, bypassing the
    /// oracle — the end-to-end proof that worker state matches. `None`
    /// on the in-process backend, which has no stores of its own.
    pub fn gather_physical(&mut self, m: &DistMatrix) -> Result<Option<DistMatrix>> {
        self.transport.gather(m)
    }

    /// Test hook: hard-kill a host's worker process without marking it
    /// dead (detection must flow through the liveness machinery).
    /// Returns false on backends with no processes.
    pub fn debug_kill_host(&mut self, host: usize) -> bool {
        self.transport.debug_kill_host(host)
    }

    /// Gracefully stop the transport's worker processes. Errors if a
    /// child had to be killed (leak detection for smoke gates).
    pub fn shutdown_transport(&mut self) -> Result<()> {
        self.transport.shutdown()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of logical workers (the paper's `N`). Stable across host
    /// failures — recovery remaps logical workers, it never shrinks `N`.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The communication ledger so far.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// The simulated clock so far.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Reset meters (between benchmark iterations). Drops recorded spans;
    /// buffer-pool statistics are cumulative and survive (the pool itself
    /// is a process-lifetime resource).
    pub fn reset_meters(&mut self) {
        self.comm.clear();
        self.clock = SimClock::default();
        self.tracer.clear();
    }

    /// Flight-recorder spans recorded since the last [`Cluster::reset_meters`].
    pub fn spans(&self) -> &[OpSpan] {
        self.tracer.spans()
    }

    /// Number of spans recorded so far (cheap high-water mark for callers
    /// that want to slice the buffer per plan step).
    pub fn span_count(&self) -> usize {
        self.tracer.len()
    }

    /// Re-flag every span from index `from` onward as recovery traffic
    /// (a failed attempt's partial work is superseded by recovery).
    pub fn mark_spans_recovery(&mut self, from: usize) {
        self.tracer.mark_recovery_from(from);
    }

    /// Enter / leave recovery mode: spans recorded while the flag is set
    /// are attributed to recovery, not steady-state execution.
    pub fn set_recovery_mode(&mut self, on: bool) {
        self.tracer.set_recovery_mode(on);
    }

    /// Cumulative result-buffer-pool statistics (hits = `reused`,
    /// misses = `allocated`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Record an externally-measured span (used by accounting-level paths
    /// such as the 2D/SUMMA comparison module, which charge aggregate
    /// traffic rather than running a metered primitive).
    pub fn record_span(
        &mut self,
        op: &'static str,
        label: impl Into<String>,
        wire_bytes: u64,
        event_bytes: u64,
        blocks: usize,
    ) {
        let now = self.clock.total_sec();
        let n = self.config.workers;
        self.tracer.record(OpSpan {
            op,
            label: label.into(),
            start_sec: now,
            end_sec: now,
            wire_bytes,
            event_bytes,
            sent: vec![0; n],
            received: vec![0; n],
            blocks,
            ..OpSpan::default()
        });
    }

    /// Open a span at the current clocks / pool counters.
    fn span_open(&self) -> SpanStart {
        SpanStart {
            sim0: self.clock.total_sec(),
            wall0: Instant::now(),
            pool0: self.pool.stats(),
        }
    }

    /// Close a span opened by [`Cluster::span_open`] and record it.
    #[allow(clippy::too_many_arguments)]
    fn span_close(
        &mut self,
        st: SpanStart,
        op: &'static str,
        label: String,
        wire_bytes: u64,
        event_bytes: u64,
        io: Option<(Vec<u64>, Vec<u64>)>,
        blocks: usize,
    ) {
        let p1 = self.pool.stats();
        let n = self.config.workers;
        let (sent, received) = io.unwrap_or_else(|| (vec![0; n], vec![0; n]));
        self.tracer.record(OpSpan {
            op,
            label,
            start_sec: st.sim0,
            end_sec: self.clock.total_sec(),
            wall_sec: st.wall0.elapsed().as_secs_f64(),
            wire_bytes,
            transport_bytes: 0,
            event_bytes,
            sent,
            received,
            blocks,
            pool_reused: p1.reused.saturating_sub(st.pool0.reused),
            pool_allocated: p1.allocated.saturating_sub(st.pool0.allocated),
            recovery: false,
            out_nnz: 0,
        });
    }

    /// Install (or replace) a fault plan; resets the injector's stream and
    /// log.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Every fault injected so far, in order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.log()
    }

    /// The seeded injector (plan inspection, kill counts).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Logical-worker → physical-host assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The physical host currently running logical worker `w`.
    pub fn host_of(&self, w: usize) -> usize {
        self.assignment[w]
    }

    /// Hosts that are up (neither failed nor decommissioned), ascending.
    pub fn alive_hosts(&self) -> Vec<usize> {
        (0..self.config.workers)
            .filter(|h| !self.failed.contains(h))
            .collect()
    }

    /// Hosts permanently removed by recovery, ascending.
    pub fn decommissioned_hosts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.decommissioned.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of distinct live hosts carrying logical workers (the real
    /// parallelism after remapping).
    fn host_parallelism(&self) -> usize {
        let distinct: HashSet<usize> = self.assignment.iter().copied().collect();
        distinct.len().max(1)
    }

    /// Mark a host as failed (failure injection for tests).
    pub fn fail_worker(&mut self, host: usize) {
        self.failed.insert(host);
    }

    /// Bring a failed host back. Decommissioned hosts are gone for good.
    pub fn heal_worker(&mut self, host: usize) {
        if !self.decommissioned.contains(&host) {
            self.failed.remove(&host);
        }
    }

    /// Error if the host running logical worker `w` is down.
    pub fn check_worker(&self, w: usize) -> Result<()> {
        let host = self.assignment[w];
        if self.failed.contains(&host) {
            Err(ClusterError::WorkerLost(host))
        } else {
            Ok(())
        }
    }

    fn check_all_workers(&self) -> Result<()> {
        for &host in &self.assignment {
            if self.failed.contains(&host) {
                return Err(ClusterError::WorkerLost(host));
            }
        }
        Ok(())
    }

    /// Uniform entry guard for every primitive: liveness is checked
    /// *before* any scheme/shape validation so a dead worker always
    /// surfaces as [`ClusterError::WorkerLost`] (the error the engine's
    /// recovery path understands), then the fault injector may take a host
    /// down at this op.
    fn op_entry(&mut self, op: &'static str) -> Result<()> {
        // Real backends detect death organically (closed connections,
        // stale heartbeats); fold those hosts into the same failure path
        // an injected fault uses.
        for host in self.transport.poll_liveness() {
            self.failed.insert(host);
        }
        self.check_all_workers()?;
        let alive = self.alive_hosts();
        if let Some(victim) = self.faults.draw_op_kill(op, &alive) {
            self.failed.insert(victim);
            return Err(ClusterError::WorkerLost(victim));
        }
        Ok(())
    }

    /// Notify the cluster that plan stage `stage` begins. The fault
    /// injector may kill a host here; the kill is detected by the next
    /// primitive's liveness check, exactly like an executor loss between
    /// Spark stages.
    pub fn begin_stage(&mut self, stage: usize) {
        let alive = self.alive_hosts();
        if let Some(victim) = self.faults.draw_stage_kill(stage, &alive) {
            self.failed.insert(victim);
        }
    }

    /// Permanently remove a dead host and remap its logical workers
    /// round-robin onto the surviving hosts. Returns the remapped logical
    /// workers (whose in-memory tiles died with the host). Errors with
    /// [`ClusterError::NoSurvivors`] when no host is left.
    pub fn decommission(&mut self, host: usize) -> Result<Vec<usize>> {
        self.failed.insert(host);
        self.decommissioned.insert(host);
        let survivors = self.alive_hosts();
        if survivors.is_empty() {
            return Err(ClusterError::NoSurvivors);
        }
        let mut remapped = Vec::new();
        for (w, h) in self.assignment.iter_mut().enumerate() {
            if *h == host {
                *h = survivors[w % survivors.len()];
                remapped.push(w);
            }
        }
        self.transport.host_down(host);
        let assignment = self.assignment.clone();
        self.transport.set_assignment(&assignment);
        Ok(remapped)
    }

    /// Assert a transport receipt against the oracle's metered bytes and
    /// stamp the physical payload onto the span just recorded.
    fn mirror_receipt(&mut self, op: &'static str, wire_bytes: u64, payload: u64) -> Result<()> {
        if payload != wire_bytes {
            return Err(ClusterError::TransportConformance {
                op,
                detail: format!(
                    "transport shipped {payload} payload bytes, oracle metered {wire_bytes}"
                ),
            });
        }
        self.tracer.annotate_last_transport(payload);
        Ok(())
    }

    /// Meter a communication step and charge the network model for it,
    /// retrying transient send failures up to the fault plan's attempt
    /// budget. Failed attempts burn wire time and retry bytes; exhausting
    /// the budget surfaces [`ClusterError::SendFailed`].
    pub fn send(&mut self, kind: CommKind, label: impl Into<String>, bytes: u64) -> Result<()> {
        let label = label.into();
        if bytes == 0 {
            // Nothing crosses the wire; keep the event for step counting.
            self.comm.record(kind, label, 0);
            return Ok(());
        }
        let cost = self.config.network.transfer_time(bytes);
        let attempts = self.faults.max_send_attempts();
        for attempt in 1..=attempts {
            // Wire time is spent whether or not the attempt succeeds.
            self.clock.add_comm(cost);
            if self.faults.draw_transient_send(&label, attempt) {
                self.comm.record_retry(bytes);
                continue;
            }
            self.comm.record(kind, label, bytes);
            return Ok(());
        }
        Err(ClusterError::SendFailed { label, attempts })
    }

    /// Meter a communication step without fault injection (infallible).
    /// Prefer [`Cluster::send`] inside primitives; this remains for cost
    /// accounting paths that model aggregate traffic, e.g. the 2D/SUMMA
    /// comparison module.
    pub fn charge_comm(&mut self, kind: CommKind, label: impl Into<String>, bytes: u64) {
        self.comm.record(kind, label, bytes);
        self.clock
            .add_comm(self.config.network.transfer_time(bytes));
    }

    /// Meter the re-read of durable source data during lineage recovery.
    /// Always recorded as a recovery span, whatever the current mode.
    pub fn charge_recovery(&mut self, label: impl Into<String>, bytes: u64) -> Result<()> {
        let st = self.span_open();
        let label = label.into();
        self.send(CommKind::Recovery, label.clone(), bytes)?;
        let n = self.config.workers;
        self.tracer.record(OpSpan {
            op: "refetch",
            label,
            start_sec: st.sim0,
            end_sec: self.clock.total_sec(),
            wall_sec: st.wall0.elapsed().as_secs_f64(),
            wire_bytes: bytes,
            transport_bytes: 0,
            event_bytes: bytes,
            sent: vec![0; n],
            received: vec![0; n],
            blocks: 0,
            pool_reused: 0,
            pool_allocated: 0,
            recovery: true,
            out_nnz: 0,
        });
        Ok(())
    }

    /// Charge measured local compute seconds (max across workers of a step).
    pub fn charge_compute(&mut self, sec: f64) {
        self.clock.add_compute(sec);
    }

    /// Charge per-logical-worker compute seconds: logical workers sharing a
    /// physical host run sequentially, so each host is charged the *sum* of
    /// its workers and the clock advances by the slowest host. This is how
    /// recovery's remapping shows up as compute overhead.
    fn charge_compute_workers(&mut self, secs: &[f64]) {
        let mut per_host: HashMap<usize, f64> = HashMap::new();
        for (w, &s) in secs.iter().enumerate() {
            *per_host.entry(self.assignment[w]).or_insert(0.0) += s;
        }
        let max = per_host.values().fold(0.0f64, |m, &v| m.max(v));
        self.clock.add_compute(max);
    }

    /// Load a local matrix onto the cluster under `scheme`. Loading is not
    /// metered (the paper's ledger starts after input load, matching
    /// Figure 6(b) which reports per-iteration traffic).
    pub fn load(&self, m: &BlockedMatrix, scheme: PartitionScheme) -> DistMatrix {
        DistMatrix::from_blocked(m, scheme, self.config.workers)
    }

    fn compat(&self, a: &DistMatrix, b: &DistMatrix) -> Result<()> {
        if a.workers() != b.workers() {
            return Err(ClusterError::WorkerCountMismatch(a.workers(), b.workers()));
        }
        if a.block_size() != b.block_size() {
            return Err(ClusterError::BlockGridMismatch {
                left: a.block_size(),
                right: b.block_size(),
            });
        }
        Ok(())
    }

    /// The `partition` extended operator: repartition `m` to a Row or
    /// Column scheme. Every tile that changes owner is metered as shuffle
    /// traffic. Repartitioning from Broadcast is a local extract and free.
    pub fn repartition(
        &mut self,
        m: &DistMatrix,
        target: PartitionScheme,
        label: &str,
    ) -> Result<DistMatrix> {
        self.op_entry("partition")?;
        let st = self.span_open();
        if !target.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: target,
                op: "repartition",
            });
        }
        if m.scheme() == target {
            // No event: the requirement is already satisfied (cost 0).
            self.span_close(st, "partition", format!("{label} (noop)"), 0, 0, None, 0);
            self.tracer.annotate_last_nnz(m.nnz() as u64);
            return Ok(m.clone());
        }
        if m.scheme() == PartitionScheme::Broadcast {
            // Everything is already everywhere: a pure filter (cost 0).
            let out = m.extract_local(target)?;
            let blocks = out.tile_count();
            self.span_close(
                st,
                "partition",
                format!("{label} (extract)"),
                0,
                0,
                None,
                blocks,
            );
            let moves = local_keep_moves(&out);
            let payload =
                self.transport
                    .move_tiles("partition", m, &out, TileTransform::None, &moves)?;
            self.mirror_receipt("partition", 0, payload)?;
            self.tracer.annotate_last_nnz(out.nnz() as u64);
            return Ok(out);
        }
        let n = self.config.workers;
        let mut moved: u64 = 0;
        let mut blocks = 0usize;
        let mut sent = vec![0u64; n];
        let mut received = vec![0u64; n];
        let mut moves: Vec<MoveItem> = Vec::new();
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        for w in 0..n {
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                let dest = target.owner(bi, bj, n).expect("rc target");
                if dest != w {
                    let b = tile.actual_bytes() as u64;
                    moved += b;
                    sent[w] += b;
                    received[dest] += b;
                }
                blocks += 1;
                moves.push(MoveItem {
                    src_w: w,
                    dest_w: dest,
                    bi,
                    bj,
                    metered: dest != w,
                });
                stores[dest].insert((bi, bj), Arc::clone(tile));
            }
        }
        self.send(CommKind::Shuffle, format!("partition({label})"), moved)?;
        // The partition *event* re-keys every tile of `m` (Table 2 charges
        // |A|); the wire only carries the tiles that change owner.
        let event = m.logical_bytes();
        let io = Some((sent, received));
        self.span_close(st, "partition", label.to_string(), moved, event, io, blocks);
        let out = DistMatrix::from_parts(*m.meta(), target, stores);
        let payload =
            self.transport
                .move_tiles("partition", m, &out, TileTransform::None, &moves)?;
        self.mirror_receipt("partition", moved, payload)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// The `broadcast` extended operator: replicate `m` on every worker.
    /// Each worker must receive the tiles it does not already hold.
    pub fn broadcast(&mut self, m: &DistMatrix, label: &str) -> Result<DistMatrix> {
        self.op_entry("broadcast")?;
        let st = self.span_open();
        if m.scheme() == PartitionScheme::Broadcast {
            self.span_close(st, "broadcast", format!("{label} (noop)"), 0, 0, None, 0);
            self.tracer.annotate_last_nnz(m.nnz() as u64);
            return Ok(m.clone());
        }
        let n = self.config.workers;
        let mut moved: u64 = 0;
        let mut blocks = 0usize;
        let mut sent = vec![0u64; n];
        let mut received = vec![0u64; n];
        let mut moves: Vec<MoveItem> = Vec::new();
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        for w in 0..n {
            for src in 0..n {
                for (&k, tile) in m.worker_blocks(src) {
                    if stores[w].contains_key(&k) {
                        continue;
                    }
                    if src != w {
                        let b = tile.actual_bytes() as u64;
                        moved += b;
                        sent[src] += b;
                        received[w] += b;
                    }
                    blocks += 1;
                    moves.push(MoveItem {
                        src_w: src,
                        dest_w: w,
                        bi: k.0,
                        bj: k.1,
                        metered: src != w,
                    });
                    stores[w].insert(k, Arc::clone(tile));
                }
            }
        }
        self.send(CommKind::Broadcast, format!("broadcast({label})"), moved)?;
        // The broadcast *event* replicates `m` on all N workers (Table 2
        // charges N·|A|); the wire skips the share each source already has.
        let event = (n as u64) * m.logical_bytes();
        let io = Some((sent, received));
        self.span_close(st, "broadcast", label.to_string(), moved, event, io, blocks);
        let out = DistMatrix::from_parts(*m.meta(), PartitionScheme::Broadcast, stores);
        let payload =
            self.transport
                .move_tiles("broadcast", m, &out, TileTransform::None, &moves)?;
        self.mirror_receipt("broadcast", moved, payload)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// Scatter a matrix back into Hash placement. This models SystemML-S
    /// writing every operator result into its hash-partitioned RDD cache;
    /// following the paper's cost accounting (which charges repartitions
    /// on the *input* side only), the movement is **not metered** — a
    /// deliberate, baseline-favouring simplification documented in
    /// DESIGN.md.
    pub fn rehash(&mut self, m: &DistMatrix) -> Result<DistMatrix> {
        self.op_entry("rehash")?;
        let st = self.span_open();
        if m.scheme() == PartitionScheme::Hash {
            return Ok(m.clone());
        }
        let n = self.config.workers;
        let mut blocks = 0usize;
        let mut moves: Vec<MoveItem> = Vec::new();
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        for w in 0..n {
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                let dest = PartitionScheme::Hash.owner(bi, bj, n).expect("hash owner");
                blocks += 1;
                if let std::collections::hash_map::Entry::Vacant(e) = stores[dest].entry((bi, bj)) {
                    e.insert(Arc::clone(tile));
                    moves.push(MoveItem {
                        src_w: w,
                        dest_w: dest,
                        bi,
                        bj,
                        metered: false,
                    });
                }
            }
        }
        self.span_close(st, "rehash", String::new(), 0, 0, None, blocks);
        let out = DistMatrix::from_parts(*m.meta(), PartitionScheme::Hash, stores);
        let payload = self
            .transport
            .move_tiles("rehash", m, &out, TileTransform::None, &moves)?;
        self.mirror_receipt("rehash", 0, payload)?;
        Ok(out)
    }

    /// The `transpose` extended operator: local, free.
    pub fn transpose(&mut self, m: &DistMatrix) -> Result<DistMatrix> {
        self.op_entry("transpose")?;
        let st = self.span_open();
        let t0 = Instant::now();
        let out = m.transpose_local();
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        let blocks = out.tile_count();
        self.span_close(st, "transpose", String::new(), 0, 0, None, blocks);
        let moves = local_keep_moves(m);
        let payload =
            self.transport
                .move_tiles("transpose", m, &out, TileTransform::Transpose, &moves)?;
        self.mirror_receipt("transpose", 0, payload)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// The `extract` extended operator: local, free.
    pub fn extract(&mut self, m: &DistMatrix, target: PartitionScheme) -> Result<DistMatrix> {
        self.op_entry("extract")?;
        let st = self.span_open();
        let out = m.extract_local(target)?;
        let blocks = out.tile_count();
        self.span_close(st, "extract", String::new(), 0, 0, None, blocks);
        let moves = local_keep_moves(&out);
        let payload = self
            .transport
            .move_tiles("extract", m, &out, TileTransform::None, &moves)?;
        self.mirror_receipt("extract", 0, payload)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// The `free` plan step: release a dead intermediate's physical
    /// shards on the transport. Local and communication-free; it draws
    /// no fault (so seeded fault sequences are unperturbed by liveness
    /// splicing) and meters nothing — the returned receipt is the
    /// physical bytes the backend reclaimed.
    pub fn free(&mut self, m: &DistMatrix) -> Result<u64> {
        let st = self.span_open();
        let blocks = m.tile_count();
        self.span_close(st, "free", String::new(), 0, 0, None, blocks);
        let released = self.transport.free_value(m)?;
        self.mirror_receipt("free", 0, 0)?;
        Ok(released)
    }

    /// RMM1 (Figure 2): `A(b) × B(c) → AB(c)`. No communication during
    /// execution — each worker multiplies the full `A` against its own
    /// block-columns of `B`.
    pub fn rmm1(&mut self, a: &DistMatrix, b: &DistMatrix) -> Result<DistMatrix> {
        self.op_entry("rmm1")?;
        let st = self.span_open();
        self.compat(a, b)?;
        self.require(a, PartitionScheme::Broadcast, "rmm1")?;
        self.require(b, PartitionScheme::Col, "rmm1")?;
        let out = self.mm_local(a, b, PartitionScheme::Col)?;
        let blocks = out.tile_count();
        self.span_close(st, "rmm1", String::new(), 0, 0, None, blocks);
        self.transport.run_mm("rmm1", a, b, &out)?;
        self.mirror_receipt("rmm1", 0, 0)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// RMM2 (Figure 2): `A(r) × B(b) → AB(r)`.
    pub fn rmm2(&mut self, a: &DistMatrix, b: &DistMatrix) -> Result<DistMatrix> {
        self.op_entry("rmm2")?;
        let st = self.span_open();
        self.compat(a, b)?;
        self.require(a, PartitionScheme::Row, "rmm2")?;
        self.require(b, PartitionScheme::Broadcast, "rmm2")?;
        let out = self.mm_local(a, b, PartitionScheme::Row)?;
        let blocks = out.tile_count();
        self.span_close(st, "rmm2", String::new(), 0, 0, None, blocks);
        self.transport.run_mm("rmm2", a, b, &out)?;
        self.mirror_receipt("rmm2", 0, 0)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    fn require(&self, m: &DistMatrix, scheme: PartitionScheme, op: &'static str) -> Result<()> {
        if m.scheme() != scheme {
            return Err(ClusterError::SchemeMismatch {
                expected: scheme,
                actual: m.scheme(),
                op,
            });
        }
        Ok(())
    }

    /// Shared RMM body: every result tile is computable on the worker that
    /// owns it under `out_scheme`, with zero communication.
    fn mm_local(
        &mut self,
        a: &DistMatrix,
        b: &DistMatrix,
        out_scheme: PartitionScheme,
    ) -> Result<DistMatrix> {
        if a.cols() != b.rows() {
            return Err(ClusterError::Matrix(
                dmac_matrix::MatrixError::DimensionMismatch {
                    op: "multiply",
                    left: (a.rows(), a.cols()),
                    right: (b.rows(), b.cols()),
                },
            ));
        }
        let n = self.config.workers;
        let out_meta = GridMeta::new(a.rows(), b.cols(), a.block_size());
        let kb = a.meta().col_blocks;
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        let mut secs = vec![0.0f64; n];
        for w in 0..n {
            let t0 = Instant::now();
            let tasks: Vec<(usize, usize)> = (0..out_meta.row_blocks)
                .flat_map(|bi| (0..out_meta.col_blocks).map(move |bj| (bi, bj)))
                .filter(|&(bi, bj)| out_scheme.owner(bi, bj, n) == Some(w))
                .collect();
            let results = run_tasks(self.config.local_threads, tasks, |(bi, bj)| {
                let tile = self.mm_block(a, b, w, w, bi, bj, kb, &out_meta)?;
                Ok::<_, ClusterError>(((bi, bj), tile))
            });
            for r in results {
                let (k, tile) = r?;
                stores[w].insert(k, tile);
            }
            secs[w] = t0.elapsed().as_secs_f64();
        }
        self.charge_compute_workers(&secs);
        Ok(DistMatrix::from_parts(out_meta, out_scheme, stores))
    }

    /// Compute one result tile `(bi, bj)` of `A·B` from tiles stored on
    /// workers `wa`/`wb`, using a pooled in-place accumulator.
    #[allow(clippy::too_many_arguments)]
    fn mm_block(
        &self,
        a: &DistMatrix,
        b: &DistMatrix,
        wa: usize,
        wb: usize,
        bi: usize,
        bj: usize,
        kb: usize,
        out_meta: &GridMeta,
    ) -> Result<Arc<Block>> {
        let rows = out_meta.block_rows_of(bi);
        let cols = out_meta.block_cols_of(bj);
        let mut acc = self.pool.acquire(rows, cols);
        for k in 0..kb {
            let (Some(at), Some(bt)) = (a.block_on(wa, bi, k), b.block_on(wb, k, bj)) else {
                return Err(ClusterError::Matrix(
                    dmac_matrix::MatrixError::MalformedSparse(format!(
                        "missing input tile for result ({bi},{bj}) at k={k}"
                    )),
                ));
            };
            if at.nnz() == 0 || bt.nnz() == 0 {
                continue;
            }
            at.matmul_acc(bt, &mut acc)?;
        }
        let nnz = acc.nnz();
        let out = if nnz * 2 < rows * cols {
            let sparse = CscBlock::from_dense(&acc);
            self.pool.release(acc);
            Block::Sparse(sparse)
        } else {
            Block::Dense(acc)
        };
        Ok(Arc::new(out))
    }

    /// CPMM (Figure 2): `A(c) × B(r) → AB(r|c)`. Each worker computes a
    /// full-size partial from its slice of the shared dimension; partials
    /// are then shuffled to the owners under `out_scheme` and aggregated.
    /// The shuffle of the partial results is CPMM's communication cost
    /// (the paper charges `N × |AB|` for the output event).
    pub fn cpmm(
        &mut self,
        a: &DistMatrix,
        b: &DistMatrix,
        out_scheme: PartitionScheme,
    ) -> Result<DistMatrix> {
        self.op_entry("cpmm")?;
        self.compat(a, b)?;
        self.require(a, PartitionScheme::Col, "cpmm")?;
        self.require(b, PartitionScheme::Row, "cpmm")?;
        if !out_scheme.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: out_scheme,
                op: "cpmm",
            });
        }
        if a.cols() != b.rows() {
            return Err(ClusterError::Matrix(
                dmac_matrix::MatrixError::DimensionMismatch {
                    op: "multiply",
                    left: (a.rows(), a.cols()),
                    right: (b.rows(), b.cols()),
                },
            ));
        }
        let st = self.span_open();
        let n = self.config.workers;
        let out_meta = GridMeta::new(a.rows(), b.cols(), a.block_size());
        let kb = a.meta().col_blocks;

        // Phase 1: per-worker partial products over the owned k-slices.
        // Accumulators come from the result buffer pool and every one is
        // returned to it below, so CPMM's acquire/release stays balanced.
        let mut partials: Vec<HashMap<(usize, usize), DenseBlock>> = Vec::with_capacity(n);
        let mut secs = vec![0.0f64; n];
        for w in 0..n {
            let t0 = Instant::now();
            let my_ks: Vec<usize> = (0..kb).filter(|&k| k % n == w).collect();
            let tasks: Vec<(usize, usize)> = (0..out_meta.row_blocks)
                .flat_map(|bi| (0..out_meta.col_blocks).map(move |bj| (bi, bj)))
                .collect();
            let pool = &self.pool;
            let results = run_tasks(self.config.local_threads, tasks, |(bi, bj)| {
                let mut acc = pool.acquire(out_meta.block_rows_of(bi), out_meta.block_cols_of(bj));
                let mut touched = false;
                for &k in &my_ks {
                    let (Some(at), Some(bt)) = (a.block_on(w, bi, k), b.block_on(w, k, bj)) else {
                        pool.release(acc);
                        return Err(ClusterError::Matrix(
                            dmac_matrix::MatrixError::MalformedSparse(format!(
                                "cpmm: missing tile at k={k} on worker {w}"
                            )),
                        ));
                    };
                    if at.nnz() == 0 || bt.nnz() == 0 {
                        continue;
                    }
                    at.matmul_acc(bt, &mut acc)?;
                    touched = true;
                }
                if touched {
                    Ok::<_, ClusterError>(((bi, bj), Some(acc)))
                } else {
                    pool.release(acc);
                    Ok(((bi, bj), None))
                }
            });
            let mut map = HashMap::new();
            for r in results {
                let (k, maybe) = r?;
                if let Some(p) = maybe {
                    map.insert(k, p);
                }
            }
            secs[w] = t0.elapsed().as_secs_f64();
            partials.push(map);
        }
        self.charge_compute_workers(&secs);

        // Phase 2: shuffle partials to their owners and aggregate in
        // worker order (the fixed order keeps f64 summation deterministic).
        let mut moved: u64 = 0;
        let mut event: u64 = 0;
        let mut sent = vec![0u64; n];
        let mut received = vec![0u64; n];
        let mut descs: Vec<PartialDesc> = Vec::new();
        let mut gathered: Vec<HashMap<(usize, usize), DenseBlock>> =
            (0..n).map(|_| HashMap::new()).collect();
        let t0 = Instant::now();
        for (w, map) in partials.into_iter().enumerate() {
            for ((bi, bj), p) in map {
                let dest = out_scheme.owner(bi, bj, n).expect("rc scheme");
                let bytes = p.actual_bytes() as u64;
                // The CPMM output event ships every worker's full-size
                // partial (Table 2 charges N·|AB|), even the share that
                // happens to stay local.
                event += bytes;
                descs.push(PartialDesc {
                    bi,
                    bj,
                    src_w: w,
                    dest_w: dest,
                    bytes,
                });
                if dest != w {
                    moved += bytes;
                    sent[w] += bytes;
                    received[dest] += bytes;
                }
                match gathered[dest].get_mut(&(bi, bj)) {
                    Some(acc) => {
                        acc.add_assign(&p)?;
                        self.pool.release(p);
                    }
                    None => {
                        gathered[dest].insert((bi, bj), p);
                    }
                }
            }
        }
        let agg_sec = t0.elapsed().as_secs_f64() / self.host_parallelism() as f64;
        self.charge_compute(agg_sec);
        self.send(CommKind::Shuffle, "cpmm-output", moved)?;

        // Materialise all owned tiles (zeros where no partial contributed).
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        for bi in 0..out_meta.row_blocks {
            for bj in 0..out_meta.col_blocks {
                let dest = out_scheme.owner(bi, bj, n).expect("rc scheme");
                let tile = match gathered[dest].get(&(bi, bj)) {
                    Some(d) => Block::Dense(d.clone()).compact(),
                    None => Block::zeros(out_meta.block_rows_of(bi), out_meta.block_cols_of(bj)),
                };
                stores[dest].insert((bi, bj), Arc::new(tile));
            }
        }
        for map in gathered {
            for (_, d) in map {
                self.pool.release(d);
            }
        }
        let blocks = out_meta.row_blocks * out_meta.col_blocks;
        let io = Some((sent, received));
        self.span_close(st, "cpmm", String::new(), moved, event, io, blocks);
        let out = DistMatrix::from_parts(out_meta, out_scheme, stores);
        let payload = self.transport.run_cpmm(a, b, &out, &descs)?;
        self.mirror_receipt("cpmm", moved, payload)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// Scheme-aligned element-wise operator: both operands must share the
    /// same Row/Column/Broadcast scheme; each worker combines its own tiles
    /// with zero communication.
    pub fn cellwise(&mut self, a: &DistMatrix, b: &DistMatrix, op: CellOp) -> Result<DistMatrix> {
        self.op_entry(op.name())?;
        let st = self.span_open();
        self.compat(a, b)?;
        if a.scheme() != b.scheme() || a.scheme() == PartitionScheme::Hash {
            return Err(ClusterError::SchemeMismatch {
                expected: a.scheme(),
                actual: b.scheme(),
                op: op.name(),
            });
        }
        if a.rows() != b.rows() || a.cols() != b.cols() {
            return Err(ClusterError::Matrix(
                dmac_matrix::MatrixError::DimensionMismatch {
                    op: op.name(),
                    left: (a.rows(), a.cols()),
                    right: (b.rows(), b.cols()),
                },
            ));
        }
        let n = self.config.workers;
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        let mut secs = vec![0.0f64; n];
        for w in 0..n {
            let t0 = Instant::now();
            let tasks: Vec<((usize, usize), Arc<Block>)> = a
                .worker_blocks(w)
                .iter()
                .map(|(&k, t)| (k, Arc::clone(t)))
                .collect();
            let results = run_tasks(self.config.local_threads, tasks, |((bi, bj), at)| {
                let Some(bt) = b.block_on(w, bi, bj) else {
                    return Err(ClusterError::Matrix(
                        dmac_matrix::MatrixError::MalformedSparse(format!(
                            "cellwise: tile ({bi},{bj}) missing on worker {w}"
                        )),
                    ));
                };
                let out = op.apply(&at, bt)?;
                Ok(((bi, bj), Arc::new(out)))
            });
            for r in results {
                let (k, tile) = r?;
                stores[w].insert(k, tile);
            }
            secs[w] = t0.elapsed().as_secs_f64();
        }
        self.charge_compute_workers(&secs);
        let blocks = stores.iter().map(HashMap::len).sum();
        self.span_close(st, op.name(), String::new(), 0, 0, None, blocks);
        let out = DistMatrix::from_parts(*a.meta(), a.scheme(), stores);
        self.transport.run_cell(op, a, b, &out)?;
        self.mirror_receipt(op.name(), 0, 0)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// Fused cell-wise expression: evaluates a whole post-order program of
    /// scheme-aligned cell-wise operators in one pass per tile, producing a
    /// single output allocation (from the result buffer pool) instead of one
    /// intermediate [`DistMatrix`] per operator. Exactly like [`Self::cellwise`]
    /// it is communication-free: the span meters zero wire and event bytes,
    /// so fusing never changes the cost-model ledger. `label` names the
    /// subsumed operators for the flight recorder.
    pub fn fused_cellwise(
        &mut self,
        leaves: &[&DistMatrix],
        prog: &[dmac_matrix::FusedOp],
        label: &str,
    ) -> Result<DistMatrix> {
        self.op_entry("fused")?;
        let st = self.span_open();
        dmac_matrix::fused::validate_program(prog, leaves.len())?;
        let first = leaves.first().ok_or_else(|| {
            ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(
                "fused: no operands".into(),
            ))
        })?;
        for m in &leaves[1..] {
            self.compat(first, m)?;
            if m.scheme() != first.scheme() || m.scheme() == PartitionScheme::Hash {
                return Err(ClusterError::SchemeMismatch {
                    expected: first.scheme(),
                    actual: m.scheme(),
                    op: "fused",
                });
            }
            if m.rows() != first.rows() || m.cols() != first.cols() {
                return Err(ClusterError::Matrix(
                    dmac_matrix::MatrixError::DimensionMismatch {
                        op: "fused",
                        left: (first.rows(), first.cols()),
                        right: (m.rows(), m.cols()),
                    },
                ));
            }
        }
        let n = self.config.workers;
        let pool = &self.pool;
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        let mut secs = vec![0.0f64; n];
        for w in 0..n {
            let t0 = Instant::now();
            let tasks: Vec<((usize, usize), Arc<Block>)> = first
                .worker_blocks(w)
                .iter()
                .map(|(&k, t)| (k, Arc::clone(t)))
                .collect();
            let results = run_tasks(self.config.local_threads, tasks, |((bi, bj), at)| {
                let mut tiles: Vec<&Block> = Vec::with_capacity(leaves.len());
                tiles.push(&at);
                for m in &leaves[1..] {
                    let Some(t) = m.block_on(w, bi, bj) else {
                        return Err(ClusterError::Matrix(
                            dmac_matrix::MatrixError::MalformedSparse(format!(
                                "fused: tile ({bi},{bj}) missing on worker {w}"
                            )),
                        ));
                    };
                    tiles.push(t);
                }
                let out = dmac_matrix::eval_fused_block(prog, &tiles, pool)?;
                Ok(((bi, bj), Arc::new(out)))
            });
            for r in results {
                let (k, tile) = r?;
                stores[w].insert(k, tile);
            }
            secs[w] = t0.elapsed().as_secs_f64();
        }
        self.charge_compute_workers(&secs);
        let blocks = stores.iter().map(HashMap::len).sum();
        self.span_close(st, "fused", label.to_string(), 0, 0, None, blocks);
        let out = DistMatrix::from_parts(*first.meta(), first.scheme(), stores);
        self.transport.run_fused(prog, leaves, &out)?;
        self.mirror_receipt("fused", 0, 0)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// Unary per-tile scalar operator ([`UnaryTileOp`]). Local on every
    /// worker, keeps the scheme, works on every transport backend.
    pub fn unary(&mut self, m: &DistMatrix, op: UnaryTileOp) -> Result<DistMatrix> {
        self.op_entry("map")?;
        let st = self.span_open();
        let n = self.config.workers;
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        let mut secs = vec![0.0f64; n];
        for w in 0..n {
            let t0 = Instant::now();
            let tasks: Vec<((usize, usize), Arc<Block>)> = m
                .worker_blocks(w)
                .iter()
                .map(|(&k, t)| (k, Arc::clone(t)))
                .collect();
            let results = run_tasks(self.config.local_threads, tasks, |(k, tile)| {
                (k, Arc::new(op.apply(&tile)))
            });
            for (k, tile) in results {
                stores[w].insert(k, tile);
            }
            secs[w] = t0.elapsed().as_secs_f64();
        }
        self.charge_compute_workers(&secs);
        let blocks = stores.iter().map(HashMap::len).sum();
        self.span_close(st, "map", op.name().to_string(), 0, 0, None, blocks);
        let out = DistMatrix::from_parts(*m.meta(), m.scheme(), stores);
        self.transport.run_unary(op, m, &out)?;
        self.mirror_receipt("map", 0, 0)?;
        self.tracer.annotate_last_nnz(out.nnz() as u64);
        Ok(out)
    }

    /// Distributed reduction: each worker folds its owned tiles in sorted
    /// key order into one partial; the driver combines the `N` partials in
    /// ascending worker order (metered as `8·N` shuffle bytes — scalars,
    /// negligible, but kept honest). The fixed fold orders make the result
    /// bit-reproducible, which is what lets a physical backend prove its
    /// partials equal the oracle's.
    pub fn reduce(&mut self, m: &DistMatrix, kind: ReduceKind) -> Result<f64> {
        self.op_entry("reduce")?;
        let st = self.span_open();
        let n = self.config.workers;
        let t0 = Instant::now();
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let mut partials = vec![0.0f64; n];
        let mut blocks = 0usize;
        for w in 0..n {
            // Under Broadcast every worker has everything; only worker 0's
            // fold enters the total.
            if broadcast && w != 0 {
                continue;
            }
            let store = m.worker_blocks(w);
            let mut keys: Vec<(usize, usize)> = store.keys().copied().collect();
            keys.sort_unstable();
            blocks += keys.len();
            partials[w] =
                kernels::reduce_shard(kind, keys.iter().map(|k| &**store.get(k).expect("own key")));
        }
        let total = kernels::reduce_combine(broadcast, &partials);
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        self.send(CommKind::Shuffle, "reduce", 8 * n as u64)?;
        // Each worker ships one 8-byte partial to the driver; the cost
        // model charges reductions nothing (event 0).
        let io = Some((vec![8u64; n], vec![0u64; n]));
        self.span_close(st, "reduce", String::new(), 8 * n as u64, 0, io, blocks);
        let wire = self.transport.run_reduce(kind, m, &partials)?;
        self.mirror_receipt("reduce", 8 * n as u64, wire)?;
        Ok(kind.finish(total))
    }
}

/// Unmetered same-worker move list covering every tile of `v`, keyed in
/// `v`'s coordinates. Mirrors the communication-free local primitives
/// (transpose, extract) whose outputs stay where their inputs were.
fn local_keep_moves(v: &DistMatrix) -> Vec<MoveItem> {
    let mut moves = Vec::new();
    for w in 0..v.workers() {
        for &(bi, bj) in v.worker_blocks(w).keys() {
            moves.push(MoveItem {
                src_w: w,
                dest_w: w,
                bi,
                bj,
                metered: false,
            });
        }
    }
    moves
}

/// The element-wise binary operators of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOp {
    /// Matrix addition.
    Add,
    /// Matrix subtraction.
    Sub,
    /// Cell-wise multiplication (`*` in the paper's programs).
    Mul,
    /// Cell-wise division (`/`).
    Div,
}

impl CellOp {
    /// Operator name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CellOp::Add => "add",
            CellOp::Sub => "sub",
            CellOp::Mul => "cell_mul",
            CellOp::Div => "cell_div",
        }
    }

    /// Apply to a pair of tiles.
    pub fn apply(self, a: &Block, b: &Block) -> dmac_matrix::Result<Block> {
        match self {
            CellOp::Add => a.add(b),
            CellOp::Sub => a.sub(b),
            CellOp::Mul => a.cell_mul(b),
            CellOp::Div => a.cell_div(b),
        }
    }
}

/// Distributed reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Sum of all cells.
    Sum,
    /// Frobenius norm.
    Norm2,
}

impl ReduceKind {
    /// Raw per-tile contribution (before [`ReduceKind::finish`]). Public
    /// so the worker daemon folds tiles with the identical operation.
    pub fn fold_tile(self, tile: &Block) -> f64 {
        match self {
            ReduceKind::Sum => tile.sum(),
            ReduceKind::Norm2 => tile.sum_sq(),
        }
    }

    /// Finalize the combined raw total.
    pub fn finish(self, total: f64) -> f64 {
        match self {
            ReduceKind::Sum => total,
            ReduceKind::Norm2 => total.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            workers: n,
            local_threads: 2,
            network: NetworkModel::default(),
        })
    }

    fn sample(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| ((i * cols + j) % 5) as f64 - 1.0).unwrap()
    }

    #[test]
    fn repartition_row_to_col_meters_bytes() {
        let mut cl = cluster(4);
        let m = sample(16, 16, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let before = cl.comm().total_bytes();
        let c = cl.repartition(&r, PartitionScheme::Col, "m").unwrap();
        c.validate().unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Col);
        let moved = cl.comm().total_bytes() - before;
        // 4x4 grid of 4 workers: each tile moves unless row owner == col owner
        // (bi%4 == bj%4 on the diagonal): 12 of 16 tiles move.
        let tile_bytes = m.block_at(0, 0).actual_bytes() as u64;
        assert_eq!(moved, 12 * tile_bytes);
        assert_eq!(c.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn repartition_same_scheme_is_free() {
        let mut cl = cluster(4);
        let m = sample(8, 8, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let r2 = cl.repartition(&r, PartitionScheme::Row, "m").unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(r2.scheme(), PartitionScheme::Row);
    }

    #[test]
    fn repartition_from_broadcast_is_free_extract() {
        let mut cl = cluster(2);
        let m = sample(8, 8, 4);
        let b = cl.load(&m, PartitionScheme::Broadcast);
        let r = cl.repartition(&b, PartitionScheme::Row, "m").unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        r.validate().unwrap();
    }

    #[test]
    fn broadcast_meters_replication_bytes() {
        let mut cl = cluster(4);
        let m = sample(16, 16, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let b = cl.broadcast(&r, "m").unwrap();
        b.validate().unwrap();
        // every worker needs the 3/4 of tiles it does not hold
        let total = m.actual_bytes() as u64;
        assert_eq!(cl.comm().broadcast_bytes(), 3 * total);
        assert_eq!(b.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn rmm1_matches_reference_and_is_comm_free() {
        let mut cl = cluster(3);
        let a = sample(10, 8, 4);
        let b = sample(8, 12, 4);
        let da = cl.load(&a, PartitionScheme::Broadcast);
        let db = cl.load(&b, PartitionScheme::Col);
        let c = cl.rmm1(&da, &db).unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Col);
        c.validate().unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.matmul_reference(&b).unwrap().to_dense()
        );
    }

    #[test]
    fn rmm2_matches_reference() {
        let mut cl = cluster(3);
        let a = sample(10, 8, 4);
        let b = sample(8, 12, 4);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&b, PartitionScheme::Broadcast);
        let c = cl.rmm2(&da, &db).unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Row);
        c.validate().unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.matmul_reference(&b).unwrap().to_dense()
        );
    }

    #[test]
    fn rmm_scheme_requirements_enforced() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&a, PartitionScheme::Col);
        assert!(matches!(
            cl.rmm1(&da, &db),
            Err(ClusterError::SchemeMismatch { op: "rmm1", .. })
        ));
        assert!(matches!(
            cl.rmm2(&da, &db),
            Err(ClusterError::SchemeMismatch { op: "rmm2", .. })
        ));
    }

    #[test]
    fn cpmm_matches_reference_both_outputs() {
        for out in [PartitionScheme::Row, PartitionScheme::Col] {
            let mut cl = cluster(3);
            let a = sample(10, 9, 3);
            let b = sample(9, 7, 3);
            let da = cl.load(&a, PartitionScheme::Col);
            let db = cl.load(&b, PartitionScheme::Row);
            let c = cl.cpmm(&da, &db, out).unwrap();
            assert_eq!(c.scheme(), out);
            c.validate().unwrap();
            assert!(cl.comm().shuffle_bytes() > 0, "cpmm must shuffle partials");
            assert_eq!(
                c.to_blocked().unwrap().to_dense(),
                a.matmul_reference(&b).unwrap().to_dense()
            );
        }
    }

    #[test]
    fn cellwise_requires_matching_schemes() {
        let mut cl = cluster(2);
        let a = sample(6, 6, 3);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&a, PartitionScheme::Col);
        assert!(cl.cellwise(&da, &db, CellOp::Add).is_err());
        let db2 = cl.load(&a, PartitionScheme::Row);
        let c = cl.cellwise(&da, &db2, CellOp::Add).unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.add(&a).unwrap().to_dense()
        );
    }

    #[test]
    fn cellwise_all_ops_match_local() {
        let mut cl = cluster(2);
        let a = sample(6, 6, 3);
        let b = BlockedMatrix::from_fn(6, 6, 3, |i, j| 1.0 + ((i + j) % 3) as f64).unwrap();
        let da = cl.load(&a, PartitionScheme::Col);
        let db = cl.load(&b, PartitionScheme::Col);
        for (op, expect) in [
            (CellOp::Add, a.add(&b).unwrap()),
            (CellOp::Sub, a.sub(&b).unwrap()),
            (CellOp::Mul, a.cell_mul(&b).unwrap()),
            (CellOp::Div, a.cell_div(&b).unwrap()),
        ] {
            let c = cl.cellwise(&da, &db, op).unwrap();
            assert_eq!(c.to_blocked().unwrap().to_dense(), expect.to_dense());
        }
    }

    #[test]
    fn unary_scales_everywhere() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Broadcast);
        let c = cl.unary(&da, UnaryTileOp::Scale(3.0)).unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Broadcast);
        c.validate().unwrap();
        assert_eq!(c.to_blocked().unwrap().to_dense(), a.scale(3.0).to_dense());
    }

    #[test]
    fn reduce_sum_and_norm() {
        let mut cl = cluster(3);
        let a = sample(5, 5, 2);
        for scheme in [
            PartitionScheme::Row,
            PartitionScheme::Col,
            PartitionScheme::Broadcast,
        ] {
            let d = cl.load(&a, scheme);
            let s = cl.reduce(&d, ReduceKind::Sum).unwrap();
            assert!((s - a.sum()).abs() < 1e-9, "scheme {scheme}");
            let n = cl.reduce(&d, ReduceKind::Norm2).unwrap();
            assert!((n - a.norm2()).abs() < 1e-9);
        }
    }

    #[test]
    fn failed_worker_blocks_operations() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Row);
        cl.fail_worker(1);
        assert!(matches!(
            cl.repartition(&da, PartitionScheme::Col, "a"),
            Err(ClusterError::WorkerLost(1))
        ));
        cl.heal_worker(1);
        assert!(cl.repartition(&da, PartitionScheme::Col, "a").is_ok());
    }

    #[test]
    fn liveness_is_checked_before_scheme_validation() {
        // The uniform op_entry guard: even when the arguments are invalid
        // for the primitive, a dead worker must win and surface WorkerLost.
        let mut cl = cluster(3);
        let a = sample(6, 6, 3);
        let da = cl.load(&a, PartitionScheme::Row); // wrong scheme for cpmm
        let db = cl.load(&a, PartitionScheme::Row);
        cl.fail_worker(2);
        assert!(matches!(
            cl.cpmm(&da, &db, PartitionScheme::Row),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.rmm1(&da, &db),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.cellwise(&da, &db, CellOp::Add),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.reduce(&da, ReduceKind::Sum),
            Err(ClusterError::WorkerLost(2))
        ));
    }

    #[test]
    fn decommission_remaps_logical_workers_round_robin() {
        let mut cl = cluster(4);
        cl.fail_worker(1);
        let remapped = cl.decommission(1).unwrap();
        assert_eq!(remapped, vec![1]);
        // survivors are [0, 2, 3]; logical worker 1 -> survivors[1 % 3] = 2
        assert_eq!(cl.assignment(), &[0, 2, 2, 3]);
        assert_eq!(cl.alive_hosts(), vec![0, 2, 3]);
        assert_eq!(cl.decommissioned_hosts(), vec![1]);
        // decommissioned hosts cannot heal
        cl.heal_worker(1);
        assert!(matches!(cl.check_worker(1), Ok(())), "remapped to host 2");
        assert!(!cl.alive_hosts().contains(&1));
        // a second failure remaps onto the remaining two hosts
        cl.fail_worker(2);
        let remapped = cl.decommission(2).unwrap();
        assert_eq!(remapped, vec![1, 2]);
        assert_eq!(cl.assignment(), &[0, 3, 0, 3]);
        // workloads still run, keyed on 4 logical workers
        let m = sample(8, 8, 2);
        let r = cl.load(&m, PartitionScheme::Row);
        let c = cl.repartition(&r, PartitionScheme::Col, "m").unwrap();
        assert_eq!(c.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn decommission_of_last_host_is_no_survivors() {
        let mut cl = cluster(2);
        cl.decommission(0).unwrap();
        assert!(matches!(cl.decommission(1), Err(ClusterError::NoSurvivors)));
    }

    #[test]
    fn stage_kill_fires_through_begin_stage() {
        let mut cl = Cluster::with_faults(
            ClusterConfig {
                workers: 3,
                local_threads: 1,
                network: NetworkModel::default(),
            },
            FaultPlan::kill_stage(1, 42).with_victim(2),
        );
        let m = sample(6, 6, 2);
        let r = cl.load(&m, PartitionScheme::Row);
        cl.begin_stage(0);
        assert!(cl.repartition(&r, PartitionScheme::Col, "m").is_ok());
        cl.begin_stage(1);
        assert!(matches!(
            cl.broadcast(&r, "m"),
            Err(ClusterError::WorkerLost(2))
        ));
        assert_eq!(
            cl.fault_log(),
            &[FaultEvent::StageKill { stage: 1, host: 2 }]
        );
        // one-shot: after decommission the replayed stage does not re-kill
        cl.decommission(2).unwrap();
        cl.begin_stage(1);
        assert!(cl.broadcast(&r, "m").is_ok());
    }

    #[test]
    fn transient_send_failures_retry_and_meter_wasted_bytes() {
        let flaky = |prob: f64, attempts: usize| {
            Cluster::with_faults(
                ClusterConfig {
                    workers: 2,
                    local_threads: 1,
                    network: NetworkModel::default(),
                },
                FaultPlan {
                    seed: 5,
                    transient_send_prob: prob,
                    max_send_attempts: attempts,
                    ..FaultPlan::default()
                },
            )
        };
        // always-failing network exhausts the budget
        let mut cl = flaky(1.0, 3);
        let m = sample(8, 8, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        match cl.repartition(&r, PartitionScheme::Col, "m") {
            Err(ClusterError::SendFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected SendFailed, got {other:?}"),
        }
        assert_eq!(cl.comm().retry_events(), 3);
        assert!(cl.comm().retry_bytes() > 0);
        assert_eq!(cl.comm().shuffle_bytes(), 0, "no goodput recorded");
        // a merely flaky network eventually succeeds, with retries metered
        let mut cl = flaky(0.5, 16);
        let r = cl.load(&m, PartitionScheme::Row);
        let moved_clean = {
            let mut clean = flaky(0.0, 1);
            let rc = clean.load(&m, PartitionScheme::Row);
            clean.repartition(&rc, PartitionScheme::Col, "m").unwrap();
            clean.comm().shuffle_bytes()
        };
        cl.repartition(&r, PartitionScheme::Col, "m").unwrap();
        assert_eq!(cl.comm().shuffle_bytes(), moved_clean);
        assert_eq!(
            cl.comm().retry_events(),
            cl.fault_log().len(),
            "every transient failure is logged"
        );
    }

    #[test]
    fn results_are_bitwise_identical_after_decommission() {
        // The core recovery invariant: remapping logical workers onto
        // fewer hosts must not change a single result bit, because every
        // numeric loop is keyed on logical workers.
        let run = |decommission: bool| {
            let mut cl = cluster(4);
            if decommission {
                cl.fail_worker(1);
                cl.decommission(1).unwrap();
            }
            let a = sample(12, 9, 3);
            let b = sample(9, 12, 3);
            let da = cl.load(&a, PartitionScheme::Col);
            let db = cl.load(&b, PartitionScheme::Row);
            let c = cl.cpmm(&da, &db, PartitionScheme::Row).unwrap();
            c.to_blocked().unwrap().to_dense()
        };
        assert_eq!(run(false).data(), run(true).data());
    }

    #[test]
    fn clock_accumulates_comm_time() {
        let mut cl = Cluster::new(ClusterConfig {
            workers: 2,
            local_threads: 1,
            network: NetworkModel {
                bandwidth_bytes_per_sec: 1e6,
                latency_sec: 0.01,
            },
        });
        let a = sample(16, 16, 4);
        let da = cl.load(&a, PartitionScheme::Row);
        let _ = cl.broadcast(&da, "a").unwrap();
        assert!(cl.clock().comm_sec() > 0.0);
        assert!(cl.clock().comm_fraction() > 0.0);
    }
}
