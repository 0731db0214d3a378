//! Physical transport backends behind the simulated cluster.
//!
//! The cluster's numeric semantics are defined by its in-process
//! executor — the *oracle*: every primitive runs there first, producing
//! the result tiles and the metered `wire_bytes` that the planner's
//! Table-2 cost model predicts. A [`Transport`] is a *physical mirror*
//! of that execution: after each primitive completes in the oracle, the
//! cluster replays it onto the transport as an explicit move list or
//! task list, and the transport must
//!
//! 1. perform the equivalent physical work (ship tiles, run kernels),
//! 2. report the payload bytes it metered, which the cluster asserts
//!    equal the oracle's `wire_bytes` **exactly**, and
//! 3. prove its resulting state matches the oracle's, tile for tile and
//!    bit for bit (canonical shard checksums, partial-descriptor set
//!    equality for CPMM, bit-equal reduction partials).
//!
//! Any divergence surfaces as [`ClusterError::TransportConformance`] at
//! the primitive that drifted — not as a wrong number thirty operators
//! later.
//!
//! Two implementations:
//!
//! * [`SimTransport`] — the identity mirror. No processes, no sockets;
//!   it recomputes receipts from the move lists by reading oracle tiles.
//!   Because the cluster's own metering loops and the transport's
//!   receipts are computed *independently* (different code paths over
//!   different inputs), even the in-process backend cross-checks the
//!   move-list capture.
//! * [`socket::SocketTransport`] — a real multi-process cluster:
//!   `dmac-workerd` children speaking length-prefixed frames — JSON
//!   control messages, binary `DMB1` tiles ([`frame`]/[`binfmt`]) — over
//!   TCP, with direct worker-to-worker tile exchange, membership,
//!   heartbeats, and a liveness timeout. Worker loss is detected here
//!   and fed back into the cluster's existing lineage-recovery path.
//!
//! Values are identified across the boundary by the [`DistMatrix`]
//! *resident id* (rid): fresh at every construction, shared by clones.
//! Lineage replay after a failure builds new values with new rids, so a
//! stale shard on a surviving worker can never be confused for the
//! replayed one.

pub mod binfmt;
pub mod frame;
pub mod socket;
pub mod wire;
pub mod workerd;

use std::collections::HashSet;

use dmac_matrix::FusedOp;

use crate::cluster::{CellOp, ReduceKind};
use crate::dist::DistMatrix;
use crate::error::{ClusterError, Result};

/// How a tile is transformed while being copied by [`Transport::move_tiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileTransform {
    /// Byte-identical copy; destination key equals source key.
    None,
    /// Transpose the tile; source `(bi, bj)` lands at `(bj, bi)`.
    Transpose,
}

impl TileTransform {
    /// Destination tile key for a source key under this transform.
    pub fn dest_key(self, bi: usize, bj: usize) -> (usize, usize) {
        match self {
            TileTransform::None => (bi, bj),
            TileTransform::Transpose => (bj, bi),
        }
    }

    /// Apply to a tile.
    pub fn apply(self, tile: &dmac_matrix::Block) -> dmac_matrix::Block {
        match self {
            TileTransform::None => tile.clone(),
            TileTransform::Transpose => tile.transpose(),
        }
    }
}

/// One tile movement in a mirrored communication primitive. Coordinates
/// are the *source* tile's; the destination key follows from the
/// [`TileTransform`]. `metered` tiles count toward the payload receipt
/// (the bytes the oracle charged as `wire_bytes`); unmetered tiles are
/// same-host or already-resident copies the oracle ships for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveItem {
    /// Logical worker currently holding the tile (in the source value).
    pub src_w: usize,
    /// Logical worker receiving the tile (in the destination value).
    pub dest_w: usize,
    /// Source block row.
    pub bi: usize,
    /// Source block column.
    pub bj: usize,
    /// Whether the oracle metered this tile as wire traffic.
    pub metered: bool,
}

/// One CPMM phase-1 partial product: produced on `src_w` (the worker
/// owning the k-slice), destined for `dest_w` (the owner of the output
/// tile), `bytes` is the dense partial's `actual_bytes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartialDesc {
    /// Output block row.
    pub bi: usize,
    /// Output block column.
    pub bj: usize,
    /// Worker that computed the partial.
    pub src_w: usize,
    /// Worker owning the output tile.
    pub dest_w: usize,
    /// Size of the partial in bytes.
    pub bytes: u64,
}

/// Unary per-tile scalar operators. Each is a name plus one constant, so
/// a real backend can ship it to worker processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryTileOp {
    /// Multiply every cell by a constant.
    Scale(f64),
    /// Add a constant to every cell.
    AddScalar(f64),
}

impl UnaryTileOp {
    /// Operator name for diagnostics and the wire.
    pub fn name(self) -> &'static str {
        match self {
            UnaryTileOp::Scale(_) => "scale",
            UnaryTileOp::AddScalar(_) => "add_scalar",
        }
    }

    /// The constant operand.
    pub fn constant(self) -> f64 {
        match self {
            UnaryTileOp::Scale(c) => c,
            UnaryTileOp::AddScalar(c) => c,
        }
    }

    /// Apply to a tile.
    pub fn apply(self, tile: &dmac_matrix::Block) -> dmac_matrix::Block {
        match self {
            UnaryTileOp::Scale(c) => tile.scale(c),
            UnaryTileOp::AddScalar(c) => tile.add_scalar(c),
        }
    }
}

/// Cumulative byte/frame counters for a transport backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Metered payload bytes (the channel conformance checks against
    /// the oracle's `wire_bytes`).
    pub payload_bytes: u64,
    /// Bytes installed to seed source values (outside the paper's
    /// ledger, which starts after load).
    pub install_bytes: u64,
    /// Unmetered copy bytes (rehash claims, local transposes, extracts,
    /// same-host shuffle legs).
    pub free_bytes: u64,
    /// Physical bytes reclaimed by explicit value frees (plan `free`
    /// steps releasing a dead intermediate's shards).
    pub released_bytes: u64,
    /// Protocol frames exchanged (socket backend; 0 in-process).
    pub frames: u64,
    /// Total framed bytes on the wire, envelope included.
    pub frame_bytes: u64,
    /// Heartbeat frames received from workers.
    pub heartbeats: u64,
    /// Primitives mirrored.
    pub ops: u64,
    /// Tile payload bytes that transited the coordinator on a cross-host
    /// move. Always 0 by construction: cross-host tiles travel only over
    /// direct worker-to-worker links (see `peer_bytes`). Kept so reports
    /// and benchmarks can state the zero.
    pub relay_bytes: u64,
    /// Framed bytes pushed over direct worker-to-worker links, as
    /// rolled up from per-edge receipts in `xferred` replies.
    pub peer_bytes: u64,
    /// Coordinator dispatch round-trips (one per write-all-then-read
    /// exchange, so a whole stage costs one round).
    pub rounds: u64,
}

/// A physical execution backend mirroring the in-process oracle.
///
/// Every mirror method receives the oracle's inputs and outputs as
/// [`DistMatrix`] references — the transport reads tiles from them to
/// seed workers ([`Transport::ensure_resident`]) and to verify results,
/// but the engine always consumes the oracle values; the transport's
/// stores are shadow state proven equal, never a second source of truth.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// Backend name for diagnostics (`"sim"`, `"socket"`).
    fn name(&self) -> &'static str;

    /// True for backends running real worker processes, whose state
    /// [`Transport::gather`] can read back.
    fn is_physical(&self) -> bool {
        false
    }

    /// The cluster's current logical-worker → physical-host mapping.
    /// Called once at construction and again whenever decommissioning
    /// remaps survivors. Backends with no host dimension ignore it.
    fn set_assignment(&mut self, assignment: &[usize]) {
        let _ = assignment;
    }

    /// Make `m`'s shards resident on the physical workers if its rid is
    /// not yet known. Installation is unmetered (`install_bytes`): the
    /// paper's ledger starts after initial load.
    fn ensure_resident(&mut self, m: &DistMatrix) -> Result<()>;

    /// Mirror a communication primitive as an explicit tile move list.
    /// Returns the metered payload bytes the backend shipped, which the
    /// cluster asserts equal the oracle's `wire_bytes`.
    fn move_tiles(
        &mut self,
        op: &'static str,
        src: &DistMatrix,
        dest: &DistMatrix,
        transform: TileTransform,
        moves: &[MoveItem],
    ) -> Result<u64>;

    /// Mirror a replication-based matrix multiply (RMM1/RMM2): every
    /// output tile computed locally at its owner.
    fn run_mm(
        &mut self,
        op: &'static str,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()>;

    /// Mirror a cross-product multiply: phase 1 computes the oracle's
    /// partial set (verified by descriptor-set equality), partials are
    /// shipped to output owners, phase 2 combines in ascending source
    /// order. Returns the metered payload bytes (cross-worker partials).
    fn run_cpmm(
        &mut self,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64>;

    /// Mirror an aligned cell-wise binary operator.
    fn run_cell(
        &mut self,
        op: CellOp,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()>;

    /// Mirror a fused cell-wise program over aligned leaves.
    fn run_fused(
        &mut self,
        prog: &[FusedOp],
        leaves: &[&DistMatrix],
        out: &DistMatrix,
    ) -> Result<()>;

    /// Mirror a unary per-tile operator.
    fn run_unary(&mut self, op: UnaryTileOp, src: &DistMatrix, out: &DistMatrix) -> Result<()>;

    /// Mirror a distributed reduction. `partials` are the oracle's raw
    /// per-logical-worker fold results (ascending worker order, tiles
    /// folded in sorted key order); physical backends must reproduce
    /// them bit for bit. Returns the wire bytes metered (`8·N`).
    fn run_reduce(&mut self, kind: ReduceKind, m: &DistMatrix, partials: &[f64]) -> Result<u64>;

    /// Release `m`'s shards on the physical workers: the mirror of the
    /// engine dropping its oracle handle at a plan `free` step. Returns
    /// the physical bytes reclaimed (0 if the rid was never installed).
    /// Freeing is idempotent — a second call on the same rid is a no-op.
    fn free_value(&mut self, m: &DistMatrix) -> Result<u64>;

    /// Gather `m`'s tiles from the *physical* stores into a fresh value,
    /// bypassing the oracle — the end-to-end proof that worker state
    /// matches. `None` on backends with no physical store of their own.
    fn gather(&mut self, m: &DistMatrix) -> Result<Option<DistMatrix>>;

    /// Hosts newly detected dead (closed connection, stale heartbeat)
    /// since the last poll. The cluster feeds these into its failure
    /// path exactly like an injected fault.
    fn poll_liveness(&mut self) -> Vec<usize>;

    /// The cluster decommissioned a host: stop talking to it and reap
    /// its process if any.
    fn host_down(&mut self, host: usize);

    /// Cumulative counters.
    fn stats(&self) -> TransportStats;

    /// Test hook: hard-kill a host's worker process (SIGKILL), *without*
    /// marking it dead — detection must happen organically through the
    /// liveness machinery. Returns false if unsupported.
    fn debug_kill_host(&mut self, host: usize) -> bool {
        let _ = host;
        false
    }

    /// Graceful shutdown: stop workers, reap children. Errors if a child
    /// had to be killed (leak detection for the smoke gate).
    fn shutdown(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The in-process identity backend: no worker processes, receipts
/// recomputed from the move lists against the oracle's tiles.
#[derive(Debug, Default)]
pub struct SimTransport {
    known: HashSet<u64>,
    stats: TransportStats,
}

impl SimTransport {
    /// Fresh backend.
    pub fn new() -> SimTransport {
        SimTransport::default()
    }

    fn install(&mut self, m: &DistMatrix) {
        if self.known.insert(m.rid()) {
            let mut bytes = 0u64;
            for w in 0..m.workers() {
                for tile in m.worker_blocks(w).values() {
                    bytes += tile.actual_bytes() as u64;
                }
            }
            self.stats.install_bytes += bytes;
        }
    }
}

impl Transport for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn ensure_resident(&mut self, m: &DistMatrix) -> Result<()> {
        self.install(m);
        Ok(())
    }

    fn move_tiles(
        &mut self,
        op: &'static str,
        src: &DistMatrix,
        dest: &DistMatrix,
        _transform: TileTransform,
        moves: &[MoveItem],
    ) -> Result<u64> {
        self.stats.ops += 1;
        let mut payload = 0u64;
        for mv in moves {
            let Some(tile) = src.block_on(mv.src_w, mv.bi, mv.bj) else {
                return Err(ClusterError::TransportConformance {
                    op,
                    detail: format!(
                        "move list references missing source tile ({},{}) on worker {}",
                        mv.bi, mv.bj, mv.src_w
                    ),
                });
            };
            let bytes = tile.actual_bytes() as u64;
            if mv.metered {
                payload += bytes;
            } else {
                self.stats.free_bytes += bytes;
            }
        }
        self.stats.payload_bytes += payload;
        self.known.insert(dest.rid());
        Ok(payload)
    }

    fn run_mm(
        &mut self,
        _op: &'static str,
        _a: &DistMatrix,
        _b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()> {
        self.stats.ops += 1;
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_cpmm(
        &mut self,
        _a: &DistMatrix,
        _b: &DistMatrix,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64> {
        self.stats.ops += 1;
        let payload: u64 = partials
            .iter()
            .filter(|p| p.src_w != p.dest_w)
            .map(|p| p.bytes)
            .sum();
        self.stats.payload_bytes += payload;
        self.known.insert(out.rid());
        Ok(payload)
    }

    fn run_cell(
        &mut self,
        _op: CellOp,
        _a: &DistMatrix,
        _b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()> {
        self.stats.ops += 1;
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_fused(
        &mut self,
        _prog: &[FusedOp],
        _leaves: &[&DistMatrix],
        out: &DistMatrix,
    ) -> Result<()> {
        self.stats.ops += 1;
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_unary(&mut self, _op: UnaryTileOp, _src: &DistMatrix, out: &DistMatrix) -> Result<()> {
        self.stats.ops += 1;
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_reduce(&mut self, _kind: ReduceKind, m: &DistMatrix, partials: &[f64]) -> Result<u64> {
        self.stats.ops += 1;
        let n = m.workers() as u64;
        if partials.len() as u64 != n {
            return Err(ClusterError::TransportConformance {
                op: "reduce",
                detail: format!("{} partials for {} workers", partials.len(), n),
            });
        }
        Ok(8 * n)
    }

    fn free_value(&mut self, m: &DistMatrix) -> Result<u64> {
        if !self.known.remove(&m.rid()) {
            return Ok(0);
        }
        self.stats.ops += 1;
        let mut bytes = 0u64;
        for w in 0..m.workers() {
            for tile in m.worker_blocks(w).values() {
                bytes += tile.actual_bytes() as u64;
            }
        }
        self.stats.released_bytes += bytes;
        Ok(bytes)
    }

    fn gather(&mut self, _m: &DistMatrix) -> Result<Option<DistMatrix>> {
        Ok(None)
    }

    fn poll_liveness(&mut self) -> Vec<usize> {
        Vec::new()
    }

    fn host_down(&mut self, _host: usize) {}

    fn stats(&self) -> TransportStats {
        self.stats
    }
}
