//! Layer probes for the traced run: calls into one layer's public
//! functions, timed from outside the program.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use dmac::analyze::{check_liveness, verify_planned};
use dmac::cluster::{PartitionScheme, TransportStats};
use dmac::core::plan::{Plan, PlanStep};
use dmac::core::planner::{plan_program, PlannerConfig};
use dmac::core::Session;
use dmac::lang::expr::{BinOp, MatrixRef, OpKind};
use dmac::lang::Program;
use dmac::matrix::{BlockedMatrix, DenseBlock};

use crate::stats::{median, median_time};

/// `(m, k, n)` of every matmul compute step in `plan`.
pub fn matmul_shapes(program: &Program, plan: &Plan) -> Vec<(usize, usize, usize)> {
    let shape = |r: &MatrixRef| {
        let s = program.decl(r.id).ok()?.stats;
        Some(if r.transposed {
            (s.cols, s.rows)
        } else {
            (s.rows, s.cols)
        })
    };
    plan.steps
        .iter()
        .filter_map(|step| match step {
            PlanStep::Compute { op, .. } => match &program.ops().get(*op)?.kind {
                OpKind::Binary {
                    op: BinOp::MatMul,
                    lhs,
                    rhs,
                } => {
                    let (m, k) = shape(lhs)?;
                    let (_, n) = shape(rhs)?;
                    Some((m, k, n))
                }
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Floating-point operations of a matmul list, `2·m·k·n` each.
pub fn flops(shapes: &[(usize, usize, usize)]) -> u64 {
    shapes.iter().map(|&(m, k, n)| 2 * (m * k * n) as u64).sum()
}

/// GFLOP/s of `DenseBlock::matmul_acc` on the tile shapes the plan's
/// matmuls run at `block`: one tile product per plan matmul per round,
/// rounds batched to about 20 ms, median over batches.
pub fn gemm_gflops(shapes: &[(usize, usize, usize)], block: usize) -> f64 {
    let tiles: Vec<(DenseBlock, DenseBlock, DenseBlock)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let (m, k, n) = (m.min(block), k.min(block), n.min(block));
            let fill = |r: usize, c: usize, salt: usize| {
                DenseBlock::from_fn(r, c, |i, j| ((i * 31 + j * 17 + salt) % 97) as f64 / 97.0)
            };
            (fill(m, k, 1), fill(k, n, 2), DenseBlock::zeros(m, n))
        })
        .collect();
    let round_flops: u64 = tiles
        .iter()
        .map(|(a, b, _)| 2 * (a.rows() * a.cols() * b.cols()) as u64)
        .sum();
    let mut tiles = tiles;
    let round = |tiles: &mut Vec<(DenseBlock, DenseBlock, DenseBlock)>| {
        for (a, b, acc) in tiles.iter_mut() {
            a.matmul_acc(black_box(b), acc)
                .expect("probe tile shapes agree");
            black_box(&acc);
        }
    };
    let t = Instant::now();
    round(&mut tiles);
    let one = t.elapsed().as_secs_f64().max(1e-6);
    let rounds = ((0.02 / one) as usize).max(1);
    let mut rates = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..rounds {
            round(&mut tiles);
        }
        rates.push((rounds as u64 * round_flops) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// Median time of `verify_planned` + `check_liveness` on `program`'s
/// plan (planned cold, the way a session's first `prepare` plans it).
pub fn verify_s(program: &Program, block: usize, workers: usize) -> Result<f64, String> {
    let cfg = PlannerConfig {
        fusion_block: block,
        ..PlannerConfig::default()
    };
    let planned =
        plan_program(program, &cfg, workers, &HashMap::new()).map_err(|e| e.to_string())?;
    median_time(21, || {
        verify_planned(program, &planned, &cfg, workers)?;
        check_liveness(program, &planned, &cfg)
    })
}

fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

/// Median time of one `v`-sized repartition (Row → Column) and one
/// `w`-sized broadcast on the session's own cluster and transport. Each
/// result is checked against its input and freed after timing.
pub fn cluster_probe(
    session: &mut Session,
    v: &BlockedMatrix,
    w: &BlockedMatrix,
) -> Result<(f64, f64), String> {
    let cl = session.cluster_mut();
    let err = |e: dmac::cluster::ClusterError| e.to_string();
    let (vd, wd) = (
        cl.load(v, PartitionScheme::Row),
        cl.load(w, PartitionScheme::Row),
    );
    let (mut rep, mut bc) = (Vec::new(), Vec::new());
    for i in 0..7 {
        let t = Instant::now();
        let out = cl
            .repartition(&vd, PartitionScheme::Col, "probe-v")
            .map_err(err)?;
        rep.push(t.elapsed().as_secs_f64());
        if i == 0 && bits(&out.to_blocked().map_err(err)?) != bits(v) {
            return Err("repartition probe changed the matrix".into());
        }
        cl.free(&out).map_err(err)?;

        let t = Instant::now();
        let out = cl.broadcast(&wd, "probe-w").map_err(err)?;
        bc.push(t.elapsed().as_secs_f64());
        if i == 0 && bits(&out.to_blocked().map_err(err)?) != bits(w) {
            return Err("broadcast probe changed the matrix".into());
        }
        cl.free(&out).map_err(err)?;
    }
    cl.free(&vd).map_err(err)?;
    cl.free(&wd).map_err(err)?;
    Ok((median(&rep), median(&bc)))
}

/// Framed size of one heartbeat (`{"t":"hb","host":H}` for a one-digit
/// host id, plus the 4-byte length prefix). Heartbeats arrive on a wall
/// clock, so they are taken out of the per-op frame counts.
const HEARTBEAT_FRAME_BYTES: u64 = r#"{"t":"hb","host":0}"#.len() as u64 + 4;

/// Per-op transport counts from two `TransportStats` readings, with
/// heartbeats removed so the counts repeat exactly.
pub struct WireCounts {
    /// Protocol frames per op.
    pub frames: f64,
    /// Framed bytes per op.
    pub frame_bytes: f64,
    /// Worker-to-worker bytes per op.
    pub peer_bytes: f64,
    /// Bytes relayed through the coordinator per op.
    pub relay_bytes: f64,
}

impl WireCounts {
    /// Counts per op between readings `a` (before) and `b` (after).
    pub fn per_op(a: &TransportStats, b: &TransportStats, ops: usize) -> WireCounts {
        let ops = ops.max(1) as f64;
        let beats = b.heartbeats - a.heartbeats;
        WireCounts {
            frames: (b.frames - a.frames - beats) as f64 / ops,
            frame_bytes: (b.frame_bytes - a.frame_bytes - beats * HEARTBEAT_FRAME_BYTES) as f64
                / ops,
            peer_bytes: (b.peer_bytes - a.peer_bytes) as f64 / ops,
            relay_bytes: (b.relay_bytes - a.relay_bytes) as f64 / ops,
        }
    }
}
