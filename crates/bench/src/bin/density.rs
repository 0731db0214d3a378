//! Density sweep benchmark: personalized PageRank on a powerlaw graph at
//! four edge counts, planned twice per setting — once with the
//! nnz-costed planner (`density_adaptive`, the default) and once with the
//! density-blind Table-2 pricing (`density_adaptive: false`).
//!
//! The link matrix is *declared* dense (sparsity 1.0 — the script author
//! doesn't know the data), so the blind planner prices `rank · link`
//! against a 2 MB operand and broadcasts the 16×512 rank block every
//! iteration; the adaptive planner measures the powerlaw link's real nnz
//! and flips to broadcasting the (tiny, CSC-shipped) link instead once
//! the measured `|link|` undercuts `|rank|`. Both plans must agree bit
//! for bit — RMM1 and RMM2 accumulate each output block in the same `k`
//! order — so the only difference is bytes on the wire.
//!
//! Results land in `BENCH_density.json` (relative to the working
//! directory; `scripts/verify.sh` runs from the repo root). The bin exits
//! non-zero — failing `verify.sh` — if any setting changes a single
//! output bit, or if the adaptive plan cuts metered wire bytes by less
//! than 30% at the sparsest setting.

use dmac_bench::{fmt_sec, header, timed, LOCAL_THREADS, WORKERS};
use dmac_cluster::json::JsonObj;
use dmac_core::planner::PlannerConfig;
use dmac_core::Session;
use dmac_data::{powerlaw_graph, row_normalize};
use dmac_lang::{Expr, Program};
use dmac_matrix::BlockedMatrix;

const NODES: usize = 512;
/// Personalization rows: one rank vector per seed set, planned as a
/// single 16×512 block multiplication per iteration.
const SEEDS: usize = 16;
const BLOCK: usize = 16;
const ITERS: usize = 3;
const DAMPING: f64 = 0.85;
/// Edge targets from ~6% dense down to ~0.15%.
const EDGES: [usize; 4] = [16_384, 4_096, 1_024, 384];

/// Unrolled personalized PageRank: `R ← d·(R·L) + (1−d)·R0`, with the
/// link *declared* dense.
fn program() -> (Program, Expr) {
    let mut p = Program::new();
    let link = p.load("link", NODES, NODES, 1.0);
    let r0 = p.load("R0", SEEDS, NODES, 1.0);
    let mut r = r0;
    for i in 0..ITERS {
        p.set_phase(i);
        let walk = p.matmul(r, link).unwrap();
        let damped = p.scale_const(walk, DAMPING).unwrap();
        let tele = p.scale_const(r0, 1.0 - DAMPING).unwrap();
        r = p.add(damped, tele).unwrap();
    }
    p.output(r);
    (p, r)
}

/// Per-seed teleport distributions: row `s` concentrates on the nodes
/// congruent to `s` (dense — every cell positive).
fn seeds_matrix() -> BlockedMatrix {
    BlockedMatrix::from_fn(SEEDS, NODES, BLOCK, |i, j| {
        let base = 1.0 / NODES as f64;
        if j % SEEDS == i {
            base + 1.0 / SEEDS as f64
        } else {
            base
        }
    })
    .expect("seed matrix")
}

struct RunMetrics {
    wall_sec: f64,
    sim_sec: f64,
    wire_bytes: u64,
    predicted_nnz: u64,
    observed_nnz: u64,
    /// Distinct multiplication strategies the plan executed.
    matmul_strategies: Vec<String>,
    bits: Vec<u64>,
}

fn run(adaptive: bool, link: &BlockedMatrix, r0: &BlockedMatrix) -> RunMetrics {
    let (p, out) = program();
    let mut s = Session::builder()
        .workers(WORKERS)
        .local_threads(LOCAL_THREADS)
        .block_size(BLOCK)
        .planner(PlannerConfig {
            density_adaptive: adaptive,
            ..PlannerConfig::default()
        })
        .build();
    s.bind("link", link.clone()).expect("bind link");
    s.bind("R0", r0.clone()).expect("bind R0");
    let (report, wall) = timed(|| s.run(&p).expect("pagerank run"));
    let mut strategies: Vec<String> = report
        .trace
        .steps
        .iter()
        .filter(|st| matches!(st.kind.as_str(), "RMM1" | "RMM2" | "CPMM"))
        .map(|st| st.kind.clone())
        .collect();
    strategies.sort();
    strategies.dedup();
    let bits = s
        .value(out)
        .expect("rank block")
        .to_dense()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    RunMetrics {
        wall_sec: wall,
        sim_sec: report.sim.total_sec(),
        wire_bytes: report.trace.wire_total(),
        predicted_nnz: report.trace.predicted_nnz_total(),
        observed_nnz: report.trace.observed_nnz_total(),
        matmul_strategies: strategies,
        bits,
    }
}

fn json_run(m: &RunMetrics) -> String {
    JsonObj::new()
        .f64("wall_sec", m.wall_sec)
        .f64("sim_sec", m.sim_sec)
        .u64("wire_bytes", m.wire_bytes)
        .u64("predicted_nnz", m.predicted_nnz)
        .u64("observed_nnz", m.observed_nnz)
        .str("matmul_strategies", &m.matmul_strategies.join("+"))
        .build()
}

fn main() {
    let mut failures = Vec::new();
    let r0 = seeds_matrix();
    let mut sweep = Vec::new();

    for (idx, &edges) in EDGES.iter().enumerate() {
        let adjacency = powerlaw_graph(NODES, edges, BLOCK, 3);
        let link = row_normalize(&adjacency).expect("row normalize");
        let nnz = link.nnz();
        let adaptive = run(true, &link, &r0);
        let blind = run(false, &link, &r0);

        let cut = 1.0 - adaptive.wire_bytes as f64 / blind.wire_bytes.max(1) as f64;
        let identical = adaptive.bits == blind.bits;
        let sparsest = idx == EDGES.len() - 1;

        header(&format!(
            "density: pagerank {NODES} nodes, {edges} edge target (nnz {nnz})"
        ));
        println!(
            "  adaptive: wall {:>8}  wire {:>9}  matmul {}",
            fmt_sec(adaptive.wall_sec),
            adaptive.wire_bytes,
            adaptive.matmul_strategies.join("+"),
        );
        println!(
            "  blind:    wall {:>8}  wire {:>9}  matmul {}",
            fmt_sec(blind.wall_sec),
            blind.wire_bytes,
            blind.matmul_strategies.join("+"),
        );
        println!(
            "  wire cut: {:.1}%{}   outputs: {}",
            cut * 100.0,
            if sparsest { "  (gate: >=30%)" } else { "" },
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );

        if !identical {
            failures.push(format!("{edges} edges: adaptive and blind outputs diverge"));
        }
        if sparsest && cut < 0.30 {
            failures.push(format!(
                "{edges} edges: adaptive cut wire only {:.1}% (< 30%)",
                cut * 100.0
            ));
        }

        sweep.push(
            JsonObj::new()
                .u64("edge_target", edges as u64)
                .u64("link_nnz", nnz as u64)
                .raw("adaptive", &json_run(&adaptive))
                .raw("blind", &json_run(&blind))
                .f64("wire_cut", cut)
                .bool("bit_identical", identical)
                .build(),
        );
    }

    let mut json = JsonObj::new()
        .u64("workers", WORKERS as u64)
        .u64("local_threads", LOCAL_THREADS as u64)
        .u64("block", BLOCK as u64)
        .u64("nodes", NODES as u64)
        .u64("seeds", SEEDS as u64)
        .u64("iterations", ITERS as u64)
        .raw("sweep", &format!("[{}]", sweep.join(",")))
        .build();
    json.push('\n');
    std::fs::write("BENCH_density.json", &json).expect("write BENCH_density.json");
    println!("\nwrote BENCH_density.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
