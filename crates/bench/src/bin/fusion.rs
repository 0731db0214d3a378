//! Cell-wise fusion benchmark: GNMF and PageRank with the planner's fusion
//! pass on vs off, plus the `fusion_min_blocks` threshold behaviour.
//!
//! For each large workload the bin runs the identical program twice (same
//! seed, same bindings) — once with fusion disabled, once with the *default*
//! planner (fusion on, block-count threshold active) — and compares:
//!
//! * wall-clock time,
//! * blocks materialized by the cell-wise operator family
//!   (`add`/`sub`/`cell_mul`/`cell_div`/`map`/`fused` spans),
//! * result-buffer-pool counters,
//! * the output matrices, bit for bit.
//!
//! The large workloads are sized so every update chain's output grid spans
//! at least [`PlannerConfig::default`]'s `fusion_min_blocks` — fusion must
//! fire under the production config, not a hand-tuned one. A third, *tiny*
//! workload (the shape behind the original BENCH_fusion wall-time
//! regression) checks the other side of the threshold: the default planner
//! must leave it unfused (identical cell-wise materializations to the
//! fusion-off run), while force-fusing it stays bit-identical.
//!
//! Results land in `BENCH_fusion.json` (relative to the working directory;
//! `scripts/verify.sh` runs from the repo root). The bin exits non-zero —
//! failing `verify.sh` — if any run changes a single output bit, if GNMF's
//! cell-wise materializations drop by less than 30%, or if the threshold
//! fails to skip the tiny workload.

use dmac_apps::{Gnmf, PageRank};
use dmac_bench::{fmt_sec, header, timed, LOCAL_THREADS, WORKERS};
use dmac_cluster::json::JsonObj;
use dmac_core::engine::ExecReport;
use dmac_core::planner::PlannerConfig;
use dmac_core::Session;
use dmac_data::{powerlaw_graph, uniform_sparse};
use dmac_matrix::BlockedMatrix;

const BLOCK: usize = 16;
const SEED: u64 = 11;

/// Primitive spans that materialize cell-wise results.
const CELLWISE_OPS: [&str; 6] = ["add", "sub", "cell_mul", "cell_div", "map", "fused"];

/// The three planner configurations under comparison.
#[derive(Clone, Copy)]
enum Mode {
    /// Fusion pass disabled entirely.
    Off,
    /// Production config: fusion on, `fusion_min_blocks` threshold active.
    Default,
    /// Fusion forced (`fusion_min_blocks = 1`) regardless of grid size.
    Forced,
}

impl Mode {
    fn planner(self) -> PlannerConfig {
        match self {
            Mode::Off => PlannerConfig {
                fuse_cellwise: false,
                ..PlannerConfig::default()
            },
            Mode::Default => PlannerConfig::default(),
            Mode::Forced => PlannerConfig {
                fusion_min_blocks: 1,
                ..PlannerConfig::default()
            },
        }
    }
}

/// Everything we record about one run of one workload.
struct RunMetrics {
    wall_sec: f64,
    /// Simulated-clock seconds (compute + modelled network).
    sim_sec: f64,
    /// Blocks written by cell-wise-family primitive spans.
    cellwise_blocks: usize,
    /// Number of cell-wise-family primitive spans.
    cellwise_spans: usize,
    /// Number of `fused` spans specifically (threshold evidence).
    fused_spans: usize,
    pool_reused: usize,
    pool_allocated: usize,
    /// Output matrices as raw bit patterns, for exact comparison.
    outputs: Vec<Vec<u64>>,
}

fn session(mode: Mode) -> Session {
    Session::builder()
        .workers(WORKERS)
        .local_threads(LOCAL_THREADS)
        .block_size(BLOCK)
        .seed(SEED)
        .planner(mode.planner())
        .build()
}

fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

fn span_counts(report: &ExecReport) -> (usize, usize, usize) {
    let mut blocks = 0;
    let mut spans = 0;
    let mut fused = 0;
    for step in &report.trace.steps {
        for span in &step.spans {
            if CELLWISE_OPS.contains(&span.op) {
                blocks += span.blocks;
                spans += 1;
            }
            if span.op == "fused" {
                fused += 1;
            }
        }
    }
    (blocks, spans, fused)
}

fn metrics(report: &ExecReport, wall: f64, outputs: Vec<Vec<u64>>) -> RunMetrics {
    let (cellwise_blocks, cellwise_spans, fused_spans) = span_counts(report);
    RunMetrics {
        wall_sec: wall,
        sim_sec: report.sim.total_sec(),
        cellwise_blocks,
        cellwise_spans,
        fused_spans,
        pool_reused: report.trace.pool.reused,
        pool_allocated: report.trace.pool.allocated,
        outputs,
    }
}

fn run_gnmf(cfg: &Gnmf, mode: Mode) -> RunMetrics {
    let v = uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    let mut s = session(mode);
    let ((report, handles), wall) = timed(|| cfg.run(&mut s, v).expect("gnmf run"));
    let w = s.value(handles.w).expect("W");
    let h = s.value(handles.h).expect("H");
    metrics(&report, wall, vec![bits(&w), bits(&h)])
}

fn run_pagerank(cfg: &PageRank, mode: Mode) -> RunMetrics {
    let g = powerlaw_graph(cfg.nodes, cfg.nodes * 8, BLOCK, 3);
    let mut s = session(mode);
    let ((report, handles), wall) = timed(|| cfg.run(&mut s, &g).expect("pagerank run"));
    let rank = s.value(handles.rank).expect("rank");
    metrics(&report, wall, vec![bits(&rank)])
}

fn json_run(m: &RunMetrics) -> String {
    JsonObj::new()
        .f64("wall_sec", m.wall_sec)
        .f64("sim_sec", m.sim_sec)
        .u64("cellwise_blocks", m.cellwise_blocks as u64)
        .u64("cellwise_spans", m.cellwise_spans as u64)
        .u64("fused_spans", m.fused_spans as u64)
        .u64("pool_reused", m.pool_reused as u64)
        .u64("pool_allocated", m.pool_allocated as u64)
        .build()
}

fn print_run(label: &str, m: &RunMetrics) {
    println!(
        "  {label:<8} wall {:>8}  cellwise blocks {:>5} in {:>2} spans ({} fused)  pool reused/alloc {}/{}",
        fmt_sec(m.wall_sec),
        m.cellwise_blocks,
        m.cellwise_spans,
        m.fused_spans,
        m.pool_reused,
        m.pool_allocated,
    );
}

/// Compare one large workload's default-fused/unfused runs, print the
/// table, and return its JSON object. Pushes a message into `failures` for
/// each violated gate.
fn compare(
    name: &str,
    unfused: &RunMetrics,
    fused: &RunMetrics,
    gate_reduction: bool,
    failures: &mut Vec<String>,
) -> String {
    header(&format!("fusion: {name} (default planner vs fusion off)"));
    print_run("unfused:", unfused);
    print_run("fused:", fused);

    if fused.fused_spans == 0 {
        failures.push(format!(
            "{name}: sized over fusion_min_blocks yet the default planner fused nothing"
        ));
    }

    let reduction = 1.0 - fused.cellwise_blocks as f64 / unfused.cellwise_blocks.max(1) as f64;
    println!(
        "  materialization reduction: {:.1}%{}",
        reduction * 100.0,
        if gate_reduction {
            "  (gate: >=30%)"
        } else {
            ""
        },
    );
    if gate_reduction && reduction < 0.30 {
        failures.push(format!(
            "{name}: cell-wise materializations dropped only {:.1}% (< 30%)",
            reduction * 100.0
        ));
    }

    let identical = unfused.outputs == fused.outputs;
    println!(
        "  outputs: {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        failures.push(format!("{name}: fused outputs diverge from unfused"));
    }

    JsonObj::new()
        .raw("unfused", &json_run(unfused))
        .raw("fused", &json_run(fused))
        .f64("materialization_reduction", reduction)
        .bool("bit_identical", identical)
        .build()
}

/// The tiny-workload threshold check: under the default planner the chain
/// grids sit below `fusion_min_blocks`, so fusion must be skipped (same
/// cell-wise materializations as fusion-off, zero fused spans) while
/// force-fusing the same workload stays bit-identical.
fn tiny_threshold(failures: &mut Vec<String>) -> String {
    // The original BENCH_fusion regression shape: grids of 1–3 blocks per
    // factor, where the fused interpreter's dispatch overhead exceeded the
    // saved materialisations.
    let cfg = Gnmf {
        rows: 48,
        cols: 32,
        sparsity: 0.3,
        rank: 8,
        iterations: 2,
    };
    let unfused = run_gnmf(&cfg, Mode::Off);
    let default = run_gnmf(&cfg, Mode::Default);
    let forced = run_gnmf(&cfg, Mode::Forced);

    header("fusion: tiny gnmf (threshold must skip)");
    print_run("unfused:", &unfused);
    print_run("default:", &default);
    print_run("forced:", &forced);

    let skipped = default.fused_spans == 0 && default.cellwise_blocks == unfused.cellwise_blocks;
    println!(
        "  threshold: {}",
        if skipped {
            "skipped fusion (grids under fusion_min_blocks)"
        } else {
            "FUSED A TINY GRID"
        }
    );
    if !skipped {
        failures.push(format!(
            "tiny gnmf: default planner fused a grid under the threshold \
             ({} fused spans, {} vs {} cell-wise blocks)",
            default.fused_spans, default.cellwise_blocks, unfused.cellwise_blocks
        ));
    }
    if forced.fused_spans == 0 {
        failures.push("tiny gnmf: forced fusion produced no fused spans".to_string());
    }

    let identical = unfused.outputs == default.outputs && unfused.outputs == forced.outputs;
    println!(
        "  outputs: {}",
        if identical {
            "bit-identical across all three"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        failures.push("tiny gnmf: outputs diverge across planner modes".to_string());
    }

    JsonObj::new()
        .raw("unfused", &json_run(&unfused))
        .raw("default", &json_run(&default))
        .raw("forced", &json_run(&forced))
        .bool("fusion_skipped", skipped)
        .bool("bit_identical", identical)
        .build()
}

fn main() {
    let mut failures = Vec::new();

    // Sized so W (512×32 → 32×2 blocks) and H (32×256 → 2×16 blocks) both
    // clear the default 32-block fusion threshold.
    let gnmf = Gnmf {
        rows: 512,
        cols: 256,
        sparsity: 0.1,
        rank: 32,
        iterations: 3,
    };
    let gnmf_unfused = run_gnmf(&gnmf, Mode::Off);
    let gnmf_fused = run_gnmf(&gnmf, Mode::Default);
    let gnmf_json = compare("gnmf", &gnmf_unfused, &gnmf_fused, true, &mut failures);

    // rank is 1×512 → 32 blocks: exactly at the threshold.
    let pagerank = PageRank {
        nodes: 512,
        link_sparsity: 0.05,
        damping: 0.85,
        iterations: 5,
    };
    let pr_unfused = run_pagerank(&pagerank, Mode::Off);
    let pr_fused = run_pagerank(&pagerank, Mode::Default);
    let pr_json = compare("pagerank", &pr_unfused, &pr_fused, false, &mut failures);

    let tiny_json = tiny_threshold(&mut failures);

    let workloads = JsonObj::new()
        .raw("gnmf", &gnmf_json)
        .raw("pagerank", &pr_json)
        .raw("tiny_gnmf", &tiny_json)
        .build();
    let mut json = JsonObj::new()
        .u64("workers", WORKERS as u64)
        .u64("local_threads", LOCAL_THREADS as u64)
        .u64("block", BLOCK as u64)
        .raw("workloads", &workloads)
        .build();
    json.push('\n');
    std::fs::write("BENCH_fusion.json", &json).expect("write BENCH_fusion.json");
    println!("\nwrote BENCH_fusion.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
