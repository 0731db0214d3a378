//! Memory-certificate benchmark: liveness-spliced early frees vs the
//! keep-until-run-end baseline, on GNMF and PageRank.
//!
//! Two experiments per application, written to `BENCH_memory.json` and
//! gated (non-zero exit fails `scripts/verify.sh`):
//!
//! 1. **Certificate** — prepare the program with frees spliced and
//!    without, run both against unbounded stores, and check the static
//!    contract: the engine's measured per-step residency never exceeds
//!    the plan's certified peak, and the spliced run's outputs are
//!    bit-identical to the baseline's.
//!
//! 2. **Halved RAM** — re-run both modes against a disk-backed store
//!    whose byte budget is *half the baseline's observed peak*. The
//!    engine charges its residency against the budget after every step
//!    (`SharedStore::set_external_pressure`), so the baseline's
//!    accumulated intermediates displace the bound inputs to disk,
//!    while the early-free plan's footprint fits. Early frees must cut
//!    the observed peak footprint by ≥25% and strictly reduce spilled
//!    bytes — while still producing bit-identical outputs.

use dmac_apps::{Gnmf, PageRank};
use dmac_bench::{fmt_bytes, header, LOCAL_THREADS, WORKERS};
use dmac_cluster::json::JsonObj;
use dmac_core::planner::PlannerConfig;
use dmac_core::store::StoreStats;
use dmac_core::{Session, SharedStore};
use dmac_data::uniform_sparse;
use dmac_lang::Program;
use dmac_matrix::BlockedMatrix;
use std::path::PathBuf;

const BLOCK: usize = 8;
const SEED: u64 = 42;

/// One application the bench drives through both experiments.
struct App {
    name: &'static str,
    program: Program,
    /// Load bindings the program needs.
    bindings: Vec<(&'static str, BlockedMatrix)>,
    /// Names of the stored results to compare bit-for-bit.
    outputs: &'static [&'static str],
}

fn apps() -> Vec<App> {
    let mut out = Vec::new();

    let g = Gnmf {
        rows: 96,
        cols: 64,
        sparsity: 0.3,
        rank: 8,
        iterations: 6,
    };
    let mut p = Program::new();
    g.build(&mut p).expect("gnmf program");
    out.push(App {
        name: "gnmf",
        program: p,
        bindings: vec![("V", uniform_sparse(g.rows, g.cols, g.sparsity, BLOCK, 5))],
        outputs: &["W", "H"],
    });

    let pr = PageRank {
        nodes: 96,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 12,
    };
    let adj = uniform_sparse(pr.nodes, pr.nodes, pr.link_sparsity, BLOCK, 6);
    let link = dmac_data::row_normalize(&adj).expect("row normalize");
    let d = BlockedMatrix::from_fn(1, pr.nodes, BLOCK, |_, _| 1.0 / pr.nodes as f64).unwrap();
    let mut p = Program::new();
    pr.build(&mut p).expect("pagerank program");
    out.push(App {
        name: "pagerank",
        program: p,
        bindings: vec![("link", link), ("D", d)],
        outputs: &["rank"],
    });

    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dmac-bench-memory-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

/// Prepare and run `app` once over `store`, with or without spliced
/// frees. Returns `(certified_peak, observed_step_peak, store stats,
/// output bits)`.
fn run_once(app: &App, store: SharedStore, splice: bool) -> (u64, u64, StoreStats, Vec<Vec<u64>>) {
    let mut s = Session::builder()
        .workers(WORKERS)
        .local_threads(LOCAL_THREADS)
        .block_size(BLOCK)
        .seed(SEED)
        .planner(PlannerConfig {
            splice_frees: splice,
            ..PlannerConfig::default()
        })
        .store(store.clone())
        .build();
    for (name, m) in &app.bindings {
        s.bind(name, m.clone()).expect("bind");
    }
    let prep = s.prepare(&app.program).expect("prepare");
    let report = s.run_prepared(&prep).expect("run");
    let out = app
        .outputs
        .iter()
        .map(|n| bits(&s.env_value(n).expect(n)))
        .collect();
    (
        prep.certificate().peak,
        report.trace.peak_resident(),
        store.stats(),
        out,
    )
}

fn bench_app(app: &App, failures: &mut Vec<String>) -> String {
    header(&format!("memory: {} early frees vs keep-all", app.name));

    // 1. Certificate contract, unbounded.
    let (cert_off, obs_off, _, bits_off) = run_once(app, SharedStore::new(), false);
    let (cert_on, obs_on, _, bits_on) = run_once(app, SharedStore::new(), true);
    for (tag, cert, obs) in [("keep-all", cert_off, obs_off), ("frees", cert_on, obs_on)] {
        println!(
            "  {tag:>8}: certified peak {:>10}  observed {:>10}",
            fmt_bytes(cert),
            fmt_bytes(obs),
        );
        if obs > cert {
            failures.push(format!(
                "{}: {tag} observed resident {obs} exceeds certified peak {cert}",
                app.name
            ));
        }
    }
    if bits_on != bits_off {
        failures.push(format!("{}: spliced frees changed the outputs", app.name));
    }

    // 2. Both modes again under half the baseline's observed peak.
    let budget = obs_off / 2;
    let (_, _, off, bits_capped_off) = run_once(
        app,
        SharedStore::with_capacity_and_disk(budget, temp_dir(&format!("{}-off", app.name)))
            .unwrap(),
        false,
    );
    let (_, _, on, bits_capped_on) = run_once(
        app,
        SharedStore::with_capacity_and_disk(budget, temp_dir(&format!("{}-on", app.name))).unwrap(),
        true,
    );

    let reduction = 1.0 - on.peak_footprint as f64 / off.peak_footprint as f64;
    println!("  halved RAM: budget {}", fmt_bytes(budget));
    println!(
        "  peak footprint: keep-all {}  frees {}  ({:.1}% lower)",
        fmt_bytes(off.peak_footprint),
        fmt_bytes(on.peak_footprint),
        100.0 * reduction,
    );
    println!(
        "  spill traffic: keep-all {} spills / {}   frees {} spills / {}",
        off.spills,
        fmt_bytes(off.spill_bytes),
        on.spills,
        fmt_bytes(on.spill_bytes),
    );

    if reduction < 0.25 {
        failures.push(format!(
            "{}: early frees cut the observed peak by only {:.1}% (< 25%)",
            app.name,
            100.0 * reduction
        ));
    }
    if on.spill_bytes >= off.spill_bytes {
        failures.push(format!(
            "{}: spill bytes not strictly reduced ({} vs {})",
            app.name, on.spill_bytes, off.spill_bytes
        ));
    }
    if off.dropped != 0 || on.dropped != 0 {
        failures.push(format!(
            "{}: disk-backed store dropped entries instead of spilling",
            app.name
        ));
    }
    let identical = bits_capped_off == bits_off && bits_capped_on == bits_off;
    println!(
        "  outputs: {}",
        if identical {
            "bit-identical across budgets and free modes"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        failures.push(format!(
            "{}: halved-RAM run diverged from the unbounded baseline",
            app.name
        ));
    }

    JsonObj::new()
        .u64("certified_peak_keep_all", cert_off)
        .u64("certified_peak_frees", cert_on)
        .u64("observed_peak_keep_all", obs_off)
        .u64("observed_peak_frees", obs_on)
        .u64("budget_bytes", budget)
        .u64("capped_peak_keep_all", off.peak_footprint)
        .u64("capped_peak_frees", on.peak_footprint)
        .f64("peak_reduction", reduction)
        .u64("spills_keep_all", off.spills)
        .u64("spills_frees", on.spills)
        .u64("spill_bytes_keep_all", off.spill_bytes)
        .u64("spill_bytes_frees", on.spill_bytes)
        .bool("bit_identical", identical)
        .build()
}

fn main() {
    let mut failures = Vec::new();

    let mut json = JsonObj::new()
        .u64("workers", WORKERS as u64)
        .u64("local_threads", LOCAL_THREADS as u64)
        .u64("block", BLOCK as u64);
    for app in apps() {
        let row = bench_app(&app, &mut failures);
        json = json.raw(app.name, &row);
    }
    let mut json = json.build();
    json.push('\n');
    std::fs::write("BENCH_memory.json", &json).expect("write BENCH_memory.json");
    println!("\nwrote BENCH_memory.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
