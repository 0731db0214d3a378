//! Durable-tier benchmark: spill-under-memory-pressure and
//! checkpoint-resume vs full lineage replay.
//!
//! Two experiments over the same checkpointed GNMF workload, both written
//! to `BENCH_spill.json` and both gated (non-zero exit fails
//! `scripts/verify.sh`):
//!
//! 1. **Spill roundtrip** — run once against an *unconstrained*
//!    disk-backed store to measure the resident working set, then re-run
//!    with a RAM budget of half that. The squeezed run must complete by
//!    spilling cold entries to the durable tier and transparently
//!    reloading them (spills > 0, loads > 0, dropped == 0) and its
//!    results must be **bit-for-bit identical** to the unconstrained run.
//!
//! 2. **Resume vs replay** — crash the run at the last manifest publish,
//!    restart over the same directory, and resume from the newest durable
//!    snapshot. The resumed driver must re-run strictly fewer iterations
//!    than a full lineage replay and still match the healthy bits
//!    exactly.

use dmac_apps::Gnmf;
use dmac_bench::{fmt_bytes, fmt_sec, header, timed, LOCAL_THREADS, WORKERS};
use dmac_cluster::json::JsonObj;
use dmac_cluster::{CrashPoint, FaultPlan};
use dmac_core::{CoreError, Session, SharedStore};
use dmac_data::uniform_sparse;
use dmac_matrix::BlockedMatrix;
use std::path::PathBuf;

const BLOCK: usize = 8;
const SEED: u64 = 42;

fn cfg() -> Gnmf {
    Gnmf {
        rows: 96,
        cols: 64,
        sparsity: 0.3,
        rank: 8,
        iterations: 6,
    }
}

fn input() -> BlockedMatrix {
    let c = cfg();
    uniform_sparse(c.rows, c.cols, c.sparsity, BLOCK, 5)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dmac-bench-spill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn session_over(store: SharedStore, plan: Option<FaultPlan>) -> Session {
    let mut b = Session::builder()
        .workers(WORKERS)
        .local_threads(LOCAL_THREADS)
        .block_size(BLOCK)
        .seed(SEED)
        .store(store);
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    b.build()
}

fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

fn factors(s: &Session) -> (Vec<u64>, Vec<u64>) {
    (
        bits(&s.env_value("W").expect("W")),
        bits(&s.env_value("H").expect("H")),
    )
}

fn spill_roundtrip(failures: &mut Vec<String>) -> String {
    header("spill: GNMF under a halved RAM budget");
    let c = cfg();
    let v = input();

    // Unconstrained run: measures the resident working set and pins the
    // reference bits.
    let store = SharedStore::with_disk(temp_dir("uncapped")).unwrap();
    let mut s = session_over(store.clone(), None);
    let (run, wall_uncapped) = timed(|| c.run_checkpointed(&mut s, &v).expect("uncapped run"));
    assert_eq!(run.ran_iterations, c.iterations);
    let working_set = store.stats().bytes;
    let healthy = factors(&s);

    // Squeezed run: half the working set can never hold V, W, and H
    // resident together, so every iteration displaces something.
    let budget = working_set / 2;
    let store = SharedStore::with_capacity_and_disk(budget, temp_dir("capped")).unwrap();
    let mut s = session_over(store.clone(), None);
    let (run, wall_capped) = timed(|| c.run_checkpointed(&mut s, &v).expect("capped run"));
    assert_eq!(run.ran_iterations, c.iterations);
    let stats = store.stats();
    let got = factors(&s);

    println!(
        "  working set {}  budget {}  ({} workers, block {BLOCK})",
        fmt_bytes(working_set),
        fmt_bytes(budget),
        WORKERS,
    );
    println!(
        "  uncapped wall {:>8}   capped wall {:>8}",
        fmt_sec(wall_uncapped),
        fmt_sec(wall_capped),
    );
    println!(
        "  spills {} ({})  loads {} ({})  dropped {}",
        stats.spills,
        fmt_bytes(stats.spill_bytes),
        stats.loads,
        fmt_bytes(stats.load_bytes),
        stats.dropped,
    );

    if stats.spills == 0 || stats.loads == 0 {
        failures.push(format!(
            "spill: halved budget produced no spill traffic (spills {}, loads {})",
            stats.spills, stats.loads
        ));
    }
    if stats.dropped != 0 {
        failures.push(format!(
            "spill: disk-backed store dropped {} entries instead of spilling",
            stats.dropped
        ));
    }
    let identical = got == healthy;
    println!(
        "  outputs: {}",
        if identical {
            "bit-identical to unconstrained run"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        failures.push("spill: squeezed run diverged from unconstrained run".into());
    }

    JsonObj::new()
        .u64("working_set_bytes", working_set)
        .u64("budget_bytes", budget)
        .f64("wall_uncapped_sec", wall_uncapped)
        .f64("wall_capped_sec", wall_capped)
        .u64("spills", stats.spills)
        .u64("spill_bytes", stats.spill_bytes)
        .u64("loads", stats.loads)
        .u64("load_bytes", stats.load_bytes)
        .u64("dropped", stats.dropped)
        .bool("bit_identical", identical)
        .build()
}

fn resume_vs_replay(failures: &mut Vec<String>) -> String {
    header("resume: snapshot restart vs full lineage replay");
    let c = cfg();
    let v = input();

    // Healthy reference (also measures the full-replay wall time).
    let dir = temp_dir("resume-healthy");
    let store = SharedStore::with_disk(&dir).unwrap();
    let mut s = session_over(store, None);
    let (run, wall_full) = timed(|| c.run_checkpointed(&mut s, &v).expect("healthy run"));
    assert_eq!(run.ran_iterations, c.iterations);
    let healthy = factors(&s);

    // Crash at the *last* manifest publish: occurrences are 0-based and
    // the init checkpoint publishes phase 0, so occurrence `iterations`
    // is the publish of the final phase — the newest durable snapshot is
    // then phase `iterations - 1`.
    let dir = temp_dir("resume-crashed");
    let store = SharedStore::with_disk(&dir).unwrap();
    let plan = FaultPlan::crash(CrashPoint::BeforeManifestPublish, c.iterations);
    let mut s = session_over(store, Some(plan));
    let err = c.run_checkpointed(&mut s, &v).expect_err("must crash");
    assert!(matches!(err, CoreError::InjectedCrash(_)), "{err}");
    drop(s);

    // Restart over the same directory and resume.
    let store = SharedStore::with_disk(&dir).unwrap();
    store.recover().expect("recover");
    let mut s = session_over(store, None);
    let (run, wall_resume) = timed(|| c.run_checkpointed(&mut s, &v).expect("resumed run"));
    let got = factors(&s);

    println!(
        "  crashed at publish #{} of {}; resumed from phase {} and re-ran {} iteration(s)",
        c.iterations,
        c.iterations + 1,
        run.resumed_from,
        run.ran_iterations,
    );
    println!(
        "  full replay wall {:>8}   resume wall {:>8}",
        fmt_sec(wall_full),
        fmt_sec(wall_resume),
    );

    if run.resumed_from + run.ran_iterations != c.iterations {
        failures.push(format!(
            "resume: driver lost iterations ({} + {} != {})",
            run.resumed_from, run.ran_iterations, c.iterations
        ));
    }
    if run.ran_iterations >= c.iterations {
        failures.push(format!(
            "resume: re-ran {} of {} iterations — no cheaper than full replay",
            run.ran_iterations, c.iterations
        ));
    }
    let identical = got == healthy;
    println!(
        "  outputs: {}",
        if identical {
            "bit-identical to healthy run"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        failures.push("resume: recovered run diverged from healthy run".into());
    }

    JsonObj::new()
        .u64("iterations", c.iterations as u64)
        .u64("resumed_from", run.resumed_from as u64)
        .u64("ran_iterations", run.ran_iterations as u64)
        .f64("wall_full_replay_sec", wall_full)
        .f64("wall_resume_sec", wall_resume)
        .bool("bit_identical", identical)
        .build()
}

fn main() {
    let mut failures = Vec::new();

    let spill_json = spill_roundtrip(&mut failures);
    let resume_json = resume_vs_replay(&mut failures);

    let mut json = JsonObj::new()
        .u64("workers", WORKERS as u64)
        .u64("local_threads", LOCAL_THREADS as u64)
        .u64("block", BLOCK as u64)
        .raw("spill", &spill_json)
        .raw("resume", &resume_json)
        .build();
    json.push('\n');
    std::fs::write("BENCH_spill.json", &json).expect("write BENCH_spill.json");
    println!("\nwrote BENCH_spill.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
