//! `gnmf-inproc` and `gnmf-socket`: GNMF (paper Code 1) on a dense V,
//! one op per request from a single closed-loop client. The two
//! workloads differ only in the transport.

use std::time::{Duration, Instant};

use dmac::cluster::{SocketOptions, TransportStats};
use dmac::core::engine::ExecReport;
use dmac::core::{Session, SharedStore, StoreStats};
use dmac::lang::parse_script;
use dmac::matrix::BlockedMatrix;

use crate::layers::{self, WireCounts};
use crate::report::{self, Layers, Outcome, Pass};
use crate::stats::median;
use crate::sys::{self, CpuSplit};
use crate::trace::{self, Tracer};
use crate::{err, serve, Config};

/// Rows of V.
pub const ROWS: usize = 2048;
/// Columns of V.
pub const COLS: usize = 1024;
/// Factor rank.
pub const RANK: usize = 64;
/// Block size.
pub const BLOCK: usize = 128;
/// Ops run before timing, so V is placed (and, on sockets, installed on
/// the workers) and allocators are warm.
const WARMUP_OPS: usize = 3;
/// Ops the traced run takes its per-op transport and store counts over.
const COUNTED_OPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One multiplicative-update iteration of paper Code 1.
pub fn script() -> String {
    format!(
        "V = load(V, {ROWS}, {COLS}, 1.0)\n\
         W = random(W, {ROWS}, {RANK})\n\
         H = random(H, {RANK}, {COLS})\n\
         H = H * (W.t %*% V) / (W.t %*% W %*% H)\n\
         W = W * (V %*% H.t) / (W %*% H %*% H.t)\n\
         store(W)\n\
         store(H)\n"
    )
}

/// A session ready to serve ops.
struct Rig {
    session: Session,
    store: SharedStore,
    v: BlockedMatrix,
    socket: bool,
}

/// Bit patterns of the stored factors.
#[derive(PartialEq)]
struct Factors {
    w: Vec<u64>,
    h: Vec<u64>,
}

/// Set-up as timed by `setup_s`: generate V, build the session (launching
/// the workers on sockets), bind V, parse and prepare the program once.
fn setup(cfg: &Config, socket: bool) -> Result<(Rig, f64), String> {
    let t0 = Instant::now();
    let v = dmac::data::dense_random(ROWS, COLS, BLOCK, cfg.seed);
    let store = SharedStore::new();
    let builder = Session::builder()
        .workers(cfg.workers)
        .local_threads(cfg.threads)
        .block_size(BLOCK)
        .seed(cfg.seed)
        .store(store.clone());
    let mut session = if socket {
        builder
            .socket_transport(SocketOptions::default())
            .try_build()
            .map_err(|e| format!("worker launch failed: {e}"))?
    } else {
        builder.build()
    };
    session.bind("V", v.clone()).map_err(err)?;
    let parsed = parse_script(&script()).map_err(err)?;
    session.prepare(&parsed.program).map_err(err)?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Rig {
            session,
            store,
            v,
            socket,
        },
        setup_s,
    ))
}

/// Stop the workers and check that no child process outlives them.
fn teardown(mut rig: Rig) -> Result<(), String> {
    let stopped = rig
        .session
        .shutdown_transport()
        .map_err(|e| format!("worker shutdown was not clean: {e}"));
    drop(rig);
    let left = sys::children();
    stopped?;
    if left.is_empty() {
        Ok(())
    } else {
        Err(format!("worker processes outlived the run: {left:?}"))
    }
}

/// One op: parse, prepare, run.
fn op(rig: &mut Rig, script: &str, tr: &mut Tracer) -> Result<ExecReport, String> {
    tr.op(|tr| {
        let parsed = tr
            .span("lang", "parse_script", || parse_script(script))
            .map_err(err)?;
        let prep = tr
            .span("core", "prepare", || rig.session.prepare(&parsed.program))
            .map_err(err)?;
        tr.span("core", "run_prepared", || rig.session.run_prepared(&prep))
            .map_err(err)
    })
}

fn factors(session: &Session) -> Result<Factors, String> {
    let bits = |name: &str| -> Result<Vec<u64>, String> {
        let m = session.env_value(name).map_err(err)?;
        Ok(m.to_dense().data().iter().map(|x| x.to_bits()).collect())
    };
    Ok(Factors {
        w: bits("W")?,
        h: bits("H")?,
    })
}

/// The in-process oracle: one op on a fresh in-process session.
fn oracle(cfg: &Config) -> Result<Factors, String> {
    let (mut rig, _) = setup(cfg, false)?;
    op(
        &mut rig,
        &script(),
        &mut Tracer::new(false, Instant::now(), 0),
    )?;
    factors(&rig.session)
}

/// CPU split: on sockets the coordinator is this whole process and the
/// workers are the `dmac-workerd` children; in process, the logical
/// workers' tile tasks run on the compute pool threads, so the
/// coordinator is the main thread and the workers are the rest.
fn cpu(socket: bool) -> CpuSplit {
    let me = sys::self_cpu_s();
    if socket {
        CpuSplit {
            coord_s: me,
            worker_s: sys::children_cpu_s(),
        }
    } else {
        let main = sys::main_thread_cpu_s();
        CpuSplit {
            coord_s: main,
            worker_s: me - main,
        }
    }
}

/// Readings taken around a pass for the per-layer deltas.
struct Meters {
    transport: TransportStats,
    store: StoreStats,
}

fn meters(rig: &Rig) -> Meters {
    Meters {
        transport: rig.session.transport_stats(),
        store: rig.store.stats(),
    }
}

/// Closed loop until `seconds` have passed and at least `min_ops` ops
/// were attempted (capped at `3 * seconds + 10` s). Every op's factors
/// are checked bit for bit against the oracle.
fn pass(rig: &mut Rig, want: &Factors, tr: &mut Tracer, seconds: f64, min_ops: usize) -> Pass {
    let script = script();
    let mut p = Pass::default();
    let cpu0 = cpu(rig.socket);
    let start = Instant::now();
    let (end, cap) = (
        Duration::from_secs_f64(seconds),
        Duration::from_secs_f64(3.0 * seconds + 10.0),
    );
    while (start.elapsed() < end || (p.attempted as usize) < min_ops) && start.elapsed() < cap {
        p.attempted += 1;
        let t = Instant::now();
        let res = op(rig, &script, tr);
        let lat = t.elapsed().as_secs_f64();
        let checked = res.and_then(|report| match factors(&rig.session)? {
            ref got if got == want => Ok(report),
            _ => Err("factors differ from the in-process oracle".to_string()),
        });
        match checked {
            Ok(report) => {
                p.lat.push(lat);
                p.wire_bytes += report.comm.shuffle_bytes() + report.comm.broadcast_bytes();
                p.peak_bytes = p.peak_bytes.max(report.trace.peak_resident());
            }
            Err(e) => p.fail(e),
        }
    }
    p.window_s = start.elapsed().as_secs_f64();
    p.cpu = cpu(rig.socket).since(&cpu0);
    p
}

/// Run `gnmf-inproc` (`socket == false`) or `gnmf-socket`.
pub fn run(cfg: &Config, socket: bool) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!(
        "gnmf: V {ROWS}x{COLS} dense, rank {RANK}, block {BLOCK}, 1 iteration per op, \
         {} logical workers on the {} transport",
        cfg.workers,
        if socket { "socket" } else { "in-process" }
    ));
    if let Err(e) = run_into(cfg, socket, &mut out) {
        out.error(e);
    }
    out
}

fn run_into(cfg: &Config, socket: bool, out: &mut Outcome) -> Result<(), String> {
    let want = oracle(cfg)?;
    let mut setups = Vec::new();
    let mut rig = None;
    for i in 0..SETUP_REPS {
        let (r, s) = setup(cfg, socket)?;
        setups.push(s);
        if i + 1 < SETUP_REPS {
            teardown(r)?;
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("SETUP_REPS > 0");
    let t0 = Instant::now();
    let mut off = Tracer::new(false, t0, 0);
    let warm = pass(&mut rig, &want, &mut off, 0.0, WARMUP_OPS);
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.errors));
    }

    if !cfg.trace {
        let p = pass(&mut rig, &want, &mut off, cfg.seconds, cfg.min_ops);
        p.account(out);
        report::end_to_end(out, &p, &setups);
    } else {
        // Frame headers carry sequence numbers and matrix ids in
        // decimal, so framed bytes per op depend on how many ops ran
        // before: count them over a fixed stretch right after warm-up.
        let before = meters(&rig);
        let counted = pass(&mut rig, &want, &mut off, 0.0, COUNTED_OPS);
        let after = meters(&rig);
        // Half the window untraced (the overhead baseline), half traced.
        let half = cfg.seconds / 2.0;
        let untraced = pass(&mut rig, &want, &mut off, half, 1);
        let mut on = Tracer::new(true, t0, 0);
        let mut traced = pass(&mut rig, &want, &mut on, half, 1);
        traced.spans = on.into_spans();
        for p in [&counted, &untraced, &traced] {
            p.account(out);
        }
        let counts = (before, after, counted.ok() as usize);
        let layers = probe_layers(cfg, &mut rig, &untraced, &traced, counts)?;
        report::per_layer(out, &layers, &untraced, &traced);
        cfg.write_trace(&traced.spans, out)?;
    }
    teardown(rig)
}

/// Per-layer numbers: call spans from the traced pass, plus probes.
fn probe_layers(
    cfg: &Config,
    rig: &mut Rig,
    untraced: &Pass,
    traced: &Pass,
    (before, after, counted): (Meters, Meters, usize),
) -> Result<Layers, String> {
    let spans = &traced.spans;
    let parsed = parse_script(&script()).map_err(err)?;
    let prep = rig.session.prepare(&parsed.program).map_err(err)?;
    let shapes = layers::matmul_shapes(&parsed.program, prep.plan());
    let w = dmac::data::dense_random(ROWS, RANK, BLOCK, cfg.seed ^ 1);
    let (repartition_s, broadcast_s) = layers::cluster_probe(&mut rig.session, &rig.v, &w)?;
    Ok(Layers {
        parse_s: median(&trace::durations(spans, "lang", "parse_script")),
        prepare_s: median(&trace::durations(spans, "core", "prepare")),
        verify_s: layers::verify_s(&parsed.program, BLOCK, cfg.workers)?,
        run_s: median(&trace::durations(spans, "core", "run_prepared")),
        gemm_gflops: layers::gemm_gflops(&shapes, BLOCK),
        gemm_flops_per_op: layers::flops(&shapes) as f64,
        repartition_s,
        broadcast_s,
        wire: WireCounts::per_op(&before.transport, &after.transport, counted),
        cpu_per_op: untraced.cpu_per_op(),
        store_peak_bytes: after.store.peak_footprint as f64,
        spill_bytes_per_op: (after.store.spill_bytes - before.store.spill_bytes) as f64
            / counted.max(1) as f64,
        serve: serve::probe(cfg)?,
    })
}
