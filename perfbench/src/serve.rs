//! `serve-mix`: an in-process `Server` under a closed-loop request mix.
//!
//! Each client thread owns one connection and cycles through the mix:
//! submit the smoke GNMF script (it stores its factors, so it writes),
//! submit the PageRank script, fetch a stored matrix, lint a script.
//! Every reply is checked: submits against the trace digest
//! (`golden_fnv`) of a local serial run, fetches against
//! `dmac_serve::smoke::serial_reference`, lints against a local lint.

use std::time::{Duration, Instant};

use dmac::analyze::lint_script;
use dmac::core::{Session, SharedStore};
use dmac::lang::normalize::fnv1a;
use dmac::lang::parse_script;
use dmac::serve::smoke::{self, gnmf_script, pagerank_script, SmokeConfig};
use dmac::serve::{Client, Json, Server, ServerConfig};

use crate::layers::{self, WireCounts};
use crate::report::{self, Layers, Outcome, Pass, ServeLayer};
use crate::stats::{median, median_time};
use crate::sys::{self, CpuSplit};
use crate::trace::{self, Span, Tracer};
use crate::{err, Config};

/// Local compute threads per server session.
const LOCAL_THREADS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Length of the serve probe inside the GNMF workloads' traced runs.
const PROBE_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Submit(usize),
    Fetch,
    Lint,
}

/// One client's cycle.
const MIX: [Kind; 4] = [Kind::Submit(0), Kind::Submit(1), Kind::Fetch, Kind::Lint];

/// The server under test: executor pool of one job per client.
fn server_config(cfg: &Config) -> ServerConfig {
    ServerConfig {
        pool: cfg.clients,
        local_threads: LOCAL_THREADS,
        seed: cfg.seed,
        ..ServerConfig::default()
    }
}

/// A local session configured like every server session.
fn local_session(cfg: &Config, store: SharedStore) -> Session {
    let s = server_config(cfg);
    Session::builder()
        .workers(s.workers)
        .local_threads(s.local_threads)
        .block_size(s.block_size)
        .seed(s.seed)
        .store(store)
        .build()
}

/// One client's scripts and the replies they must get.
struct ClientPlan {
    session: String,
    scripts: [String; 2],
    golden: [u64; 2],
    stored: [Vec<String>; 2],
    fetch: String,
    fetch_shape: (usize, usize),
    fetch_bits: Vec<u64>,
    lint_ok: bool,
    lint_codes: Vec<String>,
}

/// Expected replies for client `c`, from local serial runs.
fn plan_client(cfg: &Config, c: usize) -> Result<ClientPlan, String> {
    let scripts = [gnmf_script(c), pagerank_script(c)];
    let mut local = local_session(cfg, SharedStore::new());
    let mut golden = [0; 2];
    let mut stored: [Vec<String>; 2] = Default::default();
    for (i, script) in scripts.iter().enumerate() {
        let parsed = parse_script(script).map_err(err)?;
        let report = local.run(&parsed.program).map_err(err)?;
        golden[i] = fnv1a(&report.trace.golden_summary());
        let mut names: Vec<String> = parsed
            .program
            .outputs()
            .iter()
            .filter_map(|(_, n)| n.clone())
            .collect();
        names.sort();
        names.dedup();
        stored[i] = names;
    }
    let s = server_config(cfg);
    let reference = smoke::serial_reference(
        &SmokeConfig {
            workers: s.workers,
            local_threads: s.local_threads,
            block_size: s.block_size,
            seed: s.seed,
            ..SmokeConfig::default()
        },
        c,
    );
    let fetch = smoke::stored_names(c)[0].clone();
    let m = local.env_value(&fetch).map_err(err)?;
    let lint = lint_script(&scripts[0]);
    Ok(ClientPlan {
        session: format!("mix-{c}"),
        golden,
        stored,
        fetch_shape: (m.rows(), m.cols()),
        fetch_bits: reference[0].clone(),
        fetch,
        lint_ok: !lint.has_errors(),
        lint_codes: lint
            .diagnostics
            .iter()
            .map(|d| d.code.to_string())
            .collect(),
        scripts,
    })
}

/// One request's outcome.
struct Sample {
    kind: Kind,
    lat: f64,
    result: Result<(), String>,
    exec_s: f64,
    wire: u64,
    peak: u64,
}

fn field_u64(j: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_u64()
}

/// Send one request of the mix and check its reply.
fn request(cli: &mut Client, p: &ClientPlan, kind: Kind, tr: &mut Tracer) -> Sample {
    let mut s = Sample {
        kind,
        lat: 0.0,
        result: Ok(()),
        exec_s: 0.0,
        wire: 0,
        peak: 0,
    };
    let t = Instant::now();
    s.result = match kind {
        Kind::Submit(i) => {
            let reply = tr.op(|tr| {
                tr.span("serve", "submit", || {
                    cli.submit(&p.session, &p.scripts[i], None)
                })
            });
            s.lat = t.elapsed().as_secs_f64();
            match reply {
                Ok(r) if r.golden_fnv != p.golden[i] => Err(format!(
                    "submit {i}: trace digest {:016x}, serial run {:016x}",
                    r.golden_fnv, p.golden[i]
                )),
                Ok(r) if r.stored != p.stored[i] => Err(format!(
                    "submit {i}: stored {:?}, want {:?}",
                    r.stored, p.stored[i]
                )),
                Ok(r) => {
                    s.exec_s = r
                        .report
                        .get("wall_sec")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    s.wire = field_u64(&r.report, &["shuffle_bytes"]).unwrap_or(0)
                        + field_u64(&r.report, &["broadcast_bytes"]).unwrap_or(0);
                    s.peak = field_u64(&r.report, &["trace", "peak_resident_bytes"]).unwrap_or(0);
                    Ok(())
                }
                Err(e) => Err(format!("submit {i}: {e}")),
            }
        }
        Kind::Fetch => {
            let reply = tr.op(|tr| tr.span("serve", "fetch", || cli.fetch(&p.fetch)));
            s.lat = t.elapsed().as_secs_f64();
            match reply {
                Ok((r, c, bits)) if (r, c) == p.fetch_shape && bits == p.fetch_bits => Ok(()),
                Ok(_) => Err(format!("fetch {}: differs from the serial replay", p.fetch)),
                Err(e) => Err(format!("fetch {}: {e}", p.fetch)),
            }
        }
        Kind::Lint => {
            let reply = tr.op(|tr| tr.span("serve", "lint", || cli.lint(&p.scripts[0])));
            s.lat = t.elapsed().as_secs_f64();
            match reply {
                Ok((ok, diags))
                    if ok == p.lint_ok && diags.iter().map(|d| &d.code).eq(p.lint_codes.iter()) =>
                {
                    Ok(())
                }
                Ok((ok, diags)) => Err(format!(
                    "lint: ok={ok} with {} diagnostics, local lint ok={} with {}",
                    diags.len(),
                    p.lint_ok,
                    p.lint_codes.len()
                )),
                Err(e) => Err(format!("lint: {e}")),
            }
        }
    };
    s
}

/// A started server and its connected clients.
struct Rig {
    server: Server,
    clients: Vec<(Client, ClientPlan)>,
}

/// Set-up as timed by `setup_s`: start and bind the server, connect the
/// clients, and submit each client's scripts once, which fills the plan
/// cache (the server's first `prepare`).
fn setup(cfg: &Config) -> Result<(Rig, f64), String> {
    let plans = (0..cfg.clients)
        .map(|c| plan_client(cfg, c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut off = Tracer::new(false, Instant::now(), 0);
    let t0 = Instant::now();
    let server = Server::start(server_config(cfg)).map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::new();
    for p in plans {
        let mut cli = Client::connect(server.addr()).map_err(err)?;
        for kind in [Kind::Submit(0), Kind::Submit(1)] {
            request(&mut cli, &p, kind, &mut off).result?;
        }
        clients.push((cli, p));
    }
    Ok((Rig { server, clients }, t0.elapsed().as_secs_f64()))
}

/// Drain the server and join its threads.
fn stop(mut rig: Rig) -> Result<(), String> {
    let (cli, _) = rig.clients.first_mut().ok_or("no clients")?;
    cli.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    rig.server.wait();
    Ok(())
}

/// Executor threads run the jobs (each on its session's simulated
/// cluster); everything else in the process is the coordinating side.
fn cpu() -> CpuSplit {
    let exec = sys::named_threads_cpu_s("dmac-serve-exec");
    CpuSplit {
        coord_s: sys::self_cpu_s() - exec,
        worker_s: exec,
    }
}

/// All clients in closed loops until `seconds` have passed and, between
/// them, at least `min_ops` requests were sent. Clients stop only at
/// the end of a cycle, so every request kind counts equally.
fn pass(
    rig: &mut Rig,
    t0: Instant,
    traced: bool,
    seconds: f64,
    min_ops: usize,
) -> (Pass, Vec<Sample>) {
    let clients = rig.clients.len().max(1);
    let min_cycles = min_ops.div_ceil(MIX.len() * clients).max(1);
    let cpu0 = cpu();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let cap = start + Duration::from_secs_f64(3.0 * seconds + 10.0);
    let per_client: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, (cli, plan))| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, t0, i as u32);
                    let mut samples = Vec::new();
                    let mut cycles = 0;
                    loop {
                        for kind in MIX {
                            samples.push(request(cli, plan, kind, &mut tr));
                        }
                        cycles += 1;
                        let now = Instant::now();
                        if (now >= end && cycles >= min_cycles) || now >= cap {
                            break;
                        }
                    }
                    (samples, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut p = Pass {
        window_s: start.elapsed().as_secs_f64(),
        cpu: cpu().since(&cpu0),
        ..Pass::default()
    };
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_client {
        samples.extend(s);
        spans.push(sp);
    }
    p.spans = trace::merge(spans);
    for s in &samples {
        p.attempted += 1;
        match &s.result {
            Ok(()) => {
                p.lat.push(s.lat);
                p.wire_bytes += s.wire;
                p.peak_bytes = p.peak_bytes.max(s.peak);
            }
            Err(e) => p.fail(e.clone()),
        }
    }
    (p, samples)
}

fn hit_rate(rig: &mut Rig) -> Result<f64, String> {
    let (cli, _) = rig.clients.first_mut().ok_or("no clients")?;
    let stats = cli.stats().map_err(err)?;
    let pc = stats.get("plan_cache").ok_or("stats without plan_cache")?;
    let n = |k: &str| pc.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    Ok(n("hits") / (n("hits") + n("misses")).max(1.0))
}

/// Serve-layer numbers from a traced pass's samples.
fn serve_layer(samples: &[Sample], plan_cache_hit_rate: f64) -> ServeLayer {
    let ok = |k: fn(Kind) -> bool| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|s| s.result.is_ok() && k(s.kind))
            .collect()
    };
    let submits = ok(|k| matches!(k, Kind::Submit(_)));
    let lat = |v: &[&Sample]| median(&v.iter().map(|s| s.lat).collect::<Vec<_>>());
    ServeLayer {
        submit_rtt_s: lat(&submits),
        fetch_rtt_s: lat(&ok(|k| k == Kind::Fetch)),
        lint_rtt_s: lat(&ok(|k| k == Kind::Lint)),
        exec_s: median(&submits.iter().map(|s| s.exec_s).collect::<Vec<_>>()),
        overhead_s: median(&submits.iter().map(|s| s.lat - s.exec_s).collect::<Vec<_>>()),
        plan_cache_hit_rate,
    }
}

/// A short serve-mix run for the serve-layer numbers of the other
/// workloads' traced runs.
pub fn probe(cfg: &Config) -> Result<ServeLayer, String> {
    let (mut rig, _) = setup(cfg)?;
    let (p, samples) = pass(&mut rig, Instant::now(), true, PROBE_SECONDS, 1);
    if p.failed > 0 {
        return Err(format!("serve probe failed: {:?}", p.errors));
    }
    let layer = serve_layer(&samples, hit_rate(&mut rig)?);
    stop(rig)?;
    Ok(layer)
}

/// Run `serve-mix`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let s = server_config(cfg);
    out.note(format!(
        "serve-mix: in-process server, pool {}, {} simulated workers, local_threads {}, \
         block {}, {} clients with one connection each, mix {MIX:?}",
        s.pool, s.workers, s.local_threads, s.block_size, cfg.clients
    ));
    if let Err(e) = run_into(cfg, &mut out) {
        out.error(e);
    }
    out
}

fn run_into(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut rig = None;
    for i in 0..SETUP_REPS {
        let (r, s) = setup(cfg)?;
        setups.push(s);
        if i + 1 < SETUP_REPS {
            stop(r)?;
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("SETUP_REPS > 0");
    let t0 = Instant::now();
    // Warm-up: one full cycle per client.
    let (warm, _) = pass(&mut rig, t0, false, 0.0, 1);
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.errors));
    }
    if !cfg.trace {
        let (p, _) = pass(&mut rig, t0, false, cfg.seconds, cfg.min_ops);
        p.account(out);
        report::end_to_end(out, &p, &setups);
    } else {
        let half = cfg.seconds / 2.0;
        let (untraced, _) = pass(&mut rig, t0, false, half, 1);
        let (traced, samples) = pass(&mut rig, t0, true, half, 1);
        untraced.account(out);
        traced.account(out);
        let serve = serve_layer(&samples, hit_rate(&mut rig)?);
        let layers = local_layers(cfg, &untraced, serve)?;
        report::per_layer(out, &layers, &untraced, &traced);
        cfg.write_trace(&traced.spans, out)?;
    }
    stop(rig)
}

/// The server's sessions and cluster are not reachable from outside, so
/// the core, analyze, matrix, cluster and store numbers of `serve-mix`
/// come from a local session configured like a server session, running
/// the same scripts.
fn local_layers(cfg: &Config, untraced: &Pass, serve: ServeLayer) -> Result<Layers, String> {
    let store = SharedStore::new();
    let mut session = local_session(cfg, store.clone());
    let block = server_config(cfg).block_size;
    let scripts = [gnmf_script(0), pagerank_script(0)];
    let t0 = session.transport_stats();
    let (mut parse, mut prepare, mut run, mut verify) = (0.0, 0.0, 0.0, 0.0);
    let mut shapes = Vec::new();
    let mut runs = 0;
    for script in &scripts {
        parse += median_time(31, || parse_script(script).map(drop).map_err(err))?;
        let program = parse_script(script).map_err(err)?.program;
        prepare += median_time(31, || session.prepare(&program).map(drop).map_err(err))?;
        let prep = session.prepare(&program).map_err(err)?;
        run += median_time(11, || session.run_prepared(&prep).map(drop).map_err(err))?;
        runs += 11;
        verify += layers::verify_s(&program, block, session.workers())?;
        shapes.extend(layers::matmul_shapes(&program, prep.plan()));
    }
    let t1 = session.transport_stats();
    let n = scripts.len() as f64;
    let program = parse_script(&scripts[0]).map_err(err)?.program;
    let shape_of = |name: &str| -> Result<(usize, usize), String> {
        let d = program
            .matrices()
            .iter()
            .find(|d| d.name == name)
            .ok_or(format!("no matrix {name}"))?;
        Ok((d.stats.rows, d.stats.cols))
    };
    let ((vr, vc), (wr, wc)) = (shape_of("Vc0")?, shape_of("Wc0")?);
    let v = dmac::data::dense_random(vr, vc, block, cfg.seed);
    let w = dmac::data::dense_random(wr, wc, block, cfg.seed ^ 1);
    let (repartition_s, broadcast_s) = layers::cluster_probe(&mut session, &v, &w)?;
    let st = store.stats();
    Ok(Layers {
        parse_s: parse / n,
        prepare_s: prepare / n,
        verify_s: verify / n,
        run_s: run / n,
        gemm_gflops: layers::gemm_gflops(&shapes, block),
        gemm_flops_per_op: layers::flops(&shapes) as f64 / MIX.len() as f64,
        repartition_s,
        broadcast_s,
        wire: WireCounts::per_op(&t0, &t1, runs),
        cpu_per_op: untraced.cpu_per_op(),
        store_peak_bytes: st.peak_footprint as f64,
        spill_bytes_per_op: st.spill_bytes as f64 / runs as f64,
        serve,
    })
}
