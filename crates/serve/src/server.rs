//! The dmac-serve server: admission control, dependency-aware
//! scheduling, plan cache, shared store, graceful drain.
//!
//! # Threading model
//!
//! * One **accept loop** (the thread [`Server::start`] spawns) polls a
//!   non-blocking listener and hands each connection to a thread.
//! * **Connection threads** read frames, decode requests, and either
//!   answer inline (explain / fetch / stats / shutdown — all read-only
//!   or instantaneous) or *admit* a `submit` into the bounded job
//!   queue. A full queue rejects with `busy` — backpressure, not
//!   unbounded buffering.
//! * A fixed **executor pool** pops admitted jobs and runs them. The
//!   worker that finishes a job writes the response directly to the
//!   client socket (a per-connection write mutex keeps frames intact).
//!
//! # Determinism under concurrency
//!
//! Executing programs concurrently must not change any result a
//! serialized replay of the same request log would produce. Two rules
//! deliver that:
//!
//! 1. **Conflicting jobs run in admission order.** A queued job is
//!    runnable only when its *name set* (load names + store names +
//!    its session id) is disjoint from every running job **and** every
//!    job admitted before it that is still queued. Jobs that touch the
//!    same matrix — or belong to the same session, whose cluster state
//!    is order-sensitive — therefore execute exactly as a serial
//!    replay would.
//! 2. **Disjoint jobs commute.** A program's results depend only on
//!    its script, its session's history, and the store entries it
//!    names; programs with disjoint name sets in different sessions
//!    cannot observe each other, so any interleaving is bit-identical
//!    to the serial order. (Byte-budget LRU eviction is the one
//!    exception — under capacity pressure eviction order depends on
//!    timing, which is why eviction only touches *unpinned* entries
//!    and the smoke/bench configs leave the store unbounded.)
//!
//! Store-name collisions between in-flight programs are additionally
//! *rejected* (error code `conflict`) via the store's write-intent
//! claims: first writer wins, the loser retries — two concurrent
//! writers to one name is almost always a client bug, and rejecting
//! beats silently serializing surprise overwrites.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dmac_analyze::{lint_script, Diagnostic};
use dmac_cluster::json::{arr_of, JsonArr, JsonObj};
use dmac_cluster::SocketOptions;
use dmac_core::{CoreError, Session, SharedStore};
use dmac_lang::normalize::fnv1a;
use dmac_lang::program::MatrixOrigin;
use dmac_lang::Program;

use crate::cache::{cache_key, PlanCache};
use crate::protocol::{self, code, read_frame, write_frame, Request};

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Simulated cluster workers per session.
    pub workers: usize,
    /// Run each session's cluster on real `dmac-workerd` processes over
    /// local TCP sockets instead of the in-process simulator. Results
    /// are proven byte-identical either way; this trades session-build
    /// latency (process launch) for a live conformance check on every
    /// operation.
    pub real_cluster: bool,
    /// Local compute threads per session's cluster.
    pub local_threads: usize,
    /// Block size for every session.
    pub block_size: usize,
    /// Data seed shared by all sessions — identical scripts produce
    /// identical matrices regardless of which session runs them.
    pub seed: u64,
    /// Executor pool size (concurrent program executions).
    pub pool: usize,
    /// Admission queue bound; a full queue rejects with `busy`.
    pub queue_cap: usize,
    /// Shared-store byte budget (`None` = unbounded). Leave unbounded
    /// when replay determinism matters — see the module docs.
    pub store_capacity: Option<u64>,
    /// Plan cache entry bound.
    pub plan_cache_cap: usize,
    /// Durable data directory (`None` = in-memory only). With a
    /// directory, the store spills under capacity pressure instead of
    /// dropping, every completed `store` is checkpointed, submitted
    /// scripts are persisted, and a restarted server recovers its named
    /// matrices and re-warms its plan cache from disk.
    pub data_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            real_cluster: false,
            local_threads: 2,
            block_size: 16,
            seed: 7,
            pool: 4,
            queue_cap: 64,
            store_capacity: None,
            plan_cache_cap: 128,
            data_dir: None,
        }
    }
}

/// One admitted `submit`.
struct Job {
    id: u64,
    session: String,
    program: Program,
    /// Original script text, persisted to the disk tier on plan-cache
    /// misses so a restarted server can re-warm the cache.
    script: String,
    /// Ordering footprint: load + store names, plus a session marker so
    /// same-session jobs never reorder.
    names: BTreeSet<String>,
    /// Store names claimed at admission; released when the job ends.
    store_names: Vec<String>,
    deadline: Option<Instant>,
    out: Arc<Mutex<TcpStream>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Name sets of currently executing jobs.
    running: Vec<(u64, BTreeSet<String>)>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    submitted: u64,
    completed: u64,
    exec_errors: u64,
    rejected_parse: u64,
    rejected_lint: u64,
    rejected_busy: u64,
    rejected_conflict: u64,
    rejected_deadline: u64,
    rejected_shutdown: u64,
    rejected_memory: u64,
}

/// Startup-recovery facts and runtime durability counters, reported by
/// the `stats` request.
#[derive(Debug, Default)]
struct DurabilityInfo {
    /// Store entries recovered from the latest valid snapshot.
    recovered: usize,
    /// Plans re-prepared from persisted scripts at startup.
    plans_warmed: usize,
    /// Snapshots published for completed `store` jobs (also the phase
    /// counter those snapshots are tagged with).
    checkpoints: AtomicU64,
    /// Checkpoint or script-persist failures (the job itself still
    /// succeeds — durability degrades, results don't).
    persist_errors: AtomicU64,
}

struct State {
    cfg: ServerConfig,
    store: SharedStore,
    cache: PlanCache,
    durability: DurabilityInfo,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    counters: Mutex<Counters>,
    /// Rolling per-request trace (raw JSON objects, newest last).
    recent: Mutex<VecDeque<String>>,
    /// `ExecReport::to_json` of the most recently completed run.
    last_report: Mutex<Option<String>>,
    /// `Conformance::to_json` rows of the most recently completed run.
    last_conformance: Mutex<Option<String>>,
    started: Instant,
}

const RECENT_CAP: usize = 64;

impl State {
    fn session(&self, id: &str) -> Result<Arc<Mutex<Session>>, CoreError> {
        let mut g = self.sessions.lock().unwrap();
        if let Some(s) = g.get(id) {
            return Ok(Arc::clone(s));
        }
        let mut b = Session::builder()
            .workers(self.cfg.workers)
            .local_threads(self.cfg.local_threads)
            .block_size(self.cfg.block_size)
            .seed(self.cfg.seed)
            .store(self.store.clone());
        if self.cfg.real_cluster {
            b = b.socket_transport(SocketOptions::default());
        }
        // Launching worker processes can fail; surface it as this
        // request's error instead of poisoning the session map.
        let s = Arc::new(Mutex::new(b.try_build()?));
        g.insert(id.to_string(), Arc::clone(&s));
        Ok(s)
    }

    fn push_recent(&self, entry: String) {
        let mut g = self.recent.lock().unwrap();
        if g.len() == RECENT_CAP {
            g.pop_front();
        }
        g.push_back(entry);
    }
}

/// A running server. Dropping the handle does **not** stop it; send a
/// `shutdown` request (or call [`Server::shutdown_now`]) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and the executor pool, return.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        // Debug builds re-verify every plan the sessions produce.
        dmac_analyze::install_session_verifier();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let durable = |e: CoreError| std::io::Error::other(e.to_string());
        let store = match (&cfg.data_dir, cfg.store_capacity) {
            (Some(dir), Some(b)) => SharedStore::with_capacity_and_disk(b, dir).map_err(durable)?,
            (Some(dir), None) => SharedStore::with_disk(dir).map_err(durable)?,
            (None, Some(b)) => SharedStore::with_capacity(b),
            (None, None) => SharedStore::new(),
        };
        // Restart recovery: named tenant matrices come back as spilled
        // stubs from the latest valid snapshot (torn or corrupt files
        // fall back to an older snapshot, or to an empty store); the
        // plan cache is re-warmed from the persisted scripts against
        // the recovered placements.
        let mut durability = DurabilityInfo::default();
        let cache = PlanCache::new(cfg.plan_cache_cap);
        if let Some(disk) = store.disk() {
            durability.recovered = store.recover().map_err(durable)?.len();
            let warm = Session::builder()
                .workers(cfg.workers)
                .local_threads(cfg.local_threads)
                .block_size(cfg.block_size)
                .seed(cfg.seed)
                .store(store.clone())
                .build();
            for script in disk.list_plans() {
                let Ok(parsed) = dmac_lang::parse_script(&script) else {
                    continue;
                };
                let key = cache_key(&parsed.program, &store);
                if let Ok(p) = warm.prepare(&parsed.program) {
                    cache.insert(key, Arc::new(p));
                    durability.plans_warmed += 1;
                }
            }
        }
        let state = Arc::new(State {
            cache,
            store,
            durability,
            sessions: Mutex::new(HashMap::new()),
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            counters: Mutex::new(Counters::default()),
            recent: Mutex::new(VecDeque::new()),
            last_report: Mutex::new(None),
            last_conformance: Mutex::new(None),
            started: Instant::now(),
            cfg,
        });

        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("dmac-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;

        Ok(Server {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger the same drain a `shutdown` request would.
    pub fn shutdown_now(&self) {
        begin_shutdown(&self.state);
    }

    /// Block until the server has drained and every thread exited.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn begin_shutdown(state: &State) {
    // Flag flips under the queue lock: admission re-checks it under
    // the same lock, so once the drain loop sees an empty queue no
    // further job can slip in.
    let _g = state.queue.lock().unwrap();
    state.shutting_down.store(true, Ordering::SeqCst);
    state.queue_cv.notify_all();
}

fn accept_loop(listener: TcpListener, state: Arc<State>) {
    let mut workers = Vec::new();
    for i in 0..state.cfg.pool.max(1) {
        let s = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("dmac-serve-exec-{i}"))
                .spawn(move || executor_loop(s))
                .expect("spawn executor"),
        );
    }

    let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
    while !state.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                let s = Arc::clone(&state);
                let out = Arc::new(Mutex::new(stream));
                let keep = out.lock().unwrap().try_clone();
                let h = std::thread::Builder::new()
                    .name("dmac-serve-conn".into())
                    .spawn(move || connection_loop(reader, out, s))
                    .expect("spawn connection");
                if let Ok(k) = keep {
                    conns.push((k, h));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }

    // Drain: wait until nothing is queued or running.
    {
        let mut q = state.queue.lock().unwrap();
        while !(q.jobs.is_empty() && q.running.is_empty()) {
            q = state.queue_cv.wait(q).unwrap();
        }
        state.queue_cv.notify_all(); // wake executors so they can exit
    }
    for h in workers {
        let _ = h.join();
    }
    // Parting snapshot: the drained store's final state is what a
    // restarted server recovers.
    checkpoint_store(&state);
    // Unblock connection readers and join them.
    for (stream, _) in &conns {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for (_, h) in conns {
        let _ = h.join();
    }
}

fn executor_loop(state: Arc<State>) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if let Some(idx) = runnable_index(&q) {
                    let job = q.jobs.remove(idx).unwrap();
                    q.running.push((job.id, job.names.clone()));
                    break job;
                }
                if state.shutting_down.load(Ordering::SeqCst)
                    && q.jobs.is_empty()
                    && q.running.is_empty()
                {
                    return;
                }
                q = state.queue_cv.wait(q).unwrap();
            }
        };
        execute_job(&state, &job);
        let mut q = state.queue.lock().unwrap();
        q.running.retain(|(id, _)| *id != job.id);
        state.queue_cv.notify_all();
    }
}

/// First queued job whose name set is disjoint from every running job
/// and every earlier queued job — see the module docs.
fn runnable_index(q: &Queue) -> Option<usize> {
    'jobs: for (i, job) in q.jobs.iter().enumerate() {
        for (_, names) in &q.running {
            if !job.names.is_disjoint(names) {
                continue 'jobs;
            }
        }
        for earlier in q.jobs.iter().take(i) {
            if !job.names.is_disjoint(&earlier.names) {
                continue 'jobs;
            }
        }
        return Some(i);
    }
    None
}

fn send(out: &Arc<Mutex<TcpStream>>, payload: &str) {
    if let Ok(mut s) = out.lock() {
        let _ = write_frame(&mut *s, payload);
    }
}

/// Encode diagnostics for the wire.
fn diag_json(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(Diagnostic::to_json).collect()
}

/// Human-readable one-liner for an error response: the error-severity
/// headlines, semicolon-joined (falls back to everything when a caller
/// passes only warnings).
fn lint_summary(diags: &[Diagnostic]) -> String {
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == dmac_analyze::Severity::Error)
        .map(Diagnostic::headline)
        .collect();
    if errors.is_empty() {
        diags
            .iter()
            .map(Diagnostic::headline)
            .collect::<Vec<_>>()
            .join("; ")
    } else {
        errors.join("; ")
    }
}

fn err_code(e: &CoreError) -> &'static str {
    match e {
        CoreError::Unbound(_) => code::UNBOUND,
        CoreError::StoreConflict(_) => code::CONFLICT,
        _ => code::EXEC,
    }
}

fn recent_entry(id: u64, session: &str, fp: u64, plan_cached: bool, outcome: &str) -> String {
    JsonObj::new()
        .u64("request_id", id)
        .str("session", session)
        .str("fingerprint", &format!("{fp:016x}"))
        .bool("plan_cached", plan_cached)
        .str("outcome", outcome)
        .build()
}

/// `Some((peak, capacity))` when the prepared plan's memory certificate
/// breaks a bounded store's byte budget; `None` on unbounded stores or
/// plans that fit.
fn over_budget(state: &State, prep: &dmac_core::session::PreparedProgram) -> Option<(u64, u64)> {
    let cap = state.cfg.store_capacity?;
    let peak = prep.certificate().peak;
    (peak > cap).then_some((peak, cap))
}

/// Typed memory rejection (mirrors the deadline reject path).
fn reject_memory(state: &State, job: &Job, fp: u64, plan_cached: bool, peak: u64, cap: u64) {
    state.store.release_writes(job.id);
    state.counters.lock().unwrap().rejected_memory += 1;
    state.push_recent(recent_entry(
        job.id,
        &job.session,
        fp,
        plan_cached,
        "memory",
    ));
    send(
        &job.out,
        &protocol::encode_error(
            code::MEMORY,
            &format!(
                "request {}: certified peak resident {peak} bytes exceeds \
                 the store's {cap}-byte budget",
                job.id
            ),
        ),
    );
}

fn execute_job(state: &State, job: &Job) {
    let fp = job.program.fingerprint();
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            // Same error envelope as an execution fault (the PR-1
            // recovery machinery reports through CoreError too), with
            // its own code so clients can tell timeout from failure.
            state.store.release_writes(job.id);
            state.counters.lock().unwrap().rejected_deadline += 1;
            state.push_recent(recent_entry(job.id, &job.session, fp, false, "deadline"));
            send(
                &job.out,
                &protocol::encode_error(
                    code::DEADLINE,
                    &format!("request {} missed its deadline while queued", job.id),
                ),
            );
            return;
        }
    }

    let session = match state.session(&job.session) {
        Ok(s) => s,
        Err(e) => {
            finish_err(state, job, fp, &e);
            return;
        }
    };
    let mut sess = session.lock().unwrap();

    let key = cache_key(&job.program, sess.shared_store());
    let (mut prep, mut plan_cached) = match state.cache.lookup(&key) {
        Some(p) => (p, true),
        None => match sess.prepare(&job.program) {
            Ok(p) => {
                let p = Arc::new(p);
                state.cache.insert(key.clone(), Arc::clone(&p));
                persist_script(state, fp, &job.script);
                (p, false)
            }
            Err(e) => {
                drop(sess);
                finish_err(state, job, fp, &e);
                return;
            }
        },
    };

    // Admission-time memory gate: with a bounded store, a plan whose
    // certified peak resident bytes exceed the byte budget is rejected
    // *before* execution — what used to surface mid-run as a
    // `StoreOverCommit` fault is now a typed `memory` diagnostic
    // carrying the certified peak and the budget it breaks.
    if let Some((peak, cap)) = over_budget(state, &prep) {
        drop(sess);
        reject_memory(state, job, fp, plan_cached, peak, cap);
        return;
    }

    let report = match sess.run_prepared(&prep) {
        Ok(r) => r,
        Err(CoreError::Planner(msg)) if plan_cached && msg.contains("stale") => {
            // The cached plan's scheme assumptions no longer hold (a
            // conflicting job between key computation and execution is
            // impossible by the ordering rule, but belt-and-braces):
            // re-plan and repair the cache.
            state.cache.invalidate(&key);
            plan_cached = false;
            match sess.prepare(&job.program) {
                Ok(p) => {
                    prep = Arc::new(p);
                    state.cache.insert(key, Arc::clone(&prep));
                    persist_script(state, fp, &job.script);
                    // The re-plan may certify a different peak; re-gate.
                    if let Some((peak, cap)) = over_budget(state, &prep) {
                        drop(sess);
                        reject_memory(state, job, fp, false, peak, cap);
                        return;
                    }
                    match sess.run_prepared(&prep) {
                        Ok(r) => r,
                        Err(e) => {
                            drop(sess);
                            finish_err(state, job, fp, &e);
                            return;
                        }
                    }
                }
                Err(e) => {
                    drop(sess);
                    finish_err(state, job, fp, &e);
                    return;
                }
            }
        }
        Err(e) => {
            drop(sess);
            finish_err(state, job, fp, &e);
            return;
        }
    };
    drop(sess);

    let report_json = report.to_json();
    let conf = arr_of(report.trace.conformance().iter().map(|c| c.to_json()));
    let golden = fnv1a(&report.trace.golden_summary());
    *state.last_report.lock().unwrap() = Some(report_json.clone());
    *state.last_conformance.lock().unwrap() = Some(conf);

    state.store.release_writes(job.id);
    if !job.store_names.is_empty() {
        checkpoint_store(state);
    }
    state.counters.lock().unwrap().completed += 1;
    state.push_recent(recent_entry(job.id, &job.session, fp, plan_cached, "ok"));
    send(
        &job.out,
        &protocol::encode_result(
            job.id,
            plan_cached,
            &job.store_names,
            golden,
            report.sim.total_sec(),
            prep.certificate().peak,
            &report_json,
        ),
    );
}

/// Persist a submitted script alongside its plan-cache insert so a
/// restarted server can re-warm the cache. Failure degrades durability,
/// never the job.
fn persist_script(state: &State, fp: u64, script: &str) {
    if let Some(disk) = state.store.disk() {
        if disk.put_plan(fp, script).is_err() {
            state
                .durability
                .persist_errors
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Publish a durable snapshot of every named store entry (content
/// addressing makes unchanged entries free). Called after each job that
/// stored matrices, and once more at drain.
fn checkpoint_store(state: &State) {
    if state.store.disk().is_none() {
        return;
    }
    let names = state.store.names();
    if names.is_empty() {
        return;
    }
    let phase = state.durability.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
    if state.store.checkpoint(&names, phase).is_err() {
        state
            .durability
            .persist_errors
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn finish_err(state: &State, job: &Job, fp: u64, e: &CoreError) {
    state.store.release_writes(job.id);
    state.counters.lock().unwrap().exec_errors += 1;
    state.push_recent(recent_entry(job.id, &job.session, fp, false, "error"));
    send(
        &job.out,
        &protocol::encode_error(err_code(e), &e.to_string()),
    );
}

fn connection_loop(mut reader: TcpStream, out: Arc<Mutex<TcpStream>>, state: Arc<State>) {
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let req = match Request::from_json(&payload) {
            Ok(r) => r,
            Err(e) => {
                send(&out, &protocol::encode_error(code::PROTO, &e));
                continue;
            }
        };
        match req {
            Request::Submit {
                session,
                script,
                deadline_ms,
            } => handle_submit(&state, &out, session, &script, deadline_ms),
            Request::Explain { session, script } => {
                let report = lint_script(&script);
                let resp = match (&report.parsed, report.has_errors()) {
                    (None, _) => {
                        protocol::encode_error(code::PARSE, &lint_summary(&report.diagnostics))
                    }
                    (Some(_), true) => {
                        protocol::encode_error(code::LINT, &lint_summary(&report.diagnostics))
                    }
                    (Some(parsed), false) => match state.session(&session) {
                        Err(e) => protocol::encode_error(err_code(&e), &e.to_string()),
                        Ok(sess) => {
                            let sess = sess.lock().unwrap();
                            match sess.explain(&parsed.program) {
                                // Warnings and infos ride along with the plan.
                                Ok(text) => {
                                    protocol::encode_explain(&text, &diag_json(&report.diagnostics))
                                }
                                Err(e) => protocol::encode_error(err_code(&e), &e.to_string()),
                            }
                        }
                    },
                };
                send(&out, &resp);
            }
            Request::Lint { script } => {
                let report = lint_script(&script);
                send(
                    &out,
                    &protocol::encode_lint(!report.has_errors(), &diag_json(&report.diagnostics)),
                );
            }
            Request::FetchMatrix { name } => {
                let resp = match state.store.get(&name) {
                    Some(dist) => match dist.to_blocked() {
                        Ok(m) => {
                            let dense = m.to_dense();
                            let bits: Vec<u64> = dense.data().iter().map(|v| v.to_bits()).collect();
                            protocol::encode_matrix(&name, m.rows(), m.cols(), &bits)
                        }
                        Err(e) => protocol::encode_error(code::EXEC, &e.to_string()),
                    },
                    None => protocol::encode_error(
                        code::UNBOUND,
                        &format!("matrix '{name}' is not in the store"),
                    ),
                };
                send(&out, &resp);
            }
            Request::Stats => send(&out, &stats_json(&state)),
            Request::Shutdown => {
                // Ack before flipping the flag: once the drain starts it
                // closes lingering connections, which can race ahead of a
                // not-yet-written reply and the client then sees a bare
                // connection close instead of its Ok.
                send(&out, &protocol::encode_ok());
                begin_shutdown(&state);
            }
        }
    }
}

fn handle_submit(
    state: &Arc<State>,
    out: &Arc<Mutex<TcpStream>>,
    session: String,
    script: &str,
    deadline_ms: Option<u64>,
) {
    // Admission lint: parse failures keep their dedicated code; any
    // other error-severity diagnostic rejects before planning. Warnings
    // and infos never block a submit.
    let report = lint_script(script);
    let parsed = match (report.parsed, report.diagnostics) {
        (None, diags) => {
            state.counters.lock().unwrap().rejected_parse += 1;
            send(
                out,
                &protocol::encode_error(code::PARSE, &lint_summary(&diags)),
            );
            return;
        }
        (Some(_), diags) if dmac_analyze::has_errors(&diags) => {
            state.counters.lock().unwrap().rejected_lint += 1;
            send(
                out,
                &protocol::encode_error(code::LINT, &lint_summary(&diags)),
            );
            return;
        }
        (Some(p), _) => p,
    };
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);

    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut store_names = Vec::new();
    for decl in parsed.program.matrices() {
        if matches!(decl.origin, MatrixOrigin::Load) {
            names.insert(decl.name.clone());
        }
    }
    for (_, stored) in parsed.program.outputs() {
        if let Some(n) = stored {
            names.insert(n.clone());
            store_names.push(n.clone());
        }
    }
    store_names.sort();
    store_names.dedup();
    // Session marker: `\n` cannot appear in a matrix name (the script
    // grammar forbids it), so this can never collide.
    names.insert(format!("\nsession:{session}"));

    if let Err(e) = state.store.claim_writes(&store_names, id) {
        state.counters.lock().unwrap().rejected_conflict += 1;
        send(out, &protocol::encode_error(code::CONFLICT, &e.to_string()));
        return;
    }

    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        id,
        session,
        program: parsed.program,
        script: script.to_string(),
        names,
        store_names,
        deadline,
        out: Arc::clone(out),
    };

    let mut q = state.queue.lock().unwrap();
    if state.shutting_down.load(Ordering::SeqCst) {
        drop(q);
        state.store.release_writes(id);
        state.counters.lock().unwrap().rejected_shutdown += 1;
        send(
            out,
            &protocol::encode_error(code::SHUTTING_DOWN, "server is draining"),
        );
        return;
    }
    if q.jobs.len() >= state.cfg.queue_cap {
        let depth = q.jobs.len();
        drop(q);
        state.store.release_writes(id);
        state.counters.lock().unwrap().rejected_busy += 1;
        send(
            out,
            &protocol::encode_error(code::BUSY, &format!("queue full ({depth} queued)")),
        );
        return;
    }
    q.jobs.push_back(job);
    state.queue_cv.notify_all();
    drop(q);
    state.counters.lock().unwrap().submitted += 1;
}

fn stats_json(state: &State) -> String {
    let (depth, active) = {
        let q = state.queue.lock().unwrap();
        (q.jobs.len(), q.running.len())
    };
    let c = *state.counters.lock().unwrap();
    let cache = state.cache.stats();
    let store = state.store.stats();
    let sessions = state.sessions.lock().unwrap().len();
    let recent = {
        let g = state.recent.lock().unwrap();
        arr_of(g.iter().cloned())
    };
    let last_report = state
        .last_report
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "null".into());
    let last_conf = state
        .last_conformance
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "null".into());

    let counters = JsonObj::new()
        .u64("submitted", c.submitted)
        .u64("completed", c.completed)
        .u64("exec_errors", c.exec_errors)
        .u64("rejected_parse", c.rejected_parse)
        .u64("rejected_lint", c.rejected_lint)
        .u64("rejected_busy", c.rejected_busy)
        .u64("rejected_conflict", c.rejected_conflict)
        .u64("rejected_deadline", c.rejected_deadline)
        .u64("rejected_shutdown", c.rejected_shutdown)
        .u64("rejected_memory", c.rejected_memory)
        .build();
    let plan_cache = JsonObj::new()
        .u64("hits", cache.hits)
        .u64("misses", cache.misses)
        .u64("evictions", cache.evictions)
        .u64("entries", cache.entries as u64)
        .f64("hit_rate", cache.hit_rate())
        .build();
    let store_obj = {
        let mut o = JsonObj::new()
            .u64("entries", store.entries as u64)
            .u64("bytes", store.bytes)
            .u64("inserts", store.inserts)
            .u64("replaced", store.replaced)
            .u64("evictions", store.evictions)
            .u64("dropped", store.dropped)
            .u64("conflicts", store.conflicts)
            .u64("spilled", store.spilled as u64)
            .u64("spilled_bytes", store.spilled_bytes)
            .u64("spills", store.spills)
            .u64("spill_bytes", store.spill_bytes)
            .u64("loads", store.loads)
            .u64("load_bytes", store.load_bytes)
            .u64("load_failures", store.load_failures)
            .u64("over_commits", store.over_commits)
            .u64("snapshots", store.snapshots);
        o = match store.capacity {
            Some(cap) => o.u64("capacity", cap),
            None => o.raw("capacity", "null"),
        };
        let mut names = JsonArr::new();
        for n in state.store.names() {
            names = names.str(&n);
        }
        o.raw("names", &names.build()).build()
    };
    let durability = match &state.cfg.data_dir {
        Some(dir) => {
            let mut o = JsonObj::new()
                .bool("enabled", true)
                .str("data_dir", dir)
                .u64("recovered", state.durability.recovered as u64)
                .u64("plans_warmed", state.durability.plans_warmed as u64)
                .u64(
                    "checkpoints",
                    state.durability.checkpoints.load(Ordering::Relaxed),
                )
                .u64(
                    "persist_errors",
                    state.durability.persist_errors.load(Ordering::Relaxed),
                );
            o = match state.store.latest_snapshot() {
                Some((seq, phase)) => o.u64("snapshot_seq", seq).u64("snapshot_phase", phase),
                None => o.raw("snapshot_seq", "null").raw("snapshot_phase", "null"),
            };
            o.build()
        }
        None => JsonObj::new().bool("enabled", false).build(),
    };

    JsonObj::new()
        .str("type", "stats")
        .f64("uptime_sec", state.started.elapsed().as_secs_f64())
        .bool("shutting_down", state.shutting_down.load(Ordering::SeqCst))
        .u64("queue_depth", depth as u64)
        .u64("active", active as u64)
        .u64("sessions", sessions as u64)
        .u64("pool", state.cfg.pool as u64)
        .u64("queue_cap", state.cfg.queue_cap as u64)
        .raw("counters", &counters)
        .raw("plan_cache", &plan_cache)
        .raw("store", &store_obj)
        .raw("durability", &durability)
        .raw("recent", &recent)
        .raw("last_report", &last_report)
        .raw("last_conformance", &last_conf)
        .build()
}
