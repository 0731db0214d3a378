//! Transport conformance: the real multi-process cluster backend must be
//! **byte-exact** against the in-process simulator oracle.
//!
//! Every application in the suite runs twice — once on the default
//! simulator backend and once on real `dmac-workerd` processes over
//! local TCP sockets — and the two runs must agree on everything the
//! paper's evaluation measures:
//!
//! * **results** are bit-for-bit identical across backends (both sides
//!   execute the same shared kernels in the same order, so any
//!   divergence is a transport bug, not floating-point noise);
//! * **per-step wire bytes**: the payload bytes that physically crossed
//!   a socket (`StepTrace::transport_bytes`) equal the simulator's
//!   metered wire bytes (`StepTrace::wire_bytes`) exactly, step by
//!   step — the Table-2 communication accounting is real, not modelled;
//! * **worker state**: gathering every output matrix back from the
//!   worker processes (`Session::value_physical`) reproduces the oracle
//!   value bit-for-bit, proving the processes hold exactly the tiles
//!   the placement said they should;
//! * **topology**: no tile byte crosses the coordinator
//!   (`TransportStats::relay_bytes == 0`) — cross-host tiles travel
//!   worker-to-worker only.
//!
//! Any divergence inside a run surfaces earlier still, as a typed
//! `ClusterError::TransportConformance` from the cluster's per-primitive
//! receipt checks.

use dmac::apps::{
    CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos, TriangleCount,
};
use dmac::cluster::{SocketOptions, TransportStats};
use dmac::core::baselines::SystemKind;
use dmac::core::engine::ExecReport;
use dmac::core::Session;
use dmac::lang::Expr;
use dmac::matrix::BlockedMatrix;

const BLOCK: usize = 8;
const WORKERS: usize = 3;

fn sim_session() -> Session {
    Session::builder()
        .system(SystemKind::Dmac)
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(7)
        .build()
}

fn socket_session() -> Session {
    Session::builder()
        .system(SystemKind::Dmac)
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(7)
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("worker processes must launch")
}

/// f64 bit patterns of a gathered matrix (exact comparison, no epsilon).
fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

/// Run one app on both backends and assert the full conformance
/// contract. `run` executes the app and returns its report, its matrix
/// output handles, and its scalar outputs. Returns the socket run's
/// transport counters.
fn conforms<F>(name: &str, run: F) -> TransportStats
where
    F: Fn(&mut Session) -> (ExecReport, Vec<Expr>, Vec<f64>),
{
    let mut sim = sim_session();
    let (sim_report, sim_handles, sim_scalars) = run(&mut sim);

    let mut sock = socket_session();
    assert_eq!(sock.transport_name(), "socket");
    assert!(sock.transport_is_physical());
    let (sock_report, sock_handles, sock_scalars) = run(&mut sock);

    // Results: bit-for-bit identical across backends.
    assert_eq!(sim_scalars.len(), sock_scalars.len());
    for (i, (a, b)) in sim_scalars.iter().zip(&sock_scalars).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}: scalar {i} diverged across backends ({a} vs {b})"
        );
    }
    for (a, b) in sim_handles.iter().zip(&sock_handles) {
        let ma = sim.value(*a).unwrap();
        let mb = sock.value(*b).unwrap();
        assert_eq!(
            bits(&ma),
            bits(&mb),
            "{name}: results diverged across backends"
        );
    }

    // Per-step wire accounting: every byte the simulator metered was
    // physically shipped, and nothing more.
    assert!(!sock_report.trace.steps.is_empty());
    for st in &sock_report.trace.steps {
        assert_eq!(
            st.transport_bytes, st.wire_bytes,
            "{name} step {} ({}): socket shipped {} payload bytes, simulator metered {}",
            st.step, st.kind, st.transport_bytes, st.wire_bytes
        );
    }
    // ... and both backends metered the same per-step wire volume.
    assert_eq!(sim_report.trace.steps.len(), sock_report.trace.steps.len());
    for (a, b) in sim_report.trace.steps.iter().zip(&sock_report.trace.steps) {
        assert_eq!(
            a.wire_bytes, b.wire_bytes,
            "{name} step {} ({}): backends metered different wire bytes",
            a.step, a.kind
        );
    }

    // Physical gather: the worker processes hold exactly the oracle's
    // tiles. (The simulator has no second copy; it returns None.)
    for h in &sock_handles {
        let oracle = sock.value(*h).unwrap();
        let physical = sock
            .value_physical(*h)
            .unwrap()
            .expect("socket backend gathers from workers");
        assert_eq!(
            bits(&oracle),
            bits(&physical),
            "{name}: worker-held state diverged from oracle"
        );
    }
    if let Some(h) = sim_handles.first() {
        assert!(sim.value_physical(*h).unwrap().is_none());
    }

    // Topology: tile payload never transits the coordinator.
    let stats = sock.transport_stats();
    assert_eq!(
        stats.relay_bytes, 0,
        "{name}: tile bytes crossed the coordinator"
    );

    // Clean shutdown: every worker exits on request; leaks are an error.
    sock.shutdown_transport()
        .expect("workers must exit cleanly");
    stats
}

#[test]
fn gnmf_is_byte_exact_on_sockets() {
    let cfg = Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    let stats = conforms("gnmf", |s| {
        let (report, h) = cfg.run(s, v.clone()).unwrap();
        (report, vec![h.w, h.h], vec![])
    });
    assert!(
        stats.peer_bytes > 0,
        "gnmf: cross-host moves must ride worker-to-worker links"
    );
}

#[test]
fn pagerank_is_byte_exact_on_sockets() {
    let nodes = 48;
    let g = dmac::data::powerlaw_graph(nodes, 320, BLOCK, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: 320.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 3,
    };
    conforms("pagerank", |s| {
        let (report, h) = cfg.run(s, &g).unwrap();
        (report, vec![h.rank], vec![])
    });
}

#[test]
fn cf_is_byte_exact_on_sockets() {
    let cfg = CollaborativeFiltering {
        items: 40,
        users: 64,
        sparsity: 0.1,
    };
    let r = dmac::data::uniform_sparse(cfg.items, cfg.users, cfg.sparsity, BLOCK, 7);
    conforms("cf", |s| {
        let (report, h) = cfg.run(s, r.clone()).unwrap();
        (report, vec![h.predict], vec![])
    });
}

#[test]
fn linreg_is_byte_exact_on_sockets() {
    let cfg = LinearRegression {
        rows: 48,
        features: 16,
        sparsity: 0.2,
        lambda: 1e-6,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.features, cfg.sparsity, BLOCK, 9);
    let y = BlockedMatrix::from_fn(cfg.rows, 1, BLOCK, |i, _| (i % 7) as f64 / 7.0).unwrap();
    conforms("linreg", |s| {
        let (report, h) = cfg.run(s, v.clone(), y.clone()).unwrap();
        (report, vec![h.w], vec![])
    });
}

#[test]
fn svd_is_byte_exact_on_sockets() {
    let cfg = SvdLanczos {
        rows: 48,
        cols: 24,
        sparsity: 0.2,
        rank: 3,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 11);
    conforms("svd", |s| {
        let (report, spectrum) = cfg.run(s, v.clone()).unwrap();
        (report, vec![], spectrum)
    });
}

#[test]
fn triangles_is_byte_exact_on_sockets() {
    let nodes = 32;
    let cfg = TriangleCount {
        nodes,
        sparsity: 0.15,
    };
    let adj = dmac::data::uniform_sparse(nodes, nodes, cfg.sparsity, BLOCK, 13);
    conforms("triangles", |s| {
        let (report, count) = cfg.run(s, &adj).unwrap();
        (report, vec![], vec![count])
    });
}
