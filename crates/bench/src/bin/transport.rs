//! Transport data-plane benchmark: GNMF and PageRank on **4 real
//! `dmac-workerd` processes**, over the one socket data plane — `DMB1`
//! binary tile frames, direct worker-to-worker tile pushes driven by
//! coordinator routing plans, and pipelined per-stage dispatch.
//!
//! Each app runs twice: once on the in-process simulator for the oracle
//! bits, once on the socket cluster. Results land in
//! `BENCH_transport.json`. The run exits non-zero (and fails
//! `scripts/verify.sh`) if, for either app:
//!
//! * the total bytes on all links (coordinator frames + peer-link
//!   frames, heartbeats included) exceed the app's pinned cap,
//! * any tile byte crosses the coordinator (`relay_bytes != 0`), or
//! * the socket run differs from the simulator by a single bit.
//!
//! The caps are 60% of what the retired hex-JSON coordinator-star plane
//! shipped for the same runs (475,533 B for GNMF, 133,963 B for
//! PageRank): the bound the binary peer-to-peer plane was first gated
//! at, now fixed in bytes.

use dmac_apps::{Gnmf, PageRank};
use dmac_bench::{fmt_bytes, fmt_sec, header, timed};
use dmac_cluster::json::JsonObj;
use dmac_cluster::SocketOptions;
use dmac_core::Session;
use dmac_matrix::BlockedMatrix;

const WORKERS: usize = 4;
const BLOCK: usize = 16;

/// Wire-byte cap for GNMF: 60% of the hex-JSON star's 475,533 B.
const GNMF_WIRE_CAP: u64 = 285_319;
/// Wire-byte cap for PageRank: 60% of the hex-JSON star's 133,963 B.
const PAGERANK_WIRE_CAP: u64 = 80_377;

fn session(socket: bool) -> Session {
    let b = Session::builder()
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(11);
    if socket {
        b.socket_transport(SocketOptions::default())
            .try_build()
            .expect("4 dmac-workerd processes must launch")
    } else {
        b.build()
    }
}

fn bits(m: BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

/// Run one app on the simulator and on sockets, apply the gates, and
/// return the app's JSON record.
fn bench_app(
    name: &str,
    cap: u64,
    run: &dyn Fn(&mut Session) -> Vec<u64>,
    failures: &mut Vec<String>,
) -> String {
    let want = run(&mut session(false));

    let mut s = session(true);
    let (got, wall) = timed(|| run(&mut s));
    if got != want {
        failures.push(format!("{name}: socket result diverged from simulator"));
    }
    let stats = s.transport_stats();
    if let Err(e) = s.shutdown_transport() {
        failures.push(format!("{name}: workers leaked past shutdown: {e}"));
    }

    let wire = stats.frame_bytes + stats.peer_bytes;
    if wire > cap {
        failures.push(format!(
            "{name}: shipped {wire} wire bytes (gate: <= {cap})"
        ));
    }
    if stats.relay_bytes != 0 {
        failures.push(format!(
            "{name}: {} tile bytes crossed the coordinator",
            stats.relay_bytes
        ));
    }
    println!(
        "{name:9} {:>9} on the wire in {:>7}   ({:.0}% of the {} cap, {} rounds)",
        fmt_bytes(wire),
        fmt_sec(wall),
        wire as f64 / cap as f64 * 100.0,
        fmt_bytes(cap),
        stats.rounds,
    );

    JsonObj::new()
        .u64("wire_bytes", wire)
        .u64("wire_cap", cap)
        .u64("frame_bytes", stats.frame_bytes)
        .u64("peer_bytes", stats.peer_bytes)
        .u64("relay_bytes", stats.relay_bytes)
        .u64("rounds", stats.rounds)
        .f64("wall_sec", wall)
        .build()
}

fn main() {
    header("Transport data plane — binary tiles, peer-to-peer, pipelined; 4 real workers");
    let mut failures = Vec::new();

    let gnmf = Gnmf {
        rows: 96,
        cols: 64,
        sparsity: 0.1,
        rank: 8,
        iterations: 3,
    };
    let v = dmac_data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, BLOCK, 5);
    let gnmf_json = bench_app(
        "gnmf",
        GNMF_WIRE_CAP,
        &|s| {
            let (_, h) = gnmf.run(s, v.clone()).expect("gnmf run");
            bits(s.value(h.w).unwrap())
        },
        &mut failures,
    );

    let nodes = 96;
    let g = dmac_data::powerlaw_graph(nodes, 900, BLOCK, 5);
    let pagerank = PageRank {
        nodes,
        link_sparsity: 900.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 4,
    };
    let pagerank_json = bench_app(
        "pagerank",
        PAGERANK_WIRE_CAP,
        &|s| {
            let (_, h) = pagerank.run(s, &g).expect("pagerank run");
            bits(s.value(h.rank).unwrap())
        },
        &mut failures,
    );

    let mut json = JsonObj::new()
        .u64("workers", WORKERS as u64)
        .u64("block", BLOCK as u64)
        .raw("gnmf", &gnmf_json)
        .raw("pagerank", &pagerank_json)
        .build();
    json.push('\n');
    std::fs::write("BENCH_transport.json", &json).expect("write BENCH_transport.json");
    println!("\nwrote BENCH_transport.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("transport bench: OK (wire bytes under the pinned caps, zero relay bytes, bit-exact)");
}
