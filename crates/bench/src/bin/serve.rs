//! dmac-serve throughput benchmark: the concurrent smoke workload at
//! 1, 4 and 8 clients against an in-process server.
//!
//! Each scale starts a fresh server, runs `clients × repeats`
//! submissions of the GNMF + PageRank smoke scripts, and records
//! completed submissions, wall time, throughput and the plan-cache hit
//! rate. Results land in `BENCH_serve.json`. The bin exits non-zero —
//! failing `scripts/verify.sh` — if any scale's smoke checks fail
//! (bit-identity vs the serial replay, clean drain) or its hit rate
//! falls below 50%.

use dmac_bench::{fmt_sec, header};
use dmac_cluster::json::JsonObj;
use dmac_serve::smoke::{run_smoke, SmokeConfig};
use dmac_serve::{Server, ServerConfig};

const REPEATS: usize = 4;
const MIN_HIT_RATE: f64 = 0.5;

fn run_scale(clients: usize, failures: &mut Vec<String>) -> String {
    let server_cfg = ServerConfig::default();
    let server = Server::start(server_cfg.clone()).expect("server starts");
    let smoke_cfg = SmokeConfig {
        addr: server.addr().to_string(),
        clients,
        repeats: REPEATS,
        min_hit_rate: MIN_HIT_RATE,
        shutdown_at_end: true,
        ..SmokeConfig::default()
    };
    let report = run_smoke(&smoke_cfg);
    server.wait();

    println!(
        "  {clients} client(s): {:>3} submissions in {:>8}  {:>7.1}/s  hit rate {:.3}{}",
        report.completed,
        fmt_sec(report.wall_sec),
        report.throughput,
        report.hit_rate,
        if report.ok() { "" } else { "  FAILED" },
    );
    for f in &report.failures {
        failures.push(format!("{clients} client(s): {f}"));
    }

    JsonObj::new()
        .u64("clients", clients as u64)
        .u64("repeats", REPEATS as u64)
        .u64("completed", report.completed)
        .f64("wall_sec", report.wall_sec)
        .f64("throughput_per_sec", report.throughput)
        .f64("hit_rate", report.hit_rate)
        .bool("ok", report.ok())
        .build()
}

fn main() {
    header("dmac-serve: concurrent smoke throughput");
    let cfg = ServerConfig::default();
    let mut failures = Vec::new();

    let scales = [1usize, 4, 8];
    let runs: Vec<String> = scales
        .iter()
        .map(|&c| run_scale(c, &mut failures))
        .collect();

    let mut arr = dmac_cluster::json::JsonArr::new();
    for r in &runs {
        arr = arr.raw(r);
    }
    let mut json = JsonObj::new()
        .u64("workers", cfg.workers as u64)
        .u64("local_threads", cfg.local_threads as u64)
        .u64("block", cfg.block_size as u64)
        .u64("pool", cfg.pool as u64)
        .f64("min_hit_rate", MIN_HIT_RATE)
        .raw("runs", &arr.build())
        .build();
    json.push('\n');
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
