//! `dmac-served` — the dmac-serve server binary.
//!
//! ```text
//! dmac-served [--addr HOST:PORT] [--port-file PATH] [--pool N]
//!             [--queue N] [--workers N] [--local-threads N]
//!             [--block N] [--seed N] [--store-cap BYTES]
//!             [--plan-cache N] [--data-dir PATH] [--real-cluster]
//! ```
//!
//! Binds (port 0 picks a free port), optionally writes the actual
//! `host:port` to `--port-file` (how `scripts/verify.sh` finds it),
//! serves until a `shutdown` request arrives, drains, exits 0.

use dmac_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: dmac-served [--addr HOST:PORT] [--port-file PATH] [--pool N] [--queue N]\n\
         \x20                 [--workers N] [--local-threads N] [--block N] [--seed N]\n\
         \x20                 [--store-cap BYTES] [--plan-cache N] [--data-dir PATH]\n\
         \x20                 [--real-cluster]"
    );
    std::process::exit(2)
}

fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

fn take_num<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    take(args, i).parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut port_file: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = take(&args, &mut i),
            "--port-file" => port_file = Some(take(&args, &mut i)),
            "--pool" => cfg.pool = take_num(&args, &mut i),
            "--queue" => cfg.queue_cap = take_num(&args, &mut i),
            "--workers" => cfg.workers = take_num(&args, &mut i),
            "--local-threads" => cfg.local_threads = take_num(&args, &mut i),
            "--block" => cfg.block_size = take_num(&args, &mut i),
            "--seed" => cfg.seed = take_num(&args, &mut i),
            "--store-cap" => cfg.store_capacity = Some(take_num(&args, &mut i)),
            "--plan-cache" => cfg.plan_cache_cap = take_num(&args, &mut i),
            "--data-dir" => cfg.data_dir = Some(take(&args, &mut i)),
            // Each session runs on real dmac-workerd processes instead
            // of the in-process simulator (see ServerConfig).
            "--real-cluster" => cfg.real_cluster = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dmac-served: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    println!("dmac-served listening on {addr}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("dmac-served: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    server.wait();
    println!("dmac-served: drained, exiting");
}
