//! Steady end-to-end and per-layer benchmark of the dmac workspace.
//!
//! ```text
//! dmac-perfbench --workload gnmf-inproc|gnmf-socket|serve-mix --seed N
//!                --seconds S --trace 0|1 [--trace-file PATH] [--min-ops N]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it spends half the window untraced and half
//! traced, probes each layer, writes the spans as chrome-trace JSON to
//! `--trace-file`, and reports the per-layer metrics. Notes go to
//! standard output first; the last line is the JSON result. The exit
//! code is 0 only when every op and check passed.

mod gnmf;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;

use report::Outcome;

/// A failure's message, for `map_err`.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Most threads, worker processes or client connections the benchmark
/// uses, before capping at the number of logical CPUs.
const PARALLELISM: usize = 2;

/// Settings of one run.
pub struct Config {
    workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    trace_file: Option<PathBuf>,
    /// Fewest ops an untraced window may end with (so p90 has at least
    /// ten samples above it).
    pub min_ops: usize,
    nproc: usize,
    /// Local compute threads per session.
    pub threads: usize,
    /// Logical workers (and, on sockets, worker processes).
    pub workers: usize,
    /// Client connections (one thread each) for `serve-mix`.
    pub clients: usize,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let nproc = sys::nproc();
        let par = PARALLELISM.min(nproc);
        let mut cfg = Config {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            trace_file: None,
            min_ops: 100,
            nproc,
            threads: par,
            workers: par,
            clients: par,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--trace-file" => cfg.trace_file = Some(PathBuf::from(value)),
                "--min-ops" => cfg.min_ops = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(cfg)
    }

    /// Write the traced run's spans, with this run's settings, as
    /// chrome-trace JSON (when a trace file was given).
    pub fn write_trace(&self, spans: &[trace::Span], out: &mut Outcome) -> Result<(), String> {
        let Some(path) = &self.trace_file else {
            return Ok(());
        };
        let meta: Vec<(String, String)> = [
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("nproc", self.nproc.to_string()),
            ("local_threads", self.threads.to_string()),
            ("workers", self.workers.to_string()),
            ("clients", self.clients.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, trace::chrome_json(spans, &meta))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        ));
        Ok(())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dmac-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match cfg.workload.as_str() {
        "gnmf-inproc" => gnmf::run(&cfg, false),
        "gnmf-socket" => gnmf::run(&cfg, true),
        "serve-mix" => serve::run(&cfg),
        other => {
            eprintln!("dmac-perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} | nproc {} local_threads {} workers {} clients {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.nproc,
        cfg.threads,
        cfg.workers,
        cfg.clients
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for e in &out.errors {
        println!("# ERROR {e}");
        eprintln!("dmac-perfbench: {e}");
    }
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
