//! CPU and process accounting from `/proc`.
//!
//! CPU times come from the `utime + stime` fields of `stat` files, in
//! clock ticks. Linux reports them in `USER_HZ` units, which is 100 on
//! every mainstream architecture; a run accumulates thousands of ticks,
//! so the 10 ms granularity stays below 0.1% of a run's total.

use std::fs;

const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3 of stat(5), utime 14 and stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// CPU seconds of this whole process, every thread included (exited
/// threads' time is folded into the process total by the kernel).
pub fn self_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat").unwrap_or(0.0)
}

/// CPU seconds of this process's main thread.
pub fn main_thread_cpu_s() -> f64 {
    let pid = std::process::id();
    stat_cpu_s(&format!("/proc/self/task/{pid}/stat")).unwrap_or(0.0)
}

/// CPU seconds of this process's live threads whose name starts with
/// `prefix` (thread names are truncated to 15 bytes by the kernel).
pub fn named_threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut total = 0.0;
    for t in tasks.flatten() {
        let dir = t.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            total += stat_cpu_s(&dir.join("stat").to_string_lossy()).unwrap_or(0.0);
        }
    }
    total
}

/// Pids of this process's live children (any thread's children), the
/// same lookup the repository's cluster smoke gate uses for its leak check.
pub fn children() -> Vec<u32> {
    let mut out = Vec::new();
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            if let Ok(list) = fs::read_to_string(t.path().join("children")) {
                out.extend(
                    list.split_whitespace()
                        .filter_map(|p| p.parse::<u32>().ok()),
                );
            }
        }
    }
    out.sort_unstable();
    out
}

/// CPU seconds of every live child process (the `dmac-workerd` workers
/// of a socket-transport session).
pub fn children_cpu_s() -> f64 {
    children()
        .iter()
        .filter_map(|pid| stat_cpu_s(&format!("/proc/{pid}/stat")))
        .sum()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A CPU reading split between the coordinating side and the workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSplit {
    /// CPU seconds of the coordinating side.
    pub coord_s: f64,
    /// CPU seconds of whatever executes the logical workers' tasks.
    pub worker_s: f64,
}

impl CpuSplit {
    /// Total CPU seconds.
    pub fn total(&self) -> f64 {
        self.coord_s + self.worker_s
    }

    /// `self - earlier`, per side.
    pub fn since(&self, earlier: &CpuSplit) -> CpuSplit {
        CpuSplit {
            coord_s: self.coord_s - earlier.coord_s,
            worker_s: self.worker_s - earlier.worker_s,
        }
    }
}
