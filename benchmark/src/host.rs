//! Host readings taken from outside the program: process CPU, memory,
//! thread count, and the provenance block printed with every result.

use std::fs;

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Clock ticks per second, from the ELF auxiliary vector (`AT_CLKTCK`).
fn clock_ticks() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let word = std::mem::size_of::<usize>();
    let read = |b: &[u8]| b.iter().rev().fold(0u64, |v, &x| (v << 8) | x as u64);
    fs::read("/proc/self/auxv")
        .ok()
        .and_then(|raw| {
            raw.chunks_exact(2 * word)
                .find(|pair| read(&pair[..word]) == AT_CLKTCK)
                .map(|pair| read(&pair[word..]))
        })
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// CPU seconds (user + system) this process has used so far, every thread
/// included, living or exited.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let tail = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / clock_ticks() as f64
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    proc_field("/proc/self/status", "Threads:").unwrap_or(1)
}

/// Where and on what the numbers were taken.
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub load1: f64,
    pub commit: String,
}

impl Provenance {
    pub fn read() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let load1 = fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_whitespace().next().and_then(|s| s.parse().ok()))
            .unwrap_or(0.0);
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            load1,
            commit: std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    /// The host guard: other work on the machine skews CPU and wall time.
    pub fn busy(&self) -> bool {
        self.load1 > 0.5 * self.nproc as f64
    }
}
