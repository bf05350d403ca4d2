//! What the host looked like during a run: the host block printed with
//! every run record, the process's peak resident set, and the kernel's
//! socket tables.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `VmHWM` of this process (its peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

fn status_kib(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The `tw` (TIME_WAIT) count of `/proc/net/sockstat`: every TIME_WAIT
/// socket in this network namespace, including other runs' leftovers.
pub fn sockstat_time_wait() -> u64 {
    fs::read_to_string("/proc/net/sockstat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("TCP:"))?;
            let mut words = line.split_whitespace();
            while let Some(w) = words.next() {
                if w == "tw" {
                    return words.next()?.parse().ok();
                }
            }
            None
        })
        .unwrap_or(0)
}

/// `Tcp: ActiveOpens` of `/proc/net/snmp`: TCP connections this network
/// namespace has opened so far. Each one leaves a TIME_WAIT socket when it
/// closes; counting opens instead of TIME_WAIT sockets keeps the count
/// exact when the kernel's TIME_WAIT table (`tcp_max_tw_buckets`) is full
/// from earlier runs.
pub fn tcp_active_opens() -> u64 {
    let Ok(text) = fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut tcp = text.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "ActiveOpens")
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or(0)
}

/// One reading of the host's CPU counters: jiffies stolen by the
/// hypervisor (time this VM wanted to run but another guest ran), and all
/// jiffies, summed over CPUs.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    /// When the counters were read.
    pub at: Instant,
    /// `steal` column of `/proc/stat`'s `cpu` line.
    pub steal: u64,
    /// Sum of the `user` to `steal` columns.
    pub total: u64,
}

fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cols.len() == 8).then(|| (cols[7], cols.iter().sum()))
}

/// A background thread reading `/proc/stat` every 20 ms while a run
/// measures, so each chunk of ops can be matched with the CPU time the
/// hypervisor took from the VM during it.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<CpuSample>>,
}

impl StealSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                if let Some((steal, total)) = cpu_jiffies() {
                    samples.push(CpuSample {
                        at: Instant::now(),
                        steal,
                        total,
                    });
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            samples
        });
        StealSampler { stop, thread }
    }

    /// Stop sampling and return the readings, oldest first (empty where
    /// `/proc/stat` is unavailable).
    pub fn stop(self) -> Vec<CpuSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("steal sampler panicked")
    }
}

/// Share of CPU time stolen between `from` and `to` (0 without readings).
pub fn steal_share(samples: &[CpuSample], from: Instant, to: Instant) -> f64 {
    let (mut steal, mut total) = (0, 0);
    for pair in samples.windows(2) {
        if pair[1].at > from && pair[1].at <= to {
            steal += pair[1].steal - pair[0].steal;
            total += pair[1].total - pair[0].total;
        }
    }
    if total == 0 {
        0.0
    } else {
        steal as f64 / total as f64
    }
}

/// Hand the allocator's free memory back to the system. glibc keeps what
/// the threads of a stopped server freed in their arenas; without this,
/// each set-up repetition would leave a different amount of it resident
/// and `peak_rss_mb` would carry that noise.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only returns free
        // pages of the allocator's own arenas to the system.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// The commit the benchmark runs on: `.git/HEAD` resolved by hand, or
/// `"none"` in a checkout without git metadata.
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block of a run record, as a JSON object: parallelism, CPU,
/// kernel, commit, load, and the TIME_WAIT backlog at run start (back to
/// back serve runs pile up tens of thousands of them).
pub fn host_block_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = first_line("/proc/loadavg");
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        concat!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"git_rev\":\"{}\",",
            "\"loadavg\":\"{}\",\"time_wait_at_start\":{}}}"
        ),
        nproc,
        service::json::escape(&cpu_model()),
        service::json::escape(&first_line("/proc/sys/kernel/osrelease")),
        service::json::escape(&git_rev()),
        load.join(" "),
        sockstat_time_wait()
    )
}
