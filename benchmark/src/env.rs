//! The conditions a number was taken under, stated in every record.

use crate::json;

/// Threads the benchmark gives the product: `min(cores, 4)`.
pub const MAX_THREADS: usize = 4;

#[derive(Debug, Clone)]
pub struct Conditions {
    pub cores: usize,
    pub threads: usize,
    pub shards: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
    pub seed: u64,
}

impl Conditions {
    pub fn detect(seed: u64) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = cores.min(MAX_THREADS);
        Self {
            cores,
            threads,
            shards: threads,
            rustc: env!("SOCL_BENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        json::object([
            ("cores", self.cores.to_string()),
            ("threads", self.threads.to_string()),
            ("shards", self.shards.to_string()),
            ("rustc", json::string(self.rustc)),
            ("profile", json::string(self.profile)),
            ("commit", json::string(&self.commit)),
            ("seed", self.seed.to_string()),
        ])
    }
}

/// `git rev-parse --short HEAD`, or `unknown` outside a repository (the
/// driver's checkout is not one).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// A `kB` field of `/proc/self/status` in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}
