//! Host and process facts, the pinned environment, and the metric list
//! every run prints.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cx_server::Json;

/// Environment variables that change which code path the crates take.
/// The harness clears them so every run measures production defaults.
pub const CLEARED_ENV: [&str; 7] = [
    "CX_PRUNE",
    "CX_INCREMENTAL",
    "CX_OBS",
    "CX_AUTH_TOKEN",
    "CX_FSYNC",
    "CX_COMPACT_BYTES",
    "CX_STORE_DIR",
];

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Keep-alive client connections of the closed loop: `min(nproc, 4)`.
pub fn conns() -> usize {
    host_cpus().min(4)
}

/// Clears [`CLEARED_ENV`] and sets `CX_THREADS` to the CPU count. Must
/// run before any other thread exists and before any crate reads its
/// configuration (several cache the first value they see).
pub fn pin_env() {
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }
    std::env::set_var("CX_THREADS", host_cpus().to_string());
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has consumed.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100
/// for user space.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split(' ').skip(11);
    let ticks: u64 = f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory under the benchmark's `out/` that is removed on
/// drop — runs leave nothing behind but their result files.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `<out>/work/<tag>-<pid>` (emptying a stale one).
    pub fn create(out: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = out.join("work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An ordered list of named measurements.
#[derive(Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name.to_owned(), value, unit));
    }

    /// Records a duration in the given unit (`s`, `ms` or `us`).
    pub fn put_dur(&mut self, name: &str, d: Duration, unit: &'static str) {
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            _ => panic!("not a time unit: {unit}"),
        };
        self.put(name, d.as_secs_f64() * scale, unit);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": u}, …}` restricted to `names` (all
    /// when `None`).
    pub fn to_json(&self, names: Option<&[&str]>) -> Json {
        Json::Object(
            self.0
                .iter()
                .filter(|(n, _, _)| names.is_none_or(|ns| ns.contains(&n.as_str())))
                .map(|(n, v, u)| {
                    (n.clone(), Json::obj([("value", Json::num(*v)), ("unit", Json::str(*u))]))
                })
                .collect(),
        )
    }

    /// Prints `workload metric value unit`, one line per metric.
    pub fn print(&self, workload: &str) {
        for (n, v, u) in &self.0 {
            println!("{workload} {n} {v} {u}");
        }
    }
}

/// The facts recorded with every result file: what ran, where, under
/// which settings.
pub fn run_context(seed: u64, quick: bool, passes: usize) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    Json::obj([
        ("seed", Json::num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("passes", Json::num(passes as f64)),
        ("host_cpus", Json::num(host_cpus() as f64)),
        ("conns", Json::num(conns() as f64)),
        ("workers", Json::num(host_cpus() as f64)),
        ("git_rev", Json::str(env("CXB_GIT_REV"))),
        ("rustc", Json::str(env("CXB_RUSTC"))),
        ("load_model", Json::str("closed loop, one thread per keep-alive connection")),
        ("query_cache_entries", Json::num(cx_explorer::cache::DEFAULT_CAPACITY as f64)),
        ("flush_policy", Json::str("no per-append fsync (CX_FSYNC unset)")),
        ("env_cleared", Json::arr(CLEARED_ENV.iter().map(|k| Json::str(*k)))),
        ("CX_THREADS", Json::str(env("CX_THREADS"))),
    ])
}

/// Progress on stderr: `[cxb +12.3s] what`. Stdout carries only results.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64();
    eprintln!("[cxb +{t:.1}s] {what}");
}
