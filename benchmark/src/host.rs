//! Facts about the host and the build, recorded beside the numbers.

use std::process::Command;

/// Peak resident set size of this process so far, in MB (`VmHWM` of
/// `/proc/self/status`). `None` where the file or the field is missing.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores the process may use (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First stdout line of `program args…`, or `"unknown"`. The child has
/// exited by the time this returns (`output` waits for it).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`.
#[must_use]
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// The checked-out commit; `"unknown"` outside a git repository.
#[must_use]
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"])
}
