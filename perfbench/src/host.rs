//! Process and host readings: CPU time, peak memory and the fingerprint
//! every result carries (numbers are tied to the host, because the
//! workspace builds with `target-cpu=native`).

use std::process::Command;

use einet_trace::json::JsonWriter;

/// Kernel clock ticks per second for `/proc/self/stat` times (USER_HZ,
/// 100 on every mainstream Linux build).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in ms.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC * 1e3
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// `nproc`, CPU model, compiler and commit as one JSON object.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("nproc");
    w.number_u64(nproc as u64);
    w.key("cpu");
    w.string(&cpu);
    w.key("rustc");
    w.string(env!("PERFBENCH_RUSTC"));
    w.key("commit");
    w.string(&git_commit());
    w.end_object();
    w.finish()
}

/// The commit the repository is at, or `unknown` outside a git checkout
/// (an exported source tree has no history).
fn git_commit() -> String {
    let root = crate::config::package_dir().join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
