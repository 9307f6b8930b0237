//! The host fingerprint every result names, and the process's own
//! resource readings.

use crate::report::quote;
use droplet::obs::fnv1a;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// An FNV-1a digest over the sources the benchmark builds and runs
/// (`Cargo.toml`, `crates/`, `perfbench/`, `BENCHMARK.json`). It names
/// the code measured whether or not the working directory is a git
/// checkout, and tells uncommitted changes apart from the commit they
/// sit on.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    collect_sources(Path::new("perfbench"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("BENCHMARK.json").to_path_buf());
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a:{:016x}", fnv1a(&bytes))
}

/// Reads `.git/HEAD` (and the ref it names) without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(reference)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            // Build output is not source.
            Ok(t) if t.is_dir() && entry.file_name() != "target" => collect_sources(&path, out),
            Ok(t) if t.is_file() => {
                let ext = path.extension().and_then(|e| e.to_str());
                if matches!(ext, Some("rs" | "toml")) {
                    out.push(path);
                }
            }
            _ => {}
        }
    }
}

/// The fingerprint as one JSON object. `commit` is `HEAD` when the
/// working directory is a git checkout (`null` otherwise); `sources` is
/// always present.
pub fn fingerprint_json() -> String {
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"sources\": {}, \"timestamp_unix_s\": {unix_s}}}}}",
        nproc(),
        quote(&cpu_model()),
        quote(env!("PERFBENCH_RUSTC_VERSION")),
        git_head().map_or_else(|| "null".to_string(), |h| quote(&h)),
        quote(&source_digest()),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
