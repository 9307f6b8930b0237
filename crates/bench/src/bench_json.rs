//! Machine-readable benchmark reports (`BENCH_engine.json`).
//!
//! Several independent `harness = false` bench binaries contribute numbers
//! to one JSON file at the repository root, so the perf trajectory of the
//! simulation engine can be tracked across PRs without scraping stdout.
//! Each binary owns one *top-level section* (`"sim_replay"`, `"micro"`, …)
//! and replaces only its own section on write; sections written by other
//! binaries are preserved verbatim.
//!
//! The file format is plain JSON with one object per section, read and
//! rendered with the workspace's one JSON module, [`droplet::obs::json`].

use droplet::obs::json;
use std::path::{Path, PathBuf};

/// Default report location: the workspace root, next to `EXPERIMENTS.md`.
/// Overridable via `DROPLET_BENCH_JSON` (useful under CI sandboxes).
pub fn default_report_path() -> PathBuf {
    if let Ok(p) = std::env::var("DROPLET_BENCH_JSON") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Replaces (or appends) the top-level `section` of the JSON report at
/// `path` with `value`, which must itself be a rendered JSON value.
/// Unparseable existing files are replaced wholesale rather than erroring:
/// a corrupt report should never fail a bench run.
pub fn write_section(path: &Path, section: &str, value: &str) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections: Vec<(String, &str)> = json::split_top_level(&text).unwrap_or_default();
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = value,
        None => sections.push((section.to_string(), value)),
    }
    let body = sections
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json::quote(k)))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(path, format!("{{\n{body}\n}}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `initial` as the report, sets section `m` to `2` over it,
    /// and returns the file written.
    fn rewrite(tag: &str, initial: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("droplet_bench_json_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::fs::write(&path, initial).unwrap();
        write_section(&path, "m", "2").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        text
    }

    /// Other sections survive a rewrite byte for byte, nesting and all.
    #[test]
    fn split_round_trips_nested_values() {
        let text = rewrite("nested", r#"{"a": {"x": [1, {"y": "s,t"}]}, "c": "q\"c"}"#);
        assert_eq!(
            text,
            "{\n  \"a\": {\"x\": [1, {\"y\": \"s,t\"}]},\n  \"c\": \"q\\\"c\",\n  \"m\": 2\n}\n"
        );
    }

    /// An unreadable report is replaced wholesale, not an error.
    #[test]
    fn split_rejects_malformed() {
        for (i, bad) in ["not json", r#"{"a": {"#, r#"{"a": "unterminated}"#]
            .iter()
            .enumerate()
        {
            assert_eq!(
                rewrite(&format!("bad{i}"), bad),
                "{\n  \"m\": 2\n}\n",
                "{bad}"
            );
        }
    }

    /// A stray closer must never let a corrupted value round-trip.
    #[test]
    fn split_rejects_stray_closing_brackets() {
        for (i, bad) in [r#"{"a": 1]}"#, r#"{"a": [1]], "b": 2}"#, r#"{"a": }}"#]
            .iter()
            .enumerate()
        {
            assert_eq!(
                rewrite(&format!("stray{i}"), bad),
                "{\n  \"m\": 2\n}\n",
                "{bad}"
            );
        }
    }

    /// A section rendered with the shared `object`/`quote` helpers, under a
    /// name that needs escaping, lands in the report as valid JSON.
    #[test]
    fn object_and_quote_render() {
        let dir =
            std::env::temp_dir().join(format!("droplet_bench_json_render_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let _ = std::fs::remove_file(&path);

        let value = json::object(&[("a", "1".into()), ("b\"c", json::quote("v\n"))]);
        assert_eq!(value, r#"{"a": 1, "b\"c": "v\n"}"#);
        write_section(&path, "s\"x", &value).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"s\\\"x\": {\"a\": 1, \"b\\\"c\": \"v\\n\"}\n}\n"
        );
        let parts = json::split_top_level(&text).unwrap();
        assert_eq!(parts, vec![("s\"x".to_string(), value.as_str())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_section_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("droplet_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let _ = std::fs::remove_file(&path);

        write_section(&path, "micro", r#"{"l2": 28.7}"#).unwrap();
        write_section(&path, "sim_replay", r#"{"baseline": 1.5}"#).unwrap();
        write_section(&path, "micro", r#"{"l2": 14.0}"#).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let parts = json::split_top_level(&text).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], ("micro".into(), r#"{"l2": 14.0}"#));
        assert_eq!(parts[1], ("sim_replay".into(), r#"{"baseline": 1.5}"#));
        std::fs::remove_file(&path).unwrap();
    }
}
