//! `droplet-sim`'s flag diagnostics: a rejected spec flag prints the same
//! field-level message `droplet-serve` returns as an HTTP 400, under the
//! flag's own spelling, then the usage text, and exits 2. `--obs` writes a
//! journal where a command has one run to journal and is refused where not.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_droplet-sim"))
        .args(args)
        .output()
        .unwrap()
}

/// Asserts that `droplet-sim <args>` exits 2 with `first_line` first on stderr.
fn assert_refused(args: &[&str], first_line: &str) {
    let out = sim(args);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().next(), Some(first_line));
}

#[test]
fn bad_flags_name_the_flag_the_value_and_the_domain() {
    let cases = [
        (
            "--budget",
            "abc",
            "invalid value \"abc\" (expected a non-negative integer)",
        ),
        (
            "--l1-policy",
            "mru",
            "invalid value \"mru\" (expected one of lru|srrip|brrip|drrip|ship)",
        ),
        (
            "--epoch-ops",
            "-3",
            "invalid value \"-3\" (expected a non-negative integer)",
        ),
        (
            "--threads",
            "0",
            "invalid value \"0\" (expected a positive integer)",
        ),
        ("--prefetchers", "ghb", "unknown flag"),
        ("--l1_policy", "lru", "unknown flag"),
    ];
    for (flag, value, want) in cases {
        assert_refused(
            &["run", "--algo", "pr", "--dataset", "kron", flag, value],
            &format!("error: {flag}: {want}"),
        );
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("droplet-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TINY_PR: [&str; 8] = [
    "--algo",
    "pr",
    "--dataset",
    "kron",
    "--scale",
    "tiny",
    "--budget",
    "50000",
];

#[test]
fn obs_is_refused_where_no_journal_would_be_written() {
    let dir = scratch_dir("obs-refused");
    let journal = dir.join("j.jsonl");
    let journal = journal.to_str().unwrap();
    let artifact = dir.join("t.dcol");
    let artifact = artifact.to_str().unwrap();
    for (cmd, extra) in [
        (vec!["sweep"], vec![]),
        (vec!["trace", "save"], vec!["--trace-file", artifact]),
    ] {
        assert_refused(
            &[cmd.as_slice(), &TINY_PR, &extra, &["--obs", journal]].concat(),
            &format!(
                "error: --obs: not supported by `{}` (only `run` and `trace load` write a journal)",
                cmd.join(" ")
            ),
        );
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "nothing written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_load_writes_the_journal_run_writes() {
    let dir = scratch_dir("obs-load");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (artifact, loaded, ran) = (path("t.dcol"), path("load.jsonl"), path("run.jsonl"));
    let save = sim(&[
        &["trace", "save"],
        &TINY_PR[..],
        &["--trace-file", &artifact],
    ]
    .concat());
    assert!(save.status.success());
    let load = sim(&[
        &["trace", "load"],
        &TINY_PR[..],
        &["--trace-file", &artifact, "--obs", &loaded],
    ]
    .concat());
    assert!(load.status.success());
    let run = sim(&[&["run"], &TINY_PR[..], &["--obs", &ran]].concat());
    assert!(run.status.success());

    let loaded = std::fs::read_to_string(&loaded).unwrap();
    let ran = std::fs::read_to_string(&ran).unwrap();
    let manifest = loaded.lines().next().unwrap();
    assert!(manifest.starts_with("{\"manifest\": {"), "{manifest}");
    assert!(manifest.contains("\"workload\": \"PR-kron\""), "{manifest}");
    assert!(manifest.contains("\"epoch_ops\": 10000"), "{manifest}");
    // The replay is the same simulation as `run`'s, epoch for epoch.
    let epochs = |j: &str| j.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert!(!epochs(&loaded).is_empty());
    assert_eq!(epochs(&loaded), epochs(&ran));
    std::fs::remove_dir_all(&dir).unwrap();
}
