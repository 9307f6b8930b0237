//! `droplet-sim`'s flag diagnostics: a rejected spec flag prints the same
//! field-level message `droplet-serve` returns as an HTTP 400, under the
//! flag's own spelling, then the usage text, and exits 2.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_droplet-sim"))
            .args(["run", "--algo", "pr", "--dataset", "kron", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {flag}: {want}").as_str())
        );
    }
}
