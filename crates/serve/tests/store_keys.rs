//! Golden store keys. The result store files every canonical body under
//! `{config_hash:016x}-{workload_hash:016x}`, so a change in how
//! configurations or specs are built that moves one of these values
//! orphans every stored result (or, if two machines collide, aliases
//! them). The values below were recorded once and must never be edited:
//! a refactor of the spec or config path has to reproduce them.

use droplet::experiments::ExperimentCtx;
use droplet::{config_hash, SystemConfig};
use droplet_graph::DatasetScale;
use droplet_serve::RunSpec;

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

#[test]
fn config_hash_of_the_default_config_is_pinned() {
    assert_eq!(
        hex(config_hash(&SystemConfig::default())),
        "a27eb4ca77e306bd"
    );
}

#[test]
fn config_hash_of_the_tiny_base_is_pinned() {
    let base = ExperimentCtx::at(DatasetScale::Tiny).base;
    assert_eq!(hex(config_hash(&base)), "f492613acafe333d");
}

#[test]
fn run_spec_keys_are_pinned() {
    let base = ExperimentCtx::at(DatasetScale::Tiny).base;
    let cases = [
        (
            r#"{"algo": "pr", "dataset": "kron", "scale": "tiny", "prefetcher": "droplet", "budget": 30000}"#,
            "b3dd6ad188b7a52e-8fcaef137a73d56c",
        ),
        (
            r#"{"algo": "bfs", "dataset": "road", "prefetcher": "vldp", "epoch_ops": 2000,
                "l1_policy": "srrip", "l2_policy": "brrip", "l3_policy": "ship"}"#,
            "5295f4759287d0ff-bc30ae56b87863db",
        ),
    ];
    for (body, want) in cases {
        let spec = RunSpec::parse(body, DatasetScale::Tiny).unwrap();
        assert_eq!(spec.key(&spec.config(&base)), want, "{body}");
    }
}
