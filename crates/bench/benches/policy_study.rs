//! Wall-clock gate for the replacement-policy laboratory: times the full
//! policy × workload × level study (25 workloads × 9 hierarchies) over a
//! warm trace cache — at one worker thread and at four — and exports the
//! walls (one `t<N>` object each) plus the per-policy LLC geomean
//! speedups to `BENCH_engine.json` (section `"policy_study"`).
//!
//! The walls gate higher-worse in `droplet-bench-diff`; the geomeans are
//! informational context for the EXPERIMENTS.md table (exact cycle
//! determinism is enforced separately by the digest and conformance
//! suites, so the gate only needs to catch the study getting slower). The
//! two passes must agree on every geomean — thread count may shift walls,
//! never results — which this bench asserts before writing the report.
//!
//! Run with: `cargo bench -p droplet-bench --bench policy_study`

use droplet::datasets::WorkloadSpec;
use droplet::experiments::policy_study::{run_policy_study, PolicyLevel, STUDY_POLICIES};
use droplet::experiments::ExperimentCtx;
use droplet::obs::json;
use droplet_bench::bench_json;
use std::time::Instant;

fn main() {
    let ctx = ExperimentCtx::tiny();
    println!(
        "policy_study: scale={:?} budget={} warmup={} threads={}",
        ctx.scale,
        ctx.budget,
        ctx.warmup,
        ctx.pool.threads()
    );

    // Warm the shared trace cache so the timed pass measures simulation,
    // not graph/trace construction.
    let specs = WorkloadSpec::matrix(ctx.scale);
    let build = Instant::now();
    let ctx_ref = &ctx;
    ctx.pool.run(
        specs
            .iter()
            .map(|spec| {
                move || {
                    ctx_ref.trace(spec);
                }
            })
            .collect(),
    );
    println!(
        "traces: {} bundles built in {} ms",
        specs.len(),
        build.elapsed().as_millis()
    );

    let mut pairs = vec![
        ("scale".into(), json::quote("tiny")),
        ("budget".into(), ctx.budget.to_string()),
        ("warmup".into(), ctx.warmup.to_string()),
    ];
    let mut studies = Vec::new();
    for threads in [1usize, 4] {
        let ctx = ctx.clone().with_threads(threads);
        let t = Instant::now();
        let study = run_policy_study(&ctx, &STUDY_POLICIES);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "threads={threads}: {} rows in {wall_ms:.0} ms",
            study.rows.len()
        );
        pairs.push((
            format!("t{threads}"),
            json::object(&[("wall_ms", format!("{wall_ms:.0}"))]),
        ));
        studies.push(study);
    }
    println!("{}", studies[0].render());
    for &p in &STUDY_POLICIES {
        let geo = studies[0].geomean_speedup(p, PolicyLevel::Llc);
        let geo4 = studies[1].geomean_speedup(p, PolicyLevel::Llc);
        assert_eq!(
            geo.to_bits(),
            geo4.to_bits(),
            "{p}: LLC geomean differs between 1 and 4 threads"
        );
        pairs.push((format!("geomean_llc_{p}"), format!("{geo:.4}")));
    }
    let section = json::object(&pairs);
    let path = bench_json::default_report_path();
    bench_json::write_section(&path, "policy_study", &section).expect("write BENCH_engine.json");
    println!("wrote section \"policy_study\" to {}", path.display());
}
