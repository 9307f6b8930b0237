//! `replay-demand`: one long PageRank trace on a seeded Kronecker graph,
//! replayed in RAM, single-threaded, with no prefetcher and a fresh
//! `System` per job. The core engine, translation, caches and DRAM carry
//! all of the time; prefetch, fork, pool and serve carry none.

use crate::inputs::derive_seed;
use crate::probe::{self, fingerprint_live, fingerprint_result, AccessTally};
use crate::report::Metrics;
use crate::timing::{
    put_end_to_end, put_spread, put_trace_overhead, repeated_setup, JobLoop, Stopwatch,
};
use crate::{stats, Args, Outcome, SETUP_REPEATS};
use droplet::cpu::CoreEngine;
use droplet::experiments::ExperimentCtx;
use droplet::gap::{Algorithm, TraceBundle};
use droplet::graph::gen::{rmat, RmatSkew};
use droplet::graph::DatasetScale;
use droplet::{run_workload, System, SystemConfig};
use std::sync::Arc;

/// Trace length in ops.
pub const OPS: u64 = 1_000_000;
/// Kronecker graph of 2^15 vertices and ~16 edges each: its CSR arrays
/// and PageRank property arrays exceed the Small-scale hierarchy's
/// 256 KiB LLC (the modelled machine below) several times over.
const RMAT_SCALE: u32 = 15;
const EDGE_FACTOR: u64 = 16;

/// A built replay input.
pub struct Input {
    pub bundle: TraceBundle,
    pub cfg: SystemConfig,
    pub warmup: usize,
}

/// Set-up readings of one build.
#[derive(Debug, Clone, Copy)]
struct SetupLayers {
    graph_s: f64,
    trace_s: f64,
}

fn build(seed: u64, ops: u64) -> (Input, SetupLayers) {
    let sw = Stopwatch::start();
    let g = Arc::new(rmat(
        RMAT_SCALE,
        EDGE_FACTOR,
        RmatSkew::Kron,
        derive_seed(seed, 0x7265_706c_6179),
    ));
    let graph_s = sw.secs();
    let sw = Stopwatch::start();
    let bundle = Algorithm::Pr.trace(&g, ops);
    let trace_s = sw.secs();
    let input = Input {
        bundle,
        cfg: ExperimentCtx::at(DatasetScale::Small).base,
        warmup: (ops / 4) as usize,
    };
    (input, SetupLayers { graph_s, trace_s })
}

/// The untraced job loop: each job is one full replay, checked against
/// `reference_digest`.
pub fn timed_loop(input: &Input, reference_digest: u64, seconds: f64) -> JobLoop {
    JobLoop::run(seconds, || {
        let r = run_workload(&input.bundle, &input.cfg, input.warmup);
        r.digest() == reference_digest
    })
}

/// One traced replay: a fresh system, the engine driven by the benchmark,
/// every access timed.
#[derive(Debug, Clone, Copy, Default)]
struct TracedJob {
    wall_s: f64,
    new_s: f64,
    engine_s: f64,
    access: AccessTally,
    fingerprint: u64,
}

impl TracedJob {
    fn unattributed_s(&self) -> f64 {
        self.wall_s - self.new_s - self.engine_s
    }

    fn cpu_self_s(&self) -> f64 {
        self.engine_s - self.access.busy_s()
    }
}

fn traced_job(input: &Input) -> TracedJob {
    let ops = &input.bundle.ops;
    let applied = input.warmup.min(ops.len() / 2);
    let wall = Stopwatch::start();
    let sw = Stopwatch::start();
    let mut sys = System::new(input.cfg.clone(), &input.bundle);
    let new_s = sw.secs();
    let mut engine = CoreEngine::new(input.cfg.core);
    let warm = probe::warmup(&mut engine, &mut sys, &ops[..applied]);
    let (core, meas) = probe::measure(&mut engine, &mut sys, &ops[applied..]);
    let fingerprint = fingerprint_live(&core, &sys, applied as u64);
    let mut access = warm.access;
    access.add(meas.access);
    TracedJob {
        wall_s: wall.secs(),
        new_s,
        engine_s: warm.wall_s + meas.wall_s,
        access,
        fingerprint,
    }
}

pub fn run(args: &Args) -> Outcome {
    let (input, setups, layers) = repeated_setup(SETUP_REPEATS, || build(args.seed, OPS));
    let reference = run_workload(&input.bundle, &input.cfg, input.warmup);
    let untraced = timed_loop(&input, reference.digest(), args.seconds);
    let mut tally = untraced.tally;
    let mut m = Metrics::default();
    if !args.trace {
        put_end_to_end(&mut m, &untraced, &setups);
        return Outcome { tally, metrics: m };
    }

    let reference_fp = fingerprint_result(&reference);
    let mut jobs = Vec::new();
    let traced = JobLoop::run(args.traced_seconds(), || {
        let job = traced_job(&input);
        let ok = job.fingerprint == reference_fp
            && job.new_s >= 0.0
            && job.cpu_self_s() >= 0.0
            && job.unattributed_s() >= 0.0;
        jobs.push(job);
        ok
    });
    tally.add(traced.tally);

    let n = jobs.len() as f64;
    let mean = |f: &dyn Fn(&TracedJob) -> f64| jobs.iter().map(f).sum::<f64>() / n;
    let mut access = AccessTally::default();
    for j in &jobs {
        access.add(j.access);
    }

    m.put(
        "graph.build_s",
        stats::median(&layers.iter().map(|l| l.graph_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "gap.trace_s",
        stats::median(&layers.iter().map(|l| l.trace_s).collect::<Vec<_>>()),
        "s",
    );
    m.put("gap.ops", input.bundle.ops.len() as f64, "count");
    m.put("system.new_s", mean(&|j| j.new_s), "s");
    m.put("cpu.self_s", mean(&|j| j.cpu_self_s()), "s");
    m.put("replay.unattributed_s", mean(&|j| j.unattributed_s()), "s");
    access.put_metrics(&mut m, n);
    crate::sim::put_simulated(&mut m, [&reference]);
    m.put("traced_wall_s", mean(&|j| j.wall_s), "s");
    put_trace_overhead(&mut m, &traced, &untraced);
    put_spread(
        &mut m,
        &untraced.ms,
        untraced.jobs_per_s(),
        &untraced.yard_ms,
        &setups,
    );
    Outcome { tally, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_digest_counts_every_job_failed() {
        let (input, _) = build(7, 20_000);
        let good = run_workload(&input.bundle, &input.cfg, input.warmup).digest();
        let pass = timed_loop(&input, good, 0.0);
        assert_eq!(pass.tally.failed, 0);
        assert!(pass.tally.attempted >= 1);
        let fail = timed_loop(&input, good ^ 1, 0.0);
        assert_eq!(fail.tally.failed, fail.tally.attempted);
        assert!(fail.tally.failed >= 1);
    }

    #[test]
    fn traced_replay_is_digest_identical_and_adds_up() {
        let (input, _) = build(11, 20_000);
        let reference = run_workload(&input.bundle, &input.cfg, input.warmup);
        let job = traced_job(&input);
        assert_eq!(job.fingerprint, fingerprint_result(&reference));
        assert_eq!(job.access.accesses, input.bundle.ops.len() as u64);
        let sum = job.new_s + job.cpu_self_s() + job.access.busy_s() + job.unattributed_s();
        assert!((sum - job.wall_s).abs() < 1e-9);
        assert!(job.cpu_self_s() >= 0.0 && job.unattributed_s() >= 0.0);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (a, _) = build(1, 5_000);
        let (b, _) = build(1, 5_000);
        let (c, _) = build(2, 5_000);
        assert_eq!(a.bundle.ops, b.bundle.ops);
        assert_ne!(a.bundle.ops, c.bundle.ops);
    }
}
