//! Timing the simulator's layers from outside: a [`MemorySystem`] wrapper
//! around [`System`] that times every demand access, with the benchmark
//! driving [`CoreEngine`] itself, plus a fingerprint of the simulated
//! results so a traced run can be checked against an untraced one.

use crate::report::Metrics;
use crate::timing::Stopwatch;
use droplet::cpu::{AccessResponse, CoreEngine, CoreResult, MemorySystem};
use droplet::obs::fnv1a;
use droplet::trace::{Cycle, MemOp, OpId};
use droplet::{RunResult, System};
use std::time::Instant;

/// Host time and call counts of the memory system, as its caller saw them.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessTally {
    /// Host nanoseconds inside `access` and `access_hot`.
    pub busy_ns: u64,
    /// Demand accesses the system serviced (full or hot lane).
    pub accesses: u64,
    /// Ops offered to the hot lane.
    pub hot_attempts: u64,
    /// Ops the hot lane serviced.
    pub hot_accepts: u64,
}

impl AccessTally {
    pub fn add(&mut self, o: AccessTally) {
        self.busy_ns += o.busy_ns;
        self.accesses += o.accesses;
        self.hot_attempts += o.hot_attempts;
        self.hot_accepts += o.hot_accepts;
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Reports the system layer's host time and the hot lane's offers and
    /// acceptances, per job over `jobs` jobs.
    pub fn put_metrics(&self, m: &mut Metrics, jobs: f64) {
        m.put("system.access_s", self.busy_s() / jobs, "s");
        m.put("system.accesses", self.accesses as f64 / jobs, "count");
        m.put(
            "system.access_ns",
            self.busy_ns as f64 / self.accesses.max(1) as f64,
            "ns",
        );
        m.put("cpu.hot_attempts", self.hot_attempts as f64 / jobs, "count");
        m.put("cpu.hot_accepts", self.hot_accepts as f64 / jobs, "count");
        m.put(
            "cpu.hot_accept_ratio",
            self.hot_accepts as f64 / self.hot_attempts.max(1) as f64,
            "ratio",
        );
    }
}

/// Forwards every call to the wrapped system unchanged, timing it.
struct TimedSystem<'s, 'b> {
    sys: &'s mut System<'b>,
    tally: AccessTally,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl MemorySystem for TimedSystem<'_, '_> {
    fn access(&mut self, op: &MemOp, id: OpId, now: Cycle) -> AccessResponse {
        let t = Instant::now();
        let r = self.sys.access(op, id, now);
        self.tally.busy_ns += ns_since(t);
        self.tally.accesses += 1;
        r
    }

    fn access_hot(&mut self, op: &MemOp, id: OpId, now: Cycle) -> Option<AccessResponse> {
        let t = Instant::now();
        let r = self.sys.access_hot(op, id, now);
        self.tally.busy_ns += ns_since(t);
        self.tally.hot_attempts += 1;
        if r.is_some() {
            self.tally.hot_accepts += 1;
            self.tally.accesses += 1;
        }
        r
    }

    fn warmup_done(&mut self, now: Cycle) {
        self.sys.warmup_done(now);
    }
}

/// Where one engine span's host time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSpan {
    /// Wall time of the engine calls, accesses included.
    pub wall_s: f64,
    pub access: AccessTally,
}

/// Feeds the warm-up prefix `ops` through `engine`, timed.
pub fn warmup(engine: &mut CoreEngine, sys: &mut System<'_>, ops: &[MemOp]) -> EngineSpan {
    let mut timed = TimedSystem {
        sys,
        tally: AccessTally::default(),
    };
    let sw = Stopwatch::start();
    engine.warmup(ops, &mut timed);
    EngineSpan {
        wall_s: sw.secs(),
        access: timed.tally,
    }
}

/// Opens the measurement window, feeds `ops` through it and closes it,
/// timed.
pub fn measure(
    engine: &mut CoreEngine,
    sys: &mut System<'_>,
    ops: &[MemOp],
) -> (CoreResult, EngineSpan) {
    let mut timed = TimedSystem {
        sys,
        tally: AccessTally::default(),
    };
    let sw = Stopwatch::start();
    let mut window = engine.open_window(&mut timed);
    engine.measure_chunk(ops, &mut timed, &mut window);
    let core = engine.finish(window);
    let span = EngineSpan {
        wall_s: sw.secs(),
        access: timed.tally,
    };
    (core, span)
}

/// FNV-1a over every simulated field [`RunResult::digest`] covers, in
/// the same rendering, read from a live system after a hand-driven run.
pub fn fingerprint_live(core: &CoreResult, sys: &System<'_>, warmup_applied: u64) -> u64 {
    fingerprint(
        core,
        sys.l1().stats(),
        sys.l2().map(|c| c.stats()),
        sys.l3().stats(),
        sys.dram().stats(),
        sys.mpp().map(|m| m.stats()),
        sys.stats(),
        sys.warmup_boundary(),
        warmup_applied,
    )
}

/// [`fingerprint_live`] of a finished [`RunResult`].
pub fn fingerprint_result(r: &RunResult) -> u64 {
    fingerprint(
        &r.core,
        &r.l1,
        r.l2.as_ref(),
        &r.l3,
        &r.dram,
        r.mpp.as_ref(),
        &r.sys,
        r.warmup_boundary_cycle,
        r.warmup_ops_applied,
    )
}

#[allow(clippy::too_many_arguments)]
fn fingerprint(
    core: &CoreResult,
    l1: &impl std::fmt::Debug,
    l2: Option<&impl std::fmt::Debug>,
    l3: &impl std::fmt::Debug,
    dram: &impl std::fmt::Debug,
    mpp: Option<&impl std::fmt::Debug>,
    sys: &impl std::fmt::Debug,
    boundary: Cycle,
    applied: u64,
) -> u64 {
    let repr =
        format!("{core:?}|{l1:?}|{l2:?}|{l3:?}|{dram:?}|{mpp:?}|{sys:?}|{boundary}|{applied}");
    fnv1a(repr.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet::gap::Algorithm;
    use droplet::graph::gen::{rmat, RmatSkew};
    use droplet::{run_workload, PrefetcherKind, SystemConfig};
    use std::sync::Arc;

    #[test]
    fn hand_driven_timed_run_matches_run_workload() {
        let g = Arc::new(rmat(9, 8, RmatSkew::Kron, 3));
        let bundle = Algorithm::Pr.trace(&g, 20_000);
        for kind in [PrefetcherKind::None, PrefetcherKind::Droplet] {
            let cfg = SystemConfig::test_scale().with_prefetcher(kind);
            let reference = run_workload(&bundle, &cfg, 5_000);
            // The fingerprint covers exactly what the library's digest does.
            assert_eq!(fingerprint_result(&reference), reference.digest());

            let mut sys = System::new(cfg.clone(), &bundle);
            let mut engine = CoreEngine::new(cfg.core);
            let warm = warmup(&mut engine, &mut sys, &bundle.ops[..5_000]);
            let (core, span) = measure(&mut engine, &mut sys, &bundle.ops[5_000..]);
            assert_eq!(fingerprint_live(&core, &sys, 5_000), reference.digest());
            assert_eq!(
                warm.access.accesses + span.access.accesses,
                bundle.ops.len() as u64
            );
            assert!(span.access.busy_s() <= span.wall_s);
        }
    }
}
