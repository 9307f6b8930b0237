//! `study-fig11`: the forked Fig. 11 prefetcher study (`run_study`, 25
//! workloads × 7 configurations, Tiny scale) on a `JobPool` of `nproc`
//! threads over a pre-filled `TraceCache`. Warm-up, snapshot clone, fork,
//! pool scheduling and the six prefetchers plus MPP carry its time.

use crate::host::nproc;
use crate::inputs::fill_matrix;
use crate::probe::{self, fingerprint_live, fingerprint_result, AccessTally};
use crate::report::Metrics;
use crate::timing::{
    put_end_to_end, put_spread, put_trace_overhead, repeated_setup, JobLoop, Stopwatch,
};
use crate::{stats, Args, Outcome, SETUP_REPEATS};
use droplet::experiments::prefetch_study::run_study;
use droplet::experiments::{ExperimentCtx, PrefetchStudy, StudyRow};
use droplet::gap::TraceBundle;
use droplet::trace::DataType;
use droplet::{run_workload, warm_snapshot, PrefetcherKind, RunResult, SystemConfig, WorkloadSpec};
use std::sync::Arc;

/// Trace ops per workload: a sixteenth of the Tiny default (400,000),
/// with the same quarter of it as warm-up. A study then takes about
/// 0.3 s instead of 4 s, so a run times some fifty of them and each sits
/// between yardstick readings a fraction of a second apart; at the
/// default, five seeds gave `job_p50_rel` a spread (IQR/median) of 0.13,
/// at this size 0.04. The host time splits the same way at both sizes
/// (2-vCPU Xeon, traced): warm-up 1.8 % vs 2.6 %, resume 0.8 % vs 0.4 %,
/// measure 97 % at both, 28 % of it in the core and 72 % in
/// `System::access` at both; each prefetcher's measure cost over the
/// baseline is within 0.15 (VLDP 1.71 vs 1.79, the MPP configurations
/// 1.54 vs 1.35-1.42).
const BUDGET: u64 = 25_000;

/// The baseline followed by the six evaluated configurations: the order
/// `run_study` runs each workload's cells in.
fn kinds() -> Vec<PrefetcherKind> {
    let mut k = vec![PrefetcherKind::None];
    k.extend(PrefetcherKind::EVALUATED);
    k
}

fn slug(kind: PrefetcherKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// A set-up study context with its seeded bundles in matrix order.
struct Input {
    ctx: ExperimentCtx,
    bundles: Vec<(WorkloadSpec, Arc<TraceBundle>)>,
    cfgs: Vec<SystemConfig>,
}

fn build(seed: u64) -> (Input, crate::inputs::FillTimes) {
    let mut ctx = ExperimentCtx::tiny().with_threads(nproc());
    ctx.budget = BUDGET;
    ctx.warmup = (BUDGET / 4) as usize;
    let (bundles, times) = fill_matrix(&ctx.traces, seed, ctx.budget);
    let cfgs = kinds()
        .into_iter()
        .map(|k| match k {
            PrefetcherKind::None => ctx.base.clone(),
            k => ctx.base.with_prefetcher(k),
        })
        .collect();
    (Input { ctx, bundles, cfgs }, times)
}

/// Untimed, unforked, in-RAM replays of every cell, in study order.
fn references(input: &Input) -> Vec<RunResult> {
    let warmup = input.ctx.warmup;
    let jobs: Vec<_> = input
        .bundles
        .iter()
        .flat_map(|(_, b)| input.cfgs.iter().map(move |cfg| (b, cfg)))
        .map(|(b, cfg)| move || run_workload(b, cfg, warmup))
        .collect();
    input.ctx.pool.run(jobs)
}

/// The rows `run_study` must produce, rebuilt from the reference cells.
fn expected_rows(input: &Input, refs: &[RunResult]) -> (Vec<StudyRow>, Vec<StudyRow>) {
    let kinds = kinds();
    let mut baselines = Vec::new();
    let mut rows = Vec::new();
    for ((spec, _), group) in input.bundles.iter().zip(refs.chunks(kinds.len())) {
        let base_cycles = group[0].core.cycles;
        for (r, &kind) in group.iter().zip(&kinds) {
            let mut mpki = [0.0; 3];
            let mut acc = [0.0; 3];
            for dt in DataType::ALL {
                mpki[dt.index()] = r.llc_mpki_of(dt);
                acc[dt.index()] = r.prefetch_accuracy(dt);
            }
            let row = StudyRow {
                label: spec.label(),
                algorithm: spec.algorithm,
                kind,
                cycles: r.core.cycles,
                speedup: base_cycles as f64 / r.core.cycles.max(1) as f64,
                l2_hit_rate: r.l2_hit_rate(),
                llc_mpki_by_type: mpki,
                accuracy_by_type: acc,
                bpki: r.bpki(),
            };
            if kind == PrefetcherKind::None {
                baselines.push(row);
            } else {
                rows.push(row);
            }
        }
    }
    (baselines, rows)
}

/// Whether `study` matches the reference rows field for field (floats
/// bit for bit, through their `Debug` rendering).
fn rows_match(study: &PrefetchStudy, expected: &(Vec<StudyRow>, Vec<StudyRow>)) -> bool {
    format!("{:?}", study.baselines) == format!("{:?}", expected.0)
        && format!("{:?}", study.rows) == format!("{:?}", expected.1)
}

/// One workload's group of cells, traced: warm once, then resume and
/// measure each configuration.
#[derive(Debug, Clone, Default)]
struct GroupTrace {
    busy_s: f64,
    warmup_s: f64,
    resume_s: f64,
    /// Measure time per configuration, in [`kinds`] order.
    measure_s: Vec<f64>,
    access: AccessTally,
    cache_hit: bool,
    ok: bool,
}

impl GroupTrace {
    fn measure_total(&self) -> f64 {
        self.measure_s.iter().sum()
    }

    fn unattributed_s(&self) -> f64 {
        self.busy_s - self.warmup_s - self.resume_s - self.measure_total()
    }
}

/// One traced study: every group a pool job, as `run_study` fans cells
/// out. Returns the wall time and each group's trace.
fn traced_study(input: &Input, ref_fps: &[u64]) -> (f64, Vec<GroupTrace>) {
    let n = input.cfgs.len();
    let ctx = &input.ctx;
    let sw = Stopwatch::start();
    let jobs: Vec<_> = input
        .bundles
        .iter()
        .enumerate()
        .map(|(g, (spec, fallback))| {
            let fps = &ref_fps[g * n..(g + 1) * n];
            move || {
                let busy = Stopwatch::start();
                let mut t = GroupTrace {
                    cache_hit: true,
                    ok: true,
                    ..GroupTrace::default()
                };
                let bundle = ctx.traces.get_or_build_with(*spec, ctx.budget, || {
                    t.cache_hit = false;
                    (**fallback).clone()
                });
                let sw = Stopwatch::start();
                let snap = warm_snapshot(&bundle, &input.cfgs[0], ctx.warmup);
                t.warmup_s = sw.secs();
                let from = usize::try_from(snap.applied()).expect("warm-up fits in memory");
                for (cfg, &fp) in input.cfgs.iter().zip(fps) {
                    let sw = Stopwatch::start();
                    let (mut sys, mut engine) = snap.resume(cfg, &bundle);
                    t.resume_s += sw.secs();
                    let (core, span) = probe::measure(&mut engine, &mut sys, &bundle.ops[from..]);
                    t.measure_s.push(span.wall_s);
                    t.access.add(span.access);
                    t.ok &= fingerprint_live(&core, &sys, snap.applied()) == fp;
                }
                t.busy_s = busy.secs();
                t.ok &= t.unattributed_s() >= 0.0 && t.measure_total() >= t.access.busy_s();
                t
            }
        })
        .collect();
    let groups = ctx.pool.run(jobs);
    (sw.secs(), groups)
}

pub fn run(args: &Args) -> Outcome {
    let (input, setups, layers) = repeated_setup(SETUP_REPEATS, || build(args.seed));
    let refs = references(&input);
    let expected = expected_rows(&input, &refs);
    let kinds = kinds();
    let cache_len = input.ctx.traces.len();
    let untraced = JobLoop::run(args.seconds, || {
        let study = run_study(&input.ctx, &PrefetcherKind::EVALUATED);
        // A lazily built (or spilled) trace would mean the study ran on
        // inputs other than the seeded ones.
        rows_match(&study, &expected)
            && input.ctx.traces.len() == cache_len
            && input.ctx.traces.spilled_len() == 0
    });
    let mut tally = untraced.tally;
    let mut m = Metrics::default();
    if !args.trace {
        put_end_to_end(&mut m, &untraced, &setups);
        return Outcome { tally, metrics: m };
    }

    let ref_fps: Vec<u64> = refs.iter().map(fingerprint_result).collect();
    let mut walls = Vec::new();
    let mut groups: Vec<GroupTrace> = Vec::new();
    let traced = JobLoop::run(args.traced_seconds(), || {
        let (wall, gs) = traced_study(&input, &ref_fps);
        let ok = gs.iter().all(|g| g.ok);
        walls.push(wall);
        groups.extend(gs);
        ok
    });
    tally.add(traced.tally);

    let jobs = walls.len() as f64;
    let threads = input.ctx.pool.threads() as f64;
    let wall_s: f64 = walls.iter().sum();
    let sum = |f: &dyn Fn(&GroupTrace) -> f64| groups.iter().map(f).sum::<f64>();
    let busy = sum(&|g| g.busy_s);
    let measure = sum(&|g| g.measure_total());
    let mut access = AccessTally::default();
    for g in &groups {
        access.add(g.access);
    }
    let hits = groups.iter().filter(|g| g.cache_hit).count() as u64;
    let fill_median = |f: &dyn Fn(&crate::inputs::FillTimes) -> f64| {
        stats::median(&layers.iter().map(f).collect::<Vec<_>>())
    };
    let kept = layers.last().expect("at least one set-up");

    m.put("graph.build_s", fill_median(&|l| l.graph_s), "s");
    m.put("gap.trace_s", fill_median(&|l| l.trace_s), "s");
    m.put("gap.ops", kept.ops as f64, "count");
    m.put("trace_cache.fill_s", fill_median(&|l| l.fill_s), "s");
    m.put("trace_cache.hits", hits as f64, "count");
    m.put(
        "trace_cache.misses",
        (kept.misses + groups.len() as u64 - hits) as f64,
        "count",
    );
    m.put(
        "trace_cache.resident_bytes",
        input.ctx.traces.resident_bytes() as f64,
        "bytes",
    );
    // Host-time layers, per traced study, in thread-seconds: together
    // with the pool's idle time they add up to wall × threads.
    m.put("fork.warmup_s", sum(&|g| g.warmup_s) / jobs, "s");
    m.put("fork.resume_s", sum(&|g| g.resume_s) / jobs, "s");
    m.put("fork.measure_s", measure / jobs, "s");
    m.put("cpu.self_s", (measure - access.busy_s()) / jobs, "s");
    m.put(
        "replay.unattributed_s",
        sum(&|g| g.unattributed_s()) / jobs,
        "s",
    );
    m.put("pool.idle_s", (wall_s * threads - busy) / jobs, "s");
    m.put("pool.busy_frac", busy / (wall_s * threads), "ratio");
    m.put("fork.groups", groups.len() as f64 / jobs, "count");
    m.put(
        "fork.cells",
        groups.iter().map(|g| g.measure_s.len()).sum::<usize>() as f64 / jobs,
        "count",
    );
    access.put_metrics(&mut m, jobs);

    let per_kind = |k: usize| groups.iter().map(|g| g.measure_s[k]).sum::<f64>();
    let baseline = per_kind(0);
    for (k, &kind) in kinds.iter().enumerate() {
        m.put(
            format!("fork.measure_s.{}", slug(kind)),
            per_kind(k) / jobs,
            "s",
        );
        if kind != PrefetcherKind::None {
            m.put(
                format!("prefetch.cost_x.{}", slug(kind)),
                per_kind(k) / baseline,
                "ratio",
            );
            let (mut used, mut wasted) = (0u64, 0u64);
            for r in refs.iter().skip(k).step_by(kinds.len()) {
                used += r.sys.prefetch_useful.total();
                wasted += r.sys.prefetch_wasted.total();
            }
            m.put(
                format!("prefetch.accuracy.{}", slug(kind)),
                used as f64 / (used + wasted).max(1) as f64,
                "ratio",
            );
        }
    }
    crate::sim::put_simulated(&mut m, &refs);
    m.put("traced_wall_s", wall_s / jobs, "s");
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
    fn study_rows_and_traced_cells_match_the_references() {
        let (mut input, _) = build(5);
        input.ctx = input.ctx.with_threads(2);
        let refs = references(&input);
        let study = run_study(&input.ctx, &PrefetcherKind::EVALUATED);
        let expected = expected_rows(&input, &refs);
        assert!(rows_match(&study, &expected));
        assert_eq!(input.ctx.traces.len(), 25, "no lazy builds");

        let mut fps: Vec<u64> = refs.iter().map(fingerprint_result).collect();
        let (_, groups) = traced_study(&input, &fps);
        assert_eq!(groups.len(), 25);
        assert!(groups.iter().all(|g| g.ok && g.cache_hit));
        // A corrupted reference is caught.
        fps[3] ^= 1;
        let (_, groups) = traced_study(&input, &fps);
        assert_eq!(groups.iter().filter(|g| !g.ok).count(), 1);
    }
}
