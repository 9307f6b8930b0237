//! Experiment drivers regenerating every figure of the paper's
//! characterization (Section IV) and evaluation (Section VII) sections.
//!
//! Each driver returns a typed result with a `render()` method producing
//! the figure's rows as a plain-text table; the `droplet-bench` crate wraps
//! one bench target around each. EXPERIMENTS.md records paper-vs-measured.

pub mod ablations;
pub mod cache_sweeps;
pub mod characterization;
pub mod policy_study;
pub mod prefetch_study;
pub mod reuse;

pub use ablations::{ablation_decoupling, ablation_mpp_sizing};
pub use cache_sweeps::{fig04a_llc_sweep, fig04b_l2_sweep, fig04c_offchip_by_type};
pub use characterization::{
    fig01_cycle_stack, fig03_rob_sweep, fig05_06_chains, fig07_hierarchy_usage,
};
pub use policy_study::{
    run_policy_study, run_policy_study_on, PolicyLevel, PolicyStudy, PolicyStudyRow, STUDY_POLICIES,
};
pub use prefetch_study::{PrefetchStudy, StudyRow};
pub use reuse::tab_reuse_distances;

use crate::config::SystemConfig;
use crate::datasets::WorkloadSpec;
use crate::pool::JobPool;
use crate::trace_cache::TraceCache;
use droplet_cache::{CacheConfig, ReplacementPolicy};
use droplet_gap::TraceBundle;
use droplet_graph::DatasetScale;
use std::sync::Arc;

/// Shared experiment context: dataset scale, op budget, warm-up prefix, and
/// the base system configuration experiments start from (the Table I
/// baseline at Sim scale, a proportionally shrunk hierarchy at Tiny/Small
/// scales so cache-pressure behaviour survives in fast runs).
///
/// The context also carries the process-shared [`TraceCache`] (clones share
/// it) and the [`JobPool`] the drivers fan their independent simulation
/// cells over; `DROPLET_THREADS=1` forces fully serial execution.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Dataset scale to build.
    pub scale: DatasetScale,
    /// Trace op budget per workload.
    pub budget: u64,
    /// Warm-up ops excluded from statistics.
    pub warmup: usize,
    /// The baseline system configuration experiments derive from.
    pub base: SystemConfig,
    /// Shared trace store: each (workload, budget) bundle is built once.
    pub traces: TraceCache,
    /// Worker pool the drivers fan independent cells over.
    pub pool: JobPool,
    /// Whether sweep drivers share warm-up across same-prefix cells via
    /// [`crate::fork::run_sweep`] (on by default; results are bit-identical
    /// either way, only wall time changes).
    pub fork_sweeps: bool,
}

impl ExperimentCtx {
    /// The context used by the figure benches (Sim-scale datasets, Table I
    /// hierarchy).
    pub fn sim() -> Self {
        Self::at(DatasetScale::Sim)
    }

    /// A fast context for tests (tiny datasets, scaled-down hierarchy).
    pub fn tiny() -> Self {
        Self::at(DatasetScale::Tiny)
    }

    /// Small-scale context for examples (scaled-down hierarchy).
    pub fn small() -> Self {
        Self::at(DatasetScale::Small)
    }

    /// Context at an arbitrary scale with the default budgets.
    pub fn at(scale: DatasetScale) -> Self {
        let base = match scale {
            DatasetScale::Sim => SystemConfig::baseline(),
            DatasetScale::Tiny => SystemConfig::test_scale(),
            DatasetScale::Small => {
                // Small graphs (~32 K vertices): hierarchy scaled ~32×.
                let mut cfg = SystemConfig::baseline();
                cfg.l1 = CacheConfig {
                    name: "L1D",
                    size_bytes: 4 * 1024,
                    assoc: 8,
                    tag_latency: 1,
                    data_latency: 4,
                    policy: ReplacementPolicy::Lru,
                };
                cfg.l2 = Some(CacheConfig {
                    name: "L2",
                    size_bytes: 32 * 1024,
                    assoc: 8,
                    tag_latency: 3,
                    data_latency: 8,
                    policy: ReplacementPolicy::Lru,
                });
                cfg.l3 = CacheConfig {
                    name: "L3",
                    size_bytes: 256 * 1024,
                    assoc: 16,
                    tag_latency: 10,
                    data_latency: 30,
                    policy: ReplacementPolicy::Lru,
                };
                cfg.stream.trackers = 16;
                // Prefetch lookahead scales with L2 turnover (see the
                // test-scale configuration for the same reasoning).
                cfg.stream.distance = 8;
                cfg.stream.degree = 2;
                cfg.mpp.vab_entries = 64;
                cfg.mpp.pab_entries = 64;
                cfg.adaptive_epoch_misses = 25_000;
                cfg
            }
        };
        ExperimentCtx {
            scale,
            budget: WorkloadSpec::default_budget(scale),
            warmup: WorkloadSpec::default_warmup(scale),
            base,
            traces: TraceCache::new(),
            pool: JobPool::from_env(),
            fork_sweeps: true,
        }
    }

    /// Overrides the trace budget; the warm-up follows it
    /// ([`WorkloadSpec::warmup_for`]).
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self.warmup = WorkloadSpec::warmup_for(budget);
        self
    }

    /// Overrides the worker count (equivalent to `DROPLET_THREADS`).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = JobPool::with_threads(threads);
        self
    }

    /// Disables (or re-enables) warm-up sharing in sweep drivers.
    #[must_use]
    pub fn with_fork_sweeps(mut self, on: bool) -> Self {
        self.fork_sweeps = on;
        self
    }

    /// The trace bundle of `spec` at this context's budget, via the shared
    /// cache — repeated calls (from any driver or worker) build it once.
    pub fn trace(&self, spec: &WorkloadSpec) -> Arc<TraceBundle> {
        self.traces.get_or_build(*spec, self.budget)
    }

    /// The four-point LLC capacity sweep of Fig. 4a: the base LLC scaled
    /// ×1/×2/×4/×8 with the CACTI-style latency growth of Table I's notes.
    pub fn llc_sweep(&self) -> Vec<CacheConfig> {
        let lat = [(10, 30), (11, 35), (13, 41), (15, 48)];
        (0..4)
            .map(|i| CacheConfig {
                name: "L3",
                size_bytes: self.base.l3.size_bytes << i,
                assoc: self.base.l3.assoc,
                tag_latency: lat[i].0,
                data_latency: lat[i].1,
                policy: self.base.l3.policy,
            })
            .collect()
    }

    /// The Fig. 4b private-L2 sweep: none, ×0.5/×1/×2 capacity, ×2/×4
    /// associativity.
    pub fn l2_sweep(&self) -> Vec<(String, Option<CacheConfig>)> {
        let base = self.base.l2.clone().expect("base config has an L2");
        let sized = |bytes: u64, assoc: usize| CacheConfig {
            name: "L2",
            size_bytes: bytes,
            assoc,
            tag_latency: base.tag_latency,
            data_latency: base.data_latency,
            policy: base.policy,
        };
        let b = base.size_bytes;
        let label = |bytes: u64, assoc: usize| format!("{}KB/{}w", bytes / 1024, assoc);
        vec![
            ("none".into(), None),
            (label(b / 2, base.assoc), Some(sized(b / 2, base.assoc))),
            (label(b, base.assoc), Some(sized(b, base.assoc))),
            (label(b * 2, base.assoc), Some(sized(b * 2, base.assoc))),
            (label(b, base.assoc * 2), Some(sized(b, base.assoc * 2))),
            (label(b, base.assoc * 4), Some(sized(b, base.assoc * 4))),
        ]
    }
}
