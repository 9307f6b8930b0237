//! Seeded inputs. Every graph comes from the public generators
//! (`droplet::graph::gen`) with a seed derived from the run's `--seed`;
//! nothing is read from the library's fixed-seed datasets or
//! their on-disk cache.

use crate::timing::Stopwatch;
use droplet::gap::TraceBundle;
use droplet::graph::gen::{self, RmatSkew};
use droplet::graph::{Csr, Dataset, DatasetScale};
use droplet::{TraceCache, WorkloadSpec};
use std::sync::Arc;

/// A seed for one input, mixed from the run seed and a salt naming the
/// input, so inputs of one run differ from each other.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut rng = droplet::graph::rng::SimRng::seed_from_u64(seed ^ salt.rotate_left(17));
    rng.next_u64()
}

/// `dataset` in the shape its Tiny-scale build has (same generator, size
/// and skew), drawn with a seed derived from `seed`.
pub fn tiny_graph(dataset: Dataset, weighted: bool, seed: u64) -> Csr {
    let idx = Dataset::ALL
        .iter()
        .position(|&d| d == dataset)
        .expect("dataset is one of Dataset::ALL") as u64;
    let s = derive_seed(seed, 0x6772_6170_6800 | (idx << 1) | u64::from(weighted));
    let rmat = |scale, ef, skew| {
        if weighted {
            gen::rmat_weighted(scale, ef, skew, s)
        } else {
            gen::rmat(scale, ef, skew, s)
        }
    };
    match dataset {
        Dataset::Kron => rmat(13, 8, RmatSkew::Kron),
        Dataset::Orkut => rmat(12, 16, RmatSkew::Social),
        Dataset::LiveJournal => rmat(13, 4, RmatSkew::Community),
        Dataset::Urand if weighted => gen::uniform_weighted(1 << 13, 8 << 13, s),
        Dataset::Urand => gen::uniform(1 << 13, 8 << 13, s),
        Dataset::Road if weighted => gen::grid_weighted(90, 90, 2, s),
        Dataset::Road => gen::grid(90, 90, 2, s),
    }
}

/// Where the time of a matrix fill went.
#[derive(Debug, Clone, Copy, Default)]
pub struct FillTimes {
    /// Graph generation.
    pub graph_s: f64,
    /// Trace generation (inside the cache's build closures).
    pub trace_s: f64,
    /// `TraceCache::get_or_build_with` calls, trace generation included.
    pub fill_s: f64,
    /// Ops generated over all traces.
    pub ops: u64,
    /// Build-closure calls (cache misses).
    pub misses: u64,
}

/// Builds the seeded graphs of the 25-workload Tiny matrix and fills
/// `cache` with each workload's trace of `budget` ops, so that nothing a
/// timed run looks up is built lazily. Returns the bundles in matrix
/// order with the fill's timings.
pub fn fill_matrix(
    cache: &TraceCache,
    seed: u64,
    budget: u64,
) -> (Vec<(WorkloadSpec, Arc<TraceBundle>)>, FillTimes) {
    let mut times = FillTimes::default();
    let sw = Stopwatch::start();
    let graphs: Vec<[Arc<Csr>; 2]> = Dataset::ALL
        .iter()
        .map(|&d| {
            [
                Arc::new(tiny_graph(d, false, seed)),
                Arc::new(tiny_graph(d, true, seed)),
            ]
        })
        .collect();
    times.graph_s = sw.secs();

    let mut out = Vec::new();
    for spec in WorkloadSpec::matrix(DatasetScale::Tiny) {
        let d = Dataset::ALL
            .iter()
            .position(|&d| d == spec.dataset)
            .expect("matrix datasets are Dataset::ALL");
        let g = &graphs[d][usize::from(spec.algorithm.needs_weights())];
        let mut built = false;
        let mut trace_s = 0.0;
        let sw = Stopwatch::start();
        let bundle = cache.get_or_build_with(spec, budget, || {
            built = true;
            let sw = Stopwatch::start();
            let b = spec.algorithm.trace(g, budget);
            trace_s = sw.secs();
            b
        });
        times.fill_s += sw.secs();
        times.trace_s += trace_s;
        times.misses += u64::from(built);
        times.ops += bundle.ops.len() as u64;
        out.push((spec, bundle));
    }
    (out, times)
}
