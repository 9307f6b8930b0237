//! The workload matrix: 5 algorithms × 5 datasets (paper Tables II & III),
//! with trace construction and per-scale op budgets.

use droplet_gap::{Algorithm, TraceBundle};
use droplet_graph::{Csr, Dataset, DatasetScale};
use droplet_obs::lock_recover;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type GraphKey = (Dataset, DatasetScale, bool);

fn graph_cache() -> &'static Mutex<HashMap<GraphKey, Arc<Csr>>> {
    static CACHE: OnceLock<Mutex<HashMap<GraphKey, Arc<Csr>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops all cached graphs (frees memory between experiment suites).
pub fn clear_graph_cache() {
    lock_recover(graph_cache()).clear();
}

/// One (algorithm, dataset) cell of the evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The dataset.
    pub dataset: Dataset,
    /// The dataset scale.
    pub scale: DatasetScale,
}

impl WorkloadSpec {
    /// The full 25-cell matrix at `scale`.
    pub fn matrix(scale: DatasetScale) -> Vec<WorkloadSpec> {
        let mut out = Vec::with_capacity(25);
        for algorithm in Algorithm::ALL {
            for dataset in Dataset::ALL {
                out.push(WorkloadSpec {
                    algorithm,
                    dataset,
                    scale,
                });
            }
        }
        out
    }

    /// Default trace-op budget for the scale: the simulation analogue of
    /// the paper's 600 M-instruction ROI.
    pub fn default_budget(scale: DatasetScale) -> u64 {
        match scale {
            DatasetScale::Tiny => 400_000,
            DatasetScale::Small => 1_500_000,
            DatasetScale::Sim => 8_000_000,
        }
    }

    /// Default warm-up prefix in ops (statistics start after it).
    pub fn default_warmup(scale: DatasetScale) -> usize {
        Self::warmup_for(Self::default_budget(scale))
    }

    /// The warm-up prefix for a trace of `budget` ops: its first quarter.
    /// Every front end (CLI, service, bench drivers) derives warm-up here.
    pub fn warmup_for(budget: u64) -> usize {
        (budget / 4) as usize
    }

    /// Builds the graph for this cell (weighted iff the algorithm needs
    /// it). Graphs are cached process-wide — five algorithms share each
    /// dataset — and persisted to an on-disk cache (`target/dataset-cache`,
    /// overridable via `DROPLET_DATASET_CACHE`) so separate bench processes
    /// do not regenerate Sim-scale graphs (one unweighted `kron` takes
    /// about 6 s on a 2-vCPU Xeon).
    ///
    /// A build that panics leaves the map without its entry, so a poisoned
    /// lock is recovered rather than failing every later lookup.
    pub fn build_graph(&self) -> Arc<Csr> {
        let weighted = self.algorithm.needs_weights();
        let key = (self.dataset, self.scale, weighted);
        let mut cache = lock_recover(graph_cache());
        cache
            .entry(key)
            .or_insert_with(|| {
                Arc::new(disk_cache::load_or_build(
                    self.dataset,
                    self.scale,
                    weighted,
                ))
            })
            .clone()
    }

    /// Builds the trace bundle with the default budget.
    pub fn build_trace(&self) -> TraceBundle {
        self.build_trace_with_budget(Self::default_budget(self.scale))
    }

    /// Builds the trace bundle with an explicit op budget.
    pub fn build_trace_with_budget(&self, budget: u64) -> TraceBundle {
        let g = self.build_graph();
        self.algorithm.trace(&g, budget)
    }

    /// The "PR-orkut" style label used in figure rows.
    pub fn label(&self) -> String {
        format!("{}-{}", self.algorithm.name(), self.dataset.name())
    }
}

mod disk_cache {
    //! A trivial flat-binary on-disk cache for generated datasets.
    //! Format: magic, vertex count, edge count, weighted flag, then the
    //! raw offsets / targets / weights arrays in native endianness. The
    //! cache is machine-local scratch, not an interchange format.

    use droplet_graph::{Csr, CsrBuilder, Dataset, DatasetScale};
    use std::io::{Read, Write};
    use std::path::PathBuf;

    const MAGIC: u64 = 0xD20B_1E7C_AC4E_u64;

    fn cache_path(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Option<PathBuf> {
        // Only Sim-scale graphs are worth disk space and I/O.
        if scale != DatasetScale::Sim {
            return None;
        }
        let dir = std::env::var("DROPLET_DATASET_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/dataset-cache"));
        std::fs::create_dir_all(&dir).ok()?;
        let w = if weighted { "w" } else { "u" };
        Some(dir.join(format!("{}-sim-{w}.bin", dataset.name())))
    }

    fn generate(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Csr {
        if weighted {
            dataset.build_weighted(scale)
        } else {
            dataset.build(scale)
        }
    }

    pub(super) fn load_or_build(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Csr {
        let Some(path) = cache_path(dataset, scale, weighted) else {
            return generate(dataset, scale, weighted);
        };
        if let Some(g) = try_load(&path, weighted) {
            return g;
        }
        let g = generate(dataset, scale, weighted);
        // Best effort: a failed save only costs regeneration time later.
        let _ = save(&path, &g);
        g
    }

    fn read_u64(r: &mut impl Read) -> Option<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).ok()?;
        Some(u64::from_le_bytes(b))
    }

    fn read_vec_u32(r: &mut impl Read, len: usize) -> Option<Vec<u32>> {
        let mut bytes = vec![0u8; len * 4];
        r.read_exact(&mut bytes).ok()?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    fn try_load(path: &std::path::Path, weighted: bool) -> Option<Csr> {
        let file = std::fs::File::open(path).ok()?;
        let mut r = std::io::BufReader::with_capacity(1 << 20, file);
        if read_u64(&mut r)? != MAGIC {
            return None;
        }
        let n = read_u64(&mut r)? as u32;
        let m = read_u64(&mut r)? as usize;
        let has_weights = read_u64(&mut r)? == 1;
        if has_weights != weighted {
            return None;
        }
        let sources = read_vec_u32(&mut r, m)?;
        let targets = read_vec_u32(&mut r, m)?;
        let weights = if has_weights {
            Some(read_vec_u32(&mut r, m)?)
        } else {
            None
        };
        let mut b = CsrBuilder::with_capacity(n, m);
        for i in 0..m {
            match &weights {
                Some(w) => b.push_weighted_edge(sources[i], targets[i], w[i]),
                None => b.push_edge(sources[i], targets[i]),
            }
        }
        Some(b.build())
    }

    #[cfg(test)]
    pub(super) fn save_for_test(path: &std::path::Path, g: &Csr) -> std::io::Result<()> {
        save(path, g)
    }

    #[cfg(test)]
    pub(super) fn load_for_test(path: &std::path::Path, weighted: bool) -> Option<Csr> {
        try_load(path, weighted)
    }

    fn save(path: &std::path::Path, g: &Csr) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
            w.write_all(&MAGIC.to_le_bytes())?;
            w.write_all(&u64::from(g.num_vertices()).to_le_bytes())?;
            w.write_all(&g.num_edges().to_le_bytes())?;
            w.write_all(&u64::from(g.is_weighted()).to_le_bytes())?;
            // Sources are reconstructed from the offsets array.
            for u in 0..g.num_vertices() {
                let d = g.out_degree(u);
                for _ in 0..d {
                    w.write_all(&u.to_le_bytes())?;
                }
            }
            for &t in g.targets() {
                w.write_all(&t.to_le_bytes())?;
            }
            if let Some(ws) = g.weights() {
                for &x in ws {
                    w.write_all(&x.to_le_bytes())?;
                }
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, path)
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete() {
        let m = WorkloadSpec::matrix(DatasetScale::Tiny);
        assert_eq!(m.len(), 25);
        let labels: std::collections::HashSet<String> = m.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 25);
        assert!(labels.contains("PR-orkut"));
    }

    #[test]
    fn sssp_cells_get_weighted_graphs() {
        let w = WorkloadSpec {
            algorithm: Algorithm::Sssp,
            dataset: Dataset::Road,
            scale: DatasetScale::Tiny,
        };
        assert!(w.build_graph().is_weighted());
        let b = w.build_trace_with_budget(50_000);
        assert!(!b.ops.is_empty());
    }

    #[test]
    fn poisoned_graph_cache_still_serves_graphs() {
        let poisoner = std::thread::spawn(|| {
            let _held = graph_cache().lock().unwrap();
            panic!("poison the graph cache");
        });
        assert!(poisoner.join().is_err());
        assert!(graph_cache().is_poisoned());
        let w = WorkloadSpec {
            algorithm: Algorithm::Bfs,
            dataset: Dataset::Urand,
            scale: DatasetScale::Tiny,
        };
        assert_eq!(*w.build_graph(), Dataset::Urand.build(DatasetScale::Tiny));
        clear_graph_cache();
    }

    #[test]
    fn disk_cache_roundtrips_weighted_and_unweighted() {
        let dir = std::env::temp_dir().join(format!("droplet-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let unweighted = Dataset::Kron.build(DatasetScale::Tiny);
        let path = dir.join("u.bin");
        disk_cache::save_for_test(&path, &unweighted).unwrap();
        assert_eq!(disk_cache::load_for_test(&path, false).unwrap(), unweighted);
        // Asking for the wrong weightedness misses the cache.
        assert!(disk_cache::load_for_test(&path, true).is_none());

        let weighted = Dataset::Road.build_weighted(DatasetScale::Tiny);
        let wpath = dir.join("w.bin");
        disk_cache::save_for_test(&wpath, &weighted).unwrap();
        assert_eq!(disk_cache::load_for_test(&wpath, true).unwrap(), weighted);

        // Corrupt magic is rejected.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(disk_cache::load_for_test(&path, false).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_scale_up() {
        assert!(
            WorkloadSpec::default_budget(DatasetScale::Tiny)
                < WorkloadSpec::default_budget(DatasetScale::Sim)
        );
        assert_eq!(WorkloadSpec::default_warmup(DatasetScale::Tiny), 100_000);
    }
}
