//! Shared scaffolding for the figure-regeneration bench targets.
//!
//! Every paper figure has its own bench (`cargo bench -p droplet-bench
//! --bench figNN_...`); each prints the figure's rows with the paper's
//! expected values annotated. The environment variable `DROPLET_SCALE`
//! (`tiny` / `small` / `sim`, default `sim`) selects the dataset scale so
//! the full suite can be smoke-tested quickly, and `DROPLET_BUDGET`
//! overrides the per-workload trace-op budget.

pub mod bench_json;

use droplet::experiments::ExperimentCtx;
use droplet::graph::DatasetScale;

/// Builds the experiment context from the environment.
///
/// # Panics
///
/// Panics if `DROPLET_SCALE` is set to an unknown value or
/// `DROPLET_BUDGET` is not a number.
pub fn ctx_from_env() -> ExperimentCtx {
    let scale = match std::env::var("DROPLET_SCALE").as_deref() {
        Ok("tiny") => DatasetScale::Tiny,
        Ok("small") => DatasetScale::Small,
        Ok("sim") | Err(_) => DatasetScale::Sim,
        Ok(other) => panic!("unknown DROPLET_SCALE {other:?} (want tiny/small/sim)"),
    };
    let ctx = ExperimentCtx::at(scale);
    match std::env::var("DROPLET_BUDGET") {
        Ok(budget) => ctx.with_budget(budget.parse().expect("DROPLET_BUDGET must be an integer")),
        Err(_) => ctx,
    }
}

/// Prints the standard bench banner.
pub fn banner(figure: &str, ctx: &ExperimentCtx) {
    println!("==============================================================");
    println!("DROPLET reproduction — {figure}");
    println!(
        "scale {:?}, budget {} ops, warmup {} ops",
        ctx.scale, ctx.budget, ctx.warmup
    );
    println!("==============================================================");
}

/// Wall-clock helper for progress lines.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_sim_scale() {
        // Only check when the variable is not set in the environment.
        if std::env::var("DROPLET_SCALE").is_err() {
            let ctx = ctx_from_env();
            assert!(matches!(ctx.scale, DatasetScale::Sim));
        }
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 42), 42);
    }
}
