//! The repository's benchmark: end-to-end walls of the DROPLET simulator
//! and the split of their host time across its layers, driven only
//! through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-demand|study-fig11|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Every input is generated from
//! `--seed`. With `--trace 0` the run times the workload untraced for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! follows that with a traced stretch of half that length, whose wrappers
//! time calls into each layer, and reports the per-layer metrics. Every
//! timed output is checked against an untimed reference; a failed check
//! counts its operation failed. The gated job time, `job_p50_rel`, is
//! the median job as a multiple of a fixed host-speed yardstick read
//! around each job ([`timing::yardstick_ms`]); the raw times are
//! per-layer metrics. The host fingerprint is printed first,
//! a table of the metrics goes to stderr, and the last line of stdout is
//! the result as JSON.

mod host;
mod inputs;
mod probe;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;
mod study;
mod timing;

use report::{Metrics, Tally};
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is the fastest of them, scaled by the
/// yardstick (see [`timing::put_end_to_end`]).
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run work directory inside the working directory.
    pub workdir: PathBuf,
}

impl Args {
    /// Length of the traced stretch of a `--trace 1` run: half the
    /// untraced one, since its per-layer numbers need fewer samples.
    pub fn traced_seconds(&self) -> f64 {
        self.seconds / 2.0
    }
}

/// What a workload measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

const WORKLOADS: [&str; 3] = ["replay-demand", "study-fig11", "serve-mixed"];

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("gap.trace_s", "s"),
    ("gap.ops", "count"),
    ("trace_cache.fill_s", "s"),
    ("serve.boot_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.hot_attempts", "count"),
    ("cpu.hot_accepts", "count"),
    ("cpu.hot_accept_ratio", "ratio"),
    ("system.new_s", "s"),
    ("system.access_s", "s"),
    ("system.accesses", "count"),
    ("system.access_ns", "ns"),
    ("replay.unattributed_s", "s"),
    ("cpu.cycles", "cycles"),
    ("cpu.ipc", "ratio"),
    ("trace.dtlb_misses", "count"),
    ("cache.l1.misses", "count"),
    ("cache.l2.hit_rate", "ratio"),
    ("cache.l3.mpki", "1/kinst"),
    ("mem.dram_accesses", "count"),
    ("mem.bw_util", "ratio"),
    ("mem.queue_delay_cycles", "cycles"),
    ("fork.warmup_s", "s"),
    ("fork.resume_s", "s"),
    ("fork.measure_s", "s"),
    ("fork.groups", "count"),
    ("fork.cells", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.idle_s", "s"),
    ("trace_cache.hits", "count"),
    ("trace_cache.misses", "count"),
    ("trace_cache.resident_bytes", "bytes"),
    ("fork.measure_s.baseline", "s"),
    ("fork.measure_s.ghb", "s"),
    ("fork.measure_s.vldp", "s"),
    ("fork.measure_s.stream", "s"),
    ("fork.measure_s.streammpp1", "s"),
    ("fork.measure_s.droplet", "s"),
    ("fork.measure_s.monodropletl1", "s"),
    ("prefetch.cost_x.ghb", "ratio"),
    ("prefetch.cost_x.vldp", "ratio"),
    ("prefetch.cost_x.stream", "ratio"),
    ("prefetch.cost_x.streammpp1", "ratio"),
    ("prefetch.cost_x.droplet", "ratio"),
    ("prefetch.cost_x.monodropletl1", "ratio"),
    ("prefetch.accuracy.ghb", "ratio"),
    ("prefetch.accuracy.vldp", "ratio"),
    ("prefetch.accuracy.stream", "ratio"),
    ("prefetch.accuracy.streammpp1", "ratio"),
    ("prefetch.accuracy.droplet", "ratio"),
    ("prefetch.accuracy.monodropletl1", "ratio"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.store_ms_p50", "ms"),
    ("serve.inflight_ms_p50", "ms"),
    ("serve.engine_runs", "count"),
    ("serve.store_hits", "count"),
    ("serve.dedupe_hits", "count"),
    ("serve.rejects", "count"),
    ("serve.engine_frac", "ratio"),
    ("serve.dedupe_frac", "ratio"),
    ("serve.spec_parse_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.direct_store_ms", "ms"),
    ("serve.http_store_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_best_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("job.samples", "count"),
    ("job.p25_ms", "ms"),
    ("job.p75_ms", "ms"),
    ("job.tail_ms", "ms"),
    ("job.tail_pct", "%"),
    ("yardstick_ms", "ms"),
    ("setup.wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("traced_wall_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The end-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[("job_p50_rel", "ratio"), ("setup_s", "s")];

const USAGE: &str = "usage: perfbench --workload <replay-demand|study-fig11|serve-mixed> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("--workload: unknown workload {value:?}")),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed: not a u64: {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: out of range (0, 3600]: {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

/// Removes the per-run work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Orders `m` as `list` names it, filling a metric the workload did not
/// measure with 0.
///
/// # Panics
///
/// Panics if the workload measured a metric `list` does not name.
fn complete(m: &Metrics, list: &[(&str, &'static str)]) -> Metrics {
    for metric in m.iter() {
        assert!(
            list.iter().any(|(name, _)| *name == metric.name),
            "metric {} is not in the declared list",
            metric.name
        );
    }
    let mut out = Metrics::default();
    for &(name, unit) in list {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workdir = std::env::current_dir()
        .expect("working directory is readable")
        .join(".perfbench_tmp")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("work directory can be created");
    let _cleanup = WorkDir(workdir.clone());
    // The library's dataset cache would carry graphs between runs; point
    // it at this run's work directory so set-up time never depends on
    // history.
    std::env::set_var("DROPLET_DATASET_CACHE", workdir.join("dataset-cache"));

    println!("{}", host::fingerprint_json());
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        workdir,
    };
    let outcome = match args.workload.as_str() {
        "replay-demand" => replay::run(&args),
        "study-fig11" => study::run(&args),
        "serve-mixed" => serve::run(&args),
        other => unreachable!("workload {other} passed validation"),
    };
    let mut measured = outcome.metrics;
    let tally = outcome.tally;
    let metrics = if args.trace {
        measured.put(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
        complete(&measured, PER_LAYER)
    } else {
        complete(&measured, END_TO_END)
    };
    for m in metrics.iter() {
        eprintln!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{}: attempted {} failed {}",
        args.workload, tally.attempted, tally.failed
    );
    println!(
        "{}",
        report::result_line(tally.failed == 0, tally, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let ok = parse_args(&argv(
            "--workload replay-demand --seed 3 --seconds 10 --trace 1",
        ));
        assert_eq!(ok, Ok(("replay-demand".to_string(), 3, 10.0, true)));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload serve-mixed --seed -1 --seconds 10 --trace 0",
            "--workload serve-mixed --seed 1 --seconds 0 --trace 0",
            "--workload serve-mixed --seed 1 --seconds 10 --trace 2",
            "--workload serve-mixed --seed 1 --seconds 10",
            "--workload serve-mixed --seed 1 --seconds 10 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_lists_are_legal_and_declared_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (list, section) in [(PER_LAYER, "per_layer"), (END_TO_END, "end_to_end")] {
            let body = json
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section}: count differs");
            for (name, unit) in list {
                assert!(stats::valid_metric_name(name), "{name}");
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: {entry} missing");
            }
        }
    }

    #[test]
    fn completion_fills_unmeasured_layers_with_zero() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5, "s");
        let full = complete(&m, END_TO_END);
        assert_eq!(full.get("setup_s"), Some(1.5));
        assert_eq!(full.get("job_p50_rel"), Some(0.0));
        assert_eq!(full.iter().count(), END_TO_END.len());
    }
}
