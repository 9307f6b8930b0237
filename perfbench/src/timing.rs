//! Wall-clock helpers and the closed job loop every workload is timed by.

use crate::report::{Metrics, Tally};
use crate::stats;
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// Times a fixed, benchmark-owned piece of host work on one thread:
/// hashed inserts and lookups on a table of 50,000 keys, a few
/// milliseconds. The simulator's speed on a shared host drifts by up to
/// 1.7x for seconds to minutes at a time, and this yardstick drifts with
/// it: on a 2-vCPU Xeon, over 150 s of back-to-back replays, the
/// replay's median per 10-s window ranged from 97 to 164 ms while its
/// ratio to the yardstick beside it ranged from 8.4 to 9.2 (a random-read
/// loop over 64 MiB and a dependent-multiply loop stayed flat, so they
/// could not stand in). Job times are therefore gated as multiples of
/// it. Its code is the benchmark's, never the simulator's, so a change
/// to the simulator moves the ratio as much as the job time.
pub fn yardstick_ms() -> f64 {
    let sw = Stopwatch::start();
    let mut table = std::collections::HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *table.entry(x % 50_000).or_insert(0u64) += i;
        if let Some(v) = table.get(&(x % 70_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    sw.ms()
}

/// Wall time of each job of a closed loop, the yardstick around each
/// job, and what the loop attempted.
#[derive(Debug, Clone, Default)]
pub struct JobLoop {
    /// Per-job wall time, in completion order.
    pub ms: Vec<f64>,
    /// [`yardstick_ms`] before the first job and after each job: job `i`
    /// lies between readings `i` and `i + 1`.
    pub yard_ms: Vec<f64>,
    pub tally: Tally,
}

impl JobLoop {
    /// Runs `job` back to back, a yardstick reading between jobs, until
    /// `seconds` have passed (at least once). `job` returns whether its
    /// output passed its check.
    pub fn run(seconds: f64, job: impl FnMut() -> bool) -> JobLoop {
        let start = Stopwatch::start();
        JobLoop::run_until(|| start.secs() >= seconds, job)
    }

    /// Runs `job` `n` times (at least once).
    pub fn run_n(n: usize, job: impl FnMut() -> bool) -> JobLoop {
        let mut left = n.max(1);
        JobLoop::run_until(
            move || {
                left -= 1;
                left == 0
            },
            job,
        )
    }

    fn run_until(mut done: impl FnMut() -> bool, mut job: impl FnMut() -> bool) -> JobLoop {
        let mut out = JobLoop::default();
        out.yard_ms.push(yardstick_ms());
        loop {
            let sw = Stopwatch::start();
            let ok = job();
            out.ms.push(sw.ms());
            out.yard_ms.push(yardstick_ms());
            out.tally.record(ok);
            if done() {
                break;
            }
        }
        out
    }

    /// Jobs per second of job time (yardstick readings excluded).
    pub fn jobs_per_s(&self) -> f64 {
        self.ms.len() as f64 / (self.ms.iter().sum::<f64>() / 1e3)
    }

    /// Each job's time as a multiple of the mean of the two yardstick
    /// readings around it.
    pub fn relative(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(self.yard_ms.windows(2))
            .map(|(ms, yard)| ms / ((yard[0] + yard[1]) / 2.0))
            .collect()
    }

    /// The median of [`JobLoop::relative`]: `job_p50_rel`.
    pub fn relative_p50(&self) -> f64 {
        stats::median(&self.relative())
    }
}

/// The fastest of `times`: the run's lower envelope, which host
/// contention can only raise.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The yardstick reading, in ms, that `setup_s` is scaled to.
pub const YARDSTICK_REF_MS: f64 = 10.0;

/// `job_p50_rel` and `setup_s` of an untraced loop. `setup_s` is the
/// fastest of the set-ups `setups`, each scaled by the yardstick around
/// it to a host on which the yardstick takes [`YARDSTICK_REF_MS`]: set-up
/// takes a fraction of a second, so its raw wall time follows the
/// host's speed swings (the medians of two sets of ten raw runs, 40
/// minutes apart, differed by 16-25 %), while work moved into set-up
/// still shows in full.
pub fn put_end_to_end(m: &mut Metrics, untraced: &JobLoop, setups: &JobLoop) {
    m.put("job_p50_rel", untraced.relative_p50(), "ratio");
    m.put(
        "setup_s",
        fastest(&setups.relative()) * YARDSTICK_REF_MS / 1e3,
        "s",
    );
}

/// `trace_overhead_frac`: how much longer a traced job takes than an
/// untraced one, both as multiples of the yardstick.
pub fn put_trace_overhead(m: &mut Metrics, traced: &JobLoop, untraced: &JobLoop) {
    m.put(
        "trace_overhead_frac",
        traced.relative_p50() / untraced.relative_p50() - 1.0,
        "ratio",
    );
}

/// The median, quartiles, tail and fastest of job times `ms`, the rate,
/// the yardstick's median and the fastest raw set-up: the spread within
/// a run, and the raw times the gated figures are made of.
pub fn put_spread(m: &mut Metrics, ms: &[f64], jobs_per_s: f64, yard_ms: &[f64], setups: &JobLoop) {
    let (p25, p75) = stats::quartiles(ms);
    let (tail_pct, tail_ms) = stats::tail(ms);
    m.put("job_p50_ms", stats::median(ms), "ms");
    m.put("job_best_ms", fastest(ms), "ms");
    m.put("jobs_per_s", jobs_per_s, "1/s");
    m.put("job.samples", ms.len() as f64, "count");
    m.put("job.p25_ms", p25, "ms");
    m.put("job.p75_ms", p75, "ms");
    m.put("job.tail_ms", tail_ms, "ms");
    m.put("job.tail_pct", tail_pct, "%");
    m.put("yardstick_ms", stats::median(yard_ms), "ms");
    m.put("setup.wall_s", fastest(&setups.ms) / 1e3, "s");
    m.put("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
}

/// Runs `setup` `repeats` times (at least once) and keeps the last
/// result, dropping each earlier one before the next starts so repeats
/// do not stack up in memory. Returns it with the repeats timed as the
/// jobs of a [`JobLoop`] (yardstick readings around each) and each
/// repeat's own layer readings `L`.
pub fn repeated_setup<T, L>(
    repeats: usize,
    mut setup: impl FnMut() -> (T, L),
) -> (T, JobLoop, Vec<L>) {
    let mut layers = Vec::new();
    let mut last = None;
    let timed = JobLoop::run_n(repeats, || {
        drop(last.take());
        let (t, l) = setup();
        layers.push(l);
        last = Some(t);
        true
    });
    (last.expect("at least one set-up"), timed, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_measured_against_the_yardstick_around_them() {
        let jobs = JobLoop {
            ms: vec![10.0, 30.0],
            yard_ms: vec![1.0, 3.0, 2.0],
            tally: Tally::default(),
        };
        // Job 0 lies between readings 1 and 3, job 1 between 3 and 2.
        assert_eq!(jobs.relative(), vec![5.0, 12.0]);
        assert_eq!(jobs.relative_p50(), 8.5);
        assert_eq!(jobs.jobs_per_s(), 50.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn setup_is_the_fastest_repeat_scaled_by_its_yardstick() {
        let setups = JobLoop {
            ms: vec![100.0, 50.0],
            yard_ms: vec![10.0, 10.0, 20.0],
            tally: Tally::default(),
        };
        let mut m = Metrics::default();
        put_end_to_end(&mut m, &setups, &setups);
        // 50 ms beside a 15-ms yardstick is 50 / 15 * 10 ms at the
        // reference speed; the raw 100 ms beside 10 ms is slower.
        let setup_s = m.get("setup_s").unwrap();
        assert!((setup_s - 50.0 / 15.0 * YARDSTICK_REF_MS / 1e3).abs() < 1e-12);
    }

    #[test]
    fn repeated_setup_times_every_repeat_and_keeps_the_last() {
        let mut n = 0;
        let (last, setups, layers) = repeated_setup(3, || {
            n += 1;
            (n, n * 10)
        });
        assert_eq!(last, 3);
        assert_eq!(layers, vec![10, 20, 30]);
        assert_eq!(setups.ms.len(), 3);
        assert_eq!(setups.yard_ms.len(), 4);
    }

    #[test]
    fn a_loop_brackets_every_job_with_yardstick_readings() {
        let jobs = JobLoop::run(0.0, || true);
        assert_eq!(jobs.ms.len(), 1, "at least one job");
        assert_eq!(jobs.yard_ms.len(), 2);
        assert!(jobs.yard_ms.iter().all(|&y| y > 0.0));
        assert_eq!(jobs.tally.attempted, 1);
    }
}
