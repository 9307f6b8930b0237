//! Order statistics over a run's samples.

/// Sorted copy of `samples` (which must hold no NaN).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples hold no NaN"));
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, the rule the run-to-run spread of
/// this benchmark is judged by. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Rank i·(n+1)/4, its integer part clamped to the data and the
        // remainder left unclamped, exactly as Python computes it.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, with its nearest-rank value: `(percentile, value)`.
/// Below twenty samples no percentile qualifies and the median is
/// reported as `(50, median)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let v = sorted(samples);
    let n = v.len();
    for p in TAIL_LADDER {
        let beyond = n as f64 * (1.0 - p / 100.0);
        if beyond >= 10.0 - 1e-9 {
            // Nearest rank: the smallest sample with at least p % at or
            // below it.
            let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
            return (p, v[rank.min(n) - 1]);
        }
    }
    (50.0, median(&v))
}

/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 100 samples: p90 is the highest with ten beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // 40 samples: p75 (ten beyond).
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0));
        // Too few samples for any percentile: the median stands in.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "job_p50_ms",
            "fork.measure_s.vldp",
            "cache.l2.hit_rate",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "DROPLET-adaptive™",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
