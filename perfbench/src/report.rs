//! The benchmark's result: named metrics with units, the attempted and
//! failed operation counts, and the one-line JSON the run ends with.

use crate::stats::valid_metric_name;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order; names are checked and unique.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<Metric>,
}

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on an illegal or repeated name, or a value JSON cannot
    /// carry (NaN, infinity): each is a bug in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.entries.push(Metric { name, value, unit });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.entries.iter()
    }
}

/// Operations attempted and failed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a check on an operation already attempted: a failed check
    /// marks it failed without adding an attempt.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with Rust's shortest round-trip formatting, so every
/// measured digit survives.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("job_p50_ms", 1.25, "ms");
        m.put("cache.l2.hit_rate", 0.5, "ratio");
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            result_line(true, tally, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"cache.l2.hit_rate\": {\"value\": 0.5, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn illegal_names_are_refused() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn quote_escapes_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
