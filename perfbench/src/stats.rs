//! Sample summaries and the report the benchmark prints.

use std::fmt::Write as _;

/// Timings (or rates) of repeated operations.
#[derive(Default, Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle pair for even counts); 0 if empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    /// beyond it, as `(percentile, value)` (nearest rank).
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len() as f64;
        [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .map(|p| {
                let rank = ((p / 100.0) * n).ceil() as usize;
                (p, v[rank.clamp(1, v.len()) - 1])
            })
    }

    /// `median` plus the supported tail and the sample count, for the
    /// human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, value)) => format!("p{p} {value:.4} {unit}"),
            None => "too few samples for a tail percentile".to_string(),
        };
        format!(
            "{:.4} {unit} median; {tail}; n={}",
            self.median(),
            self.len()
        )
    }
}

/// One metric of the final JSON line.
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operation accounting and the metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (timed operations and output checks).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation, printing the failure if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// Adds a metric to the JSON line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
