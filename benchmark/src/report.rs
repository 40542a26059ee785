//! Metric values, sample statistics and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The outcome of one invocation: the metrics plus the output checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Replays run (timed, verification and traced).
    pub attempted: u64,
    /// Replays whose output check failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Context lines: sample counts, percentiles used, check results.
    pub notes: Vec<String>,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Host samples of the timed replays (untraced runs).
    pub host: crate::Host,
    /// Digest of the simulated outputs every replay reproduced.
    pub digest: Option<u64>,
}

impl Outcome {
    /// `true` when every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records an output check; a failing check fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.notes.push(format!("check ok: {what}"));
        } else {
            self.failures.push(what.to_owned());
        }
    }

    /// The human-readable lines followed by the one-line JSON result.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "# CHECK FAILED: {f}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{} = {} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Linear-interpolated percentile `p` (0–100) of `samples`; 0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples`; 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of the usual percentiles with at least ten of `n` samples
/// beyond it, or `None` below twenty samples.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// The tail of `samples` (see [`tail_percentile`]) with a note naming the
/// percentile and the sample count; the maximum below twenty samples.
#[must_use]
pub fn tail(samples: &[f64]) -> (f64, String) {
    match tail_percentile(samples.len()) {
        Some(p) => (
            percentile(samples, p),
            format!("p{p} of {} samples", samples.len()),
        ),
        None => (
            samples.iter().copied().fold(0.0, f64::max),
            format!("max of {} samples", samples.len()),
        ),
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn json_is_one_line_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.5, "s");
        o.metric("events", 7.0, "count");
        let j = o.json();
        assert!(!j.contains('\n'));
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"events\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }
}
