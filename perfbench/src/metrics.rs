//! Metric arithmetic and the one-line JSON result.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// read from fewer points is one or two outliers, not a distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `+inf` marks a
/// request that never completed; it sorts last.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} out of (0, 1]");
    if samples.is_empty() {
        return Err("percentile of an empty sample".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// [`percentile`] for a tail rank: refuses when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let beyond = samples_beyond(samples.len(), q);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            q * 100.0,
            samples.len()
        ));
    }
    percentile(samples, q)
}

/// Median of run-level repeats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Deadline-miss share over everything attempted: a request that failed
/// (refused, shed or lost) has no response, so it counts as a miss.
pub fn miss_frac(violations: usize, failed: usize, attempted: usize) -> f64 {
    assert!(attempted > 0, "miss share over zero attempts");
    (violations + failed) as f64 / attempted as f64
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: request counts, metrics, and every correctness
/// check that failed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed correctness check (the run then exits non-zero).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&thousand, 0.99), Ok(990.0));
        // One sample fewer leaves nine beyond the 99th percentile.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(tail_percentile(&thousand[..999], 0.99).is_err());
        // The median of a small sample is still well supported.
        assert_eq!(tail_percentile(&thousand[..21], 0.5), Ok(11.0));
        assert!(tail_percentile(&thousand[..19], 0.5).is_err());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Ok(3.0));
        assert_eq!(percentile(&v, 1.0), Ok(5.0));
        assert_eq!(percentile(&v, 0.01), Ok(1.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn a_failure_counts_as_a_miss() {
        assert_eq!(miss_frac(0, 0, 10), 0.0);
        assert_eq!(miss_frac(2, 0, 10), 0.2);
        assert_eq!(miss_frac(2, 3, 10), 0.5);
        // A failed request never completes, so it sits in the latency tail.
        let mut lat: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        lat[0] = f64::INFINITY;
        assert_eq!(percentile(&lat, 1.0), Ok(f64::INFINITY));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("latency_ms", 1.25, "ms");
        r.push("count", 7.0, "count");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(r.to_json().unwrap().starts_with("{\"correct\": false"));
        r.push("bad", f64::NAN, "ms");
        assert!(r.to_json().is_err());
    }
}
