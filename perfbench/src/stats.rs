//! Sample summaries: median, quantiles, and the reported tail.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (which must be non-empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The tail percentile the benchmark reports for `n` samples: the
/// highest of p50, p90, p99, p99.9 that leaves at least ten samples
/// beyond it, or `None` when even p50 does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so the "ten beyond" test is exact integer maths.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// A latency sample set: its count, median and reported tail, and the
/// sorted samples for other quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    sorted: Vec<f64>,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        if samples.is_empty() {
            return Latency {
                n: 0,
                p50: 0.0,
                sorted: Vec::new(),
                tail: None,
            };
        }
        let s = sorted(samples);
        let tail = tail_percentile(s.len()).map(|p| (p, quantile_sorted(&s, p / 100.0)));
        Latency {
            n: s.len(),
            p50: quantile_sorted(&s, 0.5),
            tail,
            sorted: s,
        }
    }

    /// Quantile `q` of the samples (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            quantile_sorted(&self.sorted, q)
        }
    }

    /// The tail value, or the median when the sample is too small for
    /// any tail (callers print the percentile alongside).
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.p50, |(_, v)| v)
    }

    /// `"p99"`-style label of the reported tail.
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((p, _)) => format!("p{p}"),
            None => "p50 (too few samples for a tail)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20usize, 100, 1_000, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            let beyond = (n as f64 * (1.0 - p / 100.0)).round() as usize;
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn latency_reports_median_and_tail_over_the_samples() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!(l.n, 1_000);
        assert!((l.p50 - 500.5).abs() < 1e-9);
        let (p, v) = l.tail.unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-6);
        assert_eq!(l.tail_label(), "p99");
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
