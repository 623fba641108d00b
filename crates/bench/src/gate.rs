//! The in-run ratio gate behind the `perf_suite` binary.
//!
//! A gate compares one mechanism the code keeps against the path it
//! replaces, on the same data in the same run: each round times both
//! arms, and the round's sample is the ratio *replaced ÷ kept* (a
//! speedup, so higher is better). The gate passes when the median
//! sample reaches its bound. Bounds come from the spread of the
//! measured medians (see `CHANGES.md`), so a gate tracks a relative
//! claim — "this mechanism still beats what it replaced" — rather than
//! an absolute floor that drifts with the host. Uniform slowdowns that
//! hit both arms alike are `perfbench`'s job, not this gate's.

use hpcutil::stats::percentile_sorted;
use std::fmt;

/// The outcome of one gate: its name, the median and quartiles of its
/// samples, and its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Stable gate name, printed on every line that reports it.
    pub name: String,
    /// Median sample (the gated ratio).
    pub median: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
    /// The least median that passes.
    pub bound: f64,
}

impl Verdict {
    /// Whether the median reached the bound.
    pub fn passed(&self) -> bool {
        self.median >= self.bound
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}x (q1 {:.2}x, q3 {:.2}x, n {}) vs bound {:.2}x: {}",
            self.name,
            self.median,
            self.q1,
            self.q3,
            self.n,
            self.bound,
            if self.passed() { "pass" } else { "FAIL" }
        )
    }
}

/// Judge the ratio `samples` of gate `name` against `bound`.
///
/// # Panics
/// Panics if `samples` is empty or holds a NaN.
pub fn evaluate(name: &str, samples: &[f64], bound: f64) -> Verdict {
    assert!(!samples.is_empty(), "gate {name} has no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in gate samples"));
    Verdict {
        name: name.to_string(),
        median: percentile_sorted(&sorted, 50.0),
        q1: percentile_sorted(&sorted, 25.0),
        q3: percentile_sorted(&sorted, 75.0),
        n: sorted.len(),
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_bound_fails_naming_the_gate_and_its_numbers() {
        let v = evaluate("kernel.avx512", &[1.10, 1.00, 1.20], 1.5);
        assert!(!v.passed());
        assert_eq!((v.median, v.n), (1.10, 3));
        assert!((v.q1 - 1.05).abs() < 1e-12 && (v.q3 - 1.15).abs() < 1e-12);
        let line = v.to_string();
        for needle in ["kernel.avx512", "1.10x", "1.50x", "FAIL"] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
    }

    #[test]
    fn median_at_bound_passes() {
        let v = evaluate("plan.pruned", &[2.0, 3.0, 1.0, 2.0], 2.0);
        assert_eq!(v.median, 2.0);
        assert!(v.passed());
        assert!(v.to_string().ends_with("pass"));
    }

    #[test]
    fn above_bound_passes_even_with_one_slow_round() {
        // One round below the bound does not fail a gate whose median
        // clears it: the median is the robust statistic.
        let v = evaluate("mine.parallel", &[1.6, 0.4, 1.7, 1.5, 1.8], 1.2);
        assert_eq!(v.median, 1.6);
        assert!(v.passed());
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_are_a_harness_bug() {
        evaluate("empty", &[], 1.0);
    }
}
