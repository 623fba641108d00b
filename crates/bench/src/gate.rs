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
//!
//! Each verdict can carry the host's steal over the gate's rounds (the
//! share of CPU time the hypervisor gave to other guests, from
//! `/proc/stat`), so a miss on a busy shared host reads as such. Steal
//! is reported only; it never changes a verdict.

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
    /// Host steal over the rounds, as a fraction of all CPU time
    /// (`None` where the host does not report it).
    pub steal: Option<f64>,
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
            "{}: {:.2}x (q1 {:.2}x, q3 {:.2}x, n {}, steal {}) vs bound {:.2}x: {}",
            self.name,
            self.median,
            self.q1,
            self.q3,
            self.n,
            percent(self.steal),
            self.bound,
            if self.passed() { "pass" } else { "FAIL" }
        )
    }
}

/// `12.3%`, or `n/a` for an unknown fraction.
pub fn percent(fraction: Option<f64>) -> String {
    fraction.map_or("n/a".to_string(), |x| format!("{:.1}%", 100.0 * x))
}

/// Cumulative CPU time of the whole host, in clock ticks: the `cpu`
/// line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// Ticks stolen by the hypervisor for other guests.
    pub steal: u64,
    /// Ticks in every state (user, nice, system, idle, iowait, irq,
    /// softirq, steal; guest time is already inside user and nice).
    pub total: u64,
}

impl CpuTimes {
    /// The host's counters now, or `None` off Linux or on a kernel that
    /// reports no steal.
    pub fn now() -> Option<Self> {
        Self::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Parse the aggregate `cpu` line of a `/proc/stat` text.
    pub fn parse(stat: &str) -> Option<Self> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        (ticks.len() == 8).then(|| CpuTimes {
            steal: ticks[7],
            total: ticks.iter().sum(),
        })
    }

    /// Steal from `self` to `later`, as a fraction of all CPU time in
    /// between (`None` if no tick passed).
    pub fn steal_until(self, later: CpuTimes) -> Option<f64> {
        let total = later.total.checked_sub(self.total)?;
        (total > 0).then(|| later.steal.saturating_sub(self.steal) as f64 / total as f64)
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
        steal: None,
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
    fn steal_prints_next_to_the_quartiles() {
        let mut v = evaluate("mine.parallel.2t", &[1.0, 1.1, 1.2], 1.15);
        assert!(v.to_string().contains("n 3, steal n/a)"));
        v.steal = Some(0.2345);
        assert!(v.to_string().contains("n 3, steal 23.4%)"), "{v}");
        assert!(!v.passed(), "steal never changes a verdict");
    }

    #[test]
    fn steal_comes_from_the_cpu_line() {
        let before = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let after = "cpu  150 0 60 900 10 0 5 75 9 0\nintr 5\n";
        let (a, b) = (
            CpuTimes::parse(before).unwrap(),
            CpuTimes::parse(after).unwrap(),
        );
        assert_eq!(
            a,
            CpuTimes {
                steal: 35,
                total: 1_000
            }
        );
        assert_eq!(a.steal_until(b), Some(40.0 / 200.0));
        assert_eq!(a.steal_until(a), None, "no tick passed");
        assert_eq!(
            CpuTimes::parse("cpu  1 2 3\n"),
            None,
            "steal column missing"
        );
        assert_eq!(CpuTimes::parse("intr 5\n"), None);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_are_a_harness_bug() {
        evaluate("empty", &[], 1.0);
    }
}
