//! Shared harness for the figure binaries.
//!
//! Every `fig*` binary reproduces one figure/table of the paper's
//! evaluation (§IV). The paper's instances total 10⁷ item occurrences;
//! by default the binaries run at `--scale 0.01` (10⁵ occurrences) with
//! a proportionally scaled `n` sweep so the whole suite finishes in
//! minutes while preserving every *shape* the paper reports (who wins,
//! growth orders, crossovers, memory blow-ups). `--scale 1 --full`
//! restores the paper's exact parameters. EXPERIMENTS.md records the
//! mapping point by point.

#![warn(missing_docs)]

pub mod gate;
pub mod pbi;

use batmap::{EngineOptions, KernelBackend};
use datagen::uniform::{generate, UniformSpec};
use fim::TransactionDb;

/// Command-line configuration shared by the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessConfig {
    /// Instance-size multiplier relative to the paper's 10⁷ items.
    pub scale: f64,
    /// Quick mode: even smaller sweeps (CI smoke).
    pub quick: bool,
    /// Full mode: the paper's exact sweep endpoints.
    pub full: bool,
    /// Memory budget for Apriori's counting array, bytes (the paper's
    /// machine had 6 GB; scaled runs default to 1 GiB so the "exceeds
    /// memory" point appears inside the scaled sweep).
    pub apriori_budget: usize,
    /// Seed for generators and hashing.
    pub seed: u64,
    /// The engine tuning knobs (match-count backend, host parallelism,
    /// storage representation) as one [`EngineOptions`] value with the
    /// documented resolution order (explicit flag > `BATMAP_*`
    /// environment > auto). Core-sweep binaries treat a pinned thread
    /// count as "run only this core count".
    pub options: EngineOptions,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.01,
            quick: false,
            full: false,
            apriori_budget: 1 << 30,
            seed: 0x1DB5,
            options: EngineOptions::auto(),
        }
    }
}

impl HarnessConfig {
    /// Parse from `std::env::args`: `--scale X`, `--quick`, `--full`,
    /// `--budget BYTES`, `--seed N`. Unknown arguments abort with usage.
    pub fn from_args() -> Self {
        let mut cfg = HarnessConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        // A value-taking flag at the end of the line gets the usage
        // message, not an index panic.
        fn value<'a>(args: &'a [String], i: &mut usize, what: &str) -> &'a str {
            *i += 1;
            args.get(*i).map(String::as_str).unwrap_or_else(|| {
                eprintln!("{what}");
                std::process::exit(2);
            })
        }
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    cfg.scale = value(&args, &mut i, "--scale takes a float")
                        .parse()
                        .expect("--scale takes a float");
                }
                "--budget" => {
                    cfg.apriori_budget = value(&args, &mut i, "--budget takes bytes")
                        .parse()
                        .expect("--budget takes bytes");
                }
                "--seed" => {
                    cfg.seed = value(&args, &mut i, "--seed takes an integer")
                        .parse()
                        .expect("--seed takes an integer");
                }
                "--quick" => cfg.quick = true,
                "--full" => cfg.full = true,
                flag @ ("--kernel" | "--threads" | "--repr") => {
                    let v = value(&args, &mut i, batmap::options::FLAGS_USAGE);
                    if let Err(message) = cfg.options.set_flag(flag, v) {
                        eprintln!("{message}\n{}", batmap::options::FLAGS_USAGE);
                        std::process::exit(2);
                    }
                }
                other => {
                    eprintln!(
                        "unknown argument {other}\nusage: [--scale F] [--quick] [--full] [--budget BYTES] [--seed N] plus the engine flags:\n{}",
                        batmap::options::FLAGS_USAGE
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        cfg
    }

    /// Total instance size at this scale (paper: 10⁷).
    pub fn total_items(&self) -> usize {
        ((10_000_000f64 * self.scale) as usize).max(1_000)
    }

    /// The distinct-item sweep for the Figs. 5–7 experiments, scaled
    /// from the paper's 4k..128k.
    pub fn n_sweep(&self) -> Vec<u32> {
        if self.full {
            vec![4_000, 8_000, 16_000, 32_000, 64_000, 128_000]
        } else if self.quick {
            vec![250, 500, 1_000]
        } else {
            vec![500, 1_000, 2_000, 4_000, 8_000]
        }
    }

    /// The density sweep of Fig. 8 (paper: 0.001..0.1, log-spaced).
    pub fn density_sweep(&self) -> Vec<f64> {
        if self.quick {
            vec![0.003, 0.03]
        } else {
            vec![0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
        }
    }

    /// Fixed item count for the Fig. 8 density experiment (paper: 8000).
    pub fn density_n(&self) -> u32 {
        if self.full {
            8_000
        } else if self.quick {
            250
        } else {
            800
        }
    }
}

/// Generate the paper's §IV-A instance: `n` distinct items, each
/// included per transaction with probability `density`, until
/// `cfg.total_items()` occurrences.
pub fn paper_instance(cfg: &HarnessConfig, n_items: u32, density: f64) -> TransactionDb {
    generate(&UniformSpec {
        n_items,
        density,
        total_items: cfg.total_items(),
        seed: cfg.seed,
    })
}

/// Build the one-vs-many workload shared by the `one_vs_many` criterion
/// bench and `perf_suite`'s kernel-ladder and batched-row gates: one
/// probe batmap of `set` elements (at most 100k) in a 100k universe
/// plus `candidates` same-support candidates (same support → same
/// width → the batched driver's blocked equal-width path, the mining
/// pipeline's common case — preprocessing sorts batmaps by width). The
/// width is `3·2^⌈log₂ ⌈3·set/2⌉⌉` bytes (`BatmapParams::range_for`):
/// 24 KiB at [`ONE_VS_MANY_SET`].
/// One definition so the criterion trajectory and the gates measure
/// the same rows.
pub fn one_vs_many_fixture(
    candidates: usize,
    set: usize,
    seed: u64,
    kernel: KernelBackend,
) -> (batmap::Batmap, Vec<batmap::Batmap>) {
    use batmap::{Batmap, BatmapParams};
    const M: u32 = 100_000;
    let set = set as u32;
    assert!((1..=M).contains(&set), "set size must be in 1..=100k");
    let params = std::sync::Arc::new(
        BatmapParams::new(M as u64, seed).with_engine_options(EngineOptions::auto().kernel(kernel)),
    );
    let probe: Vec<u32> = (0..set).map(|i| i * (M / set)).collect();
    let probe = Batmap::build(params.clone(), &probe).batmap;
    let many: Vec<Batmap> = (0..candidates)
        .map(|c| {
            let elements: Vec<u32> = (0..set)
                .map(|i| (i * (M / set) + c as u32 * 7) % M)
                .collect();
            Batmap::build(params.clone(), &elements).batmap
        })
        .collect();
    (probe, many)
}

/// The criterion bench's set size for [`one_vs_many_fixture`].
pub const ONE_VS_MANY_SET: usize = 4_000;

/// A representative mining threshold for an instance: slightly above
/// the mean pair support `m·p²`, so the output is the interesting tail
/// rather than the full dense pair matrix. All miners in a figure get
/// the same threshold; their *counting* work is unaffected (every
/// method computes all supports before thresholding), only the output
/// materialization is equalized.
pub fn recommended_minsup(db: &TransactionDb) -> u64 {
    let p = db.density();
    let mean_pair = db.len() as f64 * p * p;
    (mean_pair * 1.2).ceil().max(2.0) as u64
}

/// Format an optional seconds value; `None` prints as the paper's
/// ">limit" / "OOM" markers.
pub fn fmt_opt_secs(v: Option<f64>, marker: &str) -> String {
    match v {
        Some(s) => hpcutil::table::fmt_secs(s),
        None => marker.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_one_percent() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.total_items(), 100_000);
        assert!(!cfg.n_sweep().is_empty());
        assert!(cfg.density_sweep().len() >= 2);
    }

    #[test]
    fn full_sweep_matches_paper() {
        let cfg = HarnessConfig {
            full: true,
            scale: 1.0,
            ..Default::default()
        };
        assert_eq!(cfg.total_items(), 10_000_000);
        assert_eq!(cfg.n_sweep().last(), Some(&128_000));
        assert_eq!(cfg.density_n(), 8_000);
    }

    #[test]
    fn instance_has_requested_shape() {
        let cfg = HarnessConfig {
            scale: 0.001,
            ..Default::default()
        };
        let db = paper_instance(&cfg, 100, 0.05);
        assert!(db.total_items() >= 10_000);
        assert!((db.density() - 0.05).abs() < 0.01);
    }

    #[test]
    fn fmt_opt() {
        assert_eq!(fmt_opt_secs(None, ">1800"), ">1800");
        assert_eq!(fmt_opt_secs(Some(1.0), "x"), "1.00");
    }
}
