//! Property-based equivalence of the banded CPU engine across worker
//! counts and against independent references: identical pair sets for
//! arbitrary databases, thread counts, and tile sides, and cell-exact
//! executor output against the full-square tile sweep and the
//! simulated GPU, including the diagonal deduplication.

use batmap::{EngineOptions, Parallelism};
use gpu_sim::DeviceSpec;
use pairminer::cpu::run_tile_cpu;
use pairminer::{
    mine, preprocess, Engine, GpuSimExecutor, MinerConfig, ParallelCpuExecutor, Tile, TileConsumer,
    TileExecutor, TilePlan,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = fim::TransactionDb> {
    // Up to 60 transactions over up to 24 items.
    (2u32..24, 1usize..60).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(12)), m)
            .prop_map(move |ts| fim::TransactionDb::new(n, ts))
    })
}

/// A mining report's pairs as a sorted list, for order-insensitive
/// comparison.
fn sorted_pairs(report: pairminer::MiningReport) -> Vec<((u32, u32), u64)> {
    let mut pairs: Vec<_> = report.pairs.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CPU miner returns the exact same (sorted) pair set on any
    /// worker count as on one, and the brute-force oracle's, for
    /// arbitrary thread counts and tile sides.
    #[test]
    fn parallel_miner_matches_serial(
        db in arb_db(),
        seed in 0u64..50,
        k_shift in 0u32..3,
        threads in 2usize..9,
        minsup in 1u64..4,
    ) {
        let base = MinerConfig {
            seed,
            k: 16 << k_shift,
            minsup,
            engine: Engine::Cpu,
            options: EngineOptions::auto().threads(Parallelism::Serial),
            ..Default::default()
        };
        let serial = mine(&db, &base);
        prop_assert_eq!(&serial.pairs, &fim::pairs::brute_force_pairs(&db, minsup));
        let parallel = mine(&db, &MinerConfig {
            options: base.options.threads(Parallelism::threads(threads)),
            ..base
        });
        prop_assert_eq!(sorted_pairs(serial), sorted_pairs(parallel));
    }

    /// At the executor level: every useful cell is delivered exactly
    /// once (diagonal blocks deduplicated to their strict upper
    /// triangle) and with the counts of the full-square tile sweep and
    /// of the simulated GPU.
    #[test]
    fn executor_cells_are_exact_and_deduplicated(
        db in arb_db(),
        seed in 0u64..50,
        k_shift in 0u32..3,
        pick in 0usize..5,
    ) {
        let threads = [1usize, 2, 3, 5, 8][pick];
        /// Every cell with global column > global row.
        #[derive(Default)]
        struct Cells(Vec<((u32, u32), u64)>);
        impl TileConsumer for Cells {
            fn consume(&mut self, tile: &Tile, counts: &[u64]) {
                for r in 0..tile.rows {
                    let gi = tile.row_base + r;
                    for c in 0..tile.cols {
                        let gj = tile.col_base + c;
                        if gj > gi {
                            self.0.push(((gi as u32, gj as u32), counts[r * tile.cols + c]));
                        }
                    }
                }
            }
            fn absorb(&mut self, other: Self) {
                self.0.extend(other.0);
            }
        }
        fn sorted(cells: Cells) -> Vec<((u32, u32), u64)> {
            let mut cells = cells.0;
            cells.sort_unstable();
            cells
        }

        let v = fim::VerticalDb::from_horizontal(&db);
        let pre = preprocess(&v, seed, 128);
        let plan = TilePlan::new(pre.padded_items(), 16 << k_shift);
        let mut reference = Cells::default();
        for tile in plan.tiles() {
            reference.consume(tile, &run_tile_cpu(&pre, tile));
        }
        let expect = sorted(reference);
        let gpu = GpuSimExecutor { device: &DeviceSpec::gtx285() };
        let (gpu_cells, _) = gpu.execute(&pre, &plan, Cells::default);
        prop_assert_eq!(&sorted(gpu_cells), &expect);

        let executor = ParallelCpuExecutor {
            parallelism: Parallelism::threads(threads),
        };
        let (cpu_cells, report) = executor.execute(&pre, &plan, Cells::default);
        prop_assert_eq!(report.threads, threads);
        let got = sorted(cpu_cells);
        // Same cells, same counts…
        prop_assert_eq!(&got, &expect);
        // …exactly the strict upper triangle, each cell once.
        prop_assert_eq!(got.len(), plan.reported_comparisons());
        for w in got.windows(2) {
            prop_assert_ne!(w[0].0, w[1].0);
        }
        prop_assert!(got.iter().all(|((i, j), _)| i < j));
    }
}
