//! Property tests for hybrid storage: every representation policy must
//! mine exactly the pairs and itemsets the legacy pure-batmap corpus
//! reports — across arbitrary databases, kernel backends, and thread
//! counts — and every forced pairing of representations must count
//! exactly like the sorted-tidlist oracle, in both argument orders and
//! through the batched row driver.

use batmap::{
    intersect, ArenaBuilder, BatmapParams, EngineOptions, KernelBackend, ReprPolicy, SetRepr,
    ALL_REPR_POLICIES,
};
use fim::pairs::brute_force_pairs;
use fim::TransactionDb;
use pairminer::{mine, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig, Parallelism};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use std::sync::Arc;

const M: u64 = 20_000;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Up to 60 transactions over up to 20 items. Universes this small
    // sit at the r₀ floor, where the hybrid policy genuinely mixes:
    // empty/singleton tidlists, near-universal bitmaps, and batmaps
    // in between.
    (2u32..20, 1usize..60).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(12)), m).prop_map(move |ts| TransactionDb::new(n, ts))
    })
}

/// 450–1,200 transactions over up to 40 items, each item at a density
/// drawn from bitmap-dense (≥ 1/32) through batmap-middling to
/// tidlist-sparse. Above ≈ 420 transactions the hybrid policy stores
/// middling items as batmaps, and a bitmap (⌈m/64⌉·8 ≤ 152 bytes here)
/// sorts before every batmap (≥ 192 bytes), so bitmap rows meet batmap
/// columns.
fn arb_mixed_db() -> impl Strategy<Value = TransactionDb> {
    const PER_MILLE: [u32; 5] = [250, 60, 25, 18, 6];
    (
        450usize..1_200,
        vec(0..PER_MILLE.len(), 4..40),
        any::<u64>(),
    )
        .prop_map(|(m, classes, seed)| {
            let n = classes.len() as u32;
            let txns = (0..m as u64)
                .map(|t| {
                    (0..n)
                        .filter(|&i| {
                            // A fixed hash of (seed, t, i), uniform in 0..1000.
                            let h = (seed ^ (t << 20) ^ i as u64)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .rotate_left(29)
                                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            ((h >> 32) % 1000) < PER_MILLE[classes[i as usize]] as u64
                        })
                        .collect()
                })
                .collect();
            TransactionDb::new(n, txns)
        })
}

/// One of the backends this CPU can actually run.
fn arb_backend() -> impl Strategy<Value = KernelBackend> {
    let available: Vec<KernelBackend> = batmap::available_backends().collect();
    (0..available.len()).prop_map(move |i| available[i])
}

fn arb_repr() -> impl Strategy<Value = SetRepr> {
    const REPRS: [SetRepr; 3] = [SetRepr::Batmap, SetRepr::Bitmap, SetRepr::Tidlist];
    (0..REPRS.len()).prop_map(|i| REPRS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every representation policy — including the forced bitmap and
    /// tidlist ablation modes — mines exactly the pure-batmap pairs,
    /// across databases, seeds, kernel backends, and thread counts.
    #[test]
    fn every_policy_mines_identical_pairs(
        db in arb_db(),
        backend in arb_backend(),
        threads in 0usize..3,
        seed in 0u64..100,
    ) {
        let threads = match threads {
            0 => Parallelism::Serial,
            t => Parallelism::threads(t + 1),
        };
        let config = |repr| MinerConfig {
            engine: Engine::Cpu,
            options: EngineOptions::auto()
                .kernel(backend)
                .threads(threads)
                .repr(repr),
            seed,
            k: 16,
            ..Default::default()
        };
        let baseline = mine(&db, &config(ReprPolicy::Batmap));
        prop_assert_eq!(&baseline.pairs, &brute_force_pairs(&db, 1));
        for repr in ALL_REPR_POLICIES {
            let report = mine(&db, &config(repr));
            prop_assert_eq!(&report.pairs, &baseline.pairs, "repr {}", repr);
        }
    }

    /// A hybrid corpus whose bitmap rows meet batmap columns in the
    /// same band mines exactly the brute-force pairs, with cuckoo
    /// failures forced (MaxLoop 1), in one tile or many, on 1–3
    /// threads.
    #[test]
    fn hybrid_bitmap_rows_with_failures_mine_brute_force_pairs(
        db in arb_mixed_db(),
        wide in any::<bool>(),
        threads in 1usize..4,
        seed in 0u64..100,
    ) {
        let config = MinerConfig {
            engine: Engine::Cpu,
            options: EngineOptions::auto()
                .threads(Parallelism::threads(threads))
                .repr(ReprPolicy::Hybrid),
            seed,
            k: if wide { 2048 } else { 16 },
            max_loop: 1,
            ..Default::default()
        };
        prop_assert_eq!(mine(&db, &config).pairs, brute_force_pairs(&db, 1));
    }

    /// The levelwise engine over a hybrid pair corpus reports the same
    /// frequent itemsets as over a pure-batmap one, at every depth and
    /// threshold.
    #[test]
    fn hybrid_levelwise_matches_batmap(
        db in arb_db(),
        depth in 3usize..5,
        minsup in 1u64..4,
    ) {
        let config = |repr| LevelwiseConfig {
            depth,
            pair: MinerConfig {
                engine: Engine::Cpu,
                minsup,
                options: EngineOptions::auto().repr(repr),
                ..Default::default()
            },
            ..Default::default()
        };
        let batmap_run = LevelwiseMiner::new(config(ReprPolicy::Batmap)).mine(&db);
        let hybrid_run = LevelwiseMiner::new(config(ReprPolicy::Hybrid)).mine(&db);
        prop_assert_eq!(hybrid_run.itemsets, batmap_run.itemsets);
    }

    /// Mixed-representation counts equal the sorted-tidlist oracle for
    /// every *forced* per-set representation assignment — both argument
    /// orders of the pair kernel, and the batched one-vs-many row
    /// driver the tile executors use.
    #[test]
    fn forced_mixed_pairings_match_oracle(
        sets in vec((btree_set(0u32..M as u32, 0..200), arb_repr()), 2..5),
        backend in arb_backend(),
        seed in 0u64..100,
    ) {
        let params =
            Arc::new(BatmapParams::new(M, seed).with_engine_options(EngineOptions::auto().kernel(backend)));
        let mut builder = ArenaBuilder::new(params);
        let elements: Vec<Vec<u32>> = sets
            .iter()
            .map(|(s, _)| s.iter().copied().collect())
            .collect();
        for ((_, repr), elems) in sets.iter().zip(&elements) {
            builder.push_elements(elems, *repr);
        }
        let arena = builder.finish();
        let views = arena.payload_views(0..arena.len());
        let mut out = vec![0u64; views.len()];
        for (i, a) in views.iter().enumerate() {
            intersect::count_mixed_one_vs_many_into(a, &views, &mut out);
            for (j, b) in views.iter().enumerate() {
                let expect = elements[i]
                    .iter()
                    .filter(|x| elements[j].binary_search(x).is_ok())
                    .count() as u64;
                prop_assert_eq!(intersect::count_mixed(a, b), expect, "pair {}x{}", i, j);
                prop_assert_eq!(out[j], expect, "row driver {}x{}", i, j);
            }
        }
    }
}
