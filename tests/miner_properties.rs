//! Property-based tests on the mining pipeline and baselines: random
//! databases, every miner, one oracle.

use fim::pairs::brute_force_pairs;
use fim::{apriori, eclat, fpgrowth, BitmapIndex, TransactionDb, VerticalDb};
use pairminer::{mine, Engine, MinerConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Up to 60 transactions over up to 20 items.
    (2u32..20, 1usize..60).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(12)), m).prop_map(move |ts| TransactionDb::new(n, ts))
    })
}

/// Like [`arb_db`], but with up to 600 transactions: a universe wider
/// than the smallest batmap window, so `MaxLoop = 1` really fails
/// insertions (at `m ≤ 64` the permutation hash is injective and no
/// insertion can fail).
fn arb_long_db() -> impl Strategy<Value = TransactionDb> {
    (2u32..20, 100usize..600).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(12)), m).prop_map(move |ts| TransactionDb::new(n, ts))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every baseline equals brute force on arbitrary databases.
    #[test]
    fn baselines_match_oracle(db in arb_db(), minsup in 1u64..6) {
        let oracle = brute_force_pairs(&db, minsup);
        prop_assert_eq!(apriori::mine_pairs(&db, minsup), oracle.clone());
        prop_assert_eq!(fpgrowth::mine_pairs(&db, minsup), oracle.clone());
        let v = VerticalDb::from_horizontal(&db);
        prop_assert_eq!(eclat::mine_pairs(&v, minsup), oracle.clone());
        prop_assert_eq!(BitmapIndex::from_vertical(&v).mine_pairs(minsup), oracle);
    }

    /// The batmap pipeline (GPU engine) equals brute force, across
    /// seeds, tile sizes and support thresholds (above 1 the tile plan
    /// covers only the items reaching `minsup`; k = 16 spreads it over
    /// several tiles).
    #[test]
    fn pipeline_matches_oracle(
        db in arb_db(),
        seed in 0u64..100,
        k_shift in 0u32..3,
        minsup in 1u64..6,
    ) {
        let oracle = brute_force_pairs(&db, minsup);
        for k in [16, 16 << k_shift] {
            let report = mine(&db, &MinerConfig {
                seed,
                k,
                minsup,
                ..Default::default()
            });
            prop_assert_eq!(&report.pairs, &oracle, "k={}", k);
        }
    }

    /// GPU and CPU engines are bit-identical, and exact, at every
    /// support threshold.
    #[test]
    fn engines_agree(db in arb_db(), seed in 0u64..100, minsup in 1u64..6) {
        let oracle = brute_force_pairs(&db, minsup);
        let gpu = mine(&db, &MinerConfig { seed, minsup, ..Default::default() });
        let cpu = mine(&db, &MinerConfig { seed, minsup, engine: Engine::Cpu, ..Default::default() });
        prop_assert_eq!(&gpu.pairs, &oracle);
        prop_assert_eq!(cpu.pairs, oracle);
    }

    /// Tiny MaxLoop (failure injection) never breaks exactness, whether
    /// or not the support threshold prunes the plan.
    #[test]
    fn failures_never_break_exactness(
        db in arb_db(),
        long in arb_long_db(),
        seed in 0u64..50,
        minsup in 1u64..6,
    ) {
        for (db, minsup) in [(&db, minsup), (&long, minsup * 40)] {
            let report = mine(db, &MinerConfig {
                seed,
                max_loop: 1,
                minsup,
                ..Default::default()
            });
            prop_assert_eq!(report.pairs, brute_force_pairs(db, minsup));
        }
    }

    /// Pruning invariant: mining the pruned database at minsup equals
    /// the oracle of the pruned database (id remap is consistent).
    #[test]
    fn prune_then_mine_consistent(db in arb_db(), minsup in 1u64..4) {
        let (pruned, _map) = db.prune_infrequent(minsup);
        let oracle = brute_force_pairs(&pruned, minsup);
        prop_assert_eq!(fpgrowth::mine_pairs(&pruned, minsup), oracle);
    }
}
