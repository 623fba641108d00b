//! Property-based tests of the levelwise k-itemset engine: random
//! databases, every depth up to 5, two independent oracles (levelwise
//! Apriori and FP-Growth), and the retired multiway knobs set to their
//! old failure-forcing values.

use batmap::EngineOptions;
use datagen::webdocs::{self, WebDocsSpec};
use fim::apriori::{self, Itemset};
use fim::{fpgrowth, TransactionDb, VerticalDb};
use hpcutil::MemoryFootprint;
use pairminer::{
    mine, mine_preprocessed, preprocess_with, Engine, LevelwiseConfig, LevelwiseMiner,
    MemoryReport, MinerConfig, Parallelism, ReprPolicy,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Up to 50 transactions over up to 16 items, wide enough for
    // frequent itemsets beyond pairs to appear regularly.
    (3u32..16, 1usize..50).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(10)), m).prop_map(move |ts| TransactionDb::new(n, ts))
    })
}

/// Databases whose m is one below, at or one above a multiple of 64
/// (two to four row words), with items on both sides of the ⌈m/64⌉-tid
/// threshold of a bitmap row: a rare item has fewer tids, all drawn from
/// the word-straddling transactions 0, 63, 64 and m − 1 so that rare
/// items meet each other; a common item is in each transaction with
/// probability 3/10 to 9/10.
fn arb_straddling_db() -> impl Strategy<Value = TransactionDb> {
    (2usize..5, 0usize..3, 4u32..10).prop_flat_map(|(w, side, n)| {
        let m = 64 * w - 1 + side;
        let row_words = m.div_ceil(64);
        let item = (0u32..3, 1usize..16, 3u32..10, vec(0u32..10, m));
        vec(item, n as usize).prop_map(move |items| {
            let hot = [0, 63, 64, m - 1];
            let tidlists: Vec<Vec<usize>> = items
                .iter()
                .map(|(kind, mask, density, draws)| {
                    if *kind == 0 {
                        (0..4)
                            .filter(|b| mask >> b & 1 == 1)
                            .map(|b| hot[b])
                            .take(row_words - 1)
                            .collect()
                    } else {
                        (0..m).filter(|&t| draws[t] < *density).collect()
                    }
                })
                .collect();
            let transactions = (0..m)
                .map(|t| {
                    (0..n)
                        .filter(|&i| tidlists[i as usize].contains(&t))
                        .collect()
                })
                .collect();
            TransactionDb::new(n, transactions)
        })
    })
}

fn levelwise_config(depth: usize, minsup: u64) -> LevelwiseConfig {
    LevelwiseConfig {
        depth,
        pair: MinerConfig {
            minsup,
            engine: Engine::Cpu,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Canonical ordering shared by engine output and oracles.
fn canonical(mut sets: Vec<Itemset>) -> Vec<Itemset> {
    sets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The levelwise engine equals the Apriori oracle for every
    /// depth up to 5 and arbitrary minsup.
    #[test]
    fn levelwise_matches_apriori_oracle(
        db in arb_db(),
        minsup in 1u64..6,
        depth in 2usize..6,
    ) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        let expect = canonical(apriori::mine(&db, minsup, depth));
        prop_assert_eq!(report.itemsets, expect);
    }

    /// …and equals FP-Growth, a structurally unrelated second oracle.
    #[test]
    fn levelwise_matches_fpgrowth(db in arb_db(), minsup in 1u64..6, depth in 3usize..6) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        let expect = canonical(
            fpgrowth::mine(&db, minsup, depth)
                .into_iter()
                .filter(|s| s.items.len() >= 2)
                .collect(),
        );
        prop_assert_eq!(report.itemsets, expect);
    }

    /// The multiway knobs that once forced the exact fallback (MaxLoop
    /// 1, no range growth) are not read: the run stays exact at every
    /// depth with them set.
    #[test]
    fn forced_fallback_is_exact(db in arb_db(), minsup in 1u64..4, depth in 3usize..6) {
        let mut config = levelwise_config(depth, minsup);
        config.multiway_max_loop = 1;
        config.growth_doublings = 0;
        let report = LevelwiseMiner::new(config).mine(&db);
        let expect = canonical(apriori::mine(&db, minsup, depth));
        prop_assert_eq!(report.itemsets, expect);
    }

    /// Depth 3 seeded with already-mined pairs (the triple-mining
    /// entry point) equals the Apriori oracle's triples.
    #[test]
    fn triples_equal_levelwise_depth3(db in arb_db(), minsup in 1u64..5) {
        let pairs = mine(&db, &MinerConfig { minsup, ..Default::default() }).pairs;
        let report = LevelwiseMiner::new(levelwise_config(3, minsup)).mine_from_pairs(&db, &pairs);
        let triples: Vec<Itemset> = report
            .itemsets
            .into_iter()
            .filter(|s| s.items.len() == 3)
            .collect();
        let expect: Vec<Itemset> = canonical(apriori::mine(&db, minsup, 3))
            .into_iter()
            .filter(|s| s.items.len() == 3)
            .collect();
        prop_assert_eq!(triples, expect);
    }

    /// Thread counts never change results (the LPT candidate
    /// partitioning is a pure work split).
    #[test]
    fn parallel_counting_matches_serial(db in arb_db(), threads in 2usize..6) {
        let mut serial_config = levelwise_config(4, 2);
        serial_config.pair.options = serial_config.pair.options.threads(Parallelism::Serial);
        let serial = LevelwiseMiner::new(serial_config).mine(&db);
        let mut parallel_config = levelwise_config(4, 2);
        parallel_config.pair.options = parallel_config
            .pair
            .options
            .threads(Parallelism::threads(threads));
        let parallel = LevelwiseMiner::new(parallel_config).mine(&db);
        prop_assert_eq!(serial.itemsets, parallel.itemsets);
    }

    /// Prefixes that mix items with bitmap rows and items without
    /// (supports on both sides of ⌈m/64⌉, m straddling a multiple of
    /// 64) count exactly, at every depth, thread count and storage
    /// policy of the pair stage.
    #[test]
    fn rows_and_tidlists_mix_exactly(
        db in arb_straddling_db(),
        minsup in 1u64..4,
        depth in 3usize..6,
        threads in 1usize..4,
        hybrid in any::<bool>(),
    ) {
        let mut config = levelwise_config(depth, minsup);
        let repr = if hybrid { ReprPolicy::Hybrid } else { ReprPolicy::Batmap };
        config.pair.options = config
            .pair
            .options
            .repr(repr)
            .threads(Parallelism::threads(threads));
        let report = LevelwiseMiner::new(config).mine(&db);
        let expect = canonical(apriori::mine(&db, minsup, depth));
        prop_assert_eq!(report.itemsets, expect);
    }

    /// Structural invariants of the report: one level per k, per-level
    /// tallies consistent, empty levels present.
    #[test]
    fn level_reports_are_complete(db in arb_db(), minsup in 1u64..8, depth in 2usize..6) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        prop_assert_eq!(report.levels.len(), depth - 1);
        for (i, level) in report.levels.iter().enumerate() {
            prop_assert_eq!(level.k, i + 2);
            prop_assert!(level.frequent <= level.candidates);
            prop_assert_eq!(
                level.frequent,
                report.itemsets.iter().filter(|s| s.items.len() == level.k).count()
            );
            if level.k > 2 {
                prop_assert_eq!(level.batched + level.fallback, level.candidates);
                prop_assert_eq!(level.fallback, 0);
            }
        }
    }
}

/// `mine` converts only the items whose support reaches minsup, so the
/// items below it are empty sets of its corpus. A corpus built from
/// every item — `from_horizontal` → `preprocess_with` →
/// `mine_preprocessed`, the path a snapshot-served corpus takes — must
/// give the same pairs, plan, comparisons and repaired pair
/// occurrences, at no lower peak memory; and `mine_from_pairs` over
/// those pairs must give what `LevelwiseMiner::mine` gives. Webdocs
/// data at MaxLoop 2, so cuckoo insertions fail and their repair path
/// runs.
#[test]
fn pruned_mine_equals_mining_a_corpus_of_every_item() {
    let db = webdocs::generate(&WebDocsSpec {
        documents: 300,
        mean_doc_len: 30,
        seed: 9,
        ..Default::default()
    });
    let full_vertical = VerticalDb::from_horizontal(&db);
    let mut repaired = 0;
    for minsup in [2u64, 10, 40] {
        for repr in [ReprPolicy::Hybrid, ReprPolicy::Batmap] {
            for threads in [Parallelism::Serial, Parallelism::threads(2)] {
                let pair = MinerConfig {
                    k: 128,
                    minsup,
                    seed: 17,
                    max_loop: 2,
                    engine: Engine::Cpu,
                    options: EngineOptions::auto().repr(repr).threads(threads),
                };
                let what = format!("minsup {minsup}, {repr}, {threads:?}");
                let pruned = mine(&db, &pair);
                let pre = preprocess_with(&full_vertical, pair.seed, pair.max_loop, pair.options);
                let full = mine_preprocessed(&db, &pre, &pair);
                assert_eq!(pruned.pairs, full.pairs, "{what}");
                assert_eq!(pruned.planned_items, full.planned_items, "{what}");
                assert_eq!(pruned.comparisons, full.comparisons, "{what}");
                assert_eq!(
                    pruned.failed_pair_occurrences, full.failed_pair_occurrences,
                    "{what}"
                );
                // `mine_preprocessed` charges no tidlists; the pipeline
                // that converts every item holds all of them.
                let every_item = MemoryReport {
                    tidlists_bytes: full_vertical.heap_bytes(),
                    ..full.memory
                };
                assert!(
                    pruned.memory.peak_bytes() <= every_item.peak_bytes(),
                    "{what}: peak {} > {}",
                    pruned.memory.peak_bytes(),
                    every_item.peak_bytes()
                );
                repaired += full.failed_pair_occurrences;

                let miner = LevelwiseMiner::new(LevelwiseConfig {
                    depth: 3,
                    pair: pair.clone(),
                    ..Default::default()
                });
                let mined = miner.mine(&db);
                let seeded = miner.mine_from_pairs(&db, &full.pairs);
                assert_eq!(mined.itemsets, seeded.itemsets, "{what}");
                assert!(!mined.itemsets.is_empty(), "{what}");
            }
        }
    }
    assert!(repaired > 0, "no failed insertion was repaired");
}
