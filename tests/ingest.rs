//! Differential oracle for the incremental-ingestion layer.
//!
//! Property: for **any** interleaving of inserts, removes, queries, and
//! compactions over a random corpus, the live [`LayeredCorpus`] answers
//! every query — per-item counts, membership, pair counts, top-k, and
//! levelwise mining reports — identically to a **from-scratch
//! preprocess** of the final transaction multiset. And not just at the
//! end: mid-stream probes along the interleaving must match a
//! brute-force model of the live contents at that instant.
//!
//! The property is pinned across both storage-policy axes
//! (`ReprPolicy::Batmap` and `ReprPolicy::Hybrid` — the delta layer
//! must be invisible regardless of how the base represents each set),
//! across host parallelism 1 and 4 (mining fan-out must not change any
//! report), and across cuckoo `MaxLoop` 1 and 128: at `MaxLoop = 1`
//! sparse batmap sets in the larger universes drop insertions, so
//! failed-insertion corrections, delta writes and compaction run
//! together.

use batmap::hash::InversePerms;
use batmap::{EngineOptions, Parallelism, ReprPolicy, SetRepr};
use fim::{TransactionDb, VerticalDb};
use pairminer::ingest::transactions_of;
use pairminer::{
    preprocess_with, Engine, LayeredCorpus, LevelwiseConfig, LevelwiseMiner, MinerConfig,
    Preprocessed,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cases of the interleaving property in which some corpus (initial,
/// compacted or rebuilt) held failed insertions.
static CASES_WITH_FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Corpora of the lazy-mirror property that held failed insertions,
/// and that the mirror rebuild decoded with and without `πₜ⁻¹` tables.
static MIRRORS_WITH_FAILURES: AtomicUsize = AtomicUsize::new(0);
static MIRRORS_TABLED: AtomicUsize = AtomicUsize::new(0);
static MIRRORS_FEISTEL: AtomicUsize = AtomicUsize::new(0);

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Toggle slot `tid`: insert a derived transaction when free,
    /// remove when live.
    Toggle { tid: u32, bits: u64 },
    /// Re-apply the current state of slot `tid` (idempotence probe):
    /// re-insert live slots with identical items, re-remove free ones —
    /// both must answer 0 and change nothing.
    Reapply { tid: u32 },
    /// Fold all pending deltas into a fresh base arena.
    Compact,
    /// Check a pair count and an item count against the model.
    Probe { a: u32, b: u32 },
}

fn materialize(ops: &[(u8, u32, u32, u64)], n: u32, m: u32) -> Vec<Step> {
    ops.iter()
        .map(|&(op, x, y, bits)| match op % 8 {
            0..=3 => Step::Toggle { tid: x % m, bits },
            4 => Step::Reapply { tid: x % m },
            5 => Step::Compact,
            _ => Step::Probe { a: x % n, b: y % n },
        })
        .collect()
}

/// Derive a non-empty, strictly ascending item list from a bit soup.
fn derive_items(bits: u64, n: u32) -> Vec<u32> {
    let mut items: Vec<u32> = (0..n).filter(|&i| (bits >> (i % 64)) & 1 == 1).collect();
    if items.is_empty() {
        items.push((bits % n as u64) as u32);
    }
    items
}

/// splitmix64's output mix: a well-spread draw per input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Brute-force pair count over the model's live transactions.
fn model_pair(model: &[Vec<u32>], a: u32, b: u32) -> u64 {
    model
        .iter()
        .filter(|t| t.binary_search(&a).is_ok() && t.binary_search(&b).is_ok())
        .count() as u64
}

fn model_support(model: &[Vec<u32>], a: u32) -> u64 {
    model.iter().filter(|t| t.binary_search(&a).is_ok()).count() as u64
}

/// Every (storage policy, host parallelism, cuckoo `MaxLoop`) the
/// property runs under.
fn axes() -> Vec<(ReprPolicy, Parallelism, u32)> {
    let mut axes = Vec::new();
    for policy in [ReprPolicy::Batmap, ReprPolicy::Hybrid] {
        for threads in [Parallelism::Serial, Parallelism::threads(4)] {
            for max_loop in [1, 128] {
                axes.push((policy, threads, max_loop));
            }
        }
    }
    axes
}

fn mine_config(options: EngineOptions) -> LevelwiseConfig {
    LevelwiseConfig {
        depth: 3,
        pair: MinerConfig {
            engine: Engine::Cpu,
            options,
            ..MinerConfig::default()
        },
        ..LevelwiseConfig::default()
    }
}

/// The differential oracle (see module docs).
#[test]
fn interleaved_writes_equal_from_scratch_preprocess() {
    check_interleavings();
    assert!(
        CASES_WITH_FAILURES.load(Ordering::Relaxed) > 0,
        "no generated corpus dropped an insertion at MaxLoop 1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Universes up to 1024 slots with up to 128 live transactions keep
    // the batmap sets sparse enough that MaxLoop 1 drops insertions in
    // most cases (universes of at most 64 slots never collide).
    fn check_interleavings(
        n in 2u32..12,
        m in 4u32..1024,
        start in vec(any::<u64>(), 0..128usize),
        ops in vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 5..40),
        seed in 0u64..100,
    ) {
        // Seed database: some live slots, the rest free for writes.
        let mut txns: Vec<Vec<u32>> = vec![Vec::new(); m as usize];
        for (i, &bits) in start.iter().enumerate() {
            txns[i % m as usize] = derive_items(bits, n);
        }
        let db = TransactionDb::new(n, txns);
        let steps = materialize(&ops, n, m);
        let mut saw_failures = false;

        for (policy, threads, max_loop) in axes() {
            let options = EngineOptions::auto().repr(policy).threads(threads);
            let mut corpus = LayeredCorpus::new(&db, seed, max_loop, options);
            saw_failures |= !corpus.pre().failed.is_empty();
            // The model: live transactions, maintained in lockstep.
            let mut model: Vec<Vec<u32>> = db.transactions().to_vec();

            for step in &steps {
                match step {
                    Step::Toggle { tid, bits } => {
                        let t = *tid as usize;
                        if model[t].is_empty() {
                            let items = derive_items(*bits, n);
                            let changed = corpus.insert_txn(*tid, &items).unwrap();
                            prop_assert_eq!(changed, items.len() as u64);
                            model[t] = items;
                        } else {
                            let changed = corpus.remove_txn(*tid).unwrap();
                            prop_assert_eq!(changed, model[t].len() as u64);
                            model[t].clear();
                        }
                    }
                    Step::Reapply { tid } => {
                        let t = *tid as usize;
                        if model[t].is_empty() {
                            prop_assert_eq!(corpus.remove_txn(*tid).unwrap(), 0);
                        } else {
                            let items = model[t].clone();
                            prop_assert_eq!(corpus.insert_txn(*tid, &items).unwrap(), 0);
                        }
                    }
                    Step::Compact => {
                        corpus.compact().unwrap();
                        prop_assert!(!corpus.is_dirty());
                        saw_failures |= !corpus.pre().failed.is_empty();
                    }
                    Step::Probe { a, b } => {
                        prop_assert_eq!(corpus.pair_count(*a, *b), model_pair(&model, *a, *b));
                        prop_assert_eq!(corpus.pair_count(*a, *a), model_support(&model, *a));
                        prop_assert_eq!(corpus.count(*a), model_support(&model, *a));
                    }
                }
            }

            // Final state: every answer equals a from-scratch
            // preprocess of the final transaction multiset.
            let final_db = TransactionDb::new(n, model.clone());
            let fresh = LayeredCorpus::new(&final_db, seed.wrapping_add(1), max_loop, options);
            saw_failures |= !fresh.pre().failed.is_empty();
            for a in 0..n {
                prop_assert_eq!(corpus.count(a), fresh.count(a), "count({})", a);
                prop_assert_eq!(corpus.pair_count(a, a), model_support(&model, a), "self {}", a);
                for b in 0..n {
                    prop_assert_eq!(
                        corpus.pair_count(a, b),
                        fresh.pair_count(a, b),
                        "pair ({}, {}) under {:?}, MaxLoop {}",
                        a, b, policy, max_loop
                    );
                }
                prop_assert_eq!(
                    corpus.top_k(a, 5),
                    fresh.top_k(a, 5),
                    "top-k of {} under {:?}, MaxLoop {}",
                    a, policy, max_loop
                );
            }
            for tid in 0..m {
                for a in 0..n {
                    prop_assert_eq!(
                        corpus.member(a, tid),
                        model[tid as usize].binary_search(&a).is_ok(),
                        "member({}, {})", a, tid
                    );
                }
            }

            // Levelwise mining: the live corpus' report (compacting
            // its deltas) equals a from-scratch mine of the final
            // database — same itemsets, same supports.
            let report = corpus.mine(mine_config(options)).unwrap();
            let scratch = LevelwiseMiner::new(mine_config(options)).mine(&final_db);
            prop_assert_eq!(&report.itemsets, &scratch.itemsets);
            prop_assert_eq!(report.levels.len(), scratch.levels.len());
            for (have, want) in report.levels.iter().zip(&scratch.levels) {
                prop_assert_eq!(have.k, want.k);
                prop_assert_eq!(have.frequent, want.frequent);
            }
        }
        if saw_failures {
            CASES_WITH_FAILURES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Compaction mid-stream is query-invisible: interleaving a compact
/// between every write gives the same answers as never compacting.
#[test]
fn compaction_placement_is_query_invisible() {
    let n = 8u32;
    let m = 16u32;
    let db = TransactionDb::new(n, vec![Vec::new(); m as usize]);
    let options = EngineOptions::auto().repr(ReprPolicy::Hybrid);
    let mut eager = LayeredCorpus::new(&db, 3, 128, options);
    let mut lazy = LayeredCorpus::new(&db, 3, 128, options);
    let writes: Vec<(u32, Vec<u32>)> = (0..m)
        .map(|t| (t, (0..n).filter(|&i| (t + i) % 3 != 0).collect()))
        .collect();
    for (tid, items) in &writes {
        if items.is_empty() {
            continue;
        }
        eager.insert_txn(*tid, items).unwrap();
        lazy.insert_txn(*tid, items).unwrap();
        eager.compact().unwrap();
        for a in 0..n {
            assert_eq!(eager.count(a), lazy.count(a));
            for b in 0..n {
                assert_eq!(eager.pair_count(a, b), lazy.pair_count(a, b), "({a},{b})");
            }
        }
    }
    assert!(!eager.is_dirty());
    assert!(lazy.is_dirty());
}

/// The first operation after `from_preprocessed` that needs the
/// transaction mirror.
#[derive(Debug, Clone, Copy)]
enum FirstUse {
    Insert,
    Remove,
    Compact,
    Database,
    LiveTransactions,
}

/// Whether the mirror rebuild of `pre` inverts batmap slots through
/// the `πₜ⁻¹` tables (the cost rule of [`InversePerms::for_elements`]).
fn rebuild_is_tabled(pre: &Preprocessed) -> bool {
    let batmap_elements = (0..pre.n_items as usize)
        .map(|s| pre.payload(s))
        .filter(|view| view.repr() == SetRepr::Batmap)
        .map(|view| view.len() as u64)
        .sum();
    InversePerms::for_elements(pre.params.perms(), batmap_elements).is_tabled()
}

/// The lazy mirror (see [`check_lazy_mirror`]).
#[test]
fn lazy_mirror_equals_the_source_transactions() {
    check_lazy_mirror();
    assert!(
        MIRRORS_WITH_FAILURES.load(Ordering::Relaxed) > 0,
        "no generated corpus dropped an insertion at MaxLoop 1"
    );
    assert!(
        MIRRORS_TABLED.load(Ordering::Relaxed) > 0,
        "no tabled rebuild"
    );
    assert!(
        MIRRORS_FEISTEL.load(Ordering::Relaxed) > 0,
        "no per-element rebuild"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The mirror a snapshot-style corpus rebuilds on first use equals
    // the transactions it was preprocessed from, and the first write,
    // compaction or mirror read on it matches the same operation on a
    // corpus built straight from the database. Universes sit just below,
    // at and just above a power of 4 — the Feistel domain, so every
    // walk length from 1 to 4. Every slot is free with probability
    // `free_quarters / 4` and otherwise holds each item with
    // probability 1/2, so dense databases store the ≥ 3·m batmap
    // elements that pay for the `πₜ⁻¹` tables and sparse ones do not,
    // while every item's set stays far from full (a wrong inversion
    // shows).
    fn check_lazy_mirror(
        n in 1u32..16,
        k in 1u32..6,
        offset in 0u32..3,
        free_quarters in 0u64..4,
        txn_seed in any::<u64>(),
        pick in any::<u32>(),
        bits in any::<u64>(),
        seed in 0u64..100,
    ) {
        let m = 4u32.pow(k) - 1 + offset;
        let txns: Vec<Vec<u32>> = (0..m as u64)
            .map(|i| {
                let draw = splitmix(txn_seed ^ i);
                if draw % 4 < free_quarters {
                    Vec::new()
                } else {
                    derive_items(draw >> 2, n)
                }
            })
            .collect();
        let db = TransactionDb::new(n, txns);
        let tid = pick % m;
        for policy in [ReprPolicy::Batmap, ReprPolicy::Hybrid] {
            for threads in 1..=3 {
                for max_loop in [1, 128] {
                    let options = EngineOptions::auto()
                        .repr(policy)
                        .threads(Parallelism::threads(threads));
                    let pre = preprocess_with(&VerticalDb::from_horizontal(&db), seed, max_loop, options);
                    if !pre.failed.is_empty() {
                        MIRRORS_WITH_FAILURES.fetch_add(1, Ordering::Relaxed);
                    }
                    if rebuild_is_tabled(&pre) {
                        MIRRORS_TABLED.fetch_add(1, Ordering::Relaxed);
                    } else {
                        MIRRORS_FEISTEL.fetch_add(1, Ordering::Relaxed);
                    }
                    prop_assert_eq!(&transactions_of(&pre), db.transactions());
                    for first in [
                        FirstUse::Insert,
                        FirstUse::Remove,
                        FirstUse::Compact,
                        FirstUse::Database,
                        FirstUse::LiveTransactions,
                    ] {
                        let mut lazy = LayeredCorpus::from_preprocessed(pre.clone(), seed);
                        let mut eager = LayeredCorpus::new(&db, seed, max_loop, options);
                        match first {
                            FirstUse::Insert => {
                                // A free slot takes new items; a live one
                                // answers the idempotent re-insert.
                                let live = db.transactions()[tid as usize].clone();
                                let items = if live.is_empty() { derive_items(bits, n) } else { live };
                                prop_assert_eq!(
                                    lazy.insert_txn(tid, &items),
                                    eager.insert_txn(tid, &items)
                                );
                            }
                            FirstUse::Remove => {
                                prop_assert_eq!(lazy.remove_txn(tid), eager.remove_txn(tid));
                            }
                            FirstUse::Compact => {
                                let job = lazy.begin_compaction();
                                prop_assert_eq!(&transactions_of(&job.build()), db.transactions());
                                prop_assert_eq!(lazy.compact(), eager.compact());
                            }
                            FirstUse::Database => {
                                prop_assert_eq!(lazy.database(), eager.database());
                            }
                            FirstUse::LiveTransactions => {
                                prop_assert_eq!(
                                    lazy.live_transactions(),
                                    eager.live_transactions()
                                );
                            }
                        }
                        prop_assert_eq!(
                            lazy.database(),
                            eager.database(),
                            "after {:?} under {:?}, {} threads, MaxLoop {}, m {}",
                            first, policy, threads, max_loop, m
                        );
                        prop_assert_eq!(lazy.version(), eager.version());
                        for a in 0..n {
                            prop_assert_eq!(lazy.count(a), eager.count(a), "count({})", a);
                            prop_assert_eq!(lazy.member(a, tid), eager.member(a, tid));
                        }
                    }
                }
            }
        }
    }
}
