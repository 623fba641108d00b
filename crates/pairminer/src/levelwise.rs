//! Levelwise frequent k-itemset mining on d-of-(d+1) multiway batmaps
//! — the paper's §V program carried out for arbitrary depth.
//!
//! The paper closes by proposing d-of-(d+1) batmaps so that "itemsets
//! of size up to d would have at least one position witnessing their
//! intersection". [`LevelwiseMiner`] builds the full mining engine on
//! top of that guarantee:
//!
//! 1. **Level 2** comes from the ordinary tiled pair pipeline
//!    ([`crate::miner::mine`]) — or from caller-supplied frequent
//!    pairs, so any pair engine can seed it.
//! 2. **Candidates** for each level `k = 3..=d` come from the Apriori
//!    join ([`fim::apriori::generate_candidates`]): a k-itemset can
//!    only be frequent if all its (k−1)-subsets are. The join emits
//!    candidates sorted, with all extensions of one (k−1)-prefix
//!    consecutive.
//! 3. **Support counting** is positional: each item's tidlist is built
//!    once into a d-of-(d+1) [`MultiwayBatmap`] (lazily — only items
//!    that actually appear in a candidate). Candidates sharing a
//!    (k−1)-prefix are counted together through the batched
//!    [`MultiwayBatmap::intersect_count_many`] driver: the prefix is
//!    folded once per group into the sparse list of positions its
//!    intersection occupies (one walk of its narrowest map, probing the
//!    others), and each extension then costs one slot probe per listed
//!    position — O(|prefix ∩|) per candidate, not a sweep of all
//!    (d+1)·r positions.
//! 4. **Parallelism**: prefix-groups are partitioned across workers
//!    with the same longest-processing-time rule the tile executors
//!    use ([`crate::executor::balanced_partition`]), honouring the
//!    [`Parallelism`] knob (and therefore `BATMAP_THREADS`).
//! 5. **Fallback**: a multiway build that fails even after range
//!    growth (rare; see [`MultiwayBatmap::build_with_growth`]) marks
//!    its item, and every candidate containing a marked item is
//!    counted by an exact k-way sorted-tidlist merge instead — the
//!    generalization of the pairwise pipeline's failed-insertion path.
//!    Under a hybrid storage policy ([`batmap::ReprPolicy`], via the
//!    pair stage's `repr`) the same path is taken *deliberately* for
//!    items the policy stores as raw tidlists: the k-way batmap sweep
//!    doesn't apply to the sparse tail, and merging a handful of tids
//!    exactly is cheaper than building a d-of-(d+1) batmap for them.
//!
//! Levels that produce no candidates are still reported — as
//! zero-candidate [`LevelReport`]s — and short-circuit all the work
//! above (no candidate join re-derivation, no multiway construction),
//! so an empty level 2 costs nothing.
//!
//! Triple mining is this engine at `depth = 3`; when the frequent pairs
//! already exist, [`LevelwiseMiner::mine_from_pairs`] starts from them.

use crate::executor::balanced_partition;
use crate::miner::{mine, MinerConfig, MiningReport};
use batmap::{BatmapParams, MultiwayBatmap, MultiwayParams, Parallelism, SetRepr};
use fim::apriori::{generate_candidates, Itemset};
use fim::pairs::PairMap;
use fim::{TransactionDb, VerticalDb};
use hpcutil::{FxHashMap, Stopwatch};
use rayon::prelude::*;
use std::sync::Arc;

/// Configuration of the levelwise engine.
#[derive(Debug, Clone)]
pub struct LevelwiseConfig {
    /// Largest itemset size to mine (`d`); the multiway batmaps are
    /// built with this `d`, so every level up to it is counted
    /// positionally. Must be in `2..=15`.
    pub depth: usize,
    /// Configuration of the level-2 pair stage; its `minsup`, `kernel`
    /// and `threads` govern the higher levels too.
    pub pair: MinerConfig,
    /// Seed of the multiway universe (independent of the pair stage's
    /// batmap seed).
    pub multiway_seed: u64,
    /// Cuckoo `MaxLoop` bound for multiway construction (exposed for
    /// failure-path tests; the default of 128 rarely fails).
    pub multiway_max_loop: u32,
    /// Range doublings [`MultiwayBatmap::build_with_growth`] may spend
    /// recovering a failed build before the engine falls back to exact
    /// merging for that item (0 = fail immediately).
    pub growth_doublings: u32,
}

impl Default for LevelwiseConfig {
    fn default() -> Self {
        LevelwiseConfig {
            depth: 3,
            pair: MinerConfig::default(),
            multiway_seed: 0x3B47,
            multiway_max_loop: 128,
            growth_doublings: 1,
        }
    }
}

/// Per-level accounting. Every level `2..=depth` is reported, including
/// levels with zero candidates (a level the Apriori join exhausted is
/// data, not an omission).
#[derive(Debug, Clone, Default)]
pub struct LevelReport {
    /// Itemset size of this level.
    pub k: usize,
    /// Candidates the Apriori join generated (for level 2: the seeded
    /// frequent pairs themselves).
    pub candidates: usize,
    /// Candidates at or above `minsup`.
    pub frequent: usize,
    /// Candidates counted by the batched positional pass.
    pub batched: usize,
    /// Candidates counted by the exact tidlist-merge fallback (some
    /// item's multiway build failed).
    pub fallback: usize,
    /// Wall seconds of the Apriori join that generated the candidates.
    pub join_s: f64,
    /// Wall seconds building the multiway maps this level first needs
    /// (plus, on the first level with candidates, the vertical view).
    pub build_s: f64,
    /// Wall seconds counting the candidates' supports.
    pub count_s: f64,
    /// Wall seconds of the whole level: join, build, count, and the
    /// minsup filter; at least `join_s + build_s + count_s`.
    pub wall_s: f64,
}

/// Full result of a levelwise run.
#[derive(Debug, Clone)]
pub struct LevelwiseReport {
    /// All frequent itemsets of size `2..=depth`, sorted by (size,
    /// items).
    pub itemsets: Vec<Itemset>,
    /// One entry per level `k = 2..=depth`, in order.
    pub levels: Vec<LevelReport>,
    /// Items whose multiway build failed — or whose storage policy
    /// routed them straight to the exact merge (tidlist-repr items
    /// under a hybrid policy). Their candidates took the exact
    /// fallback path.
    pub fallback_items: usize,
    /// The pair stage's full report when this run mined level 2 itself
    /// ([`LevelwiseMiner::mine`]); `None` when seeded from caller
    /// pairs.
    pub pair_report: Option<MiningReport>,
}

impl LevelwiseReport {
    /// The report of level `k`, if `k` is within the mined depth.
    pub fn level(&self, k: usize) -> Option<&LevelReport> {
        self.levels.iter().find(|l| l.k == k)
    }

    /// The frequent itemsets of size `k`, in item order.
    pub fn itemsets_of_len(&self, k: usize) -> Vec<&Itemset> {
        self.itemsets
            .iter()
            .filter(|s| s.items.len() == k)
            .collect()
    }
}

/// The levelwise k-itemset mining engine. See the module docs for the
/// pipeline; construct with [`LevelwiseMiner::new`], run with
/// [`LevelwiseMiner::mine`] (pairs included) or
/// [`LevelwiseMiner::mine_from_pairs`] (seed level 2 externally).
#[derive(Debug, Clone, Default)]
pub struct LevelwiseMiner {
    config: LevelwiseConfig,
}

/// Multiway maps built so far: `None` marks an item whose build failed
/// even after growth — or that the storage policy deliberately left as
/// a raw tidlist (its candidates take the exact fallback either way).
type MapCache = FxHashMap<u32, Option<MultiwayBatmap>>;

impl LevelwiseMiner {
    /// Create an engine for the given configuration.
    ///
    /// # Panics
    /// Panics unless `2 ≤ depth ≤ 15` (the multiway structure's bound).
    pub fn new(config: LevelwiseConfig) -> Self {
        assert!(
            (2..=15).contains(&config.depth),
            "depth must be in 2..=15, got {}",
            config.depth
        );
        LevelwiseMiner { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LevelwiseConfig {
        &self.config
    }

    /// Mine all frequent itemsets of size `2..=depth`: the tiled pair
    /// pipeline produces level 2, the multiway levels follow.
    pub fn mine(&self, db: &TransactionDb) -> LevelwiseReport {
        let pair_report = mine(db, &self.config.pair);
        let mut report = self.mine_from_pairs(db, &pair_report.pairs);
        report.pair_report = Some(pair_report);
        report
    }

    /// [`LevelwiseMiner::mine`] with an **already-built** pair corpus —
    /// e.g. one loaded from a snapshot
    /// (`Preprocessed::read_snapshot`) — so level 2 skips
    /// preprocessing entirely (`crate::miner::mine_preprocessed`).
    /// Produces the same itemsets as a full run over the database the
    /// corpus was built from (pinned by `tests/snapshot.rs`).
    pub fn mine_with_preprocessed(
        &self,
        db: &TransactionDb,
        pre: &crate::preprocess::Preprocessed,
    ) -> LevelwiseReport {
        let pair_report = crate::miner::mine_preprocessed(db, pre, &self.config.pair);
        let mut report = self.mine_from_pairs(db, &pair_report.pairs);
        report.pair_report = Some(pair_report);
        report
    }

    /// Mine levels `3..=depth` on top of caller-supplied frequent
    /// pairs. `frequent_pairs` must be the minsup-filtered pair
    /// supports of `db` (from any engine); level 2 is reported from
    /// them verbatim.
    pub fn mine_from_pairs(&self, db: &TransactionDb, frequent_pairs: &PairMap) -> LevelwiseReport {
        let minsup = self.config.pair.minsup.max(1);
        let mut itemsets: Vec<Itemset> = frequent_pairs
            .iter()
            .map(|(&(i, j), &support)| Itemset {
                items: vec![i, j],
                support,
            })
            .collect();
        itemsets.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        let mut levels = vec![LevelReport {
            k: 2,
            candidates: frequent_pairs.len(),
            frequent: frequent_pairs.len(),
            ..Default::default()
        }];
        let mut current: Vec<Vec<u32>> = itemsets.iter().map(|s| s.items.clone()).collect();

        // Built lazily: the vertical view and the shared multiway
        // universe exist only once some level has candidates, and each
        // item's map only once it appears in one.
        let mut vertical: Option<VerticalDb> = None;
        let mut params: Option<Arc<MultiwayParams>> = None;
        let mut gate: Option<BatmapParams> = None;
        let mut maps: MapCache = MapCache::default();
        // The resolved storage policy decides which items get multiway
        // maps at all; resolved once so the env read happens up front.
        let repr = self.config.pair.options.repr.resolve();

        for k in 3..=self.config.depth {
            let mut sw = Stopwatch::start();
            // Short-circuit exhausted levels: no join re-derivation, no
            // multiway work — but still a (zero-candidate) report.
            let candidates = if current.is_empty() {
                Vec::new()
            } else {
                generate_candidates(&current)
            };
            let mut level = LevelReport {
                k,
                candidates: candidates.len(),
                join_s: sw.lap().as_secs_f64(),
                ..Default::default()
            };
            if candidates.is_empty() {
                current.clear();
                level.wall_s = sw.total().as_secs_f64();
                levels.push(level);
                continue;
            }
            let vertical = vertical.get_or_insert_with(|| VerticalDb::from_horizontal(db));
            let params = params.get_or_insert_with(|| {
                Arc::new(
                    MultiwayParams::new(
                        vertical.m().max(1) as u64,
                        self.config.depth,
                        self.config.multiway_seed,
                    )
                    .with_max_loop(self.config.multiway_max_loop)
                    .with_kernel(self.config.pair.options.kernel),
                )
            });
            // The gate reproduces the pair corpus' range geometry
            // (same r₀ floor as `crate::preprocess`), so "tidlist
            // item" below means exactly the items a hybrid pair
            // corpus stores as raw tidlists.
            let gate = gate.get_or_insert_with(|| {
                BatmapParams::with_options(
                    vertical.m().max(1) as u64,
                    self.config.pair.seed,
                    self.config.pair.max_loop,
                    crate::preprocess::GPU_MIN_SHIFT,
                )
            });
            for cand in &candidates {
                for &item in cand {
                    maps.entry(item).or_insert_with(|| {
                        let tidlist = vertical.tidlist(item);
                        // Items the storage policy keeps as raw
                        // tidlists skip the sweep machinery entirely:
                        // the exact merge is their native counter.
                        let chosen =
                            repr.choose(tidlist.len(), gate.m(), gate.range_for(tidlist.len()));
                        if chosen == SetRepr::Tidlist {
                            return None;
                        }
                        MultiwayBatmap::build_with_growth(
                            params.clone(),
                            tidlist,
                            self.config.growth_doublings,
                        )
                    });
                }
            }
            level.build_s = sw.lap().as_secs_f64();
            let supports = count_level(
                &candidates,
                &maps,
                vertical,
                self.config.pair.options.threads,
                &mut level,
            );
            level.count_s = sw.lap().as_secs_f64();
            current = Vec::new();
            for (cand, support) in candidates.into_iter().zip(supports) {
                if support >= minsup {
                    level.frequent += 1;
                    current.push(cand.clone());
                    itemsets.push(Itemset {
                        items: cand,
                        support,
                    });
                }
            }
            level.wall_s = sw.total().as_secs_f64();
            levels.push(level);
        }
        itemsets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        LevelwiseReport {
            itemsets,
            levels,
            fallback_items: maps.values().filter(|m| m.is_none()).count(),
            pair_report: None,
        }
    }
}

/// One prefix-group of a level's candidate list: `len` consecutive
/// candidates starting at `start`, all sharing their first `k − 1`
/// items.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    len: usize,
}

/// Count one level's candidates, prefix-group by prefix-group,
/// partitioned across workers with the executors' LPT rule. Returns
/// supports aligned with `candidates` and fills the level's
/// batched/fallback tallies.
fn count_level(
    candidates: &[Vec<u32>],
    maps: &MapCache,
    vertical: &VerticalDb,
    threads: Parallelism,
    level: &mut LevelReport,
) -> Vec<u64> {
    let groups = prefix_groups(candidates);
    let workers = threads.resolve_with(rayon::current_num_threads());
    let counted: Vec<(Group, Vec<u64>, usize)> = if workers <= 1 || groups.len() < 2 {
        groups
            .into_iter()
            .map(|g| count_group(g, candidates, maps, vertical))
            .collect()
    } else {
        let buckets = balanced_partition(groups, workers, |g| g.len);
        let run = || {
            let per_bucket: Vec<Vec<(Group, Vec<u64>, usize)>> = buckets
                .into_par_iter()
                .map(|bucket| {
                    bucket
                        .into_iter()
                        .map(|g| count_group(g, candidates, maps, vertical))
                        .collect::<Vec<_>>()
                })
                .collect();
            per_bucket.into_iter().flatten().collect::<Vec<_>>()
        };
        match threads.pinned() {
            Some(n) if n > 1 => hpcutil::scoped_pool(n, run),
            _ => run(),
        }
    };
    let mut supports = vec![0u64; candidates.len()];
    for (group, counts, fallback) in counted {
        level.fallback += fallback;
        level.batched += group.len - fallback;
        supports[group.start..group.start + group.len].copy_from_slice(&counts);
    }
    supports
}

/// Split a sorted candidate list into its runs of equal (k−1)-prefixes.
fn prefix_groups(candidates: &[Vec<u32>]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (i, cand) in candidates.iter().enumerate() {
        let prefix = &cand[..cand.len() - 1];
        match groups.last_mut() {
            Some(g) if candidates[g.start][..prefix.len()] == *prefix => g.len += 1,
            _ => groups.push(Group { start: i, len: 1 }),
        }
    }
    groups
}

/// Count one prefix-group: the shared prefix is folded once and every
/// extension swept against it through the batched driver; extensions
/// (or prefixes) with a failed map take the exact merge. Returns the
/// group's supports plus how many of them fell back.
fn count_group(
    group: Group,
    candidates: &[Vec<u32>],
    maps: &MapCache,
    vertical: &VerticalDb,
) -> (Group, Vec<u64>, usize) {
    let cands = &candidates[group.start..group.start + group.len];
    let prefix = &cands[0][..cands[0].len() - 1];
    let base: Option<Vec<&MultiwayBatmap>> = prefix
        .iter()
        .map(|item| maps[item].as_ref())
        .collect::<Option<Vec<_>>>();
    let mut supports = vec![0u64; cands.len()];
    let mut fallback = 0usize;
    // Partition the group's extensions: positional batch where every
    // operand has a map, exact merge otherwise.
    let mut batch_idx: Vec<usize> = Vec::new();
    let mut batch_maps: Vec<&MultiwayBatmap> = Vec::new();
    for (i, cand) in cands.iter().enumerate() {
        let ext = *cand.last().expect("candidates are non-empty");
        match (&base, maps[&ext].as_ref()) {
            (Some(_), Some(map)) => {
                batch_idx.push(i);
                batch_maps.push(map);
            }
            _ => {
                let lists: Vec<&[u32]> = cand.iter().map(|&item| vertical.tidlist(item)).collect();
                supports[i] = k_way_merge(&lists);
                fallback += 1;
            }
        }
    }
    if let (Some(base), false) = (&base, batch_idx.is_empty()) {
        let counts = MultiwayBatmap::intersect_count_many(base, &batch_maps);
        for (&i, count) in batch_idx.iter().zip(counts) {
            supports[i] = count;
        }
    }
    (group, supports, fallback)
}

/// Exact k-way sorted-merge count — the fallback path's oracle-grade
/// counter (generalizes the pairwise pipeline's failed-insertion
/// merging).
fn k_way_merge(lists: &[&[u32]]) -> u64 {
    debug_assert!(!lists.is_empty());
    let mut idx = vec![0usize; lists.len()];
    let mut count = 0u64;
    'outer: loop {
        let mut max = 0u32;
        for (list, &i) in lists.iter().zip(&idx) {
            match list.get(i) {
                Some(&v) => max = max.max(v),
                None => break 'outer,
            }
        }
        let mut all_equal = true;
        for (list, i) in lists.iter().zip(&mut idx) {
            if list[*i] < max {
                *i += 1;
                all_equal = false;
            }
        }
        if all_equal {
            count += 1;
            for i in &mut idx {
                *i += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Engine;
    use fim::apriori;

    fn db() -> TransactionDb {
        TransactionDb::new(
            12,
            (0..600usize)
                .map(|t| (0..12u32).filter(|&i| (t as u32 + i * 5) % 7 < 3).collect())
                .collect(),
        )
    }

    fn config(depth: usize, minsup: u64) -> LevelwiseConfig {
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

    /// Oracle comparison helper: the apriori levelwise miner over the
    /// same depth, sorted the same way.
    fn oracle(d: &TransactionDb, minsup: u64, depth: usize) -> Vec<Itemset> {
        let mut sets = apriori::mine(d, minsup, depth);
        sets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        sets
    }

    #[test]
    fn matches_apriori_across_depths_and_minsups() {
        let d = db();
        for depth in [2usize, 3, 4, 5] {
            for minsup in [20u64, 60, 120] {
                let report = LevelwiseMiner::new(config(depth, minsup)).mine(&d);
                assert_eq!(
                    report.itemsets,
                    oracle(&d, minsup, depth),
                    "depth={depth} minsup={minsup}"
                );
                assert_eq!(report.levels.len(), depth - 1, "one report per level");
                for (i, level) in report.levels.iter().enumerate() {
                    assert_eq!(level.k, i + 2);
                    assert_eq!(
                        level.frequent,
                        report.itemsets_of_len(level.k).len(),
                        "depth={depth} minsup={minsup} k={}",
                        level.k
                    );
                }
                assert!(report.pair_report.is_some());
            }
        }
    }

    #[test]
    fn forced_fallback_still_exact() {
        // MaxLoop 1 forces failures — but only on *sparse* sets: when
        // m ≤ r the permutation hash is injective and collisions are
        // impossible, so the database must have many transactions
        // relative to each tidlist (≈13% density here).
        let d = TransactionDb::new(
            24,
            (0..3000usize)
                .map(|t| {
                    (0..24u32)
                        .filter(|&i| (t as u32 + i * 7) % 30 < 4)
                        .collect()
                })
                .collect(),
        );
        for depth in [3usize, 4] {
            let mut cfg = config(depth, 20);
            cfg.multiway_max_loop = 1;
            cfg.growth_doublings = 0;
            let report = LevelwiseMiner::new(cfg).mine(&d);
            assert_eq!(report.itemsets, oracle(&d, 20, depth), "depth={depth}");
            assert!(
                report.fallback_items > 0,
                "expected forced build failures at depth {depth}"
            );
            let fallbacks: usize = report.levels.iter().map(|l| l.fallback).sum();
            assert!(fallbacks > 0, "fallback candidates must be counted");
        }
    }

    #[test]
    fn empty_levels_are_reported_not_skipped() {
        // minsup above every pair support: level 2 is empty, levels
        // 3..=5 must still appear as zero-candidate reports.
        let d = db();
        let report = LevelwiseMiner::new(config(5, 1_000_000)).mine(&d);
        assert!(report.itemsets.is_empty());
        assert_eq!(report.levels.len(), 4);
        for level in &report.levels {
            assert_eq!(level.candidates, 0, "k={}", level.k);
            assert_eq!(level.frequent, 0);
        }
        // And no multiway machinery was touched.
        assert_eq!(report.fallback_items, 0);
        // Seeding with no frequent pairs is the same empty run.
        let seeded = LevelwiseMiner::new(config(3, 1)).mine_from_pairs(&d, &PairMap::default());
        assert!(seeded.itemsets.is_empty());
        assert_eq!(seeded.level(3).map_or(0, |l| l.candidates), 0);
        assert_eq!(seeded.fallback_items, 0);
    }

    #[test]
    fn seeded_pairs_match_full_run() {
        let d = db();
        let minsup = 40;
        let full = LevelwiseMiner::new(config(4, minsup)).mine(&d);
        let pairs = mine(
            &d,
            &MinerConfig {
                minsup,
                ..Default::default()
            },
        )
        .pairs;
        let seeded = LevelwiseMiner::new(config(4, minsup)).mine_from_pairs(&d, &pairs);
        assert_eq!(seeded.itemsets, full.itemsets);
        assert!(seeded.pair_report.is_none());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let d = db();
        let mut serial_cfg = config(4, 20);
        serial_cfg.pair.options.threads = Parallelism::Serial;
        let serial = LevelwiseMiner::new(serial_cfg).mine(&d);
        for threads in [2usize, 4, 8] {
            let mut cfg = config(4, 20);
            cfg.pair.options.threads = Parallelism::threads(threads);
            let parallel = LevelwiseMiner::new(cfg).mine(&d);
            assert_eq!(parallel.itemsets, serial.itemsets, "threads={threads}");
        }
    }

    #[test]
    fn hybrid_policy_matches_batmap_and_routes_tidlists_to_exact_merge() {
        // Dense head (bitmap band) plus sparse co-occurring tails
        // (tidlist band at the r₀ = 64 floor: len 8 ≤ 12): the hybrid
        // policy must skip multiway builds for the sparse items,
        // count their candidates by the exact merge, and still report
        // exactly the pure-batmap itemsets.
        let d = TransactionDb::new(
            10,
            (0..800usize)
                .map(|t| {
                    (0..10u32)
                        .filter(|&i| {
                            if i < 3 {
                                (t as u32 + i) % 3 < 2
                            } else {
                                t as u32 % 100 == i % 2
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        let mut batmap_cfg = config(4, 4);
        batmap_cfg.pair.options.repr = batmap::ReprPolicy::Batmap;
        let baseline = LevelwiseMiner::new(batmap_cfg).mine(&d);
        assert_eq!(baseline.itemsets, oracle(&d, 4, 4));
        assert_eq!(baseline.fallback_items, 0, "pure batmap never falls back");

        let mut hybrid_cfg = config(4, 4);
        hybrid_cfg.pair.options.repr = batmap::ReprPolicy::Hybrid;
        let hybrid = LevelwiseMiner::new(hybrid_cfg).mine(&d);
        assert_eq!(hybrid.itemsets, baseline.itemsets);
        assert!(
            hybrid.fallback_items >= 4,
            "sparse tidlist items must skip multiway builds, got {}",
            hybrid.fallback_items
        );
        let fallbacks: usize = hybrid.levels.iter().map(|l| l.fallback).sum();
        assert!(fallbacks > 0, "their candidates take the exact merge");
    }

    #[test]
    fn level_stage_times_fit_inside_the_level_wall() {
        let d = db();
        // Depth 5 at minsup 120 mines levels with and without
        // candidates, so both report paths are covered.
        let report = LevelwiseMiner::new(config(5, 120)).mine(&d);
        assert!(report.levels.iter().any(|l| l.k > 2 && l.candidates > 0));
        assert!(report.levels.iter().any(|l| l.candidates == 0));
        for level in &report.levels {
            let stages = [level.join_s, level.build_s, level.count_s];
            assert!(
                stages.iter().all(|&s| s >= 0.0),
                "k={}: {stages:?}",
                level.k
            );
            assert!(
                stages.iter().sum::<f64>() <= level.wall_s,
                "k={}: {stages:?} exceed wall {}",
                level.k,
                level.wall_s
            );
        }
    }

    #[test]
    #[should_panic]
    fn depth_out_of_range_rejected() {
        let _ = LevelwiseMiner::new(config(1, 1));
    }

    #[test]
    fn k_way_merge_exact() {
        let a: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..200).map(|i| i * 3).collect();
        let c: Vec<u32> = (0..120).map(|i| i * 5).collect();
        // Multiples of 30 below 600.
        assert_eq!(k_way_merge(&[&a, &b, &c]), 20);
        assert_eq!(k_way_merge(&[&a, &[], &c]), 0);
        assert_eq!(k_way_merge(&[&a, &b]), 100); // multiples of 6 < 600
        assert_eq!(k_way_merge(&[&a]), a.len() as u64);
    }

    #[test]
    fn prefix_groups_are_runs() {
        let cands = vec![
            vec![0, 1, 2],
            vec![0, 1, 5],
            vec![0, 2, 3],
            vec![4, 5, 6],
            vec![4, 5, 7],
        ];
        let groups = prefix_groups(&cands);
        let shape: Vec<(usize, usize)> = groups.iter().map(|g| (g.start, g.len)).collect();
        assert_eq!(shape, vec![(0, 2), (2, 1), (3, 2)]);
    }
}
