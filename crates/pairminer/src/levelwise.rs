//! Levelwise frequent k-itemset mining — the paper's §V program
//! (itemsets beyond pairs) carried out for arbitrary depth.
//!
//! The paper closes by proposing d-of-(d+1) batmaps so that itemsets of
//! size up to d have a position witnessing their intersection. That
//! structure is reproduced in [`batmap::multiway`]; this engine counts
//! levels ≥ 3 over the exact tidlists instead, the vertical layout of
//! Eclat's prefix classes (Zaki, "Scalable algorithms for association
//! mining", TKDE 2000). ARCHITECTURE.md, "Deviations from the paper"
//! (item 5), records why. [`LevelwiseMiner`] runs:
//!
//! 1. **Level 2** from the ordinary tiled pair pipeline
//!    ([`crate::miner::mine`]), or from caller-supplied frequent pairs,
//!    so any pair engine can seed it.
//! 2. **Candidates** for each level `k = 3..=d` from a prefix-class
//!    join. The frequent (k−1)-itemsets are grouped into classes that
//!    share a (k−2)-prefix. A member's extensions start as the later
//!    members of its class and are narrowed by one sorted merge per
//!    dropped prefix item `p`, against the class of
//!    `(prefix ∖ p) + member`. That is the Apriori join with subset
//!    pruning ([`fim::apriori::generate_candidates`], its test oracle),
//!    with the same output in the same order; at `k = 3` it lists the
//!    triangles of the frequent-pair graph (Chiba & Nishizeki, SIAM J.
//!    Comput. 1985). Candidates sharing a (k−1)-prefix come out
//!    consecutive.
//! 3. **Support counting** by one fold per prefix group. The prefix's
//!    tidlists are intersected once, the fold's tids are set in a
//!    per-worker scratch bitmap of ⌈m/64⌉ words, and each extension's
//!    support is the number of its tids that hit a set bit. Only the
//!    fold's words are cleared afterwards. The counts are exact for every
//!    item: no hashes, no failed insertions, no fallback.
//! 4. **Parallelism**: prefix groups are partitioned across workers
//!    with the longest-processing-time rule the tile executors use
//!    ([`crate::executor::balanced_partition`]), weighted by the tids
//!    each group reads, under the pair stage's [`Parallelism`] knob (and
//!    therefore `BATMAP_THREADS`).
//!
//! Levels that produce no candidates are still reported, as
//! zero-candidate [`LevelReport`]s, and skip the join and the count, so
//! an empty level 2 costs nothing.
//!
//! Triple mining is this engine at `depth = 3`; when the frequent pairs
//! already exist, [`LevelwiseMiner::mine_from_pairs`] starts from them.

use crate::executor::balanced_partition;
use crate::miner::{mine, MinerConfig, MiningReport};
use batmap::Parallelism;
use fim::apriori::Itemset;
use fim::pairs::PairMap;
use fim::{TransactionDb, VerticalDb};
use hpcutil::Stopwatch;
use rayon::prelude::*;
use std::cmp::Ordering;

/// Configuration of the levelwise engine.
#[derive(Debug, Clone)]
pub struct LevelwiseConfig {
    /// Largest itemset size to mine (`d`). Must be in `2..=15`, the
    /// range the server protocol's `Mine` request accepts, so a depth
    /// is valid in-process exactly when it is valid on the wire.
    pub depth: usize,
    /// Configuration of the level-2 pair stage; its `minsup` and
    /// `threads` govern the higher levels too.
    pub pair: MinerConfig,
    /// Not read by the engine: levels ≥ 3 count over exact tidlists and
    /// build no multiway universe. Kept for source compatibility.
    pub multiway_seed: u64,
    /// Not read by the engine (no multiway construction happens). Kept
    /// for source compatibility.
    pub multiway_max_loop: u32,
    /// Not read by the engine (no multiway construction happens). Kept
    /// for source compatibility.
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
/// levels with zero candidates (a level the join exhausted is data, not
/// an omission).
#[derive(Debug, Clone, Default)]
pub struct LevelReport {
    /// Itemset size of this level.
    pub k: usize,
    /// Candidates the join generated (for level 2: the seeded frequent
    /// pairs themselves).
    pub candidates: usize,
    /// Candidates at or above `minsup`.
    pub frequent: usize,
    /// Candidates counted by the prefix fold: every candidate of a
    /// level ≥ 3 (0 at level 2, which is not counted here).
    pub batched: usize,
    /// Always 0: the fold is exact for every item, so nothing falls
    /// back. Kept for source compatibility.
    pub fallback: usize,
    /// Wall seconds of the prefix-class join that generated the
    /// candidates.
    pub join_s: f64,
    /// Wall seconds building the vertical tidlist view; non-zero only
    /// on the first level with candidates.
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
    /// Always 0: no item takes an exact fallback path, because every
    /// count is exact. Kept for source compatibility.
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

impl LevelwiseMiner {
    /// Create an engine for the given configuration.
    ///
    /// # Panics
    /// Panics unless `2 ≤ depth ≤ 15` (see [`LevelwiseConfig::depth`]).
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
    /// pipeline produces level 2, the prefix-fold levels follow.
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
        // Built once some level has candidates, so an empty level 2
        // never converts the database.
        let mut vertical: Option<VerticalDb> = None;

        for k in 3..=self.config.depth {
            let mut sw = Stopwatch::start();
            let candidates = join_classes(&current);
            let mut level = LevelReport {
                k,
                candidates: candidates.len(),
                batched: candidates.len(),
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
            level.build_s = sw.lap().as_secs_f64();
            let supports = count_level(&candidates, vertical, self.config.pair.options.threads);
            level.count_s = sw.lap().as_secs_f64();
            current.clear();
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
            fallback_items: 0,
            pair_report: None,
        }
    }
}

/// The prefix-class join: the candidate k-itemsets of the frequent
/// (k−1)-itemsets `lk`, which must be sorted and free of duplicates.
/// Equal to [`fim::apriori::generate_candidates`] item for item and in
/// order (see the module docs); the only allocation per candidate is
/// the candidate itself.
fn join_classes(lk: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let Some(first) = lk.first() else {
        return Vec::new();
    };
    // Prefix length: members of one class agree on `x[..p]` and differ
    // in their last item `x[p]`.
    let p = first.len() - 1;
    let mut starts: Vec<usize> = (0..lk.len())
        .filter(|&i| i == 0 || lk[i][..p] != lk[i - 1][..p])
        .collect();
    starts.push(lk.len());
    let class = |c: usize| &lk[starts[c]..starts[c + 1]];
    let classes = starts.len() - 1;
    // Index of the class whose prefix is `prefix` without its item at
    // `drop`, followed by `last`.
    let find = |prefix: &[u32], drop: usize, last: u32| {
        let key = || {
            prefix[..drop]
                .iter()
                .chain(&prefix[drop + 1..])
                .chain(std::iter::once(&last))
        };
        starts[..classes]
            .binary_search_by(|&s| lk[s][..p].iter().cmp(key()))
            .ok()
    };

    let mut out = Vec::new();
    let mut ext: Vec<u32> = Vec::new();
    for c in 0..classes {
        let members = class(c);
        for (i, x) in members.iter().enumerate() {
            let (prefix, last) = (&x[..p], x[p]);
            ext.clear();
            ext.extend(members[i + 1..].iter().map(|y| y[p]));
            for drop in 0..p {
                if ext.is_empty() {
                    break;
                }
                match find(prefix, drop, last) {
                    Some(other) => retain_sorted(&mut ext, class(other).iter().map(|y| y[p])),
                    None => ext.clear(),
                }
            }
            for &e in &ext {
                let mut cand = Vec::with_capacity(p + 2);
                cand.extend_from_slice(x);
                cand.push(e);
                out.push(cand);
            }
        }
    }
    out
}

/// Keep the items of the sorted `list` that also occur in the sorted
/// `other` (a sorted merge, in place).
fn retain_sorted(list: &mut Vec<u32>, mut other: impl Iterator<Item = u32>) {
    let mut next = other.next();
    list.retain(|&v| {
        while let Some(o) = next {
            match o.cmp(&v) {
                Ordering::Less => next = other.next(),
                Ordering::Equal => return true,
                Ordering::Greater => return false,
            }
        }
        false
    });
}

/// One prefix group of a level's candidate list: `len` consecutive
/// candidates starting at `start`, all sharing their first `k − 1`
/// items.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    len: usize,
}

/// Count one level's candidates, prefix group by prefix group,
/// partitioned across workers with the executors' LPT rule. Returns
/// supports aligned with `candidates`.
fn count_level(candidates: &[Vec<u32>], vertical: &VerticalDb, threads: Parallelism) -> Vec<u64> {
    let groups = prefix_groups(candidates);
    let words = (vertical.m() as usize).div_ceil(64);
    // One worker's pass over its groups, supports in group order.
    let count_bucket = |bucket: &[Group]| {
        let mut bits = vec![0u64; words];
        let mut fold = Vec::new();
        let mut supports = Vec::with_capacity(bucket.iter().map(|g| g.len).sum());
        for &group in bucket {
            let cands = &candidates[group.start..group.start + group.len];
            count_group(cands, vertical, &mut bits, &mut fold, &mut supports);
        }
        supports
    };
    let workers = threads.resolve_with(rayon::current_num_threads());
    if workers <= 1 || groups.len() < 2 {
        // The groups tile the candidate list in order.
        return count_bucket(&groups);
    }
    let tids = |items: &[u32]| -> usize { items.iter().map(|&i| vertical.tidlist(i).len()).sum() };
    let buckets = balanced_partition(groups, workers, |g| {
        let cands = &candidates[g.start..g.start + g.len];
        let prefix = &cands[0][..cands[0].len() - 1];
        tids(prefix) + cands.iter().map(|c| tids(&c[c.len() - 1..])).sum::<usize>()
    });
    let run = || {
        buckets
            .par_iter()
            .map(|bucket| count_bucket(bucket))
            .collect::<Vec<_>>()
    };
    let counted = match threads.pinned() {
        Some(n) if n > 1 => hpcutil::scoped_pool(n, run),
        _ => run(),
    };
    let mut supports = vec![0u64; candidates.len()];
    for (bucket, counts) in buckets.iter().zip(counted) {
        let mut counts = counts.as_slice();
        for group in bucket {
            let (head, rest) = counts.split_at(group.len);
            supports[group.start..group.start + group.len].copy_from_slice(head);
            counts = rest;
        }
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

/// Count one prefix group, appending its supports to `out`: the
/// prefix's tidlists are folded once into `fold`, whose tids are set in
/// `bits` (all clear on entry and on return), and each extension counts
/// its tids that hit a set bit.
fn count_group(
    cands: &[Vec<u32>],
    vertical: &VerticalDb,
    bits: &mut [u64],
    fold: &mut Vec<u32>,
    out: &mut Vec<u64>,
) {
    let prefix = &cands[0][..cands[0].len() - 1];
    let narrowest = *prefix
        .iter()
        .min_by_key(|&&item| vertical.tidlist(item).len())
        .expect("candidates have a non-empty prefix");
    fold.clear();
    fold.extend_from_slice(vertical.tidlist(narrowest));
    for &item in prefix {
        if item != narrowest {
            retain_sorted(fold, vertical.tidlist(item).iter().copied());
        }
    }
    for &t in fold.iter() {
        bits[t as usize / 64] |= 1 << (t % 64);
    }
    out.extend(cands.iter().map(|cand| {
        let ext = vertical.tidlist(cand[cand.len() - 1]);
        ext.iter()
            .map(|&t| bits[t as usize / 64] >> (t % 64) & 1)
            .sum::<u64>()
    }));
    for &t in fold.iter() {
        bits[t as usize / 64] = 0;
    }
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
        // The multiway knobs that once forced build failures (MaxLoop
        // 1, no growth) are no longer read: the run must stay exact on
        // a sparse database (≈13% density) with them set.
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
        // (tidlist band at the r₀ = 64 floor: len 8 ≤ 12): the pair
        // stage stores them differently under the two policies, and
        // levels ≥ 3 fold the same exact tidlists, so both report
        // exactly the oracle's itemsets.
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

    #[test]
    fn join_prunes_candidates_with_a_missing_subset() {
        // L2 lacks {2,3}: {0,2,3} must be pruned, {0,1,2} and {0,1,3}
        // kept.
        let l2: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]];
        assert_eq!(join_classes(&l2), vec![vec![0, 1, 2], vec![0, 1, 3]]);
        assert_eq!(join_classes(&l2), apriori::generate_candidates(&l2));
        // L3 whose class {1,2} is missing entirely: {0,1,2,x} has no
        // frequent {1,2,x}, while {0,1,3,4} has every subset.
        let l3: Vec<Vec<u32>> = vec![
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 1, 4],
            vec![0, 2, 3],
            vec![0, 3, 4],
            vec![1, 3, 4],
        ];
        assert_eq!(join_classes(&l3), vec![vec![0, 1, 3, 4]]);
        assert_eq!(join_classes(&l3), apriori::generate_candidates(&l3));
        assert!(join_classes(&[]).is_empty());
    }

    /// The (k−1)-subsets of `0..n` in lexicographic order, keeping the
    /// i-th when `draws[i] < density`: a random sorted L_{k−1} in which
    /// whole classes and dropped-prefix subsets go missing at random.
    fn random_level(k: usize, n: u32, draws: &[u8], density: u8) -> Vec<Vec<u32>> {
        let mut level = Vec::new();
        let mut set: Vec<u32> = (0..k as u32 - 1).collect();
        for &draw in draws {
            if draw < density {
                level.push(set.clone());
            }
            let len = set.len();
            let Some(i) = (0..len).rev().find(|&i| set[i] < n - (len - i) as u32) else {
                break;
            };
            set[i] += 1;
            for j in i + 1..len {
                set[j] = set[j - 1] + 1;
            }
        }
        level
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The prefix-class join equals the Apriori join item for item
        /// and in order, for k = 3..6 over random sorted L_{k−1} (at
        /// most C(10, 5) = 252 subsets).
        #[test]
        fn join_matches_apriori_join(
            k in 3usize..7,
            extra in 0u32..6,
            density in 1u8..9,
            draws in proptest::collection::vec(0u8..8, 252),
        ) {
            let level = random_level(k, k as u32 - 1 + extra, &draws, density);
            proptest::prop_assert_eq!(join_classes(&level), apriori::generate_candidates(&level));
        }
    }

    #[test]
    fn fold_counts_equal_the_horizontal_scan_and_leave_the_bitmap_clear() {
        let d = db();
        let vertical = VerticalDb::from_horizontal(&d);
        let l2: Vec<Vec<u32>> = (0..12u32)
            .flat_map(|a| (a + 1..12).map(move |b| vec![a, b]))
            .collect();
        let l3 = join_classes(&l2);
        for candidates in [join_classes(&l3), l3] {
            let expect = apriori::count_candidates(&d, &candidates);
            for threads in [Parallelism::Serial, Parallelism::threads(3)] {
                assert_eq!(count_level(&candidates, &vertical, threads), expect);
            }
            let mut bits = vec![0u64; (vertical.m() as usize).div_ceil(64)];
            let (mut fold, mut supports) = (Vec::new(), Vec::new());
            for g in prefix_groups(&candidates) {
                let cands = &candidates[g.start..g.start + g.len];
                count_group(cands, &vertical, &mut bits, &mut fold, &mut supports);
                assert!(bits.iter().all(|&w| w == 0), "scratch bitmap left dirty");
            }
            assert_eq!(supports, expect);
        }
    }
}
