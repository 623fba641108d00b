//! Levelwise frequent k-itemset mining — the paper's §V program
//! (itemsets beyond pairs) carried out for arbitrary depth.
//!
//! The paper closes by proposing d-of-(d+1) batmaps so that itemsets of
//! size up to d have a position witnessing their intersection. That
//! structure is reproduced in [`batmap::multiway`]; this engine counts
//! levels ≥ 3 exactly instead, over the vertical layout of Eclat's
//! prefix classes (Zaki, "Scalable algorithms for association mining",
//! TKDE 2000) with MAFIA's bitmap rows for dense items (Burdick,
//! Calimlim & Gehrke, ICDE 2001). ARCHITECTURE.md, "Deviations from the
//! paper" (item 5), records why. [`LevelwiseMiner`] runs:
//!
//! 1. **Level 2** from the ordinary tiled pair pipeline
//!    ([`crate::miner::mine`]), or from caller-supplied frequent pairs,
//!    so any pair engine can seed it. [`LevelwiseMiner::mine`] keeps the
//!    tidlists the pair stage converted; the other entry points convert
//!    the database once, on the first level with candidates. Either way
//!    only the items whose support reaches `minsup` get their tidlists
//!    ([`VerticalDb::from_frequent`]): every item of L₂ is one of them.
//! 2. **Rows**, once per run: every item of L₂ with at least ⌈m/64⌉
//!    tids gets an exact m-bit row ([`ItemRows`]), which therefore takes
//!    at most twice its tidlist's bytes. Sparser items keep only their
//!    tidlists.
//! 3. **Candidates** for each level `k = 3..=d` from a prefix-class
//!    join. The frequent (k−1)-itemsets, one flat buffer of k − 1 items
//!    apiece, are grouped into classes that share a (k−2)-prefix. A
//!    member's extensions start as the later members of its class and
//!    are narrowed by one sorted merge per dropped prefix item `p`,
//!    against the class of `(prefix ∖ p) + member`. That is the Apriori
//!    join with subset pruning ([`fim::apriori::generate_candidates`],
//!    its test oracle), with the same output in the same order; at
//!    `k = 3` it lists the triangles of the frequent-pair graph (Chiba &
//!    Nishizeki, SIAM J. Comput. 1985). It emits one group per member
//!    that extends: the member's index and its run of extension items,
//!    in flat buffers. Only frequent candidates allocate, as the
//!    [`Itemset`]s of the report, which they extend in (size, items)
//!    order, so the report is never sorted.
//! 4. **Support counting** by one fold per prefix group
//!    ([`GroupCounter`]). The fold is the AND of the prefix items' rows
//!    when all of them have one, and otherwise the sorted merge of their
//!    tidlists; either way it lands in a per-worker scratch row of
//!    ⌈m/64⌉ words, cleared after the group.
//!    An extension with a row is counted by AND + popcount over the
//!    fold's word span (its first to its last set bit) when that span is
//!    no longer than the extension's tidlist; any other extension by
//!    testing each of its tids against the fold. The counts are exact
//!    for every item: no hashes, no failed insertions, no fallback.
//! 5. **Parallelism**: prefix groups are partitioned across workers
//!    with the longest-processing-time rule the tile executors use
//!    ([`crate::executor::balanced_partition`]), weighted by the words
//!    and tids each group's count reads, under the pair stage's
//!    [`Parallelism`] knob (and therefore `BATMAP_THREADS`).
//!
//! Levels that produce no candidates are still reported, as
//! zero-candidate [`LevelReport`]s, and skip the join and the count, so
//! an empty level 2 costs nothing.
//!
//! Triple mining is this engine at `depth = 3`; when the frequent pairs
//! already exist, [`LevelwiseMiner::mine_from_pairs`] starts from them.

use crate::executor::balanced_partition;
use crate::miner::{mine_keeping_vertical, MinerConfig, MiningReport};
use batmap::Parallelism;
use fim::apriori::Itemset;
use fim::pairs::PairMap;
use fim::{TransactionDb, VerticalDb};
use hpcutil::Stopwatch;
use rayon::prelude::*;
use std::ops::Range;

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
    /// Not read by the engine: levels ≥ 3 count over exact rows and
    /// tidlists and build no multiway universe. Kept for source compatibility.
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
    /// Wall seconds building the vertical tidlist view (unless the
    /// pair stage handed it over) and the item rows; non-zero only on
    /// the first level with candidates.
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
    /// pipeline produces level 2, the prefix-fold levels follow over the
    /// tidlists the pair stage already converted. That conversion keeps
    /// only the items whose support reaches `minsup`, so the pair stage
    /// builds a stored set for those alone and every other item is an
    /// empty set of its corpus; the report equals
    /// [`LevelwiseMiner::mine_from_pairs`] over the pairs of a corpus
    /// built from every item (`tests/levelwise.rs` pins it).
    pub fn mine(&self, db: &TransactionDb) -> LevelwiseReport {
        let (pair_report, vertical) = mine_keeping_vertical(db, &self.config.pair);
        let mut report = self.mine_levels(db, &pair_report.pairs, Some(vertical));
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
        self.mine_levels(db, frequent_pairs, None)
    }

    /// Levels `2..=depth` from the frequent pairs of `db`. `vertical`
    /// is `db`'s vertical database when the caller already has it;
    /// otherwise it is converted on the first level with candidates, so
    /// an empty level 2 never converts the database.
    fn mine_levels(
        &self,
        db: &TransactionDb,
        frequent_pairs: &PairMap,
        mut vertical: Option<VerticalDb>,
    ) -> LevelwiseReport {
        let minsup = self.config.pair.minsup.max(1);
        let mut pairs: Vec<((u32, u32), u64)> =
            frequent_pairs.iter().map(|(&p, &s)| (p, s)).collect();
        pairs.sort_unstable();
        let mut itemsets: Vec<Itemset> = pairs
            .iter()
            .map(|&((i, j), support)| Itemset {
                items: vec![i, j],
                support,
            })
            .collect();
        let mut levels = vec![LevelReport {
            k: 2,
            candidates: pairs.len(),
            frequent: pairs.len(),
            ..Default::default()
        }];
        // L_{k−1}: its itemsets in lexicographic order, k − 1 items
        // each, in one flat buffer.
        let mut current: Vec<u32> = pairs.iter().flat_map(|&((i, j), _)| [i, j]).collect();
        let mut rows: Option<ItemRows> = None;

        for k in 3..=self.config.depth {
            let width = k - 1;
            let mut sw = Stopwatch::start();
            let candidates = join_classes(&current, width);
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
            // Later levels read the tidlists of L₂ items only, and every
            // one of them is frequent.
            let vertical = vertical.get_or_insert_with(|| VerticalDb::from_frequent(db, minsup));
            // The first level with candidates is level 3: `current` is
            // L₂, whose items are every item a later level reaches.
            let rows = rows.get_or_insert_with(|| ItemRows::new(vertical, current.iter().copied()));
            level.build_s = sw.lap().as_secs_f64();
            let supports = count_level(
                &current,
                width,
                &candidates,
                vertical,
                rows,
                self.config.pair.options.threads,
            );
            level.count_s = sw.lap().as_secs_f64();
            // The join emits candidates in lexicographic order, so the
            // frequent ones extend the report in (size, items) order.
            // Room for every candidate is reserved, not touched.
            let before = itemsets.len();
            itemsets.reserve(candidates.len());
            for group in &candidates.groups {
                let prefix = &current[group.member * width..][..width];
                let run = group.start..group.end;
                for (&item, &support) in candidates.ext[run.clone()].iter().zip(&supports[run]) {
                    if support >= minsup {
                        let mut items = Vec::with_capacity(k);
                        items.extend_from_slice(prefix);
                        items.push(item);
                        itemsets.push(Itemset { items, support });
                    }
                }
            }
            level.frequent = itemsets.len() - before;
            current.clear();
            if k < self.config.depth {
                current.extend(
                    itemsets[before..]
                        .iter()
                        .flat_map(|s| s.items.iter().copied()),
                );
            }
            level.wall_s = sw.total().as_secs_f64();
            levels.push(level);
        }
        LevelwiseReport {
            itemsets,
            levels,
            fallback_items: 0,
            pair_report: None,
        }
    }
}

/// One level's candidates, grouped by their (k−1)-prefix and in
/// lexicographic order: each [`Group`] extends one member of L_{k−1} by
/// a run of `ext`, and the groups tile `ext` in order.
#[derive(Debug, Default)]
struct Candidates {
    groups: Vec<Group>,
    ext: Vec<u32>,
}

impl Candidates {
    fn len(&self) -> usize {
        self.ext.len()
    }

    fn is_empty(&self) -> bool {
        self.ext.is_empty()
    }
}

/// One prefix group: the candidates that extend the member `member` of
/// L_{k−1} by each item of its level's `ext[start..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Group {
    member: usize,
    start: usize,
    end: usize,
}

/// The prefix-class join: the candidate k-itemsets of the frequent
/// (k−1)-itemsets `lk`, stored flat `width = k − 1` items apiece, which
/// must be sorted and free of duplicates. Equal to
/// [`fim::apriori::generate_candidates`] item for item and in order
/// (see the module docs); nothing is allocated per candidate.
fn join_classes(lk: &[u32], width: usize) -> Candidates {
    let n = lk.len() / width;
    let mut out = Candidates::default();
    if n == 0 {
        return out;
    }
    let member = |i: usize| &lk[i * width..][..width];
    // Prefix length: members of one class agree on `x[..p]` and differ
    // in their last item `x[p]`.
    let p = width - 1;
    let mut starts: Vec<usize> = (0..n)
        .filter(|&i| i == 0 || member(i)[..p] != member(i - 1)[..p])
        .collect();
    starts.push(n);
    let classes = starts.len() - 1;
    let lasts = |c: usize| (starts[c]..starts[c + 1]).map(|i| member(i)[p]);
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
            .binary_search_by(|&s| member(s)[..p].iter().cmp(key()))
            .ok()
    };

    for c in 0..classes {
        for i in starts[c]..starts[c + 1] {
            let (prefix, last) = (&member(i)[..p], member(i)[p]);
            // The member's extensions are narrowed in place at the end
            // of `out.ext`.
            let start = out.ext.len();
            out.ext.extend((i + 1..starts[c + 1]).map(|j| member(j)[p]));
            for drop in 0..p {
                if out.ext.len() == start {
                    break;
                }
                match find(prefix, drop, last) {
                    Some(other) => retain_sorted(&mut out.ext, start, lasts(other)),
                    None => out.ext.truncate(start),
                }
            }
            if out.ext.len() > start {
                out.groups.push(Group {
                    member: i,
                    start,
                    end: out.ext.len(),
                });
            }
        }
    }
    out
}

/// Keep the items of the sorted run `list[from..]` that also occur in
/// the sorted `other` (a sorted merge, in place).
fn retain_sorted(list: &mut Vec<u32>, from: usize, mut other: impl Iterator<Item = u32>) {
    let mut kept = from;
    let mut next = other.next();
    for i in from..list.len() {
        let v = list[i];
        while next.is_some_and(|o| o < v) {
            next = other.next();
        }
        match next {
            Some(o) if o == v => {
                list[kept] = v;
                kept += 1;
            }
            Some(_) => {}
            None => break,
        }
    }
    list.truncate(kept);
}

/// Count one level's candidates, prefix group by prefix group,
/// partitioned across workers with the executors' LPT rule weighted by
/// [`group_cost`]. `lk` is L_{k−1}, `width` items apiece; returns
/// supports aligned with `candidates.ext`.
fn count_level(
    lk: &[u32],
    width: usize,
    candidates: &Candidates,
    vertical: &VerticalDb,
    rows: &ItemRows,
    threads: Parallelism,
) -> Vec<u64> {
    let prefix = |g: &Group| &lk[g.member * width..][..width];
    let extensions = |g: &Group| &candidates.ext[g.start..g.end];
    // One worker's pass over its groups, supports in group order.
    let count_bucket = |bucket: &[Group]| {
        let mut counter = GroupCounter::new(vertical, rows);
        let mut supports = Vec::with_capacity(bucket.iter().map(|g| g.end - g.start).sum());
        for g in bucket {
            counter.count(prefix(g), extensions(g), &mut supports);
        }
        supports
    };
    let groups = &candidates.groups;
    let workers = threads.resolve_with(rayon::current_num_threads());
    if workers <= 1 || groups.len() < 2 {
        // The groups tile the candidate list in order.
        return count_bucket(groups);
    }
    let buckets = balanced_partition(groups.clone(), workers, |g| {
        group_cost(vertical, rows, prefix(g), extensions(g))
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
        for g in bucket {
            let (head, rest) = counts.split_at(g.end - g.start);
            supports[g.start..g.end].copy_from_slice(head);
            counts = rest;
        }
    }
    supports
}

/// The words and tids [`GroupCounter::count`] reads for one group: the
/// fold (every prefix row over the prefix's span, or every prefix
/// tidlist), and per extension the shorter of that span and its tidlist
/// when it has a row, its tidlist otherwise.
fn group_cost(vertical: &VerticalDb, rows: &ItemRows, prefix: &[u32], extensions: &[u32]) -> usize {
    let span = prefix_span(vertical, prefix).len();
    let tids = |item: u32| vertical.tidlist(item).len();
    let fold = if prefix.iter().all(|&item| rows.row(item).is_some()) {
        prefix.len() * span
    } else {
        prefix.iter().map(|&item| tids(item)).sum()
    };
    let extend = |item: u32| match rows.row(item) {
        Some(_) => span.min(tids(item)),
        None => tids(item),
    };
    fold + extensions.iter().map(|&item| extend(item)).sum::<usize>()
}

/// Marks an item without a row in [`ItemRows`]'s index.
const NO_ROW: u32 = u32::MAX;

/// Exact m-bit rows (⌈m/64⌉ words, bit `t` set for each tid `t`) of the
/// items whose row is no longer than their tidlist, i.e. those with at
/// least ⌈m/64⌉ tids, in one flat buffer. A row therefore takes at most
/// twice its tidlist's bytes. Other items have no row and are read
/// through their tidlists.
#[derive(Debug, Clone)]
pub struct ItemRows {
    /// ⌈m/64⌉: the words of one row.
    words: usize,
    /// Each item's row number, or [`NO_ROW`].
    index: Vec<u32>,
    /// The rows, `words` words apiece, by row number.
    bits: Vec<u64>,
}

impl ItemRows {
    /// The rows of those `items` of `vertical` that qualify; repeated
    /// items are built once.
    pub fn new(vertical: &VerticalDb, items: impl IntoIterator<Item = u32>) -> Self {
        let words = (vertical.m() as usize).div_ceil(64);
        let mut index = vec![NO_ROW; vertical.n_items() as usize];
        let mut bits = Vec::new();
        for item in items {
            let tids = vertical.tidlist(item);
            if index[item as usize] != NO_ROW || tids.len() < words.max(1) {
                continue;
            }
            let row = bits.len();
            index[item as usize] = (row / words) as u32;
            bits.resize(row + words, 0);
            for &t in tids {
                bits[row + t as usize / 64] |= 1 << (t % 64);
            }
        }
        ItemRows { words, index, bits }
    }

    /// The row of `item`, if it has one.
    pub fn row(&self, item: u32) -> Option<&[u64]> {
        match self.index[item as usize] {
            NO_ROW => None,
            r => Some(&self.bits[r as usize * self.words..][..self.words]),
        }
    }

    /// Bytes of the row buffer.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Counts prefix groups over one [`VerticalDb`] and its [`ItemRows`]:
/// one prefix fold per group, then one count per extension. One per
/// worker; its scratch row is clear between groups.
#[derive(Debug)]
pub struct GroupCounter<'a> {
    vertical: &'a VerticalDb,
    rows: &'a ItemRows,
    /// Scratch row of ⌈m/64⌉ words holding the current group's fold.
    fold: Vec<u64>,
    /// The current group's fold as tids, when it is merged from
    /// tidlists.
    tids: Vec<u32>,
    /// The AND + popcount kernel this CPU runs fastest.
    popcount: Popcount,
}

impl<'a> GroupCounter<'a> {
    /// A counter over `vertical` and rows built from it.
    pub fn new(vertical: &'a VerticalDb, rows: &'a ItemRows) -> Self {
        let words = (vertical.m() as usize).div_ceil(64);
        assert_eq!(words, rows.words, "rows built from another database");
        GroupCounter {
            vertical,
            rows,
            fold: vec![0; words],
            tids: Vec::new(),
            popcount: Popcount::detect(),
        }
    }

    /// Append to `out` the support of `prefix ∪ {e}` for each `e` of
    /// `extensions`. The fold of the (non-empty) prefix is the AND of
    /// its items' rows when every one has a row, and otherwise the sorted
    /// merge of their tidlists, set in the scratch row. An extension with
    /// a row is counted by AND + popcount over the fold's word span (its
    /// first to its last set bit) when that span is no longer than its
    /// tidlist; any other extension by testing each of its tids against
    /// the fold.
    pub fn count(&mut self, prefix: &[u32], extensions: &[u32], out: &mut Vec<u64>) {
        assert!(!prefix.is_empty(), "a prefix group needs a prefix");
        let rows = self.rows;
        let merged = prefix.iter().any(|&item| rows.row(item).is_none());
        let span = if merged {
            self.merge_fold(prefix)
        } else {
            self.and_fold(prefix)
        };
        let (fold, popcount) = (&self.fold, self.popcount);
        out.extend(extensions.iter().map(|&item| {
            let tids = self.vertical.tidlist(item);
            match rows.row(item) {
                Some(row) if span.len() <= tids.len() => {
                    popcount.and_count(&fold[span.clone()], &row[span.clone()])
                }
                _ => tids
                    .iter()
                    .map(|&t| fold[t as usize / 64] >> (t % 64) & 1)
                    .sum(),
            }
        }));
        if merged {
            for &t in &self.tids {
                self.fold[t as usize / 64] = 0;
            }
        } else {
            self.fold[span].fill(0);
        }
    }

    /// AND the rows of `prefix`, all of which have one, into the
    /// scratch row over the prefix's span, and return the fold's span.
    fn and_fold(&mut self, prefix: &[u32]) -> Range<usize> {
        let Range { mut start, mut end } = prefix_span(self.vertical, prefix);
        let row =
            |item: u32| &self.rows.row(item).expect("every prefix item has a row")[start..end];
        let fold = &mut self.fold[start..end];
        fold.copy_from_slice(row(prefix[0]));
        for &item in &prefix[1..] {
            for (f, r) in fold.iter_mut().zip(row(item)) {
                *f &= r;
            }
        }
        while start < end && self.fold[start] == 0 {
            start += 1;
        }
        while end > start && self.fold[end - 1] == 0 {
            end -= 1;
        }
        start..end
    }

    /// Merge the tidlists of `prefix` from its narrowest into the fold's
    /// tids, set them in the scratch row, and return the fold's span.
    fn merge_fold(&mut self, prefix: &[u32]) -> Range<usize> {
        let vertical = self.vertical;
        let narrowest = *prefix
            .iter()
            .min_by_key(|&&item| vertical.tidlist(item).len())
            .expect("a non-empty prefix");
        self.tids.clear();
        self.tids.extend_from_slice(vertical.tidlist(narrowest));
        for &item in prefix {
            if item != narrowest {
                retain_sorted(&mut self.tids, 0, vertical.tidlist(item).iter().copied());
            }
        }
        for &t in &self.tids {
            self.fold[t as usize / 64] |= 1 << (t % 64);
        }
        match (self.tids.first(), self.tids.last()) {
            (Some(&first), Some(&last)) => first as usize / 64..last as usize / 64 + 1,
            _ => 0..0,
        }
    }
}

/// The words a fold of `prefix` can have bits in: from its items'
/// latest first tid to their earliest last tid, over 64 (empty when
/// they cannot meet).
fn prefix_span(vertical: &VerticalDb, prefix: &[u32]) -> Range<usize> {
    let (mut start, mut end) = (0, usize::MAX);
    for &item in prefix {
        let tids = vertical.tidlist(item);
        let (Some(&first), Some(&last)) = (tids.first(), tids.last()) else {
            return 0..0;
        };
        start = start.max(first as usize / 64);
        end = end.min(last as usize / 64 + 1);
    }
    start..end.max(start)
}

/// An AND + popcount kernel over equal-length word slices, picked once
/// per [`GroupCounter`]: eight words per instruction where the CPU
/// counts bits in vectors (AVX-512 VPOPCNTDQ), one where it has
/// `popcnt`, and portable bit arithmetic otherwise.
#[derive(Debug, Clone, Copy)]
enum Popcount {
    Words,
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Popcount {
    /// The fastest kernel this CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                return Popcount::Avx512;
            }
            if is_x86_feature_detected!("popcnt") {
                return Popcount::Popcnt;
            }
        }
        Popcount::Words
    }

    /// The number of bits set in both `a` and `b`.
    fn and_count(self, a: &[u64], b: &[u64]) -> u64 {
        match self {
            Popcount::Words => and_popcount(a, b),
            // SAFETY: `detect` chose the kernel because the CPU
            // supports the features it enables.
            #[cfg(target_arch = "x86_64")]
            Popcount::Popcnt => unsafe { and_popcount_popcnt(a, b) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Popcount::Avx512 => unsafe { and_popcount_avx512(a, b) },
        }
    }
}

/// The number of bits set in both `a` and `b`, word by word, for the
/// compiler to vectorize with whatever features its caller enables.
#[inline(always)]
fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// # Safety
/// The CPU must support AVX-512F and AVX-512 VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn and_popcount_avx512(a: &[u64], b: &[u64]) -> u64 {
    and_popcount(a, b)
}

/// # Safety
/// The CPU must support `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn and_popcount_popcnt(a: &[u64], b: &[u64]) -> u64 {
    and_popcount(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::mine;
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
        // levels ≥ 3 count over the same exact rows (the head) and
        // tidlists (the tails: 8 tids, under a 13-word row), so both
        // report exactly the oracle's itemsets.
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

    /// The candidates of `candidates`, the join of the flat `lk` of
    /// `width` items apiece, as itemsets.
    fn expand(lk: &[u32], width: usize, candidates: &Candidates) -> Vec<Vec<u32>> {
        candidates
            .groups
            .iter()
            .flat_map(|g| {
                candidates.ext[g.start..g.end]
                    .iter()
                    .map(move |&e| [&lk[g.member * width..][..width], &[e]].concat())
            })
            .collect()
    }

    #[test]
    fn prefix_groups_are_runs() {
        // L3 {0,1,2} {0,1,5} {0,2,5} {1,2,5}: the join emits one group
        // per member with extensions, the runs tile `ext` in order, and
        // only {0,1,2} extends (by 5).
        let l3 = [0, 1, 2, 0, 1, 5, 0, 2, 5, 1, 2, 5];
        let candidates = join_classes(&l3, 3);
        assert_eq!(
            candidates.groups,
            vec![Group {
                member: 0,
                start: 0,
                end: 1
            }]
        );
        assert_eq!(candidates.ext, vec![5]);
        // L2 of the complete graph on 0..4: member {a,b} extends by
        // every c > b, one consecutive run per member.
        let l2: Vec<u32> = (0..4u32)
            .flat_map(|a| (a + 1..4).flat_map(move |b| [a, b]))
            .collect();
        let candidates = join_classes(&l2, 2);
        let shape: Vec<(usize, usize, usize)> = candidates
            .groups
            .iter()
            .map(|g| (g.member, g.start, g.end))
            .collect();
        assert_eq!(shape, vec![(0, 0, 2), (1, 2, 3), (3, 3, 4)]);
        assert_eq!(candidates.ext, vec![2, 3, 3, 3]);
    }

    #[test]
    fn join_prunes_candidates_with_a_missing_subset() {
        // L2 lacks {2,3}: {0,2,3} must be pruned, {0,1,2} and {0,1,3}
        // kept.
        let l2: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]];
        let flat = l2.concat();
        let joined = expand(&flat, 2, &join_classes(&flat, 2));
        assert_eq!(joined, vec![vec![0, 1, 2], vec![0, 1, 3]]);
        assert_eq!(joined, apriori::generate_candidates(&l2));
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
        let flat = l3.concat();
        let joined = expand(&flat, 3, &join_classes(&flat, 3));
        assert_eq!(joined, vec![vec![0, 1, 3, 4]]);
        assert_eq!(joined, apriori::generate_candidates(&l3));
        assert!(join_classes(&[], 3).is_empty());
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
            let flat = level.concat();
            proptest::prop_assert_eq!(
                expand(&flat, k - 1, &join_classes(&flat, k - 1)),
                apriori::generate_candidates(&level)
            );
        }
    }

    #[test]
    fn fold_counts_equal_the_horizontal_scan_and_leave_the_bitmap_clear() {
        let d = db();
        let vertical = VerticalDb::from_horizontal(&d);
        let l2: Vec<u32> = (0..12u32)
            .flat_map(|a| (a + 1..12).flat_map(move |b| [a, b]))
            .collect();
        let l3 = expand(&l2, 2, &join_classes(&l2, 2)).concat();
        // Every item of `db()` has a row (≥ 10 tids, m = 600): no rows,
        // the even items' and all of them cover the merged fold, the
        // mixed prefixes and the AND fold.
        let row_sets: [Vec<u32>; 3] = [vec![], (0..12).step_by(2).collect(), (0..12).collect()];
        for (lk, width) in [(&l3, 3), (&l2, 2)] {
            let candidates = join_classes(lk, width);
            let expect = apriori::count_candidates(&d, &expand(lk, width, &candidates));
            for items in &row_sets {
                let rows = ItemRows::new(&vertical, items.iter().copied());
                for threads in [Parallelism::Serial, Parallelism::threads(3)] {
                    let counted = count_level(lk, width, &candidates, &vertical, &rows, threads);
                    assert_eq!(counted, expect, "rows of {items:?}");
                }
                let mut counter = GroupCounter::new(&vertical, &rows);
                let mut supports = Vec::new();
                for g in &candidates.groups {
                    let prefix = &lk[g.member * width..][..width];
                    counter.count(prefix, &candidates.ext[g.start..g.end], &mut supports);
                    assert!(
                        counter.fold.iter().all(|&w| w == 0),
                        "scratch row left dirty"
                    );
                }
                assert_eq!(supports, expect, "rows of {items:?}");
            }
        }
    }

    #[test]
    fn rows_cost_at_most_twice_their_tidlists_and_the_scratch_row_stays_clear() {
        // m = 130 (three row words): item i is in every (i² + 1)-th
        // transaction from tid 4i, so supports run from 130 down to 1,
        // across the three-tid threshold of a row, and the rarer items'
        // tids start past the row's first word.
        let m = 130usize;
        let d = TransactionDb::new(
            12,
            (0..m)
                .map(|t| {
                    (0..12u32)
                        .filter(|&i| t >= 4 * i as usize && t % (i * i + 1) as usize == 0)
                        .collect()
                })
                .collect(),
        );
        let vertical = VerticalDb::from_horizontal(&d);
        let rows = ItemRows::new(&vertical, 0..12);
        let with_row: Vec<u32> = (0..12).filter(|&i| rows.row(i).is_some()).collect();
        assert!(
            !with_row.is_empty() && with_row.len() < 12,
            "rows {with_row:?}"
        );
        for item in 0..12u32 {
            let tids = vertical.tidlist(item);
            assert_eq!(rows.row(item).is_some(), tids.len() >= m.div_ceil(64));
            if let Some(row) = rows.row(item) {
                let set: Vec<u32> = (0..m as u32)
                    .filter(|&t| row[t as usize / 64] >> (t % 64) & 1 == 1)
                    .collect();
                assert_eq!(set, tids, "item {item}: the row is exact");
            }
        }
        let tidlist_bytes: usize = with_row
            .iter()
            .map(|&i| 4 * vertical.tidlist(i).len())
            .sum();
        assert!(
            rows.bytes() <= 2 * tidlist_bytes,
            "{} > 2 × {tidlist_bytes}",
            rows.bytes()
        );

        let l2: Vec<u32> = (0..12u32)
            .flat_map(|a| (a + 1..12).flat_map(move |b| [a, b]))
            .collect();
        let l3 = expand(&l2, 2, &join_classes(&l2, 2)).concat();
        let mut counter = GroupCounter::new(&vertical, &rows);
        for (lk, width) in [(&l2, 2), (&l3, 3)] {
            let candidates = join_classes(lk, width);
            let mut supports = Vec::new();
            for g in &candidates.groups {
                let prefix = &lk[g.member * width..][..width];
                counter.count(prefix, &candidates.ext[g.start..g.end], &mut supports);
                assert!(
                    counter.fold.iter().all(|&w| w == 0),
                    "scratch row left dirty"
                );
            }
            let expect = apriori::count_candidates(&d, &expand(lk, width, &candidates));
            assert_eq!(supports, expect);
        }
    }

    #[test]
    fn every_popcount_kernel_this_cpu_runs_counts_alike() {
        let mut kernels = vec![Popcount::Words];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("popcnt") {
                kernels.push(Popcount::Popcnt);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                kernels.push(Popcount::Avx512);
            }
        }
        let word = |i: u64| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32 % 64)
        };
        let (a, b): (Vec<u64>, Vec<u64>) = (0..37u64).map(|i| (word(i), word(i + 101))).unzip();
        // Every length from empty to past four 512-bit vectors, so
        // ragged tails are covered.
        for len in 0..=a.len() {
            let expect: u64 = (0..len)
                .map(|i| u64::from((a[i] & b[i]).count_ones()))
                .sum();
            for &kernel in &kernels {
                assert_eq!(
                    kernel.and_count(&a[..len], &b[..len]),
                    expect,
                    "{kernel:?}, {len} words"
                );
            }
        }
    }

    #[test]
    fn itemsets_come_out_sorted_by_size_then_items() {
        let d = db();
        for depth in 2..=5 {
            let miner = LevelwiseMiner::new(config(depth, 20));
            let full = miner.mine(&d);
            let pairs = &full.pair_report.as_ref().expect("mined level 2").pairs;
            let seeded = miner.mine_from_pairs(&d, pairs);
            for report in [&full, &seeded] {
                assert!(report.levels.iter().any(|l| l.k == depth && l.frequent > 0));
                assert!(
                    report
                        .itemsets
                        .windows(2)
                        .all(|w| (w[0].items.len(), &w[0].items) < (w[1].items.len(), &w[1].items)),
                    "depth {depth}: itemsets out of (size, items) order"
                );
            }
        }
    }
}
