//! Failed-insertion postprocessing (§III-C, "Failed insertions").
//!
//! When insertion of tid `b` into item `i`'s batmap fails, the batmap
//! comparison under-counts every pair `{i, c}` with `c` co-occurring in
//! transaction `b`. The paper's fix: let `F_b` be the items whose
//! insertion of `b` failed and `A_b` all items of transaction `b`; for
//! every `a ∈ F_b, c ∈ A_b` form the pair `(min, max)` and store it in a
//! set `M_{p,q}` keyed by the tile that owns the pair; when `Z_{p,q}`
//! returns from the GPU, extend it with `M_{p,q}`'s pairs.
//!
//! Each `M_{p,q}` is a run of one `Vec`, sorted by `(sᵢ, sⱼ)` — the
//! row-major order a tile is walked in — so a row band of the tile
//! finds its own pairs with a binary search ([`FailedPairs::for_band`])
//! and the harvest merges them by position, with no lookup per count.
//!
//! Pairs are keyed by *plan index*, the index space of the tile plan
//! ([`TilePlan`]). A pair that touches a set the plan leaves out — an
//! item below `minsup` — is dropped: no pair through it can be
//! reported.

use crate::executor::TilePlan;
use crate::preprocess::Preprocessed;
use crate::schedule::Tile;
use fim::TransactionDb;

/// One missing pair: `((sᵢ, sⱼ), missing count)`, `sᵢ < sⱼ` plan
/// indices.
pub type MissingPair = ((u32, u32), u64);

/// Missing pair counts, bucketed per tile `(p, q)` in plan-index space.
#[derive(Debug, Clone, Default)]
pub struct FailedPairs {
    /// Tile side the pairs are bucketed by.
    k: usize,
    /// Every missing pair, sorted by owning tile `(sᵢ / k, sⱼ / k)`,
    /// then by `(sᵢ, sⱼ)`.
    pairs: Vec<MissingPair>,
    /// Total missing pair-occurrences between planned sets (for
    /// reporting).
    total: u64,
}

impl FailedPairs {
    /// Build from the preprocessing failure list, for the identity plan
    /// (plan index = sorted index; [`TilePlan::new`]).
    ///
    /// * `failed` — `(sorted item index, tid)` pairs from preprocessing.
    /// * `db` — the horizontal database (`A_b` comes from here).
    /// * `item_to_sorted` — original item id → sorted index.
    /// * `k` — tile side, for bucketing.
    pub fn build(
        failed: &[(u32, u32)],
        db: &TransactionDb,
        item_to_sorted: &[u32],
        k: usize,
    ) -> Self {
        Self::build_mapped(failed, db, item_to_sorted, k, Some)
    }

    /// Build for `plan` over `pre`'s failure list: pairs are keyed and
    /// bucketed by plan index, and a pair that touches a set outside
    /// the plan is dropped (an unplanned set is below `minsup`, so
    /// every pair through it is too).
    pub fn for_plan(pre: &Preprocessed, db: &TransactionDb, plan: &TilePlan) -> Self {
        let mut to_plan = vec![None; pre.padded_items()];
        for (i, &s) in plan.sets().iter().enumerate() {
            to_plan[s as usize] = Some(i as u32);
        }
        Self::build_mapped(&pre.failed, db, &pre.item_to_sorted, plan.k(), |s| {
            to_plan[s as usize]
        })
    }

    /// The §III-C construction, with `plan_of` mapping a sorted index
    /// to its plan index (`None`: the set is not planned).
    fn build_mapped(
        failed: &[(u32, u32)],
        db: &TransactionDb,
        item_to_sorted: &[u32],
        k: usize,
        plan_of: impl Fn(u32) -> Option<u32>,
    ) -> Self {
        let mut by_tid: Vec<(u32, u32)> = failed
            .iter()
            .filter_map(|&(s, tid)| Some((tid, plan_of(s)?)))
            .collect();
        by_tid.sort_unstable();
        let mut occurrences: Vec<(u32, u32)> = Vec::new();
        let mut pairs_of_b: Vec<(u32, u32)> = Vec::new();
        for f_b in by_tid.chunk_by(|x, y| x.0 == y.0) {
            let a_b = &db.transactions()[f_b[0].0 as usize];
            pairs_of_b.clear();
            for &(_, a) in f_b {
                for &item in a_b {
                    let Some(c) = plan_of(item_to_sorted[item as usize]) else {
                        continue;
                    };
                    if a != c {
                        pairs_of_b.push((a.min(c), a.max(c)));
                    }
                }
            }
            // Set semantics per transaction: if both endpoints failed,
            // the pair appears from both sides of F_b × A_b — count it
            // once ("store each pair in a set").
            pairs_of_b.sort_unstable();
            pairs_of_b.dedup();
            occurrences.extend_from_slice(&pairs_of_b);
        }
        let tile_of = |si: u32, sj: u32| (si as usize / k, sj as usize / k);
        occurrences.sort_unstable_by_key(|&(si, sj)| (tile_of(si, sj), si, sj));
        FailedPairs {
            k,
            pairs: occurrences
                .chunk_by(|x, y| x == y)
                .map(|run| (run[0], run.len() as u64))
                .collect(),
            total: occurrences.len() as u64,
        }
    }

    /// Missing counts owned by one tile, or by one row band of it:
    /// the pairs whose `sᵢ` lies in the band's rows, sorted by
    /// `(sᵢ, sⱼ)` (empty when the band is clean — the common case).
    pub fn for_band(&self, band: &Tile) -> &[MissingPair] {
        let k = self.k;
        let tile = (band.p as usize, band.q as usize);
        let before = |row: usize| {
            move |&((si, sj), _): &MissingPair| {
                ((si as usize / k, sj as usize / k), si as usize) < (tile, row)
            }
        };
        let lo = self.pairs.partition_point(before(band.row_base));
        let hi = self
            .pairs
            .partition_point(before(band.row_base + band.rows));
        &self.pairs[lo..hi]
    }

    /// Total missing pair-occurrences across all tiles (pairs between
    /// planned sets only).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no insertion failed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        TransactionDb::new(4, vec![vec![0, 1, 2], vec![1, 2, 3], vec![0, 3]])
    }

    /// Tile `(p, q)` of side 16.
    fn tile(p: u32, q: u32) -> Tile {
        Tile {
            p,
            q,
            row_base: p as usize * 16,
            col_base: q as usize * 16,
            rows: 16,
            cols: 16,
        }
    }

    #[test]
    fn empty_failures_empty_pairs() {
        let f = FailedPairs::build(&[], &db(), &[0, 1, 2, 3], 16);
        assert!(f.is_empty());
        assert_eq!(f.total(), 0);
        assert!(f.for_band(&tile(0, 0)).is_empty());
    }

    #[test]
    fn single_failure_produces_cooccurrence_pairs() {
        // Identity sorted order; item 1 failed to store tid 0.
        // A_0 = {0,1,2} → pairs (0,1) and (1,2), each missing once.
        let f = FailedPairs::build(&[(1, 0)], &db(), &[0, 1, 2, 3], 16);
        assert_eq!(f.total(), 2);
        assert_eq!(f.for_band(&tile(0, 0)), [((0, 1), 1), ((1, 2), 1)]);
    }

    #[test]
    fn double_failure_counted_once_per_transaction() {
        // Both items 1 and 2 failed tid 0: pair (1,2) must appear once,
        // not twice (the paper's min/max set trick); (0,1), (0,2) are
        // also missing once each.
        let f = FailedPairs::build(&[(1, 0), (2, 0)], &db(), &[0, 1, 2, 3], 16);
        assert_eq!(
            f.for_band(&tile(0, 0)),
            [((0, 1), 1), ((0, 2), 1), ((1, 2), 1)]
        );
    }

    #[test]
    fn same_pair_from_two_transactions_accumulates() {
        // Item 1 failed tids 0 and 1; both transactions contain item 2.
        let f = FailedPairs::build(&[(1, 0), (1, 1)], &db(), &[0, 1, 2, 3], 16);
        assert!(f.for_band(&tile(0, 0)).contains(&((1, 2), 2)));
    }

    #[test]
    fn pairs_bucket_into_the_owning_tile() {
        // Sorted space reshuffled: item 0→17, 1→1, 2→2, 3→3 with k=16:
        // pair (1,17) lands in tile (0,1).
        let f = FailedPairs::build(&[(1, 0)], &db(), &[17, 1, 2, 3], 16);
        assert_eq!(f.for_band(&tile(0, 1)), [((1, 17), 1)]);
        assert_eq!(f.for_band(&tile(0, 0)), [((1, 2), 1)]);
        assert!(f.for_band(&tile(1, 1)).is_empty());
    }

    #[test]
    fn bands_split_a_tiles_pairs_by_row() {
        // Item 1 failed tids 0 and 1; item 2 failed tid 1:
        // (0,1) (1,2) from tid 0, (1,2) (1,3) (2,3) from tid 1.
        let f = FailedPairs::build(&[(1, 0), (1, 1), (2, 1)], &db(), &[0, 1, 2, 3], 16);
        let whole = f.for_band(&tile(0, 0));
        assert_eq!(whole, [((0, 1), 1), ((1, 2), 2), ((1, 3), 1), ((2, 3), 1)]);
        let band = |row_base, rows| Tile {
            row_base,
            rows,
            ..tile(0, 0)
        };
        assert_eq!(f.for_band(&band(0, 1)), [((0, 1), 1)]);
        assert_eq!(f.for_band(&band(1, 1)), [((1, 2), 2), ((1, 3), 1)]);
        assert_eq!(f.for_band(&band(2, 14)), [((2, 3), 1)]);
        let mut rejoined = Vec::new();
        for b in tile(0, 0).bands(3) {
            rejoined.extend_from_slice(f.for_band(&b));
        }
        assert_eq!(rejoined, whole, "bands partition the tile's pairs");
    }
}
