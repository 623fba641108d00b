//! The vertical (tidlist) format.
//!
//! For each item `i`, the sorted list of transaction ids containing it —
//! the paper's `Sᵢ`. The support of `{i,j}` is `|Sᵢ ∩ Sⱼ|`; batmaps,
//! Eclat and the merge baselines all start from this view.

use crate::transactions::TransactionDb;
use hpcutil::MemoryFootprint;

/// A vertical-format database: one sorted tidlist per item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalDb {
    /// Number of transactions (tid domain size `m`).
    m: u32,
    /// Sorted tidlists, indexed by item.
    tidlists: Vec<Vec<u32>>,
}

impl VerticalDb {
    /// Convert a horizontal database: every item keeps its tidlist.
    /// The same as [`VerticalDb::from_frequent`] at `minsup = 1`.
    pub fn from_horizontal(db: &TransactionDb) -> Self {
        Self::from_frequent(db, 1)
    }

    /// Convert a horizontal database, keeping the tidlists of the items
    /// whose support reaches `minsup` only. Every other item gets an
    /// empty tidlist: no itemset that holds it can be frequent (the
    /// Apriori property), so a pair or level miner at this `minsup`
    /// never needs its transactions. `m` and the item count are those
    /// of `db` whatever `minsup` is, so item ids and the tid universe
    /// stay the ones the database defines.
    ///
    /// One pass counts the supports, so each kept tidlist is allocated
    /// once at its exact length; a second pass fills them. At
    /// `minsup ≤ 1` every item is kept.
    pub fn from_frequent(db: &TransactionDb, minsup: u64) -> Self {
        let minsup = minsup.max(1);
        let supports = db.item_supports();
        let mut tidlists: Vec<Vec<u32>> = supports
            .iter()
            .map(|&s| {
                if s >= minsup {
                    Vec::with_capacity(s as usize)
                } else {
                    Vec::new()
                }
            })
            .collect();
        for (tid, t) in db.transactions().iter().enumerate() {
            for &item in t {
                if supports[item as usize] >= minsup {
                    tidlists[item as usize].push(tid as u32);
                }
            }
        }
        // tids were visited in ascending order, so lists are sorted.
        VerticalDb {
            m: db.len() as u32,
            tidlists,
        }
    }

    /// Assemble directly from tidlists (each must be sorted, dedup'd,
    /// with tids `< m`).
    pub fn new(m: u32, tidlists: Vec<Vec<u32>>) -> Self {
        for (item, l) in tidlists.iter().enumerate() {
            debug_assert!(
                l.windows(2).all(|w| w[0] < w[1]),
                "tidlist of item {item} not strictly sorted"
            );
            if let Some(&last) = l.last() {
                assert!(last < m, "tid {last} out of range 0..{m}");
            }
        }
        VerticalDb { m, tidlists }
    }

    /// Transaction-domain size `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of items.
    pub fn n_items(&self) -> u32 {
        self.tidlists.len() as u32
    }

    /// The tidlist of `item`.
    pub fn tidlist(&self, item: u32) -> &[u32] {
        &self.tidlists[item as usize]
    }

    /// All tidlists.
    pub fn tidlists(&self) -> &[Vec<u32>] {
        &self.tidlists
    }

    /// Item support (tidlist length).
    pub fn support(&self, item: u32) -> u64 {
        self.tidlists[item as usize].len() as u64
    }

    /// Total occurrences (instance size).
    pub fn total_items(&self) -> usize {
        self.tidlists.iter().map(Vec::len).sum()
    }
}

impl MemoryFootprint for VerticalDb {
    fn heap_bytes(&self) -> usize {
        self.tidlists.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_from_horizontal() {
        let db = TransactionDb::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]]);
        let v = VerticalDb::from_horizontal(&db);
        assert_eq!(v.m(), 3);
        assert_eq!(v.tidlist(0), &[0, 2]);
        assert_eq!(v.tidlist(1), &[0, 1, 2]);
        assert_eq!(v.tidlist(2), &[1, 2]);
        assert_eq!(v.total_items(), db.total_items());
    }

    #[test]
    fn supports_match_horizontal() {
        let db = TransactionDb::new(4, vec![vec![0, 3], vec![3], vec![0]]);
        let v = VerticalDb::from_horizontal(&db);
        let h = db.item_supports();
        for i in 0..4u32 {
            assert_eq!(v.support(i), h[i as usize]);
        }
    }

    #[test]
    fn empty_item_has_empty_tidlist() {
        let db = TransactionDb::new(2, vec![vec![0]]);
        let v = VerticalDb::from_horizontal(&db);
        assert!(v.tidlist(1).is_empty());
    }

    /// Reference conversion: one push per occurrence into growing
    /// lists.
    fn reference(db: &TransactionDb) -> Vec<Vec<u32>> {
        let mut tidlists = vec![Vec::new(); db.n_items() as usize];
        for (tid, t) in db.transactions().iter().enumerate() {
            for &item in t {
                tidlists[item as usize].push(tid as u32);
            }
        }
        tidlists
    }

    fn skewed() -> TransactionDb {
        // Item i occurs in every transaction whose tid is a multiple of
        // i + 1, so supports fall from 24 (item 0) to 1 (item 23); item
        // 24 never occurs.
        let txns = (0..24u32)
            .map(|tid| (0..24u32).filter(|i| tid % (i + 1) == 0).collect())
            .collect();
        TransactionDb::new(25, txns)
    }

    #[test]
    fn from_frequent_keeps_exactly_the_items_at_minsup() {
        let db = skewed();
        let all = reference(&db);
        assert_eq!(VerticalDb::from_horizontal(&db).tidlists(), &all[..]);
        for minsup in [0, 1, 2, 3, 5, 8, 24, 25, 100] {
            let v = VerticalDb::from_frequent(&db, minsup);
            assert_eq!(v.m(), db.len() as u32, "minsup {minsup}");
            assert_eq!(v.n_items(), db.n_items(), "minsup {minsup}");
            for (item, full) in all.iter().enumerate() {
                let kept = v.tidlist(item as u32);
                if (full.len() as u64) >= minsup.max(1) {
                    assert_eq!(kept, &full[..], "minsup {minsup}, item {item}");
                    assert_eq!(
                        v.tidlists()[item].capacity(),
                        kept.len(),
                        "minsup {minsup}, item {item}: allocated at its support"
                    );
                } else {
                    assert!(kept.is_empty(), "minsup {minsup}, item {item}");
                    assert_eq!(v.tidlists()[item].capacity(), 0);
                }
            }
        }
        assert_eq!(
            VerticalDb::from_frequent(&db, 0),
            VerticalDb::from_frequent(&db, 1)
        );
    }

    #[test]
    #[should_panic]
    fn tid_out_of_range_rejected() {
        let _ = VerticalDb::new(2, vec![vec![2]]);
    }
}
