//! Apriori (Agrawal & Srikant \[1\]; Borgelt's engineering \[5\], \[6\]).
//!
//! Two entry points:
//!
//! * [`mine_pairs`] — the pair specialization the paper benchmarks
//!   against: after the L1 prune, candidate pairs are *all* pairs of
//!   frequent items, counted in a packed triangular `u32` array. This is
//!   the structure whose `Θ(n²)` memory produces the Fig. 5 blow-up and
//!   the "memory trashing" failures beyond n = 64,000.
//! * [`mine`] — the general levelwise miner (candidate generation by
//!   prefix join + subset pruning, hash-map counting), used by the
//!   larger-itemset extension experiments.
//!
//! [`pair_bytes_required`] predicts the triangular array's size so the
//! Fig. 5 harness can account memory without allocating 8 GiB, and
//! [`mine_pairs_capped`] refuses (like the paper's 6 GB machine) when
//! the prediction exceeds a budget.

use crate::pairs::{tri_index, tri_len, PairMap};
use crate::transactions::TransactionDb;
use hpcutil::{FxHashMap, MemoryFootprint};

/// Bytes of counter memory the pair miner needs for `n` frequent items.
pub fn pair_bytes_required(n: u32) -> usize {
    tri_len(n) * std::mem::size_of::<u32>()
}

/// Error returned when the pair-count array would not fit the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the miner asked for.
    pub required: usize,
    /// The budget it was given.
    pub budget: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "apriori pair array needs {} bytes, budget is {}",
            self.required, self.budget
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Frequent-pair mining with the triangular counting array.
///
/// `db` is assumed already L1-pruned (every item frequent) — the paper's
/// evaluation setting ("the interesting comparison is for the case where
/// there are only frequent items"). Pass the raw database through
/// [`TransactionDb::prune_infrequent`] first otherwise.
pub fn mine_pairs(db: &TransactionDb, minsup: u64) -> PairMap {
    mine_pairs_capped(db, minsup, usize::MAX).expect("uncapped")
}

/// [`mine_pairs`] with a memory budget for the counting array.
pub fn mine_pairs_capped(
    db: &TransactionDb,
    minsup: u64,
    budget_bytes: usize,
) -> Result<PairMap, OutOfMemory> {
    let n = db.n_items();
    let required = pair_bytes_required(n);
    if required > budget_bytes {
        return Err(OutOfMemory {
            required,
            budget: budget_bytes,
        });
    }
    let mut counts = vec![0u32; tri_len(n)];
    for t in db.transactions() {
        for (a, &i) in t.iter().enumerate() {
            // Row base for item i, hoisted out of the inner loop.
            for &j in &t[a + 1..] {
                counts[tri_index(i, j, n)] += 1;
            }
        }
    }
    let mut out = PairMap::default();
    for i in 0..n {
        for j in (i + 1)..n {
            let c = counts[tri_index(i, j, n)] as u64;
            if c >= minsup && c > 0 {
                out.insert((i, j), c);
            }
        }
    }
    Ok(out)
}

/// A frequent itemset with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Itemset {
    /// Sorted item ids.
    pub items: Vec<u32>,
    /// Number of transactions containing all of them.
    pub support: u64,
}

/// General levelwise Apriori: returns all frequent itemsets of size
/// `2..=max_len` (size-1 sets are the item supports; callers have them).
pub fn mine(db: &TransactionDb, minsup: u64, max_len: usize) -> Vec<Itemset> {
    let mut results = Vec::new();
    if max_len < 2 {
        return results;
    }
    // L2 via the triangular counter.
    let l2 = mine_pairs(db, minsup);
    let mut current: Vec<Vec<u32>> = l2.keys().map(|&(i, j)| vec![i, j]).collect();
    current.sort_unstable();
    for (&(i, j), &s) in &l2 {
        results.push(Itemset {
            items: vec![i, j],
            support: s,
        });
    }
    let mut k = 2usize;
    while !current.is_empty() && k < max_len {
        let candidates = generate_candidates(&current);
        if candidates.is_empty() {
            break;
        }
        let counts = count_candidates(db, &candidates);
        let mut next = Vec::new();
        for (cand, count) in candidates.into_iter().zip(counts) {
            if count >= minsup {
                results.push(Itemset {
                    items: cand.clone(),
                    support: count,
                });
                next.push(cand);
            }
        }
        next.sort_unstable();
        current = next;
        k += 1;
    }
    results.sort_unstable_by(|a, b| a.items.cmp(&b.items));
    results
}

/// Candidate generation — the Apriori join: combine `L_k` itemsets
/// sharing a (k−1)-prefix, then prune candidates with an infrequent
/// k-subset. `lk` must be sorted (lexicographically, items ascending
/// within each set); the output is sorted the same way, and candidates
/// sharing a (k−1)-prefix are consecutive.
///
/// Public as the oracle of `pairminer`'s levelwise engine: its
/// prefix-class join is tested to produce exactly this output, item for
/// item and in order, and the `level.fold` perf gate times the engine
/// against this join plus [`count_candidates`].
pub fn generate_candidates(lk: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for (a, x) in lk.iter().enumerate() {
        for y in &lk[a + 1..] {
            let k = x.len();
            if x[..k - 1] != y[..k - 1] {
                break; // sorted order: the shared-prefix run has ended
            }
            let mut cand = x.clone();
            cand.push(y[k - 1]);
            // Subset pruning: every k-subset must be in L_k.
            let all_frequent = (0..cand.len() - 2).all(|drop| {
                let mut sub: Vec<u32> = cand.clone();
                sub.remove(drop);
                lk.binary_search(&sub).is_ok()
            });
            if all_frequent {
                out.push(cand);
            }
        }
    }
    out
}

/// Count candidate supports with one pass over the database, indexing
/// candidates by their first item to avoid the full subset test per
/// transaction. Public as the exact horizontal-scan oracle the
/// positional-count engines are property-tested against.
pub fn count_candidates(db: &TransactionDb, candidates: &[Vec<u32>]) -> Vec<u64> {
    let mut by_first: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (idx, c) in candidates.iter().enumerate() {
        by_first.entry(c[0]).or_default().push(idx);
    }
    let mut counts = vec![0u64; candidates.len()];
    for t in db.transactions() {
        for &first in t {
            if let Some(idxs) = by_first.get(&first) {
                for &ci in idxs {
                    if is_subset(&candidates[ci], t) {
                        counts[ci] += 1;
                    }
                }
            }
        }
    }
    counts
}

/// `needle ⊆ haystack`, both sorted.
fn is_subset(needle: &[u32], haystack: &[u32]) -> bool {
    let mut it = haystack.iter();
    'outer: for &x in needle {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Live memory accounting wrapper for the Fig. 5 harness: the peak heap
/// of the pair miner (counter array dominates).
pub fn pair_peak_bytes(db: &TransactionDb) -> usize {
    pair_bytes_required(db.n_items()) + db.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::brute_force_pairs;

    fn db() -> TransactionDb {
        TransactionDb::new(
            4,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 3],
            ],
        )
    }

    #[test]
    fn pairs_match_brute_force() {
        let d = db();
        for minsup in [1, 2, 3] {
            assert_eq!(mine_pairs(&d, minsup), brute_force_pairs(&d, minsup));
        }
    }

    #[test]
    fn capped_refuses_large_n() {
        let d = TransactionDb::new(100_000, vec![vec![0, 1]]);
        let err = mine_pairs_capped(&d, 1, 1 << 20).unwrap_err();
        assert!(err.required > err.budget);
        // The paper's setting: 64k items ≈ 8 GiB of u32 counters,
        // exceeding the 6 GB machine.
        assert!(pair_bytes_required(64_000) > 6_000_000_000);
        assert!(pair_bytes_required(32_000) < 6_000_000_000);
    }

    #[test]
    fn general_miner_finds_triples() {
        let d = db();
        let sets = mine(&d, 2, 3);
        let triple = sets
            .iter()
            .find(|s| s.items == vec![0, 1, 3])
            .expect("triple {0,1,3} should be frequent");
        assert_eq!(triple.support, 2);
        // All pairs from the L2 level are included.
        assert!(sets.iter().any(|s| s.items == vec![0, 1] && s.support == 3));
    }

    #[test]
    fn general_miner_agrees_with_pairs_at_level_2() {
        let d = db();
        let sets = mine(&d, 2, 2);
        let pairs = mine_pairs(&d, 2);
        assert_eq!(sets.len(), pairs.len());
        for s in sets {
            assert_eq!(pairs[&(s.items[0], s.items[1])], s.support);
        }
    }

    #[test]
    fn is_subset_cases() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let d = TransactionDb::new(3, vec![]);
        assert!(mine_pairs(&d, 1).is_empty());
        assert!(mine(&d, 1, 4).is_empty());
    }
}
