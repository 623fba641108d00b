//! Mutable delta sets layered over an immutable corpus.
//!
//! The paper's corpora are built once ([`crate::arena::BatmapArena`])
//! and never change; a serving system needs a write path. This module
//! provides the storage half of that path: a [`DeltaSet`] records the
//! *difference* between a set's live contents and its immutable base
//! payload — elements added since the snapshot and base elements
//! removed since the snapshot — and a [`DeltaRegion`] holds one
//! optional delta per corpus position, allocated lazily so an untouched
//! corpus costs one pointer per set.
//!
//! Both halves of a delta are strictly ascending `Vec<u32>` tidlists.
//! A delta is never swept — it is probed element by element and
//! iterated by [`exact_pair_count`] — so the batmap layout's positional
//! sweep buys it nothing, and a sorted buffer answers membership by
//! binary search and iterates in place. A caller bounds a delta's size
//! by compacting base and delta into a fresh corpus, which empties the
//! region.
//!
//! ## Invariants
//!
//! For a base set `B` (stored payload ∪ failed insertions) with delta
//! adds `D` and removes `R`, the caller maintains:
//!
//! * `D ∩ B = ∅` — an add is always a genuinely new element;
//! * `R ⊆ B` — a remove always names a base element
//!
//! (re-adding a removed base element *shrinks `R`* instead of growing
//! `D`, and removing a delta add shrinks `D` instead of growing `R` —
//! [`DeltaRegion::apply_add`] / [`DeltaRegion::apply_remove`] encode
//! exactly this). The live set is then `M = (B \ R) ∪ D`, with
//! `|M| = |B| − |R| + |D|` and membership decided by one delta probe
//! before falling back to the base.
//!
//! ## Exact pair counts
//!
//! [`exact_pair_count`] turns a stored×stored sweep count into the exact
//! live count. A cuckoo insertion that fails after `MaxLoop` leaves its
//! element out of the batmap, so a base set is `B = A' ⊎ F` (stored ⊎
//! failed) while the sweeps see only `A'` (§III-C). From
//! `raw = |A'_a ∩ A'_b|`, failure terms first, then inclusion–exclusion
//! over the deltas:
//!
//! ```text
//! |B_a ∩ B_b| = raw + |F_a ∩ A'_b| + |A'_a ∩ F_b| + |F_a ∩ F_b|
//! |M_a ∩ M_b| = |B_a ∩ B_b| − |B_a ∩ R_b| + |B_a ∩ D_b|
//!                   − Σ_{x∈R_a} [x ∈ M_b] + Σ_{x∈D_a} [x ∈ M_b]
//! ```
//!
//! Every sum iterates a failure list or a delta and probes the other
//! side in O(1)-ish (batmap/bitmap probe or binary search), so the
//! correction costs O(|failures| + |deltas|), not O(|sets|).

/// The mutable difference between one set's live contents and its
/// immutable base payload. See the module docs for the invariants the
/// caller maintains.
#[derive(Debug, Clone, Default)]
pub struct DeltaSet {
    /// Elements added since the snapshot, strictly ascending.
    adds: Vec<u32>,
    /// Base elements removed since the snapshot, strictly ascending.
    removes: Vec<u32>,
}

impl DeltaSet {
    /// Number of added elements.
    pub fn adds_len(&self) -> usize {
        self.adds.len()
    }

    /// Number of removed base elements.
    pub fn removes_len(&self) -> usize {
        self.removes.len()
    }

    /// True when this delta records no difference at all.
    pub fn is_noop(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// Is `x` among the added elements?
    pub fn adds_contain(&self, x: u32) -> bool {
        self.adds.binary_search(&x).is_ok()
    }

    /// Is `x` among the removed base elements?
    pub fn removes_contain(&self, x: u32) -> bool {
        self.removes.binary_search(&x).is_ok()
    }

    /// The added elements, ascending.
    pub fn adds(&self) -> &[u32] {
        &self.adds
    }

    /// The removed base elements, ascending.
    pub fn removes_elements(&self) -> &[u32] {
        &self.removes
    }
}

/// Insert `x` into the ascending `list`; returns whether it was new.
fn insert_sorted(list: &mut Vec<u32>, x: u32) -> bool {
    let Err(at) = list.binary_search(&x) else {
        return false;
    };
    list.insert(at, x);
    true
}

/// Remove `x` from the ascending `list`; returns whether it was present.
fn remove_sorted(list: &mut Vec<u32>, x: u32) -> bool {
    let Ok(at) = list.binary_search(&x) else {
        return false;
    };
    list.remove(at);
    true
}

/// One optional [`DeltaSet`] per corpus position, allocated on first
/// touch. Indexed by whatever position space the caller uses for its
/// base corpus (the ingest layer uses sorted positions).
#[derive(Debug, Clone)]
pub struct DeltaRegion {
    sets: Vec<Option<Box<DeltaSet>>>,
    /// Total `adds + removes` across all sets: the number of membership
    /// differences from the base snapshot.
    memberships: u64,
}

impl DeltaRegion {
    /// An empty region over `n` positions.
    pub fn new(n: usize) -> Self {
        DeltaRegion {
            sets: vec![None; n],
            memberships: 0,
        }
    }

    /// Positions covered (the base corpus' real set count).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no position has any recorded difference.
    pub fn is_empty(&self) -> bool {
        self.memberships == 0
    }

    /// Total membership differences (`adds + removes`) from the base.
    pub fn memberships(&self) -> u64 {
        self.memberships
    }

    /// The delta at position `s`, if one was ever touched.
    pub fn get(&self, s: usize) -> Option<&DeltaSet> {
        self.sets[s].as_deref()
    }

    /// Drop every recorded difference (after a compaction folded them
    /// into a fresh base).
    pub fn clear(&mut self) {
        for slot in &mut self.sets {
            *slot = None;
        }
        self.memberships = 0;
    }

    /// Record "the live set at `s` gains `x`". `in_base` says whether
    /// the base set contains `x` (stored ∪ failed): a re-add of a
    /// removed base element shrinks the remove list; a genuinely new
    /// element grows the add store.
    ///
    /// # Panics
    /// Panics if the add is not a real membership change — `in_base`
    /// without a recorded remove, or a duplicate add — because the
    /// caller (which owns the live-membership ground truth) should have
    /// rejected it.
    pub fn apply_add(&mut self, s: usize, x: u32, in_base: bool) {
        let set = self.sets[s].get_or_insert_with(Default::default);
        let changed = if in_base {
            remove_sorted(&mut set.removes, x)
        } else {
            insert_sorted(&mut set.adds, x)
        };
        assert!(changed, "add of {x} at position {s} is not a change");
        if set.is_noop() {
            self.sets[s] = None;
        }
        self.memberships = if in_base {
            self.memberships - 1
        } else {
            self.memberships + 1
        };
    }

    /// Record "the live set at `s` loses `x`". Removing a delta add
    /// shrinks the add store; removing a base element grows the remove
    /// list.
    ///
    /// # Panics
    /// Panics if the remove is not a real membership change (see
    /// [`DeltaRegion::apply_add`]).
    pub fn apply_remove(&mut self, s: usize, x: u32, in_base: bool) {
        let set = self.sets[s].get_or_insert_with(Default::default);
        let (changed, grew) = if remove_sorted(&mut set.adds, x) {
            (true, false)
        } else {
            assert!(in_base, "remove of {x} at position {s} is not a change");
            (insert_sorted(&mut set.removes, x), true)
        };
        assert!(changed, "remove of {x} at position {s} is not a change");
        if set.is_noop() {
            self.sets[s] = None;
        }
        self.memberships = if grew {
            self.memberships + 1
        } else {
            self.memberships - 1
        };
    }

    /// The delta's verdict on `x ∈ live set at s`: `Some(true)` for a
    /// recorded add, `Some(false)` for a recorded remove, `None` when
    /// the base decides.
    pub fn member_delta(&self, s: usize, x: u32) -> Option<bool> {
        let set = self.get(s)?;
        if set.adds_contain(x) {
            Some(true)
        } else if set.removes_contain(x) {
            Some(false)
        } else {
            None
        }
    }

    /// `|live set| − |base set|` at position `s`.
    pub fn count_delta(&self, s: usize) -> i64 {
        self.get(s)
            .map_or(0, |d| d.adds_len() as i64 - d.removes_len() as i64)
    }
}

/// One operand of [`exact_pair_count`]: a base set `B = A' ⊎ F`
/// (stored ⊎ failed) and the live delta over it.
pub struct PairSide<'a, S> {
    /// Membership in the stored payload `A'`.
    pub stored: S,
    /// The failed insertions `F`, disjoint from `A'`: one set's run of a
    /// failure list of `(set, element)` entries sorted by both.
    pub failed: &'a [(u32, u32)],
    /// The live delta over `B`, if any.
    pub delta: Option<&'a DeltaSet>,
}

impl<S: Fn(u32) -> bool> PairSide<'_, S> {
    /// Base membership: `x ∈ A' ⊎ F`.
    pub fn in_base(&self, x: u32) -> bool {
        (self.stored)(x) || self.failed.binary_search_by_key(&x, |&(_, e)| e).is_ok()
    }

    /// Live membership: `x ∈ M = (B \ R) ∪ D`, the delta decides first.
    fn in_live(&self, x: u32) -> bool {
        match self.delta {
            Some(d) if d.adds_contain(x) => true,
            Some(d) if d.removes_contain(x) => false,
            _ => self.in_base(x),
        }
    }
}

/// Exact live pair count `|M_a ∩ M_b|` from the raw stored×stored count
/// `raw = |A'_a ∩ A'_b|` (see the module docs for the derivation). The
/// two sides may describe the same set: the terms then add up to `|M|`.
pub fn exact_pair_count<A, B>(raw: u64, a: &PairSide<'_, A>, b: &PairSide<'_, B>) -> u64
where
    A: Fn(u32) -> bool,
    B: Fn(u32) -> bool,
{
    fn hits(xs: impl Iterator<Item = u32>, f: impl Fn(u32) -> bool) -> i64 {
        xs.filter(|&x| f(x)).count() as i64
    }
    // |F_a ∩ (A'_b ⊎ F_b)| + |A'_a ∩ F_b|
    let mut total = raw as i64
        + hits(a.failed.iter().map(|f| f.1), |x| b.in_base(x))
        + hits(b.failed.iter().map(|f| f.1), &a.stored);
    if let Some(d) = b.delta {
        total += hits(d.adds().iter().copied(), |x| a.in_base(x));
        total -= hits(d.removes_elements().iter().copied(), |x| a.in_base(x));
    }
    if let Some(d) = a.delta {
        total += hits(d.adds().iter().copied(), |x| b.in_live(x));
        total -= hits(d.removes_elements().iter().copied(), |x| b.in_live(x));
    }
    debug_assert!(total >= 0, "pair correction went negative");
    total.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Model of one layered set: base and live contents as BTreeSets.
    struct Model {
        base: BTreeSet<u32>,
        live: BTreeSet<u32>,
    }

    impl Model {
        fn new(base: &[u32]) -> Model {
            let base: BTreeSet<u32> = base.iter().copied().collect();
            Model {
                live: base.clone(),
                base,
            }
        }

        fn add(&mut self, region: &mut DeltaRegion, s: usize, x: u32) {
            if self.live.insert(x) {
                region.apply_add(s, x, self.base.contains(&x));
            }
        }

        fn remove(&mut self, region: &mut DeltaRegion, s: usize, x: u32) {
            if self.live.remove(&x) {
                region.apply_remove(s, x, self.base.contains(&x));
            }
        }
    }

    #[test]
    fn membership_and_counts_track_the_model() {
        let mut region = DeltaRegion::new(1);
        let base: Vec<u32> = (0..200).map(|i| i * 13).collect();
        let mut model = Model::new(&base);
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let x = (next() % 10_000) as u32;
            if next() % 3 == 0 {
                model.remove(&mut region, 0, x);
            } else {
                model.add(&mut region, 0, x);
            }
        }
        let count = model.base.len() as i64 + region.count_delta(0);
        assert_eq!(count, model.live.len() as i64);
        for x in 0..10_000u32 {
            let member = region
                .member_delta(0, x)
                .unwrap_or_else(|| model.base.contains(&x));
            assert_eq!(member, model.live.contains(&x), "element {x}");
        }
        let memberships = region.memberships();
        let diff = model.live.symmetric_difference(&model.base).count() as u64;
        assert_eq!(memberships, diff);
    }

    /// Deltas far past the hybrid policy's 12-element tidlist threshold
    /// stay one ascending buffer and keep every answer exact: 4,000 adds
    /// and 2,000 removes at one position, a few hundred writes at a
    /// second, over bases with failed insertions on both sides.
    #[test]
    fn large_deltas_stay_sorted_and_exact() {
        const M: u32 = 100_000;
        let mut region = DeltaRegion::new(2);
        let base_a: Vec<u32> = (0..M).step_by(50).collect();
        let base_b: Vec<u32> = (0..M).step_by(70).collect();
        let mut ma = Model::new(&base_a);
        let mut mb = Model::new(&base_b);
        for x in (0..4000u32).map(|i| (i * 37) % M) {
            ma.add(&mut region, 0, x);
        }
        for x in (0..2000u32).map(|i| (i * 37) % M) {
            ma.remove(&mut region, 0, x);
        }
        for i in 0..300u32 {
            mb.add(&mut region, 1, (i * 53 + 11) % M);
            mb.remove(&mut region, 1, base_b[i as usize * 3]);
        }
        for (s, model) in [(0, &ma), (1, &mb)] {
            let delta = region.get(s).expect("delta exists");
            let adds: Vec<u32> = model.live.difference(&model.base).copied().collect();
            let removes: Vec<u32> = model.base.difference(&model.live).copied().collect();
            assert!(
                delta.adds_len() > 12,
                "position {s} must carry a large delta"
            );
            assert!(delta.adds().windows(2).all(|w| w[0] < w[1]));
            assert_eq!(delta.adds(), adds, "position {s}");
            assert_eq!(delta.removes_elements(), removes, "position {s}");
            let count = model.base.len() as i64 + region.count_delta(s);
            assert_eq!(count, model.live.len() as i64, "position {s}");
            for x in 0..M {
                let member = region
                    .member_delta(s, x)
                    .unwrap_or_else(|| model.base.contains(&x));
                assert_eq!(member, model.live.contains(&x), "position {s}, element {x}");
            }
        }
        // Every seventh base element failed insertion.
        let split = |base: &[u32], set: u32| -> (BTreeSet<u32>, Vec<(u32, u32)>) {
            let (failed, stored): (Vec<u32>, Vec<u32>) = base.iter().partition(|&&x| x % 7 == 0);
            let failed = failed.into_iter().map(|x| (set, x)).collect();
            (stored.into_iter().collect(), failed)
        };
        let (stored_a, failed_a) = split(&base_a, 0);
        let (stored_b, failed_b) = split(&base_b, 1);
        let side_a = PairSide {
            stored: |x| stored_a.contains(&x),
            failed: &failed_a,
            delta: region.get(0),
        };
        let side_b = PairSide {
            stored: |x| stored_b.contains(&x),
            failed: &failed_b,
            delta: region.get(1),
        };
        let raw = stored_a.intersection(&stored_b).count() as u64;
        let expect = ma.live.intersection(&mb.live).count() as u64;
        assert_eq!(exact_pair_count(raw, &side_a, &side_b), expect);
        assert_eq!(exact_pair_count(raw, &side_b, &side_a), expect);
        let self_raw = stored_a.len() as u64;
        assert_eq!(
            exact_pair_count(self_raw, &side_a, &side_a),
            ma.live.len() as u64
        );
    }

    #[test]
    fn noop_deltas_are_dropped() {
        let mut region = DeltaRegion::new(2);
        region.apply_add(1, 42, false);
        assert!(!region.is_empty());
        region.apply_remove(1, 42, false);
        assert!(region.is_empty());
        assert!(region.get(1).is_none(), "round-tripped delta freed");
        // Remove-then-re-add of a base element likewise cancels.
        region.apply_remove(0, 7, true);
        region.apply_add(0, 7, true);
        assert!(region.is_empty());
    }

    /// Brute-force oracle for the exact pair formula across add/remove
    /// overlap cases, including shared elements in both deltas and
    /// self-intersection, with no, some, or all base elements failed.
    #[test]
    fn layered_pair_count_matches_brute_force() {
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let mut region = DeltaRegion::new(2);
            let base_a: Vec<u32> = (0..512).filter(|_| next() % 3 == 0).collect();
            let base_b: Vec<u32> = (0..512).filter(|_| next() % 3 == 0).collect();
            // Split each base into stored ⊎ failed; `failed` mimics one
            // set's run of a corpus failure list sorted by (set, element).
            let mut split = |base: &[u32], set: u32| -> (BTreeSet<u32>, Vec<(u32, u32)>) {
                let (failed, stored): (Vec<u32>, Vec<u32>) =
                    base.iter().partition(|_| match trial % 3 {
                        0 => false,
                        1 => next() % 4 == 0,
                        _ => true,
                    });
                let failed = failed.into_iter().map(|x| (set, x)).collect();
                (stored.into_iter().collect(), failed)
            };
            let (stored_a, failed_a) = split(&base_a, 0);
            let (stored_b, failed_b) = split(&base_b, 1);
            let mut ma = Model::new(&base_a);
            let mut mb = Model::new(&base_b);
            for _ in 0..200 {
                let x = (next() % 512) as u32;
                match next() % 4 {
                    0 => ma.add(&mut region, 0, x),
                    1 => ma.remove(&mut region, 0, x),
                    2 => mb.add(&mut region, 1, x),
                    _ => mb.remove(&mut region, 1, x),
                }
            }
            let side_a = PairSide {
                stored: |x| stored_a.contains(&x),
                failed: &failed_a,
                delta: region.get(0),
            };
            let side_b = PairSide {
                stored: |x| stored_b.contains(&x),
                failed: &failed_b,
                delta: region.get(1),
            };
            let raw = stored_a.intersection(&stored_b).count() as u64;
            let expect = ma.live.intersection(&mb.live).count() as u64;
            assert_eq!(
                exact_pair_count(raw, &side_a, &side_b),
                expect,
                "trial {trial}"
            );
            assert_eq!(
                exact_pair_count(raw, &side_b, &side_a),
                expect,
                "trial {trial} swapped"
            );
            // Self-intersection: |M ∩ M| = |M|.
            let self_raw = stored_a.len() as u64;
            let self_got = exact_pair_count(self_raw, &side_a, &side_a);
            assert_eq!(self_got, ma.live.len() as u64, "trial {trial} self");
        }
    }
}
