//! In-place updates on built batmaps.
//!
//! The paper builds batmaps once and never mutates them; the layout,
//! however, supports dynamic sets naturally — every slot byte plus its
//! position decodes to the full permuted value, so an occupant can be
//! identified and evicted without side tables. This module adds:
//!
//! * [`Batmap::insert_mut`] — cuckoo insertion directly on the
//!   compressed slots, with automatic growth (rebuild at the next
//!   power-of-two range) when the load or an eviction failure demands;
//! * [`Batmap::remove_mut`] — clear the element's two slots.
//!
//! Indicator-bit maintenance: eviction chains move copies between
//! tables, which invalidates the cyclic-order bits of every element
//! touched. The chain records the affected elements and re-derives
//! their two indicator bits at the end — O(chain length) extra work.

use crate::params::{EMPTY_SLOT, TABLES};
use crate::slot;
use crate::Batmap;

/// Result of a mutable insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Element inserted.
    Inserted,
    /// Element was already present; no change.
    AlreadyPresent,
    /// Insertion triggered a growth rebuild (element is inserted; the
    /// batmap's width increased).
    InsertedWithGrowth,
}

impl Batmap {
    /// Insert `x` into this batmap in place.
    ///
    /// Grows (rebuilds at a doubled range) when the set outgrows the
    /// sizing policy or an eviction chain exceeds `MaxLoop` — so the
    /// call always succeeds. Counts against other batmaps remain exact
    /// after any number of updates (growth preserves the shared hash
    /// functions; only the fold width changes).
    pub fn insert_mut(&mut self, x: u32) -> UpdateOutcome {
        assert!(
            (x as u64) < self.params().m(),
            "element {x} outside universe"
        );
        if self.contains(x) {
            return UpdateOutcome::AlreadyPresent;
        }
        // Growth check up front: keep the load within the build policy.
        if self.params().range_for(self.len() + 1) > self.range() {
            let mut elements = self.elements();
            elements.push(x);
            // `rebuild` inserts x along with everything else.
            self.rebuild(elements, self.params().range_for(self.len() + 1));
            return UpdateOutcome::InsertedWithGrowth;
        }
        match self.try_insert_copies(x) {
            Ok(touched) => {
                self.fix_indicators(&touched);
                self.set_len(self.len() + 1);
                UpdateOutcome::Inserted
            }
            Err(()) => {
                // Eviction failure mid-chain: indicator bits are stale
                // and one victim has a single placed copy, so recover
                // the element set straight from the slots (key +
                // position decode every occupant exactly) and rebuild
                // one size up with x included.
                let mut elements = self.decode_occupants();
                elements.push(x);
                self.rebuild(elements, self.range() * 2);
                UpdateOutcome::InsertedWithGrowth
            }
        }
    }

    /// Remove `x`; returns whether it was present.
    pub fn remove_mut(&mut self, x: u32) -> bool {
        let r = self.range();
        let mut found = false;
        for t in 0..TABLES {
            let pi = self.params().perms().apply(t, x as u64);
            let idx = self.params().slot_of(t, pi, r);
            let b = self.as_bytes()[idx];
            if !slot::is_empty(b) && slot::key(b) == self.params().key_of(pi) {
                self.bytes_mut()[idx] = EMPTY_SLOT;
                found = true;
            }
        }
        if found {
            self.set_len(self.len() - 1);
        }
        found
    }

    /// Place two copies of `x` by cuckoo eviction on the compressed
    /// slots; returns the elements whose copies moved (for indicator
    /// repair), or `Err` if `MaxLoop` was exceeded (state left
    /// consistent enough for the growth rebuild, which re-derives
    /// everything from the decoded elements).
    fn try_insert_copies(&mut self, x: u32) -> Result<Vec<u32>, ()> {
        let r = self.range();
        let max_loop = self.params().max_loop();
        let mut touched = vec![x];
        for _copy in 0..2 {
            let mut tau = x;
            let mut placed = false;
            'chain: for _ in 0..max_loop {
                for t in 0..TABLES {
                    let pi = self.params().perms().apply(t, tau as u64);
                    let idx = self.params().slot_of(t, pi, r);
                    let prev = self.as_bytes()[idx];
                    // Write tau's key (indicator fixed later).
                    let key = self.params().key_of(pi);
                    self.bytes_mut()[idx] = slot::pack(key, false);
                    if slot::is_empty(prev) {
                        placed = true;
                        break 'chain;
                    }
                    // Decode the evicted occupant.
                    let prev_pi = self
                        .params()
                        .decode_slot(idx, slot::key(prev), r)
                        .expect("live slot decodes");
                    let evicted = self.params().perms().invert(t, prev_pi) as u32;
                    if evicted != tau {
                        touched.push(evicted);
                        tau = evicted;
                    }
                    // evicted == tau: we displaced our own other copy —
                    // continue pushing the same element (the §II-B
                    // "moved to the location of the other copy" case).
                }
            }
            if !placed {
                return Err(());
            }
        }
        Ok(touched)
    }

    /// Re-derive the indicator bits of the given elements from their
    /// current copy positions (each must be fully placed).
    fn fix_indicators(&mut self, elements: &[u32]) {
        let r = self.range();
        for &e in elements {
            let mut tables = [usize::MAX; 2];
            let mut n = 0;
            let mut slots = [0usize; 2];
            for t in 0..TABLES {
                let pi = self.params().perms().apply(t, e as u64);
                let idx = self.params().slot_of(t, pi, r);
                let b = self.as_bytes()[idx];
                if !slot::is_empty(b) && slot::key(b) == self.params().key_of(pi) {
                    // Guard against a *different* element whose key
                    // matches? Impossible: key+position identify π
                    // uniquely, so a match is e's copy.
                    if n < 2 {
                        tables[n] = t;
                        slots[n] = idx;
                    }
                    n += 1;
                }
            }
            assert_eq!(n, 2, "element {e} must have exactly two copies, has {n}");
            for k in 0..2 {
                let here = tables[k];
                let other = tables[1 - k];
                let b = self.as_bytes()[slots[k]];
                self.bytes_mut()[slots[k]] =
                    slot::pack(slot::key(b), slot::indicator_for(here, other));
            }
        }
    }

    /// Every element with at least one placed copy, decoded directly
    /// from the slot array (does not rely on indicator bits, so it is
    /// safe mid-recovery).
    fn decode_occupants(&self) -> Vec<u32> {
        let r = self.range();
        let mut out = Vec::with_capacity(self.len() * 2);
        for (idx, &b) in self.as_bytes().iter().enumerate() {
            if slot::is_empty(b) {
                continue;
            }
            let t = self.params().table_of_slot(idx);
            let pi = self
                .params()
                .decode_slot(idx, slot::key(b), r)
                .expect("live slot decodes");
            out.push(self.params().perms().invert(t, pi) as u32);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rebuild this batmap over `elements` with range at least
    /// `min_range` (doubling further if a rebuild itself fails —
    /// vanishingly unlikely but handled).
    fn rebuild(&mut self, mut elements: Vec<u32>, min_range: u64) {
        elements.sort_unstable();
        elements.dedup();
        let rebuilt = Batmap::build_placing_all(self.params().clone(), &elements, min_range);
        self.replace_with(rebuilt);
    }

    /// Build `sorted` (ascending, duplicate-free) at range at least
    /// `min_range`, doubling the range until every element is placed:
    /// the result has no failed insertions to correct for.
    pub(crate) fn build_placing_all(
        params: crate::ParamsHandle,
        sorted: &[u32],
        mut min_range: u64,
    ) -> Batmap {
        loop {
            let size_hint = sorted.len().max(growth_hint(min_range));
            let mut builder =
                crate::builder::BatmapBuilder::with_capacity(params.clone(), size_hint);
            let placed_all = sorted
                .iter()
                .all(|&e| builder.insert(e) != crate::builder::InsertOutcome::Failed);
            if placed_all {
                return builder.finish().batmap;
            }
            min_range *= 2;
        }
    }
}

/// A builder size hint whose `range_for` is exactly `range` (a power
/// of two ≥ `r₀`): `range_for(s) = max(r₀, 2^⌈log₂ ⌈3s/2⌉⌉)`, and
/// `⌈3·range/4⌉` lies in `(range/2, range]`.
fn growth_hint(range: u64) -> usize {
    (range / 2) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;
    use crate::ParamsHandle;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn params(m: u64) -> ParamsHandle {
        Arc::new(BatmapParams::new(m, 0x0DD))
    }

    #[test]
    fn growth_hint_yields_the_requested_range() {
        for m in [1_000u64, 50_000, 1 << 20] {
            let p = params(m);
            for range in (0..16).map(|e| p.r0() << e) {
                assert_eq!(
                    p.range_for(growth_hint(range)),
                    range,
                    "m={m} range={range}"
                );
            }
        }
    }

    #[test]
    fn insert_then_query() {
        let p = params(50_000);
        let mut bm = Batmap::build(p, &[]).batmap;
        for x in (0..2000u32).map(|i| i * 7 % 50_000) {
            bm.insert_mut(x);
        }
        let expect: BTreeSet<u32> = (0..2000u32).map(|i| i * 7 % 50_000).collect();
        assert_eq!(bm.len(), expect.len());
        for &x in &expect {
            assert!(bm.contains(x));
        }
        let mut got = bm.elements();
        got.sort_unstable();
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let p = params(1_000);
        let mut bm = Batmap::build(p, &[5, 6]).batmap;
        assert_eq!(bm.insert_mut(5), UpdateOutcome::AlreadyPresent);
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.intersect_count(&bm), 2);
    }

    #[test]
    fn remove_clears_both_copies() {
        let p = params(10_000);
        let elements: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let mut bm = Batmap::build(p, &elements).batmap;
        assert!(bm.remove_mut(9));
        assert!(!bm.contains(9));
        assert_eq!(bm.len(), 499);
        assert!(!bm.remove_mut(9), "double remove");
        assert_eq!(bm.intersect_count(&bm), 499);
    }

    #[test]
    fn updates_preserve_intersection_exactness() {
        let p = params(20_000);
        let other: Vec<u32> = (0..1500).map(|i| i * 4 % 20_000).collect();
        let bo = Batmap::build(p.clone(), &other).batmap;
        let other_set: BTreeSet<u32> = other.into_iter().collect();

        let mut bm = Batmap::build(p, &[]).batmap;
        let mut live: BTreeSet<u32> = BTreeSet::new();
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..3000 {
            let x = (next() % 20_000) as u32;
            if next() % 3 == 0 {
                bm.remove_mut(x);
                live.remove(&x);
            } else {
                bm.insert_mut(x);
                live.insert(x);
            }
            if step % 500 == 0 {
                let expect = live.intersection(&other_set).count() as u64;
                assert_eq!(bm.intersect_count(&bo), expect, "step {step}");
                assert_eq!(bm.len(), live.len(), "step {step}");
            }
        }
        let expect = live.intersection(&other_set).count() as u64;
        assert_eq!(bm.intersect_count(&bo), expect);
    }

    #[test]
    fn growth_happens_and_stays_exact() {
        let p = params(100_000);
        let mut bm = Batmap::build(p.clone(), &(0..64).collect::<Vec<_>>()).batmap;
        let w0 = bm.width_bytes();
        let mut grew = false;
        for x in 64..5000u32 {
            if bm.insert_mut(x) == UpdateOutcome::InsertedWithGrowth {
                grew = true;
            }
        }
        assert!(grew, "expected at least one growth");
        assert!(bm.width_bytes() > w0);
        assert_eq!(bm.len(), 5000);
        // Fold-compat against a freshly built batmap of another width.
        let probe = Batmap::build(p, &(0..200u32).map(|i| i * 30).collect::<Vec<_>>()).batmap;
        let expect = (0..200u32).map(|i| i * 30).filter(|&v| v < 5000).count() as u64;
        assert_eq!(bm.intersect_count(&probe), expect);
    }

    #[test]
    fn indicator_invariant_maintained() {
        let p = params(30_000);
        let mut bm = Batmap::build(p, &[]).batmap;
        for x in (0..3000u32).map(|i| (i * 97) % 30_000) {
            bm.insert_mut(x);
        }
        let ones = bm
            .as_bytes()
            .iter()
            .filter(|&&b| slot::indicator(b) && !slot::is_empty(b))
            .count();
        assert_eq!(ones, bm.len(), "exactly one indicator per element");
        assert_eq!(bm.intersect_count(&bm), bm.len() as u64);
    }
}
