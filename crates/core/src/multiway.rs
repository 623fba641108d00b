//! Multiway intersection — the paper's §V proposed extensions, built.
//!
//! The paper leaves open how to intersect more than two sets and
//! sketches two directions; this module implements both:
//!
//! 1. **The d-of-(d+1) generalization** ([`MultiwayBatmap`]): store
//!    each element in `d` of `d+1` tables. Any `k ≤ d` sets containing
//!    `x` miss at most `k ≤ d` distinct tables, so at least one table
//!    holds `x` in *all* of them — a data-independent positional sweep
//!    again suffices. The paper's 1-bit cyclic indicator does not
//!    generalize; instead each slot stores the index of its element's
//!    **omitted table** (⌈log₂(d+1)⌉ bits), and a position is counted
//!    iff its table is the *smallest* table omitted by none of the
//!    operands — computable locally from the compared slots, so the
//!    sweep stays branch-predictable and parallel.
//!
//! 2. **Probe counting** ([`intersect_count_probe`]): the paper's
//!    second sketch — use the ordinary 2-of-3 batmaps and count, for
//!    each element of the smallest set, whether it appears in all the
//!    others (membership probes are O(1) and exact).
//!
//! The multiway structure here stores full permuted values (no 8-bit
//! compression): it is the correctness-first reference of the
//! extension, benchmarked in `benches/` but not routed to the GPU
//! kernel. ARCHITECTURE.md, "Deviations from the paper" (item 4),
//! lists compressing it as future work.
//!
//! [`MultiwayBatmap::intersect_count`] is the paper-shaped dense sweep
//! over every position, the GPU's data-independent loop. This module is
//! the §V reproduction only: the levelwise miner
//! (`pairminer::levelwise`) counts levels ≥ 3 over exact bitmap rows
//! and tidlists (ARCHITECTURE.md, "Deviations from the paper", item 5).

use crate::batmap::AsSlots;
use crate::hash::Permutation;
use crate::kernel::{KernelBackend, KernelDispatch, MatchKernel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Sentinel for an empty slot.
const EMPTY: u64 = u64::MAX;
/// Occupant sentinel during construction.
const VACANT: u32 = u32::MAX;

/// Shared parameters of a d-of-(d+1) universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiwayParams {
    /// Universe size; elements are `0..m`.
    m: u64,
    /// Copies per element (`d`); there are `d+1` tables.
    d: usize,
    /// Cuckoo move bound.
    max_loop: u32,
    /// Defining seed (fingerprint component).
    seed: u64,
    /// Match-count backend for the positional sweep (not part of the
    /// fingerprint; it changes how counts are computed, not what).
    /// Defaults on absence so older serialized parameters stay
    /// readable.
    #[serde(default)]
    kernel: KernelBackend,
    /// The `d+1` shared permutations.
    perms: Vec<Permutation>,
}

impl MultiwayParams {
    /// Create parameters for universe `{0..m-1}` with `d` copies per
    /// element (supporting intersections of up to `d` sets).
    ///
    /// # Panics
    /// Panics if `m == 0` or `d < 2` or `d > 15`.
    pub fn new(m: u64, d: usize, seed: u64) -> Self {
        assert!(m > 0, "universe must be non-empty");
        assert!((2..=15).contains(&d), "d must be in 2..=15");
        let perms = (0..=d)
            .map(|t| Permutation::new(m, seed ^ (0x9E37_79B9u64.wrapping_mul(t as u64 + 1))))
            .collect();
        MultiwayParams {
            m,
            d,
            max_loop: 128,
            seed,
            kernel: KernelBackend::Auto,
            perms,
        }
    }

    /// Override the cuckoo `MaxLoop` bound (exposed for failure-path
    /// tests; the default of 128 never fails at the sized load).
    pub fn with_max_loop(mut self, max_loop: u32) -> Self {
        assert!(max_loop > 0);
        self.max_loop = max_loop;
        self
    }

    /// Pin the match-count backend used by the positional sweep.
    pub fn with_kernel(mut self, kernel: KernelBackend) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel implementation the sweep dispatches to.
    #[inline]
    pub fn kernel(&self) -> &'static dyn MatchKernel {
        self.kernel.kernel()
    }

    /// Universe size.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Copies per element.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of tables (`d + 1`).
    pub fn tables(&self) -> usize {
        self.d + 1
    }

    /// Per-table range for a set of `size` elements, sized so the total
    /// load `d·n / ((d+1)·r)` stays at or below the 1/3 the paper's
    /// d = 2 sizing achieves (`r = 2n` gives `2n/(3·2n) = 1/3`):
    /// `r = 2^⌈log₂(3·d·n/(d+1))⌉`.
    pub fn range_for(&self, size: usize) -> u64 {
        let target = (3 * self.d as u64 * size.max(1) as u64).div_ceil(self.d as u64 + 1);
        target.next_power_of_two()
    }

    /// Interoperability fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [self.m, self.d as u64, self.seed] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// A set stored in `d` of `d+1` shared-permutation tables.
#[derive(Debug, Clone)]
pub struct MultiwayBatmap {
    params: Arc<MultiwayParams>,
    /// Per-table range (power of two).
    r: u64,
    /// Permuted value per slot (table-major: `t·r + (πₜ(x) mod r)`);
    /// [`EMPTY`] when vacant.
    values: Box<[u64]>,
    /// Omitted-table index of the slot's element (meaningless when
    /// vacant).
    omitted: Box<[u8]>,
    len: usize,
}

impl MultiwayBatmap {
    /// Build from elements (duplicates ignored). Returns `None` if any
    /// insertion fails — for `d ≥ 4` the cyclic cuckoo insert does fail
    /// at the default sizing now and then, so counting paths need a
    /// fallback (or [`MultiwayBatmap::build_with_growth`]); a production
    /// path would add the §III-C side sets exactly as the pairwise
    /// pipeline does.
    pub fn build(params: Arc<MultiwayParams>, elements: &[u32]) -> Option<Self> {
        Self::build_with_growth(params, elements, 0)
    }

    /// [`MultiwayBatmap::build`] with failure recovery by range growth:
    /// on an insertion failure the per-table range is doubled and the
    /// build retried, up to `max_doublings` times. Ranges are per-set
    /// (the sweep folds by each operand's own power-of-two range), so a
    /// grown map intersects unchanged with normally-sized ones; the
    /// cost is space. One doubling absorbs almost every failure the
    /// default sizing produces; `None` after the last retry is the
    /// caller's exact-fallback signal.
    pub fn build_with_growth(
        params: Arc<MultiwayParams>,
        elements: &[u32],
        max_doublings: u32,
    ) -> Option<Self> {
        let mut sorted = elements.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&max) = sorted.last() {
            assert!((max as u64) < params.m, "element {max} outside universe");
        }
        let mut r = params.range_for(sorted.len());
        for _ in 0..=max_doublings {
            if let Some(built) = Self::build_at_range(params.clone(), &sorted, r) {
                return Some(built);
            }
            r *= 2;
        }
        None
    }

    /// One build attempt at a fixed per-table range (power of two).
    fn build_at_range(params: Arc<MultiwayParams>, sorted: &[u32], r: u64) -> Option<Self> {
        let tables = params.tables();
        let mut occupants = vec![VACANT; tables * r as usize];
        let slot_of = |t: usize, x: u32| -> usize {
            t * r as usize + (params.perms[t].apply(x as u64) % r) as usize
        };
        // The generalized INSERT: push through tables cyclically.
        let insert_copy = |occ: &mut Vec<u32>, mut tau: u32| -> Result<(), u32> {
            for _ in 0..params.max_loop {
                for t in 0..tables {
                    let s = slot_of(t, tau);
                    std::mem::swap(&mut tau, &mut occ[s]);
                    if tau == VACANT {
                        return Ok(());
                    }
                }
            }
            Err(tau)
        };
        for &x in sorted {
            for _copy in 0..params.d {
                if insert_copy(&mut occupants, x).is_err() {
                    return None;
                }
            }
        }
        // Materialize values + omitted-table indices.
        let mut values = vec![EMPTY; occupants.len()].into_boxed_slice();
        let mut omitted = vec![0u8; occupants.len()].into_boxed_slice();
        for &x in sorted {
            let mut missing = usize::MAX;
            let mut present = 0usize;
            for t in 0..tables {
                if occupants[slot_of(t, x)] == x {
                    present += 1;
                } else {
                    debug_assert_eq!(missing, usize::MAX, "element {x} omitted twice");
                    missing = t;
                }
            }
            assert_eq!(present, params.d, "element {x} has {present} copies");
            for t in 0..tables {
                let s = slot_of(t, x);
                if occupants[s] == x {
                    values[s] = params.perms[t].apply(x as u64);
                    omitted[s] = missing as u8;
                }
            }
        }
        Some(MultiwayBatmap {
            params,
            r,
            values,
            omitted,
            len: sorted.len(),
        })
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-table range.
    pub fn range(&self) -> u64 {
        self.r
    }

    /// Membership test (any of the `d+1` candidate slots holds `x`).
    pub fn contains(&self, x: u32) -> bool {
        (0..self.params.tables()).any(|t| {
            let pi = self.params.perms[t].apply(x as u64);
            self.values[t * self.r as usize + (pi % self.r) as usize] == pi
        })
    }

    /// `|⋂ maps|` by the generalized positional sweep.
    ///
    /// # Panics
    /// Panics if fewer than 2 or more than `d` operands are given, or
    /// if operands come from different universes.
    pub fn intersect_count(maps: &[&MultiwayBatmap]) -> u64 {
        assert!(maps.len() >= 2, "need at least two sets");
        let params = &maps[0].params;
        assert!(
            maps.len() <= params.d,
            "d-of-(d+1) supports at most d = {} operands, got {}",
            params.d,
            maps.len()
        );
        assert!(
            maps.iter()
                .all(|m| m.params.fingerprint() == params.fingerprint()),
            "operands from different universes"
        );
        // Monomorphize over the configured backend so the per-slot
        // `value_eq` inlines: the sweep is a hot loop and must not pay
        // a virtual call per position.
        struct Sweep<'a, 'b>(&'a [&'b MultiwayBatmap]);
        impl KernelDispatch for Sweep<'_, '_> {
            type Output = u64;
            fn run<K: MatchKernel>(self, kernel: K) -> u64 {
                MultiwayBatmap::sweep(&kernel, self.0)
            }
        }
        params.kernel.dispatch(Sweep(maps))
    }

    /// The generalized positional sweep, monomorphized per backend.
    fn sweep<K: MatchKernel>(kernel: &K, maps: &[&MultiwayBatmap]) -> u64 {
        let params = &maps[0].params;
        let tables = params.tables();
        let r_max = maps.iter().map(|m| m.r).max().unwrap();
        let mut count = 0u64;
        for t in 0..tables {
            for p in 0..r_max {
                // Gather the k slots at this (folded) position.
                let first = maps[0].slot(t, p);
                let v0 = maps[0].values[first];
                if v0 == EMPTY {
                    continue;
                }
                let all_match = maps[1..]
                    .iter()
                    .all(|m| kernel.value_eq(m.values[m.slot(t, p)], v0));
                if !all_match {
                    continue;
                }
                // Count once: only at the smallest table omitted by no
                // operand (locally computable from the omitted fields).
                let mut omitted_mask = 0u32;
                for m in maps {
                    omitted_mask |= 1 << m.omitted[m.slot(t, p)];
                }
                let canonical = (!omitted_mask).trailing_zeros() as usize;
                if canonical == t {
                    count += 1;
                }
            }
        }
        count
    }

    /// Slot index of table `t`, folded position `p` (for `p` ranging
    /// over the largest operand's positions, or a permuted value of
    /// table `t`, which can only sit at this slot).
    #[inline]
    fn slot(&self, t: usize, p: u64) -> usize {
        t * self.r as usize + (p & (self.r - 1)) as usize
    }

    /// Bytes of the value+omitted arrays (footprint of the reference
    /// representation).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 8 + self.omitted.len()
    }
}

/// The paper's second §V sketch: k-way intersection with ordinary
/// pairwise batmaps, counting elements of the smallest operand that all
/// the others contain.
///
/// Exact for any `k ≥ 1`, at the cost of decoding the smallest set and
/// `k−1` membership probes per element (irregular access — the
/// trade-off the d-of-(d+1) structure avoids). Generic over the storage
/// seam ([`AsSlots`]): the operand list may hold owned
/// [`crate::Batmap`]s or arena-backed [`crate::arena::BatmapRef`]
/// views — one storage type per call (the list is homogeneous in `T`).
pub fn intersect_count_probe<T: AsSlots>(sets: &[&T]) -> u64 {
    assert!(!sets.is_empty());
    let smallest = sets
        .iter()
        .min_by_key(|s| s.len())
        .expect("non-empty operand list");
    smallest
        .elements()
        .into_iter()
        .filter(|&x| {
            sets.iter()
                .all(|s| std::ptr::eq(*s, *smallest) || s.contains(x))
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;
    use crate::Batmap;
    use std::collections::BTreeSet;

    fn multi_params(m: u64, d: usize) -> Arc<MultiwayParams> {
        Arc::new(MultiwayParams::new(m, d, 0xD0F))
    }

    fn exact_k_way(sets: &[&[u32]]) -> u64 {
        let mut iter = sets.iter();
        let mut acc: BTreeSet<u32> = iter.next().unwrap().iter().copied().collect();
        for s in iter {
            let next: BTreeSet<u32> = s.iter().copied().collect();
            acc = acc.intersection(&next).copied().collect();
        }
        acc.len() as u64
    }

    #[test]
    fn three_way_exact() {
        let p = multi_params(10_000, 3);
        let a: Vec<u32> = (0..900).map(|i| i * 3 % 10_000).collect();
        let b: Vec<u32> = (0..700).map(|i| i * 5 % 10_000).collect();
        let c: Vec<u32> = (0..800).map(|i| i * 7 % 10_000).collect();
        let ma = MultiwayBatmap::build(p.clone(), &a).unwrap();
        let mb = MultiwayBatmap::build(p.clone(), &b).unwrap();
        let mc = MultiwayBatmap::build(p, &c).unwrap();
        assert_eq!(
            MultiwayBatmap::intersect_count(&[&ma, &mb, &mc]),
            exact_k_way(&[&a, &b, &c])
        );
        // Pairwise also works within the same structure.
        assert_eq!(
            MultiwayBatmap::intersect_count(&[&ma, &mb]),
            exact_k_way(&[&a, &b])
        );
    }

    #[test]
    fn four_way_exact_with_mixed_sizes() {
        let p = multi_params(20_000, 4);
        let sets: Vec<Vec<u32>> = vec![
            (0..2000).map(|i| i * 2 % 20_000).collect(),
            (0..500).map(|i| i * 6 % 20_000).collect(),
            (0..1200).map(|i| i * 4 % 20_000).collect(),
            (0..300).map(|i| i * 12 % 20_000).collect(),
        ];
        let maps: Vec<MultiwayBatmap> = sets
            .iter()
            .map(|s| MultiwayBatmap::build(p.clone(), s).unwrap())
            .collect();
        let refs: Vec<&MultiwayBatmap> = maps.iter().collect();
        let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        assert_eq!(MultiwayBatmap::intersect_count(&refs), exact_k_way(&slices));
        // Different widths were actually exercised.
        let widths: BTreeSet<u64> = maps.iter().map(MultiwayBatmap::range).collect();
        assert!(widths.len() > 1);
    }

    #[test]
    fn self_intersection_counts_once() {
        let p = multi_params(5_000, 3);
        let a: Vec<u32> = (0..400).collect();
        let ma = MultiwayBatmap::build(p, &a).unwrap();
        assert_eq!(MultiwayBatmap::intersect_count(&[&ma, &ma, &ma]), 400);
    }

    #[test]
    fn membership() {
        let p = multi_params(5_000, 3);
        let a: Vec<u32> = (0..300).map(|i| i * 11 % 5_000).collect();
        let ma = MultiwayBatmap::build(p, &a).unwrap();
        let set: BTreeSet<u32> = a.iter().copied().collect();
        for x in 0..5_000 {
            assert_eq!(ma.contains(x), set.contains(&x), "x={x}");
        }
        assert_eq!(ma.len(), set.len());
    }

    #[test]
    fn disjoint_and_empty() {
        let p = multi_params(1_000, 3);
        let a = MultiwayBatmap::build(p.clone(), &(0..100).collect::<Vec<_>>()).unwrap();
        let b = MultiwayBatmap::build(p.clone(), &(500..600).collect::<Vec<_>>()).unwrap();
        let e = MultiwayBatmap::build(p, &[]).unwrap();
        assert_eq!(MultiwayBatmap::intersect_count(&[&a, &b]), 0);
        assert_eq!(MultiwayBatmap::intersect_count(&[&a, &e]), 0);
        assert_eq!(MultiwayBatmap::intersect_count(&[&e, &e]), 0);
    }

    #[test]
    #[should_panic]
    fn too_many_operands_rejected() {
        let p = multi_params(1_000, 2);
        let a = MultiwayBatmap::build(p.clone(), &[1, 2]).unwrap();
        let b = MultiwayBatmap::build(p.clone(), &[2, 3]).unwrap();
        let c = MultiwayBatmap::build(p, &[3, 4]).unwrap();
        let _ = MultiwayBatmap::intersect_count(&[&a, &b, &c]);
    }

    #[test]
    #[should_panic]
    fn universe_mismatch_rejected() {
        let a = MultiwayBatmap::build(multi_params(1_000, 3), &[1]).unwrap();
        let b = MultiwayBatmap::build(Arc::new(MultiwayParams::new(1_000, 3, 1)), &[1]).unwrap();
        let _ = MultiwayBatmap::intersect_count(&[&a, &b]);
    }

    #[test]
    fn probe_counting_matches_exact() {
        let params = Arc::new(BatmapParams::new(8_000, 0xAB));
        let sets: Vec<Vec<u32>> = vec![
            (0..1500).map(|i| i * 2 % 8_000).collect(),
            (0..600).map(|i| i * 5 % 8_000).collect(),
            (0..900).map(|i| i * 3 % 8_000).collect(),
            (0..200).map(|i| i * 30 % 8_000).collect(),
        ];
        let maps: Vec<Batmap> = sets
            .iter()
            .map(|s| Batmap::build(params.clone(), s).batmap)
            .collect();
        for k in 2..=4 {
            let refs: Vec<&Batmap> = maps[..k].iter().collect();
            let slices: Vec<&[u32]> = sets[..k].iter().map(Vec::as_slice).collect();
            assert_eq!(intersect_count_probe(&refs), exact_k_way(&slices), "k={k}");
        }
    }

    #[test]
    fn sweep_agrees_across_kernel_backends() {
        let a: Vec<u32> = (0..600).map(|i| i * 3 % 9_000).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 5 % 9_000).collect();
        let expect = exact_k_way(&[&a, &b]);
        for backend in crate::kernel::available_backends() {
            let p = Arc::new(MultiwayParams::new(9_000, 3, 0xD0F).with_kernel(backend));
            let ma = MultiwayBatmap::build(p.clone(), &a).unwrap();
            let mb = MultiwayBatmap::build(p, &b).unwrap();
            assert_eq!(
                MultiwayBatmap::intersect_count(&[&ma, &mb]),
                expect,
                "backend {backend}"
            );
        }
    }

    #[test]
    fn growth_recovers_failed_builds() {
        // d = 4 with a size just under a power-of-two boundary: the
        // single-attempt build fails for some of these seeds, and one
        // or two range doublings recover every one of them — with
        // counts identical to normally-sized operands.
        let elements: Vec<u32> = (0..300u32).map(|i| i * 3 % 30_000).collect();
        let other: Vec<u32> = (0..2000u32).map(|i| i * 2 % 30_000).collect();
        let expect = exact_k_way(&[&elements, &other]);
        let mut saw_growth = false;
        for seed in 0..12u64 {
            let p = Arc::new(MultiwayParams::new(30_000, 4, seed));
            let grown = MultiwayBatmap::build_with_growth(p.clone(), &elements, 2)
                .expect("growth recovers the build");
            if MultiwayBatmap::build(p.clone(), &elements).is_none() {
                saw_growth = true;
                assert!(grown.range() > p.range_for(elements.len()));
            }
            let ob = MultiwayBatmap::build_with_growth(p, &other, 2).unwrap();
            assert_eq!(MultiwayBatmap::intersect_count(&[&grown, &ob]), expect);
        }
        assert!(saw_growth, "fixture never exercised the growth path");
    }

    #[test]
    fn probe_single_set_is_len() {
        let params = Arc::new(BatmapParams::new(1_000, 0xAB));
        let a = Batmap::build(params, &(0..50).collect::<Vec<_>>()).batmap;
        assert_eq!(intersect_count_probe(&[&a]), 50);
    }
}
