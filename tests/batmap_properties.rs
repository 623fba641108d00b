//! Property-based tests (proptest) on the core data-structure
//! invariants the paper's correctness rests on.

use batmap::{Batmap, BatmapParams, EngineOptions, MatchKernel as _, UncompressedBatmap, TABLES};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::sync::Arc;

const M: u64 = 20_000;

fn arb_set(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    btree_set(0u32..M as u32, 0..max_len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Intersection counting is exact for arbitrary set pairs,
    /// including very different sizes (the folding path).
    #[test]
    fn intersection_count_is_exact(a in arb_set(800), b in arb_set(800), seed in 0u64..1000) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let ba = Batmap::build_sorted(params.clone(), &a).batmap;
        let bb = Batmap::build_sorted(params.clone(), &b).batmap;
        prop_assume!(ba.len() == a.len() && bb.len() == b.len()); // no failures at this load
        let sb: std::collections::HashSet<u32> = b.iter().copied().collect();
        let expect = a.iter().filter(|x| sb.contains(x)).count() as u64;
        prop_assert_eq!(ba.intersect_count(&bb), expect);
        prop_assert_eq!(bb.intersect_count(&ba), expect);
    }

    /// Membership has no false positives or negatives.
    #[test]
    fn membership_is_exact(a in arb_set(500), probes in proptest::collection::vec(0u32..M as u32, 50), seed in 0u64..1000) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let bm = Batmap::build_sorted(params, &a).batmap;
        prop_assume!(bm.len() == a.len());
        let set: std::collections::HashSet<u32> = a.iter().copied().collect();
        for p in probes {
            prop_assert_eq!(bm.contains(p), set.contains(&p));
        }
    }

    /// Elements can be decoded back out of the compressed layout.
    #[test]
    fn elements_roundtrip(a in arb_set(600), seed in 0u64..1000) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let bm = Batmap::build_sorted(params, &a).batmap;
        prop_assume!(bm.len() == a.len());
        let mut got = bm.elements();
        got.sort_unstable();
        prop_assert_eq!(got, a);
    }

    /// The compressed batmap and the uncompressed §II reference
    /// structure agree on every intersection.
    #[test]
    fn compressed_matches_uncompressed(a in arb_set(400), b in arb_set(400), seed in 0u64..500) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let ca = Batmap::build_sorted(params.clone(), &a).batmap;
        let cb = Batmap::build_sorted(params.clone(), &b).batmap;
        prop_assume!(ca.len() == a.len() && cb.len() == b.len());
        let ua = UncompressedBatmap::build(params.clone(), &a);
        let ub = UncompressedBatmap::build(params, &b);
        prop_assume!(ua.is_some() && ub.is_some());
        prop_assert_eq!(ca.intersect_count(&cb), ua.unwrap().intersect_count(&ub.unwrap()));
    }

    /// Shared-hash-function folding: the slot of x in a small batmap is
    /// the slot in any larger batmap reduced modulo the smaller width.
    #[test]
    fn fold_congruence(x in 0u64..M, seed in 0u64..1000, li in 0u32..4, lj in 0u32..4) {
        let params = BatmapParams::new(M, seed);
        let (li, lj) = (li.min(lj), li.max(lj));
        let ri = params.r0() << li;
        let rj = params.r0() << lj;
        let wi = TABLES * ri as usize;
        for t in 0..TABLES {
            let pi = params.perms().apply(t, x);
            prop_assert_eq!(params.slot_of(t, pi, ri), params.slot_of(t, pi, rj) % wi);
        }
    }

    /// Exactly one of an element's two copies carries the indicator bit.
    #[test]
    fn one_indicator_per_element(a in arb_set(300), seed in 0u64..500) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let bm = Batmap::build_sorted(params, &a).batmap;
        prop_assume!(bm.len() == a.len());
        let ones = bm.as_bytes().iter().filter(|&&b| batmap::slot::indicator(b)).count();
        prop_assert_eq!(ones, a.len());
    }

    /// Self-intersection returns the cardinality (every element counted
    /// exactly once despite being stored twice).
    #[test]
    fn self_intersection_is_len(a in arb_set(700), seed in 0u64..1000) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let bm = Batmap::build_sorted(params, &a).batmap;
        prop_assume!(bm.len() == a.len());
        prop_assert_eq!(bm.intersect_count(&bm), a.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `MatchKernel` backend returns identical counts on random
    /// slot arrays — equal-width, unaligned tails, and the wrapped
    /// (folded) path alike.
    #[test]
    fn kernel_backends_are_equivalent(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..64),
        tail in 0usize..8,
        wrap_factor in 1usize..4,
    ) {
        use batmap::ALL_BACKENDS;
        let mut xs: Vec<u8> = words.iter().flat_map(|(x, _)| x.to_le_bytes()).collect();
        let mut ys: Vec<u8> = words.iter().flat_map(|(_, y)| y.to_le_bytes()).collect();
        xs.truncate(xs.len() - tail);
        ys.truncate(ys.len() - tail);
        let reference = batmap::kernel::ScalarKernel.count_equal_width(&xs, &ys);
        for backend in ALL_BACKENDS {
            prop_assert_eq!(
                backend.kernel().count_equal_width(&xs, &ys),
                reference,
                "equal-width disagreement in backend {}", backend
            );
        }
        // Wrapped path: tile `ys` along a `wrap_factor`× larger array.
        let large: Vec<u8> = xs
            .iter()
            .cycle()
            .take(xs.len() * wrap_factor)
            .copied()
            .collect();
        if !ys.is_empty() {
            let wrapped_ref = batmap::kernel::ScalarKernel.count_wrapped(&large, &ys);
            for backend in ALL_BACKENDS {
                prop_assert_eq!(
                    backend.kernel().count_wrapped(&large, &ys),
                    wrapped_ref,
                    "wrapped disagreement in backend {}", backend
                );
            }
        }
    }

    /// End to end: batmaps built over a backend-pinned universe count
    /// intersections identically under every backend.
    #[test]
    fn kernel_backends_agree_on_batmaps(a in arb_set(400), b in arb_set(400), seed in 0u64..200) {
        use batmap::ALL_BACKENDS;
        let reference = {
            let params = Arc::new(BatmapParams::new(M, seed));
            let ba = Batmap::build_sorted(params.clone(), &a).batmap;
            let bb = Batmap::build_sorted(params, &b).batmap;
            prop_assume!(ba.len() == a.len() && bb.len() == b.len());
            ba.intersect_count(&bb)
        };
        for backend in ALL_BACKENDS {
            let params = Arc::new(BatmapParams::new(M, seed).with_engine_options(EngineOptions::auto().kernel(backend)));
            let ba = Batmap::build_sorted(params.clone(), &a).batmap;
            let bb = Batmap::build_sorted(params, &b).batmap;
            prop_assume!(ba.len() == a.len() && bb.len() == b.len());
            prop_assert_eq!(ba.intersect_count(&bb), reference, "backend {}", backend);
            prop_assert_eq!(
                ba.intersect_count_with(backend.kernel(), &bb),
                reference,
                "explicit dispatch, backend {}", backend
            );
        }
    }

    /// SWAR kernels agree with the scalar reference on arbitrary words.
    #[test]
    fn swar_kernels_agree(x in any::<u64>(), y in any::<u64>()) {
        let expect = batmap::swar::match_count_bytes(&x.to_le_bytes(), &y.to_le_bytes());
        prop_assert_eq!(batmap::swar::match_count_u64(x, y) as u64, expect);
        let (xl, xh) = (x as u32, (x >> 32) as u32);
        let (yl, yh) = (y as u32, (y >> 32) as u32);
        prop_assert_eq!(
            (batmap::swar::match_count_u32(xl, yl) + batmap::swar::match_count_u32(xh, yh)) as u64,
            expect
        );
    }

    /// Merge intersection variants are equivalent.
    #[test]
    fn merge_variants_equivalent(
        a in btree_set(0u32..5_000, 0..400),
        b in btree_set(0u32..5_000, 0..400)
    ) {
        let a: Vec<u32> = a.into_iter().collect();
        let b: Vec<u32> = b.into_iter().collect();
        let expect = fim::merge::count_branchy(&a, &b);
        prop_assert_eq!(fim::merge::count_branchless(&a, &b), expect);
        prop_assert_eq!(fim::merge::count_galloping(&a, &b), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// WAH compression round-trips and intersects exactly.
    #[test]
    fn wah_roundtrip_and_intersection(
        a in btree_set(0u32..100_000, 0..500),
        b in btree_set(0u32..100_000, 0..500)
    ) {
        let a: Vec<u32> = a.into_iter().collect();
        let b: Vec<u32> = b.into_iter().collect();
        let wa = fim::WahBitmap::from_sorted(100_000, &a);
        let wb = fim::WahBitmap::from_sorted(100_000, &b);
        prop_assert_eq!(wa.decode(), a.clone());
        prop_assert_eq!(wa.count(), a.len() as u64);
        let expect = fim::merge::count_branchy(&a, &b);
        prop_assert_eq!(wa.intersect_count(&wb), expect);
    }

    /// The §V d-of-(d+1) structure counts k-way intersections exactly.
    #[test]
    fn multiway_counts_exact(
        a in btree_set(0u32..5_000, 0..300),
        b in btree_set(0u32..5_000, 0..300),
        c in btree_set(0u32..5_000, 0..300),
        seed in 0u64..200
    ) {
        let params = std::sync::Arc::new(batmap::MultiwayParams::new(5_000, 3, seed));
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let cv: Vec<u32> = c.iter().copied().collect();
        let ma = batmap::MultiwayBatmap::build(params.clone(), &av);
        let mb = batmap::MultiwayBatmap::build(params.clone(), &bv);
        let mc = batmap::MultiwayBatmap::build(params, &cv);
        prop_assume!(ma.is_some() && mb.is_some() && mc.is_some());
        let (ma, mb, mc) = (ma.unwrap(), mb.unwrap(), mc.unwrap());
        let expect3 = a.iter().filter(|x| b.contains(x) && c.contains(x)).count() as u64;
        prop_assert_eq!(batmap::MultiwayBatmap::intersect_count(&[&ma, &mb, &mc]), expect3);
        let expect2 = a.intersection(&b).count() as u64;
        prop_assert_eq!(batmap::MultiwayBatmap::intersect_count(&[&ma, &mb]), expect2);
    }

    /// Probe counting agrees with exact intersection for any k.
    #[test]
    fn probe_counting_exact(
        sets in proptest::collection::vec(btree_set(0u32..3_000, 1..200), 1..5),
        seed in 0u64..100
    ) {
        let params = std::sync::Arc::new(BatmapParams::new(3_000, seed));
        let vecs: Vec<Vec<u32>> = sets.iter().map(|s| s.iter().copied().collect()).collect();
        let maps: Vec<Batmap> = vecs.iter()
            .map(|v| Batmap::build_sorted(params.clone(), v).batmap)
            .collect();
        prop_assume!(maps.iter().zip(&vecs).all(|(m, v)| m.len() == v.len()));
        let refs: Vec<&Batmap> = maps.iter().collect();
        let mut expect: std::collections::BTreeSet<u32> = sets[0].clone();
        for s in &sets[1..] {
            expect = expect.intersection(s).copied().collect();
        }
        prop_assert_eq!(batmap::intersect_count_probe(&refs), expect.len() as u64);
    }
}
