//! Property tests pinning the true SIMD match kernels
//! (AVX2/AVX-512 on x86_64, NEON on aarch64) and the batched
//! one-vs-many driver to the scalar reference, plus unit tests of the
//! `Auto`/`BATMAP_KERNEL` resolution policy.
//!
//! On hardware without a backend (e.g. no AVX-512) the corresponding
//! assertions skip: `available_backends()` simply does not yield it,
//! which is exactly the graceful degradation the CI kernel matrix
//! relies on.

use batmap::kernel::ScalarKernel;
use batmap::{
    available_backends, intersect, ArenaBuilder, Batmap, BatmapParams, EngineOptions,
    KernelBackend, MatchKernel, SetRepr,
};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::sync::Arc;

const M: u64 = 30_000;

/// SIMD-capable backends only (lanes wider than one register byte
/// stream): the subject of this file. AVX2/AVX-512 on x86_64 as CPU
/// support permits, NEON on aarch64, empty elsewhere.
fn simd_backends() -> Vec<KernelBackend> {
    available_backends()
        .filter(|b| {
            matches!(
                b,
                KernelBackend::Avx2 | KernelBackend::Avx512 | KernelBackend::Neon
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SIMD `count_equal_width` equals the scalar reference for
    /// arbitrary widths — including ragged tails shorter than one
    /// register and widths straddling register boundaries.
    #[test]
    fn simd_equal_width_matches_scalar(
        bytes in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..200),
    ) {
        let xs: Vec<u8> = bytes.iter().map(|(x, _)| *x).collect();
        let ys: Vec<u8> = bytes.iter().map(|(_, y)| *y).collect();
        let expect = ScalarKernel.count_equal_width(&xs, &ys);
        for backend in simd_backends() {
            prop_assert_eq!(
                backend.kernel().count_equal_width(&xs, &ys),
                expect,
                "backend {}, width {}", backend, xs.len()
            );
        }
    }

    /// SIMD `count_wrapped` equals the scalar reference on the §II
    /// small-vs-large chunk layout — small widths below one register
    /// included, so the wrapped loop exercises pure-tail chunks.
    #[test]
    fn simd_wrapped_matches_scalar(
        small in proptest::collection::vec(any::<u8>(), 1..48),
        factor in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Derive the large array deterministically from the seed so the
        // chunks differ from each other.
        let mut state = seed | 1;
        let large: Vec<u8> = (0..small.len() * factor)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let expect = ScalarKernel.count_wrapped(&large, &small);
        for backend in simd_backends() {
            prop_assert_eq!(
                backend.kernel().count_wrapped(&large, &small),
                expect,
                "backend {}, small {}, factor {}", backend, small.len(), factor
            );
        }
    }

    /// The batched `count_equal_width_many` kernel primitive equals the
    /// per-candidate loop for arbitrary widths and candidate counts
    /// (ragged blocks smaller than the accumulator width included).
    #[test]
    fn simd_batched_many_matches_scalar(
        probe in proptest::collection::vec(any::<u8>(), 0..150),
        n_candidates in 0usize..11,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let stores: Vec<Vec<u8>> = (0..n_candidates)
            .map(|_| {
                (0..probe.len())
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect()
            })
            .collect();
        let cands: Vec<&[u8]> = stores.iter().map(Vec::as_slice).collect();
        let mut expect = vec![0u64; cands.len()];
        ScalarKernel.count_equal_width_many(&probe, &cands, &mut expect);
        for backend in simd_backends() {
            let mut out = vec![0u64; cands.len()];
            backend.kernel().count_equal_width_many(&probe, &cands, &mut out);
            prop_assert_eq!(
                &out, &expect,
                "backend {}, width {}, candidates {}", backend, probe.len(), n_candidates
            );
        }
    }

    /// End to end: both one-vs-many drivers return exactly the
    /// pointwise intersection counts for arbitrary batmap sets with
    /// mixed widths (blocked equal-width path and pairwise fallback in
    /// one row), under every available backend pinned on the universe
    /// parameters. Rows hold up to 3·8+1 candidates, so they fill,
    /// straddle and leave partial the driver's stack block of eight.
    /// The drivers run over owned batmaps, over arena views, and over
    /// typed arena views.
    #[test]
    fn one_vs_many_driver_matches_pointwise(
        probe in btree_set(0u32..M as u32, 1..500),
        sets in proptest::collection::vec(btree_set(0u32..M as u32, 0..500), 0..26),
        seed in 0u64..200,
    ) {
        let expect: Vec<u64> = sets
            .iter()
            .map(|s| probe.intersection(s).count() as u64)
            .collect();
        let probe_v: Vec<u32> = probe.iter().copied().collect();
        let sets_v: Vec<Vec<u32>> = sets.iter().map(|s| s.iter().copied().collect()).collect();
        for backend in available_backends() {
            let params = Arc::new(
                BatmapParams::new(M, seed)
                    .with_engine_options(EngineOptions::auto().kernel(backend)),
            );
            let bp = Batmap::build_sorted(params.clone(), &probe_v).batmap;
            prop_assume!(bp.len() == probe_v.len());
            let many: Vec<Batmap> = sets_v
                .iter()
                .map(|v| Batmap::build_sorted(params.clone(), v).batmap)
                .collect();
            prop_assume!(many.iter().zip(&sets_v).all(|(m, v)| m.len() == v.len()));
            let mut out = vec![0u64; many.len()];
            intersect::count_one_vs_many_into(&bp, &many, &mut out);
            prop_assert_eq!(&out, &expect, "backend {} owned", backend);

            let mut builder = ArenaBuilder::new(params);
            builder.push_elements(&probe_v, SetRepr::Batmap);
            for v in &sets_v {
                builder.push_elements(v, SetRepr::Batmap);
            }
            let arena = builder.finish();
            let views = arena.views(1..arena.len());
            out.fill(u64::MAX);
            intersect::count_one_vs_many_into(&arena.get(0), &views, &mut out);
            prop_assert_eq!(&out, &expect, "backend {} arena views", backend);
            let typed = arena.payload_views(1..arena.len());
            out.fill(u64::MAX);
            intersect::count_mixed_one_vs_many_into(&arena.payload(0), &typed, &mut out);
            prop_assert_eq!(&out, &expect, "backend {} typed views", backend);
        }
    }
}

/// The AVX-512 kernel counts mismatches in byte counters folded every
/// 255 chunks of 64 bytes. At widths around that fold, with a ragged
/// tail and far past it, every backend must count all-match operands
/// (equal keys, indicator bits set) as the full width, all-mismatch
/// operands (equal keys, no indicator bit) as zero, and a mixed row
/// as the scalar reference does, for 1–9 candidates so full and
/// remainder accumulator blocks both run; the wrapped comparison
/// likewise, its fold falling inside and across parts of the large
/// operand.
#[test]
fn batched_counts_hold_across_the_counter_fold() {
    const FOLD: usize = 255 * 64;
    let widths = [
        FOLD - 64,
        FOLD,
        FOLD + 64,
        FOLD - 64 + 37,
        FOLD + 37,
        FOLD + 64 + 37,
        40_000,
        40_000 + 21,
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for width in widths {
        let matching: Vec<u8> = (0..width).map(|i| 0x80 | (i % 0x7F) as u8).collect();
        let silent: Vec<u8> = matching.iter().map(|b| b & 0x7F).collect();
        let noise: Vec<Vec<u8>> = (0..9)
            .map(|_| (0..width).map(|_| next() as u8).collect())
            .collect();
        for n in 1..=9 {
            for backend in available_backends() {
                let kernel = backend.kernel();
                let mut out = vec![u64::MAX; n];
                let all: Vec<&[u8]> = vec![&matching[..]; n];
                kernel.count_equal_width_many(&matching, &all, &mut out);
                assert_eq!(
                    out,
                    vec![width as u64; n],
                    "{backend} all-match, width {width}, n {n}"
                );
                let none: Vec<&[u8]> = vec![&silent[..]; n];
                kernel.count_equal_width_many(&silent, &none, &mut out);
                assert_eq!(
                    out,
                    vec![0; n],
                    "{backend} all-mismatch, width {width}, n {n}"
                );
                let mixed: Vec<&[u8]> = (0..n)
                    .map(|j| match j % 3 {
                        0 => &matching[..],
                        1 => &silent[..],
                        _ => &noise[j][..],
                    })
                    .collect();
                let mut expect = vec![0u64; n];
                ScalarKernel.count_equal_width_many(&matching, &mixed, &mut expect);
                kernel.count_equal_width_many(&matching, &mixed, &mut out);
                assert_eq!(out, expect, "{backend} mixed, width {width}, n {n}");
            }
        }
        for backend in available_backends() {
            let kernel = backend.kernel();
            assert_eq!(kernel.count_equal_width(&matching, &matching), width as u64);
            assert_eq!(kernel.count_equal_width(&silent, &silent), 0);
            let doubled: Vec<u8> = matching.iter().chain(&matching).copied().collect();
            assert_eq!(
                kernel.count_wrapped(&doubled, &matching),
                2 * width as u64,
                "{backend} wrapped, width {width}"
            );
        }
    }
    // Wrapped rows whose small operand is a few chunks: the counter
    // folds partway through a part of the large operand.
    for small_width in [6 * 64, 6 * 64 + 13, 7 * 64, 64 + 1] {
        let matching: Vec<u8> = (0..small_width).map(|i| 0x80 | (i % 0x7F) as u8).collect();
        let silent: Vec<u8> = matching.iter().map(|b| b & 0x7F).collect();
        let parts = 100;
        let repeat = |s: &[u8]| s.repeat(parts);
        for backend in available_backends() {
            let kernel = backend.kernel();
            assert_eq!(
                kernel.count_wrapped(&repeat(&matching), &matching),
                (parts * small_width) as u64,
                "{backend} wrapped all-match, small {small_width}"
            );
            assert_eq!(
                kernel.count_wrapped(&repeat(&silent), &silent),
                0,
                "{backend} wrapped all-mismatch, small {small_width}"
            );
        }
    }
}

#[test]
fn auto_resolution_under_forced_overrides() {
    let widest = KernelBackend::widest_available();
    assert!(widest.is_available());
    // Absent/auto overrides resolve to the widest available backend.
    assert_eq!(KernelBackend::resolve_override(None), widest);
    assert_eq!(KernelBackend::resolve_override(Some("auto")), widest);
    assert_eq!(KernelBackend::resolve_override(Some("  AUTO ")), widest);
    // Each forced concrete override resolves to itself when the CPU
    // supports it and downgrades to the widest available when not —
    // never to something unavailable, never to Auto.
    for (name, backend) in [
        ("scalar", KernelBackend::Scalar),
        ("swar32", KernelBackend::SwarU32),
        ("swar64", KernelBackend::SwarU64),
        ("neon", KernelBackend::Neon),
        ("avx2", KernelBackend::Avx2),
        ("avx512", KernelBackend::Avx512),
    ] {
        let resolved = KernelBackend::resolve_override(Some(name));
        assert_ne!(resolved, KernelBackend::Auto);
        assert!(resolved.is_available(), "{name} -> {resolved}");
        if backend.is_available() {
            assert_eq!(resolved, backend, "{name}");
        } else {
            assert_eq!(resolved, widest, "{name} must downgrade");
        }
    }
    // Garbage degrades instead of failing (CI matrix safety).
    assert_eq!(KernelBackend::resolve_override(Some("quantum")), widest);
    // Whatever the ambient BATMAP_KERNEL says, the process-wide Auto
    // resolution must obey the same policy.
    assert_eq!(
        KernelBackend::Auto.resolve(),
        KernelBackend::resolve_override(batmap::options::kernel_env())
    );
}

#[test]
fn simd_backends_report_their_lane_widths() {
    for backend in simd_backends() {
        let kernel = backend.kernel();
        let lanes = kernel.lanes();
        match backend {
            KernelBackend::Neon => assert_eq!(lanes, 16),
            KernelBackend::Avx2 => assert_eq!(lanes, 32),
            KernelBackend::Avx512 => assert_eq!(lanes, 64),
            _ => unreachable!(),
        }
        // The GPU simulator's amortized per-staged-word charge shrinks
        // with lane width — 32/lanes·4, i.e. 2 for neon, 1 for
        // avx2 — but floors at one scalar op, so avx512 also charges 1.
        assert_eq!(kernel.ops_per_staged_word(), ((32 / lanes) as u64).max(1));
    }
}
