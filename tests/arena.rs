//! Property tests for the arena storage layer: arena-backed views must
//! be indistinguishable from owned batmaps for every counting path, at
//! every kernel backend, across arbitrary databases and set widths; and
//! snapshot persistence must be lossless (roundtrips preserve every
//! pairwise and multiway count) while corrupted snapshots are rejected.

use batmap::{
    intersect, multiway, ArenaBuilder, Batmap, BatmapArena, BatmapParams, EngineOptions,
    KernelBackend,
};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::sync::Arc;

const M: u64 = 20_000;

/// A database: a handful of sets with wildly different sizes, so the
/// arena holds genuinely mixed widths (the folding path included).
fn arb_db() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        (0usize..4).prop_flat_map(|scale| {
            // 0..8, 0..64, 0..512, 0..2048 elements → several widths.
            let cap = 8usize << (3 * scale);
            btree_set(0u32..M as u32, 0..cap).prop_map(|s| s.into_iter().collect::<Vec<u32>>())
        }),
        2..7,
    )
}

/// One of the backends this CPU can actually run.
fn arb_backend() -> impl Strategy<Value = KernelBackend> {
    let available: Vec<KernelBackend> = batmap::available_backends().collect();
    (0..available.len()).prop_map(move |i| available[i])
}

/// Build the same sets as owned batmaps and as one arena.
fn build_both(params: &batmap::ParamsHandle, sets: &[Vec<u32>]) -> (Vec<Batmap>, BatmapArena) {
    let owned: Vec<Batmap> = sets
        .iter()
        .map(|s| Batmap::build_sorted(params.clone(), s).batmap)
        .collect();
    let mut builder = ArenaBuilder::new(params.clone());
    for bm in &owned {
        builder.push(bm);
    }
    (owned, builder.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena-backed counts equal owned-batmap counts: pairwise (both
    /// argument orders and mixed storage), batched one-vs-many, and the
    /// multiway probe sweep — for arbitrary databases, widths, and
    /// every kernel backend available on this CPU.
    #[test]
    fn arena_counts_equal_owned_counts(
        sets in arb_db(),
        backend in arb_backend(),
        seed in 0u64..500,
    ) {
        let params = Arc::new(BatmapParams::new(M, seed).with_engine_options(EngineOptions::auto().kernel(backend)));
        let (owned, arena) = build_both(&params, &sets);
        prop_assume!(owned.iter().zip(&sets).all(|(b, s)| b.len() == s.len()));

        // Pairwise, both orders, owned/view mixed.
        for i in 0..owned.len() {
            for j in 0..owned.len() {
                let expect = owned[i].intersect_count(&owned[j]);
                prop_assert_eq!(arena.get(i).intersect_count(&arena.get(j)), expect);
                prop_assert_eq!(arena.get(i).intersect_count(&owned[j]), expect);
                prop_assert_eq!(owned[i].intersect_count(&arena.get(j)), expect);
                prop_assert_eq!(
                    intersect::count_with(backend.kernel(), &arena.get(i), &arena.get(j)),
                    expect
                );
            }
        }

        // Batched one-vs-many over views vs over owned batmaps.
        let views = arena.views(0..arena.len());
        for i in 0..owned.len() {
            let mut from_views = vec![0u64; views.len()];
            intersect::count_one_vs_many_into(&arena.get(i), &views, &mut from_views);
            let mut from_owned = vec![0u64; owned.len()];
            intersect::count_one_vs_many_into(&owned[i], &owned, &mut from_owned);
            prop_assert_eq!(from_views, from_owned);
        }

        // The §V probe sweep (multiway counting on pairwise batmaps).
        if owned.len() >= 3 {
            let view_ops: Vec<_> = (0..3).map(|i| arena.get(i)).collect();
            let view_refs: Vec<&_> = view_ops.iter().collect();
            let owned_refs: Vec<&Batmap> = owned[..3].iter().collect();
            prop_assert_eq!(
                multiway::intersect_count_probe(&view_refs),
                multiway::intersect_count_probe(&owned_refs)
            );
        }
    }

    /// Snapshot write→read roundtrip preserves every pairwise count,
    /// every multiway probe count, and every decoded element set.
    #[test]
    fn snapshot_roundtrip_preserves_counts(
        sets in arb_db(),
        backend in arb_backend(),
        seed in 0u64..500,
    ) {
        let params = Arc::new(BatmapParams::new(M, seed).with_engine_options(EngineOptions::auto().kernel(backend)));
        let (owned, arena) = build_both(&params, &sets);
        prop_assume!(owned.iter().zip(&sets).all(|(b, s)| b.len() == s.len()));
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let loaded = BatmapArena::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.len(), arena.len());
        prop_assert_eq!(loaded.params().kernel_backend(), backend);
        for i in 0..arena.len() {
            let mut e = loaded.get(i).elements();
            e.sort_unstable();
            prop_assert_eq!(&e, &sets[i]);
            for j in 0..arena.len() {
                prop_assert_eq!(
                    loaded.get(i).intersect_count(&loaded.get(j)),
                    owned[i].intersect_count(&owned[j]),
                    "pair ({}, {})", i, j
                );
            }
        }
        if arena.len() >= 3 {
            let ops: Vec<_> = (0..3).map(|i| loaded.get(i)).collect();
            let refs: Vec<&_> = ops.iter().collect();
            let owned_refs: Vec<&Batmap> = owned[..3].iter().collect();
            prop_assert_eq!(
                multiway::intersect_count_probe(&refs),
                multiway::intersect_count_probe(&owned_refs)
            );
        }
    }

    /// Corruption anywhere in the checked regions — magic, version,
    /// structural header bytes, directory, payload, or truncation —
    /// must be rejected, never served as silently-wrong counts.
    #[test]
    fn snapshot_rejects_corrupted_headers(
        sets in arb_db(),
        seed in 0u64..200,
        poke in 0usize..1_000_000,
        flip in 1u8..255,
    ) {
        let params = Arc::new(BatmapParams::new(M, seed));
        let (_, arena) = build_both(&params, &sets);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();

        // Magic.
        let mut bad = buf.clone();
        bad[0] ^= flip;
        prop_assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Version word.
        let mut bad = buf.clone();
        bad[8] ^= flip;
        prop_assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Payload (tail region): checksum must catch any flipped byte.
        let payload_start = buf.len() - arena.backing_bytes();
        let mut bad = buf.clone();
        let idx = payload_start + poke % arena.backing_bytes().max(1);
        bad[idx] ^= flip;
        prop_assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Truncation at an arbitrary point.
        let cut = poke % buf.len().max(1);
        prop_assert!(BatmapArena::read_from(&mut &buf[..cut]).is_err());

        // The pristine buffer still loads (the corruption cases above
        // are rejections of *those* bytes, not flakiness).
        prop_assert!(BatmapArena::read_from(&mut buf.as_slice()).is_ok());
    }
}

/// The in-place arena preprocessing path must produce byte-identical
/// slot arrays to per-set owned builds over the same universe — the
/// storage refactor may not change a single bit of the layout.
#[test]
fn preprocessed_arena_bytes_match_owned_builds() {
    use fim::{TransactionDb, VerticalDb};
    let db = TransactionDb::new(
        40,
        (0..700usize)
            .map(|t| {
                (0..40u32)
                    .filter(|&i| (t as u32 + i * 3) % 11 < 3)
                    .collect()
            })
            .collect(),
    );
    let v = VerticalDb::from_horizontal(&db);
    let pre = pairminer::preprocess(&v, 0xA1, 128);
    for (s, &item) in pre.order.iter().enumerate() {
        let owned = Batmap::build_sorted(pre.params.clone(), v.tidlist(item)).batmap;
        assert_eq!(
            pre.batmap(s).as_bytes(),
            owned.as_bytes(),
            "sorted position {s} (item {item})"
        );
        assert_eq!(pre.batmap(s).len(), owned.len());
    }
}
