//! Integration tests of the extension features: §V itemsets beyond
//! pairs end to end (triple mining), live point queries against
//! the pipeline, the command queue, and WAH interop with the other
//! formats.

use batmap::{EngineOptions, ReprPolicy};
use datagen::uniform::{generate, UniformSpec};
use fim::{apriori, WahBitmap};
use pairminer::{mine, LayeredCorpus, LevelwiseConfig, LevelwiseMiner, MinerConfig};

fn instance(n: u32, total: usize, density: f64, seed: u64) -> fim::TransactionDb {
    generate(&UniformSpec {
        n_items: n,
        density,
        total_items: total,
        seed,
    })
}

#[test]
fn triple_mining_end_to_end_matches_apriori() {
    let db = instance(30, 60_000, 0.12, 3);
    // Mean pair support ≈ m·p² ≈ 240; triples ≈ m·p³ ≈ 29.
    for minsup in [10u64, 25, 60] {
        let pairs = mine(
            &db,
            &MinerConfig {
                minsup,
                ..Default::default()
            },
        )
        .pairs;
        let report = LevelwiseMiner::new(LevelwiseConfig {
            depth: 3,
            pair: MinerConfig {
                minsup,
                ..Default::default()
            },
            ..Default::default()
        })
        .mine_from_pairs(&db, &pairs);
        let triples: Vec<_> = report.itemsets_of_len(3).into_iter().cloned().collect();
        let mut expect: Vec<_> = apriori::mine(&db, minsup, 3)
            .into_iter()
            .filter(|s| s.items.len() == 3)
            .collect();
        expect.sort_by(|a, b| a.items.cmp(&b.items));
        assert_eq!(triples, expect, "minsup={minsup}");
        if minsup <= 25 {
            assert!(
                !triples.is_empty(),
                "expected frequent triples at minsup={minsup}"
            );
        }
    }
}

#[test]
fn collection_mirrors_pipeline_counts() {
    let db = instance(40, 30_000, 0.05, 9);
    let report = mine(&db, &MinerConfig::default());
    let minsup = MinerConfig::default().minsup;
    // Point queries over the same corpus agree with the tiled pipeline
    // on every pair — the ones it reports, and the ones it prunes —
    // with and without failed insertions to correct for (an all-batmap
    // corpus, so the dense sets cannot move to a failure-free layout).
    let options = EngineOptions::auto().repr(ReprPolicy::Batmap);
    for max_loop in [128, 1] {
        let corpus = LayeredCorpus::new(&db, 0xC0, max_loop, options);
        if max_loop == 1 {
            assert!(!corpus.pre().failed.is_empty(), "MaxLoop 1 must fail");
        }
        for i in 0..db.n_items() {
            for j in (i + 1)..db.n_items() {
                let count = corpus.pair_count(i, j);
                match report.pairs.get(&(i, j)) {
                    Some(&support) => assert_eq!(count, support, "pair ({i},{j})"),
                    None => assert!(count < minsup, "pair ({i},{j}) pruned at {count}"),
                }
            }
        }
    }
}

#[test]
fn wah_agrees_with_bitmap_index_on_tidlists() {
    let db = instance(25, 20_000, 0.08, 17);
    let v = fim::VerticalDb::from_horizontal(&db);
    let idx = fim::BitmapIndex::from_vertical(&v);
    let wah: Vec<WahBitmap> = (0..v.n_items())
        .map(|i| WahBitmap::from_sorted(v.m(), v.tidlist(i)))
        .collect();
    for i in 0..v.n_items() {
        assert_eq!(wah[i as usize].count(), idx.support(i));
        for j in (i + 1)..v.n_items() {
            assert_eq!(
                wah[i as usize].intersect_count(&wah[j as usize]),
                idx.pair_support(i, j),
                "pair ({i},{j})"
            );
        }
    }
}

#[test]
fn command_queue_totals_match_manual_accounting() {
    use gpu_sim::{CommandQueue, DeviceSpec};
    use pairminer::gpu::{run_tile, run_tile_queued, DeviceData};
    let db = instance(32, 20_000, 0.05, 21);
    let v = fim::VerticalDb::from_horizontal(&db);
    let pre = pairminer::preprocess(&v, 1, 128);
    let data = DeviceData::upload(&pre);
    let device = DeviceSpec::gtx285();
    let tiles = pairminer::schedule(pre.padded_items(), 16);
    let mut queue = CommandQueue::new(&device);
    queue.enqueue_transfer(&data.buffer);
    let mut manual_kernel_s = 0.0;
    for &tile in &tiles {
        let direct = run_tile(&device, &data, tile);
        let queued = run_tile_queued(&mut queue, &data, tile);
        assert_eq!(direct.counts, queued.counts, "tile ({},{})", tile.p, tile.q);
        manual_kernel_s += direct.report.seconds();
    }
    let expect = manual_kernel_s + queue.transfer_seconds();
    assert!((queue.elapsed_seconds() - expect).abs() < 1e-12);
    assert_eq!(queue.launches(), tiles.len());
    assert_eq!(queue.watchdog_violations(), 0);
}

#[test]
fn declat_matches_eclat_on_generated_instance() {
    let db = instance(20, 15_000, 0.15, 31);
    for minsup in [5u64, 40] {
        assert_eq!(
            fim::eclat::mine_diffsets(&db, minsup, 4),
            fim::eclat::mine(&db, minsup, 4),
            "minsup={minsup}"
        );
    }
}
