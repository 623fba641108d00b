//! Snapshot-serving equivalence, pinned: `mine` end-to-end over the
//! tiled engines and `mine_levelwise` must produce identical reports
//! whether the corpus is freshly built inside `mine`, arena-built
//! up front (`preprocess` + `mine_preprocessed`), or loaded from a
//! persisted snapshot (`write_snapshot` → `read_snapshot` →
//! `mine_preprocessed`) — the storage layer and the persistence format
//! must be invisible to every mining result.

use batmap::{Parallelism, ReprPolicy, SnapshotError};
use fim::{TransactionDb, VerticalDb};
use gpu_sim::DeviceSpec;
use pairminer::{
    mine, mine_preprocessed, preprocess_with, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig,
    Preprocessed,
};

fn db() -> TransactionDb {
    TransactionDb::new(
        36,
        (0..800usize)
            .map(|t| (0..36u32).filter(|&i| (t as u32 + i * 7) % 9 < 2).collect())
            .collect(),
    )
}

/// Build the corpus exactly as `mine` would for `config`, then push it
/// through a snapshot write→read cycle.
fn snapshot_corpus(d: &TransactionDb, config: &MinerConfig) -> Preprocessed {
    let vertical = VerticalDb::from_horizontal(d);
    let pre = preprocess_with(
        &vertical,
        config.seed,
        config.max_loop,
        config.options.repr(ReprPolicy::Batmap),
    );
    let mut buf = Vec::new();
    pre.write_snapshot(&mut buf).unwrap();
    Preprocessed::read_snapshot(&mut buf.as_slice()).unwrap()
}

#[test]
fn mine_is_identical_fresh_arena_built_and_snapshot_loaded() {
    let d = db();
    for engine in [Engine::Cpu, Engine::Gpu(DeviceSpec::gtx285())] {
        for threads in [Parallelism::Serial, Parallelism::threads(4)] {
            let config = MinerConfig {
                k: 32,
                engine: engine.clone(),
                options: batmap::EngineOptions::auto().threads(threads),
                ..Default::default()
            };
            // Freshly built inside `mine`.
            let fresh = mine(&d, &config);
            // Arena-built up front, served without re-preprocessing.
            let vertical = VerticalDb::from_horizontal(&d);
            let pre = preprocess_with(
                &vertical,
                config.seed,
                config.max_loop,
                config.options.repr(ReprPolicy::Batmap),
            );
            let arena_built = mine_preprocessed(&d, &pre, &config);
            // Loaded from a persisted snapshot.
            let loaded = snapshot_corpus(&d, &config);
            let snapshot_served = mine_preprocessed(&d, &loaded, &config);

            let label = format!("engine {engine:?} threads {threads}");
            assert_eq!(fresh.pairs, arena_built.pairs, "{label} (arena-built)");
            assert_eq!(fresh.pairs, snapshot_served.pairs, "{label} (snapshot)");
            assert_eq!(fresh.comparisons, snapshot_served.comparisons, "{label}");
            assert_eq!(
                fresh.failed_pair_occurrences, snapshot_served.failed_pair_occurrences,
                "{label}"
            );
            // Serving a snapshot pays no preprocessing.
            assert_eq!(snapshot_served.timings.preprocess_s, 0.0, "{label}");
        }
    }
}

#[test]
fn snapshot_serving_recovers_failed_insertions_too() {
    // MaxLoop = 1 forces failed insertions; the snapshot carries the
    // failure list, so the served counts stay exact.
    let d = TransactionDb::new(
        24,
        (0..3000usize)
            .map(|t| {
                (0..24u32)
                    .filter(|&i| (t as u32 + i * 7) % 30 < 2)
                    .collect()
            })
            .collect(),
    );
    let config = MinerConfig {
        max_loop: 1,
        ..Default::default()
    };
    let fresh = mine(&d, &config);
    assert!(
        fresh.failed_pair_occurrences > 0,
        "fixture must force failures"
    );
    let loaded = snapshot_corpus(&d, &config);
    assert!(!loaded.failed.is_empty(), "snapshot must carry failures");
    let served = mine_preprocessed(&d, &loaded, &config);
    assert_eq!(fresh.pairs, served.pairs);
    assert_eq!(
        fresh.failed_pair_occurrences,
        served.failed_pair_occurrences
    );
    assert_eq!(fresh.pairs, fim::pairs::brute_force_pairs(&d, 1));
}

#[test]
fn mine_levelwise_is_identical_fresh_and_snapshot_loaded() {
    let d = db();
    let config = LevelwiseConfig {
        depth: 4,
        pair: MinerConfig {
            minsup: 25,
            engine: Engine::Cpu,
            ..Default::default()
        },
        ..Default::default()
    };
    let miner = LevelwiseMiner::new(config.clone());
    let fresh = miner.mine(&d);
    let loaded = snapshot_corpus(&d, &config.pair);
    let served = miner.mine_with_preprocessed(&d, &loaded);
    assert_eq!(fresh.itemsets, served.itemsets);
    assert_eq!(fresh.levels.len(), served.levels.len());
    for (f, s) in fresh.levels.iter().zip(&served.levels) {
        assert_eq!(
            (f.k, f.candidates, f.frequent),
            (s.k, s.candidates, s.frequent)
        );
    }
    assert!(served.pair_report.is_some());
}

/// A snapshot fixture small enough to probe byte-by-byte.
fn tiny_snapshot_bytes() -> Vec<u8> {
    let d = TransactionDb::new(
        10,
        (0..60usize)
            .map(|t| (0..10u32).filter(|&i| (t as u32 + i * 3) % 5 < 2).collect())
            .collect(),
    );
    let vertical = VerticalDb::from_horizontal(&d);
    let pre = preprocess_with(
        &vertical,
        3,
        128,
        batmap::EngineOptions::auto().repr(ReprPolicy::Hybrid),
    );
    let mut buf = Vec::new();
    pre.write_snapshot(&mut buf).unwrap();
    buf
}

/// The mapped half of the every-byte oracles: `bytes` written to
/// `path`, opened through `SnapshotLoad::Mmap` and then `verify()`-ed
/// (where a mapped load reports payload damage) must fail with the
/// same `SnapshotError` variant as the buffered load did.
#[cfg(all(unix, target_pointer_width = "64"))]
fn assert_mapped_fails_alike(
    path: &std::path::Path,
    bytes: &[u8],
    buffered: &SnapshotError,
    what: &str,
) {
    std::fs::write(path, bytes).unwrap();
    match Preprocessed::read_snapshot_file_with(path, batmap::SnapshotLoad::Mmap)
        .and_then(|pre| pre.verify())
    {
        Ok(()) => panic!("{what}: the mapped load parsed"),
        Err(e) => assert_eq!(
            std::mem::discriminant(&e),
            std::mem::discriminant(buffered),
            "{what}: mapped load said {e}, buffered load said {buffered}"
        ),
    }
}

/// A scratch file for the mapped half of one oracle.
fn probe_path(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("batmap-snapprobe-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("probe.snap")
}

/// A write torn at *any* byte — mid-magic, mid-header, mid-directory,
/// mid-payload, mid-side-tables — must come back as the torn-write
/// variant of the taxonomy ([`batmap::SnapshotError::is_torn`]), never
/// a panic, never a silent success, and never be misread as bit-rot;
/// the buffered and the mapped load alike.
#[test]
fn truncation_at_every_byte_reads_as_torn() {
    let bytes = tiny_snapshot_bytes();
    let path = probe_path("truncate");
    for cut in 0..bytes.len() {
        match Preprocessed::read_snapshot(&mut &bytes[..cut]) {
            Ok(_) => panic!("truncation at byte {cut}/{} parsed", bytes.len()),
            Err(e) => {
                assert!(
                    e.is_torn(),
                    "truncation at byte {cut}/{} must read as torn, got: {e}",
                    bytes.len()
                );
                #[cfg(all(unix, target_pointer_width = "64"))]
                assert_mapped_fails_alike(&path, &bytes[..cut], &e, &format!("cut at {cut}"));
            }
        }
    }
    // And the untouched bytes still load, so the loop above proved
    // something about truncation, not about a broken fixture.
    Preprocessed::read_snapshot(&mut bytes.as_slice()).unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The byte ranges of `bytes` (a corpus snapshot) that a checksum or a
/// zero-pad check covers: the side-table JSON and its pad, then the
/// embedded arena's header JSON, directory, pad and payload.
fn checksummed_sections(bytes: &[u8]) -> Vec<(&'static str, std::ops::Range<usize>)> {
    let le_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let align = |at: usize| at.next_multiple_of(batmap::arena::SET_ALIGN);
    let loaded = Preprocessed::read_snapshot(&mut &bytes[..]).unwrap();
    let side_end = 24 + le_u32(12);
    let arena_at = align(side_end);
    let dir_at = arena_at + 24 + le_u32(arena_at + 12);
    let dir_end = dir_at + 32 * loaded.arena.len();
    let payload_at = align(dir_end);
    assert_eq!(payload_at + loaded.arena.backing_bytes(), bytes.len());
    vec![
        ("side-table JSON", 24..side_end),
        ("side-table pad", side_end..arena_at),
        ("arena header JSON", arena_at + 24..dir_at),
        ("directory", dir_at..dir_end),
        ("arena pad", dir_end..payload_at),
        ("payload", payload_at..bytes.len()),
    ]
}

/// Bit-rot: flipping the low bit of any single byte must fail the
/// read with a typed error, the same one on the buffered and the
/// mapped load. Every byte a checksum or a zero-pad check covers must
/// report `Corrupted`; the magic/version envelope must report a format
/// error; nothing may parse successfully.
#[test]
fn single_bit_corruption_never_parses() {
    let bytes = tiny_snapshot_bytes();
    let sections = checksummed_sections(&bytes);
    let path = probe_path("bitflip");
    let mut saw_format = false;
    for i in 0..bytes.len() {
        let mut rotten = bytes.clone();
        rotten[i] ^= 1;
        let e = match Preprocessed::read_snapshot(&mut rotten.as_slice()) {
            Ok(_) => panic!("bit flip at byte {i} parsed successfully"),
            Err(e) => e,
        };
        if let Some((section, _)) = sections.iter().find(|(_, r)| r.contains(&i)) {
            assert!(
                matches!(e, SnapshotError::Corrupted(_)),
                "bit flip at byte {i} ({section}) must read as corrupted, got: {e}"
            );
        }
        // Length-field flips legitimately look like truncation; Io
        // cannot happen from an in-memory slice.
        saw_format |= matches!(e, SnapshotError::Format(_));
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_mapped_fails_alike(&path, &rotten, &e, &format!("bit flip at byte {i}"));
    }
    assert!(saw_format, "the magic/version envelope must be validated");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The atomic write path: a failure while filling the temp file must
/// leave a previously persisted snapshot byte-identical and loadable,
/// and must not litter the directory with temp files.
#[test]
fn failed_atomic_write_preserves_previous_snapshot() {
    let dir = std::env::temp_dir().join(format!("batmap-snaptest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.batmap");
    let golden = tiny_snapshot_bytes();
    batmap::arena::atomic_write(&path, |w| {
        use std::io::Write;
        w.write_all(&golden)
    })
    .unwrap();

    // Fill halfway, then die.
    let result = batmap::arena::atomic_write(&path, |w| {
        use std::io::Write;
        w.write_all(&golden[..golden.len() / 2])?;
        Err(std::io::Error::other("simulated crash mid-write"))
    });
    assert!(result.is_err());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        golden,
        "old snapshot must be byte-identical after a failed overwrite"
    );
    Preprocessed::read_snapshot(&mut std::fs::read(&path).unwrap().as_slice()).unwrap();
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .count();
    assert_eq!(leftovers, 0, "failed writes must clean up their temp file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_preprocessed_rejects_mismatched_database() {
    let d = db();
    let other = TransactionDb::new(12, vec![vec![0, 1], vec![1, 2]]);
    let config = MinerConfig::default();
    let loaded = snapshot_corpus(&d, &config);
    let result = std::panic::catch_unwind(|| mine_preprocessed(&other, &loaded, &config));
    assert!(result.is_err(), "foreign database must be rejected");
}

/// A corpus as `preprocess` built it before `range_for` moved to
/// `2^⌈log₂ ⌈3|S|/2⌉⌉`: every batmap at the paper's §III-A range
/// `max(r₀, 2·2^⌈log₂|S|⌉)`, sets sorted by that width (ties by item
/// id) and padded to a multiple of [`pairminer::BLOCK`], failures
/// indexed by sorted position. Built in place through
/// `BatmapArena::with_ranges`.
fn old_width_corpus(d: &TransactionDb, seed: u64, max_loop: u32) -> Preprocessed {
    use batmap::{BatmapArena, BatmapBuilder, BatmapParams, EngineOptions};
    let v = VerticalDb::from_horizontal(d);
    let params = std::sync::Arc::new(
        BatmapParams::with_options(v.m() as u64, seed, max_loop, pairminer::GPU_MIN_SHIFT)
            .with_engine_options(EngineOptions::auto().repr(ReprPolicy::Batmap)),
    );
    let old_range = |len: usize| (2 * len.max(1).next_power_of_two() as u64).max(params.r0());
    let n = v.n_items();
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&i| (old_range(v.tidlist(i).len()), i));
    let mut item_to_sorted = vec![0u32; n as usize];
    for (s, &item) in order.iter().enumerate() {
        item_to_sorted[item as usize] = s as u32;
    }
    let padded = (n as usize).next_multiple_of(pairminer::BLOCK);
    let tidlist = |s: usize| {
        if s < n as usize {
            v.tidlist(order[s])
        } else {
            &[]
        }
    };
    let ranges: Vec<u64> = (0..padded).map(|s| old_range(tidlist(s).len())).collect();
    let mut stage = BatmapArena::with_ranges(params.clone(), &ranges);
    let (mut lens, mut failed) = (Vec::new(), Vec::new());
    for (s, out) in stage.set_slices().into_iter().enumerate() {
        // Under the current rule a size hint of 2^⌈log₂|S|⌉ yields the
        // old range.
        let mut builder =
            BatmapBuilder::with_capacity(params.clone(), tidlist(s).len().next_power_of_two());
        assert_eq!(builder.range(), ranges[s]);
        builder.extend_sorted_dedup(tidlist(s));
        let outcome = builder.finish_into(out);
        failed.extend(outcome.failed.iter().map(|&tid| (s as u32, tid)));
        lens.push(outcome.len);
    }
    failed.sort_unstable();
    Preprocessed {
        params,
        arena: stage.finish(&lens),
        order,
        item_to_sorted,
        n_items: n,
        failed,
        stats: Default::default(),
    }
}

#[test]
fn old_width_corpus_loads_counts_exactly_and_never_shrinks_on_insert() {
    // 3,000 live transactions and 200 free slots. Items 0..16 hold 150
    // tids, where the old rule's range (512) is twice the current one
    // (256); items 16..24 hold 200, where both rules agree. MaxLoop 1
    // forces failed insertions at either width.
    let d = TransactionDb::new(
        24,
        (0..3_200u32)
            .map(|t| {
                (0..24u32)
                    .filter(|&i| t < 3_000 && (t + 7 * i) % if i < 16 { 20 } else { 15 } == 0)
                    .collect()
            })
            .collect(),
    );
    let seed = MinerConfig::default().seed;
    let old = old_width_corpus(&d, seed, 1);
    let widened = (0..old.n_items as usize)
        .filter(|&s| old.batmap(s).range() > old.params.range_for(old.batmap(s).len()))
        .count();
    assert_eq!(widened, 16, "fixture must sit where the two rules differ");
    assert!(!old.failed.is_empty(), "fixture must force failures");

    // Both snapshot envelopes keep every set's stored range and bytes.
    let mut arena_bytes = Vec::new();
    old.arena.write_to(&mut arena_bytes).unwrap();
    let arena = batmap::BatmapArena::read_from(&mut arena_bytes.as_slice()).unwrap();
    let mut corpus_bytes = Vec::new();
    old.write_snapshot(&mut corpus_bytes).unwrap();
    let loaded = Preprocessed::read_snapshot(&mut corpus_bytes.as_slice()).unwrap();
    assert_eq!(loaded.failed, old.failed);
    for s in 0..old.padded_items() {
        for copy in [arena.get(s), loaded.batmap(s)] {
            assert_eq!(copy.range(), old.batmap(s).range(), "set {s}");
            assert_eq!(copy.as_bytes(), old.batmap(s).as_bytes(), "set {s}");
        }
    }

    // Mining and the exact per-pair correction both match the tidlist
    // oracle, before and after delta inserts.
    for threads in [Parallelism::Serial, Parallelism::threads(2)] {
        let config = MinerConfig {
            k: 16,
            max_loop: 1,
            engine: Engine::Cpu,
            options: batmap::EngineOptions::auto().threads(threads),
            ..Default::default()
        };
        let served = mine_preprocessed(&d, &loaded, &config);
        assert_eq!(served.pairs, fim::pairs::brute_force_pairs(&d, 1));
        assert!(served.failed_pair_occurrences > 0);
    }
    let mut live = pairminer::LayeredCorpus::from_preprocessed(loaded, seed);
    let assert_exact = |live: &pairminer::LayeredCorpus| {
        let v = VerticalDb::from_horizontal(&live.database());
        for a in 0..24u32 {
            for b in a + 1..24 {
                let oracle = v
                    .tidlist(a)
                    .iter()
                    .filter(|t| v.tidlist(b).binary_search(t).is_ok())
                    .count() as u64;
                assert_eq!(live.pair_count(a, b), oracle, "pair ({a}, {b})");
            }
        }
    };
    assert_exact(&live);
    for tid in 3_000..3_200u32 {
        let items: Vec<u32> = (0..24).filter(|&i| (tid + i) % 3 == 0).collect();
        let before: Vec<u64> = (0..24).map(|i| live.count(i)).collect();
        live.insert_txn(tid, &items).unwrap();
        for i in 0..24u32 {
            let grew = items.contains(&i) as u64;
            assert_eq!(
                live.count(i),
                before[i as usize] + grew,
                "item {i}, tid {tid}"
            );
        }
    }
    assert_exact(&live);
}
