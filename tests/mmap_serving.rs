//! Zero-copy snapshot serving, pinned end to end: the mmap load path
//! must be indistinguishable from the buffered one everywhere except
//! speed — byte-identical arenas, identical mining reports, identical
//! served answers — while corruption keeps getting caught (eagerly for
//! headers/side tables/truncation, via the deferred `verify()` for
//! payload flips).

#![cfg(all(unix, target_pointer_width = "64"))]

use batmap::{
    Batmap, BatmapArena, BatmapParams, EngineOptions, Parallelism, ReprPolicy, SnapshotLoad,
};
use fim::{TransactionDb, VerticalDb};
use pairminer::{mine_preprocessed, preprocess_with, Engine, MinerConfig, Preprocessed};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::sync::Arc;

/// Removes a test's temp directory when the test ends, passing or
/// failing.
struct RemoveDir(std::path::PathBuf);

impl Drop for RemoveDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A path named `name` in a fresh directory of its own (tests run
/// concurrently, so no two share one), and the guard that removes that
/// directory.
fn temp_path(name: &str) -> (RemoveDir, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("batmap-mmap-serving-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    (RemoveDir(dir), path)
}

fn db(n_items: u32, len: u32, stride: u32) -> TransactionDb {
    TransactionDb::new(
        n_items,
        (0..len)
            .map(|t| (0..n_items).filter(|&i| (t + i * stride) % 7 < 2).collect())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary small corpora, an arena opened through the mmap
    /// path is byte-identical to the heap-buffered open — every set,
    /// every representation tag — and its deferred `verify()` passes.
    #[test]
    fn mapped_arena_is_byte_identical_to_heap(
        sets in proptest::collection::vec(btree_set(0u32..2_000, 0..80), 1..12),
        seed in 0u64..100,
    ) {
        let params = Arc::new(BatmapParams::new(2_000, seed));
        let mut builder = batmap::ArenaBuilder::new(params.clone());
        for s in &sets {
            let v: Vec<u32> = s.iter().copied().collect();
            builder.push(&Batmap::build_sorted(params.clone(), &v).batmap);
        }
        let arena = builder.finish();
        let (_dir, path) = temp_path(&format!("prop-{seed}-{}.arena", sets.len()));
        arena.write_to_file(&path).unwrap();
        let heap = BatmapArena::read_from_file_with(&path, SnapshotLoad::Buffered).unwrap();
        let mapped = BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).unwrap();
        prop_assert!(mapped.verification_pending());
        mapped.verify().unwrap();
        prop_assert_eq!(heap.len(), mapped.len());
        for i in 0..heap.len() {
            prop_assert_eq!(heap.repr(i), mapped.repr(i), "set {}", i);
            prop_assert_eq!(
                heap.get(i).as_bytes(),
                mapped.get(i).as_bytes(),
                "set {}", i
            );
        }
    }

    /// Flipping any single byte of a corpus snapshot can never produce
    /// a silently-wrong mmap-served corpus: the open rejects it, or the
    /// deferred `verify()` does.
    #[test]
    fn any_byte_flip_is_caught_by_open_or_verify(poke_seed in any::<u64>()) {
        let v = VerticalDb::from_horizontal(&db(10, 300, 5));
        let pre = preprocess_with(&v, 3, 128, EngineOptions::auto().repr(ReprPolicy::Batmap));
        let (_dir, path) = temp_path("flip.snap");
        pre.write_snapshot_file(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let poke = (poke_seed as usize) % pristine.len();
        let mut bad = pristine.clone();
        bad[poke] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        let caught = match Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap) {
            Err(_) => true,
            Ok(mapped) => mapped.verify().is_err(),
        };
        prop_assert!(caught, "flip at byte {} of {} escaped", poke, pristine.len());
    }
}

/// End to end: a snapshot served through the mmap path yields a mining
/// report identical to the buffered path's, for both storage policies.
#[test]
fn mmap_and_buffered_corpora_mine_identically() {
    let d = db(24, 600, 7);
    let v = VerticalDb::from_horizontal(&d);
    for (name, repr) in [
        ("batmap", ReprPolicy::Batmap),
        ("hybrid", ReprPolicy::Hybrid),
    ] {
        let config = MinerConfig {
            minsup: 2,
            seed: 11,
            engine: Engine::Cpu,
            options: EngineOptions::auto()
                .repr(repr)
                .threads(Parallelism::Serial),
            ..MinerConfig::default()
        };
        let pre = preprocess_with(&v, config.seed, config.max_loop, config.options);
        let (_dir, path) = temp_path(&format!("mine-{name}.snap"));
        pre.write_snapshot_file(&path).unwrap();
        let buffered =
            Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Buffered).unwrap();
        let mapped = Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).unwrap();
        let a = mine_preprocessed(&d, &buffered, &config);
        let b = mine_preprocessed(&d, &mapped, &config);
        assert_eq!(
            a.pairs, b.pairs,
            "{name}: mmap mining must not change results"
        );
        assert_eq!(a.comparisons, b.comparisons, "{name}");
    }
}

/// The server's snapshot-open entry point honours the load knob and
/// serves byte-identical answers either way.
#[test]
fn server_open_snapshots_serves_identically_under_both_loads() {
    use batmap_server::{EngineConfig, QueryEngine, Request, Response};
    let d = db(16, 400, 3);
    let v = VerticalDb::from_horizontal(&d);
    let pre = preprocess_with(&v, 5, 128, EngineOptions::auto().repr(ReprPolicy::Batmap));
    let (_dir, path) = temp_path("served.snap");
    pre.write_snapshot_file(&path).unwrap();

    let answers = |load: SnapshotLoad| -> Vec<Response> {
        let config = EngineConfig {
            options: EngineOptions::auto().load(load),
            shards: 2,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::open_snapshots(&[&path], config).unwrap();
        let mut out = Vec::new();
        for a in 0..4u32 {
            for b in 0..16u32 {
                out.push(engine.query(0, Request::Count { a, b }));
            }
        }
        out.push(engine.query(
            0,
            Request::TopK {
                probe: batmap_server::proto::Probe::Set(1),
                k: 5,
            },
        ));
        out.push(engine.query(0, Request::Info));
        out
    };
    let buffered = answers(SnapshotLoad::Buffered);
    let mapped = answers(SnapshotLoad::Mmap);
    assert_eq!(
        buffered, mapped,
        "served answers must not depend on the load path"
    );
}

/// A corrupted snapshot cannot sneak into a serving engine through the
/// mmap path: `open_snapshots` surfaces the error.
#[test]
fn server_open_rejects_truncated_snapshots() {
    use batmap_server::{EngineConfig, QueryEngine};
    let v = VerticalDb::from_horizontal(&db(8, 200, 1));
    let pre = preprocess_with(&v, 2, 128, EngineOptions::auto().repr(ReprPolicy::Batmap));
    let (_dir, path) = temp_path("truncated.snap");
    pre.write_snapshot_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    for load in [SnapshotLoad::Buffered, SnapshotLoad::Mmap] {
        let config = EngineConfig {
            options: EngineOptions::auto().load(load),
            ..EngineConfig::default()
        };
        assert!(
            QueryEngine::open_snapshots(&[&path], config).is_err(),
            "a truncated snapshot must not open under {load}"
        );
    }
}
