//! Chaos suite: the serving stack under injected faults.
//!
//! Every test here arms named fault points (`batmap::fault`) and then
//! asserts the hardening invariants the server promises:
//!
//! - every **delivered** answer is byte-identical to an unfaulted
//!   replay — faults may shed or error queries, never corrupt them;
//! - worker panics are contained, answered with typed errors, and the
//!   worker is restarted by its supervisor;
//! - overload sheds with a typed [`Response::Overloaded`], not by
//!   queueing without bound;
//! - the server always shuts down cleanly;
//! - a crash mid-snapshot-write leaves the previous snapshot loadable.
//!
//! The fault registry is process-global, so every test serializes on
//! one gate mutex and disarms on both entry and exit (panic included).

use batmap::{EngineOptions, Parallelism, ReprPolicy};
use batmap_server::proto::encode_response;
use batmap_server::{
    Client, EngineConfig, Probe, QueryEngine, Request, Response, RetryPolicy, Server,
};
use fim::{TransactionDb, VerticalDb};
use pairminer::{
    preprocess_with, Engine, IngestError, LayeredCorpus, LevelwiseConfig, LevelwiseMiner,
    MinerConfig, Preprocessed, WindowedMiner,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Mutex;

/// Global gate: fault points are process-wide state, so chaos tests
/// must not overlap. The guard disarms everything on entry and again
/// on drop so a panicking test cannot leak an armed fault into the
/// next one.
static GATE: Mutex<()> = Mutex::new(());

struct FaultGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

fn guarded() -> FaultGuard<'static> {
    let lock = GATE.lock().unwrap_or_else(|p| p.into_inner());
    batmap::fault::disarm_all();
    FaultGuard { _lock: lock }
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        batmap::fault::disarm_all();
    }
}

fn db() -> TransactionDb {
    TransactionDb::new(
        20,
        (0..240usize)
            .map(|t| (0..20u32).filter(|&i| (t as u32 + i * 5) % 7 < 2).collect())
            .collect(),
    )
}

/// Like [`db`], but with the trailing 40 transaction slots left free so
/// write-path tests have room to insert.
fn writable_db() -> TransactionDb {
    TransactionDb::new(
        20,
        (0..240usize)
            .map(|t| {
                if t >= 200 {
                    Vec::new()
                } else {
                    (0..20u32).filter(|&i| (t as u32 + i * 5) % 7 < 2).collect()
                }
            })
            .collect(),
    )
}

/// Deterministic non-empty ascending item list for writes to slot `tid`.
fn write_items(tid: u32) -> Vec<u32> {
    let mut items: Vec<u32> = (0..20).filter(|&i| (tid + i * 3) % 5 < 2).collect();
    if items.is_empty() {
        items.push(tid % 20);
    }
    items
}

fn corpus(d: &TransactionDb) -> Preprocessed {
    let v = VerticalDb::from_horizontal(d);
    preprocess_with(&v, 7, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid))
}

fn engine_with(pre: &Preprocessed, shards: usize, max_queue_depth: usize) -> QueryEngine {
    QueryEngine::new(
        vec![pre.clone()],
        EngineConfig {
            options: EngineOptions::auto().threads(Parallelism::Serial),
            shards,
            max_queue_depth,
            ..EngineConfig::default()
        },
    )
}

/// `true` for the typed degraded-mode responses a faulted server may
/// legitimately deliver instead of an answer.
fn is_degraded(response: &Response) -> bool {
    matches!(response, Response::Error(_) | Response::Overloaded)
}

/// The spec grammar round-trips through the registry (the env-arming
/// path itself is pinned in `tests/faultpoints_env.rs`, in its own
/// binary — this suite disarms the global registry at will).
#[test]
fn spec_arms_and_disarms_fault_points() {
    let _guard = guarded();
    batmap::fault::arm_from_spec("chaos.env.probe=error(manual)x1").unwrap();
    assert!(batmap::fault::armed_sites()
        .iter()
        .any(|s| s == "chaos.env.probe"));
    batmap::fault::disarm("chaos.env.probe");
    assert!(batmap::fault::armed_sites().is_empty());
}

/// A worker panic mid-batch is contained: the in-flight query gets a
/// typed error (never a hang, never a torn reply), the supervisor
/// restarts the worker, and the next query on the same shard succeeds.
#[test]
fn worker_panic_is_answered_and_worker_restarts() {
    let _guard = guarded();
    let d = db();
    let pre = corpus(&d);
    let engine = engine_with(&pre, 1, 0);
    let clean = engine_with(&pre, 1, 0);
    let want = clean.query(0, Request::Count { a: 1, b: 2 });

    batmap::fault::arm("engine.worker.batch", "panic(injected worker crash)x1").unwrap();
    match engine.query(0, Request::Count { a: 1, b: 2 }) {
        Response::Error(message) => assert!(
            message.contains("panic"),
            "typed error should say the worker panicked: {message}"
        ),
        other => panic!("expected a typed error from the panicked worker, got {other:?}"),
    }
    assert!(
        engine.worker_restarts() >= 1,
        "supervisor must restart the worker"
    );

    // The restarted worker answers correctly.
    let after = engine.query(0, Request::Count { a: 1, b: 2 });
    assert_eq!(encode_response(0, &after), encode_response(0, &want));
}

/// A panic inside one top-k shard must never deliver a partial merge:
/// the query errors whole, then succeeds once the fault is spent.
#[test]
fn topk_shard_panic_never_delivers_partial_results() {
    let _guard = guarded();
    let d = db();
    let pre = corpus(&d);
    let engine = engine_with(&pre, 2, 0);
    let clean = engine_with(&pre, 2, 0);
    let request = Request::TopK {
        probe: Probe::Set(3),
        k: 4,
    };
    let want = clean.query(0, request.clone());

    batmap::fault::arm("engine.topk.shard", "panic(injected shard crash)x1").unwrap();
    match engine.query(0, request.clone()) {
        Response::Error(_) => {}
        other => panic!("a faulted top-k must error whole, got {other:?}"),
    }
    let after = engine.query(0, request);
    assert_eq!(encode_response(0, &after), encode_response(0, &want));
}

/// With a queue cap of 1 and a deliberately slowed worker, a deep
/// pipeline must shed with `Response::Overloaded` — and everything that
/// *was* delivered must still replay byte-identically.
#[test]
fn overload_sheds_typed_and_delivered_answers_stay_exact() {
    let _guard = guarded();
    let d = db();
    let pre = corpus(&d);
    let engine = engine_with(&pre, 1, 1);
    let clean = engine_with(&pre, 1, 0);

    batmap::fault::arm("engine.worker.batch", "delay(25)").unwrap();
    let handle = Server::bind_tcp("127.0.0.1:0").unwrap().serve(engine);
    let addr = handle.tcp_addr().unwrap();

    let requests: Vec<Request> = (0..64u32)
        .map(|i| Request::Count {
            a: i % 20,
            b: (i + 3) % 20,
        })
        .collect();
    let mut client = Client::connect_tcp(addr)
        .unwrap()
        .with_retry(RetryPolicy::none());
    let outcomes = client.pipeline_outcomes(0, &requests);
    // The replay engine lives in this same process and would hit the
    // global fault points too — disarm before computing oracles.
    batmap::fault::disarm_all();

    let mut shed = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(Response::Overloaded) => shed += 1,
            Ok(response) => {
                let want = clean.query(0, requests[i].clone());
                assert_eq!(
                    encode_response(i as u64, response),
                    encode_response(i as u64, &want),
                    "delivered answer {i} must be exact under overload"
                );
            }
            Err(e) => panic!("no transport failure was injected: {e}"),
        }
    }
    assert!(shed > 0, "queue cap 1 under a slowed worker must shed");

    client.shutdown().unwrap();
    handle.join();
}

/// A crash at any point of the snapshot write path — header, payload,
/// side tables, or the final rename — leaves the previously persisted
/// snapshot fully loadable and leaves no temp droppings behind.
#[test]
fn mid_write_crash_leaves_previous_snapshot_loadable() {
    let _guard = guarded();
    let d = db();
    let pre = corpus(&d);
    let dir = std::env::temp_dir().join(format!("batmap-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.batmap");

    pre.write_snapshot_file(&path).unwrap();
    let golden = std::fs::read(&path).unwrap();

    for site in [
        "snapshot.write.header",
        "snapshot.write.payload",
        "snapshot.write.sidetables",
        "snapshot.write.rename",
    ] {
        batmap::fault::arm(site, &format!("error(crash at {site})x1")).unwrap();
        let err = pre.write_snapshot_file(&path);
        assert!(err.is_err(), "{site} fault must fail the write");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            golden,
            "{site}: previous snapshot bytes must be untouched"
        );
        let reloaded = Preprocessed::read_snapshot_file(&path).unwrap();
        let mut bytes = Vec::new();
        reloaded.write_snapshot(&mut bytes).unwrap();
        assert_eq!(bytes, golden, "{site}: previous snapshot must round-trip");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "{site}: temp files must be cleaned up"
        );
    }
    batmap::fault::disarm_all();

    // With faults spent the write goes through atomically.
    pre.write_snapshot_file(&path).unwrap();
    Preprocessed::read_snapshot_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fault menu for the chaos property: connection reads and writes
/// failing intermittently, workers and top-k shards panicking. Every
/// action is `x`-capped so the system can always make progress once
/// the budget is spent.
fn fault_menu(pick: u8, every: u8, limit: u8) -> (&'static str, String) {
    let every = 2 + (every % 5) as usize;
    let limit = 1 + (limit % 3) as usize;
    match pick % 4 {
        0 => (
            "server.conn.read",
            format!("error(chaos read)@{every}x{limit}"),
        ),
        1 => (
            "server.conn.write",
            format!("error(chaos write)@{every}x{limit}"),
        ),
        2 => (
            "engine.worker.batch",
            format!("panic(chaos batch)@{every}x{limit}"),
        ),
        _ => (
            "engine.topk.shard",
            format!("panic(chaos shard)@{every}x{limit}"),
        ),
    }
}

/// A compaction crash — at the in-memory swap or at any stage of the
/// snapshot write — must leave the previously persisted snapshot fully
/// loadable and the live corpus still answering exactly (the delta
/// layer stays in place when the swap faults).
#[test]
fn crashed_compaction_leaves_previous_snapshot_loadable() {
    let _guard = guarded();
    let d = writable_db();
    let options = EngineOptions::auto().repr(ReprPolicy::Hybrid);
    let dir = std::env::temp_dir().join(format!("batmap-chaos-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.batmap");

    let mut corpus = LayeredCorpus::new(&d, 7, 128, options);
    corpus.compact_to_file(&path).unwrap();
    let golden = std::fs::read(&path).unwrap();

    // Dirty the corpus, then crash the in-memory swap: the compaction
    // must fail whole, before anything moved.
    corpus.insert_txn(201, &write_items(201)).unwrap();
    let live_pair = corpus.pair_count(0, 3);
    batmap::fault::arm("ingest.compact.swap", "error(injected swap crash)x1").unwrap();
    assert!(
        corpus.compact_to_file(&path).is_err(),
        "swap fault must fail the compaction"
    );
    assert!(
        corpus.is_dirty(),
        "failed swap must leave the delta in place"
    );
    assert_eq!(
        corpus.pair_count(0, 3),
        live_pair,
        "answers must survive the crash"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        golden,
        "snapshot bytes must be untouched"
    );
    Preprocessed::read_snapshot_file(&path).unwrap();

    // Crash the file rename instead: the swap goes through (corpus is
    // clean) but the previous snapshot must still be the loadable one.
    batmap::fault::arm("snapshot.write.rename", "error(injected rename crash)x1").unwrap();
    assert!(
        corpus.compact_to_file(&path).is_err(),
        "rename fault must fail the write"
    );
    assert!(!corpus.is_dirty(), "the in-memory swap already happened");
    assert_eq!(corpus.pair_count(0, 3), live_pair);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        golden,
        "snapshot bytes must be untouched"
    );
    Preprocessed::read_snapshot_file(&path).unwrap();
    batmap::fault::disarm_all();

    // Faults spent: the snapshot persists and reloads to the same
    // answers as the live corpus.
    corpus.insert_txn(202, &write_items(202)).unwrap();
    corpus.compact_to_file(&path).unwrap();
    let reloaded = Preprocessed::read_snapshot_file(&path).unwrap();
    let restored = LayeredCorpus::from_preprocessed(reloaded, 7);
    for a in 0..20 {
        for b in 0..20 {
            assert_eq!(
                restored.pair_count(a, b),
                corpus.pair_count(a, b),
                "({a},{b})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sliding window whose expiry faults keeps its window and its corpus
/// in step: the failed push changes neither, no later push fails, and
/// the window mines like a from-scratch mine of its last transactions.
#[test]
fn faulted_window_expiry_leaks_no_transaction() {
    let _guard = guarded();
    const WINDOW: usize = 3;
    const CAPACITY: usize = 4;
    let options = EngineOptions::auto().repr(ReprPolicy::Hybrid);
    let mut miner = WindowedMiner::new(6, WINDOW, CAPACITY, 0x57EA, 128, options);
    let items_for = |k: usize| -> Vec<u32> {
        (0..6u32)
            .filter(|&i| !(k as u32 + i).is_multiple_of(3))
            .collect()
    };
    let mut accepted: Vec<Vec<u32>> = Vec::new();
    let mut faulted = false;
    for k in 0..2 * WINDOW + 2 {
        if k == WINDOW {
            // The window is full: this push must expire before it inserts.
            batmap::fault::arm("ingest.apply", "error(chaos expiry)x1").unwrap();
        }
        let items = items_for(k);
        match miner.push(&items) {
            Ok(_) => accepted.push(items),
            Err(e) => {
                assert!(
                    !faulted && matches!(e, IngestError::Fault(_)),
                    "push {k} failed: {e}"
                );
                faulted = true;
                batmap::fault::disarm_all();
            }
        }
        assert_eq!(
            miner.corpus().live_transactions(),
            miner.len(),
            "push {k}: window and corpus disagree"
        );
    }
    assert!(faulted, "the armed expiry must fail one push");
    assert_eq!(miner.len(), WINDOW);

    let config = LevelwiseConfig {
        depth: 3,
        pair: MinerConfig {
            engine: Engine::Cpu,
            options,
            ..MinerConfig::default()
        },
        ..LevelwiseConfig::default()
    };
    let report = miner.report(config.clone()).unwrap();
    let mut txns = accepted[accepted.len() - WINDOW..].to_vec();
    txns.resize(CAPACITY, Vec::new());
    let scratch = LevelwiseMiner::new(config).mine(&TransactionDb::new(6, txns));
    assert_eq!(report.itemsets, scratch.itemsets);
}

/// The first write after a cold open rebuilds the transaction mirror
/// and then faults: the corpus answers as before (no delta, no new
/// version, the same transactions), and the retried write lands.
#[test]
fn faulted_first_write_after_a_cold_open_changes_nothing() {
    let _guard = guarded();
    let d = writable_db();
    let mut cold = LayeredCorpus::from_preprocessed(corpus(&d), 7);
    let tid = 210;
    let items = write_items(tid);
    batmap::fault::arm("ingest.apply", "error(chaos first write)x1").unwrap();
    assert!(matches!(
        cold.insert_txn(tid, &items),
        Err(IngestError::Fault(_))
    ));
    assert!(!cold.is_dirty());
    assert_eq!(cold.version(), 0);
    assert_eq!(cold.database().transactions(), d.transactions());
    let untouched = LayeredCorpus::new(&d, 7, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
    for a in 0..20 {
        for b in 0..20 {
            assert_eq!(
                cold.pair_count(a, b),
                untouched.pair_count(a, b),
                "({a},{b})"
            );
        }
    }

    assert_eq!(cold.insert_txn(tid, &items), Ok(items.len() as u64));
    let mut written = d.transactions().to_vec();
    written[tid as usize] = items;
    let written = TransactionDb::new(20, written);
    assert_eq!(cold.database().transactions(), written.transactions());
    let fresh = LayeredCorpus::new(&written, 7, 128, EngineOptions::auto());
    for a in 0..20 {
        assert_eq!(cold.count(a), fresh.count(a), "count({a})");
        for b in 0..20 {
            assert_eq!(cold.pair_count(a, b), fresh.pair_count(a, b), "({a},{b})");
        }
    }
}

/// Concurrent retrying clients mixing writes and reads while the apply
/// path and both connection directions fault. Each client owns a
/// disjoint block of free slots, so every slot's final state is decided
/// by that client's own outcome log: a typed error means "not applied"
/// (the fault fires before mutation), an `Applied` means the write took
/// — even when the acknowledgement was a retried idempotent `Ok(0)`.
/// Slots whose writes ended in a transport error are ambiguous and
/// skipped. The surviving expectations are checked against the live
/// server after disarming, before and after a flush.
#[test]
fn retrying_writers_reach_a_consistent_state_under_ingest_faults() {
    let _guard = guarded();
    let d = writable_db();
    let pre = corpus(&d);
    let engine = engine_with(&pre, 2, 0);
    let handle = Server::bind_tcp("127.0.0.1:0").unwrap().serve(engine);
    let addr = handle.tcp_addr().unwrap();

    batmap::fault::arm("ingest.apply", "error(chaos apply)@3x6").unwrap();
    batmap::fault::arm("server.conn.read", "error(chaos read)@7x2").unwrap();
    batmap::fault::arm("server.conn.write", "error(chaos write)@9x2").unwrap();

    const CLIENTS: u32 = 3;
    const SLOTS: u32 = 8;
    /// What one client learned about one of its slots.
    enum Fate {
        Present(Vec<u32>),
        Absent,
        Unknown,
    }
    let fates: Vec<(u32, Fate)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let retry = RetryPolicy {
                        max_retries: 8,
                        base_backoff: std::time::Duration::from_millis(2),
                        max_backoff: std::time::Duration::from_millis(20),
                    };
                    let base = 200 + c * SLOTS;
                    let mut out = Vec::new();
                    let Ok(client) = Client::connect_tcp(addr) else {
                        // The read fault can kill the handshake; every
                        // slot of this client stays unknown.
                        return (base..base + SLOTS).map(|t| (t, Fate::Unknown)).collect();
                    };
                    let mut client = client.with_retry(retry);
                    for tid in base..base + SLOTS {
                        let items = write_items(tid);
                        let mut fate = match client.call(
                            0,
                            &Request::Insert {
                                tid,
                                items: items.clone(),
                            },
                        ) {
                            Ok(Response::Applied(_)) => Fate::Present(items.clone()),
                            Ok(_) => Fate::Absent,
                            Err(_) => Fate::Unknown,
                        };
                        // Interleave reads so the shard queues stay busy
                        // while other clients write.
                        let _ = client.call(
                            0,
                            &Request::Member {
                                set: items[0],
                                element: tid,
                            },
                        );
                        let _ = client.call(
                            0,
                            &Request::Count {
                                a: tid % 20,
                                b: (tid + 3) % 20,
                            },
                        );
                        if tid % 3 == 0 && !matches!(fate, Fate::Unknown) {
                            fate = match client.call(0, &Request::Remove { tid }) {
                                Ok(Response::Applied(_)) => Fate::Absent,
                                Ok(_) => fate,
                                Err(_) => Fate::Unknown,
                            };
                        }
                        out.push((tid, fate));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    batmap::fault::disarm_all();

    // The oracle pass: a fresh unfaulted client checks every decided
    // slot, then flushes and checks again (compaction is invisible).
    let mut oracle = Client::connect_tcp(addr).unwrap();
    let mut decided = 0usize;
    for round in 0..2 {
        for (tid, fate) in &fates {
            let want: &[u32] = match fate {
                Fate::Present(items) => items,
                Fate::Absent => &[],
                Fate::Unknown => continue,
            };
            decided += 1;
            for item in 0..20u32 {
                assert_eq!(
                    oracle.member(0, item, *tid).unwrap(),
                    want.binary_search(&item).is_ok(),
                    "round {round}: member({item}, {tid})"
                );
            }
        }
        if round == 0 {
            oracle.flush(0).unwrap();
        }
    }
    assert!(decided > 0, "at least some slots must reach a decided fate");

    oracle.shutdown().unwrap();
    handle.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A random sequential schedule of writes, flushes, and reads with
    /// error faults armed at `ingest.apply` and `ingest.compact.swap`:
    /// every delivered non-error response must be byte-identical to a
    /// disarmed replay that applies exactly the acknowledged writes.
    /// (Faults fire *before* mutation, so an errored write must be
    /// invisible to every later answer.)
    #[test]
    fn write_faults_never_corrupt_delivered_answers(
        ops in vec((0u8..6, any::<u32>(), any::<u32>()), 8..30),
        apply_every in 1u8..5,
        swap_every in 1u8..4,
    ) {
        let _guard = guarded();
        let d = writable_db();
        let pre = corpus(&d);
        let engine = engine_with(&pre, 2, 0);
        let clean = engine_with(&pre, 2, 0);

        let requests: Vec<Request> = ops
            .iter()
            .map(|&(op, x, y)| match op {
                0 | 1 => {
                    let tid = 200 + x % 40;
                    Request::Insert { tid, items: write_items(tid) }
                }
                2 => Request::Remove { tid: x % 240 },
                3 => Request::Flush,
                4 => Request::Count { a: x % 20, b: y % 20 },
                _ => Request::Member { set: x % 20, element: y % 240 },
            })
            .collect();

        batmap::fault::arm(
            "ingest.apply",
            &format!("error(chaos apply)@{apply_every}x4"),
        ).unwrap();
        batmap::fault::arm(
            "ingest.compact.swap",
            &format!("error(chaos swap)@{swap_every}x2"),
        ).unwrap();
        let delivered: Vec<Response> = requests
            .iter()
            .map(|request| engine.query(0, request.clone()))
            .collect();
        batmap::fault::disarm_all();

        // Disarmed replay: re-issue reads and *acknowledged* writes in
        // order. Errored writes left no trace, so skipping them must
        // reproduce every delivered answer bit-for-bit.
        for (j, (request, response)) in requests.iter().zip(&delivered).enumerate() {
            let is_write = matches!(
                request,
                Request::Insert { .. } | Request::Remove { .. } | Request::Flush
            );
            if is_write && matches!(response, Response::Error(_)) {
                continue;
            }
            let want = clean.query(0, request.clone());
            prop_assert_eq!(
                encode_response(j as u64, response),
                encode_response(j as u64, &want),
                "step {} ({:?}) diverged from the disarmed replay",
                j,
                request
            );
        }

        // And the final states agree wholesale.
        for a in 0..20u32 {
            for b in 0..20u32 {
                let request = Request::Count { a, b };
                prop_assert_eq!(
                    encode_response(0, &engine.query(0, request.clone())),
                    encode_response(0, &clean.query(0, request)),
                    "final count ({}, {})", a, b
                );
            }
        }
    }

    /// Concurrent retrying clients against a server with a random
    /// fault mix: connections drop, workers panic, frames stall. The
    /// pinned invariant — every answer that *is* delivered equals the
    /// unfaulted replay byte-for-byte, and the server shuts down
    /// cleanly afterwards.
    #[test]
    fn chaos_delivered_answers_are_exact(
        ops in vec((0u8..4, any::<u32>(), any::<u32>()), 8..24),
        faults in vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        shards in 1usize..3,
    ) {
        let _guard = guarded();
        let d = db();
        let pre = corpus(&d);
        let requests: Vec<Request> = ops
            .iter()
            .map(|&(op, x, y)| match op % 4 {
                0 => Request::Count { a: x % 20, b: y % 20 },
                1 => Request::Member { set: x % 20, element: y % 240 },
                2 => Request::TopK { probe: Probe::Set(x % 20), k: 1 + y % 4 },
                _ => Request::Info,
            })
            .collect();

        let engine = engine_with(&pre, shards, 0);
        let clean = engine_with(&pre, shards, 0);
        let handle = Server::bind_tcp("127.0.0.1:0").unwrap().serve(engine);
        let addr = handle.tcp_addr().unwrap();

        for &(pick, every, limit) in &faults {
            let (site, spec) = fault_menu(pick, every, limit);
            batmap::fault::arm(site, &spec).unwrap();
        }

        const CLIENTS: usize = 3;
        let mut by_client: Vec<Vec<(usize, Request)>> =
            (0..CLIENTS).map(|_| Vec::new()).collect();
        for (j, request) in requests.iter().enumerate() {
            by_client[j % CLIENTS].push((j, request.clone()));
        }
        let mut delivered: Vec<Option<Response>> = vec![None; requests.len()];
        std::thread::scope(|scope| {
            let answers: Vec<_> = by_client
                .iter()
                .map(|slice| {
                    scope.spawn(move || {
                        let retry = RetryPolicy {
                            max_retries: 6,
                            base_backoff: std::time::Duration::from_millis(2),
                            max_backoff: std::time::Duration::from_millis(20),
                        };
                        let mut client = match Client::connect_tcp(addr) {
                            Ok(c) => c.with_retry(retry),
                            // The read fault can kill the handshake;
                            // that client simply delivers nothing.
                            Err(_) => return Vec::new(),
                        };
                        let reqs: Vec<Request> =
                            slice.iter().map(|(_, r)| r.clone()).collect();
                        client.pipeline_outcomes(0, &reqs)
                    })
                })
                .collect();
            for (slice, thread) in by_client.iter().zip(answers) {
                for ((j, _), outcome) in slice.iter().zip(thread.join().unwrap()) {
                    if let Ok(response) = outcome {
                        delivered[*j] = Some(response);
                    }
                }
            }
        });

        // The clean engine shares this process's global fault registry;
        // chaos is over, so disarm before computing replay oracles.
        batmap::fault::disarm_all();

        // Exactness of everything delivered: typed degraded responses
        // are legitimate under chaos, real answers must be bit-exact.
        for (j, slot) in delivered.iter().enumerate() {
            let Some(response) = slot else { continue };
            if is_degraded(response) {
                continue;
            }
            let want = clean.query(0, requests[j].clone());
            prop_assert_eq!(
                encode_response(j as u64, response),
                encode_response(j as u64, &want),
                "chaos-delivered answer {} ({:?}) must equal the clean replay",
                j,
                &requests[j]
            );
        }

        // Clean shutdown is non-negotiable, whatever was injected.
        let mut closer = Client::connect_tcp(addr).unwrap();
        closer.shutdown().unwrap();
        handle.join();
    }
}
