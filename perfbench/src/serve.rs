//! The `serve_mixed` workload: a snapshot-backed `batmap_server` on TCP
//! loopback under reads and writes at once.
//!
//! * Phase 1, cold start: `QueryEngine::open_snapshots` through to the
//!   first answered `Count`, several times; the median is `setup_s`.
//! * Phase 2, open loop on two connections, each latency timed from
//!   the request's due time: reads (95% `Count` against a zipf-head
//!   probe, 5% `Member`) plus a trickle of `TopK` on one; `Insert` /
//!   `Remove` on spare transaction slots plus one `Flush` at the
//!   midpoint on the other.
//! * Phase 3, closed loop: both connections pipeline bursts of reads.
//!
//! Writes touch only the highest item ids (the zipf tail) and only the
//! spare slots, so no write can change a read-item `Count`, `Member` or
//! `TopK` answer: every read has one expected answer, computed by brute
//! force before the server starts.

use crate::metrics::Outcome;
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use crate::{Args, Rng};
use batmap::{EngineOptions, ReprPolicy, SnapshotLoad};
use batmap_server::{
    proto, Client, EngineConfig, Probe, QueryEngine, Request, Response, RetryPolicy, Server,
    ServerHandle,
};
use fim::{TransactionDb, VerticalDb};
use hpcutil::MemoryFootprint;
use pairminer::{preprocess_with, LayeredCorpus, Preprocessed};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Webdocs documents in the served corpus (default webdocs spec).
pub const DOCUMENTS: usize = 20_000;
/// Empty transaction slots appended for live inserts.
pub const SPARE_SLOTS: usize = 4_000;
/// The highest item ids, reserved for writes.
pub const WRITE_ITEMS: u32 = 1_000;
/// `Count` probes are drawn from item ids `0..HOT_PROBES` (zipf head).
pub const HOT_PROBES: u32 = 8;
/// Open-loop rates per second.
pub const READ_RATE: f64 = 20_000.0;
pub const TOPK_RATE: f64 = 2.0;
pub const WRITE_RATE: f64 = 200.0;
pub const TOPK_K: u32 = 10;
/// Requests per pipelined burst in the closed loop.
pub const BURST: usize = 64;
/// Shard workers (pinned; the default would follow the core count).
pub const SHARDS: usize = 2;
/// Cold starts per run, untraced and traced.
const COLD_STARTS: usize = 21;
const TRACED_COLD_STARTS: u64 = 5;
/// Share of `--seconds` spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Distinct reads in the precomputed pool.
const READ_POOL: usize = 8_192;
/// Largest inserted transaction.
const MAX_WRITE_TXN: usize = 12;
/// Top-k ids live above every read id.
const TOPK_ID_BASE: u64 = 1 << 40;
/// Request id of the midpoint `Flush` on the write connection.
const FLUSH_ID: u64 = u64::MAX - 1;

/// A request with the one answer it must get.
#[derive(Clone)]
struct Expected {
    request: Request,
    answer: Response,
}

#[derive(Clone)]
enum WriteOp {
    Insert { tid: u32, items: Vec<u32> },
    Remove { tid: u32, changed: u64 },
}

impl WriteOp {
    fn request(&self) -> Request {
        match self {
            WriteOp::Insert { tid, items } => Request::Insert {
                tid: *tid,
                items: items.clone(),
            },
            WriteOp::Remove { tid, .. } => Request::Remove { tid: *tid },
        }
    }

    /// The deterministic `Applied(n)` this write must return.
    fn applied(&self) -> u64 {
        match self {
            WriteOp::Insert { items, .. } => items.len() as u64,
            WriteOp::Remove { changed, .. } => *changed,
        }
    }
}

/// Everything computed before the server starts.
struct Plan {
    reads: Vec<Expected>,
    topk: Vec<Expected>,
    writes: Vec<WriteOp>,
    /// `Count(w, w)` of every write item after the plan's writes.
    final_counts: Vec<Expected>,
    /// The cold start's first query.
    first: Expected,
}

fn intersect_len(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Brute-force top-k of `probe` over the horizontal database: count
/// descending, then set id ascending; the probe and zero counts left
/// out (the server's documented order).
fn brute_top_k(db: &TransactionDb, v: &VerticalDb, probe: u32, k: usize) -> Vec<(u32, u64)> {
    let mut counts = vec![0u64; db.n_items() as usize];
    for &tid in v.tidlist(probe) {
        for &item in &db.transactions()[tid as usize] {
            counts[item as usize] += 1;
        }
    }
    counts[probe as usize] = 0;
    let mut hits: Vec<(u32, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i as u32, c))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

fn plan(db: &TransactionDb, v: &VerticalDb, args: &Args, n_writes: usize) -> Plan {
    let mut rng = Rng::new(args.seed ^ 0x5E57E);
    let n = db.n_items();
    assert!(
        n > WRITE_ITEMS + HOT_PROBES,
        "corpus too small for the item split"
    );
    let read_items = n - WRITE_ITEMS;
    let m = db.len() as u32;
    let count = |a: u32, b: u32| Expected {
        request: Request::Count { a, b },
        answer: Response::Count(intersect_len(v.tidlist(a), v.tidlist(b))),
    };
    let reads = (0..READ_POOL)
        .map(|i| {
            if i % 20 == 19 {
                let set = rng.below(read_items as u64) as u32;
                let element = rng.below(m as u64) as u32;
                Expected {
                    request: Request::Member { set, element },
                    answer: Response::Member(v.tidlist(set).binary_search(&element).is_ok()),
                }
            } else {
                count(
                    rng.below(HOT_PROBES as u64) as u32,
                    rng.below(read_items as u64) as u32,
                )
            }
        })
        .collect();
    let topk = (0..HOT_PROBES)
        .map(|probe| Expected {
            request: Request::TopK {
                probe: Probe::Set(probe),
                k: TOPK_K,
            },
            answer: Response::TopK(brute_top_k(db, v, probe, TOPK_K as usize)),
        })
        .collect();

    // Writes: fill spare slots with small write-item transactions, and
    // remove the oldest live one a third of the time once 64 are live.
    let base_m = (db.len() - SPARE_SLOTS) as u32;
    let mut next_free = base_m;
    let mut live: std::collections::VecDeque<(u32, Vec<u32>)> = Default::default();
    let mut writes = Vec::with_capacity(n_writes);
    for _ in 0..n_writes {
        if live.len() >= 64 && rng.below(3) == 0 {
            let (tid, items) = live.pop_front().expect("live slots");
            writes.push(WriteOp::Remove {
                tid,
                changed: items.len() as u64,
            });
        } else {
            assert!(next_free < m, "write plan ran out of spare slots");
            let len = 1 + rng.below(MAX_WRITE_TXN as u64) as usize;
            let mut items: Vec<u32> = (0..len)
                .map(|_| read_items + rng.below(WRITE_ITEMS as u64) as u32)
                .collect();
            items.sort_unstable();
            items.dedup();
            live.push_back((next_free, items.clone()));
            writes.push(WriteOp::Insert {
                tid: next_free,
                items,
            });
            next_free += 1;
        }
    }
    let mut support: Vec<u64> = (read_items..n).map(|w| v.tidlist(w).len() as u64).collect();
    for (_, items) in &live {
        for &w in items {
            support[(w - read_items) as usize] += 1;
        }
    }
    let final_counts = (read_items..n)
        .zip(support)
        .map(|(w, s)| Expected {
            request: Request::Count { a: w, b: w },
            answer: Response::Count(s),
        })
        .collect();
    Plan {
        reads,
        topk,
        writes,
        final_counts,
        first: count(0, 1),
    }
}

fn engine_config(options: EngineOptions) -> EngineConfig {
    EngineConfig {
        options,
        shards: SHARDS,
        ..EngineConfig::default()
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_tcp(addr)
        .expect("connect to the loopback server")
        .with_retry(RetryPolicy::none())
}

/// Phase 1: snapshot file → first answered `Count`. Returns the wall,
/// the running server, and whether the answer was right.
fn cold_start(path: &Path, options: EngineOptions, first: &Expected) -> (f64, ServerHandle, bool) {
    let t0 = Instant::now();
    let engine =
        QueryEngine::open_snapshots(&[path], engine_config(options)).expect("open the snapshot");
    let handle = Server::bind_tcp("127.0.0.1:0")
        .expect("bind a loopback port")
        .serve(engine);
    let mut client = connect(handle.tcp_addr().expect("tcp address"));
    let answer = client.call(0, &first.request);
    let wall = t0.elapsed().as_secs_f64();
    (
        wall,
        handle,
        matches!(answer, Ok(ref a) if *a == first.answer),
    )
}

/// Per-phase client-side observations.
#[derive(Default)]
struct Observed {
    read_lat: Vec<f64>,
    topk_lat: Vec<f64>,
    write_lat: Vec<f64>,
    late: Vec<f64>,
    flush_s: f64,
    attempted: u64,
    failed: u64,
    shed: u64,
}

impl Observed {
    fn record(&mut self, ok: bool, response: &Response) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if matches!(response, Response::Overloaded) {
            self.shed += 1;
        }
    }
}

/// Pull every complete response frame off the front of `buf`.
fn drain_frames(buf: &mut Vec<u8>, mut on: impl FnMut(u64, Response)) {
    let mut at = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if buf.len() - at < 4 + len {
            break;
        }
        let mut frame = &buf[at..at + 4 + len];
        match proto::read_response(&mut frame) {
            Ok(Some((id, response))) => on(id, response),
            _ => on(u64::MAX, Response::Error("undecodable frame".into())),
        }
        at += 4 + len;
    }
    buf.drain(..at);
}

/// `write_all` that also rides out `WouldBlock`: the receiver puts the
/// write connection's socket in non-blocking mode, which its clones
/// share.
fn send_all(w: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One scheduled open-loop request.
struct Due {
    at: f64,
    /// 0 = read connection, 1 = write connection.
    conn: usize,
    id: u64,
    request: Request,
}

/// The phase-2 schedule, merged across both connections in due order:
/// reads and top-k on connection 0; writes and the midpoint `Flush` on
/// connection 1. Returns the schedule and, per read id, the index of
/// its request in the read pool.
fn schedule(plan: &Plan, seconds: f64, seed: u64) -> (Vec<Due>, Vec<usize>) {
    let n_reads = (READ_RATE * seconds) as usize;
    let n_topk = (TOPK_RATE * seconds) as usize;
    let mut rng = Rng::new(seed ^ 0x0BE7);
    let picks: Vec<usize> = (0..n_reads)
        .map(|_| rng.below(plan.reads.len() as u64) as usize)
        .collect();
    let mut due: Vec<Due> = Vec::with_capacity(n_reads + n_topk + plan.writes.len() + 1);
    for (i, &pick) in picks.iter().enumerate() {
        due.push(Due {
            at: i as f64 / READ_RATE,
            conn: 0,
            id: i as u64,
            request: plan.reads[pick].request.clone(),
        });
    }
    for j in 0..n_topk {
        due.push(Due {
            at: (j as f64 + 0.5) / TOPK_RATE,
            conn: 0,
            id: TOPK_ID_BASE + j as u64,
            request: plan.topk[j % plan.topk.len()].request.clone(),
        });
    }
    for (j, write) in plan.writes.iter().enumerate() {
        due.push(Due {
            at: j as f64 / WRITE_RATE,
            conn: 1,
            id: j as u64,
            request: write.request(),
        });
    }
    // The flush goes out just before the middle write.
    due.push(Due {
        at: (plan.writes.len() / 2) as f64 / WRITE_RATE - 1e-9,
        conn: 1,
        id: FLUSH_ID,
        request: Request::Flush,
    });
    due.sort_by(|a, b| a.at.total_cmp(&b.at));
    (due, picks)
}

/// Phase 2: the open loop. A sender thread writes every request on its
/// connection at (or as soon after as it can) its due time and never
/// waits for answers; a receiver thread timestamps answers as they
/// arrive. Every latency runs from the due time, and the sender's
/// lateness is reported. Returns (reads + top-k, writes + flush).
/// `origin` is the schedule's time zero (now, outside tests).
fn open_loop(
    addr: SocketAddr,
    plan: &Plan,
    seconds: f64,
    seed: u64,
    origin: Instant,
) -> (Observed, Observed) {
    let (due, picks) = schedule(plan, seconds, seed);
    let open = || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        proto::read_handshake(&mut stream).expect("handshake");
        stream
    };
    let streams = [open(), open()];
    let mut due_at: [std::collections::HashMap<u64, f64>; 2] = Default::default();
    for d in &due {
        due_at[d.conn].insert(d.id, d.at);
    }
    let expected_reads = due_at[0].len();
    let expected_writes = due_at[1].len();
    let t0 = origin;

    let (late, (reads, writes)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut writers = [
                streams[0].try_clone().expect("clone stream"),
                streams[1].try_clone().expect("clone stream"),
            ];
            let mut late = Vec::with_capacity(due.len());
            let mut bufs = [Vec::with_capacity(4096), Vec::with_capacity(4096)];
            let mut next = 0;
            while next < due.len() {
                let now = t0.elapsed().as_secs_f64();
                while next < due.len() && due[next].at <= now {
                    let d = &due[next];
                    proto::write_request(&mut bufs[d.conn], d.id, 0, &d.request).expect("encode");
                    late.push(now - d.at);
                    next += 1;
                }
                for (w, buf) in writers.iter_mut().zip(bufs.iter_mut()) {
                    if !buf.is_empty() {
                        // A failed send leaves its requests unanswered,
                        // which the receiver counts as failures.
                        let _ = send_all(w, buf);
                        buf.clear();
                    }
                }
                if let Some(d) = due.get(next) {
                    let wait = d.at - t0.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait.min(0.001)));
                    }
                }
            }
            late
        });
        let receiver = s.spawn(|| {
            // The read connection answers constantly, so it blocks
            // (with a coarse timeout); the sparse write connection is
            // polled without blocking after each wake-up.
            let mut readers = [
                streams[0].try_clone().expect("clone stream"),
                streams[1].try_clone().expect("clone stream"),
            ];
            readers[0]
                .set_read_timeout(Some(Duration::from_millis(2)))
                .expect("read timeout");
            readers[1].set_nonblocking(true).expect("nonblocking");
            let mut obs = [Observed::default(), Observed::default()];
            let mut seen = [
                std::collections::HashSet::new(),
                std::collections::HashSet::new(),
            ];
            let mut bufs = [Vec::with_capacity(1 << 16), Vec::with_capacity(1 << 12)];
            let mut chunk = vec![0u8; 1 << 16];
            let mut closed = [false, false];
            let give_up = seconds + 20.0;
            while (seen[0].len() < expected_reads || seen[1].len() < expected_writes)
                && t0.elapsed().as_secs_f64() < give_up
                && !(closed[0] && closed[1])
            {
                for conn in 0..2 {
                    if closed[conn] {
                        continue;
                    }
                    match readers[conn].read(&mut chunk) {
                        Ok(0) => closed[conn] = true,
                        Ok(got) => bufs[conn].extend_from_slice(&chunk[..got]),
                        Err(e) if proto::is_timeout(&e) => {}
                        Err(_) => closed[conn] = true,
                    }
                    let at = t0.elapsed().as_secs_f64();
                    let (obs, seen) = (&mut obs[conn], &mut seen[conn]);
                    drain_frames(&mut bufs[conn], |id, response| {
                        let Some(&due) = due_at[conn].get(&id).filter(|_| seen.insert(id)) else {
                            obs.record(false, &response);
                            return;
                        };
                        let ok = match conn {
                            0 if id >= TOPK_ID_BASE => {
                                obs.topk_lat.push(at - due);
                                let j = (id - TOPK_ID_BASE) as usize;
                                response == plan.topk[j % plan.topk.len()].answer
                            }
                            0 => {
                                obs.read_lat.push(at - due);
                                response == plan.reads[picks[id as usize]].answer
                            }
                            _ if id == FLUSH_ID => {
                                obs.flush_s = at - due;
                                matches!(response, Response::Flushed(_))
                            }
                            _ => {
                                obs.write_lat.push(at - due);
                                response == Response::Applied(plan.writes[id as usize].applied())
                            }
                        };
                        obs.record(ok, &response);
                    });
                }
            }
            // Requests never answered count as failed transport.
            for (conn, expected) in [expected_reads, expected_writes].into_iter().enumerate() {
                let missing = expected.saturating_sub(seen[conn].len()) as u64;
                obs[conn].attempted += missing;
                obs[conn].failed += missing;
            }
            let [reads, writes] = obs;
            (reads, writes)
        });
        (
            sender.join().expect("open-loop sender"),
            receiver.join().expect("open-loop receiver"),
        )
    });
    let mut reads = reads;
    reads.late = late;
    (reads, writes)
}

/// Phase 3: pipelined bursts of reads until `seconds` pass. Returns
/// the per-burst walls, answers delivered, and the observations.
fn closed_loop(addr: SocketAddr, plan: &Plan, seconds: f64, offset: usize) -> (Vec<f64>, Observed) {
    let mut client = connect(addr);
    let mut obs = Observed::default();
    let mut walls = Vec::new();
    let t0 = Instant::now();
    let mut at = offset * BURST * 7;
    while t0.elapsed().as_secs_f64() < seconds {
        let burst: Vec<&Expected> = (0..BURST)
            .map(|i| &plan.reads[(at + i) % plan.reads.len()])
            .collect();
        at += BURST;
        let requests: Vec<Request> = burst.iter().map(|e| e.request.clone()).collect();
        let b0 = Instant::now();
        let responses = client.pipeline(0, &requests);
        walls.push(b0.elapsed().as_secs_f64());
        match responses {
            Ok(responses) => {
                for (e, r) in burst.iter().zip(&responses) {
                    obs.record(*r == e.answer, r);
                }
            }
            Err(_) => {
                obs.attempted += BURST as u64;
                obs.failed += BURST as u64;
            }
        }
    }
    (walls, obs)
}

/// The served corpus' transactions: the webdocs documents plus empty
/// spare slots.
fn corpus(seed: u64) -> TransactionDb {
    let docs = datagen::webdocs::generate(&datagen::WebDocsSpec {
        documents: DOCUMENTS,
        seed,
        ..Default::default()
    });
    let mut txns = docs.transactions().to_vec();
    txns.resize(DOCUMENTS + SPARE_SLOTS, Vec::new());
    TransactionDb::new(docs.n_items(), txns)
}

pub fn run(args: &Args, options: EngineOptions, out: &mut Outcome) {
    let options = options
        .repr(ReprPolicy::Hybrid)
        .load(SnapshotLoad::Buffered);
    let db = corpus(args.seed);
    let v = VerticalDb::from_horizontal(&db);
    let pre = preprocess_with(&v, args.seed, 128, options);
    let dir = PathBuf::from(crate::OUT_DIR);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    let path = dir.join(format!("serve_mixed-{}.snapshot", std::process::id()));
    pre.write_snapshot_file(&path).expect("write the snapshot");
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let corpus_bytes = pre.heap_bytes();
    let hist = pre.repr_histogram();
    println!(
        "corpus: {} sets ({} batmap / {} bitmap / {} tidlist), {} transactions \
         ({SPARE_SLOTS} spare), snapshot {snapshot_bytes} bytes, {SHARDS} shards",
        pre.n_items,
        hist[0],
        hist[1],
        hist[2],
        db.len(),
    );

    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let n_writes = (WRITE_RATE * open_s) as usize;
    let t0 = Instant::now();
    let plan = plan(&db, &v, args, n_writes);
    let baseline_s = t0.elapsed().as_secs_f64();
    println!(
        "oracle: {} reads, {} top-k probes, {} writes, {} final counts, brute force in {baseline_s:.3} s",
        plan.reads.len(),
        plan.topk.len(),
        plan.writes.len(),
        plan.final_counts.len()
    );

    // Phase 1: repeated cold starts; the last server keeps serving.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..COLD_STARTS {
        if let Some(previous) = server.take() {
            ServerHandle::join(previous);
        }
        let (wall, handle, ok) = cold_start(&path, options, &plan.first);
        out.attempt(ok);
        setups.push(wall);
        server = Some(handle);
    }
    println!(
        "cold starts: {:?} s",
        setups
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let server = server.expect("at least one cold start");
    let addr = server.tcp_addr().expect("tcp address");

    // Phase 2: open loop, reads and writes side by side.
    let (reads, writes) = open_loop(addr, &plan, open_s, args.seed, Instant::now());
    // Phase 3: closed loop on two connections.
    let closed: Vec<(Vec<f64>, Observed)> = std::thread::scope(|s| {
        let loops: Vec<_> = (0..2)
            .map(|c| {
                let plan = &plan;
                s.spawn(move || closed_loop(addr, plan, closed_s, c))
            })
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("closed-loop client"))
            .collect()
    });

    // Final state: flush, then every write item's count must match the
    // live transactions the plan leaves behind.
    let mut client = connect(addr);
    let flushed = client.call(0, &Request::Flush);
    out.check(
        matches!(flushed, Ok(Response::Flushed(_))),
        format!("final flush answered {flushed:?}"),
    );
    let mut final_ok = 0usize;
    for chunk in plan.final_counts.chunks(BURST) {
        let requests: Vec<Request> = chunk.iter().map(|e| e.request.clone()).collect();
        if let Ok(responses) = client.pipeline(0, &requests) {
            final_ok += chunk
                .iter()
                .zip(&responses)
                .filter(|(e, r)| e.answer == **r)
                .count();
        }
    }
    out.check(
        final_ok == plan.final_counts.len(),
        format!(
            "{} of {} write-item counts wrong after the final flush",
            plan.final_counts.len() - final_ok,
            plan.final_counts.len()
        ),
    );
    drop(client);
    server.join();

    // Totals.
    let mut shed = 0;
    for obs in [&reads, &writes]
        .into_iter()
        .chain(closed.iter().map(|(_, o)| o))
    {
        out.attempted += obs.attempted;
        out.failed += obs.failed;
        shed += obs.shed;
    }
    let read = Latency::of(&reads.read_lat);
    let topk = Latency::of(&reads.topk_lat);
    let write = Latency::of(&writes.write_lat);
    let late = Latency::of(&reads.late);
    let bursts: Vec<f64> = closed.iter().flat_map(|(w, _)| w.iter().copied()).collect();
    // Answers per second at the median burst: both connections keep
    // one burst in flight, so the median burst wall is robust to the
    // occasional descheduled burst that a total-over-time rate is not.
    let qps = (2 * BURST) as f64 / median(&bursts);
    println!(
        "open loop: {} reads ({}), {} top-k, {} writes; closed loop: {} bursts of {BURST}",
        read.n,
        read.tail_label(),
        topk.n,
        write.n,
        bursts.len()
    );
    out.report("read_p50_us", read.p50 * 1e6, "us");
    out.report("read_p99_us", read.quantile(0.99) * 1e6, "us");
    out.report(
        &format!("read_tail_us ({})", read.tail_label()),
        read.tail_value() * 1e6,
        "us",
    );
    out.report("topk_p50_us", topk.p50 * 1e6, "us");
    out.report("write_p99_us", write.quantile(0.99) * 1e6, "us");
    out.report("flush_s", writes.flush_s, "s");
    out.report("qps", qps, "1/s");
    out.report("burst_p50_us", median(&bursts) * 1e6, "us");
    out.report("client.late_p50_us", late.p50 * 1e6, "us");
    out.report("overloaded", shed as f64, "count");

    if !args.trace {
        out.set("setup_s", median(&setups));
        out.set("wall_s", read.p50);
        out.set("mem_peak_bytes", corpus_bytes as f64);
    } else {
        out.set("baseline.s", baseline_s);
        out.set("snapshot.bytes", snapshot_bytes as f64);
        out.set("engine.shed", shed as f64);
        out.set("client.late_p99_us", late.quantile(0.99) * 1e6);
        traced(
            &path,
            options,
            &plan,
            pre,
            median(&setups),
            read.p50,
            args,
            out,
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The traced pass over the serving path: one cold start split at its
/// public calls, then the request mix replayed through `proto` and
/// `QueryEngine::query` with no socket, and the write plan replayed on
/// a private `LayeredCorpus`.
#[allow(clippy::too_many_arguments)]
fn traced(
    path: &Path,
    options: EngineOptions,
    plan: &Plan,
    pre: Preprocessed,
    untraced_setup: f64,
    read_p50: f64,
    args: &Args,
    out: &mut Outcome,
) {
    // Traced cold starts (requests 1..=TRACED_COLD_STARTS); each stage
    // reports its median, like the untraced `setup_s`.
    let mut tr = Tracer::new();
    let mut stages: [Vec<f64>; 4] = Default::default();
    for request in 1..=TRACED_COLD_STARTS {
        let root = tr.open("setup", request);
        let (opened, open_s) = tr.time("snapshot.open", request, || {
            Preprocessed::read_snapshot_file_with(path, SnapshotLoad::Buffered)
                .expect("open snapshot")
        });
        let (engine, start_s) = tr.time("engine.start", request, || {
            QueryEngine::new(vec![opened], engine_config(options))
        });
        let ((handle, first_ok), first_s) = tr.time("server.first_answer", request, || {
            let handle = Server::bind_tcp("127.0.0.1:0")
                .expect("bind a loopback port")
                .serve(engine);
            let mut client = connect(handle.tcp_addr().expect("tcp address"));
            let ok = matches!(client.call(0, &plan.first.request),
                Ok(ref a) if *a == plan.first.answer);
            (handle, ok)
        });
        let setup = tr.close(root);
        out.attempt(first_ok);
        handle.join();
        for (stage, v) in stages.iter_mut().zip([open_s, start_s, first_s, setup]) {
            stage.push(v);
        }
    }
    let [open_s, start_s, first_s, traced_setup] = stages.map(|v| median(&v));

    let seed = pre.params.fingerprint();
    let copy = pre.clone();
    let (_, rebuild_s) = tr.time("ingest.rebuild", 2, || {
        LayeredCorpus::from_preprocessed(copy, seed)
    });

    // The request mix, replayed without a socket: encode and decode on
    // both sides, and the engine's own answer.
    let engine = QueryEngine::new(vec![pre.clone()], engine_config(options));
    let mut lat = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mix = plan
        .reads
        .iter()
        .take(2_000)
        .chain(plan.topk.iter().cycle().take(16));
    for (i, e) in mix.enumerate() {
        let id = 3 + i as u64;
        let mut wire = Vec::with_capacity(64);
        let (_, enc_req) = tr.time("proto.encode", id, || {
            proto::write_request(&mut wire, id, 0, &e.request).expect("encode")
        });
        let (request, dec_req) = tr.time("proto.decode", id, || {
            proto::read_request(&mut wire.as_slice())
                .expect("decode")
                .expect("frame")
        });
        let (response, query_s) = tr.time("engine.query", id, || engine.query(0, request.2));
        let (frame, enc_resp) =
            tr.time("proto.encode", id, || proto::encode_response(id, &response));
        let (decoded, dec_resp) = tr.time("proto.decode", id, || {
            proto::read_response(&mut frame.as_slice())
                .expect("decode")
                .expect("frame")
        });
        out.attempt(decoded.1 == e.answer);
        encode.push(enc_req + enc_resp);
        decode.push(dec_req + dec_resp);
        match e.request {
            Request::Count { .. } => lat.0.push(query_s),
            Request::Member { .. } => lat.1.push(query_s),
            _ => lat.2.push(query_s),
        }
    }
    out.set("engine.worker_restarts", engine.worker_restarts() as f64);
    drop(engine);

    // The write plan on a private corpus, then one compaction.
    let mut corpus = LayeredCorpus::from_preprocessed(pre, seed);
    let mut apply = Vec::new();
    for (j, w) in plan.writes.iter().enumerate() {
        let (outcome, s) = tr.time("ingest.apply", 10_000_000 + j as u64, || match w {
            WriteOp::Insert { tid, items } => corpus.insert_txn(*tid, items),
            WriteOp::Remove { tid, .. } => corpus.remove_txn(*tid),
        });
        out.attempt(outcome == Ok(w.applied()));
        apply.push(s);
    }
    let delta = corpus.delta_memberships();
    let (compacted, compact_s) = tr.time("ingest.compact", 2, || corpus.compact());
    out.check(compacted.is_ok(), "private compaction failed");
    // Writes on write items never change a read answer.
    let stable = plan
        .reads
        .iter()
        .take(512)
        .all(|e| match (&e.request, &e.answer) {
            (Request::Count { a, b }, Response::Count(n)) => corpus.pair_count(*a, *b) == *n,
            (Request::Member { set, element }, Response::Member(m)) => {
                corpus.member(*set, *element) == *m
            }
            _ => true,
        });
    out.check(
        stable,
        "a write changed a read-item answer on the private corpus",
    );

    let encode_ns = median(&encode) * 1e9;
    let decode_ns = median(&decode) * 1e9;
    let count_us = median(&lat.0) * 1e6;
    out.set("snapshot.open_s", open_s);
    out.set("ingest.rebuild_s", rebuild_s);
    out.set("ingest.apply_us", median(&apply) * 1e6);
    out.set("ingest.compact_s", compact_s);
    out.set("ingest.delta_memberships", delta as f64);
    out.set("engine.start_s", start_s);
    out.set("engine.count_us", count_us);
    out.set("engine.member_us", median(&lat.1) * 1e6);
    out.set("engine.topk_us", median(&lat.2) * 1e6);
    out.set("proto.encode_ns", encode_ns);
    out.set("proto.decode_ns", decode_ns);
    out.set("server.first_answer_s", first_s);
    println!("  (derived) server.overhead_us = read_p50_us − engine.count_us − proto");
    out.set(
        "server.overhead_us",
        read_p50 * 1e6 - count_us - (encode_ns + decode_ns) / 1e3,
    );
    let blocking = open_s + start_s + first_s;
    let gap = (blocking - traced_setup) / traced_setup;
    println!(
        "closure (medians of {TRACED_COLD_STARTS}): snapshot.open + engine.start + \
         server.first_answer = {blocking:.4} s vs traced setup {traced_setup:.4} s \
         (gap {:+.2}%, unattributed root self time {:.6} s in all)",
        gap * 100.0,
        tr.self_time("setup")
    );
    out.check(
        gap.abs() <= 0.10,
        format!("layer closure gap {gap:+.3} exceeds 10%"),
    );
    out.set("closure.gap_frac", gap);
    out.set("trace.overhead_frac", traced_setup / untraced_setup - 1.0);
    crate::write_trace(&tr, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> (TransactionDb, VerticalDb, Plan) {
        let docs = datagen::webdocs::generate(&datagen::WebDocsSpec {
            documents: 400,
            mean_doc_len: 30,
            seed,
            ..Default::default()
        });
        let mut txns = docs.transactions().to_vec();
        txns.resize(400 + SPARE_SLOTS, Vec::new());
        let db = TransactionDb::new(docs.n_items(), txns);
        let v = VerticalDb::from_horizontal(&db);
        let args = Args {
            workload: "serve_mixed".into(),
            seed,
            seconds: 1.0,
            trace: false,
        };
        let plan = plan(&db, &v, &args, 600);
        (db, v, plan)
    }

    /// Writes on write items never change a read-item `Count`,
    /// `Member` or `TopK` answer, before or after compaction.
    #[test]
    fn writes_on_write_items_never_change_read_answers() {
        let (db, _, plan) = small(3);
        let mut corpus =
            LayeredCorpus::new(&db, 9, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
        let check = |corpus: &LayeredCorpus| {
            for e in plan.reads.iter().chain(&plan.topk) {
                let got = match e.request {
                    Request::Count { a, b } => Response::Count(corpus.pair_count(a, b)),
                    Request::Member { set, element } => {
                        Response::Member(corpus.member(set, element))
                    }
                    Request::TopK {
                        probe: Probe::Set(p),
                        k,
                    } => Response::TopK(corpus.top_k(p, k as usize)),
                    _ => unreachable!("reads only"),
                };
                assert_eq!(got, e.answer, "{:?}", e.request);
            }
        };
        check(&corpus);
        for w in &plan.writes {
            let applied = match w {
                WriteOp::Insert { tid, items } => corpus.insert_txn(*tid, items),
                WriteOp::Remove { tid, .. } => corpus.remove_txn(*tid),
            };
            assert_eq!(applied, Ok(w.applied()));
        }
        assert!(corpus.delta_memberships() > 0);
        check(&corpus);
        corpus.compact().unwrap();
        check(&corpus);
        for e in &plan.final_counts {
            let Request::Count { a, b } = e.request else {
                unreachable!()
            };
            assert_eq!(Response::Count(corpus.pair_count(a, b)), e.answer);
        }
    }

    /// Latency runs from the due time: a generator that starts 50 ms
    /// behind its schedule reports that lateness, and every request it
    /// sent late carries at least its lateness as latency.
    #[test]
    fn open_loop_latency_counts_from_due_time_and_reports_lateness() {
        let (db, v, plan) = small(4);
        let pre = preprocess_with(&v, 4, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
        assert_eq!(pre.n_items, db.n_items());
        let engine = QueryEngine::new(vec![pre], engine_config(EngineOptions::auto()));
        let handle = Server::bind_tcp("127.0.0.1:0").unwrap().serve(engine);
        let behind = Duration::from_millis(50);
        let origin = Instant::now() - behind;
        let (reads, writes) = open_loop(handle.tcp_addr().unwrap(), &plan, 0.2, 4, origin);
        handle.join();
        assert_eq!(reads.failed + writes.failed, 0);
        let n_reads = (READ_RATE * 0.2) as usize;
        assert_eq!(reads.read_lat.len(), n_reads);
        let max_late = reads.late.iter().copied().fold(0.0, f64::max);
        assert!(
            max_late >= 0.049,
            "the first requests went out ~50 ms late, got {max_late}"
        );
        // Read i was due at i / READ_RATE; the ones due before the
        // generator started waited at least until it did.
        let sorted = crate::stats::sorted(&reads.read_lat);
        let due_before_start = (READ_RATE * 0.045) as usize;
        assert!(sorted[sorted.len() - due_before_start] >= 0.005);
        assert!(reads.read_lat.iter().all(|&l| l >= 0.0));
    }
}
