//! The sharded, batching query engine behind the socket server.
//!
//! One engine owns one or more **live** corpora: each is a
//! [`pairminer::LayeredCorpus`] — an immutable preprocessed base plus a
//! mutable delta region — behind one `RwLock`. Read queries take the
//! lock shared; writes ([`Request::Insert`] / [`Request::Remove`]) and
//! compaction ([`Request::Flush`]) take it exclusive, apply, and
//! release — writes are synchronous on the submitting connection
//! thread, so they interleave with batched reads at lock granularity.
//!
//! Each corpus' sets are carved into contiguous shards
//! ([`crate::shard::ShardMap`]) **by original item id** — item ids
//! never change, so shard ownership is stable across compactions even
//! though the width-sorted arena order permutes. Each shard gets a
//! dedicated worker thread with an **admission queue** (mutex + condvar
//! around a deque). A worker drains *everything* pending in one lock
//! acquisition, takes one shared corpus guard for the whole batch (so
//! every answer in a batch reflects a single corpus version), and then
//! coalesces: count probes against the same probe set become one
//! [`batmap::intersect::count_mixed_one_vs_many_into`] sweep, so the
//! probe's universe check happens once and its payload stays hot across
//! candidates — the same register-blocking economics the tile executors
//! exploit, applied to ad-hoc queries. Top-k probes scatter to every
//! shard and gather through an atomic countdown; the last shard to
//! finish merges and replies.
//!
//! Counts are **exact**: every raw sweep over stored payloads ends in
//! [`batmap::exact_pair_count`] (through
//! [`pairminer::LayeredCorpus::corrected`]), which adds the failed
//! cuckoo insertions of both sets and then the live delta — served
//! answers equal brute force over the live transaction multiset,
//! whatever the storage representation and however many un-compacted
//! writes are pending.
//! Compaction never changes any answer.
//!
//! Every reply is a pure function of the request and the corpus version
//! it ran against, and tie-breaking in top-k is total (count
//! descending, then set id ascending), so any interleaving of
//! concurrent clients — with writes fenced at phase boundaries —
//! produces byte-identical responses to a single-threaded replay;
//! pinned by `tests/serve_replay.rs`.

use crate::proto::{CorpusInfo, ItemsetEntry, LevelSummary, MineSummary, Probe, Request, Response};
use crate::shard::ShardMap;
use batmap::intersect::count_mixed_one_vs_many_into;
use batmap::{EngineOptions, SetView, TidlistRef};
use hpcutil::{fault_point, lock_recover, read_recover, wait_recover, write_recover};
use pairminer::{Engine, LayeredCorpus, LevelwiseConfig, MinerConfig, Preprocessed};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockWriteGuard};
use std::thread::JoinHandle;

/// Engine configuration. `Default` serves with one shard per core,
/// batching on, and every tuning knob at `Auto`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The engine tuning knobs. The `threads` knob governs mining jobs
    /// (and anything else that fans out inside one request); the
    /// `kernel`/`repr` knobs of the *corpus* were pinned at
    /// preprocessing time and travel inside the snapshot's parameters,
    /// so sweeps dispatch through those.
    pub options: EngineOptions,
    /// Shard workers per corpus; `0` means one per available core.
    pub shards: usize,
    /// Admission-queue batching: when true (the default), a worker
    /// coalesces all drained count probes sharing a probe set into one
    /// one-vs-many sweep; when false every query runs pairwise, which
    /// is what `perf_suite`'s `serve.coalesced` ratio compares against.
    pub batching: bool,
    /// Cap on itemsets returned by one [`Request::Mine`] (the summary
    /// notes truncation).
    pub mine_itemset_cap: usize,
    /// Cap on jobs queued per shard. A submission that would push a
    /// shard queue past this is **shed**: the query is not executed and
    /// the client receives [`Response::Overloaded`] (retry after
    /// backing off). `0` means unbounded — the pre-hardening behavior,
    /// where a sustained overload grows the queue without limit.
    pub max_queue_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            options: EngineOptions::auto(),
            shards: 0,
            batching: true,
            mine_itemset_cap: 4096,
            // Generous: at serving rates this only sheds when the
            // engine is genuinely drowning, not on bursts the batching
            // sweeps can absorb.
            max_queue_depth: 65_536,
        }
    }
}

/// A reply channel: `(request id, response)` pairs, consumed by the
/// connection's writer thread (or a transient channel for
/// [`QueryEngine::query`]).
pub type Reply = Sender<(u64, Response)>;

/// One served corpus: the live layered state behind its lock, plus the
/// routing facts that never change (the item-id universe and the shard
/// map over it — both fixed at construction, so request routing and
/// validation never need the lock).
struct Corpus {
    state: RwLock<LayeredCorpus>,
    shard_map: ShardMap,
    /// Vocabulary size; immutable (writes reuse the fixed item space).
    n_items: u32,
    /// Transaction-slot universe; immutable (compaction preserves it).
    m: u64,
}

impl Corpus {
    fn new(pre: Preprocessed, shards: usize) -> Self {
        let n_items = pre.n_items;
        let m = pre.params.m();
        // Any seed yields identical counts; deriving it from the
        // params keeps compaction rebuilds deterministic per corpus.
        let seed = pre.params.fingerprint();
        let shard_map = ShardMap::new(n_items, shards);
        Corpus {
            state: RwLock::new(LayeredCorpus::from_preprocessed(pre, seed)),
            shard_map,
            n_items,
            m,
        }
    }

    /// The exclusive guard of a write or a mine. The transaction mirror
    /// both need is filled first under the shared lock, so after a
    /// cold start reads keep flowing while the first writer waits for
    /// the rebuild.
    fn write(&self) -> RwLockWriteGuard<'_, LayeredCorpus> {
        read_recover(&self.state).fill_mirror();
        write_recover(&self.state)
    }
}

/// The probe side of an in-flight top-k job.
enum ProbeData {
    /// A stored set, by original item id (resolved to its current
    /// sorted position under each shard's batch guard).
    Set(u32),
    /// Validated ad-hoc elements (strictly ascending, in-universe) in
    /// the little-endian tidlist encoding each shard borrows as a
    /// [`TidlistRef`].
    Elements(Vec<u8>),
}

/// One top-k query scattered across all shards of a corpus.
struct TopKJob {
    id: u64,
    probe: ProbeData,
    k: usize,
    /// Shards yet to finish; the worker that takes this to zero merges
    /// the partials and replies.
    remaining: AtomicUsize,
    /// Set (Release) by any shard whose partial computation panicked,
    /// before that shard's countdown decrement (AcqRel): the merging
    /// shard is guaranteed to observe it and answer with a typed error
    /// instead of delivering a partial — possibly wrong — top-k.
    failed: AtomicBool,
    partials: Mutex<Vec<(u32, u64)>>,
    reply: Reply,
}

/// One unit of shard work. Sets travel as **original item ids** — the
/// only names that stay valid however many compactions land between
/// submission and execution.
enum Job {
    Count {
        id: u64,
        /// Probe item id (batching groups on this).
        a: u32,
        /// Candidate item id (this shard owns it).
        b: u32,
        reply: Reply,
    },
    Member {
        id: u64,
        set: u32,
        element: u32,
        reply: Reply,
    },
    TopK(Arc<TopKJob>),
}

struct ShardQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Inner {
    corpora: Vec<Corpus>,
    config: EngineConfig,
    /// Flattened shard queues: corpus `c`'s shard `s` lives at
    /// `queue_base[c] + s`.
    queues: Vec<ShardQueue>,
    queue_base: Vec<usize>,
    stop: AtomicBool,
    /// Worker panics survived: each one is a supervisor restart from
    /// the shared corpus state (exposed for chaos-test assertions).
    worker_restarts: AtomicUsize,
}

/// The sharded query engine. Construct with [`QueryEngine::new`], share
/// behind an [`Arc`], and either [`QueryEngine::submit`] with a reply
/// channel (the server's path) or ask synchronously with
/// [`QueryEngine::query`]. Dropping the engine stops and joins its
/// workers.
pub struct QueryEngine {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Spin up shard workers for `corpora` under `config`.
    ///
    /// # Panics
    /// Panics if `corpora` is empty.
    pub fn new(corpora: Vec<Preprocessed>, config: EngineConfig) -> QueryEngine {
        assert!(!corpora.is_empty(), "an engine needs at least one corpus");
        let shards = if config.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.shards
        };
        let corpora: Vec<Corpus> = corpora
            .into_iter()
            .map(|p| Corpus::new(p, shards))
            .collect();
        let mut queues = Vec::new();
        let mut queue_base = Vec::new();
        for corpus in &corpora {
            queue_base.push(queues.len());
            for _ in 0..corpus.shard_map.shards() {
                queues.push(ShardQueue {
                    jobs: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                });
            }
        }
        let inner = Arc::new(Inner {
            corpora,
            config,
            queues,
            queue_base,
            stop: AtomicBool::new(false),
            worker_restarts: AtomicUsize::new(0),
        });
        let mut workers = Vec::new();
        for c in 0..inner.corpora.len() {
            for s in 0..inner.corpora[c].shard_map.shards() {
                let inner = Arc::clone(&inner);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("batmap-shard-{c}-{s}"))
                        .spawn(move || worker_loop(&inner, c, s))
                        .expect("spawn shard worker"),
                );
            }
        }
        QueryEngine { inner, workers }
    }

    /// Open corpus snapshot files and spin up an engine over them,
    /// honouring the [`EngineOptions::load`] knob in `config.options`
    /// (`--load mmap` / `BATMAP_LOAD=mmap` serves a cold corpus
    /// zero-copy: the payload pages fault in on first query instead of
    /// being read and checksummed up front; run
    /// [`pairminer::Preprocessed::verify`] out of band if end-to-end
    /// payload integrity checking is wanted).
    ///
    /// Opening decodes no set: each corpus is wrapped by
    /// [`LayeredCorpus::from_preprocessed`], so the first read is
    /// served straight from the snapshot. The transaction mirror that
    /// writes, compaction and `Mine` need is rebuilt by the first of
    /// them, under the shared lock, so reads keep flowing meanwhile.
    ///
    /// # Panics
    /// Panics if `paths` is empty (an engine needs at least one corpus).
    pub fn open_snapshots<P: AsRef<std::path::Path>>(
        paths: &[P],
        config: EngineConfig,
    ) -> Result<QueryEngine, batmap::SnapshotError> {
        let corpora = paths
            .iter()
            .map(|p| Preprocessed::read_snapshot_file_with(p, config.options.load))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QueryEngine::new(corpora, config))
    }

    /// Number of corpora served.
    pub fn corpora(&self) -> u32 {
        self.inner.corpora.len() as u32
    }

    /// How many shard-worker panics the supervisor has absorbed (each
    /// one restarted the worker from the shared corpus state).
    pub fn worker_restarts(&self) -> usize {
        self.inner.worker_restarts.load(Ordering::Relaxed)
    }

    /// Submit one request; the response is delivered as `(id, response)`
    /// on `reply`, possibly out of order relative to other submissions.
    /// Mining, metadata, and **write** requests run synchronously on the
    /// calling thread (writes take the corpus lock exclusively);
    /// count/membership/top-k requests go through the shard queues.
    pub fn submit(&self, corpus: u32, id: u64, request: Request, reply: &Reply) {
        let inner = &self.inner;
        let Some(corp) = inner.corpora.get(corpus as usize) else {
            send(reply, id, Response::Error(format!("no corpus {corpus}")));
            return;
        };
        let n = corp.n_items;
        match request {
            Request::Count { a, b } => {
                if a >= n || b >= n {
                    send(reply, id, bad_set(a.max(b), n));
                    return;
                }
                if !self.enqueue(
                    corpus as usize,
                    corp.shard_map.shard_of(b),
                    Job::Count {
                        id,
                        a,
                        b,
                        reply: reply.clone(),
                    },
                ) {
                    send(reply, id, Response::Overloaded);
                }
            }
            Request::Member { set, element } => {
                if set >= n {
                    send(reply, id, bad_set(set, n));
                    return;
                }
                if !self.enqueue(
                    corpus as usize,
                    corp.shard_map.shard_of(set),
                    Job::Member {
                        id,
                        set,
                        element,
                        reply: reply.clone(),
                    },
                ) {
                    send(reply, id, Response::Overloaded);
                }
            }
            Request::TopK { probe, k } => {
                let probe = match probe {
                    Probe::Set(set) => {
                        if set >= n {
                            send(reply, id, bad_set(set, n));
                            return;
                        }
                        ProbeData::Set(set)
                    }
                    Probe::Elements(elements) => {
                        let ascending = elements.windows(2).all(|w| w[0] < w[1]);
                        let in_universe = elements.last().is_none_or(|&x| (x as u64) < corp.m);
                        if !ascending || !in_universe {
                            send(
                                reply,
                                id,
                                Response::Error(
                                    "probe elements must be strictly ascending and < m".into(),
                                ),
                            );
                            return;
                        }
                        let mut bytes = vec![0u8; 4 * elements.len()];
                        batmap::repr::encode_tidlist_into(&elements, &mut bytes);
                        ProbeData::Elements(bytes)
                    }
                };
                let shards = corp.shard_map.shards();
                // A top-k job scatters to every shard and completes via
                // an all-shards countdown, so it must be admitted whole
                // or not at all: shed up front if any target queue is
                // at capacity (the check is advisory — concurrent
                // submitters can briefly over-admit, which a soft depth
                // cap tolerates).
                if (0..shards).any(|s| self.at_capacity(corpus as usize, s)) {
                    send(reply, id, Response::Overloaded);
                    return;
                }
                let job = Arc::new(TopKJob {
                    id,
                    probe,
                    k: k as usize,
                    remaining: AtomicUsize::new(shards as usize),
                    failed: AtomicBool::new(false),
                    partials: Mutex::new(Vec::new()),
                    reply: reply.clone(),
                });
                for shard in 0..shards {
                    self.enqueue_unbounded(corpus as usize, shard, Job::TopK(Arc::clone(&job)));
                }
            }
            Request::Insert { tid, items } => {
                // The fine-grained validation (slot collisions, item
                // order, universe bounds) lives in the corpus so it is
                // identical for every caller; `ingest.apply` faults
                // surface here as typed errors with the state untouched.
                let outcome = corp.write().insert_txn(tid, &items);
                send(
                    reply,
                    id,
                    match outcome {
                        Ok(changed) => Response::Applied(changed),
                        Err(e) => Response::Error(e.to_string()),
                    },
                );
            }
            Request::Remove { tid } => {
                let outcome = corp.write().remove_txn(tid);
                send(
                    reply,
                    id,
                    match outcome {
                        Ok(changed) => Response::Applied(changed),
                        Err(e) => Response::Error(e.to_string()),
                    },
                );
            }
            Request::Flush => {
                // A clean corpus compacts to a no-op, and a dirty one
                // has filled its mirror on the write that dirtied it.
                let mut state = write_recover(&corp.state);
                let folded = state.delta_memberships();
                send(
                    reply,
                    id,
                    match state.compact() {
                        Ok(()) => Response::Flushed(folded),
                        Err(e) => Response::Error(e.to_string()),
                    },
                );
            }
            Request::Mine { depth, minsup } => {
                send(reply, id, self.mine(corp, depth, minsup));
            }
            Request::Info => {
                let state = read_recover(&corp.state);
                let hist = state.pre().repr_histogram();
                send(
                    reply,
                    id,
                    Response::Info(CorpusInfo {
                        sets: n,
                        m: corp.m,
                        repr_histogram: [hist[0] as u64, hist[1] as u64, hist[2] as u64],
                        failed: state.pre().failed.len() as u64,
                        shards: corp.shard_map.shards(),
                    }),
                );
            }
            Request::Shutdown => {
                // The engine itself has nothing to tear down per
                // request; the server layer watches for Bye to stop
                // accepting.
                send(reply, id, Response::Bye);
            }
        }
    }

    /// Synchronous convenience: submit and wait for the one response.
    pub fn query(&self, corpus: u32, request: Request) -> Response {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(corpus, 0, request, &tx);
        drop(tx);
        rx.recv().map(|(_, resp)| resp).unwrap_or_else(|_| {
            Response::Error("engine dropped the request (shutting down?)".into())
        })
    }

    /// Queue one job, or refuse it (returning `false`) when the shard
    /// queue is at [`EngineConfig::max_queue_depth`] — the caller sheds
    /// with [`Response::Overloaded`].
    fn enqueue(&self, corpus: usize, shard: u32, job: Job) -> bool {
        let queue = &self.inner.queues[self.inner.queue_base[corpus] + shard as usize];
        let depth = self.inner.config.max_queue_depth;
        {
            let mut jobs = lock_recover(&queue.jobs);
            if depth != 0 && jobs.len() >= depth {
                return false;
            }
            jobs.push_back(job);
        }
        queue.available.notify_one();
        true
    }

    /// Queue one job past the depth cap (top-k scatter legs, which are
    /// admitted or shed as a whole before this point).
    fn enqueue_unbounded(&self, corpus: usize, shard: u32, job: Job) {
        let queue = &self.inner.queues[self.inner.queue_base[corpus] + shard as usize];
        lock_recover(&queue.jobs).push_back(job);
        queue.available.notify_one();
    }

    /// True when a shard queue is at its depth cap.
    fn at_capacity(&self, corpus: usize, shard: u32) -> bool {
        let depth = self.inner.config.max_queue_depth;
        if depth == 0 {
            return false;
        }
        let queue = &self.inner.queues[self.inner.queue_base[corpus] + shard as usize];
        lock_recover(&queue.jobs).len() >= depth
    }

    fn mine(&self, corp: &Corpus, depth: u32, minsup: u64) -> Response {
        if !(2..=15).contains(&depth) {
            return Response::Error(format!("mining depth must be in 2..=15, got {depth}"));
        }
        let config = LevelwiseConfig {
            depth: depth as usize,
            pair: MinerConfig {
                minsup: minsup.max(1),
                engine: Engine::Cpu,
                options: self.inner.config.options,
                ..MinerConfig::default()
            },
            ..LevelwiseConfig::default()
        };
        // Exclusive: mining compacts pending deltas first (so level 2
        // runs the tiled pipeline over a clean arena) and must not race
        // writes. Readers drain before the lock grants.
        let mut state = corp.write();
        let report = match state.mine(config) {
            Ok(report) => report,
            Err(e) => return Response::Error(e.to_string()),
        };
        let cap = self.inner.config.mine_itemset_cap;
        let truncated = report.itemsets.len() > cap;
        Response::Mined(MineSummary {
            levels: report
                .levels
                .iter()
                .map(|l| LevelSummary {
                    k: l.k as u32,
                    candidates: l.candidates as u64,
                    frequent: l.frequent as u64,
                })
                .collect(),
            itemsets: report
                .itemsets
                .iter()
                .take(cap)
                .map(|s| ItemsetEntry {
                    items: s.items.clone(),
                    support: s.support,
                })
                .collect(),
            truncated,
        })
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for queue in &self.inner.queues {
            // Take the lock so no worker can check the flag between its
            // emptiness test and its wait.
            let _guard = lock_recover(&queue.jobs);
            queue.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn send(reply: &Reply, id: u64, response: Response) {
    // A dropped receiver means the connection is gone; the answer has
    // nowhere to go and that is fine.
    let _ = reply.send((id, response));
}

fn bad_set(set: u32, n: u32) -> Response {
    Response::Error(format!("no set {set} (corpus has {n})"))
}

// ---------------------------------------------------------------------
// Shard workers.

/// The supervisor: run the worker body, and if it ever escapes with a
/// panic — a bug in a kernel sweep, a poisoned invariant, or an
/// injected `engine.worker.batch` fault — answer what can still be
/// answered, count the restart, and start the body again over the same
/// shared corpus state (readers only ever hold the lock shared, so a
/// panicked batch cannot have damaged it).
fn worker_loop(inner: &Inner, corpus: usize, shard: u32) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_run(inner, corpus, shard))).is_ok() {
            return; // clean stop-flag exit
        }
        inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn worker_run(inner: &Inner, corpus: usize, shard: u32) {
    let queue = &inner.queues[inner.queue_base[corpus] + shard as usize];
    let corp = &inner.corpora[corpus];
    let mut batch: Vec<Job> = Vec::new();
    let mut done: Vec<bool> = Vec::new();
    loop {
        {
            let mut jobs = lock_recover(&queue.jobs);
            while jobs.is_empty() && !inner.stop.load(Ordering::SeqCst) {
                jobs = wait_recover(&queue.available, jobs);
            }
            if jobs.is_empty() {
                return; // stop requested, queue drained
            }
            // The whole point: take everything pending in one go so the
            // batch below can coalesce across requests.
            batch.extend(jobs.drain(..));
        }
        // Contain panics to the batch: jobs not yet answered when the
        // batch blew up get a typed error (and top-k countdowns their
        // guaranteed decrement), so no client ever hangs on a panicked
        // worker — then the worker keeps serving the next batch.
        done.clear();
        done.resize(batch.len(), false);
        if catch_unwind(AssertUnwindSafe(|| {
            process_batch(inner, corp, shard, &batch, &mut done)
        }))
        .is_err()
        {
            inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
            for (job, &answered) in batch.iter().zip(done.iter()) {
                if answered {
                    continue;
                }
                match job {
                    Job::Count { id, reply, .. } | Job::Member { id, reply, .. } => send(
                        reply,
                        *id,
                        Response::Error("internal error: shard worker panicked".into()),
                    ),
                    Job::TopK(job) => {
                        job.failed.store(true, Ordering::Release);
                        finish_topk(job);
                    }
                }
            }
        }
        batch.clear();
    }
}

fn process_batch(inner: &Inner, corp: &Corpus, shard: u32, batch: &[Job], done: &mut [bool]) {
    // Panic/delay injection for the containment machinery above; fires
    // before any reply so a contained batch answers every job exactly
    // once.
    fault_point!("engine.worker.batch");
    // One shared guard for the whole batch: every job in it is answered
    // against a single corpus version, and writes (exclusive) serialize
    // at batch boundaries.
    let state = read_recover(&corp.state);
    // Membership and top-k first (cheap / already swept), then counts —
    // grouped by probe when batching is on.
    let mut count_jobs: Vec<(usize, u64, u32, u32, &Reply)> = Vec::new();
    for (i, job) in batch.iter().enumerate() {
        match job {
            Job::Member {
                id,
                set,
                element,
                reply,
            } => {
                send(reply, *id, Response::Member(state.member(*set, *element)));
                done[i] = true;
            }
            Job::TopK(job) => {
                // Compute the partial inside the batch's catch scope;
                // the countdown below runs whether or not a later job
                // panics, because `done` is only set after it.
                let local = topk_shard_partial(corp, &state, shard, job);
                if !local.is_empty() {
                    lock_recover(&job.partials).extend(local);
                }
                finish_topk(job);
                done[i] = true;
            }
            Job::Count { id, a, b, reply } => count_jobs.push((i, *id, *a, *b, reply)),
        }
    }
    if count_jobs.is_empty() {
        return;
    }
    if !inner.config.batching {
        for (i, id, a, b, reply) in count_jobs {
            send(reply, id, Response::Count(state.pair_count(a, b)));
            done[i] = true;
        }
        return;
    }
    // Coalesce: all drained counts sharing a probe become one
    // one-vs-many sweep (BTreeMap for deterministic group order).
    let mut by_probe: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (j, &(_, _, a, _, _)) in count_jobs.iter().enumerate() {
        by_probe.entry(a).or_default().push(j);
    }
    let item_to_sorted = &state.pre().item_to_sorted;
    let mut counts = vec![0u64; count_jobs.len()];
    for (&a, group) in &by_probe {
        if group.len() == 1 {
            let (_, _, _, b, _) = count_jobs[group[0]];
            counts[group[0]] = state.pair_count(a, b);
            continue;
        }
        let sa = item_to_sorted[a as usize] as usize;
        let probe = state.payload(sa);
        let positions: Vec<usize> = group
            .iter()
            .map(|&j| item_to_sorted[count_jobs[j].3 as usize] as usize)
            .collect();
        let candidates: Vec<SetView<'_>> = positions.iter().map(|&sb| state.payload(sb)).collect();
        let mut out = vec![0u64; group.len()];
        count_mixed_one_vs_many_into(&probe, &candidates, &mut out);
        for ((&j, &sb), raw) in group.iter().zip(&positions).zip(out) {
            counts[j] = state.corrected(raw, sa, sb);
        }
    }
    for ((i, id, _, _, reply), count) in count_jobs.into_iter().zip(counts) {
        send(reply, id, Response::Count(count));
        done[i] = true;
    }
}

/// The terminal countdown of one shard's leg of a top-k job: exactly
/// one call per shard per job, whatever happened to the partial
/// computation. The shard that takes `remaining` to zero merges and
/// replies — or, when any leg recorded a panic, answers with a typed
/// error so the client never receives a partial top-k.
fn finish_topk(job: &Arc<TopKJob>) {
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        if job.failed.load(Ordering::Acquire) {
            send(
                &job.reply,
                job.id,
                Response::Error("internal error: top-k shard worker panicked".into()),
            );
            return;
        }
        // Last shard standing merges. The full sort has a total order
        // (count descending, id ascending; ids are unique), so the
        // result is independent of which shard got here last.
        let mut hits = std::mem::take(&mut *lock_recover(&job.partials));
        hits.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(job.k);
        send(&job.reply, job.id, Response::TopK(hits));
    }
}

/// One shard's top-k partial: pure compute, no countdown, no reply (so
/// a panic in here is recoverable by the caller). The shard's item-id
/// range is resolved to sorted positions under the caller's batch
/// guard; partials carry item ids directly, so the merge needs no
/// further translation — and stays exact across compactions, which
/// never change any live count.
fn topk_shard_partial(
    corp: &Corpus,
    state: &LayeredCorpus,
    shard: u32,
    job: &Arc<TopKJob>,
) -> Vec<(u32, u64)> {
    fault_point!("engine.topk.shard");
    let range = corp.shard_map.range(shard);
    let mut local: Vec<(u32, u64)> = Vec::new();
    if range.is_empty() {
        return local;
    }
    let item_to_sorted = &state.pre().item_to_sorted;
    let positions: Vec<usize> = range
        .clone()
        .map(|item| item_to_sorted[item as usize] as usize)
        .collect();
    let candidates: Vec<SetView<'_>> = positions.iter().map(|&s| state.payload(s)).collect();
    let mut out = vec![0u64; candidates.len()];
    let self_item = match &job.probe {
        ProbeData::Set(item) => {
            let sp = item_to_sorted[*item as usize] as usize;
            let view = state.payload(sp);
            count_mixed_one_vs_many_into(&view, &candidates, &mut out);
            // Corrections (failed insertions + live delta) per
            // candidate; each is O(|failures| + |delta|), almost
            // always a handful of probes on empty lists.
            for (raw, &sb) in out.iter_mut().zip(&positions) {
                *raw = state.corrected(*raw, sp, sb);
            }
            Some(*item)
        }
        ProbeData::Elements(bytes) => {
            let view = SetView::Tidlist(TidlistRef::from_bytes(&state.pre().params, bytes));
            count_mixed_one_vs_many_into(&view, &candidates, &mut out);
            for (raw, &sb) in out.iter_mut().zip(&positions) {
                *raw = state.corrected_adhoc(*raw, &view, sb);
            }
            None
        }
    };
    for (item, count) in range.zip(out) {
        if count == 0 || Some(item) == self_item {
            continue;
        }
        local.push((item, count));
    }
    local
}
