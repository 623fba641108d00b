//! Incremental ingestion: a mutable [`LayeredCorpus`] over an immutable
//! preprocessed snapshot, background compaction, and a sliding-window
//! miner.
//!
//! The preprocessing pipeline ([`mod@crate::preprocess`]) builds a corpus
//! once; this module makes it *live*. A [`LayeredCorpus`] keeps the
//! base [`Preprocessed`] arena untouched — so every SIMD sweep and
//! mixed-representation kernel still runs over contiguous immutable
//! bytes — and layers a [`batmap::DeltaRegion`] of small owned mutable
//! sets on top (sorted add and remove tidlists per item). Queries merge
//! base and delta:
//!
//! * counts — stored + failed + delta adds − delta removes;
//! * membership — one delta probe, then the base (stored ∪ failed);
//! * pair counts — the stored×stored kernel sweep, then
//!   [`batmap::exact_pair_count`], which adds the failed-insertion
//!   terms and the O(|delta|) inclusion–exclusion terms.
//!
//! The failed insertions are read straight from the base's one failure
//! index ([`Preprocessed::failed_for`]); the live corpus keeps no copy.
//!
//! Writes are whole transactions: [`LayeredCorpus::insert_txn`] fills a
//! free transaction slot, [`LayeredCorpus::remove_txn`] clears a live
//! one. Both are **idempotent** (re-applying an already-applied write
//! answers `Ok(0)`), which is what makes the retrying network client
//! safe to re-issue them after an ambiguous transport failure. The
//! transaction-id universe `m` is fixed at build time — a stream of
//! fresh transactions recycles the slots of expired ones, which is
//! exactly what [`WindowedMiner`] does with its ring of `capacity`
//! slots over the last `window` transactions.
//!
//! Alongside sits the **transaction mirror**: `txns[tid]`, the ground
//! truth that validates writes and feeds compaction and mining. Reads
//! never touch it. [`LayeredCorpus::new`] takes it from the database;
//! [`LayeredCorpus::from_preprocessed`] — a snapshot open — leaves it
//! empty, and the first write, compaction, mine or mirror read
//! rebuilds it from stored ∪ failed elements in one counting pass
//! ([`transactions_of`]). So a corpus opened from a snapshot serves
//! reads at once, and the mirror's cost falls on its first writer.
//!
//! [`LayeredCorpus::compact`] folds base+delta into a fresh arena via
//! the standard two-pass width-sorted build and swaps it in (the swap
//! is guarded by the `ingest.compact.swap` fault site; a failed swap
//! leaves the old state fully intact). [`LayeredCorpus::begin_compaction`]
//! / [`LayeredCorpus::try_finish_compaction`] split that into a
//! snapshot–build–swap sequence so the (expensive) build can run off
//! any lock, with the swap refused when writes raced it. Writes
//! themselves pass the `ingest.apply` fault site before touching
//! anything, so an injected fault is atomic: the corpus is either
//! unchanged or fully updated.
//!
//! ```
//! use batmap::EngineOptions;
//! use fim::TransactionDb;
//! use pairminer::ingest::LayeredCorpus;
//!
//! // Three items over eight transaction slots, three of them live.
//! let db = TransactionDb::new(
//!     3,
//!     vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![], vec![], vec![], vec![], vec![]],
//! );
//! let mut corpus = LayeredCorpus::new(&db, 0xFEED, 128, EngineOptions::auto());
//! assert_eq!(corpus.pair_count(0, 1), 1); // items 0 and 1 share transaction 0
//!
//! corpus.insert_txn(3, &[0, 1, 2]).unwrap(); // live write into a free slot
//! assert_eq!(corpus.pair_count(0, 1), 2);
//! assert!(corpus.member(2, 3));
//!
//! corpus.remove_txn(0).unwrap();
//! assert_eq!(corpus.pair_count(0, 1), 1);
//!
//! corpus.compact().unwrap(); // fold the delta into a fresh arena
//! assert!(!corpus.is_dirty());
//! assert_eq!(corpus.pair_count(0, 1), 1); // compaction is query-invisible
//! ```

use crate::preprocess::{preprocess_with, Preprocessed};
use crate::{LevelwiseConfig, LevelwiseMiner, LevelwiseReport};
use batmap::hash::InversePerms;
use batmap::intersect::count_mixed_with;
use batmap::{exact_pair_count, DeltaRegion, EngineOptions, PairSide, SetRepr, SetView};
use fim::{TransactionDb, VerticalDb};
use hpcutil::fault_point;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A rejected or failed write-path operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The transaction id is outside the fixed universe `m`.
    OutOfUniverse {
        /// The offending transaction id.
        tid: u32,
        /// The universe size.
        m: u64,
    },
    /// An item id is outside the fixed vocabulary.
    UnknownItem {
        /// The offending item id.
        item: u32,
        /// The vocabulary size.
        n: u32,
    },
    /// The item list is not strictly ascending (or empty).
    BadItems(String),
    /// The slot is live with *different* items (a same-items re-insert
    /// is an idempotent no-op instead).
    Conflict {
        /// The contested transaction id.
        tid: u32,
    },
    /// An injected `ingest.*` fault (or a compaction refused because
    /// concurrent writes raced it).
    Fault(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::OutOfUniverse { tid, m } => {
                write!(f, "transaction id {tid} outside the universe of {m} slots")
            }
            IngestError::UnknownItem { item, n } => {
                write!(f, "item {item} outside the vocabulary of {n} items")
            }
            IngestError::BadItems(what) => write!(f, "bad item list: {what}"),
            IngestError::Conflict { tid } => {
                write!(f, "transaction slot {tid} is live with different items")
            }
            IngestError::Fault(message) => write!(f, "ingest fault: {message}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<IngestError> for std::io::Error {
    fn from(e: IngestError) -> std::io::Error {
        std::io::Error::other(e.to_string())
    }
}

/// A snapshotted compaction job: the ground-truth transactions plus the
/// version they were taken at. [`CompactionJob::build`] runs the
/// two-pass width-sorted rebuild without touching the live corpus, so a
/// server can hold no lock (or only a read lock) while it runs; the
/// result swaps in through [`LayeredCorpus::try_finish_compaction`],
/// which refuses if any write landed in between.
#[derive(Debug, Clone)]
pub struct CompactionJob {
    txns: Vec<Vec<u32>>,
    version: u64,
    n_items: u32,
    seed: u64,
    max_loop: u32,
    options: EngineOptions,
}

impl CompactionJob {
    /// The corpus version this job snapshotted (what the swap is
    /// validated against).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rebuild base+delta into a fresh width-sorted arena. Pure
    /// function of the snapshot — run it anywhere.
    pub fn build(&self) -> Preprocessed {
        let db = TransactionDb::new(self.n_items, self.txns.clone());
        let v = VerticalDb::from_horizontal(&db);
        preprocess_with(&v, self.seed, self.max_loop, self.options)
    }
}

/// The transactions a preprocessed corpus holds: `txns[tid]` lists,
/// ascending, the items whose stored set or failed insertions contain
/// `tid` (empty = free slot); one entry per slot of the universe `m`.
///
/// One counting pass: items are walked in ascending id, each decoding
/// its stored elements and its failed tids into one flat buffer; every
/// slot is then allocated at its exact length and filled in item order,
/// so no slot is sorted. Batmap elements are inverted through
/// [`InversePerms::for_elements`] — the `πₜ⁻¹` tables when the corpus
/// stores enough batmap elements to pay for them.
pub fn transactions_of(pre: &Preprocessed) -> Vec<Vec<u32>> {
    let n = pre.n_items as usize;
    let (mut stored, mut batmap_elements) = (0, 0);
    for s in 0..n {
        let view = pre.payload(s);
        stored += view.len();
        if view.repr() == SetRepr::Batmap {
            batmap_elements += view.len() as u64;
        }
    }
    let inverse = InversePerms::for_elements(pre.params.perms(), batmap_elements);
    // `tids[ends[i-1]..ends[i]]` are item i's memberships.
    let mut tids: Vec<u32> = Vec::with_capacity(stored + pre.failed.len());
    let mut ends = Vec::with_capacity(n);
    for &s in &pre.item_to_sorted {
        let s = s as usize;
        pre.payload(s)
            .for_each_element(&inverse, |tid| tids.push(tid));
        tids.extend(pre.failed_for(s).iter().map(|&(_, tid)| tid));
        ends.push(tids.len());
    }
    let mut counts = vec![0u32; pre.params.m() as usize];
    for &tid in &tids {
        counts[tid as usize] += 1;
    }
    let mut txns: Vec<Vec<u32>> = counts
        .iter()
        .map(|&c| Vec::with_capacity(c as usize))
        .collect();
    let mut start = 0;
    for (item, &end) in ends.iter().enumerate() {
        for &tid in &tids[start..end] {
            txns[tid as usize].push(item as u32);
        }
        start = end;
    }
    txns
}

/// A live corpus: an immutable preprocessed base, a mutable delta
/// region, and the ground-truth transaction mirror that makes writes
/// validatable and compaction a pure rebuild. See the module docs.
#[derive(Debug)]
pub struct LayeredCorpus {
    pre: Preprocessed,
    /// Per-sorted-position deltas over the base payloads.
    delta: DeltaRegion,
    /// The live transactions, `txns[tid]` strictly ascending (empty =
    /// free slot). Length is exactly the universe size `m`. Filled on
    /// first use after [`LayeredCorpus::from_preprocessed`] (reads
    /// never need it); always filled before the base is swapped.
    txns: OnceLock<Vec<Vec<u32>>>,
    /// Seed for compaction rebuilds.
    seed: u64,
    /// Bumped by every applied write and every compaction swap; the
    /// optimistic-concurrency token of the two-phase compaction.
    version: u64,
}

impl LayeredCorpus {
    /// Preprocess `db` and wrap it as a live corpus. `db.len()` fixes
    /// the transaction-slot universe; size it for the writes you expect
    /// (free slots cost nothing in the arena — empty sets).
    pub fn new(db: &TransactionDb, seed: u64, max_loop: u32, options: EngineOptions) -> Self {
        let v = VerticalDb::from_horizontal(db);
        let pre = preprocess_with(&v, seed, max_loop, options);
        let txns = OnceLock::from(db.transactions().to_vec());
        Self::assemble(pre, txns, seed)
    }

    /// Wrap an existing preprocessed corpus (e.g. one loaded from a
    /// snapshot) as a live corpus, at once: reads are served straight
    /// from the base. The transaction mirror is rebuilt from stored ∪
    /// failed elements ([`transactions_of`]) by the first operation
    /// that needs it — a write, a compaction, [`LayeredCorpus::mine`],
    /// or the [`LayeredCorpus::database`] / [`LayeredCorpus::transaction`]
    /// / [`LayeredCorpus::live_transactions`] accessors — or ahead of
    /// time by [`LayeredCorpus::fill_mirror`]. `seed` feeds compaction
    /// rebuilds.
    pub fn from_preprocessed(pre: Preprocessed, seed: u64) -> Self {
        Self::assemble(pre, OnceLock::new(), seed)
    }

    fn assemble(pre: Preprocessed, txns: OnceLock<Vec<Vec<u32>>>, seed: u64) -> Self {
        debug_assert!(txns.get().is_none_or(|t| t.len() as u64 == pre.params.m()));
        let delta = DeltaRegion::new(pre.n_items as usize);
        LayeredCorpus {
            pre,
            delta,
            txns,
            seed,
            version: 0,
        }
    }

    // -- accessors -----------------------------------------------------

    /// The transaction mirror, rebuilt from the base on first use.
    fn mirror(&self) -> &[Vec<u32>] {
        self.txns.get_or_init(|| transactions_of(&self.pre))
    }

    fn mirror_mut(&mut self) -> &mut Vec<Vec<u32>> {
        self.mirror();
        self.txns.get_mut().expect("mirror filled above")
    }

    /// Rebuild the transaction mirror now if it is not built yet (a
    /// no-op otherwise). Takes `&self`, so a server can pay for the
    /// first write after a cold start under a shared lock while reads
    /// keep flowing.
    pub fn fill_mirror(&self) {
        self.mirror();
    }

    /// The immutable base corpus (arena, order maps, params).
    pub fn pre(&self) -> &Preprocessed {
        &self.pre
    }

    /// Vocabulary size (original item ids are `0..n_items`).
    pub fn n_items(&self) -> u32 {
        self.pre.n_items
    }

    /// Transaction-slot universe size.
    pub fn m(&self) -> u64 {
        self.pre.params.m()
    }

    /// The optimistic-concurrency version: bumped by every applied
    /// write and every compaction swap.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True when the delta region records any difference from the base
    /// (i.e. a compaction would change the arena).
    pub fn is_dirty(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Membership differences from the base snapshot (delta adds +
    /// removes) — what a compaction would fold in.
    pub fn delta_memberships(&self) -> u64 {
        self.delta.memberships()
    }

    /// The live items of transaction slot `tid` (empty = free).
    pub fn transaction(&self, tid: u32) -> &[u32] {
        &self.mirror()[tid as usize]
    }

    /// Number of live (non-empty) transaction slots.
    pub fn live_transactions(&self) -> usize {
        self.mirror().iter().filter(|t| !t.is_empty()).count()
    }

    /// Zero-copy view of the *base* payload at sorted position `s` (the
    /// kernels' input; delta corrections ride on top).
    pub fn payload(&self, s: usize) -> SetView<'_> {
        self.pre.payload(s)
    }

    // -- queries -------------------------------------------------------

    /// The set at sorted position `s` as an operand of
    /// [`exact_pair_count`]: stored payload, failed insertions, delta.
    fn side(&self, s: usize) -> PairSide<'_, impl Fn(u32) -> bool + '_> {
        PairSide {
            stored: move |x| self.pre.payload(s).contains(x),
            failed: self.pre.failed_for(s),
            delta: self.delta.get(s),
        }
    }

    /// Base membership (stored ∪ failed) at sorted position `s`.
    fn base_contains(&self, s: usize, tid: u32) -> bool {
        self.side(s).in_base(tid)
    }

    /// Live support of `item` (base + delta).
    pub fn count(&self, item: u32) -> u64 {
        let s = self.pre.item_to_sorted[item as usize] as usize;
        let base = self.pre.payload(s).len() + self.pre.failed_for(s).len();
        (base as i64 + self.delta.count_delta(s)).max(0) as u64
    }

    /// Live membership: does `item`'s set contain `tid`?
    pub fn member(&self, item: u32, tid: u32) -> bool {
        if (tid as u64) >= self.m() {
            return false;
        }
        let s = self.pre.item_to_sorted[item as usize] as usize;
        self.member_sorted(s, tid)
    }

    /// Live membership by sorted position (the engine's path).
    pub fn member_sorted(&self, s: usize, tid: u32) -> bool {
        if (tid as u64) >= self.m() {
            return false;
        }
        self.delta
            .member_delta(s, tid)
            .unwrap_or_else(|| self.base_contains(s, tid))
    }

    /// Turn a raw stored-payload count between sorted positions into
    /// the exact live count ([`exact_pair_count`]). This is what the
    /// engine's coalesced one-vs-many sweeps call per candidate.
    pub fn corrected(&self, raw: u64, sa: usize, sb: usize) -> u64 {
        exact_pair_count(raw, &self.side(sa), &self.side(sb))
    }

    /// Exact live count between an ad-hoc probe (a view with no
    /// failures and no delta) and the set at sorted position `sb`,
    /// starting from the raw stored-payload count.
    pub fn corrected_adhoc(&self, raw: u64, probe: &SetView<'_>, sb: usize) -> u64 {
        let probe = PairSide {
            stored: |x| probe.contains(x),
            failed: &[],
            delta: None,
        };
        exact_pair_count(raw, &probe, &self.side(sb))
    }

    /// Exact live pair count by original item ids: one kernel sweep
    /// over the base payloads plus the O(|delta|) corrections.
    pub fn pair_count(&self, a: u32, b: u32) -> u64 {
        let sa = self.pre.item_to_sorted[a as usize] as usize;
        let sb = self.pre.item_to_sorted[b as usize] as usize;
        let backend = self.pre.params.kernel_backend();
        let raw = count_mixed_with(backend, &self.pre.payload(sa), &self.pre.payload(sb));
        self.corrected(raw, sa, sb)
    }

    /// The `k` items most similar to `item` — largest exact live
    /// intersection count, ties by ascending item id; zero counts and
    /// the probe itself omitted. (Reference implementation; the serving
    /// engine shards and coalesces the same computation.)
    pub fn top_k(&self, item: u32, k: usize) -> Vec<(u32, u64)> {
        let mut hits: Vec<(u32, u64)> = (0..self.n_items())
            .filter(|&other| other != item)
            .map(|other| (other, self.pair_count(item, other)))
            .filter(|&(_, c)| c > 0)
            .collect();
        hits.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }

    /// The live corpus as a horizontal database (what mining and the
    /// differential oracle rebuild from).
    pub fn database(&self) -> TransactionDb {
        TransactionDb::new(self.pre.n_items, self.mirror().to_vec())
    }

    // -- writes --------------------------------------------------------

    fn validate_items(&self, items: &[u32]) -> Result<(), IngestError> {
        if items.is_empty() {
            return Err(IngestError::BadItems("empty transaction".into()));
        }
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return Err(IngestError::BadItems("items not strictly ascending".into()));
        }
        let n = self.n_items();
        if let Some(&item) = items.iter().find(|&&i| i >= n) {
            return Err(IngestError::UnknownItem { item, n });
        }
        Ok(())
    }

    /// Fill free transaction slot `tid` with `items` (strictly
    /// ascending item ids). Idempotent: re-inserting a live slot with
    /// identical items answers `Ok(0)`; different items are a
    /// [`IngestError::Conflict`]. Returns the number of memberships
    /// changed. The `ingest.apply` fault site fires before any state is
    /// touched, so an injected fault leaves the corpus unchanged.
    pub fn insert_txn(&mut self, tid: u32, items: &[u32]) -> Result<u64, IngestError> {
        if (tid as u64) >= self.m() {
            return Err(IngestError::OutOfUniverse { tid, m: self.m() });
        }
        self.validate_items(items)?;
        let live = &self.mirror()[tid as usize];
        if !live.is_empty() {
            return if live == items {
                Ok(0)
            } else {
                Err(IngestError::Conflict { tid })
            };
        }
        fault_point!("ingest.apply", |m: String| Err(IngestError::Fault(m)));
        for &item in items {
            let s = self.pre.item_to_sorted[item as usize] as usize;
            let in_base = self.base_contains(s, tid);
            self.delta.apply_add(s, tid, in_base);
        }
        self.mirror_mut()[tid as usize] = items.to_vec();
        self.version += 1;
        Ok(items.len() as u64)
    }

    /// Clear live transaction slot `tid`. Idempotent: removing a free
    /// slot answers `Ok(0)`. Returns the number of memberships changed.
    pub fn remove_txn(&mut self, tid: u32) -> Result<u64, IngestError> {
        if (tid as u64) >= self.m() {
            return Err(IngestError::OutOfUniverse { tid, m: self.m() });
        }
        if self.mirror()[tid as usize].is_empty() {
            return Ok(0);
        }
        fault_point!("ingest.apply", |m: String| Err(IngestError::Fault(m)));
        let items = std::mem::take(&mut self.mirror_mut()[tid as usize]);
        for &item in &items {
            let s = self.pre.item_to_sorted[item as usize] as usize;
            let in_base = self.base_contains(s, tid);
            self.delta.apply_remove(s, tid, in_base);
        }
        self.version += 1;
        Ok(items.len() as u64)
    }

    // -- compaction ----------------------------------------------------

    /// Snapshot the ground truth for an off-lock rebuild; pair with
    /// [`LayeredCorpus::try_finish_compaction`].
    pub fn begin_compaction(&self) -> CompactionJob {
        CompactionJob {
            txns: self.mirror().to_vec(),
            version: self.version,
            n_items: self.pre.n_items,
            seed: self.seed,
            max_loop: self.pre.params.max_loop(),
            options: self.pre.params.engine_options(),
        }
    }

    /// Swap a built compaction in — iff no write landed since its
    /// [`CompactionJob`] was begun. Returns `Ok(false)` when writes
    /// raced the build (the caller may begin again, or fall back to the
    /// synchronous [`LayeredCorpus::compact`]).
    pub fn try_finish_compaction(
        &mut self,
        version: u64,
        built: Preprocessed,
    ) -> Result<bool, IngestError> {
        if version != self.version {
            return Ok(false);
        }
        self.swap_in(built)?;
        Ok(true)
    }

    /// Rebuild base+delta into a fresh width-sorted arena and swap it
    /// in, emptying the delta region. Queries are unaffected (the live
    /// contents do not change — pinned by the differential oracle); the
    /// sorted order generally permutes. The swap itself sits behind the
    /// `ingest.compact.swap` fault site: a failed swap leaves the
    /// previous base, delta, and any previously written snapshot file
    /// fully intact.
    pub fn compact(&mut self) -> Result<(), IngestError> {
        if !self.is_dirty() {
            return Ok(());
        }
        let built = self.begin_compaction().build();
        self.swap_in(built)
    }

    fn swap_in(&mut self, built: Preprocessed) -> Result<(), IngestError> {
        fault_point!("ingest.compact.swap", |m: String| Err(IngestError::Fault(
            m
        )));
        // The mirror must come from the base it describes.
        self.fill_mirror();
        self.delta = DeltaRegion::new(built.n_items as usize);
        self.pre = built;
        self.version += 1;
        Ok(())
    }

    /// Compact (if dirty) and persist the fresh base crash-safely via
    /// the shared tmp + fsync + atomic-rename path: a crash — or an
    /// injected `ingest.compact.swap` / `snapshot.write.*` fault —
    /// never clobbers the previous snapshot at `path`.
    pub fn compact_to_file<P: AsRef<std::path::Path>>(&mut self, path: P) -> std::io::Result<()> {
        self.compact()?;
        self.pre.write_snapshot_file(path)
    }

    // -- mining --------------------------------------------------------

    /// Mine the live corpus levelwise. Compacts first when dirty so
    /// level 2 runs the tiled pair pipeline over a clean arena; the
    /// report equals a from-scratch mine of [`LayeredCorpus::database`].
    pub fn mine(&mut self, config: LevelwiseConfig) -> Result<LevelwiseReport, IngestError> {
        self.compact()?;
        let db = self.database();
        Ok(LevelwiseMiner::new(config).mine_with_preprocessed(&db, &self.pre))
    }
}

/// Frequent pairs/itemsets over the last `window` transactions of a
/// stream: a [`LayeredCorpus`] whose transaction slots form a ring of
/// `capacity ≥ window` slots, so pushing transaction `seq` reuses slot
/// `seq mod capacity` after the transaction `window` steps older was
/// expired. Mining reports ([`WindowedMiner::report`]) cover exactly
/// the live window and equal a from-scratch mine of those transactions.
#[derive(Debug)]
pub struct WindowedMiner {
    corpus: LayeredCorpus,
    window: usize,
    capacity: usize,
    /// Seqs currently in the window, ascending.
    live: VecDeque<u64>,
    next_seq: u64,
}

impl WindowedMiner {
    /// A miner over `n_items` items keeping the last `window`
    /// transactions, with `capacity` ring slots (`capacity ≥ window`;
    /// extra slack just means expired slots rest longer before reuse).
    ///
    /// # Panics
    /// Panics if `window == 0` or `capacity < window`.
    pub fn new(
        n_items: u32,
        window: usize,
        capacity: usize,
        seed: u64,
        max_loop: u32,
        options: EngineOptions,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            capacity >= window,
            "ring capacity {capacity} smaller than window {window}"
        );
        let db = TransactionDb::new(n_items, vec![Vec::new(); capacity]);
        WindowedMiner {
            corpus: LayeredCorpus::new(&db, seed, max_loop, options),
            window,
            capacity,
            live: VecDeque::with_capacity(window),
            next_seq: 0,
        }
    }

    /// Append one transaction (strictly ascending item ids), expiring
    /// the oldest one first when the window is full. Returns the
    /// transaction's sequence number. A failed expiry leaves the window
    /// unchanged, so the push can be retried.
    pub fn push(&mut self, items: &[u32]) -> Result<u64, IngestError> {
        if self.live.len() == self.window {
            // Expire before inserting: with capacity ≥ window the freed
            // slot is exactly the one `seq mod capacity` may reuse. The
            // seq leaves the window only once its slot is cleared.
            let oldest = *self.live.front().expect("window non-empty");
            self.corpus
                .remove_txn((oldest % self.capacity as u64) as u32)?;
            self.live.pop_front();
        }
        let seq = self.next_seq;
        self.corpus
            .insert_txn((seq % self.capacity as u64) as u32, items)?;
        self.live.push_back(seq);
        self.next_seq += 1;
        Ok(seq)
    }

    /// Transactions currently in the window.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The ring capacity (transaction-slot universe).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The layered corpus answering queries over the live window.
    pub fn corpus(&self) -> &LayeredCorpus {
        &self.corpus
    }

    /// Mutable access (e.g. to compact between reports).
    pub fn corpus_mut(&mut self) -> &mut LayeredCorpus {
        &mut self.corpus
    }

    /// Mine the live window levelwise (compacts the accumulated deltas
    /// first). The report equals a from-scratch mine of the window's
    /// transactions.
    pub fn report(&mut self, config: LevelwiseConfig) -> Result<LevelwiseReport, IngestError> {
        self.corpus.mine(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmap::ReprPolicy;
    use std::collections::BTreeSet;

    fn options() -> EngineOptions {
        EngineOptions::auto().repr(ReprPolicy::Hybrid)
    }

    /// A levelwise config that runs on the host CPU over the hybrid
    /// corpus (the GPU-sim engine requires an all-batmap corpus).
    fn mine_config() -> LevelwiseConfig {
        LevelwiseConfig {
            depth: 3,
            pair: crate::MinerConfig {
                engine: crate::Engine::Cpu,
                options: options(),
                ..crate::MinerConfig::default()
            },
            ..LevelwiseConfig::default()
        }
    }

    fn fixture() -> TransactionDb {
        let mut txns: Vec<Vec<u32>> = (0..48u32)
            .map(|t| (0..6u32).filter(|&i| (t + i) % (i + 2) == 0).collect())
            .collect();
        txns.resize(64, Vec::new());
        TransactionDb::new(6, txns)
    }

    /// Brute-force pair count over the live transaction mirror.
    fn oracle_pair(corpus: &LayeredCorpus, a: u32, b: u32) -> u64 {
        corpus
            .mirror()
            .iter()
            .filter(|t| t.binary_search(&a).is_ok() && t.binary_search(&b).is_ok())
            .count() as u64
    }

    #[test]
    fn writes_track_the_oracle_and_compaction_is_invisible() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA0, 128, options());
        let mut state = 0x1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..300 {
            let tid = (next() % 64) as u32;
            if corpus.transaction(tid).is_empty() {
                let items: Vec<u32> = (0..6).filter(|_| next() % 2 == 0).collect();
                if items.is_empty() {
                    continue;
                }
                corpus.insert_txn(tid, &items).unwrap();
            } else {
                corpus.remove_txn(tid).unwrap();
            }
            if step % 37 == 0 {
                corpus.compact().unwrap();
                assert!(!corpus.is_dirty());
            }
            if step % 11 == 0 {
                for a in 0..6 {
                    for b in 0..6 {
                        assert_eq!(
                            corpus.pair_count(a, b),
                            oracle_pair(&corpus, a, b),
                            "step {step} pair ({a},{b})"
                        );
                    }
                    let support = corpus
                        .mirror()
                        .iter()
                        .filter(|t| t.binary_search(&a).is_ok())
                        .count() as u64;
                    assert_eq!(corpus.count(a), support, "step {step} item {a}");
                }
            }
        }
    }

    #[test]
    fn membership_merges_base_and_delta() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA1, 128, options());
        let tid = 50; // free slot in the fixture
        assert!(!corpus.member(1, tid));
        corpus.insert_txn(tid, &[1, 3]).unwrap();
        assert!(corpus.member(1, tid));
        assert!(corpus.member(3, tid));
        assert!(!corpus.member(2, tid));
        // Remove a base transaction: membership flips through the delta.
        let base_tid = 0;
        let items: Vec<u32> = corpus.transaction(base_tid).to_vec();
        assert!(!items.is_empty());
        corpus.remove_txn(base_tid).unwrap();
        for &item in &items {
            assert!(!corpus.member(item, base_tid));
        }
        // Out-of-universe probes answer false, not panic.
        assert!(!corpus.member(1, u32::MAX));
    }

    #[test]
    fn writes_are_idempotent_and_conflicts_are_typed() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA2, 128, options());
        assert_eq!(corpus.insert_txn(60, &[0, 2, 4]).unwrap(), 3);
        assert_eq!(corpus.insert_txn(60, &[0, 2, 4]).unwrap(), 0);
        assert_eq!(
            corpus.insert_txn(60, &[0, 2]),
            Err(IngestError::Conflict { tid: 60 })
        );
        assert_eq!(corpus.remove_txn(60).unwrap(), 3);
        assert_eq!(corpus.remove_txn(60).unwrap(), 0);
        assert!(matches!(
            corpus.insert_txn(64, &[0]),
            Err(IngestError::OutOfUniverse { .. })
        ));
        assert!(matches!(
            corpus.insert_txn(61, &[6]),
            Err(IngestError::UnknownItem { .. })
        ));
        assert!(matches!(
            corpus.insert_txn(61, &[2, 1]),
            Err(IngestError::BadItems(_))
        ));
        assert!(matches!(
            corpus.insert_txn(61, &[]),
            Err(IngestError::BadItems(_))
        ));
    }

    #[test]
    fn two_phase_compaction_respects_racing_writes() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA3, 128, options());
        corpus.insert_txn(55, &[0, 1]).unwrap();
        let job = corpus.begin_compaction();
        let built = job.build();
        // A write lands between build and swap: the swap must refuse.
        corpus.insert_txn(56, &[2, 3]).unwrap();
        assert!(!corpus.try_finish_compaction(job.version(), built).unwrap());
        assert!(corpus.is_dirty());
        // A clean retry succeeds and folds everything in.
        let job = corpus.begin_compaction();
        let built = job.build();
        assert!(corpus.try_finish_compaction(job.version(), built).unwrap());
        assert!(!corpus.is_dirty());
        assert_eq!(corpus.pair_count(0, 1), oracle_pair(&corpus, 0, 1));
        assert_eq!(corpus.pair_count(2, 3), oracle_pair(&corpus, 2, 3));
    }

    #[test]
    fn mining_equals_from_scratch() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA4, 128, options());
        corpus.insert_txn(50, &[0, 1, 2]).unwrap();
        corpus.insert_txn(51, &[0, 1, 3]).unwrap();
        corpus.remove_txn(2).unwrap();
        let config = mine_config();
        let report = corpus.mine(config.clone()).unwrap();
        let scratch = LevelwiseMiner::new(config).mine(&corpus.database());
        assert_eq!(report.itemsets, scratch.itemsets);
        assert_eq!(report.levels.len(), scratch.levels.len());
    }

    #[test]
    fn windowed_miner_tracks_the_sliding_window() {
        let mut miner = WindowedMiner::new(5, 8, 8, 0xB0, 128, options());
        let mut history: Vec<Vec<u32>> = Vec::new();
        let mut state = 0xFEEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..40 {
            let items: Vec<u32> = (0..5).filter(|_| next() % 2 == 0).collect();
            let items = if items.is_empty() { vec![0] } else { items };
            miner.push(&items).unwrap();
            history.push(items);
            assert!(miner.len() <= 8);
            // Live window = last ≤ 8 pushes, as multisets of item sets.
            let start = history.len().saturating_sub(8);
            let expect: Vec<&Vec<u32>> = history[start..].iter().collect();
            for a in 0..5u32 {
                let support = expect.iter().filter(|t| t.contains(&a)).count() as u64;
                assert_eq!(miner.corpus().count(a), support, "step {step} item {a}");
            }
            for a in 0..5u32 {
                for b in (a + 1)..5u32 {
                    let pairs = expect
                        .iter()
                        .filter(|t| t.contains(&a) && t.contains(&b))
                        .count() as u64;
                    assert_eq!(
                        miner.corpus().pair_count(a, b),
                        pairs,
                        "step {step} pair ({a},{b})"
                    );
                }
            }
        }
        // A window report equals a from-scratch mine of the live window.
        let config = mine_config();
        let report = miner.report(config.clone()).unwrap();
        let start = history.len().saturating_sub(8);
        let mut txns: Vec<Vec<u32>> = history[start..].to_vec();
        txns.resize(8, Vec::new());
        let scratch = LevelwiseMiner::new(config).mine(&TransactionDb::new(5, txns));
        assert_eq!(report.itemsets, scratch.itemsets);
    }

    #[test]
    fn top_k_matches_brute_force_over_live_contents() {
        let mut corpus = LayeredCorpus::new(&fixture(), 0xA5, 128, options());
        corpus.insert_txn(58, &[0, 5]).unwrap();
        corpus.insert_txn(59, &[0, 5]).unwrap();
        corpus.remove_txn(1).unwrap();
        let probe = 0u32;
        let mut expect: Vec<(u32, u64)> = (0..6u32)
            .filter(|&b| b != probe)
            .map(|b| (b, oracle_pair(&corpus, probe, b)))
            .filter(|&(_, c)| c > 0)
            .collect();
        expect.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(3);
        assert_eq!(corpus.top_k(probe, 3), expect);
    }

    #[test]
    fn from_preprocessed_reconstructs_the_mirror() {
        let db = fixture();
        let direct = LayeredCorpus::new(&db, 0xA6, 128, options());
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess_with(&v, 0xA6, 128, options());
        let wrapped = LayeredCorpus::from_preprocessed(pre, 0xA6);
        assert_eq!(direct.mirror(), wrapped.mirror());
        let live: BTreeSet<usize> = (0..64)
            .filter(|&t| !wrapped.mirror()[t].is_empty())
            .collect();
        assert_eq!(live.len(), wrapped.live_transactions());
    }

    /// The rebuild's decode — tabled or per-element `πₜ⁻¹` — visits
    /// every set's elements as `elements()` lists them, padding sets
    /// included, under both storage policies.
    #[test]
    fn table_driven_decode_equals_elements() {
        for policy in [ReprPolicy::Batmap, ReprPolicy::Hybrid] {
            let v = VerticalDb::from_horizontal(&fixture());
            let pre = preprocess_with(&v, 0xA7, 128, EngineOptions::auto().repr(policy));
            assert!(pre.padded_items() > pre.n_items as usize);
            let perms = pre.params.perms();
            let tabled = InversePerms::tabled(perms);
            let feistel = InversePerms::feistel(perms);
            assert!(tabled.is_tabled() && !feistel.is_tabled());
            for s in 0..pre.padded_items() {
                let view = pre.payload(s);
                for inverse in [&tabled, &feistel] {
                    let mut decoded = Vec::new();
                    view.for_each_element(inverse, |x| decoded.push(x));
                    assert_eq!(decoded, view.elements(), "set {s} under {policy:?}");
                }
            }
        }
    }
}
