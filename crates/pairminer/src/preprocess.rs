//! Host-side preprocessing (§III-C, first half), building straight into
//! a contiguous [`BatmapArena`].
//!
//! Tidlists become batmaps (built in parallel — construction of
//! different sets is independent), **sorted by increasing width** so
//! that the 16-wide comparison blocks of the GPU kernel group batmaps
//! of similar width ("resulting in a strongly reduced computation time
//! for the subresults for narrow batmaps"). The item list is padded
//! with empty batmaps to a multiple of 16 so every work group is full.
//! Under a hybrid storage policy ([`preprocess_with`] with
//! `EngineOptions::auto().repr(ReprPolicy::Hybrid)`) each item may
//! instead become an uncompressed bitmap (dense head) or a raw tidlist
//! (sparse tail) — same arena, same width-sorted order, typed views via
//! [`Preprocessed::payload`].
//!
//! Storage is two-pass and allocation-lean:
//!
//! 1. **Size pass** — a batmap's range is deterministic from its
//!    tidlist length (`BatmapParams::range_for`), so the width-sorted
//!    order and every arena offset are known *before* any cuckoo work.
//!    One contiguous, word-aligned buffer is reserved for the whole
//!    corpus ([`BatmapArena::with_ranges`]).
//! 2. **Build pass** — workers take contiguous runs of the width-sorted
//!    sets (each run is one bump segment of the final buffer) and
//!    cuckoo-build **in place** through disjoint `&mut [u8]` windows,
//!    each worker reusing a single scratch [`batmap::BatmapBuilder`].
//!    No per-set `Box<[u8]>`, no compaction copy afterwards — the
//!    width-sorted compaction is implicit in the precomputed layout.
//!
//! Failed insertions are collected as `(sorted item index, tid)` pairs
//! for the `F_b`/`M_{p,q}` postprocessing path.
//!
//! The result can be persisted with [`Preprocessed::write_snapshot`]
//! and served by a later process via [`Preprocessed::read_snapshot`]
//! without rebuilding (see `miner::mine_preprocessed`).

use batmap::arena::{snapshot_le, snapshot_section};
use batmap::{
    ArenaSetOutcome, BatmapArena, BatmapBuilder, BatmapParams, BatmapRef, EngineOptions,
    ParamsHandle, ReprPolicy, SetRepr, SetSpec, SetView, SnapshotBytes, SnapshotError,
    SnapshotLoad,
};
use fim::VerticalDb;
use hpcutil::MemoryFootprint;
use rayon::prelude::*;
use std::io::{Read, Write};
use std::sync::Arc;

/// Width of the comparison block: the kernel's work groups are 16×16.
pub const BLOCK: usize = 16;

/// Minimum compression shift for GPU-compatible batmaps: `s ≥ 6` makes
/// every width a multiple of 64 bytes (16 words), the slice unit.
pub const GPU_MIN_SHIFT: u32 = 6;

/// Magic bytes opening a preprocessed-corpus snapshot (wraps an arena
/// snapshot with the mining side tables).
pub const PRE_SNAPSHOT_MAGIC: [u8; 8] = *b"BMPREPRO";

/// Preprocessed-corpus snapshot format version. v2 zero-pads after the
/// JSON side tables so the embedded arena envelope starts on a
/// [`batmap::arena::SET_ALIGN`] boundary of the file — the alignment
/// [`BatmapArena::from_snapshot_bytes`] requires of an embedded arena,
/// making the whole corpus mmap-servable without copying the payload.
/// Like the arena's, the envelope has one parser for every load path;
/// a buffered load is that parse plus an eager verify.
pub const PRE_SNAPSHOT_VERSION: u32 = 2;

/// Output of preprocessing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Universe parameters all batmaps share.
    pub params: ParamsHandle,
    /// All sets in one contiguous arena, sorted by increasing payload
    /// width and padded with empty sets to a multiple of [`BLOCK`].
    /// All-batmap under [`preprocess`]; a mix of typed representations
    /// under [`preprocess_with`] with a hybrid policy.
    pub arena: BatmapArena,
    /// `order[s] = original item id` of sorted position `s` (length =
    /// real item count; padding positions have no entry).
    pub order: Vec<u32>,
    /// `item_to_sorted[item] = sorted position`.
    pub item_to_sorted: Vec<u32>,
    /// Real (unpadded) item count.
    pub n_items: u32,
    /// Failed insertions as `(sorted item index, tid)`, sorted and
    /// free of duplicates: the corpus' one failure index
    /// ([`Preprocessed::failed_for`] slices it per set).
    pub failed: Vec<(u32, u32)>,
    /// Aggregated construction statistics.
    pub stats: batmap::InsertStats,
}

impl Preprocessed {
    /// Item count including padding (multiple of 16).
    pub fn padded_items(&self) -> usize {
        self.arena.len()
    }

    /// Zero-copy view of the batmap at sorted position `s`.
    ///
    /// # Panics
    /// Panics if set `s` is not stored as a batmap (hybrid corpora route
    /// through [`Preprocessed::payload`] instead).
    pub fn batmap(&self, s: usize) -> BatmapRef<'_> {
        self.arena.get(s)
    }

    /// Zero-copy typed view of the set at sorted position `s`, whatever
    /// its representation (the hybrid executors' entry point).
    pub fn payload(&self, s: usize) -> SetView<'_> {
        self.arena.payload(s)
    }

    /// The failed insertions of the set at sorted position `s`: its run
    /// of [`Preprocessed::failed`], ascending by tid.
    pub fn failed_for(&self, s: usize) -> &[(u32, u32)] {
        let s = s as u32;
        let lo = self.failed.partition_point(|&(f, _)| f < s);
        let hi = self.failed.partition_point(|&(f, _)| f <= s);
        &self.failed[lo..hi]
    }

    /// How many sets each representation holds (indexed by
    /// [`SetRepr::tag`]) — the histogram the perf scenarios log.
    pub fn repr_histogram(&self) -> [usize; batmap::repr::REPR_COUNT] {
        self.arena.repr_histogram()
    }

    /// Total bytes of all batmap slot arrays (the device-resident data).
    pub fn batmap_bytes(&self) -> usize {
        self.arena.slot_bytes_total()
    }

    /// Persist this corpus: a small JSON side-table header (order maps,
    /// failures, stats) followed by the arena snapshot
    /// ([`BatmapArena::write_to`]). A later process can
    /// [`Preprocessed::read_snapshot`] it and mine without rebuilding.
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let header = PreSnapshotHeader {
            n_items: self.n_items,
            order: self.order.clone(),
            item_to_sorted: self.item_to_sorted.clone(),
            failed_set: self.failed.iter().map(|&(s, _)| s).collect(),
            failed_tid: self.failed.iter().map(|&(_, t)| t).collect(),
            stats: self.stats.clone(),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| std::io::Error::other(format!("snapshot header: {e}")))?;
        hpcutil::fault_point!("snapshot.write.sidetables", |m: String| {
            Err(std::io::Error::other(m))
        });
        w.write_all(&PRE_SNAPSHOT_MAGIC)?;
        w.write_all(&PRE_SNAPSHOT_VERSION.to_le_bytes())?;
        w.write_all(&(header_json.len() as u32).to_le_bytes())?;
        // The side tables feed array indexing on the serving path
        // (`FailedPairs::build`, the order remap), so they get the same
        // corruption protection the arena gives its directory/payload.
        w.write_all(&batmap::arena::snapshot_checksum(header_json.as_bytes()).to_le_bytes())?;
        w.write_all(header_json.as_bytes())?;
        // v2: pad to the next SET_ALIGN boundary so the embedded arena
        // envelope — and through its own padding, the payload — lands
        // 64-byte aligned in the file, as `BatmapArena::from_snapshot_bytes`
        // requires of an embedded arena.
        let pad = side_table_pad(header_json.len());
        w.write_all(&[0u8; batmap::arena::SET_ALIGN][..pad])?;
        self.arena.write_to(w)
    }

    /// Persist this corpus to `path` crash-safely via the shared
    /// tmp-file + fsync + atomic-rename path
    /// ([`batmap::arena::atomic_write`]): a crash mid-write — or an
    /// injected `snapshot.write.{sidetables,header,payload,rename}`
    /// fault — never clobbers the previous snapshot at `path`.
    pub fn write_snapshot_file<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        batmap::arena::atomic_write(path.as_ref(), |w| self.write_snapshot(w))
    }

    /// Load a corpus snapshot file written by
    /// [`Preprocessed::write_snapshot_file`]: a buffered load, verified
    /// before it returns.
    pub fn read_snapshot_file<P: AsRef<std::path::Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::read_snapshot_file_with(path, SnapshotLoad::Buffered)
    }

    /// Load a corpus snapshot file through an explicit
    /// [`SnapshotLoad`] path — the serving stack's entry point. Both
    /// paths run the same parser over the file's bytes:
    ///
    /// * [`SnapshotLoad::Buffered`] (and what `Auto` resolves to by
    ///   default) reads the file once and checksums the arena payload
    ///   before returning.
    /// * [`SnapshotLoad::Mmap`] maps the file read-only: side tables
    ///   and arena header/directory are validated eagerly, but the
    ///   payload is never touched — pages fault in on first use, and
    ///   the payload checksum is deferred to an explicit
    ///   [`Preprocessed::verify`] call. A cold multi-GiB corpus serves
    ///   its first query in milliseconds, also when wrapped live:
    ///   [`crate::LayeredCorpus::from_preprocessed`] rebuilds the
    ///   transaction mirror only on the first write, compaction or
    ///   mine.
    pub fn read_snapshot_file_with<P: AsRef<std::path::Path>>(
        path: P,
        load: SnapshotLoad,
    ) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(SnapshotBytes::open(path.as_ref(), load)?)
    }

    /// Whether the arena payload's checksum has been deferred (mmap
    /// load path) and [`Preprocessed::verify`] has something to do.
    pub fn verification_pending(&self) -> bool {
        self.arena.verification_pending()
    }

    /// Run the deferred payload verification of an mmap-loaded corpus
    /// ([`BatmapArena::verify`]); a no-op `Ok` on buffered loads.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        self.arena.verify()
    }

    /// Load a corpus persisted by [`Preprocessed::write_snapshot`]:
    /// read `r` to its end, then parse and verify it as a buffered
    /// load.
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(SnapshotBytes::read(r)?)
    }

    /// The one corpus-envelope parser: checksummed side tables, their
    /// zero padding, then the embedded arena snapshot through
    /// [`BatmapArena::from_snapshot_bytes`], and finally the side
    /// tables cross-checked against that arena.
    fn from_snapshot_bytes(bytes: SnapshotBytes) -> Result<Self, SnapshotError> {
        let bad = |what: &str| SnapshotError::Format(what.to_string());
        let b = bytes.as_slice();
        if snapshot_section(b, 0, 8, "corpus magic")? != PRE_SNAPSHOT_MAGIC {
            return Err(bad("not a preprocessed-corpus snapshot (bad magic)"));
        }
        let version = snapshot_le(b, 8, 4, "corpus version")?;
        if version != u64::from(PRE_SNAPSHOT_VERSION) {
            return Err(SnapshotError::Format(format!(
                "unsupported corpus snapshot version {version}"
            )));
        }
        let header_len = snapshot_le(b, 12, 4, "corpus header length")? as usize;
        let header_checksum = snapshot_le(b, 16, 8, "corpus header checksum")?;
        // The side tables feed array indexing on the serving path, so
        // they are checksummed before they are parsed.
        let header_bytes = snapshot_section(b, 24, header_len, "corpus side tables")?;
        if batmap::arena::snapshot_checksum(header_bytes) != header_checksum {
            return Err(SnapshotError::Corrupted(
                "corpus side-table checksum mismatch".to_string(),
            ));
        }
        let header: PreSnapshotHeader = std::str::from_utf8(header_bytes)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
            .ok_or_else(|| bad("corpus header does not parse"))?;
        // v2 alignment padding (zeros, excluded from the checksum and
        // validated as such — bit-rot in the pad must not parse) puts
        // the arena envelope on a SET_ALIGN boundary of the file.
        let pad = side_table_pad(header_len);
        batmap::arena::check_pad_zero(snapshot_section(
            b,
            24 + header_len,
            pad,
            "corpus alignment padding",
        )?)?;
        let arena = BatmapArena::from_snapshot_bytes(bytes, 24 + header_len + pad)?;
        Self::from_parts(header, arena)
    }

    /// Cross-validate freshly-loaded side tables against their arena
    /// and assemble the corpus (the last step of the corpus parser).
    fn from_parts(header: PreSnapshotHeader, arena: BatmapArena) -> Result<Self, SnapshotError> {
        let bad = |what: &str| SnapshotError::Format(what.to_string());
        let n = header.n_items as usize;
        if arena.len() < n || !arena.len().is_multiple_of(BLOCK) {
            return Err(bad("arena set count inconsistent with item count"));
        }
        if header.order.len() != n || header.item_to_sorted.len() != n {
            return Err(bad("order maps inconsistent with item count"));
        }
        for (s, &item) in header.order.iter().enumerate() {
            if (item as usize) >= n || header.item_to_sorted[item as usize] != s as u32 {
                return Err(bad("order maps are not inverse permutations"));
            }
        }
        if header.failed_set.len() != header.failed_tid.len() {
            return Err(bad("failure list columns disagree in length"));
        }
        if header.failed_set.iter().any(|&s| (s as usize) >= n) {
            return Err(bad("failure list references an out-of-range item"));
        }
        // Failed tids index the serving database's transaction list
        // (`FailedPairs::build`); the universe size bounds them.
        if header
            .failed_tid
            .iter()
            .any(|&tid| (tid as u64) >= arena.params().m())
        {
            return Err(bad("failure list references an out-of-universe tid"));
        }
        // Older snapshots may hold the list unsorted; a repeated entry
        // would count twice in every per-set correction.
        let mut failed: Vec<(u32, u32)> = header
            .failed_set
            .into_iter()
            .zip(header.failed_tid)
            .collect();
        failed.sort_unstable();
        if failed.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("failure list repeats an entry"));
        }
        Ok(Preprocessed {
            params: arena.params().clone(),
            arena,
            order: header.order,
            item_to_sorted: header.item_to_sorted,
            n_items: header.n_items,
            failed,
            stats: header.stats,
        })
    }
}

/// Zero bytes written after the JSON side tables (v2) so the embedded
/// arena envelope starts on a [`batmap::arena::SET_ALIGN`] boundary of
/// the file. The side tables begin at byte 24 (magic + version +
/// length + checksum).
fn side_table_pad(header_len: usize) -> usize {
    let pos = 24 + header_len;
    pos.next_multiple_of(batmap::arena::SET_ALIGN) - pos
}

/// JSON side tables of a [`Preprocessed`] snapshot (everything the
/// arena itself does not carry). The failure list is stored as two
/// parallel columns (`failed[i] = (failed_set[i], failed_tid[i])`).
#[derive(serde::Serialize, serde::Deserialize)]
struct PreSnapshotHeader {
    n_items: u32,
    order: Vec<u32>,
    item_to_sorted: Vec<u32>,
    failed_set: Vec<u32>,
    failed_tid: Vec<u32>,
    stats: batmap::InsertStats,
}

impl MemoryFootprint for Preprocessed {
    fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + self.order.capacity() * 4
            + self.item_to_sorted.capacity() * 4
            + self.failed.capacity() * 8
    }
}

/// Build batmaps for every item of a vertical database and sort them by
/// width, with every engine knob at its default and the storage policy
/// pinned to the legacy all-batmap corpus ([`ReprPolicy::Batmap`] —
/// deliberately *not* consulting the `BATMAP_REPR` override; the GPU
/// upload path and the existing snapshot fixtures rely on it).
pub fn preprocess(v: &VerticalDb, seed: u64, max_loop: u32) -> Preprocessed {
    preprocess_with(
        v,
        seed,
        max_loop,
        EngineOptions::auto().repr(ReprPolicy::Batmap),
    )
}

/// Canonical preprocessing entry point: every engine knob — match-count
/// backend, host parallelism, storage representation — arrives as one
/// [`EngineOptions`] value and is pinned on the universe parameters, so
/// both mining engines and every later intersection inherit the
/// configuration. Batmap construction runs in the pool the threads knob
/// selects ([`batmap::Parallelism::Serial`] builds strictly sequentially,
/// exercising the single-segment path).
///
/// The storage policy shapes the corpus: [`ReprPolicy::Batmap`]
/// reproduces the legacy all-batmap layout byte-for-byte,
/// [`ReprPolicy::Hybrid`] picks the cheapest layout per item by density
/// (see `batmap::repr` for the thresholds), the forced policies are
/// ablation/testing modes, and [`ReprPolicy::Auto`] resolves through
/// the `BATMAP_REPR` environment override (defaulting to the legacy
/// pure-batmap corpus).
///
/// The corpus keeps the legacy shape guarantees either way: sets sorted
/// by increasing payload width (ties by item id), padding appended
/// **after** every real item (the harvest path depends on padding rows
/// sitting at the end of the sorted order), and every set built in
/// place into one contiguous arena.
pub fn preprocess_with(
    v: &VerticalDb,
    seed: u64,
    max_loop: u32,
    options: EngineOptions,
) -> Preprocessed {
    let m = v.m().max(1) as u64;
    let params: ParamsHandle = Arc::new(
        BatmapParams::with_options(m, seed, max_loop, GPU_MIN_SHIFT).with_engine_options(options),
    );
    let resolved = options.repr.resolve();
    let spec_for = |len: usize| -> SetSpec {
        let range = params.range_for(len);
        match resolved.choose(len, m, range) {
            SetRepr::Batmap => SetSpec::batmap(range),
            SetRepr::Bitmap => SetSpec::bitmap(len),
            SetRepr::Tidlist => SetSpec::tidlist(len),
        }
    };
    let n = v.n_items();
    // Size pass: every width is deterministic from the tidlist length
    // (a batmap's range, a bitmap's universe, a tidlist's cardinality),
    // so the width-sorted order (ties by item id, for determinism) and
    // the whole arena layout exist before any build work. With the
    // pure-batmap policy the width is `3·range_for(len)` — monotone in
    // the range — so this order is exactly the legacy one. Each item's
    // width is computed once; the `(width, id)` keys are unique, so an
    // unstable sort gives that one order.
    let item_specs: Vec<SetSpec> = v.tidlists().iter().map(|l| spec_for(l.len())).collect();
    let mut keys: Vec<(usize, u32)> = item_specs
        .iter()
        .zip(0..n)
        .map(|(spec, i)| (spec.width_bytes(&params), i))
        .collect();
    keys.sort_unstable();
    let positions: Vec<u32> = keys.into_iter().map(|(_, i)| i).collect();
    let mut item_to_sorted = vec![0u32; n as usize];
    for (s, &item) in positions.iter().enumerate() {
        item_to_sorted[item as usize] = s as u32;
    }
    let padded = (n as usize).next_multiple_of(BLOCK);
    let empty_spec = spec_for(0);
    let specs: Vec<SetSpec> = positions
        .iter()
        .map(|&i| item_specs[i as usize])
        .chain(std::iter::repeat_n(empty_spec, padded - n as usize))
        .collect();
    let mut stage = BatmapArena::with_layout(params.clone(), &specs);

    // Build pass: materialize each set in place. Batmap sets cuckoo-
    // build through one reusable scratch builder per worker; bitmap and
    // tidlist sets are direct encodes (every element always "places", so
    // they contribute no failures). Workers own contiguous runs of the
    // width-sorted sets — bump segments of the final buffer — cut to
    // equal build cost ([`build_cost`]), not equal count.
    let tidlist_of = |s: usize| -> &[u32] {
        if s < n as usize {
            v.tidlist(positions[s])
        } else {
            &[]
        }
    };
    // One segment's sets, starting at sorted position `first`, built
    // into their windows `outs`.
    let build_segment = |first: usize, outs: &mut [&mut [u8]]| -> Built {
        let mut builder = BatmapBuilder::with_capacity(params.clone(), 0);
        let mut built = Built::default();
        for (s, out) in (first..).zip(outs.iter_mut()) {
            let elements = tidlist_of(s);
            let outcome = match specs[s].repr {
                SetRepr::Batmap => {
                    builder.reset(elements.len());
                    builder.extend_sorted_dedup(elements);
                    builder.finish_into(out)
                }
                SetRepr::Bitmap => {
                    batmap::repr::encode_bitmap_into(elements, out);
                    direct_outcome(elements.len())
                }
                SetRepr::Tidlist => {
                    batmap::repr::encode_tidlist_into(elements, out);
                    direct_outcome(elements.len())
                }
            };
            built.add(s, outcome);
        }
        built
    };
    let built = {
        let mut outs = stage.set_slices();
        let parallel = |outs: &mut [&mut [u8]], workers: usize| -> Built {
            let costs: Vec<u64> = (0..specs.len())
                .map(|s| build_cost(specs[s].repr, tidlist_of(s).len()))
                .collect();
            let mut segments: Vec<(usize, &mut [&mut [u8]])> = Vec::new();
            let (mut rest, mut start) = (outs, 0);
            for cut in equal_cost_cuts(&costs, workers) {
                let (head, tail) = rest.split_at_mut(cut - start);
                segments.push((start, head));
                (rest, start) = (tail, cut);
            }
            segments.push((start, rest));
            segments
                .into_par_iter()
                .map(|(first, outs)| build_segment(first, outs))
                .collect::<Vec<Built>>()
                .into_iter()
                .fold(Built::default(), Built::append)
        };
        match params.parallelism().pinned() {
            // Strictly sequential: one segment, no worker threads.
            Some(1) => build_segment(0, &mut outs),
            Some(workers) => hpcutil::scoped_pool(workers, || parallel(&mut outs, workers)),
            None => {
                let workers = rayon::current_num_threads();
                parallel(&mut outs, workers)
            }
        }
    };
    let arena = stage.finish(&built.lens);
    let (mut failed, stats) = (built.failed, built.stats);
    failed.sort_unstable();
    Preprocessed {
        params,
        arena,
        order: positions,
        item_to_sorted,
        n_items: n,
        failed,
        stats,
    }
}

/// Cost of building one set of `len` elements stored as `repr`, in
/// units of one direct-encoded element:
/// 1 per set, 1 per bitmap or tidlist element, and
/// [`BATMAP_ELEMENT_COST`] per batmap element.
fn build_cost(repr: SetRepr, len: usize) -> u64 {
    let per_element = match repr {
        SetRepr::Batmap => BATMAP_ELEMENT_COST,
        SetRepr::Bitmap | SetRepr::Tidlist => 1,
    };
    1 + per_element * len as u64
}

/// Cost of one cuckoo insertion against one direct encode: each batmap
/// element walks three Feistel permutations and makes about four cuckoo
/// moves (≈ 100–500 ns), where a bitmap or tidlist element is one store.
/// On the `serve_mixed` corpus (webdocs seed 1, 24,000 transactions,
/// hybrid; 2-vCPU AVX-512 host, medians of 9, three runs) this weight
/// builds on 2 threads in 0.095–0.098 s against 0.164–0.176 s serial.
/// Equal-count runs put every batmap of the width order into one
/// worker's run: their 2-thread build took 0.182–0.192 s, no faster than
/// serial.
const BATMAP_ELEMENT_COST: u64 = 200;

/// Where to cut a run of sets with these build `costs` into at most
/// `workers` contiguous segments of about equal total cost: the
/// ascending start index of every segment after the first. Each set
/// joins the segment that holds the midpoint of its cost on the running
/// total, so no segment is empty and none costs more than its equal
/// share plus its most costly set.
fn equal_cost_cuts(costs: &[u64], workers: usize) -> Vec<usize> {
    let workers = workers.max(1) as u64;
    let total: u64 = costs.iter().sum();
    let mut cuts = Vec::new();
    let (mut before, mut segment) = (0u64, 0u64);
    for (s, &c) in costs.iter().enumerate() {
        let at = ((2 * before + c) * workers / (2 * total).max(1)).min(workers - 1);
        if at > segment {
            if s > 0 {
                cuts.push(s);
            }
            segment = at;
        }
        before += c;
    }
    cuts
}

/// What a run of consecutive sets built to: each set's stored
/// cardinality in order, the failed insertions as `(sorted position,
/// tid)`, and the summed construction statistics. Folding each set's
/// outcome in as it is built keeps no per-set outcome alive.
#[derive(Default)]
struct Built {
    lens: Vec<usize>,
    failed: Vec<(u32, u32)>,
    stats: batmap::InsertStats,
}

impl Built {
    /// Fold in the outcome of the set at sorted position `s`, the next
    /// one of the run.
    fn add(&mut self, s: usize, out: ArenaSetOutcome) {
        self.lens.push(out.len);
        self.failed
            .extend(out.failed.iter().map(|&tid| (s as u32, tid)));
        self.merge_stats(&out.stats);
    }

    /// Append the run that follows this one.
    fn append(mut self, next: Built) -> Built {
        self.lens.extend(next.lens);
        self.failed.extend(next.failed);
        self.merge_stats(&next.stats);
        self
    }

    fn merge_stats(&mut self, other: &batmap::InsertStats) {
        let stats = &mut self.stats;
        stats.elements += other.elements;
        stats.moves += other.moves;
        stats.max_transcript = stats.max_transcript.max(other.max_transcript);
        stats.failures += other.failures;
    }
}

/// Outcome of a direct (non-cuckoo) encode: every element placed, no
/// moves, no failures.
fn direct_outcome(len: usize) -> ArenaSetOutcome {
    ArenaSetOutcome {
        len,
        failed: Vec::new(),
        stats: batmap::InsertStats {
            elements: len as u64,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmap::Parallelism;
    use fim::TransactionDb;

    fn vertical() -> VerticalDb {
        let db = TransactionDb::new(
            5,
            vec![
                vec![0, 1, 2],
                vec![1, 2, 4],
                vec![0, 2],
                vec![2, 3],
                vec![1, 2, 3, 4],
                vec![2],
            ],
        );
        VerticalDb::from_horizontal(&db)
    }

    #[test]
    fn sorted_by_width_and_padded() {
        let pre = preprocess(&vertical(), 1, 128);
        assert_eq!(pre.n_items, 5);
        assert_eq!(pre.padded_items() % BLOCK, 0);
        for s in 1..pre.padded_items() {
            assert!(pre.batmap(s - 1).width_bytes() <= pre.batmap(s).width_bytes());
        }
    }

    #[test]
    fn order_maps_are_inverse() {
        let pre = preprocess(&vertical(), 2, 128);
        for (s, &item) in pre.order.iter().enumerate() {
            assert_eq!(pre.item_to_sorted[item as usize], s as u32);
        }
    }

    #[test]
    fn batmaps_contain_their_tidlists() {
        let v = vertical();
        let pre = preprocess(&v, 3, 128);
        assert!(pre.failed.is_empty());
        for item in 0..v.n_items() {
            let s = pre.item_to_sorted[item as usize] as usize;
            let bm = pre.batmap(s);
            assert_eq!(bm.len() as u64, v.support(item), "item {item}");
            for &tid in v.tidlist(item) {
                assert!(bm.contains(tid));
            }
        }
        // Padding is empty.
        for pad in pre.n_items as usize..pre.padded_items() {
            assert!(pre.batmap(pad).is_empty());
        }
    }

    #[test]
    fn widths_are_slice_aligned_for_gpu() {
        let pre = preprocess(&vertical(), 4, 128);
        for s in 0..pre.padded_items() {
            let bm = pre.batmap(s);
            assert_eq!(
                bm.width_bytes() % 64,
                0,
                "width {} not slice-aligned",
                bm.width_bytes()
            );
        }
    }

    #[test]
    fn serial_and_parallel_builds_are_byte_identical() {
        // The in-place arena build must produce the same bytes no
        // matter how work is segmented across workers.
        let v = vertical();
        let all_batmap = EngineOptions::auto().repr(ReprPolicy::Batmap);
        let serial = preprocess_with(&v, 9, 128, all_batmap.threads(Parallelism::Serial));
        for threads in [2usize, 3, 8] {
            let par = preprocess_with(
                &v,
                9,
                128,
                all_batmap.threads(Parallelism::threads(threads)),
            );
            assert_eq!(par.padded_items(), serial.padded_items());
            for s in 0..serial.padded_items() {
                assert_eq!(
                    par.batmap(s).as_bytes(),
                    serial.batmap(s).as_bytes(),
                    "set {s} threads {threads}"
                );
            }
            assert_eq!(par.failed, serial.failed);
            assert_eq!(par.stats, serial.stats);
        }
    }

    #[test]
    fn build_segments_split_equal_cost() {
        assert_eq!(equal_cost_cuts(&[1, 1, 1, 1], 2), [2]);
        assert_eq!(equal_cost_cuts(&[1, 1, 1, 100], 2), [3]);
        assert_eq!(equal_cost_cuts(&[100, 1, 1, 1], 2), [1]);
        assert_eq!(equal_cost_cuts(&[100, 1, 1, 1], 1), [] as [usize; 0]);
        assert_eq!(equal_cost_cuts(&[5], 4), [] as [usize; 0]);
        assert_eq!(equal_cost_cuts(&[], 3), [] as [usize; 0]);
        // A corpus in width order: many cheap sets, then a few batmaps.
        let costs: Vec<u64> = (0..1_000u64)
            .map(|s| {
                if s < 950 {
                    1 + s % 7
                } else {
                    build_cost(SetRepr::Batmap, 40)
                }
            })
            .collect();
        let total: u64 = costs.iter().sum();
        let max = *costs.iter().max().unwrap();
        for workers in 1..=8usize {
            let cuts = equal_cost_cuts(&costs, workers);
            assert!(cuts.len() < workers, "workers {workers}");
            let bounds: Vec<usize> = std::iter::once(0)
                .chain(cuts.iter().copied())
                .chain(std::iter::once(costs.len()))
                .collect();
            for w in bounds.windows(2) {
                assert!(w[0] < w[1], "workers {workers}: empty or unordered segment");
                let cost: u64 = costs[w[0]..w[1]].iter().sum();
                assert!(
                    cost <= total / workers as u64 + max,
                    "workers {workers}: segment {w:?} costs {cost} of {total}"
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let v = vertical();
        let pre = preprocess(&v, 6, 128);
        let mut buf = Vec::new();
        pre.write_snapshot(&mut buf).unwrap();
        let loaded = Preprocessed::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.n_items, pre.n_items);
        assert_eq!(loaded.order, pre.order);
        assert_eq!(loaded.item_to_sorted, pre.item_to_sorted);
        assert_eq!(loaded.failed, pre.failed);
        assert_eq!(loaded.stats, pre.stats);
        assert_eq!(loaded.params.fingerprint(), pre.params.fingerprint());
        // The load keeps exactly the arena payload: no envelope bytes.
        assert_eq!(loaded.arena.heap_bytes(), pre.arena.heap_bytes());
        for s in 0..pre.padded_items() {
            assert_eq!(loaded.batmap(s).as_bytes(), pre.batmap(s).as_bytes());
            assert_eq!(loaded.batmap(s).len(), pre.batmap(s).len());
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let pre = preprocess(&vertical(), 6, 128);
        let mut buf = Vec::new();
        pre.write_snapshot(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xFF; // magic
        assert!(Preprocessed::read_snapshot(&mut bad.as_slice()).is_err());
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10; // arena payload → checksum mismatch
        assert!(Preprocessed::read_snapshot(&mut bad.as_slice()).is_err());
        // The JSON side table (order maps, failure lists) starts right
        // after magic+version+length+checksum (24 bytes); any flip in
        // it must trip the header checksum — a corrupted failed_tid
        // must never reach `FailedPairs::build` as a panic or, worse,
        // silently wrong counts.
        for poke in [24usize, 40, 64] {
            let mut bad = buf.clone();
            bad[poke] ^= 0x01;
            assert!(
                Preprocessed::read_snapshot(&mut bad.as_slice()).is_err(),
                "side-table corruption at byte {poke} must be rejected"
            );
        }
        assert!(Preprocessed::read_snapshot(&mut buf.as_slice()).is_ok());
    }

    /// A skewed fixture: a dense head item, mid-band items, and a
    /// sparse tail, over a universe big enough that `r₀` padding is
    /// felt.
    fn skewed_vertical() -> VerticalDb {
        let n_items = 12u32;
        // With m = 800 and r₀ = 64 the hybrid bands are: bitmap at
        // len ≥ 25 (density 1/32), tidlist at len ≤ 12 (16·len ≤ 3·64),
        // batmap in between.
        let db = TransactionDb::new(
            n_items,
            (0..800u32)
                .map(|t| {
                    (0..n_items)
                        .filter(|&i| match i {
                            0 => true,             // dense head → bitmap
                            1..=3 => t % 50 == i,  // len 16 → batmap
                            _ => t % 211 == i % 7, // len ≤ 4 → tidlist
                        })
                        .collect()
                })
                .collect(),
        );
        VerticalDb::from_horizontal(&db)
    }

    #[test]
    fn hybrid_corpus_mixes_representations_and_stays_exact() {
        let v = skewed_vertical();
        let pre = preprocess_with(&v, 11, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
        let hist = pre.repr_histogram();
        assert!(
            hist.iter().all(|&c| c > 0),
            "fixture must exercise all three representations: {hist:?}"
        );
        assert!(pre.failed.is_empty(), "direct encodes cannot fail");
        // Real items are width-sorted; padding rides at the end
        // (harvest depends on this), whatever its width.
        for s in 1..pre.n_items as usize {
            assert!(pre.payload(s - 1).width_bytes() <= pre.payload(s).width_bytes());
        }
        for pad in pre.n_items as usize..pre.padded_items() {
            assert!(pre.payload(pad).is_empty());
        }
        // Every item's elements survive exactly.
        for item in 0..v.n_items() {
            let s = pre.item_to_sorted[item as usize] as usize;
            let view = pre.payload(s);
            assert_eq!(view.len() as u64, v.support(item), "item {item}");
            for &tid in v.tidlist(item) {
                assert!(view.contains(tid), "item {item} lost tid {tid}");
            }
        }
    }

    #[test]
    fn batmap_policy_is_byte_identical_to_legacy() {
        let v = skewed_vertical();
        let legacy = preprocess(&v, 21, 128);
        let pinned = preprocess_with(&v, 21, 128, EngineOptions::auto().repr(ReprPolicy::Batmap));
        assert_eq!(pinned.order, legacy.order);
        assert!(pinned.arena.is_all_batmap());
        for s in 0..legacy.padded_items() {
            assert_eq!(pinned.batmap(s).as_bytes(), legacy.batmap(s).as_bytes());
        }
        assert_eq!(pinned.failed, legacy.failed);
        assert_eq!(pinned.stats, legacy.stats);
    }

    #[test]
    fn hybrid_serial_and_parallel_builds_are_byte_identical() {
        let v = skewed_vertical();
        let hybrid = EngineOptions::auto().repr(ReprPolicy::Hybrid);
        let serial = preprocess_with(&v, 9, 128, hybrid.threads(Parallelism::Serial));
        for threads in [2usize, 3, 8] {
            let par = preprocess_with(&v, 9, 128, hybrid.threads(Parallelism::threads(threads)));
            assert_eq!(par.padded_items(), serial.padded_items());
            for s in 0..serial.padded_items() {
                assert_eq!(par.arena.repr(s), serial.arena.repr(s), "set {s}");
                let (a, b) = (par.payload(s), serial.payload(s));
                assert_eq!(a.len(), b.len(), "set {s} threads {threads}");
                assert_eq!(a.elements(), b.elements(), "set {s} threads {threads}");
            }
            assert_eq!(par.failed, serial.failed);
            assert_eq!(par.stats, serial.stats);
        }
    }

    #[test]
    fn hybrid_snapshot_roundtrip_preserves_reprs() {
        let v = skewed_vertical();
        let pre = preprocess_with(&v, 6, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
        let mut buf = Vec::new();
        pre.write_snapshot(&mut buf).unwrap();
        let loaded = Preprocessed::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.repr_histogram(), pre.repr_histogram());
        for s in 0..pre.padded_items() {
            assert_eq!(loaded.arena.repr(s), pre.arena.repr(s));
            assert_eq!(loaded.payload(s).elements(), pre.payload(s).elements());
        }
    }

    #[test]
    fn snapshot_arena_envelope_is_aligned_in_the_file() {
        // The v2 contract the mmap open path relies on: however long
        // the JSON side tables are, the embedded arena envelope starts
        // on a SET_ALIGN boundary of the file.
        let pre = preprocess(&vertical(), 6, 128);
        let mut buf = Vec::new();
        pre.write_snapshot(&mut buf).unwrap();
        let header_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let arena_at = 24 + header_len + side_table_pad(header_len);
        assert_eq!(arena_at % batmap::arena::SET_ALIGN, 0);
        assert_eq!(&buf[arena_at..arena_at + 8], b"BATMAPAR");
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    mod mmap_load {
        use super::*;

        /// Removes a test's temp directory when the test ends, passing
        /// or failing.
        struct RemoveDir(std::path::PathBuf);

        impl Drop for RemoveDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }

        /// Write `pre` to a file named `name` in a fresh directory of
        /// its own (tests run concurrently, so no two share one).
        fn snapshot_to_temp(pre: &Preprocessed, name: &str) -> (RemoveDir, std::path::PathBuf) {
            let dir =
                std::env::temp_dir().join(format!("batmap-pre-mmap-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            pre.write_snapshot_file(&path).unwrap();
            (RemoveDir(dir), path)
        }

        #[test]
        fn mmap_corpus_load_matches_buffered_exactly() {
            for (name, options) in [
                (
                    "batmap.snap",
                    EngineOptions::auto().repr(ReprPolicy::Batmap),
                ),
                (
                    "hybrid.snap",
                    EngineOptions::auto().repr(ReprPolicy::Hybrid),
                ),
            ] {
                let pre = preprocess_with(&skewed_vertical(), 6, 128, options);
                let (_dir, path) = snapshot_to_temp(&pre, name);
                let buffered =
                    Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Buffered).unwrap();
                let mapped =
                    Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).unwrap();
                assert!(!buffered.verification_pending());
                assert!(mapped.verification_pending());
                mapped.verify().unwrap();
                assert_eq!(mapped.n_items, buffered.n_items);
                assert_eq!(mapped.order, buffered.order);
                assert_eq!(mapped.item_to_sorted, buffered.item_to_sorted);
                assert_eq!(mapped.failed, buffered.failed);
                assert_eq!(mapped.stats, buffered.stats);
                assert_eq!(mapped.repr_histogram(), buffered.repr_histogram());
                for s in 0..buffered.padded_items() {
                    assert_eq!(mapped.arena.repr(s), buffered.arena.repr(s), "set {s}");
                    assert_eq!(
                        mapped.payload(s).elements(),
                        buffered.payload(s).elements(),
                        "set {s}"
                    );
                }
                // The mapped arena payload does not count as heap.
                assert!(mapped.heap_bytes() < buffered.heap_bytes());
            }
        }

        #[test]
        fn mmap_corpus_rejects_corruption_like_buffered() {
            let pre = preprocess(&vertical(), 6, 128);
            let (_dir, path) = snapshot_to_temp(&pre, "corrupt.snap");
            let pristine = std::fs::read(&path).unwrap();
            let reseal = |bytes: &[u8]| std::fs::write(&path, bytes).unwrap();

            // Side-table flips and truncation are rejected eagerly.
            for poke in [0usize, 24, 40] {
                let mut bad = pristine.clone();
                bad[poke] ^= 0x01;
                reseal(&bad);
                assert!(
                    Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).is_err(),
                    "corruption at byte {poke} must be rejected at open"
                );
            }
            reseal(&pristine[..pristine.len() - 1]);
            assert!(
                Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).is_err(),
                "a truncated payload must be rejected at open"
            );

            // A payload bit flip is invisible at open (the point of the
            // deferred checksum) and caught by verify().
            let mut bad = pristine.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x10;
            reseal(&bad);
            let mapped = Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).unwrap();
            assert!(matches!(mapped.verify(), Err(SnapshotError::Corrupted(_))));
            drop(mapped);

            reseal(&pristine);
            let ok = Preprocessed::read_snapshot_file_with(&path, SnapshotLoad::Mmap).unwrap();
            ok.verify().unwrap();
        }
    }

    /// A corpus whose build drops insertions: MaxLoop = 1, and sets of
    /// 125 at load 1/3 spread over a universe much wider than their
    /// range, so cuckoo positions collide.
    fn forced_failures() -> (VerticalDb, Preprocessed) {
        let db = TransactionDb::new(
            8,
            (0..2000u32)
                .map(|t| (0..8).filter(|&i| (t + i) % 16 == 0).collect())
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess(&v, 5, 1);
        assert!(!pre.failed.is_empty(), "fixture must force failures");
        (v, pre)
    }

    #[test]
    fn failures_are_remapped_to_sorted_space() {
        let (v, pre) = forced_failures();
        // One index: strictly ascending by (position, tid), and the
        // per-set runs tile it exactly.
        assert!(pre.failed.windows(2).all(|w| w[0] < w[1]));
        let runs: Vec<(u32, u32)> = (0..pre.padded_items())
            .flat_map(|s| {
                let run = pre.failed_for(s);
                assert!(run.iter().all(|&(f, _)| f as usize == s));
                run.iter().copied()
            })
            .collect();
        assert_eq!(runs, pre.failed);
        for &(s, tid) in &pre.failed {
            assert!((s as usize) < pre.n_items as usize);
            let item = pre.order[s as usize];
            // The failed tid must genuinely belong to the item's list
            // (failures can only happen for real insertions)…
            assert!(v.tidlist(item).contains(&tid));
            // …and must be absent from the built batmap.
            assert!(!pre.batmap(s as usize).contains(tid));
        }
    }

    #[test]
    fn snapshot_failure_list_is_sorted_and_duplicate_free() {
        let (_, pre) = forced_failures();
        // An unsorted list (as snapshots written before the index was
        // kept sorted may hold) loads, sorted.
        let mut unsorted = pre.clone();
        unsorted.failed.reverse();
        let mut buf = Vec::new();
        unsorted.write_snapshot(&mut buf).unwrap();
        let loaded = Preprocessed::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.failed, pre.failed);
        // A repeated entry would count twice in every correction: the
        // checksum cannot catch it (the writer sealed it), the parser
        // must.
        let mut repeated = pre.clone();
        repeated.failed.push(pre.failed[0]);
        let mut buf = Vec::new();
        repeated.write_snapshot(&mut buf).unwrap();
        assert!(matches!(
            Preprocessed::read_snapshot(&mut buf.as_slice()),
            Err(SnapshotError::Format(_))
        ));
    }

    /// FNV-1a over every set's payload bytes in sorted order, then
    /// over the failure index.
    fn build_checksum(pre: &Preprocessed) -> u64 {
        let failed = pre
            .failed
            .iter()
            .flat_map(|&(s, t)| s.to_le_bytes().into_iter().chain(t.to_le_bytes()));
        (0..pre.padded_items())
            .flat_map(|s| pre.batmap(s).as_bytes().iter().copied())
            .chain(failed)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
    }

    #[test]
    fn build_output_is_pinned() {
        // A fixed instance whose sets sit at `range_for`'s highest load
        // (n = ⌊2r/3⌋) and below it, built at the default MaxLoop and at
        // MaxLoop 2 (recovery on most sets). The arena bytes, the
        // failure index and the move counts must not change when the
        // builder's internals do: the cuckoo insertion order is part of
        // the corpus format.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let m = 60_000u32;
        let sizes = [341usize, 682, 1365, 300, 1000, 2730, 5, 90, 4000, 682];
        let tidlists: Vec<Vec<u32>> = sizes
            .iter()
            .map(|&n| {
                let mut t: Vec<u32> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % m as u64) as u32
                    })
                    .collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let v = VerticalDb::new(m, tidlists);
        let all_batmap = EngineOptions::auto().repr(ReprPolicy::Batmap);
        for (max_loop, checksum, moves, failures) in [
            (128u32, 0x39ca_70da_a209_edf0u64, 90_433u64, 49u64),
            (2, 0xcdad_dc61_225a_7ba5, 45_194, 587),
        ] {
            for threads in [Parallelism::Serial, Parallelism::threads(2)] {
                let pre = preprocess_with(&v, 0xB17, max_loop, all_batmap.threads(threads));
                assert_eq!(
                    (build_checksum(&pre), pre.stats.moves, pre.stats.failures),
                    (checksum, moves, failures),
                    "max_loop {max_loop}"
                );
                assert_eq!(pre.failed.len() as u64, failures);
            }
        }
    }
}
