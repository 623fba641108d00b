//! Arena-backed set storage: one contiguous, word-aligned backing
//! store for all sets of a corpus — each in its own typed
//! representation — with zero-copy views and versioned snapshot
//! persistence.
//!
//! Every representation here is pure positional data — `3·r` one-byte
//! slots for a batmap, `⌈m/64⌉` words for an uncompressed bitmap,
//! `4·len` bytes for a sorted tidlist — so nothing about any of them
//! requires per-set heap allocations. [`BatmapArena`] packs every set's
//! payload bytes into a single `u64` backing buffer (each set's window
//! starts on a 64-byte boundary, the §III-B slice unit) plus an
//! offset/range/len/representation directory, and hands out borrowed
//! views: [`BatmapRef`] for batmap sets (three words on the stack,
//! intersecting, decoding, and sweeping exactly like an owned
//! [`Batmap`] because every hot path is generic over [`AsSlots`]), and
//! the typed [`SetView`] for corpora that mix representations (the
//! hybrid storage seam — see [`crate::repr`]).
//!
//! Two ways to build one:
//!
//! * [`ArenaBuilder`] — push existing sets (owned or views) one at a
//!   time; the arena copies their bytes. The convenience path for
//!   small corpora, tests and the README examples.
//! * [`BatmapArena::with_ranges`] — reserve the full layout up front
//!   (ranges are deterministic from set sizes, so preprocessing knows
//!   them before building) and cuckoo-build **in place** through
//!   [`ArenaStage::set_slices`]. This is the mining pipeline's
//!   allocation-free bulk path: per-worker bump segments of the final
//!   buffer, no per-set boxes, no compaction copy.
//!
//! On top of the contiguous layout, [`BatmapArena::write_to`] /
//! [`BatmapArena::read_from`] persist a corpus as a versioned snapshot
//! with a checked header (magic, version, full universe parameters,
//! fingerprint, directory bounds, checksum), so a corpus can be built
//! once and served by later processes without rebuilding. Counts are
//! kernel-backend-independent, so a snapshot written on an AVX2 host is
//! served byte-identically by a SWAR-only one; the header records that
//! invariant explicitly and the loader enforces it.
//!
//! ## Backing stores and load paths
//!
//! A snapshot is one byte image, so there is one parser for it:
//! [`BatmapArena::from_snapshot_bytes`] checks the envelope, header
//! and directory over a [`SnapshotBytes`], whatever brought those
//! bytes into memory. [`SnapshotBytes::open`] is the one place the
//! [`SnapshotLoad`] knob
//! ([`crate::EngineOptions::load`](crate::EngineOptions#structfield.load),
//! `BATMAP_LOAD`, `--load`) is resolved, for arena files and for the
//! `pairminer` corpus files that embed them. An arena's payload then
//! lives in one of two backing stores:
//!
//! * **heap** — an owned `Box<[u64]>`: every built arena, and every
//!   buffered load. A buffered load reads the file once into an
//!   exact-size word buffer, parses it, runs [`BatmapArena::verify`]
//!   *eagerly*, then moves the payload words to the front of that
//!   buffer and truncates it. The arena holds exactly its payload and
//!   is known good before the first query.
//! * **mmap** — a read-only, page-faulted window of the snapshot file
//!   ([`SnapshotLoad::Mmap`], 64-bit Unix only). Open cost is
//!   O(header + directory): the parser touches nothing past the
//!   directory, so a cold multi-GiB corpus serves its first query in
//!   milliseconds — through the serving engine too, whose live corpus
//!   leaves the transaction mirror that only writes need to the first
//!   write, compaction or mine. The payload checksum is deferred —
//!   [`BatmapArena::verify`] runs it on demand (and
//!   [`BatmapArena::verification_pending`] tells whether such a
//!   deferred check exists). Structural corruption a query could trip
//!   over (bad offsets, overlapping windows, implausible
//!   cardinalities) is still caught at open time; deferred
//!   verification only delays detection of *payload* bit-rot, which
//!   can change counts but never memory safety.
//!
//! Both paths report every damaged byte with the same
//! [`SnapshotError`] variant; on the mapped path some of them surface
//! from `verify()` instead of the open. Version-4 snapshots pad the
//! payload to a [`SET_ALIGN`] boundary within the envelope so mapped
//! set windows keep the same 64-byte alignment heap arenas enjoy.

use crate::batmap::AsSlots;
use crate::error::SnapshotError;
use crate::params::{BatmapParams, ParamsHandle, EMPTY_SLOT, TABLES};
use crate::repr::{
    bitmap_width_bytes, encode_bitmap_into, encode_tidlist_into, tidlist_width_bytes, BitmapRef,
    SetRepr, SetView, TidlistRef, REPR_COUNT,
};
use crate::{intersect, Batmap, BatmapError};
use hpcutil::MemoryFootprint;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::Arc;

/// Every set's window starts on this byte boundary: the 64-byte slice
/// the §III-B kernel stages through shared memory, and a cache line on
/// every CPU we target. GPU-shift widths are multiples of 64, so the
/// mining pipeline wastes no padding at all.
pub const SET_ALIGN: usize = 64;

/// Magic bytes opening every arena snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BATMAPAR";

/// Snapshot format version (the one parser,
/// [`BatmapArena::from_snapshot_bytes`], refuses others on every load
/// path). Version 2 added the per-set representation tag to the directory
/// (24-byte entries became 32-byte entries); version 3 added a header
/// checksum to the envelope so bit-rot inside the params JSON is
/// caught as [`SnapshotError::Corrupted`] instead of silently changing
/// a parameter; version 4 zero-pads the envelope after the directory
/// so the payload starts on a [`SET_ALIGN`] boundary relative to the
/// envelope start — the property that lets a memory-mapped snapshot
/// hand out set windows with the same 64-byte alignment heap arenas
/// have. Older files are refused with a clear [`SnapshotError`], not
/// misparsed.
pub const SNAPSHOT_VERSION: u32 = 4;

/// How a snapshot file is brought into memory ([`SnapshotBytes::open`],
/// behind [`BatmapArena::read_from_file_with`], the `pairminer` corpus
/// open and the server's corpus loading). See the module docs for the
/// trade-off; resolution rules mirror [`crate::KernelBackend`]
/// (explicit > `BATMAP_LOAD` > default, one-time warnings for
/// unavailable or unparseable requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SnapshotLoad {
    /// Defer to `BATMAP_LOAD`, falling back to [`SnapshotLoad::Buffered`].
    #[default]
    Auto,
    /// Eager read: the whole payload is read and checksummed before the
    /// arena is handed out. Slow to open a cold multi-GiB corpus, but
    /// every loaded byte is known good.
    Buffered,
    /// Zero-copy map: headers and directories are validated eagerly,
    /// payload bytes are faulted in on first touch and the payload
    /// checksum is deferred to [`BatmapArena::verify`]. 64-bit Unix
    /// only; downgrades to [`SnapshotLoad::Buffered`] elsewhere with a
    /// one-time warning.
    Mmap,
}

impl SnapshotLoad {
    /// Parse a knob value (`auto`, `buffered`, `mmap`). `None` for
    /// anything else.
    pub fn from_name(name: &str) -> Option<SnapshotLoad> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SnapshotLoad::Auto),
            "buffered" => Some(SnapshotLoad::Buffered),
            "mmap" => Some(SnapshotLoad::Mmap),
            _ => None,
        }
    }

    /// Canonical knob name.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotLoad::Auto => "auto",
            SnapshotLoad::Buffered => "buffered",
            SnapshotLoad::Mmap => "mmap",
        }
    }

    /// Whether this load path exists on the current platform (the mmap
    /// backing is compiled only on 64-bit Unix).
    pub fn is_available(self) -> bool {
        match self {
            SnapshotLoad::Auto | SnapshotLoad::Buffered => true,
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotLoad::Mmap => true,
            #[cfg(not(all(unix, target_pointer_width = "64")))]
            SnapshotLoad::Mmap => false,
        }
    }

    /// Pure resolution of an override string (the `BATMAP_LOAD` value,
    /// already fetched): a valid, available request wins; everything
    /// else — no override, `auto`, an unavailable path, an unparseable
    /// value — resolves to [`SnapshotLoad::Buffered`], the verify-first
    /// default. Warnings for the degenerate cases are emitted once per
    /// process.
    pub fn resolve_override(var: Option<&str>) -> SnapshotLoad {
        match var.map(SnapshotLoad::from_name) {
            None | Some(Some(SnapshotLoad::Auto)) => SnapshotLoad::Buffered,
            Some(Some(requested)) if requested.is_available() => requested,
            Some(Some(requested)) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: BATMAP_LOAD={} is not available on this platform; \
                         using buffered",
                        requested.name()
                    );
                });
                SnapshotLoad::Buffered
            }
            Some(None) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: unrecognized BATMAP_LOAD value {:?} \
                         (expected auto|buffered|mmap); using buffered",
                        var.unwrap_or_default()
                    );
                });
                SnapshotLoad::Buffered
            }
        }
    }

    /// Resolve to a concrete, available load path. [`SnapshotLoad::Auto`]
    /// consults `BATMAP_LOAD` (once per process); an explicit but
    /// unavailable request downgrades to [`SnapshotLoad::Buffered`]
    /// with a one-time warning.
    pub fn resolve(self) -> SnapshotLoad {
        match self {
            SnapshotLoad::Auto => {
                static RESOLVED: std::sync::OnceLock<SnapshotLoad> = std::sync::OnceLock::new();
                *RESOLVED.get_or_init(|| SnapshotLoad::resolve_override(crate::options::load_env()))
            }
            concrete if concrete.is_available() => concrete,
            concrete => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: snapshot load path {} is not available on this platform; \
                         using buffered",
                        concrete.name()
                    );
                });
                SnapshotLoad::Buffered
            }
        }
    }
}

impl std::fmt::Display for SnapshotLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for SnapshotLoad {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.name())
    }
}

impl<'de> Deserialize<'de> for SnapshotLoad {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let name = String::deserialize(deserializer)?;
        SnapshotLoad::from_name(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown snapshot load path {name:?}")))
    }
}

/// Directory entry: where one set lives in the backing store and what
/// layout its bytes are in.
#[derive(Debug, Clone, Copy)]
struct SetDir {
    /// Byte offset of the set's first payload byte (multiple of
    /// [`SET_ALIGN`]).
    offset: usize,
    /// Per-table range `r` for batmap sets (power of two ≥ `r₀`; width
    /// is `3·r` bytes). Stored as `0` for the other representations,
    /// whose widths derive from `m` (bitmap) or `len` (tidlist).
    r: u64,
    /// Stored cardinality.
    len: usize,
    /// Storage representation of this set's payload bytes.
    repr: SetRepr,
}

/// Payload width in bytes of one directory entry.
fn dir_width(params: &BatmapParams, d: &SetDir) -> usize {
    match d.repr {
        SetRepr::Batmap => (TABLES as u64 * d.r) as usize,
        SetRepr::Bitmap => bitmap_width_bytes(params.m()),
        SetRepr::Tidlist => tidlist_width_bytes(d.len),
    }
}

/// Layout request for one set in [`BatmapArena::with_layout`]: the
/// representation plus whatever sizes it needs reserved up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetSpec {
    /// Representation the set's window will hold.
    pub repr: SetRepr,
    /// Batmap per-table range (ignored by the other representations).
    pub r: u64,
    /// Cardinality the window is sized for. A tidlist window is exactly
    /// `4·len` bytes, so for tidlists this must be the final stored
    /// cardinality; for the fixed-width representations it is advisory
    /// and [`ArenaStage::finish`] overwrites it.
    pub len: usize,
}

impl SetSpec {
    /// A batmap window of range `r`.
    pub fn batmap(r: u64) -> Self {
        SetSpec {
            repr: SetRepr::Batmap,
            r,
            len: 0,
        }
    }

    /// An uncompressed-bitmap window (width comes from the universe).
    pub fn bitmap(len: usize) -> Self {
        SetSpec {
            repr: SetRepr::Bitmap,
            r: 0,
            len,
        }
    }

    /// A tidlist window of exactly `len` elements.
    pub fn tidlist(len: usize) -> Self {
        SetSpec {
            repr: SetRepr::Tidlist,
            r: 0,
            len,
        }
    }

    /// Payload width in bytes this spec reserves.
    pub fn width_bytes(&self, params: &BatmapParams) -> usize {
        match self.repr {
            SetRepr::Batmap => (TABLES as u64 * self.r) as usize,
            SetRepr::Bitmap => bitmap_width_bytes(params.m()),
            SetRepr::Tidlist => tidlist_width_bytes(self.len),
        }
    }
}

/// All slot bytes of a corpus in one contiguous, word-aligned buffer,
/// plus the offset/range/len directory. See the module docs.
#[derive(Debug, Clone)]
pub struct BatmapArena {
    params: ParamsHandle,
    /// Backing store; viewed as bytes.
    backing: Backing,
    dir: Box<[SetDir]>,
    /// Directory/payload checksum recorded in the snapshot header but
    /// not yet checked against the bytes (mmap loads defer it until
    /// [`BatmapArena::verify`]). `None` for arenas built in this
    /// process or loaded through the eager buffered path.
    pending_checksum: Option<u64>,
}

/// Where an arena's payload bytes live (module docs, "Backing stores").
#[derive(Debug, Clone)]
enum Backing {
    /// Owned words (`u64` only for alignment; always viewed as bytes).
    Heap(Box<[u64]>),
    /// A window of a read-only mapped snapshot file. The snapshot
    /// format 64-byte-aligns the payload within the envelope and the
    /// mapping base is page-aligned, so windows keep [`SET_ALIGN`]
    /// alignment.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap {
        map: Arc<crate::mmap::MmapFile>,
        /// Payload start within the mapping.
        offset: usize,
        /// Payload length in bytes (a multiple of 8).
        len: usize,
    },
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Heap(words) => words_as_bytes(words),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mmap { map, offset, len } => &map.bytes()[*offset..*offset + *len],
        }
    }

    /// Mutable byte view — only the in-process construction paths use
    /// it, and those always build [`Backing::Heap`].
    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Backing::Heap(words) => words_as_bytes_mut(words),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mmap { .. } => unreachable!("mmap-backed arenas are never mutated"),
        }
    }

    /// Heap bytes owned by this backing (0 for a mapped payload — the
    /// pages belong to the page cache, which is the point).
    fn heap_bytes(&self) -> usize {
        match self {
            Backing::Heap(words) => words.len() * 8,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mmap { .. } => 0,
        }
    }
}

/// A borrowed, zero-copy view of one set inside a [`BatmapArena`].
///
/// Three words on the stack; `Copy`. Interoperates with owned
/// [`Batmap`]s from the same universe through every generic
/// entry point (the [`AsSlots`] seam).
#[derive(Debug, Clone, Copy)]
pub struct BatmapRef<'a> {
    params: &'a ParamsHandle,
    r: u64,
    bytes: &'a [u8],
    len: usize,
}

/// View a word buffer as bytes (sound: `u8` has no alignment or
/// validity requirements, and the length covers exactly the buffer).
fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: `words` is a live, initialized allocation of
    // `words.len() * 8` bytes; any byte pattern is a valid `u8`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// Mutable byte view of a word buffer (same soundness argument).
fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `words_as_bytes`, plus exclusive access via `&mut`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
}

/// Number of backing words for `total_bytes` of payload.
fn words_for(total_bytes: usize) -> usize {
    total_bytes.div_ceil(8)
}

impl BatmapArena {
    /// The shared universe parameters.
    pub fn params(&self) -> &ParamsHandle {
        &self.params
    }

    /// Number of sets stored.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True when the arena holds no sets.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Zero-copy batmap view of set `i` (the legacy all-batmap entry
    /// point; hybrid consumers use [`BatmapArena::payload`]).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or set `i` is not stored as a
    /// batmap.
    pub fn get(&self, i: usize) -> BatmapRef<'_> {
        let d = self.dir[i];
        assert_eq!(
            d.repr,
            SetRepr::Batmap,
            "set {i} is stored as a {}; use BatmapArena::payload for hybrid arenas",
            d.repr
        );
        let width = (TABLES as u64 * d.r) as usize;
        BatmapRef {
            params: &self.params,
            r: d.r,
            bytes: &self.backing.bytes()[d.offset..d.offset + width],
            len: d.len,
        }
    }

    /// Storage representation of set `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn repr(&self, i: usize) -> SetRepr {
        self.dir[i].repr
    }

    /// True when every set is stored as a batmap (the legacy corpus
    /// shape; lets executors keep the all-batmap fast path).
    pub fn is_all_batmap(&self) -> bool {
        self.dir.iter().all(|d| d.repr == SetRepr::Batmap)
    }

    /// How many sets each representation holds, indexed by
    /// [`SetRepr::tag`] (the chosen-representation histogram the perf
    /// scenarios log).
    pub fn repr_histogram(&self) -> [usize; REPR_COUNT] {
        let mut h = [0usize; REPR_COUNT];
        for d in self.dir.iter() {
            h[d.repr.tag() as usize] += 1;
        }
        h
    }

    /// Zero-copy typed view of set `i`, whatever its representation
    /// (the hybrid storage seam).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn payload(&self, i: usize) -> SetView<'_> {
        let d = self.dir[i];
        let bytes = &self.backing.bytes()[d.offset..d.offset + dir_width(&self.params, &d)];
        match d.repr {
            SetRepr::Batmap => SetView::Batmap(BatmapRef {
                params: &self.params,
                r: d.r,
                bytes,
                len: d.len,
            }),
            SetRepr::Bitmap => SetView::Bitmap(BitmapRef {
                params: &self.params,
                bytes,
                len: d.len,
            }),
            SetRepr::Tidlist => SetView::Tidlist(TidlistRef {
                params: &self.params,
                bytes,
            }),
        }
    }

    /// Batmap views of the sets in `range`, in order (the all-batmap
    /// tile executors materialize one such column block per tile).
    ///
    /// # Panics
    /// Panics if any set in `range` is not stored as a batmap.
    pub fn views(&self, range: std::ops::Range<usize>) -> Vec<BatmapRef<'_>> {
        range.map(|i| self.get(i)).collect()
    }

    /// Typed views of the sets in `range`, in order (the hybrid tile
    /// executors' column block).
    pub fn payload_views(&self, range: std::ops::Range<usize>) -> Vec<SetView<'_>> {
        range.map(|i| self.payload(i)).collect()
    }

    /// Iterate over all batmap views in index order.
    ///
    /// # Panics
    /// Panics (lazily, per item) if a set is not stored as a batmap.
    pub fn iter(&self) -> impl Iterator<Item = BatmapRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Total payload bytes across all sets (directory widths; excludes
    /// alignment padding).
    pub fn slot_bytes_total(&self) -> usize {
        self.dir.iter().map(|d| dir_width(&self.params, d)).sum()
    }

    /// Bytes of the backing store (slot bytes plus alignment padding).
    pub fn backing_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    /// True when a deferred payload checksum has not been run yet (the
    /// mmap load path; see [`SnapshotLoad::Mmap`]). [`BatmapArena::verify`]
    /// performs the check.
    pub fn verification_pending(&self) -> bool {
        self.pending_checksum.is_some()
    }

    /// Run the deferred directory/payload checksum of a lazily-loaded
    /// snapshot (a no-op `Ok` for eagerly-verified arenas). Touches —
    /// and therefore faults in — every payload byte, so on a mapped
    /// corpus this costs one sequential sweep of the file; run it from
    /// a background task when serving cold corpora. The check is
    /// stateless and can be repeated (e.g. periodically, to catch
    /// on-disk bit-rot behind a long-lived mapping).
    pub fn verify(&self) -> Result<(), SnapshotError> {
        if let Some(expected) = self.pending_checksum {
            if dir_payload_checksum(&encode_dir(&self.dir), self.backing.bytes()) != expected {
                return Err(SnapshotError::Corrupted(
                    "directory/payload checksum mismatch".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Reserve the full arena layout for sets with the given per-table
    /// ranges, for in-place construction. Alignment-gap bytes are
    /// initialized to [`EMPTY_SLOT`] (so snapshots are deterministic);
    /// the set windows themselves start **zeroed, not empty** — `0x00`
    /// decodes as a live key-0 slot, so every window must be written
    /// before the arena is used: fill each set through
    /// [`ArenaStage::set_slices`] (`BatmapBuilder::finish_into`
    /// overwrites its window entirely) and seal with
    /// [`ArenaStage::finish`].
    ///
    /// # Panics
    /// Panics if any range is not a power of two ≥ the parameters' `r₀`.
    pub fn with_ranges(params: ParamsHandle, ranges: &[u64]) -> ArenaStage {
        let specs: Vec<SetSpec> = ranges.iter().map(|&r| SetSpec::batmap(r)).collect();
        Self::with_layout(params, &specs)
    }

    /// Reserve the full arena layout for sets with the given per-set
    /// representations and sizes, for in-place construction — the
    /// hybrid generalization of [`BatmapArena::with_ranges`]. The same
    /// window contract applies: alignment-gap bytes are initialized (to
    /// [`EMPTY_SLOT`], for snapshot determinism), the set windows
    /// themselves must be fully overwritten before the arena is used
    /// (`BatmapBuilder::finish_into` and the
    /// [`crate::repr::encode_bitmap_into`] /
    /// [`crate::repr::encode_tidlist_into`] encoders all do).
    ///
    /// # Panics
    /// Panics if any batmap spec's range is not a power of two ≥ the
    /// parameters' `r₀`.
    pub fn with_layout(params: ParamsHandle, specs: &[SetSpec]) -> ArenaStage {
        let mut dir = Vec::with_capacity(specs.len());
        let mut offset = 0usize;
        for spec in specs {
            if spec.repr == SetRepr::Batmap {
                assert!(
                    spec.r.is_power_of_two() && spec.r >= params.r0(),
                    "range {} invalid for this universe (r₀ = {})",
                    spec.r,
                    params.r0()
                );
            }
            let d = SetDir {
                offset,
                r: if spec.repr == SetRepr::Batmap {
                    spec.r
                } else {
                    0
                },
                len: spec.len,
                repr: spec.repr,
            };
            offset += dir_width(&params, &d).next_multiple_of(SET_ALIGN);
            dir.push(d);
        }
        let mut words = vec![0u64; words_for(offset)].into_boxed_slice();
        // Only the alignment gaps are initialized here (for snapshot
        // determinism): every set window must be — and in the build
        // paths is — overwritten wholesale, so pre-filling them would be
        // a redundant memset of the whole corpus. With the GPU shift,
        // batmap widths are multiples of SET_ALIGN; gaps appear only
        // after bitmap/tidlist windows.
        let bytes = words_as_bytes_mut(&mut words);
        let mut gap_start = 0usize;
        for d in &dir {
            bytes[gap_start..d.offset].fill(EMPTY_SLOT);
            gap_start = d.offset + dir_width(&params, d);
        }
        bytes[gap_start..].fill(EMPTY_SLOT);
        ArenaStage {
            arena: BatmapArena {
                params,
                backing: Backing::Heap(words),
                dir: dir.into_boxed_slice(),
                pending_checksum: None,
            },
        }
    }

    /// Persist this arena as a versioned snapshot.
    ///
    /// Layout: [`SNAPSHOT_MAGIC`], version (`u32` LE), header length
    /// (`u32` LE), header checksum (`u64` LE, FNV-1a over the header
    /// bytes), JSON header (full [`BatmapParams`], fingerprint, set
    /// count, payload size, checksum, and the kernel-independence
    /// marker), the directory (four `u64` LE per set: offset, range,
    /// cardinality, representation tag), zero padding up to the next
    /// [`SET_ALIGN`] boundary of the envelope (v4; excluded from the
    /// checksum, deterministic on read), then the raw backing bytes.
    /// [`BatmapArena::read_from`] checks every field before accepting
    /// the payload.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let payload = self.backing.bytes();
        let dir_bytes = encode_dir(&self.dir);
        let header = SnapshotHeader {
            params: (*self.params).clone(),
            fingerprint: self.params.fingerprint(),
            n_sets: self.dir.len() as u64,
            payload_bytes: payload.len() as u64,
            checksum: dir_payload_checksum(&dir_bytes, payload),
            counts_kernel_independent: true,
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| std::io::Error::other(format!("snapshot header: {e}")))?;
        hpcutil::fault_point!("snapshot.write.header", |m: String| {
            Err(std::io::Error::other(m))
        });
        w.write_all(&SNAPSHOT_MAGIC)?;
        w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        w.write_all(&(header_json.len() as u32).to_le_bytes())?;
        // The directory and payload have always been checksummed; the
        // header JSON needs its own (v3) or a flipped digit inside a
        // parameter would load as a plausible but different corpus.
        w.write_all(&snapshot_checksum(header_json.as_bytes()).to_le_bytes())?;
        w.write_all(header_json.as_bytes())?;
        w.write_all(&dir_bytes)?;
        let pad = payload_pad(header_json.len(), dir_bytes.len());
        w.write_all(&[0u8; SET_ALIGN][..pad])?;
        hpcutil::fault_point!("snapshot.write.payload", |m: String| {
            Err(std::io::Error::other(m))
        });
        w.write_all(payload)?;
        Ok(())
    }

    /// Persist this arena to `path` crash-safely: the snapshot is
    /// written to a sibling temporary file, flushed and fsynced, then
    /// atomically renamed over `path` (and the parent directory synced
    /// on Unix). A crash at any point — including mid-rename — leaves
    /// either the complete old snapshot or the complete new one, never
    /// a torn mix. Fault sites `snapshot.write.{header,payload,rename}`
    /// cover the three failure windows.
    pub fn write_to_file<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        atomic_write(path.as_ref(), |w| self.write_to(w))
    }

    /// Load an arena from a snapshot file written by
    /// [`BatmapArena::write_to_file`]: a buffered load, verified before
    /// it returns.
    pub fn read_from_file<P: AsRef<std::path::Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::read_from_file_with(path, SnapshotLoad::Buffered)
    }

    /// Load an arena from a snapshot written by [`BatmapArena::write_to`]:
    /// read `r` to its end, then parse and verify it as a buffered load
    /// ([`BatmapArena::from_snapshot_bytes`]).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(SnapshotBytes::read(r)?, 0)
    }

    /// Load an arena from a snapshot file, choosing the read path with
    /// an explicit [`SnapshotLoad`] knob ([`SnapshotLoad::Auto`]
    /// consults `BATMAP_LOAD`). The engine and server thread
    /// [`crate::EngineOptions::load`](crate::EngineOptions#structfield.load)
    /// through here.
    pub fn read_from_file_with<P: AsRef<std::path::Path>>(
        path: P,
        load: SnapshotLoad,
    ) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(SnapshotBytes::open(path.as_ref(), load)?, 0)
    }

    /// Parse the arena snapshot that starts at byte `at` of `bytes`:
    /// the one arena parser, run by every load path and by the
    /// `pairminer` corpus envelope that embeds an arena snapshot.
    ///
    /// Every header field is checked before the payload is trusted:
    /// magic and version, the header checksum, parameter
    /// self-consistency (the stored fingerprint must match one
    /// recomputed from the stored parameters — a corrupted or spliced
    /// header fails here), the kernel-independence marker, the zero
    /// padding, and directory sanity (ranges powers of two ≥ `r₀`,
    /// aligned non-overlapping monotone offsets, windows in bounds,
    /// plausible cardinalities). A buffered source is then verified
    /// here, and its payload words become the arena's heap backing; a
    /// mapped source is never touched past the directory, and its
    /// payload checksum waits for [`BatmapArena::verify`].
    ///
    /// `at` must be a multiple of [`SET_ALIGN`] or the payload would
    /// lose the alignment the format guarantees; embedders pad to
    /// ensure this, and a misaligned start is a format error.
    pub fn from_snapshot_bytes(bytes: SnapshotBytes, at: usize) -> Result<Self, SnapshotError> {
        let envelope = parse_envelope(bytes.as_slice(), at)?;
        let mut arena = BatmapArena {
            params: envelope.params,
            backing: bytes.into_backing(envelope.payload),
            dir: envelope.dir,
            pending_checksum: Some(envelope.checksum),
        };
        if let Backing::Heap(_) = arena.backing {
            // Every byte is in memory already: a buffered load is known
            // good before it is handed out.
            arena.verify()?;
            arena.pending_checksum = None;
        }
        Ok(arena)
    }
}

/// A whole snapshot file in memory: the input of the arena parser
/// ([`BatmapArena::from_snapshot_bytes`]) and of the `pairminer`
/// corpus parser. [`SnapshotBytes::open`] is the one place a
/// [`SnapshotLoad`] choice turns into bytes.
#[derive(Debug)]
pub struct SnapshotBytes(Source);

#[derive(Debug)]
enum Source {
    /// The file read once: its `len` bytes fill the front of a word
    /// buffer, so the payload can later be moved down and kept as the
    /// arena's heap backing.
    Buffered { words: Vec<u64>, len: usize },
    /// A read-only mapping of the file.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(crate::mmap::MmapFile),
}

impl SnapshotBytes {
    /// Bring the snapshot file at `path` into memory along the path
    /// `load` resolves to: [`SnapshotLoad::Mmap`] maps it read-only,
    /// [`SnapshotLoad::Buffered`] reads it once into an exact-size word
    /// buffer.
    pub fn open(path: &std::path::Path, load: SnapshotLoad) -> Result<Self, SnapshotError> {
        match load.resolve() {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotLoad::Mmap => Ok(SnapshotBytes(Source::Mapped(crate::mmap::MmapFile::open(
                path,
            )?))),
            _ => {
                let mut file = std::fs::File::open(path)?;
                let len = usize::try_from(file.metadata()?.len())
                    .map_err(|_| std::io::Error::other("snapshot too large to read"))?;
                let mut words = vec![0u64; words_for(len)];
                file.read_exact(&mut words_as_bytes_mut(&mut words)[..len])?;
                Ok(SnapshotBytes(Source::Buffered { words, len }))
            }
        }
    }

    /// Read `r` to its end. A stream has no size to allocate once, so
    /// its bytes are copied into a word buffer after reading; file
    /// loads go through [`SnapshotBytes::open`], which does not copy.
    pub fn read<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut words = vec![0u64; words_for(bytes.len())];
        words_as_bytes_mut(&mut words)[..bytes.len()].copy_from_slice(&bytes);
        Ok(SnapshotBytes(Source::Buffered {
            words,
            len: bytes.len(),
        }))
    }

    /// The snapshot's bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Source::Buffered { words, len } => &words_as_bytes(words)[..*len],
            #[cfg(all(unix, target_pointer_width = "64"))]
            Source::Mapped(map) => map.bytes(),
        }
    }

    /// Hand the parsed `payload` range to an arena. A buffered source
    /// moves the payload words to the front of its buffer and drops the
    /// rest, so no second payload-sized allocation is made and no
    /// envelope byte stays in memory; a mapped source becomes a window
    /// of the mapping.
    fn into_backing(self, payload: std::ops::Range<usize>) -> Backing {
        match self.0 {
            Source::Buffered { mut words, .. } => {
                // The parser guarantees a SET_ALIGN-ed start and a whole
                // number of words.
                let (start, n) = (payload.start / 8, payload.len() / 8);
                words.copy_within(start..start + n, 0);
                words.truncate(n);
                Backing::Heap(words.into_boxed_slice())
            }
            #[cfg(all(unix, target_pointer_width = "64"))]
            Source::Mapped(map) => Backing::Mmap {
                map: Arc::new(map),
                offset: payload.start,
                len: payload.len(),
            },
        }
    }
}

/// What [`parse_envelope`] validated: everything but the payload bytes.
struct Envelope {
    params: ParamsHandle,
    dir: Box<[SetDir]>,
    /// The directory/payload checksum the header records.
    checksum: u64,
    /// Where the payload lies in the parsed bytes.
    payload: std::ops::Range<usize>,
}

/// Parse the arena envelope at byte `at` of `bytes` (see
/// [`BatmapArena::from_snapshot_bytes`]). Reads nothing past the
/// directory unless the directory is rejected: then the
/// directory/payload checksum decides whether that is bit-rot
/// ([`SnapshotError::Corrupted`]) or a malformed writer
/// ([`SnapshotError::Format`]), so a good mapped open stays
/// O(header + directory) and every load path classifies a damaged
/// directory alike.
fn parse_envelope(bytes: &[u8], at: usize) -> Result<Envelope, SnapshotError> {
    let bad = |what: &str| SnapshotError::Format(what.to_string());
    if !at.is_multiple_of(SET_ALIGN) {
        return Err(bad("embedded arena envelope must start 64-byte aligned"));
    }
    if snapshot_section(bytes, at, 8, "magic")? != SNAPSHOT_MAGIC {
        return Err(bad("not a batmap arena snapshot (bad magic)"));
    }
    let version = snapshot_le(bytes, at + 8, 4, "version")?;
    if version != u64::from(SNAPSHOT_VERSION) {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let header_len = snapshot_le(bytes, at + 12, 4, "header length")? as usize;
    if header_len > 1 << 20 {
        return Err(bad("implausible header length"));
    }
    let header_checksum = snapshot_le(bytes, at + 16, 8, "header checksum")?;
    let header = parse_snapshot_header(
        snapshot_section(bytes, at + 24, header_len, "header")?,
        header_checksum,
    )?;
    let params: ParamsHandle = Arc::new(header.params);
    let n_sets = usize::try_from(header.n_sets).map_err(|_| bad("set count overflow"))?;
    let payload_bytes =
        usize::try_from(header.payload_bytes).map_err(|_| bad("payload size overflow"))?;
    if payload_bytes % 8 != 0 {
        return Err(bad("payload not a whole number of words"));
    }
    // The header is not yet checksummed against the data, so every size
    // it claims is checked against the bytes present before anything is
    // sized from it: a lying header reads as truncated, never as a huge
    // allocation.
    let dir_len = n_sets
        .checked_mul(32)
        .ok_or_else(|| bad("directory overflow"))?;
    let dir_at = at + 24 + header_len;
    let dir_bytes = snapshot_section(bytes, dir_at, dir_len, "directory")?;
    let pad = payload_pad(header_len, dir_len);
    check_pad_zero(snapshot_section(
        bytes,
        dir_at + dir_len,
        pad,
        "alignment padding",
    )?)?;
    let payload_at = dir_at + dir_len + pad;
    let payload = snapshot_section(bytes, payload_at, payload_bytes, "payload")?;
    let dir = parse_dir(&params, dir_bytes, payload_bytes).map_err(|e| {
        if dir_payload_checksum(dir_bytes, payload) != header.checksum {
            SnapshotError::Corrupted("directory/payload checksum mismatch".to_string())
        } else {
            e
        }
    })?;
    Ok(Envelope {
        params,
        dir,
        checksum: header.checksum,
        payload: payload_at..payload_at + payload_bytes,
    })
}

/// Encode the directory as it appears in the snapshot envelope (four
/// `u64` LE per set). Shared by [`BatmapArena::write_to`] and the
/// deferred [`BatmapArena::verify`], which must reproduce the written
/// bytes exactly to recompute the checksum.
fn encode_dir(dir: &[SetDir]) -> Vec<u8> {
    let mut dir_bytes = Vec::with_capacity(dir.len() * 32);
    for d in dir {
        dir_bytes.extend_from_slice(&(d.offset as u64).to_le_bytes());
        dir_bytes.extend_from_slice(&d.r.to_le_bytes());
        dir_bytes.extend_from_slice(&(d.len as u64).to_le_bytes());
        dir_bytes.extend_from_slice(&d.repr.tag().to_le_bytes());
    }
    dir_bytes
}

/// Bytes of zero padding between the directory and the payload: the
/// distance from the end of the directory to the next [`SET_ALIGN`]
/// boundary of the envelope (v4). Deterministic from the two lengths,
/// so readers skip it without any stored size; excluded from the
/// checksum (it is structural, not data).
fn payload_pad(header_len: usize, dir_len: usize) -> usize {
    let pos = 24 + header_len + dir_len;
    pos.next_multiple_of(SET_ALIGN) - pos
}

/// Alignment padding is written as zeros and sits outside both
/// checksums, so the readers enforce it directly — every byte of a
/// snapshot is validated by exactly one mechanism, and a bit-flip in
/// the pad cannot parse (shared by the arena parser and the corpus
/// envelope in `pairminer`).
pub fn check_pad_zero(pad: &[u8]) -> Result<(), SnapshotError> {
    if pad.iter().any(|&b| b != 0) {
        return Err(SnapshotError::Corrupted(
            "alignment padding is not zeroed".to_string(),
        ));
    }
    Ok(())
}

/// Checksum-check and parse the JSON snapshot header, enforcing the
/// self-consistency invariants every load path relies on.
fn parse_snapshot_header(
    header_bytes: &[u8],
    header_checksum: u64,
) -> Result<SnapshotHeader, SnapshotError> {
    let bad = |what: &str| SnapshotError::Format(what.to_string());
    if snapshot_checksum(header_bytes) != header_checksum {
        return Err(SnapshotError::Corrupted(
            "arena header checksum mismatch".to_string(),
        ));
    }
    let header_json =
        std::str::from_utf8(header_bytes).map_err(|_| bad("header is not valid UTF-8"))?;
    let header: SnapshotHeader = serde_json::from_str(header_json)
        .map_err(|e| SnapshotError::Format(format!("header does not parse: {e}")))?;
    if !header.counts_kernel_independent {
        // The invariant every reader relies on: any match-count
        // backend may serve this corpus. A writer that ever breaks
        // it must clear the flag, and we must refuse the file.
        return Err(bad("snapshot disclaims kernel-independent counts"));
    }
    if header.fingerprint != header.params.fingerprint() {
        return Err(bad(
            "header fingerprint does not match its own parameters (corrupted header)",
        ));
    }
    Ok(header)
}

/// Validate and decode the snapshot directory against `payload_bytes`:
/// known representation tags, ranges powers of two ≥ `r₀`, plausible
/// cardinalities, aligned non-overlapping monotone offsets, windows in
/// bounds. This is the
/// structural check that makes even an *unverified* mapped arena
/// memory-safe to query — every window a view can hand out lies inside
/// the payload.
fn parse_dir(
    params: &ParamsHandle,
    dir_bytes: &[u8],
    payload_bytes: usize,
) -> Result<Box<[SetDir]>, SnapshotError> {
    let bad = |what: &str| SnapshotError::Format(what.to_string());
    let mut dir = Vec::with_capacity(dir_bytes.len() / 32);
    let mut next_free = 0usize;
    for entry in dir_bytes.chunks_exact(32) {
        let offset = u64::from_le_bytes(entry[0..8].try_into().unwrap());
        let r_set = u64::from_le_bytes(entry[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(entry[16..24].try_into().unwrap());
        let tag = u64::from_le_bytes(entry[24..32].try_into().unwrap());
        let offset = usize::try_from(offset).map_err(|_| bad("offset overflow"))?;
        let repr = SetRepr::from_tag(tag)
            .ok_or_else(|| SnapshotError::Format(format!("unknown representation tag {tag}")))?;
        let width = match repr {
            SetRepr::Batmap => {
                if !r_set.is_power_of_two() || r_set < params.r0() {
                    return Err(bad("directory range not a power of two ≥ r₀"));
                }
                // Each element occupies 2 of the 3·r slots.
                if len > (3 * r_set) / 2 {
                    return Err(bad("stored cardinality exceeds slot capacity"));
                }
                (TABLES as u64 * r_set) as usize
            }
            SetRepr::Bitmap => {
                if r_set != 0 {
                    return Err(bad("bitmap entry carries a batmap range"));
                }
                if len > params.m() {
                    return Err(bad("stored cardinality exceeds the universe"));
                }
                bitmap_width_bytes(params.m())
            }
            SetRepr::Tidlist => {
                if r_set != 0 {
                    return Err(bad("tidlist entry carries a batmap range"));
                }
                if len > params.m() {
                    return Err(bad("stored cardinality exceeds the universe"));
                }
                usize::try_from(len)
                    .ok()
                    .and_then(|l| l.checked_mul(4))
                    .ok_or_else(|| bad("tidlist width overflow"))?
            }
        };
        if offset % SET_ALIGN != 0 || offset < next_free {
            return Err(bad("directory offsets unaligned or overlapping"));
        }
        if offset
            .checked_add(width)
            .is_none_or(|end| end > payload_bytes)
        {
            return Err(bad("set window out of payload bounds"));
        }
        next_free = offset + width;
        dir.push(SetDir {
            offset,
            r: r_set,
            len: len as usize,
            repr,
        });
    }
    Ok(dir.into_boxed_slice())
}

/// The `len` bytes of a snapshot at `at`. Bytes that end early are the
/// signature of a torn write, so a short `bytes` is
/// [`SnapshotError::Truncated`] naming the section cut short (shared
/// by the arena parser and the corpus envelope in `pairminer`).
pub fn snapshot_section<'a>(
    bytes: &'a [u8],
    at: usize,
    len: usize,
    section: &str,
) -> Result<&'a [u8], SnapshotError> {
    at.checked_add(len)
        .and_then(|end| bytes.get(at..end))
        .ok_or_else(|| {
            SnapshotError::Truncated(format!("{section} cut short ({len} bytes expected)"))
        })
}

/// The little-endian integer in the `len` bytes at `at` of a snapshot,
/// classified like [`snapshot_section`] when they are cut short.
///
/// # Panics
/// Panics if `len > 8` (the fields it reads are fixed-width).
pub fn snapshot_le(
    bytes: &[u8],
    at: usize,
    len: usize,
    section: &str,
) -> Result<u64, SnapshotError> {
    let mut le = [0u8; 8];
    le[..len].copy_from_slice(snapshot_section(bytes, at, len, section)?);
    Ok(u64::from_le_bytes(le))
}

/// FNV-1a over the payload, then the directory: the checksum the
/// header records for both.
fn dir_payload_checksum(dir_bytes: &[u8], payload: &[u8]) -> u64 {
    fnv1a(dir_bytes, fnv1a(payload, FNV_OFFSET))
}

impl MemoryFootprint for BatmapArena {
    fn heap_bytes(&self) -> usize {
        // A mapped payload contributes 0: its pages are the page
        // cache's, reclaimable under pressure — the zero-copy story the
        // footprint reports should reflect.
        self.backing.heap_bytes() + self.dir.len() * std::mem::size_of::<SetDir>()
    }
}

/// A [`BatmapArena`] whose layout is fixed but whose slots are still
/// being filled in place (see [`BatmapArena::with_ranges`]).
#[derive(Debug)]
pub struct ArenaStage {
    arena: BatmapArena,
}

impl ArenaStage {
    /// The shared universe parameters.
    pub fn params(&self) -> &ParamsHandle {
        &self.arena.params
    }

    /// Disjoint mutable slot windows, one per set in directory order.
    /// Hand contiguous runs of these to worker threads: each run is one
    /// worker's bump segment of the final buffer.
    pub fn set_slices(&mut self) -> Vec<&mut [u8]> {
        let params = self.arena.params.clone();
        let dir = &self.arena.dir;
        let mut rest = self.arena.backing.bytes_mut();
        let mut consumed = 0usize;
        let mut out = Vec::with_capacity(dir.len());
        for d in dir.iter() {
            let width = dir_width(&params, d);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(d.offset - consumed);
            let (set, tail) = tail.split_at_mut(width);
            out.push(set);
            consumed = d.offset + width;
            rest = tail;
        }
        out
    }

    /// Record the stored cardinalities (in directory order) and seal the
    /// arena.
    ///
    /// # Panics
    /// Panics if `lens.len()` differs from the set count, or if a
    /// tidlist set's length differs from the one its window was laid
    /// out for (a tidlist window is exactly `4·len` bytes, so the
    /// cardinality is part of the layout, not a late-bound fact).
    pub fn finish(mut self, lens: &[usize]) -> BatmapArena {
        assert_eq!(lens.len(), self.arena.dir.len(), "one length per set");
        for (d, &len) in self.arena.dir.iter_mut().zip(lens) {
            if d.repr == SetRepr::Tidlist {
                assert_eq!(d.len, len, "tidlist cardinality fixed at layout time");
            }
            d.len = len;
        }
        self.arena
    }
}

/// Incremental arena construction by copying existing sets (owned
/// [`Batmap`]s or views from another arena).
#[derive(Debug)]
pub struct ArenaBuilder {
    params: ParamsHandle,
    bytes: Vec<u8>,
    dir: Vec<SetDir>,
}

impl ArenaBuilder {
    /// Start an empty arena over `params`.
    pub fn new(params: ParamsHandle) -> Self {
        ArenaBuilder {
            params,
            bytes: Vec::new(),
            dir: Vec::new(),
        }
    }

    /// Append a copy of `set`'s slot bytes; returns its index.
    ///
    /// # Panics
    /// Panics if `set` comes from a different universe.
    pub fn push(&mut self, set: &impl AsSlots) -> usize {
        assert_eq!(
            set.params().fingerprint(),
            self.params.fingerprint(),
            "set from a different universe"
        );
        let offset = self.bytes.len().next_multiple_of(SET_ALIGN);
        self.bytes.resize(offset, EMPTY_SLOT);
        self.bytes.extend_from_slice(set.slot_bytes());
        self.dir.push(SetDir {
            offset,
            r: set.range(),
            len: set.len(),
            repr: SetRepr::Batmap,
        });
        self.dir.len() - 1
    }

    /// Append a set built from `elements` (any order, duplicates
    /// tolerated) in the given representation; returns its index. This
    /// is the forced-representation path the hybrid tests use to
    /// assemble arbitrary mixed corpora.
    ///
    /// A [`SetRepr::Batmap`] set is built at `range_for(|S|)` and, if
    /// the cuckoo build fails to place an element, rebuilt at doubled
    /// ranges until every element is placed, so the pushed set is
    /// always complete.
    ///
    /// # Panics
    /// Panics if an element is outside the universe.
    pub fn push_elements(&mut self, elements: &[u32], repr: SetRepr) -> usize {
        let mut sorted = elements.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&max) = sorted.last() {
            assert!(
                (max as u64) < self.params.m(),
                "element {max} outside universe of size {}",
                self.params.m()
            );
        }
        if repr == SetRepr::Batmap {
            let range = self.params.range_for(sorted.len());
            return self.push(&crate::builder::build_placing_all(
                self.params.clone(),
                &sorted,
                range,
            ));
        }
        let offset = self.bytes.len().next_multiple_of(SET_ALIGN);
        self.bytes.resize(offset, EMPTY_SLOT);
        let width = match repr {
            SetRepr::Bitmap => bitmap_width_bytes(self.params.m()),
            SetRepr::Tidlist => tidlist_width_bytes(sorted.len()),
            SetRepr::Batmap => unreachable!(),
        };
        self.bytes.resize(offset + width, 0);
        let window = &mut self.bytes[offset..];
        match repr {
            SetRepr::Bitmap => encode_bitmap_into(&sorted, window),
            SetRepr::Tidlist => encode_tidlist_into(&sorted, window),
            SetRepr::Batmap => unreachable!(),
        }
        self.dir.push(SetDir {
            offset,
            r: 0,
            len: sorted.len(),
            repr,
        });
        self.dir.len() - 1
    }

    /// Number of sets pushed so far.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Seal into an immutable, word-aligned arena.
    pub fn finish(self) -> BatmapArena {
        let mut words = vec![0u64; words_for(self.bytes.len())].into_boxed_slice();
        let buf = words_as_bytes_mut(&mut words);
        buf[..self.bytes.len()].copy_from_slice(&self.bytes);
        buf[self.bytes.len()..].fill(EMPTY_SLOT);
        BatmapArena {
            params: self.params,
            backing: Backing::Heap(words),
            dir: self.dir.into_boxed_slice(),
            pending_checksum: None,
        }
    }
}

impl<'a> BatmapRef<'a> {
    /// The universe parameters this view's corpus shares.
    pub fn params(&self) -> &'a ParamsHandle {
        self.params
    }

    /// Per-table hash range `r`.
    pub fn range(&self) -> u64 {
        self.r
    }

    /// Width of the representation in bytes (`3·r`).
    pub fn width_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw slot bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Exact membership test (see [`AsSlots::contains`]).
    pub fn contains(&self, x: u32) -> bool {
        AsSlots::contains(self, x)
    }

    /// Enumerate the stored elements (see [`AsSlots::elements`]).
    pub fn elements(&self) -> Vec<u32> {
        AsSlots::elements(self)
    }

    /// Copy this view into an owned [`Batmap`] (the escape hatch when a
    /// set must outlive its arena).
    pub fn to_batmap(&self) -> Batmap {
        Batmap::from_raw_parts(self.params.clone(), self.r, self.bytes.into(), self.len)
    }

    /// `|self ∩ other|` by positional comparison, against any storage.
    ///
    /// # Panics
    /// Panics if the operands come from different universes.
    pub fn intersect_count(&self, other: &impl AsSlots) -> u64 {
        self.try_intersect_count(other)
            .expect("batmaps from different universes")
    }

    /// Fallible [`BatmapRef::intersect_count`].
    pub fn try_intersect_count(&self, other: &impl AsSlots) -> Result<u64, BatmapError> {
        intersect::try_count(self, other)
    }

    /// [`BatmapRef::intersect_count`] with an explicit match-count
    /// backend.
    ///
    /// # Panics
    /// Panics if the operands come from different universes.
    pub fn intersect_count_with(
        &self,
        kernel: &dyn crate::kernel::MatchKernel,
        other: &impl AsSlots,
    ) -> u64 {
        assert_eq!(
            self.params.fingerprint(),
            other.params().fingerprint(),
            "batmaps from different universes"
        );
        intersect::count_with(kernel, self, other)
    }
}

impl AsSlots for BatmapRef<'_> {
    fn params(&self) -> &ParamsHandle {
        self.params
    }
    fn range(&self) -> u64 {
        self.r
    }
    fn slot_bytes(&self) -> &[u8] {
        self.bytes
    }
    fn len(&self) -> usize {
        self.len
    }
}

/// The checked snapshot header (serialized as JSON inside the binary
/// envelope so it stays human-inspectable with `strings`/`head`).
#[derive(Debug, Serialize, Deserialize)]
struct SnapshotHeader {
    /// Full universe parameters, including the advisory kernel backend
    /// and parallelism knobs (neither affects counts).
    params: BatmapParams,
    /// `params.fingerprint()` at write time; re-derived and compared on
    /// load, so a header whose defining scalars were corrupted — or
    /// spliced from another universe — is rejected before any count can
    /// silently disagree.
    fingerprint: u64,
    /// Number of sets in the directory.
    n_sets: u64,
    /// Bytes of backing payload.
    payload_bytes: u64,
    /// FNV-1a over payload then directory bytes.
    checksum: u64,
    /// The serving invariant: counts do not depend on the match-count
    /// backend, so any host may serve this corpus with its widest
    /// available kernel. Always written `true`; readers refuse `false`.
    counts_kernel_independent: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The snapshot envelope's FNV-1a checksum, exposed so wrappers that
/// embed an arena snapshot (the `pairminer` corpus snapshot) can
/// protect their own side tables with the same primitive.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes, FNV_OFFSET)
}

/// Write a file crash-safely: `fill` streams into a sibling temporary
/// file (same directory, so the rename cannot cross filesystems), the
/// file is flushed and fsynced, then atomically renamed over `path`;
/// on Unix the parent directory is fsynced too so the rename itself
/// survives a crash. Any failure removes the temporary file and leaves
/// `path` untouched. Shared by the arena and `pairminer` snapshot
/// writers; the `snapshot.write.rename` fault site sits between fsync
/// and rename — the exact window a mid-write crash occupies.
pub fn atomic_write<F>(path: &std::path::Path, fill: F) -> std::io::Result<()>
where
    F: FnOnce(&mut std::io::BufWriter<&mut std::fs::File>) -> std::io::Result<()>,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique-per-call sibling name: pid distinguishes processes, the
    // counter distinguishes concurrent writers in this process.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    tmp_name.push_str(&format!(".tmp.{}.{}", std::process::id(), seq));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        {
            let mut writer = std::io::BufWriter::new(&mut file);
            fill(&mut writer)?;
            writer.flush()?;
        }
        file.sync_all()?;
        hpcutil::fault_point!("snapshot.write.rename", |m: String| {
            Err(std::io::Error::other(m))
        });
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Persist the directory entry; a rename only the page cache
            // saw is still a torn write from the crash's point of view.
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// FNV-1a folded over `bytes`, seeded with `seed` (chain calls to hash
/// multiple regions).
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;
    use crate::Batmap;

    fn params(m: u64) -> ParamsHandle {
        Arc::new(BatmapParams::new(m, 0xA12E))
    }

    fn sets() -> Vec<Vec<u32>> {
        vec![
            (0..900).map(|i| i * 3 % 20_000).collect(),
            (0..50).map(|i| i * 11).collect(),
            vec![],
            (0..2500).map(|i| i * 7 % 20_000).collect(),
        ]
    }

    fn build_arena(p: &ParamsHandle) -> (Vec<Batmap>, BatmapArena) {
        let owned: Vec<Batmap> = sets()
            .iter()
            .map(|s| Batmap::build(p.clone(), s).batmap)
            .collect();
        let mut b = ArenaBuilder::new(p.clone());
        for bm in &owned {
            b.push(bm);
        }
        (owned, b.finish())
    }

    #[test]
    fn views_mirror_owned_batmaps() {
        let p = params(20_000);
        let (owned, arena) = build_arena(&p);
        assert_eq!(arena.len(), owned.len());
        for (i, bm) in owned.iter().enumerate() {
            let v = arena.get(i);
            assert_eq!(v.len(), bm.len());
            assert_eq!(v.range(), bm.range());
            assert_eq!(v.as_bytes(), bm.as_bytes());
            let mut ve = v.elements();
            let mut be = bm.elements();
            ve.sort_unstable();
            be.sort_unstable();
            assert_eq!(ve, be);
        }
    }

    #[test]
    fn views_are_word_aligned_and_counts_agree_both_ways() {
        let p = params(20_000);
        let (owned, arena) = build_arena(&p);
        for i in 0..owned.len() {
            assert_eq!(arena.get(i).as_bytes().as_ptr() as usize % 8, 0);
            for (j, bm) in owned.iter().enumerate() {
                let expect = owned[i].intersect_count(bm);
                assert_eq!(arena.get(i).intersect_count(&arena.get(j)), expect);
                // Mixed storage: view vs owned and owned vs view.
                assert_eq!(arena.get(i).intersect_count(bm), expect);
                assert_eq!(owned[i].intersect_count(&arena.get(j)), expect);
            }
        }
    }

    #[test]
    fn views_as_one_vs_many_candidates() {
        let p = params(20_000);
        let (owned, arena) = build_arena(&p);
        let views = arena.views(0..arena.len());
        let probe = arena.get(3);
        let mut counts = vec![0u64; views.len()];
        intersect::count_one_vs_many_into(&probe, &views, &mut counts);
        for (j, bm) in owned.iter().enumerate() {
            assert_eq!(counts[j], owned[3].intersect_count(bm));
        }
    }

    #[test]
    fn to_batmap_detaches() {
        let p = params(20_000);
        let (owned, arena) = build_arena(&p);
        let detached = arena.get(0).to_batmap();
        drop(arena);
        assert_eq!(detached.intersect_count(&owned[0]), owned[0].len() as u64);
    }

    #[test]
    fn in_place_stage_matches_builder_path() {
        let p = params(20_000);
        let (_, pushed) = build_arena(&p);
        let ranges: Vec<u64> = sets().iter().map(|s| p.range_for(s.len())).collect();
        let mut stage = BatmapArena::with_ranges(p.clone(), &ranges);
        let mut lens = Vec::new();
        {
            let slices = stage.set_slices();
            let mut builder = crate::builder::BatmapBuilder::with_capacity(p.clone(), 0);
            for (s, out) in sets().iter().zip(slices) {
                let mut sorted = s.clone();
                sorted.sort_unstable();
                sorted.dedup();
                builder.reset(sorted.len());
                builder.extend_sorted_dedup(&sorted);
                let outcome = builder.finish_into(out);
                assert!(outcome.failed.is_empty());
                lens.push(outcome.len);
            }
        }
        let staged = stage.finish(&lens);
        assert_eq!(staged.len(), pushed.len());
        for i in 0..staged.len() {
            assert_eq!(staged.get(i).as_bytes(), pushed.get(i).as_bytes());
            assert_eq!(staged.get(i).len(), pushed.get(i).len());
        }
    }

    #[test]
    fn snapshot_roundtrip_is_exact() {
        let p = params(20_000);
        let (owned, arena) = build_arena(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let loaded = BatmapArena::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), arena.len());
        assert_eq!(loaded.params().fingerprint(), arena.params().fingerprint());
        // The load keeps exactly the payload: no envelope bytes, no slack.
        assert_eq!(loaded.heap_bytes(), arena.heap_bytes());
        for i in 0..arena.len() {
            assert_eq!(loaded.get(i).as_bytes(), arena.get(i).as_bytes());
            assert_eq!(loaded.get(i).len(), arena.get(i).len());
            // Loaded views interoperate with the original owned sets.
            for (j, bm) in owned.iter().enumerate() {
                assert_eq!(
                    loaded.get(i).intersect_count(bm),
                    arena.get(i).intersect_count(&arena.get(j))
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let p = params(20_000);
        let (_, arena) = build_arena(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Bad version.
        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Corrupted header JSON (flip a byte inside the header region).
        let mut bad = buf.clone();
        bad[20] ^= 0x01;
        assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Corrupted payload (checksum catches it).
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(BatmapArena::read_from(&mut bad.as_slice()).is_err());

        // Truncation.
        let bad = &buf[..buf.len() - 16];
        assert!(BatmapArena::read_from(&mut &bad[..]).is_err());

        // The pristine buffer still loads.
        assert!(BatmapArena::read_from(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn empty_arena_roundtrips() {
        let p = params(1_000);
        let arena = ArenaBuilder::new(p).finish();
        assert!(arena.is_empty());
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let loaded = BatmapArena::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), 0);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_foreign_universe() {
        let a = params(1_000);
        let b = Arc::new(BatmapParams::new(1_000, 0xFFFF_1234));
        let bm = Batmap::build(b, &[1, 2, 3]).batmap;
        ArenaBuilder::new(a).push(&bm);
    }

    fn build_hybrid(p: &ParamsHandle) -> BatmapArena {
        let reprs = [
            SetRepr::Batmap,
            SetRepr::Tidlist,
            SetRepr::Bitmap,
            SetRepr::Bitmap,
        ];
        let mut b = ArenaBuilder::new(p.clone());
        for (s, &repr) in sets().iter().zip(&reprs) {
            b.push_elements(s, repr);
        }
        b.finish()
    }

    #[test]
    fn hybrid_payload_views_report_exact_sets() {
        let p = params(20_000);
        let arena = build_hybrid(&p);
        assert!(!arena.is_all_batmap());
        assert_eq!(arena.repr_histogram(), [1, 2, 1]);
        for (i, s) in sets().iter().enumerate() {
            let mut expect = s.clone();
            expect.sort_unstable();
            expect.dedup();
            let v = arena.payload(i);
            assert_eq!(v.repr(), arena.repr(i));
            assert_eq!(v.len(), expect.len());
            let mut got = v.elements();
            got.sort_unstable();
            assert_eq!(got, expect, "set {i}");
            for &x in expect.iter().take(50) {
                assert!(v.contains(x));
            }
        }
        // The typed column block mirrors per-index payloads.
        let views = arena.payload_views(0..arena.len());
        assert_eq!(views.len(), arena.len());
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.repr(), arena.repr(i));
        }
    }

    #[test]
    #[should_panic(expected = "use BatmapArena::payload")]
    fn get_refuses_non_batmap_sets() {
        let p = params(20_000);
        build_hybrid(&p).get(1);
    }

    #[test]
    fn hybrid_snapshot_roundtrip_preserves_reprs() {
        let p = params(20_000);
        let arena = build_hybrid(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let loaded = BatmapArena::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.repr_histogram(), arena.repr_histogram());
        for i in 0..arena.len() {
            assert_eq!(loaded.repr(i), arena.repr(i));
            let mut a = loaded.payload(i).elements();
            let mut b = arena.payload(i).elements();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "set {i}");
        }
    }

    #[test]
    fn snapshot_rejects_version_1_files() {
        // The version field sits outside the checksum, so rewriting it
        // to the pre-representation-tag version must surface as a clean
        // version rejection — not a checksum panic or a misparse of the
        // 24-byte-entry directory.
        let p = params(20_000);
        let (_, arena) = build_arena(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        buf[8..12].copy_from_slice(&1u32.to_le_bytes());
        match BatmapArena::read_from(&mut buf.as_slice()) {
            Err(SnapshotError::Format(msg)) => {
                assert!(msg.contains("version 1"), "unexpected message: {msg}");
                assert!(msg.contains("reads 4"), "unexpected message: {msg}");
            }
            other => panic!("expected a version Format error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_unknown_repr_tag() {
        let p = params(20_000);
        let arena = build_hybrid(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        // Locate the directory: magic(8) + version(4) + header_len(4) +
        // header checksum(8) + header JSON, then 32-byte entries, then
        // zero padding to the next 64-byte envelope boundary, then the
        // payload. Poke the first entry's tag and re-seal both
        // checksums — and re-derive the padding, which depends on the
        // resealed header's length — so only the tag check can fire.
        let header_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let dir_start = 24 + header_len;
        let dir_len = arena.len() * 32;
        let payload_start = dir_start + dir_len + payload_pad(header_len, dir_len);
        let mut dir_bytes = buf[dir_start..dir_start + dir_len].to_vec();
        dir_bytes[24..32].copy_from_slice(&7u64.to_le_bytes());
        let payload = &buf[payload_start..];
        let checksum = fnv1a(&dir_bytes, fnv1a(payload, FNV_OFFSET));
        let json = std::str::from_utf8(&buf[24..dir_start])
            .unwrap()
            .to_string();
        let resealed = regex_replace_checksum(&json, checksum);
        let mut patched = buf[..12].to_vec();
        patched.extend_from_slice(&(resealed.len() as u32).to_le_bytes());
        patched.extend_from_slice(&snapshot_checksum(resealed.as_bytes()).to_le_bytes());
        patched.extend_from_slice(resealed.as_bytes());
        patched.extend_from_slice(&dir_bytes);
        let pad = payload_pad(resealed.len(), dir_len);
        patched.extend_from_slice(&[0u8; SET_ALIGN][..pad]);
        patched.extend_from_slice(payload);
        match BatmapArena::read_from(&mut patched.as_slice()) {
            Err(SnapshotError::Format(msg)) => {
                assert!(msg.contains("unknown representation tag"), "{msg}");
            }
            other => panic!("expected a tag Format error, got {other:?}"),
        }
    }

    /// Swap the `"checksum":N` field inside a snapshot header (test
    /// helper; JSON numbers here are plain `u64` decimals).
    fn regex_replace_checksum(json: &str, checksum: u64) -> String {
        let key = "\"checksum\":";
        let start = json.find(key).unwrap() + key.len();
        let end = start
            + json[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(json.len() - start);
        format!("{}{}{}", &json[..start], checksum, &json[end..])
    }

    #[test]
    fn with_layout_hybrid_stage_matches_builder_path() {
        let p = params(20_000);
        let reprs = [
            SetRepr::Batmap,
            SetRepr::Tidlist,
            SetRepr::Bitmap,
            SetRepr::Bitmap,
        ];
        let normalized: Vec<Vec<u32>> = sets()
            .iter()
            .map(|s| {
                let mut v = s.clone();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let specs: Vec<SetSpec> = normalized
            .iter()
            .zip(&reprs)
            .map(|(s, &repr)| match repr {
                SetRepr::Batmap => SetSpec::batmap(p.range_for(s.len())),
                SetRepr::Bitmap => SetSpec::bitmap(s.len()),
                SetRepr::Tidlist => SetSpec::tidlist(s.len()),
            })
            .collect();
        let mut stage = BatmapArena::with_layout(p.clone(), &specs);
        let mut lens = Vec::new();
        {
            let slices = stage.set_slices();
            let mut builder = crate::builder::BatmapBuilder::with_capacity(p.clone(), 0);
            for ((s, out), &repr) in normalized.iter().zip(slices).zip(&reprs) {
                match repr {
                    SetRepr::Batmap => {
                        builder.reset(s.len());
                        builder.extend_sorted_dedup(s);
                        let outcome = builder.finish_into(out);
                        assert!(outcome.failed.is_empty());
                        lens.push(outcome.len);
                    }
                    SetRepr::Bitmap => {
                        crate::repr::encode_bitmap_into(s, out);
                        lens.push(s.len());
                    }
                    SetRepr::Tidlist => {
                        crate::repr::encode_tidlist_into(s, out);
                        lens.push(s.len());
                    }
                }
            }
        }
        let staged = stage.finish(&lens);
        let pushed = build_hybrid(&p);
        assert_eq!(staged.len(), pushed.len());
        for i in 0..staged.len() {
            assert_eq!(staged.repr(i), pushed.repr(i));
            assert_eq!(staged.payload(i).len(), pushed.payload(i).len());
            let mut a = staged.payload(i).elements();
            let mut b = pushed.payload(i).elements();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "set {i}");
        }
    }

    #[test]
    fn snapshot_payload_starts_64_aligned_in_the_envelope() {
        let p = params(20_000);
        let (_, arena) = build_arena(&p);
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let header_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let dir_len = arena.len() * 32;
        let payload_start = 24 + header_len + dir_len + payload_pad(header_len, dir_len);
        assert_eq!(payload_start % SET_ALIGN, 0);
        // And the padding really is where the payload's first set
        // window begins: set 0 sits at payload offset 0.
        assert_eq!(
            &buf[payload_start..payload_start + arena.get(0).width_bytes()],
            arena.get(0).as_bytes()
        );
    }

    #[test]
    fn from_snapshot_bytes_rejects_misaligned_embedding_offsets() {
        let p = params(20_000);
        let (_, arena) = build_arena(&p);
        let mut buf = vec![0u8; 8];
        arena.write_to(&mut buf).unwrap();
        let bytes = SnapshotBytes::read(&mut buf.as_slice()).unwrap();
        match BatmapArena::from_snapshot_bytes(bytes, 8) {
            Err(SnapshotError::Format(msg)) => assert!(msg.contains("aligned"), "{msg}"),
            other => panic!("expected alignment rejection, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_load_knob_parses_resolves_and_displays() {
        for (name, load) in [
            ("auto", SnapshotLoad::Auto),
            ("buffered", SnapshotLoad::Buffered),
            ("mmap", SnapshotLoad::Mmap),
        ] {
            assert_eq!(SnapshotLoad::from_name(name), Some(load));
            assert_eq!(load.name(), name);
            assert_eq!(load.to_string(), name);
        }
        assert_eq!(SnapshotLoad::from_name("  MMAP "), Some(SnapshotLoad::Mmap));
        assert_eq!(SnapshotLoad::from_name("teleport"), None);
        // No override and garbage both resolve to the verify-first
        // default; a valid available request wins.
        assert_eq!(SnapshotLoad::resolve_override(None), SnapshotLoad::Buffered);
        assert_eq!(
            SnapshotLoad::resolve_override(Some("nonsense")),
            SnapshotLoad::Buffered
        );
        assert_eq!(
            SnapshotLoad::resolve_override(Some("buffered")),
            SnapshotLoad::Buffered
        );
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_eq!(
            SnapshotLoad::resolve_override(Some("mmap")),
            SnapshotLoad::Mmap
        );
        // Buffered is available everywhere and resolves to itself.
        assert_eq!(SnapshotLoad::Buffered.resolve(), SnapshotLoad::Buffered);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    mod mmap_load {
        use super::*;

        fn snapshot_on_disk(tag: &str) -> (Vec<Batmap>, BatmapArena, std::path::PathBuf) {
            let p = params(20_000);
            let (owned, arena) = build_arena(&p);
            let dir = std::env::temp_dir()
                .join(format!("batmap-arena-mmap-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("corpus.arena");
            arena.write_to_file(&path).unwrap();
            (owned, arena, path)
        }

        fn cleanup(path: &std::path::Path) {
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }

        #[test]
        fn mmap_load_is_byte_identical_to_buffered() {
            let (owned, arena, path) = snapshot_on_disk("roundtrip");
            let buffered = BatmapArena::read_from_file(&path).unwrap();
            let mapped = BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).unwrap();
            assert!(!buffered.verification_pending());
            assert!(mapped.verification_pending());
            mapped.verify().unwrap();
            assert_eq!(mapped.len(), arena.len());
            for i in 0..arena.len() {
                assert_eq!(mapped.get(i).as_bytes(), buffered.get(i).as_bytes());
                assert_eq!(mapped.get(i).len(), buffered.get(i).len());
                // Mapped windows keep the arena's 64-byte alignment.
                assert_eq!(mapped.get(i).as_bytes().as_ptr() as usize % SET_ALIGN, 0);
                for bm in &owned {
                    assert_eq!(
                        mapped.get(i).intersect_count(bm),
                        buffered.get(i).intersect_count(bm)
                    );
                }
            }
            // The mapped payload is not heap memory.
            use hpcutil::MemoryFootprint;
            assert!(mapped.heap_bytes() < buffered.heap_bytes());
            cleanup(&path);
        }

        #[test]
        fn mmap_defers_payload_corruption_to_verify() {
            let (_, _, path) = snapshot_on_disk("bitflip");
            // Flip one payload byte (the file's last byte) on disk.
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            // The buffered path refuses outright; the mapped path opens
            // (structure is intact) but reports the damage on verify.
            assert!(BatmapArena::read_from_file(&path).is_err());
            let mapped = BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).unwrap();
            assert!(mapped.verification_pending());
            match mapped.verify() {
                Err(SnapshotError::Corrupted(msg)) => {
                    assert!(msg.contains("checksum"), "{msg}")
                }
                other => panic!("expected corruption, got {other:?}"),
            }
            cleanup(&path);
        }

        #[test]
        fn mmap_rejects_truncation_and_header_corruption_eagerly() {
            let (_, _, path) = snapshot_on_disk("truncate");
            let bytes = std::fs::read(&path).unwrap();

            // Truncated payload: caught at open (window bounds check),
            // no verify() needed.
            std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
            match BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap) {
                Err(SnapshotError::Truncated(msg)) => {
                    assert!(msg.contains("payload"), "{msg}")
                }
                other => panic!("expected truncation, got {other:?}"),
            }

            // Header bit-flip: caught at open by the header checksum.
            let mut bad = bytes.clone();
            bad[30] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).is_err());

            // Pristine bytes still map fine.
            std::fs::write(&path, &bytes).unwrap();
            assert!(BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).is_ok());
            cleanup(&path);
        }

        #[test]
        fn read_from_file_with_honours_the_explicit_knob() {
            let (_, _, path) = snapshot_on_disk("knob");
            let buffered = BatmapArena::read_from_file_with(&path, SnapshotLoad::Buffered).unwrap();
            assert!(!buffered.verification_pending());
            let mapped = BatmapArena::read_from_file_with(&path, SnapshotLoad::Mmap).unwrap();
            assert!(mapped.verification_pending());
            assert_eq!(mapped.backing_bytes(), buffered.backing_bytes());
            cleanup(&path);
        }
    }
}
