//! Positional intersection counting between batmaps (§II, Fig. 1).
//!
//! Equal widths: compare slot `p` against slot `p` for every `p` — a
//! single word-wise sweep.
//!
//! Different widths: the interleaved block layout of §III-A (Fig. 4) is
//! chosen precisely so folding `mod rᵢ` becomes *chunk wrap-around*: the
//! larger batmap is an array of `|Bᵢ|`-byte chunks, each compared
//! against the whole smaller batmap. (Block `g` of `Bⱼ` maps to block
//! `g mod (rᵢ/r₀)` of `Bᵢ` with identical within-block offsets, and
//! blocks are laid out consecutively; see `BatmapParams::slot_of`.)
//!
//! Dispatch discipline: every entry point here selects its backend
//! **once per intersection** (or once per batch) via
//! [`KernelBackend::dispatch`] and then runs fully monomorphized bulk
//! loops — no virtual call ever sits inside a per-word or per-chunk
//! loop. The two one-vs-many drivers ([`count_one_vs_many_into`] over
//! batmaps, [`count_mixed_one_vs_many_into`] over typed views) share one
//! allocation-free row sweep. It queues candidates of the probe's width
//! in a fixed stack block so the SIMD backends keep each probe register
//! load amortized across the block (see
//! [`MatchKernel::count_equal_width_many`]); candidates of other widths
//! fall back to the monomorphized pairwise path within the same
//! dispatch.
//!
//! Decoding a batmap's elements costs one Feistel inversion each, so
//! the row paths decode as rarely as they can. A batmap probe is decoded
//! once per row, on its first sparse candidate. A mining band's batmap
//! columns are decoded once per band ([`BandColumns`]), the first time
//! a bitmap row meets each one. A tidlist probe hoists its Feistel slot
//! positions out of the row.

use crate::arena::BatmapRef;
use crate::batmap::AsSlots;
use crate::kernel::{KernelBackend, KernelDispatch, MatchKernel};
use crate::repr::{for_each_batmap_element, BitmapRef, SetView, TidlistRef};
use crate::{slot, BatmapError, ParamsHandle, TABLES};
use std::ops::Range;
use std::sync::Arc;

/// `|a ∩ b|` using the backend configured on `a`'s universe parameters,
/// monomorphized through one dispatch. Generic over the storage of both
/// operands ([`crate::Batmap`] or [`crate::arena::BatmapRef`]). Callers
/// must have verified the batmaps share a universe (see [`try_count`]).
pub(crate) fn count<A: AsSlots + ?Sized, B: AsSlots + ?Sized>(a: &A, b: &B) -> u64 {
    struct Count<'a, A: ?Sized, B: ?Sized>(&'a A, &'a B);
    impl<A: AsSlots + ?Sized, B: AsSlots + ?Sized> KernelDispatch for Count<'_, A, B> {
        type Output = u64;
        fn run<K: MatchKernel>(self, kernel: K) -> u64 {
            count_pair(&kernel, self.0.slot_bytes(), self.1.slot_bytes())
        }
    }
    a.params().kernel_backend().dispatch(Count(a, b))
}

/// Fallible `|a ∩ b|`: checks the universe fingerprints, then counts
/// with the backend configured on `a`'s parameters. The storage-agnostic
/// entry point behind `Batmap::try_intersect_count` and
/// `BatmapRef::try_intersect_count`.
pub fn try_count<A: AsSlots + ?Sized, B: AsSlots + ?Sized>(
    a: &A,
    b: &B,
) -> Result<u64, BatmapError> {
    if a.params().fingerprint() != b.params().fingerprint() {
        return Err(BatmapError::UniverseMismatch);
    }
    Ok(count(a, b))
}

/// `|a ∩ b|` with an explicit match-count backend. This is the single
/// entry point through which positional counting reaches a kernel; the
/// per-backend bench axis drives it directly. Generic over the kernel
/// type so concrete callers monomorphize (`&dyn MatchKernel` works too —
/// one virtual call per intersection, the bulk loop inside is still
/// branch-free) and over the operand storage.
pub fn count_with<K, A, B>(kernel: &K, a: &A, b: &B) -> u64
where
    K: MatchKernel + ?Sized,
    A: AsSlots + ?Sized,
    B: AsSlots + ?Sized,
{
    count_pair(kernel, a.slot_bytes(), b.slot_bytes())
}

/// The width-ordering + equal/wrapped split shared by every pairwise
/// path, over two slot arrays.
#[inline]
fn count_pair<K: MatchKernel + ?Sized>(kernel: &K, a: &[u8], b: &[u8]) -> u64 {
    if a.len() == b.len() {
        kernel.count_equal_width(a, b)
    } else if a.len() < b.len() {
        kernel.count_wrapped(b, a)
    } else {
        kernel.count_wrapped(a, b)
    }
}

/// Candidates per batched kernel call in the one-vs-many sweep. The
/// queued slot arrays and their output indices live in stack arrays of
/// this length, so the row sweep never allocates.
const BLOCK: usize = 8;

/// A one-vs-many candidate as the block sweep sees it: its slot bytes
/// when it is a batmap.
trait RowOperand {
    fn batmap_slots(&self) -> Option<&[u8]>;
}

impl<B: AsSlots> RowOperand for B {
    fn batmap_slots(&self) -> Option<&[u8]> {
        Some(self.slot_bytes())
    }
}

impl RowOperand for SetView<'_> {
    fn batmap_slots(&self) -> Option<&[u8]> {
        match self {
            SetView::Batmap(b) => Some(b.slot_bytes()),
            _ => None,
        }
    }
}

/// Panics unless every universe in `others` is `probe`'s. A row's
/// candidates borrow their corpus's parameter handle, so the hot path
/// is one branch-free pass of address compares; any other handle takes
/// the out-of-line `Arc::ptr_eq`-then-fingerprint check. Tidlist pairs
/// cost only a few nanoseconds each, and a per-candidate branch on the
/// dereferenced handle slowed those rows by 9-17%.
fn assert_same_universe<'a>(
    probe: &ParamsHandle,
    others: impl Iterator<Item = &'a ParamsHandle> + Clone,
) {
    if !others
        .clone()
        .fold(true, |same, other| same & std::ptr::eq(probe, other))
    {
        assert_same_fingerprints(probe, others);
    }
}

#[cold]
#[inline(never)]
fn assert_same_fingerprints<'a>(
    probe: &ParamsHandle,
    others: impl Iterator<Item = &'a ParamsHandle>,
) {
    for other in others {
        assert!(
            Arc::ptr_eq(probe, other) || probe.fingerprint() == other.fingerprint(),
            "sets from different universes"
        );
    }
}

/// Count intersections of one batmap against many: `out[i] = |one ∩
/// many[i]|`. The backend configured on `one`'s universe parameters is
/// dispatched once for the whole row, and candidates of `one`'s width
/// are swept in register-blocked groups of eight.
///
/// # Panics
/// Panics if `out.len() != many.len()` or any candidate comes from a
/// different universe.
pub fn count_one_vs_many_into<A: AsSlots, B: AsSlots>(one: &A, many: &[B], out: &mut [u64]) {
    assert_eq!(out.len(), many.len(), "one output slot per candidate");
    assert_same_universe(one.params(), many.iter().map(AsSlots::params));
    struct Row<'a, A, B> {
        one: &'a A,
        many: &'a [B],
        out: &'a mut [u64],
    }
    impl<A: AsSlots, B: AsSlots> KernelDispatch for Row<'_, A, B> {
        type Output = ();
        fn run<K: MatchKernel>(self, kernel: K) {
            block_sweep(&kernel, self.one.slot_bytes(), self.many, self.out, |_| {
                unreachable!("every candidate is a batmap")
            });
        }
    }
    one.params()
        .kernel_backend()
        .dispatch(Row { one, many, out });
}

/// The one row sweep behind both one-vs-many drivers, monomorphized for
/// one kernel and allocation-free. Batmap candidates of the probe's
/// width queue in a stack block of [`BLOCK`] and are flushed through
/// [`MatchKernel::count_equal_width_many`], which keeps the probe words
/// hot in registers/L1 across the block. Batmaps of another width take
/// the pairwise wrapped path, and every other candidate is counted by
/// `sparse`. Callers have checked the candidates' universes.
fn block_sweep<'c, K: MatchKernel, C: RowOperand>(
    kernel: &K,
    probe: &[u8],
    many: &'c [C],
    out: &mut [u64],
    mut sparse: impl FnMut(&'c C) -> u64,
) {
    fn flush<K: MatchKernel>(
        kernel: &K,
        probe: &[u8],
        block: &[&[u8]],
        at: &[usize],
        out: &mut [u64],
    ) {
        let mut counts = [0u64; BLOCK];
        let counts = &mut counts[..block.len()];
        kernel.count_equal_width_many(probe, block, counts);
        for (&i, &c) in at.iter().zip(counts.iter()) {
            out[i] = c;
        }
    }
    let mut block: [&[u8]; BLOCK] = [&[]; BLOCK];
    let mut at = [0usize; BLOCK];
    let mut queued = 0;
    for (i, c) in many.iter().enumerate() {
        match c.batmap_slots() {
            Some(bytes) if bytes.len() == probe.len() => {
                block[queued] = bytes;
                at[queued] = i;
                queued += 1;
                if queued == BLOCK {
                    flush(kernel, probe, &block, &at, out);
                    queued = 0;
                }
            }
            Some(bytes) => out[i] = count_pair(kernel, probe, bytes),
            None => out[i] = sparse(c),
        }
    }
    if queued > 0 {
        flush(kernel, probe, &block[..queued], &at[..queued], out);
    }
}

/// `|a ∩ b|` between two typed set views, using the backend configured
/// on `a`'s universe parameters — the hybrid storage counterpart of the
/// batmap-only entry points above. Every representation pairing is
/// exact; see [`count_mixed_with`] for the kernel matrix.
///
/// # Panics
/// Panics if the operands come from different universes.
pub fn count_mixed(a: &SetView<'_>, b: &SetView<'_>) -> u64 {
    count_mixed_with(a.params().kernel_backend(), a, b)
}

/// [`count_mixed`] with an explicit match-count backend (which only the
/// batmap×batmap arm consults — the other kernels are
/// representation-specific, not backend-specific).
///
/// The pairing matrix:
///
/// * batmap×batmap — the existing positional SIMD dispatch, unchanged;
/// * bitmap×bitmap — word-wise AND + popcount sweep (widths are equal
///   by construction: both `⌈m/64⌉` words);
/// * tidlist×tidlist — galloping merge, probing the shorter list into
///   the longer with an exponential-then-binary lower-bound search;
/// * every cross-representation pair — the sparser operand's elements
///   stream against the denser operand's O(1)/O(log n) membership test
///   (a batmap streams via its allocation-free indicator-bit walk).
///
/// # Panics
/// Panics if the operands come from different universes.
pub fn count_mixed_with(backend: KernelBackend, a: &SetView<'_>, b: &SetView<'_>) -> u64 {
    assert_eq!(
        a.params().fingerprint(),
        b.params().fingerprint(),
        "sets from different universes"
    );
    count_mixed_pair(backend, a, b)
}

/// The pairing matrix itself, with the universe check hoisted out — the
/// row driver below validates each candidate by pointer first.
fn count_mixed_pair(backend: KernelBackend, a: &SetView<'_>, b: &SetView<'_>) -> u64 {
    match (a, b) {
        (SetView::Batmap(x), SetView::Batmap(y)) => {
            struct Pair<'a>(BatmapRef<'a>, BatmapRef<'a>);
            impl KernelDispatch for Pair<'_> {
                type Output = u64;
                fn run<K: MatchKernel>(self, kernel: K) -> u64 {
                    count_pair(&kernel, self.0.slot_bytes(), self.1.slot_bytes())
                }
            }
            backend.dispatch(Pair(*x, *y))
        }
        (SetView::Bitmap(x), SetView::Bitmap(y)) => count_bitmap_bitmap(x, y),
        (SetView::Tidlist(x), SetView::Tidlist(y)) => count_tidlist_tidlist(x, y),
        (SetView::Batmap(bm), SetView::Tidlist(t)) | (SetView::Tidlist(t), SetView::Batmap(bm)) => {
            if t.len() <= bm.len() {
                (0..t.len()).filter(|&i| bm.contains(t.get(i))).count() as u64
            } else {
                let mut n = 0u64;
                for_each_batmap_element(bm, |x| n += t.contains(x) as u64);
                n
            }
        }
        (SetView::Batmap(bm), SetView::Bitmap(bv)) | (SetView::Bitmap(bv), SetView::Batmap(bm)) => {
            if bm.len() <= bv.len() {
                let mut n = 0u64;
                for_each_batmap_element(bm, |x| n += bv.contains(x) as u64);
                n
            } else {
                let mut n = 0u64;
                bv.for_each(|x| n += bm.contains(x) as u64);
                n
            }
        }
        (SetView::Bitmap(bv), SetView::Tidlist(t)) | (SetView::Tidlist(t), SetView::Bitmap(bv)) => {
            if t.len() <= bv.len() {
                (0..t.len()).filter(|&i| bv.contains(t.get(i))).count() as u64
            } else {
                let mut n = 0u64;
                bv.for_each(|x| n += t.contains(x) as u64);
                n
            }
        }
    }
}

/// Count intersections of one typed view against many: the row
/// primitive of every tile executor. The backend is resolved once per
/// row. A batmap probe runs the same row sweep as
/// [`count_one_vs_many_into`]: batmap candidates are batched through
/// the register-blocked kernel, and bitmap/tidlist candidates merge
/// against the probe's elements, decoded once per row on first need.
/// Sparse probes take the per-pair mixed kernels.
///
/// # Panics
/// Panics if `out.len() != many.len()` or any candidate comes from a
/// different universe.
pub fn count_mixed_one_vs_many_into(one: &SetView<'_>, many: &[SetView<'_>], out: &mut [u64]) {
    assert_eq!(out.len(), many.len(), "one output slot per candidate");
    let universe = one.params();
    assert_same_universe(universe, many.iter().map(SetView::params));
    match one {
        SetView::Batmap(probe) => {
            struct Row<'a, 'v> {
                probe: BatmapRef<'a>,
                many: &'a [SetView<'v>],
                out: &'a mut [u64],
            }
            impl KernelDispatch for Row<'_, '_> {
                type Output = ();
                fn run<K: MatchKernel>(self, kernel: K) {
                    // Against sparse candidates the probe's elements are
                    // decoded once per row (`elements()` pays one Feistel
                    // inversion per element — far too much to redo per
                    // pair) and merged directly.
                    let probe = self.probe;
                    let mut elems: Option<Vec<u32>> = None;
                    block_sweep(&kernel, probe.slot_bytes(), self.many, self.out, |c| {
                        let elems = elems.get_or_insert_with(|| {
                            let mut e = probe.elements();
                            e.sort_unstable();
                            e
                        });
                        match c {
                            SetView::Tidlist(t) => count_sorted_vs_tidlist(elems, t),
                            SetView::Bitmap(b) => {
                                elems.iter().filter(|&&x| b.contains(x)).count() as u64
                            }
                            SetView::Batmap(_) => unreachable!("batmaps are block-swept"),
                        }
                    });
                }
            }
            universe.kernel_backend().dispatch(Row {
                probe: *probe,
                many,
                out,
            });
        }
        SetView::Tidlist(probe) => {
            // Decode the probe's elements once for the whole row — on a
            // zipfian corpus the sparse tail dominates, so this is the
            // hottest row shape by far, and re-decoding the probe for
            // every candidate costs more than the merges themselves.
            // For batmap candidates, additionally precompute each
            // element's permuted values and slot keys (lazily — only
            // rows that meet a batmap candidate pay the Feistel
            // applies), turning every such pair into a handful of
            // direct slot reads.
            let elems = probe.elements();
            let mut probes: Option<Vec<[(u64, u8); 3]>> = None;
            for (o, c) in out.iter_mut().zip(many) {
                *o = match c {
                    SetView::Tidlist(t) => count_sorted_vs_tidlist(&elems, t),
                    SetView::Bitmap(b) => elems.iter().filter(|&&x| b.contains(x)).count() as u64,
                    SetView::Batmap(bm) => {
                        let probes = probes.get_or_insert_with(|| {
                            elems
                                .iter()
                                .map(|&x| {
                                    std::array::from_fn(|t| {
                                        let pi = universe.perms().apply(t, x as u64);
                                        (pi, universe.key_of(pi))
                                    })
                                })
                                .collect()
                        });
                        count_slot_probes_vs_batmap(probes, bm)
                    }
                };
            }
        }
        SetView::Bitmap(_) => {
            let backend = universe.kernel_backend();
            for (o, c) in out.iter_mut().zip(many) {
                *o = count_mixed_pair(backend, one, c);
            }
        }
    }
}

/// The columns of one row band, swept one row after another: the band's
/// typed views, plus each batmap column's stored elements, decoded the
/// first time a bitmap row meets that column and kept until the band is
/// dropped. A bitmap×batmap pair otherwise pays one Feistel inversion
/// per stored batmap element ([`count_mixed`]) for every bitmap row
/// of the band; here the band pays it once per column, and each bitmap
/// row counts the cell as bit tests of the decoded elements. Every other
/// row runs [`count_mixed_one_vs_many_into`] unchanged.
///
/// The scratch belongs to one sweep of one band: nothing is allocated
/// until a bitmap row meets a batmap column.
pub struct BandColumns<'a, 'v> {
    cols: &'a [SetView<'v>],
    /// Each column's range in `elems`, once decoded.
    spans: Vec<Option<Range<usize>>>,
    elems: Vec<u32>,
}

impl<'a, 'v> BandColumns<'a, 'v> {
    /// The band's columns, none decoded yet.
    pub fn new(cols: &'a [SetView<'v>]) -> Self {
        Self {
            cols,
            spans: Vec::new(),
            elems: Vec::new(),
        }
    }

    /// `out[i] = |row ∩ cols[at.start + i]|`: one row of the band
    /// against the columns `at`.
    ///
    /// # Panics
    /// Panics if `out.len() != at.len()` or any column comes from a
    /// different universe than `row`.
    pub fn count_row_into(&mut self, row: &SetView<'_>, at: Range<usize>, out: &mut [u64]) {
        let SetView::Bitmap(bits) = row else {
            return count_mixed_one_vs_many_into(row, &self.cols[at], out);
        };
        let many = &self.cols[at.clone()];
        assert_eq!(out.len(), many.len(), "one output slot per candidate");
        assert_same_universe(row.params(), many.iter().map(SetView::params));
        let backend = row.params().kernel_backend();
        for ((j, o), c) in at.zip(out.iter_mut()).zip(many) {
            *o = match c {
                SetView::Batmap(bm) => {
                    if self.spans.is_empty() {
                        self.spans = vec![None; self.cols.len()];
                    }
                    let elems = &mut self.elems;
                    let span = self.spans[j].get_or_insert_with(|| {
                        let start = elems.len();
                        for_each_batmap_element(bm, |x| elems.push(x));
                        start..elems.len()
                    });
                    elems[span.clone()]
                        .iter()
                        .filter(|&&x| bits.contains(x))
                        .count() as u64
                }
                _ => count_mixed_pair(backend, row, c),
            };
        }
    }
}

/// Membership count of precomputed slot probes — `(πₜ(x), key)` per
/// table for each probed element — against one batmap: the positional
/// part of [`AsSlots::contains`] with the Feistel applies hoisted out,
/// so a sparse row probes each batmap candidate with plain slot reads.
fn count_slot_probes_vs_batmap(probes: &[[(u64, u8); 3]], bm: &BatmapRef<'_>) -> u64 {
    let params = bm.params();
    let r = bm.range();
    let bytes = bm.as_bytes();
    probes
        .iter()
        .filter(|p| {
            (0..TABLES).any(|t| {
                let (pi, key) = p[t];
                let b = bytes[params.slot_of(t, pi, r)];
                !slot::is_empty(b) && slot::key(b) == key
            })
        })
        .count() as u64
}

/// Intersection count of a decoded sorted element slice against a
/// tidlist view: galloping probe of the smaller side into the larger,
/// like [`count_tidlist_tidlist`] but with one side already decoded.
fn count_sorted_vs_tidlist(probe: &[u32], t: &TidlistRef<'_>) -> u64 {
    let mut count = 0u64;
    let mut from = 0usize;
    if probe.len() <= t.len() {
        for &x in probe {
            if from >= t.len() {
                break;
            }
            let pos = gallop_lower_bound(t, from, x);
            if pos < t.len() && t.get(pos) == x {
                count += 1;
                from = pos + 1;
            } else {
                from = pos;
            }
        }
    } else {
        for i in 0..t.len() {
            if from >= probe.len() {
                break;
            }
            let x = t.get(i);
            let pos = from + probe[from..].partition_point(|&v| v < x);
            if pos < probe.len() && probe[pos] == x {
                count += 1;
                from = pos + 1;
            } else {
                from = pos;
            }
        }
    }
    count
}

/// Word-wise AND + popcount over two equal-width bitmaps.
fn count_bitmap_bitmap(a: &BitmapRef<'_>, b: &BitmapRef<'_>) -> u64 {
    debug_assert_eq!(a.width_bytes(), b.width_bytes());
    a.as_bytes()
        .chunks_exact(8)
        .zip(b.as_bytes().chunks_exact(8))
        .map(|(ca, cb)| {
            let wa = u64::from_le_bytes(ca.try_into().unwrap());
            let wb = u64::from_le_bytes(cb.try_into().unwrap());
            (wa & wb).count_ones() as u64
        })
        .sum()
}

/// Galloping merge of two sorted tidlists: probe the shorter into the
/// longer, each probe resuming where the last one landed.
fn count_tidlist_tidlist(a: &TidlistRef<'_>, b: &TidlistRef<'_>) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0u64;
    let mut from = 0usize;
    for i in 0..small.len() {
        if from >= large.len() {
            break;
        }
        let x = small.get(i);
        let pos = gallop_lower_bound(large, from, x);
        if pos < large.len() && large.get(pos) == x {
            count += 1;
            from = pos + 1;
        } else {
            from = pos;
        }
    }
    count
}

/// First index `≥ from` whose element is `≥ x`: exponential widening
/// from `from` (so runs of nearby probes cost O(log gap), not
/// O(log n)), then binary search inside the bracketed window.
fn gallop_lower_bound(t: &TidlistRef<'_>, from: usize, x: u32) -> usize {
    let n = t.len();
    if from >= n || t.get(from) >= x {
        return from;
    }
    // Invariant: t.get(lo) < x.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && t.get(lo + step) < x {
        lo += step;
        step <<= 1;
    }
    let mut hi = (lo + step).min(n); // t.get(hi) ≥ x, or hi == n
    let mut l = lo + 1;
    while l < hi {
        let mid = l + (hi - l) / 2;
        if t.get(mid) < x {
            l = mid + 1;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Exact reference: decode both element sets and intersect them. Used by
/// tests and the verification examples; O(n log n) and branchy — the very
/// thing the paper avoids on the hot path.
pub fn count_by_decoding<A: AsSlots + ?Sized, B: AsSlots + ?Sized>(a: &A, b: &B) -> u64 {
    let mut ea = a.elements();
    ea.sort_unstable();
    let mut count = 0u64;
    for x in b.elements() {
        if ea.binary_search(&x).is_ok() {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use crate::params::BatmapParams;
    use crate::Batmap;
    use std::sync::Arc;

    #[test]
    fn positional_equals_decoded() {
        let p = Arc::new(BatmapParams::new(40_000, 77));
        let a: Vec<u32> = (0..1500).map(|i| i * 3 % 40_000).collect();
        let b: Vec<u32> = (0..400).map(|i| i * 9 % 40_000).collect();
        let ba = Batmap::build(p.clone(), &a).batmap;
        let bb = Batmap::build(p, &b).batmap;
        assert_eq!(ba.intersect_count(&bb), super::count_by_decoding(&ba, &bb));
    }

    #[test]
    fn every_backend_counts_identically() {
        use crate::kernel::available_backends;
        let p = Arc::new(BatmapParams::new(30_000, 5));
        let small: Vec<u32> = (0..200).map(|i| i * 11 % 30_000).collect();
        let large: Vec<u32> = (0..4000).map(|i| i * 7 % 30_000).collect();
        let bs = Batmap::build(p.clone(), &small).batmap;
        let bl = Batmap::build(p, &large).batmap;
        let expect = super::count_by_decoding(&bs, &bl);
        for backend in available_backends() {
            assert_eq!(
                super::count_with(backend.kernel(), &bs, &bl),
                expect,
                "backend {backend} (folded path)"
            );
            assert_eq!(
                super::count_with(backend.kernel(), &bl, &bl),
                bl.len() as u64,
                "backend {backend} (equal-width path)"
            );
        }
    }

    #[test]
    fn params_pinned_backend_is_used() {
        use crate::kernel::KernelBackend;
        for backend in crate::kernel::available_backends() {
            let p = Arc::new(
                BatmapParams::new(10_000, 9)
                    .with_engine_options(crate::options::EngineOptions::auto().kernel(backend)),
            );
            let a = Batmap::build(p.clone(), &(0..800).collect::<Vec<_>>()).batmap;
            let b = Batmap::build(p, &(400..1200).collect::<Vec<_>>()).batmap;
            assert_eq!(a.params().kernel_backend(), backend);
            assert_eq!(a.intersect_count(&b), 400);
        }
        let _ = KernelBackend::Auto; // exercised via the default elsewhere
    }

    #[test]
    fn one_vs_many_matches_pointwise() {
        let p = Arc::new(BatmapParams::new(10_000, 3));
        let probe = Batmap::build(p.clone(), &(0..500).collect::<Vec<_>>()).batmap;
        let many: Vec<Batmap> = (0..5)
            .map(|k| {
                Batmap::build(
                    p.clone(),
                    &(0..(100 * (k + 1))).map(|i| i * 2).collect::<Vec<_>>(),
                )
                .batmap
            })
            .collect();
        let mut counts = vec![0u64; many.len()];
        super::count_one_vs_many_into(&probe, &many, &mut counts);
        for (i, b) in many.iter().enumerate() {
            assert_eq!(counts[i], probe.intersect_count(b));
        }
    }

    #[test]
    fn one_vs_many_batches_per_backend() {
        // Mixed widths: some candidates share the probe's width (the
        // blocked path), some are smaller/larger (the pairwise path).
        // The backend is pinned on the universe parameters.
        let sizes = [50usize, 1000, 900, 4000, 1000, 1000, 30, 1100, 1000];
        let build = |p: &Arc<BatmapParams>, n: u32| {
            Batmap::build(p.clone(), &(0..n).map(|i| i * 3).collect::<Vec<_>>()).batmap
        };
        let mut expect = None;
        for backend in crate::kernel::available_backends() {
            let p = Arc::new(
                BatmapParams::new(50_000, 21)
                    .with_engine_options(crate::options::EngineOptions::auto().kernel(backend)),
            );
            let probe = build(&p, 1000);
            let many: Vec<Batmap> = sizes.iter().map(|&n| build(&p, n as u32)).collect();
            assert!(
                many.iter().any(|b| b.width_bytes() == probe.width_bytes()),
                "fixture must exercise the blocked path"
            );
            let expect = expect.get_or_insert_with(|| {
                many.iter()
                    .map(|b| super::count_by_decoding(&probe, b))
                    .collect::<Vec<u64>>()
            });
            let mut out = vec![0u64; many.len()];
            super::count_one_vs_many_into(&probe, &many, &mut out);
            assert_eq!(&out, expect, "backend {backend}");
        }
    }

    #[test]
    #[should_panic]
    fn one_vs_many_rejects_foreign_universe() {
        let p = Arc::new(BatmapParams::new(1_000, 1));
        let q = Arc::new(BatmapParams::new(1_000, 2));
        let probe = Batmap::build(p, &[1, 2, 3]).batmap;
        let alien = Batmap::build(q, &[1, 2, 3]).batmap;
        let mut out = [0u64; 1];
        super::count_one_vs_many_into(&probe, &[alien], &mut out);
    }

    use crate::arena::ArenaBuilder;
    use crate::repr::SetRepr;

    const ALL_REPRS: [SetRepr; 3] = [SetRepr::Batmap, SetRepr::Bitmap, SetRepr::Tidlist];

    /// Sorted-intersection oracle over raw element lists.
    fn oracle(a: &[u32], b: &[u32]) -> u64 {
        let mut sa: Vec<u32> = a.to_vec();
        sa.sort_unstable();
        sa.dedup();
        let mut sb: Vec<u32> = b.to_vec();
        sb.sort_unstable();
        sb.dedup();
        sb.iter().filter(|x| sa.binary_search(x).is_ok()).count() as u64
    }

    #[test]
    fn mixed_pairings_match_oracle() {
        let p = Arc::new(BatmapParams::new(8_000, 0xBEE5));
        let fixtures: Vec<Vec<u32>> = vec![
            vec![],
            (0..7).map(|i| i * 1000).collect(),
            (0..500).map(|i| i * 13 % 8_000).collect(),
            (0..6000).map(|i| i * 7 % 8_000).collect(),
        ];
        for sa in &fixtures {
            for sb in &fixtures {
                let expect = oracle(sa, sb);
                for ra in ALL_REPRS {
                    for rb in ALL_REPRS {
                        let mut builder = ArenaBuilder::new(p.clone());
                        builder.push_elements(sa, ra);
                        builder.push_elements(sb, rb);
                        let arena = builder.finish();
                        let (va, vb) = (arena.payload(0), arena.payload(1));
                        assert_eq!(
                            super::count_mixed(&va, &vb),
                            expect,
                            "{ra}×{rb} |a|={} |b|={}",
                            sa.len(),
                            sb.len()
                        );
                        // Symmetry: the probe-the-sparser choice must
                        // not change the count.
                        assert_eq!(super::count_mixed(&vb, &va), expect, "{rb}×{ra} swapped");
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_one_vs_many_matches_pointwise() {
        let p = Arc::new(BatmapParams::new(8_000, 0xBEE5));
        let mut builder = ArenaBuilder::new(p.clone());
        let sets: Vec<Vec<u32>> = (0..9)
            .map(|k| (0..(30 + 700 * k)).map(|i| (i * (k + 3)) % 8_000).collect())
            .collect();
        for (k, s) in sets.iter().enumerate() {
            builder.push_elements(s, ALL_REPRS[k % 3]);
        }
        let arena = builder.finish();
        let views = arena.payload_views(0..arena.len());
        for probe_idx in 0..views.len() {
            let probe = arena.payload(probe_idx);
            let mut out = vec![0u64; views.len()];
            super::count_mixed_one_vs_many_into(&probe, &views, &mut out);
            for (j, v) in views.iter().enumerate() {
                assert_eq!(
                    out[j],
                    super::count_mixed(&probe, v),
                    "probe {probe_idx} vs {j}"
                );
            }
        }
    }

    #[test]
    fn band_columns_match_pointwise() {
        // Bitmap rows meet batmap columns, two of them side by side;
        // every row sweeps several column ranges, so a decoded column
        // is reused across rows and ranges.
        let p = Arc::new(BatmapParams::new(8_000, 0xBEE5));
        let reprs = [
            SetRepr::Batmap,
            SetRepr::Batmap,
            SetRepr::Bitmap,
            SetRepr::Tidlist,
        ];
        let mut builder = ArenaBuilder::new(p.clone());
        for k in 0..12u32 {
            let elems: Vec<u32> = (0..(20 + 400 * k)).map(|i| (i * (k + 5)) % 8_000).collect();
            builder.push_elements(&elems, reprs[k as usize % 4]);
        }
        let arena = builder.finish();
        let views = arena.payload_views(0..arena.len());
        let mut band = super::BandColumns::new(&views);
        for row in &views {
            for at in [0..views.len(), 3..7, 7..views.len()] {
                let mut out = vec![u64::MAX; at.len()];
                band.count_row_into(row, at.clone(), &mut out);
                for (o, c) in out.iter().zip(&views[at]) {
                    assert_eq!(*o, super::count_mixed(row, c), "{} row", row.repr());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sets from different universes")]
    fn mixed_one_vs_many_rejects_foreign_universe_past_the_first_candidate() {
        let arena_in = |seed| {
            let mut builder = ArenaBuilder::new(Arc::new(BatmapParams::new(1_000, seed)));
            builder.push_elements(&[1, 2, 3], SetRepr::Batmap);
            builder.push_elements(&[2, 3, 4], SetRepr::Tidlist);
            builder.finish()
        };
        let (home, foreign) = (arena_in(1), arena_in(2));
        let probe = home.payload(0);
        let many = [home.payload(1), foreign.payload(1)];
        let mut out = [0u64; 2];
        super::count_mixed_one_vs_many_into(&probe, &many, &mut out);
    }

    #[test]
    fn gallop_lower_bound_brackets_correctly() {
        let p = Arc::new(BatmapParams::new(1_000, 3));
        let elements: Vec<u32> = vec![2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987];
        let mut builder = ArenaBuilder::new(p);
        builder.push_elements(&elements, SetRepr::Tidlist);
        let arena = builder.finish();
        let crate::repr::SetView::Tidlist(t) = arena.payload(0) else {
            panic!("tidlist expected");
        };
        for from in 0..=elements.len() {
            for x in 0..1000u32 {
                let expect =
                    from + elements[from.min(elements.len())..].partition_point(|&e| e < x);
                assert_eq!(
                    super::gallop_lower_bound(&t, from, x),
                    expect.min(elements.len()).max(from),
                    "from={from} x={x}"
                );
            }
        }
    }
}
