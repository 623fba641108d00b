//! Construction of batmaps: the generalized cuckoo insertion of §II-A.
//!
//! Each element is stored in 2 of its 3 candidate slots. Insertion pushes
//! a *nestless* element through the tables in the cyclic order
//! `A₁, A₂, A₃, A₁, …`, swapping it with whatever occupies its candidate
//! slot, until a swap lands in an empty slot or `MaxLoop` cycles pass.
//!
//! During construction we keep a transient side array with the
//! occupant of each slot (the compressed byte form is only materialized
//! at the end); this is what lets evicted elements be re-addressed, and
//! what the final indicator-bit pass reads. An occupant is a *local
//! index* into the builder's element table, which holds each element's
//! id and its three permuted values `πₜ(x)`: the Feistel permutation
//! runs three times per element, never again per cuckoo move or per
//! stored copy.
//!
//! Failed insertions (§III-C): if either copy of `x` cannot be placed,
//! all copies of `x` are removed, the currently nestless element is
//! re-inserted, and `x` is reported in [`BuildOutcome::failed`] so the
//! mining pipeline can count it through the `F_b` / `M_{p,q}` side path.

use crate::params::{ParamsHandle, EMPTY_SLOT, TABLES};
use crate::slot;
use crate::Batmap;

/// Occupant marker for an empty slot in the transient side array.
const VACANT: u32 = u32::MAX;

/// Instrumentation counters for the §II-B analysis experiments.
/// Serializable so preprocessed-corpus snapshots can carry them.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InsertStats {
    /// Number of `insert` calls (elements attempted).
    pub elements: u64,
    /// Total element moves across all insertions (the transcript length
    /// summed; §II-B bounds its expectation by O(1/ε) per insertion).
    pub moves: u64,
    /// Longest single-insertion transcript observed.
    pub max_transcript: u64,
    /// Number of elements whose insertion failed.
    pub failures: u64,
}

/// What happened to one `insert` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Both copies placed.
    Inserted,
    /// The element was already present; nothing changed.
    Duplicate,
    /// Placement failed; the element (and possibly collateral elements
    /// evicted during recovery) was removed and recorded as failed.
    Failed,
}

/// Result of building a batmap from a set.
#[derive(Debug, Clone)]
pub struct BuildOutcome {
    /// The finished batmap (contains every element that did not fail).
    pub batmap: Batmap,
    /// Elements that could not be placed (to be handled out-of-band,
    /// §III-C). Empty in the overwhelmingly common case.
    pub failed: Vec<u32>,
    /// Construction statistics.
    pub stats: InsertStats,
}

/// Result of materializing a set **in place** into arena-owned storage
/// ([`BatmapBuilder::finish_into`]): everything a [`BuildOutcome`]
/// carries except the batmap itself, whose slot bytes now live in the
/// caller's buffer.
#[derive(Debug, Clone)]
pub struct ArenaSetOutcome {
    /// Number of elements actually placed.
    pub len: usize,
    /// Elements that could not be placed (§III-C).
    pub failed: Vec<u32>,
    /// Construction statistics for this set.
    pub stats: InsertStats,
}

/// Incremental batmap constructor with a fixed capacity.
#[derive(Debug, Clone)]
pub struct BatmapBuilder {
    params: ParamsHandle,
    /// Per-table range; the batmap holds `3·r` slots.
    r: u64,
    /// Local index of the element in each slot, [`VACANT`] when empty.
    occupants: Vec<u32>,
    /// Element id of each local index.
    ids: Vec<u32>,
    /// `πₜ(x)` of each local index, one per table (`πₜ(x) < m`, and the
    /// universe fits `u32`).
    pis: Vec<[u32; TABLES]>,
    /// Elements placed (each occupies two slots).
    len: usize,
    /// Elements whose insertion failed.
    failed: Vec<u32>,
    stats: InsertStats,
}

impl BatmapBuilder {
    /// Create a builder sized for `expected_size` elements over the given
    /// universe parameters.
    ///
    /// The range is fixed at creation (`BatmapParams::range_for`); the
    /// builder does not grow. This mirrors the paper's pipeline, where
    /// set sizes are known before construction (tidlists are materialized
    /// first).
    pub fn with_capacity(params: ParamsHandle, expected_size: usize) -> Self {
        assert!(
            params.m() <= u32::MAX as u64,
            "element ids are u32; universe of {} does not fit",
            params.m()
        );
        let r = params.range_for(expected_size);
        BatmapBuilder {
            params,
            r,
            occupants: vec![VACANT; (TABLES as u64 * r) as usize],
            ids: Vec::new(),
            pis: Vec::new(),
            len: 0,
            failed: Vec::new(),
            stats: InsertStats::default(),
        }
    }

    /// Per-table range `r` of the batmap under construction.
    pub fn range(&self) -> u64 {
        self.r
    }

    /// Number of elements currently placed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no element is placed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The three permuted values of element `x`.
    #[inline]
    fn permute(&self, x: u32) -> [u32; TABLES] {
        std::array::from_fn(|t| self.params.perms().apply(t, x as u64) as u32)
    }

    /// Add `x` with its permuted values to the element table and return
    /// its local index.
    #[inline]
    fn register(&mut self, x: u32, pis: [u32; TABLES]) -> u32 {
        self.ids.push(x);
        self.pis.push(pis);
        (self.ids.len() - 1) as u32
    }

    /// Candidate slot of local element `e` in table `t`.
    #[inline]
    fn candidate(&self, t: usize, e: u32) -> usize {
        self.params
            .slot_of(t, self.pis[e as usize][t] as u64, self.r)
    }

    /// Whether an element with permuted values `pis` is placed under id
    /// `x`.
    fn holds(&self, x: u32, pis: &[u32; TABLES]) -> bool {
        (0..TABLES).any(|t| {
            let occ = self.occupants[self.params.slot_of(t, pis[t] as u64, self.r)];
            occ != VACANT && self.ids[occ as usize] == x
        })
    }

    /// Whether `x` is currently placed (i.e. occupies ≥ 1 slot).
    pub fn contains(&self, x: u32) -> bool {
        self.holds(x, &self.permute(x))
    }

    /// The §II-A INSERT procedure: push local element `tau` through the
    /// tables until a vacant slot absorbs it or `MaxLoop` cycles pass;
    /// on failure the currently nestless element is returned.
    fn insert_copy(&mut self, mut tau: u32) -> Result<(), u32> {
        let mut transcript = 0u64;
        for _ in 0..self.params.max_loop() {
            for t in 0..TABLES {
                let slot = self.candidate(t, tau);
                std::mem::swap(&mut tau, &mut self.occupants[slot]);
                transcript += 1;
                if tau == VACANT {
                    self.stats.moves += transcript;
                    self.stats.max_transcript = self.stats.max_transcript.max(transcript);
                    return Ok(());
                }
            }
        }
        self.stats.moves += transcript;
        self.stats.max_transcript = self.stats.max_transcript.max(transcript);
        Err(tau)
    }

    /// Remove every placed copy of local element `e` (at most one per
    /// table).
    fn remove_all(&mut self, e: u32) {
        for t in 0..TABLES {
            let slot = self.candidate(t, e);
            if self.occupants[slot] == e {
                self.occupants[slot] = VACANT;
            }
        }
    }

    /// Failure recovery (§III-C): drop `e` entirely, then re-home the
    /// chain of nestless elements. Each iteration either re-places the
    /// nestless element or removes it too (and continues with the next
    /// victim), so the loop terminates.
    fn recover(&mut self, e: u32, mut nestless: u32) {
        self.remove_all(e);
        self.failed.push(self.ids[e as usize]);
        self.stats.failures += 1;
        while nestless != e {
            match self.insert_copy(nestless) {
                Ok(()) => break,
                Err(next) => {
                    let victim = nestless;
                    self.remove_all(victim);
                    self.failed.push(self.ids[victim as usize]);
                    self.stats.failures += 1;
                    self.len -= 1; // victim had been fully placed before
                    if next == victim {
                        break;
                    }
                    nestless = next;
                }
            }
        }
    }

    /// Place both copies of local element `e`; false (after recovery)
    /// when placement failed.
    fn place(&mut self, e: u32) -> bool {
        self.stats.elements += 1;
        for _copy in 0..2 {
            if let Err(nestless) = self.insert_copy(e) {
                self.recover(e, nestless);
                return false;
            }
        }
        self.len += 1;
        true
    }

    /// Insert element `x < m` (two copies).
    pub fn insert(&mut self, x: u32) -> InsertOutcome {
        assert!((x as u64) < self.params.m(), "element {x} outside universe");
        let pis = self.permute(x);
        if self.holds(x, &pis) {
            return InsertOutcome::Duplicate;
        }
        let e = self.register(x, pis);
        if self.place(e) {
            InsertOutcome::Inserted
        } else {
            InsertOutcome::Failed
        }
    }

    /// Re-arm this builder for a fresh set of `expected_size` elements,
    /// reusing the occupant allocation. The arena preprocessing path
    /// keeps one builder per worker and resets it per set, so the only
    /// per-set allocations left are the (usually empty) failure list.
    pub fn reset(&mut self, expected_size: usize) {
        self.r = self.params.range_for(expected_size);
        self.occupants.clear();
        self.occupants
            .resize((TABLES as u64 * self.r) as usize, VACANT);
        self.ids.clear();
        self.pis.clear();
        self.len = 0;
        self.failed.clear();
        self.stats = InsertStats::default();
    }

    /// Run the sorted-dedup bulk insertion loop (the body of
    /// [`build_sorted_dedup`]) against this builder. Elements must be
    /// sorted and duplicate-free; the builder must be sized for them.
    pub fn extend_sorted_dedup(&mut self, elements: &[u32]) {
        self.ids.reserve(elements.len());
        self.pis.reserve(elements.len());
        for &x in elements {
            let e = self.register(x, self.permute(x));
            self.place(e);
        }
    }

    /// Write the compressed byte representation into `bytes` (which must
    /// already be [`EMPTY_SLOT`]-filled and exactly `3·r` long).
    ///
    /// The indicator bits are computed here in one pass: for each placed
    /// copy we locate the element's other copy and apply the cyclic rule
    /// of Fig. 3 (`b = 1` iff the other copy is in the next table).
    fn materialize(&self, bytes: &mut [u8]) {
        debug_assert_eq!(bytes.len(), self.occupants.len());
        for (idx, &occ) in self.occupants.iter().enumerate() {
            if occ == VACANT {
                continue;
            }
            let here = self.params.table_of_slot(idx);
            debug_assert_eq!(self.candidate(here, occ), idx);
            // Locate the other copy among the other two tables.
            let mut other = usize::MAX;
            for t in 0..TABLES {
                if t != here && self.occupants[self.candidate(t, occ)] == occ {
                    debug_assert_eq!(other, usize::MAX, "element placed 3 times");
                    other = t;
                }
            }
            assert_ne!(
                other,
                usize::MAX,
                "element {} has a single copy",
                self.ids[occ as usize]
            );
            let indicator = slot::indicator_for(here, other);
            let pi = self.pis[occ as usize][here] as u64;
            bytes[idx] = slot::pack(self.params.key_of(pi), indicator);
        }
    }

    /// Materialize the compressed byte representation and finish.
    pub fn finish(self) -> BuildOutcome {
        let width = self.occupants.len();
        let mut bytes = vec![EMPTY_SLOT; width].into_boxed_slice();
        self.materialize(&mut bytes);
        let batmap = Batmap::from_raw_parts(self.params, self.r, bytes, self.len);
        BuildOutcome {
            batmap,
            failed: self.failed,
            stats: self.stats,
        }
    }

    /// Materialize straight into caller-owned storage (an arena slot) and
    /// hand back everything except the bytes. `out` must be exactly
    /// `3·r` long; it is overwritten entirely. The builder stays usable —
    /// call [`BatmapBuilder::reset`] before building the next set.
    pub fn finish_into(&mut self, out: &mut [u8]) -> ArenaSetOutcome {
        assert_eq!(
            out.len(),
            self.occupants.len(),
            "arena slot width must match the builder's 3·r"
        );
        out.fill(EMPTY_SLOT);
        self.materialize(out);
        ArenaSetOutcome {
            len: self.len,
            failed: std::mem::take(&mut self.failed),
            stats: std::mem::take(&mut self.stats),
        }
    }
}

/// Build a batmap from a slice of (possibly unsorted, possibly duplicate)
/// elements. The common entry point.
pub fn build(params: ParamsHandle, elements: &[u32]) -> BuildOutcome {
    let mut sorted = elements.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    build_sorted_dedup(params, &sorted)
}

/// Build from elements known to be sorted and duplicate-free (skips the
/// `contains` pre-check per insert).
pub fn build_sorted_dedup(params: ParamsHandle, elements: &[u32]) -> BuildOutcome {
    let mut builder = BatmapBuilder::with_capacity(params, elements.len());
    builder.extend_sorted_dedup(elements);
    builder.finish()
}

/// Build `sorted` (ascending, duplicate-free) at range at least
/// `min_range`, doubling the range until every element is placed: the
/// result has no failed insertions to correct for.
pub(crate) fn build_placing_all(
    params: ParamsHandle,
    sorted: &[u32],
    mut min_range: u64,
) -> Batmap {
    loop {
        let size_hint = sorted.len().max(growth_hint(min_range));
        let mut builder = BatmapBuilder::with_capacity(params.clone(), size_hint);
        let placed_all = sorted
            .iter()
            .all(|&e| builder.insert(e) != InsertOutcome::Failed);
        if placed_all {
            return builder.finish().batmap;
        }
        min_range *= 2;
    }
}

/// A builder size hint whose `range_for` is exactly `range` (a power
/// of two ≥ `r₀`): `range_for(s) = max(r₀, 2^⌈log₂ ⌈3s/2⌉⌉)`, and
/// `⌈3·range/4⌉` lies in `(range/2, range]`.
fn growth_hint(range: u64) -> usize {
    (range / 2) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;
    use std::sync::Arc;

    fn params(m: u64) -> ParamsHandle {
        Arc::new(BatmapParams::new(m, 0xBA7_0001))
    }

    #[test]
    fn growth_hint_yields_the_requested_range() {
        for m in [1_000u64, 50_000, 1 << 20] {
            let p = params(m);
            for range in (0..16).map(|e| p.r0() << e) {
                assert_eq!(
                    p.range_for(growth_hint(range)),
                    range,
                    "m={m} range={range}"
                );
            }
        }
    }

    #[test]
    fn insert_places_two_copies() {
        let p = params(10_000);
        let mut b = BatmapBuilder::with_capacity(p.clone(), 16);
        assert_eq!(b.insert(42), InsertOutcome::Inserted);
        let copies = (0..TABLES)
            .filter(|&t| b.occupants[b.candidate(t, 0)] == 0)
            .count();
        assert_eq!(b.ids[0], 42);
        assert_eq!(copies, 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn duplicate_detected() {
        let p = params(10_000);
        let mut b = BatmapBuilder::with_capacity(p, 16);
        assert_eq!(b.insert(7), InsertOutcome::Inserted);
        assert_eq!(b.insert(7), InsertOutcome::Duplicate);
        assert_eq!(b.len(), 1);
    }

    /// Build `elements` at the paper's §III-A width
    /// `r = 2·2^⌈log₂ n⌉`: under `range_for`'s narrower rule a size
    /// hint of `2^⌈log₂ n⌉` yields exactly that range.
    fn build_at_paper_width(p: ParamsHandle, elements: &[u32]) -> BuildOutcome {
        let mut b = BatmapBuilder::with_capacity(p, elements.len().next_power_of_two());
        for &x in elements {
            b.insert(x);
        }
        b.finish()
    }

    #[test]
    fn build_random_sets_no_failures_at_paper_load() {
        // r = 2·2^⌈log n⌉ gives load ≤ 1/3; failures should be absent
        // for these sizes.
        let p = params(100_000);
        for size in [0usize, 1, 2, 10, 100, 1000, 5000] {
            let elements: Vec<u32> = (0..size as u32).map(|i| i * 17 % 100_000).collect();
            let mut sorted = elements.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let out = build_at_paper_width(p.clone(), &elements);
            let paper_range = (2 * size.max(1).next_power_of_two() as u64).max(p.r0());
            assert_eq!(out.batmap.range(), paper_range, "size={size}");
            assert!(out.failed.is_empty(), "size={size}: {:?}", out.failed);
            assert_eq!(out.batmap.len(), sorted.len(), "size={size}");
        }
    }

    #[test]
    fn stored_plus_failed_is_the_set_at_the_highest_load() {
        // `range_for` keeps the load 2n/3r ≤ 4/9, reached at n = ⌊2r/3⌋.
        // Failures may occur there; every element must still be either
        // stored or reported failed, never both and never neither.
        let p = params(100_000);
        let (mut failures, mut total) = (0, 0);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for r in [1u64 << 10, 1 << 12, 1 << 14] {
            let n = (2 * r / 3) as usize;
            assert_eq!(p.range_for(n), r);
            assert!(
                p.range_for(n + 1) > r,
                "n = {n} is the highest load at r = {r}"
            );
            for _ in 0..8 {
                let mut elements: Vec<u32> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 100_000) as u32
                    })
                    .collect();
                elements.sort_unstable();
                elements.dedup();
                let out = build(p.clone(), &elements);
                assert_eq!(out.batmap.range(), p.range_for(elements.len()));
                assert_eq!(out.batmap.len() + out.failed.len(), elements.len());
                assert_eq!(out.batmap.elements().len(), out.batmap.len());
                for &f in &out.failed {
                    assert!(!out.batmap.contains(f), "failed {f} still stored");
                }
                failures += out.failed.len();
                total += elements.len();
            }
        }
        // The failed fraction stays small at load 4/9.
        assert!(failures * 50 < total, "{failures} of {total} failed");
    }

    #[test]
    fn builder_contains_tracks_membership() {
        let p = params(50_000);
        let mut b = BatmapBuilder::with_capacity(p, 128);
        for x in 0..100u32 {
            assert!(!b.contains(x));
            b.insert(x);
            assert!(b.contains(x));
        }
    }

    #[test]
    fn tiny_max_loop_forces_failures() {
        // Failure injection: MaxLoop = 1 with a packed table must fail
        // for some elements, and every failed element must be absent
        // while every non-failed element must remain fully placed.
        let p = Arc::new(BatmapParams::with_max_loop(1 << 15, 0xFEED, 1));
        let elements: Vec<u32> = (0..4000u32).collect();
        let out = build_sorted_dedup(p, &elements);
        assert_eq!(out.batmap.len() + out.failed.len(), elements.len());
        assert_eq!(out.stats.failures as usize, out.failed.len());
        for &f in &out.failed {
            assert!(!out.batmap.contains(f), "failed {f} still present");
        }
        let mut failed_sorted = out.failed.clone();
        failed_sorted.sort_unstable();
        for &x in &elements {
            if failed_sorted.binary_search(&x).is_err() {
                assert!(out.batmap.contains(x), "{x} lost without being reported");
            }
        }
    }

    #[test]
    fn moves_accounting_reasonable() {
        let p = params(100_000);
        let out = build(p, &(0..2000u32).collect::<Vec<_>>());
        // 2 copies per element, ≥ 1 move per copy.
        assert!(out.stats.moves >= 2 * 2000);
        assert_eq!(out.stats.elements, 2000);
        // At the paper's load factor the average transcript is O(1):
        // allow a generous constant.
        assert!(
            out.stats.moves < 2000 * 40,
            "average transcript too long: {} moves",
            out.stats.moves
        );
    }

    #[test]
    fn finish_sets_exactly_one_indicator_per_element() {
        let p = params(65_536);
        let elements: Vec<u32> = (0..3000u32).map(|i| i * 21 % 65_536).collect();
        let out = build(p, &elements);
        let set: std::collections::BTreeSet<u32> = elements.into_iter().collect();
        let ones = out
            .batmap
            .as_bytes()
            .iter()
            .filter(|&&b| slot::indicator(b))
            .count();
        assert_eq!(ones, set.len());
    }

    #[test]
    #[should_panic]
    fn out_of_universe_panics() {
        let p = params(100);
        let mut b = BatmapBuilder::with_capacity(p, 4);
        b.insert(100);
    }
}
