//! The [`Batmap`] type: an immutable, compressed, intersectable set.

use crate::builder::{self, BuildOutcome};
use crate::intersect;
use crate::params::{ParamsHandle, TABLES};
use crate::slot;
use crate::BatmapError;
use hpcutil::MemoryFootprint;

/// Storage-agnostic view of one batmap: the slot words, the universe
/// parameters they were built from, and the stored cardinality.
///
/// This is the seam that makes the hot paths independent of *where* the
/// slot bytes live: [`Batmap`] owns its bytes in a private `Box<[u8]>`,
/// while [`crate::arena::BatmapRef`] borrows a window of a
/// [`crate::arena::BatmapArena`]'s contiguous backing store. Everything
/// downstream — [`crate::intersect`], the kernel dispatch, the
/// [`crate::multiway`] probe sweep, and the `pairminer` tile engines —
/// is generic over this trait, so owned and arena-backed sets flow
/// through the same monomorphized loops and produce identical counts.
///
/// The provided decode helpers ([`AsSlots::contains`],
/// [`AsSlots::elements`]) work purely from the accessors, so any
/// implementor gets exact membership and enumeration for free.
pub trait AsSlots {
    /// The universe parameters this set was built from.
    fn params(&self) -> &ParamsHandle;

    /// Per-table hash range `r` (power of two, ≥ `r₀`).
    fn range(&self) -> u64;

    /// The raw slot bytes (`3·r` of them, four slots per 32-bit word).
    fn slot_bytes(&self) -> &[u8];

    /// Number of elements stored.
    fn len(&self) -> usize;

    /// Width of the representation in bytes (`3·r`, the paper's `|Bᵢ|`).
    fn width_bytes(&self) -> usize {
        self.slot_bytes().len()
    }

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test — exact (no false positives): a slot's position
    /// plus its 7 stored key bits uniquely identify the permuted value,
    /// and the permuted value uniquely identifies the element.
    fn contains(&self, x: u32) -> bool {
        let params = self.params();
        let r = self.range();
        let bytes = self.slot_bytes();
        debug_assert!((x as u64) < params.m());
        (0..TABLES).any(|t| {
            let pi = params.perms().apply(t, x as u64);
            let idx = params.slot_of(t, pi, r);
            let b = bytes[idx];
            !slot::is_empty(b) && slot::key(b) == params.key_of(pi)
        })
    }

    /// Enumerate the stored elements, in unspecified order.
    ///
    /// Exactly one of an element's two copies carries the indicator bit
    /// (the copy whose sibling is in the *next* table), so scanning for
    /// set indicator bits yields each element once.
    fn elements(&self) -> Vec<u32> {
        let params = self.params();
        let r = self.range();
        let mut out = Vec::with_capacity(self.len());
        for (idx, &b) in self.slot_bytes().iter().enumerate() {
            if !slot::indicator(b) {
                continue;
            }
            let t = params.table_of_slot(idx);
            let pi = params
                .decode_slot(idx, slot::key(b), r)
                .expect("live slot must decode");
            out.push(params.perms().invert(t, pi) as u32);
        }
        debug_assert_eq!(out.len(), self.len());
        out
    }
}

/// A set of elements from `{0..m-1}` in the paper's compressed 2-of-3
/// layout: `3·r` one-byte slots, four to a machine word, intersectable
/// against any other batmap built from the same [`crate::BatmapParams`]
/// by pure positional comparison.
///
/// ```
/// use batmap::{BatmapParams, Batmap};
/// use std::sync::Arc;
///
/// let params = Arc::new(BatmapParams::new(10_000, 42));
/// let a = Batmap::build(params.clone(), &[1, 2, 3, 500, 900]).batmap;
/// let b = Batmap::build(params, &[2, 3, 4, 900, 901]).batmap;
/// assert_eq!(a.intersect_count(&b), 3); // {2, 3, 900}
/// ```
#[derive(Debug, Clone)]
pub struct Batmap {
    params: ParamsHandle,
    /// Per-table range `r` (power of two, ≥ r₀).
    r: u64,
    /// The `3·r` slot bytes.
    bytes: Box<[u8]>,
    /// Number of elements stored.
    len: usize,
}

impl Batmap {
    /// Build a batmap from a slice of elements (duplicates are ignored).
    ///
    /// Returns the full [`BuildOutcome`] so callers can observe failed
    /// insertions (§III-C); use `.batmap` when failures don't matter
    /// (they are rare at `range_for`'s load ≤ 4/9).
    pub fn build(params: ParamsHandle, elements: &[u32]) -> BuildOutcome {
        builder::build(params, elements)
    }

    /// Build from elements known to be sorted and duplicate-free.
    pub fn build_sorted(params: ParamsHandle, elements: &[u32]) -> BuildOutcome {
        builder::build_sorted_dedup(params, elements)
    }

    /// Assemble from parts (crate-internal; used by the builder).
    pub(crate) fn from_raw_parts(
        params: ParamsHandle,
        r: u64,
        bytes: Box<[u8]>,
        len: usize,
    ) -> Self {
        debug_assert_eq!(bytes.len() as u64, TABLES as u64 * r);
        Batmap {
            params,
            r,
            bytes,
            len,
        }
    }

    /// The universe parameters this batmap was built from.
    pub fn params(&self) -> &ParamsHandle {
        &self.params
    }

    /// Per-table hash range `r`.
    pub fn range(&self) -> u64 {
        self.r
    }

    /// Width of the representation in bytes (`3·r`, the quantity the
    /// paper calls `|Bᵢ|`).
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

    /// The raw slot bytes (what the GPU kernel reads, 4 slots per word).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Membership test.
    ///
    /// Exact (no false positives): a slot's position plus its 7 stored
    /// key bits uniquely identify the permuted value, and the permuted
    /// value uniquely identifies the element.
    pub fn contains(&self, x: u32) -> bool {
        AsSlots::contains(self, x)
    }

    /// Enumerate the stored elements, in unspecified order (see
    /// [`AsSlots::elements`]).
    pub fn elements(&self) -> Vec<u32> {
        AsSlots::elements(self)
    }

    /// `|self ∩ other|` by positional comparison (§II / §III-A), against
    /// any storage ([`Batmap`] or an arena-backed
    /// [`crate::arena::BatmapRef`]).
    ///
    /// # Panics
    /// Panics if the two batmaps come from different universes; use
    /// [`Self::try_intersect_count`] for a fallible variant.
    pub fn intersect_count(&self, other: &impl AsSlots) -> u64 {
        self.try_intersect_count(other)
            .expect("batmaps from different universes")
    }

    /// Fallible [`Self::intersect_count`].
    pub fn try_intersect_count(&self, other: &impl AsSlots) -> Result<u64, BatmapError> {
        intersect::try_count(self, other)
    }

    /// [`Self::intersect_count`] with an explicit match-count backend,
    /// overriding the one configured on the universe parameters.
    ///
    /// # Panics
    /// Panics if the two batmaps come from different universes.
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

    /// Density of the represented set relative to the universe.
    pub fn density(&self) -> f64 {
        self.len as f64 / self.params.m() as f64
    }

    /// Bits per stored element of this representation (∞-free: returns
    /// the total width for an empty set).
    pub fn bits_per_element(&self) -> f64 {
        (self.width_bytes() * 8) as f64 / self.len.max(1) as f64
    }
}

impl AsSlots for Batmap {
    fn params(&self) -> &ParamsHandle {
        &self.params
    }
    fn range(&self) -> u64 {
        self.r
    }
    fn slot_bytes(&self) -> &[u8] {
        &self.bytes
    }
    fn len(&self) -> usize {
        self.len
    }
}

impl MemoryFootprint for Batmap {
    fn heap_bytes(&self) -> usize {
        // Params are shared across all batmaps of a universe; charge the
        // slot array only (dominant and per-set).
        self.bytes.len()
    }
}

/// Serialized form: parameters by value (re-`Arc`ed on load — sharing
/// across batmaps is a runtime optimization, not a format concern).
#[derive(serde::Serialize, serde::Deserialize)]
struct BatmapRepr {
    params: crate::params::BatmapParams,
    r: u64,
    bytes: Vec<u8>,
    len: usize,
}

impl serde::Serialize for Batmap {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        BatmapRepr {
            params: (*self.params).clone(),
            r: self.r,
            bytes: self.bytes.to_vec(),
            len: self.len,
        }
        .serialize(s)
    }
}

impl<'de> serde::Deserialize<'de> for Batmap {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let repr = BatmapRepr::deserialize(d)?;
        if !repr.r.is_power_of_two() || repr.r < repr.params.r0() {
            return Err(serde::de::Error::custom("invalid batmap range"));
        }
        if repr.bytes.len() as u64 != TABLES as u64 * repr.r {
            return Err(serde::de::Error::custom("slot array width mismatch"));
        }
        Ok(Batmap {
            params: std::sync::Arc::new(repr.params),
            r: repr.r,
            bytes: repr.bytes.into_boxed_slice(),
            len: repr.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn params(m: u64) -> ParamsHandle {
        Arc::new(BatmapParams::new(m, 0xABCD))
    }

    fn set(elements: &[u32]) -> BTreeSet<u32> {
        elements.iter().copied().collect()
    }

    #[test]
    fn membership_exact() {
        let p = params(10_000);
        let elements: Vec<u32> = (0..500u32).map(|i| i * 19 % 10_000).collect();
        let bm = Batmap::build(p, &elements).batmap;
        let s = set(&elements);
        for x in 0..10_000u32 {
            assert_eq!(bm.contains(x), s.contains(&x), "x={x}");
        }
    }

    #[test]
    fn elements_roundtrip() {
        let p = params(25_000);
        let elements: Vec<u32> = (0..1200u32).map(|i| (i * 13 + 5) % 25_000).collect();
        let bm = Batmap::build(p, &elements).batmap;
        let got = set(&bm.elements());
        assert_eq!(got, set(&elements));
    }

    #[test]
    fn empty_set() {
        let p = params(1_000);
        let bm = Batmap::build(p, &[]).batmap;
        assert!(bm.is_empty());
        assert_eq!(bm.elements(), Vec::<u32>::new());
        assert!(!bm.contains(0));
        assert_eq!(bm.width_bytes() as u64, 3 * bm.range());
    }

    #[test]
    fn intersect_same_size() {
        let p = params(50_000);
        let a: Vec<u32> = (0..2000).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..2000).map(|i| i * 3).collect();
        let expect = set(&a).intersection(&set(&b)).count() as u64;
        let ba = Batmap::build(p.clone(), &a).batmap;
        let bb = Batmap::build(p, &b).batmap;
        assert_eq!(ba.range(), bb.range());
        assert_eq!(ba.intersect_count(&bb), expect);
        assert_eq!(bb.intersect_count(&ba), expect);
    }

    #[test]
    fn intersect_different_sizes_folds() {
        let p = params(60_000);
        let small: Vec<u32> = (0..300).map(|i| i * 7).collect();
        let large: Vec<u32> = (0..9000).map(|i| i * 5).collect();
        let expect = set(&small).intersection(&set(&large)).count() as u64;
        let bs = Batmap::build(p.clone(), &small).batmap;
        let bl = Batmap::build(p, &large).batmap;
        assert!(bs.range() < bl.range());
        assert_eq!(bs.intersect_count(&bl), expect);
        assert_eq!(bl.intersect_count(&bs), expect);
    }

    #[test]
    fn intersect_with_empty_is_zero() {
        let p = params(5_000);
        let a = Batmap::build(p.clone(), &(0..100).collect::<Vec<_>>()).batmap;
        let e = Batmap::build(p, &[]).batmap;
        assert_eq!(a.intersect_count(&e), 0);
        assert_eq!(e.intersect_count(&a), 0);
        assert_eq!(e.intersect_count(&e), 0);
    }

    #[test]
    fn self_intersection_is_cardinality() {
        // Built at the paper's §III-A width (load ≤ 1/3, a size hint of
        // 2^⌈log₂ n⌉ under `range_for`), where no element fails.
        let p = params(30_000);
        let elements: Vec<u32> = (0..1234).map(|i| i * 11 % 30_000).collect();
        let mut builder =
            crate::BatmapBuilder::with_capacity(p, elements.len().next_power_of_two());
        for &x in &elements {
            builder.insert(x);
        }
        let out = builder.finish();
        assert!(out.failed.is_empty());
        let bm = out.batmap;
        assert_eq!(bm.intersect_count(&bm), set(&elements).len() as u64);
    }

    #[test]
    fn universe_mismatch_rejected() {
        let a = Batmap::build(params(1000), &[1, 2, 3]).batmap;
        let b = Batmap::build(Arc::new(BatmapParams::new(1000, 0xEEEE)), &[1, 2, 3]).batmap;
        assert!(a.try_intersect_count(&b).is_err());
    }

    #[test]
    fn width_matches_paper_formula() {
        // Sets of 2500 elements in a 50k universe occupy 3·2^⌈log₂ 3750⌉
        // = 3·2^12 bytes. Deviation 7 (ARCHITECTURE.md): the paper's
        // §IV-A sizing gives them 3·2^13 bytes.
        let p = params(50_000);
        let elements: Vec<u32> = (0..2500).collect();
        let bm = Batmap::build(p, &elements).batmap;
        assert_eq!(bm.width_bytes(), 3 * (1 << 12));
    }

    #[test]
    fn serde_roundtrip_preserves_behaviour() {
        let p = params(20_000);
        let a = Batmap::build(
            p.clone(),
            &(0..700).map(|i| i * 13 % 20_000).collect::<Vec<_>>(),
        )
        .batmap;
        let b = Batmap::build(p, &(0..300).map(|i| i * 7 % 20_000).collect::<Vec<_>>()).batmap;
        let json = serde_json::to_string(&a).unwrap();
        let restored: Batmap = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.len(), a.len());
        assert_eq!(restored.as_bytes(), a.as_bytes());
        // A restored batmap interoperates with live ones from the same
        // universe (fingerprints survive the round trip).
        assert_eq!(restored.intersect_count(&b), a.intersect_count(&b));
    }

    #[test]
    fn serde_reads_payloads_predating_kernel_field() {
        // Universes serialized before the `kernel` field existed have
        // no "kernel" key; they must still load (defaulting to Auto).
        let p = params(5_000);
        let a = Batmap::build(p, &[1, 2, 3]).batmap;
        let json = serde_json::to_string(&a).unwrap();
        let old = json.replace("\"kernel\":\"auto\",", "");
        assert!(!old.contains("kernel"), "kernel field not stripped");
        let restored: Batmap = serde_json::from_str(&old).unwrap();
        assert_eq!(
            restored.params().kernel_backend(),
            crate::kernel::KernelBackend::Auto
        );
        assert_eq!(restored.intersect_count(&a), 3);
    }

    #[test]
    fn serde_rejects_corrupt_width() {
        let p = params(5_000);
        let a = Batmap::build(p, &[1, 2, 3]).batmap;
        let mut v = serde_json::to_value(&a).unwrap();
        v["r"] = serde_json::json!(12345); // not a power of two
        assert!(serde_json::from_value::<Batmap>(v).is_err());
    }

    #[test]
    fn footprint_counts_slots() {
        let p = params(50_000);
        let bm = Batmap::build(p, &(0..100).collect::<Vec<_>>()).batmap;
        assert_eq!(bm.heap_bytes(), bm.width_bytes());
    }
}
