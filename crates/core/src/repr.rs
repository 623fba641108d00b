//! Per-set storage representations and the density-based selection
//! policy behind the hybrid storage layer.
//!
//! The paper's own density analysis (Fig. 8) shows where the batmap
//! layout loses: **dense** sets are cheaper as plain uncompressed
//! bitmaps (one bit per transaction id beats `3·r ≥ 6·|S|` slot bytes
//! once `|S|` approaches `m`), and **very sparse** sets are cheaper as
//! raw sorted tidlists (the `r₀` compression floor makes the smallest
//! batmap `3·r₀` bytes — 192 bytes at the GPU shift — while a
//! three-element tidlist is 12). [`SetRepr`] names the three layouts a
//! corpus may mix, [`ReprPolicy`] is the runtime knob that decides which
//! each set gets (mirroring [`crate::kernel::KernelBackend`]'s
//! resolve/downgrade style, with the `BATMAP_REPR` environment
//! variable), and [`SetView`] is the zero-copy view the mixed
//! intersection kernels in [`crate::intersect`] consume.
//!
//! Selection thresholds (the [`ReprPolicy::Hybrid`] rule, applied per
//! set with `len = |S|`, universe size `m`, and the batmap range
//! `r = range_for(len)`):
//!
//! | chosen repr | condition | width (bytes) |
//! |---|---|---|
//! | [`SetRepr::Bitmap`] | `len·32 ≥ m` (density ≥ 1/32) | `⌈m/64⌉·8` |
//! | [`SetRepr::Tidlist`] | `4·(4·len) ≤ 3·r` (≥ 4× smaller than the batmap) | `4·len` |
//! | [`SetRepr::Batmap`] | otherwise | `3·r` |
//!
//! The tidlist rule only fires at the `r₀` floor (for `r > r₀`,
//! `3·r < 16·len` always), so it captures exactly the sparse tail the
//! floor penalizes; the bitmap rule's 1/32 cut-off is conservative —
//! the bitmap is already *smaller* than the batmap at density 1/48.
//! Counts never depend on the representation (every layout here is
//! exact), so the policy is a pure speed/space choice — which is why,
//! like the kernel backend, it is runtime data and excluded from the
//! parameter fingerprint.

use crate::arena::BatmapRef;
use crate::batmap::AsSlots;
use crate::hash::InversePerms;
use crate::params::{ParamsHandle, TABLES};
use std::fmt;
use std::sync::OnceLock;

/// Storage representation of one set inside an arena, recorded per set
/// in the directory and persisted in the snapshot format (tag values
/// are part of the format: 0 = batmap, 1 = uncompressed bitmap,
/// 2 = tidlist; WAH or other compressed layouts would extend the same
/// tag space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetRepr {
    /// The paper's 2-of-3 positional layout (`3·r` slot bytes).
    Batmap,
    /// Uncompressed bitmap over the universe: bit `x` set iff `x ∈ S`,
    /// padded to whole 64-bit words (`⌈m/64⌉·8` bytes).
    Bitmap,
    /// Sorted, duplicate-free tidlist of little-endian `u32`s
    /// (`4·len` bytes).
    Tidlist,
}

/// Number of representations (histogram arrays index by tag).
pub const REPR_COUNT: usize = 3;

impl SetRepr {
    /// Stable snapshot tag of this representation.
    pub fn tag(self) -> u64 {
        match self {
            SetRepr::Batmap => 0,
            SetRepr::Bitmap => 1,
            SetRepr::Tidlist => 2,
        }
    }

    /// Representation for a snapshot tag (`None` for tags this build
    /// does not know — the snapshot loader refuses such files).
    pub fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(SetRepr::Batmap),
            1 => Some(SetRepr::Bitmap),
            2 => Some(SetRepr::Tidlist),
            _ => None,
        }
    }

    /// Stable human-readable name (bench labels, histogram logs).
    pub fn name(self) -> &'static str {
        match self {
            SetRepr::Batmap => "batmap",
            SetRepr::Bitmap => "bitmap",
            SetRepr::Tidlist => "tidlist",
        }
    }
}

impl fmt::Display for SetRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Width in bytes of an uncompressed bitmap over universe size `m`
/// (whole 64-bit words, so the popcount-AND sweep needs no tail path).
pub fn bitmap_width_bytes(m: u64) -> usize {
    (m.div_ceil(64) * 8) as usize
}

/// Width in bytes of a tidlist of `len` elements.
pub fn tidlist_width_bytes(len: usize) -> usize {
    4 * len
}

/// Bitmap is chosen at density ≥ `1/BITMAP_DENSITY_DIV` (`len·32 ≥ m`).
pub const BITMAP_DENSITY_DIV: u64 = 32;

/// Tidlist is chosen when it is at least this many times smaller than
/// the batmap it replaces (`TIDLIST_SHRINK_MUL · 4·len ≤ 3·r`).
pub const TIDLIST_SHRINK_MUL: usize = 4;

/// Runtime storage-representation policy.
///
/// Carried by [`crate::BatmapParams`] (and the miner configuration), so
/// the choice travels with the corpus it applies to. `Auto` defers the
/// decision to [`ReprPolicy::resolve`], which honours the `BATMAP_REPR`
/// environment override and otherwise keeps the legacy pure-batmap
/// behaviour — hybrid storage is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReprPolicy {
    /// Honour the `BATMAP_REPR` environment override; absent one, keep
    /// the legacy pure-batmap behaviour.
    #[default]
    Auto,
    /// Every set is a batmap (the legacy corpus; required by the GPU
    /// engine).
    Batmap,
    /// Every set is an uncompressed bitmap (ablation/testing mode).
    Bitmap,
    /// Every set is a sorted tidlist (ablation/testing mode).
    Tidlist,
    /// Pick the cheapest representation per set by the density rule in
    /// the module docs.
    Hybrid,
}

/// The concrete (non-`Auto`) policies, for test and bench axes.
pub const ALL_REPR_POLICIES: [ReprPolicy; 4] = [
    ReprPolicy::Batmap,
    ReprPolicy::Bitmap,
    ReprPolicy::Tidlist,
    ReprPolicy::Hybrid,
];

impl ReprPolicy {
    /// Parse a policy name as used by `BATMAP_REPR` and bench labels.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(ReprPolicy::Auto),
            "batmap" => Some(ReprPolicy::Batmap),
            "bitmap" => Some(ReprPolicy::Bitmap),
            "tidlist" => Some(ReprPolicy::Tidlist),
            "hybrid" => Some(ReprPolicy::Hybrid),
            _ => None,
        }
    }

    /// Stable name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            ReprPolicy::Auto => "auto",
            ReprPolicy::Batmap => "batmap",
            ReprPolicy::Bitmap => "bitmap",
            ReprPolicy::Tidlist => "tidlist",
            ReprPolicy::Hybrid => "hybrid",
        }
    }

    /// The pure resolution rule behind [`ReprPolicy::resolve`]: map an
    /// optional `BATMAP_REPR` override string to a concrete policy.
    /// Exposed so the resolution policy is unit testable without
    /// mutating process environment.
    ///
    /// * `None` / `Some("auto")` → [`ReprPolicy::Batmap`] (the legacy
    ///   behaviour; hybrid storage is opt-in);
    /// * a valid policy name → that policy;
    /// * an invalid name → [`ReprPolicy::Batmap`], with a warning
    ///   (never abort someone else's run over an env var, but don't let
    ///   a typo silently mine the wrong experiment either).
    pub fn resolve_override(var: Option<&str>) -> ReprPolicy {
        match var.map(ReprPolicy::from_name) {
            None | Some(Some(ReprPolicy::Auto)) => ReprPolicy::Batmap,
            Some(Some(concrete)) => concrete,
            Some(None) => {
                eprintln!(
                    "warning: ignoring invalid BATMAP_REPR={} \
                     (expected auto|batmap|bitmap|tidlist|hybrid); using batmap",
                    var.unwrap_or_default()
                );
                ReprPolicy::Batmap
            }
        }
    }

    /// Resolve to a concrete policy. `Auto` consults the `BATMAP_REPR`
    /// environment variable once (cached) and otherwise stays with the
    /// legacy pure-batmap behaviour; a concrete policy resolves to
    /// itself (every representation is available on every host — unlike
    /// kernels, there is nothing to downgrade).
    pub fn resolve(self) -> ReprPolicy {
        if self != ReprPolicy::Auto {
            return self;
        }
        static AUTO: OnceLock<ReprPolicy> = OnceLock::new();
        *AUTO.get_or_init(|| ReprPolicy::resolve_override(crate::options::repr_env()))
    }

    /// The representation this policy assigns to one set of `len`
    /// elements over a universe of size `m` whose batmap range would be
    /// `range` (see the threshold table in the module docs). `Auto`
    /// resolves first.
    pub fn choose(self, len: usize, m: u64, range: u64) -> SetRepr {
        match self {
            ReprPolicy::Auto => self.resolve().choose(len, m, range),
            ReprPolicy::Batmap => SetRepr::Batmap,
            ReprPolicy::Bitmap => SetRepr::Bitmap,
            ReprPolicy::Tidlist => SetRepr::Tidlist,
            ReprPolicy::Hybrid => {
                if (len as u64).saturating_mul(BITMAP_DENSITY_DIV) >= m {
                    SetRepr::Bitmap
                } else if TIDLIST_SHRINK_MUL * tidlist_width_bytes(len)
                    <= (TABLES as u64 * range) as usize
                {
                    SetRepr::Tidlist
                } else {
                    SetRepr::Batmap
                }
            }
        }
    }
}

impl fmt::Display for ReprPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Serialized as the policy name, like the kernel backend, so stored
// universe parameters stay readable and forward-compatible.
impl serde::Serialize for ReprPolicy {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.name())
    }
}

impl<'de> serde::Deserialize<'de> for ReprPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let name = String::deserialize(d)?;
        ReprPolicy::from_name(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown repr policy `{name}`")))
    }
}

/// Zero-copy view of one uncompressed-bitmap set inside an arena.
///
/// Bit `x` of the payload is set iff `x ∈ S`; the payload is padded to
/// whole 64-bit words so the popcount-AND sweep has no tail path.
#[derive(Debug, Clone, Copy)]
pub struct BitmapRef<'a> {
    pub(crate) params: &'a ParamsHandle,
    pub(crate) bytes: &'a [u8],
    pub(crate) len: usize,
}

impl<'a> BitmapRef<'a> {
    /// The universe parameters this view's corpus shares.
    pub fn params(&self) -> &'a ParamsHandle {
        self.params
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of the representation in bytes (`⌈m/64⌉·8`).
    pub fn width_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw bitmap bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Exact membership test: one bit probe.
    pub fn contains(&self, x: u32) -> bool {
        debug_assert!((x as u64) < self.params.m());
        self.bytes[x as usize / 8] & (1 << (x % 8)) != 0
    }

    /// Visit every stored element in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for (w, chunk) in self.bytes.chunks_exact(8).enumerate() {
            let mut word = u64::from_le_bytes(chunk.try_into().unwrap());
            while word != 0 {
                let bit = word.trailing_zeros();
                f((w as u32) * 64 + bit);
                word &= word - 1;
            }
        }
    }

    /// Enumerate the stored elements, ascending.
    pub fn elements(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|x| out.push(x));
        out
    }
}

/// Zero-copy view of one sorted-tidlist set inside an arena
/// (little-endian `u32`s, ascending, duplicate-free).
#[derive(Debug, Clone, Copy)]
pub struct TidlistRef<'a> {
    pub(crate) params: &'a ParamsHandle,
    pub(crate) bytes: &'a [u8],
}

impl<'a> TidlistRef<'a> {
    /// Borrow a tidlist view over caller-owned bytes: little-endian
    /// `u32`s, ascending, duplicate-free (as produced by
    /// [`encode_tidlist_into`]). This is how ad-hoc probe sets — e.g. a
    /// query server's client-supplied element lists — enter the
    /// mixed-representation count kernels without being inserted into
    /// an arena first.
    ///
    /// # Panics
    /// Panics if `bytes` is not a whole number of `u32`s.
    pub fn from_bytes(params: &'a ParamsHandle, bytes: &'a [u8]) -> Self {
        assert_eq!(bytes.len() % 4, 0, "tidlist bytes must be 4-byte words");
        TidlistRef { params, bytes }
    }

    /// The universe parameters this view's corpus shares.
    pub fn params(&self) -> &'a ParamsHandle {
        self.params
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Width of the representation in bytes (`4·len`).
    pub fn width_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw tidlist bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Element at sorted position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.bytes[4 * i..4 * i + 4].try_into().unwrap())
    }

    /// Exact membership test: binary search.
    pub fn contains(&self, x: u32) -> bool {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&x) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Enumerate the stored elements, ascending.
    pub fn elements(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// A borrowed, typed view of one set inside an arena: the seam the
/// mixed-representation count kernels ([`crate::intersect::count_mixed`]
/// and friends) and the hybrid tile executors consume. `Copy`, at most
/// four words on the stack.
#[derive(Debug, Clone, Copy)]
pub enum SetView<'a> {
    /// The positional 2-of-3 layout.
    Batmap(BatmapRef<'a>),
    /// Uncompressed bitmap over the universe.
    Bitmap(BitmapRef<'a>),
    /// Sorted tidlist.
    Tidlist(TidlistRef<'a>),
}

impl<'a> SetView<'a> {
    /// The universe parameters this view's corpus shares.
    pub fn params(&self) -> &'a ParamsHandle {
        match self {
            SetView::Batmap(b) => b.params(),
            SetView::Bitmap(b) => b.params(),
            SetView::Tidlist(t) => t.params(),
        }
    }

    /// Which representation this set is stored in.
    pub fn repr(&self) -> SetRepr {
        match self {
            SetView::Batmap(_) => SetRepr::Batmap,
            SetView::Bitmap(_) => SetRepr::Bitmap,
            SetView::Tidlist(_) => SetRepr::Tidlist,
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            SetView::Batmap(b) => b.len(),
            SetView::Bitmap(b) => b.len(),
            SetView::Tidlist(t) => t.len(),
        }
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of the stored payload in bytes.
    pub fn width_bytes(&self) -> usize {
        match self {
            SetView::Batmap(b) => b.width_bytes(),
            SetView::Bitmap(b) => b.width_bytes(),
            SetView::Tidlist(t) => t.width_bytes(),
        }
    }

    /// Exact membership test, whatever the representation.
    pub fn contains(&self, x: u32) -> bool {
        match self {
            SetView::Batmap(b) => b.contains(x),
            SetView::Bitmap(b) => b.contains(x),
            SetView::Tidlist(t) => t.contains(x),
        }
    }

    /// Enumerate the stored elements, in unspecified order.
    pub fn elements(&self) -> Vec<u32> {
        match self {
            SetView::Batmap(b) => b.elements(),
            SetView::Bitmap(b) => b.elements(),
            SetView::Tidlist(t) => t.elements(),
        }
    }

    /// Visit every stored element once, in [`SetView::elements`]
    /// order, without allocating; a batmap's slots are inverted
    /// through `inverse`, which must come from this set's universe.
    pub fn for_each_element(&self, inverse: &InversePerms<'_>, mut f: impl FnMut(u32)) {
        match self {
            SetView::Batmap(b) => for_each_batmap_element_with(b, |t, pi| inverse.invert(t, pi), f),
            SetView::Bitmap(b) => b.for_each(f),
            SetView::Tidlist(t) => t
                .as_bytes()
                .chunks_exact(4)
                .for_each(|w| f(u32::from_le_bytes(w.try_into().unwrap()))),
        }
    }
}

/// Encode `elements` (sorted, duplicate-free) as an uncompressed bitmap
/// into `out`, which must be exactly [`bitmap_width_bytes`] long. The
/// whole window is overwritten.
pub fn encode_bitmap_into(elements: &[u32], out: &mut [u8]) {
    out.fill(0);
    for &x in elements {
        out[x as usize / 8] |= 1 << (x % 8);
    }
}

/// Encode `elements` (sorted, duplicate-free) as a little-endian
/// tidlist into `out`, which must be exactly [`tidlist_width_bytes`]
/// long. The whole window is overwritten.
pub fn encode_tidlist_into(elements: &[u32], out: &mut [u8]) {
    assert_eq!(out.len(), 4 * elements.len(), "tidlist window width");
    for (chunk, &x) in out.chunks_exact_mut(4).zip(elements) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Walk a batmap's elements without allocating: visit each stored
/// element exactly once via the indicator-bit scan (the sparser-probes-
/// denser cross-representation kernels use this to stream one operand
/// against the other's membership test).
pub(crate) fn for_each_batmap_element(b: &BatmapRef<'_>, f: impl FnMut(u32)) {
    let perms = b.params().perms();
    for_each_batmap_element_with(b, |t, pi| perms.invert(t, pi), f);
}

/// [`for_each_batmap_element`] with `πₜ⁻¹` supplied by `invert`.
fn for_each_batmap_element_with(
    b: &BatmapRef<'_>,
    invert: impl Fn(usize, u64) -> u64,
    mut f: impl FnMut(u32),
) {
    let params = b.params();
    let r = b.range();
    for (idx, &byte) in b.slot_bytes().iter().enumerate() {
        if !crate::slot::indicator(byte) {
            continue;
        }
        let t = params.table_of_slot(idx);
        let pi = params
            .decode_slot(idx, crate::slot::key(byte), r)
            .expect("live slot must decode");
        f(invert(t, pi) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatmapParams;

    #[test]
    fn tags_and_names_roundtrip() {
        for repr in [SetRepr::Batmap, SetRepr::Bitmap, SetRepr::Tidlist] {
            assert_eq!(SetRepr::from_tag(repr.tag()), Some(repr));
            assert!((repr.tag() as usize) < REPR_COUNT);
        }
        assert_eq!(SetRepr::from_tag(3), None);
        assert_eq!(SetRepr::from_tag(u64::MAX), None);
        for policy in ALL_REPR_POLICIES {
            assert_eq!(ReprPolicy::from_name(policy.name()), Some(policy));
            assert_ne!(policy, ReprPolicy::Auto);
        }
        assert_eq!(ReprPolicy::from_name("AUTO"), Some(ReprPolicy::Auto));
        assert_eq!(ReprPolicy::from_name("nope"), None);
    }

    #[test]
    fn override_resolution_policy() {
        // No override / explicit auto → the legacy pure-batmap corpus.
        assert_eq!(ReprPolicy::resolve_override(None), ReprPolicy::Batmap);
        assert_eq!(
            ReprPolicy::resolve_override(Some("auto")),
            ReprPolicy::Batmap
        );
        // Typos degrade to batmap, never panic.
        assert_eq!(
            ReprPolicy::resolve_override(Some("bogus")),
            ReprPolicy::Batmap
        );
        // Every concrete policy resolves to itself.
        for policy in ALL_REPR_POLICIES {
            assert_eq!(ReprPolicy::resolve_override(Some(policy.name())), policy);
            assert_eq!(policy.resolve(), policy);
        }
        let resolved = ReprPolicy::Auto.resolve();
        assert_ne!(resolved, ReprPolicy::Auto);
    }

    #[test]
    fn hybrid_thresholds() {
        // A GPU-shift universe: r₀ = 64, m = 2000.
        let p = BatmapParams::with_options(2000, 7, 128, 6);
        assert_eq!(p.r0(), 64);
        let choose = |len: usize| ReprPolicy::Hybrid.choose(len, p.m(), p.range_for(len));
        // Dense head: density ≥ 1/32 → bitmap.
        assert_eq!(choose(2000), SetRepr::Bitmap);
        assert_eq!(choose(63), SetRepr::Bitmap); // 63·32 = 2016 ≥ 2000

        // Sparse tail at the r₀ floor: 16·len ≤ 3·64 = 192 → len ≤ 12.
        assert_eq!(choose(0), SetRepr::Tidlist);
        assert_eq!(choose(12), SetRepr::Tidlist);
        // The middle band stays batmap.
        assert_eq!(choose(13), SetRepr::Batmap);
        assert_eq!(choose(62), SetRepr::Batmap);
        // Above the floor the tidlist rule can never fire: 3·r < 16·len.
        for len in [40usize, 100, 500] {
            let r = p.range_for(len);
            if r > p.r0() {
                assert!(3 * r < 16 * len as u64);
            }
        }
        // Forced policies ignore density.
        assert_eq!(
            ReprPolicy::Batmap.choose(2000, p.m(), p.range_for(2000)),
            SetRepr::Batmap
        );
        assert_eq!(ReprPolicy::Bitmap.choose(0, p.m(), p.r0()), SetRepr::Bitmap);
        assert_eq!(
            ReprPolicy::Tidlist.choose(2000, p.m(), p.range_for(2000)),
            SetRepr::Tidlist
        );
    }

    #[test]
    fn widths_are_word_friendly() {
        assert_eq!(bitmap_width_bytes(1), 8);
        assert_eq!(bitmap_width_bytes(64), 8);
        assert_eq!(bitmap_width_bytes(65), 16);
        assert_eq!(bitmap_width_bytes(2000), 256);
        assert_eq!(tidlist_width_bytes(0), 0);
        assert_eq!(tidlist_width_bytes(12), 48);
    }

    #[test]
    fn encoders_roundtrip_through_views() {
        use std::sync::Arc;
        let params: ParamsHandle = Arc::new(BatmapParams::new(500, 3));
        let elements: Vec<u32> = vec![0, 1, 17, 63, 64, 65, 200, 499];

        let mut bits = vec![0xFFu8; bitmap_width_bytes(500)];
        encode_bitmap_into(&elements, &mut bits);
        let bv = BitmapRef {
            params: &params,
            bytes: &bits,
            len: elements.len(),
        };
        assert_eq!(bv.elements(), elements);
        assert!(bv.contains(63) && bv.contains(64) && !bv.contains(62));

        let mut tids = vec![0u8; tidlist_width_bytes(elements.len())];
        encode_tidlist_into(&elements, &mut tids);
        let tv = TidlistRef {
            params: &params,
            bytes: &tids,
        };
        assert_eq!(tv.elements(), elements);
        for x in 0..500u32 {
            assert_eq!(tv.contains(x), elements.contains(&x), "x={x}");
        }
        assert_eq!(tv.len(), elements.len());
    }
}
