//! CPU execution of the batmap comparisons.
//!
//! The same tile schedule as the GPU path, executed for real on host
//! cores — this is the "running the algorithm on the 8 CPU cores on our
//! system" comparison (§IV-A finds the GPU ~5× faster) and the
//! measurement engine behind Fig. 11.
//!
//! The CPU engine's one unit of work is a row band of a tile
//! ([`run_band`], swept in L2-sized column blocks); [`run_tile_cpu`]
//! sweeps a whole tile's full square as the GPU-parity reference. Both
//! count over typed arena views through the row primitives of
//! [`batmap::intersect`], so a pure-batmap corpus and a hybrid one take
//! the same code path. [`run_tile_cpu`] runs each row through
//! [`intersect::count_mixed_one_vs_many_into`], which batches
//! equal-width batmap candidates. [`run_band`] runs its rows through
//! [`intersect::BandColumns`]: the same row driver, except that a
//! bitmap row bit-tests each batmap column's elements, decoded once per
//! band instead of once per bitmap row.

use crate::preprocess::Preprocessed;
use crate::schedule::Tile;
use batmap::intersect;
use batmap::KernelBackend;
use rayon::prelude::*;

/// Counts for one tile of the identity plan (rows and columns are
/// sorted positions) computed on the CPU: row-major `rows × cols`,
/// identical layout to the GPU path (diagonal tiles compute their full
/// square, exactly as the lockstep kernel does — this is the
/// GPU-parity reference; the mining executor uses [`run_band`]).
///
/// All row/column operands are zero-copy typed views into the
/// preprocessed arena — the column block is materialized once per tile
/// (a `Vec` of few-word views), never the payload bytes themselves —
/// and every row runs through the one row driver,
/// [`intersect::count_mixed_one_vs_many_into`], whatever mix of
/// representations the corpus holds.
pub fn run_tile_cpu(pre: &Preprocessed, tile: &Tile) -> Vec<u64> {
    let mut counts = vec![0u64; tile.rows * tile.cols];
    let cols = pre
        .arena
        .payload_views(tile.col_base..tile.col_base + tile.cols);
    counts
        .par_chunks_mut(tile.cols)
        .enumerate()
        .for_each(|(r, row_out)| {
            let a = pre.payload(tile.row_base + r);
            intersect::count_mixed_one_vs_many_into(&a, &cols, row_out);
        });
    counts
}

/// Candidate payload one column block of a band may hold: 384 KiB, or
/// 256 sets of 1,536 bytes. Every row of the band sweeps a block before
/// the next block starts, so the block is read from L2 rather than from
/// L3 once per row.
const BLOCK_BYTES: usize = 384 << 10;

/// Sweep one row band of a tile, sequentially, into `counts` (resized
/// to the band's row-major `rows × cols`, so one buffer serves every
/// band a worker runs).
///
/// The band is in plan indices: plan index `i` is the set at sorted
/// position `sets[i]` (the plan's [`crate::TilePlan::sets`]), and rows
/// and columns past `sets.len()` are padding, never swept. On a
/// diagonal band only the cells with global column > global row are
/// computed (the §III-C symmetry saving, applied *inside* the tile);
/// the rest keep whatever the buffer held. The columns are swept in
/// blocks of at most `BLOCK_BYTES` of payload (at least one column
/// each), every row of the band in turn, so a block stays in L2 while
/// the band's rows pass over it; a tile of small sets is one block. The
/// backend is dispatched once per row and block. The band's columns sit
/// in one [`intersect::BandColumns`], so a batmap column is decoded at
/// most once for all the bitmap rows of the band, and its decoded
/// elements are freed with the band.
pub fn run_band(pre: &Preprocessed, sets: &[u32], band: &Tile, counts: &mut Vec<u64>) {
    run_band_blocked(pre, sets, band, counts, BLOCK_BYTES);
}

/// [`run_band`] with the column-block budget as a parameter, so tests
/// can force a band into many blocks.
fn run_band_blocked(
    pre: &Preprocessed,
    sets: &[u32],
    band: &Tile,
    counts: &mut Vec<u64>,
    block_bytes: usize,
) {
    counts.resize(band.rows * band.cols, 0);
    let col_end = (band.col_base + band.cols).min(sets.len());
    let cols: Vec<_> = sets[band.col_base..col_end]
        .iter()
        .map(|&s| pre.payload(s as usize))
        .collect();
    let rows: Vec<_> = sets[band.row_base.min(sets.len())..]
        .iter()
        .take(band.rows)
        .map(|&s| pre.payload(s as usize))
        .collect();
    let mut band_cols = intersect::BandColumns::new(&cols);
    // Rows' first reported columns only grow down the band.
    let mut start = band.first_reported_col(0);
    while start < cols.len() {
        let mut end = start + 1;
        let mut bytes = cols[start].width_bytes();
        while end < cols.len() && bytes + cols[end].width_bytes() <= block_bytes {
            bytes += cols[end].width_bytes();
            end += 1;
        }
        for (r, (a, row_out)) in rows.iter().zip(counts.chunks_mut(band.cols)).enumerate() {
            let first = band.first_reported_col(r).max(start);
            if first < end {
                band_cols.count_row_into(a, first..end, &mut row_out[first..end]);
            }
        }
        start = end;
    }
}

/// The Fig. 11 micro-measurement with the paper's u32 SWAR backend:
/// see [`swar_throughput_with`].
pub fn swar_throughput(words: usize, reps: usize) -> f64 {
    swar_throughput_with(KernelBackend::SwarU32, words, reps)
}

/// The Fig. 11 micro-measurement: positional comparison of two slot
/// arrays of `words` 32-bit words (four slots each), repeated `reps`
/// times, partitioned across the current rayon pool, dispatched through
/// the given match-count backend. Returns the total number of bytes
/// processed per second of wall time (both arrays count, as in the
/// paper's "size 20 Mbyte" = 2 × 10 MB framing).
///
/// Call inside `hpcutil::scoped_pool(cores, …)` to pin the core count.
pub fn swar_throughput_with(backend: KernelBackend, words: usize, reps: usize) -> f64 {
    // Fill with a pattern that produces some matches (content does not
    // affect timing — the SWAR kernels are branch-free — but keep it
    // honest).
    let a: Vec<u8> = (0..words)
        .flat_map(|i| (i as u32).wrapping_mul(2654435761).to_le_bytes())
        .collect();
    let b: Vec<u8> = (0..words)
        .flat_map(|i| {
            if i % 3 == 0 {
                (i as u32).wrapping_mul(2654435761).to_le_bytes()
            } else {
                (i as u32).wrapping_mul(40503).to_le_bytes()
            }
        })
        .collect();
    let kernel = backend.kernel();
    let threads = rayon::current_num_threads();
    // Per-thread chunk, kept register-aligned for the widest kernel
    // (32-byte AVX2 lanes) so no chunk boundary pushes bytes through
    // the tail path inside the timed loop.
    let chunk = (a.len().div_ceil(threads)).next_multiple_of(32);
    let t0 = std::time::Instant::now();
    let mut total = 0u64;
    for _ in 0..reps {
        total += a
            .par_chunks(chunk)
            .zip(b.par_chunks(chunk))
            .map(|(ca, cb)| kernel.count_equal_width(ca, cb))
            .sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(total);
    (words as f64 * 4.0 * 2.0 * reps as f64) / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{run_tile, DeviceData};
    use crate::preprocess::preprocess;
    use crate::schedule::schedule;
    use fim::{TransactionDb, VerticalDb};
    use gpu_sim::DeviceSpec;

    #[test]
    fn cpu_and_gpu_tiles_agree() {
        let db = TransactionDb::new(
            24,
            (0..400usize)
                .map(|t| {
                    (0..24)
                        .filter(|&i| (t + i as usize).is_multiple_of(5))
                        .collect()
                })
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess(&v, 13, 128);
        let data = DeviceData::upload(&pre);
        for tile in schedule(pre.padded_items(), 16) {
            let gpu = run_tile(&DeviceSpec::gtx285(), &data, tile);
            let cpu = run_tile_cpu(&pre, &tile);
            assert_eq!(gpu.counts, cpu, "tile ({},{})", tile.p, tile.q);
        }
    }

    /// Sweep every `k`-tile of `pre` band by band, at several band
    /// heights and column-block budgets, through one reused buffer,
    /// and check each useful cell (global column > global row on a
    /// diagonal tile) against the full-square sweep, itself checked
    /// against the element-wise [`oracle`]. The budgets give one column
    /// per block, blocks of about three columns (so a diagonal row's
    /// first reported column falls inside a block, or past a whole
    /// block), and the production budget (one block per band here).
    /// The buffer is poisoned before each band, so a cell the band
    /// must not report has to come back untouched.
    fn check_bands_against_full_square(pre: &Preprocessed, k: usize) {
        const POISON: u64 = u64::MAX;
        let mut counts = Vec::new();
        let sets: Vec<u32> = (0..pre.padded_items() as u32).collect();
        let widest = (0..pre.padded_items())
            .map(|s| pre.payload(s).width_bytes())
            .max()
            .unwrap();
        for tile in schedule(pre.padded_items(), k) {
            let full = run_tile_cpu(pre, &tile);
            for r in 0..tile.rows {
                for c in 0..tile.cols {
                    let (gi, gj) = (tile.row_base + r, tile.col_base + c);
                    assert_eq!(
                        full[r * tile.cols + c],
                        oracle(pre, gi, gj),
                        "full cell ({gi},{gj})"
                    );
                }
            }
            for budget in [0, 3 * widest, BLOCK_BYTES] {
                for height in [1usize, 5, 64] {
                    for band in tile.bands(height) {
                        counts.clear();
                        counts.resize(band.rows * band.cols, POISON);
                        run_band_blocked(pre, &sets, &band, &mut counts, budget);
                        assert_eq!(counts.len(), band.rows * band.cols);
                        for r in 0..band.rows {
                            let gi = band.row_base + r;
                            for c in 0..band.cols {
                                let gj = band.col_base + c;
                                let cell = counts[r * band.cols + c];
                                if !band.is_diagonal() || gj > gi {
                                    assert_eq!(
                                        cell,
                                        full[(gi - tile.row_base) * tile.cols + c],
                                        "band cell ({gi},{gj}), budget {budget}, height {height}"
                                    );
                                } else {
                                    assert_eq!(cell, POISON, "unreported cell ({gi},{gj}) written");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Reference count of two sets of the corpus, from their elements.
    fn oracle(pre: &Preprocessed, a: usize, b: usize) -> u64 {
        let mut ea = pre.payload(a).elements();
        ea.sort_unstable();
        pre.payload(b)
            .elements()
            .iter()
            .filter(|x| ea.binary_search(x).is_ok())
            .count() as u64
    }

    #[test]
    fn triangular_tile_runners_agree_with_full_square() {
        let db = TransactionDb::new(
            20,
            (0..300usize)
                .map(|t| {
                    (0..20)
                        .filter(|&i| (t + i as usize).is_multiple_of(4))
                        .collect()
                })
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess(&v, 5, 128);
        check_bands_against_full_square(&pre, 16);
    }

    #[test]
    fn throughput_is_positive_and_scales_sanely() {
        let rate = hpcutil::scoped_pool(2, || swar_throughput(1 << 16, 4));
        assert!(rate > 1e6, "implausibly low rate {rate}");
    }

    #[test]
    fn hybrid_tile_runners_agree_and_match_oracle() {
        use crate::preprocess::preprocess_with;
        use batmap::{EngineOptions, ReprPolicy, SetRepr, SetView};
        // Skewed density so the hybrid policy genuinely mixes layouts.
        let db = TransactionDb::new(
            12,
            (0..800u32)
                .map(|t| {
                    (0..12u32)
                        .filter(|&i| match i {
                            0 => true,
                            1..=3 => t % 50 == i,
                            _ => t % 211 == i % 7,
                        })
                        .collect()
                })
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess_with(&v, 5, 128, EngineOptions::auto().repr(ReprPolicy::Hybrid));
        // Tidlist and bitmap rows must meet batmap columns: sets are
        // width-sorted, so a sparse set before a batmap is such a pair.
        let first_batmap = (0..pre.n_items as usize)
            .find(|&i| matches!(pre.payload(i), SetView::Batmap(_)))
            .expect("fixture must hold batmaps");
        for repr in [SetRepr::Tidlist, SetRepr::Bitmap] {
            assert!(
                (0..first_batmap).any(|i| pre.payload(i).repr() == repr),
                "fixture must hold a {} row left of a batmap",
                repr.name()
            );
        }
        check_bands_against_full_square(&pre, 16);
    }

    /// A seeded hybrid corpus of `items` items over `m` transactions:
    /// each item draws a density from dense (a bitmap) through middling
    /// (a batmap) to sparse (a tidlist), so the hybrid policy mixes all
    /// three.
    fn random_hybrid_db(seed: u64, items: u32, m: usize) -> TransactionDb {
        const DENSITIES: [f64; 6] = [0.3, 0.08, 0.045, 0.025, 0.02, 0.008];
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let density: Vec<f64> = (0..items)
            .map(|_| DENSITIES[(next() * DENSITIES.len() as f64) as usize % DENSITIES.len()])
            .collect();
        let txns = (0..m)
            .map(|_| {
                (0..items)
                    .filter(|&i| next() < density[i as usize])
                    .collect()
            })
            .collect();
        TransactionDb::new(items, txns)
    }

    #[test]
    fn bitmap_rows_meet_batmap_columns_exactly() {
        use crate::preprocess::preprocess_with;
        use batmap::{EngineOptions, ReprPolicy, SetRepr};
        for seed in 0..3u64 {
            let db = random_hybrid_db(seed, 40 + 10 * seed as u32, 900);
            let v = VerticalDb::from_horizontal(&db);
            for max_loop in [1, 128] {
                let pre = preprocess_with(
                    &v,
                    seed,
                    max_loop,
                    EngineOptions::auto().repr(ReprPolicy::Hybrid),
                );
                // Some 64-row band must hold a bitmap row left of a
                // batmap column it reports: sets are width-sorted, and
                // at m = 900 a bitmap (120 B) is narrower than any
                // batmap (≥ 192 B).
                let repr = |s: usize| pre.payload(s).repr();
                assert!(
                    schedule(pre.padded_items(), 64).iter().any(|tile| {
                        (0..tile.rows).any(|r| {
                            let gi = tile.row_base + r;
                            repr(gi) == SetRepr::Bitmap
                                && (tile.first_reported_col(r)..tile.cols)
                                    .any(|c| repr(tile.col_base + c) == SetRepr::Batmap)
                        })
                    }),
                    "seed {seed}: no band meets a bitmap row with a batmap column"
                );
                if max_loop == 1 {
                    assert!(!pre.failed.is_empty(), "MaxLoop 1 must force failures");
                }
                check_bands_against_full_square(&pre, 64);
            }
        }
    }
}
