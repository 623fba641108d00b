//! Multicore CPU execution of the batmap comparisons.
//!
//! The same tile schedule as the GPU path, executed for real on host
//! cores with rayon — this is the "running the algorithm on the 8 CPU
//! cores on our system" comparison (§IV-A finds the GPU ~5× faster) and
//! the measurement engine behind Fig. 11.
//!
//! Every tile runner sweeps its rows through one primitive,
//! [`intersect::count_mixed_one_vs_many_into`], over typed arena views:
//! a pure-batmap corpus and a hybrid one take the same code path, and
//! the driver itself batches equal-width batmap candidates.

use crate::preprocess::Preprocessed;
use crate::schedule::Tile;
use batmap::intersect;
use batmap::{KernelBackend, SetView};
use rayon::prelude::*;

/// Counts for one tile computed on the CPU: row-major `rows × cols`,
/// identical layout to the GPU path (diagonal tiles compute their full
/// square, exactly as the lockstep kernel does — this is the
/// GPU-parity reference; the mining executors use the triangular
/// variants below).
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

/// First tile-local column a row of this tile actually reports: `0` off
/// the diagonal, `r + 1` on a diagonal tile (cells at or below the main
/// diagonal are never reported, so the CPU engines skip computing
/// them — the §III-C symmetry saving, applied *inside* the tile).
#[inline]
fn first_useful_col(tile: &Tile, r: usize) -> usize {
    if tile.is_diagonal() {
        r + 1
    } else {
        0
    }
}

/// One row of tile counts, written into `row_out` (length `tile.cols`),
/// skipping the at-or-below-diagonal cells.
///
/// Routes through the row driver
/// ([`intersect::count_mixed_one_vs_many_into`]): the backend is
/// dispatched once for the whole row, and a batmap row's words stay hot
/// in registers/L1 while each equal-width candidate block is swept.
/// `cols` is the tile's column block of arena views, shared across
/// rows.
#[inline]
fn fill_row(pre: &Preprocessed, cols: &[SetView<'_>], tile: &Tile, r: usize, row_out: &mut [u64]) {
    let a = pre.payload(tile.row_base + r);
    let first = first_useful_col(tile, r);
    if first >= tile.cols {
        return; // last row of a diagonal tile reports nothing
    }
    intersect::count_mixed_one_vs_many_into(&a, &cols[first..], &mut row_out[first..]);
}

/// Strictly sequential tile counts (no worker threads): row-major
/// `rows × cols`, with the skipped at-or-below-diagonal cells of a
/// diagonal tile left at zero. This is the serial baseline of the
/// speedup story and the oracle of the parallel-equivalence tests.
pub fn run_tile_cpu_serial(pre: &Preprocessed, tile: &Tile) -> Vec<u64> {
    let mut counts = vec![0u64; tile.rows * tile.cols];
    let cols = pre
        .arena
        .payload_views(tile.col_base..tile.col_base + tile.cols);
    for (r, row_out) in counts.chunks_mut(tile.cols).enumerate() {
        fill_row(pre, &cols, tile, r, row_out);
    }
    counts
}

/// Row-parallel tile counts with the same triangular skip as
/// [`run_tile_cpu_serial`]: used by the parallel engine when a plan has
/// fewer tiles than workers, so parallelism comes from inside the tile.
pub fn run_tile_cpu_rows(pre: &Preprocessed, tile: &Tile) -> Vec<u64> {
    let mut counts = vec![0u64; tile.rows * tile.cols];
    let cols = pre
        .arena
        .payload_views(tile.col_base..tile.col_base + tile.cols);
    counts
        .par_chunks_mut(tile.cols)
        .enumerate()
        .for_each(|(r, row_out)| fill_row(pre, &cols, tile, r, row_out));
    counts
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
        for tile in schedule(pre.padded_items(), 16) {
            let full = run_tile_cpu(&pre, &tile);
            let serial = run_tile_cpu_serial(&pre, &tile);
            let rows = run_tile_cpu_rows(&pre, &tile);
            assert_eq!(serial, rows, "tile ({},{})", tile.p, tile.q);
            for r in 0..tile.rows {
                for c in 0..tile.cols {
                    let i = r * tile.cols + c;
                    if tile.is_diagonal() && c <= r {
                        assert_eq!(serial[i], 0, "skipped cell must stay zero");
                    } else {
                        assert_eq!(serial[i], full[i], "useful cell ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_is_positive_and_scales_sanely() {
        let rate = hpcutil::scoped_pool(2, || swar_throughput(1 << 16, 4));
        assert!(rate > 1e6, "implausibly low rate {rate}");
    }

    #[test]
    fn hybrid_tile_runners_agree_and_match_oracle() {
        use crate::preprocess::preprocess_with;
        use batmap::{EngineOptions, ReprPolicy};
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
        assert!(
            (0..pre.arena.len()).any(|i| !matches!(pre.payload(i), SetView::Batmap(_))),
            "fixture must be hybrid"
        );
        let oracle = |a: usize, b: usize| -> u64 {
            let mut ea = pre.payload(a).elements();
            ea.sort_unstable();
            pre.payload(b)
                .elements()
                .iter()
                .filter(|x| ea.binary_search(x).is_ok())
                .count() as u64
        };
        for tile in schedule(pre.padded_items(), 16) {
            let full = run_tile_cpu(&pre, &tile);
            let serial = run_tile_cpu_serial(&pre, &tile);
            let rows = run_tile_cpu_rows(&pre, &tile);
            assert_eq!(serial, rows, "tile ({},{})", tile.p, tile.q);
            for r in 0..tile.rows {
                for c in 0..tile.cols {
                    let i = r * tile.cols + c;
                    let expect = oracle(tile.row_base + r, tile.col_base + c);
                    assert_eq!(full[i], expect, "full cell ({r},{c})");
                    if tile.is_diagonal() && c <= r {
                        assert_eq!(serial[i], 0, "skipped cell must stay zero");
                    } else {
                        assert_eq!(serial[i], expect, "useful cell ({r},{c})");
                    }
                }
            }
        }
    }
}
