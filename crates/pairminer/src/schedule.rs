//! The k×k tiling of the all-pairs comparison (§III-C).
//!
//! Two reasons the paper splits the n×n comparison into k×k tiles
//! (`k = 2048` in their experiments):
//!
//! 1. display-watchdog limits on single kernel executions;
//! 2. symmetry — only tiles with `p ≤ q` need computing, halving work
//!    ("from n² to around (n choose 2)").

use serde::{Deserialize, Serialize};

/// One tile `Z_{p,q}` of the comparison matrix — or a row band of one.
///
/// Rows and columns are *plan indices*: index `i` stands for the set at
/// sorted position `TilePlan::sets()[i]` of the plan that scheduled the
/// tile (the identity plan, `TilePlan::new`, makes them sorted
/// positions). The CPU engine cuts each scheduled tile into row bands:
/// a band keeps the tile's `p`, `q` and column range and narrows
/// `row_base`/`rows` to a contiguous run of the tile's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tile {
    /// Block-row index `p`.
    pub p: u32,
    /// Block-column index `q` (`p ≤ q`).
    pub q: u32,
    /// First plan index of the row range.
    pub row_base: usize,
    /// First plan index of the column range.
    pub col_base: usize,
    /// Rows in this tile (a multiple of 16 for scheduled tiles; a band
    /// may hold any number).
    pub rows: usize,
    /// Columns in this tile (multiple of 16).
    pub cols: usize,
}

impl Tile {
    /// Whether this tile lies on the diagonal (needs triangular
    /// filtering when reporting).
    pub fn is_diagonal(&self) -> bool {
        self.p == self.q
    }

    /// First tile-local column reported in local row `r`: `0` off the
    /// diagonal; on a diagonal tile or band, the first cell with global
    /// column > global row (cells at or below the main diagonal are
    /// never reported). `cols` or more when the row reports nothing.
    #[inline]
    pub fn first_reported_col(&self, r: usize) -> usize {
        if self.is_diagonal() {
            (self.row_base + r + 1).saturating_sub(self.col_base)
        } else {
            0
        }
    }

    /// Number of pair comparisons this tile *reports*: the full
    /// `rows × cols` rectangle off the diagonal, but only the cells
    /// right of [`Tile::first_reported_col`] on a diagonal tile or
    /// band. This is the executor's cost model: a diagonal tile is
    /// roughly half the useful work of an off-diagonal tile of the same
    /// size.
    pub fn comparisons(&self) -> usize {
        (0..self.rows)
            .map(|r| self.cols.saturating_sub(self.first_reported_col(r)))
            .sum()
    }

    /// This tile cut into row bands of at most `height` rows, top to
    /// bottom.
    pub fn bands(&self, height: usize) -> impl Iterator<Item = Tile> + '_ {
        (0..self.rows).step_by(height.max(1)).map(move |r| Tile {
            row_base: self.row_base + r,
            rows: height.max(1).min(self.rows - r),
            ..*self
        })
    }

    /// Number of comparisons the lockstep GPU kernel *executes* in this
    /// tile: always the full `rows × cols` square (diagonal tiles
    /// compute their lower triangle too and discard it; §III-C).
    pub fn executed_comparisons(&self) -> usize {
        self.rows * self.cols
    }
}

/// Build the upper-triangle tile schedule for `n_padded` plan indices
/// (multiple of 16) with tile side `k` (multiple of 16).
pub fn schedule(n_padded: usize, k: usize) -> Vec<Tile> {
    assert!(
        k > 0 && k.is_multiple_of(16),
        "tile side must be a positive multiple of 16"
    );
    assert!(
        n_padded.is_multiple_of(16),
        "item count must be padded to a multiple of 16"
    );
    let blocks = n_padded.div_ceil(k);
    let mut tiles = Vec::with_capacity(blocks * (blocks + 1) / 2);
    for p in 0..blocks {
        let row_base = p * k;
        let rows = k.min(n_padded - row_base);
        for q in p..blocks {
            let col_base = q * k;
            let cols = k.min(n_padded - col_base);
            tiles.push(Tile {
                p: p as u32,
                q: q as u32,
                row_base,
                col_base,
                rows,
                cols,
            });
        }
    }
    tiles
}

/// Total *reported* comparisons across a schedule — exactly the
/// "(n choose 2)" count the symmetry optimization achieves (diagonal
/// tiles contribute their strict upper triangle only).
pub fn total_comparisons(tiles: &[Tile]) -> usize {
    tiles.iter().map(Tile::comparisons).sum()
}

/// Total comparisons the lockstep kernel *executes* across a schedule
/// (diagonal tiles compute their full square; the report filters — the
/// "around (n choose 2)" framing of §III-C).
pub fn total_executed_comparisons(tiles: &[Tile]) -> usize {
    tiles.iter().map(Tile::executed_comparisons).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_upper_triangle_exactly_once() {
        let n = 96;
        let k = 32;
        let tiles = schedule(n, k);
        let mut covered = vec![vec![false; n]; n];
        #[allow(clippy::needless_range_loop)]
        for t in &tiles {
            for i in t.row_base..t.row_base + t.rows {
                for j in t.col_base..t.col_base + t.cols {
                    assert!(!covered[i][j], "tile overlap at ({i},{j})");
                    covered[i][j] = true;
                }
            }
        }
        for (i, row) in covered.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                // Every unordered pair must be covered in at least one
                // orientation; ordered (i<j) pairs always via p ≤ q.
                if i / k <= j / k {
                    assert!(c, "({i},{j}) uncovered");
                } else {
                    assert!(!c);
                }
            }
        }
    }

    #[test]
    fn halves_the_work() {
        let n = 4096;
        let k = 2048;
        let tiles = schedule(n, k);
        assert_eq!(tiles.len(), 3); // (0,0) (0,1) (1,1)
                                    // Executed: 3·k² vs n² = 4·k² (the diagonal surplus is the k²
                                    // overlap); reported: exactly (n choose 2).
        assert_eq!(total_executed_comparisons(&tiles), 3 * k * k);
        let total = total_comparisons(&tiles);
        assert_eq!(total, n * (n - 1) / 2);
        assert!(total < total_executed_comparisons(&tiles));
    }

    #[test]
    fn reported_comparisons_are_exactly_n_choose_2() {
        for (n, k) in [(96usize, 32usize), (80, 16), (64, 64), (4096, 2048)] {
            let tiles = schedule(n, k);
            assert_eq!(total_comparisons(&tiles), n * (n - 1) / 2, "n={n} k={k}");
        }
    }

    #[test]
    fn diagonal_tiles_report_strict_upper_triangle() {
        let t = schedule(64, 64)[0];
        assert!(t.is_diagonal());
        assert_eq!(t.comparisons(), 64 * 63 / 2);
        assert_eq!(t.executed_comparisons(), 64 * 64);
        let off = schedule(128, 64)[1];
        assert!(!off.is_diagonal());
        assert_eq!(off.comparisons(), off.executed_comparisons());
    }

    #[test]
    fn bands_partition_rows_and_comparisons() {
        for tile in schedule(80, 32) {
            for height in [1usize, 5, 16, 64] {
                let bands: Vec<Tile> = tile.bands(height).collect();
                let mut next = tile.row_base;
                for b in &bands {
                    assert_eq!(
                        (b.p, b.q, b.col_base, b.cols),
                        (tile.p, tile.q, tile.col_base, tile.cols)
                    );
                    assert_eq!(b.row_base, next, "bands are contiguous");
                    assert!(b.rows >= 1 && b.rows <= height);
                    next += b.rows;
                }
                assert_eq!(next, tile.row_base + tile.rows, "bands cover the tile");
                assert_eq!(
                    bands.iter().map(Tile::comparisons).sum::<usize>(),
                    tile.comparisons(),
                    "tile ({},{}) height {height}",
                    tile.p,
                    tile.q
                );
            }
        }
    }

    #[test]
    fn ragged_final_block() {
        let tiles = schedule(80, 32);
        // blocks of 32,32,16.
        assert_eq!(tiles.len(), 6);
        let last = tiles.last().unwrap();
        assert_eq!(last.rows, 16);
        assert_eq!(last.cols, 16);
        assert!(tiles.iter().all(|t| t.rows % 16 == 0 && t.cols % 16 == 0));
    }

    #[test]
    fn single_tile_when_k_exceeds_n() {
        let tiles = schedule(64, 2048);
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].rows, 64);
        assert!(tiles[0].is_diagonal());
    }

    #[test]
    #[should_panic]
    fn unaligned_k_rejected() {
        let _ = schedule(64, 20);
    }
}
