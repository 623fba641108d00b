//! The §III-B batmap-comparison kernel, on the `gpu-sim` substrate.
//!
//! Faithful to the paper's description:
//!
//! * all batmaps are transferred to device global memory **once**;
//! * the global size is (tile columns × tile rows), work groups 16×16;
//! * the thread with local index `(li, lj)` in the group at `(gi, gj)`
//!   handles the comparison of batmaps `B(row₀+li)` and `B(col₀+lj)` in
//!   turns of 16 integers (64 batmap elements);
//! * per turn, each of the 256 threads copies two words from global
//!   memory into two 16×16-word shared arrays (coalesced: each row of a
//!   staging array is one 64-byte aligned segment), a barrier is
//!   executed, the 16-word slices are compared branch-free, and the
//!   process repeats until all slices of the relevant batmaps are done;
//! * batmaps sorted by width mean a block's cost is set by its longest
//!   batmap; shorter ones wrap modulo their width (the §II folding),
//!   masked past their own slice count.

use crate::preprocess::Preprocessed;
use crate::schedule::Tile;
use batmap::kernel::KernelDispatch;
use batmap::params::EMPTY_SLOT;
use batmap::{KernelBackend, MatchKernel};
use gpu_sim::{dispatch, DeviceSpec, GlobalBuffer, GroupCtx, Kernel, LaunchReport, NdRange};

// Scalar ops charged per staged 32-bit comparison come from the match
// kernel itself (`MatchKernel::ops_per_staged_word`; the paper's u32
// formulation charges 8), so simulated timings reflect the backend.
/// Per-thread per-slice loop/addressing overhead in scalar ops.
const OPS_LOOP: u64 = 8;

/// Batmaps resident in (simulated) device memory.
#[derive(Debug)]
pub struct DeviceData {
    /// All uploaded batmap words, concatenated in plan order.
    pub buffer: GlobalBuffer,
    /// Word offset of each batmap in `buffer`, by plan index.
    pub offsets: Vec<u32>,
    /// 16-word slice count of each batmap, by plan index.
    pub slices: Vec<u32>,
    /// Match-count backend inherited from the preprocessed universe
    /// parameters; the comparison kernel dispatches through it.
    pub kernel: KernelBackend,
}

impl DeviceData {
    /// Pack every preprocessed batmap for upload, in sorted order: the
    /// device data of the identity plan ([`crate::TilePlan::new`]).
    pub fn upload(pre: &Preprocessed) -> Self {
        let all: Vec<u32> = (0..pre.padded_items() as u32).collect();
        Self::gather(pre, &all)
    }

    /// Pack the batmaps at sorted positions `sets` (a plan's
    /// [`crate::TilePlan::sets`]) for upload, so device index `i` holds
    /// set `sets[i]`, reading zero-copy views straight out of the arena
    /// (the host-side copy here models the host→device transfer
    /// itself). The list is padded to a multiple of 16 with one-slice
    /// empty batmaps, which match nothing.
    pub fn gather(pre: &Preprocessed, sets: &[u32]) -> Self {
        assert!(
            pre.arena.is_all_batmap(),
            "the GPU engine requires an all-batmap corpus; \
             re-preprocess with ReprPolicy::Batmap"
        );
        let n_padded = sets.len().next_multiple_of(crate::preprocess::BLOCK);
        let total_words = sets
            .iter()
            .map(|&s| pre.batmap(s as usize).width_bytes() / 4)
            .sum::<usize>()
            + (n_padded - sets.len()) * 16;
        let mut words = Vec::with_capacity(total_words);
        let mut offsets = Vec::with_capacity(n_padded);
        let mut slices = Vec::with_capacity(n_padded);
        for &s in sets {
            let bm = pre.batmap(s as usize);
            assert_eq!(
                bm.width_bytes() % 64,
                0,
                "batmap width must be slice-aligned (build with GPU_MIN_SHIFT)"
            );
            offsets.push(words.len() as u32);
            slices.push((bm.width_bytes() / 64) as u32);
            for chunk in bm.as_bytes().chunks_exact(4) {
                words.push(u32::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
        for _ in sets.len()..n_padded {
            offsets.push(words.len() as u32);
            slices.push(1);
            words.extend([u32::from_le_bytes([EMPTY_SLOT; 4]); 16]);
        }
        DeviceData {
            buffer: GlobalBuffer::new(words),
            offsets,
            slices,
            kernel: pre.params.kernel_backend(),
        }
    }

    /// One-time host→device transfer cost in seconds.
    pub fn transfer_seconds(&self, device: &DeviceSpec) -> f64 {
        self.buffer.transfer_time(device)
    }
}

/// The tile-comparison kernel, monomorphized over the match-count
/// backend so the per-word comparison inlines (no virtual call in the
/// innermost loop; same treatment as the multiway sweep).
struct CompareKernel<'a, K> {
    data: &'a DeviceData,
    tile: Tile,
    kernel: K,
}

impl<K: MatchKernel> Kernel for CompareKernel<'_, K> {
    fn shared_words(&self) -> usize {
        2 * 16 * 16 // the two 16×16 staging arrays (2 KiB)
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let g = ctx.group_id();
        let row0 = self.tile.row_base + g[1] * 16;
        let col0 = self.tile.col_base + g[0] * 16;
        let row_slices: Vec<u32> = (0..16).map(|r| self.data.slices[row0 + r]).collect();
        let col_slices: Vec<u32> = (0..16).map(|c| self.data.slices[col0 + c]).collect();
        // The block runs as long as its longest batmap (§III-C: "the
        // computation time of each such 16-block will be determined by
        // the longest of these batmaps").
        let max_slices = row_slices
            .iter()
            .chain(col_slices.iter())
            .copied()
            .max()
            .unwrap_or(0);
        let mut counts = [[0u64; 16]; 16];
        for s in 0..max_slices {
            // Stage one 16-word slice per row batmap and per column
            // batmap. Shorter batmaps wrap: slice s mod σ_b, which by
            // the block layout equals folding the positional comparison
            // modulo the smaller width.
            for r in 0..16 {
                let b = row0 + r;
                let si = s % self.data.slices[b];
                let words = ctx.load_seq(
                    &self.data.buffer,
                    (self.data.offsets[b] + si * 16) as usize,
                    16,
                );
                ctx.shared()
                    .region_mut(r * 16..r * 16 + 16)
                    .copy_from_slice(words);
            }
            for c in 0..16 {
                let b = col0 + c;
                let si = s % self.data.slices[b];
                let words = ctx.load_seq(
                    &self.data.buffer,
                    (self.data.offsets[b] + si * 16) as usize,
                    16,
                );
                ctx.shared()
                    .region_mut(256 + c * 16..256 + c * 16 + 16)
                    .copy_from_slice(words);
            }
            ctx.shared_ops(512); // 256 threads × 2 staged words
            ctx.barrier();
            // Compare: every thread pair-compares its two 16-word
            // slices; lanes past a pair's own slice count are masked
            // (the SIMD hardware executes them regardless — cost is
            // charged unconditionally, matching lockstep execution).
            for (li, rs) in row_slices.iter().enumerate() {
                for (lj, cs) in col_slices.iter().enumerate() {
                    if s < (*rs).max(*cs) {
                        let mut c = 0u32;
                        for w in 0..16 {
                            c += self.kernel.count_word_u32(
                                ctx.shared().read(li * 16 + w),
                                ctx.shared().read(256 + lj * 16 + w),
                            );
                        }
                        counts[li][lj] += c as u64;
                    }
                }
            }
            ctx.shared_ops(256 * 32); // 2 shared reads per comparison
            ctx.ops(256 * (16 * self.kernel.ops_per_staged_word() + OPS_LOOP));
            ctx.barrier();
        }
        // Write the 16×16 result block, one coalesced row at a time.
        for (li, row) in counts.iter().enumerate() {
            let out_base = (g[1] * 16 + li) * self.tile.cols + g[0] * 16;
            ctx.store_seq(out_base, row);
        }
    }
}

/// Result of running one tile on the device.
#[derive(Debug, Clone)]
pub struct TileResult {
    /// The tile geometry this result belongs to.
    pub tile: Tile,
    /// Row-major `rows × cols` pair counts.
    pub counts: Vec<u64>,
    /// Launch report (stats + simulated timing).
    pub report: LaunchReport,
}

/// Execute one tile.
pub fn run_tile(device: &DeviceSpec, data: &DeviceData, tile: Tile) -> TileResult {
    struct RunTile<'a> {
        device: &'a DeviceSpec,
        data: &'a DeviceData,
        tile: Tile,
    }
    impl KernelDispatch for RunTile<'_> {
        type Output = LaunchReport;
        fn run<K: MatchKernel>(self, kernel: K) -> LaunchReport {
            let kernel = CompareKernel {
                data: self.data,
                tile: self.tile,
                kernel,
            };
            let range = NdRange::d2([self.tile.cols, self.tile.rows], [16, 16]);
            dispatch(self.device, &kernel, range)
        }
    }
    let report = data.kernel.dispatch(RunTile { device, data, tile });
    let mut counts = vec![0u64; tile.rows * tile.cols];
    report.scatter_into(&mut counts);
    TileResult {
        tile,
        counts,
        report,
    }
}

/// Execute one tile through a [`gpu_sim::CommandQueue`] (time and
/// counters fold into the queue's totals).
pub fn run_tile_queued(
    queue: &mut gpu_sim::CommandQueue<'_>,
    data: &DeviceData,
    tile: Tile,
) -> TileResult {
    struct RunTileQueued<'a, 'q, 'd> {
        queue: &'a mut gpu_sim::CommandQueue<'q>,
        data: &'d DeviceData,
        tile: Tile,
    }
    impl KernelDispatch for RunTileQueued<'_, '_, '_> {
        type Output = LaunchReport;
        fn run<K: MatchKernel>(self, kernel: K) -> LaunchReport {
            let kernel = CompareKernel {
                data: self.data,
                tile: self.tile,
                kernel,
            };
            let range = NdRange::d2([self.tile.cols, self.tile.rows], [16, 16]);
            self.queue.enqueue_kernel(&kernel, range)
        }
    }
    let report = data.kernel.dispatch(RunTileQueued { queue, data, tile });
    let mut counts = vec![0u64; tile.rows * tile.cols];
    report.scatter_into(&mut counts);
    TileResult {
        tile,
        counts,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use fim::{TransactionDb, VerticalDb};

    fn fixture(n_items: u32, m: usize, density_mod: u32) -> (VerticalDb, Preprocessed) {
        let db = TransactionDb::new(
            n_items,
            (0..m)
                .map(|t| {
                    (0..n_items)
                        .filter(|&i| (t as u32 + i).is_multiple_of(density_mod))
                        .collect()
                })
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let pre = preprocess(&v, 7, 128);
        (v, pre)
    }

    #[test]
    fn tile_counts_match_direct_intersection() {
        let (_, pre) = fixture(20, 300, 3);
        let data = DeviceData::upload(&pre);
        let device = DeviceSpec::gtx285();
        let tile = crate::schedule::schedule(pre.padded_items(), 2048)[0];
        let result = run_tile(&device, &data, tile);
        for i in 0..pre.padded_items() {
            for j in 0..pre.padded_items() {
                let expect = pre.batmap(i).intersect_count(&pre.batmap(j));
                let got = result.counts[i * tile.cols + j];
                assert_eq!(got, expect, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn mixed_widths_fold_correctly() {
        // Items with very different supports → different batmap widths
        // inside one 16-block.
        let mut tids: Vec<Vec<u32>> = Vec::new();
        for item in 0..18u32 {
            let step = 1 + item as usize % 7;
            tids.push((0..2000u32).step_by(step * 3).collect());
        }
        let v = VerticalDb::new(2000, tids);
        let pre = preprocess(&v, 11, 128);
        let data = DeviceData::upload(&pre);
        let tile = crate::schedule::schedule(pre.padded_items(), 32)[0];
        let result = run_tile(&DeviceSpec::gtx285(), &data, tile);
        for i in 0..tile.rows {
            for j in 0..tile.cols {
                assert_eq!(
                    result.counts[i * tile.cols + j],
                    pre.batmap(i).intersect_count(&pre.batmap(j)),
                    "pair ({i},{j}) widths {} {}",
                    pre.batmap(i).width_bytes(),
                    pre.batmap(j).width_bytes()
                );
            }
        }
    }

    #[test]
    fn kernel_is_fully_coalesced() {
        let (_, pre) = fixture(16, 500, 4);
        let data = DeviceData::upload(&pre);
        let tile = crate::schedule::schedule(pre.padded_items(), 16)[0];
        let result = run_tile(&DeviceSpec::gtx285(), &data, tile);
        // Every staging load is 16 aligned words = 1 transaction of
        // 64 B, fully useful: bus efficiency must be 1 for loads; the
        // only sub-unit efficiency can come from the result stores.
        assert!(
            result.report.stats.efficiency() > 0.9,
            "efficiency {}",
            result.report.stats.efficiency()
        );
    }

    #[test]
    fn simulated_time_scales_with_width() {
        let (_, small) = fixture(16, 200, 4);
        let (_, large) = fixture(16, 3200, 4);
        let ds = DeviceData::upload(&small);
        let dl = DeviceData::upload(&large);
        let t_small = run_tile(
            &DeviceSpec::gtx285(),
            &ds,
            crate::schedule::schedule(small.padded_items(), 16)[0],
        );
        let t_large = run_tile(
            &DeviceSpec::gtx285(),
            &dl,
            crate::schedule::schedule(large.padded_items(), 16)[0],
        );
        assert!(t_large.report.seconds() > t_small.report.seconds());
    }

    #[test]
    fn traffic_matches_analytic_formula() {
        // Same-width batmaps: every group runs σ slices; each slice
        // stages 32 aligned 16-word loads = 32 transactions × 64 B.
        // The §III-B accounting must land on those numbers exactly.
        // Sets of 334 and 250 elements share one width class (r = 512).
        let tids: Vec<Vec<u32>> = (0..16)
            .map(|i| (0..1000u32).step_by(3 + i as usize % 2).collect())
            .collect();
        let v = VerticalDb::new(1000, tids);
        let pre = preprocess(&v, 3, 128);
        let widths: std::collections::BTreeSet<usize> =
            pre.arena.iter().map(|b| b.width_bytes()).collect();
        assert_eq!(widths.len(), 1, "fixture must be same-width");
        let slices = pre.batmap(0).width_bytes() as u64 / 64;
        let data = DeviceData::upload(&pre);
        let tile = crate::schedule::schedule(pre.padded_items(), 16)[0];
        let result = run_tile(&DeviceSpec::gtx285(), &data, tile);
        let groups = result.report.stats.groups;
        assert_eq!(groups, 1); // 16×16 tile = one group
                               // Loads: 32 transactions/slice; stores: 16 rows × 16 u64 lanes
                               // → 16 half-warp stores of 16 4-byte counters = 16 transactions.
        let expect_load_tx = 32 * slices;
        let store_tx = result.report.stats.transactions - expect_load_tx;
        assert_eq!(store_tx, 16, "store transactions");
        assert_eq!(
            result.report.stats.bus_bytes,
            (expect_load_tx + store_tx) * 64
        );
        assert_eq!(result.report.stats.barriers, 2 * slices);
    }

    #[test]
    fn simulated_cost_scales_with_kernel_lane_width() {
        // The simulator charges each backend its own amortized ops per
        // staged word, so a wider backend must never simulate slower on
        // identical data. Counts must be identical regardless.
        use crate::preprocess::preprocess_with;
        use batmap::{EngineOptions, KernelBackend, ReprPolicy};
        let db = TransactionDb::new(
            16,
            (0..600usize)
                .map(|t| {
                    (0..16)
                        .filter(|&i| (t + i as usize).is_multiple_of(3))
                        .collect()
                })
                .collect(),
        );
        let v = VerticalDb::from_horizontal(&db);
        let device = DeviceSpec::gtx285();
        let mut prev: Option<(f64, Vec<u64>)> = None;
        for backend in [
            KernelBackend::SwarU32,
            KernelBackend::Neon,
            KernelBackend::Avx2,
        ] {
            if !backend.is_available() {
                continue;
            }
            let pre = preprocess_with(
                &v,
                7,
                128,
                EngineOptions::auto()
                    .kernel(backend)
                    .repr(ReprPolicy::Batmap),
            );
            let data = DeviceData::upload(&pre);
            let tile = crate::schedule::schedule(pre.padded_items(), 16)[0];
            let result = run_tile(&device, &data, tile);
            let secs = result.report.seconds();
            if let Some((prev_secs, prev_counts)) = &prev {
                assert!(
                    secs <= *prev_secs,
                    "wider backend {} simulated slower: {secs} > {prev_secs}",
                    backend.name()
                );
                assert_eq!(&result.counts, prev_counts, "backend {}", backend.name());
            }
            prev = Some((secs, result.counts));
        }
    }

    #[test]
    fn transfer_time_positive() {
        let (_, pre) = fixture(16, 100, 4);
        let data = DeviceData::upload(&pre);
        assert!(data.transfer_seconds(&DeviceSpec::gtx285()) > 0.0);
    }
}
