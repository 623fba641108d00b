//! Backend-agnostic tile execution — the one scheduler both mining
//! engines share.
//!
//! [`TilePlan`] wraps the §III-C k×k upper-triangle schedule over a
//! list of the corpus' sets with its cost model (the miner lists only
//! the sets whose support reaches `minsup`); a [`TileExecutor`] walks
//! the plan and feeds row-major counts to [`TileConsumer`]s. Two
//! executors implement the seam:
//!
//! * [`ParallelCpuExecutor`] — host execution on 1..N workers, one code
//!   path for every worker count. Its unit of work is a *row band* of a
//!   tile ([`TilePlan::bands`]): bands are balanced across workers by
//!   reported-comparison cost (longest processing time first — the
//!   vendored rayon shim splits work statically, with no stealing), and
//!   each worker sweeps its bands one by one into a single reused count
//!   buffer, hands each to its own consumer, and the consumers are
//!   merged at the end. Diagonal bands skip their at-or-below-diagonal
//!   cells entirely (the §III-C symmetry saving, applied inside the
//!   tile). [`Parallelism::Serial`] runs the same body on the calling
//!   thread;
//! * [`GpuSimExecutor`] — the §III-B kernel on the `gpu-sim` substrate
//!   (simulated device timing; whole tiles, and diagonal tiles execute
//!   their full square in lockstep, as real SIMD hardware would).
//!
//! The contract consumers rely on: every cell of the plan is consumed
//! exactly once, in one call per band (CPU) or per tile (GPU); on a
//! diagonal block only cells with global column > global row carry
//! meaningful counts, and cells in a padding row or column (plan index
//! at or past `TilePlan::sets().len()`) are unspecified too.
//!
//! The CPU band runner (`pairminer::cpu::run_band`) cuts the band's
//! columns into L2-sized blocks and feeds each row, block by block,
//! through the band's column set (`batmap::intersect::BandColumns`),
//! whose rows run the one-vs-many row driver
//! (`batmap::intersect::count_mixed_one_vs_many_into`): the match-count
//! backend is dispatched once per row and block, a batmap row stays hot
//! in registers/L1 across the column block, and equal-width batmap columns
//! (common — preprocessing sorts sets by width) take the kernels'
//! register-blocked sweep. A bitmap row instead bit-tests each batmap
//! column's elements, decoded once per band and freed with it. All operands are zero-copy typed `SetView`s
//! (batmap / bitmap / tidlist) into the preprocessed corpus's
//! contiguous `BatmapArena`, whether the corpus is pure batmap or
//! hybrid (width-sorted sets sit width-adjacent in one buffer, so a
//! band walk streams linearly instead of chasing per-set boxes).

use crate::cpu;
use crate::gpu::{self, DeviceData};
use crate::preprocess::Preprocessed;
use crate::schedule::{schedule, Tile};
use batmap::Parallelism;
use gpu_sim::{DeviceSpec, KernelStats};
use hpcutil::Stopwatch;
use rayon::prelude::*;

/// A tile schedule over a list of the corpus' sets, plus its cost
/// model.
///
/// Tiles are laid out in *plan indices*: plan index `i` is the set at
/// sorted position [`TilePlan::sets`]`[i]`, and the indices from
/// `sets().len()` up to [`TilePlan::n_padded`] are padding, which no
/// consumer reports. The identity plan ([`TilePlan::new`]) lists every
/// padded position of the corpus; the miner plans only the sets whose
/// support reaches `minsup` ([`TilePlan::over`]), so an infrequent item
/// is never swept.
#[derive(Debug, Clone)]
pub struct TilePlan {
    sets: Vec<u32>,
    k: usize,
    tiles: Vec<Tile>,
}

impl TilePlan {
    /// The identity plan: the k×k upper-triangle schedule over all
    /// `n_padded` sorted positions (a multiple of 16) with tile side `k`
    /// (a multiple of 16).
    pub fn new(n_padded: usize, k: usize) -> Self {
        assert!(
            n_padded.is_multiple_of(16),
            "item count must be padded to a multiple of 16"
        );
        Self::over((0..n_padded as u32).collect(), k)
    }

    /// Plan the schedule over the given sorted positions (strictly
    /// ascending), padded to a multiple of 16 plan indices, with tile
    /// side `k` (a multiple of 16).
    pub fn over(sets: Vec<u32>, k: usize) -> Self {
        debug_assert!(sets.windows(2).all(|w| w[0] < w[1]), "ascending positions");
        TilePlan {
            tiles: schedule(sets.len().next_multiple_of(crate::preprocess::BLOCK), k),
            sets,
            k,
        }
    }

    /// The miner's plan over `pre`: the sorted positions whose support
    /// (stored elements plus failed insertions) reaches `minsup`. A
    /// pair is never more frequent than either of its items (Apriori's
    /// anti-monotone property), so an infrequent item joins no reported
    /// pair and is never swept. At `minsup ≤ 1` this is the identity
    /// plan over every padded position.
    pub fn for_minsup(pre: &Preprocessed, minsup: u64, k: usize) -> Self {
        if minsup <= 1 {
            return Self::new(pre.padded_items(), k);
        }
        let frequent = (0..pre.n_items)
            .filter(|&s| {
                let s = s as usize;
                (pre.payload(s).len() + pre.failed_for(s).len()) as u64 >= minsup
            })
            .collect();
        Self::over(frequent, k)
    }

    /// The planned sets' sorted positions, by plan index (ascending).
    pub fn sets(&self) -> &[u32] {
        &self.sets
    }

    /// Tile side `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Plan indices the tiles cover: [`TilePlan::sets`] padded to a
    /// multiple of 16.
    pub fn n_padded(&self) -> usize {
        self.sets.len().next_multiple_of(crate::preprocess::BLOCK)
    }

    /// The scheduled tiles, in `(p, q)` row-major order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Total *reported* pair comparisons — diagonal tiles count their
    /// strict upper triangle only (exactly "([`TilePlan::n_padded`]
    /// choose 2)").
    pub fn reported_comparisons(&self) -> usize {
        crate::schedule::total_comparisons(&self.tiles)
    }

    /// Total comparisons a lockstep kernel *executes* (diagonal tiles
    /// compute their full square).
    pub fn executed_comparisons(&self) -> usize {
        crate::schedule::total_executed_comparisons(&self.tiles)
    }

    /// The CPU engine's work units for `workers` workers: every tile
    /// cut into row bands ([`Tile::bands`]), in plan order. The band
    /// height, `⌈Σ tile rows / (2·workers)⌉` clamped to `1..=64`, aims
    /// at two or more bands per worker to balance while capping a
    /// worker's count buffer at `64 × k` counts (1 MiB at k = 2048).
    pub fn bands(&self, workers: usize) -> Vec<Tile> {
        let rows: usize = self.tiles.iter().map(|t| t.rows).sum();
        let height = rows.div_ceil(2 * workers.max(1)).clamp(1, MAX_BAND_ROWS);
        self.tiles.iter().flat_map(|t| t.bands(height)).collect()
    }
}

/// Most rows in one CPU band (see [`TilePlan::bands`]).
const MAX_BAND_ROWS: usize = 64;

/// Partition `items` into at most `workers` cost-balanced buckets by
/// the longest-processing-time greedy rule: heaviest item first (input
/// order breaks ties, so the result is deterministic), always into the
/// currently lightest bucket. Buckets are never empty unless there are
/// fewer items than workers.
///
/// This is the work-partitioning rule every parallel phase of the
/// mining engines shares: [`ParallelCpuExecutor`] applies it to row
/// bands with the comparison-count cost model, and the levelwise
/// miner's candidate counting (`crate::levelwise`) applies it to
/// prefix-groups of Apriori candidates.
pub fn balanced_partition<T>(
    items: Vec<T>,
    workers: usize,
    cost: impl Fn(&T) -> usize,
) -> Vec<Vec<T>> {
    let workers = workers.max(1);
    let mut order: Vec<(usize, usize, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| (cost(&t), i, t))
        .collect();
    // Heaviest first; equal costs keep their input order.
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut buckets: Vec<(usize, Vec<T>)> = Vec::with_capacity(workers);
    buckets.resize_with(workers, || (0, Vec::new()));
    for (cost, _, item) in order {
        let lightest = buckets
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("workers >= 1");
        lightest.0 += cost;
        lightest.1.push(item);
    }
    buckets
        .into_iter()
        .map(|(_, items)| items)
        .filter(|b| !b.is_empty())
        .collect()
}

/// Where tile results land. One consumer per worker; the executor
/// merges the locals at the end via [`TileConsumer::absorb`].
pub trait TileConsumer: Send {
    /// Fold the row-major `rows × cols` counts of one unit of work — a
    /// row band on the CPU engine, a whole tile on the GPU engine —
    /// called once per unit. On a diagonal block only the cells with
    /// global column > global row (`col_base + c > row_base + r`) are
    /// meaningful.
    fn consume(&mut self, tile: &Tile, counts: &[u64]);

    /// Merge another worker's accumulator into this one. Units are
    /// partitioned across workers, so the two accumulators never share
    /// a cell.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

/// Execution metadata common to every backend.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Stable engine name (`cpu`, `gpu-sim`).
    pub engine: &'static str,
    /// Worker threads used: 1 for the CPU engine under
    /// [`Parallelism::Serial`] and for the simulated GPU's host loop.
    pub threads: usize,
    /// Tile-comparison time in seconds: for the CPU engine, wall time of
    /// the whole sweep-and-consume region at every worker count (so it
    /// includes the consumers' harvest); *simulated* device seconds for
    /// the GPU engine.
    pub kernel_s: f64,
    /// One-time host→device transfer (simulated; 0 for CPU engines).
    pub transfer_s: f64,
    /// Host seconds spent in [`TileConsumer::consume`] by the GPU
    /// engine, whose kernel time is simulated; 0 for the CPU engine,
    /// which counts consumption inside `kernel_s`.
    pub consume_s: f64,
    /// Simulated device-resident bytes (0 for CPU engines).
    pub device_bytes: usize,
    /// Bytes of all count buffers live at once: the sum over workers of
    /// each worker's largest buffer (one tile's buffer for the GPU
    /// engine, which runs one tile at a time).
    pub tile_buffer_bytes: usize,
    /// Folded GPU counters (`None` for CPU engines).
    pub gpu_stats: Option<KernelStats>,
    /// Tiles whose simulated time exceeded the device watchdog.
    pub watchdog_violations: usize,
}

impl ExecReport {
    fn new(engine: &'static str, threads: usize) -> Self {
        ExecReport {
            engine,
            threads,
            kernel_s: 0.0,
            transfer_s: 0.0,
            consume_s: 0.0,
            device_bytes: 0,
            tile_buffer_bytes: 0,
            gpu_stats: None,
            watchdog_violations: 0,
        }
    }
}

/// A backend that can execute a [`TilePlan`].
pub trait TileExecutor {
    /// Run every tile of `plan`, feeding counts to consumers created by
    /// `make` (one per worker), and return the merged consumer plus
    /// execution metadata.
    fn execute<C, F>(&self, pre: &Preprocessed, plan: &TilePlan, make: F) -> (C, ExecReport)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send;
}

/// CPU execution over row bands of the shared tile plan, on 1..N
/// workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelCpuExecutor {
    /// Worker-count knob ([`Parallelism::Serial`] runs on the calling
    /// thread; [`Parallelism::Auto`] follows `BATMAP_THREADS` or the
    /// ambient rayon pool — so `hpcutil::scoped_pool` sweeps keep
    /// working).
    pub parallelism: Parallelism,
}

/// One worker's body: sweep each band into one reused buffer and hand
/// it to the worker's consumer. Returns the consumer and the buffer's
/// peak bytes.
fn run_bands<C: TileConsumer>(
    pre: &Preprocessed,
    sets: &[u32],
    bands: &[Tile],
    make: impl Fn() -> C,
) -> (C, usize) {
    let mut consumer = make();
    let mut counts = Vec::new();
    for band in bands {
        cpu::run_band(pre, sets, band, &mut counts);
        consumer.consume(band, &counts);
    }
    (consumer, counts.capacity() * 8)
}

impl TileExecutor for ParallelCpuExecutor {
    fn execute<C, F>(&self, pre: &Preprocessed, plan: &TilePlan, make: F) -> (C, ExecReport)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send,
    {
        let threads = self.parallelism.resolve_with(rayon::current_num_threads());
        let mut report = ExecReport::new("cpu", threads);
        let mut sw = Stopwatch::start();
        let buckets = balanced_partition(plan.bands(threads), threads, Tile::comparisons);
        let run = || -> Vec<(C, usize)> {
            buckets
                .into_par_iter()
                .map(|bucket| run_bands(pre, plan.sets(), &bucket, &make))
                .collect()
        };
        let locals = match self.parallelism.pinned() {
            Some(n) => hpcutil::scoped_pool(n, run),
            None => run(),
        };
        let mut merged: Option<C> = None;
        for (local, buffer_bytes) in locals {
            report.tile_buffer_bytes += buffer_bytes;
            match &mut merged {
                Some(m) => m.absorb(local),
                None => merged = Some(local),
            }
        }
        report.kernel_s = sw.lap().as_secs_f64();
        (merged.unwrap_or_else(make), report)
    }
}

/// The §III-B comparison kernel on the simulated device: one upload of
/// the planned sets, one launch per tile, timing and counters folded through a
/// [`gpu_sim::CommandQueue`].
#[derive(Debug, Clone, Copy)]
pub struct GpuSimExecutor<'a> {
    /// The simulated device model.
    pub device: &'a DeviceSpec,
}

impl TileExecutor for GpuSimExecutor<'_> {
    fn execute<C, F>(&self, pre: &Preprocessed, plan: &TilePlan, make: F) -> (C, ExecReport)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send,
    {
        let mut report = ExecReport::new("gpu-sim", 1);
        let data = DeviceData::gather(pre, plan.sets());
        report.device_bytes = data.buffer.bytes();
        // One queue for the whole run: batmaps transferred once
        // (§III-B), then one launch per tile.
        let mut queue = gpu_sim::CommandQueue::new(self.device);
        queue.enqueue_transfer(&data.buffer);
        let mut consumer = make();
        for tile in plan.tiles() {
            let result = gpu::run_tile_queued(&mut queue, &data, *tile);
            report.tile_buffer_bytes = report.tile_buffer_bytes.max(result.counts.len() * 8);
            let mut sw = Stopwatch::start();
            consumer.consume(tile, &result.counts);
            report.consume_s += sw.lap().as_secs_f64();
        }
        report.transfer_s = queue.transfer_seconds();
        report.kernel_s = queue.elapsed_seconds() - queue.transfer_seconds();
        report.watchdog_violations = queue.watchdog_violations();
        report.gpu_stats = Some(*queue.stats());
        (consumer, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use fim::{TransactionDb, VerticalDb};

    /// Collects every meaningful cell (global column > global row) as a
    /// global `(row, col) → count` pair list.
    #[derive(Default)]
    struct CellSink {
        cells: Vec<((u32, u32), u64)>,
    }

    impl TileConsumer for CellSink {
        fn consume(&mut self, tile: &Tile, counts: &[u64]) {
            for r in 0..tile.rows {
                let gi = tile.row_base + r;
                for c in 0..tile.cols {
                    let gj = tile.col_base + c;
                    if gj > gi {
                        self.cells
                            .push(((gi as u32, gj as u32), counts[r * tile.cols + c]));
                    }
                }
            }
        }
        fn absorb(&mut self, other: Self) {
            self.cells.extend(other.cells);
        }
    }

    fn fixture() -> Preprocessed {
        let db = TransactionDb::new(
            30,
            (0..500usize)
                .map(|t| {
                    (0..30)
                        .filter(|&i| (t + i as usize).is_multiple_of(6))
                        .collect()
                })
                .collect(),
        );
        preprocess(&VerticalDb::from_horizontal(&db), 17, 128)
    }

    fn sorted_cells(mut sink: CellSink) -> Vec<((u32, u32), u64)> {
        sink.cells.sort_unstable();
        sink.cells
    }

    #[test]
    fn plan_costs_and_buckets() {
        let plan = TilePlan::new(96, 32);
        assert_eq!(plan.tiles().len(), 6);
        assert_eq!(plan.reported_comparisons(), 96 * 95 / 2);
        assert_eq!(
            plan.executed_comparisons(),
            plan.tiles().iter().map(|t| t.rows * t.cols).sum::<usize>()
        );
        for workers in 1..8 {
            let bands = plan.bands(workers);
            assert!(bands.len() >= 2 * workers, "every worker gets two bands");
            assert!(bands.iter().all(|b| b.rows <= MAX_BAND_ROWS));
            assert_eq!(
                bands.iter().map(Tile::comparisons).sum::<usize>(),
                plan.reported_comparisons(),
                "bands cover the plan's cells exactly once"
            );
            let buckets = balanced_partition(bands.clone(), workers, Tile::comparisons);
            assert_eq!(buckets.len(), workers);
            let total: usize = buckets.iter().map(Vec::len).sum();
            assert_eq!(total, bands.len(), "every band exactly once");
        }
    }

    #[test]
    fn executors_agree_cell_for_cell() {
        let pre = fixture();
        for k in [16usize, 32, 2048] {
            let plan = TilePlan::new(pre.padded_items(), k);
            // Independent reference: the full-square tile sweep, cut to
            // its strict upper triangle.
            let mut reference = CellSink::default();
            for tile in plan.tiles() {
                reference.consume(tile, &cpu::run_tile_cpu(&pre, tile));
            }
            let expect = sorted_cells(reference);
            assert_eq!(expect.len(), plan.reported_comparisons());
            let gpu = GpuSimExecutor {
                device: &DeviceSpec::gtx285(),
            };
            let (gpu_sink, g_rep) = gpu.execute(&pre, &plan, CellSink::default);
            assert_eq!(sorted_cells(gpu_sink), expect, "k={k} gpu-sim");
            assert!(g_rep.gpu_stats.is_some());
            assert!(g_rep.transfer_s > 0.0);
            for threads in [1usize, 2, 3, 5, 8] {
                let exec = ParallelCpuExecutor {
                    parallelism: Parallelism::threads(threads),
                };
                let (cpu_sink, c_rep) = exec.execute(&pre, &plan, CellSink::default);
                assert_eq!(c_rep.engine, "cpu");
                assert_eq!(c_rep.threads, threads);
                assert_eq!(
                    sorted_cells(cpu_sink),
                    expect,
                    "k={k} threads={threads} must match the reference"
                );
            }
        }
    }

    #[test]
    fn pruned_plan_sweeps_only_planned_sets() {
        let pre = fixture();
        // Three plans over the 30-set fixture: every second set (15
        // planned, padded to 16), every third set (10 planned), and two
        // of every three (20 planned, padded to 32: three tiles at
        // k = 16). Cells on real plan indices must count the listed
        // sets; padding cells are unspecified.
        let n = pre.n_items;
        for (sets, k) in [
            ((0..n).step_by(2).collect::<Vec<u32>>(), 16usize),
            ((0..n).step_by(3).collect(), 32),
            ((0..n).filter(|s| s % 3 != 2).collect(), 16),
        ] {
            let plan = TilePlan::over(sets.clone(), k);
            assert_eq!(plan.n_padded(), sets.len().next_multiple_of(16));
            let real = |((_, j), _): &((u32, u32), u64)| (*j as usize) < sets.len();
            let expect: Vec<((u32, u32), u64)> = (0..sets.len())
                .flat_map(|i| (i + 1..sets.len()).map(move |j| (i, j)))
                .map(|(i, j)| {
                    let count = batmap::intersect::count_mixed(
                        &pre.payload(sets[i] as usize),
                        &pre.payload(sets[j] as usize),
                    );
                    ((i as u32, j as u32), count)
                })
                .collect();
            let gpu = GpuSimExecutor {
                device: &DeviceSpec::gtx285(),
            };
            let (gpu_sink, g_rep) = gpu.execute(&pre, &plan, CellSink::default);
            assert_eq!(
                g_rep.device_bytes,
                DeviceData::gather(&pre, &sets).buffer.bytes()
            );
            let gpu_cells = sorted_cells(gpu_sink);
            assert_eq!(gpu_cells.len(), plan.reported_comparisons());
            let gpu_real: Vec<_> = gpu_cells.into_iter().filter(real).collect();
            assert_eq!(gpu_real, expect, "gpu-sim k={k} sets={}", sets.len());
            for threads in [1usize, 3] {
                let exec = ParallelCpuExecutor {
                    parallelism: Parallelism::threads(threads),
                };
                let (cpu_sink, _) = exec.execute(&pre, &plan, CellSink::default);
                let cpu_cells = sorted_cells(cpu_sink);
                assert_eq!(cpu_cells.len(), plan.reported_comparisons());
                let cpu_real: Vec<_> = cpu_cells.into_iter().filter(real).collect();
                assert_eq!(cpu_real, expect, "cpu threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn no_duplicate_or_mirrored_cells() {
        let pre = fixture();
        let plan = TilePlan::new(pre.padded_items(), 16);
        let exec = ParallelCpuExecutor {
            parallelism: Parallelism::threads(4),
        };
        let (sink, _) = exec.execute(&pre, &plan, CellSink::default);
        let cells = sorted_cells(sink);
        // Exactly the strict upper triangle, each cell once.
        assert_eq!(cells.len(), plan.reported_comparisons());
        for w in cells.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate cell {:?}", w[0].0);
        }
        assert!(
            cells.iter().all(|((i, j), _)| i < j),
            "mirrored cell leaked"
        );
    }

    #[test]
    fn serial_fallback_for_single_thread_knob() {
        let pre = fixture();
        let plan = TilePlan::new(pre.padded_items(), 32);
        let exec = ParallelCpuExecutor {
            parallelism: Parallelism::Serial,
        };
        let (_, report) = exec.execute(&pre, &plan, CellSink::default);
        assert_eq!(report.engine, "cpu");
        assert_eq!(report.threads, 1);
    }
}
