//! Backend-agnostic tile execution — the one scheduler both mining
//! engines share.
//!
//! [`TilePlan`] wraps the §III-C k×k upper-triangle schedule with its
//! cost model; a [`TileExecutor`] walks the plan and feeds each tile's
//! row-major counts to a [`TileConsumer`]. Three executors implement
//! the seam:
//!
//! * [`SerialCpuExecutor`] — strictly sequential host execution, the
//!   baseline of the paper's CPU-vs-GPU comparison and of the
//!   parallel-equivalence tests;
//! * [`ParallelCpuExecutor`] — multicore host execution: tiles are
//!   balanced across workers by reported-comparison cost (longest
//!   processing time first), each worker folds its results into a
//!   thread-local consumer, and the locals are merged at the end.
//!   Plans with fewer than twice as many tiles as workers parallelize
//!   across rows *inside* each tile instead (too few tiles to balance
//!   well), so a single-tile run still uses every core. Both CPU paths
//!   skip the at-or-below-diagonal cells of
//!   diagonal tiles entirely (the §III-C symmetry saving, applied
//!   inside the tile);
//! * [`GpuSimExecutor`] — the §III-B kernel on the `gpu-sim` substrate
//!   (simulated device timing; diagonal tiles execute their full
//!   square in lockstep, as real SIMD hardware would).
//!
//! The contract consumers rely on: every tile of the plan is consumed
//! exactly once, and on a diagonal tile only the strict-upper-triangle
//! cells carry meaningful counts (the rest are unspecified — the CPU
//! executors leave them zero, the GPU executor computes them).
//!
//! Both CPU tile runners (`pairminer::cpu`) feed each tile row through
//! the one-vs-many row driver
//! (`batmap::intersect::count_mixed_one_vs_many_into`): the match-count
//! backend is dispatched once per row, a batmap row stays hot in
//! registers/L1 across the column block, and equal-width batmap columns
//! (common — preprocessing sorts sets by width) take the kernels'
//! register-blocked sweep. All operands are zero-copy typed `SetView`s
//! (batmap / bitmap / tidlist) into the preprocessed corpus's
//! contiguous `BatmapArena`, whether the corpus is pure batmap or
//! hybrid (width-sorted sets sit width-adjacent in one buffer, so a
//! tile walk streams linearly instead of chasing per-set boxes).

use crate::cpu;
use crate::gpu::{self, DeviceData};
use crate::preprocess::Preprocessed;
use crate::schedule::{schedule, Tile};
use batmap::Parallelism;
use gpu_sim::{DeviceSpec, KernelStats};
use hpcutil::Stopwatch;
use rayon::prelude::*;

/// A tile schedule plus its cost model.
#[derive(Debug, Clone)]
pub struct TilePlan {
    n_padded: usize,
    k: usize,
    tiles: Vec<Tile>,
}

impl TilePlan {
    /// Plan the k×k upper-triangle schedule for `n_padded` items
    /// (multiple of 16) with tile side `k` (multiple of 16).
    pub fn new(n_padded: usize, k: usize) -> Self {
        TilePlan {
            n_padded,
            k,
            tiles: schedule(n_padded, k),
        }
    }

    /// Tile side `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Padded item count the plan covers.
    pub fn n_padded(&self) -> usize {
        self.n_padded
    }

    /// The scheduled tiles, in `(p, q)` row-major order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Total *reported* pair comparisons — diagonal tiles count their
    /// strict upper triangle only (exactly "(n_padded choose 2)").
    pub fn reported_comparisons(&self) -> usize {
        crate::schedule::total_comparisons(&self.tiles)
    }

    /// Total comparisons a lockstep kernel *executes* (diagonal tiles
    /// compute their full square).
    pub fn executed_comparisons(&self) -> usize {
        crate::schedule::total_executed_comparisons(&self.tiles)
    }

    /// Partition the tiles into `workers` cost-balanced buckets using
    /// the reported-comparison cost model (longest-processing-time
    /// greedy: heaviest tile first, always into the lightest bucket).
    /// Buckets are never empty unless there are fewer tiles than
    /// workers.
    pub fn balanced_buckets(&self, workers: usize) -> Vec<Vec<Tile>> {
        balanced_partition(self.tiles.clone(), workers, |t| t.comparisons())
    }
}

/// Partition `items` into at most `workers` cost-balanced buckets by
/// the longest-processing-time greedy rule: heaviest item first (input
/// order breaks ties, so the result is deterministic), always into the
/// currently lightest bucket. Buckets are never empty unless there are
/// fewer items than workers.
///
/// This is the work-partitioning rule every parallel phase of the
/// mining engines shares: [`TilePlan::balanced_buckets`] applies it to
/// tiles with the comparison-count cost model, and the levelwise
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

/// Where tile results land. One consumer per worker thread; the
/// executor merges the locals at the end via [`TileConsumer::absorb`].
pub trait TileConsumer: Send {
    /// Fold one tile's row-major `rows × cols` counts. On a diagonal
    /// tile only the strict-upper-triangle cells are meaningful.
    fn consume(&mut self, tile: &Tile, counts: &[u64]);

    /// Merge another worker's accumulator into this one. Tiles are
    /// partitioned across workers, so the two accumulators never share
    /// a tile.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

/// Execution metadata common to every backend.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Stable engine name (`cpu-serial`, `cpu-parallel`, `gpu-sim`).
    pub engine: &'static str,
    /// Worker threads used (1 for serial and for the simulated GPU's
    /// host loop).
    pub threads: usize,
    /// Tile-comparison time in seconds: summed per-tile wall time for
    /// the serial engine, wall time of the whole parallel region
    /// (in-worker consumption included) for the parallel engine,
    /// *simulated* device seconds for the GPU engine.
    pub kernel_s: f64,
    /// One-time host→device transfer (simulated; 0 for CPU engines).
    pub transfer_s: f64,
    /// Host seconds spent in [`TileConsumer::consume`], where the
    /// executor can observe it separately (serial CPU and GPU paths;
    /// folded into `kernel_s` for the parallel engine).
    pub consume_s: f64,
    /// Simulated device-resident bytes (0 for CPU engines).
    pub device_bytes: usize,
    /// Largest per-tile result buffer, in bytes.
    pub max_tile_buffer_bytes: usize,
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
            max_tile_buffer_bytes: 0,
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

/// Strictly sequential CPU execution (no worker threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialCpuExecutor;

impl TileExecutor for SerialCpuExecutor {
    fn execute<C, F>(&self, pre: &Preprocessed, plan: &TilePlan, make: F) -> (C, ExecReport)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send,
    {
        let mut report = ExecReport::new("cpu-serial", 1);
        let mut consumer = make();
        for tile in plan.tiles() {
            let mut sw = Stopwatch::start();
            let counts = cpu::run_tile_cpu_serial(pre, tile);
            report.kernel_s += sw.lap().as_secs_f64();
            report.max_tile_buffer_bytes = report.max_tile_buffer_bytes.max(counts.len() * 8);
            consumer.consume(tile, &counts);
            report.consume_s += sw.lap().as_secs_f64();
        }
        (consumer, report)
    }
}

/// Multicore CPU execution over the shared tile plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelCpuExecutor {
    /// Worker-count knob ([`Parallelism::Auto`] follows `BATMAP_THREADS`
    /// or the ambient rayon pool — so `hpcutil::scoped_pool` sweeps
    /// keep working).
    pub parallelism: Parallelism,
}

impl ParallelCpuExecutor {
    /// Parallel body, run inside whichever pool `execute` selected.
    fn run_tiles<C, F>(pre: &Preprocessed, plan: &TilePlan, make: &F, threads: usize) -> (C, usize)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send,
    {
        if plan.tiles().len() < 2 * threads {
            // Too few tiles to keep every worker busy: parallelize the
            // rows inside each tile instead.
            let mut consumer = make();
            let mut max_buf = 0usize;
            for tile in plan.tiles() {
                let counts = cpu::run_tile_cpu_rows(pre, tile);
                max_buf = max_buf.max(counts.len() * 8);
                consumer.consume(tile, &counts);
            }
            (consumer, max_buf)
        } else {
            // Work-balanced tile buckets, one thread-local consumer
            // per worker, merged at the end.
            let locals: Vec<(C, usize)> = plan
                .balanced_buckets(threads)
                .into_par_iter()
                .map(|bucket| {
                    let mut consumer = make();
                    let mut max_buf = 0usize;
                    for tile in &bucket {
                        let counts = cpu::run_tile_cpu_serial(pre, tile);
                        max_buf = max_buf.max(counts.len() * 8);
                        consumer.consume(tile, &counts);
                    }
                    (consumer, max_buf)
                })
                .collect();
            let mut locals = locals.into_iter();
            let (mut merged, mut max_buf) = locals.next().expect("at least one bucket");
            for (local, buf) in locals {
                merged.absorb(local);
                max_buf = max_buf.max(buf);
            }
            (merged, max_buf)
        }
    }
}

impl TileExecutor for ParallelCpuExecutor {
    fn execute<C, F>(&self, pre: &Preprocessed, plan: &TilePlan, make: F) -> (C, ExecReport)
    where
        C: TileConsumer,
        F: Fn() -> C + Sync + Send,
    {
        let threads = self.parallelism.resolve_with(rayon::current_num_threads());
        if threads <= 1 || plan.tiles().is_empty() {
            let (consumer, mut report) = SerialCpuExecutor.execute(pre, plan, make);
            report.engine = "cpu-parallel";
            return (consumer, report);
        }
        let mut report = ExecReport::new("cpu-parallel", threads);
        let mut sw = Stopwatch::start();
        let (consumer, max_buf) = match self.parallelism.pinned() {
            Some(n) => hpcutil::scoped_pool(n, || Self::run_tiles(pre, plan, &make, threads)),
            None => Self::run_tiles(pre, plan, &make, threads),
        };
        report.kernel_s = sw.lap().as_secs_f64();
        report.max_tile_buffer_bytes = max_buf;
        (consumer, report)
    }
}

/// The §III-B comparison kernel on the simulated device: one upload,
/// one launch per tile, timing and counters folded through a
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
        let data = DeviceData::upload(pre);
        report.device_bytes = data.buffer.bytes();
        // One queue for the whole run: batmaps transferred once
        // (§III-B), then one launch per tile.
        let mut queue = gpu_sim::CommandQueue::new(self.device);
        queue.enqueue_transfer(&data.buffer);
        let mut consumer = make();
        for tile in plan.tiles() {
            let result = gpu::run_tile_queued(&mut queue, &data, *tile);
            report.max_tile_buffer_bytes =
                report.max_tile_buffer_bytes.max(result.counts.len() * 8);
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

    /// Collects every useful (strict-upper-triangle, non-zero-eligible)
    /// cell as a global `(row, col) → count` pair list.
    #[derive(Default)]
    struct CellSink {
        cells: Vec<((u32, u32), u64)>,
    }

    impl TileConsumer for CellSink {
        fn consume(&mut self, tile: &Tile, counts: &[u64]) {
            for r in 0..tile.rows {
                let first = if tile.is_diagonal() { r + 1 } else { 0 };
                for c in first..tile.cols {
                    let gi = (tile.row_base + r) as u32;
                    let gj = (tile.col_base + c) as u32;
                    self.cells.push(((gi, gj), counts[r * tile.cols + c]));
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
            let buckets = plan.balanced_buckets(workers);
            assert!(buckets.len() <= workers);
            let total: usize = buckets.iter().map(Vec::len).sum();
            assert_eq!(total, plan.tiles().len(), "every tile exactly once");
            assert!(buckets.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn executors_agree_cell_for_cell() {
        let pre = fixture();
        for k in [16usize, 32, 2048] {
            let plan = TilePlan::new(pre.padded_items(), k);
            let (serial, s_rep) = SerialCpuExecutor.execute(&pre, &plan, CellSink::default);
            let expect = sorted_cells(serial);
            assert_eq!(s_rep.engine, "cpu-serial");
            assert_eq!(s_rep.threads, 1);
            for threads in [2usize, 3, 5, 8] {
                let exec = ParallelCpuExecutor {
                    parallelism: Parallelism::threads(threads),
                };
                let (par, p_rep) = exec.execute(&pre, &plan, CellSink::default);
                assert_eq!(p_rep.engine, "cpu-parallel");
                assert_eq!(p_rep.threads, threads);
                assert_eq!(
                    sorted_cells(par),
                    expect,
                    "k={k} threads={threads} must match serial"
                );
            }
            let gpu = GpuSimExecutor {
                device: &DeviceSpec::gtx285(),
            };
            let (gpu_sink, g_rep) = gpu.execute(&pre, &plan, CellSink::default);
            assert_eq!(sorted_cells(gpu_sink), expect, "k={k} gpu-sim");
            assert!(g_rep.gpu_stats.is_some());
            assert!(g_rep.transfer_s > 0.0);
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
        assert_eq!(report.engine, "cpu-parallel");
        assert_eq!(report.threads, 1);
    }
}
