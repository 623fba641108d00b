//! The top-level pair miner: preprocessing → tiling → kernel →
//! postprocessing, with full timing and memory accounting.

use crate::executor::{GpuSimExecutor, ParallelCpuExecutor, TileConsumer, TileExecutor, TilePlan};
use crate::failed::{FailedPairs, MissingPair};
use crate::memory::MemoryReport;
use crate::preprocess::{preprocess_with, Preprocessed};
use crate::schedule::Tile;
use batmap::{EngineOptions, Parallelism, ReprPolicy};
use fim::pairs::{pair_key, PairMap};
use fim::{TransactionDb, VerticalDb};
use gpu_sim::{DeviceSpec, KernelStats};
use hpcutil::{MemoryFootprint, Stopwatch};
use rayon::prelude::*;
use std::hash::BuildHasher;

/// Which engine executes the tile comparisons.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The simulated GPU (§III-B kernel on `gpu-sim`); tile times are
    /// simulated seconds from the device model.
    Gpu(DeviceSpec),
    /// Real multicore execution on the host (measured wall time). Wrap
    /// the call in `hpcutil::scoped_pool` to pin the core count.
    Cpu,
}

/// Miner configuration.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Tile side `k` (multiple of 16; the paper used 2048).
    pub k: usize,
    /// Minimum support for reported pairs (1 = all co-occurring pairs).
    pub minsup: u64,
    /// Hash seed for the batmap universe.
    pub seed: u64,
    /// Cuckoo `MaxLoop` bound.
    pub max_loop: u32,
    /// Execution engine.
    pub engine: Engine,
    /// The three engine tuning knobs — match-count backend, host
    /// parallelism, storage representation — as one
    /// [`EngineOptions`] value with the documented resolution order
    /// (explicit > `BATMAP_*` environment > auto). The kernel drives
    /// both engines' dispatch; the threads knob drives batmap
    /// construction for both engines and tile execution for the CPU
    /// engine ([`batmap::Parallelism::Serial`] runs the band walk on
    /// the calling thread, `Auto` follows the ambient rayon pool so
    /// `hpcutil::scoped_pool(cores, …)` sweeps keep working); the repr
    /// policy shapes the preprocessed corpus (`Hybrid` picks
    /// batmap/bitmap/tidlist per set by density — the GPU engine needs
    /// an all-batmap corpus, so it pins `Batmap` regardless, with a
    /// one-time warning if the configuration asked for something else).
    pub options: EngineOptions,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            k: 2048,
            minsup: 1,
            seed: 0xBA7_A11,
            max_loop: 128,
            engine: Engine::Gpu(DeviceSpec::gtx285()),
            options: EngineOptions::auto(),
        }
    }
}

/// Phase timings in seconds. GPU kernel time is *simulated*; everything
/// else is measured host wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    /// Vertical conversion + batmap construction + sorting.
    pub preprocess_s: f64,
    /// One-time host→device transfer (simulated; 0 for CPU engine).
    pub transfer_s: f64,
    /// Tile comparison time: simulated device seconds for the GPU
    /// engine; for the CPU engine, at every worker count, wall time of
    /// the whole band region, with the workers' harvest (failed-pair
    /// merge, threshold, remap to original ids) included.
    pub kernel_s: f64,
    /// The one build of the result map at its final size (the radix
    /// partition of the workers' pair lists plus the partition-ordered
    /// inserts, [`build_pair_map`]), plus (GPU engine only) the
    /// host-side harvest that the CPU engine counts in `kernel_s`.
    pub postprocess_s: f64,
}

impl Timings {
    /// Total of all phases.
    pub fn total_s(&self) -> f64 {
        self.preprocess_s + self.transfer_s + self.kernel_s + self.postprocess_s
    }
}

/// Full mining report.
#[derive(Debug, Clone)]
pub struct MiningReport {
    /// Pair supports in **original item ids**, filtered by `minsup`.
    pub pairs: PairMap,
    /// Phase timings.
    pub timings: Timings,
    /// Memory accounting.
    pub memory: MemoryReport,
    /// Folded GPU counters (None for the CPU engine).
    pub gpu_stats: Option<KernelStats>,
    /// Pair-occurrences recovered through the failed-insertion path,
    /// between planned sets only (a pair through an item below
    /// `minsup` is never repaired, since it can never be reported).
    pub failed_pair_occurrences: u64,
    /// Number of pair comparisons *reported* by the tile plan — exactly
    /// "(padded planned sets choose 2)", i.e. `C(⌈L/16⌉·16, 2)` for
    /// `L` = [`MiningReport::planned_items`]; diagonal tiles count their
    /// strict upper triangle only (see [`Tile::comparisons`]).
    pub comparisons: usize,
    /// Sets the tile plan covers: every padded position of the corpus
    /// at `minsup ≤ 1`, otherwise the items whose support reaches
    /// `minsup` (before the plan pads them to a multiple of 16).
    pub planned_items: usize,
    /// Worker threads the tile engine used: 1 for the CPU engine under
    /// [`batmap::Parallelism::Serial`] and for the simulated GPU's host
    /// loop.
    pub threads: usize,
    /// Number of tiles whose simulated time exceeded the device
    /// watchdog (should be 0 with a sane `k`; §III-C).
    pub watchdog_violations: usize,
}

/// One reported pair: its key in original item ids, and its support.
pub type PairEntry = ((u32, u32), u64);

/// The miner's [`TileConsumer`]: folds each band's (or tile's) counts
/// straight into a flat list of reported pairs, already keyed by
/// original item id, via [`harvest_tile`]. One instance per worker;
/// workers own disjoint bands, so merging keeps each worker's list as
/// it is, and [`build_pair_map`] builds the result map from all of them
/// once, at its final size.
struct HarvestConsumer<'a> {
    /// Original item id of each planned real set, by plan index; plan
    /// indices at or past its length are padding.
    ids: &'a [u32],
    failed: &'a FailedPairs,
    minsup: u64,
    out: Vec<PairEntry>,
    /// The lists of the workers merged into this one.
    absorbed: Vec<Vec<PairEntry>>,
}

impl TileConsumer for HarvestConsumer<'_> {
    fn consume(&mut self, tile: &Tile, counts: &[u64]) {
        harvest_tile(
            tile,
            counts,
            self.ids,
            self.failed.for_band(tile),
            self.minsup,
            &mut self.out,
        );
    }

    fn absorb(&mut self, other: Self) {
        // Bands partition the pair space, so no key repeats across
        // workers.
        self.absorbed.push(other.out);
        self.absorbed.extend(other.absorbed);
    }
}

impl HarvestConsumer<'_> {
    /// Every worker's pair list.
    fn into_lists(self) -> Vec<Vec<PairEntry>> {
        let mut lists = self.absorbed;
        lists.push(self.out);
        lists
    }
}

/// Mine all frequent pairs of `db`: preprocess into an arena-backed
/// corpus, then run the tile pipeline over it.
pub fn mine(db: &TransactionDb, config: &MinerConfig) -> MiningReport {
    mine_keeping_vertical(db, config).0
}

/// [`mine`], also returning the vertical database it converted `db`
/// into, so a caller that needs the tidlists next (the levelwise
/// engine) does not convert `db` a second time.
///
/// The conversion keeps only the items whose support reaches
/// `config.minsup` ([`VerticalDb::from_frequent`]); every other item is
/// an empty set of the corpus, which costs nothing to build and is
/// never planned. The planned sets keep their elements under the same
/// universe, so their bytes, their failed insertions and the pairs are
/// those of a corpus built from every item.
pub(crate) fn mine_keeping_vertical(
    db: &TransactionDb,
    config: &MinerConfig,
) -> (MiningReport, VerticalDb) {
    let mut sw = Stopwatch::start();
    let vertical = VerticalDb::from_frequent(db, config.minsup);
    let repr = match &config.engine {
        Engine::Cpu => config.options.repr,
        Engine::Gpu(_) => {
            // The simulated device kernel walks fixed-width slot rows,
            // so the corpus must be all-batmap.
            if !matches!(config.options.repr.resolve(), ReprPolicy::Batmap) {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: the GPU engine requires an all-batmap corpus; \
                         ignoring repr policy {} and using batmap",
                        config.options.repr.resolve()
                    );
                });
            }
            ReprPolicy::Batmap
        }
    };
    let pre = preprocess_with(
        &vertical,
        config.seed,
        config.max_loop,
        config.options.repr(repr),
    );
    let preprocess_s = sw.lap().as_secs_f64();
    let report = mine_over(db, &pre, vertical.heap_bytes(), preprocess_s, config);
    (report, vertical)
}

/// Mine with an **already-built** corpus — e.g. one loaded from a
/// snapshot ([`Preprocessed::read_snapshot`]) — skipping preprocessing
/// entirely. Produces the same pairs as [`mine`] would for the database
/// the corpus was built from (pinned by `tests/snapshot.rs`).
///
/// `db` must be the database `pre` was preprocessed from (it backs the
/// failed-insertion recovery path). Of the
/// configuration, only `k`, `minsup`, `engine`, and `options.threads`
/// apply here; `seed`, `max_loop`, and the kernel/repr knobs were fixed
/// at preprocessing time and travel inside `pre.params` / the arena's
/// per-set representation tags. (A hybrid snapshot can only be served
/// by the CPU engine — the GPU engine needs an all-batmap corpus.)
///
/// # Panics
/// Panics if `pre` was visibly built from a different database
/// (mismatched item count or universe size).
pub fn mine_preprocessed(
    db: &TransactionDb,
    pre: &Preprocessed,
    config: &MinerConfig,
) -> MiningReport {
    assert_eq!(
        pre.n_items,
        db.n_items(),
        "corpus was preprocessed from a different database (item count)"
    );
    assert_eq!(
        pre.params.m(),
        (db.len() as u64).max(1),
        "corpus was preprocessed from a different database (universe size)"
    );
    // `timings.preprocess_s` is 0 by definition here: serving a
    // snapshot is exactly the act of not paying that phase again. The
    // tidlist bytes the memory report would normally charge were never
    // materialized either.
    mine_over(db, pre, 0, 0.0, config)
}

/// The engine-independent tile pipeline over a built corpus.
///
/// The tile plan covers only the sets whose support reaches `minsup`
/// ([`TilePlan::for_minsup`]).
fn mine_over(
    db: &TransactionDb,
    pre: &Preprocessed,
    tidlists_bytes: usize,
    preprocess_s: f64,
    config: &MinerConfig,
) -> MiningReport {
    let plan = TilePlan::for_minsup(pre, config.minsup, config.k);
    let failed = FailedPairs::for_plan(pre, db, &plan);
    // Original item id of each planned real set, by plan index; later
    // plan indices are padding.
    let ids: Vec<u32> = plan
        .sets()
        .iter()
        .map_while(|&s| pre.order.get(s as usize).copied())
        .collect();

    let make = || HarvestConsumer {
        ids: &ids,
        failed: &failed,
        minsup: config.minsup,
        out: Vec::new(),
        absorbed: Vec::new(),
    };
    let (harvested, exec) = match &config.engine {
        Engine::Gpu(device) => GpuSimExecutor { device }.execute(pre, &plan, make),
        Engine::Cpu => ParallelCpuExecutor {
            parallelism: config.options.threads,
        }
        .execute(pre, &plan, make),
    };

    // The one result-map build, at final size (thresholding and the id
    // remap already happened per tile, as the paper does when each
    // Z_{p,q} returns).
    let mut post = Stopwatch::start();
    let pairs = build_pair_map(harvested.into_lists(), config.options.threads);
    let postprocess_s = exec.consume_s + post.lap().as_secs_f64();

    let memory = MemoryReport {
        tidlists_bytes,
        preprocessed_bytes: pre.heap_bytes(),
        device_bytes: exec.device_bytes,
        tile_buffer_bytes: exec.tile_buffer_bytes,
        failed_bytes: pre.failed.capacity() * 8,
    };
    MiningReport {
        pairs,
        timings: Timings {
            preprocess_s,
            transfer_s: exec.transfer_s,
            kernel_s: exec.kernel_s,
            postprocess_s,
        },
        memory,
        gpu_stats: exec.gpu_stats,
        failed_pair_occurrences: failed.total(),
        comparisons: plan.reported_comparisons(),
        planned_items: plan.sets().len(),
        threads: exec.threads,
        watchdog_violations: exec.watchdog_violations,
    }
}

/// Radix bits of [`build_pair_map`]: the table is cut into 256
/// partitions.
const PARTITION_BITS: u32 = 8;

/// Bucket count of the table `PairMap::with_capacity(n)` allocates, for
/// `n ≥ 8`: std's `(n·8/7).next_power_of_two()` (load ≤ 7/8; smaller
/// tables round differently, which costs nothing here).
fn table_buckets(n: usize) -> usize {
    (n.max(1) * 8 / 7).next_power_of_two()
}

/// Build the result map from the workers' pair lists, in hash-partition
/// order (radix-partitioned hash building: Manegold, Boncz & Kersten,
/// TKDE 2002; Balkesen et al., ICDE 2013).
///
/// A pair's bucket in the final table is `hash & (buckets − 1)`. Each
/// list is partitioned by the top `PARTITION_BITS` of that bucket
/// index (one histogram pass, one scatter pass, the lists in parallel
/// under `parallelism` as the tile executor applies it) and dropped
/// once scattered. Only then is the map allocated, and the inserts run
/// partition by partition across the lists, so each partition's inserts
/// land in one 1/256 slice of the table and stay in cache. Keys must be
/// distinct across all lists.
///
/// The bucket count is std's rule for the final size
/// (`table_buckets`); if std's table layout ever differs, the
/// partition order only loses its locality, never any content.
pub fn build_pair_map(lists: Vec<Vec<PairEntry>>, parallelism: Parallelism) -> PairMap {
    const PARTS: usize = 1 << PARTITION_BITS;
    let n: usize = lists.iter().map(Vec::len).sum();
    let mut pairs = PairMap::default();
    let buckets = table_buckets(n);
    let shift = buckets.trailing_zeros().saturating_sub(PARTITION_BITS);
    let state = pairs.hasher().clone();
    let part = |key: &(u32, u32)| (state.hash_one(key) as usize & (buckets - 1)) >> shift;
    let scatter = |list: Vec<PairEntry>| {
        let mut starts = [0usize; PARTS + 1];
        for (key, _) in &list {
            starts[part(key) + 1] += 1;
        }
        for p in 0..PARTS {
            starts[p + 1] += starts[p];
        }
        let mut next = starts;
        let mut scattered = vec![((0, 0), 0); list.len()];
        for entry in list {
            let at = &mut next[part(&entry.0)];
            scattered[*at] = entry;
            *at += 1;
        }
        (scattered, starts)
    };
    let run = || lists.into_par_iter().map(scatter).collect::<Vec<_>>();
    let partitioned = match parallelism.pinned() {
        Some(threads) => hpcutil::scoped_pool(threads, run),
        None => run(),
    };
    pairs.reserve(n);
    for p in 0..PARTS {
        for (scattered, starts) in &partitioned {
            pairs.extend(scattered[starts[p]..starts[p + 1]].iter().copied());
        }
    }
    pairs
}

/// Fold one band's (or tile's) dense counts into `out` as
/// original-id pairs: apply the diagonal triangle filter, drop padding
/// (plan indices at or past `ids.len()`, the count of planned real
/// sets), merge the band's `M_{p,q}` missing pairs, threshold by
/// `minsup`, and remap each reported plan-index pair through `ids` —
/// all in one pass, mirroring the paper's "extend Z_{p,q} with M_{p,q}
/// before reporting" streaming postprocess.
///
/// `extras` are keyed by plan index and sorted by `(sᵢ, sⱼ)`, the
/// order the band's cells are walked in, so they merge by position.
/// Every missing pair has `sᵢ < sⱼ < ids.len()` and so lies on a
/// visited cell; one that does not panics rather than undercount.
fn harvest_tile(
    tile: &Tile,
    counts: &[u64],
    ids: &[u32],
    extras: &[MissingPair],
    minsup: u64,
    out: &mut Vec<PairEntry>,
) {
    let n = ids.len();
    let minsup = minsup.max(1);
    // Columns past the last real item are padding.
    let cols = tile.cols.min(n.saturating_sub(tile.col_base));
    let col_ids = &ids[tile.col_base.min(n)..][..cols];
    let mut extras = extras.iter().peekable();
    for i in 0..tile.rows {
        let gi = tile.row_base + i;
        if gi >= n {
            break; // padding rows are at the end of the plan
        }
        let (id_i, first) = (ids[gi], tile.first_reported_col(i));
        let row = &counts[i * tile.cols..(i + 1) * tile.cols];
        for (j, (&c, &id_j)) in row.iter().zip(col_ids).enumerate().skip(first) {
            let at = (gi as u32, (tile.col_base + j) as u32);
            let c = match extras.next_if(|(key, _)| *key == at) {
                Some((_, extra)) => c + extra,
                None => c,
            };
            if c >= minsup {
                out.push((pair_key(id_i, id_j), c));
            }
        }
    }
    assert!(extras.next().is_none(), "a missing pair missed its cell");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim::pairs::brute_force_pairs;

    fn test_db(n: u32, m: usize, modulus: u32) -> TransactionDb {
        TransactionDb::new(
            n,
            (0..m)
                .map(|t| {
                    (0..n)
                        .filter(|&i| (t as u32 + i * 7) % modulus < 2)
                        .collect()
                })
                .collect(),
        )
    }

    fn config_gpu(k: usize) -> MinerConfig {
        MinerConfig {
            k,
            ..Default::default()
        }
    }

    /// Dense band counts for [`harvest_tile`]: `real(gi, gj)` on cells
    /// that may be reported, and `minsup + 10` on every cell that must
    /// not be (at or below the diagonal, padding row or column), so a
    /// missed filter shows up as an extra pair.
    fn band_counts(
        band: &Tile,
        n: usize,
        minsup: u64,
        real: impl Fn(usize, usize) -> u64,
    ) -> Vec<u64> {
        let mut counts = Vec::new();
        for gi in band.row_base..band.row_base + band.rows {
            for gj in band.col_base..band.col_base + band.cols {
                let reportable = gi < gj && gj < n;
                counts.push(if reportable {
                    real(gi, gj)
                } else {
                    minsup + 10
                });
            }
        }
        counts
    }

    #[test]
    fn harvest_tile_matches_brute_force_over_bands() {
        // 20 planned sets padded to 32 plan indices at k = 16; original
        // ids are a permutation, so remapped keys flip order.
        let n = 20;
        let ids: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % 23).collect();
        let minsup = 3;
        let real = |gi: usize, gj: usize| ((gi * 5 + gj * 3) % 5) as u64;
        // Each band: two missing pairs in plan indices, sorted — one
        // lifts a count from minsup − 1 to minsup, one stays below.
        let diagonal = Tile {
            p: 1,
            q: 1,
            row_base: 16,
            col_base: 16,
            rows: 8,
            cols: 16,
        };
        let off_diagonal = Tile {
            p: 0,
            q: 1,
            row_base: 8,
            col_base: 16,
            rows: 8,
            cols: 16,
        };
        for (band, lift, below) in [
            (diagonal, (16u32, 18u32), (17u32, 19u32)),
            (off_diagonal, (9, 17), (12, 19)),
        ] {
            let cell = move |gi: usize, gj: usize| match (gi as u32, gj as u32) {
                at if at == lift => minsup - 1,
                at if at == below => minsup - 2,
                _ => real(gi, gj),
            };
            let counts = band_counts(&band, n, minsup, cell);
            let extras: Vec<MissingPair> = vec![(lift, 1), (below, 1)];

            let mut out = Vec::new();
            harvest_tile(&band, &counts, &ids, &extras, minsup, &mut out);

            let mut expect = Vec::new();
            for gi in band.row_base..(band.row_base + band.rows).min(n) {
                for gj in (gi + 1).max(band.col_base)..(band.col_base + band.cols).min(n) {
                    let extra: u64 = extras
                        .iter()
                        .filter(|(at, _)| *at == (gi as u32, gj as u32))
                        .map(|(_, e)| e)
                        .sum();
                    let c = cell(gi, gj) + extra;
                    if c >= minsup {
                        expect.push((pair_key(ids[gi], ids[gj]), c));
                    }
                }
            }
            out.sort_unstable();
            expect.sort_unstable();
            assert!(!expect.is_empty(), "{band:?}");
            assert_eq!(out, expect, "{band:?}");

            let key = |(i, j): (u32, u32)| pair_key(ids[i as usize], ids[j as usize]);
            assert!(out.contains(&(key(lift), minsup)), "{band:?}: lifted pair");
            assert!(
                out.iter().all(|&(k, _)| k != key(below)),
                "{band:?}: below minsup"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a missing pair missed its cell")]
    fn harvest_tile_rejects_a_missing_pair_off_its_band() {
        // A missing pair in a padding column is never visited: it must
        // fail loudly, not undercount.
        let ids: Vec<u32> = (0..20).collect();
        let band = Tile {
            p: 0,
            q: 1,
            row_base: 0,
            col_base: 16,
            rows: 16,
            cols: 16,
        };
        let counts = vec![0; band.rows * band.cols];
        harvest_tile(&band, &counts, &ids, &[((3, 25), 1)], 1, &mut Vec::new());
    }

    #[test]
    fn table_buckets_match_std_capacity() {
        // The partition order assumes std's bucket count; a table of
        // `b ≥ 8` buckets holds 7/8·b entries.
        for n in (8..2_000).chain([100_000, 3_060_000]) {
            let map = PairMap::with_capacity_and_hasher(n, Default::default());
            assert_eq!(map.capacity(), table_buckets(n) / 8 * 7, "n={n}");
        }
        let entries: Vec<PairEntry> = (0..1_000).map(|i| ((i, i + 1), 1)).collect();
        let built = build_pair_map(vec![entries], Parallelism::Serial);
        assert_eq!(built.capacity(), table_buckets(1_000) / 8 * 7);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The partitioned build equals a plain map built from the same
        /// entries, for 1–4 worker lists of any length: empty lists,
        /// lists shorter than the 256 partitions, and totals whose
        /// tables span several partitions per bucket range.
        #[test]
        fn partitioned_build_matches_from_iter(
            entries in proptest::collection::vec((0u32..3_000, 0u32..3_000, 1u64..1_000), 0..3_000),
            workers in 1usize..5,
            owners in proptest::collection::vec(0usize..4, 3_000),
            threads in 1usize..4,
        ) {
            let mut seen = std::collections::HashSet::new();
            let mut lists = vec![Vec::new(); workers];
            for (at, &(a, b, support)) in entries.iter().enumerate() {
                if a != b && seen.insert(pair_key(a, b)) {
                    lists[owners[at] % workers].push((pair_key(a, b), support));
                }
            }
            let expect: PairMap = lists.iter().flatten().copied().collect();
            let built = build_pair_map(lists, Parallelism::threads(threads));
            proptest::prop_assert_eq!(built, expect);
        }
    }

    #[test]
    fn gpu_matches_brute_force() {
        let db = test_db(30, 500, 9);
        let report = mine(&db, &config_gpu(2048));
        assert_eq!(report.pairs, brute_force_pairs(&db, 1));
        assert_eq!(report.watchdog_violations, 0);
        assert!(report.gpu_stats.is_some());
        assert!(report.timings.kernel_s > 0.0);
    }

    #[test]
    fn cpu_matches_brute_force() {
        let db = test_db(30, 500, 9);
        let report = mine(
            &db,
            &MinerConfig {
                engine: Engine::Cpu,
                ..Default::default()
            },
        );
        assert_eq!(report.pairs, brute_force_pairs(&db, 1));
        assert!(report.gpu_stats.is_none());
        assert!(report.threads >= 1);
    }

    #[test]
    fn serial_and_parallel_cpu_engines_agree() {
        let db = test_db(40, 600, 7);
        let serial = mine(
            &db,
            &MinerConfig {
                engine: Engine::Cpu,
                options: EngineOptions::auto().threads(Parallelism::Serial),
                k: 16,
                ..Default::default()
            },
        );
        assert_eq!(serial.threads, 1);
        assert_eq!(serial.pairs, brute_force_pairs(&db, 1));
        for threads in [2usize, 4, 8] {
            let parallel = mine(
                &db,
                &MinerConfig {
                    engine: Engine::Cpu,
                    options: EngineOptions::auto().threads(Parallelism::threads(threads)),
                    k: 16,
                    ..Default::default()
                },
            );
            assert_eq!(parallel.threads, threads);
            assert_eq!(parallel.pairs, serial.pairs, "threads={threads}");
        }
    }

    #[test]
    fn small_tiles_agree_with_single_tile() {
        let db = test_db(40, 300, 7);
        let single = mine(&db, &config_gpu(2048));
        let tiled = mine(&db, &config_gpu(16));
        assert_eq!(single.pairs, tiled.pairs);
        assert!(tiled.comparisons <= 48 * 48, "triangular schedule");
    }

    #[test]
    fn minsup_filters() {
        let db = test_db(20, 400, 5);
        let all = mine(&db, &config_gpu(2048));
        let thresholded = mine(
            &db,
            &MinerConfig {
                minsup: 50,
                ..config_gpu(2048)
            },
        );
        let expect = brute_force_pairs(&db, 50);
        assert_eq!(thresholded.pairs, expect);
        assert!(thresholded.pairs.len() <= all.pairs.len());
    }

    #[test]
    fn failed_insertions_are_recovered() {
        // MaxLoop 1 forces failures — but only on *sparse* sets: when
        // m ≤ r the permutation hash is injective and collisions are
        // impossible, so the database must have m ≫ r (≈6% density).
        let db = test_db(24, 3000, 30);
        let report = mine(
            &db,
            &MinerConfig {
                max_loop: 1,
                ..config_gpu(2048)
            },
        );
        assert!(
            report.failed_pair_occurrences > 0,
            "expected forced failures with MaxLoop=1"
        );
        assert_eq!(report.pairs, brute_force_pairs(&db, 1));
    }

    #[test]
    fn failed_pair_repair_is_exact_across_bands() {
        // The same forced-failure database as above, on the CPU engine
        // with tiles small enough that the executor cuts each into
        // several row bands: each band must merge exactly its own rows'
        // missing pairs. The corpus is pinned all-batmap, so a hybrid
        // policy from the environment cannot move the failing sets to
        // failure-free layouts.
        let db = test_db(24, 3000, 30);
        let oracle = brute_force_pairs(&db, 1);
        let mut split_tiles = 0;
        for k in [16usize, 32] {
            for threads in [
                Parallelism::Serial,
                Parallelism::threads(2),
                Parallelism::threads(3),
            ] {
                let config = MinerConfig {
                    k,
                    max_loop: 1,
                    engine: Engine::Cpu,
                    options: EngineOptions::auto()
                        .repr(ReprPolicy::Batmap)
                        .threads(threads),
                    ..Default::default()
                };
                let report = mine(&db, &config);
                assert!(
                    report.failed_pair_occurrences > 0,
                    "expected forced failures"
                );
                assert_eq!(report.pairs, oracle, "k={k} threads={threads:?}");

                // The bands this run used: some tile's missing pairs
                // must straddle two or more of its bands.
                let pre = preprocess_with(
                    &VerticalDb::from_horizontal(&db),
                    config.seed,
                    config.max_loop,
                    config.options,
                );
                let failed = FailedPairs::build(&pre.failed, &db, &pre.item_to_sorted, k);
                let plan = TilePlan::new(pre.padded_items(), k);
                let bands = plan.bands(report.threads);
                split_tiles += plan
                    .tiles()
                    .iter()
                    .filter(|t| {
                        bands
                            .iter()
                            .filter(|b| (b.p, b.q) == (t.p, t.q) && !failed.for_band(b).is_empty())
                            .count()
                            >= 2
                    })
                    .count();
            }
        }
        assert!(split_tiles > 0, "no tile's missing pairs spanned two bands");
    }

    #[test]
    fn plan_covers_only_items_reaching_minsup() {
        // Items 0..12 have support 200, items 12..24 are supersets of
        // them (support 300, so each pair {i, 12 + i} has support 200),
        // and items 24..44 have support 100 and fall below minsup 200.
        // At MaxLoop 1 some support-200 items store fewer than 200
        // elements; only stored + failed reaches minsup, and their
        // pairs must still be reported.
        let m = 3000u32;
        let db = TransactionDb::new(
            44,
            (0..m)
                .map(|t| {
                    (0..44u32)
                        .filter(|&i| {
                            let phase = |j: u32| (t + 7 * j) % 30;
                            match i {
                                0..12 => phase(i) < 2,
                                12..24 => phase(i - 12) < 3,
                                _ => phase(i) == 0,
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        let minsup = 200;
        let oracle = brute_force_pairs(&db, minsup);
        let support = VerticalDb::from_horizontal(&db);
        let frequent = (0..44)
            .filter(|&i| support.tidlist(i).len() as u64 >= minsup)
            .count();
        assert_eq!(frequent, 24);
        let padded = frequent.next_multiple_of(16);

        let options = EngineOptions::auto().repr(ReprPolicy::Batmap);
        let pre = preprocess_with(&support, MinerConfig::default().seed, 1, options);
        let rescued: Vec<u32> = (0..pre.n_items as usize)
            .filter(|&s| {
                let stored = pre.payload(s).len() as u64;
                stored < minsup && stored + pre.failed_for(s).len() as u64 >= minsup
            })
            .map(|s| pre.order[s])
            .collect();
        assert!(
            !rescued.is_empty(),
            "fixture needs an item that reaches minsup only with its failures"
        );

        for (engine, threads) in [
            (Engine::Gpu(DeviceSpec::gtx285()), Parallelism::Serial),
            (Engine::Cpu, Parallelism::Serial),
            (Engine::Cpu, Parallelism::threads(3)),
        ] {
            for k in [16usize, 2048] {
                let report = mine(
                    &db,
                    &MinerConfig {
                        k,
                        minsup,
                        max_loop: 1,
                        engine: engine.clone(),
                        options: options.threads(threads),
                        ..Default::default()
                    },
                );
                let name = match engine {
                    Engine::Gpu(_) => "gpu",
                    Engine::Cpu => "cpu",
                };
                let label = format!("{name} {threads:?} k={k}");
                assert_eq!(report.pairs, oracle, "{label}");
                assert_eq!(report.planned_items, frequent, "{label}");
                assert_eq!(report.comparisons, padded * (padded - 1) / 2, "{label}");
                for &item in &rescued {
                    assert!(
                        report.pairs.keys().any(|&(a, b)| a == item || b == item),
                        "{label}: item {item}'s pairs were dropped"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_report_counts_every_workers_buffer() {
        // 40 items at k = 16: 6 tiles for 2 workers, and every band is a
        // whole 16 × 16 tile. Both workers hold a buffer at once.
        let db = test_db(40, 300, 7);
        let k = 16;
        let report = mine(
            &db,
            &MinerConfig {
                k,
                engine: Engine::Cpu,
                options: EngineOptions::auto().threads(Parallelism::threads(2)),
                ..Default::default()
            },
        );
        assert_eq!(report.threads, 2);
        assert!(TilePlan::new(48, k).tiles().len() >= 2 * report.threads);
        assert_eq!(report.memory.tile_buffer_bytes, 2 * k * k * 8);
    }

    #[test]
    fn every_kernel_backend_mines_identically() {
        let db = test_db(24, 400, 7);
        let oracle = brute_force_pairs(&db, 1);
        for backend in batmap::ALL_BACKENDS {
            for engine in [Engine::Gpu(DeviceSpec::gtx285()), Engine::Cpu] {
                let report = mine(
                    &db,
                    &MinerConfig {
                        options: EngineOptions::auto().kernel(backend),
                        engine: engine.clone(),
                        ..Default::default()
                    },
                );
                assert_eq!(report.pairs, oracle, "backend {backend} engine {engine:?}");
            }
        }
    }

    #[test]
    fn report_accounts_memory_and_time() {
        let db = test_db(30, 500, 9);
        let report = mine(&db, &config_gpu(2048));
        assert!(report.memory.peak_bytes() > 0);
        assert!(report.memory.device_bytes > 0);
        assert!(report.timings.total_s() >= report.timings.kernel_s);
        assert!(report.timings.transfer_s > 0.0);
        assert!(report.comparisons > 0);
    }

    #[test]
    fn hybrid_repr_mines_identically_on_cpu() {
        // Dense enough for some bitmap picks and sparse enough for
        // tidlist picks, so the hybrid corpus genuinely mixes layouts.
        let db = test_db(30, 3000, 9);
        let oracle = brute_force_pairs(&db, 1);
        let batmap_report = mine(
            &db,
            &MinerConfig {
                engine: Engine::Cpu,
                options: EngineOptions::auto().repr(ReprPolicy::Batmap),
                ..Default::default()
            },
        );
        assert_eq!(batmap_report.pairs, oracle);
        for repr in batmap::ALL_REPR_POLICIES {
            for threads in [Parallelism::Serial, Parallelism::threads(3)] {
                let report = mine(
                    &db,
                    &MinerConfig {
                        engine: Engine::Cpu,
                        options: EngineOptions::auto().repr(repr).threads(threads),
                        k: 16,
                        ..Default::default()
                    },
                );
                assert_eq!(report.pairs, oracle, "repr {repr} threads {threads:?}");
            }
        }
    }

    #[test]
    fn gpu_engine_pins_batmap_under_hybrid_repr() {
        let db = test_db(24, 400, 7);
        let report = mine(
            &db,
            &MinerConfig {
                options: EngineOptions::auto().repr(ReprPolicy::Hybrid),
                ..config_gpu(2048)
            },
        );
        assert_eq!(report.pairs, brute_force_pairs(&db, 1));
        assert!(report.gpu_stats.is_some());
    }

    #[test]
    fn empty_db_mines_nothing() {
        let db = TransactionDb::new(5, vec![]);
        let report = mine(&db, &config_gpu(2048));
        assert!(report.pairs.is_empty());
    }
}
