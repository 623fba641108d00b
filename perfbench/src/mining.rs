//! The two mining workloads.
//!
//! * `mine_uniform` — the paper's §IV-A uniform instance on a pure
//!   batmap corpus: `pairminer::mine`, checked against
//!   `fim::apriori::mine_pairs`.
//! * `mine_zipf_levelwise` — the webdocs-zipf corpus on a hybrid corpus:
//!   `LevelwiseMiner::mine` to depth 3, checked against
//!   `fim::fpgrowth::mine`.

use crate::metrics::Outcome;
use crate::roof::Roof;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, THREADS};
use batmap::multiway::{MultiwayBatmap, MultiwayParams};
use batmap::{BatmapParams, EngineOptions, ReprPolicy, SetRepr};
use fim::apriori::Itemset;
use fim::{PairMap, TransactionDb, VerticalDb};
use hpcutil::MemoryFootprint;
use pairminer::executor::{ParallelCpuExecutor, TileConsumer, TileExecutor, TilePlan};
use pairminer::failed::FailedPairs;
use pairminer::{
    mine_preprocessed, preprocess_with, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig,
    Parallelism, Tile,
};
use std::sync::Arc;
use std::time::Instant;

/// §IV-A instance: items, per-transaction inclusion probability, and
/// total occurrences (≈ 12,500 transactions).
pub const UNIFORM_ITEMS: u32 = 4_000;
pub const UNIFORM_DENSITY: f64 = 0.02;
pub const UNIFORM_OCCURRENCES: usize = 1_000_000;
/// `bench::recommended_minsup` of the nominal instance (⌈1.2·m·p²⌉ at
/// m = 12,500). Pinned: on a generated instance the ceiling flips
/// between neighbouring integers from seed to seed, which would change
/// the reported output (and the harvest time) by tens of percent.
pub const UNIFORM_MINSUP: u64 = 6;
/// Tile side (the paper's 2048).
pub const TILE_SIDE: usize = 2048;

/// Webdocs-zipf corpus and levelwise settings.
pub const ZIPF_DOCUMENTS: usize = 2_000;
pub const ZIPF_MEAN_DOC_LEN: usize = 80;
/// 2% of the documents.
pub const ZIPF_MINSUP: u64 = 40;
pub const ZIPF_DEPTH: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uniform,
    ZipfLevelwise,
}

impl Kind {
    fn repr(self) -> ReprPolicy {
        match self {
            Kind::Uniform => ReprPolicy::Batmap,
            Kind::ZipfLevelwise => ReprPolicy::Hybrid,
        }
    }
}

fn generate(kind: Kind, seed: u64) -> TransactionDb {
    match kind {
        Kind::Uniform => datagen::uniform::generate(&datagen::UniformSpec {
            n_items: UNIFORM_ITEMS,
            density: UNIFORM_DENSITY,
            total_items: UNIFORM_OCCURRENCES,
            seed,
        }),
        Kind::ZipfLevelwise => datagen::webdocs::generate(&datagen::WebDocsSpec {
            documents: ZIPF_DOCUMENTS,
            mean_doc_len: ZIPF_MEAN_DOC_LEN,
            seed,
            ..Default::default()
        }),
    }
}

/// Sorted `(items, support)` of the itemsets of size ≥ 2.
fn normalized(itemsets: &[Itemset]) -> Vec<(Vec<u32>, u64)> {
    let mut v: Vec<(Vec<u32>, u64)> = itemsets
        .iter()
        .filter(|s| s.items.len() >= 2)
        .map(|s| {
            let mut items = s.items.clone();
            items.sort_unstable();
            (items, s.support)
        })
        .collect();
    v.sort_unstable();
    v
}

/// The workload's expected output, from the paper's comparator.
enum Oracle {
    Pairs(PairMap),
    Itemsets(Vec<(Vec<u32>, u64)>),
}

/// One timed call's result, reduced to what the workload checks.
struct Call {
    wall_s: f64,
    correct: bool,
    peak_bytes: usize,
}

struct Workload {
    kind: Kind,
    db: TransactionDb,
    pair: MinerConfig,
    oracle: Oracle,
}

impl Workload {
    fn levelwise(&self) -> LevelwiseMiner {
        LevelwiseMiner::new(LevelwiseConfig {
            depth: ZIPF_DEPTH,
            pair: self.pair.clone(),
            ..Default::default()
        })
    }

    /// One untraced end-to-end call: transactions in, report out.
    fn call(&self) -> Call {
        match self.kind {
            Kind::Uniform => {
                let t0 = Instant::now();
                let report = pairminer::mine(&self.db, &self.pair);
                let wall_s = t0.elapsed().as_secs_f64();
                let Oracle::Pairs(expected) = &self.oracle else {
                    unreachable!("uniform workload has a pair oracle")
                };
                Call {
                    wall_s,
                    correct: report.pairs == *expected,
                    peak_bytes: report.memory.peak_bytes(),
                }
            }
            Kind::ZipfLevelwise => {
                let miner = self.levelwise();
                let t0 = Instant::now();
                let report = miner.mine(&self.db);
                let wall_s = t0.elapsed().as_secs_f64();
                let Oracle::Itemsets(expected) = &self.oracle else {
                    unreachable!("levelwise workload has an itemset oracle")
                };
                Call {
                    wall_s,
                    correct: normalized(&report.itemsets) == *expected,
                    peak_bytes: report
                        .pair_report
                        .as_ref()
                        .map_or(0, |r| r.memory.peak_bytes()),
                }
            }
        }
    }
}

/// A consumer that discards tile counts: the sweep alone, no harvest.
struct Discard;

impl TileConsumer for Discard {
    fn consume(&mut self, _tile: &Tile, counts: &[u64]) {
        std::hint::black_box(counts);
    }

    fn absorb(&mut self, _other: Self) {}
}

/// Set-up repetitions after each timed call.
const SETUP_REPS_PER_CALL: usize = 3;
/// Traced passes over the pipeline.
const TRACED_REPS: u64 = 3;

pub fn run(
    kind: Kind,
    args: &Args,
    options: EngineOptions,
    roof: Option<&Roof>,
    out: &mut Outcome,
) {
    // Set-up: build the workload's transactions from the seed. It is
    // repeated after every timed call (outside the call's wall), so the
    // median `setup_s` samples the same stretch of the run as `wall_s`.
    let mut setup = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let db = generate(kind, args.seed);
        setup.push(t0.elapsed().as_secs_f64());
        db
    };
    let db = set_up();
    let minsup = match kind {
        Kind::Uniform => {
            println!(
                "minsup pinned to {UNIFORM_MINSUP} (bench::recommended_minsup of this instance: {})",
                bench::recommended_minsup(&db)
            );
            UNIFORM_MINSUP
        }
        Kind::ZipfLevelwise => ZIPF_MINSUP,
    };
    let repr = kind.repr();
    let pair = MinerConfig {
        k: TILE_SIDE,
        minsup,
        engine: Engine::Cpu,
        options: options.repr(repr),
        ..Default::default()
    };
    println!(
        "input: {} transactions, {} items, {} occurrences, minsup {minsup}, repr {repr}, \
         tile side {TILE_SIDE}, {THREADS} threads",
        db.len(),
        db.n_items(),
        db.total_items(),
    );

    // The oracle, outside the timed window: the paper's comparator.
    let t0 = Instant::now();
    let oracle = match kind {
        Kind::Uniform => Oracle::Pairs(fim::apriori::mine_pairs(&db, minsup)),
        Kind::ZipfLevelwise => {
            Oracle::Itemsets(normalized(&fim::fpgrowth::mine(&db, minsup, ZIPF_DEPTH)))
        }
    };
    let baseline_s = t0.elapsed().as_secs_f64();
    let expected_len = match &oracle {
        Oracle::Pairs(p) => p.len(),
        Oracle::Itemsets(s) => s.len(),
    };
    println!("oracle: {expected_len} itemsets in {baseline_s:.3} s");
    out.check(expected_len > 0, "the oracle found no frequent itemsets");
    let w = Workload {
        kind,
        db,
        pair,
        oracle,
    };

    // One warm-up call (checked, not timed), then calls until the
    // window closes; every call is checked against the oracle.
    let warm = w.call();
    out.attempt(warm.correct);
    let window = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < 3 || window.elapsed().as_secs_f64() < args.seconds {
        let call = w.call();
        out.attempt(call.correct);
        calls.push(call);
        for _ in 0..SETUP_REPS_PER_CALL {
            std::hint::black_box(set_up());
        }
    }
    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let wall_s = median(&walls);
    println!(
        "timed calls: {} (walls {:?} s), wrong answers: {}",
        calls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        out.failed
    );
    let mem_peak_bytes = calls.last().map_or(warm.peak_bytes, |c| c.peak_bytes);

    if !args.trace {
        out.set("setup_s", median(&setup));
        out.set("wall_s", wall_s);
        out.set("mem_peak_bytes", mem_peak_bytes as f64);
        return;
    }
    out.set("baseline.s", baseline_s);
    let roof = roof.expect("traced runs measure the roof first");
    traced(&w, wall_s, roof, args, out);
}

/// The traced pass: the same pipeline `mine` / `LevelwiseMiner::mine`
/// runs, split at the public calls, plus side probes for the sweep, the
/// failed-pair build, the Apriori join, and the multiway build.
fn traced(w: &Workload, untraced_wall: f64, roof: &Roof, args: &Args, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let db = &w.db;
    let cfg = &w.pair;
    let plan_for = |pre: &pairminer::Preprocessed| TilePlan::new(pre.padded_items(), cfg.k);
    let executor = ParallelCpuExecutor {
        parallelism: Parallelism::threads(crate::THREADS),
    };

    // `TRACED_REPS` passes, each the blocking path (request r) followed
    // by side probes of the stages `mine_preprocessed` runs internally
    // (request 100 + r); every stage reports its median.
    let mut stages: [Vec<f64>; 6] = Default::default();
    let mut sweeps = Vec::new();
    let mut last = None;
    for r in 1..=TRACED_REPS {
        let root = tr.open("mine", r);
        let (vertical, vertical_s) = tr.time("vertical", r, || VerticalDb::from_horizontal(db));
        let (pre, preprocess_s) = tr.time("preprocess", r, || {
            preprocess_with(
                &vertical,
                cfg.seed,
                cfg.max_loop,
                cfg.options.repr(w.kind.repr()),
            )
        });
        let (report, mine_pre_s) =
            tr.time("mine_preprocessed", r, || mine_preprocessed(db, &pre, cfg));
        let levelwise = (w.kind == Kind::ZipfLevelwise).then(|| {
            let miner = w.levelwise();
            tr.time("level3", r, || miner.mine_from_pairs(db, &report.pairs))
        });
        let traced_wall = tr.close(root);
        out.attempt(match (&w.oracle, &levelwise) {
            (Oracle::Pairs(expected), None) => report.pairs == *expected,
            (Oracle::Itemsets(expected), Some((lw, _))) => normalized(&lw.itemsets) == *expected,
            _ => false,
        });

        let (failed, failed_s) = tr.time("failed", 100 + r, || {
            FailedPairs::build(&pre.failed, db, &pre.item_to_sorted, cfg.k)
        });
        let plan = plan_for(&pre);
        let (_, sweep_s) = tr.time("sweep", 100 + r, || {
            executor.execute(&pre, &plan, || Discard)
        });
        sweeps.push(sweep_s);
        let level3_s = levelwise.as_ref().map_or(0.0, |(_, s)| *s);
        for (stage, v) in stages.iter_mut().zip([
            vertical_s,
            preprocess_s,
            mine_pre_s,
            level3_s,
            traced_wall,
            failed_s,
        ]) {
            stage.push(v);
        }
        last = Some((vertical, pre, report, levelwise, failed));
    }
    let [vertical_s, preprocess_s, mine_pre_s, level3_s, traced_wall, failed_s] =
        stages.map(|v| median(&v));
    // The fastest sweep: the derived harvest below subtracts it from the
    // median `mine_preprocessed`, and the sweep inside that call cannot
    // beat the sweep alone.
    let sweep_s = sweeps.iter().copied().fold(f64::INFINITY, f64::min);
    let (vertical, pre, report, levelwise, failed) = last.expect("at least one traced pass");
    let plan = plan_for(&pre);
    // Computed sweep traffic: every compared pair reads both payloads
    // (the CPU executors compare each unordered pair of the padded
    // corpus once), ignoring cache reuse.
    let payload_bytes: usize = (0..pre.padded_items())
        .map(|s| pre.payload(s).width_bytes())
        .sum();
    let sweep_bytes = (pre.padded_items().saturating_sub(1) * payload_bytes) as f64;
    let harvest_s = mine_pre_s - sweep_s - failed_s;

    let hist = pre.repr_histogram();
    out.set("vertical.s", vertical_s);
    out.set("preprocess.s", preprocess_s);
    out.set("preprocess.bytes", pre.heap_bytes() as f64);
    out.set(
        "preprocess.failed_frac",
        pre.failed.len() as f64 / db.total_items().max(1) as f64,
    );
    out.set(
        "preprocess.repr_batmap",
        hist[SetRepr::Batmap.tag() as usize] as f64,
    );
    out.set(
        "preprocess.repr_bitmap",
        hist[SetRepr::Bitmap.tag() as usize] as f64,
    );
    out.set(
        "preprocess.repr_tidlist",
        hist[SetRepr::Tidlist.tag() as usize] as f64,
    );
    out.set("sweep.s", sweep_s);
    out.set("sweep.tiles", plan.tiles().len() as f64);
    out.set("sweep.comparisons", plan.reported_comparisons() as f64);
    out.set("sweep.bytes", sweep_bytes);
    out.set(
        "sweep.roof_frac",
        sweep_bytes / sweep_s / (roof.at(crate::THREADS) * 1e9),
    );
    out.set("failed.s", failed_s);
    out.set("failed.pair_occurrences", failed.total() as f64);
    println!("  (derived) harvest.s = mine_preprocessed − sweep.s − failed.s");
    out.set("harvest.s", harvest_s);
    out.set(
        "harvest.yield",
        report.pairs.len() as f64 / report.comparisons.max(1) as f64,
    );

    let mut blocking = vertical_s + preprocess_s + failed_s + sweep_s + harvest_s;
    if let Some((lw, _)) = &levelwise {
        let level = lw.level(3).expect("depth 3 reports level 3");
        let (join_s, build_s) = level3_probes(w, db, &report.pairs, &vertical, &mut tr);
        out.set("level3.s", level3_s);
        out.set("level3.join_s", join_s);
        out.set("multiway.build_s", build_s);
        println!("  (derived) level3.count_s = level3.s − level3.join_s − multiway.build_s");
        out.set("level3.count_s", level3_s - join_s - build_s);
        out.set("level3.candidates", level.candidates as f64);
        out.set(
            "level3.frequent_frac",
            level.frequent as f64 / level.candidates.max(1) as f64,
        );
        out.set(
            "level3.batched_frac",
            level.batched as f64 / level.candidates.max(1) as f64,
        );
        out.set("levelwise.fallback_items", lw.fallback_items as f64);
        blocking += level3_s;
    }
    let gap = (blocking - traced_wall) / traced_wall;
    println!(
        "closure (medians of {TRACED_REPS}): vertical + preprocess + failed + sweep + \
         harvest{} = {blocking:.4} s vs traced wall {traced_wall:.4} s (gap {:+.2}%, \
         unattributed root self time {:.6} s in all)",
        if levelwise.is_some() { " + level3" } else { "" },
        gap * 100.0,
        tr.self_time("mine")
    );
    out.check(
        gap.abs() <= 0.10,
        format!("layer closure gap {gap:+.3} exceeds 10%"),
    );
    out.set("closure.gap_frac", gap);
    out.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    crate::write_trace(&tr, args);
}

/// Time the two level-3 stages `mine_from_pairs` runs before counting:
/// the Apriori join over the frequent pairs, and the multiway builds of
/// every item the candidates name (skipping the items a hybrid corpus
/// keeps as tidlists, as the levelwise engine does).
fn level3_probes(
    w: &Workload,
    db: &TransactionDb,
    pairs: &PairMap,
    vertical: &VerticalDb,
    tr: &mut Tracer,
) -> (f64, f64) {
    let mut l2: Vec<Vec<u32>> = pairs.keys().map(|&(a, b)| vec![a, b]).collect();
    l2.sort_unstable();
    let (candidates, join_s) = tr.time("level3.join", 2, || fim::apriori::generate_candidates(&l2));
    let config = LevelwiseConfig::default();
    let m = db.len().max(1) as u64;
    let params = Arc::new(
        MultiwayParams::new(m, ZIPF_DEPTH, config.multiway_seed)
            .with_max_loop(config.multiway_max_loop)
            .with_kernel(w.pair.options.kernel),
    );
    let gate =
        BatmapParams::with_options(m, w.pair.seed, w.pair.max_loop, pairminer::GPU_MIN_SHIFT);
    let repr = w.pair.options.repr.resolve();
    let mut items: Vec<u32> = candidates.iter().flatten().copied().collect();
    items.sort_unstable();
    items.dedup();
    let (maps, build_s) = tr.time("multiway.build", 2, || {
        items
            .iter()
            .filter_map(|&item| {
                let tidlist = vertical.tidlist(item);
                let chosen = repr.choose(tidlist.len(), gate.m(), gate.range_for(tidlist.len()));
                (chosen != SetRepr::Tidlist).then(|| {
                    MultiwayBatmap::build_with_growth(
                        params.clone(),
                        tidlist,
                        config.growth_doublings,
                    )
                })
            })
            .collect::<Vec<_>>()
    });
    std::hint::black_box(maps);
    (join_s, build_s)
}
