//! Figure 10: computation time on WebDocs prefixes.
//!
//! The real corpus is substituted by the Zipf+Heaps generator
//! (ARCHITECTURE.md, "Deviations from the paper", item 2): the
//! experiment's essentials — the number of distinct items grows
//! rapidly with prefix size — are preserved. Paper's shape: Apriori's
//! time explodes on small prefixes already (its memory is quadratic in
//! the fast-growing vocabulary); FP-growth lasts longer; the GPU
//! algorithm solves the largest instance.
//!
//! At `recommended_minsup` the miner's tile plan skips the items below
//! minsup (ARCHITECTURE.md, "Deviations from the paper", item 6), so
//! the table reports both that mine's simulated kernel time and the
//! paper's all-pairs sweep: the identity plan over every item, run
//! through the same simulated device.

use bench::{fmt_opt_secs, recommended_minsup, HarnessConfig};
use datagen::webdocs::{self, WebDocsSpec};
use fim::{apriori, fpgrowth, VerticalDb};
use hpcutil::{timer, Table};
use pairminer::{
    mine, preprocess_with, Engine, GpuSimExecutor, MinerConfig, ReprPolicy, Tile, TileConsumer,
    TileExecutor, TilePlan,
};

/// Discards tile counts: the all-pairs sweep is timed, not harvested.
struct Discard;

impl TileConsumer for Discard {
    fn consume(&mut self, _tile: &Tile, counts: &[u64]) {
        std::hint::black_box(counts);
    }

    fn absorb(&mut self, _other: Self) {}
}

/// Simulated kernel seconds of the all-pairs sweep over `db`'s corpus,
/// built as `config`'s GPU mine builds it.
fn all_pairs_kernel_s(db: &fim::TransactionDb, config: &MinerConfig) -> f64 {
    let pre = preprocess_with(
        &VerticalDb::from_horizontal(db),
        config.seed,
        config.max_loop,
        config.options.repr(ReprPolicy::Batmap),
    );
    let Engine::Gpu(device) = &config.engine else {
        unreachable!("figure 10 mines on the simulated GPU")
    };
    let plan = TilePlan::new(pre.padded_items(), config.k);
    let (_, exec) = GpuSimExecutor { device }.execute(&pre, &plan, || Discard);
    exec.kernel_s
}

fn main() {
    let cfg = HarnessConfig::from_args();
    // Paper prefixes: 1600..51200 lines. Scaled default: 1/16 of that.
    let prefixes: Vec<usize> = if cfg.full {
        vec![1_600, 3_200, 6_400, 12_800, 25_600, 51_200]
    } else if cfg.quick {
        vec![100, 200, 400]
    } else {
        vec![100, 200, 400, 800, 1_600, 3_200]
    };
    let spec = WebDocsSpec {
        documents: *prefixes.last().unwrap(),
        mean_doc_len: if cfg.full { 177 } else { 60 },
        seed: cfg.seed,
        ..Default::default()
    };
    println!(
        "Figure 10 reproduction: synthetic WebDocs prefixes (docs={}, mean len={})",
        spec.documents, spec.mean_doc_len
    );
    let corpus = webdocs::generate(&spec);
    let mut table = Table::new(&[
        "prefix",
        "distinct",
        "planned",
        "gpu_sim_s",
        "gpu_all_pairs_s",
        "apriori_s",
        "fpgrowth_s",
    ]);
    for &lines in &prefixes {
        let raw = webdocs::prefix(&corpus, lines);
        // Drop zero-support ids so n reflects the prefix's vocabulary
        // (all miners are compared on the same pruned instance).
        let (db, _) = raw.prune_infrequent(1);
        let distinct = db.n_items();
        let minsup = recommended_minsup(&db);
        let config = MinerConfig {
            minsup,
            options: cfg.options,
            ..Default::default()
        };
        let report = mine(&db, &config);
        let all_pairs_s = all_pairs_kernel_s(&db, &config);
        let ap = match apriori::mine_pairs_capped(&db, minsup, cfg.apriori_budget) {
            Ok(_) => Some(timer::time(|| apriori::mine_pairs(&db, minsup)).1),
            Err(_) => None,
        };
        let (_, fp) = timer::time(|| fpgrowth::mine_pairs(&db, minsup));
        table.row_owned(vec![
            lines.to_string(),
            distinct.to_string(),
            report.planned_items.to_string(),
            format!("{:.4}", report.timings.kernel_s),
            format!("{all_pairs_s:.4}"),
            fmt_opt_secs(ap, "OOM/trash"),
            format!("{fp:.3}"),
        ]);
    }
    table.print();
    println!("\nshape check: distinct items grow rapidly with prefix size; apriori");
    println!("explodes first; the gpu series solves the largest prefix; the pruned");
    println!("mine (gpu_sim_s) never exceeds the all-pairs sweep (gpu_all_pairs_s).");
}
