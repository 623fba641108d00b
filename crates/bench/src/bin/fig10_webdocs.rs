//! Figure 10: computation time on WebDocs prefixes.
//!
//! The real corpus is substituted by the Zipf+Heaps generator
//! (ARCHITECTURE.md, "Deviations from the paper", item 2): the
//! experiment's essentials — the number of distinct items grows
//! rapidly with prefix size — are preserved. Paper's shape: Apriori's
//! time explodes on small prefixes already (its memory is quadratic in
//! the fast-growing vocabulary); FP-growth lasts longer; the GPU
//! algorithm solves the largest instance.

use bench::{fmt_opt_secs, recommended_minsup, HarnessConfig};
use datagen::webdocs::{self, WebDocsSpec};
use fim::{apriori, fpgrowth};
use hpcutil::{timer, Table};
use pairminer::{mine, MinerConfig};

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
    let mut table = Table::new(&["prefix", "distinct", "gpu_sim_s", "apriori_s", "fpgrowth_s"]);
    for &lines in &prefixes {
        let raw = webdocs::prefix(&corpus, lines);
        // Drop zero-support ids so n reflects the prefix's vocabulary
        // (all miners are compared on the same pruned instance).
        let (db, _) = raw.prune_infrequent(1);
        let distinct = db.n_items();
        let minsup = recommended_minsup(&db);
        let report = mine(
            &db,
            &MinerConfig {
                minsup,
                options: cfg.options,
                ..Default::default()
            },
        );
        let ap = match apriori::mine_pairs_capped(&db, minsup, cfg.apriori_budget) {
            Ok(_) => Some(timer::time(|| apriori::mine_pairs(&db, minsup)).1),
            Err(_) => None,
        };
        let (_, fp) = timer::time(|| fpgrowth::mine_pairs(&db, minsup));
        table.row_owned(vec![
            lines.to_string(),
            distinct.to_string(),
            format!("{:.4}", report.timings.kernel_s),
            fmt_opt_secs(ap, "OOM/trash"),
            format!("{fp:.3}"),
        ]);
    }
    table.print();
    println!("\nshape check: distinct items grow rapidly with prefix size; apriori");
    println!("explodes first; the gpu series solves the largest prefix.");
}
