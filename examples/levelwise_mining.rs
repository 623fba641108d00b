//! Mining frequent k-itemsets beyond pairs — the paper's §V program as
//! a full levelwise engine.
//!
//! Generates a random transaction database, mines all frequent
//! itemsets up to size 4 with the `LevelwiseMiner` (level 2 from the
//! tiled pair pipeline, levels 3..4 by a prefix-class join and one
//! fold of exact bitmap rows per prefix group), prints the per-level
//! accounting, and cross-checks the result against the Apriori oracle.
//!
//! Run with: `cargo run --release --example levelwise_mining`

use batmap_suite::datagen::uniform::{generate, UniformSpec};
use batmap_suite::fim::apriori;
use batmap_suite::prelude::*;

fn main() {
    let db = generate(&UniformSpec {
        n_items: 24,
        density: 0.3,
        total_items: 30_000,
        seed: 0x1E7E1,
    });
    let minsup = 25;
    let depth = 4;
    println!(
        "db: {} transactions over {} items; mining itemsets of size 2..={depth} at minsup {minsup}\n",
        db.len(),
        db.n_items(),
    );

    let miner = LevelwiseMiner::new(LevelwiseConfig {
        depth,
        pair: MinerConfig {
            minsup,
            engine: Engine::Cpu,
            ..Default::default()
        },
        ..Default::default()
    });
    let report = miner.mine(&db);

    println!("level  candidates  frequent   join_s  build_s  count_s   wall_s");
    for level in &report.levels {
        println!(
            "{:>5}  {:>10}  {:>8}  {:>7.4}  {:>7.4}  {:>7.4}  {:>7.4}",
            level.k,
            level.candidates,
            level.frequent,
            level.join_s,
            level.build_s,
            level.count_s,
            level.wall_s
        );
    }
    println!("\n{} frequent itemsets total", report.itemsets.len());
    if let Some(largest) = report
        .itemsets
        .iter()
        .max_by_key(|s| (s.items.len(), s.support))
    {
        println!(
            "largest/most supported at max size: {:?} (support {})",
            largest.items, largest.support
        );
    }

    // Cross-check against the horizontal-scan Apriori oracle.
    let mut expect = apriori::mine(&db, minsup, depth);
    expect.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    assert_eq!(report.itemsets, expect);
    println!("\nApriori oracle agrees on all {} itemsets ✓", expect.len());
}
