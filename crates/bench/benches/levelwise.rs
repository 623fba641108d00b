//! Levelwise k-itemset mining: one depth sweep (d = 3, 4, 5) of the
//! prefix-fold engine vs the horizontal-scan Apriori oracle. The engine
//! is seeded from precomputed frequent pairs, so its measured work is
//! the vertical conversion and item rows plus candidate generation and
//! support counting for levels ≥ 3. Every item of this corpus has more
//! tids than its row has words, so prefixes fold by AND and extensions
//! count by AND + popcount. The oracle runs whole, its pair count
//! included.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::uniform::{generate, UniformSpec};
use fim::apriori;
use pairminer::{mine, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig, Parallelism};
use std::hint::black_box;

fn bench_levelwise(c: &mut Criterion) {
    let minsup = 20u64;
    let db = generate(&UniformSpec {
        n_items: 24,
        density: 0.3,
        total_items: 20_000,
        seed: 0xBD5,
    });
    let pairs = mine(
        &db,
        &MinerConfig {
            minsup,
            engine: Engine::Cpu,
            ..Default::default()
        },
    )
    .pairs;
    let mut g = c.benchmark_group("levelwise");
    for depth in [3usize, 4, 5] {
        let miner = LevelwiseMiner::new(LevelwiseConfig {
            depth,
            pair: MinerConfig {
                minsup,
                engine: Engine::Cpu,
                options: batmap::EngineOptions::auto().threads(Parallelism::Serial),
                ..Default::default()
            },
            ..Default::default()
        });
        g.bench_function(BenchmarkId::new("prefix_fold", depth), |b| {
            b.iter(|| black_box(miner.mine_from_pairs(&db, &pairs).itemsets.len()))
        });
        g.bench_function(BenchmarkId::new("apriori_oracle", depth), |b| {
            b.iter(|| black_box(apriori::mine(&db, minsup, depth).len()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_levelwise
}
criterion_main!(benches);
