//! Multiway intersection (§V extension): the d-of-(d+1) positional
//! sweep vs probe counting on ordinary batmaps, for k = 2, 3, 4; and
//! one dense sweep per candidate for a base of k−1 maps against 64
//! candidates.

use batmap::{intersect_count_probe, Batmap, BatmapParams, MultiwayBatmap, MultiwayParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_multiway(c: &mut Criterion) {
    let m = 1 << 17;
    let sets: Vec<Vec<u32>> = [2u32, 3, 5, 7]
        .iter()
        .map(|&q| (0..m).filter(|x| x % q == 0).collect())
        .collect();
    let mp = Arc::new(MultiwayParams::new(m as u64, 4, 0x3A7));
    let mmaps: Vec<MultiwayBatmap> = sets
        .iter()
        .map(|s| MultiwayBatmap::build(mp.clone(), s).expect("load is safe"))
        .collect();
    // 64 candidates of 1.7k–12k elements: narrower than the base
    // operands, as rarer extensions of a frequent prefix are.
    let cmaps: Vec<MultiwayBatmap> = (0..64u32)
        .map(|i| {
            let q = 11 + i;
            let s: Vec<u32> = (0..m).filter(|x| x % q == i % 3).collect();
            MultiwayBatmap::build_with_growth(mp.clone(), &s, 2).expect("growth recovers")
        })
        .collect();
    let crefs: Vec<&MultiwayBatmap> = cmaps.iter().collect();
    let pp = Arc::new(BatmapParams::new(m as u64, 0x3A8));
    let pmaps: Vec<Batmap> = sets
        .iter()
        .map(|s| Batmap::build_sorted(pp.clone(), s).batmap)
        .collect();
    let mut g = c.benchmark_group("multiway");
    for k in [2usize, 3, 4] {
        let mrefs: Vec<&MultiwayBatmap> = mmaps[..k].iter().collect();
        let prefs: Vec<&Batmap> = pmaps[..k].iter().collect();
        g.bench_function(BenchmarkId::new("d_of_d1_sweep", k), |b| {
            b.iter(|| black_box(MultiwayBatmap::intersect_count(&mrefs)))
        });
        g.bench_function(BenchmarkId::new("probe_2of3", k), |b| {
            b.iter(|| black_box(intersect_count_probe(&prefs)))
        });
        let base = &mrefs[..k - 1];
        g.bench_function(BenchmarkId::new("dense_per_candidate", k), |b| {
            b.iter(|| {
                let mut ops = base.to_vec();
                ops.push(crefs[0]);
                for &cand in &crefs {
                    ops[k - 1] = cand;
                    black_box(MultiwayBatmap::intersect_count(&ops));
                }
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_multiway
}
criterion_main!(benches);
