//! Batched one-vs-many intersection driver: batch-size sweep.
//!
//! Measures `batmap::intersect::count_one_vs_many_into` against the
//! naive per-pair loop it replaced, for growing candidate batches, per
//! available backend (pinned on the fixture's universe parameters). The
//! batched driver dispatches the backend once per batch and sweeps
//! equal-width candidates in register-blocked groups (each probe
//! register load amortized across the block), so the gap over the
//! per-pair loop should widen with the batch size — that trajectory is
//! the point of this bench.

use batmap::{available_backends, intersect, KernelBackend};
use bench::{one_vs_many_fixture, ONE_VS_MANY_SET};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_one_vs_many(c: &mut Criterion) {
    let mut g = c.benchmark_group("one_vs_many");
    for batch in [1usize, 4, 16, 64] {
        // The cache-resident row `perf_suite`'s kernel-ladder and
        // batched-row gates measure, so the numbers stay comparable.
        let (probe, many) =
            one_vs_many_fixture(batch, ONE_VS_MANY_SET, 0x1A7E, KernelBackend::Auto);
        // Both arrays of every comparison count (the repo convention —
        // see benches/{swar,intersect}): `batch` comparisons, each over
        // probe-width + candidate-width bytes. Counting the probe once
        // would understate large batches ~2x vs batch=1 and skew
        // exactly the batch-size trajectory this bench exists to show.
        g.throughput(Throughput::Bytes((2 * batch * probe.width_bytes()) as u64));
        for backend in available_backends() {
            let (probe, many) = one_vs_many_fixture(batch, ONE_VS_MANY_SET, 0x1A7E, backend);
            g.bench_function(
                BenchmarkId::new(format!("batched_{}", backend.name()), batch),
                |bench| {
                    let mut out = vec![0u64; many.len()];
                    bench.iter(|| {
                        intersect::count_one_vs_many_into(&probe, &many, &mut out);
                        black_box(out[0])
                    })
                },
            );
        }
        // The per-pair loop the driver replaced: one backend dispatch
        // and one fingerprint check per pair (monomorphized since this
        // same change, so the batched driver's win comes from per-batch
        // dispatch and register-blocked probe reuse, not from removed
        // virtual calls).
        g.bench_function(BenchmarkId::new("per_pair_auto", batch), |bench| {
            bench.iter(|| {
                let total: u64 = many.iter().map(|b| probe.intersect_count(b)).sum();
                black_box(total)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_one_vs_many
}
criterion_main!(benches);
