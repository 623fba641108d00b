//! Match-count kernel micro-benchmarks, on a non-cache-resident working
//! set.
//!
//! Two axes:
//! * **backend** — every [`batmap::MatchKernel`] backend available on
//!   this CPU (scalar reference, the paper's u32 formulation, the u64
//!   popcount widening, and the NEON/AVX2/AVX-512 SIMD kernels where the
//!   hardware has them), dispatched exactly as the intersection hot
//!   path does;
//! * **dispatch ablation** — the raw u32 formulation called statically,
//!   to show the trait-object indirection costs nothing measurable at
//!   slice granularity.

use batmap::{available_backends, swar};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn data(words: usize) -> (Vec<u8>, Vec<u8>) {
    let a: Vec<u8> = (0..words)
        .flat_map(|i| (i as u32).wrapping_mul(2654435761).to_le_bytes())
        .collect();
    let b: Vec<u8> = (0..words)
        .flat_map(|i| (i as u32).wrapping_mul(40503).to_le_bytes())
        .collect();
    (a, b)
}

fn bench_swar(c: &mut Criterion) {
    let words = 1 << 18; // 1 MiB per array
    let (bytes_a, bytes_b) = data(words);
    let mut g = c.benchmark_group("swar");
    g.throughput(Throughput::Bytes((words * 8) as u64));
    // The backend axis: the same dispatch the intersection path uses.
    // Unavailable backends (e.g. avx2 on older CPUs) are skipped, not
    // silently downgraded into duplicate measurements.
    for backend in available_backends() {
        let kernel = backend.kernel();
        g.bench_function(BenchmarkId::new(backend.name(), words), |bench| {
            bench.iter(|| black_box(kernel.count_equal_width(&bytes_a, &bytes_b)))
        });
    }
    // Dispatch ablation: the raw u32 formulation without the trait.
    g.bench_function(BenchmarkId::new("u32_paper_static", words), |bench| {
        bench.iter(|| {
            let mut acc = 0u64;
            for (cx, cy) in bytes_a.chunks_exact(4).zip(bytes_b.chunks_exact(4)) {
                let x = u32::from_le_bytes(cx.try_into().unwrap());
                let y = u32::from_le_bytes(cy.try_into().unwrap());
                acc += swar::match_count_u32(x, y) as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_swar
}
criterion_main!(benches);
