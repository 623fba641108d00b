//! STREAM-style read-bandwidth roof (McCalpin's STREAM; Williams,
//! Waterman & Patterson, "Roofline", CACM 2009).
//!
//! One array of at least four times the last-level cache is summed by
//! one thread and then split across two; the best pass of each is the
//! roof the tile sweep is held against.

use std::time::Instant;

/// Array size: 4 × the 105 MiB L3 of the reference machine, rounded up.
pub const ROOF_ARRAY_BYTES: usize = 448 << 20;
const PASSES: usize = 4;

/// Read bandwidth in GB/s (10⁹ bytes per second) at 1 and 2 threads.
#[derive(Debug, Clone, Copy)]
pub struct Roof {
    pub gbps_1t: f64,
    pub gbps_2t: f64,
}

impl Roof {
    /// The roof at `threads` workers (the 2-thread figure above two).
    pub fn at(&self, threads: usize) -> f64 {
        if threads <= 1 {
            self.gbps_1t
        } else {
            self.gbps_2t
        }
    }
}

fn sum(words: &[u64]) -> u64 {
    // Four independent accumulators keep the loop bandwidth-bound
    // rather than add-latency-bound.
    let mut acc = [0u64; 4];
    for chunk in words.chunks_exact(4) {
        for (a, &w) in acc.iter_mut().zip(chunk) {
            *a = a.wrapping_add(w);
        }
    }
    acc.iter().fold(0, |s, &a| s.wrapping_add(a))
}

fn best_gbps(words: &[u64], threads: usize) -> f64 {
    let bytes = std::mem::size_of_val(words) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let total = std::thread::scope(|s| {
            let parts: Vec<_> = words
                .chunks(words.len().div_ceil(threads))
                .map(|part| s.spawn(move || sum(std::hint::black_box(part))))
                .collect();
            parts
                .into_iter()
                .map(|p| p.join().expect("roof worker"))
                .fold(0u64, u64::wrapping_add)
        });
        std::hint::black_box(total);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    bytes / best / 1e9
}

/// Measure the roof. Allocates [`ROOF_ARRAY_BYTES`] for the duration.
pub fn measure() -> Roof {
    let words: Vec<u64> = (0..ROOF_ARRAY_BYTES / 8).map(|i| i as u64).collect();
    Roof {
        gbps_1t: best_gbps(&words, 1),
        gbps_2t: best_gbps(&words, 2),
    }
}
