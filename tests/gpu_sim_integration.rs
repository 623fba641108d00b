//! Integration tests of the GPU simulator against the pipeline: the
//! performance model must behave like the §IV evaluation expects.

use datagen::uniform::{generate, UniformSpec};
use fim::VerticalDb;
use gpu_sim::{DeviceSpec, KernelStats};
use pairminer::gpu::{run_tile, DeviceData};
use pairminer::{preprocess, schedule};

fn pre_for(n: u32, total: usize, density: f64) -> pairminer::Preprocessed {
    let db = generate(&UniformSpec {
        n_items: n,
        density,
        total_items: total,
        seed: 99,
    });
    let v = VerticalDb::from_horizontal(&db);
    preprocess(&v, 99, 128)
}

fn total_sim(pre: &pairminer::Preprocessed, device: &DeviceSpec) -> (f64, KernelStats) {
    let data = DeviceData::upload(pre);
    let mut secs = 0.0;
    let mut stats = KernelStats::default();
    for tile in schedule(pre.padded_items(), 2048) {
        let r = run_tile(device, &data, tile);
        secs += r.report.seconds();
        stats += r.report.stats;
    }
    (secs, stats)
}

#[test]
fn simulated_time_is_linear_in_item_count() {
    // Fixed per-set shape (same m, same |S|), doubling n: the
    // triangular schedule's work is ~quadratic in n, so per-pair cost
    // stays constant; the paper's Fig. 6 "GPU linear in n" claim is
    // about fixed total size (sets shrink as n grows), checked below.
    // Both instances fill the device (64 and 256 groups over 30 SMs);
    // at 4 groups most SMs idle and a group's cost is not scale-free.
    let device = DeviceSpec::gtx285();
    let (t1, s1) = total_sim(&pre_for(128, 128 * 500, 0.05), &device);
    let (t2, s2) = total_sim(&pre_for(256, 256 * 500, 0.05), &device);
    let per_pair1 = t1 / s1.groups as f64;
    let per_pair2 = t2 / s2.groups as f64;
    let ratio = per_pair2 / per_pair1;
    assert!(
        (0.5..2.0).contains(&ratio),
        "per-group cost should be scale-free: {per_pair1} vs {per_pair2}"
    );
}

#[test]
fn fixed_total_size_means_near_linear_gpu_time() {
    // The Fig. 6 setting: total size fixed, n doubles → sets halve.
    // Batmap widths halve too, so total comparison bytes ~(n² · w/n)
    // stay ~linear in n.
    let device = DeviceSpec::gtx285();
    let total = 60_000;
    let (t1, _) = total_sim(&pre_for(64, total, 0.05), &device);
    let (t2, _) = total_sim(&pre_for(128, total, 0.05), &device);
    let growth = t2 / t1;
    assert!(
        (1.2..3.5).contains(&growth),
        "doubling n at fixed size should ~double GPU time, got ×{growth:.2}"
    );
}

#[test]
fn density_independence_with_low_density_uptick() {
    // Fig. 8's shape: simulated time roughly flat in density at fixed
    // instance size, except *rising* at very low density (compression
    // floor r ≥ 2^s forces wide batmaps).
    let device = DeviceSpec::gtx285();
    let total = 50_000;
    let n = 64;
    let (t_mid, _) = total_sim(&pre_for(n, total, 0.02), &device);
    let (t_dense, _) = total_sim(&pre_for(n, total, 0.2), &device);
    let (t_sparse, _) = total_sim(&pre_for(n, total, 0.0005), &device);
    // Dense vs mid: same order of magnitude.
    let flat = t_dense / t_mid;
    assert!(
        (0.2..5.0).contains(&flat),
        "density 0.2 vs 0.02 should be comparable, got ×{flat:.2}"
    );
    // Sparse should be *slower* than mid (the uptick).
    assert!(
        t_sparse > t_mid,
        "expected low-density uptick: sparse {t_sparse} vs mid {t_mid}"
    );
}

#[test]
fn kernel_time_beats_measured_cpu_time_by_construction() {
    // The paper's ~5× GPU>CPU margin is hardware-dependent; the model
    // must at least produce a simulated device time far below a single
    // host core's measured time for the same comparisons.
    let pre = pre_for(96, 80_000, 0.05);
    let device = DeviceSpec::gtx285();
    let (sim, _) = total_sim(&pre, &device);
    let t0 = std::time::Instant::now();
    for tile in schedule(pre.padded_items(), 2048) {
        std::hint::black_box(pairminer::cpu::run_tile_cpu(&pre, &tile));
    }
    let cpu = t0.elapsed().as_secs_f64();
    assert!(
        sim < cpu,
        "simulated GTX285 ({sim:.4}s) should beat one host core ({cpu:.4}s)"
    );
}

#[test]
fn watchdog_respected_with_paper_tile_size() {
    let pre = pre_for(128, 60_000, 0.05);
    let device = DeviceSpec::gtx285();
    let data = DeviceData::upload(&pre);
    for tile in schedule(pre.padded_items(), 2048) {
        let r = run_tile(&device, &data, tile);
        assert!(
            !r.report.exceeds_watchdog(&device),
            "k=2048 must keep every launch under the display watchdog"
        );
    }
}
