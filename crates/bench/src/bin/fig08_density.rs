//! Figure 8: pair-generation time vs item density.
//!
//! Instance size and n fixed; density swept over 0.001..0.1. Paper's
//! shape: Apriori and FP-growth degrade as instances get denser, while
//! the GPU series is almost density-independent — except a *rise at
//! very low density*, caused by the compression floor (`r ≥ 2^s`,
//! §III-A): sparse sets cannot shrink below the minimum table size.

use bench::{fmt_opt_secs, paper_instance, recommended_minsup, HarnessConfig};
use fim::{apriori, fpgrowth};
use hpcutil::{timer, Table};
use pairminer::{mine, MinerConfig};

fn main() {
    let cfg = HarnessConfig::from_args();
    let n = cfg.density_n();
    println!(
        "Figure 8 reproduction: time vs density (total={} items, n={n})",
        cfg.total_items()
    );
    let mut table = Table::new(&[
        "density",
        "gpu_sim_s",
        "apriori_s",
        "fpgrowth_s",
        "batmap_w_bytes",
    ]);
    for density in cfg.density_sweep() {
        let db = paper_instance(&cfg, n, density);
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
        // Representative batmap width: device bytes per uploaded set
        // (the device holds only the sets the tile plan covers).
        let width = report.memory.device_bytes / report.planned_items.max(1);
        table.row_owned(vec![
            format!("{density}"),
            format!("{:.4}", report.timings.kernel_s),
            fmt_opt_secs(ap, "OOM/trash"),
            format!("{fp:.3}"),
            width.to_string(),
        ]);
    }
    table.print();
    println!("\nshape check: gpu flat vs density except an uptick at the lowest densities");
    println!("(compression floor, §III-A); CPU baselines degrade with density.");
}
