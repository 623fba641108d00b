//! Multiway intersection — the paper's §V extension in action.
//!
//! Conjunctive queries over more than two predicates (§I lists
//! conjunctive queries as a motivating application): find how many
//! transactions satisfy *all* of k predicates, each predicate given as
//! the set of matching transaction ids.
//!
//! Demonstrates both §V directions: the d-of-(d+1) structure (one
//! positional sweep for up to d sets) and probe counting on ordinary
//! 2-of-3 batmaps.
//!
//! Run with: `cargo run --release --example multiway`

use batmap::{intersect_count_probe, Batmap, BatmapParams, MultiwayBatmap, MultiwayParams};
use std::sync::Arc;

fn main() {
    let m = 200_000u64; // transaction universe

    // Four predicate result sets with known overlap structure.
    let pred_a: Vec<u32> = (0..m as u32).filter(|x| x % 2 == 0).collect(); // even
    let pred_b: Vec<u32> = (0..m as u32).filter(|x| x % 3 == 0).collect(); // div 3
    let pred_c: Vec<u32> = (0..m as u32).filter(|x| x % 5 == 0).collect(); // div 5
    let pred_d: Vec<u32> = (0..m as u32).filter(|x| x % 7 == 0).collect(); // div 7

    // --- §V direction 1: d-of-(d+1) batmaps, d = 4 -------------------
    let mp = Arc::new(MultiwayParams::new(m, 4, 0x5E7));
    println!(
        "building 4-of-5 multiway batmaps over m = {m} ({} tables each)…",
        mp.tables()
    );
    let ma = MultiwayBatmap::build(mp.clone(), &pred_a).expect("no failures at this load");
    let mb = MultiwayBatmap::build(mp.clone(), &pred_b).expect("no failures");
    let mc = MultiwayBatmap::build(mp.clone(), &pred_c).expect("no failures");
    let md = MultiwayBatmap::build(mp, &pred_d).expect("no failures");

    let two = MultiwayBatmap::intersect_count(&[&ma, &mb]);
    let three = MultiwayBatmap::intersect_count(&[&ma, &mb, &mc]);
    let four = MultiwayBatmap::intersect_count(&[&ma, &mb, &mc, &md]);
    println!("|A ∩ B|          = {two}  (expect {})", m.div_ceil(6));
    println!("|A ∩ B ∩ C|      = {three}  (expect {})", m.div_ceil(30));
    println!("|A ∩ B ∩ C ∩ D|  = {four}  (expect {})", m.div_ceil(210));
    assert_eq!(two, m.div_ceil(6));
    assert_eq!(three, m.div_ceil(30));
    assert_eq!(four, m.div_ceil(210));
    println!("all counts exact ✓");

    // --- §V direction 2: probe counting on plain 2-of-3 batmaps ------
    let pp = Arc::new(BatmapParams::new(m, 0x9E7));
    let ba = Batmap::build(pp.clone(), &pred_a).batmap;
    let bb = Batmap::build(pp.clone(), &pred_b).batmap;
    let bc = Batmap::build(pp.clone(), &pred_c).batmap;
    let bd = Batmap::build(pp, &pred_d).batmap;
    let probed = intersect_count_probe(&[&ba, &bb, &bc, &bd]);
    assert_eq!(probed, four);
    println!("probe counting agrees: {probed} ✓");

    println!(
        "\nstorage: 4-of-5 structure {} B/set avg vs 2-of-3 compressed {} B/set avg",
        (ma.storage_bytes() + mb.storage_bytes() + mc.storage_bytes() + md.storage_bytes()) / 4,
        (ba.width_bytes() + bb.width_bytes() + bc.width_bytes() + bd.width_bytes()) / 4,
    );
    println!("(the multiway structure is the uncompressed §V reference; compressing");
    println!("it like §III-A is future work: ARCHITECTURE.md, \"Deviations from the paper\")");
}
