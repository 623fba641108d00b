//! Quickstart: build batmaps for a handful of sets and count
//! intersections with the branch-free positional sweep.
//!
//! Run with: `cargo run --release --example quickstart`

use batmap_suite::prelude::*;
use std::sync::Arc;

fn main() {
    // A universe of 100,000 possible elements (e.g. transaction ids).
    // Everything that will ever be intersected must share these
    // parameters — they fix the three hash permutations.
    let params = Arc::new(BatmapParams::new(100_000, 0xB47));
    println!("universe m = {}", params.m());
    println!(
        "compression shift s = {} (minimum table range {})",
        params.shift(),
        params.r0()
    );

    // Three sets. `build` returns a BuildOutcome: the batmap plus any
    // failed insertions (rare at the sizing rule's load ≤ 4/9; none for
    // these sets).
    let evens: Vec<u32> = (0..20_000).map(|i| i * 2).collect();
    let threes: Vec<u32> = (0..13_000).map(|i| i * 3).collect();
    let small: Vec<u32> = (0..500).map(|i| i * 101).collect();

    let a = Batmap::build(params.clone(), &evens).batmap;
    let b = Batmap::build(params.clone(), &threes).batmap;
    let c = Batmap::build(params.clone(), &small).batmap;

    for (name, bm) in [("evens", &a), ("threes", &b), ("small", &c)] {
        println!(
            "{name}: {} elements, width {} bytes ({:.2} bits/element)",
            bm.len(),
            bm.width_bytes(),
            bm.bits_per_element()
        );
    }

    // Intersection counts are exact, including between batmaps of
    // different widths (the smaller one is folded modulo its range).
    println!(
        "\n|evens ∩ threes| = {} (multiples of 6)",
        a.intersect_count(&b)
    );
    println!("|evens ∩ small|  = {}", a.intersect_count(&c));
    println!("|threes ∩ small| = {}", b.intersect_count(&c));

    // Verify one of them against exact set intersection.
    let threes_set: std::collections::HashSet<u32> = threes.iter().copied().collect();
    let expect = evens.iter().filter(|x| threes_set.contains(x)).count() as u64;
    assert_eq!(a.intersect_count(&b), expect);
    println!("\nverified against exact counting ✓");

    // Membership is exact too.
    assert!(a.contains(39_998) && !a.contains(39_999));
    println!("membership queries ✓");
}
