//! Figure 10: the impact of forwarding overhead on SMV — the one
//! application where relocated data is actually reached through stale
//! (tree) pointers. Four panels, as in the paper:
//!
//! (a) execution time for N (original), L (hash-list linearization with
//!     real forwarding) and Perf (the perfect-forwarding bound);
//! (b) load and store D-cache misses;
//! (c) fraction of loads/stores requiring forwarding, by hop count;
//! (d) average cycles to complete a load/store, split into forwarding and
//!     ordinary components.

use memfwd_apps::AppOutput;
use memfwd_bench::paper::{fig10_cells, Grid};
use memfwd_bench::scale_from_env;

fn main() {
    let cells = fig10_cells();
    let grid = Grid::compute(cells, scale_from_env());
    let [n, l, p] = cells.map(|c| &grid[c]);

    let base = n.stats.cycles() as f64;
    println!("Figure 10(a): SMV execution time (N = 100)");
    println!("  N    {:>7.1}", 100.0);
    println!("  L    {:>7.1}", l.stats.cycles() as f64 / base * 100.0);
    println!("  Perf {:>7.1}", p.stats.cycles() as f64 / base * 100.0);
    println!();

    println!("Figure 10(b): D-cache misses (N = 100)");
    let miss =
        |o: &AppOutput| (o.stats.cache.loads.misses() + o.stats.cache.stores.misses()) as f64;
    for (name, o) in [("N", n), ("L", l), ("Perf", p)] {
        println!(
            "  {:<4} {:>7.1}   (loads {:>8}, stores {:>8})",
            name,
            miss(o) / miss(n) * 100.0,
            o.stats.cache.loads.misses(),
            o.stats.cache.stores.misses()
        );
    }
    println!();

    println!("Figure 10(c): fraction of references requiring forwarding (scheme L)");
    let f = &l.stats.fwd;
    println!(
        "  loads : {:>5.1}% forwarded (by hops: 1:{} 2:{} 3+:{})",
        f.forwarded_load_fraction() * 100.0,
        f.load_hops[1],
        f.load_hops[2],
        f.load_hops[3..].iter().sum::<u64>(),
    );
    println!(
        "  stores: {:>5.1}% forwarded (by hops: 1:{} 2:{} 3+:{})",
        f.forwarded_store_fraction() * 100.0,
        f.store_hops[1],
        f.store_hops[2],
        f.store_hops[3..].iter().sum::<u64>(),
    );
    println!();

    println!("Figure 10(d): average cycles to complete a reference");
    let header = format!(
        "  {:<6} {:>14} {:>14} {:>14}",
        "scheme", "load fwd/ord", "store fwd/ord", ""
    );
    println!("{header}");
    for (name, o) in [("N", n), ("L", l), ("Perf", p)] {
        let (lf, lo) = o.stats.fwd.avg_load_cycles();
        let (sf, so) = o.stats.fwd.avg_store_cycles();
        println!(
            "  {:<6} {:>6.1} /{:>6.1} {:>6.1} /{:>6.1}",
            name, lf, lo, sf, so
        );
    }
}
