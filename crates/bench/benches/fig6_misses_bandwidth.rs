//! Figure 6: (a) load D-cache misses split into partial and full misses,
//! and (b) bytes transferred L1↔L2 and L2↔memory — both normalized to each
//! application's N case at 32 B = 100.

use memfwd_apps::{App, Variant};
use memfwd_bench::paper::{fig5_cells, Cell, Grid};
use memfwd_bench::{scale_from_env, write_csv, LINE_SIZES};

const CASES: [(&str, Variant); 2] = [("N", Variant::Original), ("L", Variant::Optimized)];

fn main() {
    let grid = Grid::compute(fig5_cells(), scale_from_env());
    let cells = || LINE_SIZES.into_iter().flat_map(|lb| CASES.map(|c| (lb, c)));
    let mut csv = Vec::new();
    table("6(a): load D-cache misses", ["total", "partial", "full"]);
    for app in App::FIG5 {
        let (rp, rf) = grid[Cell::new(app, Variant::Original, 32)]
            .stats
            .load_misses();
        let ref_misses = (rp + rf).max(1) as f64;
        for (lb, (case, variant)) in cells() {
            let stats = grid[Cell::new(app, variant, lb)].stats;
            let (p, f) = stats.load_misses();
            row(
                app,
                lb,
                case,
                [p + f, p, f].map(|m| m as f64 / ref_misses * 100.0),
            );
            csv.push(format!(
                "{app},{lb},{case},{p},{f},{},{}",
                stats.bytes_l1_l2, stats.bytes_l2_mem
            ));
        }
        println!();
    }
    table("6(b): bandwidth consumed", ["total", "L1<->L2", "L2<->mem"]);
    for (i, app) in App::FIG5.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        let r = grid[Cell::new(app, Variant::Original, 32)].stats;
        let ref_bw = (r.bytes_l1_l2 + r.bytes_l2_mem).max(1) as f64;
        for (lb, (case, variant)) in cells() {
            let stats = grid[Cell::new(app, variant, lb)].stats;
            let [b12, bmem] =
                [stats.bytes_l1_l2, stats.bytes_l2_mem].map(|b| b as f64 / ref_bw * 100.0);
            row(app, lb, case, [b12 + bmem, b12, bmem]);
        }
    }
    let header = "app,line_bytes,case,partial_misses,full_misses,bytes_l1_l2,bytes_l2_mem";
    write_csv("fig6_misses_bandwidth", header, &csv);
}

/// Prints a panel's title and column header.
fn table(panel: &str, [a, b, c]: [&str; 3]) {
    println!("Figure {panel} (normalized to N @ 32B = 100)");
    let header = format!(
        "{:<10} {:>4} {:>4} {a:>8} {b:>8} {c:>8}",
        "app", "line", "case"
    );
    memfwd_bench::print_header(&header);
}

/// Prints one normalized row.
fn row(app: App, lb: u64, case: &str, [a, b, c]: [f64; 3]) {
    println!(
        "{:<10} {lb:>3}B {case:>4} {a:>8.1} {b:>8.1} {c:>8.1}",
        app.name()
    );
}
