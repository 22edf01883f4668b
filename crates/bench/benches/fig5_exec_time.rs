//! Figure 5: execution-time breakdown for the seven Fig. 5 applications,
//! at 32/64/128-byte cache lines, without (N) and with (L) the
//! relocation-based locality optimizations.
//!
//! Bars are normalized to each application's N case at 32 B = 100, and
//! split into the paper's graduation-slot categories: busy, load stall,
//! store stall and inst stall. The parenthesized percentage is the speedup
//! of L over N at the same line size.

use memfwd_apps::{App, Variant};
use memfwd_bench::paper::{fig5_cells, Cell, Grid};
use memfwd_bench::{breakdown, scale_from_env, speedup_pct, write_csv, LINE_SIZES};

fn main() {
    let grid = Grid::compute(fig5_cells(), scale_from_env());
    let mut csv = Vec::new();
    println!("Figure 5: execution time breakdown (normalized to N @ 32B = 100)");
    let header = format!(
        "{:<10} {:>4} {:>4} {:>7} {:>6} {:>6} {:>6} {:>6}  {:>8}",
        "app", "line", "case", "total", "busy", "load", "store", "inst", "speedup"
    );
    memfwd_bench::print_header(&header);
    for app in App::FIG5 {
        let ref_cycles = grid[Cell::new(app, Variant::Original, 32)].stats.cycles();
        for lb in LINE_SIZES {
            let n = &grid[Cell::new(app, Variant::Original, lb)];
            let l = &grid[Cell::new(app, Variant::Optimized, lb)];
            for (case, out) in [("N", n), ("L", l)] {
                let [total, busy, load, store, inst] = breakdown(out, ref_cycles);
                let annot = if case == "L" {
                    format!("({})", speedup_pct(n.stats.cycles(), l.stats.cycles()))
                } else {
                    String::new()
                };
                println!(
                    "{:<10} {:>3}B {:>4} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}  {:>8}",
                    app.name(),
                    lb,
                    case,
                    total,
                    busy,
                    load,
                    store,
                    inst,
                    annot
                );
                csv.push(format!(
                    "{app},{lb},{case},{total:.2},{busy:.2},{load:.2},{store:.2},{inst:.2},{}",
                    out.stats.cycles()
                ));
            }
        }
        println!();
    }
    let header = "app,line_bytes,case,total,busy,load_stall,store_stall,inst_stall,cycles";
    write_csv("fig5_exec_time", header, &csv);
}
