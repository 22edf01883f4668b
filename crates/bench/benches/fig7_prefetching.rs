//! Figure 7: interaction of the locality optimizations with software
//! prefetching, at 32-byte lines. Four cases per application:
//! N (original), L (locality-optimized), NP (original + prefetching),
//! LP (locality-optimized + prefetching). For the prefetching cases, the
//! best block size from {1, 2, 4} lines is reported, as in the paper.

use memfwd_apps::{App, AppOutput, Variant};
use memfwd_bench::paper::{fig7_cells, Cell, Grid};
use memfwd_bench::{scale_from_env, write_csv};

fn main() {
    let grid = Grid::compute(fig7_cells(), scale_from_env());
    println!("Figure 7: prefetching vs locality optimizations (32B lines, N = 100)");
    let header = format!(
        "{:<10} {:>7} {:>7} {:>12} {:>12}",
        "app", "N", "L", "NP (block)", "LP (block)"
    );
    memfwd_bench::print_header(&header);
    let mut csv = Vec::new();
    for app in App::FIG5 {
        let n = Cell::new(app, Variant::Original, 32);
        let l = Cell::new(app, Variant::Optimized, 32);
        let (nb, np) = grid.best_prefetch(n);
        let (lb, lp) = grid.best_prefetch(l);
        let (n, l) = (&grid[n], &grid[l]);
        let norm = |o: &AppOutput| o.stats.cycles() as f64 / n.stats.cycles() as f64 * 100.0;
        println!(
            "{:<10} {:>7.1} {:>7.1} {:>8.1} ({:>1}) {:>8.1} ({:>1})",
            app.name(),
            100.0,
            norm(l),
            norm(np),
            nb,
            norm(lp),
            lb,
        );
        csv.push(format!(
            "{app},{},{},{},{nb},{},{lb}",
            n.stats.cycles(),
            l.stats.cycles(),
            np.stats.cycles(),
            lp.stats.cycles()
        ));
    }
    let header = "app,n_cycles,l_cycles,np_cycles,np_block,lp_cycles,lp_block";
    write_csv("fig7_prefetching", header, &csv);
}
