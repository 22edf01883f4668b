//! Static placement vs. relocation (paper §1).
//!
//! "The advantage of static placement is its simplicity. The advantage of
//! relocation, however, is that it can adapt to dynamic program
//! behavior." This experiment measures both, for an application whose
//! layout can be fixed up front (eqntott — one-shot, static placement is
//! ideal) and for applications whose structures keep mutating (vis,
//! health — static layouts decay, relocation re-packs them).

use memfwd_apps::{App, Variant};
use memfwd_bench::paper::{Cell, Grid};
use memfwd_bench::{scale_from_env, write_csv};

fn main() {
    let apps = [App::Eqntott, App::Vis, App::Health];
    let variants = [Variant::Original, Variant::Static, Variant::Optimized];
    let cells = apps.map(|app| variants.map(|v| Cell::new(app, v, 64)));
    let grid = Grid::compute(cells.into_iter().flatten(), scale_from_env());
    println!("Static placement (S) vs relocation (L), 64B lines, N = 100");
    let header = format!("{:<10} {:>7} {:>7} {:>7}   verdict", "app", "N", "S", "L");
    memfwd_bench::print_header(&header);
    let mut csv = Vec::new();
    for (app, [n, s, l]) in apps.into_iter().zip(cells) {
        let [n, s, l] = [n, s, l].map(|c| &grid[c]);
        let norm = |c: u64| c as f64 / n.stats.cycles() as f64 * 100.0;
        let (sv, lv) = (norm(s.stats.cycles()), norm(l.stats.cycles()));
        let verdict = if sv < lv {
            "static wins (layout known up front)"
        } else {
            "relocation wins (adapts to mutation)"
        };
        println!(
            "{:<10} {:>7.1} {:>7.1} {:>7.1}   {}",
            app.name(),
            100.0,
            sv,
            lv,
            verdict
        );
        let [nc, sc, lc] = [n, s, l].map(|o| o.stats.cycles());
        csv.push(format!("{app},{nc},{sc},{lc}"));
    }
    write_csv(
        "static_vs_relocation",
        "app,n_cycles,static_cycles,relocation_cycles",
        &csv,
    );
    println!();
    println!(
        "eqntott builds once and never mutates: choosing the packed layout at\n\
         allocation time is free, so static placement should win there. The\n\
         list applications mutate continuously: a static initial layout decays\n\
         while periodic linearization keeps re-creating locality."
    );
}
