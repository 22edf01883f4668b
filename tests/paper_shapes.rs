//! The paper's Fig. 5/6/7/10 claims (`memfwd_bench::paper`), gated on the
//! bench-scale grid. It takes tens of seconds, so it is `#[ignore]`d by
//! default; run it with
//! `cargo test --release --test paper_shapes -- --ignored --nocapture`.

use memfwd_bench::paper::{claims, paper_cells, Grid};
use memfwd_repro::apps::{App, Scale};

#[test]
#[ignore = "bench scale: run explicitly with --ignored"]
fn paper_claims_hold_on_the_bench_grid() {
    let grid = Grid::compute(paper_cells(), Scale::Bench);
    let all = claims(&grid);
    all.iter().for_each(|c| println!("{c}"));
    let unexpected = all.iter().filter(|c| !c.as_expected());
    let names: Vec<_> = unexpected.map(|c| &c.name).collect();
    assert!(names.is_empty(), "claims off their expectation: {names:?}");

    // Fig. 5 and 6 compare L with N, so if health's linearization moved
    // nothing, each of its 11 claims there, all holding above, must fail.
    let broken = claims(&grid.without_relocation(App::Health));
    let health = broken.iter().filter(|c| c.name.contains("[health"));
    let fig56: Vec<_> = health.filter(|c| !c.name.starts_with("fig7.")).collect();
    assert_eq!(fig56.len(), 11, "{fig56:?}");
    let still_passing: Vec<_> = fig56.iter().filter(|c| c.as_expected()).collect();
    assert!(still_passing.is_empty(), "gate misses: {still_passing:?}");
}
