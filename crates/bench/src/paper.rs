//! The paper's claims, in one place.
//!
//! A [`Cell`] names one simulator run. A [`Grid`] simulates each distinct
//! cell once and checks that every run of one app and seed computed the
//! same result. [`claims`] turns a grid into the named Fig. 5/6/7/10
//! predicates. A paper claim this reproduction does not show is listed in
//! [`DEVIATIONS`] with its entry in EXPERIMENTS.md "Known deviations" and
//! is expected to fail; the gate ([`Claim::as_expected`]) fails on any
//! claim whose outcome differs from its expectation, in either direction.

use crate::{host_parallelism, LINE_SIZES};
use memfwd::RunStats;
use memfwd_apps::{run_ok, App, AppOutput, RunConfig, Scale, Variant};
use memfwd_farm::{pool::par_map, CellSpec};
use std::fmt;

/// The software-prefetch block sizes, in lines, that Fig. 7 picks the
/// best of.
const PREFETCH_BLOCKS: [u64; 3] = [1, 2, 4];

/// The claims this reproduction does not show, each with its entry in
/// EXPERIMENTS.md "Known deviations".
pub const DEVIATIONS: [(&str, u8); 6] = [
    ("fig7.vis_lp_vs_l", 3),
    ("fig6.cut_over_35pct", 5),
    ("fig6.l_cuts_misses[bh@32]", 6),
    ("fig6.l_cuts_misses[bh@64]", 6),
    ("fig6.l_cuts_misses[bh@128]", 6),
    ("fig7.lp_best[compress]", 7),
];

/// One simulator run: a farm cell plus the two axes a sweep lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Application, variant, line size, memory latency and seed.
    pub spec: CellSpec,
    /// Software-prefetch block size in lines (Fig. 7 `NP`/`LP`).
    pub prefetch: Option<u64>,
    /// Perfect forwarding (Fig. 10 `Perf`).
    pub perfect: bool,
}

impl Cell {
    /// `app` in `variant` at `line_bytes`, default seed and latency.
    pub fn new(app: App, variant: Variant, line_bytes: u64) -> Cell {
        let d = RunConfig::new(variant);
        let spec = CellSpec {
            app,
            variant,
            line_bytes,
            mem_latency: d.sim.hierarchy.mem_latency,
            seed: d.seed,
        };
        Cell {
            spec,
            prefetch: None,
            perfect: false,
        }
    }

    /// This cell with `lines`-line block prefetching.
    pub fn prefetch(mut self, lines: u64) -> Cell {
        self.prefetch = Some(lines);
        self
    }

    /// This cell under perfect forwarding.
    pub fn perfect(mut self) -> Cell {
        self.perfect = true;
        self
    }

    /// Runs the cell at `scale`, panicking on a machine fault: these are
    /// known-good configurations.
    pub fn run(&self, scale: Scale) -> AppOutput {
        let mut cfg = self.spec.config(scale);
        if let Some(lines) = self.prefetch {
            cfg = cfg.with_prefetch(lines);
        }
        cfg.sim.perfect_forwarding = self.perfect;
        run_ok(self.spec.app, &cfg)
    }
}

fn nl(app: App, line: u64) -> [Cell; 2] {
    [Variant::Original, Variant::Optimized].map(|v| Cell::new(app, v, line))
}

/// Every Fig. 5 app at every Fig. 5 line size.
fn app_lines() -> impl Iterator<Item = (App, u64)> {
    App::FIG5
        .into_iter()
        .flat_map(|app| LINE_SIZES.map(|line| (app, line)))
}

/// Fig. 5 and 6: N and L of every Fig. 5 app at every line size.
pub fn fig5_cells() -> Vec<Cell> {
    app_lines().flat_map(|(app, line)| nl(app, line)).collect()
}

/// Fig. 7: N and L of every Fig. 5 app at 32 B, bare and with each
/// prefetch block.
pub fn fig7_cells() -> Vec<Cell> {
    let blocks = |c: Cell| std::iter::once(c).chain(PREFETCH_BLOCKS.map(|b| c.prefetch(b)));
    let cells = App::FIG5.into_iter().flat_map(|app| nl(app, 32));
    cells.flat_map(blocks).collect()
}

/// Fig. 10: SMV's N, L and Perf at 32 B.
pub fn fig10_cells() -> [Cell; 3] {
    let [n, l] = nl(App::Smv, 32);
    [n, l, l.perfect()]
}

/// Every cell [`claims`] reads.
pub fn paper_cells() -> Vec<Cell> {
    [fig5_cells(), fig7_cells(), fig10_cells().to_vec()].concat()
}

/// Simulated cells, each distinct cell run once. Indexing by a cell the
/// grid did not simulate panics.
#[derive(Debug, Clone)]
pub struct Grid {
    runs: Vec<(Cell, AppOutput)>,
}

impl Grid {
    /// Simulates each distinct cell of `cells` once at `scale`, on
    /// [`host_parallelism`] workers.
    ///
    /// # Panics
    ///
    /// On a machine fault, or when two runs of one app and seed disagree on
    /// the checksum: relocation must never change a program's result.
    pub fn compute(cells: impl IntoIterator<Item = Cell>, scale: Scale) -> Grid {
        let mut distinct: Vec<Cell> = Vec::new();
        for c in cells {
            if !distinct.contains(&c) {
                distinct.push(c);
            }
        }
        let outs = par_map(&distinct, host_parallelism(), |c| c.run(scale));
        let runs: Vec<_> = distinct.into_iter().zip(outs).collect();
        // The checksum does not depend on layout, timing or prefetching.
        let program = |c: &Cell| (c.spec.app, c.spec.seed);
        for (c, out) in &runs {
            for (_, other) in runs.iter().filter(|(o, _)| program(o) == program(c)) {
                assert_eq!(
                    out.checksum, other.checksum,
                    "{c:?} computed a different result"
                );
            }
        }
        Grid { runs }
    }

    /// A copy of this grid in which `app`'s L cells without prefetching,
    /// Perf included, carry the results of its N cells at the same line
    /// size: a linearization that moves nothing. The gate must catch it.
    pub fn without_relocation(&self, app: App) -> Grid {
        let mut broken = self.clone();
        for (c, out) in &mut broken.runs {
            if c.spec.app == app && c.spec.variant == Variant::Optimized && c.prefetch.is_none() {
                *out = self[Cell::new(app, Variant::Original, c.spec.line_bytes)];
            }
        }
        broken
    }

    /// The fastest of `cell`'s prefetch blocks and its output: the paper
    /// reports "the block size that performed the best for each case".
    pub fn best_prefetch(&self, cell: Cell) -> (u64, &AppOutput) {
        let runs = PREFETCH_BLOCKS.map(|b| (b, &self[cell.prefetch(b)]));
        let best = runs.into_iter().min_by_key(|(_, out)| out.stats.cycles());
        best.expect("PREFETCH_BLOCKS is not empty")
    }
}

impl std::ops::Index<Cell> for Grid {
    type Output = AppOutput;

    fn index(&self, cell: Cell) -> &AppOutput {
        let run = self.runs.iter().find(|(c, _)| *c == cell);
        &run.unwrap_or_else(|| panic!("{cell:?} not in grid")).1
    }
}

/// What the gate expects of a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The paper's claim holds here.
    Holds,
    /// The claim fails here, as "Known deviations" entry `n` explains.
    Deviation(u8),
}

/// The bound a measured value must meet for a claim to hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Strictly greater than.
    Above(f64),
    /// Greater than or equal to.
    AtLeast(f64),
    /// Strictly less than.
    Below(f64),
    /// Less than or equal to.
    AtMost(f64),
    /// In the half-open range `[lo, hi)`.
    Within(f64, f64),
}

impl Bound {
    /// Whether `x` meets the bound, and its signed distance from the
    /// bound's nearest edge (positive where the bound holds).
    fn test(self, x: f64) -> (bool, f64) {
        match self {
            Bound::Above(t) => (x > t, x - t),
            Bound::AtLeast(t) => (x >= t, x - t),
            Bound::Below(t) => (x < t, t - x),
            Bound::AtMost(t) => (x <= t, t - x),
            Bound::Within(lo, hi) => ((lo..hi).contains(&x), (x - lo).min(hi - x)),
        }
    }
}

/// One named paper claim, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable name, e.g. `fig5.l_beats_n[health@64]`.
    pub name: String,
    /// The measured value.
    pub measured: f64,
    /// The bound the paper's claim puts on it.
    pub bound: Bound,
    /// Whether the claim is expected to hold here.
    pub expect: Expect,
}

impl Claim {
    /// Whether the measured value meets the paper's bound.
    pub fn holds(&self) -> bool {
        self.bound.test(self.measured).0
    }

    /// How far inside (positive) or outside (negative) the bound.
    pub fn margin(&self) -> f64 {
        self.bound.test(self.measured).1
    }

    /// The gate: whether the outcome is the expected one.
    pub fn as_expected(&self) -> bool {
        self.holds() == (self.expect == Expect::Holds)
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, measured, margin) = (&self.name, self.measured, self.margin());
        let (bound, expect) = (format!("{:?}", self.bound), format!("{:?}", self.expect));
        let verdict = (!self.as_expected()).then_some("  UNEXPECTED");
        let line = format!("{name:<34} {measured:>9.3} {bound:<19} margin {margin:>+8.3}");
        write!(f, "{line}  expect {expect}{}", verdict.unwrap_or_default())
    }
}

/// The paper's Fig. 5/6/7/10 claims over `grid`.
///
/// # Panics
///
/// If `grid` lacks one of the [`paper_cells`].
pub fn claims(grid: &Grid) -> Vec<Claim> {
    use Bound::*;
    use Variant::{Optimized as L, Original as N};
    let stats = |app, variant, line| &grid[Cell::new(app, variant, line)].stats;
    let cycles = |app, variant, line| stats(app, variant, line).cycles() as f64;
    // L's value of `f` over N's, same app and line.
    let ratio = |app, line, f: &dyn Fn(&RunStats) -> u64| {
        f(stats(app, L, line)) as f64 / f(stats(app, N, line)) as f64
    };
    let misses = |s: &RunStats| s.cache.loads.misses();
    let speedup = |app, line| stats(app, L, line).speedup_over(stats(app, N, line));
    let speedups = |app| LINE_SIZES.map(|line| speedup(app, line));
    let mut out = Vec::new();
    let mut add = |name: &str, measured: f64, bound: Bound| {
        let deviation = DEVIATIONS.iter().find(|(d, _)| *d == name);
        let expect = deviation.map_or(Expect::Holds, |&(_, n)| Expect::Deviation(n));
        let name = name.to_string();
        out.push(Claim {
            name,
            measured,
            bound,
            expect,
        });
    };

    // Fig. 5: execution time. compress losing at 32/64 B is the paper's
    // crossover, claimed on its own.
    for (app, line) in app_lines().filter(|&(a, l)| a != App::Compress || l == 128) {
        let name = format!("fig5.l_beats_n[{app}@{line}]");
        add(&name, speedup(app, line), Above(1.0));
    }
    let [a, b, c] = speedups(App::Compress);
    let crossover = (1.0 - a).min(1.0 - b).min(c - 1.0);
    add("fig5.compress_crossover", crossover, Above(0.0));
    for app in [App::Health, App::Mst, App::Vis] {
        let [a, b, c] = speedups(app);
        let growth = (b - a).min(c - b);
        add(&format!("fig5.speedup_grows[{app}]"), growth, Above(0.0));
        add(&format!("fig5.over_1_5x_at_128[{app}]"), c, Above(1.5));
    }
    for app in [App::Health, App::Vis] {
        let at_128 = speedup(app, 128);
        add(&format!("fig5.over_2x_at_128[{app}]"), at_128, Above(2.0));
    }
    for app in [App::Mst, App::Vis, App::Bh, App::Compress] {
        let n_growth = cycles(app, N, 128) / cycles(app, N, 32);
        add(&format!("fig5.n_degrades[{app}]"), n_growth, Above(1.0));
    }

    // Fig. 6: load misses and bandwidth, L over N.
    let cuts: Vec<f64> = app_lines().map(|(a, l)| ratio(a, l, &misses)).collect();
    for ((app, line), &cut) in app_lines().zip(&cuts) {
        let name = format!("fig6.l_cuts_misses[{app}@{line}]");
        add(&name, cut, Below(1.0));
    }
    let deep_cuts = cuts.iter().filter(|&&cut| cut < 0.65).count();
    add("fig6.cut_over_35pct", deep_cuts as f64, AtLeast(11.0));
    let bytes = |s: &RunStats| s.bytes_l1_l2 + s.bytes_l2_mem;
    let bw_cuts = app_lines().map(|(app, line)| 1.0 / ratio(app, line, &bytes));
    add("fig6.bw_2x", bw_cuts.fold(0.0, f64::max), AtLeast(2.0));
    for app in [App::Health, App::Mst, App::Vis] {
        let cut = ratio(app, 128, &misses);
        add(&format!("fig6.cut_over_35pct[{app}@128]"), cut, Below(0.65));
        let l2mem = ratio(app, 128, &|s| s.bytes_l2_mem);
        add(&format!("fig6.l2mem_drops[{app}@128]"), l2mem, Below(1.0));
    }

    // Fig. 7: prefetching at 32 B, the best block per case.
    for app in App::FIG5 {
        let best = |v| grid.best_prefetch(Cell::new(app, v, 32)).1.stats.cycles() as f64;
        let (l, np, lp) = (cycles(app, L, 32), best(N), best(L));
        add(&format!("fig7.lp_best[{app}]"), lp / l.min(np), AtMost(1.0));
        // Pointer chasing limits prefetching on the original layout.
        if [App::Health, App::Radiosity, App::Vis, App::Eqntott].contains(&app) {
            add(&format!("fig7.lp_beats_np[{app}]"), lp / np, Below(1.0));
        }
        if app == App::Vis {
            add("fig7.vis_lp_vs_l", lp / l, Above(1.0));
        }
    }

    // Fig. 10: SMV, where relocated data is reached through stale pointers.
    let [n, l, p] = fig10_cells().map(|c| &grid[c].stats);
    let time = |a: &RunStats, b: &RunStats| a.cycles() as f64 / b.cycles() as f64;
    add("fig10.l_slower", time(l, n), Above(1.0));
    add("fig10.perf_recovers", time(p, l), Below(1.0));
    add("fig10.perf_marginal", time(p, n), Above(0.85));
    let f = &l.fwd;
    let (loads, stores) = (f.forwarded_load_fraction(), f.forwarded_store_fraction());
    add("fig10.load_fwd_frac", loads, Within(0.03, 0.15));
    add("fig10.store_fwd_frac", stores, Within(0.005, 0.05));
    let multi_hop: u64 = f.load_hops[2..].iter().chain(&f.store_hops[2..]).sum();
    add("fig10.one_hop", multi_hop as f64, AtMost(0.0));
    let pollution = misses(l) as f64 / misses(n) as f64;
    add("fig10.pollution", pollution, Above(1.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(grid: &Grid, name: &str) -> Claim {
        let found = claims(grid).into_iter().find(|c| c.name == name);
        found.unwrap_or_else(|| panic!("no claim {name}"))
    }

    /// Each distinct paper cell is simulated once. At smoke scale the
    /// working sets fit in L2, so most claims fail here; the tests below
    /// use the ones that hold.
    fn smoke_grid() -> Grid {
        let grid = Grid::compute(paper_cells(), Scale::Smoke);
        assert_eq!((paper_cells().len(), grid.runs.len()), (101, 87));
        grid
    }

    /// Skipping an app's linearization turns its claims that hold into
    /// failing ones.
    #[test]
    fn a_broken_app_fails_its_named_claims() {
        let grid = smoke_grid();
        let fig10 = ["fig10.l_slower", "fig10.perf_recovers", "fig10.pollution"];
        for (app, names) in [
            (App::Mst, &["fig5.speedup_grows[mst]"][..]),
            (App::Smv, &fig10),
        ] {
            let broken = grid.without_relocation(app);
            for name in names {
                let (before, after) = (claim(&grid, name), claim(&broken, name));
                assert!(before.as_expected(), "{before}");
                assert!(!after.as_expected(), "{after}");
            }
        }
    }

    /// Every documented deviation names a claim, and one that stops being
    /// observed also fails the gate, asking for the doc to be updated:
    /// with L no faster than N, VIS's LP lags L as the paper has it.
    #[test]
    fn a_deviation_that_starts_to_hold_fails_the_gate() {
        let grid = smoke_grid();
        for (name, _) in DEVIATIONS {
            claim(&grid, name);
        }
        assert!(claim(&grid, "fig7.vis_lp_vs_l").as_expected());
        let lags = claim(&grid.without_relocation(App::Vis), "fig7.vis_lp_vs_l");
        assert!(lags.holds() && !lags.as_expected(), "{lags}");
    }
}
