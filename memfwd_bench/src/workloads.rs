//! The four workloads. Each runs against the shipped binaries, measures
//! its operations (a sweep pass, or one service job) and checks every
//! output it gets back.

use crate::proc::{self, Exit};
use crate::report::{self, Cell, Coords};
use crate::served::Server;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The applications, in the order reports list them.
pub const APPS: [&str; 8] = [
    "health",
    "mst",
    "radiosity",
    "vis",
    "eqntott",
    "bh",
    "compress",
    "smv",
];

/// The three apps that emit batched reference windows; health and mst are
/// also the only apps the epoch engine runs.
pub const BATCHED_APPS: &str = "health,mst,vis";
/// The five apps that issue references one at a time; smv is the one with
/// real forwarding walks.
pub const PEROP_APPS: &str = "radiosity,eqntott,bh,compress,smv";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloBatched,
    SoloPerop,
    ServiceCold,
    ServiceWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoloBatched,
        Workload::SoloPerop,
        Workload::ServiceCold,
        Workload::ServiceWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloBatched => "solo-batched",
            Workload::SoloPerop => "solo-perop",
            Workload::ServiceCold => "service-cold",
            Workload::ServiceWarm => "service-warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations repeated untraced, then traced, in a traced run.
    fn trace_ops(self) -> usize {
        match self {
            Workload::ServiceWarm => 20,
            _ => 1,
        }
    }
}

pub struct Bins {
    pub sweep: PathBuf,
    pub served: PathBuf,
}

/// Everything a workload needs: binaries, a scratch directory, the seed,
/// the window length, the children's log and the tracer.
pub struct Ctx {
    pub bins: Bins,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub log: File,
    pub tracer: Tracer,
}

impl Ctx {
    /// Runs `memfwd_sweep args` as one span.
    pub fn sweep(&mut self, args: &[String], span: &str, job: u64) -> Result<Exit, String> {
        let id = self.tracer.begin(span, job);
        let r = proc::run(Command::new(&self.bins.sweep).args(args), &self.log);
        self.tracer.end(id);
        r.map_err(|e| format!("spawning memfwd_sweep: {e}"))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Whether `memfwd_sweep --validate` accepts the report at `path`.
    fn validate(&mut self, path: &Path) -> Result<bool, String> {
        let args = vec!["--validate".to_string(), path.display().to_string()];
        Ok(self.sweep(&args, "check validate", 0)?.ok())
    }

    /// The report at `path` with host-timing lines removed.
    fn strip_host(&mut self, path: &Path) -> Result<Vec<u8>, String> {
        let id = self.tracer.begin("check strip-host", 0);
        let out = Command::new(&self.bins.sweep)
            .arg("--strip-host")
            .arg(path)
            .output();
        self.tracer.end(id);
        let out = out.map_err(|e| format!("spawning memfwd_sweep --strip-host: {e}"))?;
        if !out.status.success() {
            return Err(format!("--strip-host {} failed", path.display()));
        }
        Ok(out.stdout)
    }
}

/// The `memfwd_sweep` arguments of a bench-scale grid.
pub fn grid_args(apps: &str, variants: &str, lines: &str, seeds: &str, out: &Path) -> Vec<String> {
    [
        "--apps",
        apps,
        "--variants",
        variants,
        "--line-bytes",
        lines,
        "--seeds",
        seeds,
        "--scale",
        "bench",
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([out.display().to_string()])
    .collect()
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Spawn of the pass or client to its exit.
    pub ms: f64,
    pub cpu: Duration,
    pub rss_kib: u64,
    pub ok: bool,
    /// The report the operation wrote.
    pub report: PathBuf,
    /// Cells the operation was asked for.
    pub cells: u64,
    pub traced: bool,
    /// Whether the window may end after this operation: the warm mix ends
    /// only on a block-pair boundary, so every run delivers whole blocks.
    pub can_stop: bool,
}

impl Op {
    fn from_exit(exit: &Exit, report: PathBuf, cells: u64) -> Op {
        Op {
            ms: exit.wall_ms(),
            cpu: exit.cpu,
            rss_kib: exit.maxrss_kib,
            ok: exit.ok(),
            report,
            cells,
            traced: false,
            can_stop: true,
        }
    }
}

/// What a workload run measured and found.
#[derive(Debug, Default)]
pub struct Measured {
    pub ops: Vec<Op>,
    /// Demand references in each op's report (0 for an unreadable one).
    pub op_refs: Vec<u64>,
    /// CPU of long-lived processes shared by all ops (the warm server).
    pub shared_cpu: Duration,
    pub shared_rss_kib: u64,
    pub setup_s: Vec<f64>,
    /// Correctness failures, one line each.
    pub errors: Vec<String>,
    /// Cells of the traced ops, for the per-layer counters.
    pub traced_cells: Vec<Cell>,
    /// Lines for humans: digests and notes.
    pub notes: Vec<String>,
    /// An operation is a cell for the solo workloads and a job for the
    /// service workloads.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `op` over the measuring window: repeatedly for `ctx.seconds`, or,
/// in a traced run, a fixed count untraced and then as many traced. Either
/// way it stops only after an op that allows it.
fn window(
    ctx: &mut Ctx,
    w: Workload,
    mut op: impl FnMut(&mut Ctx, u64) -> Result<Op, String>,
) -> Result<Vec<Op>, String> {
    fn more(ops: &[Op], go: bool) -> bool {
        go || ops.last().is_some_and(|o| !o.can_stop)
    }
    let mut ops: Vec<Op> = Vec::new();
    let mut i = 0;
    if ctx.tracer.enabled() {
        for traced in [false, true] {
            ctx.tracer.set_enabled(traced);
            let start = ops.len();
            while more(&ops[start..], (ops.len() - start) < w.trace_ops()) {
                let mut o = op(ctx, i)?;
                o.traced = traced;
                ops.push(o);
                i += 1;
            }
        }
        return Ok(ops);
    }
    let t0 = Instant::now();
    while more(
        &ops,
        ops.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds,
    ) {
        ops.push(op(ctx, i)?);
        i += 1;
    }
    Ok(ops)
}

/// Runs one workload. Errors are failures of the harness itself (a binary
/// that cannot be spawned, a server that never answers); failures of the
/// system under test are counted in the result instead.
pub fn run(ctx: &mut Ctx, w: Workload) -> Result<Measured, String> {
    let mut m = Measured::default();
    match w {
        Workload::SoloBatched => solo(ctx, w, BATCHED_APPS, &mut m)?,
        Workload::SoloPerop => solo(ctx, w, PEROP_APPS, &mut m)?,
        Workload::ServiceCold => service_cold(ctx, &mut m)?,
        Workload::ServiceWarm => service_warm(ctx, &mut m)?,
    }
    Ok(m)
}

// ---------------------------------------------------------------------
// Solo: one `memfwd_sweep --jobs 1` process per pass.
// ---------------------------------------------------------------------

fn solo(ctx: &mut Ctx, w: Workload, apps: &str, m: &mut Measured) -> Result<(), String> {
    let seed = ctx.seed.to_string();
    let pass = |ctx: &mut Ctx, i: u64| -> Result<Op, String> {
        let out = ctx.path(&format!("pass-{i}.json"));
        let mut args = grid_args(apps, "original,optimized", "32,64,128", &seed, &out);
        args.extend(["--jobs".to_string(), "1".to_string()]);
        let id = ctx.tracer.begin("op pass", i);
        let exit = ctx.sweep(&args, "spawn memfwd_sweep", i);
        ctx.tracer.end(id);
        Ok(Op::from_exit(&exit?, out, 18))
    };

    // Set-up: one warm-up pass, which also gives the reference report.
    let warm = ctx.tracer.enabled();
    ctx.tracer.set_enabled(false);
    let mut first = pass(ctx, u64::MAX)?;
    ctx.tracer.set_enabled(warm);
    first.report = rename(&first.report, &ctx.path("warmup.json"))?;
    m.setup_s.push(first.ms / 1e3);
    let golden = ctx.strip_host(&first.report)?;
    m.notes.push(format!(
        "strip-host digest {:#018x} ({} bytes)",
        report::digest(&golden),
        golden.len()
    ));

    m.ops = window(ctx, w, pass)?;
    let ops = m.ops.clone();
    for (i, op) in std::iter::once(&first).chain(&ops).enumerate() {
        let what = format!("pass {i}");
        let errors_before = m.errors.len();
        let cells = check_report(ctx, op, &what, m)?;
        if ctx.strip_host(&op.report).ok().as_deref() != Some(&golden[..]) {
            m.errors.push(format!(
                "{what}: --strip-host report differs from the warm-up pass"
            ));
        }
        if i > 0 {
            // Each error line concerns one cell or the whole pass.
            let new_errors = (m.errors.len() - errors_before) as u64;
            m.attempted += op.cells;
            m.failed += new_errors.min(op.cells);
            m.op_refs.push(cells.iter().filter_map(|c| c.refs).sum());
            if op.traced {
                m.traced_cells.extend(cells);
            }
        }
    }
    Ok(())
}

fn rename(from: &Path, to: &Path) -> Result<PathBuf, String> {
    std::fs::rename(from, to).map_err(|e| format!("renaming {}: {e}", from.display()))?;
    Ok(to.to_path_buf())
}

/// Reads and checks one op's report: `--validate`, completed cells, and
/// original/optimized checksum agreement. Returns its cells (none if the
/// report is missing or unreadable, which is itself recorded).
fn check_report(ctx: &mut Ctx, op: &Op, what: &str, m: &mut Measured) -> Result<Vec<Cell>, String> {
    if !op.ok {
        m.errors.push(format!("{what}: exited non-zero"));
    }
    let text = match std::fs::read_to_string(&op.report) {
        Ok(t) => t,
        Err(e) => {
            m.errors.push(format!("{what}: no report ({e})"));
            return Ok(Vec::new());
        }
    };
    if !ctx.validate(&op.report)? {
        m.errors.push(format!("{what}: report fails --validate"));
    }
    match report::parse_cells(&text) {
        Ok(cells) => {
            m.errors.extend(report::check_completed(&cells, what));
            m.errors.extend(report::check_variants_agree(&cells, what));
            Ok(cells)
        }
        Err(e) => {
            m.errors.push(format!("{what}: unreadable report ({e})"));
            Ok(Vec::new())
        }
    }
}

// ---------------------------------------------------------------------
// Service: `memfwd_served --jobs 2` with `memfwd_sweep --submit` clients.
// ---------------------------------------------------------------------

/// 8 apps x {original, optimized} at line 32: 16 cells.
pub fn cold_grid_args(seed: u64, out: &Path) -> Vec<String> {
    let (apps, variants, seeds) = cold_grid(seed);
    grid_args(apps, variants, "32", &seeds, out)
}

/// `grid` submitted to the server at `socket` by the shipped client.
pub fn submit_args(socket: &Path, mut grid: Vec<String>) -> Vec<String> {
    grid.splice(0..0, ["--submit".to_string(), socket.display().to_string()]);
    grid
}

/// The local, in-process run of the same cells at line 32, one grid of
/// `(apps, variants, seeds)` at a time: the reference every service report
/// must equal cell for cell.
fn local_reference(
    ctx: &mut Ctx,
    grids: &[(&str, &str, String)],
) -> Result<HashMap<Coords, Cell>, String> {
    let mut reference = HashMap::new();
    for (i, (apps, variants, seeds)) in grids.iter().enumerate() {
        let out = ctx.path(&format!("reference-{i}.json"));
        let mut args = grid_args(apps, variants, "32", seeds, &out);
        args.extend(["--jobs".to_string(), "2".to_string()]);
        if !ctx
            .sweep(&args, "spawn memfwd_sweep reference", i as u64)?
            .ok()
        {
            return Err(format!("local reference run {i} failed"));
        }
        let text =
            std::fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
        for c in report::parse_cells(&text)? {
            reference.insert(c.coords(), c);
        }
    }
    Ok(reference)
}

/// Checks every service report against the local reference; fills refs,
/// attempts and failures.
fn check_service_ops(
    ctx: &mut Ctx,
    ops: &[Op],
    reference: &HashMap<Coords, Cell>,
    m: &mut Measured,
) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        let what = format!("job {i}");
        let errors_before = m.errors.len();
        let cells = check_report(ctx, op, &what, m)?;
        m.errors
            .extend(report::check_against(&cells, reference, &what));
        if cells.len() as u64 != op.cells {
            m.errors.push(format!(
                "{what}: {} cells, asked for {}",
                cells.len(),
                op.cells
            ));
        }
        m.attempted += 1;
        if !op.ok || m.errors.len() > errors_before {
            m.failed += 1;
        }
        m.op_refs.push(cells.iter().filter_map(|c| c.refs).sum());
        if op.traced {
            m.traced_cells.extend(cells);
        }
    }
    Ok(())
}

fn fresh_state(ctx: &Ctx, name: &str) -> Result<PathBuf, String> {
    let dir = ctx.path(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Cold: every sample starts a fresh server on an empty state directory,
/// so all 16 cells miss the cache and run in supervised workers.
fn service_cold(ctx: &mut Ctx, m: &mut Measured) -> Result<(), String> {
    let seed = ctx.seed;
    // Set-up is the server's start until `health` answers; take it a few
    // times before the window and once per sample.
    let traced = ctx.tracer.enabled();
    ctx.tracer.set_enabled(false);
    for k in 0..3 {
        let dir = fresh_state(ctx, &format!("start-{k}"))?;
        let (srv, up) = Server::start(&ctx.bins.served, &dir, &ctx.log)?;
        m.setup_s.push(up.as_secs_f64());
        srv.stop()?;
    }
    ctx.tracer.set_enabled(traced);

    let mut starts = Vec::new();
    let sample = |ctx: &mut Ctx, i: u64| -> Result<Op, String> {
        let dir = fresh_state(ctx, &format!("cold-{i}"))?;
        let id = ctx.tracer.begin("op cold sample", i);
        let sid = ctx.tracer.begin("spawn memfwd_served", i);
        let started = Server::start(&ctx.bins.served, &dir, &ctx.log);
        ctx.tracer.end(sid);
        let (srv, up) = started?;
        starts.push(up.as_secs_f64());
        let out = ctx.path(&format!("cold-{i}.json"));
        let exit = ctx.sweep(
            &submit_args(&srv.socket, cold_grid_args(seed, &out)),
            "spawn memfwd_sweep --submit",
            i,
        );
        let did = ctx.tracer.begin("drain memfwd_served", i);
        let stopped = srv.stop();
        ctx.tracer.end(did);
        ctx.tracer.end(id);
        let (exit, server) = (exit?, stopped?);
        let mut op = Op::from_exit(&exit, out, 16);
        op.cpu += server.cpu;
        op.rss_kib = op.rss_kib.max(server.maxrss_kib);
        Ok(op)
    };
    m.ops = window(ctx, Workload::ServiceCold, sample)?;
    m.setup_s.extend(starts);

    ctx.tracer.set_enabled(false);
    let reference = local_reference(ctx, &[cold_grid(seed)])?;
    let ops = m.ops.clone();
    check_service_ops(ctx, &ops, &reference, m)
}

fn cold_grid(seed: u64) -> (&'static str, &'static str, String) {
    ("all", "original,optimized", seed.to_string())
}

/// One job of the warm mix: apps x variants at line 32 and the given
/// seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmJob {
    pub apps: Vec<&'static str>,
    pub variants: Vec<&'static str>,
    pub seeds: Vec<u64>,
}

impl WarmJob {
    pub fn cells(&self) -> u64 {
        (self.apps.len() * self.variants.len() * self.seeds.len()) as u64
    }

    pub fn grid_args(&self, out: &Path) -> Vec<String> {
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        grid_args(
            &self.apps.join(","),
            &self.variants.join(","),
            "32",
            &seeds.join(","),
            out,
        )
    }
}

/// splitmix64, the generator behind the warm mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The uncached seed asked for by block `b`.
pub fn fresh_seed(seed: u64, b: u64) -> u64 {
    seed.wrapping_add(1).wrapping_add(b)
}

/// Block `b` of the warm mix, a pure function of `(seed, b)`: three jobs
/// that together cover the primed 16-cell grid exactly once, in seeded
/// order. The apps are split at random into groups A and B; the block is
/// either A x both variants plus B once per variant, or all eight apps in
/// one variant plus A and B in the other, so jobs range over 1–8 apps and
/// 1–2 variants. Every odd block adds one job for eqntott/original at the
/// workload seed and a fresh one: a cache store beside the read. A fixed
/// job count and grid coverage per block keep the work a run of whole
/// block pairs asks for independent of the seed.
pub fn warm_block(seed: u64, b: u64) -> Vec<WarmJob> {
    let mut state = seed ^ b.wrapping_mul(0xd6e8_feb8_6659_fd93);
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut order: Vec<usize> = (0..APPS.len()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, (next() % (k as u64 + 1)) as usize);
    }
    let split = 1 + (next() % (APPS.len() as u64 - 1)) as usize;
    let job = |group: &[usize], variants: &[&'static str]| {
        let mut group = group.to_vec();
        group.sort_unstable();
        WarmJob {
            apps: group.iter().map(|&k| APPS[k]).collect(),
            variants: variants.to_vec(),
            seeds: vec![seed],
        }
    };
    let (a, rest) = order.split_at(split);
    let (v, w) = if next() % 2 == 0 {
        ("original", "optimized")
    } else {
        ("optimized", "original")
    };
    let mut jobs = if next() % 2 == 0 {
        vec![
            job(a, &["original", "optimized"]),
            job(rest, &[v]),
            job(rest, &[w]),
        ]
    } else {
        vec![job(&order, &[v]), job(a, &[w]), job(rest, &[w])]
    };
    for k in (1..jobs.len()).rev() {
        jobs.swap(k, (next() % (k as u64 + 1)) as usize);
    }
    if b % 2 == 1 {
        jobs.push(WarmJob {
            apps: vec!["eqntott"],
            variants: vec!["original"],
            seeds: vec![seed, fresh_seed(seed, b)],
        });
    }
    jobs
}

/// The warm mix as a stream of jobs, block after block.
pub struct WarmMix {
    seed: u64,
    blocks: u64,
    pending: std::collections::VecDeque<WarmJob>,
}

impl WarmMix {
    pub fn new(seed: u64) -> WarmMix {
        WarmMix {
            seed,
            blocks: 0,
            pending: Default::default(),
        }
    }

    pub fn next_job(&mut self) -> WarmJob {
        while self.pending.is_empty() {
            self.pending.extend(warm_block(self.seed, self.blocks));
            self.blocks += 1;
        }
        self.pending.pop_front().expect("blocks are never empty")
    }

    /// Whether the jobs handed out so far are whole block pairs.
    pub fn at_pair_boundary(&self) -> bool {
        self.pending.is_empty() && self.blocks.is_multiple_of(2)
    }
}

/// Warm: one server whose cache the cold grid primed; a closed loop of one
/// client sends the seeded job mix.
fn service_warm(ctx: &mut Ctx, m: &mut Measured) -> Result<(), String> {
    let seed = ctx.seed;
    let traced = ctx.tracer.enabled();
    ctx.tracer.set_enabled(false);
    let t0 = Instant::now();
    let dir = fresh_state(ctx, "warm")?;
    let (srv, _) = Server::start(&ctx.bins.served, &dir, &ctx.log)?;
    let prime_out = ctx.path("prime.json");
    let primed = ctx.sweep(
        &submit_args(&srv.socket, cold_grid_args(seed, &prime_out)),
        "spawn memfwd_sweep --submit",
        0,
    )?;
    // Restart on the primed state so the measured server's CPU and memory
    // cover the warm jobs only; the cache persists on disk.
    srv.stop()?;
    let (srv, _) = Server::start(&ctx.bins.served, &dir, &ctx.log)?;
    m.setup_s.push(t0.elapsed().as_secs_f64());
    ctx.tracer.set_enabled(traced);

    let socket = srv.socket.clone();
    let mut mix = WarmMix::new(seed);
    let mut fresh = Vec::new();
    let job = |ctx: &mut Ctx, i: u64| -> Result<Op, String> {
        let spec = mix.next_job();
        fresh.extend(spec.seeds.iter().skip(1).map(u64::to_string));
        let out = ctx.path(&format!("warm-{i}.json"));
        let id = ctx.tracer.begin("op warm job", i);
        let exit = ctx.sweep(
            &submit_args(&socket, spec.grid_args(&out)),
            "spawn memfwd_sweep --submit",
            i,
        );
        ctx.tracer.end(id);
        let mut op = Op::from_exit(&exit?, out, spec.cells());
        op.can_stop = mix.at_pair_boundary();
        Ok(op)
    };
    let ops = window(ctx, Workload::ServiceWarm, job);
    let server = srv.stop()?;
    m.ops = ops?;
    m.shared_cpu = server.cpu;
    m.shared_rss_kib = server.maxrss_kib;

    ctx.tracer.set_enabled(false);
    let mut grids = vec![cold_grid(seed)];
    if !fresh.is_empty() {
        grids.push(("eqntott", "original", fresh.join(",")));
    }
    let reference = local_reference(ctx, &grids)?;
    let prime = Op::from_exit(&primed, prime_out, 16);
    let mut priming = Measured::default();
    check_service_ops(ctx, std::slice::from_ref(&prime), &reference, &mut priming)?;
    m.errors
        .extend(priming.errors.into_iter().map(|e| format!("priming {e}")));
    let ops = m.ops.clone();
    check_service_ops(ctx, &ops, &reference, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_mix_is_a_pure_function_of_the_seed() {
        let take = |seed| {
            let mut mix = WarmMix::new(seed);
            (0..200).map(|_| mix.next_job()).collect::<Vec<_>>()
        };
        assert_eq!(take(12345), take(12345));
        assert_ne!(take(12345), take(7), "the seed drives the mix");
        assert_eq!(warm_block(12345, 3), warm_block(12345, 3));
    }

    #[test]
    fn every_block_covers_the_primed_grid_once() {
        let mut sizes = std::collections::BTreeSet::new();
        for b in 0..400 {
            let jobs = warm_block(99, b);
            let mut cells = std::collections::BTreeMap::new();
            for j in &jobs {
                if j.seeds.len() == 2 {
                    assert_eq!(
                        (j.apps.as_slice(), j.variants.as_slice()),
                        (&["eqntott"][..], &["original"][..])
                    );
                    assert_eq!(j.seeds, vec![99, fresh_seed(99, b)]);
                    continue;
                }
                assert_eq!(j.seeds, vec![99]);
                assert!((1..=8).contains(&j.apps.len()));
                sizes.insert(j.apps.len());
                for a in &j.apps {
                    for v in &j.variants {
                        *cells.entry((*a, *v)).or_insert(0) += 1;
                    }
                }
                let idx: Vec<usize> = j
                    .apps
                    .iter()
                    .map(|a| APPS.iter().position(|b| b == a).expect("known app"))
                    .collect();
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "apps in report order");
            }
            assert_eq!(cells.len(), 16, "block {b}");
            assert!(cells.values().all(|&n| n == 1), "block {b}");
            assert_eq!(jobs.len(), 3 + (b % 2) as usize, "block {b}");
        }
        assert_eq!(sizes.len(), 8, "every job size occurs");
    }

    #[test]
    fn the_mix_stops_only_after_block_pairs() {
        let mut mix = WarmMix::new(5);
        assert!(mix.at_pair_boundary());
        let pair = warm_block(5, 0).len() + warm_block(5, 1).len();
        for k in 1..=pair {
            mix.next_job();
            assert_eq!(mix.at_pair_boundary(), k == pair, "after {k} jobs");
        }
    }
}
