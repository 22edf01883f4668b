//! The traced phase's per-layer measurements. Besides the counters of the
//! workload's own traced operations, every traced run measures the same
//! set of layer probes:
//!
//! - per-app simulation rates, each cell its own `memfwd_sweep` process;
//! - the farm's supervised and checkpoint costs, from CLI runs of the
//!   cold grid at `--jobs 1`;
//! - the service's connection, protocol and cache behaviour, through the
//!   harness's own client polling every millisecond;
//! - library calls (checkpointing, snapshots, the journal, the result
//!   cache) in the `memfwd_bench_probe` program of `probe/`.
//!
//! A measurement that cannot be taken is recorded as absent with its
//! reason; the run still completes.

use crate::json::Json;
use crate::report::{self, Cell};
use crate::served::{spec_json, Conn, Server};
use crate::stats::summarize;
use crate::workloads::{self, Ctx, Measured, APPS};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

pub type Values = BTreeMap<String, Result<f64, String>>;

fn median(v: &[f64]) -> Result<f64, String> {
    summarize(v)
        .map(|s| s.median)
        .ok_or_else(|| "no samples".into())
}

/// Records every metric of `names` as absent with `reason`.
fn absent(out: &mut Values, names: &[&str], reason: &str) {
    for n in names {
        out.insert(n.to_string(), Err(reason.to_string()));
    }
}

/// All per-layer values of a traced run. `probe` is the built library
/// probe program, or why there is none.
pub fn measure(ctx: &mut Ctx, m: &mut Measured, probe: Result<PathBuf, String>) -> Values {
    let mut out = Values::new();
    own_ops(ctx, m, &mut out);
    apps_rates(ctx, &mut out);
    if let Err(e) = farm_modes(ctx, m, &mut out) {
        absent(&mut out, &FARM, &e);
    }
    if let Err(e) = served_probe(ctx, &mut out) {
        absent(&mut out, &SERVED, &e);
    }
    if let Err(e) = probe.and_then(|bin| library_probe(ctx, m, &bin, &mut out)) {
        absent(&mut out, &LIBRARY, &e);
    }
    out
}

/// Numbers from the workload's own traced operations.
fn own_ops(ctx: &Ctx, m: &Measured, out: &mut Values) {
    let times = |traced: bool| -> Vec<f64> {
        m.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms)
            .collect()
    };
    let overhead = median(&times(true)).and_then(|t| Ok(t / median(&times(false))? - 1.0));
    out.insert("trace.overhead_frac".into(), overhead);

    let spans = ctx.tracer.spans();
    let self_ns = crate::trace::self_times_ns(spans);
    let (mut ops, mut ns) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(self_ns) {
        if s.name.starts_with("op ") {
            ops += 1;
            ns += t;
        }
    }
    out.insert(
        "harness.self_ms_per_op".into(),
        if ops == 0 {
            Err("no traced operation".into())
        } else {
            Ok(ns as f64 / 1e6 / ops as f64)
        },
    );

    let cells: Vec<&Cell> = m.traced_cells.iter().collect();
    for (name, v) in report::layer_counters(&cells) {
        out.insert(
            name.into(),
            v.ok_or_else(|| "field absent from the reports".to_string()),
        );
    }
}

fn cells_of(path: &Path) -> Result<Vec<Cell>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    report::parse_cells(&text)
}

fn refs_of(cells: &[Cell]) -> u64 {
    cells.iter().filter_map(|c| c.refs).sum()
}

/// Solo rate of each app: its optimized cell at line 32, one process each.
fn apps_rates(ctx: &mut Ctx, out: &mut Values) {
    let seed = ctx.seed.to_string();
    for (k, app) in APPS.iter().enumerate() {
        let path = ctx.path(&format!("app-{app}.json"));
        let mut args = workloads::grid_args(app, "optimized", "32", &seed, &path);
        args.extend(["--jobs".to_string(), "1".to_string()]);
        let rate = ctx
            .sweep(&args, "spawn memfwd_sweep app", k as u64)
            .and_then(|exit| {
                if !exit.ok() {
                    return Err(format!("exit {:?}", exit.code));
                }
                Ok(refs_of(&cells_of(&path)?) as f64 / exit.wall.as_secs_f64())
            });
        out.insert(format!("apps.{app}.refs_per_s"), rate);
    }
}

const FARM: [&str; 4] = [
    "farm.supervised_overhead_frac",
    "farm.ckpt_share",
    "farm.attempts_per_cell",
    "farm.report.bytes",
];

/// The cold grid at `--jobs 1`: in-process, supervised, and supervised
/// with checkpoints pushed out of reach (`--ckpt-every 2^62`).
fn farm_modes(ctx: &mut Ctx, m: &mut Measured, out: &mut Values) -> Result<(), String> {
    let modes: [(&str, &[&str]); 3] = [
        ("in-process", &[]),
        ("supervised", &["--supervised"]),
        (
            "supervised-no-ckpt",
            &["--supervised", "--ckpt-every", "4611686018427387904"],
        ),
    ];
    let mut wall = Vec::new();
    let mut reports = Vec::new();
    for (k, (name, extra)) in modes.iter().enumerate() {
        let path = ctx.path(&format!("farm-{name}.json"));
        let mut args = workloads::cold_grid_args(ctx.seed, &path);
        args.extend(["--jobs".to_string(), "1".to_string()]);
        args.extend(extra.iter().map(|s| s.to_string()));
        if !extra.is_empty() {
            args.extend([
                "--farm-dir".to_string(),
                ctx.path(&format!("farm-{name}")).display().to_string(),
            ]);
        }
        let exit = ctx.sweep(&args, &format!("spawn memfwd_sweep {name}"), k as u64)?;
        if !exit.ok() {
            return Err(format!("{name} grid exited {:?}", exit.code));
        }
        wall.push(exit.wall.as_secs_f64());
        reports.push(path);
    }
    let local: HashMap<_, _> = cells_of(&reports[0])?
        .into_iter()
        .map(|c| (c.coords(), c))
        .collect();
    let supervised = cells_of(&reports[1])?;
    m.errors.extend(report::check_against(
        &supervised,
        &local,
        "supervised grid",
    ));
    let attempts: u64 = supervised.iter().filter_map(|c| c.attempts).sum();
    let bytes = std::fs::metadata(&reports[1])
        .map_err(|e| format!("report size: {e}"))?
        .len();
    out.insert(FARM[0].into(), Ok(wall[1] / wall[0] - 1.0));
    out.insert(FARM[1].into(), Ok((wall[1] - wall[2]) / wall[1]));
    out.insert(
        FARM[2].into(),
        Ok(attempts as f64 / supervised.len().max(1) as f64),
    );
    out.insert(FARM[3].into(), Ok(bytes as f64));
    Ok(())
}

const SERVED: [&str; 12] = [
    "served.connect_ms_p50",
    "served.status_rtt_ms_p50",
    "served.submit_rtt_ms_p50",
    "served.report_rtt_ms_p50",
    "served.report_bytes",
    "served.queue_wait_ms_p50",
    "served.job_ms_p50",
    "served.cache.hit_frac",
    "served.cache.hot_hit_frac",
    "served.shed_frac",
    "bench.client_overhead_ms_p50",
    "bench.client_ms_p50",
];

/// Jobs the served probe sends through each client.
const PROBE_JOBS: u64 = 20;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A primed server measured through the harness's own client (1 ms
/// polling) and then through the shipped client on the same job mix.
fn served_probe(ctx: &mut Ctx, out: &mut Values) -> Result<(), String> {
    let dir = ctx.path("probe-served");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let sid = ctx.tracer.begin("spawn memfwd_served", 0);
    let started = Server::start(&ctx.bins.served, &dir, &ctx.log);
    ctx.tracer.end(sid);
    let (srv, _) = started?;
    let socket = srv.socket.clone();
    let prime = workloads::cold_grid_args(ctx.seed, &ctx.path("probe-prime.json"));
    let args = workloads::submit_args(&socket, prime);
    if !ctx.sweep(&args, "spawn memfwd_sweep --submit", 0)?.ok() {
        return Err("priming the probe server failed".into());
    }

    let mut mix = workloads::WarmMix::new(ctx.seed);
    let jobs: Vec<_> = (0..PROBE_JOBS).map(|_| mix.next_job()).collect();

    let mut connect = Vec::new();
    for k in 0..PROBE_JOBS {
        let id = ctx.tracer.begin("rpc connect+health", k);
        let t = Instant::now();
        let r = Conn::connect(&socket)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| c.rpc("{\"op\":\"health\"}"));
        connect.push(ms_since(t));
        ctx.tracer.end(id);
        r?;
    }

    let mut conn = Conn::connect(&socket).map_err(|e| format!("connect: {e}"))?;
    let mut rpc =
        |ctx: &mut Ctx, name: &str, job: u64, line: &str| -> Result<(Json, usize, f64), String> {
            let id = ctx.tracer.begin(name, job);
            let t = Instant::now();
            let r = conn.rpc(line);
            let ms = ms_since(t);
            ctx.tracer.end(id);
            r.map(|(v, n)| (v, n, ms))
        };
    let (mut submit, mut status, mut report, mut bytes) = (vec![], vec![], vec![], vec![]);
    let (mut queue_wait, mut job_ms, mut shed) = (vec![], vec![], 0u64);
    for (i, job) in (0..).zip(&jobs) {
        let spec = spec_json(&job.apps, &job.variants, &[32], &job.seeds);
        let sent = Instant::now();
        let (v, _, ms) = rpc(
            ctx,
            "rpc submit",
            i,
            &format!("{{\"op\":\"submit\",\"spec\":{spec}}}"),
        )?;
        submit.push(ms);
        let Some(id) = v.get("job").and_then(Json::as_str).map(str::to_string) else {
            shed += 1;
            continue;
        };
        let mut waited = None;
        loop {
            let (v, _, ms) = rpc(
                ctx,
                "rpc status",
                i,
                &format!("{{\"op\":\"status\",\"job\":\"{id}\"}}"),
            )?;
            status.push(ms);
            let state = v
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if state != "queued" && waited.is_none() {
                waited = Some(ms_since(sent));
            }
            match state.as_str() {
                "done" => break,
                "queued" | "running" => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("probe job {id} ended {other}")),
            }
        }
        job_ms.push(ms_since(sent));
        queue_wait.extend(waited);
        let (_, n, ms) = rpc(
            ctx,
            "rpc report",
            i,
            &format!("{{\"op\":\"report\",\"job\":\"{id}\"}}"),
        )?;
        report.push(ms);
        bytes.push(n as f64);
    }
    let (stats, _, _) = rpc(ctx, "rpc stats", 0, "{\"op\":\"stats\"}")?;
    drop(conn);

    let mut client = Vec::new();
    for (i, job) in (0..).zip(&jobs) {
        let path = ctx.path(&format!("probe-client-{i}.json"));
        let args = workloads::submit_args(&socket, job.grid_args(&path));
        let exit = ctx.sweep(&args, "spawn memfwd_sweep --submit", i)?;
        if !exit.ok() {
            return Err(format!("shipped client job {i} exited {:?}", exit.code));
        }
        client.push(exit.wall_ms());
    }
    srv.stop()?;

    let num = |k: &str| stats.get(k).and_then(Json::as_f64);
    let hot = match (num("cache_hot_hits"), num("cache_hot_misses")) {
        (Some(h), Some(m)) if h + m > 0.0 => Ok(h / (h + m)),
        _ => Err("stats has no hot-tier counters".to_string()),
    };
    let values = [
        median(&connect),
        median(&status),
        median(&submit),
        median(&report),
        median(&bytes),
        median(&queue_wait),
        median(&job_ms),
        num("cache_hit_rate").ok_or_else(|| "stats has no cache_hit_rate".into()),
        hot,
        Ok(shed as f64 / PROBE_JOBS as f64),
        median(&client).and_then(|c| Ok(c - median(&job_ms)?)),
        median(&client),
    ];
    for (name, v) in SERVED.iter().zip(values) {
        out.insert(name.to_string(), v);
    }
    Ok(())
}

const LIBRARY: [&str; 10] = [
    "apps.ckpt.overhead_frac",
    "apps.ckpt.overhead_frac_max",
    "apps.ckpt.writes",
    "core.snapshot.bytes",
    "core.snapshot.save_ms",
    "core.snapshot.load_ms",
    "farm.journal.append_ms_p50",
    "served.cache.lookup_us_p50",
    "served.cache.disk_lookup_us_p50",
    "served.cache.store_us_p50",
];

/// Runs the library probe program. It writes one line per metric
/// (`metric <name> <value>`), per timed library call
/// (`span <name> <start_ns> <end_ns>`, relative to its start) and per
/// failed check (`error <text>`).
fn library_probe(
    ctx: &mut Ctx,
    m: &mut Measured,
    bin: &Path,
    out: &mut Values,
) -> Result<(), String> {
    let dir = ctx.path("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let lines = dir.join("probe.out");
    let id = ctx.tracer.begin("spawn memfwd_bench_probe", 0);
    let exit = crate::proc::run(
        Command::new(bin)
            .args(["--seed", &ctx.seed.to_string(), "--dir"])
            .arg(&dir)
            .arg("--out")
            .arg(&lines),
        &ctx.log,
    );
    ctx.tracer.end(id);
    if !exit.map_err(|e| format!("spawning the probe: {e}"))?.ok() {
        return Err("the probe program failed".into());
    }
    let text = std::fs::read_to_string(&lines).map_err(|e| format!("reading probe output: {e}"))?;
    for line in text.lines() {
        let mut words = line.splitn(2, ' ');
        let (kind, rest) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        let fields: Vec<&str> = rest.split(' ').collect();
        match (kind, fields.as_slice()) {
            ("metric", [name, value]) => {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), Ok(v));
                }
            }
            ("span", [name, start, end]) => {
                if let (Ok(s), Ok(e)) = (start.parse(), end.parse()) {
                    ctx.tracer.record_child(id, &format!("lib {name}"), s, e);
                }
            }
            ("error", _) => m.errors.push(format!("probe: {rest}")),
            _ => {}
        }
    }
    for name in LIBRARY {
        out.entry(name.to_string())
            .or_insert_with(|| Err("the probe did not report it".into()));
    }
    Ok(())
}
