//! `memfwd_bench_probe`: times library entry points for the traced runs of
//! `memfwd_bench` — app checkpointing, machine snapshots, the campaign
//! journal and the service's result cache — on the benchmark's cold grid
//! (8 apps x {original, optimized}, line 32, bench scale).
//!
//! ```console
//! $ memfwd_bench_probe --seed 12345 --dir <scratch dir> --out <file>
//! ```
//!
//! Writes one line per metric (`metric <name> <value>`), per timed call
//! (`span <name> <start_ns> <end_ns>`, from the program's start) and per
//! failed check (`error <text>`).

use memfwd_apps::{run, run_ck, App, AppOutput, Checkpointer, CkOutcome, RunConfig, Variant};
use memfwd_farm::worker::CellResultFile;
use memfwd_farm::{
    campaign_fingerprint, cell_key, CellReport, CellResult, CellSpec, Journal, JournalRecord,
    SweepSpec,
};
use memfwd_served::{CacheLookup, ResultCache};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Out {
    t0: Instant,
    lines: Vec<String>,
}

impl Out {
    fn metric(&mut self, name: &str, v: f64) {
        self.lines.push(format!("metric {name} {v}"));
    }

    fn error(&mut self, msg: String) {
        self.lines.push(format!("error {}", msg.replace('\n', " ")));
    }

    /// Runs `f` as one span and returns its result and duration.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.t0.elapsed();
        let r = f();
        let end = self.t0.elapsed();
        self.lines.push(format!(
            "span {name} {} {}",
            start.as_nanos(),
            end.as_nanos()
        ));
        (r, end - start)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn config(c: &CellSpec) -> RunConfig {
    let mut cfg = RunConfig::new(c.variant);
    cfg.seed = c.seed;
    cfg.sim = cfg.sim.with_line_bytes(c.line_bytes);
    cfg.sim.hierarchy.mem_latency = c.mem_latency;
    cfg
}

fn ckpt_path(dir: &Path, c: &CellSpec) -> PathBuf {
    dir.join(format!("ck-{}-{}.ckpt", c.app.name(), c.variant.name()))
}

/// Checkpointing cost: each cell run plainly and under the default
/// cadence writing to a file. Checkpoints only read the machine, so both
/// runs must produce identical outputs.
fn ckpt(out: &mut Out, dir: &Path, cells: &[CellSpec]) -> Vec<Option<AppOutput>> {
    let (mut plain_s, mut ck_s, mut worst, mut writes) = (0.0, 0.0, f64::MIN, 0u64);
    let mut outputs = Vec::new();
    for c in cells {
        let cfg = config(c);
        let what = format!("{}/{}", c.app.name(), c.variant.name());
        let (plain, t_plain) = out.span(&format!("run {what}"), || run(c.app, &cfg));
        let (ck, t_ck) = out.span(&format!("run_ck {what}"), || {
            let mut ck = Checkpointer::to_file(ckpt_path(dir, c));
            let r = run_ck(c.app, &cfg, &mut ck);
            (r, ck.boundaries_seen())
        });
        writes += ck.1;
        match (plain, ck.0) {
            (Ok(a), Ok(CkOutcome::Done(b))) if a == b => outputs.push(Some(a)),
            (a, b) => {
                out.error(format!("{what}: checkpointed run differs: {a:?} vs {b:?}"));
                outputs.push(None);
            }
        }
        plain_s += t_plain.as_secs_f64();
        ck_s += t_ck.as_secs_f64();
        worst = worst.max(t_ck.as_secs_f64() / t_plain.as_secs_f64() - 1.0);
    }
    out.metric("apps.ckpt.overhead_frac", ck_s / plain_s - 1.0);
    out.metric("apps.ckpt.overhead_frac_max", worst);
    out.metric("apps.ckpt.writes", writes as f64);
    outputs
}

/// Snapshot save and load of the last mst/optimized/32 checkpoint image.
fn snapshot(out: &mut Out, dir: &Path, c: &CellSpec) -> Result<(), String> {
    let path = ckpt_path(dir, c);
    let image = memfwd::read_snapshot_file(&path).map_err(|e| format!("{e:?}"))?;
    out.metric("core.snapshot.bytes", image.len() as f64);
    let sim = config(c).sim;
    let copy = dir.join("snapshot-copy.ckpt");
    let (mut load, mut save) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (restored, t) = out.span("read_snapshot_file+restore_machine", || {
            memfwd::read_snapshot_file(&path).and_then(|bytes| memfwd::restore_machine(&bytes, sim))
        });
        let (machine, cursor) = restored.map_err(|e| format!("restore: {e:?}"))?;
        load.push(t.as_secs_f64() * 1e3);
        let (written, t) = out.span("save_machine+write_snapshot_file", || {
            memfwd::write_snapshot_file(&copy, &memfwd::save_machine(&machine, &cursor))
        });
        written.map_err(|e| format!("save: {e:?}"))?;
        save.push(t.as_secs_f64() * 1e3);
    }
    out.metric("core.snapshot.load_ms", median(load));
    out.metric("core.snapshot.save_ms", median(save));
    Ok(())
}

/// `Journal::append` of the grid's 16 completed cells.
fn journal(
    out: &mut Out,
    dir: &Path,
    spec: &SweepSpec,
    results: &[CellResult],
) -> Result<(), String> {
    let mut j = Journal::create(&dir.join("journal.mfj"), campaign_fingerprint(spec))
        .map_err(|e| format!("journal: {e}"))?;
    let mut times = Vec::new();
    for r in results {
        let record = JournalRecord::from_report(spec.scale, &CellReport::completed(*r));
        let (appended, t) = out.span("Journal::append", || j.append(record));
        appended.map_err(|e| format!("append: {e}"))?;
        times.push(t.as_secs_f64() * 1e3);
    }
    out.metric("farm.journal.append_ms_p50", median(times));
    Ok(())
}

/// `ResultCache` store, then lookups from a freshly opened cache (disk,
/// with revalidation) and again (the in-memory hot tier).
fn cache(
    out: &mut Out,
    dir: &Path,
    spec: &SweepSpec,
    results: &[CellResult],
) -> Result<(), String> {
    let state = dir.join("cache-state");
    let files: Vec<CellResultFile> = results
        .iter()
        .map(|r| CellResultFile {
            key: cell_key(spec.scale, &r.spec),
            checksum: r.checksum,
            refs: r.refs,
            host_nanos: r.host_nanos,
            stats: r.stats,
        })
        .collect();
    let c = ResultCache::open(&state).map_err(|e| format!("cache: {e}"))?;
    let mut store = Vec::new();
    for f in &files {
        let (stored, t) = out.span("ResultCache::store", || c.store(f));
        stored.map_err(|e| format!("store: {e}"))?;
        store.push(t.as_secs_f64() * 1e6);
    }
    let c = ResultCache::open(&state).map_err(|e| format!("cache: {e}"))?;
    for (name, metric) in [
        (
            "ResultCache::lookup disk",
            "served.cache.disk_lookup_us_p50",
        ),
        ("ResultCache::lookup hot", "served.cache.lookup_us_p50"),
    ] {
        let mut times = Vec::new();
        for f in &files {
            let (found, t) = out.span(name, || c.lookup(f.key));
            match found {
                CacheLookup::Hit(r) if *r == *f => {}
                other => return Err(format!("lookup of {:#x}: {other:?}", f.key)),
            }
            times.push(t.as_secs_f64() * 1e6);
        }
        out.metric(metric, median(times));
    }
    out.metric("served.cache.store_us_p50", median(store));
    Ok(())
}

fn parse_args() -> Result<(u64, PathBuf, PathBuf), String> {
    let mut args = std::env::args().skip(1);
    let (mut seed, mut dir, mut out) = (None, None, None);
    while let Some(flag) = args.next() {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(v.parse().map_err(|e| format!("--seed: {e}"))?),
            "--dir" => dir = Some(PathBuf::from(v)),
            "--out" => out = Some(PathBuf::from(v)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((
        seed.ok_or("--seed is required")?,
        dir.ok_or("--dir is required")?,
        out.ok_or("--out is required")?,
    ))
}

fn main() {
    let (seed, dir, out_path) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memfwd_bench_probe: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("memfwd_bench_probe: creating {}: {e}", dir.display());
        std::process::exit(2);
    }
    let spec = SweepSpec {
        apps: App::ALL.to_vec(),
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32],
        mem_latency: vec![75],
        seeds: vec![seed],
        scale: memfwd_apps::Scale::Bench,
    };
    let cells = spec.expand();
    let mut out = Out {
        t0: Instant::now(),
        lines: Vec::new(),
    };

    let outputs = ckpt(&mut out, &dir, &cells);
    let results: Vec<CellResult> = cells
        .iter()
        .zip(&outputs)
        .filter_map(|(c, o)| {
            o.map(|o| CellResult {
                spec: *c,
                checksum: o.checksum,
                stats: o.stats,
                refs: o.stats.fwd.loads + o.stats.fwd.stores,
                host_nanos: 0,
            })
        })
        .collect();
    let mst = cells
        .iter()
        .find(|c| c.app == App::Mst && c.variant == Variant::Optimized);
    let steps: [(&str, Result<(), String>); 3] = [
        (
            "snapshot",
            mst.ok_or_else(|| "no mst/optimized cell".to_string())
                .and_then(|c| snapshot(&mut out, &dir, c)),
        ),
        ("journal", journal(&mut out, &dir, &spec, &results)),
        ("cache", cache(&mut out, &dir, &spec, &results)),
    ];
    for (name, r) in steps {
        if let Err(e) = r {
            out.error(format!("{name}: {e}"));
        }
    }
    let text = out.lines.join("\n") + "\n";
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("memfwd_bench_probe: writing {}: {e}", out_path.display());
        std::process::exit(2);
    }
}
