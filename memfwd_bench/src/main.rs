//! `memfwd_bench` — the repository's benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path memfwd_bench/Cargo.toml -- \
//!       --workload solo-batched --seed 12345 --seconds 15 --trace 0
//! $ cargo run --release --manifest-path memfwd_bench/Cargo.toml -- \
//!       compare --base-bin-dir A/target/release --head-bin-dir B/target/release
//! ```
//!
//! A run builds the repository's binaries (unless `--bin-dir` names them),
//! measures one workload for `--seconds`, checks every output, and prints
//! as its last stdout line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1`. Detailed results go to
//! `<target>/memfwd_bench/<workload>/`. See README.md.

mod compare;
mod json;
mod layers;
mod metrics;
mod proc;
mod report;
mod served;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use workloads::{Bins, Ctx, Workload};

const USAGE: &str = "\
memfwd_bench: end-to-end and per-layer benchmark of memfwd_sweep and memfwd_served

USAGE:
    memfwd_bench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]
                 [--bin-dir <dir>]
    memfwd_bench compare --base-bin-dir <dir> --head-bin-dir <dir> [--seed <n>]

WORKLOADS:
    solo-batched   health,mst,vis x 2 variants x lines 32,64,128, one
                   `memfwd_sweep --jobs 1` process per pass
    solo-perop     radiosity,eqntott,bh,compress,smv, same grid
    service-cold   a fresh `memfwd_served --jobs 2` per sample, one 16-cell
                   submit on an empty cache
    service-warm   one primed server, a closed loop of seeded cached jobs

OPTIONS:
    --seed <n>      workload seed: the apps' seed and the warm job mix
                    (default 12345)
    --seconds <n>   length of the measuring window (default 15, the run
                    length BENCHMARK.json sets)
    --trace 1       traced run: per-layer metrics, trace.json, layers.json
    --bin-dir <dir> use memfwd_sweep/memfwd_served from <dir> instead of
                    building the repository
";

/// The measuring window unless `--seconds` says otherwise; `compare` runs
/// both sides at it.
const DEFAULT_SECONDS: f64 = 15.0;

/// The whole run must end within this, builds excluded.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 12345u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut bin_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(val()?)),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("memfwd_bench: {e}");
            std::process::exit(2);
        }
    }
}

/// The repository this harness belongs to: the parent of its package.
fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the harness package has no parent directory")?
        .to_path_buf();
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} holds no memfwd workspace (Cargo.toml and crates/)",
            root.display()
        ));
    }
    Ok(root)
}

/// Cargo's target directory: `CARGO_TARGET_DIR` if set, else
/// `<root>/target`.
fn target_dir(root: &Path) -> Result<PathBuf, String> {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
            Ok(cwd.join(dir))
        }
        None => Ok(root.join("target")),
    }
}

/// `cargo build --release` of `manifest` into `target`, progress on
/// stderr.
fn cargo_build(root: &Path, manifest: &Path, target: &Path, extra: &[&str]) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        .args(extra)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building {} failed", manifest.display()))
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let root = repo_root()?;
    let target = target_dir(&root)?;
    let bin_dir = match &args.bin_dir {
        Some(dir) => dir.clone(),
        None => {
            cargo_build(
                &root,
                &root.join("Cargo.toml"),
                &target,
                &["--workspace", "--bins"],
            )?;
            target.join("release")
        }
    };
    let bins = Bins {
        sweep: bin_dir.join("memfwd_sweep"),
        served: bin_dir.join("memfwd_served"),
    };
    for b in [&bins.sweep, &bins.served] {
        if !b.is_file() {
            return Err(format!("{} does not exist", b.display()));
        }
    }
    // The library probe of a traced run is built before the clock starts.
    // It links the repository's crates, so an API change can break its
    // build; that only marks its metrics absent.
    let probe = if args.trace {
        cargo_build(
            &root,
            &root.join("memfwd_bench/probe/Cargo.toml"),
            &target,
            &["--quiet"],
        )
        .map(|()| target.join("release/memfwd_bench_probe"))
    } else {
        Err("untraced run".into())
    };
    proc::start_watchdog(RUN_LIMIT);

    let w = args.workload;
    let base = target.join("memfwd_bench");
    let work = base.join(format!("work-{}-{}", w.name(), std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let log_path = work.join("children.log");
    let log = std::fs::File::create(&log_path).map_err(|e| format!("creating log: {e}"))?;
    let mut ctx = Ctx {
        bins,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        log,
        tracer: trace::Tracer::new(args.trace),
    };
    let mut m = workloads::run(&mut ctx, w)?;

    let out_dir = base.join(w.name());
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let metrics = if args.trace {
        ctx.tracer.set_enabled(true);
        let values = layers::measure(&mut ctx, &mut m, probe);
        write(
            &out_dir.join("layers.json"),
            &layers_json(args, &values, &ctx.tracer),
        )?;
        write(&out_dir.join("trace.json"), &ctx.tracer.to_json())?;
        per_layer_metrics(&values)
    } else {
        let e2e = metrics::end_to_end(&m).ok_or("no operation was measured")?;
        print_e2e(args, &m, &e2e);
        write(&out_dir.join("results.json"), &results_json(args, &m, &e2e))?;
        e2e.iter()
            .map(|e| (e.def.name, e.value, e.def.unit))
            .collect()
    };
    for note in &m.notes {
        println!("{note}");
    }
    let correct = m.errors.is_empty() && m.failed == 0;
    for e in &m.errors {
        eprintln!("check failed: {e}");
    }
    if correct {
        std::fs::remove_dir_all(&work).ok();
    } else {
        eprintln!("outputs and child logs kept in {}", work.display());
    }
    println!("details in {}", out_dir.display());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// A JSON number; the metrics are finite by construction, and a stray
/// non-finite value must not make the result line unparseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn print_e2e(args: &Args, m: &workloads::Measured, e2e: &[metrics::E2e]) {
    println!(
        "workload {}: seed {}, {} s window, {} ops, {} of {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        m.ops.len(),
        m.failed,
        m.attempted
    );
    for e in e2e {
        let s = e.samples;
        println!(
            "  {:<16} {:>14.3} {:<7} (per op: median {:.3}, q1 {:.3}, q3 {:.3}, n {})",
            e.def.name, e.value, e.def.unit, s.median, s.q1, s.q3, s.n
        );
    }
    if let Some(s) = metrics::cpu_ms_per_op(m) {
        println!(
            "  cpu per op (informational): median {:.3} ms, q1 {:.3}, q3 {:.3}, n {}",
            s.median, s.q1, s.q3, s.n
        );
    }
    if let Some((p, v)) = metrics::latency_tail(m) {
        println!("  report_ms p{p} {v:.3} ms (n {})", m.ops.len());
    }
}

fn results_json(args: &Args, m: &workloads::Measured, e2e: &[metrics::E2e]) -> String {
    let rows: Vec<String> = e2e
        .iter()
        .map(|e| {
            let s = e.samples;
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                e.def.name, num(e.value), e.def.unit, num(s.median), num(s.q1), num(s.q3), s.n
            )
        })
        .collect();
    let tail = metrics::latency_tail(m).map_or("null".into(), |(p, v)| {
        format!(
            "{{\"percentile\": {p}, \"value_ms\": {}, \"n\": {}}}",
            num(v),
            m.ops.len()
        )
    });
    let cpu = metrics::cpu_ms_per_op(m).map_or("null".into(), |s| {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            num(s.median),
            num(s.q1),
            num(s.q3),
            s.n
        )
    });
    let strs = |v: &[String]| {
        v.iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"report_ms_tail\": {tail},\n  \"cpu_ms_per_op\": {cpu},\n  \"errors\": [{}],\n  \"notes\": [{}]\n}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        m.attempted,
        m.failed,
        rows.join(",\n"),
        strs(&m.errors),
        strs(&m.notes),
    )
}

/// The per-layer metrics in catalogue order. An absent metric reads 0 in
/// the result line, so a change that deletes a layer cannot break the
/// benchmark, and `layers.json` says why it is absent.
fn per_layer_metrics(values: &layers::Values) -> Vec<(&'static str, f64, &'static str)> {
    metrics::PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let v = match values.get(*name) {
                Some(Ok(v)) => *v,
                Some(Err(why)) => {
                    eprintln!("per-layer metric {name} absent: {why}");
                    0.0
                }
                None => {
                    eprintln!("per-layer metric {name} absent: not measured");
                    0.0
                }
            };
            (*name, v, *unit)
        })
        .collect()
}

fn layers_json(args: &Args, values: &layers::Values, tracer: &trace::Tracer) -> String {
    let rows: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|(name, unit, moves)| {
            let v = match values.get(*name) {
                Some(Ok(v)) => format!("\"value\": {}", num(*v)),
                Some(Err(why)) => format!("\"value\": null, \"absent\": \"{}\"", json::escape(why)),
                None => "\"value\": null, \"absent\": \"not measured\"".to_string(),
            };
            format!(
                "    \"{name}\": {{{v}, \"unit\": \"{unit}\", \"moves\": \"{}\"}}",
                json::escape(moves)
            )
        })
        .collect();
    let self_ms: Vec<String> = tracer
        .self_ms_by_name()
        .iter()
        .map(|(name, ms)| format!("    \"{}\": {}", json::escape(name), num(*ms)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"self_ms_by_span\": {{\n{}\n  }}\n}}\n",
        args.workload.name(),
        args.seed,
        rows.join(",\n"),
        self_ms.join(",\n")
    )
}
