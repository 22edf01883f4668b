//! `memfwd-sim` — command-line front end to the simulator.
//!
//! Runs any of the eight applications under any layout variant and machine
//! configuration, and prints the full statistics block. This is the
//! "driver binary" a downstream user reaches for first.
//!
//! ```console
//! $ cargo run --release -p memfwd-bench --bin memfwd_sim -- \
//!       --app vis --variant optimized --line-bytes 128 --prefetch 2
//! ```

use memfwd::{InjectConfig, MachineFault};
use memfwd_apps::{run_ck, App, AppOutput, Checkpointer, CkOutcome, RunConfig, Scale, Variant};
use std::path::PathBuf;

const USAGE: &str = "\
memfwd-sim: run one application on the memory-forwarding simulator

USAGE:
    memfwd_sim [OPTIONS]

OPTIONS:
    --app <name>            health|mst|radiosity|vis|eqntott|bh|compress|smv
                            (default: vis)
    --variant <v>           original|optimized|static (default: original)
    --perfect-forwarding    model the Fig. 10 `Perf` bound
    --no-speculation        disable data-dependence speculation
    --line-bytes <n>        cache line size, power of two >= 16 (default: 32)
    --mem-latency <n>       main-memory latency in cycles (default: 75)
    --prefetch <blocks>     enable software prefetching with this block size
    --store-buffer <n>      enable an n-entry store buffer
    --hw-prefetch           enable the tagged next-line hardware prefetcher
    --scale <s>             smoke|bench (default: bench)
    --seed <n>              workload seed (default: 12345)
    --checkpoint-dir <dir>  periodically write a crash-safe snapshot to
                            <dir>/<app>.ckpt (atomic temp-file + rename);
                            the run's results are unaffected
    --checkpoint-every <n>  checkpoint cadence in demand references
                            (default: at least 16384 references and at
                            least the previous snapshot's size in bytes
                            apart)
    --resume <file>         resume from a snapshot written by
                            --checkpoint-dir; all other flags must match
                            the configuration that wrote the snapshot
    --inject-fbit <ppm>     corrupt forwarding bits, per million accesses
    --inject-scramble <ppm> scramble forwarding-chain words, per million
    --inject-alloc <ppm>    fail heap/pool allocations, per million
    --inject-seed <n>       fault-injection RNG seed
    --no-recover            leave injected corruption in place: the run ends
                            in a typed machine fault (nonzero exit) instead
                            of trap-based recovery
    --lint                  pre-flight: capture the relocation schedule this
                            configuration produces, verify it with the
                            memfwd_lint engine, and refuse to run (exit 20)
                            if any MF0xx error fires; the capture run's
                            output is reused as the run itself (capture is
                            host-side only, so it is bit-identical), except
                            with --checkpoint-dir/--resume where the
                            workload runs again under the checkpointer
    --help                  print this text

A run that aborts on a machine fault reports the typed fault on stderr
and exits with a fault-specific code; harness errors use 2.

EXIT CODES:
    0   success                      2   usage / harness error
    10  forwarding-cycle             15  invalid-free
    11  heap-exhausted               16  hop-limit-exceeded
    12  pool-exhausted               17  corrupt-snapshot
    13  misaligned                   18  no-progress (watchdog)
    14  null-deref                   19  walk-storm (watchdog)
    20  lint pre-flight rejected the relocation schedule
";

struct Cli {
    app: App,
    cfg: RunConfig,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    lint: bool,
}

fn parse() -> Result<Cli, String> {
    let mut app = App::Vis;
    let mut cfg = RunConfig::new(Variant::Original);
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut lint = false;
    let mut inject = InjectConfig::default();
    let mut inject_requested = false;
    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--app" => {
                let v = next_val(&mut args, "--app")?;
                app = match v.as_str() {
                    "health" => App::Health,
                    "mst" => App::Mst,
                    "radiosity" => App::Radiosity,
                    "vis" => App::Vis,
                    "eqntott" => App::Eqntott,
                    "bh" => App::Bh,
                    "compress" => App::Compress,
                    "smv" => App::Smv,
                    other => return Err(format!("unknown app '{other}'")),
                };
            }
            "--variant" => {
                let v = next_val(&mut args, "--variant")?;
                cfg.variant = match v.as_str() {
                    "original" | "n" | "N" => Variant::Original,
                    "optimized" | "l" | "L" => Variant::Optimized,
                    "static" | "s" | "S" => Variant::Static,
                    other => return Err(format!("unknown variant '{other}'")),
                };
            }
            "--perfect-forwarding" => cfg.sim.perfect_forwarding = true,
            "--no-speculation" => cfg.sim.dependence_speculation = false,
            "--line-bytes" => {
                let v: u64 = next_val(&mut args, "--line-bytes")?
                    .parse()
                    .map_err(|e| format!("--line-bytes: {e}"))?;
                cfg.sim = cfg.sim.with_line_bytes(v);
            }
            "--mem-latency" => {
                cfg.sim.hierarchy.mem_latency = next_val(&mut args, "--mem-latency")?
                    .parse()
                    .map_err(|e| format!("--mem-latency: {e}"))?;
            }
            "--prefetch" => {
                let blocks: u64 = next_val(&mut args, "--prefetch")?
                    .parse()
                    .map_err(|e| format!("--prefetch: {e}"))?;
                cfg.prefetch = true;
                cfg.prefetch_lines = blocks;
            }
            "--store-buffer" => {
                cfg.sim.store_buffer_entries = Some(
                    next_val(&mut args, "--store-buffer")?
                        .parse()
                        .map_err(|e| format!("--store-buffer: {e}"))?,
                );
            }
            "--hw-prefetch" => cfg.sim.hierarchy.next_line_prefetch = true,
            "--scale" => {
                cfg.scale = match next_val(&mut args, "--scale")?.as_str() {
                    "smoke" => Scale::Smoke,
                    "bench" => Scale::Bench,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--seed" => {
                cfg.seed = next_val(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(next_val(&mut args, "--checkpoint-dir")?));
            }
            "--checkpoint-every" => {
                let refs: u64 = next_val(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if refs == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
                cfg.sim = cfg.sim.with_checkpoint_every(refs);
            }
            "--resume" => {
                resume = Some(PathBuf::from(next_val(&mut args, "--resume")?));
            }
            "--inject-fbit" => {
                inject.fbit_flip_ppm = next_val(&mut args, "--inject-fbit")?
                    .parse()
                    .map_err(|e| format!("--inject-fbit: {e}"))?;
                inject_requested = true;
            }
            "--inject-scramble" => {
                inject.chain_scramble_ppm = next_val(&mut args, "--inject-scramble")?
                    .parse()
                    .map_err(|e| format!("--inject-scramble: {e}"))?;
                inject_requested = true;
            }
            "--inject-alloc" => {
                inject.alloc_fail_ppm = next_val(&mut args, "--inject-alloc")?
                    .parse()
                    .map_err(|e| format!("--inject-alloc: {e}"))?;
                inject_requested = true;
            }
            "--inject-seed" => {
                inject.seed = next_val(&mut args, "--inject-seed")?
                    .parse()
                    .map_err(|e| format!("--inject-seed: {e}"))?;
                inject_requested = true;
            }
            "--no-recover" => {
                inject.recover = false;
                inject_requested = true;
            }
            "--lint" => lint = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if inject_requested {
        cfg.sim = cfg.sim.with_fault_injection(inject);
    }
    Ok(Cli {
        app,
        cfg,
        checkpoint_dir,
        resume,
        lint,
    })
}

/// The `--lint` pre-flight: capture the relocation schedule this exact
/// configuration produces and verify it. Error diagnostics refuse the run
/// with exit 20; warnings are printed and the run proceeds.
///
/// Returns the capture run's full output. Capture is host-side only, so
/// the output is bit-identical to a fresh run of the same configuration —
/// a caller with no checkpointing in play reuses it directly, halving the
/// cost of a linted run from two workload executions to one.
fn lint_preflight(app: App, cfg: &RunConfig) -> AppOutput {
    let captured = memfwd_analyze::capture_app_plan(app, cfg);
    let target = memfwd_analyze::app_target(app, cfg);
    let report = memfwd_analyze::verify_plan(&target, &captured.plan);
    if report.diagnostics.is_empty() {
        eprintln!(
            "lint: {target}: certified safe ({} relocation steps)",
            report.steps
        );
    } else {
        eprint!("{}", memfwd_analyze::render_human(&report));
    }
    if report.errors().next().is_some() {
        eprintln!("lint: relocation schedule rejected; not running");
        std::process::exit(20);
    }
    match captured.result {
        Ok(out) => out,
        // The schedule verified clean but the capture run itself died —
        // surface that as the machine fault it is rather than starting a
        // second doomed run.
        Err(fault) => fault_exit(&fault),
    }
}

fn fault_exit(fault: &MachineFault) -> ! {
    eprintln!("machine fault: {fault}");
    eprintln!("fault kind:    {}", fault.kind());
    std::process::exit(fault.exit_code());
}

fn main() {
    let cli = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (app, cfg) = (cli.app, cli.cfg);

    // With no checkpointing in play the lint capture run IS the run: its
    // output is bit-identical, so it is printed instead of re-executing.
    // Checkpointed (or resumed) runs must still go through the
    // checkpointer, so there the capture output is only a certificate.
    let mut preflight_out: Option<AppOutput> = None;
    if cli.lint {
        let out = lint_preflight(app, &cfg);
        if cli.checkpoint_dir.is_none() && cli.resume.is_none() {
            preflight_out = Some(out);
        }
    }

    let mut ck = match &cli.checkpoint_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: --checkpoint-dir {}: {e}", dir.display());
                std::process::exit(2);
            }
            Checkpointer::to_file(dir.join(format!("{app}.ckpt")))
        }
        None => Checkpointer::disabled(),
    };
    if let Some(path) = &cli.resume {
        let image = match memfwd::read_snapshot_file(path) {
            Ok(image) => image,
            Err(e) => fault_exit(&MachineFault::from(e)),
        };
        // Validate the snapshot against *this* invocation's configuration
        // before building anything: a config-skewed resume must fail fast
        // with a clear message, not deep inside machine reconstruction.
        if let Err(e) = memfwd::check_snapshot_config(&image, &cfg.sim) {
            if matches!(e, memfwd::SnapshotError::ConfigMismatch) {
                eprintln!(
                    "error: snapshot {} does not match this configuration: {e}",
                    path.display()
                );
                eprintln!(
                    "hint: --resume requires the same --app/--variant/--line-bytes/... \
                     flags as the run that wrote the snapshot"
                );
            } else {
                eprintln!("error: snapshot {} is unusable: {e}", path.display());
            }
            fault_exit(&MachineFault::from(e));
        }
        ck = ck.resume_from(image);
    }

    let wall = std::time::Instant::now();
    let out = match preflight_out {
        Some(out) => out,
        None => match run_ck(app, &cfg, &mut ck) {
            Ok(CkOutcome::Done(out)) => out,
            Ok(CkOutcome::Stopped) => unreachable!("the CLI never uses a stop_after checkpointer"),
            Err(fault) => fault_exit(&fault),
        },
    };
    let s = &out.stats;
    let slots = s.slots();

    println!(
        "app                  {app} ({:?}, seed {})",
        cfg.variant, cfg.seed
    );
    println!("checksum             {:#018x}", out.checksum);
    println!("cycles               {}", s.cycles());
    println!(
        "instructions         {} ({:.2} IPC)",
        s.pipeline.dispatched,
        s.pipeline.dispatched as f64 / s.cycles().max(1) as f64
    );
    let (b, l, st, i) = slots.fractions();
    println!(
        "graduation slots     busy {:.1}% | load stall {:.1}% | store stall {:.1}% | inst stall {:.1}%",
        b * 100.0,
        l * 100.0,
        st * 100.0,
        i * 100.0
    );
    println!(
        "loads                {} ({} L1 hits, {} partial, {} full misses)",
        s.cache.loads.total(),
        s.cache.loads.l1_hits,
        s.cache.loads.partial_misses,
        s.cache.loads.full_misses
    );
    println!(
        "stores               {} ({} misses)",
        s.cache.stores.total(),
        s.cache.stores.misses()
    );
    println!(
        "bandwidth            {} B L1<->L2, {} B L2<->mem",
        s.bytes_l1_l2, s.bytes_l2_mem
    );
    println!(
        "forwarding           {} loads ({:.2}%), {} stores ({:.2}%) forwarded",
        s.fwd.forwarded_loads,
        s.fwd.forwarded_load_fraction() * 100.0,
        s.fwd.forwarded_stores,
        s.fwd.forwarded_store_fraction() * 100.0
    );
    println!(
        "relocation           {} calls, {} words, {} KB pool space",
        s.fwd.relocations,
        s.fwd.relocated_words,
        s.fwd.relocation_space_bytes / 1024
    );
    println!(
        "speculation          {} misspeculations, {} replays",
        s.fwd.misspeculations, s.pipeline.replays
    );
    println!(
        "memory               {} pages touched, {} fbits set, tag overhead {} B",
        s.mem.pages,
        s.mem.fbits_set,
        s.mem.tag_bytes()
    );
    if s.fwd.page_faults > 0 {
        println!("page faults          {}", s.fwd.page_faults);
    }
    if let Some(dir) = &cli.checkpoint_dir {
        println!(
            "checkpoints          {} written to {}",
            ck.boundaries_seen(),
            dir.join(format!("{app}.ckpt")).display()
        );
    }
    if s.fwd.injected_faults > 0 {
        println!(
            "fault injection      {} injected, {} repaired, {} trap deliveries",
            s.fwd.injected_faults, s.fwd.fault_repairs, s.fwd.faults_delivered
        );
    }
    println!("wall time            {:.2?}", wall.elapsed());
}
