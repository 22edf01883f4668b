//! `memfwd_sweep` — parallel sweep driver and supervised campaign runner.
//!
//! Expands a declarative sweep spec (app × variant × line-bytes ×
//! mem-latency × seed) into independent simulator runs, executes them on a
//! worker pool, and writes a machine-readable `BENCH_sweep.json`. The
//! report content is bit-identical at any `--jobs` value; only the
//! `host_`-prefixed timing fields change between hosts and runs.
//!
//! With `--supervised` each cell runs in an out-of-process worker (a
//! re-exec of this binary in its hidden `--worker-cell` mode) under the
//! `memfwd-farm` supervisor: worker crashes are isolated to one cell,
//! failed cells are retried with backoff then quarantined as typed holes,
//! and every terminal outcome is durably journaled so a SIGKILLed
//! campaign resumes with `--resume`, recomputing only unfinished cells.
//!
//! ```console
//! $ cargo run --release -p memfwd-bench --bin memfwd_sweep -- \
//!       --apps health,mst --variants original,optimized \
//!       --line-bytes 32,64,128 --jobs 8 --scale bench \
//!       --supervised --farm-dir target/farm
//! ```

use memfwd_apps::{App, Scale, Variant};
use memfwd_bench::sweep::{
    run_sweep, selftest, strip_host_lines, strip_volatile_lines, validate_report, SweepSpec,
};
use memfwd_farm::{
    campaign_fingerprint, parse_worker_args, run_campaign, run_worker_cell, ChaosSpec, FarmOptions,
    Journal, SubprocessRunner, WorkerArgs,
};

const USAGE: &str = "\
memfwd-sweep: run an app/variant/line/latency/seed sweep in parallel

USAGE:
    memfwd_sweep [OPTIONS]

OPTIONS:
    --apps <a,b,...>        comma-separated subset of
                            health,mst,radiosity,vis,eqntott,bh,compress,smv
                            or 'all' (default: all)
    --variants <v,...>      comma-separated subset of
                            original,optimized,static
                            (default: original,optimized)
    --line-bytes <n,...>    cache line sizes to sweep (default: 32)
    --mem-latency <n,...>   memory latencies to sweep (default: 75)
    --seeds <n,...>         workload seeds to sweep (default: 12345)
    --scale <s>             smoke|bench for every cell (default: smoke)
    --jobs <n|auto>         sweep worker threads, one cell per worker
                            (default: auto = the host's available
                            parallelism)
    --out <file>            report path (default: BENCH_sweep.json)
    --selftest              also time the fixed single-run probe cell
                            (health/optimized) and record its
                            refs-per-second in the report
    --lint-preflight        before the grid, capture and verify the
                            relocation schedule of every app x variant in
                            the spec at smoke scale; any MF0xx error
                            aborts the sweep with exit 20
    --validate <file>       validate an existing report's schema and exit
    --strip-host <file>     print a report with host-timing lines removed
                            (for determinism diffs) and exit
    --strip-volatile <file> like --strip-host but also drop campaign
                            bookkeeping (outcome/attempts/error/summary),
                            for diffing a recovered chaos campaign against
                            a clean golden run
    --help                  print this text

SUPERVISED CAMPAIGNS:
    --supervised            run each cell in an out-of-process worker
                            under the farm supervisor (crash isolation,
                            retry/backoff, durable journal)
    --farm-dir <dir>        journal + checkpoint directory
                            (default: target/farm)
    --resume                resume the campaign from the journal in
                            --farm-dir, recomputing only unfinished cells
    --retries <n>           retries per failed cell after the first
                            attempt (default: 2)
    --backoff-ms <n>        base retry backoff in milliseconds, doubling
                            per retry with seeded jitter (default: 50)
    --cell-timeout-ms <n>   kill a worker that sends no heartbeat for
                            this long (workers beat every 16384 demand
                            references); the attempt counts as timed
                            out (default: off)
    --ckpt-every <n>        worker checkpoint cadence in demand
                            references (default: at least 16384 refs
                            and at least the last image's size in
                            bytes apart; liveness does not depend on it)
    --chaos <spec>          inject failures by cell index for testing:
                            panic@I,abort@J,hang@K (panic/abort fire on
                            attempt 0 only; hang fires every attempt)
    --crash-after-appends <n>
                            testing knob: stop the supervisor cold after
                            the n-th journal append, exactly as if it had
                            been SIGKILLed there (exits 137); resume with
                            --resume

SERVICE CLIENT:
    --submit <socket>       submit the grid to a running memfwd_served
                            instance instead of executing locally, wait
                            for completion, and write the report it
                            returns verbatim to --out (byte-identical to
                            a local run after --strip-volatile)
    --job-timeout-ms <n>    whole-job deadline enforced by the service
                            (default: none)
    (--retries / --backoff-ms / --cell-timeout-ms are forwarded as the
    job's supervision options; --supervised, --resume, --chaos,
    --selftest, and --lint-preflight do not combine with --submit)

EXIT CODES:
    0  success    1  validation failed    2  usage error
    20 lint pre-flight rejected a relocation schedule
    21 campaign degraded: completed, but with poisoned/timed-out cells
    22 campaign journal unusable (corrupt, version-skewed, or from a
       different campaign)
    23 service shed the submission (typed backpressure) or is draining
    24 service unreachable, protocol error, or job failed service-side
";

struct Cli {
    spec: SweepSpec,
    jobs: usize,
    out: std::path::PathBuf,
    selftest: bool,
    lint_preflight: bool,
    supervised: bool,
    farm_dir: std::path::PathBuf,
    resume: bool,
    retries: u32,
    backoff_ms: u64,
    cell_timeout_ms: Option<u64>,
    ckpt_every: Option<u64>,
    chaos: ChaosSpec,
    crash_after_appends: Option<u64>,
    submit: Option<std::path::PathBuf>,
    job_timeout_ms: Option<u64>,
}

enum Mode {
    Sweep(Box<Cli>),
    Validate(std::path::PathBuf),
    StripHost(std::path::PathBuf),
    StripVolatile(std::path::PathBuf),
    Worker(Box<WorkerArgs>),
}

fn parse_list<T, E: std::fmt::Display>(
    flag: &str,
    val: &str,
    f: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, E> = val.split(',').map(|s| f(s.trim())).collect();
    let items = items.map_err(|e| format!("{flag}: {e}"))?;
    if items.is_empty() {
        return Err(format!("{flag}: empty list"));
    }
    Ok(items)
}

fn parse() -> Result<Mode, String> {
    let mut spec = SweepSpec::default();
    let mut jobs = memfwd_bench::host_parallelism();
    let mut out = std::path::PathBuf::from("BENCH_sweep.json");
    let mut want_selftest = false;
    let mut lint_preflight = false;
    let mut supervised = false;
    let mut farm_dir = std::path::PathBuf::from("target/farm");
    let mut resume = false;
    let mut retries = 2u32;
    let mut backoff_ms = 50u64;
    let mut cell_timeout_ms = None;
    let mut ckpt_every = None;
    let mut chaos = ChaosSpec::default();
    let mut crash_after_appends = None;
    let mut submit = None;
    let mut job_timeout_ms = None;
    let mut args = std::env::args();
    let _argv0 = args.next();
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--worker-cell" => {
                // Hidden internal mode: the rest of argv describes one cell.
                return Ok(Mode::Worker(Box::new(parse_worker_args(args)?)));
            }
            "--apps" => {
                let v = next_val(&mut args, "--apps")?;
                spec.apps = if v == "all" {
                    App::ALL.to_vec()
                } else {
                    parse_list("--apps", &v, |s| {
                        App::from_name(s).ok_or_else(|| format!("unknown app '{s}'"))
                    })?
                };
            }
            "--variants" => {
                let v = next_val(&mut args, "--variants")?;
                spec.variants = parse_list("--variants", &v, |s| {
                    Variant::from_name(s).ok_or_else(|| format!("unknown variant '{s}'"))
                })?;
            }
            "--line-bytes" => {
                let v = next_val(&mut args, "--line-bytes")?;
                spec.line_bytes = parse_list("--line-bytes", &v, |s| s.parse::<u64>())?;
            }
            "--mem-latency" => {
                let v = next_val(&mut args, "--mem-latency")?;
                spec.mem_latency = parse_list("--mem-latency", &v, |s| s.parse::<u64>())?;
            }
            "--seeds" => {
                let v = next_val(&mut args, "--seeds")?;
                spec.seeds = parse_list("--seeds", &v, |s| s.parse::<u64>())?;
            }
            "--scale" => {
                spec.scale = match next_val(&mut args, "--scale")?.as_str() {
                    "smoke" => Scale::Smoke,
                    "bench" => Scale::Bench,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--jobs" => {
                let v = next_val(&mut args, "--jobs")?;
                jobs = memfwd_bench::parse_thread_count(&v).map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--out" => out = std::path::PathBuf::from(next_val(&mut args, "--out")?),
            "--selftest" => want_selftest = true,
            "--lint-preflight" => lint_preflight = true,
            "--supervised" => supervised = true,
            "--farm-dir" => farm_dir = std::path::PathBuf::from(next_val(&mut args, "--farm-dir")?),
            "--resume" => resume = true,
            "--retries" => {
                retries = next_val(&mut args, "--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--backoff-ms" => {
                backoff_ms = next_val(&mut args, "--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?;
            }
            "--cell-timeout-ms" => {
                cell_timeout_ms = Some(
                    next_val(&mut args, "--cell-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--cell-timeout-ms: {e}"))?,
                );
            }
            "--ckpt-every" => {
                ckpt_every = Some(
                    next_val(&mut args, "--ckpt-every")?
                        .parse()
                        .map_err(|e| format!("--ckpt-every: {e}"))?,
                );
            }
            "--chaos" => {
                chaos = ChaosSpec::parse(&next_val(&mut args, "--chaos")?)?;
            }
            "--crash-after-appends" => {
                crash_after_appends = Some(
                    next_val(&mut args, "--crash-after-appends")?
                        .parse()
                        .map_err(|e| format!("--crash-after-appends: {e}"))?,
                );
            }
            "--submit" => {
                submit = Some(std::path::PathBuf::from(next_val(&mut args, "--submit")?));
            }
            "--job-timeout-ms" => {
                job_timeout_ms = Some(
                    next_val(&mut args, "--job-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--job-timeout-ms: {e}"))?,
                );
            }
            "--validate" => {
                return Ok(Mode::Validate(std::path::PathBuf::from(next_val(
                    &mut args,
                    "--validate",
                )?)));
            }
            "--strip-host" => {
                return Ok(Mode::StripHost(std::path::PathBuf::from(next_val(
                    &mut args,
                    "--strip-host",
                )?)));
            }
            "--strip-volatile" => {
                return Ok(Mode::StripVolatile(std::path::PathBuf::from(next_val(
                    &mut args,
                    "--strip-volatile",
                )?)));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if resume && !supervised {
        return Err("--resume requires --supervised".into());
    }
    if !chaos.is_empty() && !supervised {
        return Err("--chaos requires --supervised".into());
    }
    if crash_after_appends.is_some() && !supervised {
        return Err("--crash-after-appends requires --supervised".into());
    }
    if submit.is_some() {
        if supervised || resume {
            return Err("--submit executes on the service; drop --supervised/--resume".into());
        }
        if !chaos.is_empty() || crash_after_appends.is_some() {
            return Err("--chaos/--crash-after-appends do not combine with --submit".into());
        }
        if want_selftest || lint_preflight {
            return Err(
                "--selftest/--lint-preflight are local-only; drop them for --submit".into(),
            );
        }
    }
    if job_timeout_ms.is_some() && submit.is_none() {
        return Err("--job-timeout-ms requires --submit".into());
    }
    Ok(Mode::Sweep(Box::new(Cli {
        spec,
        jobs,
        out,
        selftest: want_selftest,
        lint_preflight,
        supervised,
        farm_dir,
        resume,
        retries,
        backoff_ms,
        cell_timeout_ms,
        ckpt_every,
        chaos,
        crash_after_appends,
        submit,
        job_timeout_ms,
    })))
}

/// Verifies the relocation schedule of every app x variant in the spec at
/// smoke scale (fast, layout-representative) before committing to the
/// grid. Exits 20 on the first schedule with an error diagnostic.
fn run_lint_preflight(spec: &SweepSpec) {
    for &app in &spec.apps {
        for &variant in &spec.variants {
            let mut cfg = memfwd_apps::RunConfig::new(variant).smoke();
            cfg.seed = spec.seeds.first().copied().unwrap_or(12345);
            let captured = memfwd_analyze::capture_app_plan(app, &cfg);
            let target = memfwd_analyze::app_target(app, &cfg);
            let report = memfwd_analyze::verify_plan(&target, &captured.plan);
            if report.errors().next().is_some() {
                eprint!("{}", memfwd_analyze::render_human(&report));
                eprintln!("lint-preflight: {target}: schedule rejected; sweep aborted");
                std::process::exit(20);
            }
            eprintln!(
                "lint-preflight: {target}: safe ({} steps, {} diagnostics)",
                report.steps,
                report.diagnostics.len()
            );
        }
    }
}

fn read_or_die(path: &std::path::Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Opens (or resumes) the campaign journal, mapping every typed journal
/// problem to exit 22 with a clear message.
fn open_journal(cli: &Cli, fingerprint: u64) -> Journal {
    let path = cli.farm_dir.join("journal.mfj");
    if cli.resume {
        match Journal::load(&path, fingerprint) {
            Ok(j) => {
                eprintln!(
                    "supervisor: resuming campaign from {} ({} journaled cells)",
                    path.display(),
                    j.len()
                );
                j
            }
            Err(e) => {
                eprintln!("error: cannot resume from {}: {e}", path.display());
                std::process::exit(22);
            }
        }
    } else {
        if path.exists() {
            eprintln!(
                "error: {} already exists; pass --resume to continue that campaign \
                 or remove the farm dir to start over",
                path.display()
            );
            std::process::exit(22);
        }
        match Journal::create(&path, fingerprint) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: creating journal {}: {e}", path.display());
                std::process::exit(22);
            }
        }
    }
}

fn run_supervised(cli: &Cli) -> memfwd_bench::sweep::SweepReport {
    if let Err(e) = std::fs::create_dir_all(&cli.farm_dir) {
        eprintln!("error: creating farm dir {}: {e}", cli.farm_dir.display());
        std::process::exit(2);
    }
    let fingerprint = campaign_fingerprint(&cli.spec);
    let mut journal = open_journal(cli, fingerprint);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating own binary for worker re-exec: {e}");
            std::process::exit(2);
        }
    };
    let runner = SubprocessRunner {
        exe,
        farm_dir: cli.farm_dir.clone(),
        cell_timeout: cli.cell_timeout_ms.map(std::time::Duration::from_millis),
        ckpt_every: cli.ckpt_every,
        chaos: cli.chaos.clone(),
    };
    let opts = FarmOptions {
        jobs: cli.jobs,
        retries: cli.retries,
        backoff_ms: cli.backoff_ms,
        cell_timeout: runner.cell_timeout,
        crash_after_appends: cli.crash_after_appends,
        ..FarmOptions::default()
    };
    let run = match run_campaign(&cli.spec, &opts, &runner, &mut journal) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: campaign journal failure: {e}");
            std::process::exit(22);
        }
    };
    eprintln!(
        "supervisor: {} cells from journal (zero recompute), {} executed",
        run.from_journal, run.executed
    );
    match run.report {
        Some(report) => report,
        None => {
            // Only reachable via --crash-after-appends; a real SIGKILL
            // never gets here. Mirror SIGKILL's conventional exit status.
            eprintln!("supervisor: campaign crashed at injected crash point (simulating SIGKILL)");
            std::process::exit(137);
        }
    }
}

fn die_submit(msg: &str) -> ! {
    eprintln!("submit: {msg}");
    std::process::exit(24);
}

/// Client mode: submits the grid to a running `memfwd_served`, waits for
/// the job to finish, and writes the report the service returns verbatim
/// to `--out`. The report is the same `BENCH_sweep.json` a local run of
/// the grid would produce — byte-identical after `--strip-volatile` —
/// whether the service computed, cached, or crash-resumed the cells.
#[cfg(unix)]
fn run_submit(cli: &Cli, socket: &std::path::Path) -> ! {
    use memfwd_farm::minijson::{parse_json, Json};
    use memfwd_served::proto;
    use std::io::{BufRead, BufReader, Write};

    let stream = match std::os::unix::net::UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => die_submit(&format!("connecting to {}: {e}", socket.display())),
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => die_submit(&format!("socket: {e}")),
    });
    let mut writer = stream;
    let mut rpc = move |line: String| -> Json {
        let sent = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Err(e) = sent {
            die_submit(&format!("sending request: {e}"));
        }
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) => die_submit("service closed the connection"),
            Ok(_) => {}
            Err(e) => die_submit(&format!("reading response: {e}")),
        }
        match parse_json(&resp) {
            Ok(v) => v,
            Err(e) => die_submit(&format!("unparseable response: {e}")),
        }
    };
    fn rtype(v: &Json) -> &str {
        v.get("type").and_then(Json::as_str).unwrap_or("?")
    }
    fn detail(v: &Json) -> &str {
        v.get("error").and_then(Json::as_str).unwrap_or("no detail")
    }

    let options = memfwd_served::JobOptions {
        retries: cli.retries,
        backoff_ms: cli.backoff_ms,
        cell_timeout_ms: cli.cell_timeout_ms,
        job_timeout_ms: cli.job_timeout_ms,
    };
    let v = rpc(format!(
        "{{\"op\":\"submit\",\"spec\":{},\"options\":{}}}",
        proto::spec_to_json(&cli.spec),
        proto::options_to_json(&options),
    ));
    let job = match rtype(&v) {
        "accepted" => match v.get("job").and_then(Json::as_str) {
            Some(j) => j.to_string(),
            None => die_submit("accepted response missing the job id"),
        },
        "shed" => {
            eprintln!(
                "submit: shed by the service ({}; depth {} of {}); retry later",
                v.get("reason").and_then(Json::as_str).unwrap_or("?"),
                v.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
                v.get("limit").and_then(Json::as_u64).unwrap_or(0),
            );
            std::process::exit(23);
        }
        "draining" => {
            eprintln!("submit: service is draining and admits no new work; retry later");
            std::process::exit(23);
        }
        other => die_submit(&format!("submit refused ({other}): {}", detail(&v))),
    };
    eprintln!("submit: accepted as {job}");

    loop {
        let v = rpc(format!("{{\"op\":\"status\",\"job\":\"{job}\"}}"));
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("queued") | Some("running") => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Some(other) => {
                // "failed" (or a state this client predates): the report
                // op carries the reason as a typed error.
                let r = rpc(format!("{{\"op\":\"report\",\"job\":\"{job}\"}}"));
                die_submit(&format!("job {job} ended {other}: {}", detail(&r)));
            }
            None => die_submit(&format!("malformed status response: {}", detail(&v))),
        }
    }

    let v = rpc(format!("{{\"op\":\"report\",\"job\":\"{job}\"}}"));
    if rtype(&v) != "report" {
        die_submit(&format!("fetching report: {}", detail(&v)));
    }
    let Some(report) = v.get("report").and_then(Json::as_str) else {
        die_submit("report response missing the report body");
    };
    let degraded = v.get("degraded").and_then(Json::as_bool).unwrap_or(false);
    if let Err(e) = std::fs::write(&cli.out, report.as_bytes()) {
        eprintln!("error: writing {}: {e}", cli.out.display());
        std::process::exit(2);
    }
    println!(
        "report written to {} (computed by the service as {job})",
        cli.out.display()
    );
    if degraded {
        eprintln!("campaign degraded: the service reported poisoned/timed-out cells");
        std::process::exit(21);
    }
    std::process::exit(0);
}

#[cfg(not(unix))]
fn run_submit(_cli: &Cli, _socket: &std::path::Path) -> ! {
    die_submit("--submit requires Unix domain sockets")
}

fn main() {
    let cli = match parse() {
        Ok(Mode::Sweep(cli)) => cli,
        Ok(Mode::Worker(args)) => std::process::exit(run_worker_cell(&args)),
        Ok(Mode::Validate(path)) => {
            let text = read_or_die(&path);
            match validate_report(&text) {
                Ok(()) => {
                    println!("{}: valid BENCH_sweep.json", path.display());
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        Ok(Mode::StripHost(path)) => {
            println!("{}", strip_host_lines(&read_or_die(&path)));
            std::process::exit(0);
        }
        Ok(Mode::StripVolatile(path)) => {
            println!("{}", strip_volatile_lines(&read_or_die(&path)));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(socket) = &cli.submit {
        run_submit(&cli, socket);
    }

    if cli.lint_preflight {
        run_lint_preflight(&cli.spec);
    }

    let selftest_rps = if cli.selftest {
        let r = selftest(cli.spec.scale);
        let rps = r.refs_per_second();
        println!(
            "selftest: {} ({:?}) {} refs in {:.2?} -> {:.0} refs/s",
            r.spec.app,
            r.spec.variant,
            r.refs,
            std::time::Duration::from_nanos(r.host_nanos),
            rps
        );
        Some(rps)
    } else {
        None
    };

    let n_cells = cli.spec.expand().len();
    eprintln!(
        "sweep: {} cells on {} worker(s), scale {:?}{}",
        n_cells,
        cli.jobs,
        cli.spec.scale,
        if cli.supervised { " [supervised]" } else { "" }
    );
    let mut report = if cli.supervised {
        run_supervised(&cli)
    } else {
        run_sweep(&cli.spec, cli.jobs)
    };
    report.selftest_refs_per_second = selftest_rps;

    for c in &report.cells {
        match c.sim() {
            Some(r) => println!(
                "{:>10} {:>9} line {:>3} lat {:>3} seed {:>6}  {:#018x}  {:>12} cycles  {:>8.2?}  [{}{}]",
                c.spec.app.name(),
                c.spec.variant.name(),
                c.spec.line_bytes,
                c.spec.mem_latency,
                c.spec.seed,
                r.checksum,
                r.stats.cycles(),
                std::time::Duration::from_nanos(r.host_nanos),
                c.outcome.name(),
                if c.attempts > 1 {
                    format!(", {} attempts", c.attempts)
                } else {
                    String::new()
                },
            ),
            None => println!(
                "{:>10} {:>9} line {:>3} lat {:>3} seed {:>6}  {:<18}  [{}: {}]",
                c.spec.app.name(),
                c.spec.variant.name(),
                c.spec.line_bytes,
                c.spec.mem_latency,
                c.spec.seed,
                "----------------",
                c.outcome.name(),
                c.error.as_deref().unwrap_or("no error recorded"),
            ),
        }
    }
    let summary = report.summary();
    let total_refs: u64 = report
        .cells
        .iter()
        .filter_map(|c| c.sim())
        .map(|r| r.refs)
        .sum();
    let wall = std::time::Duration::from_nanos(report.host_wall_nanos);
    println!(
        "sweep wall time {:.2?} for {} refs ({:.0} refs/s aggregate); \
         {} ok, {} retried, {} poisoned, {} timed out",
        wall,
        total_refs,
        total_refs as f64 * 1e9 / report.host_wall_nanos.max(1) as f64,
        summary.ok,
        summary.retried,
        summary.poisoned,
        summary.timed_out,
    );

    let json = report.to_json();
    debug_assert!(validate_report(&json).is_ok());
    if let Err(e) = std::fs::write(&cli.out, &json) {
        eprintln!("error: writing {}: {e}", cli.out.display());
        std::process::exit(2);
    }
    println!("report written to {}", cli.out.display());
    if !summary.is_clean() {
        eprintln!(
            "campaign degraded: {} poisoned, {} timed out (typed holes in the report)",
            summary.poisoned, summary.timed_out
        );
        std::process::exit(21);
    }
}
