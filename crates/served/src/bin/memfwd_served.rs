//! `memfwd_served` — the always-on sweep-farm service.
//!
//! Listens on a local Unix socket for newline-delimited JSON requests
//! (`submit` / `status` / `report` / `health` / `stats` / `drain`), runs
//! accepted grids through the supervised worker pool with a persistent
//! corruption-quarantining result cache, drains gracefully on SIGTERM,
//! and resumes crashed campaigns with `--resume`.
//!
//! Exit codes: `0` clean drain, `2` usage error, `10` startup failure.
//! The hidden `--worker-cell` mode is the re-exec entry point for the
//! farm's subprocess workers and uses the worker protocol's own codes.

fn usage() -> String {
    "memfwd_served - always-on sweep-farm service over a Unix socket

USAGE:
    memfwd_served [OPTIONS]

OPTIONS:
    --socket PATH            socket path to listen on [memfwd.sock]
    --state-dir PATH         durable state directory [memfwd-served]
    --jobs N                 worker threads per job [2]
    --max-pending-jobs N     admission bound: queued+running jobs [8]
    --max-queued-cells N     admission bound: unfinished cells [4096]
    --max-cells-per-job N    largest accepted submission [65536]
    --in-process             run cells in-process (no worker subprocesses)
    --cell-timeout-ms MS     default per-cell no-progress deadline: a
                             worker silent this long is killed (workers
                             heartbeat every 16384 demand refs)
    --ckpt-every N           worker checkpoint cadence in demand refs
                             [>= 16384 refs and >= last image bytes]
    --resume                 re-enqueue unfinished jobs from the state dir
    --help                   print this help

PROTOCOL (newline-delimited JSON on the socket):
    {\"op\":\"submit\",\"spec\":{...}}   -> accepted | shed | draining
    {\"op\":\"status\",\"job\":\"...\"}  -> job state and progress
    {\"op\":\"report\",\"job\":\"...\"}  -> the sweep report JSON
    {\"op\":\"health\"}                  -> ok | degraded | draining
    {\"op\":\"stats\"}                   -> counters incl. cache hit rate
    {\"op\":\"drain\"}                   -> begin graceful drain

EXIT CODES:
    0   drained cleanly (all in-flight cells journaled)
    2   usage error
    10  startup failure (bind, state dir, resume scan)
"
    .to_string()
}

#[cfg(unix)]
fn main() {
    use memfwd_served::server::{serve, ServerOptions};
    use std::time::Duration;

    let args: Vec<String> = std::env::args().skip(1).collect();

    // Hidden re-exec mode: the farm's subprocess workers run cells by
    // re-invoking this binary, exactly as `memfwd_sweep` workers do.
    if args.first().map(String::as_str) == Some("--worker-cell") {
        match memfwd_farm::parse_worker_args(args.iter().skip(1).cloned()) {
            Ok(w) => std::process::exit(memfwd_farm::run_worker_cell(&w)),
            Err(e) => {
                eprintln!("memfwd_served --worker-cell: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut opts = ServerOptions::default();
    let die = |msg: &str| -> ! {
        eprintln!("memfwd_served: {msg}\n\n{}", usage());
        std::process::exit(2);
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> &str {
            match it.next() {
                Some(v) => v,
                None => die(&format!("{name} requires a value")),
            }
        };
        let num = |name: &str, v: &str| -> u64 {
            match v.parse::<u64>() {
                Ok(n) => n,
                Err(_) => die(&format!("{name}: expected a number, got \"{v}\"")),
            }
        };
        match arg.as_str() {
            "--socket" => opts.socket = take("--socket").into(),
            "--state-dir" => opts.state_dir = take("--state-dir").into(),
            "--jobs" => {
                let v = take("--jobs");
                opts.jobs = num("--jobs", v).max(1) as usize;
            }
            "--max-pending-jobs" => {
                let v = take("--max-pending-jobs");
                opts.max_pending_jobs = num("--max-pending-jobs", v).max(1) as usize;
            }
            "--max-queued-cells" => {
                let v = take("--max-queued-cells");
                opts.max_queued_cells = num("--max-queued-cells", v).max(1) as usize;
            }
            "--max-cells-per-job" => {
                let v = take("--max-cells-per-job");
                opts.max_cells_per_job = num("--max-cells-per-job", v).max(1) as usize;
            }
            "--in-process" => opts.in_process = true,
            "--cell-timeout-ms" => {
                let v = take("--cell-timeout-ms");
                opts.cell_timeout = Some(Duration::from_millis(num("--cell-timeout-ms", v)));
            }
            "--ckpt-every" => {
                let v = take("--ckpt-every");
                opts.ckpt_every = Some(num("--ckpt-every", v));
            }
            "--resume" => opts.resume = true,
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            other => die(&format!("unknown argument \"{other}\"")),
        }
    }

    if let Err(e) = serve(opts) {
        eprintln!("memfwd_served: {e}");
        std::process::exit(10);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!(
        "memfwd_served: the service requires Unix domain sockets\n\n{}",
        usage()
    );
    std::process::exit(10);
}
