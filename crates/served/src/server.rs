//! The job server: admission, scheduling, drain, resume.
//!
//! One listener thread accepts connections on a Unix socket and spawns a
//! thread per connection (requests are newline-delimited JSON, see
//! [`crate::proto`]). One job-runner thread executes accepted jobs FIFO;
//! each job runs through the farm's [`run_campaign`] — the same retry /
//! quarantine / journal machinery the CLI uses — with a caching
//! [`CellRunner`] layered on top so cells already proven in the
//! persistent result cache are served without simulation.
//!
//! # State directory layout
//!
//! ```text
//! <state-dir>/
//!   cache/                         sealed MFWDCELL entries, content-keyed
//!   quarantine/                    corrupt entries, moved here, never served
//!   jobs/<job-id>/
//!     job.spec                     durable submission (JSON), written
//!                                  before `accepted` is ever sent
//!     journal.mfj                  the job's campaign journal
//!     report.json                  the final report (present iff done)
//!     cell-*.ckpt / cell-*.result  worker scratch during execution
//! ```
//!
//! Because `job.spec` is durably written *before* the client sees
//! `accepted`, and every terminal cell outcome is journaled before the
//! campaign advances, a SIGKILL at any instant loses nothing a client was
//! promised: restart with `--resume` re-enqueues unfinished jobs, replays
//! journaled cells, and resumes half-finished cells from their worker
//! checkpoints.

use crate::cache::{CacheLookup, ResultCache};
use crate::proto::{self, JobOptions, Request, StatsSnapshot};
use crate::signal;
use memfwd::json_escape;
use memfwd_farm::minijson::{parse_json, Json};
use memfwd_farm::worker::CellResultFile;
use memfwd_farm::{
    campaign_fingerprint, run_campaign, Attempt, CellCtx, CellRunner, ChaosSpec, FarmOptions,
    InProcessRunner, Journal, SubprocessRunner, SweepSpec,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (the `memfwd_served` CLI surface).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Durable state directory (cache, quarantine, jobs).
    pub state_dir: PathBuf,
    /// Worker threads per job (each may own a worker process).
    pub jobs: usize,
    /// Admission bound: jobs queued or running at once.
    pub max_pending_jobs: usize,
    /// Admission bound: unfinished cells across queued and running jobs.
    pub max_queued_cells: usize,
    /// Admission bound: cells in a single submission.
    pub max_cells_per_job: usize,
    /// Run cells in-process instead of in worker subprocesses (faster
    /// for tests; loses abort/OOM isolation).
    pub in_process: bool,
    /// Default per-cell no-progress deadline.
    pub cell_timeout: Option<Duration>,
    /// Worker checkpoint cadence in demand references.
    pub ckpt_every: Option<u64>,
    /// Re-enqueue unfinished jobs found in the state directory.
    pub resume: bool,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            socket: PathBuf::from("memfwd.sock"),
            state_dir: PathBuf::from("memfwd-served"),
            jobs: 2,
            max_pending_jobs: 8,
            max_queued_cells: 4096,
            max_cells_per_job: 65536,
            in_process: false,
            cell_timeout: None,
            ckpt_every: None,
            resume: false,
        }
    }
}

/// Service-wide counters, all monotonically increasing within one server
/// life (queue depth and pending jobs are computed live instead).
#[derive(Debug, Default)]
pub struct ServerStats {
    jobs_accepted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_shed: AtomicU64,
    cells_executed: AtomicU64,
    cells_from_cache: AtomicU64,
    cells_from_journal: AtomicU64,
    cache_entries_quarantined: AtomicU64,
    cells_quarantined: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done { degraded: bool },
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn is_pending(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

#[derive(Debug)]
struct Job {
    id: String,
    spec: SweepSpec,
    options: JobOptions,
    dir: PathBuf,
    cells: usize,
    fingerprint: u64,
    state: Mutex<JobState>,
    cells_done: AtomicUsize,
}

impl Job {
    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.mfj")
    }
    fn report_path(&self) -> PathBuf {
        self.dir.join("report.json")
    }
    fn state_snapshot(&self) -> JobState {
        self.state.lock().expect("job state lock").clone()
    }
    fn unfinished_cells(&self) -> usize {
        self.cells
            .saturating_sub(self.cells_done.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct JobTable {
    all: Vec<Arc<Job>>,
    queue: VecDeque<Arc<Job>>,
    next_seq: u64,
}

impl JobTable {
    fn find(&self, id: &str) -> Option<Arc<Job>> {
        self.all.iter().find(|j| j.id == id).cloned()
    }
    fn pending_jobs(&self) -> usize {
        self.all
            .iter()
            .filter(|j| j.state_snapshot().is_pending())
            .count()
    }
    fn queue_depth(&self) -> usize {
        self.all
            .iter()
            .filter(|j| j.state_snapshot().is_pending())
            .map(|j| j.unfinished_cells())
            .sum()
    }
}

struct ServerState {
    opts: ServerOptions,
    stats: ServerStats,
    cache: ResultCache,
    table: Mutex<JobTable>,
    wake: Condvar,
    exe: PathBuf,
    runner_done: AtomicBool,
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err("write", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

// ---------------------------------------------------------------------
// The caching cell runner: persistent-cache hits short-circuit the farm
// runner; completed computations are written back; corrupt entries are
// quarantined (by the cache) and counted here.
// ---------------------------------------------------------------------

struct CachingRunner<'a> {
    inner: Box<dyn CellRunner + 'a>,
    cache: &'a ResultCache,
    stats: &'a ServerStats,
    cells_done: &'a AtomicUsize,
}

impl CellRunner for CachingRunner<'_> {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        if ctx.attempt == 0 {
            match self.cache.lookup(ctx.key) {
                CacheLookup::Hit(r) => {
                    bump(&self.stats.cells_from_cache);
                    self.cells_done.fetch_add(1, Ordering::Relaxed);
                    return Attempt::Completed(Box::new(r.to_cell_result(ctx.spec)));
                }
                CacheLookup::Quarantined(e) => {
                    bump(&self.stats.cache_entries_quarantined);
                    eprintln!(
                        "served: cache entry for cell {:#018x} quarantined ({e}); recomputing",
                        ctx.key
                    );
                }
                CacheLookup::Miss => {}
            }
        }
        let attempt = self.inner.run_cell(ctx);
        if let Attempt::Completed(r) = &attempt {
            bump(&self.stats.cells_executed);
            self.cells_done.fetch_add(1, Ordering::Relaxed);
            // Best-effort: a failed store only costs a future recompute.
            let store = self.cache.store(&CellResultFile {
                key: ctx.key,
                checksum: r.checksum,
                refs: r.refs,
                host_nanos: r.host_nanos,
                stats: r.stats,
            });
            if let Err(e) = store {
                eprintln!("served: caching cell {:#018x} failed: {e}", ctx.key);
            }
        }
        attempt
    }
}

// ---------------------------------------------------------------------
// Job execution.
// ---------------------------------------------------------------------

fn run_one_job(state: &ServerState, job: &Arc<Job>) {
    *job.state.lock().expect("job state lock") = JobState::Running;
    let fail = |msg: String| {
        eprintln!("served: {}: {msg}", job.id);
        *job.state.lock().expect("job state lock") = JobState::Failed(msg);
    };

    let jp = job.journal_path();
    let journal = if jp.exists() {
        Journal::load(&jp, job.fingerprint)
    } else {
        Journal::create(&jp, job.fingerprint)
    };
    let mut journal = match journal {
        Ok(j) => j,
        Err(e) => return fail(format!("opening journal: {e}")),
    };
    job.cells_done.store(journal.len(), Ordering::Relaxed);
    // Only the single runner thread executes jobs, so the delta in the
    // global counter over this job is this job's cache-hit count.
    let cached_before = state.stats.cells_from_cache.load(Ordering::Relaxed);

    // The stop flag run_campaign polls: set on graceful drain, and on
    // the job deadline. In-flight cells still finish and journal.
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = job
        .options
        .job_timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let farm_opts = FarmOptions {
        jobs: state.opts.jobs,
        retries: job.options.retries,
        backoff_ms: job.options.backoff_ms,
        cell_timeout: job
            .options
            .cell_timeout_ms
            .map(Duration::from_millis)
            .or(state.opts.cell_timeout),
        stop: Some(stop.clone()),
        ..FarmOptions::default()
    };
    let base: Box<dyn CellRunner> = if state.opts.in_process {
        Box::new(InProcessRunner)
    } else {
        Box::new(SubprocessRunner {
            exe: state.exe.clone(),
            farm_dir: job.dir.clone(),
            cell_timeout: farm_opts.cell_timeout,
            ckpt_every: state.opts.ckpt_every,
            chaos: ChaosSpec::default(),
        })
    };
    let runner = CachingRunner {
        inner: base,
        cache: &state.cache,
        stats: &state.stats,
        cells_done: &job.cells_done,
    };

    let done = AtomicBool::new(false);
    let campaign = std::thread::scope(|s| {
        let watchdog_stop = stop.clone();
        let done_ref = &done;
        s.spawn(move || {
            while !done_ref.load(Ordering::SeqCst) {
                if signal::drain_requested() || deadline.is_some_and(|d| Instant::now() >= d) {
                    watchdog_stop.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let r = run_campaign(&job.spec, &farm_opts, &runner, &mut journal);
        done.store(true, Ordering::SeqCst);
        r
    });

    let run = match campaign {
        Ok(run) => run,
        Err(e) => return fail(format!("journal append failed: {e}")),
    };
    bump_by(&state.stats.cells_from_journal, run.from_journal as u64);
    match run.report {
        Some(report) => {
            let summary = report.summary();
            bump_by(
                &state.stats.cells_quarantined,
                (summary.poisoned + summary.timed_out) as u64,
            );
            if let Err(e) = write_atomic(&job.report_path(), report.to_json().as_bytes()) {
                return fail(format!("writing report: {e}"));
            }
            job.cells_done.store(job.cells, Ordering::Relaxed);
            bump(&state.stats.jobs_completed);
            *job.state.lock().expect("job state lock") = JobState::Done {
                degraded: !summary.is_clean(),
            };
            let cached = state
                .stats
                .cells_from_cache
                .load(Ordering::Relaxed)
                .saturating_sub(cached_before);
            eprintln!(
                "served: {} done ({} cells, {} executed, {} from cache, {} from journal)",
                job.id,
                job.cells,
                (run.executed as u64).saturating_sub(cached),
                cached,
                run.from_journal
            );
        }
        None if signal::drain_requested() => {
            // Drained mid-job: in-flight cells are journaled; the job
            // returns to the queue state and a future `--resume` life
            // picks it up with zero recomputation of finished cells.
            *job.state.lock().expect("job state lock") = JobState::Queued;
            eprintln!(
                "served: {} interrupted by drain ({} cells journaled)",
                job.id,
                journal.len()
            );
        }
        None => fail("job deadline exceeded (journal kept; resubmission is cheap)".to_string()),
    }
}

fn bump_by(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

fn run_jobs(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut table = state.table.lock().expect("job table lock");
            loop {
                if signal::drain_requested() {
                    break None;
                }
                if let Some(job) = table.queue.pop_front() {
                    break Some(job);
                }
                let (t, _) = state
                    .wake
                    .wait_timeout(table, Duration::from_millis(100))
                    .expect("job table lock");
                table = t;
            }
        };
        let Some(job) = job else { break };
        run_one_job(state, &job);
    }
    state.runner_done.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------

fn handle_submit(state: &ServerState, spec: SweepSpec, options: JobOptions) -> String {
    if signal::drain_requested() {
        return proto::resp_draining();
    }
    let cells = spec.expand();
    if cells.is_empty() {
        return proto::resp_error("submitted grid expands to zero cells");
    }
    if cells.len() > state.opts.max_cells_per_job {
        bump(&state.stats.jobs_shed);
        return proto::resp_shed("job_too_large", cells.len(), state.opts.max_cells_per_job);
    }
    let mut table = state.table.lock().expect("job table lock");
    let pending = table.pending_jobs();
    if pending >= state.opts.max_pending_jobs {
        bump(&state.stats.jobs_shed);
        return proto::resp_shed("jobs_full", pending, state.opts.max_pending_jobs);
    }
    let depth = table.queue_depth();
    if depth + cells.len() > state.opts.max_queued_cells {
        bump(&state.stats.jobs_shed);
        return proto::resp_shed("queue_full", depth, state.opts.max_queued_cells);
    }

    let seq = table.next_seq;
    let id = format!("job-{seq:06}");
    let dir = state.opts.state_dir.join("jobs").join(&id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return proto::resp_error(&format!("creating job dir: {e}"));
    }
    // Durability before acknowledgement: the submission exists on disk
    // before the client ever sees `accepted`, so an accepted job is never
    // lost to a kill.
    let spec_json = format!(
        "{{\"id\":\"{}\",\"seq\":{seq},\"spec\":{},\"options\":{}}}\n",
        json_escape(&id),
        proto::spec_to_json(&spec),
        proto::options_to_json(&options),
    );
    if let Err(e) = write_atomic(&dir.join("job.spec"), spec_json.as_bytes()) {
        return proto::resp_error(&format!("persisting job spec: {e}"));
    }
    let fingerprint = campaign_fingerprint(&spec);
    let job = Arc::new(Job {
        id: id.clone(),
        spec,
        options,
        dir,
        cells: cells.len(),
        fingerprint,
        state: Mutex::new(JobState::Queued),
        cells_done: AtomicUsize::new(0),
    });
    table.next_seq = seq + 1;
    table.all.push(job.clone());
    table.queue.push_back(job);
    bump(&state.stats.jobs_accepted);
    state.wake.notify_all();
    proto::resp_accepted(&id)
}

fn handle_request(state: &ServerState, line: &str) -> String {
    match proto::parse_request(line) {
        Err(e) => proto::resp_error(&e),
        Ok(Request::Submit { spec, options }) => handle_submit(state, spec, options),
        Ok(Request::Status { job }) => {
            let found = state.table.lock().expect("job table lock").find(&job);
            match found {
                None => proto::resp_error(&format!("unknown job \"{job}\"")),
                Some(j) => {
                    let st = j.state_snapshot();
                    let degraded = matches!(st, JobState::Done { degraded: true });
                    proto::resp_status(
                        &j.id,
                        st.name(),
                        j.cells,
                        j.cells_done.load(Ordering::Relaxed).min(j.cells),
                        degraded,
                    )
                }
            }
        }
        Ok(Request::Report { job }) => {
            let found = state.table.lock().expect("job table lock").find(&job);
            match found {
                None => proto::resp_error(&format!("unknown job \"{job}\"")),
                Some(j) => match j.state_snapshot() {
                    JobState::Done { degraded } => match std::fs::read_to_string(j.report_path()) {
                        Ok(text) => proto::resp_report(&j.id, degraded, &text),
                        Err(e) => proto::resp_error(&format!("reading report: {e}")),
                    },
                    JobState::Failed(reason) => {
                        proto::resp_error(&format!("job \"{job}\" failed: {reason}"))
                    }
                    st => proto::resp_error(&format!(
                        "job \"{job}\" is {}; report not ready",
                        st.name()
                    )),
                },
            }
        }
        Ok(Request::Health) => {
            let (depth, pending) = {
                let table = state.table.lock().expect("job table lock");
                (table.queue_depth(), table.pending_jobs())
            };
            let degraded = state
                .stats
                .cache_entries_quarantined
                .load(Ordering::Relaxed)
                > 0
                || state.stats.cells_quarantined.load(Ordering::Relaxed) > 0;
            let health = if signal::drain_requested() {
                "draining"
            } else if degraded {
                "degraded"
            } else {
                "ok"
            };
            proto::resp_health(health, depth, pending)
        }
        Ok(Request::Stats) => {
            let (depth, pending) = {
                let table = state.table.lock().expect("job table lock");
                (table.queue_depth(), table.pending_jobs())
            };
            let s = &state.stats;
            proto::resp_stats(&StatsSnapshot {
                jobs_accepted: s.jobs_accepted.load(Ordering::Relaxed),
                jobs_completed: s.jobs_completed.load(Ordering::Relaxed),
                jobs_shed: s.jobs_shed.load(Ordering::Relaxed),
                cells_executed: s.cells_executed.load(Ordering::Relaxed),
                cells_from_cache: s.cells_from_cache.load(Ordering::Relaxed),
                cells_from_journal: s.cells_from_journal.load(Ordering::Relaxed),
                cache_entries_quarantined: s.cache_entries_quarantined.load(Ordering::Relaxed),
                cache_hot_hits: state.cache.hot_hits(),
                cache_hot_misses: state.cache.hot_misses(),
                cells_quarantined: s.cells_quarantined.load(Ordering::Relaxed),
                queue_depth: depth as u64,
                jobs_pending: pending as u64,
            })
        }
        Ok(Request::Drain) => {
            signal::request_drain();
            state.wake.notify_all();
            proto::resp_draining()
        }
    }
}

fn handle_conn(state: &ServerState, stream: UnixStream) {
    stream.set_nonblocking(false).ok();
    // A dead client must not pin the connection (and the drain grace
    // period) forever.
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let resp = handle_request(state, &line);
        if writer
            .write_all(resp.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Startup: resume scan and the accept loop.
// ---------------------------------------------------------------------

fn report_is_degraded(text: &str) -> Option<bool> {
    let v = parse_json(text).ok()?;
    let s = v.get("summary")?;
    let n = |k: &str| s.get(k).and_then(Json::as_u64);
    Some(n("poisoned")? > 0 || n("timed_out")? > 0)
}

/// Rebuilds the job table from `state_dir/jobs/*`: finished jobs (with a
/// readable report) become `done`; everything else re-enqueues in
/// submission order. Returns the table.
fn scan_jobs(state_dir: &Path, resume: bool) -> Result<JobTable, String> {
    let mut table = JobTable::default();
    let jobs_dir = state_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir).map_err(|e| io_err("creating jobs dir", e))?;
    let mut found: Vec<(u64, Arc<Job>)> = Vec::new();
    let entries = std::fs::read_dir(&jobs_dir).map_err(|e| io_err("scanning jobs dir", e))?;
    for entry in entries.filter_map(Result::ok) {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let spec_text = match std::fs::read_to_string(dir.join("job.spec")) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "served: skipping {} (unreadable job.spec: {e})",
                    dir.display()
                );
                continue;
            }
        };
        let parsed = parse_json(&spec_text).and_then(|v| {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or("job.spec: missing id")?
                .to_string();
            let seq = v
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or("job.spec: missing seq")?;
            let spec = proto::spec_from_json(v.get("spec").ok_or("job.spec: missing spec")?)?;
            let options = match v.get("options") {
                Some(o) => proto::options_from_json(o)?,
                None => JobOptions::default(),
            };
            Ok((id, seq, spec, options))
        });
        let (id, seq, spec, options) = match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("served: skipping {} (bad job.spec: {e})", dir.display());
                continue;
            }
        };
        let cells = spec.expand().len();
        let fingerprint = campaign_fingerprint(&spec);
        let report_path = dir.join("report.json");
        let done_degraded = std::fs::read_to_string(&report_path)
            .ok()
            .and_then(|t| report_is_degraded(&t));
        let state = match done_degraded {
            Some(degraded) => JobState::Done { degraded },
            None => {
                if report_path.exists() {
                    // A report that exists but does not parse is corrupt;
                    // drop it and recompute (cheaply, via the journal).
                    eprintln!(
                        "served: {} has a corrupt report.json; recomputing from journal",
                        id
                    );
                    std::fs::remove_file(&report_path).ok();
                }
                JobState::Queued
            }
        };
        let queued = state == JobState::Queued;
        let job = Arc::new(Job {
            id,
            spec,
            options,
            dir,
            cells,
            fingerprint,
            state: Mutex::new(state),
            cells_done: AtomicUsize::new(if queued { 0 } else { cells }),
        });
        table.next_seq = table.next_seq.max(seq + 1);
        found.push((seq, job));
    }
    found.sort_by_key(|(seq, _)| *seq);
    for (_, job) in found {
        let queued = job.state_snapshot() == JobState::Queued;
        if queued {
            if resume {
                table.queue.push_back(job.clone());
            } else {
                eprintln!(
                    "served: {} is unfinished but --resume was not given; leaving it on disk",
                    job.id
                );
                continue; // not in the table: invisible this life
            }
        }
        table.all.push(job);
    }
    Ok(table)
}

/// Runs the server until a graceful drain completes.
///
/// Binds the socket, restores state (see [`ServerOptions::resume`]),
/// serves requests, and — once SIGTERM/SIGINT/`drain` is seen — stops
/// admitting, lets in-flight cells journal their terminal outcomes,
/// answers `health`/`status` during the wind-down, and returns.
///
/// # Errors
///
/// A description of the startup failure (bind, state dir, scan); once
/// serving, failures are per-connection or per-job and never abort the
/// server.
pub fn serve(opts: ServerOptions) -> Result<(), String> {
    signal::install_handlers();
    std::fs::create_dir_all(&opts.state_dir).map_err(|e| io_err("creating state dir", e))?;
    let cache = ResultCache::open(&opts.state_dir).map_err(|e| format!("opening cache: {e}"))?;
    let table = scan_jobs(&opts.state_dir, opts.resume)?;
    let resumed = table.queue.len();
    let exe = std::env::current_exe().map_err(|e| io_err("resolving current exe", e))?;

    // A previous life's socket file would make bind fail; it is dead by
    // definition (one server per state dir is the deployment contract).
    std::fs::remove_file(&opts.socket).ok();
    let listener = UnixListener::bind(&opts.socket)
        .map_err(|e| io_err(&format!("binding {}", opts.socket.display()), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("socket setup", e))?;

    let state = Arc::new(ServerState {
        opts,
        stats: ServerStats::default(),
        cache,
        table: Mutex::new(table),
        wake: Condvar::new(),
        exe,
        runner_done: AtomicBool::new(false),
    });
    eprintln!(
        "served: listening on {} ({} job(s) resumed)",
        state.opts.socket.display(),
        resumed
    );

    let runner_state = state.clone();
    let runner = std::thread::spawn(move || run_jobs(&runner_state));

    // Accept until drain is requested AND the runner has wound down, so
    // health/status/report stay answerable for the whole drain window.
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        if signal::drain_requested() && state.runner_done.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let state = state.clone();
                let active = active.clone();
                active.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    handle_conn(&state, stream);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("served: accept: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    runner
        .join()
        .map_err(|_| "job runner panicked".to_string())?;

    // Give in-flight connections a moment to read their last response.
    let grace = Instant::now();
    while active.load(Ordering::SeqCst) > 0 && grace.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(25));
    }
    std::fs::remove_file(&state.opts.socket).ok();
    eprintln!("served: drained; exiting");
    Ok(())
}
