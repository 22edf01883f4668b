//! The campaign supervisor: retry, quarantine, durability, resume.
//!
//! [`run_campaign`] is the farm's one engine: the plain sweep
//! ([`crate::sweep::run_sweep`]), a supervised `memfwd_sweep` campaign and
//! every `memfwd_served` job run through it. It maps one per-cell step over
//! the grid expansion with [`par_map`], the tree's only worker pool. Each
//! cell goes through a [`CellRunner`] — in-process ([`InProcessRunner`]) or
//! out-of-process ([`SubprocessRunner`]) — and through a terminal-outcome
//! state machine:
//!
//! ```text
//!   journaled? ──yes──► reuse record (zero recompute)
//!      │no
//!      ▼
//!   attempt 0 ─fail─► backoff ─► attempt 1 ─… ─► attempts exhausted
//!      │ok                │ok                         │
//!      ▼                  ▼                           ▼
//!   CellOutcome::Ok   CellOutcome::Retried(n)   Poisoned / TimedOut
//! ```
//!
//! With a journal, every terminal outcome is durably appended to the
//! campaign [`crate::journal::Journal`] *before* the campaign moves on, so
//! a SIGKILLed supervisor loses at most the cells that were mid-flight.
//! Backoff is seeded-deterministic (splitmix64 over a fixed seed × cell
//! key × attempt), so two runs of the same degraded campaign wait the same
//! schedule.
//!
//! The caller's stop predicate is polled before each cell is claimed: once
//! it holds, cells in flight still reach a journaled terminal outcome and
//! the rest are left for a resume. [`FarmOptions::crash_after_appends`] is
//! the deterministic stand-in for a supervisor SIGKILL used by the
//! kill-at-every-append resume tests: the campaign stops cold after the
//! N-th journal append, exactly as if the process had died there.

use crate::journal::{cell_key, Journal, JournalError, JournalRecord};
use crate::pool::par_map;
use crate::sweep::{
    describe_panic, run_cell, CellOutcome, CellReport, CellResult, CellSpec, SweepReport, SweepSpec,
};
use crate::worker::{read_result_file, CHAOS_ENV};
use memfwd_apps::Scale;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Supervision policy for one campaign.
#[derive(Debug, Clone)]
pub struct FarmOptions {
    /// Concurrent cells (worker threads; each may own a worker process).
    pub jobs: usize,
    /// Maximum *retries* after the first attempt (so a cell runs at most
    /// `retries + 1` times).
    pub retries: u32,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// subsequent retry. `0` disables backoff sleeps (tests).
    pub backoff_ms: u64,
    /// Testing knob: stop the campaign cold after this many journal
    /// appends, as if the supervisor had been SIGKILLed there.
    pub crash_after_appends: Option<u64>,
}

impl Default for FarmOptions {
    fn default() -> FarmOptions {
        FarmOptions {
            jobs: 1,
            retries: 2,
            backoff_ms: 50,
            crash_after_appends: None,
        }
    }
}

/// Seed of the deterministic backoff jitter.
const BACKOFF_SEED: u64 = 0x00C0_FFEE;

/// What one attempt at one cell produced.
#[derive(Debug, Clone)]
pub enum Attempt {
    /// The attempt completed with a validated result (boxed: a
    /// [`CellResult`] carries the full `RunStats` block and would dwarf
    /// the failure variants).
    Completed(Box<CellResult>),
    /// The attempt failed (panic, abort, nonzero exit, lost/corrupt
    /// result file, machine fault).
    Failed(String),
    /// The attempt exceeded the no-progress deadline and was killed.
    TimedOut(String),
}

/// Context handed to a [`CellRunner`] for one attempt.
#[derive(Debug, Clone, Copy)]
pub struct CellCtx {
    /// The cell to run.
    pub spec: CellSpec,
    /// Workload scale.
    pub scale: Scale,
    /// Cell index in [`SweepSpec::expand`] order (chaos targeting).
    pub index: usize,
    /// 0-based attempt number.
    pub attempt: u32,
    /// The cell's journal key.
    pub key: u64,
}

/// Executes one attempt of one cell. Implementations must be `Sync`: the
/// supervisor calls them from its worker-thread pool.
pub trait CellRunner: Sync {
    /// Runs one attempt. A cell failure is a `Failed`/`TimedOut` return;
    /// an unwind is caught by the supervisor and counts as `Failed`.
    fn run_cell(&self, ctx: &CellCtx) -> Attempt;
}

/// Runs cells on the supervisor's own threads — no process boundary, so
/// an abort or OOM still kills the campaign, but panics (caught by the
/// supervisor) and machine faults are contained. This is the runner of
/// [`crate::sweep::run_sweep`] and of `memfwd_sweep` without
/// `--supervised`.
#[derive(Debug, Default)]
pub struct InProcessRunner;

impl CellRunner for InProcessRunner {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        match run_cell(ctx.scale, ctx.spec) {
            Ok(result) => Attempt::Completed(Box::new(result)),
            Err(e) => Attempt::Failed(e),
        }
    }
}

/// Which cells a chaos campaign sabotages, by expansion index.
///
/// `panic` and `abort` fire only on attempt 0 — the cell recovers on
/// retry, modelling transient faults. `hang` fires on *every* attempt, so
/// the cell exhausts its budget and quarantines as
/// [`CellOutcome::TimedOut`], modelling a genuinely wedged configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Cells whose first attempt panics.
    pub panic: Vec<usize>,
    /// Cells whose first attempt aborts (SIGABRT).
    pub abort: Vec<usize>,
    /// Cells that hang on every attempt.
    pub hang: Vec<usize>,
}

impl ChaosSpec {
    /// Parses `panic@I,abort@J,hang@K` (any subset, repeats allowed).
    ///
    /// # Errors
    ///
    /// A description of the first malformed directive.
    pub fn parse(s: &str) -> Result<ChaosSpec, String> {
        let mut spec = ChaosSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, idx) = part
                .split_once('@')
                .ok_or_else(|| format!("chaos directive '{part}' is not kind@index"))?;
            let idx: usize = idx
                .parse()
                .map_err(|e| format!("chaos directive '{part}': {e}"))?;
            match kind {
                "panic" => spec.panic.push(idx),
                "abort" => spec.abort.push(idx),
                "hang" => spec.hang.push(idx),
                other => return Err(format!("unknown chaos kind '{other}'")),
            }
        }
        Ok(spec)
    }

    /// Whether no directives are present.
    pub fn is_empty(&self) -> bool {
        self.panic.is_empty() && self.abort.is_empty() && self.hang.is_empty()
    }

    /// The directive for one attempt of one cell, if any.
    pub fn directive(&self, index: usize, attempt: u32) -> Option<&'static str> {
        if self.hang.contains(&index) {
            return Some("hang");
        }
        if attempt == 0 {
            if self.panic.contains(&index) {
                return Some("panic");
            }
            if self.abort.contains(&index) {
                return Some("abort");
            }
        }
        None
    }
}

/// Runs each attempt in a freshly spawned worker process (the
/// `memfwd_sweep --worker-cell` mode of `exe`), with the sealed
/// result-file protocol and a no-progress deadline monitor.
///
/// The worker's stdout is a heartbeat pipe: the worker writes one byte
/// every [`memfwd_apps::DEFAULT_CHECKPOINT_EVERY`] demand references, and
/// a reader thread forwards each read to the monitor. A heartbeat re-arms
/// the deadline, end-of-file means the worker exited and is reaped at
/// once, and a deadline with no heartbeat kills the worker as stalled.
/// Liveness is thus independent of how often the worker writes
/// checkpoint images.
#[derive(Debug)]
pub struct SubprocessRunner {
    /// The binary to re-exec (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Directory for result and checkpoint files.
    pub farm_dir: PathBuf,
    /// No-progress deadline per attempt: the longest a worker may go
    /// without a heartbeat.
    pub cell_timeout: Option<Duration>,
    /// Worker checkpoint cadence in demand references; `None` leaves the
    /// application's cost-bounded default. Liveness does not depend on it.
    pub ckpt_every: Option<u64>,
    /// Failure-injection plan for chaos campaigns.
    pub chaos: ChaosSpec,
}

impl SubprocessRunner {
    fn result_path(&self, key: u64) -> PathBuf {
        self.farm_dir.join(format!("cell-{key:016x}.result"))
    }

    /// The checkpoint path for a cell — shared across attempts, so a
    /// killed attempt's progress carries into the retry.
    pub fn ckpt_path(&self, key: u64) -> PathBuf {
        self.farm_dir.join(format!("cell-{key:016x}.ckpt"))
    }

    fn spawn_attempt(&self, ctx: &CellCtx) -> Result<std::process::Child, String> {
        let result_file = self.result_path(ctx.key);
        // A stale result file from a previous supervisor life must not be
        // mistaken for this attempt's output.
        std::fs::remove_file(&result_file).ok();
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--worker-cell")
            .arg("--app")
            .arg(ctx.spec.app.name())
            .arg("--variant")
            .arg(ctx.spec.variant.name())
            .arg("--line-bytes")
            .arg(ctx.spec.line_bytes.to_string())
            .arg("--mem-latency")
            .arg(ctx.spec.mem_latency.to_string())
            .arg("--seeds")
            .arg(ctx.spec.seed.to_string())
            .arg("--scale")
            .arg(ctx.scale.name())
            .arg("--cell-key")
            .arg(ctx.key.to_string())
            .arg("--result-file")
            .arg(&result_file)
            .arg("--ckpt-file")
            .arg(self.ckpt_path(ctx.key));
        if let Some(every) = self.ckpt_every {
            cmd.arg("--ckpt-every").arg(every.to_string());
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        cmd.env_remove(CHAOS_ENV);
        if let Some(directive) = self.chaos.directive(ctx.index, ctx.attempt) {
            cmd.env(CHAOS_ENV, directive);
        }
        cmd.spawn().map_err(|e| format!("spawning worker: {e}"))
    }
}

/// Forwards each read of a worker's heartbeat pipe to the returned
/// channel, which disconnects when the worker closes the pipe (exits).
fn forward_heartbeats(mut pipe: ChildStdout) -> std::io::Result<mpsc::Receiver<()>> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("worker-heartbeat".into())
        .spawn(move || {
            let mut buf = [0u8; 64];
            loop {
                match pipe.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {
                        if tx.send(()).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        })?;
    Ok(rx)
}

/// Waits on a worker's heartbeats until the worker exits (`Ok`) or
/// `deadline` passes without a heartbeat (`Err(deadline)`).
fn beats_until_exit(
    beats: &mpsc::Receiver<()>,
    deadline: Option<Duration>,
) -> Result<(), Duration> {
    let Some(deadline) = deadline else {
        while beats.recv().is_ok() {}
        return Ok(());
    };
    loop {
        match beats.recv_timeout(deadline) {
            Ok(()) => {}
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
            Err(RecvTimeoutError::Timeout) => return Err(deadline),
        }
    }
}

impl CellRunner for SubprocessRunner {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        let mut child = match self.spawn_attempt(ctx) {
            Ok(child) => child,
            Err(e) => return Attempt::Failed(e),
        };
        // No-progress deadline, like the simulator's progress watchdog:
        // the clock re-arms on every heartbeat, so a slow-but-alive cell
        // is never shot while a wedged one always is.
        let beats = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("stdout not piped"))
            .and_then(forward_heartbeats);
        let beats = match beats {
            Ok(beats) => beats,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Attempt::Failed(format!("reading worker heartbeats: {e}"));
            }
        };
        if let Err(deadline) = beats_until_exit(&beats, self.cell_timeout) {
            child.kill().ok();
            child.wait().ok();
            return Attempt::TimedOut(format!("no progress for {deadline:?}; worker killed"));
        }
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => return Attempt::Failed(format!("waiting for worker: {e}")),
        };
        if !status.success() {
            return Attempt::Failed(format!("worker exited with {status}"));
        }
        let result_file = self.result_path(ctx.key);
        match read_result_file(&result_file) {
            Ok(r) if r.key == ctx.key => {
                std::fs::remove_file(&result_file).ok();
                Attempt::Completed(Box::new(r.to_cell_result(ctx.spec)))
            }
            Ok(r) => Attempt::Failed(format!(
                "result file carries foreign cell key {:#018x} (expected {:#018x})",
                r.key, ctx.key
            )),
            Err(e) => Attempt::Failed(format!("worker exited 0 but result file is unusable: {e}")),
        }
    }
}

/// Deterministic exponential backoff with jitter: attempt `n` (0-based
/// count of failures so far) waits in `[base·2ⁿ/2, base·2ⁿ]` ms, the
/// jitter drawn from splitmix64 over `(seed, key, n)`.
pub fn backoff_delay(seed: u64, key: u64, attempt: u32, base_ms: u64) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let exp = base_ms.saturating_mul(1u64 << attempt.min(6));
    let h = memfwd::splitmix64(&mut (seed ^ key.rotate_left(17) ^ u64::from(attempt)));
    let jitter = h % (exp / 2 + 1);
    Duration::from_millis(exp / 2 + jitter)
}

/// Drives one cell to a terminal [`CellOutcome`]: attempts through
/// `runner` (each attempt `catch_unwind`-guarded, so a runner bug is a
/// failed attempt, never an unwinding supervisor), retries with
/// seeded-deterministic exponential backoff up to `opts.retries`, then
/// quarantines as [`CellOutcome::Poisoned`] or [`CellOutcome::TimedOut`].
///
/// `abort` is polled between attempts; when it turns true the cell is
/// abandoned un-journaled (as a real SIGKILL would leave it) and `None`
/// is returned.
fn supervise_cell(
    mut ctx: CellCtx,
    opts: &FarmOptions,
    runner: &dyn CellRunner,
    abort: &dyn Fn() -> bool,
) -> Option<CellReport> {
    let mut attempts = 0u32;
    // The last failed attempt's description and whether it was a timeout
    // (decides Poisoned vs TimedOut).
    let mut last_failure: Option<(String, bool)> = None;
    loop {
        ctx.attempt = attempts;
        let attempt_result = match catch_unwind(AssertUnwindSafe(|| runner.run_cell(&ctx))) {
            Ok(a) => a,
            Err(payload) => Attempt::Failed(describe_panic(payload)),
        };
        attempts += 1;
        match attempt_result {
            Attempt::Completed(result) => {
                let outcome = if attempts == 1 {
                    CellOutcome::Ok
                } else {
                    CellOutcome::Retried(attempts - 1)
                };
                return Some(CellReport {
                    spec: ctx.spec,
                    outcome,
                    attempts,
                    sim: Some(*result),
                    error: last_failure.map(|(e, _)| e),
                });
            }
            Attempt::Failed(e) => last_failure = Some((e, false)),
            Attempt::TimedOut(e) => last_failure = Some((e, true)),
        }
        if attempts > opts.retries {
            let (error, was_timeout) =
                last_failure.expect("attempt loop always records its failure");
            let outcome = if was_timeout {
                CellOutcome::TimedOut
            } else {
                CellOutcome::Poisoned
            };
            return Some(CellReport {
                spec: ctx.spec,
                outcome,
                attempts,
                sim: None,
                error: Some(error),
            });
        }
        if abort() {
            return None;
        }
        std::thread::sleep(backoff_delay(
            BACKOFF_SEED,
            ctx.key,
            attempts - 1,
            opts.backoff_ms,
        ));
    }
}

/// The outcome of one supervisor run over a campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// The completed report, in spec order — `None` if the run crashed
    /// (see [`FarmOptions::crash_after_appends`]) or was stopped before
    /// every cell was claimed.
    pub report: Option<SweepReport>,
    /// Cells restored from the journal without recomputation.
    pub from_journal: usize,
    /// Cells run to a terminal outcome this run.
    pub executed: usize,
    /// Whether the run stopped at the deterministic crash point.
    pub crashed: bool,
}

/// What [`run_campaign`] did with one cell.
enum CellStep {
    /// Replayed from the journal.
    Journaled(CellReport),
    /// Run to a terminal outcome, then journaled (or the append failed).
    Ran(Result<CellReport, JournalError>),
    /// Not run to the end: the campaign crashed or was stopped first.
    Left,
}

/// Runs (or resumes) a campaign on `opts.jobs` workers: every cell of
/// `spec` reaches a terminal [`CellOutcome`], journaled cells are reused
/// verbatim, and each new terminal outcome is durably journaled the
/// moment it is reached. With no journal the campaign is a plain sweep.
///
/// `stop` is polled before each cell is claimed (graceful drain, job
/// deadline). Once it holds, no further cell starts; cells in flight run
/// to their terminal outcome and are journaled, and a run that left cells
/// unstarted returns no report. Unlike a crash, nothing in flight is
/// abandoned.
///
/// # Errors
///
/// [`JournalError`] if a journal append fails — without durability the
/// campaign's resume guarantee is void, so the run stops rather than
/// continue untracked.
pub fn run_campaign(
    spec: &SweepSpec,
    opts: &FarmOptions,
    runner: &dyn CellRunner,
    journal: Option<&mut Journal>,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<CampaignRun, JournalError> {
    let t0 = Instant::now();
    let jobs = opts.jobs.max(1);
    let crashed = AtomicBool::new(false);
    // The journal and this run's append count, shared by every worker;
    // appends serialize on the lock (they are tiny next to a cell).
    let journal = Mutex::new((journal, 0u64));
    let cells: Vec<(usize, CellSpec)> = spec.expand().into_iter().enumerate().collect();
    let steps = par_map(&cells, jobs, |&(index, cell)| {
        if crashed.load(Ordering::SeqCst) || stop() {
            return CellStep::Left;
        }
        let key = cell_key(spec.scale, &cell);
        let journaled = {
            let guard = journal.lock().expect("journal lock");
            guard.0.as_ref().and_then(|j| j.get(key)).cloned()
        };
        if let Some(rec) = journaled {
            return CellStep::Journaled(rec.to_report(cell));
        }
        let ctx = CellCtx {
            spec: cell,
            scale: spec.scale,
            index,
            attempt: 0,
            key,
        };
        // Past the crash point the campaign is "dead": the cell is
        // abandoned un-journaled, as a real SIGKILL would leave it.
        let Some(report) = supervise_cell(ctx, opts, runner, &|| crashed.load(Ordering::SeqCst))
        else {
            return CellStep::Left;
        };
        let mut guard = journal.lock().expect("journal lock");
        if crashed.load(Ordering::SeqCst) {
            return CellStep::Left;
        }
        let (journal, appends) = &mut *guard;
        if let Some(journal) = journal {
            if let Err(e) = journal.append(JournalRecord::from_report(spec.scale, &report)) {
                return CellStep::Ran(Err(e));
            }
            *appends += 1;
            if opts.crash_after_appends.is_some_and(|k| *appends >= k) {
                crashed.store(true, Ordering::SeqCst);
            }
        }
        CellStep::Ran(Ok(report))
    });

    let mut run = CampaignRun {
        report: None,
        from_journal: 0,
        executed: 0,
        crashed: crashed.into_inner(),
    };
    let mut reports = Vec::with_capacity(cells.len());
    for step in steps {
        match step {
            CellStep::Journaled(report) => {
                run.from_journal += 1;
                reports.push(report);
            }
            CellStep::Ran(report) => {
                run.executed += 1;
                reports.push(report?);
            }
            CellStep::Left => {}
        }
    }
    if !run.crashed && reports.len() == cells.len() {
        run.report = Some(SweepReport {
            jobs,
            scale: spec.scale,
            cells: reports,
            host_wall_nanos: t0.elapsed().as_nanos() as u64,
            selftest_refs_per_second: None,
        });
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_parses_and_targets() {
        let c = ChaosSpec::parse("panic@1,abort@3,hang@5").expect("parse");
        assert_eq!(c.directive(1, 0), Some("panic"));
        assert_eq!(c.directive(1, 1), None, "panic is attempt-0 only");
        assert_eq!(c.directive(3, 0), Some("abort"));
        assert_eq!(c.directive(5, 0), Some("hang"));
        assert_eq!(c.directive(5, 2), Some("hang"), "hang fires every attempt");
        assert_eq!(c.directive(0, 0), None);
        assert!(ChaosSpec::parse("").expect("empty ok").is_empty());
        assert!(ChaosSpec::parse("explode@1").is_err());
        assert!(ChaosSpec::parse("panic").is_err());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_exponential() {
        let a = backoff_delay(7, 99, 0, 40);
        assert_eq!(a, backoff_delay(7, 99, 0, 40), "same inputs, same delay");
        assert!(a >= Duration::from_millis(20) && a <= Duration::from_millis(40));
        let b = backoff_delay(7, 99, 3, 40);
        assert!(b >= Duration::from_millis(160) && b <= Duration::from_millis(320));
        assert_eq!(backoff_delay(7, 99, 0, 0), Duration::ZERO);
    }
}
