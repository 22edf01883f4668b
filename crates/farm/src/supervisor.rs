//! The campaign supervisor: retry, quarantine, durability, resume.
//!
//! [`run_campaign`] is the farm's control loop. It walks the PR-3 grid
//! expansion with a worker-thread pool (same claim-by-atomic-counter
//! discipline as the plain sweep), but each cell goes through a
//! [`CellRunner`] — in-process with `catch_unwind`, or out-of-process via
//! [`SubprocessRunner`] — and through a terminal-outcome state machine:
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
//! Every terminal outcome is durably appended to the campaign
//! [`crate::journal::Journal`] *before* the campaign moves on, so a
//! SIGKILLed supervisor loses at most the cells that were mid-flight.
//! Backoff is seeded-deterministic (splitmix64 over seed × cell key ×
//! attempt), so two runs of the same degraded campaign wait the same
//! schedule.
//!
//! The [`FarmOptions::crash_after_appends`] knob is the deterministic
//! stand-in for a supervisor SIGKILL used by the kill-at-every-append
//! resume tests: the campaign stops cold after the N-th journal append,
//! exactly as if the process had died there.

use crate::journal::{cell_key, Journal, JournalError, JournalRecord};
use crate::sweep::{
    describe_panic, run_cell, CellOutcome, CellReport, CellResult, CellSpec, SweepReport, SweepSpec,
};
use crate::worker::{read_result_file, CHAOS_ENV};
use memfwd_apps::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant, SystemTime};

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
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// No-progress deadline per worker attempt. A worker whose checkpoint
    /// has not advanced for this long is killed and the attempt counts as
    /// timed out. `None` disables the monitor.
    pub cell_timeout: Option<Duration>,
    /// Testing knob: stop the campaign cold after this many journal
    /// appends, as if the supervisor had been SIGKILLed there.
    pub crash_after_appends: Option<u64>,
    /// Cooperative stop flag (graceful drain). When it turns true,
    /// workers stop *claiming* new cells; cells already in flight run to
    /// their terminal outcome and are journaled before the campaign
    /// returns. Unlike a crash, nothing in flight is abandoned. `None`
    /// never stops.
    pub stop: Option<std::sync::Arc<AtomicBool>>,
}

impl Default for FarmOptions {
    fn default() -> FarmOptions {
        FarmOptions {
            jobs: 1,
            retries: 2,
            backoff_ms: 50,
            backoff_seed: 0x00C0_FFEE,
            cell_timeout: None,
            crash_after_appends: None,
            stop: None,
        }
    }
}

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
    /// Runs one attempt. Must not unwind for *cell* failures — those are
    /// the `Failed`/`TimedOut` returns; an unwind here is a supervisor
    /// bug (still caught at the pool boundary, as `Failed`).
    fn run_cell(&self, ctx: &CellCtx) -> Attempt;
}

/// Runs cells on the supervisor's own threads with `catch_unwind`
/// isolation — no process boundary, so an abort or OOM still kills the
/// campaign, but panics and machine faults are contained. This is the
/// default when `--supervised` is off.
#[derive(Debug, Default)]
pub struct InProcessRunner;

impl CellRunner for InProcessRunner {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        match catch_unwind(AssertUnwindSafe(|| run_cell(ctx.scale, ctx.spec))) {
            Ok(Ok(result)) => Attempt::Completed(Box::new(result)),
            Ok(Err(e)) => Attempt::Failed(e),
            Err(payload) => Attempt::Failed(describe_panic(payload)),
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
#[derive(Debug)]
pub struct SubprocessRunner {
    /// The binary to re-exec (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Directory for result and checkpoint files.
    pub farm_dir: PathBuf,
    /// No-progress deadline per attempt.
    pub cell_timeout: Option<Duration>,
    /// Worker checkpoint cadence in demand references; `None` leaves the
    /// application default.
    pub ckpt_every: Option<u64>,
    /// Failure-injection plan for chaos campaigns.
    pub chaos: ChaosSpec,
}

/// How often the deadline monitor polls a worker.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Bench => "bench",
    }
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
            .arg(scale_name(ctx.scale))
            .arg("--cell-key")
            .arg(ctx.key.to_string())
            .arg("--result-file")
            .arg(&result_file)
            .arg("--ckpt-file")
            .arg(self.ckpt_path(ctx.key));
        if let Some(every) = self.ckpt_every {
            cmd.arg("--ckpt-every").arg(every.to_string());
        }
        cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
        cmd.env_remove(CHAOS_ENV);
        if let Some(directive) = self.chaos.directive(ctx.index, ctx.attempt) {
            cmd.env(CHAOS_ENV, directive);
        }
        cmd.spawn().map_err(|e| format!("spawning worker: {e}"))
    }

    fn ckpt_mtime(&self, key: u64) -> Option<SystemTime> {
        std::fs::metadata(self.ckpt_path(key))
            .and_then(|m| m.modified())
            .ok()
    }
}

impl CellRunner for SubprocessRunner {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        let mut child = match self.spawn_attempt(ctx) {
            Ok(child) => child,
            Err(e) => return Attempt::Failed(e),
        };
        // No-progress deadline, PR-2 watchdog style: the clock rearms
        // whenever the worker's checkpoint advances, so a slow-but-alive
        // cell is never shot while a wedged one always is.
        let mut last_progress = Instant::now();
        let mut last_mtime = self.ckpt_mtime(ctx.key);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    child.kill().ok();
                    child.wait().ok();
                    return Attempt::Failed(format!("waiting for worker: {e}"));
                }
            }
            if let Some(deadline) = self.cell_timeout {
                let mtime = self.ckpt_mtime(ctx.key);
                if mtime != last_mtime {
                    last_mtime = mtime;
                    last_progress = Instant::now();
                }
                if last_progress.elapsed() > deadline {
                    child.kill().ok();
                    child.wait().ok();
                    return Attempt::TimedOut(format!(
                        "no progress for {deadline:?}; worker killed"
                    ));
                }
            }
            std::thread::sleep(POLL_INTERVAL);
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

/// The per-cell slice of [`FarmOptions`]: how many times to retry a
/// failing cell and how to pace the retries.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt.
    pub retries: u32,
    /// Base backoff in milliseconds (0 disables the sleeps).
    pub backoff_ms: u64,
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
}

impl From<&FarmOptions> for RetryPolicy {
    fn from(o: &FarmOptions) -> RetryPolicy {
        RetryPolicy {
            retries: o.retries,
            backoff_ms: o.backoff_ms,
            backoff_seed: o.backoff_seed,
        }
    }
}

/// Drives one cell to a terminal [`CellOutcome`]: attempts through
/// `runner` (each attempt `catch_unwind`-guarded, so a runner bug is a
/// failed attempt, never an unwinding supervisor), retries with
/// seeded-deterministic exponential backoff up to the policy's budget,
/// then quarantines as [`CellOutcome::Poisoned`] or
/// [`CellOutcome::TimedOut`].
///
/// `abort` is polled between attempts; when it turns true the cell is
/// abandoned un-journaled (as a real SIGKILL would leave it) and `None`
/// is returned. This is the shared engine of [`run_campaign`] and the
/// `memfwd_served` job scheduler.
pub fn supervise_cell(
    mut ctx: CellCtx,
    policy: &RetryPolicy,
    runner: &dyn CellRunner,
    abort: &(dyn Fn() -> bool + Sync),
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
        if attempts > policy.retries {
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
            policy.backoff_seed,
            ctx.key,
            attempts - 1,
            policy.backoff_ms,
        ));
    }
}

/// The outcome of one supervisor run over a campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// The completed report, in spec order — `None` if the run crashed
    /// (see [`FarmOptions::crash_after_appends`]).
    pub report: Option<SweepReport>,
    /// Cells restored from the journal without recomputation.
    pub from_journal: usize,
    /// Cells actually executed (attempted at least once) this run.
    pub executed: usize,
    /// Whether the run stopped at the deterministic crash point.
    pub crashed: bool,
    /// Whether the run ended early because [`FarmOptions::stop`] turned
    /// true (graceful drain): in-flight cells were journaled, unclaimed
    /// cells were left for a later resume.
    pub stopped: bool,
}

/// Runs (or resumes) a campaign: every cell of `spec` reaches a terminal
/// [`CellOutcome`], journaled cells are reused verbatim, and each new
/// terminal outcome is durably journaled the moment it is reached.
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
    journal: &mut Journal,
) -> Result<CampaignRun, JournalError> {
    let cells = spec.expand();
    let jobs = opts.jobs.max(1);
    let workers = jobs.min(cells.len().max(1));
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let crashed = AtomicBool::new(false);
    let from_journal = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let appends = AtomicUsize::new(0);
    // The journal is shared by every worker thread; appends serialize on
    // this lock (they are tiny next to a cell's simulation time).
    let journal = Mutex::new(journal);
    let (tx, rx) = mpsc::channel::<(usize, Result<CellReport, JournalError>)>();

    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let crashed = &crashed;
            let from_journal = &from_journal;
            let executed = &executed;
            let appends = &appends;
            let journal = &journal;
            let cells = &cells;
            s.spawn(move || loop {
                if crashed.load(Ordering::SeqCst) {
                    break;
                }
                if opts.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst)) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let spec_i = cells[i];
                let key = cell_key(spec.scale, &spec_i);

                // Resume path: a journaled terminal outcome is reused
                // verbatim — zero recomputation.
                let journaled = {
                    let guard = journal.lock().expect("journal lock");
                    guard.get(key).cloned()
                };
                if let Some(rec) = journaled {
                    from_journal.fetch_add(1, Ordering::Relaxed);
                    if tx.send((i, Ok(rec.to_report(spec_i)))).is_err() {
                        break;
                    }
                    continue;
                }

                executed.fetch_add(1, Ordering::Relaxed);
                let ctx = CellCtx {
                    spec: spec_i,
                    scale: spec.scale,
                    index: i,
                    attempt: 0,
                    key,
                };
                // When the abort flag turns true the campaign is "dead";
                // the cell is abandoned un-journaled, as a real SIGKILL
                // would leave it.
                let report = match supervise_cell(ctx, &RetryPolicy::from(opts), runner, &|| {
                    crashed.load(Ordering::SeqCst)
                }) {
                    Some(report) => report,
                    None => return,
                };

                // Durably journal the terminal outcome before reporting
                // it. Everything after a crash point is discarded.
                let append = {
                    let mut guard = journal.lock().expect("journal lock");
                    if crashed.load(Ordering::SeqCst) {
                        return;
                    }
                    let r = guard.append(JournalRecord::from_report(spec.scale, &report));
                    if r.is_ok() {
                        let n = appends.fetch_add(1, Ordering::SeqCst) + 1;
                        if opts.crash_after_appends.is_some_and(|k| n as u64 >= k) {
                            crashed.store(true, Ordering::SeqCst);
                        }
                    }
                    r
                };
                let msg = append.map(|()| report);
                if tx.send((i, msg)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<CellReport>> = vec![None; cells.len()];
    let mut first_err = None;
    for (i, r) in rx {
        match r {
            Ok(report) => slots[i] = Some(report),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let did_crash = crashed.load(Ordering::SeqCst);
    let did_stop = opts.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst));
    let report = if did_crash || slots.iter().any(|s| s.is_none()) {
        None
    } else {
        Some(SweepReport {
            jobs,
            scale: spec.scale,
            cells: slots
                .into_iter()
                .map(|s| s.expect("checked above"))
                .collect(),
            host_wall_nanos: t0.elapsed().as_nanos() as u64,
            selftest_refs_per_second: None,
        })
    };
    Ok(CampaignRun {
        report,
        from_journal: from_journal.load(Ordering::Relaxed),
        executed: executed.load(Ordering::Relaxed),
        crashed: did_crash,
        stopped: did_stop,
    })
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
