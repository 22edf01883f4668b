//! Supervisor semantics under a deterministic mock runner: retry and
//! quarantine outcomes, zero recomputation on resume, the
//! kill-at-every-append crash/resume sweep — the in-process twin of the
//! CI chaos job — and the stop predicate; plus the typed holes of a
//! journal-less, retry-less campaign (a plain sweep) over real cells.

use memfwd_apps::{App, Scale, Variant};
use memfwd_farm::sweep::{strip_host_lines, validate_report};
use memfwd_farm::{
    campaign_fingerprint, run_campaign, Attempt, CellCtx, CellOutcome, CellResult, CellRunner,
    CellSpec, FarmOptions, InProcessRunner, Journal, SweepReport, SweepSpec,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memfwd-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        apps: vec![App::Health, App::Mst, App::Vis],
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32],
        mem_latency: vec![75],
        seeds: vec![1],
        scale: Scale::Smoke,
    }
}

fn never() -> bool {
    false
}

fn fast_opts() -> FarmOptions {
    FarmOptions {
        jobs: 2,
        retries: 2,
        backoff_ms: 0,
        ..FarmOptions::default()
    }
}

/// A deterministic, simulation-free runner: the "result" of a cell is a
/// pure function of its key, and failure behaviour is scripted per cell
/// index. Counts every attempt so tests can assert zero recomputation.
struct MockRunner {
    /// index -> number of leading attempts that fail.
    fail_first: HashMap<usize, u32>,
    /// Cells whose every attempt times out.
    always_timeout: Vec<usize>,
    /// Cells whose every attempt fails.
    always_fail: Vec<usize>,
    /// (index, attempt) log, in call order.
    calls: Mutex<Vec<(usize, u32)>>,
}

impl MockRunner {
    fn clean() -> MockRunner {
        MockRunner {
            fail_first: HashMap::new(),
            always_timeout: Vec::new(),
            always_fail: Vec::new(),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn result_for(ctx: &CellCtx) -> CellResult {
        let mut stats = memfwd::RunStats::default();
        stats.pipeline.cycles = ctx.key % 100_000;
        CellResult {
            spec: ctx.spec,
            checksum: ctx.key,
            stats,
            refs: 1 + ctx.key % 7,
            host_nanos: 1,
        }
    }

    fn attempts_made(&self) -> usize {
        self.calls.lock().expect("calls lock").len()
    }
}

impl CellRunner for MockRunner {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        self.calls
            .lock()
            .expect("calls lock")
            .push((ctx.index, ctx.attempt));
        if self.always_timeout.contains(&ctx.index) {
            return Attempt::TimedOut(format!("mock timeout at attempt {}", ctx.attempt));
        }
        if self.always_fail.contains(&ctx.index) {
            return Attempt::Failed(format!("mock failure at attempt {}", ctx.attempt));
        }
        if self
            .fail_first
            .get(&ctx.index)
            .is_some_and(|&n| ctx.attempt < n)
        {
            return Attempt::Failed(format!("mock transient failure at attempt {}", ctx.attempt));
        }
        Attempt::Completed(Box::new(Self::result_for(ctx)))
    }
}

#[test]
fn outcomes_are_typed_per_cell() {
    let spec = small_spec();
    let path = tmp_path("outcomes.mfj");
    let mut journal = Journal::create(&path, campaign_fingerprint(&spec)).expect("create");
    let runner = MockRunner {
        fail_first: HashMap::from([(1, 1), (2, 2)]),
        always_timeout: vec![3],
        always_fail: vec![4],
        calls: Mutex::new(Vec::new()),
    };
    let run =
        run_campaign(&spec, &fast_opts(), &runner, Some(&mut journal), &never).expect("campaign");
    let report = run.report.expect("campaign completed");
    assert_eq!(run.from_journal, 0);
    assert_eq!(run.executed, 6);

    let cells = &report.cells;
    assert_eq!(cells[0].outcome, CellOutcome::Ok);
    assert_eq!(cells[0].attempts, 1);
    assert!(cells[0].error.is_none());

    assert_eq!(cells[1].outcome, CellOutcome::Retried(1));
    assert_eq!(cells[1].attempts, 2);
    assert!(cells[1].sim.is_some(), "retried cells carry a result");
    assert!(
        cells[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("attempt 0")),
        "last failure preserved alongside the eventual success"
    );

    assert_eq!(cells[2].outcome, CellOutcome::Retried(2));
    assert_eq!(cells[2].attempts, 3);

    assert_eq!(cells[3].outcome, CellOutcome::TimedOut);
    assert_eq!(cells[3].attempts, 3, "first attempt + 2 retries");
    assert!(cells[3].sim.is_none());

    assert_eq!(cells[4].outcome, CellOutcome::Poisoned);
    assert!(cells[4]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("mock failure")));

    assert_eq!(cells[5].outcome, CellOutcome::Ok);

    let summary = report.summary();
    assert_eq!(
        (
            summary.ok,
            summary.retried,
            summary.poisoned,
            summary.timed_out
        ),
        (2, 2, 1, 1)
    );
    assert!(!summary.is_clean());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_recomputes_nothing() {
    let spec = small_spec();
    let path = tmp_path("resume.mfj");
    let fp = campaign_fingerprint(&spec);
    let mut journal = Journal::create(&path, fp).expect("create");
    let first = MockRunner::clean();
    let run1 =
        run_campaign(&spec, &fast_opts(), &first, Some(&mut journal), &never).expect("first run");
    let golden = strip_host_lines(&run1.report.expect("completed").to_json());

    // Re-open the journal from disk, as a restarted supervisor would, and
    // run again with a runner that records (and would change) anything it
    // is asked to compute.
    let mut journal = Journal::load(&path, fp).expect("reload");
    let second = MockRunner::clean();
    let run2 =
        run_campaign(&spec, &fast_opts(), &second, Some(&mut journal), &never).expect("second run");
    assert_eq!(
        second.attempts_made(),
        0,
        "every cell came from the journal"
    );
    assert_eq!(run2.from_journal, 6);
    assert_eq!(run2.executed, 0);
    assert_eq!(
        strip_host_lines(&run2.report.expect("completed").to_json()),
        golden,
        "resumed report is bit-identical"
    );
    std::fs::remove_file(&path).ok();
}

/// The tentpole acceptance loop: crash the campaign (deterministically)
/// after every possible journal-append count, resume it, and require the
/// final report bit-identical to the uninterrupted golden run with zero
/// recomputation of journaled cells.
#[test]
fn kill_at_every_append_resumes_bit_identical() {
    let spec = small_spec();
    let n_cells = spec.expand().len();
    let fp = campaign_fingerprint(&spec);

    let golden_path = tmp_path("golden.mfj");
    let mut journal = Journal::create(&golden_path, fp).expect("create golden");
    let runner = MockRunner::clean();
    let golden_run =
        run_campaign(&spec, &fast_opts(), &runner, Some(&mut journal), &never).expect("golden");
    let golden = strip_host_lines(&golden_run.report.expect("completed").to_json());
    std::fs::remove_file(&golden_path).ok();

    for crash_at in 1..=n_cells as u64 {
        let path = tmp_path(&format!("kill-{crash_at}.mfj"));
        let mut journal = Journal::create(&path, fp).expect("create");
        let crashed_runner = MockRunner::clean();
        let opts = FarmOptions {
            crash_after_appends: Some(crash_at),
            ..fast_opts()
        };
        let crashed = run_campaign(&spec, &opts, &crashed_runner, Some(&mut journal), &never)
            .expect("crashing run returns, like a wait() observing death");
        assert!(crashed.crashed, "crash point {crash_at} must trigger");
        assert!(crashed.report.is_none(), "a crashed campaign has no report");

        // The on-disk journal holds exactly the appends that happened
        // before the crash point — a sealed prefix, never a torn file.
        let mut journal = Journal::load(&path, fp).expect("journal survives the crash");
        assert_eq!(journal.len(), crash_at as usize);

        let resumed_runner = MockRunner::clean();
        let resumed = run_campaign(
            &spec,
            &fast_opts(),
            &resumed_runner,
            Some(&mut journal),
            &never,
        )
        .expect("resumed run");
        assert_eq!(
            resumed.from_journal, crash_at as usize,
            "journaled cells are reused, not recomputed"
        );
        assert_eq!(resumed.executed, n_cells - crash_at as usize);
        assert_eq!(
            resumed_runner.attempts_made(),
            n_cells - crash_at as usize,
            "exactly the unfinished cells run, once each"
        );
        assert_eq!(
            strip_host_lines(&resumed.report.expect("completed").to_json()),
            golden,
            "crash after append {crash_at}: resumed report diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn campaign_with_failures_resumes_without_retrying_poisoned_cells() {
    let spec = small_spec();
    let path = tmp_path("poison-resume.mfj");
    let fp = campaign_fingerprint(&spec);
    let mut journal = Journal::create(&path, fp).expect("create");
    let first = MockRunner {
        fail_first: HashMap::new(),
        always_timeout: Vec::new(),
        always_fail: vec![2],
        calls: Mutex::new(Vec::new()),
    };
    let run1 =
        run_campaign(&spec, &fast_opts(), &first, Some(&mut journal), &never).expect("first");
    let report1 = run1.report.expect("completed");
    assert_eq!(report1.summary().poisoned, 1);

    // Poisoned is a *terminal* outcome: resume must not retry it.
    let mut journal = Journal::load(&path, fp).expect("reload");
    let second = MockRunner::clean();
    let run2 =
        run_campaign(&spec, &fast_opts(), &second, Some(&mut journal), &never).expect("second");
    assert_eq!(second.attempts_made(), 0);
    let report2 = run2.report.expect("completed");
    assert_eq!(report2.cells[2].outcome, CellOutcome::Poisoned);
    assert_eq!(
        strip_host_lines(&report1.to_json()),
        strip_host_lines(&report2.to_json())
    );
    std::fs::remove_file(&path).ok();
}

/// A stop predicate that turns true once `k` cells are claimed ends the
/// campaign gracefully: no report and no crash, and the journal holds
/// exactly the cells that finished. A resume replays those cells without
/// an attempt and completes a report identical to the golden run.
#[test]
fn stop_predicate_leaves_unclaimed_cells_for_resume() {
    let spec = small_spec();
    let n_cells = spec.expand().len();
    let fp = campaign_fingerprint(&spec);

    let golden_path = tmp_path("stop-golden.mfj");
    let mut journal = Journal::create(&golden_path, fp).expect("create golden");
    let runner = MockRunner::clean();
    let golden_run =
        run_campaign(&spec, &fast_opts(), &runner, Some(&mut journal), &never).expect("golden");
    let golden = strip_host_lines(&golden_run.report.expect("completed").to_json());
    std::fs::remove_file(&golden_path).ok();

    // Each clean mock cell is one attempt, so attempts count claimed
    // cells. With two workers, one more cell may be claimed between the
    // predicate turning true and the other worker polling it.
    for k in 1..n_cells - 1 {
        let path = tmp_path(&format!("stop-{k}.mfj"));
        let mut journal = Journal::create(&path, fp).expect("create");
        let stopped_runner = MockRunner::clean();
        let stop = || stopped_runner.attempts_made() >= k;
        let stopped = run_campaign(
            &spec,
            &fast_opts(),
            &stopped_runner,
            Some(&mut journal),
            &stop,
        )
        .expect("stopped run");
        assert!(!stopped.crashed, "a stop is not a crash");
        assert!(stopped.report.is_none(), "a stopped campaign has no report");
        let finished = stopped_runner.attempts_made();
        assert!(
            finished == k || finished == k + 1,
            "stop at {k}: {finished} cells ran"
        );
        assert_eq!(stopped.executed, finished);

        let mut journal = Journal::load(&path, fp).expect("journal survives the stop");
        assert_eq!(
            journal.len(),
            finished,
            "the journal holds the finished cells"
        );

        let resumed_runner = MockRunner::clean();
        let resumed = run_campaign(
            &spec,
            &fast_opts(),
            &resumed_runner,
            Some(&mut journal),
            &never,
        )
        .expect("resumed run");
        assert_eq!(resumed.from_journal, finished);
        let ran_before: Vec<usize> = stopped_runner
            .calls
            .lock()
            .expect("calls")
            .iter()
            .map(|c| c.0)
            .collect();
        let ran_after: Vec<usize> = resumed_runner
            .calls
            .lock()
            .expect("calls")
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(ran_after.len(), n_cells - finished);
        assert!(
            ran_after.iter().all(|i| !ran_before.contains(i)),
            "stop at {k}: a journaled cell ran again ({ran_before:?} then {ran_after:?})"
        );
        assert_eq!(
            strip_host_lines(&resumed.report.expect("completed").to_json()),
            golden,
            "stop at {k}: resumed report diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Real in-process cells, except that one cell panics or fails on every
/// attempt.
struct Sabotaged {
    target: CellSpec,
    panic: bool,
}

impl CellRunner for Sabotaged {
    fn run_cell(&self, ctx: &CellCtx) -> Attempt {
        if ctx.spec != self.target {
            return InProcessRunner.run_cell(ctx);
        }
        if self.panic {
            panic!("injected cell panic");
        }
        Attempt::Failed("typed failure".to_string())
    }
}

/// A campaign with no journal and no retries — what `run_sweep` runs.
fn sweep_with(spec: &SweepSpec, jobs: usize, runner: &dyn CellRunner) -> SweepReport {
    let opts = FarmOptions {
        jobs,
        retries: 0,
        ..FarmOptions::default()
    };
    run_campaign(spec, &opts, runner, None, &never)
        .expect("no journal to fail")
        .report
        .expect("no crash point or stop")
}

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        apps: vec![App::Vis, App::Mst],
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32],
        mem_latency: vec![75],
        seeds: vec![12345],
        scale: Scale::Smoke,
    }
}

#[test]
fn panicking_cell_is_a_typed_hole_not_a_poisoned_sweep() {
    let spec = tiny_spec();
    let runner = Sabotaged {
        target: spec.expand()[1],
        panic: true,
    };
    let report = sweep_with(&spec, 2, &runner);
    assert_eq!(report.cells.len(), 4);
    assert_eq!(report.cells[1].outcome, CellOutcome::Poisoned);
    assert_eq!(report.cells[1].attempts, 1);
    assert!(report.cells[1].sim.is_none());
    assert!(
        report.cells[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected cell panic")),
        "{:?}",
        report.cells[1].error
    );
    // Every other cell completed normally and the report still
    // serializes and validates — graceful degradation.
    for (i, c) in report.cells.iter().enumerate() {
        if i != 1 {
            assert_eq!(c.outcome, CellOutcome::Ok, "cell {i}");
            assert!(c.sim.is_some());
        }
    }
    let json = report.to_json();
    validate_report(&json).expect("degraded report still validates");
    assert_eq!(report.summary().poisoned, 1);
    assert!(!report.summary().is_clean());
}

#[test]
fn failing_cell_error_is_preserved() {
    let spec = SweepSpec {
        apps: vec![App::Vis],
        variants: vec![Variant::Original],
        ..tiny_spec()
    };
    let runner = Sabotaged {
        target: spec.expand()[0],
        panic: false,
    };
    let report = sweep_with(&spec, 1, &runner);
    assert_eq!(report.cells[0].outcome, CellOutcome::Poisoned);
    assert_eq!(report.cells[0].attempts, 1);
    assert_eq!(report.cells[0].error.as_deref(), Some("typed failure"));
    validate_report(&report.to_json()).expect("degraded report still validates");
}
