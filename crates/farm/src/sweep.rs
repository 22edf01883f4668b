//! Declarative parallel sweeps: the engine behind the `memfwd_sweep` binary.
//!
//! A [`SweepSpec`] names the axes of a paper figure — applications ×
//! variants × line sizes × memory latencies × seeds — and expands into
//! independent simulator runs. [`run_sweep`] executes the cells on a
//! `std::thread` worker pool (workers steal the next unclaimed cell from a
//! shared atomic counter) and collects results **in spec order**, so the
//! report is byte-identical at any `--jobs` value: every cell is a fully
//! independent `Machine`, and only the `host_`-prefixed timing fields
//! depend on the host.
//!
//! Every cell carries a typed [`CellOutcome`]: a cell that panics or
//! faults is caught at the pool boundary and shipped as a
//! [`CellOutcome::Poisoned`] hole with its error text — it never unwinds
//! across the pool and never takes the other cells down. The supervised
//! campaign runner in [`crate::supervisor`] adds retry, out-of-process
//! isolation, and timeouts on top of the same report types.
//!
//! The report serializes to `BENCH_sweep.json` via [`SweepReport::to_json`];
//! [`strip_host_lines`] removes the host-timing lines and
//! [`strip_volatile_lines`] additionally removes outcome/attempt lines so
//! a degraded or resumed campaign can be diffed against a clean golden
//! run; [`validate_report`] checks the schema (see EXPERIMENTS.md for the
//! field-by-field description).

use crate::minijson::{parse_json, Json};
use memfwd::{json_escape, RunStats};
use memfwd_apps::{run, App, RunConfig, Scale, Variant};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Version stamped into every report; bump when the schema changes shape.
/// Version 2 added per-cell `outcome`/`attempts` fields and the campaign
/// `summary` line; version 3 dropped the speculation engine's host
/// worker-count line, its per-cell bookkeeping line and its block of
/// `stats`.
pub const SCHEMA_VERSION: u64 = 3;

/// The axes of a sweep. Cells are expanded in nested order — app, variant,
/// line bytes, memory latency, seed — which is also the order of the
/// report's `cells` array.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Applications to run.
    pub apps: Vec<App>,
    /// Layout variants per application.
    pub variants: Vec<Variant>,
    /// Cache line sizes in bytes (the Fig. 5/6 axis).
    pub line_bytes: Vec<u64>,
    /// Main-memory latencies in cycles (the Fig. 9 axis).
    pub mem_latency: Vec<u64>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Workload scale for every cell.
    pub scale: Scale,
}

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            apps: App::ALL.to_vec(),
            variants: vec![Variant::Original, Variant::Optimized],
            line_bytes: vec![32],
            mem_latency: vec![75],
            seeds: vec![12345],
            scale: Scale::Smoke,
        }
    }
}

/// One fully specified simulator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Application.
    pub app: App,
    /// Layout variant.
    pub variant: Variant,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Workload seed.
    pub seed: u64,
}

impl SweepSpec {
    /// Expands the axes into the ordered cell list.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &app in &self.apps {
            for &variant in &self.variants {
                for &line_bytes in &self.line_bytes {
                    for &mem_latency in &self.mem_latency {
                        for &seed in &self.seeds {
                            cells.push(CellSpec {
                                app,
                                variant,
                                line_bytes,
                                mem_latency,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Result of one completed cell: the simulated outputs (deterministic)
/// plus host timing (not).
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// The cell that was run.
    pub spec: CellSpec,
    /// Layout-independent output digest.
    pub checksum: u64,
    /// Full simulator statistics.
    pub stats: RunStats,
    /// Loads plus stores issued.
    pub refs: u64,
    /// Host nanoseconds spent simulating this cell.
    pub host_nanos: u64,
}

impl CellResult {
    /// Host-side simulation rate in demand references per second.
    pub fn refs_per_second(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.refs as f64 * 1e9 / self.host_nanos as f64
        }
    }
}

/// How a cell's campaign ended. `Ok` and `Retried` cells carry a
/// [`CellResult`]; `Poisoned` and `TimedOut` cells are typed holes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellOutcome {
    /// Completed on the first attempt.
    Ok,
    /// Completed after this many *failed* attempts.
    Retried(u32),
    /// Every attempt failed (panic, abort, machine fault, lost worker);
    /// the cell is quarantined.
    Poisoned,
    /// Every attempt exceeded the no-progress deadline and was killed.
    TimedOut,
}

impl CellOutcome {
    /// The report's stable outcome name.
    pub fn name(self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Retried(_) => "retried",
            CellOutcome::Poisoned => "poisoned",
            CellOutcome::TimedOut => "timed_out",
        }
    }

    /// Whether the cell produced a simulated result.
    pub fn is_completed(self) -> bool {
        matches!(self, CellOutcome::Ok | CellOutcome::Retried(_))
    }
}

/// One cell of a (possibly degraded) campaign report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell that was scheduled.
    pub spec: CellSpec,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Total attempts made (>= 1).
    pub attempts: u32,
    /// The simulated result, present iff `outcome.is_completed()`.
    pub sim: Option<CellResult>,
    /// The last failure's description, for quarantined cells and as an
    /// audit trail on retried ones.
    pub error: Option<String>,
}

impl CellReport {
    /// A first-attempt success.
    pub fn completed(result: CellResult) -> CellReport {
        CellReport {
            spec: result.spec,
            outcome: CellOutcome::Ok,
            attempts: 1,
            sim: Some(result),
            error: None,
        }
    }

    /// The simulated result of a completed cell.
    pub fn sim(&self) -> Option<&CellResult> {
        self.sim.as_ref()
    }
}

/// Per-outcome cell counts of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Cells completed on the first attempt.
    pub ok: usize,
    /// Cells completed after at least one retry.
    pub retried: usize,
    /// Cells quarantined after exhausting retries.
    pub poisoned: usize,
    /// Cells killed by the no-progress deadline on every attempt.
    pub timed_out: usize,
}

impl CampaignSummary {
    /// Whether every cell completed (the campaign is not degraded).
    pub fn is_clean(&self) -> bool {
        self.poisoned == 0 && self.timed_out == 0
    }
}

/// A completed sweep, cells in spec order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Scale every cell ran at.
    pub scale: Scale,
    /// Per-cell results, in [`SweepSpec::expand`] order.
    pub cells: Vec<CellReport>,
    /// Host wall-clock for the whole sweep, in nanoseconds.
    pub host_wall_nanos: u64,
    /// Refs-per-second of the single-run selftest, when one was taken.
    pub selftest_refs_per_second: Option<f64>,
}

impl SweepReport {
    /// Tallies the per-outcome cell counts.
    pub fn summary(&self) -> CampaignSummary {
        let mut s = CampaignSummary::default();
        for c in &self.cells {
            match c.outcome {
                CellOutcome::Ok => s.ok += 1,
                CellOutcome::Retried(_) => s.retried += 1,
                CellOutcome::Poisoned => s.poisoned += 1,
                CellOutcome::TimedOut => s.timed_out += 1,
            }
        }
        s
    }
}

/// Renders a caught panic payload as an error string, preferring the typed
/// [`memfwd::MachineFault`] the faulting thread recorded (the apps' panic
/// protocol) over the raw payload text.
pub fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(fault) = memfwd::take_last_fault() {
        return format!("machine fault: {fault}");
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".to_string()
    }
}

/// Runs one cell in-process, mapping a machine fault to a typed error
/// string instead of panicking. Panics from simulator bugs still unwind;
/// the worker pool catches those at its boundary.
pub fn run_cell(scale: Scale, c: CellSpec) -> Result<CellResult, String> {
    let mut cfg = RunConfig::new(c.variant);
    cfg.scale = scale;
    cfg.seed = c.seed;
    cfg.sim = cfg.sim.with_line_bytes(c.line_bytes);
    cfg.sim.hierarchy.mem_latency = c.mem_latency;
    let t = Instant::now();
    let out = run(c.app, &cfg).map_err(|fault| format!("machine fault: {fault}"))?;
    let host_nanos = t.elapsed().as_nanos() as u64;
    Ok(CellResult {
        spec: c,
        checksum: out.checksum,
        stats: out.stats,
        refs: out.stats.fwd.loads + out.stats.fwd.stores,
        host_nanos,
    })
}

/// Runs every cell of `spec` on `jobs` worker threads with the stock
/// in-process cell runner. See [`run_sweep_with`].
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> SweepReport {
    run_sweep_with(spec, jobs, &|scale, c| run_cell(scale, c))
}

/// Runs every cell of `spec` on `jobs` worker threads.
///
/// Workers claim the next unclaimed cell index from a shared atomic counter
/// (work stealing at cell granularity: a worker that finishes early keeps
/// claiming while slower cells run elsewhere), so wall-clock scales with
/// `jobs` while the report content stays identical.
///
/// Each `runner` call is wrapped in `catch_unwind`: a panicking or failing
/// cell becomes a typed [`CellOutcome::Poisoned`] entry in the report
/// instead of unwinding across the pool and poisoning the whole sweep.
pub fn run_sweep_with(
    spec: &SweepSpec,
    jobs: usize,
    runner: &(dyn Fn(Scale, CellSpec) -> Result<CellResult, String> + Sync),
) -> SweepReport {
    let cells = spec.expand();
    let jobs = jobs.max(1);
    let workers = jobs.min(cells.len().max(1));
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CellReport)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let cells = &cells;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let spec_i = cells[i];
                let r = match catch_unwind(AssertUnwindSafe(|| runner(spec.scale, spec_i))) {
                    Ok(Ok(result)) => CellReport::completed(result),
                    Ok(Err(error)) => CellReport {
                        spec: spec_i,
                        outcome: CellOutcome::Poisoned,
                        attempts: 1,
                        sim: None,
                        error: Some(error),
                    },
                    Err(payload) => CellReport {
                        spec: spec_i,
                        outcome: CellOutcome::Poisoned,
                        attempts: 1,
                        sim: None,
                        error: Some(describe_panic(payload)),
                    },
                };
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<CellReport>> = vec![None; cells.len()];
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    SweepReport {
        jobs,
        scale: spec.scale,
        cells: slots
            .into_iter()
            .map(|s| s.expect("every cell was claimed exactly once"))
            .collect(),
        host_wall_nanos: t0.elapsed().as_nanos() as u64,
        selftest_refs_per_second: None,
    }
}

/// The fixed single cell measured by `--selftest`: `health`, optimized
/// layout, default geometry — the repo's refs-per-second trajectory probe.
pub const SELFTEST_CELL: CellSpec = CellSpec {
    app: App::Health,
    variant: Variant::Optimized,
    line_bytes: 32,
    mem_latency: 75,
    seed: 12345,
};

/// Runs the selftest cell at `scale` and returns its result (host timing
/// included); the caller records [`CellResult::refs_per_second`] in the
/// report.
///
/// # Panics
///
/// If the probe cell faults — the probe is a known-good configuration, so
/// a fault there is a simulator bug.
pub fn selftest(scale: Scale) -> CellResult {
    match run_cell(scale, SELFTEST_CELL) {
        Ok(r) => r,
        Err(e) => panic!("selftest cell failed: {e}"),
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Bench => "bench",
    }
}

impl SweepReport {
    /// Serializes the report as pretty-printed JSON, one key per line.
    ///
    /// Every host-dependent field is prefixed `host_`; everything except
    /// the campaign bookkeeping (`outcome`, `attempts`, `error`,
    /// `summary`) is a pure function of the sweep spec, so two reports
    /// from the same spec agree exactly after [`strip_host_lines`]
    /// regardless of `jobs`, and a recovered chaos campaign agrees with a
    /// clean run after [`strip_volatile_lines`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(self.scale)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"host_wall_nanos\": {},\n",
            self.host_wall_nanos
        ));
        if let Some(rps) = self.selftest_refs_per_second {
            out.push_str(&format!("  \"host_selftest_refs_per_second\": {rps:.1},\n"));
        }
        let s = self.summary();
        out.push_str(&format!(
            "  \"summary\": {{ \"ok\": {}, \"retried\": {}, \"poisoned\": {}, \"timed_out\": {} }},\n",
            s.ok, s.retried, s.poisoned, s.timed_out
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"app\": \"{}\",\n", c.spec.app.name()));
            out.push_str(&format!(
                "      \"variant\": \"{}\",\n",
                c.spec.variant.name()
            ));
            out.push_str(&format!("      \"line_bytes\": {},\n", c.spec.line_bytes));
            out.push_str(&format!("      \"mem_latency\": {},\n", c.spec.mem_latency));
            out.push_str(&format!("      \"seed\": {},\n", c.spec.seed));
            out.push_str(&format!("      \"outcome\": \"{}\",\n", c.outcome.name()));
            // The last key of the cell object must not have a trailing
            // comma; collect the tail keys and join.
            let mut tail: Vec<String> = Vec::new();
            tail.push(format!("      \"attempts\": {}", c.attempts));
            if let Some(err) = &c.error {
                tail.push(format!("      \"error\": \"{}\"", json_escape(err)));
            }
            if let Some(r) = &c.sim {
                tail.push(format!("      \"checksum\": \"{:#018x}\"", r.checksum));
                tail.push(format!("      \"refs\": {}", r.refs));
                tail.push(format!("      \"cycles\": {}", r.stats.cycles()));
                tail.push(format!(
                    "      \"stats\": \"{}\"",
                    json_escape(&format!("{:?}", r.stats))
                ));
                tail.push(format!(
                    "      \"host_refs_per_second\": {:.1}",
                    r.refs_per_second()
                ));
                tail.push(format!("      \"host_nanos\": {}", r.host_nanos));
            }
            out.push_str(&tail.join(",\n"));
            out.push('\n');
            out.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Removes every line carrying a `host_`-prefixed key, plus the `jobs`
/// line (how the sweep was parallelized, not what it computed), leaving
/// only the deterministic content. The result is for *comparison* (string
/// equality between two stripped reports), not for parsing.
pub fn strip_host_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"host_") && !l.starts_with("\"jobs\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// [`strip_host_lines`] plus the campaign-bookkeeping lines (`outcome`,
/// `attempts`, `error`, `summary`): what is left is a pure function of the
/// sweep spec for every *completed* cell, so a chaos campaign in which
/// every cell eventually completed compares equal to a clean golden run.
pub fn strip_volatile_lines(report: &str) -> String {
    strip_host_lines(report)
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"outcome\"")
                && !l.starts_with("\"attempts\"")
                && !l.starts_with("\"error\"")
                && !l.starts_with("\"summary\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// Schema validation: a minimal JSON parser (no crates.io here) plus the
// BENCH_sweep.json shape checks used by CI.
// ---------------------------------------------------------------------

fn require<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing required key \"{key}\""))
}

/// Validates that `text` is a well-formed `BENCH_sweep.json` report:
/// parseable JSON with the documented top-level and per-cell keys, a known
/// schema version, a campaign summary, a typed outcome per cell, and —
/// for completed cells — a non-empty hex checksum and statistics block.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_report(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    let version = require(&root, "schema_version", "report")?;
    if *version != Json::Num(SCHEMA_VERSION as f64) {
        return Err(format!(
            "report: unsupported schema_version (expected {SCHEMA_VERSION})"
        ));
    }
    match require(&root, "scale", "report")? {
        Json::Str(s) if s == "smoke" || s == "bench" => {}
        _ => return Err("report: \"scale\" must be \"smoke\" or \"bench\"".into()),
    }
    match require(&root, "jobs", "report")? {
        Json::Num(n) if *n >= 1.0 => {}
        _ => return Err("report: \"jobs\" must be a number >= 1".into()),
    }
    require(&root, "host_wall_nanos", "report")?;
    let summary = require(&root, "summary", "report")?;
    for key in ["ok", "retried", "poisoned", "timed_out"] {
        match require(summary, key, "summary")? {
            Json::Num(n) if *n >= 0.0 => {}
            _ => return Err(format!("summary: \"{key}\" must be a number >= 0")),
        }
    }
    let cells = match require(&root, "cells", "report")? {
        Json::Arr(cells) => cells,
        _ => return Err("report: \"cells\" must be an array".into()),
    };
    for (i, cell) in cells.iter().enumerate() {
        let what = format!("cell {i}");
        match require(cell, "app", &what)? {
            Json::Str(name) if App::from_name(name).is_some() => {}
            _ => return Err(format!("{what}: \"app\" is not a known application")),
        }
        match require(cell, "variant", &what)? {
            Json::Str(name) if Variant::from_name(name).is_some() => {}
            _ => return Err(format!("{what}: \"variant\" is not a known variant")),
        }
        for key in ["line_bytes", "mem_latency", "seed"] {
            match require(cell, key, &what)? {
                Json::Num(_) => {}
                _ => return Err(format!("{what}: \"{key}\" must be a number")),
            }
        }
        let completed = match require(cell, "outcome", &what)? {
            Json::Str(s) if s == "ok" || s == "retried" => true,
            Json::Str(s) if s == "poisoned" || s == "timed_out" => false,
            _ => {
                return Err(format!(
                    "{what}: \"outcome\" must be ok|retried|poisoned|timed_out"
                ))
            }
        };
        match require(cell, "attempts", &what)? {
            Json::Num(n) if *n >= 1.0 => {}
            _ => return Err(format!("{what}: \"attempts\" must be a number >= 1")),
        }
        if !completed {
            match require(cell, "error", &what)? {
                Json::Str(_) => {}
                _ => return Err(format!("{what}: a failed cell needs an \"error\" string")),
            }
            continue;
        }
        for key in ["refs", "cycles"] {
            match require(cell, key, &what)? {
                Json::Num(_) => {}
                _ => return Err(format!("{what}: \"{key}\" must be a number")),
            }
        }
        match require(cell, "checksum", &what)? {
            Json::Str(s)
                if s.starts_with("0x")
                    && s.len() == 18
                    && s[2..].bytes().all(|b| b.is_ascii_hexdigit()) => {}
            _ => {
                return Err(format!(
                    "{what}: \"checksum\" must be an 0x 16-digit hex string"
                ))
            }
        }
        match require(cell, "stats", &what)? {
            Json::Str(s) if s.starts_with("RunStats") => {}
            _ => return Err(format!("{what}: \"stats\" must be a RunStats debug string")),
        }
        require(cell, "host_nanos", &what)?;
        require(cell, "host_refs_per_second", &what)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn expand_order_is_nested() {
        let cells = tiny_spec().expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].app, App::Vis);
        assert_eq!(cells[0].variant, Variant::Original);
        assert_eq!(cells[1].variant, Variant::Optimized);
        assert_eq!(cells[2].app, App::Mst);
    }

    #[test]
    fn sweep_is_deterministic_across_jobs() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, 1);
        let b = run_sweep(&spec, 4);
        assert_eq!(
            strip_host_lines(&a.to_json()),
            strip_host_lines(&b.to_json())
        );
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.outcome, CellOutcome::Ok);
            let (x, y) = (x.sim().expect("completed"), y.sim().expect("completed"));
            assert_eq!(x.checksum, y.checksum);
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn report_validates_and_strip_removes_only_host_lines() {
        let mut report = run_sweep(&tiny_spec(), 2);
        report.selftest_refs_per_second = Some(123.4);
        let json = report.to_json();
        validate_report(&json).expect("valid schema");
        let stripped = strip_host_lines(&json);
        assert!(!stripped.contains("host_"));
        assert!(stripped.contains("\"checksum\""));
        assert!(stripped.contains("\"stats\""));
        assert!(stripped.contains("\"outcome\""));
        let volatile = strip_volatile_lines(&json);
        assert!(!volatile.contains("\"outcome\""));
        assert!(!volatile.contains("\"summary\""));
        assert!(volatile.contains("\"checksum\""));
    }

    #[test]
    fn panicking_cell_is_a_typed_hole_not_a_poisoned_sweep() {
        let spec = tiny_spec();
        let poison_target = spec.expand()[1];
        let report = run_sweep_with(&spec, 2, &move |scale, c| {
            if c == poison_target {
                panic!("injected cell panic");
            }
            run_cell(scale, c)
        });
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[1].outcome, CellOutcome::Poisoned);
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
        let report = run_sweep_with(&spec, 1, &|_, _| Err("typed failure".to_string()));
        assert_eq!(report.cells[0].outcome, CellOutcome::Poisoned);
        assert_eq!(report.cells[0].error.as_deref(), Some("typed failure"));
    }

    #[test]
    fn validator_rejects_garbage_and_missing_keys() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let bad_version = format!("{{\"schema_version\": {}}}", SCHEMA_VERSION + 1);
        assert!(validate_report(&bad_version).is_err());
        // A structurally valid report with a corrupted checksum fails.
        let report = run_sweep(
            &SweepSpec {
                apps: vec![App::Vis],
                variants: vec![Variant::Original],
                ..tiny_spec()
            },
            1,
        );
        let json = report.to_json().replace("\"0x", "\"zz");
        assert!(validate_report(&json).is_err());
        // A failed cell without an error string fails validation.
        let json = report
            .to_json()
            .replace("\"outcome\": \"ok\"", "\"outcome\": \"poisoned\"");
        assert!(validate_report(&json).is_err());
    }

    #[test]
    fn selftest_measures_the_probe_cell() {
        let r = selftest(Scale::Smoke);
        assert_eq!(r.spec, SELFTEST_CELL);
        assert!(r.refs > 0);
        assert!(r.refs_per_second() > 0.0);
    }
}
