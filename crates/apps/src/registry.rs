//! The application registry: one entry per evaluated program (paper
//! Table 1), with a uniform run interface used by tests, examples and the
//! benchmark harness.

use crate::ckpt::{Checkpointer, CkOutcome};
use memfwd::{MachineFault, RunStats, SimConfig};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The eight applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Olden `health`: hierarchical health-care simulation over village
    /// patient lists.
    Health,
    /// Olden `mst`: minimum spanning tree over hash-bucket adjacency lists.
    Mst,
    /// Hierarchical radiosity: per-patch interaction lists under
    /// refinement.
    Radiosity,
    /// VIS: a generic list library with counter-triggered linearization.
    Vis,
    /// SPEC `eqntott`: hash table of PTERM records with integer arrays.
    Eqntott,
    /// Barnes–Hut N-body: octree built depth-first, traversed randomly.
    Bh,
    /// SPEC `compress`: LZW with parallel `htab`/`codetab` hash tables.
    Compress,
    /// SMV model checker: BDD nodes reached through both a hash table and
    /// tree pointers — the one application with real forwarding.
    Smv,
}

impl App {
    /// All applications, in the paper's presentation order.
    pub const ALL: [App; 8] = [
        App::Health,
        App::Mst,
        App::Radiosity,
        App::Vis,
        App::Eqntott,
        App::Bh,
        App::Compress,
        App::Smv,
    ];

    /// The seven applications of Fig. 5 (SMV is reported separately in
    /// Fig. 10).
    pub const FIG5: [App; 7] = [
        App::Health,
        App::Mst,
        App::Radiosity,
        App::Vis,
        App::Eqntott,
        App::Bh,
        App::Compress,
    ];

    /// Lower-case name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            App::Health => "health",
            App::Mst => "mst",
            App::Radiosity => "radiosity",
            App::Vis => "vis",
            App::Eqntott => "eqntott",
            App::Bh => "bh",
            App::Compress => "compress",
            App::Smv => "smv",
        }
    }

    /// Parses a lower-case application name (the inverse of [`App::name`]).
    pub fn from_name(name: &str) -> Option<App> {
        App::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The locality optimization applied in the optimized variant
    /// (Table 1's "Optimization" column).
    pub fn optimization(self) -> &'static str {
        match self {
            App::Health | App::Mst | App::Radiosity | App::Vis => "list linearization",
            App::Eqntott => "hash-chunk packing",
            App::Bh => "subtree clustering",
            App::Compress => "table merging",
            App::Smv => "hash-list linearization (tree pointers not updated)",
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which data layout the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// The original layout; no relocation is performed (the paper's `N`).
    #[default]
    Original,
    /// The relocation-based locality optimization is applied (the paper's
    /// `L`; with `SimConfig::perfect_forwarding` it becomes `Perf`).
    Optimized,
    /// *Static placement* (paper §1): objects are assigned their optimized
    /// addresses when they are **created** — no relocation, no forwarding.
    /// Simple, but unable to adapt to dynamic behaviour; supported by the
    /// applications whose layout can be chosen up front (health, vis,
    /// eqntott), and equivalent to `Original` elsewhere.
    Static,
}

impl Variant {
    /// Lower-case name for CLI / report use.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Original => "original",
            Variant::Optimized => "optimized",
            Variant::Static => "static",
        }
    }

    /// Parses a lower-case variant name (the inverse of [`Variant::name`]).
    pub fn from_name(name: &str) -> Option<Variant> {
        [Variant::Original, Variant::Optimized, Variant::Static]
            .into_iter()
            .find(|v| v.name() == name)
    }
}

/// Workload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests (sub-second, all variants).
    Smoke,
    /// Inputs whose working sets exceed the simulated L2, used by the
    /// benchmark harness to regenerate the paper's figures.
    #[default]
    Bench,
}

impl Scale {
    /// Lower-case name for CLI / report use.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Bench => "bench",
        }
    }

    /// Parses a lower-case scale name (the inverse of [`Scale::name`]).
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Smoke, Scale::Bench]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// One run request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Machine configuration.
    pub sim: SimConfig,
    /// Data-layout variant.
    pub variant: Variant,
    /// Insert software prefetches (the paper's `NP`/`LP` cases).
    pub prefetch: bool,
    /// Block-prefetch size in cache lines (the paper reports the best block
    /// size per case).
    pub prefetch_lines: u64,
    /// Workload size.
    pub scale: Scale,
    /// Workload seed (identical seeds must yield identical checksums across
    /// variants — that is the safety property).
    pub seed: u64,
    /// Overrides the app's linearization-trigger threshold (mutations per
    /// list before the optimized variant linearizes). `None` uses the
    /// application default; used by the threshold ablation.
    pub linearize_threshold: Option<u64>,
}

impl RunConfig {
    /// A default configuration for the given variant.
    pub fn new(variant: Variant) -> RunConfig {
        RunConfig {
            sim: SimConfig::default(),
            variant,
            prefetch: false,
            prefetch_lines: 2,
            scale: Scale::default(),
            seed: 12345,
            linearize_threshold: None,
        }
    }

    /// Returns a copy at smoke scale (for tests).
    pub fn smoke(mut self) -> RunConfig {
        self.scale = Scale::Smoke;
        self
    }

    /// Returns a copy with prefetching enabled.
    pub fn with_prefetch(mut self, lines: u64) -> RunConfig {
        self.prefetch = true;
        self.prefetch_lines = lines;
        self
    }
}

/// Result of one application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppOutput {
    /// A layout-independent digest of the computation's results. Equal
    /// checksums across variants demonstrate that relocation was safe.
    pub checksum: u64,
    /// Full simulator statistics.
    pub stats: RunStats,
}

thread_local! {
    /// True while `run` is catching machine-fault unwinds on this thread;
    /// the wrapped panic hook stays silent for those.
    static CAPTURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the process panic hook (once) so that panics raised by the
/// machine's infallible API while `run` is converting them to typed faults
/// do not spray backtraces over the output. Panics outside a capture window
/// are reported by the previous hook unchanged.
fn install_silent_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(|c| c.get()) {
                previous(info);
            }
        }));
    });
}

/// Runs an application.
///
/// Applications execute on the machine's infallible API (a fault aborts the
/// simulated program, paper §3.2); `run` converts such aborts into the
/// precise typed [`MachineFault`] so harnesses — the CLI, the corruption
/// campaigns — can report recover-or-abort outcomes without ever seeing a
/// silent divergence. Panics that are *not* machine faults (genuine bugs)
/// are propagated unchanged.
///
/// # Errors
///
/// The [`MachineFault`] that aborted the simulated program, if one did.
pub fn run(app: App, cfg: &RunConfig) -> Result<AppOutput, MachineFault> {
    match run_ck(app, cfg, &mut Checkpointer::disabled())? {
        CkOutcome::Done(out) => Ok(out),
        CkOutcome::Stopped => unreachable!("a disabled checkpointer never stops a run"),
    }
}

/// Runs an application under a checkpoint policy (see [`Checkpointer`]).
///
/// With [`Checkpointer::disabled`] this is exactly [`run`]. A checkpointed
/// or resumed run issues the identical simulated reference stream — the
/// boundaries only *read* the machine — so any stop/resume split
/// reproduces the uninterrupted run's checksum and `RunStats` bit for bit.
///
/// # Errors
///
/// The [`MachineFault`] that aborted the simulated program, including
/// [`MachineFault::CorruptSnapshot`] for a rejected resume image or a
/// failed checkpoint write.
pub fn run_ck(app: App, cfg: &RunConfig, ck: &mut Checkpointer) -> Result<CkOutcome, MachineFault> {
    install_silent_hook();
    // Clear any stale record so an unrelated earlier fault cannot be
    // misattributed to this run.
    let _ = memfwd::take_last_fault();
    CAPTURING.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| match app {
        App::Health => crate::health::run_ck(cfg, ck),
        App::Mst => crate::mst::run_ck(cfg, ck),
        App::Radiosity => crate::radiosity::run_ck(cfg, ck),
        App::Vis => crate::vis::run_ck(cfg, ck),
        App::Eqntott => crate::eqntott::run_ck(cfg, ck),
        App::Bh => crate::bh::run_ck(cfg, ck),
        App::Compress => crate::compress::run_ck(cfg, ck),
        App::Smv => crate::smv::run_ck(cfg, ck),
    }));
    CAPTURING.with(|c| c.set(false));
    match result {
        Ok(out) => out,
        Err(payload) => match memfwd::take_last_fault() {
            Some(fault) => Err(fault),
            None => resume_unwind(payload),
        },
    }
}

/// Unwraps a checkpoint-capable run for the legacy infallible per-app
/// `run` entry points (always called with a disabled checkpointer): a
/// fault re-enters the record-and-panic protocol that the [`run`] wrapper
/// converts back into a typed error.
pub(crate) fn unwrap_uncheckpointed(r: Result<CkOutcome, MachineFault>) -> AppOutput {
    match r {
        Ok(CkOutcome::Done(out)) => out,
        Ok(CkOutcome::Stopped) => unreachable!("a disabled checkpointer never stops a run"),
        Err(fault) => {
            memfwd::record_last_fault(fault);
            panic!("{fault}");
        }
    }
}

/// Runs an application that is expected to complete, panicking on any
/// machine fault.
///
/// Thin wrapper over [`run`] for harnesses — tests, benchmarks, examples —
/// whose workloads are known-good and where a fault is a harness bug, not
/// an outcome to report.
///
/// # Panics
///
/// Panics if the run aborts with a [`MachineFault`].
pub fn run_ok(app: App, cfg: &RunConfig) -> AppOutput {
    match run(app, cfg) {
        Ok(out) => out,
        Err(fault) => panic!("{app} aborted with a machine fault: {fault}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_metadata() {
        assert_eq!(App::ALL.len(), 8);
        assert_eq!(App::FIG5.len(), 7);
        for app in App::ALL {
            assert!(!app.name().is_empty());
            assert!(!app.optimization().is_empty());
            assert_eq!(format!("{app}"), app.name());
        }
        assert!(!App::FIG5.contains(&App::Smv));
        for scale in [Scale::Smoke, Scale::Bench] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn run_config_builders() {
        let c = RunConfig::new(Variant::Optimized).smoke().with_prefetch(4);
        assert_eq!(c.variant, Variant::Optimized);
        assert_eq!(c.scale, Scale::Smoke);
        assert!(c.prefetch);
        assert_eq!(c.prefetch_lines, 4);
    }
}
