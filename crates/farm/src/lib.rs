//! Fault-tolerant sweep farm: one campaign engine for sweeps, supervised
//! campaigns and service jobs.
//!
//! The paper's thesis is that relocation is safe because every failure
//! mode of a moved object is intercepted and repaired; this crate holds
//! the sweep infrastructure to the same standard. A *campaign* — the grid
//! expansion of a [`sweep::SweepSpec`], run by [`supervisor::run_campaign`]
//! on the [`pool::par_map`] worker pool — survives any single-cell failure:
//!
//! - **Isolation** ([`supervisor`]): cells run in out-of-process workers
//!   (a re-exec of the `memfwd_sweep` binary in its hidden `--worker-cell`
//!   mode), so a panic, abort, OOM kill, or SIGKILL is confined to one
//!   cell. A deadline monitor with PR-2 watchdog-style *no-progress*
//!   semantics kills wedged workers: the clock rearms on every heartbeat
//!   byte the worker writes to its stdout, so a slow-but-alive cell is
//!   never shot while a hung one always is.
//! - **Retry** ([`supervisor::FarmOptions`]): failed cells are retried
//!   with seeded-deterministic exponential backoff up to a budget, then
//!   quarantined as typed [`sweep::CellOutcome::Poisoned`] (or
//!   [`sweep::CellOutcome::TimedOut`]) holes — the campaign never aborts.
//! - **Durability** ([`journal`]): every terminal cell outcome is
//!   appended to a checksummed journal, rewritten atomically (tmp +
//!   rename, like PR-2 snapshots) so the file on disk is always a sealed,
//!   self-validating image. A SIGKILLed supervisor resumes with
//!   `--resume` and recomputes only unfinished cells; long cells restart
//!   from their last worker checkpoint instead of from zero.
//!
//! The completed cells of a degraded campaign are bit-identical — same
//! checksum, same `RunStats` — to a clean run at any `--jobs`, which is
//! what makes graceful degradation *useful*: a report with k typed holes
//! is still a valid sample of the golden report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod journal;
pub mod minijson;
pub mod pool;
pub mod supervisor;
pub mod sweep;
pub mod worker;

pub use journal::{campaign_fingerprint, cell_key, Journal, JournalError, JournalRecord};
pub use supervisor::{
    run_campaign, Attempt, CampaignRun, CellCtx, CellRunner, ChaosSpec, FarmOptions,
    InProcessRunner, SubprocessRunner,
};
pub use sweep::{run_sweep, CellOutcome, CellReport, CellResult, CellSpec, SweepReport, SweepSpec};
pub use worker::{parse_worker_args, run_worker_cell, WorkerArgs};
