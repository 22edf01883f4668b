//! Checkpoint/resume split property suite.
//!
//! A run split at a random reference cadence — stopped at its first
//! checkpoint boundary, then resumed from the captured snapshot — must
//! finish with the same checksum and the same statistics, down to every
//! counter, as the uninterrupted run. The properties drive a random
//! app × seed × cadence grid and compare the complete `RunStats` debug
//! rendering (the statdump's source of truth), so the identity is proven
//! at snapshot boundaries that fall anywhere in a run, not only at the
//! fixed cadences the crash-restart campaign uses.

use memfwd_apps::{run_ck, run_ok, App, Checkpointer, CkOutcome, RunConfig, Variant};
use proptest::prelude::*;

fn config(variant: Variant, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(variant).smoke();
    cfg.seed = seed;
    cfg
}

/// Runs to completion and renders the full statistics block — every
/// counter the statdump prints derives from this.
fn full_run(app: App, cfg: &RunConfig) -> (u64, String) {
    let out = run_ok(app, cfg);
    (out.checksum, format!("{:?}", out.stats))
}

/// Runs with a `stop_after(1)` checkpointer at `cadence` refs, then
/// resumes the captured snapshot to completion. Falls back to the
/// uninterrupted result when the run finishes before the first boundary
/// fires (short app × large cadence — still a valid case).
fn split_run(app: App, cfg: &RunConfig, cadence: u64) -> (u64, String) {
    let mut ck = Checkpointer::stop_after(1).with_every(cadence);
    match run_ck(app, cfg, &mut ck).expect("split run faulted") {
        CkOutcome::Done(out) => (out.checksum, format!("{:?}", out.stats)),
        CkOutcome::Stopped => {
            let image = ck.take_captured().expect("stopped run captured a snapshot");
            let mut resumed = Checkpointer::disabled().resume_from(image);
            match run_ck(app, cfg, &mut resumed).expect("resumed run faulted") {
                CkOutcome::Done(out) => (out.checksum, format!("{:?}", out.stats)),
                CkOutcome::Stopped => unreachable!("disabled checkpointer never stops"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A run split at a random reference cadence finishes with the same
    /// checksum and statistics as the uninterrupted run.
    #[test]
    fn split_runs_match_whole_runs(
        app_idx in 0usize..8,
        variant in prop_oneof![
            Just(Variant::Original),
            Just(Variant::Optimized),
            Just(Variant::Static),
        ],
        seed in 1u64..100_000,
        cadence in 2_000u64..60_000,
    ) {
        let app = App::ALL[app_idx];
        let cfg = config(variant, seed);
        let whole = full_run(app, &cfg);
        let split = split_run(app, &cfg, cadence);
        prop_assert_eq!(
            &whole, &split,
            "{} {:?} seed {} cadence {}: split run diverged",
            app.name(), variant, seed, cadence
        );
    }
}
