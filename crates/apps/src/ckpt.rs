//! App-cooperative crash-safe checkpointing.
//!
//! The applications drive the simulator through host-side loops whose
//! state (indices, accumulators, the workload RNG, handle tables, the
//! relocation pool) lives outside simulated memory. A machine snapshot
//! alone therefore cannot resume a run: the host loop must cooperate. It
//! does so by calling `Checkpointer::boundary` at the top of each outer
//! iteration with a closure that serializes the *complete* host state into
//! an opaque cursor of `u64` words; the checkpointer decides — based on
//! how many demand references the machine has issued since the last
//! snapshot — whether to capture `(machine, cursor)` into one
//! [`memfwd::save_machine`] image.
//!
//! A to-file checkpointer with no explicit cadence spaces its images by
//! their cost: the next image waits until at least
//! [`DEFAULT_CHECKPOINT_EVERY`] references *and* at least as many
//! references as the previous image had bytes have been issued. Writing
//! an image costs time roughly linear in its bytes and simulating costs
//! time roughly linear in references, so this bounds image writing to a
//! small share of the run on any machine size. The rule reads only
//! reference counts and image sizes, never host time, so the images a
//! run writes are deterministic.
//!
//! Because a boundary only *reads* the machine, a checkpointed run issues
//! exactly the same simulated references as an unmonitored one: resuming
//! from any boundary reproduces the uninterrupted run's checksum **and**
//! its full `RunStats`, bit for bit. That equivalence is enforced by
//! `tests/crash_restart.rs` across every application.
//!
//! Corrupt resume images — truncated, bit-flipped, version-skewed, or
//! written under a different configuration — are rejected with
//! [`memfwd::MachineFault::CorruptSnapshot`]; a malformed cursor (host
//! words that fail validation) reports the same fault with
//! [`SnapshotError::BadValue`].

use crate::common::Rng;
use crate::registry::{AppOutput, RunConfig};
use memfwd::{Machine, MachineFault, SnapshotError};
use memfwd_tagmem::{Addr, Pool};
use std::path::PathBuf;

/// Default checkpoint cadence in demand references, used when neither the
/// checkpointer nor `SimConfig::checkpoint_every` specifies one (a to-file
/// checkpointer then also waits out the previous image's size, see the
/// module docs). It is also the heartbeat period of
/// [`Checkpointer::with_heartbeat`].
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1 << 14;

/// How a checkpointed run ended.
// `Done` carries the full stats block; keeping the enum `Copy` matters more
// to callers than the transient stack size of a value matched once.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum CkOutcome {
    /// The application ran to completion.
    Done(AppOutput),
    /// A `stop_after` checkpointer reached its target boundary; the
    /// snapshot is available via [`Checkpointer::take_captured`].
    Stopped,
}

enum Mode {
    Disabled,
    StopAfter { k: u64 },
    File { path: PathBuf },
}

/// Checkpoint policy and state for one [`crate::registry::run_ck`] call.
pub struct Checkpointer {
    mode: Mode,
    every: Option<u64>,
    cadence: u64,
    /// Whether images are also spaced by the previous image's bytes (a
    /// to-file run with no explicit cadence).
    cost_bounded: bool,
    last_image_bytes: u64,
    heartbeat: Option<Box<dyn FnMut() + Send>>,
    refs_at_beat: u64,
    resume: Option<Vec<u8>>,
    captured: Option<Vec<u8>>,
    refs_at_last: u64,
    boundaries: u64,
    run_fp: u64,
}

/// Fingerprint of the run parameters that live *outside* `SimConfig`
/// (variant, prefetching, scale, seed, threshold override). The snapshot
/// container already fingerprints the complete `SimConfig`; this word,
/// stored as the first cursor entry, extends the same guarantee to the
/// workload parameters, so resuming under a different variant or seed is
/// a typed `ConfigMismatch` instead of a silently hybrid run.
fn run_fingerprint(cfg: &RunConfig) -> u64 {
    let repr = format!(
        "{:?}|{}|{}|{:?}|{}|{:?}",
        cfg.variant, cfg.prefetch, cfg.prefetch_lines, cfg.scale, cfg.seed, cfg.linearize_threshold
    );
    memfwd::fnv1a64(repr.as_bytes())
}

impl Checkpointer {
    fn with_mode(mode: Mode) -> Checkpointer {
        Checkpointer {
            mode,
            every: None,
            cadence: DEFAULT_CHECKPOINT_EVERY,
            cost_bounded: false,
            last_image_bytes: 0,
            heartbeat: None,
            refs_at_beat: 0,
            resume: None,
            captured: None,
            refs_at_last: 0,
            boundaries: 0,
            run_fp: 0,
        }
    }

    /// Never checkpoints (the plain `run` path).
    pub fn disabled() -> Checkpointer {
        Checkpointer::with_mode(Mode::Disabled)
    }

    /// Captures the snapshot at the `k`-th boundary that fires (1-based)
    /// and stops the run — the deterministic "crash" of the restart
    /// campaigns.
    pub fn stop_after(k: u64) -> Checkpointer {
        Checkpointer::with_mode(Mode::StopAfter { k })
    }

    /// Writes every fired boundary's snapshot to `path` (atomically, via a
    /// temp file and rename) and keeps running — the CLI's
    /// `--checkpoint-dir` mode.
    pub fn to_file(path: PathBuf) -> Checkpointer {
        Checkpointer::with_mode(Mode::File { path })
    }

    /// Overrides the checkpoint cadence in demand references: a boundary
    /// fires every `refs` references, whatever the image size. Without
    /// this, `SimConfig::checkpoint_every` applies, then the default
    /// cadence (see the module docs).
    pub fn with_every(mut self, refs: u64) -> Checkpointer {
        self.every = Some(refs.max(1));
        self
    }

    /// Calls `beat` from the boundary hook every
    /// [`DEFAULT_CHECKPOINT_EVERY`] demand references, whether or not an
    /// image is written — a liveness signal that costs nothing like an
    /// image does. Works in every mode, [`Checkpointer::disabled`] included.
    pub fn with_heartbeat(mut self, beat: impl FnMut() + Send + 'static) -> Checkpointer {
        self.heartbeat = Some(Box::new(beat));
        self
    }

    /// Resumes the run from a snapshot image instead of starting fresh.
    pub fn resume_from(mut self, image: Vec<u8>) -> Checkpointer {
        self.resume = Some(image);
        self
    }

    /// The snapshot captured by a `stop_after` checkpointer, if any.
    pub fn take_captured(&mut self) -> Option<Vec<u8>> {
        self.captured.take()
    }

    /// How many checkpoint boundaries fired so far.
    pub fn boundaries_seen(&self) -> u64 {
        self.boundaries
    }

    /// Builds the machine an application starts from: a fresh one, or the
    /// restored image with its host cursor. Resolves the cadence and
    /// rebases the reference clock so a resumed run does not immediately
    /// re-checkpoint.
    pub(crate) fn begin(&mut self, cfg: &RunConfig) -> Result<(Machine, Vec<u64>), MachineFault> {
        let explicit = self.every.or(cfg.sim.checkpoint_every);
        self.cadence = explicit.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1);
        self.cost_bounded = explicit.is_none() && matches!(self.mode, Mode::File { .. });
        self.run_fp = run_fingerprint(cfg);
        match self.resume.take() {
            Some(image) => {
                let (m, mut cursor) = memfwd::restore_machine(&image, cfg.sim)
                    .map_err(|error| MachineFault::CorruptSnapshot { error })?;
                // The first cursor word is the run-parameter fingerprint
                // written at capture time; a snapshot from a different
                // variant/seed/scale must not be continued.
                if cursor.first() != Some(&self.run_fp) {
                    return Err(MachineFault::CorruptSnapshot {
                        error: SnapshotError::ConfigMismatch,
                    });
                }
                cursor.remove(0);
                self.refs_at_last = refs_of(&m);
                self.refs_at_beat = self.refs_at_last;
                self.last_image_bytes = image.len() as u64;
                Ok((m, cursor))
            }
            None => {
                self.refs_at_last = 0;
                self.refs_at_beat = 0;
                self.last_image_bytes = 0;
                Ok((Machine::new(cfg.sim), Vec::new()))
            }
        }
    }

    /// A checkpoint boundary: all host state is reconstructible from
    /// `cursor()`'s words. Returns `Ok(true)` when the application must
    /// stop (a `stop_after` crash point was reached).
    pub(crate) fn boundary(
        &mut self,
        m: &Machine,
        cursor: impl FnOnce() -> Vec<u64>,
    ) -> Result<bool, MachineFault> {
        let refs = refs_of(m);
        if let Some(beat) = &mut self.heartbeat {
            if refs.saturating_sub(self.refs_at_beat) >= DEFAULT_CHECKPOINT_EVERY {
                self.refs_at_beat = refs;
                beat();
            }
        }
        if matches!(self.mode, Mode::Disabled) {
            return Ok(false);
        }
        let spacing = if self.cost_bounded {
            self.cadence.max(self.last_image_bytes)
        } else {
            self.cadence
        };
        if refs.saturating_sub(self.refs_at_last) < spacing {
            return Ok(false);
        }
        self.refs_at_last = refs;
        self.boundaries += 1;
        match &self.mode {
            Mode::StopAfter { k } => {
                if self.boundaries >= *k {
                    self.captured = Some(memfwd::save_machine(m, &self.stamped(cursor())));
                    return Ok(true);
                }
            }
            Mode::File { path } => {
                let image = memfwd::save_machine(m, &self.stamped(cursor()));
                memfwd::write_snapshot_file(path, &image)
                    .map_err(|error| MachineFault::CorruptSnapshot { error })?;
                self.last_image_bytes = image.len() as u64;
            }
            Mode::Disabled => {}
        }
        Ok(false)
    }

    /// Prepends the run-parameter fingerprint to an application cursor.
    fn stamped(&self, cursor: Vec<u64>) -> Vec<u64> {
        let mut words = Vec::with_capacity(cursor.len() + 1);
        words.push(self.run_fp);
        words.extend(cursor);
        words
    }
}

fn refs_of(m: &Machine) -> u64 {
    let s = m.fwd_stats();
    s.loads + s.stores
}

/// The typed fault for a cursor that fails validation on resume.
pub(crate) fn bad_cursor() -> MachineFault {
    MachineFault::CorruptSnapshot {
        error: SnapshotError::BadValue,
    }
}

/// Appends a length-prefixed address vector to a cursor.
pub(crate) fn push_addr_vec(out: &mut Vec<u64>, addrs: &[Addr]) {
    out.push(addrs.len() as u64);
    out.extend(addrs.iter().map(|a| a.0));
}

/// Total reader over a cursor's words; every getter fails with
/// [`bad_cursor`] instead of panicking on malformed input.
pub(crate) struct CursorR<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> CursorR<'a> {
    pub(crate) fn new(words: &'a [u64]) -> CursorR<'a> {
        CursorR { words, pos: 0 }
    }

    pub(crate) fn u64(&mut self) -> Result<u64, MachineFault> {
        let w = *self.words.get(self.pos).ok_or_else(bad_cursor)?;
        self.pos += 1;
        Ok(w)
    }

    pub(crate) fn addr(&mut self) -> Result<Addr, MachineFault> {
        Ok(Addr(self.u64()?))
    }

    pub(crate) fn rng(&mut self) -> Result<Rng, MachineFault> {
        Ok(Rng::from_state(self.u64()?))
    }

    pub(crate) fn addr_vec(&mut self) -> Result<Vec<Addr>, MachineFault> {
        let n = self.u64()? as usize;
        if n > self.words.len() - self.pos {
            return Err(bad_cursor());
        }
        (0..n).map(|_| self.addr()).collect()
    }

    pub(crate) fn pool(&mut self) -> Result<Pool, MachineFault> {
        let (pool, consumed) =
            Pool::decode_words(&self.words[self.pos..]).ok_or_else(bad_cursor)?;
        self.pos += consumed;
        Ok(pool)
    }

    /// Declares the cursor fully read; leftover words mean corruption.
    pub(crate) fn finish(self) -> Result<(), MachineFault> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(bad_cursor())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_round_trip() {
        let mut w = vec![7u64, 9];
        push_addr_vec(&mut w, &[Addr(64), Addr(128)]);
        let pool = Pool::new(4096);
        pool.encode_words(&mut w);
        let mut c = CursorR::new(&w);
        assert_eq!(c.u64().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), 9);
        assert_eq!(c.addr_vec().unwrap(), vec![Addr(64), Addr(128)]);
        let _ = c.pool().unwrap();
        c.finish().unwrap();
    }

    #[test]
    fn truncated_cursor_is_typed() {
        let mut c = CursorR::new(&[]);
        assert!(matches!(
            c.u64(),
            Err(MachineFault::CorruptSnapshot {
                error: SnapshotError::BadValue
            })
        ));
    }

    #[test]
    fn oversized_vector_length_is_rejected_without_allocating() {
        let w = [u64::MAX, 1];
        let mut c = CursorR::new(&w);
        assert!(c.addr_vec().is_err());
    }

    #[test]
    fn leftover_words_are_rejected() {
        let w = [1u64, 2];
        let mut c = CursorR::new(&w);
        c.u64().unwrap();
        assert!(c.finish().is_err());
    }

    #[test]
    fn rng_state_round_trip() {
        let mut r = Rng::new(42);
        let _ = r.next_u64();
        let mut twin = Rng::from_state(r.state());
        assert_eq!(r.next_u64(), twin.next_u64());
    }
}
