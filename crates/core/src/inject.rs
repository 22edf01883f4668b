//! Deterministic, seeded fault injection.
//!
//! The paper's central claim is *safety*: no matter how memory is laid out —
//! or mangled — an access either reaches the right data, traps to a handler
//! that can repair the damage, or aborts with a precise exception. This
//! module provides the adversary for that claim: a deterministic corruption
//! engine that flips forwarding bits, scrambles chain words, and fails
//! allocations with configured probabilities, driven by a seeded
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream so every
//! campaign is exactly reproducible.
//!
//! Wire it in with [`crate::SimConfig::fault_injection`]; the machine then
//! consults the [`Injector`] at the head of every demand access. Injected
//! corruption is logged with the overwritten value so a recovery handler
//! (or the machine's built-in auto-repair, when [`InjectConfig::recover`]
//! is set) can undo it with `Unforwarded_Write` — exactly the paper-§3.2
//! repair story, exercised under fire.

use memfwd_tagmem::{Addr, TaggedMemory};

/// Probabilities are fixed-point parts-per-million so [`InjectConfig`] can
/// stay `Copy + Eq + Hash` alongside the rest of [`crate::SimConfig`].
pub const PPM: u32 = 1_000_000;

/// Configuration of the deterministic fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectConfig {
    /// Seed of the splitmix64 stream; equal seeds replay identical
    /// campaigns down to the cycle.
    pub seed: u64,
    /// Probability (parts per million) that a demand access has the
    /// forwarding bit of its target word flipped on before resolution.
    pub fbit_flip_ppm: u32,
    /// Probability (ppm) that a demand access first has its target word
    /// turned into a forwarding self-loop — a guaranteed-detectable cycle.
    pub chain_scramble_ppm: u32,
    /// Probability (ppm) that an allocation request is forced to report
    /// heap exhaustion.
    pub alloc_fail_ppm: u32,
    /// When set, the machine repairs each injected corruption from the
    /// corruption log (charging handler cycles) as soon as the victim
    /// access detects it, and retries. When clear, corruption is left in
    /// place and surfaces as a typed fault or a forwarded read of the
    /// scrambled word.
    pub recover: bool,
    /// Hard cap on the number of injections for the whole run; 0 means
    /// unlimited.
    pub max_injections: u64,
}

impl Default for InjectConfig {
    fn default() -> Self {
        InjectConfig {
            seed: 0x5eed_f417,
            fbit_flip_ppm: 0,
            chain_scramble_ppm: 0,
            alloc_fail_ppm: 0,
            recover: true,
            max_injections: 0,
        }
    }
}

/// What a single injection did, for the corruption log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// The word's forwarding bit was flipped on (its data became a bogus
    /// forwarding address).
    FbitFlip,
    /// The word was overwritten with a forwarding self-loop.
    ChainScramble,
}

/// One logged corruption: enough state to undo it with `Unforwarded_Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// The corrupted word (word-aligned).
    pub word: Addr,
    /// The word's value before corruption.
    pub saved_value: u64,
    /// The word's forwarding bit before corruption.
    pub saved_fbit: bool,
    /// What was done to it.
    pub kind: InjectKind,
}

/// The seeded corruption engine. Owned by the machine when
/// [`crate::SimConfig::fault_injection`] is set.
#[derive(Debug, Clone)]
pub struct Injector {
    cfg: InjectConfig,
    state: u64,
    injected: u64,
    /// Corruptions not yet repaired, newest last.
    pub log: Vec<Corruption>,
}

/// One step of the [splitmix64](https://prng.di.unimi.it/splitmix64.c)
/// generator: advances `state` and returns the next output. Shared by the
/// fault injector and the farm's retry-backoff jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Injector {
    /// Creates an injector replaying the campaign described by `cfg`.
    pub fn new(cfg: InjectConfig) -> Self {
        Injector {
            cfg,
            state: cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
            injected: 0,
            log: Vec::new(),
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> InjectConfig {
        self.cfg
    }

    /// Total injections performed so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn budget_left(&self) -> bool {
        self.cfg.max_injections == 0 || self.injected < self.cfg.max_injections
    }

    fn roll(&mut self, ppm: u32) -> bool {
        if ppm == 0 || !self.budget_left() {
            return false;
        }
        (splitmix64(&mut self.state) % PPM as u64) < ppm as u64
    }

    /// Decides whether this demand access should have its target word's
    /// forwarding bit flipped. Advances the RNG deterministically.
    pub fn roll_fbit_flip(&mut self) -> bool {
        let hit = self.roll(self.cfg.fbit_flip_ppm);
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// Decides whether this demand access should have its target word
    /// scrambled into a self-loop. Advances the RNG deterministically.
    pub fn roll_chain_scramble(&mut self) -> bool {
        let hit = self.roll(self.cfg.chain_scramble_ppm);
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// Decides whether this allocation should be forced to fail.
    pub fn roll_alloc_fail(&mut self) -> bool {
        let hit = self.roll(self.cfg.alloc_fail_ppm);
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// One injection opportunity at the head of a demand access to `addr`:
    /// rolls a chain scramble, then (if that missed) an fbit flip, and on a
    /// hit corrupts `addr`'s word in `mem` and logs the overwritten value
    /// for recovery. Returns whether a corruption was injected. A hit on
    /// the null word consumes its roll but corrupts nothing.
    pub(crate) fn strike(&mut self, mem: &mut TaggedMemory, addr: Addr) -> bool {
        let kind = if self.roll_chain_scramble() {
            InjectKind::ChainScramble
        } else if self.roll_fbit_flip() {
            InjectKind::FbitFlip
        } else {
            return false;
        };
        let word = addr.word_base();
        if word.is_null() {
            return false;
        }
        let (saved_value, saved_fbit) = mem.unforwarded_read(word);
        match kind {
            // A forwarding self-loop: guaranteed to be caught by the
            // accurate cycle check — a typed, never-silent corruption.
            InjectKind::ChainScramble => mem.unforwarded_write(word, word.0, true),
            InjectKind::FbitFlip => mem.set_fbit(word, true),
        }
        self.record(Corruption {
            word,
            saved_value,
            saved_fbit,
            kind,
        });
        true
    }

    /// Records a corruption so recovery can undo it later.
    pub fn record(&mut self, c: Corruption) {
        self.log.push(c);
    }

    /// Drains the corruption log (used by the machine's auto-repair).
    pub fn drain_log(&mut self) -> Vec<Corruption> {
        std::mem::take(&mut self.log)
    }

    /// Serializes the injector's mutable state (RNG position, injection
    /// count, unrepaired-corruption log). The campaign configuration is
    /// *not* encoded: snapshots carry a configuration fingerprint instead,
    /// and [`Injector::snapshot_decode`] takes the config as a parameter.
    pub fn snapshot_encode(&self, enc: &mut memfwd_tagmem::SnapEncoder) {
        enc.u64(self.state);
        enc.u64(self.injected);
        enc.seq(self.log.iter(), |e, c| {
            e.addr(c.word);
            e.u64(c.saved_value);
            e.bool(c.saved_fbit);
            e.u8(match c.kind {
                InjectKind::FbitFlip => 0,
                InjectKind::ChainScramble => 1,
            });
        });
    }

    /// Rebuilds an injector written by [`Injector::snapshot_encode`],
    /// resuming the campaign `cfg` exactly where the snapshot left it.
    pub fn snapshot_decode(
        dec: &mut memfwd_tagmem::SnapDecoder<'_>,
        cfg: InjectConfig,
    ) -> Result<Injector, memfwd_tagmem::SnapCodecError> {
        let state = dec.u64()?;
        let injected = dec.u64()?;
        let n = dec.seq_len(18)?;
        let mut log = Vec::with_capacity(n);
        for _ in 0..n {
            let word = dec.addr()?;
            let saved_value = dec.u64()?;
            let saved_fbit = dec.bool()?;
            let kind = match dec.u8()? {
                0 => InjectKind::FbitFlip,
                1 => InjectKind::ChainScramble,
                _ => return Err(memfwd_tagmem::SnapCodecError::BadValue),
            };
            log.push(Corruption {
                word,
                saved_value,
                saved_fbit,
                kind,
            });
        }
        Ok(Injector {
            cfg,
            state,
            injected,
            log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = InjectConfig {
            fbit_flip_ppm: 500_000,
            ..InjectConfig::default()
        };
        let mut a = Injector::new(cfg);
        let mut b = Injector::new(cfg);
        let seq_a: Vec<bool> = (0..64).map(|_| a.roll_fbit_flip()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.roll_fbit_flip()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&h| h), "p=0.5 over 64 rolls must hit");
        assert!(!seq_a.iter().all(|&h| h), "p=0.5 over 64 rolls must miss");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Injector::new(InjectConfig {
            seed: 1,
            fbit_flip_ppm: 500_000,
            ..InjectConfig::default()
        });
        let mut b = Injector::new(InjectConfig {
            seed: 2,
            fbit_flip_ppm: 500_000,
            ..InjectConfig::default()
        });
        let seq_a: Vec<bool> = (0..256).map(|_| a.roll_fbit_flip()).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.roll_fbit_flip()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut inj = Injector::new(InjectConfig::default());
        for _ in 0..1000 {
            assert!(!inj.roll_fbit_flip());
            assert!(!inj.roll_chain_scramble());
            assert!(!inj.roll_alloc_fail());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn max_injections_caps_campaign() {
        let mut inj = Injector::new(InjectConfig {
            fbit_flip_ppm: PPM, // always fire
            max_injections: 3,
            ..InjectConfig::default()
        });
        let hits: u64 = (0..100).map(|_| inj.roll_fbit_flip() as u64).sum();
        assert_eq!(hits, 3);
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn log_records_and_drains() {
        let mut inj = Injector::new(InjectConfig::default());
        inj.record(Corruption {
            word: Addr(0x100),
            saved_value: 7,
            saved_fbit: false,
            kind: InjectKind::FbitFlip,
        });
        assert_eq!(inj.log.len(), 1);
        let drained = inj.drain_log();
        assert_eq!(drained.len(), 1);
        assert!(inj.log.is_empty());
        assert_eq!(drained[0].word, Addr(0x100));
    }
}
