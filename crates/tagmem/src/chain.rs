//! Forwarding-chain resolution.
//!
//! When a memory word is accessed, its forwarding bit is tested; if set, the
//! word's contents replace the access address (plus the byte offset within
//! the word) and the access is relaunched. This repeats until a clear
//! forwarding bit is found (paper §3.2).
//!
//! Every walk in the simulator — these functions, the machines' timed
//! demand walks, `free`, `relocate` and pointer comparison — counts its
//! hops through one [`HopGuard`]: the hardware hop counter plus the
//! accurate software cycle check that its overflow switches on. A chain
//! therefore ends in the same [`CycleError`] whichever walk follows it,
//! and no walk can loop forever.
//!
//! The guard is **allocation-free** in the common case: the accurate check
//! only engages after a hop-limit exception, and when it does it records
//! visited words in a caller-owned scratch `Vec` instead of building a
//! fresh hash set per walk. Chains short enough to pass the accurate check
//! are tiny, so a linear `contains` scan over the scratch beats hashing.

use crate::error::CycleError;
use crate::memory::TaggedMemory;
use crate::word::Addr;

/// Default hardware hop-limit: how many forwarding hops an access may take
/// before the hop counter raises an exception and the accurate software
/// cycle check engages (paper §3.2). Shared by [`resolve_unbounded`] and the
/// core simulator's `SimConfig::hop_limit` default. The limit never changes
/// whether a resolution succeeds or where it lands — only when the cycle
/// check switches on — so any positive value is functionally equivalent.
pub const DEFAULT_HOP_LIMIT: u32 = 8;

/// The §3.2 hop counter and accurate cycle check for one chain walk.
///
/// The walker reads each forwarding word itself (with whatever timing it
/// models) and reports every hop to [`HopGuard::step`]. Until the count
/// exceeds the hop limit the guard only counts. The hop that overflows it
/// raises the hop-limit exception: the accurate check engages and, from
/// then on, remembers every word the walk visits in the caller's scratch
/// buffer. A genuine cycle must revisit one of them; a long acyclic chain
/// (a false alarm) simply runs to its terminal.
///
/// ```
/// use memfwd_tagmem::{Addr, HopGuard};
/// let mut scratch = Vec::new();
/// let mut guard = HopGuard::new(1, &mut scratch);
/// assert_eq!(guard.step(Addr(0x10), Addr(0x20)), Ok(false));
/// assert_eq!(guard.step(Addr(0x20), Addr(0x10)), Ok(true)); // engaged
/// assert!(guard.step(Addr(0x10), Addr(0x20)).is_err()); // revisit
/// ```
#[derive(Debug)]
pub struct HopGuard<'s> {
    limit: u32,
    hops: u32,
    checking: bool,
    seen: &'s mut Vec<Addr>,
}

impl<'s> HopGuard<'s> {
    /// A guard for one walk with hardware hop limit `hop_limit`. `scratch`
    /// is only written once the accurate check engages; its contents
    /// between walks are meaningless.
    #[inline]
    pub fn new(hop_limit: u32, scratch: &'s mut Vec<Addr>) -> Self {
        HopGuard {
            limit: hop_limit,
            hops: 0,
            checking: false,
            seen: scratch,
        }
    }

    /// Hops counted so far.
    #[inline]
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Counts the hop from forwarding word `cur` to word `next` (both word
    /// bases). Returns `Ok(true)` when this hop overflowed the hop counter
    /// and the accurate check has just engaged — the point at which a timed
    /// walker charges the exception.
    ///
    /// Once engaged the check stays on for the rest of the walk, so the
    /// hop count doubles as the overflow counter.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when `next` is a word the accurate check has
    /// already seen on this walk.
    #[inline]
    pub fn step(&mut self, cur: Addr, next: Addr) -> Result<bool, CycleError> {
        self.hops += 1;
        if self.checking {
            if self.seen.contains(&next) {
                return Err(CycleError {
                    at: next,
                    hops: self.hops,
                });
            }
            self.seen.push(next);
            Ok(false)
        } else if self.hops > self.limit {
            self.seen.clear();
            self.seen.push(cur);
            self.seen.push(next);
            self.checking = true;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// Outcome of resolving an initial address to its final address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The final address: where the data actually lives.
    pub final_addr: Addr,
    /// Number of forwarding hops performed (0 for a non-forwarded access).
    pub hops: u32,
}

impl Resolution {
    /// True if the access was forwarded at least once.
    pub fn forwarded(&self) -> bool {
        self.hops > 0
    }
}

/// Resolves `addr` through any forwarding chain to its final address.
///
/// `hop_limit` models the hardware hop counter: when the number of hops
/// exceeds the limit, an exception is raised and an accurate cycle check is
/// performed in software (see [`HopGuard`]). A false alarm (a genuinely
/// long chain) runs on to its terminal; a real cycle aborts with
/// [`CycleError`].
///
/// # Errors
///
/// Returns [`CycleError`] if the chain revisits a word it already traversed.
///
/// # Example
///
/// ```
/// use memfwd_tagmem::{Addr, TaggedMemory, resolve};
/// let mut mem = TaggedMemory::new();
/// mem.unforwarded_write(Addr(0x10), 0x20, true);
/// mem.unforwarded_write(Addr(0x20), 0x30, true);
/// let r = resolve(&mem, Addr(0x14), 64)?;
/// assert_eq!(r.final_addr, Addr(0x34));
/// assert_eq!(r.hops, 2);
/// # Ok::<(), memfwd_tagmem::CycleError>(())
/// ```
pub fn resolve(mem: &TaggedMemory, addr: Addr, hop_limit: u32) -> Result<Resolution, CycleError> {
    let mut scratch = Vec::new();
    resolve_with_scratch(mem, addr, hop_limit, &mut scratch)
}

/// [`resolve`] with a caller-held scratch buffer for the cycle check, so hot
/// loops resolving many addresses perform no heap allocation at all.
///
/// The scratch's contents between calls are meaningless. It is only
/// written after a hop-limit exception engages the accurate check (see
/// [`HopGuard`]), so for chains within `hop_limit` it stays untouched.
///
/// # Errors
///
/// Returns [`CycleError`] if the chain revisits a word it already traversed.
pub fn resolve_with_scratch(
    mem: &TaggedMemory,
    addr: Addr,
    hop_limit: u32,
    scratch: &mut Vec<Addr>,
) -> Result<Resolution, CycleError> {
    let offset = addr.word_offset();
    let mut word = addr.word_base();
    let mut guard = HopGuard::new(hop_limit, scratch);
    loop {
        let (fwd, fbit) = mem.read_word_tagged(word);
        if !fbit {
            break;
        }
        let next = Addr(fwd).word_base();
        guard.step(word, next)?;
        word = next;
    }
    Ok(Resolution {
        final_addr: word + offset,
        hops: guard.hops(),
    })
}

/// Resolves with the [`DEFAULT_HOP_LIMIT`]. Convenience for callers that do
/// not model the hardware counter. (The limit only controls when the
/// accurate cycle check engages — it never changes where a chain lands.)
///
/// # Errors
///
/// Returns [`CycleError`] on a genuine forwarding cycle.
pub fn resolve_unbounded(mem: &TaggedMemory, addr: Addr) -> Result<Resolution, CycleError> {
    resolve(mem, addr, DEFAULT_HOP_LIMIT)
}

/// Returns every word address on the forwarding chain starting at (and
/// including) the word containing `addr`, ending at the terminal word.
///
/// Used by the memory-deallocation wrapper (paper §3.3): when an object is
/// deallocated, all memory reachable via its forwarding chain must be
/// deallocated as well. The walk counts its hops through a [`HopGuard`] at
/// [`DEFAULT_HOP_LIMIT`], exactly like [`resolve_unbounded`], so a cyclic
/// chain fails with the same [`CycleError`].
///
/// # Errors
///
/// Returns [`CycleError`] on a genuine forwarding cycle.
pub fn chain_words(mem: &TaggedMemory, addr: Addr) -> Result<Vec<Addr>, CycleError> {
    let mut word = addr.word_base();
    let mut out = vec![word];
    let mut scratch = Vec::new();
    let mut guard = HopGuard::new(DEFAULT_HOP_LIMIT, &mut scratch);
    loop {
        let (fwd, fbit) = mem.read_word_tagged(word);
        if !fbit {
            break;
        }
        let next = Addr(fwd).word_base();
        guard.step(word, next)?;
        word = next;
        out.push(word);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(mem: &mut TaggedMemory, hops: &[u64]) {
        // hops = [a, b, c] builds a -> b -> c (c terminal).
        for w in hops.windows(2) {
            mem.unforwarded_write(Addr(w[0]), w[1], true);
        }
    }

    #[test]
    fn non_forwarded_is_identity() {
        let mem = TaggedMemory::new();
        let r = resolve(&mem, Addr(0x1004), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x1004));
        assert_eq!(r.hops, 0);
        assert!(!r.forwarded());
    }

    #[test]
    fn single_hop_preserves_offset() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x800, 0x5800]);
        let r = resolve(&mem, Addr(0x804), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x5804));
        assert_eq!(r.hops, 1);
        assert!(r.forwarded());
    }

    #[test]
    fn multi_hop_chain() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x400]);
        let r = resolve(&mem, Addr(0x101), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x401));
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn long_chain_past_hop_limit_is_false_alarm() {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..50).map(|i| 0x1000 + i * 8).collect();
        chain(&mut mem, &nodes);
        // Limit of 4 forces the accurate check, which finds no cycle.
        let r = resolve(&mem, Addr(0x1000), 4).unwrap();
        assert_eq!(r.final_addr, Addr(0x1000 + 49 * 8));
        assert_eq!(r.hops, 49);
    }

    #[test]
    fn two_node_cycle_detected() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x100]);
        let err = resolve(&mem, Addr(0x100), 8).unwrap_err();
        assert!(err.hops >= 2);
    }

    #[test]
    fn self_cycle_detected() {
        let mut mem = TaggedMemory::new();
        mem.unforwarded_write(Addr(0x100), 0x100, true);
        assert!(resolve(&mem, Addr(0x104), 16).is_err());
        assert!(resolve_unbounded(&mem, Addr(0x104)).is_err());
    }

    #[test]
    fn cycle_not_at_head_detected() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x200]);
        assert!(resolve(&mem, Addr(0x100), 2).is_err());
    }

    #[test]
    fn scratch_reuse_across_resolutions() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x400]);
        chain(&mut mem, &[0x900, 0xA00]);
        let mut scratch = Vec::new();
        // Force the accurate check on the first walk so scratch is dirty.
        let r = resolve_with_scratch(&mem, Addr(0x100), 1, &mut scratch).unwrap();
        assert_eq!(r.final_addr, Addr(0x400));
        assert!(!scratch.is_empty());
        // Second walk must not be confused by leftovers.
        let r = resolve_with_scratch(&mem, Addr(0x900), 1, &mut scratch).unwrap();
        assert_eq!(r.final_addr, Addr(0xA00));
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn scratch_untouched_within_hop_limit() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300]);
        let mut scratch = Vec::new();
        let r = resolve_with_scratch(&mem, Addr(0x100), 8, &mut scratch).unwrap();
        assert_eq!(r.hops, 2);
        assert!(scratch.is_empty(), "accurate check never engaged");
    }

    #[test]
    fn chain_words_lists_whole_chain() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300]);
        let words = chain_words(&mem, Addr(0x104)).unwrap();
        assert_eq!(words, vec![Addr(0x100), Addr(0x200), Addr(0x300)]);
    }

    #[test]
    fn chain_words_cycle() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x100]);
        assert!(chain_words(&mem, Addr(0x100)).is_err());
    }

    #[test]
    fn chain_words_long_chain_no_false_cycle() {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..40).map(|i| 0x2000 + i * 8).collect();
        chain(&mut mem, &nodes);
        let words = chain_words(&mem, Addr(0x2000)).unwrap();
        assert_eq!(words.len(), 40);
    }

    #[test]
    fn forwarding_address_mid_word_offsets() {
        // A 4-byte access at offset 4 of a forwarded word lands at
        // final word + 4 (paper Fig. 1: load of 0804 returns value at 5804).
        let mut mem = TaggedMemory::new();
        mem.unforwarded_write(Addr(0x800), 0x5800, true);
        mem.write_data(Addr(0x5804), 4, 47);
        let r = resolve(&mem, Addr(0x804), 8).unwrap();
        assert_eq!(mem.read_data(r.final_addr, 4), 47);
    }
}
