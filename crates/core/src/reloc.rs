//! The relocation primitive — paper Fig. 4(a).
//!
//! `Relocate(src, tgt, n)` moves an `n`-word object from `src` to `tgt`,
//! leaving forwarding addresses behind. For each word it loops until a
//! clear forwarding bit is read, so that `tgt` is appended at the *end* of
//! any existing forwarding chain: relocating an already-relocated object
//! extends the chain rather than corrupting it.

use crate::fault::{record_last_fault, MachineFault};
use crate::machine::Machine;
use memfwd_cpu::Token;
use memfwd_tagmem::{Addr, HopGuard};

/// Fallible [`relocate`]: moves `n_words` words from `src` to `tgt`,
/// reporting corruption as a typed fault instead of panicking.
///
/// # Errors
///
/// [`MachineFault::Misaligned`] if `src` or `tgt` is not word-aligned
/// (nothing has moved when this is returned), or
/// [`MachineFault::ForwardingCycle`] if the forwarding chain of a source
/// word is cyclic (words before the faulting one have already been moved —
/// each such word is individually consistent, so stray accesses to them
/// remain safe).
pub fn try_relocate(
    m: &mut Machine,
    src: Addr,
    tgt: Addr,
    n_words: u64,
) -> Result<(), MachineFault> {
    // Record the step (capture is a thread-local no-op when off) before any
    // validation, so a plan captured from a faulting run still contains the
    // step that faulted — the shadow sanitizer matches faults to diagnostics.
    crate::plan::note_reloc_step(src, tgt, n_words);
    if !src.is_aligned(8) {
        return Err(MachineFault::Misaligned { addr: src, size: 8 });
    }
    if !tgt.is_aligned(8) {
        return Err(MachineFault::Misaligned { addr: tgt, size: 8 });
    }
    m.compute(2); // loop setup
    let mut scratch = Vec::new();
    for i in 0..n_words {
        let mut cur = src.add_words(i);
        let t = tgt.add_words(i);
        let mut guard = HopGuard::new(m.config().hop_limit, &mut scratch);
        let mut dep = Token::ready();
        // Append at the end of any existing chain. The overwhelmingly
        // common source word is unforwarded (fresh allocations, first
        // relocation) and leaves after one probe; the hop guard only
        // starts remembering words past the hop limit, so chains within it
        // cost no cycle tracking at all.
        loop {
            let (val, fbit, tok) = m.unforwarded_read_dep(cur, dep);
            m.compute(1); // branch on the forwarding bit
            if !fbit {
                // Copy the word to its new home, then atomically install
                // the forwarding address and bit in the old home.
                m.store_dep(t, 8, val, tok);
                m.unforwarded_write(cur, t.0, true);
                break;
            }
            let next = Addr(val);
            guard.step(cur.word_base(), next.word_base())?;
            cur = next;
            dep = tok;
        }
    }
    m.note_relocation(n_words);
    Ok(())
}

/// Relocates `n_words` words from `src` to `tgt`, storing forwarding
/// addresses into the chain-terminal old locations.
///
/// Both `src` and `tgt` must be word-aligned (§3.3: relocatable objects are
/// word-aligned so two objects never share a word).
///
/// # Panics
///
/// Panics if `src` or `tgt` is not word-aligned, or if the forwarding chain
/// of a source word is cyclic. [`try_relocate`] is the non-panicking twin.
pub fn relocate(m: &mut Machine, src: Addr, tgt: Addr, n_words: u64) {
    if let Err(fault) = try_relocate(m, src, tgt, n_words) {
        record_last_fault(fault);
        match fault {
            MachineFault::Misaligned { .. } => panic!("relocation must be word-aligned"),
            MachineFault::ForwardingCycle { .. } => {
                panic!("forwarding cycle during relocate: {fault}")
            }
            _ => panic!("{fault}"),
        }
    }
}

/// Relocates several disjoint pieces into one contiguous chunk allocated at
/// `chunk`, returning the new base address of each piece.
///
/// This is the building block of the Eqntott optimization (paper Fig. 8):
/// a `PTERM` record and its array are packed into a single chunk.
///
/// # Panics
///
/// As for [`relocate`].
pub fn relocate_adjacent(m: &mut Machine, pieces: &[(Addr, u64)], chunk: Addr) -> Vec<Addr> {
    let mut out = Vec::with_capacity(pieces.len());
    let mut at = chunk;
    for &(src, words) in pieces {
        relocate(m, src, at, words);
        out.push(at);
        at = at.add_words(words);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::default())
    }

    #[test]
    fn relocate_copies_and_forwards() {
        let mut m = machine();
        let src = m.malloc(24);
        let tgt = m.malloc(24);
        for i in 0..3 {
            m.store_word(src.add_words(i), 100 + i);
        }
        relocate(&mut m, src, tgt, 3);
        // Direct access at the new home:
        for i in 0..3 {
            assert_eq!(m.load_word(tgt.add_words(i)), 100 + i);
        }
        // Stray access at the old home is forwarded:
        for i in 0..3 {
            assert_eq!(m.load_word(src.add_words(i)), 100 + i);
        }
        let s = m.finish();
        assert_eq!(s.fwd.relocations, 1);
        assert_eq!(s.fwd.relocated_words, 3);
        assert_eq!(s.fwd.forwarded_loads, 3);
    }

    #[test]
    fn double_relocation_appends_to_chain_end() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        let c = m.malloc(8);
        m.store_word(a, 7);
        relocate(&mut m, a, b, 1);
        // Relocating via the ORIGINAL address must chase to b and move the
        // live data from b to c.
        relocate(&mut m, a, c, 1);
        assert_eq!(m.load_word(c), 7, "data lives at the chain end");
        assert_eq!(m.load_word(a), 7, "two hops from the oldest address");
        assert_eq!(m.load_word(b), 7, "one hop from the middle");
        let s = m.finish();
        assert_eq!(s.fwd.load_hops[2], 1);
        assert_eq!(s.fwd.load_hops[1], 1);
    }

    #[test]
    fn subword_access_after_relocation() {
        let mut m = machine();
        let src = m.malloc(8);
        let tgt = m.malloc(8);
        m.store(src, 4, 3);
        m.store(src + 4, 4, 47);
        relocate(&mut m, src, tgt, 1);
        assert_eq!(m.load(src + 4, 4), 47, "paper Fig. 1: offset preserved");
    }

    #[test]
    fn relocate_adjacent_packs_pieces() {
        let mut m = machine();
        let rec = m.malloc(16);
        let arr = m.malloc(32);
        m.store_word(rec, 1);
        m.store_word(arr, 2);
        let chunk = m.malloc(48);
        let bases = relocate_adjacent(&mut m, &[(rec, 2), (arr, 4)], chunk);
        assert_eq!(bases, vec![chunk, chunk.add_words(2)]);
        assert_eq!(m.load_word(bases[0]), 1);
        assert_eq!(m.load_word(bases[1]), 2);
        assert_eq!(m.load_word(rec), 1, "old record address forwards");
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn misaligned_relocation_rejected() {
        let mut m = machine();
        let src = m.malloc(16);
        let tgt = m.malloc(16);
        relocate(&mut m, src + 4, tgt, 1);
    }

    #[test]
    fn try_relocate_reports_typed_faults() {
        let mut m = machine();
        let src = m.malloc(16);
        let tgt = m.malloc(16);
        assert_eq!(
            try_relocate(&mut m, src + 4, tgt, 1),
            Err(crate::MachineFault::Misaligned {
                addr: src + 4,
                size: 8
            })
        );
        assert_eq!(
            try_relocate(&mut m, src, tgt + 4, 1),
            Err(crate::MachineFault::Misaligned {
                addr: tgt + 4,
                size: 8
            })
        );
        // A cyclic source chain surfaces as a typed cycle fault.
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        let c = m.malloc(8);
        assert!(matches!(
            try_relocate(&mut m, a, c, 1),
            Err(crate::MachineFault::ForwardingCycle { .. })
        ));
        // Valid relocation still works through the fallible path.
        m.store_word(src, 5);
        assert_eq!(try_relocate(&mut m, src, tgt, 1), Ok(()));
        assert_eq!(m.load_word(src), 5);
    }
}
