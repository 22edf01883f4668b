//! Batched demand references.
//!
//! Applications mostly issue short, basic-block-sized windows of references
//! whose addresses are all known at emission time: payload field reads on a
//! just-visited node, the member stores of an initializer, an array-chunk
//! scan. [`RefBatch`] lets an application emit such a window as data and
//! hand the whole thing to [`Machine::run_batch`], which consumes it in one
//! call: one fast-path eligibility check, one forwarding-bitmap span scan
//! (the chunked u64-lane kernel in `memfwd-tagmem`), and a tight dispatch
//! loop, instead of one fully general demand call per reference.
//!
//! Intra-batch dependences are expressed positionally ([`BatchDep::Prev`]):
//! op *k* may consume the completion token of any earlier op in the same
//! batch, so pointer-style serialization inside the window is modelled
//! faithfully without the caller juggling tokens.
//!
//! The batch path is **bit-identical** to issuing the same operations
//! through [`Machine::load_dep`]/[`Machine::store_dep`] one at a time: each
//! op goes through exactly the same demand machinery in the same order, and
//! the span pre-scan only decides whether the per-op fast-path probe can be
//! entered directly. `SimConfig::scalar_path` (`--scalar`) forces the fully
//! general path for every op, which the differential tests use to prove the
//! identity on whole application runs.
//!
//! [`BatchOut`] is caller-owned and reusable: in steady state a
//! batch-emitting loop performs no host allocation at all.

use crate::fault::{record_last_fault, MachineFault};
use crate::machine::Machine;
use memfwd_cpu::Token;
use memfwd_tagmem::{Addr, WORD_BYTES};

/// Maximum operations per batch — sized like a generous basic block /
/// dispatch window, and small enough that a batch's token file lives in
/// one cache line's worth of state.
pub const BATCH_CAPACITY: usize = 32;

/// Address-dependence of one batched operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDep {
    /// The address is available at dispatch.
    Ready,
    /// The op depends on a token produced before the batch (e.g. the load
    /// of the node pointer the batch's fields hang off).
    External(Token),
    /// The op depends on the completion of an earlier op *in this batch*
    /// (by index). Must reference a strictly earlier slot.
    Prev(u8),
}

/// One batched demand reference.
#[derive(Debug, Clone, Copy)]
pub struct BatchOp {
    /// Store (`true`) or load (`false`).
    pub is_store: bool,
    /// Initial (pre-forwarding) address.
    pub addr: Addr,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
    /// Value to store (ignored for loads).
    pub val: u64,
    /// Address dependence.
    pub dep: BatchDep,
}

const NOP: BatchOp = BatchOp {
    is_store: false,
    addr: Addr(0),
    size: WORD_BYTES as u8,
    val: 0,
    dep: BatchDep::Ready,
};

/// A fixed-capacity window of demand references, filled by an application
/// and consumed whole by [`Machine::run_batch`].
#[derive(Debug)]
pub struct RefBatch {
    ops: [BatchOp; BATCH_CAPACITY],
    len: usize,
    /// Optional contiguous word span covering every op's target, set by
    /// the emitter when it knows one (e.g. the fields of a single record).
    /// Enables the batch-level forwarding-bitmap pre-scan.
    span: Option<(Addr, u64)>,
}

impl Default for RefBatch {
    fn default() -> Self {
        RefBatch::new()
    }
}

impl RefBatch {
    /// An empty batch.
    pub fn new() -> RefBatch {
        RefBatch {
            ops: [NOP; BATCH_CAPACITY],
            len: 0,
            span: None,
        }
    }

    /// Empties the batch for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.span = None;
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the batch cannot take another operation.
    pub fn is_full(&self) -> bool {
        self.len == BATCH_CAPACITY
    }

    /// Declares that every op in the batch targets a word inside the
    /// contiguous `n_words`-word span starting at `base`'s word. The span
    /// is a performance hint only — it lets [`Machine::run_batch`] certify
    /// the whole window unforwarded with one chunked bitmap scan.
    pub fn set_span(&mut self, base: Addr, n_words: u64) {
        self.span = Some((base, n_words));
    }

    pub(crate) fn span(&self) -> Option<(Addr, u64)> {
        self.span
    }

    pub(crate) fn op(&self, i: usize) -> BatchOp {
        self.ops[i]
    }

    /// Queues a load; returns its batch index (usable as a
    /// [`BatchDep::Prev`] target by later ops).
    ///
    /// # Panics
    ///
    /// Panics if the batch is full or `dep` references this or a later slot.
    pub fn push_load(&mut self, addr: Addr, size: u64, dep: BatchDep) -> usize {
        self.push(BatchOp {
            is_store: false,
            addr,
            size: size as u8,
            val: 0,
            dep,
        })
    }

    /// Queues a store; returns its batch index.
    ///
    /// # Panics
    ///
    /// As for [`RefBatch::push_load`].
    pub fn push_store(&mut self, addr: Addr, size: u64, val: u64, dep: BatchDep) -> usize {
        self.push(BatchOp {
            is_store: true,
            addr,
            size: size as u8,
            val,
            dep,
        })
    }

    fn push(&mut self, op: BatchOp) -> usize {
        assert!(self.len < BATCH_CAPACITY, "RefBatch overflow");
        if let BatchDep::Prev(i) = op.dep {
            assert!(
                (i as usize) < self.len,
                "BatchDep::Prev must reference an earlier op"
            );
        }
        self.ops[self.len] = op;
        self.len += 1;
        self.len - 1
    }
}

/// Reusable results arena for [`Machine::run_batch`]: per-op load values
/// and completion tokens. Allocation happens on first use and is amortized
/// away across batches.
#[derive(Debug, Default)]
pub struct BatchOut {
    vals: Vec<u64>,
    toks: Vec<Token>,
}

impl BatchOut {
    /// An empty results arena.
    pub fn new() -> BatchOut {
        BatchOut::default()
    }

    /// Loaded value of op `i` (0 for stores).
    pub fn val(&self, i: usize) -> u64 {
        self.vals[i]
    }

    /// Completion token of op `i`.
    pub fn tok(&self, i: usize) -> Token {
        self.toks[i]
    }

    /// Completion token of the batch's last op (`Token::ready()` when the
    /// batch was empty).
    pub fn last_tok(&self) -> Token {
        self.toks.last().copied().unwrap_or_else(Token::ready)
    }

    fn reset(&mut self) {
        self.vals.clear();
        self.toks.clear();
        if self.vals.capacity() < BATCH_CAPACITY {
            self.vals.reserve(BATCH_CAPACITY);
            self.toks.reserve(BATCH_CAPACITY);
        }
    }
}

impl Machine {
    /// Consumes a whole reference batch, leaving per-op results in `out`.
    ///
    /// Equivalent — statistic for statistic, cycle for cycle — to issuing
    /// the ops through the one-at-a-time demand API in batch order. When
    /// the machine is fast-path eligible and the batch's span hint scans
    /// forwarding-clear, every op enters the streamlined path directly.
    ///
    /// # Panics
    ///
    /// As for [`Machine::load`] (the simulated program is aborted on a
    /// machine fault). [`Machine::try_run_batch`] is the non-panicking
    /// twin.
    pub fn run_batch(&mut self, batch: &RefBatch, out: &mut BatchOut) {
        if let Err(fault) = self.try_run_batch(batch, out) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Fallible [`Machine::run_batch`].
    ///
    /// Ops before the faulting one have completed exactly as in the scalar
    /// sequence; `out` holds their results.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`], from the first op that faults.
    pub fn try_run_batch(
        &mut self,
        batch: &RefBatch,
        out: &mut BatchOut,
    ) -> Result<(), MachineFault> {
        out.reset();
        // One chunked bitmap scan certifies the whole window unforwarded:
        // every op may then enter the streamlined path directly, skipping
        // the per-op general-path dispatch. Pure pre-check — a batch that
        // fails it (or has no span hint) runs op-by-op through the same
        // gate `try_demand` applies anyway, so results are identical.
        let span_clear = self.fast_path_enabled()
            && batch
                .span()
                .is_some_and(|(base, n)| self.mem.fbits_clear_range(base, n));
        for i in 0..batch.len() {
            let op = batch.op(i);
            let dep = match op.dep {
                BatchDep::Ready => Token::ready(),
                BatchDep::External(t) => t,
                BatchDep::Prev(j) => out.tok(j as usize),
            };
            let size = u64::from(op.size);
            let r = if span_clear {
                // The span scan proved the fbit clear; the probe inside
                // `demand_fast` re-confirms it for free on the word read.
                match self.demand_fast(op.is_store, op.addr, size, op.val, dep) {
                    Some(r) => Ok(r),
                    None => self.try_demand_entry(op.is_store, op.addr, size, op.val, dep),
                }
            } else {
                self.try_demand_entry(op.is_store, op.addr, size, op.val, dep)
            };
            let (v, t) = r?;
            out.vals.push(v);
            out.toks.push(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::default())
    }

    /// The bit-identity contract, in miniature: the same op sequence via
    /// run_batch and via the scalar API must leave two machines in
    /// statistically identical states.
    #[test]
    fn batch_matches_scalar_sequence() {
        let build = |batched: bool| {
            let mut m = machine();
            let a = m.malloc(256);
            // A store window, then a dependent read-back window.
            if batched {
                let mut b = RefBatch::new();
                b.set_span(a, 8);
                for i in 0..8u64 {
                    b.push_store(a.add_words(i), 8, 100 + i, BatchDep::Ready);
                }
                let mut out = BatchOut::new();
                m.run_batch(&b, &mut out);
                b.clear();
                b.set_span(a, 8);
                let first = b.push_load(a, 8, BatchDep::Ready);
                for i in 1..8u64 {
                    b.push_load(a.add_words(i), 4, BatchDep::Prev(first as u8));
                }
                m.run_batch(&b, &mut out);
                let got: Vec<u64> = (0..8).map(|i| out.val(i)).collect();
                (m.finish(), got)
            } else {
                for i in 0..8u64 {
                    m.store_dep(a.add_words(i), 8, 100 + i, Token::ready());
                }
                let (v0, t0) = m.load_dep(a, 8, Token::ready());
                let mut got = vec![v0];
                for i in 1..8u64 {
                    got.push(m.load_dep(a.add_words(i), 4, t0).0);
                }
                (m.finish(), got)
            }
        };
        let (sb, vb) = build(true);
        let (ss, vs) = build(false);
        assert_eq!(vb, vs);
        assert_eq!(format!("{sb:?}"), format!("{ss:?}"));
    }

    #[test]
    fn batch_matches_scalar_on_forwarded_words() {
        // Forwarded targets force the span scan to fail and every op down
        // the general path — still identical to scalar.
        let build = |batched: bool| {
            let mut m = machine();
            let old = m.malloc(64);
            let new = m.malloc(64);
            for i in 0..4u64 {
                m.store_word(new.add_words(i), 7 + i);
                m.unforwarded_write(old.add_words(i), new.add_words(i).0, true);
            }
            let vals: Vec<u64> = if batched {
                let mut b = RefBatch::new();
                b.set_span(old, 4);
                for i in 0..4u64 {
                    b.push_load(old.add_words(i), 8, BatchDep::Ready);
                }
                let mut out = BatchOut::new();
                m.run_batch(&b, &mut out);
                (0..4).map(|i| out.val(i)).collect()
            } else {
                (0..4u64).map(|i| m.load_word(old.add_words(i))).collect()
            };
            (m.finish(), vals)
        };
        let (sb, vb) = build(true);
        let (ss, vs) = build(false);
        assert_eq!(vb, vs);
        assert_eq!(vb, vec![7, 8, 9, 10]);
        assert_eq!(format!("{sb:?}"), format!("{ss:?}"));
    }

    #[test]
    fn batch_faults_are_typed_and_prefix_completes() {
        let mut m = machine();
        let a = m.malloc(64);
        let mut b = RefBatch::new();
        b.push_store(a, 8, 1, BatchDep::Ready);
        b.push_load(Addr::NULL, 8, BatchDep::Ready);
        let mut out = BatchOut::new();
        assert!(matches!(
            m.try_run_batch(&b, &mut out),
            Err(MachineFault::NullDeref { is_store: false })
        ));
        assert_eq!(out.toks.len(), 1, "prefix before the fault completed");
        assert_eq!(m.load_word(a), 1);
    }

    #[test]
    #[should_panic(expected = "earlier op")]
    fn forward_prev_dep_rejected() {
        let mut b = RefBatch::new();
        b.push_load(Addr(64), 8, BatchDep::Prev(0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_rejected() {
        let mut b = RefBatch::new();
        for _ in 0..=BATCH_CAPACITY {
            b.push_load(Addr(64), 8, BatchDep::Ready);
        }
    }
}
