//! A generic list library in the style of VIS's (paper §5.3): list heads
//! are records in simulated memory that track a mutation counter, and —
//! in the optimized variants — trigger list linearization whenever the
//! counter exceeds a threshold (the paper used 50).

use crate::common::rng::Rng;
use memfwd::{list_linearize, list_walk, ListDesc, Machine, Token};
use memfwd_tagmem::{Addr, Pool};

/// Head-record layout (4 words): `[first, count, mutations, reserved]`.
const HEAD_WORDS: u64 = 4;
const FIRST: u64 = 0;
const COUNT: u64 = 8;
const MUTS: u64 = 16;

/// Prefetching policy for traversals, matching the paper's Fig. 7 setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchMode {
    /// No software prefetching.
    #[default]
    None,
    /// Prefetch each node's successor as soon as its address is known
    /// (the best one can do on a pointer-chased list).
    NextPointer,
    /// Data-linearization prefetching: assume nodes are consecutive and
    /// block-prefetch `lines` cache lines ahead.
    Linear {
        /// Prefetch block size in cache lines.
        lines: u64,
    },
}

/// The list library: node shape plus the optimization policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListLib {
    /// Node shape; `next` must be at word 0.
    pub desc: ListDesc,
    /// Linearize when a list's mutation counter exceeds this (None =
    /// original, unoptimized behaviour).
    pub threshold: Option<u64>,
}

impl ListLib {
    /// Creates a library for nodes of `node_words` words (`next` at word 0).
    pub fn new(node_words: u64, threshold: Option<u64>) -> ListLib {
        assert!(node_words >= 2, "need next + at least one payload word");
        ListLib {
            desc: ListDesc {
                node_words,
                next_word: 0,
            },
            threshold,
        }
    }

    /// Allocates an empty list head record.
    pub fn new_list(&self, m: &mut Machine) -> Addr {
        let h = m.malloc(HEAD_WORDS * 8);
        m.store_ptr(h + FIRST, Addr::NULL);
        m.store_word(h + COUNT, 0);
        m.store_word(h + MUTS, 0);
        h
    }

    /// Number of elements (reads the head record).
    pub fn len(&self, m: &mut Machine, head: Addr) -> u64 {
        m.load_word(head + COUNT)
    }

    /// True if the list is empty.
    pub fn is_empty(&self, m: &mut Machine, head: Addr) -> bool {
        self.len(m, head) == 0
    }

    /// Pushes a node with the given payload words at the front; returns the
    /// node address. May trigger linearization.
    pub fn push_front(
        &self,
        m: &mut Machine,
        head: Addr,
        payload: &[u64],
        pool: &mut Pool,
    ) -> Addr {
        assert!((payload.len() as u64) < self.desc.node_words);
        let node = m.malloc(self.desc.node_words * 8);
        let first = m.load_ptr(head + FIRST);
        m.store_ptr(node, first);
        for (i, &v) in payload.iter().enumerate() {
            m.store_word(node.add_words(1 + i as u64), v);
        }
        m.store_ptr(head + FIRST, node);
        self.bump(m, head, 1, pool);
        node
    }

    /// Deletes the `idx`-th node (0-based); returns `true` if it existed.
    /// May trigger linearization.
    pub fn delete_nth(&self, m: &mut Machine, head: Addr, idx: u64, pool: &mut Pool) -> bool {
        let mut prev_slot = head + FIRST;
        let (mut p, mut tok) = m.load_ptr_dep(prev_slot, Token::ready());
        let mut i = 0;
        while !p.is_null() {
            if i == idx {
                let (next, _) = m.load_ptr_dep(p, tok);
                m.store_ptr(prev_slot, next);
                // A node that was linearized lives in pool space and is
                // reclaimed with its pool; only original allocations are
                // individually freed (the §3.3 wrapper handles their chains).
                if m.heap().is_live(p) {
                    m.free(p);
                }
                let c = m.load_word(head + COUNT);
                m.store_word(head + COUNT, c - 1);
                self.bump(m, head, 0, pool);
                return true;
            }
            prev_slot = p;
            let (next, t) = m.load_ptr_dep(p, tok);
            p = next;
            tok = t;
            i += 1;
        }
        false
    }

    fn bump(&self, m: &mut Machine, head: Addr, inserted: u64, pool: &mut Pool) {
        if inserted > 0 {
            let c = m.load_word(head + COUNT);
            m.store_word(head + COUNT, c + inserted);
        }
        let muts = m.load_word(head + MUTS) + 1;
        m.store_word(head + MUTS, muts);
        if let Some(th) = self.threshold {
            if muts > th {
                list_linearize(m, head + FIRST, self.desc, pool);
                m.store_word(head + MUTS, 0);
            }
        }
    }

    /// Forces a linearization pass regardless of the counter.
    pub fn linearize_now(&self, m: &mut Machine, head: Addr, pool: &mut Pool) -> u64 {
        let out = list_linearize(m, head + FIRST, self.desc, pool);
        m.store_word(head + MUTS, 0);
        out.nodes
    }

    /// Traverses the list, calling `visit(machine, node, token)` per node,
    /// with the requested prefetching policy. Returns the node count.
    pub fn traverse(
        &self,
        m: &mut Machine,
        head: Addr,
        mode: PrefetchMode,
        mut visit: impl FnMut(&mut Machine, Addr, Token) -> Token,
    ) -> u64 {
        let node_bytes = self.desc.node_words * 8;
        list_walk(m, head + FIRST, 0, |m, node, tok| {
            match mode {
                PrefetchMode::None => {}
                PrefetchMode::NextPointer => {
                    // The successor's address is in this node's next field;
                    // the earliest we can prefetch it is once that field has
                    // been loaded — one node ahead, the pointer-chasing
                    // limit of §2.2.
                    let (next, t) = m.load_ptr_dep(node, tok);
                    if !next.is_null() {
                        m.prefetch_dep(next, 1, t);
                    }
                }
                PrefetchMode::Linear { lines } => {
                    // After linearization nodes are consecutive: prefetch a
                    // block `lines` ahead without dereferencing anything.
                    let ahead = lines * m.line_bytes();
                    m.prefetch(node + ahead, lines.min(4));
                    let _ = node_bytes;
                }
            }
            visit(m, node, tok)
        })
    }

    /// Traverses summing `payload_word` of every node (a common kernel).
    pub fn sum_payloads(
        &self,
        m: &mut Machine,
        head: Addr,
        payload_word: u64,
        mode: PrefetchMode,
    ) -> u64 {
        let mut sum = 0u64;
        self.traverse(m, head, mode, |m, node, tok| {
            let (v, t) = m.load_word_dep(node.add_words(payload_word), tok);
            sum = sum.wrapping_add(v);
            t
        });
        sum
    }
}

/// Interleaves a small random dummy allocation to scatter subsequent nodes
/// across the heap, modelling the fragmented heaps of long-running C
/// programs (which is what makes the original layouts sparse).
pub fn scatter_pad(m: &mut Machine, rng: &mut Rng) {
    scatter_pad_if(m, rng, true);
}

/// [`scatter_pad`] with the allocation made conditional while the RNG draw
/// always happens — static-placement variants must consume the identical
/// random stream to stay bit-equal with the other layouts.
pub fn scatter_pad_if(m: &mut Machine, rng: &mut Rng, enabled: bool) {
    let n = rng.below(4);
    if enabled && n > 0 {
        let _ = m.malloc(n * 24);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfwd::SimConfig;

    fn setup(threshold: Option<u64>) -> (Machine, ListLib, Pool, Addr) {
        let mut m = Machine::new(SimConfig::default());
        let lib = ListLib::new(4, threshold);
        let pool = m.new_pool();
        let head = lib.new_list(&mut m);
        (m, lib, pool, head)
    }

    #[test]
    fn push_and_sum() {
        let (mut m, lib, mut pool, head) = setup(None);
        for i in 0..10 {
            lib.push_front(&mut m, head, &[i], &mut pool);
        }
        assert_eq!(lib.len(&mut m, head), 10);
        assert!(!lib.is_empty(&mut m, head));
        let sum = lib.sum_payloads(&mut m, head, 1, PrefetchMode::None);
        assert_eq!(sum, 45);
    }

    #[test]
    fn delete_nth() {
        let (mut m, lib, mut pool, head) = setup(None);
        for i in 0..5 {
            lib.push_front(&mut m, head, &[i], &mut pool);
        }
        // List is 4,3,2,1,0; delete index 1 (payload 3).
        assert!(lib.delete_nth(&mut m, head, 1, &mut pool));
        assert_eq!(lib.len(&mut m, head), 4);
        assert_eq!(lib.sum_payloads(&mut m, head, 1, PrefetchMode::None), 7);
        assert!(!lib.delete_nth(&mut m, head, 10, &mut pool));
    }

    #[test]
    fn threshold_triggers_linearization() {
        let (mut m, lib, mut pool, head) = setup(Some(8));
        for i in 0..20 {
            lib.push_front(&mut m, head, &[i], &mut pool);
        }
        let s = m.fwd_stats();
        assert!(s.relocations > 0, "counter crossed 8 twice: linearized");
        assert_eq!(
            lib.sum_payloads(&mut m, head, 1, PrefetchMode::None),
            (0..20).sum::<u64>()
        );
    }

    #[test]
    fn unoptimized_never_linearizes() {
        let (mut m, lib, mut pool, head) = setup(None);
        for i in 0..100 {
            lib.push_front(&mut m, head, &[i], &mut pool);
        }
        assert_eq!(m.fwd_stats().relocations, 0);
    }

    #[test]
    fn traversal_modes_agree_on_sum() {
        for mode in [
            PrefetchMode::None,
            PrefetchMode::NextPointer,
            PrefetchMode::Linear { lines: 2 },
        ] {
            let (mut m, lib, mut pool, head) = setup(Some(4));
            for i in 0..30 {
                lib.push_front(&mut m, head, &[i * i], &mut pool);
            }
            let want: u64 = (0..30u64).map(|i| i * i).sum();
            assert_eq!(lib.sum_payloads(&mut m, head, 1, mode), want, "{mode:?}");
        }
    }

    #[test]
    fn linearize_now_packs_nodes() {
        let (mut m, lib, mut pool, head) = setup(None);
        let mut rng = Rng::new(5);
        for i in 0..16 {
            scatter_pad(&mut m, &mut rng);
            lib.push_front(&mut m, head, &[i], &mut pool);
        }
        let n = lib.linearize_now(&mut m, head, &mut pool);
        assert_eq!(n, 16);
        let mut prev = Addr::NULL;
        lib.traverse(&mut m, head, PrefetchMode::None, |_m, node, tok| {
            if !prev.is_null() {
                assert_eq!(node.0 - prev.0, 32, "consecutive after linearize");
            }
            prev = node;
            tok
        });
    }
}
