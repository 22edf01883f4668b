//! List linearization — paper Fig. 4(b) and the workhorse optimization of
//! the evaluation (Health, MST, Radiosity, VIS, SMV).
//!
//! Relocates the nodes of a linked list into contiguous pool memory so that
//! consecutive nodes share cache lines, and updates the traversal links
//! (head handle and each node's `next`) to point directly at the new
//! locations. Any *other* pointers into the list are not updated — memory
//! forwarding makes that safe.

use crate::machine::Machine;
use crate::reloc::relocate;
use memfwd_cpu::Token;
use memfwd_tagmem::{Addr, Pool};

/// Shape of a list node for linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListDesc {
    /// Node size in words.
    pub node_words: u64,
    /// Word offset of the `next` pointer within the node.
    pub next_word: u64,
}

impl ListDesc {
    /// Byte offset of the `next` pointer.
    pub fn next_offset(&self) -> u64 {
        self.next_word * 8
    }
}

/// Outcome of one linearization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinearizeOutcome {
    /// Nodes relocated.
    pub nodes: u64,
    /// New address of the first node (null for an empty list).
    pub new_head: Addr,
}

/// Linearizes the list whose head pointer is stored at `head_handle`.
///
/// The *address* of the head (rather than its value) is passed so the head
/// can be updated to point at the new first node, exactly as in the paper's
/// `ListLinearize()`; thereafter traversals through the head touch only the
/// new, contiguous locations.
///
/// # Panics
///
/// Panics if the list is longer than `2^20` nodes (assumed corrupt), or on
/// heap exhaustion / forwarding cycles.
pub fn list_linearize(
    m: &mut Machine,
    head_handle: Addr,
    desc: ListDesc,
    pool: &mut Pool,
) -> LinearizeOutcome {
    let mut out = LinearizeOutcome::default();
    let mut prev_slot = head_handle;
    let (mut p, mut tok) = m.load_ptr_dep(head_handle, Token::ready());
    while !p.is_null() {
        let tgt = m.pool_alloc(pool, desc.node_words * 8);
        if out.nodes == 0 {
            out.new_head = tgt;
        }
        // Read the next pointer (through forwarding, dependent on having
        // reached this node) before the node is relocated.
        let (next, ntok) = m.load_ptr_dep(p + desc.next_offset(), tok);
        relocate(m, p, tgt, desc.node_words);
        // Point the previous link at the node's new home.
        m.store_ptr(prev_slot, tgt);
        prev_slot = tgt + desc.next_offset();
        p = next;
        tok = ntok;
        out.nodes += 1;
        assert!(out.nodes < 1 << 20, "runaway list during linearization");
    }
    out
}

/// Walks a list through the machine, applying `visit` to each node address,
/// threading the pointer-chasing dependence. Returns the node count.
///
/// Shared by the applications' traversal kernels and by tests.
pub fn list_walk(
    m: &mut Machine,
    head_handle: Addr,
    next_offset: u64,
    mut visit: impl FnMut(&mut Machine, Addr, Token) -> Token,
) -> u64 {
    let (mut p, mut tok) = m.load_ptr_dep(head_handle, Token::ready());
    let mut n = 0;
    while !p.is_null() {
        tok = visit(m, p, tok);
        let (next, ntok) = m.load_ptr_dep(p + next_offset, tok);
        p = next;
        tok = ntok;
        n += 1;
        assert!(n < 1 << 24, "runaway list walk");
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    const DESC: ListDesc = ListDesc {
        node_words: 4,
        next_word: 0,
    };

    /// Builds a list of `n` nodes with payload `seed + i`, scattered by
    /// interleaving dummy allocations. Returns the head handle.
    fn build_scattered_list(m: &mut Machine, n: u64, seed: u64) -> Addr {
        let head_handle = m.malloc(8);
        m.store_ptr(head_handle, Addr::NULL);
        for i in (0..n).rev() {
            let _pad = m.malloc(8 * ((i * 7) % 23 + 1)); // scatter
            let node = m.malloc(DESC.node_words * 8);
            let old_head = m.load_ptr(head_handle);
            m.store_ptr(node, old_head);
            m.store_word(node + 8, seed + i);
            m.store_ptr(head_handle, node);
        }
        head_handle
    }

    fn payload_sum(m: &mut Machine, head_handle: Addr) -> u64 {
        let mut sum = 0;
        list_walk(m, head_handle, 0, |m, node, tok| {
            let (v, t) = m.load_word_dep(node + 8, tok);
            sum += v;
            t
        });
        sum
    }

    #[test]
    fn linearize_preserves_contents_and_order() {
        let mut m = Machine::new(SimConfig::default());
        let head = build_scattered_list(&mut m, 50, 1000);
        let before = payload_sum(&mut m, head);
        let mut pool = m.new_pool();
        let out = list_linearize(&mut m, head, DESC, &mut pool);
        assert_eq!(out.nodes, 50);
        let after = payload_sum(&mut m, head);
        assert_eq!(before, after);
        let s = m.finish();
        assert_eq!(s.fwd.relocations, 50);
        assert!(s.fwd.relocation_space_bytes >= 50 * 32);
    }

    #[test]
    fn linearized_nodes_are_contiguous() {
        let mut m = Machine::new(SimConfig::default());
        let head = build_scattered_list(&mut m, 10, 0);
        let mut pool = m.new_pool();
        let out = list_linearize(&mut m, head, DESC, &mut pool);
        // Walk and confirm addresses are consecutive.
        let mut addrs = Vec::new();
        list_walk(&mut m, head, 0, |_m, node, tok| {
            addrs.push(node);
            tok
        });
        assert_eq!(addrs[0], out.new_head);
        for w in addrs.windows(2) {
            assert_eq!(w[1].0 - w[0].0, DESC.node_words * 8);
        }
    }

    #[test]
    fn stale_pointer_into_middle_still_works() {
        let mut m = Machine::new(SimConfig::default());
        let head = build_scattered_list(&mut m, 5, 500);
        // Capture a pointer to the third node before linearization.
        let mut third = Addr::NULL;
        let mut i = 0;
        list_walk(&mut m, head, 0, |_m, node, tok| {
            if i == 2 {
                third = node;
            }
            i += 1;
            tok
        });
        let mut pool = m.new_pool();
        list_linearize(&mut m, head, DESC, &mut pool);
        // The stale pointer is forwarded to the node's new home.
        assert_eq!(m.load_word(third + 8), 502);
        let s = m.finish();
        assert!(s.fwd.forwarded_loads >= 1);
    }

    #[test]
    fn empty_list_is_noop() {
        let mut m = Machine::new(SimConfig::default());
        let head = m.malloc(8);
        m.store_ptr(head, Addr::NULL);
        let mut pool = m.new_pool();
        let out = list_linearize(&mut m, head, DESC, &mut pool);
        assert_eq!(out.nodes, 0);
        assert_eq!(out.new_head, Addr::NULL);
    }

    #[test]
    fn traversal_after_linearization_touches_no_old_locations() {
        let mut m = Machine::new(SimConfig::default());
        let head = build_scattered_list(&mut m, 30, 0);
        let mut pool = m.new_pool();
        list_linearize(&mut m, head, DESC, &mut pool);
        let fwd_before = m.fwd_stats().forwarded_loads;
        payload_sum(&mut m, head);
        let s = m.finish();
        assert_eq!(
            s.fwd.forwarded_loads, fwd_before,
            "head-based traversal goes straight to new locations"
        );
    }

    #[test]
    fn repeated_linearization_keeps_list_intact() {
        let mut m = Machine::new(SimConfig::default());
        let head = build_scattered_list(&mut m, 20, 9000);
        let before = payload_sum(&mut m, head);
        let mut pool = m.new_pool();
        for _ in 0..3 {
            let out = list_linearize(&mut m, head, DESC, &mut pool);
            assert_eq!(out.nodes, 20);
        }
        assert_eq!(payload_sum(&mut m, head), before);
    }
}
