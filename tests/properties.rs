//! Property-based tests (proptest) of the core invariants: relocation
//! safety against a functional model, heap soundness, chain resolution,
//! linearization, and statistics conservation.

use memfwd_repro::core::{
    final_address, list_linearize, relocate, restore_machine, save_machine, take_last_fault,
    try_relocate, ListDesc, Machine, MachineFault, MemoryModel, SimConfig, SmpConfig, SmpMachine,
};
use memfwd_repro::tagmem::{
    resolve, resolve_unbounded, Addr, CycleError, Heap, Resolution, TaggedMemory, DEFAULT_HOP_LIMIT,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Operations for the relocation-equivalence property.
#[derive(Debug, Clone)]
enum Op {
    /// Store `value` of `size` bytes at logical offset `off` of object
    /// `obj`, through its `gen`-th historical address.
    Store {
        obj: u8,
        gen: u8,
        off: u8,
        size: u8,
        value: u64,
    },
    /// Load at logical offset `off` of `obj` through a historical address.
    Load { obj: u8, gen: u8, off: u8, size: u8 },
    /// Relocate `obj` to a fresh home through a historical address.
    Relocate { obj: u8, gen: u8 },
}

/// What `walker` must report for a chain that `resolve` answered with
/// `want`: success on an acyclic chain, else exactly `resolve`'s cycle.
fn agrees<T: std::fmt::Debug>(
    walker: &str,
    want: Result<Resolution, CycleError>,
    got: Result<T, MachineFault>,
) -> Result<(), TestCaseError> {
    match (want, &got) {
        (Ok(_), Ok(_)) => Ok(()),
        (Err(c), Err(f)) if *f == MachineFault::from(c) => Ok(()),
        _ => Err(TestCaseError::fail(format!(
            "{walker}: resolve gave {want:?}, the walker {got:?}"
        ))),
    }
}

/// Heap words `0..len` forwarding each to the next, plus an optional back
/// edge from the last word to word `back`, written with `Unforwarded_Write`.
fn machine_chain(hop_limit: u32, len: usize, back: Option<usize>) -> (Machine, Vec<Addr>) {
    let mut m = Machine::new(SimConfig {
        hop_limit,
        ..SimConfig::default()
    });
    let words: Vec<Addr> = (0..len).map(|_| m.malloc(8)).collect();
    for w in words.windows(2) {
        m.unforwarded_write(w[0], w[1].0, true);
    }
    if let Some(k) = back {
        m.unforwarded_write(words[len - 1], words[k].0, true);
    }
    (m, words)
}

/// The same chain on an SMP machine, built with its relocation primitive
/// only. The back edge comes from relocating word `back` onto itself:
/// the walk appends it at the terminal, and the copy rewrites word
/// `back` with the terminal's data, which is first set to word
/// `back + 1`'s address so the chain survives.
fn smp_chain(model: MemoryModel, len: usize, back: Option<usize>) -> (SmpMachine, Vec<Addr>) {
    let mut m = SmpMachine::new(
        SmpConfig {
            cores: 2,
            ..SmpConfig::default()
        },
        SimConfig::default().with_memory_model(model),
    );
    let words: Vec<Addr> = (0..len).map(|_| m.malloc(8)).collect();
    for w in words.windows(2) {
        m.relocate(0, w[0], w[1], 1);
        m.fence(0);
    }
    if let Some(k) = back {
        if k + 1 < len {
            m.store(0, words[len - 1], 8, words[k + 1].0);
        }
        m.relocate(0, words[k], words[k], 1);
        m.fence(0);
    }
    (m, words)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let size = prop_oneof![Just(1u8), Just(2), Just(4), Just(8)];
    prop_oneof![
        (0u8..4, 0u8..8, 0u8..24, size.clone(), any::<u64>()).prop_map(
            |(obj, gen, off, size, value)| Op::Store {
                obj,
                gen,
                off,
                size,
                value
            }
        ),
        (0u8..4, 0u8..8, 0u8..24, size).prop_map(|(obj, gen, off, size)| Op::Load {
            obj,
            gen,
            off,
            size
        }),
        (0u8..4, 0u8..8).prop_map(|(obj, gen)| Op::Relocate { obj, gen }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of stores, loads and relocations — through ANY
    /// historical address of an object — behaves exactly like a flat,
    /// never-relocated memory.
    #[test]
    fn relocation_is_transparent(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        const OBJ_WORDS: u64 = 3; // 24 bytes
        let mut m = Machine::new(SimConfig::default());
        // model[obj][byte offset] = value of that byte
        let mut model: Vec<HashMap<u8, u8>> = vec![HashMap::new(); 4];
        let mut homes: Vec<Vec<Addr>> = (0..4)
            .map(|_| vec![m.malloc(OBJ_WORDS * 8)])
            .collect();

        for op in ops {
            match op {
                Op::Store { obj, gen, off, size, value } => {
                    let o = obj as usize % 4;
                    let addr = homes[o][gen as usize % homes[o].len()];
                    let size = u64::from(size);
                    let off = (u64::from(off) / size * size) % (OBJ_WORDS * 8);
                    m.store(addr + off, size, value);
                    for b in 0..size {
                        model[o].insert((off + b) as u8, value.to_le_bytes()[b as usize]);
                    }
                }
                Op::Load { obj, gen, off, size } => {
                    let o = obj as usize % 4;
                    let addr = homes[o][gen as usize % homes[o].len()];
                    let size = u64::from(size);
                    let off = (u64::from(off) / size * size) % (OBJ_WORDS * 8);
                    let got = m.load(addr + off, size);
                    let mut want = [0u8; 8];
                    for b in 0..size {
                        want[b as usize] =
                            model[o].get(&((off + b) as u8)).copied().unwrap_or(0);
                    }
                    prop_assert_eq!(got, u64::from_le_bytes(want));
                }
                Op::Relocate { obj, gen } => {
                    let o = obj as usize % 4;
                    let src = homes[o][gen as usize % homes[o].len()];
                    let tgt = m.malloc(OBJ_WORDS * 8);
                    relocate(&mut m, src, tgt, OBJ_WORDS);
                    homes[o].push(tgt);
                }
            }
        }
    }

    /// The heap never hands out overlapping blocks, keeps everything
    /// word-aligned, and its byte accounting is exact.
    #[test]
    fn heap_soundness(ops in proptest::collection::vec((any::<bool>(), 1u64..200), 1..200)) {
        let mut h = Heap::new(Addr(0x1000), 1 << 22);
        let mut live: Vec<(Addr, u64)> = Vec::new();
        for (free, size) in ops {
            if free && !live.is_empty() {
                let (a, _) = live.swap_remove(size as usize % live.len());
                h.free(a).unwrap();
            } else {
                let a = h.alloc(size).unwrap();
                prop_assert!(a.is_aligned(8));
                let rounded = size.div_ceil(8) * 8;
                for &(b, bsz) in &live {
                    let disjoint = a.0 + rounded <= b.0 || b.0 + bsz <= a.0;
                    prop_assert!(disjoint, "{a:?}+{rounded} overlaps {b:?}+{bsz}");
                }
                live.push((a, rounded));
            }
        }
        let want: u64 = live.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(h.stats().live_bytes, want);
    }

    /// Chain resolution always lands on the terminal word of the chain the
    /// relocations built, with the hop count equal to the chain length.
    #[test]
    fn chain_resolution_matches_construction(hops in 0usize..12, offset in 0u64..8) {
        let mut mem = TaggedMemory::new();
        let homes: Vec<u64> = (0..=hops as u64).map(|i| 0x1000 + i * 0x100).collect();
        for w in homes.windows(2) {
            mem.unforwarded_write(Addr(w[0]), w[1], true);
        }
        let r = resolve_unbounded(&mem, Addr(homes[0] + offset)).unwrap();
        prop_assert_eq!(r.final_addr, Addr(homes[hops] + offset));
        prop_assert_eq!(r.hops, hops as u32);
    }

    /// Linearization preserves arbitrary list contents and produces
    /// contiguous nodes, no matter the payloads or length.
    #[test]
    fn linearization_preserves_lists(payloads in proptest::collection::vec(any::<u64>(), 0..60)) {
        const DESC: ListDesc = ListDesc { node_words: 3, next_word: 0 };
        let mut m = Machine::new(SimConfig::default());
        let head = m.malloc(8);
        m.store_ptr(head, Addr::NULL);
        for (i, &v) in payloads.iter().enumerate().rev() {
            let _pad = m.malloc(8 * (i as u64 % 5 + 1));
            let node = m.malloc(24);
            let first = m.load_ptr(head);
            m.store_ptr(node, first);
            m.store_word(node + 8, v);
            m.store_ptr(head, node);
        }
        let mut pool = m.new_pool();
        let out = list_linearize(&mut m, head, DESC, &mut pool);
        prop_assert_eq!(out.nodes, payloads.len() as u64);
        // Walk and compare payloads + contiguity.
        let mut node = m.load_ptr(head);
        let mut prev = Addr::NULL;
        for &want in &payloads {
            prop_assert!(!node.is_null());
            prop_assert_eq!(m.load_word(node + 8), want);
            if !prev.is_null() {
                prop_assert_eq!(node.0 - prev.0, 24);
            }
            prev = node;
            node = m.load_ptr(node);
        }
        prop_assert!(node.is_null());
    }

    /// Access classification is conserved: every load is exactly one of
    /// {L1 hit, partial miss, full miss}, and the same for stores.
    #[test]
    fn cache_stats_conserved(addrs in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..300)) {
        let mut m = Machine::new(SimConfig::default());
        let base = m.malloc(1 << 20);
        let mut loads = 0u64;
        let mut stores = 0u64;
        for (a, is_store) in addrs {
            let addr = base + (u64::from(a) * 8) % (1 << 20);
            if is_store {
                m.store_word(addr, 1);
                stores += 1;
            } else {
                m.load_word(addr);
                loads += 1;
            }
        }
        let s = m.finish();
        prop_assert_eq!(s.cache.loads.total(), loads);
        prop_assert_eq!(s.cache.stores.total(), stores);
        prop_assert_eq!(s.fwd.loads, loads);
        prop_assert_eq!(s.fwd.stores, stores);
    }

    /// Randomly flipping forwarding bits over words holding arbitrary data
    /// can never cause a *silent* wrong value: every load either returns
    /// the functionally correct value, is visibly forwarded (a user-level
    /// trap fires, paper §3.2), or raises a typed machine fault.
    #[test]
    fn random_fbit_corruption_is_never_silent(
        values in proptest::collection::vec(any::<u64>(), 4..24),
        flips in proptest::collection::vec(any::<bool>(), 24..25),
    ) {
        let mut m = Machine::new(SimConfig::default());
        m.set_traps_enabled(true);
        let words: Vec<Addr> = values
            .iter()
            .map(|&v| {
                let a = m.malloc(8);
                m.store_word(a, v);
                a
            })
            .collect();
        // Corrupt: set the forwarding bit on a random subset, turning each
        // word's payload into a bogus forwarding address.
        for (i, &a) in words.iter().enumerate() {
            if flips[i] {
                let (v, _) = m.unforwarded_read(a);
                m.unforwarded_write(a, v, true);
            }
        }
        for (i, &a) in words.iter().enumerate() {
            let _ = m.take_traps();
            match m.try_load_word(a) {
                Ok(got) => {
                    if got != values[i] {
                        // A wrong value is only acceptable if the hardware
                        // made the forwarding visible: the access trapped.
                        let traps = m.take_traps();
                        prop_assert!(
                            !traps.is_empty() && traps.iter().all(|t| t.hops > 0),
                            "SILENT corruption: word {i} returned {got:#x}, want {:#x}, no trap",
                            values[i]
                        );
                    }
                }
                Err(fault) => prop_assert!(
                    matches!(
                        fault,
                        memfwd_repro::core::MachineFault::ForwardingCycle { .. }
                            | memfwd_repro::core::MachineFault::NullDeref { .. }
                            | memfwd_repro::core::MachineFault::Misaligned { .. }
                            | memfwd_repro::core::MachineFault::HopLimitExceeded { .. }
                    ),
                    "unexpected fault kind for fbit corruption: {fault:?}"
                ),
            }
        }
    }

    /// Snapshots round-trip losslessly: `restore` of a machine's own image
    /// returns the exact host cursor, re-saving is byte-identical, and the
    /// restored machine answers every access — including through stale
    /// pre-relocation addresses — exactly like the original.
    #[test]
    fn snapshot_round_trip_is_lossless(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..80),
        cursor in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let mut m = Machine::new(SimConfig::default());
        let objs: Vec<Addr> = (0..4).map(|_| m.malloc(32)).collect();
        let mut homes = objs.clone();
        for (sel, val) in ops {
            let o = sel as usize % 4;
            match sel % 3 {
                0 => m.store_word(homes[o] + (val % 4) * 8, val),
                1 => { let _ = m.load_word(objs[o] + (val % 4) * 8); }
                _ => {
                    let t = m.malloc(32);
                    relocate(&mut m, homes[o], t, 4);
                    homes[o] = t;
                }
            }
        }
        let img = save_machine(&m, &cursor);
        let (mut r, rcursor) =
            restore_machine(&img, SimConfig::default()).expect("own image restores");
        prop_assert_eq!(&rcursor, &cursor);
        prop_assert_eq!(save_machine(&r, &rcursor), img.clone());
        for (o, &stale) in objs.iter().enumerate() {
            for w in 0..4u64 {
                prop_assert_eq!(
                    r.load_word(stale + w * 8),
                    m.load_word(stale + w * 8),
                    "object {} word {} diverged after restore", o, w
                );
            }
        }
        // The replayed loads above perturbed both machines identically:
        // their images must still agree.
        prop_assert_eq!(save_machine(&r, &rcursor), save_machine(&m, &cursor));
    }

    /// Any truncation and any single bit flip of a valid snapshot image is
    /// rejected with a typed error — decoding is total and never panics,
    /// and no corruption slips through the container checks.
    #[test]
    fn snapshot_corruption_is_always_typed(
        cursor in proptest::collection::vec(any::<u64>(), 0..8),
        cut in any::<u64>(),
        flip_byte in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(16);
        m.store_word(a, 7);
        let img = save_machine(&m, &cursor);
        let cut = (cut as usize) % img.len();
        prop_assert!(restore_machine(&img[..cut], SimConfig::default()).is_err());
        let mut torn = img.clone();
        let i = (flip_byte as usize) % torn.len();
        torn[i] ^= 1 << flip_bit;
        prop_assert!(restore_machine(&torn, SimConfig::default()).is_err());
    }

    /// Perfect forwarding and real forwarding always agree functionally.
    #[test]
    fn perfect_forwarding_functional_equivalence(
        seeds in proptest::collection::vec(any::<u64>(), 1..6)
    ) {
        for seed in seeds {
            let scramble = |perfect: bool| -> u64 {
                let cfg = SimConfig {
                    perfect_forwarding: perfect,
                    ..SimConfig::default()
                };
                let mut m = Machine::new(cfg);
                let mut x = seed | 1;
                let objs: Vec<Addr> = (0..8).map(|_| m.malloc(16)).collect();
                let mut sum = 0u64;
                for i in 0..64u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let o = objs[(x >> 33) as usize % 8];
                    match x % 3 {
                        0 => m.store_word(o + 8, x),
                        1 => sum = sum.wrapping_add(m.load_word(o + 8)),
                        _ => {
                            let t = m.malloc(16);
                            relocate(&mut m, o, t, 2);
                        }
                    }
                    let _ = i;
                }
                sum
            };
            prop_assert_eq!(scramble(false), scramble(true));
        }
    }

    /// Every walker in the simulator follows a chain through the same §3.2
    /// hop guard: on an acyclic chain each succeeds (and pointer
    /// comparison lands on `resolve`'s terminal); on a cyclic one each
    /// reports exactly `resolve`'s cycle as a typed fault.
    #[test]
    fn every_walker_agrees_with_resolve(
        len in 1usize..21,
        has_back in any::<bool>(),
        back_to in 0usize..20,
        hop_limit in 1u32..17,
    ) {
        let back = has_back.then_some(back_to % len);
        let (m, words) = machine_chain(hop_limit, len, back);
        let want = resolve(m.mem(), words[0], hop_limit);

        let (mut m, words) = machine_chain(hop_limit, len, back);
        agrees("try_load_word", want, m.try_load_word(words[0]))?;
        let (mut m, words) = machine_chain(hop_limit, len, back);
        agrees("try_free", want, m.try_free(words[0]))?;
        let (mut m, words) = machine_chain(hop_limit, len, back);
        let tgt = m.malloc(8);
        agrees("try_relocate", want, try_relocate(&mut m, words[0], tgt, 1))?;
        let (mut m, words) = machine_chain(hop_limit, len, back);
        let _ = take_last_fault();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            final_address(&mut m, words[0])
        }))
        .map_err(|_| take_last_fault().expect("a panicking walk records its fault"));
        if let (Ok(r), Ok(fa)) = (want, got) {
            prop_assert_eq!(r.final_addr, fa);
        }
        agrees("final_address", want, got)?;

        for model in [MemoryModel::Sc, MemoryModel::Tso] {
            let (m, words) = smp_chain(model, len, back);
            let want = resolve(m.mem(), words[0], DEFAULT_HOP_LIMIT);
            prop_assert_eq!(want.is_err(), back.is_some(), "{} chain built as asked", model);
            let (mut m, words) = smp_chain(model, len, back);
            agrees(&format!("{model} try_load"), want, m.try_load(1, words[0], 8))?;
            let (mut m, words) = smp_chain(model, len, back);
            let tgt = m.malloc(8);
            let got = m.try_relocate(0, words[0], tgt, 1);
            agrees(&format!("{model} try_relocate"), want, got)?;
        }
    }
}
