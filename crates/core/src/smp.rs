//! A small shared-memory multiprocessor model for the paper's §2.2
//! *Reducing False Sharing* optimization.
//!
//! In a cache-coherent system, false sharing occurs when two processors
//! access distinct data items that happen to fall within the same cache
//! line (the unit of coherence) and at least one access is a write: the
//! line ping-pongs between the caches although no real communication takes
//! place. Relocating the unrelated items to distinct lines fixes it — and
//! memory forwarding makes that relocation safe even when not all pointers
//! to the items can be updated.
//!
//! The model: each core has a private L1 with an MSI invalidation protocol
//! over a shared tagged memory, and its own cycle clock (cores are
//! synchronized explicitly with [`SmpMachine::barrier`]). Loads and stores
//! follow forwarding chains exactly as the uniprocessor machine does.
//! Coherence misses are classified as *true* or *false* sharing by
//! tracking which words of a line each core actually touched.
//!
//! ## Memory models
//!
//! The machine runs under one of two consistency models, selected by
//! [`SimConfig::memory_model`](crate::MemoryModel):
//!
//! - **SC** (the default): every store is globally visible the moment it
//!   executes. This path is bit-identical to the pre-TSO machine.
//! - **TSO**: each core issues stores into a private FIFO *store buffer*
//!   ([`SmpConfig::sb_entries`] deep). The issuing core forwards its own
//!   buffered values to later loads and chain walks; remote cores observe
//!   a store only once it **drains** to coherent memory. Program stores
//!   resolve their forwarding chain at the drain (the coherent write),
//!   and the drain is charged through the ordinary timed access path.
//!   [`SmpMachine::fence`], [`SmpMachine::store_release`],
//!   [`SmpMachine::lock`]/[`SmpMachine::unlock`] and
//!   [`SmpMachine::barrier`] are the drain points. Under TSO,
//!   [`SmpMachine::relocate`] buffers both the data copy and the
//!   forwarding-bit install — which opens exactly the publication race
//!   window (a remote access racing an undrained fbit install) that the
//!   `memfwd-analyze` certifier's MF010/MF011/MF012 diagnostics exist to
//!   flag.

use crate::config::{MemoryModel, SimConfig};
use crate::fault::{record_last_fault, MachineFault};
use crate::inject::{Corruption, InjectKind, Injector};
use memfwd_cache::CacheLevel;
use memfwd_tagmem::{validate_access, Addr, Heap, Pool, TaggedMemory, DEFAULT_HOP_LIMIT};
use std::collections::{HashMap, VecDeque};

/// Configuration of the SMP model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpConfig {
    /// Number of processors.
    pub cores: usize,
    /// Cache line size (the coherence unit).
    pub line_bytes: u64,
    /// L1 hit latency in cycles.
    pub hit_latency: u64,
    /// Latency of a miss serviced by memory (or another cache).
    pub miss_latency: u64,
    /// Extra latency when a miss also had to invalidate remote copies.
    pub invalidate_latency: u64,
    /// Extra cycles per forwarding hop.
    pub fwd_hop_penalty: u64,
    /// Store-buffer capacity per core under
    /// [`MemoryModel::Tso`]; issuing a store into a full buffer
    /// drains the oldest entry first. Ignored under SC.
    pub sb_entries: usize,
}

impl Default for SmpConfig {
    fn default() -> Self {
        SmpConfig {
            cores: 4,
            line_bytes: 64,
            hit_latency: 1,
            miss_latency: 60,
            invalidate_latency: 20,
            fwd_hop_penalty: 4,
            sb_entries: 8,
        }
    }
}

/// One entry of the optional SMP event trace (see
/// [`SmpMachine::enable_event_trace`]).
///
/// The trace records the logical shared-memory behaviour of a campaign —
/// which core touched which word, where the global barriers fell, and
/// (under TSO) where stores entered and left the store buffers — in
/// execution order. It is the input to the happens-before race detector
/// in `memfwd-analyze`.
///
/// Under SC the trace contains only [`SmpEvent::Access`],
/// [`SmpEvent::Barrier`], and whichever explicit synchronization events
/// (`Fence`/`Acquire`/`Release`/`Lock`/`Unlock`) the campaign invokes —
/// a campaign that calls none produces exactly the pre-TSO trace. The
/// buffer events (`StoreBuffered`/`FbitInstall`/`Drain`) appear only
/// under [`MemoryModel::Tso`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpEvent {
    /// A coherent access by `core` to the word at `word` (a word-base
    /// address). Forwarding-chain reads during a walk and the
    /// forwarding-address installs done by [`SmpMachine::relocate`] appear
    /// here too — chain words are shared data like any other. Under TSO a
    /// store's `Access` is emitted when it *drains* (its coherent write);
    /// buffer-forwarded loads emit an `Access` read at the forwarded word.
    Access {
        /// The accessing core.
        core: usize,
        /// Word-base address of the touched word.
        word: Addr,
        /// True for a store (including a forwarding-address install).
        is_store: bool,
    },
    /// A global [`SmpMachine::barrier`].
    Barrier,
    /// TSO: `core` issued a store to `word` into its store buffer. The
    /// address is the *virtual* (pre-walk) word; the eventual coherent
    /// write appears as the matching [`SmpEvent::Drain`].
    StoreBuffered {
        /// The issuing core.
        core: usize,
        /// Word-base address the store names (pre-walk).
        word: Addr,
    },
    /// TSO: `core` issued a forwarding-bit install (`word` → `to`) into
    /// its store buffer — the publication step of
    /// [`SmpMachine::relocate`].
    FbitInstall {
        /// The relocating core.
        core: usize,
        /// The old home: the chain-terminal word being turned into a
        /// forwarding word.
        word: Addr,
        /// The new home the install forwards to.
        to: Addr,
    },
    /// TSO: the oldest entry of `core`'s store buffer reached coherent
    /// memory. `word` is the *resolved* (post-walk) word actually
    /// written; entries drain in FIFO issue order, so the n-th `Drain` of
    /// a core completes its n-th undrained `StoreBuffered`/`FbitInstall`.
    Drain {
        /// The draining core.
        core: usize,
        /// Word-base address of the coherent write.
        word: Addr,
    },
    /// A full fence by `core` ([`SmpMachine::fence`]): drains the store
    /// buffer. A fence orders the fencing core's own accesses; it creates
    /// no cross-core happens-before edge by itself.
    Fence {
        /// The fencing core.
        core: usize,
    },
    /// An acquire load of `word` by `core`
    /// ([`SmpMachine::load_acquire`]): synchronizes-with the latest
    /// [`SmpEvent::Release`] of the same word.
    Acquire {
        /// The acquiring core.
        core: usize,
        /// Word-base address of the sync word (pre-walk).
        word: Addr,
    },
    /// A release store of `word` by `core`
    /// ([`SmpMachine::store_release`]): drains the buffer, then publishes.
    Release {
        /// The releasing core.
        core: usize,
        /// Word-base address of the sync word (pre-walk).
        word: Addr,
    },
    /// Per-word lock acquisition ([`SmpMachine::lock`]):
    /// synchronizes-with the latest [`SmpEvent::Unlock`] of `word`.
    Lock {
        /// The acquiring core.
        core: usize,
        /// Word-base address of the lock word.
        word: Addr,
    },
    /// Per-word lock release ([`SmpMachine::unlock`]).
    Unlock {
        /// The releasing core.
        core: usize,
        /// Word-base address of the lock word.
        word: Addr,
    },
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Loads issued by this core.
    pub loads: u64,
    /// Stores issued by this core.
    pub stores: u64,
    /// L1 hits.
    pub hits: u64,
    /// Misses of any kind.
    pub misses: u64,
    /// Misses caused by coherence (a remote write invalidated our copy, or
    /// our write had to invalidate remote copies).
    pub coherence_misses: u64,
    /// Coherence misses where the conflicting cores touched disjoint words
    /// of the line — false sharing.
    pub false_sharing_misses: u64,
    /// References that dereferenced at least one forwarding address.
    pub forwarded: u64,
    /// TSO: loads (and chain-walk reads) satisfied by forwarding from this
    /// core's own store buffer.
    pub sb_forwards: u64,
    /// TSO: store-buffer entries drained to coherent memory. Note that
    /// under TSO [`CoreStats::stores`] counts coherent writes, i.e. stores
    /// are counted when they drain, not when they issue.
    pub sb_drains: u64,
    /// Explicit fences executed ([`SmpMachine::fence`]).
    pub fences: u64,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct LineInfo {
    /// Which cores hold the line (bitmask).
    pub(crate) sharers: u32,
    /// Core holding the line modified, if any.
    pub(crate) owner: Option<usize>,
    /// Per-core mask of words of this line the core has touched since it
    /// last (re)acquired the line.
    pub(crate) touched: HashMap<usize, u64>,
    /// Word mask written by the last writer.
    pub(crate) written: u64,
}

/// One pending store-buffer write (TSO only; always empty under SC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SbWrite {
    /// A demand store: the forwarding chain from `addr` is resolved at
    /// drain time (the coherent write), mirroring a real store buffer
    /// whose entries are (virtual address, value).
    Store { addr: Addr, size: u64, value: u64 },
    /// A relocation data copy: written raw to `addr` at drain (the target
    /// of a relocation is written directly, exactly as under SC).
    Copy { addr: Addr, value: u64 },
    /// A forwarding-bit install: `word` becomes a forwarding word to
    /// `fwd_to` when this entry drains. Until then, only the issuing core
    /// sees the redirect (through buffer-aware chain walks).
    Install { word: Addr, fwd_to: Addr },
}

pub(crate) struct Core {
    pub(crate) l1: CacheLevel,
    pub(crate) now: u64,
    pub(crate) stats: CoreStats,
    /// FIFO store buffer (TSO). Empty at all times under SC.
    pub(crate) sb: VecDeque<SbWrite>,
}

/// The issuing core's youngest buffered view of `word`, if any: the
/// (value, fbit) pair a buffer-aware read of that word observes.
fn sb_peek(sb: &VecDeque<SbWrite>, word: Addr) -> Option<(u64, bool)> {
    sb.iter().rev().find_map(|w| match *w {
        SbWrite::Install { word: iw, fwd_to } if iw.word_base() == word => Some((fwd_to.0, true)),
        SbWrite::Copy { addr, value } if addr.word_base() == word => Some((value, false)),
        SbWrite::Store { addr, size, value } if addr == word && size == 8 => Some((value, false)),
        _ => None,
    })
}

/// The multiprocessor machine.
///
/// # Example
///
/// ```
/// use memfwd::{SmpConfig, SmpMachine};
///
/// let mut smp = SmpMachine::new(SmpConfig::default(), Default::default());
/// let a = smp.malloc(16);
/// smp.store(0, a, 8, 7);
/// smp.barrier();
/// assert_eq!(smp.load(1, a, 8), 7);
/// ```
pub struct SmpMachine {
    pub(crate) cfg: SmpConfig,
    pub(crate) sim: SimConfig,
    pub(crate) mem: TaggedMemory,
    pub(crate) heap: Heap,
    pub(crate) cores: Vec<Core>,
    pub(crate) lines: HashMap<u64, LineInfo>,
    pub(crate) injector: Option<Injector>,
    pub(crate) injected_faults: u64,
    pub(crate) fault_repairs: u64,
    /// Holders of the per-word locks ([`SmpMachine::lock`]): word → core.
    pub(crate) lock_holders: HashMap<u64, usize>,
    /// Optional event trace for the happens-before race detector. Purely
    /// observational — enabling it changes no timing or statistics — and
    /// transient: snapshots neither save nor restore it.
    pub(crate) events: Option<Vec<SmpEvent>>,
}

impl SmpMachine {
    /// Builds an SMP machine; `sim` supplies the heap layout parameters.
    pub fn new(cfg: SmpConfig, sim: SimConfig) -> SmpMachine {
        assert!(cfg.cores >= 1 && cfg.cores <= 32);
        let l1cfg = memfwd_cache::CacheLevelConfig {
            size_bytes: 16 * 1024,
            assoc: 2,
            hit_latency: cfg.hit_latency,
        };
        SmpMachine {
            mem: TaggedMemory::new(),
            heap: Heap::new(sim.heap_base, sim.heap_capacity),
            cores: (0..cfg.cores)
                .map(|_| Core {
                    l1: CacheLevel::new(l1cfg, cfg.line_bytes),
                    now: 0,
                    stats: CoreStats::default(),
                    sb: VecDeque::new(),
                })
                .collect(),
            lines: HashMap::new(),
            injector: sim.fault_injection.map(Injector::new),
            injected_faults: 0,
            fault_repairs: 0,
            lock_holders: HashMap::new(),
            events: None,
            cfg,
            sim,
        }
    }

    /// Starts recording shared-memory events (accesses and barriers) for
    /// the happens-before race detector, discarding any prior trace. The
    /// trace is observational only: timing, coherence behaviour and
    /// statistics are identical with it on or off.
    pub fn enable_event_trace(&mut self) {
        self.events = Some(Vec::new());
    }

    /// Stops recording and returns the trace collected since
    /// [`SmpMachine::enable_event_trace`], or `None` if tracing was never
    /// enabled.
    pub fn take_event_trace(&mut self) -> Option<Vec<SmpEvent>> {
        self.events.take()
    }

    fn note_event(&mut self, ev: SmpEvent) {
        if let Some(events) = self.events.as_mut() {
            events.push(ev);
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The coherence-unit size.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.line_bytes
    }

    /// Read-only view of the shared tagged memory.
    pub fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core: usize) -> CoreStats {
        self.cores[core].stats
    }

    /// Corruptions injected by the deterministic fault-injection engine.
    pub fn injected_faults(&self) -> u64 {
        self.injected_faults
    }

    /// Injected corruptions repaired by the auto-recovery path.
    pub fn fault_repairs(&self) -> u64 {
        self.fault_repairs
    }

    /// Consults the injector at the head of a coherent access by `core`
    /// and, if a roll hits, corrupts the target word — exactly the
    /// uniprocessor machine's adversary, here racing against all cores'
    /// accesses to shared memory. In recovery mode the corruption is
    /// repaired immediately (the repair is charged to the victim core like
    /// a trap-handler invalidation), so the access that follows always
    /// sees functionally correct memory.
    fn maybe_inject(&mut self, core: usize, addr: Addr) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let scramble = inj.roll_chain_scramble();
        let flip = !scramble && inj.roll_fbit_flip();
        let recover = inj.config().recover;
        if !(scramble || flip) {
            return;
        }
        let word = addr.word_base();
        if word.is_null() {
            return;
        }
        let (saved_value, saved_fbit) = self.mem.unforwarded_read(word);
        let kind = if scramble {
            InjectKind::ChainScramble
        } else {
            InjectKind::FbitFlip
        };
        match kind {
            InjectKind::ChainScramble => self.mem.unforwarded_write(word, word.0, true),
            InjectKind::FbitFlip => self.mem.set_fbit(word, true),
        }
        self.injected_faults += 1;
        if let Some(inj) = self.injector.as_mut() {
            inj.record(Corruption {
                word,
                saved_value,
                saved_fbit,
                kind,
            });
        }
        if recover {
            let pending = self
                .injector
                .as_mut()
                .map(Injector::drain_log)
                .unwrap_or_default();
            if !pending.is_empty() {
                // Exception dispatch plus one coherent repair write each.
                self.cores[core].now += self.cfg.miss_latency;
                for c in pending.iter().rev() {
                    self.mem
                        .unforwarded_write(c.word, c.saved_value, c.saved_fbit);
                    self.cores[core].now += self.cfg.hit_latency;
                    self.fault_repairs += 1;
                }
            }
        }
    }

    /// Aggregated statistics over all cores.
    pub fn total_stats(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.cores {
            t.loads += c.stats.loads;
            t.stores += c.stats.stores;
            t.hits += c.stats.hits;
            t.misses += c.stats.misses;
            t.coherence_misses += c.stats.coherence_misses;
            t.false_sharing_misses += c.stats.false_sharing_misses;
            t.forwarded += c.stats.forwarded;
            t.sb_forwards += c.stats.sb_forwards;
            t.sb_drains += c.stats.sb_drains;
            t.fences += c.stats.fences;
        }
        t
    }

    /// True when the machine runs under [`MemoryModel::Tso`].
    pub fn is_tso(&self) -> bool {
        self.sim.memory_model == MemoryModel::Tso
    }

    /// The memory model the machine runs under.
    pub fn memory_model(&self) -> MemoryModel {
        self.sim.memory_model
    }

    /// Pending (undrained) store-buffer entries of `core`. Always 0
    /// under SC.
    pub fn store_buffer_depth(&self, core: usize) -> usize {
        self.cores[core].sb.len()
    }

    /// Execution time so far: the slowest core's clock.
    pub fn cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.now).max().unwrap_or(0)
    }

    /// Fallible [`SmpMachine::barrier`].
    ///
    /// # Errors
    ///
    /// Under TSO a barrier drains every core's store buffer first, and a
    /// drain's chain resolution can raise any load/store fault (e.g.
    /// [`MachineFault::ForwardingCycle`]). Under SC it cannot fail.
    pub fn try_barrier(&mut self) -> Result<(), MachineFault> {
        for core in 0..self.cores.len() {
            self.try_drain(core)?;
        }
        let max = self.cycles();
        for c in &mut self.cores {
            c.now = max;
        }
        self.note_event(SmpEvent::Barrier);
        Ok(())
    }

    /// Synchronizes all core clocks to the slowest (a barrier). Under TSO
    /// this is also a global drain point: every buffered store reaches
    /// coherent memory before any core proceeds.
    ///
    /// # Panics
    ///
    /// Under TSO, panics if a deferred drain faults
    /// ([`SmpMachine::try_barrier`] is the non-panicking twin); under SC
    /// it never panics.
    pub fn barrier(&mut self) {
        if let Err(fault) = self.try_barrier() {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Drains the oldest store-buffer entry of `core` to coherent memory,
    /// charging the coherent write (and, for demand stores, the chain
    /// walk it resolves) to `core`'s clock. Returns `Ok(false)` when the
    /// buffer is empty.
    ///
    /// # Errors
    ///
    /// A demand-store drain resolves its forwarding chain here, so it can
    /// raise any fault [`SmpMachine::try_store`] predicts — store-buffer
    /// faults are imprecise: they surface at the drain point, not at the
    /// issuing store.
    pub fn try_drain_one(&mut self, core: usize) -> Result<bool, MachineFault> {
        let Some(entry) = self.cores[core].sb.pop_front() else {
            return Ok(false);
        };
        match entry {
            SbWrite::Store { addr, size, value } => {
                // Resolved against coherent memory: every older entry has
                // already drained, and younger entries have not yet
                // happened globally.
                let final_addr = self.try_walk(core, addr)?;
                self.validate_final(final_addr, size, true)?;
                let lat = self.access(core, final_addr, size, true);
                self.cores[core].now += lat;
                self.mem.write_data(final_addr, size, value);
                self.note_event(SmpEvent::Drain {
                    core,
                    word: final_addr.word_base(),
                });
            }
            SbWrite::Copy { addr, value } => {
                let lat = self.access(core, addr, 8, true);
                self.cores[core].now += lat;
                self.mem.write_data(addr, 8, value);
                self.note_event(SmpEvent::Drain {
                    core,
                    word: addr.word_base(),
                });
            }
            SbWrite::Install { word, fwd_to } => {
                // The invalidate-based fbit install of §5: a coherent
                // write of the forwarding word.
                let lat = self.access(core, word.word_base(), 8, true);
                self.cores[core].now += lat;
                self.mem.unforwarded_write(word, fwd_to.0, true);
                self.note_event(SmpEvent::Drain {
                    core,
                    word: word.word_base(),
                });
            }
        }
        self.cores[core].stats.sb_drains += 1;
        Ok(true)
    }

    /// Drains `core`'s store buffer completely (no-op under SC).
    ///
    /// # Errors
    ///
    /// As for [`SmpMachine::try_drain_one`].
    pub fn try_drain(&mut self, core: usize) -> Result<(), MachineFault> {
        while self.try_drain_one(core)? {}
        Ok(())
    }

    /// Fallible [`SmpMachine::fence`].
    ///
    /// # Errors
    ///
    /// As for [`SmpMachine::try_drain_one`].
    pub fn try_fence(&mut self, core: usize) -> Result<(), MachineFault> {
        self.try_drain(core)?;
        self.cores[core].stats.fences += 1;
        self.note_event(SmpEvent::Fence { core });
        Ok(())
    }

    /// A full fence by `core`: drains its store buffer, ordering all
    /// earlier stores before anything that follows *on this core*. A
    /// fence alone creates no cross-core happens-before edge — pair a
    /// [`SmpMachine::store_release`] with a [`SmpMachine::load_acquire`]
    /// (or use a barrier) to hand data to another core.
    ///
    /// # Panics
    ///
    /// Panics if a deferred drain faults ([`SmpMachine::try_fence`] is
    /// the non-panicking twin).
    pub fn fence(&mut self, core: usize) {
        if let Err(fault) = self.try_fence(core) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Charges `n` ALU cycles to `core`.
    pub fn compute(&mut self, core: usize, n: u64) {
        self.cores[core].now += n;
    }

    /// Fallible [`SmpMachine::malloc`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::HeapExhausted`].
    pub fn try_malloc(&mut self, bytes: u64) -> Result<Addr, MachineFault> {
        self.heap.alloc(bytes).map_err(MachineFault::from)
    }

    /// Allocates shared heap memory (allocation itself is untimed here).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted. [`SmpMachine::try_malloc`]
    /// is the non-panicking twin.
    pub fn malloc(&mut self, bytes: u64) -> Addr {
        self.try_malloc(bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`SmpMachine::pool_alloc`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::PoolExhausted`].
    pub fn try_pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Result<Addr, MachineFault> {
        pool.alloc(&mut self.heap, bytes)
            .map_err(|_| MachineFault::PoolExhausted { requested: bytes })
    }

    /// Allocates from a relocation pool.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted.
    /// [`SmpMachine::try_pool_alloc`] is the non-panicking twin.
    pub fn pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Addr {
        self.try_pool_alloc(pool, bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`SmpMachine::pool_alloc_aligned`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::PoolExhausted`].
    pub fn try_pool_alloc_aligned(
        &mut self,
        pool: &mut Pool,
        bytes: u64,
        align: u64,
    ) -> Result<Addr, MachineFault> {
        pool.alloc_aligned(&mut self.heap, bytes, align)
            .map_err(|_| MachineFault::PoolExhausted { requested: bytes })
    }

    /// Allocates an `align`-aligned chunk from a relocation pool — the
    /// placement primitive of the false-sharing fix (items must land in
    /// distinct cache lines).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted.
    /// [`SmpMachine::try_pool_alloc_aligned`] is the non-panicking twin.
    pub fn pool_alloc_aligned(&mut self, pool: &mut Pool, bytes: u64, align: u64) -> Addr {
        self.try_pool_alloc_aligned(pool, bytes, align)
            .unwrap_or_else(|fault| {
                record_last_fault(fault);
                panic!("{fault}");
            })
    }

    fn word_mask(&self, addr: Addr, size: u64) -> (u64, u64) {
        let line = addr.0 / self.cfg.line_bytes;
        let word_in_line = (addr.0 % self.cfg.line_bytes) / 8;
        let words = size.div_ceil(8).max(1);
        let mut mask = 0u64;
        for w in 0..words {
            mask |= 1 << (word_in_line + w).min(63);
        }
        (line, mask)
    }

    /// One coherent access by `core`. Returns the access latency.
    fn access(&mut self, core: usize, addr: Addr, size: u64, is_store: bool) -> u64 {
        self.note_event(SmpEvent::Access {
            core,
            word: addr.word_base(),
            is_store,
        });
        let (line, mask) = self.word_mask(addr, size);
        let info = self.lines.entry(line).or_default();
        let had_copy = self.cores[core].l1.lookup(line);
        let bit = 1u32 << core;

        // Valid for a load if we are a sharer; for a store only if we are
        // the exclusive owner.
        let coherent = if is_store {
            info.owner == Some(core) && info.sharers == bit
        } else {
            info.sharers & bit != 0
        };

        let mut latency;
        if had_copy && coherent {
            latency = self.cfg.hit_latency;
            self.cores[core].stats.hits += 1;
        } else {
            latency = self.cfg.miss_latency;
            self.cores[core].stats.misses += 1;
            // Was this a coherence miss? We had lost (or never upgraded)
            // the line while some other core held it.
            let remote = info.sharers & !bit != 0;
            if remote && (is_store || info.owner.is_some_and(|o| o != core)) {
                self.cores[core].stats.coherence_misses += 1;
                // False sharing: the words we access are disjoint from the
                // words the conflicting writer wrote.
                let conflict_written = info.written;
                let ours = mask | info.touched.get(&core).copied().unwrap_or(0);
                if conflict_written & ours == 0 && (is_store || conflict_written != 0) {
                    self.cores[core].stats.false_sharing_misses += 1;
                }
            }
            if is_store {
                if remote {
                    latency += self.cfg.invalidate_latency;
                    // Invalidate all remote copies.
                    for other in 0..self.cores.len() {
                        if other != core && info.sharers & (1 << other) != 0 {
                            self.cores[other].l1.invalidate(line);
                            info.touched.remove(&other);
                        }
                    }
                }
                info.sharers = bit;
                info.owner = Some(core);
                info.written = mask;
            } else {
                // A load demotes a remote owner to sharer.
                if info.owner.is_some_and(|o| o != core) {
                    info.owner = None;
                }
                info.sharers |= bit;
            }
            if !self.cores[core].l1.probe(line) {
                self.cores[core].l1.fill(line, is_store);
            }
        }
        if is_store {
            info.written |= mask;
            info.owner = Some(core);
        }
        *info.touched.entry(core).or_default() |= mask;
        if is_store {
            self.cores[core].stats.stores += 1;
        } else {
            self.cores[core].stats.loads += 1;
        }
        latency
    }

    /// Fallible [`SmpMachine::load`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::NullDeref`], [`MachineFault::Misaligned`], or
    /// [`MachineFault::ForwardingCycle`].
    pub fn try_load(&mut self, core: usize, addr: Addr, size: u64) -> Result<u64, MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store: false });
        }
        validate_access(addr, size)?;
        self.maybe_inject(core, addr);
        if self.is_tso() {
            return self.tso_load(core, addr, size);
        }
        let final_addr = self.try_walk(core, addr)?;
        self.validate_final(final_addr, size, false)?;
        let lat = self.access(core, final_addr, size, false);
        self.cores[core].now += lat;
        Ok(self.mem.read_data(final_addr, size))
    }

    /// The TSO load path: a buffer-aware chain walk, then store-to-load
    /// forwarding from the core's own buffer (youngest exact match wins;
    /// a partial overlap drains the buffer and reads coherent memory —
    /// the conservative hardware answer to a forwarding-width mismatch).
    fn tso_load(&mut self, core: usize, addr: Addr, size: u64) -> Result<u64, MachineFault> {
        let final_addr = self.try_walk_tso(core, addr)?;
        self.validate_final(final_addr, size, false)?;
        let (lo, hi) = (final_addr.0, final_addr.0 + size);
        for w in self.cores[core].sb.iter().rev() {
            let (wlo, whi, exact) = match *w {
                SbWrite::Store {
                    addr: a,
                    size: s,
                    value,
                } => (
                    a.0,
                    a.0 + s,
                    (a == final_addr && s == size).then_some(value),
                ),
                SbWrite::Copy { addr: a, value } => (
                    a.0,
                    a.0 + 8,
                    (a == final_addr && size == 8).then_some(value),
                ),
                SbWrite::Install { word, .. } => {
                    let b = word.word_base().0;
                    (b, b + 8, None)
                }
            };
            if lo < whi && wlo < hi {
                // Youngest overlapping entry decides the outcome.
                if let Some(value) = exact {
                    self.note_event(SmpEvent::Access {
                        core,
                        word: final_addr.word_base(),
                        is_store: false,
                    });
                    self.cores[core].now += self.cfg.hit_latency;
                    let st = &mut self.cores[core].stats;
                    st.loads += 1;
                    st.hits += 1;
                    st.sb_forwards += 1;
                    return Ok(value);
                }
                self.try_drain(core)?;
                break;
            }
        }
        let lat = self.access(core, final_addr, size, false);
        self.cores[core].now += lat;
        Ok(self.mem.read_data(final_addr, size))
    }

    /// A coherent, forwarding-aware load by `core`.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or a forwarding cycle.
    /// [`SmpMachine::try_load`] is the non-panicking twin.
    pub fn load(&mut self, core: usize, addr: Addr, size: u64) -> u64 {
        self.try_load(core, addr, size).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`SmpMachine::store`].
    ///
    /// # Errors
    ///
    /// As for [`SmpMachine::try_load`].
    pub fn try_store(
        &mut self,
        core: usize,
        addr: Addr,
        size: u64,
        value: u64,
    ) -> Result<(), MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store: true });
        }
        validate_access(addr, size)?;
        self.maybe_inject(core, addr);
        if self.is_tso() {
            // Admit into the FIFO store buffer: the chain resolves (and
            // the coherent write happens) at the drain. A full buffer
            // drains its oldest entry to make room, so a drain-time fault
            // can surface from the admitting store.
            self.note_event(SmpEvent::StoreBuffered {
                core,
                word: addr.word_base(),
            });
            self.cores[core].now += self.cfg.hit_latency;
            self.cores[core]
                .sb
                .push_back(SbWrite::Store { addr, size, value });
            return self.sb_trim(core);
        }
        let final_addr = self.try_walk(core, addr)?;
        self.validate_final(final_addr, size, true)?;
        let lat = self.access(core, final_addr, size, true);
        self.cores[core].now += lat;
        self.mem.write_data(final_addr, size, value);
        Ok(())
    }

    /// Drains until the buffer is back within [`SmpConfig::sb_entries`].
    fn sb_trim(&mut self, core: usize) -> Result<(), MachineFault> {
        while self.cores[core].sb.len() > self.cfg.sb_entries.max(1) {
            self.try_drain_one(core)?;
        }
        Ok(())
    }

    /// A coherent, forwarding-aware store by `core`.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or a forwarding cycle.
    /// [`SmpMachine::try_store`] is the non-panicking twin.
    pub fn store(&mut self, core: usize, addr: Addr, size: u64, value: u64) {
        if let Err(fault) = self.try_store(core, addr, size, value) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Fallible [`SmpMachine::store_release`].
    ///
    /// # Errors
    ///
    /// As for [`SmpMachine::try_store`], plus any deferred drain fault.
    pub fn try_store_release(
        &mut self,
        core: usize,
        addr: Addr,
        size: u64,
        value: u64,
    ) -> Result<(), MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store: true });
        }
        validate_access(addr, size)?;
        self.maybe_inject(core, addr);
        // Release semantics: every earlier store of this core reaches
        // coherent memory before the releasing store itself does, so an
        // acquirer that observes the release observes everything before
        // it. The release store bypasses the buffer (write-through).
        self.try_drain(core)?;
        let final_addr = self.try_walk(core, addr)?;
        self.validate_final(final_addr, size, true)?;
        let lat = self.access(core, final_addr, size, true);
        self.cores[core].now += lat;
        self.mem.write_data(final_addr, size, value);
        self.note_event(SmpEvent::Release {
            core,
            word: addr.word_base(),
        });
        Ok(())
    }

    /// A release store: drains the store buffer, then stores
    /// write-through, publishing everything this core wrote so far to
    /// whichever core performs a matching [`SmpMachine::load_acquire`] of
    /// the same word. Under SC the drain is a no-op and the event still
    /// records the release→acquire edge for the certifier.
    ///
    /// # Panics
    ///
    /// As for [`SmpMachine::store`]
    /// ([`SmpMachine::try_store_release`] is the non-panicking twin).
    pub fn store_release(&mut self, core: usize, addr: Addr, size: u64, value: u64) {
        if let Err(fault) = self.try_store_release(core, addr, size, value) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Fallible [`SmpMachine::load_acquire`].
    ///
    /// # Errors
    ///
    /// As for [`SmpMachine::try_load`].
    pub fn try_load_acquire(
        &mut self,
        core: usize,
        addr: Addr,
        size: u64,
    ) -> Result<u64, MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store: false });
        }
        validate_access(addr, size)?;
        self.maybe_inject(core, addr);
        // The acquire edge is established before the read is performed,
        // so the read itself (and everything after it on this core) is
        // ordered after the matching release.
        self.note_event(SmpEvent::Acquire {
            core,
            word: addr.word_base(),
        });
        if self.is_tso() {
            return self.tso_load(core, addr, size);
        }
        let final_addr = self.try_walk(core, addr)?;
        self.validate_final(final_addr, size, false)?;
        let lat = self.access(core, final_addr, size, false);
        self.cores[core].now += lat;
        Ok(self.mem.read_data(final_addr, size))
    }

    /// An acquire load: synchronizes-with the latest
    /// [`SmpMachine::store_release`] of the same word, ordering this
    /// core's subsequent accesses after everything the releasing core
    /// published.
    ///
    /// # Panics
    ///
    /// As for [`SmpMachine::load`]
    /// ([`SmpMachine::try_load_acquire`] is the non-panicking twin).
    pub fn load_acquire(&mut self, core: usize, addr: Addr, size: u64) -> u64 {
        self.try_load_acquire(core, addr, size)
            .unwrap_or_else(|fault| {
                record_last_fault(fault);
                panic!("{fault}");
            })
    }

    /// Fallible [`SmpMachine::lock`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::NullDeref`] on a null lock word, plus any deferred
    /// drain fault.
    ///
    /// # Panics
    ///
    /// Panics if `core` (or any core) already holds the lock: the
    /// simulator executes one deterministic schedule, so acquiring a held
    /// lock is not contention — it is a campaign deadlock.
    pub fn try_lock(&mut self, core: usize, addr: Addr) -> Result<(), MachineFault> {
        let word = addr.word_base();
        if word.is_null() {
            return Err(MachineFault::NullDeref { is_store: true });
        }
        // An atomic RMW is a full fence on entry.
        self.try_drain(core)?;
        if let Some(&holder) = self.lock_holders.get(&word.0) {
            panic!(
                "lock {:#x} is already held by core {holder}: the deterministic schedule deadlocks",
                word.0
            );
        }
        self.lock_holders.insert(word.0, core);
        // The acquire edge precedes the lock word's RMW access.
        self.note_event(SmpEvent::Lock { core, word });
        let lat = self.access(core, word, 8, true);
        self.cores[core].now += lat;
        self.mem.write_data(word, 8, 1);
        Ok(())
    }

    /// Acquires the per-word lock at `addr`'s word: a fencing atomic RMW
    /// that synchronizes-with the previous [`SmpMachine::unlock`] of the
    /// same word. Lock words are ordinary heap words; they must not be
    /// relocated.
    ///
    /// # Panics
    ///
    /// Panics on a null lock word, a deferred drain fault
    /// ([`SmpMachine::try_lock`] is the non-panicking twin), or
    /// acquiring a lock that is already held (a deterministic-schedule
    /// deadlock).
    pub fn lock(&mut self, core: usize, addr: Addr) {
        if let Err(fault) = self.try_lock(core, addr) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Fallible [`SmpMachine::unlock`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::NullDeref`] on a null lock word, plus any deferred
    /// drain fault.
    ///
    /// # Panics
    ///
    /// Panics if `core` does not hold the lock.
    pub fn try_unlock(&mut self, core: usize, addr: Addr) -> Result<(), MachineFault> {
        let word = addr.word_base();
        if word.is_null() {
            return Err(MachineFault::NullDeref { is_store: true });
        }
        match self.lock_holders.remove(&word.0) {
            Some(holder) if holder == core => {}
            holder => panic!(
                "core {core} unlocking {:#x} which it does not hold (holder: {holder:?})",
                word.0
            ),
        }
        // Everything written inside the critical section drains before
        // the lock word is released.
        self.try_drain(core)?;
        let lat = self.access(core, word, 8, true);
        self.cores[core].now += lat;
        self.mem.write_data(word, 8, 0);
        self.note_event(SmpEvent::Unlock { core, word });
        Ok(())
    }

    /// Releases the per-word lock at `addr`'s word, publishing the
    /// critical section to the next [`SmpMachine::lock`] of the same
    /// word.
    ///
    /// # Panics
    ///
    /// Panics on a null lock word, a deferred drain fault
    /// ([`SmpMachine::try_unlock`] is the non-panicking twin), or
    /// unlocking a lock this core does not hold.
    pub fn unlock(&mut self, core: usize, addr: Addr) {
        if let Err(fault) = self.try_unlock(core, addr) {
            record_last_fault(fault);
            panic!("{fault}");
        }
    }

    /// Re-validates the address a forwarding walk landed on: a healthy
    /// chain preserves the (already validated) access offset, but a
    /// corrupted forwarding word can point anywhere.
    fn validate_final(
        &self,
        final_addr: Addr,
        size: u64,
        is_store: bool,
    ) -> Result<(), MachineFault> {
        if final_addr.is_null() {
            return Err(MachineFault::NullDeref { is_store });
        }
        validate_access(final_addr, size)?;
        Ok(())
    }

    /// Resolves `addr` through the forwarding chain with coherent, timed
    /// reads of each chain word. Runs the hop counter with the accurate
    /// software cycle check of §3.2 (same switchover as the uniprocessor
    /// machine) instead of a blunt iteration guard.
    fn try_walk(&mut self, core: usize, addr: Addr) -> Result<Addr, MachineFault> {
        let mut cur = addr;
        let mut hops = 0u32;
        let mut counter = 0u32;
        let mut checking = false;
        // Lazily populated: `Vec::new` does not allocate, and nothing is
        // pushed until a hop-limit exception engages the accurate check.
        let mut scratch: Vec<Addr> = Vec::new();
        loop {
            // Word and forwarding bit in one page lookup.
            let (fwd, fbit) = self.mem.read_word_tagged(cur);
            if !fbit {
                break;
            }
            // The forwarding word itself is read coherently.
            let lat = self.access(core, cur.word_base(), 8, false);
            self.cores[core].now += lat + self.cfg.fwd_hop_penalty;
            let next = Addr(fwd) + cur.word_offset();
            hops += 1;
            counter += 1;
            if checking {
                if scratch.contains(&next.word_base()) {
                    return Err(MachineFault::ForwardingCycle {
                        at: next.word_base(),
                        hops,
                    });
                }
                scratch.push(next.word_base());
            } else if counter > DEFAULT_HOP_LIMIT {
                scratch.push(cur.word_base());
                scratch.push(next.word_base());
                checking = true;
                counter = 0;
            }
            cur = next;
        }
        if hops > 0 {
            self.cores[core].stats.forwarded += 1;
        }
        Ok(cur)
    }

    /// The TSO chain walk: as [`SmpMachine::try_walk`], but each chain
    /// word is read through the core's own store buffer first, so a core
    /// that buffered a forwarding-bit install already follows its own
    /// redirect (x86-style own-store visibility) while remote cores keep
    /// reading the un-installed word until the drain. Buffered chain
    /// reads hit at [`SmpConfig::hit_latency`] without touching the
    /// coherence state.
    fn try_walk_tso(&mut self, core: usize, addr: Addr) -> Result<Addr, MachineFault> {
        let mut cur = addr;
        let mut hops = 0u32;
        let mut counter = 0u32;
        let mut checking = false;
        let mut scratch: Vec<Addr> = Vec::new();
        loop {
            let buffered = sb_peek(&self.cores[core].sb, cur.word_base());
            let from_buffer = buffered.is_some();
            let (fwd, fbit) = buffered.unwrap_or_else(|| self.mem.read_word_tagged(cur));
            if !fbit {
                break;
            }
            if from_buffer {
                self.note_event(SmpEvent::Access {
                    core,
                    word: cur.word_base(),
                    is_store: false,
                });
                self.cores[core].now += self.cfg.hit_latency + self.cfg.fwd_hop_penalty;
                let st = &mut self.cores[core].stats;
                st.loads += 1;
                st.hits += 1;
                st.sb_forwards += 1;
            } else {
                let lat = self.access(core, cur.word_base(), 8, false);
                self.cores[core].now += lat + self.cfg.fwd_hop_penalty;
            }
            let next = Addr(fwd) + cur.word_offset();
            hops += 1;
            counter += 1;
            if checking {
                if scratch.contains(&next.word_base()) {
                    return Err(MachineFault::ForwardingCycle {
                        at: next.word_base(),
                        hops,
                    });
                }
                scratch.push(next.word_base());
            } else if counter > DEFAULT_HOP_LIMIT {
                scratch.push(cur.word_base());
                scratch.push(next.word_base());
                checking = true;
                counter = 0;
            }
            cur = next;
        }
        if hops > 0 {
            self.cores[core].stats.forwarded += 1;
        }
        Ok(cur)
    }

    /// The TSO relocation path: source-chain reads go through the store
    /// buffer (own pending installs are chased), and both the data copy
    /// and the forwarding-bit install are *buffered*, FIFO-ordered copy
    /// before install. Until the install drains, remote cores still see
    /// the old home — the publication window the certifier's
    /// MF010/MF011/MF012 diagnostics reason about.
    fn try_relocate_tso(
        &mut self,
        core: usize,
        src: Addr,
        tgt: Addr,
        n_words: u64,
    ) -> Result<(), MachineFault> {
        for i in 0..n_words {
            let mut cur = src.add_words(i);
            loop {
                let buffered = sb_peek(&self.cores[core].sb, cur.word_base());
                let from_buffer = buffered.is_some();
                let (val, fbit) = buffered.unwrap_or_else(|| self.mem.unforwarded_read(cur));
                if from_buffer {
                    self.note_event(SmpEvent::Access {
                        core,
                        word: cur.word_base(),
                        is_store: false,
                    });
                    self.cores[core].now += self.cfg.hit_latency;
                    let st = &mut self.cores[core].stats;
                    st.loads += 1;
                    st.hits += 1;
                    st.sb_forwards += 1;
                } else {
                    let lat = self.access(core, cur.word_base(), 8, false);
                    self.cores[core].now += lat;
                }
                if !fbit {
                    let t = tgt.add_words(i);
                    self.note_event(SmpEvent::StoreBuffered {
                        core,
                        word: t.word_base(),
                    });
                    self.cores[core].now += self.cfg.hit_latency;
                    self.cores[core].sb.push_back(SbWrite::Copy {
                        addr: t,
                        value: val,
                    });
                    self.sb_trim(core)?;
                    self.note_event(SmpEvent::FbitInstall {
                        core,
                        word: cur.word_base(),
                        to: t,
                    });
                    self.cores[core].now += self.cfg.hit_latency;
                    self.cores[core].sb.push_back(SbWrite::Install {
                        word: cur,
                        fwd_to: t,
                    });
                    self.sb_trim(core)?;
                    break;
                }
                cur = Addr(val);
            }
        }
        Ok(())
    }

    /// Relocates `n_words` from `src` to `tgt` (performed by `core`),
    /// leaving forwarding addresses — the §2.2 false-sharing fix. Under
    /// TSO the copy and the install are buffered: until they drain, the
    /// relocating core already follows its own redirect while remote
    /// cores still read the old home (the §5 publication window) — pair
    /// the relocation with a [`SmpMachine::store_release`] or a barrier
    /// before handing the data to another core.
    ///
    /// # Panics
    ///
    /// Under TSO, panics if a capacity-forced drain faults.
    pub fn relocate(&mut self, core: usize, src: Addr, tgt: Addr, n_words: u64) {
        assert!(src.is_aligned(8) && tgt.is_aligned(8));
        if self.is_tso() {
            if let Err(fault) = self.try_relocate_tso(core, src, tgt, n_words) {
                record_last_fault(fault);
                panic!("{fault}");
            }
            return;
        }
        for i in 0..n_words {
            let mut cur = src.add_words(i);
            loop {
                let (val, fbit) = self.mem.unforwarded_read(cur);
                let lat = self.access(core, cur.word_base(), 8, false);
                self.cores[core].now += lat;
                if !fbit {
                    let lat = self.access(core, tgt.add_words(i), 8, true);
                    self.cores[core].now += lat;
                    self.mem.write_data(tgt.add_words(i), 8, val);
                    self.mem.unforwarded_write(cur, tgt.add_words(i).0, true);
                    // The forwarding-address install rewrites the (shared)
                    // chain-terminal word; the race detector must see it as
                    // a store even though it bypasses the timed access path.
                    self.note_event(SmpEvent::Access {
                        core,
                        word: cur.word_base(),
                        is_store: true,
                    });
                    break;
                }
                cur = Addr(val);
            }
        }
    }
}

impl std::fmt::Debug for SmpMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmpMachine")
            .field("cores", &self.cores.len())
            .field("cycles", &self.cycles())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smp(cores: usize) -> SmpMachine {
        SmpMachine::new(
            SmpConfig {
                cores,
                ..SmpConfig::default()
            },
            SimConfig::default(),
        )
    }

    #[test]
    fn shared_memory_is_coherent() {
        let mut m = smp(2);
        let a = m.malloc(8);
        m.store(0, a, 8, 42);
        assert_eq!(m.load(1, a, 8), 42);
        m.store(1, a, 8, 43);
        assert_eq!(m.load(0, a, 8), 43);
    }

    #[test]
    fn write_write_ping_pong_counts_coherence_misses() {
        let mut m = smp(2);
        let a = m.malloc(64);
        for i in 0..10 {
            m.store(i % 2, a, 8, i as u64);
        }
        let t = m.total_stats();
        assert!(t.coherence_misses >= 8, "{t:?}");
        // Same word: TRUE sharing, not false.
        assert_eq!(t.false_sharing_misses, 0, "{t:?}");
    }

    #[test]
    fn disjoint_words_in_one_line_is_false_sharing() {
        let mut m = smp(2);
        let a = m.malloc(64); // one 64B line holds both counters
        for _ in 0..10 {
            m.store(0, a, 8, 1);
            m.store(1, a + 32, 8, 2);
        }
        let t = m.total_stats();
        assert!(t.coherence_misses >= 10, "{t:?}");
        assert!(
            t.false_sharing_misses >= 8,
            "disjoint words must classify as false sharing: {t:?}"
        );
    }

    #[test]
    fn separate_lines_do_not_ping_pong() {
        let mut m = smp(2);
        let a = m.malloc(256);
        for _ in 0..10 {
            m.store(0, a, 8, 1);
            m.store(1, a + 128, 8, 2); // different 64B line
        }
        let t = m.total_stats();
        assert_eq!(t.coherence_misses, 0, "{t:?}");
    }

    #[test]
    fn relocation_fixes_false_sharing_and_keeps_stale_pointers_working() {
        let mut m = smp(2);
        let shared = m.malloc(16); // two 8B counters in one line
        let stale0 = shared;
        let stale1 = shared + 8;
        m.store(0, stale0, 8, 5);
        m.store(1, stale1, 8, 6);
        // Fix: relocate each counter to its own line-aligned pool chunk.
        let mut pool0 = Pool::new(4096);
        let mut pool1 = Pool::new(4096);
        let line = m.line_bytes();
        let new0 = m.pool_alloc_aligned(&mut pool0, 64, line);
        let new1 = m.pool_alloc_aligned(&mut pool1, 64, line);
        m.relocate(0, stale0, new0, 1);
        m.relocate(1, stale1, new1, 1);
        m.barrier();
        let before = m.total_stats().coherence_misses;
        for _ in 0..20 {
            m.store(0, new0, 8, 1);
            m.store(1, new1, 8, 2);
        }
        let after = m.total_stats().coherence_misses;
        assert_eq!(after, before, "no ping-pong after relocation");
        // The stale pointers still observe the live values, via forwarding.
        assert_eq!(m.load(0, stale0, 8), 1);
        assert_eq!(m.load(0, stale1, 8), 2);
        assert!(m.total_stats().forwarded >= 2);
    }

    #[test]
    fn try_api_reports_typed_faults() {
        let mut m = smp(2);
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.mem.unforwarded_write(a, b.0, true);
        m.mem.unforwarded_write(b, a.0, true);
        assert!(matches!(
            m.try_load(0, a, 8),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        assert!(matches!(
            m.try_store(1, b, 8, 1),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        assert_eq!(
            m.try_load(0, Addr::NULL, 8),
            Err(MachineFault::NullDeref { is_store: false })
        );
        assert_eq!(
            m.try_load(0, a + 1, 4),
            Err(MachineFault::Misaligned {
                addr: a + 1,
                size: 4
            })
        );
        // The machine keeps working after typed faults.
        let c = m.malloc(8);
        assert_eq!(m.try_store(0, c, 8, 7), Ok(()));
        assert_eq!(m.try_load(1, c, 8), Ok(7));
    }

    #[test]
    fn smp_accurate_check_tolerates_long_chains() {
        let mut m = smp(1);
        let blocks: Vec<Addr> = (0..DEFAULT_HOP_LIMIT as u64 + 8)
            .map(|_| m.malloc(8))
            .collect();
        m.mem.write_data(*blocks.last().unwrap(), 8, 99);
        for w in blocks.windows(2) {
            m.mem.unforwarded_write(w[0], w[1].0, true);
        }
        assert_eq!(m.try_load(0, blocks[0], 8), Ok(99), "long != cyclic");
    }

    #[test]
    fn event_trace_records_accesses_and_barriers() {
        let mut m = smp(2);
        let a = m.malloc(16);
        m.enable_event_trace();
        m.store(0, a, 8, 1);
        m.barrier();
        assert_eq!(m.load(1, a, 8), 1);
        let ev = m.take_event_trace().expect("trace was enabled");
        assert_eq!(
            ev,
            vec![
                SmpEvent::Access {
                    core: 0,
                    word: a,
                    is_store: true
                },
                SmpEvent::Barrier,
                SmpEvent::Access {
                    core: 1,
                    word: a,
                    is_store: false
                },
            ]
        );
        assert_eq!(m.take_event_trace(), None, "taking clears the trace");
    }

    #[test]
    fn event_trace_sees_relocation_installs_and_walks() {
        let mut m = smp(2);
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.store(0, a, 8, 9);
        m.enable_event_trace();
        m.relocate(0, a, b, 1);
        m.barrier();
        assert_eq!(m.load(1, a, 8), 9, "stale pointer forwards");
        let ev = m.take_event_trace().expect("trace was enabled");
        // The relocation must surface a store to the old home (the
        // forwarding-address install) and the stale load must surface a
        // read of that chain word by the other core.
        assert!(ev.contains(&SmpEvent::Access {
            core: 0,
            word: a,
            is_store: true
        }));
        assert!(ev.contains(&SmpEvent::Access {
            core: 1,
            word: a,
            is_store: false
        }));
    }

    #[test]
    fn event_trace_does_not_perturb_timing_or_stats() {
        let run = |traced: bool| {
            let mut m = smp(2);
            let a = m.malloc(64);
            if traced {
                m.enable_event_trace();
            }
            for i in 0..10 {
                m.store(i % 2, a, 8, i as u64);
            }
            m.barrier();
            (m.cycles(), m.total_stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut m = smp(3);
        m.compute(0, 100);
        m.compute(1, 5);
        assert_eq!(m.cycles(), 100);
        m.barrier();
        m.compute(2, 1);
        assert_eq!(m.cycles(), 101);
    }

    #[test]
    fn load_sharing_does_not_invalidate() {
        let mut m = smp(4);
        let a = m.malloc(8);
        m.store(0, a, 8, 9);
        for c in 0..4 {
            assert_eq!(m.load(c, a, 8), 9);
        }
        let before = m.total_stats().misses;
        for c in 0..4 {
            assert_eq!(m.load(c, a, 8), 9);
        }
        assert_eq!(m.total_stats().misses, before, "read sharing is stable");
    }

    fn tso(cores: usize) -> SmpMachine {
        SmpMachine::new(
            SmpConfig {
                cores,
                ..SmpConfig::default()
            },
            SimConfig::default().with_memory_model(MemoryModel::Tso),
        )
    }

    #[test]
    fn tso_store_buffers_and_forwards_to_own_loads() {
        let mut m = tso(2);
        let a = m.malloc(8);
        m.store(0, a, 8, 7);
        assert_eq!(m.store_buffer_depth(0), 1);
        // Own load forwards from the store buffer...
        assert_eq!(m.load(0, a, 8), 7);
        // ...while the remote core still sees the stale memory word.
        assert_eq!(m.load(1, a, 8), 0);
        let t = m.total_stats();
        assert!(t.sb_forwards >= 1, "{t:?}");
        assert_eq!(t.sb_drains, 0, "{t:?}");
    }

    #[test]
    fn tso_fence_drains_and_publishes() {
        let mut m = tso(2);
        let a = m.malloc(8);
        m.store(0, a, 8, 7);
        assert_eq!(m.load(1, a, 8), 0, "undrained store is core-private");
        m.fence(0);
        assert_eq!(m.store_buffer_depth(0), 0);
        assert_eq!(m.load(1, a, 8), 7, "fence published the store");
        let t = m.total_stats();
        assert_eq!(t.fences, 1, "{t:?}");
        assert_eq!(t.sb_drains, 1, "{t:?}");
    }

    #[test]
    fn tso_capacity_drains_oldest_first() {
        let mut m = SmpMachine::new(
            SmpConfig {
                cores: 2,
                sb_entries: 2,
                ..SmpConfig::default()
            },
            SimConfig::default().with_memory_model(MemoryModel::Tso),
        );
        let a = m.malloc(32);
        m.store(0, a, 8, 1);
        m.store(0, a + 8, 8, 2);
        m.store(0, a + 16, 8, 3);
        assert_eq!(m.store_buffer_depth(0), 2);
        // FIFO: the capacity drain retired the oldest entry only.
        assert_eq!(m.load(1, a, 8), 1);
        assert_eq!(m.load(1, a + 8, 8), 0);
        assert_eq!(m.load(1, a + 16, 8), 0);
    }

    #[test]
    fn tso_sb_litmus_exhibits_store_load_reordering() {
        // Dekker/SB: each core stores its own flag then reads the other's.
        // With both stores buffered, both loads read the stale zeros — the
        // one reordering TSO permits. The same deterministic program order
        // under SC can never produce (0, 0).
        let mut m = tso(2);
        let x = m.malloc(8);
        let y = m.malloc(8);
        m.store(0, x, 8, 1);
        m.store(1, y, 8, 1);
        assert_eq!((m.load(0, y, 8), m.load(1, x, 8)), (0, 0));

        let mut m = smp(2);
        let x = m.malloc(8);
        let y = m.malloc(8);
        m.store(0, x, 8, 1);
        m.store(1, y, 8, 1);
        assert_eq!((m.load(0, y, 8), m.load(1, x, 8)), (1, 1));
    }

    #[test]
    fn tso_release_publishes_program_order_prefix() {
        let mut m = tso(2);
        let data = m.malloc(8);
        let flag = m.malloc(8);
        m.store(0, data, 8, 41);
        m.store_release(0, flag, 8, 1);
        assert_eq!(m.store_buffer_depth(0), 0, "release drains the buffer");
        // The message-passing idiom: acquire of the flag sees the payload.
        assert_eq!(m.load_acquire(1, flag, 8), 1);
        assert_eq!(m.load(1, data, 8), 41);
    }

    #[test]
    fn tso_partial_overlap_drains_instead_of_forwarding() {
        let mut m = tso(2);
        let a = m.malloc(8);
        m.store(0, a, 8, 0x1122_3344_5566_7788);
        // A narrower load overlapping the buffered word cannot forward;
        // the buffer drains and the load reads coherent memory.
        assert_eq!(m.load(0, a, 4), 0x5566_7788);
        assert_eq!(m.store_buffer_depth(0), 0);
        assert_eq!(m.total_stats().sb_drains, 1);
    }

    #[test]
    fn tso_lock_hands_off_critical_section() {
        let mut m = tso(2);
        let l = m.malloc(8);
        let d = m.malloc(8);
        m.lock(0, l);
        m.store(0, d, 8, 9);
        m.unlock(0, l); // drains before releasing the lock word
        m.lock(1, l);
        assert_eq!(m.load(1, d, 8), 9);
        m.unlock(1, l);
        assert_eq!(m.mem().read_data(l, 8), 0, "lock word released");
    }

    #[test]
    #[should_panic(expected = "deterministic schedule deadlocks")]
    fn tso_relocking_a_held_word_deadlocks() {
        let mut m = tso(2);
        let l = m.malloc(8);
        m.lock(0, l);
        m.lock(1, l);
    }

    #[test]
    fn tso_relocate_has_a_publication_window() {
        let mut m = tso(2);
        let old = m.malloc(16);
        m.store(0, old, 8, 111);
        m.store(0, old + 8, 8, 222);
        m.fence(0);
        let new = m.malloc(16);
        m.relocate(0, old, new, 2);
        // The install is still buffered: the relocating core's own store
        // through the stale pointer is redirected to the new home...
        m.store(0, old, 8, 999);
        assert_eq!(m.load(0, old, 8), 999);
        // ...but the remote core reads the un-installed old word.
        assert_eq!(m.load(1, old, 8), 111, "remote sees pre-install data");
        m.fence(0);
        // Post-drain the whole machine agrees, via forwarding.
        assert_eq!(m.load(1, old, 8), 999);
        assert_eq!(m.load(1, old + 8, 8), 222);
        assert!(m.total_stats().forwarded >= 2, "{:?}", m.total_stats());
    }

    #[test]
    fn tso_barrier_is_a_global_drain() {
        let mut m = tso(3);
        let a = m.malloc(24);
        for c in 0..3 {
            m.store(c, a.add_words(c as u64), 8, c as u64 + 1);
        }
        m.barrier();
        for c in 0..3 {
            assert_eq!(m.store_buffer_depth(c), 0);
        }
        for c in 0..3 {
            assert_eq!(m.load(0, a.add_words(c as u64), 8), c as u64 + 1);
        }
    }

    #[test]
    fn tso_event_trace_records_buffer_lifecycle() {
        let mut m = tso(2);
        let a = m.malloc(8);
        m.enable_event_trace();
        m.store(0, a, 8, 1);
        m.fence(0);
        let ev = m.take_event_trace().unwrap_or_default();
        let word = a.word_base();
        assert!(ev
            .iter()
            .any(|e| matches!(e, SmpEvent::StoreBuffered { core: 0, word: w } if *w == word)));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SmpEvent::Drain { core: 0, word: w } if *w == word)));
        assert!(ev.iter().any(|e| matches!(e, SmpEvent::Fence { core: 0 })));
    }

    #[test]
    fn tso_relocate_trace_records_install_and_drain() {
        let mut m = tso(2);
        let old = m.malloc(8);
        m.store(0, old, 8, 5);
        m.fence(0);
        let new = m.malloc(8);
        m.enable_event_trace();
        m.relocate(0, old, new, 1);
        m.fence(0);
        let ev = m.take_event_trace().unwrap_or_default();
        assert!(ev.iter().any(
            |e| matches!(e, SmpEvent::FbitInstall { core: 0, word, to } if *word == old && *to == new)
        ));
        // Copy then install drain in FIFO order.
        let drains: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                SmpEvent::Drain { word, .. } => Some(*word),
                _ => None,
            })
            .collect();
        assert_eq!(drains, vec![new.word_base(), old.word_base()]);
    }

    #[test]
    fn sc_mode_never_buffers() {
        let mut m = smp(2);
        let a = m.malloc(8);
        m.store(0, a, 8, 7);
        assert_eq!(m.store_buffer_depth(0), 0);
        assert_eq!(m.load(1, a, 8), 7, "SC stores are immediately visible");
        let t = m.total_stats();
        assert_eq!((t.sb_forwards, t.sb_drains, t.fences), (0, 0, 0), "{t:?}");
        // Fences and drains are no-ops apart from the fence counter.
        m.fence(0);
        assert_eq!(m.total_stats().fences, 1);
    }
}
