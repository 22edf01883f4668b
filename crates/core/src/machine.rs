//! The simulated machine: tagged memory + cache hierarchy + out-of-order
//! pipeline, with memory forwarding wired into every demand reference.

use crate::config::SimConfig;
use crate::fault::{record_last_fault, MachineFault};
use crate::inject::{Corruption, InjectKind, Injector};
use crate::paging::PageCache;
use crate::stats::{FwdStats, RunStats, HOPS_BUCKETS};
use crate::trace::{Trace, TraceKind, TraceRecord};
use crate::trap::{FaultHandler, TrapInfo, TrapOutcome, MAX_FAULT_RETRIES};
use memfwd_cache::{AccessKind, Hierarchy};
use memfwd_cpu::{OpClass, Pipeline, SpecQueue, Token};
use memfwd_tagmem::{validate_access, Addr, Heap, Pool, TaggedMemory, WORD_BYTES};
use std::collections::HashSet;

/// The execution-driven simulator.
///
/// Applications run *functionally* in program order by calling the machine's
/// load/store/compute operations; the machine derives cycle-level timing
/// from an out-of-order pipeline model, a two-level cache hierarchy, and
/// the memory-forwarding mechanism. Pointer-chasing code threads [`Token`]s
/// through dependent loads so that serialization is modelled faithfully.
///
/// # Example
///
/// ```
/// use memfwd::{Machine, SimConfig};
///
/// let mut m = Machine::new(SimConfig::default());
/// let a = m.malloc(16);
/// m.store(a, 8, 7);
/// assert_eq!(m.load(a, 8), 7);
/// let stats = m.finish();
/// assert!(stats.cycles() > 0);
/// ```
pub struct Machine {
    pub(crate) cfg: SimConfig,
    pub(crate) mem: TaggedMemory,
    pub(crate) heap: Heap,
    pub(crate) hier: Hierarchy,
    pub(crate) pipe: Pipeline,
    pub(crate) spec: SpecQueue,
    pub(crate) stats: FwdStats,
    pub(crate) traps_enabled: bool,
    pub(crate) trap_log: Vec<TrapInfo>,
    pub(crate) last_store_resolve: u64,
    pub(crate) pages: Option<PageCache>,
    pub(crate) store_buf: std::collections::VecDeque<u64>,
    pub(crate) trace: Option<Trace>,
    pub(crate) fault_handler: Option<FaultHandler>,
    pub(crate) injector: Option<Injector>,
    /// Sliding window of forwarding-hop counts of the most recent demand
    /// references, for the watchdog's walk-storm check.
    pub(crate) walk_hops_window: std::collections::VecDeque<u64>,
    pub(crate) walk_hops_sum: u64,
    /// Reusable scratch for the chain walk's accurate cycle check, so even
    /// walks that trip the hop limit allocate nothing in steady state.
    pub(crate) walk_scratch: Vec<Addr>,
}

/// Outcome of a timed forwarding-chain walk.
struct Walk {
    /// Where the chain ended.
    final_addr: Addr,
    /// Simulated time after the walk.
    t: u64,
    /// Hops taken (0 = unforwarded).
    hops: u32,
    /// Whether any hop missed L1.
    l1_miss: bool,
    /// The data word at the final address — the walk's last probe already
    /// read it, so loads need no second page lookup.
    final_word: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: SimConfig) -> Machine {
        Machine {
            mem: TaggedMemory::new(),
            heap: Heap::with_policy(cfg.heap_base, cfg.heap_capacity, cfg.alloc_policy),
            hier: Hierarchy::new(cfg.hierarchy),
            pipe: Pipeline::new(cfg.pipeline),
            spec: SpecQueue::new(),
            stats: FwdStats::default(),
            traps_enabled: false,
            trap_log: Vec::new(),
            last_store_resolve: 0,
            pages: cfg.paging.map(PageCache::new),
            store_buf: std::collections::VecDeque::new(),
            trace: None,
            fault_handler: None,
            injector: cfg.fault_injection.map(Injector::new),
            walk_hops_window: std::collections::VecDeque::new(),
            walk_hops_sum: 0,
            walk_scratch: Vec::new(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cache line size in bytes — applications use this for clustering and
    /// prefetch-distance decisions, exactly as the paper's hand-applied
    /// optimizations do.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.hierarchy.line_bytes
    }

    /// Current front-end cycle (a lower bound on simulated time).
    pub fn now(&self) -> u64 {
        self.pipe.now()
    }

    /// Read-only view of the tagged memory (for inspection and tests).
    pub fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Read-only view of the heap allocator.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Statistics accumulated so far (pipeline totals appear only in
    /// [`Machine::finish`]).
    pub fn fwd_stats(&self) -> &FwdStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Forwarded demand references.
    // ------------------------------------------------------------------

    /// Walks the forwarding chain starting at `addr` with full timing:
    /// each hop reads the old word through the cache (polluting it) and
    /// pays the exception-dispatch penalty. On a genuine cycle or an
    /// exceeded [`SimConfig::hard_hop_budget`], returns the typed fault
    /// plus the time already spent walking (so the caller can retire the
    /// dispatched slot honestly).
    fn try_walk_chain(&mut self, addr: Addr, mut t: u64) -> Result<Walk, (MachineFault, u64)> {
        let mut cur = addr;
        let mut hops = 0u32;
        let mut l1_miss = false;
        let mut counter = 0u32;
        let mut checking = false;
        let final_word;
        loop {
            // One combined page lookup yields the word and its forwarding
            // bit together (the old fbit-probe-then-read hit the page map
            // twice per hop).
            let (fwd, fbit) = self.mem.read_word_tagged(cur);
            if !fbit {
                // The word just read is the data at the final address; hand
                // it back so a whole-word load needs no second page lookup.
                final_word = fwd;
                break;
            }
            if let Some(p) = self.pages.as_mut() {
                t += p.touch(cur);
            }
            let acc = self.hier.access(t, cur.word_base().0, AccessKind::Load);
            l1_miss |= acc.l1_miss();
            t = acc.complete_at + self.cfg.fwd_hop_penalty;
            let next = Addr(fwd) + cur.word_offset();
            hops += 1;
            if let Some(budget) = self.cfg.hard_hop_budget {
                if hops > budget {
                    let fault = MachineFault::HopLimitExceeded {
                        at: cur.word_base(),
                        hops,
                    };
                    return Err((fault, t));
                }
            }
            counter += 1;
            if checking {
                if self.walk_scratch.contains(&next.word_base()) {
                    let fault = MachineFault::ForwardingCycle {
                        at: next.word_base(),
                        hops,
                    };
                    return Err((fault, t));
                }
                self.walk_scratch.push(next.word_base());
            } else if counter > self.cfg.hop_limit {
                // Hop-limit exception: accurate software cycle check,
                // tracked in the machine's reusable scratch buffer.
                t += self.cfg.cycle_check_penalty;
                self.walk_scratch.clear();
                self.walk_scratch.push(cur.word_base());
                self.walk_scratch.push(next.word_base());
                checking = true;
                counter = 0;
            }
            cur = next;
        }
        Ok(Walk {
            final_addr: cur,
            t,
            hops,
            l1_miss,
            final_word,
        })
    }

    /// One attempt at a demand reference: validates, walks the forwarding
    /// chain, performs the access. Raised faults are returned without
    /// handler involvement — [`Machine::try_demand`] owns delivery/retry.
    fn demand_attempt(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store });
        }
        validate_access(addr, size)?;
        let class = if is_store {
            OpClass::Store
        } else {
            OpClass::Load
        };
        let d = self.pipe.dispatch();
        let mut start = d.max(dep.cycle());
        if !self.cfg.dependence_speculation && !is_store {
            // Conservative machine: a load may not issue until every earlier
            // store's final address is known.
            start = start.max(self.last_store_resolve);
        }

        let walk = if self.cfg.perfect_forwarding {
            match memfwd_tagmem::resolve_with_scratch(
                &self.mem,
                addr,
                memfwd_tagmem::DEFAULT_HOP_LIMIT,
                &mut self.walk_scratch,
            ) {
                Ok(r) => {
                    let (w, _) = self.mem.read_word_tagged(r.final_addr);
                    Ok(Walk {
                        final_addr: r.final_addr,
                        t: start,
                        hops: 0,
                        l1_miss: false,
                        final_word: w,
                    })
                }
                Err(c) => Err((MachineFault::from(c), start)),
            }
        } else {
            self.try_walk_chain(addr, start)
        };
        let Walk {
            final_addr,
            t: t_walk,
            hops,
            l1_miss: walk_miss,
            final_word,
        } = match walk {
            Ok(w) => w,
            Err((fault, t)) => {
                // Retire the dispatched slot as completing when the walk
                // aborted, so the pipeline stays consistent across a fault.
                self.pipe.complete(class, d, t.max(start) + 1, false);
                return Err(fault);
            }
        };
        // A healthy chain preserves the access offset, so the final address
        // is aligned iff the (already validated) initial address was. A
        // corrupted forwarding word can land anywhere: re-validate so the
        // data access below cannot trip on an unchecked address. An
        // unforwarded access kept its already-checked address.
        if final_addr != addr {
            if final_addr.is_null() {
                self.pipe.complete(class, d, t_walk.max(start) + 1, false);
                return Err(MachineFault::NullDeref { is_store });
            }
            if let Err(e) = validate_access(final_addr, size) {
                self.pipe.complete(class, d, t_walk.max(start) + 1, false);
                return Err(MachineFault::from(e));
            }
        }
        let fwd_cycles = t_walk - start;

        // Watchdog: account this walk in the sliding hop window and raise a
        // typed fault when the window's hop volume explodes — a forwarding
        // livelock signature that per-access checks cannot see.
        if let Some(budget) = self.cfg.watchdog.walk_hop_budget {
            let window = self.cfg.watchdog.walk_window.max(1);
            self.walk_hops_window.push_back(u64::from(hops));
            self.walk_hops_sum += u64::from(hops);
            while self.walk_hops_window.len() as u64 > window {
                let oldest = self.walk_hops_window.pop_front().unwrap_or(0);
                self.walk_hops_sum -= oldest;
            }
            if self.walk_hops_sum > budget {
                self.pipe.complete(class, d, t_walk.max(start) + 1, false);
                return Err(MachineFault::WalkStorm {
                    hops: self.walk_hops_sum,
                    window,
                });
            }
        }

        let kind = if is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let mut t_walk = t_walk;
        if let Some(p) = self.pages.as_mut() {
            t_walk += p.touch(final_addr);
        }
        // Optional store buffer: a store is admitted as soon as a buffer
        // entry frees up and graduates on admission; the cache access
        // drains in the background.
        let mut buffered_store = false;
        if is_store {
            if let Some(cap) = self.cfg.store_buffer_entries {
                buffered_store = true;
                while self.store_buf.front().is_some_and(|&d| d <= t_walk) {
                    self.store_buf.pop_front();
                }
                if self.store_buf.len() >= cap {
                    let earliest = self.store_buf.pop_front().expect("non-empty");
                    t_walk = t_walk.max(earliest);
                }
            }
        }
        let acc = self.hier.access(t_walk, final_addr.0, kind);
        let l1_miss = if buffered_store {
            false // graduation does not wait for a buffered store's miss
        } else {
            walk_miss || acc.l1_miss()
        };
        let mut complete = if buffered_store {
            self.store_buf.push_back(acc.complete_at);
            t_walk + 1
        } else {
            acc.complete_at
        };

        let out;
        if is_store {
            self.mem.write_data(final_addr, size, val);
            self.spec.on_store(
                addr.word_base().0,
                final_addr.word_base().0,
                acc.complete_at,
            );
            self.last_store_resolve = self.last_store_resolve.max(acc.complete_at);
            out = 0;
        } else {
            // The walk's last probe already fetched the word at the final
            // address; extract the little-endian field instead of paying a
            // second page translation.
            out = if size == WORD_BYTES {
                final_word
            } else {
                (final_word >> (8 * (final_addr.0 & 7))) & ((1u64 << (8 * size)) - 1)
            };
            debug_assert_eq!(out, self.mem.read_data(final_addr, size));
            if self.cfg.dependence_speculation {
                if let Some(v) =
                    self.spec
                        .check_load(start, addr.word_base().0, final_addr.word_base().0)
                {
                    self.stats.misspeculations += 1;
                    self.pipe.replay(v.store_resolved_at);
                    complete = complete.max(v.store_resolved_at + self.cfg.pipeline.replay_penalty);
                }
            }
        }

        if hops > 0 && self.traps_enabled {
            complete += self.cfg.trap_penalty;
            self.stats.traps_taken += 1;
            if self.trap_log.len() < 1 << 20 {
                self.trap_log.push(TrapInfo {
                    initial: addr,
                    final_addr,
                    hops,
                    is_store,
                });
            }
        }

        // Watchdog: a reference stalled past the configured bound raises a
        // typed fault instead of silently absorbing an unbounded latency.
        if let Some(stall) = self.cfg.watchdog.stall_cycles {
            if complete.saturating_sub(start) > stall {
                self.pipe.complete(class, d, complete, l1_miss);
                return Err(MachineFault::NoProgress {
                    at: addr,
                    stalled: complete - start,
                });
            }
        }

        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceRecord {
                cycle: start,
                kind: if is_store {
                    TraceKind::Store
                } else {
                    TraceKind::Load
                },
                initial: addr,
                final_addr,
                hops,
                l1_miss,
                dep_cycle: dep.cycle(),
                complete_cycle: complete,
            });
        }

        let bucket = (hops as usize).min(HOPS_BUCKETS - 1);
        if is_store {
            self.stats.stores += 1;
            self.stats.store_cycles += complete - start;
            self.stats.store_fwd_cycles += fwd_cycles;
            self.stats.store_hops[bucket] += 1;
            if hops > 0 {
                self.stats.forwarded_stores += 1;
            }
            self.pipe.complete(OpClass::Store, d, complete, l1_miss);
        } else {
            self.stats.loads += 1;
            self.stats.load_cycles += complete - start;
            self.stats.load_fwd_cycles += fwd_cycles;
            self.stats.load_hops[bucket] += 1;
            if hops > 0 {
                self.stats.forwarded_loads += 1;
            }
            self.pipe.complete(OpClass::Load, d, complete, l1_miss);
        }
        Ok((out, Token::at(complete)))
    }

    /// One demand reference through the full fault machinery: injection at
    /// entry, then attempt; on fault, delivery to the registered supervisor
    /// handler with bounded retries (paper §3.2 recoverable traps).
    fn try_demand(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        self.maybe_inject(addr);
        let mut retries = 0u32;
        loop {
            match self.demand_attempt(is_store, addr, size, val, dep) {
                Ok(out) => return Ok(out),
                Err(fault) => match self.deliver_fault(fault) {
                    TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                    _ => return Err(fault),
                },
            }
        }
    }

    /// Infallible demand wrapper: records the typed fault for harnesses
    /// (see [`crate::fault::take_last_fault`]) and panics with the crate's
    /// historical message.
    fn demand(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> (u64, Token) {
        match self.try_demand(is_store, addr, size, val, dep) {
            Ok(out) => out,
            Err(fault) => {
                record_last_fault(fault);
                panic!("{fault}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and recoverable supervisor traps.
    // ------------------------------------------------------------------

    /// Consults the injector at the head of a demand access and, if a roll
    /// hits, corrupts the target word. In recovery mode the corruption is
    /// detected and repaired immediately (within the same demand), charging
    /// trap-dispatch plus timed `Unforwarded_Write` repairs — so the access
    /// that follows always sees functionally correct memory.
    fn maybe_inject(&mut self, addr: Addr) {
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
            // A forwarding self-loop: guaranteed to be caught by the
            // accurate cycle check — a typed, never-silent corruption.
            InjectKind::ChainScramble => self.mem.unforwarded_write(word, word.0, true),
            InjectKind::FbitFlip => self.mem.set_fbit(word, true),
        }
        self.stats.injected_faults += 1;
        if let Some(inj) = self.injector.as_mut() {
            inj.record(Corruption {
                word,
                saved_value,
                saved_fbit,
                kind,
            });
        }
        if recover {
            self.repair_injected();
        }
    }

    /// Repairs every corruption in the injector's log with timed
    /// `Unforwarded_Write`s (the §3.2 repair story), charging one
    /// trap-dispatch penalty for the exception that detected it. Returns
    /// whether anything was repaired.
    fn repair_injected(&mut self) -> bool {
        let pending = match self.injector.as_mut() {
            Some(inj) => inj.drain_log(),
            None => return false,
        };
        if pending.is_empty() {
            return false;
        }
        self.compute(self.cfg.trap_penalty);
        for c in pending.iter().rev() {
            self.unforwarded_write(c.word, c.saved_value, c.saved_fbit);
            self.stats.fault_repairs += 1;
        }
        true
    }

    /// Delivers `fault` to the registered supervisor handler, charging the
    /// trap penalty (exception dispatch + handler entry). Without a handler
    /// the fault is not deliverable and the outcome is `Abort`.
    fn deliver_fault(&mut self, fault: MachineFault) -> TrapOutcome {
        let Some(mut handler) = self.fault_handler.take() else {
            return TrapOutcome::Abort;
        };
        self.compute(self.cfg.trap_penalty);
        self.stats.faults_delivered += 1;
        let outcome = handler(self, &fault);
        // The handler may have registered a replacement; keep the newer one.
        if self.fault_handler.is_none() {
            self.fault_handler = Some(handler);
        }
        outcome
    }

    /// Registers a recoverable supervisor trap handler (paper §3.2): every
    /// fault raised by a demand access or allocation is delivered to it
    /// before propagating, and the handler may repair the machine (e.g.
    /// break a forwarding cycle with [`Machine::unforwarded_write`]) and
    /// ask for a bounded retry. Replaces any previous handler.
    pub fn set_fault_handler(&mut self, handler: FaultHandler) {
        self.fault_handler = Some(handler);
    }

    /// Removes the supervisor trap handler; subsequent faults propagate
    /// directly to the caller.
    pub fn clear_fault_handler(&mut self) {
        self.fault_handler = None;
    }

    /// Whether a supervisor trap handler is currently registered.
    pub fn has_fault_handler(&self) -> bool {
        self.fault_handler.is_some()
    }

    // ------------------------------------------------------------------
    // Fallible demand API.
    // ------------------------------------------------------------------

    /// Fallible [`Machine::load`]: returns the typed fault instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`MachineFault::NullDeref`], [`MachineFault::Misaligned`],
    /// [`MachineFault::ForwardingCycle`], or (with a configured
    /// [`SimConfig::hard_hop_budget`]) [`MachineFault::HopLimitExceeded`] —
    /// each only after any registered handler declined to recover.
    pub fn try_load(&mut self, addr: Addr, size: u64) -> Result<u64, MachineFault> {
        self.try_demand(false, addr, size, 0, Token::ready())
            .map(|(v, _)| v)
    }

    /// Fallible [`Machine::store`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store(&mut self, addr: Addr, size: u64, val: u64) -> Result<(), MachineFault> {
        self.try_demand(true, addr, size, val, Token::ready())
            .map(|_| ())
    }

    /// Fallible [`Machine::load_dep`]: a load with an explicit address
    /// dependence that reports faults instead of panicking.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_load_dep(
        &mut self,
        addr: Addr,
        size: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        self.try_demand(false, addr, size, 0, dep)
    }

    /// Fallible [`Machine::store_dep`]: a store with an explicit address
    /// dependence that reports faults instead of panicking.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store_dep(
        &mut self,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<Token, MachineFault> {
        self.try_demand(true, addr, size, val, dep).map(|(_, t)| t)
    }

    /// Fallible [`Machine::load_word`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_load_word(&mut self, addr: Addr) -> Result<u64, MachineFault> {
        self.try_load(addr, WORD_BYTES)
    }

    /// Fallible [`Machine::store_word`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store_word(&mut self, addr: Addr, val: u64) -> Result<(), MachineFault> {
        self.try_store(addr, WORD_BYTES, val)
    }

    /// Loads `size` bytes at `addr`, following forwarding chains.
    ///
    /// # Panics
    ///
    /// Panics on a null dereference, a misaligned access, or a genuine
    /// forwarding cycle (the simulated program is aborted, as in §3.2).
    /// The typed fault is recorded for [`crate::fault::take_last_fault`]
    /// before the panic; [`Machine::try_load`] is the non-panicking twin.
    pub fn load(&mut self, addr: Addr, size: u64) -> u64 {
        self.demand(false, addr, size, 0, Token::ready()).0
    }

    /// [`Machine::load`] with an explicit address dependence: the access
    /// cannot issue before `dep` is ready. Returns the value and its token.
    pub fn load_dep(&mut self, addr: Addr, size: u64, dep: Token) -> (u64, Token) {
        self.demand(false, addr, size, 0, dep)
    }

    /// Stores the low `size` bytes of `val` at `addr`, following forwarding.
    ///
    /// # Panics
    ///
    /// As for [`Machine::load`].
    pub fn store(&mut self, addr: Addr, size: u64, val: u64) {
        self.demand(true, addr, size, val, Token::ready());
    }

    /// [`Machine::store`] with an explicit dependence; returns the
    /// completion token.
    pub fn store_dep(&mut self, addr: Addr, size: u64, val: u64, dep: Token) -> Token {
        self.demand(true, addr, size, val, dep).1
    }

    // Word-sized sugar used pervasively by the applications.

    /// Loads one 64-bit word.
    pub fn load_word(&mut self, addr: Addr) -> u64 {
        self.load(addr, WORD_BYTES)
    }

    /// Loads one 64-bit word with a dependence token.
    pub fn load_word_dep(&mut self, addr: Addr, dep: Token) -> (u64, Token) {
        self.load_dep(addr, WORD_BYTES, dep)
    }

    /// Stores one 64-bit word.
    pub fn store_word(&mut self, addr: Addr, val: u64) {
        self.store(addr, WORD_BYTES, val)
    }

    /// Loads a pointer (a word interpreted as an address).
    pub fn load_ptr(&mut self, addr: Addr) -> Addr {
        Addr(self.load_word(addr))
    }

    /// Loads a pointer with a dependence token.
    pub fn load_ptr_dep(&mut self, addr: Addr, dep: Token) -> (Addr, Token) {
        let (v, t) = self.load_word_dep(addr, dep);
        (Addr(v), t)
    }

    /// Stores a pointer.
    pub fn store_ptr(&mut self, addr: Addr, val: Addr) {
        self.store_word(addr, val.0)
    }

    // ------------------------------------------------------------------
    // ISA extensions (paper Fig. 3).
    // ------------------------------------------------------------------

    /// `Read_FBit`: reads the forwarding bit of the word containing `addr`.
    /// This is a memory operation — the bit travels with the cache line.
    pub fn read_fbit(&mut self, addr: Addr) -> bool {
        self.read_fbit_dep(addr, Token::ready()).0
    }

    /// [`Machine::read_fbit`] with an address dependence.
    pub fn read_fbit_dep(&mut self, addr: Addr, dep: Token) -> (bool, Token) {
        let d = self.pipe.dispatch();
        let start = d.max(dep.cycle());
        let acc = self
            .hier
            .access(start, addr.word_base().0, AccessKind::Load);
        self.stats.fbit_reads += 1;
        self.pipe
            .complete(OpClass::Load, d, acc.complete_at, acc.l1_miss());
        (self.mem.fbit(addr), Token::at(acc.complete_at))
    }

    /// `Unforwarded_Read`: reads a whole word and its forwarding bit with
    /// forwarding disabled.
    pub fn unforwarded_read(&mut self, addr: Addr) -> (u64, bool) {
        let (v, b, _) = self.unforwarded_read_dep(addr, Token::ready());
        (v, b)
    }

    /// [`Machine::unforwarded_read`] with an address dependence.
    pub fn unforwarded_read_dep(&mut self, addr: Addr, dep: Token) -> (u64, bool, Token) {
        let d = self.pipe.dispatch();
        let start = d.max(dep.cycle());
        let acc = self
            .hier
            .access(start, addr.word_base().0, AccessKind::Load);
        self.stats.unforwarded_ops += 1;
        self.pipe
            .complete(OpClass::Load, d, acc.complete_at, acc.l1_miss());
        let (v, b) = self.mem.unforwarded_read(addr);
        (v, b, Token::at(acc.complete_at))
    }

    /// `Unforwarded_Write`: atomically writes a whole word and its
    /// forwarding bit with forwarding disabled.
    pub fn unforwarded_write(&mut self, addr: Addr, value: u64, fbit: bool) -> Token {
        let d = self.pipe.dispatch();
        let acc = self.hier.access(d, addr.word_base().0, AccessKind::Store);
        self.stats.unforwarded_ops += 1;
        self.mem.unforwarded_write(addr, value, fbit);
        let w = addr.word_base().0;
        self.spec.on_store(w, w, acc.complete_at);
        self.last_store_resolve = self.last_store_resolve.max(acc.complete_at);
        self.pipe
            .complete(OpClass::Store, d, acc.complete_at, acc.l1_miss());
        Token::at(acc.complete_at)
    }

    // ------------------------------------------------------------------
    // Prefetch and compute.
    // ------------------------------------------------------------------

    /// Issues one block-prefetch instruction covering `lines` consecutive
    /// cache lines starting at the line containing `addr`. The prefetch
    /// address is assumed available at dispatch (e.g. computed from an
    /// induction variable); use [`Machine::prefetch_dep`] when the address
    /// comes from a load, or the pointer-chasing limit disappears.
    pub fn prefetch(&mut self, addr: Addr, lines: u64) {
        self.prefetch_dep(addr, lines, Token::ready());
    }

    /// [`Machine::prefetch`] with an explicit address dependence: the
    /// prefetch cannot launch before `dep` is ready. This models the
    /// pointer-chasing problem of §2.2 — a prefetch of `p->next->next`
    /// cannot start until `p->next` has been loaded.
    pub fn prefetch_dep(&mut self, addr: Addr, lines: u64, dep: Token) {
        let d = self.pipe.dispatch();
        self.hier.prefetch_block(d.max(dep.cycle()), addr.0, lines);
        self.stats.prefetches += 1;
        self.pipe.complete(OpClass::Prefetch, d, d + 1, false);
    }

    /// Executes `n` single-cycle ALU instructions with no data dependences.
    pub fn compute(&mut self, n: u64) {
        for _ in 0..n {
            self.pipe.compute(0);
        }
        self.stats.computes += n;
    }

    /// Executes `n` dependent single-cycle ALU instructions consuming
    /// `dep`; returns the token of the last one.
    pub fn compute_dep(&mut self, n: u64, dep: Token) -> Token {
        let mut t = dep;
        for _ in 0..n {
            t = Token::at(self.pipe.compute(t.cycle()));
        }
        self.stats.computes += n;
        t
    }

    // ------------------------------------------------------------------
    // Heap.
    // ------------------------------------------------------------------

    /// Decides whether an injected allocation failure fires for this
    /// request, and if so either auto-recovers (transient failure: trap
    /// charged, then the real allocation proceeds) or raises a fault for
    /// the delivery loop. Returns the fault to raise, if any.
    fn maybe_inject_alloc_fail(&mut self, requested: u64) -> Option<MachineFault> {
        let inj = self.injector.as_mut()?;
        if !inj.roll_alloc_fail() {
            return None;
        }
        let recover = inj.config().recover;
        self.stats.injected_faults += 1;
        if recover {
            // The supervisor observes the transient failure, releases the
            // pressure (modelled as handler work), and the retry succeeds.
            self.compute(self.cfg.trap_penalty);
            self.stats.fault_repairs += 1;
            None
        } else {
            Some(MachineFault::HeapExhausted { requested })
        }
    }

    /// Fallible [`Machine::malloc`]: returns [`MachineFault::HeapExhausted`]
    /// instead of panicking, after any registered handler declined to
    /// recover (a handler that frees memory and returns `Retry` lets the
    /// allocation succeed).
    ///
    /// # Errors
    ///
    /// [`MachineFault::HeapExhausted`].
    pub fn try_malloc(&mut self, bytes: u64) -> Result<Addr, MachineFault> {
        self.compute(self.cfg.malloc_cost);
        self.stats.mallocs += 1;
        if let Some(fault) = self.maybe_inject_alloc_fail(bytes) {
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {} // injected failure was transient
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let mut retries = 0u32;
        loop {
            match self.heap.alloc(bytes) {
                Ok(a) => return Ok(a),
                Err(e) => {
                    let fault = MachineFault::from(e);
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        }
    }

    /// Allocates `bytes` of word-aligned heap memory, charging the
    /// allocator's instruction cost.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted. [`Machine::try_malloc`]
    /// is the non-panicking twin.
    pub fn malloc(&mut self, bytes: u64) -> Addr {
        self.try_malloc(bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`Machine::free`]: frees a heap block and everything
    /// reachable through its forwarding chain (§3.3 wrapper deallocation),
    /// reporting corruption as a typed fault instead of panicking.
    ///
    /// # Errors
    ///
    /// [`MachineFault::ForwardingCycle`] if the block's forwarding chain is
    /// cyclic (nothing has been freed when this is returned), or
    /// [`MachineFault::InvalidFree`] if `addr` is not the base of a live
    /// allocation.
    pub fn try_free(&mut self, addr: Addr) -> Result<(), MachineFault> {
        self.compute(self.cfg.free_cost);
        self.stats.frees += 1;
        // Walk the chain of the first word, paying one unforwarded read per
        // element, and collect chain targets that are themselves blocks.
        let mut blocks = vec![addr];
        let mut cur = addr.word_base();
        let mut seen = HashSet::new();
        seen.insert(cur);
        let mut hops = 0u32;
        loop {
            let (val, fbit, _) = self.unforwarded_read_dep(cur, Token::ready());
            if !fbit {
                break;
            }
            cur = Addr(val).word_base();
            hops += 1;
            if !seen.insert(cur) {
                return Err(MachineFault::ForwardingCycle { at: cur, hops });
            }
            if self.heap.is_live(cur) {
                self.stats.chain_frees += 1;
                blocks.push(cur);
            }
        }
        for b in blocks {
            // Reinitialize the block's forwarding bits before it can be
            // recycled: §3.3 requires every word to start with a clear bit
            // when next handed to the application.
            let words = match self.heap.block_size(b) {
                Some(bytes) => bytes / WORD_BYTES,
                None => return Err(MachineFault::InvalidFree { addr: b }),
            };
            for w in 0..words {
                self.mem.set_fbit(b.add_words(w), false);
            }
            self.compute(1 + words / 8); // amortized clearing cost
            self.heap.free(b).expect("checked live");
        }
        Ok(())
    }

    /// Frees a heap block, first deallocating every block reachable through
    /// its forwarding chain — the wrapper deallocation of paper §3.3.
    ///
    /// Chain targets that are not independently-allocated blocks (e.g.
    /// relocation-pool space) are skipped; pools are reclaimed wholesale.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base of a live allocation or its chain
    /// is cyclic. [`Machine::try_free`] is the non-panicking twin.
    pub fn free(&mut self, addr: Addr) {
        if let Err(fault) = self.try_free(addr) {
            record_last_fault(fault);
            match fault {
                MachineFault::ForwardingCycle { .. } => {
                    panic!("forwarding cycle during free({addr}): {fault}")
                }
                _ => panic!("{fault}"),
            }
        }
    }

    /// Fallible [`Machine::pool_alloc`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::PoolExhausted`] when the pool cannot obtain a slab,
    /// after any registered handler declined to recover.
    pub fn try_pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Result<Addr, MachineFault> {
        self.compute(6);
        if self.maybe_inject_alloc_fail(bytes).is_some() {
            let fault = MachineFault::PoolExhausted { requested: bytes };
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {}
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let before = pool.bytes_handed_out();
        let mut retries = 0u32;
        let a = loop {
            match pool.alloc(&mut self.heap, bytes) {
                Ok(a) => break a,
                Err(_) => {
                    let fault = MachineFault::PoolExhausted { requested: bytes };
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        };
        self.stats.relocation_space_bytes += pool.bytes_handed_out() - before;
        Ok(a)
    }

    /// Allocates `bytes` from a relocation pool (contiguous space), charging
    /// a small instruction cost and recording the space overhead that the
    /// paper's Table 1 reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted. [`Machine::try_pool_alloc`]
    /// is the non-panicking twin.
    pub fn pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Addr {
        self.try_pool_alloc(pool, bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`Machine::pool_alloc_aligned`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_pool_alloc`].
    pub fn try_pool_alloc_aligned(
        &mut self,
        pool: &mut Pool,
        bytes: u64,
        align: u64,
    ) -> Result<Addr, MachineFault> {
        self.compute(8);
        if self.maybe_inject_alloc_fail(bytes).is_some() {
            let fault = MachineFault::PoolExhausted { requested: bytes };
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {}
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let before = pool.bytes_handed_out();
        let mut retries = 0u32;
        let a = loop {
            match pool.alloc_aligned(&mut self.heap, bytes, align) {
                Ok(a) => break a,
                Err(_) => {
                    let fault = MachineFault::PoolExhausted { requested: bytes };
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        };
        self.stats.relocation_space_bytes += pool.bytes_handed_out() - before;
        Ok(a)
    }

    /// Allocates an `align`-aligned chunk from a relocation pool. Used when
    /// relocation targets must respect cache-line boundaries (subtree
    /// clusters, false-sharing separation).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted.
    /// [`Machine::try_pool_alloc_aligned`] is the non-panicking twin.
    pub fn pool_alloc_aligned(&mut self, pool: &mut Pool, bytes: u64, align: u64) -> Addr {
        self.try_pool_alloc_aligned(pool, bytes, align)
            .unwrap_or_else(|fault| {
                record_last_fault(fault);
                panic!("{fault}");
            })
    }

    /// Creates a relocation pool with the configured slab size.
    pub fn new_pool(&self) -> Pool {
        Pool::new(self.cfg.pool_slab_bytes)
    }

    // ------------------------------------------------------------------
    // User-level traps (paper §3.2).
    // ------------------------------------------------------------------

    /// Enables or disables the user-level trap taken on every forwarded
    /// reference. While enabled, each forwarded reference costs
    /// `trap_penalty` extra cycles and is recorded.
    pub fn set_traps_enabled(&mut self, enabled: bool) {
        self.traps_enabled = enabled;
    }

    /// Drains the recorded trap events (profiling-tool style: the
    /// application inspects them and may fix stray pointers itself).
    pub fn take_traps(&mut self) -> Vec<TrapInfo> {
        std::mem::take(&mut self.trap_log)
    }

    /// Writes a word functionally WITHOUT any timing effect — no
    /// instruction, no cache access, no trace record. Scenario-building
    /// scaffolding for tests and trace tooling; simulated programs should
    /// use [`Machine::store`].
    pub fn poke_word(&mut self, addr: Addr, value: u64) {
        self.mem.write_data(addr.word_base(), WORD_BYTES, value);
    }

    // ------------------------------------------------------------------
    // Reference tracing.
    // ------------------------------------------------------------------

    /// Starts recording demand references into a trace of at most
    /// `capacity` records (older runs' records are kept until taken).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Stops tracing and returns `(records, dropped_count)`.
    pub fn take_trace(&mut self) -> (Vec<TraceRecord>, u64) {
        self.trace.take().map(|mut t| t.take()).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Bookkeeping used by the relocation library (crate-internal).
    // ------------------------------------------------------------------

    pub(crate) fn note_relocation(&mut self, words: u64) {
        self.stats.relocations += 1;
        self.stats.relocated_words += words;
    }

    pub(crate) fn note_ptr_compare(&mut self) {
        self.stats.ptr_compares += 1;
    }

    /// Finishes the run: drains the pipeline and returns all statistics.
    pub fn finish(mut self) -> RunStats {
        self.stats.page_faults = self.pages.as_ref().map(|p| p.faults()).unwrap_or(0);
        RunStats {
            pipeline: self.pipe.finish(),
            cache: self.hier.stats(),
            bytes_l1_l2: self.hier.bytes_l1_l2(),
            bytes_l2_mem: self.hier.bytes_l2_mem(),
            fwd: self.stats,
            mem: self.mem.stats(),
            heap: self.heap.stats(),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.pipe.now())
            .field("loads", &self.stats.loads)
            .field("stores", &self.stats.stores)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(SimConfig::default())
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = machine();
        let a = m.malloc(32);
        m.store(a, 8, 0xABCD);
        m.store(a + 8, 4, 7);
        assert_eq!(m.load(a, 8), 0xABCD);
        assert_eq!(m.load(a + 8, 4), 7);
        let s = m.finish();
        assert_eq!(s.fwd.loads, 2);
        assert_eq!(s.fwd.stores, 2);
        assert!(s.cycles() > 0);
    }

    #[test]
    fn forwarded_load_returns_new_value_and_counts_hop() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store(new, 8, 99);
        m.unforwarded_write(old, new.0, true);
        assert_eq!(m.load(old, 8), 99, "stray access forwarded");
        let s = m.finish();
        assert_eq!(s.fwd.forwarded_loads, 1);
        assert_eq!(s.fwd.load_hops[1], 1);
        assert!(s.fwd.load_fwd_cycles > 0);
    }

    #[test]
    fn forwarded_store_writes_to_final_location() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        m.store(old + 4, 4, 42);
        assert_eq!(m.load(new + 4, 4), 42);
        let s = m.finish();
        assert_eq!(s.fwd.forwarded_stores, 1);
    }

    #[test]
    fn perfect_forwarding_has_zero_fwd_cycles() {
        let mut m = Machine::new(SimConfig::default().with_perfect_forwarding());
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store(new, 8, 5);
        m.unforwarded_write(old, new.0, true);
        assert_eq!(m.load(old, 8), 5);
        let s = m.finish();
        assert_eq!(s.fwd.load_fwd_cycles, 0);
        assert_eq!(
            s.fwd.forwarded_loads, 0,
            "Perf: as if pointers were updated"
        );
    }

    #[test]
    fn forwarding_slower_than_direct() {
        // Time a forwarded load vs a direct one on identical machines.
        let run = |forwarded: bool| -> u64 {
            let mut m = machine();
            let old = m.malloc(8);
            let new = m.malloc(8);
            m.store(new, 8, 1);
            if forwarded {
                m.unforwarded_write(old, new.0, true);
                m.load(old, 8);
            } else {
                m.load(new, 8);
            }
            m.finish().cycles()
        };
        assert!(run(true) > run(false));
    }

    #[test]
    #[should_panic(expected = "forwarding cycle")]
    fn forwarding_cycle_aborts() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        let _ = m.load(a, 8);
    }

    #[test]
    fn long_chain_is_false_alarm_not_cycle() {
        let mut m = machine();
        let blocks: Vec<Addr> = (0..20).map(|_| m.malloc(8)).collect();
        m.store(blocks[19], 8, 777);
        for w in blocks.windows(2) {
            m.unforwarded_write(w[0], w[1].0, true);
        }
        assert_eq!(m.load(blocks[0], 8), 777);
        let s = m.finish();
        assert_eq!(
            s.fwd.load_hops[HOPS_BUCKETS - 1],
            1,
            "19 hops in top bucket"
        );
    }

    #[test]
    #[should_panic(expected = "null dereference")]
    fn null_deref_panics() {
        let mut m = machine();
        let _ = m.load(Addr::NULL, 8);
    }

    #[test]
    fn unforwarded_ops_bypass_forwarding() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        let (v, b) = m.unforwarded_read(old);
        assert_eq!((v, b), (new.0, true), "sees the forwarding address itself");
        assert!(m.read_fbit(old));
        assert!(!m.read_fbit(new));
    }

    #[test]
    fn dependent_loads_serialize() {
        // A chain of dependent loads must take at least the sum of miss
        // latencies; independent loads overlap.
        let run = |dependent: bool| -> u64 {
            let mut m = machine();
            let addrs: Vec<Addr> = (0..8).map(|_| m.malloc(4096)).collect();
            let mut tok = Token::ready();
            for a in &addrs {
                if dependent {
                    let (_, t) = m.load_word_dep(*a, tok);
                    tok = t;
                } else {
                    m.load_word(*a);
                }
            }
            m.finish().cycles()
        };
        let dep = run(true);
        let indep = run(false);
        assert!(
            dep > indep * 2,
            "dependent {dep} vs independent {indep}: pointer chasing must serialize"
        );
    }

    #[test]
    fn prefetch_hides_latency() {
        let run = |prefetch: bool| -> u64 {
            let mut m = machine();
            let a = m.malloc(4096);
            if prefetch {
                m.prefetch(a, 1);
                m.compute(200); // give the prefetch time to complete
            } else {
                m.compute(200);
            }
            m.load_word(a);
            m.finish().cycles()
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn free_follows_chain() {
        let mut m = machine();
        let old = m.malloc(16);
        let new = m.malloc(16);
        m.unforwarded_write(old, new.0, true);
        m.free(old);
        let s = m.heap().stats();
        assert_eq!(s.frees, 2, "both old and relocated block freed");
        let rs = m.finish();
        assert_eq!(rs.fwd.chain_frees, 1);
    }

    #[test]
    fn traps_record_forwarded_references() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        m.set_traps_enabled(true);
        m.load(old, 8);
        let traps = m.take_traps();
        assert_eq!(traps.len(), 1);
        assert_eq!(traps[0].initial, old);
        assert_eq!(traps[0].final_addr, new);
        assert_eq!(traps[0].hops, 1);
        assert!(!traps[0].is_store);
        assert!(m.take_traps().is_empty(), "drained");
        let s = m.finish();
        assert_eq!(s.fwd.traps_taken, 1);
    }

    #[test]
    fn dependence_speculation_violation_detected() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        // A store through the OLD address resolves late to `new`...
        m.store(old, 8, 1);
        // ...while a load directly to `new` issues immediately (no dep).
        m.load(new, 8);
        let s = m.finish();
        assert_eq!(s.fwd.misspeculations, 1);
        assert_eq!(s.pipeline.replays, 1);
    }

    #[test]
    fn no_speculation_mode_is_slower() {
        let run = |speculate: bool| -> u64 {
            let mut m = Machine::new(SimConfig {
                dependence_speculation: speculate,
                ..SimConfig::default()
            });
            let a = m.malloc(1 << 16);
            for i in 0..64u64 {
                m.store(a + i * 512, 8, i);
                m.load(a + 32768 + i * 512, 8);
            }
            m.finish().cycles()
        };
        assert!(run(false) > run(true));
    }

    #[test]
    fn compute_dep_chains_latency() {
        let mut m = machine();
        let t = m.compute_dep(10, Token::at(100));
        assert!(t.cycle() >= 110);
    }

    #[test]
    fn store_buffer_hides_store_miss_latency() {
        let run = |entries: Option<usize>| -> (u64, u64) {
            let mut m = Machine::new(SimConfig {
                store_buffer_entries: entries,
                ..SimConfig::default()
            });
            let a = m.malloc(1 << 20);
            for i in 0..64u64 {
                m.store_word(a + i * 4096, i);
                m.compute(4);
            }
            let s = m.finish();
            (s.cycles(), s.pipeline.slots.store_stall)
        };
        let (no_buf_cycles, no_buf_stall) = run(None);
        let (buf_cycles, buf_stall) = run(Some(8));
        assert!(
            buf_cycles < no_buf_cycles,
            "{buf_cycles} !< {no_buf_cycles}"
        );
        assert!(buf_stall < no_buf_stall, "{buf_stall} !< {no_buf_stall}");
    }

    #[test]
    fn store_buffer_preserves_values_and_ordering() {
        let mut m = Machine::new(SimConfig {
            store_buffer_entries: Some(4),
            ..SimConfig::default()
        });
        let a = m.malloc(256);
        for i in 0..32u64 {
            m.store_word(a.add_words(i % 8), i);
        }
        for i in 24..32u64 {
            assert_eq!(m.load_word(a.add_words(i % 8)), i);
        }
    }

    #[test]
    fn paging_layer_counts_faults_and_slows_misses() {
        let cfg = SimConfig {
            paging: Some(crate::paging::PagingConfig {
                page_bytes: 4096,
                resident_pages: 4,
                fault_penalty: 10_000,
            }),
            ..SimConfig::default()
        };
        let mut m = Machine::new(cfg);
        let a = m.malloc(1 << 20);
        let mut tok = Token::ready();
        for i in 0..16u64 {
            let (_, t) = m.load_word_dep(a + i * 65536, tok);
            tok = t;
        }
        let s = m.finish();
        assert_eq!(s.fwd.page_faults, 16);
        assert!(s.cycles() > 16 * 10_000, "dependent faults serialize");
    }

    #[test]
    fn trace_records_references_with_forwarding_detail() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store_word(new, 1);
        m.unforwarded_write(old, new.0, true);
        m.enable_trace(16);
        m.load_word(old);
        m.store_word(new, 2);
        let (records, dropped) = m.take_trace();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, crate::trace::TraceKind::Load);
        assert_eq!(records[0].initial, old);
        assert_eq!(records[0].final_addr, new);
        assert_eq!(records[0].hops, 1);
        assert_eq!(records[1].kind, crate::trace::TraceKind::Store);
        assert_eq!(records[1].hops, 0);
        // Tracing is off after take_trace.
        m.load_word(new);
        assert!(m.take_trace().0.is_empty());
    }

    #[test]
    fn try_load_reports_typed_cycle() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        match m.try_load(a, 8) {
            Err(MachineFault::ForwardingCycle { hops, .. }) => assert!(hops >= 2),
            other => panic!("expected ForwardingCycle, got {other:?}"),
        }
        // The machine is still usable after a typed fault.
        let c = m.malloc(8);
        m.store_word(c, 9);
        assert_eq!(m.try_load_word(c), Ok(9));
    }

    #[test]
    fn handler_repairs_cycle_and_access_retries() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        m.set_fault_handler(Box::new(move |m, fault| {
            assert!(matches!(fault, MachineFault::ForwardingCycle { .. }));
            m.unforwarded_write(b, 4242, false);
            TrapOutcome::Retry
        }));
        assert_eq!(m.try_load_word(a), Ok(4242));
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, 1);
    }

    #[test]
    fn handler_that_never_repairs_cannot_livelock() {
        let mut m = machine();
        let a = m.malloc(8);
        m.unforwarded_write(a, a.0, true); // self-loop
        m.set_fault_handler(Box::new(|_, _| TrapOutcome::Retry));
        assert!(matches!(
            m.try_load_word(a),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, u64::from(MAX_FAULT_RETRIES) + 1);
    }

    #[test]
    fn handler_abort_propagates_fault() {
        let mut m = machine();
        let a = m.malloc(8);
        m.unforwarded_write(a, a.0, true);
        m.set_fault_handler(Box::new(|_, _| TrapOutcome::Abort));
        assert!(m.try_load_word(a).is_err());
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, 1);
    }

    #[test]
    fn hard_hop_budget_rejects_long_acyclic_chain() {
        let mut m = Machine::new(SimConfig {
            hard_hop_budget: Some(4),
            ..SimConfig::default()
        });
        let blocks: Vec<Addr> = (0..8).map(|_| m.malloc(8)).collect();
        m.poke_word(blocks[7], 1);
        for w in blocks.windows(2) {
            m.unforwarded_write(w[0], w[1].0, true);
        }
        assert!(matches!(
            m.try_load_word(blocks[0]),
            Err(MachineFault::HopLimitExceeded { hops: 5, .. })
        ));
        // A short chain is still fine under the budget.
        assert_eq!(m.try_load_word(blocks[4]), Ok(1));
    }

    #[test]
    fn try_demand_validates_before_timing() {
        let mut m = machine();
        assert_eq!(
            m.try_load(Addr::NULL, 8),
            Err(MachineFault::NullDeref { is_store: false })
        );
        let a = m.malloc(16);
        assert_eq!(
            m.try_store(a + 1, 4, 0),
            Err(MachineFault::Misaligned {
                addr: a + 1,
                size: 4
            })
        );
        assert_eq!(
            m.try_load(a, 3),
            Err(MachineFault::Misaligned { addr: a, size: 3 })
        );
    }

    #[test]
    fn try_free_reports_cycle_without_freeing() {
        let mut m = machine();
        let a = m.malloc(16);
        let b = m.malloc(16);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        assert!(matches!(
            m.try_free(a),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        assert!(m.heap().is_live(a) && m.heap().is_live(b), "nothing freed");
        assert_eq!(
            m.try_free(m.config().heap_base + 8),
            Err(MachineFault::InvalidFree {
                addr: SimConfig::default().heap_base + 8
            })
        );
    }

    #[test]
    fn try_malloc_reports_exhaustion_and_handler_can_rescue() {
        let mut m = Machine::new(SimConfig {
            heap_capacity: 64,
            ..SimConfig::default()
        });
        let a = m.try_malloc(64).expect("fits");
        assert_eq!(
            m.try_malloc(64),
            Err(MachineFault::HeapExhausted { requested: 64 })
        );
        // A handler that frees memory rescues the allocation.
        m.set_fault_handler(Box::new(move |m, fault| {
            assert!(matches!(fault, MachineFault::HeapExhausted { .. }));
            m.free(a);
            TrapOutcome::Retry
        }));
        assert!(m.try_malloc(64).is_ok());
    }

    #[test]
    fn injection_with_recovery_preserves_values() {
        let mut m = Machine::new(SimConfig {
            fault_injection: Some(crate::inject::InjectConfig {
                seed: 7,
                fbit_flip_ppm: 250_000,
                chain_scramble_ppm: 250_000,
                recover: true,
                ..crate::inject::InjectConfig::default()
            }),
            ..SimConfig::default()
        });
        let a = m.malloc(256);
        for i in 0..32u64 {
            m.store_word(a.add_words(i % 8), i);
            assert_eq!(m.load_word(a.add_words(i % 8)), i);
        }
        let s = m.finish();
        assert!(s.fwd.injected_faults > 0, "campaign must actually inject");
        assert_eq!(
            s.fwd.fault_repairs, s.fwd.injected_faults,
            "recovery mode repairs every injection"
        );
    }

    #[test]
    fn injection_without_recovery_is_typed_never_silent() {
        let mut m = Machine::new(SimConfig {
            fault_injection: Some(crate::inject::InjectConfig {
                seed: 11,
                chain_scramble_ppm: 500_000,
                recover: false,
                ..crate::inject::InjectConfig::default()
            }),
            ..SimConfig::default()
        });
        let a = m.malloc(64);
        let mut faulted = false;
        for i in 0..16u64 {
            match m.try_store_word(a.add_words(i % 4), i) {
                Ok(()) => {}
                Err(MachineFault::ForwardingCycle { .. }) => {
                    faulted = true;
                    break;
                }
                Err(other) => panic!("unexpected fault {other:?}"),
            }
        }
        assert!(faulted, "p=0.5 scramble per access must fire within 16");
    }

    #[test]
    fn stats_instruction_mix() {
        let mut m = machine();
        let a = m.malloc(64);
        m.store_word(a, 1);
        m.load_word(a);
        m.prefetch(a, 2);
        m.compute(5);
        m.read_fbit(a);
        m.unforwarded_read(a);
        let s = m.finish();
        assert_eq!(s.fwd.stores, 1);
        assert_eq!(s.fwd.loads, 1);
        assert_eq!(s.fwd.prefetches, 1);
        assert!(s.fwd.computes >= 5);
        assert_eq!(s.fwd.fbit_reads, 1);
        assert_eq!(s.fwd.unforwarded_ops, 1);
        assert_eq!(s.fwd.mallocs, 1);
    }
}
