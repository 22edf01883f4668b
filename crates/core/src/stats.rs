//! Run statistics: everything the paper's figures are built from.

use memfwd_cache::{CacheStats, ClassCounts};
use memfwd_cpu::{PipelineStats, SlotCounts};
use memfwd_tagmem::{HeapStats, MemStats, SnapCodecError, SnapDecoder, SnapEncoder};

/// Histogram of forwarding hops per reference. Index = hop count, the last
/// bucket collects everything at or beyond its index.
pub const HOPS_BUCKETS: usize = 9;

/// Counters maintained by the [`crate::Machine`] while the program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FwdStats {
    /// Loads issued (demand references, not prefetches).
    pub loads: u64,
    /// Stores issued (demand references).
    pub stores: u64,
    /// Prefetch instructions issued.
    pub prefetches: u64,
    /// ALU instructions issued.
    pub computes: u64,
    /// `Read_FBit` instructions issued.
    pub fbit_reads: u64,
    /// `Unforwarded_Read`/`Unforwarded_Write` instructions issued.
    pub unforwarded_ops: u64,
    /// Loads that dereferenced at least one forwarding address.
    pub forwarded_loads: u64,
    /// Stores that dereferenced at least one forwarding address.
    pub forwarded_stores: u64,
    /// Hop histogram for loads (Fig. 10(c)).
    pub load_hops: [u64; HOPS_BUCKETS],
    /// Hop histogram for stores (Fig. 10(c)).
    pub store_hops: [u64; HOPS_BUCKETS],
    /// Total cycles from issue to completion over all loads.
    pub load_cycles: u64,
    /// Portion of `load_cycles` spent dereferencing forwarding addresses.
    pub load_fwd_cycles: u64,
    /// Total cycles from issue to completion over all stores.
    pub store_cycles: u64,
    /// Portion of `store_cycles` spent dereferencing forwarding addresses.
    pub store_fwd_cycles: u64,
    /// Data-dependence misspeculations detected.
    pub misspeculations: u64,
    /// Heap allocations.
    pub mallocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Extra blocks freed by following forwarding chains (§3.3 wrapper).
    pub chain_frees: u64,
    /// Calls to the relocation primitive.
    pub relocations: u64,
    /// Words relocated.
    pub relocated_words: u64,
    /// Final-address pointer comparisons performed (§2.1).
    pub ptr_compares: u64,
    /// User-level traps taken on forwarded references.
    pub traps_taken: u64,
    /// Bytes handed out by relocation pools (Table 1 "space overhead").
    pub relocation_space_bytes: u64,
    /// Page faults taken (only when the paging layer is enabled).
    pub page_faults: u64,
    /// Corruptions injected by the deterministic fault-injection engine.
    pub injected_faults: u64,
    /// Injected corruptions repaired (auto-recovery or a supervisor
    /// handler's `Unforwarded_Write`).
    pub fault_repairs: u64,
    /// Machine faults delivered to a registered supervisor trap handler.
    pub faults_delivered: u64,
}

impl FwdStats {
    /// Fraction of loads that required forwarding (Fig. 10(c)).
    pub fn forwarded_load_fraction(&self) -> f64 {
        ratio(self.forwarded_loads, self.loads)
    }

    /// Fraction of stores that required forwarding (Fig. 10(c)).
    pub fn forwarded_store_fraction(&self) -> f64 {
        ratio(self.forwarded_stores, self.stores)
    }

    /// Average cycles to complete a load, split into (forwarding,
    /// ordinary) — Fig. 10(d).
    pub fn avg_load_cycles(&self) -> (f64, f64) {
        (
            ratio(self.load_fwd_cycles, self.loads),
            ratio(self.load_cycles - self.load_fwd_cycles, self.loads),
        )
    }

    /// Average cycles to complete a store, split into (forwarding,
    /// ordinary) — Fig. 10(d).
    pub fn avg_store_cycles(&self) -> (f64, f64) {
        (
            ratio(self.store_fwd_cycles, self.stores),
            ratio(self.store_cycles - self.store_fwd_cycles, self.stores),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl FwdStats {
    /// Serializes every counter, in declaration order. Shared by machine
    /// snapshots ([`crate::snapshot`]) and the farm's campaign journal.
    pub fn snapshot_encode(&self, enc: &mut SnapEncoder) {
        enc.u64(self.loads);
        enc.u64(self.stores);
        enc.u64(self.prefetches);
        enc.u64(self.computes);
        enc.u64(self.fbit_reads);
        enc.u64(self.unforwarded_ops);
        enc.u64(self.forwarded_loads);
        enc.u64(self.forwarded_stores);
        for h in &self.load_hops {
            enc.u64(*h);
        }
        for h in &self.store_hops {
            enc.u64(*h);
        }
        enc.u64(self.load_cycles);
        enc.u64(self.load_fwd_cycles);
        enc.u64(self.store_cycles);
        enc.u64(self.store_fwd_cycles);
        enc.u64(self.misspeculations);
        enc.u64(self.mallocs);
        enc.u64(self.frees);
        enc.u64(self.chain_frees);
        enc.u64(self.relocations);
        enc.u64(self.relocated_words);
        enc.u64(self.ptr_compares);
        enc.u64(self.traps_taken);
        enc.u64(self.relocation_space_bytes);
        enc.u64(self.page_faults);
        enc.u64(self.injected_faults);
        enc.u64(self.fault_repairs);
        enc.u64(self.faults_delivered);
    }

    /// Total decoder matching [`FwdStats::snapshot_encode`].
    ///
    /// # Errors
    ///
    /// [`SnapCodecError::Truncated`] if the input ends early.
    pub fn snapshot_decode(dec: &mut SnapDecoder<'_>) -> Result<FwdStats, SnapCodecError> {
        let mut s = FwdStats {
            loads: dec.u64()?,
            stores: dec.u64()?,
            prefetches: dec.u64()?,
            computes: dec.u64()?,
            fbit_reads: dec.u64()?,
            unforwarded_ops: dec.u64()?,
            forwarded_loads: dec.u64()?,
            forwarded_stores: dec.u64()?,
            ..FwdStats::default()
        };
        for i in 0..HOPS_BUCKETS {
            s.load_hops[i] = dec.u64()?;
        }
        for i in 0..HOPS_BUCKETS {
            s.store_hops[i] = dec.u64()?;
        }
        s.load_cycles = dec.u64()?;
        s.load_fwd_cycles = dec.u64()?;
        s.store_cycles = dec.u64()?;
        s.store_fwd_cycles = dec.u64()?;
        s.misspeculations = dec.u64()?;
        s.mallocs = dec.u64()?;
        s.frees = dec.u64()?;
        s.chain_frees = dec.u64()?;
        s.relocations = dec.u64()?;
        s.relocated_words = dec.u64()?;
        s.ptr_compares = dec.u64()?;
        s.traps_taken = dec.u64()?;
        s.relocation_space_bytes = dec.u64()?;
        s.page_faults = dec.u64()?;
        s.injected_faults = dec.u64()?;
        s.fault_repairs = dec.u64()?;
        s.faults_delivered = dec.u64()?;
        Ok(s)
    }
}

fn encode_class(enc: &mut SnapEncoder, c: &ClassCounts) {
    enc.u64(c.l1_hits);
    enc.u64(c.partial_misses);
    enc.u64(c.full_misses);
}

fn decode_class(dec: &mut SnapDecoder<'_>) -> Result<ClassCounts, SnapCodecError> {
    Ok(ClassCounts {
        l1_hits: dec.u64()?,
        partial_misses: dec.u64()?,
        full_misses: dec.u64()?,
    })
}

impl RunStats {
    /// Serializes the complete statistics block — every counter of every
    /// component — so a finished run's `RunStats` can cross a process
    /// boundary (the sweep farm's worker protocol and campaign journal)
    /// and come back bit-identical.
    pub fn snapshot_encode(&self, enc: &mut SnapEncoder) {
        enc.u64(self.pipeline.cycles);
        enc.u64(self.pipeline.slots.busy);
        enc.u64(self.pipeline.slots.load_stall);
        enc.u64(self.pipeline.slots.store_stall);
        enc.u64(self.pipeline.slots.inst_stall);
        enc.u64(self.pipeline.dispatched);
        enc.u64(self.pipeline.replays);
        encode_class(enc, &self.cache.loads);
        encode_class(enc, &self.cache.stores);
        enc.u64(self.cache.l2_hits);
        enc.u64(self.cache.l2_misses);
        enc.u64(self.cache.prefetches_issued);
        enc.u64(self.cache.prefetches_dropped);
        enc.u64(self.cache.prefetches_redundant);
        enc.u64(self.cache.l1_writebacks);
        enc.u64(self.cache.l2_writebacks);
        enc.u64(self.bytes_l1_l2);
        enc.u64(self.bytes_l2_mem);
        self.fwd.snapshot_encode(enc);
        enc.u64(self.mem.pages);
        enc.u64(self.mem.fbits_set);
        enc.u64(self.heap.live_bytes);
        enc.u64(self.heap.peak_bytes);
        enc.u64(self.heap.total_allocated);
        enc.u64(self.heap.allocations);
        enc.u64(self.heap.frees);
    }

    /// Total decoder matching [`RunStats::snapshot_encode`].
    ///
    /// # Errors
    ///
    /// [`SnapCodecError::Truncated`] if the input ends early.
    pub fn snapshot_decode(dec: &mut SnapDecoder<'_>) -> Result<RunStats, SnapCodecError> {
        let pipeline = PipelineStats {
            cycles: dec.u64()?,
            slots: SlotCounts {
                busy: dec.u64()?,
                load_stall: dec.u64()?,
                store_stall: dec.u64()?,
                inst_stall: dec.u64()?,
            },
            dispatched: dec.u64()?,
            replays: dec.u64()?,
        };
        let cache = CacheStats {
            loads: decode_class(dec)?,
            stores: decode_class(dec)?,
            l2_hits: dec.u64()?,
            l2_misses: dec.u64()?,
            prefetches_issued: dec.u64()?,
            prefetches_dropped: dec.u64()?,
            prefetches_redundant: dec.u64()?,
            l1_writebacks: dec.u64()?,
            l2_writebacks: dec.u64()?,
        };
        let bytes_l1_l2 = dec.u64()?;
        let bytes_l2_mem = dec.u64()?;
        let fwd = FwdStats::snapshot_decode(dec)?;
        let mem = MemStats {
            pages: dec.u64()?,
            fbits_set: dec.u64()?,
        };
        let heap = HeapStats {
            live_bytes: dec.u64()?,
            peak_bytes: dec.u64()?,
            total_allocated: dec.u64()?,
            allocations: dec.u64()?,
            frees: dec.u64()?,
        };
        Ok(RunStats {
            pipeline,
            cache,
            bytes_l1_l2,
            bytes_l2_mem,
            fwd,
            mem,
            heap,
        })
    }
}

/// Complete statistics of one finished run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Pipeline totals (cycles, graduation-slot breakdown, replays).
    pub pipeline: PipelineStats,
    /// Cache hit/miss/prefetch counts.
    pub cache: CacheStats,
    /// Bytes moved between L1 and L2 (Fig. 6(b) bottom).
    pub bytes_l1_l2: u64,
    /// Bytes moved between L2 and memory (Fig. 6(b) top).
    pub bytes_l2_mem: u64,
    /// Forwarding and instruction-mix counters.
    pub fwd: FwdStats,
    /// Tagged-memory occupancy.
    pub mem: MemStats,
    /// Heap allocator accounting.
    pub heap: HeapStats,
}

impl RunStats {
    /// Total execution cycles.
    pub fn cycles(&self) -> u64 {
        self.pipeline.cycles
    }

    /// Graduation-slot breakdown.
    pub fn slots(&self) -> SlotCounts {
        self.pipeline.slots
    }

    /// Load D-cache misses split as (partial, full) — Fig. 6(a).
    pub fn load_misses(&self) -> (u64, u64) {
        (
            self.cache.loads.partial_misses,
            self.cache.loads.full_misses,
        )
    }

    /// Speedup of this run relative to a baseline (baseline cycles divided
    /// by this run's cycles), the quantity annotated under Fig. 5's bars.
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        baseline.cycles() as f64 / self.cycles().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_averages() {
        let mut f = FwdStats {
            loads: 100,
            forwarded_loads: 8,
            load_cycles: 1000,
            load_fwd_cycles: 200,
            ..FwdStats::default()
        };
        assert!((f.forwarded_load_fraction() - 0.08).abs() < 1e-12);
        let (fwd, ord) = f.avg_load_cycles();
        assert!((fwd - 2.0).abs() < 1e-12);
        assert!((ord - 8.0).abs() < 1e-12);
        f.stores = 0;
        assert_eq!(f.avg_store_cycles(), (0.0, 0.0));
    }

    #[test]
    fn speedup() {
        let mut base = RunStats::default();
        base.pipeline.cycles = 200;
        let mut opt = RunStats::default();
        opt.pipeline.cycles = 100;
        assert!((opt.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    /// A `RunStats` with a distinct non-zero value in every field, so a
    /// codec that drops, duplicates, or reorders any field fails the
    /// round-trip below.
    fn distinct_run_stats() -> RunStats {
        let mut s = RunStats::default();
        let mut next = 1u64;
        let mut n = || {
            next += 1;
            next
        };
        s.pipeline.cycles = n();
        s.pipeline.slots.busy = n();
        s.pipeline.slots.load_stall = n();
        s.pipeline.slots.store_stall = n();
        s.pipeline.slots.inst_stall = n();
        s.pipeline.dispatched = n();
        s.pipeline.replays = n();
        for c in [&mut s.cache.loads, &mut s.cache.stores] {
            c.l1_hits = n();
            c.partial_misses = n();
            c.full_misses = n();
        }
        s.cache.l2_hits = n();
        s.cache.l2_misses = n();
        s.cache.prefetches_issued = n();
        s.cache.prefetches_dropped = n();
        s.cache.prefetches_redundant = n();
        s.cache.l1_writebacks = n();
        s.cache.l2_writebacks = n();
        s.bytes_l1_l2 = n();
        s.bytes_l2_mem = n();
        s.fwd.loads = n();
        s.fwd.stores = n();
        s.fwd.prefetches = n();
        s.fwd.computes = n();
        s.fwd.fbit_reads = n();
        s.fwd.unforwarded_ops = n();
        s.fwd.forwarded_loads = n();
        s.fwd.forwarded_stores = n();
        for i in 0..HOPS_BUCKETS {
            s.fwd.load_hops[i] = n();
            s.fwd.store_hops[i] = n();
        }
        s.fwd.load_cycles = n();
        s.fwd.load_fwd_cycles = n();
        s.fwd.store_cycles = n();
        s.fwd.store_fwd_cycles = n();
        s.fwd.misspeculations = n();
        s.fwd.mallocs = n();
        s.fwd.frees = n();
        s.fwd.chain_frees = n();
        s.fwd.relocations = n();
        s.fwd.relocated_words = n();
        s.fwd.ptr_compares = n();
        s.fwd.traps_taken = n();
        s.fwd.relocation_space_bytes = n();
        s.fwd.page_faults = n();
        s.fwd.injected_faults = n();
        s.fwd.fault_repairs = n();
        s.fwd.faults_delivered = n();
        s.mem.pages = n();
        s.mem.fbits_set = n();
        s.heap.live_bytes = n();
        s.heap.peak_bytes = n();
        s.heap.total_allocated = n();
        s.heap.allocations = n();
        s.heap.frees = n();
        s
    }

    #[test]
    fn run_stats_codec_roundtrips_every_field() {
        let s = distinct_run_stats();
        let mut enc = SnapEncoder::new();
        s.snapshot_encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = SnapDecoder::new(&bytes);
        let back = RunStats::snapshot_decode(&mut dec).expect("decode");
        assert!(dec.is_exhausted(), "decoder consumed every byte");
        assert_eq!(back, s);
    }

    #[test]
    fn run_stats_codec_rejects_truncation_at_every_length() {
        let s = distinct_run_stats();
        let mut enc = SnapEncoder::new();
        s.snapshot_encode(&mut enc);
        let bytes = enc.into_bytes();
        for len in (0..bytes.len()).step_by(64).chain([bytes.len() - 1]) {
            let mut dec = SnapDecoder::new(&bytes[..len]);
            assert_eq!(
                RunStats::snapshot_decode(&mut dec),
                Err(SnapCodecError::Truncated),
                "len {len}"
            );
        }
    }
}
