//! Criterion micro-benchmarks of the access-pipeline hot paths touched by
//! the host-performance overhaul: page translation (micro-TLB), the
//! combined data+fbit read, scratch-buffer chain resolution, and the cache
//! probe fast path. These are the repo's regression guard for simulator
//! *host* speed; simulated timing is covered by the golden tests.

use criterion::{criterion_group, criterion_main, Criterion};
use memfwd::{Machine, SimConfig};
use memfwd_cache::{AccessKind, Hierarchy, HierarchyConfig, MshrFile};
use memfwd_tagmem::{resolve_with_scratch, Addr, TaggedMemory, DEFAULT_HOP_LIMIT, PAGE_BYTES};
use std::hint::black_box;

fn bench_page_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_translation");
    let mut mem = TaggedMemory::new();
    for p in 0..64u64 {
        mem.write_data(Addr(0x10_000 + p * PAGE_BYTES as u64), 8, p);
    }
    // Sequential words within one page: every access after the first hits
    // the micro-TLB.
    group.bench_function("read_sequential_tlb_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            black_box(mem.read_data(Addr(0x10_000 + i), 8))
        })
    });
    // Page-strided reads: every access changes page, forcing the index
    // probe (the micro-TLB worst case).
    group.bench_function("read_page_strided_tlb_miss", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 64;
            black_box(mem.read_data(Addr(0x10_000 + p * PAGE_BYTES as u64), 8))
        })
    });
    group.bench_function("write_sequential", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            mem.write_data(Addr(0x10_000 + i), 8, i);
        })
    });
    group.bench_function("read_word_tagged_combined", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            black_box(mem.read_word_tagged(Addr(0x10_000 + i)))
        })
    });
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolve_scratch");
    let mut mem = TaggedMemory::new();
    // An unforwarded word, a short chain, and a chain long enough to
    // engage the accurate cycle check.
    for h in 0..4u64 {
        mem.unforwarded_write(Addr(0x2000 + h * 64), 0x2000 + (h + 1) * 64, true);
    }
    for h in 0..32u64 {
        mem.unforwarded_write(Addr(0x8000 + h * 64), 0x8000 + (h + 1) * 64, true);
    }
    let mut scratch = Vec::new();
    group.bench_function("unforwarded", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x100)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.bench_function("4_hops", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x2004)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.bench_function("32_hops_cycle_check_engaged", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x8004)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_cache_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_probe");
    group.bench_function("l1_hit", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let warm = h.access(0, 0x40, AccessKind::Load);
        let mut t = warm.complete_at;
        b.iter(|| {
            let a = h.access(t, black_box(0x40), AccessKind::Load);
            t = a.complete_at;
            black_box(a)
        })
    });
    group.bench_function("miss_stream", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let mut t = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096) & 0x3F_FFFF;
            let a = h.access(t, black_box(addr), AccessKind::Load);
            t = a.complete_at;
            black_box(a)
        })
    });
    group.finish();
}

fn bench_machine_refs(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_refs");
    group.bench_function("load_hit", |b| {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(64);
        m.store_word(a, 7);
        b.iter(|| black_box(m.load_word(black_box(a))))
    });
    group.bench_function("load_forwarded_1_hop", |b| {
        let mut m = Machine::new(SimConfig::default());
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store_word(new, 7);
        m.unforwarded_write(old, new.0, true);
        b.iter(|| black_box(m.load_word(black_box(old))))
    });
    group.bench_function("store_hit", |b| {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(64);
        b.iter(|| m.store_word(black_box(a), 9))
    });
    group.finish();
}

fn bench_mshr_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("mshr_probe");
    // A populated MSHR file probed the way a run of misses probes it:
    // repeated in_flight checks against the flat lane-chunked array.
    let mut mshr = MshrFile::new(8);
    for i in 0..8u64 {
        mshr.allocate(0x100 + i, u64::MAX - i, false);
    }
    group.bench_function("probe_hit_8_entries", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 8;
            black_box(mshr.in_flight(black_box(0x100 + i)))
        })
    });
    group.bench_function("probe_miss_8_entries", |b| {
        b.iter(|| black_box(mshr.in_flight(black_box(0xDEAD))))
    });
    group.bench_function("batched_probe_32_misses", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for i in 0..32u64 {
                if mshr.in_flight(black_box(0x100 + i)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("prune_nothing_expired", |b| {
        b.iter(|| {
            mshr.prune(black_box(1));
            black_box(mshr.outstanding())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_page_translation,
    bench_resolve,
    bench_cache_probe,
    bench_machine_refs,
    bench_mshr_probe
);
criterion_main!(benches);
