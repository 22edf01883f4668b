//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. data-dependence speculation on/off (§3.2): without it, a load may
//!    not issue until all earlier stores' final addresses resolve;
//! 2. the forwarding hop penalty (hardware-walk vs exception-style);
//! 3. the VIS linearization-trigger threshold (the paper used 50);
//! 4. subtree clustering at a 256-byte line, where BH's 80-byte nodes
//!    finally pack several to a line (paper §5.3).

use memfwd_apps::{run_ok as run, App, RunConfig, Variant};
use memfwd_bench::paper::{Cell, Grid};
use memfwd_bench::scale_from_env;
use memfwd_tagmem::AllocPolicy;

fn main() {
    let scale = scale_from_env();

    println!("Ablation 1: data-dependence speculation (smv, scheme L, 32B lines)");
    for speculate in [true, false] {
        let mut cfg = RunConfig::new(Variant::Optimized);
        cfg.scale = scale;
        cfg.sim.dependence_speculation = speculate;
        let out = run(App::Smv, &cfg);
        println!(
            "  speculation={:<5}  cycles={:>12}  misspeculations={}",
            speculate,
            out.stats.cycles(),
            out.stats.fwd.misspeculations
        );
    }
    println!();

    println!("Ablation 2: forwarding hop penalty (smv, scheme L)");
    for penalty in [0u64, 4, 16, 64] {
        let mut cfg = RunConfig::new(Variant::Optimized);
        cfg.scale = scale;
        cfg.sim.fwd_hop_penalty = penalty;
        let out = run(App::Smv, &cfg);
        println!(
            "  hop penalty {:>3} cycles  ->  {:>12} cycles total",
            penalty,
            out.stats.cycles()
        );
    }
    println!();

    println!("Ablation 3: linearization threshold (vis, scheme L, 64B lines)");
    let n = Cell::new(App::Vis, Variant::Original, 64).run(scale);
    println!(
        "  threshold=never (N)  cycles={:>12}  relocations={:>8}",
        n.stats.cycles(),
        n.stats.fwd.relocations
    );
    for threshold in [10u64, 50, 200, 1000] {
        let mut cfg = RunConfig::new(Variant::Optimized);
        cfg.scale = scale;
        cfg.sim = cfg.sim.with_line_bytes(64);
        cfg.linearize_threshold = Some(threshold);
        let out = run(App::Vis, &cfg);
        assert_eq!(out.checksum, n.checksum);
        println!(
            "  threshold={:<4}       cycles={:>12}  relocations={:>8}",
            threshold,
            out.stats.cycles(),
            out.stats.fwd.relocations
        );
    }
    println!("  (too eager wastes relocation work; too lazy loses locality —");
    println!("   the paper's 50 sits in the flat middle of the curve)");
    println!();

    println!("Ablation 4: store buffer (compress, scheme N, 32B lines)");
    println!("  (graduating stores at buffer admission removes store stalls,");
    println!("   but an undersized buffer throttles bandwidth-bound store streams)");
    for entries in [None, Some(8usize), Some(64)] {
        let mut cfg = RunConfig::new(Variant::Original);
        cfg.scale = scale;
        cfg.sim.store_buffer_entries = entries;
        let out = run(App::Compress, &cfg);
        println!(
            "  store buffer {:<8}  cycles={:>12}  store-stall slots={}",
            match entries {
                None => "off".to_string(),
                Some(n) => format!("{n} ent."),
            },
            out.stats.cycles(),
            out.stats.slots().store_stall
        );
    }
    println!();

    println!("Ablation 5: hardware next-line prefetch vs software (vis, 32B)");
    for (label, hw, sw) in [
        ("none", false, false),
        ("hw next-line", true, false),
        ("sw (paper)", false, true),
        ("both", true, true),
    ] {
        let mut cfg = RunConfig::new(Variant::Optimized);
        cfg.scale = scale;
        cfg.sim.hierarchy.next_line_prefetch = hw;
        if sw {
            cfg = cfg.with_prefetch(2);
        }
        let out = run(App::Vis, &cfg);
        println!(
            "  {:<13}  cycles={:>12}  prefetches issued={}",
            label,
            out.stats.cycles(),
            out.stats.cache.prefetches_issued
        );
    }
    println!();

    println!("Ablation 6: allocator policy (vis, 64B lines)");
    println!("  (does the linearization win survive a modern segregated");
    println!("   size-class allocator, which co-locates same-sized objects?)");
    for policy in [AllocPolicy::FirstFit, AllocPolicy::SizeClass] {
        let mut n_cfg = RunConfig::new(Variant::Original);
        n_cfg.scale = scale;
        n_cfg.sim = n_cfg.sim.with_line_bytes(64);
        n_cfg.sim.alloc_policy = policy;
        let mut l_cfg = n_cfg;
        l_cfg.variant = Variant::Optimized;
        let n = run(App::Vis, &n_cfg);
        let l = run(App::Vis, &l_cfg);
        assert_eq!(n.checksum, l.checksum);
        println!(
            "  {:?}: N={:>11} L={:>11}  speedup={:.2}",
            policy,
            n.stats.cycles(),
            l.stats.cycles(),
            l.stats.speedup_over(&n.stats)
        );
    }
    println!();

    println!("Ablation 7: BH subtree clustering vs line size (incl. 256B)");
    let lines = [32u64, 64, 128, 256];
    let bh = |variant, lb| Cell::new(App::Bh, variant, lb);
    let variants = [Variant::Original, Variant::Optimized];
    let grid = Grid::compute(
        lines.iter().flat_map(|&lb| variants.map(|v| bh(v, lb))),
        scale,
    );
    for lb in lines {
        let (n, l) = (
            &grid[bh(Variant::Original, lb)],
            &grid[bh(Variant::Optimized, lb)],
        );
        println!(
            "  {:>3}B lines: N={:>11} L={:>11}  speedup={:.2}",
            lb,
            n.stats.cycles(),
            l.stats.cycles(),
            l.stats.speedup_over(&n.stats)
        );
    }
    println!("  (80-byte tree nodes only pack multiple-per-line at 256B+,");
    println!("   which is why the paper says BH needs long lines.)");
}
