//! Olden `health`: a hierarchical health-care simulation (paper §5.3).
//!
//! A 4-ary tree of villages, each with a linked list of patients and a
//! waiting list. Every time step treats the patients of each village,
//! transfers some of them to the parent village's waiting list, admits the
//! waiting patients, and admits new arrivals at the leaves. The lists
//! mutate continuously, so the optimized variant invokes list
//! linearization periodically (via the mutation-counter threshold), which
//! is exactly the optimization the paper applies.

use crate::ckpt::{bad_cursor, Checkpointer, CkOutcome, CursorR};
use crate::common::{prefetch_mode, scatter_pad_if, ListLib, PrefetchMode, Rng};
use crate::registry::{AppOutput, RunConfig, Scale, Variant};
use memfwd::{Machine, MachineFault};
use memfwd_tagmem::Addr;

/// Patient node: `[next, id, time_in_system, severity]`.
const NODE_WORDS: u64 = 4;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tree depth (villages = (4^(depth+1) - 1) / 3).
    pub depth: u32,
    /// Initial patients per village.
    pub init_patients: u64,
    /// Simulation steps.
    pub steps: u64,
    /// Linearization trigger threshold (mutations per list).
    pub threshold: u64,
}

impl Params {
    /// Parameters for a workload scale.
    pub fn for_scale(scale: Scale) -> Params {
        match scale {
            Scale::Smoke => Params {
                depth: 2,
                init_patients: 4,
                steps: 3,
                threshold: 6,
            },
            Scale::Bench => Params {
                depth: 4,
                init_patients: 44,
                steps: 10,
                threshold: 100,
            },
        }
    }
}

struct Village {
    list: Addr,
    waiting: Addr,
    parent: Option<usize>,
    is_leaf: bool,
}

/// Serializes the village table into cursor words (4 per village; the
/// parent index is stored +1 with 0 meaning "root").
fn encode_villages(out: &mut Vec<u64>, villages: &[Village]) {
    out.push(villages.len() as u64);
    for v in villages {
        out.push(v.list.0);
        out.push(v.waiting.0);
        out.push(v.parent.map_or(0, |p| p as u64 + 1));
        out.push(u64::from(v.is_leaf));
    }
}

fn decode_villages(c: &mut CursorR<'_>) -> Result<Vec<Village>, MachineFault> {
    let n = c.u64()? as usize;
    let mut villages = Vec::new();
    for _ in 0..n {
        let list = c.addr()?;
        let waiting = c.addr()?;
        let parent = match c.u64()? {
            0 => None,
            p if (p as usize) <= n => Some(p as usize - 1),
            _ => return Err(bad_cursor()),
        };
        let is_leaf = match c.u64()? {
            0 => false,
            1 => true,
            _ => return Err(bad_cursor()),
        };
        villages.push(Village {
            list,
            waiting,
            parent,
            is_leaf,
        });
    }
    Ok(villages)
}

/// Runs `health`.
pub fn run(cfg: &RunConfig) -> AppOutput {
    crate::registry::unwrap_uncheckpointed(run_ck(cfg, &mut Checkpointer::disabled()))
}

/// Runs `health` under a checkpoint policy; see [`crate::registry::run_ck`].
///
/// # Errors
///
/// Any [`MachineFault`] the run raises, including a rejected resume image.
#[allow(clippy::needless_range_loop)] // loops index `villages` while `m` is borrowed mutably
pub fn run_ck(cfg: &RunConfig, ck: &mut Checkpointer) -> Result<CkOutcome, MachineFault> {
    let p = Params::for_scale(cfg.scale);
    let threshold = match cfg.variant {
        Variant::Optimized => Some(cfg.linearize_threshold.unwrap_or(p.threshold)),
        _ => None,
    };
    let scatter = cfg.variant != Variant::Static;
    let lib = ListLib::new(NODE_WORDS, threshold);
    let mode = prefetch_mode(cfg);

    let (mut m, cursor) = ck.begin(cfg)?;
    let (step0, mut next_id, mut checksum, mut rng, villages, mut pool) = if cursor.is_empty() {
        let mut pool = m.new_pool();
        let mut rng = Rng::new(cfg.seed);
        // ---- Build the village tree (breadth-first), scattered patients.
        let mut built: Vec<Village> = Vec::new();
        let new_village = |m: &mut Machine, parent: Option<usize>, is_leaf: bool| Village {
            list: lib.new_list(m),
            waiting: lib.new_list(m),
            parent,
            is_leaf,
        };
        built.push(new_village(&mut m, None, p.depth == 0));
        let mut frontier = vec![0usize];
        for d in 1..=p.depth {
            let mut next = Vec::new();
            for &parent in &frontier {
                for _ in 0..4 {
                    built.push(new_village(&mut m, Some(parent), d == p.depth));
                    next.push(built.len() - 1);
                }
            }
            frontier = next;
        }
        let mut next_id = 0u64;
        for vi in 0..built.len() {
            for _ in 0..p.init_patients {
                scatter_pad_if(&mut m, &mut rng, scatter);
                let sev = rng.below(4) + 1;
                lib.push_front(&mut m, built[vi].list, &[next_id, 0, sev], &mut pool);
                next_id += 1;
            }
        }
        (0u64, next_id, 0u64, rng, built, pool)
    } else {
        let mut c = CursorR::new(&cursor);
        let step0 = c.u64()?;
        let next_id = c.u64()?;
        let checksum = c.u64()?;
        let rng = c.rng()?;
        let villages = decode_villages(&mut c)?;
        let pool = c.pool()?;
        c.finish()?;
        if villages.is_empty() || step0 > p.steps {
            return Err(bad_cursor());
        }
        (step0, next_id, checksum, rng, villages, pool)
    };
    let save_cursor = |step: u64,
                       next_id: u64,
                       checksum: u64,
                       rng: &Rng,
                       villages: &[Village],
                       pool: &memfwd_tagmem::Pool| {
        let mut w = vec![step, next_id, checksum, rng.state()];
        encode_villages(&mut w, villages);
        pool.encode_words(&mut w);
        w
    };

    // ---- Simulate.
    for step in step0..p.steps {
        if ck.boundary(&m, || {
            save_cursor(step, next_id, checksum, &rng, &villages, &pool)
        })? {
            return Ok(CkOutcome::Stopped);
        }
        // Assessment pass: every village checks its patients (read-only),
        // as the original program's `check_patients_*` routines do.
        for v in &villages {
            lib.traverse(&mut m, v.list, mode, |m, node, tok| {
                let (id, t1) = m.load_word_dep(node.add_words(1), tok);
                let (sev, t2) = m.load_word_dep(node.add_words(3), t1);
                m.compute(2);
                checksum = checksum.wrapping_add(id ^ sev);
                t2
            });
        }
        // Treat patients; decide transfers to the parent's waiting list.
        // Every village is treated first; the RNG draws that pick the
        // actual movers are then consumed in village × patient order and
        // the list surgery runs afterwards, in the same per-village order
        // (traversals allocate nothing, so the heap-op sequence and hence
        // every address is fixed by that order).
        let mut candidates: Vec<Vec<(u64, u64, u64, u64)>> = Vec::new(); // (idx, id, time, sev)
        for v in &villages {
            let has_parent = v.parent.is_some();
            let mut cands = Vec::new();
            let mut idx = 0u64;
            lib.traverse(&mut m, v.list, mode, |m, node, tok| {
                let (id, t1) = m.load_word_dep(node.add_words(1), tok);
                let (time, t2) = m.load_word_dep(node.add_words(2), t1);
                let (sev, t3) = m.load_word_dep(node.add_words(3), t2);
                let t4 = m.store_dep(node.add_words(2), 8, time + 1, t3);
                m.compute(4); // diagnosis arithmetic
                if has_parent {
                    cands.push((idx, id, time + 1, sev));
                }
                idx += 1;
                t4
            });
            candidates.push(cands);
        }
        for vi in 0..villages.len() {
            let mut movers: Vec<(u64, u64, u64, u64)> = Vec::new();
            for &(i, id, time, sev) in &candidates[vi] {
                if rng.chance(sev, 12) {
                    movers.push((i, id, time, sev));
                }
            }
            for &(i, id, time, sev) in movers.iter().rev() {
                lib.delete_nth(&mut m, villages[vi].list, i, &mut pool);
                let parent = villages[vi].parent.expect("movers require a parent");
                lib.push_front(
                    &mut m,
                    villages[parent].waiting,
                    &[id, time, sev],
                    &mut pool,
                );
            }
        }
        // Admit waiting patients.
        for vi in 0..villages.len() {
            let w = villages[vi].waiting;
            loop {
                let mut first: Option<(u64, u64, u64)> = None;
                lib.traverse(&mut m, w, PrefetchMode::None, |m, node, tok| {
                    if first.is_none() {
                        let (id, t1) = m.load_word_dep(node.add_words(1), tok);
                        let (time, t2) = m.load_word_dep(node.add_words(2), t1);
                        let (sev, t3) = m.load_word_dep(node.add_words(3), t2);
                        first = Some((id, time, sev));
                        return t3;
                    }
                    tok
                });
                let Some((id, time, sev)) = first else { break };
                lib.delete_nth(&mut m, w, 0, &mut pool);
                lib.push_front(&mut m, villages[vi].list, &[id, time, sev], &mut pool);
            }
        }
        // New arrivals at the leaves.
        for vi in 0..villages.len() {
            if villages[vi].is_leaf && rng.chance(2, 3) {
                scatter_pad_if(&mut m, &mut rng, scatter);
                let sev = rng.below(4) + 1;
                lib.push_front(&mut m, villages[vi].list, &[next_id, 0, sev], &mut pool);
                next_id += 1;
            }
        }
    }

    // ---- Final accounting traversal (its own boundary: a resume can
    // land after the last simulation step).
    if ck.boundary(&m, || {
        save_cursor(p.steps, next_id, checksum, &rng, &villages, &pool)
    })? {
        return Ok(CkOutcome::Stopped);
    }
    for (vi, v) in villages.iter().enumerate() {
        let mut local = 0u64;
        lib.traverse(&mut m, v.list, mode, |m, node, tok| {
            let (id, t1) = m.load_word_dep(node.add_words(1), tok);
            let (time, t2) = m.load_word_dep(node.add_words(2), t1);
            local = local
                .wrapping_add(id.wrapping_mul(31).wrapping_add(time))
                .rotate_left(1);
            t2
        });
        checksum = checksum.wrapping_add(local.wrapping_mul(vi as u64 + 1));
    }

    Ok(CkOutcome::Done(AppOutput {
        checksum,
        stats: m.finish(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{run_ok as run, App, RunConfig, Variant};

    #[test]
    fn checksums_match_across_variants() {
        let orig = run(App::Health, &RunConfig::new(Variant::Original).smoke());
        let opt = run(App::Health, &RunConfig::new(Variant::Optimized).smoke());
        assert_eq!(orig.checksum, opt.checksum, "relocation must be safe");
        assert!(opt.stats.fwd.relocations > 0, "optimization actually ran");
    }

    #[test]
    fn prefetch_variants_same_checksum() {
        let base = run(App::Health, &RunConfig::new(Variant::Original).smoke());
        let np = run(
            App::Health,
            &RunConfig::new(Variant::Original).smoke().with_prefetch(2),
        );
        let lp = run(
            App::Health,
            &RunConfig::new(Variant::Optimized).smoke().with_prefetch(2),
        );
        assert_eq!(base.checksum, np.checksum);
        assert_eq!(base.checksum, lp.checksum);
        assert!(np.stats.fwd.prefetches > 0);
        assert!(lp.stats.fwd.prefetches > 0);
    }

    #[test]
    fn optimized_rarely_forwards() {
        // The linearization updates all traversal pointers, so forwarding
        // is a safety net that is almost never taken.
        let opt = run(App::Health, &RunConfig::new(Variant::Optimized).smoke());
        let frac = opt.stats.fwd.forwarded_load_fraction();
        assert!(frac < 0.01, "forwarded fraction {frac} should be ~0");
    }

    #[test]
    fn patients_are_conserved() {
        // Transfers move patients between villages; the total presented in
        // the final accounting must match arrivals (no patient lost by a
        // delete/insert bug). Conservation is what made the original Olden
        // benchmark's checksums meaningful.
        let orig = run(App::Health, &RunConfig::new(Variant::Original).smoke());
        let opt = run(App::Health, &RunConfig::new(Variant::Optimized).smoke());
        // Identical checksums imply identical final populations; also make
        // sure the workload actually moved patients around.
        assert_eq!(orig.checksum, opt.checksum);
        assert!(orig.stats.fwd.frees > 0, "transfers delete list nodes");
    }

    #[test]
    fn params_scale() {
        let s = Params::for_scale(Scale::Smoke);
        let b = Params::for_scale(Scale::Bench);
        assert!(b.depth > s.depth && b.steps > s.steps);
    }
}
