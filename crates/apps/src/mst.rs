//! Olden `mst`: minimum spanning tree with per-vertex hash tables
//! (paper §5.3 groups it with the list-linearization applications).
//!
//! Vertices live on a linked list; each vertex owns a small hash table
//! mapping neighbour id → edge weight, with chained buckets. Prim's
//! algorithm repeatedly walks the remaining-vertex list and, for each
//! vertex, walks a hash bucket of the newly chosen vertex — linked-list
//! traversal through a scattered heap, the paper's target pattern. The
//! optimized variant linearizes the vertex list (periodically, as removals
//! mutate it) and every bucket list (once, after construction).

use crate::ckpt::{bad_cursor, Checkpointer, CkOutcome, CursorR};
use crate::common::{prefetch_mode, scatter_pad, PrefetchMode, Rng};
use crate::registry::{AppOutput, RunConfig, Scale, Variant};
use memfwd::{list_linearize, list_walk, ListDesc, Machine, MachineFault, Token};
use memfwd_tagmem::Addr;

/// Vertex node: `[next, id, mindist, buckets_ptr]`.
const VERTEX_WORDS: u64 = 4;
/// Edge node: `[next, key, weight, pad]`.
const EDGE_WORDS: u64 = 4;

const VERTEX_DESC: ListDesc = ListDesc {
    node_words: VERTEX_WORDS,
    next_word: 0,
};
const EDGE_DESC: ListDesc = ListDesc {
    node_words: EDGE_WORDS,
    next_word: 0,
};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of vertices.
    pub vertices: u64,
    /// Edges per vertex (to pseudo-random neighbours).
    pub degree: u64,
    /// Hash buckets per vertex.
    pub buckets: u64,
    /// Re-linearize the vertex list after this many removals (optimized).
    pub relinearize_every: u64,
}

impl Params {
    /// Parameters for a workload scale.
    pub fn for_scale(scale: Scale) -> Params {
        match scale {
            Scale::Smoke => Params {
                vertices: 48,
                degree: 6,
                buckets: 4,
                relinearize_every: 16,
            },
            Scale::Bench => Params {
                vertices: 640,
                degree: 14,
                buckets: 4,
                relinearize_every: 160,
            },
        }
    }
}

/// Runs `mst`.
pub fn run(cfg: &RunConfig) -> AppOutput {
    crate::registry::unwrap_uncheckpointed(run_ck(cfg, &mut Checkpointer::disabled()))
}

/// Runs `mst` under a checkpoint policy; see [`crate::registry::run_ck`].
///
/// # Errors
///
/// Any [`MachineFault`] the run raises, including a rejected resume image.
pub fn run_ck(cfg: &RunConfig, ck: &mut Checkpointer) -> Result<CkOutcome, MachineFault> {
    let p = Params::for_scale(cfg.scale);
    let optimized = cfg.variant == Variant::Optimized;
    let mode = prefetch_mode(cfg);

    let (mut m, cursor) = ck.begin(cfg)?;
    let (round0, mut chosen_id, mut total_weight, mut removals, rng, head, mut pool) =
        if cursor.is_empty() {
            build(cfg, &p, &mut m, optimized)
        } else {
            let mut c = CursorR::new(&cursor);
            let round0 = c.u64()?;
            let chosen_id = c.u64()?;
            let total_weight = c.u64()?;
            let removals = c.u64()?;
            let rng = c.rng()?;
            let head = c.addr()?;
            let pool = c.pool()?;
            c.finish()?;
            if round0 == 0 || round0 > p.vertices {
                return Err(bad_cursor());
            }
            (round0, chosen_id, total_weight, removals, rng, head, pool)
        };

    // ---- Prim's algorithm over the remaining-vertex list.
    for round in round0..p.vertices {
        if ck.boundary(&m, || {
            let mut w = vec![
                round,
                chosen_id,
                total_weight,
                removals,
                rng.state(),
                head.0,
            ];
            pool.encode_words(&mut w);
            w
        })? {
            return Ok(CkOutcome::Stopped);
        }
        // Walk the remaining vertices, updating min-distances via a hash
        // lookup against the newly chosen vertex.
        let mut best: Option<(u64, u64)> = None; // (dist, id)
        let chosen = chosen_id;
        let (mut v, mut tok) = m.load_ptr_dep(head, Token::ready());
        while !v.is_null() {
            match mode {
                PrefetchMode::NextPointer => {
                    let (nv, t) = m.load_ptr_dep(v, tok);
                    if !nv.is_null() {
                        m.prefetch_dep(nv, 1, t);
                    }
                }
                PrefetchMode::Linear { lines } => {
                    m.prefetch(v + lines * m.line_bytes(), lines.min(4));
                }
                PrefetchMode::None => {}
            }
            let (id, t1) = m.load_word_dep(v.add_words(1), tok);
            let (mindist, t2) = m.load_word_dep(v.add_words(2), t1);
            let (buckets, t3) = m.load_ptr_dep(v.add_words(3), t2);
            // Hash lookup of `chosen` in v's table.
            let slot = buckets.add_words(chosen % p.buckets);
            let (mut e, mut et) = m.load_ptr_dep(slot, t3);
            let mut found: Option<u64> = None;
            while !e.is_null() {
                let (key, k1) = m.load_word_dep(e.add_words(1), et);
                m.compute(1);
                if key == chosen {
                    let (w, k2) = m.load_word_dep(e.add_words(2), k1);
                    found = Some(w);
                    et = k2;
                    break;
                }
                let (ne, k2) = m.load_ptr_dep(e, k1);
                e = ne;
                et = k2;
            }
            let nd = match found {
                Some(w) if w < mindist => {
                    et = m.store_dep(v.add_words(2), 8, w, et);
                    w
                }
                _ => mindist,
            };
            m.compute(2);
            if best.is_none_or(|(bd, bid)| (nd, id) < (bd, bid)) {
                best = Some((nd, id));
            }
            let (nv, t4) = m.load_ptr_dep(v, et);
            v = nv;
            tok = t4;
        }
        let (dist, id) = best.expect("graph is connected by construction");
        assert_ne!(dist, u64::MAX, "disconnected vertex {id}");
        total_weight = total_weight.wrapping_add(dist);
        chosen_id = id;
        remove_vertex(&mut m, head, id);
        removals += 1;
        if optimized && removals.is_multiple_of(p.relinearize_every) {
            list_linearize(&mut m, head, VERTEX_DESC, &mut pool);
        }
    }

    Ok(CkOutcome::Done(AppOutput {
        checksum: total_weight,
        stats: m.finish(),
    }))
}

/// Graph construction plus the one-shot optimization and the seed-vertex
/// removal — everything that precedes Prim's loop. Returns the loop's
/// starting state.
#[allow(clippy::type_complexity)]
fn build(
    cfg: &RunConfig,
    p: &Params,
    m: &mut Machine,
    optimized: bool,
) -> (u64, u64, u64, u64, Rng, Addr, memfwd_tagmem::Pool) {
    let mut pool = m.new_pool();
    let mut rng = Rng::new(cfg.seed ^ 0x006D_7374);

    // ---- Build the graph: vertex list + per-vertex hash tables.
    let head = m.malloc(8);
    m.store_ptr(head, Addr::NULL);
    let mut vertex_of: Vec<Addr> = Vec::with_capacity(p.vertices as usize);
    for id in 0..p.vertices {
        scatter_pad(m, &mut rng);
        let v = m.malloc(VERTEX_WORDS * 8);
        let buckets = m.malloc(p.buckets * 8);
        for b in 0..p.buckets {
            m.store_ptr(buckets.add_words(b), Addr::NULL);
        }
        let first = m.load_ptr(head);
        m.store_ptr(v, first);
        m.store_word(v.add_words(1), id);
        m.store_word(v.add_words(2), u64::MAX);
        m.store_ptr(v.add_words(3), buckets);
        m.store_ptr(head, v);
        vertex_of.push(v);
    }
    // Edges: vertex id -> `degree` neighbours at deterministic offsets, with
    // symmetric weights so the MST is well-defined.
    for id in 0..p.vertices {
        let buckets = m.load_ptr(vertex_of[id as usize].add_words(3));
        for e in 1..=p.degree {
            scatter_pad(m, &mut rng);
            let nb = (id + e * e) % p.vertices;
            if nb == id {
                continue;
            }
            let weight = edge_weight(id, nb, p.vertices);
            insert_edge(m, buckets, p.buckets, nb, weight);
            let nb_buckets = m.load_ptr(vertex_of[nb as usize].add_words(3));
            insert_edge(m, nb_buckets, p.buckets, id, weight);
        }
    }

    // ---- One-shot optimization after construction.
    if optimized {
        list_linearize(m, head, VERTEX_DESC, &mut pool);
        // Bucket lists, per vertex in (new) list order.
        let mut bucket_slots = Vec::new();
        list_walk(m, head, 0, |m, v, tok| {
            let (buckets, t) = m.load_ptr_dep(v.add_words(3), tok);
            for b in 0..p.buckets {
                bucket_slots.push(buckets.add_words(b));
            }
            t
        });
        for slot in bucket_slots {
            list_linearize(m, slot, EDGE_DESC, &mut pool);
        }
    }

    // Remove the list-head vertex; it seeds the tree.
    let first_v = m.load_ptr(head);
    let chosen_id = m.load_word(first_v.add_words(1));
    let next0 = m.load_ptr(first_v);
    m.store_ptr(head, next0);

    (1, chosen_id, 0, 0, rng, head, pool)
}

/// Deterministic symmetric edge weight in `1..=16n`.
fn edge_weight(a: u64, b: u64, n: u64) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (lo.wrapping_mul(0x9E37)
        .wrapping_add(hi.wrapping_mul(0x85EB))
        % (16 * n))
        + 1
}

fn insert_edge(m: &mut Machine, buckets: Addr, nbuckets: u64, key: u64, weight: u64) {
    let node = m.malloc(EDGE_WORDS * 8);
    let slot = buckets.add_words(key % nbuckets);
    let old = m.load_ptr(slot);
    m.store_ptr(node, old);
    m.store_word(node.add_words(1), key);
    m.store_word(node.add_words(2), weight);
    m.store_ptr(slot, node);
}

fn remove_vertex(m: &mut Machine, head: Addr, id: u64) {
    let mut prev_slot = head;
    let (mut v, mut tok) = m.load_ptr_dep(head, Token::ready());
    while !v.is_null() {
        let (vid, t1) = m.load_word_dep(v.add_words(1), tok);
        if vid == id {
            let (next, _) = m.load_ptr_dep(v, t1);
            m.store_ptr(prev_slot, next);
            return;
        }
        prev_slot = v;
        let (next, t2) = m.load_ptr_dep(v, t1);
        v = next;
        tok = t2;
    }
    panic!("vertex {id} not on the remaining list");
}

#[cfg(test)]
mod tests {
    use crate::registry::{run_ok as run, App, RunConfig, Variant};

    #[test]
    fn checksums_match_across_variants() {
        let orig = run(App::Mst, &RunConfig::new(Variant::Original).smoke());
        let opt = run(App::Mst, &RunConfig::new(Variant::Optimized).smoke());
        assert_eq!(orig.checksum, opt.checksum, "same MST weight");
        assert!(opt.stats.fwd.relocations > 0);
        assert!(orig.checksum > 0);
    }

    #[test]
    fn prefetch_preserves_results() {
        let orig = run(App::Mst, &RunConfig::new(Variant::Original).smoke());
        let np = run(
            App::Mst,
            &RunConfig::new(Variant::Original).smoke().with_prefetch(2),
        );
        let lp = run(
            App::Mst,
            &RunConfig::new(Variant::Optimized).smoke().with_prefetch(2),
        );
        assert_eq!(orig.checksum, np.checksum);
        assert_eq!(orig.checksum, lp.checksum);
    }

    #[test]
    fn mst_weight_is_invariant_of_machine_speed() {
        let a = run(App::Mst, &RunConfig::new(Variant::Original).smoke());
        let mut cfg = RunConfig::new(Variant::Original).smoke();
        cfg.sim.hierarchy.mem_latency = 1;
        let b = run(App::Mst, &cfg);
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.stats.cycles(), b.stats.cycles());
    }

    #[test]
    fn vertex_list_relinearized_periodically() {
        let opt = run(App::Mst, &RunConfig::new(Variant::Optimized).smoke());
        // One-shot pass (vertices + edge lists) plus at least one periodic
        // re-linearization of the shrinking vertex list.
        let p = super::Params::for_scale(crate::registry::Scale::Smoke);
        assert!(
            opt.stats.fwd.relocations > p.vertices,
            "expected more relocations than vertices: {}",
            opt.stats.fwd.relocations
        );
    }
}
