//! The static relocation-plan verifier.
//!
//! The verifier interprets a [`RelocPlan`] abstractly: it maintains the
//! forwarding-edge graph (word → forwarding address) that executing the
//! plan's steps would build, mirroring the machine's chain-append
//! semantics word for word — `relocate` walks a source word's chain to its
//! terminal, demand-stores the data through the *target's* chain, then
//! installs a terminal → target edge. On that graph it checks every
//! condition under which execution would fault or corrupt data, and a few
//! more that merely waste forwarding hops.
//!
//! ## Soundness claim
//!
//! Define executing a plan as: apply its `pre` edges, run every step
//! through `try_relocate` on a machine whose heap and hard hop budget
//! match the plan, then demand-load every word that appears in any step's
//! source or target range or as a `pre` edge source. **If the verifier
//! reports no error-severity diagnostic, that execution raises no
//! [`memfwd::MachineFault`].** The converse is deliberately not claimed: the
//! verifier is conservative (e.g. an out-of-bounds target is flagged even
//! though the sparse simulated memory happily absorbs the store). The
//! shadow sanitizer (`shadow` feature) cross-validates both directions at
//! runtime — see `crates/analyze/tests/`.

use crate::diag::{Code, Diagnostic, Report};
use memfwd::{RelocPlan, RelocStep};
use memfwd_tagmem::Addr;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Bound on identically-coded findings kept per report; past it the
/// finding list only grows a summary entry. Keeps pathological plans (a
/// million out-of-bounds steps) from drowning the report.
const MAX_PER_CODE: usize = 32;

struct Ctx {
    /// The forwarding graph: word address → forwarding address.
    fwd: HashMap<u64, u64>,
    diagnostics: Vec<Diagnostic>,
    per_code: HashMap<Code, usize>,
    /// (code, anchor-word) pairs already reported, for deduplication.
    seen: HashSet<(Code, u64)>,
    budget: Option<u32>,
    /// Deepest budget-checked walk seen (demand stores and the probe
    /// pass) — the basis of [`HopProfile::max_hops`].
    max_hops: u32,
}

impl Ctx {
    fn emit(&mut self, code: Code, step: Option<usize>, addr: Option<Addr>, message: String) {
        if let Some(a) = addr {
            if !self.seen.insert((code, a.0)) {
                return;
            }
        }
        let n = self.per_code.entry(code).or_insert(0);
        *n += 1;
        match (*n).cmp(&(MAX_PER_CODE + 1)) {
            std::cmp::Ordering::Less => self.diagnostics.push(Diagnostic {
                code,
                step,
                addr,
                message,
            }),
            std::cmp::Ordering::Equal => self.diagnostics.push(Diagnostic {
                code,
                step: None,
                addr: None,
                message: format!("further {code} findings suppressed after {MAX_PER_CODE}"),
            }),
            std::cmp::Ordering::Greater => {}
        }
    }

    /// Reports a cycle (deduplicated by its smallest member).
    fn emit_cycle(&mut self, step: Option<usize>, entry: Addr, members: &BTreeSet<u64>) {
        let anchor = members.iter().next().copied().unwrap_or(entry.0);
        self.emit(
            Code::Mf001,
            step,
            Some(Addr(anchor)),
            format!(
                "forwarding chain through {:#x} is cyclic ({} words in the cycle)",
                entry.0,
                members.len()
            ),
        );
    }
}

/// Walks `start`'s chain in the static forwarding graph `fwd` (word →
/// forwarding address). Returns `Ok((terminal, hops))`, or
/// `Err(cycle_members)` when the walk revisits a word.
///
/// This is the analyzer's own oracle walk, kept apart from the machine's
/// hop guard on purpose: the soundness tests compare the two.
pub(crate) fn walk(fwd: &HashMap<u64, u64>, start: Addr) -> Result<(Addr, u32), BTreeSet<u64>> {
    let mut cur = start.word_base().0;
    let mut seen = HashSet::new();
    seen.insert(cur);
    let mut hops = 0u32;
    while let Some(&next) = fwd.get(&cur) {
        let next = Addr(next).word_base().0;
        hops += 1;
        if !seen.insert(next) {
            // Extract the cyclic suffix for a canonical anchor.
            let mut members = BTreeSet::new();
            let mut w = next;
            loop {
                if !members.insert(w) {
                    break;
                }
                match fwd.get(&w) {
                    Some(&n) => w = Addr(n).word_base().0,
                    None => break,
                }
            }
            return Err(members);
        }
        cur = next;
    }
    Ok((Addr(cur), hops))
}

fn ranges_overlap(a: Addr, b: Addr, words: u64) -> bool {
    let (a0, a1) = (a.0, a.0 + 8 * words);
    let (b0, b1) = (b.0, b.0 + 8 * words);
    a0 < b1 && b0 < a1
}

/// The hop-depth profile of a verified plan: how deep the chains the
/// machine would actually walk get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopProfile {
    /// The deepest budget-checked walk (demand stores during execution
    /// plus the post-plan probe pass). Any `hard_hop_budget >= max_hops`
    /// admits every one of those walks; anything smaller faults. When the
    /// plan declares a budget and a walk overruns it, the plan aborts at
    /// that step, so the profile only covers walks up to the abort —
    /// infer on a budget-free copy of the plan for the full picture.
    pub max_hops: u32,
    /// A forwarding cycle exists (MF001): some walk never terminates, so
    /// *no* finite budget makes the plan safe.
    pub cyclic: bool,
}

impl HopProfile {
    /// The minimum `hard_hop_budget` under which every checked walk
    /// stays in budget, or `None` when a cycle makes every budget unsafe.
    pub fn min_safe_budget(&self) -> Option<u32> {
        if self.cyclic {
            None
        } else {
            Some(self.max_hops)
        }
    }
}

/// Verifies `plan`, producing a [`Report`] labelled `target`.
pub fn verify_plan(target: &str, plan: &RelocPlan) -> Report {
    verify_plan_with_hops(target, plan).0
}

/// Infers the minimum safe `hard_hop_budget` for `plan` by verifying a
/// budget-free copy (so no budget overrun can abort the measurement) and
/// profiling every walk the machine would budget-check. Returns the
/// budget-free report and the minimum safe budget (`None` if cyclic).
pub fn infer_hop_budget(target: &str, plan: &RelocPlan) -> (Report, Option<u32>) {
    let mut unbounded = plan.clone();
    unbounded.hard_hop_budget = None;
    let (report, profile) = verify_plan_with_hops(target, &unbounded);
    let min = profile.min_safe_budget();
    (report, min)
}

/// Verifies `plan` and additionally returns its [`HopProfile`].
pub fn verify_plan_with_hops(target: &str, plan: &RelocPlan) -> (Report, HopProfile) {
    let mut ctx = Ctx {
        fwd: HashMap::new(),
        diagnostics: Vec::new(),
        per_code: HashMap::new(),
        seen: HashSet::new(),
        budget: plan.hard_hop_budget,
        max_hops: 0,
    };
    // Words whose post-plan chains the soundness contract probes.
    let mut probes: BTreeSet<u64> = BTreeSet::new();

    for &(word, tgt) in &plan.pre {
        ctx.fwd.insert(word.word_base().0, tgt.0);
        probes.insert(word.word_base().0);
    }

    for (k, step) in plan.steps.iter().enumerate() {
        apply_step(&mut ctx, &mut probes, k, step, plan);
    }

    // Post-plan probe pass: every source, target, and pre word must still
    // be demand-accessible within the hop budget.
    let mut reported_deep: HashSet<u64> = HashSet::new();
    for &w in &probes {
        match walk(&ctx.fwd, Addr(w)) {
            Ok((terminal, hops)) => {
                ctx.max_hops = ctx.max_hops.max(hops);
                if let Some(budget) = ctx.budget {
                    if hops > budget && reported_deep.insert(terminal.0) {
                        ctx.emit(
                            Code::Mf002,
                            None,
                            Some(Addr(w)),
                            format!(
                                "chain from {w:#x} is {hops} hops deep, over the hard \
                                 hop budget of {budget}"
                            ),
                        );
                    }
                }
            }
            Err(members) => ctx.emit_cycle(None, Addr(w), &members),
        }
    }

    let report = Report {
        target: target.to_string(),
        steps: plan.steps.len(),
        diagnostics: ctx.diagnostics,
    };
    let profile = HopProfile {
        max_hops: ctx.max_hops,
        cyclic: report.has(Code::Mf001),
    };
    (report, profile)
}

fn apply_step(
    ctx: &mut Ctx,
    probes: &mut BTreeSet<u64>,
    k: usize,
    step: &RelocStep,
    plan: &RelocPlan,
) {
    let RelocStep { src, tgt, words } = *step;
    // A step can carry both defects (e.g. misaligned source AND null
    // target); emit every one that applies, because which fault the machine
    // raises first is its business — the report must predict either.
    let mut rejected = false;
    if src.is_null() || tgt.is_null() {
        ctx.emit(
            Code::Mf007,
            Some(k),
            Some(if src.is_null() { src } else { tgt }),
            format!(
                "relocation with a null {} address",
                if src.is_null() { "source" } else { "target" }
            ),
        );
        rejected = true;
    }
    if !src.is_aligned(8) || !tgt.is_aligned(8) {
        let bad = if src.is_aligned(8) { tgt } else { src };
        ctx.emit(
            Code::Mf008,
            Some(k),
            Some(bad),
            format!(
                "{:#x} is not word-aligned; relocate() faults before moving data",
                bad.0
            ),
        );
        rejected = true;
    }
    if rejected {
        return; // the machine rejects the step before touching memory
    }
    if words == 0 {
        return; // a no-op step builds no edges
    }
    if ranges_overlap(src, tgt, words) {
        ctx.emit(
            Code::Mf003,
            Some(k),
            Some(src),
            format!(
                "source [{:#x}, {:#x}) overlaps target [{:#x}, {:#x}): the copy reads \
                 words the same step already overwrote",
                src.0,
                src.0 + 8 * words,
                tgt.0,
                tgt.0 + 8 * words
            ),
        );
    }
    let heap_end = plan.heap_base.0 + plan.heap_capacity;
    if tgt.0 < plan.heap_base.0 || tgt.0 + 8 * words > heap_end {
        ctx.emit(
            Code::Mf006,
            Some(k),
            Some(tgt),
            format!(
                "target [{:#x}, {:#x}) leaves the heap [{:#x}, {heap_end:#x})",
                tgt.0,
                tgt.0 + 8 * words,
                plan.heap_base.0
            ),
        );
    }

    let mut warned_double = false;
    let mut warned_fwd_tgt = false;
    for i in 0..words {
        let cur = src.add_words(i);
        let t = tgt.add_words(i);
        probes.insert(cur.0);
        probes.insert(t.0);

        if !warned_double && ctx.fwd.contains_key(&cur.0) {
            warned_double = true;
            ctx.emit(
                Code::Mf005,
                Some(k),
                Some(cur),
                format!(
                    "source word {:#x} is already forwarded: the chain is extended and \
                     every stale access pays an extra hop",
                    cur.0
                ),
            );
        }
        // Chain-append: find the source word's terminal.
        let terminal = match walk(&ctx.fwd, cur) {
            Ok((terminal, _)) => terminal,
            Err(members) => {
                // try_relocate's cycle check fires here; the step (and the
                // plan, since relocate() panics) aborts.
                ctx.emit_cycle(Some(k), cur, &members);
                return;
            }
        };
        if !warned_fwd_tgt && ctx.fwd.contains_key(&t.0) {
            warned_fwd_tgt = true;
            ctx.emit(
                Code::Mf004,
                Some(k),
                Some(t),
                format!(
                    "target word {:#x} is already forwarded: the moved data lands at \
                     its chain terminal, not at {:#x} itself",
                    t.0, t.0
                ),
            );
        }
        // The data copy is a demand store through the target's chain.
        match walk(&ctx.fwd, t) {
            Ok((_, hops)) => {
                ctx.max_hops = ctx.max_hops.max(hops);
                if let Some(budget) = ctx.budget {
                    if hops > budget {
                        ctx.emit(
                            Code::Mf002,
                            Some(k),
                            Some(t),
                            format!(
                                "the demand store to {:#x} walks {hops} hops, over the \
                                 hard hop budget of {budget}",
                                t.0
                            ),
                        );
                        return; // the store faults; the plan aborts
                    }
                }
            }
            Err(members) => {
                ctx.emit_cycle(Some(k), t, &members);
                return; // the store faults; the plan aborts
            }
        }
        // Installing terminal → t: does the target's chain lead back to the
        // terminal? Then this edge closes a cycle. (No fault fires at this
        // step — the store above completed before the edge existed — but
        // every later access through the chain faults; the probe pass
        // confirms it. Anchoring the finding at the step that closes the
        // cycle is what makes the diagnostic actionable.)
        let mut w = t.word_base().0;
        loop {
            if w == terminal.0 {
                ctx.emit(
                    Code::Mf001,
                    Some(k),
                    Some(terminal),
                    format!(
                        "installing the forwarding edge {:#x} -> {:#x} closes a cycle",
                        terminal.0, t.0
                    ),
                );
                break;
            }
            match ctx.fwd.get(&w) {
                Some(&n) => w = Addr(n).word_base().0,
                None => break,
            }
        }
        ctx.fwd.insert(terminal.0, t.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Verdict;

    fn plan(steps: &[(u64, u64, u64)]) -> RelocPlan {
        let mut p = RelocPlan::new(Addr(0x10_000), 1 << 31);
        p.steps = steps
            .iter()
            .map(|&(s, t, w)| RelocStep {
                src: Addr(s),
                tgt: Addr(t),
                words: w,
            })
            .collect();
        p
    }

    #[test]
    fn clean_plan_is_safe() {
        let p = plan(&[(0x10_000, 0x20_000, 4), (0x30_000, 0x40_000, 2)]);
        let r = verify_plan("t", &p);
        assert_eq!(r.verdict(), Verdict::Safe, "{r:?}");
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn reciprocal_relocation_closes_a_cycle() {
        // relocate(a, b); relocate(b, a) — the second step's install edge
        // b -> a plus the existing a -> b is a cycle.
        let p = plan(&[(0x10_000, 0x10_008, 1), (0x10_008, 0x10_000, 1)]);
        let r = verify_plan("t", &p);
        assert!(r.has(Code::Mf001), "{r:?}");
        assert_eq!(r.verdict(), Verdict::Unsafe);
    }

    #[test]
    fn cyclic_pre_chain_is_flagged() {
        let mut p = plan(&[(0x10_000, 0x20_000, 1)]);
        p.pre = vec![
            (Addr(0x30_000), Addr(0x30_008)),
            (Addr(0x30_008), Addr(0x30_000)),
        ];
        let r = verify_plan("t", &p);
        assert!(r.has(Code::Mf001), "{r:?}");
    }

    #[test]
    fn deep_chain_overruns_a_declared_budget_only() {
        // w0 -> w1 -> ... -> w5 built link by link: each step relocates the
        // current terminal onto the next word, so no step re-relocates an
        // already-forwarded source (that would be MF005).
        let steps: Vec<(u64, u64, u64)> = (0..5)
            .map(|i| (0x10_000 + 8 * i, 0x10_008 + 8 * i, 1))
            .collect();
        let mut p = plan(&steps);
        assert_eq!(verify_plan("t", &p).verdict(), Verdict::Safe);
        p.hard_hop_budget = Some(3);
        let r = verify_plan("t", &p);
        assert!(r.has(Code::Mf002), "{r:?}");
        p.hard_hop_budget = Some(16);
        assert_eq!(verify_plan("t", &p).verdict(), Verdict::Safe);
    }

    #[test]
    fn overlap_double_reloc_and_forwarded_target() {
        let r = verify_plan("t", &plan(&[(0x10_000, 0x10_008, 2)]));
        assert!(r.has(Code::Mf003), "{r:?}");

        // Double relocation of the same source: warning, not error.
        let r = verify_plan(
            "t",
            &plan(&[(0x10_000, 0x20_000, 1), (0x10_000, 0x30_000, 1)]),
        );
        assert!(r.has(Code::Mf005), "{r:?}");
        assert_eq!(r.verdict(), Verdict::SafeWithWarnings);

        // Relocating onto a word that itself forwards.
        let r = verify_plan(
            "t",
            &plan(&[(0x20_000, 0x30_000, 1), (0x10_000, 0x20_000, 1)]),
        );
        assert!(r.has(Code::Mf004), "{r:?}");
        assert_eq!(r.verdict(), Verdict::SafeWithWarnings);
    }

    #[test]
    fn bounds_null_and_alignment() {
        let mut p = plan(&[(0x10_000, 0xff_ff00_0000, 1)]);
        assert!(verify_plan("t", &p).has(Code::Mf006));
        p = plan(&[(0x10_000, 0, 1)]);
        assert!(verify_plan("t", &p).has(Code::Mf007));
        p = plan(&[(0x10_004, 0x20_000, 1)]);
        assert!(verify_plan("t", &p).has(Code::Mf008));
    }

    #[test]
    fn inferred_budget_is_the_tight_bound() {
        // The deep-chain plan from above: w0 -> ... -> w5, deepest probe
        // walk is 5 hops.
        let steps: Vec<(u64, u64, u64)> = (0..5)
            .map(|i| (0x10_000 + 8 * i, 0x10_008 + 8 * i, 1))
            .collect();
        let p = plan(&steps);
        let (_, required) = infer_hop_budget("t", &p);
        let required = required.expect("acyclic");
        // Tightness both ways: the inferred budget passes, one less fails.
        let mut q = p.clone();
        q.hard_hop_budget = Some(required);
        assert_eq!(verify_plan("t", &q).verdict(), Verdict::Safe);
        assert!(required > 0);
        q.hard_hop_budget = Some(required - 1);
        assert!(verify_plan("t", &q).has(Code::Mf002));
    }

    #[test]
    fn inference_ignores_a_declared_budget_and_flags_cycles() {
        let steps: Vec<(u64, u64, u64)> = (0..5)
            .map(|i| (0x10_000 + 8 * i, 0x10_008 + 8 * i, 1))
            .collect();
        let mut p = plan(&steps);
        // A declared too-small budget must not truncate the measurement.
        p.hard_hop_budget = Some(1);
        let (report, required) = infer_hop_budget("t", &p);
        assert!(!report.has(Code::Mf002), "{report:?}");
        assert!(required.expect("acyclic") > 1);

        // A cyclic plan has no finite safe budget.
        let cyc = plan(&[(0x10_000, 0x10_008, 1), (0x10_008, 0x10_000, 1)]);
        let (report, required) = infer_hop_budget("t", &cyc);
        assert!(report.has(Code::Mf001));
        assert_eq!(required, None);
    }

    #[test]
    fn flood_of_findings_is_capped() {
        // 100 distinct misaligned sources (distinct anchors defeat the
        // duplicate filter, so only the per-code cap bounds the list).
        let steps: Vec<(u64, u64, u64)> =
            (0..100).map(|i| (0x10_004 + 16 * i, 0x20_000, 1)).collect();
        let r = verify_plan("t", &plan(&steps));
        let n_mf008 = r
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::Mf008)
            .count();
        assert!(n_mf008 <= MAX_PER_CODE + 1, "{n_mf008}");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.message.contains("suppressed")),
            "{r:?}"
        );
    }
}
