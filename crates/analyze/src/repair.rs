//! Automatic repair of hop-depth findings (`--repair`).
//!
//! The one transformation the machine's semantics makes free is the
//! *terminal rewrite*: a demand store through a forwarded target word
//! lands at that word's chain terminal anyway, and the install edge is
//! terminal-anchored too, so rewriting a step's target to the terminal
//! its chain had at that point in the plan moves the same data to the
//! same final home — it only removes the intermediate hops. That kills
//! the MF004 warning at the step and, because later probe walks now skip
//! the bypassed links, it is frequently enough to pull an MF002
//! budget-overrun plan back under its declared `hard_hop_budget`.
//!
//! What it cannot do:
//!
//! - **MF001 cycles** — no target rewrite removes an edge, so a cyclic
//!   plan is rejected up front.
//! - **Chains the plan itself builds link by link** (each target fresh at
//!   its step, depth emerging only at the probe pass) — there is no
//!   forwarded target to rewrite.
//! - **Multi-word steps** whose per-word terminals are not contiguous —
//!   a `RelocStep` has one target base, so only single-word steps are
//!   rewritten.
//!
//! Every repair is gated: the edited plan is re-verified and returned
//! only if the re-verification reports no error-severity diagnostic.
//! Anything else comes back [`RepairOutcome::Unrepairable`] with the
//! failing report attached — the tool never writes a plan it cannot
//! certify.

use crate::diag::{Report, Verdict};
use crate::verify::{verify_plan, walk};
use memfwd::{RelocPlan, RelocStep};
use memfwd_tagmem::Addr;
use std::collections::HashMap;

/// One applied rewrite: step `step`'s target changed from `old_tgt` to
/// its chain terminal `new_tgt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEdit {
    /// Index of the rewritten step in `plan.steps`.
    pub step: usize,
    /// The target the plan declared.
    pub old_tgt: Addr,
    /// The terminal the data was going to land at anyway.
    pub new_tgt: Addr,
}

/// Result of [`repair_plan`].
#[derive(Debug, Clone)]
pub enum RepairOutcome {
    /// The plan already verifies without error-severity findings and no
    /// step targets a forwarded word: nothing to rewrite.
    AlreadyClean {
        /// The (unchanged) verification report.
        report: Report,
    },
    /// Terminal rewrites were applied and the edited plan re-verified
    /// clean of error-severity diagnostics.
    Repaired {
        /// The minimally-edited plan (only step targets differ).
        plan: RelocPlan,
        /// The rewrites, in step order.
        edits: Vec<RepairEdit>,
        /// The re-verification report for the repaired plan.
        report: Report,
    },
    /// No rewrite sequence fixes this plan.
    Unrepairable {
        /// Why repair gave up.
        reason: String,
        /// The report that made it give up (original or post-rewrite).
        report: Report,
    },
}

/// Replays `plan` against the forwarding graph it builds, rewriting each
/// single-word step whose target is already forwarded to that target's
/// current terminal. Later steps replay against the *rewritten* graph,
/// so a chain of rewrites composes. Returns the edited plan and edits.
fn rewrite_terminals(plan: &RelocPlan) -> (RelocPlan, Vec<RepairEdit>) {
    let mut repaired = plan.clone();
    let mut edits = Vec::new();
    let mut fwd: HashMap<u64, u64> = HashMap::new();
    for &(word, tgt) in &plan.pre {
        fwd.insert(word.word_base().0, tgt.0);
    }
    for (k, step) in repaired.steps.iter_mut().enumerate() {
        let RelocStep { src, tgt, words } = *step;
        // Mirror the verifier: rejected steps build no edges.
        if src.is_null() || tgt.is_null() || !src.is_aligned(8) || !tgt.is_aligned(8) || words == 0
        {
            continue;
        }
        if words == 1 {
            if let Ok((terminal, hops)) = walk(&fwd, tgt) {
                if hops > 0 {
                    edits.push(RepairEdit {
                        step: k,
                        old_tgt: tgt,
                        new_tgt: terminal,
                    });
                    step.tgt = terminal;
                }
            }
        }
        // Install the step's edges (against the possibly-rewritten
        // target) so later walks see the repaired graph. A cycle in
        // either walk aborts the replay; the caller's cycle check and
        // the re-verify gate report it.
        for i in 0..step.words {
            let t = step.tgt.add_words(i);
            let Ok((terminal, _)) = walk(&fwd, src.add_words(i)) else {
                return (repaired, edits);
            };
            if walk(&fwd, t).is_err() {
                return (repaired, edits);
            }
            fwd.insert(terminal.0, t.0);
        }
    }
    (repaired, edits)
}

/// Attempts to repair `plan` by terminal-rewriting step targets, gating
/// the result on a clean re-verification (no error-severity findings).
pub fn repair_plan(target: &str, plan: &RelocPlan) -> RepairOutcome {
    use crate::diag::Code;
    let before = verify_plan(target, plan);
    if before.has(Code::Mf001) {
        return RepairOutcome::Unrepairable {
            reason: "forwarding cycle (MF001): a target rewrite never removes an edge, so no \
                     rewrite sequence can break the cycle"
                .into(),
            report: before,
        };
    }
    let (repaired, edits) = rewrite_terminals(plan);
    if edits.is_empty() {
        return if before.verdict() == Verdict::Unsafe {
            RepairOutcome::Unrepairable {
                reason: "no step targets an already-forwarded word: terminal rewriting has \
                         nothing to shorten"
                    .into(),
                report: before,
            }
        } else {
            RepairOutcome::AlreadyClean { report: before }
        };
    }
    let after = verify_plan(&format!("{target} [repaired]"), &repaired);
    if after.verdict() == Verdict::Unsafe {
        return RepairOutcome::Unrepairable {
            reason: format!(
                "{} terminal rewrite(s) applied but error-severity findings remain",
                edits.len()
            ),
            report: after,
        };
    }
    RepairOutcome::Repaired {
        plan: repaired,
        edits,
        report: after,
    }
}

/// Renders `edits` one per line, `step K: tgt OLD -> NEW`.
pub fn render_edits(edits: &[RepairEdit]) -> String {
    let mut out = String::new();
    for e in edits {
        out.push_str(&format!(
            "step {}: tgt {:#x} -> {:#x}\n",
            e.step, e.old_tgt.0, e.new_tgt.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use crate::planfile::{parse_plan, render_plan};

    fn plan(budget: Option<u32>, steps: &[(u64, u64, u64)]) -> RelocPlan {
        let mut p = RelocPlan::new(Addr(0x10_000), 1 << 20);
        p.hard_hop_budget = budget;
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
    fn deep_store_is_repaired_to_the_terminal() {
        // b -> c, c -> d, then a -> b: the last step targets a forwarded
        // word (MF004) and leaves a's chain 3 hops deep, over budget 2
        // (MF002). Rewriting the target to d fixes both.
        let p = plan(
            Some(2),
            &[
                (0x10_008, 0x10_010, 1),
                (0x10_010, 0x10_018, 1),
                (0x10_000, 0x10_008, 1),
            ],
        );
        let before = verify_plan("t", &p);
        assert!(
            before.has(Code::Mf002) && before.has(Code::Mf004),
            "{before:?}"
        );

        let RepairOutcome::Repaired {
            plan: q,
            edits,
            report,
        } = repair_plan("t", &p)
        else {
            panic!("expected a repair");
        };
        assert_eq!(report.verdict(), Verdict::Safe, "{report:?}");
        assert_eq!(edits.len(), 1);
        assert_eq!(edits[0].step, 2);
        assert_eq!(edits[0].old_tgt, Addr(0x10_008));
        assert_eq!(edits[0].new_tgt, Addr(0x10_018));
        assert_eq!(q.steps[2].tgt, Addr(0x10_018));
        // The repair is minimal: everything but the rewritten target is
        // byte-identical.
        assert_eq!(q.steps[0], p.steps[0]);
        assert_eq!(q.steps[1], p.steps[1]);
        assert_eq!(q.steps[2].src, p.steps[2].src);
        assert!(render_edits(&edits).contains("step 2: tgt 0x10008 -> 0x10018"));
    }

    #[test]
    fn rewrites_compose_across_steps() {
        // Two later steps target the same growing chain; each rewrite
        // replays against the graph the previous rewrite produced.
        let p = plan(
            Some(1),
            &[
                (0x10_008, 0x10_010, 1), // b -> c
                (0x10_000, 0x10_008, 1), // a -> b  (rewritten to a -> c)
                (0x10_020, 0x10_000, 1), // e -> a  (rewritten to e -> c)
            ],
        );
        let RepairOutcome::Repaired { edits, report, .. } = repair_plan("t", &p) else {
            panic!("expected a repair");
        };
        assert_eq!(report.verdict(), Verdict::Safe, "{report:?}");
        assert_eq!(edits.len(), 2);
        assert_eq!(edits[0].new_tgt, Addr(0x10_010));
        assert_eq!(edits[1].new_tgt, Addr(0x10_010));
    }

    #[test]
    fn cycles_are_unrepairable() {
        let p = plan(None, &[(0x10_000, 0x10_008, 1), (0x10_008, 0x10_000, 1)]);
        let RepairOutcome::Unrepairable { reason, report } = repair_plan("t", &p) else {
            panic!("expected unrepairable");
        };
        assert!(reason.contains("MF001"), "{reason}");
        assert!(report.has(Code::Mf001));
    }

    #[test]
    fn link_by_link_chains_have_nothing_to_rewrite() {
        // The chain is built at its tail, so no step ever targets a
        // forwarded word — depth only shows up at the probe pass.
        let steps: Vec<(u64, u64, u64)> = (0..5)
            .map(|i| (0x10_000 + 8 * i, 0x10_008 + 8 * i, 1))
            .collect();
        let p = plan(Some(2), &steps);
        let RepairOutcome::Unrepairable { reason, .. } = repair_plan("t", &p) else {
            panic!("expected unrepairable");
        };
        assert!(reason.contains("nothing to shorten"), "{reason}");
    }

    #[test]
    fn clean_plans_pass_through() {
        let p = plan(Some(8), &[(0x10_000, 0x20_000, 4)]);
        let RepairOutcome::AlreadyClean { report } = repair_plan("t", &p) else {
            panic!("expected already-clean");
        };
        assert_eq!(report.verdict(), Verdict::Safe);
    }

    #[test]
    fn fixture_round_trips_through_the_plan_format() {
        let text = include_str!("../fixtures/repairable_deep_store.plan");
        let p = parse_plan(text).expect("fixture parses");
        assert_eq!(verify_plan("fixture", &p).verdict(), Verdict::Unsafe);
        let RepairOutcome::Repaired { plan: q, .. } = repair_plan("fixture", &p) else {
            panic!("fixture must repair");
        };
        // parse -> repair -> render -> parse -> verify: the written file
        // is the plan we certified.
        let reparsed = parse_plan(&render_plan(&q)).expect("rendered plan parses");
        assert_eq!(reparsed, q);
        assert_eq!(
            verify_plan("fixture [repaired]", &reparsed).verdict(),
            Verdict::Safe
        );
    }
}
