//! Litmus-test gate: every `.litmus` file under the repo-level
//! `tests/litmus/` directory must model-check clean.
//!
//! For each test this enumerates all interleavings under SC and TSO,
//! replays each schedule on a real `SmpMachine`, and checks the
//! declared `allowed` / `forbidden` / `certify` expectations plus the
//! two soundness cross-validations (the DRF guarantee and the
//! weak-outcome-implies-reported-race completeness check). A failure
//! here means either the TSO semantics or the certifier drifted from
//! the pinned memory-model contract.

use std::fs;
use std::path::PathBuf;

use memfwd::MemoryModel;
use memfwd_analyze::{certify_litmus, check_litmus, parse_litmus, render_litmus_human};

fn litmus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/litmus"))
}

/// Load every `.litmus` file in `tests/litmus/`, sorted by name so the
/// gate's output order is stable.
fn suite() -> Vec<(String, String)> {
    let mut files: Vec<_> = fs::read_dir(litmus_dir())
        .expect("tests/litmus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "tests/litmus must not be empty");
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable litmus file");
            (name, text)
        })
        .collect()
}

#[test]
fn every_litmus_test_passes_under_both_models() {
    let mut failures = Vec::new();
    for (file, text) in suite() {
        let test = match parse_litmus(&text, file.trim_end_matches(".litmus")) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{file}: parse error: {e}"));
                continue;
            }
        };
        match check_litmus(&test) {
            Ok(result) if result.passed() => {}
            Ok(result) => {
                failures.push(format!(
                    "{file}:\n{}",
                    render_litmus_human(std::slice::from_ref(&result))
                ));
            }
            Err(e) => failures.push(format!("{file}: check error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "litmus gate failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn suite_covers_the_canonical_shapes() {
    let names: Vec<String> = suite().into_iter().map(|(n, _)| n).collect();
    for required in [
        "sb.litmus",
        "sb_fences.litmus",
        "mp.litmus",
        "mp_release.litmus",
        "lb.litmus",
        "iriw.litmus",
        "fbit_install.litmus",
        "fbit_install_released.litmus",
        "locked.litmus",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "litmus suite is missing {required}"
        );
    }
}

#[test]
fn sb_is_the_model_discriminator() {
    // The acceptance criterion for the suite: the SC-forbidden store
    // buffering outcome is actually observed under TSO, i.e. the two
    // models are distinguishable by enumeration, not just by fiat.
    let (_, text) = suite()
        .into_iter()
        .find(|(n, _)| n == "sb.litmus")
        .expect("sb.litmus present");
    let test = parse_litmus(&text, "sb").unwrap();
    let result = check_litmus(&test).expect("sb model-checks");
    assert!(
        result.passed(),
        "{}",
        render_litmus_human(std::slice::from_ref(&result))
    );
    let sc = &result.checks[0];
    let tso = &result.checks[1];
    let weak: Vec<_> = tso.outcomes.difference(&sc.outcomes).collect();
    assert_eq!(weak.len(), 1, "TSO adds exactly the store-load reordering");
    let outcome = weak[0];
    assert!(
        outcome.iter().all(|(_, v)| *v == 0),
        "the weak outcome is r0=0 r1=0"
    );
}

#[test]
fn self_relocation_is_a_typed_cycle_under_both_models() {
    // Relocating a word onto itself leaves a forwarding self-loop; the
    // second relocation must end in the typed §3.2 cycle fault, under
    // either model, instead of chasing the loop forever.
    let text = "locs d n\n0: reloc d d 1\n0: reloc d n 1\n1: load n -> r0\n";
    let test = parse_litmus(text, "self_reloc").expect("parses");
    for model in [MemoryModel::Sc, MemoryModel::Tso] {
        let err = certify_litmus(&test, model).expect_err("the cycle must fault");
        assert!(err.contains("forwarding cycle"), "{model}: {err}");
    }
    let err = check_litmus(&test).expect_err("enumeration must fault too");
    assert!(err.contains("forwarding cycle"), "{err}");
}
