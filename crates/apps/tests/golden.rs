//! Golden regression tests: checksums, timing counters and full stats.
//!
//! The values below were captured from a verified run at smoke scale with
//! the default seed (12345) and the default `SimConfig`. The checksums pin
//! down the exact workload behaviour: an unintended change to an
//! application kernel, the RNG, the allocator or the functional memory
//! model will show up here as a checksum mismatch. The timing counters pin
//! the simulated result itself, for both layout variants: a change to the
//! order in which an app issues its references, or to the pipeline, cache
//! or forwarding models, will show up as a counter mismatch. The full
//! statistics hash pins every other counter as well — all three variants,
//! the complete `RunStats` `Debug` rendering every statdump derives from —
//! while the six readable counters still name the counter that moved.
//!
//! If a workload or timing model is changed *intentionally*, regenerate the
//! tables by running each app × variant at smoke scale and pasting the new
//! values (the full-stats test prints every mismatching hash).

use memfwd::{fnv1a64, RunStats};
use memfwd_apps::{run_ok as run, App, RunConfig, Variant};

/// `[pipeline.cycles, pipeline.dispatched, cache.l2_misses, bytes_l2_mem,
/// fwd.loads, fwd.stores]` of one run.
type Timing = [u64; 6];

fn timing(s: &RunStats) -> Timing {
    [
        s.pipeline.cycles,
        s.pipeline.dispatched,
        s.cache.l2_misses,
        s.bytes_l2_mem,
        s.fwd.loads,
        s.fwd.stores,
    ]
}

/// `(app, checksum, original timing, optimized timing)`.
const GOLDEN: [(App, u64, Timing, Timing); 8] = [
    (
        App::Health,
        0x0000000051128597,
        [13969, 20854, 213, 6816, 4136, 2288],
        [22318, 23840, 446, 14272, 4340, 3160],
    ),
    (
        App::Mst,
        0x0000000000000bfa,
        [56252, 49057, 806, 25792, 13419, 2927],
        [109248, 66769, 1526, 48832, 14381, 6277],
    ),
    (
        App::Radiosity,
        0x52b908c459595752,
        [16475, 20142, 258, 8256, 3720, 1080],
        [21205, 23910, 424, 13568, 3888, 1800],
    ),
    (
        App::Vis,
        0x7d5ab56b682b228a,
        [17986, 25353, 231, 7392, 7707, 1380],
        [31272, 32823, 631, 20192, 8052, 3009],
    ),
    (
        App::Eqntott,
        0x00000000001bda85,
        [6330, 9352, 177, 5664, 2307, 493],
        [9521, 11907, 300, 9600, 2418, 1057],
    ),
    (
        App::Bh,
        0x0a597c1c147d4cf1,
        [14886, 21146, 311, 9952, 7060, 1853],
        [20790, 25760, 481, 15392, 8344, 2599],
    ),
    (
        App::Compress,
        0x6ff0327239124e75,
        [24729, 60159, 445, 14240, 9775, 25320],
        [35123, 68357, 958, 30656, 10799, 27368],
    ),
    (
        App::Smv,
        0xde1120526afad793,
        [46249, 43389, 647, 20704, 12124, 2279],
        [102224, 64555, 1450, 46400, 13054, 6289],
    ),
];

/// FNV-1a-64 of the full `RunStats` `Debug` rendering, per app, for
/// `[original, optimized, static]`.
const FULL_STATS: [(App, [u64; 3]); 8] = [
    (
        App::Health,
        [0xcfda97a4013912be, 0x979e4501a7d51251, 0x9881daf382ab41a7],
    ),
    (
        App::Mst,
        [0x03ddb31177b9f93c, 0x191089846138ecd9, 0x03ddb31177b9f93c],
    ),
    (
        App::Radiosity,
        [0xb11d4ed8c18aa3a7, 0x88ffd687d606e02e, 0xb11d4ed8c18aa3a7],
    ),
    (
        App::Vis,
        [0xf9b5625b3fa9c129, 0xd83a225bbd39277a, 0x646414cea272bff5],
    ),
    (
        App::Eqntott,
        [0x5167e5de552db339, 0x7c29e318aa3694d8, 0xda9059227b1fffb2],
    ),
    (
        App::Bh,
        [0x29d06d1378e601f9, 0xf630923f624e02af, 0x29d06d1378e601f9],
    ),
    (
        App::Compress,
        [0x1569de0f7d6421b9, 0x465aadea4e05459c, 0x1569de0f7d6421b9],
    ),
    (
        App::Smv,
        [0x068ea1d4ed72b06d, 0xdf2dbd350273fe36, 0x068ea1d4ed72b06d],
    ),
];

const VARIANTS: [Variant; 3] = [Variant::Original, Variant::Optimized, Variant::Static];

#[test]
fn smoke_checksums_match_golden_values() {
    for (app, want, _, _) in GOLDEN {
        let got = run(app, &RunConfig::new(Variant::Original).smoke()).checksum;
        assert_eq!(
            got, want,
            "{app}: golden checksum mismatch — {got:#018x} != {want:#018x}. \
             If the workload change is intentional, update tests/golden.rs."
        );
    }
}

#[test]
fn optimized_variants_match_golden_values_too() {
    // Transitively guaranteed by the safety tests, but pinning it here
    // catches a simultaneous regression of both variants.
    for (app, want, _, _) in GOLDEN {
        let got = run(app, &RunConfig::new(Variant::Optimized).smoke()).checksum;
        assert_eq!(got, want, "{app}: optimized variant diverged from golden");
    }
}

#[test]
fn smoke_timing_counters_match_golden_values() {
    for (app, _, original, optimized) in GOLDEN {
        for (variant, want) in [
            (Variant::Original, original),
            (Variant::Optimized, optimized),
        ] {
            let got = timing(&run(app, &RunConfig::new(variant).smoke()).stats);
            assert_eq!(
                got, want,
                "{app} {variant:?}: golden timing mismatch \
                 [cycles, dispatched, l2_misses, bytes_l2_mem, loads, stores]. \
                 If the change is intentional, update tests/golden.rs."
            );
        }
    }
}

#[test]
fn smoke_full_run_stats_match_golden_hashes() {
    let mut mismatches = Vec::new();
    for (app, want) in FULL_STATS {
        for (variant, want) in VARIANTS.into_iter().zip(want) {
            let stats = run(app, &RunConfig::new(variant).smoke()).stats;
            let got = fnv1a64(format!("{stats:?}").as_bytes());
            if got != want {
                mismatches.push(format!(
                    "{app} {variant:?}: {got:#018x} != {want:#018x} \
                     (cycles, dispatched, l2_misses, bytes_l2_mem, loads, stores = {:?})",
                    timing(&stats)
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "full RunStats hash mismatch. If the change is intentional, update \
         tests/golden.rs.\n{}",
        mismatches.join("\n")
    );
}
