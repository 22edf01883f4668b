//! Golden regression tests: checksums and timing counters.
//!
//! The values below were captured from a verified run at smoke scale with
//! the default seed (12345) and the default `SimConfig`. The checksums pin
//! down the exact workload behaviour: an unintended change to an
//! application kernel, the RNG, the allocator or the functional memory
//! model will show up here as a checksum mismatch. The timing counters pin
//! the simulated result itself, for both layout variants: a change to the
//! order in which an app issues its references, or to the pipeline, cache
//! or forwarding models, will show up as a counter mismatch.
//!
//! If a workload or timing model is changed *intentionally*, regenerate the
//! table by running each app × variant at smoke scale and pasting the new
//! values.

use memfwd::RunStats;
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
