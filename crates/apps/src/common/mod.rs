//! Shared workload infrastructure: deterministic RNG, the generic list
//! library, and heap-scatter helpers.

pub mod listlib;
pub mod rng;

pub use listlib::{scatter_pad, scatter_pad_if, ListLib, PrefetchMode};
pub use rng::Rng;

use crate::registry::{RunConfig, Variant};

/// The prefetch policy for list traversals implied by a run configuration:
/// the paper's `NP` case prefetches one node ahead through the next
/// pointer (all that pointer chasing allows), while `LP` exploits the
/// linearized layout with block prefetching.
pub fn prefetch_mode(cfg: &RunConfig) -> PrefetchMode {
    if !cfg.prefetch {
        PrefetchMode::None
    } else if cfg.variant == Variant::Optimized {
        PrefetchMode::Linear {
            lines: cfg.prefetch_lines,
        }
    } else {
        PrefetchMode::NextPointer
    }
}
