//! **Memory forwarding**: safe fine-grained data relocation for cache
//! locality — a reproduction of Luk & Mowry, *Memory Forwarding: Enabling
//! Aggressive Layout Optimizations by Guaranteeing the Safety of Data
//! Relocation* (ISCA 1999).
//!
//! The crate combines the tagged memory (`memfwd-tagmem`), cache hierarchy
//! (`memfwd-cache`) and out-of-order pipeline (`memfwd-cpu`) substrates
//! into an execution-driven [`Machine`], and layers the paper's relocation
//! library on top:
//!
//! - [`relocate`] — the `Relocate()` primitive of Fig. 4(a);
//! - [`list_linearize`] — `ListLinearize()` of Fig. 4(b);
//! - [`subtree_cluster`] — subtree clustering (Fig. 9, used for BH);
//! - [`merge_tables`] / [`copy_region`] / [`color_relocate`] — packing,
//!   copying and coloring optimizations (§2.2, §5.3);
//! - [`ptr_eq`] / [`final_address`] — final-address pointer comparison
//!   (§2.1);
//! - user-level traps on forwarded references ([`TrapInfo`], §3.2).
//!
//! # Example: relocation is always safe
//!
//! ```
//! use memfwd::{relocate, Machine, SimConfig};
//!
//! let mut m = Machine::new(SimConfig::default());
//! let old = m.malloc(16);
//! m.store(old, 8, 42);
//! let stray_pointer = old; // some alias the compiler cannot see
//!
//! let new = m.malloc(16);
//! relocate(&mut m, old, new, 2);
//!
//! // The stray pointer still observes the object, via forwarding:
//! assert_eq!(m.load(stray_pointer, 8), 42);
//! let stats = m.finish();
//! assert_eq!(stats.fwd.forwarded_loads, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed `MachineFault`s (or records one
// before panicking); bare `unwrap()` stays confined to `#[cfg(test)]`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod cluster;
mod config;
pub mod fault;
pub mod inject;
mod inspect;
mod linearize;
mod machine;
mod packing;
mod paging;
pub mod plan;
mod ptrcmp;
mod reloc;
mod replay;
mod smp;
pub mod snapshot;
mod stats;
mod trace;
mod trap;

pub use cluster::{subtree_cluster, TreeDesc};
pub use config::{MemoryModel, SimConfig, WatchdogConfig};
pub use fault::{record_last_fault, take_last_fault, MachineFault};
pub use inject::{splitmix64, Corruption, InjectConfig, InjectKind, Injector};
pub use inspect::{dump_chain, heap_summary, line_map};
pub use linearize::{list_linearize, list_walk, LinearizeOutcome, ListDesc};
pub use machine::Machine;
pub use packing::{color_relocate, copy_region, merge_tables, MergedTables};
pub use paging::PagingConfig;
pub use plan::{begin_plan_capture, take_captured_steps, RelocPlan, RelocStep};
pub use ptrcmp::{final_address, ptr_eq};
pub use reloc::{relocate, relocate_adjacent, try_relocate};
pub use replay::{replay_trace, try_replay_trace};
pub use smp::{CoreStats, SmpConfig, SmpEvent, SmpMachine};
pub use snapshot::{
    check_snapshot_config, fnv1a64, read_snapshot_file, restore_machine, restore_smp, save_machine,
    save_smp, write_snapshot_file, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::{FwdStats, RunStats, HOPS_BUCKETS};
pub use trace::{forwarding_sources, hot_miss_lines, TraceKind, TraceRecord};
pub use trap::{FaultHandler, TrapInfo, TrapOutcome, MAX_FAULT_RETRIES};

// Re-export the vocabulary types users need alongside the machine.
pub use memfwd_cache::{CacheStats, HierarchyConfig};
pub use memfwd_cpu::{PipelineConfig, SlotCounts, Token};
pub use memfwd_tagmem::{Addr, Pool, WORD_BYTES};

/// Escapes `s` for a JSON string body: quotes, backslashes, `\n`, and
/// every other control character below 0x20 as `\uXXXX`. Shared by every
/// JSON the workspace writes: sweep reports, service responses, and the
/// analyzer's diagnostics and litmus results.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
