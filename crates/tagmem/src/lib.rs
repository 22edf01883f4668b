//! Simulated 64-bit tagged memory for *memory forwarding* (Luk & Mowry,
//! ISCA 1999).
//!
//! This crate is the lowest-level substrate of the reproduction: a sparse,
//! paged, byte-addressable memory in which every 64-bit word carries a
//! one-bit tag — the *forwarding bit*. When software relocates an object it
//! stores the object's new address into the old location and sets the bit;
//! the chain-resolution functions ([`resolve`], [`chain_words`]) then take any access to the old location to the
//! object's new home, guaranteeing that data relocation is always safe.
//!
//! The crate deliberately contains **no timing model**: it is the functional
//! half of the simulator. Timing lives in `memfwd-cache` / `memfwd-cpu` and
//! the two are combined by the `memfwd` core crate.
//!
//! # Example
//!
//! ```
//! use memfwd_tagmem::{Addr, TaggedMemory, resolve};
//!
//! let mut mem = TaggedMemory::new();
//! // Place a value at its "old" home, then relocate it to a new home.
//! mem.write_data(Addr(0x1000), 8, 42);
//! mem.write_data(Addr(0x8000), 8, 42);
//! mem.unforwarded_write(Addr(0x1000), 0x8000, true); // forwarding address
//!
//! let r = resolve(&mem, Addr(0x1000), 64).unwrap();
//! assert_eq!(r.final_addr, Addr(0x8000));
//! assert_eq!(mem.read_data(r.final_addr, 8), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors (or records a typed fault
// before panicking); bare `unwrap()` stays confined to `#[cfg(test)]`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod alloc;
mod chain;
mod error;
mod fxhash;
mod memory;
mod page;
mod snapcodec;
mod word;

pub use alloc::{AllocPolicy, Heap, HeapStats, Pool};
pub use chain::{
    chain_words, resolve, resolve_unbounded, resolve_with_scratch, Resolution, DEFAULT_HOP_LIMIT,
};
pub use error::{CycleError, TagMemError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use memory::{MemStats, TaggedMemory};
pub use page::{PAGE_BYTES, PAGE_WORDS};
pub use snapcodec::{SnapCodecError, SnapDecoder, SnapEncoder};
pub use word::{validate_access, Addr, WORD_BYTES};
