//! Simulation configuration.

use crate::inject::InjectConfig;
use crate::paging::PagingConfig;
use memfwd_cache::HierarchyConfig;
use memfwd_cpu::PipelineConfig;
use memfwd_tagmem::{Addr, AllocPolicy, DEFAULT_HOP_LIMIT};

/// Complete configuration of the simulated machine.
///
/// The defaults model the paper's evaluation platform: a 4-way out-of-order
/// superscalar with a two-level cache hierarchy, data-dependence
/// speculation enabled, and forwarding treated as an exception. These are
/// the values printed by the Table 2 bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Out-of-order pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Forwarding hops before the hardware raises the cycle-check exception
    /// (paper §3.2, "Handling Forwarding Cycles").
    pub hop_limit: u32,
    /// Extra cycles charged per forwarding hop, modelling the
    /// exception-style relaunch of the access.
    pub fwd_hop_penalty: u64,
    /// Cycles charged when a user-level trap fires on a forwarded access
    /// (paper §3.2, "Providing User-Level Traps Upon Forwarding").
    pub trap_penalty: u64,
    /// Cycles charged for the accurate software cycle check triggered when
    /// a chain exceeds `hop_limit` hops.
    pub cycle_check_penalty: u64,
    /// Perfect forwarding (the `Perf` bound of Fig. 10): references to
    /// relocated objects behave as if every pointer had been updated — no
    /// hop latency and no cache pollution from old locations.
    pub perfect_forwarding: bool,
    /// Data-dependence speculation (§3.2). When disabled, every load waits
    /// for all earlier stores' final addresses to resolve.
    pub dependence_speculation: bool,
    /// Instruction cost charged to `malloc`.
    pub malloc_cost: u64,
    /// Instruction cost charged to `free` (before chain traversal).
    pub free_cost: u64,
    /// Base of the simulated heap.
    pub heap_base: Addr,
    /// Capacity of the simulated heap in bytes.
    pub heap_capacity: u64,
    /// Slab size for relocation pools.
    pub pool_slab_bytes: u64,
    /// Heap placement policy (§4 models a first-fit C malloc; the
    /// size-class policy approximates a modern segregated allocator).
    pub alloc_policy: AllocPolicy,
    /// Optional out-of-core paging layer (§2.2): a fixed resident set of
    /// pages with a disk-class fault penalty.
    pub paging: Option<PagingConfig>,
    /// Optional store buffer: stores graduate on admission to a buffer of
    /// this many entries instead of waiting for the cache (ablation knob;
    /// `None` reproduces the paper's store-stall behaviour).
    pub store_buffer_entries: Option<usize>,
    /// Optional hard ceiling on forwarding hops per access. Unlike
    /// [`SimConfig::hop_limit`] — which only decides when the accurate
    /// cycle check engages — exceeding this budget raises a typed
    /// [`crate::MachineFault::HopLimitExceeded`] even on an acyclic chain,
    /// modelling a machine that refuses pathological chains outright.
    /// `None` (the default) accepts chains of any finite length.
    pub hard_hop_budget: Option<u32>,
    /// Optional deterministic fault-injection campaign (see
    /// [`crate::inject`]). `None` disables injection entirely.
    pub fault_injection: Option<InjectConfig>,
    /// Checkpoint cadence for crash-safe runs: the application harness
    /// snapshots the machine every this-many demand references (`None`
    /// disables checkpointing). Consumed by `memfwd_apps`' checkpoint
    /// driver; the machine itself only carries the knob so one [`SimConfig`]
    /// describes the whole run (and so the snapshot config fingerprint
    /// covers it).
    pub checkpoint_every: Option<u64>,
    /// Bounded-progress watchdog (see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
    /// Shared-memory consistency model of the SMP machine (see
    /// [`MemoryModel`]). [`MemoryModel::Sc`] — the default — keeps the
    /// SMP machine bit-identical to its pre-TSO behaviour; the
    /// uniprocessor machine ignores this knob entirely.
    pub memory_model: MemoryModel,
}

/// The shared-memory consistency model of the SMP machine
/// ([`crate::SmpMachine`]; the uniprocessor machine has no visibility
/// ordering to weaken and ignores this knob).
///
/// Under [`MemoryModel::Sc`] every store becomes globally visible the
/// moment it executes — the model the SMP campaigns and the PR-4 race
/// certifier were built against, and the bit-identical default. Under
/// [`MemoryModel::Tso`] each core issues stores into a private FIFO store
/// buffer (total-store-order, the x86 model): the issuing core forwards
/// its own buffered values to later loads, while remote cores observe a
/// store only once it *drains* to coherent memory. Fences, releases,
/// per-word locks, and barriers are the drain points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryModel {
    /// Sequential consistency: stores are globally visible at execution.
    #[default]
    Sc,
    /// Total store order: per-core FIFO store buffers with own-store
    /// forwarding; remote visibility is deferred to the drain.
    Tso,
}

impl MemoryModel {
    /// The stable lowercase name (`"sc"` / `"tso"`), as accepted by
    /// [`MemoryModel::from_name`] and the `--memory-model` CLI flag.
    pub fn as_str(self) -> &'static str {
        match self {
            MemoryModel::Sc => "sc",
            MemoryModel::Tso => "tso",
        }
    }

    /// Parses a model name (case-insensitive).
    pub fn from_name(s: &str) -> Option<MemoryModel> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Some(MemoryModel::Sc),
            "tso" => Some(MemoryModel::Tso),
            _ => None,
        }
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bounded-progress watchdog: converts silent livelock into typed faults.
///
/// Forwarding pathologies that are not cycles — ever-growing acyclic
/// chains, repeated walk storms over a corrupted heap — can stall a run
/// indefinitely without tripping the cycle check. The watchdog bounds the
/// damage: a reference whose graduation stalls longer than
/// [`WatchdogConfig::stall_cycles`] raises
/// [`crate::MachineFault::NoProgress`], and a burst of forwarding-walk hops
/// exceeding [`WatchdogConfig::walk_hop_budget`] within a sliding window of
/// [`WatchdogConfig::walk_window`] references raises
/// [`crate::MachineFault::WalkStorm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// Maximum cycles a single demand reference may take from issue to
    /// completion before [`crate::MachineFault::NoProgress`] is raised.
    /// `None` (the default) disables the stall check.
    pub stall_cycles: Option<u64>,
    /// Length, in demand references, of the sliding window over which
    /// forwarding-walk hops are summed for the storm check.
    pub walk_window: u64,
    /// Maximum total forwarding hops tolerated within the window before
    /// [`crate::MachineFault::WalkStorm`] is raised. `None` (the default)
    /// disables the storm check.
    pub walk_hop_budget: Option<u64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_cycles: None,
            walk_window: 1024,
            walk_hop_budget: None,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            pipeline: PipelineConfig::default(),
            hierarchy: HierarchyConfig::default(),
            hop_limit: DEFAULT_HOP_LIMIT,
            fwd_hop_penalty: 4,
            trap_penalty: 40,
            cycle_check_penalty: 200,
            perfect_forwarding: false,
            dependence_speculation: true,
            malloc_cost: 30,
            free_cost: 20,
            heap_base: Addr(0x10_000),
            heap_capacity: 1 << 31,
            pool_slab_bytes: 256 * 1024,
            alloc_policy: AllocPolicy::FirstFit,
            paging: None,
            store_buffer_entries: None,
            hard_hop_budget: None,
            fault_injection: None,
            checkpoint_every: None,
            watchdog: WatchdogConfig::default(),
            memory_model: MemoryModel::Sc,
        }
    }
}

impl SimConfig {
    /// Returns a copy with a different cache line size (the Fig. 5 sweep).
    pub fn with_line_bytes(mut self, line_bytes: u64) -> Self {
        self.hierarchy = self.hierarchy.with_line_bytes(line_bytes);
        self
    }

    /// Returns a copy with perfect forwarding enabled (Fig. 10 `Perf`).
    pub fn with_perfect_forwarding(mut self) -> Self {
        self.perfect_forwarding = true;
        self
    }

    /// Returns a copy with the given fault-injection campaign enabled.
    pub fn with_fault_injection(mut self, inject: InjectConfig) -> Self {
        self.fault_injection = Some(inject);
        self
    }

    /// Returns a copy with the given progress-watchdog configuration.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Returns a copy checkpointing every `refs` demand references.
    pub fn with_checkpoint_every(mut self, refs: u64) -> Self {
        self.checkpoint_every = Some(refs);
        self
    }

    /// Returns a copy running the SMP machine under `model` (see
    /// [`MemoryModel`]; the default is [`MemoryModel::Sc`]).
    pub fn with_memory_model(mut self, model: MemoryModel) -> Self {
        self.memory_model = model;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = SimConfig::default();
        assert!(c.dependence_speculation);
        assert!(!c.perfect_forwarding);
        assert!(c.heap_base.is_aligned(8));
        assert!(c.pool_slab_bytes <= c.heap_capacity);
        assert_eq!(c.hop_limit, DEFAULT_HOP_LIMIT);
        assert!(c.hard_hop_budget.is_none());
        assert!(c.fault_injection.is_none());
        assert_eq!(c.memory_model, MemoryModel::Sc, "SC is the default");
    }

    #[test]
    fn memory_model_names_round_trip() {
        for m in [MemoryModel::Sc, MemoryModel::Tso] {
            assert_eq!(MemoryModel::from_name(m.as_str()), Some(m));
            assert_eq!(MemoryModel::from_name(&m.as_str().to_uppercase()), Some(m));
        }
        assert_eq!(MemoryModel::from_name("arm"), None);
        assert_eq!(
            SimConfig::default()
                .with_memory_model(MemoryModel::Tso)
                .memory_model,
            MemoryModel::Tso
        );
    }

    #[test]
    fn builders() {
        let c = SimConfig::default()
            .with_line_bytes(128)
            .with_perfect_forwarding();
        assert_eq!(c.hierarchy.line_bytes, 128);
        assert!(c.perfect_forwarding);
    }
}
