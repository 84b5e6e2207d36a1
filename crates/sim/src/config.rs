//! Simulation configuration: run-time behaviour, scheduling and allocation policies.

use serde::{Deserialize, Serialize};

use crate::machine::MachineConfig;

/// How ready tasks are placed and stolen between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedulingPolicy {
    /// Ready tasks go to the worker that satisfied their last dependence; idle workers
    /// steal from uniformly random victims. This models the paper's *non-optimized*
    /// OpenStream configuration.
    #[default]
    RandomStealing,
    /// Ready tasks are pushed to a worker on the NUMA node holding the majority of their
    /// input data; idle workers steal from the nearest nodes first. This models the
    /// paper's *optimized*, NUMA-aware run-time configuration.
    NumaAware,
}

/// How the physical pages of a memory region are placed on NUMA nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AllocationPolicy {
    /// Pages are placed on the node of the first CPU that writes the region
    /// (Linux default).
    #[default]
    FirstTouch,
    /// Pages are placed round-robin across all nodes at allocation time.
    Interleaved,
    /// Pages are placed on a single fixed node (node 0), modelling a naive allocator
    /// that concentrates all data on one memory controller.
    SingleNode,
}

/// Fixed per-operation overheads of the simulated run-time, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostParams {
    /// Cycles spent creating one task (frame allocation, dependence registration).
    pub task_creation: u64,
    /// Cycles spent on one (possibly unsuccessful) steal attempt.
    pub steal_attempt: u64,
    /// Additional cycles spent migrating a successfully stolen task.
    pub steal_success: u64,
    /// Cycles spent dispatching a ready task from the local deque.
    pub dispatch: u64,
    /// Cycles an idle worker waits before re-polling for work.
    pub idle_backoff: u64,
    /// Maximum number of victims probed per steal round before giving up and idling.
    pub max_steal_attempts: u32,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            task_creation: 350,
            steal_attempt: 450,
            steal_success: 900,
            dispatch: 120,
            idle_backoff: 20_000,
            max_steal_attempts: 8,
        }
    }
}

/// Behavioural configuration of the simulated run-time system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct RuntimeConfig {
    /// Scheduling / work-stealing policy.
    pub scheduling: SchedulingPolicy,
    /// NUMA page-placement policy.
    pub allocation: AllocationPolicy,
    /// Fixed run-time overheads.
    pub costs: CostParams,
}

impl RuntimeConfig {
    /// The paper's non-optimized configuration: random work-stealing and no NUMA
    /// awareness in the run-time. Page placement is still the operating system's default
    /// first-touch policy — the run-time simply does nothing to exploit it.
    pub fn non_optimized() -> Self {
        RuntimeConfig {
            scheduling: SchedulingPolicy::RandomStealing,
            allocation: AllocationPolicy::FirstTouch,
            costs: CostParams::default(),
        }
    }

    /// The paper's optimized configuration: NUMA-aware scheduling and first-touch
    /// placement so that tasks run close to the data they consume.
    pub fn numa_optimized() -> Self {
        RuntimeConfig {
            scheduling: SchedulingPolicy::NumaAware,
            allocation: AllocationPolicy::FirstTouch,
            costs: CostParams::default(),
        }
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The machine to simulate.
    pub machine: MachineConfig,
    /// The run-time behaviour to simulate.
    pub runtime: RuntimeConfig,
    /// Seed for all pseudo-random decisions (victim selection, noise).
    pub seed: u64,
    /// Relative magnitude of per-task execution-time noise (0.0 disables noise;
    /// 0.05 means task durations vary by ±5 %).
    pub duration_noise: f64,
    /// Whether to record per-task memory accesses in the trace.
    ///
    /// Disabling this models the paper's reduced-overhead tracing mode: NUMA analyses
    /// become unavailable but duration-based analyses still work.
    pub record_memory_accesses: bool,
    /// Whether to record communication events for remote reads.
    pub record_comm_events: bool,
    /// Whether to record hardware/OS counter samples at task boundaries.
    pub record_counters: bool,
}

impl SimConfig {
    /// Configuration used by unit tests: tiny machine, deterministic, everything traced.
    pub fn small_test() -> Self {
        SimConfig {
            machine: MachineConfig::small_test(),
            runtime: RuntimeConfig::default(),
            seed: 42,
            duration_noise: 0.0,
            record_memory_accesses: true,
            record_comm_events: true,
            record_counters: true,
        }
    }

    /// Default full-tracing configuration on the given machine.
    pub fn new(machine: MachineConfig, runtime: RuntimeConfig, seed: u64) -> Self {
        SimConfig {
            machine,
            runtime,
            seed,
            duration_noise: 0.02,
            record_memory_accesses: true,
            record_comm_events: true,
            record_counters: true,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies() {
        let rt = RuntimeConfig::default();
        assert_eq!(rt.scheduling, SchedulingPolicy::RandomStealing);
        assert_eq!(rt.allocation, AllocationPolicy::FirstTouch);
    }

    #[test]
    fn preset_configurations_differ() {
        let non_opt = RuntimeConfig::non_optimized();
        let opt = RuntimeConfig::numa_optimized();
        assert_ne!(non_opt.scheduling, opt.scheduling);
        assert_eq!(non_opt.allocation, AllocationPolicy::FirstTouch);
    }

    #[test]
    fn builder_style_updates() {
        let cfg = SimConfig::small_test().with_seed(7);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn default_costs_are_positive() {
        let c = CostParams::default();
        assert!(c.task_creation > 0);
        assert!(c.steal_attempt > 0);
        assert!(c.idle_backoff > 0);
        assert!(c.max_steal_attempts > 0);
    }
}
