//! Machine model: topology plus memory-system cost parameters.

use aftermath_trace::{MachineTopology, NumaNodeId};
use serde::{Deserialize, Serialize};

/// Cost parameters of the simulated memory system.
///
/// All costs are expressed in CPU cycles. The defaults are loosely calibrated against
/// the quad-socket AMD Opteron system used in the paper: local DRAM accesses cost a few
/// cycles per cache line, remote accesses cost a multiple of that proportional to the
/// NUMA distance, and a first-touch page fault costs on the order of a few thousand
/// cycles of kernel time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryCosts {
    /// Cycles to transfer one cache line from local memory.
    pub local_line_cost: f64,
    /// Extra cycles per cache line and unit of NUMA distance above 1.0.
    pub remote_line_penalty: f64,
    /// Cache-line size in bytes.
    pub line_size: u64,
    /// Page size in bytes used by the OS model.
    pub page_size: u64,
    /// Kernel time in cycles charged for each first-touch page fault.
    pub page_fault_cost: u64,
    /// Cycles of pipeline-flush penalty per branch misprediction.
    pub branch_miss_penalty: u64,
    /// Cycles of stall per last-level cache miss (on top of the line transfer cost).
    pub cache_miss_penalty: u64,
}

impl Default for MemoryCosts {
    fn default() -> Self {
        MemoryCosts {
            local_line_cost: 2.0,
            remote_line_penalty: 6.0,
            line_size: 64,
            page_size: 4096,
            page_fault_cost: 3000,
            branch_miss_penalty: 15,
            cache_miss_penalty: 200,
        }
    }
}

/// The machine a workload is simulated on: topology plus memory-system costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// NUMA topology (nodes, CPUs, distance matrix).
    pub topology: MachineTopology,
    /// Memory-system cost parameters.
    pub costs: MemoryCosts,
    /// Nominal clock frequency in cycles per microsecond (used to convert the OS model's
    /// kernel time into microseconds, as reported by `getrusage` in the paper).
    pub cycles_per_us: u64,
}

impl MachineConfig {
    /// A machine resembling the paper's quad-socket AMD Opteron 6282 SE test system:
    /// 8 NUMA nodes with 8 cores each (64 cores total).
    pub fn opteron_like() -> Self {
        MachineConfig {
            topology: MachineTopology::uniform(8, 8),
            costs: MemoryCosts::default(),
            cycles_per_us: 2600,
        }
    }

    /// A machine resembling the paper's SGI UV2000 system, scaled down by default to
    /// 24 NUMA nodes with 8 cores each (192 cores).
    pub fn uv2000_like() -> Self {
        MachineConfig {
            topology: MachineTopology::uniform(24, 8),
            costs: MemoryCosts::default(),
            cycles_per_us: 2400,
        }
    }

    /// A tiny 2-node, 4-core machine for unit tests.
    pub fn small_test() -> Self {
        MachineConfig {
            topology: MachineTopology::uniform(2, 2),
            costs: MemoryCosts::default(),
            cycles_per_us: 1000,
        }
    }

    /// A machine with `nodes` NUMA nodes of `cpus_per_node` CPUs each and default costs.
    pub fn uniform(nodes: u32, cpus_per_node: u32) -> Self {
        MachineConfig {
            topology: MachineTopology::uniform(nodes, cpus_per_node),
            costs: MemoryCosts::default(),
            cycles_per_us: 2000,
        }
    }

    /// Number of logical CPUs of the machine.
    pub fn num_cpus(&self) -> usize {
        self.topology.num_cpus()
    }

    /// Number of NUMA nodes of the machine.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Cycles needed to transfer `bytes` from memory on `from` to a CPU on node `to`.
    ///
    /// The cost scales linearly with the number of cache lines and with the NUMA
    /// distance between the two nodes; unknown nodes are charged the local cost.
    pub fn transfer_cost(&self, from: NumaNodeId, to: NumaNodeId, bytes: u64) -> u64 {
        let lines = bytes.div_ceil(self.costs.line_size).max(1);
        let distance = self.topology.distance(from, to).unwrap_or(1.0);
        let extra = (distance - 1.0).max(0.0);
        let per_line = self.costs.local_line_cost + extra * self.costs.remote_line_penalty;
        (lines as f64 * per_line).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_machines() {
        assert_eq!(MachineConfig::opteron_like().num_cpus(), 64);
        assert_eq!(MachineConfig::opteron_like().num_nodes(), 8);
        assert_eq!(MachineConfig::uv2000_like().num_cpus(), 192);
        assert_eq!(MachineConfig::small_test().num_cpus(), 4);
    }

    #[test]
    fn local_transfer_cheaper_than_remote() {
        let m = MachineConfig::small_test();
        let local = m.transfer_cost(NumaNodeId(0), NumaNodeId(0), 64 * 1024);
        let remote = m.transfer_cost(NumaNodeId(0), NumaNodeId(1), 64 * 1024);
        assert!(remote > local, "remote={remote} local={local}");
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let m = MachineConfig::small_test();
        let small = m.transfer_cost(NumaNodeId(0), NumaNodeId(0), 64);
        let large = m.transfer_cost(NumaNodeId(0), NumaNodeId(0), 64 * 100);
        assert!(large >= small * 50);
    }

    #[test]
    fn zero_bytes_still_costs_one_line() {
        let m = MachineConfig::small_test();
        assert!(m.transfer_cost(NumaNodeId(0), NumaNodeId(0), 0) > 0);
    }
}
