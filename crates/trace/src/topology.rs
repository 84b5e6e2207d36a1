//! Machine topology: CPUs, NUMA nodes and inter-node distances.

use crate::ids::{CpuId, NumaNodeId};
use serde::{Deserialize, Serialize};

/// Static description of one logical CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CpuInfo {
    /// The CPU identifier.
    pub cpu: CpuId,
    /// The NUMA node the CPU belongs to.
    pub node: NumaNodeId,
}

/// The topology of the machine a trace was recorded on.
///
/// Aftermath relates events to the machine topology (communication matrices, NUMA maps),
/// so the topology is part of the trace itself.
///
/// # Examples
///
/// ```rust
/// use aftermath_trace::{MachineTopology, CpuId, NumaNodeId};
///
/// let topo = MachineTopology::uniform(4, 8); // 4 nodes × 8 CPUs
/// assert_eq!(topo.num_cpus(), 32);
/// assert_eq!(topo.node_of(CpuId(9)), Some(NumaNodeId(1)));
/// assert_eq!(topo.cpus_of_node(NumaNodeId(3)).len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineTopology {
    cpus: Vec<CpuInfo>,
    num_nodes: u32,
    /// Relative access distance between nodes, indexed `[from][to]`.
    /// Local access distance is 1.0 by convention.
    distances: Vec<Vec<f64>>,
}

impl MachineTopology {
    /// Creates a topology with `num_nodes` NUMA nodes of `cpus_per_node` CPUs each and a
    /// uniform remote-access distance of 2.0 (local = 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` or `cpus_per_node` is zero.
    pub fn uniform(num_nodes: u32, cpus_per_node: u32) -> Self {
        assert!(num_nodes > 0, "topology needs at least one NUMA node");
        assert!(
            cpus_per_node > 0,
            "topology needs at least one CPU per node"
        );
        let mut cpus = Vec::with_capacity((num_nodes * cpus_per_node) as usize);
        for n in 0..num_nodes {
            for c in 0..cpus_per_node {
                cpus.push(CpuInfo {
                    cpu: CpuId(n * cpus_per_node + c),
                    node: NumaNodeId(n),
                });
            }
        }
        let distances = (0..num_nodes)
            .map(|i| {
                (0..num_nodes)
                    .map(|j| if i == j { 1.0 } else { 2.0 })
                    .collect()
            })
            .collect();
        MachineTopology {
            cpus,
            num_nodes,
            distances,
        }
    }

    /// Creates a topology from an explicit CPU list and distance matrix.
    ///
    /// Returns `None` when the description is inconsistent: empty CPU list, CPU ids not
    /// dense/unique starting at 0, a CPU referring to a node `>= num_nodes`, or a
    /// distance matrix that is not `num_nodes × num_nodes`.
    pub fn from_parts(
        cpus: Vec<CpuInfo>,
        num_nodes: u32,
        distances: Vec<Vec<f64>>,
    ) -> Option<Self> {
        if cpus.is_empty() || num_nodes == 0 {
            return None;
        }
        let mut seen = vec![false; cpus.len()];
        for info in &cpus {
            let idx = info.cpu.0 as usize;
            if idx >= cpus.len() || seen[idx] || info.node.0 >= num_nodes {
                return None;
            }
            seen[idx] = true;
        }
        if distances.len() != num_nodes as usize
            || distances.iter().any(|row| row.len() != num_nodes as usize)
        {
            return None;
        }
        let mut cpus = cpus;
        cpus.sort_by_key(|c| c.cpu);
        Some(MachineTopology {
            cpus,
            num_nodes,
            distances,
        })
    }

    /// Number of logical CPUs.
    #[inline]
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Number of NUMA nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// All CPUs, ordered by CPU id.
    #[inline]
    pub fn cpus(&self) -> &[CpuInfo] {
        &self.cpus
    }

    /// Iterator over all CPU ids, in order.
    pub fn cpu_ids(&self) -> impl Iterator<Item = CpuId> + '_ {
        self.cpus.iter().map(|c| c.cpu)
    }

    /// Iterator over all NUMA node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NumaNodeId> {
        (0..self.num_nodes).map(NumaNodeId)
    }

    /// The NUMA node of `cpu`, or `None` for an unknown CPU.
    pub fn node_of(&self, cpu: CpuId) -> Option<NumaNodeId> {
        self.cpus.get(cpu.0 as usize).map(|c| c.node)
    }

    /// All CPUs belonging to `node`.
    pub fn cpus_of_node(&self, node: NumaNodeId) -> Vec<CpuId> {
        self.cpus
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.cpu)
            .collect()
    }

    /// Relative access distance between two nodes (1.0 = local).
    ///
    /// Returns `None` for unknown nodes.
    pub fn distance(&self, from: NumaNodeId, to: NumaNodeId) -> Option<f64> {
        self.distances
            .get(from.0 as usize)
            .and_then(|row| row.get(to.0 as usize))
            .copied()
    }

    /// The full distance matrix, indexed `[from][to]`.
    pub fn distances(&self) -> &[Vec<f64>] {
        &self.distances
    }

    /// Whether a CPU id is valid in this topology.
    pub fn contains_cpu(&self, cpu: CpuId) -> bool {
        (cpu.0 as usize) < self.cpus.len()
    }

    /// Whether a node id is valid in this topology.
    pub fn contains_node(&self, node: NumaNodeId) -> bool {
        node.0 < self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_layout() {
        let t = MachineTopology::uniform(3, 4);
        assert_eq!(t.num_cpus(), 12);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.node_of(CpuId(0)), Some(NumaNodeId(0)));
        assert_eq!(t.node_of(CpuId(5)), Some(NumaNodeId(1)));
        assert_eq!(t.node_of(CpuId(11)), Some(NumaNodeId(2)));
        assert_eq!(t.node_of(CpuId(12)), None);
        assert_eq!(
            t.cpus_of_node(NumaNodeId(1)),
            vec![CpuId(4), CpuId(5), CpuId(6), CpuId(7)]
        );
    }

    #[test]
    fn uniform_distances() {
        let t = MachineTopology::uniform(2, 1);
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(0)), Some(1.0));
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(1)), Some(2.0));
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(2)), None);
    }

    #[test]
    #[should_panic]
    fn uniform_zero_nodes_panics() {
        let _ = MachineTopology::uniform(0, 4);
    }

    #[test]
    fn from_parts_validation() {
        // Valid.
        let cpus = vec![
            CpuInfo {
                cpu: CpuId(1),
                node: NumaNodeId(0),
            },
            CpuInfo {
                cpu: CpuId(0),
                node: NumaNodeId(1),
            },
        ];
        let d = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let t = MachineTopology::from_parts(cpus, 2, d.clone()).expect("valid");
        assert_eq!(t.node_of(CpuId(0)), Some(NumaNodeId(1)));

        // Duplicate CPU id.
        let dup = vec![
            CpuInfo {
                cpu: CpuId(0),
                node: NumaNodeId(0),
            },
            CpuInfo {
                cpu: CpuId(0),
                node: NumaNodeId(1),
            },
        ];
        assert!(MachineTopology::from_parts(dup, 2, d.clone()).is_none());

        // Node out of range.
        let bad_node = vec![CpuInfo {
            cpu: CpuId(0),
            node: NumaNodeId(5),
        }];
        assert!(MachineTopology::from_parts(bad_node, 2, d.clone()).is_none());

        // Bad matrix shape.
        let cpus = vec![CpuInfo {
            cpu: CpuId(0),
            node: NumaNodeId(0),
        }];
        assert!(MachineTopology::from_parts(cpus, 2, vec![vec![1.0]]).is_none());
    }

    #[test]
    fn iterators() {
        let t = MachineTopology::uniform(2, 2);
        assert_eq!(t.cpu_ids().count(), 4);
        assert_eq!(t.node_ids().count(), 2);
    }
}
