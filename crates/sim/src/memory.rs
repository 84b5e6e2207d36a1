//! Memory manager: virtual address assignment and NUMA page placement of regions.

use aftermath_trace::NumaNodeId;

use crate::config::AllocationPolicy;
use crate::machine::MachineConfig;
use crate::spec::RegionSpec;

/// Base virtual address of the first simulated region.
const REGION_BASE: u64 = 0x1000_0000;

/// Result of a first write ("touch") to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Whether this write physically allocated the region's pages.
    pub newly_placed: bool,
    /// Number of pages allocated by this touch (0 when already placed).
    pub pages_allocated: u64,
}

/// Tracks the virtual layout and NUMA placement of all regions of a workload.
///
/// Region placement follows the configured [`AllocationPolicy`]:
///
/// * [`AllocationPolicy::Interleaved`] and [`AllocationPolicy::SingleNode`] place pages
///   eagerly when the manager is created.
/// * [`AllocationPolicy::FirstTouch`] defers placement until the first write, which is
///   how the paper's seidel initialization tasks end up paying the physical-allocation
///   cost (Figure 10).
#[derive(Debug, Clone)]
pub struct MemoryManager {
    bases: Vec<u64>,
    sizes: Vec<u64>,
    nodes: Vec<Option<NumaNodeId>>,
    prefaulted: Vec<bool>,
    policy: AllocationPolicy,
    page_size: u64,
    resident_pages: u64,
    total_page_faults: u64,
}

impl MemoryManager {
    /// Creates a manager for `regions` on the given machine with the given policy.
    pub fn new(machine: &MachineConfig, regions: &[RegionSpec], policy: AllocationPolicy) -> Self {
        let page = machine.costs.page_size;
        let num_nodes = machine.num_nodes() as u32;
        let mut bases = Vec::with_capacity(regions.len());
        let mut sizes = Vec::with_capacity(regions.len());
        let mut nodes = Vec::with_capacity(regions.len());
        let mut prefaulted = Vec::with_capacity(regions.len());
        let mut next = REGION_BASE;
        let mut resident_pages = 0;
        for (i, r) in regions.iter().enumerate() {
            let size = r.size.max(1);
            bases.push(next);
            sizes.push(size);
            prefaulted.push(r.prefaulted);
            // Keep one guard page between regions so address lookups are unambiguous.
            let span = size.div_ceil(page).max(1) * page + page;
            next += span;
            let node = match policy {
                AllocationPolicy::FirstTouch => None,
                AllocationPolicy::Interleaved => Some(NumaNodeId(i as u32 % num_nodes)),
                AllocationPolicy::SingleNode => Some(NumaNodeId(0)),
            };
            if node.is_some() || r.prefaulted {
                resident_pages += size.div_ceil(page).max(1);
            }
            nodes.push(node);
        }
        MemoryManager {
            bases,
            sizes,
            nodes,
            prefaulted,
            policy,
            page_size: page,
            resident_pages,
            total_page_faults: 0,
        }
    }

    /// Base virtual address of region `idx`.
    pub fn base_addr(&self, idx: usize) -> u64 {
        self.bases[idx]
    }

    /// Size in bytes of region `idx`.
    pub fn size(&self, idx: usize) -> u64 {
        self.sizes[idx]
    }

    /// Current NUMA placement of region `idx` (`None` = not yet physically allocated).
    pub fn node_of(&self, idx: usize) -> Option<NumaNodeId> {
        self.nodes[idx]
    }

    /// The allocation policy in use.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Records a write by a CPU on `writer_node` to region `idx`.
    ///
    /// Under first-touch placement an unplaced region is placed on `writer_node` and the
    /// number of freshly allocated pages is reported; otherwise this is a no-op.
    pub fn touch_write(&mut self, idx: usize, writer_node: NumaNodeId) -> TouchOutcome {
        if self.nodes[idx].is_some() {
            return TouchOutcome {
                newly_placed: false,
                pages_allocated: 0,
            };
        }
        self.nodes[idx] = Some(writer_node);
        if self.prefaulted[idx] {
            // The pages were already resident before tracing; only the placement (used
            // for locality analysis) is decided by this touch.
            return TouchOutcome {
                newly_placed: false,
                pages_allocated: 0,
            };
        }
        let pages = self.sizes[idx].div_ceil(self.page_size).max(1);
        self.resident_pages += pages;
        self.total_page_faults += pages;
        TouchOutcome {
            newly_placed: true,
            pages_allocated: pages,
        }
    }

    /// Total resident memory in pages (physically allocated so far).
    pub fn resident_pages(&self) -> u64 {
        self.resident_pages
    }

    /// Total resident memory in kilobytes.
    pub fn resident_kbytes(&self) -> u64 {
        self.resident_pages * self.page_size / 1024
    }

    /// Total number of first-touch page faults so far.
    pub fn total_page_faults(&self) -> u64 {
        self.total_page_faults
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn regions(sizes: &[u64]) -> Vec<RegionSpec> {
        let mut spec = WorkloadSpec::new("t");
        for &s in sizes {
            spec.add_region(s);
        }
        spec.regions
    }

    #[test]
    fn addresses_are_disjoint_and_page_aligned() {
        let m = MachineConfig::small_test();
        let mm = MemoryManager::new(
            &m,
            &regions(&[100, 5000, 4096]),
            AllocationPolicy::FirstTouch,
        );
        for i in 0..3 {
            assert_eq!(mm.base_addr(i) % m.costs.page_size, 0);
        }
        for i in 0..2 {
            assert!(mm.base_addr(i) + mm.size(i) < mm.base_addr(i + 1));
        }
    }

    #[test]
    fn interleaved_placement_round_robin() {
        let m = MachineConfig::small_test(); // 2 nodes
        let mm = MemoryManager::new(&m, &regions(&[64; 4]), AllocationPolicy::Interleaved);
        assert_eq!(mm.node_of(0), Some(NumaNodeId(0)));
        assert_eq!(mm.node_of(1), Some(NumaNodeId(1)));
        assert_eq!(mm.node_of(2), Some(NumaNodeId(0)));
        assert_eq!(mm.node_of(3), Some(NumaNodeId(1)));
        assert_eq!(mm.total_page_faults(), 0);
        assert!(mm.resident_pages() >= 4);
    }

    #[test]
    fn single_node_placement() {
        let m = MachineConfig::small_test();
        let mm = MemoryManager::new(&m, &regions(&[64; 3]), AllocationPolicy::SingleNode);
        for i in 0..3 {
            assert_eq!(mm.node_of(i), Some(NumaNodeId(0)));
        }
    }

    #[test]
    fn first_touch_places_on_writer_node() {
        let m = MachineConfig::small_test();
        let mut mm = MemoryManager::new(&m, &regions(&[8192]), AllocationPolicy::FirstTouch);
        assert_eq!(mm.node_of(0), None);
        assert_eq!(mm.resident_pages(), 0);
        let out = mm.touch_write(0, NumaNodeId(1));
        assert!(out.newly_placed);
        assert_eq!(out.pages_allocated, 2);
        assert_eq!(mm.node_of(0), Some(NumaNodeId(1)));
        assert_eq!(mm.resident_pages(), 2);
        assert_eq!(mm.resident_kbytes(), 8);
        // Second touch is a no-op.
        let out2 = mm.touch_write(0, NumaNodeId(0));
        assert!(!out2.newly_placed);
        assert_eq!(mm.node_of(0), Some(NumaNodeId(1)));
        assert_eq!(mm.total_page_faults(), 2);
    }

    #[test]
    fn zero_sized_region_still_occupies_a_page() {
        let m = MachineConfig::small_test();
        let mut mm = MemoryManager::new(&m, &regions(&[0]), AllocationPolicy::FirstTouch);
        let out = mm.touch_write(0, NumaNodeId(0));
        assert_eq!(out.pages_allocated, 1);
    }
}

#[cfg(test)]
mod prefault_tests {
    use super::*;
    use crate::spec::RegionSpec;

    #[test]
    fn prefaulted_region_places_without_faulting() {
        let m = MachineConfig::small_test();
        let regions = vec![RegionSpec {
            size: 8192,
            prefaulted: true,
        }];
        let mut mm = MemoryManager::new(&m, &regions, AllocationPolicy::FirstTouch);
        assert_eq!(mm.node_of(0), None);
        assert_eq!(mm.resident_pages(), 2, "prefaulted pages count as resident");
        let out = mm.touch_write(0, NumaNodeId(1));
        assert!(!out.newly_placed);
        assert_eq!(out.pages_allocated, 0);
        assert_eq!(mm.node_of(0), Some(NumaNodeId(1)));
        assert_eq!(mm.total_page_faults(), 0);
        assert_eq!(mm.resident_pages(), 2);
    }
}
