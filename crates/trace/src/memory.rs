//! Memory regions, their NUMA placement and per-task memory accesses.
//!
//! The paper's NUMA analyses (Section IV) and task-graph reconstruction (Section III-A)
//! are driven by two pieces of information recorded in the trace:
//!
//! * [`MemoryRegion`]: an address range used for data exchange between tasks along with
//!   the NUMA node the backing pages were allocated on. The placement is stored once per
//!   region regardless of how many accesses refer to it (redundancy elimination,
//!   Section VI-A).
//! * [`MemoryAccess`]: a read or write performed by a task to an address range. The
//!   region (and hence the NUMA node) is found by looking up the address.

use crate::ids::{NumaNodeId, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a memory region.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RegionId(pub u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Whether a memory access reads or writes the target region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// The task reads from the region (the region is an input dependence).
    Read,
    /// The task writes to the region (the region is an output dependence).
    Write,
}

impl AccessKind {
    /// Short label, `"read"` or `"write"`.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A contiguous virtual-address range used for inter-task data exchange, together with
/// the NUMA node holding its physical pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryRegion {
    /// Identifier of the region.
    pub id: RegionId,
    /// Base virtual address.
    pub base_addr: u64,
    /// Size of the region in bytes.
    pub size: u64,
    /// NUMA node the region's pages reside on, if known.
    ///
    /// `None` models pages that have not been physically allocated yet (never touched).
    pub node: Option<NumaNodeId>,
}

impl MemoryRegion {
    /// Creates a new memory region.
    pub fn new(id: RegionId, base_addr: u64, size: u64, node: Option<NumaNodeId>) -> Self {
        MemoryRegion {
            id,
            base_addr,
            size,
            node,
        }
    }

    /// Exclusive end address of the region.
    #[inline]
    pub fn end_addr(&self) -> u64 {
        self.base_addr.saturating_add(self.size)
    }

    /// Whether `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base_addr && addr < self.end_addr()
    }
}

/// A read or write performed by a task to a memory range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// The task performing the access.
    pub task: TaskId,
    /// Whether this is a read or a write.
    pub kind: AccessKind,
    /// Base address of the accessed range.
    pub addr: u64,
    /// Number of bytes accessed.
    pub size: u64,
}

impl MemoryAccess {
    /// Creates a new memory access record.
    pub fn new(task: TaskId, kind: AccessKind, addr: u64, size: u64) -> Self {
        MemoryAccess {
            task,
            kind,
            addr,
            size,
        }
    }

    /// Convenience constructor for a read access.
    pub fn read(task: TaskId, addr: u64, size: u64) -> Self {
        Self::new(task, AccessKind::Read, addr, size)
    }

    /// Convenience constructor for a write access.
    pub fn write(task: TaskId, addr: u64, size: u64) -> Self {
        Self::new(task, AccessKind::Write, addr, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_contains_and_end() {
        let r = MemoryRegion::new(RegionId(0), 0x1000, 0x100, Some(NumaNodeId(2)));
        assert_eq!(r.end_addr(), 0x1100);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10ff));
        assert!(!r.contains(0x1100));
        assert!(!r.contains(0xfff));
    }

    #[test]
    fn access_constructors() {
        let r = MemoryAccess::read(TaskId(1), 0x2000, 64);
        let w = MemoryAccess::write(TaskId(1), 0x2000, 64);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(AccessKind::Read.to_string(), "read");
    }

    #[test]
    fn region_saturating_end() {
        let r = MemoryRegion::new(RegionId(1), u64::MAX - 10, 100, None);
        assert_eq!(r.end_addr(), u64::MAX);
    }
}
