//! The access index: "which accesses does this task have, and on which NUMA node
//! do they live?" as two array lookups.
//!
//! Every NUMA analysis ([`crate::numa`], the pyramid's per-node byte counts, the
//! NUMA timeline modes, the NUMA-locality detector) folds over a task's rows of the
//! access table and the node each row's address resolves to. On a bare
//! [`Trace`] both are searches — two binary searches over the task-id column per
//! task ([`aftermath_trace::AccessesView::task_rows`]) and one over the region table
//! per access ([`Trace::node_of_addr`]). An [`AccessIndex`] resolves both **once**,
//! in one linear pass over the access table, into
//!
//! * a CSR table: the rows of task `t` are `offsets[t] .. offsets[t + 1]` (`u32`),
//! * one node code per access row: the position of the row's node in the sorted
//!   table of distinct nodes the trace's regions are placed on, with the table's
//!   length as the one sentinel for "unknown region or unplaced" — two bytes per
//!   access unless regions are placed on more than 65 535 distinct nodes (then
//!   four), whatever the node *ids* are.
//!
//! The folds themselves are written once, generic over [`AccessSource`]: the index
//! answers by table ([`IndexedAccesses`]), a `&Trace` by the searches. The `&Trace`
//! provider is what the public per-task functions of [`crate::numa`] and
//! [`crate::StatePyramid::build`] use, and the oracle the index is tested against
//! (`tests/access_index_equivalence.rs`).
//!
//! Only task ids below `trace.tasks().len()` get a CSR slot, so an access naming
//! `TaskId(2^40)` cannot size the table; rows of such ids are still resolved to
//! their node, and their row range is left to the search.

use std::ops::Range;

use aftermath_trace::{NumaNodeId, TaskId, Trace};

/// Where a NUMA analysis finds the accesses of a task and the node of an access.
///
/// Rows index the trace's access table ([`Trace::accesses`]); callers read the kind
/// and size lanes of the rows they are handed from there.
pub trait AccessSource {
    /// The rows of the access table performed by `task` (empty for a task without
    /// accesses or an unknown id).
    fn rows_of(&self, task: TaskId) -> Range<usize>;

    /// The NUMA node holding the data of access `row`, `None` when the address
    /// lies in no known region or the region is not placed.
    fn node_of_row(&self, row: usize) -> Option<NumaNodeId>;
}

/// The search-based provider: binary searches per task and per access.
impl AccessSource for Trace {
    fn rows_of(&self, task: TaskId) -> Range<usize> {
        self.accesses().task_rows(task)
    }

    fn node_of_row(&self, row: usize) -> Option<NumaNodeId> {
        self.node_of_addr(self.accesses().addr(row))
    }
}

/// Per-access node codes, as narrow as the number of distinct nodes allows.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeCodes {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// The once-per-session access index (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessIndex {
    /// `offsets[t] .. offsets[t + 1]` are the rows of `TaskId(t)`, for every `t`
    /// below the task table's length.
    offsets: Vec<u32>,
    /// The distinct nodes regions are placed on, ascending.
    nodes: Vec<NumaNodeId>,
    /// Per access row, the position of its node in `nodes`; `nodes.len()` when the
    /// access has no node.
    codes: NodeCodes,
}

impl AccessIndex {
    /// Builds the index over the access table currently resident in `trace`.
    ///
    /// # Panics
    ///
    /// Panics when the access table has more than `u32::MAX` rows (the CSR offsets
    /// are `u32`; such a table would occupy more than 90 GB).
    pub fn build(trace: &Trace) -> Self {
        let accesses = trace.accesses();
        let rows = accesses.len();
        assert!(
            u32::try_from(rows).is_ok(),
            "access index offsets are u32: {rows} accesses do not fit"
        );
        // The table is sorted by task id, so `offsets[t]` is the first row whose id
        // is at least `t`; ids beyond the task table all land behind the last slot.
        let num_tasks = trace.tasks().len();
        let mut offsets: Vec<u32> = Vec::with_capacity(num_tasks + 1);
        for row in 0..rows {
            if offsets.len() > num_tasks {
                break;
            }
            let id = accesses.task(row).0;
            let upto = usize::try_from(id).map_or(num_tasks, |id| id.min(num_tasks));
            while offsets.len() <= upto {
                offsets.push(row as u32);
            }
        }
        offsets.resize(num_tasks + 1, rows as u32);

        let regions = trace.regions();
        let mut nodes: Vec<NumaNodeId> = regions.iter().filter_map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let none = nodes.len();
        let region_codes: Vec<usize> = regions
            .iter()
            .map(|r| {
                r.node.map_or(none, |node| {
                    nodes.binary_search(&node).expect("collected above")
                })
            })
            .collect();
        // [`Trace::region_of_addr`] considers one candidate: the last region based
        // at or below the address. It cannot change while the address stays in
        // `[base, next_base)`, so it is searched for only when the address leaves
        // that range — whatever the regions' overlaps or duplicates.
        let code_of_row = {
            let (mut base, mut next_base, mut end, mut code) = (1u64, 0u64, 0u64, none);
            move |row: usize| {
                let addr = accesses.addr(row);
                if !(base <= addr && addr < next_base) {
                    let after = regions.partition_point(|r| r.base_addr <= addr);
                    next_base = regions.get(after).map_or(u64::MAX, |r| r.base_addr);
                    (base, end, code) = match after.checked_sub(1) {
                        Some(slot) => (
                            regions[slot].base_addr,
                            regions[slot].end_addr(),
                            region_codes[slot],
                        ),
                        None => (0, 0, none),
                    };
                }
                if addr < end {
                    code
                } else {
                    none
                }
            }
        };
        let codes = if none <= usize::from(u16::MAX) {
            NodeCodes::Narrow((0..rows).map(code_of_row).map(|c| c as u16).collect())
        } else {
            assert!(
                u32::try_from(none).is_ok(),
                "more than u32::MAX distinct NUMA nodes"
            );
            NodeCodes::Wide((0..rows).map(code_of_row).map(|c| c as u32).collect())
        };
        AccessIndex {
            offsets,
            nodes,
            codes,
        }
    }

    /// Number of access rows the index resolves.
    pub fn num_rows(&self) -> usize {
        match &self.codes {
            NodeCodes::Narrow(codes) => codes.len(),
            NodeCodes::Wide(codes) => codes.len(),
        }
    }

    /// Number of task ids with a CSR slot (the length of the task table the index
    /// was built over).
    pub fn num_tasks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap memory used by the index, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let codes = match &self.codes {
            NodeCodes::Narrow(codes) => std::mem::size_of_val(codes.as_slice()),
            NodeCodes::Wide(codes) => std::mem::size_of_val(codes.as_slice()),
        };
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.nodes.as_slice())
            + codes
    }

    /// The indexed rows of `task`, `None` for an id beyond the indexed task table.
    #[inline]
    fn rows_of(&self, task: TaskId) -> Option<Range<usize>> {
        let t = usize::try_from(task.0).ok()?;
        let end = *self.offsets.get(t.checked_add(1)?)?;
        Some(self.offsets[t] as usize..end as usize)
    }

    /// The node of access `row`.
    #[inline]
    fn node_of_row(&self, row: usize) -> Option<NumaNodeId> {
        let code = match &self.codes {
            NodeCodes::Narrow(codes) => usize::from(codes[row]),
            NodeCodes::Wide(codes) => codes[row] as usize,
        };
        self.nodes.get(code).copied()
    }
}

/// The table-based provider: an [`AccessIndex`] together with the trace it was
/// built over (which still answers the row range of ids beyond the task table).
#[derive(Debug, Clone, Copy)]
pub struct IndexedAccesses<'a> {
    index: &'a AccessIndex,
    trace: &'a Trace,
}

impl<'a> IndexedAccesses<'a> {
    /// Pairs `index` with the trace it was built over.
    pub(crate) fn new(index: &'a AccessIndex, trace: &'a Trace) -> Self {
        debug_assert_eq!(index.num_rows(), trace.accesses().len());
        debug_assert_eq!(index.num_tasks(), trace.tasks().len());
        IndexedAccesses { index, trace }
    }
}

impl AccessSource for IndexedAccesses<'_> {
    #[inline]
    fn rows_of(&self, task: TaskId) -> Range<usize> {
        self.index
            .rows_of(task)
            .unwrap_or_else(|| self.trace.rows_of(task))
    }

    #[inline]
    fn node_of_row(&self, row: usize) -> Option<NumaNodeId> {
        self.index.node_of_row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace, trace_without_accesses};
    use aftermath_trace::{AccessKind, CpuId, MachineTopology, Timestamp, TraceBuilder};

    fn assert_matches_searches(trace: &Trace) {
        let index = AccessIndex::build(trace);
        let indexed = IndexedAccesses::new(&index, trace);
        assert_eq!(index.num_rows(), trace.accesses().len());
        for row in 0..trace.accesses().len() {
            assert_eq!(
                indexed.node_of_row(row),
                trace.node_of_row(row),
                "row {row}"
            );
        }
        let beyond = trace.tasks().len() as u64;
        for id in (0..beyond + 2).chain([1 << 40, u64::MAX]) {
            assert_eq!(
                indexed.rows_of(TaskId(id)),
                trace.rows_of(TaskId(id)),
                "task {id}"
            );
        }
    }

    #[test]
    fn index_matches_searches_on_fixtures() {
        assert_matches_searches(&diamond_trace());
        assert_matches_searches(&small_sim_trace());
        assert_matches_searches(&trace_without_accesses());
    }

    /// One task per `(addr, size)` pair, each with one read of `addr`.
    fn one_read_per_task(b: &mut TraceBuilder, addrs: &[u64]) {
        let ty = b.add_task_type("w", 0);
        for (i, &addr) in addrs.iter().enumerate() {
            let start = Timestamp(i as u64 * 10);
            let t = b.add_task(ty, CpuId(0), start, start, Timestamp(start.0 + 5));
            b.add_access(t, AccessKind::Read, addr, 8).unwrap();
        }
    }

    #[test]
    fn overlapping_and_duplicate_regions_resolve_like_the_search() {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 1));
        // [0, 100) on node 0 encloses [50, 60) on node 1; two regions share base 200.
        b.add_region(0, 100, Some(NumaNodeId(0)));
        b.add_region(50, 10, Some(NumaNodeId(1)));
        b.add_region(200, 10, Some(NumaNodeId(0)));
        b.add_region(200, 50, None);
        // Walk forwards and backwards across the cached candidate's range.
        one_read_per_task(&mut b, &[10, 55, 70, 55, 10, 205, 230, 205, 99, 100, 300]);
        assert_matches_searches(&b.finish().unwrap());
    }

    #[test]
    fn ids_beyond_the_task_table_do_not_size_the_index() {
        use aftermath_trace::store::{write_store_bytes, LaneId, StoreOptions, StoredTrace};
        // The builders refuse an access to an unregistered task; a store whose
        // access lane is resident while its task lane is not has nothing else.
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        b.add_region(0, 100, Some(NumaNodeId(0)));
        one_read_per_task(&mut b, &[1, 2, 300]);
        let bytes = write_store_bytes(&b.finish().unwrap(), &StoreOptions::default()).unwrap();
        let mut stored = StoredTrace::from_bytes(bytes).unwrap();
        stored.ensure(LaneId::Accesses).unwrap();
        let trace = stored.trace();
        assert_eq!((trace.tasks().len(), trace.accesses().len()), (0, 3));
        let index = AccessIndex::build(trace);
        assert_eq!((index.num_tasks(), index.num_rows()), (0, 3));
        assert_eq!(index.offsets, [0]);
        assert_matches_searches(trace);
    }

    #[test]
    fn node_ids_beyond_u16_stay_narrow_and_many_nodes_go_wide() {
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        b.add_region(0, 100, Some(NumaNodeId(70_000)));
        b.add_region(100, 100, Some(NumaNodeId(u32::MAX)));
        one_read_per_task(&mut b, &[5, 150, 250]);
        let trace = b.finish().unwrap();
        let index = AccessIndex::build(&trace);
        assert!(matches!(index.codes, NodeCodes::Narrow(_)));
        assert_matches_searches(&trace);

        // 65 536 distinct nodes no longer leave room for the sentinel in a u16.
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        for n in 0..=u32::from(u16::MAX) {
            b.add_region(u64::from(n) * 16, 16, Some(NumaNodeId(n)));
        }
        one_read_per_task(&mut b, &[0, 16 * 65_535, 16 * 65_536, 17]);
        let trace = b.finish().unwrap();
        let index = AccessIndex::build(&trace);
        assert!(matches!(index.codes, NodeCodes::Wide(_)));
        assert_matches_searches(&trace);
    }
}
