//! The multi-resolution aggregation layer: a mipmap-style pyramid of summary nodes
//! over each CPU's state stream.
//!
//! The timeline answers every pixel column with an interval query over the per-CPU
//! state streams. Slicing the raw stream (binary search + scan,
//! [`crate::index::states_overlapping`]) is exact but costs O(events in the column),
//! so a fully zoomed-out frame degenerates to O(total events). The pyramid fixes the
//! asymptotics without giving up exactness: for every group of `fanout` consecutive
//! state intervals (and recursively for every group of `fanout` nodes) a
//! [`PyramidNode`] stores
//!
//! * the **per-state duration histogram** (cycles spent in each [`WorkerState`]),
//! * the **per-task-type execution cycles** of the covered task executions,
//! * the **per-NUMA-node byte counts** read/written by the covered task executions,
//! * **min/max/count statistics** over the covered execution-interval durations.
//!
//! Interval queries then touch `O(fanout · log_fanout n)` nodes instead of every
//! event. Builds and leaf scans walk the columnar stream views
//! ([`aftermath_trace::columns`]) — a leaf visit reads the one-byte state lane and
//! only dereferences the timestamp/task lanes for execution intervals.
//!
//! # Exactness
//!
//! Per-CPU state streams are sorted by start and non-overlapping, so of all the
//! intervals overlapping a query window only the *first* and the *last* can cross the
//! window's edges — every interval between them is fully contained, and its overlap
//! with the window equals its full duration. Queries therefore handle the two edge
//! intervals directly on the raw stream and resolve the fully-covered middle from
//! pyramid nodes (splitting partially covered groups exactly like
//! [`crate::index::CounterIndex`] splits sample groups). All aggregation is `u64`
//! addition, so the summed histograms are bit-identical to a raw scan, which is what
//! lets the pyramid-backed timeline reproduce the scan-backed timeline byte for byte.
//!
//! For predominant-*task* queries (heatmap, typemap and NUMA timeline modes) the
//! answer is an argmax, not a sum: the execution interval covering the largest part
//! of the window, earliest-in-stream winning ties. [`StatePyramid::best_exec`]
//! descends the pyramid **in stream order**, keeping the best candidate found so far
//! and pruning every subtree whose `max_exec_cycles` cannot strictly beat it (plus
//! whole subtrees whose task types are all rejected by the filter); leaves evaluate
//! the exact scan predicate. The traversal visits candidates in the same order and
//! applies the same strict-improvement rule as the scan loop, so the selected task is
//! identical — including ties — for arbitrary filters.

use std::collections::BTreeMap;

use aftermath_trace::{
    AccessKind, NumaNodeId, StatesView, TaskTypeId, TimeInterval, Trace, WorkerState,
};

use crate::access_index::AccessSource;
use crate::filter::TaskFilter;
use crate::kernels;

/// Default fanout of the pyramid (number of intervals/nodes summarised per node).
///
/// Chosen so the whole pyramid stays well below 15 % of the raw event data (the
/// geometric level sum is `n / (fanout - 1)` nodes) while queries still touch only a
/// few dozen nodes per column.
pub const DEFAULT_PYRAMID_FANOUT: usize = 32;

/// Aggregate summary of a group of consecutive state intervals of one CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyramidNode {
    /// Cycles spent in each worker state (full interval durations), indexed by
    /// [`WorkerState::index`].
    pub state_cycles: [u64; WorkerState::COUNT],
    /// Number of covered [`WorkerState::TaskExecution`] intervals.
    pub exec_count: u64,
    /// Minimum duration among covered execution intervals (`u64::MAX` when none).
    pub min_exec_cycles: u64,
    /// Maximum duration among covered execution intervals (0 when none). Doubles as
    /// the pruning bound for predominant-task queries.
    pub max_exec_cycles: u64,
    /// The strongest *valid* predominant-task candidate among the covered intervals:
    /// `(duration, index into trace.tasks())` of the earliest execution interval with
    /// a resolvable task and a non-zero duration that no later covered interval
    /// strictly beats. Lets unfiltered predominant-task queries answer a fully
    /// covered subtree in O(1) instead of descending.
    pub best_candidate: Option<(u64, usize)>,
    /// Execution cycles per task type, ascending by type id. Only execution intervals
    /// that name a task present in the trace contribute (exactly the candidates a
    /// timeline scan would consider).
    pub type_cycles: Box<[(TaskTypeId, u64)]>,
    /// Bytes read per NUMA node by the tasks of the covered execution intervals,
    /// ascending by node id (attributed per execution interval).
    pub node_read_bytes: Box<[(NumaNodeId, u64)]>,
    /// Bytes written per NUMA node by the tasks of the covered execution intervals,
    /// ascending by node id.
    pub node_write_bytes: Box<[(NumaNodeId, u64)]>,
}

impl PyramidNode {
    /// Approximate heap + inline size of this node in bytes.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.type_cycles.len() * std::mem::size_of::<(TaskTypeId, u64)>()
            + (self.node_read_bytes.len() + self.node_write_bytes.len())
                * std::mem::size_of::<(NumaNodeId, u64)>()
    }
}

/// Mutable accumulator used while building nodes; flushed into the compact
/// [`PyramidNode`] representation once a group is complete.
#[derive(Default)]
struct NodeAccum {
    state_cycles: [u64; WorkerState::COUNT],
    exec_count: u64,
    min_exec_cycles: Option<u64>,
    max_exec_cycles: u64,
    best_candidate: Option<(u64, usize)>,
    type_cycles: BTreeMap<TaskTypeId, u64>,
    node_read_bytes: BTreeMap<NumaNodeId, u64>,
    node_write_bytes: BTreeMap<NumaNodeId, u64>,
}

impl NodeAccum {
    /// Folds the interval index range `[lo, hi)` of the columnar stream into the
    /// accumulator. Two wide passes over the one-byte state lane do the gating:
    /// a gated duration sum fills the per-state histogram
    /// ([`kernels::tag_duration_sums`]), and a tag-match scan
    /// ([`kernels::for_each_tag_match`]) visits exactly the execution intervals,
    /// in stream order — so `best_candidate`'s strict-improvement rule sees
    /// candidates in the same order as a scalar loop.
    fn add_chunk<S: AccessSource + ?Sized>(
        &mut self,
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
    ) {
        let chunk = states.slice(lo, hi);
        kernels::tag_duration_sums(
            chunk.starts(),
            chunk.ends(),
            chunk.state_tags(),
            &mut self.state_cycles,
        );
        kernels::for_each_tag_match(
            chunk.state_tags(),
            WorkerState::TaskExecution as u8,
            |off| self.add_exec(trace, source, states, lo + off),
        );
    }

    /// Folds the execution interval `i` (state lane already checked by the
    /// caller) into the execution aggregates.
    fn add_exec<S: AccessSource + ?Sized>(
        &mut self,
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        i: usize,
    ) {
        debug_assert!(states.is_exec(i));
        let duration = states.duration(i);
        self.exec_count += 1;
        self.min_exec_cycles = Some(self.min_exec_cycles.map_or(duration, |m| m.min(duration)));
        self.max_exec_cycles = self.max_exec_cycles.max(duration);
        let Some((idx, task)) = states
            .task(i)
            .and_then(|id| trace.tasks().get(id.0 as usize).map(|t| (id.0 as usize, t)))
        else {
            return;
        };
        // Strict improvement keeps the earliest maximum, like the timeline scan.
        if duration > 0 && self.best_candidate.is_none_or(|(d, _)| duration > d) {
            self.best_candidate = Some((duration, idx));
        }
        *self.type_cycles.entry(task.task_type).or_insert(0) += duration;
        let accesses = trace.accesses();
        for row in source.rows_of(task.id) {
            let Some(node) = source.node_of_row(row) else {
                continue;
            };
            let map = match accesses.kind(row) {
                AccessKind::Read => &mut self.node_read_bytes,
                AccessKind::Write => &mut self.node_write_bytes,
            };
            *map.entry(node).or_insert(0) += accesses.size(row);
        }
    }

    fn add_node(&mut self, node: &PyramidNode) {
        for (acc, &c) in self.state_cycles.iter_mut().zip(&node.state_cycles) {
            *acc += c;
        }
        self.exec_count += node.exec_count;
        if node.exec_count > 0 {
            self.min_exec_cycles = Some(
                self.min_exec_cycles
                    .map_or(node.min_exec_cycles, |m| m.min(node.min_exec_cycles)),
            );
            self.max_exec_cycles = self.max_exec_cycles.max(node.max_exec_cycles);
        }
        if let Some((d, idx)) = node.best_candidate {
            if self.best_candidate.is_none_or(|(b, _)| d > b) {
                self.best_candidate = Some((d, idx));
            }
        }
        for &(ty, c) in node.type_cycles.iter() {
            *self.type_cycles.entry(ty).or_insert(0) += c;
        }
        for &(n, b) in node.node_read_bytes.iter() {
            *self.node_read_bytes.entry(n).or_insert(0) += b;
        }
        for &(n, b) in node.node_write_bytes.iter() {
            *self.node_write_bytes.entry(n).or_insert(0) += b;
        }
    }

    fn finish(self) -> PyramidNode {
        PyramidNode {
            state_cycles: self.state_cycles,
            exec_count: self.exec_count,
            min_exec_cycles: self.min_exec_cycles.unwrap_or(u64::MAX),
            max_exec_cycles: self.max_exec_cycles,
            best_candidate: self.best_candidate,
            type_cycles: self.type_cycles.into_iter().collect(),
            node_read_bytes: self.node_read_bytes.into_iter().collect(),
            node_write_bytes: self.node_write_bytes.into_iter().collect(),
        }
    }
}

/// Min/max/count statistics over execution-interval durations (an interval query over
/// the pyramid's task statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Number of execution intervals.
    pub count: u64,
    /// Shortest execution-interval duration in cycles (0 when `count == 0`).
    pub min_cycles: u64,
    /// Longest execution-interval duration in cycles (0 when `count == 0`).
    pub max_cycles: u64,
}

/// The multi-resolution summary pyramid over one CPU's state stream.
///
/// Like [`crate::index::CounterIndex`], the pyramid does not own the stream it
/// summarises: queries take the same [`StatesView`] the pyramid was built over (the
/// session resolves it once per query).
#[derive(Debug, Clone, PartialEq)]
pub struct StatePyramid {
    fanout: usize,
    num_intervals: usize,
    /// Level 0 summarises `fanout` intervals per node; level `k` summarises `fanout`
    /// nodes of level `k-1`; the last level holds a single root node.
    levels: Vec<Vec<PyramidNode>>,
}

impl StatePyramid {
    /// Builds a pyramid with the default fanout.
    pub fn build(trace: &Trace, states: StatesView<'_>) -> Self {
        Self::with_fanout(trace, states, DEFAULT_PYRAMID_FANOUT)
    }

    /// Builds a pyramid with a custom fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn with_fanout(trace: &Trace, states: StatesView<'_>, fanout: usize) -> Self {
        Self::build_from(trace, trace, states, fanout)
    }

    /// [`StatePyramid::with_fanout`] reading the tasks' accesses through any
    /// [`AccessSource`] of `trace`: a session passes its access index
    /// ([`crate::AnalysisSession::accesses`]), `&Trace` itself searches. Both
    /// produce the same pyramid.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn build_from<S: AccessSource + ?Sized>(
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        fanout: usize,
    ) -> Self {
        assert!(fanout >= 2, "pyramid fanout must be at least 2");
        let mut levels = Vec::new();
        if !states.is_empty() {
            let n = states.len();
            let mut current: Vec<PyramidNode> = (0..n)
                .step_by(fanout)
                .map(|chunk_start| {
                    let mut acc = NodeAccum::default();
                    acc.add_chunk(
                        trace,
                        source,
                        states,
                        chunk_start,
                        (chunk_start + fanout).min(n),
                    );
                    acc.finish()
                })
                .collect();
            while current.len() > 1 {
                let next: Vec<PyramidNode> = current
                    .chunks(fanout)
                    .map(|chunk| {
                        let mut acc = NodeAccum::default();
                        for node in chunk {
                            acc.add_node(node);
                        }
                        acc.finish()
                    })
                    .collect();
                levels.push(current);
                current = next;
            }
            levels.push(current);
        }
        StatePyramid {
            fanout,
            num_intervals: states.len(),
            levels,
        }
    }

    /// Absorbs state intervals appended to the summarised stream by rebuilding only
    /// the rightmost spine of the pyramid; returns the number of recomputed nodes.
    ///
    /// `states` is the **full** stream after the append and `old_len` the number of
    /// intervals the pyramid covered before it. Only the partial tail node of every
    /// level plus the nodes covering the new intervals are rebuilt —
    /// `O(new/fanout + fanout · log n)` work, never a full rebuild — and the result
    /// is structurally identical to [`StatePyramid::with_fanout`] over the full
    /// stream. This exactness requires the streaming contract of
    /// `aftermath_trace::streaming`: everything a sealed node aggregates (the
    /// covered intervals, their tasks and those tasks' accesses, region placement)
    /// is immutable once ingested.
    ///
    /// # Panics
    ///
    /// Panics when `old_len` disagrees with the summarised length or `states` is
    /// shorter than `old_len`.
    pub fn append_tail(&mut self, trace: &Trace, states: StatesView<'_>, old_len: usize) -> usize {
        assert_eq!(
            old_len, self.num_intervals,
            "pyramid must cover exactly the stream prefix"
        );
        assert!(states.len() >= old_len, "streams are append-only");
        if states.len() == old_len {
            return 0;
        }
        if old_len == 0 {
            *self = Self::with_fanout(trace, states, self.fanout);
            return self.num_nodes();
        }
        self.num_intervals = states.len();
        let fanout = self.fanout;
        let first = old_len / fanout;
        let n = states.len();
        crate::index::rebuild_spine(
            &mut self.levels,
            fanout,
            old_len,
            (first * fanout..n).step_by(fanout).map(|chunk_start| {
                let mut acc = NodeAccum::default();
                acc.add_chunk(
                    trace,
                    trace,
                    states,
                    chunk_start,
                    (chunk_start + fanout).min(n),
                );
                acc.finish()
            }),
            |nodes| {
                let mut acc = NodeAccum::default();
                for node in nodes {
                    acc.add_node(node);
                }
                acc.finish()
            },
        )
    }

    /// The fanout of the pyramid.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Total number of summary nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Number of state intervals the pyramid was built over.
    pub fn num_intervals(&self) -> usize {
        self.num_intervals
    }

    /// Number of levels (0 for an empty stream).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Approximate memory used by the pyramid, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(PyramidNode::memory_bytes)
            .sum()
    }

    /// Folds every state interval in the index range `[lo, hi)` into `acc`, resolving
    /// fully covered groups through pyramid nodes.
    ///
    /// `item` is invoked with the interval's **index** for raw intervals at the range
    /// edges (before the first and after the last fully covered node), `node` for
    /// every summarising node; callers read the columns they need through the view
    /// they captured. All pyramid aggregates are order-independent sums, so the fold
    /// is exact.
    ///
    /// `states` must be the view the pyramid was built over.
    pub fn fold<A>(
        &self,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
        acc: &mut A,
        item: &mut impl FnMut(&mut A, usize),
        node: &mut impl FnMut(&mut A, &PyramidNode),
    ) {
        let hi = hi.min(self.num_intervals);
        if lo >= hi {
            return;
        }
        debug_assert_eq!(states.len(), self.num_intervals);
        // Head: intervals before the first fully covered level-0 node.
        let mut i = lo;
        while i < hi && !i.is_multiple_of(self.fanout) {
            item(acc, i);
            i += 1;
        }
        // Tail: intervals after the last fully covered level-0 node.
        let mut j = hi;
        while j > i && !j.is_multiple_of(self.fanout) {
            j -= 1;
            item(acc, j);
        }
        if i < j && !self.levels.is_empty() {
            self.fold_nodes(0, i / self.fanout, j / self.fanout, acc, node);
        }
    }

    /// Folds whole nodes `[lo, hi)` of `level`, recursing into coarser levels for
    /// fully covered groups.
    fn fold_nodes<A>(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        acc: &mut A,
        node: &mut impl FnMut(&mut A, &PyramidNode),
    ) {
        let nodes = &self.levels[level];
        let hi = hi.min(nodes.len());
        if lo >= hi {
            return;
        }
        let mut i = lo;
        while i < hi && !i.is_multiple_of(self.fanout) {
            node(acc, &nodes[i]);
            i += 1;
        }
        let mut j = hi;
        while j > i && !j.is_multiple_of(self.fanout) {
            j -= 1;
            node(acc, &nodes[j]);
        }
        if i >= j {
            return;
        }
        if level + 1 < self.levels.len() {
            self.fold_nodes(level + 1, i / self.fanout, j / self.fanout, acc, node);
        } else {
            for n in &nodes[i..j] {
                node(acc, n);
            }
        }
    }

    /// Cycles per worker state over the intervals `[lo, hi)` (full durations).
    pub fn state_cycles(
        &self,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
    ) -> [u64; WorkerState::COUNT] {
        let mut cycles = [0u64; WorkerState::COUNT];
        self.fold(
            states,
            lo,
            hi,
            &mut cycles,
            &mut |acc, i| acc[states.state_index(i)] += states.duration(i),
            &mut |acc, n| {
                for (a, &c) in acc.iter_mut().zip(&n.state_cycles) {
                    *a += c;
                }
            },
        );
        cycles
    }

    /// Execution-interval statistics over the intervals `[lo, hi)`.
    pub fn exec_stats(&self, states: StatesView<'_>, lo: usize, hi: usize) -> ExecStats {
        #[derive(Default)]
        struct Acc {
            count: u64,
            min: Option<u64>,
            max: u64,
        }
        let mut acc = Acc::default();
        self.fold(
            states,
            lo,
            hi,
            &mut acc,
            &mut |acc, i| {
                if states.is_exec(i) {
                    let d = states.duration(i);
                    acc.count += 1;
                    acc.min = Some(acc.min.map_or(d, |m| m.min(d)));
                    acc.max = acc.max.max(d);
                }
            },
            &mut |acc, n| {
                if n.exec_count > 0 {
                    acc.count += n.exec_count;
                    acc.min = Some(
                        acc.min
                            .map_or(n.min_exec_cycles, |m| m.min(n.min_exec_cycles)),
                    );
                    acc.max = acc.max.max(n.max_exec_cycles);
                }
            },
        );
        ExecStats {
            count: acc.count,
            min_cycles: acc.min.unwrap_or(0),
            max_cycles: acc.max,
        }
    }

    /// Execution cycles per task type over the intervals `[lo, hi)` (full durations),
    /// ascending by type id.
    pub fn type_cycles(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
    ) -> Vec<(TaskTypeId, u64)> {
        let mut acc: BTreeMap<TaskTypeId, u64> = BTreeMap::new();
        self.fold(
            states,
            lo,
            hi,
            &mut acc,
            &mut |acc, i| add_type_cycles(trace, states, i, states.duration(i), acc),
            &mut add_type_cycles_node,
        );
        acc.into_iter().collect()
    }

    /// Bytes accessed per NUMA node over the intervals `[lo, hi)` (attributed per
    /// execution interval), ascending by node id.
    pub fn numa_bytes(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
        kind: AccessKind,
    ) -> Vec<(NumaNodeId, u64)> {
        self.numa_bytes_from(trace, trace, states, lo, hi, kind)
    }

    /// [`StatePyramid::numa_bytes`] reading the raw edge intervals' accesses
    /// through any [`AccessSource`] of `trace`.
    pub fn numa_bytes_from<S: AccessSource + ?Sized>(
        &self,
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
        kind: AccessKind,
    ) -> Vec<(NumaNodeId, u64)> {
        let accesses = trace.accesses();
        let mut acc: BTreeMap<NumaNodeId, u64> = BTreeMap::new();
        self.fold(
            states,
            lo,
            hi,
            &mut acc,
            &mut |acc, i| {
                if !states.is_exec(i) {
                    return;
                }
                let Some(task) = states
                    .task(i)
                    .and_then(|id| trace.tasks().get(id.0 as usize))
                else {
                    return;
                };
                for row in source.rows_of(task.id) {
                    if accesses.kind(row) != kind {
                        continue;
                    }
                    if let Some(node) = source.node_of_row(row) {
                        *acc.entry(node).or_insert(0) += accesses.size(row);
                    }
                }
            },
            &mut |acc, n| {
                let per_node = match kind {
                    AccessKind::Read => &n.node_read_bytes,
                    AccessKind::Write => &n.node_write_bytes,
                };
                for &(node, b) in per_node.iter() {
                    *acc.entry(node).or_insert(0) += b;
                }
            },
        );
        acc.into_iter().collect()
    }

    /// Updates `best` with the strongest execution-interval candidate in `[lo, hi)`,
    /// exactly as the timeline's predominant-task scan would: candidates are visited
    /// in stream order, count with their **full duration** (the range must only
    /// contain intervals fully inside the query window) and replace the incumbent
    /// only on a strictly larger value, so earlier candidates win ties.
    ///
    /// Subtrees are pruned when their `max_exec_cycles` cannot strictly beat the
    /// incumbent, and — for filters restricted to task types — when none of their
    /// types is admissible. `best` is `(covered_cycles, index into trace.tasks())`.
    pub fn best_exec(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        filter: &TaskFilter,
        lo: usize,
        hi: usize,
        best: &mut Option<(u64, usize)>,
    ) {
        let hi = hi.min(self.num_intervals);
        if lo >= hi {
            return;
        }
        if self.levels.is_empty() {
            best_exec_scan(trace, states, filter, lo, hi, best);
            return;
        }
        // For the unrestricted filter a fully covered node answers in O(1) from its
        // precomputed candidate; checked once here, not per node.
        let unfiltered = filter.is_empty();
        let top = self.levels.len() - 1;
        self.best_exec_nodes(
            trace,
            states,
            filter,
            unfiltered,
            top,
            0,
            self.levels[top].len(),
            lo,
            hi,
            best,
        );
    }

    /// Number of raw intervals covered by one node of `level`.
    fn node_span(&self, level: usize) -> usize {
        // fanout^(level + 1), saturating: a saturated span simply means "covers the
        // whole stream", which keeps the clipping below correct.
        let mut span = self.fanout;
        for _ in 0..level {
            span = span.saturating_mul(self.fanout);
        }
        span
    }

    #[allow(clippy::too_many_arguments)]
    fn best_exec_nodes(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        filter: &TaskFilter,
        unfiltered: bool,
        level: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
        best: &mut Option<(u64, usize)>,
    ) {
        let span = self.node_span(level);
        let nodes = &self.levels[level];
        let node_hi = node_hi.min(nodes.len());
        for (idx, node) in nodes.iter().enumerate().take(node_hi).skip(node_lo) {
            let cover_lo = idx.saturating_mul(span);
            let cover_hi = cover_lo.saturating_add(span).min(self.num_intervals);
            let clip_lo = cover_lo.max(lo);
            let clip_hi = cover_hi.min(hi);
            if clip_lo >= clip_hi {
                continue;
            }
            // A candidate must strictly beat the incumbent (and cover > 0 cycles).
            let threshold = best.map_or(0, |(cycles, _)| cycles);
            if node.max_exec_cycles <= threshold {
                continue;
            }
            if unfiltered && clip_lo == cover_lo && clip_hi == cover_hi {
                // Fully covered and every task admissible: the node's precomputed
                // candidate IS the scan result for this subtree (earliest maximum),
                // so neither descent nor leaf scanning can change the outcome.
                if let Some((cycles, task_idx)) = node.best_candidate {
                    if cycles > threshold {
                        *best = Some((cycles, task_idx));
                    }
                }
                continue;
            }
            if let Some(types) = filter.allowed_task_types() {
                if !node.type_cycles.iter().any(|(ty, _)| types.contains(ty)) {
                    continue;
                }
            }
            if level == 0 {
                best_exec_scan(trace, states, filter, clip_lo, clip_hi, best);
            } else {
                let child_span = self.node_span(level - 1);
                self.best_exec_nodes(
                    trace,
                    states,
                    filter,
                    unfiltered,
                    level - 1,
                    clip_lo / child_span,
                    clip_hi.div_ceil(child_span),
                    clip_lo,
                    clip_hi,
                    best,
                );
            }
        }
    }
}

/// The leaf-level predominant-task predicate: identical to the timeline scan, with
/// each interval's full duration as its covered cycles. The one-byte state lane is
/// gated by a wide tag-match kernel ([`kernels::for_each_tag_match`]), which visits
/// matches in ascending stream order — the order the strict-improvement rule
/// (earliest maximum wins) depends on.
fn best_exec_scan(
    trace: &Trace,
    states: StatesView<'_>,
    filter: &TaskFilter,
    lo: usize,
    hi: usize,
    best: &mut Option<(u64, usize)>,
) {
    let tags = states.slice(lo, hi).state_tags();
    kernels::for_each_tag_match(tags, WorkerState::TaskExecution as u8, |off| {
        let i = lo + off;
        let Some(task_id) = states.task(i) else {
            return;
        };
        let idx = task_id.0 as usize;
        let Some(task) = trace.tasks().get(idx) else {
            return;
        };
        if !filter.matches(trace, task) {
            return;
        }
        let covered = states.duration(i);
        if covered == 0 {
            return;
        }
        if best.map(|(c, _)| covered > c).unwrap_or(true) {
            *best = Some((covered, idx));
        }
    });
}

/// The state intervals of a sorted, non-overlapping stream that overlap `interval`,
/// as an index range `[first, last)` — the overlap convention lives in
/// [`crate::index::states_overlapping_range`]; this is its pyramid-side name.
pub use crate::index::states_overlapping_range as overlap_range;

/// Folds an overlap index range `[first, last)` (as produced by [`overlap_range`])
/// into `acc`, splitting it the one correct way: only the first and the last
/// interval of the range can cross the window's edges, so those two go through
/// `edge` (which must clip); everything between is fully contained and resolves
/// through pyramid `node`s where available, or through `item` on the raw stream.
/// `edge` and `item` receive interval **indices** into the stream view.
///
/// Every window aggregate (state cycles, exec stats, per-type cycles, NUMA bytes)
/// shares this skeleton so the subtle edge/middle arithmetic lives in exactly one
/// place.
#[allow(clippy::too_many_arguments)]
pub fn fold_window<A>(
    pyramid: Option<&StatePyramid>,
    states: StatesView<'_>,
    first: usize,
    last: usize,
    acc: &mut A,
    edge: &mut impl FnMut(&mut A, usize),
    item: &mut impl FnMut(&mut A, usize),
    node: &mut impl FnMut(&mut A, &PyramidNode),
) {
    if first >= last {
        return;
    }
    edge(acc, first);
    if last - first >= 2 {
        edge(acc, last - 1);
    }
    if last - first > 2 {
        match pyramid {
            Some(p) => p.fold(states, first + 1, last - 1, acc, item, node),
            None => {
                for i in first + 1..last - 1 {
                    item(acc, i);
                }
            }
        }
    }
}

/// Cycles per worker state inside `interval`, clipped, over the overlap index range
/// `[first, last)`.
///
/// Resolves the fully covered middle through `pyramid` when available, and by a raw
/// scan otherwise; both produce bit-identical sums.
pub fn state_cycles_in_range(
    pyramid: Option<&StatePyramid>,
    states: StatesView<'_>,
    interval: TimeInterval,
    first: usize,
    last: usize,
) -> [u64; WorkerState::COUNT] {
    let mut cycles = [0u64; WorkerState::COUNT];
    fold_window(
        pyramid,
        states,
        first,
        last,
        &mut cycles,
        &mut |c, i| c[states.state_index(i)] += states.interval(i).overlap_cycles(&interval),
        &mut |c, i| c[states.state_index(i)] += states.duration(i),
        &mut |c, n| {
            for (acc, &v) in c.iter_mut().zip(&n.state_cycles) {
                *acc += v;
            }
        },
    );
    cycles
}

/// Adds one interval's contribution (`cycles`, already clipped or full as the
/// caller decides) to a per-task-type accumulator — the single definition of which
/// execution intervals count towards type cycles.
fn add_type_cycles(
    trace: &Trace,
    states: StatesView<'_>,
    i: usize,
    cycles: u64,
    acc: &mut BTreeMap<TaskTypeId, u64>,
) {
    if !states.is_exec(i) {
        return;
    }
    if let Some(task) = states
        .task(i)
        .and_then(|id| trace.tasks().get(id.0 as usize))
    {
        *acc.entry(task.task_type).or_insert(0) += cycles;
    }
}

/// Adds one pyramid node's per-type totals to the accumulator.
fn add_type_cycles_node(acc: &mut BTreeMap<TaskTypeId, u64>, n: &PyramidNode) {
    for &(ty, c) in n.type_cycles.iter() {
        *acc.entry(ty).or_insert(0) += c;
    }
}

/// Execution cycles per task type inside `interval` (edges clipped), over the
/// overlap index range `[first, last)`; zero entries are dropped.
pub fn type_cycles_in_range(
    pyramid: Option<&StatePyramid>,
    trace: &Trace,
    states: StatesView<'_>,
    interval: TimeInterval,
    first: usize,
    last: usize,
) -> Vec<(TaskTypeId, u64)> {
    let mut acc: BTreeMap<TaskTypeId, u64> = BTreeMap::new();
    fold_window(
        pyramid,
        states,
        first,
        last,
        &mut acc,
        &mut |acc, i| {
            add_type_cycles(
                trace,
                states,
                i,
                states.interval(i).overlap_cycles(&interval),
                acc,
            )
        },
        &mut |acc, i| add_type_cycles(trace, states, i, states.duration(i), acc),
        &mut add_type_cycles_node,
    );
    acc.into_iter().filter(|&(_, v)| v > 0).collect()
}

/// The worker state covering the largest part of `interval`, from
/// [`state_cycles_in_range`]; the tie rule (largest cycles, last state index wins)
/// matches the timeline scan's `max_by_key`.
pub fn predominant_state_in_range(
    pyramid: Option<&StatePyramid>,
    states: StatesView<'_>,
    interval: TimeInterval,
    first: usize,
    last: usize,
) -> Option<WorkerState> {
    let cycles = state_cycles_in_range(pyramid, states, interval, first, last);
    cycles
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .max_by_key(|(_, &c)| c)
        .and_then(|(i, _)| WorkerState::from_index(i))
}

/// The index (into `trace.tasks()`) of the execution interval covering the largest
/// part of `interval`, over the overlap index range `[first, last)`; candidates are
/// considered in stream order with strict improvement (earliest maximum wins),
/// exactly like the timeline scan.
pub fn predominant_task_in_range(
    pyramid: Option<&StatePyramid>,
    trace: &Trace,
    states: StatesView<'_>,
    filter: &TaskFilter,
    interval: TimeInterval,
    first: usize,
    last: usize,
) -> Option<usize> {
    if first >= last {
        return None;
    }
    let mut best: Option<(u64, usize)> = None;
    let consider = |i: usize, best: &mut Option<(u64, usize)>| {
        if !states.is_exec(i) {
            return;
        }
        let Some(task_id) = states.task(i) else {
            return;
        };
        let idx = task_id.0 as usize;
        let Some(task) = trace.tasks().get(idx) else {
            return;
        };
        if !filter.matches(trace, task) {
            return;
        }
        let overlap = states.interval(i).overlap_cycles(&interval);
        if overlap == 0 {
            return;
        }
        if best.map(|(o, _)| overlap > o).unwrap_or(true) {
            *best = Some((overlap, idx));
        }
    };
    consider(first, &mut best);
    if last - first > 2 {
        match pyramid {
            Some(p) => p.best_exec(trace, states, filter, first + 1, last - 1, &mut best),
            None => best_exec_scan(trace, states, filter, first + 1, last - 1, &mut best),
        }
    }
    if last - first >= 2 {
        consider(last - 1, &mut best);
    }
    best.map(|(_, idx)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::states_overlapping;
    use crate::testutil::small_sim_trace;
    use aftermath_trace::CpuId;

    fn pyramid_for(trace: &Trace, cpu: CpuId, fanout: usize) -> StatePyramid {
        StatePyramid::with_fanout(trace, trace.cpu(cpu).unwrap().states(), fanout)
    }

    fn states_of(trace: &Trace, cpu: CpuId) -> StatesView<'_> {
        trace.cpu(cpu).unwrap().states()
    }

    #[test]
    fn state_cycles_match_naive_sums_for_all_ranges() {
        let trace = small_sim_trace();
        let pyramid = pyramid_for(&trace, CpuId(0), 3);
        let states = states_of(&trace, CpuId(0));
        let n = states.len();
        assert!(n > 10, "fixture must have a real stream");
        for (lo, hi) in [(0, n), (1, n - 1), (0, 1), (n - 1, n), (2, 7), (5, 5)] {
            let mut naive = [0u64; WorkerState::COUNT];
            for i in lo..hi {
                naive[states.state_index(i)] += states.duration(i);
            }
            assert_eq!(pyramid.state_cycles(states, lo, hi), naive, "{lo}..{hi}");
        }
    }

    #[test]
    fn exec_stats_match_naive() {
        let trace = small_sim_trace();
        let pyramid = pyramid_for(&trace, CpuId(1), 4);
        let states = states_of(&trace, CpuId(1));
        let n = states.len();
        for (lo, hi) in [(0, n), (3, n / 2), (0, 0)] {
            let execs: Vec<u64> = (lo..hi)
                .filter(|&i| states.is_exec(i))
                .map(|i| states.duration(i))
                .collect();
            let stats = pyramid.exec_stats(states, lo, hi);
            assert_eq!(stats.count as usize, execs.len());
            assert_eq!(stats.min_cycles, execs.iter().copied().min().unwrap_or(0));
            assert_eq!(stats.max_cycles, execs.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn best_exec_matches_scan_for_all_fanouts() {
        let trace = small_sim_trace();
        for fanout in [2, 3, 8, 64] {
            let pyramid = pyramid_for(&trace, CpuId(0), fanout);
            let states = states_of(&trace, CpuId(0));
            let n = states.len();
            for (lo, hi) in [(0, n), (1, n - 2), (n / 3, 2 * n / 3)] {
                let mut expected = None;
                best_exec_scan(&trace, states, &TaskFilter::new(), lo, hi, &mut expected);
                let mut got = None;
                pyramid.best_exec(&trace, states, &TaskFilter::new(), lo, hi, &mut got);
                assert_eq!(got, expected, "fanout {fanout}, range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn best_exec_respects_type_filter() {
        let trace = small_sim_trace();
        let pyramid = pyramid_for(&trace, CpuId(0), 4);
        let states = states_of(&trace, CpuId(0));
        let ty = trace.task_types()[0].id;
        let filter = TaskFilter::new().with_task_type(ty);
        let n = states.len();
        let mut expected = None;
        best_exec_scan(&trace, states, &filter, 0, n, &mut expected);
        let mut got = None;
        pyramid.best_exec(&trace, states, &filter, 0, n, &mut got);
        assert_eq!(got, expected);
        if let Some((_, idx)) = got {
            assert_eq!(trace.tasks()[idx].task_type, ty);
        }
    }

    #[test]
    fn overlap_range_agrees_with_states_overlapping() {
        let trace = small_sim_trace();
        let states = states_of(&trace, CpuId(0));
        let bounds = trace.time_bounds();
        let mid = TimeInterval::from_cycles(
            bounds.start.0 + bounds.duration() / 4,
            bounds.start.0 + bounds.duration() / 2,
        );
        for iv in [bounds, mid, TimeInterval::from_cycles(0, 0)] {
            let (lo, hi) = overlap_range(states, iv);
            let slice = states_overlapping(states, iv);
            assert_eq!(
                states.slice(lo, hi).iter().collect::<Vec<_>>(),
                slice.iter().collect::<Vec<_>>(),
                "{iv}"
            );
        }
    }

    #[test]
    fn empty_stream_yields_empty_pyramid() {
        let trace = small_sim_trace();
        let empty = StatesView::empty(CpuId(0));
        let pyramid = StatePyramid::build(&trace, empty);
        assert_eq!(pyramid.num_levels(), 0);
        assert_eq!(pyramid.memory_bytes(), 0);
        assert_eq!(pyramid.state_cycles(empty, 0, 10), [0; WorkerState::COUNT]);
        let mut best = None;
        pyramid.best_exec(&trace, empty, &TaskFilter::new(), 0, 10, &mut best);
        assert_eq!(best, None);
    }

    #[test]
    #[should_panic]
    fn fanout_of_one_panics() {
        let trace = small_sim_trace();
        let _ = StatePyramid::with_fanout(&trace, StatesView::empty(CpuId(0)), 1);
    }

    #[test]
    fn append_tail_equals_fresh_build_for_all_splits_and_fanouts() {
        let trace = small_sim_trace();
        let states = states_of(&trace, CpuId(0));
        let n = states.len();
        assert!(n > 10, "fixture must have a real stream");
        for fanout in [2, 3, 8, 64] {
            for old_len in [0, 1, n / 3, n / 2, n - 1, n] {
                let mut incremental =
                    StatePyramid::with_fanout(&trace, states.slice(0, old_len), fanout);
                incremental.append_tail(&trace, states, old_len);
                let fresh = StatePyramid::with_fanout(&trace, states, fanout);
                assert_eq!(incremental, fresh, "fanout {fanout}, split at {old_len}");
            }
        }
    }

    #[test]
    fn append_tail_in_many_small_steps_equals_fresh_build() {
        let trace = small_sim_trace();
        let states = states_of(&trace, CpuId(1));
        let mut pyramid = StatePyramid::with_fanout(&trace, states.slice(0, 0), 3);
        let mut len = 0;
        while len < states.len() {
            let next = (len + 1 + len % 4).min(states.len());
            pyramid.append_tail(&trace, states.slice(0, next), len);
            len = next;
        }
        assert_eq!(pyramid, StatePyramid::with_fanout(&trace, states, 3));
    }
}
