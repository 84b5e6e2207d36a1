//! The multi-resolution aggregation layer: a mipmap-style pyramid of summary nodes
//! over each CPU's state stream, and the one window reduction every per-cell and
//! per-window query goes through.
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
//! The tree is the level tree the counter index is built on too (`crate::levels`)
//! with [`PyramidNode`]s in it; builds and raw runs walk the columnar stream views
//! ([`aftermath_trace::columns`]) through the wide kernels of [`crate::kernels`].
//!
//! # One window reduction
//!
//! Per-CPU state streams are sorted by start and non-overlapping, so of all the
//! intervals overlapping a query window only the *first* and the *last* can cross the
//! window's edges — every interval between them is fully contained, and its overlap
//! with the window equals its full duration. A [`Window`] therefore clips the two
//! edge intervals on the raw stream and reduces the fully covered middle in one of
//! two ways, decided from the index range and the tree's fanout alone
//! ([`Window::reads_nodes`]):
//!
//! * the middle holds **no whole level-0 node** (or there is no pyramid): it is one
//!   raw run through the kernels — the scan. No node lies inside such a range, so a
//!   descent could only arrive at the same raw items after paying for the way down;
//! * otherwise: the run before the first whole node, the nodes, the run after the
//!   last one — the same kernels for the runs, `O(fanout · log_fanout n)` nodes for
//!   everything between them.
//!
//! The pyramid path thus *contains* the scan and takes it exactly where it is the
//! cheaper one, which is why nothing has to choose between two engines. All
//! aggregation is `u64` addition, so the sums are bit-identical whichever way a
//! window is split.
//!
//! For predominant-*task* queries (heatmap, typemap and NUMA timeline modes) the
//! answer is an argmax, not a sum: the execution interval covering the largest part
//! of the window, earliest-in-stream winning ties. [`Window::predominant_task`]
//! visits the pieces **in stream order** — edge, middle, edge — keeping the best
//! candidate found so far under one strict-improvement rule; a middle that reads
//! nodes is descended in order too, pruning every subtree (and every partly covered
//! leaf's raw run) whose longest execution cannot strictly beat the incumbent, plus
//! whole subtrees whose task types are all rejected by the filter. The selected
//! task is therefore identical — including ties — with and without a pyramid, for
//! arbitrary filters.

use std::collections::BTreeMap;

use aftermath_trace::{
    AccessKind, NumaNodeId, StatesView, TaskInstance, TaskTypeId, TimeInterval, Trace, WorkerState,
};

use crate::access_index::AccessSource;
use crate::filter::TaskFilter;
use crate::kernels;
use crate::levels::{Levels, Span};

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
    /// Count and min/max duration of the covered [`WorkerState::TaskExecution`]
    /// intervals. The maximum doubles as the pruning bound for predominant-task
    /// queries.
    pub exec: ExecStats,
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

    /// The per-node byte counts of one access kind.
    fn node_bytes(&self, kind: AccessKind) -> &[(NumaNodeId, u64)] {
        match kind {
            AccessKind::Read => &self.node_read_bytes,
            AccessKind::Write => &self.node_write_bytes,
        }
    }
}

/// Adds the full durations of the intervals `[lo, hi)` to the per-state histogram:
/// one gated pass over the one-byte state lane ([`kernels::tag_duration_sums`]).
fn add_state_run(
    states: StatesView<'_>,
    lo: usize,
    hi: usize,
    cycles: &mut [u64; WorkerState::COUNT],
) {
    let (starts, ends, tags) = (states.starts(), states.ends(), states.state_tags());
    kernels::tag_duration_sums(&starts[lo..hi], &ends[lo..hi], &tags[lo..hi], cycles);
}

/// Visits exactly the execution intervals of `[lo, hi)`, in stream order — the
/// order every strict-improvement rule depends on — through a tag-match scan of the
/// state lane ([`kernels::for_each_tag_match`]).
fn for_each_exec(states: StatesView<'_>, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    let exec = WorkerState::TaskExecution as u8;
    kernels::for_each_tag_match(&states.state_tags()[lo..hi], exec, |off| f(lo + off));
}

/// The task execution interval `i` names and its index in `trace.tasks()`, when the
/// trace has it: only such intervals count towards type cycles, NUMA bytes and the
/// predominant task.
fn task_of<'t>(
    trace: &'t Trace,
    states: StatesView<'_>,
    i: usize,
) -> Option<(usize, &'t TaskInstance)> {
    let idx = states.task(i)?.0 as usize;
    Some((idx, trace.tasks().get(idx)?))
}

/// The predominant-task candidate rule, in its one place: execution interval `i`,
/// covering `cycles` of the window, replaces the incumbent when it names a task of
/// the trace that `filter` accepts (`None` accepts all) and covers strictly more —
/// so nothing yields to zero cycles and of equal candidates the earliest visited
/// stays. Returns the named task.
fn consider<'t>(
    trace: &'t Trace,
    states: StatesView<'_>,
    filter: Option<&TaskFilter>,
    i: usize,
    cycles: u64,
    best: &mut Option<(u64, usize)>,
) -> Option<&'t TaskInstance> {
    let (idx, task) = task_of(trace, states, i)?;
    if beats(best, cycles) && filter.is_none_or(|f| f.matches(trace, task)) {
        *best = Some((cycles, idx));
    }
    Some(task)
}

/// Strict improvement: whether a candidate covering `cycles` displaces `best`.
fn beats(best: &Option<(u64, usize)>, cycles: u64) -> bool {
    cycles > best.map_or(0, |(c, _)| c)
}

/// [`consider`]s every execution interval of the fully covered run `[lo, hi)`, each
/// with its full duration.
fn consider_run(
    trace: &Trace,
    states: StatesView<'_>,
    filter: &TaskFilter,
    lo: usize,
    hi: usize,
    best: &mut Option<(u64, usize)>,
) {
    for_each_exec(states, lo, hi, |i| {
        consider(trace, states, Some(filter), i, states.duration(i), best);
    });
}

/// Calls `f(kind, node, bytes)` for every access of `task` whose data lies on a
/// known node.
fn for_each_access<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: &TaskInstance,
    mut f: impl FnMut(AccessKind, NumaNodeId, u64),
) {
    let accesses = trace.accesses();
    for row in source.rows_of(task.id) {
        if let Some(node) = source.node_of_row(row) {
            f(accesses.kind(row), node, accesses.size(row));
        }
    }
}

/// Adds the per-key totals of a node to an accumulator.
fn add_pairs<K: Ord + Copy>(acc: &mut BTreeMap<K, u64>, pairs: &[(K, u64)]) {
    for &(key, value) in pairs {
        *acc.entry(key).or_insert(0) += value;
    }
}

/// Mutable accumulator used while building nodes; flushed into the compact
/// [`PyramidNode`] representation once a group is complete.
#[derive(Default)]
struct NodeAccum {
    state_cycles: [u64; WorkerState::COUNT],
    exec: ExecStats,
    best_candidate: Option<(u64, usize)>,
    type_cycles: BTreeMap<TaskTypeId, u64>,
    node_read_bytes: BTreeMap<NumaNodeId, u64>,
    node_write_bytes: BTreeMap<NumaNodeId, u64>,
}

impl NodeAccum {
    /// The summary of the raw intervals `[lo, hi)`: the histogram in one kernel
    /// pass, the execution aggregates interval by interval in stream order.
    fn leaf<S: AccessSource + ?Sized>(
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
    ) -> PyramidNode {
        let mut acc = NodeAccum::default();
        add_state_run(states, lo, hi, &mut acc.state_cycles);
        for_each_exec(states, lo, hi, |i| {
            let duration = states.duration(i);
            acc.exec.add(&ExecStats::of(duration));
            let best = &mut acc.best_candidate;
            let Some(task) = consider(trace, states, None, i, duration, best) else {
                return;
            };
            *acc.type_cycles.entry(task.task_type).or_insert(0) += duration;
            for_each_access(trace, source, task, |kind, node, bytes| {
                let per_node = match kind {
                    AccessKind::Read => &mut acc.node_read_bytes,
                    AccessKind::Write => &mut acc.node_write_bytes,
                };
                *per_node.entry(node).or_insert(0) += bytes;
            });
        });
        acc.finish()
    }

    /// The summary of a group of nodes, in stream order.
    fn combine(nodes: &[PyramidNode]) -> PyramidNode {
        let mut acc = NodeAccum::default();
        for node in nodes {
            for (cycles, &c) in acc.state_cycles.iter_mut().zip(&node.state_cycles) {
                *cycles += c;
            }
            acc.exec.add(&node.exec);
            if let Some(candidate) = node
                .best_candidate
                .filter(|c| beats(&acc.best_candidate, c.0))
            {
                acc.best_candidate = Some(candidate);
            }
            add_pairs(&mut acc.type_cycles, &node.type_cycles);
            add_pairs(&mut acc.node_read_bytes, &node.node_read_bytes);
            add_pairs(&mut acc.node_write_bytes, &node.node_write_bytes);
        }
        acc.finish()
    }

    fn finish(self) -> PyramidNode {
        PyramidNode {
            state_cycles: self.state_cycles,
            exec: self.exec,
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

impl ExecStats {
    /// The statistics of one execution interval.
    fn of(duration: u64) -> Self {
        ExecStats {
            count: 1,
            min_cycles: duration,
            max_cycles: duration,
        }
    }

    /// Adds the intervals `other` summarises.
    fn add(&mut self, other: &ExecStats) {
        if other.count == 0 {
            return;
        }
        self.min_cycles = match self.count {
            0 => other.min_cycles,
            _ => self.min_cycles.min(other.min_cycles),
        };
        self.max_cycles = self.max_cycles.max(other.max_cycles);
        self.count += other.count;
    }
}

/// The multi-resolution summary pyramid over one CPU's state stream.
///
/// Like [`crate::index::CounterIndex`], the pyramid does not own the stream it
/// summarises: a [`Window`] takes the same [`StatesView`] the pyramid was built over
/// (the session resolves it once per query).
#[derive(Debug, Clone, PartialEq)]
pub struct StatePyramid {
    tree: Levels<PyramidNode>,
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
        let mut pyramid = StatePyramid {
            tree: Levels::new(fanout),
        };
        pyramid.grow(trace, source, states, 0);
        pyramid
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
        self.grow(trace, trace, states, old_len)
    }

    fn grow<S: AccessSource + ?Sized>(
        &mut self,
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        old_len: usize,
    ) -> usize {
        self.tree.append_tail(
            old_len,
            states.len(),
            |lo, hi| NodeAccum::leaf(trace, source, states, lo, hi),
            NodeAccum::combine,
        )
    }

    /// The fanout of the pyramid.
    pub fn fanout(&self) -> usize {
        self.tree.fanout()
    }

    /// Total number of summary nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Number of state intervals the pyramid was built over.
    pub fn num_intervals(&self) -> usize {
        self.tree.len()
    }

    /// Number of levels (0 for an empty stream).
    pub fn num_levels(&self) -> usize {
        self.tree.num_levels()
    }

    /// Approximate memory used by the pyramid, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.nodes().map(PyramidNode::memory_bytes).sum()
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

    /// [`StatePyramid::numa_bytes`] reading the raw runs' accesses through any
    /// [`AccessSource`] of `trace`: [`Window::numa_bytes`] over the index range.
    pub fn numa_bytes_from<S: AccessSource + ?Sized>(
        &self,
        trace: &Trace,
        source: &S,
        states: StatesView<'_>,
        lo: usize,
        hi: usize,
        kind: AccessKind,
    ) -> Vec<(NumaNodeId, u64)> {
        let hi = hi.min(states.len());
        Window::over_range(Some(self), states, ALL_TIME, lo.min(hi), hi)
            .numa_bytes(trace, source, kind)
    }

    /// Updates `best` with the strongest candidate among the intervals `[lo, hi)` —
    /// which must all lie fully inside the query window, since candidates count
    /// with their full duration — under the rule of [`consider`], in stream order.
    fn best_exec(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        filter: &TaskFilter,
        (lo, hi): (usize, usize),
        best: &mut Option<(u64, usize)>,
    ) {
        // Descend from the lowest level at which the range touches at most one
        // group of nodes, not from the root: a range over three leaves is three
        // node visits, whatever the height of the tree.
        let fanout = self.fanout();
        let (mut level, mut nodes) = (0, (lo / fanout, hi.div_ceil(fanout)));
        while nodes.1 - nodes.0 > fanout {
            (level, nodes) = (level + 1, (nodes.0 / fanout, nodes.1.div_ceil(fanout)));
        }
        let unfiltered = filter.is_empty();
        self.best_exec_nodes(
            trace,
            states,
            filter,
            unfiltered,
            level,
            nodes,
            (lo, hi),
            best,
        );
    }

    /// [`StatePyramid::best_exec`] over the nodes `[node_lo, node_hi)` of `level`,
    /// clipped to the items `[lo, hi)`.
    ///
    /// A subtree is skipped when its longest execution cannot strictly beat the
    /// incumbent, and — for filters restricted to task types — when none of its
    /// types is admissible; when every task is admissible (`unfiltered`, checked
    /// once per query) a fully covered node answers in O(1) from its precomputed
    /// candidate, which IS the scan result for its subtree (earliest maximum). What
    /// is left of a partly covered leaf is a raw run.
    #[allow(clippy::too_many_arguments)]
    fn best_exec_nodes(
        &self,
        trace: &Trace,
        states: StatesView<'_>,
        filter: &TaskFilter,
        unfiltered: bool,
        level: usize,
        (node_lo, node_hi): (usize, usize),
        (lo, hi): (usize, usize),
        best: &mut Option<(u64, usize)>,
    ) {
        // Raw intervals per node of `level` and of the level below. Saturating: a
        // saturated span means "covers the whole stream", which clips correctly.
        let child_span = self.tree.fanout().saturating_pow(level as u32);
        let span = child_span.saturating_mul(self.tree.fanout());
        let nodes = self.tree.level(level);
        for (idx, node) in nodes.iter().enumerate().take(node_hi).skip(node_lo) {
            let cover_lo = idx.saturating_mul(span);
            let cover_hi = cover_lo.saturating_add(span).min(self.tree.len());
            let (clip_lo, clip_hi) = (cover_lo.max(lo), cover_hi.min(hi));
            if clip_lo >= clip_hi || !beats(best, node.exec.max_cycles) {
                continue;
            }
            if unfiltered && (clip_lo, clip_hi) == (cover_lo, cover_hi) {
                if let Some(candidate) = node.best_candidate.filter(|c| beats(best, c.0)) {
                    *best = Some(candidate);
                }
                continue;
            }
            if let Some(types) = filter.allowed_task_types() {
                if !node.type_cycles.iter().any(|(ty, _)| types.contains(ty)) {
                    continue;
                }
            }
            if level == 0 {
                consider_run(trace, states, filter, clip_lo, clip_hi, best);
            } else {
                let children = (clip_lo / child_span, clip_hi.div_ceil(child_span));
                let clip = (clip_lo, clip_hi);
                self.best_exec_nodes(
                    trace,
                    states,
                    filter,
                    unfiltered,
                    level - 1,
                    children,
                    clip,
                    best,
                );
            }
        }
    }
}

/// The state intervals of a sorted, non-overlapping stream that overlap `interval`,
/// as an index range `[first, last)` — the overlap convention lives in
/// [`crate::index::states_overlapping_range`]; this is its pyramid-side name.
pub use crate::index::states_overlapping_range as overlap_range;

/// The window that cuts no interval: an index range reduced as it stands.
const ALL_TIME: TimeInterval = TimeInterval {
    start: aftermath_trace::Timestamp(0),
    end: aftermath_trace::Timestamp(u64::MAX),
};

/// The part of one CPU's state stream a time window overlaps, ready to be reduced:
/// the one function family behind every timeline cell and every
/// [`crate::IntervalQuery`] aggregate (see the module docs).
///
/// Passing no pyramid reduces every window by the scan alone; the answers are the
/// same bit for bit, which is what [`crate::TimelineEngine::Scan`] and the
/// equivalence suites rest on.
#[derive(Debug, Clone, Copy)]
pub struct Window<'a> {
    states: StatesView<'a>,
    interval: TimeInterval,
    /// The overlap range `[first, last)`: only `first` and `last - 1` can cross the
    /// window's edges.
    first: usize,
    last: usize,
    /// The pyramid — when there is one and the fully covered middle
    /// `[first + 1, last - 1)` holds a whole level-0 node of it.
    pyramid: Option<&'a StatePyramid>,
}

impl<'a> Window<'a> {
    /// The window `interval` cuts out of `states`. `pyramid`, when given, must be
    /// built over exactly `states`.
    pub fn new(
        pyramid: Option<&'a StatePyramid>,
        states: StatesView<'a>,
        interval: TimeInterval,
    ) -> Self {
        let (first, last) = overlap_range(states, interval);
        Self::over_range(pyramid, states, interval, first, last)
    }

    fn over_range(
        pyramid: Option<&'a StatePyramid>,
        states: StatesView<'a>,
        interval: TimeInterval,
        first: usize,
        last: usize,
    ) -> Self {
        let mut window = Window {
            states,
            interval,
            first,
            last,
            pyramid,
        };
        let (lo, hi) = window.middle();
        window.pyramid = pyramid.filter(|pyramid| {
            debug_assert_eq!(states.len(), pyramid.num_intervals());
            pyramid.tree.holds_whole_node(lo, hi)
        });
        window
    }

    /// The fully covered middle of the overlap range: everything between the two
    /// edge intervals (possibly empty, `lo >= hi`).
    fn middle(&self) -> (usize, usize) {
        (self.first + 1, self.last.saturating_sub(1))
    }

    /// Whether reducing this window reads pyramid nodes: there is a pyramid and the
    /// fully covered middle holds a whole level-0 node of it. Otherwise the window
    /// is reduced from raw intervals alone, exactly as without a pyramid.
    pub fn reads_nodes(&self) -> bool {
        self.pyramid.is_some()
    }

    /// The intervals that may cross the window's edges and must be clipped.
    fn edges(&self) -> impl Iterator<Item = usize> {
        let (first, last) = (self.first, self.last);
        let front = (first < last).then_some(first);
        front
            .into_iter()
            .chain((first + 1 < last).then(|| last - 1))
    }

    /// Hands `f` the intervals `[lo, hi)` — all fully inside the window — as one
    /// raw run, or as the level tree splits them when the window reads nodes.
    fn fold(&self, lo: usize, hi: usize, mut f: impl FnMut(Span<'a, PyramidNode>)) {
        match self.pyramid {
            Some(pyramid) => pyramid.tree.fold(lo, hi, f),
            None if lo < hi => f(Span::Items(lo, hi)),
            None => {}
        }
    }

    /// [`Window::fold`] over the fully covered middle.
    fn fold_middle(&self, f: impl FnMut(Span<'a, PyramidNode>)) {
        let (lo, hi) = self.middle();
        self.fold(lo, hi, f);
    }

    /// Cycles each worker state covers inside the window (edges clipped), indexed
    /// by [`WorkerState::index`].
    pub fn state_cycles(&self) -> [u64; WorkerState::COUNT] {
        let states = self.states;
        let mut cycles = [0u64; WorkerState::COUNT];
        for i in self.edges() {
            cycles[states.state_index(i)] += states.interval(i).overlap_cycles(&self.interval);
        }
        self.fold_middle(|span| match span {
            Span::Items(lo, hi) => add_state_run(states, lo, hi, &mut cycles),
            Span::Node(node) => {
                for (cycles, &c) in cycles.iter_mut().zip(&node.state_cycles) {
                    *cycles += c;
                }
            }
        });
        cycles
    }

    /// The worker state covering the largest part of the window, if any: the
    /// largest of [`Window::state_cycles`], the last state index winning ties.
    pub fn predominant_state(&self) -> Option<WorkerState> {
        let cycles = self.state_cycles();
        let busiest = cycles.iter().enumerate().filter(|(_, &c)| c > 0);
        busiest
            .max_by_key(|(_, &c)| c)
            .and_then(|(i, _)| WorkerState::from_index(i))
    }

    /// The index (into `trace.tasks()`) of the execution interval covering the
    /// largest part of the window, among the tasks `filter` accepts; candidates are
    /// visited in stream order under the one rule of the module docs, so the
    /// earliest maximum wins.
    pub fn predominant_task(&self, trace: &Trace, filter: &TaskFilter) -> Option<usize> {
        let Window {
            states,
            first,
            last,
            ..
        } = *self;
        let mut best = None;
        let edge = |i: usize, best: &mut Option<(u64, usize)>| {
            if states.is_exec(i) {
                let cycles = states.interval(i).overlap_cycles(&self.interval);
                consider(trace, states, Some(filter), i, cycles, best);
            }
        };
        let (lo, hi) = self.middle();
        if first < last {
            edge(first, &mut best);
        }
        match self.pyramid {
            Some(pyramid) => pyramid.best_exec(trace, states, filter, (lo, hi), &mut best),
            None if lo < hi => consider_run(trace, states, filter, lo, hi, &mut best),
            None => {}
        }
        if first + 1 < last {
            edge(last - 1, &mut best);
        }
        best.map(|(_, task)| task)
    }

    /// Execution cycles per task type inside the window (edges clipped), ascending
    /// by type id; zero entries are dropped.
    pub fn type_cycles(&self, trace: &Trace) -> Vec<(TaskTypeId, u64)> {
        let states = self.states;
        let mut acc = BTreeMap::new();
        let add = |acc: &mut BTreeMap<TaskTypeId, u64>, i: usize, cycles: u64| {
            if let Some((_, task)) = task_of(trace, states, i) {
                *acc.entry(task.task_type).or_insert(0) += cycles;
            }
        };
        for i in self.edges().filter(|&i| states.is_exec(i)) {
            let cycles = states.interval(i).overlap_cycles(&self.interval);
            add(&mut acc, i, cycles);
        }
        self.fold_middle(|span| match span {
            Span::Items(lo, hi) => {
                for_each_exec(states, lo, hi, |i| add(&mut acc, i, states.duration(i)));
            }
            Span::Node(node) => add_pairs(&mut acc, &node.type_cycles),
        });
        acc.into_iter().filter(|&(_, cycles)| cycles > 0).collect()
    }

    /// Count and min/max duration of the execution intervals overlapping the window
    /// (full durations, each interval counted once: the edges are not clipped).
    pub fn exec_stats(&self) -> ExecStats {
        let states = self.states;
        let mut stats = ExecStats::default();
        self.fold(self.first, self.last, |span| match span {
            Span::Items(lo, hi) => {
                for_each_exec(states, lo, hi, |i| {
                    stats.add(&ExecStats::of(states.duration(i)))
                });
            }
            Span::Node(node) => stats.add(&node.exec),
        });
        stats
    }

    /// Bytes accessed per NUMA node by the tasks of the execution intervals
    /// overlapping the window, ascending by node id (attributed per execution
    /// interval, full access totals: the edges are not clipped). `source` reads the
    /// accesses of the raw runs' tasks.
    pub fn numa_bytes<S: AccessSource + ?Sized>(
        &self,
        trace: &Trace,
        source: &S,
        kind: AccessKind,
    ) -> Vec<(NumaNodeId, u64)> {
        let states = self.states;
        let mut acc = BTreeMap::new();
        self.fold(self.first, self.last, |span| match span {
            Span::Items(lo, hi) => for_each_exec(states, lo, hi, |i| {
                let Some((_, task)) = task_of(trace, states, i) else {
                    return;
                };
                for_each_access(trace, source, task, |k, node, bytes| {
                    if k == kind {
                        *acc.entry(node).or_insert(0) += bytes;
                    }
                });
            }),
            Span::Node(node) => add_pairs(&mut acc, node.node_bytes(kind)),
        });
        acc.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::states_overlapping;
    use crate::testutil::small_sim_trace;
    use aftermath_trace::{CpuId, MachineTopology, TaskId, Timestamp, TraceBuilder};

    fn pyramid_for(trace: &Trace, cpu: CpuId, fanout: usize) -> StatePyramid {
        StatePyramid::with_fanout(trace, trace.cpu(cpu).unwrap().states(), fanout)
    }

    fn states_of(trace: &Trace, cpu: CpuId) -> StatesView<'_> {
        trace.cpu(cpu).unwrap().states()
    }

    /// The index range `[lo, hi)` as a window that clips nothing.
    fn range<'a>(
        pyramid: Option<&'a StatePyramid>,
        states: StatesView<'a>,
        lo: usize,
        hi: usize,
    ) -> Window<'a> {
        Window::over_range(pyramid, states, ALL_TIME, lo, hi)
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
            let window = range(Some(&pyramid), states, lo, hi);
            assert_eq!(window.state_cycles(), naive, "{lo}..{hi}");
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
            let stats = range(Some(&pyramid), states, lo, hi).exec_stats();
            assert_eq!(stats.count as usize, execs.len());
            assert_eq!(stats.min_cycles, execs.iter().copied().min().unwrap_or(0));
            assert_eq!(stats.max_cycles, execs.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn best_exec_matches_scan_for_all_fanouts() {
        let trace = small_sim_trace();
        let filter = TaskFilter::new();
        for fanout in [2, 3, 8, 64] {
            let pyramid = pyramid_for(&trace, CpuId(0), fanout);
            let states = states_of(&trace, CpuId(0));
            let n = states.len();
            for (lo, hi) in [(0, n), (1, n - 2), (n / 3, 2 * n / 3)] {
                let expected = range(None, states, lo, hi).predominant_task(&trace, &filter);
                let got = range(Some(&pyramid), states, lo, hi).predominant_task(&trace, &filter);
                assert!(expected.is_some());
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
        let expected = range(None, states, 0, n).predominant_task(&trace, &filter);
        let got = range(Some(&pyramid), states, 0, n).predominant_task(&trace, &filter);
        assert_eq!(got, expected);
        if let Some(idx) = got {
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
        let window = Window::new(Some(&pyramid), empty, trace.time_bounds());
        assert!(!window.reads_nodes());
        assert_eq!(window.state_cycles(), [0; WorkerState::COUNT]);
        assert_eq!(window.predominant_task(&trace, &TaskFilter::new()), None);
        assert_eq!(window.exec_stats(), ExecStats::default());
        let read = pyramid.numa_bytes(&trace, empty, 0, 10, AccessKind::Read);
        assert_eq!(read, Vec::new());
    }

    /// One CPU, 70 back-to-back or gapped intervals: idle and other states,
    /// executions of three task types (each reading from one node and sometimes
    /// writing to the other), zero-duration intervals, and executions naming a
    /// task the trace does not have.
    fn mixed_stream() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 1));
        let types: Vec<TaskTypeId> = (0..3)
            .map(|i| b.add_task_type(format!("t{i}"), 0x100 + i))
            .collect();
        b.add_region(0x1_0000, 4096, Some(NumaNodeId(0)));
        b.add_region(0x2_0000, 4096, Some(NumaNodeId(1)));
        let cpu = CpuId(0);
        let (mut now, mut x) = (10u64, 0x2545_f491_4f6c_dd1du64);
        for i in 0..70u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Equal durations are frequent, so earliest-maximum ties are too.
            let len = if i % 9 == 4 { 0 } else { 5 * (1 + x % 4) };
            let (start, end) = (Timestamp(now), Timestamp(now + len));
            match i % 5 {
                0 | 2 | 3 => {
                    let task = b.add_task(types[(x % 3) as usize], cpu, start, start, end);
                    let addr = if x & 8 == 0 { 0x1_0000 } else { 0x2_0000 };
                    b.add_access(task, AccessKind::Read, addr, 64 + x % 64)
                        .unwrap();
                    if x & 16 == 0 {
                        b.add_access(task, AccessKind::Write, 0x3_0000 - addr, 32)
                            .unwrap();
                    }
                    let named = if i % 15 == 3 {
                        TaskId(10_000 + i)
                    } else {
                        task
                    };
                    b.add_state(cpu, WorkerState::TaskExecution, start, end, Some(named))
                        .unwrap();
                }
                1 => b
                    .add_state(cpu, WorkerState::Idle, start, end, None)
                    .unwrap(),
                _ => {
                    let state = WorkerState::from_index((x % 5) as usize).unwrap();
                    let state = match state {
                        WorkerState::TaskExecution => WorkerState::Idle,
                        other => other,
                    };
                    b.add_state(cpu, state, start, end, None).unwrap();
                }
            }
            now += len + if i % 4 == 0 { 3 } else { 0 };
        }
        b.finish().unwrap()
    }

    /// Ground truth for the two timeline reductions, with none of the machinery
    /// under test: every interval of the stream is clipped against the window.
    fn naive(
        trace: &Trace,
        states: StatesView<'_>,
        iv: TimeInterval,
        filter: &TaskFilter,
    ) -> ([u64; WorkerState::COUNT], Option<usize>) {
        let mut cycles = [0u64; WorkerState::COUNT];
        let mut best: Option<(u64, usize)> = None;
        for i in 0..states.len() {
            let overlap = states.interval(i).overlap_cycles(&iv);
            cycles[states.state_index(i)] += overlap;
            let task = states.task(i).filter(|_| states.is_exec(i));
            let Some(task) = task.and_then(|id| trace.tasks().get(id.0 as usize)) else {
                continue;
            };
            if filter.matches(trace, task) && overlap > best.map_or(0, |(o, _)| o) {
                best = Some((overlap, task.id.0 as usize));
            }
        }
        (cycles, best.map(|(_, task)| task))
    }

    #[test]
    fn every_window_reduces_alike_with_and_without_a_pyramid() {
        let trace = mixed_stream();
        let states = states_of(&trace, CpuId(0));
        assert_eq!(states.len(), 70);
        assert!((0..70).any(|i| states.is_exec(i) && task_of(&trace, states, i).is_none()));
        // Every interval start and end and the cycle after each (inside an
        // interval, or inside the gap that follows one), and beyond both ends.
        let mut cuts: Vec<u64> = (0..70)
            .flat_map(|i| [states.start_cycles(i), states.end_cycles(i)])
            .flat_map(|t| [t, t + 1])
            .chain([0, 10_000])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let filters = [
            TaskFilter::new(),
            TaskFilter::new().with_task_type(trace.task_types()[1].id),
            TaskFilter::new().with_min_duration(u64::MAX),
        ];
        let pyramids = [2, 3, 5, 32].map(|fanout| pyramid_for(&trace, CpuId(0), fanout));
        let mut branches = [(0usize, 0usize); 4];
        for (k, &start) in cuts.iter().enumerate() {
            for &end in &cuts[k + 1..] {
                let iv = TimeInterval::from_cycles(start, end);
                // Without a pyramid: the truth, where it is cheap to state.
                let scan = Window::new(None, states, iv);
                assert!(!scan.reads_nodes());
                let tasks = filters.each_ref().map(|f| scan.predominant_task(&trace, f));
                for (filter, &task) in filters.iter().zip(&tasks) {
                    let truth = naive(&trace, states, iv, filter);
                    assert_eq!((scan.state_cycles(), task), truth, "{iv}, {filter:?}");
                }
                assert_eq!(tasks[2], None, "the last filter rejects every task");
                let (first, last) = overlap_range(states, iv);
                for (pyramid, (with_nodes, without)) in pyramids.iter().zip(&mut branches) {
                    let fanout = pyramid.fanout();
                    let window = Window::new(Some(pyramid), states, iv);
                    let at = format!("fanout {fanout}, {iv}");
                    // Nodes are read exactly when a whole level-0 node lies between
                    // the two edge intervals.
                    let whole =
                        (0..70 / fanout).any(|k| first < k * fanout && (k + 1) * fanout < last);
                    assert_eq!(window.reads_nodes(), whole, "{at}");
                    match whole {
                        true => *with_nodes += 1,
                        false => *without += 1,
                    }
                    assert_eq!(window.state_cycles(), scan.state_cycles(), "{at}");
                    assert_eq!(window.predominant_state(), scan.predominant_state(), "{at}");
                    for (filter, &task) in filters.iter().zip(&tasks) {
                        let got = window.predominant_task(&trace, filter);
                        assert_eq!(got, task, "{at}, {filter:?}");
                    }
                    assert_eq!(window.type_cycles(&trace), scan.type_cycles(&trace), "{at}");
                    assert_eq!(window.exec_stats(), scan.exec_stats(), "{at}");
                    for kind in [AccessKind::Read, AccessKind::Write] {
                        assert_eq!(
                            window.numa_bytes(&trace, &trace, kind),
                            scan.numa_bytes(&trace, &trace, kind),
                            "{at}, {kind:?}"
                        );
                    }
                }
            }
        }
        for (with_nodes, without) in branches {
            assert!(with_nodes > 0 && without > 0, "one branch went untested");
        }
        let whole = Window::new(None, states, trace.time_bounds());
        assert!(whole.predominant_task(&trace, &filters[0]).is_some());
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
