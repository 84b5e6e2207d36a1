//! Task filters (the paper's filter panel, Section II-A item 3).
//!
//! Filters restrict which tasks contribute to the timeline, the statistics panel and
//! exported data: only tasks of certain types, tasks whose duration falls in a range,
//! tasks executing on certain CPUs, inside a time interval, or reading/writing specific
//! NUMA nodes. A [`TaskFilter`] combines any subset of these criteria conjunctively.

use std::collections::HashSet;

use aftermath_trace::{
    AccessKind, CpuId, NumaNodeId, TaskInstance, TaskTypeId, TimeInterval, Trace,
};

/// A conjunctive filter over task instances.
///
/// # Examples
///
/// ```rust
/// use aftermath_core::TaskFilter;
/// use aftermath_trace::TaskTypeId;
///
/// let filter = TaskFilter::new()
///     .with_task_type(TaskTypeId(0))
///     .with_min_duration(1_000_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskFilter {
    task_types: Option<HashSet<TaskTypeId>>,
    cpus: Option<HashSet<CpuId>>,
    min_duration: Option<u64>,
    max_duration: Option<u64>,
    interval: Option<TimeInterval>,
    reads_node: Option<NumaNodeId>,
    writes_node: Option<NumaNodeId>,
}

impl TaskFilter {
    /// Creates a filter that accepts every task.
    pub fn new() -> Self {
        TaskFilter::default()
    }

    /// A filter restricting any analysis to the region of a detected anomaly: tasks
    /// overlapping the anomaly's time interval and — for task-attributed anomalies —
    /// executing on the anomaly's CPUs.
    ///
    /// Worker-level anomalies (idle phases) name the CPUs that sat *idle*, which by
    /// construction ran nothing during the phase; for those the filter restricts by
    /// time only, selecting the tasks surrounding the phase.
    ///
    /// This is the bridge from the automatic detection engine
    /// ([`crate::anomaly`]) back into the interactive analyses: statistics,
    /// histograms, exports and timeline modes can all be re-focused on a finding.
    pub fn from_anomaly(anomaly: &crate::anomaly::Anomaly) -> Self {
        let mut filter = TaskFilter::new().with_interval(anomaly.interval);
        if !anomaly.tasks.is_empty() {
            for &cpu in &anomaly.cpus {
                filter = filter.with_cpu(cpu);
            }
        }
        filter
    }

    /// Restricts to tasks of the given type (may be called repeatedly to allow several).
    #[must_use]
    pub fn with_task_type(mut self, ty: TaskTypeId) -> Self {
        self.task_types.get_or_insert_with(HashSet::new).insert(ty);
        self
    }

    /// Restricts to tasks executed on the given CPU (repeatable).
    #[must_use]
    pub fn with_cpu(mut self, cpu: CpuId) -> Self {
        self.cpus.get_or_insert_with(HashSet::new).insert(cpu);
        self
    }

    /// Restricts to tasks lasting at least `cycles`.
    #[must_use]
    pub fn with_min_duration(mut self, cycles: u64) -> Self {
        self.min_duration = Some(cycles);
        self
    }

    /// Restricts to tasks lasting at most `cycles`.
    #[must_use]
    pub fn with_max_duration(mut self, cycles: u64) -> Self {
        self.max_duration = Some(cycles);
        self
    }

    /// Restricts to tasks whose execution overlaps `interval`.
    #[must_use]
    pub fn with_interval(mut self, interval: TimeInterval) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Restricts to tasks that read data residing on `node`.
    #[must_use]
    pub fn with_reads_from_node(mut self, node: NumaNodeId) -> Self {
        self.reads_node = Some(node);
        self
    }

    /// Restricts to tasks that write data residing on `node`.
    #[must_use]
    pub fn with_writes_to_node(mut self, node: NumaNodeId) -> Self {
        self.writes_node = Some(node);
        self
    }

    /// Whether the filter accepts every task (no criteria set).
    pub fn is_empty(&self) -> bool {
        *self == TaskFilter::default()
    }

    /// The task types this filter is restricted to, or `None` when every type is
    /// admissible. The aggregation pyramid uses this to prune whole subtrees whose
    /// task types are all rejected.
    pub fn allowed_task_types(&self) -> Option<&HashSet<TaskTypeId>> {
        self.task_types.as_ref()
    }

    /// Whether `task` satisfies every configured criterion.
    pub fn matches(&self, trace: &Trace, task: &TaskInstance) -> bool {
        if let Some(types) = &self.task_types {
            if !types.contains(&task.task_type) {
                return false;
            }
        }
        if let Some(cpus) = &self.cpus {
            if !cpus.contains(&task.cpu) {
                return false;
            }
        }
        if let Some(min) = self.min_duration {
            if task.duration() < min {
                return false;
            }
        }
        if let Some(max) = self.max_duration {
            if task.duration() > max {
                return false;
            }
        }
        if let Some(interval) = self.interval {
            if !task.execution.overlaps(&interval) {
                return false;
            }
        }
        if let Some(node) = self.reads_node {
            if !self.accesses_node(trace, task, node, AccessKind::Read) {
                return false;
            }
        }
        if let Some(node) = self.writes_node {
            if !self.accesses_node(trace, task, node, AccessKind::Write) {
                return false;
            }
        }
        true
    }

    /// Whether the filter reads the access table: a reads-node or a
    /// writes-node criterion is set.
    pub(crate) fn reads_accesses(&self) -> bool {
        self.reads_node.is_some() || self.writes_node.is_some()
    }

    fn accesses_node(
        &self,
        trace: &Trace,
        task: &TaskInstance,
        node: NumaNodeId,
        kind: AccessKind,
    ) -> bool {
        trace
            .accesses_of_task(task.id)
            .iter()
            .any(|a| a.kind == kind && trace.node_of_addr(a.addr) == Some(node))
    }

    /// Iterates over the tasks of `trace` accepted by this filter.
    pub fn filter_tasks<'a>(&'a self, trace: &'a Trace) -> impl Iterator<Item = TaskInstance> + 'a {
        trace.tasks().iter().filter(move |t| self.matches(trace, t))
    }

    /// Counts the tasks of `trace` accepted by this filter.
    pub fn count_matches(&self, trace: &Trace) -> usize {
        self.filter_tasks(trace).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace};

    #[test]
    fn empty_filter_accepts_all() {
        let trace = diamond_trace();
        let f = TaskFilter::new();
        assert!(f.is_empty());
        assert_eq!(f.count_matches(&trace), trace.tasks().len());
    }

    #[test]
    fn duration_range() {
        let trace = small_sim_trace();
        let min = trace.tasks().iter().map(|t| t.duration()).min().unwrap();
        let max = trace.tasks().iter().map(|t| t.duration()).max().unwrap();
        assert!(max > min);
        let f = TaskFilter::new().with_min_duration(max);
        assert!(f.count_matches(&trace) >= 1);
        assert!(f.count_matches(&trace) < trace.tasks().len());
        let none = TaskFilter::new().with_min_duration(max + 1);
        assert_eq!(none.count_matches(&trace), 0);
        let upper = TaskFilter::new().with_max_duration(min);
        assert!(upper.count_matches(&trace) >= 1);
    }

    #[test]
    fn type_and_cpu_filters() {
        let trace = small_sim_trace();
        let init_ty = trace
            .task_types()
            .iter()
            .find(|t| t.name == "seidel_init")
            .unwrap()
            .id;
        let f = TaskFilter::new().with_task_type(init_ty);
        assert_eq!(f.count_matches(&trace), 16);
        let cpu0 = TaskFilter::new().with_cpu(CpuId(0));
        let per_cpu_total: usize = trace
            .topology()
            .cpu_ids()
            .map(|c| TaskFilter::new().with_cpu(c).count_matches(&trace))
            .sum();
        assert_eq!(per_cpu_total, trace.tasks().len());
        assert!(cpu0.count_matches(&trace) <= trace.tasks().len());
    }

    #[test]
    fn interval_filter() {
        let trace = diamond_trace();
        let f = TaskFilter::new().with_interval(TimeInterval::from_cycles(0, 100));
        assert_eq!(f.count_matches(&trace), 1);
        let f = TaskFilter::new().with_interval(TimeInterval::from_cycles(0, 150));
        assert_eq!(f.count_matches(&trace), 3);
    }

    #[test]
    fn numa_node_filters() {
        let trace = diamond_trace();
        // t0 writes region on node 0, t2 writes region on node 1, t3 writes node 1.
        let writes_node1 = TaskFilter::new().with_writes_to_node(NumaNodeId(1));
        assert_eq!(writes_node1.count_matches(&trace), 2);
        let reads_node0 = TaskFilter::new().with_reads_from_node(NumaNodeId(0));
        // t1 and t2 read r0 (node 0); t3 reads r1 (node 0) and r2 (node 1).
        assert_eq!(reads_node0.count_matches(&trace), 3);
    }

    #[test]
    fn conjunction_of_criteria() {
        let trace = diamond_trace();
        let f = TaskFilter::new()
            .with_writes_to_node(NumaNodeId(1))
            .with_cpu(CpuId(2));
        assert_eq!(f.count_matches(&trace), 1);
        assert!(!f.is_empty());
    }
}
