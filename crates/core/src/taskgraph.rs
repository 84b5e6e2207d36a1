//! Task-graph reconstruction from the memory accesses recorded in a trace
//! (paper Section III-A).
//!
//! The trace does not store dependence edges explicitly. Instead, every task records the
//! memory regions it reads and writes; a dependence exists from the task that wrote a
//! region to every task that reads it. From the reconstructed graph Aftermath derives
//! the *depth* of every task (longest path from any root) and the *available
//! parallelism* at each depth — the metric used in the paper's Figure 5 to explain the
//! idle phases of seidel.

use std::collections::HashMap;
use std::fmt::Write as _;

use aftermath_trace::{AccessKind, TaskId, Trace};

use crate::error::AnalysisError;

/// The reconstructed task graph of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    depths: Vec<u32>,
}

impl TaskGraph {
    /// Reconstructs the task graph of `trace` from its memory accesses.
    ///
    /// Traces without memory accesses produce a graph without edges (every task is a
    /// root at depth 0), mirroring the incremental-trace philosophy of the paper: the
    /// analysis degrades instead of failing.
    pub fn reconstruct(trace: &Trace) -> Self {
        let n = trace.tasks().len();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];

        // Group accesses by region.
        let mut writers: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut readers: HashMap<u64, Vec<u32>> = HashMap::new();
        for access in trace.accesses() {
            let Some(region) = trace.region_of_addr(access.addr) else {
                continue;
            };
            let entry = match access.kind {
                AccessKind::Write => writers.entry(region.id.0).or_default(),
                AccessKind::Read => readers.entry(region.id.0).or_default(),
            };
            let task = access.task.0 as u32;
            if entry.last() != Some(&task) {
                entry.push(task);
            }
        }

        for (region, readers_of_region) in &readers {
            let Some(region_writers) = writers.get(region) else {
                continue;
            };
            // Sort writers by execution start so that each reader depends on the last
            // writer that started before it (single-writer regions have exactly one).
            let starts = trace.tasks().starts();
            let mut region_writers = region_writers.clone();
            region_writers.sort_by_key(|&w| starts[w as usize]);
            for &reader in readers_of_region {
                let reader_start = starts[reader as usize];
                let writer = region_writers
                    .iter()
                    .rev()
                    .find(|&&w| starts[w as usize] <= reader_start)
                    .or_else(|| region_writers.first())
                    .copied();
                if let Some(writer) = writer {
                    if writer != reader && !preds[reader as usize].contains(&writer) {
                        preds[reader as usize].push(writer);
                        succs[writer as usize].push(reader);
                    }
                }
            }
        }

        let depths = compute_depths(&preds, &succs, trace);
        TaskGraph {
            preds,
            succs,
            depths,
        }
    }

    /// Number of tasks (nodes) in the graph.
    pub fn num_tasks(&self) -> usize {
        self.preds.len()
    }

    /// Number of dependence edges in the graph.
    pub fn num_edges(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// The tasks `task` depends on.
    pub fn predecessors(&self, task: TaskId) -> &[u32] {
        self.preds
            .get(task.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The tasks depending on `task`.
    pub fn successors(&self, task: TaskId) -> &[u32] {
        self.succs
            .get(task.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Tasks without input dependences.
    pub fn roots(&self) -> Vec<TaskId> {
        self.preds
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_empty())
            .map(|(i, _)| TaskId(i as u64))
            .collect()
    }

    /// The depth of a task: the number of edges on the longest path from any root.
    pub fn depth(&self, task: TaskId) -> Option<usize> {
        self.depths.get(task.0 as usize).map(|&d| d as usize)
    }

    /// Depths of all tasks, indexed by task id.
    pub fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// The maximum depth of the graph (0 for an empty or edge-less graph).
    pub fn max_depth(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0) as usize
    }

    /// The available parallelism at every depth: `profile[d]` is the number of tasks at
    /// depth `d` (the paper's Figure 5).
    pub fn parallelism_profile(&self) -> Vec<usize> {
        let mut profile = vec![0usize; self.max_depth() + 1];
        if self.depths.is_empty() {
            return Vec::new();
        }
        for &d in &self.depths {
            profile[d as usize] += 1;
        }
        profile
    }

    /// Length of the critical path in cycles: the largest sum of task durations along any
    /// dependence chain.
    pub fn critical_path_cycles(&self, trace: &Trace) -> u64 {
        let n = self.num_tasks();
        let mut finish = vec![0u64; n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.depths[i]);
        let mut best = 0;
        for i in order {
            let start: u64 = self.preds[i]
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            finish[i] = start + trace.tasks().get(i).duration();
            best = best.max(finish[i]);
        }
        best
    }

    /// Exports a subset of the task graph in GraphViz DOT format.
    ///
    /// Only tasks whose depth lies in `[min_depth, max_depth]` are emitted; edges whose
    /// endpoints are both included are kept. Node labels show the task type and duration.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `min_depth > max_depth`.
    pub fn to_dot(
        &self,
        trace: &Trace,
        min_depth: usize,
        max_depth: usize,
    ) -> Result<String, AnalysisError> {
        if min_depth > max_depth {
            return Err(AnalysisError::InvalidParameter(format!(
                "min_depth {min_depth} exceeds max_depth {max_depth}"
            )));
        }
        let mut out = String::from("digraph taskgraph {\n  rankdir=TB;\n");
        let included = |i: usize| {
            let d = self.depths[i] as usize;
            d >= min_depth && d <= max_depth
        };
        for (i, task) in trace.tasks().iter().enumerate() {
            if !included(i) {
                continue;
            }
            let ty = trace
                .task_type(task.task_type)
                .map(|t| t.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "  t{} [label=\"{}#{}\\n{}cy\"];",
                i,
                ty,
                i,
                task.duration()
            );
        }
        for (i, succs) in self.succs.iter().enumerate() {
            if !included(i) {
                continue;
            }
            for &s in succs {
                if included(s as usize) {
                    let _ = writeln!(out, "  t{} -> t{};", i, s);
                }
            }
        }
        out.push_str("}\n");
        Ok(out)
    }
}

/// Longest-path depths via Kahn's algorithm; tasks stuck on a cycle (which a well-formed
/// trace never produces) fall back to the depth of their earliest processed predecessor.
fn compute_depths(preds: &[Vec<u32>], succs: &[Vec<u32>], trace: &Trace) -> Vec<u32> {
    let n = preds.len();
    let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut depths = vec![0u32; n];
    let mut queue: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut head = 0;
    let mut processed = 0;
    while head < queue.len() {
        let t = queue[head];
        head += 1;
        processed += 1;
        for &s in &succs[t] {
            let s = s as usize;
            depths[s] = depths[s].max(depths[t] + 1);
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    if processed < n {
        // Defensive fallback: order remaining tasks by execution start.
        let mut rest: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
        rest.sort_by_key(|&i| trace.tasks().starts()[i]);
        for t in rest {
            for &p in &preds[t] {
                depths[t] = depths[t].max(depths[p as usize] + 1);
            }
        }
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace};

    #[test]
    fn diamond_graph_structure() {
        let trace = diamond_trace();
        let graph = TaskGraph::reconstruct(&trace);
        assert_eq!(graph.num_tasks(), 4);
        assert_eq!(graph.num_edges(), 4);
        assert_eq!(graph.roots(), vec![TaskId(0)]);
        assert_eq!(graph.depth(TaskId(0)), Some(0));
        assert_eq!(graph.depth(TaskId(1)), Some(1));
        assert_eq!(graph.depth(TaskId(2)), Some(1));
        assert_eq!(graph.depth(TaskId(3)), Some(2));
        assert_eq!(graph.parallelism_profile(), vec![1, 2, 1]);
        assert_eq!(graph.max_depth(), 2);
    }

    #[test]
    fn critical_path_of_diamond() {
        let trace = diamond_trace();
        let graph = TaskGraph::reconstruct(&trace);
        // Durations in the fixture are 100 each: critical path = 3 tasks.
        assert_eq!(graph.critical_path_cycles(&trace), 300);
    }

    #[test]
    fn simulated_trace_graph_matches_workload_structure() {
        let trace = small_sim_trace();
        let graph = TaskGraph::reconstruct(&trace);
        assert_eq!(graph.num_tasks(), trace.tasks().len());
        assert!(graph.num_edges() > 0, "seidel has dependences");
        // Init tasks (type seidel_init) must all be roots.
        let init_ty = trace
            .task_types()
            .iter()
            .find(|t| t.name == "seidel_init")
            .unwrap()
            .id;
        for task in trace.tasks() {
            if task.task_type == init_ty {
                assert_eq!(graph.depth(task.id), Some(0), "init task not at depth 0");
            } else {
                assert!(graph.depth(task.id).unwrap() > 0);
            }
        }
        // Parallelism profile sums to the task count.
        let total: usize = graph.parallelism_profile().iter().sum();
        assert_eq!(total, graph.num_tasks());
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let trace = diamond_trace();
        let graph = TaskGraph::reconstruct(&trace);
        let dot = graph.to_dot(&trace, 0, 10).unwrap();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("t2 -> t3;"));
        // Restricting the depth range drops nodes.
        let partial = graph.to_dot(&trace, 0, 0).unwrap();
        assert!(partial.contains("t0 ["));
        assert!(!partial.contains("t3 ["));
        assert!(graph.to_dot(&trace, 3, 1).is_err());
    }

    #[test]
    fn trace_without_accesses_yields_edgeless_graph() {
        let trace = crate::testutil::trace_without_accesses();
        let graph = TaskGraph::reconstruct(&trace);
        assert_eq!(graph.num_edges(), 0);
        assert!(graph.depths().iter().all(|&d| d == 0));
    }
}
