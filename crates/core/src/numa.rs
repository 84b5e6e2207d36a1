//! NUMA locality analyses (paper Section IV).
//!
//! These analyses attribute every memory access of a task to the NUMA node holding the
//! accessed region (looked up through the trace's memory-region table) and relate it to
//! the node of the CPU that executed the task:
//!
//! * [`dominant_read_node`] / [`dominant_write_node`] — the node providing most of the
//!   data a task reads/writes, which is what the NUMA read/write timeline modes colour
//!   by (Figures 14a–d),
//! * [`task_remote_fraction`] — the fraction of a task's accessed bytes that are remote,
//!   the quantity behind the NUMA heatmap mode (Figures 14e–f),
//! * [`IncidenceMatrix`] — the application-wide node-to-node communication matrix
//!   (Figure 15).
//!
//! Every fold is written once, generic over where a task's accesses and their nodes
//! come from ([`AccessSource`]): the per-task functions taking a `&Trace` search the
//! access and region tables, their `_from` forms take any source — a session passes
//! its access index ([`AnalysisSession::accesses`]), which answers by table — and
//! the session-level analyses read through the index themselves.

use aftermath_trace::{AccessKind, NumaNodeId, TaskId, TaskInstance, Trace};
use serde::{Deserialize, Serialize};

use crate::access_index::AccessSource;
use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::session::AnalysisSession;

/// Adds the bytes `task` accessed to `bytes`, indexed by the id of the node holding
/// the data — the one definition of per-node attribution. `kind = None` aggregates
/// reads and writes; accesses without a known placement, or placed on a node beyond
/// `bytes`, are ignored.
fn add_bytes_per_node<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: TaskId,
    kind: Option<AccessKind>,
    bytes: &mut [u64],
) {
    let accesses = trace.accesses();
    for row in source.rows_of(task) {
        if kind.is_some_and(|k| accesses.kind(row) != k) {
            continue;
        }
        if let Some(slot) = source
            .node_of_row(row)
            .and_then(|node| bytes.get_mut(node.0 as usize))
        {
            *slot += accesses.size(row);
        }
    }
}

/// Bytes accessed by `task`, grouped by the NUMA node holding the data.
///
/// `kind = None` aggregates reads and writes. Accesses to regions without a known
/// placement are ignored.
pub fn bytes_per_node(
    trace: &Trace,
    task: TaskId,
    kind: Option<AccessKind>,
) -> Vec<(NumaNodeId, u64)> {
    bytes_per_node_from(trace, trace, task, kind)
}

/// [`bytes_per_node`] over any [`AccessSource`] of `trace` (a session's
/// [`AnalysisSession::accesses`] answers by table instead of by search).
pub fn bytes_per_node_from<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: TaskId,
    kind: Option<AccessKind>,
) -> Vec<(NumaNodeId, u64)> {
    let mut bytes = vec![0u64; trace.topology().num_nodes()];
    add_bytes_per_node(trace, source, task, kind, &mut bytes);
    bytes
        .into_iter()
        .enumerate()
        .filter(|(_, b)| *b > 0)
        .map(|(i, b)| (NumaNodeId(i as u32), b))
        .collect()
}

/// The node holding most of the bytes `task` accessed with `kind`; among equals the
/// highest node id wins. `scratch` is the per-node accumulator, reused across calls
/// so that a timeline frame allocates it once instead of once per cell.
pub fn dominant_node_from<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: TaskId,
    kind: AccessKind,
    scratch: &mut Vec<u64>,
) -> Option<NumaNodeId> {
    scratch.clear();
    scratch.resize(trace.topology().num_nodes(), 0);
    add_bytes_per_node(trace, source, task, Some(kind), scratch);
    let mut best: Option<(usize, u64)> = None;
    for (node, &bytes) in scratch.iter().enumerate() {
        if bytes > 0 && best.is_none_or(|(_, most)| bytes >= most) {
            best = Some((node, bytes));
        }
    }
    best.map(|(node, _)| NumaNodeId(node as u32))
}

/// The NUMA node containing the largest fraction of the data read by `task`
/// (the colour of the task in NUMA read-map mode), or `None` when the task reads nothing
/// with a known placement.
pub fn dominant_read_node(trace: &Trace, task: TaskId) -> Option<NumaNodeId> {
    dominant_node_from(trace, trace, task, AccessKind::Read, &mut Vec::new())
}

/// The NUMA node receiving the largest fraction of the data written by `task`.
pub fn dominant_write_node(trace: &Trace, task: TaskId) -> Option<NumaNodeId> {
    dominant_node_from(trace, trace, task, AccessKind::Write, &mut Vec::new())
}

/// `(local, remote)` bytes accessed by `task` relative to the node of the CPU that
/// executed it; `None` when that CPU has no node. Accesses without a known
/// placement count for neither.
fn local_remote_bytes<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: &TaskInstance,
) -> Option<(u64, u64)> {
    let my_node = trace.topology().node_of(task.cpu)?;
    let accesses = trace.accesses();
    let (mut local, mut remote) = (0u64, 0u64);
    for row in source.rows_of(task.id) {
        match source.node_of_row(row) {
            Some(node) if node == my_node => local += accesses.size(row),
            Some(_) => remote += accesses.size(row),
            None => {}
        }
    }
    Some((local, remote))
}

/// Fraction of the bytes accessed by `task` (reads and writes) that reside on a node
/// different from the node of the CPU executing the task. Returns `None` when the task
/// has no attributable accesses.
pub fn task_remote_fraction(trace: &Trace, task: &TaskInstance) -> Option<f64> {
    task_remote_fraction_from(trace, trace, task)
}

/// [`task_remote_fraction`] over any [`AccessSource`] of `trace`.
pub fn task_remote_fraction_from<S: AccessSource + ?Sized>(
    trace: &Trace,
    source: &S,
    task: &TaskInstance,
) -> Option<f64> {
    let (local, remote) = local_remote_bytes(trace, source, task)?;
    let total = local + remote;
    (total > 0).then(|| remote as f64 / total as f64)
}

/// Application-wide remote-access fraction over the tasks accepted by `filter`.
pub fn remote_access_fraction(session: &AnalysisSession<'_>, filter: &TaskFilter) -> f64 {
    let trace = session.trace();
    let source = session.accesses();
    let (mut local, mut remote) = (0u64, 0u64);
    for task in filter.filter_tasks(trace) {
        if let Some((l, r)) = local_remote_bytes(trace, &source, task) {
            local += l;
            remote += r;
        }
    }
    let total = local + remote;
    if total == 0 {
        0.0
    } else {
        remote as f64 / total as f64
    }
}

/// The node-to-node communication incidence matrix of Figure 15.
///
/// Entry `(from, to)` holds the number of bytes moved from memory on node `from` to a
/// task executing on node `to` (reads) or from a task on node `to` into memory on node
/// `from`'s row... more precisely: for reads the source is the data's node and the
/// destination the executing CPU's node; for writes the source is the executing CPU's
/// node and the destination the data's node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidenceMatrix {
    num_nodes: usize,
    bytes: Vec<u64>,
}

impl IncidenceMatrix {
    /// Builds the incidence matrix over the tasks accepted by `filter`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::MissingData`] when the trace contains no memory accesses
    /// (the NUMA analyses are unavailable for such traces).
    pub fn build(
        session: &AnalysisSession<'_>,
        filter: &TaskFilter,
    ) -> Result<Self, AnalysisError> {
        let trace = session.trace();
        if trace.accesses().is_empty() {
            return Err(AnalysisError::MissingData(
                "trace contains no memory accesses",
            ));
        }
        let n = trace.topology().num_nodes();
        let source = session.accesses();
        let accesses = trace.accesses();
        let mut bytes = vec![0u64; n * n];
        // Only nodes of the topology have a row and a column.
        let in_matrix = |node: NumaNodeId| (node.0 as usize) < n;
        for task in filter.filter_tasks(trace) {
            let Some(cpu_node) = trace.topology().node_of(task.cpu).filter(|&c| in_matrix(c))
            else {
                continue;
            };
            for row in source.rows_of(task.id) {
                let Some(data_node) = source.node_of_row(row).filter(|&d| in_matrix(d)) else {
                    continue;
                };
                let (from, to) = match accesses.kind(row) {
                    AccessKind::Read => (data_node, cpu_node),
                    AccessKind::Write => (cpu_node, data_node),
                };
                bytes[from.0 as usize * n + to.0 as usize] += accesses.size(row);
            }
        }
        Ok(IncidenceMatrix {
            num_nodes: n,
            bytes,
        })
    }

    /// Number of NUMA nodes (the matrix is `num_nodes × num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Bytes moved from `from` to `to`.
    pub fn get(&self, from: NumaNodeId, to: NumaNodeId) -> u64 {
        self.bytes
            .get(from.0 as usize * self.num_nodes + to.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Total bytes in the matrix.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The matrix normalized so that all entries sum to 1 (all zeros when empty).
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.total_bytes();
        if total == 0 {
            return vec![0.0; self.bytes.len()];
        }
        self.bytes
            .iter()
            .map(|&b| b as f64 / total as f64)
            .collect()
    }

    /// Fraction of all traffic that stays on the diagonal (local accesses).
    ///
    /// A value close to 1 is the "sharp diagonal" of the optimized execution in
    /// Figure 15b; a value close to `1 / num_nodes` means uniform all-to-all traffic.
    pub fn diagonal_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.num_nodes)
            .map(|i| self.bytes[i * self.num_nodes + i])
            .sum();
        diag as f64 / total as f64
    }

    /// The largest off-diagonal entry relative to the largest diagonal entry, a measure
    /// of how visible remote traffic is in the rendered matrix.
    pub fn max_offdiagonal_ratio(&self) -> f64 {
        let max_diag = (0..self.num_nodes)
            .map(|i| self.bytes[i * self.num_nodes + i])
            .max()
            .unwrap_or(0);
        let max_off = (0..self.num_nodes)
            .flat_map(|i| (0..self.num_nodes).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
            .map(|(i, j)| self.bytes[i * self.num_nodes + j])
            .max()
            .unwrap_or(0);
        if max_diag == 0 {
            if max_off == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            max_off as f64 / max_diag as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace, trace_without_accesses};
    use aftermath_trace::TaskId;

    #[test]
    fn per_task_node_attribution() {
        let trace = diamond_trace();
        // t3 runs on cpu0 (node 0), reads r1 (node 0) and r2 (node 1), writes r3 (node 1).
        let t3 = TaskId(3);
        let reads = bytes_per_node(&trace, t3, Some(AccessKind::Read));
        assert_eq!(reads.len(), 2);
        assert_eq!(dominant_write_node(&trace, t3), Some(NumaNodeId(1)));
        // Equal read bytes from both nodes: the dominant read node is either, but must be
        // deterministic (max_by_key returns the last maximum).
        assert!(dominant_read_node(&trace, t3).is_some());
        // Remote fraction of t3: node 0 local; r2+r3 (512 B) remote of 768 B total.
        let task = trace.task(t3).unwrap();
        let f = task_remote_fraction(&trace, task).unwrap();
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn task_without_accesses_has_no_locality() {
        let trace = trace_without_accesses();
        let task = &trace.tasks()[0];
        assert!(task_remote_fraction(&trace, task).is_none());
        assert!(dominant_read_node(&trace, task.id).is_none());
    }

    #[test]
    fn incidence_matrix_of_diamond() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let m = IncidenceMatrix::build(&session, &TaskFilter::new()).unwrap();
        assert_eq!(m.num_nodes(), 2);
        assert_eq!(m.total_bytes(), 8 * 256);
        // Reads of r0 (node0) by t1 (cpu1/node0) and t2 (cpu2/node1).
        assert!(m.get(NumaNodeId(0), NumaNodeId(0)) > 0);
        assert!(m.get(NumaNodeId(0), NumaNodeId(1)) > 0);
        let normalized = m.normalized();
        let sum: f64 = normalized.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(m.diagonal_fraction() > 0.0 && m.diagonal_fraction() < 1.0);
    }

    #[test]
    fn incidence_matrix_requires_accesses() {
        let trace = trace_without_accesses();
        let session = AnalysisSession::new(&trace);
        assert!(matches!(
            IncidenceMatrix::build(&session, &TaskFilter::new()),
            Err(AnalysisError::MissingData(_))
        ));
    }

    #[test]
    fn simulated_trace_locality_is_consistent() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let overall = remote_access_fraction(&session, &TaskFilter::new());
        assert!((0.0..=1.0).contains(&overall));
        let m = IncidenceMatrix::build(&session, &TaskFilter::new()).unwrap();
        // The diagonal fraction and the remote fraction must be complementary-ish:
        // diagonal ≈ 1 - remote (both computed over the same accesses).
        assert!((m.diagonal_fraction() - (1.0 - overall)).abs() < 1e-9);
    }
}
