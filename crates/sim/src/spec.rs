//! Workload specifications: task types, memory regions, tasks and their dataflow
//! dependences.
//!
//! A [`WorkloadSpec`] is a machine-independent description of a dependent-task program:
//! which work-functions exist, which single-assignment memory regions are used to
//! exchange data, and which regions each task reads and writes. The dependence graph is
//! *derived* from the read/write sets — exactly like Aftermath reconstructs the task
//! graph from the memory accesses recorded in a trace (paper Section III-A).

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// A work-function of the application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTypeSpec {
    /// Name of the work-function.
    pub name: String,
    /// Address of the work-function in the (synthetic) application binary.
    pub symbol_addr: u64,
}

/// A single-assignment memory region used for inter-task data exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Size of the region in bytes.
    pub size: u64,
    /// Whether the region's pages are already resident before tracing starts.
    ///
    /// Pre-faulted regions model run-time-managed buffer pools (e.g. OpenStream stream
    /// buffers): their first write still determines the NUMA placement used for locality
    /// analysis, but they do not contribute page faults, kernel time or resident-set
    /// growth to the OS model.
    pub prefaulted: bool,
}

/// One task of the workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Index into [`WorkloadSpec::task_types`].
    pub task_type: usize,
    /// Pure compute cycles of the task's work-function (excluding memory and
    /// misprediction penalties, which the simulator adds).
    pub work_cycles: u64,
    /// Indices of the regions the task reads (its input dependences).
    pub reads: Vec<usize>,
    /// Indices of the regions the task writes (its output dependences).
    pub writes: Vec<usize>,
    /// Number of branch mispredictions incurred by the task's work-function.
    pub branch_mispredictions: u64,
    /// Number of last-level cache misses incurred by the task's work-function.
    pub cache_misses: u64,
}

/// A complete workload: the input to [`crate::engine::Simulator::run`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable workload name (e.g. `"seidel"`).
    pub name: String,
    /// Work-functions of the application.
    pub task_types: Vec<TaskTypeSpec>,
    /// Memory regions used for data exchange.
    pub regions: Vec<RegionSpec>,
    /// Tasks of the application.
    pub tasks: Vec<TaskSpec>,
}

impl WorkloadSpec {
    /// Creates an empty workload with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadSpec {
            name: name.into(),
            ..WorkloadSpec::default()
        }
    }

    /// Registers a task type and returns its index.
    pub fn add_task_type(&mut self, name: impl Into<String>, symbol_addr: u64) -> usize {
        self.task_types.push(TaskTypeSpec {
            name: name.into(),
            symbol_addr,
        });
        self.task_types.len() - 1
    }

    /// Registers a memory region of `size` bytes and returns its index.
    pub fn add_region(&mut self, size: u64) -> usize {
        self.regions.push(RegionSpec {
            size,
            prefaulted: false,
        });
        self.regions.len() - 1
    }

    /// Registers a pre-faulted memory region of `size` bytes and returns its index.
    ///
    /// See [`RegionSpec::prefaulted`] for the exact semantics.
    pub fn add_region_prefaulted(&mut self, size: u64) -> usize {
        self.regions.push(RegionSpec {
            size,
            prefaulted: true,
        });
        self.regions.len() - 1
    }

    /// Starts building a task of the given type with `work_cycles` of pure compute.
    ///
    /// The task is added to the workload when [`TaskBuilder::done`] is called.
    pub fn add_task(&mut self, task_type: usize, work_cycles: u64) -> TaskBuilder<'_> {
        TaskBuilder {
            spec: self,
            task: TaskSpec {
                task_type,
                work_cycles,
                reads: Vec::new(),
                writes: Vec::new(),
                branch_mispredictions: 0,
                cache_misses: 0,
            },
        }
    }

    /// Number of tasks in the workload.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Validates the workload and derives its dependence graph.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyWorkload`], [`SimError::UnknownTaskType`],
    /// [`SimError::UnknownRegion`], [`SimError::MultipleWriters`] or
    /// [`SimError::DependenceCycle`] when the specification is inconsistent.
    pub fn dependence_graph(&self) -> Result<DependenceGraph, SimError> {
        if self.tasks.is_empty() {
            return Err(SimError::EmptyWorkload);
        }
        let n = self.tasks.len();
        let mut writer_of: Vec<Option<usize>> = vec![None; self.regions.len()];

        for (i, task) in self.tasks.iter().enumerate() {
            if task.task_type >= self.task_types.len() {
                return Err(SimError::UnknownTaskType {
                    task: i,
                    task_type: task.task_type,
                });
            }
            for &r in task.reads.iter().chain(task.writes.iter()) {
                if r >= self.regions.len() {
                    return Err(SimError::UnknownRegion { task: i, region: r });
                }
            }
            for &r in &task.writes {
                match writer_of[r] {
                    None => writer_of[r] = Some(i),
                    Some(first) => {
                        return Err(SimError::MultipleWriters {
                            region: r,
                            first,
                            second: i,
                        })
                    }
                }
            }
        }

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, task) in self.tasks.iter().enumerate() {
            for &r in &task.reads {
                if let Some(w) = writer_of[r] {
                    if w != i && !preds[i].contains(&w) {
                        preds[i].push(w);
                        succs[w].push(i);
                    }
                }
            }
        }

        // Kahn's algorithm to detect cycles and compute a topological order.
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for &s in &succs[t] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if topo.len() != n {
            let task = indegree.iter().position(|&d| d > 0).unwrap_or(0);
            return Err(SimError::DependenceCycle { task });
        }

        Ok(DependenceGraph {
            preds,
            succs,
            writer_of_region: writer_of,
            topological_order: topo,
        })
    }
}

/// The dependence graph derived from a [`WorkloadSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceGraph {
    /// For each task, the tasks it depends on.
    pub preds: Vec<Vec<usize>>,
    /// For each task, the tasks depending on it.
    pub succs: Vec<Vec<usize>>,
    /// For each region, the task writing it (if any).
    pub writer_of_region: Vec<Option<usize>>,
    /// A topological order of the tasks.
    pub topological_order: Vec<usize>,
}

impl DependenceGraph {
    /// Number of tasks in the graph.
    pub fn num_tasks(&self) -> usize {
        self.preds.len()
    }

    /// Tasks without any input dependence (ready at program start).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.num_tasks())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }

    /// The depth of every task: the number of edges on the longest path from any root.
    ///
    /// This matches the paper's definition used for the available-parallelism metric
    /// (Figure 5).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.num_tasks()];
        for &t in &self.topological_order {
            for &p in &self.preds[t] {
                depth[t] = depth[t].max(depth[p] + 1);
            }
        }
        depth
    }

    /// Number of tasks at each depth (the available-parallelism profile).
    pub fn parallelism_profile(&self) -> Vec<usize> {
        let depths = self.depths();
        let max = depths.iter().copied().max().unwrap_or(0);
        let mut profile = vec![0usize; max + 1];
        for d in depths {
            profile[d] += 1;
        }
        profile
    }

    /// Total number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }
}

/// Builder returned by [`WorkloadSpec::add_task`].
///
/// The task is only added to the workload when [`TaskBuilder::done`] is called; dropping
/// the builder discards the task.
#[derive(Debug)]
pub struct TaskBuilder<'a> {
    spec: &'a mut WorkloadSpec,
    task: TaskSpec,
}

impl TaskBuilder<'_> {
    /// Adds input regions (read dependences).
    #[must_use]
    pub fn reads(mut self, regions: &[usize]) -> Self {
        self.task.reads.extend_from_slice(regions);
        self
    }

    /// Adds output regions (write dependences).
    #[must_use]
    pub fn writes(mut self, regions: &[usize]) -> Self {
        self.task.writes.extend_from_slice(regions);
        self
    }

    /// Sets the number of branch mispredictions the task incurs.
    #[must_use]
    pub fn mispredictions(mut self, count: u64) -> Self {
        self.task.branch_mispredictions = count;
        self
    }

    /// Sets the number of last-level cache misses the task incurs.
    #[must_use]
    pub fn cache_misses(mut self, count: u64) -> Self {
        self.task.cache_misses = count;
        self
    }

    /// Finalizes the task, adds it to the workload and returns its index.
    pub fn done(self) -> usize {
        self.spec.tasks.push(self.task);
        self.spec.tasks.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WorkloadSpec {
        // t0 -> t1, t2 -> t3
        let mut spec = WorkloadSpec::new("diamond");
        let ty = spec.add_task_type("w", 0);
        let r0 = spec.add_region(64);
        let r1 = spec.add_region(64);
        let r2 = spec.add_region(64);
        let r3 = spec.add_region(64);
        spec.add_task(ty, 100).writes(&[r0]).done();
        spec.add_task(ty, 100).reads(&[r0]).writes(&[r1]).done();
        spec.add_task(ty, 100).reads(&[r0]).writes(&[r2]).done();
        spec.add_task(ty, 100).reads(&[r1, r2]).writes(&[r3]).done();
        spec
    }

    #[test]
    fn diamond_dependences() {
        let g = diamond().dependence_graph().unwrap();
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.preds[3].len(), 2);
        assert_eq!(g.succs[0].len(), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.depths(), vec![0, 1, 1, 2]);
        assert_eq!(g.parallelism_profile(), vec![1, 2, 1]);
    }

    #[test]
    fn empty_workload_rejected() {
        let spec = WorkloadSpec::new("empty");
        assert!(matches!(
            spec.dependence_graph(),
            Err(SimError::EmptyWorkload)
        ));
    }

    #[test]
    fn unknown_region_rejected() {
        let mut spec = WorkloadSpec::new("bad");
        let ty = spec.add_task_type("w", 0);
        spec.add_task(ty, 10).reads(&[5]).done();
        assert!(matches!(
            spec.dependence_graph(),
            Err(SimError::UnknownRegion { task: 0, region: 5 })
        ));
    }

    #[test]
    fn unknown_task_type_rejected() {
        let mut spec = WorkloadSpec::new("bad");
        spec.add_task(3, 10).done();
        assert!(matches!(
            spec.dependence_graph(),
            Err(SimError::UnknownTaskType { .. })
        ));
    }

    #[test]
    fn multiple_writers_rejected() {
        let mut spec = WorkloadSpec::new("bad");
        let ty = spec.add_task_type("w", 0);
        let r = spec.add_region(64);
        spec.add_task(ty, 10).writes(&[r]).done();
        spec.add_task(ty, 10).writes(&[r]).done();
        assert!(matches!(
            spec.dependence_graph(),
            Err(SimError::MultipleWriters {
                region: 0,
                first: 0,
                second: 1
            })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut spec = WorkloadSpec::new("cycle");
        let ty = spec.add_task_type("w", 0);
        let r0 = spec.add_region(64);
        let r1 = spec.add_region(64);
        // t0 reads r1 (written by t1) and writes r0; t1 reads r0 and writes r1.
        spec.add_task(ty, 10).reads(&[r1]).writes(&[r0]).done();
        spec.add_task(ty, 10).reads(&[r0]).writes(&[r1]).done();
        assert!(matches!(
            spec.dependence_graph(),
            Err(SimError::DependenceCycle { .. })
        ));
    }

    #[test]
    fn self_read_does_not_create_self_edge() {
        let mut spec = WorkloadSpec::new("self");
        let ty = spec.add_task_type("w", 0);
        let r = spec.add_region(64);
        spec.add_task(ty, 10).reads(&[r]).writes(&[r]).done();
        let g = spec.dependence_graph().unwrap();
        assert!(g.preds[0].is_empty());
    }

    #[test]
    fn duplicate_dependences_are_collapsed() {
        let mut spec = WorkloadSpec::new("dup");
        let ty = spec.add_task_type("w", 0);
        let r0 = spec.add_region(64);
        let r1 = spec.add_region(64);
        spec.add_task(ty, 10).writes(&[r0, r1]).done();
        spec.add_task(ty, 10).reads(&[r0, r1]).done();
        let g = spec.dependence_graph().unwrap();
        assert_eq!(g.preds[1], vec![0]);
    }

    #[test]
    fn builder_sets_counters() {
        let mut spec = WorkloadSpec::new("ctr");
        let ty = spec.add_task_type("w", 0);
        let idx = spec
            .add_task(ty, 10)
            .mispredictions(77)
            .cache_misses(33)
            .done();
        assert_eq!(spec.tasks[idx].branch_mispredictions, 77);
        assert_eq!(spec.tasks[idx].cache_misses, 33);
        assert_eq!(spec.num_tasks(), 1);
    }

    #[test]
    fn topological_order_respects_dependences() {
        let g = diamond().dependence_graph().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 4];
            for (i, &t) in g.topological_order.iter().enumerate() {
                pos[t] = i;
            }
            pos
        };
        for (t, preds) in g.preds.iter().enumerate() {
            for &p in preds {
                assert!(pos[p] < pos[t]);
            }
        }
    }
}
