//! Task types (work-functions) and task instances.

use crate::ids::{CpuId, TaskId, TaskTypeId, TimeInterval, Timestamp};
use serde::{Deserialize, Serialize};

/// A task type: one work-function of the application.
///
/// In the paper's typemap mode, every task type gets its own color; the symbol address
/// links the type back to the application's debug symbols (Section VI-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskType {
    /// Identifier referenced by [`TaskInstance::task_type`].
    pub id: TaskTypeId,
    /// Human-readable name of the work-function (e.g. `"seidel_block"`).
    pub name: String,
    /// Address of the work-function in the application binary (for symbol lookup).
    pub symbol_addr: u64,
}

impl TaskType {
    /// Creates a new task type.
    pub fn new(id: TaskTypeId, name: impl Into<String>, symbol_addr: u64) -> Self {
        TaskType {
            id,
            name: name.into(),
            symbol_addr,
        }
    }
}

/// One dynamic execution of a work-function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskInstance {
    /// Unique identifier of this task instance.
    pub id: TaskId,
    /// The work-function this task executes.
    pub task_type: TaskTypeId,
    /// The CPU the task was executed on.
    pub cpu: CpuId,
    /// The CPU the task was created on (differs from `cpu` when the task was stolen).
    pub creator_cpu: CpuId,
    /// When the task was created.
    pub creation: Timestamp,
    /// The execution interval `[start, end)` of the task's work-function.
    pub execution: TimeInterval,
}

impl TaskInstance {
    /// Creates a new task instance.
    pub fn new(
        id: TaskId,
        task_type: TaskTypeId,
        cpu: CpuId,
        creator_cpu: CpuId,
        creation: Timestamp,
        execution: TimeInterval,
    ) -> Self {
        TaskInstance {
            id,
            task_type,
            cpu,
            creator_cpu,
            creation,
            execution,
        }
    }

    /// Execution duration of the task in cycles.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.execution.duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_type_new() {
        let ty = TaskType::new(TaskTypeId(1), "kmeans_block", 0xdead_beef);
        assert_eq!(ty.name, "kmeans_block");
        assert_eq!(ty.symbol_addr, 0xdead_beef);
    }

    #[test]
    fn task_instance_duration_and_migration() {
        let t = TaskInstance::new(
            TaskId(5),
            TaskTypeId(1),
            CpuId(2),
            CpuId(0),
            Timestamp(50),
            TimeInterval::from_cycles(100, 400),
        );
        assert_eq!(t.duration(), 300);
        // Run on CPU 2, created on CPU 0: a migrated task.
        assert_eq!((t.cpu, t.creator_cpu), (CpuId(2), CpuId(0)));
    }
}
