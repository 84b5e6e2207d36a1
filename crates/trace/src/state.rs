//! Worker states and state intervals (the timeline's default "state mode" data).

use crate::ids::{CpuId, TaskId, TimeInterval};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The activity a worker thread is engaged in during a [`StateInterval`].
///
/// These correspond to the run-time states described in the paper's Section II-B:
/// task execution, task creation, broadcasts, synchronization, computational load
/// balancing (work-stealing) and idling.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[repr(u8)]
pub enum WorkerState {
    /// The worker executes the work-function of a task.
    TaskExecution = 0,
    /// The worker is idle and searching for work (engaged in work-stealing).
    #[default]
    Idle = 1,
    /// The worker creates new tasks (allocation of task frames, dependence registration).
    TaskCreation = 2,
    /// The worker broadcasts data to other workers.
    Broadcast = 3,
    /// The worker waits on or participates in a synchronization (barrier, taskwait).
    Synchronization = 4,
    /// The worker performs computational load balancing (migrating a stolen task).
    LoadBalancing = 5,
    /// The worker executes run-time bookkeeping not covered by the other states.
    RuntimeOverhead = 6,
    /// The worker performs start-up initialization of the run-time.
    Startup = 7,
    /// The worker performs shutdown/teardown of the run-time.
    Shutdown = 8,
}

impl WorkerState {
    /// All worker states, in discriminant order.
    pub const ALL: [WorkerState; 9] = [
        WorkerState::TaskExecution,
        WorkerState::Idle,
        WorkerState::TaskCreation,
        WorkerState::Broadcast,
        WorkerState::Synchronization,
        WorkerState::LoadBalancing,
        WorkerState::RuntimeOverhead,
        WorkerState::Startup,
        WorkerState::Shutdown,
    ];

    /// Number of distinct worker states.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable numeric index of the state (usable as an array index).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Converts a numeric index back into a state, if valid.
    pub fn from_index(idx: usize) -> Option<WorkerState> {
        Self::ALL.get(idx).copied()
    }

    /// Short human-readable name of the state.
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::TaskExecution => "task-execution",
            WorkerState::Idle => "idle",
            WorkerState::TaskCreation => "task-creation",
            WorkerState::Broadcast => "broadcast",
            WorkerState::Synchronization => "synchronization",
            WorkerState::LoadBalancing => "load-balancing",
            WorkerState::RuntimeOverhead => "runtime-overhead",
            WorkerState::Startup => "startup",
            WorkerState::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for WorkerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A contiguous interval during which a worker stayed in a single [`WorkerState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateInterval {
    /// The CPU/worker this interval belongs to.
    pub cpu: CpuId,
    /// The state of the worker during the interval.
    pub state: WorkerState,
    /// The time span of the interval.
    pub interval: TimeInterval,
    /// The task being executed, for [`WorkerState::TaskExecution`] intervals.
    pub task: Option<TaskId>,
}

impl StateInterval {
    /// Creates a new state interval.
    pub fn new(
        cpu: CpuId,
        state: WorkerState,
        interval: TimeInterval,
        task: Option<TaskId>,
    ) -> Self {
        StateInterval {
            cpu,
            state,
            interval,
            task,
        }
    }

    /// Duration of the interval in cycles.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.interval.duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Timestamp;

    #[test]
    fn state_index_roundtrip() {
        for (i, s) in WorkerState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(WorkerState::from_index(i), Some(*s));
        }
        assert_eq!(WorkerState::from_index(WorkerState::COUNT), None);
    }

    #[test]
    fn state_names_are_unique() {
        let mut names: Vec<_> = WorkerState::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WorkerState::COUNT);
    }

    #[test]
    fn state_interval_duration() {
        let si = StateInterval::new(
            CpuId(1),
            WorkerState::TaskExecution,
            TimeInterval::new(Timestamp(10), Timestamp(110)),
            Some(TaskId(7)),
        );
        assert_eq!(si.duration(), 100);
        assert_eq!(si.cpu, CpuId(1));
    }

    #[test]
    fn display_matches_name() {
        for s in WorkerState::ALL {
            assert_eq!(s.to_string(), s.name());
        }
    }
}
