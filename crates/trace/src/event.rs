//! Discrete events, communication events and performance-counter samples.

use crate::ids::{CounterId, CpuId, NumaNodeId, TaskId, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a [`DiscreteEvent`] — an instantaneous occurrence on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscreteEventKind {
    /// A new task instance was created.
    TaskCreate {
        /// The created task.
        task: TaskId,
    },
    /// A task became ready (all its input dependences are satisfied).
    TaskReady {
        /// The task that became ready.
        task: TaskId,
    },
    /// A task finished execution.
    TaskComplete {
        /// The completed task.
        task: TaskId,
    },
    /// The worker attempted to steal from another worker's deque.
    StealAttempt {
        /// The worker the steal was attempted from.
        victim: CpuId,
    },
    /// The worker successfully stole a task from another worker.
    StealSuccess {
        /// The worker the task was stolen from.
        victim: CpuId,
        /// The stolen task.
        task: TaskId,
    },
    /// Data produced by a task was published to a consumer.
    DataPublish {
        /// The producing task.
        producer: TaskId,
        /// The consuming task.
        consumer: TaskId,
        /// Number of bytes published.
        bytes: u64,
    },
    /// A user-defined marker event (free-form payload identifier).
    Marker {
        /// Application-defined marker code.
        code: u32,
    },
}

impl DiscreteEventKind {
    /// Short human-readable label for the event kind.
    pub fn label(&self) -> &'static str {
        match self {
            DiscreteEventKind::TaskCreate { .. } => "task-create",
            DiscreteEventKind::TaskReady { .. } => "task-ready",
            DiscreteEventKind::TaskComplete { .. } => "task-complete",
            DiscreteEventKind::StealAttempt { .. } => "steal-attempt",
            DiscreteEventKind::StealSuccess { .. } => "steal-success",
            DiscreteEventKind::DataPublish { .. } => "data-publish",
            DiscreteEventKind::Marker { .. } => "marker",
        }
    }

    /// The fields of the kind that name a task — the one table of which they
    /// are: remapping ([`crate::columns::EventColumns::map_tasks`]), the lint
    /// walk's orphan check and the lenient append's resolution all go through
    /// it.
    pub(crate) fn task_refs_mut(&mut self) -> [Option<&mut TaskId>; 2] {
        match self {
            DiscreteEventKind::TaskCreate { task }
            | DiscreteEventKind::TaskReady { task }
            | DiscreteEventKind::TaskComplete { task }
            | DiscreteEventKind::StealSuccess { task, .. } => [Some(task), None],
            DiscreteEventKind::DataPublish {
                producer, consumer, ..
            } => [Some(producer), Some(consumer)],
            DiscreteEventKind::StealAttempt { .. } | DiscreteEventKind::Marker { .. } => {
                [None, None]
            }
        }
    }
}

impl fmt::Display for DiscreteEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An instantaneous event recorded on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DiscreteEvent {
    /// The CPU/worker on which the event occurred.
    pub cpu: CpuId,
    /// When the event occurred.
    pub timestamp: Timestamp,
    /// What happened.
    pub kind: DiscreteEventKind,
}

impl DiscreteEvent {
    /// Creates a new discrete event.
    pub fn new(cpu: CpuId, timestamp: Timestamp, kind: DiscreteEventKind) -> Self {
        DiscreteEvent {
            cpu,
            timestamp,
            kind,
        }
    }
}

/// The kind of a [`CommEvent`] — an explicit transfer between two workers or nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommKind {
    /// Transfer of task input/output data between workers.
    DataTransfer,
    /// Migration of a task (work-stealing).
    TaskMigration,
    /// Broadcast of data to several workers.
    Broadcast,
}

impl CommKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CommKind::DataTransfer => "data-transfer",
            CommKind::TaskMigration => "task-migration",
            CommKind::Broadcast => "broadcast",
        }
    }

    /// The byte the trace format ([`crate::format`]) stores the kind as.
    pub(crate) fn tag(self) -> u8 {
        match self {
            CommKind::DataTransfer => 0,
            CommKind::TaskMigration => 1,
            CommKind::Broadcast => 2,
        }
    }

    /// The kind stored as `tag`, `None` for a byte no kind has.
    pub(crate) fn from_tag(tag: u8) -> Option<CommKind> {
        [
            CommKind::DataTransfer,
            CommKind::TaskMigration,
            CommKind::Broadcast,
        ]
        .into_iter()
        .find(|kind| kind.tag() == tag)
    }
}

impl fmt::Display for CommKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A communication event between two workers (and, transitively, NUMA nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommEvent {
    /// When the communication occurred (completion time).
    pub timestamp: Timestamp,
    /// What kind of communication this was.
    pub kind: CommKind,
    /// Source worker.
    pub src_cpu: CpuId,
    /// Destination worker.
    pub dst_cpu: CpuId,
    /// NUMA node the data originated from.
    pub src_node: NumaNodeId,
    /// NUMA node the data was delivered to.
    pub dst_node: NumaNodeId,
    /// Number of bytes transferred.
    pub bytes: u64,
    /// The task on whose behalf the communication happened, if known.
    pub task: Option<TaskId>,
}

/// Static description of a performance counter appearing in a trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CounterDescription {
    /// The counter identifier samples refer to.
    pub id: CounterId,
    /// Human-readable name, e.g. `"branch-mispredictions"`.
    pub name: String,
    /// Whether the counter value only ever increases (e.g. PMU event counts).
    ///
    /// Monotone counters can be attributed to tasks by differencing samples taken
    /// at task boundaries.
    pub monotone: bool,
    /// Whether samples exist per CPU (`true`) or only globally (`false`).
    pub per_cpu: bool,
}

impl CounterDescription {
    /// Creates a new per-CPU counter description.
    pub fn new(id: CounterId, name: impl Into<String>, monotone: bool) -> Self {
        CounterDescription {
            id,
            name: name.into(),
            monotone,
            per_cpu: true,
        }
    }
}

/// A single sample of a performance counter on one CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// The counter being sampled.
    pub counter: CounterId,
    /// The CPU the sample was taken on.
    pub cpu: CpuId,
    /// When the sample was taken.
    pub timestamp: Timestamp,
    /// The sampled value.
    pub value: f64,
}

impl CounterSample {
    /// Creates a new counter sample.
    pub fn new(counter: CounterId, cpu: CpuId, timestamp: Timestamp, value: f64) -> Self {
        CounterSample {
            counter,
            cpu,
            timestamp,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_labels() {
        let e = DiscreteEventKind::StealSuccess {
            victim: CpuId(3),
            task: TaskId(9),
        };
        assert_eq!(e.label(), "steal-success");
        assert_eq!(e.to_string(), "steal-success");
        assert_eq!(CommKind::Broadcast.to_string(), "broadcast");
    }

    #[test]
    fn discrete_event_construction() {
        let e = DiscreteEvent::new(
            CpuId(0),
            Timestamp(5),
            DiscreteEventKind::TaskCreate { task: TaskId(1) },
        );
        assert_eq!(e.cpu, CpuId(0));
        assert_eq!(e.timestamp, Timestamp(5));
        assert_eq!(e.kind.label(), "task-create");
    }

    #[test]
    fn counter_description_defaults_per_cpu() {
        let d = CounterDescription::new(CounterId(1), "cache-misses", true);
        assert!(d.per_cpu);
        assert!(d.monotone);
        assert_eq!(d.name, "cache-misses");
    }

    #[test]
    fn counter_sample_fields() {
        let s = CounterSample::new(CounterId(2), CpuId(4), Timestamp(1000), 42.5);
        assert_eq!(s.counter, CounterId(2));
        assert_eq!(s.value, 42.5);
    }
}
