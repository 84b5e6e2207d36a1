//! # aftermath-trace
//!
//! Trace data model and binary trace format for Aftermath-rs, a reproduction of the
//! Aftermath performance-analysis tool described in
//! *"Interactive visualization of cross-layer performance anomalies in dynamic
//! task-parallel applications and systems"* (ISPASS 2016).
//!
//! A [`Trace`] is a post-mortem record of the execution of a dynamic task-parallel
//! program on a (possibly NUMA) machine. It contains:
//!
//! * the [`MachineTopology`] the program ran on (cores, NUMA nodes, distances),
//! * per-worker **state intervals** ([`StateInterval`]) — what each worker was doing
//!   over time (executing a task, idling/stealing, creating tasks, ...),
//! * **task types** and **task instances** ([`TaskType`], [`TaskInstance`]),
//! * **memory regions** and per-task **memory accesses** ([`MemoryRegion`],
//!   [`MemoryAccess`]) from which NUMA locality and inter-task dependences are derived,
//! * **hardware/OS counter** descriptions and samples ([`CounterDescription`],
//!   [`CounterSample`]),
//! * **discrete events** and **communication events** ([`DiscreteEvent`], [`CommEvent`]),
//! * optional [`SymbolTable`] and user [`Annotation`]s.
//!
//! The on-disk representation is a compact, sectioned binary format implemented in
//! [`mod@format`]; every section is optional so that run-times may record only the events
//! they can produce cheaply (the paper's "incremental approach").
//!
//! In memory, the hot event streams (state intervals, discrete events, counter
//! samples, memory accesses) are stored **columnar** ([`mod@columns`]): parallel
//! typed arrays with compact id widths, handed to consumers as zero-copy views
//! that materialise the structs above on demand.
//!
//! ## Example
//!
//! ```rust
//! use aftermath_trace::{MachineTopology, TraceBuilder, WorkerState, CpuId, Timestamp};
//!
//! # fn main() -> Result<(), aftermath_trace::TraceError> {
//! let topo = MachineTopology::uniform(2, 2); // 2 NUMA nodes, 2 CPUs each
//! let mut b = TraceBuilder::new(topo);
//! let ty = b.add_task_type("work", 0x4000);
//! let task = b.add_task(ty, CpuId(0), Timestamp(100), Timestamp(100), Timestamp(600));
//! b.add_state(CpuId(0), WorkerState::TaskExecution, Timestamp(100), Timestamp(600), Some(task))?;
//! let trace = b.finish()?;
//! assert_eq!(trace.tasks().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annotations;
pub mod columns;
pub mod crc;
pub mod error;
pub mod event;
pub mod fault;
pub mod format;
pub mod ids;
pub mod lint;
pub mod memory;
mod packed;
pub mod state;
pub mod store;
pub mod streaming;
pub mod symbols;
pub mod task;
pub mod topology;
pub mod trace;
pub mod wire;

pub use annotations::{Annotation, AnnotationSet};
pub use columns::{
    AccessColumns, AccessesView, EventColumns, EventsView, SampleColumns, SamplesView,
    StateColumns, StatesView, TaskRefColumn, TaskRefView, TasksView,
};
pub use error::TraceError;
pub use event::{
    CommEvent, CommKind, CounterDescription, CounterSample, DiscreteEvent, DiscreteEventKind,
};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultyTier};
pub use ids::{CounterId, CpuId, NumaNodeId, TaskId, TaskTypeId, TimeInterval, Timestamp};
pub use lint::{
    AnnotatedTrace, EventRef, LintCode, LintFinding, LintMode, LintReport, LintSummary,
    RepairRecord, RepairStrategy,
};
pub use memory::{AccessKind, MemoryAccess, MemoryRegion, RegionId};
pub use state::{StateInterval, WorkerState};
pub use store::{
    write_store_file, write_store_file_with, ColdTier, DamageCode, DamageFinding, DamageReport,
    FileTier, LaneBytes, LaneDamage, LaneId, LaneResidency, MemoryTier, StoreOptions, StoreStats,
    StoredTrace,
};
pub use streaming::{make_streamable, split_even, StreamingTrace, TraceChunk};
pub use symbols::{Symbol, SymbolTable};
pub use task::{TaskInstance, TaskType};
pub use topology::{CpuInfo, MachineTopology};
pub use trace::{PerCpuEvents, Trace, TraceBuilder};
pub use wire::{WireError, WireReader, WireWriter};
