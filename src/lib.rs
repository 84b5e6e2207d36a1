//! # aftermath
//!
//! Umbrella crate for **Aftermath-rs**, a Rust reproduction of the trace-based,
//! NUMA-aware performance-analysis tool for dynamic task-parallel programs described in
//! *"Interactive visualization of cross-layer performance anomalies in dynamic
//! task-parallel applications and systems"* (Drebes, Pop, Heydemann, Cohen — ISPASS
//! 2016).
//!
//! The workspace is organized as a stack of crates, each re-exported here under a short
//! module name:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`exec`] | `aftermath-exec` | scoped thread-pool primitives shared by every layer |
//! | [`trace`] | `aftermath-trace` | trace data model + binary trace format |
//! | [`sim`] | `aftermath-sim` | NUMA machine + dependent-task run-time simulator |
//! | [`workloads`] | `aftermath-workloads` | seidel, k-means and synthetic DAG generators |
//! | [`core`] | `aftermath-core` | the analysis engine (indexed traces, derived metrics, filters, task graph, NUMA, correlation) |
//! | [`render`] | `aftermath-render` | headless timeline/histogram/matrix rendering |
//!
//! ## Quickstart
//!
//! ```rust
//! use aftermath::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Generate a workload and simulate it to obtain a trace.
//! let spec = SeidelConfig::small().build();
//! let result = Simulator::new(SimConfig::small_test()).run(&spec)?;
//!
//! // 2. Index the trace for analysis.
//! let analysis = AnalysisSession::new(&result.trace);
//!
//! // 3. Ask questions the way the paper does.
//! let parallelism = analysis.task_graph()?.parallelism_profile();
//! assert!(!parallelism.is_empty());
//!
//! // 4. Or let the anomaly engine ask them for you: ranked, explained findings.
//! let report = analysis.detect_anomalies(&AnomalyConfig::default())?;
//! for anomaly in report.iter() {
//!     println!("[{:.2}] {}", anomaly.severity, anomaly.explanation);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use aftermath_core as core;
pub use aftermath_exec as exec;
pub use aftermath_render as render;
pub use aftermath_serve as serve;
pub use aftermath_sim as sim;
pub use aftermath_trace as trace;
pub use aftermath_workloads as workloads;

/// Commonly used types from every layer, for glob import in examples and tests.
pub mod prelude {
    pub use aftermath_core::prelude::*;
    pub use aftermath_exec::{parallel_map, Threads};
    pub use aftermath_render::prelude::*;
    pub use aftermath_sim::{
        AllocationPolicy, MachineConfig, RuntimeConfig, SchedulingPolicy, SimConfig, SimResult,
        Simulator, WorkloadSpec,
    };
    pub use aftermath_trace::{
        CpuId, MachineTopology, NumaNodeId, TaskId, TaskTypeId, TimeInterval, Timestamp, Trace,
        TraceBuilder, WorkerState,
    };
    pub use aftermath_workloads::{synthetic, KMeansConfig, SeidelConfig};
}
