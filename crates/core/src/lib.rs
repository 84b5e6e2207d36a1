//! # aftermath-core
//!
//! The analysis engine of Aftermath-rs: a Rust reproduction of the analyses provided by
//! the Aftermath performance tool described in *"Interactive visualization of
//! cross-layer performance anomalies in dynamic task-parallel applications and systems"*
//! (ISPASS 2016).
//!
//! Given a [`aftermath_trace::Trace`], an [`AnalysisSession`] provides:
//!
//! * **indexed access** to per-CPU event streams via binary search and an n-ary counter
//!   min/max/sum tree ([`index`], paper Section VI-B); index shards build lazily on first
//!   touch, or all at once in parallel via [`AnalysisSession::prewarm`]; the
//!   once-per-session [`access_index`] turns "which accesses does this task have,
//!   and on which node do they live?" into array lookups for every NUMA analysis,
//! * **multi-resolution aggregation** — per-CPU summary pyramids over the state
//!   streams ([`pyramid`]) behind the [`AnalysisSession::query`] interval API, so
//!   timeline frames cost `O(columns · log n)` at any zoom level while staying
//!   byte-identical to a raw scan; computed timeline models are LRU-cached per
//!   viewport ([`AnalysisSession::timeline`]),
//! * **derived metrics** such as the number of idle workers, average task duration,
//!   aggregated OS statistics and discrete derivatives ([`derived`], Figures 3, 8, 10),
//! * **statistics** — histograms, average parallelism, per-state and per-type breakdowns
//!   ([`stats`], Figures 13, 16),
//! * **filters** restricting every analysis to a subset of tasks ([`filter`]),
//! * **task-graph reconstruction** from memory accesses with depth and available
//!   parallelism ([`taskgraph`], Figure 5) and DOT export,
//! * **NUMA analyses** — per-task locality, dominant read/write nodes and the
//!   communication incidence matrix ([`numa`], Figures 14, 15),
//! * **counter attribution and correlation** — per-task counter increases, linear
//!   regression and R² ([`counters`], [`correlate`], Figures 18, 19),
//! * **timeline models** for the five visualization modes ([`timeline`], Section II-B),
//! * **automatic anomaly detection** — idle phases, NUMA-remote storms, counter and
//!   duration outliers as ranked, explained findings ([`anomaly`]); detectors fan
//!   their units out in parallel with rankings identical to the sequential scan
//!   ([`AnalysisSession::detect_anomalies_with`]); detected regions can be drawn as
//!   timeline badges by `aftermath-render`'s anomaly overlay and turned back into
//!   filters via [`TaskFilter::from_anomaly`],
//! * **CSV export** of filtered task records, time series and anomaly reports
//!   ([`export`]).
//!
//! ## Example
//!
//! ```rust
//! use aftermath_core::{AnalysisSession, TaskFilter, derived, stats};
//! use aftermath_trace::WorkerState;
//! # use aftermath_sim::{SimConfig, Simulator};
//! # use aftermath_workloads::SeidelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let trace = Simulator::new(SimConfig::small_test())
//! #     .run(&SeidelConfig::small().build())?.trace;
//! let session = AnalysisSession::new(&trace);
//! let bounds = session.time_bounds();
//!
//! // Figure 3: how many workers are idle over time?
//! let idle = derived::state_concurrency(&session, WorkerState::Idle, 100, bounds)?;
//! assert!(idle.max().unwrap() >= 0.0);
//!
//! // Figure 5: available parallelism per task-graph depth.
//! let profile = session.task_graph()?.parallelism_profile();
//! assert!(!profile.is_empty());
//!
//! // Figure 16: task duration histogram.
//! let hist = stats::task_duration_histogram(&session, &TaskFilter::new(), 20)?;
//! assert!(hist.total > 0);
//!
//! // Automatic anomaly scan: ranked findings with explanations.
//! let report = session.detect_anomalies(&aftermath_core::AnomalyConfig::default())?;
//! for anomaly in report.iter() {
//!     println!("[{:.2}] {}", anomaly.severity, anomaly.explanation);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access_index;
pub mod anomaly;
pub mod correlate;
pub mod counters;
pub mod derived;
pub mod error;
pub mod export;
pub mod filter;
pub mod index;
pub mod kernels;
mod levels;
pub mod live;
pub mod numa;
pub mod pyramid;
pub mod series;
pub mod session;
pub mod shared;
pub mod stats;
pub mod store_session;
pub mod taskgraph;
pub mod timeline;

#[cfg(test)]
pub(crate) mod testutil;

pub use access_index::{AccessIndex, AccessSource, IndexedAccesses};
pub use aftermath_exec::Threads;
pub use anomaly::{Anomaly, AnomalyConfig, AnomalyKind, AnomalyReport};
pub use correlate::{correlate_duration_with_counter, CorrelationStudy, LinearRegression};
pub use counters::{attribute_counter, duration_stats, SummaryStats, TaskCounterDelta};
pub use derived::AggregationKind;
pub use error::AnalysisError;
pub use filter::TaskFilter;
pub use index::{CounterIndex, CounterNode};
pub use kernels::{simd_level, SimdLevel};
pub use live::{EpochStats, LiveSession};
pub use numa::IncidenceMatrix;
pub use pyramid::{ExecStats, StatePyramid};
pub use series::TimeSeries;
pub use session::{AnalysisSession, IntervalQuery, Need, TaskDetails};
pub use shared::{CacheStats, SharedSession};
pub use stats::Histogram;
pub use store_session::{SalvageCoverage, StoreSession};
pub use taskgraph::TaskGraph;
pub use timeline::{EngineDecision, TimelineCell, TimelineEngine, TimelineMode, TimelineModel};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::anomaly::{
        detect_anomalies, detect_anomalies_with, Anomaly, AnomalyConfig, AnomalyKind, AnomalyReport,
    };
    pub use crate::correlate::{correlate_duration_with_counter, LinearRegression};
    pub use crate::counters::{attribute_counter, duration_stats, SummaryStats};
    pub use crate::derived::{
        aggregate_counter, average_task_duration, counter_derivative, state_concurrency,
        AggregationKind,
    };
    pub use crate::error::AnalysisError;
    pub use crate::filter::TaskFilter;
    pub use crate::live::{EpochStats, LiveSession};
    pub use crate::numa::IncidenceMatrix;
    pub use crate::pyramid::{ExecStats, StatePyramid};
    pub use crate::series::TimeSeries;
    pub use crate::session::{AnalysisSession, IntervalQuery};
    pub use crate::stats::{average_parallelism, task_duration_histogram, Histogram};
    pub use crate::taskgraph::TaskGraph;
    pub use crate::timeline::{
        EngineDecision, TimelineCell, TimelineEngine, TimelineMode, TimelineModel,
    };
    pub use aftermath_exec::Threads;
}
