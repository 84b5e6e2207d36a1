//! The timeline model: per-CPU, per-column cell values for the five timeline modes
//! (paper Section II-B).
//!
//! The timeline is the central element of Aftermath's interface: one row per CPU, one
//! column per horizontal pixel, each column covering a slice of the visible time
//! interval. This module computes *what* each cell shows; the `aftermath-render` crate
//! turns cells into pixels. Separating the two keeps the paper's key rendering
//! optimization — every pixel is derived from the events it covers exactly once, using
//! the predominant state/type/node of the covered interval — testable without a
//! framebuffer.
//!
//! Each cell is resolved through one window reduction ([`crate::pyramid::Window`]):
//! the row's one cursor gallops on from the previous column to locate the covered
//! index range (`O(log items-in-column)`, never a search of the whole stream), the
//! two edge intervals are clipped, and the fully covered middle is reduced from
//! pyramid nodes where it holds a whole one and as one raw run through the scan
//! kernels where it does not. A zoomed-out frame therefore costs
//! `O(columns · log n)` and a deep-zoom frame what the scan costs, from the same
//! code. [`TimelineEngine::Scan`] is that reduction without pyramids — the paper's
//! original search-plus-scan path, kept as the equivalence baseline (both produce
//! byte-identical cells) and for the ablation benchmarks.
//!
//! Rows are independent: a frame builds them in parallel on the view's thread
//! budget (the `threads` rule in [`crate::session`]), each with its own scratch,
//! and ORs their "read pyramid nodes" flags into the frame's one
//! [`EngineDecision`]. The cells do not depend on the budget.

use aftermath_exec::parallel_map;
use aftermath_trace::{AccessKind, CpuId, NumaNodeId, TaskTypeId, TimeInterval, WorkerState};

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::numa::{dominant_node_from, task_remote_fraction_from};
use crate::pyramid::Window;
use crate::session::AnalysisSession;

/// The five timeline modes of the paper (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimelineMode {
    /// Default mode: the predominant worker state per cell.
    State,
    /// Heatmap mode: relative task duration, darker = longer.
    Heatmap {
        /// Lower bound of the duration scale in cycles.
        min_duration: u64,
        /// Upper bound of the duration scale in cycles.
        max_duration: u64,
    },
    /// Task-type mode ("typemap"): the predominant task type per cell.
    TaskType,
    /// NUMA read map: the node providing most of the data read by the task in the cell.
    NumaRead,
    /// NUMA write map: the node receiving most of the data written by the task.
    NumaWrite,
    /// NUMA heatmap: fraction of remote accesses, blue (local) to pink (remote).
    NumaHeat,
}

/// The content of one timeline cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimelineCell {
    /// Nothing relevant happened in the cell (background shows through).
    Empty,
    /// Predominant worker state (state mode).
    State(WorkerState),
    /// Normalized intensity in `[0, 1]` (heatmap and NUMA-heat modes).
    Shade(f64),
    /// Predominant task type (typemap mode).
    Type(TaskTypeId),
    /// Dominant NUMA node (NUMA read/write map modes).
    Node(NumaNodeId),
}

/// How the per-cell window reductions are answered. There are two behaviours: with
/// the session's pyramids ([`Adaptive`](Self::Adaptive), [`Pyramid`](Self::Pyramid))
/// and without them ([`Scan`](Self::Scan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimelineEngine {
    /// The default: [`Pyramid`](Self::Pyramid) — a reduction that adapts per cell,
    /// from the cell's index range alone — and the frame is recorded in the
    /// session's [`AnalysisSession::engine_decisions`].
    #[default]
    Adaptive,
    /// Every cell is reduced with its CPU's pyramid at hand: nodes where the cell's
    /// fully covered middle holds a whole one, `O(fanout · log n)` per cell, and the
    /// scan of the raw intervals where it does not. A CPU whose view has no
    /// pyramid and may not build one (the build rule of `SessionState`: a store
    /// lane that is not fully resident, or a frame that did not load the task
    /// and access tables) is scanned.
    Pyramid,
    /// Every cell is reduced by the scan alone, `O(events in cell)`; no pyramid is
    /// touched or built. The reference of every equivalence suite.
    Scan,
}

/// A computed timeline: `columns` cells for each CPU row.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineModel {
    /// The visible time interval.
    pub interval: TimeInterval,
    /// The CPUs shown, in row order.
    pub cpus: Vec<CpuId>,
    /// Number of columns (horizontal pixels).
    pub columns: usize,
    /// `cells[row][column]`.
    pub cells: Vec<Vec<TimelineCell>>,
}

impl TimelineModel {
    /// Computes the timeline for `mode` over `interval` at a horizontal resolution of
    /// `columns` cells, showing all CPUs of the machine.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for zero columns or an empty interval.
    pub fn build(
        session: &AnalysisSession<'_>,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
    ) -> Result<Self, AnalysisError> {
        Self::build_filtered(session, mode, interval, columns, &TaskFilter::new())
    }

    /// Like [`TimelineModel::build`] but only tasks accepted by `filter` contribute to
    /// task-based modes (heatmap, typemap, NUMA modes).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for zero columns or an empty interval.
    pub fn build_filtered(
        session: &AnalysisSession<'_>,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
        filter: &TaskFilter,
    ) -> Result<Self, AnalysisError> {
        Self::build_with_engine(
            session,
            mode,
            interval,
            columns,
            filter,
            TimelineEngine::Adaptive,
        )
    }

    /// Like [`TimelineModel::build_filtered`] but with an explicit
    /// [`TimelineEngine`]. All engines produce byte-identical models; a frame built
    /// with the default engine is recorded as one [`EngineDecision`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for zero columns or an empty interval.
    pub fn build_with_engine(
        session: &AnalysisSession<'_>,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
        filter: &TaskFilter,
        engine: TimelineEngine,
    ) -> Result<Self, AnalysisError> {
        if columns == 0 {
            return Err(AnalysisError::InvalidParameter(
                "timeline needs at least one column".into(),
            ));
        }
        if interval.is_empty() {
            return Err(AnalysisError::InvalidParameter(
                "timeline interval is empty".into(),
            ));
        }
        let trace = session.trace();
        let cpus: Vec<CpuId> = trace.topology().cpu_ids().collect();
        // One row per CPU, on the view's thread budget; each row says whether one
        // of its cells read pyramid nodes.
        let rows = parallel_map(session.threads, &cpus, |&cpu| {
            let states = session.states(cpu);
            let pyramid = match engine {
                TimelineEngine::Scan => None,
                _ => session.pyramid(cpu),
            };
            // The NUMA map modes' per-node byte accumulator, one for the row.
            let mut scratch = Vec::new();
            let mut reads_nodes = false;
            let row = Window::columns(pyramid, states, interval, columns).map(|window| {
                reads_nodes |= window.reads_nodes();
                match mode {
                    TimelineMode::State => window
                        .predominant_state()
                        .map_or(TimelineCell::Empty, TimelineCell::State),
                    _ => {
                        let task = window.predominant_task(trace, filter);
                        task_cell(session, mode, task, &mut scratch)
                    }
                }
            });
            let row: Vec<TimelineCell> = row.collect();
            (row, reads_nodes)
        });
        let (cells, reads_nodes): (Vec<_>, Vec<bool>) = rows.into_iter().unzip();
        if engine == TimelineEngine::Adaptive {
            let engine = match reads_nodes.contains(&true) {
                true => TimelineEngine::Pyramid,
                false => TimelineEngine::Scan,
            };
            session.record_engine(EngineDecision {
                mode,
                interval,
                columns,
                engine,
            });
        }
        Ok(TimelineModel {
            interval,
            cpus,
            columns,
            cells,
        })
    }

    /// The cell at `(row, column)`.
    pub fn cell(&self, row: usize, column: usize) -> Option<&TimelineCell> {
        self.cells.get(row).and_then(|r| r.get(column))
    }

    /// Number of CPU rows.
    pub fn num_rows(&self) -> usize {
        self.cells.len()
    }

    /// Fraction of cells that are not [`TimelineCell::Empty`].
    pub fn occupancy(&self) -> f64 {
        let total = self.num_rows() * self.columns;
        if total == 0 {
            return 0.0;
        }
        let filled = self
            .cells
            .iter()
            .flatten()
            .filter(|c| !matches!(c, TimelineCell::Empty))
            .count();
        filled as f64 / total as f64
    }
}

/// Maps a predominant task (index into `trace.tasks()`) to its cell for the
/// task-based modes (heatmap, typemap, NUMA read/write/heat). The NUMA modes read
/// the task's accesses through the session's access index; `scratch` is the map
/// modes' per-node accumulator.
fn task_cell(
    session: &AnalysisSession<'_>,
    mode: TimelineMode,
    task: Option<usize>,
    scratch: &mut Vec<u64>,
) -> TimelineCell {
    let Some(task) = task else {
        return TimelineCell::Empty;
    };
    let trace = session.trace();
    let t = trace.tasks().get(task);
    let dominant_node = |kind: AccessKind, scratch: &mut Vec<u64>| {
        dominant_node_from(trace, &session.accesses(), t.id, kind, scratch)
            .map(TimelineCell::Node)
            .unwrap_or(TimelineCell::Empty)
    };
    match mode {
        TimelineMode::Heatmap {
            min_duration,
            max_duration,
        } => {
            let range = max_duration.saturating_sub(min_duration).max(1) as f64;
            let shade =
                ((t.duration().saturating_sub(min_duration)) as f64 / range).clamp(0.0, 1.0);
            TimelineCell::Shade(shade)
        }
        TimelineMode::TaskType => TimelineCell::Type(t.task_type),
        TimelineMode::NumaRead => dominant_node(AccessKind::Read, scratch),
        TimelineMode::NumaWrite => dominant_node(AccessKind::Write, scratch),
        TimelineMode::NumaHeat => task_remote_fraction_from(trace, &session.accesses(), &t)
            .map(TimelineCell::Shade)
            .unwrap_or(TimelineCell::Empty),
        TimelineMode::State => unreachable!("state mode resolves states, not tasks"),
    }
}

/// One frame built with the default engine, as the session logs it
/// ([`AnalysisSession::engine_decisions`]): a fact about the frame, not a
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineDecision {
    /// The frame's timeline mode.
    pub mode: TimelineMode,
    /// The frame's visible interval.
    pub interval: TimeInterval,
    /// The frame's column count.
    pub columns: usize,
    /// [`TimelineEngine::Pyramid`] when a cell of the frame read pyramid nodes,
    /// [`TimelineEngine::Scan`] when every cell was reduced from raw intervals alone
    /// (never `Adaptive`).
    pub engine: TimelineEngine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace};
    use crate::AnalysisSession;
    use aftermath_trace::{MachineTopology, Timestamp, Trace, TraceBuilder};

    #[test]
    fn column_intervals_tile_the_range() {
        let iv = TimeInterval::from_cycles(0, 1000);
        let cols = 7;
        let mut covered = 0;
        for c in 0..cols {
            covered += iv.bin(cols, c).duration();
        }
        assert_eq!(covered, 1000);
        assert_eq!(iv.bin(cols, cols - 1).end.0, 1000);
    }

    #[test]
    fn state_mode_shows_execution_on_diamond() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let model =
            TimelineModel::build(&session, TimelineMode::State, session.time_bounds(), 3).unwrap();
        assert_eq!(model.num_rows(), 4);
        assert_eq!(model.columns, 3);
        // CPU 0 executes t0 in the first third and t3 in the last third.
        assert_eq!(
            model.cell(0, 0),
            Some(&TimelineCell::State(WorkerState::TaskExecution))
        );
        assert_eq!(model.cell(0, 1), Some(&TimelineCell::Empty));
        assert_eq!(
            model.cell(0, 2),
            Some(&TimelineCell::State(WorkerState::TaskExecution))
        );
        // CPU 3 never executes anything.
        assert!(model.cells[3]
            .iter()
            .all(|c| matches!(c, TimelineCell::Empty)));
    }

    #[test]
    fn heatmap_shades_increase_with_duration() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let max = trace.tasks().iter().map(|t| t.duration()).max().unwrap();
        let model = TimelineModel::build(
            &session,
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration: max,
            },
            session.time_bounds(),
            64,
        )
        .unwrap();
        let shades: Vec<f64> = model
            .cells
            .iter()
            .flatten()
            .filter_map(|c| match c {
                TimelineCell::Shade(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert!(!shades.is_empty());
        assert!(shades.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn typemap_and_numa_modes_produce_cells() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        for mode in [
            TimelineMode::TaskType,
            TimelineMode::NumaRead,
            TimelineMode::NumaWrite,
            TimelineMode::NumaHeat,
        ] {
            let model = TimelineModel::build(&session, mode, bounds, 48).unwrap();
            assert!(
                model.occupancy() > 0.0,
                "mode {mode:?} produced an empty timeline"
            );
        }
    }

    #[test]
    fn filtered_timeline_hides_other_types() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let init_ty = trace
            .task_types()
            .iter()
            .find(|t| t.name == "seidel_init")
            .unwrap()
            .id;
        let bounds = session.time_bounds();
        let all = TimelineModel::build(&session, TimelineMode::TaskType, bounds, 64).unwrap();
        let only_init = TimelineModel::build_filtered(
            &session,
            TimelineMode::TaskType,
            bounds,
            64,
            &TaskFilter::new().with_task_type(init_ty),
        )
        .unwrap();
        assert!(only_init.occupancy() < all.occupancy());
        for cell in only_init.cells.iter().flatten() {
            if let TimelineCell::Type(ty) = cell {
                assert_eq!(*ty, init_ty);
            }
        }
    }

    #[test]
    fn pyramid_and_scan_engines_agree_on_every_mode() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let zoomed = TimeInterval::from_cycles(
            bounds.start.0 + bounds.duration() / 3,
            bounds.start.0 + bounds.duration() / 2,
        );
        let max = trace.tasks().iter().map(|t| t.duration()).max().unwrap();
        for mode in [
            TimelineMode::State,
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration: max,
            },
            TimelineMode::TaskType,
            TimelineMode::NumaRead,
            TimelineMode::NumaWrite,
            TimelineMode::NumaHeat,
        ] {
            for iv in [bounds, zoomed] {
                for columns in [1, 7, 64, 333] {
                    let filter = TaskFilter::new();
                    let pyramid = TimelineModel::build_with_engine(
                        &session,
                        mode,
                        iv,
                        columns,
                        &filter,
                        TimelineEngine::Pyramid,
                    )
                    .unwrap();
                    let scan = TimelineModel::build_with_engine(
                        &session,
                        mode,
                        iv,
                        columns,
                        &filter,
                        TimelineEngine::Scan,
                    )
                    .unwrap();
                    assert_eq!(pyramid, scan, "mode {mode:?}, {iv}, {columns} columns");
                }
            }
        }
    }

    /// A dense trace on a 2-node, 4-CPU machine: `pairs` task-execution/idle pairs
    /// per CPU, the tasks of two types, each reading from one node and writing to
    /// the other — deep enough that a zoomed-out frame reads pyramid nodes.
    fn dense_trace(pairs: u64) -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let types = [b.add_task_type("a", 0x1000), b.add_task_type("b", 0x2000)];
        b.add_region(0x10_000, 0x1000, Some(NumaNodeId(0)));
        b.add_region(0x20_000, 0x1000, Some(NumaNodeId(1)));
        for cpu in 0..4u32 {
            let mut now = u64::from(cpu) * 7;
            for i in 0..pairs {
                let (len, idle) = (20 + (i * 7 + u64::from(cpu)) % 50, 5 + i % 11);
                let (start, end) = (Timestamp(now), Timestamp(now + len));
                let ty = types[usize::from(i % 3 == 0)];
                let task = b.add_task(ty, CpuId(cpu), start, start, end);
                let exec = WorkerState::TaskExecution;
                b.add_state(CpuId(cpu), exec, start, end, Some(task))
                    .unwrap();
                let (near, far) = match i % 4 {
                    0 => (0x20_000, 0x10_000),
                    _ => (0x10_000, 0x20_000),
                };
                b.add_access(task, AccessKind::Read, near, 64 + i % 64)
                    .unwrap();
                b.add_access(task, AccessKind::Write, far, 32).unwrap();
                let idle_end = Timestamp(now + len + idle);
                b.add_state(CpuId(cpu), WorkerState::Idle, end, idle_end, None)
                    .unwrap();
                now += len + idle;
            }
        }
        b.finish().unwrap()
    }

    /// The frames of one walk — six modes at five zoom levels, plus a filtered
    /// drill-in — built by `frame`.
    fn walk(
        trace: &Trace,
        mut frame: impl FnMut(TimelineMode, TimeInterval, &TaskFilter) -> TimelineModel,
    ) -> Vec<TimelineModel> {
        let bounds = trace.time_bounds();
        let max = trace.tasks().iter().map(|t| t.duration()).max().unwrap();
        let modes = [
            TimelineMode::State,
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration: max,
            },
            TimelineMode::TaskType,
            TimelineMode::NumaRead,
            TimelineMode::NumaWrite,
            TimelineMode::NumaHeat,
        ];
        let zoom = |factor: u64| {
            let width = (bounds.duration() / factor).max(1);
            let start = bounds.start.0 + (bounds.duration() - width) / 2;
            TimeInterval::from_cycles(start, start + width)
        };
        let all = TaskFilter::new();
        let drill_in = TaskFilter::new().with_task_type(trace.task_types()[0].id);
        let views = [1, 4, 16, 64, 256]
            .into_iter()
            .flat_map(|factor| modes.map(|mode| (mode, zoom(factor), &all)))
            .chain([(TimelineMode::TaskType, zoom(4), &drill_in)]);
        views
            .map(|(mode, interval, filter)| frame(mode, interval, filter))
            .collect()
    }

    #[test]
    fn rows_fan_out_to_the_same_frames_on_every_owner() {
        use crate::session::Need;
        use crate::{SharedSession, StoreSession};
        use aftermath_exec::Threads;
        use aftermath_trace::store::{write_store_bytes, StoreOptions, StoredTrace};
        use std::sync::Arc;

        let trace = dense_trace(2_000);
        let build = |session: &AnalysisSession<'_>, mode, interval, filter: &TaskFilter| {
            TimelineModel::build_filtered(session, mode, interval, 64, filter).unwrap()
        };
        // The frames and the engine decisions they logged on one session.
        let on = |session: &AnalysisSession<'_>| {
            let models = walk(&trace, |mode, iv, filter| build(session, mode, iv, filter));
            (models, session.engine_decisions())
        };
        let reference = on(&AnalysisSession::new(&trace));
        assert_eq!(reference.1.len(), reference.0.len());
        assert!(reference
            .1
            .iter()
            .any(|d| d.engine == TimelineEngine::Pyramid));
        assert!(reference.1.iter().any(|d| d.engine == TimelineEngine::Scan));
        let shared_trace = Arc::new(trace.clone());
        for threads in [Threads::single(), Threads::new(2), Threads::auto()] {
            let shared = SharedSession::open(Arc::clone(&shared_trace), threads);
            assert_eq!(on(&shared.view()), reference, "{threads} threads");
        }
        // A store hands every frame a fresh view on its decode budget. It builds
        // a pyramid only over the lanes it keeps, so its decisions may differ;
        // its frames may not.
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 64 }).unwrap();
        let mut store = StoreSession::from_store(StoredTrace::from_bytes(bytes).unwrap());
        store.set_residency_budget(Some(trace.resident_event_bytes() / 2));
        let models = walk(&trace, |mode, interval, filter| {
            let frame = |view: &AnalysisSession<'_>| build(view, mode, interval, filter);
            store
                .with_view(Need::frame(mode, interval, filter), frame)
                .unwrap()
        });
        assert_eq!(models, reference.0, "capped store");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        assert!(
            TimelineModel::build(&session, TimelineMode::State, session.time_bounds(), 0).is_err()
        );
        assert!(TimelineModel::build(
            &session,
            TimelineMode::State,
            TimeInterval::from_cycles(5, 5),
            10
        )
        .is_err());
    }
}
