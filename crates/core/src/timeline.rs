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
//! Each cell is resolved through an interval query. The default
//! [`TimelineEngine::Pyramid`] answers it from the multi-resolution aggregation layer
//! ([`crate::pyramid`]) in `O(fanout · log n)` per cell, descending to raw events
//! only at the edges of the covered range, so a frame costs `O(columns · log n)`
//! regardless of zoom level. [`TimelineEngine::Scan`] is the paper's original
//! binary-search-plus-scan path, kept both as the equivalence baseline (the two
//! engines produce byte-identical cells) and for the ablation benchmarks.

use aftermath_trace::{AccessKind, CpuId, NumaNodeId, TaskTypeId, TimeInterval, WorkerState};

use std::time::Instant;

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::index::states_overlapping;
use crate::kernels;
use crate::numa::{dominant_node_from, task_remote_fraction_from};
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

impl TimelineMode {
    /// Whether cells of this mode depend on the task table.
    pub(crate) fn reads_tasks(self) -> bool {
        self != TimelineMode::State
    }

    /// Whether cells of this mode depend on the access table.
    pub(crate) fn reads_accesses(self) -> bool {
        use TimelineMode::{NumaHeat, NumaRead, NumaWrite};
        matches!(self, NumaRead | NumaWrite | NumaHeat)
    }
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

/// How the per-cell interval reductions are answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimelineEngine {
    /// Cost-model-driven choice between [`Pyramid`](Self::Pyramid) and
    /// [`Scan`](Self::Scan), resolved once per frame from the session's
    /// calibrated [`CostModel`] (see [`AnalysisSession::choose_engine`]). The
    /// committed zoom-sweep baselines show the pyramid *losing* to the scan at
    /// deep zoom (few overlapping events per cell); the adaptive engine exists
    /// so no zoom level ever takes the slower path.
    #[default]
    Adaptive,
    /// The multi-resolution aggregation pyramid: `O(fanout · log n)` per cell.
    Pyramid,
    /// The original per-column scan over the raw event streams: `O(events in cell)`
    /// per cell. Kept as the equivalence baseline and for benchmarks.
    Scan,
}

impl TimelineEngine {
    /// Short lower-case name for reports and benchmark records.
    pub fn name(&self) -> &'static str {
        match self {
            TimelineEngine::Adaptive => "adaptive",
            TimelineEngine::Pyramid => "pyramid",
            TimelineEngine::Scan => "scan",
        }
    }
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

    /// Like [`TimelineModel::build_filtered`] but with an explicit cell-resolution
    /// engine. All engines produce byte-identical models; [`TimelineEngine::Scan`]
    /// and [`TimelineEngine::Pyramid`] exist for equivalence tests and the zoom
    /// benchmarks, [`TimelineEngine::Adaptive`] (the default) resolves to one of
    /// them — once per frame — through the session's calibrated cost model.
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
        let engine = match engine {
            TimelineEngine::Adaptive => session.choose_engine(mode, interval, columns),
            explicit => explicit,
        };
        let trace = session.trace();
        let cpus: Vec<CpuId> = trace.topology().cpu_ids().collect();
        let mut cells = Vec::with_capacity(cpus.len());
        // The NUMA map modes' per-node byte accumulator, one for the whole frame.
        let mut scratch = Vec::new();
        for &cpu in &cpus {
            let row = match engine {
                TimelineEngine::Pyramid => {
                    pyramid_row(session, mode, cpu, interval, columns, filter, &mut scratch)
                }
                _ => (0..columns)
                    .map(|col| {
                        let cell_iv = column_interval(interval, columns, col);
                        scan_cell(session, mode, cpu, cell_iv, filter, &mut scratch)
                    })
                    .collect(),
            };
            cells.push(row);
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

/// The time interval covered by one column.
pub fn column_interval(interval: TimeInterval, columns: usize, col: usize) -> TimeInterval {
    let w = (interval.duration() / columns as u64).max(1);
    let start = interval.start.0 + w * col as u64;
    let end = if col + 1 == columns {
        interval.end.0
    } else {
        (start + w).min(interval.end.0)
    };
    TimeInterval::from_cycles(start, end.max(start))
}

/// Maps a predominant worker state to its cell (state mode).
fn state_cell(state: Option<WorkerState>) -> TimelineCell {
    state
        .map(TimelineCell::State)
        .unwrap_or(TimelineCell::Empty)
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
    let t = &trace.tasks()[task];
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
        TimelineMode::NumaHeat => task_remote_fraction_from(trace, &session.accesses(), t)
            .map(TimelineCell::Shade)
            .unwrap_or(TimelineCell::Empty),
        TimelineMode::State => unreachable!("state mode resolves states, not tasks"),
    }
}

/// One cell computed with the scan engine.
fn scan_cell(
    session: &AnalysisSession<'_>,
    mode: TimelineMode,
    cpu: CpuId,
    cell_iv: TimeInterval,
    filter: &TaskFilter,
    scratch: &mut Vec<u64>,
) -> TimelineCell {
    match mode {
        TimelineMode::State => state_cell(predominant_state_scan(session, cpu, cell_iv)),
        _ => task_cell(
            session,
            mode,
            predominant_task_scan(session, cpu, cell_iv, filter),
            scratch,
        ),
    }
}

/// One CPU row computed with the pyramid engine.
///
/// Resolves the CPU's stream and pyramid once for the whole row, then answers each
/// cell with two binary searches (range location) plus an O(fanout · log n) pyramid
/// reduction. Locating ranges by binary search — never by walking the stream — is
/// what keeps the row cost independent of the number of covered events. The
/// produced cells are byte-identical to per-cell [`scan_cell`] calls.
fn pyramid_row(
    session: &AnalysisSession<'_>,
    mode: TimelineMode,
    cpu: CpuId,
    interval: TimeInterval,
    columns: usize,
    filter: &TaskFilter,
    scratch: &mut Vec<u64>,
) -> Vec<TimelineCell> {
    use crate::pyramid::{overlap_range, predominant_state_in_range, predominant_task_in_range};
    let trace = session.trace();
    let states = session.states(cpu);
    let pyramid = session.pyramid(cpu);
    let mut row = Vec::with_capacity(columns);
    for col in 0..columns {
        let cell_iv = column_interval(interval, columns, col);
        let (first, last) = overlap_range(states, cell_iv);
        let cell = match mode {
            TimelineMode::State => state_cell(predominant_state_in_range(
                pyramid, states, cell_iv, first, last,
            )),
            _ => task_cell(
                session,
                mode,
                predominant_task_in_range(pyramid, trace, states, filter, cell_iv, first, last),
                scratch,
            ),
        };
        row.push(cell);
    }
    row
}

/// The worker state covering the largest part of the cell, if any (scan path).
///
/// A pure column walk over the one-byte state lane and the two timestamp lanes.
/// Only the first and last overlapping interval can cross the cell edges (the
/// streams are sorted and non-overlapping), so the edges are clipped scalar and
/// the fully-covered middle runs through the wide state-histogram kernel —
/// unsigned sums are order-independent, so this stays bit-identical to the
/// straight per-interval loop.
fn predominant_state_scan(
    session: &AnalysisSession<'_>,
    cpu: CpuId,
    cell_iv: TimeInterval,
) -> Option<WorkerState> {
    let mut cycles = [0u64; WorkerState::COUNT];
    let states = states_overlapping(session.states(cpu), cell_iv);
    let n = states.len();
    if n > 0 {
        cycles[states.state_index(0)] += states.interval(0).overlap_cycles(&cell_iv);
    }
    if n > 1 {
        cycles[states.state_index(n - 1)] += states.interval(n - 1).overlap_cycles(&cell_iv);
    }
    if n > 2 {
        let mid = states.slice(1, n - 1);
        kernels::tag_duration_sums(mid.starts(), mid.ends(), mid.state_tags(), &mut cycles);
    }
    cycles
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .max_by_key(|(_, &c)| c)
        .and_then(|(i, _)| WorkerState::from_index(i))
}

/// The index (into `trace.tasks()`) of the task-execution state covering the largest part
/// of the cell on `cpu`, restricted to tasks accepted by `filter` (scan path).
/// Column walk: the state lane gates everything through the wide tag-match
/// kernel, so non-execution intervals cost a sixteenth to a thirty-second of a
/// byte compare each; only matching (execution) lanes chase the task lookup.
/// Matches are visited in ascending order, preserving the strict-improvement
/// tie-break of the plain loop.
fn predominant_task_scan(
    session: &AnalysisSession<'_>,
    cpu: CpuId,
    cell_iv: TimeInterval,
    filter: &TaskFilter,
) -> Option<usize> {
    let trace = session.trace();
    let mut best: Option<(u64, usize)> = None;
    let states = states_overlapping(session.states(cpu), cell_iv);
    kernels::for_each_tag_match(states.state_tags(), WorkerState::TaskExecution as u8, |i| {
        let Some(task_id) = states.task(i) else {
            return;
        };
        let idx = task_id.0 as usize;
        let Some(task) = trace.tasks().get(idx) else {
            return;
        };
        if !filter.matches(trace, task) {
            return;
        }
        let overlap = states.interval(i).overlap_cycles(&cell_iv);
        if overlap == 0 {
            return;
        }
        if best.map(|(o, _)| overlap > o).unwrap_or(true) {
            best = Some((overlap, idx));
        }
    });
    best.map(|(_, idx)| idx)
}

// ---------------------------------------------------------------------------
// The adaptive engine's cost model.
// ---------------------------------------------------------------------------

/// Number of workload classes the cost model distinguishes: state-mode cells
/// walk only the state lanes (class 0); task-based cells additionally chase
/// task, filter and access lookups (class 1).
const COST_CLASSES: usize = 2;

/// The workload class of a timeline mode (index into the cost-model constants).
fn mode_class(mode: TimelineMode) -> usize {
    match mode {
        TimelineMode::State => 0,
        _ => 1,
    }
}

/// Raw probe measurements the cost model is fitted from.
///
/// [`CostModel::from_timings`] is a pure function of this struct, so tests can
/// inject synthetic timings and get deterministic models;
/// [`CalibrationTimings::measure`] fills it from three timed probe frames per
/// workload class on the live session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationTimings {
    /// Cells per probe frame (probe columns × CPU rows).
    pub probe_cells: usize,
    /// Events overlapping the dense probe window, summed over all CPUs.
    pub probe_events: usize,
    /// Scan-engine frame time over the dense probe window, per class.
    pub scan_seconds: [f64; COST_CLASSES],
    /// Scan-engine frame time over a near-empty (one-cycle) window, per class:
    /// isolates the per-cell cost (binary searches + cell overhead).
    pub narrow_scan_seconds: [f64; COST_CLASSES],
    /// Pyramid-engine frame time over the **same dense probe window** as the
    /// scan, per class. Probing both engines on one window matters: the
    /// pyramid's descent depth grows with the events a column covers, and the
    /// dense probe's events-per-column sits near the scan/pyramid crossover —
    /// exactly where a misprediction would actually cost time. (A full-bounds
    /// probe instead measures the deepest descent and overestimates the
    /// pyramid at mid zooms, holding the scan engine past its crossover.)
    pub pyramid_seconds: [f64; COST_CLASSES],
}

impl CalibrationTimings {
    /// Number of probe columns per frame (× CPU rows = cells).
    pub const PROBE_COLUMNS: usize = 128;
    /// Target per-stream event count covered by the dense probe window.
    const PROBE_STREAM_EVENTS: usize = 16_384;

    /// Times the probe frames on `session`: per class, a scan frame over a
    /// dense window (≈ `Self::PROBE_STREAM_EVENTS` events per stream), a scan
    /// frame over a one-cycle window, and a pyramid frame over that same dense
    /// window (pyramids are warmed untimed first). Each probe takes the minimum
    /// of two runs to absorb one-off timer noise; the whole calibration costs a
    /// few milliseconds and runs once per session.
    pub fn measure(session: &AnalysisSession<'_>) -> Self {
        let trace = session.trace();
        let bounds = session.time_bounds();
        let num_cpus = trace.topology().num_cpus().max(1);
        let mut timings = CalibrationTimings {
            probe_cells: Self::PROBE_COLUMNS * num_cpus,
            probe_events: 0,
            scan_seconds: [0.0; COST_CLASSES],
            narrow_scan_seconds: [0.0; COST_CLASSES],
            pyramid_seconds: [0.0; COST_CLASSES],
        };
        if bounds.is_empty() {
            return timings;
        }
        // Dense probe window: far enough into the trace to cover the target
        // event count on every stream (capped at the full bounds).
        let mut dense_end = bounds.start.0 + 1;
        for cpu in trace.topology().cpu_ids() {
            let states = session.states(cpu);
            if !states.is_empty() {
                let k = states.len().min(Self::PROBE_STREAM_EVENTS) - 1;
                dense_end = dense_end.max(states.end_cycles(k));
            }
        }
        let dense_iv = TimeInterval::from_cycles(bounds.start.0, dense_end.min(bounds.end.0));
        let narrow_iv = TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + 1);
        for cpu in trace.topology().cpu_ids() {
            timings.probe_events += states_overlapping(session.states(cpu), dense_iv).len();
            // Warm the pyramid shards untimed: lazy first builds must not be
            // billed to the pyramid engine's per-cell constant.
            let _ = session.pyramid(cpu);
        }
        let filter = TaskFilter::new();
        let time = |mode: TimelineMode, iv: TimeInterval, engine: TimelineEngine| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let started = Instant::now();
                let _ = TimelineModel::build_with_engine(
                    session,
                    mode,
                    iv,
                    Self::PROBE_COLUMNS,
                    &filter,
                    engine,
                );
                best = best.min(started.elapsed().as_secs_f64());
            }
            best
        };
        // One representative mode per workload class.
        let modes = [TimelineMode::State, TimelineMode::TaskType];
        for (class, &mode) in modes.iter().enumerate() {
            timings.scan_seconds[class] = time(mode, dense_iv, TimelineEngine::Scan);
            timings.narrow_scan_seconds[class] = time(mode, narrow_iv, TimelineEngine::Scan);
            timings.pyramid_seconds[class] = time(mode, dense_iv, TimelineEngine::Pyramid);
        }
        timings
    }
}

/// The adaptive engine's measured cost model: three constants per workload
/// class, fitted once per session ([`AnalysisSession::cost_model`]) and
/// persisted in the session like `pyramid_memory_bytes`.
///
/// Predicted frame costs are linear: the scan pays a per-cell constant (two
/// binary searches locate the covered range) plus a per-overlapping-event
/// constant, the pyramid pays a per-cell constant only (its descent depth is
/// bounded by the fixed tree height, so it is width-independent — which also
/// makes the engine choice monotone in the interval width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Scan cost per overlapping event, per class (seconds).
    pub scan_event_seconds: [f64; COST_CLASSES],
    /// Scan cost per cell, per class (seconds).
    pub scan_cell_seconds: [f64; COST_CLASSES],
    /// Pyramid cost per cell, per class (seconds).
    pub pyramid_cell_seconds: [f64; COST_CLASSES],
}

impl CostModel {
    /// Fits the per-class constants from raw probe timings. Pure and total: a
    /// deterministic model for deterministic inputs (every constant is clamped
    /// to a small positive floor so degenerate probes cannot produce zero or
    /// negative costs).
    pub fn from_timings(timings: &CalibrationTimings) -> Self {
        const FLOOR: f64 = 1e-12;
        let cells = timings.probe_cells.max(1) as f64;
        let events = timings.probe_events.max(1) as f64;
        let mut model = CostModel {
            scan_event_seconds: [FLOOR; COST_CLASSES],
            scan_cell_seconds: [FLOOR; COST_CLASSES],
            pyramid_cell_seconds: [FLOOR; COST_CLASSES],
        };
        for class in 0..COST_CLASSES {
            let per_cell = (timings.narrow_scan_seconds[class] / cells).max(FLOOR);
            let event_part = timings.scan_seconds[class] - per_cell * cells;
            model.scan_cell_seconds[class] = per_cell;
            model.scan_event_seconds[class] = (event_part / events).max(FLOOR);
            model.pyramid_cell_seconds[class] = (timings.pyramid_seconds[class] / cells).max(FLOOR);
        }
        model
    }

    /// Measures probe timings on `session` and fits the model. Called once per
    /// session, lazily, by [`AnalysisSession::cost_model`].
    pub fn calibrate(session: &AnalysisSession<'_>) -> Self {
        Self::from_timings(&CalibrationTimings::measure(session))
    }

    /// Predicted `(scan, pyramid)` frame cost in seconds for a frame of `cells`
    /// cells covering `events` overlapping events in `mode`'s workload class.
    pub fn predict(&self, mode: TimelineMode, events: usize, cells: usize) -> (f64, f64) {
        let class = mode_class(mode);
        let cells = cells as f64;
        let scan =
            self.scan_cell_seconds[class] * cells + self.scan_event_seconds[class] * events as f64;
        let pyramid = self.pyramid_cell_seconds[class] * cells;
        (scan, pyramid)
    }

    /// The engine with the lower predicted cost (ties go to the pyramid).
    /// Because the scan prediction grows monotonically with the overlapping
    /// event count while the pyramid prediction is constant in it, the choice
    /// is monotone in the interval width: widening a window never flips the
    /// choice from pyramid back to scan.
    pub fn choose(&self, mode: TimelineMode, events: usize, cells: usize) -> TimelineEngine {
        let (scan, pyramid) = self.predict(mode, events, cells);
        if scan < pyramid {
            TimelineEngine::Scan
        } else {
            TimelineEngine::Pyramid
        }
    }
}

/// One logged adaptive-engine resolution: which engine a frame used and why.
/// The session keeps these in order ([`AnalysisSession::engine_decisions`]) so
/// benchmarks and the CI smoke test can assert every frame's engine matches
/// the cost model's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineDecision {
    /// The frame's timeline mode.
    pub mode: TimelineMode,
    /// The frame's visible interval.
    pub interval: TimeInterval,
    /// The frame's column count.
    pub columns: usize,
    /// Events overlapping the interval, summed over all CPUs.
    pub overlapping_events: usize,
    /// Predicted scan cost in seconds.
    pub predicted_scan_seconds: f64,
    /// Predicted pyramid cost in seconds.
    pub predicted_pyramid_seconds: f64,
    /// The engine the frame was resolved to (never `Adaptive`).
    pub engine: TimelineEngine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace};
    use crate::AnalysisSession;

    #[test]
    fn column_intervals_tile_the_range() {
        let iv = TimeInterval::from_cycles(0, 1000);
        let cols = 7;
        let mut covered = 0;
        for c in 0..cols {
            covered += column_interval(iv, cols, c).duration();
        }
        assert_eq!(covered, 1000);
        assert_eq!(column_interval(iv, cols, cols - 1).end.0, 1000);
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
