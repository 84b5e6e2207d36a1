//! Property tests asserting that the pyramid-backed timeline is **byte-identical**
//! to the scan-backed timeline for all six timeline modes, over randomized traces,
//! zoom windows, column counts and task filters.
//!
//! This is the contract the multi-resolution aggregation layer must uphold: it may
//! only change *how fast* a frame is computed, never a single cell of it.

use aftermath::prelude::*;
use aftermath_core::{TaskFilter, TimelineCell, TimelineEngine, TimelineMode, TimelineModel};
use aftermath_trace::{AccessKind, NumaNodeId, TaskId, TaskTypeId};
use proptest::prelude::*;

/// All six timeline modes (heatmap bounds are scaled to the trace below).
fn all_modes(max_duration: u64) -> [TimelineMode; 6] {
    [
        TimelineMode::State,
        TimelineMode::Heatmap {
            min_duration: 0,
            max_duration: max_duration.max(1),
        },
        TimelineMode::TaskType,
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
    ]
}

/// Builds a random but valid trace: per-CPU alternating streams in which some
/// intervals are task executions referencing real typed tasks with NUMA accesses.
///
/// `segments` drive interval lengths/gaps and which state each interval carries;
/// `flags` drive task typing and access placement.
fn random_trace(
    nodes: u32,
    cpus_per_node: u32,
    segments: &[(u64, u64, u8)],
    flags: &[(u8, u8)],
) -> Trace {
    let topo = MachineTopology::uniform(nodes, cpus_per_node);
    let num_cpus = topo.num_cpus() as u32;
    let mut b = TraceBuilder::new(topo);
    let types: Vec<TaskTypeId> = (0..3)
        .map(|i| b.add_task_type(format!("t{i}"), 0x100 + i))
        .collect();
    b.add_region(0x1_0000, 4096, Some(NumaNodeId(0)));
    if nodes > 1 {
        b.add_region(0x2_0000, 4096, Some(NumaNodeId(1)));
    }
    let mut next_start = vec![0u64; num_cpus as usize];
    let mut tasks: Vec<TaskId> = Vec::new();
    for (i, &(len, gap, state_sel)) in segments.iter().enumerate() {
        let cpu = CpuId((i as u32) % num_cpus);
        let start = next_start[cpu.0 as usize];
        let end = start + len.max(1);
        next_start[cpu.0 as usize] = end + gap % 64;
        let (ty_sel, access_sel) = flags[i % flags.len().max(1)];
        if state_sel % 3 == 0 {
            // A task execution interval referencing a real task.
            let ty = types[ty_sel as usize % types.len()];
            let task = b.add_task(ty, cpu, Timestamp(start), Timestamp(start), Timestamp(end));
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(start),
                Timestamp(end),
                Some(task),
            )
            .unwrap();
            let addr = if access_sel % 2 == 0 || nodes == 1 {
                0x1_0000
            } else {
                0x2_0000
            };
            b.add_access(task, AccessKind::Read, addr, 64 + (access_sel as u64) * 8)
                .unwrap();
            if access_sel % 3 == 0 {
                b.add_access(task, AccessKind::Write, addr + 128, 32)
                    .unwrap();
            }
            tasks.push(task);
        } else {
            let state = WorkerState::from_index((state_sel % 5) as usize).unwrap();
            b.add_state(cpu, state, Timestamp(start), Timestamp(end), None)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// A random filter drawn from the criteria the timeline modes accept.
fn random_filter(trace: &Trace, selector: u8, param: u64) -> TaskFilter {
    let durations: Vec<u64> = trace.tasks().iter().map(|t| t.duration()).collect();
    let max = durations.iter().copied().max().unwrap_or(1);
    match selector % 5 {
        0 => TaskFilter::new(),
        1 => TaskFilter::new().with_task_type(TaskTypeId((param % 3) as u32)),
        2 => TaskFilter::new().with_min_duration(param % (max + 1)),
        3 => TaskFilter::new().with_cpu(CpuId((param % trace.topology().num_cpus() as u64) as u32)),
        _ => TaskFilter::new().with_max_duration(param % (max + 1)),
    }
}

fn assert_engines_agree(trace: &Trace, window: TimeInterval, columns: usize, filter: &TaskFilter) {
    if window.is_empty() || columns == 0 {
        return;
    }
    let session = AnalysisSession::new(trace);
    let max = trace
        .tasks()
        .iter()
        .map(|t| t.duration())
        .max()
        .unwrap_or(1);
    for mode in all_modes(max) {
        let pyramid = TimelineModel::build_with_engine(
            &session,
            mode,
            window,
            columns,
            filter,
            TimelineEngine::Pyramid,
        )
        .unwrap();
        let scan = TimelineModel::build_with_engine(
            &session,
            mode,
            window,
            columns,
            filter,
            TimelineEngine::Scan,
        )
        .unwrap();
        assert_eq!(
            pyramid, scan,
            "engines disagree: mode {mode:?}, window {window}, {columns} columns"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn pyramid_model_equals_scan_model_on_random_traces(
        nodes in 1u32..3,
        cpus in 1u32..3,
        segments in prop::collection::vec((1u64..400, 0u64..64, 0u8..9), 1..120),
        flags in prop::collection::vec((0u8..3, 0u8..6), 1..16),
        zoom in (0u64..100, 0u64..100),
        columns in 1usize..180,
        filter_sel in 0u8..5,
        filter_param in 0u64..10_000,
    ) {
        let trace = random_trace(nodes, cpus, &segments, &flags);
        let bounds = trace.time_bounds();
        prop_assume!(!bounds.is_empty());
        // A random window: percentages of the full range, plus the full range itself.
        let (a, b) = (zoom.0.min(zoom.1), zoom.0.max(zoom.1).max(zoom.0.min(zoom.1) + 1));
        let window = TimeInterval::from_cycles(
            bounds.start.0 + bounds.duration() * a / 100,
            bounds.start.0 + (bounds.duration() * b / 100).max(bounds.duration() * a / 100 + 1),
        );
        let filter = random_filter(&trace, filter_sel, filter_param);
        assert_engines_agree(&trace, bounds, columns, &filter);
        assert_engines_agree(&trace, window, columns, &filter);
    }
}

/// A non-empty window relative to `bounds` — inside them, straddling their end
/// or after them (touching included); the streams of [`random_trace`] start at
/// cycle 0, so nothing lies before them — placed and sized by the permilles `x`
/// and `y`.
fn window_of_kind(bounds: TimeInterval, kind: u8, x: u64, y: u64) -> TimeInterval {
    let (lo, hi) = (bounds.start.0, bounds.end.0);
    let width = 1 + y * (hi - lo) / 1000;
    let (start, end) = match kind % 3 {
        0 => {
            let start = lo + x * (hi - lo) / 1000;
            (start, (start + width).min(hi).max(start + 1))
        }
        1 => (hi.saturating_sub(width), hi + 1 + x),
        _ => (hi + x, hi + x + width),
    };
    TimeInterval::from_cycles(start, end)
}

/// A frame's columns — one cursor per row — equal each column's bin reduced on
/// its own (a one-column frame over the bin; an empty bin is an empty cell), in
/// all six modes on both engines.
fn assert_columns_match_cells(
    trace: &Trace,
    window: TimeInterval,
    columns: usize,
    filter: &TaskFilter,
) {
    let session = AnalysisSession::new(trace);
    let max = trace.tasks().iter().map(|t| t.duration()).max();
    for mode in all_modes(max.unwrap_or(1)) {
        for engine in [TimelineEngine::Pyramid, TimelineEngine::Scan] {
            let build = |interval, columns| {
                TimelineModel::build_with_engine(&session, mode, interval, columns, filter, engine)
                    .unwrap()
            };
            let frame = build(window, columns);
            for c in 0..columns {
                let bin = window.bin(columns, c);
                let cells: Vec<TimelineCell> = match bin.is_empty() {
                    true => vec![TimelineCell::Empty; frame.num_rows()],
                    false => build(bin, 1).cells.iter().map(|row| row[0]).collect(),
                };
                let got: Vec<TimelineCell> = frame.cells.iter().map(|row| row[c]).collect();
                assert_eq!(
                    got, cells,
                    "{mode:?}, {engine:?}: column {c} of {columns} over {window}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn row_cursor_columns_equal_per_cell_windows(
        nodes in 1u32..3,
        cpus in 1u32..3,
        segments in prop::collection::vec((1u64..400, 0u64..64, 0u8..9), 1..120),
        flags in prop::collection::vec((0u8..3, 0u8..6), 1..16),
        kind in 0u8..3,
        x in 0u64..1000,
        y in 0u64..1000,
        columns_sel in 0usize..4,
        extra in 1usize..24,
        filter_sel in 0u8..5,
        filter_param in 0u64..10_000,
    ) {
        let trace = random_trace(nodes, cpus, &segments, &flags);
        let mut window = window_of_kind(trace.time_bounds(), kind, x, y);
        // More columns than cycles: a short window, so most bins are empty.
        if columns_sel == 3 {
            window.end.0 = window.end.0.min(window.start.0 + 1 + x % 300);
        }
        let columns = [1, 7, 800, window.duration() as usize + extra][columns_sel];
        let filter = random_filter(&trace, filter_sel, filter_param);
        assert_columns_match_cells(&trace, window, columns, &filter);
    }
}

/// A deep deterministic stream (three pyramid levels at the default fanout of 32)
/// so the head/tail splitting and ordered pruning are exercised across level
/// boundaries, not just on the shallow random traces above.
#[test]
fn deep_stream_equivalence_across_windows_and_filters() {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 1));
    let types: Vec<TaskTypeId> = (0..4)
        .map(|i| b.add_task_type(format!("deep{i}"), 0x200 + i))
        .collect();
    b.add_region(0x1_0000, 1 << 16, Some(NumaNodeId(0)));
    b.add_region(0x9_0000, 1 << 16, Some(NumaNodeId(1)));
    let mut now = 0u64;
    let mut x = 0x1234_5678u64;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 1 + x % 97;
        let cpu = CpuId((i % 2) as u32);
        if i % 3 != 1 {
            let ty = types[(x % 4) as usize];
            let t = b.add_task(
                ty,
                cpu,
                Timestamp(now),
                Timestamp(now),
                Timestamp(now + len),
            );
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(now),
                Timestamp(now + len),
                Some(t),
            )
            .unwrap();
            let addr = if x.is_multiple_of(2) {
                0x1_0000
            } else {
                0x9_0000
            };
            b.add_access(t, AccessKind::Read, addr, 64).unwrap();
        } else {
            b.add_state(
                cpu,
                WorkerState::Idle,
                Timestamp(now),
                Timestamp(now + len),
                None,
            )
            .unwrap();
        }
        now += len + x % 13;
    }
    let trace = b.finish().unwrap();
    let bounds = trace.time_bounds();
    let filters = [
        TaskFilter::new(),
        TaskFilter::new().with_task_type(types[2]),
        TaskFilter::new().with_min_duration(90),
        TaskFilter::new().with_max_duration(5),
    ];
    let windows = [
        bounds,
        TimeInterval::from_cycles(bounds.duration() / 3, bounds.duration() / 2),
        TimeInterval::from_cycles(bounds.end.0 - 500, bounds.end.0),
        TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + 40),
    ];
    for filter in &filters {
        for &window in &windows {
            for columns in [1, 33, 400] {
                assert_engines_agree(&trace, window, columns, filter);
            }
        }
    }
}
