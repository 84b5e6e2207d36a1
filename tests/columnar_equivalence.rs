//! Property tests of the columnar storage engine: for random traces (and random
//! streaming chunk boundaries), every answer of a column-backed session —
//! timeline cells in all six modes, `IntervalQuery` aggregates, counter queries
//! and anomaly rankings — is **byte-identical** to the pre-refactor
//! struct-iterator path, reimplemented here over structs collected from the
//! column views (`view.iter().collect()`).

use aftermath::prelude::*;
use aftermath_core::anomaly::{self, AnomalyConfig};
use aftermath_core::{LiveSession, TimelineCell, TimelineModel};
use aftermath_trace::streaming::{make_streamable, split_at};
use aftermath_trace::{
    AccessKind, CounterId, CounterSample, DiscreteEventKind, MemoryAccess, StateInterval,
    TaskInstance,
};
use proptest::prelude::*;

/// A random streamable trace exercising every columnar lane: typed tasks with
/// exec/idle states, NUMA-placed accesses, counter samples and discrete events of
/// every kind (including the three-payload `DataPublish` that forces the lazy
/// event lanes to materialise).
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        1u32..3,                                                                    // nodes
        1u32..3,                                                                    // cpus/node
        prop::collection::vec((1u64..400, 0u64..200, 0u8..3, -1e6f64..1e6), 1..60), // tasks
    )
        .prop_map(|(nodes, cpus, items)| {
            let topo = MachineTopology::uniform(nodes, cpus);
            let num_cpus = topo.num_cpus() as u32;
            let mut b = TraceBuilder::new(topo);
            let types: Vec<_> = (0..3)
                .map(|i| b.add_task_type(format!("ty{i}"), 0x1000 + i))
                .collect();
            let ctr = b.add_counter("c", true);
            let region_bytes = 1u64 << 12;
            let r0 = 0x10_000u64;
            let r1 = 0x20_000u64;
            b.add_region(r0, region_bytes, Some(NumaNodeId(0)));
            b.add_region(r1, region_bytes, Some(NumaNodeId(nodes.saturating_sub(1))));
            let mut now = 0u64;
            let mut cpu_tail = vec![0u64; num_cpus as usize];
            for (i, (work, gap, ty, value)) in items.into_iter().enumerate() {
                let cpu = CpuId((i as u32 * 7 + ty as u32) % num_cpus);
                let start = now.max(cpu_tail[cpu.0 as usize]);
                let end = start + work;
                let task = b.add_task(
                    types[ty as usize % types.len()],
                    cpu,
                    Timestamp(start),
                    Timestamp(start),
                    Timestamp(end),
                );
                if cpu_tail[cpu.0 as usize] < start {
                    b.add_state(
                        cpu,
                        WorkerState::Idle,
                        Timestamp(cpu_tail[cpu.0 as usize]),
                        Timestamp(start),
                        None,
                    )
                    .unwrap();
                }
                b.add_state(
                    cpu,
                    WorkerState::TaskExecution,
                    Timestamp(start),
                    Timestamp(end),
                    Some(task),
                )
                .unwrap();
                b.add_sample(ctr, cpu, Timestamp(start), value).unwrap();
                b.add_access(task, AccessKind::Read, r0 + (start % region_bytes), 64)
                    .unwrap();
                b.add_access(task, AccessKind::Write, r1 + (end % region_bytes), 32)
                    .unwrap();
                // Discrete events cycling through every kind, so the columnar
                // encode/decode of each payload shape is exercised end to end.
                let kind = match i % 7 {
                    0 => DiscreteEventKind::TaskCreate { task },
                    1 => DiscreteEventKind::TaskReady { task },
                    2 => DiscreteEventKind::TaskComplete { task },
                    3 => DiscreteEventKind::StealAttempt { victim: cpu },
                    4 => DiscreteEventKind::StealSuccess { victim: cpu, task },
                    5 => DiscreteEventKind::DataPublish {
                        producer: task,
                        consumer: task,
                        bytes: work,
                    },
                    _ => DiscreteEventKind::Marker { code: i as u32 },
                };
                b.add_event(cpu, Timestamp(start), kind).unwrap();
                cpu_tail[cpu.0 as usize] = end;
                now = start + gap;
            }
            b.finish().unwrap()
        })
}

/// The pre-refactor struct-based per-CPU streams, collected once from the column
/// views; all references below iterate these structs exactly like the old code.
struct StructStreams {
    states: Vec<Vec<StateInterval>>,
    samples: Vec<Vec<CounterSample>>,
    accesses: Vec<MemoryAccess>,
}

impl StructStreams {
    fn of(trace: &Trace, counter: CounterId) -> Self {
        StructStreams {
            states: trace
                .per_cpu()
                .iter()
                .map(|pc| pc.states().iter().collect())
                .collect(),
            samples: trace
                .per_cpu()
                .iter()
                .map(|pc| pc.samples(counter).into_iter().flatten().collect())
                .collect(),
            accesses: trace.accesses().iter().collect(),
        }
    }

    fn accesses_of_task(&self, task: TaskId) -> &[MemoryAccess] {
        let start = self.accesses.partition_point(|a| a.task < task);
        let end = self.accesses.partition_point(|a| a.task <= task);
        &self.accesses[start..end]
    }
}

/// The old struct-slice overlap query.
fn ref_states_overlapping(states: &[StateInterval], iv: TimeInterval) -> &[StateInterval] {
    if states.is_empty() || iv.is_empty() {
        return &[];
    }
    let first = states.partition_point(|s| s.interval.end <= iv.start);
    let last = states.partition_point(|s| s.interval.start < iv.end);
    &states[first.min(last)..last]
}

/// The old per-cell predominant-state scan.
fn ref_predominant_state(states: &[StateInterval], cell: TimeInterval) -> Option<WorkerState> {
    let mut cycles = [0u64; WorkerState::COUNT];
    for s in ref_states_overlapping(states, cell) {
        cycles[s.state.index()] += s.interval.overlap_cycles(&cell);
    }
    cycles
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .max_by_key(|(_, &c)| c)
        .and_then(|(i, _)| WorkerState::from_index(i))
}

/// The old per-cell predominant-task scan (unfiltered).
fn ref_predominant_task(
    trace: &Trace,
    states: &[StateInterval],
    cell: TimeInterval,
) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for s in ref_states_overlapping(states, cell) {
        if s.state != WorkerState::TaskExecution {
            continue;
        }
        let Some(task_id) = s.task else { continue };
        let idx = task_id.0 as usize;
        if trace.tasks().get(idx).is_none() {
            continue;
        }
        let overlap = s.interval.overlap_cycles(&cell);
        if overlap == 0 {
            continue;
        }
        if best.map(|(o, _)| overlap > o).unwrap_or(true) {
            best = Some((overlap, idx));
        }
    }
    best.map(|(_, idx)| idx)
}

/// The old dominant-node / remote-fraction attribution over struct accesses.
fn ref_bytes_per_node(
    trace: &Trace,
    streams: &StructStreams,
    task: TaskId,
    kind: Option<AccessKind>,
) -> Vec<(NumaNodeId, u64)> {
    let mut bytes = vec![0u64; trace.topology().num_nodes()];
    for a in streams.accesses_of_task(task) {
        if kind.is_some_and(|k| a.kind != k) {
            continue;
        }
        if let Some(node) = trace.node_of_addr(a.addr) {
            bytes[node.0 as usize] += a.size;
        }
    }
    bytes
        .into_iter()
        .enumerate()
        .filter(|(_, b)| *b > 0)
        .map(|(i, b)| (NumaNodeId(i as u32), b))
        .collect()
}

fn ref_remote_fraction(trace: &Trace, streams: &StructStreams, task: &TaskInstance) -> Option<f64> {
    let my_node = trace.topology().node_of(task.cpu)?;
    let (mut local, mut remote) = (0u64, 0u64);
    for a in streams.accesses_of_task(task.id) {
        if let Some(node) = trace.node_of_addr(a.addr) {
            if node == my_node {
                local += a.size;
            } else {
                remote += a.size;
            }
        }
    }
    let total = local + remote;
    (total > 0).then(|| remote as f64 / total as f64)
}

/// The reference timeline cell for one mode (the old scan engine, over structs).
fn ref_cell(
    trace: &Trace,
    streams: &StructStreams,
    mode: TimelineMode,
    cpu: CpuId,
    cell: TimeInterval,
) -> TimelineCell {
    let states = &streams.states[cpu.0 as usize];
    if let TimelineMode::State = mode {
        return ref_predominant_state(states, cell)
            .map(TimelineCell::State)
            .unwrap_or(TimelineCell::Empty);
    }
    let Some(idx) = ref_predominant_task(trace, states, cell) else {
        return TimelineCell::Empty;
    };
    let t = &trace.tasks()[idx];
    match mode {
        TimelineMode::Heatmap {
            min_duration,
            max_duration,
        } => {
            let range = max_duration.saturating_sub(min_duration).max(1) as f64;
            TimelineCell::Shade(
                ((t.duration().saturating_sub(min_duration)) as f64 / range).clamp(0.0, 1.0),
            )
        }
        TimelineMode::TaskType => TimelineCell::Type(t.task_type),
        TimelineMode::NumaRead => ref_bytes_per_node(trace, streams, t.id, Some(AccessKind::Read))
            .into_iter()
            .max_by_key(|(_, b)| *b)
            .map(|(n, _)| TimelineCell::Node(n))
            .unwrap_or(TimelineCell::Empty),
        TimelineMode::NumaWrite => {
            ref_bytes_per_node(trace, streams, t.id, Some(AccessKind::Write))
                .into_iter()
                .max_by_key(|(_, b)| *b)
                .map(|(n, _)| TimelineCell::Node(n))
                .unwrap_or(TimelineCell::Empty)
        }
        TimelineMode::NumaHeat => ref_remote_fraction(trace, streams, t)
            .map(TimelineCell::Shade)
            .unwrap_or(TimelineCell::Empty),
        TimelineMode::State => unreachable!(),
    }
}

/// The time interval of one timeline column (mirrors the production tiling).
fn ref_column_interval(interval: TimeInterval, columns: usize, col: usize) -> TimeInterval {
    let w = (interval.duration() / columns as u64).max(1);
    let start = interval.start.0 + w * col as u64;
    let end = if col + 1 == columns {
        interval.end.0
    } else {
        (start + w).min(interval.end.0)
    };
    TimeInterval::from_cycles(start, end.max(start))
}

/// Asserts every columnar-session answer equals its struct-iterator reference.
fn assert_matches_struct_reference(trace: &Trace, columns: usize) {
    let session = AnalysisSession::new(trace);
    let bounds = session.time_bounds();
    if bounds.is_empty() {
        return;
    }
    let ctr = trace.counters()[0].id;
    let streams = StructStreams::of(trace, ctr);

    // Timeline models: all six modes, pyramid-backed, cell-for-cell against the
    // struct scan.
    let max = trace
        .tasks()
        .iter()
        .map(|t| t.duration())
        .max()
        .unwrap_or(1);
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
    for mode in modes {
        let model: std::sync::Arc<TimelineModel> = session.timeline(mode, bounds, columns).unwrap();
        for (row, &cpu) in model.cpus.iter().enumerate() {
            for col in 0..columns {
                let cell_iv = ref_column_interval(bounds, columns, col);
                let expected = ref_cell(trace, &streams, mode, cpu, cell_iv);
                assert_eq!(
                    model.cells[row][col], expected,
                    "{mode:?} {cpu} column {col}"
                );
            }
        }
    }

    // IntervalQuery aggregates against struct scans, full range and an interior
    // window.
    let mid = TimeInterval::from_cycles(
        bounds.start.0 + bounds.duration() / 5,
        bounds.end.0 - bounds.duration() / 3,
    );
    for iv in [bounds, mid] {
        let q = session.query(iv);
        for cpu in trace.topology().cpu_ids() {
            let states = ref_states_overlapping(&streams.states[cpu.0 as usize], iv);
            let mut cycles = [0u64; WorkerState::COUNT];
            for s in states {
                cycles[s.state.index()] += s.interval.overlap_cycles(&iv);
            }
            assert_eq!(q.state_cycles(cpu), cycles, "{cpu} {iv}");
            let execs: Vec<u64> = states
                .iter()
                .filter(|s| s.state == WorkerState::TaskExecution)
                .map(|s| s.duration())
                .collect();
            let stats = q.exec_stats(cpu);
            assert_eq!(stats.count as usize, execs.len());
            assert_eq!(stats.min_cycles, execs.iter().copied().min().unwrap_or(0));
            assert_eq!(stats.max_cycles, execs.iter().copied().max().unwrap_or(0));
        }
    }

    // Counter queries against struct scans.
    for cpu in trace.topology().cpu_ids() {
        let samples = &streams.samples[cpu.0 as usize];
        for iv in [bounds, mid] {
            let in_window: Vec<&CounterSample> = samples
                .iter()
                .filter(|s| iv.contains(s.timestamp))
                .collect();
            let expected = if in_window.is_empty() {
                None
            } else {
                let min = in_window
                    .iter()
                    .map(|s| s.value)
                    .fold(f64::INFINITY, f64::min);
                let max = in_window
                    .iter()
                    .map(|s| s.value)
                    .fold(f64::NEG_INFINITY, f64::max);
                Some((min, max))
            };
            assert_eq!(
                session.counter_min_max(cpu, ctr, iv),
                expected,
                "{cpu} {iv}"
            );
        }
        // Step interpolation at a few probe points.
        for probe in [bounds.start, mid.start, bounds.end] {
            let expected = samples
                .iter()
                .rev()
                .find(|s| s.timestamp <= probe)
                .map(|s| s.value);
            assert_eq!(session.counter_value_at(cpu, ctr, probe), expected);
        }
    }

    // Per-task counter deltas (the counter-outlier detector's input).
    for task in trace.tasks() {
        let samples = &streams.samples[task.cpu.0 as usize];
        let at = |t: Timestamp| {
            samples
                .iter()
                .rev()
                .find(|s| s.timestamp <= t)
                .map(|s| s.value)
        };
        let expected = match (at(task.execution.start), at(task.execution.end)) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        assert_eq!(session.counter_delta(task, ctr), expected, "{}", task.id);
    }

    // Anomaly ranking: the permutation-based single-pass ranking must equal the
    // pre-refactor stable sort over the same raw findings, finding for finding.
    let config = AnomalyConfig::default();
    let threads = Threads::single();
    let mut raw = config.idle.unwrap().detect(&session).unwrap();
    raw.extend(config.numa.unwrap().detect(&session, threads));
    raw.extend(config.counter.unwrap().detect(&session, threads));
    raw.extend(config.duration.unwrap().detect(&session, threads));
    raw.sort_by(|a, b| {
        (b.severity, b.score)
            .partial_cmp(&(a.severity, a.score))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    raw.truncate(config.max_anomalies);
    let report = anomaly::detect_anomalies(&session, &config).unwrap();
    assert_eq!(report.len(), raw.len());
    for (got, expected) in report.iter().zip(&raw) {
        assert_eq!(
            got, expected,
            "ranking must match the stable reference sort"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn columnar_sessions_match_the_struct_iterator_path(
        trace in trace_strategy(),
        columns in 3usize..32,
    ) {
        assert_matches_struct_reference(&trace, columns);
    }

    /// The same equivalence must hold for sessions over streaming-built traces at
    /// random chunk boundaries: appending through the columnar streaming path and
    /// then querying is indistinguishable from the struct reference, and the
    /// replayed trace (columns included) equals the batch build byte for byte.
    #[test]
    fn streamed_columnar_traces_match_the_struct_iterator_path(
        trace in trace_strategy(),
        fractions in prop::collection::vec(0.0f64..1.0, 0..4),
        columns in 3usize..24,
    ) {
        let streamable = make_streamable(&trace);
        let bounds = streamable.time_bounds();
        let cuts: Vec<Timestamp> = fractions
            .iter()
            .map(|f| Timestamp(bounds.start.0 + (bounds.duration() as f64 * f) as u64))
            .collect();
        let (prologue, chunks) = split_at(&streamable, &cuts).unwrap();
        let mut live = LiveSession::new(prologue).unwrap();
        for chunk in chunks {
            live.advance(chunk).unwrap();
        }
        prop_assert_eq!(live.trace(), &streamable);
        assert_matches_struct_reference(live.trace(), columns);
    }

    /// Materialised structs round-trip: structs collected from the views and
    /// pushed back into fresh column stores reproduce the trace's columns exactly
    /// (lane compaction and lazy payload lanes included).
    #[test]
    fn materialising_adapters_round_trip(trace in trace_strategy()) {
        use aftermath_trace::{AccessColumns, EventColumns, StateColumns};
        for pc in trace.per_cpu() {
            let mut states = StateColumns::new(pc.cpu());
            for s in pc.states() {
                states.push(s);
            }
            prop_assert_eq!(
                states.view().iter().collect::<Vec<_>>(),
                pc.states().iter().collect::<Vec<_>>()
            );
            let mut events = EventColumns::new(pc.cpu());
            for e in pc.events().iter() {
                events.push(e);
            }
            prop_assert_eq!(
                events.view().iter().collect::<Vec<_>>(),
                pc.events().iter().collect::<Vec<_>>()
            );
        }
        let mut accesses = AccessColumns::new();
        for a in trace.accesses() {
            accesses.push(a);
        }
        prop_assert_eq!(
            accesses.to_vec(),
            trace.accesses().iter().collect::<Vec<_>>()
        );
    }
}
