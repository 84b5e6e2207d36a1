//! Property-based tests (proptest) for the core data structures and invariants of the
//! workspace: time intervals, the binary trace format, the counter min/max index,
//! histograms, linear regression, zoom navigation and the simulator's scheduling
//! invariants.

use aftermath::prelude::*;
use aftermath::trace::format::{read_trace, write_trace};
use aftermath_core::index::{samples_in, CounterIndex};
use aftermath_core::stats::{state_fractions, state_fractions_per_cpu};
use aftermath_core::{AnalysisSession, Histogram, LinearRegression, Need, SharedSession};
use aftermath_render::ZoomState;
use aftermath_trace::{CounterId, CounterSample, SampleColumns};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Time intervals
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn interval_intersection_is_contained_in_both(
        a in 0u64..1_000_000, b in 0u64..1_000_000,
        c in 0u64..1_000_000, d in 0u64..1_000_000,
    ) {
        let x = TimeInterval::from_cycles(a.min(b), a.max(b));
        let y = TimeInterval::from_cycles(c.min(d), c.max(d));
        if let Some(i) = x.intersection(&y) {
            prop_assert!(i.start >= x.start && i.end <= x.end);
            prop_assert!(i.start >= y.start && i.end <= y.end);
            prop_assert_eq!(i.duration(), x.overlap_cycles(&y));
        } else {
            prop_assert_eq!(x.overlap_cycles(&y), 0);
        }
    }

    #[test]
    fn interval_split_partitions_duration(start in 0u64..1_000_000, len in 0u64..100_000, n in 1usize..50) {
        let interval = TimeInterval::from_cycles(start, start + len);
        let parts = interval.split(n);
        if len == 0 {
            prop_assert!(parts.is_empty());
        } else {
            prop_assert_eq!(parts.len(), n);
            let total: u64 = parts.iter().map(|p| p.duration()).sum();
            prop_assert_eq!(total, len);
            prop_assert_eq!(parts.first().unwrap().start, interval.start);
            prop_assert_eq!(parts.last().unwrap().end, interval.end);
            for pair in parts.windows(2) {
                prop_assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binary trace format round-trip on arbitrary (small) traces
// ---------------------------------------------------------------------------

fn arbitrary_trace_strategy() -> impl Strategy<Value = Trace> {
    // Random per-cpu state streams plus counter samples and tasks; built through the
    // TraceBuilder so every generated trace is valid by construction.
    (
        1u32..3,                                                         // nodes
        1u32..3,                                                         // cpus per node
        prop::collection::vec((0u64..10_000, 1u64..500, 0u8..4), 0..40), // state intervals
        prop::collection::vec((0u64..10_000, -1e6f64..1e6), 0..40),      // counter samples
        0usize..10,                                                      // tasks
    )
        .prop_map(|(nodes, cpus, states, samples, num_tasks)| {
            let topo = MachineTopology::uniform(nodes, cpus);
            let num_cpus = topo.num_cpus() as u32;
            let mut b = TraceBuilder::new(topo);
            let ty = b.add_task_type("w", 0x1000);
            let ctr = b.add_counter("c", true);
            for i in 0..num_tasks as u64 {
                b.add_task(
                    ty,
                    CpuId((i as u32) % num_cpus),
                    Timestamp(i * 10),
                    Timestamp(i * 100),
                    Timestamp(i * 100 + 50),
                );
            }
            // Keep per-cpu states non-overlapping by spacing them on a grid per cpu.
            let mut next_start = vec![0u64; num_cpus as usize];
            for (i, (_, len, state_idx)) in states.into_iter().enumerate() {
                let cpu = (i as u32) % num_cpus;
                let start = next_start[cpu as usize];
                let end = start + len;
                next_start[cpu as usize] = end;
                let state = WorkerState::from_index((state_idx % 4) as usize).unwrap();
                b.add_state(CpuId(cpu), state, Timestamp(start), Timestamp(end), None)
                    .unwrap();
            }
            for (i, (ts, value)) in samples.into_iter().enumerate() {
                let cpu = (i as u32) % num_cpus;
                b.add_sample(ctr, CpuId(cpu), Timestamp(ts), value).unwrap();
            }
            b.finish().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn trace_format_roundtrip_preserves_arbitrary_traces(trace in arbitrary_trace_strategy()) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(trace, back);
    }
}

/// Timestamps/sizes at the LEB128 encoding boundaries: the values where the varint
/// width changes, including 0 and `u64::MAX`.
const VARINT_BOUNDARIES: [u64; 8] = [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn trace_format_roundtrip_at_varint_boundaries(
        // Each pick selects one boundary timestamp for an event and one for a sample.
        picks in prop::collection::vec((0usize..8, 0usize..8), 0..16),
        with_task in 0u8..2,
        with_regions in 0u8..2,
        with_comm in 0u8..2,
        with_symbols in 0u8..2,
        with_state in 0u8..2,
    ) {
        use aftermath_trace::{
            AccessKind, CommEvent, CommKind, DiscreteEventKind, NumaNodeId, SymbolTable, TaskId,
        };
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let ty = b.add_task_type("w", u64::MAX); // boundary symbol address
        let ctr = b.add_counter("", true); // empty section strings must survive too
        for (i, &(ti, vi)) in picks.iter().enumerate() {
            let cpu = CpuId((i % 4) as u32);
            let ts = Timestamp(VARINT_BOUNDARIES[ti]);
            // Alternate event kinds so ids at the boundaries flow through both paths.
            let kind = if i % 2 == 0 {
                DiscreteEventKind::Marker { code: u32::MAX }
            } else {
                DiscreteEventKind::TaskCreate { task: TaskId(u64::MAX) }
            };
            b.add_event(cpu, ts, kind).unwrap();
            b.add_sample(
                ctr,
                cpu,
                Timestamp(VARINT_BOUNDARIES[vi]),
                VARINT_BOUNDARIES[vi] as f64,
            )
            .unwrap();
        }
        // Every remaining section is individually optional: any subset of them being
        // empty (including all of them — writers omit empty sections) must round-trip.
        let task = (with_task == 1).then(|| {
            b.add_task(
                ty,
                CpuId(0),
                Timestamp(0),
                Timestamp(VARINT_BOUNDARIES[3]),
                Timestamp(u64::MAX),
            )
        });
        if let Some(task) = task {
            b.add_access(task, AccessKind::Write, u64::MAX, u64::MAX).unwrap();
            b.add_access(task, AccessKind::Read, 0, 0).unwrap();
        }
        if with_regions == 1 {
            b.add_region(u64::MAX, u64::MAX, Some(NumaNodeId(1)));
            b.add_region(0, 127, None);
        }
        if with_comm == 1 {
            b.add_comm(CommEvent {
                timestamp: Timestamp(u64::MAX),
                kind: CommKind::Broadcast,
                src_cpu: CpuId(0),
                dst_cpu: CpuId(3),
                src_node: NumaNodeId(0),
                dst_node: NumaNodeId(1),
                bytes: u64::MAX,
                task,
            })
            .unwrap();
        }
        if with_symbols == 1 {
            let mut symbols = SymbolTable::new();
            symbols.insert(u64::MAX, 0, "σ");
            symbols.insert(0, 128, "");
            b.set_symbols(symbols);
        }
        if with_state == 1 {
            b.add_state(CpuId(1), WorkerState::Idle, Timestamp(0), Timestamp(u64::MAX), task)
                .unwrap();
        }
        let trace = b.finish().unwrap();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(&trace, &back);
        // The parallel decoder must agree bit for bit as well.
        let parallel = aftermath::trace::format::read_trace_with(&buf[..], Threads::new(3)).unwrap();
        prop_assert_eq!(&trace, &parallel);
    }
}

// ---------------------------------------------------------------------------
// Counter min/max index vs. naive scan
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn counter_index_agrees_with_naive_scan(
        values in prop::collection::vec(-1e9f64..1e9, 1..500),
        arity in 2usize..64,
        range in (0usize..500, 0usize..500),
    ) {
        let mut samples = SampleColumns::new(CounterId(0), CpuId(0));
        for (i, &v) in values.iter().enumerate() {
            samples.push(CounterSample::new(CounterId(0), CpuId(0), Timestamp(i as u64 * 7), v));
        }
        let index = CounterIndex::with_arity(samples.view(), arity);
        let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
        let expected = if lo >= hi.min(samples.len()) {
            None
        } else {
            let slice = &samples.view().values()[lo..hi.min(samples.len())];
            let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some((min, max))
        };
        prop_assert_eq!(index.min_max(samples.view(), lo, hi), expected);
    }

    #[test]
    fn sample_interval_slicing_matches_filter(
        timestamps in prop::collection::vec(0u64..10_000, 0..200),
        query in (0u64..10_000, 0u64..10_000),
    ) {
        let mut timestamps = timestamps;
        timestamps.sort_unstable();
        let mut samples = SampleColumns::new(CounterId(0), CpuId(0));
        for &t in &timestamps {
            samples.push(CounterSample::new(CounterId(0), CpuId(0), Timestamp(t), t as f64));
        }
        let interval = TimeInterval::from_cycles(query.0.min(query.1), query.0.max(query.1));
        let sliced = samples_in(samples.view(), interval);
        let expected = timestamps
            .iter()
            .filter(|&&t| interval.contains(Timestamp(t)))
            .count();
        prop_assert_eq!(sliced.len(), expected);
    }
}

// ---------------------------------------------------------------------------
// Histogram and regression invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_conserves_every_value(
        values in prop::collection::vec(-1e6f64..1e6, 0..300),
        bins in 1usize..40,
    ) {
        let hist = Histogram::from_values(&values, bins, None).unwrap();
        prop_assert_eq!(hist.total as usize, values.len());
        prop_assert_eq!(hist.counts.iter().sum::<u64>() as usize, values.len());
        let fraction_sum: f64 = (0..hist.num_bins()).map(|i| hist.fraction(i)).sum();
        if !values.is_empty() {
            prop_assert!((fraction_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn regression_recovers_exact_linear_relationships(
        slope in -1e3f64..1e3,
        intercept in -1e6f64..1e6,
        xs in prop::collection::vec(-1e4f64..1e4, 3..50),
    ) {
        // Need at least two distinct x values for the fit to be defined.
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-3 * (1.0 + slope.abs()));
        prop_assert!(fit.r_squared > 0.999);
    }
}

// ---------------------------------------------------------------------------
// Zoom navigation invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn zoom_never_leaves_the_trace_bounds(
        len in 100u64..10_000_000,
        ops in prop::collection::vec((0.1f64..10.0, 0.0f64..1.0, -2.0f64..2.0), 0..50),
    ) {
        let full = TimeInterval::from_cycles(0, len);
        let mut zoom = ZoomState::new(full);
        for (factor, anchor, scroll) in ops {
            zoom.zoom(factor, anchor);
            zoom.scroll(scroll);
            let visible = zoom.visible();
            prop_assert!(visible.start >= full.start);
            prop_assert!(visible.end <= full.end);
            prop_assert!(!visible.is_empty());
        }
    }
}

// ---------------------------------------------------------------------------
// Anomaly detection is stable under rigid time shifts
// ---------------------------------------------------------------------------

/// A small trace with one engineered idle phase, one NUMA-remote task and one duration
/// outlier, with every timestamp offset by `shift`.
fn anomaly_fixture_trace(shift: u64) -> Trace {
    use aftermath_trace::{AccessKind, NumaNodeId};
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
    let ty = b.add_task_type("w", 0x1000);
    b.add_region(0x1000, 4096, Some(NumaNodeId(0)));
    b.add_region(0x10_000, 4096, Some(NumaNodeId(1)));
    let at = |t: u64| Timestamp(t + shift);
    // 12 well-behaved local tasks of 100 cycles on cpu0/node0...
    for i in 0..12u64 {
        let t = b.add_task(ty, CpuId(0), at(i * 200), at(i * 200), at(i * 200 + 100));
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            at(i * 200),
            at(i * 200 + 100),
            Some(t),
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            at(i * 200 + 100),
            at(i * 200 + 200),
            None,
        )
        .unwrap();
        b.add_access(t, AccessKind::Read, 0x1000, 512).unwrap();
    }
    // ...an idle phase on cpu1 for the whole run...
    b.add_state(CpuId(1), WorkerState::Idle, at(0), at(2_400), None)
        .unwrap();
    // ...one fully remote task and one 20x duration outlier.
    let remote = b.add_task(ty, CpuId(0), at(2_400), at(2_400), at(2_500));
    b.add_state(
        CpuId(0),
        WorkerState::TaskExecution,
        at(2_400),
        at(2_500),
        Some(remote),
    )
    .unwrap();
    b.add_access(remote, AccessKind::Read, 0x10_000, 2048)
        .unwrap();
    let slow = b.add_task(ty, CpuId(1), at(2_400), at(2_400), at(4_400));
    b.add_state(
        CpuId(1),
        WorkerState::TaskExecution,
        at(2_400),
        at(4_400),
        Some(slow),
    )
    .unwrap();
    b.add_access(slow, AccessKind::Read, 0x1000, 512).unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn anomaly_detection_is_shift_invariant(shift in 0u64..1_000_000_000) {
        use aftermath_core::anomaly::AnomalyConfig;
        let base_trace = anomaly_fixture_trace(0);
        let shifted_trace = anomaly_fixture_trace(shift);
        let base = AnalysisSession::new(&base_trace)
            .detect_anomalies(&AnomalyConfig::default()).unwrap();
        let shifted = AnalysisSession::new(&shifted_trace)
            .detect_anomalies(&AnomalyConfig::default()).unwrap();
        prop_assert!(!base.is_empty(), "fixture must contain detectable anomalies");
        prop_assert_eq!(base.len(), shifted.len());
        for (a, b) in base.iter().zip(shifted.iter()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.interval.start.0 + shift, b.interval.start.0);
            prop_assert_eq!(a.interval.end.0 + shift, b.interval.end.0);
            prop_assert_eq!(&a.cpus, &b.cpus);
            prop_assert_eq!(&a.tasks, &b.tasks);
            prop_assert!((a.severity - b.severity).abs() < 1e-12);
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// State statistics: invariants that hold whatever computes them
// ---------------------------------------------------------------------------

/// Cycles per worker state inside `window`, summed over all CPUs, by clipping every
/// recorded interval: the definition, with no session, pyramid or kernel in it.
fn clipped_state_cycles(trace: &Trace, window: TimeInterval) -> [u64; WorkerState::COUNT] {
    let mut cycles = [0u64; WorkerState::COUNT];
    for per_cpu in trace.per_cpu() {
        for s in per_cpu.states().iter() {
            cycles[s.state.index()] += s.interval.overlap_cycles(&window);
        }
    }
    cycles
}

/// The bin counts the statistics are checked at: one bin, remainders, and more bins
/// than most of the random traces have intervals.
const STATISTIC_BINS: [usize; 4] = [1, 3, 7, 256];

/// Every state statistic of `session` over its whole trace, as bit patterns.
fn state_statistics(session: &AnalysisSession<'_>) -> Vec<u64> {
    let bounds = session.time_bounds();
    let mut values = vec![average_parallelism(session, bounds)];
    values.extend(state_fractions(session, bounds));
    values.extend(state_fractions_per_cpu(session, bounds).concat());
    for bins in STATISTIC_BINS {
        for state in WorkerState::ALL {
            values.extend(
                state_concurrency(session, state, bins, bounds)
                    .unwrap()
                    .values,
            );
        }
    }
    values.into_iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn state_statistics_obey_their_definitions(trace in arbitrary_trace_strategy()) {
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        prop_assume!(!bounds.is_empty());
        let cpus: Vec<CpuId> = trace.topology().cpu_ids().collect();
        let whole = clipped_state_cycles(&trace, bounds);

        for bins in STATISTIC_BINS {
            // The bins' cycles add up to the whole interval's, state by state.
            let mut binned = [0u64; WorkerState::COUNT];
            for b in 0..bins {
                let query = session.query(bounds.bin(bins, b));
                for &cpu in &cpus {
                    for (sum, cycles) in binned.iter_mut().zip(query.state_cycles(cpu)) {
                        *sum += cycles;
                    }
                }
            }
            prop_assert_eq!(binned, whole, "{} bins", bins);
            // No more workers are in a state than there are workers.
            for state in WorkerState::ALL {
                let series = state_concurrency(&session, state, bins, bounds).unwrap();
                prop_assert!(series.values.iter().all(|&v| v <= cpus.len() as f64),
                    "{:?} at {} bins: {:?}", state, bins, series.values);
            }
        }
        // A CPU's fractions are shares of its recorded time, or all zero without any.
        for row in state_fractions_per_cpu(&session, bounds) {
            let sum: f64 = row.iter().sum();
            prop_assert!(row == [0.0; WorkerState::COUNT] || (sum - 1.0).abs() < 1e-9, "{:?}", row);
        }
        prop_assert_eq!(
            average_parallelism(&session, bounds),
            whole[WorkerState::TaskExecution.index()] as f64 / bounds.duration() as f64
        );

        // The same numbers whoever owns the pyramids: built on demand above,
        // prewarmed, or handed to a view by a shared session.
        let expected = state_statistics(&session);
        let warm = AnalysisSession::new(&trace);
        warm.prewarm(Threads::new(2));
        prop_assert_eq!(&state_statistics(&warm), &expected);
        let shared = SharedSession::open(std::sync::Arc::new(trace.clone()), Threads::single());
        prop_assert_eq!(&shared.with_view(Need::WholeTrace, state_statistics), &expected);
    }
}

// ---------------------------------------------------------------------------
// Simulator invariants on random DAG workloads
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn simulator_schedules_respect_dependences_on_random_dags(
        layers in 1usize..5,
        width in 1usize..6,
        edge_probability in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let spec = synthetic::random_layered_dag(&synthetic::LayeredDagConfig {
            layers,
            width,
            work_cycles: 10_000,
            region_bytes: 4096,
            edge_probability,
            seed,
        });
        let result = Simulator::new(SimConfig::small_test().with_seed(seed))
            .run(&spec)
            .unwrap();
        prop_assert_eq!(result.trace.tasks().len(), layers * width);

        // Every reconstructed dependence is respected by the schedule and no worker ever
        // executes two tasks at the same time (already enforced by trace validation).
        let session = AnalysisSession::new(&result.trace);
        let graph = session.task_graph().unwrap();
        for task in result.trace.tasks() {
            for &p in graph.predecessors(task.id) {
                let pred = &result.trace.tasks()[p as usize];
                prop_assert!(task.execution.start >= pred.execution.end);
            }
        }
    }
}
