//! Equivalence of store-backed sessions ([`aftermath_core::StoreSession`])
//! with fully resident [`AnalysisSession`]s: block-skipped timeline frames in
//! all six modes and both explicit engines, interval queries, and
//! capped-residency sweeps must answer byte-identically to a session over the
//! original in-memory trace.

use aftermath_core::{
    AnalysisSession, StoreSession, TaskFilter, TimelineEngine, TimelineMode, TimelineModel,
};
use aftermath_trace::store::{write_store_bytes, LaneId, LaneResidency, StoreOptions, StoredTrace};
use aftermath_trace::{
    AccessKind, CpuId, DiscreteEventKind, MachineTopology, NumaNodeId, TaskTypeId, TimeInterval,
    Timestamp, Trace, TraceBuilder, WorkerState,
};
use proptest::prelude::*;

/// A NUMA-rich fixture on a 2-node × 2-CPU machine: `rows` tasks alternating
/// over all four CPUs, each executing inside a state interval, reading from
/// one node's region and writing the other's, with idle gaps, steal events
/// and a counter sampled on every task boundary. All six timeline modes
/// produce non-trivial frames over it.
fn numa_trace(rows: u64) -> Trace {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
    let ty_a = b.add_task_type("stencil", 0x1000);
    let ty_b = b.add_task_type("reduce", 0x2000);
    let ctr = b.add_counter("cycles", true);
    b.add_region(0x10_000, 0x1000, Some(NumaNodeId(0)));
    b.add_region(0x20_000, 0x1000, Some(NumaNodeId(1)));
    for i in 0..rows {
        let cpu = CpuId((i % 4) as u32);
        let t0 = i * 100;
        let t1 = t0 + 40 + (i % 5) * 10;
        let ty = if i % 3 == 0 { ty_b } else { ty_a };
        let task = b.add_task(ty, cpu, Timestamp(t0), Timestamp(t0), Timestamp(t1));
        b.add_state(
            cpu,
            WorkerState::TaskExecution,
            Timestamp(t0),
            Timestamp(t1),
            Some(task),
        )
        .unwrap();
        b.add_state(
            cpu,
            WorkerState::Idle,
            Timestamp(t1),
            Timestamp(t0 + 100),
            None,
        )
        .unwrap();
        // Read near, write far (and vice versa every third task) so dominant
        // read/write nodes and the remote fraction vary across cells.
        let (near, far) = (0x10_000 + (i % 16) * 64, 0x20_000 + (i % 16) * 64);
        let (rd, wr) = if i % 3 == 0 { (far, near) } else { (near, far) };
        b.add_access(task, AccessKind::Read, rd, 64).unwrap();
        b.add_access(task, AccessKind::Write, wr, 64).unwrap();
        b.add_event(cpu, Timestamp(t0), DiscreteEventKind::TaskCreate { task })
            .unwrap();
        b.add_sample(ctr, cpu, Timestamp(t0), (i * 7 % 101) as f64)
            .unwrap();
    }
    b.finish().unwrap()
}

fn all_modes() -> [TimelineMode; 6] {
    [
        TimelineMode::State,
        TimelineMode::Heatmap {
            min_duration: 10,
            max_duration: 120,
        },
        TimelineMode::TaskType,
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
    ]
}

fn store_session(trace: &Trace, block_rows: usize) -> StoreSession {
    let bytes = write_store_bytes(trace, &StoreOptions { block_rows }).unwrap();
    StoreSession::from_store(StoredTrace::from_bytes(bytes).unwrap())
}

/// The filters a frame is drawn with, by index: none, one reading the access
/// table by each node criterion, one by task type, and one combining a node
/// and a duration criterion.
fn drawn_filter(k: usize) -> TaskFilter {
    match k {
        0 => TaskFilter::new(),
        1 => TaskFilter::new().with_reads_from_node(NumaNodeId(0)),
        2 => TaskFilter::new().with_writes_to_node(NumaNodeId(1)),
        3 => TaskFilter::new().with_task_type(TaskTypeId(0)),
        _ => TaskFilter::new()
            .with_reads_from_node(NumaNodeId(1))
            .with_min_duration(45),
    }
}

/// The reference frame from a fully resident in-memory session.
fn reference_frame(
    trace: &Trace,
    mode: TimelineMode,
    interval: TimeInterval,
    columns: usize,
    filter: &TaskFilter,
    engine: TimelineEngine,
) -> TimelineModel {
    let session = AnalysisSession::new(trace);
    TimelineModel::build_with_engine(&session, mode, interval, columns, filter, engine).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Block-skipped frames from the store match the fully resident session
    /// for all six modes and both explicit engines, over random windows and
    /// filters.
    #[test]
    fn six_modes_match_fully_resident(
        rows in 16u64..80,
        block_rows in 1usize..24,
        win_a in 0u64..4000,
        win_len in 50u64..4000,
        columns in 1usize..48,
        filter in (0usize..5).prop_map(drawn_filter),
    ) {
        let trace = numa_trace(rows);
        let window = TimeInterval::from_cycles(win_a, win_a + win_len);
        for engine in [TimelineEngine::Scan, TimelineEngine::Pyramid] {
            let mut store = store_session(&trace, block_rows);
            for mode in all_modes() {
                let got = store
                    .timeline_with_engine(mode, window, columns, &filter, engine)
                    .unwrap();
                let want = reference_frame(&trace, mode, window, columns, &filter, engine);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// A residency budget changes memory usage, never answers: a capped
    /// session replays a zoom sweep byte-identically while staying under the
    /// cap between frames.
    #[test]
    fn capped_budget_answers_identical(
        rows in 32u64..96,
        block_rows in 2usize..16,
        budget_frac in 1usize..8,
    ) {
        let trace = numa_trace(rows);
        let full_bytes = trace.resident_event_bytes();
        let budget = full_bytes * budget_frac / 8;
        let mut store = store_session(&trace, block_rows);
        store.set_residency_budget(Some(budget));
        let bounds = store.time_bounds();
        for factor in [1u64, 4, 16] {
            let span = bounds.duration().max(1) / factor;
            let window = TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + span);
            for mode in all_modes() {
                let got = store
                    .timeline_with_engine(mode, window, 32, &TaskFilter::new(), TimelineEngine::Scan)
                    .unwrap();
                let want = reference_frame(
                    &trace, mode, window, 32, &TaskFilter::new(), TimelineEngine::Scan,
                );
                prop_assert_eq!(&got, &want);
                prop_assert!(store.resident_event_bytes() <= budget);
            }
        }
    }

    /// `StoreSession::query` answers every interval-query accessor exactly as
    /// the fully resident session does.
    #[test]
    fn interval_queries_match_fully_resident(
        rows in 16u64..80,
        block_rows in 1usize..24,
        win_a in 0u64..4000,
        win_len in 50u64..4000,
    ) {
        let trace = numa_trace(rows);
        let window = TimeInterval::from_cycles(win_a, win_a + win_len);
        let session = AnalysisSession::new(&trace);
        let reference = session.query(window);
        let mut store = store_session(&trace, block_rows);
        let ctr = session.counter_id("cycles").unwrap();
        let filter = TaskFilter::new();
        for cpu in (0..4).map(CpuId) {
            let got = store
                .query(window, |q| {
                    (
                        q.state_cycles(cpu),
                        q.predominant_state(cpu),
                        q.predominant_task(cpu, &filter).cloned(),
                        q.task_type_cycles(cpu),
                        q.numa_bytes(cpu, AccessKind::Read),
                        q.numa_bytes(cpu, AccessKind::Write),
                        q.counter_min_max(cpu, ctr),
                        q.counter_average(cpu, ctr),
                    )
                })
                .unwrap();
            prop_assert_eq!(got.0, reference.state_cycles(cpu));
            prop_assert_eq!(got.1, reference.predominant_state(cpu));
            prop_assert_eq!(got.2, reference.predominant_task(cpu, &filter).cloned());
            prop_assert_eq!(got.3, reference.task_type_cycles(cpu));
            prop_assert_eq!(got.4, reference.numa_bytes(cpu, AccessKind::Read));
            prop_assert_eq!(got.5, reference.numa_bytes(cpu, AccessKind::Write));
            prop_assert_eq!(got.6, reference.counter_min_max(cpu, ctr));
            prop_assert_eq!(got.7, reference.counter_average(cpu, ctr));
        }
    }
}

/// A deep-zoomed scan frame over a many-block store leaves the state lanes
/// partially resident — the whole point of block skipping.
#[test]
fn deep_zoom_scan_frame_is_partial() {
    let trace = numa_trace(256);
    let mut store = store_session(&trace, 4);
    let bounds = store.store().time_bounds().unwrap();
    let mid = bounds.start.0 + bounds.duration() / 2;
    let window = TimeInterval::from_cycles(mid, mid + bounds.duration() / 64);
    let got = store
        .timeline_with_engine(
            TimelineMode::State,
            window,
            16,
            &TaskFilter::new(),
            TimelineEngine::Scan,
        )
        .unwrap();
    assert_eq!(
        got,
        reference_frame(
            &trace,
            TimelineMode::State,
            window,
            16,
            &TaskFilter::new(),
            TimelineEngine::Scan
        )
    );
    for cpu in (0..4).map(CpuId) {
        assert_eq!(
            store.store().residency(LaneId::States(cpu)),
            LaneResidency::Partial,
            "cpu{} states lane should be partially resident",
            cpu.0
        );
    }
    // The full trace was never decoded.
    assert!(store.resident_event_bytes() < trace.resident_event_bytes());
}

/// The adaptive engine (the default) also matches end to end, including the
/// pyramid persistence path across repeated frames.
#[test]
fn adaptive_frames_match_and_reuse_pyramids() {
    let trace = numa_trace(128);
    let mut store = store_session(&trace, 8);
    let bounds = store.time_bounds();
    let session = AnalysisSession::new(&trace);
    for columns in [8usize, 32, 48] {
        for mode in all_modes() {
            let got = store.timeline(mode, bounds, columns).unwrap();
            let want = session.timeline(mode, bounds, columns).unwrap();
            assert_eq!(got, *want);
        }
    }
}

// ---------------------------------------------------------------------------
// One thread budget, one shard-building routine, finer detector units: no
// answer may depend on any of them.
// ---------------------------------------------------------------------------

use aftermath_core::anomaly::{detect_anomalies_with, AnomalyConfig};
use aftermath_core::Threads;
use aftermath_trace::error::TraceError;
use aftermath_trace::store::{ColdTier, MemoryTier};
use aftermath_trace::{FaultConfig, FaultEvent, FaultyTier};

fn thread_budgets() -> [Threads; 3] {
    [Threads::single(), Threads::new(2), Threads::auto()]
}

/// Everything `IntervalQuery` answers for one CPU, as one comparable value.
fn query_bundle(
    q: &aftermath_core::IntervalQuery<'_, '_>,
    cpu: CpuId,
    ctr: aftermath_trace::CounterId,
) -> String {
    let filter = TaskFilter::new();
    format!(
        "{:?}",
        (
            q.state_cycles(cpu),
            q.predominant_state(cpu),
            q.predominant_task(cpu, &filter),
            q.exec_stats(cpu),
            q.task_type_cycles(cpu),
            q.numa_bytes(cpu, AccessKind::Read),
            q.numa_bytes(cpu, AccessKind::Write),
            q.counter_min_max(cpu, ctr),
            q.counter_average(cpu, ctr),
        )
    )
}

/// Frames (scan, pyramid and adaptive engines), the query bundle and the
/// anomaly report of a store session equal the resident session's at every
/// thread budget and at no, half and zero residency budget.
#[test]
fn answers_do_not_depend_on_thread_or_residency_budget() {
    let trace = planted_trace(1, 3);
    let resident = AnalysisSession::new(&trace);
    let bounds = resident.time_bounds();
    let ctr = resident.counter_id("counter0").unwrap();
    let window = TimeInterval::from_cycles(
        bounds.start.0 + bounds.duration() / 3,
        bounds.start.0 + bounds.duration() / 2,
    );
    let config = AnomalyConfig::default();
    let want_report = resident.detect_anomalies(&config).unwrap();
    assert!(!want_report.is_empty(), "the fixture must rank something");
    let full = trace.resident_event_bytes();
    for threads in thread_budgets() {
        for budget in [None, Some(full / 2), Some(0)] {
            let what = format!("threads {threads}, budget {budget:?}");
            let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 16 }).unwrap();
            let mut stored = StoredTrace::from_bytes(bytes).unwrap();
            stored.set_decode_threads(threads);
            let mut store = StoreSession::from_store(stored);
            store.set_residency_budget(budget);
            assert_eq!(
                store.first_frame(48).unwrap(),
                reference_frame(
                    &trace,
                    TimelineMode::State,
                    bounds,
                    48,
                    &TaskFilter::new(),
                    TimelineEngine::Scan
                ),
                "{what}"
            );
            for cpu in (0..4).map(CpuId) {
                let got = store.query(window, |q| query_bundle(q, cpu, ctr)).unwrap();
                assert_eq!(
                    got,
                    query_bundle(&resident.query(window), cpu, ctr),
                    "{what}"
                );
            }
            let report = store.detect_anomalies(&config).unwrap();
            assert_eq!(*report, *want_report, "{what}");
            for engine in [TimelineEngine::Pyramid, TimelineEngine::Adaptive] {
                for mode in all_modes() {
                    let got = store
                        .timeline_with_engine(mode, window, 24, &TaskFilter::new(), engine)
                        .unwrap();
                    let want = TimelineModel::build_with_engine(
                        &resident,
                        mode,
                        window,
                        24,
                        &TaskFilter::new(),
                        engine,
                    )
                    .unwrap();
                    assert_eq!(got, want, "{what}, {engine:?}");
                }
            }
            if let Some(budget) = budget {
                assert!(store.resident_event_bytes() <= budget, "{what}");
            }
        }
    }
}

/// A salvaged store answers frames and queries inside its covered span
/// byte-identically at every thread budget (whole-trace scans are not exact
/// on a damaged store and are not asked for).
#[test]
fn salvaged_answers_inside_the_covered_span_at_every_thread_budget() {
    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let mut bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).unwrap();
    let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
    let first = probe
        .lane_directory(LaneId::States(CpuId(1)))
        .unwrap()
        .blocks[0];
    bytes[first.offset as usize + 2] ^= 0x20;
    for threads in thread_budgets() {
        let mut stored = StoredTrace::from_bytes_salvage(bytes.clone()).unwrap();
        stored.set_decode_threads(threads);
        let mut store = StoreSession::from_store(stored);
        let coverage = store.coverage().expect("salvaged");
        assert!(!coverage.clean);
        let span = coverage
            .full_span
            .expect("time-sorted lanes survive in part");
        let end = span.end.0.min(store.time_bounds().end.0);
        let window =
            TimeInterval::from_cycles(span.start.0, span.start.0 + (end - span.start.0) / 2);
        assert!(coverage.allows_query(window) && !window.is_empty());
        for mode in all_modes() {
            assert!(coverage.allows_timeline(mode, window));
            for engine in [TimelineEngine::Scan, TimelineEngine::Adaptive] {
                let got = store
                    .timeline_with_engine(mode, window, 24, &TaskFilter::new(), engine)
                    .unwrap();
                let want = TimelineModel::build_with_engine(
                    &resident,
                    mode,
                    window,
                    24,
                    &TaskFilter::new(),
                    engine,
                )
                .unwrap();
                assert_eq!(got, want, "threads {threads}, {mode:?}, {engine:?}");
            }
        }
        for cpu in (0..4).map(CpuId) {
            let got = store.query(window, |q| query_bundle(q, cpu, ctr)).unwrap();
            assert_eq!(got, query_bundle(&resident.query(window), cpu, ctr));
        }
    }
}

/// Salvage-opens `trace`'s store at `block_rows` with one byte flipped in the
/// middle block of `lane`; returns the session and that block's footer.
fn salvaged_with_middle_block_damaged(
    trace: &Trace,
    block_rows: usize,
    lane: LaneId,
) -> (StoreSession, aftermath_trace::store::BlockFooter) {
    let mut bytes = write_store_bytes(trace, &StoreOptions { block_rows }).unwrap();
    let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
    let blocks = &probe.lane_directory(lane).unwrap().blocks;
    let damaged = blocks[blocks.len() / 2];
    bytes[damaged.offset as usize + 2] ^= 0x20;
    let stored = StoredTrace::from_bytes_salvage(bytes).unwrap();
    (StoreSession::from_store(stored), damaged)
}

/// A query reads no event lane, so a quarantined event block does not shrink
/// the span a salvaged store answers queries over: a query whose window
/// covers that block equals the resident session's, per CPU.
#[test]
fn a_damaged_event_block_leaves_queries_over_it_answerable() {
    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let (mut store, damaged) =
        salvaged_with_middle_block_damaged(&trace, 4, LaneId::Events(CpuId(1)));
    let coverage = store.coverage().expect("salvaged");
    assert!(!coverage.clean && coverage.lost_lanes.is_empty());
    let window = TimeInterval::from_cycles(damaged.min_key - 300, damaged.max_key + 300);
    for cpu in (0..4).map(CpuId) {
        let got = store.query(window, |q| query_bundle(q, cpu, ctr)).unwrap();
        assert_eq!(
            got,
            query_bundle(&resident.query(window), cpu, ctr),
            "{cpu}"
        );
    }
}

/// A point lane's covered span starts one cycle past the quarantined block
/// before it: a salvaged store whose first block of CPU 2's sample lane is
/// damaged answers a query from the span's start exactly, on every CPU — the
/// lost block's last sample sits at its last key.
#[test]
fn a_quarantined_sample_block_leaves_its_last_key_outside_the_span() {
    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let lane = LaneId::Samples(CpuId(2), ctr);
    let mut bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
    let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
    let first = probe.lane_directory(lane).unwrap().blocks[0];
    bytes[first.offset as usize + 2] ^= 0x20;
    let mut store = StoreSession::from_store(StoredTrace::from_bytes_salvage(bytes).unwrap());
    let coverage = store.coverage().expect("salvaged");
    let span = coverage.full_span.expect("the lane survives in part");
    assert!(!coverage.clean && coverage.lost_lanes.is_empty());
    assert_eq!(span.start.0, first.max_key + 1);
    let window = TimeInterval::from_cycles(span.start.0, span.end.0.min(store.time_bounds().end.0));
    assert!(coverage.allows_query(window) && !window.is_empty());
    for cpu in (0..4).map(CpuId) {
        let got = store.query(window, |q| query_bundle(q, cpu, ctr)).unwrap();
        assert_eq!(
            got,
            query_bundle(&resident.query(window), cpu, ctr),
            "{cpu}"
        );
    }
}

/// A salvaged lane is whole once its surviving run is resident, and keeps its
/// shards like any whole lane: over a sample lane with an interior block
/// quarantined, the first query builds its index and the second re-reads it —
/// it builds nothing and re-uses every index and pyramid. Every answer is the
/// resident one.
#[test]
fn a_salvaged_lane_keeps_its_shards() {
    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let partial = LaneId::Samples(CpuId(2), ctr);
    let (mut store, _) = salvaged_with_middle_block_damaged(&trace, 4, partial);
    let sample_lanes = store
        .store()
        .lanes()
        .filter(|lane| matches!(lane, LaneId::Samples(..)))
        .count() as u64;
    let span = store
        .coverage()
        .unwrap()
        .full_span
        .expect("the lane survives in part");
    let window = TimeInterval::from_cycles(span.start.0, span.end.0.min(store.time_bounds().end.0));
    // Every state lane whole, so the queries' views may build pyramids.
    store.first_frame(32).unwrap();
    let cpus = || (0..4).map(CpuId);
    let want: Vec<String> = cpus()
        .map(|cpu| query_bundle(&resident.query(window), cpu, ctr))
        .collect();
    let query = |store: &mut StoreSession| {
        let got = store.query(window, |q| {
            cpus()
                .map(|cpu| query_bundle(q, cpu, ctr))
                .collect::<Vec<_>>()
        });
        assert_eq!(got.unwrap(), want);
        store.stats()
    };
    let first = query(&mut store);
    assert_eq!(store.store().residency(partial), LaneResidency::Full);
    assert!(first.pyramid_builds > 0);
    assert_eq!(first.index_builds, sample_lanes);
    assert_eq!(first.shards_reseeded, 0);
    let second = query(&mut store);
    assert_eq!(
        (second.index_builds, second.pyramid_builds),
        (first.index_builds, first.pyramid_builds)
    );
    assert_eq!(
        second.shards_reseeded - first.shards_reseeded,
        sample_lanes + first.pyramid_builds
    );
}

/// The point of building shards through one routine: after the first frame,
/// a query and a report on an unbudgeted session, every pyramid, every
/// counter index and the access index has been built exactly once — and a
/// second query builds nothing, it re-seeds.
#[test]
fn stats_show_every_shard_built_once() {
    let trace = numa_trace(160);
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 16 }).unwrap();
    let stored = StoredTrace::from_bytes(bytes).unwrap();
    let lanes: Vec<LaneId> = stored.lanes().collect();
    let stored_bytes: u64 = lanes
        .iter()
        .flat_map(|&lane| &stored.lane_directory(lane).unwrap().blocks)
        .map(|b| b.len)
        .sum();
    let stored_blocks: usize = lanes
        .iter()
        .map(|&lane| stored.lane_directory(lane).unwrap().blocks.len())
        .sum();
    let state_lanes = lanes
        .iter()
        .filter(|l| matches!(l, LaneId::States(_)))
        .count();
    let sample_lanes = lanes
        .iter()
        .filter(|l| matches!(l, LaneId::Samples(..)))
        .count();
    assert!(state_lanes > 0 && sample_lanes > 0);

    let mut store = StoreSession::from_store(stored);
    let bounds = store.time_bounds();
    let window = TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + bounds.duration() / 4);
    store.first_frame(32).unwrap();
    let after_frame = store.stats();
    assert_eq!(after_frame.lanes_materialised as usize, state_lanes);
    assert_eq!(
        (after_frame.pyramid_builds, after_frame.index_builds),
        (0, 0)
    );
    assert_eq!(after_frame.access_index_builds, 0);
    store.query(window, |q| q.state_cycles(CpuId(0))).unwrap();
    store.detect_anomalies(&AnomalyConfig::default()).unwrap();
    let warm = store.stats();
    assert_eq!(warm.pyramid_builds as usize, state_lanes);
    assert_eq!(warm.index_builds as usize, sample_lanes);
    assert_eq!(warm.access_index_builds, 1);
    // Every lane was read and decoded once, whole.
    assert_eq!(warm.lanes_materialised as usize, lanes.len());
    assert_eq!(warm.blocks_decoded as usize, stored_blocks);
    assert_eq!(warm.bytes_read, stored_bytes);

    store.query(window, |q| q.state_cycles(CpuId(1))).unwrap();
    let again = store.stats();
    assert_eq!(
        (again.pyramid_builds, again.index_builds, again.bytes_read),
        (warm.pyramid_builds, warm.index_builds, warm.bytes_read),
        "a second query builds and reads nothing"
    );
    assert_eq!(again.access_index_builds, 1);
    assert_eq!(
        (again.shards_reseeded - warm.shards_reseeded) as usize,
        state_lanes + sample_lanes
    );
}

/// A request reads what its answer reads, whatever the engine: a default-engine
/// state frame reads the block runs of the state lanes it covers and no table,
/// so it builds no pyramid; a query reads no event lane, and over partially
/// resident state lanes builds no pyramid either; a report reads every lane and
/// builds each state lane's pyramid once. Every answer is the resident one.
#[test]
fn a_store_reads_what_each_answer_reads() {
    let trace = numa_trace(512);
    let resident = AnalysisSession::new(&trace);
    let mut store = store_session(&trace, 8);
    let lanes: Vec<LaneId> = store.store().lanes().collect();
    let state_lanes: Vec<LaneId> = lanes
        .iter()
        .copied()
        .filter(|lane| matches!(lane, LaneId::States(_)))
        .collect();
    let stored = store.store();
    let state_bytes: u64 = state_lanes
        .iter()
        .flat_map(|&lane| &stored.lane_directory(lane).unwrap().blocks)
        .map(|b| b.len)
        .sum();
    let bounds = store.time_bounds();
    let start = bounds.start.0 + bounds.duration() / 2;
    let eighth = TimeInterval::from_cycles(start, start + bounds.duration() / 8);
    let absent =
        |store: &mut StoreSession, lane| store.store().residency(lane) == LaneResidency::Absent;

    // (a) A default-engine state frame.
    let frame = store.timeline(TimelineMode::State, eighth, 32).unwrap();
    assert_eq!(
        frame,
        *resident.timeline(TimelineMode::State, eighth, 32).unwrap()
    );
    let after_frame = store.stats();
    assert!(
        after_frame.bytes_read < state_bytes,
        "{} of {state_bytes} state bytes read",
        after_frame.bytes_read
    );
    assert!(absent(&mut store, LaneId::Tasks) && absent(&mut store, LaneId::Accesses));
    assert_eq!(after_frame.pyramid_builds, 0);

    // (b) A query over the same window.
    let ctr = resident.counter_id("cycles").unwrap();
    for cpu in (0..4).map(CpuId) {
        let got = store.query(eighth, |q| query_bundle(q, cpu, ctr)).unwrap();
        assert_eq!(got, query_bundle(&resident.query(eighth), cpu, ctr));
    }
    let events: Vec<&LaneId> = lanes
        .iter()
        .filter(|lane| matches!(lane, LaneId::Events(_)))
        .collect();
    assert!(!events.is_empty());
    assert!(events.into_iter().all(|&lane| absent(&mut store, lane)));
    assert_eq!(store.stats().pyramid_builds, 0);

    // (c) A report.
    let config = AnomalyConfig::default();
    let report = store.detect_anomalies(&config).unwrap();
    assert_eq!(*report, *resident.detect_anomalies(&config).unwrap());
    assert_eq!(store.stats().pyramid_builds as usize, state_lanes.len());
}

/// A frame reads what its cells and its filter read: a heatmap or typemap
/// frame filtered by a NUMA node reads the access table. A strict store loads
/// it at every budget and engine, and answers such a frame — through
/// `timeline_with_engine` and through a view of `Need::frame` — as the
/// resident session does. A salvaged store that lost the access table refuses
/// it, and still answers the unfiltered typemap frame and the state frame over
/// the same window.
#[test]
fn a_node_filter_reads_the_access_table_or_is_refused() {
    use aftermath_core::{AnalysisError, Need};

    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 16 }).unwrap();
    let bounds = trace.time_bounds();
    let quarter = bounds.duration() / 4;
    let windows = [
        bounds,
        TimeInterval::from_cycles(bounds.start.0 + quarter, bounds.end.0 - quarter),
    ];
    let modes = [
        TimelineMode::Heatmap {
            min_duration: 10,
            max_duration: 120,
        },
        TimelineMode::TaskType,
    ];
    let filters = [
        TaskFilter::new().with_reads_from_node(NumaNodeId(1)),
        TaskFilter::new().with_writes_to_node(NumaNodeId(0)),
    ];
    let engines = [
        TimelineEngine::Scan,
        TimelineEngine::Pyramid,
        TimelineEngine::Adaptive,
    ];
    let want = |mode, window, filter: &TaskFilter, engine| {
        TimelineModel::build_with_engine(&resident, mode, window, 24, filter, engine).unwrap()
    };

    let full = trace.resident_event_bytes();
    for budget in [Some(0), Some(full / 2), None] {
        let mut store = StoreSession::from_store(StoredTrace::from_bytes(bytes.clone()).unwrap());
        store.set_residency_budget(budget);
        for window in windows {
            for mode in modes {
                for filter in &filters {
                    let what = format!("budget {budget:?}, {window}, {mode:?}, {filter:?}");
                    for engine in engines {
                        let got = store
                            .timeline_with_engine(mode, window, 24, filter, engine)
                            .unwrap();
                        assert_eq!(
                            got,
                            want(mode, window, filter, engine),
                            "{what}, {engine:?}"
                        );
                    }
                    let got = store
                        .with_view(Need::frame(mode, window, filter), |view| {
                            view.timeline_filtered(mode, window, 24, filter)
                        })
                        .unwrap()
                        .unwrap();
                    let engine = TimelineEngine::Adaptive;
                    assert_eq!(*got, want(mode, window, filter, engine), "{what}, a view");
                }
            }
        }
    }

    let mut damaged = bytes.clone();
    let probe = StoredTrace::from_bytes(bytes).unwrap();
    let first = probe.lane_directory(LaneId::Accesses).unwrap().blocks[0];
    damaged[first.offset as usize + 2] ^= 0x20;
    let mut store = StoreSession::from_store(StoredTrace::from_bytes_salvage(damaged).unwrap());
    assert_eq!(store.coverage().unwrap().lost_lanes, vec![LaneId::Accesses]);
    let (window, engine) = (windows[1], TimelineEngine::Adaptive);
    for filter in &filters {
        let got = store.timeline_with_engine(TimelineMode::TaskType, window, 24, filter, engine);
        assert!(
            matches!(got, Err(AnalysisError::OutsideCoverage { .. })),
            "{filter:?}: {got:?}"
        );
    }
    let unfiltered = TaskFilter::new();
    for mode in [TimelineMode::TaskType, TimelineMode::State] {
        let got = store
            .timeline_with_engine(mode, window, 24, &unfiltered, engine)
            .unwrap();
        assert_eq!(got, want(mode, window, &unfiltered, engine), "{mode:?}");
    }
}

/// The access index is persisted like a pyramid: built once over the fully
/// resident task and access lanes, it survives their eviction at any budget
/// and is shared again once they are back — and no answer changes. Strict and
/// salvaged stores, the latter inside its covered span.
#[test]
fn access_index_survives_eviction_and_is_built_once() {
    let trace = numa_trace(160);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let config = AnomalyConfig::default();
    let want_report = resident.detect_anomalies(&config).unwrap();
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).unwrap();
    let mut damaged = bytes.clone();
    let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
    let first = probe
        .lane_directory(LaneId::States(CpuId(1)))
        .unwrap()
        .blocks[0];
    damaged[first.offset as usize + 2] ^= 0x20;
    let full = trace.resident_event_bytes();

    for budget in [Some(0), Some(full / 2)] {
        for salvaged in [false, true] {
            let what = format!("budget {budget:?}, salvaged {salvaged}");
            let stored = if salvaged {
                StoredTrace::from_bytes_salvage(damaged.clone()).unwrap()
            } else {
                StoredTrace::from_bytes(bytes.clone()).unwrap()
            };
            let mut store = StoreSession::from_store(stored);
            store.set_residency_budget(budget);
            let window = match store.coverage() {
                Some(coverage) => {
                    let span = coverage.full_span.expect("lanes survive in part");
                    let end = span.end.0.min(store.time_bounds().end.0);
                    TimeInterval::from_cycles(span.start.0, span.start.0 + (end - span.start.0) / 2)
                }
                None => {
                    let bounds = store.time_bounds();
                    TimeInterval::from_cycles(
                        bounds.start.0 + bounds.duration() / 4,
                        bounds.start.0 + bounds.duration() / 2,
                    )
                }
            };
            let frame = |store: &mut StoreSession, mode, engine| {
                let got = store
                    .timeline_with_engine(mode, window, 24, &TaskFilter::new(), engine)
                    .unwrap();
                let want = TimelineModel::build_with_engine(
                    &resident,
                    mode,
                    window,
                    24,
                    &TaskFilter::new(),
                    engine,
                )
                .unwrap();
                assert_eq!(got, want, "{what}, {mode:?}, {engine:?}");
            };
            // A scan-engine state frame touches neither lane and builds nothing.
            frame(&mut store, TimelineMode::State, TimelineEngine::Scan);
            assert_eq!(store.stats().access_index_builds, 0, "{what}");
            let mut evictions = 0;
            for round in 0..3 {
                type Request<'a> = &'a dyn Fn(&mut StoreSession);
                let script: [Request<'_>; 6] = [
                    &|s| frame(s, TimelineMode::NumaRead, TimelineEngine::Pyramid),
                    &|s| frame(s, TimelineMode::State, TimelineEngine::Scan),
                    &|s| frame(s, TimelineMode::NumaHeat, TimelineEngine::Scan),
                    &|s| {
                        for cpu in (0..4).map(CpuId) {
                            let got = s.query(window, |q| query_bundle(q, cpu, ctr)).unwrap();
                            assert_eq!(got, query_bundle(&resident.query(window), cpu, ctr));
                        }
                    },
                    &|s| frame(s, TimelineMode::NumaWrite, TimelineEngine::Adaptive),
                    &|s| {
                        if !salvaged {
                            assert_eq!(*s.detect_anomalies(&config).unwrap(), *want_report);
                        }
                    },
                ];
                for (step, request) in script.into_iter().enumerate() {
                    request(&mut store);
                    assert_eq!(
                        store.stats().access_index_builds,
                        1,
                        "{what}, round {round}, step {step}"
                    );
                    evictions += [LaneId::Tasks, LaneId::Accesses]
                        .iter()
                        .filter(|&&lane| store.store().residency(lane) != LaneResidency::Full)
                        .count();
                    if let Some(budget) = budget {
                        assert!(store.resident_event_bytes() <= budget, "{what}");
                    }
                }
            }
            assert!(evictions > 0, "{what}: the lanes were never evicted");
        }
    }
}

/// Shares one [`FaultyTier`] between the store (which owns its tier box) and
/// the test (which reads the fault log afterwards).
#[derive(Debug)]
struct SharedTier(std::sync::Arc<FaultyTier>);

impl ColdTier for SharedTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.0.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        self.0.read_at(offset, buf)
    }
}

/// `FaultyTier` decides the fault of read `n` from `(seed, n)` alone, so a
/// request script replays exactly — provided reads are issued in one fixed
/// order. They are: on the calling thread, whatever the thread budget.
#[test]
fn fault_replay_is_deterministic_at_every_thread_budget() {
    let trace = numa_trace(160);
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).unwrap();
    let bounds = trace.time_bounds();
    let window = TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + bounds.duration() / 3);
    let faults = FaultConfig {
        io_per_10k: 1_500,
        short_read_per_10k: 1_000,
        bit_flip_per_10k: 1_500,
        ..FaultConfig::default()
    };
    // A seed whose schedule spares the four reads of the open.
    let (seed, _) = (0..64u64)
        .map(|seed| {
            let tier = FaultyTier::new(
                Box::new(MemoryTier::new(bytes.clone())),
                FaultConfig { seed, ..faults },
            );
            (seed, StoredTrace::open_with_tier(Box::new(tier)))
        })
        .find(|(_, opened)| opened.is_ok())
        .expect("some seed opens the faulty store");

    let replay = |threads: Threads| -> (u64, Vec<FaultEvent>, Vec<String>) {
        let tier = std::sync::Arc::new(FaultyTier::new(
            Box::new(MemoryTier::new(bytes.clone())),
            FaultConfig { seed, ..faults },
        ));
        let shared = SharedTier(std::sync::Arc::clone(&tier));
        let mut stored = StoredTrace::open_with_tier(Box::new(shared)).unwrap();
        stored.set_decode_threads(threads);
        let mut store = StoreSession::from_store(stored);
        store.set_residency_budget(Some(0)); // every request reads again
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(match store.first_frame(32) {
                Ok(frame) => format!("frame {:?}", frame.cells.len()),
                Err(e) => format!("frame error: {e}"),
            });
            outcomes.push(match store.query(window, |q| q.state_cycles(CpuId(0))) {
                Ok(cycles) => format!("query {cycles:?}"),
                Err(e) => format!("query error: {e}"),
            });
            outcomes.push(match store.detect_anomalies(&AnomalyConfig::default()) {
                Ok(report) => format!("report {}", report.len()),
                Err(e) => format!("report error: {e}"),
            });
        }
        (tier.reads(), tier.fault_log(), outcomes)
    };

    let baseline = replay(Threads::single());
    assert!(
        baseline.2.iter().any(|o| o.contains("error"))
            && baseline.2.iter().any(|o| !o.contains("error")),
        "the schedule must fail some requests and spare others: {:?}",
        baseline.2
    );
    for threads in [Threads::new(2), Threads::auto(), Threads::single()] {
        assert_eq!(replay(threads), baseline, "threads {threads}");
    }
}

/// A trace with `counters` monotone counters (0, 1 or 2) over `types` task
/// types, with planted slow tasks, counter jumps, an idle phase and remote
/// accesses — so the detectors with finer parallel units all have findings
/// to order.
fn planted_trace(counters: usize, types: u32) -> Trace {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
    let tys: Vec<_> = (0..types)
        .map(|i| b.add_task_type(format!("type{i}"), 0x1000 * u64::from(i + 1)))
        .collect();
    let ctrs: Vec<_> = (0..counters)
        .map(|i| b.add_counter(format!("counter{i}"), true))
        .collect();
    b.add_region(0x10_000, 0x1000, Some(NumaNodeId(0)));
    b.add_region(0x20_000, 0x1000, Some(NumaNodeId(1)));
    let mut totals = vec![[0.0f64; 4]; counters];
    for i in 0..400u64 {
        let cpu = CpuId((i % 4) as u32);
        let t0 = i * 100 + if i >= 200 { 30_000 } else { 0 }; // an idle phase
        let slow = i % 97 == 13;
        let t1 = t0 + if slow { 95 } else { 20 + i % 3 };
        let task = b.add_task(
            tys[(i % u64::from(types)) as usize],
            cpu,
            Timestamp(t0),
            Timestamp(t0),
            Timestamp(t1),
        );
        b.add_state(
            cpu,
            WorkerState::TaskExecution,
            Timestamp(t0),
            Timestamp(t1),
            Some(task),
        )
        .unwrap();
        let remote = (120..140).contains(&i);
        let local = if cpu.0 < 2 { 0x10_000 } else { 0x20_000 };
        let addr = if remote { local ^ 0x30_000 } else { local };
        b.add_access(task, AccessKind::Read, addr + (i % 8) * 64, 64)
            .unwrap();
        for (c, &ctr) in ctrs.iter().enumerate() {
            let total = &mut totals[c][cpu.0 as usize];
            b.add_sample(ctr, cpu, Timestamp(t0), *total).unwrap();
            *total += if i % 89 == 7 + c as u64 {
                5_000.0
            } else {
                10.0 + (i % 4) as f64
            };
            b.add_sample(ctr, cpu, Timestamp(t1), *total).unwrap();
        }
    }
    b.finish().unwrap()
}

/// The ranked report is the same at 1…8 threads on the adversarial
/// ground-truth corpus and on traces with two, one and no counters and with
/// one and several task types.
#[test]
fn anomaly_reports_are_identical_for_one_to_eight_threads() {
    use aftermath_sim::{SimConfig, Simulator};
    let mut traces: Vec<(String, Trace)> = aftermath_workloads::adversarial::all(42)
        .into_iter()
        .map(|w| {
            let trace = Simulator::new(SimConfig::small_test())
                .run(&w.spec)
                .expect("adversarial workload simulates")
                .trace;
            (w.spec.name.clone(), trace)
        })
        .collect();
    for (counters, types) in [(2, 5), (1, 5), (0, 5), (1, 1)] {
        traces.push((
            format!("planted, {counters} counter(s), {types} type(s)"),
            planted_trace(counters, types),
        ));
    }
    let config = AnomalyConfig::default();
    for (name, trace) in &traces {
        let session = AnalysisSession::new(trace);
        let sequential = detect_anomalies_with(&session, &config, Threads::single()).unwrap();
        if name.starts_with("planted") {
            assert!(!sequential.is_empty(), "{name}: nothing to order");
        }
        for threads in 2..=8 {
            let parallel = detect_anomalies_with(&session, &config, Threads::new(threads)).unwrap();
            assert_eq!(parallel, sequential, "{name} at {threads} threads");
        }
    }
}

fn assert_sync<T: Sync>() {}

/// One request of the shared-session script and the resident session's answer.
enum Step {
    Frame(TimelineMode, TimeInterval, TimelineModel),
    Query(TimeInterval, Vec<String>),
    Report(std::sync::Arc<aftermath_core::anomaly::AnomalyReport>),
}

/// A store session is `Sync` and serves many threads through
/// `with_view(&self, ..)`: one session, capped at half its decoded size,
/// answers four threads' interleaved frames in all six modes, queries and a
/// report each exactly as the resident session does, and is back under its
/// budget once they are done.
#[test]
fn one_capped_session_serves_four_threads_through_a_shared_reference() {
    use aftermath_core::Need;

    assert_sync::<StoreSession>();
    let trace = numa_trace(320);
    let resident = AnalysisSession::new(&trace);
    let ctr = resident.counter_id("cycles").unwrap();
    let config = AnomalyConfig::default();
    let budget = trace.resident_event_bytes() / 2;
    let mut store = store_session(&trace, 8);
    store.set_residency_budget(Some(budget));
    let bounds = store.time_bounds();
    let cpus = || (0..4).map(CpuId);
    let scripts: Vec<Vec<Step>> = (0..4u64)
        .map(|thread| {
            let mut script = Vec::new();
            for round in 0..4 {
                let eighth = bounds.duration() / 8;
                let start = bounds.start.0 + eighth * ((thread * 3 + round) % 7);
                let window = TimeInterval::from_cycles(start, start + 2 * eighth);
                for mode in all_modes() {
                    let want = resident.timeline(mode, window, 24).unwrap();
                    script.push(Step::Frame(mode, window, (*want).clone()));
                }
                let query = resident.query(window);
                let want = cpus().map(|cpu| query_bundle(&query, cpu, ctr)).collect();
                script.push(Step::Query(window, want));
                if round == thread % 4 {
                    script.push(Step::Report(resident.detect_anomalies(&config).unwrap()));
                }
            }
            script
        })
        .collect();

    let store = &store;
    std::thread::scope(|scope| {
        for (thread, script) in scripts.iter().enumerate() {
            let config = &config;
            scope.spawn(move || {
                for (step, request) in script.iter().enumerate() {
                    let what = format!("thread {thread}, step {step}");
                    match request {
                        Step::Frame(mode, interval, want) => {
                            let need = Need::frame(*mode, *interval, &TaskFilter::new());
                            let got = store
                                .with_view(need, |view| view.timeline(*mode, *interval, 24))
                                .unwrap()
                                .unwrap();
                            assert_eq!(*got, *want, "{what}");
                        }
                        Step::Query(interval, want) => {
                            let need = Need::Query {
                                interval: *interval,
                            };
                            let got = store
                                .with_view(need, |view| {
                                    let query = view.query(*interval);
                                    cpus()
                                        .map(|cpu| query_bundle(&query, cpu, ctr))
                                        .collect::<Vec<_>>()
                                })
                                .unwrap();
                            assert_eq!(got, *want, "{what}");
                        }
                        Step::Report(want) => {
                            let got = store
                                .with_view(Need::WholeTrace, |view| view.detect_anomalies(config))
                                .unwrap()
                                .unwrap();
                            assert_eq!(*got, **want, "{what}");
                        }
                    }
                }
            });
        }
    });
    assert!(store.resident_event_bytes() <= budget);
    assert!(store.stats().lanes_materialised > 0);
}
