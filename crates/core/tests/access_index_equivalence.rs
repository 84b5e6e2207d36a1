//! Every answer a session reads through its access index
//! ([`aftermath_core::access_index`]) equals the answer of the search-based
//! `&Trace` provider — the public per-task functions of `aftermath_core::numa`,
//! `StatePyramid::build` — and, where one is cheap to state, of a naive walk over
//! the access table written out here.
//!
//! The random traces have what makes the index's job awkward: tasks without
//! accesses, accesses to addresses in no region and in an unplaced region,
//! overlapping regions, a region placed on a node id beyond `u16` (and beyond the
//! topology), tasks that never execute, an empty access table — and, through a
//! store whose access lane is resident while its task lane is not, accesses that
//! name ids beyond the task table.

use aftermath_core::numa::{
    bytes_per_node, bytes_per_node_from, dominant_node_from, dominant_read_node,
    dominant_write_node, remote_access_fraction, task_remote_fraction, task_remote_fraction_from,
};
use aftermath_core::pyramid::{overlap_range, DEFAULT_PYRAMID_FANOUT};
use aftermath_core::{
    AnalysisSession, IncidenceMatrix, StatePyramid, TaskFilter, Threads, TimelineCell,
    TimelineEngine, TimelineMode, TimelineModel,
};
use aftermath_trace::store::{write_store_bytes, LaneId, StoreOptions, StoredTrace};
use aftermath_trace::{
    AccessKind, CpuId, MachineTopology, NumaNodeId, TaskId, TimeInterval, Timestamp, Trace,
    TraceBuilder, WorkerState,
};
use proptest::prelude::*;

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The node id no topology here has and no `u16` holds.
const FAR_NODE: NumaNodeId = NumaNodeId(70_000);

fn random_trace(seed: u64, nodes: u32, tasks: u64, with_accesses: bool) -> Trace {
    let mut rng = Rng(seed);
    let topology = MachineTopology::uniform(nodes, 2);
    let cpus = topology.num_cpus() as u64;
    let mut b = TraceBuilder::new(topology);
    let types = [b.add_task_type("a", 0), b.add_task_type("b", 0)];
    // Regions of 0x100 bytes at 0x1000 * k: one per node, one unplaced, one on the
    // far node, one enclosing two of the others, and a gap nobody covers.
    for node in 0..nodes {
        b.add_region(0x1000 * u64::from(node + 1), 0x100, Some(NumaNodeId(node)));
    }
    b.add_region(0x8000, 0x100, None);
    b.add_region(0x9000, 0x100, Some(FAR_NODE));
    b.add_region(0x0800, 0x1000, Some(NumaNodeId(nodes - 1)));
    let addresses = [
        0x1000, 0x1080, 0x2000, 0x3000, 0x8000, 0x9000, 0x0900, 0xF000,
    ];

    let mut now = vec![0u64; cpus as usize];
    for _ in 0..tasks {
        let cpu = rng.below(cpus);
        let start = now[cpu as usize] + rng.below(30);
        let end = start + rng.below(120);
        now[cpu as usize] = end + rng.below(3);
        let task = b.add_task(
            types[rng.below(2) as usize],
            CpuId(cpu as u32),
            Timestamp(start),
            Timestamp(start),
            Timestamp(end),
        );
        // One task in five never shows up in a state interval.
        if rng.below(5) != 0 {
            b.add_state(
                CpuId(cpu as u32),
                WorkerState::TaskExecution,
                Timestamp(start),
                Timestamp(end),
                Some(task),
            )
            .unwrap();
        }
        if with_accesses {
            for _ in 0..rng.below(5) {
                let kind = [AccessKind::Read, AccessKind::Write][rng.below(2) as usize];
                let addr = addresses[rng.below(addresses.len() as u64) as usize] + rng.below(0x120);
                b.add_access(task, kind, addr, 1 + rng.below(4096)).unwrap();
            }
        }
    }
    b.finish().unwrap()
}

/// The node of an access, straight from the region table: the last region based
/// at or below the address, if it reaches the address and is placed.
fn naive_node(trace: &Trace, addr: u64) -> Option<NumaNodeId> {
    trace
        .regions()
        .iter()
        .rev()
        .find(|r| r.base_addr <= addr)
        .filter(|r| addr - r.base_addr < r.size)
        .and_then(|r| r.node)
}

/// `(local, remote)` bytes of every task, walking the whole access table.
fn naive_local_remote(trace: &Trace) -> Vec<(u64, u64)> {
    let mut bytes = vec![(0, 0); trace.tasks().len()];
    for a in trace.accesses().iter() {
        let Some(task) = trace.task(a.task) else {
            continue;
        };
        let Some(my_node) = trace.topology().node_of(task.cpu) else {
            continue;
        };
        match naive_node(trace, a.addr) {
            Some(node) if node == my_node => bytes[a.task.0 as usize].0 += a.size,
            Some(_) => bytes[a.task.0 as usize].1 += a.size,
            None => {}
        }
    }
    bytes
}

fn numa_modes() -> [TimelineMode; 3] {
    [
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
    ]
}

fn check_trace(trace: &Trace, seed: u64) {
    let session = AnalysisSession::new(trace);
    let indexed = session.accesses();
    let kinds = [None, Some(AccessKind::Read), Some(AccessKind::Write)];

    // Per-task answers, also for ids the trace does not have.
    let beyond = trace.tasks().len() as u64;
    let mut scratch = Vec::new();
    for id in (0..beyond + 3).chain([1 << 40, u64::MAX]).map(TaskId) {
        for kind in kinds {
            assert_eq!(
                bytes_per_node_from(trace, &indexed, id, kind),
                bytes_per_node(trace, id, kind),
                "{id:?} {kind:?}"
            );
        }
        assert_eq!(
            dominant_node_from(trace, &indexed, id, AccessKind::Read, &mut scratch),
            dominant_read_node(trace, id)
        );
        assert_eq!(
            dominant_node_from(trace, &indexed, id, AccessKind::Write, &mut scratch),
            dominant_write_node(trace, id)
        );
    }
    let local_remote = naive_local_remote(trace);
    for (task, &(local, remote)) in trace.tasks().iter().zip(&local_remote) {
        let expected = (local + remote > 0).then(|| remote as f64 / (local + remote) as f64);
        assert_eq!(
            task_remote_fraction(trace, &task),
            expected,
            "{:?}",
            task.id
        );
        assert_eq!(
            task_remote_fraction_from(trace, &indexed, &task),
            expected,
            "{:?}",
            task.id
        );
    }

    // Whole-trace folds, under a filter and without.
    let on_cpu0 = TaskFilter::new().with_cpu(CpuId(0));
    for filter in [TaskFilter::new(), on_cpu0] {
        let (mut local, mut remote) = (0u64, 0u64);
        for task in filter.filter_tasks(trace) {
            local += local_remote[task.id.0 as usize].0;
            remote += local_remote[task.id.0 as usize].1;
        }
        let expected = if local + remote == 0 {
            0.0
        } else {
            remote as f64 / (local + remote) as f64
        };
        assert_eq!(remote_access_fraction(&session, &filter), expected);

        let n = trace.topology().num_nodes();
        let mut matrix = vec![0u64; n * n];
        for task in filter.filter_tasks(trace) {
            let cpu_node = trace.topology().node_of(task.cpu).unwrap().0 as usize;
            for a in trace.accesses_of_task(task.id).iter() {
                // A node outside the topology has no row or column.
                let Some(data_node) = naive_node(trace, a.addr).filter(|d| (d.0 as usize) < n)
                else {
                    continue;
                };
                let (from, to) = match a.kind {
                    AccessKind::Read => (data_node.0 as usize, cpu_node),
                    AccessKind::Write => (cpu_node, data_node.0 as usize),
                };
                matrix[from * n + to] += a.size;
            }
        }
        match IncidenceMatrix::build(&session, &filter) {
            Ok(built) => {
                for from in 0..n {
                    for to in 0..n {
                        assert_eq!(
                            built.get(NumaNodeId(from as u32), NumaNodeId(to as u32)),
                            matrix[from * n + to]
                        );
                    }
                }
            }
            Err(_) => assert!(trace.accesses().is_empty()),
        }
    }

    // Pyramids and their per-node byte counts.
    let bounds = trace.time_bounds();
    let mut rng = Rng(seed ^ 0xABCD);
    for cpu in trace.topology().cpu_ids() {
        let states = trace.cpu(cpu).unwrap().states();
        let searched = StatePyramid::build(trace, states);
        let by_table = StatePyramid::build_from(trace, &indexed, states, DEFAULT_PYRAMID_FANOUT);
        assert_eq!(by_table, searched, "{cpu:?}");
        if let Some(pyramid) = session.pyramid(cpu) {
            assert_eq!(pyramid, &searched, "{cpu:?}");
        }
        // A small fanout so that windows cut through summarised groups.
        let small = StatePyramid::build_from(trace, trace, states, 2);
        assert_eq!(StatePyramid::build_from(trace, &indexed, states, 2), small);
        for _ in 0..4 {
            let start = bounds.start.0 + rng.below(bounds.duration().max(1));
            let window = TimeInterval::from_cycles(start, start + 1 + rng.below(400));
            let (first, last) = overlap_range(states, window);
            for kind in [AccessKind::Read, AccessKind::Write] {
                let expected: Vec<_> = searched
                    .numa_bytes_from(trace, trace, states, first, last, kind)
                    .into_iter()
                    .filter(|&(_, bytes)| bytes > 0)
                    .collect();
                assert_eq!(session.query(window).numa_bytes(cpu, kind), expected);
                assert_eq!(
                    small.numa_bytes_from(trace, &indexed, states, first, last, kind),
                    small.numa_bytes_from(trace, trace, states, first, last, kind)
                );
            }
        }
    }

    // NUMA frames, every engine: each cell is the `&Trace` answer for the task the
    // session's own interval query names predominant in that cell.
    if bounds.is_empty() {
        return;
    }
    let zoomed = TimeInterval::from_cycles(
        bounds.start.0 + bounds.duration() / 3,
        bounds.start.0 + bounds.duration() / 2 + 1,
    );
    for (interval, columns) in [(bounds, 37), (zoomed, 9)] {
        for mode in numa_modes() {
            let mut frames = Vec::new();
            for engine in [
                TimelineEngine::Scan,
                TimelineEngine::Pyramid,
                TimelineEngine::Adaptive,
            ] {
                let filter = TaskFilter::new();
                frames.push(
                    TimelineModel::build_with_engine(
                        &session, mode, interval, columns, &filter, engine,
                    )
                    .unwrap(),
                );
            }
            assert_eq!(frames[0], frames[1], "{mode:?}: scan vs pyramid");
            assert_eq!(frames[0], frames[2], "{mode:?}: scan vs adaptive");
            for (row, &cpu) in frames[0].cpus.iter().enumerate() {
                for col in 0..columns {
                    let cell_iv = interval.bin(columns, col);
                    let task = session
                        .query(cell_iv)
                        .predominant_task(cpu, &TaskFilter::new());
                    let node = |n: Option<NumaNodeId>| n.map(TimelineCell::Node);
                    let expected = task
                        .and_then(|t| match mode {
                            TimelineMode::NumaRead => node(dominant_read_node(trace, t.id)),
                            TimelineMode::NumaWrite => node(dominant_write_node(trace, t.id)),
                            _ => task_remote_fraction(trace, &t).map(TimelineCell::Shade),
                        })
                        .unwrap_or(TimelineCell::Empty);
                    assert_eq!(
                        frames[0].cells[row][col], expected,
                        "{mode:?} {cpu:?} column {col}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_answers_equal_the_trace_providers(
        seed in any::<u64>(),
        nodes in 1u32..4,
        tasks in 0u64..70,
    ) {
        check_trace(&random_trace(seed, nodes, tasks, true), seed);
    }

    #[test]
    fn an_empty_access_table_indexes_to_nothing(
        seed in any::<u64>(),
        tasks in 0u64..30,
    ) {
        let trace = random_trace(seed, 2, tasks, false);
        check_trace(&trace, seed);
        let session = AnalysisSession::new(&trace);
        prop_assert!(!session.access_index_built());
        session.prewarm(Threads::single());
        prop_assert!(session.access_index_built());
        prop_assert_eq!(session.access_index().num_rows(), 0);
        prop_assert_eq!(session.access_index().num_tasks(), trace.tasks().len());
    }

    /// A store with its access lane resident and its task lane not: every access
    /// names an id beyond the (empty) task table.
    #[test]
    fn ids_beyond_the_task_table_are_left_to_the_search(
        seed in any::<u64>(),
        tasks in 1u64..40,
    ) {
        let full = random_trace(seed, 2, tasks, true);
        let bytes = write_store_bytes(&full, &StoreOptions { block_rows: 7 }).unwrap();
        let mut stored = StoredTrace::from_bytes(bytes).unwrap();
        stored.ensure(LaneId::Accesses).unwrap();
        let trace = stored.trace();
        prop_assert!(trace.tasks().is_empty());
        prop_assert_eq!(trace.accesses().len(), full.accesses().len());
        check_trace(trace, seed);
        // The per-task answers are those of the full trace: only the row ranges
        // moved from the table to the search.
        let session = AnalysisSession::new(trace);
        prop_assert_eq!(session.access_index().num_tasks(), 0);
        for id in (0..tasks).map(TaskId) {
            prop_assert_eq!(
                bytes_per_node_from(trace, &session.accesses(), id, None),
                bytes_per_node(&full, id, None)
            );
        }
    }
}
