//! Cross-crate integration tests: workload generation → simulation → binary trace
//! round-trip → analysis → rendering.

use aftermath::prelude::*;
use aftermath::trace::format::{read_trace, write_trace};
use aftermath_core::{
    derived, numa, stats, AnalysisSession, IncidenceMatrix, TaskFilter, TimelineMode, TimelineModel,
};
use aftermath_render::TimelineRenderer;

fn simulate_seidel(runtime: RuntimeConfig) -> SimResult {
    let spec = SeidelConfig::small().build();
    let machine = MachineConfig::uniform(2, 4);
    Simulator::new(SimConfig::new(machine, runtime, 123))
        .run(&spec)
        .expect("simulation succeeds")
}

#[test]
fn full_pipeline_from_workload_to_rendered_timeline() {
    let result = simulate_seidel(RuntimeConfig::numa_optimized());

    // Serialize and reload the trace through the binary format.
    let mut buf = Vec::new();
    write_trace(&result.trace, &mut buf).unwrap();
    let trace = read_trace(&buf[..]).unwrap();
    assert_eq!(trace, result.trace);

    // Analyze.
    let session = AnalysisSession::new(&trace);
    let bounds = session.time_bounds();
    assert!(bounds.duration() > 0);
    assert!(stats::average_parallelism(&session, bounds) > 0.0);
    let graph = session.task_graph().unwrap();
    assert_eq!(graph.num_tasks(), trace.tasks().len());
    assert!(graph.num_edges() > 0);

    // Render every timeline mode.
    for mode in [
        TimelineMode::State,
        TimelineMode::TaskType,
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
        TimelineMode::Heatmap {
            min_duration: 0,
            max_duration: trace.tasks().iter().map(|t| t.duration()).max().unwrap(),
        },
    ] {
        let model = TimelineModel::build(&session, mode, bounds, 128).unwrap();
        let fb = TimelineRenderer::new().render(&model);
        assert_eq!(fb.width(), 128);
        assert_eq!(fb.height(), trace.topology().num_cpus() * 4);
    }
}

#[test]
fn simulated_schedule_respects_reconstructed_dependences() {
    // The dependences reconstructed by the analysis layer from the memory accesses must
    // be consistent with the simulated schedule: a reader never starts before its writer
    // finished. This closes the loop between the simulator and the analysis engine.
    for runtime in [
        RuntimeConfig::non_optimized(),
        RuntimeConfig::numa_optimized(),
    ] {
        let result = simulate_seidel(runtime);
        let session = AnalysisSession::new(&result.trace);
        let graph = session.task_graph().unwrap();
        for task in result.trace.tasks() {
            for &pred in graph.predecessors(task.id) {
                let pred_task = &result.trace.tasks().get(pred as usize);
                assert!(
                    task.execution.start >= pred_task.execution.end,
                    "task {:?} starts before its predecessor {:?} ends ({runtime:?})",
                    task.id,
                    pred_task.id
                );
            }
        }
    }
}

#[test]
fn numa_optimization_improves_locality_end_to_end() {
    let non_opt = simulate_seidel(RuntimeConfig::non_optimized());
    let opt = simulate_seidel(RuntimeConfig::numa_optimized());

    let non_opt_session = AnalysisSession::new(&non_opt.trace);
    let opt_session = AnalysisSession::new(&opt.trace);

    let remote_non_opt = numa::remote_access_fraction(&non_opt_session, &TaskFilter::new());
    let remote_opt = numa::remote_access_fraction(&opt_session, &TaskFilter::new());
    assert!(remote_opt < remote_non_opt);

    let m_non_opt = IncidenceMatrix::build(&non_opt_session, &TaskFilter::new()).unwrap();
    let m_opt = IncidenceMatrix::build(&opt_session, &TaskFilter::new()).unwrap();
    assert!(m_opt.diagonal_fraction() > m_non_opt.diagonal_fraction());
    // (The speed advantage of the optimized run-time at realistic machine sizes and
    // remote-access costs is asserted by the figure-reproduction tests in
    // `aftermath-bench`; this tiny 8-core trace only checks the locality metrics.)
}

#[test]
fn incremental_traces_degrade_gracefully() {
    // A trace recorded without memory accesses or counters (the paper's reduced-overhead
    // mode) still supports the duration-based analyses, while NUMA analyses report the
    // missing data explicitly.
    let spec = SeidelConfig::small().build();
    let mut config = SimConfig::new(MachineConfig::uniform(2, 2), RuntimeConfig::default(), 5);
    config.record_memory_accesses = false;
    config.record_counters = false;
    config.record_comm_events = false;
    let result = Simulator::new(config).run(&spec).unwrap();

    let mut buf = Vec::new();
    write_trace(&result.trace, &mut buf).unwrap();
    let trace = read_trace(&buf[..]).unwrap();
    let session = AnalysisSession::new(&trace);
    let bounds = session.time_bounds();

    // Duration-based analyses still work.
    let hist = stats::task_duration_histogram(&session, &TaskFilter::new(), 10).unwrap();
    assert_eq!(hist.total as usize, trace.tasks().len());
    let idle = derived::state_concurrency(&session, WorkerState::Idle, 10, bounds).unwrap();
    assert_eq!(idle.num_bins(), 10);

    // NUMA analyses report missing data instead of fabricating results.
    assert!(IncidenceMatrix::build(&session, &TaskFilter::new()).is_err());
    // The task graph degenerates to an edge-less graph.
    assert_eq!(session.task_graph().unwrap().num_edges(), 0);
}

#[test]
fn kmeans_workload_end_to_end_correlation() {
    let config = KMeansConfig {
        points: 50_000,
        dims: 6,
        clusters: 5,
        block_size: 2_500,
        iterations: 2,
        optimized_kernel: false,
        cycles_per_distance: 6,
        distance_task_overhead: 20_000,
        mispredictions_per_comparison: 1.5,
        seed: 2,
    };
    let result = Simulator::new(SimConfig::new(
        MachineConfig::uniform(2, 4),
        RuntimeConfig::numa_optimized(),
        2,
    ))
    .run(&config.build())
    .unwrap();
    let session = AnalysisSession::new(&result.trace);
    let ty = result
        .trace
        .task_types()
        .iter()
        .find(|t| t.name == aftermath::workloads::kmeans::TASK_TYPE_DISTANCE)
        .unwrap()
        .id;
    let filter = TaskFilter::new().with_task_type(ty);
    let counter = session.counter_id("branch-mispredictions").unwrap();
    let study =
        aftermath_core::correlate_duration_with_counter(&session, counter, &filter).unwrap();
    assert!(study.regression.r_squared > 0.3);
    assert!(study.regression.slope > 0.0);
}

#[test]
fn annotations_and_symbols_survive_independent_storage() {
    use aftermath::trace::{Annotation, AnnotationSet};
    let result = simulate_seidel(RuntimeConfig::default());
    let bounds = result.trace.time_bounds();

    // Annotations are stored separately from the trace (paper Section VI-C).
    let mut annotations = AnnotationSet::new();
    annotations.add(Annotation::new(
        bounds.start,
        None,
        "execution start — check initialization page faults",
    ));
    annotations.add(Annotation::new(
        Timestamp(bounds.start.0 + bounds.duration() / 2),
        Some(CpuId(1)),
        "suspicious idle phase on cpu1",
    ));
    let mut buf = Vec::new();
    annotations.write_to(&mut buf).unwrap();
    let restored = AnnotationSet::read_from(&buf[..]).unwrap();
    assert_eq!(restored.len(), 2);
    assert_eq!(
        restored
            .in_interval(bounds.start, Timestamp(bounds.start.0 + 1))
            .len(),
        1
    );
}
