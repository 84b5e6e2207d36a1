//! Quickstart: simulate a small task-parallel workload, write its trace to disk, load it
//! back and run the basic Aftermath analyses on it.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use aftermath::prelude::*;
use aftermath::trace::format::{read_trace_file_with, write_trace_file};
use aftermath_core::{derived, stats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a workload: here the small seidel stencil shipped with the workloads
    //    crate. Any dependent-task program can be described through `WorkloadSpec`.
    let spec = SeidelConfig::small().build();
    println!(
        "workload `{}`: {} tasks, {} regions",
        spec.name,
        spec.num_tasks(),
        spec.regions.len()
    );

    // 2. Simulate it on a small NUMA machine with the default work-stealing run-time.
    let config = SimConfig::new(MachineConfig::uniform(2, 4), RuntimeConfig::default(), 42);
    let result = Simulator::new(config).run(&spec)?;
    println!(
        "simulated {} tasks in {} cycles ({} idle cycles, {} steals)",
        result.trace.tasks().len(),
        result.makespan,
        result.stats.idle_cycles,
        result.stats.steal_successes
    );

    // 3. Write the trace in Aftermath's binary format and read it back (this is what a
    //    run-time system would produce and what the analysis tool consumes). The file
    //    is decoded in one pass; the per-CPU streams are then sorted on the execution
    //    layer.
    let threads = Threads::auto();
    let path = std::env::temp_dir().join("aftermath_quickstart.trace");
    write_trace_file(&result.trace, &path)?;
    let trace = read_trace_file_with(&path, threads)?;
    println!(
        "trace round-trip through {} ({} recorded items, {} finish threads)",
        path.display(),
        trace.num_events(),
        threads
    );

    // 4. Analyze: how parallel was the execution, what did the workers do, how long did
    //    tasks run? Opening a session is cheap — counter indexes build lazily per
    //    (CPU, counter) shard — and `prewarm` builds all remaining shards in parallel,
    //    which is what an interactive tool does in the background right after loading.
    let session = aftermath_core::AnalysisSession::new(&trace);
    let shards = session.prewarm(threads);
    println!("prewarmed {shards} counter-index shards");
    let bounds = session.time_bounds();
    println!(
        "average parallelism: {:.2} of {} workers",
        stats::average_parallelism(&session, bounds),
        trace.topology().num_cpus()
    );

    let idle = derived::state_concurrency(&session, WorkerState::Idle, 20, bounds)?;
    println!(
        "peak concurrent idle workers: {:.1}",
        idle.max().unwrap_or(0.0)
    );

    let hist = stats::task_duration_histogram(&session, &aftermath_core::TaskFilter::new(), 10)?;
    println!("task duration histogram ({} tasks):", hist.total);
    for i in 0..hist.num_bins() {
        println!(
            "  {:>10.0} cycles : {:5.1} %",
            hist.bin_start(i),
            100.0 * hist.fraction(i)
        );
    }

    // 5. Reconstruct the task graph from the recorded memory accesses and report the
    //    available parallelism per depth (the paper's Figure 5 analysis).
    let graph = session.task_graph()?;
    println!(
        "task graph: {} tasks, {} dependence edges, critical path {} cycles",
        graph.num_tasks(),
        graph.num_edges(),
        graph.critical_path_cycles(&trace)
    );
    let profile = graph.parallelism_profile();
    println!(
        "available parallelism: {} ready tasks at depth 0, peak {} over {} depths",
        profile.first().copied().unwrap_or(0),
        profile.iter().max().copied().unwrap_or(0),
        profile.len()
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
