//! Measures how the pipeline stages scale with the thread count of the execution
//! layer: trace ingest (a one-pass decode on the calling thread, then the builder's
//! finish on the thread budget), index prewarm, anomaly detection and timeline
//! rasterization, each at 1, 2, 4 and all available threads, plus the
//! lazy-vs-prewarmed query latency the sharded session buys on its own.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_scaling
//! ```

use std::time::Instant;

use aftermath::prelude::*;
use aftermath::trace::format::{read_trace_with, write_trace};
use aftermath_core::{AnomalyConfig, TimelineMode, TimelineModel};
use aftermath_render::TimelineRenderer;

fn median_secs(mut f: impl FnMut(), samples: usize) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized seidel run: big enough that every stage has real work.
    let spec = SeidelConfig::medium().build();
    let config = SimConfig::new(MachineConfig::uniform(4, 4), RuntimeConfig::default(), 42);
    let result = Simulator::new(config).run(&spec)?;
    let trace = &result.trace;
    println!(
        "seidel trace: {} tasks, {} recorded items, machine: {} threads available",
        trace.tasks().len(),
        trace.num_events(),
        Threads::auto()
    );

    let mut encoded = Vec::new();
    write_trace(trace, &mut encoded)?;
    let anomaly_config = AnomalyConfig::default();

    let counts = Threads::scaling_counts();

    println!("\nstage medians (seconds), per thread count:");
    println!(
        "{:<22}{}",
        "stage",
        counts
            .iter()
            .map(|n| format!("{n:>12}"))
            .collect::<String>()
    );
    type Stage<'a> = Box<dyn Fn(Threads) + 'a>;
    let stages: [(&str, Stage<'_>); 4] = [
        (
            "ingest (decode+finish)",
            Box::new(|t| {
                read_trace_with(&encoded[..], t).unwrap();
            }),
        ),
        (
            "prewarm indexes",
            Box::new(|t| {
                AnalysisSession::new(trace).prewarm(t);
            }),
        ),
        (
            "detect anomalies",
            Box::new(|t| {
                AnalysisSession::new(trace)
                    .detect_anomalies_with(&anomaly_config, t)
                    .unwrap();
            }),
        ),
        (
            "render timeline",
            Box::new(|t| {
                let session = AnalysisSession::new(trace);
                let model = TimelineModel::build(
                    &session,
                    TimelineMode::State,
                    session.time_bounds(),
                    2048,
                )
                .unwrap();
                TimelineRenderer::with_row_height(16).render_with(&model, t);
            }),
        ),
    ];
    for (name, stage) in &stages {
        let mut row = format!("{name:<22}");
        for &n in &counts {
            let secs = median_secs(|| stage(Threads::new(n)), 5);
            row.push_str(&format!("{:>12.6}", secs));
        }
        println!("{row}");
    }

    // What laziness alone buys: session open cost and first-query latency,
    // lazy vs. prewarmed.
    let t = Instant::now();
    let session = AnalysisSession::new(trace);
    let open_secs = t.elapsed().as_secs_f64();
    let counter = session.counter_id("branch-mispredictions")?;
    let bounds = session.time_bounds();
    let t = Instant::now();
    session.counter_min_max(CpuId(0), counter, bounds);
    let cold_query = t.elapsed().as_secs_f64();
    let t = Instant::now();
    session.counter_min_max(CpuId(0), counter, bounds);
    let warm_query = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let built = session.prewarm(Threads::auto());
    let prewarm_secs = t.elapsed().as_secs_f64();
    println!("\nlazy sharded session:");
    println!("  session open                {open_secs:>12.6} s (no indexes built)");
    println!("  first query (builds shard)  {cold_query:>12.6} s");
    println!("  repeat query (warm shard)   {warm_query:>12.6} s");
    println!("  prewarm all {built:>4} shards    {prewarm_secs:>12.6} s");
    println!(
        "  index memory: {} bytes ({:.2} % of raw samples)",
        session.index_memory_bytes(),
        100.0 * session.index_overhead_ratio()
    );
    Ok(())
}
