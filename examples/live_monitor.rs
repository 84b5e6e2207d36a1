//! Live monitoring: replay a recorded trace in timed chunks through the streaming
//! ingest layer and render a rolling timeline frame after every epoch — the
//! monitoring-while-running scenario of the paper, driven from a recorded trace.
//!
//! Run with:
//! ```text
//! cargo run --release --example live_monitor -- [--chunks N] [--columns W] \
//!     [--delay-ms D] [--out DIR]
//! ```
//!
//! Every epoch prints the ingest (advance) latency, the frame latency and the
//! occupancy of the rolling state timeline; with `--out DIR` the final frame is
//! written as a PPM image. `--delay-ms` paces the replay like a real event source
//! (default 0 so CI smoke runs stay fast).

use std::time::{Duration, Instant};

use aftermath::prelude::*;
use aftermath_core::LiveSession;
use aftermath_render::{Framebuffer, TimelineRenderer};
use aftermath_trace::streaming::{make_streamable, split_even};

struct Args {
    chunks: usize,
    columns: usize,
    delay: Duration,
    out_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        chunks: 12,
        columns: 200,
        delay: Duration::ZERO,
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--chunks" => args.chunks = value("--chunks").parse().expect("chunk count"),
            "--columns" => args.columns = value("--columns").parse().expect("column count"),
            "--delay-ms" => {
                args.delay = Duration::from_millis(value("--delay-ms").parse().expect("delay"))
            }
            "--out" => args.out_dir = Some(value("--out").into()),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: live_monitor [--chunks N] [--columns W] [--delay-ms D] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();

    // 1. Record a trace to replay: the small seidel workload on the test machine.
    //    A real deployment would receive chunks from a running application instead.
    let spec = SeidelConfig::small().build();
    let result = Simulator::new(SimConfig::small_test()).run(&spec)?;
    let trace = make_streamable(&result.trace);
    println!(
        "replaying {} events ({} tasks) in {} chunks at {} columns",
        trace.num_events(),
        trace.tasks().len(),
        args.chunks,
        args.columns
    );

    // 2. Split it into evenly spaced time chunks and open a live session on the
    //    metadata-only prologue.
    let (prologue, chunks) = split_even(&trace, args.chunks)?;
    let mut live = LiveSession::new(prologue)?;

    // 3. Ingest chunk by chunk, rendering a rolling frame into one reused
    //    framebuffer after every epoch.
    let renderer = TimelineRenderer::new();
    let mut frame = Framebuffer::new(1, 1, renderer.palette.background);
    println!("epoch,items,nodes_rebuilt,advance_ms,frame_ms,occupancy");
    for chunk in chunks {
        std::thread::sleep(args.delay);
        let t0 = Instant::now();
        let stats = live.advance(chunk)?;
        let advance_ms = t0.elapsed().as_secs_f64() * 1e3;
        let bounds = live.time_bounds();
        if bounds.is_empty() {
            println!("{},0,0,{advance_ms:.3},-,-", stats.epoch);
            continue;
        }
        let t1 = Instant::now();
        let model = live
            .session()
            .timeline(TimelineMode::State, bounds, args.columns)?;
        renderer.render_into(&model, Threads::auto(), &mut frame);
        let frame_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "{},{},{},{advance_ms:.3},{frame_ms:.3},{:.3}",
            stats.epoch,
            stats.appended_items,
            stats.nodes_rebuilt,
            model.occupancy()
        );
    }

    // 4. The replayed session answers exactly like a batch session over the full
    //    trace — spot-check the final frame against a from-scratch build.
    let batch = AnalysisSession::new(live.trace());
    let bounds = live.time_bounds();
    let final_live = live
        .session()
        .timeline(TimelineMode::State, bounds, args.columns)?;
    let final_batch = batch.timeline(TimelineMode::State, bounds, args.columns)?;
    assert_eq!(
        *final_live, *final_batch,
        "live frame must be byte-identical to batch"
    );
    println!(
        "final frame verified byte-identical to a batch session ({} epochs, {} index nodes)",
        live.epoch(),
        live.num_index_nodes()
    );
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("live_monitor_final.ppm");
        frame.write_ppm_file(&path)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
