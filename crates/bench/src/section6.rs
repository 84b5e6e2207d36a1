//! Reproduction of the Section VI implementation/performance claims: trace format
//! efficiency, index overhead and rendering optimizations.

use std::time::Instant;

use aftermath_core::{AnalysisSession, Threads, TimelineMode, TimelineModel};
use aftermath_render::{CounterOverlay, TimelineRenderer};
use aftermath_sim::{machine::MachineConfig, RuntimeConfig, SimConfig, Simulator};
use aftermath_trace::format::{read_trace_with, write_trace};
use aftermath_trace::Trace;
use aftermath_workloads::synthetic::{random_layered_dag, LayeredDagConfig};

use crate::figures::Scale;

/// Builds the large synthetic trace used for the Section VI measurements.
pub fn synthetic_trace(scale: Scale) -> Trace {
    let (layers, width) = match scale {
        Scale::Test => (10, 24),
        Scale::Paper => (60, 120),
    };
    let spec = random_layered_dag(&LayeredDagConfig {
        layers,
        width,
        work_cycles: 80_000,
        region_bytes: 8 * 1024,
        edge_probability: 0.25,
        seed: 42,
    });
    let machine = match scale {
        Scale::Test => MachineConfig::uniform(2, 4),
        Scale::Paper => MachineConfig::uniform(8, 8),
    };
    Simulator::new(SimConfig::new(machine, RuntimeConfig::numa_optimized(), 5))
        .run(&spec)
        .expect("synthetic simulation must succeed")
        .trace
}

/// Measurements of the binary trace format (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceIoStats {
    /// Number of recorded items in the trace.
    pub num_events: usize,
    /// Size of the encoded trace in bytes.
    pub encoded_bytes: usize,
    /// Average encoded bytes per recorded item.
    pub bytes_per_event: f64,
    /// Wall-clock seconds to encode the trace.
    pub write_seconds: f64,
    /// Wall-clock seconds to decode the trace.
    pub read_seconds: f64,
}

/// Encodes and decodes `trace` in memory and reports size and timing
/// (single-threaded decode).
pub fn trace_io_stats(trace: &Trace) -> TraceIoStats {
    trace_io_stats_with(trace, Threads::single())
}

/// Like [`trace_io_stats`] but finishes the decoded trace's build on up to `threads`
/// workers.
pub fn trace_io_stats_with(trace: &Trace, threads: Threads) -> TraceIoStats {
    let mut buf = Vec::new();
    let t0 = Instant::now();
    write_trace(trace, &mut buf).expect("encode");
    let write_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let decoded = read_trace_with(&buf[..], threads).expect("decode");
    let read_seconds = t1.elapsed().as_secs_f64();
    assert_eq!(&decoded, trace, "round-trip must preserve the trace");
    let num_events = trace.num_events().max(1);
    TraceIoStats {
        num_events,
        encoded_bytes: buf.len(),
        bytes_per_event: buf.len() as f64 / num_events as f64,
        write_seconds,
        read_seconds,
    }
}

/// Measurements of the rendering optimizations (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderStats {
    /// Number of horizontal pixels rendered.
    pub columns: usize,
    /// Drawing operations issued by the optimized renderer (predominant state per pixel
    /// plus rectangle aggregation).
    pub optimized_draw_calls: u64,
    /// Drawing operations without rectangle aggregation (still one cell per pixel).
    pub unaggregated_draw_calls: u64,
    /// Drawing operations of the naive renderer (one per state interval).
    pub naive_draw_calls: u64,
    /// Drawing operations of the optimized counter overlay (≤ one per column).
    pub overlay_optimized_calls: u64,
    /// Drawing operations of the naive counter overlay (one per sample pair).
    pub overlay_naive_calls: u64,
    /// Memory overhead of the counter min/max index relative to the raw samples.
    pub index_overhead_ratio: f64,
}

/// Renders the state timeline and a counter overlay of `trace` with and without the
/// paper's optimizations and reports the number of drawing operations
/// (single-threaded).
pub fn render_stats(trace: &Trace, columns: usize) -> RenderStats {
    render_stats_with(trace, columns, Threads::single())
}

/// Like [`render_stats`] but prewarms the session's counter indexes and rasterizes
/// the optimized timeline on up to `threads` workers.
pub fn render_stats_with(trace: &Trace, columns: usize, threads: Threads) -> RenderStats {
    let session = AnalysisSession::new(trace);
    // Indexes are lazy; build them all so the overhead ratio reflects the full index.
    session.prewarm(threads);
    let bounds = session.time_bounds();
    let model = TimelineModel::build(&session, TimelineMode::State, bounds, columns)
        .expect("timeline model");
    let renderer = TimelineRenderer::new();
    let optimized = renderer.render_with(&model, threads);
    let unaggregated = renderer.render_unaggregated(&model);
    let naive = renderer.render_states_naive(&session, bounds, columns);

    let counter = session
        .counter_id(aftermath_sim::engine::COUNTER_SYSTEM_TIME_US)
        .expect("counter");
    let cpu = aftermath_trace::CpuId(0);
    let overlay = CounterOverlay::new(cpu, counter, aftermath_render::Color::rgb(255, 255, 0));
    let overlay_optimized = overlay
        .render(&session, bounds, columns)
        .map(|fb| fb.draw_calls())
        .unwrap_or(0);
    let overlay_naive = overlay
        .render_naive(&session, bounds, columns)
        .map(|fb| fb.draw_calls())
        .unwrap_or(0);

    RenderStats {
        columns,
        optimized_draw_calls: optimized.draw_calls(),
        unaggregated_draw_calls: unaggregated.draw_calls(),
        naive_draw_calls: naive.draw_calls(),
        overlay_optimized_calls: overlay_optimized,
        overlay_naive_calls: overlay_naive,
        index_overhead_ratio: session.index_overhead_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_io_roundtrip_and_compactness() {
        let trace = synthetic_trace(Scale::Test);
        let stats = trace_io_stats(&trace);
        assert!(stats.encoded_bytes > 0);
        // The varint encoding keeps the per-event footprint small (well under 64 bytes).
        assert!(
            stats.bytes_per_event < 64.0,
            "bytes per event too large: {}",
            stats.bytes_per_event
        );
    }

    #[test]
    fn rendering_optimizations_reduce_draw_calls() {
        let trace = synthetic_trace(Scale::Test);
        let stats = render_stats(&trace, 256);
        assert!(stats.optimized_draw_calls <= stats.unaggregated_draw_calls);
        assert!(stats.optimized_draw_calls < stats.naive_draw_calls);
        assert!(stats.overlay_optimized_calls <= stats.columns as u64);
        assert!(stats.overlay_optimized_calls < stats.overlay_naive_calls);
        // Paper: the counter index costs at most ~5 % of the counter data.
        assert!(stats.index_overhead_ratio < 0.05);
    }
}
