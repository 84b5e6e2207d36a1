//! Zoom/pan latency measurements: the Section VI interactivity claim, measured.
//!
//! The paper's headline is *interactive* navigation of large traces at any zoom
//! level. This module builds a dense synthetic trace in the spirit of the Section VI
//! workload (alternating task-execution/idle streams with typed tasks and NUMA
//! accesses, but with enough events per CPU that the per-column scan wall actually
//! shows) and measures, per zoom level and timeline mode, the time to compute a
//! timeline frame
//!
//! * by the **scan** alone — the original per-column slice-and-scan path, whose
//!   zoomed-out frame cost is O(total events), and
//! * with the **pyramid** — the one window reduction with the multi-resolution
//!   aggregation layer at hand: O(columns · log n) zoomed out, the scan's own code
//!   wherever a cell's covered range holds no whole summary node.
//!
//! Both produce byte-identical models (verified during the sweep), so the
//! comparison is purely about time. [`ZoomSweep::record`] is the machine-readable
//! `BENCH_zoom_sweep.json` record.

use std::time::Instant;

use aftermath_core::{
    kernels, AnalysisSession, SimdLevel, TaskFilter, Threads, TimelineEngine, TimelineMode,
    TimelineModel,
};
use aftermath_trace::{
    AccessKind, CpuId, MachineTopology, TaskTypeId, TimeInterval, Timestamp, Trace, TraceBuilder,
};

use crate::figures::Scale;
use crate::record::{quantile, sample_seconds, Fields, Record};

/// Zoom factors measured by the sweep, ascending from fully zoomed out (`1`).
pub const ZOOM_FACTORS: [u64; 5] = [1, 4, 16, 64, 256];

/// Number of task-execution/idle interval pairs generated per CPU.
pub fn pairs_per_cpu(scale: Scale) -> usize {
    match scale {
        Scale::Test => 2_000,
        Scale::Paper => 1_000_000,
    }
}

/// Builds the dense synthetic navigation trace: 2 NUMA nodes × 2 CPUs, each CPU an
/// alternating stream of typed task executions and idle gaps, every task reading
/// from one node and writing to the other so all six timeline modes are populated.
pub fn zoom_trace(scale: Scale) -> Trace {
    zoom_builder(scale)
        .finish()
        .expect("zoom trace must validate")
}

/// A deterministic xorshift64 stream from `state` — varied inputs without any
/// external dependency.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The un-finished builder behind [`zoom_trace`], so the ingest benchmark
/// ([`crate::ingest`]) can time `finish_with` (sort + validate + columnarise)
/// separately from event recording.
pub fn zoom_builder(scale: Scale) -> TraceBuilder {
    let pairs = pairs_per_cpu(scale);
    let topo = MachineTopology::uniform(2, 2);
    let num_cpus = topo.num_cpus();
    let mut b = TraceBuilder::new(topo);
    let types: Vec<TaskTypeId> = (0..8)
        .map(|i| b.add_task_type(format!("kernel_{i}"), 0x1000 + i))
        .collect();
    let region_bytes = 1 << 20;
    let r0 = 0x10_0000u64;
    let r1 = 0x20_0000u64;
    b.add_region(r0, region_bytes, Some(aftermath_trace::NumaNodeId(0)));
    b.add_region(r1, region_bytes, Some(aftermath_trace::NumaNodeId(1)));
    // Varied durations give non-trivial predominance and heat shades.
    let mut rng = xorshift(0x9E37_79B9_97F4_A7C5);
    for cpu in 0..num_cpus {
        let cpu = CpuId(cpu as u32);
        let mut now = 0u64;
        for i in 0..pairs {
            let work = 20_000 + rng() % 120_000;
            let gap = 2_000 + rng() % 20_000;
            let ty = types[(i + cpu.0 as usize) % types.len()];
            let task = b.add_task(
                ty,
                cpu,
                Timestamp(now),
                Timestamp(now),
                Timestamp(now + work),
            );
            b.add_state(
                cpu,
                aftermath_trace::WorkerState::TaskExecution,
                Timestamp(now),
                Timestamp(now + work),
                Some(task),
            )
            .expect("state in bounds");
            b.add_state(
                cpu,
                aftermath_trace::WorkerState::Idle,
                Timestamp(now + work),
                Timestamp(now + work + gap),
                None,
            )
            .expect("state in bounds");
            let (read_base, write_base) = if rng().is_multiple_of(3) {
                (r1, r0)
            } else {
                (r0, r1)
            };
            b.add_access(
                task,
                AccessKind::Read,
                read_base + rng() % region_bytes,
                256 + rng() % 4096,
            )
            .expect("access");
            b.add_access(
                task,
                AccessKind::Write,
                write_base + rng() % region_bytes,
                128 + rng() % 2048,
            )
            .expect("access");
            now += work + gap;
        }
    }
    b
}

/// One measured frame: a `(zoom factor, timeline mode)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomFrame {
    /// Zoom factor (1 = the whole trace is visible).
    pub zoom_factor: u64,
    /// Short name of the timeline mode.
    pub mode: &'static str,
    /// Seconds to compute the frame with the scan engine (minimum of 5).
    pub scan_seconds: f64,
    /// Seconds to compute the frame with the pyramid engine (minimum of 5).
    pub pyramid_seconds: f64,
}

impl ZoomFrame {
    /// Scan time over pyramid time for this frame.
    pub fn speedup(&self) -> f64 {
        self.scan_seconds / self.pyramid_seconds.max(1e-12)
    }

    /// Pyramid time over scan time for this frame (at most 1.0 = the pyramid
    /// engine is never the slower one).
    pub fn pyramid_vs_scan(&self) -> f64 {
        self.pyramid_seconds / self.scan_seconds.max(1e-12)
    }
}

/// Result of the state-gating kernel microbenchmark: one hot loop
/// ([`kernels::tag_duration_sums`]) timed scalar vs. dispatched on a realistic
/// two-state (execution/idle) lane.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBench {
    /// Lane length of the synthetic state stream.
    pub lanes: usize,
    /// Seconds per pass with the forced-scalar reference kernel (minimum of 9).
    pub scalar_seconds: f64,
    /// Seconds per pass with the runtime-dispatched kernel (minimum of 9).
    pub simd_seconds: f64,
    /// Name of the dispatched tier (`scalar` under `AFTERMATH_NO_SIMD`).
    pub simd_level: &'static str,
}

impl KernelBench {
    /// Scalar time over dispatched time.
    pub fn speedup(&self) -> f64 {
        self.scalar_seconds / self.simd_seconds.max(1e-12)
    }
}

/// Lane length of the kernel microbenchmark (64K intervals ≈ 1.1 MB of lanes:
/// L2-resident, so the measurement is ALU-bound like the pyramid's per-chunk
/// leaf builds rather than a cache/DRAM bandwidth test).
pub const KERNEL_BENCH_LANES: usize = 1 << 16;

/// Times the per-state duration-histogram kernel scalar vs. dispatched over a
/// synthetic execution/idle state lane shaped like the zoom trace's streams
/// (alternating low tags — the common case the wide path optimises for).
pub fn kernel_microbench() -> KernelBench {
    let n = KERNEL_BENCH_LANES;
    let mut starts = vec![0u64; n];
    let mut ends = vec![0u64; n];
    let mut tags = vec![0u8; n];
    let mut rng = xorshift(0xD1B5_4A32_D192_ED03);
    let mut now = 0u64;
    for i in 0..n {
        let d = 1 + rng() % 100_000;
        starts[i] = now;
        ends[i] = now + d;
        now += d;
        tags[i] = (rng() % 2) as u8;
    }
    let mut sums = [0u64; aftermath_trace::WorkerState::COUNT];
    let scalar = sample_seconds(9, || {
        kernels::tag_duration_sums_at(
            SimdLevel::Scalar,
            std::hint::black_box(&starts),
            std::hint::black_box(&ends),
            std::hint::black_box(&tags),
            &mut sums,
        );
        std::hint::black_box(&mut sums);
    });
    let simd = sample_seconds(9, || {
        kernels::tag_duration_sums(
            std::hint::black_box(&starts),
            std::hint::black_box(&ends),
            std::hint::black_box(&tags),
            &mut sums,
        );
        std::hint::black_box(&mut sums);
    });
    KernelBench {
        lanes: n,
        scalar_seconds: quantile(&scalar, 0.0),
        simd_seconds: quantile(&simd, 0.0),
        simd_level: aftermath_core::simd_level().name(),
    }
}

/// The result of one zoom sweep over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomSweep {
    /// Horizontal resolution of every frame in pixels.
    pub columns: usize,
    /// Total recorded events in the measured trace.
    pub num_events: usize,
    /// Seconds spent building all index shards (counter indexes + pyramids).
    pub prewarm_seconds: f64,
    /// All measured frames, grouped by ascending zoom factor.
    pub frames: Vec<ZoomFrame>,
    /// Whether every frame was also compared cell by cell across the engines.
    pub verified: bool,
    /// Memory of the aggregation pyramids in bytes.
    pub pyramid_bytes: usize,
    /// Size of the raw event data in bytes.
    pub raw_event_bytes: usize,
    /// The state-gating kernel microbenchmark run alongside the sweep.
    pub kernel: KernelBench,
}

impl ZoomSweep {
    /// Pyramid memory relative to the raw event data (the paper-style overhead
    /// budget for indexes is a few percent; the acceptance bound here is 15 %).
    pub fn pyramid_overhead(&self) -> f64 {
        if self.raw_event_bytes == 0 {
            return 0.0;
        }
        self.pyramid_bytes as f64 / self.raw_event_bytes as f64
    }

    /// Aggregate scan-over-pyramid speedup at one zoom factor (total scan seconds
    /// over total pyramid seconds across all modes).
    pub fn speedup_at(&self, zoom_factor: u64) -> f64 {
        let (scan, pyramid) = self
            .frames
            .iter()
            .filter(|f| f.zoom_factor == zoom_factor)
            .fold((0.0, 0.0), |(s, p), f| {
                (s + f.scan_seconds, p + f.pyramid_seconds)
            });
        scan / pyramid.max(1e-12)
    }

    /// Aggregate speedup at the most zoomed-out level (factor 1) — the headline
    /// number: the level where the scan path degenerates to O(total events).
    pub fn zoomed_out_speedup(&self) -> f64 {
        self.speedup_at(ZOOM_FACTORS[0])
    }

    /// The worst [`ZoomFrame::pyramid_vs_scan`] across all frames — a summary
    /// of what the per-cell gate (`pyramid_seconds` in [`crate::gates::GATES`])
    /// checks row by row.
    pub fn worst_pyramid_vs_scan(&self) -> f64 {
        self.frames
            .iter()
            .map(ZoomFrame::pyramid_vs_scan)
            .fold(0.0, f64::max)
    }

    /// The sweep as a [`Record`] of kind `zoom_sweep`, one `frames` row per
    /// `(zoom, mode)` cell. A verifying sweep that got here found every frame
    /// byte-identical under all three engine names (see [`run_zoom_sweep`]), which
    /// is what the rows' note then says.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("columns", self.columns)
            .int("num_events", self.num_events)
            .float("prewarm_seconds", self.prewarm_seconds)
            .text("simd_level", self.kernel.simd_level)
            .int("kernel_lanes", self.kernel.lanes)
            .float("kernel_scalar_seconds", self.kernel.scalar_seconds)
            .float("kernel_simd_seconds", self.kernel.simd_seconds)
            .float("state_kernel_speedup", self.kernel.speedup())
            .float("worst_pyramid_vs_scan", self.worst_pyramid_vs_scan())
            .int("pyramid_bytes", self.pyramid_bytes)
            .int("raw_event_bytes", self.raw_event_bytes)
            .float("pyramid_overhead", self.pyramid_overhead())
            .float("zoomed_out_speedup", self.zoomed_out_speedup());
        let frames = self
            .frames
            .iter()
            .map(|f| {
                Fields::new()
                    .int("zoom_factor", f.zoom_factor)
                    .text("mode", f.mode)
                    .float("scan_seconds", f.scan_seconds)
                    .float("pyramid_seconds", f.pyramid_seconds)
                    .float("speedup", f.speedup())
            })
            .collect();
        let note = self.verified.then(|| {
            let n = self.frames.len();
            format!("scan, pyramid and default engine byte-identical: {n} frames")
        });
        Record::new("zoom_sweep", fields).with_rows("frames", frames, note)
    }
}

/// The six timeline modes with short names for reports, the heatmap shading
/// durations from 0 to `max_duration`.
pub fn timeline_modes(max_duration: u64) -> [(&'static str, TimelineMode); 6] {
    [
        ("state", TimelineMode::State),
        (
            "heatmap",
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration,
            },
        ),
        ("typemap", TimelineMode::TaskType),
        ("numa_read", TimelineMode::NumaRead),
        ("numa_write", TimelineMode::NumaWrite),
        ("numa_heat", TimelineMode::NumaHeat),
    ]
}

/// The six timeline modes measured by the sweep: the heatmap spans the trace's
/// longest task.
pub fn sweep_modes(trace: &Trace) -> [(&'static str, TimelineMode); 6] {
    let max = trace.tasks().iter().map(|t| t.duration()).max();
    timeline_modes(max.unwrap_or(1))
}

/// The visible window at `factor`, centred in the trace bounds. Empty bounds yield
/// a minimal one-cycle window at the start (never an arithmetic underflow).
pub fn zoom_window(bounds: TimeInterval, factor: u64) -> TimeInterval {
    let duration = bounds.duration();
    let width = (duration / factor.max(1)).max(1);
    let start = bounds.start.0 + duration.saturating_sub(width) / 2;
    TimeInterval::from_cycles(start, start + width)
}

/// Runs the full sweep over `trace`: every [`ZOOM_FACTORS`] level × every timeline
/// mode, scan vs. pyramid, with the session prewarmed on `threads`.
///
/// When `verify` is set, every frame is additionally built under all three engine
/// names and compared cell by cell (pyramid and the default engine must be
/// byte-identical to scan).
pub fn run_zoom_sweep(trace: &Trace, columns: usize, threads: Threads, verify: bool) -> ZoomSweep {
    let session = AnalysisSession::new(trace);
    let t0 = Instant::now();
    session.prewarm(threads);
    let prewarm_seconds = t0.elapsed().as_secs_f64();
    let bounds = session.time_bounds();
    let filter = TaskFilter::new();
    let modes = sweep_modes(trace);
    let mut frames = Vec::new();
    for &factor in &ZOOM_FACTORS {
        let window = zoom_window(bounds, factor);
        for &(name, mode) in &modes {
            let build = |engine: TimelineEngine| {
                TimelineModel::build_with_engine(&session, mode, window, columns, &filter, engine)
                    .expect("sweep frame")
            };
            if verify {
                let scan = build(TimelineEngine::Scan);
                for engine in [TimelineEngine::Pyramid, TimelineEngine::Adaptive] {
                    assert_eq!(
                        build(engine),
                        scan,
                        "{engine:?} frame must be byte-identical to scan ({name}, zoom {factor})"
                    );
                }
            }
            // Fastest of 5 per engine — what each engine *can* do, far more
            // robust to scheduler/timer spikes on shared runners than a median
            // of few samples. The rounds go round-robin over the engines: the
            // per-cell rule compares one against the other, so machine drift
            // must land on both alike.
            let engines = [TimelineEngine::Scan, TimelineEngine::Pyramid];
            let mut fastest = [f64::INFINITY; 2];
            for _ in 0..5 {
                for (engine, fastest) in engines.into_iter().zip(&mut fastest) {
                    let seconds = sample_seconds(1, || drop(build(engine)))[0];
                    *fastest = fastest.min(seconds);
                }
            }
            let [scan_seconds, pyramid_seconds] = fastest;
            frames.push(ZoomFrame {
                zoom_factor: factor,
                mode: name,
                scan_seconds,
                pyramid_seconds,
            });
        }
    }
    ZoomSweep {
        columns,
        num_events: trace.num_events(),
        prewarm_seconds,
        verified: verify,
        frames,
        pyramid_bytes: session.pyramid_memory_bytes(),
        raw_event_bytes: session.raw_event_bytes(),
        kernel: kernel_microbench(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoom_trace_is_dense_and_valid() {
        let trace = zoom_trace(Scale::Test);
        assert_eq!(trace.topology().num_cpus(), 4);
        assert_eq!(trace.tasks().len(), 4 * pairs_per_cpu(Scale::Test));
        for pc in trace.per_cpu() {
            assert_eq!(pc.states().len(), 2 * pairs_per_cpu(Scale::Test));
        }
        assert!(!trace.accesses().is_empty());
    }

    #[test]
    fn sweep_verifies_equivalence_and_reports_overhead() {
        let trace = zoom_trace(Scale::Test);
        let sweep = run_zoom_sweep(&trace, 96, Threads::single(), true);
        assert_eq!(sweep.frames.len(), ZOOM_FACTORS.len() * 6);
        assert!(sweep.pyramid_bytes > 0);
        assert!(
            sweep.pyramid_overhead() < 0.15,
            "pyramid overhead {} must stay below 15 %",
            sweep.pyramid_overhead()
        );
        let note = sweep.record().rows.unwrap().note.unwrap();
        assert!(note.ends_with("byte-identical: 30 frames"), "{note}");
        let record = Record::parse(&sweep.record().to_json()).unwrap();
        assert_eq!(record.bench, "zoom_sweep");
        assert!(record.fields.number("zoomed_out_speedup").is_ok());
        assert!(record.fields.number("worst_pyramid_vs_scan").is_ok());
        let frames = record.rows.unwrap();
        assert_eq!((frames.name.as_str(), frames.rows.len()), ("frames", 30));
        assert!(frames.rows[0].number("pyramid_seconds").is_ok());
    }

    #[test]
    fn zoom_window_is_contained_and_scaled() {
        let bounds = TimeInterval::from_cycles(1_000, 101_000);
        for factor in ZOOM_FACTORS {
            let w = zoom_window(bounds, factor);
            assert!(w.start >= bounds.start && w.end <= bounds.end);
            assert_eq!(w.duration(), bounds.duration() / factor);
        }
    }
}
