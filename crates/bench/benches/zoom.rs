//! Zoom/pan latency benchmarks: timeline frame computation by the per-column scan
//! alone vs. with the multi-resolution aggregation pyramid, across zoom levels.
//!
//! With the pyramid a frame costs O(columns · log n) zoomed out and what the scan
//! costs zoomed in, so its times stay at or below the scan's across the factors
//! while the scan's zoomed-out frames grow with the event count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aftermath_bench::figures::Scale;
use aftermath_bench::zoom::{sweep_modes, zoom_trace, zoom_window, ZOOM_FACTORS};
use aftermath_core::{AnalysisSession, TaskFilter, Threads, TimelineEngine, TimelineModel};

const COLUMNS: usize = 256;

fn bench_zoom_frames(c: &mut Criterion) {
    let trace = zoom_trace(Scale::Test);
    let session = AnalysisSession::new(&trace);
    session.prewarm(Threads::auto());
    let bounds = session.time_bounds();
    let filter = TaskFilter::new();
    let (state_name, state_mode) = sweep_modes(&trace)[0];

    let mut group = c.benchmark_group("zoom_frame");
    for factor in ZOOM_FACTORS {
        let window = zoom_window(bounds, factor);
        for engine in [TimelineEngine::Scan, TimelineEngine::Pyramid] {
            group.bench_with_input(
                BenchmarkId::new(format!("{state_name}_{engine:?}"), factor),
                &factor,
                |b, _| {
                    b.iter(|| {
                        TimelineModel::build_with_engine(
                            &session, state_mode, window, COLUMNS, &filter, engine,
                        )
                        .unwrap()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_pyramid_build(c: &mut Criterion) {
    let trace = zoom_trace(Scale::Test);

    let mut group = c.benchmark_group("zoom_prewarm");
    for threads in Threads::scaling_counts() {
        group.bench_with_input(
            BenchmarkId::new("prewarm", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    // A fresh session per iteration: pyramid builds are once-per-CPU.
                    let session = AnalysisSession::new(&trace);
                    session.prewarm(Threads::new(threads))
                });
            },
        );
    }
    group.finish();
}

fn bench_state_kernel(c: &mut Criterion) {
    use aftermath_core::{kernels, SimdLevel};
    let n = 1 << 18;
    let starts: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let ends: Vec<u64> = (0..n as u64).map(|i| i * 10 + 7).collect();
    let tags: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    let mut sums = [0u64; aftermath_trace::WorkerState::COUNT];

    let mut group = c.benchmark_group("state_kernel");
    group.bench_function("tag_duration_sums_scalar", |b| {
        b.iter(|| {
            kernels::tag_duration_sums_at(SimdLevel::Scalar, &starts, &ends, &tags, &mut sums)
        });
    });
    group.bench_function("tag_duration_sums_dispatched", |b| {
        b.iter(|| kernels::tag_duration_sums(&starts, &ends, &tags, &mut sums));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_zoom_frames,
    bench_pyramid_build,
    bench_state_kernel
);
criterion_main!(benches);
