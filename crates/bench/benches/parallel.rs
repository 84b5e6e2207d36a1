//! Scaling benchmarks of the parallel execution layer: every pipeline stage —
//! ingest, index prewarm, anomaly detection and timeline rasterization —
//! measured at 1, 2, 4 and all available threads. Ingest is the binary format's
//! one-pass decode, which does not scale, followed by the builder's
//! `finish_with`, which does: the group reads as a constant plus a shrinking
//! part (`reproduce ingest` times the finish alone).
//!
//! On a multi-core machine the per-iteration medians shrink as the thread count
//! grows; on a single-core CI runner they stay flat (the primitives fall back to
//! inline execution, so there is no pathological slowdown either).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aftermath_bench::figures::Scale;
use aftermath_bench::section6::synthetic_trace;
use aftermath_core::{AnalysisSession, AnomalyConfig, Threads, TimelineMode, TimelineModel};
use aftermath_render::TimelineRenderer;
use aftermath_trace::format::{read_trace_with, write_trace};

/// The thread counts every stage is measured at ([`Threads::scaling_counts`]).
fn thread_counts() -> Vec<usize> {
    Threads::scaling_counts()
}

fn bench_ingest(c: &mut Criterion) {
    let trace = synthetic_trace(Scale::Test);
    let mut encoded = Vec::new();
    write_trace(&trace, &mut encoded).unwrap();

    let mut group = c.benchmark_group("parallel_ingest");
    for n in thread_counts() {
        group.bench_with_input(BenchmarkId::new("decode_then_finish", n), &n, |b, &n| {
            b.iter(|| read_trace_with(&encoded[..], Threads::new(n)).unwrap());
        });
    }
    group.finish();
}

fn bench_prewarm(c: &mut Criterion) {
    let trace = synthetic_trace(Scale::Test);

    let mut group = c.benchmark_group("parallel_prewarm");
    for n in thread_counts() {
        group.bench_with_input(BenchmarkId::new("prewarm", n), &n, |b, &n| {
            b.iter(|| {
                // A fresh session per iteration: prewarming is once-per-shard.
                let session = AnalysisSession::new(&trace);
                session.prewarm(Threads::new(n))
            });
        });
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    let trace = synthetic_trace(Scale::Test);
    let config = AnomalyConfig::default();

    let mut group = c.benchmark_group("parallel_detect");
    for n in thread_counts() {
        group.bench_with_input(BenchmarkId::new("detect_anomalies", n), &n, |b, &n| {
            b.iter(|| {
                // A fresh session per iteration so the report cache cannot serve hits.
                let session = AnalysisSession::new(&trace);
                session
                    .detect_anomalies_with(&config, Threads::new(n))
                    .unwrap()
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    let trace = synthetic_trace(Scale::Test);
    let session = AnalysisSession::new(&trace);
    session.prewarm(Threads::auto());
    let bounds = session.time_bounds();
    let model = TimelineModel::build(&session, TimelineMode::State, bounds, 2048).unwrap();
    let renderer = TimelineRenderer::with_row_height(16);

    let mut group = c.benchmark_group("parallel_render");
    for n in thread_counts() {
        group.bench_with_input(BenchmarkId::new("timeline_render", n), &n, |b, &n| {
            b.iter(|| renderer.render_with(&model, Threads::new(n)).draw_calls());
        });
    }
    group.finish();
}

criterion_group!(
    name = parallel;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_prewarm, bench_detect, bench_render
);
criterion_main!(parallel);
