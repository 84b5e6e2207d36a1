//! Ingest-pipeline benchmarks of the columnar storage engine: trace build
//! (sort + validate + columnar construction), index prewarm and the uncached
//! anomaly scan, plus the column-vs-struct walk that motivates the layout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aftermath_bench::figures::Scale;
use aftermath_bench::zoom::{zoom_builder, zoom_trace};
use aftermath_core::anomaly::{self, AnomalyConfig};
use aftermath_core::{AnalysisSession, Threads};
use aftermath_trace::WorkerState;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_build");
    for threads in Threads::scaling_counts() {
        group.bench_with_input(
            BenchmarkId::new("finish_with", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    zoom_builder(Scale::Test)
                        .finish_with(Threads::new(threads))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    let trace = zoom_trace(Scale::Test);
    let session = AnalysisSession::new(&trace);
    session.prewarm(Threads::auto());
    let config = AnomalyConfig::default();

    let mut group = c.benchmark_group("ingest_detect");
    for threads in Threads::scaling_counts() {
        group.bench_with_input(
            BenchmarkId::new("detect_anomalies", threads),
            &threads,
            |b, &threads| {
                // The free function bypasses the per-config result cache.
                b.iter(|| {
                    anomaly::detect_anomalies_with(&session, &config, Threads::new(threads))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_column_walk(c: &mut Criterion) {
    let trace = zoom_trace(Scale::Test);
    let pc = trace.cpu(aftermath_trace::CpuId(0)).unwrap();
    let mut group = c.benchmark_group("ingest_walk");
    // The hot-loop shape of every detector/pyramid build: a full pass gated on the
    // one-byte state lane.
    group.bench_function("columns", |b| {
        let states = pc.states();
        b.iter(|| {
            let mut cycles = 0u64;
            for i in 0..states.len() {
                if states.is_exec(i) {
                    cycles += states.duration(i);
                }
            }
            cycles
        });
    });
    // The materialising adapter (the pre-refactor struct walk) as the comparison.
    let structs: Vec<_> = pc.states().iter().collect();
    group.bench_function("structs", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for s in &structs {
                if s.state == WorkerState::TaskExecution {
                    cycles += s.duration();
                }
            }
            cycles
        });
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_detect, bench_column_walk);
criterion_main!(benches);
