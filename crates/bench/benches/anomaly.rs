//! Benchmarks of the automatic anomaly-detection engine: full-engine throughput and
//! per-detector cost on the seidel and k-means workloads.

use criterion::{criterion_group, criterion_main, Criterion};

use aftermath_bench::figures::Scale;
use aftermath_bench::kmeans_experiments as km;
use aftermath_bench::seidel_experiments::SeidelExperiment;
use aftermath_core::anomaly::{
    AnomalyConfig, CounterOutlierDetector, DurationOutlierDetector, IdlePhaseDetector,
    NumaLocalityDetector,
};
use aftermath_core::{AnalysisSession, Threads};

fn bench_seidel_detection(c: &mut Criterion) {
    let exp = SeidelExperiment::run(Scale::Test);
    let trace = &exp.non_optimized.trace;
    let session = AnalysisSession::new(trace);
    let tasks = trace.tasks().len() as f64;

    c.bench_function("anomaly_seidel_full_engine", |b| {
        b.iter(|| {
            aftermath_core::anomaly::detect_anomalies(&session, &AnomalyConfig::default()).unwrap()
        });
    });
    // Report detection throughput once (tasks scanned per second) alongside the samples.
    let start = std::time::Instant::now();
    let report =
        aftermath_core::anomaly::detect_anomalies(&session, &AnomalyConfig::default()).unwrap();
    let per_sec = tasks / start.elapsed().as_secs_f64();
    println!(
        "anomaly_seidel_full_engine: {} anomalies over {tasks} tasks, {per_sec:.0} tasks/s",
        report.len()
    );

    let mut group = c.benchmark_group("anomaly_seidel_detector");
    group.sample_size(10);
    group.bench_function("idle_phase", |b| {
        let d = IdlePhaseDetector::default();
        b.iter(|| d.detect(&session).unwrap());
    });
    group.bench_function("numa_locality", |b| {
        let d = NumaLocalityDetector::default();
        b.iter(|| d.detect(&session, Threads::single()));
    });
    group.bench_function("counter_outlier", |b| {
        let d = CounterOutlierDetector::default();
        b.iter(|| d.detect(&session, Threads::single()));
    });
    group.bench_function("duration_outlier", |b| {
        let d = DurationOutlierDetector::default();
        b.iter(|| d.detect(&session, Threads::single()));
    });
    group.finish();
}

fn bench_kmeans_detection(c: &mut Criterion) {
    let spec = km::base_config(Scale::Test).build();
    let result = aftermath_sim::Simulator::new(aftermath_sim::SimConfig::new(
        km::machine(Scale::Test),
        aftermath_sim::RuntimeConfig::numa_optimized(),
        17,
    ))
    .run(&spec)
    .unwrap();
    let session = AnalysisSession::new(&result.trace);

    c.bench_function("anomaly_kmeans_full_engine", |b| {
        b.iter(|| {
            aftermath_core::anomaly::detect_anomalies(&session, &AnomalyConfig::default()).unwrap()
        });
    });
}

criterion_group!(
    name = anomaly;
    config = Criterion::default().sample_size(10);
    targets = bench_seidel_detection, bench_kmeans_detection
);
criterion_main!(anomaly);
