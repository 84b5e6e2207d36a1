//! Ingest-to-first-insight measurements of the columnar storage engine: trace
//! build (sort + validate + columnarise), index prewarm, anomaly detection and
//! resident memory, on the same dense synthetic trace the zoom sweep navigates.
//!
//! The paper's interactivity contract starts before the first frame: a tool must
//! ingest the trace, build its indexes and run the automatic anomaly scan before
//! anything useful renders. This module measures exactly that pipeline —
//! [`aftermath_trace::TraceBuilder::finish_with`], [`AnalysisSession::prewarm`]
//! and the (uncached) anomaly engine — and reports storage density as measured
//! bytes/event of the columnar stores against the array-of-structs baseline
//! ([`aftermath_trace::Trace::aos_event_bytes`]). [`IngestBench::record`] is the
//! `BENCH_ingest.json` record; its rows of [`crate::gates::GATES`] compare analysis
//! throughput and bytes/event against the committed baseline.

use std::time::Instant;

use aftermath_core::anomaly::{self, AnomalyConfig};
use aftermath_core::{AnalysisSession, Threads};

use crate::figures::Scale;
use crate::record::{quantile, sample_seconds, Fields, Record};
use crate::zoom::zoom_builder;

/// The measured ingest pipeline on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBench {
    /// Total recorded events of the measured trace.
    pub num_events: usize,
    /// Seconds to `finish_with` the builder (sort + validate + columnar build).
    pub build_seconds: f64,
    /// Seconds to build every index shard (counter indexes + state pyramids).
    pub prewarm_seconds: f64,
    /// Seconds for one uncached anomaly scan with the default configuration
    /// (median of 3).
    pub detect_seconds: f64,
    /// Findings of the measured anomaly scan (a plausibility anchor for the
    /// record, not a gated value).
    pub anomalies: usize,
    /// Resident bytes of the columnar event storage.
    pub resident_event_bytes: usize,
    /// Bytes the same events would occupy in the array-of-structs layout.
    pub aos_event_bytes: usize,
}

impl IngestBench {
    /// Resident storage bytes per recorded event.
    pub fn bytes_per_event(&self) -> f64 {
        if self.num_events == 0 {
            return 0.0;
        }
        self.resident_event_bytes as f64 / self.num_events as f64
    }

    /// Fraction of memory saved against the array-of-structs layout
    /// (`0.3` = 30 % smaller).
    pub fn memory_reduction(&self) -> f64 {
        if self.aos_event_bytes == 0 {
            return 0.0;
        }
        1.0 - self.resident_event_bytes as f64 / self.aos_event_bytes as f64
    }

    /// Events per second through prewarm + detect (the gated analysis-throughput
    /// number: the hot paths this storage engine exists for).
    pub fn analyze_events_per_sec(&self) -> f64 {
        self.num_events as f64 / (self.prewarm_seconds + self.detect_seconds).max(1e-12)
    }

    /// Events per second through the whole pipeline (build + prewarm + detect).
    pub fn ingest_events_per_sec(&self) -> f64 {
        self.num_events as f64
            / (self.build_seconds + self.prewarm_seconds + self.detect_seconds).max(1e-12)
    }

    /// The run as a [`Record`] of kind `ingest`.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("num_events", self.num_events)
            .float("build_seconds", self.build_seconds)
            .float("prewarm_seconds", self.prewarm_seconds)
            .float("detect_seconds", self.detect_seconds)
            .int("anomalies", self.anomalies)
            .int("resident_event_bytes", self.resident_event_bytes)
            .int("aos_event_bytes", self.aos_event_bytes)
            .float("bytes_per_event", self.bytes_per_event())
            .float("memory_reduction", self.memory_reduction())
            .float("analyze_events_per_sec", self.analyze_events_per_sec())
            .float("ingest_events_per_sec", self.ingest_events_per_sec());
        Record::new("ingest", fields)
    }
}

/// Runs the ingest pipeline on the zoom-sweep trace at `scale`: build the trace on
/// `threads`, prewarm every index shard, run one anomaly scan (bypassing the
/// session's result cache so the scan itself is measured), and take the memory
/// footprint of the columnar stores.
pub fn run_ingest_bench(scale: Scale, threads: Threads) -> IngestBench {
    let builder = zoom_builder(scale);
    let t0 = Instant::now();
    let trace = builder.finish_with(threads).expect("zoom trace validates");
    let build_seconds = t0.elapsed().as_secs_f64();

    let session = AnalysisSession::new(&trace);
    let t1 = Instant::now();
    session.prewarm(threads);
    let prewarm_seconds = t1.elapsed().as_secs_f64();

    let config = AnomalyConfig::default();
    let mut anomalies = 0;
    let detect_samples = sample_seconds(3, || {
        // The free function bypasses the session's per-config report cache, so
        // every iteration measures a full scan over warm indexes.
        let report = anomaly::detect_anomalies_with(&session, &config, threads)
            .expect("anomaly scan succeeds");
        anomalies = report.len();
    });

    IngestBench {
        num_events: trace.num_events(),
        build_seconds,
        prewarm_seconds,
        detect_seconds: quantile(&detect_samples, 0.5),
        anomalies,
        resident_event_bytes: trace.resident_event_bytes(),
        aos_event_bytes: trace.aos_event_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_bench_measures_and_serialises() {
        let bench = run_ingest_bench(Scale::Test, Threads::single());
        assert!(bench.num_events > 0);
        assert!(bench.build_seconds > 0.0);
        assert!(bench.prewarm_seconds > 0.0);
        assert!(bench.resident_event_bytes > 0);
        assert!(
            bench.memory_reduction() >= 0.25,
            "columnar storage must undercut the struct layout by >= 25 % \
             (measured {:.1} %)",
            bench.memory_reduction() * 100.0
        );
        let record = Record::parse(&bench.record().to_json()).unwrap();
        assert_eq!(record.bench, "ingest");
        assert_eq!(
            record.fields.int_value("num_events"),
            Ok(bench.num_events as u64)
        );
        assert!(record.fields.number("analyze_events_per_sec").unwrap() > 0.0);
        assert!(record.fields.number("bytes_per_event").unwrap() > 0.0);
    }
}
