//! Streaming replay measurements: per-epoch ingest and query latency of the live
//! analysis pipeline (`reproduce --stream`).
//!
//! The harness takes a recorded batch trace, canonicalizes it with
//! [`make_streamable`], splits it into evenly spaced time chunks and replays them
//! through a [`LiveSession`], measuring per epoch
//!
//! * the **advance latency** — validation, append and incremental index/pyramid
//!   maintenance (the paper's monitoring-while-running scenario lives or dies on
//!   this staying flat as the trace grows), and
//! * the **frame latency** — a full state-mode timeline over everything ingested so
//!   far, answered from the incrementally maintained indexes.
//!
//! With `verify` set, every epoch's frame is additionally compared against a
//! from-scratch batch session over the same prefix, and the fully replayed trace
//! against the original — the byte-identity claim, checked end to end.

use std::time::Instant;

use aftermath_core::{AnalysisSession, LiveSession, TimelineMode};
use aftermath_trace::streaming::{make_streamable, split_even};
use aftermath_trace::Trace;

use crate::record::{self, Fields, Record};

/// Measurements of one replayed epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochLatency {
    /// Epoch number (1-based: the epoch the chunk advanced the session to).
    pub epoch: u64,
    /// Items appended by this epoch's chunk.
    pub appended_items: usize,
    /// Summary nodes rebuilt by the incremental index maintenance.
    pub nodes_rebuilt: usize,
    /// Seconds spent in [`LiveSession::advance`].
    pub advance_seconds: f64,
    /// Seconds to compute the rolling state-timeline frame for this epoch.
    pub frame_seconds: f64,
}

/// The result of one streaming replay.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBench {
    /// Number of chunks the trace was split into.
    pub chunks: usize,
    /// Horizontal resolution of the per-epoch frame.
    pub columns: usize,
    /// Total recorded items in the replayed trace.
    pub num_events: usize,
    /// Whether every epoch was verified against a batch session.
    pub verified: bool,
    /// Per-epoch measurements, ascending by epoch.
    pub epochs: Vec<EpochLatency>,
}

impl StreamBench {
    /// Advance-latency quantile `q` in seconds (nearest rank).
    pub fn advance_quantile(&self, q: f64) -> f64 {
        let xs: Vec<f64> = self.epochs.iter().map(|e| e.advance_seconds).collect();
        record::quantile(&xs, q)
    }

    /// Frame-latency quantile `q` in seconds (nearest rank).
    pub fn frame_quantile(&self, q: f64) -> f64 {
        let xs: Vec<f64> = self.epochs.iter().map(|e| e.frame_seconds).collect();
        record::quantile(&xs, q)
    }

    /// Total nodes rebuilt across all epochs.
    pub fn total_nodes_rebuilt(&self) -> usize {
        self.epochs.iter().map(|e| e.nodes_rebuilt).sum()
    }

    /// The replay as a [`Record`] of kind `stream_sec6`, one `epochs` row per
    /// replayed chunk.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("chunks", self.chunks)
            .int("columns", self.columns)
            .int("num_events", self.num_events)
            .flag("verified", self.verified)
            .note_if(
                self.verified,
                "every epoch byte-identical to a batch session",
            )
            .float("advance_p50_ms", self.advance_quantile(0.5) * 1e3)
            .float("advance_p95_ms", self.advance_quantile(0.95) * 1e3)
            .float("frame_p50_ms", self.frame_quantile(0.5) * 1e3)
            .float("frame_p95_ms", self.frame_quantile(0.95) * 1e3)
            .int("total_nodes_rebuilt", self.total_nodes_rebuilt());
        let epochs = self
            .epochs
            .iter()
            .map(|e| {
                Fields::new()
                    .int("epoch", e.epoch)
                    .int("appended_items", e.appended_items)
                    .int("nodes_rebuilt", e.nodes_rebuilt)
                    .float("advance_ms", e.advance_seconds * 1e3)
                    .float("frame_ms", e.frame_seconds * 1e3)
            })
            .collect();
        Record::new("stream_sec6", fields).with_rows("epochs", epochs, None)
    }
}

/// Replays `trace` in `num_chunks` evenly spaced time chunks through a
/// [`LiveSession`], rendering one `columns`-wide rolling state-timeline frame per
/// epoch; with `verify`, every epoch is checked byte-identical against a batch
/// session over the same prefix (and the final trace against the original).
///
/// # Panics
///
/// Panics when the trace cannot be split or replayed (the generators used by the
/// benches always can) or when verification fails.
pub fn run_stream_replay(
    trace: &Trace,
    num_chunks: usize,
    columns: usize,
    verify: bool,
) -> StreamBench {
    let streamable = make_streamable(trace);
    let (prologue, chunks) =
        split_even(&streamable, num_chunks).expect("streamable by construction");
    let mut live = LiveSession::new(prologue).expect("prologue must validate");
    let mut epochs = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let appended_items = chunk.len();
        let t0 = Instant::now();
        let stats = live.advance(chunk).expect("replayed chunks must append");
        let advance_seconds = t0.elapsed().as_secs_f64();
        let bounds = live.time_bounds();
        let t1 = Instant::now();
        let frame = (!bounds.is_empty()).then(|| {
            live.session()
                .timeline(TimelineMode::State, bounds, columns)
                .expect("rolling frame")
        });
        let frame_seconds = t1.elapsed().as_secs_f64();
        if verify {
            let batch = AnalysisSession::new(live.trace());
            assert_eq!(bounds, batch.time_bounds(), "epoch {}", stats.epoch);
            if let Some(frame) = &frame {
                let fresh = batch
                    .timeline(TimelineMode::State, bounds, columns)
                    .expect("batch frame");
                assert_eq!(
                    **frame, *fresh,
                    "epoch {}: live frame must be byte-identical to batch",
                    stats.epoch
                );
            }
        }
        epochs.push(EpochLatency {
            epoch: stats.epoch,
            appended_items,
            nodes_rebuilt: stats.nodes_rebuilt,
            advance_seconds,
            frame_seconds,
        });
    }
    if verify {
        assert_eq!(
            live.trace(),
            &streamable,
            "full replay must reproduce the trace"
        );
    }
    StreamBench {
        chunks: epochs.len(),
        columns,
        num_events: streamable.num_events(),
        verified: verify,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Scale;
    use crate::section6;

    #[test]
    fn replay_verifies_and_serialises() {
        let trace = section6::synthetic_trace(Scale::Test);
        let bench = run_stream_replay(&trace, 8, 96, true);
        assert_eq!(bench.chunks, 8);
        assert!(bench.num_events > 0);
        assert!(bench.advance_quantile(0.95) >= bench.advance_quantile(0.0));
        let record = Record::parse(&bench.record().to_json()).unwrap();
        assert_eq!(record.bench, "stream_sec6");
        assert_eq!(record.fields.int_value("chunks"), Ok(8));
        assert_eq!(record.fields.flag_value("verified"), Ok(true));
        assert_eq!(record.rows.unwrap().rows.len(), 8);
    }
}
