//! Cold-open measurements of the on-disk column store: compression, lazy
//! open-to-first-frame latency and capped-residency navigation, on the same
//! dense synthetic trace the zoom sweep uses.
//!
//! The store exists for exactly one scenario: a trace too expensive to decode
//! and index wholesale before anything renders. This module measures that
//! scenario end to end —
//!
//! * **compression**: bytes on disk per recorded event, against the resident
//!   SoA footprint of the same trace,
//! * **cold open**: `StoreSession::open` + one zoomed-out 800-column state
//!   frame from the untouched store (only state lanes decode), against the
//!   full path (read the AFTM file, build every index, render the same frame),
//! * **capped residency**: a zoom sweep over all six timeline modes with the
//!   lane budget at half the full footprint, verified byte-identical to a
//!   fully resident session at every frame.
//!
//! [`StoreBench::record`] is the `BENCH_store.json` record; its rows of
//! [`crate::gates::GATES`] compare compression against the committed baseline
//! and bound the latency ratio, the residency and the identity bit.

use std::time::Instant;

use aftermath_core::{
    AnalysisSession, StoreSession, TaskFilter, Threads, TimelineEngine, TimelineMode, TimelineModel,
};
use aftermath_trace::format;
use aftermath_trace::store::{write_store_file, StoreStats, StoredTrace};

use crate::figures::Scale;
use crate::record::{Fields, Record};
use crate::zoom::{sweep_modes, zoom_trace, zoom_window, ZOOM_FACTORS};

/// Horizontal resolution of every measured frame, matching the zoom sweep.
pub const STORE_COLUMNS: usize = 800;

/// The measured store pipeline on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreBench {
    /// Total recorded events of the measured trace.
    pub num_events: usize,
    /// Horizontal resolution of the measured frames in pixels.
    pub columns: usize,
    /// Seconds to write the trace into the column store.
    pub write_seconds: f64,
    /// Total bytes of the store file.
    pub file_bytes: u64,
    /// Bytes of the eagerly-loaded metadata header inside the file.
    pub metadata_bytes: u64,
    /// Number of blocks across all lanes.
    pub num_blocks: usize,
    /// Resident bytes of the fully decoded SoA columns (the compression
    /// baseline and the capped sweep's 100 % mark).
    pub soa_bytes: usize,
    /// Seconds for the full path to the same first frame: read the AFTM file,
    /// build the session, prewarm every index, render one zoomed-out frame.
    pub full_first_frame_seconds: f64,
    /// Seconds from `StoreSession::open` on a cold store to the same
    /// zoomed-out state frame (lazy path: footers + state lanes only).
    pub open_first_frame_seconds: f64,
    /// Bytes resident right after the lazy first frame.
    pub open_resident_bytes: usize,
    /// The residency budget of the capped sweep in bytes.
    pub capped_budget_bytes: usize,
    /// Whether every capped frame was byte-identical to the fully resident
    /// reference.
    pub capped_identical: bool,
    /// Number of frames replayed by the capped sweep.
    pub capped_frames: usize,
    /// Largest residency observed between capped frames (after eviction).
    pub capped_peak_resident_bytes: usize,
    /// Residency after the last capped frame.
    pub capped_final_resident_bytes: usize,
}

impl StoreBench {
    /// Bytes on disk per recorded event.
    pub fn compressed_bytes_per_event(&self) -> f64 {
        if self.num_events == 0 {
            return 0.0;
        }
        self.file_bytes as f64 / self.num_events as f64
    }

    /// Store file size relative to the resident SoA columns.
    pub fn disk_vs_soa_ratio(&self) -> f64 {
        if self.soa_bytes == 0 {
            return 0.0;
        }
        self.file_bytes as f64 / self.soa_bytes as f64
    }

    /// Lazy open-to-first-frame time relative to the full path.
    pub fn open_vs_full_ratio(&self) -> f64 {
        self.open_first_frame_seconds / self.full_first_frame_seconds.max(1e-12)
    }

    /// Steady-state residency of the capped sweep relative to the full SoA
    /// footprint (the sweep's budget is half of it).
    pub fn capped_resident_ratio(&self) -> f64 {
        if self.soa_bytes == 0 {
            return 0.0;
        }
        self.capped_peak_resident_bytes as f64 / self.soa_bytes as f64
    }

    /// The run as a [`Record`] of kind `store`.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("num_events", self.num_events)
            .int("columns", self.columns)
            .float("write_seconds", self.write_seconds)
            .int("file_bytes", self.file_bytes)
            .int("metadata_bytes", self.metadata_bytes)
            .int("num_blocks", self.num_blocks)
            .int("soa_bytes", self.soa_bytes)
            .float(
                "compressed_bytes_per_event",
                self.compressed_bytes_per_event(),
            )
            .float("disk_vs_soa_ratio", self.disk_vs_soa_ratio())
            .float("full_first_frame_seconds", self.full_first_frame_seconds)
            .float("open_first_frame_seconds", self.open_first_frame_seconds)
            .float("open_vs_full_ratio", self.open_vs_full_ratio())
            .int("open_resident_bytes", self.open_resident_bytes)
            .int("capped_budget_bytes", self.capped_budget_bytes)
            .int("capped_frames", self.capped_frames)
            .flag("capped_identical", self.capped_identical)
            .note_if(
                self.capped_identical,
                "all byte-identical to the fully resident session",
            )
            .int(
                "capped_peak_resident_bytes",
                self.capped_peak_resident_bytes,
            )
            .int(
                "capped_final_resident_bytes",
                self.capped_final_resident_bytes,
            )
            .float("capped_resident_ratio", self.capped_resident_ratio());
        Record::new("store", fields)
    }
}

/// Runs the store pipeline on the zoom-sweep trace at `scale`; intermediate
/// files go to the process temp directory and are removed afterwards.
pub fn run_store_bench(scale: Scale, threads: Threads) -> StoreBench {
    let trace = zoom_trace(scale);
    let soa_bytes = trace.resident_event_bytes();
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let store_path = dir.join(format!("aftermath-store-bench-{tag}.afst"));
    let aftm_path = dir.join(format!("aftermath-store-bench-{tag}.aftm"));

    let t0 = Instant::now();
    let stats: StoreStats = write_store_file(&trace, &store_path).expect("write store");
    let write_seconds = t0.elapsed().as_secs_f64();

    format::write_trace_file(&trace, &aftm_path).expect("write aftm");
    let bounds = trace.time_bounds();

    // Full path to a first frame: decode the whole AFTM file, build the
    // session, prewarm every index shard, render one zoomed-out state frame.
    let t0 = Instant::now();
    let full_frame = {
        let full = format::read_trace_file_with(&aftm_path, threads).expect("read aftm");
        let session = AnalysisSession::new(&full);
        session.prewarm(threads);
        TimelineModel::build_with_engine(
            &session,
            TimelineMode::State,
            bounds,
            STORE_COLUMNS,
            &TaskFilter::new(),
            TimelineEngine::Scan,
        )
        .expect("full first frame")
    };
    let full_first_frame_seconds = t0.elapsed().as_secs_f64();

    // Lazy path: open reads footers only; the scan-engine state frame decodes
    // just the state lanes.
    let t0 = Instant::now();
    let mut store = StoreSession::open(&store_path).expect("open store");
    let lazy_frame = store.first_frame(STORE_COLUMNS).expect("lazy first frame");
    let open_first_frame_seconds = t0.elapsed().as_secs_f64();
    let open_resident_bytes = store.resident_event_bytes();
    assert_eq!(
        lazy_frame, full_frame,
        "lazy first frame must be byte-identical to the full path"
    );

    // Capped sweep: half the full footprint, every zoom factor × every mode,
    // each frame checked against a fully resident session.
    let capped_budget_bytes = soa_bytes / 2;
    let reference = AnalysisSession::new(&trace);
    let modes = sweep_modes(&trace);
    let filter = TaskFilter::new();
    let mut capped =
        StoreSession::from_store(StoredTrace::open(&store_path).expect("reopen store"));
    capped.set_residency_budget(Some(capped_budget_bytes));
    let mut capped_identical = true;
    let mut capped_frames = 0usize;
    let mut capped_peak_resident_bytes = 0usize;
    for &factor in &ZOOM_FACTORS {
        let window = zoom_window(bounds, factor);
        for &(_, mode) in &modes {
            let got = capped
                .timeline_with_engine(mode, window, STORE_COLUMNS, &filter, TimelineEngine::Scan)
                .expect("capped frame");
            let want = TimelineModel::build_with_engine(
                &reference,
                mode,
                window,
                STORE_COLUMNS,
                &filter,
                TimelineEngine::Scan,
            )
            .expect("reference frame");
            capped_identical &= got == want;
            capped_frames += 1;
            capped_peak_resident_bytes =
                capped_peak_resident_bytes.max(capped.resident_event_bytes());
        }
    }
    let capped_final_resident_bytes = capped.resident_event_bytes();

    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&aftm_path);

    StoreBench {
        num_events: trace.num_events(),
        columns: STORE_COLUMNS,
        write_seconds,
        file_bytes: stats.file_bytes,
        metadata_bytes: stats.metadata_bytes,
        num_blocks: stats.num_blocks,
        soa_bytes,
        full_first_frame_seconds,
        open_first_frame_seconds,
        open_resident_bytes,
        capped_budget_bytes,
        capped_identical,
        capped_frames,
        capped_peak_resident_bytes,
        capped_final_resident_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{gates_of, Verdict};

    #[test]
    fn store_bench_measures_and_serialises() {
        let bench = run_store_bench(Scale::Test, Threads::single());
        assert!(bench.num_events > 0);
        assert!(bench.file_bytes > 0);
        assert_eq!(bench.capped_frames, ZOOM_FACTORS.len() * 6);
        assert!(bench.capped_peak_resident_bytes <= bench.capped_budget_bytes);
        // The lazy first frame decodes only state lanes.
        assert!(bench.open_resident_bytes < bench.soa_bytes);
        let record = Record::parse(&bench.record().to_json()).unwrap();
        assert_eq!(record.bench, "store");
        assert!(record.fields.number("compressed_bytes_per_event").unwrap() > 0.0);
        // The kind's gates hold at test scale too, the relative ones against
        // the record itself.
        for gate in gates_of("store") {
            let (verdict, line) = gate.evaluate(&record, Some(&record));
            assert_eq!(verdict, Verdict::Pass, "{line}");
        }
    }
}
