//! The four workloads: set-up, the closed-loop timed phase, and verification.
//!
//! Every workload starts from the AFST file `write_store_file` produced and
//! drives the program through its public functions only. An *interaction* is
//! the sampled unit — a *frame*, a *query* (the statistics-panel refresh for
//! every CPU) or a *report* (anomaly scan plus the drill-in frame on rank 0).
//! Answers are checked outside the timed regions: served bytes against
//! `manager::direct_response` on a direct session, in-process frames against
//! the scan engine, store-backed answers against a resident session.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aftermath_core::anomaly::{self, AnomalyConfig, AnomalyReport};
use aftermath_core::{
    AnalysisSession, CacheStats, SharedSession, StoreSession, TaskFilter, Threads, TimelineEngine,
    TimelineMode, TimelineModel,
};
use aftermath_render::{Framebuffer, Palette, TimelineRenderer};
use aftermath_serve::manager::{direct_response, query_result};
use aftermath_serve::{
    Client, DetectorSet, QueryResult, Request, Response, ServeConfig, Server, SessionManager,
};
use aftermath_trace::{write_store_file, CpuId, StoredTrace, TimeInterval, Trace};

use crate::input::{self, Rng, View, COLUMNS, COUNTER, MODES};
use crate::metrics::Sample;
use crate::spans::{span, CountingTier, Recorder, TierStats, TierTotals};

/// Name under which the serve workloads register their trace.
pub const TRACE_NAME: &str = "e2e";
/// Load-generator threads and connections of the serve workloads, never more
/// than the box has cores.
pub const CLIENTS: usize = 2;
/// Views in `serve_shared`'s hot set, below the 64-entry timeline cache.
pub const HOT_VIEWS: usize = 48;
/// Opens per `cold_open` cycle: open-to-first-frame is what the workload is
/// for, and one per cycle would leave a run too few frames for a tail.
const COLD_FRAMES_PER_CYCLE: usize = 4;
/// Passes over every (zoom, mode) combination in `navigate`'s script:
/// 19 800 views, several times what a run of 20 s walks (≈ 4 000).
const NAVIGATE_SCRIPT_PASSES: usize = 300;
/// The same for each `store_pressure` client: 2 640 ops against ≈ 200.
const STORE_SCRIPT_PASSES: usize = 40;
/// `navigate` runs a report after this many steps.
const NAVIGATE_REPORT_EVERY: usize = 100;
/// One in this many `navigate` steps (and reports) is verified.
const VERIFY_ONE_IN: usize = 8;
/// `max_anomalies` of the shared report configuration; fresh configurations
/// count up from here.
const REPORT_MAX_ANOMALIES: u32 = 32;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub pairs_per_cpu: usize,
    /// How often the whole set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Scratch directory for the store file (created, and emptied afterwards).
    pub data_dir: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdOpen,
    Navigate,
    ServeShared,
    StorePressure,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdOpen,
        Workload::Navigate,
        Workload::ServeShared,
        Workload::StorePressure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdOpen => "cold_open",
            Workload::Navigate => "navigate",
            Workload::ServeShared => "serve_shared",
            Workload::StorePressure => "store_pressure",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Task/idle pairs per CPU of this workload's trace, given the full
    /// size. `store_pressure` runs on a quarter-size trace: every one of its
    /// requests re-materialises evicted lanes, which at full size leaves a
    /// run too few interactions for a steady median.
    pub fn pairs_per_cpu(self, full: usize) -> usize {
        match self {
            Workload::StorePressure => full / 4,
            _ => full,
        }
    }
}

/// The generated trace on disk, and what writing it cost.
#[derive(Debug, Clone)]
pub struct StoreFile {
    pub path: PathBuf,
    pub events: u64,
    pub file_bytes: u64,
    /// Resident bytes of the fully decoded columns.
    pub soa_bytes: usize,
    pub bounds: TimeInterval,
    pub cpus: Vec<CpuId>,
    pub finish_s: f64,
    pub write_s: f64,
}

/// Generate → `finish` → `write_store_file`; the trace itself is dropped.
pub fn write_input(cfg: &Config) -> StoreFile {
    std::fs::create_dir_all(&cfg.data_dir).expect("create data directory");
    let path = cfg.data_dir.join("trace.afst");
    let builder = input::trace_builder(cfg.seed, cfg.pairs_per_cpu);
    let started = Instant::now();
    let trace = builder.finish().expect("generated trace validates");
    let finish_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let stats = write_store_file(&trace, &path).expect("write store file");
    let write_s = started.elapsed().as_secs_f64();
    StoreFile {
        path,
        events: trace.num_events() as u64,
        file_bytes: stats.file_bytes,
        soa_bytes: trace.resident_event_bytes(),
        bounds: trace.time_bounds(),
        cpus: trace.topology().cpu_ids().collect(),
        finish_s,
        write_s,
    }
}

/// The whole trace decoded from the store file, as memory-backed sessions
/// and the verification oracles hold it.
pub fn load_resident(path: &Path) -> Arc<Trace> {
    let mut stored = StoredTrace::open(path).expect("open store file");
    let trace = stored.materialise_all().expect("materialise store file");
    Arc::new(trace.clone())
}

/// The three interactions; every latency sample is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    Frame,
    Query,
    Report,
}

impl Interaction {
    fn span_name(self) -> &'static str {
        match self {
            Interaction::Frame => "frame",
            Interaction::Query => "query",
            Interaction::Report => "report",
        }
    }
}

/// Latencies of one timed phase, by interaction.
#[derive(Debug)]
pub struct Samples {
    /// Start of the phase; samples remember when they completed relative to
    /// it, so percentiles can be taken round by round.
    epoch: Instant,
    pub frames: Vec<Sample>,
    pub queries: Vec<Sample>,
    pub reports: Vec<Sample>,
    /// Interactions that returned an error (or, served, the wrong bytes).
    pub failed: u64,
}

impl Samples {
    fn new(epoch: Instant) -> Self {
        Samples {
            epoch,
            frames: Vec::new(),
            queries: Vec::new(),
            reports: Vec::new(),
            failed: 0,
        }
    }

    /// Records an interaction that started at `started` and ends now.
    fn record(&mut self, interaction: Interaction, started: Instant) {
        self.record_at(interaction, started, Instant::now());
    }

    fn record_at(&mut self, interaction: Interaction, started: Instant, now: Instant) {
        let sample = Sample {
            at_s: (now - self.epoch).as_secs_f64(),
            ms: (now - started).as_secs_f64() * 1e3,
        };
        match interaction {
            Interaction::Frame => self.frames.push(sample),
            Interaction::Query => self.queries.push(sample),
            Interaction::Report => self.reports.push(sample),
        }
    }

    pub fn completed(&self) -> u64 {
        (self.frames.len() + self.queries.len() + self.reports.len()) as u64
    }

    pub fn attempted(&self) -> u64 {
        self.completed() + self.failed
    }

    fn merge(&mut self, other: Samples) {
        self.frames.extend(other.frames);
        self.queries.extend(other.queries);
        self.reports.extend(other.reports);
        self.failed += other.failed;
    }
}

/// One timed phase and the layer counters read around it.
#[derive(Debug)]
pub struct Phase {
    pub samples: Samples,
    pub wall_s: f64,
    /// Reads of the counting tier during the phase.
    pub tier: TierTotals,
    /// Lookups of the shared result caches during the phase.
    pub cache: CacheStats,
    /// Store sessions the tier reads are spread over: the cycles of
    /// `cold_open`, the one session of `store_pressure`.
    pub store_opens: u64,
}

fn cache_since(now: CacheStats, earlier: CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - earlier.hits,
        misses: now.misses - earlier.misses,
    }
}

/// A workload after set-up.
pub trait Prepared {
    fn file(&self) -> &StoreFile;
    /// Runs interactions back to back for `seconds`.
    fn run(&mut self, seconds: f64) -> Phase;
    /// Checks every answer kept since the last call; returns how many were
    /// wrong.
    fn verify(&mut self) -> u64;
}

/// The whole set-up of `workload`, up to and including its warm-up pass.
pub fn prepare(
    workload: Workload,
    cfg: &Config,
    recorder: Option<Arc<Recorder>>,
) -> Box<dyn Prepared> {
    let file = write_input(cfg);
    match workload {
        Workload::ColdOpen => Box::new(ColdOpen::prepare(file, cfg, recorder)),
        Workload::Navigate => Box::new(Navigate::prepare(file, cfg, recorder)),
        Workload::ServeShared => Box::new(Served::prepare_shared(file, cfg, recorder)),
        Workload::StorePressure => Box::new(Served::prepare_store(file, cfg, recorder)),
    }
}

/// FNV-1a: what an answer is remembered by until the oracle re-computes it
/// after the timed phase, so the kept answers stay out of `peak_rss_mb`.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a frame's wire encoding.
fn frame_digest(model: &TimelineModel) -> u64 {
    digest(&Response::Timeline(model.clone()).encode())
}

fn scan_frame(
    oracle: &AnalysisSession<'_>,
    mode: TimelineMode,
    interval: TimeInterval,
    filter: &TaskFilter,
) -> Option<TimelineModel> {
    TimelineModel::build_with_engine(
        oracle,
        mode,
        interval,
        COLUMNS,
        filter,
        TimelineEngine::Scan,
    )
    .ok()
}

fn query_bundle(query: &aftermath_core::IntervalQuery<'_, '_>, cpus: &[CpuId]) -> Vec<QueryResult> {
    cpus.iter()
        .map(|&cpu| query_result(query, cpu, Some(COUNTER)))
        .collect()
}

fn report_config(max_anomalies: u32) -> AnomalyConfig {
    DetectorSet::ALL.config(max_anomalies as usize)
}

/// Renders in-process frames the way a front end would: one reused
/// framebuffer, on the calling thread.
struct Screen {
    renderer: TimelineRenderer,
    fb: Framebuffer,
}

impl Screen {
    fn new() -> Self {
        Screen {
            renderer: TimelineRenderer::new(),
            fb: Framebuffer::new(0, 0, Palette::default().background),
        }
    }

    fn render(&mut self, recorder: Option<&Recorder>, model: &TimelineModel) {
        let _span = span(recorder, "TimelineRenderer::render_into");
        self.renderer
            .render_into(model, Threads::single(), &mut self.fb);
        std::hint::black_box(self.fb.draw_calls());
    }
}

// ---------------------------------------------------------------------------
// cold_open
// ---------------------------------------------------------------------------

/// What one `cold_open` cycle answered, kept for verification (frames by
/// their digest).
struct ColdAnswers {
    first_frames: Vec<u64>,
    window: TimeInterval,
    queries: Option<Vec<QueryResult>>,
    report: Option<(Arc<AnomalyReport>, u64)>,
}

struct ColdOpen {
    file: StoreFile,
    recorder: Option<Arc<Recorder>>,
    tier: Arc<TierStats>,
    rng: Rng,
    kept: Vec<ColdAnswers>,
}

impl ColdOpen {
    fn prepare(file: StoreFile, cfg: &Config, recorder: Option<Arc<Recorder>>) -> Self {
        let mut prepared = ColdOpen {
            file,
            recorder,
            tier: Arc::default(),
            rng: Rng::fork(cfg.seed, 2),
            kept: Vec::new(),
        };
        // One untimed cycle, so the first timed open does not also pay for
        // faulting in the binary's cold paths.
        let mut warm = Samples::new(Instant::now());
        prepared.cycle(&mut Screen::new(), &mut warm);
        prepared
    }

    /// Times [`COLD_FRAMES_PER_CYCLE`] frames (each from opening a fresh
    /// session on the file to its first rendered frame), then one query and
    /// one report on the last of those sessions.
    fn cycle(&mut self, screen: &mut Screen, samples: &mut Samples) {
        let recorder = self.recorder.as_deref();
        let mut answers = ColdAnswers {
            first_frames: Vec::new(),
            window: input::window(&mut self.rng, self.file.bounds, 4),
            queries: None,
            report: None,
        };

        // Open to first rendered frame, several times over: each on a fresh
        // session (the previous one is dropped off the clock), the last of
        // which then answers the query and the report.
        let mut session = None;
        for _ in 0..COLD_FRAMES_PER_CYCLE {
            drop(session.take());
            let started = Instant::now();
            let opened = {
                let _interaction = span(recorder, "frame");
                let opened = {
                    let _span = span(recorder, "StoreSession::open");
                    CountingTier::open(
                        &self.file.path,
                        Arc::clone(&self.tier),
                        self.recorder.clone(),
                    )
                    .and_then(|tier| StoredTrace::open_with_tier(Box::new(tier)))
                    .map(StoreSession::from_store)
                };
                opened.ok().and_then(|mut opened| {
                    let model = {
                        let _span = span(recorder, "StoreSession::first_frame");
                        opened.first_frame(COLUMNS).ok()?
                    };
                    screen.render(recorder, &model);
                    Some((opened, model))
                })
            };
            match opened {
                Some((opened, model)) => {
                    samples.record(Interaction::Frame, started);
                    session = Some(opened);
                    answers.first_frames.push(frame_digest(&model));
                }
                None => samples.failed += 1,
            }
        }
        let Some(mut session) = session else {
            self.kept.push(answers);
            return;
        };

        let started = Instant::now();
        let queries = {
            let _interaction = span(recorder, "query");
            let _span = span(recorder, "StoreSession::query");
            session.query(answers.window, |q| query_bundle(q, &self.file.cpus))
        };
        match queries {
            Ok(queries) => {
                samples.record(Interaction::Query, started);
                answers.queries = Some(queries);
            }
            Err(_) => samples.failed += 1,
        }

        let started = Instant::now();
        let report = {
            let _interaction = span(recorder, "report");
            let report = {
                let _span = span(recorder, "StoreSession::detect_anomalies");
                session.detect_anomalies(&report_config(REPORT_MAX_ANOMALIES))
            };
            report.ok().and_then(|report| {
                let anomaly = report.as_slice().first()?;
                let drill_in = {
                    let _span = span(recorder, "StoreSession::timeline_with_engine");
                    session
                        .timeline_with_engine(
                            TimelineMode::State,
                            anomaly.interval,
                            COLUMNS,
                            &TaskFilter::from_anomaly(anomaly),
                            TimelineEngine::Adaptive,
                        )
                        .ok()?
                };
                screen.render(recorder, &drill_in);
                Some((Arc::clone(&report), drill_in))
            })
        };
        match report {
            Some((report, drill_in)) => {
                samples.record(Interaction::Report, started);
                answers.report = Some((report, frame_digest(&drill_in)));
            }
            None => samples.failed += 1,
        }
        self.kept.push(answers);
    }
}

impl Prepared for ColdOpen {
    fn file(&self) -> &StoreFile {
        &self.file
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let mut screen = Screen::new();
        let tier_before = self.tier.totals();
        let started = Instant::now();
        let mut samples = Samples::new(started);
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut cycles = 0;
        while Instant::now() < deadline {
            self.cycle(&mut screen, &mut samples);
            cycles += 1;
        }
        Phase {
            samples,
            wall_s: started.elapsed().as_secs_f64(),
            tier: self.tier.totals().since(tier_before),
            cache: CacheStats::default(),
            store_opens: cycles * COLD_FRAMES_PER_CYCLE as u64,
        }
    }

    fn verify(&mut self) -> u64 {
        let kept = std::mem::take(&mut self.kept);
        let trace = load_resident(&self.file.path);
        let oracle = AnalysisSession::new(&trace);
        let no_filter = TaskFilter::new();
        let first_frame = scan_frame(&oracle, TimelineMode::State, self.file.bounds, &no_filter)
            .map(|frame| frame_digest(&frame));
        let report = anomaly::detect_anomalies(&oracle, &report_config(REPORT_MAX_ANOMALIES)).ok();
        let drill_in = report.as_ref().and_then(|report| {
            let anomaly = report.as_slice().first()?;
            let frame = scan_frame(
                &oracle,
                TimelineMode::State,
                anomaly.interval,
                &TaskFilter::from_anomaly(anomaly),
            )?;
            Some(frame_digest(&frame))
        });
        let mut wrong = 0;
        for answers in &kept {
            wrong += answers
                .first_frames
                .iter()
                .filter(|&&frame| Some(frame) != first_frame)
                .count() as u64;
            if let Some(queries) = &answers.queries {
                let expected = query_bundle(&oracle.query(answers.window), &self.file.cpus);
                wrong += u64::from(*queries != expected);
            }
            if let Some((got_report, got_drill_in)) = &answers.report {
                let same = report.as_ref().is_some_and(|r| r == got_report.as_ref())
                    && drill_in == Some(*got_drill_in);
                wrong += u64::from(!same);
            }
        }
        wrong
    }
}

// ---------------------------------------------------------------------------
// navigate
// ---------------------------------------------------------------------------

/// A sampled `navigate` step, kept for verification.
struct NavigateAnswers {
    view: View,
    frame_digest: u64,
    queries: Vec<QueryResult>,
}

struct Navigate {
    file: StoreFile,
    recorder: Option<Arc<Recorder>>,
    shared: SharedSession,
    /// The walk: balanced passes over every zoom level and mode, with every
    /// sixteenth step going back two views (the walk's only cache hits).
    script: Vec<View>,
    step: usize,
    reports: u32,
    kept: Vec<NavigateAnswers>,
    kept_reports: Vec<(u32, Arc<AnomalyReport>, u64)>,
}

impl Navigate {
    fn prepare(file: StoreFile, cfg: &Config, recorder: Option<Arc<Recorder>>) -> Self {
        let trace = load_resident(&file.path);
        let shared = SharedSession::open(trace, Threads::auto());
        let mut rng = Rng::fork(cfg.seed, 3);
        let mut script = Vec::new();
        for chunk in input::balanced_views(&mut rng, file.bounds, NAVIGATE_SCRIPT_PASSES).chunks(15)
        {
            script.extend_from_slice(chunk);
            script.push(chunk[chunk.len().saturating_sub(2)]);
        }
        let mut prepared = Navigate {
            file,
            recorder,
            shared,
            script,
            step: 0,
            reports: 0,
            kept: Vec::new(),
            kept_reports: Vec::new(),
        };
        // Warm-up: a report and a good pass over every zoom level and mode
        // calibrate the adaptive engine's cost model before timing starts —
        // and leave the walk at a step whose turn it is to report, so every
        // timed phase has a report however short it is.
        prepared.walk(Some(NAVIGATE_REPORT_EVERY), None);
        prepared.kept.clear();
        prepared.kept_reports.clear();
        prepared
    }

    /// Walks the script for `steps` steps or until `deadline`.
    fn walk(&mut self, steps: Option<usize>, deadline: Option<Instant>) -> Samples {
        let recorder = self.recorder.as_deref();
        let session = self.shared.view();
        let mut samples = Samples::new(Instant::now());
        let mut screen = Screen::new();
        let mut taken = 0;
        loop {
            if steps.is_some_and(|n| taken >= n) || deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            if self.step.is_multiple_of(NAVIGATE_REPORT_EVERY) {
                // A fresh `max_anomalies` per report, so the scan misses the
                // report cache every time.
                let max_anomalies = REPORT_MAX_ANOMALIES + self.reports;
                let sampled = (self.reports as usize).is_multiple_of(VERIFY_ONE_IN);
                self.reports += 1;
                let started = Instant::now();
                let report = {
                    let _interaction = span(recorder, "report");
                    let report = {
                        let _span = span(recorder, "AnalysisSession::detect_anomalies");
                        session.detect_anomalies(&report_config(max_anomalies))
                    };
                    report.ok().and_then(|report| {
                        let anomaly = report.as_slice().first()?;
                        let drill_in = {
                            let _span = span(recorder, "AnalysisSession::timeline_filtered");
                            session
                                .timeline_filtered(
                                    TimelineMode::State,
                                    anomaly.interval,
                                    COLUMNS,
                                    &TaskFilter::from_anomaly(anomaly),
                                )
                                .ok()?
                        };
                        screen.render(recorder, &drill_in);
                        Some((Arc::clone(&report), drill_in))
                    })
                };
                match report {
                    Some((report, drill_in)) => {
                        samples.record(Interaction::Report, started);
                        if sampled {
                            self.kept_reports.push((
                                max_anomalies,
                                report,
                                frame_digest(&drill_in),
                            ));
                        }
                    }
                    None => samples.failed += 1,
                }
            }
            let view = self.script[self.step % self.script.len()];
            let sampled = self.step.is_multiple_of(VERIFY_ONE_IN);
            self.step += 1;
            taken += 1;

            let started = Instant::now();
            let model = {
                let _interaction = span(recorder, "frame");
                let model = {
                    let _span = span(recorder, "AnalysisSession::timeline");
                    session.timeline(view.mode, view.interval, COLUMNS)
                };
                model.ok().inspect(|model| screen.render(recorder, model))
            };
            match &model {
                Some(_) => samples.record(Interaction::Frame, started),
                None => samples.failed += 1,
            }

            let started = Instant::now();
            let queries = {
                let _interaction = span(recorder, "query");
                let _span = span(recorder, "AnalysisSession::query");
                query_bundle(&session.query(view.interval), &self.file.cpus)
            };
            samples.record(Interaction::Query, started);
            if let (true, Some(model)) = (sampled, &model) {
                self.kept.push(NavigateAnswers {
                    view,
                    frame_digest: frame_digest(model),
                    queries,
                });
            }
        }
        samples
    }
}

impl Prepared for Navigate {
    fn file(&self) -> &StoreFile {
        &self.file
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let before = self.shared.cache_stats();
        let started = Instant::now();
        let samples = self.walk(None, Some(started + Duration::from_secs_f64(seconds)));
        let after = self.shared.cache_stats();
        Phase {
            samples,
            wall_s: started.elapsed().as_secs_f64(),
            tier: TierTotals::default(),
            cache: cache_since(after, before),
            store_opens: 0,
        }
    }

    fn verify(&mut self) -> u64 {
        let kept = std::mem::take(&mut self.kept);
        let kept_reports = std::mem::take(&mut self.kept_reports);
        // A direct session with indexes of its own answers the queries; the
        // scan engine, which reads neither pyramids nor caches, the frames.
        let oracle = AnalysisSession::new(self.shared.trace());
        oracle.prewarm(Threads::auto());
        let no_filter = TaskFilter::new();
        let mut wrong = kept
            .iter()
            .filter(|answers| {
                let view = answers.view;
                let frame = scan_frame(&oracle, view.mode, view.interval, &no_filter);
                let queries = query_bundle(&oracle.query(view.interval), &self.file.cpus);
                frame.map(|f| frame_digest(&f)) != Some(answers.frame_digest)
                    || queries != answers.queries
            })
            .count() as u64;
        for (max_anomalies, got, got_drill_in) in &kept_reports {
            let expected = anomaly::detect_anomalies_with(
                &oracle,
                &report_config(*max_anomalies),
                Threads::auto(),
            )
            .ok();
            let drill_in = expected.as_ref().and_then(|report| {
                let anomaly = report.as_slice().first()?;
                scan_frame(
                    &oracle,
                    TimelineMode::State,
                    anomaly.interval,
                    &TaskFilter::from_anomaly(anomaly),
                )
            });
            let same = expected.as_ref() == Some(got.as_ref())
                && drill_in.map(|f| frame_digest(&f)) == Some(*got_drill_in);
            wrong += u64::from(!same);
        }
        wrong
    }
}

// ---------------------------------------------------------------------------
// serve_shared and store_pressure
// ---------------------------------------------------------------------------

/// One served interaction: the requests it sends, timed as one.
#[derive(Debug, Clone)]
struct Op {
    kind: Interaction,
    requests: Vec<Request>,
}

pub fn frame_request(session: u64, view: View) -> Request {
    Request::Timeline {
        session,
        mode: view.mode,
        interval: view.interval,
        columns: COLUMNS as u32,
    }
}

fn frame_op(session: u64, view: View) -> Op {
    Op {
        kind: Interaction::Frame,
        requests: vec![frame_request(session, view)],
    }
}

fn query_op(session: u64, view: View, cpus: &[CpuId]) -> Op {
    Op {
        kind: Interaction::Query,
        requests: cpus
            .iter()
            .map(|&cpu| Request::Query {
                session,
                interval: view.interval,
                cpu,
                counter: Some(COUNTER),
            })
            .collect(),
    }
}

fn report_op(session: u64, max_anomalies: u32) -> Op {
    Op {
        kind: Interaction::Report,
        requests: vec![
            Request::Anomalies {
                session,
                detectors: DetectorSet::ALL,
                max_anomalies,
            },
            Request::DrillIn {
                session,
                detectors: DetectorSet::ALL,
                max_anomalies,
                rank: 0,
                mode: TimelineMode::State,
                columns: COLUMNS as u32,
            },
        ],
    }
}

/// The raw response payloads of one interaction, in request order.
type Payloads = Vec<Vec<u8>>;

/// Kept answers: `(index into the script, digest of each payload)` per
/// interaction.
type Kept = Vec<(usize, Vec<u64>)>;

/// How a served answer is checked.
enum Check {
    /// Against bytes computed during set-up, right after the interaction
    /// (`serve_shared`: the hot set is small and every op repeats).
    Inline(Arc<Vec<Payloads>>),
    /// Kept, and compared after the timed phase (`store_pressure`: every
    /// view is distinct, and the resident oracle must not sit in memory
    /// while the capped store is measured).
    Kept(Kept),
}

/// How a client picks its next op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    /// `serve_shared`: 75 % frames, 20 % queries, 5 % the one shared report,
    /// the view skewed towards the front of the hot set. Ops are laid out
    /// `[frames.., queries.., report]`.
    Hot,
    /// `store_pressure` and warm-ups: the script in order.
    InOrder,
}

/// One closed-loop client: a connection, its open session, its script.
struct Connection {
    client: Client,
    ops: Vec<Op>,
    cursor: usize,
    rng: Rng,
    check: Check,
}

impl Connection {
    /// Sends one interaction's requests and decodes every answer; the raw
    /// payloads come back for checking.
    fn interact(client: &mut Client, op: &Op, recorder: Option<&Recorder>) -> Option<Payloads> {
        let _interaction = span(recorder, op.kind.span_name());
        let mut payloads = Vec::with_capacity(op.requests.len());
        for request in &op.requests {
            let raw = {
                let _span = span(recorder, "Client::request_raw");
                client.request_raw(request).ok()?
            };
            let response = {
                let _span = span(recorder, "Response::decode");
                Response::decode(&raw).ok()?
            };
            if matches!(response, Response::Error { .. }) {
                return None;
            }
            payloads.push(raw);
        }
        Some(payloads)
    }

    /// Runs interactions until `deadline` (a warm-up: `limit` of them);
    /// `epoch` is the start of the phase all clients share.
    fn drive(
        &mut self,
        pick: Pick,
        limit: Option<usize>,
        (epoch, deadline): (Instant, Option<Instant>),
        recorder: Option<&Recorder>,
    ) -> Samples {
        let mut samples = Samples::new(epoch);
        let mut done = 0;
        loop {
            if limit.is_some_and(|n| done >= n) || deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            done += 1;
            let index = match pick {
                Pick::Hot => {
                    let u = self.rng.below(1 << 16);
                    let view = ((u * u * HOT_VIEWS as u64) >> 32) as usize;
                    match self.rng.below(100) {
                        0..75 => view,
                        75..95 => HOT_VIEWS + view,
                        _ => 2 * HOT_VIEWS,
                    }
                }
                Pick::InOrder => {
                    self.cursor += 1;
                    (self.cursor - 1) % self.ops.len()
                }
            };
            let op = &self.ops[index];
            let started = Instant::now();
            let payloads = Self::interact(&mut self.client, op, recorder);
            let finished = Instant::now();
            let ok = match (payloads, &mut self.check) {
                (None, _) => false,
                (Some(payloads), Check::Inline(expected)) => payloads == expected[index],
                (Some(payloads), Check::Kept(kept)) => {
                    kept.push((index, payloads.iter().map(|p| digest(p)).collect()));
                    true
                }
            };
            if ok {
                samples.record_at(op.kind, started, finished);
            } else {
                samples.failed += 1;
            }
        }
        samples
    }
}

/// A running server with its closed-loop clients; both serve workloads.
struct Served {
    file: StoreFile,
    recorder: Option<Arc<Recorder>>,
    pick: Pick,
    // Declared before the server: the connections must close before the
    // server joins its workers.
    connections: Vec<Connection>,
    /// The memory-backed trace's shared state (`serve_shared`).
    shared: Option<Arc<SharedSession>>,
    /// Reads of the store-backed trace's file (`store_pressure`).
    tier: Arc<TierStats>,
    _server: Server,
}

/// A server with one worker per client of the serve workloads.
pub fn start_server(manager: Arc<SessionManager>) -> Server {
    Server::start(
        manager,
        ServeConfig {
            workers: CLIENTS,
            backlog: CLIENTS,
            request_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    )
    .expect("server starts")
}

/// A connection with a session open on the registered trace.
pub fn connect(server: &Server) -> (Client, u64) {
    let mut client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("client timeout");
    let session = client.open(TRACE_NAME).expect("session opens");
    (client, session)
}

impl Served {
    /// `serve_shared`: a memory-backed trace, a hot set of views below the
    /// cache capacity, the oracle's bytes computed up front.
    fn prepare_shared(file: StoreFile, cfg: &Config, recorder: Option<Arc<Recorder>>) -> Self {
        let trace = load_resident(&file.path);
        let shared = Arc::new(SharedSession::open(Arc::clone(&trace), Threads::auto()));
        let mut manager = SessionManager::new(CLIENTS);
        manager.register_memory(TRACE_NAME, Arc::clone(&shared));
        let server = start_server(Arc::new(manager));

        let mut rng = Rng::fork(cfg.seed, 4);
        let views: Vec<View> = (0..HOT_VIEWS)
            .map(|i| View {
                mode: MODES[i % MODES.len()],
                interval: input::window(&mut rng, file.bounds, (i as u32 * 7) % 9),
            })
            .collect();
        let hot_ops = |session: u64| -> Vec<Op> {
            let frames = views.iter().map(|&v| frame_op(session, v));
            let queries = views.iter().map(|&v| query_op(session, v, &file.cpus));
            frames
                .chain(queries)
                .chain([report_op(session, REPORT_MAX_ANOMALIES)])
                .collect()
        };
        let expected = {
            let direct = AnalysisSession::new(&trace);
            direct.prewarm(Threads::auto());
            Arc::new(expected_payloads(&direct, &hot_ops(0)))
        };
        let mut connections: Vec<Connection> = (0..CLIENTS)
            .map(|i| {
                let (client, session) = connect(&server);
                Connection {
                    client,
                    ops: hot_ops(session),
                    cursor: 0,
                    rng: Rng::fork(cfg.seed, 10 + i as u64),
                    check: Check::Inline(Arc::clone(&expected)),
                }
            })
            .collect();
        // Warm-up: every hot request once per client, so the timed phase
        // measures the shared caches and not their first fill.
        for connection in &mut connections {
            let every_op = connection.ops.len();
            let warm =
                connection.drive(Pick::InOrder, Some(every_op), (Instant::now(), None), None);
            assert_eq!(warm.failed, 0, "warm-up answers must match the oracle");
        }
        Served {
            file,
            recorder,
            pick: Pick::Hot,
            connections,
            shared: Some(shared),
            tier: Arc::default(),
            _server: server,
        }
    }

    /// `store_pressure`: the store file behind a residency budget of half
    /// its decoded size, [`CLIENTS`] clients each on a walk of its own of
    /// distinct views — per 20 ops 16 frames, 3 queries and 1 report with a
    /// fresh configuration. Requests on a store-backed trace serialise behind
    /// one mutex, so a client's latency is its wait for the other's request
    /// plus its own.
    fn prepare_store(file: StoreFile, cfg: &Config, recorder: Option<Arc<Recorder>>) -> Self {
        let tier = Arc::<TierStats>::default();
        let mut manager = SessionManager::new(CLIENTS);
        manager.register_store(
            TRACE_NAME,
            capped_store_session(&file, Arc::clone(&tier), recorder.clone()),
        );
        let server = start_server(Arc::new(manager));

        let mut connections: Vec<Connection> = (0..CLIENTS)
            .map(|i| {
                let (client, session) = connect(&server);
                let mut rng = Rng::fork(cfg.seed, 20 + i as u64);
                let ops = input::balanced_views(&mut rng, file.bounds, STORE_SCRIPT_PASSES)
                    .into_iter()
                    .enumerate()
                    .map(|(n, view)| match n % 20 {
                        3 | 9 | 16 => query_op(session, view, &file.cpus),
                        // No two reports of a run share a configuration.
                        12 => {
                            report_op(session, REPORT_MAX_ANOMALIES + 1 + (n * CLIENTS + i) as u32)
                        }
                        _ => frame_op(session, view),
                    })
                    .collect();
                Connection {
                    client,
                    ops,
                    cursor: 0,
                    rng,
                    check: Check::Kept(Vec::new()),
                }
            })
            .collect();
        // Warm-up: a few frames bring residency up to the budget, so the
        // timed phase starts in the evicting steady state.
        for connection in &mut connections {
            connection.drive(Pick::InOrder, Some(3), (Instant::now(), None), None);
        }
        Served {
            file,
            recorder,
            pick: Pick::InOrder,
            connections,
            shared: None,
            tier,
            _server: server,
        }
    }
}

/// A session on the store file, read through a counting tier, with a
/// residency budget of half the decoded size.
pub fn capped_store_session(
    file: &StoreFile,
    tier: Arc<TierStats>,
    recorder: Option<Arc<Recorder>>,
) -> StoreSession {
    let counting = CountingTier::open(&file.path, tier, recorder).expect("open store file");
    let stored = StoredTrace::open_with_tier(Box::new(counting)).expect("open store");
    let mut session = StoreSession::from_store(stored);
    session.set_residency_budget(Some(file.soa_bytes / 2));
    session
}

/// The oracle's bytes for `ops`: a direct session over the resident trace,
/// encoded through the same protocol.
fn expected_payloads(direct: &AnalysisSession<'_>, ops: &[Op]) -> Vec<Payloads> {
    ops.iter()
        .map(|op| {
            op.requests
                .iter()
                .map(|request| direct_response(direct, request).encode())
                .collect()
        })
        .collect()
}

impl Prepared for Served {
    fn file(&self) -> &StoreFile {
        &self.file
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let cache_stats = |shared: &Option<Arc<SharedSession>>| {
            shared.as_ref().map(|s| s.cache_stats()).unwrap_or_default()
        };
        let cache_before = cache_stats(&self.shared);
        let tier_before = self.tier.totals();
        let recorder = self.recorder.as_deref();
        let pick = self.pick;
        let started = Instant::now();
        let mut samples = Samples::new(started);
        let deadline = started + Duration::from_secs_f64(seconds);
        std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .connections
                .iter_mut()
                .map(|connection| {
                    scope.spawn(move || {
                        connection.drive(pick, None, (started, Some(deadline)), recorder)
                    })
                })
                .collect();
            for client in clients {
                samples.merge(client.join().expect("client thread"));
            }
        });
        let cache_after = cache_stats(&self.shared);
        Phase {
            samples,
            wall_s: started.elapsed().as_secs_f64(),
            tier: self.tier.totals().since(tier_before),
            cache: cache_since(cache_after, cache_before),
            store_opens: u64::from(self.shared.is_none()),
        }
    }

    fn verify(&mut self) -> u64 {
        let kept: Vec<Kept> = self
            .connections
            .iter_mut()
            .map(|connection| match &mut connection.check {
                Check::Kept(kept) => std::mem::take(kept),
                Check::Inline(_) => Kept::new(),
            })
            .collect();
        if kept.iter().all(Vec::is_empty) {
            return 0;
        }
        // Only now, after the timed phase, is the resident oracle built.
        let trace = load_resident(&self.file.path);
        let direct = AnalysisSession::new(&trace);
        direct.prewarm(Threads::auto());
        let mut wrong = 0;
        for (connection, kept) in self.connections.iter().zip(&kept) {
            wrong += kept
                .iter()
                .filter(|(index, digests)| {
                    let op = &connection.ops[*index..=*index];
                    let expected = &expected_payloads(&direct, op)[0];
                    !expected
                        .iter()
                        .map(|p| digest(p))
                        .eq(digests.iter().copied())
                })
                .count() as u64;
        }
        wrong
    }
}
