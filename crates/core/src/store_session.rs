//! Analysis sessions over the on-disk column store
//! ([`aftermath_trace::store`]): lanes materialise lazily on first touch,
//! timeline frames and interval queries pull in only the block runs they
//! overlap, and an optional residency budget evicts the least-recently-used
//! lanes after every query.
//!
//! A [`StoreSession`] owns the [`StoredTrace`] plus the durable per-session
//! analysis state — built counter indexes, state pyramids, the access index,
//! result caches and the adaptive engine's cost model. Each request runs in
//! three steps:
//!
//! 1. everything it needs is materialised in **one** batch
//!    ([`StoredTrace::ensure_batch`]);
//! 2. a short-lived [`AnalysisSession`] *view* over the resident lanes is
//!    seeded with every persisted shard whose lane is fully resident
//!    (`AnalysisSession::with_prebuilt`), and — for every request that reads
//!    shards: queries, reports, pyramid and adaptive frames — the missing
//!    shards of fully resident lanes are built in parallel, each **once per
//!    session**, by the routine [`crate::SharedSession`] prewarms with
//!    (`AnalysisSession::prewarm_lanes`);
//! 3. when the request is answered the view's shards are harvested
//!    (`AnalysisSession::built_shards`) and the view dropped; the `Arc`s keep
//!    the shards alive across requests.
//!
//! A stored trace answers one request at a time (a server holds it behind a
//! mutex), so the other cores are idle by construction: block decoding, shard
//! building and the anomaly scan all run on the one thread budget of the
//! store ([`StoredTrace::set_decode_threads`], the machine's parallelism by
//! default). No answer depends on it. [`StoreSession::stats`] counts the work.
//!
//! # Residency semantics
//!
//! The budget set by [`StoreSession::set_residency_budget`] is a *steady-state*
//! cap, enforced after each query like a page cache: the lanes a single query
//! needs are materialised for its duration even when they transiently exceed
//! the budget (a zoomed-out NUMA frame touches states, tasks and accesses at
//! once), and eviction brings residency back under the cap before the call
//! returns. Answers are byte-identical to a fully resident session at every
//! budget — the budget trades repeated decode work for memory, never accuracy.
//!
//! Index-carrying structures use absolute row indices into their lane, so
//! pyramids and counter indexes are built ahead, persisted and re-seeded
//! **only** while their lane is fully resident (they survive its eviction and
//! are seeded again once it is back); a view over a partially resident lane
//! builds its own consistent throwaway pyramid, lazily, instead. The access
//! index ([`crate::access_index`]) follows the same rule over its two lanes,
//! tasks and accesses.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use aftermath_trace::store::{DamageReport, LaneId, LaneRequest, LaneResidency, StoredTrace};
use aftermath_trace::{CounterId, CpuId, TimeInterval};

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::index::CounterIndex;
use crate::pyramid::StatePyramid;
use crate::session::{AnalysisSession, IntervalQuery, SessionHandles};
use crate::timeline::{TimelineEngine, TimelineMode, TimelineModel};

/// Degraded-coverage summary of a salvage-opened store session: what spans
/// and tables queries can still be answered over *exactly*.
///
/// Everything inside the reported spans is byte-identical to the same query
/// against the undamaged store; everything outside is not answered at all
/// (rather than answered approximately). See
/// [`aftermath_trace::store::StoredTrace::open_salvage`].
#[derive(Debug, Clone)]
pub struct SalvageCoverage {
    /// Fraction of stored rows that survived quarantine, in `[0, 1]`.
    pub row_coverage: f64,
    /// Time span over which state-only queries (state timelines) are exact:
    /// the intersection of the surviving spans of every state lane. `None`
    /// when some state lane was quarantined in full.
    pub state_span: Option<TimeInterval>,
    /// Time span over which *all* time-sorted lanes (states, events, samples)
    /// are exact. `None` when any of them was quarantined in full.
    pub full_span: Option<TimeInterval>,
    /// Lanes quarantined in their entirety (they read as empty).
    pub lost_lanes: Vec<LaneId>,
    /// True when nothing was quarantined — the session behaves exactly like a
    /// strict open.
    pub clean: bool,
}

impl SalvageCoverage {
    fn span_contains(span: Option<TimeInterval>, interval: TimeInterval) -> bool {
        span.is_some_and(|s| s.start <= interval.start && interval.end <= s.end)
    }

    /// True when a timeline frame of `mode` over `interval` is exact.
    pub fn allows_timeline(&self, mode: TimelineMode, interval: TimeInterval) -> bool {
        if self.clean {
            return true;
        }
        if !Self::span_contains(self.state_span, interval) {
            return false;
        }
        let needs_tasks = !matches!(mode, TimelineMode::State);
        let needs_accesses = matches!(
            mode,
            TimelineMode::NumaRead | TimelineMode::NumaWrite | TimelineMode::NumaHeat
        );
        (!needs_tasks || !self.lost_lanes.contains(&LaneId::Tasks))
            && (!needs_accesses || !self.lost_lanes.contains(&LaneId::Accesses))
    }

    /// True when an interval query over `interval` is exact (interval queries
    /// aggregate every table: states, events, samples, tasks and accesses).
    pub fn allows_query(&self, interval: TimeInterval) -> bool {
        if self.clean {
            return true;
        }
        Self::span_contains(self.full_span, interval)
            && !self.lost_lanes.contains(&LaneId::Tasks)
            && !self.lost_lanes.contains(&LaneId::Accesses)
    }

    /// True when whole-trace scans (anomaly detection, drill-in) are exact —
    /// only when nothing at all was quarantined.
    pub fn allows_full_scan(&self) -> bool {
        self.clean
    }
}

/// An analysis session backed by the on-disk column store.
#[derive(Debug)]
pub struct StoreSession {
    stored: StoredTrace,
    /// Counter indexes built over fully resident sample lanes, persisted
    /// across queries (and across evictions — they are only *seeded* into a
    /// view while their lane is fully resident again).
    indexes: HashMap<(CpuId, CounterId), Arc<CounterIndex>>,
    /// State pyramids built over fully resident state lanes (see `indexes`).
    pyramids: HashMap<u32, Arc<StatePyramid>>,
    /// Result caches, cost model and the access-index slot. Like a pyramid, the
    /// access index is built over fully resident lanes (tasks and accesses),
    /// survives their eviction and is shared with a view only while both are
    /// back.
    handles: SessionHandles,
    pyramid_builds: u64,
    index_builds: u64,
    access_index_builds: u64,
    shards_reseeded: u64,
}

/// Lifetime work counters of one [`StoreSession`] ([`StoreSession::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSessionStats {
    /// Lane runs decoded and installed (a re-materialised lane counts again).
    pub lanes_materialised: u64,
    /// Blocks verified and decoded.
    pub blocks_decoded: u64,
    /// Block bytes read from the cold tier.
    pub bytes_read: u64,
    /// State pyramids built — once per fully resident lane, plus every
    /// throwaway pyramid a view built over a partially resident one.
    pub pyramid_builds: u64,
    /// Counter indexes built (see `pyramid_builds`).
    pub index_builds: u64,
    /// Access indexes built — once over the fully resident task and access
    /// lanes, plus every throwaway a view built while one of them was not.
    pub access_index_builds: u64,
    /// Persisted shards handed to a view instead of being rebuilt.
    pub shards_reseeded: u64,
}

/// Intersection of two optional spans; `None` annihilates.
fn intersect(a: Option<TimeInterval>, b: Option<TimeInterval>) -> Option<TimeInterval> {
    let (a, b) = (a?, b?);
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    (start <= end).then(|| TimeInterval::new(start, end))
}

impl StoreSession {
    /// Opens a store file lazily: only metadata and block footers are read, so
    /// the cost is independent of the trace's event count.
    ///
    /// # Errors
    ///
    /// Propagates [`StoredTrace::open`] failures.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, AnalysisError> {
        Ok(Self::from_store(StoredTrace::open(path)?))
    }

    /// Opens a *damaged* store file in degraded mode: corrupt or unreadable
    /// blocks are quarantined and queries run over the surviving spans (see
    /// [`StoredTrace::open_salvage`]). Inspect [`StoreSession::coverage`] for
    /// what survives; answers inside the covered spans are byte-identical to
    /// the undamaged store.
    ///
    /// # Errors
    ///
    /// Propagates [`StoredTrace::open_salvage`] failures (the metadata,
    /// directory and trailer must be intact).
    pub fn open_salvage<P: AsRef<Path>>(path: P) -> Result<Self, AnalysisError> {
        Ok(Self::from_store(StoredTrace::open_salvage(path)?))
    }

    /// Wraps an already opened [`StoredTrace`].
    pub fn from_store(stored: StoredTrace) -> Self {
        StoreSession {
            stored,
            indexes: HashMap::new(),
            pyramids: HashMap::new(),
            handles: SessionHandles::new(),
            pyramid_builds: 0,
            index_builds: 0,
            access_index_builds: 0,
            shards_reseeded: 0,
        }
    }

    /// The backing store (residency inspection, lane statistics).
    pub fn store(&self) -> &StoredTrace {
        &self.stored
    }

    /// The damage report of a salvage open (`None` after a strict open).
    pub fn damage(&self) -> Option<&DamageReport> {
        self.stored.damage()
    }

    /// True when this session came from a salvage open.
    pub fn is_salvaged(&self) -> bool {
        self.stored.damage().is_some()
    }

    /// Degraded-coverage summary of a salvaged session (`None` after a strict
    /// open). Callers that must never serve degraded data gate requests on
    /// [`SalvageCoverage::allows_timeline`] / [`SalvageCoverage::allows_query`].
    pub fn coverage(&self) -> Option<SalvageCoverage> {
        let report = self.stored.damage()?;
        let mut lost_lanes = Vec::new();
        let mut state_span = Some(TimeInterval::from_cycles(0, u64::MAX));
        let mut full_span = Some(TimeInterval::from_cycles(0, u64::MAX));
        for lane_damage in &report.lanes {
            let lane = lane_damage.lane;
            let span = self.stored.salvage_covered_span(lane);
            if span.is_none() {
                lost_lanes.push(lane);
            }
            let time_sorted = matches!(
                lane,
                LaneId::States(_) | LaneId::Events(_) | LaneId::Samples(..)
            );
            if time_sorted {
                full_span = intersect(full_span, span);
                if matches!(lane, LaneId::States(_)) {
                    state_span = intersect(state_span, span);
                }
            } else if span.is_none() {
                // A lost task/access table makes whole-table aggregations
                // inexact everywhere.
                full_span = None;
            }
        }
        Some(SalvageCoverage {
            row_coverage: report.row_coverage(),
            state_span,
            full_span,
            lost_lanes,
            clean: report.is_clean(),
        })
    }

    /// Sets (or clears) the steady-state residency budget in bytes (see the
    /// module docs for the exact semantics).
    pub fn set_residency_budget(&mut self, budget: Option<usize>) {
        self.stored.set_residency_budget(budget);
    }

    /// Bytes currently resident for event data.
    pub fn resident_event_bytes(&self) -> usize {
        self.stored.resident_event_bytes()
    }

    /// What this session has read, decoded, built and re-used so far.
    pub fn stats(&self) -> StoreSessionStats {
        let store = self.stored.materialise_stats();
        StoreSessionStats {
            lanes_materialised: store.lanes_materialised,
            blocks_decoded: store.blocks_decoded,
            bytes_read: store.bytes_read,
            pyramid_builds: self.pyramid_builds,
            index_builds: self.index_builds,
            access_index_builds: self.access_index_builds,
            shards_reseeded: self.shards_reseeded,
        }
    }

    /// The time bounds of the *full* trace, answered from the store directory
    /// without materialising any lane.
    pub fn time_bounds(&self) -> TimeInterval {
        self.stored
            .time_bounds()
            .unwrap_or(TimeInterval::from_cycles(0, 0))
    }

    /// Builds a timeline frame with the default filter and the adaptive
    /// engine. See [`StoreSession::timeline_with_engine`].
    ///
    /// # Errors
    ///
    /// Propagates lane materialisation and frame construction failures.
    pub fn timeline(
        &mut self,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
    ) -> Result<TimelineModel, AnalysisError> {
        self.timeline_with_engine(
            mode,
            interval,
            columns,
            &TaskFilter::new(),
            TimelineEngine::Adaptive,
        )
    }

    /// Builds one timeline frame from the store, materialising only what the
    /// `(mode, engine)` combination needs:
    ///
    /// - the scan engine pulls in just the contiguous block run of each state
    ///   lane overlapping `interval` (block-skipping) — plus the task table
    ///   for task-based modes and the access table for NUMA modes;
    /// - the pyramid and adaptive engines materialise state, task and access
    ///   lanes in full (pyramid construction aggregates per-task and per-node
    ///   data), build the missing pyramids in parallel and persist them for
    ///   later requests.
    ///
    /// Afterwards residency is brought back under the configured budget. The
    /// produced frame is byte-identical to the same call on a fully resident
    /// [`AnalysisSession`].
    ///
    /// # Errors
    ///
    /// Propagates lane materialisation and frame construction failures.
    pub fn timeline_with_engine(
        &mut self,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
        filter: &TaskFilter,
        engine: TimelineEngine,
    ) -> Result<TimelineModel, AnalysisError> {
        let scan = matches!(engine, TimelineEngine::Scan);
        let mut lanes: Vec<LaneRequest> = self
            .stored
            .lanes()
            .filter(|lane| matches!(lane, LaneId::States(_)))
            .map(|lane| match scan {
                true => LaneRequest::StatesCovering(lane, interval),
                false => LaneRequest::Full(lane),
            })
            .collect();
        if !scan || !matches!(mode, TimelineMode::State) {
            lanes.push(LaneRequest::Full(LaneId::Tasks));
        }
        let numa_mode = matches!(
            mode,
            TimelineMode::NumaRead | TimelineMode::NumaWrite | TimelineMode::NumaHeat
        );
        if !scan || numa_mode {
            lanes.push(LaneRequest::Full(LaneId::Accesses));
        }
        self.answer(&lanes, !scan, |view| {
            TimelineModel::build_with_engine(view, mode, interval, columns, filter, engine)
        })?
    }

    /// The open-to-first-frame path: a zoomed-out state-mode frame over the
    /// whole trace, computed with the scan engine so only the state lanes are
    /// materialised (no pyramid construction, no task or access decoding).
    ///
    /// # Errors
    ///
    /// Propagates lane materialisation and frame construction failures.
    pub fn first_frame(&mut self, columns: usize) -> Result<TimelineModel, AnalysisError> {
        let bounds = self.time_bounds();
        self.timeline_with_engine(
            TimelineMode::State,
            bounds,
            columns,
            &TaskFilter::new(),
            TimelineEngine::Scan,
        )
    }

    /// Runs an interval query against the store: state lanes materialise only
    /// the block runs overlapping `interval`; sample, task and access lanes
    /// (whole-lane granularity) materialise in full, and the counter indexes
    /// and pyramids of every fully resident lane are built once and persist
    /// for later requests. Afterwards residency is brought back under the
    /// configured budget.
    ///
    /// The closure receives the same [`IntervalQuery`] API a fully resident
    /// [`AnalysisSession::query`] returns, with identical answers.
    ///
    /// # Errors
    ///
    /// Propagates lane materialisation failures.
    pub fn query<R>(
        &mut self,
        interval: TimeInterval,
        f: impl FnOnce(&IntervalQuery<'_, '_>) -> R,
    ) -> Result<R, AnalysisError> {
        let lanes: Vec<LaneRequest> = self
            .stored
            .lanes()
            .map(|lane| match lane {
                LaneId::States(_) => LaneRequest::StatesCovering(lane, interval),
                _ => LaneRequest::Full(lane),
            })
            .collect();
        self.answer(&lanes, true, |view| f(&view.query(interval)))
    }

    /// Runs the anomaly engine against the store: every lane materialises in
    /// full (the detectors scan states, tasks, accesses and counters alike),
    /// built indexes and pyramids persist for later requests, the scan fans
    /// out over the store's thread budget, and the ranked report lands in the
    /// session's shared anomaly cache — a repeated call with an equal
    /// `config` is a cache hit. Afterwards residency is brought back under
    /// the configured budget.
    ///
    /// # Errors
    ///
    /// Propagates lane materialisation and detector failures.
    pub fn detect_anomalies(
        &mut self,
        config: &crate::anomaly::AnomalyConfig,
    ) -> Result<Arc<crate::anomaly::AnomalyReport>, AnalysisError> {
        let lanes: Vec<LaneRequest> = self.stored.lanes().map(LaneRequest::Full).collect();
        let threads = self.stored.decode_threads();
        self.answer(&lanes, true, |view| {
            view.detect_anomalies_with(config, threads)
        })?
    }

    /// One request against the store: materialises `lanes` in one batch, runs
    /// `f` on a short-lived [`AnalysisSession`] over the resident lanes, and
    /// brings residency back under the budget.
    ///
    /// The view is seeded with every persisted shard whose lane is *fully*
    /// resident (absolute row indexes must align; see the module docs). With
    /// `warm`, the missing shards of fully resident lanes are first built in
    /// parallel on the store's thread budget; either way, what the view built
    /// over fully resident lanes is harvested and persisted afterwards.
    fn answer<R>(
        &mut self,
        lanes: &[LaneRequest],
        warm: bool,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        self.stored.ensure_batch(lanes)?;
        let stored = &self.stored;
        let full = |lane| stored.residency(lane) == LaneResidency::Full;
        let mut indexes = self.indexes.clone();
        indexes.retain(|&(cpu, ctr), _| full(LaneId::Samples(cpu, ctr)));
        let mut pyramids = self.pyramids.clone();
        pyramids.retain(|&cpu, _| full(LaneId::States(CpuId(cpu))));
        // The access index spans two lanes: the view shares the persisted slot
        // while both are fully resident and gets an empty throwaway otherwise.
        let mut handles = self.handles.clone();
        if !(full(LaneId::Tasks) && full(LaneId::Accesses)) {
            handles.access_index = Arc::default();
        }
        let access_index_seeded = handles.access_index.get().is_some();
        let view = AnalysisSession::with_prebuilt(stored.trace(), &indexes, &pyramids, handles);
        if warm {
            view.prewarm_lanes(stored.decode_threads(), full);
        }
        let result = f(&view);
        let (built_indexes, built_pyramids) = view.built_shards();
        self.shards_reseeded += (indexes.len() + pyramids.len()) as u64;
        self.index_builds += built_indexes.len().saturating_sub(indexes.len()) as u64;
        self.pyramid_builds += built_pyramids.len().saturating_sub(pyramids.len()) as u64;
        self.access_index_builds += u64::from(!access_index_seeded && view.access_index_built());
        self.indexes.extend(
            built_indexes
                .into_iter()
                .filter(|&((cpu, ctr), _)| full(LaneId::Samples(cpu, ctr))),
        );
        self.pyramids.extend(
            built_pyramids
                .into_iter()
                .filter(|&(cpu, _)| full(LaneId::States(CpuId(cpu)))),
        );
        self.stored.evict_to_budget();
        Ok(result)
    }
}
