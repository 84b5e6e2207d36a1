//! Analysis sessions over the on-disk column store
//! ([`aftermath_trace::store`]): lanes materialise lazily on first touch,
//! timeline frames and interval queries pull in only the block runs they
//! overlap, and an optional residency budget evicts the least-recently-used
//! lanes after every request.
//!
//! A [`StoreSession`] owns the [`StoredTrace`] and a `SessionState`. Every
//! request is one [`StoreSession::with_view`] call, and everything that is
//! specific to a store is decided there from the request's [`Need`]: whether a
//! salvaged store may answer it at all ([`SalvageCoverage::allows`]), which
//! lanes to materialise — in **one** batch ([`StoredTrace::ensure_batch`]) —
//! and whether to build the missing shards of fully resident lanes ahead, in
//! parallel, each once per session. The view is seeded with the shards of
//! fully resident lanes only; over a partially resident lane it builds its own
//! consistent throwaway pyramid, lazily.
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
//! cap, enforced after each request like a page cache: the lanes a single
//! request needs are materialised for its duration even when they transiently
//! exceed the budget (a zoomed-out NUMA frame touches states, tasks and
//! accesses at once), and eviction brings residency back under the cap before
//! the call returns. Answers are byte-identical to a fully resident session at
//! every budget — the budget trades repeated decode work for memory, never
//! accuracy.

use std::path::Path;
use std::sync::Arc;

use aftermath_trace::store::{DamageReport, LaneId, LaneRequest, LaneResidency, StoredTrace};
use aftermath_trace::TimeInterval;

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::session::{AnalysisSession, IntervalQuery, Need, SessionState};
use crate::shared::CacheStats;
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
    /// True when the answer to a request reading `need` is exact: it depends on
    /// no quarantined row. A frame needs its interval inside the state span and
    /// the tables its mode reads; a query aggregates every table, so it needs
    /// its window inside the full span; a whole-trace scan needs everything.
    pub fn allows(&self, need: &Need) -> bool {
        let within = |span: Option<TimeInterval>, interval: &TimeInterval| {
            span.is_some_and(|s| s.start <= interval.start && interval.end <= s.end)
        };
        let lost = |lane| self.lost_lanes.contains(&lane);
        self.clean
            || match need {
                Need::Nothing => true,
                Need::Frame { mode, interval, .. } => {
                    within(self.state_span, interval)
                        && !(mode.reads_tasks() && lost(LaneId::Tasks))
                        && !(mode.reads_accesses() && lost(LaneId::Accesses))
                }
                Need::Query { interval } => {
                    within(self.full_span, interval)
                        && !lost(LaneId::Tasks)
                        && !lost(LaneId::Accesses)
                }
                Need::WholeTrace => false,
            }
    }

    /// True when a timeline frame of `mode` over `interval` is exact.
    pub fn allows_timeline(&self, mode: TimelineMode, interval: TimeInterval) -> bool {
        self.allows(&Need::Frame {
            mode,
            interval,
            engine: TimelineEngine::Adaptive,
        })
    }

    /// True when an interval query over `interval` is exact.
    pub fn allows_query(&self, interval: TimeInterval) -> bool {
        self.allows(&Need::Query { interval })
    }

    /// True when whole-trace scans (anomaly detection, drill-in) are exact —
    /// only when nothing at all was quarantined.
    pub fn allows_full_scan(&self) -> bool {
        self.allows(&Need::WholeTrace)
    }
}

/// An analysis session backed by the on-disk column store.
#[derive(Debug)]
pub struct StoreSession {
    stored: StoredTrace,
    /// Shards are kept for, and seeded over, fully resident lanes only.
    state: SessionState,
    /// What a salvage open left answerable — a function of the open alone, so
    /// worked out once; `None` after a strict open.
    coverage: Option<SalvageCoverage>,
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

/// The coverage a salvage open of `stored` left (`None` after a strict open).
fn coverage_of(stored: &StoredTrace) -> Option<SalvageCoverage> {
    let report = stored.damage()?;
    let mut lost_lanes = Vec::new();
    let mut state_span = Some(TimeInterval::from_cycles(0, u64::MAX));
    let mut full_span = Some(TimeInterval::from_cycles(0, u64::MAX));
    for lane_damage in &report.lanes {
        let lane = lane_damage.lane;
        let span = stored.salvage_covered_span(lane);
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
            coverage: coverage_of(&stored),
            stored,
            state: SessionState::new(),
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
    /// open). [`StoreSession::with_view`] refuses what
    /// [`SalvageCoverage::allows`] does not.
    pub fn coverage(&self) -> Option<SalvageCoverage> {
        self.coverage.clone()
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
            pyramid_builds: self.state.pyramid_builds,
            index_builds: self.state.index_builds,
            access_index_builds: self.state.access_index_builds,
            shards_reseeded: self.state.shards_reseeded,
        }
    }

    /// Bytes of per-trace state shared by every session over this store: the
    /// resident event data plus every kept counter index and pyramid and the
    /// access index (cf. [`crate::SharedSession::shared_bytes`]).
    pub fn shared_bytes(&self) -> usize {
        self.resident_event_bytes() + self.state.memory_bytes()
    }

    /// Combined hit/miss totals of the timeline-model and anomaly-report
    /// caches every view of this store shares.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache_stats()
    }

    /// The time bounds of the *full* trace, answered from the store directory
    /// without materialising any lane.
    pub fn time_bounds(&self) -> TimeInterval {
        self.stored
            .time_bounds()
            .unwrap_or(TimeInterval::from_cycles(0, 0))
    }

    /// Builds a timeline frame with the default filter and the default
    /// engine. See [`StoreSession::timeline_with_engine`].
    ///
    /// # Errors
    ///
    /// See [`StoreSession::with_view`]; propagates frame construction failures.
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
    /// `(mode, engine)` combination needs ([`Need::Frame`]). The produced frame
    /// is byte-identical to the same call on a fully resident
    /// [`AnalysisSession`].
    ///
    /// # Errors
    ///
    /// See [`StoreSession::with_view`]; propagates frame construction failures.
    pub fn timeline_with_engine(
        &mut self,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
        filter: &TaskFilter,
        engine: TimelineEngine,
    ) -> Result<TimelineModel, AnalysisError> {
        let need = Need::Frame {
            mode,
            interval,
            engine,
        };
        self.with_view(need, |view| {
            TimelineModel::build_with_engine(view, mode, interval, columns, filter, engine)
        })?
    }

    /// The open-to-first-frame path: a zoomed-out state-mode frame over the
    /// whole trace, computed with the scan engine so only the state lanes are
    /// materialised (no pyramid construction, no task or access decoding).
    ///
    /// # Errors
    ///
    /// See [`StoreSession::timeline_with_engine`].
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

    /// Runs an interval query against the store ([`Need::Query`]). The closure
    /// receives the same [`IntervalQuery`] API a fully resident
    /// [`AnalysisSession::query`] returns, with identical answers.
    ///
    /// # Errors
    ///
    /// See [`StoreSession::with_view`].
    pub fn query<R>(
        &mut self,
        interval: TimeInterval,
        f: impl FnOnce(&IntervalQuery<'_, '_>) -> R,
    ) -> Result<R, AnalysisError> {
        self.with_view(Need::Query { interval }, |view| f(&view.query(interval)))
    }

    /// Runs the anomaly engine against the store ([`Need::WholeTrace`]): the
    /// scan fans out over the store's thread budget, and the ranked report
    /// lands in the session's shared anomaly cache — a repeated call with an
    /// equal `config` is a cache hit.
    ///
    /// # Errors
    ///
    /// See [`StoreSession::with_view`]; propagates detector failures.
    pub fn detect_anomalies(
        &mut self,
        config: &crate::anomaly::AnomalyConfig,
    ) -> Result<Arc<crate::anomaly::AnomalyReport>, AnalysisError> {
        self.with_view(Need::WholeTrace, |view| view.detect_anomalies(config))?
    }

    /// The lane plan of a request: what [`StoreSession::with_view`]
    /// materialises for `need`.
    ///
    /// State lanes are block-skipping — a scan-engine frame and a query pull in
    /// just the contiguous block run of each state lane overlapping the
    /// interval — every other lane has whole-lane granularity. A frame reads
    /// the task table for task-based modes and the access table for NUMA modes;
    /// the pyramid and default engines read both regardless and the state
    /// lanes in full, because pyramid construction aggregates per-task and
    /// per-node data. A query and a whole-trace scan read every lane.
    fn lanes(&self, need: &Need) -> Vec<LaneRequest> {
        let lanes = self.stored.lanes();
        let covering = |interval| {
            move |lane| match lane {
                LaneId::States(_) => LaneRequest::StatesCovering(lane, interval),
                _ => LaneRequest::Full(lane),
            }
        };
        match *need {
            Need::Nothing => Vec::new(),
            Need::Frame {
                mode,
                interval,
                engine,
            } => {
                let scan = engine == TimelineEngine::Scan;
                let states = lanes.filter(|lane| matches!(lane, LaneId::States(_)));
                let mut plan: Vec<LaneRequest> = match scan {
                    true => states.map(covering(interval)).collect(),
                    false => states.map(LaneRequest::Full).collect(),
                };
                if !scan || mode.reads_tasks() {
                    plan.push(LaneRequest::Full(LaneId::Tasks));
                }
                if !scan || mode.reads_accesses() {
                    plan.push(LaneRequest::Full(LaneId::Accesses));
                }
                plan
            }
            Need::Query { interval } => lanes.map(covering(interval)).collect(),
            Need::WholeTrace => lanes.map(LaneRequest::Full).collect(),
        }
    }

    /// One request against the store: runs `f` on a short-lived
    /// [`AnalysisSession`] view over the lanes `need` reads, and brings
    /// residency back under the budget.
    ///
    /// The view is seeded with every kept shard whose lane is *fully* resident.
    /// Unless the request reads no shard (nothing, or a scan-engine frame), the
    /// missing shards of fully resident lanes are first built in parallel on
    /// the store's thread budget; either way, what the view built over fully
    /// resident lanes is kept afterwards.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::OutsideCoverage`] when the store was salvage-opened and
    /// the answer would depend on quarantined rows — refused, not approximated,
    /// before anything is read; otherwise propagates lane materialisation
    /// failures.
    pub fn with_view<R>(
        &mut self,
        need: Need,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        if let Some(coverage) = self.coverage.as_ref().filter(|c| !c.allows(&need)) {
            return Err(AnalysisError::OutsideCoverage {
                row_coverage: coverage.row_coverage,
            });
        }
        self.stored.ensure_batch(&self.lanes(&need))?;
        let stored = &self.stored;
        let full = |lane| stored.residency(lane) == LaneResidency::Full;
        let mut view = self.state.view(stored.trace(), None, full);
        view.scan_threads = stored.decode_threads();
        let reads_shards = match need {
            Need::Nothing => false,
            Need::Frame { engine, .. } => engine != TimelineEngine::Scan,
            Need::Query { .. } | Need::WholeTrace => true,
        };
        if reads_shards {
            view.prewarm_lanes(stored.decode_threads(), full);
        }
        let result = f(&view);
        self.state.absorb(&view, full);
        self.stored.evict_to_budget();
        Ok(result)
    }
}
