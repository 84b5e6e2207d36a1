//! Analysis sessions over the on-disk column store
//! ([`aftermath_trace::store`]): lanes materialise lazily on first touch,
//! timeline frames and interval queries pull in only the block runs they
//! overlap, and an optional residency budget evicts the least-recently-used
//! lanes after every request.
//!
//! A [`StoreSession`] owns the [`StoredTrace`] and a `SessionState` with one
//! slot per sample lane of the store directory and per CPU's pyramid. Every
//! request is one [`StoreSession::with_view`] call, and everything that is
//! specific to a store is decided there from the lanes the request's [`Need`]
//! reads (`Need::reads`), lane by lane: whether a salvaged store may answer it
//! at all ([`SalvageCoverage::allows`]), which lanes to materialise — the lane
//! plan, `StoreSession::lanes`, in **one** batch
//! ([`StoredTrace::ensure_batch`]) — and which missing shards of whole lanes
//! to build ahead, in parallel, each once per session. "Usable" means whole
//! ([`LaneResidency::Full`]): the lane holds the run a whole-lane request
//! installs — every block after a strict open, the surviving block run after a
//! salvage. A sample lane is only ever loaded whole, so its index is built
//! once and re-read, damaged or not; the view builds a pyramid only under the
//! build rule of `SessionState`, so every pyramid it builds is kept and a
//! window over any other state lane is scanned.
//!
//! A stored trace answers one request at a time: the session holds the store
//! behind its own mutex, so it is `Sync` and a server shares it between its
//! workers through `&self`, like a resident trace. The other cores are
//! therefore idle by construction: block decoding, shard building, and — as
//! every view's budget (the `threads` rule in [`crate::session`]) — frame rows
//! and the anomaly scan all run on the one thread budget of the store
//! ([`StoredTrace::set_decode_threads`], the machine's parallelism by
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aftermath_trace::store::{LaneId, LaneRequest, LaneResidency, StoredTrace};
use aftermath_trace::TimeInterval;

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::session::{AnalysisSession, IntervalQuery, Need, SessionState};
use crate::shared::CacheStats;
use crate::timeline::{TimelineEngine, TimelineMode, TimelineModel};

/// Degraded-coverage summary of a salvaged store session: what spans
/// and tables requests can still be answered over *exactly*, lane by lane.
///
/// Everything a request reads inside its lanes' surviving spans is
/// byte-identical to the same request against the undamaged store; a request
/// that would read outside them is not answered at all (rather than answered
/// approximately). See
/// [`aftermath_trace::store::StoredTrace::salvage`].
#[derive(Debug, Clone)]
pub struct SalvageCoverage {
    /// Fraction of stored rows that survived quarantine, in `[0, 1]`.
    pub row_coverage: f64,
    /// Lanes quarantined in their entirety (they read as empty).
    pub lost_lanes: Vec<LaneId>,
    /// True when nothing was quarantined — the session behaves exactly like a
    /// strict open.
    pub clean: bool,
    /// Per stored lane, the span its surviving run answers exactly
    /// ([`StoredTrace::salvage_covered_span`]); `None` for a lost lane. A task
    /// or access table survives whole (its span is everything) or not at all.
    spans: Vec<(LaneId, Option<TimeInterval>)>,
}

impl SalvageCoverage {
    /// The part of `need`'s window that every lane it reads (`Need::reads`)
    /// still answers exactly: the window intersected with each such lane's
    /// surviving span. `None` when the need has no window, or when the window
    /// and some such span do not meet.
    pub fn answerable(&self, need: &Need) -> Option<TimeInterval> {
        self.spans
            .iter()
            .filter(|&&(lane, _)| need.reads(lane))
            .fold(need.window(), |window, &(_, span)| intersect(window, span))
    }

    /// True when the answer to a request reading `need` is exact: it depends on
    /// no quarantined row. On a damaged store that means every lane the need
    /// reads answers the whole of its window ([`SalvageCoverage::answerable`]),
    /// and a need without a window reads no stored lane.
    pub fn allows(&self, need: &Need) -> bool {
        if self.clean {
            return true;
        }
        let Some(window) = need.window() else {
            return !self.spans.iter().any(|&(lane, _)| need.reads(lane));
        };
        self.answerable(need) == Some(window)
    }
}

/// An analysis session backed by the on-disk column store. It is `Sync`:
/// every request goes through [`StoreSession::with_view`] on `&self`, which
/// serialises requests behind the session's one lock.
#[derive(Debug)]
pub struct StoreSession {
    /// The store, behind the one lock a request holds from its lane plan to
    /// its eviction.
    stored: Mutex<StoredTrace>,
    /// The slots every view reads in place; a view reads and fills those of
    /// whole lanes only.
    state: SessionState,
    /// What a salvage left answerable — a function of the open alone, so
    /// worked out once; `None` after a strict open.
    coverage: Option<SalvageCoverage>,
    /// The time bounds of the full trace, from the store directory.
    bounds: TimeInterval,
    /// The store's resident event bytes as of the last completed request.
    resident_bytes: AtomicUsize,
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
    /// State pyramids built — at most one per state lane: the build rule of
    /// `SessionState` lets a view build only a pyramid the session keeps.
    pub pyramid_builds: u64,
    /// Counter indexes built — at most one per sample lane.
    pub index_builds: u64,
    /// Access indexes built — once over the whole task and access lanes, plus
    /// every one a view built while one of them was not.
    pub access_index_builds: u64,
}

/// Intersection of two optional spans; `None` annihilates.
fn intersect(a: Option<TimeInterval>, b: Option<TimeInterval>) -> Option<TimeInterval> {
    let (a, b) = (a?, b?);
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    (start <= end).then(|| TimeInterval::new(start, end))
}

/// The coverage a salvage of `stored` left (`None` after a strict open).
fn coverage_of(stored: &StoredTrace) -> Option<SalvageCoverage> {
    let report = stored.damage()?;
    let spans: Vec<(LaneId, Option<TimeInterval>)> = report
        .lanes
        .iter()
        .map(|damage| (damage.lane, stored.salvage_covered_span(damage.lane)))
        .collect();
    Some(SalvageCoverage {
        row_coverage: report.row_coverage(),
        lost_lanes: spans
            .iter()
            .filter(|(_, span)| span.is_none())
            .map(|&(lane, _)| lane)
            .collect(),
        clean: report.is_clean(),
        spans,
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

    /// Wraps an already opened [`StoredTrace`]. A *damaged* store file is
    /// served through `StoreSession::from_store(StoredTrace::open(path)?.salvage())`
    /// (see [`StoredTrace::salvage`]): corrupt or unreadable blocks are
    /// quarantined, [`StoreSession::coverage`] says what survives, and answers
    /// inside the covered spans are byte-identical to the undamaged store.
    pub fn from_store(stored: StoredTrace) -> Self {
        let sampled = stored.lanes().filter_map(|lane| match lane {
            LaneId::Samples(cpu, counter) => Some((cpu, counter)),
            _ => None,
        });
        let state = SessionState::new(stored.trace().per_cpu().len(), sampled);
        StoreSession {
            coverage: coverage_of(&stored),
            bounds: stored
                .time_bounds()
                .unwrap_or(TimeInterval::from_cycles(0, 0)),
            resident_bytes: AtomicUsize::new(stored.resident_event_bytes()),
            stored: Mutex::new(stored),
            state,
        }
    }

    /// The backing store (residency inspection, lane statistics). Takes
    /// `&mut self` because the store lives behind the session's lock: no
    /// request is in flight while the reference lives. A salvage's
    /// damage report is [`StoredTrace::damage`] of the store before it is
    /// wrapped, or [`StoreSession::coverage`] after.
    pub fn store(&mut self) -> &StoredTrace {
        self.stored
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
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
        self.stored
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .set_residency_budget(budget);
    }

    /// Bytes resident for event data as of the last completed request (at
    /// open, before any). Never waits for a request in flight.
    pub fn resident_event_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// What this session has read, decoded and built so far. Waits
    /// for a request in flight.
    pub fn stats(&self) -> StoreSessionStats {
        let store = self.lock().materialise_stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StoreSessionStats {
            lanes_materialised: store.lanes_materialised,
            blocks_decoded: store.blocks_decoded,
            bytes_read: store.bytes_read,
            pyramid_builds: load(&self.state.pyramid_builds),
            index_builds: load(&self.state.index_builds),
            access_index_builds: load(&self.state.access_index_builds),
        }
    }

    /// Bytes of per-trace state shared by every session over this store: the
    /// resident event data as of the last completed request plus every kept
    /// counter index and pyramid and the access index (cf.
    /// [`crate::SharedSession::shared_bytes`]). Never waits for a request in
    /// flight.
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
        self.bounds
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

    /// Builds one timeline frame from the store, materialising only what its
    /// cells and its filter read ([`Need::frame`]), whatever the engine. The
    /// produced frame is byte-identical to the same call on a fully resident
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
        self.with_view(Need::frame(mode, interval, filter), |view| {
            TimelineModel::build_with_engine(view, mode, interval, columns, filter, engine)
        })?
    }

    /// The open-to-first-frame path: a zoomed-out state-mode frame over the
    /// whole trace, computed with the scan engine: only the state lanes are
    /// materialised (like every state frame) and no pyramid is read.
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
    /// materialises for `need` — every lane the answer reads ([`Need::reads`]),
    /// nothing more.
    ///
    /// State lanes are block-skipping — a frame and a query pull in just the
    /// contiguous block run of each state lane overlapping their window —
    /// every other lane has whole-lane granularity. A pyramid a frame cannot
    /// build from the lanes it reads is not built (the build rule of
    /// `SessionState`).
    fn lanes(stored: &StoredTrace, need: &Need) -> Vec<LaneRequest> {
        let window = need.window();
        stored
            .lanes()
            .filter(|&lane| need.reads(lane))
            .map(|lane| match (lane, window) {
                (LaneId::States(_), Some(window)) => LaneRequest::StatesCovering(lane, window),
                _ => LaneRequest::Full(lane),
            })
            .collect()
    }

    /// One request against the store: runs `f` on a short-lived
    /// [`AnalysisSession`] view over the lanes `need` reads, and brings
    /// residency back under the budget. Takes `&self`, like
    /// [`crate::SharedSession::with_view`]: requests from many threads
    /// serialise on the session's lock, which is held from the lane plan to
    /// the eviction; [`StoreSession::resident_event_bytes`],
    /// [`StoreSession::shared_bytes`], [`StoreSession::cache_stats`] and
    /// [`StoreSession::time_bounds`] never take it.
    ///
    /// The view reads the session's slots of every whole lane in place. The
    /// missing shards of the whole lanes `need` reads are first built in
    /// parallel on the store's thread budget, under the build rule of
    /// `SessionState`; they land in the session's slots, which is where the
    /// next view finds them.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::OutsideCoverage`] when the store was salvaged and
    /// the answer would depend on quarantined rows — refused, not approximated,
    /// before anything is read; otherwise propagates lane materialisation
    /// failures.
    pub fn with_view<R>(
        &self,
        need: Need,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        if let Some(coverage) = self.coverage.as_ref().filter(|c| !c.allows(&need)) {
            return Err(AnalysisError::OutsideCoverage {
                row_coverage: coverage.row_coverage,
            });
        }
        let mut stored = self.lock();
        let result = self.answer(&mut stored, need, f);
        self.resident_bytes
            .store(stored.resident_event_bytes(), Ordering::Relaxed);
        result
    }

    /// The store, waited for. Recovers a poisoned lock: a request that
    /// panicked mid-way (a server contains such panics) leaves it poisoned,
    /// but what a request mutates under it is residency bookkeeping — a lost
    /// answer, not corrupt analysis state — so later requests on the same
    /// trace must keep working.
    fn lock(&self) -> MutexGuard<'_, StoredTrace> {
        self.stored.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`StoreSession::with_view`] under the lock: materialise the lane plan,
    /// run `f` on a view, evict to budget.
    fn answer<R>(
        &self,
        stored: &mut StoredTrace,
        need: Need,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        stored.ensure_batch(&Self::lanes(stored, &need))?;
        let full = |lane| stored.residency(lane) == LaneResidency::Full;
        let mut view = self.state.view(stored.trace(), None, full);
        view.threads = stored.decode_threads();
        view.prewarm_lanes(view.threads, &need);
        let result = f(&view);
        drop(view);
        stored.evict_to_budget();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use aftermath_exec::Threads;
    use aftermath_trace::store::{write_store_bytes, StoreOptions};
    use aftermath_trace::{AccessKind, CpuId};

    use super::*;
    use crate::anomaly::AnomalyConfig;
    use crate::testutil::small_sim_trace;

    /// Every filled slot was filled from its lane's whole run: a pyramid holds
    /// as many intervals as its state lane's whole run, a counter index as many
    /// samples as its sample lane's.
    fn assert_slots_hold_whole_runs(
        store: &StoreSession,
        whole: &HashMap<LaneId, u64>,
        what: &str,
    ) {
        for (cpu, slot) in store.state.pyramids.iter().enumerate() {
            if let Some(pyramid) = slot.get() {
                let lane = LaneId::States(CpuId(cpu as u32));
                assert_eq!(
                    pyramid.num_intervals() as u64,
                    whole[&lane],
                    "{what}: {lane}"
                );
            }
        }
        for (&(cpu, counter), slot) in &store.state.indexes {
            if let Some(index) = slot.get() {
                let lane = LaneId::Samples(cpu, counter);
                assert_eq!(index.num_samples() as u64, whole[&lane], "{what}: {lane}");
            }
        }
    }

    /// The slot rule, checked against the store's own account of each lane
    /// rather than against residency: after every frame (six modes, pyramid
    /// and default engines), query and report, on a strict store and on a
    /// salvaged one with a middle block quarantined in a sample lane and in a
    /// state lane, at zero, half and no residency budget, every filled slot
    /// holds its lane's whole run — all blocks after a strict open, the
    /// surviving run after a salvage.
    #[test]
    fn every_filled_slot_holds_its_lanes_whole_run() {
        let trace = small_sim_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 16 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let lanes: Vec<LaneId> = probe.lanes().collect();
        let mut damaged = bytes.clone();
        for kind in [
            |lane: &LaneId| matches!(lane, LaneId::Samples(..)),
            |lane: &LaneId| matches!(lane, LaneId::States(_)),
        ] {
            let blocks = lanes
                .iter()
                .filter(|lane| kind(lane))
                .map(|&lane| &probe.lane_directory(lane).unwrap().blocks)
                .find(|blocks| blocks.len() >= 3)
                .expect("a lane of three blocks or more");
            damaged[blocks[blocks.len() / 2].offset as usize + 2] ^= 0x20;
        }
        let modes = [
            TimelineMode::State,
            TimelineMode::Heatmap {
                min_duration: 10,
                max_duration: 10_000,
            },
            TimelineMode::TaskType,
            TimelineMode::NumaRead,
            TimelineMode::NumaWrite,
            TimelineMode::NumaHeat,
        ];
        let full = trace.resident_event_bytes();

        for salvaged in [false, true] {
            for budget in [Some(0), Some(full / 2), None] {
                let what = format!("salvaged {salvaged}, budget {budget:?}");
                let mut stored = if salvaged {
                    StoredTrace::from_bytes(damaged.clone()).unwrap().salvage()
                } else {
                    StoredTrace::from_bytes(bytes.clone()).unwrap()
                };
                stored.set_decode_threads(Threads::new(2));
                let whole: HashMap<LaneId, u64> = match stored.damage() {
                    Some(report) => {
                        assert!(!report.is_clean(), "{what}");
                        let lanes = report.lanes.iter();
                        lanes.map(|d| (d.lane, d.surviving_rows)).collect()
                    }
                    None => lanes
                        .iter()
                        .map(|&l| (l, stored.lane_directory(l).map_or(0, |d| d.rows)))
                        .collect(),
                };
                let mut store = StoreSession::from_store(stored);
                store.set_residency_budget(budget);
                let bounds = store.time_bounds();
                let span = store.coverage().map_or(bounds, |coverage| {
                    let need = Need::Query { interval: bounds };
                    coverage
                        .answerable(&need)
                        .expect("the lanes survive in part")
                });
                let (start, end) = (span.start.0, span.end.0);
                let part = |from: u64, to: u64| {
                    let at = |k: u64| start + (end - start) * k / 6;
                    TimeInterval::from_cycles(at(from), at(to))
                };
                // `mode` is the frame's, `None` for every other need.
                let request = |store: &StoreSession, need: Need, mode: Option<TimelineMode>| {
                    store
                        .with_view(need, |view| match need {
                            Need::Frame { interval, .. } => {
                                let (mode, filter) = (mode.unwrap(), TaskFilter::new());
                                for engine in [TimelineEngine::Pyramid, TimelineEngine::Adaptive] {
                                    TimelineModel::build_with_engine(
                                        view, mode, interval, 24, &filter, engine,
                                    )
                                    .unwrap();
                                }
                            }
                            Need::Query { interval } => {
                                let query = view.query(interval);
                                for &(cpu, counter) in store.state.indexes.keys() {
                                    query.counter_min_max(cpu, counter);
                                }
                                for pc in view.trace().per_cpu() {
                                    query.predominant_task(pc.cpu(), &TaskFilter::new());
                                    query.numa_bytes(pc.cpu(), AccessKind::Read);
                                }
                            }
                            Need::WholeTrace => {
                                view.detect_anomalies(&AnomalyConfig::default()).unwrap();
                            }
                            Need::Nothing => {}
                        })
                        .unwrap();
                    assert_slots_hold_whole_runs(store, &whole, &format!("{what}, {need:?}"));
                };
                for interval in [part(0, 6), part(0, 3), part(2, 3)] {
                    for mode in modes {
                        let need = Need::frame(mode, interval, &TaskFilter::new());
                        request(&store, need, Some(mode));
                    }
                    request(&store, Need::Query { interval }, None);
                }
                if !salvaged {
                    request(&store, Need::WholeTrace, None);
                }
                // The script fills slots: every store builds indexes, and
                // the strict one pyramids.
                let stats = store.stats();
                assert!(stats.index_builds > 0, "{what}");
                assert!(salvaged || stats.pyramid_builds > 0, "{what}");
            }
        }
    }
}
