//! The analysis session: an indexed view over a loaded trace.
//!
//! Every [`AnalysisSession`] reads and fills the shard slots of one
//! `SessionState` in place: one of its own for [`AnalysisSession::new`], its
//! owner's for a view that a [`crate::SharedSession`], [`crate::StoreSession`]
//! or [`crate::live::LiveSession`] hands out. A slot is filled only from its
//! lane's whole run, so the one slot a view may keep of its own is the access
//! index's, while a table is not whole. What a view may read and fill — the
//! slot rule and the build rule — is stated once, on `SessionState`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use aftermath_exec::{parallel_map, Threads};
use aftermath_trace::store::LaneId;
use aftermath_trace::{
    AccessKind, AnnotatedTrace, CounterId, CpuId, LintSummary, NumaNodeId, SamplesView, StatesView,
    TaskId, TaskInstance, TaskTypeId, TimeInterval, Timestamp, Trace, WorkerState,
};

use crate::access_index::{AccessIndex, IndexedAccesses};
use crate::anomaly::{self, AnomalyConfig, AnomalyReport};
use crate::counters::counter_delta_for_task;
use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::index::{samples_in, states_overlapping, value_at, CounterIndex};
use crate::pyramid::{ExecStats, StatePyramid, Window, DEFAULT_PYRAMID_FANOUT};
use crate::shared::CacheStats;
use crate::taskgraph::TaskGraph;
use crate::timeline::{EngineDecision, TimelineMode, TimelineModel};

/// An analysis session over one trace.
///
/// The per-counter min/max indexes described in the paper's Section VI-B live in
/// per-`(CPU, counter)` shards that are built **lazily** the first time a query
/// touches them (a [`OnceLock`] per shard), so opening a session on a large trace is
/// cheap and only the counters a front-end actually looks at pay the indexing cost.
/// [`AnalysisSession::prewarm`] builds all remaining shards in parallel on the
/// execution layer, which is what an interactive tool does in the background right
/// after loading. The task graph is likewise reconstructed on first use. All other
/// analyses (derived metrics, statistics, NUMA views, correlation) take the session
/// as their entry point.
///
/// # Examples
///
/// ```rust
/// use aftermath_core::AnalysisSession;
/// use aftermath_exec::Threads;
/// use aftermath_trace::{MachineTopology, TraceBuilder, WorkerState, CpuId, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
/// b.add_state(CpuId(0), WorkerState::Idle, Timestamp(0), Timestamp(100), None)?;
/// let trace = b.finish()?;
/// let session = AnalysisSession::new(&trace);
/// session.prewarm(Threads::auto()); // optional: build all counter indexes now
/// assert_eq!(session.states(CpuId(0)).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisSession<'t> {
    trace: &'t Trace,
    /// The slots this view reads and fills: its owner's `SessionState`, or —
    /// for [`AnalysisSession::new`] — one of its own.
    state: Slots<'t>,
    /// Per CPU: whether the owner calls `States(c)` usable, i.e. whether this
    /// view reads CPU `c`'s pyramid slot at all (the slot rule of
    /// `SessionState`).
    usable_states: Vec<bool>,
    /// The access-index slot of this view's own, present while `Tasks` or
    /// `Accesses` is not usable — and then no pyramid slot is filled.
    own_access_index: Option<OnceLock<AccessIndex>>,
    task_graph: OnceLock<TaskGraph>,
    /// Ordered log of the frames built with the default engine
    /// ([`AnalysisSession::engine_decisions`]).
    engine_log: Mutex<Vec<EngineDecision>>,
    /// The lint summary of the trace this session analyses, when it went through
    /// the lint pipeline ([`aftermath_trace::lint`]). `None` means "never
    /// linted" — an empty summary means "linted and clean".
    lint: Option<LintSummary>,
    /// The view's one thread budget: a timeline frame's rows
    /// ([`TimelineModel::build_with_engine`]) and the units of
    /// [`AnalysisSession::detect_anomalies`] fan out on it; no answer depends on
    /// it. The owner of the trace sets it — a [`crate::SharedSession`] the budget
    /// it was opened with, a [`crate::StoreSession`] the store's decode budget —
    /// and it is one thread for [`AnalysisSession::new`] and a
    /// [`crate::LiveSession`] view.
    pub(crate) threads: Threads,
}

/// The `SessionState` a view reads: borrowed from a long-lived owner, or owned
/// by an [`AnalysisSession::new`] session.
#[derive(Debug)]
enum Slots<'t> {
    Owned(Box<SessionState>),
    Borrowed(&'t SessionState),
}

impl std::ops::Deref for Slots<'_> {
    type Target = SessionState;

    fn deref(&self) -> &SessionState {
        match self {
            Slots::Owned(state) => state,
            Slots::Borrowed(state) => state,
        }
    }
}

/// What one request reads, named by lane, and over which window: the single
/// input to everything a store decides per request — its lane plan
/// (`StoreSession::lanes`), the coverage rule of a salvaged one
/// ([`crate::SalvageCoverage::answerable`]) and the shards it warms up
/// (`AnalysisSession::prewarm_lanes`) — each of which asks `Need::reads` lane by
/// lane. Owners whose trace is always whole ignore it. A need names lanes, not
/// timeline modes or engines: the code that reads a lane states it
/// ([`Need::frame`]), and every engine reads the same lanes (the build rule of
/// `SessionState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// No event data (metadata, the lint summary).
    Nothing,
    /// One timeline frame: the state lanes over `interval`, and the tables its
    /// cells and its filter read. Built by [`Need::frame`].
    Frame {
        /// The visible interval.
        interval: TimeInterval,
        /// Whether the frame reads the task table.
        tasks: bool,
        /// Whether the frame reads the access table.
        accesses: bool,
    },
    /// Interval-query aggregates over every table.
    Query {
        /// The queried window.
        interval: TimeInterval,
    },
    /// A whole-trace scan (anomaly detection, drill-in).
    WholeTrace,
}

impl Need {
    /// The need of a frame of `mode` over `interval` with `filter`: a state
    /// cell reads its states alone and never consults the filter; every other
    /// cell reads the task table, a NUMA cell the access table too, and so
    /// does a task cell whose filter reads accesses.
    pub fn frame(mode: TimelineMode, interval: TimeInterval, filter: &TaskFilter) -> Need {
        use TimelineMode::{NumaHeat, NumaRead, NumaWrite};
        let tasks = mode != TimelineMode::State;
        Need::Frame {
            interval,
            tasks,
            accesses: matches!(mode, NumaRead | NumaWrite | NumaHeat)
                || (tasks && filter.reads_accesses()),
        }
    }

    /// Whether an answer to this need reads `lane`.
    pub(crate) fn reads(&self, lane: LaneId) -> bool {
        match *self {
            Need::Nothing => false,
            Need::Frame {
                tasks, accesses, ..
            } => match lane {
                LaneId::States(_) => true,
                LaneId::Tasks => tasks,
                LaneId::Accesses => accesses,
                LaneId::Events(_) | LaneId::Samples(..) => false,
            },
            Need::Query { .. } => !matches!(lane, LaneId::Events(_)),
            Need::WholeTrace => true,
        }
    }

    /// The time window an answer to this need reads its lanes over: a frame's
    /// or a query's interval, `None` for a need that reads no window (nothing,
    /// or the whole trace).
    pub(crate) fn window(&self) -> Option<TimeInterval> {
        match *self {
            Need::Frame { interval, .. } | Need::Query { interval } => Some(interval),
            Need::Nothing | Need::WholeTrace => None,
        }
    }
}

/// The one set of slots a trace owner keeps — [`crate::SharedSession`],
/// [`crate::StoreSession`], [`crate::live::LiveSession`], and every
/// [`AnalysisSession::new`] session for itself — and every view it hands out
/// reads in place: one [`OnceLock`] per sampled `(CPU, counter)` pair and per
/// CPU's pyramid, the access-index slot, the two result caches, and counters
/// of what was built. The counters count where a slot is filled; a `OnceLock`
/// per slot is all the synchronisation the slots need.
///
/// **The slot rule.** Shards hold absolute row indices into their lane, so a
/// slot is only ever filled from the lane's whole run — the one the owner calls
/// `usable` (a store: `LaneResidency::Full`, every block after a strict open,
/// the surviving run after a salvage open) — and a filled slot survives its
/// lane going and is read again once the lane is whole again. A sample lane is
/// whole or absent (a store loads one only by a whole-lane request), and an
/// absent one reads as empty and fills nothing, so a view reads the owner's
/// counter-index slot of every sample lane. Only two slots are conditional:
/// CPU `c`'s pyramid slot is read while `States(c)` is usable, and the
/// access-index slot while `Tasks` and `Accesses` are both usable — otherwise
/// the view builds the access index into a slot of its own, dropped with it.
///
/// **The build rule.** A pyramid node aggregates a CPU's states, their tasks
/// and those tasks' accesses, so a view fills CPU `c`'s pyramid slot only while
/// `States(c)`, `Tasks` and `Accesses` are all usable, and has no slot of its
/// own for one: [`AnalysisSession::pyramid`] is then `None` unless the slot is
/// filled, and every window on that CPU is reduced by the scan, with the same
/// answer bit for bit ([`Window`]). Every pyramid a view builds is kept.
#[derive(Debug)]
pub(crate) struct SessionState {
    /// Counter-index slots by `(CPU, counter)`; a live session grows them in place.
    pub(crate) indexes: HashMap<(CpuId, CounterId), OnceLock<CounterIndex>>,
    /// Pyramid slots, one per CPU (see `indexes`).
    pub(crate) pyramids: Vec<OnceLock<StatePyramid>>,
    /// The access index ([`crate::access_index`]), built on first use — by
    /// [`AnalysisSession::prewarm`], a pyramid build, a NUMA-mode frame or a
    /// whole-trace NUMA analysis — over the task and access tables as they are
    /// then.
    access_index: OnceLock<AccessIndex>,
    /// Ranked anomaly reports per configuration.
    anomaly_cache: SharedCache<AnomalyConfig, AnomalyReport>,
    /// Timeline models per viewport.
    timeline_cache: SharedCache<TimelineKey, TimelineModel>,
    /// Pyramids built (the build rule: each one is kept).
    pub(crate) pyramid_builds: AtomicU64,
    /// Counter indexes built: at most one per sampled pair.
    pub(crate) index_builds: AtomicU64,
    /// Access indexes built, a view's own slot included.
    pub(crate) access_index_builds: AtomicU64,
}

impl SessionState {
    /// Empty slots for `cpus` pyramids and the `sampled` pairs' indexes, empty
    /// caches.
    pub(crate) fn new(cpus: usize, sampled: impl IntoIterator<Item = (CpuId, CounterId)>) -> Self {
        SessionState {
            indexes: sampled
                .into_iter()
                .map(|key| (key, OnceLock::new()))
                .collect(),
            pyramids: (0..cpus).map(|_| OnceLock::new()).collect(),
            access_index: OnceLock::new(),
            anomaly_cache: SharedCache::new(AnalysisSession::ANOMALY_CACHE_CAPACITY),
            timeline_cache: SharedCache::new(AnalysisSession::TIMELINE_CACHE_CAPACITY),
            pyramid_builds: AtomicU64::new(0),
            index_builds: AtomicU64::new(0),
            access_index_builds: AtomicU64::new(0),
        }
    }

    /// [`SessionState::new`] for every CPU of `trace` and every pair it has
    /// samples of.
    pub(crate) fn of(trace: &Trace) -> Self {
        let sampled = trace.per_cpu().iter().flat_map(|pc| {
            pc.sample_streams()
                .filter(|(_, samples)| !samples.is_empty())
                .map(move |(counter, _)| (pc.cpu(), counter))
        });
        Self::new(trace.per_cpu().len(), sampled)
    }

    /// A view over `trace` that reads these slots under the slot rule, with
    /// `usable` saying which lanes the owner calls usable. Costs `O(slots)`
    /// and copies no shard.
    pub(crate) fn view<'t>(
        &'t self,
        trace: &'t Trace,
        lint: Option<&LintSummary>,
        usable: impl Fn(LaneId) -> bool,
    ) -> AnalysisSession<'t> {
        let mut view = AnalysisSession::over(trace, Slots::Borrowed(self), usable);
        view.lint = lint.cloned();
        view
    }

    /// Bytes of every built counter index and pyramid and the access index.
    pub(crate) fn memory_bytes(&self) -> usize {
        let indexes = self.indexes.values().filter_map(OnceLock::get);
        let pyramids = self.pyramids.iter().filter_map(OnceLock::get);
        indexes.map(CounterIndex::memory_bytes).sum::<usize>()
            + pyramids.map(StatePyramid::memory_bytes).sum::<usize>()
            + self.access_index.get().map_or(0, AccessIndex::memory_bytes)
    }

    /// Combined hit/miss totals of the timeline-model and anomaly-report caches,
    /// accumulated across every view.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let (th, tm) = self.timeline_cache.stats();
        let (ah, am) = self.anomaly_cache.stats();
        CacheStats {
            hits: th + ah,
            misses: tm + am,
        }
    }

    /// Forgets everything derived from the trace's data — cached results and the
    /// access index — when a live epoch appends to it. The shards are the live
    /// session's to maintain.
    pub(crate) fn invalidate_data(&mut self) {
        self.access_index = OnceLock::new();
        self.anomaly_cache = SharedCache::new(AnalysisSession::ANOMALY_CACHE_CAPACITY);
        self.timeline_cache = SharedCache::new(AnalysisSession::TIMELINE_CACHE_CAPACITY);
    }
}

/// Adds `n` to a build counter of a [`SessionState`].
fn count(counter: &AtomicU64, n: usize) {
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

/// Cache key of one timeline-model computation: everything the model depends on.
type TimelineKey = (TimelineMode, TimeInterval, usize, TaskFilter);

/// A bounded, **single-flight** LRU cache keyed by the request itself: the
/// anomaly-report and timeline-model caches of a [`SessionState`].
///
/// An entry is found by `==` on its key, so a key type needs nothing beyond
/// `PartialEq + Clone` — no hash kept in step with its fields. The entries
/// are one list in least-recently-*used* order: a hit moves its entry to the
/// back, so an entry a front-end keeps re-querying survives eviction even while
/// e.g. a parameter sweep churns through many one-shot entries, and a miss
/// evicts from the front. A cache holds a few dozen entries at most, so the
/// linear search stays cheap.
///
/// Single flight: when several threads miss on the same key at once, exactly
/// one computes the value while the others block on a condvar and then share
/// the result. Without this, N clients of one shared trace requesting the same
/// expensive result (an anomaly report over millions of events, a cold
/// timeline frame) would each recompute it on a concurrent miss — the
/// duplicated work grows linearly with the client count and dominates tail
/// latency under load, which is exactly the situation the multi-session server
/// exists to avoid.
///
/// Accounting: one logical query counts exactly once — a **miss** for the
/// thread that computes, a **hit** for every thread that receives a value
/// someone else produced (whether it was cached before the call or computed
/// while the caller waited).
///
/// A key that is not equal to itself (an [`AnomalyConfig`] with a NaN
/// threshold) is never found and never waited for: every call with it
/// computes, and its marker still goes when the call ends ([`FlightGuard`]).
#[derive(Debug)]
pub(crate) struct SharedCache<K, V> {
    state: Mutex<LruCache<K, V>>,
    wakeup: Condvar,
}

/// What the lock of a [`SharedCache`] guards.
#[derive(Debug)]
struct LruCache<K, V> {
    capacity: usize,
    /// The cached values, least recently used first.
    entries: VecDeque<(K, Arc<V>)>,
    /// The keys being computed right now (the single-flight set of
    /// [`SharedCache::get_or_compute`]), one marker per computing call.
    in_flight: Vec<Arc<K>>,
    /// Lifetime counters of [`SharedCache::get_or_compute`] outcomes. They
    /// live in the cache (not the session) so every session view sharing one
    /// handle — e.g. all clients of one served trace — accumulates into the
    /// same numbers, which is exactly the cross-client sharing the serve
    /// bench reports.
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, V> LruCache<K, V> {
    /// The value cached for `key`, whose entry becomes the most recently used.
    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let pos = self.entries.iter().position(|(cached, _)| cached == key)?;
        let entry = self.entries.remove(pos)?;
        let value = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        Some(value)
    }

    /// Inserts `value` unless a racing thread stored an equal key first, in
    /// which case the incumbent is returned; evicts least-recently-used
    /// entries to stay within capacity.
    fn insert(&mut self, key: K, value: Arc<V>) -> Arc<V> {
        if let Some(incumbent) = self.get(&key) {
            return incumbent;
        }
        while self.entries.len() >= self.capacity && self.entries.pop_front().is_some() {}
        self.entries.push_back((key, Arc::clone(&value)));
        value
    }
}

/// Clears its call's in-flight marker and wakes the waiters when dropped, so
/// a `compute` that fails — or unwinds — can never strand the threads waiting
/// on its key. The marker is removed by identity, not by `==`, so a key that
/// is not equal to itself cannot leave one behind.
struct FlightGuard<'c, K, V> {
    cache: &'c SharedCache<K, V>,
    marker: Arc<K>,
}

impl<K, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        state.in_flight.retain(|k| !Arc::ptr_eq(k, &self.marker));
        drop(state);
        self.cache.wakeup.notify_all();
    }
}

impl<K, V> SharedCache<K, V> {
    fn new(capacity: usize) -> Self {
        SharedCache {
            state: Mutex::new(LruCache {
                capacity,
                entries: VecDeque::new(),
                in_flight: Vec::new(),
                hits: 0,
                misses: 0,
            }),
            wakeup: Condvar::new(),
        }
    }

    /// Lifetime `(hits, misses)` of the [`SharedCache::get_or_compute`] path.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let state = self.lock();
        (state.hits, state.misses)
    }

    /// The cache's lock, recovered if a thread panicked while holding it:
    /// every update leaves the list, the markers and the counters valid at
    /// each step, and a [`FlightGuard`] must not panic in its drop.
    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: PartialEq + Clone, V> SharedCache<K, V> {
    /// Returns the cached value for `key`, or runs `compute` to produce it —
    /// at most once across concurrent callers of equal keys.
    ///
    /// `compute` runs outside the cache lock, so slow computations on
    /// distinct keys proceed in parallel. A failing `compute` propagates its
    /// error to the computing caller; waiters simply retry (one of them
    /// becomes the next computer).
    pub(crate) fn get_or_compute<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut state = self.lock();
        let marker = loop {
            if let Some(value) = state.get(key) {
                state.hits += 1;
                return Ok(value);
            }
            if !state.in_flight.iter().any(|k| **k == *key) {
                state.misses += 1;
                let marker = Arc::new(key.clone());
                state.in_flight.push(Arc::clone(&marker));
                break marker;
            }
            state = self
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(state);
        let flight = FlightGuard {
            cache: self,
            marker,
        };
        let value = compute()?;
        let value = self.lock().insert(key.clone(), Arc::new(value));
        // Insert before clearing the marker: woken waiters must find the
        // value in the cache, not race into a second computation.
        drop(flight);
        Ok(value)
    }
}

impl<'t> AnalysisSession<'t> {
    /// Maximum number of anomaly-report configurations kept in the session cache.
    pub const ANOMALY_CACHE_CAPACITY: usize = 32;

    /// Maximum number of timeline models kept in the session cache
    /// ([`AnalysisSession::timeline_filtered`]).
    pub const TIMELINE_CACHE_CAPACITY: usize = 64;

    /// Creates a session over `trace`.
    ///
    /// This is cheap: counter indexes are built lazily per `(CPU, counter)` shard on
    /// first touch, and state pyramids lazily per CPU. Call
    /// [`AnalysisSession::prewarm`] to build them all up front.
    pub fn new(trace: &'t Trace) -> Self {
        let state = Box::new(SessionState::of(trace));
        Self::over(trace, Slots::Owned(state), |_| true)
    }

    /// A view over `trace` reading `state`'s slots under the slot rule of
    /// [`SessionState`]: the owner's counter-index slots, its pyramid slot of
    /// every `usable` state lane and, unless `Tasks` and `Accesses` are both
    /// usable, an access-index slot of its own.
    fn over(trace: &'t Trace, state: Slots<'t>, usable: impl Fn(LaneId) -> bool) -> Self {
        let usable_states: Vec<bool> = (0..state.pyramids.len())
            .map(|cpu| usable(LaneId::States(CpuId(cpu as u32))))
            .collect();
        let tables = usable(LaneId::Tasks) && usable(LaneId::Accesses);
        AnalysisSession {
            trace,
            state,
            usable_states,
            own_access_index: (!tables).then(OnceLock::new),
            task_graph: OnceLock::new(),
            engine_log: Mutex::new(Vec::new()),
            lint: None,
            threads: Threads::single(),
        }
    }

    /// Opens a session over a linted trace ([`aftermath_trace::lint`]), carrying
    /// its lint summary so downstream consumers can see which defects the trace
    /// had (and had repaired) before analysis.
    pub fn from_annotated(annotated: &'t AnnotatedTrace) -> Self {
        Self::new(annotated.trace()).with_lint_summary(annotated.summary().clone())
    }

    /// Attaches the lint summary of the trace this session analyses (see
    /// [`lint_summary`](Self::lint_summary)).
    #[must_use]
    pub fn with_lint_summary(mut self, summary: LintSummary) -> Self {
        self.lint = Some(summary);
        self
    }

    /// The lint summary the trace went through before analysis, if any: `None`
    /// for a never-linted trace, an empty ([`LintSummary::is_clean`]) summary for
    /// a linted-and-clean one. Analyses over a repaired trace should surface
    /// this next to their results — a repaired defect (dropped events, clamped
    /// counters) can itself look like an anomaly.
    pub fn lint_summary(&self) -> Option<&LintSummary> {
        self.lint.as_ref()
    }

    /// The index shard of one `(CPU, counter)` pair (built on first touch) together
    /// with the sample stream it indexes, so callers do not resolve the samples a
    /// second time.
    ///
    /// Returns `None` for a pair without samples (there is nothing to index in that
    /// case). The map is keyed by the exact pair, so a counter id outside the
    /// description table — the builder does not validate counter ids — simply gets
    /// its own shard and can never alias another pair's.
    fn counter_shard(
        &self,
        cpu: CpuId,
        counter: CounterId,
    ) -> Option<(&CounterIndex, SamplesView<'t>)> {
        // An absent lane reads as empty and fills nothing; any other sample
        // lane is whole (the slot rule of `SessionState`).
        let slot = self.state.indexes.get(&(cpu, counter))?;
        let samples = self.samples(cpu, counter);
        if samples.is_empty() {
            return None;
        }
        let index = slot.get_or_init(|| {
            count(&self.state.index_builds, 1);
            CounterIndex::new(samples)
        });
        Some((index, samples))
    }

    /// The multi-resolution state pyramid of one CPU, built on first touch
    /// ([`crate::pyramid::StatePyramid`]). `None` for an unknown CPU, a CPU
    /// without state intervals, or one whose pyramid slot is empty and the view
    /// may not fill (the build rule of `SessionState`).
    pub fn pyramid(&self, cpu: CpuId) -> Option<&StatePyramid> {
        let c = cpu.0 as usize;
        let slot = self
            .state
            .pyramids
            .get(c)
            .filter(|_| self.usable_states[c])?;
        let states = self.states(cpu);
        // The owner's access-index slot is read exactly while the tables are usable.
        let may_fill = self.own_access_index.is_none();
        if states.is_empty() || (slot.get().is_none() && !may_fill) {
            return None;
        }
        Some(slot.get_or_init(|| {
            count(&self.state.pyramid_builds, 1);
            StatePyramid::build_from(self.trace, &self.accesses(), states, DEFAULT_PYRAMID_FANOUT)
        }))
    }

    /// The access index of this session's trace ([`crate::access_index`]), built
    /// on first use in one linear pass over the access table.
    pub fn access_index(&self) -> &AccessIndex {
        self.access_index_slot().get_or_init(|| {
            count(&self.state.access_index_builds, 1);
            AccessIndex::build(self.trace)
        })
    }

    /// The access-index slot this view reads (the slot rule of `SessionState`).
    fn access_index_slot(&self) -> &OnceLock<AccessIndex> {
        self.own_access_index
            .as_ref()
            .unwrap_or(&self.state.access_index)
    }

    /// Whether the access index has been built (diagnostics).
    pub fn access_index_built(&self) -> bool {
        self.access_index_slot().get().is_some()
    }

    /// The table-based [`crate::access_index::AccessSource`] every in-session NUMA
    /// analysis reads a task's accesses and their nodes through.
    pub fn accesses(&self) -> IndexedAccesses<'_> {
        IndexedAccesses::new(self.access_index(), self.trace)
    }

    /// Logs one frame built with the default engine
    /// ([`crate::TimelineModel::build_with_engine`]).
    pub(crate) fn record_engine(&self, decision: EngineDecision) {
        self.engine_log
            .lock()
            .expect("engine log poisoned")
            .push(decision);
    }

    /// One entry per [`crate::TimelineEngine::Adaptive`] (default-engine) frame actually
    /// built on this session, in build order (cache hits in
    /// [`AnalysisSession::timeline_filtered`] build no frame and log nothing):
    /// whether any of its cells read pyramid nodes, or all were reduced by the scan.
    pub fn engine_decisions(&self) -> Vec<EngineDecision> {
        self.engine_log.lock().expect("engine log poisoned").clone()
    }

    /// Builds every not-yet-built shard the owner keeps — the access index, then
    /// counter min/max/sum indexes *and* per-CPU state pyramids in parallel on up
    /// to `threads` workers — and returns the total number of built shards.
    ///
    /// An interactive front-end calls this right after loading a trace so that every
    /// later [`counter_min_max`](Self::counter_min_max) or timeline query is answered
    /// from a warm index. The shards are independent [`OnceLock`]s, so prewarming may
    /// race with concurrent queries without ever duplicating or tearing an index.
    pub fn prewarm(&self, threads: Threads) -> usize {
        self.access_index();
        1 + self.prewarm_lanes(threads, &Need::WholeTrace)
    }

    /// The per-lane half of [`AnalysisSession::prewarm`], limited to the lanes
    /// `need` reads (`Need::reads`): fills the owner's counter-index slots of
    /// those sample lanes — an absent one builds nothing — and the pyramid
    /// slots of those state lanes the owner calls usable (a
    /// [`crate::StoreSession`]: the whole ones). Pyramids go through
    /// [`AnalysisSession::pyramid`], so the build rule holds here too. Returns
    /// how many of those slots are filled.
    ///
    /// The access index is not a per-lane shard and is not built ahead here: the
    /// first pyramid build reads through it and builds it (the other workers wait
    /// on its [`OnceLock`]).
    pub(crate) fn prewarm_lanes(&self, threads: Threads, need: &Need) -> usize {
        let indexes = self.state.indexes.keys();
        let indexes = indexes.map(|&(cpu, counter)| LaneId::Samples(cpu, counter));
        let pyramids = (0..self.usable_states.len())
            .filter(|&cpu| self.usable_states[cpu])
            .map(|cpu| LaneId::States(CpuId(cpu as u32)));
        let lanes: Vec<LaneId> = indexes.chain(pyramids).filter(|&l| need.reads(l)).collect();
        let built = parallel_map(threads, &lanes, |lane| match *lane {
            LaneId::Samples(cpu, counter) => self.counter_shard(cpu, counter).is_some(),
            LaneId::States(cpu) => self.pyramid(cpu).is_some(),
            _ => unreachable!("only sample and state lanes back a shard"),
        });
        built.into_iter().filter(|&built| built).count()
    }

    /// Number of counter index shards built so far (diagnostics; grows on demand and
    /// after [`AnalysisSession::prewarm`]).
    pub fn built_counter_indexes(&self) -> usize {
        let slots = self.state.indexes.values();
        slots.filter(|slot| slot.get().is_some()).count()
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// The full time interval covered by the trace.
    pub fn time_bounds(&self) -> TimeInterval {
        self.trace.time_bounds()
    }

    /// All state intervals of one CPU as a zero-copy columnar view (empty for an
    /// unknown CPU). Materialise single structs on demand via
    /// [`StatesView::get`], or the whole stream via `iter().collect()`.
    pub fn states(&self, cpu: CpuId) -> StatesView<'t> {
        self.trace
            .cpu(cpu)
            .map(|pc| pc.states())
            .unwrap_or_else(|| StatesView::empty(cpu))
    }

    /// The state intervals of one CPU overlapping `interval`.
    pub fn states_in(&self, cpu: CpuId, interval: TimeInterval) -> StatesView<'t> {
        states_overlapping(self.states(cpu), interval)
    }

    /// All samples of one counter on one CPU as a zero-copy columnar view (empty
    /// when missing).
    pub fn samples(&self, cpu: CpuId, counter: CounterId) -> SamplesView<'t> {
        self.trace
            .cpu(cpu)
            .and_then(|pc| pc.samples(counter))
            .unwrap_or_else(|| SamplesView::empty(counter, cpu))
    }

    /// The samples of one counter on one CPU inside `interval`.
    pub fn samples_in(
        &self,
        cpu: CpuId,
        counter: CounterId,
        interval: TimeInterval,
    ) -> SamplesView<'t> {
        samples_in(self.samples(cpu, counter), interval)
    }

    /// The step-interpolated value of a counter on a CPU at time `t` (last sample at or
    /// before `t`).
    pub fn counter_value_at(&self, cpu: CpuId, counter: CounterId, t: Timestamp) -> Option<f64> {
        value_at(self.samples(cpu, counter), t)
    }

    /// Minimum and maximum of a counter on a CPU over `interval`, answered from the
    /// n-ary index (built on first touch for this `(CPU, counter)` shard).
    pub fn counter_min_max(
        &self,
        cpu: CpuId,
        counter: CounterId,
        interval: TimeInterval,
    ) -> Option<(f64, f64)> {
        let (index, samples) = self.counter_shard(cpu, counter)?;
        index.min_max_in(samples, interval)
    }

    /// Average value of a counter's samples on a CPU over `interval`, answered from
    /// the per-node sums of the counter index. `None` when the interval covers no
    /// sample.
    pub fn counter_average(
        &self,
        cpu: CpuId,
        counter: CounterId,
        interval: TimeInterval,
    ) -> Option<f64> {
        let (index, samples) = self.counter_shard(cpu, counter)?;
        index.average_in(samples, interval)
    }

    /// Looks up a counter id by name.
    pub fn counter_id(&self, name: &str) -> Result<CounterId, AnalysisError> {
        self.trace
            .counter_by_name(name)
            .map(|c| c.id)
            .ok_or(AnalysisError::MissingData("counter not present in trace"))
    }

    /// Tasks whose execution interval overlaps `interval`.
    pub fn tasks_in(&self, interval: TimeInterval) -> Vec<&TaskInstance> {
        self.trace
            .tasks()
            .iter()
            .filter(|t| t.execution.overlaps(&interval))
            .collect()
    }

    /// The increase of a monotone counter during a task's execution on its CPU.
    ///
    /// Returns `None` when the counter has no samples bracketing the task execution.
    pub fn counter_delta(&self, task: &TaskInstance, counter: CounterId) -> Option<f64> {
        counter_delta_for_task(self.samples(task.cpu, counter), task)
    }

    /// The reconstructed task graph (built lazily on first use and cached).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::MissingData`] for a trace without any task instances.
    pub fn task_graph(&self) -> Result<&TaskGraph, AnalysisError> {
        if let Some(graph) = self.task_graph.get() {
            return Ok(graph);
        }
        if self.trace.tasks().is_empty() {
            return Err(AnalysisError::MissingData("trace contains no tasks"));
        }
        let graph = TaskGraph::reconstruct(self.trace);
        Ok(self.task_graph.get_or_init(|| graph))
    }

    /// Runs the automatic anomaly-detection engine over this session and returns the
    /// ranked report ([`crate::anomaly`]).
    ///
    /// Results are cached per configuration: repeated calls with an equal `config`
    /// return the same shared report without re-scanning the trace, so interactive
    /// front-ends can re-query freely while navigating. The cache holds the
    /// [`ANOMALY_CACHE_CAPACITY`](Self::ANOMALY_CACHE_CAPACITY) most recently
    /// **used** configurations (reads refresh an entry), so e.g. sweeping a threshold
    /// over many values cannot grow memory without bound or evict the configuration
    /// the front-end keeps displaying.
    ///
    /// # Errors
    ///
    /// Propagates detector failures; traces lacking the data a detector needs simply
    /// contribute no findings.
    pub fn detect_anomalies(
        &self,
        config: &AnomalyConfig,
    ) -> Result<Arc<AnomalyReport>, AnalysisError> {
        self.detect_anomalies_with(config, self.threads)
    }

    /// Like [`AnalysisSession::detect_anomalies`] but lets every enabled detector
    /// fan its internal units out over up to `threads` workers
    /// ([`crate::anomaly::detect_anomalies_with`]).
    ///
    /// The ranked report is identical to the sequential scan — findings merge in
    /// fixed detector order before the stable severity sort — and both entry points
    /// share one cache, so a parallel scan serves later sequential queries for the
    /// same configuration and vice versa.
    ///
    /// # Errors
    ///
    /// See [`AnalysisSession::detect_anomalies`].
    pub fn detect_anomalies_with(
        &self,
        config: &AnomalyConfig,
        threads: Threads,
    ) -> Result<Arc<AnomalyReport>, AnalysisError> {
        // Single-flight: concurrent callers with the same configuration share
        // one detection pass instead of each scanning the trace.
        self.state.anomaly_cache.get_or_compute(config, || {
            anomaly::detect_anomalies_with(self, config, threads)
        })
    }

    /// The timeline model for `mode` over `interval` at `columns` cells, computed on
    /// the aggregation pyramid and cached.
    ///
    /// Repeated queries with the same `(mode, interval, columns)` — e.g. a front-end
    /// re-rendering after panning back to a previous viewport — return the shared
    /// cached model without recomputing any cell. The cache holds the
    /// [`TIMELINE_CACHE_CAPACITY`](Self::TIMELINE_CACHE_CAPACITY) most recently used
    /// viewport configurations.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for zero columns or an empty
    /// interval.
    pub fn timeline(
        &self,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
    ) -> Result<Arc<TimelineModel>, AnalysisError> {
        self.timeline_filtered(mode, interval, columns, &TaskFilter::new())
    }

    /// Like [`AnalysisSession::timeline`] but restricted to tasks accepted by
    /// `filter` (the filter is part of the cache key).
    ///
    /// # Errors
    ///
    /// See [`AnalysisSession::timeline`].
    pub fn timeline_filtered(
        &self,
        mode: TimelineMode,
        interval: TimeInterval,
        columns: usize,
        filter: &TaskFilter,
    ) -> Result<Arc<TimelineModel>, AnalysisError> {
        let key: TimelineKey = (mode, interval, columns, filter.clone());
        self.state.timeline_cache.get_or_compute(&key, || {
            TimelineModel::build_filtered(self, mode, interval, columns, filter)
        })
    }

    /// Starts an interval query over `interval`: exact aggregate and predominance
    /// queries answered from the multi-resolution pyramid in `O(fanout · log n)`.
    pub fn query(&self, interval: TimeInterval) -> IntervalQuery<'_, 't> {
        IntervalQuery {
            session: self,
            interval,
        }
    }

    /// Total memory used by the counter min/max indexes built **so far**, in bytes.
    ///
    /// Shards are lazy; [`AnalysisSession::prewarm`] first to measure the fully
    /// indexed session.
    pub fn index_memory_bytes(&self) -> usize {
        let indexes = self.state.indexes.values().filter_map(OnceLock::get);
        indexes.map(CounterIndex::memory_bytes).sum()
    }

    /// Ratio of index memory to raw counter-sample memory (the paper reports
    /// ≤ 5 %). Like [`Trace::aos_event_bytes`], the denominator is the
    /// struct-equivalent sample size, fixed across storage engines so the ratio
    /// stays comparable with earlier (pre-columnar) measurements.
    pub fn index_overhead_ratio(&self) -> f64 {
        let samples: usize = self.trace.per_cpu().iter().map(|pc| pc.num_samples()).sum();
        if samples == 0 {
            return 0.0;
        }
        self.index_memory_bytes() as f64
            / (samples * std::mem::size_of::<aftermath_trace::CounterSample>()) as f64
    }

    /// Total memory used by the state pyramids built **so far**, in bytes.
    ///
    /// Pyramids are lazy; [`AnalysisSession::prewarm`] first to measure the fully
    /// indexed session.
    pub fn pyramid_memory_bytes(&self) -> usize {
        self.state
            .pyramids
            .iter()
            .zip(&self.usable_states)
            .filter_map(|(slot, &usable)| slot.get().filter(|_| usable))
            .map(StatePyramid::memory_bytes)
            .sum()
    }

    /// Detailed, human-readable information about one task (the paper's detail view #4).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnknownTask`] when the task does not exist.
    pub fn task_details(&self, task: TaskId) -> Result<TaskDetails, AnalysisError> {
        let instance = self
            .trace
            .task(task)
            .ok_or(AnalysisError::UnknownTask(task))?;
        let type_name = self
            .trace
            .task_type(instance.task_type)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("{}", instance.task_type));
        let symbol = self
            .trace
            .task_type(instance.task_type)
            .and_then(|t| self.trace.symbols().lookup(t.symbol_addr))
            .map(|s| s.name.clone());
        let mut bytes_read = 0;
        let mut bytes_written = 0;
        let mut read_nodes = Vec::new();
        let mut written_nodes = Vec::new();
        for access in self.trace.accesses_of_task(task).iter() {
            let node = self.trace.node_of_addr(access.addr);
            match access.kind {
                aftermath_trace::AccessKind::Read => {
                    bytes_read += access.size;
                    if let Some(n) = node {
                        if !read_nodes.contains(&n) {
                            read_nodes.push(n);
                        }
                    }
                }
                aftermath_trace::AccessKind::Write => {
                    bytes_written += access.size;
                    if let Some(n) = node {
                        if !written_nodes.contains(&n) {
                            written_nodes.push(n);
                        }
                    }
                }
            }
        }
        let mut counter_deltas = Vec::new();
        for desc in self.trace.counters() {
            if desc.monotone {
                if let Some(delta) = self.counter_delta(instance, desc.id) {
                    counter_deltas.push((desc.name.clone(), delta));
                }
            }
        }
        Ok(TaskDetails {
            task,
            type_name,
            work_function: symbol,
            cpu: instance.cpu,
            duration_cycles: instance.duration(),
            bytes_read,
            bytes_written,
            read_nodes,
            written_nodes,
            counter_deltas,
        })
    }
}

/// One interval query over an [`AnalysisSession`]: aggregate statistics and
/// predominance over an arbitrary time window, per CPU, through the same window
/// reduction as the timeline's cells ([`Window`]) — `O(fanout · log n)` from the
/// multi-resolution pyramid where the window is wide, a scan of the covered
/// intervals where it is narrow.
///
/// All aggregates are integer sums, so the results are bit-identical to a raw scan —
/// including predominance ties, which are resolved in stream order exactly like the
/// scan loop.
#[derive(Debug, Clone, Copy)]
pub struct IntervalQuery<'s, 't> {
    session: &'s AnalysisSession<'t>,
    interval: TimeInterval,
}

impl<'s, 't> IntervalQuery<'s, 't> {
    /// The queried time window.
    pub fn interval(&self) -> TimeInterval {
        self.interval
    }

    /// The window on `cpu`'s state stream, with the CPU's pyramid.
    fn window(&self, cpu: CpuId) -> Window<'s> {
        let states = self.session.states(cpu);
        Window::new(self.session.pyramid(cpu), states, self.interval)
    }

    /// Cycles each worker state covers inside the window on `cpu` (clipped to the
    /// window), indexed by [`WorkerState::index`].
    pub fn state_cycles(&self, cpu: CpuId) -> [u64; WorkerState::COUNT] {
        self.window(cpu).state_cycles()
    }

    /// The worker state covering the largest part of the window on `cpu`, if any
    /// (the timeline's state mode).
    pub fn predominant_state(&self, cpu: CpuId) -> Option<WorkerState> {
        self.window(cpu).predominant_state()
    }

    /// The index (into [`Trace::tasks`]) of the task-execution interval covering the
    /// largest part of the window on `cpu`, restricted to tasks accepted by
    /// `filter`; earliest-in-stream wins ties (the timeline's heatmap/typemap/NUMA
    /// modes).
    pub fn predominant_task_index(&self, cpu: CpuId, filter: &TaskFilter) -> Option<usize> {
        let trace = self.session.trace();
        self.window(cpu).predominant_task(trace, filter)
    }

    /// Like [`IntervalQuery::predominant_task_index`] but resolves the task.
    pub fn predominant_task(&self, cpu: CpuId, filter: &TaskFilter) -> Option<&'t TaskInstance> {
        self.predominant_task_index(cpu, filter)
            .and_then(|idx| self.session.trace().tasks().get(idx))
    }

    /// Count and min/max duration of the task-execution intervals overlapping the
    /// window on `cpu` (full durations, each interval counted once).
    pub fn exec_stats(&self, cpu: CpuId) -> ExecStats {
        self.window(cpu).exec_stats()
    }

    /// Execution cycles per task type inside the window on `cpu` (clipped to the
    /// window), ascending by type id.
    pub fn task_type_cycles(&self, cpu: CpuId) -> Vec<(TaskTypeId, u64)> {
        self.window(cpu).type_cycles(self.session.trace())
    }

    /// Bytes accessed per NUMA node by the tasks of the execution intervals
    /// overlapping the window on `cpu`, ascending by node id (attributed per
    /// execution interval, full access totals; zero entries are dropped).
    pub fn numa_bytes(&self, cpu: CpuId, kind: AccessKind) -> Vec<(NumaNodeId, u64)> {
        let (trace, accesses) = (self.session.trace(), self.session.accesses());
        let mut bytes = self.window(cpu).numa_bytes(trace, &accesses, kind);
        bytes.retain(|&(_, b)| b > 0);
        bytes
    }

    /// Minimum and maximum of a counter on a CPU over the window
    /// ([`AnalysisSession::counter_min_max`]).
    pub fn counter_min_max(&self, cpu: CpuId, counter: CounterId) -> Option<(f64, f64)> {
        self.session.counter_min_max(cpu, counter, self.interval)
    }

    /// Average of a counter's samples on a CPU over the window
    /// ([`AnalysisSession::counter_average`]).
    pub fn counter_average(&self, cpu: CpuId, counter: CounterId) -> Option<f64> {
        self.session.counter_average(cpu, counter, self.interval)
    }
}

/// Detailed information about one task, as shown in Aftermath's textual detail view.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDetails {
    /// The task this record describes.
    pub task: TaskId,
    /// Name of the task type.
    pub type_name: String,
    /// Name of the work-function resolved through the symbol table, when available.
    pub work_function: Option<String>,
    /// CPU the task executed on.
    pub cpu: CpuId,
    /// Execution duration in cycles.
    pub duration_cycles: u64,
    /// Total bytes read by the task.
    pub bytes_read: u64,
    /// Total bytes written by the task.
    pub bytes_written: u64,
    /// NUMA nodes the task read from.
    pub read_nodes: Vec<aftermath_trace::NumaNodeId>,
    /// NUMA nodes the task wrote to.
    pub written_nodes: Vec<aftermath_trace::NumaNodeId>,
    /// Increase of each monotone counter during the task's execution.
    pub counter_deltas: Vec<(String, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_sim_trace;

    #[test]
    fn session_basic_queries() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        assert!(session.time_bounds().duration() > 0);
        let cpu = CpuId(0);
        assert!(!session.states(cpu).is_empty());
        let bounds = session.time_bounds();
        assert_eq!(
            session.states_in(cpu, bounds).len(),
            session.states(cpu).len()
        );
        assert!(!session.tasks_in(bounds).is_empty());
    }

    #[test]
    fn unknown_cpu_yields_empty_slices() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        assert!(session.states(CpuId(999)).is_empty());
        assert!(session.samples(CpuId(999), CounterId(0)).is_empty());
    }

    #[test]
    fn counter_min_max_consistent_with_samples() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("branch-mispredictions").unwrap();
        let bounds = session.time_bounds();
        for cpu in trace.topology().cpu_ids() {
            let samples = session.samples(cpu, counter);
            if samples.is_empty() {
                continue;
            }
            let (min, max) = session.counter_min_max(cpu, counter, bounds).unwrap();
            let naive_min = samples
                .iter()
                .map(|s| s.value)
                .fold(f64::INFINITY, f64::min);
            let naive_max = samples
                .iter()
                .map(|s| s.value)
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(min, naive_min);
            assert_eq!(max, naive_max);
        }
    }

    #[test]
    fn task_graph_is_cached() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let a = session.task_graph().unwrap() as *const _;
        let b = session.task_graph().unwrap() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn task_details_reports_memory_and_counters() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let task = trace
            .tasks()
            .iter()
            .find(|t| !trace.accesses_of_task(t.id).is_empty());
        let task = task.expect("simulated trace records accesses");
        let details = session.task_details(task.id).unwrap();
        assert!(details.bytes_read + details.bytes_written > 0);
        assert_eq!(details.cpu, task.cpu);
        assert!(!details.type_name.is_empty());
        assert!(session.task_details(TaskId(u64::MAX)).is_err());
    }

    #[test]
    fn index_overhead_is_small() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        session.prewarm(Threads::single());
        assert!(session.built_counter_indexes() > 0);
        assert!(session.index_overhead_ratio() < 0.06);
    }

    #[test]
    fn counter_indexes_build_lazily_per_shard() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        assert_eq!(session.built_counter_indexes(), 0, "no query yet");
        assert_eq!(session.index_memory_bytes(), 0);
        let counter = session.counter_id("branch-mispredictions").unwrap();
        let bounds = session.time_bounds();
        session.counter_min_max(CpuId(0), counter, bounds);
        assert_eq!(
            session.built_counter_indexes(),
            1,
            "first query builds exactly its own shard"
        );
    }

    #[test]
    fn prewarm_builds_every_shard_and_changes_no_answer() {
        let trace = small_sim_trace();
        let lazy = AnalysisSession::new(&trace);
        let warmed = AnalysisSession::new(&trace);
        let expected_counters: usize = trace
            .per_cpu()
            .iter()
            .map(|pc| pc.sample_streams().filter(|(_, s)| !s.is_empty()).count())
            .sum();
        let expected_pyramids = trace
            .per_cpu()
            .iter()
            .filter(|pc| !pc.states().is_empty())
            .count();
        // + 1: the access index.
        let expected = expected_counters + expected_pyramids + 1;
        for threads in [Threads::single(), Threads::new(2), Threads::auto()] {
            assert_eq!(warmed.prewarm(threads), expected);
        }
        assert_eq!(warmed.built_counter_indexes(), expected_counters);
        assert!(warmed.access_index_built() && !lazy.access_index_built());
        assert!(warmed.pyramid_memory_bytes() > 0);
        let pyramid_overhead =
            warmed.pyramid_memory_bytes() as f64 / trace.aos_event_bytes() as f64;
        assert!(
            pyramid_overhead < 0.15,
            "pyramid overhead {pyramid_overhead} must stay below 15 %"
        );
        let bounds = lazy.time_bounds();
        for desc in trace.counters() {
            for cpu in trace.topology().cpu_ids() {
                assert_eq!(
                    lazy.counter_min_max(cpu, desc.id, bounds),
                    warmed.counter_min_max(cpu, desc.id, bounds),
                );
            }
        }
        assert_eq!(lazy.index_memory_bytes(), warmed.index_memory_bytes());
    }

    #[test]
    fn out_of_range_counter_id_cannot_alias_another_shard() {
        use aftermath_trace::{MachineTopology, Timestamp, TraceBuilder};
        // The builder does not validate counter ids, so samples can be recorded
        // under an id outside the description table. Such a pair must index its own
        // stream — never share or poison another pair's shard (a dense
        // `cpu * num_counters + counter` table would alias this onto (CPU 1, c0)).
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
        let c0 = b.add_counter("real", true);
        let _c1 = b.add_counter("other", true);
        let rogue = CounterId(2);
        b.add_sample(rogue, CpuId(0), Timestamp(0), 1_000.0)
            .unwrap();
        b.add_sample(rogue, CpuId(0), Timestamp(10), 2_000.0)
            .unwrap();
        b.add_sample(c0, CpuId(1), Timestamp(0), 1.0).unwrap();
        b.add_sample(c0, CpuId(1), Timestamp(10), 2.0).unwrap();
        let trace = b.finish().unwrap();
        let session = AnalysisSession::new(&trace);
        let bounds = TimeInterval::from_cycles(0, 11);
        assert_eq!(
            session.counter_min_max(CpuId(0), rogue, bounds),
            Some((1_000.0, 2_000.0)),
            "rogue pair answers from its own samples"
        );
        session.prewarm(Threads::single());
        assert_eq!(
            session.counter_min_max(CpuId(1), c0, bounds),
            Some((1.0, 2.0)),
            "registered pair is unaffected by the rogue shard"
        );
    }

    #[test]
    fn unknown_ids_build_no_shard() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        assert!(session
            .counter_min_max(CpuId(999), CounterId(0), bounds)
            .is_none());
        assert!(session
            .counter_min_max(CpuId(0), CounterId(999), bounds)
            .is_none());
        assert_eq!(session.built_counter_indexes(), 0);
    }

    #[test]
    fn state_seeds_only_usable_lanes() {
        use aftermath_trace::store::{
            write_store_bytes, LaneRequest, LaneResidency, StoreOptions, StoredTrace,
        };
        let bytes = write_store_bytes(&small_sim_trace(), &StoreOptions::default()).unwrap();
        let mut stored = StoredTrace::from_bytes(bytes).unwrap();
        let everything: Vec<LaneRequest> = stored.lanes().map(LaneRequest::Full).collect();
        stored.ensure_batch(&everything).unwrap();
        fn full(stored: &StoredTrace) -> impl Fn(LaneId) -> bool + '_ {
            |lane| stored.residency(lane) == LaneResidency::Full
        }
        // Index, pyramid and access-index builds.
        let counts = |state: &SessionState| {
            let counters = [
                &state.index_builds,
                &state.pyramid_builds,
                &state.access_index_builds,
            ];
            counters.map(|counter| counter.load(Ordering::Relaxed) as usize)
        };
        let state = SessionState::of(stored.trace());
        state
            .view(stored.trace(), None, full(&stored))
            .prewarm(Threads::single());
        let access_index: *const AccessIndex = state.access_index.get().unwrap();
        let pyramid: *const StatePyramid = state.pyramids[0].get().unwrap();
        let indexes = state.indexes.len();
        let pyramids = state.pyramids.iter().filter(|p| p.get().is_some()).count();
        assert!(indexes > 0 && pyramids > 1);
        assert_eq!(counts(&state), [indexes, pyramids, 1]);

        // Without CPU 0's states and the access table, a view gets neither that
        // CPU's pyramid nor the access index; both stay kept.
        stored.evict(LaneId::States(CpuId(0)));
        stored.evict(LaneId::Accesses);
        let partial = state.view(stored.trace(), None, full(&stored));
        assert!(partial.pyramid(CpuId(0)).is_none() && partial.pyramid(CpuId(1)).is_some());
        assert!(!partial.access_index_built());
        assert_eq!(partial.built_counter_indexes(), indexes);
        assert_eq!(counts(&state), [indexes, pyramids, 1]);
        assert!(std::ptr::eq(state.pyramids[0].get().unwrap(), pyramid));
        assert!(std::ptr::eq(
            state.access_index.get().unwrap(),
            access_index
        ));

        // Once the lanes are back, so are the shards — read again, not rebuilt.
        let back = [LaneId::States(CpuId(0)), LaneId::Accesses].map(LaneRequest::Full);
        stored.ensure_batch(&back).unwrap();
        let whole = state.view(stored.trace(), None, full(&stored));
        assert!(std::ptr::eq(whole.pyramid(CpuId(0)).unwrap(), pyramid));
        assert!(std::ptr::eq(whole.access_index(), access_index));
        assert_eq!(counts(&state), [indexes, pyramids, 1]);
    }

    #[test]
    fn shared_cache_single_flight_computes_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache: SharedCache<u64, u64> = SharedCache::new(4);
        let computed = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let v = cache
                        .get_or_compute(&1, || -> Result<u64, ()> {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Long enough that every other thread reaches the
                            // cache while this computation is in flight.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(42)
                        })
                        .unwrap();
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "concurrent misses on one key must share a single computation"
        );
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (7, 1), "waiters count as hits");
    }

    #[test]
    fn shared_cache_failed_compute_is_not_cached() {
        let cache: SharedCache<u64, u64> = SharedCache::new(4);
        let err = cache.get_or_compute(&1, || Err::<u64, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // The failure must have cleared the in-flight marker: a retry computes
        // (it does not deadlock) and succeeds.
        let v = cache.get_or_compute(&1, || Ok::<u64, &str>(7)).unwrap();
        assert_eq!(*v, 7);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 2));
    }

    #[test]
    fn shared_cache_computes_a_key_unequal_to_itself_every_time_and_strands_no_one() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;
        let cache = Arc::new(SharedCache::<f64, u64>::new(4));
        let computed = Arc::new(AtomicUsize::new(0));
        // Eight callers of `key` at once, each compute slow enough that the
        // others arrive while it is in flight. The callers are not scoped
        // threads: a stranded one fails the test on the timeout instead of
        // hanging it, and is joined only once all have answered.
        let race = |key: f64| {
            let (done, answers) = mpsc::channel();
            let barrier = Arc::new(Barrier::new(8));
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, computed) = (Arc::clone(&cache), Arc::clone(&computed));
                    let (done, barrier) = (done.clone(), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        let value = cache.get_or_compute(&key, || -> Result<u64, ()> {
                            computed.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            Ok(42)
                        });
                        done.send(*value.unwrap()).unwrap();
                    })
                })
                .collect();
            for _ in 0..8 {
                let answer = answers.recv_timeout(Duration::from_secs(30));
                assert_eq!(answer, Ok(42), "every concurrent caller returns");
            }
            callers.into_iter().for_each(|c| c.join().unwrap());
        };
        let settled = |cache: &SharedCache<f64, u64>| {
            let state = cache.state.lock().unwrap();
            assert!(state.in_flight.is_empty(), "no marker is left behind");
            assert!(state.entries.len() <= state.capacity);
        };

        for _ in 0..3 {
            let value = cache.get_or_compute(&f64::NAN, || {
                computed.fetch_add(1, Ordering::SeqCst);
                Ok::<u64, ()>(7)
            });
            assert_eq!(*value.unwrap(), 7);
        }
        assert_eq!(computed.load(Ordering::SeqCst), 3, "NaN is never a hit");
        settled(&cache);

        race(f64::NAN);
        assert_eq!(computed.load(Ordering::SeqCst), 3 + 8);
        settled(&cache);

        let before = cache.stats();
        race(1.0);
        assert_eq!(
            computed.load(Ordering::SeqCst),
            3 + 8 + 1,
            "1.0 single-flights"
        );
        let after = cache.stats();
        assert_eq!((after.0 - before.0, after.1 - before.1), (7, 1));
        settled(&cache);
    }

    #[test]
    fn anomaly_cache_eviction_is_lru_not_insertion_order() {
        use crate::anomaly::AnomalyConfig;
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        // Disable all detectors so each configuration is cheap; vary `max_anomalies`
        // to get distinct cache keys.
        let config_nr = |n: usize| AnomalyConfig {
            max_anomalies: n,
            ..AnomalyConfig::none()
        };
        let capacity = AnalysisSession::ANOMALY_CACHE_CAPACITY;
        let reports: Vec<_> = (0..capacity)
            .map(|i| session.detect_anomalies(&config_nr(i + 1)).unwrap())
            .collect();
        // Touch the *oldest* entry, then insert one more configuration. Insertion-order
        // eviction would drop the touched entry; LRU must drop the second-oldest.
        let touched = session.detect_anomalies(&config_nr(1)).unwrap();
        assert!(Arc::ptr_eq(&touched, &reports[0]), "touch must be a hit");
        session.detect_anomalies(&config_nr(capacity + 1)).unwrap();
        let again = session.detect_anomalies(&config_nr(1)).unwrap();
        assert!(
            Arc::ptr_eq(&again, &reports[0]),
            "re-read entry must survive eviction"
        );
        let second = session.detect_anomalies(&config_nr(2)).unwrap();
        assert!(
            !Arc::ptr_eq(&second, &reports[1]),
            "least recently used entry must have been evicted"
        );
    }

    #[test]
    fn timeline_cache_returns_shared_models_per_viewport() {
        use crate::timeline::{TimelineEngine, TimelineMode, TimelineModel};
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let a = session.timeline(TimelineMode::State, bounds, 64).unwrap();
        let b = session.timeline(TimelineMode::State, bounds, 64).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same viewport must be a cache hit");
        let fresh = TimelineModel::build_with_engine(
            &session,
            TimelineMode::State,
            bounds,
            64,
            &TaskFilter::new(),
            TimelineEngine::Scan,
        )
        .unwrap();
        assert_eq!(*a, fresh, "cached model must equal a fresh scan build");
        // A different filter is a different key.
        let ty = trace.task_types()[0].id;
        let filtered = session
            .timeline_filtered(
                TimelineMode::TaskType,
                bounds,
                64,
                &TaskFilter::new().with_task_type(ty),
            )
            .unwrap();
        let unfiltered = session
            .timeline_filtered(TimelineMode::TaskType, bounds, 64, &TaskFilter::new())
            .unwrap();
        assert!(!Arc::ptr_eq(&filtered, &unfiltered));
        assert!(session.timeline(TimelineMode::State, bounds, 0).is_err());
    }

    #[test]
    fn interval_query_aggregates_match_naive_scans() {
        use aftermath_trace::AccessKind;
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let mid = TimeInterval::from_cycles(
            bounds.start.0 + bounds.duration() / 5,
            bounds.end.0 - bounds.duration() / 3,
        );
        for iv in [bounds, mid] {
            let q = session.query(iv);
            for cpu in trace.topology().cpu_ids() {
                let states = session.states_in(cpu, iv);
                // State cycles: clipped sums per state.
                let mut cycles = [0u64; aftermath_trace::WorkerState::COUNT];
                for s in states {
                    cycles[s.state.index()] += s.interval.overlap_cycles(&iv);
                }
                assert_eq!(q.state_cycles(cpu), cycles, "{cpu} {iv}");
                // Exec stats: full durations of overlapping execution intervals.
                let execs: Vec<u64> = states
                    .iter()
                    .filter(|s| s.state == aftermath_trace::WorkerState::TaskExecution)
                    .map(|s| s.duration())
                    .collect();
                let stats = q.exec_stats(cpu);
                assert_eq!(stats.count as usize, execs.len());
                assert_eq!(stats.max_cycles, execs.iter().copied().max().unwrap_or(0));
                assert_eq!(stats.min_cycles, execs.iter().copied().min().unwrap_or(0));
                // Type cycles sum to the clipped execution cycles of typed tasks.
                let typed: u64 = q.task_type_cycles(cpu).iter().map(|&(_, c)| c).sum();
                let exec_clipped: u64 = states
                    .iter()
                    .filter(|s| {
                        s.state == aftermath_trace::WorkerState::TaskExecution
                            && s.task
                                .is_some_and(|id| trace.tasks().get(id.0 as usize).is_some())
                    })
                    .map(|s| s.interval.overlap_cycles(&iv))
                    .sum();
                assert_eq!(typed, exec_clipped);
                // NUMA bytes: per-interval attribution of the tasks' accesses.
                let mut read_total = 0u64;
                for s in states {
                    if s.state != aftermath_trace::WorkerState::TaskExecution {
                        continue;
                    }
                    let Some(task) = s.task.and_then(|id| trace.tasks().get(id.0 as usize)) else {
                        continue;
                    };
                    for a in trace.accesses_of_task(task.id) {
                        if a.kind == AccessKind::Read && trace.node_of_addr(a.addr).is_some() {
                            read_total += a.size;
                        }
                    }
                }
                let q_read: u64 = q
                    .numa_bytes(cpu, AccessKind::Read)
                    .iter()
                    .map(|x| x.1)
                    .sum();
                assert_eq!(q_read, read_total);
            }
        }
    }

    #[test]
    fn counter_average_matches_sample_mean() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("branch-mispredictions").unwrap();
        let bounds = session.time_bounds();
        for cpu in trace.topology().cpu_ids() {
            let samples = session.samples_in(cpu, counter, bounds);
            let expected = if samples.is_empty() {
                None
            } else {
                Some(samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64)
            };
            let got = session.counter_average(cpu, counter, bounds);
            match (got, expected) {
                (None, None) => {}
                (Some(g), Some(e)) => assert!((g - e).abs() < 1e-9 * (1.0 + e.abs())),
                other => panic!("mismatch on {cpu}: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_counter_name_is_error() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        assert!(session.counter_id("no-such-counter").is_err());
    }

    #[test]
    fn sessions_carry_lint_summaries() {
        let trace = small_sim_trace();
        let plain = AnalysisSession::new(&trace);
        assert!(plain.lint_summary().is_none(), "never linted");
        let annotated = trace.repair().expect("clean trace repairs trivially");
        let session = AnalysisSession::from_annotated(&annotated);
        let summary = session.lint_summary().expect("linted trace has a summary");
        assert!(summary.is_clean(), "simulated traces lint clean");
        let mut dirty = LintSummary::new();
        dirty.record(aftermath_trace::LintCode::UnclosedInterval);
        let session = AnalysisSession::new(&trace).with_lint_summary(dirty.clone());
        assert_eq!(session.lint_summary(), Some(&dirty));
    }
}
