//! The analysis session: an indexed view over a loaded trace.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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
use crate::timeline::{EngineDecision, TimelineEngine, TimelineMode, TimelineModel};

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
    /// Lazily built counter min/max indexes: one shard per `(CPU, counter)` pair
    /// that actually has samples. Keying by the exact pair (instead of a dense
    /// `cpu × counter` table) keeps session open cost proportional to the data —
    /// a sparse trace on a many-CPU, many-counter machine allocates one slot per
    /// present pair, not the full cross product. Shards are `Arc`s so an owner's
    /// `SessionState` seeds a view without copying them.
    counter_shards: HashMap<(CpuId, CounterId), OnceLock<Arc<CounterIndex>>>,
    /// Lazily built multi-resolution state pyramids, one per CPU with a non-empty
    /// state stream ([`crate::pyramid`]); built on first timeline/interval query or
    /// all at once by [`AnalysisSession::prewarm`].
    pyramids: Vec<OnceLock<Arc<StatePyramid>>>,
    task_graph: OnceLock<TaskGraph>,
    /// The result caches and the access index: the state a longer-lived owner
    /// shares with every view it hands out.
    handles: SessionHandles,
    /// Ordered log of the frames built with the default engine
    /// ([`AnalysisSession::engine_decisions`]).
    engine_log: Mutex<Vec<EngineDecision>>,
    /// The lint summary of the trace this session analyses, when it went through
    /// the lint pipeline ([`aftermath_trace::lint`]). `None` means "never
    /// linted" — an empty summary means "linted and clean".
    lint: Option<LintSummary>,
    /// Thread budget of [`AnalysisSession::detect_anomalies`]. Single, unless the
    /// owner knows the other cores are idle: a [`crate::StoreSession`] answers one
    /// request at a time and hands its views the store's budget.
    pub(crate) scan_threads: Threads,
    /// What `SessionState::view` put into this view, for `SessionState::absorb`.
    seeded: Seeded,
}

/// What a view was seeded with: the owner's counters tell re-use from building.
#[derive(Debug, Clone, Copy, Default)]
struct Seeded {
    indexes: usize,
    pyramids: usize,
    access_index: bool,
}

/// The shareable, internally synchronised state of a session. A batch session owns
/// its handles exclusively; a [`SessionState`] keeps one set and clones it into
/// every view it hands out, so views share results.
#[derive(Debug, Clone)]
struct SessionHandles {
    /// Ranked anomaly reports per configuration.
    anomaly_cache: Arc<SharedCache<AnomalyConfig, AnomalyReport>>,
    /// Timeline models per viewport.
    timeline_cache: Arc<SharedCache<TimelineKey, TimelineModel>>,
    /// The access index ([`crate::access_index`]), built on first use — by
    /// [`AnalysisSession::prewarm`], a pyramid build, a NUMA-mode frame or a
    /// whole-trace NUMA analysis — over the task and access tables as they are
    /// then.
    access_index: Arc<OnceLock<AccessIndex>>,
}

impl SessionHandles {
    /// Empty caches at the session's default capacities, nothing indexed yet.
    fn new() -> Self {
        SessionHandles {
            anomaly_cache: Arc::new(SharedCache::new(AnalysisSession::ANOMALY_CACHE_CAPACITY)),
            timeline_cache: Arc::new(SharedCache::new(AnalysisSession::TIMELINE_CACHE_CAPACITY)),
            access_index: Arc::new(OnceLock::new()),
        }
    }
}

/// What one request reads: the single input to a store's lane plan
/// ([`crate::StoreSession::with_view`]) and to the coverage rule of a salvaged
/// one ([`crate::SalvageCoverage::allows`]). Owners whose trace is always whole
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// No event data (metadata, the lint summary).
    Nothing,
    /// One timeline frame.
    Frame {
        /// The frame's mode: task-based modes read the task table, NUMA modes
        /// the access table too.
        mode: TimelineMode,
        /// The visible interval.
        interval: TimeInterval,
        /// The scan engine reads only the block runs overlapping `interval`;
        /// the others read whole lanes and keep pyramids over them.
        engine: TimelineEngine,
    },
    /// Interval-query aggregates over every table.
    Query {
        /// The queried window.
        interval: TimeInterval,
    },
    /// A whole-trace scan (anomaly detection, drill-in).
    WholeTrace,
}

/// What every long-lived owner of a trace — [`crate::SharedSession`],
/// [`crate::StoreSession`], [`crate::live::LiveSession`] — keeps between the
/// [`AnalysisSession`] views it hands out: the index shards built so far, the
/// result caches and access index every view shares, and counters of what was
/// built and what was re-used.
///
/// Shards hold absolute row indices into their lane, so [`SessionState::view`]
/// seeds a shard only while the owner calls its lane `usable` (a store: fully
/// resident) and [`SessionState::absorb`] keeps only shards built over usable
/// lanes; a kept shard survives its lane becoming unusable and is seeded again
/// once the lane is back. The access index follows the same rule over its two
/// lanes, tasks and accesses.
#[derive(Debug)]
pub(crate) struct SessionState {
    /// Counter indexes by `(CPU, counter)`; a live session maintains them in place.
    pub(crate) indexes: HashMap<(CpuId, CounterId), Arc<CounterIndex>>,
    /// State pyramids by CPU id (see `indexes`).
    pub(crate) pyramids: HashMap<u32, Arc<StatePyramid>>,
    handles: SessionHandles,
    /// Pyramids views built — over usable lanes (kept), or throwaways over others.
    pub(crate) pyramid_builds: u64,
    /// Counter indexes views built (see `pyramid_builds`).
    pub(crate) index_builds: u64,
    /// Access indexes views built (see `pyramid_builds`).
    pub(crate) access_index_builds: u64,
    /// Kept shards handed to a view instead of being rebuilt.
    pub(crate) shards_reseeded: u64,
}

impl SessionState {
    /// Nothing built, empty caches.
    pub(crate) fn new() -> Self {
        SessionState {
            indexes: HashMap::new(),
            pyramids: HashMap::new(),
            handles: SessionHandles::new(),
            pyramid_builds: 0,
            index_builds: 0,
            access_index_builds: 0,
            shards_reseeded: 0,
        }
    }

    /// A view over `trace` sharing the result caches, seeded with every kept
    /// shard whose lane is `usable`, and with the kept access
    /// index while `Tasks` and `Accesses` both are (an empty throwaway slot
    /// otherwise). Costs `O(kept shards)` `Arc` clones; whatever is not seeded
    /// stays lazy exactly like in [`AnalysisSession::new`].
    pub(crate) fn view<'t>(
        &self,
        trace: &'t Trace,
        lint: Option<&LintSummary>,
        usable: impl Fn(LaneId) -> bool,
    ) -> AnalysisSession<'t> {
        let mut handles = self.handles.clone();
        if !(usable(LaneId::Tasks) && usable(LaneId::Accesses)) {
            handles.access_index = Arc::default();
        }
        let indexes = self
            .indexes
            .iter()
            .filter(|(&(cpu, counter), _)| usable(LaneId::Samples(cpu, counter)));
        let pyramids = self
            .pyramids
            .iter()
            .filter(|(&cpu, _)| usable(LaneId::States(CpuId(cpu))));
        let mut view = AnalysisSession::with_prebuilt(trace, indexes, pyramids, handles);
        view.lint = lint.cloned();
        view
    }

    /// Keeps what `view` built over `usable` lanes and counts what it built and
    /// what it was handed.
    pub(crate) fn absorb(&mut self, view: &AnalysisSession<'_>, usable: impl Fn(LaneId) -> bool) {
        let (indexes, pyramids) = view.built_shards();
        let seeded = view.seeded;
        self.shards_reseeded += (seeded.indexes + seeded.pyramids) as u64;
        self.index_builds += indexes.len().saturating_sub(seeded.indexes) as u64;
        self.pyramid_builds += pyramids.len().saturating_sub(seeded.pyramids) as u64;
        self.access_index_builds += u64::from(!seeded.access_index && view.access_index_built());
        self.indexes.extend(
            indexes
                .into_iter()
                .filter(|&((cpu, counter), _)| usable(LaneId::Samples(cpu, counter))),
        );
        self.pyramids.extend(
            pyramids
                .into_iter()
                .filter(|&(cpu, _)| usable(LaneId::States(CpuId(cpu)))),
        );
    }

    /// Bytes of every kept counter index and pyramid and the kept access index.
    pub(crate) fn memory_bytes(&self) -> usize {
        let indexes: usize = self.indexes.values().map(|i| i.memory_bytes()).sum();
        let pyramids: usize = self.pyramids.values().map(|p| p.memory_bytes()).sum();
        let access_index = self.handles.access_index.get();
        indexes + pyramids + access_index.map_or(0, |index| index.memory_bytes())
    }

    /// Combined hit/miss totals of the timeline-model and anomaly-report caches,
    /// accumulated across every view.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let (th, tm) = self.handles.timeline_cache.stats();
        let (ah, am) = self.handles.anomaly_cache.stats();
        CacheStats {
            hits: th + ah,
            misses: tm + am,
        }
    }

    /// Forgets everything derived from the trace's data — cached results and the
    /// access index — when a live epoch appends to it. The shards are the live
    /// session's to maintain.
    pub(crate) fn invalidate_data(&mut self) {
        self.handles = SessionHandles::new();
    }
}

/// Cache key of one timeline-model computation: everything the model depends on.
type TimelineKey = (TimelineMode, TimeInterval, usize, TaskFilter);

/// Every counter-index shard and state pyramid a view has built so far, as
/// [`SessionState::absorb`] harvests them. (The access index needs no harvest: its
/// slot is one of the [`SessionHandles`].)
type BuiltShards = (
    HashMap<(CpuId, CounterId), Arc<CounterIndex>>,
    HashMap<u32, Arc<StatePyramid>>,
);

fn timeline_cache_key(key: &TimelineKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.0.hash(&mut h);
    key.1.hash(&mut h);
    key.2.hash(&mut h);
    key.3.hash_into(&mut h);
    h.finish()
}

/// Bounded LRU cache keyed by a 64-bit digest.
///
/// Entries store the full key `K` so a (vanishingly unlikely) 64-bit hash collision
/// is detected by equality instead of silently returning another key's value.
/// `order` is kept in least-recently-*used* order: a cache hit moves its key to the
/// back, so an entry a front-end keeps re-querying survives eviction even while
/// e.g. a parameter sweep churns through many one-shot entries. Shared by the
/// anomaly-report cache and the timeline-model cache.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<u64, (K, Arc<V>)>,
    order: VecDeque<u64>,
    /// Digests whose value is being computed right now by some thread (the
    /// single-flight set of [`SharedCache::get_or_compute`]).
    in_flight: std::collections::HashSet<u64>,
    /// Lifetime counters of [`SharedCache::get_or_compute`] outcomes. They
    /// live in the cache (not the session) so every session view sharing one
    /// handle — e.g. all clients of one served trace — accumulates into the
    /// same numbers, which is exactly the cross-client sharing the serve
    /// bench reports.
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, V> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            in_flight: std::collections::HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, digest: u64, key: &K) -> Option<Arc<V>> {
        let value = self
            .map
            .get(&digest)
            .filter(|(cached, _)| cached == key)
            .map(|(_, value)| Arc::clone(value))?;
        // Touch on hit: this key is now the most recently used.
        if let Some(pos) = self.order.iter().position(|k| *k == digest) {
            self.order.remove(pos);
            self.order.push_back(digest);
        }
        Some(value)
    }

    /// Inserts `value` unless another thread inserted the same key concurrently, in
    /// which case the incumbent is returned; evicts least-recently-used entries to
    /// stay within capacity.
    fn insert(&mut self, digest: u64, key: K, value: Arc<V>) -> Arc<V> {
        if let Some(existing) = self.get(digest, &key) {
            return existing;
        }
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
        if self.map.insert(digest, (key, Arc::clone(&value))).is_none() {
            self.order.push_back(digest);
        }
        value
    }
}

/// A concurrency-safe, **single-flight** [`LruCache`]: when several threads
/// miss on the same key at once, exactly one computes the value while the
/// others block on a condvar and then share the result.
///
/// Without this, N clients of one shared trace requesting the same expensive
/// result (an anomaly report over millions of events, a cold timeline frame)
/// would each recompute it on a concurrent miss — the duplicated work grows
/// linearly with the client count and dominates tail latency under load,
/// which is exactly the situation the multi-session server exists to avoid.
///
/// Accounting: one logical query counts exactly once — a **miss** for the
/// thread that computes, a **hit** for every thread that receives a value
/// someone else produced (whether it was cached before the call or computed
/// while the caller waited).
#[derive(Debug)]
pub(crate) struct SharedCache<K, V> {
    state: Mutex<LruCache<K, V>>,
    wakeup: Condvar,
}

/// Clears an in-flight marker and wakes the waiters when dropped, so a
/// `compute` that fails — or unwinds — can never strand the threads waiting
/// on its digest.
struct FlightGuard<'c, K: PartialEq, V> {
    cache: &'c SharedCache<K, V>,
    digest: u64,
}

impl<K: PartialEq, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.cache.state.lock().unwrap();
        state.in_flight.remove(&self.digest);
        drop(state);
        self.cache.wakeup.notify_all();
    }
}

impl<K: PartialEq + Clone, V> SharedCache<K, V> {
    fn new(capacity: usize) -> Self {
        SharedCache {
            state: Mutex::new(LruCache::new(capacity)),
            wakeup: Condvar::new(),
        }
    }

    /// Lifetime `(hits, misses)` of the [`SharedCache::get_or_compute`] path.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap();
        (state.hits, state.misses)
    }

    /// Returns the cached value for `key`, or runs `compute` to produce it —
    /// at most once across concurrent callers of the same `digest`.
    ///
    /// `compute` runs outside the cache lock, so slow computations on
    /// distinct keys proceed in parallel. A failing `compute` propagates its
    /// error to the computing caller; waiters simply retry (one of them
    /// becomes the next computer).
    pub(crate) fn get_or_compute<E>(
        &self,
        digest: u64,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(value) = state.get(digest, key) {
                state.hits += 1;
                return Ok(value);
            }
            if state.in_flight.insert(digest) {
                state.misses += 1;
                break;
            }
            state = self.wakeup.wait(state).unwrap();
        }
        drop(state);
        let flight = FlightGuard {
            cache: self,
            digest,
        };
        let value = compute()?;
        let value = self
            .state
            .lock()
            .unwrap()
            .insert(digest, key.clone(), Arc::new(value));
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
        Self::with_handles(trace, SessionHandles::new())
    }

    /// Like [`AnalysisSession::new`] but sharing an owner's handles.
    fn with_handles(trace: &'t Trace, handles: SessionHandles) -> Self {
        // One empty slot per (CPU, counter) pair that has samples; the indexes
        // themselves are built on first touch.
        let counter_shards = trace
            .per_cpu()
            .iter()
            .enumerate()
            .flat_map(|(cpu, pc)| {
                pc.sample_streams()
                    .filter(|(_, samples)| !samples.is_empty())
                    .map(move |(counter, _)| ((CpuId(cpu as u32), counter), OnceLock::new()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let pyramids = trace.per_cpu().iter().map(|_| OnceLock::new()).collect();
        AnalysisSession {
            trace,
            counter_shards,
            pyramids,
            task_graph: OnceLock::new(),
            handles,
            engine_log: Mutex::new(Vec::new()),
            lint: None,
            scan_threads: Threads::single(),
            seeded: Seeded::default(),
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

    /// [`AnalysisSession::with_handles`] with the given shards already in their
    /// slots: no index is copied or rebuilt.
    fn with_prebuilt<'a>(
        trace: &'t Trace,
        indexes: impl Iterator<Item = (&'a (CpuId, CounterId), &'a Arc<CounterIndex>)>,
        pyramids: impl Iterator<Item = (&'a u32, &'a Arc<StatePyramid>)>,
        handles: SessionHandles,
    ) -> Self {
        let mut session = Self::with_handles(trace, handles);
        session.seeded.access_index = session.access_index_built();
        for (key, index) in indexes {
            if let Some(slot) = session.counter_shards.get(key) {
                session.seeded.indexes += usize::from(slot.set(Arc::clone(index)).is_ok());
            }
        }
        for (&cpu, pyramid) in pyramids {
            if let Some(slot) = session.pyramids.get(cpu as usize) {
                session.seeded.pyramids += usize::from(slot.set(Arc::clone(pyramid)).is_ok());
            }
        }
        session
    }

    /// Every index shard built **so far** — the inverse of
    /// [`AnalysisSession::with_prebuilt`], `O(built shards)` `Arc` clones.
    fn built_shards(&self) -> BuiltShards {
        let indexes = self
            .counter_shards
            .iter()
            .filter_map(|(&key, slot)| Some((key, Arc::clone(slot.get()?))))
            .collect();
        let pyramids = self
            .pyramids
            .iter()
            .enumerate()
            .filter_map(|(cpu, slot)| Some((cpu as u32, Arc::clone(slot.get()?))))
            .collect();
        (indexes, pyramids)
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
        let slot = self.counter_shards.get(&(cpu, counter))?;
        let samples = self.samples(cpu, counter);
        debug_assert!(
            !samples.is_empty(),
            "shard slots exist only for sampled pairs"
        );
        let index = slot.get_or_init(|| Arc::new(CounterIndex::new(samples)));
        Some((index.as_ref(), samples))
    }

    /// The multi-resolution state pyramid of one CPU, built on first touch
    /// ([`crate::pyramid::StatePyramid`]). `None` for an unknown CPU or a CPU
    /// without state intervals.
    pub fn pyramid(&self, cpu: CpuId) -> Option<&StatePyramid> {
        let slot = self.pyramids.get(cpu.0 as usize)?;
        let states = self.states(cpu);
        if states.is_empty() {
            return None;
        }
        Some(
            slot.get_or_init(|| {
                Arc::new(StatePyramid::build_from(
                    self.trace,
                    &self.accesses(),
                    states,
                    DEFAULT_PYRAMID_FANOUT,
                ))
            })
            .as_ref(),
        )
    }

    /// The access index of this session's trace ([`crate::access_index`]), built
    /// on first use in one linear pass over the access table.
    pub fn access_index(&self) -> &AccessIndex {
        self.handles
            .access_index
            .get_or_init(|| AccessIndex::build(self.trace))
    }

    /// Whether the access index has been built (diagnostics).
    pub fn access_index_built(&self) -> bool {
        self.handles.access_index.get().is_some()
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

    /// One entry per [`TimelineEngine::Adaptive`] (default-engine) frame actually
    /// built on this session, in build order (cache hits in
    /// [`AnalysisSession::timeline_filtered`] build no frame and log nothing):
    /// whether any of its cells read pyramid nodes, or all were reduced by the scan.
    pub fn engine_decisions(&self) -> Vec<EngineDecision> {
        self.engine_log.lock().expect("engine log poisoned").clone()
    }

    /// Builds every not-yet-built index shard — the access index, then counter
    /// min/max/sum indexes *and* per-CPU state pyramids in parallel on up to
    /// `threads` workers — and returns the total number of built shards.
    ///
    /// An interactive front-end calls this right after loading a trace so that every
    /// later [`counter_min_max`](Self::counter_min_max) or timeline query is answered
    /// from a warm index. The shards are independent [`OnceLock`]s, so prewarming may
    /// race with concurrent queries without ever duplicating or tearing an index.
    pub fn prewarm(&self, threads: Threads) -> usize {
        self.access_index();
        1 + self.prewarm_lanes(threads, |_| true)
    }

    /// The per-lane half of [`AnalysisSession::prewarm`], restricted to the
    /// shards whose backing lane — [`LaneId::Samples`] for a counter index,
    /// [`LaneId::States`] for a pyramid — `wanted` accepts: a
    /// [`crate::StoreSession`] wants only the fully resident ones.
    ///
    /// The access index is not a per-lane shard and is not built ahead here: the
    /// first pyramid build reads through it and builds it (the other workers wait
    /// on its [`OnceLock`]), and a store session that only ever serves state,
    /// heatmap or typemap frames from persisted pyramids never pays for it.
    pub(crate) fn prewarm_lanes(&self, threads: Threads, wanted: impl Fn(LaneId) -> bool) -> usize {
        let lanes: Vec<LaneId> = self
            .counter_shards
            .keys()
            .map(|&(cpu, counter)| LaneId::Samples(cpu, counter))
            .chain((0..self.pyramids.len()).map(|cpu| LaneId::States(CpuId(cpu as u32))))
            .filter(|&lane| wanted(lane))
            .collect();
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
        self.counter_shards
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
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
        self.detect_anomalies_with(config, self.scan_threads)
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
        let key = config.cache_key();
        // Single-flight: concurrent callers with the same configuration share
        // one detection pass instead of each scanning the trace.
        self.handles.anomaly_cache.get_or_compute(key, config, || {
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
        let digest = timeline_cache_key(&key);
        self.handles
            .timeline_cache
            .get_or_compute(digest, &key, || {
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
        self.counter_shards
            .values()
            .filter_map(|slot| slot.get())
            .map(|i| i.memory_bytes())
            .sum()
    }

    /// Ratio of index memory to raw counter-sample memory (the paper reports
    /// ≤ 5 %). Like [`raw_event_bytes`](Self::raw_event_bytes), the denominator
    /// is the struct-equivalent sample size, fixed across storage engines so the
    /// ratio stays comparable with earlier (pre-columnar) measurements.
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
        self.pyramids
            .iter()
            .filter_map(|slot| slot.get())
            .map(|p| p.memory_bytes())
            .sum()
    }

    /// Size of the recorded event data in the pre-columnar array-of-structs layout
    /// ([`Trace::aos_event_bytes`]): the fixed, layout-independent baseline the
    /// pyramid overhead is measured against (so the ratio is comparable across
    /// storage engines). See [`resident_trace_bytes`](Self::resident_trace_bytes)
    /// for the memory the columnar store actually occupies.
    pub fn raw_event_bytes(&self) -> usize {
        self.trace.aos_event_bytes()
    }

    /// Bytes of heap memory actually resident for the trace's event data in the
    /// columnar storage engine ([`Trace::resident_event_bytes`]).
    pub fn resident_trace_bytes(&self) -> usize {
        self.trace.resident_event_bytes()
    }

    /// Ratio of pyramid memory (built so far) to the raw event data it summarises.
    ///
    /// With the default fanout this stays well below 15 % — the geometric level sum
    /// is `n / (fanout - 1)` nodes over `n` intervals.
    pub fn pyramid_overhead_ratio(&self) -> f64 {
        let raw = self.raw_event_bytes();
        if raw == 0 {
            return 0.0;
        }
        self.pyramid_memory_bytes() as f64 / raw as f64
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
        assert!(
            warmed.pyramid_overhead_ratio() < 0.15,
            "pyramid overhead {} must stay below 15 %",
            warmed.pyramid_overhead_ratio()
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
    fn state_seeds_only_usable_lanes_and_counts_what_it_reuses() {
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
        let mut state = SessionState::new();
        let warm = state.view(stored.trace(), None, full(&stored));
        warm.prewarm(Threads::single());
        state.absorb(&warm, full(&stored));
        let access_index: *const AccessIndex = warm.access_index();
        let (indexes, pyramids) = (state.indexes.len(), state.pyramids.len());
        assert!(indexes > 0 && pyramids > 1);
        assert_eq!(
            (state.index_builds, state.pyramid_builds),
            (indexes as u64, pyramids as u64)
        );
        assert_eq!((state.access_index_builds, state.shards_reseeded), (1, 0));

        // Without CPU 0's states and the access table, a view gets neither that
        // CPU's pyramid nor the access index; both stay kept.
        stored.evict(LaneId::States(CpuId(0)));
        stored.evict(LaneId::Accesses);
        let partial = state.view(stored.trace(), None, full(&stored));
        assert!(partial.pyramids[0].get().is_none() && partial.pyramids[1].get().is_some());
        assert!(!partial.access_index_built());
        assert_eq!(partial.built_counter_indexes(), indexes);
        state.absorb(&partial, full(&stored));
        assert_eq!(state.shards_reseeded, (indexes + pyramids - 1) as u64);
        assert_eq!(state.pyramids.len(), pyramids);

        // Once the lanes are back, so are the shards — seeded, not rebuilt.
        let back = [LaneId::States(CpuId(0)), LaneId::Accesses].map(LaneRequest::Full);
        stored.ensure_batch(&back).unwrap();
        let whole = state.view(stored.trace(), None, full(&stored));
        assert!(Arc::ptr_eq(
            whole.pyramids[0].get().unwrap(),
            &state.pyramids[&0]
        ));
        assert!(std::ptr::eq(whole.access_index(), access_index));
        state.absorb(&whole, full(&stored));
        assert_eq!(state.shards_reseeded, (2 * (indexes + pyramids) - 1) as u64);
        assert_eq!(
            (state.index_builds, state.pyramid_builds),
            (indexes as u64, pyramids as u64)
        );
        assert_eq!(state.access_index_builds, 1);
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
                        .get_or_compute(1, &1, || -> Result<u64, ()> {
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
        let err = cache.get_or_compute(1, &1, || Err::<u64, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // The failure must have cleared the in-flight marker: a retry computes
        // (it does not deadlock) and succeeds.
        let v = cache.get_or_compute(1, &1, || Ok::<u64, &str>(7)).unwrap();
        assert_eq!(*v, 7);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 2));
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
