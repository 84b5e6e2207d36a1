//! The session manager: registered traces, open sessions, and the one
//! request → response function of the crate.
//!
//! A [`SessionManager`] holds the server's traces — resident ones as
//! [`SharedSession`]s, on-disk column stores as lazily materialising
//! [`StoreSession`]s — plus a table of open sessions. Opening a session is an
//! admission decision and two map inserts; all the expensive per-trace state
//! was built when the trace was registered, which is what keeps "hundreds of
//! clients on the same trace" at near-constant memory (the serve bench's
//! sessions-per-GB metric).
//!
//! [`SessionManager::handle`] has no I/O of its own (the server calls it from
//! pool workers, tests call it directly) and no analysis of its own either:
//! it finds the session's [`TraceEntry`], validates the request's shape, says
//! what the request reads ([`Need`]) and hands [`direct_response`] a view of the
//! trace — so the server's bytes are the direct session's bytes for every
//! backing by construction. What differs per backing is only how a view comes
//! to be: a memory-backed trace hands them out lock-free and concurrently, a
//! store-backed one serialises its requests behind one mutex because lane
//! materialisation needs `&mut`. `Open` and `Stats` never take that mutex.

// Dispatch helpers use `Result<Response, Response>` so `?` short-circuits
// straight to the error *response*; both variants merge immediately at the
// call site, so the by-value size of the Err variant is never carried around.
#![allow(clippy::result_large_err)]

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, PoisonError};

use aftermath_core::session::IntervalQuery;
use aftermath_core::timeline::TimelineEngine;
use aftermath_core::{
    AnalysisError, AnalysisSession, CacheStats, Need, SharedSession, StoreSession, TaskFilter,
};
use aftermath_trace::{AccessKind, CounterId, CpuId, TimeInterval};

use crate::protocol::{ErrorCode, QueryResult, Request, Response, ServerStats};

/// Hard ceiling on requested timeline columns; wider frames than this cannot
/// come from a real viewport and would only inflate response frames.
pub const MAX_COLUMNS: u32 = 16_384;

/// One registered trace: either fully resident shared state or a lazily
/// materialising on-disk store.
#[derive(Debug, Clone)]
pub enum TraceEntry {
    /// A resident trace with prewarmed shared indexes, pyramids and caches;
    /// requests run concurrently on cheap views.
    Memory(Arc<SharedSession>),
    /// An on-disk column store; requests serialise behind its mutex because
    /// lane materialisation mutates residency state.
    Store(Arc<StoreEntry>),
}

/// A store-backed trace: the session behind its mutex, and next to it what
/// `Stats` reports about it, so that reading it never waits for a request.
#[derive(Debug)]
pub struct StoreEntry {
    session: Mutex<StoreSession>,
    /// `(shared bytes, result-cache totals)` as of the last completed request.
    published: Mutex<(u64, CacheStats)>,
}

impl StoreEntry {
    fn new(session: StoreSession) -> Self {
        let published = Mutex::new((session.shared_bytes() as u64, session.cache_stats()));
        StoreEntry {
            session: Mutex::new(session),
            published,
        }
    }

    fn with_view<R>(
        &self,
        need: Need,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        // Recover from a poisoned lock: a pool worker that panicked mid-request
        // (the server contains such panics) leaves the mutex poisoned, but
        // `StoreSession` mutations are residency bookkeeping and caches that
        // fail closed — a lost answer, not corrupt analysis state — so later
        // requests on the same trace must keep working.
        let mut session = self.session.lock().unwrap_or_else(PoisonError::into_inner);
        let result = session.with_view(need, f);
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            (session.shared_bytes() as u64, session.cache_stats());
        result
    }
}

impl TraceEntry {
    /// Runs `f` on a view of the trace that has what `need` reads.
    fn with_view<R>(
        &self,
        need: Need,
        f: impl FnOnce(&AnalysisSession<'_>) -> R,
    ) -> Result<R, AnalysisError> {
        match self {
            TraceEntry::Memory(shared) => Ok(shared.with_view(need, f)),
            TraceEntry::Store(store) => store.with_view(need, f),
        }
    }
}

/// A registered trace and what `Open` answers about it (immutable once
/// registered).
#[derive(Debug)]
struct Registered {
    entry: TraceEntry,
    interval: TimeInterval,
    cpus: u32,
}

#[derive(Debug, Default)]
struct SessionTable {
    next_id: u64,
    open: HashMap<u64, TraceEntry>,
    peak: u64,
    admitted: u64,
    rejected: u64,
}

/// Registered traces plus the table of open sessions (see module docs).
#[derive(Debug)]
pub struct SessionManager {
    traces: HashMap<String, Registered>,
    sessions: Mutex<SessionTable>,
    max_sessions: usize,
}

impl SessionManager {
    /// An empty manager admitting at most `max_sessions` concurrent sessions
    /// (clamped to at least one).
    pub fn new(max_sessions: usize) -> Self {
        SessionManager {
            traces: HashMap::new(),
            sessions: Mutex::new(SessionTable::default()),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Registers a resident trace under `name`, replacing any previous entry
    /// of that name (existing sessions keep the entry they opened).
    pub fn register_memory(&mut self, name: impl Into<String>, shared: Arc<SharedSession>) {
        let trace = shared.trace();
        let registered = Registered {
            interval: trace.time_bounds(),
            cpus: trace.topology().num_cpus() as u32,
            entry: TraceEntry::Memory(shared),
        };
        self.traces.insert(name.into(), registered);
    }

    /// Registers an on-disk store under `name` (see [`Self::register_memory`]).
    pub fn register_store(&mut self, name: impl Into<String>, store: StoreSession) {
        let registered = Registered {
            interval: store.time_bounds(),
            cpus: store.store().trace().topology().num_cpus() as u32,
            entry: TraceEntry::Store(Arc::new(StoreEntry::new(store))),
        };
        self.traces.insert(name.into(), registered);
    }

    /// Names of the registered traces, unordered.
    pub fn trace_names(&self) -> impl Iterator<Item = &str> {
        self.traces.keys().map(String::as_str)
    }

    /// Closes `session` if open; used by the `Close` request and by the
    /// server when a connection drops with sessions still open.
    pub fn close_session(&self, session: u64) -> bool {
        self.sessions
            .lock()
            .unwrap()
            .open
            .remove(&session)
            .is_some()
    }

    /// Answers one request. Infallible by construction: every failure mode
    /// becomes a typed [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        let session = match *request {
            Request::Open { ref trace } => return self.open(trace),
            Request::Stats => return Response::Stats(self.stats()),
            Request::Close { session } => {
                return match self.close_session(session) {
                    true => Response::Closed,
                    false => unknown_session(session),
                };
            }
            Request::Timeline { session, .. }
            | Request::Query { session, .. }
            | Request::Anomalies { session, .. }
            | Request::DrillIn { session, .. }
            | Request::Lint { session } => session,
        };
        // The table lock is released before any analysis runs: concurrent
        // requests on memory-backed traces proceed in parallel on views.
        let entry = self.sessions.lock().unwrap().open.get(&session).cloned();
        let Some(entry) = entry else {
            return unknown_session(session);
        };
        // A malformed request is refused for what it is, whatever the trace
        // behind it could have answered — and before it waits for that trace.
        if let Err(error) = check_shape(request) {
            return error;
        }
        entry
            .with_view(need(request), |view| direct_response(view, request))
            .unwrap_or_else(error_response)
    }

    fn open(&self, trace: &str) -> Response {
        let Some(registered) = self.traces.get(trace) else {
            return Response::Error {
                code: ErrorCode::UnknownTrace,
                message: format!("no trace registered as {trace:?}"),
            };
        };
        let mut table = self.sessions.lock().unwrap();
        if table.open.len() >= self.max_sessions {
            table.rejected += 1;
            return Response::Error {
                code: ErrorCode::ServerFull,
                message: format!(
                    "session limit of {} reached; close a session and retry",
                    self.max_sessions
                ),
            };
        }
        let session = table.next_id;
        table.next_id += 1;
        table.open.insert(session, registered.entry.clone());
        table.admitted += 1;
        table.peak = table.peak.max(table.open.len() as u64);
        Response::Opened {
            session,
            interval: registered.interval,
            cpus: registered.cpus,
        }
    }

    fn stats(&self) -> ServerStats {
        let mut stats = ServerStats::default();
        for registered in self.traces.values() {
            let (shared_bytes, cache) = match &registered.entry {
                TraceEntry::Memory(shared) => (shared.shared_bytes() as u64, shared.cache_stats()),
                TraceEntry::Store(store) => *store
                    .published
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            };
            stats.shared_bytes += shared_bytes;
            stats.cache_hits += cache.hits;
            stats.cache_misses += cache.misses;
        }
        let table = self.sessions.lock().unwrap();
        stats.open_sessions = table.open.len() as u64;
        stats.peak_sessions = table.peak;
        stats.admitted_sessions = table.admitted;
        stats.rejected_sessions = table.rejected;
        stats.session_bytes =
            (table.open.len() * (size_of::<u64>() + size_of::<TraceEntry>())) as u64;
        stats
    }
}

fn unknown_session(session: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownSession,
        message: format!("session {session} is not open"),
    }
}

/// What a request reads of its trace.
fn need(request: &Request) -> Need {
    match *request {
        Request::Timeline { mode, interval, .. } => Need::Frame {
            mode,
            interval,
            engine: TimelineEngine::Adaptive,
        },
        Request::Query { interval, .. } => Need::Query { interval },
        Request::Anomalies { .. } | Request::DrillIn { .. } => Need::WholeTrace,
        Request::Lint { .. } | Request::Open { .. } | Request::Close { .. } | Request::Stats => {
            Need::Nothing
        }
    }
}

/// Refuses a request that is malformed whatever trace it is asked of.
fn check_shape(request: &Request) -> Result<(), Response> {
    match *request {
        Request::Timeline { columns, .. } | Request::DrillIn { columns, .. }
            if columns == 0 || columns > MAX_COLUMNS =>
        {
            Err(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("columns must be in 1..={MAX_COLUMNS}, got {columns}"),
            })
        }
        _ => Ok(()),
    }
}

/// A salvage-opened store answers only inside its surviving coverage, and the
/// server degrades *explicitly* rather than serving approximate bytes; every
/// other analysis failure is the server's.
fn error_response(error: AnalysisError) -> Response {
    let code = match error {
        AnalysisError::OutsideCoverage { .. } => ErrorCode::Degraded,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: error.to_string(),
    }
}

/// Builds the wire-form aggregate bundle of one interval query — the single
/// definition both the server and the bench's direct-session replay use, so
/// byte-identity compares real answers, not two encoders.
pub fn query_result(
    query: &IntervalQuery<'_, '_>,
    cpu: CpuId,
    counter: Option<CounterId>,
) -> QueryResult {
    let exec = query.exec_stats(cpu);
    QueryResult {
        interval: query.interval(),
        cpu,
        state_cycles: query.state_cycles(cpu),
        predominant_state: query.predominant_state(cpu),
        exec_count: exec.count,
        exec_min_cycles: exec.min_cycles,
        exec_max_cycles: exec.max_cycles,
        task_type_cycles: query.task_type_cycles(cpu),
        numa_read_bytes: query.numa_bytes(cpu, AccessKind::Read),
        numa_write_bytes: query.numa_bytes(cpu, AccessKind::Write),
        counter_min_max: counter.and_then(|c| query.counter_min_max(cpu, c)),
        counter_average: counter.and_then(|c| query.counter_average(cpu, c)),
    }
}

/// The answer of one [`AnalysisSession`] to a `Timeline`, `Query`, `Anomalies`,
/// `DrillIn` or `Lint` request (ignoring the session id): what
/// [`SessionManager::handle`] sends for it, and what the serve bench and the CI
/// smoke step compute on a session of their own to require the server's bytes
/// to match exactly.
pub fn direct_response(session: &AnalysisSession<'_>, request: &Request) -> Response {
    respond(session, request).unwrap_or_else(|error| error)
}

fn respond(session: &AnalysisSession<'_>, request: &Request) -> Result<Response, Response> {
    check_shape(request)?;
    match *request {
        Request::Timeline {
            mode,
            interval,
            columns,
            ..
        } => {
            let model = session.timeline(mode, interval, columns as usize);
            Ok(Response::Timeline(
                (*model.map_err(error_response)?).clone(),
            ))
        }
        Request::Query {
            interval,
            cpu,
            counter,
            ..
        } => {
            let query = session.query(interval);
            Ok(Response::Query(query_result(&query, cpu, counter)))
        }
        Request::Anomalies {
            detectors,
            max_anomalies,
            ..
        } => {
            let config = detectors.config(max_anomalies as usize);
            let report = session.detect_anomalies(&config).map_err(error_response)?;
            Ok(Response::Anomalies(report.as_slice().to_vec()))
        }
        Request::DrillIn {
            detectors,
            max_anomalies,
            rank,
            mode,
            columns,
            ..
        } => {
            let config = detectors.config(max_anomalies as usize);
            let report = session.detect_anomalies(&config).map_err(error_response)?;
            let anomaly = report
                .as_slice()
                .get(rank as usize)
                .ok_or_else(|| Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "anomaly rank {rank} out of range (report has {} findings)",
                        report.len()
                    ),
                })?;
            let filter = TaskFilter::from_anomaly(anomaly);
            let model =
                session.timeline_filtered(mode, anomaly.interval, columns as usize, &filter);
            Ok(Response::DrillIn((*model.map_err(error_response)?).clone()))
        }
        Request::Lint { .. } => Ok(Response::Lint(session.lint_summary().map(|summary| {
            summary
                .iter()
                .map(|(code, count)| (code, count as u64))
                .collect()
        }))),
        Request::Open { .. } | Request::Close { .. } | Request::Stats => Err(Response::Error {
            code: ErrorCode::BadRequest,
            message: "request has no direct-session equivalent".into(),
        }),
    }
}
