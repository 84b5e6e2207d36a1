//! Load generator for the multi-session analysis server: N concurrent TCP
//! clients replay a deterministic zoom/query/anomaly script against one
//! server holding the dense navigation trace of [`crate::zoom`], and every
//! response is compared byte-for-byte against a direct in-process
//! [`AnalysisSession`] answering the same requests.
//!
//! The measured claims mirror the serve crate's design goals:
//!
//! * **identity** — concurrency, shared caches and the wire protocol never
//!   change an answer (`responses_identical`);
//! * **sharing** — N sessions over one trace cost bookkeeping, not data:
//!   `n_vs_one_ratio` is the total footprint of N open sessions over the
//!   footprint of one, and `sessions_per_gb` counts how many sessions fit in
//!   a gigabyte at that footprint;
//! * **amortisation** — one client's computed frame is every other client's
//!   cache hit (`cache_hit_rate` over the shared timeline/anomaly caches);
//! * **interactivity** — per-request wall-clock latency percentiles
//!   (`p50/p95/p99_frame_seconds`) stay within the paper's interactive budget
//!   even with every client zooming at once.
//!
//! What is accepted of each is its row of [`crate::gates::GATES`]. The chaos
//! harness ([`crate::chaos`]) replays the same script through the same
//! `ground_truth` / `drive` pair under injected faults.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use aftermath_core::{AnalysisSession, SharedSession, Threads, TimelineMode};
use aftermath_serve::manager::direct_response;
use aftermath_serve::{
    Client, DetectorSet, Request, Response, ServeConfig, Server, SessionManager,
};
use aftermath_trace::{CpuId, TimeInterval, Trace};

use crate::figures::Scale;
use crate::record::{self, Fields, Record};
use crate::zoom::{timeline_modes, zoom_trace, ZOOM_FACTORS};

/// Concurrent clients driven against the server.
pub fn clients(scale: Scale) -> usize {
    match scale {
        Scale::Test => 8,
        Scale::Paper => 64,
    }
}

/// The deterministic request script every client plays (session id patched
/// per session): timeline frames across all zoom factors and modes, interval
/// queries, a full anomaly report, a drill-in and the lint summary.
pub fn script(session: u64, bounds: TimeInterval) -> Vec<Request> {
    let span = bounds.end.0.saturating_sub(bounds.start.0).max(1);
    let mut requests = Vec::new();
    // Fixed duration bounds keep heatmap shading identical between the
    // server and the direct replay regardless of request order.
    let modes = timeline_modes(200_000).map(|(_, mode)| mode);
    for (i, &zoom) in ZOOM_FACTORS.iter().enumerate() {
        let width = (span / zoom).max(1);
        let start = bounds.start.0 + (span - width) / 2;
        let interval = TimeInterval::from_cycles(start, start + width);
        requests.push(Request::Timeline {
            session,
            mode: modes[i % modes.len()],
            interval,
            columns: 256,
        });
        requests.push(Request::Query {
            session,
            interval,
            cpu: CpuId((i % 4) as u32),
            counter: None,
        });
    }
    // The remaining modes at full zoom-out, so all six are exercised.
    for &mode in &modes[ZOOM_FACTORS.len() % modes.len()..] {
        requests.push(Request::Timeline {
            session,
            mode,
            interval: bounds,
            columns: 256,
        });
    }
    requests.push(Request::Anomalies {
        session,
        detectors: DetectorSet::ALL,
        max_anomalies: 32,
    });
    requests.push(Request::DrillIn {
        session,
        detectors: DetectorSet::ALL,
        max_anomalies: 32,
        rank: 0,
        mode: TimelineMode::State,
        columns: 256,
    });
    requests.push(Request::Lint { session });
    requests
}

/// Results of one load-generator run (see the module docs for the metrics).
#[derive(Debug)]
pub struct ServeBench {
    /// Events in the served trace.
    pub num_events: u64,
    /// Concurrent clients driven.
    pub clients: usize,
    /// Requests answered across all clients.
    pub requests: usize,
    /// Whether every response was byte-identical to the direct session.
    pub responses_identical: bool,
    /// Per-request wall-clock latencies (seconds), all clients pooled.
    pub frame_seconds: Vec<f64>,
    /// Hit rate of the shared timeline/anomaly caches over the whole run.
    pub cache_hit_rate: f64,
    /// Bytes of per-trace state shared by all sessions.
    pub shared_bytes: u64,
    /// Bytes of per-session bookkeeping with all N sessions open.
    pub session_bytes: u64,
    /// Footprint of N open sessions over the footprint of one.
    pub n_vs_one_ratio: f64,
    /// Sessions per gigabyte at the N-session footprint.
    pub sessions_per_gb: f64,
    /// One-time cost of opening the shared session (prewarm all shards).
    pub open_seconds: f64,
}

impl ServeBench {
    /// Latency quantile over all requests (nearest-rank).
    pub fn frame_quantile(&self, q: f64) -> f64 {
        record::quantile(&self.frame_seconds, q)
    }

    /// The run as a [`Record`] of kind `serve`.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("num_events", self.num_events)
            .int("clients", self.clients)
            .int("requests", self.requests)
            .flag("responses_identical", self.responses_identical)
            .note_if(
                self.responses_identical,
                "every response byte-identical to the direct session",
            )
            .float("cache_hit_rate", self.cache_hit_rate)
            .int("shared_bytes", self.shared_bytes)
            .int("session_bytes", self.session_bytes)
            .float("n_vs_one_ratio", self.n_vs_one_ratio)
            .float("sessions_per_gb", self.sessions_per_gb)
            .float("open_seconds", self.open_seconds)
            .float("p50_frame_seconds", self.frame_quantile(0.50))
            .float("p95_frame_seconds", self.frame_quantile(0.95))
            .float("p99_frame_seconds", self.frame_quantile(0.99));
        Record::new("serve", fields)
    }
}

/// The fault-free ground truth of a load run: a direct borrowing session over
/// `trace`, prewarmed like the served one, and the bytes it answers each
/// request of [`script`] with, encoded through the same protocol.
pub(crate) fn ground_truth(trace: &Trace, threads: Threads) -> (AnalysisSession<'_>, Vec<Vec<u8>>) {
    let direct = AnalysisSession::new(trace);
    direct.prewarm(threads);
    let expected = script(0, direct.time_bounds())
        .iter()
        .map(|request| direct_response(&direct, request).encode())
        .collect();
    (direct, expected)
}

/// Serves `manager` over TCP and drives `clients` concurrent clients against
/// it: each connects, opens a session on `name` and runs `body(client index,
/// client, session)`, while `meanwhile` runs on the calling thread. Returns
/// the bodies' results in client order and the panics the server contained.
pub(crate) fn drive<T: Send>(
    manager: SessionManager,
    name: &str,
    clients: usize,
    timeout: Duration,
    body: impl Fn(usize, &mut Client, u64) -> T + Sync,
    meanwhile: impl FnOnce(&SessionManager, SocketAddr),
) -> (Vec<T>, u64) {
    let manager = Arc::new(manager);
    let server = Server::start(
        Arc::clone(&manager),
        ServeConfig {
            // One worker per client — latencies measure analysis under
            // concurrency, not queueing for a connection slot — and a few
            // spare for connections that are not clients.
            workers: clients + 4,
            backlog: clients * 4,
            request_timeout: Duration::from_secs(120),
            ..ServeConfig::default()
        },
    )
    .expect("load server starts");
    let addr = server.addr();
    let body = &body;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("load client connects");
                    client
                        .set_timeout(Some(timeout))
                        .expect("client timeout set");
                    let session = client.open(name).expect("load session opens");
                    body(id, &mut client, session)
                })
            })
            .collect();
        meanwhile(&manager, addr);
        handles
            .into_iter()
            .map(|handle| handle.join().expect("load client succeeds"))
            .collect()
    });
    let panics = server.panics_caught();
    server.shutdown();
    (results, panics)
}

/// Runs the load generator: builds the zoom trace, opens it as shared state,
/// starts a TCP server, drives [`clients`] concurrent clients through
/// [`script`], and checks every response byte-for-byte against a direct
/// session.
pub fn run_serve_bench(scale: Scale, threads: Threads) -> ServeBench {
    let trace = Arc::new(zoom_trace(scale));
    let num_events = trace.num_events() as u64;
    let num_clients = clients(scale);

    let open_started = Instant::now();
    let shared = Arc::new(SharedSession::open(Arc::clone(&trace), threads));
    let open_seconds = open_started.elapsed().as_secs_f64();

    let (direct, expected) = ground_truth(&trace, threads);
    let bounds = direct.time_bounds();

    let mut manager = SessionManager::new(num_clients * 2);
    manager.register_memory("zoom", Arc::clone(&shared));

    // Two barriers sequence the footprint measurement: `scripts_done` holds
    // every client (and its open session) alive until the main thread has
    // read the N-session stats, `release` then lets them disconnect.
    let scripts_done = Barrier::new(num_clients + 1);
    let release = Barrier::new(num_clients + 1);
    let mut footprint = (0, 0);
    let (runs, _) = drive(
        manager,
        "zoom",
        num_clients,
        Duration::from_secs(600),
        |_, client, session| {
            let mut latencies = Vec::new();
            let mut identical = true;
            for (request, expected) in script(session, bounds).iter().zip(&expected) {
                let started = Instant::now();
                let raw = client.request_raw(request).expect("bench request answered");
                latencies.push(started.elapsed().as_secs_f64());
                identical &= &raw == expected;
            }
            scripts_done.wait();
            release.wait();
            (latencies, identical)
        },
        |manager, _| {
            scripts_done.wait();
            // Footprint with all N sessions open, straight from the manager.
            match manager.handle(&Request::Stats) {
                Response::Stats(stats) => {
                    assert_eq!(stats.open_sessions as usize, num_clients);
                    footprint = (stats.shared_bytes, stats.session_bytes);
                }
                other => panic!("Stats request must succeed, got {other:?}"),
            }
            release.wait();
        },
    );
    let (shared_bytes, session_bytes) = footprint;
    let per_session = session_bytes as f64 / num_clients.max(1) as f64;
    let one = shared_bytes as f64 + per_session;
    let n = shared_bytes as f64 + session_bytes as f64;
    let n_vs_one_ratio = n / one.max(1.0);
    let sessions_per_gb = num_clients as f64 / (n / (1u64 << 30) as f64).max(f64::MIN_POSITIVE);

    let mut frame_seconds = Vec::new();
    let mut responses_identical = true;
    for (latencies, identical) in runs {
        frame_seconds.extend(latencies);
        responses_identical &= identical;
    }
    let requests = frame_seconds.len();

    let cache_hit_rate = shared.cache_stats().hit_rate();

    ServeBench {
        num_events,
        clients: num_clients,
        requests,
        responses_identical,
        frame_seconds,
        cache_hit_rate,
        shared_bytes,
        session_bytes,
        n_vs_one_ratio,
        sessions_per_gb,
        open_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{gates_of, Verdict};

    #[test]
    fn test_scale_run_is_identical_and_shares() {
        let bench = run_serve_bench(Scale::Test, Threads::single());
        assert_eq!(bench.clients, clients(Scale::Test));
        assert_eq!(
            bench.requests,
            bench.clients * script(0, TimeInterval::from_cycles(0, 1)).len()
        );
        assert!(
            bench.cache_hit_rate > 0.5,
            "most lookups must hit the shared caches, got {:.3}",
            bench.cache_hit_rate
        );

        let record = Record::parse(&bench.record().to_json()).unwrap();
        assert_eq!(record.bench, "serve");
        assert_eq!(record.fields.int_value("clients"), Ok(bench.clients as u64));
        assert!(record.fields.number("p95_frame_seconds").unwrap() > 0.0);
        // Against itself as the baseline every gate of the kind holds:
        // identical answers, N sessions for about the cost of one.
        for gate in gates_of("serve") {
            let (verdict, line) = gate.evaluate(&record, Some(&record));
            assert_eq!(verdict, Verdict::Pass, "{line}");
        }
    }
}
