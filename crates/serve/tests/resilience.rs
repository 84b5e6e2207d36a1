//! Failure-path integration tests: the server must answer typed errors —
//! never crash, never serve approximate bytes — when a request panics, when
//! a connection dies mid-request, and when a session's trace was salvaged
//! from a damaged store.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aftermath_core::timeline::TimelineMode;
use aftermath_core::{SharedSession, StoreSession, Threads};
use aftermath_serve::protocol::{read_frame, write_frame};
use aftermath_serve::{
    Client, DetectorSet, ErrorCode, Request, Response, RetryPolicy, ServeConfig, Server,
    SessionManager,
};
use aftermath_sim::{SimConfig, Simulator};
use aftermath_trace::error::TraceError;
use aftermath_trace::store::{write_store_bytes, ColdTier, LaneId, MemoryTier};
use aftermath_trace::{CpuId, StoreOptions, StoredTrace, TimeInterval, Trace};
use aftermath_workloads::SeidelConfig;

fn sim_trace() -> Trace {
    let spec = SeidelConfig::small().build();
    Simulator::new(SimConfig::small_test())
        .run(&spec)
        .expect("small seidel simulation must succeed")
        .trace
}

/// A tier that panics on every read while armed — the hostile store backend
/// the server's panic containment is tested against.
#[derive(Debug)]
struct PanicTier {
    inner: MemoryTier,
    armed: Arc<AtomicBool>,
}

impl ColdTier for PanicTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        assert!(
            !self.armed.load(Ordering::SeqCst),
            "injected panic while reading the cold tier"
        );
        self.inner.read_at(offset, buf)
    }
}

#[test]
fn panicking_request_answers_internal_and_the_server_survives() {
    let trace = sim_trace();
    let bytes = write_store_bytes(&trace, &StoreOptions::default()).expect("store writes");
    let armed = Arc::new(AtomicBool::new(false));
    let tier = PanicTier {
        inner: MemoryTier::new(bytes),
        armed: Arc::clone(&armed),
    };
    let stored = StoredTrace::open_with_tier(Box::new(tier)).expect("store opens");
    let mut manager = SessionManager::new(8);
    manager.register_store("disk", StoreSession::from_store(stored));
    let server = Server::start(Arc::new(manager), ServeConfig::default()).expect("server starts");

    let mut client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    let session = client.open("disk").expect("session opens");
    let frame = Request::Timeline {
        session,
        mode: TimelineMode::State,
        interval: TimeInterval::from_cycles(0, u64::MAX),
        columns: 32,
    };

    // Armed: materialisation panics inside the handler. The connection must
    // get a typed Internal error, not a hangup.
    armed.store(true, Ordering::SeqCst);
    match client.request(&frame).expect("error response arrives") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected Internal error, got {other:?}"),
    }

    // Disarmed: the same connection, session and (previously poisoned) store
    // mutex must all still work.
    armed.store(false, Ordering::SeqCst);
    match client.request(&frame).expect("recovered response arrives") {
        Response::Timeline(model) => assert_eq!(model.columns, 32),
        other => panic!("expected a timeline after recovery, got {other:?}"),
    }
    client.close(session).expect("session closes");
    server.shutdown();
}

#[test]
fn retry_reconnects_after_a_dropped_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        // First connection: accept and hang up immediately.
        let (first, _) = listener.accept().expect("first accept");
        drop(first);
        // Second connection: answer one request.
        let (mut second, _) = listener.accept().expect("second accept");
        let payload = read_frame(&mut second).expect("request frame");
        Request::decode(&payload).expect("request decodes");
        write_frame(&mut second, &Response::Closed.encode()).expect("response written");
    });

    let mut client = Client::connect(addr).expect("connects");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let policy = RetryPolicy {
        max_retries: 3,
        initial_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let response = client
        .request_with_retry(&Request::Stats, &policy)
        .expect("retry succeeds over a fresh connection");
    assert_eq!(response, Response::Closed);
    assert_eq!(client.retries_performed(), 1);
    handle.join().expect("fake server thread");
}

#[test]
fn retries_exhausted_is_typed_and_budget_capped() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        // Hang up on every connection: initial try plus two retries.
        for _ in 0..3 {
            let (conn, _) = listener.accept().expect("accept");
            drop(conn);
        }
    });

    let mut client = Client::connect(addr).expect("connects");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let policy = RetryPolicy {
        max_retries: 2,
        initial_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let error = client
        .request_with_retry(&Request::Stats, &policy)
        .expect_err("every attempt fails");
    assert_eq!(error.attempts, 3);
    handle.join().expect("fake server thread");
}

/// A timeout the socket refuses is not kept: after a zero duration is
/// refused, a severed connection reconnects and the retried request is
/// answered by the healthy server.
#[test]
fn a_refused_timeout_leaves_reconnects_working() {
    let mut manager = SessionManager::new(8);
    manager.register_memory(
        "mem",
        Arc::new(SharedSession::open(
            Arc::new(sim_trace()),
            Threads::single(),
        )),
    );
    let server = Server::start(Arc::new(manager), ServeConfig::default()).expect("server starts");

    let mut client = Client::connect(server.addr()).expect("client connects");
    let refused = client
        .set_timeout(Some(Duration::ZERO))
        .expect_err("a zero timeout is refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    client.sever().expect("connection severed");
    let policy = RetryPolicy {
        max_retries: 2,
        initial_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let open = Request::Open {
        trace: "mem".into(),
    };
    let response = client
        .request_with_retry(&open, &policy)
        .expect("the retry reconnects");
    assert!(matches!(response, Response::Opened { .. }), "{response:?}");
    server.shutdown();
}

#[test]
fn salvaged_store_degrades_explicitly_and_answers_exactly_inside_coverage() {
    let trace = Arc::new(sim_trace());
    // Small blocks so damaging one block leaves most of the lane standing.
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).expect("store writes");

    // Target the middle block of the state lane with the most blocks.
    let probe = StoredTrace::from_bytes(bytes.clone()).expect("store opens");
    let lane = probe
        .lanes()
        .filter(|l| matches!(l, LaneId::States(_)))
        .max_by_key(|&l| probe.lane_directory(l).map_or(0, |d| d.blocks.len()))
        .expect("a states lane is stored");
    let blocks = &probe
        .lane_directory(lane)
        .expect("states lane stored")
        .blocks;
    assert!(blocks.len() >= 3, "need several blocks to quarantine one");
    let victim = &blocks[blocks.len() / 2];
    let mut corrupt = bytes.clone();
    corrupt[victim.offset as usize + 2] ^= 0x10;

    let salvaged = StoredTrace::from_bytes_salvage(corrupt).expect("salvage open succeeds");
    let store_session = StoreSession::from_store(salvaged);
    let coverage = store_session
        .coverage()
        .expect("salvaged session has coverage");
    assert!(!coverage.clean);
    let state_span = coverage.state_span.expect("a block run survives");

    let mut manager = SessionManager::new(8);
    manager.register_store("salvaged", store_session);
    manager.register_memory(
        "mem",
        Arc::new(SharedSession::open(Arc::clone(&trace), Threads::single())),
    );
    let manager = Arc::new(manager);

    let Response::Opened {
        session, interval, ..
    } = manager.handle(&Request::Open {
        trace: "salvaged".into(),
    })
    else {
        panic!("salvaged trace must open");
    };

    // Whole-trace requests depend on the quarantined block: typed Degraded.
    for request in [
        Request::Query {
            session,
            interval,
            cpu: CpuId(0),
            counter: None,
        },
        Request::Anomalies {
            session,
            detectors: DetectorSet::ALL,
            max_anomalies: 8,
        },
        Request::Timeline {
            session,
            mode: TimelineMode::State,
            interval,
            columns: 32,
        },
    ] {
        match manager.handle(&request) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Degraded, "for {request:?}");
                assert!(message.contains("salvage"), "message explains: {message}");
            }
            other => panic!("expected Degraded for {request:?}, got {other:?}"),
        }
    }

    // Inside the surviving span the answer is allowed — and byte-identical
    // to the undamaged, memory-backed trace.
    let span = state_span.end.0 - state_span.start.0;
    let inside =
        TimeInterval::from_cycles(state_span.start.0 + span / 4, state_span.start.0 + span / 2);
    let degraded_frame = manager.handle(&Request::Timeline {
        session,
        mode: TimelineMode::State,
        interval: inside,
        columns: 32,
    });
    let Response::Opened { session: mem, .. } = manager.handle(&Request::Open {
        trace: "mem".into(),
    }) else {
        panic!("mem trace must open");
    };
    let clean_frame = manager.handle(&Request::Timeline {
        session: mem,
        mode: TimelineMode::State,
        interval: inside,
        columns: 32,
    });
    assert!(
        matches!(degraded_frame, Response::Timeline(_)),
        "covered-span frames are answered, got {degraded_frame:?}"
    );
    assert_eq!(
        degraded_frame.encode(),
        clean_frame.encode(),
        "answers inside the surviving coverage must be exact"
    );
}
