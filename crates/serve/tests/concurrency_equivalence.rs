//! The server's central correctness contract, under concurrency: K client
//! threads running M sessions each against one TCP server must receive
//! responses byte-identical to a single direct in-process
//! [`AnalysisSession`] answering the same requests — shared caches, the
//! worker pool and connection multiplexing must never change an answer.

use std::sync::Arc;
use std::time::Duration;

use aftermath_core::timeline::TimelineMode;
use aftermath_core::{AnalysisSession, SharedSession, StoreSession, Threads};
use aftermath_serve::manager::direct_response;
use aftermath_serve::{
    Client, DetectorSet, ErrorCode, Request, Response, ServeConfig, Server, SessionManager,
};
use aftermath_sim::{SimConfig, Simulator};
use aftermath_trace::store::write_store_bytes;
use aftermath_trace::{CpuId, StoreOptions, StoredTrace, TimeInterval, Trace};
use aftermath_workloads::SeidelConfig;

fn sim_trace() -> Trace {
    let spec = SeidelConfig::small().build();
    Simulator::new(SimConfig::small_test())
        .run(&spec)
        .expect("small seidel simulation must succeed")
        .trace
}

/// The deterministic request script every client plays: zooming timelines
/// across modes, interval queries, an anomaly report and a drill-in.
fn script(session: u64, bounds: TimeInterval) -> Vec<Request> {
    let span = bounds.end.0.saturating_sub(bounds.start.0).max(1);
    let mut requests = Vec::new();
    for (i, mode) in [
        TimelineMode::State,
        TimelineMode::Heatmap {
            min_duration: 0,
            max_duration: 200_000,
        },
        TimelineMode::TaskType,
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
    ]
    .into_iter()
    .enumerate()
    {
        // Zoom in by powers of four, sliding the window with the mode index.
        let zoom = 1 << (2 * (i % 3));
        let width = (span / zoom).max(1);
        let start = bounds.start.0 + (span - width) / (i as u64 + 1).max(1);
        requests.push(Request::Timeline {
            session,
            mode,
            interval: TimeInterval::from_cycles(start, start + width),
            columns: 64,
        });
    }
    for cpu in 0..2u32 {
        requests.push(Request::Query {
            session,
            interval: TimeInterval::from_cycles(
                bounds.start.0 + span / 4,
                bounds.start.0 + span / 2,
            ),
            cpu: CpuId(cpu),
            counter: None,
        });
    }
    requests.push(Request::Anomalies {
        session,
        detectors: DetectorSet::ALL,
        max_anomalies: 16,
    });
    requests.push(Request::DrillIn {
        session,
        detectors: DetectorSet::ALL,
        max_anomalies: 16,
        rank: 0,
        mode: TimelineMode::State,
        columns: 64,
    });
    requests.push(Request::Lint { session });
    requests
}

#[test]
fn concurrent_sessions_are_byte_identical_to_direct() {
    const CLIENT_THREADS: usize = 4;
    const SESSIONS_PER_THREAD: usize = 2;

    let trace = Arc::new(sim_trace());
    let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
    let mut manager = SessionManager::new(64);
    manager.register_memory("sim", Arc::new(shared));
    let server = Server::start(Arc::new(manager), ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    // The ground truth: one direct session, no server, no sharing.
    let direct = AnalysisSession::new(&trace);
    let bounds = direct.time_bounds();
    let expected: Vec<Vec<u8>> = script(0, bounds)
        .iter()
        .map(|request| direct_response(&direct, request).encode())
        .collect();

    let mut handles = Vec::new();
    for _ in 0..CLIENT_THREADS {
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("client connects");
            client
                .set_timeout(Some(Duration::from_secs(60)))
                .expect("timeout set");
            for _ in 0..SESSIONS_PER_THREAD {
                let session = client.open("sim").expect("session opens");
                for (request, expected) in script(session, bounds).iter().zip(&expected) {
                    let raw = client.request_raw(request).expect("request answered");
                    assert_eq!(
                        &raw, expected,
                        "server response must be byte-identical to the direct session"
                    );
                }
                client.close(session).expect("session closes");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread succeeds");
    }
    server.shutdown();
}

#[test]
fn store_backed_sessions_answer_like_memory_backed() {
    let trace = Arc::new(sim_trace());
    let bytes = write_store_bytes(&trace, &StoreOptions::default()).expect("store writes");
    let stored = StoredTrace::from_bytes(bytes).expect("store opens");
    let mut manager = SessionManager::new(8);
    manager.register_memory(
        "mem",
        Arc::new(SharedSession::open(Arc::clone(&trace), Threads::single())),
    );
    manager.register_store("disk", StoreSession::from_store(stored));
    let manager = Arc::new(manager);

    let direct = AnalysisSession::new(&trace);
    let bounds = direct.time_bounds();
    for (mem_request, disk_request) in script(0, bounds).iter().zip(script(1, bounds).iter()) {
        let Response::Opened { session: mem, .. } = manager.handle(&Request::Open {
            trace: "mem".into(),
        }) else {
            panic!("mem trace must open");
        };
        let Response::Opened { session: disk, .. } = manager.handle(&Request::Open {
            trace: "disk".into(),
        }) else {
            panic!("disk trace must open");
        };
        let mem_response = manager.handle(&retarget(mem_request, mem));
        let disk_response = manager.handle(&retarget(disk_request, disk));
        if matches!(mem_request, Request::Lint { .. }) {
            // The store pipeline has no lint stage: "never linted" is the
            // correct answer for the disk entry, not a divergence.
            assert_eq!(disk_response, Response::Lint(None));
        } else {
            assert_eq!(
                mem_response.encode(),
                disk_response.encode(),
                "store-backed answers must match memory-backed ones"
            );
        }
        manager.handle(&Request::Close { session: mem });
        manager.handle(&Request::Close { session: disk });
    }
}

fn retarget(request: &Request, session: u64) -> Request {
    let mut request = request.clone();
    match &mut request {
        Request::Close { session: s }
        | Request::Timeline { session: s, .. }
        | Request::Query { session: s, .. }
        | Request::Anomalies { session: s, .. }
        | Request::DrillIn { session: s, .. }
        | Request::Lint { session: s } => *s = session,
        Request::Open { .. } | Request::Stats => {}
    }
    request
}

#[test]
fn admission_limit_and_connection_cleanup() {
    let trace = Arc::new(sim_trace());
    let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
    let mut manager = SessionManager::new(2);
    manager.register_memory("sim", Arc::new(shared));
    let manager = Arc::new(manager);
    let server =
        Server::start(Arc::clone(&manager), ServeConfig::default()).expect("server starts");

    let mut a = Client::connect(server.addr()).expect("connects");
    let _s1 = a.open("sim").expect("first session");
    let _s2 = a.open("sim").expect("second session");
    // The third open must be refused, not queued.
    match a
        .request(&Request::Open {
            trace: "sim".into(),
        })
        .expect("request answered")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ServerFull),
        other => panic!("expected ServerFull, got {other:?}"),
    }
    // Dropping the connection must close its sessions so capacity returns.
    drop(a);
    let mut b = Client::connect(server.addr()).expect("connects");
    b.set_timeout(Some(Duration::from_secs(30))).expect("set");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match b.request(&Request::Open {
            trace: "sim".into(),
        }) {
            Ok(Response::Opened { .. }) => break,
            Ok(Response::Error { code, .. })
                if code == ErrorCode::ServerFull && std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("expected Opened (or transient ServerFull), got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_not_crashes() {
    use std::io::Write;
    use std::net::TcpStream;

    let trace = Arc::new(sim_trace());
    let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
    let mut manager = SessionManager::new(4);
    manager.register_memory("sim", Arc::new(shared));
    let server = Server::start(Arc::new(manager), ServeConfig::default()).expect("server starts");

    // Garbage payload: the server answers BadRequest and closes, and stays up.
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    let garbage = [7u8, 0, 0, 0, 0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA, 0xF9];
    stream.write_all(&garbage).expect("writes");
    stream.flush().expect("flushes");
    let payload = aftermath_serve::protocol::read_frame(&mut stream).expect("error frame arrives");
    match Response::decode(&payload).expect("error frame decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    drop(stream);

    // The server survived: a well-formed client still gets served.
    let mut client = Client::connect(server.addr()).expect("connects");
    let session = client.open("sim").expect("opens");
    client.close(session).expect("closes");
    server.shutdown();
}

/// A served store answers the whole script — frames, the query result,
/// the anomaly report, the drill-in — byte-identically to a direct session at
/// every thread budget of the store and at no, half and zero residency
/// budget; a salvaged store does so for everything it does not refuse.
#[test]
fn store_backed_answers_do_not_depend_on_thread_or_residency_budget() {
    let trace = Arc::new(sim_trace());
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).expect("store writes");
    let direct = AnalysisSession::new(&trace);
    let bounds = direct.time_bounds();
    let expected: Vec<Vec<u8>> = script(0, bounds)
        .iter()
        .map(|request| direct_response(&direct, request).encode())
        .collect();
    // The last block of one states lane is damaged: the salvaged store still
    // answers whatever lies inside the surviving span before it.
    let mut damaged = bytes.clone();
    let probe = StoredTrace::from_bytes(bytes.clone()).expect("store opens");
    let lane = probe
        .lanes()
        .filter(|lane| matches!(lane, aftermath_trace::store::LaneId::States(_)))
        .max_by_key(|&lane| probe.lane_rows(lane))
        .expect("a states lane");
    let blocks = &probe.lane_directory(lane).expect("directory").blocks;
    assert!(
        blocks.len() > 4,
        "the script's windows need a surviving head"
    );
    damaged[blocks[blocks.len() - 1].offset as usize + 3] ^= 0x04;

    let full = trace.resident_event_bytes();
    for threads in [Threads::single(), Threads::new(2), Threads::auto()] {
        for budget in [None, Some(full / 2), Some(0)] {
            for salvaged in [false, true] {
                let mut stored = if salvaged {
                    StoredTrace::from_bytes(damaged.clone())
                        .expect("store opens")
                        .salvage()
                } else {
                    StoredTrace::from_bytes(bytes.clone()).expect("store opens")
                };
                stored.set_decode_threads(threads);
                let mut store = StoreSession::from_store(stored);
                store.set_residency_budget(budget);
                let mut manager = SessionManager::new(4);
                manager.register_store("disk", store);
                let Response::Opened { session, .. } = manager.handle(&Request::Open {
                    trace: "disk".into(),
                }) else {
                    panic!("disk trace must open");
                };
                let mut identical = 0;
                for (request, expected) in script(session, bounds).iter().zip(&expected) {
                    if matches!(request, Request::Lint { .. }) {
                        continue; // the store pipeline has no lint stage
                    }
                    let response = manager.handle(request);
                    if salvaged && matches!(response, Response::Error { .. }) {
                        continue; // refused explicitly, never answered approximately
                    }
                    assert_eq!(
                        &response.encode(),
                        expected,
                        "threads {threads}, budget {budget:?}, salvaged {salvaged}: {request:?}"
                    );
                    identical += 1;
                }
                assert!(
                    identical > 0,
                    "a salvaged store must still answer something"
                );
            }
        }
    }
}
