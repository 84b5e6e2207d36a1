//! The connect and shutdown paths: the acceptor blocks in `accept` instead of
//! polling, so a connection is served the moment it arrives, and shutdown wakes
//! the acceptor instead of waiting for it to come round. A client that stalls
//! mid-frame or stops reading cannot pin a worker past the request timeout.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aftermath_core::timeline::TimelineMode;
use aftermath_core::{SharedSession, Threads};
use aftermath_serve::manager::MAX_COLUMNS;
use aftermath_serve::protocol::{read_frame, write_frame};
use aftermath_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server, SessionManager};
use aftermath_trace::{CpuId, MachineTopology, Timestamp, TraceBuilder, WorkerState};

/// Far above what a blocking accept needs, far below one poll tick per connect.
const PROMPT: Duration = Duration::from_secs(1);

fn server(config: ServeConfig) -> Server {
    let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
    b.add_state(
        CpuId(0),
        WorkerState::Idle,
        Timestamp(0),
        Timestamp(100),
        None,
    )
    .expect("state recorded");
    let trace = Arc::new(b.finish().expect("trace builds"));
    let mut manager = SessionManager::new(8);
    manager.register_memory(
        "tiny",
        Arc::new(SharedSession::open(trace, Threads::single())),
    );
    Server::start(Arc::new(manager), config).expect("server starts")
}

#[test]
fn sequential_connects_do_not_wait_for_a_poll_tick() {
    let server = server(ServeConfig::default());
    let started = Instant::now();
    for _ in 0..20 {
        let mut client = Client::connect(server.addr()).expect("connects");
        let session = client.open("tiny").expect("opens");
        client.close(session).expect("closes");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < PROMPT,
        "20 connect + open + close round trips took {elapsed:?}"
    );
}

#[test]
fn shutdown_returns_promptly_with_no_client_and_with_an_idle_one() {
    let idle_server = server(ServeConfig::default());
    let started = Instant::now();
    idle_server.shutdown();
    assert!(
        started.elapsed() < PROMPT,
        "shutdown without clients took {:?}",
        started.elapsed()
    );

    let busy_server = server(ServeConfig::default());
    let mut client = Client::connect(busy_server.addr()).expect("connects");
    let _session = client.open("tiny").expect("opens");
    let started = Instant::now();
    busy_server.shutdown();
    assert!(
        started.elapsed() < PROMPT,
        "shutdown with an idle client took {:?}",
        started.elapsed()
    );
    // The connection is gone with the server.
    assert!(client.open("tiny").is_err());
}

#[test]
fn shutdown_reaches_an_acceptor_bound_to_the_unspecified_address() {
    let server = server(ServeConfig {
        addr: "0.0.0.0:0".parse().expect("literal address parses"),
        ..ServeConfig::default()
    });
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < PROMPT,
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn saturated_pool_still_answers_server_full() {
    let server = server(ServeConfig {
        workers: 1,
        backlog: 0,
        ..ServeConfig::default()
    });
    // A served round trip proves the only worker is inside this connection.
    let mut first = Client::connect(server.addr()).expect("connects");
    let session = first.open("tiny").expect("opens");

    let mut refused = TcpStream::connect(server.addr()).expect("connects");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let payload = read_frame(&mut refused).expect("refusal frame arrives");
    match Response::decode(&payload).expect("refusal decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ServerFull),
        other => panic!("expected ServerFull, got {other:?}"),
    }

    // The first connection is unaffected, and its worker frees up when it goes.
    first.close(session).expect("closes");
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut next = Client::connect(server.addr()).expect("connects");
        match next.open("tiny") {
            Ok(_) => break,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(error) => panic!("the freed worker never served again: {error}"),
        }
    }
}

/// The bytes of one frame carrying `request`.
fn frame(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &request.encode()).expect("frame encodes");
    bytes
}

/// Reads one response off `stream`.
fn response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream).expect("a response frame arrives");
    Response::decode(&payload).expect("response decodes")
}

#[test]
fn a_stalled_frame_is_cut_off_even_behind_a_complete_one() {
    let server = server(ServeConfig {
        request_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    // A complete `Stats` frame and two bytes of the next in one write; and a
    // lone half frame.
    let behind = [frame(&Request::Stats), vec![9, 0]].concat();
    for (what, bytes, answers) in [
        ("behind a complete frame", behind, 1),
        ("alone", vec![9, 0], 0),
    ] {
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        stream.write_all(&bytes).expect("bytes sent");
        for _ in 0..answers {
            assert!(
                matches!(response(&mut stream), Response::Stats(_)),
                "{what}: the complete frame is answered"
            );
        }
        match response(&mut stream) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout, "{what}"),
            other => panic!("{what}: expected Timeout, got {other:?}"),
        }
    }
}

#[test]
fn a_client_that_stops_reading_cannot_hold_up_shutdown() {
    let request_timeout = Duration::from_millis(500);
    let server = server(ServeConfig {
        request_timeout,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    stream
        .write_all(&frame(&Request::Open {
            trace: "tiny".into(),
        }))
        .expect("open sent");
    let Response::Opened {
        session, interval, ..
    } = response(&mut stream)
    else {
        panic!("tiny must open");
    };
    // Far more response bytes than the loopback buffers hold, never read.
    let widest = frame(&Request::Timeline {
        session,
        mode: TimelineMode::State,
        interval,
        columns: MAX_COLUMNS,
    });
    stream
        .write_all(&widest.repeat(2_000))
        .expect("requests sent");

    let (done, returned) = channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        done.send(()).expect("the test listens");
    });
    returned
        .recv_timeout(request_timeout + Duration::from_secs(5))
        .expect("shutdown must not wait on a client that stopped reading");
    shutdown.join().expect("shutdown thread");
    drop(stream);
}

/// A socket refuses a zero write timeout, so a server started with one would
/// end every connection at once without a byte sent: `start` refuses it.
#[test]
fn a_zero_request_timeout_is_refused_at_start() {
    let config = |request_timeout| ServeConfig {
        request_timeout,
        ..ServeConfig::default()
    };
    let manager = Arc::new(SessionManager::new(8));
    let refused = Server::start(Arc::clone(&manager), config(Duration::ZERO))
        .expect_err("a zero timeout is refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    let server = Server::start(manager, config(Duration::from_millis(1))).expect("1 ms starts");
    server.shutdown();
}
