//! The connect and shutdown paths: the acceptor blocks in `accept` instead of
//! polling, so a connection is served the moment it arrives, and shutdown wakes
//! the acceptor instead of waiting for it to come round.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aftermath_core::{SharedSession, Threads};
use aftermath_serve::protocol::read_frame;
use aftermath_serve::{Client, ErrorCode, Response, ServeConfig, Server, SessionManager};
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
