//! The threaded TCP front end: accept loop, connection workers, admission
//! limits, request timeouts and graceful shutdown.
//!
//! The server is deliberately plain `std` networking on top of the exec
//! crate's [`WorkerPool`]: one listener thread accepts connections and hands
//! each one to the pool; the pool's admission bound doubles as the connection
//! limit, so a flood of connections is refused with a best-effort
//! `ServerFull` frame instead of unbounded thread growth. Each connection
//! worker runs a read-decode-handle-encode loop against the shared
//! [`SessionManager`]; requests on memory-backed traces execute concurrently
//! across workers because sessions are cheap `Sync` views over shared state.
//!
//! The acceptor blocks in `accept`, so a connection is handed to the pool the
//! moment it arrives; shutdown sets the flag and wakes the acceptor with a
//! loopback connection to its own port. Connections read with a short poll
//! timeout so every worker notices shutdown within one tick even while idle.
//! Every read *and every write* is bounded by the configured request timeout —
//! a half-open socket must not pin a pool worker, or hold up shutdown,
//! forever: a client that starts a frame but stalls mid-payload (also behind a
//! complete frame that arrived in the same read) is cut off with a `Timeout`
//! frame, and a response write that cannot complete because the client stopped
//! reading ends the connection. When a connection closes, every session it
//! opened and did not close is closed for it.
//!
//! A request that panics while computing its response is contained twice
//! over: the connection loop catches the unwind and answers a typed
//! `Internal` error (the connection and its sessions keep working), and the
//! worker pool catches anything that still escapes so the worker thread
//! itself survives for the next connection.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aftermath_exec::WorkerPool;

use crate::protocol::{send_frame, ErrorCode, Request, Response, FRAME_HEADER, MAX_FRAME_LEN};
use crate::SessionManager;

/// Tuning knobs of [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; use port 0 to let the OS pick one.
    pub addr: SocketAddr,
    /// Connection workers (each serves one connection at a time).
    pub workers: usize,
    /// Connections queued beyond the idle workers before new ones are
    /// refused with `ServerFull`.
    pub backlog: usize,
    /// How long a started frame may stall, or a response write block, before
    /// its connection is cut off. Must be non-zero — a socket refuses a zero
    /// write timeout — so [`Server::start`] refuses a zero one.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal address parses"),
            workers: 8,
            backlog: 64,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// How often idle connections re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(100);

/// A running server; dropping it shuts it down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    // Dropped after the acceptor is joined: pool shutdown joins connection
    // workers, which exit within one poll tick of the flag being set.
    pool: Option<Arc<WorkerPool>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `manager` in the background.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidInput`] for a zero `config.request_timeout`, before
    /// anything is bound; otherwise propagates bind failures.
    pub fn start(manager: Arc<SessionManager>, config: ServeConfig) -> io::Result<Server> {
        if config.request_timeout.is_zero() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "request_timeout must be non-zero",
            ));
        }
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(WorkerPool::new(config.workers, config.backlog));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                accept_loop(listener, manager, pool, shutdown, config.request_timeout)
            })
        };
        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            pool: Some(pool),
        })
    }

    /// The bound address (with the OS-assigned port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Panics contained by the connection workers' pool so far. The chaos
    /// harness gates this at zero: every failure path is supposed to be a
    /// typed error response, not an unwind.
    pub fn panics_caught(&self) -> u64 {
        self.pool.as_ref().map_or(0, |pool| pool.panics_caught())
    }

    /// Stops accepting, disconnects every client and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor blocks in `accept`: a connection to its own port wakes
            // it, and it re-checks the flag before doing anything with it. An
            // unspecified bind address (0.0.0.0, ::) is reached through loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // A wake-up that cannot be delivered means the accept queue is full
            // or `accept` itself is failing: either way the acceptor is about to
            // come round to the flag on its own.
            let _ = TcpStream::connect_timeout(&wake, POLL_TICK);
            let _ = acceptor.join();
        }
        // Joins connection workers; each exits within one poll tick.
        self.pool = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: TcpListener,
    manager: Arc<SessionManager>,
    pool: Arc<WorkerPool>,
    shutdown: Arc<AtomicBool>,
    request_timeout: Duration,
) {
    loop {
        let accepted = listener.accept();
        // Checked after every accept: shutdown wakes the acceptor by connecting.
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        let job = {
            let manager = Arc::clone(&manager);
            let shutdown = Arc::clone(&shutdown);
            let stream = stream.try_clone();
            move || {
                if let Ok(stream) = stream {
                    serve_connection(stream, &manager, &shutdown, request_timeout);
                }
            }
        };
        if pool.try_execute(job).is_err() {
            // Saturated or shutting down: refuse politely and move on. The
            // write is best-effort — the client may already be gone.
            refuse(stream);
        }
    }
}

fn refuse(mut stream: TcpStream) {
    let frame = Response::Error {
        code: ErrorCode::ServerFull,
        message: "connection limit reached; retry later".into(),
    }
    .frame();
    let _ = stream.set_write_timeout(Some(POLL_TICK));
    let _ = send_frame(&mut stream, frame);
}

fn serve_connection(
    mut stream: TcpStream,
    manager: &SessionManager,
    shutdown: &AtomicBool,
    request_timeout: Duration,
) {
    // Sessions opened over this connection, auto-closed on disconnect.
    let mut sessions: Vec<u64> = Vec::new();
    let _ = stream.set_nodelay(true);
    let outcome = connection_loop(
        &mut stream,
        manager,
        shutdown,
        request_timeout,
        &mut sessions,
    );
    if let Err(ConnectionEnd::Timeout) = outcome {
        let frame = Response::Error {
            code: ErrorCode::Timeout,
            message: "frame did not complete within the request timeout".into(),
        }
        .frame();
        let _ = send_frame(&mut stream, frame);
    }
    for session in sessions {
        manager.close_session(session);
    }
}

enum ConnectionEnd {
    /// Peer closed, I/O failed, or the server is shutting down.
    Disconnected,
    /// A started frame stalled past the request timeout.
    Timeout,
    /// The peer sent bytes that do not decode; a `BadRequest` was sent.
    ProtocolError,
}

fn connection_loop(
    stream: &mut TcpStream,
    manager: &SessionManager,
    shutdown: &AtomicBool,
    request_timeout: Duration,
    sessions: &mut Vec<u64>,
) -> Result<(), ConnectionEnd> {
    stream
        .set_read_timeout(Some(POLL_TICK))
        .and_then(|()| stream.set_write_timeout(Some(request_timeout)))
        .map_err(|_| ConnectionEnd::Disconnected)?;
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut frame_started_at: Option<Instant> = None;
    loop {
        while let Some(payload) = take_frame(&mut buffer).map_err(|_| {
            let _ = send(stream, bad_request("frame length exceeds MAX_FRAME_LEN"));
            ConnectionEnd::ProtocolError
        })? {
            frame_started_at = None;
            let request = match Request::decode(&payload) {
                Ok(request) => request,
                Err(error) => {
                    let _ = send(stream, bad_request(&error.to_string()));
                    return Err(ConnectionEnd::ProtocolError);
                }
            };
            // A panic while computing one response must poison neither the
            // worker nor the connection: contain it here and answer
            // `Internal`, exactly like any other server-side failure.
            let response =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| manager.handle(&request)))
                    .unwrap_or_else(|_| Response::Error {
                        code: ErrorCode::Internal,
                        message: "the server panicked while computing this response".into(),
                    });
            match (&request, &response) {
                (Request::Open { .. }, Response::Opened { session, .. }) => {
                    sessions.push(*session);
                }
                (Request::Close { session }, Response::Closed) => {
                    sessions.retain(|s| s != session);
                }
                _ => {}
            }
            send(stream, response).map_err(|_| ConnectionEnd::Disconnected)?;
        }
        // Bytes left behind the last complete frame start the next one: its
        // clock runs from now unless it was already running.
        if buffer.is_empty() {
            frame_started_at = None;
        } else if frame_started_at.is_none() {
            frame_started_at = Some(Instant::now());
        }
        if shutdown.load(Ordering::SeqCst) {
            return Err(ConnectionEnd::Disconnected);
        }
        if let Some(started) = frame_started_at {
            if started.elapsed() >= request_timeout {
                return Err(ConnectionEnd::Timeout);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(ConnectionEnd::Disconnected),
        }
    }
}

/// Pops one complete frame off the front of `buffer`, if present.
///
/// # Errors
///
/// A length prefix over [`MAX_FRAME_LEN`] is a protocol violation.
fn take_frame(buffer: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ()> {
    if buffer.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buffer[0], buffer[1], buffer[2], buffer[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(());
    }
    if buffer.len() < 4 + len {
        return Ok(None);
    }
    let payload = buffer[4..4 + len].to_vec();
    buffer.drain(..4 + len);
    Ok(Some(payload))
}

fn bad_request(message: &str) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: message.into(),
    }
}

fn send(stream: &mut TcpStream, response: Response) -> io::Result<()> {
    let frame = response.frame();
    let frame = if frame.len() - FRAME_HEADER > MAX_FRAME_LEN {
        Response::Error {
            code: ErrorCode::Internal,
            message: "response exceeds the frame size limit".into(),
        }
        .frame()
    } else {
        frame
    };
    send_frame(stream, frame)?;
    stream.flush()
}
