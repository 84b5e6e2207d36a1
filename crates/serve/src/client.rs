//! A minimal blocking client for the analysis server — what the load
//! generator, the CI smoke step and the integration tests speak.
//!
//! [`Client::request_with_retry`] adds the resilience side: transport
//! failures (refused frames, dropped connections, read timeouts) are retried
//! over a fresh connection with capped exponential backoff and deterministic
//! jitter. Retrying is safe for this protocol because the server closes every
//! session its connection opened when the connection drops: a request retried
//! over a new connection either succeeds normally or answers
//! `UnknownSession` for a now-dead session id — it can never return another
//! session's data, and a retried `Open` whose lost first attempt actually
//! succeeded leaks nothing (the dead connection's session was reaped).

use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use aftermath_trace::fault::splitmix64;

use crate::protocol::{read_frame, send_frame, Request, Response};

/// Retry budget and backoff shape of [`Client::request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = behave like [`Client::request`]).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to `max_backoff`.
    pub initial_backoff: Duration,
    /// Ceiling on one backoff sleep (before jitter).
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter (up to +50% per sleep), so chaos
    /// runs replay exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff sleep before retry number `retry` (0-based): capped
    /// exponential plus deterministic jitter.
    fn backoff(&self, retry: u32) -> Duration {
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let jitter_space = base.as_micros() as u64 / 2;
        if jitter_space == 0 {
            return base;
        }
        let jitter = splitmix64(self.seed ^ u64::from(retry)) % jitter_space;
        base + Duration::from_micros(jitter)
    }
}

/// The retry budget of one [`Client::request_with_retry`] call ran out.
#[derive(Debug)]
pub struct RetriesExhausted {
    /// Attempts made (initial try plus retries).
    pub attempts: u32,
    /// The failure of the final attempt.
    pub last: io::Error,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request failed after {} attempts: {}",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for RetriesExhausted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

/// One blocking connection to an analysis server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Peer address, kept so retries can reconnect.
    addr: SocketAddr,
    /// Configured timeout, re-applied to reconnected streams.
    timeout: Option<Duration>,
    /// Cumulative retries performed by [`Self::request_with_retry`].
    retries: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            timeout: None,
            retries: 0,
        })
    }

    /// Caps how long [`Self::request`] waits to send a request frame and to
    /// receive the response frame (both directions — a stalled server must
    /// not hang the client on write any more than on read).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures. A zero duration is refused
    /// ([`io::ErrorKind::InvalidInput`]) and leaves the timeout as it was, so
    /// later reconnects keep working.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Total retries performed by [`Self::request_with_retry`] over the
    /// lifetime of this client (reconnects included).
    pub fn retries_performed(&self) -> u64 {
        self.retries
    }

    /// Sends `request` and returns the raw response payload, undecoded —
    /// the form the bench's byte-identity check compares against a direct
    /// session's encoding.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures (including read timeouts).
    pub fn request_raw(&mut self, request: &Request) -> io::Result<Vec<u8>> {
        send_frame(&mut self.stream, request.frame())?;
        self.stream.flush()?;
        read_frame(&mut self.stream)
    }

    /// Sends `request` and decodes the response.
    ///
    /// # Errors
    ///
    /// Socket I/O failures, or `InvalidData` when the response payload does
    /// not decode.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let payload = self.request_raw(request)?;
        Response::decode(&payload)
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))
    }

    /// [`Self::request_raw`] with retries: on any transport failure the
    /// client sleeps the policy's backoff, reconnects, and resends, up to the
    /// policy's budget. Server-side errors arrive as ordinary `Error`
    /// *responses* and are never retried. See the module docs for why a
    /// resend over a fresh connection is safe.
    ///
    /// # Errors
    ///
    /// [`RetriesExhausted`] carrying the final attempt's failure.
    pub fn request_raw_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> Result<Vec<u8>, RetriesExhausted> {
        self.with_retry(policy, |client| client.request_raw(request))
    }

    /// [`Self::request`] with retries (see [`Self::request_raw_with_retry`]).
    ///
    /// # Errors
    ///
    /// [`RetriesExhausted`]; an undecodable response payload counts as a
    /// failed attempt.
    pub fn request_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, RetriesExhausted> {
        self.with_retry(policy, |client| client.request(request))
    }

    /// Runs `attempt` up to `1 + max_retries` times, reconnecting and backing
    /// off between tries.
    fn with_retry<T>(
        &mut self,
        policy: &RetryPolicy,
        mut attempt: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> Result<T, RetriesExhausted> {
        let mut last: Option<io::Error> = None;
        for try_index in 0..=policy.max_retries {
            if try_index > 0 {
                self.retries += 1;
                std::thread::sleep(policy.backoff(try_index - 1));
                if let Err(error) = self.reconnect() {
                    last = Some(error);
                    continue;
                }
            }
            match attempt(self) {
                Ok(value) => return Ok(value),
                Err(error) => last = Some(error),
            }
        }
        Err(RetriesExhausted {
            attempts: policy.max_retries + 1,
            last: last.unwrap_or_else(|| io::Error::other("no attempt was made")),
        })
    }

    /// Severs the underlying connection without telling the server — the
    /// chaos harness's stand-in for a killed network path. The next request
    /// fails at the transport level, which is exactly what
    /// [`Self::request_with_retry`] exists to recover from.
    ///
    /// # Errors
    ///
    /// Propagates socket shutdown failures (e.g. already disconnected).
    pub fn sever(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Both)
    }

    /// Replaces the connection with a fresh one to the same peer, carrying
    /// over the configured timeout.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Opens a session on `trace` and returns its id.
    ///
    /// # Errors
    ///
    /// I/O failures, or `Other` carrying the server's error message.
    pub fn open(&mut self, trace: &str) -> io::Result<u64> {
        match self.request(&Request::Open {
            trace: trace.into(),
        })? {
            Response::Opened { session, .. } => Ok(session),
            Response::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::other(format!(
                "unexpected response to Open: {other:?}"
            ))),
        }
    }

    /// Closes a session previously returned by [`Self::open`].
    ///
    /// # Errors
    ///
    /// I/O failures, or `Other` carrying the server's error message.
    pub fn close(&mut self, session: u64) -> io::Result<()> {
        match self.request(&Request::Close { session })? {
            Response::Closed => Ok(()),
            Response::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::other(format!(
                "unexpected response to Close: {other:?}"
            ))),
        }
    }
}
