//! # aftermath-serve
//!
//! The multi-session analysis server of Aftermath-rs: many clients, many
//! traces, one process, shared everything that can be shared.
//!
//! The ISPASS 2016 Aftermath paper's interactivity argument — a timeline
//! frame must come back fast enough to keep zooming fluid — is usually read
//! as a single-user requirement. This crate extends it to the team setting:
//! one analysis box holds the big traces open, and every analyst's viewer is
//! a thin client. The pieces:
//!
//! * **[`SessionManager`]** ([`manager`]) — registered traces (resident
//!   [`aftermath_core::SharedSession`]s or on-disk
//!   [`aftermath_core::StoreSession`]s), the open-session table, and the one
//!   request → response function, [`manager::direct_response`]. Sessions over
//!   the same trace share its counter indexes, state pyramids and result
//!   caches, so the N-th session costs bookkeeping, not gigabytes —
//!   and one client's computed frame is every other client's cache hit.
//! * **[`protocol`]** — a compact length-prefixed request/response wire
//!   format (open/close, timeline frames, interval queries, anomaly reports,
//!   drill-in filters, lint summaries, server stats) with a version byte and
//!   hardened decoding: bounded lengths, typed errors, no panics on hostile
//!   bytes.
//! * **[`Server`]** ([`server`]) — a std-only threaded TCP front end on the
//!   exec crate's worker pool, with connection admission limits, request
//!   timeouts, and graceful shutdown that closes abandoned sessions.
//! * **[`Client`]** ([`client`]) — the small blocking client the load
//!   generator and the CI smoke test speak.
//!
//! The contract that keeps the server honest is byte-identity: every response
//! encodes exactly what a direct, in-process
//! [`aftermath_core::AnalysisSession`] over the same trace produces — the
//! manager answers through the same function — and the serve bench and the CI
//! smoke step still check it end to end, over the wire.
//!
//! ```no_run
//! use std::sync::Arc;
//! use aftermath_core::{SharedSession, Threads};
//! use aftermath_serve::{Client, Request, Server, ServeConfig, SessionManager};
//! # fn trace() -> aftermath_trace::Trace { unimplemented!() }
//!
//! # fn main() -> std::io::Result<()> {
//! let shared = SharedSession::open(Arc::new(trace()), Threads::auto());
//! let mut manager = SessionManager::new(256);
//! manager.register_memory("prod-run", Arc::new(shared));
//! let server = Server::start(Arc::new(manager), ServeConfig::default())?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let session = client.open("prod-run")?;
//! let response = client.request(&Request::Lint { session })?;
//! println!("{response:?}");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod manager;
pub mod protocol;
pub mod server;

pub use client::{Client, RetriesExhausted, RetryPolicy};
pub use manager::{SessionManager, StoreEntry, TraceEntry};
pub use protocol::{
    DetectorSet, ErrorCode, QueryResult, Request, Response, ServerStats, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};
