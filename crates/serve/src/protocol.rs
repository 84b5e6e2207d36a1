//! The compact request/response wire protocol of the analysis server.
//!
//! Every message travels as one length-prefixed frame: a little-endian `u32`
//! payload length (at most [`MAX_FRAME_LEN`]) followed by the payload. The
//! payload starts with the protocol version byte ([`PROTOCOL_VERSION`]) and a
//! message tag, then the tag's fields in the trace format's conventions
//! (LEB128 varints, little-endian `f64` bit patterns, length-prefixed UTF-8)
//! via the bounded [`WireReader`]/[`WireWriter`] primitives.
//!
//! Decoding follows the same discipline as the on-disk store's open-time
//! validation: frames come from the network, so every length is bounded by
//! the frame that carries it, every tag and index is validated, and malformed
//! input yields a typed [`WireError`] — never a panic, never an oversized
//! allocation. The proptests in `tests/wire_proptests.rs` fuzz truncated and
//! bit-flipped frames against exactly this contract.
//!
//! | tag | request | response |
//! |-----|--------------------------|---------------------------|
//! | 0   | —                        | `Error` (code + message)  |
//! | 1   | `Open` (trace name)      | `Opened` (session, bounds)|
//! | 2   | `Close` (session)        | `Closed`                  |
//! | 3   | `Timeline` (viewport)    | `Timeline` (cell model)   |
//! | 4   | `Query` (interval, cpu)  | `Query` (aggregates)      |
//! | 5   | `Anomalies` (detectors)  | `Anomalies` (ranked list) |
//! | 6   | `DrillIn` (rank+viewport)| `DrillIn` (filtered model)|
//! | 7   | `Lint` (session)         | `Lint` (summary counts)   |
//! | 8   | `Stats`                  | `Stats` (server counters) |

use std::io::{self, Read, Write};

use aftermath_core::anomaly::{Anomaly, AnomalyConfig, AnomalyKind};
use aftermath_core::timeline::{TimelineCell, TimelineMode, TimelineModel};
use aftermath_trace::wire::{WireError, WireReader, WireWriter};
use aftermath_trace::{
    CounterId, CpuId, LintCode, NumaNodeId, TaskId, TaskTypeId, TimeInterval, WorkerState,
};

/// Version byte every payload starts with; decoders reject other versions.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame's payload, enforced by both frame I/O directions.
/// Large enough for the biggest legitimate response (a many-CPU timeline
/// model or a full anomaly report), small enough that a hostile length prefix
/// cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Longest accepted trace name in an `Open` request.
pub const MAX_TRACE_NAME: usize = 4096;

/// Longest accepted error message / anomaly explanation string.
pub const MAX_MESSAGE_LEN: usize = 1024 * 1024;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Bytes of a frame's length prefix.
pub(crate) const FRAME_HEADER: usize = 4;

/// A writer for one whole frame: its length prefix reserved (filled in by
/// [`send_frame`]), the payload to follow, so the payload is written once,
/// where it is sent from.
fn frame_writer() -> WireWriter {
    let mut w = WireWriter::new();
    w.bytes(&[0; FRAME_HEADER]);
    w
}

/// Writes one frame: `u32` little-endian payload length, then the payload.
///
/// # Errors
///
/// `InvalidInput` for a payload over [`MAX_FRAME_LEN`]; otherwise propagates
/// writer errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = frame_writer();
    frame.bytes(payload);
    send_frame(w, frame.into_vec())
}

/// Writes one frame built on a [`frame_writer`] (`Request::frame`,
/// `Response::frame`): fills in its length prefix and sends prefix and payload
/// in one write — one segment on a `TCP_NODELAY` socket, one wake-up of the
/// peer.
///
/// # Errors
///
/// As [`write_frame`].
pub(crate) fn send_frame<W: Write>(w: &mut W, mut frame: Vec<u8>) -> io::Result<()> {
    let len = frame.len() - FRAME_HEADER;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME_LEN",
        ));
    }
    frame[..FRAME_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)
}

/// Reads one frame written by [`write_frame`].
///
/// # Errors
///
/// `InvalidData` for a length prefix over [`MAX_FRAME_LEN`]; otherwise
/// propagates reader errors (including `UnexpectedEof` on truncation).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Which anomaly detectors a request enables, as a bitmask over
/// [`AnomalyKind::ALL`] (bit `i` enables kind `i` with default parameters).
///
/// The full [`AnomalyConfig`] carries floating-point tuning knobs that no
/// interactive client sets per request; the wire form deliberately exposes
/// only the enable bits plus the report size, which keeps the cache key space
/// small — and shared cache hits are the whole point of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectorSet(pub u8);

impl DetectorSet {
    /// Every detector enabled.
    pub const ALL: DetectorSet = DetectorSet(0b1111);

    /// The equivalent engine configuration with default detector parameters.
    pub fn config(self, max_anomalies: usize) -> AnomalyConfig {
        AnomalyConfig {
            idle: (self.0 & 1 != 0).then(Default::default),
            numa: (self.0 & 2 != 0).then(Default::default),
            counter: (self.0 & 4 != 0).then(Default::default),
            duration: (self.0 & 8 != 0).then(Default::default),
            max_anomalies,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session on a registered trace; the response carries the
    /// session id every later request presents.
    Open {
        /// Registered name of the trace.
        trace: String,
    },
    /// Closes a session (sessions also close when their connection drops).
    Close {
        /// Session to close.
        session: u64,
    },
    /// One timeline frame over the viewport.
    Timeline {
        /// Session id from `Open`.
        session: u64,
        /// Timeline mode.
        mode: TimelineMode,
        /// Visible time interval.
        interval: TimeInterval,
        /// Horizontal resolution in cells.
        columns: u32,
    },
    /// Aggregate interval statistics for one CPU.
    Query {
        /// Session id from `Open`.
        session: u64,
        /// Queried time window.
        interval: TimeInterval,
        /// CPU to aggregate.
        cpu: CpuId,
        /// Counter for min/max/average statistics, when wanted.
        counter: Option<CounterId>,
    },
    /// The ranked anomaly report.
    Anomalies {
        /// Session id from `Open`.
        session: u64,
        /// Enabled detectors.
        detectors: DetectorSet,
        /// Maximum findings kept in the ranked report.
        max_anomalies: u32,
    },
    /// A timeline frame restricted to one ranked anomaly's drill-in filter
    /// (the paper's "drill in on a finding" flow), over that anomaly's
    /// interval.
    DrillIn {
        /// Session id from `Open`.
        session: u64,
        /// Enabled detectors (must match the `Anomalies` request whose
        /// ranking `rank` refers into).
        detectors: DetectorSet,
        /// Maximum findings of the referenced report.
        max_anomalies: u32,
        /// Rank of the anomaly to drill into (0 = most severe).
        rank: u32,
        /// Timeline mode of the filtered frame.
        mode: TimelineMode,
        /// Horizontal resolution in cells.
        columns: u32,
    },
    /// The lint summary the session's trace went through before analysis.
    Lint {
        /// Session id from `Open`.
        session: u64,
    },
    /// Server-wide session and cache statistics.
    Stats,
}

impl Request {
    /// Encodes the request as one frame payload (version byte included).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_onto(WireWriter::new())
    }

    /// The request as one whole frame for [`send_frame`]: its payload written
    /// after the reserved length prefix.
    pub(crate) fn frame(&self) -> Vec<u8> {
        self.encode_onto(frame_writer())
    }

    /// Appends the payload to `w` and returns its bytes.
    fn encode_onto(&self, mut w: WireWriter) -> Vec<u8> {
        w.u8(PROTOCOL_VERSION);
        match self {
            Request::Open { trace } => {
                w.u8(1);
                w.string(trace);
            }
            Request::Close { session } => {
                w.u8(2);
                w.varint(*session);
            }
            Request::Timeline {
                session,
                mode,
                interval,
                columns,
            } => {
                w.u8(3);
                w.varint(*session);
                put_mode(&mut w, *mode);
                put_interval(&mut w, *interval);
                w.varint(u64::from(*columns));
            }
            Request::Query {
                session,
                interval,
                cpu,
                counter,
            } => {
                w.u8(4);
                w.varint(*session);
                put_interval(&mut w, *interval);
                w.varint(u64::from(cpu.0));
                match counter {
                    None => w.u8(0),
                    Some(c) => {
                        w.u8(1);
                        w.varint(u64::from(c.0));
                    }
                }
            }
            Request::Anomalies {
                session,
                detectors,
                max_anomalies,
            } => {
                w.u8(5);
                w.varint(*session);
                w.u8(detectors.0);
                w.varint(u64::from(*max_anomalies));
            }
            Request::DrillIn {
                session,
                detectors,
                max_anomalies,
                rank,
                mode,
                columns,
            } => {
                w.u8(6);
                w.varint(*session);
                w.u8(detectors.0);
                w.varint(u64::from(*max_anomalies));
                w.varint(u64::from(*rank));
                put_mode(&mut w, *mode);
                w.varint(u64::from(*columns));
            }
            Request::Lint { session } => {
                w.u8(7);
                w.varint(*session);
            }
            Request::Stats => {
                w.u8(8);
            }
        }
        w.into_vec()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: wrong version, unknown tag, malformed or trailing
    /// bytes. Never panics on hostile input.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        check_version(&mut r)?;
        let request = match r.u8()? {
            1 => Request::Open {
                trace: r.string(MAX_TRACE_NAME, "trace name")?,
            },
            2 => Request::Close {
                session: r.varint()?,
            },
            3 => Request::Timeline {
                session: r.varint()?,
                mode: get_mode(&mut r)?,
                interval: get_interval(&mut r)?,
                columns: r.u32("columns")?,
            },
            4 => Request::Query {
                session: r.varint()?,
                interval: get_interval(&mut r)?,
                cpu: CpuId(r.u32("cpu id")?),
                counter: match r.u8()? {
                    0 => None,
                    1 => Some(CounterId(r.u32("counter id")?)),
                    _ => return Err(WireError::Malformed("counter option flag")),
                },
            },
            5 => Request::Anomalies {
                session: r.varint()?,
                detectors: get_detectors(&mut r)?,
                max_anomalies: r.u32("max anomalies")?,
            },
            6 => Request::DrillIn {
                session: r.varint()?,
                detectors: get_detectors(&mut r)?,
                max_anomalies: r.u32("max anomalies")?,
                rank: r.u32("anomaly rank")?,
                mode: get_mode(&mut r)?,
                columns: r.u32("columns")?,
            },
            7 => Request::Lint {
                session: r.varint()?,
            },
            8 => Request::Stats,
            _ => return Err(WireError::Malformed("unknown request tag")),
        };
        r.finish()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Machine-readable category of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The `Open` request named a trace the server does not hold.
    UnknownTrace,
    /// The request presented a session id that is not open.
    UnknownSession,
    /// The session admission limit is reached; retry after closing sessions.
    ServerFull,
    /// The request was structurally valid but semantically rejected
    /// (zero columns, empty interval, anomaly rank out of range, ...).
    BadRequest,
    /// The server failed internally while computing the response.
    Internal,
    /// A complete frame did not arrive within the server's request timeout.
    Timeout,
    /// The session's trace was opened in salvage mode and the request falls
    /// outside the surviving coverage; the server refuses to answer rather
    /// than answer approximately. Narrow the interval or re-open the trace
    /// from an undamaged copy.
    Degraded,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownTrace => 1,
            ErrorCode::UnknownSession => 2,
            ErrorCode::ServerFull => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Internal => 5,
            ErrorCode::Timeout => 6,
            ErrorCode::Degraded => 7,
        }
    }

    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            1 => ErrorCode::UnknownTrace,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::ServerFull,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::Degraded,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

/// Aggregate answers of one `Query` request (one CPU, one window) — the wire
/// form of the [`aftermath_core::IntervalQuery`] bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The queried window (echoed).
    pub interval: TimeInterval,
    /// The aggregated CPU (echoed).
    pub cpu: CpuId,
    /// Cycles per worker state, indexed by [`WorkerState::index`].
    pub state_cycles: [u64; WorkerState::COUNT],
    /// Worker state covering the largest part of the window, if any.
    pub predominant_state: Option<WorkerState>,
    /// Number of execution intervals overlapping the window.
    pub exec_count: u64,
    /// Shortest overlapping execution interval in cycles (0 when none).
    pub exec_min_cycles: u64,
    /// Longest overlapping execution interval in cycles (0 when none).
    pub exec_max_cycles: u64,
    /// Execution cycles per task type, ascending by type id.
    pub task_type_cycles: Vec<(TaskTypeId, u64)>,
    /// Bytes read per NUMA node, ascending by node id.
    pub numa_read_bytes: Vec<(NumaNodeId, u64)>,
    /// Bytes written per NUMA node, ascending by node id.
    pub numa_write_bytes: Vec<(NumaNodeId, u64)>,
    /// Min/max of the requested counter over the window, when requested and
    /// covered by samples.
    pub counter_min_max: Option<(f64, f64)>,
    /// Average of the requested counter over the window (see above).
    pub counter_average: Option<f64>,
}

/// Server-wide statistics ([`Request::Stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions open right now.
    pub open_sessions: u64,
    /// Highest concurrent session count since start.
    pub peak_sessions: u64,
    /// Sessions admitted since start.
    pub admitted_sessions: u64,
    /// `Open` requests rejected by the admission limit since start.
    pub rejected_sessions: u64,
    /// Bytes of per-trace state shared by all sessions (resident trace
    /// columns, counter indexes, pyramids, access index — counted once per
    /// trace; for a store-backed trace, as of its last completed request).
    pub shared_bytes: u64,
    /// Bytes of per-session bookkeeping across all open sessions.
    pub session_bytes: u64,
    /// Result-cache hits accumulated across every registered trace.
    pub cache_hits: u64,
    /// Result-cache misses accumulated across every registered trace.
    pub cache_misses: u64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; `code` is machine-readable, `message` for humans.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Session opened.
    Opened {
        /// The session id for later requests.
        session: u64,
        /// Time bounds of the trace.
        interval: TimeInterval,
        /// Number of CPUs in the trace's topology.
        cpus: u32,
    },
    /// Session closed.
    Closed,
    /// A timeline frame.
    Timeline(TimelineModel),
    /// Aggregate interval statistics.
    Query(QueryResult),
    /// The ranked anomaly report, most severe first.
    Anomalies(Vec<Anomaly>),
    /// A drill-in filtered timeline frame.
    DrillIn(TimelineModel),
    /// The lint summary: `None` for a never-linted trace, otherwise
    /// `(code, count)` pairs ascending by [`LintCode::ALL`] position
    /// (an empty list means linted-and-clean).
    Lint(Option<Vec<(LintCode, u64)>>),
    /// Server statistics.
    Stats(ServerStats),
}

impl Response {
    /// Encodes the response as one frame payload (version byte included).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_onto(WireWriter::new())
    }

    /// The response as one whole frame for [`send_frame`]: its payload written
    /// after the reserved length prefix.
    pub(crate) fn frame(&self) -> Vec<u8> {
        self.encode_onto(frame_writer())
    }

    /// Appends the payload to `w` and returns its bytes.
    fn encode_onto(&self, mut w: WireWriter) -> Vec<u8> {
        w.u8(PROTOCOL_VERSION);
        match self {
            Response::Error { code, message } => {
                w.u8(0);
                w.u8(code.as_u8());
                w.string(message);
            }
            Response::Opened {
                session,
                interval,
                cpus,
            } => {
                w.u8(1);
                w.varint(*session);
                put_interval(&mut w, *interval);
                w.varint(u64::from(*cpus));
            }
            Response::Closed => {
                w.u8(2);
            }
            Response::Timeline(model) => {
                w.u8(3);
                put_model(&mut w, model);
            }
            Response::Query(result) => {
                w.u8(4);
                put_query_result(&mut w, result);
            }
            Response::Anomalies(anomalies) => {
                w.u8(5);
                w.varint(anomalies.len() as u64);
                for anomaly in anomalies {
                    put_anomaly(&mut w, anomaly);
                }
            }
            Response::DrillIn(model) => {
                w.u8(6);
                put_model(&mut w, model);
            }
            Response::Lint(summary) => {
                w.u8(7);
                match summary {
                    None => w.u8(0),
                    Some(counts) => {
                        w.u8(1);
                        w.varint(counts.len() as u64);
                        for &(code, count) in counts {
                            w.u8(lint_code_index(code));
                            w.varint(count);
                        }
                    }
                }
            }
            Response::Stats(stats) => {
                w.u8(8);
                for value in [
                    stats.open_sessions,
                    stats.peak_sessions,
                    stats.admitted_sessions,
                    stats.rejected_sessions,
                    stats.shared_bytes,
                    stats.session_bytes,
                    stats.cache_hits,
                    stats.cache_misses,
                ] {
                    w.varint(value);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; never panics on hostile input.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        check_version(&mut r)?;
        let response = match r.u8()? {
            0 => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: r.string(MAX_MESSAGE_LEN, "error message")?,
            },
            1 => Response::Opened {
                session: r.varint()?,
                interval: get_interval(&mut r)?,
                cpus: r.u32("cpu count")?,
            },
            2 => Response::Closed,
            3 => Response::Timeline(get_model(&mut r)?),
            4 => Response::Query(get_query_result(&mut r)?),
            5 => {
                let len = r.len(MIN_ANOMALY_BYTES, "anomaly list")?;
                let mut anomalies = Vec::with_capacity(len);
                for _ in 0..len {
                    anomalies.push(get_anomaly(&mut r)?);
                }
                Response::Anomalies(anomalies)
            }
            6 => Response::DrillIn(get_model(&mut r)?),
            7 => Response::Lint(match r.u8()? {
                0 => None,
                1 => {
                    let len = r.len(2, "lint summary")?;
                    let mut counts = Vec::with_capacity(len);
                    for _ in 0..len {
                        counts.push((lint_code_from_index(r.u8()?)?, r.varint()?));
                    }
                    Some(counts)
                }
                _ => return Err(WireError::Malformed("lint option flag")),
            }),
            8 => {
                let mut values = [0u64; 8];
                for value in &mut values {
                    *value = r.varint()?;
                }
                Response::Stats(ServerStats {
                    open_sessions: values[0],
                    peak_sessions: values[1],
                    admitted_sessions: values[2],
                    rejected_sessions: values[3],
                    shared_bytes: values[4],
                    session_bytes: values[5],
                    cache_hits: values[6],
                    cache_misses: values[7],
                })
            }
            _ => return Err(WireError::Malformed("unknown response tag")),
        };
        r.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

/// Minimum encoded size of one anomaly (used to bound list allocations).
const MIN_ANOMALY_BYTES: usize = 8;

fn check_version(r: &mut WireReader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        PROTOCOL_VERSION => Ok(()),
        _ => Err(WireError::Malformed("unsupported protocol version")),
    }
}

fn put_interval(w: &mut WireWriter, interval: TimeInterval) {
    w.varint(interval.start.0);
    w.varint(interval.end.0);
}

fn get_interval(r: &mut WireReader<'_>) -> Result<TimeInterval, WireError> {
    let start = r.varint()?;
    let end = r.varint()?;
    Ok(TimeInterval::from_cycles(start, end))
}

fn put_mode(w: &mut WireWriter, mode: TimelineMode) {
    match mode {
        TimelineMode::State => w.u8(0),
        TimelineMode::Heatmap {
            min_duration,
            max_duration,
        } => {
            w.u8(1);
            w.varint(min_duration);
            w.varint(max_duration);
        }
        TimelineMode::TaskType => w.u8(2),
        TimelineMode::NumaRead => w.u8(3),
        TimelineMode::NumaWrite => w.u8(4),
        TimelineMode::NumaHeat => w.u8(5),
    }
}

fn get_mode(r: &mut WireReader<'_>) -> Result<TimelineMode, WireError> {
    Ok(match r.u8()? {
        0 => TimelineMode::State,
        1 => TimelineMode::Heatmap {
            min_duration: r.varint()?,
            max_duration: r.varint()?,
        },
        2 => TimelineMode::TaskType,
        3 => TimelineMode::NumaRead,
        4 => TimelineMode::NumaWrite,
        5 => TimelineMode::NumaHeat,
        _ => return Err(WireError::Malformed("unknown timeline mode")),
    })
}

fn get_detectors(r: &mut WireReader<'_>) -> Result<DetectorSet, WireError> {
    let bits = r.u8()?;
    if bits & !DetectorSet::ALL.0 != 0 {
        return Err(WireError::Malformed("unknown detector bits"));
    }
    Ok(DetectorSet(bits))
}

fn put_cell(w: &mut WireWriter, cell: TimelineCell) {
    match cell {
        TimelineCell::Empty => w.u8(0),
        TimelineCell::State(state) => {
            w.u8(1);
            w.u8(state.index() as u8);
        }
        TimelineCell::Shade(shade) => {
            w.u8(2);
            w.f64(shade);
        }
        TimelineCell::Type(ty) => {
            w.u8(3);
            w.varint(u64::from(ty.0));
        }
        TimelineCell::Node(node) => {
            w.u8(4);
            w.varint(u64::from(node.0));
        }
    }
}

fn get_cell(r: &mut WireReader<'_>) -> Result<TimelineCell, WireError> {
    Ok(match r.u8()? {
        0 => TimelineCell::Empty,
        1 => TimelineCell::State(
            WorkerState::from_index(r.u8()? as usize)
                .ok_or(WireError::Malformed("unknown worker state"))?,
        ),
        2 => TimelineCell::Shade(r.f64()?),
        3 => TimelineCell::Type(TaskTypeId(r.u32("task type id")?)),
        4 => TimelineCell::Node(NumaNodeId(r.u32("numa node id")?)),
        _ => return Err(WireError::Malformed("unknown timeline cell tag")),
    })
}

fn put_model(w: &mut WireWriter, model: &TimelineModel) {
    put_interval(w, model.interval);
    w.varint(model.cpus.len() as u64);
    for cpu in &model.cpus {
        w.varint(u64::from(cpu.0));
    }
    w.varint(model.columns as u64);
    for row in &model.cells {
        for &cell in row {
            put_cell(w, cell);
        }
    }
}

fn get_model(r: &mut WireReader<'_>) -> Result<TimelineModel, WireError> {
    let interval = get_interval(r)?;
    let num_cpus = r.len(1, "timeline cpu list")?;
    let mut cpus = Vec::with_capacity(num_cpus);
    for _ in 0..num_cpus {
        cpus.push(CpuId(r.u32("cpu id")?));
    }
    let columns = r.varint()?;
    // Every cell occupies at least one byte, so `rows x columns` must fit in
    // what remains of the frame — a hostile column count fails here instead
    // of sizing an allocation.
    let remaining = r.remaining() as u64;
    if (num_cpus as u64).saturating_mul(columns) > remaining {
        return Err(WireError::TooLarge("timeline cell matrix"));
    }
    let columns = columns as usize;
    let mut cells = Vec::with_capacity(num_cpus);
    for _ in 0..num_cpus {
        let mut row = Vec::with_capacity(columns);
        for _ in 0..columns {
            row.push(get_cell(r)?);
        }
        cells.push(row);
    }
    Ok(TimelineModel {
        interval,
        cpus,
        columns,
        cells,
    })
}

fn put_query_result(w: &mut WireWriter, result: &QueryResult) {
    put_interval(w, result.interval);
    w.varint(u64::from(result.cpu.0));
    for &cycles in &result.state_cycles {
        w.varint(cycles);
    }
    match result.predominant_state {
        None => w.u8(0),
        Some(state) => {
            w.u8(1);
            w.u8(state.index() as u8);
        }
    }
    w.varint(result.exec_count);
    w.varint(result.exec_min_cycles);
    w.varint(result.exec_max_cycles);
    w.varint(result.task_type_cycles.len() as u64);
    for &(ty, cycles) in &result.task_type_cycles {
        w.varint(u64::from(ty.0));
        w.varint(cycles);
    }
    for pairs in [&result.numa_read_bytes, &result.numa_write_bytes] {
        w.varint(pairs.len() as u64);
        for &(node, bytes) in pairs {
            w.varint(u64::from(node.0));
            w.varint(bytes);
        }
    }
    match result.counter_min_max {
        None => w.u8(0),
        Some((min, max)) => {
            w.u8(1);
            w.f64(min);
            w.f64(max);
        }
    }
    match result.counter_average {
        None => w.u8(0),
        Some(average) => {
            w.u8(1);
            w.f64(average);
        }
    }
}

fn get_query_result(r: &mut WireReader<'_>) -> Result<QueryResult, WireError> {
    let interval = get_interval(r)?;
    let cpu = CpuId(r.u32("cpu id")?);
    let mut state_cycles = [0u64; WorkerState::COUNT];
    for cycles in &mut state_cycles {
        *cycles = r.varint()?;
    }
    let predominant_state = match r.u8()? {
        0 => None,
        1 => Some(
            WorkerState::from_index(r.u8()? as usize)
                .ok_or(WireError::Malformed("unknown worker state"))?,
        ),
        _ => return Err(WireError::Malformed("predominant state flag")),
    };
    let exec_count = r.varint()?;
    let exec_min_cycles = r.varint()?;
    let exec_max_cycles = r.varint()?;
    let len = r.len(2, "task type cycles")?;
    let mut task_type_cycles = Vec::with_capacity(len);
    for _ in 0..len {
        task_type_cycles.push((TaskTypeId(r.u32("task type id")?), r.varint()?));
    }
    let mut numa = [Vec::new(), Vec::new()];
    for pairs in &mut numa {
        let len = r.len(2, "numa bytes")?;
        pairs.reserve(len);
        for _ in 0..len {
            pairs.push((NumaNodeId(r.u32("numa node id")?), r.varint()?));
        }
    }
    let [numa_read_bytes, numa_write_bytes] = numa;
    let counter_min_max = match r.u8()? {
        0 => None,
        1 => Some((r.f64()?, r.f64()?)),
        _ => return Err(WireError::Malformed("counter min/max flag")),
    };
    let counter_average = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        _ => return Err(WireError::Malformed("counter average flag")),
    };
    Ok(QueryResult {
        interval,
        cpu,
        state_cycles,
        predominant_state,
        exec_count,
        exec_min_cycles,
        exec_max_cycles,
        task_type_cycles,
        numa_read_bytes,
        numa_write_bytes,
        counter_min_max,
        counter_average,
    })
}

fn put_anomaly(w: &mut WireWriter, anomaly: &Anomaly) {
    w.u8(anomaly.kind.index() as u8);
    put_interval(w, anomaly.interval);
    w.f64(anomaly.severity);
    w.f64(anomaly.score);
    w.varint(anomaly.cpus.len() as u64);
    for cpu in &anomaly.cpus {
        w.varint(u64::from(cpu.0));
    }
    w.varint(anomaly.tasks.len() as u64);
    for task in &anomaly.tasks {
        w.varint(task.0);
    }
    w.string(&anomaly.explanation);
}

fn get_anomaly(r: &mut WireReader<'_>) -> Result<Anomaly, WireError> {
    let kind = *AnomalyKind::ALL
        .get(r.u8()? as usize)
        .ok_or(WireError::Malformed("unknown anomaly kind"))?;
    let interval = get_interval(r)?;
    let severity = r.f64()?;
    let score = r.f64()?;
    let len = r.len(1, "anomaly cpu list")?;
    let mut cpus = Vec::with_capacity(len);
    for _ in 0..len {
        cpus.push(CpuId(r.u32("cpu id")?));
    }
    let len = r.len(1, "anomaly task list")?;
    let mut tasks = Vec::with_capacity(len);
    for _ in 0..len {
        tasks.push(TaskId(r.varint()?));
    }
    let explanation = r.string(MAX_MESSAGE_LEN, "anomaly explanation")?;
    Ok(Anomaly {
        kind,
        interval,
        cpus,
        tasks,
        severity,
        score,
        explanation,
    })
}

fn lint_code_index(code: LintCode) -> u8 {
    LintCode::ALL
        .iter()
        .position(|c| *c == code)
        .expect("LintCode::ALL contains every code") as u8
}

fn lint_code_from_index(index: u8) -> Result<LintCode, WireError> {
    LintCode::ALL
        .get(index as usize)
        .copied()
        .ok_or(WireError::Malformed("unknown lint code"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_length_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let back = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(back, b"hello");
        // A hostile length prefix is rejected before allocation.
        let hostile = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut &hostile[..]).is_err());
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let requests = [
            Request::Open {
                trace: "zoom".into(),
            },
            Request::Close { session: 7 },
            Request::Timeline {
                session: 1,
                mode: TimelineMode::Heatmap {
                    min_duration: 0,
                    max_duration: 200_000,
                },
                interval: TimeInterval::from_cycles(5, 500),
                columns: 256,
            },
            Request::Query {
                session: 2,
                interval: TimeInterval::from_cycles(0, 9),
                cpu: CpuId(3),
                counter: Some(CounterId(1)),
            },
            Request::Anomalies {
                session: 3,
                detectors: DetectorSet::ALL,
                max_anomalies: 32,
            },
            Request::DrillIn {
                session: 3,
                detectors: DetectorSet(0b101),
                max_anomalies: 32,
                rank: 0,
                mode: TimelineMode::TaskType,
                columns: 128,
            },
            Request::Lint { session: 4 },
            Request::Stats,
        ];
        for request in requests {
            let payload = request.encode();
            assert_eq!(Request::decode(&payload).unwrap(), request);
            assert_frame_is_prefix_then_payload(request.frame(), &payload);
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let model = TimelineModel {
            interval: TimeInterval::from_cycles(0, 100),
            cpus: vec![CpuId(0), CpuId(1)],
            columns: 2,
            cells: vec![
                vec![
                    TimelineCell::Empty,
                    TimelineCell::State(WorkerState::TaskExecution),
                ],
                vec![TimelineCell::Shade(0.5), TimelineCell::Node(NumaNodeId(1))],
            ],
        };
        let responses = [
            Response::Error {
                code: ErrorCode::ServerFull,
                message: "session limit reached".into(),
            },
            Response::Error {
                code: ErrorCode::Degraded,
                message: "interval outside salvaged coverage".into(),
            },
            Response::Opened {
                session: 9,
                interval: TimeInterval::from_cycles(0, 77),
                cpus: 4,
            },
            Response::Closed,
            Response::Timeline(model.clone()),
            Response::DrillIn(model),
            Response::Anomalies(vec![Anomaly {
                kind: AnomalyKind::IdlePhase,
                interval: TimeInterval::from_cycles(10, 20),
                cpus: vec![CpuId(0)],
                tasks: vec![TaskId(4)],
                severity: 0.75,
                score: 2.5,
                explanation: "workers idled".into(),
            }]),
            Response::Lint(Some(vec![(LintCode::ALL[0], 3)])),
            Response::Lint(None),
            Response::Stats(ServerStats {
                open_sessions: 1,
                peak_sessions: 2,
                admitted_sessions: 3,
                rejected_sessions: 4,
                shared_bytes: 5,
                session_bytes: 6,
                cache_hits: 7,
                cache_misses: 8,
            }),
        ];
        for response in responses {
            let payload = response.encode();
            assert_eq!(Response::decode(&payload).unwrap(), response);
            assert_frame_is_prefix_then_payload(response.frame(), &payload);
        }
    }

    /// A frame built in place sends the bytes [`write_frame`] sends for its
    /// payload: the length prefix, then exactly what `encode` gives.
    fn assert_frame_is_prefix_then_payload(frame: Vec<u8>, payload: &[u8]) {
        let (mut sent, mut written) = (Vec::new(), Vec::new());
        send_frame(&mut sent, frame).unwrap();
        write_frame(&mut written, payload).unwrap();
        assert_eq!(sent, written);
        assert_eq!(sent[..FRAME_HEADER], (payload.len() as u32).to_le_bytes());
        assert_eq!(sent[FRAME_HEADER..], *payload);
    }

    #[test]
    fn version_and_tag_are_validated() {
        let mut payload = Request::Stats.encode();
        payload[0] = PROTOCOL_VERSION + 1;
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::Malformed("unsupported protocol version"))
        );
        let payload = [PROTOCOL_VERSION, 99];
        assert!(Request::decode(&payload).is_err());
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Close { session: 1 }.encode();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn detector_set_maps_to_engine_config() {
        let config = DetectorSet::ALL.config(16);
        assert!(
            config.idle.is_some()
                && config.numa.is_some()
                && config.counter.is_some()
                && config.duration.is_some()
        );
        assert_eq!(config.max_anomalies, 16);
        let none = DetectorSet(0).config(1);
        assert_eq!(
            none,
            AnomalyConfig {
                max_anomalies: 1,
                ..AnomalyConfig::none()
            }
        );
        // Unknown bits are a decode error, not silently ignored.
        let payload = Request::Anomalies {
            session: 1,
            detectors: DetectorSet(0xF0),
            max_anomalies: 1,
        }
        .encode();
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn hostile_timeline_matrix_is_bounded() {
        // A model claiming 2^40 columns in a tiny frame must fail fast.
        let mut w = WireWriter::new();
        w.u8(PROTOCOL_VERSION);
        w.u8(3);
        put_interval(&mut w, TimeInterval::from_cycles(0, 1));
        w.varint(1); // one cpu
        w.varint(0);
        w.varint(1 << 40); // columns
        let payload = w.into_vec();
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::TooLarge("timeline cell matrix"))
        );
    }
}
