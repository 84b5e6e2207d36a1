//! Compressed on-disk column store with lazy lane materialisation and
//! block-skipping reads.
//!
//! The binary trace format ([`crate::format`]) is a *streaming* encoding: a
//! reader has to decode every section before the first query can run, so the
//! time and memory to open a trace grow with its size. This module adds a
//! second, random-access representation in which every SoA lane of
//! [`crate::columns`] — state intervals, discrete events, counter samples,
//! memory accesses, plus the task table — is written as a sequence of
//! fixed-size *blocks* with per-lane encodings:
//!
//! | lane        | encoding                                                        |
//! |-------------|-----------------------------------------------------------------|
//! | states      | start: delta varint; duration varint; state tag raw `u8`; task ref biased varint |
//! | events      | timestamp: delta varint; kind tag raw `u8`; payloads varint (lazy lanes elided per block) |
//! | samples     | timestamp: delta varint; value: IEEE-754 bits LE                |
//! | accesses    | task ref: biased delta varint (sorted by task); kind raw `u8`; addr/size varint |
//! | tasks       | dense id implicit; type/cpu varint; creation zigzag delta; start zigzag; duration varint |
//!
//! Every block is self-contained (delta bases restart per block) and carries a
//! footer in the file's directory: row count, byte offset/length, and a
//! `min_key`/`max_key` pair (time bounds for time-sorted lanes, task-id bounds
//! for the task-sorted ones). Opening a stored trace reads only the small
//! metadata header and this directory; lanes decode on first touch into the
//! regular in-memory column types, so every downstream consumer — pyramids,
//! scan kernels, detectors, lint — sees an ordinary [`Trace`]. The footers let
//! interval reads skip blocks wholly outside the queried window
//! ([`StoredTrace::ensure_states_covering`]), and an optional residency budget
//! with least-recently-used lane eviction keeps resident bytes bounded.
//!
//! ```text
//! file       := "AFST" | version u32-le | meta-len varint | meta (an AFTM
//!               trace holding only metadata) | block* | directory | trailer
//! trailer    := dir-offset u64-le | dir-len u64-le | dir-crc u32-le |
//!               meta-crc u32-le | "TSFA"
//! ```
//!
//! The integrity layer: every block footer carries a CRC-32 of its payload
//! bytes, and the trailer carries CRC-32s of the directory and the metadata
//! header. Checksums are verified on materialisation (a mismatch surfaces as
//! [`TraceError::Corrupted`] instead of decoded garbage) and at open time for
//! the directory and metadata. The format is at **version 2**; any other
//! version in the header is refused with [`TraceError::UnsupportedVersion`].
//!
//! For damaged files, [`StoredTrace::open_salvage`] performs a degraded open:
//! instead of failing on the first bad block it scans every block, quarantines
//! the corrupt or unreadable ones, and serves queries over the surviving
//! contiguous span of each lane, reporting per-lane coverage in a
//! [`DamageReport`] with stable `S001`–`S003` codes (mirroring the lint
//! layer's `L001`–`L008` annotation style).
//!
//! Both directions fan out on the execution layer. The writer encodes and
//! checksums one block per job and assembles the file in plan order, so its
//! bytes never depend on the thread budget; [`write_store_file_with`] then
//! publishes it by rename — a store file appears whole or not at all. The
//! reader ([`StoredTrace::ensure_batch`]) decodes one lane run per job,
//! straight into the lane's final columns: every block is verified, then
//! decoded where its rows will live, with nothing joined or copied after.
//!
//! A lane's columns enter and leave the embedded [`Trace`] through one
//! function, `TraceData::swap_lane`: installing a decoded run is a swap that
//! drops what was there, evicting a lane a swap with empty columns. What is
//! resident is one value per lane — the block run and when it was last
//! touched — from which [`LaneResidency`], [`StoredTrace::covered_span`] and
//! the eviction order are derived.
//!
//! The byte source is abstracted behind [`ColdTier`] (a seekable read-at
//! interface); [`FileTier`] serves local files and [`MemoryTier`] serves
//! in-memory buffers for tests. An object-store backend only has to implement
//! `read_at`.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use aftermath_exec::{parallel_map, parallel_map_chunks, Threads};

use crate::columns::{
    decode_kind, encode_kind, extend_lazy, kind_arity, AccessColumns, EventColumns, SampleColumns,
    StateColumns,
};
use crate::crc::crc32;
use crate::error::TraceError;
use crate::format::{self, put_varint, VarintError};
use crate::ids::{CounterId, CpuId, TaskId, TaskTypeId, TimeInterval, Timestamp};
use crate::memory::AccessKind;
use crate::state::WorkerState;
use crate::task::TaskInstance;
use crate::trace::{Trace, TraceData};
use crate::wire::{WireError, WireReader};

/// Magic bytes identifying an Aftermath-rs column store file.
pub const STORE_MAGIC: [u8; 4] = *b"AFST";

/// The version of the column store format this build writes and opens.
pub const STORE_VERSION: u32 = 2;

/// Magic bytes terminating the fixed-size trailer at the end of the file.
const TRAILER_MAGIC: [u8; 4] = *b"TSFA";

/// Byte length of the trailer: directory offset and length, directory and
/// metadata CRC-32s, magic.
const TRAILER_LEN: usize = 8 + 8 + 4 + 4 + 4;

/// Default number of rows per block.
pub const DEFAULT_BLOCK_ROWS: usize = 65_536;

/// Capacity the writer gives a block's buffer, per row, before encoding it.
const ENCODED_ROW_BYTES_HINT: usize = 12;

// ---------------------------------------------------------------------------
// Lane identity and directory
// ---------------------------------------------------------------------------

/// Identity of one independently stored (and independently resident) lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneId {
    /// The state-interval stream of one CPU.
    States(CpuId),
    /// The discrete-event stream of one CPU.
    Events(CpuId),
    /// The sample stream of one `(CPU, counter)` pair.
    Samples(CpuId, CounterId),
    /// The global memory-access table (sorted by task id).
    Accesses,
    /// The task-instance table (dense task ids).
    Tasks,
}

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneId::States(cpu) => write!(f, "states[{cpu}]"),
            LaneId::Events(cpu) => write!(f, "events[{cpu}]"),
            LaneId::Samples(cpu, ctr) => write!(f, "samples[{cpu},{ctr}]"),
            LaneId::Accesses => write!(f, "accesses"),
            LaneId::Tasks => write!(f, "tasks"),
        }
    }
}

const LANE_TAG_STATES: u8 = 0;
const LANE_TAG_EVENTS: u8 = 1;
const LANE_TAG_SAMPLES: u8 = 2;
const LANE_TAG_ACCESSES: u8 = 3;
const LANE_TAG_TASKS: u8 = 4;

/// Footer of one block: where its bytes live and what key range it covers.
///
/// `min_key`/`max_key` are lane-specific: for the time-sorted lanes (states,
/// events, samples) they are the minimum start/timestamp and maximum
/// end/timestamp of the covered rows; for accesses the biased task-id range;
/// for tasks the dense-id range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFooter {
    /// Absolute file offset of the encoded block payload.
    pub offset: u64,
    /// Encoded byte length of the block payload.
    pub len: u64,
    /// Number of rows in the block.
    pub rows: u64,
    /// Minimum sort key covered (see type docs).
    pub min_key: u64,
    /// Maximum sort key covered (see type docs).
    pub max_key: u64,
    /// CRC-32 of the block payload bytes.
    pub crc: u32,
}

/// Directory entry of one lane: its identity, total rows and block footers.
#[derive(Debug, Clone)]
pub struct LaneDirectory {
    /// Which lane this entry describes.
    pub lane: LaneId,
    /// Total number of rows across all blocks.
    pub rows: u64,
    /// Footers of the lane's blocks, in row order.
    pub blocks: Vec<BlockFooter>,
}

// ---------------------------------------------------------------------------
// Salvage damage reporting
// ---------------------------------------------------------------------------

/// Stable classification of damage found by [`StoredTrace::open_salvage`],
/// mirroring the lint layer's [`crate::lint::LintCode`] annotation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DamageCode {
    /// A block's payload bytes do not match the CRC-32 its footer recorded.
    BlockChecksumMismatch,
    /// The cold tier could not read a block's byte range at all.
    BlockUnreadable,
    /// A block's checksum holds but its payload does not decode (the bytes
    /// were written wrong, not damaged afterwards).
    BlockUndecodable,
}

impl DamageCode {
    /// Every code, in label order.
    pub const ALL: [DamageCode; 3] = [
        DamageCode::BlockChecksumMismatch,
        DamageCode::BlockUnreadable,
        DamageCode::BlockUndecodable,
    ];

    /// The stable machine-readable label of the code.
    pub fn label(self) -> &'static str {
        match self {
            DamageCode::BlockChecksumMismatch => "S001-block-checksum-mismatch",
            DamageCode::BlockUnreadable => "S002-block-unreadable",
            DamageCode::BlockUndecodable => "S003-block-undecodable",
        }
    }

    /// Parses a label back into its code.
    pub fn from_label(label: &str) -> Option<DamageCode> {
        DamageCode::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl fmt::Display for DamageCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One piece of damage found during a salvage open.
#[derive(Debug, Clone)]
pub struct DamageFinding {
    /// What kind of damage.
    pub code: DamageCode,
    /// The lane it affects (`None` for a store-wide finding).
    pub lane: Option<LaneId>,
    /// The damaged block's index within its lane, when block-scoped.
    pub block: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for DamageFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code)?;
        if let Some(lane) = self.lane {
            write!(f, " {lane}")?;
            if let Some(block) = self.block {
                write!(f, " block {block}")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

/// Per-lane salvage outcome: which blocks were quarantined and what span of
/// rows survives.
#[derive(Debug, Clone)]
pub struct LaneDamage {
    /// The lane this entry describes.
    pub lane: LaneId,
    /// Blocks the lane has in the directory.
    pub total_blocks: usize,
    /// Indices of quarantined blocks, ascending.
    pub damaged_blocks: Vec<usize>,
    /// Rows of the undamaged lane.
    pub total_rows: u64,
    /// Rows inside the surviving block run that queries can still reach.
    pub surviving_rows: u64,
    /// The surviving contiguous block run `[lo, hi)` (empty when the whole
    /// lane is quarantined).
    pub surviving_run: (usize, usize),
}

/// What a salvage open found and what survives, per lane and overall.
///
/// A report with no quarantined blocks ([`DamageReport::is_clean`]) means the
/// degraded open found nothing to degrade — every query behaves exactly as
/// after a strict open.
#[derive(Debug, Clone, Default)]
pub struct DamageReport {
    /// Individual findings in scan order.
    pub findings: Vec<DamageFinding>,
    /// Per-lane outcomes, in file order.
    pub lanes: Vec<LaneDamage>,
}

impl DamageReport {
    /// True when no block had to be quarantined.
    pub fn is_clean(&self) -> bool {
        self.lanes.iter().all(|l| l.damaged_blocks.is_empty())
    }

    /// Rows across all lanes of the undamaged store.
    pub fn total_rows(&self) -> u64 {
        self.lanes.iter().map(|l| l.total_rows).sum()
    }

    /// Rows still reachable through surviving block runs.
    pub fn surviving_rows(&self) -> u64 {
        self.lanes.iter().map(|l| l.surviving_rows).sum()
    }

    /// Fraction of rows that survive, in `[0, 1]` (1.0 for an empty store).
    pub fn row_coverage(&self) -> f64 {
        let total = self.total_rows();
        if total == 0 {
            1.0
        } else {
            self.surviving_rows() as f64 / total as f64
        }
    }

    /// Count of findings carrying `code`.
    pub fn count(&self, code: DamageCode) -> usize {
        self.findings.iter().filter(|f| f.code == code).count()
    }
}

impl fmt::Display for DamageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let damaged: usize = self.lanes.iter().map(|l| l.damaged_blocks.len()).sum();
        write!(
            f,
            "{} finding(s), {} quarantined block(s), {:.1}% of rows survive",
            self.findings.len(),
            damaged,
            self.row_coverage() * 100.0
        )
    }
}

/// Summary statistics returned by the store writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total bytes of the written file.
    pub file_bytes: u64,
    /// Bytes of the eagerly-loaded metadata header (embedded AFTM trace).
    pub metadata_bytes: u64,
    /// Bytes of encoded lane blocks.
    pub data_bytes: u64,
    /// Number of lanes written.
    pub num_lanes: usize,
    /// Number of blocks written across all lanes.
    pub num_blocks: usize,
}

/// Tunables of the store writer.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rows per block. Smaller blocks skip more precisely but pay more
    /// per-block overhead; the default suits million-row lanes.
    pub block_rows: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            block_rows: DEFAULT_BLOCK_ROWS,
        }
    }
}

// ---------------------------------------------------------------------------
// Varint / zigzag helpers over byte slices
// ---------------------------------------------------------------------------

/// Decodes one varint of a store block or directory ([`format::get_varint`],
/// the crate's slice codec) with the store's error wording.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    format::get_varint(buf, pos).map_err(|e| {
        TraceError::Format(
            match e {
                VarintError::Truncated => "truncated varint in store block",
                VarintError::Overflow => "varint overflow in store block",
            }
            .into(),
        )
    })
}

/// The next `len` raw bytes of a block, advancing `*pos`; `truncated` is the
/// error message when the block ends first.
fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    len: usize,
    truncated: &str,
) -> Result<&'a [u8], TraceError> {
    let bytes = pos
        .checked_add(len)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| TraceError::Format(truncated.into()))?;
    *pos += len;
    Ok(bytes)
}

/// The error for delta/duration accumulations that leave `u64`/`i64` range —
/// reachable only through corrupt or hostile block payloads.
fn delta_overflow() -> TraceError {
    TraceError::Format("arithmetic overflow in store block".into())
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Block encoders / decoders
// ---------------------------------------------------------------------------

/// Encodes states rows `[lo, hi)` of `cpu`'s stream; returns `(min, max)` keys.
fn encode_states_block(
    trace: &Trace,
    cpu: CpuId,
    lo: usize,
    hi: usize,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    let states = trace.cpu(cpu).expect("lane cpu exists").states();
    let starts = &states.starts()[lo..hi];
    let ends = &states.ends()[lo..hi];
    let mut prev = 0u64;
    for (i, &s) in starts.iter().enumerate() {
        put_varint(out, if i == 0 { s } else { s - prev });
        prev = s;
    }
    for (&s, &e) in starts.iter().zip(ends) {
        put_varint(out, e - s);
    }
    out.extend_from_slice(&states.state_tags()[lo..hi]);
    for i in lo..hi {
        put_varint(out, states.task(i).map_or(0, |t| t.0 + 1));
    }
    let max_end = ends.iter().copied().max().unwrap_or(0);
    (starts[0], max_end)
}

/// Appends `rows` delta-coded keys (the first one absolute) to `out`.
fn decode_deltas(
    buf: &[u8],
    pos: &mut usize,
    rows: usize,
    out: &mut Vec<u64>,
) -> Result<(), TraceError> {
    let mut prev = 0u64;
    for _ in 0..rows {
        prev = prev
            .checked_add(get_varint(buf, pos)?)
            .ok_or_else(delta_overflow)?;
        out.push(prev);
    }
    Ok(())
}

/// Appends `rows` plain varints to `out`.
fn decode_varints(
    buf: &[u8],
    pos: &mut usize,
    rows: usize,
    out: &mut Vec<u64>,
) -> Result<(), TraceError> {
    for _ in 0..rows {
        out.push(get_varint(buf, pos)?);
    }
    Ok(())
}

fn decode_states_block(buf: &[u8], rows: usize, out: &mut StateColumns) -> Result<(), TraceError> {
    let ([starts, ends], tags, tasks) = out.columns_mut();
    let first = starts.len();
    let mut pos = 0usize;
    decode_deltas(buf, &mut pos, rows, starts)?;
    for &start in &starts[first..] {
        let duration = get_varint(buf, &mut pos)?;
        ends.push(start.checked_add(duration).ok_or_else(delta_overflow)?);
    }
    let block_tags = take(buf, &mut pos, rows, "truncated state tag lane")?;
    if let Some(&bad) = block_tags
        .iter()
        .find(|&&t| usize::from(t) >= WorkerState::COUNT)
    {
        return Err(TraceError::Format(format!("invalid state tag {bad}")));
    }
    tags.extend_from_slice(block_tags);
    for _ in 0..rows {
        tasks.push_biased(get_varint(buf, &mut pos)?);
    }
    Ok(())
}

/// Encodes event rows `[lo, hi)`; lazy payload lanes are elided per block when
/// every covered row is zero there (mirroring the in-memory lazy lanes).
fn encode_events_block(
    trace: &Trace,
    cpu: CpuId,
    lo: usize,
    hi: usize,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    let events = trace.cpu(cpu).expect("lane cpu exists").events();
    let n = hi - lo;
    let mut tags = Vec::with_capacity(n);
    let mut pa = Vec::with_capacity(n);
    let mut pb = Vec::with_capacity(n);
    let mut pc = Vec::with_capacity(n);
    for i in lo..hi {
        let (tag, a, b, c) = encode_kind(events.get(i).kind);
        tags.push(tag);
        pa.push(a);
        pb.push(b);
        pc.push(c);
    }
    let has_b = pb.iter().any(|&v| v != 0);
    let has_c = pc.iter().any(|&v| v != 0);
    out.push(u8::from(has_b) | (u8::from(has_c) << 1));
    let ts = &events.timestamps()[lo..hi];
    let mut prev = 0u64;
    for (i, &t) in ts.iter().enumerate() {
        put_varint(out, if i == 0 { t } else { t - prev });
        prev = t;
    }
    out.extend_from_slice(&tags);
    for &a in &pa {
        put_varint(out, a);
    }
    if has_b {
        for &b in &pb {
            put_varint(out, b);
        }
    }
    if has_c {
        for &c in &pc {
            put_varint(out, c);
        }
    }
    (ts[0], ts[n - 1])
}

fn decode_events_block(buf: &[u8], rows: usize, out: &mut EventColumns) -> Result<(), TraceError> {
    let (timestamps, tags, [payload_a, payload_b, payload_c]) = out.columns_mut();
    // The lane was allocated at its run's row count: a lazy lane that
    // materialises below is given the same room.
    let (first, run_rows) = (timestamps.len(), timestamps.capacity());
    let mut pos = 0usize;
    let flags = take(buf, &mut pos, 1, "truncated event block")?[0];
    decode_deltas(buf, &mut pos, rows, timestamps)?;
    let block_tags = take(buf, &mut pos, rows, "truncated event tag lane")?;
    if let Some(&bad) = block_tags.iter().find(|&&t| kind_arity(t).is_none()) {
        return Err(TraceError::Format(format!("invalid event tag {bad}")));
    }
    tags.extend_from_slice(block_tags);
    decode_varints(buf, &mut pos, rows, payload_a)?;
    // The block's lazy lanes, all zero when it does not store them.
    let mut stored_lane = |stored: bool| -> Result<Vec<u64>, TraceError> {
        if !stored {
            return Ok(vec![0; rows]);
        }
        let mut lane = Vec::with_capacity(rows);
        decode_varints(buf, &mut pos, rows, &mut lane)?;
        Ok(lane)
    };
    let mut b = stored_lane(flags & 1 != 0)?;
    let mut c = stored_lane(flags & 2 != 0)?;
    // Keep only what each row's kind carries (a damaged block may hold more),
    // and let a lane that is all zero so far stay absent — the columns are
    // then exactly what pushing the decoded events one by one would have built.
    for (i, a) in payload_a[first..].iter_mut().enumerate() {
        let kind = decode_kind(block_tags[i], *a, b[i], c[i]);
        (_, *a, b[i], c[i]) = encode_kind(kind);
    }
    extend_lazy(payload_b, first, &b, run_rows);
    extend_lazy(payload_c, first, &c, run_rows);
    Ok(())
}

fn encode_samples_block(
    trace: &Trace,
    cpu: CpuId,
    counter: CounterId,
    lo: usize,
    hi: usize,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    let samples = trace
        .cpu(cpu)
        .expect("lane cpu exists")
        .samples(counter)
        .expect("lane counter exists");
    let ts = &samples.timestamps()[lo..hi];
    let mut prev = 0u64;
    for (i, &t) in ts.iter().enumerate() {
        put_varint(out, if i == 0 { t } else { t - prev });
        prev = t;
    }
    for &v in &samples.values()[lo..hi] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    (ts[0], ts[ts.len() - 1])
}

fn decode_samples_block(
    buf: &[u8],
    rows: usize,
    out: &mut SampleColumns,
) -> Result<(), TraceError> {
    let (timestamps, values) = out.columns_mut();
    let mut pos = 0usize;
    decode_deltas(buf, &mut pos, rows, timestamps)?;
    let raw = take(
        buf,
        &mut pos,
        rows.saturating_mul(8),
        "truncated f64 in store block",
    )?;
    values.extend(
        raw.chunks_exact(8)
            .map(|bits| f64::from_le_bytes(bits.try_into().expect("chunk of 8 bytes"))),
    );
    Ok(())
}

fn encode_accesses_block(trace: &Trace, lo: usize, hi: usize, out: &mut Vec<u8>) -> (u64, u64) {
    let accesses = trace.accesses();
    let mut prev = 0u64;
    let mut min_key = 0u64;
    for i in lo..hi {
        let a = accesses.get(i);
        let biased = a.task.0 + 1;
        if i == lo {
            min_key = biased;
            put_varint(out, biased);
        } else {
            put_varint(out, biased - prev);
        }
        prev = biased;
        out.push(match a.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
        put_varint(out, a.addr);
        put_varint(out, a.size);
    }
    (min_key, prev)
}

fn decode_accesses_block(
    buf: &[u8],
    rows: usize,
    out: &mut AccessColumns,
) -> Result<(), TraceError> {
    let (tasks, kinds, [addrs, sizes]) = out.columns_mut();
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..rows {
        prev = prev
            .checked_add(get_varint(buf, &mut pos)?)
            .ok_or_else(delta_overflow)?;
        if prev == 0 {
            return Err(TraceError::Format("zero biased task ref".into()));
        }
        let kind = match buf.get(pos) {
            Some(&kind @ 0..=1) => kind,
            _ => return Err(TraceError::Format("invalid access kind".into())),
        };
        pos += 1;
        tasks.push_biased(prev);
        kinds.push(kind);
        addrs.push(get_varint(buf, &mut pos)?);
        sizes.push(get_varint(buf, &mut pos)?);
    }
    Ok(())
}

fn encode_tasks_block(trace: &Trace, lo: usize, hi: usize, out: &mut Vec<u8>) -> (u64, u64) {
    let tasks = &trace.tasks()[lo..hi];
    let mut prev_creation = 0i64;
    for t in tasks {
        put_varint(out, u64::from(t.task_type.0));
        put_varint(out, u64::from(t.cpu.0));
        put_varint(out, u64::from(t.creator_cpu.0));
        let creation = t.creation.0 as i64;
        put_varint(out, zigzag(creation - prev_creation));
        prev_creation = creation;
        put_varint(out, zigzag(t.execution.start.0 as i64 - creation));
        put_varint(out, t.execution.duration());
    }
    (lo as u64, hi as u64 - 1)
}

fn decode_tasks_block(
    buf: &[u8],
    first_id: u64,
    rows: usize,
    out: &mut Vec<TaskInstance>,
) -> Result<(), TraceError> {
    let mut pos = 0usize;
    let mut prev_creation = 0i64;
    // An id that does not fit its type is refused, not wrapped — as
    // [`WireReader::u32`] refuses it in the directory.
    let id = |pos: &mut usize, what| {
        u32::try_from(get_varint(buf, pos)?)
            .map_err(|_| TraceError::from(WireError::Malformed(what)))
    };
    for i in 0..rows {
        let ty = id(&mut pos, "task type id")?;
        let cpu = id(&mut pos, "task cpu id")?;
        let creator = id(&mut pos, "task creator cpu id")?;
        let creation = prev_creation
            .checked_add(unzigzag(get_varint(buf, &mut pos)?))
            .ok_or_else(delta_overflow)?;
        prev_creation = creation;
        let start = creation
            .checked_add(unzigzag(get_varint(buf, &mut pos)?))
            .ok_or_else(delta_overflow)?;
        let duration = get_varint(buf, &mut pos)?;
        if creation < 0 || start < 0 {
            return Err(TraceError::Format("negative task timestamp".into()));
        }
        let end = (start as u64)
            .checked_add(duration)
            .ok_or_else(delta_overflow)?;
        let id = first_id.checked_add(i as u64).ok_or_else(delta_overflow)?;
        out.push(TaskInstance::new(
            TaskId(id),
            TaskTypeId(ty),
            CpuId(cpu),
            CpuId(creator),
            Timestamp(creation as u64),
            TimeInterval::from_cycles(start as u64, end),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The lanes of `trace` that carry rows, in canonical file order.
fn lane_plan(trace: &Trace) -> Vec<(LaneId, usize)> {
    let mut lanes = Vec::new();
    for pc in trace.per_cpu() {
        if !pc.states().is_empty() {
            lanes.push((LaneId::States(pc.cpu()), pc.states().len()));
        }
    }
    for pc in trace.per_cpu() {
        if !pc.events().is_empty() {
            lanes.push((LaneId::Events(pc.cpu()), pc.events().len()));
        }
    }
    for pc in trace.per_cpu() {
        for (counter, samples) in pc.sample_streams() {
            if !samples.is_empty() {
                lanes.push((LaneId::Samples(pc.cpu(), counter), samples.len()));
            }
        }
    }
    if !trace.accesses().is_empty() {
        lanes.push((LaneId::Accesses, trace.accesses().len()));
    }
    if !trace.tasks().is_empty() {
        lanes.push((LaneId::Tasks, trace.tasks().len()));
    }
    lanes
}

fn encode_block(
    trace: &Trace,
    lane: LaneId,
    lo: usize,
    hi: usize,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    match lane {
        LaneId::States(cpu) => encode_states_block(trace, cpu, lo, hi, out),
        LaneId::Events(cpu) => encode_events_block(trace, cpu, lo, hi, out),
        LaneId::Samples(cpu, ctr) => encode_samples_block(trace, cpu, ctr, lo, hi, out),
        LaneId::Accesses => encode_accesses_block(trace, lo, hi, out),
        LaneId::Tasks => encode_tasks_block(trace, lo, hi, out),
    }
}

/// Encodes `trace` into the pieces of its store file, in file order — head
/// (magic, version, metadata), every block, tail (directory, trailer) — and
/// its statistics. One assembly, two sinks: [`write_store_bytes`]
/// concatenates the pieces, [`write_store_file_with`] hands them to the file.
/// The blocks are encoded on whichever of `threads` is free and their offsets
/// are a running sum in plan order: the bytes do not depend on `threads`.
fn encode_store(
    trace: &Trace,
    options: &StoreOptions,
    threads: Threads,
) -> Result<(Vec<Vec<u8>>, StoreStats), TraceError> {
    if options.block_rows == 0 {
        return Err(TraceError::Format(
            "store block_rows must be positive".into(),
        ));
    }
    for (i, t) in trace.tasks().iter().enumerate() {
        if t.id.0 != i as u64 {
            return Err(TraceError::Format(format!(
                "column store requires dense task ids: task at index {i} has id {}",
                t.id
            )));
        }
    }
    let mut head = Vec::new();
    head.extend_from_slice(&STORE_MAGIC);
    head.extend_from_slice(&STORE_VERSION.to_le_bytes());

    // Metadata header: the trace minus its lanes, in the regular AFTM format.
    let mut meta = Vec::new();
    format::write_metadata(trace, &mut meta)?;
    let meta_crc = crc32(&meta);
    put_varint(&mut head, meta.len() as u64);
    head.extend_from_slice(&meta);

    // Lane blocks: one job per block, encoded and checksummed where it stays.
    let plan = lane_plan(trace);
    let jobs: Vec<(LaneId, usize, usize)> = plan
        .iter()
        .flat_map(|&(lane, rows)| {
            (0..rows)
                .step_by(options.block_rows)
                .map(move |lo| (lane, lo, lo.saturating_add(options.block_rows).min(rows)))
        })
        .collect();
    let encoded = parallel_map(threads, &jobs, |&(lane, lo, hi)| {
        // The encodings come to 6-11 bytes a row; this holds a block without
        // growing (and copying) it on the way.
        let mut bytes = Vec::with_capacity((hi - lo) * ENCODED_ROW_BYTES_HINT);
        let (min_key, max_key) = encode_block(trace, lane, lo, hi, &mut bytes);
        let footer = BlockFooter {
            offset: 0, // assigned below, once the blocks before it are known
            len: bytes.len() as u64,
            rows: (hi - lo) as u64,
            min_key,
            max_key,
            crc: crc32(&bytes),
        };
        (footer, bytes)
    });
    let data_start = head.len() as u64;
    let mut offset = data_start;
    let mut parts = Vec::with_capacity(encoded.len() + 2);
    parts.push(head);
    let mut encoded = encoded.into_iter();
    let mut directory = Vec::with_capacity(plan.len());
    for (lane, rows) in plan {
        let footers = encoded
            .by_ref()
            .take(rows.div_ceil(options.block_rows))
            .map(|(footer, bytes)| {
                let footer = BlockFooter { offset, ..footer };
                offset += footer.len;
                parts.push(bytes);
                footer
            })
            .collect();
        directory.push(LaneDirectory {
            lane,
            rows: rows as u64,
            blocks: footers,
        });
    }
    // Directory.
    let dir_offset = offset;
    let mut tail = Vec::new();
    let bounds = trace.time_bounds_opt();
    tail.push(u8::from(bounds.is_some()));
    if let Some(b) = bounds {
        put_varint(&mut tail, b.start.0);
        put_varint(&mut tail, b.end.0);
    }
    put_varint(&mut tail, trace.num_events() as u64);
    put_varint(&mut tail, directory.len() as u64);
    for lane in &directory {
        match lane.lane {
            LaneId::States(cpu) => {
                tail.push(LANE_TAG_STATES);
                put_varint(&mut tail, u64::from(cpu.0));
            }
            LaneId::Events(cpu) => {
                tail.push(LANE_TAG_EVENTS);
                put_varint(&mut tail, u64::from(cpu.0));
            }
            LaneId::Samples(cpu, ctr) => {
                tail.push(LANE_TAG_SAMPLES);
                put_varint(&mut tail, u64::from(cpu.0));
                put_varint(&mut tail, u64::from(ctr.0));
            }
            LaneId::Accesses => tail.push(LANE_TAG_ACCESSES),
            LaneId::Tasks => tail.push(LANE_TAG_TASKS),
        }
        put_varint(&mut tail, lane.rows);
        put_varint(&mut tail, lane.blocks.len() as u64);
        for b in &lane.blocks {
            put_varint(&mut tail, b.offset);
            put_varint(&mut tail, b.len);
            put_varint(&mut tail, b.rows);
            put_varint(&mut tail, b.min_key);
            put_varint(&mut tail, b.max_key);
            put_varint(&mut tail, u64::from(b.crc));
        }
    }
    let dir_len = tail.len() as u64;
    let dir_crc = crc32(&tail);

    // Trailer.
    tail.extend_from_slice(&dir_offset.to_le_bytes());
    tail.extend_from_slice(&dir_len.to_le_bytes());
    tail.extend_from_slice(&dir_crc.to_le_bytes());
    tail.extend_from_slice(&meta_crc.to_le_bytes());
    tail.extend_from_slice(&TRAILER_MAGIC);

    let stats = StoreStats {
        file_bytes: dir_offset + tail.len() as u64,
        metadata_bytes: meta.len() as u64,
        data_bytes: dir_offset - data_start,
        num_lanes: directory.len(),
        num_blocks: jobs.len(),
    };
    parts.push(tail);
    Ok((parts, stats))
}

/// Serialises `trace` into the column store representation, returning the file
/// bytes. See [`write_store_file`] for the usual entry point.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the trace cannot be stored (non-dense
/// task ids) and propagates metadata serialisation errors.
pub fn write_store_bytes(trace: &Trace, options: &StoreOptions) -> Result<Vec<u8>, TraceError> {
    Ok(encode_store(trace, options, Threads::auto())?.0.concat())
}

/// Writes `trace` as a column store file at `path`.
///
/// # Errors
///
/// Propagates I/O errors and the conditions of [`write_store_bytes`].
pub fn write_store_file<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<StoreStats, TraceError> {
    write_store_file_with(trace, path, &StoreOptions::default())
}

/// Like [`write_store_file`] with explicit [`StoreOptions`].
///
/// The file appears at `path` whole or not at all: it is written to a sibling
/// temporary in the same directory and renamed over `path` once every byte is
/// out, so a failed or interrupted write leaves no short file there and a
/// failed re-write keeps the file that was there. (This orders the write
/// against readers of `path`; it is not a durability barrier — nothing is
/// `fsync`ed.)
///
/// # Errors
///
/// Propagates I/O errors and the conditions of [`write_store_bytes`].
pub fn write_store_file_with<P: AsRef<Path>>(
    trace: &Trace,
    path: P,
    options: &StoreOptions,
) -> Result<StoreStats, TraceError> {
    let (parts, stats) = encode_store(trace, options, Threads::auto())?;
    let path = path.as_ref();
    let temp = temp_sibling(path);
    let written = File::create(&temp)
        .and_then(|mut file| parts.iter().try_for_each(|part| file.write_all(part)))
        .and_then(|()| std::fs::rename(&temp, path));
    if let Err(e) = written {
        // Best effort: the error worth reporting is the write's.
        let _ = std::fs::remove_file(&temp);
        return Err(TraceError::Io(e));
    }
    Ok(stats)
}

/// Where [`write_store_file_with`] assembles the file that will become
/// `path`: beside it (a rename does not cross file systems), named after it
/// and this process (concurrent writers of one path each publish a whole file).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Cold tier
// ---------------------------------------------------------------------------

/// A random-access byte source holding the cold (on-disk) representation.
///
/// This is the seam for alternative backends — the store only ever issues
/// ranged reads, so an object store or a remote block service can serve a
/// trace by implementing these two methods.
pub trait ColdTier: fmt::Debug + Send + Sync {
    /// Total size of the stored bytes.
    ///
    /// # Errors
    ///
    /// Returns an error when the backing source cannot be inspected.
    fn size(&self) -> Result<u64, TraceError>;

    /// Fills `buf` from the absolute byte `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error when the range is unavailable or the read fails.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError>;
}

/// [`ColdTier`] backed by a local file. Reads are positioned (`pread`), so
/// concurrent readers share the handle without a lock or a seek cursor.
#[derive(Debug)]
pub struct FileTier {
    file: File,
}

impl FileTier {
    /// Opens `path` for ranged reads.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `File::open` error.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        Ok(FileTier { file })
    }
}

impl ColdTier for FileTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(TraceError::Io)
    }

    #[cfg(unix)]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset).map_err(TraceError::Io)
    }

    #[cfg(windows)]
    fn read_at(&self, mut offset: u64, mut buf: &mut [u8]) -> Result<(), TraceError> {
        use std::os::windows::fs::FileExt;
        // `seek_read` may return short, like `read`.
        while !buf.is_empty() {
            match self.file.seek_read(buf, offset) {
                Ok(0) => {
                    return Err(TraceError::Io(std::io::ErrorKind::UnexpectedEof.into()));
                }
                Ok(n) => {
                    buf = &mut buf[n..];
                    offset += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
        Ok(())
    }
}

/// [`ColdTier`] backed by an in-memory buffer (tests, benchmarks).
#[derive(Debug)]
pub struct MemoryTier {
    bytes: Vec<u8>,
}

impl MemoryTier {
    /// Wraps an encoded store buffer.
    pub fn new(bytes: Vec<u8>) -> Self {
        MemoryTier { bytes }
    }
}

impl ColdTier for MemoryTier {
    fn size(&self) -> Result<u64, TraceError> {
        Ok(self.bytes.len() as u64)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        let lo = offset as usize;
        let src = self
            .bytes
            .get(lo..lo + buf.len())
            .ok_or_else(|| TraceError::Format("read past end of store".into()))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Open / directory decoding
// ---------------------------------------------------------------------------

/// Decodes the directory. Every count is bounded by the directory's own bytes
/// before anything is sized from it ([`WireReader::len`]: a lane entry takes at
/// least 4 bytes — tag, rows, block count and one footer byte — and a footer
/// its 6 varints).
fn read_directory(
    dir: &[u8],
) -> Result<(Option<TimeInterval>, Vec<LaneDirectory>, u64), TraceError> {
    let mut r = WireReader::new(dir);
    let bounds = if r.u8()? != 0 {
        Some(TimeInterval::from_cycles(r.varint()?, r.varint()?))
    } else {
        None
    };
    let num_events = r.varint()?;
    let num_lanes = r.len(4, "store lane count")?;
    let mut lanes = Vec::with_capacity(num_lanes);
    for _ in 0..num_lanes {
        let lane = match r.u8()? {
            LANE_TAG_STATES => LaneId::States(CpuId(r.u32("lane cpu id")?)),
            LANE_TAG_EVENTS => LaneId::Events(CpuId(r.u32("lane cpu id")?)),
            LANE_TAG_SAMPLES => LaneId::Samples(
                CpuId(r.u32("lane cpu id")?),
                CounterId(r.u32("lane counter id")?),
            ),
            LANE_TAG_ACCESSES => LaneId::Accesses,
            LANE_TAG_TASKS => LaneId::Tasks,
            other => {
                return Err(TraceError::Format(format!("unknown lane tag {other}")));
            }
        };
        let rows = r.varint()?;
        let num_blocks = r.len(6, "store block count")?;
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut block_rows = 0u64;
        for _ in 0..num_blocks {
            let footer = BlockFooter {
                offset: r.varint()?,
                len: r.varint()?,
                rows: r.varint()?,
                min_key: r.varint()?,
                max_key: r.varint()?,
                crc: r.u32("block checksum")?,
            };
            block_rows = block_rows
                .checked_add(footer.rows)
                .ok_or_else(|| TraceError::Format("store lane row count overflow".into()))?;
            blocks.push(footer);
        }
        if block_rows != rows {
            return Err(TraceError::Format(format!(
                "lane {lane}: block rows {block_rows} disagree with lane rows {rows}"
            )));
        }
        lanes.push(LaneDirectory { lane, rows, blocks });
    }
    Ok((bounds, lanes, num_events))
}

/// Checks the structural invariants the materialisation path relies on: a
/// lane's blocks form one contiguous, ascending byte run inside the data
/// region `[data_start, data_end)`, every block has at least one row, and no
/// encoding produces fewer than one byte per row. A directory that fails any
/// of these is corrupt; rejecting it here keeps the decode paths free of
/// unbounded allocations and offset arithmetic on untrusted values.
fn validate_directory(
    lanes: &[LaneDirectory],
    data_start: u64,
    data_end: u64,
) -> Result<(), TraceError> {
    let corrupt = |lane: LaneId, what: &str| {
        TraceError::Format(format!("lane {lane}: corrupt block footer ({what})"))
    };
    for dir in lanes {
        let mut next = None;
        for b in &dir.blocks {
            if b.rows == 0 {
                return Err(corrupt(dir.lane, "empty block"));
            }
            if b.rows > b.len {
                return Err(corrupt(dir.lane, "more rows than bytes"));
            }
            if let Some(expect) = next {
                if b.offset != expect {
                    return Err(corrupt(dir.lane, "blocks not contiguous"));
                }
            } else if b.offset < data_start {
                return Err(corrupt(dir.lane, "block before data region"));
            }
            let end = b
                .offset
                .checked_add(b.len)
                .ok_or_else(|| corrupt(dir.lane, "block range overflow"))?;
            if end > data_end {
                return Err(corrupt(dir.lane, "block past data region"));
            }
            next = Some(end);
        }
    }
    Ok(())
}

/// The rows of one lane run in the lane's column type, where they will live:
/// allocated once at the run's row count (the directory knows it) and grown
/// by the run's blocks in order, so nothing is joined, copied or regrown
/// between a block's bytes and the installed lane.
#[derive(Debug)]
enum Chunk {
    States(StateColumns),
    Events(EventColumns),
    Samples(SampleColumns),
    Accesses(AccessColumns),
    Tasks(Vec<TaskInstance>),
}

impl Chunk {
    /// Empty columns of `lane` with room for exactly `rows` rows.
    fn with_capacity(lane: LaneId, rows: usize) -> Chunk {
        match lane {
            LaneId::States(cpu) => Chunk::States(StateColumns::with_capacity(cpu, rows)),
            LaneId::Events(cpu) => Chunk::Events(EventColumns::with_capacity(cpu, rows)),
            LaneId::Samples(cpu, ctr) => {
                Chunk::Samples(SampleColumns::with_capacity(ctr, cpu, rows))
            }
            LaneId::Accesses => Chunk::Accesses(AccessColumns::with_capacity(rows)),
            LaneId::Tasks => Chunk::Tasks(Vec::with_capacity(rows)),
        }
    }

    /// Decodes the payload of the run's next block onto the end of the
    /// columns. After an error they hold a torn block and must be discarded.
    fn decode_block(&mut self, buf: &[u8], footer: &BlockFooter) -> Result<(), TraceError> {
        let rows = footer.rows as usize;
        match self {
            Chunk::States(col) => decode_states_block(buf, rows, col),
            Chunk::Events(col) => decode_events_block(buf, rows, col),
            Chunk::Samples(col) => decode_samples_block(buf, rows, col),
            Chunk::Accesses(col) => decode_accesses_block(buf, rows, col),
            Chunk::Tasks(col) => decode_tasks_block(buf, footer.min_key, rows, col),
        }
    }

    /// Verifies `bytes` against the footer's checksum and then — never before
    /// — decodes them: damaged bytes must surface as a typed error, never as
    /// silently wrong rows. The one verify → decode routine: batch
    /// materialisation and the salvage scan run every block through it.
    fn verify_then_decode(&mut self, bytes: &[u8], footer: &BlockFooter) -> Result<(), BlockFault> {
        let computed = crc32(bytes);
        if computed != footer.crc {
            return Err(BlockFault::Checksum { computed });
        }
        self.decode_block(bytes, footer)
            .map_err(BlockFault::Undecodable)
    }
}

impl TraceData {
    /// Exchanges the columns of `lane` for `chunk`, returning what was there —
    /// the one way a lane enters or leaves a trace: installing is a swap that
    /// drops the old columns, evicting a swap with empty ones. A samples lane
    /// without rows has no entry in its CPU's map, so a trace with the lane
    /// evicted equals, and weighs, what it did before the lane was installed.
    ///
    /// # Errors
    ///
    /// [`TraceError::UnknownCpu`] for a lane of a CPU outside the topology.
    fn swap_lane(&mut self, lane: LaneId, chunk: Chunk) -> Result<Chunk, TraceError> {
        use std::mem::replace;
        Ok(match (lane, chunk) {
            (LaneId::States(cpu), Chunk::States(col)) => {
                Chunk::States(replace(&mut self.cpu_mut(cpu)?.states, col))
            }
            (LaneId::Events(cpu), Chunk::Events(col)) => {
                Chunk::Events(replace(&mut self.cpu_mut(cpu)?.events, col))
            }
            (LaneId::Samples(cpu, ctr), Chunk::Samples(col)) => {
                let samples = &mut self.cpu_mut(cpu)?.samples;
                let old = if col.is_empty() {
                    samples.remove(&ctr)
                } else {
                    samples.insert(ctr, col)
                };
                Chunk::Samples(old.unwrap_or_else(|| SampleColumns::new(ctr, cpu)))
            }
            (LaneId::Accesses, Chunk::Accesses(col)) => {
                Chunk::Accesses(replace(&mut self.accesses, col))
            }
            (LaneId::Tasks, Chunk::Tasks(col)) => Chunk::Tasks(replace(&mut self.tasks, col)),
            _ => unreachable!("a lane's blocks decode to its own chunk kind"),
        })
    }
}

/// Why the bytes of a block cannot become rows.
#[derive(Debug)]
enum BlockFault {
    /// They do not match the footer's checksum; `computed` is theirs.
    Checksum { computed: u32 },
    /// The checksum holds but the payload does not decode.
    Undecodable(TraceError),
}

/// The block run `[lo, hi)` a salvage open keeps for a lane of `total` blocks
/// with the (ascending) `damaged` indices quarantined.
///
/// Time-sorted lanes keep the longest contiguous run of good blocks (earliest
/// on ties) — interval queries clamped to the run's guaranteed span stay
/// exact. The task table and the access table are kept all-or-nothing:
/// downstream consumers treat them as complete relations (dense task-id
/// lookups, per-task aggregation), so a partial table would change answers
/// silently rather than shrink the answerable span.
fn surviving_run(lane: LaneId, total: usize, damaged: &[usize]) -> (usize, usize) {
    if damaged.is_empty() {
        return (0, total);
    }
    if matches!(lane, LaneId::Accesses | LaneId::Tasks) {
        return (0, 0);
    }
    let mut best = (0usize, 0usize);
    let mut run_lo = 0usize;
    for boundary in damaged.iter().copied().chain(std::iter::once(total)) {
        if boundary - run_lo > best.1 - best.0 {
            best = (run_lo, boundary);
        }
        run_lo = boundary + 1;
    }
    best
}

// ---------------------------------------------------------------------------
// StoredTrace
// ---------------------------------------------------------------------------

/// Residency state of one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneResidency {
    /// No rows decoded.
    Absent,
    /// A contiguous block run is decoded; queries must stay within
    /// [`StoredTrace::covered_span`].
    Partial,
    /// The whole lane is decoded.
    Full,
}

/// One lane a batch materialisation ([`StoredTrace::ensure_batch`]) must make
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneRequest {
    /// The whole lane (after a salvage open: its surviving block run).
    Full(LaneId),
    /// The minimal contiguous block run of a *states* lane covering every
    /// interval that overlaps the window (block-skipping).
    StatesCovering(LaneId, TimeInterval),
}

/// Lifetime counters of one [`StoredTrace`]'s materialisation work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterialiseStats {
    /// Lane runs decoded and installed (a re-materialised lane counts again).
    pub lanes_materialised: u64,
    /// Blocks verified and decoded.
    pub blocks_decoded: u64,
    /// Block bytes read from the cold tier.
    pub bytes_read: u64,
}

/// A trace opened from the column store: metadata resident, lanes lazy.
///
/// The embedded [`Trace`] is fully usable at all times — absent lanes simply
/// read as empty streams. [`StoredTrace::ensure`] materialises a lane in full;
/// [`StoredTrace::ensure_states_covering`] materialises only the block run of
/// a states lane overlapping a query window (block-skipping). After a partial
/// ensure the lane holds a contiguous *superset* of the rows overlapping the
/// requested window; value-based interval queries confined to that window see
/// exactly the same rows as against the full lane, but absolute row indices
/// (e.g. a [`aftermath-core` pyramid] built over the full lane) do not align —
/// higher layers must only combine index-carrying structures with fully
/// resident lanes.
#[derive(Debug)]
pub struct StoredTrace {
    tier: Box<dyn ColdTier>,
    skeleton: Trace,
    directory: Vec<LaneDirectory>,
    lane_index: HashMap<LaneId, usize>,
    /// Per lane: the resident block run `[lo, hi)` and the clock value of its
    /// last use, `None` while no row of it is decoded.
    residency: Vec<Option<((usize, usize), u64)>>,
    clock: u64,
    budget: Option<usize>,
    bounds: Option<TimeInterval>,
    num_events: u64,
    file_bytes: u64,
    threads: Threads,
    /// Per-lane block run `[lo, hi)` that materialisation may touch. After a
    /// strict open this is every block; a salvage open narrows it to the
    /// surviving run around quarantined blocks.
    surviving: Vec<(usize, usize)>,
    /// `Some` after a salvage open (clean or not); `None` after a strict open.
    damage: Option<DamageReport>,
    stats: MaterialiseStats,
}

impl StoredTrace {
    /// Opens a store file for lazy reading.
    ///
    /// Only the metadata header and the block directory are decoded — the cost
    /// is independent of the number of events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] / [`TraceError::Format`] for unreadable or
    /// malformed files and [`TraceError::UnsupportedVersion`] for a version
    /// this build does not understand.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Self::open_with_tier(Box::new(FileTier::open(path)?))
    }

    /// Opens a store held in an in-memory buffer (tests, benchmarks).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoredTrace::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::open_with_tier(Box::new(MemoryTier::new(bytes)))
    }

    /// Opens a store served by an arbitrary [`ColdTier`] backend.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoredTrace::open`].
    pub fn open_with_tier(tier: Box<dyn ColdTier>) -> Result<Self, TraceError> {
        Self::open_impl(tier, false)
    }

    /// Opens a damaged store file in degraded mode: see
    /// [`StoredTrace::open_with_tier_salvage`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoredTrace::open_with_tier_salvage`].
    pub fn open_salvage<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Self::open_with_tier_salvage(Box::new(FileTier::open(path)?))
    }

    /// Salvage-opens a store held in an in-memory buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoredTrace::open_with_tier_salvage`].
    pub fn from_bytes_salvage(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::open_with_tier_salvage(Box::new(MemoryTier::new(bytes)))
    }

    /// Degraded open for damaged stores: every block is scanned up front and
    /// corrupt or unreadable blocks are *quarantined* instead of failing the
    /// open. Queries then run over the surviving contiguous block run of each
    /// lane; [`StoredTrace::damage`] reports what was lost and
    /// [`StoredTrace::salvage_covered_span`] the span still answered exactly.
    ///
    /// The metadata header, directory and trailer must still be intact — they
    /// are the map by which blocks are found, so damage there (a checksum
    /// mismatch or structural invalidity) is unrecoverable and
    /// fails the open like a strict one. Unlike the lazy strict open, a
    /// salvage open reads the whole file once to classify every block.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoredTrace::open`] for the header, metadata,
    /// directory and trailer; block damage never fails a salvage open.
    pub fn open_with_tier_salvage(tier: Box<dyn ColdTier>) -> Result<Self, TraceError> {
        Self::open_impl(tier, true)
    }

    fn open_impl(tier: Box<dyn ColdTier>, salvage: bool) -> Result<Self, TraceError> {
        let size = tier.size()?;
        if size < (8 + TRAILER_LEN) as u64 {
            return Err(TraceError::Format("store file too short".into()));
        }
        // Header: magic, version, metadata length varint.
        let head_len = (size as usize).min(8 + format::MAX_VARINT_LEN);
        let mut head = vec![0u8; head_len];
        tier.read_at(0, &mut head)?;
        if head[0..4] != STORE_MAGIC {
            return Err(TraceError::Format("not a column store file".into()));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if version != STORE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }

        // Trailer first: it locates the directory and carries the checksums
        // that vouch for the directory and metadata bytes.
        let mut trailer = [0u8; TRAILER_LEN];
        tier.read_at(size - TRAILER_LEN as u64, &mut trailer)?;
        if trailer[TRAILER_LEN - 4..] != TRAILER_MAGIC {
            return Err(TraceError::Format("store trailer magic mismatch".into()));
        }
        let dir_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
        let dir_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));

        let mut pos = 8usize;
        let meta_len = get_varint(&head, &mut pos)? as usize;
        let data_budget = size - (8 + TRAILER_LEN) as u64;
        if meta_len as u64 > data_budget || pos as u64 + meta_len as u64 > size {
            return Err(TraceError::Format(
                "store metadata length out of bounds".into(),
            ));
        }
        let mut meta = vec![0u8; meta_len];
        tier.read_at(pos as u64, &mut meta)?;
        let want = u32::from_le_bytes(trailer[20..24].try_into().expect("4 bytes"));
        let got = crc32(&meta);
        if got != want {
            return Err(TraceError::Corrupted(format!(
                "metadata checksum mismatch (stored {want:#010x}, computed {got:#010x})"
            )));
        }
        let skeleton = format::read_trace(&meta[..])?;
        let data_start = pos as u64 + meta_len as u64;

        if dir_offset
            .checked_add(dir_len)
            .and_then(|v| v.checked_add(TRAILER_LEN as u64))
            != Some(size)
            || dir_offset < data_start
        {
            return Err(TraceError::Format(
                "store directory framing mismatch".into(),
            ));
        }
        let mut dir = vec![0u8; dir_len as usize];
        tier.read_at(dir_offset, &mut dir)?;
        let want = u32::from_le_bytes(trailer[16..20].try_into().expect("4 bytes"));
        let got = crc32(&dir);
        if got != want {
            return Err(TraceError::Corrupted(format!(
                "directory checksum mismatch (stored {want:#010x}, computed {got:#010x})"
            )));
        }
        let (bounds, directory, num_events) = read_directory(&dir)?;
        validate_directory(&directory, data_start, dir_offset)?;
        let lane_index: HashMap<LaneId, usize> = directory
            .iter()
            .enumerate()
            .map(|(i, l)| (l.lane, i))
            .collect();
        let residency = vec![None; directory.len()];
        let surviving: Vec<(usize, usize)> =
            directory.iter().map(|l| (0, l.blocks.len())).collect();
        let mut stored = StoredTrace {
            tier,
            skeleton,
            directory,
            lane_index,
            residency,
            clock: 0,
            budget: None,
            bounds,
            num_events,
            file_bytes: size,
            threads: Threads::auto(),
            surviving,
            damage: None,
            stats: MaterialiseStats::default(),
        };
        if salvage {
            stored.scan_for_damage();
        }
        Ok(stored)
    }

    /// Classifies every block as good or quarantined, narrowing
    /// `self.surviving` and filling `self.damage`. Lane by lane: its blocks are
    /// read on this thread in file order (the tier sees one deterministic read
    /// sequence), then classified on the thread budget — at most one lane's
    /// bytes are held at a time.
    fn scan_for_damage(&mut self) {
        let mut report = DamageReport::default();
        for (idx, dir) in self.directory.iter().enumerate() {
            let read: Vec<(&BlockFooter, Result<Vec<u8>, TraceError>)> = dir
                .blocks
                .iter()
                .map(|footer| {
                    let mut buf = vec![0u8; footer.len as usize];
                    let read = self.tier.read_at(footer.offset, &mut buf);
                    (footer, read.map(|()| buf))
                })
                .collect();
            let findings = parallel_map(self.threads, &read, |(footer, read)| {
                let bytes = match read {
                    Ok(bytes) => bytes,
                    Err(e) => return Some((DamageCode::BlockUnreadable, e.to_string())),
                };
                let mut scratch = Chunk::with_capacity(dir.lane, footer.rows as usize);
                match scratch.verify_then_decode(bytes, footer) {
                    Ok(()) => None,
                    Err(BlockFault::Checksum { computed }) => Some((
                        DamageCode::BlockChecksumMismatch,
                        format!("stored {:#010x}, computed {computed:#010x}", footer.crc),
                    )),
                    Err(BlockFault::Undecodable(e)) => {
                        Some((DamageCode::BlockUndecodable, e.to_string()))
                    }
                }
            });
            let mut damaged = Vec::new();
            for (k, finding) in findings.into_iter().enumerate() {
                if let Some((code, detail)) = finding {
                    report.findings.push(DamageFinding {
                        code,
                        lane: Some(dir.lane),
                        block: Some(k),
                        detail,
                    });
                    damaged.push(k);
                }
            }
            let run = surviving_run(dir.lane, dir.blocks.len(), &damaged);
            let surviving_rows = dir.blocks[run.0..run.1].iter().map(|b| b.rows).sum();
            report.lanes.push(LaneDamage {
                lane: dir.lane,
                total_blocks: dir.blocks.len(),
                damaged_blocks: damaged,
                total_rows: dir.rows,
                surviving_rows,
                surviving_run: run,
            });
            self.surviving[idx] = run;
        }
        self.damage = Some(report);
    }

    /// The trace with whatever lanes are currently resident; absent lanes read
    /// as empty streams.
    pub fn trace(&self) -> &Trace {
        &self.skeleton
    }

    /// The recorded time bounds of the *full* trace (independent of residency).
    pub fn time_bounds(&self) -> Option<TimeInterval> {
        self.bounds
    }

    /// Total number of recorded items in the full trace.
    pub fn num_events(&self) -> u64 {
        self.num_events
    }

    /// Size of the backing store in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The stored lanes, in file order.
    pub fn lanes(&self) -> impl Iterator<Item = LaneId> + '_ {
        self.directory.iter().map(|l| l.lane)
    }

    /// The block directory of `lane`: byte offsets, row counts and key spans
    /// of its blocks, in file order. Tooling (the chaos harness, salvage
    /// tests) uses this to target exact blocks; `None` for lanes without
    /// stored rows.
    pub fn lane_directory(&self, lane: LaneId) -> Option<&LaneDirectory> {
        self.lane_index.get(&lane).map(|&i| &self.directory[i])
    }

    /// Number of rows of `lane` in the full trace (0 for unknown lanes).
    pub fn lane_rows(&self, lane: LaneId) -> u64 {
        self.lane_index
            .get(&lane)
            .map_or(0, |&i| self.directory[i].rows)
    }

    /// Sets the thread budget of this trace: how many workers a batch
    /// materialisation decodes blocks on, and — since a stored trace serves
    /// one request at a time — what a [`aftermath-core` store session] spends
    /// on index builds and anomaly scans over it. Defaults to
    /// [`Threads::auto`]. Answers never depend on it.
    pub fn set_decode_threads(&mut self, threads: Threads) {
        self.threads = threads;
    }

    /// The thread budget set by [`StoredTrace::set_decode_threads`].
    pub fn decode_threads(&self) -> Threads {
        self.threads
    }

    /// Lifetime counters of the materialisation work done so far.
    pub fn materialise_stats(&self) -> MaterialiseStats {
        self.stats
    }

    /// Sets (or clears) the residency budget in bytes enforced by
    /// [`StoredTrace::evict_to_budget`].
    pub fn set_residency_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// The configured residency budget.
    pub fn residency_budget(&self) -> Option<usize> {
        self.budget
    }

    /// Bytes currently resident for event data (decoded lanes plus the
    /// metadata-resident communication table) — exactly
    /// [`Trace::resident_event_bytes`] of the embedded trace.
    pub fn resident_event_bytes(&self) -> usize {
        self.skeleton.resident_event_bytes()
    }

    /// Residency state of `lane`. Lanes without stored rows are always
    /// [`LaneResidency::Full`].
    pub fn residency(&self, lane: LaneId) -> LaneResidency {
        match self.lane_index.get(&lane) {
            None => LaneResidency::Full,
            Some(&i) => match self.residency[i] {
                None => LaneResidency::Absent,
                Some((run, _)) if run == (0, self.directory[i].blocks.len()) => LaneResidency::Full,
                Some(_) => LaneResidency::Partial,
            },
        }
    }

    /// The time span fully covered by the resident block run of a states lane:
    /// queries confined to this span see exactly the rows a fully resident
    /// lane would give them. `None` when nothing is resident.
    pub fn covered_span(&self, lane: LaneId) -> Option<TimeInterval> {
        let &i = self.lane_index.get(&lane)?;
        let (run, _) = self.residency[i]?;
        Some(self.guaranteed_span(i, run))
    }

    /// The key span the block run `[lo, hi)` of lane `idx` answers exactly.
    /// Rows of the neighbour blocks outside the run may overlap its edges; the
    /// *guaranteed* span shrinks to the range no outside block can reach into
    /// (everything, for a run that is the whole lane).
    fn guaranteed_span(&self, idx: usize, (lo, hi): (usize, usize)) -> TimeInterval {
        let blocks = &self.directory[idx].blocks;
        let start = if lo == 0 { 0 } else { blocks[lo - 1].max_key };
        let end = blocks.get(hi).map_or(u64::MAX, |b| b.min_key);
        TimeInterval::from_cycles(start, end.max(start))
    }

    /// The damage report of a salvage open. `None` after a strict open; a
    /// salvage open of an undamaged store returns a clean report
    /// ([`DamageReport::is_clean`]).
    pub fn damage(&self) -> Option<&DamageReport> {
        self.damage.as_ref()
    }

    /// The key span of `lane` that a salvaged store still answers *exactly*,
    /// independent of what is currently resident: the span no quarantined
    /// block's rows can reach into. For time-sorted lanes the keys are
    /// timestamps; for the task/access tables, task ids. `None` when the whole
    /// lane was quarantined; the full span after a strict open or for lanes
    /// without stored rows.
    pub fn salvage_covered_span(&self, lane: LaneId) -> Option<TimeInterval> {
        let Some(&idx) = self.lane_index.get(&lane) else {
            // No stored rows: trivially exact everywhere.
            return Some(TimeInterval::from_cycles(0, u64::MAX));
        };
        let (slo, shi) = self.surviving[idx];
        (slo < shi).then(|| self.guaranteed_span(idx, (slo, shi)))
    }

    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        if let Some((_, touched)) = &mut self.residency[idx] {
            *touched = self.clock;
        }
    }

    /// Reads the contiguous byte range of blocks `[lo, hi)` of one lane.
    ///
    /// The buffer is zero-initialised although the read overwrites it:
    /// [`ColdTier::read_at`] fills a `&mut [u8]`, which must be initialised,
    /// and a tier may leave part of it unwritten when it fails (a short
    /// read). For run-sized buffers `vec![0; len]` is a zeroed allocation —
    /// fresh pages from the OS, not a second pass over the bytes.
    fn read_block_run(&self, idx: usize, lo: usize, hi: usize) -> Result<Vec<u8>, TraceError> {
        let blocks = &self.directory[idx].blocks;
        let first = &blocks[lo];
        let last = &blocks[hi - 1];
        let len = (last.offset + last.len - first.offset) as usize;
        let mut buf = vec![0u8; len];
        self.tier.read_at(first.offset, &mut buf)?;
        Ok(buf)
    }

    /// Installs the decoded rows of one lane — none at all, to evict it —
    /// dropping whatever was resident. The columns were allocated at the run's
    /// row count, so none carries capacity slack.
    fn install(&mut self, lane: LaneId, mut rows: Chunk) {
        if let Chunk::Accesses(col) = &mut rows {
            col.sort_by_task();
        }
        self.skeleton.data_mut().swap_lane(lane, rows).expect(
            "ensure_batch plans loads for CPUs of the topology only, and evict follows one",
        );
    }

    /// Heap bytes currently occupied by the resident rows of `lane`.
    pub fn lane_resident_bytes(&self, lane: LaneId) -> usize {
        match lane {
            LaneId::States(cpu) => self
                .skeleton
                .cpu(cpu)
                .map_or(0, |pc| pc.states.memory_bytes()),
            LaneId::Events(cpu) => self
                .skeleton
                .cpu(cpu)
                .map_or(0, |pc| pc.events.memory_bytes()),
            LaneId::Samples(cpu, ctr) => self
                .skeleton
                .cpu(cpu)
                .and_then(|pc| pc.samples.get(&ctr))
                .map_or(0, SampleColumns::memory_bytes),
            LaneId::Accesses => self.skeleton.data().accesses.memory_bytes(),
            LaneId::Tasks => std::mem::size_of_val(self.skeleton.tasks()),
        }
    }

    /// The block run `[lo, hi)` of lane `idx` a request needs: the surviving
    /// run for a whole-lane request, its part overlapping `window` otherwise.
    fn needed_run(&self, idx: usize, window: Option<TimeInterval>) -> (usize, usize) {
        let (slo, shi) = self.surviving[idx];
        let Some(window) = window else {
            return (slo, shi);
        };
        // Per-CPU states are sorted and non-overlapping, so both the min and
        // max keys of consecutive blocks are non-decreasing; the overlapping
        // blocks form one contiguous run.
        let blocks = &self.directory[idx].blocks;
        let lo = blocks.partition_point(|b| b.max_key <= window.start.0);
        let hi = blocks.partition_point(|b| b.min_key < window.end.0);
        (lo.max(slo), hi.min(shi))
    }

    /// Makes every requested lane resident in **one** batch — the single
    /// materialisation routine of the store; [`StoredTrace::ensure`],
    /// [`StoredTrace::ensure_states_covering`] and
    /// [`StoredTrace::materialise_all`] are wrappers over it.
    ///
    /// The batch runs in four steps:
    ///
    /// 1. **plan** — each request becomes a *touch* (its rows are already
    ///    resident) or a *load* of one contiguous block run;
    /// 2. **read** — one [`ColdTier::read_at`] per load, on the calling
    ///    thread, in request order: the tier sees exactly the read sequence
    ///    the same requests issued one by one would produce, whatever the
    ///    thread budget (a [`crate::fault::FaultyTier`] schedule replays);
    /// 3. **verify + decode** — one parallel pass over the loads on the
    ///    [decode thread budget](Self::set_decode_threads), each claimed by
    ///    whichever worker is free: the lane's final columns are allocated
    ///    once at the run's row count (the directory knows it) and the run's
    ///    blocks go into them in order — CRC first, then the block's bytes
    ///    straight onto the end of the columns. Rows land where they will
    ///    live; nothing is joined, copied or regrown afterwards;
    /// 4. **install** — the columns are installed, and touches applied, in
    ///    request order (so least-recently-used eviction sees the requests in
    ///    the order they were made).
    ///
    /// **All or nothing:** steps 1–3 change nothing — the columns step 3
    /// fills belong to the batch, not to the trace, until step 4, which runs
    /// only when every block has verified and decoded. On any error — a
    /// failed read (the batch stops reading there), else the first checksum
    /// mismatch or undecodable block in request order — residency, rows and
    /// touch order are exactly what they were, so no lane is ever left torn.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a [`LaneRequest::StatesCovering`]
    /// naming a lane that is not a states lane, and propagates cold-tier read
    /// failures, [`TraceError::Corrupted`] checksum mismatches and block
    /// decoding errors.
    pub fn ensure_batch(&mut self, requests: &[LaneRequest]) -> Result<(), TraceError> {
        enum Step {
            Touch(usize),
            Load { idx: usize, lo: usize, hi: usize },
        }
        // Plan. `planned` holds the runs earlier loads of this batch install,
        // so a lane requested twice is judged as if the batch ran one by one.
        let mut steps = Vec::with_capacity(requests.len());
        let mut planned: HashMap<usize, (usize, usize)> = HashMap::new();
        for request in requests {
            let (lane, window) = match *request {
                LaneRequest::Full(lane) => (lane, None),
                LaneRequest::StatesCovering(lane @ LaneId::States(_), window) => {
                    (lane, Some(window))
                }
                LaneRequest::StatesCovering(lane, _) => {
                    return Err(TraceError::Format(format!(
                        "ensure_states_covering expects a states lane, got {lane}"
                    )));
                }
            };
            let Some(&idx) = self.lane_index.get(&lane) else {
                continue; // lane without stored rows: trivially resident
            };
            let resident = planned.get(&idx).copied();
            let resident = resident.or(self.residency[idx].map(|(run, _)| run));
            let (lo, hi) = self.needed_run(idx, window);
            if lo >= hi {
                // A lane quarantined whole reads as empty; a window no block
                // overlaps needs nothing, but still counts as a use.
                if window.is_some() && resident.is_some() {
                    steps.push(Step::Touch(idx));
                }
            } else if resident.is_some_and(|(rlo, rhi)| rlo <= lo && hi <= rhi) {
                steps.push(Step::Touch(idx));
            } else {
                // Checked here so that installing cannot fail half-way.
                if let LaneId::States(cpu) | LaneId::Events(cpu) | LaneId::Samples(cpu, _) = lane {
                    self.skeleton.cpu(cpu).ok_or(TraceError::UnknownCpu(cpu))?;
                }
                planned.insert(idx, (lo, hi));
                steps.push(Step::Load { idx, lo, hi });
            }
        }

        // Read, in request order, on this thread.
        let mut runs = Vec::new();
        for step in &steps {
            if let Step::Load { idx, lo, hi } = *step {
                let bytes = self.read_block_run(idx, lo, hi)?;
                self.stats.bytes_read += bytes.len() as u64;
                runs.push((&self.directory[idx], lo..hi, bytes));
            }
        }

        // Verify + decode: one job per load, claimed one at a time (a long
        // lane does not queue behind its neighbours). Each allocates its
        // lane's final columns once and runs its blocks into them in order,
        // every block verified before a byte of it is decoded.
        let decoded = parallel_map_chunks(self.threads, &mut runs, 1, |_, run| {
            let (dir, blocks, bytes) = &mut run[0];
            let bytes = std::mem::take(bytes); // freed when the lane is decoded
            let footers = &dir.blocks[blocks.clone()];
            let run_rows = footers.iter().map(|b| b.rows as usize).sum();
            let mut rows = Chunk::with_capacity(dir.lane, run_rows);
            for (k, footer) in blocks.clone().zip(footers) {
                let start = (footer.offset - footers[0].offset) as usize;
                rows.verify_then_decode(&bytes[start..start + footer.len as usize], footer)
                    .map_err(|fault| match fault {
                        BlockFault::Checksum { computed } => TraceError::Corrupted(format!(
                            "lane {}: block {k} checksum mismatch \
                             (stored {:#010x}, computed {computed:#010x})",
                            dir.lane, footer.crc
                        )),
                        BlockFault::Undecodable(e) => e,
                    })?;
            }
            Ok(rows)
        });
        drop(runs);
        let mut decoded = decoded
            .into_iter()
            .collect::<Result<Vec<Chunk>, TraceError>>()?
            .into_iter();

        // Install and touch, in request order.
        for step in steps {
            match step {
                Step::Touch(idx) => self.touch(idx),
                Step::Load { idx, lo, hi } => {
                    let rows = decoded.next().expect("one chunk per load");
                    self.install(self.directory[idx].lane, rows);
                    self.stats.lanes_materialised += 1;
                    self.stats.blocks_decoded += (hi - lo) as u64;
                    self.clock += 1;
                    self.residency[idx] = Some(((lo, hi), self.clock));
                }
            }
        }
        Ok(())
    }

    /// Materialises `lane` in full (decodes every block). A no-op when the
    /// lane is already fully resident.
    ///
    /// # Errors
    ///
    /// Propagates cold-tier read failures and block decoding errors.
    pub fn ensure(&mut self, lane: LaneId) -> Result<(), TraceError> {
        self.ensure_batch(&[LaneRequest::Full(lane)])
    }

    /// Materialises the minimal contiguous block run of a states lane that
    /// covers every state interval overlapping `window` (block-skipping).
    /// Blocks wholly outside the window are neither read nor decoded. A lane
    /// that is already fully resident, or whose resident run covers the
    /// window, is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when `lane` is not a states lane, and
    /// propagates read/decode failures.
    pub fn ensure_states_covering(
        &mut self,
        lane: LaneId,
        window: TimeInterval,
    ) -> Result<(), TraceError> {
        self.ensure_batch(&[LaneRequest::StatesCovering(lane, window)])
    }

    /// Materialises every lane and returns the fully resident trace.
    ///
    /// # Errors
    ///
    /// Propagates read/decode failures.
    pub fn materialise_all(&mut self) -> Result<&Trace, TraceError> {
        let all: Vec<LaneRequest> = self.lanes().map(LaneRequest::Full).collect();
        self.ensure_batch(&all)?;
        Ok(&self.skeleton)
    }

    /// Drops the resident rows of `lane`, returning its memory.
    pub fn evict(&mut self, lane: LaneId) {
        let Some(&idx) = self.lane_index.get(&lane) else {
            return;
        };
        if self.residency[idx].take().is_some() {
            self.install(lane, Chunk::with_capacity(lane, 0));
        }
    }

    /// Evicts least-recently-touched lanes (ties broken by lane order) until
    /// [`StoredTrace::resident_event_bytes`] fits the configured budget.
    /// Returns the evicted lanes in eviction order. Without a budget this is
    /// a no-op.
    pub fn evict_to_budget(&mut self) -> Vec<LaneId> {
        let Some(budget) = self.budget else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.resident_event_bytes() > budget {
            let victim = self
                .directory
                .iter()
                .enumerate()
                .filter_map(|(i, l)| self.residency[i].map(|(_, touched)| (touched, l.lane)))
                .min();
            let Some((_, lane)) = victim else {
                break; // nothing evictable left
            };
            self.evict(lane);
            evicted.push(lane);
        }
        evicted
    }
}

/// The row-at-a-time block decoders the store shipped with before blocks
/// decoded straight into columns: varints → temporary vectors → owned structs.
/// Kept as the independent oracle the column-direct decoders are tested
/// against (rows, error variants) — never compiled into the library.
#[cfg(test)]
mod aos_oracle {
    use super::{delta_overflow, get_varint};
    use crate::columns::decode_kind;
    use crate::error::TraceError;
    use crate::event::{CounterSample, DiscreteEvent};
    use crate::ids::{CounterId, CpuId, TaskId, TimeInterval, Timestamp};
    use crate::memory::{AccessKind, MemoryAccess};
    use crate::state::{StateInterval, WorkerState};

    fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, TraceError> {
        let bytes: [u8; 8] = buf
            .get(*pos..*pos + 8)
            .ok_or_else(|| TraceError::Format("truncated f64 in store block".into()))?
            .try_into()
            .expect("slice of length 8");
        *pos += 8;
        Ok(f64::from_le_bytes(bytes))
    }

    pub(super) fn decode_states_block(
        buf: &[u8],
        cpu: CpuId,
        rows: usize,
    ) -> Result<Vec<StateInterval>, TraceError> {
        let mut pos = 0usize;
        let mut starts = Vec::with_capacity(rows);
        let mut prev = 0u64;
        for i in 0..rows {
            let d = get_varint(buf, &mut pos)?;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or_else(delta_overflow)?
            };
            starts.push(prev);
        }
        let mut durations = Vec::with_capacity(rows);
        for _ in 0..rows {
            durations.push(get_varint(buf, &mut pos)?);
        }
        let tags = buf
            .get(pos..pos + rows)
            .ok_or_else(|| TraceError::Format("truncated state tag lane".into()))?;
        pos += rows;
        let mut rows_out = Vec::with_capacity(rows);
        for i in 0..rows {
            let state = WorkerState::from_index(tags[i] as usize)
                .ok_or_else(|| TraceError::Format(format!("invalid state tag {}", tags[i])))?;
            let biased = get_varint(buf, &mut pos)?;
            let task = if biased == 0 {
                None
            } else {
                Some(TaskId(biased - 1))
            };
            let end = starts[i]
                .checked_add(durations[i])
                .ok_or_else(delta_overflow)?;
            rows_out.push(StateInterval::new(
                cpu,
                state,
                TimeInterval::from_cycles(starts[i], end),
                task,
            ));
        }
        Ok(rows_out)
    }

    pub(super) fn decode_events_block(
        buf: &[u8],
        cpu: CpuId,
        rows: usize,
    ) -> Result<Vec<DiscreteEvent>, TraceError> {
        let mut pos = 0usize;
        let flags = *buf
            .get(pos)
            .ok_or_else(|| TraceError::Format("truncated event block".into()))?;
        pos += 1;
        let (has_b, has_c) = (flags & 1 != 0, flags & 2 != 0);
        let mut ts = Vec::with_capacity(rows);
        let mut prev = 0u64;
        for i in 0..rows {
            let d = get_varint(buf, &mut pos)?;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or_else(delta_overflow)?
            };
            ts.push(prev);
        }
        let tags = buf
            .get(pos..pos + rows)
            .ok_or_else(|| TraceError::Format("truncated event tag lane".into()))?
            .to_vec();
        pos += rows;
        if let Some(&bad) = tags.iter().find(|&&t| t > 6) {
            return Err(TraceError::Format(format!("invalid event tag {bad}")));
        }
        let mut pa = Vec::with_capacity(rows);
        for _ in 0..rows {
            pa.push(get_varint(buf, &mut pos)?);
        }
        let mut pb = vec![0u64; rows];
        if has_b {
            for b in pb.iter_mut() {
                *b = get_varint(buf, &mut pos)?;
            }
        }
        let mut pc = vec![0u64; rows];
        if has_c {
            for c in pc.iter_mut() {
                *c = get_varint(buf, &mut pos)?;
            }
        }
        Ok((0..rows)
            .map(|i| {
                DiscreteEvent::new(
                    cpu,
                    Timestamp(ts[i]),
                    decode_kind(tags[i], pa[i], pb[i], pc[i]),
                )
            })
            .collect())
    }

    pub(super) fn decode_samples_block(
        buf: &[u8],
        cpu: CpuId,
        counter: CounterId,
        rows: usize,
    ) -> Result<Vec<CounterSample>, TraceError> {
        let mut pos = 0usize;
        let mut ts = Vec::with_capacity(rows);
        let mut prev = 0u64;
        for i in 0..rows {
            let d = get_varint(buf, &mut pos)?;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or_else(delta_overflow)?
            };
            ts.push(prev);
        }
        let mut rows_out = Vec::with_capacity(rows);
        for &t in &ts {
            let v = get_f64(buf, &mut pos)?;
            rows_out.push(CounterSample::new(counter, cpu, Timestamp(t), v));
        }
        Ok(rows_out)
    }

    pub(super) fn decode_accesses_block(
        buf: &[u8],
        rows: usize,
    ) -> Result<Vec<MemoryAccess>, TraceError> {
        let mut pos = 0usize;
        let mut prev = 0u64;
        let mut rows_out = Vec::with_capacity(rows);
        for i in 0..rows {
            let d = get_varint(buf, &mut pos)?;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or_else(delta_overflow)?
            };
            if prev == 0 {
                return Err(TraceError::Format("zero biased task ref".into()));
            }
            let kind = match buf.get(pos) {
                Some(0) => AccessKind::Read,
                Some(1) => AccessKind::Write,
                _ => return Err(TraceError::Format("invalid access kind".into())),
            };
            pos += 1;
            let addr = get_varint(buf, &mut pos)?;
            let size = get_varint(buf, &mut pos)?;
            rows_out.push(MemoryAccess::new(TaskId(prev - 1), kind, addr, size));
        }
        Ok(rows_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DiscreteEventKind;
    use crate::topology::MachineTopology;
    use crate::trace::TraceBuilder;

    /// A small trace exercising every lane kind, including lazy event payload
    /// lanes and task-less states.
    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let ty = b.add_task_type("work", 0x4000);
        let ctr = b.add_counter("cycles", true);
        let mut tasks = Vec::new();
        for i in 0..10u64 {
            let cpu = CpuId((i % 2) as u32);
            let t0 = 100 * i;
            let t = b.add_task(
                ty,
                cpu,
                Timestamp(t0),
                Timestamp(t0 + 10),
                Timestamp(t0 + 90),
            );
            tasks.push(t);
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(t0 + 10),
                Timestamp(t0 + 90),
                Some(t),
            )
            .unwrap();
            b.add_state(
                cpu,
                WorkerState::Idle,
                Timestamp(t0 + 90),
                Timestamp(t0 + 100),
                None,
            )
            .unwrap();
            b.add_event(
                cpu,
                Timestamp(t0),
                DiscreteEventKind::TaskCreate { task: t },
            )
            .unwrap();
            b.add_event(
                cpu,
                Timestamp(t0 + 5),
                DiscreteEventKind::DataPublish {
                    producer: t,
                    consumer: t,
                    bytes: 64 * i,
                },
            )
            .unwrap();
            b.add_sample(ctr, cpu, Timestamp(t0), 1.5 * i as f64)
                .unwrap();
            b.add_access(t, AccessKind::Read, 0x1000 + 8 * i, 8)
                .unwrap();
            b.add_access(t, AccessKind::Write, 0x2000 + 8 * i, 16)
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn store_with_block_rows(trace: &Trace, block_rows: usize) -> StoredTrace {
        let bytes = write_store_bytes(trace, &StoreOptions { block_rows }).unwrap();
        StoredTrace::from_bytes(bytes).unwrap()
    }

    #[test]
    fn roundtrip_materialise_all_reproduces_trace() {
        let trace = sample_trace();
        for block_rows in [1, 3, 7, DEFAULT_BLOCK_ROWS] {
            let mut stored = store_with_block_rows(&trace, block_rows);
            assert_eq!(stored.num_events() as usize, trace.num_events());
            assert_eq!(stored.time_bounds(), trace.time_bounds_opt());
            assert_eq!(*stored.materialise_all().unwrap(), trace);
            assert_eq!(stored.resident_event_bytes(), trace.resident_event_bytes());
        }
    }

    #[test]
    fn open_is_lazy_and_resident_bytes_track_decoded_lanes() {
        let trace = sample_trace();
        let mut stored = store_with_block_rows(&trace, 4);
        // Nothing but the metadata-resident comm table counts after open.
        let comm_bytes = std::mem::size_of_val(trace.comm_events());
        assert_eq!(stored.resident_event_bytes(), comm_bytes);
        for lane in stored.lanes().collect::<Vec<_>>() {
            assert_eq!(stored.residency(lane), LaneResidency::Absent);
        }
        // Materialising one lane grows residency by exactly that lane's bytes.
        let lane = LaneId::States(CpuId(0));
        stored.ensure(lane).unwrap();
        assert_eq!(stored.residency(lane), LaneResidency::Full);
        assert_eq!(
            stored.resident_event_bytes(),
            comm_bytes + stored.lane_resident_bytes(lane)
        );
        // Evicting returns to the post-open footprint.
        stored.evict(lane);
        assert_eq!(stored.resident_event_bytes(), comm_bytes);
    }

    #[test]
    fn every_lane_kind_goes_out_and_comes_back_through_the_one_swap() {
        let trace = sample_trace();
        let mut stored = store_with_block_rows(&trace, 4);
        let opened = stored.trace().clone();
        let opened_bytes = stored.resident_event_bytes();
        stored.materialise_all().unwrap();
        let lanes: Vec<LaneId> = stored.lanes().collect();
        let kind = |lane: &LaneId| std::mem::discriminant(lane);
        let kinds: std::collections::HashSet<_> = lanes.iter().map(kind).collect();
        assert_eq!(kinds.len(), 5, "the sample trace stores every lane kind");
        for &lane in &lanes {
            stored.evict(lane);
            assert_eq!(stored.residency(lane), LaneResidency::Absent);
            assert_eq!(stored.lane_resident_bytes(lane), 0, "{lane}");
            assert_ne!(*stored.trace(), trace, "{lane} is out");
            stored.ensure(lane).unwrap();
            assert_eq!(*stored.trace(), trace, "{lane} is back");
        }
        // With every lane out the trace is the one that was opened: no bytes
        // and no empty samples entry stay behind.
        lanes.iter().for_each(|&lane| stored.evict(lane));
        assert_eq!(stored.resident_event_bytes(), opened_bytes);
        assert_eq!(*stored.trace(), opened);
    }

    #[test]
    fn block_skipping_materialises_only_overlapping_run() {
        let trace = sample_trace();
        let mut stored = store_with_block_rows(&trace, 4); // 20 states/cpu -> 5 blocks
        let lane = LaneId::States(CpuId(0));
        let window = TimeInterval::from_cycles(410, 590);
        stored.ensure_states_covering(lane, window).unwrap();
        assert_eq!(stored.residency(lane), LaneResidency::Partial);
        let full = trace.cpu(CpuId(0)).unwrap().states();
        let partial = stored.trace().cpu(CpuId(0)).unwrap().states();
        assert!(partial.len() < full.len());
        let span = stored.covered_span(lane).unwrap();
        assert!(span.start <= window.start && window.end <= span.end);
        // Every state overlapping the window is present, with identical rows.
        let expect: Vec<_> = (0..full.len())
            .map(|i| full.get(i))
            .filter(|s| s.interval.start.0 < window.end.0 && s.interval.end.0 > window.start.0)
            .collect();
        let got: Vec<_> = (0..partial.len())
            .map(|i| partial.get(i))
            .filter(|s| s.interval.start.0 < window.end.0 && s.interval.end.0 > window.start.0)
            .collect();
        assert_eq!(expect, got);
        // A wider window upgrades the run; a covered window is a no-op.
        stored
            .ensure_states_covering(lane, TimeInterval::from_cycles(450, 500))
            .unwrap();
        assert_eq!(stored.residency(lane), LaneResidency::Partial);
        stored
            .ensure_states_covering(lane, TimeInterval::from_cycles(0, 2000))
            .unwrap();
        assert_eq!(stored.residency(lane), LaneResidency::Full);
    }

    #[test]
    fn eviction_follows_touch_order_deterministically() {
        let trace = sample_trace();
        let mut stored = store_with_block_rows(&trace, DEFAULT_BLOCK_ROWS);
        let a = LaneId::States(CpuId(0));
        let b = LaneId::States(CpuId(1));
        let t = LaneId::Tasks;
        stored.ensure(a).unwrap();
        stored.ensure(b).unwrap();
        stored.ensure(t).unwrap();
        stored.ensure(a).unwrap(); // refresh a: LRU order is now b, t, a
        stored.set_residency_budget(Some(std::mem::size_of_val(trace.comm_events())));
        let evicted = stored.evict_to_budget();
        assert_eq!(evicted, vec![b, t, a]);
        // Same touch sequence, same order, every time.
        let mut again = store_with_block_rows(&trace, DEFAULT_BLOCK_ROWS);
        again.ensure(a).unwrap();
        again.ensure(b).unwrap();
        again.ensure(t).unwrap();
        again.ensure(a).unwrap();
        again.set_residency_budget(Some(std::mem::size_of_val(trace.comm_events())));
        assert_eq!(again.evict_to_budget(), evicted);
    }

    #[test]
    fn lint_passes_through_the_store() {
        let trace = sample_trace();
        let direct = trace.lint();
        let mut stored = store_with_block_rows(&trace, 4);
        let roundtripped = stored.materialise_all().unwrap().lint();
        assert_eq!(direct.summary(), roundtripped.summary());
    }

    #[test]
    fn rejects_foreign_and_truncated_files() {
        assert!(StoredTrace::from_bytes(b"AFTMnope".to_vec()).is_err());
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions::default()).unwrap();
        let truncated = bytes[..bytes.len() - 6].to_vec();
        assert!(StoredTrace::from_bytes(truncated).is_err());
    }

    #[test]
    fn version_1_is_rejected_as_unsupported() {
        let trace = sample_trace();
        let mut bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        for open in [StoredTrace::from_bytes, StoredTrace::from_bytes_salvage] {
            assert!(matches!(
                open(bytes.clone()),
                Err(TraceError::UnsupportedVersion(1))
            ));
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let trace = sample_trace();
        let mut bytes = write_store_bytes(&trace, &StoreOptions::default()).unwrap();
        bytes[4..8].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        assert!(matches!(
            StoredTrace::from_bytes(bytes),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }

    /// Finds the first data block of a states lane so tests can corrupt it.
    fn first_states_block(stored: &StoredTrace) -> BlockFooter {
        let idx = stored.lane_index[&LaneId::States(CpuId(0))];
        stored.directory[idx].blocks[0]
    }

    #[test]
    fn flipped_block_bit_is_caught_on_materialisation() {
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let footer = first_states_block(&probe);
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[footer.offset as usize] ^= 1 << bit;
            let mut stored = StoredTrace::from_bytes(corrupt).unwrap();
            match stored.ensure(LaneId::States(CpuId(0))) {
                Err(TraceError::Corrupted(msg)) => {
                    assert!(msg.contains("checksum mismatch"), "{msg}");
                }
                other => panic!("bit {bit}: expected Corrupted, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_directory_or_metadata_bit_fails_open_typed() {
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let trailer = bytes.len() - TRAILER_LEN;
        let dir_offset =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        // Directory damage: both strict and salvage opens refuse — the block
        // map itself cannot be trusted.
        let mut corrupt = bytes.clone();
        corrupt[dir_offset + 2] ^= 0x10;
        assert!(matches!(
            StoredTrace::from_bytes(corrupt.clone()),
            Err(TraceError::Corrupted(_)) | Err(TraceError::Format(_))
        ));
        assert!(matches!(
            StoredTrace::from_bytes_salvage(corrupt),
            Err(TraceError::Corrupted(_)) | Err(TraceError::Format(_))
        ));
        // Metadata damage likewise.
        let mut corrupt = bytes.clone();
        corrupt[10] ^= 0x01;
        assert!(StoredTrace::from_bytes(corrupt.clone()).is_err());
        assert!(StoredTrace::from_bytes_salvage(corrupt).is_err());
    }

    #[test]
    fn salvage_quarantines_damaged_block_and_serves_the_rest() {
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let lane = LaneId::States(CpuId(0));
        let idx = probe.lane_index[&lane];
        let blocks = probe.directory[idx].blocks.clone();
        assert!(blocks.len() >= 3, "need several blocks to quarantine one");
        // Damage the *first* block; the surviving run is the tail.
        let mut corrupt = bytes.clone();
        corrupt[blocks[0].offset as usize + 1] ^= 0x40;
        let mut salvaged = StoredTrace::from_bytes_salvage(corrupt).unwrap();
        let report = salvaged.damage().unwrap().clone();
        assert!(!report.is_clean());
        assert_eq!(report.count(DamageCode::BlockChecksumMismatch), 1);
        let lane_damage = report.lanes.iter().find(|l| l.lane == lane).unwrap();
        assert_eq!(lane_damage.damaged_blocks, vec![0]);
        assert_eq!(lane_damage.surviving_run, (1, blocks.len()));
        assert!(report.row_coverage() < 1.0);
        // The surviving span still answers exactly: rows equal the undamaged
        // trace's rows over the same span.
        let span = salvaged.salvage_covered_span(lane).unwrap();
        salvaged.ensure(lane).unwrap();
        let full = trace.cpu(CpuId(0)).unwrap().states();
        let got = salvaged.trace().cpu(CpuId(0)).unwrap().states();
        let expect: Vec<_> = (0..full.len())
            .map(|i| full.get(i))
            .filter(|s| s.interval.start.0 >= span.start.0)
            .collect();
        let got_rows: Vec<_> = (0..got.len())
            .map(|i| got.get(i))
            .filter(|s| s.interval.start.0 >= span.start.0)
            .collect();
        assert_eq!(expect, got_rows);
        // Other lanes are untouched.
        salvaged.ensure(LaneId::Tasks).unwrap();
        assert_eq!(salvaged.trace().tasks(), trace.tasks());
    }

    #[test]
    fn salvage_quarantines_task_table_whole() {
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let idx = probe.lane_index[&LaneId::Tasks];
        let footer = probe.directory[idx].blocks[1];
        let mut corrupt = bytes.clone();
        corrupt[footer.offset as usize] ^= 0x02;
        let mut salvaged = StoredTrace::from_bytes_salvage(corrupt).unwrap();
        let report = salvaged.damage().unwrap();
        let lane_damage = report
            .lanes
            .iter()
            .find(|l| l.lane == LaneId::Tasks)
            .unwrap();
        assert_eq!(lane_damage.surviving_run, (0, 0));
        assert_eq!(lane_damage.surviving_rows, 0);
        assert_eq!(salvaged.salvage_covered_span(LaneId::Tasks), None);
        // ensure() is a no-op for a quarantined lane: it reads as empty.
        salvaged.ensure(LaneId::Tasks).unwrap();
        assert!(salvaged.trace().tasks().is_empty());
    }

    #[test]
    fn salvage_over_unreadable_ranges_reports_s002() {
        /// A tier that refuses reads overlapping one byte range.
        #[derive(Debug)]
        struct HoleTier {
            bytes: Vec<u8>,
            hole: std::ops::Range<u64>,
        }
        impl ColdTier for HoleTier {
            fn size(&self) -> Result<u64, TraceError> {
                Ok(self.bytes.len() as u64)
            }
            fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
                let end = offset + buf.len() as u64;
                if offset < self.hole.end && end > self.hole.start {
                    return Err(TraceError::Io(std::io::Error::other("bad sector")));
                }
                buf.copy_from_slice(&self.bytes[offset as usize..end as usize]);
                Ok(())
            }
        }
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let footer = first_states_block(&probe);
        let tier = HoleTier {
            bytes,
            hole: footer.offset..footer.offset + footer.len,
        };
        let salvaged = StoredTrace::open_with_tier_salvage(Box::new(tier)).unwrap();
        let report = salvaged.damage().unwrap();
        assert_eq!(report.count(DamageCode::BlockUnreadable), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn damage_code_labels_are_stable_and_unique() {
        let mut labels: Vec<_> = DamageCode::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels[0], "S001-block-checksum-mismatch");
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DamageCode::ALL.len());
        for code in DamageCode::ALL {
            assert_eq!(DamageCode::from_label(code.label()), Some(code));
        }
    }

    /// Every block of `stored`, with its lane, footer and payload bytes.
    fn blocks_of(stored: &StoredTrace, bytes: &[u8]) -> Vec<(LaneId, BlockFooter, Vec<u8>)> {
        stored
            .directory
            .iter()
            .flat_map(|dir| dir.blocks.iter().map(move |b| (dir.lane, *b)))
            .map(|(lane, b)| {
                let payload = bytes[b.offset as usize..(b.offset + b.len) as usize].to_vec();
                (lane, b, payload)
            })
            .collect()
    }

    /// Decodes one block the way a one-block lane run does.
    fn decode_alone(buf: &[u8], lane: LaneId, footer: &BlockFooter) -> Result<Chunk, TraceError> {
        let mut rows = Chunk::with_capacity(lane, footer.rows as usize);
        rows.decode_block(buf, footer)?;
        Ok(rows)
    }

    /// Decodes a run of blocks with the row-at-a-time oracle and pushes the rows
    /// the way the store used to, giving the chunk the column-direct path must
    /// equal.
    fn oracle_run<'a>(
        lane: LaneId,
        blocks: impl IntoIterator<Item = (&'a BlockFooter, &'a [u8])>,
    ) -> Result<Chunk, TraceError> {
        let mut chunk = Chunk::with_capacity(lane, 0);
        for (footer, buf) in blocks {
            let rows = footer.rows as usize;
            match (&mut chunk, lane) {
                (Chunk::States(col), LaneId::States(cpu)) => {
                    for r in aos_oracle::decode_states_block(buf, cpu, rows)? {
                        col.push(r);
                    }
                }
                (Chunk::Events(col), LaneId::Events(cpu)) => {
                    for r in aos_oracle::decode_events_block(buf, cpu, rows)? {
                        col.push(r);
                    }
                }
                (Chunk::Samples(col), LaneId::Samples(cpu, ctr)) => {
                    for r in aos_oracle::decode_samples_block(buf, cpu, ctr, rows)? {
                        col.push(r);
                    }
                }
                (Chunk::Accesses(col), _) => {
                    for r in aos_oracle::decode_accesses_block(buf, rows)? {
                        col.push(r);
                    }
                }
                (tasks, _) => tasks.decode_block(buf, footer)?,
            }
        }
        Ok(chunk)
    }

    fn oracle_chunk(buf: &[u8], lane: LaneId, footer: &BlockFooter) -> Result<Chunk, TraceError> {
        oracle_run(lane, [(footer, buf)])
    }

    fn assert_same_chunk(direct: &Chunk, oracle: &Chunk, what: &str) {
        match (direct, oracle) {
            (Chunk::States(a), Chunk::States(b)) => assert_eq!(a, b, "{what}"),
            (Chunk::Events(a), Chunk::Events(b)) => assert_eq!(a, b, "{what}"),
            (Chunk::Samples(a), Chunk::Samples(b)) => assert_eq!(a, b, "{what}"),
            (Chunk::Accesses(a), Chunk::Accesses(b)) => assert_eq!(a, b, "{what}"),
            (Chunk::Tasks(a), Chunk::Tasks(b)) => assert_eq!(a, b, "{what}"),
            _ => panic!("{what}: chunk kinds differ"),
        }
    }

    #[test]
    fn column_direct_decoders_match_the_aos_oracle() {
        let trace = sample_trace();
        for block_rows in [1, 3, 7, DEFAULT_BLOCK_ROWS] {
            let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
            let stored = StoredTrace::from_bytes(bytes.clone()).unwrap();
            for (lane, footer, payload) in blocks_of(&stored, &bytes) {
                let what = format!("{lane} @ {block_rows} rows/block");
                let direct = decode_alone(&payload, lane, &footer).unwrap();
                let oracle = oracle_chunk(&payload, lane, &footer).unwrap();
                assert_same_chunk(&direct, &oracle, &what);
                // Truncated at every length and with every byte damaged in
                // turn, both decoders accept or reject together, with the
                // same error variant — and equal rows when they accept.
                let damaged = (0..payload.len()).map(|cut| payload[..cut].to_vec()).chain(
                    (0..payload.len()).map(|at| {
                        let mut flipped = payload.clone();
                        flipped[at] ^= 0xa5;
                        flipped
                    }),
                );
                for bad in damaged {
                    match (
                        decode_alone(&bad, lane, &footer),
                        oracle_chunk(&bad, lane, &footer),
                    ) {
                        (Ok(d), Ok(o)) => assert_same_chunk(&d, &o, &what),
                        (Err(d), Err(o)) => assert_eq!(
                            std::mem::discriminant(&d),
                            std::mem::discriminant(&o),
                            "{what}: {d} vs {o}"
                        ),
                        (d, o) => panic!("{what}: decoders disagree: {d:?} vs {o:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_task_block_id_beyond_32_bits_is_refused_not_wrapped() {
        // One task row: type, cpu, creator cpu, creation, start, duration —
        // a well-formed one (2 is a zigzag +1) but for the `wide` field, which
        // wrapped would be id 1.
        for (wide, what) in [
            (0, "task type id"),
            (1, "task cpu id"),
            (2, "task creator cpu id"),
        ] {
            let mut block = Vec::new();
            for field in 0..6 {
                put_varint(&mut block, if field == wide { (1 << 32) | 1 } else { 2 });
            }
            let mut tasks = Vec::new();
            let err = decode_tasks_block(&block, 0, 1, &mut tasks).unwrap_err();
            assert!(
                matches!(&err, TraceError::Format(m) if m.contains(what)),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn hostile_payloads_keep_the_width_and_lane_shape_of_pushed_rows() {
        // A task ref beyond 32 bits widens the column exactly as `push` would.
        let mut block = Vec::new();
        put_varint(&mut block, 10); // start
        put_varint(&mut block, 5); // duration
        block.push(WorkerState::TaskExecution as u8);
        put_varint(&mut block, u64::from(u32::MAX) + 2); // biased task ref
        let footer = BlockFooter {
            offset: 0,
            len: block.len() as u64,
            rows: 1,
            min_key: 10,
            max_key: 15,
            crc: 0,
        };
        let lane = LaneId::States(CpuId(0));
        let direct = decode_alone(&block, lane, &footer).unwrap();
        let oracle = oracle_chunk(&block, lane, &footer).unwrap();
        assert_same_chunk(&direct, &oracle, "wide task ref");
        let (Chunk::States(d), Chunk::States(mut o)) = (direct, oracle) else {
            unreachable!()
        };
        o.shrink_to_fit();
        assert_eq!(d.memory_bytes(), o.memory_bytes());
        // An event block that stores a payload lane of zeros leaves it absent.
        let mut block = vec![0b11u8];
        put_varint(&mut block, 7); // timestamp
        block.push(6); // marker
        for payload in [9, 0, 0] {
            put_varint(&mut block, payload);
        }
        let footer = BlockFooter {
            len: block.len() as u64,
            min_key: 7,
            max_key: 7,
            ..footer
        };
        let lane = LaneId::Events(CpuId(0));
        let (Chunk::Events(mut d), Chunk::Events(mut o)) = (
            decode_alone(&block, lane, &footer).unwrap(),
            oracle_chunk(&block, lane, &footer).unwrap(),
        ) else {
            unreachable!()
        };
        d.shrink_to_fit();
        o.shrink_to_fit();
        assert_eq!(d, o);
        assert_eq!(d.memory_bytes(), o.memory_bytes());
    }

    #[test]
    fn batch_equals_one_by_one_and_a_failed_batch_changes_nothing() {
        let trace = sample_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let window = TimeInterval::from_cycles(410, 590);
        let requests = [
            LaneRequest::StatesCovering(LaneId::States(CpuId(0)), window),
            LaneRequest::Full(LaneId::Tasks),
            LaneRequest::Full(LaneId::States(CpuId(1))),
            LaneRequest::StatesCovering(LaneId::States(CpuId(1)), window), // a touch
            LaneRequest::Full(LaneId::Samples(CpuId(0), CounterId(0))),
        ];
        let mut batched = StoredTrace::from_bytes(bytes.clone()).unwrap();
        batched.ensure_batch(&requests).unwrap();
        let mut stepped = StoredTrace::from_bytes(bytes.clone()).unwrap();
        stepped.set_decode_threads(Threads::single());
        for request in requests {
            stepped.ensure_batch(&[request]).unwrap();
        }
        assert_eq!(batched.trace(), stepped.trace());
        assert_eq!(
            batched.resident_event_bytes(),
            stepped.resident_event_bytes()
        );
        for lane in batched.lanes().collect::<Vec<_>>() {
            assert_eq!(batched.residency(lane), stepped.residency(lane), "{lane}");
            assert_eq!(batched.covered_span(lane), stepped.covered_span(lane));
        }
        for stored in [&mut batched, &mut stepped] {
            stored.set_residency_budget(Some(0));
        }
        assert_eq!(batched.evict_to_budget(), stepped.evict_to_budget());
        assert_eq!(
            batched.materialise_stats().lanes_materialised,
            stepped.materialise_stats().lanes_materialised
        );

        // One damaged block late in the batch: the typed error comes back and
        // the lanes that decoded cleanly are *not* installed either.
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let idx = probe.lane_index[&LaneId::Tasks];
        let mut corrupt = bytes;
        corrupt[probe.directory[idx].blocks[1].offset as usize] ^= 0x08;
        let mut stored = StoredTrace::from_bytes(corrupt).unwrap();
        stored.ensure(LaneId::States(CpuId(1))).unwrap();
        let before = stored.trace().clone();
        let err = stored
            .ensure_batch(&[
                LaneRequest::Full(LaneId::States(CpuId(0))),
                LaneRequest::Full(LaneId::States(CpuId(1))),
                LaneRequest::Full(LaneId::Tasks),
            ])
            .unwrap_err();
        assert!(matches!(err, TraceError::Corrupted(_)), "{err}");
        assert_eq!(*stored.trace(), before);
        assert_eq!(
            stored.residency(LaneId::States(CpuId(0))),
            LaneResidency::Absent
        );
        assert_eq!(stored.residency(LaneId::Tasks), LaneResidency::Absent);
        // ... and the untouched lane is still the least recently used one.
        stored.ensure(LaneId::States(CpuId(0))).unwrap();
        stored.set_residency_budget(Some(0));
        assert_eq!(
            stored.evict_to_budget(),
            vec![LaneId::States(CpuId(1)), LaneId::States(CpuId(0))]
        );
        // A windowed request for a lane that is not a states lane is refused.
        assert!(matches!(
            stored.ensure_batch(&[LaneRequest::StatesCovering(LaneId::Tasks, window)]),
            Err(TraceError::Format(_))
        ));
    }

    #[test]
    fn writer_output_is_pinned_byte_for_byte() {
        // The encoders may change how they produce bytes, never which bytes:
        // `store_bytes_per_event` and every existing file depend on it.
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let trace = sample_trace();
        // The metadata header, as PR 20 wrote it (`write_trace` of a lane-less
        // deep copy of the trace).
        let mut meta = Vec::new();
        format::write_metadata(&trace, &mut meta).unwrap();
        assert_eq!((meta.len(), crc32(&meta)), (75, 0x4b4c_9eb1));
        let pinned = [
            (3usize, (993usize, 0x4f04_e7d5_b588_f852u64)),
            (DEFAULT_BLOCK_ROWS, (706, 0x1a1a_1cbd_0295_d15d)),
        ];
        for (block_rows, (len, digest)) in pinned {
            let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
            assert_eq!(
                (bytes.len(), fnv1a(&bytes)),
                (len, digest),
                "store bytes changed at {block_rows} rows per block"
            );
        }
    }

    /// The store file of `trace`, encoded on `threads`.
    fn bytes_on(trace: &Trace, options: &StoreOptions, threads: Threads) -> Vec<u8> {
        encode_store(trace, options, threads).unwrap().0.concat()
    }

    /// The thread budgets every budget-independence test runs at.
    fn budgets() -> [Threads; 3] {
        [Threads::single(), Threads::new(2), Threads::auto()]
    }

    #[test]
    fn writer_output_does_not_depend_on_the_thread_budget() {
        let trace = sample_trace();
        for block_rows in [1, 3, 7, DEFAULT_BLOCK_ROWS] {
            let options = StoreOptions { block_rows };
            let pinned = bytes_on(&trace, &options, Threads::single());
            for threads in budgets() {
                let bytes = bytes_on(&trace, &options, threads);
                assert!(
                    bytes == pinned,
                    "{block_rows} rows per block, {threads} threads"
                );
            }
            assert!(write_store_bytes(&trace, &options).unwrap() == pinned);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn writer_output_does_not_depend_on_the_thread_budget_on_random_traces(
            script in proptest::collection::vec((0u64..30, 1u64..50, 0u8..6), 1..90),
            block_rows in 1usize..12,
        ) {
            // Every lane kind, two CPUs, lazy event payloads here and there.
            let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
            let ty = b.add_task_type("work", 0x4000);
            let ctr = b.add_counter("cycles", true);
            let mut clock = [0u64; 2];
            for (i, &(gap, duration, pick)) in script.iter().enumerate() {
                let cpu = CpuId((i % 2) as u32);
                let t0 = clock[i % 2] + gap;
                let t1 = t0 + duration;
                clock[i % 2] = t1;
                let task = b.add_task(ty, cpu, Timestamp(t0), Timestamp(t0), Timestamp(t1));
                b.add_state(cpu, WorkerState::TaskExecution, Timestamp(t0), Timestamp(t1), Some(task))
                    .unwrap();
                let kind = match pick {
                    0 => DiscreteEventKind::DataPublish { producer: task, consumer: task, bytes: gap },
                    1 => DiscreteEventKind::StealSuccess { victim: cpu, task },
                    _ => DiscreteEventKind::Marker { code: u32::from(pick) },
                };
                b.add_event(cpu, Timestamp(t0), kind).unwrap();
                b.add_sample(ctr, cpu, Timestamp(t0), duration as f64 * 0.25).unwrap();
                b.add_access(task, AccessKind::Write, 0x1000 + 8 * i as u64, 8 + gap).unwrap();
            }
            let trace = b.finish().unwrap();
            let options = StoreOptions { block_rows };
            let pinned = bytes_on(&trace, &options, Threads::single());
            for threads in budgets() {
                let bytes = bytes_on(&trace, &options, threads);
                proptest::prop_assert!(bytes == pinned, "{} threads", threads);
            }
        }
    }

    /// Ten rows in every lane kind of CPU 0 — three blocks at four rows a
    /// block, the last one short — with the decisions a lane takes once
    /// forced late: the states' task references need 64 bits only in the last
    /// block, the events carry a third payload only in the middle one.
    fn late_deciding_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
        let ty = b.add_task_type("work", 0x4000);
        let ctr = b.add_counter("cycles", true);
        for i in 0..10u64 {
            let cpu = CpuId(0);
            let t0 = 100 * i;
            let task = b.add_task(ty, cpu, Timestamp(t0), Timestamp(t0), Timestamp(t0 + 90));
            let referenced = if i < 8 { task } else { TaskId((1 << 33) + i) };
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(t0),
                Timestamp(t0 + 90),
                Some(referenced),
            )
            .unwrap();
            let kind = if (4..8).contains(&i) {
                DiscreteEventKind::DataPublish {
                    producer: task,
                    consumer: task,
                    bytes: 64 + i,
                }
            } else {
                DiscreteEventKind::Marker { code: i as u32 }
            };
            b.add_event(cpu, Timestamp(t0 + 1), kind).unwrap();
            b.add_sample(ctr, cpu, Timestamp(t0), 0.5 * i as f64)
                .unwrap();
            b.add_access(task, AccessKind::Read, 0x1000 + 8 * i, 8)
                .unwrap();
            // CPU 1 keeps a one-block lane beside the three-block ones.
            b.add_state(
                CpuId(1),
                WorkerState::Idle,
                Timestamp(t0),
                Timestamp(t0 + 100),
                None,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    /// The resident rows of `lane`, as the chunk they were installed from.
    fn resident_chunk(stored: &StoredTrace, lane: LaneId) -> Chunk {
        let trace = stored.trace();
        match lane {
            LaneId::States(cpu) => Chunk::States(trace.cpu(cpu).unwrap().states.clone()),
            LaneId::Events(cpu) => Chunk::Events(trace.cpu(cpu).unwrap().events.clone()),
            LaneId::Samples(cpu, ctr) => {
                Chunk::Samples(trace.cpu(cpu).unwrap().samples[&ctr].clone())
            }
            LaneId::Accesses => Chunk::Accesses(trace.data().accesses.clone()),
            LaneId::Tasks => Chunk::Tasks(trace.tasks().to_vec()),
        }
    }

    /// Holds the resident rows of `lane` against the oracle's decoding of its
    /// blocks `[lo, hi)`.
    fn assert_resident_run_matches_the_oracle(
        stored: &StoredTrace,
        bytes: &[u8],
        lane: LaneId,
        (lo, hi): (usize, usize),
        what: &str,
    ) {
        let footers = &stored.lane_directory(lane).unwrap().blocks[lo..hi];
        let blocks = footers
            .iter()
            .map(|b| (b, &bytes[b.offset as usize..(b.offset + b.len) as usize]));
        let oracle = oracle_run(lane, blocks).unwrap();
        assert_same_chunk(&resident_chunk(stored, lane), &oracle, what);
    }

    #[test]
    fn lane_runs_decode_in_place_like_the_oracle_at_every_budget() {
        let trace = late_deciding_trace();
        let options = StoreOptions { block_rows: 4 };
        for threads in budgets() {
            let bytes = bytes_on(&trace, &options, threads);
            // Whole lanes: three blocks each on CPU 0, the last one short.
            let mut stored = StoredTrace::from_bytes(bytes.clone()).unwrap();
            stored.set_decode_threads(threads);
            assert_eq!(
                *stored.materialise_all().unwrap(),
                trace,
                "{threads} threads"
            );
            assert_eq!(stored.resident_event_bytes(), trace.resident_event_bytes());
            for lane in stored.lanes().collect::<Vec<_>>() {
                let blocks = stored.lane_directory(lane).unwrap().blocks.len();
                if lane != LaneId::States(CpuId(1)) {
                    assert!(blocks >= 3, "{lane} has {blocks} blocks");
                }
                let what = format!("{lane}, whole, {threads} threads");
                assert_resident_run_matches_the_oracle(&stored, &bytes, lane, (0, blocks), &what);
            }
            // ... in columns of exactly their rows, the task references wide.
            let wide_row = 8 + 8 + 1 + 8;
            assert_eq!(
                stored.lane_resident_bytes(LaneId::States(CpuId(0))),
                10 * wide_row
            );
            // A covering run that starts past block 0 (and ends in the wide one).
            let lane = LaneId::States(CpuId(0));
            let mut stored = StoredTrace::from_bytes(bytes.clone()).unwrap();
            stored.set_decode_threads(threads);
            stored
                .ensure_states_covering(lane, TimeInterval::from_cycles(450, 1000))
                .unwrap();
            let resident = stored.residency[stored.lane_index[&lane]];
            assert_eq!(resident.map(|(run, _)| run), Some((1, 3)));
            assert_eq!(stored.residency(lane), LaneResidency::Partial);
            let what = format!("{lane}, blocks 1..3, {threads} threads");
            assert_resident_run_matches_the_oracle(&stored, &bytes, lane, (1, 3), &what);
            let resident = stored.trace().cpu(CpuId(0)).unwrap().states.to_vec();
            assert_eq!(resident, trace.cpu(CpuId(0)).unwrap().states.to_vec()[4..]);
        }
    }

    #[test]
    fn a_flipped_byte_in_the_last_block_of_the_last_lane_changes_nothing() {
        let trace = late_deciding_trace();
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let last = *probe
            .lane_directory(LaneId::Tasks)
            .unwrap()
            .blocks
            .last()
            .unwrap();
        let mut corrupt = bytes;
        corrupt[(last.offset + last.len - 1) as usize] ^= 0x20;
        let resident = [
            LaneId::Samples(CpuId(0), CounterId(0)),
            LaneId::States(CpuId(1)),
        ];
        for threads in budgets() {
            let mut stored = StoredTrace::from_bytes(corrupt.clone()).unwrap();
            stored.set_decode_threads(threads);
            for lane in resident {
                stored.ensure(lane).unwrap();
            }
            let before = stored.trace().clone();
            let (bytes_before, stats_before) =
                (stored.resident_event_bytes(), stored.materialise_stats());
            // Every lane but the last decodes cleanly, in full — and is dropped.
            let err = stored
                .ensure_batch(&[
                    LaneRequest::Full(LaneId::States(CpuId(0))),
                    LaneRequest::Full(LaneId::States(CpuId(1))), // a touch
                    LaneRequest::Full(LaneId::Events(CpuId(0))),
                    LaneRequest::Full(LaneId::Accesses),
                    LaneRequest::Full(LaneId::Tasks),
                ])
                .unwrap_err();
            match err {
                TraceError::Corrupted(msg) => assert!(msg.contains("tasks: block 2"), "{msg}"),
                other => panic!("expected Corrupted, got {other:?}"),
            }
            assert_eq!(*stored.trace(), before, "{threads} threads");
            assert_eq!(stored.resident_event_bytes(), bytes_before);
            for lane in stored.lanes().collect::<Vec<_>>() {
                let expect = if resident.contains(&lane) {
                    LaneResidency::Full
                } else {
                    LaneResidency::Absent
                };
                assert_eq!(stored.residency(lane), expect, "{lane}");
            }
            let stats = stored.materialise_stats();
            assert_eq!(stats.lanes_materialised, stats_before.lanes_materialised);
            assert_eq!(stats.blocks_decoded, stats_before.blocks_decoded);
            // The touch the failed batch planned was not applied either.
            stored.set_residency_budget(Some(0));
            assert_eq!(stored.evict_to_budget(), resident);
        }
    }

    /// A fresh directory under the system's temporary one, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("afst-{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn entries(&self) -> Vec<std::ffi::OsString> {
            let mut names: Vec<_> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn a_store_file_appears_whole_or_not_at_all() {
        let trace = sample_trace();
        let options = StoreOptions { block_rows: 3 };
        let dir = TempDir::new("whole-or-not");
        let path = dir.0.join("trace.afst");
        // A successful write leaves exactly the one file, with the writer's bytes.
        write_store_file_with(&trace, &path, &options).unwrap();
        assert_eq!(dir.entries(), ["trace.afst"]);
        let written = std::fs::read(&path).unwrap();
        assert!(written == write_store_bytes(&trace, &options).unwrap());
        // No destination directory: an I/O error, and nothing is created.
        let missing = dir.0.join("no-such-dir").join("trace.afst");
        assert!(matches!(
            write_store_file_with(&trace, &missing, &options),
            Err(TraceError::Io(_))
        ));
        assert_eq!(dir.entries(), ["trace.afst"]);
        // A re-write that cannot finish (its temporary's name is taken by a
        // directory) keeps the file that was there, byte for byte.
        let temp = temp_sibling(&path);
        std::fs::create_dir(&temp).unwrap();
        assert!(matches!(
            write_store_file(&trace, &path),
            Err(TraceError::Io(_))
        ));
        assert!(std::fs::read(&path).unwrap() == written);
        std::fs::remove_dir(&temp).unwrap();
        // ... and one that can replaces it whole.
        write_store_file(&trace, &path).unwrap();
        assert_eq!(dir.entries(), ["trace.afst"]);
        assert!(
            std::fs::read(&path).unwrap()
                == write_store_bytes(&trace, &StoreOptions::default()).unwrap()
        );
    }

    #[test]
    fn the_writer_reports_the_statistics_open_reads_back() {
        let trace = sample_trace();
        let dir = TempDir::new("writer-stats");
        let path = dir.0.join("trace.afst");
        for block_rows in [1, 3, DEFAULT_BLOCK_ROWS] {
            let stats = write_store_file_with(&trace, &path, &StoreOptions { block_rows }).unwrap();
            let stored = StoredTrace::open(&path).unwrap();
            assert_eq!(stats.file_bytes, stored.file_bytes());
            assert_eq!(stats.file_bytes, std::fs::metadata(&path).unwrap().len());
            assert_eq!(stats.num_lanes, stored.lanes().count());
            let blocks = |lane| stored.lane_directory(lane).unwrap().blocks.iter();
            assert_eq!(
                stats.num_blocks,
                stored
                    .lanes()
                    .map(|lane| blocks(lane).count())
                    .sum::<usize>()
            );
            assert_eq!(
                stats.data_bytes,
                stored.lanes().flat_map(blocks).map(|b| b.len).sum::<u64>()
            );
            let first = stored
                .lanes()
                .flat_map(blocks)
                .map(|b| b.offset)
                .min()
                .unwrap();
            assert_eq!(
                stats.metadata_bytes + 8 + 1,
                first,
                "one-byte length varint"
            );
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TraceBuilder::new(MachineTopology::uniform(1, 1))
            .finish()
            .unwrap();
        let mut stored = store_with_block_rows(&trace, DEFAULT_BLOCK_ROWS);
        assert_eq!(stored.lanes().count(), 0);
        assert_eq!(*stored.materialise_all().unwrap(), trace);
    }
}
