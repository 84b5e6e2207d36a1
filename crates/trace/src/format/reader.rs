//! Deserialization of traces from the binary trace format.
//!
//! One pass, one path: after the file header, each section's payload is read
//! into memory and decoded record by record off the crate's byte cursor
//! ([`WireReader`]), every record going straight into the [`TraceBuilder`] —
//! no intermediate record vectors, and only one payload alive at a time, so a
//! large trace peaks at roughly the built trace's size. The builder validates
//! what it is handed (dense ids, known CPUs and tasks), the cursor what it
//! decodes (bounds, lengths, ids that fit their type). The thread budget of
//! [`read_trace_with`] goes to [`TraceBuilder::finish_with`], which splits and
//! sorts the per-CPU streams in parallel. Decoding is not fanned out: records
//! must reach the builder in file order, and decoding sections apart means
//! holding their records in between — which costs more than a second core
//! gives back (the paper-scale trace reads about twice as fast this way on
//! one thread as through such a pipeline on two).

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use aftermath_exec::Threads;

use super::varint::read_varint;
use super::{SectionTag, FORMAT_VERSION, MAGIC};
use crate::columns::{decode_kind, encode_kind, kind_arity};
use crate::error::TraceError;
use crate::event::{CommEvent, CommKind};
use crate::ids::{CounterId, CpuId, NumaNodeId, TaskId, TaskTypeId, Timestamp};
use crate::memory::AccessKind;
use crate::state::WorkerState;
use crate::symbols::SymbolTable;
use crate::topology::{CpuInfo, MachineTopology};
use crate::trace::{Trace, TraceBuilder};
use crate::wire::{WireError, WireReader};

/// Longest name (counter, task type, symbol) a section may carry.
const MAX_NAME_BYTES: usize = 16 * 1024 * 1024;

/// Most CPUs a topology section may declare.
const MAX_CPUS: usize = 1 << 20;

/// Reads a trace from `r` on the calling thread.
///
/// Unknown section tags are skipped, so traces written by newer minor revisions of the
/// format remain loadable as long as the sections this reader understands are intact.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for malformed input, [`TraceError::UnsupportedVersion`]
/// for a version mismatch and [`TraceError::Io`] for I/O failures.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceError> {
    read_trace_with(r, Threads::single())
}

/// Reads a trace from `r`, finishing the build (splitting and sorting the per-CPU
/// streams, [`TraceBuilder::finish_with`]) on up to `threads` worker threads.
///
/// The result is identical to [`read_trace`]: the sections are decoded in file
/// order on the calling thread either way.
///
/// # Errors
///
/// See [`read_trace`].
pub fn read_trace_with<R: Read>(mut r: R, threads: Threads) -> Result<Trace, TraceError> {
    read_header(&mut r)?;
    let mut builder: Option<TraceBuilder> = None;
    let mut symbols = SymbolTable::new();
    while let Some((tag, payload)) = next_section(&mut r)? {
        apply_section(tag, &payload, &mut builder, &mut symbols)?;
    }
    let mut builder = builder.ok_or_else(|| fmt_err("trace has no topology section"))?;
    builder.set_symbols(symbols);
    builder.finish_with(threads)
}

/// Reads a trace from the file at `path` on the calling thread.
///
/// # Errors
///
/// See [`read_trace`].
pub fn read_trace_file<P: AsRef<Path>>(path: P) -> Result<Trace, TraceError> {
    read_trace_file_with(path, Threads::single())
}

/// Reads a trace from the file at `path`, finishing the build on `threads`.
///
/// # Errors
///
/// See [`read_trace`].
pub fn read_trace_file_with<P: AsRef<Path>>(
    path: P,
    threads: Threads,
) -> Result<Trace, TraceError> {
    let file = File::open(path)?;
    read_trace_with(BufReader::new(file), threads)
}

/// Checks the magic bytes and format version at the start of the stream.
fn read_header<R: Read>(r: &mut R) -> Result<(), TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(fmt_err("bad magic bytes"));
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Reads the next known section (tag and payload) from the stream; unknown tags
/// are skipped, and `None` marks the end marker or EOF.
fn next_section<R: Read>(r: &mut R) -> Result<Option<(SectionTag, Vec<u8>)>, TraceError> {
    loop {
        let mut tag = [0u8; 1];
        match r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = read_varint(r)? as usize;
        // The length is untrusted input: read incrementally instead of pre-allocating,
        // so a corrupted length cannot trigger a huge allocation.
        let mut payload = Vec::new();
        let read = r.by_ref().take(len as u64).read_to_end(&mut payload)?;
        if read != len {
            return Err(TraceError::Format(format!(
                "section payload truncated: expected {len} bytes, got {read}"
            )));
        }
        match SectionTag::from_u8(tag[0]) {
            None => continue, // unknown section: skip
            Some(SectionTag::End) => return Ok(None),
            Some(tag) => return Ok(Some((tag, payload))),
        }
    }
}

fn fmt_err(msg: &str) -> TraceError {
    TraceError::Format(msg.to_string())
}

/// A presence byte, then — when it is non-zero — the value.
fn optional<'a, T>(
    r: &mut WireReader<'a>,
    value: impl FnOnce(&mut WireReader<'a>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    if r.u8()? != 0 {
        value(r).map(Some)
    } else {
        Ok(None)
    }
}

/// Decodes one section's records off `payload`, handing each to the builder as
/// it is decoded. The topology section creates the builder; every other section
/// needs it, so it must come first. A payload ends with its last record: bytes
/// after it are malformed, not skipped.
fn apply_section(
    tag: SectionTag,
    payload: &[u8],
    builder: &mut Option<TraceBuilder>,
    symbols: &mut SymbolTable,
) -> Result<(), TraceError> {
    let mut reader = WireReader::new(payload);
    let r = &mut reader;
    if tag == SectionTag::Topology {
        *builder = Some(TraceBuilder::new(decode_topology(r)?));
        return Ok(reader.finish()?);
    }
    let b = builder
        .as_mut()
        .ok_or_else(|| fmt_err("section appears before topology"))?;
    // The count sizes nothing: a record takes at least a byte, so a count the
    // payload cannot hold ends in `Truncated`.
    let count = r.varint()?;
    match tag {
        SectionTag::Topology | SectionTag::End => unreachable!("handled by the callers"),
        SectionTag::CounterDescriptions => {
            for _ in 0..count {
                let id = r.u32("counter id")?;
                let name = r.string(MAX_NAME_BYTES, "counter name")?;
                // `monotone`, then `per_cpu` — which the builder sets itself.
                let monotone = r.bytes(2)?[0] != 0;
                if b.add_counter(name, monotone) != CounterId(id) {
                    return Err(fmt_err("counter ids are not dense"));
                }
            }
        }
        SectionTag::TaskTypes => {
            for _ in 0..count {
                let id = r.u32("task type id")?;
                let name = r.string(MAX_NAME_BYTES, "task type name")?;
                let addr = r.varint()?;
                if b.add_task_type(name, addr) != TaskTypeId(id) {
                    return Err(fmt_err("task type ids are not dense"));
                }
            }
        }
        SectionTag::MemoryRegions => {
            for _ in 0..count {
                let id = r.varint()?;
                let base = r.varint()?;
                let size = r.varint()?;
                let node = optional(r, |r| r.u32("region node id"))?.map(NumaNodeId);
                if b.add_region(base, size, node).0 != id {
                    return Err(fmt_err("region ids are not dense"));
                }
            }
        }
        SectionTag::Tasks => {
            for _ in 0..count {
                let id = r.varint()?;
                let task_type = TaskTypeId(r.u32("task type id")?);
                let cpu = CpuId(r.u32("task cpu id")?);
                let creator = CpuId(r.u32("task creator cpu id")?);
                let creation = Timestamp(r.varint()?);
                let start = Timestamp(r.varint()?);
                let end = Timestamp(r.varint()?);
                if b.add_task_created_by(task_type, cpu, creator, creation, start, end)
                    .0
                    != id
                {
                    return Err(fmt_err("task ids are not dense"));
                }
            }
        }
        SectionTag::StateIntervals => {
            for _ in 0..count {
                let cpu = CpuId(r.u32("state cpu id")?);
                let state = WorkerState::from_index(r.u8()? as usize)
                    .ok_or_else(|| fmt_err("unknown worker state"))?;
                let start = Timestamp(r.varint()?);
                let end = Timestamp(r.varint()?);
                let task = optional(r, WireReader::varint)?.map(TaskId);
                b.add_state(cpu, state, start, end, task)?;
            }
        }
        SectionTag::DiscreteEvents => {
            for _ in 0..count {
                let cpu = CpuId(r.u32("event cpu id")?);
                let ts = Timestamp(r.varint()?);
                let kind = r.u8()?;
                let arity = kind_arity(kind)
                    .ok_or_else(|| fmt_err(&format!("unknown event kind {kind}")))?;
                let mut f = [0u64; 3];
                for field in &mut f[..arity] {
                    *field = r.varint()?;
                }
                let event = decode_kind(kind, f[0], f[1], f[2]);
                // A kind narrows the fields it holds as ids (a victim CPU, a
                // marker code); one that does not come back out was wrapped.
                if encode_kind(event) != (kind, f[0], f[1], f[2]) {
                    return Err(fmt_err("event field exceeds 32 bits"));
                }
                b.add_event(cpu, ts, event)?;
            }
        }
        SectionTag::CounterSamples => {
            for _ in 0..count {
                let counter = CounterId(r.u32("sample counter id")?);
                let cpu = CpuId(r.u32("sample cpu id")?);
                let ts = Timestamp(r.varint()?);
                b.add_sample(counter, cpu, ts, r.f64()?)?;
            }
        }
        SectionTag::MemoryAccesses => {
            for _ in 0..count {
                let task = TaskId(r.varint()?);
                let kind = if r.u8()? != 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let addr = r.varint()?;
                b.add_access(task, kind, addr, r.varint()?)?;
            }
        }
        SectionTag::CommEvents => {
            for _ in 0..count {
                let timestamp = Timestamp(r.varint()?);
                let tag = r.u8()?;
                let kind = CommKind::from_tag(tag)
                    .ok_or_else(|| fmt_err(&format!("unknown comm kind {tag}")))?;
                b.add_comm(CommEvent {
                    timestamp,
                    kind,
                    src_cpu: CpuId(r.u32("comm source cpu id")?),
                    dst_cpu: CpuId(r.u32("comm destination cpu id")?),
                    src_node: NumaNodeId(r.u32("comm source node id")?),
                    dst_node: NumaNodeId(r.u32("comm destination node id")?),
                    bytes: r.varint()?,
                    task: optional(r, WireReader::varint)?.map(TaskId),
                })?;
            }
        }
        SectionTag::Symbols => {
            for _ in 0..count {
                let addr = r.varint()?;
                let size = r.varint()?;
                symbols.insert(addr, size, r.string(MAX_NAME_BYTES, "symbol name")?);
            }
        }
    }
    Ok(reader.finish()?)
}

fn decode_topology(r: &mut WireReader<'_>) -> Result<MachineTopology, TraceError> {
    let num_nodes = r.u32("numa node count")?;
    // Both counts size allocations, so both are bounded by the bytes that are
    // there: a CPU takes at least one, a node a row of `num_nodes` distances.
    // The builder allocates per CPU as well, hence the cap.
    let num_cpus = r.len(1, "cpu count")?;
    if num_cpus > MAX_CPUS {
        return Err(fmt_err("implausible cpu count"));
    }
    let mut cpus = Vec::with_capacity(num_cpus);
    for i in 0..num_cpus {
        cpus.push(CpuInfo {
            cpu: CpuId(i as u32),
            node: NumaNodeId(r.u32("cpu node id")?),
        });
    }
    let nodes = num_nodes as usize;
    if nodes.saturating_mul(nodes).saturating_mul(8) > r.remaining() {
        return Err(WireError::TooLarge("numa distance matrix").into());
    }
    let mut distances = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let mut row = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            row.push(r.f64()?);
        }
        distances.push(row);
    }
    MachineTopology::from_parts(cpus, num_nodes, distances)
        .ok_or_else(|| fmt_err("inconsistent topology section"))
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::event::DiscreteEventKind;
    use crate::format::write_trace;
    use crate::ids::TimeInterval;

    /// Every section kind, all seven event kinds, a communication event with
    /// and without a task, symbols. The writer's pin test encodes it too.
    pub(crate) fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let ty = b.add_task_type("work", 0x4000);
        let aux = b.add_task_type("aux", 0x5000);
        let c = b.add_counter("mispredictions", true);
        let region = b.add_region(0x10_0000, 4096, None);
        b.set_region_node(region, NumaNodeId(1));
        let t0 = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(100), Timestamp(600));
        let t1 = b.add_task_created_by(
            aux,
            CpuId(3),
            CpuId(0),
            Timestamp(50),
            Timestamp(700),
            Timestamp(900),
        );
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(100),
            Timestamp(600),
            Some(t0),
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(600),
            Timestamp(1000),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(3),
            WorkerState::TaskExecution,
            Timestamp(700),
            Timestamp(900),
            Some(t1),
        )
        .unwrap();
        b.add_event(
            CpuId(0),
            Timestamp(0),
            DiscreteEventKind::TaskCreate { task: t0 },
        )
        .unwrap();
        b.add_event(
            CpuId(3),
            Timestamp(650),
            DiscreteEventKind::StealSuccess {
                victim: CpuId(0),
                task: t1,
            },
        )
        .unwrap();
        b.add_event(
            CpuId(3),
            Timestamp(660),
            DiscreteEventKind::Marker { code: 7 },
        )
        .unwrap();
        b.add_event(
            CpuId(0),
            Timestamp(610),
            DiscreteEventKind::DataPublish {
                producer: t0,
                consumer: t1,
                bytes: 256,
            },
        )
        .unwrap();
        for (ts, kind) in [
            (620, DiscreteEventKind::TaskReady { task: t1 }),
            (630, DiscreteEventKind::TaskComplete { task: t0 }),
            (640, DiscreteEventKind::StealAttempt { victim: CpuId(3) }),
        ] {
            b.add_event(CpuId(0), Timestamp(ts), kind).unwrap();
        }
        b.add_sample(c, CpuId(0), Timestamp(100), 0.0).unwrap();
        b.add_sample(c, CpuId(0), Timestamp(600), 1234.0).unwrap();
        b.add_access(t0, AccessKind::Write, 0x10_0000, 512).unwrap();
        b.add_access(t1, AccessKind::Read, 0x10_0000, 512).unwrap();
        b.add_comm(CommEvent {
            timestamp: Timestamp(650),
            kind: CommKind::TaskMigration,
            src_cpu: CpuId(0),
            dst_cpu: CpuId(3),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(1),
            bytes: 64,
            task: Some(t1),
        })
        .unwrap();
        b.add_comm(CommEvent {
            timestamp: Timestamp(800),
            kind: CommKind::Broadcast,
            src_cpu: CpuId(1),
            dst_cpu: CpuId(2),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(1),
            bytes: 4096,
            task: None,
        })
        .unwrap();
        let mut symbols = SymbolTable::new();
        symbols.insert(0x4000, 0x100, "work_fn");
        b.set_symbols(symbols);
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_full_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn parallel_read_equals_sequential_read() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let sequential = read_trace(&buf[..]).unwrap();
        for threads in [Threads::new(2), Threads::new(4), Threads::auto()] {
            let parallel = read_trace_with(&buf[..], threads).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn roundtrip_regions_registered_in_descending_address_order() {
        // Regression: the trace stores regions sorted by base address while ids follow
        // registration order. The writer must emit them in id order or the reader's
        // dense-id check fails for any trace registered high-address-first.
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        b.add_region(0x9000, 64, Some(NumaNodeId(0)));
        b.add_region(0x1000, 64, None);
        let trace = b.finish().unwrap();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn roundtrip_minimal_trace() {
        let trace = TraceBuilder::new(MachineTopology::uniform(1, 1))
            .finish()
            .unwrap();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.time_bounds(), TimeInterval::from_cycles(0, 0));
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x01\x00\x00\x00".to_vec();
        assert!(matches!(read_trace(&buf[..]), Err(TraceError::Format(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_trace(&buf[..]),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncated_file() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(read_trace(truncated).is_err());
    }

    #[test]
    fn rejects_missing_topology() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // End section immediately.
        buf.push(SectionTag::End as u8);
        buf.push(0);
        assert!(matches!(read_trace(&buf[..]), Err(TraceError::Format(_))));
    }

    #[test]
    fn rejects_sections_before_topology() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // A task-types section with zero entries, before any topology.
        buf.push(SectionTag::TaskTypes as u8);
        buf.push(1);
        buf.push(0);
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceError::Format(msg) if msg.contains("before topology")));
    }

    #[test]
    fn skips_unknown_sections() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // Unknown tag 42 with a 3-byte payload.
        buf.push(42);
        buf.push(3);
        buf.extend_from_slice(&[1, 2, 3]);
        // Then the real trace body (strip its header).
        let mut body = Vec::new();
        write_trace(&trace, &mut body).unwrap();
        buf.extend_from_slice(&body[8..]);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn file_roundtrip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("aftermath_test_{}.trace", std::process::id()));
        crate::format::write_trace_file(&trace, &path).unwrap();
        let back = read_trace_file(&path).unwrap();
        let back_parallel = read_trace_file_with(&path, Threads::new(2)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
        assert_eq!(trace, back_parallel);
    }
}
