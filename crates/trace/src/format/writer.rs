//! Serialization of [`Trace`] values to the binary trace format.
//!
//! Each section's payload is built in memory with the crate's byte cursor
//! ([`WireWriter`]) and framed onto the stream with its tag and length.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use super::{SectionTag, FORMAT_VERSION, MAGIC};
use crate::columns::{encode_kind, kind_arity};
use crate::error::TraceError;
use crate::memory::AccessKind;
use crate::trace::Trace;
use crate::wire::WireWriter;

/// Writes `trace` to `w` in the binary trace format.
///
/// Empty sections are omitted entirely, so a minimal trace produces a minimal file.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when writing fails.
pub fn write_trace<W: Write>(trace: &Trace, w: W) -> Result<(), TraceError> {
    write_sections(trace, w, true)
}

/// Writes the *metadata* of `trace` — topology, counter descriptions, task
/// types, regions, communication events and symbols — as a trace file of its
/// own: what [`write_trace`] writes for a trace whose lanes (tasks, per-CPU
/// streams, accesses) are empty. The column store's eagerly loaded header.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when writing fails.
pub(crate) fn write_metadata<W: Write>(trace: &Trace, w: W) -> Result<(), TraceError> {
    write_sections(trace, w, false)
}

/// Writes `trace` to the file at `path`, creating or truncating it.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the file cannot be created or written.
pub fn write_trace_file<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceError> {
    let file = File::create(path)?;
    write_trace(trace, BufWriter::new(file))
}

/// Frames one section onto the stream: tag, payload length, payload.
fn frame<W: Write>(w: &mut W, tag: SectionTag, payload: &[u8]) -> Result<(), TraceError> {
    let mut head = WireWriter::new();
    head.u8(tag as u8);
    head.varint(payload.len() as u64);
    w.write_all(&head.into_vec())?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes a section of `count` records — the count, then whatever `records`
/// appends — or nothing when there are none.
fn section<W: Write>(
    w: &mut W,
    tag: SectionTag,
    count: usize,
    records: impl FnOnce(&mut WireWriter),
) -> Result<(), TraceError> {
    if count == 0 {
        return Ok(());
    }
    let mut p = WireWriter::new();
    p.varint(count as u64);
    records(&mut p);
    frame(w, tag, &p.into_vec())
}

/// A presence byte, then — when there is one — the value.
fn optional(p: &mut WireWriter, value: Option<u64>) {
    p.u8(u8::from(value.is_some()));
    if let Some(value) = value {
        p.varint(value);
    }
}

/// The file: header, the sections in tag order (the lane sections only when
/// `lanes` is set), end marker.
fn write_sections<W: Write>(trace: &Trace, mut w: W, lanes: bool) -> Result<(), TraceError> {
    let w = &mut w;
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;

    let topo = trace.topology();
    let mut p = WireWriter::new();
    p.varint(topo.num_nodes() as u64);
    p.varint(topo.num_cpus() as u64);
    for info in topo.cpus() {
        p.varint(u64::from(info.node.0));
    }
    for &d in topo.distances().iter().flatten() {
        p.f64(d);
    }
    frame(w, SectionTag::Topology, &p.into_vec())?;

    let counters = trace.counters();
    section(w, SectionTag::CounterDescriptions, counters.len(), |p| {
        for c in counters {
            p.varint(u64::from(c.id.0));
            p.string(&c.name);
            p.bytes(&[c.monotone as u8, c.per_cpu as u8]);
        }
    })?;
    let types = trace.task_types();
    section(w, SectionTag::TaskTypes, types.len(), |p| {
        for ty in types {
            p.varint(u64::from(ty.id.0));
            p.string(&ty.name);
            p.varint(ty.symbol_addr);
        }
    })?;
    // The trace stores regions sorted by base address, but the reader rebuilds them
    // through `TraceBuilder::add_region`, which assigns ids densely in insertion
    // order — so they must be encoded in id order or traces whose regions were
    // registered in non-ascending address order would fail to load.
    let mut regions: Vec<_> = trace.regions().iter().collect();
    regions.sort_by_key(|r| r.id.0);
    section(w, SectionTag::MemoryRegions, regions.len(), |p| {
        for r in regions {
            p.varint(r.id.0);
            p.varint(r.base_addr);
            p.varint(r.size);
            optional(p, r.node.map(|node| u64::from(node.0)));
        }
    })?;
    if lanes {
        write_lanes(trace, w)?;
    }
    let comm = trace.comm_events();
    section(w, SectionTag::CommEvents, comm.len(), |p| {
        for c in comm {
            p.varint(c.timestamp.0);
            p.u8(c.kind.tag());
            p.varint(u64::from(c.src_cpu.0));
            p.varint(u64::from(c.dst_cpu.0));
            p.varint(u64::from(c.src_node.0));
            p.varint(u64::from(c.dst_node.0));
            p.varint(c.bytes);
            optional(p, c.task.map(|task| task.0));
        }
    })?;
    let symbols = trace.symbols();
    section(w, SectionTag::Symbols, symbols.len(), |p| {
        for s in symbols.iter() {
            p.varint(s.addr);
            p.varint(s.size);
            p.string(&s.name);
        }
    })?;

    frame(w, SectionTag::End, &[])?;
    w.flush()?;
    Ok(())
}

/// The lane sections: tasks, then the per-CPU streams CPU by CPU, then accesses.
fn write_lanes<W: Write>(trace: &Trace, w: &mut W) -> Result<(), TraceError> {
    let per_cpu = trace.per_cpu();
    let tasks = trace.tasks();
    section(w, SectionTag::Tasks, tasks.len(), |p| {
        for t in tasks.iter() {
            p.varint(t.id.0);
            p.varint(u64::from(t.task_type.0));
            p.varint(u64::from(t.cpu.0));
            p.varint(u64::from(t.creator_cpu.0));
            p.varint(t.creation.0);
            p.varint(t.execution.start.0);
            p.varint(t.execution.end.0);
        }
    })?;
    let states = per_cpu.iter().map(|pc| pc.states().len()).sum();
    section(w, SectionTag::StateIntervals, states, |p| {
        for s in per_cpu.iter().flat_map(|pc| pc.states()) {
            p.varint(u64::from(s.cpu.0));
            p.u8(s.state as u8);
            p.varint(s.interval.start.0);
            p.varint(s.interval.end.0);
            optional(p, s.task.map(|task| task.0));
        }
    })?;
    let events = per_cpu.iter().map(|pc| pc.events().len()).sum();
    section(w, SectionTag::DiscreteEvents, events, |p| {
        for e in per_cpu.iter().flat_map(|pc| pc.events().iter()) {
            p.varint(u64::from(e.cpu.0));
            p.varint(e.timestamp.0);
            let (tag, a, b, c) = encode_kind(e.kind);
            p.u8(tag);
            let arity = kind_arity(tag).expect("encode_kind yields a kind's tag");
            for &field in &[a, b, c][..arity] {
                p.varint(field);
            }
        }
    })?;
    let samples = per_cpu.iter().map(|pc| pc.num_samples()).sum();
    section(w, SectionTag::CounterSamples, samples, |p| {
        for (_, stream) in per_cpu.iter().flat_map(|pc| pc.sample_streams()) {
            for s in stream.iter() {
                p.varint(u64::from(s.counter.0));
                p.varint(u64::from(s.cpu.0));
                p.varint(s.timestamp.0);
                p.f64(s.value);
            }
        }
    })?;
    let accesses = trace.accesses();
    section(w, SectionTag::MemoryAccesses, accesses.len(), |p| {
        for a in accesses {
            p.varint(a.task.0);
            p.u8(matches!(a.kind, AccessKind::Write) as u8);
            p.varint(a.addr);
            p.varint(a.size);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::reader::tests::sample_trace;
    use super::*;
    use crate::crc::crc32;

    #[test]
    fn writer_output_is_pinned_byte_for_byte() {
        // Recorded from the writer of PR 20 (`write_trace`, and `write_trace`
        // of a lane-less deep copy for the metadata): the encoders may change
        // how they produce bytes, never which bytes.
        let trace = sample_trace();
        let mut file = Vec::new();
        write_trace(&trace, &mut file).unwrap();
        assert_eq!((file.len(), crc32(&file)), (270, 0x74da_6483));
        let mut metadata = Vec::new();
        write_metadata(&trace, &mut metadata).unwrap();
        assert_eq!((metadata.len(), crc32(&metadata)), (141, 0x15c2_6b01));
    }
}
