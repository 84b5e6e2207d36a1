//! Robustness tests for the binary trace reader: arbitrary and corrupted inputs must be
//! rejected with an error, never cause a panic, out-of-bounds access or runaway
//! allocation.

use aftermath_trace::format::{read_trace, write_trace, FORMAT_VERSION, MAGIC};
use aftermath_trace::{CpuId, MachineTopology, Timestamp, TraceBuilder, TraceError, WorkerState};
use proptest::prelude::*;

fn valid_trace_bytes() -> Vec<u8> {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
    let ty = b.add_task_type("work", 0x1000);
    let ctr = b.add_counter("c", true);
    for i in 0..20u64 {
        let cpu = CpuId((i % 4) as u32);
        let task = b.add_task(
            ty,
            cpu,
            Timestamp(i * 10),
            Timestamp(i * 100),
            Timestamp(i * 100 + 50),
        );
        b.add_state(
            cpu,
            WorkerState::TaskExecution,
            Timestamp(i * 100),
            Timestamp(i * 100 + 50),
            Some(task),
        )
        .unwrap();
        b.add_sample(ctr, cpu, Timestamp(i * 100), i as f64)
            .unwrap();
    }
    let trace = b.finish().unwrap();
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Completely random bytes (with or without a valid header) never panic the reader.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_trace(&bytes[..]);
    }

    /// Random bytes prefixed with a valid magic/version never panic either — as
    /// they are, and behind a topology tag (1 random body in 256 starts with one),
    /// so that the section decoders see hostile counts, ids and lengths.
    #[test]
    fn random_body_with_valid_header_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        topology_first in any::<bool>(),
    ) {
        let mut buf = Vec::with_capacity(bytes.len() + 10);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        if topology_first {
            // The section's length is at most two bytes here; the body is its
            // payload and whatever sections follow.
            buf.extend_from_slice(&[1, (bytes.len() / 2) as u8]);
        }
        buf.extend_from_slice(&bytes);
        let _ = read_trace(&buf[..]);
    }

    /// Truncating a valid trace at any point yields an error or a (possibly shorter but)
    /// valid trace — never a panic.
    #[test]
    fn truncated_traces_never_panic(cut in 0usize..2048) {
        let bytes = valid_trace_bytes();
        let cut = cut.min(bytes.len());
        let _ = read_trace(&bytes[..cut]);
    }

    /// Flipping a single byte of a valid trace never panics the reader.
    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..2048, value in any::<u8>()) {
        let mut bytes = valid_trace_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = value;
        let _ = read_trace(&bytes[..]);
    }
}

#[test]
fn corrupted_section_length_is_rejected_gracefully() {
    // A section claiming a payload far larger than the file must error out (truncated
    // read), not allocate unboundedly or panic.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.push(1); // topology tag
                 // Varint length of ~1 GiB with no payload behind it.
    buf.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x04]);
    assert!(read_trace(&buf[..]).is_err());
}

#[test]
fn a_topology_cannot_size_an_allocation_from_its_node_count() {
    // 16 bytes: a topology section of 6 bytes claiming 2³² − 1 NUMA nodes and no
    // CPUs. Sizing the distance matrix from that count aborts the process (an
    // allocation failure does not unwind); the count must be refused first.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&[1, 6]); // topology tag, payload length
    buf.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]); // num_nodes
    buf.push(0); // num_cpus
    assert_eq!(buf.len(), 16);
    assert!(matches!(read_trace(&buf[..]), Err(TraceError::Format(_))));
}

#[test]
fn an_id_beyond_u32_is_refused_not_wrapped() {
    // A valid 2-CPU topology, then a hand-built states section with one interval
    // on the CPU whose varint is `cpu`.
    let file_with_state_on = |cpu: &[u8]| {
        let topology = TraceBuilder::new(MachineTopology::uniform(1, 2))
            .finish()
            .unwrap();
        let mut buf = Vec::new();
        write_trace(&topology, &mut buf).unwrap();
        buf.truncate(buf.len() - 2); // the end marker
        let mut states = vec![1]; // one record
        states.extend_from_slice(cpu);
        states.extend_from_slice(&[0, 10, 20, 0]); // state, start, end, no task
        buf.extend_from_slice(&[6, states.len() as u8]); // state-intervals tag, length
        buf.extend_from_slice(&states);
        buf.extend_from_slice(&[0xff, 0]);
        buf
    };
    let trace = read_trace(&file_with_state_on(&[1])[..]).unwrap();
    assert_eq!(trace.cpu(CpuId(1)).unwrap().states().len(), 1);
    // CPU 2³² + 1 is not CPU 1 of that trace.
    let err = read_trace(&file_with_state_on(&[0x81, 0x80, 0x80, 0x80, 0x10])[..]).unwrap_err();
    assert!(
        matches!(&err, TraceError::Format(msg) if msg.contains("cpu id")),
        "{err}"
    );
}

#[test]
fn trailing_bytes_inside_a_section_are_refused_and_a_missing_end_marker_is_not() {
    // A valid 2-CPU topology, then a hand-built states section, then `end`.
    let topology = TraceBuilder::new(MachineTopology::uniform(1, 2))
        .finish()
        .unwrap();
    let mut head = Vec::new();
    write_trace(&topology, &mut head).unwrap();
    head.truncate(head.len() - 2); // the end marker
    let file = |states: &[u8], end: &[u8]| {
        let section = [6, states.len() as u8]; // state-intervals tag, length
        [&head[..], &section[..], states, end].concat()
    };
    // One record: CPU 1, state 0, [0, 10], no task.
    let states = [1, 1, 0, 0, 10, 0];
    let trailing = |err: TraceError| {
        assert!(
            matches!(&err, TraceError::Format(msg) if msg.contains("trailing")),
            "{err}"
        );
    };

    // The file ends after a whole section, without the end marker: it loads.
    let trace = read_trace(&file(&states, &[])[..]).unwrap();
    assert_eq!(trace.cpu(CpuId(1)).unwrap().states().len(), 1);
    assert_eq!(read_trace(&file(&states, &[0xff, 0])[..]).unwrap(), trace);

    // The section one byte longer than its records is refused ...
    let padded = [&states[..], &[0]].concat();
    trailing(read_trace(&file(&padded, &[0xff, 0])[..]).unwrap_err());
    // ... and so is the topology section (tag 1, right behind the 8-byte header).
    let mut padded = file(&states, &[0xff, 0]);
    assert_eq!(padded[8], 1);
    let end = 10 + padded[9] as usize;
    padded[9] += 1;
    padded.insert(end, 0);
    trailing(read_trace(&padded[..]).unwrap_err());
}
