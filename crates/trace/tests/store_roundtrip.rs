//! Property tests for the column store ([`aftermath_trace::store`]): encode →
//! decode reproduces the in-memory columns byte-identically for random traces
//! and random block sizes, block-skipped partial reads agree with full reads
//! on every window, eviction order is deterministic, and malformed inputs are
//! rejected without panics.

use aftermath_trace::store::{
    write_store_bytes, LaneId, LaneRequest, LaneResidency, StoreOptions, StoredTrace, STORE_MAGIC,
    STORE_VERSION,
};
use aftermath_trace::{
    AccessKind, CpuId, DiscreteEventKind, MachineTopology, TaskId, TimeInterval, Timestamp, Trace,
    TraceBuilder, WorkerState,
};
use proptest::prelude::*;

/// One scripted row: `(gap, duration, state index, with task, event selector)`.
type Row = (u64, u64, u8, bool, u8);

/// Builds a valid trace from a random row script: every lane kind is
/// populated, per-CPU streams stay sorted and non-overlapping by
/// construction, and task ids are dense (the builder assigns them).
fn trace_from_script(script: &[Row], cpus: u32) -> Trace {
    let cpus = cpus.max(1);
    let mut b = TraceBuilder::new(MachineTopology::uniform(cpus, 2));
    let ty = b.add_task_type("work", 0x1000);
    let ctr = b.add_counter("cycles", true);
    let mut clock = vec![0u64; cpus as usize];
    for (i, &(gap, duration, state, with_task, event)) in script.iter().enumerate() {
        let cpu = CpuId((i as u32) % cpus);
        let t0 = clock[cpu.0 as usize] + gap;
        let t1 = t0 + duration.max(1);
        clock[cpu.0 as usize] = t1;
        let state = WorkerState::from_index((state as usize) % 4).unwrap();
        let task = if state == WorkerState::TaskExecution || with_task {
            let t = b.add_task(ty, cpu, Timestamp(t0), Timestamp(t0), Timestamp(t1));
            b.add_access(t, AccessKind::Read, 0x1000 + 8 * i as u64, 8)
                .unwrap();
            if with_task {
                b.add_access(t, AccessKind::Write, 0x2000 + 8 * i as u64, 16)
                    .unwrap();
            }
            Some(t)
        } else {
            None
        };
        let state_task = if state == WorkerState::TaskExecution {
            task
        } else {
            None
        };
        b.add_state(cpu, state, Timestamp(t0), Timestamp(t1), state_task)
            .unwrap();
        let kind = match event % 5 {
            0 => DiscreteEventKind::Marker { code: event as u32 },
            1 => DiscreteEventKind::StealAttempt {
                victim: CpuId((event as u32 + 1) % cpus),
            },
            2 => task.map_or(DiscreteEventKind::Marker { code: 7 }, |t| {
                DiscreteEventKind::TaskCreate { task: t }
            }),
            3 => task.map_or(DiscreteEventKind::Marker { code: 9 }, |t| {
                DiscreteEventKind::DataPublish {
                    producer: t,
                    consumer: t,
                    bytes: duration,
                }
            }),
            _ => DiscreteEventKind::TaskReady {
                task: TaskId(0), // resolved below: only emitted when a task exists
            },
        };
        let kind = if matches!(kind, DiscreteEventKind::TaskReady { .. }) {
            match task {
                Some(t) => DiscreteEventKind::TaskReady { task: t },
                None => DiscreteEventKind::Marker { code: 11 },
            }
        } else {
            kind
        };
        b.add_event(cpu, Timestamp(t0), kind).unwrap();
        if event % 3 == 0 {
            b.add_sample(ctr, cpu, Timestamp(t0), duration as f64 * 0.5 - gap as f64)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write → open → materialise-all reproduces the original trace exactly
    /// (PartialEq covers every lane, including content-determined task-ref
    /// widths and lazy payload lanes), for arbitrary block sizes.
    #[test]
    fn roundtrip_is_exact(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 1..120),
        cpus in 1u32..4,
        block_rows in 1usize..40,
    ) {
        let trace = trace_from_script(&script, cpus);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
        let mut stored = StoredTrace::from_bytes(bytes).unwrap();
        prop_assert_eq!(stored.num_events() as usize, trace.num_events());
        prop_assert_eq!(stored.time_bounds(), trace.time_bounds_opt());
        prop_assert_eq!(stored.materialise_all().unwrap(), &trace);
        let tasks = stored.trace().tasks();
        prop_assert!(tasks.iter().enumerate().all(|(i, t)| t.id == TaskId(i as u64)));
        prop_assert_eq!(stored.resident_event_bytes(), trace.resident_event_bytes());
    }

    /// A block-skipped partial read of a states lane contains exactly the
    /// same overlapping rows as the fully resident lane, for every window.
    #[test]
    fn block_skipped_window_reads_match_full(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 1..120),
        block_rows in 1usize..16,
        win_a in 0u64..2000,
        win_len in 1u64..800,
    ) {
        let trace = trace_from_script(&script, 2);
        let window = TimeInterval::from_cycles(win_a, win_a + win_len);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
        let mut stored = StoredTrace::from_bytes(bytes).unwrap();
        for cpu in [CpuId(0), CpuId(1)] {
            let request = LaneRequest::StatesCovering(LaneId::States(cpu), window);
            stored.ensure_batch(&[request]).unwrap();
            let full = trace.cpu(cpu).unwrap().states();
            let partial = stored.trace().cpu(cpu).unwrap().states();
            let overlaps = |s: &aftermath_trace::StateInterval| {
                s.interval.start.0 < window.end.0 && s.interval.end.0 > window.start.0
            };
            let expect: Vec<_> =
                (0..full.len()).map(|i| full.get(i)).filter(overlaps).collect();
            let got: Vec<_> =
                (0..partial.len()).map(|i| partial.get(i)).filter(overlaps).collect();
            prop_assert_eq!(expect, got);
            if let Some(span) = stored.covered_span(LaneId::States(cpu)) {
                prop_assert!(span.start <= window.start && window.end <= span.end);
            }
        }
    }

    /// The same touch sequence over the same store evicts the same lanes in
    /// the same order, every time.
    #[test]
    fn eviction_order_is_deterministic(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 8..80),
        touches in prop::collection::vec(0usize..6, 1..20),
        budget in 0usize..4096,
    ) {
        let trace = trace_from_script(&script, 2);
        let bytes = write_store_bytes(&trace, &StoreOptions::default()).unwrap();
        let run = |bytes: Vec<u8>| {
            let mut stored = StoredTrace::from_bytes(bytes).unwrap();
            let lanes: Vec<LaneId> = stored.lanes().collect();
            for &t in &touches {
                stored.ensure(lanes[t % lanes.len()]).unwrap();
            }
            stored.set_residency_budget(Some(budget));
            let evicted = stored.evict_to_budget();
            assert!(
                stored.resident_event_bytes() <= budget
                    || stored.lanes().all(|l| stored.residency(l) == LaneResidency::Absent)
            );
            evicted
        };
        prop_assert_eq!(run(bytes.clone()), run(bytes));
    }

    /// Random bytes never panic the opener, with or without a valid prefix.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = StoredTrace::from_bytes(bytes.clone());
        let mut prefixed = Vec::with_capacity(bytes.len() + 8);
        prefixed.extend_from_slice(&STORE_MAGIC);
        prefixed.extend_from_slice(&STORE_VERSION.to_le_bytes());
        prefixed.extend_from_slice(&bytes);
        let _ = StoredTrace::from_bytes(prefixed);
    }

    /// Truncating a valid store anywhere yields an error or a smaller view —
    /// never a panic, even when lanes are then materialised.
    #[test]
    fn truncated_stores_never_panic(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 1..40),
        cut in 0usize..4096,
    ) {
        let trace = trace_from_script(&script, 2);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).unwrap();
        let cut = cut % bytes.len();
        if let Ok(mut stored) = StoredTrace::from_bytes(bytes[..cut].to_vec()) {
            let _ = stored.materialise_all();
        }
    }

    /// Flipping one byte of a valid store never panics open or materialise.
    #[test]
    fn single_byte_corruption_never_panics(
        pos in 0usize..65536,
        value in any::<u8>(),
    ) {
        let trace = trace_from_script(&[(1, 5, 0, true, 0), (2, 9, 1, false, 3)], 2);
        let mut bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 1 }).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] = value;
        if let Ok(mut stored) = StoredTrace::from_bytes(bytes) {
            let _ = stored.materialise_all();
        }
    }
}
