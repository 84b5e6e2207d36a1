//! Property tests for the salvage step ([`StoredTrace::salvage`]):
//! for random traces and random block damage, salvage never panics,
//! quarantines *exactly* the damaged blocks, and answers queries over the
//! surviving span byte-identically to the undamaged store. Random bytes,
//! truncations and bit flips exercise the same no-panic contract the strict
//! opener is held to.

use std::collections::BTreeMap;

use aftermath_trace::store::{
    write_store_bytes, DamageCode, LaneId, StoreOptions, StoredTrace, STORE_MAGIC, STORE_VERSION,
};
use aftermath_trace::{
    AccessKind, CpuId, DiscreteEventKind, MachineTopology, Timestamp, Trace, TraceBuilder,
    WorkerState,
};
use proptest::prelude::*;

/// One scripted row: `(gap, duration, state index, with task, event selector)`
/// — the same generator shape as `store_roundtrip.rs`.
type Row = (u64, u64, u8, bool, u8);

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
        let kind = match (event % 3, task) {
            (0, _) => DiscreteEventKind::Marker { code: event as u32 },
            (1, Some(t)) => DiscreteEventKind::TaskCreate { task: t },
            (_, Some(t)) => DiscreteEventKind::TaskReady { task: t },
            (_, None) => DiscreteEventKind::StealAttempt {
                victim: CpuId((event as u32 + 1) % cpus),
            },
        };
        b.add_event(cpu, Timestamp(t0), kind).unwrap();
        if event % 3 == 0 {
            b.add_sample(ctr, cpu, Timestamp(t0), duration as f64 * 0.5)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// Derives a deduplicated `(lane, block) -> flip selector` damage plan from
/// raw proptest words.
fn damage_plan(stored: &StoredTrace, selectors: &[u64]) -> BTreeMap<(usize, usize), u64> {
    let lanes: Vec<LaneId> = stored.lanes().collect();
    let mut plan = BTreeMap::new();
    for &sel in selectors {
        let lane_pos = (sel as usize) % lanes.len();
        let blocks = &stored.lane_directory(lanes[lane_pos]).unwrap().blocks;
        if blocks.is_empty() {
            continue;
        }
        let block = ((sel >> 16) as usize) % blocks.len();
        plan.entry((lane_pos, block)).or_insert(sel);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Damaging any set of blocks (one bit flip each) quarantines exactly
    /// those blocks — every one is found (CRC-32 catches all single-bit
    /// errors), no clean block is accused, and the report's row accounting
    /// is consistent.
    #[test]
    fn salvage_quarantines_exactly_the_damaged_blocks(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 8..80),
        cpus in 1u32..3,
        block_rows in 1usize..12,
        selectors in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let trace = trace_from_script(&script, cpus);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let lanes: Vec<LaneId> = probe.lanes().collect();
        let plan = damage_plan(&probe, &selectors);
        prop_assume!(!plan.is_empty());

        let mut corrupt = bytes.clone();
        for (&(lane_pos, block), &sel) in &plan {
            let footer = &probe.lane_directory(lanes[lane_pos]).unwrap().blocks[block];
            let byte = footer.offset as usize + ((sel >> 32) as usize) % footer.len as usize;
            corrupt[byte] ^= 1 << ((sel >> 56) % 8);
        }

        let salvaged = StoredTrace::from_bytes(corrupt).unwrap().salvage();
        let report = salvaged.damage().unwrap();
        prop_assert!(!report.is_clean());
        prop_assert_eq!(
            report.count(DamageCode::BlockChecksumMismatch) as usize,
            plan.len(),
            "every flipped block is caught, nothing else"
        );
        for (lane_pos, lane) in lanes.iter().enumerate() {
            let expected: Vec<usize> = plan
                .keys()
                .filter(|&&(l, _)| l == lane_pos)
                .map(|&(_, b)| b)
                .collect();
            let lane_damage = report.lanes.iter().find(|l| l.lane == *lane).unwrap();
            prop_assert_eq!(&lane_damage.damaged_blocks, &expected);
            prop_assert!(lane_damage.surviving_rows <= lane_damage.total_rows);
            let (lo, hi) = lane_damage.surviving_run;
            // The surviving run never contains a quarantined block.
            for &b in &lane_damage.damaged_blocks {
                prop_assert!(b < lo || b >= hi);
            }
        }
        prop_assert!(report.row_coverage() < 1.0 || plan.is_empty());
    }

    /// Rows materialised from a salvaged states lane are byte-identical to
    /// the undamaged trace inside the reported covered span, and the trace
    /// never invents rows outside it.
    #[test]
    fn surviving_span_rows_are_byte_identical(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 8..80),
        block_rows in 1usize..10,
        selectors in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let trace = trace_from_script(&script, 2);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows }).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let lanes: Vec<LaneId> = probe.lanes().collect();
        let plan = damage_plan(&probe, &selectors);
        prop_assume!(!plan.is_empty());

        let mut corrupt = bytes.clone();
        for (&(lane_pos, block), &sel) in &plan {
            let footer = &probe.lane_directory(lanes[lane_pos]).unwrap().blocks[block];
            let byte = footer.offset as usize + ((sel >> 32) as usize) % footer.len as usize;
            corrupt[byte] ^= 1 << ((sel >> 56) % 8);
        }

        let mut salvaged = StoredTrace::from_bytes(corrupt).unwrap().salvage();
        for cpu in [CpuId(0), CpuId(1)] {
            let lane = LaneId::States(cpu);
            let Some(span) = salvaged.salvage_covered_span(lane) else {
                continue; // whole lane quarantined: reads as empty, nothing to compare
            };
            salvaged.ensure(lane).unwrap();
            // Compare rows strictly inside the covered span: boundary keys
            // can belong to a quarantined neighbour block.
            let interior = |s: &aftermath_trace::StateInterval| {
                let t = s.interval.start.0;
                (t > span.start.0 || span.start.0 == 0) && t < span.end.0
            };
            let full = trace.cpu(cpu).unwrap().states();
            let got = salvaged.trace().cpu(cpu).unwrap().states();
            let expect_rows: Vec<_> =
                (0..full.len()).map(|i| full.get(i)).filter(interior).collect();
            let got_rows: Vec<_> =
                (0..got.len()).map(|i| got.get(i)).filter(interior).collect();
            prop_assert_eq!(expect_rows, got_rows);
        }
        // The task and access tables are all-or-nothing: either exactly the
        // original relation or exactly empty.
        salvaged.ensure(LaneId::Tasks).unwrap();
        let tasks = salvaged.trace().tasks();
        prop_assert!(tasks.is_empty() || tasks == trace.tasks());
    }

    /// Salvage-opening random bytes never panics — it errors or opens.
    #[test]
    fn salvage_of_random_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = StoredTrace::from_bytes(bytes.clone()).map(StoredTrace::salvage);
        let mut prefixed = Vec::with_capacity(bytes.len() + 8);
        prefixed.extend_from_slice(&STORE_MAGIC);
        prefixed.extend_from_slice(&STORE_VERSION.to_le_bytes());
        prefixed.extend_from_slice(&bytes);
        let _ = StoredTrace::from_bytes(prefixed).map(StoredTrace::salvage);
    }

    /// Truncating a valid store anywhere: salvage opens and materialises
    /// what it can, or fails with a typed error — never a panic.
    #[test]
    fn salvage_of_truncated_stores_never_panics(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, any::<bool>(), 0u8..8), 1..40),
        cut in 0usize..4096,
    ) {
        let trace = trace_from_script(&script, 2);
        let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 8 }).unwrap();
        let cut = cut % bytes.len();
        if let Ok(mut stored) = StoredTrace::from_bytes(bytes[..cut].to_vec()).map(StoredTrace::salvage) {
            let lanes: Vec<LaneId> = stored.lanes().collect();
            for lane in lanes {
                let _ = stored.ensure(lane);
            }
        }
    }

    /// Overwriting one byte anywhere: salvage quarantines or refuses, and
    /// materialising every lane afterwards never panics and never yields a
    /// wrong byte silently (checksums catch block damage; header, metadata,
    /// directory and trailer damage refuse the open).
    #[test]
    fn salvage_of_single_byte_corruption_never_panics(
        pos in 0usize..65536,
        value in any::<u8>(),
    ) {
        let trace = trace_from_script(
            &[(1, 5, 0, true, 0), (2, 9, 1, false, 3), (4, 2, 2, true, 1)],
            2,
        );
        let mut bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 1 }).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] = value;
        if let Ok(mut stored) = StoredTrace::from_bytes(bytes).map(StoredTrace::salvage) {
            let lanes: Vec<LaneId> = stored.lanes().collect();
            for lane in lanes {
                let _ = stored.ensure(lane);
            }
        }
    }
}
