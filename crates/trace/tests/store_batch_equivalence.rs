//! Property tests for batched lane materialisation
//! ([`StoredTrace::ensure_batch`]): one batch — whatever its thread budget —
//! leaves the store exactly as the same requests issued one lane at a time on
//! one thread do: equal rows, residency, resident bytes and eviction order,
//! and the identical `(offset, len)` read sequence at the cold tier. A damaged
//! or faulted block yields the same typed error either way, and a failed
//! batch leaves every lane as it was.

use std::sync::{Arc, Mutex};

use aftermath_exec::Threads;
use aftermath_trace::error::TraceError;
use aftermath_trace::store::{
    write_store_bytes, ColdTier, LaneId, LaneRequest, MemoryTier, StoreOptions, StoredTrace,
    DEFAULT_BLOCK_ROWS,
};
use aftermath_trace::{
    AccessKind, CpuId, DiscreteEventKind, FaultKind, FaultyTier, MachineTopology, TimeInterval,
    Timestamp, Trace, TraceBuilder, WorkerState,
};
use proptest::prelude::*;

/// One scripted row: `(gap, duration, state index, event selector)`.
type Row = (u64, u64, u8, u8);

/// One scripted request: `(lane selector, windowed?, window start, window length)`.
type Ask = (u8, bool, u64, u64);

const BLOCK_ROWS: [usize; 4] = [1, 7, 64, DEFAULT_BLOCK_ROWS];

fn thread_budgets() -> [Threads; 3] {
    [Threads::single(), Threads::new(2), Threads::auto()]
}

/// A valid two-CPU trace with every lane kind populated (sorted,
/// non-overlapping states; dense task ids; a lazy event payload lane).
fn trace_from_script(script: &[Row]) -> Trace {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 1));
    let ty = b.add_task_type("work", 0x1000);
    let ctr = b.add_counter("cycles", true);
    let mut clock = [0u64; 2];
    for (i, &(gap, duration, state, event)) in script.iter().enumerate() {
        let cpu = CpuId(i as u32 % 2);
        let t0 = clock[cpu.0 as usize] + gap;
        let t1 = t0 + duration.max(1);
        clock[cpu.0 as usize] = t1;
        let state = WorkerState::from_index(state as usize % 4).unwrap();
        let task = (state == WorkerState::TaskExecution).then(|| {
            let t = b.add_task(ty, cpu, Timestamp(t0), Timestamp(t0), Timestamp(t1));
            b.add_access(t, AccessKind::Read, 0x1000 + 8 * i as u64, 8)
                .unwrap();
            t
        });
        b.add_state(cpu, state, Timestamp(t0), Timestamp(t1), task)
            .unwrap();
        let kind = match (event % 3, task) {
            (0, Some(t)) => DiscreteEventKind::DataPublish {
                producer: t,
                consumer: t,
                bytes: duration,
            },
            (1, Some(t)) => DiscreteEventKind::TaskCreate { task: t },
            _ => DiscreteEventKind::Marker { code: event as u32 },
        };
        b.add_event(cpu, Timestamp(t0), kind).unwrap();
        if event % 2 == 0 {
            b.add_sample(ctr, cpu, Timestamp(t0), duration as f64 * 0.5)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// Records the `(offset, len)` of every read that reaches the inner tier.
#[derive(Debug)]
struct RecordingTier {
    inner: Box<dyn ColdTier>,
    reads: Arc<Mutex<Vec<(u64, usize)>>>,
}

impl ColdTier for RecordingTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        self.reads.lock().unwrap().push((offset, buf.len()));
        self.inner.read_at(offset, buf)
    }
}

type ReadLog = Arc<Mutex<Vec<(u64, usize)>>>;

/// Opens `bytes` behind a recording tier, optionally with scripted faults
/// between the recorder and the bytes.
fn open_recorded(
    bytes: &[u8],
    faults: Vec<(u64, FaultKind)>,
    threads: Threads,
) -> (StoredTrace, ReadLog) {
    let reads = ReadLog::default();
    let memory: Box<dyn ColdTier> = Box::new(MemoryTier::new(bytes.to_vec()));
    let tier = RecordingTier {
        inner: Box::new(FaultyTier::script(memory, faults)),
        reads: Arc::clone(&reads),
    };
    let mut stored = StoredTrace::open_with_tier(Box::new(tier)).unwrap();
    stored.set_decode_threads(threads);
    (stored, reads)
}

/// Maps scripted asks onto the lanes the store actually has.
fn requests_for(stored: &StoredTrace, asks: &[Ask]) -> Vec<LaneRequest> {
    let lanes: Vec<LaneId> = stored.lanes().collect();
    if lanes.is_empty() {
        return Vec::new();
    }
    asks.iter()
        .map(|&(pick, windowed, start, len)| {
            let lane = lanes[pick as usize % lanes.len()];
            match lane {
                LaneId::States(_) if windowed => {
                    LaneRequest::StatesCovering(lane, TimeInterval::from_cycles(start, start + len))
                }
                _ => LaneRequest::Full(lane),
            }
        })
        .collect()
}

/// The lane-by-lane reference: each request as a batch of its own, stopping
/// at the first error like a caller's `?` would.
fn one_by_one(stored: &mut StoredTrace, requests: &[LaneRequest]) -> Result<(), TraceError> {
    for request in requests {
        stored.ensure_batch(std::slice::from_ref(request))?;
    }
    Ok(())
}

/// Everything observable about what is resident, lane by lane.
fn residency_of(stored: &StoredTrace) -> Vec<(LaneId, String, usize)> {
    stored
        .lanes()
        .map(|lane| {
            let state = format!(
                "{:?} {:?}",
                stored.residency(lane),
                stored.covered_span(lane)
            );
            (lane, state, stored.lane_resident_bytes(lane))
        })
        .collect()
}

/// The order in which a zero budget evicts what is resident (on clones of
/// nothing: eviction is the last thing a test does to a store).
fn eviction_order(stored: &mut StoredTrace) -> Vec<LaneId> {
    stored.set_residency_budget(Some(0));
    stored.evict_to_budget()
}

fn same_error(a: &TraceError, b: &TraceError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a.to_string() == b.to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two batches in a row (the second lands on partially resident lanes)
    /// equal the same requests one by one, at every block size and budget.
    #[test]
    fn batch_equals_lane_by_lane(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, 0u8..8), 1..160),
        asks in prop::collection::vec((any::<u8>(), any::<bool>(), 0u64..3000, 1u64..1500), 0..14),
        split in 0usize..14,
        block_pick in 0usize..4,
        budget_pick in 0usize..3,
    ) {
        let trace = trace_from_script(&script);
        let options = StoreOptions { block_rows: BLOCK_ROWS[block_pick] };
        let bytes = write_store_bytes(&trace, &options).unwrap();
        let (mut reference, reference_reads) = open_recorded(&bytes, Vec::new(), Threads::single());
        let (mut batched, batched_reads) =
            open_recorded(&bytes, Vec::new(), thread_budgets()[budget_pick]);
        let requests = requests_for(&batched, &asks);
        let (first, second) = requests.split_at(split.min(requests.len()));
        for round in [first, second] {
            one_by_one(&mut reference, round).unwrap();
            batched.ensure_batch(round).unwrap();
            prop_assert_eq!(batched.trace(), reference.trace());
            prop_assert_eq!(residency_of(&batched), residency_of(&reference));
            prop_assert_eq!(batched.resident_event_bytes(), reference.resident_event_bytes());
            prop_assert_eq!(&*batched_reads.lock().unwrap(), &*reference_reads.lock().unwrap());
        }
        // Fully resident lanes hold the rows the store was written from.
        for pc in trace.per_cpu() {
            let lane = LaneId::States(pc.cpu());
            if batched.lane_directory(lane).is_some()
                && batched.covered_span(lane) == Some(TimeInterval::from_cycles(0, u64::MAX))
            {
                let resident = batched.trace().cpu(pc.cpu()).unwrap();
                prop_assert_eq!(
                    resident.states().iter().collect::<Vec<_>>(),
                    pc.states().iter().collect::<Vec<_>>()
                );
            }
        }
        prop_assert_eq!(eviction_order(&mut batched), eviction_order(&mut reference));
        // And from nothing, one batch of everything is the whole trace.
        prop_assert_eq!(batched.materialise_all().unwrap(), &trace);
        prop_assert_eq!(batched.resident_event_bytes(), trace.resident_event_bytes());
    }

    /// One damaged block — a flipped bit in the file or a fault injected into
    /// one read — comes back as the same outcome from the batch as from the
    /// lane-by-lane path, and a failed batch changes nothing.
    #[test]
    fn damage_surfaces_identically_and_tears_no_lane(
        script in prop::collection::vec((0u64..30, 1u64..50, 0u8..4, 0u8..8), 8..160),
        asks in prop::collection::vec((any::<u8>(), any::<bool>(), 0u64..3000, 1u64..1500), 1..14),
        warm in 0usize..4,
        block_pick in 0usize..3,
        budget_pick in 0usize..3,
        damage in 0u8..4,
        at in any::<u32>(),
    ) {
        let trace = trace_from_script(&script);
        let options = StoreOptions { block_rows: BLOCK_ROWS[block_pick] };
        let mut bytes = write_store_bytes(&trace, &options).unwrap();
        let probe = StoredTrace::from_bytes(bytes.clone()).unwrap();
        let requests = requests_for(&probe, &asks);
        let (warm_up, batch) = requests.split_at(warm.min(requests.len() - 1));
        // Damage: a flipped bit inside some block's payload (3), or a fault
        // on one of the reads that follow the four reads of the open.
        let mut faults = Vec::new();
        match damage {
            0 => faults.push((4 + u64::from(at % 8), FaultKind::Io)),
            1 => faults.push((4 + u64::from(at % 8), FaultKind::ShortRead)),
            2 => faults.push((4 + u64::from(at % 8), FaultKind::BitFlip)),
            _ => {
                let blocks: Vec<_> = probe
                    .lanes()
                    .flat_map(|lane| probe.lane_directory(lane).unwrap().blocks.clone())
                    .collect();
                let block = blocks[at as usize % blocks.len()];
                let byte = block.offset + u64::from(at >> 8) % block.len;
                bytes[byte as usize] ^= 1 << (at % 8);
            }
        }
        let (mut reference, _) = open_recorded(&bytes, faults.clone(), Threads::single());
        let (mut batched, _) = open_recorded(&bytes, faults, thread_budgets()[budget_pick]);
        // Warm-up requests one by one on both sides (they may hit the damage
        // too: then both sides fail alike and that is the whole case).
        let warmed = one_by_one(&mut reference, warm_up);
        match (&warmed, one_by_one(&mut batched, warm_up)) {
            (Ok(()), Ok(())) => {}
            (Err(a), Err(b)) => {
                prop_assert!(same_error(a, &b), "{a} vs {b}");
                return;
            }
            (a, b) => panic!("warm-up outcomes differ: {a:?} vs {b:?}"),
        }
        let before = (batched.trace().clone(), residency_of(&batched));
        let expected = one_by_one(&mut reference, batch);
        match (&expected, batched.ensure_batch(batch)) {
            (Ok(()), Ok(())) => {
                prop_assert_eq!(batched.trace(), reference.trace());
                prop_assert_eq!(residency_of(&batched), residency_of(&reference));
                prop_assert_eq!(eviction_order(&mut batched), eviction_order(&mut reference));
            }
            (Err(a), Err(b)) => {
                prop_assert!(same_error(a, &b), "{a} vs {b}");
                // Nothing of the failed batch was installed — no lane is torn,
                // and none of its touches was applied.
                prop_assert_eq!(batched.trace(), &before.0);
                prop_assert_eq!(residency_of(&batched), before.1);
                if damage < 3 {
                    // An injected fault fires once: the retry succeeds and
                    // ends where the reference ends after *its* retry.
                    one_by_one(&mut reference, batch).unwrap();
                    batched.ensure_batch(batch).unwrap();
                    prop_assert_eq!(batched.trace(), reference.trace());
                    prop_assert_eq!(residency_of(&batched), residency_of(&reference));
                }
            }
            (a, b) => panic!("outcomes differ: {a:?} vs {b:?}"),
        }
    }
}
