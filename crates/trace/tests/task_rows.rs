//! A task's id is its row: on every way a trace comes into being — built,
//! read from AFTM, loaded from the column store (strict and salvaged),
//! streamed with a lenient renumbering, made streamable — row `i` of the task
//! table is task `TaskId(i)`, iteration yields exactly the rows, and the id
//! one past the table names nothing.

use aftermath_trace::format::{read_trace, write_trace};
use aftermath_trace::store::{write_store_bytes, StoreOptions, StoredTrace};
use aftermath_trace::{
    make_streamable, split_even, AccessKind, CpuId, LintMode, MachineTopology, StreamingTrace,
    TaskId, Timestamp, Trace, TraceBuilder, WorkerState,
};

/// Tasks registered CPU by CPU, so their ids are not in start order; some
/// stolen, of two types, each with a state and an access.
fn cpu_major_trace() -> Trace {
    let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
    let types = [b.add_task_type("a", 0x1000), b.add_task_type("b", 0x2000)];
    b.add_region(0x10_000, 1 << 16, None);
    for cpu in 0..2u32 {
        for i in 0..8u64 {
            let start = i * 100 + u64::from(cpu) * 50;
            let creator = if i % 3 == 0 { 1 - cpu } else { cpu };
            let t = b.add_task_created_by(
                types[(i % 2) as usize],
                CpuId(cpu),
                CpuId(creator),
                Timestamp(start.saturating_sub(5)),
                Timestamp(start),
                Timestamp(start + 40),
            );
            b.add_state(
                CpuId(cpu),
                WorkerState::TaskExecution,
                Timestamp(start),
                Timestamp(start + 40),
                Some(t),
            )
            .unwrap();
            b.add_access(t, AccessKind::Read, 0x10_000 + 64 * t.0, 64)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// The lenient stream of `trace` with its middle chunk lost: the last
/// chunk's producer ids run past the gap and are renumbered on close.
fn renumbered_stream(trace: &Trace) -> Trace {
    let (prologue, mut chunks) = split_even(trace, 3).unwrap();
    let last = chunks.pop().unwrap();
    assert!(!chunks[1].tasks.is_empty() && !last.tasks.is_empty());
    let mut stream = StreamingTrace::new(prologue).unwrap();
    stream
        .append_lint(0, chunks.remove(0), LintMode::Lenient)
        .unwrap();
    stream.append_lint(2, last, LintMode::Lenient).unwrap();
    stream.close_lint().unwrap();
    stream.trace().clone()
}

#[test]
fn a_tasks_id_is_its_row_on_every_way_in() {
    let built = cpu_major_trace();
    let starts = built.tasks().starts();
    assert!(
        starts.windows(2).any(|w| w[1] < w[0]),
        "the fixture's ids are not in start order"
    );
    let mut aftm = Vec::new();
    write_trace(&built, &mut aftm).unwrap();
    let store = write_store_bytes(&built, &StoreOptions { block_rows: 3 }).unwrap();
    let streamable = make_streamable(&built);

    let ways: [(&str, Trace); 6] = [
        ("TraceBuilder::finish", built.clone()),
        ("AFTM read_trace", read_trace(aftm.as_slice()).unwrap()),
        (
            "store materialise_all",
            StoredTrace::from_bytes(store.clone())
                .unwrap()
                .materialise_all()
                .unwrap()
                .clone(),
        ),
        (
            "salvage of a clean store",
            StoredTrace::from_bytes(store)
                .unwrap()
                .salvage()
                .materialise_all()
                .unwrap()
                .clone(),
        ),
        ("lenient renumbering append", renumbered_stream(&streamable)),
        ("make_streamable", streamable.clone()),
    ];
    for (way, trace) in &ways {
        let tasks = trace.tasks();
        assert!(!tasks.is_empty(), "{way}");
        for i in 0..tasks.len() {
            assert_eq!(tasks.get(i).id, TaskId(i as u64), "{way}: row {i}");
            assert_eq!(trace.task(TaskId(i as u64)), Some(tasks.get(i)), "{way}");
        }
        assert!(
            tasks.iter().eq((0..tasks.len()).map(|i| tasks.get(i))),
            "{way}"
        );
        assert_eq!(tasks.iter().len(), tasks.len(), "{way}");
        assert_eq!(trace.task(TaskId(tasks.len() as u64)), None, "{way}");
        assert_eq!(trace.task(TaskId(u64::MAX)), None, "{way}");
    }
    // The renumbering and the reordering did happen.
    assert!(ways[4].1.tasks().len() < built.tasks().len());
    assert_ne!(streamable.tasks(), built.tasks());
    assert!(streamable.tasks().starts().windows(2).all(|w| w[0] <= w[1]));
}
