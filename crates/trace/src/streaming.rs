//! The streaming ingest layer: traces that grow while they are being analysed.
//!
//! The batch pipeline requires a trace to be complete before anything renders: the
//! whole file is read, validated, sorted and only then queried. Monitoring a *running*
//! application needs the opposite — events arrive in chunks and every already-ingested
//! prefix must stay queryable. This module provides the trace-side half of that
//! pipeline (the analysis-side half — incremental indexes and epoch-based caching —
//! lives in `aftermath-core`'s `LiveSession`):
//!
//! * [`TraceChunk`] — one batch of appended events (states, samples, discrete events,
//!   tasks with their accesses, communication events),
//! * [`StreamingTrace`] — a validated, append-only [`Trace`]: every accepted chunk
//!   leaves the trace in exactly the state a batch [`TraceBuilder`] build over the
//!   same events would have produced, so all downstream analyses keep working on the
//!   growing prefix without re-validation,
//! * [`make_streamable`] / [`split_at`] / [`split_even`] — utilities that turn a
//!   recorded batch trace into a prologue plus a chunk sequence whose replay
//!   reproduces the original trace byte for byte (the driver of the equivalence
//!   tests, the live-monitor example and the `reproduce --stream` benchmark).
//!   The prologue is the trace's own body with the lanes that grow emptied, and
//!   an accepted chunk is pushed onto that same body — the one [`Trace`] and
//!   [`TraceBuilder`] share — so no metadata is re-registered on the way.
//!
//! Which fields of a discrete event name a task — what the lenient append
//! resolves and [`make_streamable`] renumbers — is the one table of
//! `DiscreteEventKind::task_refs_mut`.
//!
//! # The streaming contract
//!
//! Chunks are **append-only in time** and **self-contained in attribution**:
//!
//! 1. Immutable metadata — topology, task types, counters, memory regions, symbols —
//!    is fixed by the prologue [`TraceBuilder`] before the first chunk.
//! 2. Per-CPU state intervals, discrete events and counter samples may only extend
//!    their stream's tail (state starts at or after the previous end, timestamps
//!    non-decreasing per stream).
//! 3. Tasks arrive with densely increasing ids, and a task's memory accesses arrive
//!    **in the same chunk** as the task itself.
//!
//! Rule 3 is what makes *incremental* index maintenance exact: once a summary node
//! over a sealed region of the stream is built, nothing a later chunk appends can
//! change what that node should contain.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::error::TraceError;
use crate::event::{CommEvent, CounterSample, DiscreteEvent};
use crate::ids::{CpuId, TaskId, TimeInterval, Timestamp};
use crate::lint::{
    EventRef, LintCode, LintFinding, LintMode, LintReport, RepairRecord, RepairStrategy,
};
use crate::memory::MemoryAccess;
use crate::state::StateInterval;
use crate::task::TaskInstance;
use crate::trace::{Trace, TraceBuilder};

/// One batch of events appended to a [`StreamingTrace`].
///
/// All vectors may be empty; an empty chunk is a legal (no-op) epoch. Events must
/// obey the ordering contract described in the [module docs](crate::streaming); the
/// chunk itself is a plain container — validation happens in
/// [`StreamingTrace::append`], atomically per chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceChunk {
    /// New task instances; ids must continue the trace's dense id sequence.
    pub tasks: Vec<TaskInstance>,
    /// New state intervals (any CPU order; per CPU they must extend the tail).
    pub states: Vec<StateInterval>,
    /// New discrete events (per CPU non-decreasing timestamps).
    pub events: Vec<DiscreteEvent>,
    /// New counter samples (per `(CPU, counter)` stream non-decreasing timestamps).
    pub samples: Vec<CounterSample>,
    /// Memory accesses of this chunk's tasks (sorted by task id, and only for tasks
    /// registered in this very chunk).
    pub accesses: Vec<MemoryAccess>,
    /// New communication events (globally non-decreasing timestamps).
    pub comm_events: Vec<CommEvent>,
}

impl TraceChunk {
    /// Creates an empty chunk.
    pub fn new() -> Self {
        TraceChunk::default()
    }

    /// Total number of items carried by the chunk.
    pub fn len(&self) -> usize {
        self.tasks.len()
            + self.states.len()
            + self.events.len()
            + self.samples.len()
            + self.accesses.len()
            + self.comm_events.len()
    }

    /// Whether the chunk carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hull of the chunk's bounded items — states and tasks span their
    /// interval, events and samples are points — with every span ending where
    /// `end_of` says, or `None` for a chunk without any of them. The item
    /// classes mirror [`Trace::time_bounds_opt`] (the authoritative definition
    /// of what bounds a trace) — the two must stay in sync, which
    /// `StreamingTrace`'s equality tests pin down per epoch.
    fn hull(&self, end_of: impl Fn(TimeInterval) -> Timestamp) -> Option<TimeInterval> {
        let point = |t: Timestamp| TimeInterval::new(t, t);
        let states = self.states.iter().map(|s| s.interval);
        let events = self.events.iter().map(|e| point(e.timestamp));
        let samples = self.samples.iter().map(|s| point(s.timestamp));
        let tasks = self.tasks.iter().map(|t| t.execution);
        states
            .chain(events)
            .chain(samples)
            .chain(tasks)
            .map(|span| TimeInterval::new(span.start, end_of(span)))
            .reduce(|hull, span| hull.union_hull(&span))
    }

    /// The time hull of the chunk's bounded items, or `None` for a chunk
    /// without any of them.
    pub fn time_hull(&self) -> Option<TimeInterval> {
        self.hull(|span| span.end)
    }

    /// The hull of the chunk's item *start* times (states and tasks contribute
    /// their interval starts, point events their timestamps), or `None` for a
    /// chunk without timed items.
    ///
    /// This is the transport-ordering measure of the L008 chunk-overlap rule:
    /// items are assigned to chunks by their start time ([`split_at`]), so a
    /// well-formed successor chunk starts at or after the previous chunk's
    /// latest start — even though a straddling state may legitimately *end*
    /// inside the successor's time hull.
    pub fn start_hull(&self) -> Option<TimeInterval> {
        self.hull(|span| span.start)
    }
}

/// A trace that grows by validated, append-only chunks.
///
/// After every accepted [`append`](StreamingTrace::append),
/// [`trace`](StreamingTrace::trace) is indistinguishable from a batch build over
/// the same events: streams stay sorted and non-overlapping, accesses stay grouped by task,
/// and the cached [`time_bounds`](StreamingTrace::time_bounds) equals
/// [`Trace::time_bounds`] (maintained incrementally so a per-epoch bounds query does
/// not rescan the whole trace). A failed append leaves the trace untouched.
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    trace: Trace,
    /// Incrementally maintained time hull (`None` until any bounded item arrives).
    bounds: Option<TimeInterval>,
    /// Number of chunks accepted so far.
    epochs: u64,
    /// Start hull ([`TraceChunk::start_hull`]) of the most recently appended
    /// chunk (drives the L008 chunk overlap check of
    /// [`StreamingTrace::append_lint`]).
    last_hull: Option<TimeInterval>,
    /// The sequence number the lint-aware append expects next. Plain
    /// [`StreamingTrace::append`] counts as accepting the expected sequence.
    expected_seq: u64,
    /// The highest sequence number observed so far (appended or buffered).
    max_seen: Option<u64>,
    /// Future chunks buffered by lenient [`StreamingTrace::append_lint`] until
    /// their predecessors arrive (or the stream is closed).
    pending: BTreeMap<u64, TraceChunk>,
}

/// The tail watermark of the stream `key` names while a chunk is walked:
/// seeded from the ingested stream's `last` item on first touch, then advanced
/// by the chunk's own items.
fn tail_of<K: Eq + Hash>(
    tails: &mut HashMap<K, Timestamp>,
    key: K,
    last: impl FnOnce() -> Option<Timestamp>,
) -> &mut Timestamp {
    tails
        .entry(key)
        .or_insert_with(|| last().unwrap_or(Timestamp::ZERO))
}

/// Where an admission sends the contract violations that have a repair.
/// Without a report the first one is the admission's error — that is plain
/// [`StreamingTrace::append`]; with one, each is recorded against the chunk
/// and the walk repairs it and goes on — that is the lenient
/// [`StreamingTrace::append_lint`].
struct Repairs<'r> {
    chunk: EventRef,
    report: Option<&'r mut LintReport>,
}

impl Repairs<'_> {
    fn record(&mut self, code: LintCode, strategy: RepairStrategy, detail: String) {
        if let Some(report) = &mut self.report {
            report.push_repair(RepairRecord {
                code,
                strategy,
                event: self.chunk,
                detail,
            });
        }
    }

    fn repair(
        &mut self,
        violation: TraceError,
        code: LintCode,
        strategy: RepairStrategy,
        detail: String,
    ) -> Result<(), TraceError> {
        if self.report.is_none() {
            return Err(violation);
        }
        self.record(code, strategy, detail);
        Ok(())
    }

    /// A point item must not precede its stream's `tail`; the repair clamps it
    /// there (the per-stream side of an L008 hull overlap).
    fn in_order(
        &mut self,
        tail: &mut Timestamp,
        timestamp: &mut Timestamp,
        cpu: CpuId,
        what: &str,
    ) -> Result<(), TraceError> {
        if *timestamp < *tail {
            self.repair(
                TraceError::UnorderedEvents {
                    cpu,
                    previous: *tail,
                    offending: *timestamp,
                },
                LintCode::ChunkOverlap,
                RepairStrategy::Clamp,
                format!(
                    "{what} timestamp on {cpu} clamped from {} to {}",
                    timestamp.0, tail.0
                ),
            )?;
            *timestamp = *tail;
        }
        *tail = *timestamp;
        Ok(())
    }
}

/// [`Vec::retain_mut`] with a predicate that may fail; the walk stops at the
/// first error (the vector is then in no particular state).
fn try_retain_mut<T>(
    items: &mut Vec<T>,
    mut keep: impl FnMut(&mut T) -> Result<bool, TraceError>,
) -> Result<(), TraceError> {
    let mut kept = 0;
    for i in 0..items.len() {
        if keep(&mut items[i])? {
            if kept != i {
                items.swap(kept, i);
            }
            kept += 1;
        }
    }
    items.truncate(kept);
    Ok(())
}

/// The record of a whole chunk the lenient stream goes on without.
fn dropped_chunk(sequence: u64, detail: String) -> RepairRecord {
    RepairRecord {
        code: LintCode::ChunkSequence,
        strategy: RepairStrategy::DropWithRecord,
        event: EventRef::Chunk { sequence },
        detail,
    }
}

impl StreamingTrace {
    /// Opens a stream over the prologue: the builder carries the immutable metadata
    /// (topology, task types, counters, regions, symbols) and may already contain
    /// initial events, which become the stream's epoch-0 prefix.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`TraceBuilder::finish`].
    pub fn new(prologue: TraceBuilder) -> Result<Self, TraceError> {
        Ok(Self::from_trace(prologue.finish()?))
    }

    /// Opens a stream over an already-built trace (e.g. to resume monitoring from a
    /// partial trace file).
    pub fn from_trace(trace: Trace) -> Self {
        let bounds = trace.time_bounds_opt();
        StreamingTrace {
            trace,
            bounds,
            epochs: 0,
            last_hull: None,
            expected_seq: 0,
            max_seen: None,
            pending: BTreeMap::new(),
        }
    }

    /// The current (growing) trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of chunks accepted so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The time interval spanned by the ingested events, maintained incrementally
    /// (O(1) per query; equal to [`Trace::time_bounds`] at every epoch).
    pub fn time_bounds(&self) -> TimeInterval {
        self.bounds
            .unwrap_or(TimeInterval::new(Timestamp::ZERO, Timestamp::ZERO))
    }

    /// Validates `chunk` against the streaming contract and appends it; returns the
    /// number of appended items.
    ///
    /// Validation is atomic: on error the trace is exactly as before the call.
    ///
    /// # Errors
    ///
    /// * [`TraceError::UnknownCpu`] / [`TraceError::UnknownTask`] /
    ///   [`TraceError::UnknownTaskType`] for dangling references,
    /// * [`TraceError::InvalidInterval`] for a state or task with `end < start`,
    /// * [`TraceError::OverlappingStates`] when a state does not start at or after
    ///   its CPU's current tail,
    /// * [`TraceError::UnorderedEvents`] for a timestamp going backwards within a
    ///   per-CPU event stream, a sample stream or the communication stream,
    /// * [`TraceError::UnstreamableChunk`] for non-dense task ids or accesses that
    ///   do not ride with their task's chunk.
    pub fn append(&mut self, mut chunk: TraceChunk) -> Result<usize, TraceError> {
        self.admit(&mut chunk, self.expected_seq, None)?;
        Ok(self.apply(chunk))
    }

    /// The one walk of a chunk against the streaming contract: every item is
    /// held against the ingested trace and the per-stream tails exactly once.
    /// Dense task ids, resolvable references and per-stream monotonicity have
    /// a repair (renumber; clear or drop the reference; clamp or drop the
    /// retrograde item), which goes the way of [`Repairs`]; unknown CPUs or
    /// task types and inverted intervals have none and are the error with or
    /// without a report. Only `chunk` is mutated, so after an error the trace
    /// is exactly as before.
    fn admit(
        &self,
        chunk: &mut TraceChunk,
        sequence: u64,
        report: Option<&mut LintReport>,
    ) -> Result<(), TraceError> {
        let trace = &self.trace;
        let lenient = report.is_some();
        let mut repairs = Repairs {
            chunk: EventRef::Chunk { sequence },
            report,
        };
        let known_cpu = |cpu: CpuId| {
            if trace.topology().contains_cpu(cpu) {
                Ok(())
            } else {
                Err(TraceError::UnknownCpu(cpu))
            }
        };
        let valid = |TimeInterval { start, end }| {
            if end < start {
                Err(TraceError::InvalidInterval { start, end })
            } else {
                Ok(())
            }
        };
        let old_tasks = trace.tasks().len() as u64;
        let new_tasks = old_tasks + chunk.tasks.len() as u64;

        // Task ids must continue the dense sequence. After a dropped chunk the
        // producer's ids run ahead of the ingested count; the repair renumbers
        // them, and from then on `remap` (producer id → dense id) translates
        // every reference into this chunk.
        let mut remap: Option<HashMap<u64, u64>> = None;
        for (i, t) in chunk.tasks.iter_mut().enumerate() {
            let dense = old_tasks + i as u64;
            if t.id.0 != dense && remap.is_none() {
                repairs.repair(
                    TraceError::UnstreamableChunk(format!(
                        "task {} breaks the dense id sequence (expected task{dense})",
                        t.id
                    )),
                    LintCode::ChunkSequence,
                    RepairStrategy::Resequence,
                    "task ids renumbered to continue the dense sequence".into(),
                )?;
                remap = Some((old_tasks..dense).map(|id| (id, id)).collect());
            }
            if let Some(remap) = &mut remap {
                remap.insert(t.id.0, dense);
                t.id = TaskId(dense);
            }
            if trace.task_type(t.task_type).is_none() {
                return Err(TraceError::UnknownTaskType(t.task_type));
            }
            known_cpu(t.cpu)?;
            known_cpu(t.creator_cpu)?;
            valid(t.execution)?;
        }
        // A reference resolves to a task of this chunk or to an ingested one.
        let resolve = |id: TaskId| match &remap {
            Some(remap) => {
                let renumbered = remap.get(&id.0).map(|&dense| TaskId(dense));
                renumbered.or((id.0 < old_tasks).then_some(id))
            }
            None => (id.0 < new_tasks).then_some(id),
        };

        let (mut state_tails, mut event_tails) = (HashMap::new(), HashMap::new());
        let mut sample_tails = HashMap::new();
        try_retain_mut(&mut chunk.states, |s| {
            known_cpu(s.cpu)?;
            valid(s.interval)?;
            if let Some(task) = s.task {
                s.task = resolve(task);
                if s.task.is_none() {
                    repairs.repair(
                        TraceError::UnknownTask(task),
                        LintCode::OrphanTaskRef,
                        RepairStrategy::DropWithRecord,
                        format!("state reference to never-ingested task {} cleared", task.0),
                    )?;
                }
            }
            let last = || Some(trace.cpu(s.cpu)?.states().last()?.interval.end);
            let tail = tail_of(&mut state_tails, s.cpu, last);
            let (start, end) = (s.interval.start, s.interval.end);
            if start < *tail {
                let covered = end <= *tail;
                let (strategy, outcome) = if covered {
                    let outcome = "dropped, it lies inside ingested time".into();
                    (RepairStrategy::DropWithRecord, outcome)
                } else {
                    let outcome = format!("start clamped to {}", tail.0);
                    (RepairStrategy::Clamp, outcome)
                };
                let detail = format!("state [{}, {}] on {}: {outcome}", start.0, end.0, s.cpu);
                repairs.repair(
                    TraceError::OverlappingStates(s.cpu),
                    LintCode::ChunkOverlap,
                    strategy,
                    detail,
                )?;
                if covered {
                    return Ok(false);
                }
                s.interval.start = *tail;
            }
            *tail = end;
            Ok(true)
        })?;
        try_retain_mut(&mut chunk.events, |e| {
            known_cpu(e.cpu)?;
            // Plain append leaves the task references inside event and
            // communication payloads alone, as the builder does; a report
            // resolves them too.
            if lenient {
                let label = e.kind.label();
                for task in e.kind.task_refs_mut().into_iter().flatten() {
                    let Some(resolved) = resolve(*task) else {
                        repairs.record(
                            LintCode::OrphanTaskRef,
                            RepairStrategy::DropWithRecord,
                            format!("{label} event referencing a never-ingested task dropped"),
                        );
                        return Ok(false);
                    };
                    *task = resolved;
                }
            }
            let last = || Some(trace.cpu(e.cpu)?.events().last()?.timestamp);
            let tail = tail_of(&mut event_tails, e.cpu, last);
            repairs.in_order(tail, &mut e.timestamp, e.cpu, "event")?;
            Ok(true)
        })?;
        for s in &mut chunk.samples {
            known_cpu(s.cpu)?;
            let last = || Some(trace.cpu(s.cpu)?.samples(s.counter)?.last()?.timestamp);
            let tail = tail_of(&mut sample_tails, (s.cpu, s.counter), last);
            repairs.in_order(tail, &mut s.timestamp, s.cpu, "sample")?;
        }
        // An access rides with a task of this very chunk, sorted by task id.
        let mut previous: Option<TaskId> = None;
        let mut unsorted = false;
        try_retain_mut(&mut chunk.accesses, |a| {
            let Some(task) = resolve(a.task).filter(|t| t.0 >= old_tasks) else {
                repairs.repair(
                    TraceError::UnstreamableChunk(format!(
                        "access references {}, which is not registered by this chunk \
                         (a task's accesses must ride in the task's own chunk)",
                        a.task
                    )),
                    LintCode::OrphanTaskRef,
                    RepairStrategy::DropWithRecord,
                    format!("access by never-ingested task {} dropped", a.task.0),
                )?;
                return Ok(false);
            };
            a.task = task;
            if !unsorted && previous.is_some_and(|p| task < p) {
                repairs.repair(
                    TraceError::UnstreamableChunk(
                        "accesses within a chunk must be sorted by task id".into(),
                    ),
                    LintCode::ChunkSequence,
                    RepairStrategy::Resequence,
                    "accesses re-sorted by task id".into(),
                )?;
                unsorted = true;
            }
            previous = Some(task);
            Ok(true)
        })?;
        if unsorted {
            chunk.accesses.sort_by_key(|a| a.task);
        }
        let last_comm = trace.comm_events().last();
        let mut comm_tail = last_comm.map_or(Timestamp::ZERO, |c| c.timestamp);
        for c in &mut chunk.comm_events {
            known_cpu(c.src_cpu)?;
            known_cpu(c.dst_cpu)?;
            if let (true, Some(task)) = (lenient, c.task) {
                c.task = resolve(task);
                if c.task.is_none() {
                    repairs.record(
                        LintCode::OrphanTaskRef,
                        RepairStrategy::DropWithRecord,
                        format!(
                            "communication reference to never-ingested task {} cleared",
                            task.0
                        ),
                    );
                }
            }
            repairs.in_order(&mut comm_tail, &mut c.timestamp, c.src_cpu, "communication")?;
        }
        Ok(())
    }

    /// Appends an admitted chunk as the expected sequence number; returns the
    /// number of appended items.
    fn apply(&mut self, chunk: TraceChunk) -> usize {
        let appended = chunk.len();
        let start_hull = chunk.start_hull();
        if let Some(hull) = chunk.time_hull() {
            self.bounds = Some(match self.bounds {
                Some(b) => b.union_hull(&hull),
                None => hull,
            });
        }
        let data = self.trace.data_mut();
        data.tasks.extend(chunk.tasks);
        for s in chunk.states {
            data.per_cpu[s.cpu.0 as usize].push_state(s);
        }
        for e in chunk.events {
            data.per_cpu[e.cpu.0 as usize].push_event(e);
        }
        for s in chunk.samples {
            data.per_cpu[s.cpu.0 as usize].push_sample(s);
        }
        for a in chunk.accesses {
            data.accesses.push(a);
        }
        data.comm_events.extend(chunk.comm_events);
        self.epochs += 1;
        self.last_hull = start_hull.or(self.last_hull);
        self.max_seen = Some(
            self.max_seen
                .map_or(self.expected_seq, |m| m.max(self.expected_seq)),
        );
        self.advance_sequence();
        appended
    }

    /// Moves past the expected sequence number. The numbering ends at `u64::MAX`:
    /// a stream that got there stays there instead of wrapping around to 0.
    fn advance_sequence(&mut self) {
        self.expected_seq = self.expected_seq.saturating_add(1);
    }

    /// Sequence numbers of the chunks buffered by lenient
    /// [`StreamingTrace::append_lint`] (waiting for their predecessors).
    pub fn pending_sequences(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    /// The L007 rule for an arrival: what is wrong with the position of chunk
    /// `sequence`, arriving now in `mode`. (Chunks that never arrive are
    /// [`Self::release_pending`]'s to flag when the stream closes over them.)
    fn check_sequence(&self, sequence: u64, mode: LintMode, report: &mut LintReport) {
        let expected = self.expected_seq;
        let detail = if sequence < expected {
            format!(
                "sequence {sequence} arrived after the stream advanced past it \
                 (expected {expected})"
            )
        } else if let Some(max) = self.max_seen.filter(|&max| sequence < max) {
            format!("sequence {sequence} arrived after {max} \u{2014} chunks reordered in transit")
        } else if sequence > expected && mode == LintMode::Strict {
            // A chunk ahead of a gap: lenient mode buffers it until its
            // predecessors arrive, strict mode cannot.
            format!("sequence {sequence} arrived while {expected} was expected")
        } else {
            return;
        };
        let event = EventRef::Chunk { sequence };
        report.push_finding(LintFinding::new(LintCode::ChunkSequence, event, detail));
    }

    /// The L008 rule: items are assigned to chunks by start time, so start
    /// hulls — unlike full time hulls, which straddling states legitimately
    /// overlap — must be disjoint and ordered across chunks.
    fn check_overlap(&self, sequence: u64, chunk: &TraceChunk, report: &mut LintReport) {
        let (Some(hull), Some(previous)) = (chunk.start_hull(), self.last_hull) else {
            return;
        };
        if hull.start < previous.end {
            let detail = format!(
                "chunk items start at {} \u{2014} before the previous chunk's latest \
                 item start {}",
                hull.start.0, previous.end.0
            );
            let event = EventRef::Chunk { sequence };
            report.push_finding(LintFinding::new(LintCode::ChunkOverlap, event, detail));
        }
    }

    /// Validates an explicitly sequenced chunk against the two chunk-level lint
    /// rules (`L007` sequence, `L008` overlap) and appends it according to
    /// `mode`.
    ///
    /// **Strict** enforces the transport contract on top of [`append`]'s event
    /// contract: the sequence number must be exactly the expected one and the
    /// chunk's start hull must not overlap the previously appended chunk —
    /// otherwise the chunk is rejected with [`TraceError::LintFindings`] and
    /// nothing is applied. (Plain [`append`] accepts a hull-overlapping chunk as
    /// long as every per-stream tail still advances — the silent-acceptance gap
    /// this mode closes.)
    ///
    /// **Lenient** records findings instead of failing and keeps the stream
    /// going: a chunk from the future is buffered until its predecessors
    /// arrive, a late or duplicate chunk is dropped with a record, and an
    /// accepted chunk is repaired while it is admitted — by the same walk that
    /// validates a plain [`append`]: task ids are renumbered to re-join the
    /// dense sequence after a dropped chunk, references into dropped chunks
    /// are cleared or dropped, and items that reach back into already-ingested
    /// time are clamped ([`Self::close_lint`] flushes what remains buffered at
    /// end of stream).
    ///
    /// Returns the report for this call (covering any buffered chunks that
    /// became appendable).
    ///
    /// [`append`]: StreamingTrace::append
    ///
    /// # Errors
    ///
    /// [`TraceError::LintFindings`] in strict mode; in both modes, the errors
    /// of [`StreamingTrace::append`] for defects of `chunk` that repair cannot
    /// express (unknown CPUs or task types, invalid intervals) — the stream is
    /// then exactly as before the call. A *buffered* chunk with such a defect
    /// is no error when its turn comes: it is dropped with an `L007` record
    /// carrying the error, and the stream moves past it.
    pub fn append_lint(
        &mut self,
        sequence: u64,
        mut chunk: TraceChunk,
        mode: LintMode,
    ) -> Result<LintReport, TraceError> {
        let mut report = LintReport::new();
        self.check_sequence(sequence, mode, &mut report);
        self.check_overlap(sequence, &chunk, &mut report);
        match mode {
            LintMode::Strict => {
                if !report.is_clean() {
                    return Err(TraceError::LintFindings(report.summary().clone()));
                }
                self.append(chunk)?;
            }
            LintMode::Lenient => {
                self.max_seen = Some(self.max_seen.map_or(sequence, |m| m.max(sequence)));
                if sequence < self.expected_seq {
                    let detail = "late or duplicate chunk dropped".into();
                    report.push_repair(dropped_chunk(sequence, detail));
                } else if sequence > self.expected_seq {
                    self.pending.insert(sequence, chunk);
                } else {
                    self.admit(&mut chunk, sequence, Some(&mut report))?;
                    self.apply(chunk);
                    self.release_pending(&mut report, false);
                }
            }
        }
        Ok(report)
    }

    /// Closes the lenient lint stream: every still-buffered chunk is appended
    /// (repaired), and every sequence number the stream skips over on the way
    /// is flagged as a dropped chunk.
    ///
    /// A no-op returning an empty report when nothing is buffered.
    ///
    /// # Errors
    ///
    /// None: a buffered chunk that repair cannot express is dropped with a
    /// record (see [`StreamingTrace::append_lint`]). The `Result` is the one
    /// every lint entry point returns.
    pub fn close_lint(&mut self) -> Result<LintReport, TraceError> {
        let mut report = LintReport::new();
        self.release_pending(&mut report, true);
        Ok(report)
    }

    /// Appends every buffered chunk whose turn has come: while the stream is
    /// open, the consecutive successors of the chunk just applied; when it is
    /// `closing`, all of them, each run of sequence numbers skipped on the way
    /// flagged — once, at its first number, however long it is: a sequence
    /// number is the producer's to choose — as chunks that never arrived. A
    /// buffered chunk that admission cannot
    /// repair is dropped with a record of the error and the stream moves past
    /// it — the caller that could have been told is long gone.
    fn release_pending(&mut self, report: &mut LintReport, closing: bool) {
        while let Some(entry) = self.pending.first_entry() {
            let sequence = *entry.key();
            if sequence > self.expected_seq && !closing {
                break;
            }
            let mut chunk = entry.remove();
            if self.expected_seq < sequence {
                let missing = self.expected_seq;
                let (which, gap) = match sequence - missing {
                    1 => (format!("chunk {missing}"), "the missing chunk".to_string()),
                    n => (
                        format!("chunks {missing}..={}", sequence - 1),
                        format!("the {n} missing chunks"),
                    ),
                };
                let event = EventRef::Chunk { sequence: missing };
                let detail = format!("{which} never arrived \u{2014} presumed dropped");
                report.push_finding(LintFinding::new(LintCode::ChunkSequence, event, detail));
                let detail = format!("stream resumed past {gap}");
                report.push_repair(dropped_chunk(missing, detail));
                self.expected_seq = sequence;
            }
            let mut repairs = LintReport::new();
            match self.admit(&mut chunk, sequence, Some(&mut repairs)) {
                Ok(()) => {
                    report.merge(repairs);
                    self.apply(chunk);
                }
                Err(e) => {
                    let detail = format!("buffered chunk dropped: {e}");
                    report.push_repair(dropped_chunk(sequence, detail));
                    self.advance_sequence();
                }
            }
        }
    }
}

/// Returns a copy of `trace` whose task ids are renumbered into execution-start
/// order (stable: ties keep their original relative order), with every task
/// reference — state intervals, memory accesses, discrete events, communication
/// events — remapped accordingly and the access table re-sorted.
///
/// A trace recorded by a real runtime registers tasks as they start, so it already
/// satisfies the streaming contract; traces *constructed* in CPU-major order (every
/// builder-based generator in this workspace) generally do not. This canonicalization
/// makes such traces splittable by [`split_at`] (which still rejects the degenerate
/// case of a state interval starting before its referenced task's execution — no id
/// renumbering can repair that). The result is semantically equivalent to the input —
/// only the id space changed.
pub fn make_streamable(trace: &Trace) -> Trace {
    let mut out = trace.clone();
    let data = out.data_mut();
    let mut order: Vec<usize> = (0..data.tasks.len()).collect();
    order.sort_by_key(|&i| (data.tasks[i].execution.start, i));
    // old id -> new id
    let mut remap: Vec<u64> = vec![0; data.tasks.len()];
    for (new_id, &old_id) in order.iter().enumerate() {
        remap[old_id] = new_id as u64;
    }
    let map = |id: TaskId| -> TaskId {
        match remap.get(id.0 as usize) {
            Some(&new_id) => TaskId(new_id),
            // Dangling ids (the builder does not validate state/event task refs)
            // stay dangling: they resolved to nothing before and still do.
            None => id,
        }
    };
    let mut tasks: Vec<TaskInstance> = order.iter().map(|&i| data.tasks[i]).collect();
    for (new_id, t) in tasks.iter_mut().enumerate() {
        t.id = TaskId(new_id as u64);
    }
    data.tasks = tasks;
    for pc in data.per_cpu.iter_mut() {
        pc.states.map_tasks(map);
        pc.events.map_tasks(map);
    }
    data.accesses.map_tasks(map);
    data.accesses.sort_by_task();
    for c in data.comm_events.iter_mut() {
        c.task = c.task.map(map);
    }
    out
}

/// Splits a batch trace at the given cut timestamps into a prologue builder plus
/// one [`TraceChunk`] per window, such that replaying every chunk through a
/// [`StreamingTrace`] opened on the prologue reproduces `trace` exactly.
///
/// Window `k` covers `[cuts[k-1], cuts[k])` (the first window is open at the left,
/// the last at the right); states are assigned by interval start, point events and
/// samples by timestamp, tasks by execution start, and accesses ride with their
/// task. Cuts are sorted and deduplicated first, so `cuts.len() + 1` chunks are
/// produced (some possibly empty).
///
/// # Errors
///
/// Returns [`TraceError::UnstreamableChunk`] when task ids are not ordered by
/// execution start (run [`make_streamable`] first) or when a state interval
/// references a task whose execution starts in a *later* window than the state
/// (such a trace cannot be replayed at these cuts: the chunk would dangle the
/// reference — possible because the builder does not validate state→task refs).
pub fn split_at(
    trace: &Trace,
    cuts: &[Timestamp],
) -> Result<(TraceBuilder, Vec<TraceChunk>), TraceError> {
    if trace
        .tasks()
        .windows(2)
        .any(|w| w[1].execution.start < w[0].execution.start)
    {
        return Err(TraceError::UnstreamableChunk(
            "task ids are not ordered by execution start; call make_streamable first".into(),
        ));
    }
    let prologue = trace.prologue();
    let mut cuts: Vec<Timestamp> = cuts.to_vec();
    cuts.sort_unstable();
    cuts.dedup();
    let num_chunks = cuts.len() + 1;
    let mut chunks = vec![TraceChunk::new(); num_chunks];
    // `window_of(t)` = index of the chunk whose window contains timestamp `t`.
    let window_of = |t: Timestamp| cuts.partition_point(|&c| c <= t);

    for t in trace.tasks() {
        let k = window_of(t.execution.start);
        chunks[k].tasks.push(*t);
        // Accesses are a contiguous, task-sorted run per task.
        chunks[k]
            .accesses
            .extend(trace.accesses_of_task(t.id).iter());
    }
    for pc in trace.per_cpu() {
        for s in pc.states() {
            let k = window_of(s.interval.start);
            // A state's referenced task must be ingested no later than the state
            // itself, or the replay would reject the chunk (UnknownTask).
            if let Some(task) = s.task.and_then(|id| trace.task(id)) {
                if window_of(task.execution.start) > k {
                    return Err(TraceError::UnstreamableChunk(format!(
                        "state at {} on {} references {}, which only starts executing at {} \
                         (a later chunk); these cuts cannot replay this trace",
                        s.interval.start, s.cpu, task.id, task.execution.start
                    )));
                }
            }
            chunks[k].states.push(s);
        }
        for e in pc.events().iter() {
            chunks[window_of(e.timestamp)].events.push(e);
        }
        for (_, stream) in pc.sample_streams() {
            for s in stream.iter() {
                chunks[window_of(s.timestamp)].samples.push(s);
            }
        }
    }
    for c in trace.comm_events() {
        chunks[window_of(c.timestamp)].comm_events.push(*c);
    }
    Ok((prologue, chunks))
}

/// [`split_at`] with `num_chunks` evenly spaced cut points over the trace bounds.
///
/// # Errors
///
/// See [`split_at`].
pub fn split_even(
    trace: &Trace,
    num_chunks: usize,
) -> Result<(TraceBuilder, Vec<TraceChunk>), TraceError> {
    let num_chunks = num_chunks.max(1);
    let bounds = trace.time_bounds();
    let step = (bounds.duration() / num_chunks as u64).max(1);
    let cuts: Vec<Timestamp> = (1..num_chunks as u64)
        .map(|i| Timestamp(bounds.start.0 + i * step))
        .collect();
    split_at(trace, &cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommKind, DiscreteEventKind};
    use crate::ids::{CounterId, NumaNodeId};
    use crate::memory::AccessKind;
    use crate::state::WorkerState;
    use crate::topology::MachineTopology;

    /// A small two-CPU trace whose tasks interleave across CPUs in time, so the
    /// builder's CPU-major registration order is *not* execution-start order.
    fn interleaved_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 1));
        let ty = b.add_task_type("w", 0x1000);
        let ctr = b.add_counter("c", true);
        b.add_region(0x1000, 0x1000, Some(NumaNodeId(0)));
        b.add_region(0x10_000, 0x1000, Some(NumaNodeId(1)));
        for cpu in 0..2u32 {
            let mut now = cpu as u64 * 37;
            for i in 0..20u64 {
                let work = 100 + (i * 13 + cpu as u64 * 7) % 200;
                let t = b.add_task(
                    ty,
                    CpuId(cpu),
                    Timestamp(now),
                    Timestamp(now),
                    Timestamp(now + work),
                );
                b.add_state(
                    CpuId(cpu),
                    WorkerState::TaskExecution,
                    Timestamp(now),
                    Timestamp(now + work),
                    Some(t),
                )
                .unwrap();
                b.add_state(
                    CpuId(cpu),
                    WorkerState::Idle,
                    Timestamp(now + work),
                    Timestamp(now + work + 50),
                    None,
                )
                .unwrap();
                b.add_sample(ctr, CpuId(cpu), Timestamp(now), (i * 3) as f64)
                    .unwrap();
                b.add_event(
                    CpuId(cpu),
                    Timestamp(now),
                    DiscreteEventKind::TaskCreate { task: t },
                )
                .unwrap();
                b.add_access(t, AccessKind::Read, 0x1000 + i * 8, 64)
                    .unwrap();
                b.add_access(t, AccessKind::Write, 0x10_000 + i * 8, 32)
                    .unwrap();
                now += work + 50;
            }
        }
        b.add_comm(CommEvent {
            timestamp: Timestamp(500),
            kind: CommKind::DataTransfer,
            src_cpu: CpuId(0),
            dst_cpu: CpuId(1),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(1),
            bytes: 64,
            task: Some(TaskId(0)),
        })
        .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn make_streamable_orders_tasks_and_preserves_attribution() {
        let trace = interleaved_trace();
        assert!(
            trace
                .tasks()
                .windows(2)
                .any(|w| w[1].execution.start < w[0].execution.start),
            "fixture must be out of order"
        );
        let streamable = make_streamable(&trace);
        assert!(streamable
            .tasks()
            .windows(2)
            .all(|w| w[0].execution.start <= w[1].execution.start));
        assert_eq!(streamable.tasks().len(), trace.tasks().len());
        // Every exec state still references a task with its own interval.
        for pc in streamable.per_cpu() {
            for s in pc.states() {
                if let Some(id) = s.task {
                    let t = streamable.task(id).expect("remapped id resolves");
                    assert_eq!(t.execution, s.interval);
                }
            }
        }
        // Per-task access totals are preserved under the renumbering.
        for old in trace.tasks() {
            let new = streamable
                .tasks()
                .iter()
                .find(|t| t.execution == old.execution && t.cpu == old.cpu)
                .unwrap();
            assert_eq!(
                trace.accesses_of_task(old.id).len(),
                streamable.accesses_of_task(new.id).len()
            );
        }
    }

    #[test]
    fn split_and_replay_reproduces_the_trace() {
        let trace = make_streamable(&interleaved_trace());
        for num_chunks in [1, 2, 3, 7, 100] {
            let (prologue, chunks) = split_even(&trace, num_chunks).unwrap();
            assert_eq!(chunks.len(), num_chunks.max(1));
            let mut stream = StreamingTrace::new(prologue).unwrap();
            for chunk in chunks {
                stream.append(chunk).unwrap();
            }
            assert_eq!(stream.epochs(), num_chunks as u64);
            assert_eq!(stream.time_bounds(), trace.time_bounds());
            assert_eq!(stream.trace(), &trace, "{num_chunks} chunks");
        }
    }

    #[test]
    fn split_rejects_states_preceding_their_task() {
        // The builder does not validate state→task refs, so a state can start
        // before its referenced task's execution. Cuts separating the two must be
        // rejected (the replay would dangle the reference), while cuts keeping
        // them in one window still work.
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        let ty = b.add_task_type("w", 0);
        let t = b.add_task(ty, CpuId(0), Timestamp(500), Timestamp(500), Timestamp(600));
        b.add_state(
            CpuId(0),
            WorkerState::TaskCreation,
            Timestamp(100),
            Timestamp(200),
            Some(t),
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(500),
            Timestamp(600),
            Some(t),
        )
        .unwrap();
        let trace = b.finish().unwrap();
        assert!(matches!(
            split_at(&trace, &[Timestamp(300)]),
            Err(TraceError::UnstreamableChunk(_))
        ));
        let (prologue, chunks) = split_at(&trace, &[Timestamp(50)]).unwrap();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        for chunk in chunks {
            stream.append(chunk).unwrap();
        }
        assert_eq!(stream.trace(), &trace);
    }

    #[test]
    fn split_rejects_unordered_task_ids() {
        let trace = interleaved_trace();
        assert!(matches!(
            split_even(&trace, 4),
            Err(TraceError::UnstreamableChunk(_))
        ));
    }

    #[test]
    fn append_rejects_contract_violations() {
        let trace = make_streamable(&interleaved_trace());
        let (prologue, chunks) = split_even(&trace, 2).unwrap();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        let [first, second]: [TraceChunk; 2] = chunks.try_into().unwrap();

        // Applying the second chunk first dangles its task ids.
        let mut out_of_order = stream.clone();
        assert!(matches!(
            out_of_order.append(second.clone()),
            Err(TraceError::UnstreamableChunk(_))
        ));

        stream.append(first).unwrap();
        let tasks_before = stream.trace().tasks().len();

        // A state overlapping the ingested tail is rejected...
        let mut bad = TraceChunk::new();
        bad.states.push(StateInterval::new(
            CpuId(0),
            WorkerState::Idle,
            TimeInterval::from_cycles(0, 10),
            None,
        ));
        assert!(matches!(
            stream.append(bad),
            Err(TraceError::OverlappingStates(_))
        ));
        // ...atomically: nothing was applied.
        assert_eq!(stream.trace().tasks().len(), tasks_before);

        // A sample going backwards on its stream is rejected.
        let mut bad = TraceChunk::new();
        bad.samples.push(CounterSample::new(
            CounterId(0),
            CpuId(0),
            Timestamp(0),
            1.0,
        ));
        assert!(matches!(
            stream.append(bad),
            Err(TraceError::UnorderedEvents { .. })
        ));

        // An access for a task from an earlier chunk is rejected.
        let mut bad = TraceChunk::new();
        bad.accesses
            .push(MemoryAccess::new(TaskId(0), AccessKind::Read, 0x1000, 8));
        assert!(matches!(
            stream.append(bad),
            Err(TraceError::UnstreamableChunk(_))
        ));

        // An unknown CPU is rejected.
        let mut bad = TraceChunk::new();
        bad.events.push(DiscreteEvent::new(
            CpuId(99),
            Timestamp(u64::MAX),
            DiscreteEventKind::Marker { code: 1 },
        ));
        assert!(matches!(stream.append(bad), Err(TraceError::UnknownCpu(_))));

        // The untouched stream still accepts the real second chunk.
        stream.append(second).unwrap();
        assert_eq!(stream.trace(), &trace);
    }

    #[test]
    fn empty_chunks_and_empty_prologue_are_legal() {
        let mut stream =
            StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
        assert_eq!(stream.append(TraceChunk::new()).unwrap(), 0);
        assert_eq!(stream.time_bounds().duration(), 0);
        let mut chunk = TraceChunk::new();
        chunk.states.push(StateInterval::new(
            CpuId(0),
            WorkerState::Idle,
            TimeInterval::from_cycles(100, 200),
            None,
        ));
        stream.append(chunk).unwrap();
        assert_eq!(stream.time_bounds(), TimeInterval::from_cycles(100, 200));
        assert_eq!(stream.trace().time_bounds(), stream.time_bounds());
    }

    /// A chunk of idle states on one CPU, for hand-built lint tests.
    fn state_chunk(cpu: u32, intervals: &[(u64, u64)]) -> TraceChunk {
        let mut chunk = TraceChunk::new();
        for &(start, end) in intervals {
            chunk.states.push(StateInterval::new(
                CpuId(cpu),
                WorkerState::Idle,
                TimeInterval::from_cycles(start, end),
                None,
            ));
        }
        chunk
    }

    #[test]
    fn strict_lint_rejects_chunk_overlap_that_plain_append_accepts() {
        // The second chunk's item starts at 50, before the first chunk's
        // latest item start (60). CPU1's own tail still advances, so plain
        // append silently takes the retrograde chunk.
        let prologue = || TraceBuilder::new(MachineTopology::uniform(2, 1));
        let mut plain = StreamingTrace::new(prologue()).unwrap();
        plain.append(state_chunk(0, &[(0, 50), (60, 100)])).unwrap();
        assert_eq!(plain.append(state_chunk(1, &[(50, 150)])).unwrap(), 1);

        let mut strict = StreamingTrace::new(prologue()).unwrap();
        strict
            .append_lint(0, state_chunk(0, &[(0, 50), (60, 100)]), LintMode::Strict)
            .unwrap();
        let err = strict
            .append_lint(1, state_chunk(1, &[(50, 150)]), LintMode::Strict)
            .unwrap_err();
        match err {
            TraceError::LintFindings(summary) => {
                assert_eq!(summary.count(LintCode::ChunkOverlap), 1);
            }
            other => panic!("expected LintFindings, got {other}"),
        }
        // Rejection is atomic: nothing of the chunk was applied.
        assert_eq!(strict.epochs(), 1);
        assert_eq!(strict.time_bounds(), TimeInterval::from_cycles(0, 100));
    }

    #[test]
    fn lenient_lint_records_chunk_overlap_and_appends() {
        let mut stream =
            StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(2, 1))).unwrap();
        stream
            .append_lint(0, state_chunk(0, &[(0, 50), (60, 100)]), LintMode::Lenient)
            .unwrap();
        let report = stream
            .append_lint(1, state_chunk(1, &[(50, 150)]), LintMode::Lenient)
            .unwrap();
        assert_eq!(report.summary().count(LintCode::ChunkOverlap), 1);
        // CPU1 itself was untouched, so no repair was necessary.
        assert!(report.repairs().is_empty());
        assert_eq!(stream.epochs(), 2);
        assert_eq!(stream.time_bounds(), TimeInterval::from_cycles(0, 150));
    }

    #[test]
    fn lenient_lint_clamps_states_reaching_into_ingested_time() {
        // Same CPU this time: plain append would reject with OverlappingStates.
        let mut stream =
            StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
        stream
            .append_lint(0, state_chunk(0, &[(0, 50), (60, 100)]), LintMode::Lenient)
            .unwrap();
        let report = stream
            .append_lint(1, state_chunk(0, &[(50, 150)]), LintMode::Lenient)
            .unwrap();
        assert_eq!(report.summary().count(LintCode::ChunkOverlap), 1);
        assert_eq!(report.repairs().len(), 1);
        assert_eq!(report.repairs()[0].strategy, RepairStrategy::Clamp);
        let states = stream.trace().cpu(CpuId(0)).unwrap().states();
        assert_eq!(states.len(), 3);
        assert_eq!(states.interval(2), TimeInterval::from_cycles(100, 150));
    }

    #[test]
    fn a_publish_with_a_dangling_consumer_is_flagged_dropped_and_half_remapped() {
        // The variant with two task references, through the three readers of
        // `DiscreteEventKind::task_refs_mut`: a live producer and a consumer
        // that was never registered.
        let ghost = TaskId(7);
        let publish = |producer, consumer| DiscreteEventKind::DataPublish {
            producer,
            consumer,
            bytes: 64,
        };
        // Registered against execution order, so canonicalization swaps the ids.
        let mut prologue = TraceBuilder::new(MachineTopology::uniform(1, 1));
        let ty = prologue.add_task_type("w", 0);
        let mut b = prologue.clone();
        let late = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(100), Timestamp(200));
        b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(0), Timestamp(100));
        b.add_event(CpuId(0), Timestamp(150), publish(late, ghost))
            .unwrap();
        let trace = b.finish().unwrap();

        // The lint walk flags the event, once: for its consumer.
        let report = trace.lint();
        let at = EventRef::Event {
            cpu: CpuId(0),
            index: 0,
        };
        let flagged: Vec<_> = report
            .findings()
            .iter()
            .map(|f| (f.code, f.event))
            .collect();
        assert_eq!(flagged, [(LintCode::OrphanTaskRef, at)]);
        assert!(report.findings()[0].detail.contains("task 7"));

        // Canonicalization moves the producer with its task and leaves the
        // consumer dangling where it was.
        let streamable = make_streamable(&trace);
        let events = streamable.cpu(CpuId(0)).unwrap().events();
        assert_eq!(events.kind(0), publish(TaskId(1), ghost));

        // The lenient append keeps the publish whose two references resolve
        // and drops, with a record, the one whose consumer does not.
        let mut stream = StreamingTrace::new(prologue).unwrap();
        let mut chunk = TraceChunk::new();
        chunk.tasks.push(trace.tasks()[1]);
        chunk.tasks[0].id = TaskId(0);
        for consumer in [TaskId(0), ghost] {
            let kind = publish(TaskId(0), consumer);
            chunk
                .events
                .push(DiscreteEvent::new(CpuId(0), Timestamp(50), kind));
        }
        let report = stream.append_lint(0, chunk, LintMode::Lenient).unwrap();
        let dropped: Vec<_> = report
            .repairs()
            .iter()
            .map(|r| (r.code, r.strategy))
            .collect();
        assert_eq!(
            dropped,
            [(LintCode::OrphanTaskRef, RepairStrategy::DropWithRecord)]
        );
        let events = stream.trace().cpu(CpuId(0)).unwrap().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events.kind(0), publish(TaskId(0), TaskId(0)));
    }

    #[test]
    fn the_prologue_is_the_body_whatever_order_the_regions_were_registered_in() {
        // Descending addresses: the trace holds the regions in address order,
        // which is not their id order.
        let mut b = interleaved_trace().to_builder();
        let mut ids = Vec::new();
        for base in [0x90_000, 0x50_000, 0x30_000] {
            ids.push(b.add_region(base, 0x1000, Some(NumaNodeId(1))));
        }
        let trace = make_streamable(&b.finish().unwrap());
        let by_address: Vec<_> = trace.regions().iter().map(|r| r.id).collect();
        assert_eq!(by_address[2..], [ids[2], ids[1], ids[0]]);
        let (prologue, chunks) = split_even(&trace, 4).unwrap();
        // New regions of the prologue continue the ids, like `to_builder`'s.
        let next = prologue.clone().add_region(0, 1, None);
        assert_eq!(next.0, ids[0].0 + 3);
        let mut stream = StreamingTrace::new(prologue).unwrap();
        assert_eq!(stream.trace().regions(), trace.regions());
        assert_eq!(stream.trace().num_events(), 0);
        for chunk in chunks {
            stream.append(chunk).unwrap();
        }
        assert_eq!(*stream.trace(), trace);
    }

    #[test]
    fn strict_lint_rejects_out_of_order_sequence() {
        let trace = make_streamable(&interleaved_trace());
        let (prologue, mut chunks) = split_even(&trace, 3).unwrap();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        let late = chunks.remove(1);
        match stream.append_lint(1, late, LintMode::Strict).unwrap_err() {
            TraceError::LintFindings(summary) => {
                assert_eq!(summary.count(LintCode::ChunkSequence), 1);
            }
            other => panic!("expected LintFindings, got {other}"),
        }
        assert_eq!(stream.epochs(), 0);
    }

    #[test]
    fn lenient_lint_reorders_swapped_chunks_byte_identically() {
        let trace = make_streamable(&interleaved_trace());
        let (prologue, mut chunks) = split_even(&trace, 4).unwrap();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        // Deliver 0, 2, 1, 3: the swap is healed by buffering.
        chunks.swap(1, 2);
        let sequences = [0u64, 2, 1, 3];
        let mut total = LintReport::new();
        for (chunk, seq) in chunks.into_iter().zip(sequences) {
            total.merge(stream.append_lint(seq, chunk, LintMode::Lenient).unwrap());
        }
        // Exactly one reorder finding (chunk 1 overtaken by chunk 2); clean
        // in-order chunks pass through repair untouched.
        assert_eq!(total.summary().count(LintCode::ChunkSequence), 1);
        assert_eq!(total.summary().total(), 1);
        assert!(total.repairs().is_empty());
        assert!(stream.pending_sequences().is_empty());
        assert_eq!(stream.trace(), &trace);
    }

    #[test]
    fn lenient_lint_drops_late_duplicate_chunk() {
        let trace = make_streamable(&interleaved_trace());
        let (prologue, chunks) = split_even(&trace, 2).unwrap();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        let dup = chunks[0].clone();
        for (seq, chunk) in chunks.into_iter().enumerate() {
            stream
                .append_lint(seq as u64, chunk, LintMode::Lenient)
                .unwrap();
        }
        let report = stream.append_lint(0, dup, LintMode::Lenient).unwrap();
        assert_eq!(report.summary().count(LintCode::ChunkSequence), 1);
        assert_eq!(report.repairs().len(), 1);
        assert_eq!(report.repairs()[0].strategy, RepairStrategy::DropWithRecord);
        assert_eq!(stream.epochs(), 2);
        assert_eq!(stream.trace(), &trace);
    }

    #[test]
    fn close_lint_flags_exactly_the_dropped_chunk() {
        let trace = make_streamable(&interleaved_trace());
        let (prologue, mut chunks) = split_even(&trace, 3).unwrap();
        let dropped_tasks = chunks[1].tasks.len();
        let mut stream = StreamingTrace::new(prologue).unwrap();
        let last = chunks.pop().unwrap();
        let first = chunks.remove(0);
        stream.append_lint(0, first, LintMode::Lenient).unwrap();
        // Chunk 1 is lost in transit; chunk 2 buffers awaiting it.
        stream.append_lint(2, last, LintMode::Lenient).unwrap();
        assert_eq!(stream.pending_sequences(), vec![2]);
        assert_eq!(stream.epochs(), 1);

        let report = stream.close_lint().unwrap();
        let flagged: Vec<_> = report
            .findings()
            .iter()
            .map(|f| (f.code, f.event))
            .collect();
        assert_eq!(
            flagged,
            vec![(LintCode::ChunkSequence, EventRef::Chunk { sequence: 1 })]
        );
        assert!(stream.pending_sequences().is_empty());
        assert_eq!(stream.epochs(), 2);
        // Chunk 2's task ids were renumbered past the gap, and every reference
        // into the lost chunk was healed: the result lints clean.
        assert_eq!(
            stream.trace().tasks().len(),
            trace.tasks().len() - dropped_tasks
        );
        assert!(stream.trace().lint().is_clean());
    }

    #[test]
    fn close_lint_flags_a_gap_once_however_long_it_is() {
        // The producer chooses sequence numbers: closing over a gap must not
        // walk it. (`1 << 40` one at a time would never return; `u64::MAX + 1`
        // would overflow.)
        for (buffered, range, count) in [
            (4, "chunks 1..=3 ", "the 3 missing"),
            (
                1 << 40,
                "chunks 1..=1099511627775 ",
                "the 1099511627775 missing",
            ),
            (
                u64::MAX,
                "chunks 1..=18446744073709551614 ",
                "18446744073709551614 missing",
            ),
        ] {
            let mut stream =
                StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
            let lenient = LintMode::Lenient;
            stream
                .append_lint(0, state_chunk(0, &[(0, 10)]), lenient)
                .unwrap();
            let ahead = state_chunk(0, &[(10, 20)]);
            assert!(stream
                .append_lint(buffered, ahead, lenient)
                .unwrap()
                .is_clean());
            assert_eq!(stream.pending_sequences(), vec![buffered]);

            let report = stream.close_lint().unwrap();
            let gap = EventRef::Chunk { sequence: 1 };
            let [finding] = report.findings() else {
                panic!("one finding for the whole gap: {:?}", report.findings());
            };
            assert_eq!(
                (finding.code, finding.event),
                (LintCode::ChunkSequence, gap)
            );
            assert!(finding.detail.starts_with(range), "{}", finding.detail);
            let [repair] = report.repairs() else {
                panic!("one repair for the whole gap: {:?}", report.repairs());
            };
            assert_eq!((repair.code, repair.event), (LintCode::ChunkSequence, gap));
            assert_eq!(repair.strategy, RepairStrategy::DropWithRecord);
            assert!(repair.detail.contains(count), "{}", repair.detail);
            // The buffered chunk was applied, and the stream goes on after it.
            assert!(stream.pending_sequences().is_empty());
            assert_eq!(stream.epochs(), 2);
            assert_eq!(stream.trace().per_cpu()[0].states().len(), 2);
            let late = stream.append_lint(2, state_chunk(0, &[(20, 30)]), lenient);
            assert_eq!(
                late.unwrap().repairs().len(),
                1,
                "2 is behind the stream now"
            );
            assert_eq!(stream.epochs(), 2);
        }
    }

    #[test]
    fn lenient_lint_rejects_an_unrepairable_arrival_and_drops_an_unrepairable_successor() {
        let mut stream =
            StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
        // Chunk 1 arrives early and is buffered unvalidated.
        stream
            .append_lint(1, state_chunk(99, &[(50, 110)]), LintMode::Lenient)
            .unwrap();
        // The caller's own chunk is rejected atomically: the stream still waits
        // for sequence 0 and still holds chunk 1.
        let err = stream.append_lint(0, state_chunk(99, &[(0, 50)]), LintMode::Lenient);
        assert!(matches!(err, Err(TraceError::UnknownCpu(CpuId(99)))));
        assert_eq!((stream.epochs(), stream.pending_sequences()), (0, vec![1]));
        // The gap-filler is applied; chunk 1 fails admission when its turn
        // comes and is dropped with a record, not an error.
        let report = stream
            .append_lint(0, state_chunk(0, &[(0, 50)]), LintMode::Lenient)
            .unwrap();
        let [dropped] = report.repairs() else {
            panic!("expected one repair, got {:?}", report.repairs());
        };
        assert_eq!(dropped.event, EventRef::Chunk { sequence: 1 });
        assert_eq!(dropped.strategy, RepairStrategy::DropWithRecord);
        assert!(dropped.detail.contains("unknown cpu"), "{}", dropped.detail);
        assert_eq!((stream.epochs(), stream.pending_sequences()), (1, vec![]));
        // The stream moved past it: sequence 2 is next.
        let report = stream
            .append_lint(2, state_chunk(0, &[(110, 200)]), LintMode::Lenient)
            .unwrap();
        assert!(report.is_clean() && report.repairs().is_empty());
        assert_eq!(stream.epochs(), 2);
        assert_eq!(stream.time_bounds(), TimeInterval::from_cycles(0, 200));
    }

    #[test]
    fn close_lint_is_a_noop_without_pending_chunks() {
        let mut stream =
            StreamingTrace::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
        let report = stream.close_lint().unwrap();
        assert!(report.summary().is_clean());
        assert!(report.repairs().is_empty());
    }
}
