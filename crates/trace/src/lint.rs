//! Trace lint: defect detection, per-event annotation codes and repair.
//!
//! Real traces are malformed in ways well-behaved simulators never produce:
//! clock-skewed timestamps, state intervals left unclosed by a crashed worker,
//! references to tasks whose registration record was dropped, duplicated or
//! overlapping state intervals, counter values that jump backwards, NUMA node
//! ids outside the recorded topology, and streaming chunks that arrive out of
//! order or not at all. This module makes those defects *visible* and
//! *survivable*:
//!
//! * a [`Validator`] registry ([`ValidatorRegistry`]) runs every detector over a
//!   trace under construction (or a streaming [`ChunkContext`]) and produces
//!   [`LintFinding`]s with stable per-event annotation codes ([`LintCode`]),
//! * findings roll up into a [`LintReport`] with a per-code [`LintSummary`],
//! * [`TraceBuilder::finish_lint`] turns the builder into an [`AnnotatedTrace`]
//!   in one of two modes ([`LintMode`]): **strict** rejects any finding as
//!   [`TraceError::LintFindings`]; **lenient** applies per-code
//!   [`RepairStrategy`]s (clamp, close-at-end, drop-with-record, resequence) so
//!   a damaged trace still opens and analyses,
//! * [`Trace::repair`] runs the same pipeline over an already-built trace.
//!
//! Repairing a clean trace is the identity: every column lane of the repaired
//! trace is byte-identical to the input, and `repair(repair(t)) == repair(t)`
//! for every strategy (pinned by the `lint_equivalence` property suite).
//!
//! ## Coordinates
//!
//! A finding is anchored to an [`EventRef`]: the insertion index of the item in
//! its stream at the time the validator ran. For a built [`Trace`] the streams
//! are sorted, so insertion order *is* timeline order; for a raw
//! [`TraceBuilder`] it is recording order. Repair records produced after a
//! resequence refer to the resequenced (sorted) order.

use std::collections::BTreeMap;
use std::fmt;

use crate::columns::{AccessColumns, EventColumns, SampleColumns, StateColumns};
use crate::error::TraceError;
use crate::event::{CommEvent, CounterDescription, DiscreteEventKind};
use crate::ids::{CounterId, CpuId, TaskId, TimeInterval, Timestamp};
use crate::memory::MemoryRegion;
use crate::streaming::TraceChunk;
use crate::task::TaskInstance;
use crate::topology::MachineTopology;
use crate::trace::{PerCpuEvents, Trace, TraceBuilder};

/// Stable annotation codes for every defect class the lint layer detects.
///
/// The numeric labels (`L001`…) are part of the machine-readable report format
/// and must never be renumbered; new codes append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum LintCode {
    /// Timestamps of a per-CPU stream (or the communication stream) go
    /// backwards in recording order — clock skew or reordered recording.
    NonMonotonicTimestamps,
    /// A state interval was never closed (its end is [`Timestamp::MAX`]),
    /// e.g. because the worker crashed mid-state.
    UnclosedInterval,
    /// A state, discrete event, memory access or communication event
    /// references a task id that was never registered.
    OrphanTaskRef,
    /// Two state intervals on the same CPU overlap (or are duplicated).
    OverlappingStates,
    /// A monotone counter's sample stream decreases — a wrapped, reset or
    /// corrupted counter.
    CounterDiscontinuity,
    /// A memory region or communication event names a NUMA node outside the
    /// recorded machine topology.
    NumaNodeOutOfRange,
    /// A streaming chunk arrived with an unexpected sequence number
    /// (reordered, duplicated or dropped in transit).
    ChunkSequence,
    /// A streaming chunk's time hull overlaps the previously appended chunk.
    ChunkOverlap,
}

impl LintCode {
    /// All codes, in label order.
    pub const ALL: [LintCode; 8] = [
        LintCode::NonMonotonicTimestamps,
        LintCode::UnclosedInterval,
        LintCode::OrphanTaskRef,
        LintCode::OverlappingStates,
        LintCode::CounterDiscontinuity,
        LintCode::NumaNodeOutOfRange,
        LintCode::ChunkSequence,
        LintCode::ChunkOverlap,
    ];

    /// The stable machine-readable label of the code.
    pub fn label(self) -> &'static str {
        match self {
            LintCode::NonMonotonicTimestamps => "L001-non-monotonic-timestamps",
            LintCode::UnclosedInterval => "L002-unclosed-interval",
            LintCode::OrphanTaskRef => "L003-orphan-task-ref",
            LintCode::OverlappingStates => "L004-overlapping-states",
            LintCode::CounterDiscontinuity => "L005-counter-discontinuity",
            LintCode::NumaNodeOutOfRange => "L006-numa-node-out-of-range",
            LintCode::ChunkSequence => "L007-chunk-sequence",
            LintCode::ChunkOverlap => "L008-chunk-overlap",
        }
    }

    /// Parses a label back into its code.
    pub fn from_label(label: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.label() == label)
    }

    /// The repair strategy the lenient pipeline applies for this code.
    pub fn default_repair(self) -> RepairStrategy {
        match self {
            LintCode::NonMonotonicTimestamps => RepairStrategy::Resequence,
            LintCode::UnclosedInterval => RepairStrategy::CloseAtEnd,
            LintCode::OrphanTaskRef => RepairStrategy::DropWithRecord,
            LintCode::OverlappingStates => RepairStrategy::Clamp,
            LintCode::CounterDiscontinuity => RepairStrategy::Clamp,
            LintCode::NumaNodeOutOfRange => RepairStrategy::DropWithRecord,
            LintCode::ChunkSequence => RepairStrategy::Resequence,
            LintCode::ChunkOverlap => RepairStrategy::Clamp,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the lenient pipeline repairs a defect so the trace still builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RepairStrategy {
    /// Move a value to the nearest admissible one (overlap starts, counter
    /// regressions, chunk timestamps).
    Clamp,
    /// Close an unclosed interval at the next interval's start (or the trace
    /// end when it is the last interval of its CPU).
    CloseAtEnd,
    /// Remove the offending item (or clear the offending reference), keeping a
    /// record of what was dropped.
    DropWithRecord,
    /// Restore the required order by re-sorting a stream or re-numbering a
    /// sequence.
    Resequence,
}

impl RepairStrategy {
    /// Short machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RepairStrategy::Clamp => "clamp",
            RepairStrategy::CloseAtEnd => "close-at-end",
            RepairStrategy::DropWithRecord => "drop-with-record",
            RepairStrategy::Resequence => "resequence",
        }
    }
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Strict/lenient switch for [`TraceBuilder::finish_lint`] and
/// [`crate::streaming::StreamingTrace::append_lint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintMode {
    /// Any finding aborts with [`TraceError::LintFindings`].
    Strict,
    /// Findings are repaired per [`LintCode::default_repair`] and recorded.
    Lenient,
}

/// A stable reference to the item a finding or repair is anchored to.
///
/// Indices are insertion positions within the named stream (see the module
/// docs for the exact coordinate convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventRef {
    /// State interval `index` of `cpu`'s state stream.
    State {
        /// The CPU owning the stream.
        cpu: CpuId,
        /// Insertion index within the stream.
        index: usize,
    },
    /// Discrete event `index` of `cpu`'s event stream.
    Event {
        /// The CPU owning the stream.
        cpu: CpuId,
        /// Insertion index within the stream.
        index: usize,
    },
    /// Counter sample `index` of the `(cpu, counter)` sample stream.
    Sample {
        /// The CPU owning the stream.
        cpu: CpuId,
        /// The sampled counter.
        counter: CounterId,
        /// Insertion index within the stream.
        index: usize,
    },
    /// Memory access `index` of the access table.
    Access {
        /// Insertion index within the access table.
        index: usize,
    },
    /// Communication event `index` of the communication stream.
    Comm {
        /// Insertion index within the stream.
        index: usize,
    },
    /// Memory region `index` of the region table.
    Region {
        /// Insertion index within the region table.
        index: usize,
    },
    /// A whole streaming chunk, identified by its sequence number.
    Chunk {
        /// The producer-assigned sequence number.
        sequence: u64,
    },
}

impl fmt::Display for EventRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventRef::State { cpu, index } => write!(f, "state[{}][{index}]", cpu.0),
            EventRef::Event { cpu, index } => write!(f, "event[{}][{index}]", cpu.0),
            EventRef::Sample {
                cpu,
                counter,
                index,
            } => write!(f, "sample[{}][{}][{index}]", cpu.0, counter.0),
            EventRef::Access { index } => write!(f, "access[{index}]"),
            EventRef::Comm { index } => write!(f, "comm[{index}]"),
            EventRef::Region { index } => write!(f, "region[{index}]"),
            EventRef::Chunk { sequence } => write!(f, "chunk[{sequence}]"),
        }
    }
}

/// One detected defect: a code anchored to an event with a human-readable
/// detail message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LintFinding {
    /// The defect class.
    pub code: LintCode,
    /// The item the defect was detected on.
    pub event: EventRef,
    /// Human-readable context (offending values).
    pub detail: String,
}

impl LintFinding {
    /// Creates a finding.
    pub fn new(code: LintCode, event: EventRef, detail: impl Into<String>) -> Self {
        LintFinding {
            code,
            event,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.code, self.event, self.detail)
    }
}

/// One repair action applied by the lenient pipeline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RepairRecord {
    /// The defect class that triggered the repair.
    pub code: LintCode,
    /// The strategy applied.
    pub strategy: RepairStrategy,
    /// The item the repair was applied to.
    pub event: EventRef,
    /// Human-readable description of the mutation.
    pub detail: String,
}

impl fmt::Display for RepairRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {}",
            self.strategy, self.code, self.event, self.detail
        )
    }
}

/// Per-code finding counts — the roll-up carried by sessions and error values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintSummary {
    counts: BTreeMap<LintCode, usize>,
}

impl LintSummary {
    /// An empty summary.
    pub fn new() -> Self {
        LintSummary::default()
    }

    /// Records `n` findings of `code`.
    pub fn add(&mut self, code: LintCode, n: usize) {
        if n > 0 {
            *self.counts.entry(code).or_insert(0) += n;
        }
    }

    /// Records one finding of `code`.
    pub fn record(&mut self, code: LintCode) {
        self.add(code, 1);
    }

    /// Number of findings of `code`.
    pub fn count(&self, code: LintCode) -> usize {
        self.counts.get(&code).copied().unwrap_or(0)
    }

    /// Total findings across all codes.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Whether no findings were recorded.
    pub fn is_clean(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(code, count)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (LintCode, usize)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &LintSummary) {
        for (code, n) in other.iter() {
            self.add(code, n);
        }
    }
}

impl fmt::Display for LintSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        for (i, (code, n)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{code}\u{d7}{n}")?;
        }
        Ok(())
    }
}

/// The full result of a lint pass: findings, applied repairs and the per-code
/// summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    findings: Vec<LintFinding>,
    repairs: Vec<RepairRecord>,
    summary: LintSummary,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Builds a report from raw findings (no repairs).
    pub fn from_findings(findings: Vec<LintFinding>) -> Self {
        let mut summary = LintSummary::new();
        for f in &findings {
            summary.record(f.code);
        }
        LintReport {
            findings,
            repairs: Vec::new(),
            summary,
        }
    }

    /// Adds a finding, updating the summary.
    pub fn push_finding(&mut self, finding: LintFinding) {
        self.summary.record(finding.code);
        self.findings.push(finding);
    }

    /// Adds a repair record.
    pub fn push_repair(&mut self, repair: RepairRecord) {
        self.repairs.push(repair);
    }

    /// All findings, in detection order.
    pub fn findings(&self) -> &[LintFinding] {
        &self.findings
    }

    /// All repairs, in application order.
    pub fn repairs(&self) -> &[RepairRecord] {
        &self.repairs
    }

    /// The per-code summary of the findings.
    pub fn summary(&self) -> &LintSummary {
        &self.summary
    }

    /// Whether the lint pass found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The codes attached to one event, in label order.
    pub fn codes_for(&self, event: &EventRef) -> Vec<LintCode> {
        let mut codes: Vec<LintCode> = self
            .findings
            .iter()
            .filter(|f| f.event == *event)
            .map(|f| f.code)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Folds another report into this one (streaming epochs accumulate).
    pub fn merge(&mut self, other: LintReport) {
        self.summary.merge(&other.summary);
        self.findings.extend(other.findings);
        self.repairs.extend(other.repairs);
    }
}

/// A trace that went through the lint pipeline, together with its report.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedTrace {
    trace: Trace,
    report: LintReport,
}

impl AnnotatedTrace {
    /// Pairs a trace with its lint report.
    pub fn new(trace: Trace, report: LintReport) -> Self {
        AnnotatedTrace { trace, report }
    }

    /// The (possibly repaired) trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The lint report the trace was annotated with.
    pub fn report(&self) -> &LintReport {
        &self.report
    }

    /// The per-code summary.
    pub fn summary(&self) -> &LintSummary {
        self.report.summary()
    }

    /// Whether the trace was clean (no findings, no repairs).
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// The codes attached to one event.
    pub fn codes_for(&self, event: &EventRef) -> Vec<LintCode> {
        self.report.codes_for(event)
    }

    /// Discards the annotations, keeping the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Splits into trace and report.
    pub fn into_parts(self) -> (Trace, LintReport) {
        (self.trace, self.report)
    }
}

/// Read-only view of the parts of a trace (or builder) a validator inspects.
///
/// Constructed crate-internally by [`Trace::lint`] / [`TraceBuilder::lint`];
/// validators only ever borrow it.
pub struct LintView<'a> {
    pub(crate) topology: &'a MachineTopology,
    pub(crate) tasks: &'a [TaskInstance],
    pub(crate) per_cpu: &'a [PerCpuEvents],
    pub(crate) regions: &'a [MemoryRegion],
    pub(crate) counters: &'a [CounterDescription],
    pub(crate) accesses: &'a AccessColumns,
    pub(crate) comm_events: &'a [CommEvent],
}

impl LintView<'_> {
    /// The machine topology of the trace under lint.
    pub fn topology(&self) -> &MachineTopology {
        self.topology
    }

    /// Number of registered tasks (task ids are dense, so any reference `>=`
    /// this count is an orphan).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }
}

/// Context handed to chunk-level validators by the streaming ingest layer.
pub struct ChunkContext<'a> {
    /// The producer-assigned sequence number of the arriving chunk.
    pub sequence: u64,
    /// The sequence number the stream expects next.
    pub expected_sequence: u64,
    /// The highest sequence number seen so far, if any chunk arrived yet.
    pub max_seen_sequence: Option<u64>,
    /// The start hull of the arriving chunk
    /// ([`crate::streaming::TraceChunk::start_hull`]): the range of its item
    /// *start* times. Items are assigned to chunks by start time, so start
    /// hulls — unlike full time hulls, which straddling states legitimately
    /// overlap — must be disjoint and ordered across chunks.
    pub hull: Option<TimeInterval>,
    /// The start hull of the most recently appended chunk.
    pub previous_hull: Option<TimeInterval>,
    /// The arriving chunk.
    pub chunk: &'a TraceChunk,
}

/// One defect detector. Trace-level validators implement [`Validator::check`];
/// streaming validators implement [`Validator::check_chunk`]; a validator may
/// implement both.
pub trait Validator: Send + Sync {
    /// The single code this validator emits.
    fn code(&self) -> LintCode;

    /// One-line description of the defect class.
    fn description(&self) -> &'static str;

    /// Scans a whole trace (or builder) and appends findings.
    fn check(&self, _view: &LintView<'_>, _out: &mut Vec<LintFinding>) {}

    /// Inspects an arriving streaming chunk and appends findings.
    fn check_chunk(&self, _ctx: &ChunkContext<'_>, _out: &mut Vec<LintFinding>) {}
}

/// An ordered collection of validators, keyed by code.
pub struct ValidatorRegistry {
    validators: BTreeMap<LintCode, Box<dyn Validator>>,
}

impl ValidatorRegistry {
    /// A registry with no validators.
    pub fn empty() -> Self {
        ValidatorRegistry {
            validators: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a validator under its code.
    pub fn register(&mut self, validator: Box<dyn Validator>) {
        self.validators.insert(validator.code(), validator);
    }

    /// Removes the validator for `code`, if registered.
    pub fn unregister(&mut self, code: LintCode) {
        self.validators.remove(&code);
    }

    /// The codes with a registered validator, in label order.
    pub fn codes(&self) -> Vec<LintCode> {
        self.validators.keys().copied().collect()
    }

    /// Number of registered validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// Runs every trace-level validator over the view; findings arrive grouped
    /// by code in label order.
    pub fn validate(&self, view: &LintView<'_>) -> LintReport {
        let mut findings = Vec::new();
        for v in self.validators.values() {
            v.check(view, &mut findings);
        }
        LintReport::from_findings(findings)
    }

    /// Runs every chunk-level validator over an arriving chunk.
    pub fn validate_chunk(&self, ctx: &ChunkContext<'_>) -> Vec<LintFinding> {
        let mut findings = Vec::new();
        for v in self.validators.values() {
            v.check_chunk(ctx, &mut findings);
        }
        findings
    }
}

impl Default for ValidatorRegistry {
    /// The full registry: one validator per [`LintCode`].
    fn default() -> Self {
        let mut r = ValidatorRegistry::empty();
        r.register(Box::new(NonMonotonicValidator));
        r.register(Box::new(UnclosedIntervalValidator));
        r.register(Box::new(OrphanTaskRefValidator));
        r.register(Box::new(OverlappingStatesValidator));
        r.register(Box::new(CounterDiscontinuityValidator));
        r.register(Box::new(NumaNodeValidator));
        r.register(Box::new(ChunkSequenceValidator));
        r.register(Box::new(ChunkOverlapValidator));
        r
    }
}

impl fmt::Debug for ValidatorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValidatorRegistry")
            .field("codes", &self.codes())
            .finish()
    }
}

/// The task ids referenced by a discrete event, if any.
fn event_task_refs(kind: &DiscreteEventKind) -> [Option<TaskId>; 2] {
    match *kind {
        DiscreteEventKind::TaskCreate { task }
        | DiscreteEventKind::TaskReady { task }
        | DiscreteEventKind::TaskComplete { task }
        | DiscreteEventKind::StealSuccess { task, .. } => [Some(task), None],
        DiscreteEventKind::DataPublish {
            producer, consumer, ..
        } => [Some(producer), Some(consumer)],
        DiscreteEventKind::StealAttempt { .. } | DiscreteEventKind::Marker { .. } => [None, None],
    }
}

fn orphan(task: TaskId, num_tasks: usize) -> bool {
    task.0 >= num_tasks as u64
}

/// Detects timestamps that go backwards in recording order (L001).
struct NonMonotonicValidator;

impl Validator for NonMonotonicValidator {
    fn code(&self) -> LintCode {
        LintCode::NonMonotonicTimestamps
    }

    fn description(&self) -> &'static str {
        "per-CPU and communication streams must be recorded in timestamp order"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        let flag = |out: &mut Vec<LintFinding>, event: EventRef, prev: u64, cur: u64| {
            out.push(LintFinding::new(
                LintCode::NonMonotonicTimestamps,
                event,
                format!("timestamp {cur} recorded after {prev}"),
            ));
        };
        for pc in view.per_cpu {
            let cpu = pc.cpu();
            let starts = pc.states().starts();
            for i in 1..starts.len() {
                if starts[i] < starts[i - 1] {
                    flag(
                        out,
                        EventRef::State { cpu, index: i },
                        starts[i - 1],
                        starts[i],
                    );
                }
            }
            let timestamps = pc.events().timestamps();
            for i in 1..timestamps.len() {
                if timestamps[i] < timestamps[i - 1] {
                    flag(
                        out,
                        EventRef::Event { cpu, index: i },
                        timestamps[i - 1],
                        timestamps[i],
                    );
                }
            }
            for (counter, samples) in pc.sample_streams() {
                let timestamps = samples.timestamps();
                for i in 1..timestamps.len() {
                    if timestamps[i] < timestamps[i - 1] {
                        flag(
                            out,
                            EventRef::Sample {
                                cpu,
                                counter,
                                index: i,
                            },
                            timestamps[i - 1],
                            timestamps[i],
                        );
                    }
                }
            }
        }
        for i in 1..view.comm_events.len() {
            let (prev, cur) = (
                view.comm_events[i - 1].timestamp.0,
                view.comm_events[i].timestamp.0,
            );
            if cur < prev {
                flag(out, EventRef::Comm { index: i }, prev, cur);
            }
        }
    }
}

/// Detects state intervals left unclosed at [`Timestamp::MAX`] (L002).
struct UnclosedIntervalValidator;

impl Validator for UnclosedIntervalValidator {
    fn code(&self) -> LintCode {
        LintCode::UnclosedInterval
    }

    fn description(&self) -> &'static str {
        "state intervals must be closed (an end of Timestamp::MAX marks a crashed worker)"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        for pc in view.per_cpu {
            let states = pc.states();
            for (i, &end) in states.ends().iter().enumerate() {
                if end == u64::MAX {
                    out.push(LintFinding::new(
                        LintCode::UnclosedInterval,
                        EventRef::State {
                            cpu: pc.cpu(),
                            index: i,
                        },
                        format!(
                            "interval starting at {} was never closed",
                            states.starts()[i]
                        ),
                    ));
                }
            }
        }
    }
}

/// Detects references to unregistered task ids (L003).
struct OrphanTaskRefValidator;

impl Validator for OrphanTaskRefValidator {
    fn code(&self) -> LintCode {
        LintCode::OrphanTaskRef
    }

    fn description(&self) -> &'static str {
        "task references must name a registered task (ids are dense)"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        let n = view.num_tasks();
        let flag = |out: &mut Vec<LintFinding>, event: EventRef, task: TaskId| {
            out.push(LintFinding::new(
                LintCode::OrphanTaskRef,
                event,
                format!("references unregistered task {} of {n}", task.0),
            ));
        };
        for pc in view.per_cpu {
            let cpu = pc.cpu();
            let states = pc.states();
            for i in 0..states.len() {
                if let Some(task) = states.task(i) {
                    if orphan(task, n) {
                        flag(out, EventRef::State { cpu, index: i }, task);
                    }
                }
            }
            let events = pc.events();
            for i in 0..events.len() {
                for task in event_task_refs(&events.kind(i)).into_iter().flatten() {
                    if orphan(task, n) {
                        flag(out, EventRef::Event { cpu, index: i }, task);
                    }
                }
            }
        }
        let accesses = view.accesses.view();
        for i in 0..accesses.len() {
            let task = accesses.task(i);
            if orphan(task, n) {
                flag(out, EventRef::Access { index: i }, task);
            }
        }
        for (i, c) in view.comm_events.iter().enumerate() {
            if let Some(task) = c.task {
                if orphan(task, n) {
                    flag(out, EventRef::Comm { index: i }, task);
                }
            }
        }
    }
}

/// Detects duplicated or overlapping state intervals on one CPU (L004).
struct OverlappingStatesValidator;

impl Validator for OverlappingStatesValidator {
    fn code(&self) -> LintCode {
        LintCode::OverlappingStates
    }

    fn description(&self) -> &'static str {
        "state intervals of one CPU must not overlap"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        for pc in view.per_cpu {
            let states = pc.states();
            let (starts, ends) = (states.starts(), states.ends());
            // Walk in timeline order regardless of recording order: an unsorted
            // stream is L001's finding, not a forest of spurious overlaps.
            let mut order: Vec<usize> = (0..starts.len()).collect();
            order.sort_by_key(|&i| (starts[i], i));
            let mut tail = 0u64;
            let mut any = false;
            for &i in &order {
                if any && starts[i] < tail {
                    out.push(LintFinding::new(
                        LintCode::OverlappingStates,
                        EventRef::State {
                            cpu: pc.cpu(),
                            index: i,
                        },
                        format!(
                            "interval starts at {} before previous end {tail}",
                            starts[i]
                        ),
                    ));
                }
                // Unclosed intervals (L002) have no trustworthy end; they do
                // not advance the tail, so their successors are not blamed.
                if ends[i] != u64::MAX {
                    tail = tail.max(ends[i]);
                    any = true;
                }
            }
        }
    }
}

/// Detects monotone counters whose sample values decrease (L005).
struct CounterDiscontinuityValidator;

impl Validator for CounterDiscontinuityValidator {
    fn code(&self) -> LintCode {
        LintCode::CounterDiscontinuity
    }

    fn description(&self) -> &'static str {
        "samples of a monotone counter must never decrease"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        for pc in view.per_cpu {
            for (counter, samples) in pc.sample_streams() {
                let monotone = view
                    .counters
                    .get(counter.0 as usize)
                    .map(|c| c.monotone)
                    .unwrap_or(false);
                if !monotone {
                    continue;
                }
                // Compare in timeline order so a skewed recording order (L001)
                // does not masquerade as a counter regression.
                let timestamps = samples.timestamps();
                let values = samples.values();
                let mut order: Vec<usize> = (0..timestamps.len()).collect();
                order.sort_by_key(|&i| (timestamps[i], i));
                for w in order.windows(2) {
                    let (prev, cur) = (w[0], w[1]);
                    if values[cur] < values[prev] {
                        out.push(LintFinding::new(
                            LintCode::CounterDiscontinuity,
                            EventRef::Sample {
                                cpu: pc.cpu(),
                                counter,
                                index: cur,
                            },
                            format!(
                                "monotone counter drops from {} to {}",
                                values[prev], values[cur]
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Detects NUMA node ids outside the recorded topology (L006).
struct NumaNodeValidator;

impl Validator for NumaNodeValidator {
    fn code(&self) -> LintCode {
        LintCode::NumaNodeOutOfRange
    }

    fn description(&self) -> &'static str {
        "NUMA node references must exist in the machine topology"
    }

    fn check(&self, view: &LintView<'_>, out: &mut Vec<LintFinding>) {
        let nodes = view.topology.num_nodes();
        for (i, r) in view.regions.iter().enumerate() {
            if let Some(node) = r.node {
                if !view.topology.contains_node(node) {
                    out.push(LintFinding::new(
                        LintCode::NumaNodeOutOfRange,
                        EventRef::Region { index: i },
                        format!("region placed on node {} of {nodes}", node.0),
                    ));
                }
            }
        }
        for (i, c) in view.comm_events.iter().enumerate() {
            for node in [c.src_node, c.dst_node] {
                if !view.topology.contains_node(node) {
                    out.push(LintFinding::new(
                        LintCode::NumaNodeOutOfRange,
                        EventRef::Comm { index: i },
                        format!("communication names node {} of {nodes}", node.0),
                    ));
                }
            }
        }
    }
}

/// Detects dropped, duplicated or reordered streaming chunks (L007).
struct ChunkSequenceValidator;

impl Validator for ChunkSequenceValidator {
    fn code(&self) -> LintCode {
        LintCode::ChunkSequence
    }

    fn description(&self) -> &'static str {
        "streaming chunks must arrive with consecutive sequence numbers"
    }

    fn check_chunk(&self, ctx: &ChunkContext<'_>, out: &mut Vec<LintFinding>) {
        if ctx.sequence < ctx.expected_sequence {
            out.push(LintFinding::new(
                LintCode::ChunkSequence,
                EventRef::Chunk {
                    sequence: ctx.sequence,
                },
                format!(
                    "sequence {} arrived after the stream advanced past it (expected {})",
                    ctx.sequence, ctx.expected_sequence
                ),
            ));
        } else if ctx.max_seen_sequence.is_some_and(|max| ctx.sequence < max) {
            out.push(LintFinding::new(
                LintCode::ChunkSequence,
                EventRef::Chunk {
                    sequence: ctx.sequence,
                },
                format!(
                    "sequence {} arrived after {} — chunks reordered in transit",
                    ctx.sequence,
                    ctx.max_seen_sequence.unwrap_or(0)
                ),
            ));
        }
    }
}

/// Detects streaming chunks whose time hull overlaps the previous chunk (L008).
struct ChunkOverlapValidator;

impl Validator for ChunkOverlapValidator {
    fn code(&self) -> LintCode {
        LintCode::ChunkOverlap
    }

    fn description(&self) -> &'static str {
        "a chunk's items must start at or after the previous chunk's latest item start"
    }

    fn check_chunk(&self, ctx: &ChunkContext<'_>, out: &mut Vec<LintFinding>) {
        if let (Some(hull), Some(prev)) = (ctx.hull, ctx.previous_hull) {
            if hull.start < prev.end {
                out.push(LintFinding::new(
                    LintCode::ChunkOverlap,
                    EventRef::Chunk {
                        sequence: ctx.sequence,
                    },
                    format!(
                        "chunk items start at {} — before the previous chunk's \
                         latest item start {}",
                        hull.start.0, prev.end.0
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Repair pipeline
// ---------------------------------------------------------------------------

/// Mutable access to a builder's parts for the repair pipeline
/// (crate-internal; see [`TraceBuilder::lint_parts_mut`]).
pub(crate) struct BuilderPartsMut<'a> {
    pub(crate) topology: &'a MachineTopology,
    pub(crate) tasks: &'a [TaskInstance],
    pub(crate) per_cpu: &'a mut Vec<PerCpuEvents>,
    pub(crate) regions: &'a mut Vec<MemoryRegion>,
    pub(crate) counters: &'a [CounterDescription],
    pub(crate) accesses: &'a mut AccessColumns,
    pub(crate) comm_events: &'a mut Vec<CommEvent>,
}

/// The latest bounded timestamp of the recorded data, ignoring the
/// [`Timestamp::MAX`] sentinel of unclosed intervals. Unclosed intervals with
/// no successor are closed here.
fn bounded_end(parts: &BuilderPartsMut<'_>) -> u64 {
    let mut end = 0u64;
    for pc in parts.per_cpu.iter() {
        for (&s, &e) in pc.states().starts().iter().zip(pc.states().ends()) {
            end = end.max(s);
            if e != u64::MAX {
                end = end.max(e);
            }
        }
        if let Some(&t) = pc.events().timestamps().last() {
            end = end.max(t);
        }
        for (_, samples) in pc.sample_streams() {
            if let Some(&t) = samples.timestamps().last() {
                end = end.max(t);
            }
        }
    }
    for t in parts.tasks {
        if t.execution.end.0 != u64::MAX {
            end = end.max(t.execution.end.0);
        }
    }
    for c in parts.comm_events.iter() {
        end = end.max(c.timestamp.0);
    }
    end
}

/// Applies the default repair strategies to every finding of `report`,
/// recording each mutation. After this pass the builder re-lints clean and
/// [`TraceBuilder::finish`] cannot fail on stream invariants.
fn repair_builder(parts: BuilderPartsMut<'_>, report: &mut LintReport) {
    let num_tasks = parts.tasks.len();
    let trace_end = Timestamp(bounded_end(&parts));

    // 1. Resequence: restore timestamp order (one record per L001 finding).
    //    Later passes then walk plain insertion order.
    let skewed: Vec<LintFinding> = report
        .findings()
        .iter()
        .filter(|f| f.code == LintCode::NonMonotonicTimestamps)
        .cloned()
        .collect();
    if !skewed.is_empty() {
        for f in skewed {
            report.push_repair(RepairRecord {
                code: f.code,
                strategy: RepairStrategy::Resequence,
                event: f.event,
                detail: "stream re-sorted by timestamp".into(),
            });
        }
        for pc in parts.per_cpu.iter_mut() {
            pc.sort_streams();
        }
        parts.comm_events.sort_by_key(|c| c.timestamp);
    }

    // 2–4. Per-CPU streams: close unclosed intervals, resolve overlaps, clear
    // orphan refs, clamp counter regressions. The columns have no in-place
    // mutators, so a stream that needs a fix is materialised, fixed and
    // rebuilt; whether it needs one is decided over the column views, so a
    // clean stream is never copied.
    for pc in parts.per_cpu.iter_mut() {
        let cpu = pc.cpu();
        let view = pc.states();
        let (starts, ends) = (view.starts(), view.ends());
        let needs_state_pass = ends.contains(&u64::MAX)
            || starts
                .iter()
                .skip(1)
                .zip(ends)
                .any(|(start, end)| start < end)
            || (0..view.len()).any(|i| view.task(i).is_some_and(|t| orphan(t, num_tasks)));
        if needs_state_pass {
            let states = pc.states.to_vec();
            let mut rebuilt = StateColumns::new(cpu);
            let mut tail = Timestamp::ZERO;
            for (i, mut s) in states.iter().copied().enumerate() {
                let event = EventRef::State { cpu, index: i };
                if s.interval.end == Timestamp::MAX {
                    let close_to = states
                        .get(i + 1)
                        .map(|next| next.interval.start)
                        .unwrap_or(trace_end)
                        .max(s.interval.start);
                    report.push_repair(RepairRecord {
                        code: LintCode::UnclosedInterval,
                        strategy: RepairStrategy::CloseAtEnd,
                        event,
                        detail: format!("interval closed at {}", close_to.0),
                    });
                    s.interval.end = close_to;
                }
                if s.interval.start < tail {
                    if s.interval.end <= tail {
                        report.push_repair(RepairRecord {
                            code: LintCode::OverlappingStates,
                            strategy: RepairStrategy::DropWithRecord,
                            event,
                            detail: format!(
                                "interval [{}, {}] fully covered by predecessors",
                                s.interval.start.0, s.interval.end.0
                            ),
                        });
                        continue;
                    }
                    report.push_repair(RepairRecord {
                        code: LintCode::OverlappingStates,
                        strategy: RepairStrategy::Clamp,
                        event,
                        detail: format!(
                            "interval start clamped from {} to {}",
                            s.interval.start.0, tail.0
                        ),
                    });
                    s.interval.start = tail;
                }
                tail = tail.max(s.interval.end);
                if let Some(t) = s.task {
                    if orphan(t, num_tasks) {
                        report.push_repair(RepairRecord {
                            code: LintCode::OrphanTaskRef,
                            strategy: RepairStrategy::DropWithRecord,
                            event,
                            detail: format!("orphan task reference {} cleared", t.0),
                        });
                        s.task = None;
                    }
                }
                rebuilt.push(s);
            }
            pc.states = rebuilt;
        }

        if pc.events().iter().any(|e| {
            event_task_refs(&e.kind)
                .into_iter()
                .flatten()
                .any(|t| orphan(t, num_tasks))
        }) {
            let mut rebuilt = EventColumns::new(cpu);
            for (i, e) in pc.events().iter().enumerate() {
                if event_task_refs(&e.kind)
                    .into_iter()
                    .flatten()
                    .any(|t| orphan(t, num_tasks))
                {
                    report.push_repair(RepairRecord {
                        code: LintCode::OrphanTaskRef,
                        strategy: RepairStrategy::DropWithRecord,
                        event: EventRef::Event { cpu, index: i },
                        detail: format!("{} event dropped (orphan task)", e.kind.label()),
                    });
                    continue;
                }
                rebuilt.push(e);
            }
            pc.events = rebuilt;
        }

        let monotone_counters: Vec<CounterId> = pc
            .samples
            .keys()
            .copied()
            .filter(|c| {
                parts
                    .counters
                    .get(c.0 as usize)
                    .map(|d| d.monotone)
                    .unwrap_or(false)
            })
            .collect();
        for counter in monotone_counters {
            let samples = pc.samples[&counter].view();
            if samples.values().windows(2).all(|w| w[1] >= w[0]) {
                continue;
            }
            let mut rebuilt = SampleColumns::new(counter, cpu);
            let mut running_max = f64::NEG_INFINITY;
            for (i, mut s) in samples.iter().enumerate() {
                if s.value < running_max {
                    report.push_repair(RepairRecord {
                        code: LintCode::CounterDiscontinuity,
                        strategy: RepairStrategy::Clamp,
                        event: EventRef::Sample {
                            cpu,
                            counter,
                            index: i,
                        },
                        detail: format!("value clamped from {} to {running_max}", s.value),
                    });
                    s.value = running_max;
                }
                running_max = running_max.max(s.value);
                rebuilt.push(s);
            }
            pc.samples.insert(counter, rebuilt);
        }
    }

    // 5. Access table: drop rows referencing orphan tasks.
    {
        let view = parts.accesses.view();
        let any_orphan = (0..view.len()).any(|i| orphan(view.task(i), num_tasks));
        if any_orphan {
            let rows = parts.accesses.to_vec();
            let mut rebuilt = AccessColumns::new();
            for (i, a) in rows.into_iter().enumerate() {
                if orphan(a.task, num_tasks) {
                    report.push_repair(RepairRecord {
                        code: LintCode::OrphanTaskRef,
                        strategy: RepairStrategy::DropWithRecord,
                        event: EventRef::Access { index: i },
                        detail: format!("access by orphan task {} dropped", a.task.0),
                    });
                    continue;
                }
                rebuilt.push(a);
            }
            *parts.accesses = rebuilt;
        }
    }

    // 6. Communication events: drop rows naming unknown NUMA nodes, clear
    // orphan task references on the rest.
    let topology = parts.topology;
    let mut comm_index = 0usize;
    parts.comm_events.retain_mut(|c| {
        let event = EventRef::Comm { index: comm_index };
        comm_index += 1;
        if !topology.contains_node(c.src_node) || !topology.contains_node(c.dst_node) {
            report.push_repair(RepairRecord {
                code: LintCode::NumaNodeOutOfRange,
                strategy: RepairStrategy::DropWithRecord,
                event,
                detail: "communication event naming an unknown node dropped".into(),
            });
            return false;
        }
        if let Some(t) = c.task {
            if orphan(t, num_tasks) {
                report.push_repair(RepairRecord {
                    code: LintCode::OrphanTaskRef,
                    strategy: RepairStrategy::DropWithRecord,
                    event,
                    detail: format!("orphan task reference {} cleared", t.0),
                });
                c.task = None;
            }
        }
        true
    });

    // 7. Regions: unknown placements become unplaced.
    for (i, r) in parts.regions.iter_mut().enumerate() {
        if let Some(node) = r.node {
            if !topology.contains_node(node) {
                report.push_repair(RepairRecord {
                    code: LintCode::NumaNodeOutOfRange,
                    strategy: RepairStrategy::DropWithRecord,
                    event: EventRef::Region { index: i },
                    detail: format!("placement on unknown node {} dropped", node.0),
                });
                r.node = None;
            }
        }
    }
}

impl TraceBuilder {
    /// Runs the default validator registry over the recorded data.
    pub fn lint(&self) -> LintReport {
        self.lint_with(&ValidatorRegistry::default())
    }

    /// Runs a custom validator registry over the recorded data.
    pub fn lint_with(&self, registry: &ValidatorRegistry) -> LintReport {
        registry.validate(&self.lint_view())
    }

    /// Lints the recorded data, then finishes the build.
    ///
    /// In [`LintMode::Strict`], any finding aborts with
    /// [`TraceError::LintFindings`]. In [`LintMode::Lenient`], every finding is
    /// repaired per [`LintCode::default_repair`] and recorded in the report, so
    /// a damaged recording still yields a valid, analysable trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::LintFindings`] in strict mode, plus the errors of
    /// [`TraceBuilder::finish`] for defects outside the lint classes (unknown
    /// task types, invalid task intervals).
    pub fn finish_lint(self, mode: LintMode) -> Result<AnnotatedTrace, TraceError> {
        self.finish_lint_with(mode, &ValidatorRegistry::default())
    }

    /// Like [`TraceBuilder::finish_lint`] with a custom registry.
    ///
    /// # Errors
    ///
    /// See [`TraceBuilder::finish_lint`].
    pub fn finish_lint_with(
        mut self,
        mode: LintMode,
        registry: &ValidatorRegistry,
    ) -> Result<AnnotatedTrace, TraceError> {
        let mut report = registry.validate(&self.lint_view());
        match mode {
            LintMode::Strict => {
                if !report.is_clean() {
                    return Err(TraceError::LintFindings(report.summary().clone()));
                }
            }
            LintMode::Lenient => {
                if !report.is_clean() {
                    repair_builder(self.lint_parts_mut(), &mut report);
                }
            }
        }
        let trace = self.finish()?;
        Ok(AnnotatedTrace::new(trace, report))
    }
}

impl Trace {
    /// Runs the default validator registry over the built trace.
    ///
    /// Built traces are sorted and non-overlapping by construction, so only
    /// defects that survive [`TraceBuilder::finish`] can appear here: unclosed
    /// trailing intervals, orphan task references, counter discontinuities and
    /// out-of-range NUMA nodes.
    pub fn lint(&self) -> LintReport {
        self.lint_with(&ValidatorRegistry::default())
    }

    /// Runs a custom validator registry over the built trace.
    pub fn lint_with(&self, registry: &ValidatorRegistry) -> LintReport {
        registry.validate(&self.lint_view())
    }

    /// Repairs every lint finding, producing an annotated trace.
    ///
    /// Repairing a clean trace is the identity (column lanes are byte-equal),
    /// and repairing twice equals repairing once.
    ///
    /// # Errors
    ///
    /// See [`TraceBuilder::finish_lint`].
    pub fn repair(&self) -> Result<AnnotatedTrace, TraceError> {
        self.to_builder().finish_lint(LintMode::Lenient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommKind;
    use crate::ids::NumaNodeId;
    use crate::memory::AccessKind;
    use crate::state::WorkerState;

    fn topo() -> MachineTopology {
        MachineTopology::uniform(2, 2)
    }

    /// A small healthy builder: two tasks, states, events, samples, accesses,
    /// comm events and a placed region.
    fn clean_builder() -> TraceBuilder {
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("work", 0x1000);
        let t0 = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(10), Timestamp(50));
        let t1 = b.add_task(ty, CpuId(1), Timestamp(5), Timestamp(20), Timestamp(80));
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(10),
            Timestamp(50),
            Some(t0),
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(50),
            Timestamp(90),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(1),
            WorkerState::TaskExecution,
            Timestamp(20),
            Timestamp(80),
            Some(t1),
        )
        .unwrap();
        b.add_event(
            CpuId(0),
            Timestamp(10),
            DiscreteEventKind::TaskCreate { task: t0 },
        )
        .unwrap();
        b.add_event(
            CpuId(0),
            Timestamp(50),
            DiscreteEventKind::TaskComplete { task: t0 },
        )
        .unwrap();
        let ctr = b.add_counter("cache-misses", true);
        b.add_sample(ctr, CpuId(0), Timestamp(10), 5.0).unwrap();
        b.add_sample(ctr, CpuId(0), Timestamp(30), 9.0).unwrap();
        b.add_sample(ctr, CpuId(0), Timestamp(50), 12.0).unwrap();
        let region = b.add_region(0x1000, 0x1000, Some(NumaNodeId(1)));
        let _ = region;
        b.add_access(t0, AccessKind::Write, 0x1000, 64).unwrap();
        b.add_access(t1, AccessKind::Read, 0x1000, 64).unwrap();
        b.add_comm(CommEvent {
            timestamp: Timestamp(60),
            kind: CommKind::DataTransfer,
            src_cpu: CpuId(0),
            dst_cpu: CpuId(1),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(1),
            bytes: 64,
            task: Some(t1),
        })
        .unwrap();
        b
    }

    #[test]
    fn clean_builder_lints_clean() {
        let report = clean_builder().lint();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings()
        );
        let annotated = clean_builder().finish_lint(LintMode::Strict).unwrap();
        assert!(annotated.is_clean());
        assert!(annotated.trace().lint().is_clean());
    }

    #[test]
    fn code_labels_are_stable_and_unique() {
        let mut labels: Vec<_> = LintCode::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels[0], "L001-non-monotonic-timestamps");
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LintCode::ALL.len());
        for code in LintCode::ALL {
            assert_eq!(LintCode::from_label(code.label()), Some(code));
        }
        assert_eq!(LintCode::from_label("L999-nope"), None);
    }

    #[test]
    fn detects_and_resequences_skewed_states() {
        let mut b = clean_builder();
        // Recorded out of order on CPU 1: a second interval that starts before
        // the first one.
        b.add_state(
            CpuId(1),
            WorkerState::Idle,
            Timestamp(0),
            Timestamp(20),
            None,
        )
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::NonMonotonicTimestamps), 1);
        assert_eq!(
            report.findings()[0].event,
            EventRef::State {
                cpu: CpuId(1),
                index: 1
            }
        );
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        assert_eq!(annotated.report().repairs().len(), 1);
        assert_eq!(
            annotated.report().repairs()[0].strategy,
            RepairStrategy::Resequence
        );
        assert!(annotated.trace().lint().is_clean());
    }

    #[test]
    fn detects_and_closes_unclosed_interval() {
        let mut b = clean_builder();
        b.add_state(
            CpuId(1),
            WorkerState::Synchronization,
            Timestamp(80),
            Timestamp::MAX,
            None,
        )
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::UnclosedInterval), 1);
        assert_eq!(report.summary().total(), 1, "no spurious co-findings");
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let states = annotated.trace().cpu(CpuId(1)).unwrap().states();
        // Closed at the trace end (90, the idle interval's end on CPU 0).
        assert_eq!(states.last().unwrap().interval.end, Timestamp(90));
        assert!(annotated.trace().lint().is_clean());
    }

    #[test]
    fn closes_mid_stream_unclosed_interval_at_next_start() {
        let mut b = TraceBuilder::new(topo());
        b.add_state(
            CpuId(0),
            WorkerState::Startup,
            Timestamp(0),
            Timestamp::MAX,
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(40),
            Timestamp(60),
            None,
        )
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::UnclosedInterval), 1);
        assert_eq!(
            report.summary().total(),
            1,
            "successor not blamed for overlap"
        );
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let states = annotated.trace().cpu(CpuId(0)).unwrap().states();
        assert_eq!(states.interval(0).end, Timestamp(40));
        assert!(annotated.trace().lint().is_clean());
    }

    #[test]
    fn detects_orphan_refs_everywhere() {
        let mut b = clean_builder();
        let ghost = TaskId(99);
        b.add_state(
            CpuId(1),
            WorkerState::TaskExecution,
            Timestamp(80),
            Timestamp(95),
            Some(ghost),
        )
        .unwrap();
        b.add_event(
            CpuId(1),
            Timestamp(81),
            DiscreteEventKind::TaskComplete { task: ghost },
        )
        .unwrap();
        b.add_comm(CommEvent {
            timestamp: Timestamp(82),
            kind: CommKind::TaskMigration,
            src_cpu: CpuId(1),
            dst_cpu: CpuId(0),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(0),
            bytes: 0,
            task: Some(ghost),
        })
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::OrphanTaskRef), 3);
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let trace = annotated.trace();
        // State kept with the reference cleared, event dropped, comm kept with
        // the reference cleared.
        assert_eq!(
            trace.cpu(CpuId(1)).unwrap().states().last().unwrap().task,
            None
        );
        assert_eq!(trace.cpu(CpuId(1)).unwrap().events().len(), 0);
        assert_eq!(trace.comm_events().len(), 2);
        assert!(trace.comm_events().iter().all(|c| c.task != Some(ghost)));
        assert!(trace.lint().is_clean());
    }

    #[test]
    fn detects_overlapping_and_duplicate_states() {
        // The harness-style injection: a start moved back into the previous
        // interval ([50, 90] recorded as [30, 90]).
        let mut b = TraceBuilder::new(topo());
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(10),
            Timestamp(50),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::Broadcast,
            Timestamp(30),
            Timestamp(90),
            None,
        )
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::OverlappingStates), 1);
        assert_eq!(report.summary().total(), 1, "exactly the injected event");
        assert_eq!(
            report.findings()[0].event,
            EventRef::State {
                cpu: CpuId(0),
                index: 1
            },
            "flagged at the insertion index of the later-starting interval"
        );
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let states = annotated.trace().cpu(CpuId(0)).unwrap().states();
        assert_eq!(states.interval(1).start, Timestamp(50), "start clamped");
        assert!(annotated.trace().lint().is_clean());
        // A fully-contained duplicate is dropped instead of clamped.
        let mut b = clean_builder();
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(10),
            Timestamp(50),
            None,
        )
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::OverlappingStates), 1);
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        assert_eq!(annotated.trace().cpu(CpuId(0)).unwrap().states().len(), 2);
        let drop_repairs: Vec<_> = annotated
            .report()
            .repairs()
            .iter()
            .filter(|r| r.strategy == RepairStrategy::DropWithRecord)
            .collect();
        assert_eq!(drop_repairs.len(), 1);
    }

    #[test]
    fn detects_and_clamps_counter_discontinuity() {
        let mut b = clean_builder();
        let ctr = CounterId(0);
        b.add_sample(ctr, CpuId(0), Timestamp(70), 4.0).unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::CounterDiscontinuity), 1);
        assert_eq!(
            report.findings()[0].event,
            EventRef::Sample {
                cpu: CpuId(0),
                counter: ctr,
                index: 3
            }
        );
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let values = annotated.trace().cpu(CpuId(0)).unwrap().samples(ctr);
        assert_eq!(
            values.unwrap().last().unwrap().value,
            12.0,
            "clamped to running max"
        );
        assert!(annotated.trace().lint().is_clean());
    }

    #[test]
    fn non_monotone_counters_may_decrease() {
        let mut b = clean_builder();
        let gauge = b.add_counter("queue-depth", false);
        b.add_sample(gauge, CpuId(1), Timestamp(10), 5.0).unwrap();
        b.add_sample(gauge, CpuId(1), Timestamp(20), 2.0).unwrap();
        assert!(b.lint().is_clean());
    }

    #[test]
    fn detects_numa_out_of_range() {
        let mut b = clean_builder();
        b.add_region(0x4000, 0x100, Some(NumaNodeId(7)));
        b.add_comm(CommEvent {
            timestamp: Timestamp(70),
            kind: CommKind::DataTransfer,
            src_cpu: CpuId(0),
            dst_cpu: CpuId(1),
            src_node: NumaNodeId(9),
            dst_node: NumaNodeId(0),
            bytes: 8,
            task: None,
        })
        .unwrap();
        let report = b.lint();
        assert_eq!(report.summary().count(LintCode::NumaNodeOutOfRange), 2);
        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        let trace = annotated.trace();
        assert!(trace
            .regions()
            .iter()
            .all(|r| r.node.is_none_or(|n| n.0 < 2)));
        assert_eq!(trace.comm_events().len(), 1, "bad comm event dropped");
        assert!(trace.lint().is_clean());
    }

    #[test]
    fn strict_mode_rejects_with_summary() {
        let mut b = clean_builder();
        b.add_state(
            CpuId(1),
            WorkerState::Synchronization,
            Timestamp(80),
            Timestamp::MAX,
            None,
        )
        .unwrap();
        match b.finish_lint(LintMode::Strict) {
            Err(TraceError::LintFindings(summary)) => {
                assert_eq!(summary.count(LintCode::UnclosedInterval), 1);
                assert!(summary.to_string().contains("L002"));
            }
            other => panic!("expected LintFindings, got {other:?}"),
        }
    }

    #[test]
    fn to_builder_roundtrips_byte_identical() {
        let trace = clean_builder().finish().unwrap();
        let rebuilt = trace.to_builder().finish().unwrap();
        assert_eq!(rebuilt, trace);
    }

    #[test]
    fn repair_of_clean_trace_is_identity() {
        let trace = clean_builder().finish().unwrap();
        let annotated = trace.repair().unwrap();
        assert!(annotated.is_clean());
        assert_eq!(*annotated.trace(), trace);
        // Column lanes compared directly, not just PartialEq.
        for (a, b) in trace.per_cpu().iter().zip(annotated.trace().per_cpu()) {
            assert_eq!(a.states().starts(), b.states().starts());
            assert_eq!(a.states().ends(), b.states().ends());
            assert_eq!(a.events().timestamps(), b.events().timestamps());
        }
    }

    #[test]
    fn repair_is_idempotent_across_defects() {
        let mut b = clean_builder();
        b.add_state(
            CpuId(1),
            WorkerState::TaskExecution,
            Timestamp(80),
            Timestamp::MAX,
            Some(TaskId(42)),
        )
        .unwrap();
        b.add_sample(CounterId(0), CpuId(0), Timestamp(70), 1.0)
            .unwrap();
        b.add_region(0x4000, 0x100, Some(NumaNodeId(5)));
        let once = b.finish_lint(LintMode::Lenient).unwrap();
        assert!(!once.is_clean());
        let twice = once.trace().repair().unwrap();
        assert!(twice.is_clean());
        assert_eq!(twice.trace(), once.trace());
    }

    #[test]
    fn registry_is_configurable() {
        let mut registry = ValidatorRegistry::default();
        assert_eq!(registry.len(), LintCode::ALL.len());
        registry.unregister(LintCode::UnclosedInterval);
        assert_eq!(registry.len(), LintCode::ALL.len() - 1);
        let mut b = clean_builder();
        b.add_state(
            CpuId(1),
            WorkerState::Synchronization,
            Timestamp(80),
            Timestamp::MAX,
            None,
        )
        .unwrap();
        assert!(b.lint_with(&registry).is_clean());
        assert!(ValidatorRegistry::empty().is_empty());
    }

    #[test]
    fn annotations_attach_codes_to_events() {
        let mut b = clean_builder();
        b.add_state(
            CpuId(1),
            WorkerState::TaskExecution,
            Timestamp(80),
            Timestamp::MAX,
            Some(TaskId(42)),
        )
        .unwrap();
        let report = b.lint();
        let event = EventRef::State {
            cpu: CpuId(1),
            index: 1,
        };
        assert_eq!(
            report.codes_for(&event),
            vec![LintCode::UnclosedInterval, LintCode::OrphanTaskRef]
        );
        assert!(report
            .codes_for(&EventRef::State {
                cpu: CpuId(0),
                index: 0
            })
            .is_empty());
    }
}
