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
//! * every defect class is one row of one table (its stable [`LintCode`]
//!   label, what it means, how it is repaired), and one walk over a trace under
//!   construction decides every defect **together with its fix**,
//! * [`TraceBuilder::lint`] / [`Trace::lint`] report what that walk found as
//!   [`LintFinding`]s, rolled up into a [`LintReport`] with a per-code
//!   [`LintSummary`],
//! * [`TraceBuilder::finish_lint`] turns the builder into an [`AnnotatedTrace`]
//!   in one of two modes ([`LintMode`]): **strict** rejects any finding as
//!   [`TraceError::LintFindings`]; **lenient** applies the fix of every finding
//!   ([`RepairStrategy`]: clamp, close-at-end, drop-with-record, resequence) so
//!   a damaged trace still opens and analyses,
//! * [`Trace::repair`] runs the same pipeline over an already-built trace,
//! * the chunk-level classes (`L007`, `L008`) are decided where chunks arrive,
//!   in [`crate::streaming::StreamingTrace::append_lint`].
//!
//! Repairing a clean trace is the identity: every column lane of the repaired
//! trace is byte-identical to the input, and `repair(repair(t)) == repair(t)`
//! for every strategy (pinned by the `lint_equivalence` property suite).
//!
//! ## Coordinates
//!
//! A finding is anchored to an [`EventRef`]: the insertion index of the item in
//! its stream when the walk ran. For a built [`Trace`] the streams are sorted,
//! so insertion order *is* timeline order; for a raw [`TraceBuilder`] it is
//! recording order. A [`RepairRecord`] is made from the finding it repairs and
//! names the same item in the same coordinates — also when the repair drops
//! items or re-sorts the stream, so a report never mixes index spaces.
//! Findings are grouped by code in label order; within a code they follow the
//! walk (per CPU: states in timeline order, events, samples per counter; then
//! accesses, regions, communication events).

use std::collections::BTreeMap;
use std::fmt;

use crate::columns::{
    sort_permutation, AccessColumns, EventColumns, SampleColumns, SamplesView, StateColumns,
};
use crate::error::TraceError;
use crate::ids::{CounterId, CpuId, NumaNodeId, TaskId, Timestamp};
use crate::trace::{PerCpuEvents, Trace, TraceBuilder, TraceData};

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
    /// A monotone counter's sample stream drops below a value it already
    /// reached — a wrapped, reset or corrupted counter.
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

/// One row of the defect table.
struct DefectClass {
    code: LintCode,
    /// The stable machine-readable label.
    label: &'static str,
    /// What a well-formed trace guarantees where this code fires.
    description: &'static str,
    /// How lenient mode usually repairs it.
    repair: RepairStrategy,
}

/// The defect table, one row per code in label order. Everything that names,
/// lists or describes a code reads its row.
const DEFECTS: [DefectClass; 8] = [
    DefectClass {
        code: LintCode::NonMonotonicTimestamps,
        label: "L001-non-monotonic-timestamps",
        description: "per-CPU and communication streams must be recorded in timestamp order",
        repair: RepairStrategy::Resequence,
    },
    DefectClass {
        code: LintCode::UnclosedInterval,
        label: "L002-unclosed-interval",
        description:
            "state intervals must be closed: an end of Timestamp::MAX marks a crashed worker",
        repair: RepairStrategy::CloseAtEnd,
    },
    DefectClass {
        code: LintCode::OrphanTaskRef,
        label: "L003-orphan-task-ref",
        description: "task references must name a registered task, and ids are dense",
        repair: RepairStrategy::DropWithRecord,
    },
    DefectClass {
        code: LintCode::OverlappingStates,
        label: "L004-overlapping-states",
        description: "state intervals of one CPU must not overlap",
        repair: RepairStrategy::Clamp,
    },
    DefectClass {
        code: LintCode::CounterDiscontinuity,
        label: "L005-counter-discontinuity",
        description: "samples of a monotone counter must never drop below an earlier value",
        repair: RepairStrategy::Clamp,
    },
    DefectClass {
        code: LintCode::NumaNodeOutOfRange,
        label: "L006-numa-node-out-of-range",
        description: "NUMA node references must exist in the machine topology",
        repair: RepairStrategy::DropWithRecord,
    },
    DefectClass {
        code: LintCode::ChunkSequence,
        label: "L007-chunk-sequence",
        description: "streaming chunks must arrive with consecutive sequence numbers",
        repair: RepairStrategy::Resequence,
    },
    DefectClass {
        code: LintCode::ChunkOverlap,
        label: "L008-chunk-overlap",
        description:
            "a chunk's items must start at or after the previous chunk's latest item start",
        repair: RepairStrategy::Clamp,
    },
];

// Row `i` describes the code with discriminant `i`, so a row is found by index.
const _: () = {
    let mut i = 0;
    while i < DEFECTS.len() {
        assert!(DEFECTS[i].code as usize == i);
        i += 1;
    }
};

impl LintCode {
    /// All codes, in label order.
    pub const ALL: [LintCode; 8] = {
        let mut all = [LintCode::NonMonotonicTimestamps; DEFECTS.len()];
        let mut i = 0;
        while i < DEFECTS.len() {
            all[i] = DEFECTS[i].code;
            i += 1;
        }
        all
    };

    /// The stable machine-readable label of the code.
    pub fn label(self) -> &'static str {
        DEFECTS[self as usize].label
    }

    /// Parses a label back into its code.
    pub fn from_label(label: &str) -> Option<LintCode> {
        DEFECTS
            .iter()
            .find(|row| row.label == label)
            .map(|row| row.code)
    }

    /// One line on what a well-formed trace guarantees where this code fires.
    pub fn description(self) -> &'static str {
        DEFECTS[self as usize].description
    }

    /// The strategy the lenient pipeline usually repairs this code with (a
    /// single finding may get another: an overlapping interval that is fully
    /// covered is dropped, not clamped).
    pub fn default_repair(self) -> RepairStrategy {
        DEFECTS[self as usize].repair
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
}

/// How one finding is repaired. The walk that finds a defect decides its fix,
/// with every value the fix needs; [`apply_fixes`] carries it out without
/// looking at the data again.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fix {
    /// The stream is re-sorted by timestamp. [`TraceBuilder::finish`] sorts
    /// every stream, so there is nothing to apply; the record says it mattered.
    Resequence,
    /// The unclosed interval ends here.
    CloseAt(Timestamp),
    /// The overlapping interval starts here instead.
    ClampStart(Timestamp),
    /// The item is removed.
    Drop,
    /// The item stays, without its task reference.
    ClearTask,
    /// The sample takes this value.
    ClampValue(f64),
    /// The region stays, placed nowhere.
    Unplace,
}

impl Fix {
    fn strategy(self) -> RepairStrategy {
        match self {
            Fix::Resequence => RepairStrategy::Resequence,
            Fix::CloseAt(_) => RepairStrategy::CloseAtEnd,
            Fix::ClampStart(_) | Fix::ClampValue(_) => RepairStrategy::Clamp,
            Fix::Drop | Fix::ClearTask | Fix::Unplace => RepairStrategy::DropWithRecord,
        }
    }
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::Resequence => f.write_str("stream re-sorted by timestamp"),
            Fix::CloseAt(t) => write!(f, "interval closed at {}", t.0),
            Fix::ClampStart(t) => write!(f, "interval start clamped to {}", t.0),
            Fix::Drop => f.write_str("item dropped"),
            Fix::ClearTask => f.write_str("task reference cleared"),
            Fix::ClampValue(v) => write!(f, "value clamped to {v}"),
            Fix::Unplace => f.write_str("placement dropped"),
        }
    }
}

/// A finding together with its fix.
struct Defect {
    finding: LintFinding,
    fix: Fix,
}

impl Defect {
    /// The record of repairing this finding: same code, same event.
    fn repair_record(&self) -> RepairRecord {
        RepairRecord {
            code: self.finding.code,
            strategy: self.fix.strategy(),
            event: self.finding.event,
            detail: self.fix.to_string(),
        }
    }
}

fn report_of(defects: Vec<Defect>) -> LintReport {
    LintReport::from_findings(defects.into_iter().map(|d| d.finding).collect())
}

/// The timeline order of a stream — by timestamp, recording order among
/// equals, the order [`TraceBuilder::finish`] sorts into — as a map from
/// position to recording index. A stream recorded in order (every stream of a
/// built [`Trace`]) is walked as it stands, without a copy.
fn timeline_order(timestamps: &[u64]) -> impl Fn(usize) -> usize {
    let order = sort_permutation(timestamps);
    move |position| match &order {
        Some(order) => order[position] as usize,
        None => position,
    }
}

/// The latest bounded timestamp of the recorded data, ignoring the
/// [`Timestamp::MAX`] sentinel of unclosed intervals. An unclosed interval
/// with no successor on its CPU is closed here.
fn bounded_end(data: &TraceData) -> u64 {
    let mut end = 0u64;
    for pc in &data.per_cpu {
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
    for &e in data.tasks.view().ends() {
        if e != u64::MAX {
            end = end.max(e);
        }
    }
    for c in &data.comm_events {
        end = end.max(c.timestamp.0);
    }
    end
}

/// The one walk: every predicate over timestamps, task ids, node ids and
/// counter values is evaluated here, once, in the method of its stream kind.
struct Walk<'a> {
    data: &'a TraceData,
    defects: Vec<Defect>,
    /// [`bounded_end`], computed when a trailing unclosed interval asks for it.
    trace_end: Option<u64>,
}

/// Walks the whole trace and returns its defects grouped by code in label
/// order; the sort is stable, so within a code the order of the walk stands.
fn detect(data: &TraceData) -> Vec<Defect> {
    let mut walk = Walk {
        data,
        defects: Vec::new(),
        trace_end: None,
    };
    for pc in &data.per_cpu {
        walk.states(pc);
        walk.events(pc);
        for (counter, samples) in pc.sample_streams() {
            walk.samples(pc.cpu(), counter, samples);
        }
    }
    walk.accesses();
    walk.regions();
    walk.comm_events();
    walk.defects.sort_by_key(|d| d.finding.code);
    walk.defects
}

impl Walk<'_> {
    fn flag(&mut self, code: LintCode, event: EventRef, fix: Fix, detail: String) {
        self.defects.push(Defect {
            finding: LintFinding::new(code, event, detail),
            fix,
        });
    }

    /// L001: an item must not be recorded with a timestamp (`cur`) before that of
    /// the item recorded just before it in its stream (`prev`, `None` for the
    /// stream's first item).
    fn recorded_in_order(&mut self, prev: Option<u64>, cur: u64, event: EventRef) {
        if let Some(prev) = prev.filter(|&prev| cur < prev) {
            let detail = format!("timestamp {cur} recorded after {prev}");
            self.flag(
                LintCode::NonMonotonicTimestamps,
                event,
                Fix::Resequence,
                detail,
            );
        }
    }

    /// L003: a task reference must name a registered task (ids are dense).
    fn registered(&mut self, task: Option<TaskId>, event: EventRef, fix: Fix) {
        let n = self.data.tasks.len();
        if let Some(task) = task.filter(|t| t.0 >= n as u64) {
            let detail = format!("references unregistered task {} of {n}", task.0);
            self.flag(LintCode::OrphanTaskRef, event, fix, detail);
        }
    }

    /// L006: a node reference must exist in the topology.
    fn placed(&mut self, node: NumaNodeId, event: EventRef, fix: Fix, what: &str) {
        let topology = &self.data.topology;
        if !topology.contains_node(node) {
            let detail = format!("{what} node {} of {}", node.0, topology.num_nodes());
            self.flag(LintCode::NumaNodeOutOfRange, event, fix, detail);
        }
    }

    fn states(&mut self, pc: &PerCpuEvents) {
        let states = pc.states();
        let (starts, ends) = (states.starts(), states.ends());
        // Intervals are judged in timeline order whatever the recording order:
        // an unsorted stream is L001's finding, not a forest of spurious
        // overlaps.
        let nth = timeline_order(starts);
        let mut tail = 0u64;
        for position in 0..starts.len() {
            let i = nth(position);
            let event = EventRef::State {
                cpu: pc.cpu(),
                index: i,
            };
            self.recorded_in_order(starts[..i].last().copied(), starts[i], event);
            let mut end = ends[i];
            if end == u64::MAX {
                // L002: closed where the CPU's next interval starts — so the
                // successor is never blamed for an overlap — or, for the last
                // one, at the end of the trace.
                end = if position + 1 < starts.len() {
                    starts[nth(position + 1)]
                } else {
                    *self.trace_end.get_or_insert_with(|| bounded_end(self.data))
                };
                let detail = format!("interval starting at {} was never closed", starts[i]);
                self.flag(
                    LintCode::UnclosedInterval,
                    event,
                    Fix::CloseAt(Timestamp(end)),
                    detail,
                );
            }
            self.registered(states.task(i), event, Fix::ClearTask);
            if starts[i] < tail {
                // L004: what the predecessors leave of the interval is kept.
                let fix = if end <= tail {
                    Fix::Drop
                } else {
                    Fix::ClampStart(Timestamp(tail))
                };
                let detail = format!(
                    "interval starts at {} before previous end {tail}",
                    starts[i]
                );
                self.flag(LintCode::OverlappingStates, event, fix, detail);
            }
            tail = tail.max(end);
        }
    }

    fn events(&mut self, pc: &PerCpuEvents) {
        let events = pc.events();
        for i in 0..events.len() {
            let event = EventRef::Event {
                cpu: pc.cpu(),
                index: i,
            };
            let timestamps = events.timestamps();
            self.recorded_in_order(timestamps[..i].last().copied(), timestamps[i], event);
            for task in events.kind(i).task_refs_mut().into_iter().flatten() {
                self.registered(Some(*task), event, Fix::Drop);
            }
        }
    }

    fn samples(&mut self, cpu: CpuId, counter: CounterId, samples: SamplesView<'_>) {
        let (timestamps, values) = (samples.timestamps(), samples.values());
        let at = |index| EventRef::Sample {
            cpu,
            counter,
            index,
        };
        for i in 0..timestamps.len() {
            self.recorded_in_order(timestamps[..i].last().copied(), timestamps[i], at(i));
        }
        let counters = &self.data.counters;
        if !counters.get(counter.0 as usize).is_some_and(|c| c.monotone) {
            return;
        }
        // L005, judged in timeline order so a skewed recording order (L001)
        // does not masquerade as a counter regression: a sample below what the
        // counter already reached is raised to it.
        let mut reached = f64::NEG_INFINITY;
        for i in (0..timestamps.len()).map(timeline_order(timestamps)) {
            if values[i] < reached {
                let detail = format!("monotone counter drops from {reached} to {}", values[i]);
                self.flag(
                    LintCode::CounterDiscontinuity,
                    at(i),
                    Fix::ClampValue(reached),
                    detail,
                );
            }
            reached = reached.max(values[i]);
        }
    }

    fn accesses(&mut self) {
        let accesses = self.data.accesses.view();
        for i in 0..accesses.len() {
            self.registered(
                Some(accesses.task(i)),
                EventRef::Access { index: i },
                Fix::Drop,
            );
        }
    }

    fn regions(&mut self) {
        for (i, r) in self.data.regions.iter().enumerate() {
            if let Some(node) = r.node {
                let event = EventRef::Region { index: i };
                self.placed(node, event, Fix::Unplace, "region placed on");
            }
        }
    }

    fn comm_events(&mut self) {
        let comm = &self.data.comm_events;
        let mut prev = None;
        for (i, c) in comm.iter().enumerate() {
            let event = EventRef::Comm { index: i };
            self.recorded_in_order(prev.replace(c.timestamp.0), c.timestamp.0, event);
            self.registered(c.task, event, Fix::ClearTask);
            for node in [c.src_node, c.dst_node] {
                self.placed(node, event, Fix::Drop, "communication names");
            }
        }
    }
}

/// The stream an event belongs to — the event with its index zeroed — and its
/// index there.
fn locate(mut event: EventRef) -> (EventRef, usize) {
    let index = match &mut event {
        EventRef::State { index, .. }
        | EventRef::Event { index, .. }
        | EventRef::Sample { index, .. }
        | EventRef::Access { index }
        | EventRef::Comm { index }
        | EventRef::Region { index } => std::mem::take(index),
        EventRef::Chunk { .. } => unreachable!("the batch walk anchors nothing to a chunk"),
    };
    (event, index)
}

/// `items` after `fixes`, each applied to the item it names by index: a
/// [`Fix::Drop`] removes the item, every other fix is handed to `patch`.
fn patched<T>(
    items: Vec<T>,
    fixes: &[(usize, Fix)],
    patch: impl Fn(&mut T, Fix),
) -> impl Iterator<Item = T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    for &(index, fix) in fixes {
        match &mut slots[index] {
            slot if fix == Fix::Drop => *slot = None,
            Some(item) => patch(item, fix),
            None => {}
        }
    }
    slots.into_iter().flatten()
}

/// Carries out the fix of every defect, by recording index. The columns have
/// no in-place mutators, so a stream that a fix names is materialised, patched
/// and pushed back; a stream without one is not touched, which is what keeps
/// the repair of a clean trace the identity down to the lanes. Afterwards the
/// builder re-lints clean and [`TraceBuilder::finish`] cannot fail on stream
/// invariants.
fn apply_fixes(data: &mut TraceData, defects: &[Defect]) {
    let mut by_stream: BTreeMap<EventRef, Vec<(usize, Fix)>> = BTreeMap::new();
    for d in defects.iter().filter(|d| d.fix != Fix::Resequence) {
        let (stream, index) = locate(d.finding.event);
        by_stream.entry(stream).or_default().push((index, d.fix));
    }
    for (stream, fixes) in by_stream {
        match stream {
            EventRef::State { cpu, .. } => {
                let states = &mut data.per_cpu[cpu.0 as usize].states;
                let mut rebuilt = StateColumns::new(cpu);
                patched(states.to_vec(), &fixes, |s, fix| match fix {
                    Fix::CloseAt(t) => s.interval.end = t,
                    Fix::ClampStart(t) => s.interval.start = t,
                    Fix::ClearTask => s.task = None,
                    other => unreachable!("no state finding is fixed by {other:?}"),
                })
                .for_each(|s| rebuilt.push(s));
                *states = rebuilt;
            }
            EventRef::Event { cpu, .. } => {
                let events = &mut data.per_cpu[cpu.0 as usize].events;
                let mut rebuilt = EventColumns::new(cpu);
                patched(events.to_vec(), &fixes, |_, _| {}).for_each(|e| rebuilt.push(e));
                *events = rebuilt;
            }
            EventRef::Sample { cpu, counter, .. } => {
                let samples = data.per_cpu[cpu.0 as usize]
                    .samples
                    .get_mut(&counter)
                    .expect("the walk found a defect in this stream");
                let mut rebuilt = SampleColumns::new(counter, cpu);
                patched(samples.to_vec(), &fixes, |s, fix| {
                    if let Fix::ClampValue(v) = fix {
                        s.value = v;
                    }
                })
                .for_each(|s| rebuilt.push(s));
                *samples = rebuilt;
            }
            EventRef::Access { .. } => {
                let mut rebuilt = AccessColumns::new();
                patched(data.accesses.to_vec(), &fixes, |_, _| {}).for_each(|a| rebuilt.push(a));
                data.accesses = rebuilt;
            }
            EventRef::Comm { .. } => {
                // Besides `Drop`, the walk gives a communication event only
                // `ClearTask`, and a region only `Unplace`.
                let comm = std::mem::take(&mut data.comm_events);
                data.comm_events = patched(comm, &fixes, |c, _| c.task = None).collect();
            }
            EventRef::Region { .. } => {
                let regions = std::mem::take(&mut data.regions);
                data.regions = patched(regions, &fixes, |r, _| r.node = None).collect();
            }
            EventRef::Chunk { .. } => unreachable!("see locate"),
        }
    }
}

impl TraceBuilder {
    /// Walks the recorded data and reports every defect found.
    pub fn lint(&self) -> LintReport {
        report_of(detect(&self.data))
    }

    /// Lints the recorded data, then finishes the build.
    ///
    /// In [`LintMode::Strict`], any finding aborts with
    /// [`TraceError::LintFindings`] (a stream recorded out of timestamp order
    /// is `L001`). In [`LintMode::Lenient`], the fix of every finding is
    /// applied and recorded in the report, so a damaged recording still yields
    /// a valid, analysable trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::LintFindings`] in strict mode, plus the errors of
    /// [`TraceBuilder::finish`] for defects outside the lint classes (unknown
    /// task types, invalid task intervals).
    pub fn finish_lint(mut self, mode: LintMode) -> Result<AnnotatedTrace, TraceError> {
        let defects = detect(&self.data);
        if mode == LintMode::Strict && !defects.is_empty() {
            let report = report_of(defects);
            return Err(TraceError::LintFindings(report.summary().clone()));
        }
        let repairs: Vec<RepairRecord> = defects.iter().map(Defect::repair_record).collect();
        apply_fixes(&mut self.data, &defects);
        let mut report = report_of(defects);
        repairs.into_iter().for_each(|r| report.push_repair(r));
        Ok(AnnotatedTrace::new(self.finish()?, report))
    }
}

impl Trace {
    /// Walks the built trace and reports every defect found.
    ///
    /// Built traces are sorted and non-overlapping by construction, so only
    /// defects that survive [`TraceBuilder::finish`] can appear here: unclosed
    /// trailing intervals, orphan task references, counter discontinuities and
    /// out-of-range NUMA nodes.
    pub fn lint(&self) -> LintReport {
        report_of(detect(self.data()))
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
    use crate::event::{CommEvent, CommKind, DiscreteEventKind};
    use crate::ids::TimeInterval;
    use crate::memory::AccessKind;
    use crate::state::WorkerState;
    use crate::topology::MachineTopology;

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
        // An unclosed interval, and a stream recorded out of timestamp order
        // (which plain `finish` would silently sort).
        let inputs = [
            (Timestamp(80), Timestamp::MAX, LintCode::UnclosedInterval),
            (
                Timestamp(0),
                Timestamp(20),
                LintCode::NonMonotonicTimestamps,
            ),
        ];
        for (start, end, code) in inputs {
            let mut b = clean_builder();
            b.add_state(CpuId(1), WorkerState::Synchronization, start, end, None)
                .unwrap();
            match b.finish_lint(LintMode::Strict) {
                Err(TraceError::LintFindings(summary)) => {
                    assert_eq!(summary.count(code), 1);
                    assert_eq!(summary.total(), 1);
                    assert!(summary.to_string().contains(&code.label()[..4]));
                }
                other => panic!("expected LintFindings, got {other:?}"),
            }
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
        let codes_for = |cpu, index| -> Vec<LintCode> {
            let event = EventRef::State { cpu, index };
            let at = report.findings().iter().filter(|f| f.event == event);
            at.map(|f| f.code).collect()
        };
        assert_eq!(
            codes_for(CpuId(1), 1),
            vec![LintCode::UnclosedInterval, LintCode::OrphanTaskRef]
        );
        assert!(codes_for(CpuId(0), 0).is_empty());
    }

    #[test]
    fn every_repair_names_the_event_its_finding_names() {
        // All six batch defect classes at once, CPU 0 recorded out of order:
        // its orphan-task state comes first in the recording and last on the
        // timeline, so recording indices and sorted positions differ.
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("work", 0x1000);
        let t0 = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(0), Timestamp(40));
        let state = |b: &mut TraceBuilder, start, end, task| {
            b.add_state(CpuId(0), WorkerState::TaskExecution, start, end, task)
                .unwrap()
        };
        state(&mut b, Timestamp(100), Timestamp(150), Some(TaskId(77))); // L003
        state(&mut b, Timestamp(0), Timestamp(40), Some(t0)); // L001
        state(&mut b, Timestamp(30), Timestamp(60), None); // L004
        state(&mut b, Timestamp(70), Timestamp::MAX, None); // L002
        let ctr = b.add_counter("cache-misses", true);
        b.add_sample(ctr, CpuId(0), Timestamp(10), 9.0).unwrap();
        b.add_sample(ctr, CpuId(0), Timestamp(20), 4.0).unwrap(); // L005
        b.add_region(0x4000, 0x100, Some(NumaNodeId(7))); // L006

        let report = b.lint();
        let found: Vec<_> = report
            .findings()
            .iter()
            .map(|f| (f.code, f.event))
            .collect();
        let at = |index| EventRef::State {
            cpu: CpuId(0),
            index,
        };
        assert_eq!(
            found[..4],
            [
                (LintCode::NonMonotonicTimestamps, at(1)),
                (LintCode::UnclosedInterval, at(3)),
                (LintCode::OrphanTaskRef, at(0)),
                (LintCode::OverlappingStates, at(2)),
            ]
        );
        assert_eq!(report.summary().total(), 6);
        assert!(LintCode::ALL[..6]
            .iter()
            .all(|&c| report.summary().count(c) == 1));

        let annotated = b.finish_lint(LintMode::Lenient).unwrap();
        assert_eq!(annotated.report().findings(), report.findings());
        let repaired: Vec<_> = annotated
            .report()
            .repairs()
            .iter()
            .map(|r| (r.code, r.event))
            .collect();
        assert_eq!(repaired, found, "one record per finding, same coordinates");
        let states = annotated.trace().cpu(CpuId(0)).unwrap().states();
        let intervals: Vec<_> = states.iter().map(|s| (s.interval, s.task)).collect();
        assert_eq!(
            intervals,
            vec![
                (TimeInterval::from_cycles(0, 40), Some(t0)),
                (TimeInterval::from_cycles(40, 60), None),
                (TimeInterval::from_cycles(70, 100), None),
                (TimeInterval::from_cycles(100, 150), None),
            ]
        );
        assert!(annotated.trace().lint().is_clean());
    }
}
