//! Columnar (struct-of-arrays) storage for the three per-CPU event streams.
//!
//! The analysis hot paths — session construction, index/pyramid builds, anomaly
//! detection, timeline scans — iterate millions of events but touch only one or two
//! fields per event. The array-of-structs containers ([`StateInterval`] is 40 bytes,
//! [`DiscreteEvent`] 48, [`CounterSample`] 24, padding included) waste most of the
//! cache bandwidth of such walks. This module stores each stream as parallel typed
//! columns instead:
//!
//! * [`StateColumns`] — interval starts and ends (`u64` each), the worker state as
//!   one byte and the optional task reference in a width-compacted id column
//!   ([`TaskRefColumn`]: 4 bytes per event while every id fits in 32 bits),
//! * [`EventColumns`] — timestamps, a one-byte kind tag and up to three `u64`
//!   payload lanes, of which the second and third are only materialised when some
//!   event in the stream actually uses them,
//! * [`SampleColumns`] — timestamps and values; the counter id and CPU are stream
//!   constants and stored once instead of per sample.
//!
//! Every store hands out a zero-copy **view** ([`StatesView`], [`EventsView`],
//! [`SamplesView`]): a bundle of column slices that is `Copy`, can be re-sliced to
//! a sub-range without materialising anything, exposes the raw columns for
//! column-wise loops (e.g. binary searches over bare `&[u64]` timestamps) and
//! materialises single structs on demand (`get`) for code that wants whole events.
//! The materialising adapters (`to_vec`, iterators of owned structs) reproduce the
//! exact structs a pre-columnar trace stored, which is what the equivalence suite
//! pins down.
//!
//! Sorting is permutation-based: keys are sorted as `(timestamp, insertion index)`
//! with an unstable sort — the explicit tie-break makes the order total, so the
//! result is identical to the stable timestamp sort the array-of-structs builder
//! used — and each column is then gathered once, which moves 8-byte lanes instead
//! of 40-byte structs.

use crate::event::{CounterSample, DiscreteEvent, DiscreteEventKind};
use crate::ids::{CounterId, CpuId, TaskId, TimeInterval, Timestamp};
use crate::memory::{AccessKind, MemoryAccess};
use crate::state::{StateInterval, WorkerState};

// ---------------------------------------------------------------------------
// Sorting helpers (shared by all column stores)
// ---------------------------------------------------------------------------

/// The permutation that sorts `keys` by `(key, index)` — equivalent to a stable
/// sort by key — or `None` when the keys are already sorted (identity).
pub(crate) fn sort_permutation(keys: &[u64]) -> Option<Vec<u32>> {
    sort_permutation_by_key(keys.len(), |i| keys[i])
}

/// Like [`sort_permutation`], with the keys produced by `key` (for columns whose
/// sort key is not a plain `u64` lane, e.g. the width-compacted id columns).
fn sort_permutation_by_key(len: usize, key: impl Fn(usize) -> u64) -> Option<Vec<u32>> {
    if (1..len).all(|i| key(i - 1) <= key(i)) {
        return None;
    }
    assert!(
        len <= u32::MAX as usize,
        "event streams beyond 2^32 entries are not supported"
    );
    let mut perm: Vec<u32> = (0..len as u32).collect();
    perm.sort_unstable_by(|&i, &j| {
        key(i as usize)
            .cmp(&key(j as usize))
            .then_with(|| i.cmp(&j))
    });
    Some(perm)
}

/// Gathers `src` through `perm` (`out[i] = src[perm[i]]`).
fn gather<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&i| src[i as usize]).collect()
}

// ---------------------------------------------------------------------------
// Task-reference column (compact id widths)
// ---------------------------------------------------------------------------

/// A column of `Option<TaskId>` values with compact id widths.
///
/// Values are stored biased by one (`0` = no task, `id + 1` = task `id`) in a
/// `u32` lane while every id fits, widening to `u64` automatically on the first
/// id that does not. Widening is monotone and depends only on the ids pushed, so
/// any two construction orders of the same stream end in the same width.
#[derive(Debug, Clone)]
pub enum TaskRefColumn {
    /// All encoded values fit in 32 bits (4 bytes per event).
    Narrow(Vec<u32>),
    /// At least one id needed the full 64-bit lane.
    Wide(Vec<u64>),
}

impl Default for TaskRefColumn {
    fn default() -> Self {
        TaskRefColumn::Narrow(Vec::new())
    }
}

impl TaskRefColumn {
    /// Creates an empty (narrow) column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            TaskRefColumn::Narrow(v) => v.len(),
            TaskRefColumn::Wide(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty (narrow) column with room for exactly `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TaskRefColumn::Narrow(Vec::with_capacity(capacity))
    }

    /// Appends one optional task reference.
    pub fn push(&mut self, task: Option<TaskId>) {
        self.push_biased(match task {
            None => 0u64,
            Some(id) => id.0.checked_add(1).expect("TaskId::MAX is unrepresentable"),
        });
    }

    /// Appends one already biased reference (`0` = no task, `id + 1` = task
    /// `id`) — what the column store's blocks hold. The column widens, keeping
    /// the room it was given, on the first reference that needs 64 bits.
    pub(crate) fn push_biased(&mut self, biased: u64) {
        match self {
            TaskRefColumn::Narrow(v) => {
                if let Ok(narrow) = u32::try_from(biased) {
                    v.push(narrow);
                } else {
                    let mut wide = Vec::with_capacity(v.capacity().max(v.len() + 1));
                    wide.extend(v.iter().map(|&x| u64::from(x)));
                    wide.push(biased);
                    *self = TaskRefColumn::Wide(wide);
                }
            }
            TaskRefColumn::Wide(v) => v.push(biased),
        }
    }

    /// Appends already biased references, as [`TaskRefColumn::push_biased`]
    /// one by one would: in one pass while every one fits the narrow lane.
    pub(crate) fn extend_biased(&mut self, biased: &[u64]) {
        match self {
            TaskRefColumn::Narrow(v) if biased.iter().all(|&b| b <= u64::from(u32::MAX)) => {
                v.extend(biased.iter().map(|&b| b as u32));
            }
            TaskRefColumn::Wide(v) => v.extend_from_slice(biased),
            TaskRefColumn::Narrow(_) => biased.iter().for_each(|&b| self.push_biased(b)),
        }
    }

    /// The entry at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TaskId> {
        self.view().get(i)
    }

    /// A zero-copy view of the column.
    #[inline]
    pub fn view(&self) -> TaskRefView<'_> {
        match self {
            TaskRefColumn::Narrow(v) => TaskRefView::Narrow(v),
            TaskRefColumn::Wide(v) => TaskRefView::Wide(v),
        }
    }

    /// Rewrites every present task id through `f` (used by the streaming layer's
    /// id canonicalization). The column re-compacts from scratch, so a remap that
    /// shrinks the id space also shrinks the storage.
    pub fn map_ids(&mut self, mut f: impl FnMut(TaskId) -> TaskId) {
        let mut out = TaskRefColumn::new();
        for i in 0..self.len() {
            out.push(self.get(i).map(&mut f));
        }
        *self = out;
    }

    fn gathered(&self, perm: &[u32]) -> TaskRefColumn {
        match self {
            TaskRefColumn::Narrow(v) => TaskRefColumn::Narrow(gather(v, perm)),
            TaskRefColumn::Wide(v) => TaskRefColumn::Wide(gather(v, perm)),
        }
    }

    /// The biased raw encoding of entry `i` (order-preserving in the task id, with
    /// "no task" sorting first) — the sort key of task-ordered columns.
    fn raw(&self, i: usize) -> u64 {
        match self {
            TaskRefColumn::Narrow(v) => v[i] as u64,
            TaskRefColumn::Wide(v) => v[i],
        }
    }

    /// Bytes of heap storage used by the column (allocated capacity, so the
    /// number matches what is actually resident).
    pub fn memory_bytes(&self) -> usize {
        match self {
            TaskRefColumn::Narrow(v) => v.capacity() * std::mem::size_of::<u32>(),
            TaskRefColumn::Wide(v) => v.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Releases push-growth capacity slack.
    pub fn shrink_to_fit(&mut self) {
        match self {
            TaskRefColumn::Narrow(v) => v.shrink_to_fit(),
            TaskRefColumn::Wide(v) => v.shrink_to_fit(),
        }
    }
}

impl PartialEq for TaskRefColumn {
    /// Logical equality: two columns are equal when they store the same task
    /// references, regardless of lane width.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (TaskRefColumn::Narrow(a), TaskRefColumn::Narrow(b)) => a == b,
            (TaskRefColumn::Wide(a), TaskRefColumn::Wide(b)) => a == b,
            (a, b) => (0..a.len()).all(|i| a.get(i) == b.get(i)),
        }
    }
}

/// Zero-copy view of a [`TaskRefColumn`].
#[derive(Debug, Clone, Copy)]
pub enum TaskRefView<'a> {
    /// Narrow (32-bit) lane.
    Narrow(&'a [u32]),
    /// Wide (64-bit) lane.
    Wide(&'a [u64]),
}

impl<'a> TaskRefView<'a> {
    /// An empty view.
    pub const EMPTY: TaskRefView<'static> = TaskRefView::Narrow(&[]);

    /// The entry at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TaskId> {
        let encoded = match self {
            TaskRefView::Narrow(v) => v[i] as u64,
            TaskRefView::Wide(v) => v[i],
        };
        encoded.checked_sub(1).map(TaskId)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TaskRefView::Narrow(v) => v.len(),
            TaskRefView::Wide(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sub-view over `[lo, hi)`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> TaskRefView<'a> {
        match self {
            TaskRefView::Narrow(v) => TaskRefView::Narrow(&v[lo..hi]),
            TaskRefView::Wide(v) => TaskRefView::Wide(&v[lo..hi]),
        }
    }
}

// ---------------------------------------------------------------------------
// State columns
// ---------------------------------------------------------------------------

/// Columnar storage of one CPU's state-interval stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateColumns {
    cpu: CpuId,
    starts: Vec<u64>,
    ends: Vec<u64>,
    states: Vec<u8>,
    tasks: TaskRefColumn,
}

impl StateColumns {
    /// Creates an empty store for `cpu`.
    pub fn new(cpu: CpuId) -> Self {
        StateColumns {
            cpu,
            ..Default::default()
        }
    }

    /// An empty store for `cpu` with room for exactly `rows` intervals: the
    /// column store ([`crate::store`]) allocates a lane once, at the row
    /// count its directory records.
    pub(crate) fn with_capacity(cpu: CpuId, rows: usize) -> Self {
        StateColumns {
            cpu,
            starts: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            states: Vec::with_capacity(rows),
            tasks: TaskRefColumn::with_capacity(rows),
        }
    }

    /// The raw columns — starts and ends, state tags, task references — for
    /// the column store's block decoders, which append a block's worth to
    /// each: all four must end equally long and the tags be valid
    /// [`WorkerState`] discriminants.
    pub(crate) fn columns_mut(&mut self) -> ([&mut Vec<u64>; 2], &mut Vec<u8>, &mut TaskRefColumn) {
        (
            [&mut self.starts, &mut self.ends],
            &mut self.states,
            &mut self.tasks,
        )
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Appends one interval. The interval's CPU must match the stream's.
    pub fn push(&mut self, s: StateInterval) {
        debug_assert_eq!(s.cpu, self.cpu, "interval pushed onto the wrong stream");
        self.starts.push(s.interval.start.0);
        self.ends.push(s.interval.end.0);
        self.states.push(s.state as u8);
        self.tasks.push(s.task);
    }

    /// A zero-copy view of the whole stream.
    #[inline]
    pub fn view(&self) -> StatesView<'_> {
        StatesView {
            cpu: self.cpu,
            starts: &self.starts,
            ends: &self.ends,
            states: &self.states,
            tasks: self.tasks.view(),
        }
    }

    /// The interval at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> StateInterval {
        self.view().get(i)
    }

    /// Materialising adapter: the stream as owned structs, byte-identical to what
    /// the pre-columnar representation stored.
    pub fn to_vec(&self) -> Vec<StateInterval> {
        self.view().iter().collect()
    }

    /// Sorts the stream by `(start, insertion index)` — identical to a stable sort
    /// by interval start. No-op (and no allocation) when already sorted.
    pub fn sort_by_start(&mut self) {
        if let Some(perm) = sort_permutation(&self.starts) {
            self.starts = gather(&self.starts, &perm);
            self.ends = gather(&self.ends, &perm);
            self.states = gather(&self.states, &perm);
            self.tasks = self.tasks.gathered(&perm);
        }
    }

    /// Rewrites every present task reference through `f`.
    pub fn map_tasks(&mut self, f: impl FnMut(TaskId) -> TaskId) {
        self.tasks.map_ids(f);
    }

    /// Bytes of heap storage used by the columns (allocated capacity, so the
    /// number matches what is actually resident).
    pub fn memory_bytes(&self) -> usize {
        (self.starts.capacity() + self.ends.capacity()) * std::mem::size_of::<u64>()
            + self.states.capacity()
            + self.tasks.memory_bytes()
    }

    /// Releases push-growth capacity slack (called once a batch build is final;
    /// growing streaming streams keep their amortisation slack).
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.states.shrink_to_fit();
        self.tasks.shrink_to_fit();
    }
}

/// Zero-copy view over (a sub-range of) a state stream.
///
/// Cheap to copy and re-slice; exposes both whole materialised intervals
/// ([`get`](Self::get), iteration) and the raw columns for column-wise loops.
#[derive(Debug, Clone, Copy)]
pub struct StatesView<'a> {
    cpu: CpuId,
    starts: &'a [u64],
    ends: &'a [u64],
    states: &'a [u8],
    tasks: TaskRefView<'a>,
}

impl<'a> StatesView<'a> {
    /// An empty view attributed to `cpu` (what queries for unknown CPUs return).
    pub fn empty(cpu: CpuId) -> StatesView<'static> {
        StatesView {
            cpu,
            starts: &[],
            ends: &[],
            states: &[],
            tasks: TaskRefView::EMPTY,
        }
    }

    /// The CPU the stream belongs to.
    #[inline]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Number of intervals in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Raw start-timestamp column (cycles).
    #[inline]
    pub fn starts(&self) -> &'a [u64] {
        self.starts
    }

    /// Raw end-timestamp column (cycles).
    #[inline]
    pub fn ends(&self) -> &'a [u64] {
        self.ends
    }

    /// Interval start in cycles.
    #[inline]
    pub fn start_cycles(&self, i: usize) -> u64 {
        self.starts[i]
    }

    /// Interval end in cycles.
    #[inline]
    pub fn end_cycles(&self, i: usize) -> u64 {
        self.ends[i]
    }

    /// The interval's time span.
    #[inline]
    pub fn interval(&self, i: usize) -> TimeInterval {
        TimeInterval::from_cycles(self.starts[i], self.ends[i])
    }

    /// Duration of interval `i` in cycles.
    #[inline]
    pub fn duration(&self, i: usize) -> u64 {
        self.ends[i].saturating_sub(self.starts[i])
    }

    /// The worker state's raw discriminant (usable as an array index).
    #[inline]
    pub fn state_index(&self, i: usize) -> usize {
        self.states[i] as usize
    }

    /// Raw one-byte state-tag column (each byte is a [`WorkerState`] discriminant).
    ///
    /// This is the lane wide kernels gate on: a contiguous `&[u8]` slice aligned
    /// with [`starts`](Self::starts)/[`ends`](Self::ends), so selection and
    /// histogram accumulation can compare sixteen-plus tags per instruction.
    #[inline]
    pub fn state_tags(&self) -> &'a [u8] {
        self.states
    }

    /// The worker state of interval `i`.
    #[inline]
    pub fn state(&self, i: usize) -> WorkerState {
        WorkerState::from_index(self.states[i] as usize).expect("column stores valid states")
    }

    /// Whether interval `i` is a task execution.
    #[inline]
    pub fn is_exec(&self, i: usize) -> bool {
        self.states[i] == WorkerState::TaskExecution as u8
    }

    /// The task executed during interval `i`, if any.
    #[inline]
    pub fn task(&self, i: usize) -> Option<TaskId> {
        self.tasks.get(i)
    }

    /// The interval at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> StateInterval {
        StateInterval::new(self.cpu, self.state(i), self.interval(i), self.task(i))
    }

    /// The first interval, if any.
    pub fn first(&self) -> Option<StateInterval> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The last interval, if any.
    pub fn last(&self) -> Option<StateInterval> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// The sub-view over intervals `[lo, hi)`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> StatesView<'a> {
        StatesView {
            cpu: self.cpu,
            starts: &self.starts[lo..hi],
            ends: &self.ends[lo..hi],
            states: &self.states[lo..hi],
            tasks: self.tasks.slice(lo, hi),
        }
    }

    /// Iterates the view as materialised intervals.
    pub fn iter(&self) -> StatesIter<'a> {
        StatesIter {
            view: *self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for StatesView<'a> {
    type Item = StateInterval;
    type IntoIter = StatesIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator of materialised [`StateInterval`]s over a [`StatesView`].
#[derive(Debug, Clone)]
pub struct StatesIter<'a> {
    view: StatesView<'a>,
    next: usize,
}

impl Iterator for StatesIter<'_> {
    type Item = StateInterval;

    fn next(&mut self) -> Option<StateInterval> {
        if self.next >= self.view.len() {
            return None;
        }
        let item = self.view.get(self.next);
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.view.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for StatesIter<'_> {}

// ---------------------------------------------------------------------------
// Discrete-event columns
// ---------------------------------------------------------------------------

/// Kind tags of a discrete event — the one table: the tag lane of
/// [`EventColumns`], the store's event blocks and the trace format's event
/// section all hold these values, through [`encode_kind`], [`decode_kind`] and
/// [`kind_arity`].
mod tag {
    pub const TASK_CREATE: u8 = 0;
    pub const TASK_READY: u8 = 1;
    pub const TASK_COMPLETE: u8 = 2;
    pub const STEAL_ATTEMPT: u8 = 3;
    pub const STEAL_SUCCESS: u8 = 4;
    pub const DATA_PUBLISH: u8 = 5;
    pub const MARKER: u8 = 6;
}

/// Encodes a kind into `(tag, payload_a, payload_b, payload_c)`. Crate-visible
/// so the column store ([`crate::store`]) and the trace format
/// ([`crate::format`]) write the exact lane representation.
pub(crate) fn encode_kind(kind: DiscreteEventKind) -> (u8, u64, u64, u64) {
    match kind {
        DiscreteEventKind::TaskCreate { task } => (tag::TASK_CREATE, task.0, 0, 0),
        DiscreteEventKind::TaskReady { task } => (tag::TASK_READY, task.0, 0, 0),
        DiscreteEventKind::TaskComplete { task } => (tag::TASK_COMPLETE, task.0, 0, 0),
        DiscreteEventKind::StealAttempt { victim } => (tag::STEAL_ATTEMPT, victim.0 as u64, 0, 0),
        DiscreteEventKind::StealSuccess { victim, task } => {
            (tag::STEAL_SUCCESS, victim.0 as u64, task.0, 0)
        }
        DiscreteEventKind::DataPublish {
            producer,
            consumer,
            bytes,
        } => (tag::DATA_PUBLISH, producer.0, consumer.0, bytes),
        DiscreteEventKind::Marker { code } => (tag::MARKER, code as u64, 0, 0),
    }
}

/// Payload fields the kind with this tag carries (the leading ones of
/// [`encode_kind`]'s three; the rest are zero), `None` for a tag no kind has.
#[inline]
pub(crate) fn kind_arity(tag_value: u8) -> Option<usize> {
    match tag_value {
        tag::TASK_CREATE
        | tag::TASK_READY
        | tag::TASK_COMPLETE
        | tag::STEAL_ATTEMPT
        | tag::MARKER => Some(1),
        tag::STEAL_SUCCESS => Some(2),
        tag::DATA_PUBLISH => Some(3),
        _ => None,
    }
}

/// Decodes `(tag, a, b, c)` back into the kind; the tag is one
/// [`kind_arity`] knows. Crate-visible for the block and section decoders.
pub(crate) fn decode_kind(tag_value: u8, a: u64, b: u64, c: u64) -> DiscreteEventKind {
    match tag_value {
        tag::TASK_CREATE => DiscreteEventKind::TaskCreate { task: TaskId(a) },
        tag::TASK_READY => DiscreteEventKind::TaskReady { task: TaskId(a) },
        tag::TASK_COMPLETE => DiscreteEventKind::TaskComplete { task: TaskId(a) },
        tag::STEAL_ATTEMPT => DiscreteEventKind::StealAttempt {
            victim: CpuId(a as u32),
        },
        tag::STEAL_SUCCESS => DiscreteEventKind::StealSuccess {
            victim: CpuId(a as u32),
            task: TaskId(b),
        },
        tag::DATA_PUBLISH => DiscreteEventKind::DataPublish {
            producer: TaskId(a),
            consumer: TaskId(b),
            bytes: c,
        },
        tag::MARKER => DiscreteEventKind::Marker { code: a as u32 },
        other => unreachable!("column stores valid event tags, found {other}"),
    }
}

/// Columnar storage of one CPU's discrete-event stream.
///
/// The second and third payload lanes are only materialised once an event
/// actually carries a non-zero value there (most traces never record a
/// [`DiscreteEventKind::DataPublish`], which is the only three-field kind);
/// absent lanes read as zero.
#[derive(Debug, Clone, Default)]
pub struct EventColumns {
    cpu: CpuId,
    timestamps: Vec<u64>,
    tags: Vec<u8>,
    payload_a: Vec<u64>,
    payload_b: Vec<u64>,
    payload_c: Vec<u64>,
}

impl EventColumns {
    /// Creates an empty store for `cpu`.
    pub fn new(cpu: CpuId) -> Self {
        EventColumns {
            cpu,
            ..Default::default()
        }
    }

    /// An empty store for `cpu` with room for exactly `rows` events (see
    /// [`StateColumns::with_capacity`]); the lazy payload lanes stay absent.
    pub(crate) fn with_capacity(cpu: CpuId, rows: usize) -> Self {
        EventColumns {
            cpu,
            timestamps: Vec::with_capacity(rows),
            tags: Vec::with_capacity(rows),
            payload_a: Vec::with_capacity(rows),
            ..Default::default()
        }
    }

    /// The raw columns — timestamps, kind tags, first payload and the two
    /// lazy payload lanes — for the column store's block decoders: the first
    /// three must end equally long and the tags be valid kind tags; the lazy
    /// lanes grow through [`extend_lazy`] only.
    pub(crate) fn columns_mut(&mut self) -> (&mut Vec<u64>, &mut Vec<u8>, [&mut Vec<u64>; 3]) {
        (
            &mut self.timestamps,
            &mut self.tags,
            [
                &mut self.payload_a,
                &mut self.payload_b,
                &mut self.payload_c,
            ],
        )
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Appends one event. The event's CPU must match the stream's.
    pub fn push(&mut self, e: DiscreteEvent) {
        debug_assert_eq!(e.cpu, self.cpu, "event pushed onto the wrong stream");
        let (tag, a, b, c) = encode_kind(e.kind);
        let prior = self.timestamps.len();
        self.timestamps.push(e.timestamp.0);
        self.tags.push(tag);
        self.payload_a.push(a);
        extend_lazy(&mut self.payload_b, prior, &[b], 0);
        extend_lazy(&mut self.payload_c, prior, &[c], 0);
    }

    /// A zero-copy view of the whole stream.
    #[inline]
    pub fn view(&self) -> EventsView<'_> {
        EventsView {
            cpu: self.cpu,
            timestamps: &self.timestamps,
            tags: &self.tags,
            payload_a: &self.payload_a,
            payload_b: &self.payload_b,
            payload_c: &self.payload_c,
        }
    }

    /// The event at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> DiscreteEvent {
        self.view().get(i)
    }

    /// Materialising adapter: the stream as owned structs.
    pub fn to_vec(&self) -> Vec<DiscreteEvent> {
        self.view().iter().collect()
    }

    /// Sorts the stream by `(timestamp, insertion index)` — identical to a stable
    /// timestamp sort. No-op when already sorted.
    pub fn sort_by_timestamp(&mut self) {
        if let Some(perm) = sort_permutation(&self.timestamps) {
            self.timestamps = gather(&self.timestamps, &perm);
            self.tags = gather(&self.tags, &perm);
            self.payload_a = gather(&self.payload_a, &perm);
            if !self.payload_b.is_empty() {
                self.payload_b = gather(&self.payload_b, &perm);
            }
            if !self.payload_c.is_empty() {
                self.payload_c = gather(&self.payload_c, &perm);
            }
        }
    }

    /// Rewrites every task reference in the payloads through `f` (the streaming
    /// layer's id canonicalization; cold path, so this simply re-encodes).
    pub fn map_tasks(&mut self, mut f: impl FnMut(TaskId) -> TaskId) {
        let mut out = EventColumns::new(self.cpu);
        for mut e in self.view().iter() {
            for task in e.kind.task_refs_mut().into_iter().flatten() {
                *task = f(*task);
            }
            out.push(e);
        }
        *self = out;
    }

    /// Bytes of heap storage used by the columns (allocated capacity, so the
    /// number matches what is actually resident).
    pub fn memory_bytes(&self) -> usize {
        (self.timestamps.capacity()
            + self.payload_a.capacity()
            + self.payload_b.capacity()
            + self.payload_c.capacity())
            * std::mem::size_of::<u64>()
            + self.tags.capacity()
    }

    /// Releases push-growth capacity slack.
    pub fn shrink_to_fit(&mut self) {
        self.timestamps.shrink_to_fit();
        self.tags.shrink_to_fit();
        self.payload_a.shrink_to_fit();
        self.payload_b.shrink_to_fit();
        self.payload_c.shrink_to_fit();
    }
}

impl PartialEq for EventColumns {
    /// Logical equality: lazily materialised payload lanes compare equal to
    /// all-zero lanes.
    fn eq(&self, other: &Self) -> bool {
        self.cpu == other.cpu
            && self.timestamps == other.timestamps
            && self.tags == other.tags
            && self.payload_a == other.payload_a
            && lazy_lane_eq(&self.payload_b, &other.payload_b, self.len())
            && lazy_lane_eq(&self.payload_c, &other.payload_c, self.len())
    }
}

/// Appends `values` to a lazily materialised lane that stands for `prior`
/// entries (absent = all zero). The lane stays absent while every entry is
/// zero; when it materialises it is given room for `capacity` entries — the
/// stream's final length where the caller knows it, `0` where it grows by
/// pushes.
pub(crate) fn extend_lazy(lane: &mut Vec<u64>, prior: usize, values: &[u64], capacity: usize) {
    if values.iter().any(|&v| v != 0) {
        if lane.is_empty() {
            lane.reserve_exact(capacity.max(prior + values.len()));
            lane.resize(prior, 0);
        }
        lane.extend_from_slice(values);
    } else if !lane.is_empty() {
        lane.resize(prior + values.len(), 0);
    }
}

/// Equality of two lazily materialised lanes of logical length `len`.
fn lazy_lane_eq(a: &[u64], b: &[u64], len: usize) -> bool {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => true,
        (false, false) => a == b,
        (true, false) => b[..len].iter().all(|&v| v == 0),
        (false, true) => a[..len].iter().all(|&v| v == 0),
    }
}

/// Zero-copy view over (a sub-range of) a discrete-event stream.
#[derive(Debug, Clone, Copy)]
pub struct EventsView<'a> {
    cpu: CpuId,
    timestamps: &'a [u64],
    tags: &'a [u8],
    payload_a: &'a [u64],
    payload_b: &'a [u64],
    payload_c: &'a [u64],
}

impl<'a> EventsView<'a> {
    /// An empty view attributed to `cpu`.
    pub fn empty(cpu: CpuId) -> EventsView<'static> {
        EventsView {
            cpu,
            timestamps: &[],
            tags: &[],
            payload_a: &[],
            payload_b: &[],
            payload_c: &[],
        }
    }

    /// The CPU the stream belongs to.
    #[inline]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Number of events in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Raw timestamp column (cycles).
    #[inline]
    pub fn timestamps(&self) -> &'a [u64] {
        self.timestamps
    }

    /// The timestamp of event `i`.
    #[inline]
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp(self.timestamps[i])
    }

    /// The raw kind columns — tags and the three payload lanes, an absent lazy
    /// lane empty — for the column store's block encoder.
    pub(crate) fn kind_columns(&self) -> (&'a [u8], [&'a [u64]; 3]) {
        (self.tags, [self.payload_a, self.payload_b, self.payload_c])
    }

    /// The kind of event `i`, materialised.
    #[inline]
    pub fn kind(&self, i: usize) -> DiscreteEventKind {
        decode_kind(
            self.tags[i],
            self.payload_a[i],
            self.payload_b.get(i).copied().unwrap_or(0),
            self.payload_c.get(i).copied().unwrap_or(0),
        )
    }

    /// The event at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> DiscreteEvent {
        DiscreteEvent::new(self.cpu, self.timestamp(i), self.kind(i))
    }

    /// The last event, if any.
    pub fn last(&self) -> Option<DiscreteEvent> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// The sub-view over events `[lo, hi)`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> EventsView<'a> {
        EventsView {
            cpu: self.cpu,
            timestamps: &self.timestamps[lo..hi],
            tags: &self.tags[lo..hi],
            payload_a: &self.payload_a[lo..hi],
            payload_b: slice_lazy(self.payload_b, lo, hi),
            payload_c: slice_lazy(self.payload_c, lo, hi),
        }
    }

    /// Iterates the view as materialised events.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DiscreteEvent> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

/// Slices a lazily materialised lane (absent lanes stay absent).
fn slice_lazy(lane: &[u64], lo: usize, hi: usize) -> &[u64] {
    if lane.is_empty() {
        lane
    } else {
        &lane[lo..hi]
    }
}

// ---------------------------------------------------------------------------
// Counter-sample columns
// ---------------------------------------------------------------------------

/// Columnar storage of one `(CPU, counter)` sample stream.
///
/// The counter id and CPU are constant across the stream and stored once; each
/// sample costs 16 bytes (timestamp + value) instead of the 24-byte struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleColumns {
    counter: CounterId,
    cpu: CpuId,
    timestamps: Vec<u64>,
    values: Vec<f64>,
}

impl SampleColumns {
    /// Creates an empty store for one `(counter, cpu)` stream.
    pub fn new(counter: CounterId, cpu: CpuId) -> Self {
        SampleColumns {
            counter,
            cpu,
            ..Default::default()
        }
    }

    /// An empty store for one `(counter, cpu)` stream with room for exactly
    /// `rows` samples (see [`StateColumns::with_capacity`]).
    pub(crate) fn with_capacity(counter: CounterId, cpu: CpuId, rows: usize) -> Self {
        SampleColumns {
            counter,
            cpu,
            timestamps: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows),
        }
    }

    /// The raw columns — timestamps, values — for the column store's block
    /// decoders; both must end equally long.
    pub(crate) fn columns_mut(&mut self) -> (&mut Vec<u64>, &mut Vec<f64>) {
        (&mut self.timestamps, &mut self.values)
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Appends one sample. The sample's ids must match the stream's.
    pub fn push(&mut self, s: CounterSample) {
        debug_assert_eq!(s.counter, self.counter, "sample pushed onto wrong stream");
        debug_assert_eq!(s.cpu, self.cpu, "sample pushed onto wrong stream");
        self.timestamps.push(s.timestamp.0);
        self.values.push(s.value);
    }

    /// A zero-copy view of the whole stream.
    #[inline]
    pub fn view(&self) -> SamplesView<'_> {
        SamplesView {
            counter: self.counter,
            cpu: self.cpu,
            timestamps: &self.timestamps,
            values: &self.values,
        }
    }

    /// The sample at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> CounterSample {
        self.view().get(i)
    }

    /// Materialising adapter: the stream as owned structs.
    pub fn to_vec(&self) -> Vec<CounterSample> {
        self.view().iter().collect()
    }

    /// Sorts the stream by `(timestamp, insertion index)` — identical to a stable
    /// timestamp sort. No-op when already sorted.
    pub fn sort_by_timestamp(&mut self) {
        if let Some(perm) = sort_permutation(&self.timestamps) {
            self.timestamps = gather(&self.timestamps, &perm);
            self.values = gather(&self.values, &perm);
        }
    }

    /// Bytes of heap storage used by the columns (allocated capacity, so the
    /// number matches what is actually resident).
    pub fn memory_bytes(&self) -> usize {
        self.timestamps.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Releases push-growth capacity slack.
    pub fn shrink_to_fit(&mut self) {
        self.timestamps.shrink_to_fit();
        self.values.shrink_to_fit();
    }
}

/// Zero-copy view over (a sub-range of) a counter-sample stream.
#[derive(Debug, Clone, Copy)]
pub struct SamplesView<'a> {
    counter: CounterId,
    cpu: CpuId,
    timestamps: &'a [u64],
    values: &'a [f64],
}

impl<'a> SamplesView<'a> {
    /// An empty view attributed to one `(counter, cpu)` stream.
    pub fn empty(counter: CounterId, cpu: CpuId) -> SamplesView<'static> {
        SamplesView {
            counter,
            cpu,
            timestamps: &[],
            values: &[],
        }
    }

    /// The sampled counter.
    #[inline]
    pub fn counter(&self) -> CounterId {
        self.counter
    }

    /// The CPU the samples were taken on.
    #[inline]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Number of samples in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Raw timestamp column (cycles).
    #[inline]
    pub fn timestamps(&self) -> &'a [u64] {
        self.timestamps
    }

    /// Raw value column.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// The timestamp of sample `i`.
    #[inline]
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp(self.timestamps[i])
    }

    /// The value of sample `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// The sample at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> CounterSample {
        CounterSample::new(self.counter, self.cpu, self.timestamp(i), self.value(i))
    }

    /// The first sample, if any.
    pub fn first(&self) -> Option<CounterSample> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<CounterSample> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// The sub-view over samples `[lo, hi)`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> SamplesView<'a> {
        SamplesView {
            counter: self.counter,
            cpu: self.cpu,
            timestamps: &self.timestamps[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Iterates the view as materialised samples.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CounterSample> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

impl<'a> IntoIterator for SamplesView<'a> {
    type Item = CounterSample;
    type IntoIter = Box<dyn Iterator<Item = CounterSample> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

// ---------------------------------------------------------------------------
// Memory-access columns
// ---------------------------------------------------------------------------

/// Columnar storage of the trace-wide memory-access table (sorted by task id).
///
/// Each access costs `4 + 1 + 8 + 8` bytes (task reference in the compact id
/// column, one-byte access kind, address, size) instead of the 32-byte struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessColumns {
    tasks: TaskRefColumn,
    kinds: Vec<u8>,
    addrs: Vec<u64>,
    sizes: Vec<u64>,
}

impl AccessColumns {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for exactly `rows` accesses (see
    /// [`StateColumns::with_capacity`]).
    pub(crate) fn with_capacity(rows: usize) -> Self {
        AccessColumns {
            tasks: TaskRefColumn::with_capacity(rows),
            kinds: Vec::with_capacity(rows),
            addrs: Vec::with_capacity(rows),
            sizes: Vec::with_capacity(rows),
        }
    }

    /// The raw columns — task references, kinds, addresses and sizes — for
    /// the column store's block decoders: all four must end equally long,
    /// every reference be present and the kinds hold `0` (read) or `1` (write).
    pub(crate) fn columns_mut(&mut self) -> (&mut TaskRefColumn, &mut Vec<u8>, [&mut Vec<u64>; 2]) {
        (
            &mut self.tasks,
            &mut self.kinds,
            [&mut self.addrs, &mut self.sizes],
        )
    }

    /// Number of stored accesses.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Appends one access.
    pub fn push(&mut self, a: MemoryAccess) {
        self.tasks.push(Some(a.task));
        self.kinds.push(match a.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
        self.addrs.push(a.addr);
        self.sizes.push(a.size);
    }

    /// A zero-copy view of the whole table.
    #[inline]
    pub fn view(&self) -> AccessesView<'_> {
        AccessesView {
            tasks: self.tasks.view(),
            kinds: &self.kinds,
            addrs: &self.addrs,
            sizes: &self.sizes,
        }
    }

    /// The access at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> MemoryAccess {
        self.view().get(i)
    }

    /// Materialising adapter: the table as owned structs.
    pub fn to_vec(&self) -> Vec<MemoryAccess> {
        self.view().iter().collect()
    }

    /// Sorts by `(task id, insertion index)` — identical to a stable sort by task.
    /// No-op when already sorted.
    pub fn sort_by_task(&mut self) {
        if let Some(perm) = sort_permutation_by_key(self.len(), |i| self.tasks.raw(i)) {
            self.tasks = self.tasks.gathered(&perm);
            self.kinds = gather(&self.kinds, &perm);
            self.addrs = gather(&self.addrs, &perm);
            self.sizes = gather(&self.sizes, &perm);
        }
    }

    /// Rewrites every task id through `f` (the table is **not** re-sorted; callers
    /// that change the relative order sort afterwards).
    pub fn map_tasks(&mut self, f: impl FnMut(TaskId) -> TaskId) {
        self.tasks.map_ids(f);
    }

    /// Bytes of heap storage used by the columns (allocated capacity, so the
    /// number matches what is actually resident).
    pub fn memory_bytes(&self) -> usize {
        self.tasks.memory_bytes()
            + self.kinds.capacity()
            + (self.addrs.capacity() + self.sizes.capacity()) * std::mem::size_of::<u64>()
    }

    /// Releases push-growth capacity slack.
    pub fn shrink_to_fit(&mut self) {
        self.tasks.shrink_to_fit();
        self.kinds.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.sizes.shrink_to_fit();
    }
}

/// Zero-copy view over (a sub-range of) the memory-access table.
#[derive(Debug, Clone, Copy)]
pub struct AccessesView<'a> {
    tasks: TaskRefView<'a>,
    kinds: &'a [u8],
    addrs: &'a [u64],
    sizes: &'a [u64],
}

impl<'a> AccessesView<'a> {
    /// An empty view.
    pub fn empty() -> AccessesView<'static> {
        AccessesView {
            tasks: TaskRefView::EMPTY,
            kinds: &[],
            addrs: &[],
            sizes: &[],
        }
    }

    /// Number of accesses in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The raw kind, address and size columns (kinds `0` read, `1` write) for
    /// the column store's block encoder.
    pub(crate) fn columns(&self) -> (&'a [u8], [&'a [u64]; 2]) {
        (self.kinds, [self.addrs, self.sizes])
    }

    /// The task that performed access `i`.
    #[inline]
    pub fn task(&self, i: usize) -> TaskId {
        self.tasks.get(i).expect("every access names a task")
    }

    /// The kind of access `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> AccessKind {
        if self.kinds[i] == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }

    /// The address of access `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.addrs[i]
    }

    /// The byte count of access `i`.
    #[inline]
    pub fn size(&self, i: usize) -> u64 {
        self.sizes[i]
    }

    /// The access at `i`, materialised.
    #[inline]
    pub fn get(&self, i: usize) -> MemoryAccess {
        MemoryAccess::new(self.task(i), self.kind(i), self.addr(i), self.size(i))
    }

    /// The sub-view over accesses `[lo, hi)`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> AccessesView<'a> {
        AccessesView {
            tasks: self.tasks.slice(lo, hi),
            kinds: &self.kinds[lo..hi],
            addrs: &self.addrs[lo..hi],
            sizes: &self.sizes[lo..hi],
        }
    }

    /// The contiguous run of accesses performed by `task` (the table is sorted by
    /// task id, so two binary searches locate it).
    pub fn of_task(&self, task: TaskId) -> AccessesView<'a> {
        let rows = self.task_rows(task);
        self.slice(rows.start, rows.end)
    }

    /// The row range of [`AccessesView::of_task`] within this view.
    pub fn task_rows(&self, task: TaskId) -> std::ops::Range<usize> {
        // The biased encoding cannot represent TaskId(u64::MAX) — and no stored
        // access can reference it either — so the run is empty by definition.
        let Some(key) = task.0.checked_add(1) else {
            return 0..0;
        };
        let lo = partition_point(self.len(), |i| self.tasks_raw(i) < key);
        let hi = partition_point(self.len(), |i| self.tasks_raw(i) <= key);
        lo..hi
    }

    #[inline]
    fn tasks_raw(&self, i: usize) -> u64 {
        match self.tasks {
            TaskRefView::Narrow(v) => v[i] as u64,
            TaskRefView::Wide(v) => v[i],
        }
    }

    /// Iterates the view as materialised accesses.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MemoryAccess> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

impl<'a> IntoIterator for AccessesView<'a> {
    type Item = MemoryAccess;
    type IntoIter = Box<dyn Iterator<Item = MemoryAccess> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// `partition_point` over indices `0..len` for predicates reading a logical
/// column (the id columns have no contiguous `u64` slice to search).
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NumaNodeId;

    fn interval(cpu: u32, start: u64, end: u64, task: Option<u64>) -> StateInterval {
        StateInterval::new(
            CpuId(cpu),
            if task.is_some() {
                WorkerState::TaskExecution
            } else {
                WorkerState::Idle
            },
            TimeInterval::from_cycles(start, end),
            task.map(TaskId),
        )
    }

    #[test]
    fn state_columns_round_trip_and_sort() {
        let mut c = StateColumns::new(CpuId(1));
        let items = vec![
            interval(1, 100, 200, Some(3)),
            interval(1, 0, 50, None),
            interval(1, 100, 150, Some(7)),
            interval(1, 50, 100, Some(0)),
        ];
        for &s in &items {
            c.push(s);
        }
        assert_eq!(c.to_vec(), items, "pre-sort round trip");
        c.sort_by_start();
        let mut expected = items.clone();
        expected.sort_by_key(|s| s.interval.start);
        assert_eq!(c.to_vec(), expected, "sorted round trip (stable ties)");
        assert_eq!(c.view().slice(1, 3).iter().count(), 2);
        assert_eq!(c.view().first(), expected.first().copied());
        assert_eq!(c.view().last(), expected.last().copied());
    }

    #[test]
    fn state_view_column_accessors_agree_with_structs() {
        let mut c = StateColumns::new(CpuId(0));
        c.push(interval(0, 5, 17, Some(2)));
        c.push(interval(0, 17, 30, None));
        let v = c.view();
        assert_eq!(v.duration(0), 12);
        assert!(v.is_exec(0));
        assert!(!v.is_exec(1));
        assert_eq!(v.task(0), Some(TaskId(2)));
        assert_eq!(v.task(1), None);
        assert_eq!(v.state(1), WorkerState::Idle);
        assert_eq!(v.state_index(1), WorkerState::Idle.index());
        assert_eq!(v.starts(), &[5, 17]);
        assert_eq!(v.ends(), &[17, 30]);
    }

    #[test]
    fn task_ref_column_widens_on_large_ids() {
        let mut c = TaskRefColumn::new();
        c.push(Some(TaskId(1)));
        c.push(None);
        assert!(matches!(c, TaskRefColumn::Narrow(_)));
        c.push(Some(TaskId(u64::from(u32::MAX))));
        assert!(matches!(c, TaskRefColumn::Wide(_)));
        assert_eq!(c.get(0), Some(TaskId(1)));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(TaskId(u64::from(u32::MAX))));
        // Logical equality across widths.
        let mut narrow = TaskRefColumn::new();
        narrow.push(Some(TaskId(1)));
        let wide = TaskRefColumn::Wide(vec![2]);
        assert_eq!(narrow, wide);
        // Remapping into a small id space re-compacts.
        c.map_ids(|_| TaskId(0));
        assert!(matches!(c, TaskRefColumn::Narrow(_)));
        assert_eq!(c.get(2), Some(TaskId(0)));
    }

    #[test]
    fn event_columns_encode_every_kind() {
        let kinds = [
            DiscreteEventKind::TaskCreate { task: TaskId(1) },
            DiscreteEventKind::TaskReady { task: TaskId(2) },
            DiscreteEventKind::TaskComplete { task: TaskId(3) },
            DiscreteEventKind::StealAttempt { victim: CpuId(4) },
            DiscreteEventKind::StealSuccess {
                victim: CpuId(5),
                task: TaskId(6),
            },
            DiscreteEventKind::DataPublish {
                producer: TaskId(7),
                consumer: TaskId(8),
                bytes: 512,
            },
            DiscreteEventKind::Marker { code: 9 },
        ];
        let mut c = EventColumns::new(CpuId(2));
        let events: Vec<DiscreteEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| DiscreteEvent::new(CpuId(2), Timestamp(i as u64 * 10), k))
            .collect();
        for &e in &events {
            c.push(e);
        }
        assert_eq!(c.to_vec(), events);
        assert_eq!(c.view().last(), events.last().copied());
    }

    #[test]
    fn event_payload_lanes_stay_absent_until_used() {
        let mut c = EventColumns::new(CpuId(0));
        for i in 0..10u64 {
            c.push(DiscreteEvent::new(
                CpuId(0),
                Timestamp(i),
                DiscreteEventKind::Marker { code: i as u32 },
            ));
        }
        // Markers never use the b/c lanes: 8 (ts) + 1 (tag) + 8 (a) bytes per event.
        c.shrink_to_fit();
        assert_eq!(c.memory_bytes(), 10 * 17);
        c.push(DiscreteEvent::new(
            CpuId(0),
            Timestamp(99),
            DiscreteEventKind::DataPublish {
                producer: TaskId(0),
                consumer: TaskId(1),
                bytes: 64,
            },
        ));
        assert_eq!(
            c.get(10).kind,
            DiscreteEventKind::DataPublish {
                producer: TaskId(0),
                consumer: TaskId(1),
                bytes: 64,
            }
        );
        // Earlier events still decode with implicit-zero payloads.
        assert_eq!(c.get(3).kind, DiscreteEventKind::Marker { code: 3 });
        // A lane materialised with only zero values compares equal to an absent one.
        let mut with_lane = EventColumns::new(CpuId(0));
        let mut without_lane = EventColumns::new(CpuId(0));
        let steal = DiscreteEvent::new(
            CpuId(0),
            Timestamp(0),
            DiscreteEventKind::StealSuccess {
                victim: CpuId(1),
                task: TaskId(0),
            },
        );
        with_lane.push(steal);
        without_lane.push(steal);
        assert_eq!(with_lane, without_lane);
    }

    #[test]
    fn event_sort_is_stable_by_insertion() {
        let mut c = EventColumns::new(CpuId(0));
        let make = |ts: u64, code: u32| {
            DiscreteEvent::new(CpuId(0), Timestamp(ts), DiscreteEventKind::Marker { code })
        };
        for e in [make(30, 0), make(10, 1), make(30, 2), make(10, 3)] {
            c.push(e);
        }
        c.sort_by_timestamp();
        let codes: Vec<u32> = c
            .to_vec()
            .iter()
            .map(|e| match e.kind {
                DiscreteEventKind::Marker { code } => code,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(codes, vec![1, 3, 0, 2], "equal timestamps keep push order");
    }

    #[test]
    fn sample_columns_round_trip_sort_and_slice() {
        let mut c = SampleColumns::new(CounterId(3), CpuId(1));
        let samples: Vec<CounterSample> = [(30u64, 3.0), (10, 1.0), (20, 2.0)]
            .iter()
            .map(|&(t, v)| CounterSample::new(CounterId(3), CpuId(1), Timestamp(t), v))
            .collect();
        for &s in &samples {
            c.push(s);
        }
        c.sort_by_timestamp();
        assert_eq!(c.view().timestamps(), &[10, 20, 30]);
        assert_eq!(c.view().values(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.get(1).value, 2.0);
        assert_eq!(c.view().slice(1, 3).first().unwrap().value, 2.0);
        c.shrink_to_fit();
        assert_eq!(c.memory_bytes(), 3 * 16);
    }

    #[test]
    fn access_columns_sort_group_and_round_trip() {
        let mut c = AccessColumns::new();
        let accesses = [
            MemoryAccess::new(TaskId(2), crate::memory::AccessKind::Read, 0x10, 8),
            MemoryAccess::new(TaskId(0), crate::memory::AccessKind::Write, 0x20, 16),
            MemoryAccess::new(TaskId(2), crate::memory::AccessKind::Write, 0x30, 32),
            MemoryAccess::new(TaskId(1), crate::memory::AccessKind::Read, 0x40, 64),
        ];
        for &a in &accesses {
            c.push(a);
        }
        c.sort_by_task();
        let mut expected = accesses.to_vec();
        expected.sort_by_key(|a| a.task);
        assert_eq!(c.to_vec(), expected);
        let of2 = c.view().of_task(TaskId(2));
        assert_eq!(of2.len(), 2);
        assert_eq!(of2.get(0).addr, 0x10, "stable within equal task ids");
        assert_eq!(of2.get(1).addr, 0x30);
        assert!(c.view().of_task(TaskId(9)).is_empty());
        // Remap then re-sort keeps the table queryable.
        c.map_tasks(|t| TaskId(t.0 ^ 1));
        c.sort_by_task();
        assert_eq!(c.view().of_task(TaskId(3)).len(), 2);
        // 4 (narrow task) + 1 (kind) + 8 + 8 bytes per access.
        c.shrink_to_fit();
        assert_eq!(c.memory_bytes(), 4 * 21);
    }

    #[test]
    fn columnar_states_are_less_than_60_percent_of_struct_size() {
        let mut c = StateColumns::new(CpuId(0));
        let n = 1000usize;
        for i in 0..n as u64 {
            c.push(interval(0, i * 10, i * 10 + 5, Some(i)));
        }
        let aos = n * std::mem::size_of::<StateInterval>();
        c.shrink_to_fit();
        assert!(
            c.memory_bytes() * 10 < aos * 6,
            "columnar {} vs struct {} bytes",
            c.memory_bytes(),
            aos
        );
        // Keep the doc claim honest.
        let _ = NumaNodeId(0);
    }
}
