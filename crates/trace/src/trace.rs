//! The in-memory trace container and its builder.
//!
//! The data model is written once, as the crate-private `TraceData`: the
//! topology, the task and access tables, the per-CPU streams ([`PerCpuEvents`]),
//! regions, communication events, counters and symbols. [`Trace`] wraps a body
//! that [`TraceBuilder::finish`] validated and sorted (plus the counter-name
//! lookup table); [`TraceBuilder`] wraps one that is still being recorded (plus
//! the next region id). Reopening a trace clones the body, finishing a build
//! moves it, and the rest of the crate — the lint walk and its repair, the
//! streaming append, the column store's lane swap — works on the body,
//! whichever of the two holds it.

use std::collections::{BTreeMap, HashMap};

use aftermath_exec::{parallel_map_chunks, Threads};

use crate::columns::{
    AccessColumns, AccessesView, EventColumns, EventsView, SampleColumns, SamplesView,
    StateColumns, StatesView, TaskColumns, TasksView,
};
use crate::error::TraceError;
use crate::event::{
    CommEvent, CounterDescription, CounterSample, DiscreteEvent, DiscreteEventKind,
};
use crate::ids::{CounterId, CpuId, NumaNodeId, TaskId, TaskTypeId, TimeInterval, Timestamp};
use crate::memory::{AccessKind, MemoryAccess, MemoryRegion, RegionId};
use crate::state::{StateInterval, WorkerState};
use crate::symbols::SymbolTable;
use crate::task::{TaskInstance, TaskType};
use crate::topology::MachineTopology;

/// All events recorded for a single CPU/worker, each stream sorted by timestamp.
///
/// This mirrors the paper's in-memory representation (Section VI-B-c): one array per
/// event type per core, sorted by timestamp, so that the events of any time interval
/// can be located with a binary search — stored **columnar** (struct-of-arrays,
/// [`crate::columns`]) so hot analysis loops stream only the fields they touch.
/// Struct-based access is available through the zero-copy views:
/// [`PerCpuEvents::states`] materialises single [`StateInterval`]s on demand, and
/// `view.iter().collect()` yields the whole stream as owned structs.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCpuEvents {
    pub(crate) states: StateColumns,
    pub(crate) events: EventColumns,
    pub(crate) samples: BTreeMap<CounterId, SampleColumns>,
    cpu: CpuId,
}

impl PerCpuEvents {
    /// Creates empty streams for one CPU.
    pub fn new(cpu: CpuId) -> Self {
        PerCpuEvents {
            states: StateColumns::new(cpu),
            events: EventColumns::new(cpu),
            samples: BTreeMap::new(),
            cpu,
        }
    }

    /// The CPU these streams belong to.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Zero-copy view of the state-interval stream (sorted by interval start,
    /// non-overlapping).
    #[inline]
    pub fn states(&self) -> StatesView<'_> {
        self.states.view()
    }

    /// Zero-copy view of the discrete-event stream (sorted by timestamp).
    #[inline]
    pub fn events(&self) -> EventsView<'_> {
        self.events.view()
    }

    /// Zero-copy view of one counter's sample stream (sorted by timestamp), or
    /// `None` when the counter has no samples on this CPU.
    #[inline]
    pub fn samples(&self, counter: CounterId) -> Option<SamplesView<'_>> {
        self.samples.get(&counter).map(SampleColumns::view)
    }

    /// Iterates every `(counter, samples)` stream of this CPU, ascending by
    /// counter id.
    pub fn sample_streams(&self) -> impl Iterator<Item = (CounterId, SamplesView<'_>)> {
        self.samples.iter().map(|(&c, s)| (c, s.view()))
    }

    /// Total number of counter samples across all streams.
    pub fn num_samples(&self) -> usize {
        self.samples.values().map(SampleColumns::len).sum()
    }

    /// Appends a state interval (crate-internal; callers uphold the stream
    /// invariants or sort/validate afterwards).
    pub(crate) fn push_state(&mut self, s: StateInterval) {
        self.states.push(s);
    }

    /// Appends a discrete event (crate-internal).
    pub(crate) fn push_event(&mut self, e: DiscreteEvent) {
        self.events.push(e);
    }

    /// Appends a counter sample (crate-internal).
    pub(crate) fn push_sample(&mut self, s: CounterSample) {
        self.samples
            .entry(s.counter)
            .or_insert_with(|| SampleColumns::new(s.counter, s.cpu))
            .push(s);
    }

    /// Sorts every stream by `(timestamp, insertion index)` — identical to the
    /// stable timestamp sorts of the pre-columnar builder.
    pub(crate) fn sort_streams(&mut self) {
        self.states.sort_by_start();
        self.events.sort_by_timestamp();
        for samples in self.samples.values_mut() {
            samples.sort_by_timestamp();
        }
    }

    /// Releases push-growth capacity slack once a batch build is final, so the
    /// reported [`memory_bytes`](Self::memory_bytes) (capacity-based) matches the
    /// logical column sizes. Streaming traces keep their amortisation slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.states.shrink_to_fit();
        self.events.shrink_to_fit();
        for samples in self.samples.values_mut() {
            samples.shrink_to_fit();
        }
    }

    /// Total number of recorded items (states + events + samples).
    pub fn len(&self) -> usize {
        self.states.len() + self.events.len() + self.num_samples()
    }

    /// Whether nothing was recorded for this CPU.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of heap storage actually used by the columnar streams.
    pub fn memory_bytes(&self) -> usize {
        self.states.memory_bytes()
            + self.events.memory_bytes()
            + self
                .samples
                .values()
                .map(SampleColumns::memory_bytes)
                .sum::<usize>()
    }

    /// Bytes the same streams would occupy as arrays of structs (the pre-columnar
    /// layout) — the baseline of the storage-engine memory comparison.
    pub fn aos_bytes(&self) -> usize {
        self.states.len() * std::mem::size_of::<StateInterval>()
            + self.events.len() * std::mem::size_of::<DiscreteEvent>()
            + self.num_samples() * std::mem::size_of::<CounterSample>()
    }
}

/// The body of a trace — topology, task and access tables, per-CPU streams,
/// regions, counters, symbols — written once: [`Trace`] is a validated, sorted
/// body plus its lookup tables, [`TraceBuilder`] one still being recorded.
/// Crate-internal: the lint walk ([`crate::lint`]) reads it, and lenient
/// repair, the streaming append ([`crate::streaming`]) and the column store
/// ([`crate::store`]) write it, whichever of the two holds it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceData {
    pub(crate) topology: MachineTopology,
    pub(crate) task_types: Vec<TaskType>,
    /// Row `i` is task `TaskId(i)`.
    pub(crate) tasks: TaskColumns,
    /// Indexed by [`CpuId`]: one entry per CPU of the topology.
    pub(crate) per_cpu: Vec<PerCpuEvents>,
    pub(crate) regions: Vec<MemoryRegion>,
    pub(crate) accesses: AccessColumns,
    pub(crate) comm_events: Vec<CommEvent>,
    pub(crate) counters: Vec<CounterDescription>,
    pub(crate) symbols: SymbolTable,
}

impl TraceData {
    fn new(topology: MachineTopology) -> Self {
        let per_cpu = (0..topology.num_cpus())
            .map(|cpu| PerCpuEvents::new(CpuId(cpu as u32)))
            .collect();
        TraceData {
            topology,
            task_types: Vec::new(),
            tasks: TaskColumns::default(),
            per_cpu,
            regions: Vec::new(),
            accesses: AccessColumns::new(),
            comm_events: Vec::new(),
            counters: Vec::new(),
            symbols: SymbolTable::new(),
        }
    }

    /// The streams of `cpu`, or [`TraceError::UnknownCpu`] for a CPU outside
    /// the topology.
    pub(crate) fn cpu_mut(&mut self, cpu: CpuId) -> Result<&mut PerCpuEvents, TraceError> {
        self.per_cpu
            .get_mut(cpu.0 as usize)
            .ok_or(TraceError::UnknownCpu(cpu))
    }
}

/// A complete, validated, immutable execution trace.
///
/// Construct traces with [`TraceBuilder`] or load them from disk with
/// [`crate::format::read_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    data: TraceData,
    /// Name → id lookup table, built once by [`TraceBuilder::finish`] so that
    /// [`Trace::counter_by_name`] does not scan the descriptions per call. Duplicate
    /// names map to the first registered counter, like the linear scan used to.
    counter_names: HashMap<String, CounterId>,
}

impl Trace {
    /// The machine topology the trace was recorded on.
    pub fn topology(&self) -> &MachineTopology {
        &self.data.topology
    }

    /// All task types, indexed by [`TaskTypeId`].
    pub fn task_types(&self) -> &[TaskType] {
        &self.data.task_types
    }

    /// Looks up a task type by id.
    pub fn task_type(&self, id: TaskTypeId) -> Option<&TaskType> {
        self.data.task_types.get(id.0 as usize)
    }

    /// The task table, a zero-copy columnar view: row `i` is task
    /// `TaskId(i)` (`tasks().get(i).id == TaskId(i)`).
    #[inline]
    pub fn tasks(&self) -> TasksView<'_> {
        self.data.tasks.view()
    }

    /// Looks up a task instance by id: the row `id` names, materialised, or
    /// `None` past the table.
    #[inline]
    pub fn task(&self, id: TaskId) -> Option<TaskInstance> {
        let tasks = self.tasks();
        (id.0 < tasks.len() as u64).then(|| tasks.get(id.0 as usize))
    }

    /// Per-CPU event streams, indexed by [`CpuId`].
    pub fn per_cpu(&self) -> &[PerCpuEvents] {
        &self.data.per_cpu
    }

    /// The event streams of one CPU.
    pub fn cpu(&self, cpu: CpuId) -> Option<&PerCpuEvents> {
        self.data.per_cpu.get(cpu.0 as usize)
    }

    /// All memory regions, sorted by base address.
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.data.regions
    }

    /// Looks up a memory region by id.
    pub fn region(&self, id: RegionId) -> Option<&MemoryRegion> {
        self.data.regions.iter().find(|r| r.id == id)
    }

    /// Finds the memory region containing `addr` via binary search.
    pub fn region_of_addr(&self, addr: u64) -> Option<&MemoryRegion> {
        let idx = self.data.regions.partition_point(|r| r.base_addr <= addr);
        if idx == 0 {
            return None;
        }
        let region = &self.data.regions[idx - 1];
        region.contains(addr).then_some(region)
    }

    /// The NUMA node holding the page at `addr`, if the region is known and placed.
    pub fn node_of_addr(&self, addr: u64) -> Option<NumaNodeId> {
        self.region_of_addr(addr).and_then(|r| r.node)
    }

    /// All memory accesses, sorted by task id (zero-copy columnar view).
    pub fn accesses(&self) -> AccessesView<'_> {
        self.data.accesses.view()
    }

    /// The memory accesses performed by one task (a contiguous sub-view, located
    /// by binary search over the task-id column).
    pub fn accesses_of_task(&self, task: TaskId) -> AccessesView<'_> {
        self.data.accesses.view().of_task(task)
    }

    /// All communication events, sorted by timestamp.
    pub fn comm_events(&self) -> &[CommEvent] {
        &self.data.comm_events
    }

    /// Descriptions of all counters appearing in the trace.
    pub fn counters(&self) -> &[CounterDescription] {
        &self.data.counters
    }

    /// Looks up a counter description by id.
    pub fn counter(&self, id: CounterId) -> Option<&CounterDescription> {
        self.data.counters.get(id.0 as usize)
    }

    /// Looks up a counter description by name through the prebuilt name → id map.
    pub fn counter_by_name(&self, name: &str) -> Option<&CounterDescription> {
        self.counter_names
            .get(name)
            .and_then(|id| self.counter(*id))
    }

    /// The symbol table extracted from the application binary (may be empty).
    pub fn symbols(&self) -> &SymbolTable {
        &self.data.symbols
    }

    /// Total number of recorded items across all CPUs.
    pub fn num_events(&self) -> usize {
        let data = &self.data;
        data.per_cpu.iter().map(PerCpuEvents::len).sum::<usize>()
            + data.accesses.len()
            + data.comm_events.len()
    }

    /// Bytes of heap storage actually resident for the recorded event data: the
    /// per-CPU columnar streams plus the task, access and communication tables.
    pub fn resident_event_bytes(&self) -> usize {
        let data = &self.data;
        data.per_cpu
            .iter()
            .map(PerCpuEvents::memory_bytes)
            .sum::<usize>()
            + data.accesses.memory_bytes()
            + data.tasks.memory_bytes()
            + std::mem::size_of_val(data.comm_events.as_slice())
    }

    /// Bytes the same event data would occupy in the pre-columnar array-of-structs
    /// layout — the fixed baseline [`Trace::resident_event_bytes`] is compared
    /// against by the storage benchmarks and the index-overhead ratios.
    pub fn aos_event_bytes(&self) -> usize {
        let data = &self.data;
        data.per_cpu
            .iter()
            .map(PerCpuEvents::aos_bytes)
            .sum::<usize>()
            + data.accesses.len() * std::mem::size_of::<MemoryAccess>()
            + data.tasks.len() * std::mem::size_of::<TaskInstance>()
            + std::mem::size_of_val(data.comm_events.as_slice())
    }

    /// The time interval spanned by the trace (from the earliest to the latest event).
    ///
    /// Returns an empty interval at time zero for a trace without any events.
    pub fn time_bounds(&self) -> TimeInterval {
        self.time_bounds_opt()
            .unwrap_or(TimeInterval::new(Timestamp::ZERO, Timestamp::ZERO))
    }

    /// Like [`Trace::time_bounds`], but `None` for a trace without any *bounded*
    /// items (state intervals, discrete events, counter samples, task executions —
    /// memory accesses and communication events carry no own position on the time
    /// axis). This is the single definition of which item classes bound a trace;
    /// the incrementally maintained bounds of [`crate::streaming::StreamingTrace`]
    /// are seeded from it and must stay equal to it at every epoch.
    pub fn time_bounds_opt(&self) -> Option<TimeInterval> {
        // A time-sorted lane spans from its first start to its last end.
        let span = |(starts, ends): (&[u64], &[u64])| {
            Some(TimeInterval::from_cycles(*starts.first()?, *ends.last()?))
        };
        let lanes = self.data.per_cpu.iter().flat_map(|pc| {
            let (states, events) = (pc.states(), pc.events().timestamps());
            let samples = pc.sample_streams().map(|(_, s)| s.timestamps());
            [(states.starts(), states.ends()), (events, events)]
                .into_iter()
                .chain(samples.map(|ts| (ts, ts)))
                .filter_map(span)
        });
        // The task table is not time-sorted: it spans from its least start to
        // its greatest end.
        let tasks = self.tasks();
        let tasks = tasks.starts().iter().min().zip(tasks.ends().iter().max());
        lanes
            .chain(tasks.map(|(&start, &end)| TimeInterval::from_cycles(start, end)))
            .reduce(|a, b| TimeInterval::new(a.start.min(b.start), a.end.max(b.end)))
    }

    /// Total execution time covered by the trace, in cycles.
    pub fn duration(&self) -> u64 {
        self.time_bounds().duration()
    }

    /// Reopens the trace as a builder holding exactly the same data.
    ///
    /// Finishing the returned builder reproduces this trace byte-for-byte: the
    /// streams are already sorted, so the finishing permutation sort is the
    /// identity, and region/task/counter ids are carried over unchanged. This
    /// is the entry point of [`Trace::repair`] and of the corruption harness in
    /// the workloads crate.
    pub fn to_builder(&self) -> TraceBuilder {
        TraceBuilder::over(self.data.clone())
    }

    /// Crate-internal: a builder holding this trace's metadata — topology, task
    /// types, counters, regions, symbols — and none of its lanes: the body
    /// with the tables and streams that grow emptied. The prologue a
    /// [`crate::streaming`] replay opens on.
    pub(crate) fn prologue(&self) -> TraceBuilder {
        TraceBuilder::over(TraceData {
            task_types: self.data.task_types.clone(),
            regions: self.data.regions.clone(),
            counters: self.data.counters.clone(),
            symbols: self.data.symbols.clone(),
            ..TraceData::new(self.data.topology.clone())
        })
    }

    /// Crate-internal: the body, for the lint walk ([`crate::lint`]) and the
    /// store's per-lane accounting ([`crate::store`]).
    pub(crate) fn data(&self) -> &TraceData {
        &self.data
    }

    /// Crate-internal mutable access to the body, used by the streaming ingest
    /// layer ([`crate::streaming`]) to append validated chunks and to remap
    /// task ids, and by the column store ([`crate::store`]) to swap lanes in
    /// and out. Not public: arbitrary mutation could break the sortedness and
    /// non-overlap invariants every query relies on.
    pub(crate) fn data_mut(&mut self) -> &mut TraceData {
        &mut self.data
    }
}

/// Incremental builder for [`Trace`] values.
///
/// Events may be added in any order; [`TraceBuilder::finish`] sorts each per-CPU stream
/// by timestamp and validates the result (non-overlapping state intervals, valid
/// references). [`TraceBuilder::finish_lint`] lints the recording first and either
/// rejects a damaged one — events added out of timestamp order included — or repairs it.
///
/// The builder records straight into the columnar stores ([`crate::columns`]); the
/// finishing sort is an unstable permutation sort keyed on `(timestamp, insertion
/// index)` — a total order, so the result is identical to the stable timestamp sort
/// of the pre-columnar builder while moving 8-byte column lanes instead of 40-byte
/// structs.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    /// The recording so far: streams in recording order, nothing validated.
    pub(crate) data: TraceData,
    next_region_id: u64,
}

impl TraceBuilder {
    /// Creates a builder for a trace on the given machine.
    pub fn new(topology: MachineTopology) -> Self {
        Self::over(TraceData::new(topology))
    }

    /// A builder that goes on from `data`; new regions continue its ids.
    fn over(data: TraceData) -> Self {
        let next_region_id = data.regions.iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
        TraceBuilder {
            data,
            next_region_id,
        }
    }

    /// The machine topology of the trace under construction.
    pub fn topology(&self) -> &MachineTopology {
        &self.data.topology
    }

    /// Registers a task type and returns its id.
    pub fn add_task_type(&mut self, name: impl Into<String>, symbol_addr: u64) -> TaskTypeId {
        let id = TaskTypeId(self.data.task_types.len() as u32);
        self.data
            .task_types
            .push(TaskType::new(id, name, symbol_addr));
        id
    }

    /// Registers a task instance and returns its id.
    ///
    /// The task id is assigned densely in registration order.
    pub fn add_task(
        &mut self,
        task_type: TaskTypeId,
        cpu: CpuId,
        creation: Timestamp,
        start: Timestamp,
        end: Timestamp,
    ) -> TaskId {
        self.add_task_created_by(task_type, cpu, cpu, creation, start, end)
    }

    /// Registers a task instance created on `creator_cpu` and executed on `cpu`.
    pub fn add_task_created_by(
        &mut self,
        task_type: TaskTypeId,
        cpu: CpuId,
        creator_cpu: CpuId,
        creation: Timestamp,
        start: Timestamp,
        end: Timestamp,
    ) -> TaskId {
        let id = TaskId(self.data.tasks.len() as u64);
        self.data.tasks.push(TaskInstance::new(
            id,
            task_type,
            cpu,
            creator_cpu,
            creation,
            TimeInterval::new(start, end),
        ));
        id
    }

    /// Records a state interval for a worker.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownCpu`] for a CPU outside the topology,
    /// [`TraceError::InvalidInterval`] when `end < start`, and
    /// [`TraceError::UnknownTask`] for the one unrepresentable task reference
    /// `TaskId(u64::MAX)` (task ids are assigned densely, so it can never name a
    /// real task; the biased task-id column cannot store it).
    pub fn add_state(
        &mut self,
        cpu: CpuId,
        state: WorkerState,
        start: Timestamp,
        end: Timestamp,
        task: Option<TaskId>,
    ) -> Result<(), TraceError> {
        let streams = self.data.cpu_mut(cpu)?;
        if end < start {
            return Err(TraceError::InvalidInterval { start, end });
        }
        if task == Some(TaskId(u64::MAX)) {
            return Err(TraceError::UnknownTask(TaskId(u64::MAX)));
        }
        streams.push_state(StateInterval::new(
            cpu,
            state,
            TimeInterval::new(start, end),
            task,
        ));
        Ok(())
    }

    /// Records a discrete event on a worker.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownCpu`] for a CPU outside the topology.
    pub fn add_event(
        &mut self,
        cpu: CpuId,
        timestamp: Timestamp,
        kind: DiscreteEventKind,
    ) -> Result<(), TraceError> {
        let streams = self.data.cpu_mut(cpu)?;
        streams.push_event(DiscreteEvent::new(cpu, timestamp, kind));
        Ok(())
    }

    /// Registers a performance counter and returns its id.
    pub fn add_counter(&mut self, name: impl Into<String>, monotone: bool) -> CounterId {
        let id = CounterId(self.data.counters.len() as u32);
        self.data
            .counters
            .push(CounterDescription::new(id, name, monotone));
        id
    }

    /// Records a counter sample.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownCpu`] for a CPU outside the topology.
    pub fn add_sample(
        &mut self,
        counter: CounterId,
        cpu: CpuId,
        timestamp: Timestamp,
        value: f64,
    ) -> Result<(), TraceError> {
        let streams = self.data.cpu_mut(cpu)?;
        streams.push_sample(CounterSample::new(counter, cpu, timestamp, value));
        Ok(())
    }

    /// Registers a memory region and returns its id.
    pub fn add_region(&mut self, base_addr: u64, size: u64, node: Option<NumaNodeId>) -> RegionId {
        let id = RegionId(self.next_region_id);
        self.next_region_id += 1;
        self.data
            .regions
            .push(MemoryRegion::new(id, base_addr, size, node));
        id
    }

    /// Updates the NUMA placement of an already registered region.
    ///
    /// This models first-touch allocation: the region exists before its physical pages
    /// have a home node. Returns `false` when the region is unknown.
    pub fn set_region_node(&mut self, id: RegionId, node: NumaNodeId) -> bool {
        if let Some(region) = self.data.regions.iter_mut().find(|r| r.id == id) {
            region.node = Some(node);
            true
        } else {
            false
        }
    }

    /// Records a memory access performed by a task.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTask`] when the task has not been registered.
    pub fn add_access(
        &mut self,
        task: TaskId,
        kind: AccessKind,
        addr: u64,
        size: u64,
    ) -> Result<(), TraceError> {
        if task.0 as usize >= self.data.tasks.len() {
            return Err(TraceError::UnknownTask(task));
        }
        self.data
            .accesses
            .push(MemoryAccess::new(task, kind, addr, size));
        Ok(())
    }

    /// Records a communication event.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownCpu`] when either endpoint is outside the topology.
    pub fn add_comm(&mut self, event: CommEvent) -> Result<(), TraceError> {
        self.data.cpu_mut(event.src_cpu)?;
        self.data.cpu_mut(event.dst_cpu)?;
        self.data.comm_events.push(event);
        Ok(())
    }

    /// Attaches a symbol table.
    pub fn set_symbols(&mut self, symbols: SymbolTable) {
        self.data.symbols = symbols;
    }

    /// Number of tasks registered so far.
    pub fn num_tasks(&self) -> usize {
        self.data.tasks.len()
    }

    /// Validates references and intervals, sorts every stream, and produces the trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTaskType`], [`TraceError::UnknownCpu`],
    /// [`TraceError::InvalidInterval`] or [`TraceError::OverlappingStates`] when the
    /// recorded data is inconsistent.
    pub fn finish(self) -> Result<Trace, TraceError> {
        self.finish_with(Threads::single())
    }

    /// Like [`TraceBuilder::finish`] but splits and sorts the per-CPU event streams on
    /// up to `threads` worker threads. The produced trace is identical to
    /// [`TraceBuilder::finish`]; only the wall-clock time differs on large traces.
    ///
    /// # Errors
    ///
    /// See [`TraceBuilder::finish`].
    pub fn finish_with(self, threads: Threads) -> Result<Trace, TraceError> {
        let mut data = self.data;
        // Validate task references.
        for task in data.tasks.view().iter() {
            if task.task_type.0 as usize >= data.task_types.len() {
                return Err(TraceError::UnknownTaskType(task.task_type));
            }
            if !data.topology.contains_cpu(task.cpu) {
                return Err(TraceError::UnknownCpu(task.cpu));
            }
            if task.execution.end < task.execution.start {
                return Err(TraceError::InvalidInterval {
                    start: task.execution.start,
                    end: task.execution.end,
                });
            }
        }

        // Sort streams: each CPU's streams are independent, so they sort in parallel
        // (one chunk per CPU). The permutation sort is keyed on (timestamp, insertion
        // index) — deterministic, so the result does not depend on the thread count.
        // The build is final after this, so push-growth capacity slack is released
        // (the resident-memory accounting is capacity-based).
        parallel_map_chunks(threads, &mut data.per_cpu, 1, |_, chunk| {
            for pc in chunk {
                pc.sort_streams();
                pc.shrink_to_fit();
            }
        });
        data.regions.sort_by_key(|r| r.base_addr);
        data.accesses.sort_by_task();
        data.accesses.shrink_to_fit();
        data.comm_events.sort_by_key(|c| c.timestamp);
        data.tasks.shrink_to_fit();
        data.comm_events.shrink_to_fit();

        // Validate that state intervals on the same CPU do not overlap (a pure
        // column walk: one pass over two u64 lanes).
        for pc in &data.per_cpu {
            let states = pc.states();
            let (starts, ends) = (states.starts(), states.ends());
            for i in 1..starts.len() {
                if starts[i] < ends[i - 1] {
                    return Err(TraceError::OverlappingStates(pc.cpu()));
                }
            }
        }

        // Duplicate names keep the first registered id, matching the previous
        // first-match linear scan.
        let mut counter_names = HashMap::with_capacity(data.counters.len());
        for c in &data.counters {
            counter_names.entry(c.name.clone()).or_insert(c.id);
        }

        Ok(Trace {
            data,
            counter_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> MachineTopology {
        MachineTopology::uniform(2, 2)
    }

    #[test]
    fn build_minimal_trace() {
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("work", 0x1000);
        let t = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(10), Timestamp(20));
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(10),
            Timestamp(20),
            Some(t),
        )
        .unwrap();
        let trace = b.finish().unwrap();
        assert_eq!(trace.tasks().len(), 1);
        assert_eq!(trace.task(t).unwrap().duration(), 10);
        assert_eq!(trace.time_bounds(), TimeInterval::from_cycles(10, 20));
        assert_eq!(trace.duration(), 10);
    }

    #[test]
    fn empty_trace_bounds() {
        let trace = TraceBuilder::new(topo()).finish().unwrap();
        assert_eq!(trace.duration(), 0);
        assert_eq!(trace.num_events(), 0);
    }

    #[test]
    fn rejects_unknown_cpu() {
        let mut b = TraceBuilder::new(topo());
        let err = b
            .add_state(
                CpuId(99),
                WorkerState::Idle,
                Timestamp(0),
                Timestamp(1),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, TraceError::UnknownCpu(CpuId(99))));
    }

    #[test]
    fn rejects_invalid_interval() {
        let mut b = TraceBuilder::new(topo());
        let err = b
            .add_state(
                CpuId(0),
                WorkerState::Idle,
                Timestamp(10),
                Timestamp(5),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, TraceError::InvalidInterval { .. }));
    }

    #[test]
    fn rejects_overlapping_states() {
        let mut b = TraceBuilder::new(topo());
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(0),
            Timestamp(10),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::TaskCreation,
            Timestamp(5),
            Timestamp(15),
            None,
        )
        .unwrap();
        assert!(matches!(b.finish(), Err(TraceError::OverlappingStates(_))));
    }

    #[test]
    fn rejects_unknown_task_type() {
        let mut b = TraceBuilder::new(topo());
        // Register a task with a type id that was never created: `add_task`
        // takes it, `finish` validates it.
        b.add_task(
            TaskTypeId(7),
            CpuId(0),
            Timestamp(0),
            Timestamp(0),
            Timestamp(1),
        );
        assert!(matches!(b.finish(), Err(TraceError::UnknownTaskType(_))));
    }

    #[test]
    fn rejects_unrepresentable_task_reference() {
        // Task ids are dense, so TaskId(u64::MAX) can never name a real task; the
        // biased task-id column cannot store it, and the builder reports that as a
        // recoverable error instead of panicking.
        let mut b = TraceBuilder::new(topo());
        let err = b
            .add_state(
                CpuId(0),
                WorkerState::TaskExecution,
                Timestamp(0),
                Timestamp(1),
                Some(TaskId(u64::MAX)),
            )
            .unwrap_err();
        assert!(matches!(err, TraceError::UnknownTask(TaskId(u64::MAX))));
        // Querying the unrepresentable id is a plain empty result.
        let trace = b.finish().unwrap();
        assert_eq!(trace.accesses_of_task(TaskId(u64::MAX)).len(), 0);
    }

    #[test]
    fn rejects_access_for_unknown_task() {
        let mut b = TraceBuilder::new(topo());
        let err = b
            .add_access(TaskId(3), AccessKind::Read, 0x1000, 64)
            .unwrap_err();
        assert!(matches!(err, TraceError::UnknownTask(TaskId(3))));
    }

    #[test]
    fn finish_sorts_streams() {
        let mut b = TraceBuilder::new(topo());
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(100),
            Timestamp(200),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::TaskCreation,
            Timestamp(0),
            Timestamp(50),
            None,
        )
        .unwrap();
        let ctr = b.add_counter("c", true);
        b.add_sample(ctr, CpuId(1), Timestamp(30), 3.0).unwrap();
        b.add_sample(ctr, CpuId(1), Timestamp(10), 1.0).unwrap();
        let trace = b.finish().unwrap();
        let states = trace.cpu(CpuId(0)).unwrap().states();
        assert!(states.start_cycles(0) < states.start_cycles(1));
        let samples = trace.cpu(CpuId(1)).unwrap().samples(ctr).unwrap();
        assert!(samples.timestamp(0) < samples.timestamp(1));
        assert_eq!(samples.values(), &[1.0, 3.0]);
    }

    #[test]
    fn region_lookup_by_address() {
        let mut b = TraceBuilder::new(topo());
        let r0 = b.add_region(0x1000, 0x100, Some(NumaNodeId(0)));
        let _r1 = b.add_region(0x3000, 0x100, Some(NumaNodeId(1)));
        assert!(b.set_region_node(r0, NumaNodeId(1)));
        assert!(!b.set_region_node(RegionId(99), NumaNodeId(0)));
        let trace = b.finish().unwrap();
        assert_eq!(trace.region_of_addr(0x1080).unwrap().id, r0);
        assert_eq!(trace.node_of_addr(0x1080), Some(NumaNodeId(1)));
        assert_eq!(trace.node_of_addr(0x3050), Some(NumaNodeId(1)));
        assert!(trace.region_of_addr(0x2000).is_none());
        assert!(trace.region_of_addr(0x500).is_none());
    }

    #[test]
    fn accesses_grouped_by_task() {
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("w", 0);
        let t0 = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(0), Timestamp(10));
        let t1 = b.add_task(ty, CpuId(1), Timestamp(0), Timestamp(0), Timestamp(10));
        b.add_access(t1, AccessKind::Read, 0x10, 8).unwrap();
        b.add_access(t0, AccessKind::Write, 0x20, 8).unwrap();
        b.add_access(t1, AccessKind::Write, 0x30, 8).unwrap();
        let trace = b.finish().unwrap();
        assert_eq!(trace.accesses_of_task(t0).len(), 1);
        assert_eq!(trace.accesses_of_task(t1).len(), 2);
        assert_eq!(trace.accesses_of_task(TaskId(5)).len(), 0);
    }

    #[test]
    fn comm_event_validation() {
        let mut b = TraceBuilder::new(topo());
        let ev = CommEvent {
            timestamp: Timestamp(5),
            kind: crate::event::CommKind::DataTransfer,
            src_cpu: CpuId(0),
            dst_cpu: CpuId(9),
            src_node: NumaNodeId(0),
            dst_node: NumaNodeId(1),
            bytes: 128,
            task: None,
        };
        assert!(matches!(b.add_comm(ev), Err(TraceError::UnknownCpu(_))));
    }

    #[test]
    fn counter_lookup() {
        let mut b = TraceBuilder::new(topo());
        let c = b.add_counter("branch-mispredictions", true);
        let trace = b.finish().unwrap();
        assert_eq!(trace.counter(c).unwrap().name, "branch-mispredictions");
        assert!(trace.counter_by_name("branch-mispredictions").is_some());
        assert!(trace.counter_by_name("nope").is_none());
    }

    #[test]
    fn counter_lookup_prefers_first_duplicate() {
        let mut b = TraceBuilder::new(topo());
        let first = b.add_counter("dup", true);
        let _second = b.add_counter("dup", false);
        let trace = b.finish().unwrap();
        assert_eq!(trace.counter_by_name("dup").unwrap().id, first);
    }

    #[test]
    fn materializing_adapters_reproduce_structs() {
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("w", 0);
        let t = b.add_task(ty, CpuId(0), Timestamp(0), Timestamp(0), Timestamp(10));
        b.add_state(
            CpuId(0),
            WorkerState::TaskExecution,
            Timestamp(0),
            Timestamp(10),
            Some(t),
        )
        .unwrap();
        b.add_event(
            CpuId(0),
            Timestamp(5),
            DiscreteEventKind::TaskCreate { task: t },
        )
        .unwrap();
        let ctr = b.add_counter("c", true);
        b.add_sample(ctr, CpuId(0), Timestamp(3), 1.5).unwrap();
        let trace = b.finish().unwrap();
        let pc = trace.cpu(CpuId(0)).unwrap();
        assert_eq!(
            pc.states().iter().collect::<Vec<_>>(),
            vec![StateInterval::new(
                CpuId(0),
                WorkerState::TaskExecution,
                TimeInterval::from_cycles(0, 10),
                Some(t)
            )]
        );
        assert_eq!(
            pc.events().iter().collect::<Vec<_>>(),
            vec![DiscreteEvent::new(
                CpuId(0),
                Timestamp(5),
                DiscreteEventKind::TaskCreate { task: t }
            )]
        );
        assert_eq!(
            pc.samples(ctr).unwrap().iter().collect::<Vec<_>>(),
            vec![CounterSample::new(ctr, CpuId(0), Timestamp(3), 1.5)]
        );
        assert!(pc.samples(CounterId(99)).is_none());
    }

    #[test]
    fn columnar_storage_is_smaller_than_struct_storage() {
        // The shape of the zoom-sweep workload: per task one state interval, one
        // counter sample and two memory accesses.
        let mut b = TraceBuilder::new(topo());
        let ty = b.add_task_type("w", 0);
        let ctr = b.add_counter("c", true);
        b.add_region(0x1000, 1 << 20, Some(NumaNodeId(0)));
        for i in 0..1_000u64 {
            let t = b.add_task(
                ty,
                CpuId(0),
                Timestamp(i * 10),
                Timestamp(i * 10),
                Timestamp(i * 10 + 5),
            );
            b.add_state(
                CpuId(0),
                WorkerState::TaskExecution,
                Timestamp(i * 10),
                Timestamp(i * 10 + 5),
                Some(t),
            )
            .unwrap();
            b.add_sample(ctr, CpuId(0), Timestamp(i * 10), i as f64)
                .unwrap();
            b.add_access(t, AccessKind::Read, 0x1000 + i * 8, 64)
                .unwrap();
            b.add_access(t, AccessKind::Write, 0x1000 + i * 8, 32)
                .unwrap();
        }
        let trace = b.finish().unwrap();
        let resident = trace.resident_event_bytes();
        let aos = trace.aos_event_bytes();
        assert!(
            (resident as f64) < 0.75 * aos as f64,
            "columnar {resident} bytes must undercut the struct layout {aos} bytes by >= 25 %"
        );
    }

    #[test]
    fn finish_with_threads_matches_sequential_finish() {
        let build = || {
            let mut b = TraceBuilder::new(MachineTopology::uniform(2, 4));
            let ctr = b.add_counter("c", true);
            for cpu in 0..8u32 {
                // Insert out of order so finish has real sorting to do per CPU.
                for i in (0..50u64).rev() {
                    b.add_state(
                        CpuId(cpu),
                        WorkerState::Idle,
                        Timestamp(i * 10),
                        Timestamp(i * 10 + 10),
                        None,
                    )
                    .unwrap();
                    b.add_sample(ctr, CpuId(cpu), Timestamp(i * 10), i as f64)
                        .unwrap();
                }
            }
            b
        };
        let sequential = build().finish().unwrap();
        for threads in [Threads::new(2), Threads::auto()] {
            assert_eq!(build().finish_with(threads).unwrap(), sequential);
        }
    }
}
