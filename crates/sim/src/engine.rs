//! The discrete-event simulation engine.
//!
//! The engine executes a [`WorkloadSpec`] on the configured machine with the configured
//! run-time behaviour and produces a full [`aftermath_trace::Trace`]:
//!
//! * every worker's state over time (task execution, task creation, load balancing,
//!   idling),
//! * every task instance with its execution interval and memory accesses,
//! * memory regions with their NUMA placement,
//! * per-CPU counter samples taken immediately before and after each task execution
//!   (branch mispredictions, cache misses, OS system time, resident set size),
//! * discrete events (task creation/completion, steals) and communication events for
//!   remote reads and task migrations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aftermath_trace::{
    AccessKind, CommEvent, CommKind, CounterId, CpuId, DiscreteEventKind, NumaNodeId, TaskId,
    Timestamp, Trace, TraceBuilder, WorkerState,
};

use crate::config::{AllocationPolicy, SchedulingPolicy, SimConfig};
use crate::error::SimError;
use crate::memory::MemoryManager;
use crate::result::{SimResult, SimStats};
use crate::spec::{DependenceGraph, WorkloadSpec};

/// Name of the branch-misprediction counter emitted by the simulator.
pub const COUNTER_BRANCH_MISPREDICTIONS: &str = "branch-mispredictions";
/// Name of the last-level cache-miss counter emitted by the simulator.
pub const COUNTER_CACHE_MISSES: &str = "cache-misses";
/// Name of the per-worker OS system-time counter (microseconds) emitted by the simulator.
pub const COUNTER_SYSTEM_TIME_US: &str = "system-time-us";
/// Name of the resident-set-size counter (kilobytes) emitted by the simulator.
pub const COUNTER_RESIDENT_KBYTES: &str = "resident-kbytes";

/// Executes workload specifications and produces traces.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `spec` to completion and returns the trace and summary statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the workload specification is invalid (see
    /// [`WorkloadSpec::dependence_graph`]) or when the produced trace fails validation.
    pub fn run(&self, spec: &WorkloadSpec) -> Result<SimResult, SimError> {
        let graph = spec.dependence_graph()?;
        let mut state = SimState::new(&self.config, spec, &graph);
        state.run()?;
        state.into_result()
    }
}

/// Per-worker bookkeeping during the simulation.
#[derive(Debug)]
struct Worker {
    deque: VecDeque<usize>,
    mispredictions: u64,
    cache_misses: u64,
    system_time_cycles: u64,
}

/// `(ready_time, task, creator_cpu, fixed_target)` entries of the pending-ready heap.
type PendingReady = (u64, usize, u32, Option<u32>);

/// The complete mutable simulation state.
struct SimState<'a> {
    config: &'a SimConfig,
    spec: &'a WorkloadSpec,
    graph: &'a DependenceGraph,
    rng: StdRng,
    memory: MemoryManager,
    workers: Vec<Worker>,
    pending_preds: Vec<usize>,
    /// For each task, the latest completion time among its already-finished predecessors.
    /// A task only becomes ready once *all* predecessors are done, i.e. at the maximum of
    /// their completion times — not at the completion time of whichever predecessor
    /// happened to be processed last by the event loop.
    deps_satisfied_at: Vec<u64>,
    created_at: Vec<Option<u64>>,
    creator_cpu: Vec<u32>,
    trace_id: Vec<Option<TaskId>>,
    executed: usize,
    queued: usize,
    events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Tasks whose dependences are satisfied but whose readiness lies in the simulated
    /// future: `(ready_time, task, creator_cpu, fixed_target)`. They are moved into
    /// worker queues only once simulated time reaches `ready_time`, which preserves
    /// causality (a successor can never start before its last predecessor finished).
    pending_ready: BinaryHeap<Reverse<PendingReady>>,
    builder: TraceBuilder,
    region_ids: Vec<aftermath_trace::RegionId>,
    ctr_mispred: CounterId,
    ctr_cache: CounterId,
    ctr_systime: CounterId,
    ctr_rss: CounterId,
    next_rr_cpu: usize,
    makespan: u64,
    stats: SimStats,
}

impl<'a> SimState<'a> {
    fn new(config: &'a SimConfig, spec: &'a WorkloadSpec, graph: &'a DependenceGraph) -> Self {
        let num_cpus = config.machine.num_cpus();
        let memory = MemoryManager::new(&config.machine, &spec.regions, config.runtime.allocation);
        let mut builder = TraceBuilder::new(config.machine.topology.clone());
        for ty in &spec.task_types {
            builder.add_task_type(ty.name.clone(), ty.symbol_addr);
        }
        let ctr_mispred = builder.add_counter(COUNTER_BRANCH_MISPREDICTIONS, true);
        let ctr_cache = builder.add_counter(COUNTER_CACHE_MISSES, true);
        let ctr_systime = builder.add_counter(COUNTER_SYSTEM_TIME_US, true);
        let ctr_rss = builder.add_counter(COUNTER_RESIDENT_KBYTES, true);
        let region_ids = (0..spec.regions.len())
            .map(|i| builder.add_region(memory.base_addr(i), memory.size(i), memory.node_of(i)))
            .collect();
        let workers = (0..num_cpus)
            .map(|_| Worker {
                deque: VecDeque::new(),
                mispredictions: 0,
                cache_misses: 0,
                system_time_cycles: 0,
            })
            .collect();
        let n = spec.tasks.len();
        SimState {
            config,
            spec,
            graph,
            rng: StdRng::seed_from_u64(config.seed),
            memory,
            workers,
            pending_preds: graph.preds.iter().map(Vec::len).collect(),
            deps_satisfied_at: vec![0; n],
            created_at: vec![None; n],
            creator_cpu: vec![0; n],
            trace_id: vec![None; n],
            executed: 0,
            queued: 0,
            events: BinaryHeap::new(),
            pending_ready: BinaryHeap::new(),
            builder,
            region_ids,
            ctr_mispred,
            ctr_cache,
            ctr_systime,
            ctr_rss,
            next_rr_cpu: 0,
            makespan: 0,
            stats: SimStats {
                num_tasks: n,
                ..SimStats::default()
            },
        }
    }

    fn num_cpus(&self) -> usize {
        self.workers.len()
    }

    fn node_of_cpu(&self, cpu: u32) -> NumaNodeId {
        self.config
            .machine
            .topology
            .node_of(CpuId(cpu))
            .unwrap_or(NumaNodeId(0))
    }

    fn run(&mut self) -> Result<(), SimError> {
        // Sample every counter at time zero so that derived metrics have a baseline.
        if self.config.record_counters {
            for cpu in 0..self.num_cpus() as u32 {
                self.sample_counters(cpu, 0)?;
            }
        }

        // Worker 0 creates all root tasks during an initial task-creation phase.
        let roots = self.graph.roots();
        let creation_cost = self.config.runtime.costs.task_creation;
        let creation_end = creation_cost.saturating_mul(roots.len() as u64);
        if creation_end > 0 {
            self.builder.add_state(
                CpuId(0),
                WorkerState::TaskCreation,
                Timestamp(0),
                Timestamp(creation_end),
                None,
            )?;
        }
        for (i, &task) in roots.iter().enumerate() {
            let ts = creation_cost * (i as u64 + 1);
            self.created_at[task] = Some(ts);
            self.creator_cpu[task] = 0;
            // Root tasks are distributed round-robin over all workers, modelling the
            // initial burst of steals that spreads the start-up work across the machine.
            // Each worker therefore begins with a FIFO backlog of initial tasks, which is
            // what makes the initialization phase of programs like seidel execute as a
            // distinct phase before the dependent computation ramps up.
            let target = (i % self.num_cpus()) as u32;
            self.pending_ready
                .push(Reverse((ts, task, 0, Some(target))));
        }

        // Every worker starts polling for work once the creation phase is over (worker 0
        // starts right after it finishes creating the roots).
        for cpu in 0..self.num_cpus() as u32 {
            let start = if cpu == 0 { creation_end } else { 0 };
            self.events.push(Reverse((start, cpu)));
        }

        // Main event loop.
        while let Some(Reverse((time, cpu))) = self.events.pop() {
            if self.executed == self.spec.tasks.len() {
                break;
            }
            self.drain_ready(time);
            self.wake_worker(cpu, time)?;
        }
        Ok(())
    }

    /// Moves every pending task whose ready time has been reached into a worker queue.
    fn drain_ready(&mut self, now: u64) {
        while let Some(&Reverse((ts, task, creator, target))) = self.pending_ready.peek() {
            if ts > now {
                break;
            }
            self.pending_ready.pop();
            match target {
                Some(cpu) => {
                    self.workers[cpu as usize].deque.push_back(task);
                    self.queued += 1;
                }
                None => self.enqueue_ready(task, creator, ts),
            }
        }
    }

    /// Places a freshly ready task into a worker deque according to the scheduling policy.
    fn enqueue_ready(&mut self, task: usize, completing_cpu: u32, _now: u64) {
        let target = match self.config.runtime.scheduling {
            // NUMA-oblivious load balancing: the task may end up on any worker,
            // irrespective of where its input data lives.
            SchedulingPolicy::RandomStealing => self.rng.gen_range(0..self.num_cpus() as u32),
            SchedulingPolicy::NumaAware => self.numa_target(task, completing_cpu),
        };
        self.workers[target as usize].deque.push_back(task);
        self.queued += 1;
    }

    /// Picks the execution target for a task under NUMA-aware scheduling: a worker on the
    /// node holding most of the task's input data, chosen round-robin within the node.
    fn numa_target(&mut self, task: usize, fallback_cpu: u32) -> u32 {
        let num_nodes = self.config.machine.num_nodes();
        let mut bytes_per_node = vec![0u64; num_nodes];
        let mut any = false;
        for &r in &self.spec.tasks[task].reads {
            if let Some(node) = self.memory.node_of(r) {
                bytes_per_node[node.0 as usize] += self.memory.size(r);
                any = true;
            }
        }
        if !any {
            // No placed input data yet (e.g. initialization tasks): distribute round-robin
            // across the whole machine so that first-touch spreads data over all nodes.
            let cpu = self.next_rr_cpu as u32;
            self.next_rr_cpu = (self.next_rr_cpu + 1) % self.num_cpus();
            return cpu;
        }
        let home = bytes_per_node
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .map(|(i, _)| NumaNodeId(i as u32))
            .unwrap_or_else(|| self.node_of_cpu(fallback_cpu));
        let cpus = self.config.machine.topology.cpus_of_node(home);
        if cpus.is_empty() {
            return fallback_cpu;
        }
        // Round-robin within the home node, preferring the least loaded worker.
        cpus.iter()
            .min_by_key(|c| self.workers[c.0 as usize].deque.len())
            .map(|c| c.0)
            .unwrap_or(fallback_cpu)
    }

    /// Handles a worker becoming available at `time`.
    fn wake_worker(&mut self, cpu: u32, time: u64) -> Result<(), SimError> {
        // 1. Local work. Ready queues are FIFO (breadth-first), matching a dataflow
        // run-time like OpenStream where tasks become ready when their inputs arrive and
        // are served in arrival order; older tasks (e.g. the initialization tasks that
        // are all ready at program start) therefore drain before younger ones.
        if let Some(task) = self.workers[cpu as usize].deque.pop_front() {
            self.queued -= 1;
            let dispatch = self.config.runtime.costs.dispatch;
            let next = self.execute_task(task, cpu, time + dispatch)?;
            self.events.push(Reverse((next, cpu)));
            return Ok(());
        }

        // 2. Stealing (only worthwhile when somebody has queued work).
        if self.queued > 0 {
            if let Some((task, victim, overhead)) = self.try_steal(cpu) {
                self.queued -= 1;
                let exec_start = time + overhead;
                if overhead > 0 {
                    self.builder.add_state(
                        CpuId(cpu),
                        WorkerState::LoadBalancing,
                        Timestamp(time),
                        Timestamp(exec_start),
                        None,
                    )?;
                }
                self.builder.add_event(
                    CpuId(cpu),
                    Timestamp(exec_start),
                    DiscreteEventKind::StealAttempt {
                        victim: CpuId(victim),
                    },
                )?;
                if self.config.record_comm_events {
                    self.builder.add_comm(CommEvent {
                        timestamp: Timestamp(exec_start),
                        kind: CommKind::TaskMigration,
                        src_cpu: CpuId(victim),
                        dst_cpu: CpuId(cpu),
                        src_node: self.node_of_cpu(victim),
                        dst_node: self.node_of_cpu(cpu),
                        bytes: 0,
                        task: None,
                    })?;
                }
                let next = self.execute_task(task, cpu, exec_start)?;
                self.events.push(Reverse((next, cpu)));
                return Ok(());
            }
            // Failed steal round: charge the probing cost, then idle briefly.
            let probe_cost = self.config.runtime.costs.steal_attempt
                * u64::from(self.config.runtime.costs.max_steal_attempts);
            let idle_end = time + probe_cost;
            self.stats.steal_attempts += u64::from(self.config.runtime.costs.max_steal_attempts);
            self.builder.add_state(
                CpuId(cpu),
                WorkerState::Idle,
                Timestamp(time),
                Timestamp(idle_end),
                None,
            )?;
            self.stats.idle_cycles += probe_cost;
            self.events.push(Reverse((idle_end, cpu)));
            return Ok(());
        }

        // 3. Nothing to do anywhere: idle for one backoff period.
        let idle_end = time + self.config.runtime.costs.idle_backoff;
        self.builder.add_state(
            CpuId(cpu),
            WorkerState::Idle,
            Timestamp(time),
            Timestamp(idle_end),
            None,
        )?;
        self.stats.idle_cycles += self.config.runtime.costs.idle_backoff;
        self.events.push(Reverse((idle_end, cpu)));
        Ok(())
    }

    /// Attempts to steal a task for `thief`. Returns the task, the victim and the cycles
    /// spent on the steal round.
    fn try_steal(&mut self, thief: u32) -> Option<(usize, u32, u64)> {
        let costs = self.config.runtime.costs;
        let num_cpus = self.num_cpus() as u32;
        let mut overhead = 0u64;
        let victims: Vec<u32> = match self.config.runtime.scheduling {
            SchedulingPolicy::RandomStealing => {
                let mut v = Vec::with_capacity(costs.max_steal_attempts as usize);
                for _ in 0..costs.max_steal_attempts {
                    let candidate = self.rng.gen_range(0..num_cpus);
                    if candidate != thief {
                        v.push(candidate);
                    }
                }
                v
            }
            SchedulingPolicy::NumaAware => {
                // Probe workers ordered by NUMA distance from the thief's node.
                let my_node = self.node_of_cpu(thief);
                let topo = &self.config.machine.topology;
                let mut nodes: Vec<NumaNodeId> = topo.node_ids().collect();
                nodes.sort_by(|a, b| {
                    let da = topo.distance(my_node, *a).unwrap_or(f64::MAX);
                    let db = topo.distance(my_node, *b).unwrap_or(f64::MAX);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                });
                nodes
                    .iter()
                    .flat_map(|n| topo.cpus_of_node(*n))
                    .map(|c| c.0)
                    .filter(|&c| c != thief)
                    .take(costs.max_steal_attempts as usize)
                    .collect()
            }
        };
        for victim in victims {
            overhead += costs.steal_attempt;
            self.stats.steal_attempts += 1;
            if let Some(task) = self.workers[victim as usize].deque.pop_front() {
                self.stats.steal_successes += 1;
                overhead += costs.steal_success;
                return Some((task, victim, overhead));
            }
        }
        None
    }

    /// Executes `task` on `cpu` starting at `start`; returns the time the worker becomes
    /// available again (after executing the task and creating any newly ready successors).
    fn execute_task(&mut self, task: usize, cpu: u32, start: u64) -> Result<u64, SimError> {
        let spec = &self.spec.tasks[task];
        let my_node = self.node_of_cpu(cpu);
        let costs = self.config.machine.costs;

        if self.config.record_counters {
            self.sample_counters(cpu, start)?;
        }

        let mut duration = spec.work_cycles;
        let mut system_cycles = 0u64;

        // First-touch allocation for written regions.
        for &r in &spec.writes {
            if self.memory.policy() == AllocationPolicy::FirstTouch {
                let outcome = self.memory.touch_write(r, my_node);
                if outcome.newly_placed {
                    let fault_cycles = outcome.pages_allocated * costs.page_fault_cost;
                    system_cycles += fault_cycles;
                    self.stats.page_faults += outcome.pages_allocated;
                    self.builder.set_region_node(self.region_ids[r], my_node);
                }
            }
        }

        // Memory transfer costs for reads (and first-touch by read for unplaced inputs).
        for &r in &spec.reads {
            let bytes = self.memory.size(r);
            let node = match self.memory.node_of(r) {
                Some(n) => n,
                None => {
                    let outcome = self.memory.touch_write(r, my_node);
                    if outcome.newly_placed {
                        let fault_cycles = outcome.pages_allocated * costs.page_fault_cost;
                        system_cycles += fault_cycles;
                        self.stats.page_faults += outcome.pages_allocated;
                        self.builder.set_region_node(self.region_ids[r], my_node);
                    }
                    my_node
                }
            };
            duration += self.config.machine.transfer_cost(node, my_node, bytes);
            if node == my_node {
                self.stats.local_bytes_read += bytes;
            } else {
                self.stats.remote_bytes_read += bytes;
                if self.config.record_comm_events {
                    let src_cpu = self
                        .config
                        .machine
                        .topology
                        .cpus_of_node(node)
                        .first()
                        .copied()
                        .unwrap_or(CpuId(cpu));
                    self.builder.add_comm(CommEvent {
                        timestamp: Timestamp(start),
                        kind: CommKind::DataTransfer,
                        src_cpu,
                        dst_cpu: CpuId(cpu),
                        src_node: node,
                        dst_node: my_node,
                        bytes,
                        task: None,
                    })?;
                }
            }
        }

        // Write-back transfer costs.
        for &r in &spec.writes {
            let bytes = self.memory.size(r);
            let node = self.memory.node_of(r).unwrap_or(my_node);
            duration += self.config.machine.transfer_cost(node, my_node, bytes);
        }

        // Micro-architectural penalties.
        duration += spec.branch_mispredictions * costs.branch_miss_penalty;
        duration += spec.cache_misses * costs.cache_miss_penalty;
        duration += system_cycles;

        // Execution-time noise.
        if self.config.duration_noise > 0.0 {
            let f = 1.0 + self.config.duration_noise * (self.rng.gen::<f64>() * 2.0 - 1.0);
            duration = ((duration as f64) * f).round().max(1.0) as u64;
        }
        duration = duration.max(1);

        let end = start + duration;

        // Worker-visible side effects.
        let worker = &mut self.workers[cpu as usize];
        worker.mispredictions += spec.branch_mispredictions;
        worker.cache_misses += spec.cache_misses;
        worker.system_time_cycles += system_cycles;
        self.stats.system_time_cycles += system_cycles;

        // Trace records for the task itself.
        let created = self.created_at[task].unwrap_or(start);
        let trace_task = self.builder.add_task_created_by(
            aftermath_trace::TaskTypeId(spec.task_type as u32),
            CpuId(cpu),
            CpuId(self.creator_cpu[task]),
            Timestamp(created),
            Timestamp(start),
            Timestamp(end),
        );
        self.trace_id[task] = Some(trace_task);
        self.builder.add_state(
            CpuId(cpu),
            WorkerState::TaskExecution,
            Timestamp(start),
            Timestamp(end),
            Some(trace_task),
        )?;
        self.builder.add_event(
            CpuId(cpu),
            Timestamp(end),
            DiscreteEventKind::TaskComplete { task: trace_task },
        )?;
        if self.config.record_memory_accesses {
            for &r in &spec.reads {
                self.builder.add_access(
                    trace_task,
                    AccessKind::Read,
                    self.memory.base_addr(r),
                    self.memory.size(r),
                )?;
            }
            for &r in &spec.writes {
                self.builder.add_access(
                    trace_task,
                    AccessKind::Write,
                    self.memory.base_addr(r),
                    self.memory.size(r),
                )?;
            }
        }

        if self.config.record_counters {
            self.sample_counters(cpu, end)?;
        }

        self.executed += 1;
        self.makespan = self.makespan.max(end);

        // Successor handling: newly ready successors are created by this worker.
        let mut newly_ready = Vec::new();
        for &s in &self.graph.succs[task] {
            self.pending_preds[s] -= 1;
            self.deps_satisfied_at[s] = self.deps_satisfied_at[s].max(end);
            if self.pending_preds[s] == 0 {
                newly_ready.push(s);
            }
        }
        let mut next_free = end;
        if !newly_ready.is_empty() {
            let creation_cost = self.config.runtime.costs.task_creation;
            let creation_end = end + creation_cost * newly_ready.len() as u64;
            self.builder.add_state(
                CpuId(cpu),
                WorkerState::TaskCreation,
                Timestamp(end),
                Timestamp(creation_end),
                None,
            )?;
            for (i, &s) in newly_ready.iter().enumerate() {
                // The successor only becomes available once it has been created by this
                // worker *and* every predecessor has finished in simulated time.
                let ts = (end + creation_cost * (i as u64 + 1)).max(self.deps_satisfied_at[s]);
                self.created_at[s] = Some(ts);
                self.creator_cpu[s] = cpu;
                self.pending_ready.push(Reverse((ts, s, cpu, None)));
            }
            next_free = creation_end;
        }
        Ok(next_free)
    }

    fn sample_counters(&mut self, cpu: u32, time: u64) -> Result<(), SimError> {
        let w = &self.workers[cpu as usize];
        let cycles_per_us = self.config.machine.cycles_per_us.max(1);
        self.builder.add_sample(
            self.ctr_mispred,
            CpuId(cpu),
            Timestamp(time),
            w.mispredictions as f64,
        )?;
        self.builder.add_sample(
            self.ctr_cache,
            CpuId(cpu),
            Timestamp(time),
            w.cache_misses as f64,
        )?;
        self.builder.add_sample(
            self.ctr_systime,
            CpuId(cpu),
            Timestamp(time),
            w.system_time_cycles as f64 / cycles_per_us as f64,
        )?;
        self.builder.add_sample(
            self.ctr_rss,
            CpuId(cpu),
            Timestamp(time),
            self.memory.resident_kbytes() as f64,
        )?;
        Ok(())
    }

    fn into_result(mut self) -> Result<SimResult, SimError> {
        self.stats.resident_kbytes = self.memory.resident_kbytes();
        let trace: Trace = self.builder.finish()?;
        Ok(SimResult {
            trace,
            makespan: self.makespan,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RuntimeConfig, SimConfig};
    use crate::machine::MachineConfig;
    use crate::spec::WorkloadSpec;

    /// A small fork-join workload: one producer, `width` parallel consumers, one join.
    fn fork_join(width: usize, work: u64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new("fork-join");
        let ty = spec.add_task_type("work", 0x1000);
        let src = spec.add_region(4096);
        spec.add_task(ty, work).writes(&[src]).done();
        let mut outs = Vec::new();
        for _ in 0..width {
            let out = spec.add_region(4096);
            spec.add_task(ty, work).reads(&[src]).writes(&[out]).done();
            outs.push(out);
        }
        spec.add_task(ty, work).reads(&outs).done();
        spec
    }

    #[test]
    fn runs_fork_join_to_completion() {
        let spec = fork_join(8, 200_000);
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        assert_eq!(result.trace.tasks().len(), 10);
        assert_eq!(result.stats.num_tasks, 10);
        assert!(result.makespan > 0);
        assert!(result
            .trace
            .tasks()
            .iter()
            .all(|t| t.execution.duration() > 0));
        // Every task execution state refers to a task.
        let exec_states: usize = result
            .trace
            .per_cpu()
            .iter()
            .flat_map(|pc| pc.states())
            .filter(|s| s.state == WorkerState::TaskExecution)
            .count();
        assert_eq!(exec_states, 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = fork_join(16, 100_000);
        let cfg = SimConfig::small_test().with_seed(123);
        let a = Simulator::new(cfg.clone()).run(&spec).unwrap();
        let b = Simulator::new(cfg).run(&spec).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_change_schedule() {
        let spec = fork_join(32, 100_000);
        let a = Simulator::new(SimConfig::small_test().with_seed(1))
            .run(&spec)
            .unwrap();
        let b = Simulator::new(SimConfig::small_test().with_seed(2))
            .run(&spec)
            .unwrap();
        // The traces should differ in some respect (schedules are randomized), though the
        // task count must match.
        assert_eq!(a.trace.tasks().len(), b.trace.tasks().len());
    }

    #[test]
    fn parallel_width_uses_multiple_cpus() {
        let spec = fork_join(32, 2_000_000);
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        let used_cpus: std::collections::HashSet<_> =
            result.trace.tasks().iter().map(|t| t.cpu).collect();
        assert!(used_cpus.len() > 1, "work was not distributed");
    }

    #[test]
    fn serial_chain_on_single_cpu_has_idle_others() {
        // A pure chain has no parallelism; other workers must show idle time.
        let mut spec = WorkloadSpec::new("chain");
        let ty = spec.add_task_type("w", 0);
        let mut prev = None;
        for _ in 0..6 {
            let out = spec.add_region(1024);
            let mut b = spec.add_task(ty, 500_000);
            if let Some(p) = prev {
                b = b.reads(&[p]);
            }
            b.writes(&[out]).done();
            prev = Some(out);
        }
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        assert!(result.stats.idle_cycles > 0);
        assert_eq!(result.trace.tasks().len(), 6);
        // The chain is strictly sequential: the makespan must be at least the sum of the
        // pure work cycles.
        assert!(result.makespan >= 6 * 500_000);
    }

    #[test]
    fn dependences_are_never_violated() {
        // In a chain, every task must start strictly after its predecessor finished.
        let mut spec = WorkloadSpec::new("chain");
        let ty = spec.add_task_type("w", 0);
        let mut prev = None;
        for _ in 0..10 {
            let out = spec.add_region(1024);
            let mut b = spec.add_task(ty, 100_000);
            if let Some(p) = prev {
                b = b.reads(&[p]);
            }
            b.writes(&[out]).done();
            prev = Some(out);
        }
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        let mut tasks: Vec<_> = result.trace.tasks().iter().collect();
        tasks.sort_by_key(|t| t.execution.start);
        for pair in tasks.windows(2) {
            assert!(
                pair[1].execution.start >= pair[0].execution.end,
                "chain tasks overlap: {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn numa_optimized_reduces_remote_reads() {
        // Many independent producer/consumer pairs: with NUMA-aware scheduling the
        // consumer should run on the node where the producer placed the data.
        let mut spec = WorkloadSpec::new("pairs");
        let ty = spec.add_task_type("w", 0);
        for _ in 0..64 {
            let r = spec.add_region(64 * 1024);
            let out = spec.add_region(1024);
            spec.add_task(ty, 50_000).writes(&[r]).done();
            spec.add_task(ty, 200_000).reads(&[r]).writes(&[out]).done();
        }
        let machine = MachineConfig::uniform(4, 4);
        let non_opt = Simulator::new(SimConfig::new(
            machine.clone(),
            RuntimeConfig::non_optimized(),
            7,
        ))
        .run(&spec)
        .unwrap();
        let opt = Simulator::new(SimConfig::new(machine, RuntimeConfig::numa_optimized(), 7))
            .run(&spec)
            .unwrap();
        assert!(
            opt.stats.remote_read_fraction() < non_opt.stats.remote_read_fraction(),
            "optimized {} vs non-optimized {}",
            opt.stats.remote_read_fraction(),
            non_opt.stats.remote_read_fraction()
        );
    }

    #[test]
    fn counters_are_monotone_per_cpu() {
        let mut spec = fork_join(8, 100_000);
        for t in &mut spec.tasks {
            t.branch_mispredictions = 500;
            t.cache_misses = 100;
        }
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        let ctr = result
            .trace
            .counter_by_name(COUNTER_BRANCH_MISPREDICTIONS)
            .unwrap()
            .id;
        for pc in result.trace.per_cpu() {
            if let Some(samples) = pc.samples(ctr) {
                for w in samples.values().windows(2) {
                    assert!(w[1] >= w[0]);
                }
            }
        }
    }

    #[test]
    fn first_touch_records_page_faults_and_rss() {
        let mut spec = WorkloadSpec::new("init");
        let ty = spec.add_task_type("init", 0);
        for _ in 0..8 {
            let r = spec.add_region(64 * 1024);
            spec.add_task(ty, 10_000).writes(&[r]).done();
        }
        let cfg = SimConfig::small_test();
        assert_eq!(cfg.runtime.allocation, AllocationPolicy::FirstTouch);
        let result = Simulator::new(cfg).run(&spec).unwrap();
        assert!(result.stats.page_faults > 0);
        assert!(result.stats.resident_kbytes >= 8 * 64);
        assert!(result.stats.system_time_cycles > 0);
    }

    #[test]
    fn disabling_memory_accesses_omits_them() {
        let spec = fork_join(4, 10_000);
        let mut cfg = SimConfig::small_test();
        cfg.record_memory_accesses = false;
        cfg.record_comm_events = false;
        cfg.record_counters = false;
        let result = Simulator::new(cfg).run(&spec).unwrap();
        assert!(result.trace.accesses().is_empty());
        assert!(result.trace.comm_events().is_empty());
        assert!(result
            .trace
            .per_cpu()
            .iter()
            .all(|pc| pc.num_samples() == 0));
        // Duration-based analyses still possible: tasks are present.
        assert_eq!(result.trace.tasks().len(), 6);
    }

    #[test]
    fn invalid_workload_is_rejected() {
        let spec = WorkloadSpec::new("empty");
        assert!(Simulator::new(SimConfig::small_test()).run(&spec).is_err());
    }

    #[test]
    fn makespan_matches_trace_bounds() {
        let spec = fork_join(8, 100_000);
        let result = Simulator::new(SimConfig::small_test()).run(&spec).unwrap();
        assert!(result.makespan <= result.trace.time_bounds().end.cycles());
    }
}
