//! Seeded inputs: the generated trace and the view scripts the workloads
//! replay. The program under test only ever sees these generated inputs,
//! never the seed.

use aftermath_core::TimelineMode;
use aftermath_trace::{
    AccessKind, CounterId, CpuId, MachineTopology, NumaNodeId, TimeInterval, Timestamp,
    TraceBuilder, WorkerState,
};

/// NUMA nodes of the generated machine.
pub const NODES: u32 = 2;
/// CPUs per NUMA node.
pub const CPUS_PER_NODE: u32 = 4;
/// Task/idle pairs per CPU of the full-size trace (≈ 2.4 M events).
pub const FULL_PAIRS_PER_CPU: usize = 50_000;
/// Horizontal resolution of every frame.
pub const COLUMNS: usize = 800;
/// The one counter of the generated trace.
pub const COUNTER: CounterId = CounterId(0);
/// Deepest zoom level of the view scripts (window = span / 2^level).
pub const MAX_ZOOM: u32 = 10;

/// SplitMix64: small, seedable, and good enough to decorrelate scripts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream of the same seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The six timeline modes; the heatmap's duration scale is fixed so shading
/// never depends on request order.
pub const MODES: [TimelineMode; 6] = [
    TimelineMode::State,
    TimelineMode::Heatmap {
        min_duration: 0,
        max_duration: 200_000,
    },
    TimelineMode::TaskType,
    TimelineMode::NumaRead,
    TimelineMode::NumaWrite,
    TimelineMode::NumaHeat,
];

/// Records the seeded trace: 2 NUMA nodes × 4 CPUs, `pairs_per_cpu` task/idle
/// pairs per CPU over 8 task types, one read and one write access per task,
/// one monotone counter sampled at every task start and end — plus planted
/// anomalies so every detector ranks something: an idle phase on half the
/// CPUs, 0.1 % of tasks at 20× duration (their counter increase scales with
/// them) and one phase of NUMA-remote accesses. Where the phases and the
/// outliers sit is drawn from `seed`.
pub fn trace_builder(seed: u64, pairs_per_cpu: usize) -> TraceBuilder {
    let mut rng = Rng::fork(seed, 1);
    let topology = MachineTopology::uniform(NODES, CPUS_PER_NODE);
    let num_cpus = topology.num_cpus();
    let mut b = TraceBuilder::new(topology);
    let types: Vec<_> = (0..8)
        .map(|i| b.add_task_type(format!("kernel_{i}"), 0x1000 + i))
        .collect();
    let region_bytes = 1u64 << 20;
    let region_base = |node: u32| 0x10_0000u64 * (u64::from(node) + 1);
    for node in 0..NODES {
        b.add_region(region_base(node), region_bytes, Some(NumaNodeId(node)));
    }
    let counter = b.add_counter("retired_ops", true);

    let pairs = pairs_per_cpu as u64;
    let phase_len = (pairs / 32).max(2);
    let idle_phase = pairs / 5 + rng.below(pairs / 5 + 1);
    let remote_phase = pairs * 3 / 5 + rng.below(pairs / 5 + 1);
    let idle_parity = rng.below(2) as usize;

    for cpu_index in 0..num_cpus {
        let cpu = CpuId(cpu_index as u32);
        let local = cpu.0 / CPUS_PER_NODE;
        let remote = (local + 1) % NODES;
        let mut now = 0u64;
        let mut ops = 0.0f64;
        let mut pair = 0u64;
        while pair < pairs {
            if pair == idle_phase && cpu_index % 2 == idle_parity {
                // The planted idle phase: this CPU sits out `phase_len` pairs.
                let idle = phase_len * 91_000;
                b.add_state(
                    cpu,
                    WorkerState::Idle,
                    Timestamp(now),
                    Timestamp(now + idle),
                    None,
                )
                .expect("idle phase in bounds");
                now += idle;
                pair += phase_len;
                continue;
            }
            let mut work = 20_000 + rng.below(120_000);
            if rng.below(1000) == 0 {
                work *= 20;
            }
            let gap = 2_000 + rng.below(20_000);
            let ty = types[((pair + cpu_index as u64) % 8) as usize];
            let (start, end) = (Timestamp(now), Timestamp(now + work));
            let task = b.add_task(ty, cpu, start, start, end);
            b.add_state(cpu, WorkerState::TaskExecution, start, end, Some(task))
                .expect("task state in bounds");
            b.add_state(
                cpu,
                WorkerState::Idle,
                end,
                Timestamp(now + work + gap),
                None,
            )
            .expect("idle state in bounds");
            let in_remote_phase = (remote_phase..remote_phase + phase_len).contains(&pair);
            // Outside the planted phase one read in eight goes remote, but is
            // too small to push its task over the detector's threshold.
            let (read_node, read_bytes) = if in_remote_phase {
                (remote, 256 + rng.below(4096))
            } else if rng.below(8) == 0 {
                (remote, 32 + rng.below(64))
            } else {
                (local, 256 + rng.below(4096))
            };
            let write_node = if in_remote_phase { remote } else { local };
            b.add_access(
                task,
                AccessKind::Read,
                region_base(read_node) + rng.below(region_bytes),
                read_bytes,
            )
            .expect("read access");
            b.add_access(
                task,
                AccessKind::Write,
                region_base(write_node) + rng.below(region_bytes),
                1024 + rng.below(2048),
            )
            .expect("write access");
            b.add_sample(counter, cpu, start, ops).expect("sample");
            ops += (work / 8 + rng.below(512)) as f64;
            b.add_sample(counter, cpu, end, ops).expect("sample");
            now += work + gap;
            pair += 1;
        }
    }
    b
}

/// One viewport: what a frame shows and a query aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    pub mode: TimelineMode,
    pub interval: TimeInterval,
}

/// A window of `span / 2^zoom` cycles at a seeded position inside `bounds`.
pub fn window(rng: &mut Rng, bounds: TimeInterval, zoom: u32) -> TimeInterval {
    let span = bounds.duration().max(1);
    let width = (span >> zoom).max(1);
    let start = bounds.start.0 + rng.below(span - width + 1);
    TimeInterval::from_cycles(start, start + width)
}

/// `rounds` passes over every `(zoom, mode)` combination, each pass in its
/// own seeded order with seeded pan positions. Every pass has the same mix of
/// zoom levels and modes, so latency percentiles compare across seeds; only
/// the order and the positions differ.
pub fn balanced_views(rng: &mut Rng, bounds: TimeInterval, rounds: usize) -> Vec<View> {
    let mut views = Vec::with_capacity(rounds * MODES.len() * (MAX_ZOOM as usize + 1));
    for _ in 0..rounds {
        let mut round: Vec<(u32, TimelineMode)> = (0..=MAX_ZOOM)
            .flat_map(|zoom| MODES.iter().map(move |&mode| (zoom, mode)))
            .collect();
        rng.shuffle(&mut round);
        for (zoom, mode) in round {
            views.push(View {
                mode,
                interval: window(rng, bounds, zoom),
            });
        }
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = trace_builder(7, 200).finish().unwrap();
        let b = trace_builder(7, 200).finish().unwrap();
        let c = trace_builder(8, 200).finish().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bounds = a.time_bounds();
        assert_eq!(
            balanced_views(&mut Rng::fork(7, 2), bounds, 2),
            balanced_views(&mut Rng::fork(7, 2), bounds, 2)
        );
    }
}
