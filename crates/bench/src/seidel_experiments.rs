//! Reproduction of the seidel case studies: Figures 2/3, 5, 7/8, 9, 10, 14 and 15.

use aftermath_core::{
    derived, stats, AggregationKind, AnalysisSession, IncidenceMatrix, TaskFilter, TimeSeries,
};
use aftermath_sim::{
    machine::MachineConfig, RuntimeConfig, SimConfig, SimResult, Simulator, WorkloadSpec,
};
use aftermath_trace::WorkerState;
use aftermath_workloads::SeidelConfig;

use crate::figures::Scale;

/// The seidel experiment: one workload simulated under the non-optimized and the
/// NUMA-optimized run-time configuration (paper Sections III-A/B and IV).
#[derive(Debug)]
pub struct SeidelExperiment {
    /// Workload configuration used.
    pub workload: SeidelConfig,
    /// Number of CPUs of the simulated machine.
    pub num_cpus: usize,
    /// Result under the non-optimized run-time (random stealing, interleaved placement).
    pub non_optimized: SimResult,
    /// Result under the NUMA-optimized run-time (locality-aware stealing, first touch).
    pub optimized: SimResult,
}

impl SeidelExperiment {
    /// Machine used for the seidel experiments at the given scale.
    ///
    /// The paper uses an SGI UV2000 (192 cores, 24 NUMA nodes) whose Numalink remote
    /// accesses are far more expensive than local ones; the machine model reflects that
    /// with a high remote line penalty, which is what makes the stencil memory-bound.
    pub fn machine(scale: Scale) -> MachineConfig {
        let mut machine = match scale {
            Scale::Test => MachineConfig::uniform(4, 4),
            Scale::Paper => MachineConfig::uniform(24, 8),
        };
        machine.costs.remote_line_penalty = 40.0;
        machine.costs.local_line_cost = 2.0;
        // Physical page allocation (zeroing + kernel bookkeeping) is expensive relative
        // to the stencil's per-element work; this is what makes the first-touch
        // initialization tasks the longest-running ones (Figures 7–10).
        machine.costs.page_fault_cost = 25_000;
        machine
    }

    /// Workload configuration at the given scale.
    pub fn workload(scale: Scale) -> SeidelConfig {
        match scale {
            Scale::Test => SeidelConfig {
                blocks: 20,
                block_elems: 64,
                iterations: 24,
                cycles_per_elem: 2,
                init_cycles: 5_000,
            },
            Scale::Paper => SeidelConfig {
                blocks: 64,
                block_elems: 256,
                iterations: 24,
                cycles_per_elem: 2,
                init_cycles: 40_000,
            },
        }
    }

    /// Simulates the workload at the given scale under one run-time
    /// configuration.
    pub fn simulate(scale: Scale, runtime: RuntimeConfig) -> SimResult {
        let spec: WorkloadSpec = Self::workload(scale).build();
        Simulator::new(SimConfig::new(Self::machine(scale), runtime, 11))
            .run(&spec)
            .expect("seidel simulation must succeed")
    }

    /// Runs both configurations of the experiment.
    pub fn run(scale: Scale) -> Self {
        SeidelExperiment {
            workload: Self::workload(scale),
            num_cpus: Self::machine(scale).num_cpus(),
            non_optimized: Self::simulate(scale, RuntimeConfig::non_optimized()),
            optimized: Self::simulate(scale, RuntimeConfig::numa_optimized()),
        }
    }

    /// Figure 3: average number of idle workers over normalized execution time
    /// (computed on the non-optimized trace, like the Section III analysis).
    pub fn fig3_idle_workers(&self, bins: usize) -> TimeSeries {
        let session = AnalysisSession::new(&self.non_optimized.trace);
        derived::state_concurrency(&session, WorkerState::Idle, bins, session.time_bounds())
            .expect("idle-worker series")
    }

    /// Figure 5: available parallelism per task-graph depth.
    pub fn fig5_parallelism_profile(&self) -> Vec<usize> {
        let session = AnalysisSession::new(&self.non_optimized.trace);
        session
            .task_graph()
            .expect("task graph")
            .parallelism_profile()
    }

    /// Figure 8: average task duration over normalized execution time.
    pub fn fig8_average_task_duration(&self, bins: usize) -> TimeSeries {
        let session = AnalysisSession::new(&self.non_optimized.trace);
        derived::average_task_duration(&session, bins, session.time_bounds())
            .expect("average task duration series")
    }

    /// Figure 9 (typemap): fraction of execution cycles spent in initialization tasks in
    /// the first quarter of the execution vs. the remaining three quarters.
    pub fn fig9_init_fraction_by_phase(&self) -> (f64, f64) {
        let trace = &self.non_optimized.trace;
        let session = AnalysisSession::new(trace);
        let bounds = session.time_bounds();
        let quarter = aftermath_trace::TimeInterval::new(
            bounds.start,
            aftermath_trace::Timestamp(bounds.start.0 + bounds.duration() / 4),
        );
        let rest = aftermath_trace::TimeInterval::new(quarter.end, bounds.end);
        let frac = |interval| {
            let breakdown = stats::task_type_breakdown(&session, interval);
            let total: u64 = breakdown.iter().map(|e| e.cycles).sum();
            let init: u64 = breakdown
                .iter()
                .filter(|e| e.name == aftermath_workloads::seidel::TASK_TYPE_INIT)
                .map(|e| e.cycles)
                .sum();
            if total == 0 {
                0.0
            } else {
                init as f64 / total as f64
            }
        };
        (frac(quarter), frac(rest))
    }

    /// Figure 10: discrete derivatives of the aggregated OS system time and of the
    /// resident set size over normalized execution time.
    pub fn fig10_os_derivatives(&self, bins: usize) -> (TimeSeries, TimeSeries) {
        let session = AnalysisSession::new(&self.non_optimized.trace);
        let bounds = session.time_bounds();
        let systime = session
            .counter_id(aftermath_sim::engine::COUNTER_SYSTEM_TIME_US)
            .expect("system-time counter");
        let rss = session
            .counter_id(aftermath_sim::engine::COUNTER_RESIDENT_KBYTES)
            .expect("rss counter");
        let sys_deriv =
            derived::counter_derivative(&session, systime, AggregationKind::Sum, bins, bounds)
                .expect("system-time derivative");
        let rss_deriv =
            derived::counter_derivative(&session, rss, AggregationKind::Max, bins, bounds)
                .expect("rss derivative");
        (sys_deriv, rss_deriv)
    }

    /// Figure 14: locality of memory accesses under both run-time configurations plus
    /// the resulting speedup (the paper reports 7.91 Gcycles vs 2.59 Gcycles ≈ 3×).
    pub fn fig14_locality(&self) -> Fig14Summary {
        Fig14Summary {
            remote_fraction_non_optimized: self.non_optimized.stats.remote_read_fraction(),
            remote_fraction_optimized: self.optimized.stats.remote_read_fraction(),
            makespan_non_optimized: self.non_optimized.makespan,
            makespan_optimized: self.optimized.makespan,
            speedup: self.non_optimized.makespan as f64 / self.optimized.makespan.max(1) as f64,
        }
    }

    /// Figure 15: the communication incidence matrices of both configurations, summarized
    /// by their diagonal (local-traffic) fraction.
    pub fn fig15_incidence(&self) -> Fig15Summary {
        let non_opt_session = AnalysisSession::new(&self.non_optimized.trace);
        let opt_session = AnalysisSession::new(&self.optimized.trace);
        let non_opt = IncidenceMatrix::build(&non_opt_session, &TaskFilter::new())
            .expect("incidence matrix (non-optimized)");
        let opt = IncidenceMatrix::build(&opt_session, &TaskFilter::new())
            .expect("incidence matrix (optimized)");
        Fig15Summary {
            diagonal_fraction_non_optimized: non_opt.diagonal_fraction(),
            diagonal_fraction_optimized: opt.diagonal_fraction(),
            non_optimized: non_opt,
            optimized: opt,
        }
    }
}

/// Summary of the Figure 14 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig14Summary {
    /// Remote-read fraction of the non-optimized configuration.
    pub remote_fraction_non_optimized: f64,
    /// Remote-read fraction of the optimized configuration.
    pub remote_fraction_optimized: f64,
    /// Makespan of the non-optimized configuration, in cycles.
    pub makespan_non_optimized: u64,
    /// Makespan of the optimized configuration, in cycles.
    pub makespan_optimized: u64,
    /// Speedup of the optimized over the non-optimized configuration.
    pub speedup: f64,
}

/// Summary of the Figure 15 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Summary {
    /// Fraction of traffic on the diagonal (local) for the non-optimized run.
    pub diagonal_fraction_non_optimized: f64,
    /// Fraction of traffic on the diagonal (local) for the optimized run.
    pub diagonal_fraction_optimized: f64,
    /// Full matrix of the non-optimized run.
    pub non_optimized: IncidenceMatrix,
    /// Full matrix of the optimized run.
    pub optimized: IncidenceMatrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> &'static SeidelExperiment {
        use std::sync::OnceLock;
        static EXP: OnceLock<SeidelExperiment> = OnceLock::new();
        EXP.get_or_init(|| SeidelExperiment::run(Scale::Test))
    }

    #[test]
    fn fig3_idle_phases_exist_at_start_or_end() {
        let exp = experiment();
        let idle = exp.fig3_idle_workers(40);
        // Idle workers never exceed the machine size and some idling exists (the wavefront
        // cannot keep every core busy at the start and end of the computation).
        assert!(idle.max().unwrap() <= exp.num_cpus as f64 + 1e-9);
        assert!(idle.max().unwrap() > 0.0);
    }

    #[test]
    fn fig5_profile_has_the_four_paper_phases() {
        let exp = experiment();
        let profile = exp.fig5_parallelism_profile();
        let blocks = exp.workload.blocks;
        // Phase 1: all init tasks are ready at depth 0.
        assert_eq!(profile[0], blocks * blocks);
        // Phase 2: the parallelism collapses to a single task right after initialization.
        assert_eq!(profile[1], 1);
        // Phase 3: the wave front grows to a maximum larger than one...
        let peak = *profile[1..].iter().max().unwrap();
        assert!(peak > 1);
        let peak_depth = profile.iter().skip(1).position(|&p| p == peak).unwrap() + 1;
        // Phase 4: ...and declines towards the end.
        assert!(peak_depth < profile.len() - 1);
        assert!(*profile.last().unwrap() < peak);
    }

    #[test]
    fn fig8_initialization_phase_has_longest_average_duration() {
        let exp = experiment();
        let series = exp.fig8_average_task_duration(20);
        let peak_bin = series.argmax().unwrap();
        // The long-running initialization tasks dominate the beginning of the execution.
        assert!(
            peak_bin < series.num_bins() / 2,
            "expected the duration peak early, found it at bin {peak_bin}"
        );
    }

    #[test]
    fn fig9_init_tasks_dominate_first_quarter_only() {
        let exp = experiment();
        let (first_quarter, rest) = exp.fig9_init_fraction_by_phase();
        assert!(first_quarter > rest);
        assert!(
            rest < 0.2,
            "init tasks should be rare after the first quarter"
        );
    }

    #[test]
    fn fig10_memory_growth_is_concentrated_in_initialization() {
        let exp = experiment();
        let (sys, rss) = exp.fig10_os_derivatives(20);
        let first_half: f64 = sys.values[..10].iter().sum();
        let second_half: f64 = sys.values[10..].iter().sum();
        assert!(first_half > second_half);
        let rss_first: f64 = rss.values[..10].iter().sum();
        let rss_second: f64 = rss.values[10..].iter().sum();
        assert!(rss_first >= rss_second);
    }

    #[test]
    fn fig14_numa_optimization_improves_locality_and_speed() {
        let exp = experiment();
        let fig14 = exp.fig14_locality();
        assert!(
            fig14.remote_fraction_optimized < fig14.remote_fraction_non_optimized,
            "optimized run must be more local: {fig14:?}"
        );
        assert!(
            fig14.speedup > 1.0,
            "optimized run must be faster: {fig14:?}"
        );
    }

    #[test]
    fn fig15_optimized_matrix_is_diagonal_dominated() {
        let exp = experiment();
        let fig15 = exp.fig15_incidence();
        assert!(fig15.diagonal_fraction_optimized > fig15.diagonal_fraction_non_optimized);
        assert!(fig15.diagonal_fraction_optimized > 0.5);
        // The non-optimized run spreads traffic over many node pairs.
        assert!(fig15.diagonal_fraction_non_optimized < 0.6);
    }
}
