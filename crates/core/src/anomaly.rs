//! Automatic detection of cross-layer performance anomalies.
//!
//! The source paper demonstrates that idle phases, NUMA-remote access storms and
//! hardware-counter outliers can be *found* by interactively exploring timelines and
//! filters; its companion paper ("Automatic Detection of Performance Anomalies in
//! Task-Parallel Programs", Drebes et al.) shows the same anomalies can be detected
//! automatically. This module is that automation layer: it scans an
//! [`AnalysisSession`] and produces ranked, typed [`Anomaly`] records with time
//! intervals, affected CPUs and tasks, severity scores and human-readable explanations,
//! so detected regions can drive navigation instead of manual scrubbing (the approach
//! popularized by Traveler for OpenMP task traces).
//!
//! Four detectors ship with the engine — one struct per detector with one inherent
//! `detect`, enabled and parametrised through [`AnomalyConfig`]:
//!
//! * [`IdlePhaseDetector`] — sliding-window analysis of the idle-workers derived
//!   series ([`crate::derived::state_concurrency`], the paper's Figure 3 metric)
//!   against a configurable idle-fraction threshold,
//! * [`NumaLocalityDetector`] — tasks whose remote-access fraction
//!   ([`crate::numa::task_remote_fraction`], Figures 14e–f; read through the
//!   session's [`crate::access_index`]) exceeds the trace-wide
//!   baseline by a configurable number of standard deviations,
//! * [`CounterOutlierDetector`] — per-task monotone-counter increases
//!   ([`crate::counters`], Figure 18) flagged by robust z-score (median/MAD),
//! * [`DurationOutlierDetector`] — task instances far above their type's duration
//!   distribution ([`crate::stats`], Figure 16).
//!
//! Detectors degrade gracefully: a detector whose input data is absent from the trace
//! (e.g. NUMA analysis of a trace without memory accesses) reports no anomalies rather
//! than failing the whole scan, mirroring the trace format's "incremental approach".
//!
//! # Example
//!
//! ```rust
//! use aftermath_core::anomaly::AnomalyConfig;
//! use aftermath_core::{AnalysisSession, TaskFilter};
//! # use aftermath_sim::{SimConfig, Simulator};
//! # use aftermath_workloads::SeidelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let trace = Simulator::new(SimConfig::small_test())
//! #     .run(&SeidelConfig::small().build())?.trace;
//! let session = AnalysisSession::new(&trace);
//! let report = session.detect_anomalies(&AnomalyConfig::default())?;
//! for anomaly in report.iter() {
//!     // Every anomaly can re-focus any existing analysis through a filter.
//!     let filter = TaskFilter::from_anomaly(anomaly);
//!     println!("{:.2}  {}", anomaly.severity, anomaly.explanation);
//!     let _ = filter.count_matches(&trace);
//! }
//! # Ok(())
//! # }
//! ```

use aftermath_exec::{parallel_map, Threads};
use aftermath_trace::{
    CpuId, SamplesView, TaskId, TaskInstance, TaskTypeId, TimeInterval, Trace, WorkerState,
};

use crate::counters::SampleCursor;
use crate::derived::state_concurrency;
use crate::error::AnalysisError;
use crate::numa::task_remote_fraction_from;
use crate::session::AnalysisSession;
use crate::stats::{robust_z_scores, state_fractions_per_cpu};

/// The category of a detected anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A phase during which an unusually large fraction of the workers sat idle.
    IdlePhase,
    /// A cluster of tasks with an unusually high fraction of NUMA-remote accesses.
    NumaLocality,
    /// Tasks whose hardware/OS counter increase is far outside their type's norm.
    CounterOutlier,
    /// Tasks whose execution duration is far outside their type's norm.
    DurationOutlier,
}

impl AnomalyKind {
    /// Stable, lowercase label used in CSV exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::IdlePhase => "idle-phase",
            AnomalyKind::NumaLocality => "numa-locality",
            AnomalyKind::CounterOutlier => "counter-outlier",
            AnomalyKind::DurationOutlier => "duration-outlier",
        }
    }

    /// All kinds, in badge-row order (used by the rendering overlay).
    pub const ALL: [AnomalyKind; 4] = [
        AnomalyKind::IdlePhase,
        AnomalyKind::NumaLocality,
        AnomalyKind::CounterOutlier,
        AnomalyKind::DurationOutlier,
    ];

    /// The badge row index of this kind in [`AnomalyKind::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("ALL contains every kind")
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// One detected performance anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// What kind of anomaly this is.
    pub kind: AnomalyKind,
    /// The time interval the anomaly covers.
    pub interval: TimeInterval,
    /// CPUs involved (empty when the anomaly is not attributable to specific CPUs).
    pub cpus: Vec<CpuId>,
    /// Task instances involved (empty for worker-level anomalies such as idle phases).
    pub tasks: Vec<TaskId>,
    /// Normalized severity in `[0, 1]` used for ranking across detectors.
    pub severity: f64,
    /// The raw detector statistic (idle fraction, z-score, ...); detector-specific.
    pub score: f64,
    /// A human-readable, self-contained explanation of the finding.
    pub explanation: String,
}

/// The ranked result of an anomaly scan: most severe first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnomalyReport {
    anomalies: Vec<Anomaly>,
}

impl AnomalyReport {
    /// Builds a report from raw findings: ranks by severity (descending, raw score
    /// as tie-breaker) and keeps at most `max_anomalies`.
    ///
    /// Ranking is one `sort_unstable` pass over a permutation of indices with the
    /// accumulation order as the explicit tie-break — identical to the previous
    /// stable record sort, but it moves 4-byte indices instead of ~200-byte
    /// `Anomaly` records and then gathers only the `max_anomalies` survivors.
    pub fn from_anomalies(anomalies: Vec<Anomaly>, max_anomalies: usize) -> Self {
        debug_assert!(anomalies.len() <= u32::MAX as usize);
        let mut order: Vec<u32> = (0..anomalies.len() as u32).collect();
        order.sort_unstable_by(|&i, &j| {
            let a = &anomalies[i as usize];
            let b = &anomalies[j as usize];
            (b.severity, b.score)
                .partial_cmp(&(a.severity, a.score))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| i.cmp(&j))
        });
        order.truncate(max_anomalies);
        let mut slots: Vec<Option<Anomaly>> = anomalies.into_iter().map(Some).collect();
        let ranked = order
            .iter()
            .map(|&i| slots[i as usize].take().expect("each index selected once"))
            .collect();
        AnomalyReport { anomalies: ranked }
    }

    /// All anomalies, most severe first.
    pub fn iter(&self) -> impl Iterator<Item = &Anomaly> {
        self.anomalies.iter()
    }

    /// All anomalies as a slice, most severe first.
    pub fn as_slice(&self) -> &[Anomaly] {
        &self.anomalies
    }

    /// Number of anomalies in the report.
    pub fn len(&self) -> usize {
        self.anomalies.len()
    }

    /// Whether the scan found nothing.
    pub fn is_empty(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// The anomalies of one kind, most severe first.
    pub fn of_kind(&self, kind: AnomalyKind) -> impl Iterator<Item = &Anomaly> {
        self.anomalies.iter().filter(move |a| a.kind == kind)
    }

    /// The anomalies overlapping `interval`, most severe first.
    pub fn in_interval(&self, interval: TimeInterval) -> impl Iterator<Item = &Anomaly> + '_ {
        self.anomalies
            .iter()
            .filter(move |a| a.interval.overlaps(&interval))
    }
}

impl<'a> IntoIterator for &'a AnomalyReport {
    type Item = &'a Anomaly;
    type IntoIter = std::slice::Iter<'a, Anomaly>;
    fn into_iter(self) -> Self::IntoIter {
        self.anomalies.iter()
    }
}

// ---------------------------------------------------------------------------
// Idle-phase detector
// ---------------------------------------------------------------------------

/// Detects phases during which a large fraction of the workers sat idle.
///
/// The trace is binned into `bins` windows; a maximal run of consecutive windows whose
/// average idle-worker fraction is at least `idle_fraction` and which spans at least
/// `min_windows` windows becomes one [`AnomalyKind::IdlePhase`] anomaly. This is the
/// automated version of eyeballing the paper's Figure 3 idle-workers curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdlePhaseDetector {
    /// Number of sliding windows the trace is divided into.
    pub bins: usize,
    /// Minimum average fraction of idle workers (0..1) for a window to count.
    pub idle_fraction: f64,
    /// Minimum number of consecutive windows for a run to be reported.
    pub min_windows: usize,
}

impl Default for IdlePhaseDetector {
    fn default() -> Self {
        IdlePhaseDetector {
            bins: 256,
            idle_fraction: 0.5,
            min_windows: 2,
        }
    }
}

impl IdlePhaseDetector {
    /// All idle phases of the trace, in time order (unranked). The idle-workers
    /// series and each phase's per-CPU fractions are window reductions
    /// ([`crate::stats`]).
    ///
    /// # Errors
    ///
    /// Propagates a failure of [`state_concurrency`]; a trace without state
    /// intervals simply has no idle phase.
    pub fn detect(&self, session: &AnalysisSession<'_>) -> Result<Vec<Anomaly>, AnalysisError> {
        let bounds = session.time_bounds();
        let num_cpus = session.trace().topology().num_cpus();
        if bounds.is_empty() || num_cpus == 0 {
            return Ok(Vec::new());
        }
        let bins = self.bins.min(bounds.duration() as usize).max(1);
        let idle = state_concurrency(session, WorkerState::Idle, bins, bounds)?;

        let mut anomalies = Vec::new();
        let mut run_start: Option<usize> = None;
        for (i, &value) in idle.values.iter().chain(std::iter::once(&0.0)).enumerate() {
            let fraction = value / num_cpus as f64;
            if i < idle.num_bins() && fraction >= self.idle_fraction {
                run_start.get_or_insert(i);
                continue;
            }
            let Some(start) = run_start.take() else {
                continue;
            };
            let len = i - start;
            if len < self.min_windows.max(1) {
                continue;
            }
            let interval = idle
                .bin_interval(start)
                .union_hull(&idle.bin_interval(i - 1));
            let mean_fraction =
                idle.values[start..i].iter().sum::<f64>() / (len as f64 * num_cpus as f64);
            // CPUs that were predominantly idle during the phase.
            let per_cpu = state_fractions_per_cpu(session, interval);
            let cpus: Vec<CpuId> = session
                .trace()
                .topology()
                .cpu_ids()
                .zip(per_cpu.iter())
                .filter(|(_, f)| f[WorkerState::Idle.index()] >= self.idle_fraction)
                .map(|(cpu, _)| cpu)
                .collect();
            let duration_fraction = interval.duration() as f64 / bounds.duration() as f64;
            anomalies.push(Anomaly {
                kind: AnomalyKind::IdlePhase,
                interval,
                cpus,
                tasks: Vec::new(),
                // Severity blends depth (how idle) and extent (how long).
                severity: (mean_fraction * duration_fraction.sqrt()).clamp(0.0, 1.0),
                score: mean_fraction,
                explanation: format!(
                    "idle phase {interval}: on average {:.0} % of {num_cpus} workers idle \
                     for {:.1} % of the execution",
                    100.0 * mean_fraction,
                    100.0 * duration_fraction,
                ),
            });
        }
        Ok(anomalies)
    }
}

// ---------------------------------------------------------------------------
// NUMA-locality detector
// ---------------------------------------------------------------------------

/// Detects clusters of tasks whose NUMA-remote access fraction is anomalously high.
///
/// Every task's remote fraction ([`crate::numa::task_remote_fraction`]) is compared against the
/// trace-wide baseline: tasks above `mean + k_sigma · σ` *and* above
/// `min_remote_fraction` are flagged, then merged into time-clustered
/// [`AnomalyKind::NumaLocality`] anomalies. The lower bound keeps a well-behaved,
/// almost-uniform trace (σ ≈ 0) from producing spurious findings; the
/// `max_threshold` cap keeps extreme outliers from masking themselves — remote
/// fractions live in `[0, 1]`, so without the cap a handful of fully-remote tasks in
/// a small trace can inflate σ until `mean + k·σ ≥ 1` and nothing is ever flagged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumaLocalityDetector {
    /// How many standard deviations above the trace-wide mean a task must lie.
    pub k_sigma: f64,
    /// Absolute lower bound on the remote fraction of a flagged task.
    pub min_remote_fraction: f64,
    /// Absolute upper bound on the detection threshold (self-masking guard).
    pub max_threshold: f64,
    /// Flagged tasks closer than this many cycles are merged into one anomaly;
    /// `None` uses 1/64 of the trace duration.
    pub merge_gap_cycles: Option<u64>,
}

impl Default for NumaLocalityDetector {
    fn default() -> Self {
        NumaLocalityDetector {
            k_sigma: 2.0,
            min_remote_fraction: 0.25,
            max_threshold: 0.95,
            merge_gap_cycles: None,
        }
    }
}

impl NumaLocalityDetector {
    /// All NUMA-locality findings of the trace (unranked), the per-task scan fanned
    /// out over up to `threads` workers; the result does not depend on `threads`.
    pub fn detect(&self, session: &AnalysisSession<'_>, threads: Threads) -> Vec<Anomaly> {
        let trace = session.trace();
        if trace.accesses().is_empty() || trace.topology().num_nodes() < 2 {
            return Vec::new();
        }
        // One pass over the access index in task order, fanned out over chunks of
        // the task table; the baseline below reduces the fractions in task order,
        // so its floating-point sums do not depend on how the chunks were
        // scheduled.
        let source = session.accesses();
        // A remote fraction lies in [0, 1]: NaN marks a task without one.
        let fractions = parallel_map(threads, trace.tasks(), |task| {
            task_remote_fraction_from(trace, &source, task).unwrap_or(f64::NAN)
        });
        let attributable = || fractions.iter().filter(|f| !f.is_nan());
        let (n, sum) = attributable().fold((0usize, 0.0), |(n, sum), f| (n + 1, sum + f));
        if n < 2 {
            return Vec::new();
        }
        let n = n as f64;
        let mean = sum / n;
        let sigma = (attributable().map(|f| (f - mean) * (f - mean)).sum::<f64>() / n).sqrt();
        let threshold = (mean + self.k_sigma * sigma)
            .min(self.max_threshold)
            .max(self.min_remote_fraction);

        let flagged = trace
            .tasks()
            .iter()
            .zip(&fractions)
            .filter(|(_, &fraction)| fraction > threshold)
            .map(|(task, &fraction)| (task, fraction))
            .collect();
        let gap = merge_gap(session, self.merge_gap_cycles);
        findings(AnomalyKind::NumaLocality, flagged, gap, |cluster| {
            let mean_remote =
                cluster.members.iter().map(|(_, f)| *f).sum::<f64>() / cluster.members.len() as f64;
            let z_peak = if sigma > 0.0 {
                (cluster.peak - mean) / sigma
            } else {
                f64::INFINITY
            };
            let explanation = format!(
                "{} task(s) in {} access on average {:.0} % remote memory \
                 (trace baseline {:.0} % ± {:.0} %)",
                cluster.members.len(),
                cluster.interval,
                100.0 * mean_remote,
                100.0 * mean,
                100.0 * sigma,
            );
            (mean_remote.clamp(0.0, 1.0), z_peak.min(1e6), explanation)
        })
    }
}

// ---------------------------------------------------------------------------
// Counter-outlier detector
// ---------------------------------------------------------------------------

/// Detects tasks whose monotone-counter increase is far outside their type's norm.
///
/// For every monotone counter and every task type with at least `min_samples`
/// attributable tasks, per-task counter deltas are scored with a robust z-score
/// (median/MAD, [`crate::stats::robust_z_scores`]); tasks beyond `k_mad` are flagged and merged into
/// time-clustered [`AnomalyKind::CounterOutlier`] anomalies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterOutlierDetector {
    /// Robust z-score magnitude beyond which a task is an outlier.
    pub k_mad: f64,
    /// Minimum number of attributable tasks of a type for scoring to be meaningful.
    pub min_samples: usize,
    /// Merge gap in cycles; `None` uses 1/64 of the trace duration.
    pub merge_gap_cycles: Option<u64>,
}

impl Default for CounterOutlierDetector {
    fn default() -> Self {
        CounterOutlierDetector {
            k_mad: 5.0,
            min_samples: 8,
            merge_gap_cycles: None,
        }
    }
}

impl CounterOutlierDetector {
    /// All counter-outlier findings of the trace (unranked), the
    /// `(counter, task type)` units fanned out over up to `threads` workers; the
    /// result does not depend on `threads`.
    pub fn detect(&self, session: &AnalysisSession<'_>, threads: Threads) -> Vec<Anomaly> {
        self.detect_grouped(session, &TypeGroups::of(session.trace()), threads)
    }

    /// [`CounterOutlierDetector::detect`] over the tasks as grouped by `groups`.
    /// Every monotone counter is first attributed to all tasks in one pass in task
    /// order ([`TypeGroups::attribute`]); its `(counter, task type)` units then fan
    /// out — most traces carry one counter, so per-counter units would leave the
    /// scoring on one thread.
    fn detect_grouped(
        &self,
        session: &AnalysisSession<'_>,
        groups: &TypeGroups<'_>,
        threads: Threads,
    ) -> Vec<Anomaly> {
        let trace = session.trace();
        let gap = merge_gap(session, self.merge_gap_cycles);
        let mut out = Vec::new();
        for desc in trace.counters().iter().filter(|desc| desc.monotone) {
            // One map lookup per CPU instead of one per task.
            let samples_by_cpu: Vec<_> = trace
                .topology()
                .cpu_ids()
                .map(|cpu| session.samples(cpu, desc.id))
                .collect();
            let deltas = groups.attribute(&samples_by_cpu);
            let per_type = parallel_map(threads, trace.task_types(), |ty| {
                self.detect_counter_type((desc, &deltas), ty, groups, gap)
            });
            out.extend(per_type.into_iter().flatten());
        }
        out
    }

    /// Scores one monotone counter against the tasks of one type; the
    /// `(counter, task type)` unit of the scan. `counter` pairs the description
    /// with the counter's increase during every task (`None` where it cannot be
    /// attributed), laid out like `groups` ([`TypeGroups::attribute`]).
    fn detect_counter_type(
        &self,
        counter: (&aftermath_trace::CounterDescription, &[Option<f64>]),
        ty: &aftermath_trace::TaskType,
        groups: &TypeGroups<'_>,
        gap: u64,
    ) -> Vec<Anomaly> {
        let (desc, deltas) = counter;
        let run = groups.run_of(ty.id);
        // The group's tasks the counter could be attributed to, and its increases.
        let (members, values): (Vec<u32>, Vec<f64>) = groups.order[run.clone()]
            .iter()
            .zip(&deltas[run])
            .filter_map(|(&i, delta)| Some((i, (*delta)?)))
            .unzip();
        if members.len() < self.min_samples.max(2) {
            return Vec::new();
        }
        let Some((z, median)) = robust_z_scores(&values) else {
            return Vec::new();
        };
        let flagged = members
            .iter()
            .zip(&z)
            .filter(|(_, &z)| z.abs() > self.k_mad)
            .map(|(&i, &z)| (&groups.tasks[i as usize], z))
            .collect();
        findings(AnomalyKind::CounterOutlier, flagged, gap, |cluster| {
            let explanation = format!(
                "{} `{}` task(s) in {} with outlying `{}` increase \
                 (robust z up to {:.1}; type median {:.0})",
                cluster.members.len(),
                ty.name,
                cluster.interval,
                desc.name,
                cluster.peak,
                median,
            );
            (
                severity_from_z(cluster.peak, self.k_mad),
                cluster.peak,
                explanation,
            )
        })
    }
}

/// The trace's tasks grouped by task type, once per report, as a counting sort:
/// `order` lists indices into `tasks` type by type, every run in task order,
/// `durations` holds the tasks' execution durations in the same order, and
/// `starts[ty] .. starts[ty + 1]` is the run of `TaskTypeId(ty)` in both.
///
/// Task-type ids are assigned densely by the trace builder, so runs are indexed
/// directly by `id.0` (the same layout [`crate::stats::task_type_breakdown`] relies
/// on); a task naming a type beyond the table belongs to no run.
struct TypeGroups<'t> {
    tasks: &'t [TaskInstance],
    order: Vec<u32>,
    durations: Vec<f64>,
    starts: Vec<usize>,
}

impl<'t> TypeGroups<'t> {
    fn of(trace: &'t Trace) -> Self {
        let tasks = trace.tasks();
        assert!(
            u32::try_from(tasks.len()).is_ok(),
            "task indices are u32: {} tasks do not fit",
            tasks.len()
        );
        let num_types = trace.task_types().len();
        let mut starts = vec![0usize; num_types + 1];
        for task in tasks {
            if let Some(count) = starts.get_mut(task.task_type.0 as usize + 1) {
                *count += 1;
            }
        }
        for ty in 0..num_types {
            starts[ty + 1] += starts[ty];
        }
        let mut order = vec![0u32; starts[num_types]];
        let mut durations = vec![0.0; starts[num_types]];
        for_each_slot(&starts, tasks, |slot, i, task| {
            order[slot] = i as u32;
            durations[slot] = task.duration() as f64;
        });
        TypeGroups {
            tasks,
            order,
            durations,
            starts,
        }
    }

    /// The run of `ty` in `order` and in every column laid out like it.
    fn run_of(&self, ty: TaskTypeId) -> std::ops::Range<usize> {
        let ty = ty.0 as usize;
        self.starts[ty]..self.starts[ty + 1]
    }

    /// The increase of one counter during every task, laid out like `order`
    /// (`None` where it cannot be attributed): one pass over the tasks in task
    /// order, each CPU's sample column walked by a cursor of its own. A CPU's
    /// tasks usually come in time order, which makes each lookup `O(1)`; in any
    /// order it returns what [`crate::counters::counter_delta_for_task`] returns.
    fn attribute(&self, samples_by_cpu: &[SamplesView<'_>]) -> Vec<Option<f64>> {
        let mut cursors: Vec<_> = samples_by_cpu
            .iter()
            .copied()
            .map(SampleCursor::new)
            .collect();
        let mut deltas = vec![None; self.order.len()];
        for_each_slot(&self.starts, self.tasks, |slot, _, task| {
            deltas[slot] = cursors[task.cpu.0 as usize].delta_for_task(task);
        });
        deltas
    }
}

/// Visits the tasks in task order, each with its slot in the counting sort whose
/// runs begin at `starts` (one more entry than there are task types): `visit`
/// receives the slot, the task's index and the task.
fn for_each_slot<'t>(
    starts: &[usize],
    tasks: &'t [TaskInstance],
    mut visit: impl FnMut(usize, usize, &'t TaskInstance),
) {
    let mut next = starts[..starts.len() - 1].to_vec();
    for (i, task) in tasks.iter().enumerate() {
        if let Some(slot) = next.get_mut(task.task_type.0 as usize) {
            visit(*slot, i, task);
            *slot += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Duration-outlier detector
// ---------------------------------------------------------------------------

/// Detects task instances whose execution duration is far above their type's norm.
///
/// Durations are scored per task type with a robust z-score; tasks beyond `k_mad`
/// (only on the *slow* side unless `detect_fast` is set) are flagged and merged into
/// time-clustered [`AnomalyKind::DurationOutlier`] anomalies. This automates reading
/// the paper's Figure 16 duration histogram for heavy right tails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationOutlierDetector {
    /// Robust z-score beyond which a task is an outlier.
    pub k_mad: f64,
    /// Minimum number of tasks of a type for scoring to be meaningful.
    pub min_samples: usize,
    /// Also flag anomalously *fast* tasks (z below `-k_mad`).
    pub detect_fast: bool,
    /// Merge gap in cycles; `None` uses 1/64 of the trace duration.
    pub merge_gap_cycles: Option<u64>,
}

impl Default for DurationOutlierDetector {
    fn default() -> Self {
        DurationOutlierDetector {
            k_mad: 5.0,
            min_samples: 8,
            detect_fast: false,
            merge_gap_cycles: None,
        }
    }
}

impl DurationOutlierDetector {
    /// All duration-outlier findings of the trace (unranked), the task types
    /// fanned out over up to `threads` workers; the result does not depend on
    /// `threads`.
    pub fn detect(&self, session: &AnalysisSession<'_>, threads: Threads) -> Vec<Anomaly> {
        self.detect_grouped(session, &TypeGroups::of(session.trace()), threads)
    }

    /// [`DurationOutlierDetector::detect`] over the tasks as grouped by `groups`:
    /// one unit per task type.
    fn detect_grouped(
        &self,
        session: &AnalysisSession<'_>,
        groups: &TypeGroups<'_>,
        threads: Threads,
    ) -> Vec<Anomaly> {
        let gap = merge_gap(session, self.merge_gap_cycles);
        let per_type = parallel_map(threads, session.trace().task_types(), |ty| {
            self.detect_type(ty, groups, gap)
        });
        per_type.into_iter().flatten().collect()
    }

    /// Scores the durations of one task type, a slice of the grouped column; the
    /// per-type unit of the scan.
    fn detect_type(
        &self,
        ty: &aftermath_trace::TaskType,
        groups: &TypeGroups<'_>,
        gap: u64,
    ) -> Vec<Anomaly> {
        let run = groups.run_of(ty.id);
        if run.len() < self.min_samples.max(2) {
            return Vec::new();
        }
        let Some((z, median)) = robust_z_scores(&groups.durations[run.clone()]) else {
            return Vec::new();
        };
        let flagged = groups.order[run]
            .iter()
            .zip(&z)
            .filter(|(_, &z)| z > self.k_mad || (self.detect_fast && z < -self.k_mad))
            .map(|(&i, &z)| (&groups.tasks[i as usize], z))
            .collect();
        findings(AnomalyKind::DurationOutlier, flagged, gap, |cluster| {
            let worst = cluster.members.iter().map(|(t, _)| t.duration()).max();
            let explanation = format!(
                "{} `{}` task(s) in {} with outlying duration \
                 (up to {} cycles vs. type median {:.0}; robust z up to {:.1})",
                cluster.members.len(),
                ty.name,
                cluster.interval,
                worst.unwrap_or(0),
                median,
                cluster.peak,
            );
            (
                severity_from_z(cluster.peak, self.k_mad),
                cluster.peak,
                explanation,
            )
        })
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Which detectors run and how many findings are kept.
///
/// `None` disables a detector. The default enables every detector with its default
/// parameters and keeps the 64 most severe findings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Idle-phase detection ([`IdlePhaseDetector`]).
    pub idle: Option<IdlePhaseDetector>,
    /// NUMA-locality detection ([`NumaLocalityDetector`]).
    pub numa: Option<NumaLocalityDetector>,
    /// Counter-outlier detection ([`CounterOutlierDetector`]).
    pub counter: Option<CounterOutlierDetector>,
    /// Duration-outlier detection ([`DurationOutlierDetector`]).
    pub duration: Option<DurationOutlierDetector>,
    /// Maximum number of anomalies kept in the ranked report.
    pub max_anomalies: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            idle: Some(IdlePhaseDetector::default()),
            numa: Some(NumaLocalityDetector::default()),
            counter: Some(CounterOutlierDetector::default()),
            duration: Some(DurationOutlierDetector::default()),
            max_anomalies: 64,
        }
    }
}

impl AnomalyConfig {
    /// A configuration with every detector disabled (enable detectors one by one).
    pub fn none() -> Self {
        AnomalyConfig {
            idle: None,
            numa: None,
            counter: None,
            duration: None,
            max_anomalies: 64,
        }
    }
}

/// Runs every detector enabled in `config` over `session` and returns the ranked
/// report. Prefer [`AnalysisSession::detect_anomalies`], which caches results per
/// configuration.
///
/// # Errors
///
/// Propagates detector failures (invalid parameters); traces lacking the data a
/// detector needs simply contribute no findings.
pub fn detect_anomalies(
    session: &AnalysisSession<'_>,
    config: &AnomalyConfig,
) -> Result<AnomalyReport, AnalysisError> {
    detect_anomalies_with(session, config, Threads::single())
}

/// Like [`detect_anomalies`] but lets every enabled detector fan its internal units
/// out over up to `threads` workers of the execution layer.
///
/// The detectors themselves run in their fixed order (idle, NUMA, counter,
/// duration), each with the whole budget — one parallel level, so a scan never runs
/// more than `threads` workers at a time and no detector is starved by a static
/// budget split. What a detector can spread is its own units: the NUMA detector
/// chunks of the task table, the counter detector the `(counter, task type)` pairs
/// it scores, the duration detector task types; the idle-phase detector, the
/// grouping of the tasks by type (once, shared by both outlier detectors), the
/// counter detector's attribution pass and the NUMA detector's finding tail stay on
/// the calling thread.
/// A trace with one task type and one counter therefore spreads only its NUMA scan.
/// Findings merge in detector → unit order before the stable severity sort, which
/// makes the ranked report **identical** to the sequential scan regardless of the
/// thread count.
///
/// # Errors
///
/// See [`detect_anomalies`].
pub fn detect_anomalies_with(
    session: &AnalysisSession<'_>,
    config: &AnomalyConfig,
    threads: Threads,
) -> Result<AnomalyReport, AnalysisError> {
    let mut anomalies = Vec::new();
    if let Some(detector) = &config.idle {
        anomalies.extend(detector.detect(session)?);
    }
    if let Some(detector) = &config.numa {
        anomalies.extend(detector.detect(session, threads));
    }
    if config.counter.is_some() || config.duration.is_some() {
        // Both statistics-heavy detectors score per task type: group once.
        let groups = TypeGroups::of(session.trace());
        if let Some(detector) = &config.counter {
            anomalies.extend(detector.detect_grouped(session, &groups, threads));
        }
        if let Some(detector) = &config.duration {
            anomalies.extend(detector.detect_grouped(session, &groups, threads));
        }
    }
    Ok(AnomalyReport::from_anomalies(
        anomalies,
        config.max_anomalies,
    ))
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Normalizes a robust z-score into a `[0, 1]` severity: 0.5 at the detection
/// threshold `k`, saturating towards 1 as the score grows past `2k`.
fn severity_from_z(z: f64, k: f64) -> f64 {
    if k <= 0.0 {
        return 1.0;
    }
    (z / (2.0 * k)).clamp(0.0, 1.0)
}

/// The default merge gap of the task-scoring detectors: 1/64 of the trace duration.
fn merge_gap(session: &AnalysisSession<'_>, configured: Option<u64>) -> u64 {
    configured.unwrap_or_else(|| session.time_bounds().duration() / 64)
}

/// One time cluster of flagged tasks, as a detector's wording sees it.
struct Cluster<'a, 't> {
    /// The flagged `(task, score)` pairs of the cluster, by start time.
    members: &'a [(&'t TaskInstance, f64)],
    /// The hull of the members' execution intervals.
    interval: TimeInterval,
    /// The largest score magnitude in the cluster.
    peak: f64,
}

/// The tail every task-scoring detector ends in: `flagged` `(task, score)` pairs are
/// sorted by start time, merged into clusters closer than `gap` cycles, and every
/// cluster becomes one [`Anomaly`] of `kind` over its hull, distinct CPUs and task
/// ids. What is a detector's own — `(severity, score, explanation)` of a cluster —
/// comes from `describe`. No flagged task, no finding.
fn findings(
    kind: AnomalyKind,
    mut flagged: Vec<(&TaskInstance, f64)>,
    gap: u64,
    describe: impl Fn(&Cluster<'_, '_>) -> (f64, f64, String),
) -> Vec<Anomaly> {
    flagged.sort_by_key(|(t, _)| t.execution.start);
    cluster_by_time(&flagged, |(t, _)| t.execution, gap)
        .into_iter()
        .map(|members| {
            let cluster = Cluster {
                members,
                interval: hull_of(members.iter().map(|(t, _)| t.execution)),
                peak: members.iter().map(|(_, s)| s.abs()).fold(0.0, f64::max),
            };
            let (severity, score, explanation) = describe(&cluster);
            Anomaly {
                kind,
                interval: cluster.interval,
                cpus: distinct_cpus(members.iter().map(|(t, _)| t.cpu)),
                tasks: members.iter().map(|(t, _)| t.id).collect(),
                severity,
                score,
                explanation,
            }
        })
        .collect()
}

/// Groups items (sorted by start time) into clusters whose intervals are closer than
/// `gap` cycles to the running hull of the cluster.
fn cluster_by_time<T, F>(items: &[T], interval_of: F, gap: u64) -> Vec<&[T]>
where
    F: Fn(&T) -> TimeInterval,
{
    let mut clusters = Vec::new();
    if items.is_empty() {
        return clusters;
    }
    let mut start = 0;
    let mut hull_end = interval_of(&items[0]).end;
    for (i, item) in items.iter().enumerate().skip(1) {
        let iv = interval_of(item);
        if iv.start.0 > hull_end.0.saturating_add(gap) {
            clusters.push(&items[start..i]);
            start = i;
            hull_end = iv.end;
        } else {
            hull_end = hull_end.max(iv.end);
        }
    }
    clusters.push(&items[start..]);
    clusters
}

/// The union hull of a non-empty set of intervals.
fn hull_of(intervals: impl Iterator<Item = TimeInterval>) -> TimeInterval {
    intervals
        .reduce(|a, b| a.union_hull(&b))
        .expect("hull of at least one interval")
}

/// Distinct CPUs, preserving first-seen order.
fn distinct_cpus(cpus: impl Iterator<Item = CpuId>) -> Vec<CpuId> {
    let mut out: Vec<CpuId> = Vec::new();
    for cpu in cpus {
        if !out.contains(&cpu) {
            out.push(cpu);
        }
    }
    out
}

/// The per-task detector bodies the streaming ones replaced, kept as the oracle
/// the equivalence tests compare whole reports against: every task searches the
/// access table and the region table ([`crate::numa::task_remote_fraction`]) and
/// bisects its CPU's sample column ([`crate::counters::counter_delta_for_task`]),
/// groups are vectors of task references, medians are read off sorted copies
/// ([`crate::stats::reference`]).
#[cfg(test)]
mod reference {
    use super::*;
    use crate::counters::counter_delta_for_task;
    use crate::numa::task_remote_fraction;
    use crate::stats::reference::{robust_z_scores, sorted_median};

    fn merge_gap(session: &AnalysisSession<'_>, configured: Option<u64>) -> u64 {
        configured.unwrap_or_else(|| session.time_bounds().duration() / 64)
    }

    fn group_tasks_by_type(trace: &Trace) -> Vec<Vec<&TaskInstance>> {
        let mut groups: Vec<Vec<&TaskInstance>> = vec![Vec::new(); trace.task_types().len()];
        for task in trace.tasks() {
            if let Some(group) = groups.get_mut(task.task_type.0 as usize) {
                group.push(task);
            }
        }
        groups
    }

    fn numa(d: &NumaLocalityDetector, session: &AnalysisSession<'_>) -> Vec<Anomaly> {
        let trace = session.trace();
        if trace.accesses().is_empty() || trace.topology().num_nodes() < 2 {
            return Vec::new();
        }
        let tasks: Vec<(&TaskInstance, f64)> = trace
            .tasks()
            .iter()
            .filter_map(|task| Some((task, task_remote_fraction(trace, task)?)))
            .collect();
        if tasks.len() < 2 {
            return Vec::new();
        }
        let fractions: Vec<f64> = tasks.iter().map(|(_, f)| *f).collect();
        let n = fractions.len() as f64;
        let mean = fractions.iter().sum::<f64>() / n;
        let sigma = (fractions
            .iter()
            .map(|f| (f - mean) * (f - mean))
            .sum::<f64>()
            / n)
            .sqrt();
        let threshold = (mean + d.k_sigma * sigma)
            .min(d.max_threshold)
            .max(d.min_remote_fraction);
        let mut flagged: Vec<(&TaskInstance, f64)> =
            tasks.into_iter().filter(|(_, f)| *f > threshold).collect();
        if flagged.is_empty() {
            return Vec::new();
        }
        flagged.sort_by_key(|(t, _)| t.execution.start);
        let gap = merge_gap(session, d.merge_gap_cycles);
        let mut anomalies = Vec::new();
        for cluster in cluster_by_time(&flagged, |(t, _)| t.execution, gap) {
            let interval = hull_of(cluster.iter().map(|(t, _)| t.execution));
            let mean_remote = cluster.iter().map(|(_, f)| *f).sum::<f64>() / cluster.len() as f64;
            let peak = cluster.iter().map(|(_, f)| *f).fold(0.0, f64::max);
            let z_peak = if sigma > 0.0 {
                (peak - mean) / sigma
            } else {
                f64::INFINITY
            };
            anomalies.push(Anomaly {
                kind: AnomalyKind::NumaLocality,
                interval,
                cpus: distinct_cpus(cluster.iter().map(|(t, _)| t.cpu)),
                tasks: cluster.iter().map(|(t, _)| t.id).collect(),
                severity: mean_remote.clamp(0.0, 1.0),
                score: z_peak.min(1e6),
                explanation: format!(
                    "{} task(s) in {interval} access on average {:.0} % remote memory \
                     (trace baseline {:.0} % ± {:.0} %)",
                    cluster.len(),
                    100.0 * mean_remote,
                    100.0 * mean,
                    100.0 * sigma,
                ),
            });
        }
        anomalies
    }

    fn counter(d: &CounterOutlierDetector, session: &AnalysisSession<'_>) -> Vec<Anomaly> {
        let trace = session.trace();
        let gap = merge_gap(session, d.merge_gap_cycles);
        let tasks_by_type = group_tasks_by_type(trace);
        let mut out = Vec::new();
        for desc in trace.counters().iter().filter(|desc| desc.monotone) {
            for ty in trace.task_types() {
                let tasks: Vec<(&TaskInstance, f64)> = tasks_by_type[ty.id.0 as usize]
                    .iter()
                    .filter_map(|&task| {
                        let samples = session.samples(task.cpu, desc.id);
                        Some((task, counter_delta_for_task(samples, task)?))
                    })
                    .collect();
                if tasks.len() < d.min_samples.max(2) {
                    continue;
                }
                let values: Vec<f64> = tasks.iter().map(|(_, delta)| *delta).collect();
                let Some(z) = robust_z_scores(&values) else {
                    continue;
                };
                let mut flagged: Vec<(&TaskInstance, f64)> = tasks
                    .iter()
                    .zip(&z)
                    .filter(|(_, &z)| z.abs() > d.k_mad)
                    .map(|(&(t, _), &z)| (t, z))
                    .collect();
                if flagged.is_empty() {
                    continue;
                }
                let median = sorted_median(&values);
                flagged.sort_by_key(|(t, _)| t.execution.start);
                for cluster in cluster_by_time(&flagged, |(t, _)| t.execution, gap) {
                    let interval = hull_of(cluster.iter().map(|(t, _)| t.execution));
                    let peak = cluster.iter().map(|(_, z)| z.abs()).fold(0.0, f64::max);
                    out.push(Anomaly {
                        kind: AnomalyKind::CounterOutlier,
                        interval,
                        cpus: distinct_cpus(cluster.iter().map(|(t, _)| t.cpu)),
                        tasks: cluster.iter().map(|(t, _)| t.id).collect(),
                        severity: severity_from_z(peak, d.k_mad),
                        score: peak,
                        explanation: format!(
                            "{} `{}` task(s) in {interval} with outlying `{}` increase \
                             (robust z up to {:.1}; type median {:.0})",
                            cluster.len(),
                            ty.name,
                            desc.name,
                            peak,
                            median,
                        ),
                    });
                }
            }
        }
        out
    }

    fn duration(d: &DurationOutlierDetector, session: &AnalysisSession<'_>) -> Vec<Anomaly> {
        let trace = session.trace();
        let gap = merge_gap(session, d.merge_gap_cycles);
        let tasks_by_type = group_tasks_by_type(trace);
        let mut out = Vec::new();
        for ty in trace.task_types() {
            let tasks = &tasks_by_type[ty.id.0 as usize];
            if tasks.len() < d.min_samples.max(2) {
                continue;
            }
            let values: Vec<f64> = tasks.iter().map(|t| t.duration() as f64).collect();
            let Some(z) = robust_z_scores(&values) else {
                continue;
            };
            let mut flagged: Vec<(&TaskInstance, f64)> = tasks
                .iter()
                .zip(&z)
                .filter(|(_, &z)| z > d.k_mad || (d.detect_fast && z < -d.k_mad))
                .map(|(&t, &z)| (t, z))
                .collect();
            if flagged.is_empty() {
                continue;
            }
            let median = sorted_median(&values);
            flagged.sort_by_key(|(t, _)| t.execution.start);
            for cluster in cluster_by_time(&flagged, |(t, _)| t.execution, gap) {
                let interval = hull_of(cluster.iter().map(|(t, _)| t.execution));
                let peak = cluster.iter().map(|(_, z)| z.abs()).fold(0.0, f64::max);
                let worst = cluster.iter().map(|(t, _)| t.duration()).max().unwrap_or(0);
                out.push(Anomaly {
                    kind: AnomalyKind::DurationOutlier,
                    interval,
                    cpus: distinct_cpus(cluster.iter().map(|(t, _)| t.cpu)),
                    tasks: cluster.iter().map(|(t, _)| t.id).collect(),
                    severity: severity_from_z(peak, d.k_mad),
                    score: peak,
                    explanation: format!(
                        "{} `{}` task(s) in {interval} with outlying duration \
                         (up to {} cycles vs. type median {:.0}; robust z up to {:.1})",
                        cluster.len(),
                        ty.name,
                        worst,
                        median,
                        peak,
                    ),
                });
            }
        }
        out
    }

    /// [`detect_anomalies`] with the reference bodies (the idle-phase detector
    /// never streamed anything and is shared).
    pub(super) fn detect_anomalies(
        session: &AnalysisSession<'_>,
        config: &AnomalyConfig,
    ) -> AnomalyReport {
        let mut anomalies = Vec::new();
        if let Some(d) = &config.idle {
            anomalies.extend(d.detect(session).expect("idle detection"));
        }
        if let Some(d) = &config.numa {
            anomalies.extend(numa(d, session));
        }
        if let Some(d) = &config.counter {
            anomalies.extend(counter(d, session));
        }
        if let Some(d) = &config.duration {
            anomalies.extend(duration(d, session));
        }
        AnomalyReport::from_anomalies(anomalies, config.max_anomalies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::TaskFilter;
    use crate::testutil::small_sim_trace;
    use aftermath_trace::{
        AccessKind, MachineTopology, NumaNodeId, Timestamp, Trace, TraceBuilder,
    };

    /// Two workers, busy for [0, 1000) and [2000, 3000), both idle in between:
    /// exactly one idle phase in the middle third.
    fn idle_gap_trace(shift: u64) -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
        let ty = b.add_task_type("w", 0);
        for cpu in 0..2u32 {
            for (start, end) in [(0u64, 1_000u64), (2_000, 3_000)] {
                let t = b.add_task(
                    ty,
                    CpuId(cpu),
                    Timestamp(start + shift),
                    Timestamp(start + shift),
                    Timestamp(end + shift),
                );
                b.add_state(
                    CpuId(cpu),
                    WorkerState::TaskExecution,
                    Timestamp(start + shift),
                    Timestamp(end + shift),
                    Some(t),
                )
                .unwrap();
            }
            b.add_state(
                CpuId(cpu),
                WorkerState::Idle,
                Timestamp(1_000 + shift),
                Timestamp(2_000 + shift),
                None,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    /// 16 local tasks plus one task reading exclusively remote memory on a 2-node
    /// machine. The remote task runs in [1600, 1700).
    fn numa_outlier_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let ty = b.add_task_type("w", 0);
        // One region per node.
        b.add_region(0x1000, 4096, Some(NumaNodeId(0)));
        b.add_region(0x10_000, 4096, Some(NumaNodeId(1)));
        for i in 0..16u64 {
            // Alternate CPUs 0 (node 0) and 2 (node 1); each task reads its local region.
            let cpu = if i % 2 == 0 { CpuId(0) } else { CpuId(2) };
            let addr = if i % 2 == 0 { 0x1000 } else { 0x10_000 };
            let t = b.add_task(
                ty,
                cpu,
                Timestamp(i * 100),
                Timestamp(i * 100),
                Timestamp(i * 100 + 80),
            );
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(i * 100),
                Timestamp(i * 100 + 80),
                Some(t),
            )
            .unwrap();
            b.add_access(t, AccessKind::Read, addr, 512).unwrap();
        }
        // The outlier: runs on node 0 but reads only node-1 memory.
        let t = b.add_task(
            ty,
            CpuId(1),
            Timestamp(1_600),
            Timestamp(1_600),
            Timestamp(1_700),
        );
        b.add_state(
            CpuId(1),
            WorkerState::TaskExecution,
            Timestamp(1_600),
            Timestamp(1_700),
            Some(t),
        )
        .unwrap();
        b.add_access(t, AccessKind::Read, 0x10_000, 2048).unwrap();
        b.finish().unwrap()
    }

    /// 20 tasks of uniform duration and counter cost, except task 10: its counter
    /// jumps by 100x. Runs in [1000, 1100).
    fn counter_outlier_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 1));
        let ty = b.add_task_type("w", 0);
        let ctr = b.add_counter("cache-misses", true);
        let mut total = 0.0;
        b.add_sample(ctr, CpuId(0), Timestamp(0), 0.0).unwrap();
        for i in 0..20u64 {
            let t = b.add_task(
                ty,
                CpuId(0),
                Timestamp(i * 100),
                Timestamp(i * 100),
                Timestamp(i * 100 + 90),
            );
            b.add_state(
                CpuId(0),
                WorkerState::TaskExecution,
                Timestamp(i * 100),
                Timestamp(i * 100 + 90),
                Some(t),
            )
            .unwrap();
            total += if i == 10 { 1_000.0 } else { 10.0 };
            b.add_sample(ctr, CpuId(0), Timestamp(i * 100 + 90), total)
                .unwrap();
        }
        b.finish().unwrap()
    }

    /// 20 tasks of ~100 cycles, except one of 10_000 cycles starting at 1000.
    fn duration_outlier_trace() -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
        let ty = b.add_task_type("w", 0);
        for i in 0..20u64 {
            let (cpu, dur) = if i == 10 {
                (CpuId(1), 10_000)
            } else {
                (CpuId(0), 100)
            };
            let start = i * 20_000;
            let t = b.add_task(
                ty,
                cpu,
                Timestamp(start),
                Timestamp(start),
                Timestamp(start + dur),
            );
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(start),
                Timestamp(start + dur),
                Some(t),
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn idle_phase_detector_finds_the_gap() {
        let trace = idle_gap_trace(0);
        let session = AnalysisSession::new(&trace);
        let found = IdlePhaseDetector::default().detect(&session).unwrap();
        assert_eq!(found.len(), 1, "expected exactly one idle phase: {found:?}");
        let a = &found[0];
        assert_eq!(a.kind, AnomalyKind::IdlePhase);
        assert!(a
            .interval
            .overlaps(&TimeInterval::from_cycles(1_000, 2_000)));
        // Both workers were fully idle during the phase.
        assert_eq!(a.cpus.len(), 2);
        assert!(a.score > 0.9, "idle fraction should be ~1: {}", a.score);
        assert!(a.severity > 0.0 && a.severity <= 1.0);
    }

    #[test]
    fn numa_detector_finds_the_remote_task() {
        let trace = numa_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let found = NumaLocalityDetector::default().detect(&session, Threads::single());
        assert_eq!(
            found.len(),
            1,
            "expected exactly one NUMA anomaly: {found:?}"
        );
        let a = &found[0];
        assert_eq!(a.kind, AnomalyKind::NumaLocality);
        assert_eq!(a.tasks.len(), 1);
        assert!(a
            .interval
            .overlaps(&TimeInterval::from_cycles(1_600, 1_700)));
        assert!(
            (a.severity - 1.0).abs() < 1e-9,
            "fully remote task: {}",
            a.severity
        );
    }

    #[test]
    fn numa_outlier_cannot_mask_itself_in_small_traces() {
        // Remote fractions [0.2, 0.2, 0.2, 0.2, 1.0]: the lone fully-remote task
        // inflates sigma until mean + 2σ = 1.0; without the threshold cap the strict
        // `>` comparison would flag nothing.
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let ty = b.add_task_type("w", 0);
        b.add_region(0x1000, 4096, Some(NumaNodeId(0)));
        b.add_region(0x10_000, 4096, Some(NumaNodeId(1)));
        for i in 0..5u64 {
            let t = b.add_task(
                ty,
                CpuId(0),
                Timestamp(i * 100),
                Timestamp(i * 100),
                Timestamp(i * 100 + 80),
            );
            b.add_state(
                CpuId(0),
                WorkerState::TaskExecution,
                Timestamp(i * 100),
                Timestamp(i * 100 + 80),
                Some(t),
            )
            .unwrap();
            if i == 4 {
                b.add_access(t, AccessKind::Read, 0x10_000, 500).unwrap();
            } else {
                b.add_access(t, AccessKind::Read, 0x1000, 400).unwrap();
                b.add_access(t, AccessKind::Read, 0x10_000, 100).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let session = AnalysisSession::new(&trace);
        let found = NumaLocalityDetector::default().detect(&session, Threads::single());
        assert_eq!(found.len(), 1, "cap must defeat self-masking: {found:?}");
        assert_eq!(found[0].tasks.len(), 1);
    }

    #[test]
    fn counter_detector_finds_the_expensive_task() {
        let trace = counter_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let found = CounterOutlierDetector::default().detect(&session, Threads::single());
        assert_eq!(
            found.len(),
            1,
            "expected exactly one counter outlier: {found:?}"
        );
        let a = &found[0];
        assert_eq!(a.kind, AnomalyKind::CounterOutlier);
        assert_eq!(a.tasks.len(), 1);
        assert!(a
            .interval
            .overlaps(&TimeInterval::from_cycles(1_000, 1_100)));
        assert!(a.explanation.contains("cache-misses"));
    }

    #[test]
    fn duration_detector_finds_the_slow_task() {
        let trace = duration_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let found = DurationOutlierDetector::default().detect(&session, Threads::single());
        assert_eq!(
            found.len(),
            1,
            "expected exactly one duration outlier: {found:?}"
        );
        let a = &found[0];
        assert_eq!(a.kind, AnomalyKind::DurationOutlier);
        assert_eq!(a.tasks.len(), 1);
        assert!(a
            .interval
            .overlaps(&TimeInterval::from_cycles(200_000, 210_000)));
    }

    #[test]
    fn detectors_degrade_gracefully_without_data() {
        // A trace without accesses/counters produces no NUMA or counter findings.
        let trace = idle_gap_trace(0);
        let session = AnalysisSession::new(&trace);
        let threads = Threads::single();
        assert!(NumaLocalityDetector::default()
            .detect(&session, threads)
            .is_empty());
        assert!(CounterOutlierDetector::default()
            .detect(&session, threads)
            .is_empty());
        // Too few tasks for duration scoring.
        assert!(DurationOutlierDetector::default()
            .detect(&session, threads)
            .is_empty());
    }

    #[test]
    fn engine_ranks_and_truncates() {
        let trace = duration_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let report = detect_anomalies(&session, &AnomalyConfig::default()).unwrap();
        assert!(!report.is_empty());
        for pair in report.as_slice().windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
        let config = AnomalyConfig {
            max_anomalies: 1,
            ..Default::default()
        };
        let truncated = detect_anomalies(&session, &config).unwrap();
        assert_eq!(truncated.len(), 1);
        // Disabling everything yields an empty report.
        let empty = detect_anomalies(&session, &AnomalyConfig::none()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn session_caches_reports_per_config() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let config = AnomalyConfig::default();
        let a = session.detect_anomalies(&config).unwrap();
        let b = session.detect_anomalies(&config).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "same config must hit the cache"
        );
        let mut other = config;
        other.max_anomalies = 3;
        let c = session.detect_anomalies(&other).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert!(c.len() <= 3);
    }

    #[test]
    fn filter_bridge_restricts_to_the_anomaly() {
        let trace = duration_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let report = detect_anomalies(&session, &AnomalyConfig::default()).unwrap();
        let anomaly = report.iter().next().unwrap();
        let filter = TaskFilter::from_anomaly(anomaly);
        let matched = filter.count_matches(&trace);
        assert!(matched >= 1);
        assert!(matched < trace.tasks().len());
        // Every matched task overlaps the anomalous interval.
        for task in filter.filter_tasks(&trace) {
            assert!(task.execution.overlaps(&anomaly.interval));
        }
    }

    #[test]
    fn detection_is_stable_under_time_shift() {
        // Shifting the whole trace must shift every anomaly rigidly and change nothing
        // else (severities, kinds, affected CPUs).
        for shift in [1_000u64, 123_456, 10_000_000] {
            let base = detect_on(idle_gap_trace(0));
            let shifted = detect_on(idle_gap_trace(shift));
            assert_eq!(base.len(), shifted.len());
            for (a, b) in base.iter().zip(shifted.iter()) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.interval.start.0 + shift, b.interval.start.0);
                assert_eq!(a.interval.end.0 + shift, b.interval.end.0);
                assert_eq!(a.cpus, b.cpus);
                assert!((a.severity - b.severity).abs() < 1e-12);
            }
        }
    }

    fn detect_on(trace: Trace) -> Vec<Anomaly> {
        let session = AnalysisSession::new(&trace);
        detect_anomalies(&session, &AnomalyConfig::default())
            .unwrap()
            .as_slice()
            .to_vec()
    }

    #[test]
    fn report_queries() {
        let trace = duration_outlier_trace();
        let session = AnalysisSession::new(&trace);
        let report = detect_anomalies(&session, &AnomalyConfig::default()).unwrap();
        assert_eq!(
            report.of_kind(AnomalyKind::DurationOutlier).count(),
            report.len()
        );
        assert_eq!(report.of_kind(AnomalyKind::IdlePhase).count(), 0);
        let bounds = session.time_bounds();
        assert_eq!(report.in_interval(bounds).count(), report.len());
        assert_eq!(
            report
                .in_interval(TimeInterval::from_cycles(
                    bounds.end.0 + 1,
                    bounds.end.0 + 2
                ))
                .count(),
            0
        );
    }

    /// The configurations the equivalence tests scan with: the defaults, and a
    /// sensitive one (low thresholds, both tails, tight merge gap) under which
    /// almost every group reports something.
    fn probing_configs() -> [AnomalyConfig; 2] {
        let sensitive = AnomalyConfig {
            idle: Some(IdlePhaseDetector {
                idle_fraction: 0.2,
                ..Default::default()
            }),
            numa: Some(NumaLocalityDetector {
                k_sigma: 0.5,
                min_remote_fraction: 0.01,
                merge_gap_cycles: Some(10),
                ..Default::default()
            }),
            counter: Some(CounterOutlierDetector {
                k_mad: 0.5,
                min_samples: 2,
                merge_gap_cycles: Some(10),
            }),
            duration: Some(DurationOutlierDetector {
                k_mad: 0.5,
                min_samples: 2,
                detect_fast: true,
                merge_gap_cycles: Some(10),
            }),
            max_anomalies: 10_000,
        };
        [AnomalyConfig::default(), sensitive]
    }

    /// Streaming detectors ≡ reference bodies on `trace`: whole reports, at every
    /// thread budget, on a lazy and on a prewarmed session.
    fn assert_reports_equal_reference(trace: &Trace, what: &str) {
        let lazy = AnalysisSession::new(trace);
        let warm = AnalysisSession::new(trace);
        warm.prewarm(Threads::new(2));
        let mut findings = 0;
        for config in probing_configs() {
            let expected = reference::detect_anomalies(&lazy, &config);
            findings += expected.len();
            for threads in [Threads::single(), Threads::new(2), Threads::auto()] {
                for session in [&lazy, &warm] {
                    let got = detect_anomalies_with(session, &config, threads).unwrap();
                    assert_eq!(got, expected, "{what}, {threads:?}");
                }
            }
            // Every detector alone.
            for kind in AnomalyKind::ALL {
                let alone = AnomalyConfig {
                    idle: config.idle.filter(|_| kind == AnomalyKind::IdlePhase),
                    numa: config.numa.filter(|_| kind == AnomalyKind::NumaLocality),
                    counter: config
                        .counter
                        .filter(|_| kind == AnomalyKind::CounterOutlier),
                    duration: config
                        .duration
                        .filter(|_| kind == AnomalyKind::DurationOutlier),
                    max_anomalies: config.max_anomalies,
                };
                assert_eq!(
                    detect_anomalies(&lazy, &alone).unwrap(),
                    reference::detect_anomalies(&lazy, &alone),
                    "{what}, {kind} alone"
                );
            }
        }
        assert!(findings > 0, "{what}: a vacuous comparison proves nothing");
    }

    #[test]
    fn streaming_detectors_equal_reference_on_the_adversarial_corpus() {
        use aftermath_sim::{SimConfig, Simulator};
        for workload in aftermath_workloads::adversarial::all(42) {
            let trace = Simulator::new(SimConfig::small_test())
                .run(&workload.spec)
                .expect("adversarial workload simulates")
                .trace;
            assert_reports_equal_reference(&trace, &workload.manifest.note);
        }
        assert_reports_equal_reference(&small_sim_trace(), "seidel");
        assert_reports_equal_reference(&numa_outlier_trace(), "numa outlier");
        assert_reports_equal_reference(&duration_outlier_trace(), "duration outlier");
    }

    /// `counters` monotone counters (the last of three is non-monotone and must be
    /// ignored) over 4 CPUs × 2 task types, with everything that makes counter
    /// attribution awkward: tasks registered in *descending* time order per CPU
    /// (cursors must walk backwards), values that fall as well as rise, a counter
    /// whose sampling starts late (early tasks unattributable), a CPU it never
    /// samples, a counter that overflows to infinity on one CPU (increases of inf
    /// and NaN), and a task type with no task at all.
    fn awkward_counter_trace(counters: usize) -> Trace {
        let mut b = TraceBuilder::new(MachineTopology::uniform(2, 2));
        let types = [b.add_task_type("even", 0), b.add_task_type("odd", 0)];
        b.add_task_type("never-run", 0);
        b.add_region(0x1000, 4096, Some(NumaNodeId(0)));
        b.add_region(0x10_000, 4096, Some(NumaNodeId(1)));
        let ids: Vec<_> = (0..counters)
            .map(|c| b.add_counter(format!("c{c}"), c != 2))
            .collect();
        const TASKS_PER_CPU: u64 = 40;
        for cpu in 0..4u32 {
            // Latest first: task order is the reverse of time order on every CPU.
            for slot in (0..TASKS_PER_CPU).rev() {
                let start = slot * 100 + u64::from(cpu);
                let end =
                    start + 40 + (slot * 7 + u64::from(cpu)) % 50 + 900 * u64::from(slot == 17);
                let end = end.min(start + 99);
                let t = b.add_task(
                    types[(slot % 2) as usize],
                    CpuId(cpu),
                    Timestamp(start),
                    Timestamp(start),
                    Timestamp(end),
                );
                b.add_state(
                    CpuId(cpu),
                    WorkerState::TaskExecution,
                    Timestamp(start),
                    Timestamp(end),
                    Some(t),
                )
                .unwrap();
                let remote = slot % 9 == 4;
                let addr = if (cpu < 2) != remote {
                    0x1000
                } else {
                    0x10_000
                };
                b.add_access(t, AccessKind::Read, addr, 64 + slot).unwrap();
            }
            for (c, &id) in ids.iter().enumerate() {
                if c == 1 && cpu == 3 {
                    continue;
                }
                let first = if c == 1 { TASKS_PER_CPU / 4 } else { 0 };
                let mut value = 1_000.0;
                for slot in first..TASKS_PER_CPU {
                    // Sampled before and after every task; the "monotone" counters
                    // dip now and then and spike once.
                    b.add_sample(id, CpuId(cpu), Timestamp(slot * 100), value)
                        .unwrap();
                    value += match slot % 11 {
                        3 => -25.0,
                        7 => 4_000.0,
                        // From here on this CPU's increases are inf and NaN.
                        _ if c == 0 && cpu == 2 && slot == 30 => f64::INFINITY,
                        _ => 10.0 + (slot % 3) as f64,
                    };
                    b.add_sample(id, CpuId(cpu), Timestamp(slot * 100 + 99), value)
                        .unwrap();
                }
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn streaming_detectors_equal_reference_on_awkward_counters() {
        for counters in 0..=3 {
            let trace = awkward_counter_trace(counters);
            assert_reports_equal_reference(&trace, &format!("{counters} counter(s)"));
            // The awkwardness is real: tasks run against time order per CPU.
            let on_cpu0: Vec<_> = trace
                .tasks()
                .iter()
                .filter(|t| t.cpu == CpuId(0))
                .map(|t| t.execution.start)
                .collect();
            assert!(on_cpu0.windows(2).all(|w| w[0] > w[1]));
        }
    }
}
