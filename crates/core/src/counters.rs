//! Attribution of monotone counters to tasks (paper Sections IV and V).
//!
//! Hardware counters are sampled on each CPU immediately before and immediately after
//! every task execution. For a monotone counter, the difference between the value at the
//! end and at the start of a task's execution is the number of events (cache misses,
//! branch mispredictions, ...) incurred by that task — the quantity Aftermath exports
//! for external statistical analysis and overlays on the heatmap in Figure 18.

use aftermath_trace::{CounterId, SamplesView, TaskId, TaskInstance, TimeInterval, Timestamp};

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::index::{gallop, value_at};
use crate::session::AnalysisSession;

/// The increase of a monotone counter during one task's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCounterDelta {
    /// The task the delta belongs to.
    pub task: TaskId,
    /// Execution duration of the task in cycles.
    pub duration_cycles: u64,
    /// Increase of the counter between the start and the end of the execution.
    pub delta: f64,
}

impl TaskCounterDelta {
    /// Counter events per thousand cycles of execution (the x-axis of Figure 19).
    pub fn rate_per_kcycle(&self) -> f64 {
        if self.duration_cycles == 0 {
            0.0
        } else {
            self.delta / (self.duration_cycles as f64 / 1000.0)
        }
    }
}

/// Counter increase for a single task given that CPU's samples of the counter.
///
/// Returns `None` when no sample at or before the execution start exists (the counter
/// was not being sampled yet).
pub fn counter_delta_for_task(samples: SamplesView<'_>, task: &TaskInstance) -> Option<f64> {
    let before = value_at(samples, task.execution.start)?;
    let after = value_at(samples, task.execution.end)?;
    Some(after - before)
}

/// [`value_at`] for a run of lookups on one sample stream: each lookup gallops
/// from where the previous one ended instead of bisecting the whole column, so a
/// run in ascending time order — a CPU's tasks of one type, in task order — costs
/// `O(1)` amortised per lookup. A lookup in *any* order returns exactly what
/// [`value_at`] returns; only its cost depends on the order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleCursor<'a> {
    samples: SamplesView<'a>,
    /// Number of samples at or before the previously looked-up time.
    at_or_before: usize,
}

impl<'a> SampleCursor<'a> {
    /// A cursor at the start of `samples`.
    pub(crate) fn new(samples: SamplesView<'a>) -> Self {
        SampleCursor {
            samples,
            at_or_before: 0,
        }
    }

    /// The value of the last sample taken at or before `t`.
    pub(crate) fn value_at(&mut self, t: Timestamp) -> Option<f64> {
        let ts = self.samples.timestamps();
        self.at_or_before = gallop(ts, self.at_or_before, |&s| s <= t.0);
        self.at_or_before
            .checked_sub(1)
            .map(|i| self.samples.value(i))
    }

    /// [`counter_delta_for_task`] through the cursor, for a task executing
    /// over `execution`.
    pub(crate) fn delta_over(&mut self, execution: TimeInterval) -> Option<f64> {
        let before = self.value_at(execution.start)?;
        let after = self.value_at(execution.end)?;
        Some(after - before)
    }
}

/// Attributes `counter` to every task accepted by `filter`.
///
/// Tasks for which the counter cannot be attributed (no bracketing samples on their CPU)
/// are skipped, mirroring Aftermath's export behaviour.
///
/// # Errors
///
/// Returns [`AnalysisError::UnknownCounter`] when the counter is not described in the
/// trace and [`AnalysisError::MissingData`] when no task could be attributed at all.
pub fn attribute_counter(
    session: &AnalysisSession<'_>,
    counter: CounterId,
    filter: &TaskFilter,
) -> Result<Vec<TaskCounterDelta>, AnalysisError> {
    let trace = session.trace();
    if trace.counter(counter).is_none() {
        return Err(AnalysisError::UnknownCounter(counter));
    }
    let mut out = Vec::new();
    for task in filter.filter_tasks(trace) {
        if let Some(delta) = session.counter_delta(&task, counter) {
            out.push(TaskCounterDelta {
                task: task.id,
                duration_cycles: task.duration(),
                delta,
            });
        }
    }
    if out.is_empty() {
        return Err(AnalysisError::MissingData(
            "counter could not be attributed to any task",
        ));
    }
    Ok(out)
}

/// Summary statistics over a set of per-task counter deltas or durations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl SummaryStats {
    /// Computes summary statistics of `values` (all zeros for an empty slice).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return SummaryStats::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        SummaryStats {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Summary statistics of the execution durations of the tasks accepted by `filter`.
pub fn duration_stats(session: &AnalysisSession<'_>, filter: &TaskFilter) -> SummaryStats {
    let durations: Vec<f64> = filter
        .filter_tasks(session.trace())
        .map(|t| t.duration() as f64)
        .collect();
    SummaryStats::of(&durations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_sim_trace;
    use crate::AnalysisSession;

    #[test]
    fn summary_stats_basics() {
        let s = SummaryStats::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(SummaryStats::of(&[]).count, 0);
    }

    #[test]
    fn attribution_covers_all_tasks_of_sim_trace() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("cache-misses").unwrap();
        let deltas = attribute_counter(&session, counter, &TaskFilter::new()).unwrap();
        assert_eq!(deltas.len(), trace.tasks().len());
        // The simulator samples exactly at task boundaries, so all deltas are >= 0 and
        // the total matches the final counter values summed over CPUs.
        assert!(deltas.iter().all(|d| d.delta >= 0.0));
        let attributed: f64 = deltas.iter().map(|d| d.delta).sum();
        let final_total: f64 = trace
            .topology()
            .cpu_ids()
            .filter_map(|cpu| session.samples(cpu, counter).last().map(|s| s.value))
            .sum();
        assert!((attributed - final_total).abs() < 1e-6);
    }

    #[test]
    fn sample_cursor_equals_value_at_in_any_order() {
        use aftermath_trace::{CounterSample, CpuId, SampleColumns};
        // Irregular spacing with repeated timestamps.
        let mut columns = SampleColumns::new(CounterId(0), CpuId(0));
        let mut t = 5u64;
        for i in 0..400u64 {
            t += [0, 1, 1, 7, 30][(i % 5) as usize];
            columns.push(CounterSample::new(
                CounterId(0),
                CpuId(0),
                Timestamp(t),
                i as f64,
            ));
        }
        let empty = SampleColumns::new(CounterId(0), CpuId(0));
        for samples in [columns.view(), columns.view().slice(0, 1), empty.view()] {
            let mut cursor = SampleCursor::new(samples);
            let ascending = (0..t + 40).step_by(3);
            let descending = (0..t + 40).rev().step_by(11);
            // Far jumps in both directions, then a scramble.
            let jumps = [0, t + 100, 0, t / 2, 1, t, 6, 5, 4, u64::MAX, 0];
            let scrambled = (0..500u64).map(|i| i.wrapping_mul(0x9E37_79B9) % (t + 40));
            for probe in ascending
                .chain(descending)
                .chain(jumps)
                .chain(scrambled)
                .map(Timestamp)
            {
                assert_eq!(
                    cursor.value_at(probe),
                    value_at(samples, probe),
                    "at {probe:?}"
                );
            }
        }
    }

    #[test]
    fn rate_per_kcycle() {
        let d = TaskCounterDelta {
            task: TaskId(0),
            duration_cycles: 2_000,
            delta: 10.0,
        };
        assert!((d.rate_per_kcycle() - 5.0).abs() < 1e-12);
        let zero = TaskCounterDelta {
            task: TaskId(0),
            duration_cycles: 0,
            delta: 10.0,
        };
        assert_eq!(zero.rate_per_kcycle(), 0.0);
    }

    #[test]
    fn unknown_counter_rejected() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        assert!(matches!(
            attribute_counter(&session, CounterId(99), &TaskFilter::new()),
            Err(AnalysisError::UnknownCounter(_))
        ));
    }

    #[test]
    fn duration_stats_match_tasks() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let stats = duration_stats(&session, &TaskFilter::new());
        assert_eq!(stats.count, trace.tasks().len());
        assert!(stats.mean > 0.0);
        assert!(stats.max >= stats.mean && stats.mean >= stats.min);
    }
}
