//! Derived metrics: counters computed from high-level events (paper Section II-A, item 5).
//!
//! Aftermath lets the user configure generators for new metrics derived from trace
//! events or from existing counters and overlays them on the timeline. The generators
//! implemented here are the ones used by the paper's case studies:
//!
//! * [`state_concurrency`] — the average number of workers simultaneously in a given
//!   state per interval (Figure 3: number of idle workers),
//! * [`average_task_duration`] — the average duration of the tasks executing in each
//!   interval (Figure 8),
//! * [`aggregate_counter`] — turns per-worker counters into a global statistic by
//!   summing, averaging or taking the maximum across CPUs (used for the `getrusage`
//!   statistics of Figure 10),
//! * [`counter_derivative`] — the discrete derivative (difference quotient) of an
//!   aggregated counter (Figures 10 and 18).

use aftermath_trace::{CounterId, TimeInterval, WorkerState};

use crate::error::AnalysisError;
use crate::pyramid::Window;
use crate::series::TimeSeries;
use crate::session::AnalysisSession;

/// How per-CPU counter values are combined into one global value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationKind {
    /// Sum across CPUs (e.g. total system time).
    Sum,
    /// Arithmetic mean across CPUs.
    Mean,
    /// Maximum across CPUs (e.g. process-wide resident set size sampled per worker).
    Max,
}

fn validate_bins(bins: usize, interval: TimeInterval) -> Result<(), AnalysisError> {
    if bins == 0 {
        return Err(AnalysisError::InvalidParameter(
            "number of intervals must be positive".into(),
        ));
    }
    if interval.is_empty() {
        return Err(AnalysisError::InvalidParameter(
            "analysis interval is empty".into(),
        ));
    }
    Ok(())
}

/// Average number of workers simultaneously in `state`, per bin.
///
/// For every bin ([`TimeInterval::bin`]) this sums, over all workers, the time spent
/// in `state` during the bin and divides by the bin's own duration — exactly the
/// derived counter the paper uses to count idle workers (Figure 3). A value never
/// exceeds the number of CPUs. Each CPU's bins are one timeline row's windows
/// (`Window::columns`): one galloping cursor per CPU, not two searches per bin.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for zero bins or an empty interval.
pub fn state_concurrency(
    session: &AnalysisSession<'_>,
    state: WorkerState,
    bins: usize,
    interval: TimeInterval,
) -> Result<TimeSeries, AnalysisError> {
    validate_bins(bins, interval)?;
    let mut cycles = vec![0u64; bins];
    for cpu in session.trace().topology().cpu_ids() {
        let row = Window::columns(session.pyramid(cpu), session.states(cpu), interval, bins);
        for (sum, window) in cycles.iter_mut().zip(row) {
            *sum += window.state_cycles()[state.index()];
        }
    }
    let values = (0..bins)
        .map(|b| match interval.bin(bins, b).duration() {
            0 => 0.0,
            duration => cycles[b] as f64 / duration as f64,
        })
        .collect();
    Ok(TimeSeries::new(interval, values))
}

/// Average execution duration (in cycles) of the tasks running in each bin (Figure 8).
///
/// A task contributes its full duration to every bin its execution overlaps; each bin
/// reports the mean over the contributing tasks (0 when no task runs in the bin).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for zero bins or an empty interval.
pub fn average_task_duration(
    session: &AnalysisSession<'_>,
    bins: usize,
    interval: TimeInterval,
) -> Result<TimeSeries, AnalysisError> {
    validate_bins(bins, interval)?;
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0u64; bins];
    let duration = interval.duration();
    for task in session.tasks_in(interval) {
        let (first, last) = bin_range(interval, duration, bins, task.execution);
        for b in first..=last {
            sums[b] += task.duration() as f64;
            counts[b] += 1;
        }
    }
    let values = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    Ok(TimeSeries::new(interval, values))
}

/// Aggregates a per-CPU counter into one global series: for every bin boundary the
/// step-interpolated value of the counter on each CPU is combined with `kind`.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for zero bins or an empty interval.
pub fn aggregate_counter(
    session: &AnalysisSession<'_>,
    counter: CounterId,
    kind: AggregationKind,
    bins: usize,
    interval: TimeInterval,
) -> Result<TimeSeries, AnalysisError> {
    validate_bins(bins, interval)?;
    let cpus: Vec<_> = session.trace().topology().cpu_ids().collect();
    let mut values = Vec::with_capacity(bins);
    for b in 0..bins {
        let t = interval.bin(bins, b).end;
        let mut acc = Vec::with_capacity(cpus.len());
        for &cpu in &cpus {
            if let Some(v) = session.counter_value_at(cpu, counter, t) {
                acc.push(v);
            }
        }
        let v = if acc.is_empty() {
            0.0
        } else {
            match kind {
                AggregationKind::Sum => acc.iter().sum(),
                AggregationKind::Mean => acc.iter().sum::<f64>() / acc.len() as f64,
                AggregationKind::Max => acc.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        };
        values.push(v);
    }
    Ok(TimeSeries::new(interval, values))
}

/// The discrete derivative of an aggregated counter: how much the (global) counter grows
/// per cycle in each bin. This is the difference-quotient view used for the system-time
/// and resident-set-size analysis of Figure 10.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for zero bins or an empty interval.
pub fn counter_derivative(
    session: &AnalysisSession<'_>,
    counter: CounterId,
    kind: AggregationKind,
    bins: usize,
    interval: TimeInterval,
) -> Result<TimeSeries, AnalysisError> {
    // One extra bin so the derivative still has `bins` values.
    let series = aggregate_counter(session, counter, kind, bins + 1, interval)?;
    Ok(series.discrete_derivative())
}

/// The bin indices `(first, last)` touched by `item` within `interval`.
fn bin_range(
    interval: TimeInterval,
    duration: u64,
    bins: usize,
    item: TimeInterval,
) -> (usize, usize) {
    let w = (duration / bins as u64).max(1);
    let clamp = |t: u64| -> usize {
        let off = t.saturating_sub(interval.start.0);
        ((off / w) as usize).min(bins - 1)
    };
    let first = clamp(item.start.0);
    let last = clamp(item.end.0.saturating_sub(1).max(item.start.0));
    (first, last.max(first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use crate::testutil::{diamond_trace, small_sim_trace};
    use aftermath_trace::WorkerState;

    #[test]
    fn state_concurrency_of_diamond() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        // Three bins of 100 cycles: one task in the first, two in the second, one in the
        // third → average executing workers per bin is 1, 2, 1.
        let series = state_concurrency(&session, WorkerState::TaskExecution, 3, bounds).unwrap();
        let vals: Vec<i64> = series.values.iter().map(|v| v.round() as i64).collect();
        assert_eq!(vals, vec![1, 2, 1]);
    }

    #[test]
    fn executing_workers_bounded_by_machine_size() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let exec = state_concurrency(&session, WorkerState::TaskExecution, 50, bounds).unwrap();
        assert_eq!(exec.num_bins(), 50);
        // The tiny machine has 4 workers; the concurrency can never exceed that.
        assert!(exec.max().unwrap() <= 4.0 + 1e-9);
        assert!(exec.max().unwrap() > 0.0);
    }

    #[test]
    fn idle_worker_count_from_explicit_idle_states() {
        use aftermath_trace::{CpuId, MachineTopology, Timestamp, TraceBuilder};
        // Two workers: cpu0 idles for the whole first half, cpu1 for everything.
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
        b.add_state(
            CpuId(0),
            WorkerState::Idle,
            Timestamp(0),
            Timestamp(500),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(0),
            WorkerState::TaskCreation,
            Timestamp(500),
            Timestamp(1000),
            None,
        )
        .unwrap();
        b.add_state(
            CpuId(1),
            WorkerState::Idle,
            Timestamp(0),
            Timestamp(1000),
            None,
        )
        .unwrap();
        let trace = b.finish().unwrap();
        let session = AnalysisSession::new(&trace);
        let idle = state_concurrency(
            &session,
            WorkerState::Idle,
            2,
            aftermath_trace::TimeInterval::from_cycles(0, 1000),
        )
        .unwrap();
        assert!((idle.values[0] - 2.0).abs() < 1e-9);
        assert!((idle.values[1] - 1.0).abs() < 1e-9);
    }

    /// Three workers, every one idle over `[0, 1000)`.
    fn all_idle_trace() -> aftermath_trace::Trace {
        use aftermath_trace::{CpuId, MachineTopology, Timestamp, TraceBuilder};
        let mut b = TraceBuilder::new(MachineTopology::uniform(1, 3));
        for cpu in 0..3 {
            b.add_state(
                CpuId(cpu),
                WorkerState::Idle,
                Timestamp(0),
                Timestamp(1000),
                None,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn concurrency_never_exceeds_the_cpu_count() {
        // Every bin is divided by its own duration: the last one, which also holds
        // the remainder of 1000 / bins, reads 3 idle workers like all the others.
        let trace = all_idle_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = TimeInterval::from_cycles(0, 1000);
        for bins in [1, 3, 7, 64, 999, 1000] {
            let idle = state_concurrency(&session, WorkerState::Idle, bins, bounds).unwrap();
            assert_eq!(idle.values, vec![3.0; bins], "{bins} bins");
        }
    }

    #[test]
    fn a_series_describes_the_bins_it_was_computed_over() {
        // Fewer bins than cycles, as many, and more (none with a remainder, which
        // is the test above): the exported rows are the bins the generator reduced
        // over — they tile the interval, stop at its end, and a row holds idle
        // workers exactly when it holds a cycle.
        let trace = all_idle_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = TimeInterval::from_cycles(0, 1000);
        for bins in [8, 1000, 1001, 2000] {
            let idle = state_concurrency(&session, WorkerState::Idle, bins, bounds).unwrap();
            let mut csv = Vec::new();
            crate::export::export_time_series(&idle, &mut csv).unwrap();
            let rows: Vec<(u64, u64, f64)> = String::from_utf8(csv)
                .unwrap()
                .lines()
                .skip(1)
                .map(|line| {
                    let fields: Vec<&str> = line.split(',').collect();
                    let bound = |i: usize| fields[i].parse().unwrap();
                    (bound(0), bound(1), fields[3].parse().unwrap())
                })
                .collect();
            assert_eq!(rows.len(), bins);
            let mut cursor = bounds.start.0;
            for (i, &(start, end, idle)) in rows.iter().enumerate() {
                assert_eq!(
                    TimeInterval::from_cycles(start, end),
                    bounds.bin(bins, i),
                    "row {i} of {bins}"
                );
                assert_eq!(start, cursor, "row {i} of {bins} leaves a gap");
                assert!(end <= bounds.end.0, "row {i} of {bins} passes the end");
                let expected = if end > start { 3.0 } else { 0.0 };
                assert_eq!(idle, expected, "row {i} of {bins}");
                cursor = end;
            }
            assert_eq!(cursor, bounds.end.0, "{bins} bins");
        }
    }

    #[test]
    fn average_task_duration_diamond() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let series = average_task_duration(&session, 3, bounds).unwrap();
        // All tasks last 100 cycles, so every non-empty bin averages 100.
        for v in &series.values {
            assert!((*v - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregate_counter_sum_and_max() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let ctr = session.counter_id("branch-mispredictions").unwrap();
        let sum = aggregate_counter(&session, ctr, AggregationKind::Sum, 10, bounds).unwrap();
        let max = aggregate_counter(&session, ctr, AggregationKind::Max, 10, bounds).unwrap();
        let mean = aggregate_counter(&session, ctr, AggregationKind::Mean, 10, bounds).unwrap();
        for i in 0..10 {
            assert!(sum.values[i] >= max.values[i]);
            assert!(max.values[i] >= mean.values[i] - 1e9);
        }
        // Monotone counters aggregated by sum are non-decreasing.
        for w in sum.values.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn system_time_derivative_concentrated_in_initialization() {
        // In seidel, first-touch page faults happen in the initialization tasks, so the
        // derivative of the aggregated system time must be larger in the first half of
        // the execution than in the second (paper Figure 10).
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let ctr = session.counter_id("system-time-us").unwrap();
        let deriv = counter_derivative(&session, ctr, AggregationKind::Sum, 20, bounds).unwrap();
        let first_half: f64 = deriv.values[..10].iter().sum();
        let second_half: f64 = deriv.values[10..].iter().sum();
        assert!(
            first_half > second_half,
            "system time should grow mostly during initialization ({first_half} vs {second_half})"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        assert!(state_concurrency(&session, WorkerState::Idle, 0, bounds).is_err());
        let empty = aftermath_trace::TimeInterval::from_cycles(5, 5);
        assert!(average_task_duration(&session, 10, empty).is_err());
    }
}
