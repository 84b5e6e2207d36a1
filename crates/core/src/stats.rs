//! Statistical views: histograms, state breakdowns, parallelism and per-type statistics
//! (the paper's statistics panel, Section II-A item 2).

use aftermath_trace::{TaskTypeId, TimeInterval, WorkerState};
use serde::{Deserialize, Serialize};

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::session::AnalysisSession;

/// A histogram over `f64` values with equally sized bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower bound of the first bin.
    pub min: f64,
    /// Upper bound of the last bin.
    pub max: f64,
    /// Number of values per bin.
    pub counts: Vec<u64>,
    /// Total number of values (sum of `counts`).
    pub total: u64,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` bins.
    ///
    /// The range defaults to the minimum and maximum of the values; pass `range` to fix
    /// it explicitly (values outside the range are clamped into the first/last bin).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `bins` is zero or the range is
    /// degenerate and the values are empty.
    pub fn from_values(
        values: &[f64],
        bins: usize,
        range: Option<(f64, f64)>,
    ) -> Result<Self, AnalysisError> {
        if bins == 0 {
            return Err(AnalysisError::InvalidParameter(
                "histogram needs at least one bin".into(),
            ));
        }
        let (min, max) = match range {
            Some(r) => r,
            None => {
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if values.is_empty() {
                    (0.0, 1.0)
                } else {
                    (min, max)
                }
            }
        };
        if max <= min && !values.is_empty() {
            // All values identical: a single-bin histogram around that value.
            let mut counts = vec![0u64; bins];
            counts[0] = values.len() as u64;
            return Ok(Histogram {
                min,
                max: min + 1.0,
                counts,
                total: values.len() as u64,
            });
        }
        let mut counts = vec![0u64; bins];
        let width = (max - min) / bins as f64;
        for &v in values {
            let idx = if width > 0.0 {
                (((v - min) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize
            } else {
                0
            };
            counts[idx] += 1;
        }
        Ok(Histogram {
            min,
            max,
            counts,
            total: values.len() as u64,
        })
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Lower bound of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        self.min + self.bin_width() * i as f64
    }

    /// Fraction of values falling into bin `i` (0 for an empty histogram).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Indices of local maxima ("peaks"): bins whose count exceeds both neighbours and is
    /// at least `min_fraction` of the total.
    pub fn peaks(&self, min_fraction: f64) -> Vec<usize> {
        let n = self.counts.len();
        (0..n)
            .filter(|&i| {
                let c = self.counts[i];
                let left = if i == 0 { 0 } else { self.counts[i - 1] };
                let right = if i + 1 == n { 0 } else { self.counts[i + 1] };
                c > left && c >= right && self.fraction(i) >= min_fraction
            })
            .collect()
    }
}

/// Median of a non-empty slice by selection, reordering it: `O(n)` instead of a
/// full sort, and bit-identical to the median read off the sorted slice (the
/// `reference` oracle). Values are ordered by [`f64::total_cmp`], a total order,
/// so the sorted sequence — and with it the middle elements — is unique: the
/// upper middle is what selection places at `n / 2`, and for even `n` the lower
/// middle is the maximum of the partition left of it.
///
/// For the finite values the analyses produce this is the numeric order; it only
/// adds that `-0.0` sorts before `+0.0`.
fn median_in_place(values: &mut [f64]) -> f64 {
    let n = values.len();
    let (below, &mut upper, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        return upper;
    }
    let lower = below
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .expect("an even, non-zero length has a lower half");
    (lower + upper) / 2.0
}

/// Median of `values` (`None` when empty). The input is copied; NaNs are not
/// expected (analysis values are always finite).
pub fn median_of(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(median_in_place(&mut values.to_vec()))
}

/// Median absolute deviation of `values` around `center` (`None` when empty).
///
/// Together with [`median_of`] this is the robust scale estimate used by the anomaly
/// detectors ([`crate::anomaly`]): unlike mean/standard deviation, a single extreme
/// outlier cannot mask itself by inflating the baseline.
pub fn mad_of(values: &[f64], center: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    Some(median_in_place(&mut deviations))
}

/// Scale factor turning a MAD into a standard-deviation-consistent estimate for
/// normally distributed data (1 / Φ⁻¹(3/4)).
pub const MAD_CONSISTENCY: f64 = 1.4826;

/// Scale factor turning a mean absolute deviation into a standard-deviation-consistent
/// estimate for normally distributed data (√(π/2)).
pub const MEAN_AD_CONSISTENCY: f64 = 1.2533;

/// Robust z-scores of `values` using median/MAD (the outlier statistic of the anomaly
/// detectors). Returns `None` only for an empty slice.
///
/// When the MAD is zero (at least half the values identical) the scale falls back to
/// the *mean* absolute deviation around the median: a lone extreme outlier among
/// constant values still scores very high, a moderate spread among mostly-identical
/// values scores moderately, and fully identical inputs score a harmless all-zero.
pub fn robust_z_scores(values: &[f64]) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    robust_z_scores_into(values, &mut out).map(|_| out)
}

/// [`robust_z_scores`] writing into a caller-provided buffer (cleared first), which
/// doubles as the selection scratch: one allocation per call, none with a warm
/// buffer. Returns the median the scores are centred on, which the anomaly
/// detectors quote in their explanations — `None` (leaving `out` empty) only for an
/// empty input.
pub fn robust_z_scores_into(values: &[f64], out: &mut Vec<f64>) -> Option<f64> {
    out.clear();
    if values.is_empty() {
        return None;
    }
    // Median: select in a copy of the values in `out`.
    out.extend_from_slice(values);
    let median = median_in_place(out);
    // MAD: the deviations' multiset is order-independent, so the reordered copy
    // can be rewritten in place and selected again.
    for v in out.iter_mut() {
        *v = (*v - median).abs();
    }
    let mad = median_in_place(out);
    let scale = if mad > 0.0 {
        mad * MAD_CONSISTENCY
    } else {
        // Summed over `values` in input order — float addition is
        // order-sensitive, and the reordered deviations in `out` would sum to
        // different last bits.
        let mean_ad = values.iter().map(|v| (v - median).abs()).sum::<f64>() / values.len() as f64;
        if mean_ad > 0.0 {
            mean_ad * MEAN_AD_CONSISTENCY
        } else {
            // All values identical: any positive scale yields all-zero scores.
            1.0
        }
    };
    for (z, &v) in out.iter_mut().zip(values) {
        *z = (v - median) / scale;
    }
    Some(median)
}

/// Histogram of the execution durations (in cycles) of the tasks accepted by `filter`
/// (the paper's Figure 16 view).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] when `bins` is zero.
pub fn task_duration_histogram(
    session: &AnalysisSession<'_>,
    filter: &TaskFilter,
    bins: usize,
) -> Result<Histogram, AnalysisError> {
    let durations: Vec<f64> = filter
        .filter_tasks(session.trace())
        .map(|t| t.duration() as f64)
        .collect();
    Histogram::from_values(&durations, bins, None)
}

/// Cycles each worker state covers inside `interval`, summed over all CPUs (indexed
/// by [`WorkerState::index`]): one window reduction per CPU
/// ([`crate::session::IntervalQuery::state_cycles`]). Every state statistic below,
/// every bin of [`crate::derived::state_concurrency`] and with it the idle-phase
/// detector read this, so they cost what a timeline cell costs — the first one on a
/// session builds each CPU's pyramid, exactly as the first default-engine frame or
/// [`AnalysisSession::query`] does.
pub(crate) fn state_cycles(
    session: &AnalysisSession<'_>,
    interval: TimeInterval,
) -> [u64; WorkerState::COUNT] {
    let query = session.query(interval);
    let mut total = [0u64; WorkerState::COUNT];
    for cpu in session.trace().topology().cpu_ids() {
        for (sum, cycles) in total.iter_mut().zip(query.state_cycles(cpu)) {
            *sum += cycles;
        }
    }
    total
}

/// Each state's share of `cycles` (all zero when there are none).
fn fractions_of(cycles: [u64; WorkerState::COUNT]) -> [f64; WorkerState::COUNT] {
    let total: u64 = cycles.iter().sum();
    if total == 0 {
        return [0.0; WorkerState::COUNT];
    }
    cycles.map(|c| c as f64 / total as f64)
}

/// Average parallelism over `interval`: the total task-execution time of all workers
/// divided by the interval duration (the "average parallelism" text field of the
/// statistics panel).
pub fn average_parallelism(session: &AnalysisSession<'_>, interval: TimeInterval) -> f64 {
    if interval.is_empty() {
        return 0.0;
    }
    let busy = state_cycles(session, interval)[WorkerState::TaskExecution.index()];
    busy as f64 / interval.duration() as f64
}

/// Fraction of total worker time spent in each state over `interval`, summed across all
/// CPUs (indexed by [`WorkerState::index`]). This is the quantitative counterpart of the
/// paper's Figure 13 state timelines.
pub fn state_fractions(
    session: &AnalysisSession<'_>,
    interval: TimeInterval,
) -> [f64; WorkerState::COUNT] {
    fractions_of(state_cycles(session, interval))
}

/// Per-CPU state fractions over `interval` (each row sums to 1 for CPUs with any
/// recorded state time).
pub fn state_fractions_per_cpu(
    session: &AnalysisSession<'_>,
    interval: TimeInterval,
) -> Vec<[f64; WorkerState::COUNT]> {
    let query = session.query(interval);
    let cpus = session.trace().topology().cpu_ids();
    cpus.map(|cpu| fractions_of(query.state_cycles(cpu)))
        .collect()
}

/// Execution-time and task-count breakdown per task type over `interval` (the data
/// behind the typemap view of Figure 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeBreakdownEntry {
    /// The task type.
    pub task_type: TaskTypeId,
    /// Name of the task type.
    pub name: String,
    /// Total execution cycles spent in tasks of this type inside the interval.
    pub cycles: u64,
    /// Number of task instances of this type overlapping the interval.
    pub count: usize,
}

/// Computes the per-type breakdown of execution time over `interval`.
pub fn task_type_breakdown(
    session: &AnalysisSession<'_>,
    interval: TimeInterval,
) -> Vec<TypeBreakdownEntry> {
    let trace = session.trace();
    let mut entries: Vec<TypeBreakdownEntry> = trace
        .task_types()
        .iter()
        .map(|ty| TypeBreakdownEntry {
            task_type: ty.id,
            name: ty.name.clone(),
            cycles: 0,
            count: 0,
        })
        .collect();
    for task in session.tasks_in(interval) {
        if let Some(entry) = entries.get_mut(task.task_type.0 as usize) {
            entry.cycles += task.execution.overlap_cycles(&interval);
            entry.count += 1;
        }
    }
    entries
}

/// The sort-based statistics the selection-based ones replaced, kept as the test
/// oracle: same definitions, read off a fully sorted copy.
#[cfg(test)]
pub(crate) mod reference {
    use super::{MAD_CONSISTENCY, MEAN_AD_CONSISTENCY};

    /// Median of a non-empty slice, by sorting a copy.
    pub(crate) fn sorted_median(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// [`super::robust_z_scores`] with both medians read off sorted copies and
    /// the scores computed one by one.
    pub(crate) fn robust_z_scores(values: &[f64]) -> Option<Vec<f64>> {
        if values.is_empty() {
            return None;
        }
        let median = sorted_median(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
        let mad = sorted_median(&deviations);
        let scale = if mad > 0.0 {
            mad * MAD_CONSISTENCY
        } else {
            let mean_ad = deviations.iter().sum::<f64>() / values.len() as f64;
            if mean_ad > 0.0 {
                mean_ad * MEAN_AD_CONSISTENCY
            } else {
                1.0
            }
        };
        Some(values.iter().map(|v| (v - median) / scale).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diamond_trace, small_sim_trace};

    #[test]
    fn histogram_basic() {
        let values = [1.0, 2.0, 2.5, 9.0, 9.5];
        let h = Histogram::from_values(&values, 5, Some((0.0, 10.0))).unwrap();
        assert_eq!(h.num_bins(), 5);
        assert_eq!(h.total, 5);
        assert_eq!(h.counts, vec![1, 2, 0, 0, 2]);
        assert!((h.fraction(1) - 0.4).abs() < 1e-12);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_start(1), 2.0);
    }

    #[test]
    fn histogram_degenerate_inputs() {
        assert!(Histogram::from_values(&[1.0], 0, None).is_err());
        let empty = Histogram::from_values(&[], 4, None).unwrap();
        assert_eq!(empty.total, 0);
        assert_eq!(empty.fraction(0), 0.0);
        let constant = Histogram::from_values(&[3.0; 10], 4, None).unwrap();
        assert_eq!(constant.total, 10);
        assert_eq!(constant.counts[0], 10);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h = Histogram::from_values(&[-5.0, 0.5, 99.0], 2, Some((0.0, 1.0))).unwrap();
        assert_eq!(h.counts, vec![1, 2]);
    }

    #[test]
    fn histogram_peaks() {
        let h = Histogram {
            min: 0.0,
            max: 5.0,
            counts: vec![1, 5, 1, 7, 0],
            total: 14,
        };
        assert_eq!(h.peaks(0.0), vec![1, 3]);
        assert_eq!(h.peaks(0.4), vec![3]);
    }

    #[test]
    fn diamond_parallelism_and_fractions() {
        let trace = diamond_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        // 4 tasks × 100 cycles over 300 cycles ⇒ average parallelism 4/3.
        let p = average_parallelism(&session, bounds);
        assert!((p - 4.0 / 3.0).abs() < 1e-9);
        let fractions = state_fractions(&session, bounds);
        assert!((fractions[WorkerState::TaskExecution.index()] - 1.0).abs() < 1e-9);
        assert_eq!(
            average_parallelism(&session, TimeInterval::from_cycles(5, 5)),
            0.0
        );
    }

    #[test]
    fn per_cpu_fractions_rows_sum_to_one_or_zero() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let rows = state_fractions_per_cpu(&session, session.time_bounds());
        assert_eq!(rows.len(), trace.topology().num_cpus());
        for row in rows {
            let sum: f64 = row.iter().sum();
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn duration_histogram_with_filter() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let all = task_duration_histogram(&session, &TaskFilter::new(), 10).unwrap();
        assert_eq!(all.total as usize, trace.tasks().len());
        let init_ty = trace
            .task_types()
            .iter()
            .find(|t| t.name == "seidel_init")
            .unwrap()
            .id;
        let only_init =
            task_duration_histogram(&session, &TaskFilter::new().with_task_type(init_ty), 10)
                .unwrap();
        assert!(only_init.total < all.total);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median_of(&[]), None);
        assert_eq!(median_of(&[3.0]), Some(3.0));
        assert_eq!(median_of(&[1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(mad_of(&[1.0, 2.0, 3.0], 2.0), Some(1.0));
        assert_eq!(mad_of(&[], 0.0), None);
    }

    /// Bit patterns, so that `-0.0 != 0.0` and a NaN equals itself.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn selection_statistics_equal_the_sorted_ones_bit_for_bit() {
        // A deterministic scramble with heavy ties, a wide range and both zeros.
        let scramble = |n: usize, modulus: u64| -> Vec<f64> {
            (0..n as u64)
                .map(|i| {
                    let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % modulus;
                    (x as f64 - modulus as f64 / 3.0) * 1.25
                })
                .collect()
        };
        let mut cases: Vec<Vec<f64>> = vec![
            vec![42.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0, 3.0],
            vec![7.0; 6],
            vec![7.0; 7],
            vec![0.0, -0.0, 0.0, -0.0],
            vec![-0.0, 0.0, 1.0],
            // MAD = 0 (more than half identical) with a non-zero mean AD.
            [vec![100.0; 11], vec![160.0; 9]].concat(),
            [vec![5.0; 20], vec![1_000.0]].concat(),
            vec![f64::MAX, f64::MIN, 0.0, 1e-300, -1e-300, 3.0],
        ];
        for n in [2, 3, 10, 11, 64, 1_000, 1_001] {
            for modulus in [3, 17, 1_000_003] {
                cases.push(scramble(n, modulus));
            }
        }
        for values in &cases {
            let expected = reference::sorted_median(values);
            assert_eq!(
                median_of(values).unwrap().to_bits(),
                expected.to_bits(),
                "median of {values:?}"
            );
            let deviations: Vec<f64> = values.iter().map(|v| (v - expected).abs()).collect();
            assert_eq!(
                mad_of(values, expected).unwrap().to_bits(),
                reference::sorted_median(&deviations).to_bits(),
                "MAD of {values:?}"
            );
            assert_eq!(
                bits(&robust_z_scores(values).unwrap()),
                bits(&reference::robust_z_scores(values).unwrap()),
                "z-scores of {values:?}"
            );
        }
        assert_eq!(reference::robust_z_scores(&[]), None);
        assert_eq!(robust_z_scores(&[]), None);
    }

    #[test]
    fn robust_z_scores_flag_the_outlier() {
        let mut values = vec![100.0; 20];
        values.push(1_000.0);
        let z = robust_z_scores(&values).unwrap();
        // The constant bulk scores 0, the outlier scores very high.
        assert!(z[..20].iter().all(|&v| v.abs() < 1e-9));
        assert!(z[20] > 10.0);
        // A normal-ish spread keeps scores moderate.
        let z = robust_z_scores(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(z.iter().all(|v| v.abs() < 3.0));
    }

    #[test]
    fn zero_mad_fallback_does_not_invent_outliers() {
        // Half the values identical, the rest only 6 % larger: MAD is 0, but the
        // mean-AD fallback must keep the mild deviations well under outlier range.
        let mut values = vec![1_000.0; 11];
        values.extend(std::iter::repeat_n(1_060.0, 9));
        let z = robust_z_scores(&values).unwrap();
        assert!(
            z.iter().all(|v| v.abs() < 3.0),
            "mild spread must not be flagged: {z:?}"
        );
        // Identical inputs score all-zero.
        let z = robust_z_scores(&[7.0; 5]).unwrap();
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn type_breakdown_covers_all_tasks() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let breakdown = task_type_breakdown(&session, session.time_bounds());
        assert_eq!(breakdown.len(), trace.task_types().len());
        let total: usize = breakdown.iter().map(|e| e.count).sum();
        assert_eq!(total, trace.tasks().len());
        assert!(breakdown.iter().any(|e| e.cycles > 0));
    }
}
