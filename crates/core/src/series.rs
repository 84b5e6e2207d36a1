//! Binned time series: the output format of all derived metrics.

use aftermath_trace::TimeInterval;
use serde::{Deserialize, Serialize};

/// A time series of values over equally sized bins of a time interval.
///
/// Derived metrics (number of idle workers, average task duration, discrete derivatives
/// of counters, ...) are produced in this representation; the paper overlays them on the
/// timeline or plots them against normalized execution time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// The time interval the series covers.
    pub interval: TimeInterval,
    /// One value per bin.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series over `interval` with the given per-bin values.
    pub fn new(interval: TimeInterval, values: Vec<f64>) -> Self {
        TimeSeries { interval, values }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.values.len()
    }

    /// Width of one bin in cycles — of every bin but the last, which also holds the
    /// remainder ([`TimeInterval::bin`]); 0 for an empty series.
    pub fn bin_width(&self) -> u64 {
        if self.values.is_empty() {
            0
        } else {
            self.bin_interval(0).duration()
        }
    }

    /// The sub-interval covered by bin `i` ([`TimeInterval::bin`]).
    pub fn bin_interval(&self, i: usize) -> TimeInterval {
        self.interval.bin(self.values.len(), i)
    }

    /// `(normalized-time, value)` pairs where normalized time is the bin centre mapped to
    /// `[0, 1]` over the series interval — the x-axis used in the paper's figures.
    pub fn normalized_points(&self) -> Vec<(f64, f64)> {
        let n = self.values.len();
        if n == 0 {
            return Vec::new();
        }
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i as f64 + 0.5) / n as f64, v))
            .collect()
    }

    /// Maximum value (NaN-free series assumed); `None` for an empty series.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Minimum value; `None` for an empty series.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Arithmetic mean of the values (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Index of the bin with the largest value, if any.
    pub fn argmax(&self) -> Option<usize> {
        self.values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// The discrete derivative (difference quotient) of the series: for each pair of
    /// adjacent bins, `(v[i+1] - v[i]) / bin_width`. The result has one bin fewer.
    pub fn discrete_derivative(&self) -> TimeSeries {
        let w = self.bin_width().max(1) as f64;
        let values = self.values.windows(2).map(|p| (p[1] - p[0]) / w).collect();
        TimeSeries {
            interval: self.interval,
            values,
        }
    }

    /// Element-wise ratio of two series (`0` where the divisor is `0`).
    ///
    /// # Panics
    ///
    /// Panics if the two series have different bin counts.
    pub fn ratio(&self, divisor: &TimeSeries) -> TimeSeries {
        assert_eq!(
            self.num_bins(),
            divisor.num_bins(),
            "series must have the same number of bins"
        );
        let values = self
            .values
            .iter()
            .zip(&divisor.values)
            .map(|(&a, &b)| if b == 0.0 { 0.0 } else { a / b })
            .collect();
        TimeSeries {
            interval: self.interval,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(TimeInterval::from_cycles(0, 100), vec![1.0, 3.0, 2.0, 4.0])
    }

    #[test]
    fn bins_and_intervals() {
        let s = series();
        assert_eq!(s.num_bins(), 4);
        assert_eq!(s.bin_width(), 25);
        assert_eq!(s.bin_interval(0), TimeInterval::from_cycles(0, 25));
        assert_eq!(s.bin_interval(3), TimeInterval::from_cycles(75, 100));
    }

    #[test]
    fn aggregates() {
        let s = series();
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.argmax(), Some(3));
        let empty = TimeSeries::new(TimeInterval::from_cycles(0, 0), vec![]);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn normalized_points_are_in_unit_interval() {
        let pts = series().normalized_points();
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|(x, _)| *x > 0.0 && *x < 1.0));
        assert_eq!(pts[0].1, 1.0);
    }

    #[test]
    fn derivative_and_ratio() {
        let s = series();
        let d = s.discrete_derivative();
        assert_eq!(d.num_bins(), 3);
        assert!((d.values[0] - 2.0 / 25.0).abs() < 1e-12);
        let r = s.ratio(&s);
        assert!(r.values.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        let zero = TimeSeries::new(s.interval, vec![0.0; 4]);
        assert!(s.ratio(&zero).values.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn ratio_with_mismatched_bins_panics() {
        let s = series();
        let other = TimeSeries::new(s.interval, vec![1.0]);
        let _ = s.ratio(&other);
    }
}
