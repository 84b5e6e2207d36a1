//! Strongly-typed identifiers and time types used throughout the trace model.
//!
//! All identifiers are thin newtypes over integers ([C-NEWTYPE]) so that a CPU index
//! can never be confused with a NUMA node index or a task identifier.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a logical CPU (a worker thread is pinned to exactly one CPU).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CpuId(pub u32);

/// Identifier of a NUMA node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NumaNodeId(pub u32);

/// Identifier of a task type (the work-function executed by a task).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskTypeId(pub u32);

/// Identifier of a single task instance (one dynamic execution of a work-function).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u64);

/// Identifier of a hardware or software performance counter.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CounterId(pub u32);

/// A point in time, measured in CPU cycles since the start of the traced execution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (start of the execution).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// Saturating addition of a cycle count.
    #[inline]
    pub fn saturating_add(self, cycles: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(cycles))
    }

    /// Saturating subtraction of a cycle count.
    #[inline]
    pub fn saturating_sub(self, cycles: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(cycles))
    }

    /// Number of cycles from `earlier` to `self`, or zero when `earlier` is later.
    #[inline]
    pub fn cycles_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

impl From<Timestamp> for u64 {
    fn from(v: Timestamp) -> Self {
        v.0
    }
}

macro_rules! impl_display_id {
    ($($ty:ident => $prefix:literal),* $(,)?) => {
        $(
            impl fmt::Display for $ty {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    write!(f, concat!($prefix, "{}"), self.0)
                }
            }
        )*
    };
}

impl_display_id!(
    CpuId => "cpu",
    NumaNodeId => "node",
    TaskTypeId => "type",
    TaskId => "task",
    CounterId => "ctr",
);

/// A half-open time interval `[start, end)` in cycles.
///
/// Intervals with `end <= start` are considered empty; [`TimeInterval::new`] does not
/// reject them, because zero-length intervals naturally occur for instantaneous events,
/// but [`TimeInterval::duration`] reports zero for them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeInterval {
    /// Inclusive start of the interval.
    pub start: Timestamp,
    /// Exclusive end of the interval.
    pub end: Timestamp,
}

impl TimeInterval {
    /// Creates a new interval `[start, end)`.
    #[inline]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeInterval { start, end }
    }

    /// Creates an interval from raw cycle counts.
    #[inline]
    pub fn from_cycles(start: u64, end: u64) -> Self {
        TimeInterval::new(Timestamp(start), Timestamp(end))
    }

    /// The duration of the interval in cycles (zero when the interval is empty).
    #[inline]
    pub fn duration(&self) -> u64 {
        self.end.0.saturating_sub(self.start.0)
    }

    /// Whether the interval is empty (`end <= start`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `t` lies inside the interval.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether `self` and `other` overlap (share at least one cycle).
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Returns the intersection of two intervals, or `None` when they do not overlap.
    #[inline]
    pub fn intersection(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeInterval { start, end })
        } else {
            None
        }
    }

    /// Number of cycles of overlap between two intervals.
    #[inline]
    pub fn overlap_cycles(&self, other: &TimeInterval) -> u64 {
        self.intersection(other).map_or(0, |i| i.duration())
    }

    /// Returns the smallest interval containing both `self` and `other`.
    #[inline]
    pub fn union_hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Bin `i` of the `bins` equally sized bins of the interval — the one
    /// definition behind timeline columns, [`TimeInterval::split`] and every
    /// binned statistic.
    ///
    /// A bin is `duration / bins` cycles wide, at least one; the last bin absorbs
    /// the remainder, so the bins tile the interval exactly. With more bins than
    /// cycles, the bins past the end are empty and sit at the end.
    ///
    /// # Panics
    ///
    /// Panics when `bins` is zero.
    #[inline]
    pub fn bin(self, bins: usize, i: usize) -> TimeInterval {
        let w = (self.duration() / bins as u64).max(1);
        let start = (self.start.0 + w * i as u64).min(self.end.0);
        let end = if i + 1 == bins {
            self.end.0
        } else {
            (start + w).min(self.end.0)
        };
        TimeInterval::from_cycles(start, end)
    }

    /// Splits the interval into `n` equally sized sub-intervals
    /// ([`TimeInterval::bin`]). Returns an empty vector for `n == 0` or an empty
    /// interval.
    pub fn split(&self, n: usize) -> Vec<TimeInterval> {
        if n == 0 || self.is_empty() {
            return Vec::new();
        }
        (0..n).map(|i| self.bin(n, i)).collect()
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(100);
        assert_eq!(t.saturating_add(50), Timestamp(150));
        assert_eq!(t.saturating_sub(200), Timestamp(0));
        assert_eq!(Timestamp(300).cycles_since(t), 200);
        assert_eq!(t.cycles_since(Timestamp(300)), 0);
        assert_eq!(t.cycles(), 100);
    }

    #[test]
    fn interval_duration_and_contains() {
        let iv = TimeInterval::from_cycles(10, 20);
        assert_eq!(iv.duration(), 10);
        assert!(!iv.is_empty());
        assert!(iv.contains(Timestamp(10)));
        assert!(iv.contains(Timestamp(19)));
        assert!(!iv.contains(Timestamp(20)));
        assert!(!iv.contains(Timestamp(9)));
    }

    #[test]
    fn empty_interval() {
        let iv = TimeInterval::from_cycles(20, 10);
        assert!(iv.is_empty());
        assert_eq!(iv.duration(), 0);
        assert!(!iv.contains(Timestamp(15)));
    }

    #[test]
    fn interval_overlap() {
        let a = TimeInterval::from_cycles(0, 100);
        let b = TimeInterval::from_cycles(50, 150);
        let c = TimeInterval::from_cycles(100, 200);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_cycles(&b), 50);
        assert_eq!(a.overlap_cycles(&c), 0);
        assert_eq!(a.intersection(&b), Some(TimeInterval::from_cycles(50, 100)));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn interval_union_hull() {
        let a = TimeInterval::from_cycles(0, 10);
        let b = TimeInterval::from_cycles(50, 80);
        assert_eq!(a.union_hull(&b), TimeInterval::from_cycles(0, 80));
    }

    #[test]
    fn interval_split_exact() {
        let iv = TimeInterval::from_cycles(0, 100);
        let parts = iv.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], TimeInterval::from_cycles(0, 25));
        assert_eq!(parts[3].end, Timestamp(100));
        let total: u64 = parts.iter().map(|p| p.duration()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn interval_split_remainder_goes_to_last() {
        let iv = TimeInterval::from_cycles(0, 10);
        let parts = iv.split(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.last().unwrap().end, Timestamp(10));
        let total: u64 = parts.iter().map(|p| p.duration()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn bins_tile_the_interval_at_every_bin_count() {
        // Fewer bins than cycles, as many, and more: consecutive bins meet, none
        // passes the end, the last one ends there.
        let iv = TimeInterval::from_cycles(100, 110);
        for bins in [1, 3, 10, 11, 25] {
            let mut cursor = iv.start;
            for i in 0..bins {
                let bin = iv.bin(bins, i);
                assert_eq!(bin.start, cursor, "bin {i} of {bins}");
                assert!(bin.end <= iv.end, "bin {i} of {bins}");
                cursor = bin.end;
            }
            assert_eq!(cursor, iv.end, "{bins} bins");
        }
        assert_eq!(iv.bin(3, 1), TimeInterval::from_cycles(103, 106));
        assert_eq!(iv.bin(3, 2), TimeInterval::from_cycles(106, 110));
        assert_eq!(iv.bin(25, 9), TimeInterval::from_cycles(109, 110));
        assert_eq!(iv.bin(25, 10), TimeInterval::from_cycles(110, 110));
    }

    #[test]
    fn interval_split_degenerate() {
        assert!(TimeInterval::from_cycles(0, 100).split(0).is_empty());
        assert!(TimeInterval::from_cycles(5, 5).split(4).is_empty());
    }

    #[test]
    fn display_impls() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(NumaNodeId(1).to_string(), "node1");
        assert_eq!(TaskId(42).to_string(), "task42");
        assert_eq!(Timestamp(7).to_string(), "7cy");
        assert_eq!(TimeInterval::from_cycles(1, 2).to_string(), "[1cy, 2cy)");
    }
}
