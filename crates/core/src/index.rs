//! Index structures for fast interval queries on per-core event streams.
//!
//! This module implements the two index structures described in the paper's
//! Section VI-B-c:
//!
//! * binary-search slicing of per-core, timestamp-sorted event arrays
//!   ([`point_events_in`], [`states_overlapping`]), and
//! * an n-ary search tree (default arity 100) over counter samples that answers
//!   min/max queries for arbitrary intervals without scanning every sample
//!   ([`CounterIndex`]), keeping its memory overhead at a few percent of the raw
//!   sample data.
//!
//! All stream parameters are the zero-copy columnar views of
//! [`aftermath_trace::columns`]: a binary search walks a bare `&[u64]` timestamp
//! lane and an index build streams a bare `&[f64]` value lane, instead of striding
//! over padded structs.

use aftermath_trace::{SamplesView, StatesView, TimeInterval, Timestamp};

use crate::levels::{Levels, Span};

/// Default arity of the counter min/max search tree (the paper uses 100 to keep the
/// index overhead below 5 % of the counter data).
pub const DEFAULT_INDEX_ARITY: usize = 100;

/// Returns the sub-slice of timestamp-sorted point events whose timestamp lies in
/// `[interval.start, interval.end)`.
///
/// `timestamp_of` extracts the timestamp from an element; the input **must** be sorted
/// by that timestamp (the communication-event table of a trace always is). The
/// columnar streams have their own slicing entry points ([`samples_in`],
/// [`states_overlapping`]).
pub fn point_events_in<T>(
    items: &[T],
    interval: TimeInterval,
    timestamp_of: impl Fn(&T) -> Timestamp,
) -> &[T] {
    let start = items.partition_point(|e| timestamp_of(e) < interval.start);
    let end = items.partition_point(|e| timestamp_of(e) < interval.end);
    &items[start..end]
}

/// The samples of a timestamp-sorted stream inside `interval`, as an index range
/// (two binary searches over the raw timestamp lane).
fn sample_range(samples: SamplesView<'_>, interval: TimeInterval) -> (usize, usize) {
    let ts = samples.timestamps();
    let lo = ts.partition_point(|&t| t < interval.start.0);
    let hi = ts.partition_point(|&t| t < interval.end.0);
    (lo, hi)
}

/// Returns the sub-view of counter samples with timestamps in the interval.
pub fn samples_in(samples: SamplesView<'_>, interval: TimeInterval) -> SamplesView<'_> {
    let (lo, hi) = sample_range(samples, interval);
    samples.slice(lo, hi)
}

/// The state intervals that overlap `interval`, as an index range `[first, last)`.
///
/// The input must be sorted by interval start and non-overlapping (as guaranteed for
/// per-core state streams). This is the single home of the overlap convention; the
/// view slicing ([`states_overlapping`]) and the aggregation pyramid
/// ([`crate::pyramid`]) both resolve ranges through it.
pub fn states_overlapping_range(states: StatesView<'_>, interval: TimeInterval) -> (usize, usize) {
    if states.is_empty() || interval.is_empty() {
        return (0, 0);
    }
    // First state that ends after the query start: since states are non-overlapping and
    // sorted by start, this is the first candidate.
    let first = states.ends().partition_point(|&e| e <= interval.start.0);
    // First state that starts at or after the query end: everything from there on is out.
    let last = states.starts().partition_point(|&s| s < interval.end.0);
    (first.min(last), last)
}

/// Returns the sub-view of state intervals that overlap `interval`
/// ([`states_overlapping_range`] as a view).
pub fn states_overlapping(states: StatesView<'_>, interval: TimeInterval) -> StatesView<'_> {
    let (first, last) = states_overlapping_range(states, interval);
    states.slice(first, last)
}

/// Index of the last sample taken at or before `t`, if any.
pub fn last_sample_at_or_before(samples: SamplesView<'_>, t: Timestamp) -> Option<usize> {
    let idx = samples.timestamps().partition_point(|&s| s <= t.0);
    idx.checked_sub(1)
}

/// The value of a (step-interpolated) counter at time `t`: the value of the last sample
/// taken at or before `t`.
pub fn value_at(samples: SamplesView<'_>, t: Timestamp) -> Option<f64> {
    last_sample_at_or_before(samples, t).map(|i| samples.value(i))
}

/// One summary node of the [`CounterIndex`]: minimum, maximum and sum of the covered
/// sample values.
///
/// The sum extends the paper's min/max index to average queries (sum divided by the
/// number of covered samples, which is implied by the sample range) at no extra tree
/// walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterNode {
    /// Minimum covered sample value.
    pub min: f64,
    /// Maximum covered sample value.
    pub max: f64,
    /// Sum of the covered sample values.
    pub sum: f64,
}

impl CounterNode {
    const EMPTY: CounterNode = CounterNode {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
    };

    /// Builds one summary node from a contiguous run of raw sample values via the
    /// wide min/max/sum kernel ([`crate::kernels::min_max_sum`]). Tree growth and
    /// the raw runs of a query all go through this single definition, so
    /// incremental and from-scratch trees — and their f64 sums, which follow the
    /// kernel's fixed reduction order — stay bit-identical.
    #[inline]
    fn leaf(chunk: &[f64]) -> CounterNode {
        let (min, max, sum) = crate::kernels::min_max_sum(chunk);
        CounterNode { min, max, sum }
    }

    /// The summary of a group of nodes, added in order.
    fn combine(nodes: &[CounterNode]) -> CounterNode {
        let mut node = CounterNode::EMPTY;
        nodes.iter().for_each(|n| node.add_node(n));
        node
    }

    #[inline]
    fn add_node(&mut self, n: &CounterNode) {
        self.min = self.min.min(n.min);
        self.max = self.max.max(n.max);
        self.sum += n.sum;
    }
}

/// An n-ary min/max/sum search tree over one counter's samples on one CPU.
///
/// The tree stores, for every group of `arity` consecutive samples (and recursively for
/// every group of `arity` nodes), the minimum, maximum and sum of the sample values.
/// Interval queries then only touch `O(arity · log_arity n)` nodes instead of every
/// sample, which is what keeps counter rendering fast at low zoom levels (paper
/// Section VI-B); the sums additionally answer average queries. Builds and queries
/// stream the raw value lane of the columnar store; the tree itself is the shared
/// level tree of `crate::levels` with [`CounterNode`]s in it.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterIndex {
    tree: Levels<CounterNode>,
}

impl CounterIndex {
    /// Builds an index with the default arity.
    pub fn new(samples: SamplesView<'_>) -> Self {
        Self::with_arity(samples, DEFAULT_INDEX_ARITY)
    }

    /// Builds an index with a custom arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2`.
    pub fn with_arity(samples: SamplesView<'_>, arity: usize) -> Self {
        let mut index = CounterIndex {
            tree: Levels::new(arity),
        };
        index.append_tail(samples, 0);
        index
    }

    /// Absorbs samples appended to the indexed stream by rebuilding only the
    /// rightmost spine of the tree; returns the number of recomputed nodes.
    ///
    /// `samples` is the **full** stream after the append and `old_len` the number of
    /// samples the index covered before it (`old_len == self.num_samples()`). Only
    /// the partial tail node of every level plus the nodes covering the new samples
    /// are rebuilt — `O(new/arity + arity · log n)` work, never a full rebuild — and
    /// the resulting index is structurally identical to
    /// [`CounterIndex::with_arity`] over the full stream (the invariant the
    /// streaming layer's byte-identity guarantee rests on).
    ///
    /// # Panics
    ///
    /// Panics when `old_len` disagrees with the indexed length or `samples` is
    /// shorter than `old_len`.
    pub fn append_tail(&mut self, samples: SamplesView<'_>, old_len: usize) -> usize {
        let values = samples.values();
        self.tree.append_tail(
            old_len,
            values.len(),
            |lo, hi| CounterNode::leaf(&values[lo..hi]),
            CounterNode::combine,
        )
    }

    /// The arity of the tree.
    pub fn arity(&self) -> usize {
        self.tree.fanout()
    }

    /// Total number of summary nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Number of samples the index was built over.
    pub fn num_samples(&self) -> usize {
        self.tree.len()
    }

    /// Approximate memory used by the index, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.num_nodes() * std::mem::size_of::<CounterNode>()
    }

    /// Index overhead relative to the raw samples it summarises, with the
    /// struct-equivalent sample size as the fixed denominator — the same
    /// baseline the paper's "≤ 5 % of the counter data" budget uses, kept
    /// layout-independent so the ratio stays comparable across storage engines
    /// (e.g. `0.03` = 3 %).
    pub fn overhead_ratio(&self) -> f64 {
        if self.num_samples() == 0 {
            return 0.0;
        }
        self.memory_bytes() as f64
            / (self.num_samples() * std::mem::size_of::<aftermath_trace::CounterSample>()) as f64
    }

    /// Min/max/sum over the sample-index range `[lo, hi)`: whole nodes where the
    /// range covers them, the raw runs at its two ends through the leaf kernel, in
    /// the fixed order of the level tree's range split.
    ///
    /// `samples` must be the same stream the index was built over. Returns `None` for
    /// an empty range.
    pub fn aggregate(&self, samples: SamplesView<'_>, lo: usize, hi: usize) -> Option<CounterNode> {
        if lo >= hi.min(self.num_samples()) {
            return None;
        }
        debug_assert_eq!(samples.len(), self.num_samples());
        let values = samples.values();
        let mut agg = CounterNode::EMPTY;
        self.tree.fold(lo, hi, |span| match span {
            Span::Items(lo, hi) => agg.add_node(&CounterNode::leaf(&values[lo..hi])),
            Span::Node(node) => agg.add_node(node),
        });
        Some(agg)
    }

    /// Minimum and maximum sample value over the sample-index range `[lo, hi)`.
    ///
    /// `samples` must be the same stream the index was built over. Returns `None` for
    /// an empty range.
    pub fn min_max(&self, samples: SamplesView<'_>, lo: usize, hi: usize) -> Option<(f64, f64)> {
        // A range whose every value is NaN leaves the running min/max at their
        // empty-aggregate sentinels (f64::min/max skip NaN operands); report it as
        // "no usable extrema" rather than an infinite pair, like the pre-sum index.
        self.aggregate(samples, lo, hi)
            .filter(|a| !(a.min == f64::INFINITY && a.max == f64::NEG_INFINITY))
            .map(|a| (a.min, a.max))
    }

    /// Minimum and maximum over the time interval, using a binary search to locate the
    /// covered sample range first.
    pub fn min_max_in(
        &self,
        samples: SamplesView<'_>,
        interval: TimeInterval,
    ) -> Option<(f64, f64)> {
        let (lo, hi) = sample_range(samples, interval);
        self.min_max(samples, lo, hi)
    }

    /// Sum and count of the samples inside the time interval.
    pub fn sum_count_in(
        &self,
        samples: SamplesView<'_>,
        interval: TimeInterval,
    ) -> Option<(f64, usize)> {
        let (lo, hi) = sample_range(samples, interval);
        let hi = hi.min(self.num_samples());
        self.aggregate(samples, lo, hi).map(|a| (a.sum, hi - lo))
    }

    /// Average sample value over the time interval (the mean of the covered samples),
    /// answered from the per-node sums. `None` when the interval covers no sample.
    ///
    /// Unlike the integer aggregates of the state pyramid, floating-point summation
    /// is order-sensitive, so the result may differ from a left-to-right scan in the
    /// last bits.
    pub fn average_in(&self, samples: SamplesView<'_>, interval: TimeInterval) -> Option<f64> {
        self.sum_count_in(samples, interval)
            .map(|(sum, count)| sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftermath_trace::{CounterId, CounterSample, CpuId, SampleColumns, StateColumns};

    fn sample(ts: u64, v: f64) -> CounterSample {
        CounterSample::new(CounterId(0), CpuId(0), Timestamp(ts), v)
    }

    fn make_samples(n: u64) -> SampleColumns {
        // A zig-zag series so min/max per range are non-trivial.
        let mut columns = SampleColumns::new(CounterId(0), CpuId(0));
        for i in 0..n {
            columns.push(sample(
                i * 10,
                if i % 2 == 0 { i as f64 } else { -(i as f64) },
            ));
        }
        columns
    }

    fn naive_min_max(samples: SamplesView<'_>, lo: usize, hi: usize) -> Option<(f64, f64)> {
        if lo >= hi {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &samples.values()[lo..hi] {
            min = min.min(v);
            max = max.max(v);
        }
        Some((min, max))
    }

    #[test]
    fn point_events_slicing() {
        let samples = make_samples(100);
        let sel = samples_in(samples.view(), TimeInterval::from_cycles(100, 300));
        assert_eq!(sel.len(), 20);
        assert_eq!(sel.first().unwrap().timestamp, Timestamp(100));
        assert_eq!(sel.last().unwrap().timestamp, Timestamp(290));
        assert!(samples_in(samples.view(), TimeInterval::from_cycles(5000, 6000)).is_empty());
    }

    #[test]
    fn states_overlap_query() {
        use aftermath_trace::{StateInterval, WorkerState};
        let mut states = StateColumns::new(CpuId(0));
        for i in 0..10u64 {
            states.push(StateInterval::new(
                CpuId(0),
                WorkerState::Idle,
                TimeInterval::from_cycles(i * 100, i * 100 + 100),
                None,
            ));
        }
        let sel = states_overlapping(states.view(), TimeInterval::from_cycles(150, 350));
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.get(0).interval.start, Timestamp(100));
        assert_eq!(sel.get(2).interval.start, Timestamp(300));
        assert!(
            states_overlapping(states.view(), TimeInterval::from_cycles(2000, 3000)).is_empty()
        );
        assert!(states_overlapping(states.view(), TimeInterval::from_cycles(100, 100)).is_empty());
    }

    #[test]
    fn value_at_steps() {
        let mut samples = SampleColumns::new(CounterId(0), CpuId(0));
        for s in [sample(10, 1.0), sample(20, 2.0), sample(30, 3.0)] {
            samples.push(s);
        }
        assert_eq!(value_at(samples.view(), Timestamp(5)), None);
        assert_eq!(value_at(samples.view(), Timestamp(10)), Some(1.0));
        assert_eq!(value_at(samples.view(), Timestamp(25)), Some(2.0));
        assert_eq!(value_at(samples.view(), Timestamp(99)), Some(3.0));
    }

    #[test]
    fn counter_index_matches_naive_scan() {
        let samples = make_samples(1000);
        let index = CounterIndex::with_arity(samples.view(), 10);
        for (lo, hi) in [
            (0, 1000),
            (5, 17),
            (0, 1),
            (999, 1000),
            (123, 877),
            (500, 500),
        ] {
            assert_eq!(
                index.min_max(samples.view(), lo, hi),
                naive_min_max(samples.view(), lo, hi),
                "range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn counter_index_time_interval_query() {
        let samples = make_samples(1000);
        let index = CounterIndex::new(samples.view());
        let got = index
            .min_max_in(samples.view(), TimeInterval::from_cycles(1000, 2000))
            .unwrap();
        let naive = naive_min_max(samples.view(), 100, 200).unwrap();
        assert_eq!(got, naive);
    }

    #[test]
    fn counter_index_empty_and_single() {
        let empty = SampleColumns::new(CounterId(0), CpuId(0));
        let index = CounterIndex::new(empty.view());
        assert_eq!(index.min_max(empty.view(), 0, 10), None);
        assert_eq!(index.memory_bytes(), 0);
        let mut one = SampleColumns::new(CounterId(0), CpuId(0));
        one.push(sample(0, 42.0));
        let index = CounterIndex::new(one.view());
        assert_eq!(index.min_max(one.view(), 0, 1), Some((42.0, 42.0)));
    }

    #[test]
    fn counter_index_average_matches_naive_mean() {
        let samples = make_samples(1000);
        let index = CounterIndex::with_arity(samples.view(), 7);
        for iv in [
            TimeInterval::from_cycles(0, 10_000),
            TimeInterval::from_cycles(123, 4_567),
            TimeInterval::from_cycles(990, 1_010),
        ] {
            let slice = samples_in(samples.view(), iv);
            let naive = slice.values().iter().sum::<f64>() / slice.len() as f64;
            let got = index.average_in(samples.view(), iv).unwrap();
            assert!((got - naive).abs() < 1e-9, "{iv}: {got} vs {naive}");
            let (sum, count) = index.sum_count_in(samples.view(), iv).unwrap();
            assert_eq!(count, slice.len());
            assert!((sum - naive * slice.len() as f64).abs() < 1e-9);
        }
        assert_eq!(
            index.average_in(samples.view(), TimeInterval::from_cycles(100_000, 200_000)),
            None
        );
    }

    #[test]
    fn counter_index_overhead_is_small_with_default_arity() {
        let samples = make_samples(100_000);
        let index = CounterIndex::new(samples.view());
        assert!(
            index.overhead_ratio() < 0.05,
            "overhead {} should stay below 5 %",
            index.overhead_ratio()
        );
    }

    #[test]
    #[should_panic]
    fn arity_of_one_panics() {
        let empty = SampleColumns::new(CounterId(0), CpuId(0));
        let _ = CounterIndex::with_arity(empty.view(), 1);
    }

    #[test]
    fn append_tail_equals_fresh_build_for_all_splits_and_arities() {
        let samples = make_samples(500);
        for arity in [2, 3, 7, 100] {
            for old_len in [0, 1, 99, 100, 101, 250, 499, 500] {
                let mut incremental =
                    CounterIndex::with_arity(samples.view().slice(0, old_len), arity);
                incremental.append_tail(samples.view(), old_len);
                let fresh = CounterIndex::with_arity(samples.view(), arity);
                assert_eq!(incremental, fresh, "arity {arity}, split at {old_len}");
            }
        }
    }

    #[test]
    fn append_tail_in_many_small_steps_equals_fresh_build() {
        let samples = make_samples(1000);
        let empty = SampleColumns::new(CounterId(0), CpuId(0));
        let mut index = CounterIndex::with_arity(empty.view(), 7);
        let mut len = 0;
        for step in [1usize, 2, 3, 5, 8, 13, 100, 868] {
            let next = (len + step).min(samples.len());
            index.append_tail(samples.view().slice(0, next), len);
            len = next;
            assert_eq!(
                index,
                CounterIndex::with_arity(samples.view().slice(0, len), 7)
            );
        }
        assert_eq!(len, samples.len());
    }

    #[test]
    fn append_tail_rebuilds_only_the_spine() {
        let samples = make_samples(50_000);
        let old_len = 49_500; // appending the last 1 %
        let mut index = CounterIndex::new(samples.view().slice(0, old_len));
        let total = index.num_nodes();
        let rebuilt = index.append_tail(samples.view(), old_len);
        assert!(
            rebuilt * 10 < total,
            "appending 1 % of the samples rebuilt {rebuilt} of {total} nodes"
        );
        assert_eq!(index, CounterIndex::new(samples.view()));
    }
}
