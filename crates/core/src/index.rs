//! Index structures for fast interval queries on per-core event streams.
//!
//! This module implements the two index structures described in the paper's
//! Section VI-B-c:
//!
//! * binary-search slicing of per-core, timestamp-sorted event arrays
//!   ([`samples_in`], [`states_overlapping`]) — and, for runs of lookups in
//!   ascending order (a timeline row's columns, a CPU's tasks), one galloping
//!   cursor that answers each from where the previous one ended, with the same
//!   predicates — and
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

/// The partition point of `pred` over `items` (`pred` holds on a prefix), found by
/// galloping from `hint` towards it in whichever direction it lies: the distance is
/// bracketed by doubling steps, then bisected. An answer `d` items from `hint` costs
/// `O(log d)`, so a run of lookups in ascending order costs what the items between
/// them cost, not a search of the whole slice each.
pub(crate) fn gallop<T>(items: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let (len, hint) = (items.len(), hint.min(items.len()));
    // Bracket the partition point `lo <= p <= hi` (everything below `lo` holds,
    // nothing from `hi` on does): `pred` is known at `hint ± step / 2`.
    let mut step = 1;
    let (lo, hi) = if hint < len && pred(&items[hint]) {
        while hint + step < len && pred(&items[hint + step]) {
            step *= 2;
        }
        (hint + step / 2 + 1, (hint + step).min(len))
    } else {
        while step <= hint && !pred(&items[hint - step]) {
            step *= 2;
        }
        ((hint + 1).saturating_sub(step), hint - step / 2)
    };
    lo + items[lo..hi].partition_point(pred)
}

/// The state intervals that overlap `interval`, as an index range `[first, last)`.
///
/// The input must be sorted by interval start and non-overlapping (as guaranteed for
/// per-core state streams). This is the single home of the overlap convention; the
/// view slicing ([`states_overlapping`]), the aggregation pyramid
/// ([`crate::pyramid`]) and a timeline row's cursor (`bin_ranges`) all resolve
/// ranges through it.
pub fn states_overlapping_range(states: StatesView<'_>, interval: TimeInterval) -> (usize, usize) {
    overlap_range_near(states, interval, None)
}

/// [`states_overlapping_range`], each bound galloping from the one in `near` when
/// given ([`gallop`]) and bisecting the whole lane otherwise.
fn overlap_range_near(
    states: StatesView<'_>,
    interval: TimeInterval,
    near: Option<(usize, usize)>,
) -> (usize, usize) {
    fn search(lane: &[u64], hint: Option<usize>, pred: impl Fn(&u64) -> bool) -> usize {
        hint.map_or_else(|| lane.partition_point(&pred), |h| gallop(lane, h, &pred))
    }
    if states.is_empty() || interval.is_empty() {
        return (0, 0);
    }
    // First state that ends after the query start: since states are non-overlapping and
    // sorted by start, this is the first candidate.
    let first = search(states.ends(), near.map(|n| n.0), |&e| e <= interval.start.0);
    // First state that starts at or after the query end: everything from there on is out.
    let last = search(states.starts(), near.map(|n| n.1), |&s| s < interval.end.0);
    (first.min(last), last)
}

/// The overlap range of every bin of `interval` split into `columns`
/// ([`TimeInterval::bin`]), in column order and paired with its bin: exactly
/// `states_overlapping_range(states, interval.bin(columns, c))` for every column
/// `c`, but found by one cursor that gallops on from the previous bin's bounds — a
/// timeline row costs `O(log items-in-column)` per column, not two searches over
/// the whole stream. An empty bin (more columns than cycles) yields the empty
/// range and leaves the cursor where it is.
pub(crate) fn bin_ranges<'a>(
    states: StatesView<'a>,
    interval: TimeInterval,
    columns: usize,
) -> impl Iterator<Item = (TimeInterval, (usize, usize))> + 'a {
    let mut near = (0, 0);
    (0..columns).map(move |c| {
        let bin = interval.bin(columns, c);
        let range = overlap_range_near(states, bin, Some(near));
        near = if bin.is_empty() { near } else { range };
        (bin, range)
    })
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
    use proptest::prelude::*;

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
    fn gallop_finds_the_partition_point_from_every_hint() {
        let items: Vec<u64> = (0..40).map(|i| i / 3).collect();
        for t in 0..16 {
            let want = items.partition_point(|&x| x < t);
            for hint in 0..items.len() + 3 {
                assert_eq!(gallop(&items, hint, |&x| x < t), want, "t {t}, hint {hint}");
            }
        }
        assert_eq!(gallop(&[] as &[u64], 3, |_| true), 0);
    }

    /// A stream from cycle 1000 on: back-to-back or gapped intervals, some of zero
    /// length, in every state.
    fn stream(segments: &[(u64, u64, u8)]) -> StateColumns {
        use aftermath_trace::{StateInterval, WorkerState};
        let mut states = StateColumns::new(CpuId(0));
        let mut now = 1000;
        for &(len, gap, state) in segments {
            let state = WorkerState::from_index(state as usize % WorkerState::COUNT).unwrap();
            let interval = TimeInterval::from_cycles(now, now + len);
            states.push(StateInterval::new(CpuId(0), state, interval, None));
            now += len + gap;
        }
        states
    }

    /// A non-empty window of `kind` relative to the stream's span `[lo, hi)` —
    /// inside it, straddling an edge, before it or after it (touching included) —
    /// placed and sized by the permilles `x` and `y`.
    fn window(lo: u64, hi: u64, kind: u8, x: u64, y: u64) -> TimeInterval {
        let span = hi - lo;
        let width = 1 + y * (span + 1) / 1000;
        let (start, end) = match kind % 4 {
            0 => {
                let start = lo + x * span / 1000;
                (start, (start + width).min(hi).max(start + 1))
            }
            1 if x.is_multiple_of(2) => (lo.saturating_sub(1 + x / 2), lo + width),
            1 => (hi.saturating_sub(width), hi + 1 + x / 2),
            2 => {
                let end = lo - x.min(lo - 1);
                (end.saturating_sub(width), end)
            }
            _ => (hi + x, hi + x + width),
        };
        TimeInterval::from_cycles(start, end)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn bin_ranges_are_the_overlap_ranges_of_their_bins(
            segments in prop::collection::vec((0u64..40, 0u64..8, 0u8..5), 0..80),
            kind in 0u8..4,
            x in 0u64..1000,
            y in 0u64..1000,
            columns_sel in 0usize..4,
            extra in 1usize..40,
        ) {
            let states = stream(&segments);
            let view = states.view();
            let hi = view.ends().last().copied().unwrap_or(1000);
            let interval = window(1000, hi, kind, x, y);
            let columns = [1, 7, 800, interval.duration() as usize + extra][columns_sel];
            let mut count = 0;
            for (c, (bin, range)) in bin_ranges(view, interval, columns).enumerate() {
                assert_eq!(bin, interval.bin(columns, c));
                let want = states_overlapping_range(view, bin);
                assert_eq!(range, want, "column {c} of {columns} over {interval}");
                count += 1;
            }
            assert_eq!(count, columns);
        }
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
        // The struct-equivalent sample size is the paper's fixed denominator.
        let raw = samples.len() * std::mem::size_of::<aftermath_trace::CounterSample>();
        let overhead = index.memory_bytes() as f64 / raw as f64;
        assert!(overhead < 0.05, "overhead {overhead} should stay below 5 %");
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
