//! The level tree both summary structures are built on: the counter min/max/sum
//! index ([`crate::index::CounterIndex`], the paper's n-ary search tree) and the
//! state pyramid ([`crate::pyramid::StatePyramid`]).
//!
//! A [`Levels<N>`] summarises a stream of items it does not own. Level 0 holds one
//! node per group of `fanout` consecutive items, level `k` one node per group of
//! `fanout` nodes of level `k - 1`, and the last level a single root. The owner
//! supplies the node type and two closures — `leaf(lo, hi)` summarises the raw
//! items `[lo, hi)`, `combine(nodes)` a group of nodes — and gets from here, once:
//! growing the tree when the stream does ([`Levels::append_tail`]; a fresh build
//! is the append to an empty tree), and splitting an item range into raw runs and
//! whole nodes ([`Levels::fold`]).

/// One piece of an item range, as [`Levels::fold`] hands it out.
#[derive(Debug)]
pub(crate) enum Span<'a, N> {
    /// The raw items `[lo, hi)`, never empty: the owner reduces them with the
    /// kernel its leaves are built with.
    Items(usize, usize),
    /// A node all of whose items lie inside the range.
    Node(&'a N),
}

/// A tree of summary nodes over `len` items, `fanout` children per node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Levels<N> {
    fanout: usize,
    len: usize,
    levels: Vec<Vec<N>>,
}

impl<N> Levels<N> {
    /// The tree over no items.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub(crate) fn new(fanout: usize) -> Self {
        assert!(fanout >= 2, "a summary tree needs a fanout of at least 2");
        Levels {
            fanout,
            len: 0,
            levels: Vec::new(),
        }
    }

    /// Children per node.
    pub(crate) fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of summarised items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of levels (0 over no items).
    pub(crate) fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The nodes of `level`, in item order.
    pub(crate) fn level(&self, level: usize) -> &[N] {
        &self.levels[level]
    }

    /// Every node, level by level.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &N> {
        self.levels.iter().flatten()
    }

    /// Total number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Grows the tree from `old_len` to `new_len` items by recomputing only its
    /// rightmost spine — the partial tail node of every level plus the nodes over
    /// the new items, `O(new / fanout + fanout · log n)` — and returns the number
    /// of recomputed nodes. A level appears exactly when the one below it outgrows
    /// a single node, so the result is `==` to the tree appended to in any other
    /// steps, in particular in one step from empty.
    ///
    /// # Panics
    ///
    /// Panics when `old_len` is not the summarised length or `new_len` is smaller.
    pub(crate) fn append_tail(
        &mut self,
        old_len: usize,
        new_len: usize,
        mut leaf: impl FnMut(usize, usize) -> N,
        combine: impl Fn(&[N]) -> N,
    ) -> usize {
        assert_eq!(old_len, self.len, "the tree covers exactly the prefix");
        assert!(new_len >= old_len, "streams are append-only");
        if new_len == old_len {
            return 0;
        }
        self.len = new_len;
        let fanout = self.fanout;
        // Level 0: the node over item `old_len` may be a partial tail node, so
        // everything from it on is recomputed from the items.
        let mut first = old_len / fanout;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let level0 = &mut self.levels[0];
        level0.truncate(first);
        level0.extend(
            (first * fanout..new_len)
                .step_by(fanout)
                .map(|lo| leaf(lo, (lo + fanout).min(new_len))),
        );
        let mut rebuilt = level0.len() - first;
        // Upper levels: the spine above the changed children.
        for level in 1.. {
            if level == self.levels.len() {
                if self.levels[level - 1].len() <= 1 {
                    break;
                }
                self.levels.push(Vec::new());
            }
            first /= fanout;
            let (lower, upper) = self.levels.split_at_mut(level);
            let (children, nodes) = (&lower[level - 1], &mut upper[0]);
            nodes.truncate(first);
            nodes.extend(children[first * fanout..].chunks(fanout).map(&combine));
            rebuilt += nodes.len() - first;
        }
        rebuilt
    }

    /// Whether a whole level-0 node lies inside `[lo, hi)`. When none does, no node
    /// of any level does, and [`Levels::fold`] hands out raw runs only.
    pub(crate) fn holds_whole_node(&self, lo: usize, hi: usize) -> bool {
        // Asked once per timeline cell: a range shorter than a node is told so
        // without the divisions below.
        hi.saturating_sub(lo) >= self.fanout
            && lo.next_multiple_of(self.fanout) + self.fanout <= hi.min(self.len)
    }

    /// Hands `f` every item of `[lo, hi)` exactly once, through the coarsest nodes
    /// that lie inside the range and as raw runs where none does.
    ///
    /// The visiting order is fixed: the run before the first whole level-0 node,
    /// the run after the last one, then level by level the nodes before the first
    /// whole group (ascending) and those after the last (descending). The counter
    /// index sums `f64` values in this order and floating-point addition is not
    /// associative, so reordering the visits would move `counter_average` in its
    /// last bits; a range holding no whole node is two runs for the same reason.
    pub(crate) fn fold<'a>(&'a self, lo: usize, hi: usize, mut f: impl FnMut(Span<'a, N>)) {
        let fanout = self.fanout;
        let hi = hi.min(self.len);
        if lo >= hi {
            return;
        }
        let i = hi.min(lo.next_multiple_of(fanout));
        let j = (hi - hi % fanout).max(i);
        if lo < i {
            f(Span::Items(lo, i));
        }
        if j < hi {
            f(Span::Items(j, hi));
        }
        let (mut lo, mut hi) = (i / fanout, j / fanout);
        for nodes in &self.levels {
            if lo >= hi {
                return;
            }
            let i = hi.min(lo.next_multiple_of(fanout));
            let j = (hi - hi % fanout).max(i);
            nodes[lo..i].iter().for_each(|n| f(Span::Node(n)));
            nodes[j..hi].iter().rev().for_each(|n| f(Span::Node(n)));
            (lo, hi) = (i / fanout, j / fanout);
        }
        debug_assert!(lo >= hi, "the last level is a single root");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(sum, count)` of the items `lo..hi` of the stream `0, 1, 2, …`.
    type SumCount = (usize, usize);

    fn leaf(lo: usize, hi: usize) -> SumCount {
        ((lo..hi).sum(), hi - lo)
    }

    fn combine(nodes: &[SumCount]) -> SumCount {
        nodes
            .iter()
            .fold((0, 0), |(s, c), &(ns, nc)| (s + ns, c + nc))
    }

    fn build(fanout: usize, n: usize) -> Levels<SumCount> {
        let mut tree = Levels::new(fanout);
        tree.append_tail(0, n, leaf, combine);
        tree
    }

    #[test]
    fn fold_visits_every_item_of_every_range_exactly_once() {
        for fanout in [2, 3, 4, 32] {
            for n in 0..=70 {
                let tree = build(fanout, n);
                assert_eq!(tree.len(), n);
                assert_eq!(tree.num_levels() == 0, n == 0);
                for lo in 0..=n {
                    // `hi` past the end is clamped to it.
                    for hi in lo..=n + 1 {
                        let mut seen = vec![0u8; n];
                        let (mut sum, mut count, mut nodes) = (0, 0, 0);
                        tree.fold(lo, hi, |span| match span {
                            Span::Items(a, b) => {
                                assert!(a < b, "runs are never empty");
                                seen[a..b].iter_mut().for_each(|s| *s += 1);
                                (sum, count) = (sum + leaf(a, b).0, count + b - a);
                            }
                            Span::Node(&(s, c)) => {
                                (sum, count, nodes) = (sum + s, count + c, nodes + 1);
                            }
                        });
                        let hi = hi.min(n);
                        assert_eq!((sum, count), leaf(lo, hi), "{fanout} {n} {lo}..{hi}");
                        assert!(seen.iter().all(|&s| s <= 1), "an item visited twice");
                        // Nodes are read exactly when the range holds a whole one,
                        // and then for all of the whole level-0 nodes inside it.
                        let covered = seen.iter().filter(|&&s| s == 1).count();
                        let (i, j) = (lo.next_multiple_of(fanout), hi / fanout * fanout);
                        assert_eq!(tree.holds_whole_node(lo, hi), i < j);
                        match i < j {
                            true => assert!(nodes > 0 && count - covered == j - i),
                            false => assert_eq!((nodes, covered), (0, count)),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn append_tail_equals_a_fresh_build_at_every_split_and_in_steps_of_one() {
        for fanout in [2, 3, 4, 32] {
            let mut stepped = Levels::new(fanout);
            for n in 0..=70 {
                let fresh = build(fanout, n);
                assert_eq!(fresh.num_nodes(), fresh.nodes().count());
                if n > 0 {
                    assert_eq!(fresh.level(fresh.num_levels() - 1), &[leaf(0, n)]);
                    assert!(stepped.append_tail(n - 1, n, leaf, combine) >= fresh.num_levels());
                }
                assert_eq!(stepped, fresh, "fanout {fanout}, {n} single steps");
                for split in 0..=n {
                    let mut grown = build(fanout, split);
                    let rebuilt = grown.append_tail(split, n, leaf, combine);
                    assert_eq!(grown, fresh, "fanout {fanout}, {split} -> {n}");
                    assert_eq!(rebuilt == 0, split == n);
                    assert!(rebuilt <= fresh.num_nodes());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "covers exactly the prefix")]
    fn append_tail_rejects_a_wrong_old_length() {
        build(4, 10).append_tail(9, 12, leaf, combine);
    }
}
