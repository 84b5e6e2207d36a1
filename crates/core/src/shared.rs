//! Long-lived, thread-shared analysis state for one resident trace: the seam
//! between the borrowing [`AnalysisSession`] and a multi-client server.
//!
//! A [`SharedSession`] owns the trace behind an [`Arc`] together with one
//! `SessionState` whose slots [`SharedSession::open`] fills, and hands out
//! cheap [`AnalysisSession`] *views* that read those slots in place. Every lane
//! of a resident trace is always usable and every slot is filled at open, so
//! the state is immutable (indexes, pyramids, trace columns) or internally
//! synchronised (the result caches): `SharedSession` is `Sync`, a server
//! serves views from as many threads as it likes, and a frame one client
//! computed is a cache hit for every other client. The thread budget `open` is
//! given is kept, and every view fans its frame rows and anomaly scan out on it
//! (the `threads` rule in [`crate::session`]).

use std::sync::Arc;

use aftermath_exec::Threads;
use aftermath_trace::{LintSummary, Trace};

use crate::session::{AnalysisSession, Need, SessionState};

/// Hit/miss totals of a shared result cache ([`SharedSession::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute their result.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One resident trace's shareable analysis state (see the module docs).
#[derive(Debug)]
pub struct SharedSession {
    trace: Arc<Trace>,
    lint: Option<LintSummary>,
    state: SessionState,
    /// Every view's thread budget.
    threads: Threads,
}

impl SharedSession {
    /// Opens shared state over `trace`: prewarms every counter index, every state
    /// pyramid and the access index on up to `threads` workers into the slots
    /// all later views read, which keep `threads` as their budget.
    ///
    /// This is the expensive, once-per-trace step — the server pays it when a
    /// trace is registered, not when a client connects.
    pub fn open(trace: Arc<Trace>, threads: Threads) -> Self {
        let state = SessionState::of(&trace);
        state.view(&trace, None, |_| true).prewarm(threads);
        SharedSession {
            trace,
            lint: None,
            state,
            threads,
        }
    }

    /// Attaches the lint summary of the trace (carried into every view, see
    /// [`AnalysisSession::lint_summary`]).
    #[must_use]
    pub fn with_lint_summary(mut self, summary: LintSummary) -> Self {
        self.lint = Some(summary);
        self
    }

    /// The shared trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// A cheap [`AnalysisSession`] view reading every shared index, pyramid,
    /// the access index and the result caches in place: nothing is copied or
    /// rebuilt. Views from concurrent threads share results through the
    /// caches.
    pub fn view(&self) -> AnalysisSession<'_> {
        let mut view = self.state.view(&self.trace, self.lint.as_ref(), |_| true);
        view.threads = self.threads;
        view
    }

    /// Runs `f` on a [`SharedSession::view`]. The same shape as
    /// [`crate::StoreSession::with_view`] — `&self`, a [`Need`], a closure over
    /// a view — so a server answers both backings through one call; a
    /// resident trace has everything every `need` reads and takes no lock.
    pub fn with_view<R>(&self, _need: Need, f: impl FnOnce(&AnalysisSession<'_>) -> R) -> R {
        f(&self.view())
    }

    /// Bytes of per-trace state shared by *all* sessions over this trace:
    /// resident columnar event data plus every built counter index and
    /// pyramid and the access index. Opening another session adds none of
    /// this — that is the sharing the serve bench's sessions-per-GB metric
    /// measures.
    pub fn shared_bytes(&self) -> usize {
        self.trace.resident_event_bytes() + self.state.memory_bytes()
    }

    /// Combined hit/miss totals of the shared timeline-model and
    /// anomaly-report caches, accumulated across every view of this trace.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_sim_trace;
    use crate::timeline::TimelineMode;

    #[test]
    fn views_share_indexes_and_caches() {
        let trace = Arc::new(small_sim_trace());
        let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
        assert!(shared.shared_bytes() > 0);
        let bounds = shared.trace().time_bounds();
        let a = shared
            .view()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        // A *different* view of the same shared state must hit the cache.
        let b = shared
            .view()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "views must share the timeline cache");
        let stats = shared.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        // Views read the prewarmed shards instead of rebuilding them: every
        // index and pyramid is already present before the view runs anything.
        let view = shared.view();
        let sampled: usize = trace
            .per_cpu()
            .iter()
            .map(|pc| pc.sample_streams().filter(|(_, s)| !s.is_empty()).count())
            .sum();
        assert_eq!(view.built_counter_indexes(), sampled);
        assert!(view.pyramid_memory_bytes() > 0, "pyramids arrive pre-built");
        assert!(view.access_index_built(), "so does the access index");
        assert!(std::ptr::eq(
            view.access_index(),
            shared.view().access_index()
        ));
    }

    /// Asks `ask` twice on views of `shared`: a key no entry holds yet is one
    /// miss, and its repeat one hit.
    fn a_new_entry(shared: &SharedSession, what: &str, ask: impl Fn(&AnalysisSession<'_>)) {
        let before = shared.cache_stats();
        ask(&shared.view());
        let missed = shared.cache_stats();
        ask(&shared.view());
        let hit = shared.cache_stats();
        assert_eq!(
            (missed.hits, missed.misses),
            (before.hits, before.misses + 1),
            "{what}: first ask"
        );
        assert_eq!(
            (hit.hits, hit.misses),
            (missed.hits + 1, missed.misses),
            "{what}: repeat"
        );
    }

    #[test]
    fn every_field_of_a_key_tells_cache_entries_apart() {
        use crate::anomaly::AnomalyConfig;
        use crate::filter::TaskFilter;
        use aftermath_trace::{CpuId, NumaNodeId, TimeInterval};

        let trace = Arc::new(small_sim_trace());
        let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
        let report = |config: AnomalyConfig| {
            move |view: &AnalysisSession<'_>| {
                view.detect_anomalies(&config).unwrap();
            }
        };
        fn nudged(edit: impl FnOnce(&mut AnomalyConfig)) -> AnomalyConfig {
            let mut config = AnomalyConfig::default();
            edit(&mut config);
            config
        }
        a_new_entry(&shared, "default config", report(AnomalyConfig::default()));
        let configs = [
            nudged(|c| c.idle = None),
            nudged(|c| c.numa = None),
            nudged(|c| c.counter = None),
            nudged(|c| c.duration = None),
            nudged(|c| c.idle.as_mut().unwrap().bins += 1),
            nudged(|c| c.idle.as_mut().unwrap().idle_fraction += 0.05),
            nudged(|c| c.idle.as_mut().unwrap().min_windows += 1),
            nudged(|c| c.numa.as_mut().unwrap().k_sigma += 0.5),
            nudged(|c| c.numa.as_mut().unwrap().min_remote_fraction += 0.05),
            nudged(|c| c.numa.as_mut().unwrap().max_threshold -= 0.05),
            nudged(|c| c.numa.as_mut().unwrap().merge_gap_cycles = Some(1_000)),
            nudged(|c| c.counter.as_mut().unwrap().k_mad += 0.5),
            nudged(|c| c.counter.as_mut().unwrap().min_samples += 1),
            nudged(|c| c.counter.as_mut().unwrap().merge_gap_cycles = Some(1_000)),
            nudged(|c| c.duration.as_mut().unwrap().k_mad += 0.5),
            nudged(|c| c.duration.as_mut().unwrap().min_samples += 1),
            nudged(|c| c.duration.as_mut().unwrap().detect_fast ^= true),
            nudged(|c| c.duration.as_mut().unwrap().merge_gap_cycles = Some(1_000)),
            nudged(|c| c.max_anomalies -= 1),
        ];
        assert!(configs.len() < AnalysisSession::ANOMALY_CACHE_CAPACITY);
        for config in configs {
            a_new_entry(&shared, &format!("{config:?}"), report(config));
        }

        let bounds = trace.time_bounds();
        let frame = |mode, interval, columns, filter: TaskFilter| {
            move |view: &AnalysisSession<'_>| {
                view.timeline_filtered(mode, interval, columns, &filter)
                    .unwrap();
            }
        };
        let heatmap = |min_duration, max_duration| TimelineMode::Heatmap {
            min_duration,
            max_duration,
        };
        let task_type = trace.task_types()[0].id;
        let plain = TaskFilter::new();
        let later_start = TimeInterval::from_cycles(bounds.start.0 + 1, bounds.end.0);
        let earlier_end = TimeInterval::from_cycles(bounds.start.0, bounds.end.0 - 1);
        a_new_entry(
            &shared,
            "first frame",
            frame(TimelineMode::TaskType, bounds, 64, plain.clone()),
        );
        let filters = [
            plain.clone().with_task_type(task_type),
            plain.clone().with_cpu(CpuId(0)),
            plain.clone().with_min_duration(1),
            plain.clone().with_max_duration(1_000_000),
            plain.clone().with_interval(earlier_end),
            plain.clone().with_reads_from_node(NumaNodeId(0)),
            plain.clone().with_writes_to_node(NumaNodeId(0)),
        ];
        for filter in filters {
            let what = format!("{filter:?}");
            a_new_entry(
                &shared,
                &what,
                frame(TimelineMode::TaskType, bounds, 64, filter),
            );
        }
        let frames = [
            ("heatmap", heatmap(0, 1_000), bounds, 64),
            ("heatmap min_duration", heatmap(1, 1_000), bounds, 64),
            ("heatmap max_duration", heatmap(0, 1_001), bounds, 64),
            ("interval start", TimelineMode::TaskType, later_start, 64),
            ("interval end", TimelineMode::TaskType, earlier_end, 64),
            ("columns", TimelineMode::TaskType, bounds, 65),
        ];
        for (what, mode, interval, columns) in frames {
            a_new_entry(&shared, what, frame(mode, interval, columns, plain.clone()));
        }
        // Sets compare as sets: the same CPUs added in another order hit.
        let view = shared.view();
        let cpus = |order: [u32; 2]| {
            order
                .map(CpuId)
                .into_iter()
                .fold(plain.clone(), TaskFilter::with_cpu)
        };
        let first = view.timeline_filtered(TimelineMode::TaskType, bounds, 64, &cpus([0, 1]));
        let again = view.timeline_filtered(TimelineMode::TaskType, bounds, 64, &cpus([1, 0]));
        assert!(Arc::ptr_eq(&first.unwrap(), &again.unwrap()));
    }

    #[test]
    fn shared_session_is_sync_and_answers_match_direct() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SharedSession>();
        let trace = Arc::new(small_sim_trace());
        let shared = SharedSession::open(Arc::clone(&trace), Threads::single());
        let direct = AnalysisSession::new(&trace);
        let bounds = direct.time_bounds();
        let from_view = shared
            .view()
            .timeline(TimelineMode::TaskType, bounds, 48)
            .unwrap();
        let from_direct = direct.timeline(TimelineMode::TaskType, bounds, 48).unwrap();
        assert_eq!(*from_view, *from_direct);
    }

    #[test]
    fn a_view_carries_the_budget_open_was_given() {
        let trace = Arc::new(small_sim_trace());
        assert_eq!(AnalysisSession::new(&trace).threads, Threads::single());
        for threads in [Threads::single(), Threads::new(2), Threads::new(3)] {
            let shared = SharedSession::open(Arc::clone(&trace), threads);
            assert_eq!(shared.view().threads, threads);
            assert_eq!(
                shared.with_view(Need::Nothing, |view| view.threads),
                threads
            );
        }
    }

    #[test]
    fn lint_summary_rides_into_views() {
        let trace = Arc::new(small_sim_trace());
        let mut summary = LintSummary::new();
        summary.record(aftermath_trace::LintCode::UnclosedInterval);
        let shared =
            SharedSession::open(Arc::clone(&trace), Threads::single()).with_lint_summary(summary);
        assert_eq!(shared.view().lint_summary().map(|s| s.total()), Some(1));
    }
}
