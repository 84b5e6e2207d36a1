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

use std::sync::{Arc, OnceLock};

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
    /// [`crate::StoreSession::with_view`], so a server answers both through one
    /// call; a resident trace has everything every `need` reads.
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

    /// Number of shared counter-index shards.
    pub fn num_indexes(&self) -> usize {
        self.state
            .indexes
            .values()
            .filter_map(OnceLock::get)
            .count()
    }

    /// Number of shared state pyramids.
    pub fn num_pyramids(&self) -> usize {
        self.state.pyramids.iter().filter_map(OnceLock::get).count()
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
        assert!(shared.num_pyramids() > 0);
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
        assert_eq!(view.built_counter_indexes(), shared.num_indexes());
        assert!(view.pyramid_memory_bytes() > 0, "pyramids arrive pre-built");
        assert!(view.access_index_built(), "so does the access index");
        assert!(std::ptr::eq(
            view.access_index(),
            shared.view().access_index()
        ));
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
