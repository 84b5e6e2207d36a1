//! Long-lived, thread-shared analysis state for one trace: the seam between
//! the borrowing [`AnalysisSession`] and a multi-client server.
//!
//! [`AnalysisSession`] borrows its trace, which is the right shape for a
//! single analysis run but not for a server that must hold many traces open
//! across requests from hundreds of clients. A [`SharedSession`] owns the
//! trace behind an [`Arc`] together with every piece of per-trace state worth
//! sharing — built counter indexes, state pyramids, the access index, the
//! timeline/anomaly LRU caches and the adaptive engine's cost model — and
//! hands out cheap [`AnalysisSession`] *views* pre-seeded with all of it
//! (`AnalysisSession::with_prebuilt`, the same seam `StoreSession` and
//! `LiveSession` use).
//!
//! The sharing story is what makes "hundreds of clients zooming the same
//! 16M-event trace" cheap: a view costs `O(built shards)` `Arc` clones, and
//! every view funnels its timeline-model and anomaly-report lookups through
//! the *same* cache handles, so a frame one client computed is a cache hit for
//! every other client. All shared structures are immutable after construction
//! (indexes, pyramids, trace columns) or internally synchronized (the LRU
//! caches, the cost model's `OnceLock`), so `SharedSession` is `Sync` and a
//! server can serve views from as many threads as it likes.

use std::collections::HashMap;
use std::sync::Arc;

use aftermath_exec::Threads;
use aftermath_trace::{CounterId, CpuId, LintSummary, Trace};

use crate::index::CounterIndex;
use crate::pyramid::StatePyramid;
use crate::session::{AnalysisSession, SessionHandles};

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

/// One trace's shareable analysis state: the owned trace, its fully built
/// index shards, and the result caches every view funnels through (see the
/// module docs for the sharing model).
#[derive(Debug)]
pub struct SharedSession {
    trace: Arc<Trace>,
    lint: Option<LintSummary>,
    indexes: HashMap<(CpuId, CounterId), Arc<CounterIndex>>,
    pyramids: HashMap<u32, Arc<StatePyramid>>,
    /// Result caches, cost model and the (prewarmed) access index.
    handles: SessionHandles,
}

impl SharedSession {
    /// Opens shared state over `trace`: prewarms every counter index, every state
    /// pyramid and the access index on up to `threads` workers and keeps them for
    /// all later views.
    ///
    /// This is the expensive, once-per-trace step — the server pays it when a
    /// trace is registered, not when a client connects.
    pub fn open(trace: Arc<Trace>, threads: Threads) -> Self {
        let handles = SessionHandles::new();
        let (indexes, pyramids) = {
            let warm = AnalysisSession::with_prebuilt(
                &trace,
                &HashMap::new(),
                &HashMap::new(),
                handles.clone(),
            );
            warm.prewarm(threads);
            warm.built_shards()
        };
        SharedSession {
            trace,
            lint: None,
            indexes,
            pyramids,
            handles,
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

    /// A cheap [`AnalysisSession`] view pre-seeded with every shared index,
    /// pyramid, the access index, cache handle and the cost model: `O(built
    /// shards)` `Arc` clones, no data copied or rebuilt. Views from concurrent
    /// threads share results through the cache handles.
    pub fn view(&self) -> AnalysisSession<'_> {
        let session = AnalysisSession::with_prebuilt(
            &self.trace,
            &self.indexes,
            &self.pyramids,
            self.handles.clone(),
        );
        match &self.lint {
            Some(summary) => session.with_lint_summary(summary.clone()),
            None => session,
        }
    }

    /// Bytes of per-trace state shared by *all* sessions over this trace:
    /// resident columnar event data plus every built counter index and
    /// pyramid and the access index. Opening another session adds none of
    /// this — that is the sharing the serve bench's sessions-per-GB metric
    /// measures.
    pub fn shared_bytes(&self) -> usize {
        let indexes: usize = self.indexes.values().map(|i| i.memory_bytes()).sum();
        let pyramids: usize = self.pyramids.values().map(|p| p.memory_bytes()).sum();
        let access_index = self.handles.access_index.get();
        self.trace.resident_event_bytes()
            + indexes
            + pyramids
            + access_index.map_or(0, |index| index.memory_bytes())
    }

    /// Number of shared counter-index shards.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// Number of shared state pyramids.
    pub fn num_pyramids(&self) -> usize {
        self.pyramids.len()
    }

    /// Combined hit/miss totals of the shared timeline-model and
    /// anomaly-report caches, accumulated across every view of this trace.
    pub fn cache_stats(&self) -> CacheStats {
        let (th, tm) = self.handles.timeline_cache.stats();
        let (ah, am) = self.handles.anomaly_cache.stats();
        CacheStats {
            hits: th + ah,
            misses: tm + am,
        }
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
        // Views re-seed the prewarmed shards instead of rebuilding them: every
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
    fn lint_summary_rides_into_views() {
        let trace = Arc::new(small_sim_trace());
        let mut summary = LintSummary::new();
        summary.record(aftermath_trace::LintCode::UnclosedInterval);
        let shared =
            SharedSession::open(Arc::clone(&trace), Threads::single()).with_lint_summary(summary);
        assert_eq!(shared.view().lint_summary().map(|s| s.total()), Some(1));
    }
}
