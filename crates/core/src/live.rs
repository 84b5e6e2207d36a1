//! Epoch-based incremental analysis over a growing trace.
//!
//! A [`LiveSession`] is the analysis-side half of the streaming ingest layer (the
//! trace-side half is [`aftermath_trace::streaming`]): it owns a
//! [`StreamingTrace`] and keeps every index the batch [`AnalysisSession`] would
//! build — per-`(CPU, counter)` [`CounterIndex`] shards and per-CPU
//! [`StatePyramid`]s — **incrementally maintained** across
//! [`advance`](LiveSession::advance) calls:
//!
//! * per-CPU event streams grow append-only (validated by the streaming trace),
//! * each affected index absorbs its stream's new tail by rebuilding only the
//!   rightmost spine ([`CounterIndex::append_tail`],
//!   [`StatePyramid::append_tail`]) — `O(new events + log n)` per epoch, never a
//!   full rebuild. The tail starts where the index ends: each is asked for the
//!   length it already summarises ([`CounterIndex::num_samples`],
//!   [`StatePyramid::num_intervals`]), so the session records no stream
//!   lengths of its own and an append of zero or several chunks is absorbed
//!   alike,
//! * result caches (timeline models, anomaly reports) are invalidated **per
//!   epoch**: within an epoch repeated queries hit the shared cache, and an
//!   `advance` swaps in fresh caches instead of letting stale viewports survive.
//!
//! Every query, frame and report goes through
//! [`session`](LiveSession::session) — the live session forwards none of the
//! view's methods — which opens a warm [`AnalysisSession`] view reading the
//! incrementally maintained shards in place: they live in the slots of the
//! same `SessionState` every other owner keeps, and the live session grows
//! them itself through its own `&mut self` — which no view outlives, by the
//! borrow rules. Because
//! every incrementally updated index is structurally identical to a fresh build over the
//! same stream, every answer — interval queries, timeline models, anomaly
//! rankings — is **byte-identical** to a from-scratch batch session over the same
//! prefix at every epoch (property-tested in `tests/streaming_equivalence.rs`).
//!
//! ```rust
//! use aftermath_core::live::LiveSession;
//! use aftermath_core::TimelineMode;
//! use aftermath_trace::streaming::TraceChunk;
//! use aftermath_trace::{CpuId, MachineTopology, StateInterval, TimeInterval, TraceBuilder, WorkerState};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prologue = TraceBuilder::new(MachineTopology::uniform(1, 2));
//! let mut live = LiveSession::new(prologue)?;
//! let mut chunk = TraceChunk::new();
//! chunk.states.push(StateInterval::new(
//!     CpuId(0), WorkerState::Idle, TimeInterval::from_cycles(0, 100), None,
//! ));
//! let stats = live.advance(chunk)?;
//! assert_eq!(stats.epoch, 1);
//! let frame = live.session().timeline(TimelineMode::State, live.time_bounds(), 10)?;
//! assert_eq!(frame.columns, 10);
//! # Ok(())
//! # }
//! ```

use std::sync::OnceLock;

use aftermath_trace::streaming::{StreamingTrace, TraceChunk};
use aftermath_trace::{
    LintMode, LintReport, LintSummary, SamplesView, StatesView, TimeInterval, Trace, TraceBuilder,
    TraceError,
};

use crate::index::CounterIndex;
use crate::pyramid::StatePyramid;
use crate::session::{AnalysisSession, SessionState};

/// What one [`LiveSession::advance`] call did, for latency accounting and for
/// asserting incrementality (a spine rebuild touches a vanishing fraction of the
/// total nodes; a full rebuild would touch all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// The epoch the session is now at (starts at 0, +1 per accepted chunk).
    pub epoch: u64,
    /// Number of items the chunk appended.
    pub appended_items: usize,
    /// Summary nodes recomputed across all affected indexes and pyramids.
    pub nodes_rebuilt: usize,
}

/// An incrementally maintained analysis session over a [`StreamingTrace`].
///
/// See the [module docs](crate::live) for the maintenance and byte-identity
/// guarantees. The borrow rules enforce epoch consistency for free: a session view
/// borrows the `LiveSession`, so no view (and nothing derived from its borrowed
/// queries) can outlive the next `advance`.
#[derive(Debug)]
pub struct LiveSession {
    stream: StreamingTrace,
    /// The slots of the incrementally maintained shards (one counter index per
    /// sampled pair, one pyramid per CPU with states) and what this epoch's
    /// views share: the result caches and the access index, replaced when an
    /// `advance` appends anything.
    state: SessionState,
    /// Total summary nodes rebuilt since the session opened (cold build included).
    total_nodes_rebuilt: u64,
    /// Accumulated lint summary across all [`LiveSession::advance_lint`] calls;
    /// `None` until the lint-aware ingest path is used.
    lint: Option<LintSummary>,
}

impl LiveSession {
    /// Opens a live session on a prologue builder (immutable metadata plus any
    /// initial events, which are indexed as the epoch-0 prefix).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`TraceBuilder::finish`].
    pub fn new(prologue: TraceBuilder) -> Result<Self, TraceError> {
        Ok(Self::from_stream(StreamingTrace::new(prologue)?))
    }

    /// Opens a live session over an existing stream, cold-building the indexes for
    /// everything already ingested. The session resumes at the stream's epoch
    /// ([`StreamingTrace::epochs`]), so epoch numbers stay aligned with the
    /// stream's accepted-chunk sequence across a resume.
    pub fn from_stream(stream: StreamingTrace) -> Self {
        let mut live = LiveSession {
            state: SessionState::of(stream.trace()),
            stream,
            total_nodes_rebuilt: 0,
            lint: None,
        };
        live.absorb(0);
        live
    }

    /// Ingests one chunk: validates and appends it to the stream, lets every
    /// affected index absorb its new tail (spine rebuild, no full rebuilds), bumps
    /// the epoch and invalidates the result caches. An empty chunk (a keepalive
    /// epoch from a live source) changes no answer, so its caches survive.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamingTrace::append`] errors; on error nothing changed (the
    /// epoch does not advance and all indexes still describe the old prefix).
    pub fn advance(&mut self, chunk: TraceChunk) -> Result<EpochStats, TraceError> {
        let (stats, _) = self.ingest(|stream| stream.append(chunk))?;
        Ok(stats)
    }

    /// Ingests one explicitly sequenced chunk through the lint pipeline
    /// ([`StreamingTrace::append_lint`]) and absorbs whatever it appended into
    /// the maintained indexes.
    ///
    /// Unlike [`advance`](LiveSession::advance), one call may append **zero**
    /// chunks (a from-the-future chunk is buffered in lenient mode, a late
    /// duplicate dropped) or **several** (a gap-filling chunk releases its
    /// buffered successors), so the returned [`EpochStats`] describes the net
    /// effect and `epoch` advances by the number of chunks actually applied.
    /// The report's summary also accumulates into
    /// [`lint_summary`](LiveSession::lint_summary), which every subsequent
    /// session view carries.
    ///
    /// # Errors
    ///
    /// See [`StreamingTrace::append_lint`]. Whatever the stream appended before
    /// it failed is absorbed before the error is returned, so the indexes, the
    /// epoch and the stream always describe the same prefix.
    pub fn advance_lint(
        &mut self,
        sequence: u64,
        chunk: TraceChunk,
        mode: LintMode,
    ) -> Result<(EpochStats, LintReport), TraceError> {
        self.ingest_lint(|stream| stream.append_lint(sequence, chunk, mode))
    }

    /// Closes the lenient lint stream ([`StreamingTrace::close_lint`]): flushes
    /// every buffered chunk, flags the sequence numbers that never arrived, and
    /// absorbs the appended tail into the maintained indexes.
    ///
    /// # Errors
    ///
    /// See [`StreamingTrace::close_lint`]; like
    /// [`advance_lint`](LiveSession::advance_lint), an error leaves the session
    /// describing exactly what the stream holds.
    pub fn close_lint(&mut self) -> Result<(EpochStats, LintReport), TraceError> {
        self.ingest_lint(StreamingTrace::close_lint)
    }

    /// The one ingest path: lets `append` grow the stream, then absorbs the
    /// growth — also when `append` failed, so an error can never leave the
    /// maintained indexes behind the stream they describe.
    fn ingest<T>(
        &mut self,
        append: impl FnOnce(&mut StreamingTrace) -> Result<T, TraceError>,
    ) -> Result<(EpochStats, T), TraceError> {
        let items_before = item_count(self.stream.trace());
        let outcome = append(&mut self.stream);
        let stats = self.absorb(items_before);
        Ok((stats, outcome?))
    }

    /// [`ingest`](Self::ingest) for the lint entry points: the report's summary
    /// accumulates into the session's.
    fn ingest_lint(
        &mut self,
        append: impl FnOnce(&mut StreamingTrace) -> Result<LintReport, TraceError>,
    ) -> Result<(EpochStats, LintReport), TraceError> {
        let (stats, report) = self.ingest(append)?;
        self.lint
            .get_or_insert_with(LintSummary::new)
            .merge(report.summary());
        Ok((stats, report))
    }

    /// The lint summary accumulated over every
    /// [`advance_lint`](LiveSession::advance_lint)/[`close_lint`](LiveSession::close_lint)
    /// call, or `None` when the session only ever used the plain
    /// [`advance`](LiveSession::advance) path.
    pub fn lint_summary(&self) -> Option<&LintSummary> {
        self.lint.as_ref()
    }

    /// Lets every pyramid and counter index absorb what its stream has grown by
    /// since — each knows the length it summarises, which may be zero or several
    /// chunks behind (the epoch is the stream's accepted-chunk count) and,
    /// when the trace holds more than `items_before`, swaps in fresh result
    /// caches and an empty access-index slot (views of the old epoch — all
    /// dropped by now — kept the old ones alive only as long as they needed
    /// them).
    fn absorb(&mut self, items_before: usize) -> EpochStats {
        let trace = self.stream.trace();
        let mut nodes_rebuilt = 0;
        for (pc, pyramid) in trace.per_cpu().iter().zip(&mut self.state.pyramids) {
            // A CPU without states has no pyramid, as in a batch session (a
            // sample stream exists from its first sample on).
            if !pc.states().is_empty() {
                nodes_rebuilt += grow_pyramid(pyramid, trace, pc.states());
            }
            for (counter, samples) in pc.sample_streams() {
                let index = self.state.indexes.entry((pc.cpu(), counter));
                nodes_rebuilt += grow_index(index.or_default(), samples);
            }
        }
        let appended_items = item_count(trace) - items_before;
        self.total_nodes_rebuilt += nodes_rebuilt as u64;
        if appended_items > 0 {
            self.state.invalidate_data();
        }
        EpochStats {
            epoch: self.stream.epochs(),
            appended_items,
            nodes_rebuilt,
        }
    }

    /// Opens a warm [`AnalysisSession`] view of the current epoch: it reads every
    /// maintained index shard in place (nothing rebuilds lazily that the live
    /// session already has) and shares the result caches with every other view
    /// of this epoch. A session ingesting through
    /// [`advance_lint`](LiveSession::advance_lint) hands its accumulated lint
    /// summary to every view ([`AnalysisSession::lint_summary`]).
    pub fn session(&self) -> AnalysisSession<'_> {
        self.state
            .view(self.stream.trace(), self.lint.as_ref(), |_| true)
    }

    /// The current epoch (number of accepted chunks).
    pub fn epoch(&self) -> u64 {
        self.stream.epochs()
    }

    /// The ingested trace prefix.
    pub fn trace(&self) -> &Trace {
        self.stream.trace()
    }

    /// The underlying stream.
    pub fn stream(&self) -> &StreamingTrace {
        &self.stream
    }

    /// Time bounds of the ingested prefix, maintained incrementally (O(1); equal to
    /// the batch session's [`AnalysisSession::time_bounds`] at every epoch).
    pub fn time_bounds(&self) -> TimeInterval {
        self.stream.time_bounds()
    }

    /// Total summary nodes currently held across all indexes and pyramids.
    pub fn num_index_nodes(&self) -> usize {
        let indexes = self.state.indexes.values().filter_map(OnceLock::get);
        let pyramids = self.state.pyramids.iter().filter_map(OnceLock::get);
        indexes.map(CounterIndex::num_nodes).sum::<usize>()
            + pyramids.map(StatePyramid::num_nodes).sum::<usize>()
    }

    /// Total summary nodes rebuilt since the session opened, cold builds included
    /// (diagnostics; the incrementality tests compare this against
    /// [`num_index_nodes`](Self::num_index_nodes)).
    pub fn total_nodes_rebuilt(&self) -> u64 {
        self.total_nodes_rebuilt
    }
}

/// Lets a CPU's pyramid slot absorb the states appended since it was last
/// grown, by rebuilding its rightmost spine; the CPU's first states grow an
/// empty one, which is a build. Returns the number of summary nodes
/// (re)computed.
fn grow_pyramid(slot: &mut OnceLock<StatePyramid>, trace: &Trace, states: StatesView<'_>) -> usize {
    slot.get_or_init(|| StatePyramid::build(trace, states.slice(0, 0)));
    let pyramid = slot.get_mut().expect("initialised above");
    let old_len = pyramid.num_intervals();
    pyramid.append_tail(trace, states, old_len)
}

/// [`grow_pyramid`] for the counter-index slot of one sampled pair.
fn grow_index(slot: &mut OnceLock<CounterIndex>, samples: SamplesView<'_>) -> usize {
    slot.get_or_init(|| CounterIndex::new(samples.slice(0, 0)));
    let index = slot.get_mut().expect("initialised above");
    let old_len = index.num_samples();
    index.append_tail(samples, old_len)
}

/// Every item of the trace, the task table included — what
/// [`TraceChunk::len`] counts of a chunk.
fn item_count(trace: &Trace) -> usize {
    trace.num_events() + trace.tasks().len()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::anomaly::AnomalyConfig;
    use crate::testutil::small_sim_trace;
    use crate::timeline::TimelineMode;
    use aftermath_trace::streaming::{make_streamable, split_even};
    use aftermath_trace::CpuId;

    fn replayable() -> (TraceBuilder, Vec<TraceChunk>, Trace) {
        let trace = make_streamable(&small_sim_trace());
        let (prologue, chunks) = split_even(&trace, 6).unwrap();
        (prologue, chunks, trace)
    }

    #[test]
    fn advance_is_incremental_not_a_full_rebuild() {
        let trace = make_streamable(&small_sim_trace());
        // Cut so the last chunk carries roughly 1 % of the trace.
        let bounds = trace.time_bounds();
        let cut = aftermath_trace::Timestamp(bounds.start.0 + bounds.duration() / 100 * 99);
        let (prologue, chunks) = aftermath_trace::streaming::split_at(&trace, &[cut]).unwrap();
        let mut live = LiveSession::new(prologue).unwrap();
        let [head, tail]: [TraceChunk; 2] = chunks.try_into().unwrap();
        live.advance(head).unwrap();
        let total_nodes = live.num_index_nodes();
        let stats = live.advance(tail).unwrap();
        assert!(
            stats.nodes_rebuilt * 10 < total_nodes,
            "a ~1 % append rebuilt {} of {} nodes — that is a full rebuild, not a spine update",
            stats.nodes_rebuilt,
            total_nodes
        );
    }

    #[test]
    fn session_views_are_warm_and_answers_match_batch() {
        let (prologue, chunks, full) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        for chunk in chunks {
            live.advance(chunk).unwrap();
            let view = live.session();
            // The view reads every maintained shard in place: it reports them as
            // built without having answered a single query.
            assert_eq!(view.built_counter_indexes(), live.state.indexes.len());
            let batch = AnalysisSession::new(live.trace());
            assert_eq!(live.time_bounds(), batch.time_bounds());
            let bounds = live.time_bounds();
            if bounds.is_empty() {
                continue;
            }
            let a = view.timeline(TimelineMode::State, bounds, 64).unwrap();
            let b = batch.timeline(TimelineMode::State, bounds, 64).unwrap();
            assert_eq!(*a, *b);
        }
        assert_eq!(live.trace(), &full, "full replay reproduces the trace");
    }

    #[test]
    fn caches_live_within_an_epoch_and_die_across_epochs() {
        let (prologue, chunks, _) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        let mut chunks = chunks.into_iter();
        live.advance(chunks.next().unwrap()).unwrap();
        let bounds = live.time_bounds();
        let a = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        let b = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same viewport within an epoch must hit the shared cache"
        );
        let report = live
            .session()
            .detect_anomalies(&AnomalyConfig::default())
            .unwrap();
        let again = live
            .session()
            .detect_anomalies(&AnomalyConfig::default())
            .unwrap();
        assert!(Arc::ptr_eq(&report, &again));
        live.advance(chunks.next().unwrap()).unwrap();
        let c = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "advance must invalidate the timeline cache"
        );
    }

    #[test]
    fn empty_chunk_is_a_cheap_epoch_that_keeps_the_caches() {
        let (prologue, chunks, _) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        for chunk in chunks {
            live.advance(chunk).unwrap();
        }
        let before = live.epoch();
        let bounds = live.time_bounds();
        let warm = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        let stats = live.advance(TraceChunk::new()).unwrap();
        assert_eq!(stats.epoch, before + 1);
        assert_eq!(stats.appended_items, 0);
        assert_eq!(stats.nodes_rebuilt, 0);
        // A keepalive epoch changes no answer, so the cached frame survives.
        let again = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        assert!(
            Arc::ptr_eq(&warm, &again),
            "no-op advance must not invalidate the caches"
        );
    }

    #[test]
    fn from_stream_resumes_at_the_stream_epoch() {
        let (prologue, chunks, _) = replayable();
        let mut stream = aftermath_trace::StreamingTrace::new(prologue).unwrap();
        let mut chunks = chunks.into_iter();
        stream.append(chunks.next().unwrap()).unwrap();
        stream.append(chunks.next().unwrap()).unwrap();
        let mut live = LiveSession::from_stream(stream);
        assert_eq!(live.epoch(), 2, "resume keeps the stream's chunk count");
        let stats = live.advance(chunks.next().unwrap()).unwrap();
        assert_eq!(stats.epoch, 3);
        assert_eq!(live.stream().epochs(), 3);
    }

    #[test]
    fn failed_advance_changes_nothing() {
        let (prologue, chunks, _) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        let mut chunks = chunks.into_iter();
        live.advance(chunks.next().unwrap()).unwrap();
        let epoch = live.epoch();
        let nodes = live.num_index_nodes();
        // A chunk with a dangling task id must be rejected atomically.
        let mut bad = TraceChunk::new();
        bad.tasks.push(aftermath_trace::TaskInstance::new(
            aftermath_trace::TaskId(u64::MAX),
            live.trace().task_types()[0].id,
            CpuId(0),
            CpuId(0),
            aftermath_trace::Timestamp(0),
            TimeInterval::from_cycles(0, 1),
        ));
        assert!(live.advance(bad).is_err());
        assert_eq!(live.epoch(), epoch);
        assert_eq!(live.num_index_nodes(), nodes);
    }

    #[test]
    fn advance_lint_buffers_reordered_chunks_and_matches_batch() {
        let (prologue, mut chunks, full) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        assert!(
            live.lint_summary().is_none(),
            "plain sessions carry no lint"
        );
        // Deliver chunks 0, 2, 1, 3, 4, 5: the swap buffers chunk 2 (a zero-chunk
        // epoch) and releases it when chunk 1 arrives (a two-chunk epoch).
        chunks.swap(1, 2);
        let sequences = [0u64, 2, 1, 3, 4, 5];
        for (chunk, seq) in chunks.into_iter().zip(sequences) {
            let (stats, _) = live
                .advance_lint(seq, chunk, aftermath_trace::LintMode::Lenient)
                .unwrap();
            assert_eq!(stats.epoch, live.epoch());
            if seq == 2 {
                assert_eq!(stats.appended_items, 0, "future chunk only buffers");
            }
        }
        assert_eq!(live.epoch(), 6);
        assert_eq!(live.trace(), &full, "healed replay reproduces the trace");
        let summary = live.lint_summary().expect("lint path records a summary");
        assert_eq!(
            summary.count(aftermath_trace::LintCode::ChunkSequence),
            1,
            "exactly the overtaken chunk is flagged"
        );
        // The view carries the summary, and its answers match a batch session.
        let view = live.session();
        assert_eq!(view.lint_summary(), Some(summary));
        let batch = AnalysisSession::new(&full);
        let bounds = live.time_bounds();
        let a = view.timeline(TimelineMode::State, bounds, 64).unwrap();
        let b = batch.timeline(TimelineMode::State, bounds, 64).unwrap();
        assert_eq!(*a, *b);
    }

    #[test]
    fn a_release_of_two_buffered_successors_is_one_epoch_with_their_sum() {
        let (prologue, mut chunks, full) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        // Deliver chunks 0, 2, 3, 1, 4, 5: chunk 1 releases both buffered
        // successors, so its call appends three chunks.
        let sizes: Vec<usize> = chunks.iter().map(TraceChunk::len).collect();
        chunks[1..4].rotate_left(1);
        let mut seen = Vec::new();
        for (chunk, seq) in chunks.into_iter().zip([0u64, 2, 3, 1, 4, 5]) {
            let lenient = aftermath_trace::LintMode::Lenient;
            let (stats, _) = live.advance_lint(seq, chunk, lenient).unwrap();
            seen.push((stats.epoch, stats.appended_items, stats.nodes_rebuilt));
        }
        // Recorded at the parent of PR 22, which took a snapshot of every
        // stream's length before the append: the counts the indexes hold say
        // the same.
        assert_eq!(sizes, [64, 189, 135, 418, 273, 26]);
        assert_eq!(
            seen,
            [
                (1, 64, 20),
                (1, 0, 0),
                (1, 0, 0),
                (4, 189 + 135 + 418, 20),
                (5, 273, 22),
                (6, 26, 6)
            ]
        );
        assert_eq!(live.trace(), &full);
    }

    #[test]
    fn an_unrepairable_buffered_chunk_cannot_desynchronise_the_session() {
        use aftermath_trace::{
            LintCode, LintMode, MachineTopology, RepairStrategy, StateInterval, WorkerState,
        };
        let idle = |cpu, start, end| {
            let mut chunk = TraceChunk::new();
            let interval = TimeInterval::from_cycles(start, end);
            let state = StateInterval::new(CpuId(cpu), WorkerState::Idle, interval, None);
            chunk.states.push(state);
            chunk
        };
        let mut live = LiveSession::new(TraceBuilder::new(MachineTopology::uniform(1, 1))).unwrap();
        // Chunk 1 overtakes chunk 0 and names a CPU the machine does not have:
        // buffered unvalidated, it fails admission when chunk 0 releases it.
        let mut total = LintReport::new();
        for (sequence, chunk) in [
            (1, idle(99, 50, 110)),
            (0, idle(0, 0, 50)),
            (2, idle(0, 110, 200)),
        ] {
            let (stats, report) = live
                .advance_lint(sequence, chunk, LintMode::Lenient)
                .unwrap();
            assert_eq!(stats.epoch, live.stream().epochs());
            total.merge(report);
        }
        total.merge(live.close_lint().unwrap().1);
        let drops: Vec<_> = total
            .repairs()
            .iter()
            .map(|r| (r.code, r.strategy, r.event))
            .collect();
        let chunk_1 = aftermath_trace::EventRef::Chunk { sequence: 1 };
        assert_eq!(
            drops,
            vec![(
                LintCode::ChunkSequence,
                RepairStrategy::DropWithRecord,
                chunk_1
            )]
        );
        assert!(live.stream().pending_sequences().is_empty());
        assert_eq!(live.epoch(), 2);
        assert_eq!(live.epoch(), live.stream().epochs());
        // Every answer is the one a fresh session over the same trace gives.
        let batch = AnalysisSession::new(live.trace());
        let bounds = live.time_bounds();
        assert_eq!(bounds, TimeInterval::from_cycles(0, 200));
        assert_eq!(
            live.session().query(bounds).state_cycles(CpuId(0)),
            batch.query(bounds).state_cycles(CpuId(0))
        );
        let a = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        let b = batch.timeline(TimelineMode::State, bounds, 32).unwrap();
        assert_eq!(*a, *b);
    }

    #[test]
    fn close_lint_flushes_buffered_chunks_after_a_drop() {
        let (prologue, chunks, _) = replayable();
        let mut live = LiveSession::new(prologue).unwrap();
        let mut chunks = chunks.into_iter();
        let first = chunks.next().unwrap();
        let _lost = chunks.next();
        let third = chunks.next().unwrap();
        live.advance_lint(0, first, aftermath_trace::LintMode::Lenient)
            .unwrap();
        live.advance_lint(2, third, aftermath_trace::LintMode::Lenient)
            .unwrap();
        assert_eq!(live.epoch(), 1, "chunk 2 waits for the lost chunk 1");
        let (stats, report) = live.close_lint().unwrap();
        assert_eq!(stats.epoch, 2);
        assert_eq!(
            report
                .summary()
                .count(aftermath_trace::LintCode::ChunkSequence),
            1
        );
        assert!(live.stream().pending_sequences().is_empty());
        // The flushed prefix answers queries like a batch session over it.
        let batch = AnalysisSession::new(live.trace());
        let bounds = live.time_bounds();
        let a = live
            .session()
            .timeline(TimelineMode::State, bounds, 32)
            .unwrap();
        let b = batch.timeline(TimelineMode::State, bounds, 32).unwrap();
        assert_eq!(*a, *b);
    }
}
