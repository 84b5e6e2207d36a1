//! Property tests for the SIMD kernel layer and the timeline's default engine.
//!
//! Two contracts are asserted here:
//!
//! 1. **Scalar is the reference.** Every wide tier the machine can execute
//!    (`kernels::available_levels()`) must be **bit-identical** to the scalar
//!    kernel on random lanes — including lengths that are not a multiple of any
//!    vector width and sub-slices starting at unaligned offsets. `f64` results
//!    are compared through `to_bits`, so even a sign-of-zero or NaN-payload
//!    difference would fail.
//! 2. **The default engine only changes speed.** For every timeline mode, a
//!    frame built with `TimelineEngine::Adaptive` equals the frames built with
//!    both explicit engines, and each such frame logs one `EngineDecision` that
//!    records which branch of the window reduction the frame took: `Pyramid`
//!    when a cell read pyramid nodes, `Scan` when every cell fell through to
//!    the scan.

use aftermath::prelude::*;
use aftermath_core::kernels::{self, available_levels};
use aftermath_core::pyramid::{overlap_range, DEFAULT_PYRAMID_FANOUT};
use aftermath_core::{SimdLevel, TaskFilter, TimelineEngine, TimelineMode, TimelineModel};
use aftermath_trace::{AccessKind, NumaNodeId, TaskTypeId};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Kernel lanes: every wide tier is bit-identical to scalar.
// ---------------------------------------------------------------------------

/// Builds the three state-stream lanes plus one derived `f64` lane from the
/// generated `(start, duration, tag)` triples.
fn lanes(triples: &[(u64, u64, u8)]) -> (Vec<u64>, Vec<u64>, Vec<u8>, Vec<f64>) {
    let starts: Vec<u64> = triples.iter().map(|&(s, _, _)| s).collect();
    let ends: Vec<u64> = triples.iter().map(|&(s, d, _)| s.wrapping_add(d)).collect();
    let tags: Vec<u8> = triples
        .iter()
        .map(|&(_, _, t)| t % WorkerState::COUNT as u8)
        .collect();
    // A signed float lane exercising negatives and exact zeros.
    let values: Vec<f64> = triples
        .iter()
        .map(|&(s, d, t)| (d as f64 - s as f64 / 3.0) * if t % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    (starts, ends, tags, values)
}

/// Asserts all kernels at `level` match the scalar reference on the given
/// lane sub-slices (`lo..` cuts make the views unaligned relative to
/// allocation). `lanes` bundles `(starts, ends, tags, values)`.
fn assert_level_matches_scalar(
    level: SimdLevel,
    lanes: (&[u64], &[u64], &[u8], &[f64]),
    target: u8,
) {
    let (starts, ends, tags, values) = lanes;
    // Gated duration histogram.
    let mut want = [0u64; WorkerState::COUNT];
    let mut got = [0u64; WorkerState::COUNT];
    kernels::tag_duration_sums_at(SimdLevel::Scalar, starts, ends, tags, &mut want);
    kernels::tag_duration_sums_at(level, starts, ends, tags, &mut got);
    assert_eq!(want, got, "tag_duration_sums diverges at {level:?}");

    // Gating mask: matched indices, in ascending order.
    let mut want_idx = Vec::new();
    let mut got_idx = Vec::new();
    kernels::for_each_tag_match_at(SimdLevel::Scalar, tags, target, |i| want_idx.push(i));
    kernels::for_each_tag_match_at(level, tags, target, |i| got_idx.push(i));
    assert_eq!(
        want_idx, got_idx,
        "for_each_tag_match diverges at {level:?}"
    );
    assert!(
        got_idx.windows(2).all(|w| w[0] < w[1]),
        "indices not ascending"
    );

    // Counter descent reduction.
    let (min_s, max_s, sum_s) = kernels::min_max_sum_at(SimdLevel::Scalar, values);
    let (min_v, max_v, sum_v) = kernels::min_max_sum_at(level, values);
    assert_eq!(
        min_s.to_bits(),
        min_v.to_bits(),
        "min diverges at {level:?}"
    );
    assert_eq!(
        max_s.to_bits(),
        max_v.to_bits(),
        "max diverges at {level:?}"
    );
    assert_eq!(
        sum_s.to_bits(),
        sum_v.to_bits(),
        "sum diverges at {level:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn wide_tiers_match_scalar_on_random_lanes(
        triples in prop::collection::vec((0u64..1_000_000, 0u64..100_000, 0u8..255), 0..300),
        offset in 0usize..11,
        target in 0u8..WorkerState::COUNT as u8,
    ) {
        let (starts, ends, tags, values) = lanes(&triples);
        let lo = offset.min(starts.len());
        for level in available_levels() {
            assert_level_matches_scalar(
                level,
                (&starts[lo..], &ends[lo..], &tags[lo..], &values[lo..]),
                target,
            );
        }
    }
}

/// Every lane length from 0 to just past two AVX2 blocks, so each possible
/// vector-tail remainder (and the empty lane) is hit deterministically rather
/// than probabilistically.
#[test]
fn every_tail_remainder_matches_scalar() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for len in 0..=67usize {
        let triples: Vec<(u64, u64, u8)> = (0..len)
            .map(|_| (rng() % 1_000_000, rng() % 100_000, (rng() % 256) as u8))
            .collect();
        let (starts, ends, tags, values) = lanes(&triples);
        for level in available_levels() {
            assert_level_matches_scalar(level, (&starts, &ends, &tags, &values), 0);
            if len == 0 {
                let (min, max, sum) = kernels::min_max_sum_at(level, &values);
                assert_eq!(min, f64::INFINITY);
                assert_eq!(max, f64::NEG_INFINITY);
                assert_eq!(sum.to_bits(), 0.0f64.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Default engine: frame bytes never depend on the engine, and the log
//    records the branch each frame took.
// ---------------------------------------------------------------------------

/// All six timeline modes (heatmap bounds scaled to the trace's tasks).
fn all_modes(max_duration: u64) -> [TimelineMode; 6] {
    [
        TimelineMode::State,
        TimelineMode::Heatmap {
            min_duration: 0,
            max_duration: max_duration.max(1),
        },
        TimelineMode::TaskType,
        TimelineMode::NumaRead,
        TimelineMode::NumaWrite,
        TimelineMode::NumaHeat,
    ]
}

/// A compact random-but-valid trace: two NUMA nodes, typed tasks with accesses
/// mixed into per-CPU alternating state streams (same shape as the builder in
/// `pyramid_equivalence.rs`, trimmed to what the engine comparison needs).
fn random_trace(segments: &[(u64, u64, u8)]) -> Trace {
    let topo = MachineTopology::uniform(2, 1);
    let mut b = TraceBuilder::new(topo);
    let types: Vec<TaskTypeId> = (0..3)
        .map(|i| b.add_task_type(format!("t{i}"), 0x100 + i))
        .collect();
    b.add_region(0x1_0000, 4096, Some(NumaNodeId(0)));
    b.add_region(0x2_0000, 4096, Some(NumaNodeId(1)));
    let mut next_start = [0u64; 2];
    for (i, &(len, gap, sel)) in segments.iter().enumerate() {
        let cpu = CpuId((i % 2) as u32);
        let start = next_start[cpu.0 as usize];
        let end = start + len.max(1);
        next_start[cpu.0 as usize] = end + gap % 64;
        if sel % 3 == 0 {
            let ty = types[sel as usize % types.len()];
            let task = b.add_task(ty, cpu, Timestamp(start), Timestamp(start), Timestamp(end));
            b.add_state(
                cpu,
                WorkerState::TaskExecution,
                Timestamp(start),
                Timestamp(end),
                Some(task),
            )
            .unwrap();
            let addr = if sel % 2 == 0 { 0x1_0000 } else { 0x2_0000 };
            b.add_access(task, AccessKind::Read, addr, 64 + (sel as u64) * 8)
                .unwrap();
            if sel % 5 == 0 {
                b.add_access(task, AccessKind::Write, addr + 128, 32)
                    .unwrap();
            }
        } else {
            let state = WorkerState::from_index((sel % 5) as usize).unwrap();
            b.add_state(cpu, state, Timestamp(start), Timestamp(end), None)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// Whether some cell of the frame holds a whole pyramid node between its two
/// edge intervals on some CPU — restated from the stream, not asked of the engine.
fn frame_covers_a_node(
    session: &AnalysisSession<'_>,
    window: TimeInterval,
    columns: usize,
) -> bool {
    let fanout = DEFAULT_PYRAMID_FANOUT;
    session.trace().topology().cpu_ids().any(|cpu| {
        (0..columns).any(|col| {
            let cell = window.bin(columns, col);
            let (first, last) = overlap_range(session.states(cpu), cell);
            (first + 1).next_multiple_of(fanout) + fanout < last
        })
    })
}

/// Asserts adaptive == pyramid == scan for every mode over `window`, and that
/// the default-engine builds logged one decision each, in order, naming the
/// branch the frame took. Returns that branch.
fn assert_adaptive_agrees(
    session: &AnalysisSession<'_>,
    window: TimeInterval,
    columns: usize,
) -> TimelineEngine {
    let max = session
        .trace()
        .tasks()
        .iter()
        .map(|t| t.duration())
        .max()
        .unwrap_or(1);
    let filter = TaskFilter::new();
    let decisions_before = session.engine_decisions().len();
    for mode in all_modes(max) {
        let build = |engine| {
            TimelineModel::build_with_engine(session, mode, window, columns, &filter, engine)
                .unwrap()
        };
        let adaptive = build(TimelineEngine::Adaptive);
        assert_eq!(
            adaptive,
            build(TimelineEngine::Pyramid),
            "adaptive != pyramid: {mode:?}"
        );
        assert_eq!(
            adaptive,
            build(TimelineEngine::Scan),
            "adaptive != scan: {mode:?}"
        );
    }
    let expected = match frame_covers_a_node(session, window, columns) {
        true => TimelineEngine::Pyramid,
        false => TimelineEngine::Scan,
    };
    let decisions = session.engine_decisions();
    let logged: Vec<_> = decisions[decisions_before..]
        .iter()
        .map(|d| (d.mode, d.interval, d.columns, d.engine))
        .collect();
    let built: Vec<_> = all_modes(max)
        .into_iter()
        .map(|mode| (mode, window, columns, expected))
        .collect();
    assert_eq!(logged, built, "one decision per default-engine frame");
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn adaptive_equals_explicit_engines_on_random_traces(
        segments in prop::collection::vec((1u64..400, 0u64..64, 0u8..9), 1..100),
        zoom in (0u64..100, 0u64..100),
        columns in 1usize..150,
    ) {
        let trace = random_trace(&segments);
        let bounds = trace.time_bounds();
        prop_assume!(!bounds.is_empty());
        let session = AnalysisSession::new(&trace);
        let (a, b) = (zoom.0.min(zoom.1), zoom.0.max(zoom.1));
        let window = TimeInterval::from_cycles(
            bounds.start.0 + bounds.duration() * a / 100,
            bounds.start.0 + (bounds.duration() * b / 100).max(bounds.duration() * a / 100 + 1),
        );
        assert_adaptive_agrees(&session, bounds, columns);
        assert_adaptive_agrees(&session, window, columns);
    }
}

/// A stream deep enough for three pyramid levels per CPU at the default fanout
/// (the shape of `pyramid_equivalence.rs`'s deep stream): zoomed out, cells cover
/// whole nodes and the frame is recorded as `Pyramid`; at the deepest zoom every
/// cell falls through and it is recorded as `Scan`.
#[test]
fn the_decision_log_records_the_branch_each_frame_took() {
    let mut x = 0xdead_beefu64;
    let segments: Vec<(u64, u64, u8)> = (0..5_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (1 + x % 300, x % 50, (x % 9) as u8)
        })
        .collect();
    let trace = random_trace(&segments);
    let session = AnalysisSession::new(&trace);
    for cpu in trace.topology().cpu_ids() {
        assert_eq!(session.pyramid(cpu).unwrap().num_levels(), 3);
    }
    let bounds = trace.time_bounds();
    let seventh = TimeInterval::from_cycles(bounds.start.0, bounds.start.0 + bounds.duration() / 7);
    let deepest = TimeInterval::from_cycles(bounds.start.0 + 1_000, bounds.start.0 + 1_400);
    let taken = [
        assert_adaptive_agrees(&session, bounds, 16),
        assert_adaptive_agrees(&session, seventh, 3),
        assert_adaptive_agrees(&session, bounds, 97),
        assert_adaptive_agrees(&session, deepest, 400),
    ];
    use TimelineEngine::{Pyramid, Scan};
    assert_eq!(taken, [Pyramid, Pyramid, Scan, Scan]);
    // Explicit engines log nothing: 4 calls × 6 default-engine frames.
    assert_eq!(session.engine_decisions().len(), 24);
}
