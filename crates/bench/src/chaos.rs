//! Chaos harness: the serve load generator replayed under seeded fault
//! schedules, plus a measured salvage-open of a deliberately corrupted store.
//!
//! Two scenarios, one record:
//!
//! * **Salvage** — a seeded set of state-lane blocks of the zoom trace's
//!   on-disk store gets one bit flip each; the salvage open must quarantine
//!   them, report its surviving row coverage, refuse whole-trace requests,
//!   and answer frames strictly inside the covered span byte-identically to
//!   the undamaged trace.
//! * **Serve under faults** — the store is served through a seeded
//!   [`FaultyTier`] (transient I/O errors, bit flips, short reads, latency
//!   spikes) while chaos clients sever their own connections mid-script and
//!   killer connections hang up mid-frame. Every request must end in either
//!   a byte-identical answer or a *typed* error response; the pool's panic
//!   counter must stay at zero.
//!
//! The `chaos` rows of [`crate::gates::GATES`] hold a run to exactly that: zero
//! escaped panics, both identity bits set, a salvage coverage floor, and a
//! recovery-latency ceiling.

use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aftermath_core::{AnalysisSession, Need, StoreSession, TaskFilter, Threads, TimelineMode};
use aftermath_serve::{ErrorCode, Request, Response, RetryPolicy, SessionManager};
use aftermath_trace::fault::splitmix64;
use aftermath_trace::store::{write_store_bytes, DamageCode, LaneId, MemoryTier};
use aftermath_trace::{FaultConfig, FaultyTier, StoreOptions, StoredTrace, TimeInterval};

use crate::figures::Scale;
use crate::record::{self, Fields, Record};
use crate::serve::{drive, ground_truth, script};
use crate::zoom::zoom_trace;

/// Seed of every deterministic choice the harness makes (damage plan, fault
/// schedules, retry jitter), so a run is replayable end to end.
const CHAOS_SEED: u64 = 0x00C4_A05C_4A05_0001;

/// Chaos clients driven against the server (fewer than the serve bench: each
/// one also kills and re-establishes its connection twice).
pub fn chaos_clients(scale: Scale) -> usize {
    match scale {
        Scale::Test => 4,
        Scale::Paper => 32,
    }
}

/// Store block size: small enough at test scale that lanes span several
/// blocks (salvage needs interior blocks to quarantine).
fn block_rows(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Paper => 4096,
    }
}

/// State-lane blocks damaged in the salvage scenario.
fn damaged_blocks(scale: Scale) -> usize {
    match scale {
        Scale::Test => 3,
        Scale::Paper => 12,
    }
}

/// Fault rates for the serve scenario. Scaled with the trace: a lane
/// materialisation reads every block of the lane in one request, so the
/// per-read rate must leave a realistic success probability at either block
/// count — a fixed rate would mean "never materialises" at paper scale or
/// "never faults" at test scale.
fn fault_rates(scale: Scale) -> FaultConfig {
    match scale {
        Scale::Test => FaultConfig {
            seed: CHAOS_SEED,
            io_per_10k: 120,
            short_read_per_10k: 60,
            bit_flip_per_10k: 60,
            latency_per_10k: 60,
            latency: Duration::from_millis(1),
        },
        Scale::Paper => FaultConfig {
            seed: CHAOS_SEED,
            io_per_10k: 8,
            short_read_per_10k: 4,
            bit_flip_per_10k: 4,
            latency_per_10k: 4,
            latency: Duration::from_millis(1),
        },
    }
}

/// Abrupt mid-frame hangups thrown at the server by the killer thread.
fn killer_connections(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 8,
        Scale::Paper => 64,
    }
}

/// Results of one chaos run (see the module docs for the two scenarios). Each
/// client counts into one of its own; [`run_chaos_bench`] sums them.
#[derive(Debug, Default)]
pub struct ChaosBench {
    /// Events in the trace behind both scenarios.
    pub num_events: u64,
    /// Chaos clients driven.
    pub clients: usize,
    /// Requests issued across all clients (replays after a reaped session
    /// included).
    pub requests: u64,
    /// Requests answered byte-identically to the fault-free direct session.
    pub ok_responses: u64,
    /// Requests answered with a typed error response (injected faults,
    /// timeouts) — degraded service, not wrong bytes.
    pub faulted_responses: u64,
    /// Requests whose whole retry budget ran out (transport never recovered).
    pub exhausted_requests: u64,
    /// Whether every successful (non-error) response was byte-identical to
    /// the fault-free direct session.
    pub successful_identical: bool,
    /// Client-side reconnect retries performed across the run.
    pub retries: u64,
    /// Connections killed: severed client connections plus mid-frame hangups.
    pub kills: u64,
    /// Faults the tier injected into store reads.
    pub faults_injected: u64,
    /// Reads issued to the faulty tier.
    pub tier_reads: u64,
    /// Panics contained by the server's worker pool. Must be zero: every
    /// failure path is supposed to be a typed error, not an unwind.
    pub panics: u64,
    /// Wall-clock of each answered request (seconds), all clients pooled.
    pub frame_seconds: Vec<f64>,
    /// Severed-connection to next-answer latencies (seconds).
    pub recovery_seconds: Vec<f64>,
    /// Blocks quarantined by the salvage scenario.
    pub salvage_blocks_damaged: u64,
    /// Fraction of stored rows surviving the salvage open.
    pub salvage_row_coverage: f64,
    /// Whether covered-span frames matched the undamaged trace byte-for-byte
    /// and out-of-coverage requests were refused.
    pub salvage_identical: bool,
    /// Wall-clock of the salvage open (damage scan included).
    pub salvage_open_seconds: f64,
}

impl ChaosBench {
    /// Recovery-latency quantile (nearest-rank) over all severed connections.
    pub fn recovery_quantile(&self, q: f64) -> f64 {
        record::quantile(&self.recovery_seconds, q)
    }

    /// Request-latency quantile (nearest-rank), all clients pooled.
    pub fn frame_quantile(&self, q: f64) -> f64 {
        record::quantile(&self.frame_seconds, q)
    }

    /// The run as a [`Record`] of kind `chaos`.
    pub fn record(&self) -> Record {
        let fields = Fields::new()
            .int("num_events", self.num_events)
            .int("clients", self.clients)
            .int("requests", self.requests)
            .int("ok_responses", self.ok_responses)
            .int("faulted_responses", self.faulted_responses)
            .int("exhausted_requests", self.exhausted_requests)
            .flag("successful_identical", self.successful_identical)
            .note_if(
                self.successful_identical,
                "every successful response byte-identical to the fault-free direct session",
            )
            .int("retries", self.retries)
            .int("kills", self.kills)
            .int("faults_injected", self.faults_injected)
            .int("tier_reads", self.tier_reads)
            .int("panics", self.panics)
            .note_if(self.panics == 0, "no panic escaped containment")
            .float("p95_frame_seconds", self.frame_quantile(0.95))
            .float("recovery_p95_seconds", self.recovery_quantile(0.95))
            .int("salvage_blocks_damaged", self.salvage_blocks_damaged)
            .float("salvage_row_coverage", self.salvage_row_coverage)
            .flag("salvage_identical", self.salvage_identical)
            .note_if(
                self.salvage_identical,
                "covered-span answers byte-identical to the undamaged trace",
            )
            .float("salvage_open_seconds", self.salvage_open_seconds);
        Record::new("chaos", fields)
    }
}

/// The salvage scenario: flip one bit in each of a seeded set of interior
/// state-lane blocks, salvage-open, and compare covered-span frames to the
/// undamaged trace. Returns
/// `(blocks damaged, row coverage, identical, open seconds)`.
fn salvage_scenario(
    trace: &aftermath_trace::Trace,
    bytes: &[u8],
    direct: &AnalysisSession<'_>,
    scale: Scale,
) -> (u64, f64, bool, f64) {
    let probe = StoredTrace::from_bytes(bytes.to_vec()).expect("undamaged store opens");
    let state_lanes: Vec<LaneId> = probe
        .lanes()
        .filter(|l| matches!(l, LaneId::States(_)))
        .collect();

    // A seeded damage plan over interior state-lane blocks: interior so both
    // ends of every lane survive and a covered span is guaranteed to exist.
    let mut plan: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut draw = 0u64;
    while plan.len() < damaged_blocks(scale) && draw < 10_000 {
        let sel = splitmix64(CHAOS_SEED ^ draw);
        draw += 1;
        let lane_pos = (sel as usize) % state_lanes.len();
        let blocks = &probe
            .lane_directory(state_lanes[lane_pos])
            .expect("state lane is stored")
            .blocks;
        if blocks.len() < 4 {
            continue;
        }
        plan.insert((lane_pos, 1 + ((sel >> 16) as usize) % (blocks.len() - 2)));
    }
    assert!(!plan.is_empty(), "the damage plan must corrupt something");

    let mut corrupt = bytes.to_vec();
    for &(lane_pos, block) in &plan {
        let footer = &probe
            .lane_directory(state_lanes[lane_pos])
            .expect("state lane is stored")
            .blocks[block];
        let sel = splitmix64(CHAOS_SEED ^ ((lane_pos as u64) << 32) ^ block as u64);
        let byte = footer.offset as usize + (sel as usize) % footer.len as usize;
        corrupt[byte] ^= 1 << ((sel >> 56) % 8);
    }

    let opened_at = Instant::now();
    let salvaged = StoredTrace::from_bytes(corrupt)
        .expect("store opens")
        .salvage();
    let open_seconds = opened_at.elapsed().as_secs_f64();

    let report = salvaged.damage().expect("salvaged store carries a report");
    let blocks_damaged = report.count(DamageCode::BlockChecksumMismatch) as u64;
    let row_coverage = report.row_coverage();

    let mut session = StoreSession::from_store(salvaged);
    let coverage = session.coverage().expect("salvaged session has coverage");
    let frame = |interval| Need::frame(TimelineMode::State, interval, &TaskFilter::new());
    // Out-of-coverage requests must be refused, not approximated.
    let mut identical = !coverage.allows(&frame(trace.time_bounds()));
    match coverage.answerable(&frame(trace.time_bounds())) {
        Some(span) => {
            let w = span.end.0.saturating_sub(span.start.0);
            for (num, den) in [(1u64, 4u64), (2, 4), (1, 2)] {
                let interval = TimeInterval::from_cycles(
                    span.start.0 + w * num / (den * 2),
                    span.start.0 + w * num / den,
                );
                if !coverage.allows(&frame(interval)) {
                    continue;
                }
                let got = session
                    .timeline(TimelineMode::State, interval, 256)
                    .expect("covered-span frame computes");
                let want = direct
                    .timeline(TimelineMode::State, interval, 256)
                    .expect("undamaged frame computes");
                identical &= Response::Timeline(got).encode()
                    == Response::Timeline((*want).clone()).encode();
            }
        }
        None => identical = false,
    }
    (blocks_damaged, row_coverage, identical, open_seconds)
}

/// Runs the chaos harness: salvage scenario first, then the fault-injected
/// serve run with severed and killed connections. See the module docs.
pub fn run_chaos_bench(scale: Scale, threads: Threads) -> ChaosBench {
    let trace = Arc::new(zoom_trace(scale));
    let num_events = trace.num_events() as u64;
    let bytes = write_store_bytes(
        &trace,
        &StoreOptions {
            block_rows: block_rows(scale),
        },
    )
    .expect("store writes");

    // The fault-free ground truth both scenarios compare against.
    let (direct, mut expected) = ground_truth(&trace, threads);
    let bounds = direct.time_bounds();
    // Store-backed sessions answer `Lint` with "never linted", so that
    // entry's ground truth is the explicit `None`, not the direct summary.
    for (request, expected) in script(0, bounds).iter().zip(&mut expected) {
        if matches!(request, Request::Lint { .. }) {
            *expected = Response::Lint(None).encode();
        }
    }

    let (salvage_blocks_damaged, salvage_row_coverage, salvage_identical, salvage_open_seconds) =
        salvage_scenario(&trace, &bytes, &direct, scale);

    // --- Serve under faults -------------------------------------------------
    //
    // The store open itself reads through the faulty tier; whether a fault
    // lands in those first few reads is a pure function of the seed, so probe
    // successive seeds until one opens. The chosen schedule is still fully
    // deterministic for a given input.
    let base = fault_rates(scale);
    let (tier, stored) = (0..64)
        .find_map(|bump| {
            let tier = Arc::new(FaultyTier::new(
                Box::new(MemoryTier::new(bytes.clone())),
                FaultConfig {
                    seed: base.seed.wrapping_add(bump),
                    ..base
                },
            ));
            // The store owns its tier box; the harness keeps the `Arc` to read
            // the fault log afterwards.
            StoredTrace::open_with_tier(Box::new(Arc::clone(&tier)))
                .ok()
                .map(|stored| (tier, stored))
        })
        .expect("some seed opens the faulty store");

    let num_clients = chaos_clients(scale);
    let mut manager = SessionManager::new(num_clients * 4);
    // A zero residency budget evicts every lane right after the query that
    // materialised it, so the whole run keeps reading the (faulty) tier —
    // without it the first touch of each lane would be the only cold read
    // and the fault schedule would never apply.
    let mut store_session = StoreSession::from_store(stored);
    store_session.set_residency_budget(Some(0));
    manager.register_store("chaos", store_session);

    let killer_kills = killer_connections(scale);
    let (runs, panics) = drive(
        manager,
        "chaos",
        num_clients,
        Duration::from_secs(120),
        |client_id, client, session| {
            let policy = RetryPolicy {
                max_retries: 4,
                initial_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
                seed: CHAOS_SEED ^ client_id as u64,
            };
            let mut requests = script(session, bounds);
            let len = requests.len();
            // Two deterministic kill points per client, staggered so the
            // server never sees every client reconnect at once.
            let kill_at = [
                (len / 3 + client_id) % len,
                (2 * len / 3 + 2 * client_id) % len,
            ];
            let mut run = ChaosBench {
                successful_identical: true,
                ..ChaosBench::default()
            };
            let mut recovery_started: Option<Instant> = None;

            for index in 0..len {
                if kill_at.contains(&index) {
                    // Sever without telling the server: the next attempt
                    // fails at the transport level and the retry machinery
                    // must bring the client back.
                    let _ = client.sever();
                    run.kills += 1;
                    recovery_started = Some(Instant::now());
                }
                let mut replays = 0u32;
                loop {
                    let started = Instant::now();
                    run.requests += 1;
                    let raw = match client.request_raw_with_retry(&requests[index], &policy) {
                        Ok(raw) => raw,
                        Err(_) => {
                            run.exhausted_requests += 1;
                            break;
                        }
                    };
                    run.frame_seconds.push(started.elapsed().as_secs_f64());
                    if raw == expected[index] {
                        run.ok_responses += 1;
                    } else {
                        run.faulted_responses += 1;
                        match Response::decode(&raw) {
                            // A retry that reconnected lost its session to
                            // the server's disconnect reaping: the typed
                            // refusal counts as a faulted answer, then a
                            // fresh session replays this request.
                            Ok(Response::Error {
                                code: ErrorCode::UnknownSession,
                                ..
                            }) if replays < 8 => {
                                replays += 1;
                                if let Ok(fresh) = client.open("chaos") {
                                    requests = script(fresh, bounds);
                                    continue;
                                }
                            }
                            // Typed degradation from an injected fault: the
                            // contract is "error or exact bytes", never
                            // approximate data.
                            Ok(Response::Error {
                                code: ErrorCode::Internal | ErrorCode::Timeout,
                                ..
                            }) => {}
                            _ => run.successful_identical = false,
                        }
                    }
                    if let Some(severed_at) = recovery_started.take() {
                        run.recovery_seconds
                            .push(severed_at.elapsed().as_secs_f64());
                    }
                    break;
                }
            }
            run.retries = client.retries_performed();
            run
        },
        // Meanwhile, abrupt hangups mid-frame (a length prefix promising more
        // bytes than ever arrive) and garbage frames — the server must shrug
        // both off while the chaos clients keep getting exact answers.
        |_, addr| {
            for k in 0..killer_kills {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    continue;
                };
                if k % 2 == 0 {
                    let _ = stream.write_all(&64u32.to_le_bytes());
                    let _ = stream.write_all(&[0xAB; 7]);
                } else {
                    let _ = stream.write_all(&8u32.to_le_bytes());
                    let _ = stream.write_all(&splitmix64(CHAOS_SEED ^ k).to_le_bytes());
                }
                // Drop: connection killed without completing the frame.
            }
        },
    );

    let mut bench = ChaosBench {
        num_events,
        clients: num_clients,
        successful_identical: true,
        kills: killer_kills,
        faults_injected: tier.faults_injected(),
        tier_reads: tier.reads(),
        panics,
        salvage_blocks_damaged,
        salvage_row_coverage,
        salvage_identical,
        salvage_open_seconds,
        ..ChaosBench::default()
    };
    for run in runs {
        bench.requests += run.requests;
        bench.ok_responses += run.ok_responses;
        bench.faulted_responses += run.faulted_responses;
        bench.exhausted_requests += run.exhausted_requests;
        bench.successful_identical &= run.successful_identical;
        bench.retries += run.retries;
        bench.kills += run.kills;
        bench.frame_seconds.extend(run.frame_seconds);
        bench.recovery_seconds.extend(run.recovery_seconds);
    }
    bench
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{gates_of, Verdict};

    #[test]
    fn test_scale_chaos_run_survives_and_stays_exact() {
        let bench = run_chaos_bench(Scale::Test, Threads::single());
        assert!(
            bench.salvage_row_coverage < 1.0,
            "damage must cost some rows, got {}",
            bench.salvage_row_coverage
        );
        assert_eq!(
            bench.salvage_blocks_damaged,
            damaged_blocks(Scale::Test) as u64
        );
        assert!(
            bench.faults_injected > 0,
            "the chaos run must actually inject faults ({} tier reads)",
            bench.tier_reads
        );
        assert!(bench.kills > killer_connections(Scale::Test));
        assert!(bench.retries > 0, "severed connections force retries");
        assert!(!bench.recovery_seconds.is_empty());
        assert!(
            bench.ok_responses > 0,
            "some requests must come back exact even under faults"
        );
        assert_eq!(
            bench.ok_responses + bench.faulted_responses + bench.exhausted_requests,
            bench.requests,
            "every request is accounted for"
        );

        let record = Record::parse(&bench.record().to_json()).unwrap();
        assert_eq!(record.bench, "chaos");
        assert_eq!(record.fields.int_value("requests"), Ok(bench.requests));
        // Against itself as the baseline every gate of the kind holds: no
        // escaped panic, both identity bits, most rows salvaged.
        for gate in gates_of("chaos") {
            let (verdict, line) = gate.evaluate(&record, Some(&record));
            assert_eq!(verdict, Verdict::Pass, "{line}");
        }
    }
}
