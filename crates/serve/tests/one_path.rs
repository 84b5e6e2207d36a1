//! What having one request path buys, observed from outside the manager:
//! `Open` and `Stats` never wait for a store's request in flight, `Stats`
//! describes store-backed traces, and a malformed request is refused as such
//! on every backing — before coverage, residency or a lock come into it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aftermath_core::timeline::TimelineMode;
use aftermath_core::{AnalysisSession, SharedSession, StoreSession, Threads};
use aftermath_serve::manager::MAX_COLUMNS;
use aftermath_serve::{DetectorSet, ErrorCode, Request, Response, ServerStats, SessionManager};
use aftermath_sim::{SimConfig, Simulator};
use aftermath_trace::error::TraceError;
use aftermath_trace::store::{write_store_bytes, ColdTier, LaneId, MemoryTier};
use aftermath_trace::{StoreOptions, StoredTrace, TimeInterval, Trace};
use aftermath_workloads::SeidelConfig;

fn sim_trace() -> Trace {
    let spec = SeidelConfig::small().build();
    Simulator::new(SimConfig::small_test())
        .run(&spec)
        .expect("small seidel simulation must succeed")
        .trace
}

fn open(manager: &SessionManager, trace: &str) -> (u64, TimeInterval) {
    match manager.handle(&Request::Open {
        trace: trace.into(),
    }) {
        Response::Opened {
            session, interval, ..
        } => (session, interval),
        other => panic!("{trace} must open, got {other:?}"),
    }
}

fn stats(manager: &SessionManager) -> ServerStats {
    match manager.handle(&Request::Stats) {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A tier whose reads, while armed, announce themselves and then park until
/// the test lets them go: a store request held in flight for as long as the
/// test needs.
#[derive(Debug)]
struct ParkingTier {
    inner: MemoryTier,
    armed: Arc<AtomicBool>,
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl ColdTier for ParkingTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        if self.armed.load(Ordering::SeqCst) {
            self.entered.lock().unwrap().send(()).expect("test listens");
            self.release.lock().unwrap().recv().expect("test releases");
        }
        self.inner.read_at(offset, buf)
    }
}

#[test]
fn open_and_stats_do_not_wait_for_a_store_request_in_flight() {
    let bytes = write_store_bytes(&sim_trace(), &StoreOptions::default()).expect("store writes");
    let armed = Arc::new(AtomicBool::new(false));
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let tier = ParkingTier {
        inner: MemoryTier::new(bytes),
        armed: Arc::clone(&armed),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    };
    let stored = StoredTrace::open_with_tier(Box::new(tier)).expect("store opens");
    let mut manager = SessionManager::new(8);
    manager.register_store("disk", StoreSession::from_store(stored));
    let (session, interval) = open(&manager, "disk");

    armed.store(true, Ordering::SeqCst);
    std::thread::scope(|scope| {
        let frame = scope.spawn(|| {
            manager.handle(&Request::Timeline {
                session,
                mode: TimelineMode::State,
                interval,
                columns: 32,
            })
        });
        entered.recv().expect("the frame reaches the cold tier");

        // The frame now holds the store's mutex, parked in a read. A second
        // analyst's `Open` and an operator's `Stats` must both come back.
        let (answered_tx, answered) = channel();
        let manager = &manager;
        scope.spawn(move || {
            let opened = open(manager, "disk");
            answered_tx.send((opened, stats(manager))).unwrap();
        });
        let answered = answered.recv_timeout(Duration::from_secs(20));

        armed.store(false, Ordering::SeqCst);
        release.send(()).expect("the parked read is waiting");
        let ((_, second_interval), stats) =
            answered.expect("Open and Stats waited for the store's request in flight");
        assert_eq!(second_interval, interval);
        assert_eq!(stats.open_sessions, 2);
        match frame.join().expect("frame thread") {
            Response::Timeline(model) => assert_eq!(model.columns, 32),
            other => panic!("the released frame must be answered, got {other:?}"),
        }
    });
}

#[test]
fn stats_count_a_store_traces_cache_and_its_shards() {
    let trace = sim_trace();
    let bytes = write_store_bytes(&trace, &StoreOptions::default()).expect("store writes");
    let store = |bytes: &[u8]| {
        StoreSession::from_store(StoredTrace::from_bytes(bytes.to_vec()).expect("store opens"))
    };
    let mut manager = SessionManager::new(8);
    manager.register_store("disk", store(&bytes));
    let (session, interval) = open(&manager, "disk");
    let frame = Request::Timeline {
        session,
        mode: TimelineMode::TaskType,
        interval,
        columns: 48,
    };

    let first = manager.handle(&frame);
    assert!(matches!(first, Response::Timeline(_)), "got {first:?}");
    let before = stats(&manager);
    let second = manager.handle(&frame);
    let after = stats(&manager);
    assert_eq!(first.encode(), second.encode());
    assert_eq!(
        (after.cache_hits, after.cache_misses),
        (before.cache_hits + 1, before.cache_misses),
        "the repeated frame is a hit in the store's timeline cache"
    );

    // What the frame left resident, and the pyramids it built over it.
    let mut twin = store(&bytes);
    twin.timeline(TimelineMode::TaskType, interval, 48)
        .expect("twin frame computes");
    let resident = AnalysisSession::new(&trace);
    resident.prewarm(Threads::single());
    let floor = twin.resident_event_bytes() + resident.pyramid_memory_bytes();
    assert!(resident.pyramid_memory_bytes() > 0);
    assert!(
        after.shared_bytes >= floor as u64,
        "shared_bytes {} must cover resident lanes and pyramids ({floor})",
        after.shared_bytes
    );
}

#[test]
fn a_malformed_request_is_refused_as_such_on_every_backing() {
    let trace = Arc::new(sim_trace());
    let bytes = write_store_bytes(&trace, &StoreOptions { block_rows: 4 }).expect("store writes");
    let mut manager = SessionManager::new(8);
    manager.register_memory(
        "mem",
        Arc::new(SharedSession::open(Arc::clone(&trace), Threads::single())),
    );
    let mut capped =
        StoreSession::from_store(StoredTrace::from_bytes(bytes.clone()).expect("store opens"));
    capped.set_residency_budget(Some(trace.resident_event_bytes() / 2));
    manager.register_store("capped", capped);
    // One flipped bit in a state block: whole-trace frames and every drill-in
    // fall outside what the salvaged store may answer.
    let probe = StoredTrace::from_bytes(bytes.clone()).expect("store opens");
    let lane = probe
        .lanes()
        .find(|lane| matches!(lane, LaneId::States(_)))
        .expect("a states lane is stored");
    let blocks = &probe.lane_directory(lane).expect("lane is stored").blocks;
    let mut corrupt = bytes;
    corrupt[blocks[blocks.len() / 2].offset as usize + 2] ^= 0x10;
    let salvaged =
        StoreSession::from_store(StoredTrace::from_bytes_salvage(corrupt).expect("salvage opens"));
    assert!(!salvaged.coverage().expect("salvaged").clean);
    manager.register_store("salvaged", salvaged);

    for name in ["mem", "capped", "salvaged"] {
        let (session, interval) = open(&manager, name);
        for columns in [0, MAX_COLUMNS + 1] {
            let script = [
                Request::Timeline {
                    session,
                    mode: TimelineMode::State,
                    interval,
                    columns,
                },
                Request::Timeline {
                    session,
                    mode: TimelineMode::NumaHeat,
                    interval,
                    columns,
                },
                Request::DrillIn {
                    session,
                    detectors: DetectorSet::ALL,
                    max_anomalies: 8,
                    rank: 0,
                    mode: TimelineMode::State,
                    columns,
                },
            ];
            for request in script {
                match manager.handle(&request) {
                    Response::Error { code, .. } => {
                        assert_eq!(code, ErrorCode::BadRequest, "{name}: {request:?}");
                    }
                    other => panic!("{name}: expected BadRequest for {request:?}, got {other:?}"),
                }
            }
        }
    }
}
