//! The per-layer metrics of a traced run.
//!
//! A few are counters read around the workload's own traced phase (tier
//! reads, cache lookups); the rest are probes: after the timed script, each
//! layer's public entry points are timed one at a time on the same generated
//! inputs. Everything is measured from outside — nothing here reaches into
//! the crates.

use std::sync::Arc;
use std::time::Instant;

use aftermath_core::anomaly::{self, AnomalyConfig};
use aftermath_core::{
    kernels, CounterIndex, SharedSession, StatePyramid, StoreSession, TaskFilter, Threads,
    TimelineCell, TimelineEngine, TimelineModel,
};
use aftermath_render::{Framebuffer, Palette, TimelineRenderer};
use aftermath_serve::manager::query_result;
use aftermath_serve::{Request, Response, SessionManager};
use aftermath_trace::{crc, CpuId, StoredTrace, Trace, WorkerState};

use crate::input::{self, Rng, View, COLUMNS, COUNTER};
use crate::metrics::{mean, median, Values};
use crate::spans::{CountingTier, TierStats};
use crate::workloads::{self, Config, Phase, StoreFile, CLIENTS};

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn megabytes(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The per-layer metrics measured after the timed phases: the workload's own
/// counters, then one group of probes per layer.
pub fn layer_metrics(cfg: &Config, file: &StoreFile, traced: &Phase) -> Values {
    let mut m = Values::new();
    workload_counters(&mut m, file, traced);
    store_probes(&mut m, file);
    let trace = workloads::load_resident(&file.path);
    let views = input::balanced_views(&mut Rng::fork(cfg.seed, 5), file.bounds, 1);
    let shared = session_probes(&mut m, &trace);
    let frames = timeline_probes(&mut m, &shared, &views);
    kernel_probes(&mut m, &trace);
    analysis_probes(&mut m, file, &shared, &views);
    render_probes(&mut m, file, &frames);
    protocol_probes(&mut m, frames);
    transport_probes(&mut m, &shared, &views);
    store_concurrency_probe(&mut m, cfg, file);
    m
}

/// What set-up timed, and the counters read around the workload's own
/// traced phase (0 where the workload does not touch the layer).
fn workload_counters(m: &mut Values, file: &StoreFile, traced: &Phase) {
    m.push(("trace.builder.finish_s", file.finish_s));
    m.push(("trace.store.write_s", file.write_s));
    m.push((
        "trace.store.write_mb_per_s",
        megabytes(file.file_bytes) / file.write_s,
    ));
    m.push(("trace.store.file_mb", megabytes(file.file_bytes)));

    let ops = traced.samples.attempted().max(1) as f64;
    m.push((
        "trace.store.tier_reads_per_op",
        traced.tier.reads as f64 / ops,
    ));
    m.push((
        "trace.store.tier_read_mb_per_op",
        megabytes(traced.tier.bytes) / ops,
    ));
    m.push((
        "trace.store.tier_read_ms_per_op",
        traced.tier.nanos as f64 / 1e6 / ops,
    ));
    // File bytes read per opened store, over the file's size: above 1 the
    // store re-read lanes it had already decoded once.
    m.push((
        "trace.store.rematerialised_ratio",
        traced.tier.bytes as f64 / file.file_bytes as f64 / traced.store_opens.max(1) as f64,
    ));
    m.push(("core.session.cache_hit_rate", traced.cache.hit_rate()));
    m.push(("core.session.cache_misses", traced.cache.misses as f64));
}

/// `trace`: open, materialise, evict, checksum.
fn store_probes(m: &mut Values, file: &StoreFile) {
    let open_ms: Vec<f64> = (0..5)
        .map(|_| {
            1e3 * seconds(|| {
                std::hint::black_box(StoredTrace::open(&file.path).expect("open store"));
            })
        })
        .collect();
    m.push(("trace.store.open_ms", median(&open_ms)));
    {
        let tier = Arc::<TierStats>::default();
        let counting =
            CountingTier::open(&file.path, Arc::clone(&tier), None).expect("open store file");
        let mut stored = StoredTrace::open_with_tier(Box::new(counting)).expect("open store");
        let before = tier.totals();
        let total_s = seconds(|| {
            for lane in stored.lanes().collect::<Vec<_>>() {
                stored.ensure(lane).expect("materialise lane");
            }
        });
        // Materialisation minus the time spent in the tier: CRC and decode.
        let decode_s = total_s - tier.totals().since(before).nanos as f64 / 1e9;
        m.push(("trace.store.materialise_ms", 1e3 * decode_s));
        m.push((
            "trace.store.materialise_mb_per_s",
            megabytes(stored.resident_event_bytes() as u64) / decode_s,
        ));
        stored.set_residency_budget(Some(file.soa_bytes / 2));
        let evict_s = seconds(|| {
            std::hint::black_box(stored.evict_to_budget());
        });
        m.push(("trace.store.evict_ms", 1e3 * evict_s));
        m.push((
            "trace.store.resident_mb",
            megabytes(stored.resident_event_bytes() as u64),
        ));
    }
    {
        let bytes = std::fs::read(&file.path).expect("read store file");
        let crc_s: Vec<f64> = (0..3)
            .map(|_| {
                seconds(|| {
                    std::hint::black_box(crc::crc32(std::hint::black_box(&bytes)));
                })
            })
            .collect();
        m.push((
            "trace.crc.mb_per_s",
            megabytes(file.file_bytes) / median(&crc_s),
        ));
    }
}

/// `core` and `exec`: prewarm at `nproc` threads and at one, pyramids,
/// indexes. Returns the prewarmed session the later probes share.
fn session_probes(m: &mut Values, trace: &Arc<Trace>) -> Arc<SharedSession> {
    let started = Instant::now();
    let shared = Arc::new(SharedSession::open(Arc::clone(trace), Threads::auto()));
    let prewarm_s = started.elapsed().as_secs_f64();
    let single_s = seconds(|| {
        std::hint::black_box(SharedSession::open(Arc::clone(trace), Threads::single()));
    });
    m.push(("core.session.prewarm_s", prewarm_s));
    m.push(("exec.prewarm_speedup", single_s / prewarm_s));
    let mut pyramid_ms = Vec::new();
    let mut pyramid_bytes = 0;
    let mut index_ms = Vec::new();
    for per_cpu in trace.per_cpu() {
        let started = Instant::now();
        let pyramid = StatePyramid::build(trace, per_cpu.states());
        pyramid_ms.push(started.elapsed().as_secs_f64() * 1e3);
        pyramid_bytes += pyramid.memory_bytes();
        if let Some(samples) = per_cpu.samples(COUNTER) {
            index_ms.push(
                1e3 * seconds(|| {
                    std::hint::black_box(CounterIndex::new(samples));
                }),
            );
        }
    }
    m.push(("core.pyramid.build_ms", median(&pyramid_ms)));
    m.push(("core.pyramid.mb", megabytes(pyramid_bytes as u64)));
    m.push(("core.index.build_ms", median(&index_ms)));
    shared
}

/// `core`: the three timeline engines over one pass of `navigate` views.
/// Returns the adaptive engine's frames for the render and protocol probes.
fn timeline_probes(m: &mut Values, shared: &SharedSession, views: &[View]) -> Vec<TimelineModel> {
    let session = shared.view();
    let no_filter = TaskFilter::new();
    let mut models = Vec::new();
    let mut engine_ms = |engine: TimelineEngine, keep: bool| -> Vec<f64> {
        views
            .iter()
            .map(|view| {
                let started = Instant::now();
                let model = TimelineModel::build_with_engine(
                    &session,
                    view.mode,
                    view.interval,
                    COLUMNS,
                    &no_filter,
                    engine,
                )
                .expect("probe frame");
                let ms = started.elapsed().as_secs_f64() * 1e3;
                if keep {
                    models.push(model);
                }
                ms
            })
            .collect()
    };
    // One untimed pass calibrates the cost model.
    engine_ms(TimelineEngine::Adaptive, false);
    let calibration_decisions = session.engine_decisions().len();
    let scan_ms = engine_ms(TimelineEngine::Scan, false);
    let pyramid_engine_ms = engine_ms(TimelineEngine::Pyramid, false);
    let adaptive_ms = engine_ms(TimelineEngine::Adaptive, true);
    let best_ms: f64 = scan_ms
        .iter()
        .zip(&pyramid_engine_ms)
        .map(|(s, p)| s.min(*p))
        .sum();
    let decisions = &session.engine_decisions()[calibration_decisions..];
    let scans = decisions
        .iter()
        .filter(|d| d.engine == TimelineEngine::Scan)
        .count();
    m.push(("core.timeline.scan_ms", mean(&scan_ms)));
    m.push(("core.timeline.pyramid_ms", mean(&pyramid_engine_ms)));
    m.push(("core.timeline.adaptive_ms", mean(&adaptive_ms)));
    m.push((
        "core.timeline.adaptive_regret",
        adaptive_ms.iter().sum::<f64>() / best_ms,
    ));
    m.push((
        "core.timeline.engine_scan_share",
        scans as f64 / decisions.len().max(1) as f64,
    ));
    models
}

/// `core`: the scan kernels on 64 k lanes of the trace's own columns.
fn kernel_probes(m: &mut Values, trace: &Trace) {
    const LANES: usize = 1 << 16;
    const REPEATS: usize = 200;
    let states = trace.per_cpu()[0].states();
    let n = states.len().min(LANES);
    let (starts, ends, tags) = (
        &states.starts()[..n],
        &states.ends()[..n],
        &states.state_tags()[..n],
    );
    let mut sums = [0u64; WorkerState::COUNT];
    let state_s = seconds(|| {
        for _ in 0..REPEATS {
            kernels::tag_duration_sums(starts, ends, std::hint::black_box(tags), &mut sums);
        }
        std::hint::black_box(sums);
    });
    m.push((
        "core.kernels.state_mlanes_per_s",
        (n * REPEATS) as f64 / 1e6 / state_s,
    ));
    let values = trace.per_cpu()[0]
        .samples(COUNTER)
        .map_or(&[][..], |samples| samples.values());
    let values = &values[..values.len().min(LANES)];
    let minmax_s = seconds(|| {
        for _ in 0..REPEATS {
            std::hint::black_box(kernels::min_max_sum(std::hint::black_box(values)));
        }
    });
    m.push((
        "core.kernels.minmax_mvalues_per_s",
        (values.len() * REPEATS) as f64 / 1e6 / minmax_s,
    ));
}

/// `core`: the statistics refresh, the detectors all and one at a time, and
/// a capped store session's frame in-process.
fn analysis_probes(m: &mut Values, file: &StoreFile, shared: &SharedSession, views: &[View]) {
    let session = shared.view();
    let query_us: Vec<f64> = views
        .iter()
        .map(|view| {
            1e6 * seconds(|| {
                let query = session.query(view.interval);
                for &cpu in &file.cpus {
                    std::hint::black_box(query_result(&query, cpu, Some(COUNTER)));
                }
            })
        })
        .collect();
    m.push(("core.session.query_us", mean(&query_us)));
    let detect_ms = |config: &AnomalyConfig| -> f64 {
        1e3 * seconds(|| {
            std::hint::black_box(
                anomaly::detect_anomalies_with(&session, config, Threads::single())
                    .expect("probe detection"),
            );
        })
    };
    let all = AnomalyConfig::default();
    let all_ms: Vec<f64> = (0..3).map(|_| detect_ms(&all)).collect();
    m.push(("core.anomaly.detect_ms", median(&all_ms)));
    let none = AnomalyConfig::none();
    m.push((
        "core.anomaly.idle_ms",
        detect_ms(&AnomalyConfig {
            idle: all.idle,
            ..none
        }),
    ));
    m.push((
        "core.anomaly.numa_ms",
        detect_ms(&AnomalyConfig {
            numa: all.numa,
            ..none
        }),
    ));
    m.push((
        "core.anomaly.counter_ms",
        detect_ms(&AnomalyConfig {
            counter: all.counter,
            ..none
        }),
    ));
    m.push((
        "core.anomaly.duration_ms",
        detect_ms(&AnomalyConfig {
            duration: all.duration,
            ..none
        }),
    ));

    // A capped store session in-process, one thread.
    let mut store = StoreSession::open(&file.path).expect("open store session");
    store.set_residency_budget(Some(file.soa_bytes / 2));
    let frame_ms: Vec<f64> = views
        .iter()
        .take(24)
        .map(|view| {
            1e3 * seconds(|| {
                std::hint::black_box(
                    store
                        .timeline(view.mode, view.interval, COLUMNS)
                        .expect("store frame"),
                );
            })
        })
        .collect();
    m.push(("core.store_session.frame_ms", median(&frame_ms)));
}

/// `render`, and `exec` through it: frames on one thread, and what forking
/// an empty frame over `nproc` threads costs.
fn render_probes(m: &mut Values, file: &StoreFile, models: &[TimelineModel]) {
    let renderer = TimelineRenderer::new();
    let mut fb = Framebuffer::new(0, 0, Palette::default().background);
    let render_ms: Vec<f64> = models
        .iter()
        .map(|model| 1e3 * seconds(|| renderer.render_into(model, Threads::single(), &mut fb)))
        .collect();
    m.push(("render.frame_ms", mean(&render_ms)));
    m.push((
        "render.mpixels_per_s",
        (fb.width() * fb.height()) as f64 / 1e6 / (mean(&render_ms) / 1e3),
    ));
    // `render_into` hands one band per CPU row to `parallel_map_chunks`:
    // on a one-column model of `nproc` rows the work is nothing and the
    // difference to the single-threaded call is the fork/join itself.
    let threads = Threads::auto();
    let workers = threads.get();
    let model = TimelineModel {
        interval: file.bounds,
        cpus: (0..workers as u32).map(CpuId).collect(),
        columns: 1,
        cells: vec![vec![TimelineCell::Empty]; workers],
    };
    let per_call_us = |threads: Threads, fb: &mut Framebuffer| -> f64 {
        let calls: Vec<f64> = (0..200)
            .map(|_| 1e6 * seconds(|| renderer.render_into(&model, threads, fb)))
            .collect();
        median(&calls)
    };
    let forked = per_call_us(threads, &mut fb);
    let inline = per_call_us(Threads::single(), &mut fb);
    m.push(("exec.parallel_map_overhead_us", (forked - inline).max(0.0)));
}

/// `serve`: encode and decode of the probe's own frames.
fn protocol_probes(m: &mut Values, models: Vec<TimelineModel>) {
    let responses: Vec<Response> = models.into_iter().map(Response::Timeline).collect();
    let mut encoded = Vec::with_capacity(responses.len());
    let encode_us: Vec<f64> = responses
        .iter()
        .map(|response| 1e6 * seconds(|| encoded.push(response.encode())))
        .collect();
    let decode_us: Vec<f64> = encoded
        .iter()
        .map(|payload| {
            1e6 * seconds(|| {
                std::hint::black_box(Response::decode(payload).expect("decode own encoding"));
            })
        })
        .collect();
    let frame_bytes: Vec<f64> = encoded.iter().map(|p| p.len() as f64).collect();
    m.push(("serve.protocol.encode_us", mean(&encode_us)));
    m.push(("serve.protocol.decode_us", mean(&decode_us)));
    m.push(("serve.protocol.frame_kb", mean(&frame_bytes) / 1024.0));
}

/// `serve`: a cached frame through `SessionManager::handle` in-process and
/// over loopback.
fn transport_probes(m: &mut Values, shared: &Arc<SharedSession>, views: &[View]) {
    let mut manager = SessionManager::new(CLIENTS + 1);
    manager.register_memory(workloads::TRACE_NAME, Arc::clone(shared));
    let manager = Arc::new(manager);
    let frame_requests = |session: u64| -> Vec<Request> {
        views
            .iter()
            .take(workloads::HOT_VIEWS)
            .map(|&view| workloads::frame_request(session, view))
            .collect()
    };
    const ROUNDS: usize = 20;
    let handle_us = {
        let Response::Opened { session, .. } = manager.handle(&Request::Open {
            trace: workloads::TRACE_NAME.into(),
        }) else {
            panic!("probe session opens");
        };
        let requests = frame_requests(session);
        // The first pass fills the shared cache; the timed ones are hits, as
        // in `serve_shared`.
        for request in &requests {
            std::hint::black_box(manager.handle(request));
        }
        let total_s = seconds(|| {
            for _ in 0..ROUNDS {
                for request in &requests {
                    std::hint::black_box(manager.handle(request));
                }
            }
        });
        manager.close_session(session);
        1e6 * total_s / (ROUNDS * requests.len()) as f64
    };
    m.push(("serve.manager.handle_us", handle_us));
    {
        let server = workloads::start_server(Arc::clone(&manager));
        let (mut client, session) = workloads::connect(&server);
        let requests = frame_requests(session);
        let round_trips = |client: &mut aftermath_serve::Client, requests: &[Request]| -> f64 {
            let total_s = seconds(|| {
                for _ in 0..ROUNDS {
                    for request in requests {
                        std::hint::black_box(client.request_raw(request).expect("round trip"));
                    }
                }
            });
            1e6 * total_s / (ROUNDS * requests.len()) as f64
        };
        let stats = vec![Request::Stats; requests.len()];
        round_trips(&mut client, &stats);
        let rtt_us = round_trips(&mut client, &stats);
        round_trips(&mut client, &requests);
        let frame_rtt_us = round_trips(&mut client, &requests);
        m.push(("serve.transport.rtt_us", rtt_us));
        // The share of a cached frame's round trip spent outside
        // `SessionManager::handle`: encode, frames, sockets, scheduling.
        m.push((
            "serve.transport.overhead_share",
            1.0 - handle_us / frame_rtt_us,
        ));
        drop(client);
    }
}

/// `serve`: what a second client costs a store-backed trace.
fn store_concurrency_probe(m: &mut Values, cfg: &Config, file: &StoreFile) {
    const FRAMES: usize = 16;
    let tier = Arc::<TierStats>::default();
    let mut manager = SessionManager::new(CLIENTS);
    manager.register_store(
        workloads::TRACE_NAME,
        workloads::capped_store_session(file, tier, None),
    );
    let server = workloads::start_server(Arc::new(manager));
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| workloads::connect(&server)).collect();
    let frames_ms = |client: &mut aftermath_serve::Client, requests: &[Request]| -> Vec<f64> {
        requests
            .iter()
            .map(|request| {
                1e3 * seconds(|| {
                    std::hint::black_box(client.request_raw(request).expect("store frame"));
                })
            })
            .collect()
    };
    let scripts: Vec<Vec<Request>> = clients
        .iter()
        .enumerate()
        .map(|(i, &(_, session))| {
            input::balanced_views(&mut Rng::fork(cfg.seed, 30 + i as u64), file.bounds, 1)
                .into_iter()
                .take(2 * FRAMES)
                .map(|view| workloads::frame_request(session, view))
                .collect()
        })
        .collect();
    let alone = frames_ms(&mut clients[0].0, &scripts[0][..FRAMES]);
    let together: Vec<f64> = std::thread::scope(|scope| {
        let running: Vec<_> = clients
            .iter_mut()
            .zip(&scripts)
            .map(|((client, _), script)| scope.spawn(|| frames_ms(client, &script[FRAMES..])))
            .collect();
        running
            .into_iter()
            .flat_map(|client| client.join().expect("probe client"))
            .collect()
    });
    m.push((
        "serve.manager.store_concurrency_penalty",
        median(&together) / median(&alone),
    ));
}
