//! # aftermath-exec
//!
//! The shared parallel execution layer of Aftermath-rs: a scoped, chunked,
//! work-stealing-ish thread pool built exclusively on `std`.
//!
//! The paper's premise is *interactive* exploration of large task-parallel traces;
//! staying interactive at scale requires that trace ingestion, index construction,
//! anomaly detection and timeline rasterization all use the machine they run on.
//! Every layer of the workspace funnels its data parallelism through the two
//! primitives in this crate:
//!
//! * [`parallel_map`] — maps a function over a slice and returns the results **in
//!   input order**. Work is split into chunks that idle workers claim from a shared
//!   atomic counter (chunked self-scheduling), and every input index writes into its
//!   own pre-sized output slot, so the result is deterministic regardless of how the
//!   chunks were interleaved at run time.
//! * [`parallel_map_chunks`] — runs a function over *disjoint mutable* chunks of a
//!   slice (e.g. horizontal framebuffer bands), again with dynamic chunk claiming and
//!   deterministic per-chunk result ordering.
//!
//! It also owns the one process-wide tier switch, [`wide_kernels_disabled`]
//! ([`NO_SIMD_ENV`]): every layer with a wide (SIMD) tier and a portable one asks here
//! which to dispatch to, so the variable is read in exactly one place.
//!
//! How many OS threads participate is controlled by [`Threads`]; the default is the
//! machine's available parallelism, and a single-threaded configuration
//! ([`Threads::single`]) executes every primitive inline without spawning, which is
//! what keeps tests and benchmark baselines reproducible.
//!
//! Threads are *scoped* ([`std::thread::scope`] underneath): they may borrow from
//! the caller's stack and are all joined before the primitive returns, so no pool
//! state outlives a call and a panicking worker propagates to the caller.
//!
//! ```rust
//! use aftermath_exec::{parallel_map, Threads};
//!
//! let squares = parallel_map(Threads::auto(), &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// How many chunks each worker should get on average; more chunks than workers gives
/// the dynamic claiming room to balance uneven per-item cost.
const CHUNKS_PER_THREAD: usize = 4;

/// The thread-count configuration of the execution layer.
///
/// Defaults to the machine's available parallelism ([`Threads::auto`]); tests and
/// benchmarks pin it explicitly ([`Threads::new`], [`Threads::single`]). The value is
/// an upper bound: a primitive never spawns more workers than it has chunks of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// As many threads as the machine offers (`std::thread::available_parallelism`),
    /// falling back to one when the machine cannot tell.
    pub fn auto() -> Self {
        Threads(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// Exactly `count` threads; zero is clamped to one.
    pub fn new(count: usize) -> Self {
        Threads(NonZeroUsize::new(count).unwrap_or(NonZeroUsize::MIN))
    }

    /// One thread: every primitive runs inline in the calling thread, no spawning.
    pub fn single() -> Self {
        Threads(NonZeroUsize::MIN)
    }

    /// The configured number of threads (always at least one).
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Whether this configuration executes inline rather than spawning workers.
    pub fn is_single(self) -> bool {
        self.0.get() == 1
    }

    /// The standard measurement grid for scaling runs: 1, 2, 4 and the machine's
    /// available parallelism, deduplicated and ascending. Benchmarks and examples
    /// share this so their measured thread grids stay in sync.
    pub fn scaling_counts() -> Vec<usize> {
        let mut counts = vec![1, 2, 4, Threads::auto().get()];
        counts.sort_unstable();
        counts.dedup();
        counts
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::auto()
    }
}

impl fmt::Display for Threads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Environment variable that pins every layer to its portable tier: any non-empty
/// value other than `0` makes [`wide_kernels_disabled`] report `true`.
pub const NO_SIMD_ENV: &str = "AFTERMATH_NO_SIMD";

/// Whether [`NO_SIMD_ENV`] asks for the portable tiers — the one switch the analysis
/// kernels (`aftermath-core`) and the store checksum (`aftermath-trace`) both
/// consult, so a process never runs one layer wide and the other pinned. Read once
/// per process and cached.
pub fn wide_kernels_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| disabled_by(std::env::var_os(NO_SIMD_ENV).as_deref()))
}

/// The rule of [`NO_SIMD_ENV`] on the variable's value (`None`: unset).
fn disabled_by(value: Option<&std::ffi::OsStr>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Error returned when parsing a [`Threads`] value from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseThreadsError(String);

impl fmt::Display for ParseThreadsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid thread count '{}': expected a positive integer or 'auto'",
            self.0
        )
    }
}

impl std::error::Error for ParseThreadsError {}

impl FromStr for Threads {
    type Err = ParseThreadsError;

    /// Parses `"auto"` or a positive integer (used by `reproduce --threads`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::auto());
        }
        s.parse::<usize>()
            .ok()
            .and_then(NonZeroUsize::new)
            .map(Threads)
            .ok_or_else(|| ParseThreadsError(s.to_string()))
    }
}

/// Maps `f` over `items` on up to `threads` worker threads and returns the results in
/// input order.
///
/// The slice is split into contiguous chunks which idle workers claim from a shared
/// counter; each chunk's results go into the output slot of that chunk, so the final
/// vector equals `items.iter().map(f).collect()` regardless of scheduling. With
/// [`Threads::single`] (or one item) the map runs inline in the calling thread.
///
/// # Panics
///
/// A panic in `f` propagates to the caller once all workers have been joined.
pub fn parallel_map<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if threads.is_single() || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_count = items
        .len()
        .min(threads.get().saturating_mul(CHUNKS_PER_THREAD));
    let chunk_len = items.len().div_ceil(chunk_count);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let outs = run_claimed(threads, chunks.len(), |i| {
        chunks[i].iter().map(&f).collect::<Vec<U>>()
    });
    let mut result = Vec::with_capacity(items.len());
    for out in outs {
        result.extend(out);
    }
    result
}

/// Runs `f` over disjoint mutable chunks of `data` (each at most `chunk_len` elements,
/// in slice order) on up to `threads` workers and returns the per-chunk results in
/// chunk order.
///
/// `f` receives the chunk index and the mutable chunk; chunk `i` covers
/// `data[i * chunk_len ..]`. This is the primitive behind parallel rasterization: each
/// horizontal framebuffer band is one chunk, so workers write into disjoint memory.
/// A `chunk_len` of zero is clamped to one. With [`Threads::single`] (or a single
/// chunk) everything runs inline, in order.
///
/// # Panics
///
/// A panic in `f` propagates to the caller once all workers have been joined.
pub fn parallel_map_chunks<T, R, F>(
    threads: Threads,
    data: &mut [T],
    chunk_len: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.is_empty() {
        return Vec::new();
    }
    if threads.is_single() || data.len() <= chunk_len {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, chunk)| f(i, chunk))
            .collect();
    }
    // Take-once slots hand the claimed chunk's `&mut` borrow to its worker
    // without unsafe code.
    let work: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk_len)
        .map(|chunk| Mutex::new(Some(chunk)))
        .collect();
    run_claimed(threads, work.len(), |i| {
        let chunk = work[i]
            .lock()
            .unwrap()
            .take()
            .expect("each chunk is claimed exactly once");
        f(i, chunk)
    })
}

/// Runs `job(i)` for every `i` in `0..jobs` on up to `threads` scoped workers and
/// returns the results in job order. Idle workers claim the next job from a shared
/// atomic counter, so each job runs exactly once and its result lands in its own
/// slot whatever the interleaving; a panic in `job` propagates once every worker
/// has been joined.
fn run_claimed<R, F>(threads: Threads, jobs: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..threads.get().min(jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let out = job(i);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job was claimed by exactly one worker")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Long-lived worker pool (services)
// ---------------------------------------------------------------------------

/// Why a job was not accepted by a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The pending-job queue is at capacity; the caller should shed load
    /// (a server turns this into an explicit "server full" response).
    Saturated,
    /// The pool is shutting down and accepts no further jobs.
    ShutDown,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Saturated => write!(f, "worker pool is saturated"),
            PoolError::ShutDown => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for PoolError {}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: std::collections::VecDeque<PoolJob>,
    /// Workers currently parked waiting for a job (neither running one nor
    /// holding one popped from the queue). Admission counts these.
    idle: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs.
    wake: std::sync::Condvar,
    /// The constructor waits here until every worker has parked once, so
    /// admission decisions are exact from the first `try_execute` on.
    settled: std::sync::Condvar,
    max_pending: usize,
    /// Jobs that panicked (and were contained). The worker survives a
    /// panicking job; this counter makes the containment observable.
    panics: std::sync::atomic::AtomicU64,
}

/// A bounded, long-lived worker pool for services.
///
/// The scoped primitives above ([`parallel_map`] and friends) spawn workers
/// per call and join them before returning — right for data parallelism,
/// wrong for a server whose jobs (client connections) outlive any one call
/// and arrive at unpredictable times. A `WorkerPool` keeps a fixed set of
/// `'static` workers alive and makes *admission* explicit:
/// [`WorkerPool::try_execute`] never blocks and never queues beyond the
/// configured bound — it rejects with [`PoolError::Saturated`] instead, so a
/// server sheds load at the door rather than accumulating invisible backlog.
///
/// [`WorkerPool::shutdown`] (also run on drop) is graceful: already queued
/// jobs finish, new submissions are refused, and every worker is joined.
///
/// ```rust
/// use aftermath_exec::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2, 8);
/// let (tx, rx) = mpsc::channel();
/// pool.try_execute(move || tx.send(21 + 21).unwrap()).unwrap();
/// assert_eq!(rx.recv().unwrap(), 42);
/// pool.shutdown();
/// ```
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("max_pending", &self.shared.max_pending)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (zero is clamped to one) that admits
    /// at most `max_pending` not-yet-started jobs at any moment.
    ///
    /// `max_pending` bounds the *queue*, not the work in flight: a job is
    /// admitted while `pending jobs < idle workers + max_pending`. With
    /// `max_pending = 0` a job is only admitted when an idle worker is ready
    /// to take it immediately — the strictest admission a
    /// connection-per-job server can ask for is `(n, 0)`.
    ///
    /// Returns once every worker has started and parked, so the very first
    /// [`WorkerPool::try_execute`] already sees exact idle counts.
    pub fn new(workers: usize, max_pending: usize) -> Self {
        let worker_count = workers.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: std::collections::VecDeque::new(),
                idle: 0,
                shutdown: false,
            }),
            wake: std::sync::Condvar::new(),
            settled: std::sync::Condvar::new(),
            max_pending,
            panics: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut state = shared.state.lock().unwrap();
                        loop {
                            if let Some(job) = state.jobs.pop_front() {
                                break job;
                            }
                            if state.shutdown {
                                return;
                            }
                            state.idle += 1;
                            shared.settled.notify_all();
                            state = shared.wake.wait(state).unwrap();
                            state.idle -= 1;
                        }
                    };
                    // Contain panics: a job (e.g. one poisoned connection in
                    // a server) must not take its worker thread down with it.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                        shared
                            .panics
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                })
            })
            .collect();
        {
            let mut state = shared.state.lock().unwrap();
            while state.idle < worker_count && !state.shutdown {
                state = shared.settled.wait(state).unwrap();
            }
        }
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of jobs that panicked and were contained (the worker survived).
    pub fn panics_caught(&self) -> u64 {
        self.shared
            .panics
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`PoolError::Saturated`] when the pending queue is at its bound,
    /// [`PoolError::ShutDown`] after [`WorkerPool::shutdown`] has begun. The
    /// job is returned to the caller only in the sense that it was never run;
    /// rejected closures are dropped.
    pub fn try_execute<F>(&self, job: F) -> Result<(), PoolError>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown {
            return Err(PoolError::ShutDown);
        }
        // Queued jobs covered by parked workers don't count against the
        // pending bound: they are about to start, not waiting behind work.
        if state.jobs.len() >= state.idle + self.shared.max_pending {
            return Err(PoolError::Saturated);
        }
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Graceful shutdown: refuses new jobs, lets queued jobs finish, joins
    /// every worker. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // A panicked job already unwound its worker; joining the pool must
            // not propagate it a second time.
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_configs() -> [Threads; 4] {
        [
            Threads::single(),
            Threads::new(2),
            Threads::new(7),
            Threads::auto(),
        ]
    }

    #[test]
    fn threads_construction_and_parsing() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(3).get(), 3);
        assert!(Threads::single().is_single());
        assert!(Threads::auto().get() >= 1);
        assert_eq!(Threads::default(), Threads::auto());
        assert_eq!("4".parse::<Threads>().unwrap().get(), 4);
        assert_eq!("auto".parse::<Threads>().unwrap(), Threads::auto());
        assert!("0".parse::<Threads>().is_err());
        assert!("x".parse::<Threads>().is_err());
        let err = "-2".parse::<Threads>().unwrap_err();
        assert!(err.to_string().contains("-2"));
        assert_eq!(Threads::new(5).to_string(), "5");
    }

    #[test]
    fn the_no_simd_switch_is_off_when_unset_empty_or_zero() {
        let set = |value: &'static str| disabled_by(Some(std::ffi::OsStr::new(value)));
        assert!(!disabled_by(None));
        assert!(!set("") && !set("0"));
        assert!(set("1") && set("true") && set("00"));
    }

    #[test]
    fn scaling_counts_are_ascending_and_distinct() {
        let counts = Threads::scaling_counts();
        assert!(counts.contains(&1));
        for pair in counts.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in thread_configs() {
            assert_eq!(
                parallel_map(threads, &items, |x| x * 3 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let empty: [u32; 0] = [];
        assert!(parallel_map(Threads::new(4), &empty, |x| *x).is_empty());
        assert_eq!(parallel_map(Threads::new(4), &[9], |x| x + 1), vec![10]);
    }

    #[test]
    fn map_with_uneven_work_is_still_ordered() {
        // Make early items much more expensive so late chunks finish first.
        let items: Vec<u64> = (0..256).collect();
        let result = parallel_map(Threads::new(8), &items, |&i| {
            let spins = if i < 8 { 20_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (slot, &(i, _)) in result.iter().enumerate() {
            assert_eq!(slot as u64, i);
        }
    }

    #[test]
    fn chunked_mutation_covers_every_element_once() {
        for threads in thread_configs() {
            for chunk_len in [0usize, 1, 3, 64, 1000] {
                let mut data = vec![0u32; 100];
                parallel_map_chunks(threads, &mut data, chunk_len, |i, chunk| {
                    for slot in chunk.iter_mut() {
                        *slot += 1 + i as u32;
                    }
                });
                let chunk_len = chunk_len.max(1);
                for (pos, &value) in data.iter().enumerate() {
                    assert_eq!(value, 1 + (pos / chunk_len) as u32, "position {pos}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_returns_results_in_chunk_order() {
        let mut data: Vec<u64> = (0..97).collect();
        let sums = parallel_map_chunks(Threads::new(4), &mut data, 10, |i, chunk| {
            (i, chunk.iter().sum::<u64>())
        });
        assert_eq!(sums.len(), 10);
        for (slot, &(i, _)) in sums.iter().enumerate() {
            assert_eq!(slot, i);
        }
        let total: u64 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, (0..97).sum::<u64>());
    }

    #[test]
    fn map_chunks_empty_input() {
        let mut data: Vec<u8> = Vec::new();
        let out = parallel_map_chunks(Threads::new(4), &mut data, 8, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn scope_joins_borrowed_threads() {
        let mut left = 0u64;
        let mut right = 0u64;
        thread::scope(|s| {
            s.spawn(|| left = 21);
            s.spawn(|| right = 21);
        });
        assert_eq!(left + right, 42);
    }

    #[test]
    fn pool_runs_jobs_and_shuts_down_gracefully() {
        let pool = WorkerPool::new(4, 64);
        assert_eq!(pool.workers(), 4);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        // A burst may legitimately saturate the bounded queue; a caller that
        // does not want to shed load backs off and retries.
        for _ in 0..100 {
            loop {
                let counter = std::sync::Arc::clone(&counter);
                match pool.try_execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) {
                    Ok(()) => break,
                    Err(PoolError::Saturated) => thread::yield_now(),
                    Err(other) => panic!("unexpected pool error: {other}"),
                }
            }
        }
        // Graceful shutdown runs everything already admitted.
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_admission_rejects_beyond_the_bound() {
        use std::sync::mpsc;
        let pool = WorkerPool::new(2, 0);
        let (release, gate) = mpsc::channel::<()>();
        let gate = std::sync::Arc::new(Mutex::new(gate));
        // Occupy both workers with jobs that block until released.
        let mut running = Vec::new();
        for _ in 0..2 {
            let gate = std::sync::Arc::clone(&gate);
            let (started_tx, started_rx) = mpsc::channel();
            pool.try_execute(move || {
                started_tx.send(()).unwrap();
                gate.lock().unwrap().recv().unwrap();
            })
            .unwrap();
            running.push(started_rx);
        }
        for started in &running {
            started.recv().unwrap();
        }
        // No idle worker and no pending allowance: the door is closed.
        assert_eq!(pool.try_execute(|| {}), Err(PoolError::Saturated));
        release.send(()).unwrap();
        release.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn pool_contains_panicking_jobs_and_workers_survive() {
        let pool = WorkerPool::new(1, 8);
        // The single worker takes a panicking job...
        pool.try_execute(|| panic!("injected job panic")).unwrap();
        // ...and must still be alive to run the next one.
        let (tx, rx) = std::sync::mpsc::channel();
        loop {
            let tx = tx.clone();
            match pool.try_execute(move || tx.send(42).unwrap()) {
                Ok(()) => break,
                Err(PoolError::Saturated) => thread::yield_now(),
                Err(other) => panic!("unexpected pool error: {other}"),
            }
        }
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(),
            42
        );
        assert_eq!(pool.panics_caught(), 1);
        pool.shutdown();
    }

    #[test]
    fn pool_refuses_jobs_after_shutdown_begins() {
        let pool = WorkerPool::new(1, 4);
        let shared = std::sync::Arc::clone(&pool.shared);
        pool.shutdown();
        // The public handle is consumed by shutdown; probe through the state
        // the way a racing submitter would land.
        assert!(shared.state.lock().unwrap().shutdown);
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.workers(), 1, "zero workers clamps to one");
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(Threads::new(4), &items, |&x| {
                assert!(x != 50, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn chunk_worker_panic_propagates() {
        let mut data: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_chunks(Threads::new(4), &mut data, 10, |i, chunk| {
                assert!(i != 5, "boom");
                chunk.len()
            })
        }));
        assert!(result.is_err());
    }
}
