//! What the traced run records from outside the program: spans around the
//! public calls the driver makes, a counting [`ColdTier`] wrapper, and the
//! peak of the process's resident set size.
//!
//! Spans live in one preallocated in-memory buffer and are written out when
//! the run ends. A span knows its name, start, end, parent and the
//! interaction (root span) it belongs to; parents are tracked per thread, so
//! a tier read on a server worker has no parent while one made in-process
//! nests under the call that caused it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aftermath_trace::{ColdTier, FileTier, TraceError};

/// One recorded span; ids start at 1, `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Id of the root span of this span's interaction (its own id for roots).
    pub interaction: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last: `(id, interaction)`.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// The span buffer of one traced run. It starts switched off: the traced
/// run first repeats the untraced phase on the same set-up (every span site
/// then costs one atomic load), and switches recording on for the second.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Recorder {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        })
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, interaction) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, interaction) = open.last().map_or((0, id), |&(p, root)| (p, root));
            open.push((id, interaction));
            (parent, interaction)
        });
        SpanGuard {
            recorder: self,
            span: Span {
                id,
                parent,
                interaction,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            },
        }
    }

    /// The spans recorded so far, and how many the full buffer turned away.
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        let spans = self.spans.lock().expect("span buffer lock").clone();
        (spans, self.dropped.load(Ordering::Relaxed))
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    span: Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.recorder.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        let mut spans = self.recorder.spans.lock().expect("span buffer lock");
        if spans.len() < self.recorder.capacity {
            spans.push(self.span);
        } else {
            self.recorder.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Opens a span when there is a recorder and it is switched on; the untraced
/// run passes `None` and pays one branch.
pub fn span<'r>(recorder: Option<&'r Recorder>, name: &'static str) -> Option<SpanGuard<'r>> {
    recorder
        .filter(|r| r.enabled.load(Ordering::Relaxed))
        .map(|r| r.span(name))
}

/// Per span name: how often it ran, its total time, and its self time — the
/// total minus the part its child spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self-time table over `spans`, sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        // Children of one parent run on one thread and never overlap, but
        // merge the intervals anyway so a clock tie cannot double-count.
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let entry = table.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered;
    }
    let mut table: Vec<_> = table.into_iter().collect();
    table.sort_by_key(|&(name, _)| name);
    table
}

/// Writes `spans` as tab-separated `id parent interaction name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tinteraction\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.interaction, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Totals of a [`CountingTier`]; shared with whoever opened the store.
#[derive(Debug, Default)]
pub struct TierStats {
    reads: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// A point-in-time copy of [`TierStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTotals {
    pub reads: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl TierStats {
    pub fn totals(&self) -> TierTotals {
        TierTotals {
            reads: self.reads.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

impl TierTotals {
    pub fn since(self, earlier: TierTotals) -> TierTotals {
        TierTotals {
            reads: self.reads - earlier.reads,
            bytes: self.bytes - earlier.bytes,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

/// The store file behind a [`FileTier`], counting every ranged read (and
/// recording it as a span when tracing is on).
#[derive(Debug)]
pub struct CountingTier {
    inner: FileTier,
    stats: Arc<TierStats>,
    recorder: Option<Arc<Recorder>>,
}

impl CountingTier {
    pub fn open(
        path: &Path,
        stats: Arc<TierStats>,
        recorder: Option<Arc<Recorder>>,
    ) -> Result<Self, TraceError> {
        Ok(CountingTier {
            inner: FileTier::open(path)?,
            stats,
            recorder,
        })
    }
}

impl ColdTier for CountingTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        let _span = span(self.recorder.as_deref(), "ColdTier::read_at");
        let started = Instant::now();
        let result = self.inner.read_at(offset, buf);
        self.stats
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        result
    }
}

/// Resets the kernel's high-water mark of this process's resident set to
/// what is resident now, so that [`peak_rss_kb`] afterwards reads the peak of
/// the timed phase alone. Where `/proc/self/clear_refs` cannot be written the
/// mark stays, and the peak then includes set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM`, the highest resident set size of this process since the last
/// [`reset_peak_rss`], in kilobytes (0 where `/proc` is unavailable). The
/// kernel keeps the mark, so allocations that live only inside one
/// interaction count too.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Hands the allocator's free memory back to the kernel, so that what
/// set-up allocated and dropped (the trace builder above all) does not count
/// towards the timed phase's `peak_rss_mb`. A no-op off glibc, where the
/// metric then includes whatever the allocator retains.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns unused
        // heap pages of the process's own allocator to the kernel; glibc
        // allows calling it from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let recorder = Recorder::new(16);
        assert!(span(Some(&recorder), "off").is_none());
        recorder.set_enabled(true);
        {
            let _root = recorder.span("root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = recorder.span("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let (spans, dropped) = recorder.snapshot();
        assert_eq!(dropped, 0);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((root.parent, child.parent), (0, root.id));
        assert_eq!(child.interaction, root.id);
        let table = self_times(&spans);
        let totals = |name| table.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(totals("child").self_ns, totals("child").total_ns);
        assert_eq!(
            totals("root").self_ns,
            totals("root").total_ns - totals("child").total_ns
        );
    }
}
