//! Seeded fault injection for the store's cold tier.
//!
//! [`FaultyTier`] wraps any [`ColdTier`] and injects failures the way ageing
//! storage actually fails: transient I/O errors, single-bit flips, short
//! reads and latency spikes. Faults are drawn deterministically from a seed
//! and the wrapper's read counter, so a given `(seed, access sequence)`
//! always injects the same faults — chaos runs are replayable, and a failing
//! schedule can be committed as a regression test.
//!
//! Two scheduling modes compose:
//!
//! * **Rates** ([`FaultConfig`]): each kind fires pseudo-randomly at a
//!   configured rate per 10 000 reads.
//! * **Scripts** ([`FaultyTier::script`]): an explicit list of
//!   `(read index, fault)` pairs for tests that need a fault at an exact
//!   point.
//!
//! The contract the store layer is tested against: every injected fault
//! surfaces as a typed recoverable [`TraceError`] — never a panic, and (with
//! version-2 checksums) never a silently wrong byte. Bit flips in particular
//! do *not* error at the tier; they corrupt the returned buffer exactly as
//! bit rot would, and it is the checksum layer's job to catch them.

use std::fmt;
use std::io;
use std::sync::Mutex;
use std::time::Duration;

use crate::error::TraceError;
use crate::store::ColdTier;

/// The kinds of fault [`FaultyTier`] can inject on a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The read fails with a transient I/O error.
    Io,
    /// One bit of the returned buffer is flipped; the read "succeeds".
    BitFlip,
    /// The read stops short of the requested length and fails with
    /// `UnexpectedEof`, the way `read_exact` against a truncated file does.
    ShortRead,
    /// The read succeeds but only after a configured delay.
    LatencySpike,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Io => "io-error",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::ShortRead => "short-read",
            FaultKind::LatencySpike => "latency-spike",
        })
    }
}

/// One injected fault, recorded in the tier's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The 0-based index of the read the fault was injected into.
    pub read_index: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// Seeded fault rates, per 10 000 reads.
///
/// The default injects nothing; set the rates a scenario needs. Rates are
/// evaluated independently in the order io, short read, bit flip, latency
/// spike — the first that fires wins for that read.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Transient I/O errors per 10 000 reads.
    pub io_per_10k: u32,
    /// Short reads per 10 000 reads.
    pub short_read_per_10k: u32,
    /// Bit flips per 10 000 reads.
    pub bit_flip_per_10k: u32,
    /// Latency spikes per 10 000 reads.
    pub latency_per_10k: u32,
    /// Duration of an injected latency spike.
    pub latency: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            io_per_10k: 0,
            short_read_per_10k: 0,
            bit_flip_per_10k: 0,
            latency_per_10k: 0,
            latency: Duration::from_millis(2),
        }
    }
}

/// SplitMix64: a small, high-quality mixer — one output per input, so the
/// fault decision for read `n` is a pure function of `(seed, n)`. Public so
/// the retry jitter of the serve client and the chaos harness draw from the
/// same mixer instead of a copy of it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct FaultState {
    reads: u64,
    script: Vec<(u64, FaultKind)>,
    log: Vec<FaultEvent>,
}

/// A [`ColdTier`] wrapper that injects deterministic faults into reads.
#[derive(Debug)]
pub struct FaultyTier {
    inner: Box<dyn ColdTier>,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl FaultyTier {
    /// Wraps `inner`, injecting faults at the rates of `config`.
    pub fn new(inner: Box<dyn ColdTier>, config: FaultConfig) -> Self {
        FaultyTier {
            inner,
            config,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Wraps `inner` with an explicit fault script: `faults` lists 0-based
    /// read indices and the fault to inject on each. Script entries fire in
    /// addition to (and before) any configured rates.
    pub fn script(inner: Box<dyn ColdTier>, mut faults: Vec<(u64, FaultKind)>) -> Self {
        faults.sort_unstable();
        let tier = FaultyTier::new(inner, FaultConfig::default());
        tier.state.lock().expect("fault state lock").script = faults;
        tier
    }

    /// Total reads issued through this tier so far.
    pub fn reads(&self) -> u64 {
        self.state.lock().expect("fault state lock").reads
    }

    /// Every fault injected so far, in read order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.state.lock().expect("fault state lock").log.clone()
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().expect("fault state lock").log.len() as u64
    }

    /// Decides the fault (if any) for the read with index `n`.
    fn decide(&self, n: u64, scripted: Option<FaultKind>) -> Option<FaultKind> {
        if let Some(kind) = scripted {
            return Some(kind);
        }
        let c = &self.config;
        if c.io_per_10k == 0
            && c.short_read_per_10k == 0
            && c.bit_flip_per_10k == 0
            && c.latency_per_10k == 0
        {
            return None;
        }
        let roll = (splitmix64(c.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 10_000) as u32;
        let mut bound = c.io_per_10k;
        if roll < bound {
            return Some(FaultKind::Io);
        }
        bound += c.short_read_per_10k;
        if roll < bound {
            return Some(FaultKind::ShortRead);
        }
        bound += c.bit_flip_per_10k;
        if roll < bound {
            return Some(FaultKind::BitFlip);
        }
        bound += c.latency_per_10k;
        if roll < bound {
            return Some(FaultKind::LatencySpike);
        }
        None
    }
}

impl ColdTier for FaultyTier {
    fn size(&self) -> Result<u64, TraceError> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        let (n, scripted) = {
            let mut state = self.state.lock().expect("fault state lock");
            let n = state.reads;
            state.reads += 1;
            let scripted = state
                .script
                .iter()
                .position(|&(at, _)| at == n)
                .map(|i| state.script.remove(i).1);
            (n, scripted)
        };
        let fault = self.decide(n, scripted);
        if let Some(kind) = fault {
            self.state
                .lock()
                .expect("fault state lock")
                .log
                .push(FaultEvent {
                    read_index: n,
                    kind,
                });
        }
        match fault {
            Some(FaultKind::Io) => Err(TraceError::Io(io::Error::other(format!(
                "injected transient i/o error on read {n}"
            )))),
            Some(FaultKind::ShortRead) => {
                // Model a truncated source: the prefix arrives, then EOF.
                let keep = buf.len() / 2;
                let _ = self.inner.read_at(offset, &mut buf[..keep]);
                Err(TraceError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "injected short read on read {n} ({keep}/{} bytes)",
                        buf.len()
                    ),
                )))
            }
            Some(FaultKind::BitFlip) => {
                self.inner.read_at(offset, buf)?;
                if !buf.is_empty() {
                    let r = splitmix64(self.config.seed ^ n ^ 0xb17f_11b5);
                    let byte = (r % buf.len() as u64) as usize;
                    let bit = ((r >> 32) % 8) as u8;
                    buf[byte] ^= 1 << bit;
                }
                Ok(())
            }
            Some(FaultKind::LatencySpike) => {
                std::thread::sleep(self.config.latency);
                self.inner.read_at(offset, buf)
            }
            None => self.inner.read_at(offset, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryTier;

    fn tier_over(bytes: Vec<u8>) -> Box<dyn ColdTier> {
        Box::new(MemoryTier::new(bytes))
    }

    #[test]
    fn passthrough_without_faults() {
        let tier = FaultyTier::new(tier_over((0..32u8).collect()), FaultConfig::default());
        let mut buf = [0u8; 8];
        tier.read_at(4, &mut buf).unwrap();
        assert_eq!(buf, [4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(tier.reads(), 1);
        assert!(tier.fault_log().is_empty());
    }

    #[test]
    fn scripted_faults_fire_at_exact_reads() {
        let tier = FaultyTier::script(
            tier_over((0..32u8).collect()),
            vec![(1, FaultKind::Io), (2, FaultKind::BitFlip)],
        );
        let mut buf = [0u8; 4];
        tier.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3]);
        assert!(matches!(tier.read_at(0, &mut buf), Err(TraceError::Io(_))));
        let mut flipped = [0u8; 4];
        tier.read_at(0, &mut flipped).unwrap();
        let differing: Vec<_> = flipped
            .iter()
            .zip([0u8, 1, 2, 3])
            .filter(|(a, b)| **a != *b)
            .collect();
        assert_eq!(differing.len(), 1, "exactly one byte flipped");
        assert_eq!(
            tier.fault_log()
                .iter()
                .map(|f| (f.read_index, f.kind))
                .collect::<Vec<_>>(),
            vec![(1, FaultKind::Io), (2, FaultKind::BitFlip)]
        );
    }

    #[test]
    fn rate_schedules_are_deterministic_per_seed() {
        let config = FaultConfig {
            seed: 42,
            io_per_10k: 2_000,
            ..FaultConfig::default()
        };
        let run = |config: FaultConfig| {
            let tier = FaultyTier::new(tier_over(vec![0u8; 64]), config);
            let mut buf = [0u8; 8];
            (0..100)
                .map(|_| tier.read_at(0, &mut buf).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(config);
        let b = run(config);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert!(a.iter().any(|&e| e), "a 20% rate fires within 100 reads");
        assert!(!a.iter().all(|&e| e), "and spares some reads");
        let c = run(FaultConfig { seed: 43, ..config });
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn short_reads_surface_as_unexpected_eof() {
        let tier = FaultyTier::script(tier_over(vec![7u8; 64]), vec![(0, FaultKind::ShortRead)]);
        let mut buf = [0u8; 16];
        match tier.read_at(0, &mut buf) {
            Err(TraceError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected injected short read, got {other:?}"),
        }
    }
}
