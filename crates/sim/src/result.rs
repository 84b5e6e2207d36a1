//! Results of a simulation run: the produced trace plus summary statistics.

use aftermath_trace::Trace;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Number of tasks executed.
    pub num_tasks: usize,
    /// Total cycles all workers spent idle (including failed steal rounds' backoff).
    pub idle_cycles: u64,
    /// Total number of steal attempts (successful or not).
    pub steal_attempts: u64,
    /// Total number of successful steals.
    pub steal_successes: u64,
    /// Bytes read from the local NUMA node across all tasks.
    pub local_bytes_read: u64,
    /// Bytes read from remote NUMA nodes across all tasks.
    pub remote_bytes_read: u64,
    /// Number of first-touch page faults.
    pub page_faults: u64,
    /// Total kernel ("system") time spent in the OS model, in cycles.
    pub system_time_cycles: u64,
    /// Final resident set size in kilobytes.
    pub resident_kbytes: u64,
}

impl SimStats {
    /// Fraction of read bytes that were remote, in `[0, 1]`; 0 when nothing was read.
    pub fn remote_read_fraction(&self) -> f64 {
        let total = self.local_bytes_read + self.remote_bytes_read;
        if total == 0 {
            0.0
        } else {
            self.remote_bytes_read as f64 / total as f64
        }
    }
}

/// The outcome of [`crate::engine::Simulator::run`].
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The execution trace, ready for analysis with `aftermath-core`.
    pub trace: Trace,
    /// Wall-clock makespan of the simulated execution, in cycles.
    pub makespan: u64,
    /// Aggregate statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// Simulated wall-clock time in seconds given the machine's clock frequency.
    pub fn wall_seconds(&self, cycles_per_us: u64) -> f64 {
        self.makespan as f64 / (cycles_per_us as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_fraction() {
        let mut s = SimStats::default();
        assert_eq!(s.remote_read_fraction(), 0.0);
        s.local_bytes_read = 300;
        s.remote_bytes_read = 100;
        assert!((s.remote_read_fraction() - 0.25).abs() < 1e-12);
    }
}
