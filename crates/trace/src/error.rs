//! Error types for trace construction and (de)serialization.

use crate::ids::{CpuId, TaskId, TaskTypeId, Timestamp};
use std::fmt;
use std::io;

/// Errors produced when building, validating, reading or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// A CPU id was used that does not exist in the machine topology.
    UnknownCpu(CpuId),
    /// A task id was referenced that has not been registered.
    UnknownTask(TaskId),
    /// A task type id was referenced that has not been registered.
    UnknownTaskType(TaskTypeId),
    /// Events on a CPU are not ordered by timestamp.
    ///
    /// The trace format requires a total order of events per core (Section VI-A).
    UnorderedEvents {
        /// The CPU on which the ordering violation was detected.
        cpu: CpuId,
        /// The timestamp of the earlier (already recorded) event.
        previous: Timestamp,
        /// The offending timestamp that goes backwards.
        offending: Timestamp,
    },
    /// A state or task interval has `end < start`.
    InvalidInterval {
        /// Start of the offending interval.
        start: Timestamp,
        /// End of the offending interval.
        end: Timestamp,
    },
    /// Two state intervals on the same CPU overlap.
    OverlappingStates(CpuId),
    /// A streaming chunk (or a trace being split into chunks) violates the
    /// append-only ordering contract of [`crate::streaming`].
    UnstreamableChunk(String),
    /// The strict lint pipeline found defects (see [`crate::lint`]); the
    /// summary carries per-code counts.
    LintFindings(crate::lint::LintSummary),
    /// The trace file is malformed.
    Format(String),
    /// Stored bytes failed an integrity check: a block, directory or metadata
    /// checksum did not match what the writer recorded. Unlike
    /// [`TraceError::Format`] (structurally invalid by construction), this
    /// means the bytes were damaged after being written — the store's salvage
    /// open ([`crate::store::StoredTrace::open_salvage`]) can usually recover
    /// the undamaged blocks.
    Corrupted(String),
    /// The trace file was produced by an unsupported format version.
    UnsupportedVersion(u32),
    /// An I/O error occurred while reading or writing a trace file.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownCpu(cpu) => write!(f, "unknown cpu {cpu}"),
            TraceError::UnknownTask(task) => write!(f, "unknown task {task}"),
            TraceError::UnknownTaskType(ty) => write!(f, "unknown task type {ty}"),
            TraceError::UnorderedEvents {
                cpu,
                previous,
                offending,
            } => write!(
                f,
                "events on {cpu} are not ordered: {offending} recorded after {previous}"
            ),
            TraceError::InvalidInterval { start, end } => {
                write!(f, "invalid interval: end {end} precedes start {start}")
            }
            TraceError::OverlappingStates(cpu) => {
                write!(f, "overlapping state intervals on {cpu}")
            }
            TraceError::UnstreamableChunk(msg) => {
                write!(f, "chunk violates the streaming contract: {msg}")
            }
            TraceError::LintFindings(summary) => {
                write!(f, "trace failed strict lint: {summary}")
            }
            TraceError::Format(msg) => write!(f, "malformed trace file: {msg}"),
            TraceError::Corrupted(msg) => write!(f, "corrupted trace store: {msg}"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A field that could not be decoded ([`crate::wire::WireReader`]) is a
/// malformed file, whichever format the field belonged to.
impl From<crate::wire::WireError> for TraceError {
    fn from(e: crate::wire::WireError) -> Self {
        TraceError::Format(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TraceError::UnknownCpu(CpuId(7));
        assert!(e.to_string().contains("cpu7"));
        let e = TraceError::UnorderedEvents {
            cpu: CpuId(1),
            previous: Timestamp(10),
            offending: Timestamp(5),
        };
        assert!(e.to_string().contains("not ordered"));
        let e = TraceError::UnsupportedVersion(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_error_source() {
        use std::error::Error as _;
        let e = TraceError::from(io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(TraceError::UnknownTask(TaskId(1)).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
