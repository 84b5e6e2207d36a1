//! Error type of the analysis crate.

use std::fmt;
use std::io;

use aftermath_trace::{CounterId, CpuId, TaskId};

/// Errors produced by analyses in `aftermath-core`.
#[derive(Debug)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The trace does not contain the requested counter.
    UnknownCounter(CounterId),
    /// The trace does not contain the requested CPU.
    UnknownCpu(CpuId),
    /// The trace does not contain the requested task.
    UnknownTask(TaskId),
    /// The requested analysis needs information the trace does not contain
    /// (e.g. NUMA analyses on a trace without memory accesses).
    MissingData(&'static str),
    /// An analysis parameter is invalid (e.g. zero intervals or an empty time range).
    InvalidParameter(String),
    /// Exporting analysis results failed.
    Io(io::Error),
    /// Reading or decoding the backing trace store failed
    /// ([`crate::store_session::StoreSession`]).
    Trace(aftermath_trace::TraceError),
    /// A salvage-opened store refused a request whose answer would depend on
    /// quarantined rows ([`crate::store_session::StoreSession::with_view`]).
    OutsideCoverage {
        /// Fraction of stored rows that survived quarantine, in `[0, 1]`.
        row_coverage: f64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownCounter(c) => write!(f, "unknown counter {c}"),
            AnalysisError::UnknownCpu(c) => write!(f, "unknown cpu {c}"),
            AnalysisError::UnknownTask(t) => write!(f, "unknown task {t}"),
            AnalysisError::MissingData(what) => {
                write!(f, "trace does not contain the required data: {what}")
            }
            AnalysisError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            AnalysisError::Io(e) => write!(f, "i/o error: {e}"),
            AnalysisError::Trace(e) => write!(f, "trace store error: {e}"),
            AnalysisError::OutsideCoverage { row_coverage } => write!(
                f,
                "trace was salvage-opened ({:.1}% of rows survive) and the request \
                 falls outside the surviving coverage",
                row_coverage * 100.0
            ),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Io(e) => Some(e),
            AnalysisError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AnalysisError {
    fn from(e: io::Error) -> Self {
        AnalysisError::Io(e)
    }
}

impl From<aftermath_trace::TraceError> for AnalysisError {
    fn from(e: aftermath_trace::TraceError) -> Self {
        AnalysisError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(AnalysisError::UnknownCounter(CounterId(3))
            .to_string()
            .contains("ctr3"));
        assert!(AnalysisError::MissingData("memory accesses")
            .to_string()
            .contains("memory accesses"));
        assert!(AnalysisError::InvalidParameter("bins must be > 0".into())
            .to_string()
            .contains("bins"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }
}
