//! Error type of the multi-load schedulers.

use dlt_core::DltError;

/// Everything that can go wrong when scheduling a batch of loads.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiLoadError {
    /// The batch contained no loads.
    EmptyBatch,
    /// A load's size was not finite and positive.
    InvalidSize {
        /// The offending value.
        value: f64,
    },
    /// A load's release time was negative or not finite.
    InvalidRelease {
        /// The offending value.
        value: f64,
    },
    /// A chunk count of zero was requested.
    ZeroChunks,
    /// An installment count of zero was requested.
    ZeroInstallments,
    /// A stretch-denominator slice (`ScheduleOptions::alone`, or the
    /// round-robin `alone` argument) does not match the batch length.
    AloneLengthMismatch {
        /// Number of loads in the batch.
        loads: usize,
        /// Length of the alone-makespan slice supplied.
        alone: usize,
    },
    /// An admission-window (batch) size of zero was requested.
    ZeroBatch,
    /// A service configuration was internally inconsistent (e.g. an
    /// adaptive installment range with `min > max`, or a weighted-stretch
    /// order with stretch tracking disabled).
    InvalidServiceConfig {
        /// What is wrong with the configuration.
        reason: &'static str,
    },
    /// A streamed arrival trace was not sorted by non-decreasing release
    /// time — the service engine admits strictly in stream order.
    UnsortedArrivals {
        /// Zero-based position of the first out-of-order arrival.
        index: u64,
    },
    /// A failure trace was malformed (unsorted, non-finite time, factor
    /// below 1, worker index out of range, or compounded slow-downs that
    /// degrade a worker out of the representable speed range).
    InvalidFailureTrace {
        /// Zero-based position of the offending event.
        index: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// Every worker dropped out while data was still unserved — the
    /// degraded platform is empty and the schedule cannot complete.
    AllWorkersFailed {
        /// Instant the engine needed a worker and found none.
        at: f64,
    },
    /// The underlying single-load solver failed.
    Solver(DltError),
}

impl std::fmt::Display for MultiLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyBatch => write!(f, "the load batch is empty"),
            Self::InvalidSize { value } => {
                write!(f, "load size must be finite and > 0, got {value}")
            }
            Self::InvalidRelease { value } => {
                write!(f, "release time must be finite and >= 0, got {value}")
            }
            Self::ZeroChunks => write!(f, "chunks_per_load must be >= 1"),
            Self::ZeroInstallments => write!(f, "installments must be >= 1"),
            Self::AloneLengthMismatch { loads, alone } => write!(
                f,
                "need one alone-makespan per load: batch has {loads}, slice has {alone}"
            ),
            Self::ZeroBatch => write!(f, "admission window (batch) must be >= 1"),
            Self::InvalidServiceConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
            Self::UnsortedArrivals { index } => write!(
                f,
                "arrival trace must be sorted by release time: arrival {index} is out of order"
            ),
            Self::InvalidFailureTrace { index, reason } => {
                write!(f, "invalid failure trace: event {index}: {reason}")
            }
            Self::AllWorkersFailed { at } => {
                write!(f, "all workers failed by t = {at} with data still unserved")
            }
            Self::Solver(e) => write!(f, "single-load solver failed: {e}"),
        }
    }
}

impl std::error::Error for MultiLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DltError> for MultiLoadError {
    fn from(e: DltError) -> Self {
        Self::Solver(e)
    }
}
