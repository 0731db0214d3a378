//! Error types for the simulated cluster.

use std::fmt;

use crate::partition::PartitionScheme;
use dmac_matrix::MatrixError;

/// Errors from distributed matrix operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A local kernel failed (dimension mismatch etc.).
    Matrix(MatrixError),
    /// An operation required a scheme the matrix does not have.
    SchemeMismatch {
        /// What the operation needed.
        expected: PartitionScheme,
        /// What the matrix actually has.
        actual: PartitionScheme,
        /// Which operation complained.
        op: &'static str,
    },
    /// Two distributed matrices live on clusters of different sizes.
    WorkerCountMismatch(usize, usize),
    /// The addressed worker is marked failed (failure injection).
    WorkerLost(usize),
    /// Block grids are incompatible (different block sizes).
    BlockGridMismatch {
        /// Left block size.
        left: usize,
        /// Right block size.
        right: usize,
    },
    /// A communication step kept failing transiently and exhausted its
    /// attempt budget.
    SendFailed {
        /// Label of the communication step.
        label: String,
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// Every host is failed or decommissioned: nothing left to reassign
    /// work to.
    NoSurvivors,
    /// The physical transport backend diverged from the simulator oracle:
    /// payload bytes, shard checksums, or partial sets did not match.
    /// Non-recoverable by design — a conformance breach is a bug, not a
    /// fault.
    TransportConformance {
        /// The primitive that was being mirrored.
        op: &'static str,
        /// What diverged.
        detail: String,
    },
    /// A wire-protocol violation talking to a worker process (malformed
    /// frame, unexpected reply, handshake failure, I/O error).
    Protocol(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Matrix(e) => write!(f, "local kernel error: {e}"),
            ClusterError::SchemeMismatch {
                expected,
                actual,
                op,
            } => write!(
                f,
                "{op} requires scheme {expected} but matrix is partitioned {actual}"
            ),
            ClusterError::WorkerCountMismatch(a, b) => {
                write!(f, "operands distributed over {a} vs {b} workers")
            }
            ClusterError::WorkerLost(w) => write!(f, "worker {w} is down"),
            ClusterError::BlockGridMismatch { left, right } => {
                write!(f, "block size mismatch: {left} vs {right}")
            }
            ClusterError::SendFailed { label, attempts } => {
                write!(f, "send '{label}' failed after {attempts} attempts")
            }
            ClusterError::NoSurvivors => {
                write!(f, "no surviving hosts to reassign work to")
            }
            ClusterError::TransportConformance { op, detail } => {
                write!(
                    f,
                    "transport diverged from simulator oracle in {op}: {detail}"
                )
            }
            ClusterError::Protocol(msg) => write!(f, "transport protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatrixError> for ClusterError {
    fn from(e: MatrixError) -> Self {
        ClusterError::Matrix(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClusterError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ClusterError::SchemeMismatch {
            expected: PartitionScheme::Row,
            actual: PartitionScheme::Col,
            op: "rmm2",
        };
        assert!(e.to_string().contains("rmm2"));
        let m: ClusterError = MatrixError::InvalidBlockSize(0).into();
        assert!(std::error::Error::source(&m).is_some());
        assert!(ClusterError::WorkerLost(3).to_string().contains("worker 3"));
    }
}
