//! Transaction control-flow and error types.

use std::error::Error;
use std::fmt;

/// Signal that the current transaction attempt must restart.
///
/// Returned by every [`Tx`](crate::Tx) operation when the attempt can no
/// longer commit (validation failure, hardware abort, …). Transaction
/// bodies simply propagate it with `?`; the engine's retry loop catches it
/// and re-executes the body. User code cannot construct one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxRestart(pub(crate) ());

impl fmt::Display for TxRestart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transaction attempt must restart")
    }
}

impl Error for TxRestart {}

/// Convenience alias for the result of transactional operations.
pub type TxResult<T> = Result<T, TxRestart>;

pub(crate) const RESTART: TxRestart = TxRestart(());

/// A non-retryable programming error detected inside a transaction.
///
/// Unlike [`TxRestart`] — which the engine handles by transparently
/// re-running the body — a fault means the body itself is wrong and no
/// amount of retrying can commit it. The engine tears the attempt down
/// cleanly (discarding speculation, releasing any protocol locks and
/// fallback announcements) and surfaces the fault from
/// [`Session::run`](crate::Session::run) /
/// [`Session::run_read`](crate::Session::run_read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxFault {
    /// The body issued a write inside a transaction declared
    /// [`TxKind::ReadOnly`](crate::TxKind::ReadOnly). The read-only hint
    /// stands in for the paper's compiler static analysis; a transaction
    /// that writes under it would corrupt the commit protocol, so the
    /// write is refused before it reaches any engine.
    WriteInReadOnly,
}

impl fmt::Display for TxFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxFault::WriteInReadOnly => {
                f.write_str("write inside a transaction declared read-only")
            }
        }
    }
}

impl Error for TxFault {}

/// Error constructing a [`TmRuntime`](crate::TmRuntime) or opening a
/// session on one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TmError {
    /// The HTM device passed to [`TmRuntime::new`](crate::TmRuntime::new)
    /// is not attached to the runtime's heap: hardware and software
    /// transactions would run against different memories.
    HeapMismatch,
    /// Every thread id of the simulated machine already has a live
    /// [`Session`](crate::Session).
    ThreadIdOutOfRange {
        /// The first id past the machine (equal to `max`).
        tid: usize,
        /// Exclusive upper bound (`sim_mem::MAX_THREADS`).
        max: usize,
    },
    /// A configuration builder rejected a nonsensical combination (see
    /// [`TmConfigBuilder::build`](crate::TmConfigBuilder::build)).
    InvalidConfig {
        /// Human-readable rejection reason.
        reason: &'static str,
    },
}

impl fmt::Display for TmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmError::HeapMismatch => {
                f.write_str("the HTM device must be attached to the runtime's heap")
            }
            TmError::ThreadIdOutOfRange { max, .. } => {
                write!(f, "every thread id below MAX_THREADS ({max}) has a live session")
            }
            TmError::InvalidConfig { reason } => {
                write!(f, "invalid TM configuration: {reason}")
            }
        }
    }
}

impl Error for TmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_displays() {
        assert!(RESTART.to_string().contains("restart"));
    }

    #[test]
    fn fault_and_tm_error_display() {
        assert!(TxFault::WriteInReadOnly.to_string().contains("read-only"));
        assert!(TmError::HeapMismatch.to_string().contains("heap"));
        assert!(TmError::ThreadIdOutOfRange { tid: 64, max: 64 }
            .to_string()
            .contains("MAX_THREADS"));
    }
}
