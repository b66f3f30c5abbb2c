//! Error type for GiST operations.

use std::fmt;
use std::io;

use gist_lockmgr::LockError;
use gist_pagestore::Rid;
use gist_txn::TxnError;
use gist_wal::TxnId;

/// Errors surfaced by index operations.
#[derive(Debug)]
pub enum GistError {
    /// Page store / buffer pool I/O failure.
    Io(io::Error),
    /// Lock request failed (deadlock victim or timeout). The caller
    /// should abort the transaction and may retry it.
    Lock(LockError),
    /// Transaction-manager error.
    Txn(TxnError),
    /// §8: the inserted key already exists in a unique index. The
    /// duplicate's data record is S-locked, making the error repeatable
    /// under Degree 3.
    UniqueViolation,
    /// Delete target not found.
    NotFound,
    /// Log or page content failed to decode (corruption).
    Corrupt(String),
    /// Restart recovery failed.
    Recovery(String),
    /// Invalid configuration or usage.
    Config(String),
    /// The storage layer suffered a persistent (non-transient) write or
    /// sync failure and the buffer pool has degraded to read-only.
    /// Reads of cached and intact pages still work; every mutation is
    /// refused with this error until the database is restarted against
    /// healthy storage.
    StorageFailed(String),
    /// A chaos crash point injected this failure.
    /// Deliberately *not* retryable: the harness decides what happens
    /// next, not the retry loop.
    Injected(&'static str),
    /// An operation panicked and was contained by the `Db`-level
    /// `catch_unwind` wrapper; the transaction was aborted. Carries the
    /// panic payload's message.
    Panicked(String),
    /// The admission controller shed this transaction: the in-flight
    /// credit pool stayed exhausted past the admission deadline. No
    /// transaction was started and no state changed — backing off and
    /// retrying (as [`Db::run_txn`](crate::Db::run_txn) does) is always
    /// safe.
    Overloaded,
    /// A transaction the engine was to end is still open, with its locks
    /// held, because the `abort` that should have ended it failed
    /// (`cause` is the abort's error). [`Db::run_txn`](crate::Db::run_txn)
    /// returns it when the abort after a failed operation or a failed
    /// commit fails (a commit whose record is in the log but whose sync
    /// failed is completed by that abort), and
    /// [`Db::contained`](crate::Db::contained) when the abort after a
    /// contained panic fails. Abort `txn` again to end it: a rollback
    /// finishes, a logged commit is completed.
    TxnUnfinished {
        /// The transaction left open.
        txn: TxnId,
        /// Why the abort failed.
        cause: Box<GistError>,
    },
}

impl GistError {
    /// A row whose index entry names a heap record that is gone. The heap
    /// file is unlogged, so a crash can lose a committed row's record
    /// while restart recovers its index entry.
    pub fn lost_heap_record(key: impl fmt::Display, rid: Rid) -> GistError {
        GistError::Corrupt(format!(
            "key {key} points at heap record {rid:?}, which is missing \
             (the heap file is unlogged, so a crash can lose it)"
        ))
    }
}

impl fmt::Display for GistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GistError::Io(e) => write!(f, "io error: {e}"),
            GistError::Lock(e) => write!(f, "{e}"),
            GistError::Txn(e) => write!(f, "{e}"),
            GistError::UniqueViolation => write!(f, "unique constraint violated"),
            GistError::NotFound => write!(f, "key/RID pair not found"),
            GistError::Corrupt(s) => write!(f, "corruption: {s}"),
            GistError::Recovery(s) => write!(f, "recovery error: {s}"),
            GistError::Config(s) => write!(f, "configuration error: {s}"),
            GistError::StorageFailed(s) => {
                write!(f, "storage failed, database is read-only: {s}")
            }
            GistError::Injected(p) => write!(f, "chaos injection at crash point {p:?}"),
            GistError::Panicked(msg) => {
                write!(f, "operation panicked (transaction aborted): {msg}")
            }
            GistError::Overloaded => {
                write!(f, "admission shed: too many transactions in flight")
            }
            GistError::TxnUnfinished { txn, cause } => {
                write!(f, "{txn} is unfinished, its abort failed ({cause}); abort it to end it")
            }
        }
    }
}

impl std::error::Error for GistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GistError::Io(e) => Some(e),
            GistError::Lock(e) => Some(e),
            GistError::Txn(e) => Some(e),
            GistError::TxnUnfinished { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for GistError {
    fn from(e: io::Error) -> Self {
        // The buffer pool marks its poisoned-state refusals with a typed
        // payload; surface those as the dedicated read-only error so
        // callers can tell "this request failed" from "the database has
        // degraded".
        if gist_pagestore::is_storage_poisoned(&e) {
            return GistError::StorageFailed(e.to_string());
        }
        GistError::Io(e)
    }
}

impl From<LockError> for GistError {
    fn from(e: LockError) -> Self {
        GistError::Lock(e)
    }
}

impl From<gist_chaos::Injected> for GistError {
    fn from(e: gist_chaos::Injected) -> Self {
        GistError::Injected(e.0)
    }
}

impl From<TxnError> for GistError {
    fn from(e: TxnError) -> Self {
        GistError::Txn(e)
    }
}

impl GistError {
    /// Whether this error means "abort and retry the transaction":
    /// deadlock victims (per §8's resolution of unique-insert races),
    /// lock timeouts (documented as a deadlock-detector safety net, so
    /// they get the same treatment), and admission sheds.
    /// [`Db::run_txn`](crate::Db::run_txn) automates the abort-and-retry
    /// loop for exactly this set.
    pub fn is_retryable(&self) -> bool {
        match self {
            GistError::Lock(e) | GistError::Txn(TxnError::Lock(e)) => {
                matches!(e, LockError::Deadlock | LockError::Timeout)
            }
            // A shed admission never started a transaction, so a backed-
            // off retry is trivially safe — that is the whole shed path.
            GistError::Overloaded => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        use gist_wal::TxnId;
        assert!(GistError::Lock(LockError::Deadlock).is_retryable());
        assert!(GistError::Txn(TxnError::Lock(LockError::Deadlock)).is_retryable());
        // Timeouts are the deadlock detector's safety net: same verdict.
        assert!(GistError::Lock(LockError::Timeout).is_retryable());
        assert!(GistError::Txn(TxnError::Lock(LockError::Timeout)).is_retryable());
        // A shed admission started nothing; retry through the backoff.
        assert!(GistError::Overloaded.is_retryable());
        // Poisoned and injected failures must reach the caller as-is.
        assert!(!GistError::Txn(TxnError::MustAbort(TxnId(7))).is_retryable());
        assert!(!GistError::Injected("delete.after_mark").is_retryable());
        assert!(!GistError::Panicked("boom".into()).is_retryable());
        assert!(!GistError::UniqueViolation.is_retryable());
        assert!(!GistError::NotFound.is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = GistError::Corrupt("bad cell".into());
        assert!(e.to_string().contains("bad cell"));
    }

    #[test]
    fn poisoned_io_errors_map_to_storage_failed() {
        let plain = io::Error::new(io::ErrorKind::BrokenPipe, "disk gone");
        assert!(matches!(GistError::from(plain), GistError::Io(_)));
        let poisoned = io::Error::other(gist_pagestore::StoragePoisoned {
            reason: "write of page 3 failed".into(),
        });
        let mapped = GistError::from(poisoned);
        assert!(matches!(mapped, GistError::StorageFailed(_)), "{mapped}");
        assert!(mapped.to_string().contains("read-only"));
        assert!(!mapped.is_retryable());
    }
}
