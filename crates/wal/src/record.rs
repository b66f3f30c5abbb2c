use crate::{Lsn, TxnId};

/// Resource-manager-specific log payload.
///
/// The WAL layer treats index content as opaque bytes; the GiST layer
/// encodes its Table 1 record set (`Split`, `Parent-Entry-Update`,
/// `Add-Leaf-Entry`, …) into `bytes` and registers a `RecoveryHandler`
/// (see [`crate::recovery`]) that interprets them during redo and undo.
///
/// `pages` lists every page the record touches, so the analysis pass can
/// build a dirty-page table without understanding the payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Payload {
    /// Raw page numbers touched by this record (for analysis).
    pub pages: Vec<u32>,
    /// Opaque, resource-manager-encoded record body.
    pub bytes: Vec<u8>,
}

impl Payload {
    /// Payload touching the given pages with the given encoded body.
    pub fn new(pages: Vec<u32>, bytes: Vec<u8>) -> Self {
        Payload { pages, bytes }
    }
}

/// The body of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// Transaction start.
    TxnBegin,
    /// Transaction commit (forces the log).
    TxnCommit,
    /// Transaction fully finished (committed or rolled back).
    TxnEnd,
    /// Compensation log record: describes (redo-only) an undo that was
    /// performed, and points the rollback past the undone record.
    Clr {
        /// Next record to undo (skips the compensated one).
        undo_next: Lsn,
        /// Page-oriented redo description of the performed undo.
        redo: Payload,
    },
    /// Dummy CLR closing a nested top action (§9.1): rollback jumps to
    /// `undo_next`, skipping every record of the atomic unit of work.
    NtaEnd {
        /// The transaction's last LSN before the unit began.
        undo_next: Lsn,
    },
    /// Fuzzy checkpoint (§ ARIES-style): taken without quiescing the
    /// system. Restart analysis seeds its transaction and dirty-page
    /// tables from the latest checkpoint and scans forward from
    /// `scan_start` instead of the log start.
    Checkpoint {
        /// Last LSN appended before the checkpoint began capturing its
        /// tables; analysis resumes its forward scan here. Any record
        /// after `scan_start` is re-observed by the scan, so tables the
        /// checkpoint captured slightly stale are repaired.
        scan_start: Lsn,
        /// Active transactions and their last LSNs at checkpoint time.
        active_txns: Vec<(TxnId, Lsn)>,
        /// Dirty-page table: `(page, recLSN)` — the first LSN that may
        /// have dirtied each page since it was last written back. Redo
        /// starts at the minimum recLSN.
        dirty_pages: Vec<(u32, Lsn)>,
    },
    /// Resource-manager content record (redo/undo via handler).
    Payload(Payload),
    /// A record with no effect: no redo, no undo (the end-to-end
    /// benchmark's append probe writes these).
    Noop,
}

impl RecordBody {
    /// Whether rollback must invoke the resource-manager undo for this
    /// record. Only content records are undone; CLRs and NTA terminators
    /// only redirect the chain.
    pub fn is_undoable(&self) -> bool {
        matches!(self, RecordBody::Payload(_))
    }
}

/// A log record as stored by the log manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's LSN (assigned at append).
    pub lsn: Lsn,
    /// Backchain: previous record of the same transaction, or
    /// [`Lsn::NULL`].
    pub prev_lsn: Lsn,
    /// Owning transaction, or [`TxnId::NONE`].
    pub txn: TxnId,
    /// The record body.
    pub body: RecordBody,
}

impl LogRecord {
    /// The next record to examine when rolling back past this one.
    ///
    /// CLRs and NTA terminators redirect via their `undo_next`; everything
    /// else follows the plain backchain.
    pub fn undo_next(&self) -> Lsn {
        match &self.body {
            RecordBody::Clr { undo_next, .. } => *undo_next,
            RecordBody::NtaEnd { undo_next } => *undo_next,
            _ => self.prev_lsn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(body: RecordBody) -> LogRecord {
        LogRecord { lsn: Lsn(10), prev_lsn: Lsn(5), txn: TxnId(1), body }
    }

    #[test]
    fn undo_next_follows_backchain_for_content() {
        assert_eq!(rec(RecordBody::Payload(Payload::default())).undo_next(), Lsn(5));
        assert_eq!(rec(RecordBody::TxnBegin).undo_next(), Lsn(5));
    }

    #[test]
    fn undo_next_redirects_for_clr_and_nta() {
        let clr = rec(RecordBody::Clr { undo_next: Lsn(2), redo: Payload::default() });
        assert_eq!(clr.undo_next(), Lsn(2));
        let nta = rec(RecordBody::NtaEnd { undo_next: Lsn(3) });
        assert_eq!(nta.undo_next(), Lsn(3));
    }

    #[test]
    fn only_payload_records_are_undoable() {
        assert!(rec(RecordBody::Payload(Payload::default())).body.is_undoable());
        assert!(!rec(RecordBody::TxnBegin).body.is_undoable());
        assert!(!rec(RecordBody::NtaEnd { undo_next: Lsn::NULL }).body.is_undoable());
        assert!(!rec(RecordBody::Clr { undo_next: Lsn::NULL, redo: Payload::default() })
            .body
            .is_undoable());
    }
}
