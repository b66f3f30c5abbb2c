//! Restart recovery: analysis, page-oriented redo, and undo with logical
//! undo delegated to the resource manager (§9.2 of the paper).

use std::collections::HashMap;
use std::fmt;

use crate::{LogManager, LogRecord, Lsn, Payload, RecordBody, TxnId};

/// Error surfaced by a [`RecoveryHandler`] or the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError(pub String);

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recovery error: {}", self.0)
    }
}

impl std::error::Error for RecoveryError {}

/// Resource-manager callbacks used by the restart driver and by live
/// transaction rollback.
///
/// The GiST layer implements this for its Table 1 record set.
pub trait RecoveryHandler {
    /// Page-oriented redo of a content payload (or of a CLR's redo
    /// payload). Must be idempotent: implementations compare the page LSN
    /// against `lsn` and skip already-applied updates. Returns whether the
    /// update was (re)applied.
    fn redo(&self, lsn: Lsn, payload: &Payload) -> Result<bool, RecoveryError>;

    /// Undo one content record during rollback.
    ///
    /// `restart` distinguishes restart undo from live rollback: per §9.2,
    /// restart undo must not trigger structure modifications (no garbage
    /// collection, no BP shrinking, no node deletion), because unfinished
    /// structure modifications may still be present and unlatched.
    ///
    /// The handler must call `log_clr` with the page-oriented redo
    /// description of the compensation *before* touching any page, and
    /// stamp the modified pages with the returned CLR LSN. This is the
    /// ARIES discipline that makes undo idempotent: a page flushed with
    /// the CLR's LSN implies (by the WAL rule) the CLR is durable, so a
    /// post-crash redo of the CLR skips the page, and an unflushed page
    /// is simply re-compensated. Handlers with no page effects may skip
    /// the call; the driver then writes an empty CLR.
    fn undo(
        &self,
        rec: &LogRecord,
        payload: &Payload,
        restart: bool,
        log_clr: &mut dyn FnMut(Payload) -> Lsn,
    ) -> Result<(), RecoveryError>;
}

/// Why a rollback is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackKind {
    /// Live rollback, a transaction abort or a partial rollback to a
    /// savepoint (§10.2): logical undo may perform structure
    /// modifications (e.g. immediate garbage collection, Table 1
    /// Add-Leaf-Entry undo).
    Live,
    /// Restart undo after a crash: structure modifications forbidden.
    Restart,
}

/// Roll back `txn`'s backchain starting at `last_lsn`, stopping once the
/// chain passes `stop_after` (use [`Lsn::NULL`] for a complete rollback,
/// or a savepoint LSN for partial rollback — records with LSN ≤
/// `stop_after` survive).
///
/// Writes one CLR per undone content record. Returns the transaction's new
/// last LSN.
pub fn rollback(
    log: &LogManager,
    handler: &dyn RecoveryHandler,
    txn: TxnId,
    last_lsn: Lsn,
    stop_after: Lsn,
    kind: RollbackKind,
) -> Result<Lsn, RecoveryError> {
    let mut cur = last_lsn;
    let mut chain_end = last_lsn;
    while !cur.is_null() && cur > stop_after {
        let Some(rec) = log.try_get(cur) else {
            // A backchain pointer past the end of the log: the chain is
            // corrupt. Surfaced as an error rather than a panic so a
            // damaged log degrades the restart, not the process.
            return Err(RecoveryError(format!(
                "rollback of {txn:?}: backchain lsn {cur} beyond end of log"
            )));
        };
        debug_assert_eq!(rec.txn, txn, "backchain crossed transactions");
        if let RecordBody::Payload(p) = &rec.body {
            let mut clr_lsn: Option<Lsn> = None;
            {
                let mut log_clr = |redo: Payload| {
                    let l = log.append(
                        txn,
                        chain_end,
                        RecordBody::Clr { undo_next: rec.prev_lsn, redo },
                    );
                    clr_lsn = Some(l);
                    l
                };
                handler.undo(&rec, p, kind == RollbackKind::Restart, &mut log_clr)?;
            }
            // A handler with no page effects gets an empty CLR so the
            // chain still skips this record on a re-rollback.
            chain_end = clr_lsn.unwrap_or_else(|| {
                log.append(
                    txn,
                    chain_end,
                    RecordBody::Clr { undo_next: rec.prev_lsn, redo: Payload::default() },
                )
            });
            cur = rec.prev_lsn;
        } else {
            cur = rec.undo_next();
        }
    }
    Ok(chain_end)
}

/// Transaction status as seen by the analysis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// In flight at the crash: a loser, to be undone.
    Active,
    /// Commit record found but no end record: a winner, just needs its end
    /// record written.
    Committed,
}

/// Output of the analysis pass.
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    /// Transactions without a `TxnEnd` record, with their last LSN.
    pub txn_table: HashMap<TxnId, (Lsn, TxnStatus)>,
    /// Dirty-page table: checkpoint-recorded entries merged with pages
    /// referenced by payload records since the scan start, each with the
    /// smallest LSN that may have dirtied it.
    pub dirty_pages: HashMap<u32, Lsn>,
    /// Where the forward scan started (the last checkpoint's
    /// `scan_start`, or log start).
    pub start_lsn: Lsn,
}

/// Analysis pass: reconstruct the transaction table and dirty-page table
/// from the durable log.
///
/// Seeds both tables from the most recent fuzzy checkpoint and scans
/// forward from its `scan_start` — everything earlier is already
/// reflected in the checkpointed tables (the checkpoint captured them
/// *after* reading `scan_start` off the log tail, so any record the
/// capture missed has an LSN > `scan_start` and is re-observed here).
pub fn analysis(log: &LogManager) -> AnalysisResult {
    let mut res = AnalysisResult::default();
    let start = match log.last_checkpoint() {
        Some(cp_lsn) => {
            if let RecordBody::Checkpoint { scan_start, active_txns, dirty_pages } =
                log.get(cp_lsn).body
            {
                for (t, l) in active_txns {
                    res.txn_table.insert(t, (l, TxnStatus::Active));
                }
                for (p, l) in dirty_pages {
                    res.dirty_pages.insert(p, l);
                }
                scan_start.max(Lsn(1))
            } else {
                Lsn(1)
            }
        }
        None => Lsn(1),
    };
    res.start_lsn = start;
    for rec in log.scan_from(start) {
        if !rec.txn.is_none() {
            #[deny(clippy::wildcard_enum_match_arm)]
            match rec.body {
                RecordBody::TxnEnd => {
                    res.txn_table.remove(&rec.txn);
                }
                RecordBody::TxnCommit => {
                    res.txn_table.insert(rec.txn, (rec.lsn, TxnStatus::Committed));
                }
                // Every other record only advances the transaction's last
                // LSN. Named exhaustively (no wildcard, denied above) so
                // that a new record kind forces a decision about its
                // analysis treatment.
                RecordBody::TxnBegin
                | RecordBody::NtaEnd { .. }
                | RecordBody::Clr { .. }
                | RecordBody::Checkpoint { .. }
                | RecordBody::Noop
                | RecordBody::Payload(_) => {
                    let status = res
                        .txn_table
                        .get(&rec.txn)
                        .map(|(_, s)| *s)
                        .unwrap_or(TxnStatus::Active);
                    res.txn_table.insert(rec.txn, (rec.lsn, status));
                }
            }
        }
        let payload = match &rec.body {
            RecordBody::Payload(p) => Some(p),
            RecordBody::Clr { redo, .. } => Some(redo),
            _ => None,
        };
        if let Some(p) = payload {
            for pg in &p.pages {
                res.dirty_pages
                    .entry(*pg)
                    .and_modify(|e| *e = (*e).min(rec.lsn))
                    .or_insert(rec.lsn);
            }
        }
    }
    res
}

/// Summary of a completed restart.
#[derive(Debug, Clone, Default)]
pub struct RestartOutcome {
    /// Loser transactions that were rolled back.
    pub losers: Vec<TxnId>,
    /// Winners that were missing only their end record.
    pub completed_winners: Vec<TxnId>,
    /// Payload/CLR records examined by the redo pass.
    pub redo_considered: usize,
    /// Records whose effects were actually re-applied (page LSN check
    /// failed open).
    pub redo_applied: usize,
    /// CLRs written by the undo pass.
    pub clrs_written: usize,
    /// Where the redo pass started: the minimum recLSN over the merged
    /// dirty-page table (log start when no checkpoint bounds it).
    pub redo_start: Lsn,
}

/// Full ARIES-style restart: analysis, redo-all (with page-LSN
/// idempotence in the handler), then undo of losers with logical undo and
/// no structure modifications (§9.2).
///
/// `floor` caps where the redo pass starts. Used by torn-page repair — a
/// quarantined (zeroed) page has page LSN 0 and its content exists only
/// in the log, so redo must repeat history from the log start
/// (`floor = Lsn(1)`) regardless of what the dirty-page table claims.
/// Page-LSN idempotence makes the wider scan safe for every healthy page;
/// `Lsn(u64::MAX)` leaves the start to the dirty-page table.
///
/// The end records restart writes are appended unforced and the log is
/// synced once, after the undo pass; on return the whole log is durable.
/// The caller is responsible for flushing data pages (or leaving them to
/// the buffer pool).
pub fn restart_with_floor(
    log: &LogManager,
    handler: &dyn RecoveryHandler,
    floor: Lsn,
) -> Result<RestartOutcome, RecoveryError> {
    // Restart owns the log now: lift the fence its crash put up, so redo's
    // write-backs and the sync below can make records durable.
    log.reopen();
    let analysis_res = analysis(log);
    let mut outcome = RestartOutcome::default();

    // Redo pass: repeat history from the smallest recLSN in the merged
    // dirty-page table. Any page missing from that table was written back
    // clean before the crash, so its page LSN already covers every earlier
    // record; the handler's page-LSN check keeps the pass idempotent
    // either way.
    let redo_start = analysis_res
        .dirty_pages
        .values()
        .copied()
        .min()
        .unwrap_or(analysis_res.start_lsn)
        .min(floor)
        .max(Lsn(1));
    outcome.redo_start = redo_start;
    for rec in log.scan_from(redo_start) {
        let payload = match &rec.body {
            RecordBody::Payload(p) => Some(p),
            RecordBody::Clr { redo, .. } => Some(redo),
            _ => None,
        };
        if let Some(p) = payload {
            outcome.redo_considered += 1;
            if handler.redo(rec.lsn, p)? {
                outcome.redo_applied += 1;
            }
        }
    }

    // Undo pass: roll back losers; finish winners that lack an end record.
    // The end records are what keep a resolved transaction from being
    // resolved again: transaction ids restart at 1 in every incarnation,
    // so a later incarnation's transaction with the same id would
    // otherwise inherit this one's backchain at the next restart.
    let mut losers: Vec<(TxnId, Lsn)> = Vec::new();
    for (txn, (last, status)) in &analysis_res.txn_table {
        match status {
            TxnStatus::Committed => {
                log.append(*txn, *last, RecordBody::TxnEnd);
                outcome.completed_winners.push(*txn);
            }
            TxnStatus::Active => losers.push((*txn, *last)),
        }
    }
    // Deterministic order (oldest first) for reproducible tests.
    losers.sort_by_key(|(t, _)| *t);
    for (txn, last) in losers {
        let before = log.len();
        let chain_end = rollback(log, handler, txn, last, Lsn::NULL, RollbackKind::Restart)?;
        outcome.clrs_written += log.len() - before;
        log.append(txn, chain_end, RecordBody::TxnEnd);
        outcome.losers.push(txn);
    }
    // One sync for every CLR and end record above. A crash before it
    // loses them all, and the next restart simply redoes this one.
    log.sync_to(Lsn::MAX).map_err(|e| RecoveryError(format!("restart's final sync: {e:?}")))?;
    Ok(outcome)
}
