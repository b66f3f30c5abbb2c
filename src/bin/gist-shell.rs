//! `gist-shell` — an interactive shell over a file-backed GiST database.
//!
//! ```sh
//! cargo run --bin gist-shell -- /tmp/demo
//! ```
//!
//! Commands (one per line):
//!
//! ```text
//! create <index>            create a B-tree (i64) index
//! create-unique <index>     create a unique B-tree index
//! drop <index>              drop an index
//! begin                     start a transaction (the shell holds one at a time)
//! commit | abort            finish the current transaction
//! savepoint                 establish a savepoint
//! rollback-sp               roll back to the last savepoint
//! insert <index> <key> <payload...>   insert key -> heap record
//! delete <index> <key>      delete one entry with that key
//! get <index> <key>         point lookup
//! range <index> <lo> <hi>   range scan
//! stats <index>             tree statistics
//! check <index>             run the structural invariant checker
//! vacuum <index>            garbage-collect committed deletes
//! catalog                   list indexes
//! crash                     simulate a crash (then `exit` and reopen)
//! flush                     make log + pages durable; the session goes on
//! help | exit
//! ```
//!
//! The database at `<path>` is opened with `Db::open_path`: restart
//! recovery runs when the path has a log and prints the `recovered: ...`
//! banner. A path whose pages outran its log, whose log is missing, or
//! that another process has open is refused, and the shell exits
//! non-zero. `exit`, `flush` and `crash` write the log for the next
//! session; a killed session writes none.

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistError, GistIndex, IndexOptions};
use gist_repro::txn::SavepointId;
use gist_repro::wal::TxnId;

struct Shell {
    db: Arc<Db>,
    indexes: HashMap<String, Arc<GistIndex<BtreeExt>>>,
    txn: Option<TxnId>,
    savepoints: Vec<SavepointId>,
    crashed: bool,
}

impl Shell {
    fn open(base: &str) -> Result<Shell, GistError> {
        let (db, report) = Db::open_path(base, DbConfig::default())?;
        if let Some(report) = report {
            println!("{report}");
        }
        Ok(Shell {
            db,
            indexes: HashMap::new(),
            txn: None,
            savepoints: Vec::new(),
            crashed: false,
        })
    }

    fn index(&mut self, name: &str) -> Result<Arc<GistIndex<BtreeExt>>, GistError> {
        if let Some(idx) = self.indexes.get(name) {
            return Ok(idx.clone());
        }
        let idx = GistIndex::open(self.db.clone(), name, BtreeExt)?;
        self.indexes.insert(name.to_string(), idx.clone());
        Ok(idx)
    }

    /// The current transaction, starting one implicitly if needed (auto
    /// transactions commit at the end of the statement).
    fn txn(&mut self) -> (TxnId, bool) {
        match self.txn {
            Some(t) => (t, false),
            None => (self.db.begin(), true),
        }
    }

    fn finish_auto(&self, txn: TxnId, auto: bool) -> Result<(), GistError> {
        if auto {
            self.db.commit(txn)?;
        }
        Ok(())
    }

    fn run_line(&mut self, line: &str) -> Result<bool, Box<dyn std::error::Error>> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = parts.first() else { return Ok(true) };
        if self.crashed && cmd != "exit" {
            println!("(crashed — only `exit` works; reopen the shell to recover)");
            return Ok(true);
        }
        match cmd {
            "help" => println!("{}", HELP),
            "exit" | "quit" => {
                if !self.crashed {
                    if let Some(t) = self.txn.take() {
                        println!("(aborting open transaction)");
                        self.db.abort(t)?;
                    }
                    self.db.shutdown()?;
                }
                return Ok(false);
            }
            "create" | "create-unique" => {
                let name = parts.get(1).ok_or("usage: create <index>")?;
                let idx = GistIndex::create(
                    self.db.clone(),
                    name,
                    BtreeExt,
                    IndexOptions { unique: cmd == "create-unique" },
                )?;
                self.indexes.insert(name.to_string(), idx);
                println!("created {name}");
            }
            "drop" => {
                let name = parts.get(1).ok_or("usage: drop <index>")?;
                self.indexes.remove(*name);
                let freed = self.db.drop_index_raw(name)?;
                println!("dropped {name} ({freed} pages freed)");
            }
            "begin" => {
                if self.txn.is_some() {
                    println!("(already in a transaction)");
                } else {
                    self.txn = Some(self.db.begin());
                    println!("begun");
                }
            }
            "commit" => match self.txn.take() {
                Some(t) => {
                    self.db.commit(t)?;
                    self.savepoints.clear();
                    println!("committed");
                }
                None => println!("(no open transaction)"),
            },
            "abort" => match self.txn.take() {
                Some(t) => {
                    self.db.abort(t)?;
                    self.savepoints.clear();
                    println!("aborted");
                }
                None => println!("(no open transaction)"),
            },
            "savepoint" => match self.txn {
                Some(t) => {
                    let sp = self.db.savepoint(t)?;
                    self.savepoints.push(sp);
                    println!("savepoint {:?}", sp);
                }
                None => println!("(begin a transaction first)"),
            },
            "rollback-sp" => match (self.txn, self.savepoints.pop()) {
                (Some(t), Some(sp)) => {
                    self.db.rollback_to_savepoint(t, sp)?;
                    self.savepoints.push(sp); // remains valid
                    println!("rolled back to {:?}", sp);
                }
                _ => println!("(need an open transaction with a savepoint)"),
            },
            "insert" => {
                let name = parts.get(1).ok_or("usage: insert <index> <key> <payload>")?;
                let key: i64 = parts.get(2).ok_or("missing key")?.parse()?;
                let payload = parts.get(3..).unwrap_or(&[]).join(" ");
                let idx = self.index(name)?;
                let rid = self.db.heap().insert(payload.as_bytes())?;
                let (t, auto) = self.txn();
                match idx.insert(t, &key, rid) {
                    Ok(()) => {
                        self.finish_auto(t, auto)?;
                        println!("inserted {key} -> {rid:?}");
                    }
                    Err(e) => {
                        if auto {
                            self.db.abort(t)?;
                        }
                        println!("error: {e}");
                    }
                }
            }
            "delete" => {
                let name = parts.get(1).ok_or("usage: delete <index> <key>")?;
                let key: i64 = parts.get(2).ok_or("missing key")?.parse()?;
                let idx = self.index(name)?;
                let (t, auto) = self.txn();
                let hit = idx.search(t, &I64Query::eq(key))?.into_iter().next();
                match hit {
                    Some((_, rid)) => {
                        idx.delete(t, &key, rid)?;
                        self.finish_auto(t, auto)?;
                        println!("deleted {key}");
                    }
                    None => {
                        self.finish_auto(t, auto)?;
                        println!("(not found)");
                    }
                }
            }
            "get" | "range" => {
                let name = parts.get(1).ok_or("usage: get <index> <key>")?;
                let lo: i64 = parts.get(2).ok_or("missing key")?.parse()?;
                let hi: i64 =
                    if cmd == "range" { parts.get(3).ok_or("missing hi")?.parse()? } else { lo };
                let idx = self.index(name)?;
                let (t, auto) = self.txn();
                let hits = idx.search(t, &I64Query::range(lo, hi))?;
                let rows: Result<Vec<String>, GistError> = hits
                    .iter()
                    .map(|(k, rid)| match self.db.heap().get(*rid)? {
                        Some(b) => Ok(format!("  {k} -> {}", String::from_utf8_lossy(&b))),
                        None => Err(GistError::lost_heap_record(k, *rid)),
                    })
                    .collect();
                match rows {
                    Ok(rows) => {
                        for row in &rows {
                            println!("{row}");
                        }
                        println!("({} rows)", rows.len());
                        self.finish_auto(t, auto)?;
                    }
                    Err(e) => {
                        if auto {
                            self.db.abort(t)?;
                        }
                        println!("error: {e}");
                    }
                }
            }
            "stats" => {
                let name = parts.get(1).ok_or("usage: stats <index>")?;
                let idx = self.index(name)?;
                println!("{:?}", idx.stats()?);
            }
            "check" => {
                let name = parts.get(1).ok_or("usage: check <index>")?;
                let idx = self.index(name)?;
                let report = check_tree(&idx)?;
                if report.ok() {
                    println!("OK: {} nodes, {} entries", report.nodes, report.entries);
                } else {
                    println!("VIOLATIONS: {:#?}", report.violations);
                }
            }
            "vacuum" => {
                let name = parts.get(1).ok_or("usage: vacuum <index>")?;
                let idx = self.index(name)?;
                let (t, auto) = self.txn();
                let rep = idx.vacuum_sync(t)?;
                self.finish_auto(t, auto)?;
                println!("{rep:?}");
            }
            "catalog" => {
                for line in self.db.catalog_summary() {
                    println!("  {line}");
                }
            }
            "robustness" => {
                let s = self.db.robustness_stats();
                println!("  txn retries (run_txn):   {}", s.txn_retries);
                println!("  backoff slept (micros):  {}", s.backoff_micros);
                println!("  panics contained:        {}", s.panics_contained);
                println!("  lock immediate grants:   {}", s.lock_immediate_grants);
                println!("  lock waits:              {}", s.lock_waits);
                println!("  lock deadlocks:          {}", s.lock_deadlocks);
                println!("  lock timeouts:           {}", s.lock_timeouts);
                match s.pool_poison_reason {
                    Some(reason) => println!("  pool POISONED:           {reason}"),
                    None => println!("  pool poisoned:           no"),
                }
                let pipe = self.db.txns().pipeline().stats();
                println!("  wal device syncs:        {}", s.wal_batches_flushed);
                let per_sync = match pipe.batches_flushed {
                    0 => 0.0,
                    n => pipe.commits_flushed as f64 / n as f64,
                };
                println!("  commits per sync:        {per_sync:.2}");
                println!("  commit wait p50 (us):    {}", s.commit_wait_p50_us);
                println!("  commit wait p99 (us):    {}", s.commit_wait_p99_us);
                println!(
                    "  wal lsn lag (append-durable): {}",
                    s.wal_append_lsn.saturating_sub(s.wal_durable_lsn)
                );
                println!("  opt-read node hits:      {}", s.opt_read_hits);
                println!("  opt-read retries:        {}", s.opt_read_retries);
                println!("  opt-read fallbacks:      {}", s.opt_read_fallbacks);
                println!("  epoch lag:               {}", s.epoch_lag);
                println!("  epoch pending frees:     {}", s.epoch_pending);
            }
            "health" => {
                let s = self.db.robustness_stats();
                let health = &s.health;
                println!("  state: {}", health.label());
                for reason in health.reasons() {
                    println!("    - {reason}");
                }
                // Surface the counters driving the verdict next to it:
                // credit occupancy (degrades at 100%).
                let occupancy = match (s.admission.in_flight * 100).checked_div(s.admission.capacity)
                {
                    None => "unlimited credits".to_string(),
                    Some(pct) => format!("{pct}% of {} credits", s.admission.capacity),
                };
                println!(
                    "  admission:      {} in flight ({occupancy}), {} parked, {} shed, {} forced",
                    s.admission.in_flight, s.admission.parked, s.admission.shed, s.admission.forced
                );
                println!("  retry budget:   {} exhausted", s.retries_exhausted);
                println!("  epoch bin:      {} page frees pending", s.epoch_pending);
            }
            "crash" => {
                self.txn = None;
                self.db.crash();
                self.crashed = true;
                println!("crashed (durable prefix persisted); exit and reopen to recover");
            }
            "flush" => {
                self.db.flush()?;
                println!("flushed");
            }
            other => println!("unknown command {other:?} (try `help`)"),
        }
        Ok(true)
    }
}

const HELP: &str = "\
create <i> | create-unique <i> | drop <i>
begin | commit | abort | savepoint | rollback-sp
insert <i> <key> <payload> | delete <i> <key>
get <i> <key> | range <i> <lo> <hi>
stats <i> | check <i> | vacuum <i> | catalog | robustness | health
crash | flush | exit";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::args().nth(1).unwrap_or_else(|| "/tmp/gist-shell-db".to_string());
    println!("gist-shell over {base}  (`help` for commands)");
    let mut shell = Shell::open(&base).unwrap_or_else(|e| {
        eprintln!("gist-shell: {e}");
        std::process::exit(1);
    });
    let stdin = std::io::stdin();
    loop {
        print!("gist> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            shell.run_line("exit")?;
            break;
        }
        match shell.run_line(line.trim()) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
