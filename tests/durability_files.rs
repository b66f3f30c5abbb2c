//! File-backed durability: the same crash/restart protocol exercised
//! through `FileStore` pages and a WAL persisted/reloaded via the byte
//! codec — closing the loop between the in-memory durability model and
//! real files. The second half drives the shipped `gist-shell` binary
//! across real process exits and SIGKILLs against `Db::open_path`'s
//! rules: which reopens recover and which are refused.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Output, Stdio};
use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{FileStore, PageId, Rid};
use gist_repro::wal::LogManager;

fn rid(n: u64) -> Rid {
    Rid::new(PageId(640_000), n as u16)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gist-durability-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_db_survives_process_cycle() {
    let dir = temp_dir("cycle");
    let pages = dir.join("pages.db");
    let wal = dir.join("wal.log");

    // "Process 1": create, commit, clean shutdown, persist the WAL.
    {
        let store = Arc::new(FileStore::open(&pages).unwrap());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store, log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..500i64 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        db.shutdown().unwrap();
        log.persist_file(&wal).unwrap();
    }

    // "Process 2": reopen everything from disk.
    {
        let store = Arc::new(FileStore::open(&pages).unwrap());
        let log = Arc::new(LogManager::load_file(&wal).unwrap());
        let db = Db::open(store, log, DbConfig::default()).unwrap();
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        let txn = db.begin();
        assert_eq!(idx.search(txn, &I64Query::range(0, 1000)).unwrap().len(), 500);
        db.commit(txn).unwrap();
        check_tree(&idx).unwrap().assert_ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_crash_restart_with_loser() {
    let dir = temp_dir("crash");
    let pages = dir.join("pages.db");
    let wal = dir.join("wal.log");

    {
        let store = Arc::new(FileStore::open(&pages).unwrap());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store, log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..300i64 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let loser = db.begin();
        for k in 300..400i64 {
            idx.insert(loser, &k, rid(k as u64)).unwrap();
        }
        // Force the log (loser records durable), flush SOME pages (steal),
        // then "crash" without shutdown: only persist the durable WAL.
        db.log().flush_all();
        db.pool().flush_all().unwrap();
        log.persist_file(&wal).unwrap();
        // No shutdown; pool state dropped with scope.
    }

    {
        let store = Arc::new(FileStore::open(&pages).unwrap());
        let log = Arc::new(LogManager::load_file(&wal).unwrap());
        let (db, report) = Db::restart(store, log, DbConfig::default()).unwrap();
        assert_eq!(report.outcome.losers.len(), 1, "the in-flight txn rolled back");
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        let txn = db.begin();
        let keys = idx.search(txn, &I64Query::range(0, 10_000)).unwrap();
        assert_eq!(keys.len(), 300, "committed only");
        db.commit(txn).unwrap();
        check_tree(&idx).unwrap().assert_ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- process tests: the shipped `gist-shell` ----

/// Start `gist-shell` on `base` with piped stdio.
/// A log file in the format before this one (magic `GISTWAL1`, which
/// still carried abort and savepoint records) is refused by name: the
/// error names the log file, and the file is left as it was.
#[test]
fn open_path_refuses_a_previous_format_log_by_name() {
    let dir = temp_dir("old-magic");
    let base = dir.join("db");
    {
        let (db, _) = Db::open_path(&base, DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        idx.insert(txn, &1, rid(1)).unwrap();
        db.commit(txn).unwrap();
        db.shutdown().unwrap();
    }
    let wal = dir.join("db.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    assert_eq!(&bytes[..8], b"GISTWAL2");
    bytes[..8].copy_from_slice(b"GISTWAL1");
    std::fs::write(&wal, &bytes).unwrap();

    let Err(err) = Db::open_path(&base, DbConfig::default()) else {
        panic!("a GISTWAL1 log must be refused");
    };
    let msg = err.to_string();
    assert!(msg.contains(&wal.display().to_string()), "the log file is named: {msg}");
    assert!(msg.contains("GISTWAL1"), "the old format is named: {msg}");
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "the refused log is left unchanged");
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_shell(base: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_gist-shell"))
        .arg(base)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// Feed `script` on a helper thread (a long script would otherwise fill
/// the pipe while the shell blocks on its own stdout); the thread hands
/// stdin back without closing it, because EOF makes the shell exit
/// cleanly.
fn feed(child: &mut Child, script: String) -> std::thread::JoinHandle<ChildStdin> {
    let mut stdin = child.stdin.take().unwrap();
    std::thread::spawn(move || {
        // A killed shell breaks the pipe mid-script; that is expected.
        let _ = stdin.write_all(script.as_bytes());
        let _ = stdin.flush();
        stdin
    })
}

/// One session that ends on its own (the script's EOF means `exit`).
fn session(base: &Path, script: &str) -> Output {
    let mut child = spawn_shell(base);
    drop(feed(&mut child, script.to_string()).join().unwrap());
    child.wait_with_output().unwrap()
}

/// One session that is SIGKILLed as soon as stdout shows `marker`.
fn session_killed_after(base: &Path, script: String, marker: &str) {
    let mut child = spawn_shell(base);
    let writer = feed(&mut child, script);
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let seen = stdout.lines().map_while(Result::ok).any(|l| l.contains(marker));
    child.kill().unwrap();
    child.wait().unwrap();
    drop(writer.join().unwrap());
    assert!(seen, "the session never printed {marker:?}");
}

fn text(out: &Output) -> (String, String) {
    (String::from_utf8_lossy(&out.stdout).into(), String::from_utf8_lossy(&out.stderr).into())
}

/// A refused reopen: non-zero exit, no panic, no recovery banner.
fn assert_refused(out: &Output) -> String {
    let (stdout, stderr) = text(out);
    assert!(!out.status.success(), "reopen must be refused:\n{stdout}\n{stderr}");
    assert!(!stderr.contains("panicked"), "refusal must not panic:\n{stderr}");
    assert!(!stdout.contains("recovered:"), "refusal must not recover:\n{stdout}");
    stderr
}

fn process_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(&format!("proc-{tag}"));
    for ext in ["pages", "wal"] {
        let _ = std::fs::remove_file(dir.join(format!("db.{ext}")));
    }
    dir
}

fn inserts(keys: std::ops::Range<i64>, payload: &str) -> String {
    keys.map(|k| format!("insert t {k} {payload}\n")).collect()
}

/// Rows a range scan printed (`(N rows)`).
fn rows(stdout: &str) -> usize {
    let line = stdout.lines().rev().find_map(|l| l.split("(").nth(1)?.strip_suffix(" rows)"));
    line.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no row count in:\n{stdout}"))
}

#[test]
fn shell_clean_exit_reopen_keeps_every_committed_row() {
    let dir = process_dir("clean");
    let base = dir.join("db");
    let script = format!("create t\nbegin\n{}commit\n{}", inserts(0..500, "v"), inserts(500..520, "w"));
    let out = session(&base, &script);
    assert!(out.status.success(), "{:?}", text(&out));

    let out = session(&base, "range t 0 10000\ncheck t\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("recovered: 1 indexes, 0 losers undone"), "{stdout}");
    assert_eq!(rows(&stdout), 520, "{stdout}");
    assert!(stdout.contains("OK: "), "check must pass:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shell_crash_reopen_keeps_committed_rows_and_undoes_the_loser() {
    let dir = process_dir("crash");
    let base = dir.join("db");
    // `flush` in the open transaction forces the log and writes the
    // loser's pages back (steal), so the crash leaves a loser that
    // restart must undo.
    let script = format!(
        "create t\nbegin\n{}commit\nbegin\n{}flush\ncrash\n",
        inserts(0..300, "v"),
        inserts(300..400, "loser")
    );
    let out = session(&base, &script);
    assert!(out.status.success(), "{:?}", text(&out));

    let out = session(&base, "range t 0 10000\ncheck t\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("recovered: 1 indexes, 1 losers undone"), "{stdout}");
    assert_eq!(rows(&stdout), 300, "{stdout}");
    assert!(stdout.contains("OK: "), "check must pass:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `flush` persists and leaves the database running: a transaction
/// begun after it commits, the session exits cleanly, and the row is
/// there on reopen.
#[test]
fn shell_commits_after_flush_survive_exit() {
    let dir = process_dir("flush");
    let base = dir.join("db");
    let out = session(&base, "create t\nflush\nbegin\ninsert t 1 one\ncommit\nexit\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(!stdout.contains("error"), "{stdout}");

    let out = session(&base, "get t 1\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("(1 rows)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Session 2 writes pages its log never reaches disk for (the log is
/// written at exit, and SIGKILL skips exit). Recovering session 1's log
/// over those pages would corrupt the tree, so the reopen is refused and
/// names the page and both LSNs.
#[test]
fn shell_stale_log_after_kill_is_refused() {
    let dir = process_dir("stale");
    let base = dir.join("db");
    let out = session(&base, "create t\ninsert t 1 one\n");
    assert!(out.status.success(), "{:?}", text(&out));
    // Wide payloads fill the 256-frame pool with heap pages, so index
    // pages are evicted and written back during the transaction.
    let payload = "p".repeat(400);
    let script = format!("begin\n{}commit\n", inserts(10_000..22_000, &payload));
    session_killed_after(&base, script, "committed");

    let stderr = assert_refused(&session(&base, "get t 10000\ncheck t\n"));
    let at = stderr.find("has LSN ").unwrap_or_else(|| panic!("no page LSN named:\n{stderr}"));
    assert!(stderr[..at].contains("page P"), "{stderr}");
    let nums: Vec<u64> = stderr[at..]
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .take(2)
        .collect();
    assert!(nums.len() == 2 && nums[0] > nums[1], "page LSN past log end:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A killed first session leaves pages and no log at all.
#[test]
fn shell_page_file_without_log_is_refused() {
    let dir = process_dir("nolog");
    let base = dir.join("db");
    let script = format!("create t\nbegin\n{}commit\n", inserts(0..3_000, "v"));
    session_killed_after(&base, script, "committed");
    assert!(!dir.join("db.wal").exists());

    // Once `sync_to` appends to the log file as it syncs (ROADMAP item
    // 1(b)), this reopen succeeds and all 3,000 committed rows are present.
    let stderr = assert_refused(&session(&base, "range t 0 10000\n"));
    assert!(stderr.contains("missing"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The heap file is unlogged, so a crash loses a committed row's payload
/// while restart recovers its index entry. The shell reports the loss
/// and ends the statement's transaction; it does not print the row empty.
#[test]
fn shell_reports_a_lost_heap_payload() {
    let dir = process_dir("heap");
    let base = dir.join("db");
    let out = session(&base, "create t btree\nbegin\ninsert t 1 one\ncommit\ncrash\nexit\n");
    assert!(out.status.success(), "{:?}", text(&out));

    let out = session(&base, "range t 0 10\ncheck t\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(!stdout.contains("1 -> "), "a lost payload was served:\n{stdout}");
    let err = stdout.lines().find(|l| l.contains("error: ")).unwrap_or_else(|| panic!("{stdout}"));
    assert!(err.contains("key 1") && err.contains("unlogged"), "{err}");
    assert!(stdout.contains("OK: "), "check must pass:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shell_second_opener_is_refused_while_the_first_lives() {
    let dir = process_dir("lock");
    let base = dir.join("db");
    let mut first = spawn_shell(&base);
    let writer = feed(&mut first, "create t\ninsert t 1 one\nflush\n".to_string());
    let mut stdout = BufReader::new(first.stdout.take().unwrap()).lines();
    assert!(stdout.any(|l| l.unwrap().contains("flushed")), "first session never flushed");

    let stderr = assert_refused(&session(&base, "get t 1\n"));
    assert!(stderr.contains("locked"), "{stderr}");

    first.kill().unwrap();
    first.wait().unwrap();
    drop(writer.join().unwrap());
    let out = session(&base, "get t 1\n");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("(1 rows)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shell_reports_a_torn_log_tail_on_its_own_line() {
    let dir = process_dir("tail");
    let base = dir.join("db");
    let out = session(&base, "create t\ninsert t 1 one\n");
    assert!(out.status.success(), "{:?}", text(&out));
    let wal = dir.join("db.wal");
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&wal).unwrap().set_len(len - 3).unwrap();

    let out = session(&base, "");
    let (stdout, stderr) = text(&out);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    let banner: Vec<&str> = stdout.lines().skip(1).take(2).collect();
    assert!(banner[0].starts_with("recovered: 1 indexes, "), "{stdout}");
    assert!(banner[0].ends_with(" records redone"), "{stdout}");
    assert!(banner[1].starts_with("log tail: dropped "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
