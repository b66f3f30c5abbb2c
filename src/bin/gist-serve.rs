//! `gist-serve` — the TCP serving front-end over a file-backed GiST
//! database.
//!
//! ```sh
//! cargo run --bin gist-serve -- /tmp/demo 127.0.0.1:7878
//! ```
//!
//! Speaks the `gist-wire` protocol (see `crates/wire`): length-prefixed,
//! checksummed frames carrying i64-keyed requests. Each connection owns
//! at most one transaction; a client that vanishes mid-transaction is
//! torn down with its locks, predicates, and admission credit released
//! exactly once. Overload is shed at the wire as retryable `Busy`
//! responses; `Health`/`Stats` requests expose the engine's robustness
//! counters.
//!
//! Shutdown: EOF on stdin (or a `drain` line) triggers graceful drain —
//! stop accepting, give in-flight sessions the drain deadline, then
//! force-abort stragglers — followed by a clean engine shutdown.
//!
//! The database at `<db-path>` is opened with `Db::open_path`, which
//! owns its files: it runs restart recovery when the path has a log
//! (printing the `recovered: ...` banner on stderr), refuses a path whose
//! pages outran its log or whose log is missing, and refuses a path
//! another process has open. Every cataloged index is re-registered.
//! The clean shutdown writes the log for the next start.

use std::io::BufRead;

use gist_repro::am::BtreeExt;
use gist_repro::core::{Db, DbConfig, GistIndex};
use gist_repro::serve::{ServeConfig, Server};

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(base), Some(addr)) = (args.next(), args.next()) else {
        eprintln!("usage: gist-serve <db-path> <listen-addr>");
        std::process::exit(2);
    };
    if let Err(e) = run(&base, &addr) {
        eprintln!("gist-serve: {e}");
        std::process::exit(1);
    }
}

fn run(base: &str, addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (db, report) = Db::open_path(base, DbConfig::default())?;
    if let Some(report) = report {
        eprintln!("{report}");
    }

    let server = Server::new(
        db.clone(),
        ServeConfig {
            idle_deadline: std::time::Duration::from_secs(30),
            drain_deadline: std::time::Duration::from_secs(5),
            ..ServeConfig::default()
        },
    );
    // Every cataloged index is servable (all are i64 B-trees here; the
    // shell and this binary share that convention).
    for name in db.catalog_names()? {
        let idx = GistIndex::open(db.clone(), &name, BtreeExt)?;
        server.register_index(idx);
    }

    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!("gist-serve listening on {addr} (EOF or 'drain' on stdin to stop)");

    // Accept on a helper thread; the main thread watches stdin so an
    // operator ^D (or supervisor closing the pipe) triggers drain.
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || {
            if let Err(e) = server.accept_loop(listener) {
                eprintln!("accept loop failed: {e}");
            }
        })
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(cmd) if cmd.trim() == "drain" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let report = server.drain();
    eprintln!(
        "drained: {} sessions at start, {} forced aborts, clean={}",
        report.sessions_at_start, report.forced_aborts, report.clean
    );
    let _ = acceptor.join();
    // Drain force-aborted straggler transactions but their session
    // threads may still be mid-dispatch; wait for them to finish
    // teardown so none touches the engine during shutdown, which ends
    // by writing the log.
    if !server.await_sessions(std::time::Duration::from_secs(5)) {
        eprintln!(
            "warning: {} session(s) still live at shutdown",
            server.session_count()
        );
    }
    let stats = server.stats();
    eprintln!(
        "served {} requests over {} sessions ({} busy sheds, {} protocol errors, {} evictions)",
        stats.requests,
        stats.sessions_opened,
        stats.busy_sheds,
        stats.protocol_errors,
        stats.evicted_slow
    );
    db.shutdown()?;
    Ok(())
}
