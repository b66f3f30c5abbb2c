//! The serving-layer robustness suite (PR 10 tentpole verification).
//!
//! Everything here runs the real `gist-serve` session machinery over
//! in-memory pipe transports, with three escalating adversaries:
//!
//! 1. **Protocol corpus** — arbitrary, truncated, bit-flipped, and
//!    oversized bytes must yield typed protocol errors and a torn-down
//!    session, never a panic, and never a leaked transaction.
//! 2. **`FaultTransport`** — deterministic torn writes, resets, stalls
//!    and short reads at the `wire.*` sites of a `gist_chaos::Plan`.
//! 3. **Chaos points** (`--features chaos`) — the session is killed at
//!    every `serve.*` crash point inside an open transaction; the
//!    leak sweep must come back empty each time. One seeded plan then
//!    drives the store, the flusher and the wire in the same run.
//!
//! The leak sweep is the contract from ISSUE 10: zero active
//! transactions, zero held locks, zero predicate entries, zero
//! admission credits after every disconnect, no matter how rude.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use gist_repro::am::BtreeExt;
use gist_repro::core::{AdmissionConfig, Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::InMemoryStore;
use gist_repro::chaos::{Action, Plan, Trigger};
use gist_repro::serve::{pipe_pair, Client, FaultTransport, ServeConfig, Server, Transport};
use gist_repro::wal::{LogManager, TxnId};
use gist_repro::wire::{
    checksum, encode_frame, ErrorCode, Request, Response, FRAME_HEADER, MAGIC, MAX_FRAME,
};

const CALL_DEADLINE: Duration = Duration::from_secs(2);

/// Every test that opens a session holds this lock. The chaos tests
/// install a process-wide fail-once plan, and any session running
/// beside one could consume its single fire.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    gist_repro::chaos::uninstall();
    g
}

fn open_db(config: DbConfig) -> Arc<Db> {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    Db::open(store, log, config).unwrap()
}

fn test_serve_config() -> ServeConfig {
    ServeConfig {
        read_slice: Duration::from_millis(10),
        idle_deadline: Duration::from_secs(5),
        write_deadline: Duration::from_millis(250),
        drain_deadline: Duration::from_millis(200),
        busy_retry_ms: 15,
    }
}

/// A server with one pre-registered index "t".
fn server(config: DbConfig, serve: ServeConfig) -> (Arc<Db>, Server) {
    let db = open_db(config);
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let srv = Server::new(db.clone(), serve);
    srv.register_index(idx);
    (db, srv)
}

fn connect(srv: &Server) -> (Client, JoinHandle<()>) {
    let (server_end, client_end) = pipe_pair();
    let handle = srv.serve_conn(Box::new(server_end));
    (Client::new(Box::new(client_end), CALL_DEADLINE), handle)
}

/// The ISSUE-10 leak sweep: after sessions die, nothing may linger.
/// `probe_txns` are ids the dead sessions plausibly owned; each must
/// hold no locks.
fn assert_no_leaks(db: &Arc<Db>, probe_txns: &[TxnId]) {
    assert_eq!(db.txns().active_count(), 0, "leaked transactions");
    assert_eq!(db.admission().stats().in_flight, 0, "leaked admission credits");
    let ps = db.preds().stats();
    assert_eq!(
        (ps.predicates, ps.attachments, ps.nodes),
        (0, 0, 0),
        "leaked predicate entries: {ps:?}"
    );
    for &t in probe_txns {
        let held = db.locks().held_by(t);
        assert!(held.is_empty(), "txn {t:?} still holds locks: {held:?}");
    }
}

fn expect_rows(rsp: Response) -> Vec<(i64, Vec<u8>)> {
    match rsp {
        Response::Rows { rows, truncated } => {
            assert!(!truncated, "unexpected truncation: {rows:?}");
            rows
        }
        other => panic!("expected Rows, got {other:?}"),
    }
}

fn expect_error(rsp: Response, code: ErrorCode) {
    match rsp {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected Error({code:?}), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------

#[test]
fn full_crud_roundtrip_over_the_wire() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let (mut c, h) = connect(&srv);

    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    for k in 0..20i64 {
        let rsp = c
            .call(&Request::Insert { index: "t".into(), key: k, payload: format!("v{k}").into_bytes() })
            .unwrap();
        assert_eq!(rsp, Response::Ok, "insert {k}");
    }
    let rows = expect_rows(c.call(&Request::Get { index: "t".into(), key: 7 }).unwrap());
    assert_eq!(rows, vec![(7, b"v7".to_vec())]);
    let rows = expect_rows(c.call(&Request::Range { index: "t".into(), lo: 5, hi: 9 }).unwrap());
    assert_eq!(rows.len(), 5);
    assert_eq!(c.call(&Request::Delete { index: "t".into(), key: 7 }).unwrap(), Response::Ok);
    let rows = expect_rows(c.call(&Request::Get { index: "t".into(), key: 7 }).unwrap());
    assert!(rows.is_empty(), "{rows:?}");
    assert_eq!(c.call(&Request::Commit).unwrap(), Response::Ok);

    // Second index via the wire.
    assert_eq!(
        c.call(&Request::CreateIndex { name: "u".into(), unique: true }).unwrap(),
        Response::Ok
    );
    expect_error(
        c.call(&Request::CreateIndex { name: "u".into(), unique: true }).unwrap(),
        ErrorCode::IndexExists,
    );

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
}

#[test]
fn txn_state_machine_is_enforced() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let (mut c, h) = connect(&srv);

    expect_error(c.call(&Request::Commit).unwrap(), ErrorCode::TxnRequired);
    expect_error(
        c.call(&Request::Get { index: "t".into(), key: 1 }).unwrap(),
        ErrorCode::TxnRequired,
    );
    expect_error(
        c.call(&Request::Get { index: "nope".into(), key: 1 }).unwrap(),
        ErrorCode::NoSuchIndex,
    );
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    expect_error(c.call(&Request::Begin).unwrap(), ErrorCode::TxnAlreadyOpen);
    assert_eq!(c.call(&Request::Abort).unwrap(), Response::Ok);

    // Unique violation is benign: the transaction survives it.
    assert_eq!(
        c.call(&Request::CreateIndex { name: "uq".into(), unique: true }).unwrap(),
        Response::Ok
    );
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    assert_eq!(
        c.call(&Request::Insert { index: "uq".into(), key: 1, payload: vec![1] }).unwrap(),
        Response::Ok
    );
    expect_error(
        c.call(&Request::Insert { index: "uq".into(), key: 1, payload: vec![2] }).unwrap(),
        ErrorCode::UniqueViolation,
    );
    assert_eq!(c.call(&Request::Commit).unwrap(), Response::Ok, "txn survived the violation");

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
}

#[test]
fn health_and_stats_endpoints_serialize_engine_state() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let (mut c, h) = connect(&srv);

    match c.call(&Request::Health).unwrap() {
        Response::Health { label, reasons } => {
            assert_eq!(label, "healthy");
            assert!(reasons.is_empty(), "{reasons:?}");
        }
        other => panic!("expected Health, got {other:?}"),
    }
    match c.call(&Request::Stats).unwrap() {
        Response::Stats(entries) => {
            let get = |k: &str| {
                entries
                    .iter()
                    .find(|(n, _)| n == k)
                    .unwrap_or_else(|| panic!("missing stat {k:?} in {entries:?}"))
                    .1
            };
            assert_eq!(get("serve_sessions_opened"), 1);
            assert_eq!(get("admission_in_flight"), 0);
            assert!(get("serve_requests") >= 2);
            assert_eq!(get("pool_poisoned"), 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
}

#[test]
fn oversized_result_set_truncates_with_flag_instead_of_killing_session() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let (mut c, h) = connect(&srv);

    // 300 × 4 KB payloads ≈ 1.2 MB of rows: the full result set cannot
    // fit one MAX_FRAME frame. This used to make encode_frame fail and
    // drop the connection mid-transaction for a perfectly legal query.
    const N: i64 = 300;
    const PAYLOAD: usize = 4000;
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    for k in 0..N {
        let rsp = c
            .call(&Request::Insert { index: "t".into(), key: k, payload: vec![k as u8; PAYLOAD] })
            .unwrap();
        assert_eq!(rsp, Response::Ok, "insert {k}");
    }
    match c.call(&Request::Range { index: "t".into(), lo: 0, hi: N - 1 }).unwrap() {
        Response::Rows { rows, truncated } => {
            assert!(truncated, "oversized result set must be flagged");
            assert!(!rows.is_empty() && (rows.len() as i64) < N, "got {} rows", rows.len());
            for (k, payload) in &rows {
                assert!((0..N).contains(k), "{k}");
                assert_eq!(payload.len(), PAYLOAD);
            }
        }
        other => panic!("expected Rows, got {other:?}"),
    }
    // The session survived the oversized read and keeps serving.
    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(c.call(&Request::Commit).unwrap(), Response::Ok);

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
}

// ---------------------------------------------------------------------
// Shedding
// ---------------------------------------------------------------------

#[test]
fn saturated_admission_surfaces_as_retryable_busy() {
    let _g = serial();
    let config = DbConfig {
        admission: AdmissionConfig {
            max_in_flight: 1,
            admit_timeout: Duration::from_millis(5),
        },
        ..DbConfig::default()
    };
    let (db, srv) = server(config, test_serve_config());
    let (mut c, h) = connect(&srv);

    // Occupy the only credit out-of-band, as a competing workload would.
    let hog = db.begin();
    match c.call(&Request::Begin).unwrap() {
        Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 15),
        other => panic!("expected Busy, got {other:?}"),
    }
    // Shed, not hung: the session is still serving.
    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
    db.abort(hog).unwrap();
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun, "credit freed");
    assert_eq!(c.call(&Request::Abort).unwrap(), Response::Ok);
    assert_eq!(srv.stats().busy_sheds, 1);

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[hog]);
}

// ---------------------------------------------------------------------
// Protocol corpus: malformed bytes are errors, never panics or leaks
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the malformed-input corpus: deterministic garbage, truncations
/// of a valid frame at every cut, bit-flips across a valid frame, a
/// hostile length header, a valid frame with trailing junk, and an
/// unknown-tag message in a well-formed frame.
fn protocol_corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    let mut state = 0xBAD_C0DEu64;
    for _ in 0..48 {
        let len = (splitmix(&mut state) % 160 + 1) as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push(splitmix(&mut state) as u8);
        }
        corpus.push(bytes);
    }
    let valid = encode_frame(&Request::Insert { index: "t".into(), key: 1, payload: vec![7; 30] }.encode())
        .unwrap();
    for cut in 1..valid.len() {
        corpus.push(valid[..cut].to_vec());
    }
    for bit in (0..valid.len() * 8).step_by(13) {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        corpus.push(flipped);
    }
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC.to_le_bytes());
    hostile.extend_from_slice(&(MAX_FRAME as u32 + 77).to_le_bytes());
    hostile.extend_from_slice(&[0u8; 8]);
    hostile.extend_from_slice(&[0xAA; 64]);
    corpus.push(hostile);
    // Well-formed frame, trailing junk inside the message body.
    let mut body = Request::Ping.encode();
    body.push(0x99);
    corpus.push(encode_frame(&body).unwrap());
    // Well-formed frame, unknown request tag.
    let unknown = vec![0xEEu8, 1, 2, 3];
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&(unknown.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(&unknown).to_le_bytes());
    frame.extend_from_slice(&unknown);
    corpus.push(frame);
    corpus
}

#[test]
fn protocol_corpus_never_panics_and_never_leaks() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let corpus = protocol_corpus();
    assert!(corpus.len() > 100, "corpus unexpectedly small: {}", corpus.len());

    let mut handles = Vec::new();
    for bytes in &corpus {
        let (server_end, mut client_end) = pipe_pair();
        handles.push(srv.serve_conn(Box::new(server_end)));
        let _ = client_end.send(bytes, Duration::from_millis(100));
        // Hang up rudely; the session must clean itself up either way.
        drop(client_end);
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = srv.stats();
    assert_eq!(stats.sessions_opened, corpus.len() as u64);
    assert_eq!(stats.sessions_closed, corpus.len() as u64);
    assert!(
        stats.protocol_errors > 0,
        "corpus produced no protocol errors: {stats:?}"
    );
    assert_no_leaks(&db, &[]);
}

#[test]
fn malformed_bytes_inside_an_open_transaction_abort_it() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    // Garbage arriving while the session owns a transaction: the session
    // dies a protocol death and teardown must abort the transaction.
    for garbage in [
        vec![0xFFu8; FRAME_HEADER],           // bad magic
        encode_frame(&[0xEE, 9, 9]).unwrap(), // unknown request tag
    ] {
        let probe = db.begin();
        db.abort(probe).unwrap();
        let (server_end, mut raw) = pipe_pair();
        let h = srv.serve_conn(Box::new(server_end));
        let begin = encode_frame(&Request::Begin.encode()).unwrap();
        raw.send(&begin, Duration::from_millis(200)).unwrap();
        let mut buf = [0u8; 256];
        let n = raw.recv(&mut buf, Duration::from_secs(2)).unwrap();
        assert!(n > 0, "no Begun reply");
        assert_eq!(db.txns().active_count(), 1, "wire Begin opened a txn");
        raw.send(&garbage, Duration::from_millis(200)).unwrap();
        // Session replies Error{Protocol} (best effort) and hangs up.
        h.join().unwrap();
        drop(raw);
        assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
    }
    assert!(srv.stats().protocol_errors >= 2, "{:?}", srv.stats());
}

// ---------------------------------------------------------------------
// Wire faults: torn writes, resets, stalls, short reads
// ---------------------------------------------------------------------

#[test]
fn short_reads_reassemble_and_requests_still_serve() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let plan = Plan::new();
    // First six server-side reads deliver at most 3 bytes each: the
    // Ping frame (17 bytes) arrives in shreds.
    for i in 0..6 {
        plan.add("wire.recv", Trigger::At(i), Action::Short(3));
    }
    plan.arm();
    let (server_end, client_end) = pipe_pair();
    let h = srv.serve_conn(Box::new(FaultTransport::new(Box::new(server_end), plan.clone())));
    let mut c = Client::new(Box::new(client_end), CALL_DEADLINE);

    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
    assert!(plan.fires("wire.recv") >= 4, "{:?}", plan.fired());

    c.close();
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
}

#[test]
fn torn_reply_mid_transaction_tears_down_cleanly() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let probe = db.begin();
    db.abort(probe).unwrap();

    let plan = Plan::new();
    // Reply 0 (Begun) is clean; reply 1 tears after 5 bytes (mid-header).
    plan.add("wire.send", Trigger::At(1), Action::Torn(5));
    plan.arm();
    let (server_end, client_end) = pipe_pair();
    let h = srv.serve_conn(Box::new(FaultTransport::new(Box::new(server_end), plan.clone())));
    let mut c = Client::new(Box::new(client_end), Duration::from_millis(500));

    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    assert_eq!(db.txns().active_count(), 1);
    let err = c
        .call(&Request::Insert { index: "t".into(), key: 5, payload: vec![1] })
        .unwrap_err();
    // The client saw a partial frame then EOF (or just the deadline).
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::TimedOut
        ),
        "{err:?}"
    );
    drop(c);
    h.join().unwrap();
    assert_eq!(plan.fires("wire.send"), 1);
    assert_eq!(srv.stats().io_errors, 1, "torn write counted as an I/O session end");
    assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
}

#[test]
fn injected_reset_mid_transaction_releases_everything() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let probe = db.begin();
    db.abort(probe).unwrap();

    let plan = Plan::new();
    plan.arm();
    let (server_end, client_end) = pipe_pair();
    let h = srv.serve_conn(Box::new(FaultTransport::new(Box::new(server_end), plan.clone())));
    let mut c = Client::new(Box::new(client_end), CALL_DEADLINE);

    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    assert_eq!(
        c.call(&Request::Insert { index: "t".into(), key: 9, payload: vec![2; 64] }).unwrap(),
        Response::Ok
    );
    // Now reset the next server read: the connection dies inside the
    // txn with real locks and an admission credit held. Deadline-sliced
    // polling advances the recv op index continuously, so aim at the
    // next occurrence rather than at one index.
    assert_eq!(db.txns().active_count(), 1);
    assert_eq!(db.admission().stats().in_flight, 1);
    plan.add("wire.recv", Trigger::Next(1), Action::Reset);
    h.join().unwrap();
    drop(c);
    assert_eq!(srv.stats().io_errors, 1);
    assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
}

#[test]
fn stalled_client_is_evicted_on_deadline() {
    let _g = serial();
    let serve_cfg = ServeConfig {
        idle_deadline: Duration::from_millis(120),
        ..test_serve_config()
    };
    let (db, srv) = server(DbConfig::default(), serve_cfg);
    let probe = db.begin();
    db.abort(probe).unwrap();

    let (mut c, h) = connect(&srv);
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    // Client goes silent while owning a transaction. The session must
    // evict it and release everything.
    h.join().unwrap();
    assert_eq!(srv.stats().evicted_slow, 1);
    assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
    drop(c);
}

/// The §10.3 FIFO queue behind an idle scan drains through the serving
/// layer's own idle teardown: a silent session holding a scan predicate
/// is evicted, its transaction aborted, and the insert parked behind it
/// goes through.
#[test]
fn idle_scan_session_is_evicted_and_the_insert_queue_drains() {
    let _g = serial();
    let serve_cfg = ServeConfig {
        idle_deadline: Duration::from_millis(150),
        ..test_serve_config()
    };
    let (db, srv) = server(DbConfig::default(), serve_cfg);
    let probe = db.begin();
    db.abort(probe).unwrap();

    let (mut seed, h) = connect(&srv);
    assert_eq!(seed.call(&Request::Begin).unwrap(), Response::Begun);
    for k in [10, 50, 90] {
        let rsp = seed.call(&Request::Insert { index: "t".into(), key: k, payload: vec![1] });
        assert_eq!(rsp.unwrap(), Response::Ok);
    }
    assert_eq!(seed.call(&Request::Commit).unwrap(), Response::Ok);
    seed.close();
    h.join().unwrap();

    // Session A scans [0, 100], keeping its scan predicate attached
    // until its transaction ends, then goes silent.
    let (mut a, ha) = connect(&srv);
    assert_eq!(a.call(&Request::Begin).unwrap(), Response::Begun);
    let rows = expect_rows(a.call(&Request::Range { index: "t".into(), lo: 0, hi: 100 }).unwrap());
    assert_eq!(rows.len(), 3);

    // Session B's insert into that range parks behind A.
    let waits_before = db.robustness_stats().lock_waits;
    let (mut b, hb) = connect(&srv);
    let inserter = std::thread::spawn(move || {
        assert_eq!(b.call(&Request::Begin).unwrap(), Response::Begun);
        let rsp = b.call(&Request::Insert { index: "t".into(), key: 55, payload: vec![2] });
        assert_eq!(rsp.unwrap(), Response::Ok);
        assert_eq!(b.call(&Request::Commit).unwrap(), Response::Ok);
        b
    });
    let t0 = std::time::Instant::now();
    while db.robustness_stats().lock_waits == waits_before {
        assert!(t0.elapsed() < CALL_DEADLINE, "insert never parked behind the scan");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(db.txns().active_count(), 2, "A's and B's transactions are both open");

    // A is evicted at the idle deadline; its abort releases the
    // predicate and B's insert and commit go through.
    ha.join().unwrap();
    inserter.join().unwrap().close();
    hb.join().unwrap();
    drop(a);
    assert_eq!(srv.stats().evicted_slow, 1);
    assert_no_leaks(&db, &[TxnId(probe.0 + 2), TxnId(probe.0 + 3)]);

    let (mut c, h) = connect(&srv);
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    let rows = expect_rows(c.call(&Request::Range { index: "t".into(), lo: 0, hi: 100 }).unwrap());
    let mut keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    assert_eq!(keys, vec![10, 50, 55, 90]);
    assert_eq!(c.call(&Request::Commit).unwrap(), Response::Ok);
    c.close();
    h.join().unwrap();
}

// ---------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------

#[test]
fn drain_lets_idle_sessions_finish_and_rejects_new_begins() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let (mut c, h) = connect(&srv);
    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);

    let drainer = {
        let srv = srv.clone();
        std::thread::spawn(move || srv.drain())
    };
    // While draining, liveness stays; new transactions are refused.
    std::thread::sleep(Duration::from_millis(30));
    assert!(srv.is_draining());
    // (an Err here is fine too — the session may already have drained out)
    if let Ok(rsp) = c.call(&Request::Begin) {
        expect_error(rsp, ErrorCode::ShuttingDown);
    }
    let report = drainer.join().unwrap();
    assert_eq!(report.forced_aborts, 0, "{report:?}");
    h.join().unwrap();
    assert_no_leaks(&db, &[]);
    drop(c);
}

#[test]
fn drain_force_aborts_stragglers_and_counts_them() {
    let _g = serial();
    let (db, srv) = server(DbConfig::default(), test_serve_config());
    let probe = db.begin();
    db.abort(probe).unwrap();

    let (mut c, h) = connect(&srv);
    assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
    assert_eq!(
        c.call(&Request::Insert { index: "t".into(), key: 3, payload: vec![3] }).unwrap(),
        Response::Ok
    );
    assert_eq!(db.txns().active_count(), 1);

    // The client never finishes; drain must force-abort at the deadline.
    let report = srv.drain();
    assert_eq!(report.sessions_at_start, 1);
    assert_eq!(report.forced_aborts, 1, "{report:?}");
    assert!(!report.clean);
    assert_eq!(srv.stats().drain_forced_aborts, 1);
    // The force-aborted session notices its loss and finishes teardown
    // well inside the wait bound — nothing dispatches after this.
    assert!(srv.await_sessions(Duration::from_secs(2)), "straggler session never exited");
    assert_eq!(srv.session_count(), 0);
    h.join().unwrap();
    assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
    drop(c);
}

// ---------------------------------------------------------------------
// Chaos: disconnect at every serve crash point inside an open txn
// ---------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod chaos_teardown {
    use super::*;
    use gist_repro::chaos;

    /// Install a fresh, armed process-wide plan that fails `point` once.
    fn fail_once(point: &'static str) -> Arc<Plan> {
        let plan = chaos::install(Plan::new());
        plan.add(point, Trigger::Next(1), Action::Error);
        plan.arm();
        plan
    }

    /// ISSUE 10 satellite: disconnect at every serve chaos point inside
    /// an open transaction leaves zero locks, zero predicate entries,
    /// zero credits.
    #[test]
    fn killed_session_at_each_dispatch_point_leaks_nothing() {
        let _g = serial();
        for point in ["serve.session.before_dispatch", "serve.session.before_reply"] {
            assert!(chaos::POINTS.contains(&point), "{point} not cataloged");
            let (db, srv) = server(DbConfig::default(), test_serve_config());
            let probe = db.begin();
            db.abort(probe).unwrap();
            let (mut c, h) = connect(&srv);
            assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
            assert_eq!(
                c.call(&Request::Insert { index: "t".into(), key: 1, payload: vec![9; 16] })
                    .unwrap(),
                Response::Ok
            );
            assert_eq!(db.txns().active_count(), 1, "{point}: txn open");

            let plan = fail_once(point);
            let err = c.call(&Request::Get { index: "t".into(), key: 1 }).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{point}: {err:?}");
            h.join().unwrap();
            assert!(plan.fires(point) >= 1, "{point} never fired");
            chaos::uninstall();

            assert_eq!(srv.stats().injected_ends, 1, "{point}");
            assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
        }
    }

    #[test]
    fn killed_session_at_accept_leaks_nothing() {
        let _g = serial();
        let (db, srv) = server(DbConfig::default(), test_serve_config());
        let plan = fail_once("serve.session.after_accept");
        let (mut c, h) = connect(&srv);
        // The session died before its first read; any call fails.
        assert!(c.call(&Request::Ping).is_err());
        h.join().unwrap();
        assert!(plan.fires("serve.session.after_accept") >= 1);
        chaos::uninstall();
        assert_no_leaks(&db, &[]);
        drop(c);
    }

    #[test]
    fn drain_cleanup_survives_injection_at_its_own_point() {
        let _g = serial();
        let (db, srv) = server(DbConfig::default(), test_serve_config());
        let probe = db.begin();
        db.abort(probe).unwrap();
        let (mut c, h) = connect(&srv);
        assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);

        // Injection at the force-abort point is counted but must not
        // skip the cleanup: drain's contract is unconditional.
        let plan = fail_once("serve.drain.before_force_abort");
        let report = srv.drain();
        assert_eq!(report.forced_aborts, 1, "{report:?}");
        assert!(plan.fires("serve.drain.before_force_abort") >= 1);
        chaos::uninstall();
        h.join().unwrap();
        assert_no_leaks(&db, &[TxnId(probe.0 + 1)]);
        drop(c);
    }

    /// What one wire client saw.
    #[derive(Default)]
    struct Seen {
        /// Keys of transactions whose commit was acknowledged.
        acked: Vec<i64>,
        /// Transactions that failed mid-flight: committed entirely or
        /// not at all (a lost commit reply leaves one committed).
        in_doubt: Vec<Vec<i64>>,
        sessions: Vec<JoinHandle<()>>,
    }

    /// One four-key transaction over the wire; `true` iff its commit was
    /// acknowledged. A failure leaves the session for the caller to drop.
    fn wire_txn(c: &mut Client, keys: &[i64]) -> bool {
        let mut reqs = vec![Request::Begin];
        reqs.extend(keys.iter().map(|&key| Request::Insert {
            index: "t".into(),
            key,
            payload: key.to_le_bytes().to_vec(),
        }));
        reqs.push(Request::Commit);
        for req in &reqs {
            match c.call(req) {
                Ok(Response::Begun | Response::Ok) => {}
                Ok(_) => {
                    let _ = c.call(&Request::Abort);
                    return false;
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// A client over a `FaultTransport` on `plan`: transactions on keys
    /// from `base` until every scheduled fault has fired, then two more
    /// (their flushes wake a committer whose wake-up the flusher panic
    /// swallowed). A failed transaction is in doubt and its session is
    /// dropped for a fresh one. Each round writes dirty pages back — where
    /// `store.write` fires — until the tear lands, which then stays on
    /// disk for restart to find.
    fn drive(srv: &Server, db: &Arc<Db>, plan: &Arc<Plan>, base: i64) -> Seen {
        let mut seen = Seen::default();
        let mut client = None;
        let mut extra = 2;
        for n in 0..200i64 {
            if plan.fired().len() == 3 {
                if extra == 0 {
                    break;
                }
                extra -= 1;
            }
            let c = client.get_or_insert_with(|| {
                let (server_end, client_end) = pipe_pair();
                let conn = FaultTransport::new(Box::new(server_end), plan.clone());
                seen.sessions.push(srv.serve_conn(Box::new(conn)));
                Client::new(Box::new(client_end), CALL_DEADLINE)
            });
            let keys: Vec<i64> = (base + 4 * n..base + 4 * n + 4).collect();
            if wire_txn(c, &keys) {
                seen.acked.extend(keys);
            } else {
                seen.in_doubt.push(keys);
                client = None;
            }
            if plan.fires("store.write") == 0 {
                let _ = db.pool().flush_all();
            }
        }
        if let Some(c) = client {
            c.close();
        }
        seen
    }

    /// One fault plan across three layers (run with `FAULT_SEED=<n>`,
    /// default 1): `Plan::from_seed` places a torn page write on the
    /// store, a panic between the flusher's fsync and its wake-up, and a
    /// reset on a server reply, at seeded op indices. Two wire clients
    /// run transactions until all three have fired; a third leaves one
    /// in flight for the drain to force-abort, and an in-process loser
    /// reaches the log without committing. Then the machine crashes and
    /// restarts: every acknowledged commit survives, every transaction
    /// that failed mid-flight is all-or-nothing, the losers are undone,
    /// the tree checks clean, and nothing leaked before the crash.
    #[test]
    fn cross_layer_seeded_plan_keeps_the_recovery_contract() {
        use gist_repro::am::I64Query;
        use gist_repro::core::check::check_tree;
        use gist_repro::pagestore::{FaultStore, PageId, PageStore, Rid};
        use std::collections::HashSet;

        let _g = serial();
        let seed: u64 = std::env::var("FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
        let plan = Plan::from_seed(
            seed,
            &[
                ("store.write", Action::Torn(512)),
                ("store.write", Action::Torn(1024)),
                ("store.write", Action::Torn(4096)),
                ("commitpipe.flusher.post_fsync_pre_wakeup", Action::Panic),
                ("wire.send", Action::Reset),
            ],
        );
        println!("FAULT_SEED={seed} plan:\n{plan}");

        let faults = FaultStore::new(Arc::new(InMemoryStore::new()), plan.clone());
        let store: Arc<dyn PageStore> = faults.clone();
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let srv = Server::new(db.clone(), test_serve_config());
        srv.register_index(idx.clone());
        db.pool().flush_all().unwrap();
        db.pool().sync_store().unwrap();
        let first = db.begin();
        db.abort(first).unwrap();

        chaos::install(plan.clone());
        plan.arm();
        let clients: Vec<_> = (1..=2i64)
            .map(|c| {
                let (srv, db, plan) = (srv.clone(), db.clone(), plan.clone());
                std::thread::spawn(move || drive(&srv, &db, &plan, 100_000 * c))
            })
            .collect();
        let (mut acked, mut in_doubt, mut sessions) = (Vec::new(), Vec::new(), Vec::new());
        for c in clients {
            let seen = c.join().unwrap();
            acked.extend(seen.acked);
            in_doubt.extend(seen.in_doubt);
            sessions.extend(seen.sessions);
        }
        let mut fired = plan.fired();
        fired.sort_by_key(|f| f.site);
        println!("FAULT_SEED={seed} fired: {fired:?}");
        assert_eq!(fired.len(), 3, "every scheduled fault fired");

        // In flight at shutdown: the drain force-aborts it.
        let (mut c, h) = connect(&srv);
        assert_eq!(c.call(&Request::Begin).unwrap(), Response::Begun);
        let rsp = c.call(&Request::Insert { index: "t".into(), key: 7, payload: vec![7] });
        assert_eq!(rsp.unwrap(), Response::Ok);
        let report = srv.drain();
        assert_eq!(report.forced_aborts, 1, "{report:?}");
        assert!(srv.await_sessions(Duration::from_secs(15)), "a session never exited");
        for s in sessions.into_iter().chain([h]) {
            s.join().unwrap();
        }
        drop(c);
        let last = db.begin();
        db.abort(last).unwrap();
        assert_no_leaks(&db, &(first.0..=last.0).map(TxnId).collect::<Vec<_>>());

        // A loser whose records are durable but whose commit never is.
        let loser = db.begin();
        for k in 8..16i64 {
            idx.insert(loser, &k, Rid::new(PageId(640_000), k as u16)).unwrap();
        }
        db.log().flush_all();
        chaos::uninstall();
        db.crash();
        faults.crash_disk().unwrap();

        let (db2, report) = Db::restart(store, log, DbConfig::default()).unwrap();
        println!("FAULT_SEED={seed} repaired pages: {:?}", report.repaired_pages);
        let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
        check_tree(&idx2).unwrap().assert_ok();
        let txn = db2.begin();
        let got: HashSet<i64> = idx2
            .search(txn, &I64Query::range(0, i64::MAX))
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        db2.commit(txn).unwrap();
        for k in &acked {
            assert!(got.contains(k), "acknowledged key {k} lost");
        }
        let mut known: HashSet<i64> = acked.iter().copied().collect();
        for keys in &in_doubt {
            let n = keys.iter().filter(|k| got.contains(k)).count();
            assert!(n == 0 || n == keys.len(), "half a transaction survived: {keys:?}");
            known.extend(keys);
        }
        assert!(got.is_subset(&known), "a loser survived: {:?}", got.difference(&known));
        assert_no_leaks(&db2, &[]);
    }
}
