//! The `served-mixed` side: build a crash image, restart the shipped
//! `gist-serve` binary on it, and drive it over real TCP.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_repro::am::BtreeExt;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::Rid;
use gist_repro::serve::{Client, TcpConn};
use gist_repro::wal::LogManager;
use gist_repro::wire::{encode_frame, FrameDecoder, Request, Response};

use crate::inproc::{self, check_range, payload_of, Engine, CLIENT_GAPS, RANGE_KEYS, STRIDE};
use crate::run::{Driver, Params, Rng, TxnEnd};
use crate::trace::{self, now_ns, Kind};

const INDEX: &str = "bench";
/// Inserts the in-flight loser transaction holds when the crash strikes.
const LOSER_INSERTS: i64 = 100;
const CALL_DEADLINE: Duration = Duration::from_secs(20);
/// Attempts per transaction before it counts as failed (what `run_txn`
/// allows in-process).
const MAX_ATTEMPTS: u32 = 10;

/// Committed single-insert transactions between the checkpoint and the
/// crash: the redo work restart must do.
pub fn tail_txns(keys: i64) -> i64 {
    keys / 15
}

fn tail_key(j: i64, keys: i64) -> i64 {
    (j * 7919 % keys) * STRIDE + 8
}

fn loser_key(j: i64) -> i64 {
    j * STRIDE + 9
}

pub struct Image {
    /// `<base>.pages` and `<base>.wal`.
    pub base: PathBuf,
    pub build_s: f64,
    pub space_bytes_per_key: f64,
    /// Live keys a correct restart leaves: preload + committed tail.
    pub live_keys: i64,
}

fn with_ext(base: &Path, ext: &str) -> PathBuf {
    PathBuf::from(format!("{}.{ext}", base.display()))
}

/// Build the crash image in-process: bulk load (every row has a heap
/// record, as rows written through the server do), flush, checkpoint,
/// a committed tail, one in-flight loser, then crash with the log forced
/// and the data pages of everything after the checkpoint lost.
pub fn build_image(p: &Params, dir: &Path) -> Image {
    let base = dir.join("served");
    for ext in ["pages", "wal"] {
        let _ = std::fs::remove_file(with_ext(&base, ext));
    }
    let t0 = Instant::now();
    let (store, _) = inproc::open_store(&with_ext(&base, "pages"), false);
    let cfg = DbConfig {
        pool_capacity: inproc::hot_frames(p.keys),
        ..DbConfig::default()
    };
    let db = Db::open(store.clone(), Arc::new(LogManager::new()), cfg).expect("open image db");
    let idx = GistIndex::create(db.clone(), INDEX, BtreeExt, IndexOptions::default())
        .expect("create index");
    let heap = |key: i64| db.heap().insert(&payload_of(key)).expect("heap insert");
    inproc::bulk_load(&db, &idx, p.keys, |k| heap(k * STRIDE));
    // The heap is unlogged (record recovery is the data manager's job, not
    // the index's), so the tail's records go to disk with the preload.
    let tail: Vec<(i64, Rid)> = (0..tail_txns(p.keys))
        .map(|j| tail_key(j, p.keys))
        .map(|key| (key, heap(key)))
        .collect();
    db.pool().flush_all().expect("flush image");
    db.pool().sync_store().expect("sync image");
    db.checkpoint().expect("checkpoint");
    for (key, rid) in &tail {
        db.run_txn(|txn| idx.insert(txn, key, *rid))
            .expect("tail insert");
    }
    let loser = db.begin();
    for j in 0..LOSER_INSERTS {
        idx.insert(loser, &loser_key(j), inproc::rid_of(j as u64))
            .expect("loser insert");
    }
    db.log().flush_all();
    db.log()
        .persist_file(&with_ext(&base, "wal"))
        .expect("persist wal");
    db.crash();
    let live_keys = p.keys + tail.len() as i64;
    Image {
        base,
        build_s: t0.elapsed().as_secs_f64(),
        space_bytes_per_key: inproc::space_bytes_per_key(store.as_ref(), live_keys),
        live_keys,
    }
}

/// Copy the image so an in-process replica can restart from the same
/// bytes the server did.
pub fn copy_image(image: &Image, to_base: &Path) {
    for ext in ["pages", "wal"] {
        std::fs::copy(with_ext(&image.base, ext), with_ext(to_base, ext)).expect("copy image");
    }
}

/// Restart an in-process `Db` from an image, with the server's
/// configuration. Returns the engine, `load_file` seconds, `Db::restart`
/// seconds, records redone and losers undone.
pub fn restart_replica(base: &Path, keys: i64) -> (Engine, f64, f64, usize, usize) {
    let t0 = Instant::now();
    let log = Arc::new(LogManager::load_file(&with_ext(base, "wal")).expect("load wal"));
    let load_s = t0.elapsed().as_secs_f64();
    let pages = with_ext(base, "pages");
    let (store, timed) = inproc::open_store(&pages, true);
    let t1 = Instant::now();
    let (db, report) = Db::restart(store, log, DbConfig::default()).expect("replica restart");
    let idx = GistIndex::open(db.clone(), INDEX, BtreeExt).expect("open replica index");
    let recover_s = t1.elapsed().as_secs_f64();
    let eng = Engine {
        db,
        idx,
        timed,
        keys,
        maint: Default::default(),
    };
    (
        eng,
        load_s,
        recover_s,
        report.outcome.redo_applied,
        report.outcome.losers.len(),
    )
}

/// A running `gist-serve` child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
    log: PathBuf,
    /// Spawn → first `Pong`.
    pub restart_s: f64,
}

fn connect(addr: &str) -> std::io::Result<Client> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(Client::new(Box::new(TcpConn::new(stream)), CALL_DEADLINE))
}

impl Server {
    /// Start the server on `image` and wait until it answers a `Ping`
    /// (it has then finished restart recovery).
    pub fn spawn(p: &Params, image: &Image, dir: &Path) -> Result<Server, String> {
        if !p.serve_bin.is_file() {
            return Err(format!(
                "{} not found: build it with `cargo build --release --bin gist-serve` at the repository root, or pass --serve-bin",
                p.serve_bin.display()
            ));
        }
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let log = dir.join("gist-serve.log");
        let stderr = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(&p.serve_bin)
            .arg(&image.base)
            .arg(&addr)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", p.serve_bin.display()))?;
        let stdin = child.stdin.take();
        let mut server = Server {
            child,
            stdin,
            addr,
            log,
            restart_s: 0.0,
        };
        loop {
            if let Ok(mut c) = connect(&server.addr) {
                if matches!(c.call(&Request::Ping), Ok(Response::Pong)) {
                    c.close();
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "gist-serve exited during restart ({status}): {}",
                    server.log_text()
                ));
            }
            if t0.elapsed() > Duration::from_secs(120) {
                server.kill();
                return Err("gist-serve did not answer a Ping within 120 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.restart_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// `(records redone, losers undone)` from the server's recovery banner.
    pub fn recovery(&self) -> Option<(u64, u64)> {
        let text = self.log_text();
        let line = text.lines().find(|l| l.starts_with("recovered:"))?;
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect();
        // "recovered: N indexes, N losers undone, N records redone"
        (nums.len() == 3).then(|| (nums[2], nums[1]))
    }

    /// Stop without ceremony (set-up repeats that are thrown away).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Close stdin and wait: the server must drain and exit 0 by itself.
    pub fn drain(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(format!("gist-serve exited {status}: {}", self.log_text()))
                }
                Ok(None) if t0.elapsed() > Duration::from_secs(60) => {
                    self.kill();
                    return Err("gist-serve did not exit within 60 s of stdin EOF".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for gist-serve: {e}")),
            }
        }
        // A session thread that panicked never deregisters, so the drain
        // after it cannot be clean; that is the panic's failure, already
        // counted by the client it hung up on.
        let text = self.log_text();
        let clean = text
            .lines()
            .any(|l| l.starts_with("drained:") && l.ends_with("clean=true"));
        if clean || text.contains("panicked at") {
            Ok(())
        } else {
            Err(format!("gist-serve did not report a clean drain: {text}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // No child outlives the benchmark, whatever path ends it.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// The server's `Stats` counters.
pub fn wire_stats(addr: &str) -> Result<BTreeMap<String, i64>, String> {
    let mut c = connect(addr).map_err(|e| e.to_string())?;
    let out = match c.call(&Request::Stats) {
        Ok(Response::Stats(entries)) => Ok(entries.into_iter().collect()),
        other => Err(format!("Stats request: {other:?}")),
    };
    c.close();
    out
}

/// Median `Ping` round trip in µs: TCP and the session loop, no engine.
pub fn ping_rtt_us(addr: &str, pings: usize) -> Result<f64, String> {
    let mut c = connect(addr).map_err(|e| e.to_string())?;
    let mut ns = Vec::with_capacity(pings);
    for _ in 0..pings {
        let t0 = now_ns();
        match c.call(&Request::Ping) {
            Ok(Response::Pong) => ns.push((now_ns() - t0) as f64 / 1e3),
            other => return Err(format!("Ping: {other:?}")),
        }
    }
    c.close();
    Ok(crate::run::median(ns))
}

/// After the window: a committed tail key must be there, no key of the
/// loser may be.
pub fn check_recovered(addr: &str, keys: i64) -> Vec<String> {
    let mut violations = Vec::new();
    let mut c = match connect(addr) {
        Ok(c) => c,
        Err(e) => return vec![format!("connect for the recovery check: {e}")],
    };
    match c.call(&Request::Begin) {
        Ok(Response::Begun) => {}
        other => return vec![format!("Begin for the recovery check: {other:?}")],
    }
    let mut get = |key: i64| match c.call(&Request::Get {
        index: INDEX.into(),
        key,
    }) {
        Ok(Response::Rows { rows, .. }) => Ok(rows),
        other => Err(format!("Get {key}: {other:?}")),
    };
    for j in [0, tail_txns(keys) / 2, tail_txns(keys) - 1] {
        let key = tail_key(j, keys);
        match get(key) {
            Ok(rows) if rows == [(key, payload_of(key))] => {}
            other => violations.push(format!("committed tail key {key} after restart: {other:?}")),
        }
    }
    for j in [0, LOSER_INSERTS - 1] {
        match get(loser_key(j)) {
            Ok(rows) if rows.is_empty() => {}
            other => violations.push(format!(
                "loser key {} visible after restart: {other:?}",
                loser_key(j)
            )),
        }
    }
    if !matches!(c.call(&Request::Commit), Ok(Response::Ok)) {
        violations.push("Commit of the recovery check failed".to_string());
    }
    c.close();
    violations
}

pub struct ServedDriver {
    addr: String,
    /// `None` after a transport error, until the next reconnect works.
    client: Option<Client>,
    rng: Rng,
    keys: i64,
}

impl ServedDriver {
    pub fn connect(addr: &str, keys: i64, client: usize, seed: u64) -> Result<Self, String> {
        let c = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(ServedDriver {
            addr: addr.to_string(),
            client: Some(c),
            rng: Rng::new(seed, client as u64 + 1),
            keys,
        })
    }

    /// One round trip. A transport error drops the connection (a server
    /// session that panicked hangs up); the next call opens a new one.
    fn call(&mut self, req: &Request, requests: &mut Vec<u64>) -> Result<Response, String> {
        if self.client.is_none() {
            match connect(&self.addr) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    std::thread::sleep(Duration::from_millis(10));
                    return Err(format!("reconnect: {e}"));
                }
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let t0 = now_ns();
        let rsp = trace::span(Kind::Call, || client.call(req));
        requests.push(now_ns() - t0);
        if rsp.is_err() {
            self.client = None;
        }
        rsp.map_err(|e| format!("wire: {e}"))
    }

    /// One attempt. `Ok(None)`: committed with the right rows;
    /// `Ok(Some(msg))`: committed, wrong rows; `Err((retry, msg))`.
    fn attempt(
        &mut self,
        plan: &Plan,
        requests: &mut Vec<u64>,
    ) -> Result<Option<String>, (bool, String)> {
        let fatal = |msg: String| (false, msg);
        match self.call(&Request::Begin, requests).map_err(fatal)? {
            Response::Begun => {}
            // Shed at the door: honour the hint, then knock again.
            Response::Busy { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
                return Err((true, "Busy".to_string()));
            }
            other => return Err(fatal(format!("Begin: {other:?}"))),
        }
        let mut wrong = None;
        let steps = [
            Request::Get {
                index: INDEX.into(),
                key: plan.gets[0],
            },
            Request::Get {
                index: INDEX.into(),
                key: plan.gets[1],
            },
            Request::Range {
                index: INDEX.into(),
                lo: plan.base,
                hi: plan.base + RANGE_KEYS * STRIDE - 1,
            },
            Request::Insert {
                index: INDEX.into(),
                key: plan.ins_key,
                payload: payload_of(plan.ins_key),
            },
            Request::Commit,
        ];
        for req in &steps {
            let rsp = self.call(req, requests).map_err(fatal)?;
            let problem = match (req, rsp) {
                (Request::Get { key, .. }, Response::Rows { rows, .. }) => (rows
                    != [(*key, payload_of(*key))])
                .then(|| format!("get of {key} returned {rows:?}")),
                (
                    Request::Range { lo, .. },
                    Response::Rows {
                        mut rows,
                        truncated,
                    },
                ) => {
                    rows.retain(|r| r.0 % STRIDE == 0);
                    rows.sort_unstable_by_key(|r| r.0);
                    check_range(&rows, *lo, self.keys, payload_of)
                        .or(truncated.then(|| format!("range from {lo} was truncated")))
                }
                (Request::Insert { .. } | Request::Commit, Response::Ok) => None,
                // The server has already aborted the transaction.
                (_, Response::Error { code, message }) if code.retryable() => {
                    return Err((true, message))
                }
                (req, other) => {
                    let _ = self.call(&Request::Abort, requests);
                    return Err(fatal(format!("{req:?}: {other:?}")));
                }
            };
            wrong = wrong.or(problem);
        }
        Ok(wrong)
    }
}

struct Plan {
    gets: [i64; 2],
    base: i64,
    ins_key: i64,
}

impl Driver for ServedDriver {
    fn run(&mut self, requests: &mut Vec<u64>) -> TxnEnd {
        let keys = self.keys as u64;
        let plan = Plan {
            gets: [
                self.rng.skewed(keys) as i64 * STRIDE,
                self.rng.skewed(keys) as i64 * STRIDE,
            ],
            base: self.rng.skewed(keys - RANGE_KEYS as u64) as i64 * STRIDE,
            // Reads are skewed; inserts are spread evenly, so no range grows
            // much denser than the others while the window runs.
            ins_key: self.rng.below(keys) as i64 * STRIDE + 1 + self.rng.below(CLIENT_GAPS) as i64,
        };
        let mut last = String::new();
        for _ in 0..MAX_ATTEMPTS {
            match self.attempt(&plan, requests) {
                Ok(None) => return TxnEnd::Committed,
                Ok(Some(wrong)) => return TxnEnd::Wrong(wrong),
                Err((true, msg)) => last = msg,
                Err((false, msg)) => return TxnEnd::Failed(msg),
            }
        }
        TxnEnd::Failed(format!("retries exhausted: {last}"))
    }
}

/// Encode and decode cost, and bytes on the wire, of one transaction's
/// six requests and their replies (probe; no socket involved).
pub fn wire_probe() -> (f64, f64, f64) {
    let row = |key: i64| (key, payload_of(key));
    let reqs = [
        Request::Begin,
        Request::Get {
            index: INDEX.into(),
            key: 10,
        },
        Request::Get {
            index: INDEX.into(),
            key: 20,
        },
        Request::Range {
            index: INDEX.into(),
            lo: 0,
            hi: RANGE_KEYS * STRIDE - 1,
        },
        Request::Insert {
            index: INDEX.into(),
            key: 11,
            payload: payload_of(11),
        },
        Request::Commit,
    ];
    let rsps = [
        Response::Begun,
        Response::Rows {
            rows: vec![row(10)],
            truncated: false,
        },
        Response::Rows {
            rows: vec![row(20)],
            truncated: false,
        },
        Response::Rows {
            rows: (0..RANGE_KEYS).map(|k| row(k * STRIDE)).collect(),
            truncated: false,
        },
        Response::Ok,
        Response::Ok,
    ];
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| r.encode())
        .chain(rsps.iter().map(|r| r.encode()))
        .map(|body| encode_frame(&body).expect("frame"))
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let rounds = 2_000;
    let messages = (rounds * (reqs.len() + rsps.len())) as f64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for r in &reqs {
            std::hint::black_box(encode_frame(&r.encode()));
        }
        for r in &rsps {
            std::hint::black_box(encode_frame(&r.encode()));
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / messages;
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut dec = FrameDecoder::new();
        for (i, frame) in frames.iter().enumerate() {
            dec.feed(frame);
            let body = dec
                .next_frame()
                .expect("decode frame")
                .expect("whole frame");
            if i < reqs.len() {
                std::hint::black_box(Request::decode(&body).expect("decode request"));
            } else {
                std::hint::black_box(Response::decode(&body).expect("decode response"));
            }
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / messages;
    (encode_ns, decode_ns, bytes as f64)
}

/// Flush whatever a failed run left in the server's log to stderr.
pub fn dump_log(server: &Server) {
    let _ = writeln!(
        std::io::stderr(),
        "--- gist-serve log ---\n{}",
        server.log_text()
    );
}
