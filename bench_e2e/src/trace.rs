//! Outside-in tracing: spans around the benchmark's own calls into the
//! engine, and a [`TimedStore`] around the page file.
//!
//! Nothing here lives inside the engine. Each client thread records spans
//! into its own buffer (`{kind, start, end, parent, txn}`), the buffers
//! are handed back when the thread ends, and the file is written once at
//! exit. A span's *self time* is its duration minus its children's.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use gist_repro::pagestore::{FileStore, Page, PageId, PageStore};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One `run_txn` call (or one wire transaction), retries included.
    Txn,
    /// `run_txn` entry → closure entry on the first attempt: `try_begin`.
    Begin,
    /// A failed attempt's end → the next closure entry: abort, backoff
    /// sleep and the new `try_begin`.
    Retry,
    /// Last closure exit → `run_txn` return: `Db::commit`.
    Commit,
    Search,
    Range,
    Insert,
    Delete,
    /// One `Client::call` round trip.
    Call,
    StoreRead,
    StoreWrite,
    StoreSync,
}

pub const KINDS: [Kind; 12] = [
    Kind::Txn,
    Kind::Begin,
    Kind::Retry,
    Kind::Commit,
    Kind::Search,
    Kind::Range,
    Kind::Insert,
    Kind::Delete,
    Kind::Call,
    Kind::StoreRead,
    Kind::StoreWrite,
    Kind::StoreSync,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Begin => "begin",
            Kind::Retry => "retry",
            Kind::Commit => "commit",
            Kind::Search => "search",
            Kind::Range => "range",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Call => "call",
            Kind::StoreRead => "store_read",
            Kind::StoreWrite => "store_write",
            Kind::StoreSync => "store_sync",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// Per-thread transaction sequence number shared by a txn's spans.
    pub txn: u64,
}

#[derive(Default)]
struct ThreadTrace {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    txn: u64,
}

thread_local! {
    static TT: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Set while a traced window is open; [`TimedStore`] passes straight
/// through when clear.
static TRACING: AtomicBool = AtomicBool::new(false);

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// Turn span recording on or off for the calling thread.
pub fn thread_enable(on: bool) {
    TT.with_borrow_mut(|t| t.on = on);
}

/// Hand back (and clear) the calling thread's span buffer.
pub fn thread_take() -> Vec<Span> {
    TT.with_borrow_mut(|t| std::mem::take(&mut t.spans))
}

/// Open a span now; `None` when this thread is not recording.
pub fn open(kind: Kind) -> Option<u32> {
    open_at(kind, now_ns())
}

fn open_at(kind: Kind, start: u64) -> Option<u32> {
    TT.with_borrow_mut(|t| {
        if !t.on {
            return None;
        }
        if kind == Kind::Txn {
            t.txn += 1;
        }
        let id = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        t.spans.push(Span {
            kind,
            start,
            end: start,
            parent,
            txn: t.txn,
        });
        t.stack.push(id);
        Some(id)
    })
}

/// Close the span [`open`] returned. Spans opened inside it that were
/// left open (a panic unwound past them) are closed at the same instant.
pub fn close(id: Option<u32>) {
    let Some(id) = id else { return };
    let end = now_ns();
    TT.with_borrow_mut(|t| {
        while let Some(top) = t.stack.pop() {
            t.spans[top as usize].end = end;
            if top == id {
                break;
            }
        }
    });
}

/// Run `f` inside a span.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    let id = open(kind);
    let out = f();
    close(id);
    out
}

/// Close the currently open gap span (`Begin`/`Retry`/`Commit`), if that
/// is what is on top, and open `next` at the same instant. The gap spans
/// tile the parts of `run_txn` that run outside the caller's closure.
pub fn gap(next: Option<Kind>) {
    let now = now_ns();
    TT.with_borrow_mut(|t| {
        if !t.on {
            return;
        }
        if let Some(&top) = t.stack.last() {
            if matches!(
                t.spans[top as usize].kind,
                Kind::Begin | Kind::Retry | Kind::Commit
            ) {
                t.spans[top as usize].end = now;
                t.stack.pop();
            }
        }
    });
    if let Some(kind) = next {
        open_at(kind, now);
    }
}

/// Store I/O tallies for one side (client threads or background
/// threads): `[reads, read_ns, writes, write_ns, syncs, sync_ns]`.
#[derive(Default)]
pub struct IoTally([AtomicU64; 6]);

impl IoTally {
    fn add(&self, slot: usize, ns: u64) {
        self.0[slot * 2].fetch_add(1, Ordering::Relaxed);
        self.0[slot * 2 + 1].fetch_add(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; 6] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// A [`FileStore`] whose reads, writes and syncs are timed while a traced
/// window is open. On a recording client thread the I/O also becomes a
/// span under the operation that caused it; flusher and maintenance
/// threads have no buffer and are tallied as background.
pub struct TimedStore {
    inner: FileStore,
    pub foreground: IoTally,
    pub background: IoTally,
}

impl TimedStore {
    pub fn new(inner: FileStore) -> Self {
        TimedStore {
            inner,
            foreground: IoTally::default(),
            background: IoTally::default(),
        }
    }

    fn timed<T>(&self, slot: usize, kind: Kind, f: impl FnOnce() -> T) -> T {
        if !TRACING.load(Ordering::Relaxed) {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        let recorded = TT.with_borrow_mut(|t| {
            if !t.on {
                return false;
            }
            let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
            t.spans.push(Span {
                kind,
                start,
                end,
                parent,
                txn: t.txn,
            });
            true
        });
        let tally = if recorded {
            &self.foreground
        } else {
            &self.background
        };
        tally.add(slot, end - start);
        out
    }
}

impl PageStore for TimedStore {
    fn read(&self, id: PageId, page: &mut Page) -> io::Result<()> {
        self.timed(0, Kind::StoreRead, || self.inner.read(id, page))
    }

    fn write(&self, id: PageId, page: &Page) -> io::Result<()> {
        self.timed(1, Kind::StoreWrite, || self.inner.write(id, page))
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn ensure_capacity(&self, count: u32) -> io::Result<()> {
        self.inner.ensure_capacity(count)
    }

    fn sync(&self) -> io::Result<()> {
        self.timed(2, Kind::StoreSync, || self.inner.sync())
    }
}

/// Per-kind totals over a set of span buffers.
#[derive(Debug, Clone, Default)]
pub struct KindTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations, for percentiles.
    pub durations: Vec<u64>,
}

/// Fold span buffers into per-kind call counts, total and self time.
pub fn totals(buffers: &[Vec<Span>]) -> Vec<KindTotals> {
    let mut out = vec![KindTotals::default(); KINDS.len()];
    for spans in buffers {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let k = &mut out[s.kind as usize];
            let dur = s.end - s.start;
            k.calls += 1;
            k.total_ns += dur;
            k.self_ns += dur.saturating_sub(child);
            k.durations.push(dur);
        }
    }
    out
}

/// Spans written to the file at most (the earliest of each thread); the
/// totals above always use every span.
pub const FILE_SPAN_CAP: usize = 200_000;

/// Write the buffers as JSON lines, once, at exit.
pub fn write_file(path: &Path, buffers: &[Vec<Span>]) -> io::Result<usize> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    let per_thread = FILE_SPAN_CAP / buffers.len().max(1);
    let mut written = 0;
    for (thread, spans) in buffers.iter().enumerate() {
        for (id, s) in spans.iter().take(per_thread).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"thread\": {thread}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
                s.kind.name(),
                s.start,
                s.end,
                s.txn
            )?;
            written += 1;
        }
    }
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_gaps_tile() {
        thread_enable(true);
        let root = open(Kind::Txn);
        gap(Some(Kind::Begin));
        gap(None);
        span(Kind::Search, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        gap(Some(Kind::Commit));
        gap(None);
        close(root);
        thread_enable(false);
        assert!(open(Kind::Txn).is_none(), "recording is off again");
        let spans = thread_take();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == 0 && s.txn == spans[0].txn));
        let t = totals(&[spans]);
        let txn = &t[Kind::Txn as usize];
        let search = &t[Kind::Search as usize];
        assert_eq!((txn.calls, search.calls), (1, 1));
        assert!(search.total_ns >= 2_000_000);
        assert!(txn.self_ns < txn.total_ns - search.total_ns + 1);
    }
}
