//! Byte-level encoding of log records.
//!
//! A hand-written, dependency-free codec used by the file-backed log
//! ([`LogManager::persist_file`](crate::LogManager::persist_file)). The
//! format is little-endian, length-prefixed, and versioned by a single
//! leading tag byte per record body.

use crate::{LogRecord, Lsn, Payload, RecordBody, TxnId};

/// Codec failure (truncated input or unknown tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
// Tags 3 and 5 stay unassigned: `GISTWAL1` logs used them for the abort
// and savepoint records.
const TAG_END: u8 = 4;
const TAG_CLR: u8 = 6;
const TAG_NTA_END: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;
const TAG_PAYLOAD: u8 = 9;
const TAG_NOOP: u8 = 10;

/// Append a `u64` to `out`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` to `out`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u16` to `out`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string to `out`.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Cursor for decoding; tracks position and reports truncation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError(format!(
                "truncated: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Whether the whole buffer has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    put_u32(out, p.pages.len() as u32);
    for pg in &p.pages {
        put_u32(out, *pg);
    }
    put_bytes(out, &p.bytes);
}

fn read_payload(r: &mut Reader<'_>) -> Result<Payload, CodecError> {
    let n = r.u32()? as usize;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        pages.push(r.u32()?);
    }
    let bytes = r.bytes()?;
    Ok(Payload { pages, bytes })
}

/// Encode one record (without any outer length prefix).
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_u64(&mut out, rec.lsn.0);
    put_u64(&mut out, rec.prev_lsn.0);
    put_u64(&mut out, rec.txn.0);
    match &rec.body {
        RecordBody::TxnBegin => out.push(TAG_BEGIN),
        RecordBody::TxnCommit => out.push(TAG_COMMIT),
        RecordBody::TxnEnd => out.push(TAG_END),
        RecordBody::Clr { undo_next, redo } => {
            out.push(TAG_CLR);
            put_u64(&mut out, undo_next.0);
            put_payload(&mut out, redo);
        }
        RecordBody::NtaEnd { undo_next } => {
            out.push(TAG_NTA_END);
            put_u64(&mut out, undo_next.0);
        }
        RecordBody::Checkpoint { scan_start, active_txns, dirty_pages } => {
            out.push(TAG_CHECKPOINT);
            put_u64(&mut out, scan_start.0);
            put_u32(&mut out, active_txns.len() as u32);
            for (t, l) in active_txns {
                put_u64(&mut out, t.0);
                put_u64(&mut out, l.0);
            }
            put_u32(&mut out, dirty_pages.len() as u32);
            for (p, l) in dirty_pages {
                put_u32(&mut out, *p);
                put_u64(&mut out, l.0);
            }
        }
        RecordBody::Payload(p) => {
            out.push(TAG_PAYLOAD);
            put_payload(&mut out, p);
        }
        RecordBody::Noop => out.push(TAG_NOOP),
    }
    out
}

/// Decode one record previously produced by [`encode_record`].
pub fn decode_record(buf: &[u8]) -> Result<LogRecord, CodecError> {
    let mut r = Reader::new(buf);
    let lsn = Lsn(r.u64()?);
    let prev_lsn = Lsn(r.u64()?);
    let txn = TxnId(r.u64()?);
    let tag = r.u8()?;
    let body = match tag {
        TAG_BEGIN => RecordBody::TxnBegin,
        TAG_COMMIT => RecordBody::TxnCommit,
        TAG_END => RecordBody::TxnEnd,
        TAG_CLR => {
            let undo_next = Lsn(r.u64()?);
            let redo = read_payload(&mut r)?;
            RecordBody::Clr { undo_next, redo }
        }
        TAG_NTA_END => RecordBody::NtaEnd { undo_next: Lsn(r.u64()?) },
        TAG_CHECKPOINT => {
            let scan_start = Lsn(r.u64()?);
            let n = r.u32()? as usize;
            let mut active_txns = Vec::with_capacity(n);
            for _ in 0..n {
                let t = TxnId(r.u64()?);
                let l = Lsn(r.u64()?);
                active_txns.push((t, l));
            }
            let m = r.u32()? as usize;
            let mut dirty_pages = Vec::with_capacity(m);
            for _ in 0..m {
                let p = r.u32()?;
                let l = Lsn(r.u64()?);
                dirty_pages.push((p, l));
            }
            RecordBody::Checkpoint { scan_start, active_txns, dirty_pages }
        }
        TAG_PAYLOAD => RecordBody::Payload(read_payload(&mut r)?),
        TAG_NOOP => RecordBody::Noop,
        other => return Err(CodecError(format!("unknown record tag {other}"))),
    };
    if !r.exhausted() {
        return Err(CodecError("trailing bytes after record".into()));
    }
    Ok(LogRecord { lsn, prev_lsn, txn, body })
}
