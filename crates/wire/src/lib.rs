#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gist-wire — the serving layer's binary protocol
//!
//! Every message travels inside a **frame** that identifies itself the
//! same way the repo's slotted pages and WAL records do: a magic word,
//! an explicit length, and a checksum over the body, so that a torn or
//! corrupted frame is *detected* — typed error, connection-level
//! decision — and never misparsed into a plausible-looking request.
//!
//! ```text
//! [magic u32][len u32][crc u64][body: len bytes]      (header 16 bytes)
//! ```
//!
//! Inside a frame, [`Request`] and [`Response`] serialize with a 1-byte
//! tag followed by fixed-width little-endian fields and length-prefixed
//! byte strings. Decoding is **fuzz-safe by contract**: every read is
//! bounds-checked through the `Reader` cursor, every length is capped
//! before any allocation, and malformed input of any shape yields a
//! typed [`WireError`] — never a panic, never an out-of-bounds slice.
//! `tests/serve.rs` holds the protocol corpus that drives arbitrary and
//! truncated bytes through both layers to pin that contract.
//!
//! The [`FrameDecoder`] is incremental: feed it whatever a socket read
//! returned — half a header, three frames and a tail, one byte — and it
//! yields complete frame bodies as they materialize, holding partial
//! input across calls. That is what makes the serving layer's
//! deadline-sliced reads (and the `FaultTransport` shim's short reads)
//! lossless.

mod frame;
mod msg;

pub use frame::{checksum, encode_frame, FrameDecoder, FRAME_HEADER, MAGIC, MAX_FRAME};
pub use msg::{
    encoded_row_size, ErrorCode, Request, Response, MAX_NAME, MAX_PAYLOAD, MAX_ROWS,
    ROWS_BYTE_BUDGET,
};

use std::fmt;

/// Typed decode/encode failures. `Truncated` is the only "benign" kind:
/// the incremental decoder reports it internally to mean "wait for more
/// bytes"; surfaced from a complete frame body it means the body lied
/// about its own lengths and is as fatal as any other variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame header did not start with [`MAGIC`] — the stream is
    /// desynchronized or the peer is not speaking this protocol.
    BadMagic {
        /// The word actually read.
        got: u32,
    },
    /// Declared frame length exceeds [`MAX_FRAME`] (decoded before any
    /// allocation, so a hostile length cannot balloon memory).
    FrameTooLarge {
        /// The declared body length.
        len: u64,
    },
    /// Frame body failed its checksum (torn or bit-flipped in flight).
    BadChecksum {
        /// Checksum declared by the header.
        want: u64,
        /// Checksum computed over the received body.
        got: u64,
    },
    /// A message field ran past the end of its frame body, or a
    /// length-prefixed field exceeded its cap.
    Truncated,
    /// Structurally intact but semantically invalid: unknown tag,
    /// non-UTF-8 name, inconsistent element count.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (stream desynchronized)")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "declared frame length {len} exceeds cap {MAX_FRAME}")
            }
            WireError::BadChecksum { want, got } => {
                write!(f, "frame checksum mismatch (header {want:#018x}, body {got:#018x})")
            }
            WireError::Truncated => write!(f, "message truncated mid-field"),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian cursor over a frame body. All `Reader`
/// methods return [`WireError::Truncated`] instead of slicing out of
/// bounds; nothing here can panic on hostile input.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut v = [0u8; 8];
        v.copy_from_slice(b);
        Ok(u64::from_le_bytes(v))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A `u32`-length-prefixed byte string, capped at `cap` *before*
    /// allocation.
    pub(crate) fn bytes(&mut self, cap: usize) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(WireError::Truncated);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// A capped, UTF-8-validated string.
    pub(crate) fn string(&mut self, cap: usize) -> Result<String, WireError> {
        String::from_utf8(self.bytes(cap)?).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }
}

/// Append helpers, the encode-side mirror of [`Reader`].
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(tag: u8) -> Self {
        Writer { buf: vec![tag] }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}
