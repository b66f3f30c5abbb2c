//! Frame layer: `[magic][len][crc][body]` with an incremental decoder.

use crate::WireError;

/// Frame magic word ("GSW1" little-endian). A stream positioned anywhere
/// but a frame boundary fails this check immediately instead of reading
/// garbage lengths.
pub const MAGIC: u32 = 0x3157_5347;

/// Frame header size: magic (4) + body length (4) + checksum (8).
pub const FRAME_HEADER: usize = 16;

/// Hard cap on a frame body. Declared lengths are validated against
/// this *before* any buffer is grown, so a hostile or corrupted header
/// cannot make the decoder allocate unboundedly.
pub const MAX_FRAME: usize = 1 << 20;

/// Byte-at-a-time FNV-1a over `bytes`, finished with Murmur3's fmix64
/// avalanche, so a torn frame is detected, never misparsed. Not the
/// page/WAL checksum (`gist_wal::stable_hash_bytes` folds eight bytes
/// per step and gives different digests); this one is part of the wire
/// format and stays as it is.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Wrap a message body in a frame. Returns `None` when the body exceeds
/// [`MAX_FRAME`] (the caller built something the peer would reject).
pub fn encode_frame(body: &[u8]) -> Option<Vec<u8>> {
    if body.len() > MAX_FRAME {
        return None;
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    Some(out)
}

/// Incremental frame decoder: buffers arbitrarily-sliced input and
/// yields complete, checksum-verified frame bodies.
///
/// Once any method returns an error the decoder is **poisoned** — the
/// stream position is no longer trustworthy (a bad magic or length
/// means resynchronization is guesswork), so every later call returns
/// the same error and the owning connection must be dropped.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// First error observed; sticky.
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Append freshly-read bytes. A partial header or body is fine —
    /// that is the point.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Pop the next complete frame body, `Ok(None)` when more input is
    /// needed. Errors are sticky (see the type docs).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.try_frame() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = Some(e.clone());
                self.buf.clear();
                Err(e)
            }
        }
    }

    fn try_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let word = |at: usize| {
            let mut v = [0u8; 4];
            v.copy_from_slice(&self.buf[at..at + 4]);
            u32::from_le_bytes(v)
        };
        let magic = word(0);
        if magic != MAGIC {
            return Err(WireError::BadMagic { got: magic });
        }
        let len = word(4) as usize;
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge { len: len as u64 });
        }
        if self.buf.len() < FRAME_HEADER + len {
            return Ok(None); // body still in flight
        }
        let mut want = [0u8; 8];
        want.copy_from_slice(&self.buf[8..16]);
        let want = u64::from_le_bytes(want);
        let body: Vec<u8> = self.buf[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        let got = checksum(&body);
        if got != want {
            return Err(WireError::BadChecksum { want, got });
        }
        self.buf.drain(..FRAME_HEADER + len);
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_partial_feeds() {
        let body = b"hello frames".to_vec();
        let wire = encode_frame(&body).unwrap();
        // Feed one byte at a time: no frame until the very last byte.
        let mut dec = FrameDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(&[*b]);
            let out = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(out.is_none(), "frame surfaced early at byte {i}");
            } else {
                assert_eq!(out.unwrap(), body);
            }
        }
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let mut wire = encode_frame(b"a").unwrap();
        wire.extend(encode_frame(b"bb").unwrap());
        wire.extend(encode_frame(b"").unwrap());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"bb");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"");
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn bad_magic_poisons() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xFF; FRAME_HEADER]);
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }), "{err}");
        // Sticky: even valid bytes afterwards keep failing.
        dec.feed(&encode_frame(b"x").unwrap());
        assert_eq!(dec.next_frame().unwrap_err(), err);
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC.to_le_bytes());
        hdr.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&hdr);
        assert!(matches!(dec.next_frame().unwrap_err(), WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn flipped_body_byte_fails_checksum() {
        let mut wire = encode_frame(b"payload bytes").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame().unwrap_err(), WireError::BadChecksum { .. }));
    }

    #[test]
    fn encode_refuses_oversized_body() {
        assert!(encode_frame(&vec![0u8; MAX_FRAME]).is_some());
        assert!(encode_frame(&vec![0u8; MAX_FRAME + 1]).is_none());
    }
}
