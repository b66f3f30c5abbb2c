//! The on-disk checksum shared by page images (`gist-pagestore`) and WAL
//! file frames ([`crate::LogManager::persist_file`]).

/// Stable 64-bit digest of a byte slice: FNV-1a folding eight bytes per
/// multiply step (little-endian words, then the tail byte by byte),
/// finished with Murmur3's fmix64 avalanche. Hashing a word per multiply
/// keeps the cost of checksumming an 8 KiB page well under the cost of
/// the I/O it guards; no length prefix enters the digest, so the value
/// is reproducible from the on-disk bytes alone. The construction is
/// part of the page and WAL file formats and must never change.
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}
