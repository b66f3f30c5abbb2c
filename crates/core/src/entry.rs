//! On-page entry encodings.
//!
//! Slot 0 of every node holds the node's own bounding predicate (the
//! paper's Table 1 `Parent-Entry-Update` record "update[s] BP in child
//! and corresponding slot in parent", implying the child stores its BP
//! too). Slots ≥ 1 hold entries:
//!
//! - leaf entry: `[flags u8][deleter u64][rid.page u32][rid.slot u16][key…]`
//!   where flag bit 0 is the logical-delete mark (§7) and `deleter` is the
//!   marking transaction,
//! - internal entry: `[child u32][pred…]`.
//!
//! Two ways to read a cell: the borrowed views [`LeafEntryRef`] /
//! [`InternalEntryRef`] (fixed-offset field reads over the page bytes, no
//! allocation — what every traversal uses), and the owning
//! [`LeafEntry`] / [`InternalEntry`] for the few places that keep an
//! entry past the latch (split redistribution, log-record construction).
//! Both read the same bytes; the cell format has exactly one definition.

use gist_pagestore::{PageId, Rid};
use gist_wal::TxnId;

const LEAF_HEADER: usize = 1 + 8 + 4 + 2;
const INTERNAL_HEADER: usize = 4;
const FLAG_DELETED: u8 = 1 << 0;

// Little-endian field reads; the length asserts in the callers make the
// sub-slice indexing infallible.
#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

#[inline]
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

#[inline]
fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
}

/// Decoded leaf entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafEntry {
    /// Encoded key.
    pub key_bytes: Vec<u8>,
    /// The data record this entry points at.
    pub rid: Rid,
    /// Logical-delete mark (§7): set instead of physical removal so that
    /// Degree 3 searches block on the deleter's record lock.
    pub deleted: bool,
    /// Transaction that set the mark ([`TxnId::NONE`] when unmarked).
    pub deleter: TxnId,
}

impl LeafEntry {
    /// A live (unmarked) entry.
    pub fn new(key_bytes: Vec<u8>, rid: Rid) -> Self {
        LeafEntry { key_bytes, rid, deleted: false, deleter: TxnId::NONE }
    }

    /// Serialize to a page cell.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LEAF_HEADER + self.key_bytes.len());
        out.push(if self.deleted { FLAG_DELETED } else { 0 });
        out.extend_from_slice(&self.deleter.0.to_le_bytes());
        out.extend_from_slice(&self.rid.page.0.to_le_bytes());
        out.extend_from_slice(&self.rid.slot.to_le_bytes());
        out.extend_from_slice(&self.key_bytes);
        out
    }

    /// Deserialize from a page cell into an owned entry (copies the key).
    ///
    /// # Panics
    /// Panics on truncated cells — a malformed leaf cell means page
    /// corruption, which must not be papered over.
    pub fn decode(cell: &[u8]) -> Self {
        LeafEntryRef::new(cell).to_owned()
    }

    /// Read just the RID without decoding the key (logical undo locates
    /// entries by RID).
    pub fn decode_rid(cell: &[u8]) -> Rid {
        LeafEntryRef::new(cell).rid()
    }

    /// Produce the cell with the delete mark set/cleared in place (the
    /// rest of the cell is byte-identical, so mark/unmark is an in-place
    /// `update_cell`).
    pub fn with_mark(cell: &[u8], deleted: bool, deleter: TxnId) -> Vec<u8> {
        let mut out = cell.to_vec();
        out[0] = if deleted { FLAG_DELETED } else { 0 };
        out[1..9].copy_from_slice(&deleter.0.to_le_bytes());
        out
    }
}

/// Borrowed view of a leaf cell: every field is a fixed-offset read of
/// the page bytes, the key is a sub-slice. Valid for as long as the page
/// (latched guard or optimistic private copy) it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct LeafEntryRef<'a> {
    cell: &'a [u8],
}

impl<'a> LeafEntryRef<'a> {
    /// View `cell` as a leaf entry.
    ///
    /// # Panics
    /// Panics on truncated cells — a malformed leaf cell means page
    /// corruption, which must not be papered over.
    #[inline]
    pub fn new(cell: &'a [u8]) -> Self {
        assert!(cell.len() >= LEAF_HEADER, "leaf cell too short: {}", cell.len());
        LeafEntryRef { cell }
    }

    /// The data record this entry points at.
    #[inline]
    pub fn rid(self) -> Rid {
        Rid::new(PageId(le_u32(&self.cell[9..13])), le_u16(&self.cell[13..15]))
    }

    /// Logical-delete mark (§7).
    #[inline]
    pub fn deleted(self) -> bool {
        self.cell[0] & FLAG_DELETED != 0
    }

    /// Transaction that set the mark ([`TxnId::NONE`] when unmarked).
    #[inline]
    pub fn deleter(self) -> TxnId {
        TxnId(le_u64(&self.cell[1..9]))
    }

    /// Encoded key, in place.
    #[inline]
    pub fn key_bytes(self) -> &'a [u8] {
        &self.cell[LEAF_HEADER..]
    }

    /// Copy out an owned entry.
    pub fn to_owned(self) -> LeafEntry {
        LeafEntry {
            key_bytes: self.key_bytes().to_vec(),
            rid: self.rid(),
            deleted: self.deleted(),
            deleter: self.deleter(),
        }
    }
}

/// Decoded internal entry: `(predicate, child page pointer)` — the paper's
/// §3 point that NSNs remove the R-link tree's need for a third,
/// per-entry sequence-number field is visible here: two fields only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalEntry {
    /// Child page.
    pub child: PageId,
    /// Encoded bounding predicate of the child.
    pub pred_bytes: Vec<u8>,
}

impl InternalEntry {
    /// Construct.
    pub fn new(child: PageId, pred_bytes: Vec<u8>) -> Self {
        InternalEntry { child, pred_bytes }
    }

    /// Serialize to a page cell.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(INTERNAL_HEADER + self.pred_bytes.len());
        out.extend_from_slice(&self.child.0.to_le_bytes());
        out.extend_from_slice(&self.pred_bytes);
        out
    }

    /// Deserialize from a page cell into an owned entry (copies the
    /// predicate).
    pub fn decode(cell: &[u8]) -> Self {
        InternalEntryRef::new(cell).to_owned()
    }

    /// Read just the child pointer.
    pub fn decode_child(cell: &[u8]) -> PageId {
        InternalEntryRef::new(cell).child()
    }
}

/// Borrowed view of an internal cell (see [`LeafEntryRef`]).
#[derive(Debug, Clone, Copy)]
pub struct InternalEntryRef<'a> {
    cell: &'a [u8],
}

impl<'a> InternalEntryRef<'a> {
    /// View `cell` as an internal entry.
    ///
    /// # Panics
    /// Panics on truncated cells (page corruption).
    #[inline]
    pub fn new(cell: &'a [u8]) -> Self {
        assert!(cell.len() >= INTERNAL_HEADER, "internal cell too short: {}", cell.len());
        InternalEntryRef { cell }
    }

    /// Child page.
    #[inline]
    pub fn child(self) -> PageId {
        PageId(le_u32(&self.cell[..INTERNAL_HEADER]))
    }

    /// Encoded bounding predicate of the child, in place.
    #[inline]
    pub fn pred_bytes(self) -> &'a [u8] {
        &self.cell[INTERNAL_HEADER..]
    }

    /// Copy out an owned entry.
    pub fn to_owned(self) -> InternalEntry {
        InternalEntry { child: self.child(), pred_bytes: self.pred_bytes().to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let e = LeafEntry::new(vec![1, 2, 3], Rid::new(PageId(9), 4));
        let cell = e.encode();
        assert_eq!(LeafEntry::decode(&cell), e);
        assert_eq!(LeafEntry::decode_rid(&cell), e.rid);
        let view = LeafEntryRef::new(&cell);
        assert_eq!((view.deleted(), view.deleter()), (false, TxnId::NONE));
    }

    #[test]
    fn mark_is_in_place() {
        let e = LeafEntry::new(vec![7; 10], Rid::new(PageId(1), 2));
        let cell = e.encode();
        let marked = LeafEntry::with_mark(&cell, true, TxnId(42));
        assert_eq!(marked.len(), cell.len(), "same size: in-place update ok");
        let d = LeafEntry::decode(&marked);
        assert!(d.deleted);
        assert_eq!(d.deleter, TxnId(42));
        assert_eq!(d.key_bytes, e.key_bytes);
        let unmarked = LeafEntry::with_mark(&marked, false, TxnId::NONE);
        assert_eq!(unmarked, cell, "unmark restores the original bytes");
    }

    #[test]
    fn internal_roundtrip() {
        let e = InternalEntry::new(PageId(5), vec![9, 9, 9]);
        let cell = e.encode();
        assert_eq!(InternalEntry::decode(&cell), e);
        assert_eq!(InternalEntry::decode_child(&cell), PageId(5));
    }

    #[test]
    fn empty_key_and_pred_are_legal() {
        let l = LeafEntry::new(vec![], Rid::new(PageId(1), 0));
        assert_eq!(LeafEntry::decode(&l.encode()), l);
        let i = InternalEntry::new(PageId(2), vec![]);
        assert_eq!(InternalEntry::decode(&i.encode()), i);
    }

    #[test]
    #[should_panic]
    fn truncated_leaf_cell_panics() {
        LeafEntry::decode(&[0, 1, 2]);
    }
}
