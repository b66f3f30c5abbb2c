//! Typed node operations over slotted pages.
//!
//! Convention: slot 0 of every index node holds the node's own bounding
//! predicate; slots ≥ 1 hold leaf or internal entries. All functions here
//! are pure page manipulation — logging and latching are the callers'
//! concern.

use gist_pagestore::{Page, PageFull, Rid, SlotId};

use crate::entry::{InternalEntryRef, LeafEntryRef};

/// Slot holding the node's own BP.
pub const BP_SLOT: SlotId = 0;

/// Initialize a freshly formatted page as an index node with the given
/// encoded BP.
pub fn init_node(page: &mut Page, bp_bytes: &[u8]) {
    let slot = page
        .insert_cell(bp_bytes)
        .unwrap_or_else(|e| panic!("BP must fit on an empty page: {e}"));
    assert_eq!(slot, BP_SLOT, "BP must land in slot 0 of a fresh node");
}

/// The node's encoded BP.
pub fn bp_bytes(page: &Page) -> &[u8] {
    page.cell(BP_SLOT)
        .unwrap_or_else(|| panic!("index node {} has no BP in slot 0", page.page_id()))
}

/// Replace the node's BP.
pub fn set_bp(page: &mut Page, bp_bytes: &[u8]) -> Result<(), PageFull> {
    page.update_cell(BP_SLOT, bp_bytes)
}

/// Iterate `(slot, cell)` over entry slots (skipping the BP slot).
#[inline]
pub fn entry_cells(page: &Page) -> impl Iterator<Item = (SlotId, &[u8])> {
    page.iter_cells().filter(|(s, _)| *s != BP_SLOT)
}

/// Number of entries (excluding the BP).
pub fn entry_count(page: &Page) -> usize {
    entry_cells(page).count()
}

/// Borrowed views of a leaf's entries, in slot order. Nothing is copied:
/// the views read the page bytes in place.
#[inline]
pub fn leaf_views(page: &Page) -> impl Iterator<Item = (SlotId, LeafEntryRef<'_>)> {
    debug_assert!(page.is_leaf());
    entry_cells(page).map(|(s, c)| (s, LeafEntryRef::new(c)))
}

/// Borrowed views of an internal node's entries, in slot order.
#[inline]
pub fn internal_views(page: &Page) -> impl Iterator<Item = (SlotId, InternalEntryRef<'_>)> {
    debug_assert!(!page.is_leaf());
    entry_cells(page).map(|(s, c)| (s, InternalEntryRef::new(c)))
}

/// Slot of the internal entry pointing at `child`.
pub fn find_child_entry(page: &Page, child: gist_pagestore::PageId) -> Option<SlotId> {
    entry_cells(page).find(|(_, c)| InternalEntryRef::new(c).child() == child).map(|(s, _)| s)
}

/// Slot of the leaf entry whose data RID is `rid` (logical undo and
/// delete both locate entries by RID — RIDs are unique across the leaf
/// level because "exactly one GiST leaf entry points to a given data
/// record", §2).
pub fn find_leaf_by_rid(page: &Page, rid: Rid) -> Option<SlotId> {
    entry_cells(page).find(|(_, c)| LeafEntryRef::new(c).rid() == rid).map(|(s, _)| s)
}

/// Whether the page has room for another cell of `len` bytes.
pub fn has_room(page: &Page, len: usize) -> bool {
    page.free_for_insert() >= len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{InternalEntry, LeafEntry};
    use gist_pagestore::PageId;

    fn fresh_leaf() -> Page {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        init_node(&mut p, b"bp0");
        p
    }

    #[test]
    fn bp_lives_in_slot_zero() {
        let mut p = fresh_leaf();
        assert_eq!(bp_bytes(&p), b"bp0");
        set_bp(&mut p, b"bigger-bp").unwrap();
        assert_eq!(bp_bytes(&p), b"bigger-bp");
        assert_eq!(entry_count(&p), 0);
    }

    #[test]
    fn entries_skip_bp_slot() {
        let mut p = fresh_leaf();
        let e1 = LeafEntry::new(vec![1], Rid::new(PageId(10), 0));
        let e2 = LeafEntry::new(vec![2], Rid::new(PageId(10), 1));
        p.insert_cell(&e1.encode()).unwrap();
        p.insert_cell(&e2.encode()).unwrap();
        let entries: Vec<_> = leaf_views(&p).collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(s, _)| *s != BP_SLOT));
        assert_eq!(entries[1].1.to_owned(), e2);
    }

    #[test]
    fn find_by_rid_and_child() {
        let mut leaf = fresh_leaf();
        let rid = Rid::new(PageId(3), 7);
        leaf.insert_cell(&LeafEntry::new(vec![9], rid).encode()).unwrap();
        let slot = find_leaf_by_rid(&leaf, rid).unwrap();
        assert_eq!(LeafEntryRef::new(leaf.cell(slot).unwrap()).rid(), rid);
        assert!(find_leaf_by_rid(&leaf, Rid::new(PageId(3), 8)).is_none());

        let mut internal = Page::zeroed();
        internal.format(PageId(2), 1);
        init_node(&mut internal, b"bp");
        internal.insert_cell(&InternalEntry::new(PageId(5), vec![1]).encode()).unwrap();
        internal.insert_cell(&InternalEntry::new(PageId(6), vec![2]).encode()).unwrap();
        let slot = find_child_entry(&internal, PageId(6)).unwrap();
        assert_eq!(InternalEntryRef::new(internal.cell(slot).unwrap()).pred_bytes(), &[2]);
        assert!(find_child_entry(&internal, PageId(7)).is_none());
    }
}
