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

/// The order summary of a node: words `2s` and `2s + 1` hold the
/// `[lo, hi]` interval `order` gives slot `s`'s key (leaf) or predicate
/// (internal node), `[0, u64::MAX]` where it gives none. The BP slot and
/// vacant slots hold the empty interval `[u64::MAX, 0]`. One allocation;
/// takes no lock and blocks on nothing.
pub fn summarize(page: &Page, order: impl Fn(&[u8], bool) -> Option<[u64; 2]>) -> Box<[u64]> {
    let mut words = vec![0u64; 2 * page.slot_count() as usize];
    words.chunks_exact_mut(2).for_each(|w| w[0] = u64::MAX);
    let leaf = page.is_leaf();
    for (slot, cell) in entry_cells(page) {
        let bytes = if leaf {
            LeafEntryRef::new(cell).key_bytes()
        } else {
            InternalEntryRef::new(cell).pred_bytes()
        };
        let [lo, hi] = order(bytes, leaf).unwrap_or([0, u64::MAX]);
        words[2 * slot as usize..2 * slot as usize + 2].copy_from_slice(&[lo, hi]);
    }
    words.into_boxed_slice()
}

/// The entry cells a scan tests, in slot order: every entry, or only
/// those whose interval in the node's summary meets the query's.
pub enum ScanCells<'a, A> {
    /// No order: every entry ([`entry_cells`]).
    All(A),
    /// The node's summary words, walked two at a time.
    Within {
        /// The node.
        page: &'a Page,
        /// `(slot, [lo, hi])` of the summary, in slot order.
        words: std::iter::Enumerate<std::slice::ChunksExact<'a, u64>>,
        /// The query's interval.
        window: [u64; 2],
    },
}

/// The scan of `page`'s entries: with `(window, summary)`, a query's
/// interval and the node's [`summarize`]d words, only the entries whose
/// interval meets the window; without, every entry.
#[inline]
pub fn scan_cells<'a>(
    page: &'a Page,
    within: Option<([u64; 2], &'a [u64])>,
) -> ScanCells<'a, impl Iterator<Item = (SlotId, &'a [u8])>> {
    match within {
        None => ScanCells::All(entry_cells(page)),
        Some((window, summary)) => {
            ScanCells::Within { page, words: summary.chunks_exact(2).enumerate(), window }
        }
    }
}

impl<'a, A: Iterator<Item = (SlotId, &'a [u8])>> Iterator for ScanCells<'a, A> {
    type Item = (SlotId, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ScanCells::All(all) => all.next(),
            ScanCells::Within { page, words, window: [lo, hi] } => loop {
                let (slot, _) = words.find(|(_, w)| w[0] <= *hi && *lo <= w[1])?;
                // The empty interval of the BP slot and of vacant slots
                // meets only a window of every value.
                let slot = slot as SlotId;
                if let Some(cell) = page.cell(slot).filter(|_| slot != BP_SLOT) {
                    return Some((slot, cell));
                }
            },
        }
    }
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
