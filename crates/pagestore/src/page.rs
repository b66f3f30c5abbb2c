//! Fixed-size pages with a slotted layout and the GiST header fields.
//!
//! Layout:
//!
//! ```text
//! 0        8        16         20       24      26      28          30          32        40
//! +--------+--------+----------+--------+-------+-------+-----------+-----------+---------+
//! | pageLSN|  NSN   | rightlink| page id| level | flags | slot count| cell start| checksum|
//! +--------+--------+----------+--------+-------+-------+-----------+-----------+---------+
//! | slot array (6 bytes per slot, grows up) ...                                           |
//! |                        free space                                                     |
//! |                               ... cells (grow down from PAGE_SIZE)                    |
//! +----------------------------------------------------------------------------------------+
//! ```
//!
//! The **NSN** (node sequence number) and **rightlink** are the §3
//! extensions that make node splits visible to concurrent traversals; the
//! availability flag backs the Table 1 `Get-Page` / `Free-Page` records.
//! Slot identifiers are stable across deletions and compaction so that
//! record identifiers ([`Rid`]) stay valid.
//!
//! The **checksum** covers every byte of the page except itself and is
//! stamped when the buffer pool writes a page back to the store and
//! verified when it loads one, so torn or bit-rotted on-disk images are
//! detected at the first fetch rather than corrupting the tree silently.
//! A stored checksum of `0` is reserved for "never stamped": it is
//! accepted only when the entire page image is zero (a page freshly
//! materialized by `ensure_capacity` that no flush has ever touched).

use std::fmt;

use gist_wal::Lsn;

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Size of the fixed page header.
pub const HEADER_SIZE: usize = 40;
/// Size of one slot-array entry.
pub const SLOT_SIZE: usize = 6;

const OFF_LSN: usize = 0;
const OFF_NSN: usize = 8;
const OFF_RIGHTLINK: usize = 16;
const OFF_PAGE_ID: usize = 20;
const OFF_LEVEL: usize = 24;
const OFF_FLAGS: usize = 26;
const OFF_SLOT_COUNT: usize = 28;
const OFF_CELL_START: usize = 30;
const OFF_CHECKSUM: usize = 32;

const FLAG_AVAILABLE: u16 = 1 << 0;

const SLOT_FLAG_VACANT: u16 = 1 << 0;

/// Page identifier: an index into the page store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (e.g. the rightlink of the rightmost node).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this is the no-page sentinel.
    #[inline]
    pub fn is_invalid(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_invalid() {
            write!(f, "P(-)")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Record identifier: a (page, slot) pair, the unit the hybrid locking
/// protocol two-phase-locks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Construct a RID.
    pub fn new(page: PageId, slot: SlotId) -> Self {
        Rid { page, slot }
    }
}

impl fmt::Debug for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rid({}.{})", self.page, self.slot)
    }
}

/// Hasher for the ids the engine assigns itself (page, record, lock,
/// predicate and transaction ids): one rotate-xor-multiply per word. No
/// client chooses these keys, so SipHash's resistance to hash flooding
/// buys nothing in the tables keyed by them, and they are probed on
/// every lock, predicate attach, begin, commit and frame fetch.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by engine-assigned ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// Slot index within a page.
pub type SlotId = u16;

/// Returned when a cell does not fit even after compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFull {
    /// Bytes requested (cell plus any new slot entry).
    pub needed: usize,
    /// Contiguous bytes available after compaction.
    pub available: usize,
}

impl fmt::Display for PageFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page full: need {} bytes, {} available", self.needed, self.available)
    }
}

impl std::error::Error for PageFull {}

/// An in-memory page image.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page { data: Box::new(*self.data) }
    }
}

impl Page {
    /// A zeroed page (slot count 0, cell start at page end, id 0).
    pub fn zeroed() -> Self {
        let mut p = Page { data: Box::new([0u8; PAGE_SIZE]) };
        p.set_cell_start(PAGE_SIZE as u16);
        p
    }

    /// Initialize as an empty page with the given id and level.
    pub fn format(&mut self, id: PageId, level: u16) {
        self.data.fill(0);
        self.set_page_id(id);
        self.set_level(level);
        self.set_rightlink(PageId::INVALID);
        self.set_slot_count(0);
        self.set_cell_start(PAGE_SIZE as u16);
    }

    // ---- raw access (for the page store) ----

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw page image (page-store loads only).
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    // ---- header accessors ----

    #[inline]
    fn u64_at(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    fn set_u64_at(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn u32_at(&self, off: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[off..off + 4]);
        u32::from_le_bytes(b)
    }

    fn set_u32_at(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn u16_at(&self, off: usize) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.data[off..off + 2]);
        u16::from_le_bytes(b)
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Page LSN: the LSN of the last log record applied to this page.
    #[inline]
    pub fn page_lsn(&self) -> Lsn {
        Lsn(self.u64_at(OFF_LSN))
    }

    /// Set the page LSN (done via the buffer-pool write guard's
    /// `mark_dirty`).
    pub fn set_page_lsn(&mut self, lsn: Lsn) {
        self.set_u64_at(OFF_LSN, lsn.0);
    }

    /// Node sequence number (§3): updated on every split of this node.
    #[inline]
    pub fn nsn(&self) -> u64 {
        self.u64_at(OFF_NSN)
    }

    /// Set the node sequence number.
    pub fn set_nsn(&mut self, nsn: u64) {
        self.set_u64_at(OFF_NSN, nsn);
    }

    /// Rightlink to the sibling this node most recently split into
    /// ([`PageId::INVALID`] if never split / rightmost).
    #[inline]
    pub fn rightlink(&self) -> PageId {
        PageId(self.u32_at(OFF_RIGHTLINK))
    }

    /// Set the rightlink.
    pub fn set_rightlink(&mut self, id: PageId) {
        self.set_u32_at(OFF_RIGHTLINK, id.0);
    }

    /// The page's own id (integrity check against the store index).
    #[inline]
    pub fn page_id(&self) -> PageId {
        PageId(self.u32_at(OFF_PAGE_ID))
    }

    /// Set the page's own id.
    pub fn set_page_id(&mut self, id: PageId) {
        self.set_u32_at(OFF_PAGE_ID, id.0);
    }

    /// Tree level: 0 for leaves, increasing toward the root.
    #[inline]
    pub fn level(&self) -> u16 {
        self.u16_at(OFF_LEVEL)
    }

    /// Set the tree level.
    pub fn set_level(&mut self, level: u16) {
        self.set_u16_at(OFF_LEVEL, level);
    }

    /// Whether this is a leaf page.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// Availability flag (Table 1 `Get-Page`/`Free-Page`): true while the
    /// page is on the free list.
    pub fn is_available(&self) -> bool {
        self.u16_at(OFF_FLAGS) & FLAG_AVAILABLE != 0
    }

    /// Set or clear the availability flag.
    pub fn set_available(&mut self, available: bool) {
        let mut f = self.u16_at(OFF_FLAGS);
        if available {
            f |= FLAG_AVAILABLE;
        } else {
            f &= !FLAG_AVAILABLE;
        }
        self.set_u16_at(OFF_FLAGS, f);
    }

    // ---- checksum (torn/lost-write detection) ----

    /// The checksum stored in the header (`0` = never stamped).
    pub fn stored_checksum(&self) -> u64 {
        self.u64_at(OFF_CHECKSUM)
    }

    /// Compute the checksum of the current page image: FNV-1a + fmix64
    /// (via [`gist_wal::stable_hash_bytes`]) over every byte except
    /// the checksum field itself, with `0` remapped to `1` so that `0`
    /// stays free as the "never stamped" sentinel.
    pub fn compute_checksum(&self) -> u64 {
        let head = gist_wal::stable_hash_bytes(&self.data[..OFF_CHECKSUM]);
        let tail = gist_wal::stable_hash_bytes(&self.data[HEADER_SIZE..]);
        let mut combined = [0u8; 16];
        combined[..8].copy_from_slice(&head.to_le_bytes());
        combined[8..].copy_from_slice(&tail.to_le_bytes());
        let h = gist_wal::stable_hash_bytes(&combined);
        if h == 0 { 1 } else { h }
    }

    /// Stamp the checksum of the current image into the header. Done by
    /// the buffer pool immediately before a write-back; the in-pool image
    /// is *not* kept stamped (it goes stale on the first `mark_dirty`).
    pub fn stamp_checksum(&mut self) {
        let c = self.compute_checksum();
        self.set_u64_at(OFF_CHECKSUM, c);
    }

    /// Verify the stored checksum against the current image.
    ///
    /// Returns `true` when the stored value matches, or when the page was
    /// never stamped (stored checksum `0`) *and* the whole image is zero
    /// — the state of a page materialized by `ensure_capacity` that no
    /// flush ever reached. A non-zero image with checksum `0`, or any
    /// mismatch, is a torn / corrupt read.
    pub fn verify_checksum(&self) -> bool {
        let stored = self.stored_checksum();
        if stored == 0 {
            return self.data.iter().all(|&b| b == 0);
        }
        stored == self.compute_checksum()
    }

    /// Number of slots (including vacant ones).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        self.u16_at(OFF_SLOT_COUNT)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.set_u16_at(OFF_SLOT_COUNT, n);
    }

    fn cell_start(&self) -> u16 {
        self.u16_at(OFF_CELL_START)
    }

    fn set_cell_start(&mut self, v: u16) {
        self.set_u16_at(OFF_CELL_START, v);
    }

    // ---- slot helpers ----

    #[inline]
    fn slot_off(slot: SlotId) -> usize {
        HEADER_SIZE + slot as usize * SLOT_SIZE
    }

    #[inline]
    fn slot(&self, slot: SlotId) -> (u16, u16, u16) {
        let off = Self::slot_off(slot);
        (self.u16_at(off), self.u16_at(off + 2), self.u16_at(off + 4))
    }

    fn set_slot(&mut self, slot: SlotId, offset: u16, len: u16, flags: u16) {
        let off = Self::slot_off(slot);
        self.set_u16_at(off, offset);
        self.set_u16_at(off + 2, len);
        self.set_u16_at(off + 4, flags);
    }

    /// Whether `slot` currently holds a cell.
    #[inline]
    pub fn is_occupied(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot(slot).2 & SLOT_FLAG_VACANT == 0
    }

    /// Number of occupied slots.
    pub fn occupied_count(&self) -> usize {
        (0..self.slot_count()).filter(|&s| self.is_occupied(s)).count()
    }

    /// The cell stored in `slot`, if occupied.
    #[inline]
    pub fn cell(&self, slot: SlotId) -> Option<&[u8]> {
        if !self.is_occupied(slot) {
            return None;
        }
        let (off, len, _) = self.slot(slot);
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Iterate over `(slot, cell)` pairs for all occupied slots.
    #[inline]
    pub fn iter_cells(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        // One read of the slot count, one decode per slot.
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len, flags) = self.slot(s);
            (flags & SLOT_FLAG_VACANT == 0)
                .then(|| (s, &self.data[off as usize..off as usize + len as usize]))
        })
    }

    /// Contiguous free bytes between the slot array and the cell area.
    pub fn contiguous_free(&self) -> usize {
        let slots_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        self.cell_start() as usize - slots_end
    }

    /// Total reclaimable free space (contiguous plus holes left by deleted
    /// or relocated cells), assuming a vacant slot can be reused.
    pub fn total_free(&self) -> usize {
        let live: usize =
            (0..self.slot_count()).filter_map(|s| self.cell(s)).map(|c| c.len()).sum();
        let slots = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        PAGE_SIZE - slots - live
    }

    /// Free space available to a fresh insert, accounting for a possibly
    /// needed new slot entry.
    pub fn free_for_insert(&self) -> usize {
        let free = self.total_free();
        if self.first_vacant().is_some() {
            free
        } else {
            free.saturating_sub(SLOT_SIZE)
        }
    }

    fn first_vacant(&self) -> Option<SlotId> {
        (0..self.slot_count()).find(|&s| !self.is_occupied(s))
    }

    /// The slot the next [`insert_cell`](Self::insert_cell) will use.
    /// Callers that must log an insert *before* applying it (WAL rule)
    /// read this, log the slot, then use
    /// [`insert_cell_at`](Self::insert_cell_at).
    pub fn next_insert_slot(&self) -> SlotId {
        self.first_vacant().unwrap_or_else(|| self.slot_count())
    }

    /// Compact the cell area, squeezing out holes. Slot ids are preserved.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        // Gather (slot, bytes) for live cells, then rewrite from the end.
        let live: Vec<(SlotId, Vec<u8>)> = (0..count)
            .filter_map(|s| self.cell(s).map(|c| (s, c.to_vec())))
            .collect();
        let mut cursor = PAGE_SIZE;
        for (slot, bytes) in &live {
            cursor -= bytes.len();
            self.data[cursor..cursor + bytes.len()].copy_from_slice(bytes);
            let (_, _, flags) = self.slot(*slot);
            self.set_slot(*slot, cursor as u16, bytes.len() as u16, flags);
        }
        self.set_cell_start(cursor as u16);
    }

    /// Insert a cell, reusing a vacant slot if one exists; compacts on
    /// demand. Returns the slot id.
    pub fn insert_cell(&mut self, bytes: &[u8]) -> Result<SlotId, PageFull> {
        let needs_new_slot = self.first_vacant().is_none();
        let needed = bytes.len() + if needs_new_slot { SLOT_SIZE } else { 0 };
        if needed > self.total_free() {
            return Err(PageFull { needed, available: self.total_free() });
        }
        if bytes.len() + if needs_new_slot { SLOT_SIZE } else { 0 } > self.contiguous_free() {
            self.compact();
        }
        let slot = match self.first_vacant() {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        let new_start = self.cell_start() as usize - bytes.len();
        self.data[new_start..new_start + bytes.len()].copy_from_slice(bytes);
        self.set_cell_start(new_start as u16);
        self.set_slot(slot, new_start as u16, bytes.len() as u16, 0);
        Ok(slot)
    }

    /// Replace the cell in `slot`. In-place when the new cell is not
    /// larger; otherwise relocates (compacting if needed).
    ///
    /// # Panics
    /// Panics if `slot` is vacant — updating a non-existent cell is a
    /// logic error in the caller.
    pub fn update_cell(&mut self, slot: SlotId, bytes: &[u8]) -> Result<(), PageFull> {
        assert!(self.is_occupied(slot), "update of vacant slot {slot}");
        let (off, len, flags) = self.slot(slot);
        if bytes.len() <= len as usize {
            let off = off as usize;
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            self.set_slot(slot, off as u16, bytes.len() as u16, flags);
            return Ok(());
        }
        // Relocate: free the old cell first so its space is reclaimable.
        self.set_slot(slot, 0, 0, SLOT_FLAG_VACANT);
        if bytes.len() > self.total_free() {
            // Roll back the vacate so the page is unchanged on failure.
            self.set_slot(slot, off, len, flags);
            return Err(PageFull { needed: bytes.len(), available: self.total_free() });
        }
        if bytes.len() > self.contiguous_free() {
            self.compact();
        }
        let new_start = self.cell_start() as usize - bytes.len();
        self.data[new_start..new_start + bytes.len()].copy_from_slice(bytes);
        self.set_cell_start(new_start as u16);
        self.set_slot(slot, new_start as u16, bytes.len() as u16, flags);
        Ok(())
    }

    /// Delete the cell in `slot` (the slot becomes vacant and reusable).
    /// Returns whether a cell was present.
    pub fn delete_cell(&mut self, slot: SlotId) -> bool {
        if !self.is_occupied(slot) {
            return false;
        }
        self.set_slot(slot, 0, 0, SLOT_FLAG_VACANT);
        // Trim trailing vacant slots so the slot array can shrink.
        let mut n = self.slot_count();
        while n > 0 && !self.is_occupied(n - 1) {
            n -= 1;
        }
        self.set_slot_count(n);
        true
    }

    /// Insert a cell at a specific slot id (used by page-oriented redo to
    /// reproduce the exact original placement). The slot must be vacant or
    /// beyond the current slot count.
    pub fn insert_cell_at(&mut self, slot: SlotId, bytes: &[u8]) -> Result<(), PageFull> {
        assert!(!self.is_occupied(slot), "insert_cell_at over occupied slot {slot}");
        let grow_slots = (slot as usize + 1).saturating_sub(self.slot_count() as usize);
        let needed = bytes.len() + grow_slots * SLOT_SIZE;
        if needed > self.total_free() {
            return Err(PageFull { needed, available: self.total_free() });
        }
        if needed > self.contiguous_free() {
            self.compact();
        }
        if grow_slots > 0 {
            let old = self.slot_count();
            self.set_slot_count(slot + 1);
            // Mark any newly exposed intermediate slots vacant.
            for s in old..slot {
                self.set_slot(s, 0, 0, SLOT_FLAG_VACANT);
            }
        }
        let new_start = self.cell_start() as usize - bytes.len();
        self.data[new_start..new_start + bytes.len()].copy_from_slice(bytes);
        self.set_cell_start(new_start as u16);
        self.set_slot(slot, new_start as u16, bytes.len() as u16, 0);
        Ok(())
    }

    /// Remove every cell, leaving an empty page (header preserved).
    pub fn clear_cells(&mut self) {
        self.set_slot_count(0);
        self.set_cell_start(PAGE_SIZE as u16);
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.page_id())
            .field("lsn", &self.page_lsn())
            .field("nsn", &self.nsn())
            .field("rightlink", &self.rightlink())
            .field("level", &self.level())
            .field("slots", &self.slot_count())
            .field("occupied", &self.occupied_count())
            .field("free", &self.total_free())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_initializes_header() {
        let mut p = Page::zeroed();
        p.format(PageId(7), 2);
        assert_eq!(p.page_id(), PageId(7));
        assert_eq!(p.level(), 2);
        assert!(!p.is_leaf());
        assert_eq!(p.rightlink(), PageId::INVALID);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.page_lsn(), Lsn::NULL);
        assert_eq!(p.nsn(), 0);
        assert!(!p.is_available());
    }

    #[test]
    fn header_fields_roundtrip() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        p.set_page_lsn(Lsn(42));
        p.set_nsn(99);
        p.set_rightlink(PageId(3));
        p.set_available(true);
        assert_eq!(p.page_lsn(), Lsn(42));
        assert_eq!(p.nsn(), 99);
        assert_eq!(p.rightlink(), PageId(3));
        assert!(p.is_available());
        p.set_available(false);
        assert!(!p.is_available());
    }

    #[test]
    fn insert_and_read_cells() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let a = p.insert_cell(b"alpha").unwrap();
        let b = p.insert_cell(b"beta").unwrap();
        assert_eq!(p.cell(a).unwrap(), b"alpha");
        assert_eq!(p.cell(b).unwrap(), b"beta");
        assert_eq!(p.occupied_count(), 2);
        let cells: Vec<_> = p.iter_cells().map(|(s, c)| (s, c.to_vec())).collect();
        assert_eq!(cells, vec![(a, b"alpha".to_vec()), (b, b"beta".to_vec())]);
    }

    #[test]
    fn delete_vacates_and_slot_is_reused() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let a = p.insert_cell(b"one").unwrap();
        let b = p.insert_cell(b"two").unwrap();
        assert!(p.delete_cell(a));
        assert!(!p.delete_cell(a), "double delete is a no-op");
        assert_eq!(p.cell(a), None);
        assert_eq!(p.cell(b).unwrap(), b"two");
        let c = p.insert_cell(b"three").unwrap();
        assert_eq!(c, a, "vacant slot reused");
    }

    #[test]
    fn trailing_vacant_slots_are_trimmed() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let _a = p.insert_cell(b"x").unwrap();
        let b = p.insert_cell(b"y").unwrap();
        p.delete_cell(b);
        assert_eq!(p.slot_count(), 1);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let a = p.insert_cell(b"abcdef").unwrap();
        let _b = p.insert_cell(b"gh").unwrap();
        p.update_cell(a, b"XY").unwrap();
        assert_eq!(p.cell(a).unwrap(), b"XY");
        p.update_cell(a, b"a much longer replacement value").unwrap();
        assert_eq!(p.cell(a).unwrap(), b"a much longer replacement value".as_slice());
    }

    #[test]
    fn page_full_reports_sizes() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let big = vec![0u8; PAGE_SIZE];
        let err = p.insert_cell(&big).unwrap_err();
        assert!(err.needed > err.available);
    }

    #[test]
    fn fills_page_then_rejects() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let cell = vec![7u8; 100];
        let mut n = 0;
        while p.insert_cell(&cell).is_ok() {
            n += 1;
        }
        assert!(n >= (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE) - 1);
        assert!(p.free_for_insert() < 100 + SLOT_SIZE);
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let cell = vec![1u8; 500];
        let mut slots = Vec::new();
        while let Ok(s) = p.insert_cell(&cell) {
            slots.push(s);
        }
        // Delete every other cell: total free grows, contiguous does not.
        for s in slots.iter().step_by(2) {
            p.delete_cell(*s);
        }
        assert!(p.total_free() > p.contiguous_free());
        // A big insert forces compaction and succeeds.
        let big = vec![2u8; 900];
        let s = p.insert_cell(&big).unwrap();
        assert_eq!(p.cell(s).unwrap(), big.as_slice());
        // Survivors are intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.cell(*s).unwrap(), cell.as_slice());
        }
    }

    #[test]
    fn insert_cell_at_reproduces_slot_ids() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        p.insert_cell_at(3, b"redo").unwrap();
        assert_eq!(p.slot_count(), 4);
        assert_eq!(p.cell(3).unwrap(), b"redo");
        assert!(!p.is_occupied(0));
        p.insert_cell_at(1, b"gap").unwrap();
        assert_eq!(p.cell(1).unwrap(), b"gap");
    }

    #[test]
    fn clear_cells_resets_layout() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        p.insert_cell(b"zzz").unwrap();
        p.clear_cells();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.contiguous_free(), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn checksum_roundtrip() {
        let mut p = Page::zeroed();
        p.format(PageId(9), 1);
        p.insert_cell(b"payload bytes").unwrap();
        p.set_page_lsn(Lsn(77));
        assert_eq!(p.stored_checksum(), 0, "format leaves the page unstamped");
        p.stamp_checksum();
        assert_ne!(p.stored_checksum(), 0);
        assert!(p.verify_checksum(), "freshly stamped image verifies");
        // Stamping is idempotent: the checksum field itself is excluded.
        let c = p.stored_checksum();
        p.stamp_checksum();
        assert_eq!(p.stored_checksum(), c);
        assert!(p.verify_checksum());
    }

    #[test]
    fn checksum_detects_torn_write() {
        let mut p = Page::zeroed();
        p.format(PageId(4), 0);
        for i in 0..20 {
            p.insert_cell(&[i as u8; 64]).unwrap();
        }
        p.stamp_checksum();
        assert!(p.verify_checksum());
        // Simulate a torn write: the tail of the page keeps stale bytes.
        let keep = 4096;
        for b in &mut p.as_bytes_mut()[keep..] {
            *b = 0xAA;
        }
        assert!(!p.verify_checksum(), "torn image must fail verification");
        // A single flipped bit anywhere is also caught.
        let mut q = Page::zeroed();
        q.format(PageId(5), 0);
        q.insert_cell(b"bitrot target").unwrap();
        q.stamp_checksum();
        q.as_bytes_mut()[PAGE_SIZE - 1] ^= 0x01;
        assert!(!q.verify_checksum());
    }

    #[test]
    fn checksum_zero_sentinel_accepts_only_all_zero_images() {
        // A raw store page that no flush ever reached is all zeros and
        // must pass (ensure_capacity materializes pages this way).
        let p = Page { data: Box::new([0u8; PAGE_SIZE]) };
        assert_eq!(p.stored_checksum(), 0);
        assert!(p.verify_checksum());
        // Any non-zero content with an unstamped (0) checksum is torn.
        let mut q = Page { data: Box::new([0u8; PAGE_SIZE]) };
        q.as_bytes_mut()[100] = 1;
        assert!(!q.verify_checksum());
    }

    #[test]
    fn update_cell_fails_cleanly_when_too_big() {
        let mut p = Page::zeroed();
        p.format(PageId(1), 0);
        let filler = vec![0u8; 2000];
        let a = p.insert_cell(&filler).unwrap();
        let _ = p.insert_cell(&filler).unwrap();
        let _ = p.insert_cell(&filler).unwrap();
        let huge = vec![1u8; PAGE_SIZE];
        assert!(p.update_cell(a, &huge).is_err());
        // Original cell untouched by the failed update.
        assert_eq!(p.cell(a).unwrap(), filler.as_slice());
    }
}
