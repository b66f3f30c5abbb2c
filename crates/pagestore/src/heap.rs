//! A minimal heap file for data records.
//!
//! The paper's index stores `(key, RID)` pairs whose RIDs "point to the
//! corresponding records on the data pages" (§2) — the records themselves
//! live outside the index, and the hybrid locking protocol two-phase-locks
//! them by RID. This heap file provides those data pages for the examples
//! and tests.
//!
//! Data-record recovery is the data manager's job in a real DBMS and is
//! orthogonal to the paper (which recovers the *index*); the heap is
//! therefore unlogged. Crash tests treat the index as authoritative.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::PageAllocator;
use crate::buffer::BufferPool;
use crate::page::{PageId, Rid};

/// An unlogged heap file of variable-length records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    alloc: Arc<PageAllocator>,
    /// Number of pages owned by this heap.
    pages: AtomicUsize,
    /// Pages that may have room, with their free bytes, most promising
    /// last: the newest page, plus any page a delete or shrinking update
    /// freed space on. The free bytes are exact after a miss, a delete
    /// or a shrink; a landed insert leaves them high, which costs at
    /// most one wasted fetch. An insert fetches only pages listed with
    /// room for its record, and a page leaves the list once it cannot
    /// hold even a one-byte record.
    room: Mutex<Vec<(PageId, usize)>>,
}

impl HeapFile {
    /// Empty heap drawing pages from `alloc`.
    pub fn new(pool: Arc<BufferPool>, alloc: Arc<PageAllocator>) -> Self {
        HeapFile { pool, alloc, pages: AtomicUsize::new(0), room: Mutex::new(Vec::new()) }
    }

    /// Insert a record; returns its RID.
    pub fn insert(&self, bytes: &[u8]) -> io::Result<Rid> {
        // Try the listed pages with room for this record; a miss records
        // the page's true free space, so it is not tried again.
        loop {
            let pick = self.room.lock().iter().rev().find(|e| e.1 >= bytes.len()).map(|e| e.0);
            let Some(pid) = pick else { break };
            let mut g = self.pool.fetch_write(pid)?;
            if let Ok(slot) = g.insert_cell(bytes) {
                g.mark_dirty_unlogged();
                return Ok(Rid::new(pid, slot));
            }
            self.set_room(pid, g.free_for_insert());
        }
        // Grow.
        let pid = self.alloc.allocate();
        let mut g = self.pool.new_page_write(pid, 0)?;
        let slot = g.insert_cell(bytes).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("record too large: {e}"))
        })?;
        g.mark_dirty_unlogged();
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.set_room(pid, g.free_for_insert());
        Ok(Rid::new(pid, slot))
    }

    /// Record that `pid` has `free` bytes for an insert. Callers hold the
    /// page's X latch, so the last call for a page is its latest state.
    fn set_room(&self, pid: PageId, free: usize) {
        let mut room = self.room.lock();
        match (room.iter().rposition(|e| e.0 == pid), free) {
            (Some(i), 0) => {
                room.remove(i);
            }
            (Some(i), _) => room[i].1 = free,
            (None, 0) => {}
            (None, _) => room.push((pid, free)),
        }
    }

    /// Fetch a record by RID.
    pub fn get(&self, rid: Rid) -> io::Result<Option<Vec<u8>>> {
        let g = self.pool.fetch_read(rid.page)?;
        Ok(g.cell(rid.slot).map(|c| c.to_vec()))
    }

    /// Overwrite a record in place (must fit the page).
    pub fn update(&self, rid: Rid, bytes: &[u8]) -> io::Result<bool> {
        let mut g = self.pool.fetch_write(rid.page)?;
        let Some(old_len) = g.cell(rid.slot).map(<[u8]>::len) else {
            return Ok(false);
        };
        g.update_cell(rid.slot, bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        g.mark_dirty_unlogged();
        if bytes.len() < old_len {
            self.set_room(rid.page, g.free_for_insert());
        }
        Ok(true)
    }

    /// Delete a record.
    pub fn delete(&self, rid: Rid) -> io::Result<bool> {
        let mut g = self.pool.fetch_write(rid.page)?;
        let existed = g.delete_cell(rid.slot);
        if existed {
            g.mark_dirty_unlogged();
            self.set_room(rid.page, g.free_for_insert());
        }
        Ok(existed)
    }

    /// Number of heap pages in use.
    pub fn page_count(&self) -> usize {
        self.pages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{InMemoryStore, PageStore};

    fn heap() -> HeapFile {
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(1).unwrap();
        let pool = BufferPool::new(store, 16);
        HeapFile::new(pool, Arc::new(PageAllocator::new(1)))
    }

    #[test]
    fn insert_get_update_delete() {
        let h = heap();
        let rid = h.insert(b"record one").unwrap();
        assert_eq!(h.get(rid).unwrap().unwrap(), b"record one");
        assert!(h.update(rid, b"updated!").unwrap());
        assert_eq!(h.get(rid).unwrap().unwrap(), b"updated!");
        assert!(h.delete(rid).unwrap());
        assert_eq!(h.get(rid).unwrap(), None);
        assert!(!h.delete(rid).unwrap());
    }

    #[test]
    fn spills_to_new_pages() {
        let h = heap();
        let big = vec![9u8; 3000];
        let mut rids = Vec::new();
        for _ in 0..10 {
            rids.push(h.insert(&big).unwrap());
        }
        assert!(h.page_count() > 1, "records spilled across pages");
        for rid in rids {
            assert_eq!(h.get(rid).unwrap().unwrap(), big);
        }
    }

    #[test]
    fn reuses_space_after_delete() {
        let h = heap();
        let big = vec![1u8; 3000];
        let a = h.insert(&big).unwrap();
        let _b = h.insert(&big).unwrap();
        let pages_before = h.page_count();
        h.delete(a).unwrap();
        let c = h.insert(&big).unwrap();
        assert_eq!(h.page_count(), pages_before, "hole reused, no growth");
        assert_eq!(h.get(c).unwrap().unwrap(), big);
    }

    #[test]
    fn full_heap_grows_without_rescanning_old_pages() {
        use std::sync::atomic::Ordering;
        const N: usize = 8;
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(1).unwrap();
        let pool = BufferPool::new(store, 64);
        let h = HeapFile::new(pool.clone(), Arc::new(PageAllocator::new(1)));
        // Two 3000-byte records fill a page; a third never fits.
        let big = vec![5u8; 3000];
        for _ in 0..2 * N {
            h.insert(&big).unwrap();
        }
        assert_eq!(h.page_count(), N, "{N} full pages, no deletes");
        let touched = || {
            pool.stats.hits.load(Ordering::Relaxed) + pool.stats.misses.load(Ordering::Relaxed)
        };
        let before = touched();
        h.insert(&big).unwrap();
        assert_eq!(h.page_count(), N + 1, "the insert grew the heap");
        let fetched = touched() - before;
        assert!(fetched <= 2, "insert touched {fetched} existing pages of {N}");
    }

    #[test]
    fn small_record_lands_in_page_a_big_one_missed() {
        let h = heap();
        let a = h.insert(&vec![1u8; 5000]).unwrap();
        // Misses the first page (3000-odd bytes left) and grows.
        let b = h.insert(&vec![2u8; 5000]).unwrap();
        assert_ne!(a.page, b.page);
        // Fills the newest page almost to the brim.
        let c = h.insert(&vec![3u8; 3100]).unwrap();
        assert_eq!(c.page, b.page);
        // Too big for the newest page, but the first still has room.
        let d = h.insert(&[4u8; 100]).unwrap();
        assert_eq!(d.page, a.page, "small record reused the older page");
        assert_eq!(h.page_count(), 2, "no growth");
    }

    #[test]
    fn rejects_oversized_records() {
        let h = heap();
        let too_big = vec![0u8; crate::page::PAGE_SIZE];
        assert!(h.insert(&too_big).is_err());
    }
}
