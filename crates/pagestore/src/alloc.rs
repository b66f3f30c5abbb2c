//! Page allocation.
//!
//! Hands out page ids from a free list, growing the store when the list is
//! empty. The *durable* allocation state is the per-page availability flag
//! (Table 1 `Get-Page` marks a page unavailable, `Free-Page` marks it
//! available); after restart the free list is rebuilt by scanning those
//! flags — the allocator itself holds no recoverable state.

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::page::PageId;

struct AllocState {
    free: Vec<PageId>,
    /// Pages `[0, next)` have been handed out or formatted at some point.
    next: u32,
}

/// Free-list page allocator.
pub struct PageAllocator {
    state: Mutex<AllocState>,
}

impl PageAllocator {
    /// Allocator whose first fresh page is `first` (lower ids are reserved
    /// by the caller, e.g. for anchor/metadata pages).
    pub fn new(first: u32) -> Self {
        PageAllocator { state: Mutex::new(AllocState { free: Vec::new(), next: first }) }
    }

    /// Take a page id off the free list (or extend the store). The caller
    /// is responsible for formatting the page and logging `Get-Page`.
    pub fn allocate(&self) -> PageId {
        let mut st = self.state.lock();
        if let Some(id) = st.free.pop() {
            return id;
        }
        let id = PageId(st.next);
        st.next += 1;
        id
    }

    /// Return a page to the free list. The caller has already logged
    /// `Free-Page` and marked the page available.
    pub fn free(&self, id: PageId) {
        let mut st = self.state.lock();
        debug_assert!(id.0 < st.next, "freeing never-allocated page {id}");
        debug_assert!(!st.free.contains(&id), "double free of {id}");
        st.free.push(id);
    }

    /// Number of ids on the free list.
    pub fn free_count(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Rebuild the free list after restart by scanning the availability
    /// flags of pages `[first, store.page_count())`.
    ///
    /// Must run after the redo pass (so the flags reflect every durable
    /// `Get-Page`/`Free-Page`).
    pub fn rebuild_from_store(
        &self,
        pool: &Arc<BufferPool>,
        first: u32,
    ) -> io::Result<()> {
        let count = pool.store().page_count();
        let mut free = Vec::new();
        for raw in first..count {
            let g = pool.fetch_read(PageId(raw))?;
            if g.is_available() {
                free.push(PageId(raw));
            }
        }
        let mut st = self.state.lock();
        st.free = free;
        st.next = count.max(first);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::store::{InMemoryStore, PageStore};

    #[test]
    fn allocates_fresh_then_reuses_freed() {
        let alloc = PageAllocator::new(1);
        let a = alloc.allocate();
        let b = alloc.allocate();
        assert_eq!(a, PageId(1));
        assert_eq!(b, PageId(2));
        alloc.free(a);
        assert_eq!(alloc.free_count(), 1);
        assert_eq!(alloc.allocate(), a, "freed page reused");
        assert_eq!(alloc.allocate(), PageId(3));
    }

    #[test]
    fn rebuild_finds_available_pages() {
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(6).unwrap();
        // Pages 2 and 4 are marked available "on disk".
        for raw in 0..6u32 {
            let mut p = Page::zeroed();
            p.format(PageId(raw), 0);
            p.set_available(raw == 2 || raw == 4);
            p.stamp_checksum();
            store.write(PageId(raw), &p).unwrap();
        }
        let pool = BufferPool::new(store, 8);
        let alloc = PageAllocator::new(1);
        alloc.rebuild_from_store(&pool, 1).unwrap();
        assert_eq!(alloc.free_count(), 2);
        let mut got = vec![alloc.allocate(), alloc.allocate()];
        got.sort();
        assert_eq!(got, vec![PageId(2), PageId(4)]);
        // Next fresh allocation continues past the scanned range.
        assert_eq!(alloc.allocate(), PageId(6));
    }
}
