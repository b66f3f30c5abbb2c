#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Outside tests, no discarded I/O result: a lost write must not pass silently.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

//! Page, slotted-page, buffer-pool and page-store substrate.
//!
//! This crate provides the storage layer underneath the GiST: fixed-size
//! pages with a slotted layout and the header fields the concurrency
//! protocol needs (**page LSN**, **NSN**, **rightlink**, level, an
//! availability flag for Get-Page/Free-Page recovery), a buffer pool whose
//! per-frame reader/writer latches are the paper's *latches* ("addressed
//! physically … not checked for deadlock", §5 footnote 8), pluggable page
//! stores (in-memory, file-backed, and a simulated-latency wrapper used to
//! measure the cost of holding latches across I/Os), a page allocator, and
//! a small heap file for the *data records* that index leaves point at.

mod alloc;
pub(crate) mod audit;
mod buffer;
mod heap;
mod page;
pub mod store;

mod fault;

pub use alloc::PageAllocator;
pub use buffer::{
    is_storage_poisoned, is_transient_io, BufferPool, FrameData, OptimisticReadGuard,
    PageReadGuard, PageWriteGuard, PoolStats, StoragePoisoned,
};
pub use fault::FaultStore;
pub use heap::HeapFile;
pub use page::{
    IdHasher, IdMap, Page, PageFull, PageId, Rid, SlotId, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE,
};
pub use store::{FileStore, InMemoryStore, PageStore, SimulatedLatencyStore};
