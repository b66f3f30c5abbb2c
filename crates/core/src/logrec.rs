//! The GiST log-record set — Table 1 of the paper — plus the
//! compensation payloads their logical undos produce.
//!
//! Design note: Table 1's `Split` redo says "recompute and reset BP"; we
//! log the recomputed BPs explicitly instead, which keeps every redo and
//! undo action **extension-free** (pure byte/page manipulation). This
//! realizes the paper's claim that "no additional user-supplied extension
//! code is required to write the log records, so that logging can be
//! handled independently by the core DBMS component" — and it lets one
//! database-wide recovery handler serve every index regardless of key
//! type.
//!
//! | Table 1 record | variant | undo |
//! |---|---|---|
//! | Parent-Entry-Update | [`GistRecord::ParentEntryUpdate`] | none (redo-only) |
//! | Split | [`GistRecord::Split`] | page-oriented: move keys back, restore BP/NSN/rightlink |
//! | Garbage-Collection | [`GistRecord::GarbageCollection`] | none (redo-only) |
//! | Internal-Entry-Add | [`GistRecord::InternalEntryAdd`] | remove entry |
//! | Internal-Entry-Update | [`GistRecord::InternalEntryUpdate`] | restore old BP |
//! | Internal-Entry-Delete | [`GistRecord::InternalEntryDelete`] | re-insert entry |
//! | Add-Leaf-Entry | [`GistRecord::AddLeafEntry`] | **logical**: locate leaf (rightlinks), remove |
//! | Mark-Leaf-Entry | [`GistRecord::MarkLeafEntry`] | **logical**: locate leaf, unmark |
//! | Get-Page | [`GistRecord::GetPage`] | mark page available |
//! | Free-Page | [`GistRecord::FreePage`] | mark page unavailable |
//!
//! The catalog record and the `Undo*`/`Set*` compensation payloads are
//! implementation additions (the paper's CLRs are implicit in its WAL
//! environment).
//!
//! Each record's effect on each page it names is written once, in
//! [`GistRecord::apply`], and each undo once, as the CLR that
//! [`GistRecord::compensation`] returns. Forward operations, restart
//! redo, rollback and the in-unit split reverts all go through the two.

use std::sync::Arc;

use gist_pagestore::{BufferPool, PageFull, PageId, PageWriteGuard, SlotId};
use gist_wal::codec::{put_bytes, put_u16, put_u32, put_u64, CodecError, Reader};
use gist_wal::{Lsn, Payload, TxnId};

use crate::entry::{InternalEntry, LeafEntry};
use crate::{node, GistError};

/// A `(slot, cell-bytes)` pair as logged by `Split` and
/// `Garbage-Collection`.
pub type SlotCell = (SlotId, Vec<u8>);

/// GiST log records (see module docs for the Table 1 correspondence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GistRecord {
    /// BP expansion/shrink of one child, reflected in the parent entry
    /// (one atomic action per ancestor node, §9.1 item (2)). `parent` is
    /// [`PageId::INVALID`] when the child is the root (no parent entry).
    ParentEntryUpdate {
        /// Child whose slot-0 BP is set to `new_bp`.
        child: u32,
        /// Parent holding the entry for `child` (or `u32::MAX`).
        parent: u32,
        /// Slot of the child's entry in the parent (ignored for root).
        parent_slot: SlotId,
        /// The new encoded BP.
        new_bp: Vec<u8>,
    },
    /// Node split: `moved` cells leave `orig` for `new`; headers updated
    /// per §3 (new sibling inherits old NSN and rightlink; original gets
    /// the incremented counter value and links to the sibling).
    Split {
        /// The node that split.
        orig: u32,
        /// The new right sibling.
        new: u32,
        /// Tree level of both nodes.
        level: u16,
        /// Cells moved to the sibling, with their original slots.
        moved: Vec<SlotCell>,
        /// Original node's BP before the split (for undo).
        orig_bp_old: Vec<u8>,
        /// Original node's BP after the split.
        orig_bp_new: Vec<u8>,
        /// Sibling's BP.
        new_bp: Vec<u8>,
        /// Original node's NSN before the split (sibling inherits it).
        orig_nsn_old: u64,
        /// Original node's NSN after the split (the incremented counter).
        /// Zero is a sentinel meaning "this record's own LSN" — the
        /// §10.1 optimization where LSNs double as NSNs, which cannot be
        /// known before the record is appended.
        orig_nsn_new: u64,
        /// Original node's rightlink before the split (sibling inherits
        /// it) — with links to freed pages already followed through to
        /// the first live page, so neither redo nor undo ever re-installs
        /// a link to the freed page `new` itself used to be.
        orig_rightlink_old: u32,
        /// Table 1's "newly inserted key and which page it belongs on":
        /// whether the pending insert was routed to the sibling.
        pending_to_new: bool,
    },
    /// Physical removal of committed-deleted leaf entries (§7.1),
    /// redo-only.
    GarbageCollection {
        /// The reorganized leaf.
        page: u32,
        /// Removed cells (slot + bytes, for diagnostics/audit).
        removed: Vec<SlotCell>,
        /// Shrunk BP after reorganization.
        new_bp: Vec<u8>,
    },
    /// New entry on an internal node (split propagation).
    InternalEntryAdd {
        /// The internal node.
        page: u32,
        /// Slot the entry went into.
        slot: SlotId,
        /// Encoded internal entry.
        cell: Vec<u8>,
    },
    /// Predicate change of an existing internal entry.
    InternalEntryUpdate {
        /// The internal node.
        page: u32,
        /// Slot of the entry.
        slot: SlotId,
        /// Entry cell after the update.
        new_cell: Vec<u8>,
        /// Entry cell before the update.
        old_cell: Vec<u8>,
    },
    /// Entry removal from an internal node (node deletion).
    InternalEntryDelete {
        /// The internal node.
        page: u32,
        /// Slot of the removed entry.
        slot: SlotId,
        /// The removed cell (for undo).
        cell: Vec<u8>,
    },
    /// Key insertion at the leaf level (transaction content; logical
    /// undo).
    AddLeafEntry {
        /// Leaf at insert time (undo may need to chase rightlinks from
        /// here).
        page: u32,
        /// Leaf NSN at insert time (guides the chase).
        nsn: u64,
        /// Slot the entry went into.
        slot: SlotId,
        /// Encoded leaf entry.
        cell: Vec<u8>,
    },
    /// Logical deletion at the leaf level (transaction content; logical
    /// undo).
    MarkLeafEntry {
        /// Leaf at mark time.
        page: u32,
        /// Leaf NSN at mark time.
        nsn: u64,
        /// Slot of the marked entry.
        slot: SlotId,
        /// Cell before marking.
        old_cell: Vec<u8>,
        /// The marking transaction.
        deleter: u64,
    },
    /// Page allocation: format as an empty node at `level` with BP
    /// `bp` and mark unavailable (= in use).
    GetPage {
        /// The allocated page.
        page: u32,
        /// Node level it is formatted at.
        level: u16,
        /// Initial BP.
        bp: Vec<u8>,
    },
    /// Page deallocation: mark available.
    FreePage {
        /// The freed page.
        page: u32,
    },
    /// Catalog entry for a new index (cell on the catalog page 0).
    CatalogAdd {
        /// Slot in the catalog page.
        slot: SlotId,
        /// Encoded catalog cell.
        cell: Vec<u8>,
    },
    /// CLR redo: remove the catalog cell (undo of an incomplete
    /// `create_index`).
    CatalogRemove {
        /// Slot in the catalog page.
        slot: SlotId,
    },
    // ---- compensation payloads (CLR redo descriptions) ----
    /// CLR redo: the page-oriented effect of undoing `AddLeafEntry` —
    /// remove the located cell.
    RemoveLeafEntry {
        /// Page the entry was found on at undo time.
        page: u32,
        /// Slot it occupied.
        slot: SlotId,
    },
    /// CLR redo: the effect of undoing `MarkLeafEntry` — restore the
    /// unmarked cell.
    UnmarkLeafEntry {
        /// Page the entry was found on at undo time.
        page: u32,
        /// Slot it occupies.
        slot: SlotId,
        /// The restored (unmarked) cell bytes.
        cell: Vec<u8>,
    },
    /// CLR redo: the effect of undoing an incomplete `Split`.
    UndoSplit {
        /// The node that had split.
        orig: u32,
        /// The abandoned sibling.
        new: u32,
        /// Cells moved back, at their original slots.
        restored: Vec<SlotCell>,
        /// Restored BP.
        orig_bp: Vec<u8>,
        /// Restored NSN.
        orig_nsn: u64,
        /// Restored rightlink.
        orig_rightlink: u32,
    },
    /// CLR redo: mark a page available (undo of `GetPage`).
    SetAvailable {
        /// The page.
        page: u32,
    },
    /// CLR redo: mark a page unavailable (undo of `FreePage`).
    SetUnavailable {
        /// The page.
        page: u32,
    },
}

const T_PARENT_ENTRY_UPDATE: u8 = 1;
const T_SPLIT: u8 = 2;
const T_GC: u8 = 3;
const T_IE_ADD: u8 = 4;
const T_IE_UPDATE: u8 = 5;
const T_IE_DELETE: u8 = 6;
const T_ADD_LEAF: u8 = 7;
const T_MARK_LEAF: u8 = 8;
const T_GET_PAGE: u8 = 9;
const T_FREE_PAGE: u8 = 10;
const T_CATALOG_ADD: u8 = 11;
const T_CATALOG_REMOVE: u8 = 12;
const T_REMOVE_LEAF: u8 = 13;
const T_UNMARK_LEAF: u8 = 14;
const T_UNDO_SPLIT: u8 = 15;
const T_SET_AVAILABLE: u8 = 16;
const T_SET_UNAVAILABLE: u8 = 17;

fn put_slot_cells(out: &mut Vec<u8>, cells: &[SlotCell]) {
    put_u32(out, cells.len() as u32);
    for (slot, cell) in cells {
        put_u16(out, *slot);
        put_bytes(out, cell);
    }
}

fn read_slot_cells(r: &mut Reader<'_>) -> Result<Vec<SlotCell>, CodecError> {
    let n = r.u32()? as usize;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = r.u16()?;
        let cell = r.bytes()?;
        cells.push((slot, cell));
    }
    Ok(cells)
}

/// A cell that does not fit where its record puts it: the page image is
/// not the one the record was logged against. Surfaced, not papered
/// over.
fn fit<T>(r: Result<T, PageFull>, what: &str) -> crate::Result<()> {
    r.map(drop).map_err(|e| GistError::Corrupt(format!("apply {what}: {e}")))
}

impl GistRecord {
    /// Pages this record touches (for the WAL envelope's analysis list).
    pub fn pages(&self) -> Vec<u32> {
        match self {
            GistRecord::ParentEntryUpdate { child, parent, .. } => {
                if *parent == u32::MAX {
                    vec![*child]
                } else {
                    vec![*child, *parent]
                }
            }
            GistRecord::Split { orig, new, .. } => vec![*orig, *new],
            GistRecord::GarbageCollection { page, .. } => vec![*page],
            GistRecord::InternalEntryAdd { page, .. } => vec![*page],
            GistRecord::InternalEntryUpdate { page, .. } => vec![*page],
            GistRecord::InternalEntryDelete { page, .. } => vec![*page],
            GistRecord::AddLeafEntry { page, .. } => vec![*page],
            GistRecord::MarkLeafEntry { page, .. } => vec![*page],
            GistRecord::GetPage { page, .. } => vec![*page],
            GistRecord::FreePage { page } => vec![*page],
            GistRecord::CatalogAdd { .. } | GistRecord::CatalogRemove { .. } => vec![0],
            GistRecord::RemoveLeafEntry { page, .. } => vec![*page],
            GistRecord::UnmarkLeafEntry { page, .. } => vec![*page],
            GistRecord::UndoSplit { orig, new, .. } => vec![*orig, *new],
            GistRecord::SetAvailable { page } => vec![*page],
            GistRecord::SetUnavailable { page } => vec![*page],
        }
    }

    /// Wrap into a WAL payload.
    pub fn to_payload(&self) -> Payload {
        Payload::new(self.pages(), self.encode())
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            GistRecord::ParentEntryUpdate { child, parent, parent_slot, new_bp } => {
                out.push(T_PARENT_ENTRY_UPDATE);
                put_u32(&mut out, *child);
                put_u32(&mut out, *parent);
                put_u16(&mut out, *parent_slot);
                put_bytes(&mut out, new_bp);
            }
            GistRecord::Split {
                orig,
                new,
                level,
                moved,
                orig_bp_old,
                orig_bp_new,
                new_bp,
                orig_nsn_old,
                orig_nsn_new,
                orig_rightlink_old,
                pending_to_new,
            } => {
                out.push(T_SPLIT);
                put_u32(&mut out, *orig);
                put_u32(&mut out, *new);
                put_u16(&mut out, *level);
                put_slot_cells(&mut out, moved);
                put_bytes(&mut out, orig_bp_old);
                put_bytes(&mut out, orig_bp_new);
                put_bytes(&mut out, new_bp);
                put_u64(&mut out, *orig_nsn_old);
                put_u64(&mut out, *orig_nsn_new);
                put_u32(&mut out, *orig_rightlink_old);
                out.push(*pending_to_new as u8);
            }
            GistRecord::GarbageCollection { page, removed, new_bp } => {
                out.push(T_GC);
                put_u32(&mut out, *page);
                put_slot_cells(&mut out, removed);
                put_bytes(&mut out, new_bp);
            }
            GistRecord::InternalEntryAdd { page, slot, cell } => {
                out.push(T_IE_ADD);
                put_u32(&mut out, *page);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, cell);
            }
            GistRecord::InternalEntryUpdate { page, slot, new_cell, old_cell } => {
                out.push(T_IE_UPDATE);
                put_u32(&mut out, *page);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, new_cell);
                put_bytes(&mut out, old_cell);
            }
            GistRecord::InternalEntryDelete { page, slot, cell } => {
                out.push(T_IE_DELETE);
                put_u32(&mut out, *page);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, cell);
            }
            GistRecord::AddLeafEntry { page, nsn, slot, cell } => {
                out.push(T_ADD_LEAF);
                put_u32(&mut out, *page);
                put_u64(&mut out, *nsn);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, cell);
            }
            GistRecord::MarkLeafEntry { page, nsn, slot, old_cell, deleter } => {
                out.push(T_MARK_LEAF);
                put_u32(&mut out, *page);
                put_u64(&mut out, *nsn);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, old_cell);
                put_u64(&mut out, *deleter);
            }
            GistRecord::GetPage { page, level, bp } => {
                out.push(T_GET_PAGE);
                put_u32(&mut out, *page);
                put_u16(&mut out, *level);
                put_bytes(&mut out, bp);
            }
            GistRecord::FreePage { page } => {
                out.push(T_FREE_PAGE);
                put_u32(&mut out, *page);
            }
            GistRecord::CatalogAdd { slot, cell } => {
                out.push(T_CATALOG_ADD);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, cell);
            }
            GistRecord::CatalogRemove { slot } => {
                out.push(T_CATALOG_REMOVE);
                put_u16(&mut out, *slot);
            }
            GistRecord::RemoveLeafEntry { page, slot } => {
                out.push(T_REMOVE_LEAF);
                put_u32(&mut out, *page);
                put_u16(&mut out, *slot);
            }
            GistRecord::UnmarkLeafEntry { page, slot, cell } => {
                out.push(T_UNMARK_LEAF);
                put_u32(&mut out, *page);
                put_u16(&mut out, *slot);
                put_bytes(&mut out, cell);
            }
            GistRecord::UndoSplit { orig, new, restored, orig_bp, orig_nsn, orig_rightlink } => {
                out.push(T_UNDO_SPLIT);
                put_u32(&mut out, *orig);
                put_u32(&mut out, *new);
                put_slot_cells(&mut out, restored);
                put_bytes(&mut out, orig_bp);
                put_u64(&mut out, *orig_nsn);
                put_u32(&mut out, *orig_rightlink);
            }
            GistRecord::SetAvailable { page } => {
                out.push(T_SET_AVAILABLE);
                put_u32(&mut out, *page);
            }
            GistRecord::SetUnavailable { page } => {
                out.push(T_SET_UNAVAILABLE);
                put_u32(&mut out, *page);
            }
        }
        out
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<GistRecord, CodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let rec = match tag {
            T_PARENT_ENTRY_UPDATE => GistRecord::ParentEntryUpdate {
                child: r.u32()?,
                parent: r.u32()?,
                parent_slot: r.u16()?,
                new_bp: r.bytes()?,
            },
            T_SPLIT => GistRecord::Split {
                orig: r.u32()?,
                new: r.u32()?,
                level: r.u16()?,
                moved: read_slot_cells(&mut r)?,
                orig_bp_old: r.bytes()?,
                orig_bp_new: r.bytes()?,
                new_bp: r.bytes()?,
                orig_nsn_old: r.u64()?,
                orig_nsn_new: r.u64()?,
                orig_rightlink_old: r.u32()?,
                pending_to_new: r.u8()? != 0,
            },
            T_GC => GistRecord::GarbageCollection {
                page: r.u32()?,
                removed: read_slot_cells(&mut r)?,
                new_bp: r.bytes()?,
            },
            T_IE_ADD => GistRecord::InternalEntryAdd {
                page: r.u32()?,
                slot: r.u16()?,
                cell: r.bytes()?,
            },
            T_IE_UPDATE => GistRecord::InternalEntryUpdate {
                page: r.u32()?,
                slot: r.u16()?,
                new_cell: r.bytes()?,
                old_cell: r.bytes()?,
            },
            T_IE_DELETE => GistRecord::InternalEntryDelete {
                page: r.u32()?,
                slot: r.u16()?,
                cell: r.bytes()?,
            },
            T_ADD_LEAF => GistRecord::AddLeafEntry {
                page: r.u32()?,
                nsn: r.u64()?,
                slot: r.u16()?,
                cell: r.bytes()?,
            },
            T_MARK_LEAF => GistRecord::MarkLeafEntry {
                page: r.u32()?,
                nsn: r.u64()?,
                slot: r.u16()?,
                old_cell: r.bytes()?,
                deleter: r.u64()?,
            },
            T_GET_PAGE => GistRecord::GetPage {
                page: r.u32()?,
                level: r.u16()?,
                bp: r.bytes()?,
            },
            T_FREE_PAGE => GistRecord::FreePage { page: r.u32()? },
            T_CATALOG_ADD => GistRecord::CatalogAdd { slot: r.u16()?, cell: r.bytes()? },
            T_CATALOG_REMOVE => GistRecord::CatalogRemove { slot: r.u16()? },
            T_REMOVE_LEAF => GistRecord::RemoveLeafEntry { page: r.u32()?, slot: r.u16()? },
            T_UNMARK_LEAF => GistRecord::UnmarkLeafEntry {
                page: r.u32()?,
                slot: r.u16()?,
                cell: r.bytes()?,
            },
            T_UNDO_SPLIT => GistRecord::UndoSplit {
                orig: r.u32()?,
                new: r.u32()?,
                restored: read_slot_cells(&mut r)?,
                orig_bp: r.bytes()?,
                orig_nsn: r.u64()?,
                orig_rightlink: r.u32()?,
            },
            T_SET_AVAILABLE => GistRecord::SetAvailable { page: r.u32()? },
            T_SET_UNAVAILABLE => GistRecord::SetUnavailable { page: r.u32()? },
            other => return Err(CodecError(format!("unknown gist record tag {other}"))),
        };
        if !r.exhausted() {
            return Err(CodecError("trailing bytes after gist record".into()));
        }
        Ok(rec)
    }

    /// This record's effect on `g`, one of the pages it names
    /// ([`GistRecord::pages`]), stamped with `lsn`. The only code that
    /// changes an index or catalog page for a logged change: a forward
    /// operation logs a record and applies it to the pages it holds
    /// X-latched, restart [`redo`](GistRecord::redo)es it, and a rollback
    /// logs and applies its [`compensation`](GistRecord::compensation).
    /// So restart reproduces the forward image by construction.
    pub fn apply(&self, g: &mut PageWriteGuard, lsn: Lsn) -> crate::Result<()> {
        let page = g.page_id().0;
        debug_assert!(self.pages().contains(&page), "{self:?} does not name page {page}");
        // Every record kind by name: a new variant must get an arm here.
        #[deny(clippy::wildcard_enum_match_arm)]
        match self {
            GistRecord::ParentEntryUpdate { child, parent_slot, new_bp, .. } => {
                if page == *child {
                    fit(node::set_bp(g, new_bp), "BP update")?;
                } else {
                    if !g.is_occupied(*parent_slot) {
                        return Err(GistError::Corrupt(format!(
                            "apply: parent entry {parent_slot} of {child} vanished"
                        )));
                    }
                    let cell = InternalEntry::new(PageId(*child), new_bp.clone()).encode();
                    fit(g.update_cell(*parent_slot, &cell), "parent entry update")?;
                }
            }
            GistRecord::Split {
                orig,
                new,
                level,
                moved,
                orig_bp_new,
                new_bp,
                orig_nsn_old,
                orig_nsn_new,
                orig_rightlink_old,
                ..
            } => {
                if page == *orig {
                    for (slot, _) in moved {
                        g.delete_cell(*slot);
                    }
                    fit(node::set_bp(g, orig_bp_new), "shrunk BP")?;
                    // Zero is the sentinel for "this record's own LSN".
                    g.set_nsn(if *orig_nsn_new == 0 { lsn.0 } else { *orig_nsn_new });
                    g.set_rightlink(PageId(*new));
                } else {
                    // The sibling inherits the old NSN and rightlink (§3).
                    g.format(PageId(*new), *level);
                    node::init_node(g, new_bp);
                    for (_, cell) in moved {
                        fit(g.insert_cell(cell), "moved cell")?;
                    }
                    g.set_nsn(*orig_nsn_old);
                    g.set_rightlink(PageId(*orig_rightlink_old));
                }
            }
            GistRecord::GarbageCollection { removed, new_bp, .. } => {
                for (slot, _) in removed {
                    g.delete_cell(*slot);
                }
                fit(node::set_bp(g, new_bp), "shrunk BP")?;
            }
            GistRecord::InternalEntryAdd { slot, cell, .. }
            | GistRecord::AddLeafEntry { slot, cell, .. }
            | GistRecord::CatalogAdd { slot, cell } => fit(g.insert_cell_at(*slot, cell), "entry")?,
            GistRecord::InternalEntryUpdate { slot, new_cell: cell, .. }
            | GistRecord::UnmarkLeafEntry { slot, cell, .. } => {
                fit(g.update_cell(*slot, cell), "entry update")?;
            }
            GistRecord::InternalEntryDelete { slot, .. }
            | GistRecord::CatalogRemove { slot }
            | GistRecord::RemoveLeafEntry { slot, .. } => {
                g.delete_cell(*slot);
            }
            GistRecord::MarkLeafEntry { slot, old_cell, deleter, .. } => {
                let marked = LeafEntry::with_mark(old_cell, true, TxnId(*deleter));
                fit(g.update_cell(*slot, &marked), "in-place mark")?;
            }
            GistRecord::GetPage { level, bp, .. } => {
                g.format(PageId(page), *level);
                node::init_node(g, bp);
                g.set_available(false);
            }
            GistRecord::FreePage { .. } | GistRecord::SetAvailable { .. } => g.set_available(true),
            GistRecord::SetUnavailable { .. } => g.set_available(false),
            GistRecord::UndoSplit { orig, restored, orig_bp, orig_nsn, orig_rightlink, .. } => {
                if page == *orig {
                    for (slot, cell) in restored {
                        fit(g.insert_cell_at(*slot, cell), "restored cell")?;
                    }
                    fit(node::set_bp(g, orig_bp), "restored BP")?;
                    g.set_nsn(*orig_nsn);
                    g.set_rightlink(PageId(*orig_rightlink));
                } else {
                    g.clear_cells();
                }
            }
        }
        g.mark_dirty(lsn);
        Ok(())
    }

    /// Table 1's undo of this record, as the compensation record (CLR)
    /// whose [`apply`](GistRecord::apply) performs it; `None` for the
    /// redo-only records and for CLRs themselves. The two logical kinds'
    /// CLRs name the page and slot the record left its entry at; rollback
    /// moves them to where it finds the entry now (§9.2).
    pub fn compensation(&self) -> Option<GistRecord> {
        // Every record kind by name: a new variant must get an arm here.
        #[deny(clippy::wildcard_enum_match_arm)]
        let clr = match self {
            GistRecord::AddLeafEntry { page, slot, .. } => {
                GistRecord::RemoveLeafEntry { page: *page, slot: *slot }
            }
            GistRecord::MarkLeafEntry { page, slot, old_cell, .. } => {
                GistRecord::UnmarkLeafEntry { page: *page, slot: *slot, cell: old_cell.clone() }
            }
            GistRecord::Split {
                orig, new, moved, orig_bp_old, orig_nsn_old, orig_rightlink_old, ..
            } => GistRecord::UndoSplit {
                orig: *orig,
                new: *new,
                restored: moved.clone(),
                orig_bp: orig_bp_old.clone(),
                orig_nsn: *orig_nsn_old,
                orig_rightlink: *orig_rightlink_old,
            },
            GistRecord::GetPage { page, .. } => GistRecord::SetAvailable { page: *page },
            GistRecord::FreePage { page } => GistRecord::SetUnavailable { page: *page },
            GistRecord::InternalEntryAdd { page, slot, cell } => {
                GistRecord::InternalEntryDelete { page: *page, slot: *slot, cell: cell.clone() }
            }
            GistRecord::InternalEntryUpdate { page, slot, new_cell, old_cell } => {
                GistRecord::InternalEntryUpdate {
                    page: *page,
                    slot: *slot,
                    new_cell: old_cell.clone(),
                    old_cell: new_cell.clone(),
                }
            }
            GistRecord::InternalEntryDelete { page, slot, cell } => {
                GistRecord::InternalEntryAdd { page: *page, slot: *slot, cell: cell.clone() }
            }
            GistRecord::CatalogAdd { slot, .. } => GistRecord::CatalogRemove { slot: *slot },
            // Table 1's redo-only records, and the CLRs.
            GistRecord::ParentEntryUpdate { .. }
            | GistRecord::GarbageCollection { .. }
            | GistRecord::CatalogRemove { .. }
            | GistRecord::RemoveLeafEntry { .. }
            | GistRecord::UnmarkLeafEntry { .. }
            | GistRecord::UndoSplit { .. }
            | GistRecord::SetAvailable { .. }
            | GistRecord::SetUnavailable { .. } => return None,
        };
        Some(clr)
    }

    /// A leaf entry's CLR, moved to `page` and `slot`, where logical undo
    /// found the entry. Other records are returned unchanged.
    pub(crate) fn located_at(mut self, at: PageId, at_slot: SlotId) -> GistRecord {
        if let GistRecord::RemoveLeafEntry { page, slot }
        | GistRecord::UnmarkLeafEntry { page, slot, .. } = &mut self
        {
            (*page, *slot) = (at.0, at_slot);
        }
        self
    }

    /// Page-oriented redo at restart (repeating history):
    /// [`apply`](GistRecord::apply) this record to each page it names
    /// whose page LSN predates `lsn`. Returns whether any page changed.
    pub fn redo(&self, pool: &Arc<BufferPool>, lsn: Lsn) -> crate::Result<bool> {
        let pages = self.pages();
        // Make sure every touched page exists in the store.
        let max_page = pages.iter().copied().max().unwrap_or(0);
        pool.store().ensure_capacity(max_page + 1)?;
        let mut applied = false;
        for page in pages {
            let mut g = pool.fetch_write(PageId(page))?;
            if g.page_lsn() < lsn {
                self.apply(&mut g, lsn)?;
                applied = true;
            }
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: GistRecord) {
        let enc = rec.encode();
        let dec = GistRecord::decode(&enc).unwrap();
        assert_eq!(rec, dec);
        // Payload pages match.
        assert_eq!(rec.to_payload().pages, rec.pages());
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(GistRecord::ParentEntryUpdate {
            child: 3,
            parent: 2,
            parent_slot: 4,
            new_bp: vec![1, 2],
        });
        roundtrip(GistRecord::ParentEntryUpdate {
            child: 3,
            parent: u32::MAX,
            parent_slot: 0,
            new_bp: vec![],
        });
        roundtrip(GistRecord::Split {
            orig: 1,
            new: 2,
            level: 0,
            moved: vec![(1, vec![9]), (3, vec![8, 8])],
            orig_bp_old: vec![1],
            orig_bp_new: vec![2],
            new_bp: vec![3],
            orig_nsn_old: 5,
            orig_nsn_new: 6,
            orig_rightlink_old: u32::MAX,
            pending_to_new: true,
        });
        roundtrip(GistRecord::GarbageCollection {
            page: 4,
            removed: vec![(2, vec![1])],
            new_bp: vec![7],
        });
        roundtrip(GistRecord::InternalEntryAdd { page: 1, slot: 2, cell: vec![1, 2, 3] });
        roundtrip(GistRecord::InternalEntryUpdate {
            page: 1,
            slot: 2,
            new_cell: vec![1],
            old_cell: vec![2],
        });
        roundtrip(GistRecord::InternalEntryDelete { page: 1, slot: 2, cell: vec![5] });
        roundtrip(GistRecord::AddLeafEntry { page: 9, nsn: 11, slot: 3, cell: vec![4] });
        roundtrip(GistRecord::MarkLeafEntry {
            page: 9,
            nsn: 11,
            slot: 3,
            old_cell: vec![4],
            deleter: 77,
        });
        roundtrip(GistRecord::GetPage { page: 5, level: 1, bp: vec![6] });
        roundtrip(GistRecord::FreePage { page: 5 });
        roundtrip(GistRecord::CatalogAdd { slot: 1, cell: vec![2] });
        roundtrip(GistRecord::CatalogRemove { slot: 1 });
        roundtrip(GistRecord::RemoveLeafEntry { page: 1, slot: 2 });
        roundtrip(GistRecord::UnmarkLeafEntry { page: 1, slot: 2, cell: vec![3] });
        roundtrip(GistRecord::UndoSplit {
            orig: 1,
            new: 2,
            restored: vec![(1, vec![1])],
            orig_bp: vec![2],
            orig_nsn: 3,
            orig_rightlink: 4,
        });
        roundtrip(GistRecord::SetAvailable { page: 3 });
        roundtrip(GistRecord::SetUnavailable { page: 3 });
    }

    #[test]
    fn decode_rejects_junk() {
        assert!(GistRecord::decode(&[200]).is_err());
        assert!(GistRecord::decode(&[]).is_err());
        let mut enc = GistRecord::FreePage { page: 1 }.encode();
        enc.push(0); // trailing byte
        assert!(GistRecord::decode(&enc).is_err());
    }
}
