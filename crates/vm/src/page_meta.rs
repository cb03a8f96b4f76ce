//! Per-page metadata — the model of Linux's `struct page`.
//!
//! §2: *"the Linux PAGE structure has 25 separate flags to track memory
//! status and 38 fields (many overlapping in unions)... Much of the
//! information tracked by the memory manager is either unnecessary or
//! can be tracked at much coarser granularity."* The baseline kernel
//! maintains one [`PageMeta`] per physical frame — a flags word with
//! the 25 Linux page flags, a map count, and a reverse-mapping list —
//! and the T-META experiment weighs this against file-only memory's
//! bitmap + extent metadata.

use o1_hw::{FrameNo, VirtAddr};

use crate::types::Pid;

/// The 25 page flags of the Linux `struct page` (as of the paper's
/// writing; enum values are bit positions in [`PageMeta::flags`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum PageFlag {
    Locked = 0,
    Error = 1,
    Referenced = 2,
    Uptodate = 3,
    Dirty = 4,
    Lru = 5,
    Active = 6,
    Slab = 7,
    OwnerPriv1 = 8,
    Arch1 = 9,
    Reserved = 10,
    Private = 11,
    Private2 = 12,
    Writeback = 13,
    Head = 14,
    Swapcache = 15,
    Mappedtodisk = 16,
    Reclaim = 17,
    Swapbacked = 18,
    Unevictable = 19,
    Mlocked = 20,
    Uncached = 21,
    Hwpoison = 22,
    Young = 23,
    Idle = 24,
}

/// Number of modelled page flags.
pub const PAGE_FLAG_COUNT: u32 = 25;

/// Bytes one `struct page` occupies on x86-64 Linux. Used for the
/// metadata-footprint experiment (T-META).
pub const STRUCT_PAGE_BYTES: u64 = 64;

/// Per-frame metadata record.
#[derive(Clone, Debug, Default)]
pub struct PageMeta {
    /// Bit i set ⇔ `PageFlag` with value i is set.
    pub flags: u32,
    /// Number of page-table entries referencing this frame.
    pub mapcount: u32,
    /// Pin count (DMA / device access); pinned pages are unevictable.
    pub pins: u32,
    /// Reverse mappings: (process, virtual page base) pairs.
    pub rmap: Vec<(Pid, VirtAddr)>,
}

impl PageMeta {
    /// Test a flag.
    #[inline]
    pub fn test(&self, f: PageFlag) -> bool {
        self.flags >> (f as u32) & 1 == 1
    }

    /// Set a flag.
    #[inline]
    pub fn set(&mut self, f: PageFlag) {
        self.flags |= 1 << (f as u32);
    }

    /// Clear a flag.
    #[inline]
    pub fn clear(&mut self, f: PageFlag) {
        self.flags &= !(1 << (f as u32));
    }

    /// Test-and-clear, as reclaim does with Referenced.
    #[inline]
    pub fn test_and_clear(&mut self, f: PageFlag) -> bool {
        let was = self.test(f);
        self.clear(f);
        was
    }
}

/// The frame-indexed metadata table (`mem_map` in Linux terms).
#[derive(Debug)]
pub struct PageMetaTable {
    table: Vec<PageMeta>,
}

impl PageMetaTable {
    /// One record per frame of a machine with `frames` frames.
    pub fn new(frames: u64) -> PageMetaTable {
        PageMetaTable {
            table: vec![PageMeta::default(); frames as usize],
        }
    }

    /// Borrow the record for `frame`.
    pub fn get(&self, frame: FrameNo) -> &PageMeta {
        &self.table[frame.0 as usize]
    }

    /// Mutably borrow the record for `frame`.
    pub fn get_mut(&mut self, frame: FrameNo) -> &mut PageMeta {
        &mut self.table[frame.0 as usize]
    }

    /// Reset the record for a frame returning to the allocator.
    pub fn reset(&mut self, frame: FrameNo) {
        self.table[frame.0 as usize] = PageMeta::default();
    }

    /// Record a mapping of `frame` at `(pid, va)`: one more map count,
    /// one reverse-map entry, and `flags` set. The only writer of
    /// [`PageMeta::rmap`] entries. Returns true when `flags` make the
    /// frame reclaimable: a swap-backed base page (a huge head becomes
    /// reclaimable only once split).
    #[inline]
    pub(crate) fn add_mapping(
        &mut self,
        frame: FrameNo,
        pid: Pid,
        va: VirtAddr,
        flags: &[PageFlag],
    ) -> bool {
        let meta = self.get_mut(frame);
        meta.mapcount += 1;
        meta.rmap.push((pid, va));
        for &f in flags {
            meta.set(f);
        }
        flags.contains(&PageFlag::Swapbacked) && !flags.contains(&PageFlag::Head)
    }

    /// Remove the mapping of `frame` at `(pid, va)`. Returns true when
    /// the frame is now unmapped and not file-owned, so its caller
    /// must release it.
    #[inline]
    pub(crate) fn remove_mapping(&mut self, frame: FrameNo, pid: Pid, va: VirtAddr) -> bool {
        let meta = self.get_mut(frame);
        meta.mapcount = meta.mapcount.saturating_sub(1);
        meta.rmap.retain(|&(p, v)| !(p == pid && v == va));
        meta.mapcount == 0 && !meta.test(PageFlag::Mappedtodisk)
    }

    /// Total metadata footprint in bytes: the linear cost the paper
    /// calls out (64 bytes per 4 KiB frame ⇒ 1.5% of all memory).
    pub fn metadata_bytes(&self) -> u64 {
        self.table.len() as u64 * STRUCT_PAGE_BYTES
    }

    /// Number of frames tracked.
    pub fn len(&self) -> u64 {
        self.table.len() as u64
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_bits_are_distinct() {
        let flags = [
            PageFlag::Locked,
            PageFlag::Error,
            PageFlag::Referenced,
            PageFlag::Uptodate,
            PageFlag::Dirty,
            PageFlag::Lru,
            PageFlag::Active,
            PageFlag::Slab,
            PageFlag::OwnerPriv1,
            PageFlag::Arch1,
            PageFlag::Reserved,
            PageFlag::Private,
            PageFlag::Private2,
            PageFlag::Writeback,
            PageFlag::Head,
            PageFlag::Swapcache,
            PageFlag::Mappedtodisk,
            PageFlag::Reclaim,
            PageFlag::Swapbacked,
            PageFlag::Unevictable,
            PageFlag::Mlocked,
            PageFlag::Uncached,
            PageFlag::Hwpoison,
            PageFlag::Young,
            PageFlag::Idle,
        ];
        assert_eq!(flags.len() as u32, PAGE_FLAG_COUNT);
        let mut seen = 0u32;
        for f in flags {
            let bit = 1u32 << (f as u32);
            assert_eq!(seen & bit, 0, "duplicate bit for {f:?}");
            seen |= bit;
        }
    }

    #[test]
    fn set_test_clear() {
        let mut p = PageMeta::default();
        assert!(!p.test(PageFlag::Dirty));
        p.set(PageFlag::Dirty);
        p.set(PageFlag::Lru);
        assert!(p.test(PageFlag::Dirty));
        assert!(p.test(PageFlag::Lru));
        p.clear(PageFlag::Dirty);
        assert!(!p.test(PageFlag::Dirty));
        assert!(p.test_and_clear(PageFlag::Lru));
        assert!(!p.test_and_clear(PageFlag::Lru));
    }

    #[test]
    fn table_footprint_is_linear() {
        // 1 GiB of frames → 16 MiB of struct page: the linear overhead.
        let t = PageMetaTable::new((1 << 30) / 4096);
        assert_eq!(t.metadata_bytes(), (1 << 30) / 4096 * 64);
        assert_eq!(t.metadata_bytes() * 100 / (1 << 30), 1, "~1.5% of memory");
    }

    #[test]
    fn mapping_pair_tracks_mapcount_and_rmap() {
        let mut t = PageMetaTable::new(4);
        let (f, va) = (FrameNo(1), VirtAddr(0x1000));
        assert!(t.add_mapping(f, Pid(1), va, &[PageFlag::Swapbacked]));
        assert!(!t.add_mapping(f, Pid(2), va, &[]), "flags say nothing new");
        assert_eq!(t.get(f).mapcount, 2);
        assert!(t.get(f).test(PageFlag::Swapbacked));
        assert!(!t.remove_mapping(f, Pid(1), va), "still mapped by pid 2");
        assert_eq!(t.get(f).rmap, vec![(Pid(2), va)]);
        assert!(t.remove_mapping(f, Pid(2), va), "last anonymous mapping");
        // A file page stays owned by its file after the last unmap.
        assert!(!t.add_mapping(f, Pid(3), va, &[PageFlag::Mappedtodisk]));
        assert!(!t.remove_mapping(f, Pid(3), va));
        assert_eq!(t.get(f).mapcount, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = PageMetaTable::new(4);
        t.get_mut(FrameNo(2)).set(PageFlag::Active);
        t.get_mut(FrameNo(2)).rmap.push((Pid(1), VirtAddr(0x1000)));
        t.get_mut(FrameNo(2)).mapcount = 1;
        t.reset(FrameNo(2));
        assert!(!t.get(FrameNo(2)).test(PageFlag::Active));
        assert!(t.get(FrameNo(2)).rmap.is_empty());
        assert_eq!(t.get(FrameNo(2)).mapcount, 0);
    }
}
