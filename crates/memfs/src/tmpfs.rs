//! Page-granular in-memory file system — the tmpfs baseline.
//!
//! This models Linux tmpfs as the paper measures it: each file is a
//! radix of individual 4 KiB pages, allocated one at a time (one
//! allocator call, one zero, one metadata update *per page*). That
//! per-page structure is precisely what makes `MAP_POPULATE` linear in
//! Figure 1a and demand faulting expensive in Figure 1b.

use o1_hw::{CostKind, FastMap};
use std::collections::BTreeMap;

use o1_hw::{FrameNo, Machine, PAGE_SIZE};
use o1_palloc::FrameSource;

use crate::types::{FileId, FsError};

/// One tmpfs file: a sparse radix of pages.
#[derive(Debug, Default)]
pub struct TmpfsFile {
    /// file page index → frame.
    pages: BTreeMap<u64, FrameNo>,
    /// Logical size in bytes.
    size: u64,
    /// Open/mmap references (the file outlives unlink while > 0).
    refs: u32,
    /// Whether a name still links to this file.
    linked: bool,
}

impl TmpfsFile {
    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of pages actually allocated.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// The tmpfs instance.
#[derive(Debug, Default)]
pub struct Tmpfs {
    /// Keyed by kernel-issued fixed-width file ids (monotonic u64s, no
    /// untrusted input), so the fast hasher is safe; probed on every
    /// per-page fault and write.
    files: FastMap<FileId, TmpfsFile>,
    names: BTreeMap<String, FileId>,
    next_id: u64,
    used_frames: u64,
}

impl Tmpfs {
    /// Unbounded tmpfs.
    pub fn new() -> Tmpfs {
        Tmpfs::default()
    }

    /// Number of live files (linked or still referenced).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Frames currently allocated to files.
    pub fn used_frames(&self) -> u64 {
        self.used_frames
    }

    /// Create an empty file. Charges inode creation.
    pub fn create(&mut self, m: &mut Machine, name: &str) -> Result<FileId, FsError> {
        m.charge_kind(CostKind::FsLookup);
        if self.names.contains_key(name) {
            return Err(FsError::Exists);
        }
        m.charge_kind(CostKind::FsCreateInode);
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.files.insert(
            id,
            TmpfsFile {
                linked: true,
                ..TmpfsFile::default()
            },
        );
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Resolve a name. Charges a path lookup.
    pub fn lookup(&self, m: &mut Machine, name: &str) -> Result<FileId, FsError> {
        m.charge_kind(CostKind::FsLookup);
        self.names.get(name).copied().ok_or(FsError::NotFound)
    }

    /// Borrow a file's metadata.
    pub fn file(&self, id: FileId) -> Result<&TmpfsFile, FsError> {
        self.files.get(&id).ok_or(FsError::NotFound)
    }

    /// Take a reference (open or mmap).
    pub fn inc_ref(&mut self, id: FileId) -> Result<(), FsError> {
        self.files
            .get_mut(&id)
            .map(|f| f.refs += 1)
            .ok_or(FsError::NotFound)
    }

    /// Drop a reference; destroys the file if it is also unlinked.
    /// Returns true if the file was destroyed.
    pub fn dec_ref(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        id: FileId,
    ) -> Result<bool, FsError> {
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        assert!(f.refs > 0, "unbalanced dec_ref on {id:?}");
        f.refs -= 1;
        if f.refs == 0 && !f.linked {
            self.destroy(m, alloc, id);
            return Ok(true);
        }
        Ok(false)
    }

    /// Set the logical size. Shrinking frees pages beyond the new end
    /// (per page, as tmpfs does). Growing allocates nothing — pages
    /// appear on first touch.
    pub fn set_size(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        id: FileId,
        bytes: u64,
    ) -> Result<(), FsError> {
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        let new_pages = bytes.div_ceil(PAGE_SIZE);
        let doomed: Vec<u64> = f.pages.range(new_pages..).map(|(&p, _)| p).collect();
        for p in doomed {
            let frame = f.pages.remove(&p).expect("page present");
            m.charge_kind(CostKind::PageMetaUpdate);
            m.perf.page_meta_updates += 1;
            alloc.free(m, o1_palloc::PhysExtent::new(frame, 1));
            self.used_frames -= 1;
        }
        let f = self.files.get_mut(&id).expect("checked above");
        f.size = bytes;
        Ok(())
    }

    /// Frame backing `page_idx`, if already allocated.
    pub fn page(&self, id: FileId, page_idx: u64) -> Option<FrameNo> {
        self.files.get(&id)?.pages.get(&page_idx).copied()
    }

    /// Get the frame for `page_idx`, allocating (one page at a time —
    /// the tmpfs way) if absent. This is the per-page cost center:
    /// one allocator call + one radix update per page.
    pub fn get_or_alloc_page(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        id: FileId,
        page_idx: u64,
    ) -> Result<FrameNo, FsError> {
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        if page_idx >= f.size.div_ceil(PAGE_SIZE) {
            return Err(FsError::OutOfRange);
        }
        if let Some(&frame) = f.pages.get(&page_idx) {
            // Radix lookup of an existing page (the fault-time cost of
            // mapping a pre-allocated file block).
            m.charge_kind(CostKind::FsExtentOp);
            return Ok(frame);
        }
        let ext = alloc.alloc(m, 1).map_err(|_| FsError::NoSpace)?;
        // tmpfs semantics: a fresh file page reads as zeros, so the
        // page is scrubbed on the allocation path.
        let tier = m.phys.tier(ext.start);
        m.charge_zero_fg(tier, PAGE_SIZE);
        m.phys.zero_frames(ext.start, 1);
        m.charge_kind(CostKind::PageMetaUpdate);
        m.perf.page_meta_updates += 1;
        self.used_frames += 1;
        self.files
            .get_mut(&id)
            .expect("checked above")
            .pages
            .insert(page_idx, ext.start);
        Ok(ext.start)
    }

    /// `fallocate()`-style preallocation: materialize every page
    /// covering `[off, off+bytes)`, one page at a time exactly as a
    /// streaming write would, minus the user→page-cache data copies.
    /// Grows the logical size like a write past EOF does.
    pub fn allocate_range(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        id: FileId,
        off: u64,
        bytes: u64,
    ) -> Result<(), FsError> {
        if bytes == 0 {
            return Ok(());
        }
        let end = off + bytes;
        {
            let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
            if end > f.size {
                f.size = end;
            }
        }
        for page in off / PAGE_SIZE..end.div_ceil(PAGE_SIZE) {
            self.get_or_alloc_page(m, alloc, id, page)?;
        }
        Ok(())
    }

    /// Write `data` at byte `off`, growing the file as needed and
    /// allocating pages on demand. Charges one page copy per touched
    /// page (the kernel's user→page-cache copy).
    pub fn write(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        id: FileId,
        off: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        let end = off + data.len() as u64;
        {
            let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
            if end > f.size {
                f.size = end;
            }
        }
        let mut pos = off;
        let mut done = 0usize;
        while done < data.len() {
            let page = pos / PAGE_SIZE;
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = usize::min(data.len() - done, PAGE_SIZE as usize - in_page);
            let frame = self.get_or_alloc_page(m, alloc, id, page)?;
            m.charge_kind(CostKind::CopyPage);
            m.phys.write(
                o1_hw::PhysAddr(frame.base().0 + in_page as u64),
                &data[done..done + take],
            );
            pos += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Read into `buf` from byte `off`. Holes read as zeros. Charges
    /// one page copy per touched page.
    pub fn read(
        &self,
        m: &mut Machine,
        id: FileId,
        off: u64,
        buf: &mut [u8],
    ) -> Result<(), FsError> {
        let f = self.files.get(&id).ok_or(FsError::NotFound)?;
        if off + buf.len() as u64 > f.size {
            return Err(FsError::OutOfRange);
        }
        let mut pos = off;
        let mut done = 0usize;
        while done < buf.len() {
            let page = pos / PAGE_SIZE;
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = usize::min(buf.len() - done, PAGE_SIZE as usize - in_page);
            m.charge_kind(CostKind::CopyPage);
            match f.pages.get(&page) {
                Some(frame) => m.phys.read(
                    o1_hw::PhysAddr(frame.base().0 + in_page as u64),
                    &mut buf[done..done + take],
                ),
                None => buf[done..done + take].fill(0),
            }
            pos += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Remove the name. The file is destroyed now if unreferenced,
    /// else when the last reference drops. Destruction frees pages one
    /// at a time (per-page cost — the baseline's linear teardown).
    pub fn unlink(
        &mut self,
        m: &mut Machine,
        alloc: &mut dyn FrameSource,
        name: &str,
    ) -> Result<(), FsError> {
        m.charge_kind(CostKind::FsLookup);
        let id = self.names.remove(name).ok_or(FsError::NotFound)?;
        let f = self.files.get_mut(&id).expect("name points to live file");
        f.linked = false;
        if f.refs == 0 {
            self.destroy(m, alloc, id);
        }
        Ok(())
    }

    fn destroy(&mut self, m: &mut Machine, alloc: &mut dyn FrameSource, id: FileId) {
        m.charge_kind(CostKind::FsRemoveInode);
        let f = self.files.remove(&id).expect("destroy of live file");
        for (_, frame) in f.pages {
            m.charge_kind(CostKind::PageMetaUpdate);
            m.perf.page_meta_updates += 1;
            alloc.free(m, o1_palloc::PhysExtent::new(frame, 1));
            self.used_frames -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_palloc::{BuddyAllocator, PhysExtent};

    fn setup(frames: u64) -> (Machine, Tmpfs, BuddyAllocator) {
        let m = Machine::dram_only(frames * PAGE_SIZE);
        let alloc = BuddyAllocator::new(PhysExtent::new(FrameNo(0), frames));
        (m, Tmpfs::new(), alloc)
    }

    #[test]
    fn create_lookup_unlink() {
        let (mut m, mut fs, mut a) = setup(1024);
        let id = fs.create(&mut m, "/tmp/x").unwrap();
        assert_eq!(fs.lookup(&mut m, "/tmp/x").unwrap(), id);
        assert_eq!(fs.create(&mut m, "/tmp/x"), Err(FsError::Exists));
        fs.unlink(&mut m, &mut a, "/tmp/x").unwrap();
        assert_eq!(fs.lookup(&mut m, "/tmp/x"), Err(FsError::NotFound));
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut m, mut fs, mut a) = setup(1024);
        let id = fs.create(&mut m, "f").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        fs.write(&mut m, &mut a, id, 100, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        fs.read(&mut m, id, 100, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(fs.file(id).unwrap().size(), 100 + 10_000);
        // Three pages cover 100..10100.
        assert_eq!(fs.file(id).unwrap().page_count(), 3);
    }

    #[test]
    fn holes_read_zero() {
        let (mut m, mut fs, mut a) = setup(1024);
        let id = fs.create(&mut m, "f").unwrap();
        fs.set_size(&mut m, &mut a, id, 16 * PAGE_SIZE).unwrap();
        let mut buf = [7u8; 64];
        fs.read(&mut m, id, 5 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(fs.file(id).unwrap().page_count(), 0, "still sparse");
    }

    #[test]
    fn per_page_allocation_is_linear() {
        // The tmpfs cost signature: N pages → N allocator calls.
        let (mut m, mut fs, mut a) = setup(4096);
        let id = fs.create(&mut m, "f").unwrap();
        fs.set_size(&mut m, &mut a, id, 256 * PAGE_SIZE).unwrap();
        let calls_before = m.perf.alloc_calls;
        for p in 0..256 {
            fs.get_or_alloc_page(&mut m, &mut a, id, p).unwrap();
        }
        assert_eq!(m.perf.alloc_calls - calls_before, 256);
        // Already-present pages cost no further allocations.
        let calls_before = m.perf.alloc_calls;
        for p in 0..256 {
            fs.get_or_alloc_page(&mut m, &mut a, id, p).unwrap();
        }
        assert_eq!(m.perf.alloc_calls - calls_before, 0);
    }

    #[test]
    fn out_of_range_page_rejected() {
        let (mut m, mut fs, mut a) = setup(64);
        let id = fs.create(&mut m, "f").unwrap();
        fs.set_size(&mut m, &mut a, id, PAGE_SIZE).unwrap();
        assert_eq!(
            fs.get_or_alloc_page(&mut m, &mut a, id, 1),
            Err(FsError::OutOfRange)
        );
        let mut buf = [0u8; 8];
        assert_eq!(
            fs.read(&mut m, id, PAGE_SIZE, &mut buf),
            Err(FsError::OutOfRange)
        );
    }

    #[test]
    fn shrink_frees_pages() {
        let (mut m, mut fs, mut a) = setup(1024);
        let id = fs.create(&mut m, "f").unwrap();
        fs.write(&mut m, &mut a, id, 0, &vec![1u8; 8 * PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(fs.used_frames(), 8);
        let free_before = a.free_frames();
        fs.set_size(&mut m, &mut a, id, 3 * PAGE_SIZE).unwrap();
        assert_eq!(fs.used_frames(), 3);
        assert_eq!(a.free_frames(), free_before + 5);
    }

    #[test]
    fn unlink_with_live_refs_defers_destroy() {
        let (mut m, mut fs, mut a) = setup(1024);
        let id = fs.create(&mut m, "f").unwrap();
        fs.write(&mut m, &mut a, id, 0, b"data").unwrap();
        fs.inc_ref(id).unwrap();
        fs.unlink(&mut m, &mut a, "f").unwrap();
        // Still readable via the open reference.
        let mut buf = [0u8; 4];
        fs.read(&mut m, id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
        let destroyed = fs.dec_ref(&mut m, &mut a, id).unwrap();
        assert!(destroyed);
        assert_eq!(fs.file_count(), 0);
        assert_eq!(fs.used_frames(), 0);
    }

    #[test]
    fn destroy_returns_frames() {
        let (mut m, mut fs, mut a) = setup(1024);
        let before = a.free_frames();
        let id = fs.create(&mut m, "f").unwrap();
        fs.write(&mut m, &mut a, id, 0, &vec![1u8; 16 * PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(a.free_frames(), before - 16);
        fs.unlink(&mut m, &mut a, "f").unwrap();
        assert_eq!(a.free_frames(), before);
    }
}
