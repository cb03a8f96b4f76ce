//! Extent-based persistent-memory file system — the PMFS model.
//!
//! This is the substrate for file-only memory: files are extent trees
//! over NVM frames allocated from a block bitmap, metadata changes go
//! through a redo journal, and the whole structure is rebuilt from the
//! journal after a crash. Key properties the paper relies on:
//!
//! * **Extent-granular allocation** — allocating a file of any size
//!   costs a handful of extent operations, not one per page
//!   (Figure 2/7: PMFS-file allocation ≈ anonymous-memory allocation).
//! * **Whole-file metadata** — permissions, class (volatile /
//!   persistent / discardable) and reference counts are per file.
//! * **File-granular reclamation** — freeing is per extent; under
//!   pressure discardable files are deleted whole (A-RECLAIM).
//! * **Crash behaviour** — persistent files survive via journal
//!   replay; volatile files are dropped and their frames erased
//!   (A-PERSIST).

use o1_hw::CostKind;
use o1_hw::FastMap;
use std::collections::BTreeMap;

use o1_hw::{Machine, PhysAddr, PAGE_SIZE};
use o1_palloc::{BitmapAllocator, FrameSource, PhysExtent};

use crate::extent_tree::ExtentTree;
use crate::journal::{Journal, Record};
use crate::types::{FileClass, FileId, FsError};

/// Frame alignment used for large files so their extents can back
/// 2 MiB page-table subtrees (512 frames = 2 MiB).
pub const HUGE_ALIGN_FRAMES: u64 = 512;

/// One PMFS inode.
#[derive(Debug)]
pub struct Inode {
    /// Extent map (file page → physical extent).
    pub extents: ExtentTree,
    size: u64,
    class: FileClass,
    linked: bool,
    refs: u32,
    /// Whether this file's metadata goes through the journal. Only
    /// persistent files do: volatile/discardable files never survive
    /// a crash, so journaling their metadata would be pure overhead —
    /// an optimisation the churn macro-benchmark motivated.
    journaled: bool,
    /// LRU stamp for discardable reclamation.
    last_access: u64,
}

impl Inode {
    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Volatile / persistent / discardable class.
    pub fn class(&self) -> FileClass {
        self.class
    }

    /// Number of extents backing the file.
    pub fn extent_count(&self) -> usize {
        self.extents.extent_count()
    }

    /// Open/mmap reference count.
    pub fn refs(&self) -> u32 {
        self.refs
    }
}

/// Statistics returned by [`Pmfs::recover`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Journal records replayed.
    pub records_replayed: u64,
    /// Persistent files restored.
    pub persistent_files: u64,
    /// Volatile/discardable files dropped and erased.
    pub volatile_dropped: u64,
    /// Extents rebuilt into extent trees.
    pub extents_rebuilt: u64,
}

/// The PMFS instance.
///
/// # Examples
/// ```
/// use o1_hw::Machine;
/// use o1_memfs::{FileClass, Pmfs};
/// use o1_palloc::PhysExtent;
///
/// let mut m = Machine::with_nvm(1 << 20, 64 << 20);
/// let mut fs = Pmfs::format(PhysExtent::new(m.phys.nvm_base(), m.phys.nvm_frames()));
/// let id = fs.create(&mut m, "/data", FileClass::Persistent).unwrap();
/// fs.write(&mut m, id, 0, b"hello").unwrap();
/// // Crash and recover from the journal: the data survives.
/// let (span, journal) = (fs.span(), fs.journal().clone());
/// m.phys.crash();
/// let (mut fs2, stats) = Pmfs::recover(&mut m, span, journal);
/// assert_eq!(stats.persistent_files, 1);
/// let id = fs2.lookup(&mut m, "/data").unwrap();
/// let mut buf = [0u8; 5];
/// fs2.read(&mut m, id, 0, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug)]
pub struct Pmfs {
    /// Keyed by kernel-issued fixed-width file ids (monotonic u64s, no
    /// untrusted input), so the non-SipHash fast hasher is safe; this
    /// map is probed on every read/write/extent op.
    files: FastMap<FileId, Inode>,
    names: BTreeMap<String, FileId>,
    next_id: u64,
    next_tx: u64,
    access_clock: u64,
    alloc: BitmapAllocator,
    journal: Journal,
    span: PhysExtent,
}

/// A transaction that begins with the journal holding this many
/// records checkpoints it first, which keeps a long-running system's
/// recovery bounded.
const AUTO_CHECKPOINT_RECORDS: usize = 100_000;

impl Pmfs {
    /// Format a fresh file system over the NVM frames of `span`.
    pub fn format(span: PhysExtent) -> Pmfs {
        Pmfs {
            files: FastMap::default(),
            names: BTreeMap::new(),
            next_id: 1,
            next_tx: 1,
            access_clock: 0,
            alloc: BitmapAllocator::new(span),
            journal: Journal::new(),
            span,
        }
    }

    /// Frames still free in the volume.
    pub fn free_frames(&self) -> u64 {
        self.alloc.free_frames()
    }

    /// The managed frame span.
    pub fn span(&self) -> PhysExtent {
        self.span
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Borrow the journal (tests and recovery).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Bytes of allocator metadata (for the T-META experiment).
    pub fn allocator_metadata_bytes(&self) -> u64 {
        self.alloc.metadata_bytes()
    }

    /// Borrow an inode.
    pub fn inode(&self, id: FileId) -> Result<&Inode, FsError> {
        self.files.get(&id).ok_or(FsError::NotFound)
    }

    /// All linked file names, in name order.
    pub fn file_names(&self) -> Vec<String> {
        self.names.keys().cloned().collect()
    }

    fn begin(&mut self, m: &mut Machine) -> u64 {
        if self.journal.len() >= AUTO_CHECKPOINT_RECORDS {
            self.checkpoint(m);
        }
        let tx = self.next_tx;
        self.next_tx += 1;
        self.journal.append(m, Record::Begin { tx });
        tx
    }

    /// Create an empty file of the given class.
    pub fn create(
        &mut self,
        m: &mut Machine,
        name: &str,
        class: FileClass,
    ) -> Result<FileId, FsError> {
        m.charge_kind(CostKind::FsLookup);
        if self.names.contains_key(name) {
            return Err(FsError::Exists);
        }
        m.charge_kind(CostKind::FsCreateInode);
        let id = FileId(self.next_id);
        self.next_id += 1;
        let journaled = class == FileClass::Persistent;
        if journaled {
            let tx = self.begin(m);
            self.journal.append(
                m,
                Record::CreateInode {
                    id,
                    name: name.to_string(),
                    class,
                },
            );
            self.journal.commit(m, tx);
        }
        self.access_clock += 1;
        self.files.insert(
            id,
            Inode {
                extents: ExtentTree::new(),
                size: 0,
                class,
                linked: true,
                refs: 0,
                journaled,
                last_access: self.access_clock,
            },
        );
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Resolve a name.
    pub fn lookup(&self, m: &mut Machine, name: &str) -> Result<FileId, FsError> {
        m.charge_kind(CostKind::FsLookup);
        self.names.get(name).copied().ok_or(FsError::NotFound)
    }

    /// Grow the file to at least `bytes`, allocating whole extents.
    ///
    /// This is the paper's O(1)-flavoured allocation: the file system
    /// first tries a *single* contiguous extent (huge-page aligned for
    /// large files so mappings can use 2 MiB entries and shared
    /// page-table subtrees), and only fragments under free-space
    /// pressure. The cost is per *extent*, not per page.
    pub fn allocate(&mut self, m: &mut Machine, id: FileId, bytes: u64) -> Result<(), FsError> {
        let (end_page, cur_size, journaled) = {
            let f = self.files.get(&id).ok_or(FsError::NotFound)?;
            (f.extents.end_page(), f.size, f.journaled)
        };
        let want_pages = bytes.div_ceil(PAGE_SIZE);
        if want_pages > end_page {
            let mut need = want_pages - end_page;
            let mut at_page = end_page;
            let tx = if journaled { Some(self.begin(m)) } else { None };
            let mut got: Vec<(u64, PhysExtent)> = Vec::new();
            while need > 0 {
                // Try the whole remainder first, halving on failure —
                // an empty volume yields one extent; a fragmented one
                // yields the fewest extents the free space allows.
                let mut allocated = None;
                let mut try_frames = need;
                while try_frames >= 1 {
                    let a = if try_frames >= HUGE_ALIGN_FRAMES {
                        self.alloc
                            .alloc_aligned(m, try_frames, HUGE_ALIGN_FRAMES)
                            .or_else(|_| self.alloc.alloc(m, try_frames))
                    } else {
                        self.alloc.alloc(m, try_frames)
                    };
                    if let Ok(ext) = a {
                        allocated = Some(ext);
                        break;
                    }
                    try_frames /= 2;
                }
                let Some(ext) = allocated else {
                    // Roll back this transaction's allocations.
                    for (_, e) in got {
                        self.alloc.free(m, e);
                    }
                    return Err(FsError::NoSpace);
                };
                m.charge_kind(CostKind::FsExtentOp);
                if let Some(_tx) = tx {
                    self.journal.append(
                        m,
                        Record::AllocExtent {
                            id,
                            file_page: at_page,
                            ext,
                        },
                    );
                }
                got.push((at_page, ext));
                at_page += ext.frames;
                need -= ext.frames;
            }
            if let Some(tx) = tx {
                self.journal.append(
                    m,
                    Record::SetSize {
                        id,
                        bytes: bytes.max(cur_size),
                    },
                );
                self.journal.commit(m, tx);
            }
            let f = self.files.get_mut(&id).expect("checked above");
            for (page, ext) in got {
                f.extents.insert(page, ext);
            }
            f.size = f.size.max(bytes);
        } else if bytes > cur_size {
            if journaled {
                let tx = self.begin(m);
                self.journal.append(m, Record::SetSize { id, bytes });
                self.journal.commit(m, tx);
            }
            self.files.get_mut(&id).expect("checked above").size = bytes;
        }
        Ok(())
    }

    /// Shrink the file to `bytes`, freeing whole extents past the end.
    pub fn truncate(&mut self, m: &mut Machine, id: FileId, bytes: u64) -> Result<(), FsError> {
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        let journaled = f.journaled;
        let keep_pages = bytes.div_ceil(PAGE_SIZE);
        let freed = f.extents.truncate(keep_pages);
        f.size = f.size.min(bytes);
        // Journal the *resulting* size, not the request: truncating a
        // 1-page file "to 2 pages" must not record a 2-page size.
        let new_size = f.size;
        if journaled {
            let tx = self.begin(m);
            for ext in &freed {
                m.charge_kind(CostKind::FsExtentOp);
                self.journal.append(m, Record::FreeExtent { id, ext: *ext });
            }
            self.journal.append(
                m,
                Record::SetSize {
                    id,
                    bytes: new_size,
                },
            );
            self.journal.commit(m, tx);
        } else {
            for _ in &freed {
                m.charge_kind(CostKind::FsExtentOp);
            }
        }
        for ext in freed {
            self.alloc.free(m, ext);
        }
        Ok(())
    }

    /// Re-mark a file volatile / persistent / discardable — the
    /// paper's "marked at any time as volatile or persistent".
    pub fn set_class(
        &mut self,
        m: &mut Machine,
        id: FileId,
        class: FileClass,
    ) -> Result<(), FsError> {
        let (was_journaled, name) = {
            let f = self.files.get(&id).ok_or(FsError::NotFound)?;
            let name = self
                .names
                .iter()
                .find(|(_, &fid)| fid == id)
                .map(|(n, _)| n.clone());
            (f.journaled, name)
        };
        let promote = class == FileClass::Persistent && !was_journaled;
        if promote {
            // The file was never journaled: write its full metadata
            // now so recovery can rebuild it (O(extents)).
            let name = name.ok_or(FsError::NotFound)?;
            let snapshot: Vec<Record> = {
                let f = &self.files[&id];
                let mut recs = vec![Record::CreateInode { id, name, class }];
                recs.extend(f.extents.iter().map(|fe| Record::AllocExtent {
                    id,
                    file_page: fe.file_page,
                    ext: fe.phys,
                }));
                recs.push(Record::SetSize { id, bytes: f.size });
                recs
            };
            let tx = self.begin(m);
            for rec in snapshot {
                self.journal.append(m, rec);
            }
            self.journal.commit(m, tx);
        } else if was_journaled {
            let tx = self.begin(m);
            self.journal.append(m, Record::SetClass { id, class });
            self.journal.commit(m, tx);
        }
        let f = self.files.get_mut(&id).expect("checked above");
        f.class = class;
        // Once journaled, always journaled: recovery owns the file's
        // fate (the SetClass record makes it drop demoted files).
        f.journaled = f.journaled || class == FileClass::Persistent;
        Ok(())
    }

    /// Rename a file (its single link moves to `new_name`).
    pub fn rename(&mut self, m: &mut Machine, old: &str, new: &str) -> Result<(), FsError> {
        m.charge_opn(CostKind::FsLookup, 2);
        if self.names.contains_key(new) {
            return Err(FsError::Exists);
        }
        let id = *self.names.get(old).ok_or(FsError::NotFound)?;
        if self.files[&id].journaled {
            let tx = self.begin(m);
            self.journal.append(
                m,
                Record::Rename {
                    id,
                    new_name: new.to_string(),
                },
            );
            self.journal.commit(m, tx);
        }
        self.names.remove(old);
        self.names.insert(new.to_string(), id);
        Ok(())
    }

    /// Compact the journal to a snapshot of the live metadata. Bounds
    /// journal growth; O(files + extents).
    pub fn checkpoint(&mut self, m: &mut Machine) {
        let mut records = Vec::new();
        records.push(Record::Begin { tx: 0 });
        for (name, &id) in &self.names {
            let f = &self.files[&id];
            if !f.journaled {
                continue;
            }
            records.push(Record::CreateInode {
                id,
                name: name.clone(),
                class: f.class,
            });
            for fe in f.extents.iter() {
                records.push(Record::AllocExtent {
                    id,
                    file_page: fe.file_page,
                    ext: fe.phys,
                });
            }
            records.push(Record::SetSize { id, bytes: f.size });
        }
        records.push(Record::Commit { tx: 0 });
        self.journal.replace(m, records);
        self.next_tx = 1;
    }

    /// Full consistency check (fsck): every file's extents lie within
    /// the volume, no two files share a frame, and the allocator's
    /// free count matches the sum of file extents. Returns the number
    /// of live extents checked.
    ///
    /// # Panics
    /// Panics (with a description) on any inconsistency — intended for
    /// tests and fuzzers.
    pub fn check_consistency(&self) -> usize {
        let mut claimed: std::collections::HashMap<u64, FileId> = std::collections::HashMap::new();
        let mut used_frames = 0u64;
        let mut extents = 0usize;
        for (&id, f) in &self.files {
            let mut last_end = 0u64;
            for fe in f.extents.iter() {
                assert!(
                    fe.file_page >= last_end,
                    "fsck: {id:?} extent at page {} overlaps previous",
                    fe.file_page
                );
                last_end = fe.end_page();
                assert!(
                    fe.phys.start.0 >= self.span.start.0 && fe.phys.end().0 <= self.span.end().0,
                    "fsck: {id:?} extent {:?} outside volume {:?}",
                    fe.phys,
                    self.span
                );
                for frame in fe.phys.start.0..fe.phys.end().0 {
                    if let Some(other) = claimed.insert(frame, id) {
                        panic!("fsck: frame {frame} owned by both {other:?} and {id:?}");
                    }
                    assert!(
                        self.alloc.is_allocated(o1_hw::FrameNo(frame)),
                        "fsck: frame {frame} of {id:?} not marked allocated"
                    );
                }
                used_frames += fe.phys.frames;
                extents += 1;
            }
            assert!(
                f.size <= last_end.max(f.extents.end_page()) * PAGE_SIZE || f.extents.is_empty(),
                "fsck: {id:?} size {} beyond allocated pages",
                f.size
            );
        }
        assert_eq!(
            self.alloc.free_frames() + used_frames,
            self.span.frames,
            "fsck: frame accounting mismatch"
        );
        // Every name points at a live, linked file.
        for (name, id) in &self.names {
            let f = self
                .files
                .get(id)
                .unwrap_or_else(|| panic!("fsck: name {name} points at dead {id:?}"));
            assert!(f.linked, "fsck: name {name} points at unlinked {id:?}");
        }
        extents
    }

    /// Extents of every live *non-persistent* file (the kernel erases
    /// these at crash time, since they are not journaled and their
    /// contents must not be recoverable).
    pub fn non_persistent_extents(&self) -> (u64, Vec<PhysExtent>) {
        let mut count = 0;
        let mut out = Vec::new();
        for f in self.files.values() {
            // Journaled non-persistent files (demoted after a life as
            // persistent) are handled by recovery itself.
            if !f.class.survives_crash() && !f.journaled {
                count += 1;
                out.extend(f.extents.iter().map(|fe| fe.phys));
            }
        }
        (count, out)
    }

    /// Take an open/mmap reference.
    pub fn inc_ref(&mut self, id: FileId) -> Result<(), FsError> {
        self.access_clock += 1;
        let clock = self.access_clock;
        self.files
            .get_mut(&id)
            .map(|f| {
                f.refs += 1;
                f.last_access = clock;
            })
            .ok_or(FsError::NotFound)
    }

    /// Drop a reference; destroys the file if also unlinked. Returns
    /// true if the file was destroyed.
    pub fn dec_ref(&mut self, m: &mut Machine, id: FileId) -> Result<bool, FsError> {
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        assert!(f.refs > 0, "unbalanced dec_ref on {id:?}");
        f.refs -= 1;
        if f.refs == 0 && !f.linked {
            self.destroy(m, id);
            return Ok(true);
        }
        Ok(false)
    }

    /// Remove the name; the inode dies when the last reference drops.
    pub fn unlink(&mut self, m: &mut Machine, name: &str) -> Result<(), FsError> {
        m.charge_kind(CostKind::FsLookup);
        let id = *self.names.get(name).ok_or(FsError::NotFound)?;
        if self.files[&id].journaled {
            let tx = self.begin(m);
            self.journal.append(m, Record::Unlink { id });
            self.journal.commit(m, tx);
        }
        self.names.remove(name);
        let f = self.files.get_mut(&id).expect("name points to live file");
        f.linked = false;
        if f.refs == 0 {
            self.destroy(m, id);
        }
        Ok(())
    }

    fn destroy(&mut self, m: &mut Machine, id: FileId) {
        m.charge_kind(CostKind::FsRemoveInode);
        let mut f = self.files.remove(&id).expect("destroy of live file");
        // Reclamation in the unit of a file: one free per extent.
        for ext in f.extents.take_all() {
            m.charge_kind(CostKind::FsExtentOp);
            self.alloc.free(m, ext);
        }
    }

    /// Write `data` at byte `off`, growing via [`allocate`](Self::allocate)
    /// as needed.
    pub fn write(
        &mut self,
        m: &mut Machine,
        id: FileId,
        off: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        let end = off + data.len() as u64;
        self.allocate(m, id, end)?;
        self.access_clock += 1;
        let clock = self.access_clock;
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        f.last_access = clock;
        let mut pos = off;
        let mut done = 0usize;
        while done < data.len() {
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = usize::min(data.len() - done, PAGE_SIZE as usize - in_page);
            let pa = f.extents.translate(pos).expect("allocated above");
            m.charge_kind(CostKind::CopyPage);
            m.phys.write(pa, &data[done..done + take]);
            pos += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Read into `buf` from byte `off`.
    pub fn read(
        &mut self,
        m: &mut Machine,
        id: FileId,
        off: u64,
        buf: &mut [u8],
    ) -> Result<(), FsError> {
        self.access_clock += 1;
        let clock = self.access_clock;
        let f = self.files.get_mut(&id).ok_or(FsError::NotFound)?;
        if off + buf.len() as u64 > f.size {
            return Err(FsError::OutOfRange);
        }
        f.last_access = clock;
        let mut pos = off;
        let mut done = 0usize;
        while done < buf.len() {
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = usize::min(buf.len() - done, PAGE_SIZE as usize - in_page);
            m.charge_kind(CostKind::CopyPage);
            match f.extents.translate(pos) {
                Some(pa) => m.phys.read(pa, &mut buf[done..done + take]),
                None => buf[done..done + take].fill(0),
            }
            pos += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Physical address of byte `off` of the file (for mapping layers).
    pub fn translate(&self, id: FileId, off: u64) -> Option<PhysAddr> {
        self.files.get(&id)?.extents.translate(off)
    }

    /// Delete least-recently-used *discardable* files until at least
    /// `need_frames` frames have been freed (transcendent-memory-style
    /// reclamation, §3.1). Returns frames actually freed. Cost is per
    /// file + per extent — never per page.
    pub fn reclaim_discardable(&mut self, m: &mut Machine, need_frames: u64) -> u64 {
        let mut candidates: Vec<(u64, FileId)> = self
            .files
            .iter()
            .filter(|(_, f)| f.class == FileClass::Discardable && f.refs == 0)
            .map(|(&id, f)| (f.last_access, id))
            .collect();
        candidates.sort_unstable();
        let mut freed = 0;
        for (_, id) in candidates {
            if freed >= need_frames {
                break;
            }
            freed += self.files[&id].extents.total_pages();
            let name = self
                .names
                .iter()
                .find(|(_, &fid)| fid == id)
                .map(|(n, _)| n.clone());
            m.perf.files_discarded += 1;
            if let Some(n) = name {
                // unlink() destroys immediately since refs == 0.
                let _ = self.unlink(m, &n);
            } else {
                self.destroy(m, id);
            }
        }
        freed
    }

    /// Rebuild the file system from a journal after a crash.
    ///
    /// `span` must be the original volume span; `journal` is whatever
    /// survived in NVM (possibly with a torn tail). Persistent files
    /// are restored; volatile and discardable files are dropped and
    /// their frames erased (zeroed without foreground charge, matching
    /// a crypto-erase of the volatile key — see o1-palloc's zero
    /// policies).
    pub fn recover(m: &mut Machine, span: PhysExtent, journal: Journal) -> (Pmfs, RecoveryStats) {
        let mut fs = Pmfs::format(span);
        let mut stats = RecoveryStats::default();
        let mut max_id = 0u64;
        // Replay committed records. Each replayed record is an NVM
        // read; charge one memory reference per record.
        let committed: Vec<Record> = journal.committed_records().into_iter().cloned().collect();
        for rec in committed {
            stats.records_replayed += 1;
            m.charge_kind(CostKind::MemReadNvm);
            match rec {
                Record::Begin { .. } | Record::Commit { .. } => {}
                Record::CreateInode { id, name, class } => {
                    max_id = max_id.max(id.0);
                    fs.files.insert(
                        id,
                        Inode {
                            extents: ExtentTree::new(),
                            size: 0,
                            class,
                            linked: true,
                            refs: 0,
                            journaled: true,
                            last_access: 0,
                        },
                    );
                    fs.names.insert(name, id);
                }
                Record::AllocExtent { id, file_page, ext } => {
                    stats.extents_rebuilt += 1;
                    // Reserve the frames in the rebuilt bitmap.
                    reserve_exact(&mut fs.alloc, m, ext);
                    if let Some(f) = fs.files.get_mut(&id) {
                        f.extents.insert(file_page, ext);
                    }
                }
                Record::FreeExtent { id: _, ext } => {
                    fs.alloc.free(m, ext);
                    // The extent tree was already truncated by SetSize
                    // replay order; remove via truncate below. Freed
                    // extents only appear with a matching SetSize.
                }
                Record::SetSize { id, bytes } => {
                    if let Some(f) = fs.files.get_mut(&id) {
                        if bytes < f.size {
                            f.extents.truncate(bytes.div_ceil(PAGE_SIZE));
                        }
                        f.size = bytes;
                    }
                }
                Record::SetClass { id, class } => {
                    if let Some(f) = fs.files.get_mut(&id) {
                        f.class = class;
                    }
                }
                Record::Rename { id, new_name } => {
                    fs.names.retain(|_, &mut fid| fid != id);
                    fs.names.insert(new_name, id);
                }
                Record::Unlink { id } => {
                    fs.names.retain(|_, &mut fid| fid != id);
                    if let Some(mut f) = fs.files.remove(&id) {
                        for ext in f.extents.take_all() {
                            fs.alloc.free(m, ext);
                        }
                    }
                }
            }
        }
        fs.next_id = max_id + 1;
        // Drop non-persistent files: their data must not survive.
        let doomed: Vec<FileId> = fs
            .files
            .iter()
            .filter(|(_, f)| !f.class.survives_crash())
            .map(|(&id, _)| id)
            .collect();
        stats.volatile_dropped = doomed.len() as u64;
        for id in doomed {
            fs.names.retain(|_, &mut fid| fid != id);
            let mut f = fs.files.remove(&id).expect("listed above");
            for ext in f.extents.take_all() {
                // Crypto-erase: constant simulated cost, content gone.
                m.phys.zero_frames(ext.start, ext.frames);
                fs.alloc.free(m, ext);
            }
        }
        stats.persistent_files = fs.files.len() as u64;
        // Rebuild a compact journal reflecting the recovered state.
        let mut records = Vec::new();
        records.push(Record::Begin { tx: 0 });
        for (name, &id) in &fs.names {
            let f = &fs.files[&id];
            records.push(Record::CreateInode {
                id,
                name: name.clone(),
                class: f.class,
            });
            for fe in f.extents.iter() {
                records.push(Record::AllocExtent {
                    id,
                    file_page: fe.file_page,
                    ext: fe.phys,
                });
            }
            records.push(Record::SetSize { id, bytes: f.size });
        }
        records.push(Record::Commit { tx: 0 });
        fs.journal.replace(m, records);
        fs.next_tx = 1;
        (fs, stats)
    }
}

/// Reserve exactly `ext` in a bitmap allocator during journal replay.
fn reserve_exact(alloc: &mut BitmapAllocator, m: &mut Machine, ext: PhysExtent) {
    // The bitmap allocator has no "allocate at" API; emulate by
    // aligned search — replay order guarantees the frames are free, so
    // we mark them via the internal bit interface.
    // (Allocate-at is replay-only, so a linear probe is acceptable.)
    let got = alloc
        .alloc_at(m, ext)
        .expect("journal replay found frames already allocated");
    debug_assert_eq!(got, ext);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(frames: u64) -> (Machine, Pmfs) {
        let m = Machine::with_nvm(1 << 20, frames * PAGE_SIZE);
        let nvm_base = m.phys.nvm_base();
        let fs = Pmfs::format(PhysExtent::new(nvm_base, frames));
        (m, fs)
    }

    #[test]
    fn create_allocate_write_read() {
        let (mut m, mut fs) = setup(4096);
        let id = fs.create(&mut m, "data", FileClass::Persistent).unwrap();
        fs.allocate(&mut m, id, 1 << 20).unwrap();
        assert_eq!(fs.inode(id).unwrap().size(), 1 << 20);
        assert_eq!(
            fs.inode(id).unwrap().extent_count(),
            1,
            "1 MiB fits one extent on an empty volume"
        );
        fs.write(&mut m, id, 12345, b"hello pmfs").unwrap();
        let mut buf = [0u8; 10];
        fs.read(&mut m, id, 12345, &mut buf).unwrap();
        assert_eq!(&buf, b"hello pmfs");
    }

    #[test]
    fn allocation_cost_is_per_extent_not_per_page() {
        let (mut m, mut fs) = setup(1 << 16);
        let a = fs.create(&mut m, "small", FileClass::Volatile).unwrap();
        let b = fs.create(&mut m, "large", FileClass::Volatile).unwrap();
        let (_, small_ns) = m.timed(|m| fs.allocate(m, a, 4 * PAGE_SIZE).unwrap());
        let (_, large_ns) = m.timed(|m| fs.allocate(m, b, 4096 * PAGE_SIZE).unwrap());
        // 1024x the size for (nearly) the same cost.
        assert!(
            large_ns < 2 * small_ns,
            "extent allocation must be near-constant: {small_ns} vs {large_ns}"
        );
    }

    #[test]
    fn large_files_are_huge_aligned() {
        let (mut m, mut fs) = setup(1 << 14);
        let id = fs.create(&mut m, "big", FileClass::Persistent).unwrap();
        fs.allocate(&mut m, id, 4 << 20).unwrap();
        let first = fs.inode(id).unwrap().extents.iter().next().unwrap();
        assert_eq!(
            first.phys.start.0 % HUGE_ALIGN_FRAMES,
            0,
            "large extents are 2 MiB-aligned for huge mappings"
        );
    }

    #[test]
    fn fragmentation_falls_back_to_multiple_extents() {
        let (mut m, mut fs) = setup(2048);
        // Fill the volume with 64-page files, then free every other
        // one: the largest free run is 64 frames.
        let n_files = 2048 / 64;
        for i in 0..n_files {
            let id = fs
                .create(&mut m, &format!("frag{i}"), FileClass::Volatile)
                .unwrap();
            fs.allocate(&mut m, id, 64 * PAGE_SIZE).unwrap();
        }
        for i in (0..n_files).step_by(2) {
            fs.unlink(&mut m, &format!("frag{i}")).unwrap();
        }
        let id = fs.create(&mut m, "big", FileClass::Volatile).unwrap();
        fs.allocate(&mut m, id, 700 * PAGE_SIZE).unwrap();
        assert!(
            fs.inode(id).unwrap().extent_count() > 1,
            "fragmented volume forces multiple extents"
        );
        // Data is still correct across extent boundaries.
        let pattern: Vec<u8> = (0..(700 * PAGE_SIZE)).map(|i| (i * 7) as u8).collect();
        fs.write(&mut m, id, 0, &pattern).unwrap();
        let mut buf = vec![0u8; pattern.len()];
        fs.read(&mut m, id, 0, &mut buf).unwrap();
        assert_eq!(buf, pattern);
    }

    #[test]
    fn truncate_frees_extents() {
        let (mut m, mut fs) = setup(4096);
        let id = fs.create(&mut m, "t", FileClass::Volatile).unwrap();
        fs.allocate(&mut m, id, 1000 * PAGE_SIZE).unwrap();
        let free_before = fs.free_frames();
        fs.truncate(&mut m, id, 10 * PAGE_SIZE).unwrap();
        assert_eq!(fs.free_frames(), free_before + 990);
        assert_eq!(fs.inode(id).unwrap().size(), 10 * PAGE_SIZE);
    }

    #[test]
    fn unlink_reclaims_whole_file() {
        let (mut m, mut fs) = setup(4096);
        let before = fs.free_frames();
        let id = fs.create(&mut m, "x", FileClass::Volatile).unwrap();
        fs.allocate(&mut m, id, 512 * PAGE_SIZE).unwrap();
        let (_, ns) = m.timed(|m| fs.unlink(m, "x").unwrap());
        assert_eq!(fs.free_frames(), before);
        // Teardown cost is per extent (1), not per page (512).
        assert!(ns < 20_000, "file-grain reclaim took {ns} ns");
    }

    #[test]
    fn refs_defer_destruction() {
        let (mut m, mut fs) = setup(1024);
        let id = fs.create(&mut m, "r", FileClass::Volatile).unwrap();
        fs.allocate(&mut m, id, PAGE_SIZE).unwrap();
        fs.inc_ref(id).unwrap();
        fs.unlink(&mut m, "r").unwrap();
        assert!(fs.inode(id).is_ok(), "file alive while referenced");
        assert!(fs.dec_ref(&mut m, id).unwrap());
        assert_eq!(fs.inode(id).unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn recovery_restores_persistent_drops_volatile() {
        let (mut m, mut fs) = setup(4096);
        let p = fs.create(&mut m, "keep", FileClass::Persistent).unwrap();
        fs.write(&mut m, p, 0, b"durable data").unwrap();
        let v = fs.create(&mut m, "scratch", FileClass::Volatile).unwrap();
        fs.write(&mut m, v, 0, b"secret scratch").unwrap();
        // Volatile files never touch the journal — that is the whole
        // point (their erasure at crash time is the kernel's job; see
        // o1-core). Their frames are free after recovery because the
        // rebuilt bitmap only contains journaled extents.
        let (count, exts) = fs.non_persistent_extents();
        assert_eq!(count, 1);
        assert!(!exts.is_empty());
        let span = fs.span();
        let journal = fs.journal().clone();

        m.phys.crash();
        let (mut fs2, stats) = Pmfs::recover(&mut m, span, journal);
        assert_eq!(stats.persistent_files, 1);
        assert_eq!(
            stats.volatile_dropped, 0,
            "volatile never reached the journal"
        );
        let p2 = fs2.lookup(&mut m, "keep").unwrap();
        let mut buf = [0u8; 12];
        fs2.read(&mut m, p2, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable data");
        assert_eq!(fs2.lookup(&mut m, "scratch"), Err(FsError::NotFound));
        // The volatile frames are free again.
        assert_eq!(
            fs2.free_frames(),
            span.frames - fs2_used(&mut m, &mut fs2, "keep")
        );
    }

    fn fs2_used(m: &mut Machine, fs: &mut Pmfs, name: &str) -> u64 {
        let id = fs.lookup(m, name).unwrap();
        fs.inode(id).unwrap().extents.total_pages()
    }

    #[test]
    fn recovery_with_torn_tail_rolls_back() {
        let (mut m, mut fs) = setup(4096);
        let p = fs.create(&mut m, "a", FileClass::Persistent).unwrap();
        fs.allocate(&mut m, p, 4 * PAGE_SIZE).unwrap();
        let records_before = fs.journal().len();
        // Start an allocation whose commit is torn away.
        fs.allocate(&mut m, p, 64 * PAGE_SIZE).unwrap();
        let added = fs.journal().len() - records_before;
        let span = fs.span();
        let mut journal = fs.journal().clone();
        journal.lose_tail(1); // tear just the commit record
        let (fs2, stats) = Pmfs::recover(&mut m, span, journal);
        assert!(added >= 2);
        assert_eq!(stats.persistent_files, 1);
        let inode = fs2.inode(p).unwrap();
        assert_eq!(inode.size(), 4 * PAGE_SIZE, "torn allocation rolled back");
        // No frames leaked: free = span - 4 pages.
        assert_eq!(fs2.free_frames(), span.frames - 4);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut m, mut fs) = setup(4096);
        let p = fs.create(&mut m, "a", FileClass::Persistent).unwrap();
        fs.write(&mut m, p, 0, &[9u8; 5000]).unwrap();
        let span = fs.span();
        let (fs2, s1) = Pmfs::recover(&mut m, span, fs.journal().clone());
        let (mut fs3, s2) = Pmfs::recover(&mut m, span, fs2.journal().clone());
        assert_eq!(s1.persistent_files, s2.persistent_files);
        let id = fs3.lookup(&mut m, "a").unwrap();
        let mut buf = [0u8; 5000];
        fs3.read(&mut m, id, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 9));
    }

    #[test]
    fn discardable_reclaim_is_lru() {
        let (mut m, mut fs) = setup(4096);
        let a = fs
            .create(&mut m, "cache_a", FileClass::Discardable)
            .unwrap();
        fs.allocate(&mut m, a, 100 * PAGE_SIZE).unwrap();
        let b = fs
            .create(&mut m, "cache_b", FileClass::Discardable)
            .unwrap();
        fs.allocate(&mut m, b, 100 * PAGE_SIZE).unwrap();
        let keep = fs.create(&mut m, "hot", FileClass::Persistent).unwrap();
        fs.allocate(&mut m, keep, 100 * PAGE_SIZE).unwrap();
        // Touch a so b is the LRU discardable file.
        fs.read(&mut m, a, 0, &mut [0u8; 8]).unwrap();
        let freed = fs.reclaim_discardable(&mut m, 50);
        assert_eq!(freed, 100);
        assert_eq!(fs.lookup(&mut m, "cache_b"), Err(FsError::NotFound));
        assert!(fs.lookup(&mut m, "cache_a").is_ok());
        assert!(fs.lookup(&mut m, "hot").is_ok());
        assert_eq!(m.perf.files_discarded, 1);
    }

    #[test]
    fn reclaim_skips_referenced_files() {
        let (mut m, mut fs) = setup(1024);
        let a = fs.create(&mut m, "pinned", FileClass::Discardable).unwrap();
        fs.allocate(&mut m, a, 10 * PAGE_SIZE).unwrap();
        fs.inc_ref(a).unwrap();
        assert_eq!(fs.reclaim_discardable(&mut m, 10), 0);
        assert!(fs.lookup(&mut m, "pinned").is_ok());
    }

    #[test]
    fn rename_moves_the_link_and_survives_crash() {
        let (mut m, mut fs) = setup(1024);
        let id = fs.create(&mut m, "old", FileClass::Persistent).unwrap();
        fs.write(&mut m, id, 0, b"payload").unwrap();
        fs.rename(&mut m, "old", "new").unwrap();
        assert_eq!(fs.lookup(&mut m, "old"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(&mut m, "new").unwrap(), id);
        // Collisions and missing sources error.
        fs.create(&mut m, "other", FileClass::Persistent).unwrap();
        assert_eq!(fs.rename(&mut m, "new", "other"), Err(FsError::Exists));
        assert_eq!(fs.rename(&mut m, "ghost", "x"), Err(FsError::NotFound));
        // The rename is journaled: recovery sees the new name.
        let span = fs.span();
        let (mut fs2, _) = Pmfs::recover(&mut m, span, fs.journal().clone());
        let id2 = fs2.lookup(&mut m, "new").unwrap();
        let mut buf = [0u8; 7];
        fs2.read(&mut m, id2, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn checkpoint_bounds_journal_growth() {
        let (mut m, mut fs) = setup(4096);
        for i in 0..50 {
            let id = fs
                .create(&mut m, &format!("f{i}"), FileClass::Persistent)
                .unwrap();
            fs.allocate(&mut m, id, 4 * PAGE_SIZE).unwrap();
        }
        for i in 0..40 {
            fs.unlink(&mut m, &format!("f{i}")).unwrap();
        }
        let before = fs.journal().len();
        fs.checkpoint(&mut m);
        let after = fs.journal().len();
        assert!(
            after < before / 4,
            "checkpoint compacts: {before} → {after}"
        );
        // Recovery from a checkpointed journal reproduces the state.
        let span = fs.span();
        let (fs2, stats) = Pmfs::recover(&mut m, span, fs.journal().clone());
        assert_eq!(stats.persistent_files, 10);
        for i in 40..50 {
            assert!(fs2.lookup(&mut m, &format!("f{i}")).is_ok());
        }
        assert_eq!(fs2.free_frames(), fs.free_frames());
        // And mutations continue to work after a checkpoint.
        let id = fs.create(&mut m, "post", FileClass::Persistent).unwrap();
        fs.allocate(&mut m, id, PAGE_SIZE).unwrap();
        let (fs3, _) = Pmfs::recover(&mut m, span, fs.journal().clone());
        assert!(fs3.lookup(&mut m, "post").is_ok());
    }

    #[test]
    fn journal_auto_checkpoints() {
        let (mut m, mut fs) = setup(8192);
        // Churn persistent files until the journal has crossed the
        // threshold twice.
        let (mut round, mut checkpoints, mut peak) = (0, 0, 0);
        while checkpoints < 2 {
            let before = fs.journal().len();
            for i in 0..10 {
                let n = format!("r{round}f{i}");
                let id = fs.create(&mut m, &n, FileClass::Persistent).unwrap();
                peak = peak.max(fs.journal().len());
                fs.allocate(&mut m, id, 4 * PAGE_SIZE).unwrap();
                peak = peak.max(fs.journal().len());
            }
            for i in 0..10 {
                fs.unlink(&mut m, &format!("r{round}f{i}")).unwrap();
                peak = peak.max(fs.journal().len());
            }
            let after = fs.journal().len();
            if after < before {
                checkpoints += 1;
                assert!(after < 400, "checkpoint compacts: {before} → {after}");
            }
            round += 1;
        }
        // A checkpoint runs before a transaction's first record, so
        // the journal outgrows the threshold by one transaction at most.
        assert!(
            peak < AUTO_CHECKPOINT_RECORDS + 100,
            "journal stays bounded: {peak} records"
        );
        fs.check_consistency();
        // Recovery still works from the compacted journal.
        let span = fs.span();
        let (fs2, _) = Pmfs::recover(&mut m, span, fs.journal().clone());
        fs2.check_consistency();
        assert_eq!(fs2.free_frames(), span.frames);
    }

    #[test]
    fn nospace_rolls_back_cleanly() {
        let (mut m, mut fs) = setup(64);
        let id = fs.create(&mut m, "too_big", FileClass::Volatile).unwrap();
        let free = fs.free_frames();
        assert_eq!(fs.allocate(&mut m, id, 1 << 30), Err(FsError::NoSpace));
        assert_eq!(fs.free_frames(), free, "partial allocation rolled back");
        assert_eq!(fs.inode(id).unwrap().size(), 0);
    }
}
