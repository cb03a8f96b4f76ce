//! File-only memory: the kernel *Towards O(1) Memory* proposes.
//!
//! All user-mode memory is allocated as files in a persistent-memory
//! file system ([`o1_memfs::Pmfs`]) and mapped *whole*:
//!
//! * **Allocation** creates a file of a few contiguous extents —
//!   cost per extent, not per page (§3.1/§4.1).
//! * **Mapping** installs one translation per extent, through one of
//!   six mechanisms ([`MapMech`]): plain page tables with huge pages,
//!   pre-created shared page-table subtrees ("pointer swings"),
//!   physically based mappings (§4.2), hardware range translations
//!   (§4.3), a Utopia-style hashed fast region over flexible page
//!   tables (arXiv:2211.12205), or OBASE-style DRAM↔NVM extent
//!   tiering with background migration (arXiv:2603.00378). Each is a
//!   variant of the crate's one mechanism enum, in `mech.rs`.
//! * **Permissions** are per file; **reclamation** is per file
//!   (`munmap`/exit, plus LRU deletion of discardable files under
//!   pressure); **no demand paging, no reclaim scanning, no dirty
//!   tracking** exists in this kernel at all.
//! * **Persistence**: files marked persistent survive
//!   [`FomKernel::crash_and_recover`]; volatile files are
//!   crypto-erased: each file has its own key, and dropping the key
//!   erases the file in O(1). The eager and background-pool
//!   alternatives are `o1_palloc::zero`'s, compared by `fig_zero`.
//!
//! The deliberate losses the paper concedes are visible here too:
//! there is no copy-on-write and no page-granular `mprotect` — those
//! tests live in the baseline kernel only.

use o1_hw::{CostKind, OpKind};

use o1_hw::{
    Access, Asid, FastMap, MachineConfig, PhysAddr, PtNodeId, RangeTable, TranslateError, VirtAddr,
    PAGE_SIZE,
};
use o1_memfs::{FileClass, FileId, FsError, Pmfs, RecoveryStats};
use o1_palloc::PhysExtent;
use o1_vm::runs::AccessRun;
use o1_vm::{
    span_end, CoreProc, KernelCore, KernelHooks, MemSys, Pid, Prot, VmError, MAX_MAP_BYTES,
};

use crate::mech::{MechCtx, Mechanism, Piece, DEFAULT_FAST_REGION_SLOTS};

/// Base of the per-process bump region for file mappings.
pub const FOM_MMAP_BASE: u64 = 0x2000_0000;

/// Base of the physically-based-mapping window: `va = PBM_BASE + pa`.
/// Identical in every process, which is what makes page tables
/// shareable (§4.2).
pub const PBM_BASE: u64 = 0x4000_0000_0000;

/// How file mappings are installed. Each tag names one variant of the
/// crate's mechanism enum, which carries that mechanism's state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapMech {
    /// Conventional page tables, one entry per (huge) page — the
    /// weakest fom variant, still far better than per-4K.
    PageTables,
    /// Pre-created page-table subtrees shared by pointer swing at
    /// 2 MiB granularity (§3.1 "Memory mapping").
    SharedPt,
    /// Physically based mappings: `va = PBM_BASE + pa`, shared
    /// subtrees keyed by physical address (§4.2).
    Pbm,
    /// Hardware range translations: one `(base, limit, offset)` entry
    /// per extent (§4.3, Figures 4/5/9).
    Ranges,
    /// Utopia-style hybrid: a hashed, direct-mapped restrictive fast
    /// region in front of flexible 4 KiB page tables
    /// (arXiv:2211.12205).
    Utopia,
    /// OBASE-style object/extent-granular DRAM↔NVM tiering with
    /// hot/cold tracking and background migration (arXiv:2603.00378).
    Obase,
}

impl MapMech {
    /// Every mechanism, in declaration order — the single registry
    /// tests and sweeps iterate, so a new mechanism is auto-covered.
    pub const ALL: [MapMech; 6] = [
        MapMech::PageTables,
        MapMech::SharedPt,
        MapMech::Pbm,
        MapMech::Ranges,
        MapMech::Utopia,
        MapMech::Obase,
    ];
}

/// Kernel configuration.
#[derive(Clone, Debug)]
pub struct FomConfig {
    /// DRAM tier size (holds nothing in this kernel; exists so the
    /// machine geometry matches the baseline's).
    pub dram_bytes: u64,
    /// NVM tier size — the file system volume.
    pub nvm_bytes: u64,
    /// Mapping mechanism.
    pub mech: MapMech,
}

impl Default for FomConfig {
    fn default() -> Self {
        FomConfig {
            dram_bytes: 64 << 20,
            nvm_bytes: 1 << 30,
            mech: MapMech::SharedPt,
        }
    }
}

#[derive(Debug)]
struct Mapping {
    file: FileId,
    name: String,
    bytes: u64,
    pieces: Vec<Piece>,
    /// Volatile scratch mapping: unlink the file on unmap.
    auto_unlink: bool,
}

/// A file-only-memory process: its address space, range table and
/// whole-file mappings.
#[derive(Debug)]
pub struct FomProc {
    pub(crate) asid: Asid,
    pub(crate) root: PtNodeId,
    pub(crate) ranges: RangeTable,
    /// Keyed by mapping base VA — kernel-chosen fixed-width values,
    /// probed on every map/unmap/protect call, so the fast hasher is
    /// safe.
    maps: FastMap<u64, Mapping>,
    pub(crate) next_va: u64,
}

impl CoreProc for FomProc {
    #[inline]
    fn new(asid: Asid, root: PtNodeId) -> FomProc {
        FomProc {
            asid,
            root,
            ranges: RangeTable::new(),
            maps: FastMap::default(),
            next_va: FOM_MMAP_BASE,
        }
    }

    #[inline]
    fn asid(&self) -> Asid {
        self.asid
    }

    #[inline]
    fn root(&self) -> PtNodeId {
        self.root
    }
}

/// The file-only memory kernel.
#[derive(Debug)]
pub struct FomKernel {
    core: KernelCore<FomProc>,
    /// The persistent-memory file system backing all memory.
    pub pmfs: Pmfs,
    /// The mapping mechanism with its state (shared-subtree
    /// registries, the Utopia fast region, OBASE residency records).
    mech: Mechanism,
    next_vol: u64,
    keys_live: u64,
}

/// Builder for a [`FomKernel`]: kernel policy plus the shared
/// [`MachineConfig`] (cost model, CPU count, observability mode) and
/// TLB geometry, in one place. Obtained from [`FomKernel::builder`].
///
/// # Examples
/// ```
/// use o1_core::{FomKernel, MapMech};
///
/// let k = FomKernel::builder()
///     .mech(MapMech::Ranges)
///     .nvm(256 << 20)
///     .cpus(8)
///     .build();
/// assert!(k.free_frames() > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FomBuilder {
    config: FomConfig,
    machine: MachineConfig,
    tlb: Option<(usize, usize)>,
    fast_region: Option<usize>,
}

impl FomBuilder {
    /// DRAM tier size in bytes.
    pub fn dram(mut self, bytes: u64) -> Self {
        self.config.dram_bytes = bytes;
        self
    }

    /// NVM tier (file-system volume) size in bytes.
    pub fn nvm(mut self, bytes: u64) -> Self {
        self.config.nvm_bytes = bytes;
        self
    }

    /// Mapping mechanism.
    pub fn mech(mut self, mech: MapMech) -> Self {
        self.config.mech = mech;
        self
    }

    /// Utopia fast-region capacity in slots, rounded up to a power of
    /// two; 0 disables the region (only used by [`MapMech::Utopia`]).
    pub fn fast_region(mut self, slots: usize) -> Self {
        self.fast_region = Some(slots);
        self
    }

    /// Replace the whole kernel-policy config at once.
    pub fn config(mut self, config: FomConfig) -> Self {
        self.config = config;
        self
    }

    /// Boot the kernel. Panics on an invalid [`MachineConfig`]; use
    /// [`FomBuilder::try_build`] to handle the error instead.
    pub fn build(self) -> FomKernel {
        self.try_build().expect("invalid machine configuration")
    }

    /// Boot the kernel, rejecting invalid machine configurations
    /// (`cpus == 0` or `cpus > o1_hw::MAX_CPUS`).
    pub fn try_build(self) -> Result<FomKernel, VmError> {
        let config = MachineConfig {
            dram_bytes: self.config.dram_bytes,
            nvm_bytes: self.config.nvm_bytes,
            ..self.machine
        };
        let mechanism = Mechanism::new(
            self.config.mech,
            self.fast_region.unwrap_or(DEFAULT_FAST_REGION_SLOTS),
            self.config.dram_bytes / PAGE_SIZE,
        );
        let ranges = self.config.mech == MapMech::Ranges;
        let core = KernelCore::boot(config, ranges, self.tlb)?;
        Ok(FomKernel::boot(core, mechanism))
    }
}

o1_vm::machine_config_builder!(FomBuilder);

impl FomKernel {
    /// Boot a file-only-memory kernel.
    pub fn new(config: FomConfig) -> FomKernel {
        FomKernel::builder().config(config).build()
    }

    /// Start configuring a kernel: policy, machine geometry, cost
    /// model and TLB shape in one fluent chain.
    pub fn builder() -> FomBuilder {
        FomBuilder::default()
    }

    fn boot(core: KernelCore<FomProc>, mech: Mechanism) -> FomKernel {
        let span = PhysExtent::new(core.machine.phys.nvm_base(), core.machine.phys.nvm_frames());
        FomKernel {
            core,
            pmfs: Pmfs::format(span),
            mech,
            next_vol: 0,
            keys_live: 0,
        }
    }

    /// Mapping mechanism in use.
    pub fn mech(&self) -> MapMech {
        self.mech.kind()
    }

    /// Split-borrow the kernel into the mechanism and a context over
    /// everything else — the only way mechanism code runs.
    fn seam(&mut self) -> (&mut Mechanism, MechCtx<'_>) {
        let KernelCore {
            machine,
            pt,
            mmu,
            procs,
            ..
        } = &mut self.core;
        (
            &mut self.mech,
            MechCtx {
                machine,
                pt,
                mmu,
                pmfs: &mut self.pmfs,
                procs,
            },
        )
    }

    /// One mechanism housekeeping pass with a page budget — under
    /// [`MapMech::Obase`] this is the background migration daemon.
    /// Returns pages moved between tiers.
    pub fn mechanism_tick(&mut self, budget_pages: u64) -> u64 {
        let moved = {
            let (mech, mut ctx) = self.seam();
            mech.background_tick(&mut ctx, budget_pages)
        };
        self.poll_timeline();
        moved
    }

    /// Total bytes the mechanism has migrated between memory tiers.
    pub fn migrated_bytes(&self) -> u64 {
        self.mech.migrated_pages() * PAGE_SIZE
    }

    /// Free NVM frames in the volume.
    pub fn free_frames(&self) -> u64 {
        self.pmfs.free_frames()
    }

    /// Configure the hardware translation depth (§2: 5-level paging,
    /// virtualized nesting). Range translations are unaffected — one
    /// of their selling points.
    pub fn set_walk_mode(&mut self, mode: o1_hw::WalkMode) {
        self.core.mmu.walk_mode = mode;
    }

    /// Bytes of page-table metadata currently allocated.
    pub fn pt_metadata_bytes(&self) -> u64 {
        self.core.pt.metadata_bytes()
    }

    /// Live crypto-erase keys: one per file created since the last
    /// crash and not yet destroyed.
    pub fn keys_live(&self) -> u64 {
        self.keys_live
    }

    // ---- process lifecycle --------------------------------------------------

    /// Launch a process whose stack and heap arena are single-extent
    /// files and whose code is a named persistent file shared across
    /// every process running the same binary (§3.1: "code segments,
    /// heap segments, and stack segments can all be represented as
    /// separate files").
    pub fn launch_process(
        &mut self,
        code_name: &str,
        code_bytes: u64,
        heap_bytes: u64,
        stack_bytes: u64,
    ) -> Result<Pid, VmError> {
        let pid = self.create_process()?;
        // Code: create once, then every launch just maps it.
        if self.pmfs.lookup(&mut self.core.machine, code_name).is_err() {
            self.create_named(pid, code_name, code_bytes, FileClass::Persistent)?;
        } else {
            self.open_map(pid, code_name, Prot::ReadExec)?;
        }
        self.falloc(pid, heap_bytes, FileClass::Volatile)?;
        self.falloc(pid, stack_bytes, FileClass::Volatile)?;
        Ok(pid)
    }

    // ---- allocation as files -------------------------------------------------

    /// Allocate `bytes` of memory as an (anonymous) file of the given
    /// class and map it whole. Returns the file and its base address.
    ///
    /// This is the paper's `malloc` replacement: constant-ish cost in
    /// the file size (extent allocation + one translation per extent).
    ///
    /// # Examples
    /// ```
    /// use o1_core::{FomKernel, MapMech};
    /// use o1_memfs::FileClass;
    /// use o1_vm::MemSys;
    ///
    /// let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
    /// let pid = k.create_process().unwrap();
    /// let (_, va) = k.falloc(pid, 16 << 20, FileClass::Volatile).unwrap();
    /// k.store(pid, va, 7).unwrap();
    /// assert_eq!(k.load(pid, va).unwrap(), 7);
    /// assert_eq!(k.machine().perf.minor_faults, 0); // never faults
    /// k.unmap(pid, va).unwrap(); // O(1) whole-file reclaim
    /// ```
    pub fn falloc(
        &mut self,
        pid: Pid,
        bytes: u64,
        class: FileClass,
    ) -> Result<(FileId, VirtAddr), VmError> {
        let name = format!("/vol/{}", self.next_vol);
        self.next_vol += 1;
        // Volatile scratch files die with their mapping; discardable
        // caches stay in the namespace so pressure can reclaim them.
        let auto_unlink = class == FileClass::Volatile;
        self.falloc_named(pid, &name, bytes, class, auto_unlink)
    }

    /// Create and map a *named discardable* cache file: it stays in
    /// the namespace when unmapped, ready to be re-opened — or deleted
    /// by the OS under memory pressure.
    pub fn create_named_discardable(
        &mut self,
        pid: Pid,
        name: &str,
        bytes: u64,
    ) -> Result<(FileId, VirtAddr), VmError> {
        self.falloc_named(pid, name, bytes, FileClass::Discardable, false)
    }

    /// Allocate and map a *named* file (persistent data, program
    /// segments).
    pub fn create_named(
        &mut self,
        pid: Pid,
        name: &str,
        bytes: u64,
        class: FileClass,
    ) -> Result<(FileId, VirtAddr), VmError> {
        self.falloc_named(pid, name, bytes, class, false)
    }

    fn falloc_named(
        &mut self,
        pid: Pid,
        name: &str,
        bytes: u64,
        class: FileClass,
        auto_unlink: bool,
    ) -> Result<(FileId, VirtAddr), VmError> {
        if bytes == 0 || bytes > MAX_MAP_BYTES {
            return Err(VmError::BadRange);
        }
        let t0 = self.core.machine.op_start();
        self.core.machine.charge_syscall();
        self.core.proc(pid)?;
        let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
        let id = pmfs.create(machine, name, class).map_err(VmError::from)?;
        // Allocate, reclaiming discardable files under pressure — the
        // paper's transcendent-memory story.
        if let Err(e) = pmfs.allocate(machine, id, bytes) {
            if e == FsError::NoSpace {
                pmfs.reclaim_discardable(machine, o1_hw::pages_for(bytes));
            }
            pmfs.allocate(machine, id, bytes)
                .map_err(VmError::from)
                .inspect_err(|_| {
                    let _ = pmfs.unlink(machine, name);
                })?;
        }
        // Crypto-erase: a fresh key per file, so the old ciphertext in
        // its extents reads as zeros.
        let extents = self.extents_from(id, 0)?;
        self.core.machine.charge_kind(CostKind::KeyGen);
        self.keys_live += 1;
        self.zero_extents(&extents);
        let va = self
            .map_file_internal(pid, id, name, bytes, Prot::ReadWrite, auto_unlink)
            .inspect_err(|_| {
                // Nothing maps the new file (a failed map takes no
                // reference): destroy it as `delete` would.
                let _ = self.pmfs.unlink(&mut self.core.machine, name);
                self.on_file_destroyed(id, &extents);
            })?;
        self.core.machine.op_end(t0, OpKind::Alloc, self.label());
        self.poll_timeline();
        Ok((id, va))
    }

    /// Map an existing named file. Multiple processes mapping the
    /// same file share page tables (SharedPt / Pbm) — Figure 3.
    pub fn open_map(
        &mut self,
        pid: Pid,
        name: &str,
        prot: Prot,
    ) -> Result<(FileId, VirtAddr), VmError> {
        self.core.machine.charge_syscall();
        let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
        let id = pmfs.lookup(machine, name).map_err(VmError::from)?;
        let bytes = pmfs.inode(id).map_err(VmError::from)?.size();
        let va = self.map_file_internal(pid, id, name, bytes, prot, false)?;
        self.poll_timeline();
        Ok((id, va))
    }

    // ---- mapping mechanisms ---------------------------------------------------

    fn map_file_internal(
        &mut self,
        pid: Pid,
        id: FileId,
        name: &str,
        bytes: u64,
        prot: Prot,
        auto_unlink: bool,
    ) -> Result<VirtAddr, VmError> {
        let extents: Vec<o1_memfs::FileExtent> = self
            .pmfs
            .inode(id)
            .map_err(VmError::from)?
            .extents
            .iter()
            .collect();
        // One map record per file — the whole-file analogue of a VMA.
        self.core.machine.charge_kind(CostKind::VmaCreate);
        let mut pieces = Vec::new();
        let base = {
            let (mech, mut ctx) = self.seam();
            let mapped = mech.map(&mut ctx, pid, id, &extents, prot, &mut pieces);
            if mapped.is_err() {
                mech.teardown_pieces(&mut ctx, pid, &pieces)?;
            }
            mapped?
        };
        // Only a mapping that exists holds a file reference.
        self.pmfs.inc_ref(id).map_err(VmError::from)?;
        let proc = self.core.proc_mut(pid)?;
        proc.maps.insert(
            base.0,
            Mapping {
                file: id,
                name: name.to_string(),
                bytes,
                pieces,
                auto_unlink,
            },
        );
        Ok(base)
    }

    // ---- unmap / reclaim ---------------------------------------------------------

    /// Physical extents of file `id` from file page `from_page` on, in
    /// file order: the one reader of a file's extent list. A whole-file
    /// read collects an exact-size `Vec` (the host-heap figures count
    /// its bytes); a filtered one cannot know its length up front.
    fn extents_from(&self, id: FileId, from_page: u64) -> Result<Vec<PhysExtent>, VmError> {
        let extents = self.pmfs.inode(id).map_err(VmError::from)?.extents.iter();
        Ok(if from_page == 0 {
            extents.map(|fe| fe.phys).collect()
        } else {
            extents
                .filter(|fe| fe.file_page >= from_page)
                .map(|fe| fe.phys)
                .collect()
        })
    }

    /// `pid`'s mapping based at `base`.
    fn mapping(&self, pid: Pid, base: VirtAddr) -> Result<&Mapping, VmError> {
        let maps = &self.core.proc(pid)?.maps;
        maps.get(&base.0).ok_or(VmError::BadRange)
    }

    /// Zero the frames of `extents`: how the simulator shows data under
    /// a dropped or fresh crypto-erase key.
    fn zero_extents(&mut self, extents: &[PhysExtent]) {
        for e in extents {
            self.core.machine.phys.zero_frames(e.start, e.frames);
        }
    }

    /// Unmap the file mapping based at `base`. O(extents), never
    /// O(pages) except for small per-page tails. If the mapping was a
    /// volatile scratch file, the file itself is deleted and erased.
    pub fn unmap(&mut self, pid: Pid, base: VirtAddr) -> Result<(), VmError> {
        self.unmap_mapping(pid, base, true)
    }

    /// [`unmap`](Self::unmap), unlinking a volatile scratch file's name
    /// only if `unlink` (a remap keeps it).
    fn unmap_mapping(&mut self, pid: Pid, base: VirtAddr, unlink: bool) -> Result<(), VmError> {
        let t0 = self.core.machine.op_start();
        self.core.machine.charge_syscall();
        let mapping = {
            let proc = self.core.proc_mut(pid)?;
            proc.maps.remove(&base.0).ok_or(VmError::BadRange)?
        };
        let asid = self.core.proc(pid)?.asid;
        self.core.machine.charge_kind(CostKind::VmaDestroy);
        {
            let (mech, mut ctx) = self.seam();
            mech.teardown_pieces(&mut ctx, pid, &mapping.pieces)?;
        }
        // One shootdown broadcast for the whole unmap, constant cost:
        // drop the ASID from every CPU's page and range TLB and
        // charge one IPI per CPU that actually cached it.
        self.core.mmu.flush_asid(&mut self.core.machine, asid);
        self.mech.on_flush_asid(asid);

        // Drop the file reference; delete volatile scratch files.
        if unlink && mapping.auto_unlink {
            // May already be unlinked if mapped twice; ignore.
            let _ = self.pmfs.unlink(&mut self.core.machine, &mapping.name);
        }
        self.drop_file_ref(mapping.file)?;
        self.core.machine.op_end(t0, OpKind::Free, self.label());
        self.poll_timeline();
        Ok(())
    }

    /// Drop one reference to file `id`. The last reference to an
    /// unlinked file destroys it.
    fn drop_file_ref(&mut self, id: FileId) -> Result<(), VmError> {
        let extents = self.extents_from(id, 0)?;
        if self
            .pmfs
            .dec_ref(&mut self.core.machine, id)
            .map_err(VmError::from)?
        {
            self.on_file_destroyed(id, &extents);
        }
        Ok(())
    }

    /// Crypto-erase (drop the file's key) and mechanism cleanup when a
    /// file's last reference drops.
    fn on_file_destroyed(&mut self, id: FileId, extents: &[PhysExtent]) {
        self.core.machine.charge_kind(CostKind::KeyDrop);
        self.keys_live = self.keys_live.saturating_sub(1);
        self.zero_extents(extents);
        let (mech, mut ctx) = self.seam();
        mech.on_file_destroyed(&mut ctx, id);
    }

    /// Delete a named file. If it is still mapped anywhere the inode
    /// lives on until the last unmap; otherwise it is destroyed and
    /// erased now (O(1) per extent).
    pub fn delete(&mut self, name: &str) -> Result<(), VmError> {
        self.core.machine.charge_syscall();
        let id = self
            .pmfs
            .lookup(&mut self.core.machine, name)
            .map_err(VmError::from)?;
        let extents = self.extents_from(id, 0)?;
        let refs = self.pmfs.inode(id).map_err(VmError::from)?.refs();
        self.pmfs
            .unlink(&mut self.core.machine, name)
            .map_err(VmError::from)?;
        if refs == 0 {
            self.on_file_destroyed(id, &extents);
        }
        Ok(())
    }

    /// Grow a mapped file to `new_bytes` and remap it whole. Returns
    /// the (possibly new) base address. Cost is O(extents): the new
    /// extents are allocated and the whole file remapped with the
    /// usual O(1)-per-extent machinery; existing contents stay in
    /// place physically.
    pub fn fgrow(&mut self, pid: Pid, base: VirtAddr, new_bytes: u64) -> Result<VirtAddr, VmError> {
        if new_bytes > MAX_MAP_BYTES {
            return Err(VmError::BadRange);
        }
        self.core.machine.charge_syscall();
        let (id, old_bytes) = {
            let m = self.mapping(pid, base)?;
            (m.file, m.bytes)
        };
        if new_bytes <= old_bytes {
            return Ok(base);
        }
        // Allocate before unmapping: a failed allocation rolls itself
        // back and leaves the mapping and the file's references alone.
        self.pmfs
            .allocate(&mut self.core.machine, id, new_bytes)
            .map_err(VmError::from)?;
        let new_base = self.remap(pid, base, new_bytes, Prot::ReadWrite)?;
        self.poll_timeline();
        Ok(new_base)
    }

    /// The remap both [`fgrow`](Self::fgrow) and
    /// [`mprotect_file`](Self::mprotect_file) run: unmap the mapping at
    /// `base` and map its file again whole, `bytes` long, with `prot`.
    /// A file reference is held across the gap and the name is never
    /// unlinked, so the file and its name survive. Returns the new
    /// base.
    fn remap(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        bytes: u64,
        prot: Prot,
    ) -> Result<VirtAddr, VmError> {
        let (id, name, old_bytes, auto_unlink) = {
            let m = self.mapping(pid, base)?;
            (m.file, m.name.clone(), m.bytes, m.auto_unlink)
        };
        self.pmfs.inc_ref(id).map_err(VmError::from)?;
        self.unmap_mapping(pid, base, false)?;
        if bytes > old_bytes {
            // Grown: the fresh extents read as zeros under the file's key.
            self.zero_extents(&self.extents_from(id, o1_hw::pages_for(old_bytes))?);
        }
        let new_base = self.map_file_internal(pid, id, &name, bytes, prot, auto_unlink);
        self.drop_file_ref(id)?;
        new_base
    }

    /// Re-mark a named file's class at runtime — §3.1: files "can be
    /// marked at any time as volatile or persistent to indicate
    /// whether they should survive... system restarts".
    pub fn set_file_class(&mut self, name: &str, class: FileClass) -> Result<(), VmError> {
        self.core.machine.charge_syscall();
        let id = {
            let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
            let id = pmfs.lookup(machine, name).map_err(VmError::from)?;
            pmfs.set_class(machine, id, class).map_err(VmError::from)?;
            id
        };
        let (mech, mut ctx) = self.seam();
        mech.on_set_class(&mut ctx, id, class);
        Ok(())
    }

    /// Promote a volatile scratch mapping to a named persistent file —
    /// the "save what I computed" flow. O(1): a rename, a class flip,
    /// and clearing the auto-delete flag; no data moves.
    pub fn persist_mapping(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        new_name: &str,
    ) -> Result<(), VmError> {
        self.core.machine.charge_syscall();
        let old_name = self.mapping(pid, base)?.name.clone();
        let id = {
            let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
            pmfs.rename(machine, &old_name, new_name)
                .map_err(VmError::from)?;
            let id = pmfs.lookup(machine, new_name).map_err(VmError::from)?;
            pmfs.set_class(machine, id, FileClass::Persistent)
                .map_err(VmError::from)?;
            id
        };
        let proc = self.core.proc_mut(pid)?;
        let m = proc.maps.get_mut(&base.0).expect("checked above");
        m.name = new_name.to_string();
        m.auto_unlink = false;
        let (mech, mut ctx) = self.seam();
        mech.on_set_class(&mut ctx, id, FileClass::Persistent);
        Ok(())
    }

    /// Compact the file system journal (bounds recovery time).
    pub fn checkpoint(&mut self) {
        let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
        pmfs.checkpoint(machine);
    }

    /// Rename a named file (O(1), journaled for persistent files).
    pub fn rename_file(&mut self, old: &str, new: &str) -> Result<(), VmError> {
        self.core.machine.charge_syscall();
        let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
        pmfs.rename(machine, old, new).map_err(VmError::from)
    }

    /// Whole-file permission change — the fom replacement for
    /// `mprotect`. Cost is per extent/chunk, independent of file size.
    /// The file is remapped whole, so it returns the new base, as
    /// [`fgrow`](Self::fgrow) does (PBM remaps at the same
    /// physically-derived address by construction).
    pub fn mprotect_file(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        prot: Prot,
    ) -> Result<VirtAddr, VmError> {
        self.core.machine.charge_syscall();
        let bytes = self.mapping(pid, base)?.bytes;
        self.remap(pid, base, bytes, prot)
    }

    /// Base address of `pid`'s mapping of the file called `name`.
    pub fn mapping_base(&self, pid: Pid, name: &str) -> Option<VirtAddr> {
        self.core
            .procs
            .get(pid)?
            .maps
            .iter()
            .find_map(|(&b, m)| (m.name == name).then_some(VirtAddr(b)))
    }

    // ---- access ---------------------------------------------------------------

    /// Bulk write through a mapping (charged per page copy).
    pub fn write_bytes(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<(), VmError> {
        let mut off = 0usize;
        while off < data.len() {
            let at = va + off as u64;
            let pa = self.resolve(pid, at, Access::Write)?;
            let take = usize::min(data.len() - off, (PAGE_SIZE - at.page_offset()) as usize);
            self.core.machine.charge_kind(CostKind::CopyPage);
            self.core.machine.phys.write(pa, &data[off..off + take]);
            off += take;
        }
        Ok(())
    }

    /// Bulk read through a mapping.
    pub fn read_bytes(&mut self, pid: Pid, va: VirtAddr, buf: &mut [u8]) -> Result<(), VmError> {
        let mut off = 0usize;
        while off < buf.len() {
            let at = va + off as u64;
            let pa = self.resolve(pid, at, Access::Read)?;
            let take = usize::min(buf.len() - off, (PAGE_SIZE - at.page_offset()) as usize);
            self.core.machine.charge_kind(CostKind::CopyPage);
            self.core.machine.phys.read(pa, &mut buf[off..off + take]);
            off += take;
        }
        Ok(())
    }

    // ---- persistence --------------------------------------------------------------

    /// Simulate a power failure and recovery: DRAM contents are lost,
    /// all processes die, the file system is rebuilt from its NVM
    /// journal. Persistent files survive with their data; volatile and
    /// discardable files are dropped and erased. Recovery cost is
    /// O(files + extents) — never O(pages).
    pub fn crash_and_recover(&mut self) -> RecoveryStats {
        // Volatile/discardable files are not journaled (their metadata
        // would be pure overhead); their per-file keys were held in
        // DRAM and are lost now, which erases their contents in O(1)
        // per file.
        let (volatile_count, volatile_extents) = self.pmfs.non_persistent_extents();
        self.zero_extents(&volatile_extents);
        self.core.machine.phys.crash();
        // Processes and their page tables are DRAM state: gone.
        for pid in self.core.procs.pids() {
            let proc = self.core.procs.remove(pid).expect("listed");
            self.core.pt.release(&mut self.core.machine, proc.root);
            self.core.mmu.flush_asid(&mut self.core.machine, proc.asid);
            self.mech.on_flush_asid(proc.asid);
            self.core.asids.free(proc.asid);
        }
        // Mechanism state (pre-created page tables, residency records)
        // was DRAM-resident too; it is rebuilt lazily after recovery.
        {
            let (mech, mut ctx) = self.seam();
            mech.on_crash(&mut ctx);
        }
        let span = self.pmfs.span();
        let journal = self.pmfs.journal().clone();
        let (pmfs, mut stats) = Pmfs::recover(&mut self.core.machine, span, journal);
        self.pmfs = pmfs;
        self.keys_live = 0;
        stats.volatile_dropped += volatile_count;
        stats
    }

    /// Memory-pressure entry point: free at least `frames` by deleting
    /// LRU discardable files. Returns frames freed.
    pub fn reclaim_discardable(&mut self, frames: u64) -> u64 {
        let (machine, pmfs) = (&mut self.core.machine, &mut self.pmfs);
        pmfs.reclaim_discardable(machine, frames)
    }

    /// Device DMA from `[va, va+len)`: always at full device rate —
    /// mapped file extents never move, so every page is implicitly
    /// pinned. No per-page pinning, no IOMMU faults.
    pub fn dma_transfer(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        dma: &mut o1_hw::DmaEngine,
    ) -> Result<u64, VmError> {
        let end = span_end(va, len.max(1))?;
        self.core.machine.charge_syscall();
        let mut pages = 0;
        let mut at = va;
        while at < end {
            let pa = self.resolve(pid, at, Access::Read)?;
            pages += dma.transfer(
                &mut self.core.machine,
                pa,
                PAGE_SIZE,
                o1_hw::DmaMode::Pinned,
            );
            at += PAGE_SIZE;
        }
        Ok(pages)
    }

    /// Pin state query: with file-only memory *everything* is
    /// implicitly pinned — frames never move or get reclaimed while
    /// mapped ("data is implicitly pinned in memory", §3.1/§4.1). The
    /// device-DMA preparation is therefore free; this method only
    /// verifies the address resolves.
    pub fn dma_prepare(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<PhysAddr, VmError> {
        span_end(va, len)?;
        let pa = self.resolve(pid, va, Access::Read)?;
        // Verify the whole span is mapped (constant per extent in
        // practice; we check the last byte).
        if len > 1 {
            self.resolve(pid, va + (len - 1), Access::Read)?;
        }
        Ok(pa)
    }
}

impl KernelHooks for FomKernel {
    type Proc = FomProc;

    #[inline]
    fn core(&self) -> &KernelCore<FomProc> {
        &self.core
    }

    #[inline]
    fn core_mut(&mut self) -> &mut KernelCore<FomProc> {
        &mut self.core
    }

    #[inline]
    fn label(&self) -> &'static str {
        self.mech.kind().label()
    }

    /// Translate an address. There is *no fault path*: file-only
    /// memory maps files whole at map time, so an unmapped access is
    /// a program error (SIGSEGV), never demand paging.
    #[inline]
    fn resolve(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<PhysAddr, VmError> {
        self.core.proc(pid)?;
        let result = {
            let (mech, mut ctx) = self.seam();
            mech.translate(&mut ctx, pid, va, access)
        };
        match result {
            Ok(pa) => Ok(pa),
            Err(TranslateError::NotMapped) => {
                self.core.machine.perf.prot_faults += 1;
                Err(VmError::BadAddress)
            }
            Err(TranslateError::Protection) => {
                self.core.machine.perf.prot_faults += 1;
                Err(VmError::ProtectionFault)
            }
        }
    }

    fn alloc_region(&mut self, pid: Pid, bytes: u64, _populate: bool) -> Result<VirtAddr, VmError> {
        // File-only memory is always "populated": mapping is O(1) per
        // extent, so there is nothing to defer.
        self.falloc(pid, bytes, FileClass::Volatile)
            .map(|(_, va)| va)
    }

    /// Memory is reclaimed only in the unit of a file: a length that
    /// does not round up to exactly the mapping's pages is refused
    /// before any charge, leaving the mapping whole.
    fn release_region(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError> {
        let mapping = self.core.proc(pid).ok().and_then(|p| p.maps.get(&va.0));
        if mapping
            .is_some_and(|m| bytes == 0 || o1_hw::pages_for(bytes) != o1_hw::pages_for(m.bytes))
        {
            return Err(VmError::BadRange);
        }
        self.unmap(pid, va)
    }

    /// Unmap every file. Cost is per *mapping*, not per page —
    /// "memory is only reclaimed in the unit of a file... or when the
    /// process terminates".
    ///
    /// Mappings go in the map's iteration order. Removing a key moves
    /// no other entry, so taking the first key each time visits them
    /// in the order one pass over the map would.
    fn teardown(&mut self, pid: Pid) -> Result<(), VmError> {
        while let Some(&base) = self.core.proc(pid)?.maps.keys().next() {
            self.unmap(pid, VirtAddr(base))?;
        }
        Ok(())
    }

    fn on_asid_flush(&mut self, asid: Asid) {
        self.mech.on_flush_asid(asid);
    }

    fn gauges(&self, g: &mut Vec<(&'static str, u64)>) {
        g.push(("kernel.keys_live", self.keys_live));
        g.push(("kernel.free_frames", self.pmfs.free_frames()));
        self.mech.gauges(g);
    }

    #[inline]
    fn hit_run(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        access: Access,
    ) -> Result<Option<(PhysAddr, u64)>, VmError> {
        self.core.proc(pid)?;
        let (mech, mut ctx) = self.seam();
        Ok(mech.translate_run(&mut ctx, pid, va, stride, len, access))
    }

    /// Range translations can often swallow a whole batch — even a
    /// random one — in one uniformity proof.
    #[inline]
    fn bulk_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<Option<u64>, VmError> {
        let (mech, mut ctx) = self.seam();
        mech.try_bulk_runs(&mut ctx, pid, base, runs, write, first_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MECHS: [MapMech; 6] = MapMech::ALL;

    #[test]
    fn process_table_exhaustion_is_an_error() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let first = k.create_process().unwrap();
        // Burn the rest of the 16-bit ASID space directly.
        while k.core.alloc_pid().is_ok() {}
        assert_eq!(k.create_process(), Err(VmError::ProcessLimit));
        assert_eq!(
            k.launch_process("/bin/app", PAGE_SIZE, PAGE_SIZE, PAGE_SIZE),
            Err(VmError::ProcessLimit)
        );
        // Freeing one ASID makes room for exactly one more process,
        // and pids stay monotonic across recycling.
        k.destroy_process(first).unwrap();
        let again = k.create_process().unwrap();
        assert!(again > first, "pids are never reused");
        assert_eq!(k.create_process(), Err(VmError::ProcessLimit));
    }

    #[test]
    fn alloc_store_load_roundtrip_all_mechs() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
            for i in 0..256u64 {
                k.store(pid, va + i * PAGE_SIZE, 7000 + i).unwrap();
            }
            for i in 0..256u64 {
                assert_eq!(
                    k.load(pid, va + i * PAGE_SIZE).unwrap(),
                    7000 + i,
                    "mech {mech:?} page {i}"
                );
            }
            assert_eq!(k.machine().perf.minor_faults, 0, "no demand paging");
            assert_eq!(k.machine().perf.major_faults, 0);
        }
    }

    #[test]
    fn release_takes_exactly_the_whole_mapping_all_mechs() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let va = k.alloc(pid, 4 * PAGE_SIZE, true).unwrap();
            for i in 0..4u64 {
                k.store(pid, va + i * PAGE_SIZE, 100 + i).unwrap();
            }
            for bytes in [0, 2 * PAGE_SIZE, 4 * PAGE_SIZE + 1, 8 * PAGE_SIZE] {
                let t0 = k.machine().now();
                assert_eq!(
                    k.release(pid, va, bytes),
                    Err(VmError::BadRange),
                    "mech {mech:?} bytes {bytes}"
                );
                assert_eq!(
                    k.machine().now(),
                    t0,
                    "mech {mech:?}: refused before any charge"
                );
                for i in 0..4u64 {
                    assert_eq!(
                        k.load(pid, va + i * PAGE_SIZE),
                        Ok(100 + i),
                        "mech {mech:?}"
                    );
                }
            }
            // A length that rounds up to the mapping's pages is exact.
            k.release(pid, va, 4 * PAGE_SIZE - 100).unwrap();
            assert_eq!(k.load(pid, va), Err(VmError::BadAddress), "mech {mech:?}");
        }
    }

    #[test]
    fn fresh_memory_reads_zero_all_mechs() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, 64 * PAGE_SIZE, FileClass::Volatile).unwrap();
            k.store(pid, va, 0xdead).unwrap();
            k.unmap(pid, va).unwrap();
            // Reallocate: old data must not leak.
            let (_, va2) = k.falloc(pid, 64 * PAGE_SIZE, FileClass::Volatile).unwrap();
            for i in 0..64u64 {
                assert_eq!(
                    k.load(pid, va2 + i * PAGE_SIZE).unwrap(),
                    0,
                    "mech {mech:?}"
                );
            }
        }
    }

    #[test]
    fn allocation_time_is_near_constant() {
        // Figure 2's fom side: file allocation+mapping cost barely
        // grows with size.
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        let pid = k.create_process().unwrap();
        let time_alloc = |k: &mut FomKernel, bytes: u64| {
            let t0 = k.machine().now();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            let ns = k.machine().now().since(t0);
            k.unmap(pid, va).unwrap();
            ns
        };
        let small = time_alloc(&mut k, 16 * PAGE_SIZE);
        let large = time_alloc(&mut k, 16 * 1024 * PAGE_SIZE); // 1024x
        assert!(
            large < 3 * small,
            "fom allocation must be near-O(1): {small} ns vs {large} ns"
        );
        assert_eq!(k.keys_live(), 0, "unmap drops every file's key");
    }

    #[test]
    fn baseline_populate_is_linear_fom_is_not() {
        use o1_vm::{BaselineKernel, MemSys};
        let mut base = BaselineKernel::builder().dram(256 << 20).build();
        let bpid = MemSys::create_process(&mut base).unwrap();
        let t0 = base.machine().now();
        MemSys::alloc(&mut base, bpid, 4 << 20, true).unwrap();
        let baseline_ns = base.machine().now().since(t0);

        let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
        let fpid = MemSys::create_process(&mut fom).unwrap();
        let t0 = fom.machine().now();
        MemSys::alloc(&mut fom, fpid, 4 << 20, true).unwrap();
        let fom_ns = fom.machine().now().since(t0);
        assert!(
            baseline_ns > 5 * fom_ns,
            "populating 4 MiB: baseline {baseline_ns} ns vs fom {fom_ns} ns"
        );
    }

    #[test]
    fn ranges_map_whole_file_with_one_entry() {
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        let pid = k.create_process().unwrap();
        let before = k.machine().perf.range_installs;
        let (_, va) = k.falloc(pid, 256 << 20, FileClass::Volatile).unwrap();
        let installs = k.machine().perf.range_installs - before;
        assert_eq!(installs, 1, "256 MiB = one range entry");
        assert_eq!(k.machine().perf.pte_writes, 0, "no per-page PTEs");
        // Unmap is O(1) too.
        let before = k.machine().perf.range_removes;
        k.unmap(pid, va).unwrap();
        assert_eq!(k.machine().perf.range_removes - before, 1);
    }

    #[test]
    fn shared_pt_second_mapper_pays_o1() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let p1 = k.create_process().unwrap();
        // A named persistent file, 8 MiB.
        k.create_named(p1, "/shared/data", 8 << 20, FileClass::Persistent)
            .unwrap();
        let writes_first = k.machine().perf.pte_writes;
        let p2 = k.create_process().unwrap();
        let before = k.machine().perf.pte_writes;
        let (_, va2) = k.open_map(p2, "/shared/data", Prot::ReadWrite).unwrap();
        let second = k.machine().perf.pte_writes - before;
        assert!(
            second <= 4 * 4,
            "second mapper wrote {second} PTEs (first built {writes_first}); want O(chunks)"
        );
        assert!(k.machine().perf.pt_shares >= 4, "4 chunks shared");
        // Data written by p1 is visible to p2.
        let va1 = k.mapping_base(p1, "/shared/data").unwrap();
        k.store(p1, va1 + 0x12345 * 8, 4242).unwrap();
        assert_eq!(k.load(p2, va2 + 0x12345 * 8).unwrap(), 4242);
    }

    #[test]
    fn pbm_gives_identical_addresses() {
        let mut k = FomKernel::builder().mech(MapMech::Pbm).build();
        let free0 = k.free_frames();
        let p1 = k.create_process().unwrap();
        let p2 = k.create_process().unwrap();
        k.create_named(p1, "/pbm/file", 4 << 20, FileClass::Persistent)
            .unwrap();
        let va1 = k.mapping_base(p1, "/pbm/file").unwrap();
        let (_, va2) = k.open_map(p2, "/pbm/file", Prot::ReadWrite).unwrap();
        assert_eq!(va1, va2, "PBM addresses are the same in all processes");
        assert!(va1.0 >= PBM_BASE);
        // And the page tables are shared.
        assert!(k.machine().perf.pt_shares > 0);
        // The same address twice in one process cannot be mapped, and
        // the failed map holds no reference: once the processes exit
        // and the name is deleted, the file and its key are gone.
        assert_eq!(
            k.open_map(p1, "/pbm/file", Prot::Read),
            Err(VmError::BadRange)
        );
        k.destroy_process(p1).unwrap();
        k.destroy_process(p2).unwrap();
        k.delete("/pbm/file").unwrap();
        assert_eq!(k.free_frames(), free0);
        assert_eq!(k.keys_live(), 0);
    }

    #[test]
    fn pbm_addresses_never_collide() {
        let mut k = FomKernel::builder().mech(MapMech::Pbm).build();
        let pid = k.create_process().unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            let (_, va) = k
                .falloc(pid, ((i % 5) + 1) * 64 * PAGE_SIZE, FileClass::Volatile)
                .unwrap();
            assert!(seen.insert(va), "PBM VA {va:?} collided");
        }
    }

    #[test]
    fn unmap_reclaims_whole_file() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let free0 = k.free_frames();
            let (_, va) = k.falloc(pid, 16 << 20, FileClass::Volatile).unwrap();
            assert_eq!(k.free_frames(), free0 - 4096);
            k.unmap(pid, va).unwrap();
            assert_eq!(k.free_frames(), free0, "mech {mech:?} leaked frames");
            assert_eq!(k.load(pid, va), Err(VmError::BadAddress));
        }
    }

    #[test]
    fn mapping_past_the_va_limit_is_refused() {
        // PBM places files at a pure function of their physical
        // address; every other mechanism bump-allocates VAs.
        for mech in MECHS.into_iter().filter(|&m| m != MapMech::Pbm) {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let bytes = 1 << 20;
            let (id, _) = k
                .create_named(pid, "/data", bytes, FileClass::Volatile)
                .unwrap();
            // A mapping that ends exactly at the limit still fits.
            k.core.proc_mut(pid).unwrap().next_va = MAX_MAP_BYTES - bytes;
            let (_, va) = k.open_map(pid, "/data", Prot::ReadWrite).unwrap();
            assert_eq!(va, VirtAddr(MAX_MAP_BYTES - bytes), "mech {mech:?}");
            k.store(pid, va + (bytes - 8), 42).unwrap();
            assert_eq!(k.load(pid, va + (bytes - 8)), Ok(42));
            // The next one would end past it: refused before anything
            // is installed or referenced.
            let refs = k.pmfs.inode(id).unwrap().refs();
            let epoch = k.core.pt.epoch();
            let meta = k.pt_metadata_bytes();
            let next_va = k.core.proc(pid).unwrap().next_va;
            assert_eq!(
                k.open_map(pid, "/data", Prot::ReadWrite),
                Err(VmError::NoMemory),
                "mech {mech:?}"
            );
            assert_eq!(k.pmfs.inode(id).unwrap().refs(), refs, "mech {mech:?}");
            assert_eq!(k.core.pt.epoch(), epoch, "mech {mech:?}");
            assert_eq!(k.pt_metadata_bytes(), meta, "mech {mech:?}");
            assert_eq!(k.core.proc(pid).unwrap().next_va, next_va);
            // A fresh file that cannot be mapped is dropped again.
            let (free, keys) = (k.free_frames(), k.keys_live());
            assert_eq!(
                k.falloc(pid, bytes, FileClass::Volatile),
                Err(VmError::NoMemory)
            );
            assert_eq!(k.free_frames(), free, "mech {mech:?} leaked frames");
            assert_eq!(k.keys_live(), keys, "mech {mech:?} leaked a key");
            // Nothing aliased into the low, never-mapped VAs.
            assert_eq!(k.load(pid, VirtAddr(0x1000)), Err(VmError::BadAddress));
        }
    }

    #[test]
    fn destroy_process_releases_everything() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let free0 = k.free_frames();
            let nodes0 = k.pt_metadata_bytes();
            let pid = k.create_process().unwrap();
            k.falloc(pid, 4 << 20, FileClass::Volatile).unwrap();
            k.falloc(pid, 123 * PAGE_SIZE, FileClass::Volatile).unwrap();
            k.destroy_process(pid).unwrap();
            assert_eq!(k.free_frames(), free0, "mech {mech:?} leaked frames");
            assert_eq!(k.pt_metadata_bytes(), nodes0, "mech {mech:?} leaked nodes");
        }
    }

    #[test]
    fn no_reclaim_scanning_ever() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        for _ in 0..8 {
            let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
            for i in 0..256u64 {
                k.store(pid, va + i * PAGE_SIZE, i).unwrap();
            }
            k.unmap(pid, va).unwrap();
        }
        assert_eq!(k.machine().perf.reclaim_scanned, 0);
        assert_eq!(k.machine().perf.pages_swapped_out, 0);
        assert_eq!(k.machine().perf.page_meta_updates, 0, "no struct page");
    }

    #[test]
    fn persistent_files_survive_crash() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        let (_, va) = k
            .create_named(pid, "/data/db", 2 << 20, FileClass::Persistent)
            .unwrap();
        k.store(pid, va, 0xfeed_beef).unwrap();
        k.store(pid, va + ((2 << 20) - 8), 0x1234).unwrap();
        let (_, vva) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
        k.store(pid, vva, 0x5ec2e7).unwrap();

        let stats = k.crash_and_recover();
        assert_eq!(stats.persistent_files, 1);
        assert_eq!(stats.volatile_dropped, 1);
        // Old process is gone.
        assert_eq!(k.load(pid, va), Err(VmError::NoProcess));
        // A new process maps the file and finds the data.
        let p2 = k.create_process().unwrap();
        let (_, va2) = k.open_map(p2, "/data/db", Prot::ReadWrite).unwrap();
        assert_eq!(k.load(p2, va2).unwrap(), 0xfeed_beef);
        assert_eq!(k.load(p2, va2 + ((2 << 20) - 8)).unwrap(), 0x1234);
    }

    #[test]
    fn volatile_data_is_erased_on_crash() {
        let mut k = FomKernel::builder().mech(MapMech::PageTables).build();
        let pid = k.create_process().unwrap();
        let (_, va) = k.falloc(pid, 64 * PAGE_SIZE, FileClass::Volatile).unwrap();
        k.store(pid, va, 0x5ec2e7).unwrap();
        let pa = k.resolve(pid, va, Access::Read).unwrap();
        k.crash_and_recover();
        assert!(
            k.machine().phys.frame_is_zero(pa.frame()),
            "volatile contents must not survive"
        );
    }

    #[test]
    fn discardable_files_reclaimed_under_pressure() {
        let mut k = FomKernel::new(FomConfig {
            nvm_bytes: 1024 * PAGE_SIZE,
            ..FomConfig::default()
        });
        let pid = k.create_process().unwrap();
        // Populate three discardable caches, then close (unmap) them:
        // the files stay in the namespace, reclaimable because
        // nothing references them.
        for i in 0..3 {
            let (_, va) = k
                .create_named_discardable(pid, &format!("/cache/{i}"), 200 * PAGE_SIZE)
                .unwrap();
            k.store(pid, va, 100 + i).unwrap();
            k.unmap(pid, va).unwrap();
        }
        let free_before = k.free_frames();
        assert!(free_before < 600, "caches occupy the volume");
        // A large allocation only fits if LRU caches are discarded.
        let (_, va) = k.falloc(pid, 600 * PAGE_SIZE, FileClass::Volatile).unwrap();
        assert!(
            k.machine().perf.files_discarded > 0,
            "pressure discarded caches"
        );
        // LRU order: cache 0 went first.
        let err = k.open_map(pid, "/cache/0", Prot::Read).unwrap_err();
        assert_eq!(err, VmError::Fs(o1_memfs::FsError::NotFound));
        k.unmap(pid, va).unwrap();
    }

    #[test]
    fn mprotect_file_changes_whole_file() {
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        let pid = k.create_process().unwrap();
        let (_, va) = k
            .create_named(pid, "/ro/data", 1 << 20, FileClass::Persistent)
            .unwrap();
        k.store(pid, va, 1).unwrap();
        let new_va = k.mprotect_file(pid, va, Prot::Read).unwrap();
        assert_eq!(k.mapping_base(pid, "/ro/data"), Some(new_va));
        assert_eq!(k.load(pid, new_va).unwrap(), 1);
        assert_eq!(k.store(pid, new_va, 2), Err(VmError::ProtectionFault));

        // A volatile scratch mapping keeps its file's name across the
        // remap, so it can still be persisted, and survives a crash.
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let names = k.pmfs.file_names().len();
            let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
            k.store(pid, va, 0x5ca1e).unwrap();
            let new_va = k.mprotect_file(pid, va, Prot::Read).unwrap();
            assert_eq!(k.pmfs.file_names().len(), names + 1, "{mech:?}: name kept");
            k.persist_mapping(pid, new_va, "/kept").unwrap();
            k.crash_and_recover();
            let pid = k.create_process().unwrap();
            let (_, va) = k.open_map(pid, "/kept", Prot::Read).unwrap();
            assert_eq!(k.load(pid, va).unwrap(), 0x5ca1e, "{mech:?}");
        }
    }

    #[test]
    fn dma_is_implicitly_pinned() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
        let (pa, ns) = {
            let t0 = k.machine().now();
            let pa = k.dma_prepare(pid, va, 1 << 20).unwrap();
            (pa, k.machine().now().since(t0))
        };
        // Compare against the baseline's per-page pinning cost.
        let per_page_pin = k.machine().cost.unit(CostKind::PinPage) * 256;
        assert!(
            ns < per_page_pin,
            "implicit pinning beats per-page: {ns} ns"
        );
        assert!(pa.0 > 0);
    }

    #[test]
    fn fgrow_extends_and_preserves_data() {
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
            for i in 0..256u64 {
                k.store(pid, va + i * PAGE_SIZE, 9000 + i).unwrap();
            }
            let new_va = k.fgrow(pid, va, 4 << 20).unwrap();
            // Old data intact at the new base.
            for i in 0..256u64 {
                assert_eq!(
                    k.load(pid, new_va + i * PAGE_SIZE).unwrap(),
                    9000 + i,
                    "mech {mech:?}"
                );
            }
            // New space is zeroed and writable. (Under PBM a grown
            // file's later extents live at their own physically-derived
            // addresses, not contiguously after the first — an inherent
            // PBM property — so the contiguous scan applies to the
            // other mechanisms only.)
            if mech != MapMech::Pbm {
                for i in 256..1024u64 {
                    assert_eq!(
                        k.load(pid, new_va + i * PAGE_SIZE).unwrap(),
                        0,
                        "mech {mech:?}"
                    );
                }
                k.store(pid, new_va + 1023 * PAGE_SIZE, 5).unwrap();
            }
            // Growth is near-O(1) in the added size.
            let t0 = k.machine().now();
            let new_va2 = k.fgrow(pid, new_va, 64 << 20).unwrap();
            let grow_ns = k.machine().now().since(t0);
            // Ranges/huge-PT growth is O(extents). Mechanisms that
            // pre-create chunk page tables or map 4 KiB-grained pay
            // more up front (amortised over all future mappers); each
            // mechanism declares its own envelope. Either way it is
            // far below the ~50 ms a fault-per-page grow of 64 MiB
            // would cost on the baseline.
            // The budget is in simulated ns.
            let limit = match mech {
                MapMech::PageTables | MapMech::Ranges => 300_000,
                MapMech::SharedPt | MapMech::Pbm | MapMech::Utopia | MapMech::Obase => 2_000_000,
            };
            assert!(grow_ns < limit, "mech {mech:?}: fgrow took {grow_ns} ns");
            k.unmap(pid, new_va2).unwrap();
        }
    }

    #[test]
    fn fgrow_noop_when_shrinking() {
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        let pid = k.create_process().unwrap();
        let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
        assert_eq!(k.fgrow(pid, va, 4096).unwrap(), va);
    }

    #[test]
    fn persist_mapping_promotes_volatile_data() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        // Compute into scratch memory...
        let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile).unwrap();
        k.store(pid, va, 0xda7a).unwrap();
        // ...then decide it should survive.
        k.persist_mapping(pid, va, "/results/run1").unwrap();
        k.unmap(pid, va).unwrap();
        // Still in the namespace (no auto-delete).
        let (_, va2) = k.open_map(pid, "/results/run1", Prot::ReadWrite).unwrap();
        assert_eq!(k.load(pid, va2).unwrap(), 0xda7a);
        // And it survives a crash.
        k.crash_and_recover();
        let pid = k.create_process().unwrap();
        let (_, va3) = k.open_map(pid, "/results/run1", Prot::ReadWrite).unwrap();
        assert_eq!(k.load(pid, va3).unwrap(), 0xda7a);
    }

    #[test]
    fn set_file_class_demotes_to_volatile() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        k.create_named(pid, "/tmp/soon-gone", 1 << 20, FileClass::Persistent)
            .unwrap();
        k.set_file_class("/tmp/soon-gone", FileClass::Volatile)
            .unwrap();
        let stats = k.crash_and_recover();
        assert_eq!(stats.volatile_dropped, 1);
        let pid = k.create_process().unwrap();
        assert!(k.open_map(pid, "/tmp/soon-gone", Prot::Read).is_err());
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        assert_eq!(
            k.falloc(pid, 0, FileClass::Volatile).unwrap_err(),
            VmError::BadRange
        );
    }

    #[test]
    fn oom_is_reported() {
        let mut k = FomKernel::new(FomConfig {
            nvm_bytes: 64 * PAGE_SIZE,
            ..FomConfig::default()
        });
        let pid = k.create_process().unwrap();
        assert_eq!(
            k.falloc(pid, 1 << 30, FileClass::Volatile).unwrap_err(),
            VmError::NoMemory
        );
        // The failed file does not leak.
        assert!(k.falloc(pid, 32 * PAGE_SIZE, FileClass::Volatile).is_ok());
    }

    #[test]
    fn memsys_trait_roundtrip() {
        // Monomorphic MemSys usage — the shape every figure hot path
        // compiles down to (erasure is a plain `&mut dyn MemSys`).
        fn roundtrip(sys: &mut impl MemSys) {
            let pid = sys.create_process().unwrap();
            let va = sys.alloc(pid, 8 * PAGE_SIZE, false).unwrap();
            sys.store(pid, va, 1).unwrap();
            assert_eq!(sys.load(pid, va).unwrap(), 1);
            sys.release(pid, va, 8 * PAGE_SIZE).unwrap();
            sys.destroy_process(pid).unwrap();
        }
        for mech in MECHS {
            let mut k = FomKernel::builder().mech(mech).build();
            roundtrip(&mut k);
        }
    }

    #[test]
    fn launch_process_with_shared_code() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let p1 = k
            .launch_process("/bin/app", 2 << 20, 1 << 20, 256 * 1024)
            .unwrap();
        let shares_before = k.machine().perf.pt_shares;
        let p2 = k
            .launch_process("/bin/app", 2 << 20, 1 << 20, 256 * 1024)
            .unwrap();
        assert!(
            k.machine().perf.pt_shares > shares_before,
            "second launch shares the code file's page tables"
        );
        assert_ne!(p1, p2);
    }
}
