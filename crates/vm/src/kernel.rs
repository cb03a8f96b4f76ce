//! The baseline kernel: Linux-like virtual memory management.
//!
//! This is the *status quo* every figure in the paper compares against:
//!
//! * `mmap` with demand paging or `MAP_POPULATE` — the populate path
//!   performs one buddy allocation, one zero, one PTE write and one
//!   `struct page` update **per page** (Figure 1a);
//! * demand faults pay the trap + handler cost per page (Figure 1b);
//! * per-frame [`PageMeta`](crate::page_meta::PageMeta) records with
//!   the 25 Linux page flags;
//! * clock reclaim with a swap device, triggered below a free-
//!   memory watermark (A-RECLAIM);
//! * copy-on-write (fork and `MAP_PRIVATE` file mappings) and page
//!   pinning — the page-granular features the paper concedes are hard
//!   to keep under file-only memory.

use o1_hw::{CostKind, OpKind};

use o1_hw::{
    span_within, Access, Asid, ClearedLeaves, FastMap, FrameNo, Machine, MachineConfig, MemTier,
    Mmu, PageSize, PageTables, PhysAddr, PtNodeId, PteFlags, RangeTable, TranslateError,
    Translation, VirtAddr, HUGE_2M, PAGE_SIZE, PT_LEVELS,
};
use o1_memfs::{FileId, Tmpfs};
use o1_palloc::{BuddyAllocator, FrameSource, PhysExtent};

/// Mechanism label under which this kernel's operation latencies are
/// recorded in the `o1-obs` ledger.
const MECH: &str = "baseline";

use crate::api::MemSys;
use crate::kernel_core::{CoreProc, KernelCore, KernelHooks};
use crate::page_meta::{PageFlag, PageMetaTable};
use crate::reclaim::{LruLists, ReclaimPolicy, ScanDecision, SwapDevice, SwapSlot};
use crate::types::{Backing, MapFlags, Pid, Prot, VmError};
use crate::vma::{Vma, VmaMap};

/// Lowest address handed out by mmap.
pub const MMAP_BASE: u64 = 0x1000_0000;

/// Largest length a mapping call accepts on either kernel (`mmap`,
/// `map_stack`, fom `falloc`): the 47-bit user half of a 48-bit
/// address space. Longer requests are `BadRange` before anything is
/// charged, so page rounding, guard gaps and huge alignment never
/// overflow.
pub const MAX_MAP_BYTES: u64 = 1 << 47;

/// Configuration of the baseline kernel.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// DRAM size in bytes.
    pub dram_bytes: u64,
    /// Reclaim policy.
    pub reclaim: ReclaimPolicy,
    /// Reclaim kicks in when free frames drop below this.
    pub low_watermark_frames: u64,
    /// Whether anonymous pages may be swapped out under pressure.
    pub swap_enabled: bool,
    /// Transparent-huge-page policy for anonymous memory.
    pub thp: ThpMode,
    /// Pages populated per fault (1 = plain demand paging; Linux's
    /// fault-around uses 16 for file mappings).
    pub fault_around: u32,
}

/// Transparent-huge-page policy (§1/§3 of the paper: "with ample
/// memory it may be more efficient to allocate a large page (e.g.,
/// 2MB) when only hundreds of kilobytes are needed... No current
/// system would choose this, though, because of the wasted space").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThpMode {
    /// 4 KiB pages only.
    Never,
    /// Use a 2 MiB mapping when the VMA fully covers an aligned
    /// 2 MiB region (Linux THP-style).
    Aligned2M,
    /// The paper's thought experiment: round every anonymous mapping
    /// up to 2 MiB and always map huge, trading space for time. The
    /// waste is tracked in [`BaselineKernel::space_overhead_bytes`].
    GreedyHuge,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            dram_bytes: 256 << 20,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 64,
            swap_enabled: true,
            thp: ThpMode::Never,
            fault_around: 1,
        }
    }
}

/// Builder for a [`BaselineKernel`]: kernel policy plus the shared
/// [`MachineConfig`] (cost model, CPU count, observability mode) and
/// TLB geometry, in one place. Obtained from
/// [`BaselineKernel::builder`].
///
/// # Examples
/// ```
/// use o1_vm::{BaselineKernel, ThpMode};
///
/// let k = BaselineKernel::builder()
///     .dram(64 << 20)
///     .thp(ThpMode::Aligned2M)
///     .cpus(8)
///     .build();
/// assert!(k.free_frames() > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BaselineBuilder {
    config: BaselineConfig,
    machine: MachineConfig,
    tlb: Option<(usize, usize)>,
}

impl BaselineBuilder {
    /// DRAM size in bytes.
    pub fn dram(mut self, bytes: u64) -> Self {
        self.config.dram_bytes = bytes;
        self
    }

    /// Whether anonymous pages may be swapped out under pressure.
    pub fn swap(mut self, enabled: bool) -> Self {
        self.config.swap_enabled = enabled;
        self
    }

    /// Transparent-huge-page policy.
    pub fn thp(mut self, mode: ThpMode) -> Self {
        self.config.thp = mode;
        self
    }

    /// Replace the whole kernel-policy config at once.
    pub fn config(mut self, config: BaselineConfig) -> Self {
        self.config = config;
        self
    }

    /// Boot the kernel.
    ///
    /// # Panics
    /// Panics on an invalid machine configuration; use
    /// [`try_build`](Self::try_build) to handle it as an error.
    pub fn build(self) -> BaselineKernel {
        self.try_build().expect("invalid machine configuration")
    }

    /// Boot the kernel, validating the machine configuration.
    ///
    /// # Errors
    /// [`VmError::InvalidConfig`] when `cpus` is zero or exceeds
    /// [`o1_hw::MAX_CPUS`].
    pub fn try_build(self) -> Result<BaselineKernel, VmError> {
        let config = MachineConfig {
            dram_bytes: self.config.dram_bytes,
            nvm_bytes: 0,
            ..self.machine
        };
        let core = KernelCore::boot(config, false, self.tlb)?;
        Ok(BaselineKernel::boot(self.config, core))
    }
}

// The `cpus` / `obs` / `tlb` setters, shared with the
// file-only kernel's builder.
crate::machine_config_builder!(BaselineBuilder);

/// A baseline process: its address space and what it has in swap.
#[derive(Debug)]
pub struct BaselineProc {
    asid: Asid,
    root: PtNodeId,
    vmas: VmaMap,
    /// Pages evicted to swap: virtual page → slot.
    /// Keyed by virtual page number — trusted fixed-width ids probed
    /// on every fault in the region, so the fast hasher is safe.
    swapped: FastMap<u64, SwapSlot>,
}

impl CoreProc for BaselineProc {
    #[inline]
    fn new(asid: Asid, root: PtNodeId) -> BaselineProc {
        BaselineProc {
            asid,
            root,
            vmas: VmaMap::new(),
            swapped: FastMap::default(),
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

/// The baseline Linux-like kernel.
#[derive(Debug)]
pub struct BaselineKernel {
    core: KernelCore<BaselineProc>,
    alloc: BuddyAllocator,
    /// The tmpfs instance files live in.
    pub tmpfs: Tmpfs,
    meta: PageMetaTable,
    swap: SwapDevice,
    lru: LruLists,
    low_watermark: u64,
    swap_enabled: bool,
    thp: ThpMode,
    fault_around: u32,
    /// Huge buddy blocks that were split in place: block start frame →
    /// live base pages. The order-9 block returns to the buddy only
    /// when the count reaches zero.
    /// Keyed by the head frame number of a huge block — a trusted
    /// fixed-width hardware id, probed on every huge map/unmap.
    huge_parts: FastMap<u64, u32>,
    /// Bytes wasted by GreedyHuge rounding (space-for-time ledger).
    space_overhead: u64,
    /// Baseline hardware has no range translations.
    no_ranges: RangeTable,
}

impl BaselineKernel {
    /// Boot a kernel with the given configuration.
    pub fn new(config: BaselineConfig) -> BaselineKernel {
        BaselineKernel::builder().config(config).build()
    }

    /// Start configuring a kernel: policy, machine geometry, cost
    /// model and TLB shape in one fluent chain.
    pub fn builder() -> BaselineBuilder {
        BaselineBuilder::default()
    }

    fn boot(config: BaselineConfig, core: KernelCore<BaselineProc>) -> BaselineKernel {
        let frames = core.machine.phys.total_frames();
        BaselineKernel {
            core,
            alloc: BuddyAllocator::new(PhysExtent::new(FrameNo(0), frames)),
            tmpfs: Tmpfs::new(),
            meta: PageMetaTable::new(frames),
            swap: SwapDevice::new(),
            lru: LruLists::default(),
            low_watermark: config.low_watermark_frames,
            swap_enabled: config.swap_enabled,
            thp: config.thp,
            fault_around: config.fault_around.max(1),
            huge_parts: FastMap::default(),
            space_overhead: 0,
            no_ranges: RangeTable::new(),
        }
    }

    /// Free physical frames.
    pub fn free_frames(&self) -> u64 {
        self.alloc.free_frames()
    }

    /// Configure the hardware translation depth (§2: 5-level paging,
    /// virtualized nesting).
    pub fn set_walk_mode(&mut self, mode: o1_hw::WalkMode) {
        self.core.mmu.walk_mode = mode;
    }

    /// Bytes of memory wasted by the GreedyHuge space-for-time trade
    /// (mapping rounding), cumulatively.
    pub fn space_overhead_bytes(&self) -> u64 {
        self.space_overhead
    }

    /// Bytes of page-table metadata currently allocated.
    pub fn pt_metadata_bytes(&self) -> u64 {
        self.core.pt.metadata_bytes()
    }

    /// Bytes of `struct page` metadata (fixed at boot — the linear
    /// cost the paper's T-META experiment charts).
    pub fn page_meta_bytes(&self) -> u64 {
        self.meta.metadata_bytes()
    }

    /// Number of VMAs in a process (metadata diagnostics).
    pub fn vma_count(&self, pid: Pid) -> Result<usize, VmError> {
        Ok(self.core.proc(pid)?.vmas.len())
    }

    /// Check the `struct page` bookkeeping against the page tables and
    /// the swap map (test and fuzzer support; O(frames + swapped
    /// pages)): every frame's map count equals its reverse-map length,
    /// every reverse-map entry names a live process whose page tables
    /// map that address to that frame (the head frame of a huge leaf),
    /// and no page is both mapped and in swap.
    ///
    /// # Errors
    /// A description of the first violation found.
    pub fn check_consistency(&self) -> Result<(), String> {
        for frame in (0..self.meta.len()).map(FrameNo) {
            let meta = self.meta.get(frame);
            let (count, rmap) = (meta.mapcount, &meta.rmap);
            if count as usize != rmap.len() {
                return Err(format!("{frame:?}: mapcount {count} but rmap {rmap:?}"));
            }
            for &(pid, va) in rmap {
                let root = self.core.procs.space(pid).ok().map(|(root, _)| root);
                let leaf = root.and_then(|r| self.core.pt.lookup(r, va));
                if leaf.map(|t| t.pa.frame()) != Some(frame) {
                    return Err(format!("{frame:?}: rmap ({pid:?}, {va:?}) but {leaf:?}"));
                }
            }
        }
        for pid in self.core.procs.pids() {
            let p = self.core.proc(pid).map_err(|e| e.to_string())?;
            let mapped = |vpage: &&u64| self.core.pt.lookup(p.root, VirtAddr(*vpage * PAGE_SIZE));
            if let Some(vpage) = p.swapped.keys().find(|v| mapped(v).is_some()) {
                return Err(format!("{pid:?}: page {vpage:#x} both mapped and in swap"));
            }
        }
        Ok(())
    }

    // ---- process lifecycle ------------------------------------------------

    /// Fork: duplicate the address space with copy-on-write. Linear in
    /// the number of *mapped* pages, as on real hardware.
    pub fn fork(&mut self, parent: Pid) -> Result<Pid, VmError> {
        self.core.machine.charge_syscall();
        let (p_root, p_asid) = self.core.procs.space(parent)?;
        let p = self.core.proc(parent)?;
        let vmas: Vec<Vma> = p.vmas.iter().copied().collect();
        let swapped: Vec<(u64, SwapSlot)> = p.swapped.iter().map(|(&k, &v)| (k, v)).collect();
        let (child, grant) = self.core.alloc_pid()?;
        let c_root = self.core.pt.create_root(&mut self.core.machine);
        let mut c_vmas = VmaMap::new();
        for v in &vmas {
            self.core.machine.charge_kind(CostKind::VmaCreate);
            c_vmas.insert(*v);
        }
        // Swap slots are not shared: the parent's swapped pages come
        // back in (charged) so the child can share them copy-on-write.
        for (vpage, slot) in swapped {
            let va = VirtAddr(vpage * PAGE_SIZE);
            self.swap_in_page(parent, va, slot)?;
            self.core.proc_mut(parent)?.swapped.remove(&vpage);
        }
        // Huge mappings are split before COW-sharing (as Linux did for
        // years): the paper's "2MB pages are expensive... Linux instead
        // fragments them into 4KB pages".
        for v in &vmas {
            let mut va = v.start;
            while va < v.end {
                match self.core.pt.lookup(p_root, va) {
                    Some(t) if t.size != PageSize::Base => {
                        let leaf = va.align_down(t.size.bytes());
                        self.split_huge_leaf(parent, p_root, p_asid, leaf);
                        va = leaf + t.size.bytes();
                    }
                    Some(_) | None => va += PAGE_SIZE,
                }
            }
        }
        // Share every mapped page read-only + COW.
        for v in &vmas {
            let mut va = v.start;
            while va < v.end {
                if let Some(t) = self.core.pt.lookup(p_root, va) {
                    let frame = t.pa.frame();
                    let flags = if v.shared {
                        v.prot.pte_flags()
                    } else {
                        // Downgrade the parent to COW.
                        let cow = v
                            .prot
                            .pte_flags()
                            .difference(PteFlags::WRITE)
                            .union(cow_bit(v.prot));
                        self.remap_leaf(p_root, va, |f, _| (f, cow));
                        cow
                    };
                    self.install_page(child, c_root, va, frame, flags, &[]);
                }
                va += PAGE_SIZE;
            }
        }
        self.core.mmu.flush_asid(&mut self.core.machine, p_asid);
        let core = &mut self.core;
        core.mmu.charge_shootdown(&mut core.machine, p_asid);
        self.core.procs.insert(
            child,
            BaselineProc {
                asid: grant.asid,
                root: c_root,
                vmas: c_vmas,
                swapped: FastMap::default(),
            },
        );
        self.poll_timeline();
        Ok(child)
    }

    /// Launch a process with code, heap and stack segments — the
    /// baseline's per-page cost at launch is what file-only memory's
    /// "segments as files" removes.
    pub fn launch_process(
        &mut self,
        code_bytes: u64,
        heap_bytes: u64,
        stack_bytes: u64,
        populate: bool,
    ) -> Result<Pid, VmError> {
        let pid = self.create_process()?;
        let flags = if populate {
            MapFlags::private_populate()
        } else {
            MapFlags::private()
        };
        self.mmap(pid, code_bytes, Prot::ReadExec, Backing::Anon, flags)?;
        self.mmap(pid, heap_bytes, Prot::ReadWrite, Backing::Anon, flags)?;
        self.mmap(pid, stack_bytes, Prot::ReadWrite, Backing::Anon, flags)?;
        Ok(pid)
    }

    /// Map a grow-down stack: `initial_bytes` mapped now below the
    /// returned top-of-stack, growing automatically (on faults) down
    /// to `max_bytes`, with a guard gap below the limit. This is one
    /// of the page-granular features the paper concedes file-only
    /// memory loses ("guard pages... cannot easily be supported").
    pub fn map_stack(
        &mut self,
        pid: Pid,
        initial_bytes: u64,
        max_bytes: u64,
    ) -> Result<VirtAddr, VmError> {
        if initial_bytes == 0 || initial_bytes > max_bytes || max_bytes > MAX_MAP_BYTES {
            return Err(VmError::BadRange);
        }
        self.core.machine.charge_syscall();
        self.core.machine.charge_kind(CostKind::MmapFixed);
        self.core.machine.charge_kind(CostKind::VmaCreate);
        let initial = o1_hw::round_up_pages(initial_bytes);
        let max = o1_hw::round_up_pages(max_bytes);
        let proc = self.core.proc_mut(pid)?;
        // Reserve the whole growth window plus a guard page.
        let window = proc.vmas.find_gap(VirtAddr(MMAP_BASE), max + 2 * PAGE_SIZE) + PAGE_SIZE;
        let limit = window + PAGE_SIZE; // guard page below the limit
        let top = limit + max;
        proc.vmas.insert(Vma {
            start: top - initial,
            end: top,
            prot: Prot::ReadWrite,
            backing: Backing::Anon,
            shared: false,
            pinned: false,
            grow_limit: Some(limit),
        });
        Ok(top)
    }

    /// If `va` falls between a grow-down VMA's limit and its current
    /// start, extend the VMA down to cover it and return the grown
    /// VMA.
    fn try_grow_stack(&mut self, pid: Pid, va: VirtAddr) -> Result<Option<Vma>, VmError> {
        let proc = self.core.proc_mut(pid)?;
        let Some(next) = proc.vmas.next_above(va) else {
            return Ok(None);
        };
        let old_start = match next.grow_limit {
            Some(limit) if va >= limit && va < next.start => next.start,
            _ => return Ok(None),
        };
        let new_start = va.align_down(PAGE_SIZE);
        proc.vmas.grow_down(old_start, new_start);
        let grown = proc.vmas.find(va).copied();
        self.core.machine.charge_kind(CostKind::VmaCreate);
        Ok(grown)
    }

    // ---- mmap / munmap ----------------------------------------------------

    /// `mmap`: create a mapping of `len` bytes (rounded up to pages).
    ///
    /// With `flags.populate`, every page is allocated, zeroed and
    /// mapped now (linear); otherwise only the VMA is created
    /// (constant, ≈ 8 µs like the paper's tmpfs measurement).
    ///
    /// # Examples
    /// ```
    /// use o1_vm::{Backing, BaselineKernel, MapFlags, MemSys, Prot};
    ///
    /// let mut k = BaselineKernel::builder().dram(64 << 20).build();
    /// let pid = MemSys::create_process(&mut k).unwrap();
    /// let va = k
    ///     .mmap(pid, 1 << 20, Prot::ReadWrite, Backing::Anon, MapFlags::private())
    ///     .unwrap();
    /// k.store(pid, va, 1).unwrap(); // demand faults the first page
    /// assert_eq!(k.machine().perf.minor_faults, 1);
    /// ```
    pub fn mmap(
        &mut self,
        pid: Pid,
        len: u64,
        prot: Prot,
        backing: Backing,
        flags: MapFlags,
    ) -> Result<VirtAddr, VmError> {
        if len == 0 || len > MAX_MAP_BYTES {
            return Err(VmError::BadRange);
        }
        let t0 = self.core.machine.op_start();
        self.core.machine.charge_syscall();
        self.core.machine.charge_kind(CostKind::MmapFixed);
        self.core.machine.charge_kind(CostKind::VmaCreate);
        let mut len = o1_hw::round_up_pages(len);
        let anon = matches!(backing, Backing::Anon);
        if anon && self.thp == ThpMode::GreedyHuge {
            // The paper's trade: waste up to 2 MiB of space per
            // mapping so every page can be huge.
            let rounded = len.next_multiple_of(HUGE_2M);
            self.space_overhead += rounded - len;
            len = rounded;
        }
        let huge_align = anon && self.thp != ThpMode::Never && len >= HUGE_2M;
        let proc = self.core.proc_mut(pid)?;
        if let Backing::File { id, .. } = backing {
            self.tmpfs.inc_ref(id).map_err(VmError::from)?;
        }
        // Leave a one-page guard gap before the region, as real mmap
        // layouts do (also keeps stacks from silently merging into
        // heaps). Huge-eligible regions are 2 MiB-aligned so the
        // aligned-coverage test can succeed at all.
        let start = if huge_align {
            proc.vmas
                .find_gap(VirtAddr(MMAP_BASE), len + HUGE_2M + PAGE_SIZE)
                .align_up(HUGE_2M)
        } else {
            proc.vmas.find_gap(VirtAddr(MMAP_BASE), len + PAGE_SIZE) + PAGE_SIZE
        };
        let vma = Vma {
            start,
            end: start + len,
            prot,
            backing,
            shared: flags.shared,
            pinned: false,
            grow_limit: None,
        };
        proc.vmas.insert(vma);
        if flags.populate {
            let mut va = start;
            let end = start + len;
            while va < end {
                if self.core.machine.fastforward() {
                    let left = (end.0 - va.0) / PAGE_SIZE;
                    if let Some(done) = self.try_populate_run(pid, va, left, vma) {
                        va += done * PAGE_SIZE;
                        continue;
                    }
                }
                self.populate_page(pid, va, vma)?;
                va += PAGE_SIZE;
            }
        }
        self.core.machine.op_end(t0, OpKind::Mmap, MECH);
        self.poll_timeline();
        Ok(start)
    }

    /// `munmap`: remove `[va, va+len)`. Per-page teardown, as on
    /// Linux.
    pub fn munmap(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        let t0 = self.core.machine.op_start();
        self.core.machine.charge_syscall();
        if len == 0 || !va.is_aligned(PAGE_SIZE) {
            return Err(VmError::BadRange);
        }
        self.unmap_region(pid, va, end - va)?;
        self.core.machine.op_end(t0, OpKind::Munmap, MECH);
        self.poll_timeline();
        Ok(())
    }

    /// Remove the VMAs of `[va, va+len)` one at a time, each with its
    /// pages, then send one shootdown.
    fn unmap_region(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        let (_, asid) = self.core.procs.space(pid)?;
        self.core.machine.charge_kind(CostKind::VmaDestroy);
        while let Some(piece) = self.core.proc_mut(pid)?.vmas.remove_first(va, len) {
            if let Backing::File { id, .. } = piece.backing {
                let (machine, tmpfs, alloc) =
                    (&mut self.core.machine, &mut self.tmpfs, &mut self.alloc);
                tmpfs.dec_ref(machine, alloc, id).map_err(VmError::from)?;
            }
            self.drop_range(pid, piece.start, piece.end)?;
        }
        self.core.mmu.charge_shootdown(&mut self.core.machine, asid);
        Ok(())
    }

    /// Drop every page of `[start, end)`, both kinds of residence: its
    /// mapping and its swap slot. Huge leaves straddling either edge
    /// are split first (Linux "fragments them into 4KB pages").
    ///
    /// Simulated time is per page, as on Linux; host time is per
    /// node. The page tables give up one node's run of leaves per step
    /// ([`PageTables::unmap_leaves`]), which costs one INVLPG
    /// broadcast per leaf, delivered as one
    /// ([`Mmu::invalidate_pages`](o1_hw::Mmu::invalidate_pages)).
    /// Each leaf's `struct page` update is charged in one block, and
    /// its frame is released in VA order, so the allocators see the
    /// per-page sequence. The swap map is walked only if it holds
    /// anything.
    fn drop_range(&mut self, pid: Pid, start: VirtAddr, end: VirtAddr) -> Result<(), VmError> {
        let (root, asid) = self.core.procs.space(pid)?;
        self.split_huge_covering(pid, root, asid, start);
        self.split_huge_covering(pid, root, asid, end);
        let mut leaves = ClearedLeaves::default();
        let (mut at, mut dropped) = (start, 0u64);
        while self
            .core
            .pt
            .unmap_leaves(&mut self.core.machine, root, &mut at, end, &mut leaves)
        {
            let core = &mut self.core;
            core.mmu
                .invalidate_pages(&mut core.machine, asid, leaves.vas());
            dropped += leaves.vas().len() as u64;
            for (va, frame) in leaves.iter() {
                if self.meta.remove_mapping(frame, pid, va) {
                    self.release_frame(frame, leaves.size());
                }
            }
        }
        self.core
            .machine
            .charge_opn(CostKind::PageMetaUpdate, dropped);
        self.core.machine.perf.page_meta_updates += dropped;
        let swapped = &mut self.core.proc_mut(pid)?.swapped;
        if !swapped.is_empty() {
            let mut va = start;
            while va < end {
                if let Some(slot) = swapped.remove(&va.page().0) {
                    self.swap.discard(slot);
                }
                va += PAGE_SIZE;
            }
        }
        Ok(())
    }

    /// In-place split of the huge mapping covering `boundary`, if one
    /// exists and the boundary falls strictly inside it: the single
    /// huge PTE becomes 512 base PTEs over the *same* frames; the
    /// underlying order-9 block is freed only when its last base page
    /// goes (`huge_parts` refcount). This is the huge-page
    /// fragmentation cost the paper's §3 describes.
    fn split_huge_covering(&mut self, pid: Pid, root: PtNodeId, asid: Asid, boundary: VirtAddr) {
        let Some(t) = self.core.pt.lookup(root, boundary) else {
            return;
        };
        if t.size == PageSize::Base || boundary.is_aligned(t.size.bytes()) {
            return;
        }
        self.split_huge_leaf(pid, root, asid, boundary.align_down(t.size.bytes()));
    }

    /// Unconditionally split the huge leaf based at `leaf_va`.
    fn split_huge_leaf(&mut self, pid: Pid, root: PtNodeId, asid: Asid, leaf_va: VirtAddr) {
        let (head, flags, size) = self
            .core
            .pt
            .unmap(&mut self.core.machine, root, leaf_va)
            .expect("split of unmapped leaf");
        let core = &mut self.core;
        core.mmu.invalidate_page(&mut core.machine, asid, leaf_va);
        let pages = size.bytes() / PAGE_SIZE;
        self.huge_parts.insert(head.0, pages as u32);
        // The head record dissolves into one record per fragment.
        self.meta.remove_mapping(head, pid, leaf_va);
        self.meta.get_mut(head).clear(PageFlag::Head);
        let page_flags: &[PageFlag] = if self.meta.get(head).test(PageFlag::Swapbacked) {
            &[PageFlag::Swapbacked, PageFlag::Uptodate]
        } else {
            &[PageFlag::Uptodate]
        };
        for i in 0..pages {
            let frame = head + i;
            let va = leaf_va + i * PAGE_SIZE;
            self.install_page(pid, root, va, frame, flags, page_flags);
        }
        self.core.mmu.charge_shootdown(&mut self.core.machine, asid);
    }

    /// Release a frame whose last mapping went away (see
    /// [`PageMetaTable::remove_mapping`]): reset its `struct page`,
    /// drop it from the reclaim lists and return it to the allocator.
    /// A fragment of a split huge block frees its parent order-9 block
    /// only when the last fragment dies; a whole huge leaf was never
    /// split, so it returns to the buddy in one piece.
    #[inline]
    fn release_frame(&mut self, frame: FrameNo, size: PageSize) {
        self.meta.reset(frame);
        self.lru.remove(frame);
        let block = frame.0 & !511;
        let ext = match self.huge_parts.get_mut(&block) {
            Some(live) if size == PageSize::Base => {
                *live -= 1;
                if *live > 0 {
                    return;
                }
                self.huge_parts.remove(&block);
                PhysExtent::new(FrameNo(block), 512)
            }
            _ => PhysExtent::new(frame, size.bytes() / PAGE_SIZE),
        };
        self.alloc.free_block(&mut self.core.machine, ext);
    }

    /// Rewrite the leaf mapping `va` in place: unmap it, then map
    /// `with(old frame, old flags)` at the same size. Returns that size,
    /// or `None` (nothing charged) when nothing is mapped there.
    #[inline]
    fn remap_leaf(
        &mut self,
        root: PtNodeId,
        va: VirtAddr,
        with: impl FnOnce(FrameNo, PteFlags) -> (FrameNo, PteFlags),
    ) -> Option<PageSize> {
        let core = &mut self.core;
        let (old, old_flags, size) = core.pt.unmap(&mut core.machine, root, va)?;
        let (frame, flags) = with(old, old_flags);
        core.pt
            .map(&mut core.machine, root, va, frame, size, flags)
            .expect("remap after unmap");
        Some(size)
    }

    /// Map `frame` at `va` in an empty slot of `pid`'s page tables
    /// with leaf `flags` (a 2 MiB leaf for a [`PageFlag::Head`] page),
    /// then [`meta_map`](Self::meta_map) it with `page_flags`.
    #[inline]
    fn install_page(
        &mut self,
        pid: Pid,
        root: PtNodeId,
        va: VirtAddr,
        frame: FrameNo,
        flags: PteFlags,
        page_flags: &[PageFlag],
    ) {
        let size = if page_flags.contains(&PageFlag::Head) {
            PageSize::Huge2M
        } else {
            PageSize::Base
        };
        let core = &mut self.core;
        core.pt
            .map(&mut core.machine, root, va, frame, size, flags)
            .expect("install into an empty slot");
        self.meta_map(frame, pid, va, page_flags);
    }

    /// Record a new mapping of `frame` at `(pid, va)` in its
    /// `struct page` and charge the update. A reclaimable frame joins
    /// the reclaim lists when swap is on.
    #[inline]
    fn meta_map(&mut self, frame: FrameNo, pid: Pid, va: VirtAddr, flags: &[PageFlag]) {
        self.core.machine.charge_kind(CostKind::PageMetaUpdate);
        self.core.machine.perf.page_meta_updates += 1;
        if self.meta.add_mapping(frame, pid, va, flags) && self.swap_enabled {
            self.lru.insert(frame);
        }
    }

    /// `mprotect`: change protection; splits VMAs and rewrites every
    /// present PTE in the range (linear, as on Linux).
    pub fn mprotect(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        self.core.machine.charge_syscall();
        let len = end - va;
        let (root, asid) = self.core.procs.space(pid)?;
        {
            let proc = self.core.proc_mut(pid)?;
            if !proc.vmas.set_prot(va, len, prot) {
                return Err(VmError::BadRange);
            }
        }
        // Huge leaves straddling the range edges are split; fully
        // covered huge leaves are re-flagged in place (still huge).
        self.split_huge_covering(pid, root, asid, va);
        self.split_huge_covering(pid, root, asid, end);
        let mut page_va = va;
        while page_va < end {
            let size = self.remap_leaf(root, page_va, |frame, old| {
                let mut flags = prot.pte_flags();
                if old.contains(PteFlags::COW) {
                    flags = flags.difference(PteFlags::WRITE).union(PteFlags::COW);
                }
                (frame, flags)
            });
            page_va += size.map_or(PAGE_SIZE, PageSize::bytes);
        }
        self.core.mmu.flush_asid(&mut self.core.machine, asid);
        self.core.mmu.charge_shootdown(&mut self.core.machine, asid);
        Ok(())
    }

    /// `madvise(MADV_DONTNEED)`: drop the pages in the range, resident
    /// or swapped out; anonymous pages read zero on the next touch.
    pub fn madvise_dontneed(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        self.core.machine.charge_syscall();
        let (_, asid) = self.core.procs.space(pid)?;
        self.drop_range(pid, va, end)?;
        self.core.mmu.charge_shootdown(&mut self.core.machine, asid);
        Ok(())
    }

    // ---- page population & faults ------------------------------------------

    fn populate_page(&mut self, pid: Pid, va: VirtAddr, vma: Vma) -> Result<(), VmError> {
        let (root, _) = self.core.procs.space(pid)?;
        if self.core.pt.lookup(root, va).is_some() {
            return Ok(());
        }
        let (frame, flags, page_flags) = match vma.backing {
            Backing::Anon => {
                // Transparent huge page: map 2 MiB at once when policy
                // and alignment allow.
                if self.thp != ThpMode::Never && self.try_populate_huge(pid, root, va, &vma)? {
                    return Ok(());
                }
                (self.alloc_frame()?, vma.prot.pte_flags(), &ANON_FAULTED[..])
            }
            Backing::File { id, .. } => {
                let file_off = vma.file_offset_of(va).expect("va inside file vma");
                let file_page = file_off / PAGE_SIZE;
                let (machine, tmpfs, alloc) =
                    (&mut self.core.machine, &mut self.tmpfs, &mut self.alloc);
                let frame = tmpfs
                    .get_or_alloc_page(machine, alloc, id, file_page)
                    .map_err(VmError::from)?;
                let flags = if vma.shared {
                    vma.prot.pte_flags()
                } else {
                    // MAP_PRIVATE: share the file page read-only; a
                    // write will copy (COW).
                    vma.prot
                        .pte_flags()
                        .difference(PteFlags::WRITE)
                        .union(cow_bit(vma.prot))
                };
                (frame, flags, &FILE_MAPPED[..])
            }
        };
        self.install_page(pid, root, va, frame, flags, page_flags);
        Ok(())
    }

    /// Bulk-populate fast-forward: install up to `pages` fresh
    /// anonymous pages at `va` in one fused pass, charging exactly
    /// what that many [`populate_page`](Self::populate_page) calls
    /// would have. Proof obligations — anonymous backing, every page
    /// provably absent from the page tables
    /// ([`PageTables::absent_run`]), and the budget shared with the
    /// bulk-fault prover ([`fresh_run_budget`](Self::fresh_run_budget):
    /// no THP, DRAM-only placement, and enough free frames that no
    /// allocation would have triggered reclaim or failed mid-run).
    /// The pages go in through
    /// [`install_fresh_run`](Self::install_fresh_run). Returns the
    /// fused page count (`≥ 2`), or `None` to fall back to the
    /// per-page interpreter — which is charge-identical, merely slower
    /// on the host.
    ///
    /// The pass is free of host heap allocations: `mmap(populate)` is
    /// the drive of the host-memory self-observation figures, whose
    /// peak-heap numbers must not depend on the fast-forward engine.
    fn try_populate_run(&mut self, pid: Pid, va: VirtAddr, pages: u64, vma: Vma) -> Option<u64> {
        if !matches!(vma.backing, Backing::Anon) {
            return None;
        }
        let want = pages.min(self.fresh_run_budget()?);
        if want < 2 {
            return None;
        }
        let root = self.core.procs.get(pid)?.root;
        let stride = PAGE_SIZE as i64;
        let span = self.core.pt.absent_run(root, va, stride, want);
        if span < 2 {
            return None;
        }
        let flags = vma.prot.pte_flags();
        self.install_fresh_run(pid, root, va, stride, span, flags, |_, _, _, _, _, _| {});
        Some(span)
    }

    /// The preconditions both fresh-page provers share, and how many
    /// pages they may fuse. Base pages only (no THP) and one memory
    /// tier (true of every baseline machine; cheap to re-check) keep
    /// every page's install and zeroing charge uniform. No allocation
    /// in the run may dip below the reclaim watermark or come up
    /// empty: the j-th allocation starts with `free0 - j` frames free,
    /// so the whole run stays above the watermark iff
    /// `span ≤ free0 - watermark + 1` (and OOM-free iff `span ≤ free0`).
    /// Clamping hands the tail — and with it the reclaim/OOM
    /// behaviour — to the interpreter unchanged.
    fn fresh_run_budget(&self) -> Option<u64> {
        if self.thp != ThpMode::Never || self.core.machine.phys.nvm_frames() != 0 {
            return None;
        }
        let free0 = self.alloc.free_frames();
        if !self.swap_enabled {
            return Some(free0);
        }
        let headroom = free0.checked_sub(self.low_watermark)?;
        Some(free0.min(headroom + 1))
    }

    /// The installer both fresh-page provers share: for the `span`
    /// accesses `va`, `va + stride`, … (absence proven, budget
    /// clamped) allocate, zero and map one fresh anonymous base page
    /// each with leaf `flags`, write its `struct page` and LRU entry,
    /// and hand `per_page` the machine, the MMU, the frame, the access
    /// address, the buddy split count and the page-table nodes
    /// created. Then charge the zeroing, page-table and `struct page`
    /// work of all `span` pages in one block — committed state, no
    /// refusal past this point. Returns the last page installed.
    #[allow(clippy::too_many_arguments)]
    fn install_fresh_run(
        &mut self,
        pid: Pid,
        root: PtNodeId,
        va: VirtAddr,
        stride: i64,
        span: u64,
        flags: PteFlags,
        mut per_page: impl FnMut(&mut Machine, &mut Mmu, FrameNo, VirtAddr, u32, u64),
    ) -> VirtAddr {
        let swap_on = self.swap_enabled;
        let (mut at, mut last, mut nodes_total) = (va.0, va, 0u64);
        let BaselineKernel {
            core: KernelCore {
                machine, pt, mmu, ..
            },
            alloc,
            meta,
            lru,
            ..
        } = self;
        alloc
            .alloc_run_with(machine, span, |m, frame, splits| {
                let page = VirtAddr(at).page().base();
                m.phys.zero_frames(frame, 1);
                let nodes = pt
                    .map_uncharged(root, page, frame, PageSize::Base, flags)
                    .expect("absence proven for the whole run");
                nodes_total += nodes;
                if meta.add_mapping(frame, pid, page, &ANON_FAULTED) && swap_on {
                    lru.insert(frame);
                }
                per_page(m, mmu, frame, VirtAddr(at), splits, nodes);
                last = page;
                at = at.wrapping_add_signed(stride);
            })
            .expect("span clamped to free frames");
        machine.charge_zero_fg(MemTier::Dram, span * PAGE_SIZE);
        PageTables::charge_installs(machine, nodes_total, span);
        machine.charge_opn(CostKind::PageMetaUpdate, span);
        machine.perf.page_meta_updates += span;
        machine.note_ffwd_run(span);
        last
    }

    /// Allocate and map one 2 MiB huge page covering `va`, if the VMA
    /// fully covers the aligned region and a 512-frame block is
    /// available. Returns true on success.
    fn try_populate_huge(
        &mut self,
        pid: Pid,
        root: PtNodeId,
        va: VirtAddr,
        vma: &Vma,
    ) -> Result<bool, VmError> {
        let leaf_va = va.align_down(HUGE_2M);
        if leaf_va < vma.start || leaf_va + HUGE_2M > vma.end {
            return Ok(false);
        }
        // Any existing base mapping or swapped page in the region
        // forbids the huge mapping.
        let mut at = leaf_va;
        while at < leaf_va + HUGE_2M {
            if self.core.pt.lookup(root, at).is_some()
                || self.core.proc(pid)?.swapped.contains_key(&at.page().0)
            {
                return Ok(false);
            }
            at += PAGE_SIZE;
        }
        let Ok(ext) = self.alloc.alloc_order(&mut self.core.machine, 9) else {
            return Ok(false); // fragmentation: fall back to base pages
        };
        self.core.machine.charge_zero_fg(MemTier::Dram, HUGE_2M);
        self.core.machine.phys.zero_frames(ext.start, ext.frames);
        // Huge pages are not on the reclaim lists (they would need a
        // split first); splitting inserts the fragments.
        let head = [PageFlag::Head, PageFlag::Swapbacked, PageFlag::Uptodate];
        self.install_page(pid, root, leaf_va, ext.start, vma.prot.pte_flags(), &head);
        Ok(true)
    }

    /// The entry both fault kinds share: the trap, handler and
    /// VMA-lookup charges, then the VMA covering `va`. On a miss a
    /// page fault (`grow_stack`) may grow a stack: a fault just below
    /// a grow-down VMA (and above its limit) extends the region.
    /// Anything else is a SIGSEGV.
    #[inline]
    fn fault_vma(&mut self, pid: Pid, va: VirtAddr, grow_stack: bool) -> Result<Vma, VmError> {
        let machine = &mut self.core.machine;
        machine.charge_kind(CostKind::FaultTrap);
        machine.charge_kind(CostKind::FaultHandlerBase);
        machine.charge_kind(CostKind::VmaFind);
        if let Some(v) = self.core.proc(pid)?.vmas.find(va) {
            return Ok(*v);
        }
        if grow_stack {
            if let Some(grown) = self.try_grow_stack(pid, va)? {
                return Ok(grown);
            }
        }
        self.core.machine.perf.prot_faults += 1;
        Err(VmError::BadAddress)
    }

    fn page_fault(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<(), VmError> {
        let vma = self.fault_vma(pid, va, true)?;
        if access == Access::Write && !vma.prot.writable() {
            self.core.machine.perf.prot_faults += 1;
            return Err(VmError::ProtectionFault);
        }
        let vpage = va.page().0;
        if let Some(&slot) = self.core.proc(pid)?.swapped.get(&vpage) {
            self.core.machine.perf.major_faults += 1;
            self.core.proc_mut(pid)?.swapped.remove(&vpage);
            return self.swap_in_page(pid, va.page().base(), slot);
        }
        self.core.machine.perf.minor_faults += 1;
        self.populate_page(pid, va.page().base(), vma)?;
        // Fault-around: opportunistically populate the following pages
        // of the VMA without extra traps (Linux does this for file
        // mappings; configurable here for both).
        if self.fault_around > 1 {
            let root = self.core.proc(pid)?.root;
            for i in 1..u64::from(self.fault_around) {
                let next = va.page().base() + i * PAGE_SIZE;
                if next >= vma.end
                    || self.core.pt.lookup(root, next).is_some()
                    || self.core.proc(pid)?.swapped.contains_key(&next.page().0)
                {
                    continue;
                }
                self.populate_page(pid, next, vma)?;
            }
        }
        Ok(())
    }

    /// Handle a protection fault: break COW if applicable.
    fn protection_fault(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<(), VmError> {
        let vma = self.fault_vma(pid, va, false)?;
        let (root, asid) = self.core.procs.space(pid)?;
        let page_va = va.page().base();
        let cow_write = |t: &Translation| {
            access == Access::Write && t.flags.contains(PteFlags::COW) && vma.prot.writable()
        };
        let Some(t) = self.core.pt.lookup(root, page_va).filter(cow_write) else {
            self.core.machine.perf.prot_faults += 1;
            return Err(VmError::ProtectionFault);
        };
        self.core.machine.perf.minor_faults += 1;
        let old_frame = t.pa.frame();
        // The only mapper of a non-file page just upgrades in place;
        // anyone else gets a copy.
        let sole_owner = {
            let meta = self.meta.get(old_frame);
            meta.mapcount == 1 && !meta.test(PageFlag::Mappedtodisk)
        };
        let frame = if sole_owner {
            old_frame
        } else {
            let new_frame = self.alloc_frame()?;
            self.core.machine.charge_kind(CostKind::CopyPage);
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            self.core.machine.phys.read(old_frame.base(), &mut buf);
            self.core.machine.phys.write(new_frame.base(), &buf);
            new_frame
        };
        self.remap_leaf(root, page_va, |_, _| (frame, vma.prot.pte_flags()));
        let core = &mut self.core;
        core.mmu.invalidate_page(&mut core.machine, asid, page_va);
        if !sole_owner {
            // The old frame's update is not charged; the new one's is.
            if self.meta.remove_mapping(old_frame, pid, page_va) {
                self.release_frame(old_frame, PageSize::Base);
            }
            self.meta_map(frame, pid, page_va, &ANON_COPIED);
        }
        Ok(())
    }

    fn swap_in_page(&mut self, pid: Pid, va: VirtAddr, slot: SwapSlot) -> Result<(), VmError> {
        let p = self.core.proc(pid)?;
        let (root, vma) = (p.root, *p.vmas.find(va).ok_or(VmError::BadAddress)?);
        let frame = self.alloc_frame()?;
        let data = self.swap.swap_in(&mut self.core.machine, slot);
        self.core.machine.phys.put_frame_image(frame, data);
        self.install_page(pid, root, va, frame, vma.prot.pte_flags(), &ANON_COPIED);
        Ok(())
    }

    // ---- frame allocation & reclaim -----------------------------------------

    /// Allocate one zeroed frame, reclaiming when below the watermark.
    fn alloc_frame(&mut self) -> Result<FrameNo, VmError> {
        if self.alloc.free_frames() < self.low_watermark && self.swap_enabled {
            self.reclaim_until(self.low_watermark);
        }
        let ext = match self.alloc.alloc_one(&mut self.core.machine) {
            Ok(e) => e,
            Err(_) if self.swap_enabled => {
                self.reclaim_until(self.low_watermark.max(1));
                self.alloc
                    .alloc_one(&mut self.core.machine)
                    .map_err(|_| VmError::NoMemory)?
            }
            Err(_) => return Err(VmError::NoMemory),
        };
        // Baseline zeroes on the allocation critical path.
        self.core.machine.charge_zero_fg(MemTier::Dram, PAGE_SIZE);
        self.core.machine.phys.zero_frames(ext.start, 1);
        Ok(ext.start)
    }

    /// Run the reclaim scan until `target` frames are free or
    /// candidates are exhausted. Every examined page charges the scan
    /// cost — the linear burden the paper wants to delete.
    pub fn reclaim_until(&mut self, target: u64) -> u64 {
        let mut evicted = 0;
        let mut budget = 2 * self.lru.len() + 1;
        while self.alloc.free_frames() < target && budget > 0 {
            budget -= 1;
            let Some(frame) = self.lru.next_candidate() else {
                break;
            };
            self.core.machine.charge_kind(CostKind::ReclaimScanPage);
            self.core.machine.perf.reclaim_scanned += 1;
            let (pins, rmap) = {
                let meta = self.meta.get(frame);
                (meta.pins, meta.rmap.clone())
            };
            if pins > 0 || rmap.is_empty() {
                self.lru.verdict(frame, ScanDecision::Rotate);
                continue;
            }
            // Referenced anywhere → second chance.
            let mut referenced = false;
            for &(pid, va) in &rmap {
                if let Ok((root, _)) = self.core.procs.space(pid) {
                    if self.core.pt.test_and_clear_accessed(root, va) == Some(true) {
                        referenced = true;
                    }
                }
            }
            if referenced {
                self.lru.verdict(frame, ScanDecision::Rotate);
                continue;
            }
            // Evict.
            self.lru.verdict(frame, ScanDecision::Evict);
            let data = self.core.machine.phys.take_frame_image(frame);
            let slot = self.swap.swap_out(&mut self.core.machine, data);
            let mut round_asid = None;
            for (pid, va) in rmap {
                let Ok((root, asid)) = self.core.procs.space(pid) else {
                    continue;
                };
                round_asid.get_or_insert(asid);
                self.core.pt.unmap(&mut self.core.machine, root, va);
                let core = &mut self.core;
                core.mmu.invalidate_page(&mut core.machine, asid, va);
                if let Ok(p) = self.core.proc_mut(pid) {
                    p.swapped.insert(va.page().0, slot);
                }
            }
            // One closing shootdown round per evicted frame, keyed by
            // the first mapper's address space (shared frames notify
            // its responders; further mappers were already notified by
            // the per-page broadcasts above).
            match round_asid {
                Some(asid) => self.core.mmu.charge_shootdown(&mut self.core.machine, asid),
                None => self.core.machine.charge_shootdown(0),
            }
            self.release_frame(frame, PageSize::Base);
            evicted += 1;
        }
        self.poll_timeline();
        evicted
    }

    // ---- file I/O syscalls ---------------------------------------------------

    /// `read()`-style syscall: copy `buf.len()` bytes from a tmpfs
    /// file into the caller (kernel interposes on every byte — the
    /// path the paper contrasts with direct mapping, T-READ16K).
    pub fn file_read(&mut self, id: FileId, off: u64, buf: &mut [u8]) -> Result<(), VmError> {
        off.checked_add(buf.len() as u64).ok_or(VmError::BadRange)?;
        self.core.machine.charge_syscall();
        self.core.machine.charge_kind(CostKind::FileIoFixed);
        self.tmpfs
            .read(&mut self.core.machine, id, off, buf)
            .map_err(VmError::from)
    }

    /// `write()`-style syscall into a tmpfs file.
    pub fn file_write(&mut self, id: FileId, off: u64, data: &[u8]) -> Result<(), VmError> {
        off.checked_add(data.len() as u64)
            .ok_or(VmError::BadRange)?;
        self.core.machine.charge_syscall();
        self.core.machine.charge_kind(CostKind::FileIoFixed);
        let (machine, tmpfs, alloc) = (&mut self.core.machine, &mut self.tmpfs, &mut self.alloc);
        tmpfs
            .write(machine, alloc, id, off, data)
            .map_err(VmError::from)
    }

    /// `fallocate()`-style syscall: preallocate the pages backing
    /// `[off, off+bytes)` of a tmpfs file without writing data.
    pub fn file_allocate(&mut self, id: FileId, off: u64, bytes: u64) -> Result<(), VmError> {
        off.checked_add(bytes).ok_or(VmError::BadRange)?;
        self.core.machine.charge_syscall();
        self.core.machine.charge_kind(CostKind::FileIoFixed);
        let (machine, tmpfs, alloc) = (&mut self.core.machine, &mut self.tmpfs, &mut self.alloc);
        tmpfs
            .allocate_range(machine, alloc, id, off, bytes)
            .map_err(VmError::from)
    }

    /// Create a tmpfs file sized `bytes` (sparse).
    pub fn create_file(&mut self, name: &str, bytes: u64) -> Result<FileId, VmError> {
        self.core.machine.charge_syscall();
        let (machine, tmpfs, alloc) = (&mut self.core.machine, &mut self.tmpfs, &mut self.alloc);
        let id = tmpfs.create(machine, name).map_err(VmError::from)?;
        tmpfs
            .set_size(machine, alloc, id, bytes)
            .map_err(VmError::from)?;
        Ok(id)
    }

    // ---- pinning -------------------------------------------------------------

    /// Pin `[va, va+len)` for device access: faults everything in and
    /// marks each page unevictable. Linear per-page cost (the paper's
    /// "expensive per-page operations to ensure data remains in
    /// place").
    pub fn pin_range(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        self.core.machine.charge_syscall();
        let mut page_va = va;
        while page_va < end {
            let pa = self.resolve(pid, page_va, Access::Read)?;
            self.core.machine.charge_kind(CostKind::PinPage);
            let meta = self.meta.get_mut(pa.frame());
            meta.pins += 1;
            meta.set(PageFlag::Mlocked);
            meta.set(PageFlag::Unevictable);
            page_va += PAGE_SIZE;
        }
        Ok(())
    }

    /// Undo [`pin_range`](Self::pin_range).
    pub fn unpin_range(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        self.core.machine.charge_syscall();
        let mut page_va = va;
        while page_va < end {
            let pa = self.resolve(pid, page_va, Access::Read)?;
            self.core.machine.charge_kind(CostKind::PinPage);
            let meta = self.meta.get_mut(pa.frame());
            meta.pins = meta.pins.saturating_sub(1);
            if meta.pins == 0 {
                meta.clear(PageFlag::Mlocked);
                meta.clear(PageFlag::Unevictable);
            }
            page_va += PAGE_SIZE;
        }
        Ok(())
    }
}

impl KernelHooks for BaselineKernel {
    type Proc = BaselineProc;

    #[inline]
    fn core(&self) -> &KernelCore<BaselineProc> {
        &self.core
    }

    #[inline]
    fn core_mut(&mut self) -> &mut KernelCore<BaselineProc> {
        &mut self.core
    }

    #[inline]
    fn label(&self) -> &'static str {
        MECH
    }

    /// Translate `va`, handling faults (demand paging, COW, swap-in).
    #[inline]
    fn resolve(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<PhysAddr, VmError> {
        for _ in 0..4 {
            let (root, asid) = self.core.procs.space(pid)?;
            match self.core.mmu.translate(
                &mut self.core.machine,
                &mut self.core.pt,
                root,
                &self.no_ranges,
                asid,
                va,
                access,
            ) {
                Ok(t) => return Ok(t.pa),
                Err(TranslateError::NotMapped) => self.page_fault(pid, va, access)?,
                Err(TranslateError::Protection) => self.protection_fault(pid, va, access)?,
            }
        }
        unreachable!("fault handler did not make progress at {va:?}")
    }

    fn alloc_region(&mut self, pid: Pid, bytes: u64, populate: bool) -> Result<VirtAddr, VmError> {
        let flags = if populate {
            MapFlags::private_populate()
        } else {
            MapFlags::private()
        };
        self.mmap(pid, bytes, Prot::ReadWrite, Backing::Anon, flags)
    }

    fn release_region(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError> {
        self.munmap(pid, va, bytes)
    }

    /// Unmap everything (page by page — the baseline's linear exit
    /// cost), lowest VMA first, and drop the process's swap slots.
    fn teardown(&mut self, pid: Pid) -> Result<(), VmError> {
        loop {
            let vmas = &self.core.proc(pid)?.vmas;
            let Some((start, len)) = vmas.iter().next().map(|v| (v.start, v.len())) else {
                break;
            };
            self.unmap_region(pid, start, len)?;
        }
        let swapped = std::mem::take(&mut self.core.proc_mut(pid)?.swapped);
        for (_, slot) in swapped {
            self.swap.discard(slot);
        }
        Ok(())
    }

    fn gauges(&self, g: &mut Vec<(&'static str, u64)>) {
        g.push(("kernel.free_frames", self.alloc.free_frames()));
        g.push(("kernel.swap_used_slots", self.swap.used_slots() as u64));
        g.push(("kernel.lru_tracked", self.lru.len() as u64));
    }

    /// The MMU proves the run hits one resident TLB entry
    /// ([`Mmu::translate_run`](o1_hw::Mmu::translate_run)).
    #[inline]
    fn hit_run(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        access: Access,
    ) -> Result<Option<(PhysAddr, u64)>, VmError> {
        let (root, asid) = self.core.procs.space(pid)?;
        let core = &mut self.core;
        Ok(core.mmu.translate_run(
            &mut core.machine,
            &mut core.pt,
            root,
            asid,
            va,
            stride,
            len,
            access,
        ))
    }

    /// Bulk-fault fast-forward — the dual of [`Mmu::translate_run`](o1_hw::Mmu::translate_run)'s
    /// hit span: prove that the next `len` accesses of the run all
    /// miss translation and demand-fault fresh anonymous base pages
    /// with a uniform outcome, then install every mapping through the
    /// installer it shares with bulk populate (`install_fresh_run`)
    /// and replay the aggregate charges of `span` interpreted faults
    /// in O(1) charge calls (plus the O(span) state writes the
    /// interpreter would also make).
    ///
    /// Proof obligations, checked before anything is charged or
    /// mutated:
    ///
    /// * no fault-around;
    /// * no THP, one memory tier, and no allocation that would
    ///   trigger reclaim or OOM (`fresh_run_budget`, shared with bulk
    ///   populate);
    /// * the faulting process has no pages in swap (a swap slot would
    ///   turn a minor fault into a major one mid-run);
    /// * one protection-uniform anonymous VMA covers the whole fused
    ///   prefix (clamped via [`span_within`]), and a write run is
    ///   permitted by it — a protection error falls back so the
    ///   interpreter raises it with exact charges;
    /// * no translation is installed anywhere in the run
    ///   ([`PageTables::absent_run`], shared with bulk populate) and
    ///   no unobserved invalidation overlaps it
    ///   ([`Mmu::translate_miss_run`](o1_hw::Mmu::translate_miss_run)).
    ///
    /// Fault latencies within a run are *not* uniform — buddy splits
    /// and page-table node creation vary page to page — so the ledger
    /// records groups of equal-latency `AccessFault` ops
    /// ([`Machine::op_record_n`](o1_hw::Machine::op_record_n)) whose
    /// per-op cost is reconstructed from the cost model; a debug
    /// assertion checks the records sum exactly to the clock advance.
    /// Returns the fused access count (`≥ 2`), or `None` to interpret
    /// at least one access.
    fn miss_run(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        write: bool,
        first_value: u64,
        t0: o1_hw::SimNs,
    ) -> Option<u64> {
        if self.fault_around != 1 {
            return None;
        }
        let budget = self.fresh_run_budget()?;
        let (root, asid, vma_start, vma_end, prot) = {
            let p = self.core.procs.get(pid)?;
            if !p.swapped.is_empty() {
                return None;
            }
            let vma = p.vmas.find(va)?;
            if !matches!(vma.backing, Backing::Anon) {
                return None;
            }
            if write && !vma.prot.writable() {
                return None;
            }
            (p.root, p.asid, vma.start.0, vma.end.0, vma.prot)
        };
        let len = span_within(va.0, stride, len, vma_start, vma_end).min(budget);
        if len < 2 {
            return None;
        }
        let span = self
            .core
            .mmu
            .translate_miss_run(&self.core.pt, root, asid, va, stride, len)?;
        // Committed: everything below is infallible. Per page, the
        // interpreter's sequence is: two failing translates (each one
        // TLB-aging lookup and one full-depth walk), the fault-handler
        // entry charges, a buddy allocation + zero, the page-table
        // install, the `struct page` update, the TLB fill of the
        // walked (pre-A/D) flags, and the data access itself. State
        // writes happen per page below; charges land once, after.
        let walk_flags = prot.pte_flags();
        let leaf_flags = if write {
            // `map` writes the PTE, then `mark_accessed` sets A/D in
            // place charge-free — fused into one leaf write here.
            walk_flags.union(PteFlags::ACCESSED).union(PteFlags::DIRTY)
        } else {
            walk_flags.union(PteFlags::ACCESSED)
        };
        let refs = self.core.mmu.walk_mode.refs(PT_LEVELS);
        let traced = self.core.machine.traced();
        let (ns_fixed, ns_split, ns_node) = if traced {
            let u = |k: CostKind| self.core.machine.cost.unit(k);
            (
                2 * refs * u(CostKind::PtwLevelRef)
                    + u(CostKind::FaultTrap)
                    + u(CostKind::FaultHandlerBase)
                    + u(CostKind::VmaFind)
                    + u(CostKind::BuddyAlloc)
                    + u(CostKind::ZeroPageDram)
                    + u(CostKind::PteWrite)
                    + u(CostKind::PageMetaUpdate)
                    + u(CostKind::TlbFill)
                    + if write {
                        u(CostKind::MemWriteDram)
                    } else {
                        u(CostKind::MemReadDram)
                    },
                u(CostKind::BuddyLevel),
                u(CostKind::PtNodeAlloc) + u(CostKind::PteWrite),
            )
        } else {
            (0, 0, 0)
        };
        let mut idx = 0u64;
        // Latency grouping: consecutive pages with equal (splits,
        // nodes-created) cost the same, so they compress into one
        // ledger record — scalar accumulators only, no host heap.
        let mut grp = (u32::MAX, u64::MAX);
        let (mut grp_ns, mut grp_cnt, mut recorded) = (0u64, 0u64, 0u64);
        let last_page = self.install_fresh_run(
            pid,
            root,
            va,
            stride,
            span,
            leaf_flags,
            |m, mmu, frame, a, splits, nodes| {
                // Two failing lookups age the whole TLB before the
                // fill's own tick stamps the new entry.
                let tlb = mmu.tlb_mut();
                tlb.advance_ticks(2);
                tlb.insert(asid, a, frame, PageSize::Base, walk_flags);
                if write {
                    let pa = PhysAddr(frame.base().0 + (a.0 & (PAGE_SIZE - 1)));
                    m.phys.write_u64(pa, first_value + idx);
                }
                if traced {
                    let key = (splits, nodes);
                    if key == grp {
                        grp_cnt += 1;
                    } else {
                        if grp_cnt > 0 {
                            m.op_record_n(OpKind::AccessFault, MECH, grp_ns, grp_cnt);
                            recorded += grp_ns * grp_cnt;
                        }
                        grp = key;
                        grp_cnt = 1;
                        grp_ns = ns_fixed + u64::from(splits) * ns_split + nodes * ns_node;
                    }
                }
                idx += 1;
            },
        );
        let KernelCore {
            machine, pt, mmu, ..
        } = &mut self.core;
        if traced && grp_cnt > 0 {
            machine.op_record_n(OpKind::AccessFault, MECH, grp_ns, grp_cnt);
            recorded += grp_ns * grp_cnt;
        }
        // Aggregate replay of the interpreter's per-fault charges (the
        // buddy charges landed inside the installer's allocation, the
        // zeroing, page-table and `struct page` charges at its end).
        machine.perf.tlb_misses += 2 * span;
        machine.perf.page_walks += 2 * span;
        machine.charge_opn(CostKind::PtwLevelRef, 2 * span * refs);
        machine.charge_opn(CostKind::FaultTrap, span);
        machine.charge_opn(CostKind::FaultHandlerBase, span);
        machine.charge_opn(CostKind::VmaFind, span);
        machine.perf.minor_faults += span;
        machine.charge_opn(CostKind::TlbFill, span);
        if write {
            machine.perf.stores += span;
            machine.charge_opn(CostKind::MemWriteDram, span);
        } else {
            machine.perf.loads += span;
            machine.charge_opn(CostKind::MemReadDram, span);
        }
        mmu.replay_fault_run_walk_cache(pt, root, last_page);
        debug_assert!(
            !traced || recorded == machine.now().since(t0),
            "bulk-fault replay must conserve the clock"
        );
        self.poll_timeline();
        Some(span)
    }
}

impl BaselineKernel {
    /// Device DMA from `[va, va+len)`. Pages the caller pinned stream
    /// at device rate; unpinned pages go through the faulting IOMMU
    /// path — "even devices that support page faults through an IOMMU
    /// incur high penalties" (§3.1). Returns pages transferred.
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
            let pinned = self.meta.get(pa.frame()).pins > 0;
            let mode = if pinned {
                o1_hw::DmaMode::Pinned
            } else {
                o1_hw::DmaMode::IommuFaulting
            };
            pages += dma.transfer(&mut self.core.machine, pa, PAGE_SIZE, mode);
            at += PAGE_SIZE;
        }
        Ok(pages)
    }
}

/// End of `[va, va+len)` rounded out to whole pages, or
/// [`VmError::BadRange`] when `len` exceeds [`MAX_MAP_BYTES`] or the end
/// does not fit in the address space.
pub fn span_end(va: VirtAddr, len: u64) -> Result<VirtAddr, VmError> {
    if len > MAX_MAP_BYTES {
        return Err(VmError::BadRange);
    }
    va.0.checked_add(o1_hw::round_up_pages(len))
        .map(VirtAddr)
        .ok_or(VmError::BadRange)
}

/// `struct page` flags of an anonymous page faulted or populated fresh.
const ANON_FAULTED: [PageFlag; 3] = [PageFlag::Swapbacked, PageFlag::Lru, PageFlag::Uptodate];

/// `struct page` flags of an anonymous page filled from a copy: a COW
/// break or a swap-in.
const ANON_COPIED: [PageFlag; 2] = [PageFlag::Swapbacked, PageFlag::Uptodate];

/// `struct page` flags of a file page mapped from the page cache.
const FILE_MAPPED: [PageFlag; 2] = [PageFlag::Mappedtodisk, PageFlag::Uptodate];

/// COW marker for a private mapping that will become writable.
fn cow_bit(prot: Prot) -> PteFlags {
    if prot.writable() {
        PteFlags::COW
    } else {
        PteFlags::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> BaselineKernel {
        BaselineKernel::builder().dram(64 << 20).build()
    }

    #[test]
    fn process_table_exhaustion_is_an_error() {
        let mut k = kernel();
        let first = k.create_process().unwrap();
        // Drain the remaining 16-bit ASID space without the expense of
        // booting 65534 processes.
        while k.core.alloc_pid().is_ok() {}
        assert_eq!(k.create_process(), Err(VmError::ProcessLimit));
        assert_eq!(k.fork(first), Err(VmError::ProcessLimit));
        assert_eq!(
            k.launch_process(PAGE_SIZE, PAGE_SIZE, PAGE_SIZE, false),
            Err(VmError::ProcessLimit)
        );
        // Destroying a process recycles its ASID: creation works again
        // (the recycled grant is flushed — PCID rollover semantics).
        k.destroy_process(first).unwrap();
        let again = k.create_process().unwrap();
        assert!(again > first, "pids stay monotonic across recycling");
        assert_eq!(k.create_process(), Err(VmError::ProcessLimit));
    }

    #[test]
    fn anon_demand_mapping_faults_per_page() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                16 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        assert_eq!(k.machine().perf.minor_faults, 0);
        for i in 0..16 {
            k.store(pid, va + i * PAGE_SIZE, i).unwrap();
        }
        assert_eq!(k.machine().perf.minor_faults, 16);
        for i in 0..16 {
            assert_eq!(k.load(pid, va + i * PAGE_SIZE).unwrap(), i);
        }
        assert_eq!(k.machine().perf.minor_faults, 16, "no faults on re-access");
    }

    #[test]
    fn populate_mapping_never_faults() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                16 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        for i in 0..16 {
            k.store(pid, va + i * PAGE_SIZE, i).unwrap();
        }
        assert_eq!(k.machine().perf.minor_faults, 0);
    }

    #[test]
    fn mmap_private_is_constant_populate_is_linear() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let t = |k: &mut BaselineKernel, pages: u64, populate: bool| {
            let flags = if populate {
                MapFlags::private_populate()
            } else {
                MapFlags::private()
            };
            let t0 = k.machine().now();
            k.mmap(
                pid,
                pages * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                flags,
            )
            .unwrap();
            k.machine().now().since(t0)
        };
        let private_small = t(&mut k, 4, false);
        let private_large = t(&mut k, 1024, false);
        assert_eq!(private_small, private_large, "MAP_PRIVATE is O(1)");
        let pop_small = t(&mut k, 64, true);
        let pop_large = t(&mut k, 1024, true);
        assert!(
            pop_large > 10 * pop_small,
            "MAP_POPULATE is linear: {pop_small} vs {pop_large}"
        );
    }

    #[test]
    fn unmapped_access_is_sigsegv() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        assert_eq!(k.load(pid, VirtAddr(0x123000)), Err(VmError::BadAddress));
        assert_eq!(k.machine().perf.prot_faults, 1);
    }

    #[test]
    fn write_to_readonly_is_protection_fault() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                PAGE_SIZE,
                Prot::Read,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        assert_eq!(k.load(pid, va).unwrap(), 0);
        assert_eq!(k.store(pid, va, 1), Err(VmError::ProtectionFault));
    }

    #[test]
    fn munmap_frees_frames() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let before = k.free_frames();
        let va = k
            .mmap(
                pid,
                64 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        assert_eq!(k.free_frames(), before - 64);
        k.munmap(pid, va, 64 * PAGE_SIZE).unwrap();
        assert_eq!(k.free_frames(), before);
        assert_eq!(k.load(pid, va), Err(VmError::BadAddress));
    }

    #[test]
    fn partial_munmap_splits_vma() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                8 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        k.munmap(pid, va + 2 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 2);
        assert!(k.load(pid, va).is_ok());
        assert_eq!(k.load(pid, va + 2 * PAGE_SIZE), Err(VmError::BadAddress));
        assert!(k.load(pid, va + 4 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn file_shared_mapping_reads_file_data() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let id = k.create_file("data", 4 * PAGE_SIZE).unwrap();
        k.file_write(id, 0, &42u64.to_le_bytes()).unwrap();
        let va = k
            .mmap(
                pid,
                4 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::File { id, offset: 0 },
                MapFlags::shared(),
            )
            .unwrap();
        assert_eq!(k.load(pid, va).unwrap(), 42);
        // Writes through the mapping are visible via read().
        k.store(pid, va + 8, 99).unwrap();
        let mut buf = [0u8; 8];
        k.file_read(id, 8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 99);
    }

    #[test]
    fn failed_file_mmap_takes_no_reference() {
        let mut k = kernel();
        let free0 = k.free_frames();
        let gone = k.create_process().unwrap();
        k.destroy_process(gone).unwrap();
        let id = k.create_file("data", 4 * PAGE_SIZE).unwrap();
        k.file_allocate(id, 0, 4 * PAGE_SIZE).unwrap();
        assert!(k.free_frames() < free0);
        let backing = Backing::File { id, offset: 0 };
        let mapped = k.mmap(gone, PAGE_SIZE, Prot::Read, backing, MapFlags::shared());
        assert_eq!(mapped, Err(VmError::NoProcess));
        // Unlinking an unreferenced file destroys it at once.
        let (machine, tmpfs, alloc) = (&mut k.core.machine, &mut k.tmpfs, &mut k.alloc);
        tmpfs.unlink(machine, alloc, "data").unwrap();
        assert!(k.tmpfs.file(id).is_err());
        assert_eq!(k.free_frames(), free0);
    }

    #[test]
    fn file_private_mapping_is_cow() {
        let mut k = kernel();
        let p1 = k.create_process().unwrap();
        let p2 = k.create_process().unwrap();
        let id = k.create_file("shared", PAGE_SIZE).unwrap();
        k.file_write(id, 0, &7u64.to_le_bytes()).unwrap();
        let f = Backing::File { id, offset: 0 };
        let va1 = k
            .mmap(p1, PAGE_SIZE, Prot::ReadWrite, f, MapFlags::private())
            .unwrap();
        let va2 = k
            .mmap(p2, PAGE_SIZE, Prot::ReadWrite, f, MapFlags::private())
            .unwrap();
        assert_eq!(k.load(p1, va1).unwrap(), 7);
        assert_eq!(k.load(p2, va2).unwrap(), 7);
        // P1 writes privately; P2 and the file are unaffected.
        k.store(p1, va1, 100).unwrap();
        assert_eq!(k.load(p1, va1).unwrap(), 100);
        assert_eq!(k.load(p2, va2).unwrap(), 7);
        let mut buf = [0u8; 8];
        k.file_read(id, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn fork_is_copy_on_write() {
        let mut k = kernel();
        let parent = k.create_process().unwrap();
        let va = k
            .mmap(
                pid_of(parent),
                4 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        for i in 0..4 {
            k.store(parent, va + i * PAGE_SIZE, 10 + i).unwrap();
        }
        let frames_before = k.free_frames();
        let child = k.fork(parent).unwrap();
        // Fork itself copies nothing.
        assert_eq!(k.free_frames(), frames_before);
        for i in 0..4 {
            assert_eq!(k.load(child, va + i * PAGE_SIZE).unwrap(), 10 + i);
        }
        // Child write triggers a copy; parent unaffected.
        k.store(child, va, 999).unwrap();
        assert_eq!(k.free_frames(), frames_before - 1);
        assert_eq!(k.load(parent, va).unwrap(), 10);
        assert_eq!(k.load(child, va).unwrap(), 999);
        // Parent write to another page also copies... and after the
        // copy the sole owner is upgraded in place.
        k.store(parent, va + PAGE_SIZE, 555).unwrap();
        assert_eq!(k.load(child, va + PAGE_SIZE).unwrap(), 11);
    }

    fn pid_of(p: Pid) -> Pid {
        p
    }

    #[test]
    fn destroy_process_releases_everything() {
        let mut k = kernel();
        let before_frames = k.free_frames();
        let before_nodes = k.pt_metadata_bytes();
        let pid = k.create_process().unwrap();
        k.mmap(
            pid,
            32 * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private_populate(),
        )
        .unwrap();
        k.destroy_process(pid).unwrap();
        assert_eq!(k.free_frames(), before_frames);
        assert_eq!(k.pt_metadata_bytes(), before_nodes);
        assert_eq!(k.load(pid, VirtAddr(MMAP_BASE)), Err(VmError::NoProcess));
    }

    #[test]
    fn reclaim_swaps_out_and_faults_back() {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 96 * PAGE_SIZE,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 8,
            swap_enabled: true,
            thp: ThpMode::Never,
            fault_around: 1,
        });
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                200 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        // Touch more pages than physical memory holds.
        for i in 0..180u64 {
            k.store(pid, va + i * PAGE_SIZE, 1000 + i).unwrap();
        }
        assert!(
            k.machine().perf.pages_swapped_out > 0,
            "pressure forced swap"
        );
        // All data survives (major faults bring it back).
        for i in 0..180u64 {
            assert_eq!(
                k.load(pid, va + i * PAGE_SIZE).unwrap(),
                1000 + i,
                "page {i}"
            );
        }
        assert!(k.machine().perf.major_faults > 0);
        assert!(k.machine().perf.reclaim_scanned > 0);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 64 * PAGE_SIZE,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 4,
            swap_enabled: true,
            thp: ThpMode::Never,
            fault_around: 1,
        });
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                100 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        k.store(pid, va, 42).unwrap();
        k.pin_range(pid, va, PAGE_SIZE).unwrap();
        let swapped_before = k.machine().perf.pages_swapped_out;
        for i in 1..100u64 {
            k.store(pid, va + i * PAGE_SIZE, i).unwrap();
        }
        assert!(k.machine().perf.pages_swapped_out > swapped_before);
        // The pinned page never left memory: reading it causes no
        // major fault.
        let major_before = k.machine().perf.major_faults;
        assert_eq!(k.load(pid, va).unwrap(), 42);
        assert_eq!(k.machine().perf.major_faults, major_before);
    }

    /// Copy-on-write breaks while reclaim swaps shared frames out: the
    /// `struct page` records stay consistent and no data is lost.
    #[test]
    fn cow_break_under_memory_pressure() {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 96 * PAGE_SIZE,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 8,
            swap_enabled: true,
            thp: ThpMode::Never,
            fault_around: 1,
        });
        let parent = k.create_process().unwrap();
        let len = 80 * PAGE_SIZE;
        let va = k
            .mmap(
                parent,
                len,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        for i in 0..80u64 {
            k.store(parent, va + i * PAGE_SIZE, 100 + i).unwrap();
        }
        let child = k.fork(parent).unwrap();
        for i in 0..80u64 {
            k.store(child, va + i * PAGE_SIZE, 500 + i).unwrap();
            k.check_consistency().unwrap();
        }
        for i in 0..80u64 {
            assert_eq!(
                k.load(parent, va + i * PAGE_SIZE).unwrap(),
                100 + i,
                "parent {i}"
            );
            assert_eq!(
                k.load(child, va + i * PAGE_SIZE).unwrap(),
                500 + i,
                "child {i}"
            );
        }
        assert!(
            k.machine().perf.pages_swapped_out > 0,
            "pressure forced swap"
        );
        k.check_consistency().unwrap();
        k.destroy_process(child).unwrap();
        k.destroy_process(parent).unwrap();
        k.check_consistency().unwrap();
    }

    #[test]
    fn mprotect_changes_permissions() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                4 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        k.store(pid, va, 5).unwrap();
        k.mprotect(pid, va, PAGE_SIZE, Prot::Read).unwrap();
        assert_eq!(k.store(pid, va, 6), Err(VmError::ProtectionFault));
        assert_eq!(k.load(pid, va).unwrap(), 5);
        k.mprotect(pid, va, PAGE_SIZE, Prot::ReadWrite).unwrap();
        k.store(pid, va, 6).unwrap();
        assert_eq!(k.load(pid, va).unwrap(), 6);
    }

    #[test]
    fn madvise_dontneed_drops_and_rezeros() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                2 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        k.store(pid, va, 77).unwrap();
        let free_before = k.free_frames();
        k.madvise_dontneed(pid, va, PAGE_SIZE).unwrap();
        assert_eq!(k.free_frames(), free_before + 1);
        // Next touch demand-zero-faults a fresh page.
        assert_eq!(k.load(pid, va).unwrap(), 0);

        // Under pressure most of the pages sit in swap: DONTNEED drops
        // those too, and returns their slots.
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 96 * PAGE_SIZE,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 8,
            swap_enabled: true,
            thp: ThpMode::Never,
            fault_around: 1,
        });
        let pid = k.create_process().unwrap();
        let len = 180 * PAGE_SIZE;
        let va = k
            .mmap(
                pid,
                len,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        for i in 0..180u64 {
            k.store(pid, va + i * PAGE_SIZE, 1000 + i).unwrap();
        }
        assert!(k.swap.used_slots() > 0, "pressure forced swap");
        k.madvise_dontneed(pid, va, len).unwrap();
        assert_eq!(k.swap.used_slots(), 0, "swap slots discarded");
        k.check_consistency().unwrap();
        for i in 0..180u64 {
            assert_eq!(k.load(pid, va + i * PAGE_SIZE).unwrap(), 0, "page {i}");
        }
        k.check_consistency().unwrap();
    }

    #[test]
    fn file_read_syscall_charges_copies() {
        let mut k = kernel();
        let id = k.create_file("f", 16 * 1024).unwrap();
        k.file_write(id, 0, &[1u8; 16 * 1024]).unwrap();
        let mut buf = vec![0u8; 16 * 1024];
        let t0 = k.machine().now();
        k.file_read(id, 0, &mut buf).unwrap();
        let ns = k.machine().now().since(t0);
        let u = |kind| k.machine().cost.unit(kind);
        assert_eq!(
            ns,
            u(CostKind::Syscall) + u(CostKind::FileIoFixed) + 4 * u(CostKind::CopyPage),
            "16KB = 4 page copies"
        );
    }

    #[test]
    fn launch_process_segments() {
        let mut k = kernel();
        let pid = k
            .launch_process(1 << 20, 1 << 20, 256 * 1024, false)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 3, "code/heap/stack distinct");
        k.destroy_process(pid).unwrap();
    }

    #[test]
    fn oom_without_swap_errors() {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 16 * PAGE_SIZE,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 0,
            swap_enabled: false,
            thp: ThpMode::Never,
            fault_around: 1,
        });
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                64 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        let mut failed = false;
        for i in 0..64u64 {
            if k.store(pid, va + i * PAGE_SIZE, i).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "must OOM without swap");
    }

    fn thp_kernel(mode: ThpMode) -> BaselineKernel {
        BaselineKernel::new(BaselineConfig {
            dram_bytes: 64 << 20,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 0,
            swap_enabled: false,
            thp: mode,
            fault_around: 1,
        })
    }

    #[test]
    fn thp_populates_huge_pages_in_one_fault() {
        let mut k = thp_kernel(ThpMode::Aligned2M);
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                4 * HUGE_2M,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        assert!(va.is_aligned(HUGE_2M), "huge-eligible VMAs are aligned");
        // Touch every page of 8 MiB: only 4 faults (one per huge page).
        for p in 0..(4 * 512u64) {
            k.store(pid, va + p * PAGE_SIZE, p).unwrap();
        }
        assert_eq!(k.machine().perf.minor_faults, 4, "one fault per 2 MiB");
        for p in 0..(4 * 512u64) {
            assert_eq!(k.load(pid, va + p * PAGE_SIZE).unwrap(), p);
        }
        let free_before = k.free_frames();
        k.munmap(pid, va, 4 * HUGE_2M).unwrap();
        assert_eq!(k.free_frames(), free_before + 4 * 512);
    }

    #[test]
    fn thp_falls_back_for_small_mappings() {
        let mut k = thp_kernel(ThpMode::Aligned2M);
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                16 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        for p in 0..16u64 {
            k.store(pid, va + p * PAGE_SIZE, p).unwrap();
        }
        assert_eq!(k.machine().perf.minor_faults, 16, "too small for huge");
    }

    #[test]
    fn greedy_huge_trades_space_for_time() {
        // The paper's §1 thought experiment: 300 KB requested, 2 MiB
        // spent, far fewer per-page operations.
        let mut base = thp_kernel(ThpMode::Never);
        let mut greedy = thp_kernel(ThpMode::GreedyHuge);
        let req = 300 << 10; // 300 KB
        let pages = o1_hw::pages_for(req);
        let mut times = Vec::new();
        for k in [&mut base, &mut greedy] {
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            let va = k
                .mmap(
                    pid,
                    req,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private(),
                )
                .unwrap();
            for p in 0..pages {
                k.store(pid, va + p * PAGE_SIZE, p).unwrap();
            }
            times.push(k.machine().now().since(t0));
        }
        // Huge pages eliminate 73 of 74 faults, but the win saturates
        // near ~1.7x because *zeroing* the 2 MiB stays linear — the
        // very interaction that motivates the paper's O(1)-erase
        // section (quantified in the A-THP ablation).
        assert!(
            times[1] * 10 < times[0] * 7,
            "greedy huge saves time: {} vs {}",
            times[0],
            times[1]
        );
        assert_eq!(base.space_overhead_bytes(), 0);
        assert_eq!(
            greedy.space_overhead_bytes(),
            HUGE_2M - o1_hw::round_up_pages(req),
            "the wasted space is accounted"
        );
    }

    #[test]
    fn partial_munmap_splits_huge_in_place() {
        let mut k = thp_kernel(ThpMode::Aligned2M);
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                HUGE_2M,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        for p in 0..512u64 {
            k.store(pid, va + p * PAGE_SIZE, 7000 + p).unwrap();
        }
        assert_eq!(k.machine().perf.minor_faults, 0);
        // Unmap the middle quarter: the huge page splits, data in the
        // kept parts survives (in place, no copying).
        let free_before = k.free_frames();
        k.munmap(pid, va + 128 * PAGE_SIZE, 128 * PAGE_SIZE)
            .unwrap();
        for p in 0..128u64 {
            assert_eq!(k.load(pid, va + p * PAGE_SIZE).unwrap(), 7000 + p);
        }
        for p in 256..512u64 {
            assert_eq!(k.load(pid, va + p * PAGE_SIZE).unwrap(), 7000 + p);
        }
        assert_eq!(k.load(pid, va + 128 * PAGE_SIZE), Err(VmError::BadAddress));
        // The block is only partially free: no frames returned yet
        // (fragments pin the order-9 block).
        assert_eq!(k.free_frames(), free_before);
        // Freeing the rest returns the whole block at once.
        k.munmap(pid, va, 128 * PAGE_SIZE).unwrap();
        k.munmap(pid, va + 256 * PAGE_SIZE, 256 * PAGE_SIZE)
            .unwrap();
        assert_eq!(k.free_frames(), free_before + 512);
    }

    #[test]
    fn fork_of_huge_mappings_splits_then_cows() {
        let mut k = thp_kernel(ThpMode::Aligned2M);
        let parent = k.create_process().unwrap();
        let va = k
            .mmap(
                parent,
                HUGE_2M,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        k.store(parent, va, 111).unwrap();
        let child = k.fork(parent).unwrap();
        assert_eq!(k.load(child, va).unwrap(), 111);
        k.store(child, va, 222).unwrap();
        assert_eq!(k.load(parent, va).unwrap(), 111);
        assert_eq!(k.load(child, va).unwrap(), 222);
    }

    #[test]
    fn fault_around_cuts_fault_count() {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 64 << 20,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 0,
            swap_enabled: false,
            thp: ThpMode::Never,
            fault_around: 16,
        });
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                256 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        for p in 0..256u64 {
            k.store(pid, va + p * PAGE_SIZE, p).unwrap();
        }
        assert_eq!(
            k.machine().perf.minor_faults,
            256 / 16,
            "one trap per 16 pages"
        );
        for p in 0..256u64 {
            assert_eq!(k.load(pid, va + p * PAGE_SIZE).unwrap(), p);
        }
    }

    #[test]
    fn stack_grows_down_on_demand() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let top = k.map_stack(pid, 16 * PAGE_SIZE, 1 << 20).unwrap();
        // Initial extent is usable.
        k.store(pid, top - 8u64, 1).unwrap();
        k.store(pid, top - 16 * PAGE_SIZE, 2).unwrap();
        // Push below the initial extent: grows transparently.
        let deep = top - 200 * PAGE_SIZE;
        k.store(pid, deep, 3).unwrap();
        assert_eq!(k.load(pid, deep).unwrap(), 3);
        // All the way to the limit works...
        let deepest = top - (1u64 << 20);
        k.store(pid, deepest, 4).unwrap();
        // ...but the guard page below the limit faults.
        assert_eq!(
            k.store(pid, deepest - PAGE_SIZE, 5),
            Err(VmError::BadAddress),
            "guard page catches overflow"
        );
    }

    #[test]
    fn stack_growth_does_not_swallow_neighbours() {
        let mut k = kernel();
        let pid = k.create_process().unwrap();
        let top = k.map_stack(pid, PAGE_SIZE, 64 * PAGE_SIZE).unwrap();
        // A far-away unmapped address is still a SIGSEGV.
        assert_eq!(k.load(pid, VirtAddr(0xdead_0000)), Err(VmError::BadAddress));
        // Ordinary VMAs never grow.
        let va = k
            .mmap(
                pid,
                4 * PAGE_SIZE,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private(),
            )
            .unwrap();
        assert_eq!(
            k.load(pid, va - PAGE_SIZE),
            Err(VmError::BadAddress),
            "guard gap below a normal mapping"
        );
        let _ = top;
    }

    #[test]
    fn mprotect_keeps_interior_huge_pages() {
        let mut k = thp_kernel(ThpMode::Aligned2M);
        let pid = k.create_process().unwrap();
        let va = k
            .mmap(
                pid,
                2 * HUGE_2M,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        k.store(pid, va, 5).unwrap();
        // Whole-huge-page mprotect: stays huge, becomes read-only.
        k.mprotect(pid, va, HUGE_2M, Prot::Read).unwrap();
        assert_eq!(k.store(pid, va, 6), Err(VmError::ProtectionFault));
        assert_eq!(k.load(pid, va).unwrap(), 5);
        k.mprotect(pid, va, HUGE_2M, Prot::ReadWrite).unwrap();
        k.store(pid, va, 6).unwrap();
        // Sub-huge mprotect forces a split but keeps data.
        k.store(pid, va + HUGE_2M, 77).unwrap();
        k.mprotect(pid, va + HUGE_2M, 4 * PAGE_SIZE, Prot::Read)
            .unwrap();
        assert_eq!(k.load(pid, va + HUGE_2M).unwrap(), 77);
        assert_eq!(
            k.store(pid, va + HUGE_2M, 78),
            Err(VmError::ProtectionFault)
        );
        assert!(k.store(pid, va + HUGE_2M + 4 * PAGE_SIZE, 79).is_ok());
    }
}
