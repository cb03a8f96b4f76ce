//! The mechanism seam: every mapping-mechanism decision in one enum.
//!
//! [`FomKernel`](crate::fom::FomKernel) owns the machinery every
//! mechanism shares — syscall charging, file lifetime, crypto-erase,
//! op spans — and delegates the per-mechanism decisions (where a file
//! lands in the address space, how each extent is installed and torn
//! down, how a VA translates) to a [`Mechanism`]: one variant per
//! [`MapMech`], each carrying that mechanism's state (shared-subtree
//! registries, the Utopia fast region, OBASE residency). This module
//! is the only one that matches on it.
//!
//! ## Contract
//!
//! * `translate` must charge exactly what the simulated hardware
//!   would for every access of the span it returns (1 unless the MMU
//!   proved a TLB-hit span, which may cross into the batch's
//!   following runs), and charge nothing for a pid that is not live.
//!   A range-TLB hit is one such span: a random batch inside one
//!   range is one translation.
//! * `map` needs no prover: page-table installs go through
//!   [`PageTables::map_extent`](o1_hw::PageTables::map_extent) and
//!   [`share`](o1_hw::PageTables::share), which charge a whole install
//!   in one block — identical to per-entry charging for every extent
//!   (DESIGN.md §3.1).
//! * `on_flush_asid` is called after every ASID shootdown the kernel
//!   issues; a mechanism holding per-ASID translations (e.g. the
//!   Utopia fast region) must drop them there.
//! * `teardown_pieces` must leave no translation or mechanism record
//!   alive for the unmapped pieces.

use o1_hw::{
    Access, AccessRun, Asid, ClearedLeaves, CostKind, FastMap, FastRegion, FrameNo, PageSize,
    PhysAddr, PtNodeId, PteFlags, RangeEntry, Satisfied, TranslateError, Translated, VirtAddr,
    HUGE_2M, PAGE_SHIFT, PAGE_SIZE,
};
use o1_memfs::{FileClass, FileExtent, FileId};
use o1_palloc::PhysExtent;
use o1_vm::{KernelCore, Pid, Prot, Resolved, VmError, MAX_MAP_BYTES};

use crate::fom::{FomProc, MapMech, PBM_BASE};

/// Pages per 2 MiB page-table chunk.
const CHUNK_PAGES: u64 = 512;

/// Default Utopia fast-region capacity (slots) when the builder does
/// not override it.
pub(crate) const DEFAULT_FAST_REGION_SLOTS: usize = 4096;

/// Split-borrow view of the kernel the mechanism works through:
/// everything the kernel owns except the mechanism itself.
pub(crate) struct MechCtx<'a> {
    pub core: &'a mut KernelCore<FomProc>,
    pub pmfs: &'a mut o1_memfs::Pmfs,
}

/// One piece of an installed file mapping.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Piece {
    /// A range-table entry based at this VA.
    Range { base: VirtAddr },
    /// A shared 2 MiB subtree attached at this VA.
    Shared { va: VirtAddr },
    /// Individually page-mapped span (small files / extent tails).
    Pages { va: VirtAddr, bytes: u64 },
}

impl MapMech {
    /// Label used for experiment output and latency-ledger keys.
    pub fn label(self) -> &'static str {
        match self {
            MapMech::PageTables => "fom-pt",
            MapMech::SharedPt => "fom-shared",
            MapMech::Pbm => "fom-pbm",
            MapMech::Ranges => "fom-ranges",
            MapMech::Utopia => "fom-utopia",
            MapMech::Obase => "fom-obase",
        }
    }
}

/// One mapping mechanism and its state: a variant per [`MapMech`].
/// See the module docs for the fast-forward and teardown obligations.
#[derive(Debug)]
pub(crate) enum Mechanism {
    /// Conventional page tables, one entry per (huge) page.
    PageTables,
    /// Pre-created page-table subtrees shared by pointer swing.
    SharedPt(ChunkRegistry),
    /// Physically based mappings: `va = PBM_BASE + pa`, shared
    /// subtrees keyed by physical address.
    Pbm(ChunkRegistry),
    /// Hardware range translations: one `(base, limit, offset)` entry
    /// per extent.
    Ranges,
    /// Utopia hybrid (arXiv:2211.12205): a hashed direct-mapped
    /// restrictive fast region backed by flexible 4 KiB page tables.
    /// A probe that hits skips the TLB and walker entirely (one
    /// [`CostKind::HybridFastHit`]); a miss pays the normal paging
    /// path, and a completed *walk* fills the region
    /// ([`CostKind::HybridFastFill`]) — fills are skipped on TLB hits
    /// so warm TLB workloads never pay twice. Direct-mapped conflict
    /// eviction is the residency policy between the regions.
    Utopia(FastRegion),
    /// OBASE extent tiering (arXiv:2603.00378); see [`ObaseMech`].
    Obase(ObaseMech),
}

impl Mechanism {
    /// The mechanism a config tag names, with empty state.
    pub(crate) fn new(kind: MapMech, fast_region_slots: usize, dram_frames: u64) -> Mechanism {
        match kind {
            MapMech::PageTables => Mechanism::PageTables,
            MapMech::SharedPt => Mechanism::SharedPt(ChunkRegistry::default()),
            MapMech::Pbm => Mechanism::Pbm(ChunkRegistry::default()),
            MapMech::Ranges => Mechanism::Ranges,
            MapMech::Utopia => Mechanism::Utopia(FastRegion::new(fast_region_slots)),
            MapMech::Obase => Mechanism::Obase(ObaseMech::new(dram_frames)),
        }
    }

    /// The config tag this mechanism was built from.
    pub(crate) fn kind(&self) -> MapMech {
        match self {
            Mechanism::PageTables => MapMech::PageTables,
            Mechanism::SharedPt(_) => MapMech::SharedPt,
            Mechanism::Pbm(_) => MapMech::Pbm,
            Mechanism::Ranges => MapMech::Ranges,
            Mechanism::Utopia(_) => MapMech::Utopia,
            Mechanism::Obase(_) => MapMech::Obase,
        }
    }

    /// Map file `id`, whose extents in file order are `extents`, whole
    /// into `pid` and return its base VA. Every piece installed is
    /// appended to `pieces`, also when a later extent fails.
    pub(crate) fn map(
        &mut self,
        ctx: &mut MechCtx<'_>,
        pid: Pid,
        id: FileId,
        extents: &[FileExtent],
        prot: Prot,
        pieces: &mut Vec<Piece>,
    ) -> Result<VirtAddr, VmError> {
        // Under PBM the va is a pure function of the pa: identical
        // everywhere.
        let pbm = |pa: PhysAddr| VirtAddr(PBM_BASE + pa.0);
        let base = match self {
            Mechanism::Pbm(_) => pbm(extents.first().map_or(PhysAddr(0), |e| e.phys.base())),
            _ => bump_base(ctx, pid, extents.iter().map(|e| e.phys.frames).sum())?,
        };
        let root = ctx.core.procs.get(pid).ok_or(VmError::NoProcess)?.root;
        let flags = prot.pte_flags();
        for &fe in extents {
            let va = match self {
                Mechanism::Pbm(_) => pbm(fe.phys.base()),
                _ => base + fe.file_page * PAGE_SIZE,
            };
            match self {
                Mechanism::PageTables => {
                    install_pages(ctx, root, va, fe.phys, flags, true, pieces)?
                }
                Mechanism::SharedPt(chunks) | Mechanism::Pbm(chunks) => {
                    map_extent_shared(chunks, ctx, root, id, fe, va, prot, pieces)?
                }
                Mechanism::Ranges => {
                    let entry = RangeEntry::new(va, fe.phys.bytes(), fe.phys.base(), flags);
                    let proc = ctx.core.procs.get_mut(pid).ok_or(VmError::NoProcess)?;
                    proc.ranges.insert(entry).map_err(|_| VmError::BadRange)?;
                    ctx.core.machine.charge_kind(CostKind::PteWrite);
                    ctx.core.machine.perf.range_installs += 1;
                    pieces.push(Piece::Range { base: va });
                }
                // The flexible backing is 4 KiB-grained: the fast
                // region caches base-page translations, so the two
                // views agree.
                Mechanism::Utopia(_) => {
                    install_pages(ctx, root, va, fe.phys, flags, false, pieces)?
                }
                Mechanism::Obase(o) => {
                    o.install_extent(ctx, root, pid, id, fe, va, flags, pieces)?
                }
            }
        }
        Ok(base)
    }

    /// Tear down the pieces of one unmapped mapping (called before the
    /// kernel's single ASID shootdown).
    pub(crate) fn teardown_pieces(
        &mut self,
        ctx: &mut MechCtx<'_>,
        pid: Pid,
        pieces: &[Piece],
    ) -> Result<(), VmError> {
        teardown_pieces_default(ctx, pid, pieces)?;
        if let Mechanism::Obase(o) = self {
            for piece in pieces {
                if let Piece::Pages { va, .. } = *piece {
                    o.drop_install(ctx, pid, va);
                }
            }
        }
        Ok(())
    }

    /// Translate the first access of a run of `len ≥ 1` by byte
    /// `stride`, followed in its batch by `rest` (page-indexed from
    /// `base`), charging hardware costs, and return its physical
    /// address, the span of accesses the translation covered and, when
    /// it walked, the hit kind of the span's other accesses, as
    /// [`Resolved::Translated`] (see [`o1_hw::Mmu::translate`]). Every
    /// mechanism but Utopia hands the run to the MMU as it is
    /// ([`KernelCore::translate`]). The outer error is
    /// [`VmError::NoProcess`], the inner one the MMU's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn translate(
        &mut self,
        ctx: &mut MechCtx<'_>,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        base: VirtAddr,
        rest: &[AccessRun],
        access: Access,
    ) -> Result<Result<Resolved, TranslateError>, VmError> {
        let translated = match self {
            // The fast region takes part in every translation, so a
            // TLB-only span would charge differently than one access
            // at a time: Utopia always covers 1.
            Mechanism::Utopia(fast) => {
                let pa = utopia_translate(fast, ctx, pid, va, access)?;
                let (span, fill_hit) = (1, None);
                return Ok(pa.map(|pa| Resolved::Translated { pa, span, fill_hit }));
            }
            _ => ctx
                .core
                .translate(pid, va, stride, len, base, rest, access)?,
        };
        Ok(translated.map(|(t, span)| {
            // A span stays inside one base page (extents map 4 KiB-
            // grained under OBASE), also when it crosses runs or
            // follows a walk, so its heat lands on one record —
            // exactly what `span` single accesses would do.
            if let Mechanism::Obase(o) = self {
                o.note(t.pa, span);
            }
            let (pa, fill_hit) = (t.pa, t.by.fill_hit());
            Resolved::Translated { pa, span, fill_hit }
        }))
    }

    /// Called after every ASID shootdown the kernel issues (unmap,
    /// process teardown, ASID recycling, crash).
    pub(crate) fn on_flush_asid(&mut self, asid: Asid) {
        if let Mechanism::Utopia(fast) = self {
            fast.remove_asid(asid);
        }
    }

    /// Called when a file's last reference drops (after its key was
    /// dropped): release any per-file mechanism state.
    pub(crate) fn on_file_destroyed(&mut self, ctx: &mut MechCtx<'_>, id: FileId) {
        match self {
            Mechanism::SharedPt(chunks) | Mechanism::Pbm(chunks) => {
                if let Some(fpt) = chunks.remove(&id) {
                    for (_, node) in fpt.chunks {
                        ctx.core.pt.release(&mut ctx.core.machine, node);
                    }
                }
            }
            // By the drop-on-last-unmap invariant nothing should
            // remain; sweep defensively so a stale record can never
            // alias frames pmfs hands to someone else.
            Mechanism::Obase(o) => o.records.retain(|r| r.file != id),
            _ => {}
        }
    }

    /// Called after a file's class changed (e.g. volatile data
    /// promoted to persistent).
    pub(crate) fn on_set_class(&mut self, ctx: &mut MechCtx<'_>, id: FileId, class: FileClass) {
        if let Mechanism::Obase(o) = self {
            o.set_class(ctx, id, class);
        }
    }

    /// Called on power failure, after processes and their page tables
    /// are gone: drop all mechanism state (it was DRAM-resident).
    pub(crate) fn on_crash(&mut self, ctx: &mut MechCtx<'_>) {
        match self {
            Mechanism::SharedPt(chunks) | Mechanism::Pbm(chunks) => {
                for (_, fpt) in chunks.drain() {
                    for (_, node) in fpt.chunks {
                        ctx.core.pt.release(&mut ctx.core.machine, node);
                    }
                }
            }
            // DRAM died with the machine; persistent extents were
            // never promoted, so nothing needs copying back.
            Mechanism::Obase(o) => {
                o.records.clear();
                o.free_dram = ObaseMech::new(o.dram_frames).free_dram;
            }
            _ => {}
        }
    }

    /// One background housekeeping pass with a page budget (OBASE
    /// migration). Returns pages moved.
    pub(crate) fn background_tick(&mut self, ctx: &mut MechCtx<'_>, budget_pages: u64) -> u64 {
        match self {
            Mechanism::Obase(o) => o.tick(ctx, budget_pages),
            _ => 0,
        }
    }

    /// Total pages this mechanism has migrated between tiers.
    pub(crate) fn migrated_pages(&self) -> u64 {
        match self {
            Mechanism::Obase(o) => o.migrated,
            _ => 0,
        }
    }

    /// Append this mechanism's gauge readings for the timeline
    /// sampler (fast-region fill, DRAM-pool occupancy, heat summary,
    /// …). Mechanisms without interesting live state append nothing.
    pub(crate) fn gauges(&self, out: &mut Vec<(&'static str, u64)>) {
        match self {
            Mechanism::Utopia(fast) => {
                out.push(("utopia.fast_occupied", fast.occupied() as u64));
                out.push(("utopia.fast_capacity", fast.capacity() as u64));
            }
            Mechanism::Obase(o) => o.gauges(out),
            _ => {}
        }
    }
}

// ---- shared helpers ---------------------------------------------------------

/// Default base-VA policy: per-process bump allocator with a guard
/// page, 2 MiB-aligned when the file is big enough to chunk. VAs are
/// never reused, so a process whose mapping would end past
/// [`MAX_MAP_BYTES`] has run out of address space: `NoMemory`, with
/// nothing bumped (the page-table index drops higher bits, so a VA
/// past it would alias a low one).
fn bump_base(ctx: &mut MechCtx<'_>, pid: Pid, total_pages: u64) -> Result<VirtAddr, VmError> {
    let align = if total_pages >= CHUNK_PAGES {
        HUGE_2M
    } else {
        PAGE_SIZE
    };
    let proc = ctx.core.procs.get_mut(pid).ok_or(VmError::NoProcess)?;
    let start = VirtAddr(proc.next_va).align_up(align);
    let end = total_pages
        .checked_mul(PAGE_SIZE)
        .and_then(|bytes| start.0.checked_add(bytes))
        .filter(|&end| end <= MAX_MAP_BYTES)
        .ok_or(VmError::NoMemory)?;
    proc.next_va = end + PAGE_SIZE; // guard gap
    Ok(start)
}

/// Map `span` at `va` as one run of page-table leaves (2 MiB and
/// 1 GiB leaves where alignment allows, if `use_huge`) and record it
/// as a piece.
fn install_pages(
    ctx: &mut MechCtx<'_>,
    root: PtNodeId,
    va: VirtAddr,
    span: PhysExtent,
    flags: PteFlags,
    use_huge: bool,
    pieces: &mut Vec<Piece>,
) -> Result<(), VmError> {
    ctx.core
        .pt
        .map_extent(
            &mut ctx.core.machine,
            root,
            va,
            span.start,
            span.frames,
            flags,
            use_huge,
        )
        .map_err(|_| VmError::BadRange)?;
    pieces.push(Piece::Pages {
        va,
        bytes: span.bytes(),
    });
    Ok(())
}

/// Default teardown: ranges are removed and invalidated, shared
/// subtrees unshared, page spans unmapped one node's run of leaves at
/// a time ([`o1_hw::PageTables::unmap_leaves`]).
fn teardown_pieces_default(
    ctx: &mut MechCtx<'_>,
    pid: Pid,
    pieces: &[Piece],
) -> Result<(), VmError> {
    let (root, asid) = ctx.core.procs.space(pid)?;
    let mut leaves = ClearedLeaves::default();
    for piece in pieces {
        match *piece {
            Piece::Range { base } => {
                let proc = ctx.core.procs.get_mut(pid).ok_or(VmError::NoProcess)?;
                proc.ranges.remove(base);
                ctx.core.machine.perf.range_removes += 1;
                ctx.core
                    .mmu
                    .invalidate_range(&mut ctx.core.machine, asid, base);
            }
            Piece::Shared { va } => {
                ctx.core.pt.unshare(&mut ctx.core.machine, root, va, 0);
            }
            Piece::Pages { va, bytes } => {
                let (pt, mut at, end) = (&mut ctx.core.pt, va, va + bytes);
                while pt.unmap_leaves(&mut ctx.core.machine, root, &mut at, end, &mut leaves) {}
            }
        }
    }
    Ok(())
}

// ---- shared-subtree machinery (SharedPt, Pbm) -------------------------------

/// Registry of pre-created page-table subtrees, one per (file, 2 MiB
/// chunk, writability). The registry holds one reference per node;
/// every mapping adds its own.
#[derive(Debug, Default)]
pub(crate) struct FilePts {
    /// Keyed by (chunk index, writability) — trusted fixed-width ids
    /// probed per mapped 2 MiB chunk, so the fast hasher is safe.
    chunks: FastMap<(u64, bool), PtNodeId>,
}

pub(crate) type ChunkRegistry = FastMap<FileId, FilePts>;

/// Map one extent using pre-created shared subtrees where 2 MiB
/// alignment allows, falling back to per-page mapping for the
/// unaligned head/tail — the complication the paper flags ("requires
/// mapping files at the natural granularities of page table
/// structures").
#[allow(clippy::too_many_arguments)]
fn map_extent_shared(
    registry: &mut ChunkRegistry,
    ctx: &mut MechCtx<'_>,
    root: PtNodeId,
    id: FileId,
    fe: FileExtent,
    va: VirtAddr,
    prot: Prot,
    pieces: &mut Vec<Piece>,
) -> Result<(), VmError> {
    let mut page = 0u64; // page index within this extent
    while page < fe.phys.frames {
        let cur_va = va + page * PAGE_SIZE;
        let file_page = fe.file_page + page;
        let chunk_ok = cur_va.is_aligned(HUGE_2M)
            && file_page.is_multiple_of(CHUNK_PAGES)
            && fe.phys.frames - page >= CHUNK_PAGES;
        if chunk_ok {
            let node =
                get_or_build_chunk(registry, ctx, id, file_page / CHUNK_PAGES, prot.writable())?;
            ctx.core
                .pt
                .share(&mut ctx.core.machine, root, cur_va, node)
                .map_err(|_| VmError::BadRange)?;
            pieces.push(Piece::Shared { va: cur_va });
            page += CHUNK_PAGES;
        } else {
            // Map plain pages up to the next chunk boundary in file
            // space (or the end of the extent).
            let to_boundary = CHUNK_PAGES - file_page % CHUNK_PAGES;
            let n = to_boundary.min(fe.phys.frames - page);
            let span = PhysExtent::new(fe.phys.start + page, n);
            install_pages(ctx, root, cur_va, span, prot.pte_flags(), false, pieces)?;
            page += n;
        }
    }
    Ok(())
}

/// Fetch (or build, once per file) the pre-created page-table subtree
/// for 2 MiB chunk `chunk` of `id`. Later mappings reuse it with a
/// single pointer swing.
fn get_or_build_chunk(
    registry: &mut ChunkRegistry,
    ctx: &mut MechCtx<'_>,
    id: FileId,
    chunk: u64,
    writable: bool,
) -> Result<PtNodeId, VmError> {
    if let Some(&node) = registry
        .get(&id)
        .and_then(|f| f.chunks.get(&(chunk, writable)))
    {
        return Ok(node);
    }
    let frames: Vec<FrameNo> = {
        let inode = ctx.pmfs.inode(id).map_err(VmError::from)?;
        (0..CHUNK_PAGES)
            .map(|i| {
                inode
                    .extents
                    .frame_of(chunk * CHUNK_PAGES + i)
                    .expect("chunk fully allocated")
            })
            .collect()
    };
    let node = ctx.core.pt.create_node(&mut ctx.core.machine, 0);
    let flags = if writable {
        PteFlags::user_rw()
    } else {
        PteFlags::user_ro()
    };
    for (i, frame) in frames.into_iter().enumerate() {
        ctx.core
            .pt
            .set_leaf(&mut ctx.core.machine, node, i, frame, flags);
    }
    registry
        .entry(id)
        .or_default()
        .chunks
        .insert((chunk, writable), node);
    Ok(node)
}

// ---- Utopia hybrid (arXiv:2211.12205) ---------------------------------------

/// Utopia translate: probe the fast region, else walk and fill it.
/// Errors as [`Mechanism::translate`].
fn utopia_translate(
    fast: &mut FastRegion,
    ctx: &mut MechCtx<'_>,
    pid: Pid,
    va: VirtAddr,
    access: Access,
) -> Result<Result<PhysAddr, TranslateError>, VmError> {
    let (root, asid) = ctx.core.procs.space(pid)?;
    let vpage = va.0 >> PAGE_SHIFT;
    if let Some((frame, flags)) = fast.lookup(asid, vpage) {
        let allowed = match access {
            Access::Read => true,
            Access::Write => flags.contains(PteFlags::WRITE),
        };
        if allowed {
            ctx.core.machine.charge_kind(CostKind::HybridFastHit);
            if access == Access::Write {
                // Hardware sets the dirty bit through the backing
                // tables, as the TLB-hit path does.
                ctx.core.pt.mark_accessed(root, va, true);
            }
            return Ok(Ok(PhysAddr(frame.base().0 + va.page_offset())));
        }
        // Wrong-permission entry: fall through to the walker,
        // which raises the fault with ordinary charges.
    }
    let translated = ctx
        .core
        .translate(pid, va, 0, 1, VirtAddr(0), &[], access)?;
    // Fill only when a walk actually happened — a TLB-resident
    // translation is already cheap, and filling on it would make
    // the hybrid strictly slower warm. The walker just filled the
    // TLB, so an uncharged peek recovers the frame and flags.
    if let Ok((
        Translated {
            by: Satisfied::PageWalk,
            ..
        },
        _,
    )) = translated
    {
        if let Some((frame, size, flags)) = ctx.core.mmu.tlb().peek(asid, va) {
            if size == PageSize::Base {
                ctx.core.machine.charge_kind(CostKind::HybridFastFill);
                fast.insert(asid, vpage, frame, flags);
            }
        }
    }
    Ok(translated.map(|(t, _)| t.pa))
}

// ---- OBASE tiering (arXiv:2603.00378) ---------------------------------------

/// One tracked file extent: its NVM home, current residence, access
/// heat, and every live mapping of it.
#[derive(Debug)]
struct ExtRec {
    /// Home NVM start frame — the extent's identity.
    nvm_start: u64,
    frames: u64,
    file: FileId,
    /// Persistent files never migrate: their NVM copy is the
    /// crash-consistent one.
    migratable: bool,
    /// Access count since the last decay (halved per tick).
    heat: u64,
    /// Some = promoted: data lives at this DRAM start frame.
    dram_start: Option<u64>,
    installs: Vec<Install>,
}

/// One live mapping of a tracked extent.
#[derive(Clone, Copy, Debug)]
struct Install {
    pid: Pid,
    va: VirtAddr,
    flags: PteFlags,
}

/// Object/extent-granular DRAM↔NVM tiering over the two-tier
/// [`o1_hw::PhysicalMemory`]: extents are born in NVM (the pmfs
/// volume), accesses accrue heat, and [`Mechanism::background_tick`]
/// promotes the hottest extents into a DRAM pool — whole extents, not
/// pages — demoting colder residents to make room. Every page moved is
/// charged as [`CostKind::PageMigrate`] plus the remap/shootdown costs,
/// so the ledger shows exactly what tiering spends.
#[derive(Debug)]
pub(crate) struct ObaseMech {
    dram_frames: u64,
    /// Free DRAM spans `(start, frames)`, sorted by start, coalesced.
    free_dram: Vec<(u64, u64)>,
    records: Vec<ExtRec>,
    migrated: u64,
}

impl ObaseMech {
    fn new(dram_frames: u64) -> ObaseMech {
        ObaseMech {
            dram_frames,
            free_dram: if dram_frames > 0 {
                vec![(0, dram_frames)]
            } else {
                Vec::new()
            },
            records: Vec::new(),
            migrated: 0,
        }
    }

    fn free_dram_total(&self) -> u64 {
        self.free_dram.iter().map(|&(_, n)| n).sum()
    }

    /// First-fit contiguous DRAM span.
    fn alloc_dram(&mut self, frames: u64) -> Option<u64> {
        let idx = self.free_dram.iter().position(|&(_, len)| len >= frames)?;
        let (start, len) = self.free_dram[idx];
        if len == frames {
            self.free_dram.remove(idx);
        } else {
            self.free_dram[idx] = (start + frames, len - frames);
        }
        Some(start)
    }

    /// Return a span to the pool, coalescing neighbours.
    fn release_dram(&mut self, start: u64, frames: u64) {
        let pos = self.free_dram.partition_point(|&(s, _)| s < start);
        self.free_dram.insert(pos, (start, frames));
        if pos + 1 < self.free_dram.len()
            && self.free_dram[pos].0 + self.free_dram[pos].1 == self.free_dram[pos + 1].0
        {
            self.free_dram[pos].1 += self.free_dram[pos + 1].1;
            self.free_dram.remove(pos + 1);
        }
        if pos > 0 && self.free_dram[pos - 1].0 + self.free_dram[pos - 1].1 == self.free_dram[pos].0
        {
            self.free_dram[pos - 1].1 += self.free_dram[pos].1;
            self.free_dram.remove(pos);
        }
    }

    /// Account `n` accesses landing at `pa` to the covering extent.
    fn note(&mut self, pa: PhysAddr, n: u64) {
        let f = pa.frame().0;
        for r in &mut self.records {
            let cur = r.dram_start.unwrap_or(r.nvm_start);
            if f >= cur && f < cur + r.frames {
                r.heat = r.heat.saturating_add(n);
                return;
            }
        }
    }

    /// Copy an extent's data between tiers and charge the move.
    fn copy_span(ctx: &mut MechCtx<'_>, src: u64, dst: u64, frames: u64) {
        let mut buf = [0u8; PAGE_SIZE as usize];
        for i in 0..frames {
            let phys = &mut ctx.core.machine.phys;
            phys.read(PhysAddr((src + i) << PAGE_SHIFT), &mut buf);
            phys.write(PhysAddr((dst + i) << PAGE_SHIFT), &buf);
        }
        ctx.core.machine.charge_opn(CostKind::PageMigrate, frames);
    }

    /// Re-point every live mapping of record `idx` at `new_start`
    /// (unmapped one node's run of leaves at a time), with one
    /// shootdown per affected address space.
    fn remap_installs(&mut self, ctx: &mut MechCtx<'_>, idx: usize, new_start: u64) {
        let frames = self.records[idx].frames;
        let installs = self.records[idx].installs.clone();
        let mut flushed: Vec<Asid> = Vec::new();
        let mut leaves = ClearedLeaves::default();
        for ins in &installs {
            let Ok((root, asid)) = ctx.core.procs.space(ins.pid) else {
                continue;
            };
            let (pt, mut at, end) = (&mut ctx.core.pt, ins.va, ins.va + frames * PAGE_SIZE);
            while pt.unmap_leaves(&mut ctx.core.machine, root, &mut at, end, &mut leaves) {}
            ctx.core
                .pt
                .map_extent(
                    &mut ctx.core.machine,
                    root,
                    ins.va,
                    FrameNo(new_start),
                    frames,
                    ins.flags,
                    false,
                )
                .expect("remapping a va this mechanism just unmapped");
            if !flushed.contains(&asid) {
                flushed.push(asid);
            }
        }
        for asid in flushed {
            ctx.core.mmu.flush_asid(&mut ctx.core.machine, asid);
        }
    }

    /// Promote record `idx` into DRAM. False if no contiguous span.
    fn promote(&mut self, ctx: &mut MechCtx<'_>, idx: usize) -> bool {
        let frames = self.records[idx].frames;
        let Some(dst) = self.alloc_dram(frames) else {
            return false;
        };
        Self::copy_span(ctx, self.records[idx].nvm_start, dst, frames);
        self.migrated += frames;
        self.remap_installs(ctx, idx, dst);
        self.records[idx].dram_start = Some(dst);
        true
    }

    /// Demote record `idx` back to its NVM home, copying the DRAM
    /// data (the authoritative copy while promoted) back.
    fn demote(&mut self, ctx: &mut MechCtx<'_>, idx: usize) {
        let frames = self.records[idx].frames;
        let Some(src) = self.records[idx].dram_start.take() else {
            return;
        };
        Self::copy_span(ctx, src, self.records[idx].nvm_start, frames);
        self.migrated += frames;
        let home = self.records[idx].nvm_start;
        self.remap_installs(ctx, idx, home);
        self.release_dram(src, frames);
    }

    /// Drop `pid`'s install at `va`; when it was the last, push the
    /// data home and forget the record (pmfs may free the frames any
    /// time once nothing maps them).
    fn drop_install(&mut self, ctx: &mut MechCtx<'_>, pid: Pid, va: VirtAddr) {
        let Some(idx) = self
            .records
            .iter()
            .position(|r| r.installs.iter().any(|i| i.pid == pid && i.va == va))
        else {
            return;
        };
        let installs = &mut self.records[idx].installs;
        let first = installs
            .iter()
            .position(|i| i.pid == pid && i.va == va)
            .expect("position found above");
        installs.remove(first);
        if self.records[idx].installs.is_empty() {
            self.demote(ctx, idx);
            self.records.swap_remove(idx);
        }
    }

    /// Install extent `fe` of file `id` at `va`, mapping the extent
    /// where its data currently lives and recording the install.
    #[allow(clippy::too_many_arguments)]
    fn install_extent(
        &mut self,
        ctx: &mut MechCtx<'_>,
        root: PtNodeId,
        pid: Pid,
        id: FileId,
        fe: FileExtent,
        va: VirtAddr,
        flags: PteFlags,
        pieces: &mut Vec<Piece>,
    ) -> Result<(), VmError> {
        let home = fe.phys.start.0;
        let idx = match self.records.iter().position(|r| r.nvm_start == home) {
            Some(i) => {
                if self.records[i].frames != fe.phys.frames {
                    // Another mapper grew the file and pmfs extended
                    // this extent in place; residency is per whole
                    // extent, so push it home before adopting the new
                    // geometry.
                    self.demote(ctx, i);
                    self.records[i].frames = fe.phys.frames;
                }
                i
            }
            None => {
                let migratable =
                    ctx.pmfs.inode(id).map_err(VmError::from)?.class() != FileClass::Persistent;
                self.records.push(ExtRec {
                    nvm_start: home,
                    frames: fe.phys.frames,
                    file: id,
                    migratable,
                    heat: 0,
                    dram_start: None,
                    installs: Vec::new(),
                });
                self.records.len() - 1
            }
        };
        let cur = self.records[idx].dram_start.unwrap_or(home);
        let span = PhysExtent::new(FrameNo(cur), fe.phys.frames);
        install_pages(ctx, root, va, span, flags, false, pieces)?;
        self.records[idx].installs.push(Install { pid, va, flags });
        Ok(())
    }

    /// Freeze or thaw file `id`'s extents after its class changed.
    fn set_class(&mut self, ctx: &mut MechCtx<'_>, id: FileId, class: FileClass) {
        let persistent = class == FileClass::Persistent;
        for idx in 0..self.records.len() {
            if self.records[idx].file != id {
                continue;
            }
            if persistent {
                // The NVM home must hold the authoritative bytes from
                // now on: push any DRAM copy back before freezing.
                self.demote(ctx, idx);
            }
            self.records[idx].migratable = !persistent;
        }
    }

    /// One migration pass: promote the hottest extents that fit the
    /// page budget, demoting strictly-colder residents to make room.
    fn tick(&mut self, ctx: &mut MechCtx<'_>, budget_pages: u64) -> u64 {
        let mut budget = budget_pages;
        let mut moved = 0u64;
        'outer: loop {
            // Hottest NVM-resident migratable extent that fits the
            // remaining budget (ties broken by lowest home frame).
            let cand = self
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.migratable
                        && r.dram_start.is_none()
                        && r.heat > 0
                        && r.frames <= budget
                        && r.frames <= self.dram_frames
                })
                .max_by_key(|(_, r)| (r.heat, std::cmp::Reverse(r.nvm_start)));
            let Some((idx, _)) = cand else { break };
            let (need, heat) = (self.records[idx].frames, self.records[idx].heat);
            // Make room by demoting strictly-colder residents.
            while self.free_dram_total() < need {
                let victim = self
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        r.dram_start.is_some()
                            && r.heat < heat
                            && r.frames <= budget.saturating_sub(need)
                    })
                    .min_by_key(|(_, r)| (r.heat, r.nvm_start));
                let Some((vidx, _)) = victim else {
                    break 'outer;
                };
                let vframes = self.records[vidx].frames;
                self.demote(ctx, vidx);
                budget -= vframes;
                moved += vframes;
            }
            if self.free_dram_total() < need || !self.promote(ctx, idx) {
                break;
            }
            budget -= need;
            moved += need;
        }
        // Exponential decay so yesterday's hot set can cool off.
        for r in &mut self.records {
            r.heat /= 2;
        }
        moved
    }

    fn gauges(&self, out: &mut Vec<(&'static str, u64)>) {
        let used = self.dram_frames - self.free_dram_total();
        let promoted = self
            .records
            .iter()
            .filter(|r| r.dram_start.is_some())
            .count();
        let heat: u64 = self.records.iter().map(|r| r.heat).sum();
        out.push(("obase.dram_pool_bytes", used * PAGE_SIZE));
        out.push(("obase.dram_free_bytes", self.free_dram_total() * PAGE_SIZE));
        out.push(("obase.extents_tracked", self.records.len() as u64));
        out.push(("obase.extents_promoted", promoted as u64));
        out.push(("obase.heat_sum", heat));
        out.push(("obase.pages_migrated", self.migrated));
    }
}
