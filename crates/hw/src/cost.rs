//! Calibrated cost model for the simulated machine.
//!
//! Every primitive operation the simulated hardware or kernel performs
//! charges a fixed number of nanoseconds to the machine clock. The
//! defaults below are calibrated against the measurements reported in
//! *Towards O(1) Memory* (HotOS '17) and its companion course report:
//!
//! * an `mmap(MAP_PRIVATE)` of a tmpfs file takes ≈ 8 µs regardless of
//!   size (§4, "it takes almost 8 micro-seconds in TMPFS"), and
//!   ≈ 15 µs on DAX;
//! * populating page tables costs roughly 0.5–1 µs per 4 KiB page, so
//!   `MAP_POPULATE` of a 1 MiB file lands in the low hundreds of µs
//!   (Figure 1a/6a);
//! * a minor page fault costs ≈ 2 µs (trap + handler), making demand
//!   faulting a large file "more than 50x" the cost of touching a
//!   pre-populated mapping (Figure 1b/6b);
//! * NVM writes are several times slower than DRAM writes, reads
//!   modestly slower (3D XPoint projections cited in §2).
//!
//! The model is deliberately flat: no cache hierarchy, no pipeline.
//! What the paper's figures measure is *operation counts* (PTE writes,
//! faults, walks) multiplied by roughly constant per-operation costs,
//! and that is exactly what this model computes. All costs are public
//! and per-[`Machine`](crate::machine::Machine) so experiments can run
//! sensitivity sweeps.

use o1_obs::CostKind;

use crate::addr::PAGE_SIZE;

/// Per-operation costs in nanoseconds.
///
/// See the module documentation for the calibration sources. Fields
/// are grouped by the subsystem that charges them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    // ---- CPU / privilege crossings ----
    /// One user→kernel→user system-call round trip.
    pub syscall: u64,
    /// Page-fault exception entry + IRET, excluding the handler body.
    pub fault_trap: u64,
    /// Fixed handler-body overhead per fault (VMA lookup, bookkeeping).
    pub fault_handler_base: u64,

    // ---- Memory device ----
    /// One cache-line-granularity DRAM read performed by a program.
    pub mem_read_dram: u64,
    /// One cache-line-granularity DRAM write performed by a program.
    pub mem_write_dram: u64,
    /// One NVM read (3D XPoint-class persistent memory).
    pub mem_read_nvm: u64,
    /// One NVM write (persistent memory; includes write-queue effects).
    pub mem_write_nvm: u64,
    /// Zeroing one 4 KiB page in DRAM.
    pub zero_page_dram: u64,
    /// Zeroing one 4 KiB page in NVM.
    pub zero_page_nvm: u64,
    /// Copying one 4 KiB page (e.g., user↔kernel copy in `read()`).
    pub copy_page: u64,

    // ---- Address translation ----
    /// TLB hit (effectively free; charged so counters stay honest).
    pub tlb_hit: u64,
    /// One memory reference of the hardware page-table walker. A full
    /// 4-level walk costs `4 * ptw_level_ref` plus the TLB fill.
    pub ptw_level_ref: u64,
    /// Inserting a translation into the TLB after a walk.
    pub tlb_fill: u64,
    /// Flushing one TLB entry locally (INVLPG-class).
    pub tlb_invlpg: u64,
    /// Flushing an entire address space's TLB entries.
    pub tlb_flush_asid: u64,
    /// Remote-TLB shootdown cost per remote CPU (IPI + ack).
    pub tlb_shootdown_percpu: u64,
    /// Range-TLB hit.
    pub rtlb_hit: u64,
    /// Walking the in-memory range table on a range-TLB miss
    /// (binary search over a compact table: ~2 memory references).
    pub range_walk: u64,
    /// Inserting an entry into the range TLB.
    pub rtlb_fill: u64,
    /// Hit in a hybrid mechanism's hashed, direct-mapped fast region:
    /// one probe of a flat in-memory table (single cache-line read +
    /// tag compare). Slightly above a TLB hit because the table lives
    /// in memory, far below a multi-level walk.
    pub hybrid_fast_hit: u64,
    /// Installing a translation into the fast region after a page walk
    /// resolved it: one tag + PTE-sized payload write into the
    /// direct-mapped slot (possibly evicting the conflicting entry).
    pub hybrid_fast_fill: u64,

    // ---- Page tables (software cost of maintaining them) ----
    /// Writing one page-table entry.
    pub pte_write: u64,
    /// Allocating and initialising one page-table node (a 4 KiB frame).
    pub pt_node_alloc: u64,
    /// Freeing one page-table node.
    pub pt_node_free: u64,

    // ---- Physical allocators ----
    /// Buddy allocator: one order-0 allocation (fast path).
    pub buddy_alloc: u64,
    /// Buddy allocator: extra cost per split/coalesce level.
    pub buddy_level: u64,
    /// Buddy allocator: one free.
    pub buddy_free: u64,
    /// Extent/bitmap allocator: one allocation, independent of length.
    pub extent_alloc: u64,
    /// Extent/bitmap allocator: one free, independent of length.
    pub extent_free: u64,
    /// Slab allocator: one object allocation or free (fast path).
    pub slab_op: u64,
    /// Generating a fresh per-file encryption key (crypto-erase).
    pub key_gen: u64,
    /// Dropping a per-file encryption key on erase: zeroizing the key
    /// material and unhooking it from the keyring. O(1) regardless of
    /// file size — the whole point of crypto-erase.
    pub key_drop: u64,

    // ---- VM bookkeeping ----
    /// Creating a VMA and linking it into the address-space tree.
    pub vma_create: u64,
    /// Looking up the VMA covering an address.
    pub vma_find: u64,
    /// Removing a VMA.
    pub vma_destroy: u64,
    /// Fixed `mmap` path cost beyond the syscall (fd/file resolution,
    /// accounting, security hooks). Calibrated so MAP_PRIVATE ≈ 8 µs.
    pub mmap_fixed: u64,
    /// Touching one page's `struct page` metadata (flags, LRU, counts).
    pub page_meta_update: u64,
    /// Examining one page during a reclaim scan (clock).
    pub reclaim_scan_page: u64,
    /// Writing one page to the swap device.
    pub swap_out_page: u64,
    /// Reading one page back from the swap device (major-fault I/O).
    pub swap_in_page: u64,
    /// Pinning or unpinning one page for device access.
    pub pin_page: u64,
    /// Migrating one 4 KiB page between memory tiers: a streamed read
    /// of the source plus a streamed write of the destination (NVM
    /// write bandwidth bound, cf. `zero_page_nvm` = 850 for the write
    /// half alone) plus the PTE rewrite and tiering bookkeeping.
    pub page_migrate: u64,

    // ---- File system ----
    /// Path lookup of one name component.
    pub fs_lookup: u64,
    /// Creating an inode.
    pub fs_create_inode: u64,
    /// Removing an inode.
    pub fs_remove_inode: u64,
    /// Reading or updating one extent-tree entry.
    pub fs_extent_op: u64,
    /// Appending one record to the metadata journal (NVM write + fence).
    pub journal_record: u64,
    /// Journal commit (fence + commit record).
    pub journal_commit: u64,
    /// Fixed `read()`/`write()` syscall body beyond the copy itself.
    pub file_io_fixed: u64,
}

impl CostModel {
    /// Cost model for a tmpfs-on-DRAM machine, matching the paper's
    /// TMPFS measurements.
    pub fn tmpfs_dram() -> Self {
        CostModel {
            syscall: 500,
            fault_trap: 2000,
            fault_handler_base: 400,

            mem_read_dram: 20,
            mem_write_dram: 25,
            mem_read_nvm: 60,
            mem_write_nvm: 180,
            zero_page_dram: 250,
            zero_page_nvm: 850,
            copy_page: 400,

            tlb_hit: 1,
            // Paging-structure caches keep most walk references on-chip,
            // so an average walk level costs well under a DRAM access.
            ptw_level_ref: 8,
            tlb_fill: 5,
            tlb_invlpg: 120,
            tlb_flush_asid: 250,
            tlb_shootdown_percpu: 900,
            rtlb_hit: 1,
            range_walk: 16,
            rtlb_fill: 5,
            // One hashed probe of a flat restrictive-region table
            // (Utopia-style): a cache-line read + tag compare. Twice
            // a TLB hit, an order of magnitude under a 4-level walk
            // (4 * ptw_level_ref + tlb_fill = 37).
            hybrid_fast_hit: 2,
            // Tag + payload store into the direct-mapped slot; no
            // allocation, no tree maintenance.
            hybrid_fast_fill: 8,

            pte_write: 55,
            pt_node_alloc: 320,
            pt_node_free: 150,

            buddy_alloc: 130,
            buddy_level: 25,
            buddy_free: 110,
            extent_alloc: 260,
            extent_free: 200,
            slab_op: 45,
            key_gen: 320,
            // Zeroize 32 bytes of key material + keyring unlink —
            // cheaper than generating (no entropy pool round trip).
            key_drop: 90,

            vma_create: 900,
            vma_find: 140,
            vma_destroy: 500,
            mmap_fixed: 6600,
            page_meta_update: 40,
            reclaim_scan_page: 70,
            swap_out_page: 9000,
            swap_in_page: 12000,
            pin_page: 180,
            // 4 KiB tier migration ≈ sequential 4 KiB NVM write (the
            // bound; cf. zero_page_nvm = 850) + 4 KiB DRAM read + PTE
            // rewrite + bookkeeping. Far below swap_out_page (9000):
            // NVM is memory, not a block device.
            page_migrate: 1500,

            fs_lookup: 650,
            fs_create_inode: 1400,
            fs_remove_inode: 900,
            fs_extent_op: 120,
            journal_record: 500,
            journal_commit: 700,
            file_io_fixed: 600,
        }
    }

    /// Cost model matching the companion report's DAX measurements:
    /// identical structure, but the fixed `mmap` path is roughly twice
    /// as expensive (≈ 15 µs vs ≈ 8 µs) and data lives in NVM.
    pub fn dax_nvm() -> Self {
        CostModel {
            mmap_fixed: 13900,
            ..Self::tmpfs_dram()
        }
    }

    /// Cost of zeroing `bytes` bytes residing in DRAM.
    #[inline]
    pub fn zero_bytes_dram(&self, bytes: u64) -> u64 {
        bytes.div_ceil(PAGE_SIZE) * self.zero_page_dram
    }

    /// Cost of zeroing `bytes` bytes residing in NVM.
    #[inline]
    pub fn zero_bytes_nvm(&self, bytes: u64) -> u64 {
        bytes.div_ceil(PAGE_SIZE) * self.zero_page_nvm
    }

    /// Cost of a full page-table walk that touches `levels` node
    /// references (4 on a leaf hit, fewer when the walk aborts early).
    #[inline]
    pub fn walk(&self, levels: u8) -> u64 {
        self.ptw_level_ref * levels as u64
    }

    /// Unit cost of one primitive of `kind` — the bridge between the
    /// ledger's tags and this table. Only the genuinely-external kinds
    /// (device DMA constants, whose cost the `DmaEngine` owns) and
    /// [`CostKind::Untagged`] return 0; charge those with
    /// `Machine::charge_tagged`.
    #[inline]
    pub fn unit(&self, kind: CostKind) -> u64 {
        match kind {
            CostKind::Syscall => self.syscall,
            CostKind::FaultTrap => self.fault_trap,
            CostKind::FaultHandlerBase => self.fault_handler_base,
            CostKind::MemReadDram => self.mem_read_dram,
            CostKind::MemWriteDram => self.mem_write_dram,
            CostKind::MemReadNvm => self.mem_read_nvm,
            CostKind::MemWriteNvm => self.mem_write_nvm,
            CostKind::ZeroPageDram => self.zero_page_dram,
            CostKind::ZeroPageNvm => self.zero_page_nvm,
            CostKind::CopyPage => self.copy_page,
            CostKind::TlbHit => self.tlb_hit,
            CostKind::PtwLevelRef => self.ptw_level_ref,
            CostKind::TlbFill => self.tlb_fill,
            CostKind::TlbInvlpg => self.tlb_invlpg,
            CostKind::TlbFlushAsid => self.tlb_flush_asid,
            CostKind::TlbShootdownPercpu => self.tlb_shootdown_percpu,
            CostKind::RtlbHit => self.rtlb_hit,
            CostKind::RangeWalk => self.range_walk,
            CostKind::RtlbFill => self.rtlb_fill,
            CostKind::HybridFastHit => self.hybrid_fast_hit,
            CostKind::HybridFastFill => self.hybrid_fast_fill,
            CostKind::PteWrite => self.pte_write,
            CostKind::PtNodeAlloc => self.pt_node_alloc,
            CostKind::PtNodeFree => self.pt_node_free,
            CostKind::BuddyAlloc => self.buddy_alloc,
            CostKind::BuddyLevel => self.buddy_level,
            CostKind::BuddyFree => self.buddy_free,
            CostKind::ExtentAlloc => self.extent_alloc,
            CostKind::ExtentFree => self.extent_free,
            CostKind::SlabOp => self.slab_op,
            CostKind::KeyGen => self.key_gen,
            CostKind::KeyDrop => self.key_drop,
            CostKind::VmaCreate => self.vma_create,
            CostKind::VmaFind => self.vma_find,
            CostKind::VmaDestroy => self.vma_destroy,
            CostKind::MmapFixed => self.mmap_fixed,
            CostKind::PageMetaUpdate => self.page_meta_update,
            CostKind::ReclaimScanPage => self.reclaim_scan_page,
            CostKind::SwapOutPage => self.swap_out_page,
            CostKind::SwapInPage => self.swap_in_page,
            CostKind::PinPage => self.pin_page,
            CostKind::PageMigrate => self.page_migrate,
            CostKind::FsLookup => self.fs_lookup,
            CostKind::FsCreateInode => self.fs_create_inode,
            CostKind::FsRemoveInode => self.fs_remove_inode,
            CostKind::FsExtentOp => self.fs_extent_op,
            CostKind::JournalRecord => self.journal_record,
            CostKind::JournalCommit => self.journal_commit,
            CostKind::FileIoFixed => self.file_io_fixed,
            CostKind::DmaPage | CostKind::IommuFault | CostKind::Untagged => 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::tmpfs_dram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CostModel::default();
        // MAP_PRIVATE mmap ≈ 8 µs: syscall + mmap_fixed + vma_create.
        let mmap_private = c.syscall + c.mmap_fixed + c.vma_create;
        assert!(
            (7_000..9_000).contains(&mmap_private),
            "mmap_private = {mmap_private} ns, want ≈ 8 µs"
        );
        // DAX mmap ≈ 15 µs.
        let d = CostModel::dax_nvm();
        let mmap_dax = d.syscall + d.mmap_fixed + d.vma_create;
        assert!(
            (14_000..16_000).contains(&mmap_dax),
            "mmap_dax = {mmap_dax} ns, want ≈ 15 µs"
        );
        // Minor fault ≈ 2 µs before per-page work.
        assert!((1_500..2_500).contains(&(c.fault_trap + c.fault_handler_base)));
    }

    #[test]
    fn demand_vs_populate_ratio_exceeds_50x() {
        // The figure-1b claim: touching each page of a demand-mapped
        // file costs > 50x touching a pre-populated one. Per page:
        // demand = fault + handler + alloc + zero + pte + walk;
        // populate-read = TLB miss walk only.
        let c = CostModel::default();
        let demand = c.fault_trap
            + c.fault_handler_base
            + c.vma_find
            + c.buddy_alloc
            + c.zero_page_dram
            + c.pte_write
            + c.page_meta_update
            + c.walk(4)
            + c.tlb_fill;
        let populated = c.walk(4) + c.tlb_fill;
        assert!(
            demand > 50 * populated,
            "demand {demand} vs populated {populated}: ratio {}",
            demand / populated
        );
    }

    #[test]
    fn zero_cost_scales_per_page() {
        let c = CostModel::default();
        assert_eq!(c.zero_bytes_dram(0), 0);
        assert_eq!(c.zero_bytes_dram(1), c.zero_page_dram);
        assert_eq!(c.zero_bytes_dram(PAGE_SIZE * 3), 3 * c.zero_page_dram);
        assert!(c.zero_bytes_nvm(PAGE_SIZE) > c.zero_bytes_dram(PAGE_SIZE));
    }

    #[test]
    fn nvm_writes_cost_more_than_dram() {
        let c = CostModel::default();
        assert!(c.mem_write_nvm > 2 * c.mem_write_dram);
        assert!(c.mem_read_nvm > c.mem_read_dram);
    }
}
