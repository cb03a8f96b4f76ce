//! Cost kinds and the subsystems that charge them.
//!
//! [`CostKind`] lists every primitive the simulated machine charges,
//! each with its meaning; `o1-hw`'s `CostModel` is a table with one
//! price per kind. Adding a primitive is one row here plus one price
//! row there.

/// The subsystem a charge is attributed to. Groups match the price
/// table's grouping (and DESIGN.md's inventory).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
#[repr(u8)]
pub enum Subsystem {
    /// Privilege crossings: syscalls, fault traps, handler bases.
    Cpu,
    /// Memory-device operations: loads, stores, zeroing, page copies.
    Mem,
    /// Address translation: TLBs, page walks, range walks, shootdowns.
    Translation,
    /// Page-table maintenance: PTE writes, node alloc/free.
    PageTable,
    /// Physical allocators: buddy, extent, slab, key generation.
    Alloc,
    /// VM bookkeeping: VMAs, mmap path, page metadata, reclaim, swap.
    Vm,
    /// File system: lookups, inodes, extents, journal, file I/O.
    Fs,
    /// Device DMA and the IOMMU.
    Dma,
}

impl Subsystem {
    /// All subsystems, in display order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Cpu,
        Subsystem::Mem,
        Subsystem::Translation,
        Subsystem::PageTable,
        Subsystem::Alloc,
        Subsystem::Vm,
        Subsystem::Fs,
        Subsystem::Dma,
    ];

    /// Stable lowercase name used in exports and tables.
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::Cpu => "cpu",
            Subsystem::Mem => "mem",
            Subsystem::Translation => "translation",
            Subsystem::PageTable => "pagetable",
            Subsystem::Alloc => "alloc",
            Subsystem::Vm => "vm",
            Subsystem::Fs => "fs",
            Subsystem::Dma => "dma",
        }
    }
}

macro_rules! cost_kinds {
    ($($(#[$doc:meta])* $variant:ident => ($name:literal, $subsystem:ident)),* $(,)?) => {
        /// One charged primitive operation.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
        #[repr(u8)]
        pub enum CostKind {
            $($(#[$doc])* $variant),*
        }

        impl CostKind {
            /// Every kind, in declaration (= export) order.
            pub const ALL: [CostKind; cost_kinds!(@count $($variant)*)] =
                [$(CostKind::$variant),*];

            /// Stable snake_case name used in exports and tables.
            pub const fn name(self) -> &'static str {
                match self { $(CostKind::$variant => $name),* }
            }

            /// The subsystem this kind is attributed to.
            pub const fn subsystem(self) -> Subsystem {
                match self { $(CostKind::$variant => Subsystem::$subsystem),* }
            }
        }
    };
    (@count) => { 0 };
    (@count $head:ident $($tail:ident)*) => { 1 + cost_kinds!(@count $($tail)*) };
}

cost_kinds! {
    // ---- CPU / privilege crossings ----
    /// One user→kernel→user system-call round trip.
    Syscall => ("syscall", Cpu),
    /// Page-fault exception entry + IRET, excluding the handler body.
    FaultTrap => ("fault_trap", Cpu),
    /// Fixed handler-body overhead per fault (VMA lookup, bookkeeping).
    FaultHandlerBase => ("fault_handler_base", Cpu),
    // ---- Memory device ----
    /// One cache-line-granularity DRAM read performed by a program.
    MemReadDram => ("mem_read_dram", Mem),
    /// One cache-line-granularity DRAM write performed by a program.
    MemWriteDram => ("mem_write_dram", Mem),
    /// One NVM read (3D XPoint-class persistent memory).
    MemReadNvm => ("mem_read_nvm", Mem),
    /// One NVM write (persistent memory; includes write-queue effects).
    MemWriteNvm => ("mem_write_nvm", Mem),
    /// Zeroing one 4 KiB page in DRAM.
    ZeroPageDram => ("zero_page_dram", Mem),
    /// Zeroing one 4 KiB page in NVM.
    ZeroPageNvm => ("zero_page_nvm", Mem),
    /// Copying one 4 KiB page (e.g., user↔kernel copy in `read()`).
    CopyPage => ("copy_page", Mem),
    // ---- Address translation ----
    /// TLB hit (effectively free; charged so counters stay honest).
    TlbHit => ("tlb_hit", Translation),
    /// One memory reference of the hardware page-table walker. A full
    /// 4-level walk costs 4 of these plus the TLB fill.
    PtwLevelRef => ("ptw_level_ref", Translation),
    /// Inserting a translation into the TLB after a walk.
    TlbFill => ("tlb_fill", Translation),
    /// Flushing one TLB entry locally (INVLPG-class).
    TlbInvlpg => ("tlb_invlpg", Translation),
    /// Flushing an entire address space's TLB entries.
    TlbFlushAsid => ("tlb_flush_asid", Translation),
    /// Remote-TLB shootdown cost per remote CPU (IPI + ack).
    TlbShootdownPercpu => ("tlb_shootdown_percpu", Translation),
    /// Range-TLB hit.
    RtlbHit => ("rtlb_hit", Translation),
    /// Walking the in-memory range table on a range-TLB miss
    /// (binary search over a compact table: ~2 memory references).
    RangeWalk => ("range_walk", Translation),
    /// Inserting an entry into the range TLB.
    RtlbFill => ("rtlb_fill", Translation),
    /// Hit in a hybrid mechanism's hashed, direct-mapped fast region:
    /// one probe of a flat in-memory table (single cache-line read +
    /// tag compare). Slightly above a TLB hit because the table lives
    /// in memory, far below a multi-level walk.
    HybridFastHit => ("hybrid_fast_hit", Translation),
    /// Installing a translation into the fast region after a page walk
    /// resolved it: one tag + PTE-sized payload write into the
    /// direct-mapped slot (possibly evicting the conflicting entry).
    HybridFastFill => ("hybrid_fast_fill", Translation),
    // ---- Page tables ----
    /// Writing one page-table entry.
    PteWrite => ("pte_write", PageTable),
    /// Allocating and initialising one page-table node (a 4 KiB frame).
    PtNodeAlloc => ("pt_node_alloc", PageTable),
    /// Freeing one page-table node.
    PtNodeFree => ("pt_node_free", PageTable),
    // ---- Physical allocators ----
    /// Buddy allocator: one order-0 allocation (fast path).
    BuddyAlloc => ("buddy_alloc", Alloc),
    /// Buddy allocator: extra cost per split/coalesce level.
    BuddyLevel => ("buddy_level", Alloc),
    /// Buddy allocator: one free.
    BuddyFree => ("buddy_free", Alloc),
    /// Extent/bitmap allocator: one allocation, independent of length.
    ExtentAlloc => ("extent_alloc", Alloc),
    /// Extent/bitmap allocator: one free, independent of length.
    ExtentFree => ("extent_free", Alloc),
    /// Slab allocator: one object allocation or free (fast path).
    SlabOp => ("slab_op", Alloc),
    /// Generating a fresh per-file encryption key (crypto-erase).
    KeyGen => ("key_gen", Alloc),
    /// Dropping a per-file encryption key on erase: zeroizing the key
    /// material and unhooking it from the keyring. O(1) regardless of
    /// file size — the whole point of crypto-erase.
    KeyDrop => ("key_drop", Alloc),
    // ---- VM bookkeeping ----
    /// Creating a VMA and linking it into the address-space tree.
    VmaCreate => ("vma_create", Vm),
    /// Looking up the VMA covering an address.
    VmaFind => ("vma_find", Vm),
    /// Removing a VMA.
    VmaDestroy => ("vma_destroy", Vm),
    /// Fixed `mmap` path cost beyond the syscall (fd/file resolution,
    /// accounting, security hooks).
    MmapFixed => ("mmap_fixed", Vm),
    /// Touching one page's `struct page` metadata (flags, LRU, counts).
    PageMetaUpdate => ("page_meta_update", Vm),
    /// Examining one page during a reclaim scan (clock).
    ReclaimScanPage => ("reclaim_scan_page", Vm),
    /// Writing one page to the swap device.
    SwapOutPage => ("swap_out_page", Vm),
    /// Reading one page back from the swap device (major-fault I/O).
    SwapInPage => ("swap_in_page", Vm),
    /// Pinning or unpinning one page for device access.
    PinPage => ("pin_page", Vm),
    /// Migrating one 4 KiB page between memory tiers: a streamed read
    /// of the source plus a streamed write of the destination, plus the
    /// PTE rewrite and tiering bookkeeping.
    PageMigrate => ("page_migrate", Vm),
    // ---- File system ----
    /// Path lookup of one name component.
    FsLookup => ("fs_lookup", Fs),
    /// Creating an inode.
    FsCreateInode => ("fs_create_inode", Fs),
    /// Removing an inode.
    FsRemoveInode => ("fs_remove_inode", Fs),
    /// Reading or updating one extent-tree entry.
    FsExtentOp => ("fs_extent_op", Fs),
    /// Appending one record to the metadata journal (NVM write + fence).
    JournalRecord => ("journal_record", Fs),
    /// Journal commit (fence + commit record).
    JournalCommit => ("journal_commit", Fs),
    /// Fixed `read()`/`write()` syscall body beyond the copy itself.
    FileIoFixed => ("file_io_fixed", Fs),
    // ---- Device DMA ----
    /// Streaming one 4 KiB page between memory and a device at device
    /// rate.
    DmaPage => ("dma_page", Dma),
    /// An IOMMU page fault: the device touched a page with no IOTLB
    /// entry (device stall + fault report + resume).
    IommuFault => ("iommu_fault", Dma),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for k in CostKind::ALL {
            assert!(seen.insert(k.name()), "duplicate kind name {}", k.name());
            assert!(
                k.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "kind name {} is not snake_case",
                k.name()
            );
        }
    }

    #[test]
    fn every_subsystem_has_a_kind() {
        for s in Subsystem::ALL {
            assert!(
                CostKind::ALL.iter().any(|k| k.subsystem() == s),
                "subsystem {} has no kinds",
                s.name()
            );
        }
    }

    #[test]
    fn discriminants_match_all_order() {
        for (i, k) in CostKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }
}
