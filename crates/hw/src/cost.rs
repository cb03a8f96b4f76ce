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
//! and that is exactly what this model computes: one price per
//! [`CostKind`], and every clock advance is a count of one kind at its
//! price ([`Machine::charge_kind`](crate::machine::Machine::charge_kind),
//! [`Machine::charge_opn`](crate::machine::Machine::charge_opn)). Each
//! machine carries its own table, so experiments can run sensitivity
//! sweeps ([`CostModel::with`]).

use o1_obs::CostKind;

/// Per-operation costs in nanoseconds: one price per [`CostKind`].
///
/// See the module documentation for the calibration sources and
/// [`CostKind`] for what each primitive is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    ns: [u64; CostKind::ALL.len()],
}

/// The tmpfs-on-DRAM prices, one row per kind in [`CostKind`] order.
/// Built at compile time, which also proves every kind priced once.
const TMPFS_DRAM: CostModel = CostModel::priced([
    // ---- CPU / privilege crossings ----
    (CostKind::Syscall, 500),
    (CostKind::FaultTrap, 2000),
    (CostKind::FaultHandlerBase, 400),
    // ---- Memory device ----
    (CostKind::MemReadDram, 20),
    (CostKind::MemWriteDram, 25),
    (CostKind::MemReadNvm, 60),
    (CostKind::MemWriteNvm, 180),
    (CostKind::ZeroPageDram, 250),
    (CostKind::ZeroPageNvm, 850),
    (CostKind::CopyPage, 400),
    // ---- Address translation ----
    (CostKind::TlbHit, 1),
    // Paging-structure caches keep most walk references on-chip,
    // so an average walk level costs well under a DRAM access.
    (CostKind::PtwLevelRef, 8),
    (CostKind::TlbFill, 5),
    (CostKind::TlbInvlpg, 120),
    (CostKind::TlbFlushAsid, 250),
    (CostKind::TlbShootdownPercpu, 900),
    (CostKind::RtlbHit, 1),
    (CostKind::RangeWalk, 16),
    (CostKind::RtlbFill, 5),
    // One hashed probe of a flat restrictive-region table
    // (Utopia-style): a cache-line read + tag compare. Twice
    // a TLB hit, an order of magnitude under a 4-level walk
    // (4 * ptw_level_ref + tlb_fill = 37).
    (CostKind::HybridFastHit, 2),
    // Tag + payload store into the direct-mapped slot; no
    // allocation, no tree maintenance.
    (CostKind::HybridFastFill, 8),
    // ---- Page tables ----
    (CostKind::PteWrite, 55),
    (CostKind::PtNodeAlloc, 320),
    (CostKind::PtNodeFree, 150),
    // ---- Physical allocators ----
    (CostKind::BuddyAlloc, 130),
    (CostKind::BuddyLevel, 25),
    (CostKind::BuddyFree, 110),
    (CostKind::ExtentAlloc, 260),
    (CostKind::ExtentFree, 200),
    (CostKind::SlabOp, 45),
    (CostKind::KeyGen, 320),
    // Zeroize 32 bytes of key material + keyring unlink —
    // cheaper than generating (no entropy pool round trip).
    (CostKind::KeyDrop, 90),
    // ---- VM bookkeeping ----
    (CostKind::VmaCreate, 900),
    (CostKind::VmaFind, 140),
    (CostKind::VmaDestroy, 500),
    // Calibrated so MAP_PRIVATE ≈ 8 µs.
    (CostKind::MmapFixed, 6600),
    (CostKind::PageMetaUpdate, 40),
    (CostKind::ReclaimScanPage, 70),
    (CostKind::SwapOutPage, 9000),
    (CostKind::SwapInPage, 12000),
    (CostKind::PinPage, 180),
    // 4 KiB tier migration ≈ sequential 4 KiB NVM write (the
    // bound; cf. zero_page_nvm = 850) + 4 KiB DRAM read + PTE
    // rewrite + bookkeeping. Far below swap_out_page (9000):
    // NVM is memory, not a block device.
    (CostKind::PageMigrate, 1500),
    // ---- File system ----
    (CostKind::FsLookup, 650),
    (CostKind::FsCreateInode, 1400),
    (CostKind::FsRemoveInode, 900),
    (CostKind::FsExtentOp, 120),
    (CostKind::JournalRecord, 500),
    (CostKind::JournalCommit, 700),
    (CostKind::FileIoFixed, 600),
    // ---- Device DMA ----
    // Device rate ~8 GB/s.
    (CostKind::DmaPage, 500),
    // Modelled after the Intel VT-d fault numbers.
    (CostKind::IommuFault, 10_000),
]);

impl CostModel {
    /// A model from one `(kind, ns)` row per kind.
    ///
    /// # Panics
    /// Panics (at compile time in a `const`) unless row `i` prices the
    /// `i`-th kind of [`CostKind::ALL`].
    const fn priced(rows: [(CostKind, u64); CostKind::ALL.len()]) -> Self {
        let mut ns = [0; CostKind::ALL.len()];
        let mut i = 0;
        while i < ns.len() {
            assert!(
                rows[i].0 as usize == i,
                "price rows must follow CostKind order"
            );
            ns[i] = rows[i].1;
            i += 1;
        }
        CostModel { ns }
    }

    /// Cost model for a tmpfs-on-DRAM machine, matching the paper's
    /// TMPFS measurements.
    pub fn tmpfs_dram() -> Self {
        TMPFS_DRAM
    }

    /// Cost model matching the companion report's DAX measurements:
    /// identical structure, but the fixed `mmap` path is roughly twice
    /// as expensive (≈ 15 µs vs ≈ 8 µs) and data lives in NVM.
    pub fn dax_nvm() -> Self {
        Self::tmpfs_dram().with(CostKind::MmapFixed, 13_900)
    }

    /// This model with `kind` repriced at `ns` (presets and
    /// sensitivity sweeps).
    pub fn with(mut self, kind: CostKind, ns: u64) -> Self {
        self.ns[kind as usize] = ns;
        self
    }

    /// Unit cost of one primitive of `kind`.
    #[inline]
    pub fn unit(&self, kind: CostKind) -> u64 {
        self.ns[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CostKind::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CostModel::tmpfs_dram();
        // MAP_PRIVATE mmap ≈ 8 µs: syscall + mmap_fixed + vma_create.
        let mmap_private = c.unit(Syscall) + c.unit(MmapFixed) + c.unit(VmaCreate);
        assert!(
            (7_000..9_000).contains(&mmap_private),
            "mmap_private = {mmap_private} ns, want ≈ 8 µs"
        );
        // DAX mmap ≈ 15 µs.
        let d = CostModel::dax_nvm();
        let mmap_dax = d.unit(Syscall) + d.unit(MmapFixed) + d.unit(VmaCreate);
        assert!(
            (14_000..16_000).contains(&mmap_dax),
            "mmap_dax = {mmap_dax} ns, want ≈ 15 µs"
        );
        // Minor fault ≈ 2 µs before per-page work.
        assert!((1_500..2_500).contains(&(c.unit(FaultTrap) + c.unit(FaultHandlerBase))));
    }

    #[test]
    fn demand_vs_populate_ratio_exceeds_50x() {
        // The figure-1b claim: touching each page of a demand-mapped
        // file costs > 50x touching a pre-populated one. Per page:
        // demand = fault + handler + alloc + zero + pte + walk;
        // populate-read = TLB miss walk only.
        let c = CostModel::tmpfs_dram();
        let walk = 4 * c.unit(PtwLevelRef) + c.unit(TlbFill);
        let demand = [
            FaultTrap,
            FaultHandlerBase,
            VmaFind,
            BuddyAlloc,
            ZeroPageDram,
            PteWrite,
            PageMetaUpdate,
        ]
        .map(|k| c.unit(k))
        .iter()
        .sum::<u64>()
            + walk;
        assert!(
            demand > 50 * walk,
            "demand {demand} vs populated {walk}: ratio {}",
            demand / walk
        );
    }

    #[test]
    fn nvm_writes_cost_more_than_dram() {
        let c = CostModel::tmpfs_dram();
        assert!(c.unit(MemWriteNvm) > 2 * c.unit(MemWriteDram));
        assert!(c.unit(MemReadNvm) > c.unit(MemReadDram));
    }

    #[test]
    fn every_kind_has_a_price_and_with_reprices_one() {
        let c = CostModel::tmpfs_dram();
        for k in CostKind::ALL {
            assert!(c.unit(k) > 0, "{} is unpriced", k.name());
        }
        let d = c.clone().with(KeyDrop, 7);
        assert_eq!(d.unit(KeyDrop), 7);
        assert!(CostKind::ALL
            .iter()
            .all(|&k| k == KeyDrop || d.unit(k) == c.unit(k)));
    }
}
