//! A device DMA engine model.
//!
//! §2/§3.1: letting a device access memory "often requires locking the
//! page in memory; even devices that support page faults through an
//! IOMMU incur high penalties". This module models both paths:
//!
//! * a **pinned** transfer streams at device rate over a physical
//!   range the kernel guarantees immobile;
//! * an **IOMMU-faulting** transfer pays a fixed penalty every time
//!   the device touches a page whose IOTLB entry is absent — the high
//!   penalty the paper cites (modelled after the Intel VT-d numbers).
//!
//! File-only memory gets pinned-rate transfers for free, because
//! mapped file extents never move; the baseline must pin explicitly
//! (per page) or eat IOMMU faults.

use o1_obs::CostKind;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::machine::Machine;

/// IOTLB capacity in entries.
pub const IOTLB_ENTRIES: usize = 64;

/// How the kernel prepared the buffer for device access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmaMode {
    /// Pages are pinned (or implicitly immobile): full device rate.
    Pinned,
    /// Pages may fault through the IOMMU; each IOTLB miss stalls the
    /// device.
    IommuFaulting,
}

/// A DMA engine with a small IOTLB.
#[derive(Debug, Default)]
pub struct DmaEngine {
    /// Cached IOVA pages (FIFO eviction; device IOTLBs are simple).
    iotlb: std::collections::VecDeque<u64>,
    /// Total transfers performed.
    pub transfers: u64,
    /// Total IOMMU faults taken.
    pub iommu_faults: u64,
}

impl DmaEngine {
    /// New engine with a cold IOTLB.
    pub fn new() -> DmaEngine {
        DmaEngine::default()
    }

    /// Transfer `bytes` from physical memory starting at `pa` into the
    /// device (or vice versa — costs are symmetric). Charges one
    /// [`CostKind::DmaPage`] per page, plus one [`CostKind::IommuFault`] in
    /// [`DmaMode::IommuFaulting`] for every IOTLB miss.
    ///
    /// Returns the number of pages transferred.
    pub fn transfer(&mut self, m: &mut Machine, pa: PhysAddr, bytes: u64, mode: DmaMode) -> u64 {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        self.transfers += 1;
        for i in 0..pages {
            let page = (pa.0 + i * PAGE_SIZE) >> crate::addr::PAGE_SHIFT;
            if mode == DmaMode::IommuFaulting && !self.iotlb.contains(&page) {
                self.iommu_faults += 1;
                m.charge_kind(CostKind::IommuFault);
                if self.iotlb.len() >= IOTLB_ENTRIES {
                    self.iotlb.pop_front();
                }
                self.iotlb.push_back(page);
            }
            m.charge_kind(CostKind::DmaPage);
        }
        pages
    }

    /// Invalidate the IOTLB (unmap / domain switch).
    pub fn flush_iotlb(&mut self) {
        self.iotlb.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_transfer_streams_at_device_rate() {
        let mut m = Machine::dram_only(64 << 20);
        let mut dma = DmaEngine::new();
        let (pages, ns) = {
            let t0 = m.now();
            let p = dma.transfer(&mut m, PhysAddr(0), 1 << 20, DmaMode::Pinned);
            (p, m.now().since(t0))
        };
        assert_eq!(pages, 256);
        assert_eq!(ns, 256 * m.cost.unit(CostKind::DmaPage));
        assert_eq!(dma.iommu_faults, 0);
    }

    #[test]
    fn iommu_faults_dominate_cold_transfers() {
        let mut m = Machine::dram_only(64 << 20);
        let mut dma = DmaEngine::new();
        let t0 = m.now();
        dma.transfer(&mut m, PhysAddr(0), 1 << 20, DmaMode::IommuFaulting);
        let cold = m.now().since(t0);
        assert_eq!(dma.iommu_faults, 256);
        let page = m.cost.unit(CostKind::DmaPage);
        assert!(cold > 20 * 256 * page / 2, "faults dominate: {cold}");
        // A second pass over a small (IOTLB-resident) window is fast.
        dma.flush_iotlb();
        let small = 32 * PAGE_SIZE; // fits the 64-entry IOTLB
        dma.transfer(&mut m, PhysAddr(0), small, DmaMode::IommuFaulting);
        let t0 = m.now();
        dma.transfer(&mut m, PhysAddr(0), small, DmaMode::IommuFaulting);
        let warm = m.now().since(t0);
        assert_eq!(warm, 32 * page, "warm IOTLB = device rate");
    }

    #[test]
    fn iotlb_capacity_thrashes_on_big_ranges() {
        let mut m = Machine::dram_only(64 << 20);
        let mut dma = DmaEngine::new();
        // 1 MiB = 256 pages > 64 entries: the second pass still faults.
        dma.transfer(&mut m, PhysAddr(0), 1 << 20, DmaMode::IommuFaulting);
        let faults_first = dma.iommu_faults;
        dma.transfer(&mut m, PhysAddr(0), 1 << 20, DmaMode::IommuFaulting);
        assert_eq!(dma.iommu_faults, 2 * faults_first, "FIFO thrash");
    }

    #[test]
    fn zero_byte_transfer_still_moves_one_page() {
        let mut m = Machine::dram_only(64 << 20);
        let mut dma = DmaEngine::new();
        assert_eq!(dma.transfer(&mut m, PhysAddr(0), 0, DmaMode::Pinned), 1);
        assert_eq!(dma.transfers, 1);
    }
}
