//! Page reclaim machinery: swap device and LRU approximation lists.
//!
//! The paper's point (§3.1): with ample persistent memory "there is no
//! need to track the clean/dirty/referenced status of most memory,
//! which avoids the need for page reclamation algorithms (e.g., clock,
//! 2-queue)". To *measure* what is avoided, the baseline implements a
//! clock list. The A-RECLAIM ablation charges every page the scan
//! examines.

use o1_hw::CostKind;
use std::collections::VecDeque;

use o1_hw::{FastMap, FastSet, FrameImage, FrameNo, Machine};

/// A slot on the swap device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwapSlot(pub u64);

/// Simulated swap device: stores page images, charges I/O costs.
#[derive(Debug, Default)]
pub struct SwapDevice {
    /// Keyed by slot number — a trusted, kernel-issued fixed-width
    /// id, so the fast hasher is safe (and hot: one probe per page
    /// swapped either way).
    slots: FastMap<u64, FrameImage>,
    next: u64,
    free: Vec<u64>,
}

impl SwapDevice {
    /// Empty device.
    pub fn new() -> SwapDevice {
        SwapDevice::default()
    }

    /// Pages currently stored.
    pub fn used_slots(&self) -> usize {
        self.slots.len()
    }

    /// Write one page image out, charging swap-out I/O. The image is
    /// stored as moved (possibly sparse) backing, so swapping a
    /// lightly-written frame costs the host nothing page-sized.
    pub fn swap_out(&mut self, m: &mut Machine, data: FrameImage) -> SwapSlot {
        m.charge_kind(CostKind::SwapOutPage);
        m.perf.pages_swapped_out += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next;
            self.next += 1;
            s
        });
        self.slots.insert(slot, data);
        SwapSlot(slot)
    }

    /// Read a page image back, charging swap-in I/O. The slot is
    /// freed.
    ///
    /// # Panics
    /// Panics on an unknown slot (kernel bug).
    pub fn swap_in(&mut self, m: &mut Machine, slot: SwapSlot) -> FrameImage {
        m.charge_kind(CostKind::SwapInPage);
        m.perf.pages_swapped_in += 1;
        let data = self
            .slots
            .remove(&slot.0)
            .unwrap_or_else(|| panic!("swap-in of empty slot {slot:?}"));
        self.free.push(slot.0);
        data
    }

    /// Discard a slot without reading it (process exit).
    pub fn discard(&mut self, slot: SwapSlot) {
        if self.slots.remove(&slot.0).is_some() {
            self.free.push(slot.0);
        }
    }
}

/// Which LRU approximation the kernel runs. Clock is the only one;
/// the enum and [`BaselineConfig::reclaim`](crate::BaselineConfig::reclaim)
/// stay because the host benchmark (`hostbench/src/kernels.rs`) names
/// both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReclaimPolicy {
    /// Single clock list with a second-chance hand.
    Clock,
}

/// What the kernel should do with a scanned candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanDecision {
    /// Referenced since last scan: give a second chance.
    Rotate,
    /// Unreferenced: evict now.
    Evict,
}

/// LRU bookkeeping over frames: one clock list. Membership is tracked
/// with a set so removal is O(1) amortised (dead entries are skipped
/// lazily).
#[derive(Debug, Default)]
pub struct LruLists {
    clock: VecDeque<FrameNo>,
    /// Keyed by frame number — trusted fixed-width hardware ids,
    /// probed once per scanned candidate, so the fast hasher is safe.
    member: FastSet<FrameNo>,
}

impl LruLists {
    /// Frames currently tracked.
    pub fn len(&self) -> usize {
        self.member.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A newly-mapped frame enters the list tail.
    pub fn insert(&mut self, frame: FrameNo) {
        if !self.member.contains(&frame) {
            self.clock.push_back(frame);
            self.member.insert(frame);
        }
    }

    /// Remove a frame (freed or evicted). Lazy: the queue entry is
    /// skipped when it surfaces.
    pub fn remove(&mut self, frame: FrameNo) {
        self.member.remove(&frame);
    }

    /// Next candidate frame to examine, or `None` if the list is
    /// empty. The caller decides (based on referenced bits) and feeds
    /// the verdict back via [`LruLists::verdict`].
    pub fn next_candidate(&mut self) -> Option<FrameNo> {
        while let Some(f) = self.clock.pop_front() {
            if self.member.remove(&f) {
                return Some(f);
            }
            // A dead entry: skip it.
        }
        None
    }

    /// Report the decision for a candidate from
    /// [`LruLists::next_candidate`]. `Rotate` re-queues it at the
    /// tail; `Evict` drops it.
    pub fn verdict(&mut self, frame: FrameNo, d: ScanDecision) {
        if d == ScanDecision::Rotate {
            self.clock.push_back(frame);
            self.member.insert(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_hw::PAGE_SIZE;

    #[test]
    fn swap_roundtrip() {
        let mut m = Machine::dram_only(1 << 20);
        let mut s = SwapDevice::new();
        let data = FrameImage::from_page(vec![7u8; PAGE_SIZE as usize].into_boxed_slice());
        let slot = s.swap_out(&mut m, data);
        assert_eq!(s.used_slots(), 1);
        let back = s.swap_in(&mut m, slot);
        assert!(back.to_page().iter().all(|&b| b == 7));
        assert_eq!(s.used_slots(), 0);
        assert_eq!(m.perf.pages_swapped_out, 1);
        assert_eq!(m.perf.pages_swapped_in, 1);
        // Slot numbers are recycled.
        let slot2 = s.swap_out(
            &mut m,
            FrameImage::from_page(vec![1u8; PAGE_SIZE as usize].into_boxed_slice()),
        );
        assert_eq!(slot2, slot);
    }

    #[test]
    fn swap_io_has_device_costs() {
        let mut m = Machine::dram_only(1 << 20);
        let mut s = SwapDevice::new();
        let (slot, out_ns) = m.timed(|m| s.swap_out(m, FrameImage::default()));
        assert_eq!(out_ns, m.cost.unit(CostKind::SwapOutPage));
        let (_, in_ns) = m.timed(|m| s.swap_in(m, slot));
        assert_eq!(in_ns, m.cost.unit(CostKind::SwapInPage));
    }

    #[test]
    fn discard_frees_slot() {
        let mut m = Machine::dram_only(1 << 20);
        let mut s = SwapDevice::new();
        let slot = s.swap_out(&mut m, FrameImage::default());
        s.discard(slot);
        assert_eq!(s.used_slots(), 0);
    }

    #[test]
    fn clock_rotation_gives_second_chance() {
        let mut l = LruLists::default();
        l.insert(FrameNo(1));
        l.insert(FrameNo(2));
        let c = l.next_candidate().unwrap();
        assert_eq!(c, FrameNo(1));
        l.verdict(c, ScanDecision::Rotate);
        assert_eq!(l.next_candidate().unwrap(), FrameNo(2));
        // Frame 1 comes back around after rotation.
        l.verdict(FrameNo(2), ScanDecision::Evict);
        assert_eq!(l.next_candidate().unwrap(), FrameNo(1));
        l.verdict(FrameNo(1), ScanDecision::Evict);
        assert!(l.next_candidate().is_none());
    }

    #[test]
    fn removal_is_lazy_but_effective() {
        let mut l = LruLists::default();
        l.insert(FrameNo(1));
        l.insert(FrameNo(2));
        l.remove(FrameNo(1));
        assert_eq!(l.len(), 1);
        assert_eq!(l.next_candidate().unwrap(), FrameNo(2));
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut l = LruLists::default();
        l.insert(FrameNo(1));
        l.insert(FrameNo(1));
        assert_eq!(l.len(), 1);
    }
}
