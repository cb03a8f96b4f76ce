//! Utopia-style hashed fast region (arXiv:2211.12205).
//!
//! Utopia splits the address space between a *restrictive* region —
//! translated by a flat, hashed, direct-mapped table the hardware can
//! probe in one or two references — and a *flexible* region served by
//! conventional page tables. This module models the restrictive side:
//! a direct-mapped array of `(asid, vpage) → frame` slots indexed by a
//! multiplicative hash. A probe either hits (one tag compare, priced
//! as [`o1_obs::CostKind::HybridFastHit`]) or misses and falls
//! back to the page-table walker; a fill after a successful walk
//! writes tag + payload ([`o1_obs::CostKind::HybridFastFill`])
//! and evicts whatever the slot held — the direct-mapped conflict
//! eviction *is* the residency policy.
//!
//! The structure holds no costs itself: callers charge through the
//! [`Machine`](crate::Machine) so the ledger stays conservative.

use crate::addr::FrameNo;
use crate::pagetable::PteFlags;
use crate::tlb::Asid;

/// One resident restrictive-region translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FastSlot {
    asid: Asid,
    vpage: u64,
    frame: FrameNo,
    flags: PteFlags,
}

/// Direct-mapped, hash-indexed fast translation region.
///
/// Capacity is rounded up to a power of two so indexing is a mask; a
/// capacity of zero models "no fast region" (every probe misses).
#[derive(Debug)]
pub struct FastRegion {
    slots: Vec<Option<FastSlot>>,
}

impl FastRegion {
    /// A fast region with (at least) `slots` direct-mapped entries.
    pub fn new(slots: usize) -> FastRegion {
        FastRegion {
            slots: vec![None; slots.next_power_of_two() * usize::from(slots > 0)],
        }
    }

    /// Number of direct-mapped slots (0 = region disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a translation.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Deterministic multiplicative hash of the tag — the simulated
    /// stand-in for Utopia's hashed index function.
    fn slot_of(&self, asid: Asid, vpage: u64) -> usize {
        let mut h = vpage.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= u64::from(asid.0).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        (h as usize) & (self.slots.len() - 1)
    }

    /// Probe the region. Hit iff the indexed slot's tag matches.
    pub fn lookup(&self, asid: Asid, vpage: u64) -> Option<(FrameNo, PteFlags)> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.slot_of(asid, vpage)]
            .filter(|s| s.asid == asid && s.vpage == vpage)
            .map(|s| (s.frame, s.flags))
    }

    /// Install a translation, evicting the slot's previous occupant
    /// (direct-mapped). Returns true when an unrelated entry was
    /// evicted.
    pub fn insert(&mut self, asid: Asid, vpage: u64, frame: FrameNo, flags: PteFlags) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let idx = self.slot_of(asid, vpage);
        let evicted = self.slots[idx].is_some_and(|s| s.asid != asid || s.vpage != vpage);
        self.slots[idx] = Some(FastSlot {
            asid,
            vpage,
            frame,
            flags,
        });
        evicted
    }

    /// Drop every translation tagged with `asid` (ASID shootdown).
    pub fn remove_asid(&mut self, asid: Asid) {
        for slot in &mut self.slots {
            if slot.is_some_and(|s| s.asid == asid) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_asid_isolation() {
        let mut fr = FastRegion::new(64);
        assert_eq!(fr.capacity(), 64);
        let (a1, a2) = (Asid(1), Asid(2));
        fr.insert(a1, 7, FrameNo(100), PteFlags::user_rw());
        assert_eq!(fr.lookup(a1, 7), Some((FrameNo(100), PteFlags::user_rw())));
        assert_eq!(fr.lookup(a2, 7), None, "tags include the ASID");
        fr.remove_asid(a1);
        assert_eq!(fr.lookup(a1, 7), None);
        assert_eq!(fr.occupied(), 0);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut fr = FastRegion::new(1);
        let a = Asid(3);
        assert!(!fr.insert(a, 1, FrameNo(1), PteFlags::user_ro()));
        // Same slot, different tag: the newcomer wins.
        assert!(fr.insert(a, 2, FrameNo(2), PteFlags::user_ro()));
        assert_eq!(fr.lookup(a, 1), None);
        assert_eq!(fr.lookup(a, 2), Some((FrameNo(2), PteFlags::user_ro())));
        // Re-inserting the resident tag is a refresh, not an eviction.
        assert!(!fr.insert(a, 2, FrameNo(9), PteFlags::user_rw()));
        assert_eq!(fr.lookup(a, 2), Some((FrameNo(9), PteFlags::user_rw())));
    }

    #[test]
    fn zero_capacity_region_is_inert() {
        let mut fr = FastRegion::new(0);
        assert_eq!(fr.capacity(), 0);
        assert!(!fr.insert(Asid(1), 5, FrameNo(5), PteFlags::user_rw()));
        assert_eq!(fr.lookup(Asid(1), 5), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FastRegion::new(100).capacity(), 128);
        assert_eq!(FastRegion::new(1).capacity(), 1);
    }
}
