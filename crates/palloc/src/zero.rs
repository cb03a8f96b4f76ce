//! Zeroing policies: making "erase" O(1).
//!
//! §3.1: *"for security purposes memory must be zeroed out before being
//! reused... This is currently a linear-time operation and suggests the
//! need for new techniques to efficiently erase memory in constant
//! time."* This module implements three policies as allocator wrappers
//! (each guarantees that every allocated extent reads as zeros):
//!
//! * [`EagerZero`] — the status quo: zero on the allocation critical
//!   path, O(size) foreground cost;
//! * [`ZeroPool`] — a Windows-style zeroed-page list: freed extents are
//!   zeroed by a background sweeper before re-entering the parent
//!   allocator, so the foreground cost is O(1) as long as the sweeper
//!   keeps up;
//! * [`CryptoZero`] — per-extent encryption keys: erase is a key drop,
//!   O(1) always; fresh extents read as zeros because old ciphertext
//!   is undecipherable under the new key.
//!
//! The A-ZERO ablation benchmark compares all three.

use o1_hw::CostKind;
use std::collections::VecDeque;

use o1_hw::Machine;

use crate::extent::{AllocError, FrameSource, PhysExtent};

fn zero_extent_fg(m: &mut Machine, ext: PhysExtent) {
    let tier = m.phys.tier(ext.start);
    m.charge_zero_fg(tier, ext.bytes());
    m.phys.zero_frames(ext.start, ext.frames);
}

/// Status-quo policy: zero every extent when it is allocated.
#[derive(Debug)]
pub struct EagerZero<P: FrameSource> {
    parent: P,
}

impl<P: FrameSource> EagerZero<P> {
    /// Wrap `parent`.
    pub fn new(parent: P) -> Self {
        EagerZero { parent }
    }
}

impl<P: FrameSource> FrameSource for EagerZero<P> {
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        let ext = self.parent.alloc(m, frames)?;
        zero_extent_fg(m, ext);
        Ok(ext)
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        let ext = self.parent.alloc_aligned(m, frames, align_frames)?;
        zero_extent_fg(m, ext);
        Ok(ext)
    }

    fn free(&mut self, m: &mut Machine, ext: PhysExtent) {
        self.parent.free(m, ext);
    }

    fn free_frames(&self) -> u64 {
        self.parent.free_frames()
    }
}

/// Background zeroed-extent pool.
///
/// Freed extents are parked on a dirty list and returned to the parent
/// only after a background sweep ([`ZeroPool::background_tick`]) has
/// zeroed them, so the parent only ever holds zeroed memory and the
/// allocation path pays no zeroing cost. If the parent runs dry while
/// dirty extents are parked, the allocation path falls back to zeroing
/// dirty extents in the foreground (and the counters show it).
#[derive(Debug)]
pub struct ZeroPool<P: FrameSource> {
    parent: P,
    dirty: VecDeque<PhysExtent>,
    dirty_frames: u64,
}

impl<P: FrameSource> ZeroPool<P> {
    /// Wrap `parent`, whose current free memory must already be zeroed
    /// (true at boot, when memory reads as zeros).
    pub fn new(parent: P) -> Self {
        ZeroPool {
            parent,
            dirty: VecDeque::new(),
            dirty_frames: 0,
        }
    }

    /// Frames parked awaiting background zeroing.
    pub fn dirty_frames(&self) -> u64 {
        self.dirty_frames
    }

    /// Zero up to `budget` frames of parked extents off the critical
    /// path, returning them to the parent. Returns frames processed.
    pub fn background_tick(&mut self, m: &mut Machine, budget: u64) -> u64 {
        let mut done = 0;
        while done < budget {
            let Some(ext) = self.dirty.pop_front() else {
                break;
            };
            // Partial extents are split so the budget is respected.
            let take = ext.frames.min(budget - done);
            let (head, tail) = if take == ext.frames {
                (ext, None)
            } else {
                (
                    PhysExtent::new(ext.start, take),
                    Some(PhysExtent::new(ext.start + take, ext.frames - take)),
                )
            };
            m.phys.zero_frames(head.start, head.frames);
            m.note_zero_bg(head.bytes());
            self.parent.free(m, head);
            self.dirty_frames -= head.frames;
            done += head.frames;
            if let Some(t) = tail {
                self.dirty.push_front(t);
            }
        }
        done
    }

    /// Foreground fallback: zero parked extents until at least
    /// `need_frames` have been returned to the parent.
    fn reclaim_fg(&mut self, m: &mut Machine, need_frames: u64) -> bool {
        let mut done = 0;
        while done < need_frames {
            let Some(ext) = self.dirty.pop_front() else {
                return false;
            };
            zero_extent_fg(m, ext);
            self.parent.free(m, ext);
            self.dirty_frames -= ext.frames;
            done += ext.frames;
        }
        true
    }
}

impl<P: FrameSource> FrameSource for ZeroPool<P> {
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        self.alloc_aligned(m, frames, 1)
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        loop {
            match self.parent.alloc_aligned(m, frames, align_frames) {
                Ok(ext) => return Ok(ext),
                Err(e) => {
                    // Sweeper fell behind: zero dirty extents inline.
                    if !self.reclaim_fg(m, frames) {
                        return Err(e);
                    }
                }
            }
        }
    }

    fn free(&mut self, _m: &mut Machine, ext: PhysExtent) {
        self.dirty_frames += ext.frames;
        self.dirty.push_back(ext);
    }

    fn free_frames(&self) -> u64 {
        // Dirty frames are not allocatable until swept.
        self.parent.free_frames()
    }
}

/// Crypto-erase: each extent is notionally encrypted under a fresh key;
/// dropping the key erases the data in O(1) regardless of size.
///
/// Modelled costs: key generation at allocation (constant), key drop at
/// free (constant). The simulator zeroes the backing at free time with
/// *no foreground charge* to reflect that the old bits are unreadable.
#[derive(Debug)]
pub struct CryptoZero<P: FrameSource> {
    parent: P,
    keys_live: u64,
    keys_dropped: u64,
}

/// Constant cost of dropping a key (ns).
const KEY_DROP_NS: u64 = 90;

impl<P: FrameSource> CryptoZero<P> {
    /// Wrap `parent`.
    pub fn new(parent: P) -> Self {
        CryptoZero {
            parent,
            keys_live: 0,
            keys_dropped: 0,
        }
    }

    /// Number of live per-extent keys.
    pub fn keys_live(&self) -> u64 {
        self.keys_live
    }

    /// Number of keys dropped (erase operations performed).
    pub fn keys_dropped(&self) -> u64 {
        self.keys_dropped
    }
}

impl<P: FrameSource> FrameSource for CryptoZero<P> {
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        let ext = self.parent.alloc(m, frames)?;
        m.charge_kind(CostKind::KeyGen);
        self.keys_live += 1;
        Ok(ext)
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        let ext = self.parent.alloc_aligned(m, frames, align_frames)?;
        m.charge_kind(CostKind::KeyGen);
        self.keys_live += 1;
        Ok(ext)
    }

    fn free(&mut self, m: &mut Machine, ext: PhysExtent) {
        m.charge_tagged(CostKind::KeyDrop, 1, KEY_DROP_NS);
        self.keys_live = self.keys_live.saturating_sub(1);
        self.keys_dropped += 1;
        // Old contents are ciphertext under a dropped key: unreadable.
        m.phys.zero_frames(ext.start, ext.frames);
        self.parent.free(m, ext);
    }

    fn free_frames(&self) -> u64 {
        self.parent.free_frames()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::ExtentAllocator;
    use o1_hw::{FrameNo, PhysAddr, PAGE_SIZE};

    fn machine() -> Machine {
        Machine::dram_only(64 << 20)
    }

    fn parent(frames: u64) -> ExtentAllocator {
        ExtentAllocator::new(PhysExtent::new(FrameNo(0), frames))
    }

    fn dirty_then_free<A: FrameSource>(m: &mut Machine, a: &mut A, frames: u64) -> PhysExtent {
        let e = a.alloc(m, frames).unwrap();
        m.phys.write(e.base(), &[0xab; 64]);
        a.free(m, e);
        e
    }

    #[test]
    fn eager_zero_charges_linear() {
        let mut m = machine();
        let mut a = EagerZero::new(parent(4096));
        let (_, one) = m.timed(|m| a.alloc(m, 1).unwrap());
        let (_, many) = m.timed(|m| a.alloc(m, 256).unwrap());
        assert!(many > 100 * one / 2, "eager zeroing is O(size)");
        assert_eq!(m.perf.bytes_zeroed_fg, 257 * PAGE_SIZE);
    }

    #[test]
    fn eager_zero_scrubs_reuse() {
        let mut m = machine();
        let mut a = EagerZero::new(parent(4096));
        let old = dirty_then_free(&mut m, &mut a, 4);
        let e = a.alloc(&mut m, 4).unwrap();
        assert_eq!(e.start, old.start, "best-fit reuses the same extent");
        assert!(m.phys.frame_is_zero(e.start));
    }

    #[test]
    fn pool_alloc_is_constant_time_when_swept() {
        let mut m = machine();
        let mut a = ZeroPool::new(parent(1 << 14));
        let (_, small) = m.timed(|m| a.alloc(m, 1).unwrap());
        let (_, large) = m.timed(|m| a.alloc(m, 4096).unwrap());
        assert_eq!(small, large, "no zeroing on the allocation path");
        assert_eq!(m.perf.bytes_zeroed_fg, 0);
    }

    #[test]
    fn pool_sweeper_zeroes_in_background() {
        let mut m = machine();
        let mut a = ZeroPool::new(parent(1024));
        let old = dirty_then_free(&mut m, &mut a, 8);
        assert_eq!(a.dirty_frames(), 8);
        let swept = a.background_tick(&mut m, 100);
        assert_eq!(swept, 8);
        assert_eq!(a.dirty_frames(), 0);
        assert!(m.phys.frame_is_zero(old.start));
        assert_eq!(m.perf.bytes_zeroed_bg, 8 * PAGE_SIZE);
        assert_eq!(m.perf.bytes_zeroed_fg, 0);
    }

    #[test]
    fn pool_budget_respected() {
        let mut m = machine();
        let mut a = ZeroPool::new(parent(1024));
        let e = a.alloc(&mut m, 100).unwrap();
        a.free(&mut m, e);
        assert_eq!(a.background_tick(&mut m, 30), 30);
        assert_eq!(a.dirty_frames(), 70);
        assert_eq!(a.background_tick(&mut m, 1000), 70);
    }

    #[test]
    fn pool_falls_back_to_foreground_under_pressure() {
        let mut m = machine();
        let mut a = ZeroPool::new(parent(64));
        let e = a.alloc(&mut m, 64).unwrap();
        a.free(&mut m, e);
        // No background sweep has run; allocation must still succeed,
        // paying the zeroing cost in the foreground.
        let e2 = a.alloc(&mut m, 32).unwrap();
        assert_eq!(e2.frames, 32);
        assert!(m.perf.bytes_zeroed_fg > 0);
    }

    #[test]
    fn pool_true_oom_still_errors() {
        let mut m = machine();
        let mut a = ZeroPool::new(parent(16));
        let _held = a.alloc(&mut m, 16).unwrap();
        assert!(a.alloc(&mut m, 1).is_err());
    }

    #[test]
    fn crypto_erase_is_constant_time() {
        let mut m = machine();
        let mut a = CryptoZero::new(parent(1 << 14));
        let small = a.alloc(&mut m, 1).unwrap();
        let large = a.alloc(&mut m, 8192).unwrap();
        m.phys.write(large.base(), b"secret");
        let (_, free_small) = m.timed(|m| a.free(m, small));
        let (_, free_large) = m.timed(|m| a.free(m, large));
        assert_eq!(free_small, free_large, "key drop is O(1)");
        assert_eq!(a.keys_dropped(), 2);
        // Erased data is unreadable (reads as zero).
        assert!(m.phys.frame_is_zero(large.start));
        assert_eq!(m.perf.bytes_zeroed_fg, 0);
    }

    #[test]
    fn crypto_alloc_pays_key_gen() {
        let mut m = machine();
        let mut a = CryptoZero::new(parent(1024));
        let (_, ns) = m.timed(|m| a.alloc(m, 512).unwrap());
        assert_eq!(ns, m.cost.extent_alloc + m.cost.key_gen);
        assert_eq!(a.keys_live(), 1);
    }

    #[test]
    fn all_policies_return_zeroed_memory() {
        let mut m = machine();
        // Eager.
        let mut ea = EagerZero::new(parent(256));
        dirty_then_free(&mut m, &mut ea, 2);
        let e = ea.alloc(&mut m, 2).unwrap();
        assert!(m.phys.frame_is_zero(e.start));
        // Pool (with sweeping).
        let mut zp = ZeroPool::new(ExtentAllocator::new(PhysExtent::new(FrameNo(256), 256)));
        dirty_then_free(&mut m, &mut zp, 2);
        zp.background_tick(&mut m, 100);
        let e = zp.alloc(&mut m, 2).unwrap();
        assert!(m.phys.frame_is_zero(e.start));
        // Crypto.
        let mut cz = CryptoZero::new(ExtentAllocator::new(PhysExtent::new(FrameNo(512), 256)));
        dirty_then_free(&mut m, &mut cz, 2);
        let e = cz.alloc(&mut m, 2).unwrap();
        assert!(m.phys.frame_is_zero(e.start));
        let _ = PhysAddr(0);
    }
}
