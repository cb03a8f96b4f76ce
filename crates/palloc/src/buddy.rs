//! Binary buddy allocator — the Linux-style baseline.
//!
//! This is the allocator the paper's *status quo* uses: allocations are
//! rounded up to a power-of-two block, blocks split on allocation and
//! coalesce with their buddy on free. Per-allocation cost grows with
//! the number of split/coalesce levels, and — crucially for the paper's
//! argument — the conventional kernel calls it *once per page* when
//! populating a region, which is where the linear cost in Figure 1a
//! comes from.

use o1_hw::{CostKind, FastMap};
use std::collections::BTreeSet;

use o1_hw::{FrameNo, Machine};

use crate::extent::{AllocError, FrameSource, PhysExtent};

/// Largest block order supported: 2^18 frames = 1 GiB.
pub const MAX_ORDER: u32 = 18;

/// Binary buddy allocator over a span of frames.
#[derive(Debug)]
pub struct BuddyAllocator {
    /// Free blocks per order, keyed by start frame.
    free_lists: Vec<BTreeSet<u64>>,
    /// Order of each outstanding allocation, for free(). Keyed by
    /// trusted fixed-width frame numbers the allocator itself issued,
    /// so the fast hasher is safe; probed once per alloc and free.
    allocated: FastMap<u64, u32>,
    base: u64,
    span_frames: u64,
    free: u64,
}

impl BuddyAllocator {
    /// The frame range this allocator manages.
    pub fn span(&self) -> PhysExtent {
        PhysExtent::new(FrameNo(self.base), self.span_frames)
    }

    /// Manage `span` (initially all free). The span need not be a
    /// power of two; it is tiled greedily with aligned blocks.
    pub fn new(span: PhysExtent) -> BuddyAllocator {
        assert!(span.frames > 0, "empty span");
        let mut b = BuddyAllocator {
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            allocated: FastMap::default(),
            base: span.start.0,
            span_frames: span.frames,
            free: span.frames,
        };
        // Tile the span with maximal naturally-aligned blocks.
        let mut at = span.start.0;
        let end = span.end().0;
        while at < end {
            let align_order = if at == 0 {
                MAX_ORDER
            } else {
                at.trailing_zeros().min(MAX_ORDER)
            };
            let fit_order = (64 - (end - at).leading_zeros() - 1).min(MAX_ORDER);
            let order = align_order.min(fit_order);
            b.free_lists[order as usize].insert(at);
            at += 1 << order;
        }
        b
    }

    /// Allocate one 2^order block, splitting larger blocks as needed.
    /// Charges the buddy fast-path cost plus one level cost per split.
    pub fn alloc_order(&mut self, m: &mut Machine, order: u32) -> Result<PhysExtent, AllocError> {
        assert!(order <= MAX_ORDER, "order {order} too large");
        // Find the smallest order with a free block.
        let found = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty());
        let Some(mut at_order) = found else {
            return Err(AllocError::OutOfMemory {
                requested: 1 << order,
            });
        };
        let start = *self.free_lists[at_order as usize]
            .iter()
            .next()
            .expect("nonempty");
        self.free_lists[at_order as usize].remove(&start);
        m.charge_kind(CostKind::BuddyAlloc);
        // Split down to the requested order.
        while at_order > order {
            at_order -= 1;
            m.charge_kind(CostKind::BuddyLevel);
            let buddy = start + (1u64 << at_order);
            self.free_lists[at_order as usize].insert(buddy);
        }
        let frames = 1u64 << order;
        self.allocated.insert(start, order);
        self.free -= frames;
        m.perf.alloc_calls += 1;
        m.perf.frames_alloced += frames;
        Ok(PhysExtent::new(FrameNo(start), frames))
    }

    /// Allocate a single frame — the per-page hot path the baseline
    /// kernel hits on every demand fault and every populated page.
    pub fn alloc_one(&mut self, m: &mut Machine) -> Result<PhysExtent, AllocError> {
        self.alloc_order(m, 0)
    }

    /// Allocate `n` single frames exactly as `n` [`alloc_one`] calls
    /// would — same frames in the same order, same splits, same free
    /// lists and allocation map afterwards — but with one aggregate
    /// charge block instead of per-call charges (the ledger sums
    /// `(phase, kind)` rows, so the bytes are identical). `sink` is
    /// called once per allocation, in allocation order, with the
    /// frame, its split count (so the fault-run path can group
    /// equal-latency pages when recording histograms) and the machine
    /// on loan so the caller can zero/map/write each frame as it
    /// appears. No frame vector is built, which keeps the
    /// bulk-populate path free of host heap allocations that the
    /// host-memory self-observation figures would otherwise see.
    ///
    /// Fails with no state change and no charge unless all `n` frames
    /// fit; callers clamp `n` to [`free_frames`] first so a fused run
    /// never diverges from where the interpreter would hit pressure.
    ///
    /// [`alloc_one`]: Self::alloc_one
    /// [`free_frames`]: FrameSource::free_frames
    pub fn alloc_run_with(
        &mut self,
        m: &mut Machine,
        n: u64,
        mut sink: impl FnMut(&mut Machine, FrameNo, u32),
    ) -> Result<(), AllocError> {
        if n > self.free {
            return Err(AllocError::OutOfMemory { requested: n });
        }
        if n == 0 {
            return Ok(());
        }
        let mut total_splits = 0u64;
        for _ in 0..n {
            let mut at_order = (0..=MAX_ORDER)
                .find(|&o| !self.free_lists[o as usize].is_empty())
                .expect("free count positive but no free block");
            let start = *self.free_lists[at_order as usize]
                .iter()
                .next()
                .expect("nonempty");
            self.free_lists[at_order as usize].remove(&start);
            let mut splits = 0u32;
            while at_order > 0 {
                at_order -= 1;
                splits += 1;
                let buddy = start + (1u64 << at_order);
                self.free_lists[at_order as usize].insert(buddy);
            }
            self.allocated.insert(start, 0);
            self.free -= 1;
            total_splits += u64::from(splits);
            sink(m, FrameNo(start), splits);
        }
        m.charge_opn(CostKind::BuddyAlloc, n);
        if total_splits > 0 {
            m.charge_opn(CostKind::BuddyLevel, total_splits);
        }
        m.perf.alloc_calls += n;
        m.perf.frames_alloced += n;
        Ok(())
    }

    /// Free a block returned by [`alloc_order`](Self::alloc_order),
    /// coalescing with free buddies.
    ///
    /// # Panics
    /// Panics on double free or on freeing an unknown block.
    pub fn free_block(&mut self, m: &mut Machine, ext: PhysExtent) {
        let order = self
            .allocated
            .remove(&ext.start.0)
            .unwrap_or_else(|| panic!("free of unallocated block {ext:?}"));
        assert_eq!(
            1u64 << order,
            ext.frames,
            "size mismatch on free of {ext:?}"
        );
        m.charge_kind(CostKind::BuddyFree);
        m.perf.frames_freed += ext.frames;
        self.free += ext.frames;
        let mut start = ext.start.0;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            m.charge_kind(CostKind::BuddyLevel);
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start);
    }

    /// Number of free blocks at `order` (diagnostics).
    pub fn free_blocks_at(&self, order: u32) -> usize {
        self.free_lists[order as usize].len()
    }
}

impl FrameSource for BuddyAllocator {
    /// Allocate `frames` contiguous frames by rounding up to the next
    /// power-of-two block, as the Linux buddy does. The unused tail is
    /// wasted until free — the space-for-time trade the paper accepts.
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        assert!(frames > 0, "zero-length allocation");
        let order = frames.next_power_of_two().trailing_zeros();
        if order > MAX_ORDER {
            return Err(AllocError::OutOfMemory { requested: frames });
        }
        self.alloc_order(m, order)
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        assert!(align_frames.is_power_of_two());
        // Buddy blocks are naturally aligned to their size, so
        // allocating max(size, align) guarantees alignment.
        let want = frames.next_power_of_two().max(align_frames);
        self.alloc(m, want)
    }

    fn free(&mut self, m: &mut Machine, ext: PhysExtent) {
        self.free_block(m, ext);
    }

    fn free_frames(&self) -> u64 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::dram_only(1 << 30)
    }

    fn buddy(frames: u64) -> BuddyAllocator {
        BuddyAllocator::new(PhysExtent::new(FrameNo(0), frames))
    }

    #[test]
    fn alloc_one_and_free() {
        let mut m = machine();
        let mut b = buddy(1024);
        let e = b.alloc_one(&mut m).unwrap();
        assert_eq!(e.frames, 1);
        assert_eq!(b.free_frames(), 1023);
        b.free_block(&mut m, e);
        assert_eq!(b.free_frames(), 1024);
    }

    #[test]
    fn blocks_are_naturally_aligned() {
        let mut m = machine();
        let mut b = buddy(1 << 12);
        for order in [0u32, 3, 5, 9] {
            let e = b.alloc_order(&mut m, order).unwrap();
            assert_eq!(e.start.0 % (1 << order), 0, "order {order} misaligned");
        }
    }

    #[test]
    fn coalescing_restores_full_block() {
        let mut m = machine();
        let mut b = buddy(16);
        let all: Vec<_> = (0..16).map(|_| b.alloc_one(&mut m).unwrap()).collect();
        assert_eq!(b.free_frames(), 0);
        assert!(b.alloc_one(&mut m).is_err());
        for e in all {
            b.free_block(&mut m, e);
        }
        assert_eq!(b.free_frames(), 16);
        assert_eq!(b.free_blocks_at(4), 1, "coalesced to one order-4 block");
    }

    #[test]
    fn split_costs_grow_with_distance() {
        // Allocating order 0 from a pristine large region costs more
        // than when small blocks already exist (Linux-like behaviour).
        let mut m = machine();
        let mut b = buddy(1 << 12);
        let (_, first) = m.timed(|m| b.alloc_one(m).unwrap());
        let (_, second) = m.timed(|m| b.alloc_one(m).unwrap());
        assert!(first > second, "first alloc splits many levels");
        assert_eq!(second, m.cost.unit(CostKind::BuddyAlloc));
    }

    #[test]
    fn trait_alloc_rounds_up() {
        let mut m = machine();
        let mut b = buddy(1024);
        let e = b.alloc(&mut m, 100).unwrap();
        assert_eq!(e.frames, 128, "rounded to 2^7");
        b.free(&mut m, e);
        assert_eq!(b.free_frames(), 1024);
    }

    #[test]
    fn trait_alloc_aligned() {
        let mut m = machine();
        let mut b = buddy(4096);
        let _skew = b.alloc_one(&mut m).unwrap();
        let e = b.alloc_aligned(&mut m, 3, 512).unwrap();
        assert_eq!(e.start.0 % 512, 0);
        assert!(e.frames >= 3);
    }

    #[test]
    fn non_power_of_two_span_is_tiled() {
        let mut m = machine();
        // 1000 frames: 512 + 256 + 128 + 64 + 32 + 8.
        let mut b = buddy(1000);
        assert_eq!(b.free_frames(), 1000);
        let e = b.alloc_order(&mut m, 9).unwrap();
        assert_eq!(e.frames, 512);
        assert_eq!(b.free_frames(), 488);
    }

    #[test]
    fn offset_span() {
        let mut m = machine();
        let mut b = BuddyAllocator::new(PhysExtent::new(FrameNo(256), 256));
        let e = b.alloc(&mut m, 256).unwrap();
        assert_eq!(e.start, FrameNo(256));
        assert!(b.alloc_one(&mut m).is_err());
    }

    #[test]
    #[should_panic(expected = "free of unallocated block")]
    fn double_free_panics() {
        let mut m = machine();
        let mut b = buddy(16);
        let e = b.alloc_one(&mut m).unwrap();
        b.free_block(&mut m, e);
        b.free_block(&mut m, e);
    }

    proptest! {
        /// Buddy conserves frames and never double-allocates.
        #[test]
        fn conservation(ops in proptest::collection::vec((0u32..6, any::<bool>(), 0usize..16), 1..200)) {
            let total = 4096u64;
            let mut m = machine();
            let mut b = buddy(total);
            let mut live: Vec<PhysExtent> = Vec::new();
            for (order, do_free, pick) in ops {
                if do_free && !live.is_empty() {
                    let e = live.swap_remove(pick % live.len());
                    b.free_block(&mut m, e);
                } else if let Ok(e) = b.alloc_order(&mut m, order) {
                    for other in &live {
                        prop_assert!(!e.overlaps(other));
                    }
                    live.push(e);
                }
                let live_frames: u64 = live.iter().map(|e| e.frames).sum();
                prop_assert_eq!(b.free_frames() + live_frames, total);
            }
            for e in live.drain(..) {
                b.free_block(&mut m, e);
            }
            prop_assert_eq!(b.free_frames(), total);
            prop_assert_eq!(b.free_blocks_at(12), 1, "fully coalesced");
        }
    }
}
