//! Bitmap frame allocator — the file-system-style allocator.
//!
//! The paper observes that file systems represent unused blocks with
//! "a single bit in a bitmap, as compared to the complex per-page
//! metadata maintained by memory management" (§3.1/§4.1). This is that
//! allocator: one bit per frame, next-fit search for runs, used by the
//! PMFS model for its block allocation. Its metadata footprint is what
//! the T-META experiment compares against `struct page`.

use o1_hw::CostKind;
use o1_hw::{FrameNo, Machine};

use crate::extent::{AllocError, FrameSource, PhysExtent};

/// One-bit-per-frame allocator with next-fit run search.
#[derive(Debug, Clone)]
pub struct BitmapAllocator {
    /// Bit set ⇒ frame allocated.
    words: Vec<u64>,
    base: u64,
    frames: u64,
    free: u64,
    /// Next-fit cursor (frame index relative to base).
    cursor: u64,
}

impl BitmapAllocator {
    /// Manage `span`, initially all free.
    pub fn new(span: PhysExtent) -> BitmapAllocator {
        assert!(span.frames > 0, "empty span");
        BitmapAllocator {
            words: vec![0; span.frames.div_ceil(64) as usize],
            base: span.start.0,
            frames: span.frames,
            free: span.frames,
            cursor: 0,
        }
    }

    /// Bytes of allocator metadata — one bit per frame. The paper's
    /// point: this is ~512x smaller than a 64-byte `struct page`.
    pub fn metadata_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    /// Set (`allocated`) or clear every bit of `[start, start + len)`,
    /// one masked 64-bit word per step.
    fn fill(&mut self, start: u64, len: u64, allocated: bool) {
        for (w, mask) in masked_words(start, len) {
            if allocated {
                self.words[w] |= mask;
            } else {
                self.words[w] &= !mask;
            }
        }
    }

    /// True if the frame is currently allocated.
    pub fn is_allocated(&self, frame: FrameNo) -> bool {
        assert!(
            frame.0 >= self.base && frame.0 < self.base + self.frames,
            "frame out of span"
        );
        let idx = frame.0 - self.base;
        self.words[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    /// Allocate a *specific* extent (journal replay / recovery path).
    /// Fails if any frame in it is already allocated.
    pub fn alloc_at(&mut self, m: &mut Machine, ext: PhysExtent) -> Result<PhysExtent, AllocError> {
        assert!(
            ext.start.0 >= self.base && ext.end().0 <= self.base + self.frames,
            "extent {ext:?} outside span"
        );
        let start = ext.start.0 - self.base;
        if self.first_in(start, ext.frames, true).is_some() {
            return Err(AllocError::OutOfMemory {
                requested: ext.frames,
            });
        }
        self.fill(start, ext.frames, true);
        self.free -= ext.frames;
        m.charge_kind(CostKind::ExtentAlloc);
        m.perf.alloc_calls += 1;
        m.perf.frames_alloced += ext.frames;
        Ok(ext)
    }

    /// Find a free run of `len` frames starting at or after `from`
    /// (relative index), with the given alignment of the *absolute*
    /// frame number. Returns the relative start index.
    ///
    /// The search is word-at-a-time: free-run candidates are verified
    /// 64 bits per step, and on failure the cursor jumps to the next
    /// free bit (skipping fully-allocated words) instead of advancing
    /// one frame. Every candidate skipped this way starts on an
    /// allocated frame and would fail immediately, so the first
    /// position returned — and therefore every allocation decision —
    /// is identical to a naive bit-by-bit scan.
    fn find_run(&self, from: u64, len: u64, align: u64) -> Option<u64> {
        let mut idx = from;
        while idx + len <= self.frames {
            // Align the absolute frame number.
            let abs = (self.base + idx).next_multiple_of(align);
            idx = abs - self.base;
            if idx + len > self.frames {
                return None;
            }
            match self.first_in(idx, len, true) {
                None => return Some(idx),
                Some(p) => idx = self.next_free_after(p),
            }
        }
        None
    }

    /// First frame index in `[start, start + len)` whose bit is
    /// `allocated`, if any, probing a 64-bit word per step.
    fn first_in(&self, start: u64, len: u64, allocated: bool) -> Option<u64> {
        masked_words(start, len).find_map(|(w, mask)| {
            let bits = if allocated {
                self.words[w]
            } else {
                !self.words[w]
            } & mask;
            (bits != 0).then(|| w as u64 * 64 + u64::from(bits.trailing_zeros()))
        })
    }

    /// Index of the first free frame strictly after `p`; `self.frames`
    /// when none remain.
    fn next_free_after(&self, p: u64) -> u64 {
        self.first_in(p + 1, self.frames - (p + 1), false)
            .unwrap_or(self.frames)
    }
}

/// The bitmap words covering bits `[start, start + len)`, each with the
/// mask of its bits inside that range.
fn masked_words(start: u64, len: u64) -> impl Iterator<Item = (usize, u64)> {
    let end = start + len;
    let words = if len == 0 {
        0..0
    } else {
        start / 64..end.div_ceil(64)
    };
    words.map(move |w| {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min(w * 64 + 64) - w * 64;
        (w as usize, u64::MAX >> (64 - (hi - lo)) << lo)
    })
}

impl FrameSource for BitmapAllocator {
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        self.alloc_aligned(m, frames, 1)
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        assert!(frames > 0, "zero-length allocation");
        assert!(
            align_frames.is_power_of_two(),
            "alignment must be a power of two"
        );
        if frames > self.free {
            return Err(AllocError::OutOfMemory { requested: frames });
        }
        // Next-fit from the cursor, wrapping once.
        let found = self
            .find_run(self.cursor, frames, align_frames)
            .or_else(|| self.find_run(0, frames, align_frames));
        let Some(start) = found else {
            return Err(AllocError::OutOfMemory { requested: frames });
        };
        self.fill(start, frames, true);
        self.cursor = start + frames;
        self.free -= frames;
        m.charge_kind(CostKind::ExtentAlloc);
        m.perf.alloc_calls += 1;
        m.perf.frames_alloced += frames;
        Ok(PhysExtent::new(FrameNo(self.base + start), frames))
    }

    fn free(&mut self, m: &mut Machine, ext: PhysExtent) {
        assert!(
            ext.start.0 >= self.base && ext.end().0 <= self.base + self.frames,
            "extent {ext:?} outside span"
        );
        let start = ext.start.0 - self.base;
        if let Some(i) = self.first_in(start, ext.frames, false) {
            panic!("double free at frame {}", self.base + i);
        }
        self.fill(start, ext.frames, false);
        self.free += ext.frames;
        m.charge_kind(CostKind::ExtentFree);
        m.perf.frames_freed += ext.frames;
    }

    fn free_frames(&self) -> u64 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn machine() -> Machine {
        Machine::dram_only(1 << 30)
    }

    fn bm(frames: u64) -> BitmapAllocator {
        BitmapAllocator::new(PhysExtent::new(FrameNo(0), frames))
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = machine();
        let mut a = bm(256);
        let e = a.alloc(&mut m, 10).unwrap();
        assert_eq!(e.frames, 10);
        assert!(a.is_allocated(e.start));
        assert_eq!(a.free_frames(), 246);
        a.free(&mut m, e);
        assert_eq!(a.free_frames(), 256);
        assert!(!a.is_allocated(e.start));
    }

    #[test]
    fn next_fit_advances_then_wraps() {
        let mut m = machine();
        let mut a = bm(100);
        let e1 = a.alloc(&mut m, 40).unwrap();
        let e2 = a.alloc(&mut m, 40).unwrap();
        assert_eq!(e2.start.0, 40);
        a.free(&mut m, e1);
        // 20 free at the end + 40 at the start: a 30-frame request
        // wraps to the start.
        let e3 = a.alloc(&mut m, 30).unwrap();
        assert_eq!(e3.start.0, 0);
    }

    #[test]
    fn aligned_allocation() {
        let mut m = machine();
        let mut a = BitmapAllocator::new(PhysExtent::new(FrameNo(100), 1000));
        let _skew = a.alloc(&mut m, 5).unwrap();
        let e = a.alloc_aligned(&mut m, 64, 128).unwrap();
        assert_eq!(e.start.0 % 128, 0);
    }

    #[test]
    fn metadata_is_one_bit_per_frame() {
        let a = bm(1 << 18); // 1 GiB worth of frames
        assert_eq!(a.metadata_bytes(), (1 << 18) / 8);
    }

    #[test]
    fn fragmentation_oom() {
        let mut m = machine();
        let mut a = bm(64);
        // Allocate all, free every other frame: 32 free, no run of 2.
        let all: Vec<_> = (0..64).map(|_| a.alloc(&mut m, 1).unwrap()).collect();
        for (i, e) in all.iter().enumerate() {
            if i % 2 == 0 {
                a.free(&mut m, *e);
            }
        }
        assert_eq!(a.free_frames(), 32);
        assert!(a.alloc(&mut m, 2).is_err());
        assert!(a.alloc(&mut m, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = machine();
        let mut a = bm(16);
        let e = a.alloc(&mut m, 4).unwrap();
        a.free(&mut m, e);
        a.free(&mut m, e);
    }

    #[test]
    fn cost_independent_of_size() {
        let mut m = machine();
        let mut a = bm(1 << 20);
        let (_, small) = m.timed(|m| a.alloc(m, 1).unwrap());
        let (_, large) = m.timed(|m| a.alloc(m, 1 << 16).unwrap());
        assert_eq!(small, large, "simulated cost is size-independent");
    }

    /// The allocator as it was written bit by bit: one bit per frame,
    /// next-fit that steps one frame at a time, and a free that names
    /// the first frame already free.
    struct PerBit {
        bits: Vec<bool>,
        base: u64,
        free: u64,
        cursor: u64,
    }

    impl PerBit {
        fn find(&self, from: u64, len: u64, align: u64) -> Option<u64> {
            let frames = self.bits.len() as u64;
            let mut idx = from;
            while idx + len <= frames {
                idx = (self.base + idx).next_multiple_of(align) - self.base;
                if idx + len > frames {
                    return None;
                }
                if (idx..idx + len).all(|i| !self.bits[i as usize]) {
                    return Some(idx);
                }
                idx += 1;
            }
            None
        }

        fn alloc_aligned(&mut self, len: u64, align: u64) -> Option<PhysExtent> {
            if len > self.free {
                return None;
            }
            let start = self
                .find(self.cursor, len, align)
                .or_else(|| self.find(0, len, align))?;
            self.set(start, len, true);
            self.cursor = start + len;
            self.free -= len;
            Some(PhysExtent::new(FrameNo(self.base + start), len))
        }

        fn alloc_at(&mut self, ext: PhysExtent) -> bool {
            let start = ext.start.0 - self.base;
            if (start..start + ext.frames).any(|i| self.bits[i as usize]) {
                return false;
            }
            self.set(start, ext.frames, true);
            self.free -= ext.frames;
            true
        }

        /// The frame a free of `ext` must name as double-freed.
        fn first_free(&self, ext: PhysExtent) -> Option<u64> {
            (ext.start.0..ext.end().0).find(|&f| !self.bits[(f - self.base) as usize])
        }

        fn free(&mut self, ext: PhysExtent) {
            self.set(ext.start.0 - self.base, ext.frames, false);
            self.free += ext.frames;
        }

        fn set(&mut self, start: u64, len: u64, v: bool) {
            for i in start..start + len {
                self.bits[i as usize] = v;
            }
        }
    }

    proptest! {
        /// Word-wise bit operations make every decision, charge,
        /// counter and panic of the per-bit allocator.
        #[test]
        fn matches_per_bit_allocator(ops in proptest::collection::vec((0u64..5, 1u64..150, 0u64..1000, 0usize..16), 1..120)) {
            let (base, frames) = (37u64, 1000u64);
            let mut m = machine();
            let mut a = BitmapAllocator::new(PhysExtent::new(FrameNo(base), frames));
            let mut r = PerBit { bits: vec![false; frames as usize], base, free: frames, cursor: 0 };
            let mut live: Vec<PhysExtent> = Vec::new();
            let (mut calls, mut alloced, mut freed) = (0u64, 0u64, 0u64);
            for (op, len, at, pick) in ops {
                match op {
                    0 | 1 => {
                        let align = if op == 0 { 1 } else { 1 << (pick % 8) };
                        let got = a.alloc_aligned(&mut m, len, align).ok();
                        prop_assert_eq!(got, r.alloc_aligned(len, align));
                        if let Some(e) = got {
                            live.push(e);
                            calls += 1;
                            alloced += len;
                        }
                    }
                    2 => {
                        let len = len.min(frames - at);
                        let ext = PhysExtent::new(FrameNo(base + at), len);
                        let ok = a.alloc_at(&mut m, ext).is_ok();
                        prop_assert_eq!(ok, r.alloc_at(ext));
                        if ok {
                            live.push(ext);
                            calls += 1;
                            alloced += len;
                        }
                    }
                    3 if !live.is_empty() => {
                        let e = live.swap_remove(pick % live.len());
                        a.free(&mut m, e);
                        r.free(e);
                        freed += e.frames;
                    }
                    _ => {
                        // A free over frames that may be free already.
                        let len = len.min(frames - at);
                        let ext = PhysExtent::new(FrameNo(base + at), len);
                        let mut probe = a.clone();
                        let mut pm = machine();
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            probe.free(&mut pm, ext);
                        }));
                        match r.first_free(ext) {
                            Some(f) => {
                                let msg = outcome.expect_err("double free must panic");
                                let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
                                prop_assert_eq!(msg, format!("double free at frame {f}"));
                            }
                            None => prop_assert!(outcome.is_ok()),
                        }
                    }
                }
                prop_assert_eq!(a.free_frames(), r.free);
                prop_assert_eq!(a.cursor, r.cursor);
                prop_assert_eq!((m.perf.alloc_calls, m.perf.frames_alloced, m.perf.frames_freed), (calls, alloced, freed));
            }
            for f in 0..frames {
                prop_assert_eq!(a.is_allocated(FrameNo(base + f)), r.bits[f as usize]);
            }
        }
    }

    proptest! {
        /// Bitmap allocator agrees with a reference set model.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((1u64..32, any::<bool>(), 0usize..8), 1..150)) {
            let total = 1024u64;
            let mut m = machine();
            let mut a = bm(total);
            let mut live: Vec<PhysExtent> = Vec::new();
            let mut model: HashSet<u64> = HashSet::new();
            for (size, do_free, pick) in ops {
                if do_free && !live.is_empty() {
                    let e = live.swap_remove(pick % live.len());
                    a.free(&mut m, e);
                    for f in e.start.0..e.end().0 {
                        model.remove(&f);
                    }
                } else if let Ok(e) = a.alloc(&mut m, size) {
                    for f in e.start.0..e.end().0 {
                        prop_assert!(model.insert(f), "frame {f} double-allocated");
                    }
                    live.push(e);
                }
                prop_assert_eq!(a.free_frames(), total - model.len() as u64);
            }
            for f in 0..total {
                prop_assert_eq!(a.is_allocated(FrameNo(f)), model.contains(&f));
            }
        }
    }
}
