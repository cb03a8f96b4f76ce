//! Slab allocation for physical memory.
//!
//! §3.1: *"We propose using techniques from heaps, such as slab
//! allocators, to manage physical memory."* A [`SlabCache`] carves
//! large parent extents ("slabs") into fixed-size objects and serves
//! allocations from per-slab free lists at constant cost; a
//! [`SizeClassAllocator`] fronts a set of caches with power-of-two size
//! classes and falls back to the parent allocator for large requests.

use o1_hw::CostKind;
use std::collections::BTreeMap;

use o1_hw::{FrameNo, Machine};

use crate::extent::{AllocError, FrameSource, PhysExtent};

#[derive(Debug)]
struct Slab {
    /// Free object indexes within this slab.
    free_list: Vec<u32>,
    objs_allocated: u32,
}

/// A cache of fixed-size physical objects carved from parent extents.
#[derive(Debug)]
pub struct SlabCache {
    obj_frames: u64,
    objs_per_slab: u32,
    /// Slabs keyed by start frame.
    slabs: BTreeMap<u64, Slab>,
    /// Starts of slabs with at least one free object.
    partial: Vec<u64>,
    /// Fully-free slabs retained before returning to the parent.
    keep_empty: usize,
    empty: Vec<u64>,
    free_objs: u64,
}

impl SlabCache {
    /// Cache of objects `obj_frames` long, `objs_per_slab` per slab.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(obj_frames: u64, objs_per_slab: u32) -> SlabCache {
        assert!(
            obj_frames > 0 && objs_per_slab > 0,
            "degenerate slab geometry"
        );
        SlabCache {
            obj_frames,
            objs_per_slab,
            slabs: BTreeMap::new(),
            partial: Vec::new(),
            keep_empty: 1,
            empty: Vec::new(),
            free_objs: 0,
        }
    }

    /// Object size in frames.
    pub fn obj_frames(&self) -> u64 {
        self.obj_frames
    }

    /// Frames one whole slab occupies.
    pub fn slab_frames(&self) -> u64 {
        self.obj_frames * self.objs_per_slab as u64
    }

    /// Free objects currently cached.
    pub fn free_objects(&self) -> u64 {
        self.free_objs
    }

    /// Number of slabs held (partial + full + empty).
    pub fn slab_count(&self) -> usize {
        self.slabs.len()
    }

    /// Allocate one object. Fast path (a cached free object) charges
    /// one `slab_op`; the slow path additionally pays the parent's
    /// extent allocation for a fresh slab.
    pub fn alloc(
        &mut self,
        m: &mut Machine,
        parent: &mut dyn FrameSource,
    ) -> Result<PhysExtent, AllocError> {
        m.charge_kind(CostKind::SlabOp);
        // Prefer partial slabs, then cached-empty slabs.
        let start = match self.partial.last().copied() {
            Some(s) => s,
            None => match self.empty.pop() {
                Some(s) => {
                    self.partial.push(s);
                    s
                }
                None => {
                    // Grow: carve a new slab from the parent.
                    let ext = parent.alloc_aligned(m, self.slab_frames(), 1)?;
                    let slab = Slab {
                        free_list: (0..self.objs_per_slab).rev().collect(),
                        objs_allocated: 0,
                    };
                    self.slabs.insert(ext.start.0, slab);
                    self.partial.push(ext.start.0);
                    self.free_objs += self.objs_per_slab as u64;
                    ext.start.0
                }
            },
        };
        let slab = self.slabs.get_mut(&start).expect("partial slab exists");
        let idx = slab
            .free_list
            .pop()
            .expect("partial slab has a free object");
        slab.objs_allocated += 1;
        if slab.free_list.is_empty() {
            self.partial.retain(|&s| s != start);
        }
        self.free_objs -= 1;
        m.perf.alloc_calls += 1;
        m.perf.frames_alloced += self.obj_frames;
        Ok(PhysExtent::new(
            FrameNo(start + idx as u64 * self.obj_frames),
            self.obj_frames,
        ))
    }

    /// Free an object previously returned by [`alloc`](Self::alloc).
    /// Slabs that become entirely free beyond a small cached reserve
    /// are returned to the parent.
    ///
    /// # Panics
    /// Panics if `ext` was not allocated from this cache.
    pub fn free(&mut self, m: &mut Machine, parent: &mut dyn FrameSource, ext: PhysExtent) {
        assert_eq!(ext.frames, self.obj_frames, "object size mismatch");
        m.charge_kind(CostKind::SlabOp);
        let slab_frames = self.slab_frames();
        let (&start, slab) = self
            .slabs
            .range_mut(..=ext.start.0)
            .next_back()
            .filter(|(&s, _)| ext.start.0 < s + slab_frames)
            .unwrap_or_else(|| panic!("{ext:?} not from this slab cache"));
        let rel = ext.start.0 - start;
        assert_eq!(rel % self.obj_frames, 0, "misaligned object {ext:?}");
        let idx = (rel / self.obj_frames) as u32;
        assert!(
            !slab.free_list.contains(&idx),
            "double free of object {idx} in slab {start}"
        );
        slab.free_list.push(idx);
        slab.objs_allocated -= 1;
        self.free_objs += 1;
        m.perf.frames_freed += self.obj_frames;
        if slab.objs_allocated == 0 {
            // Slab is empty: cache a few, return the rest.
            self.partial.retain(|&s| s != start);
            if self.empty.len() < self.keep_empty {
                self.empty.push(start);
            } else {
                self.slabs.remove(&start);
                self.free_objs -= self.objs_per_slab as u64;
                parent.free(m, PhysExtent::new(FrameNo(start), self.slab_frames()));
            }
        } else if slab.free_list.len() == 1 {
            // Was full, now partial again.
            self.partial.push(start);
        }
    }
}

/// Power-of-two size-class allocator: slab caches for small requests,
/// direct parent extents for large ones. This is the physical-memory
/// analogue of a TCMalloc front end, used by file-only memory for
/// small-file allocation.
#[derive(Debug)]
pub struct SizeClassAllocator<P: FrameSource> {
    parent: P,
    /// caches[k] serves requests of up to 2^k frames.
    caches: Vec<SlabCache>,
    max_class_frames: u64,
    /// Class-sized extents that nevertheless came straight from the
    /// parent (aligned requests), so free() routes them back there.
    direct: std::collections::HashSet<u64>,
}

impl<P: FrameSource> SizeClassAllocator<P> {
    /// Wrap `parent` with size classes up to `2^max_class_log2` frames
    /// (objects above that go straight to the parent).
    pub fn new(parent: P, max_class_log2: u32) -> SizeClassAllocator<P> {
        let caches = (0..=max_class_log2)
            .map(|k| {
                let obj = 1u64 << k;
                // Keep slabs a reasonable multiple of the object size.
                let per_slab = (64u64 >> k).max(4) as u32;
                SlabCache::new(obj, per_slab)
            })
            .collect();
        SizeClassAllocator {
            parent,
            caches,
            max_class_frames: 1 << max_class_log2,
            direct: std::collections::HashSet::new(),
        }
    }

    /// Access the wrapped parent allocator.
    pub fn parent(&self) -> &P {
        &self.parent
    }

    fn class_for(&self, frames: u64) -> Option<usize> {
        (frames <= self.max_class_frames)
            .then(|| frames.next_power_of_two().trailing_zeros() as usize)
    }
}

impl<P: FrameSource> FrameSource for SizeClassAllocator<P> {
    fn alloc(&mut self, m: &mut Machine, frames: u64) -> Result<PhysExtent, AllocError> {
        assert!(frames > 0, "zero-length allocation");
        match self.class_for(frames) {
            Some(k) => {
                let e = self.caches[k].alloc(m, &mut self.parent)?;
                // Hand back exactly the class size (internal
                // fragmentation is the space-for-time trade).
                Ok(e)
            }
            None => self.parent.alloc(m, frames),
        }
    }

    fn alloc_aligned(
        &mut self,
        m: &mut Machine,
        frames: u64,
        align_frames: u64,
    ) -> Result<PhysExtent, AllocError> {
        // Size classes don't guarantee alignment beyond the object
        // size; delegate aligned requests to the parent.
        if align_frames <= 1 {
            return self.alloc(m, frames);
        }
        let ext = self.parent.alloc_aligned(m, frames, align_frames)?;
        self.direct.insert(ext.start.0);
        Ok(ext)
    }

    fn free(&mut self, m: &mut Machine, ext: PhysExtent) {
        if self.direct.remove(&ext.start.0) {
            self.parent.free(m, ext);
            return;
        }
        match self.class_for(ext.frames) {
            Some(k) if self.caches[k].obj_frames() == ext.frames => {
                let (caches, parent) = (&mut self.caches, &mut self.parent);
                caches[k].free(m, parent, ext);
            }
            _ => self.parent.free(m, ext),
        }
    }

    fn free_frames(&self) -> u64 {
        self.parent.free_frames()
            + self
                .caches
                .iter()
                .map(|c| c.free_objects() * c.obj_frames())
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::ExtentAllocator;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::dram_only(1 << 30)
    }

    fn parent(frames: u64) -> ExtentAllocator {
        ExtentAllocator::new(PhysExtent::new(FrameNo(0), frames))
    }

    #[test]
    fn slab_alloc_free_roundtrip() {
        let mut m = machine();
        let mut p = parent(4096);
        let mut c = SlabCache::new(1, 64);
        let a = c.alloc(&mut m, &mut p).unwrap();
        let b = c.alloc(&mut m, &mut p).unwrap();
        assert_ne!(a.start, b.start);
        assert_eq!(a.frames, 1);
        assert_eq!(c.slab_count(), 1, "both objects share one slab");
        c.free(&mut m, &mut p, a);
        c.free(&mut m, &mut p, b);
        assert_eq!(c.free_objects(), 64);
    }

    #[test]
    fn fast_path_is_constant_cost() {
        let mut m = machine();
        let mut p = parent(4096);
        let mut c = SlabCache::new(1, 64);
        let first = m.timed(|m| c.alloc(m, &mut p).unwrap()).1;
        let second = m.timed(|m| c.alloc(m, &mut p).unwrap()).1;
        assert!(first > second, "first alloc pays slab creation");
        assert_eq!(second, m.cost.unit(CostKind::SlabOp));
    }

    #[test]
    fn objects_do_not_overlap_across_slabs() {
        let mut m = machine();
        let mut p = parent(4096);
        let mut c = SlabCache::new(2, 8);
        let objs: Vec<_> = (0..40).map(|_| c.alloc(&mut m, &mut p).unwrap()).collect();
        assert!(c.slab_count() >= 3);
        for (i, a) in objs.iter().enumerate() {
            for b in &objs[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn empty_slabs_returned_to_parent() {
        let mut m = machine();
        let mut p = parent(4096);
        let before = p.free_frames();
        let mut c = SlabCache::new(1, 16);
        let objs: Vec<_> = (0..48).map(|_| c.alloc(&mut m, &mut p).unwrap()).collect();
        assert_eq!(p.free_frames(), before - 48);
        for e in objs {
            c.free(&mut m, &mut p, e);
        }
        // keep_empty = 1: at most one slab retained.
        assert!(c.slab_count() <= 1);
        assert!(p.free_frames() >= before - 16);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn slab_double_free_panics() {
        let mut m = machine();
        let mut p = parent(1024);
        let mut c = SlabCache::new(1, 8);
        let e = c.alloc(&mut m, &mut p).unwrap();
        c.free(&mut m, &mut p, e);
        c.free(&mut m, &mut p, e);
    }

    #[test]
    fn size_classes_route_correctly() {
        let mut m = machine();
        let mut a = SizeClassAllocator::new(parent(1 << 16), 6);
        let small = a.alloc(&mut m, 3).unwrap();
        assert_eq!(small.frames, 4, "rounded to class");
        let big = a.alloc(&mut m, 1000).unwrap();
        assert_eq!(big.frames, 1000, "large goes to parent exactly");
        a.free(&mut m, small);
        a.free(&mut m, big);
    }

    #[test]
    fn aligned_requests_bypass_classes() {
        let mut m = machine();
        let mut a = SizeClassAllocator::new(parent(1 << 16), 6);
        let e = a.alloc_aligned(&mut m, 8, 512).unwrap();
        assert_eq!(e.start.0 % 512, 0);
        a.free(&mut m, e);
    }

    proptest! {
        /// Size-class allocator never double-allocates and survives
        /// arbitrary alloc/free interleavings.
        #[test]
        fn no_overlap(ops in proptest::collection::vec((1u64..100, any::<bool>(), 0usize..8), 1..120)) {
            let mut m = machine();
            let mut a = SizeClassAllocator::new(parent(1 << 14), 5);
            let mut live: Vec<PhysExtent> = Vec::new();
            for (size, do_free, pick) in ops {
                if do_free && !live.is_empty() {
                    let e = live.swap_remove(pick % live.len());
                    a.free(&mut m, e);
                } else if let Ok(e) = a.alloc(&mut m, size) {
                    for other in &live {
                        prop_assert!(!e.overlaps(other), "{e:?} overlaps {other:?}");
                    }
                    live.push(e);
                }
            }
        }
    }
}
