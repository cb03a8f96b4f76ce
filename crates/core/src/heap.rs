//! A user-level heap on file-only memory — the `malloc` story.
//!
//! §3.1: with file-only memory "the heap need not identify unused
//! pages to release with `madvise()`". A [`FomHeap`] carves small
//! objects out of arena files with power-of-two size classes
//! (TCMalloc-style, O(1) fast path) and gives every large allocation
//! its own file, so freeing a large object returns its memory in one
//! O(1) file deletion instead of page-by-page. When an arena fills, a
//! new arena *file* is added (segmented heap) — "internally the
//! allocator repeatedly calls the OS to allocate ranges of memory"
//! (§4.2) — so existing pointers never move.

use std::collections::HashMap;

use o1_hw::VirtAddr;
use o1_memfs::FileClass;
use o1_vm::{MemSys, Pid, VmError};

use crate::fom::FomKernel;

/// Smallest object: 16 bytes.
const MIN_SHIFT: u32 = 4;
/// Largest size-class object: 64 KiB; bigger goes to a dedicated file.
const MAX_SHIFT: u32 = 16;

/// A per-process heap backed by file-only memory.
#[derive(Debug)]
pub struct FomHeap {
    pid: Pid,
    /// Arena segments: (base, bytes). New segments are added as the
    /// heap grows; existing objects never move.
    arenas: Vec<(VirtAddr, u64)>,
    /// Bump pointer within the *last* arena.
    bump: u64,
    /// free_lists[k] holds absolute addresses of free objects of size
    /// 2^(MIN_SHIFT+k).
    free_lists: Vec<Vec<u64>>,
    /// Live small objects: address → class index.
    small_live: HashMap<u64, usize>,
    /// Live large objects: base VA → requested bytes.
    large_live: HashMap<u64, u64>,
}

impl FomHeap {
    /// Create a heap with an initial arena of `arena_bytes` (one
    /// volatile file, mapped whole — a single O(1) allocation).
    pub fn new(k: &mut FomKernel, pid: Pid, arena_bytes: u64) -> Result<FomHeap, VmError> {
        let (_, base) = k.falloc(pid, arena_bytes, FileClass::Volatile)?;
        Ok(FomHeap {
            pid,
            arenas: vec![(base, arena_bytes)],
            bump: 0,
            free_lists: vec![Vec::new(); (MAX_SHIFT - MIN_SHIFT + 1) as usize],
            small_live: HashMap::new(),
            large_live: HashMap::new(),
        })
    }

    /// The owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Total arena bytes across all segments.
    pub fn arena_bytes(&self) -> u64 {
        self.arenas.iter().map(|&(_, b)| b).sum()
    }

    /// Number of arena segments (growth events + 1).
    pub fn arena_segments(&self) -> usize {
        self.arenas.len()
    }

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.small_live.len() + self.large_live.len()
    }

    fn class_for(bytes: u64) -> Option<usize> {
        if bytes == 0 || bytes > (1 << MAX_SHIFT) {
            return None;
        }
        let shift = bytes.next_power_of_two().trailing_zeros().max(MIN_SHIFT);
        Some((shift - MIN_SHIFT) as usize)
    }

    /// Allocate `bytes`. Small objects come from the arenas' size
    /// classes (O(1)); large objects get their own file (O(1) per
    /// extent). When the current arena fills, a new arena file twice
    /// the size is added — existing pointers stay valid.
    pub fn malloc(&mut self, k: &mut FomKernel, bytes: u64) -> Result<VirtAddr, VmError> {
        if bytes == 0 {
            return Err(VmError::BadRange);
        }
        match Self::class_for(bytes) {
            Some(class) => {
                // User-level allocator fast path: constant work.
                k.machine_mut().charge_kind(o1_hw::CostKind::SlabOp);
                let size = 1u64 << (MIN_SHIFT + class as u32);
                let va = match self.free_lists[class].pop() {
                    Some(addr) => VirtAddr(addr),
                    None => {
                        let (last_base, last_bytes) = *self.arenas.last().expect("≥1 arena");
                        if self.bump + size > last_bytes {
                            // Segmented growth: one new arena file.
                            let new_bytes = (last_bytes * 2).max(size);
                            let (_, base) = k.falloc(self.pid, new_bytes, FileClass::Volatile)?;
                            self.arenas.push((base, new_bytes));
                            self.bump = 0;
                        }
                        let (base, _) = *self.arenas.last().expect("just ensured");
                        let va = base + self.bump;
                        self.bump += size;
                        let _ = last_base;
                        va
                    }
                };
                self.small_live.insert(va.0, class);
                Ok(va)
            }
            None => {
                let (_, va) = k.falloc(self.pid, bytes, FileClass::Volatile)?;
                self.large_live.insert(va.0, bytes);
                Ok(va)
            }
        }
    }

    /// Free an allocation from [`malloc`](Self::malloc).
    pub fn free(&mut self, k: &mut FomKernel, va: VirtAddr) -> Result<(), VmError> {
        if self.large_live.remove(&va.0).is_some() {
            // O(1) whole-file reclaim.
            return k.unmap(self.pid, va);
        }
        let class = self.small_live.remove(&va.0).ok_or(VmError::BadAddress)?;
        k.machine_mut().charge_kind(o1_hw::CostKind::SlabOp);
        self.free_lists[class].push(va.0);
        Ok(())
    }

    /// Drop the whole heap: every large file plus all arena files,
    /// each an O(1) unmap — no per-object or per-page walk.
    pub fn destroy(mut self, k: &mut FomKernel) -> Result<(), VmError> {
        for (va, _) in self.large_live.drain() {
            k.unmap(self.pid, VirtAddr(va))?;
        }
        for (base, _) in self.arenas.drain(..) {
            k.unmap(self.pid, base)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::{FomConfig, MapMech};
    use o1_hw::PAGE_SIZE;

    fn setup() -> (FomKernel, Pid, FomHeap) {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        let heap = FomHeap::new(&mut k, pid, 4 << 20).unwrap();
        (k, pid, heap)
    }

    #[test]
    fn malloc_free_roundtrip() {
        let (mut k, pid, mut h) = setup();
        let a = h.malloc(&mut k, 100).unwrap();
        let b = h.malloc(&mut k, 100).unwrap();
        assert_ne!(a, b);
        k.store(pid, a, 1).unwrap();
        k.store(pid, b, 2).unwrap();
        assert_eq!(k.load(pid, a).unwrap(), 1);
        assert_eq!(k.load(pid, b).unwrap(), 2);
        h.free(&mut k, a).unwrap();
        // Freed slot is recycled.
        let c = h.malloc(&mut k, 100).unwrap();
        assert_eq!(c, a);
        assert_eq!(h.live_objects(), 2);
    }

    #[test]
    fn size_classes_round_up() {
        let (mut k, _, mut h) = setup();
        let a = h.malloc(&mut k, 1).unwrap();
        let b = h.malloc(&mut k, 16).unwrap();
        assert_eq!(b - a, 16, "1 byte rounds to the 16 B class");
        let c = h.malloc(&mut k, 17).unwrap();
        let d = h.malloc(&mut k, 32).unwrap();
        assert_eq!(d - c, 32);
    }

    #[test]
    fn large_objects_get_own_files() {
        let (mut k, pid, mut h) = setup();
        let file_count = k.pmfs.file_count();
        let big = h.malloc(&mut k, 1 << 20).unwrap();
        assert_eq!(k.pmfs.file_count(), file_count + 1);
        k.store(pid, big, 42).unwrap();
        k.store(pid, big + ((1 << 20) - 8), 43).unwrap();
        let free_before = k.free_frames();
        h.free(&mut k, big).unwrap();
        assert_eq!(k.free_frames(), free_before + 256, "file reclaimed whole");
        assert_eq!(k.pmfs.file_count(), file_count);
    }

    #[test]
    fn bad_free_detected() {
        let (mut k, _, mut h) = setup();
        let a = h.malloc(&mut k, 64).unwrap();
        assert_eq!(h.free(&mut k, a + 8), Err(VmError::BadAddress));
        h.free(&mut k, a).unwrap();
        assert_eq!(h.free(&mut k, a), Err(VmError::BadAddress), "double free");
    }

    #[test]
    fn heap_grows_with_new_segments() {
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        let pid = k.create_process().unwrap();
        let mut h = FomHeap::new(&mut k, pid, 64 * 1024).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..400u64 {
            let p = h.malloc(&mut k, 1024).unwrap();
            k.store(pid, p, 0xbeef_0000 + i).unwrap();
            ptrs.push(p);
        }
        assert!(h.arena_segments() > 1, "heap grew new segments");
        assert!(h.arena_bytes() >= 400 * 1024);
        // Pointers never move: every object still holds its value.
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(k.load(pid, p).unwrap(), 0xbeef_0000 + i as u64);
        }
        h.destroy(&mut k).unwrap();
    }

    #[test]
    fn heap_exhaustion_errors_when_volume_full() {
        let mut k = FomKernel::new(FomConfig {
            nvm_bytes: 64 * PAGE_SIZE,
            mech: MapMech::Ranges,
            ..FomConfig::default()
        });
        let pid = k.create_process().unwrap();
        let mut h = FomHeap::new(&mut k, pid, 32 * PAGE_SIZE).unwrap();
        let mut failed = false;
        for _ in 0..2048 {
            if h.malloc(&mut k, 1024).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "growth must eventually hit the volume limit");
    }

    #[test]
    fn malloc_fast_path_is_constant() {
        let (mut k, _, mut h) = setup();
        let _warm = h.malloc(&mut k, 64).unwrap();
        let t0 = k.machine().now();
        h.malloc(&mut k, 64).unwrap();
        let small = k.machine().now().since(t0);
        assert_eq!(small, k.machine().cost.slab_op);
    }

    #[test]
    fn destroy_releases_all_memory() {
        let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
        let pid = k.create_process().unwrap();
        let free0 = k.free_frames();
        let mut h = FomHeap::new(&mut k, pid, 1 << 20).unwrap();
        for i in 0..100 {
            h.malloc(&mut k, 64 + i).unwrap();
        }
        h.malloc(&mut k, 2 << 20).unwrap();
        // Force a couple of growth segments too.
        for _ in 0..300 {
            h.malloc(&mut k, 4096).unwrap();
        }
        h.destroy(&mut k).unwrap();
        assert_eq!(k.free_frames(), free0);
        let _ = PAGE_SIZE;
    }

    #[test]
    fn zero_byte_malloc_rejected() {
        let (mut k, _, mut h) = setup();
        assert_eq!(h.malloc(&mut k, 0), Err(VmError::BadRange));
    }
}
