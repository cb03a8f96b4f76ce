//! Virtual memory areas and the per-process region map.
//!
//! Models Linux's VMA tree, including the merging of adjacent
//! compatible regions that the paper notes is lost when moving memory
//! management to files ("Linux merges adjacent memory regions when
//! possible... This reduces the size of internal metadata", §3.1).

use std::collections::BTreeMap;
use std::ops::Bound;

use o1_hw::{VirtAddr, PAGE_SIZE};

use crate::types::{Backing, Prot};

/// One virtual memory area: a page-aligned, half-open range with
/// uniform protection and backing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vma {
    /// First byte (page-aligned).
    pub start: VirtAddr,
    /// One past the last byte (page-aligned).
    pub end: VirtAddr,
    /// Protection.
    pub prot: Prot,
    /// Anonymous or file-backed.
    pub backing: Backing,
    /// MAP_SHARED vs MAP_PRIVATE.
    pub shared: bool,
    /// mlock'd / pinned region.
    pub pinned: bool,
    /// For grow-down stacks: the lowest address the region may expand
    /// to on a fault just below `start`. `None` for ordinary VMAs.
    pub grow_limit: Option<VirtAddr>,
}

impl Vma {
    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Never true for a valid VMA (ranges are non-empty), provided for
    /// API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of pages covered.
    #[inline]
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE
    }

    /// True if `va` lies inside.
    #[inline]
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.start <= va && va < self.end
    }

    /// File offset corresponding to `va`, for file-backed VMAs.
    pub fn file_offset_of(&self, va: VirtAddr) -> Option<u64> {
        match self.backing {
            Backing::File { offset, .. } if self.contains(va) => Some(offset + (va - self.start)),
            _ => None,
        }
    }

    /// True if `self` (ending where `next` starts) can merge with it:
    /// same protection, sharing, pinning, and compatible backing
    /// (anon–anon, or same file with contiguous offsets).
    pub fn can_merge_with(&self, next: &Vma) -> bool {
        if self.end != next.start
            || self.prot != next.prot
            || self.shared != next.shared
            || self.pinned != next.pinned
            || self.grow_limit.is_some()
            || next.grow_limit.is_some()
        {
            return false;
        }
        match (self.backing, next.backing) {
            (Backing::Anon, Backing::Anon) => true,
            (Backing::File { id: a, offset: ao }, Backing::File { id: b, offset: bo }) => {
                a == b && ao + self.len() == bo
            }
            _ => false,
        }
    }
}

/// The per-process VMA map.
#[derive(Debug, Default)]
pub struct VmaMap {
    map: BTreeMap<u64, Vma>,
}

impl VmaMap {
    /// Empty map.
    pub fn new() -> VmaMap {
        VmaMap::default()
    }

    /// Number of VMAs (merging keeps this low).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if there are no regions.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.values().map(Vma::len).sum()
    }

    /// The first VMA starting strictly above `va` (for stack growth).
    pub fn next_above(&self, va: VirtAddr) -> Option<&Vma> {
        self.map
            .range((Bound::Excluded(va.0), Bound::Unbounded))
            .next()
            .map(|(_, v)| v)
    }

    /// Grow the VMA based at `old_start` downwards to `new_start`.
    ///
    /// # Panics
    /// Panics if no VMA starts at `old_start`, the new range overlaps
    /// a neighbour, or the VMA is not growable that far.
    pub fn grow_down(&mut self, old_start: VirtAddr, new_start: VirtAddr) {
        let v = self.map.remove(&old_start.0).expect("grow of unknown VMA");
        let limit = v.grow_limit.expect("grow of non-growable VMA");
        assert!(
            new_start >= limit && new_start < old_start,
            "bad growth target"
        );
        assert!(
            self.is_free(new_start, old_start - new_start),
            "growth collides with a neighbour"
        );
        self.map.insert(
            new_start.0,
            Vma {
                start: new_start,
                ..v
            },
        );
    }

    /// The VMA containing `va`.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.map
            .range(..=va.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }

    /// True if `[start, start+len)` overlaps no existing VMA.
    pub fn is_free(&self, start: VirtAddr, len: u64) -> bool {
        let end = start.0 + len;
        if let Some((_, prev)) = self.map.range(..=start.0).next_back() {
            if prev.end.0 > start.0 {
                return false;
            }
        }
        self.map.range(start.0..end).next().is_none()
    }

    /// Lowest gap of at least `len` bytes starting at or above `min`.
    pub fn find_gap(&self, min: VirtAddr, len: u64) -> VirtAddr {
        let mut candidate = min.0;
        for v in self.map.values() {
            if v.end.0 <= candidate {
                continue;
            }
            if v.start.0 >= candidate + len {
                break;
            }
            candidate = v.end.0;
        }
        VirtAddr(candidate)
    }

    /// Insert a VMA, merging with compatible neighbours. Returns the
    /// start of the (possibly merged) region.
    ///
    /// # Panics
    /// Panics if the range overlaps an existing VMA or is not
    /// page-aligned and non-empty.
    pub fn insert(&mut self, mut vma: Vma) -> VirtAddr {
        assert!(vma.start < vma.end, "empty VMA");
        assert!(
            vma.start.is_aligned(PAGE_SIZE) && vma.end.is_aligned(PAGE_SIZE),
            "unaligned VMA {vma:?}"
        );
        assert!(
            self.is_free(vma.start, vma.len()),
            "VMA {vma:?} overlaps an existing region"
        );
        // Merge with predecessor.
        if let Some((&p, &prev)) = self.map.range(..vma.start.0).next_back() {
            if prev.can_merge_with(&vma) {
                self.map.remove(&p);
                vma = Vma {
                    start: prev.start,
                    backing: prev.backing,
                    ..vma
                };
            }
        }
        // Merge with successor.
        if let Some((&n, &next)) = self.map.range(vma.start.0..).next() {
            if vma.can_merge_with(&next) {
                self.map.remove(&n);
                vma.end = next.end;
            }
        }
        let start = vma.start;
        self.map.insert(start.0, vma);
        start
    }

    /// Remove `[start, start+len)`, splitting VMAs that straddle the
    /// boundaries. Returns the removed pieces (clipped to the range).
    pub fn remove_range(&mut self, start: VirtAddr, len: u64) -> Vec<Vma> {
        let end = VirtAddr(start.0 + len);
        let mut removed = Vec::new();
        // Collect keys of affected VMAs.
        let mut affected: Vec<u64> = Vec::new();
        if let Some((&p, prev)) = self.map.range(..start.0).next_back() {
            if prev.end.0 > start.0 {
                affected.push(p);
            }
        }
        affected.extend(self.map.range(start.0..end.0).map(|(&k, _)| k));
        for k in affected {
            let v = self.map.remove(&k).expect("key listed above");
            // Left fragment stays.
            if v.start < start {
                self.map.insert(v.start.0, Vma { end: start, ..v });
            }
            // Right fragment stays (with adjusted file offset).
            if v.end > end {
                let backing = match v.backing {
                    Backing::File { id, offset } => Backing::File {
                        id,
                        offset: offset + (end - v.start),
                    },
                    b => b,
                };
                self.map.insert(
                    end.0,
                    Vma {
                        start: end,
                        backing,
                        ..v
                    },
                );
            }
            // The clipped middle is what was removed.
            let clip_start = v.start.max(start);
            let clip_end = v.end.min(end);
            let backing = match v.backing {
                Backing::File { id, offset } => Backing::File {
                    id,
                    offset: offset + (clip_start - v.start),
                },
                b => b,
            };
            removed.push(Vma {
                start: clip_start,
                end: clip_end,
                backing,
                ..v
            });
        }
        removed
    }

    /// Change the protection of `[start, start+len)`, splitting and
    /// re-merging as needed. Returns false if the range is not fully
    /// covered by existing VMAs.
    pub fn set_prot(&mut self, start: VirtAddr, len: u64, prot: Prot) -> bool {
        // Verify full coverage first.
        let mut at = start;
        let end = VirtAddr(start.0 + len);
        while at < end {
            match self.find(at) {
                Some(v) => at = v.end,
                None => return false,
            }
        }
        let pieces = self.remove_range(start, len);
        for p in pieces {
            self.insert(Vma { prot, ..p });
        }
        true
    }

    /// Iterate VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.map.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_memfs::FileId;
    use proptest::prelude::*;

    fn anon(start: u64, pages: u64, prot: Prot) -> Vma {
        Vma {
            start: VirtAddr(start),
            end: VirtAddr(start + pages * PAGE_SIZE),
            prot,
            backing: Backing::Anon,
            shared: false,
            pinned: false,
            grow_limit: None,
        }
    }

    fn filev(start: u64, pages: u64, id: u64, offset: u64) -> Vma {
        Vma {
            start: VirtAddr(start),
            end: VirtAddr(start + pages * PAGE_SIZE),
            prot: Prot::ReadWrite,
            backing: Backing::File {
                id: FileId(id),
                offset,
            },
            shared: true,
            pinned: false,
            grow_limit: None,
        }
    }

    #[test]
    fn find_and_contains() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        assert!(m.find(VirtAddr(0x10000)).is_some());
        assert!(m.find(VirtAddr(0x13fff)).is_some());
        assert!(m.find(VirtAddr(0x14000)).is_none());
        assert!(m.find(VirtAddr(0xffff)).is_none());
    }

    #[test]
    fn adjacent_compatible_vmas_merge() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        m.insert(anon(0x14000, 4, Prot::ReadWrite));
        assert_eq!(m.len(), 1, "anon neighbours merged");
        let v = m.find(VirtAddr(0x10000)).unwrap();
        assert_eq!(v.end, VirtAddr(0x18000));
        // Bridge two regions.
        m.insert(anon(0x20000, 2, Prot::ReadWrite));
        m.insert(anon(0x18000, 8, Prot::ReadWrite));
        assert_eq!(m.len(), 1);
        assert_eq!(m.mapped_bytes(), 18 * PAGE_SIZE);
    }

    #[test]
    fn incompatible_neighbours_do_not_merge() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        m.insert(anon(0x14000, 4, Prot::Read));
        assert_eq!(m.len(), 2, "different prot");
        m.insert(filev(0x18000, 4, 1, 0));
        assert_eq!(m.len(), 3, "file after anon");
    }

    #[test]
    fn file_vmas_merge_only_when_contiguous() {
        let mut m = VmaMap::new();
        m.insert(filev(0x10000, 4, 1, 0));
        m.insert(filev(0x14000, 4, 1, 4 * PAGE_SIZE));
        assert_eq!(m.len(), 1, "contiguous offsets merge");
        m.insert(filev(0x18000, 4, 1, 100 * PAGE_SIZE));
        assert_eq!(m.len(), 2, "discontiguous offsets do not");
        m.insert(filev(0x1c000, 4, 2, 104 * PAGE_SIZE));
        assert_eq!(m.len(), 3, "different file does not");
    }

    #[test]
    fn file_offset_tracking() {
        let mut m = VmaMap::new();
        m.insert(filev(0x10000, 8, 1, 0x3000));
        let v = m.find(VirtAddr(0x12000)).unwrap();
        assert_eq!(v.file_offset_of(VirtAddr(0x12345)), Some(0x3000 + 0x2345));
        assert_eq!(anon(0, 1, Prot::Read).file_offset_of(VirtAddr(0)), None);
    }

    #[test]
    fn overlap_rejected() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        assert!(!m.is_free(VirtAddr(0x12000), PAGE_SIZE));
        assert!(!m.is_free(VirtAddr(0xf000), 2 * PAGE_SIZE));
        assert!(m.is_free(VirtAddr(0x14000), PAGE_SIZE));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_insert_panics() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        m.insert(anon(0x12000, 4, Prot::Read));
    }

    #[test]
    fn find_gap_skips_mappings() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        m.insert(anon(0x20000, 4, Prot::Read));
        let gap = m.find_gap(VirtAddr(0x10000), 4 * PAGE_SIZE);
        assert_eq!(gap, VirtAddr(0x14000));
        let gap = m.find_gap(VirtAddr(0x10000), 0x10000);
        assert_eq!(gap, VirtAddr(0x24000));
        // Empty map: gap at min.
        assert_eq!(
            VmaMap::new().find_gap(VirtAddr(0x5000), 100),
            VirtAddr(0x5000)
        );
    }

    #[test]
    fn remove_range_splits() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 10, Prot::ReadWrite));
        let removed = m.remove_range(VirtAddr(0x12000), 2 * PAGE_SIZE);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].start, VirtAddr(0x12000));
        assert_eq!(removed[0].pages(), 2);
        assert_eq!(m.len(), 2, "hole splits the VMA");
        assert!(m.find(VirtAddr(0x12000)).is_none());
        assert!(m.find(VirtAddr(0x11000)).is_some());
        assert!(m.find(VirtAddr(0x14000)).is_some());
    }

    #[test]
    fn remove_range_preserves_file_offsets() {
        let mut m = VmaMap::new();
        m.insert(filev(0x10000, 10, 1, 0));
        m.remove_range(VirtAddr(0x12000), 2 * PAGE_SIZE);
        let right = m.find(VirtAddr(0x14000)).unwrap();
        assert_eq!(right.file_offset_of(VirtAddr(0x14000)), Some(4 * PAGE_SIZE));
    }

    #[test]
    fn remove_spanning_multiple_vmas() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 4, Prot::ReadWrite));
        m.insert(anon(0x14000, 4, Prot::Read)); // distinct prot: no merge
        m.insert(anon(0x18000, 4, Prot::ReadWrite));
        let removed = m.remove_range(VirtAddr(0x12000), 8 * PAGE_SIZE);
        assert_eq!(removed.len(), 3);
        assert_eq!(m.mapped_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn set_prot_splits_and_remerges() {
        let mut m = VmaMap::new();
        m.insert(anon(0x10000, 8, Prot::ReadWrite));
        assert!(m.set_prot(VirtAddr(0x12000), 2 * PAGE_SIZE, Prot::Read));
        assert_eq!(m.len(), 3);
        assert_eq!(m.find(VirtAddr(0x12000)).unwrap().prot, Prot::Read);
        // Restoring the protection merges back to one VMA.
        assert!(m.set_prot(VirtAddr(0x12000), 2 * PAGE_SIZE, Prot::ReadWrite));
        assert_eq!(m.len(), 1);
        // Uncovered range fails without mutating.
        assert!(!m.set_prot(VirtAddr(0x40000), PAGE_SIZE, Prot::Read));
    }

    proptest! {
        /// After arbitrary insert/remove sequences the map is sorted,
        /// non-overlapping, and maximally merged.
        #[test]
        fn invariants_hold(ops in proptest::collection::vec(
            (0u64..64, 1u64..8, any::<bool>(), any::<bool>()), 1..60)
        ) {
            let mut m = VmaMap::new();
            for (page, len, do_remove, rw) in ops {
                let start = VirtAddr(page * PAGE_SIZE);
                let bytes = len * PAGE_SIZE;
                if do_remove {
                    m.remove_range(start, bytes);
                } else if m.is_free(start, bytes) {
                    m.insert(anon(start.0, len, if rw { Prot::ReadWrite } else { Prot::Read }));
                }
                // Non-overlap + sorted.
                let vmas: Vec<&Vma> = m.iter().collect();
                for w in vmas.windows(2) {
                    prop_assert!(w[0].end <= w[1].start, "overlap or disorder");
                    prop_assert!(!w[0].can_merge_with(w[1]), "unmerged neighbours");
                }
            }
        }
    }
}
