//! Set-associative translation lookaside buffer.
//!
//! Models a unified, ASID-tagged TLB. Capacity pressure is what makes
//! the paper's in-text observation reproducible: *"it was faster to
//! make a `read()` system call to read 16KB than to access data already
//! mapped into a process if it would cause TLB misses"* (§3.2/§4.3).

use crate::addr::{FrameNo, PageNo, PageSize, VirtAddr};
use crate::fasthash::FastMap;
use crate::pagetable::PteFlags;

/// Address-space identifier tagging TLB entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Asid(pub u16);

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    asid: Asid,
    /// Virtual page of the mapping base (for huge pages, the first
    /// base page of the huge region).
    vpn: PageNo,
    frame: FrameNo,
    size: PageSize,
    flags: PteFlags,
    /// LRU timestamp.
    stamp: u64,
}

impl TlbEntry {
    #[inline]
    fn is(&self, asid: Asid, vpn: PageNo, size: PageSize) -> bool {
        self.asid == asid && self.vpn == vpn && self.size == size
    }
}

/// A set-associative TLB.
///
/// The per-set `Vec` order is the model: LRU eviction replaces the
/// *first* minimum-stamp way, so insertion order breaks ties exactly
/// as it always has. A key `(asid, vpn, size)` can only live in the
/// one set its `vpn` selects, so every probe scans at most `assoc`
/// ways of one set per page size. Two host-side accelerators sit on
/// top and never change an outcome:
///
/// * `asid_sets` holds, per ASID, a mask of the sets that may hold
///   its entries (bit `set % 64`). Insert sets the bit and nothing
///   clears it short of a flush, so a stale bit only costs a wasted
///   scan; [`flush_asid`](Self::flush_asid) visits the masked sets
///   instead of all of them;
/// * `last` remembers each ASID's most recent base-page hit (a small
///   direct-mapped array, no hashing) so the common access loop
///   revalidates one slot in O(1). Only base pages qualify: they are
///   probed first, so a valid cached base entry is always what the
///   size-ordered probe would have returned.
///
/// A `last` slot is revalidated against the live way before use, so
/// hit/miss behaviour, stamps and eviction victims are identical to a
/// plain linear-scan implementation (see
/// `crates/hw/tests/tlb_model.rs`).
#[derive(Debug)]
pub struct Tlb {
    sets: Vec<Vec<TlbEntry>>,
    assoc: usize,
    tick: u64,
    asid_sets: FastMap<Asid, u64>,
    last: [Option<(Asid, PageNo, u32, u32)>; LAST_SLOTS],
}

/// Slots in the per-ASID last-translation cache (direct-mapped by the
/// low ASID bits; a collision just misses and repopulates).
const LAST_SLOTS: usize = 8;

#[inline]
fn last_slot(asid: Asid) -> usize {
    (asid.0 as usize) & (LAST_SLOTS - 1)
}

/// The `asid_sets` bit standing for `set` (sets alias modulo 64).
#[inline]
fn set_mask_bit(set: usize) -> u64 {
    1u64 << (set % 64)
}

/// Default number of TLB entries (64 sets × 8 ways = 512, in the range
/// of a Skylake-class second-level TLB combined with the first level).
pub const DEFAULT_SETS: usize = 64;
/// Default associativity.
pub const DEFAULT_ASSOC: usize = 8;

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(DEFAULT_SETS, DEFAULT_ASSOC)
    }
}

impl Tlb {
    /// Create a TLB with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics unless `sets` is a nonzero power of two and `assoc > 0`.
    pub fn new(sets: usize, assoc: usize) -> Tlb {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(assoc > 0, "associativity must be nonzero");
        Tlb {
            sets: vec![Vec::with_capacity(assoc); sets],
            assoc,
            tick: 0,
            asid_sets: FastMap::default(),
            last: [None; LAST_SLOTS],
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.assoc
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    #[inline]
    fn set_index(&self, vpn: PageNo) -> usize {
        (vpn.0 as usize) & (self.sets.len() - 1)
    }

    /// Base virtual page of the mapping region containing `va` for a
    /// given page size.
    #[inline]
    fn region_vpn(va: VirtAddr, size: PageSize) -> PageNo {
        va.align_down(size.bytes()).page()
    }

    /// The `(set, way)` holding the entry for `(asid, va)` of `size`.
    #[inline]
    fn find(&self, asid: Asid, va: VirtAddr, size: PageSize) -> Option<(usize, usize)> {
        let vpn = Self::region_vpn(va, size);
        let set = self.set_index(vpn);
        let way = self.sets[set].iter().position(|e| e.is(asid, vpn, size))?;
        Some((set, way))
    }

    /// Probe every supported page size in order (a unified TLB; real
    /// hardware splits structures, with the same effect).
    #[inline]
    fn probe(&self, asid: Asid, va: VirtAddr) -> Option<(usize, usize)> {
        [PageSize::Base, PageSize::Huge2M, PageSize::Huge1G]
            .into_iter()
            .find_map(|size| self.find(asid, va, size))
    }

    /// Look up `va` for `asid`. On a hit, returns the mapping and
    /// refreshes its LRU stamp. The *caller* (the MMU) charges costs
    /// and counts hits/misses.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<(FrameNo, PageSize, PteFlags)> {
        self.tick += 1;
        let tick = self.tick;
        let base_vpn = Self::region_vpn(va, PageSize::Base);
        // Per-ASID last-translation cache: revalidate the remembered
        // slot before any set scan. A stale slot simply fails the key
        // comparison and falls through.
        if let Some((a, vpn, set, way)) = self.last[last_slot(asid)] {
            if a == asid && vpn == base_vpn {
                if let Some(e) = self.sets[set as usize].get_mut(way as usize) {
                    if e.is(asid, vpn, PageSize::Base) {
                        e.stamp = tick;
                        return Some((e.frame, e.size, e.flags));
                    }
                }
            }
        }
        let (set, way) = self.probe(asid, va)?;
        let e = &mut self.sets[set][way];
        e.stamp = tick;
        if e.size == PageSize::Base {
            self.last[last_slot(asid)] = Some((asid, base_vpn, set as u32, way as u32));
        }
        Some((e.frame, e.size, e.flags))
    }

    /// Non-mutating probe: would [`lookup`](Self::lookup) hit, and
    /// with what? Probes the same size order but refreshes no LRU
    /// stamp and touches no accelerator state, so the uniformity check
    /// of a fast-forwarded run is free of side effects.
    pub fn peek(&self, asid: Asid, va: VirtAddr) -> Option<(FrameNo, PageSize, PteFlags)> {
        let (set, way) = self.probe(asid, va)?;
        let e = &self.sets[set][way];
        Some((e.frame, e.size, e.flags))
    }

    /// Advance the LRU clock by `n` ticks without touching any entry.
    ///
    /// [`lookup`](Self::lookup) ages the whole TLB even when it
    /// misses, so a fast-forwarded fault run — which proves its
    /// lookups would miss and skips them — must replay those ticks
    /// before each [`insert`](Self::insert) to leave stamps (and
    /// therefore future eviction victims) exactly where the
    /// interpreted run would have left them.
    pub fn advance_ticks(&mut self, n: u64) {
        self.tick += n;
    }

    /// Insert a translation, evicting the LRU way of the set if full.
    pub fn insert(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        frame: FrameNo,
        size: PageSize,
        flags: PteFlags,
    ) {
        self.tick += 1;
        let vpn = Self::region_vpn(va, size);
        let set = self.set_index(vpn);
        let entry = TlbEntry {
            asid,
            vpn,
            frame,
            size,
            flags,
            stamp: self.tick,
        };
        let assoc = self.assoc;
        let ways = &mut self.sets[set];
        if let Some(e) = ways.iter_mut().find(|e| e.is(asid, vpn, size)) {
            // Resident already, so its set bit is set too.
            *e = entry;
            return;
        }
        if ways.len() < assoc {
            ways.push(entry);
        } else {
            // First minimum stamp wins, as in a front-to-back linear
            // scan. The victim's set bit may go stale, harmlessly.
            let lru = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("nonempty set");
            ways[lru] = entry;
        }
        *self.asid_sets.entry(asid).or_insert(0) |= set_mask_bit(set);
    }

    /// Invalidate the entry covering `va` in `asid` (INVLPG).
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr) {
        for size in [PageSize::Base, PageSize::Huge2M, PageSize::Huge1G] {
            self.remove(asid, va, size);
        }
    }

    /// [`invalidate_page`](Self::invalidate_page) at each of `vas`
    /// (ascending): the union of what those calls drop, probing each
    /// 2M and 1G region once instead of once per page. Removing a way
    /// keeps the others' order, so every set ends as the per-page
    /// loop leaves it.
    pub fn invalidate_pages(&mut self, asid: Asid, vas: &[VirtAddr]) {
        debug_assert!(vas.windows(2).all(|w| w[0] <= w[1]), "VAs not ascending");
        let (mut last_2m, mut last_1g) = (None, None);
        for &va in vas {
            self.remove(asid, va, PageSize::Base);
            for (size, last) in [
                (PageSize::Huge2M, &mut last_2m),
                (PageSize::Huge1G, &mut last_1g),
            ] {
                let region = Some(Self::region_vpn(va, size));
                if *last != region {
                    *last = region;
                    self.remove(asid, va, size);
                }
            }
        }
    }

    /// Drop the entry for `(asid, va)` of `size`, if resident.
    #[inline]
    fn remove(&mut self, asid: Asid, va: VirtAddr, size: PageSize) {
        if let Some((set, way)) = self.find(asid, va, size) {
            self.sets[set].remove(way);
        }
    }

    /// Invalidate every entry belonging to `asid`, visiting only the
    /// sets its mask names.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.last[last_slot(asid)] = None;
        let mut bits = self.asid_sets.remove(&asid).unwrap_or(0);
        while bits != 0 {
            let first = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for set in self.sets.iter_mut().skip(first).step_by(64) {
                set.retain(|e| e.asid != asid);
            }
        }
    }

    /// Invalidate everything.
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.asid_sets.clear();
        self.last = [None; LAST_SLOTS];
    }

    /// Check the accelerators against the set arrays (test/debug
    /// support; O(capacity × assoc)): every resident entry sits in the
    /// set its page selects, its set bit is in its ASID's mask, and no
    /// key is resident twice.
    pub fn check_consistency(&self) -> bool {
        self.sets.iter().enumerate().all(|(set, ways)| {
            ways.iter().enumerate().all(|(way, e)| {
                self.set_index(e.vpn) == set
                    && self
                        .asid_sets
                        .get(&e.asid)
                        .is_some_and(|m| m & set_mask_bit(set) != 0)
                    && ways[..way].iter().all(|o| !o.is(e.asid, e.vpn, e.size))
            })
        })
    }
}

/// Outcome of one [`AsidAllocator::alloc`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsidGrant {
    /// The granted identifier.
    pub asid: Asid,
    /// True when the ASID was recycled from an earlier generation —
    /// PCID-style, the caller must flush every CPU's translation
    /// state for it before reuse, because entries tagged with the
    /// previous owner may still be resident.
    pub needs_flush: bool,
}

/// Generational ASID/PCID allocator.
///
/// ASIDs are handed out sequentially first (`1, 2, 3, …` — ASID 0 is
/// reserved, as hardware reserves PCID 0 for the kernel), so a fresh
/// machine reproduces the exact sequence the old one-shot allocator
/// produced. Only once the 16-bit namespace is exhausted does the
/// allocator *roll over* into the next generation and start recycling
/// freed ASIDs; every recycled grant is marked [`AsidGrant::needs_flush`]
/// so stale translations from the previous owner are shot down before
/// reuse. Allocation fails only when every non-reserved ASID is live
/// at once.
#[derive(Debug, Default, Clone)]
pub struct AsidAllocator {
    /// Next never-granted ASID; `u16::MAX as u32 + 1` = frontier spent.
    next: u32,
    /// ASIDs returned by [`free`](Self::free), recycled LIFO once the
    /// frontier is spent.
    free: Vec<Asid>,
    /// 0 while the never-used frontier lasts; 1 once recycling began.
    generation: u64,
    /// Currently-live grants.
    live: u32,
}

impl AsidAllocator {
    /// Every ASID unallocated, frontier at 1.
    pub fn new() -> AsidAllocator {
        AsidAllocator {
            next: 1,
            free: Vec::new(),
            generation: 0,
            live: 0,
        }
    }

    /// Grant an ASID, or `None` when all 65535 assignable ASIDs are
    /// live simultaneously.
    pub fn alloc(&mut self) -> Option<AsidGrant> {
        if self.next <= u32::from(u16::MAX) {
            let asid = Asid(self.next as u16);
            self.next += 1;
            self.live += 1;
            return Some(AsidGrant {
                asid,
                needs_flush: false,
            });
        }
        let asid = self.free.pop()?;
        if self.generation == 0 {
            self.generation = 1; // first rollover: recycling begins
        }
        self.live += 1;
        Some(AsidGrant {
            asid,
            needs_flush: true,
        })
    }

    /// Return `asid` to the pool. It becomes eligible for recycling
    /// at the next rollover, never before.
    pub fn free(&mut self, asid: Asid) {
        debug_assert!(self.live > 0, "free without a live grant");
        self.live = self.live.saturating_sub(1);
        self.free.push(asid);
    }

    /// Currently-live grants.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// 0 while grants still come from the never-used frontier; 1 once
    /// the namespace rolled over and recycling began.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HUGE_2M, PAGE_SIZE};

    const A: Asid = Asid(1);
    const B: Asid = Asid(2);

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        assert!(tlb.lookup(A, va).is_none());
        tlb.insert(A, va, FrameNo(9), PageSize::Base, PteFlags::user_rw());
        let (f, s, _) = tlb.lookup(A, va).unwrap();
        assert_eq!(f, FrameNo(9));
        assert_eq!(s, PageSize::Base);
        // Different offset in the same page still hits.
        assert!(tlb.lookup(A, va + 123).is_some());
        // Different page misses.
        assert!(tlb.lookup(A, va + PAGE_SIZE).is_none());
    }

    #[test]
    fn asids_are_isolated() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        tlb.insert(A, va, FrameNo(9), PageSize::Base, PteFlags::user_rw());
        assert!(tlb.lookup(B, va).is_none());
        tlb.flush_asid(A);
        assert!(tlb.lookup(A, va).is_none());
    }

    #[test]
    fn huge_entry_covers_whole_region() {
        let mut tlb = Tlb::default();
        let base = VirtAddr(HUGE_2M);
        tlb.insert(
            A,
            base + 0x1234,
            FrameNo(512),
            PageSize::Huge2M,
            PteFlags::user_ro(),
        );
        // Any address in the 2 MiB region hits the single entry.
        assert!(tlb.lookup(A, base).is_some());
        assert!(tlb.lookup(A, base + (HUGE_2M - 1)).is_some());
        assert!(tlb.lookup(A, base + HUGE_2M).is_none());
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: third distinct page evicts the least recent.
        let mut tlb = Tlb::new(1, 2);
        let va = |i: u64| VirtAddr(i * PAGE_SIZE);
        tlb.insert(A, va(1), FrameNo(1), PageSize::Base, PteFlags::user_rw());
        tlb.insert(A, va(2), FrameNo(2), PageSize::Base, PteFlags::user_rw());
        // Touch page 1 so page 2 is LRU.
        assert!(tlb.lookup(A, va(1)).is_some());
        tlb.insert(A, va(3), FrameNo(3), PageSize::Base, PteFlags::user_rw());
        assert!(tlb.lookup(A, va(1)).is_some());
        assert!(tlb.lookup(A, va(2)).is_none(), "LRU way evicted");
        assert!(tlb.lookup(A, va(3)).is_some());
    }

    #[test]
    fn capacity_thrashing_misses() {
        // Working set larger than the TLB must keep missing.
        let mut tlb = Tlb::new(4, 2); // 8 entries
        let pages = 64u64;
        for i in 0..pages {
            tlb.insert(
                A,
                VirtAddr(i * PAGE_SIZE),
                FrameNo(i),
                PageSize::Base,
                PteFlags::user_rw(),
            );
        }
        let hits = (0..pages)
            .filter(|i| tlb.lookup(A, VirtAddr(i * PAGE_SIZE)).is_some())
            .count();
        assert!(hits <= 8, "only the resident tail can hit, got {hits}");
    }

    #[test]
    fn invalidate_single_page() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x3000);
        tlb.insert(A, va, FrameNo(5), PageSize::Base, PteFlags::user_rw());
        tlb.insert(
            A,
            va + PAGE_SIZE,
            FrameNo(6),
            PageSize::Base,
            PteFlags::user_rw(),
        );
        tlb.invalidate_page(A, va);
        assert!(tlb.lookup(A, va).is_none());
        assert!(tlb.lookup(A, va + PAGE_SIZE).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        tlb.insert(A, va, FrameNo(1), PageSize::Base, PteFlags::user_ro());
        tlb.insert(A, va, FrameNo(1), PageSize::Base, PteFlags::user_rw());
        assert_eq!(tlb.occupancy(), 1);
        let (_, _, flags) = tlb.lookup(A, va).unwrap();
        assert!(flags.contains(PteFlags::WRITE));
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::default();
        for i in 0..32u64 {
            tlb.insert(
                A,
                VirtAddr(i * PAGE_SIZE),
                FrameNo(i),
                PageSize::Base,
                PteFlags::user_rw(),
            );
        }
        assert!(tlb.occupancy() > 0);
        tlb.flush_all();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn asid_allocation_is_sequential_first() {
        let mut a = AsidAllocator::new();
        for want in 1..=64u16 {
            let g = a.alloc().unwrap();
            assert_eq!(g.asid, Asid(want));
            assert!(!g.needs_flush, "frontier grants never need a flush");
        }
        assert_eq!(a.live(), 64);
        // Freeing does not change the sequence before rollover.
        a.free(Asid(3));
        a.free(Asid(7));
        assert_eq!(a.alloc().unwrap().asid, Asid(65));
        assert_eq!(a.generation(), 0);
    }

    #[test]
    fn asid_rollover_recycles_with_flush() {
        let mut a = AsidAllocator::new();
        for _ in 1..=u16::MAX {
            a.alloc().unwrap();
        }
        assert!(a.alloc().is_none(), "namespace fully live");
        a.free(Asid(100));
        a.free(Asid(200));
        let g = a.alloc().unwrap();
        assert_eq!(g.asid, Asid(200), "recycled LIFO");
        assert!(g.needs_flush, "recycled ASIDs must be flushed");
        assert_eq!(a.generation(), 1);
        let g = a.alloc().unwrap();
        assert_eq!(g.asid, Asid(100));
        assert!(g.needs_flush);
        assert!(a.alloc().is_none(), "live again at capacity");
        assert_eq!(a.live(), u32::from(u16::MAX));
    }
}
