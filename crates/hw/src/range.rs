//! Range translations: the hardware extension of Figures 4, 5 and 9.
//!
//! A range-table entry maps an arbitrary-length contiguous virtual
//! range `[base, limit)` to contiguous physical memory via a fixed-size
//! `(BASE, LIMIT, OFFSET + protection)` triple, so installing or
//! removing a mapping is a single entry update — O(1) in the mapped
//! size. A small fully-associative *range TLB* caches entries; on a
//! miss the in-memory range table is walked (modelled as a binary
//! search, ~2 memory references).
//!
//! This models the "Range Translations for Fast Virtual Memory"
//! proposal [Gandhi et al., IEEE Micro '16] that the paper builds on;
//! no shipping CPU implements it, so a simulator is the only possible
//! substrate (see DESIGN.md substitution table).

use std::collections::BTreeMap;

use crate::addr::{PhysAddr, VirtAddr};
use crate::pagetable::PteFlags;
use crate::tlb::Asid;

/// One range-table entry: `va ∈ [base, limit)` translates to
/// `va + offset` with `prot` permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    /// First virtual address covered.
    pub base: VirtAddr,
    /// One past the last virtual address covered.
    pub limit: VirtAddr,
    /// Signed distance from virtual to physical address, stored as a
    /// wrapping offset: `pa = va.wrapping_add(offset)`.
    pub offset: u64,
    /// Protection bits (reuses the PTE flag encoding).
    pub prot: PteFlags,
}

impl RangeEntry {
    /// Build an entry mapping `[base, base+len)` to physical `pa_base`.
    pub fn new(base: VirtAddr, len: u64, pa_base: PhysAddr, prot: PteFlags) -> RangeEntry {
        assert!(len > 0, "empty range");
        RangeEntry {
            base,
            limit: base + len,
            offset: pa_base.0.wrapping_sub(base.0),
            prot,
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.limit - self.base
    }

    /// Never true for a constructed entry (ranges are non-empty);
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.limit == self.base
    }

    /// True if this entry covers `va`.
    #[inline]
    pub fn covers(&self, va: VirtAddr) -> bool {
        self.base <= va && va < self.limit
    }

    /// Translate `va` (must be covered).
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        debug_assert!(self.covers(va));
        PhysAddr(va.0.wrapping_add(self.offset))
    }
}

/// Errors installing range entries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RangeError {
    /// The new range overlaps an existing entry for the same ASID.
    Overlap,
}

impl core::fmt::Display for RangeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RangeError::Overlap => write!(f, "range overlaps an existing entry"),
        }
    }
}

impl std::error::Error for RangeError {}

/// Per-address-space range table (the in-memory structure the OS
/// maintains and the hardware walks on a range-TLB miss).
#[derive(Debug, Default)]
pub struct RangeTable {
    /// Keyed by base address; ranges never overlap.
    entries: BTreeMap<u64, RangeEntry>,
}

impl RangeTable {
    /// Empty table. `const`, so one empty table can be a `static`
    /// shared by every address space without range translations.
    pub const fn new() -> RangeTable {
        RangeTable {
            entries: BTreeMap::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install an entry. O(log n) in the number of entries and O(1) in
    /// the mapped length — the paper's headline property.
    pub fn insert(&mut self, e: RangeEntry) -> Result<(), RangeError> {
        // Check the neighbour below and above for overlap.
        if let Some((_, prev)) = self.entries.range(..=e.base.0).next_back() {
            if prev.limit.0 > e.base.0 {
                return Err(RangeError::Overlap);
            }
        }
        if let Some((_, next)) = self.entries.range(e.base.0..).next() {
            if next.base.0 < e.limit.0 {
                return Err(RangeError::Overlap);
            }
        }
        self.entries.insert(e.base.0, e);
        Ok(())
    }

    /// Remove the entry with exactly this base address.
    pub fn remove(&mut self, base: VirtAddr) -> Option<RangeEntry> {
        self.entries.remove(&base.0)
    }

    /// Find the entry covering `va`.
    pub fn lookup(&self, va: VirtAddr) -> Option<&RangeEntry> {
        self.entries
            .range(..=va.0)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.covers(va))
    }

    /// Iterate over entries in base-address order.
    pub fn iter(&self) -> impl Iterator<Item = &RangeEntry> {
        self.entries.values()
    }
}

#[derive(Clone, Copy, Debug)]
struct RtlbSlot {
    asid: Asid,
    entry: RangeEntry,
    stamp: u64,
}

/// Small fully-associative range TLB shared by all address spaces
/// (ASID-tagged), as proposed by the range-translation hardware.
#[derive(Debug)]
pub struct RangeTlb {
    slots: Vec<RtlbSlot>,
    capacity: usize,
    tick: u64,
}

/// Default range-TLB capacity (the IEEE Micro proposal evaluates small
/// structures of tens of entries).
pub const DEFAULT_RTLB_ENTRIES: usize = 32;

impl Default for RangeTlb {
    fn default() -> Self {
        RangeTlb::new(DEFAULT_RTLB_ENTRIES)
    }
}

impl RangeTlb {
    /// Create a range TLB with `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RangeTlb {
        assert!(capacity > 0, "range TLB needs at least one slot");
        RangeTlb {
            slots: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
        }
    }

    /// Number of valid slots.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Look up `va`; on a hit refresh LRU and return the entry.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<RangeEntry> {
        self.tick += 1;
        let tick = self.tick;
        self.slots
            .iter_mut()
            .find(|s| s.asid == asid && s.entry.covers(va))
            .map(|s| {
                s.stamp = tick;
                s.entry
            })
    }

    /// Non-mutating probe: would [`lookup`](Self::lookup) hit, and
    /// with what entry? Refreshes no LRU stamp, so fast-forward
    /// uniformity checks are free of side effects.
    pub fn peek(&self, asid: Asid, va: VirtAddr) -> Option<RangeEntry> {
        self.slots
            .iter()
            .find(|s| s.asid == asid && s.entry.covers(va))
            .map(|s| s.entry)
    }

    /// Insert an entry, evicting LRU when full.
    pub fn insert(&mut self, asid: Asid, entry: RangeEntry) {
        self.tick += 1;
        if let Some(s) = self
            .slots
            .iter_mut()
            .find(|s| s.asid == asid && s.entry.base == entry.base)
        {
            s.entry = entry;
            s.stamp = self.tick;
            return;
        }
        if self.slots.len() < self.capacity {
            let tick = self.tick;
            self.slots.push(RtlbSlot {
                asid,
                entry,
                stamp: tick,
            });
            return;
        }
        let lru = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.stamp)
            .map(|(i, _)| i)
            .expect("nonempty rtlb");
        self.slots[lru] = RtlbSlot {
            asid,
            entry,
            stamp: self.tick,
        };
    }

    /// Shoot down the slot caching the entry based at `base` — the
    /// paper's "unmapping a file can be a single operation to update
    /// the range table and shoot down the entry in the TLB".
    pub fn invalidate(&mut self, asid: Asid, base: VirtAddr) {
        self.slots
            .retain(|s| !(s.asid == asid && s.entry.base == base));
    }

    /// Drop all entries for `asid`.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.slots.retain(|s| s.asid != asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    const A: Asid = Asid(1);

    fn entry(base: u64, len: u64, pa: u64) -> RangeEntry {
        RangeEntry::new(VirtAddr(base), len, PhysAddr(pa), PteFlags::user_rw())
    }

    #[test]
    fn translate_within_range() {
        let e = entry(0x10000, 0x4000, 0x800000);
        assert!(e.covers(VirtAddr(0x10000)));
        assert!(e.covers(VirtAddr(0x13fff)));
        assert!(!e.covers(VirtAddr(0x14000)));
        assert!(!e.covers(VirtAddr(0xffff)));
        assert_eq!(e.translate(VirtAddr(0x10123)), PhysAddr(0x800123));
        assert_eq!(e.len(), 0x4000);
    }

    #[test]
    fn offset_can_be_negative_distance() {
        // Physical below virtual: offset wraps.
        let e = entry(0x8000_0000, 0x1000, 0x1000);
        assert_eq!(e.translate(VirtAddr(0x8000_0123)), PhysAddr(0x1123));
    }

    #[test]
    fn table_insert_lookup_remove() {
        let mut t = RangeTable::new();
        assert!(t.is_empty());
        t.insert(entry(0x10000, 0x4000, 0x100000)).unwrap();
        t.insert(entry(0x20000, 0x1000, 0x200000)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.lookup(VirtAddr(0x10fff))
                .unwrap()
                .translate(VirtAddr(0x10fff)),
            PhysAddr(0x100fff)
        );
        assert!(t.lookup(VirtAddr(0x14000)).is_none());
        assert!(t.lookup(VirtAddr(0x1f000)).is_none());
        let removed = t.remove(VirtAddr(0x10000)).unwrap();
        assert_eq!(removed.len(), 0x4000);
        assert!(t.lookup(VirtAddr(0x10000)).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let mut t = RangeTable::new();
        t.insert(entry(0x10000, 0x4000, 0x100000)).unwrap();
        // Overlapping from below, inside, above and exact all fail.
        assert_eq!(
            t.insert(entry(0xf000, 0x2000, 0x0)),
            Err(RangeError::Overlap)
        );
        assert_eq!(
            t.insert(entry(0x11000, 0x1000, 0x0)),
            Err(RangeError::Overlap)
        );
        assert_eq!(
            t.insert(entry(0x13fff, 0x10, 0x0)),
            Err(RangeError::Overlap)
        );
        assert_eq!(
            t.insert(entry(0x10000, 0x4000, 0x0)),
            Err(RangeError::Overlap)
        );
        // Adjacent is fine.
        t.insert(entry(0x14000, 0x1000, 0x0)).unwrap();
        t.insert(entry(0xe000, 0x2000, 0x0)).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn one_entry_maps_a_gigabyte() {
        // The O(1) property: entry count is independent of length.
        let mut t = RangeTable::new();
        t.insert(entry(0x4000_0000, 1 << 30, 1 << 30)).unwrap();
        assert_eq!(t.len(), 1);
        let va = VirtAddr(0x4000_0000 + (1 << 30) - 1);
        assert_eq!(t.lookup(va).unwrap().translate(va).0, (2u64 << 30) - 1);
    }

    #[test]
    fn rtlb_hit_miss_and_eviction() {
        let mut r = RangeTlb::new(2);
        assert!(r.lookup(A, VirtAddr(0x10000)).is_none());
        r.insert(A, entry(0x10000, 0x1000, 0x1000));
        r.insert(A, entry(0x20000, 0x1000, 0x2000));
        assert!(r.lookup(A, VirtAddr(0x10000)).is_some());
        // 0x20000 is now LRU; inserting a third evicts it.
        r.insert(A, entry(0x30000, 0x1000, 0x3000));
        assert!(r.lookup(A, VirtAddr(0x20000)).is_none());
        assert!(r.lookup(A, VirtAddr(0x10000)).is_some());
        assert!(r.lookup(A, VirtAddr(0x30000)).is_some());
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn rtlb_asid_isolation_and_invalidate() {
        let mut r = RangeTlb::default();
        let b = Asid(9);
        r.insert(A, entry(0x10000, 0x1000, 0x1000));
        assert!(r.lookup(b, VirtAddr(0x10000)).is_none());
        r.insert(b, entry(0x10000, 0x1000, 0x5000));
        r.invalidate(A, VirtAddr(0x10000));
        assert!(r.lookup(A, VirtAddr(0x10000)).is_none());
        assert_eq!(
            r.lookup(b, VirtAddr(0x10000))
                .unwrap()
                .translate(VirtAddr(0x10000)),
            PhysAddr(0x5000)
        );
        r.flush_asid(b);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn rtlb_reinsert_updates() {
        let mut r = RangeTlb::default();
        r.insert(A, entry(0x10000, 0x1000, 0x1000));
        r.insert(A, entry(0x10000, 0x2000, 0x1000));
        assert_eq!(r.occupancy(), 1);
        assert!(r.lookup(A, VirtAddr(0x11000)).is_some());
    }

    #[test]
    fn page_sized_and_huge_ranges_coexist() {
        let mut t = RangeTable::new();
        t.insert(entry(0, PAGE_SIZE, 0x100000)).unwrap();
        t.insert(entry(PAGE_SIZE, 64 * PAGE_SIZE, 0x200000))
            .unwrap();
        assert_eq!(t.iter().count(), 2);
    }
}
