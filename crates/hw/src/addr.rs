//! Address and size newtypes for the simulated machine.
//!
//! The simulator models a 57-bit virtual address space (matching x86-64
//! five-level paging's 57 bits, although we only walk four levels and
//! reserve the top bits) and a configurable physical address space. All
//! address arithmetic goes through these newtypes so that physical and
//! virtual addresses can never be confused, an idiom borrowed from
//! kernel-facing Rust.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// log2 of the base page size (4 KiB).
pub const PAGE_SHIFT: u32 = 12;
/// Base page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// 2 MiB huge-page size (one level-1 page-table entry).
pub const HUGE_2M: u64 = PAGE_SIZE * 512;
/// 1 GiB huge-page size (one level-2 page-table entry).
pub const HUGE_1G: u64 = HUGE_2M * 512;

/// Number of entries in one page-table node (x86-64 style).
pub const PT_ENTRIES: usize = 512;
/// Number of page-table levels walked by the MMU (PML4 → PT).
pub const PT_LEVELS: u8 = 4;

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical frame number (`PhysAddr >> PAGE_SHIFT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameNo(pub u64);

/// A virtual page number (`VirtAddr >> PAGE_SHIFT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNo(pub u64);

impl PhysAddr {
    /// Frame containing this address.
    #[inline]
    pub fn frame(self) -> FrameNo {
        FrameNo(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing frame.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Round down to the given power-of-two alignment.
    #[inline]
    pub fn align_down(self, align: u64) -> PhysAddr {
        debug_assert!(align.is_power_of_two());
        PhysAddr(self.0 & !(align - 1))
    }

    /// Round up to the given power-of-two alignment.
    #[inline]
    pub fn align_up(self, align: u64) -> PhysAddr {
        debug_assert!(align.is_power_of_two());
        PhysAddr(self.0.checked_add(align - 1).expect("PhysAddr overflow") & !(align - 1))
    }

    /// True if the address is a multiple of `align` (power of two).
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }
}

impl VirtAddr {
    /// Page containing this address.
    #[inline]
    pub fn page(self) -> PageNo {
        PageNo(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Round down to the given power-of-two alignment.
    #[inline]
    pub fn align_down(self, align: u64) -> VirtAddr {
        debug_assert!(align.is_power_of_two());
        VirtAddr(self.0 & !(align - 1))
    }

    /// Round up to the given power-of-two alignment.
    #[inline]
    pub fn align_up(self, align: u64) -> VirtAddr {
        debug_assert!(align.is_power_of_two());
        VirtAddr(self.0.checked_add(align - 1).expect("VirtAddr overflow") & !(align - 1))
    }

    /// True if the address is a multiple of `align` (power of two).
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }

    /// Index into the page-table node at `level` for this address.
    ///
    /// Level 3 is the root (PML4), level 0 the leaf page table. Each
    /// index selects one of [`PT_ENTRIES`] slots.
    #[inline]
    pub fn pt_index(self, level: u8) -> usize {
        debug_assert!(level < PT_LEVELS);
        ((self.0 >> (PAGE_SHIFT + 9 * level as u32)) & 0x1ff) as usize
    }
}

impl FrameNo {
    /// Base physical address of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl PageNo {
    /// Base virtual address of this page.
    #[inline]
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    #[inline]
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0.checked_add(rhs).expect("PhysAddr overflow"))
    }
}

impl AddAssign<u64> for PhysAddr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<PhysAddr> for PhysAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: PhysAddr) -> u64 {
        self.0.checked_sub(rhs.0).expect("PhysAddr underflow")
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0.checked_add(rhs).expect("VirtAddr overflow"))
    }
}

impl AddAssign<u64> for VirtAddr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0.checked_sub(rhs.0).expect("VirtAddr underflow")
    }
}

impl Sub<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn sub(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0.checked_sub(rhs).expect("VirtAddr underflow"))
    }
}

impl Sub<u64> for PhysAddr {
    type Output = PhysAddr;
    #[inline]
    fn sub(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0.checked_sub(rhs).expect("PhysAddr underflow"))
    }
}

impl Add<u64> for FrameNo {
    type Output = FrameNo;
    #[inline]
    fn add(self, rhs: u64) -> FrameNo {
        FrameNo(self.0.checked_add(rhs).expect("FrameNo overflow"))
    }
}

impl Add<u64> for PageNo {
    type Output = PageNo;
    #[inline]
    fn add(self, rhs: u64) -> PageNo {
        PageNo(self.0.checked_add(rhs).expect("PageNo overflow"))
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Debug for FrameNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F#{}", self.0)
    }
}

impl fmt::Debug for PageNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P#{}", self.0)
    }
}

/// Number of base pages needed to hold `bytes` bytes.
#[inline]
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Round a byte count up to a whole number of pages.
#[inline]
pub fn round_up_pages(bytes: u64) -> u64 {
    pages_for(bytes) * PAGE_SIZE
}

/// Mapping granularity supported by the simulated MMU.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PageSize {
    /// 4 KiB base page.
    Base,
    /// 2 MiB huge page (PD-level mapping).
    Huge2M,
    /// 1 GiB huge page (PDPT-level mapping).
    Huge1G,
}

impl PageSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Base => PAGE_SIZE,
            PageSize::Huge2M => HUGE_2M,
            PageSize::Huge1G => HUGE_1G,
        }
    }

    /// Page-table level at which this mapping's leaf entry lives.
    #[inline]
    pub fn leaf_level(self) -> u8 {
        match self {
            PageSize::Base => 0,
            PageSize::Huge2M => 1,
            PageSize::Huge1G => 2,
        }
    }

    /// Size of a leaf entry found at page-table `level` (the inverse
    /// of [`leaf_level`](Self::leaf_level)).
    ///
    /// # Panics
    /// Panics above level 2: the root never holds a leaf.
    #[inline]
    pub(crate) fn at_leaf_level(level: u8) -> PageSize {
        match level {
            0 => PageSize::Base,
            1 => PageSize::Huge2M,
            2 => PageSize::Huge1G,
            _ => unreachable!("leaf at root level"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let va = VirtAddr(0x1234_5678);
        assert_eq!(va.page(), PageNo(0x12345));
        assert_eq!(va.page_offset(), 0x678);
        assert_eq!(va.page().base(), VirtAddr(0x1234_5000));
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(round_up_pages(5000), 8192);
    }

    #[test]
    fn alignment() {
        let va = VirtAddr(0x2345);
        assert_eq!(va.align_down(PAGE_SIZE), VirtAddr(0x2000));
        assert_eq!(va.align_up(PAGE_SIZE), VirtAddr(0x3000));
        assert!(VirtAddr(0x200000).is_aligned(HUGE_2M));
        assert!(!VirtAddr(0x201000).is_aligned(HUGE_2M));
        let pa = PhysAddr(HUGE_1G);
        assert!(pa.is_aligned(HUGE_1G));
        assert_eq!(pa.align_up(HUGE_1G), pa);
    }

    #[test]
    fn pt_indices_decompose_address() {
        // Reconstruct the page number from the four level indices.
        let va = VirtAddr(0x0000_7f12_3456_7000);
        let mut page = 0u64;
        for level in (0..PT_LEVELS).rev() {
            page = page * 512 + va.pt_index(level) as u64;
        }
        assert_eq!(PageNo(page), va.page());
    }

    #[test]
    fn pt_index_bounds() {
        for level in 0..PT_LEVELS {
            assert!(VirtAddr(u64::MAX >> 7).pt_index(level) < PT_ENTRIES);
        }
    }

    #[test]
    fn page_size_levels() {
        assert_eq!(PageSize::Base.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge1G.bytes(), 1024 * 1024 * 1024);
        assert_eq!(PageSize::Base.leaf_level(), 0);
        assert_eq!(PageSize::Huge2M.leaf_level(), 1);
        assert_eq!(PageSize::Huge1G.leaf_level(), 2);
    }

    #[test]
    fn arithmetic_ops() {
        assert_eq!(PhysAddr(100) + 28, PhysAddr(128));
        assert_eq!(PhysAddr(128) - PhysAddr(100), 28);
        assert_eq!(VirtAddr(100) + 28, VirtAddr(128));
        assert_eq!(VirtAddr(128) - VirtAddr(100), 28);
        assert_eq!(FrameNo(1) + 2, FrameNo(3));
        assert_eq!(PageNo(1) + 2, PageNo(3));
        let mut pa = PhysAddr(0);
        pa += PAGE_SIZE;
        assert_eq!(pa.frame(), FrameNo(1));
        let mut va = VirtAddr(0);
        va += PAGE_SIZE;
        assert_eq!(va.page(), PageNo(1));
    }

    #[test]
    #[should_panic(expected = "VirtAddr underflow")]
    fn underflow_panics() {
        let _ = VirtAddr(0) - VirtAddr(1);
    }
}
