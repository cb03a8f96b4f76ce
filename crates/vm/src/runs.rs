//! Shared pieces of the run-compressed execution engine.
//!
//! Both kernels execute an access run the same way: the MMU's one
//! translation path proves how many leading accesses share the
//! translation and charges their translation half
//! ([`o1_hw::Mmu::translate`]'s span); the helper here charges the
//! memory half of that span and performs the data stores. Splitting
//! it this way keeps the cost knowledge in one place per layer —
//! neither half duplicates the other's cost table. The one exception
//! is the baseline's fault run, which `KernelHooks::resolve` enters
//! where a run's first access fails to translate: it installs the
//! pages it proves absent and charges both halves itself.

use o1_hw::{CostKind, Machine, MemTier, PhysAddr};

/// One run-length-encoded chunk of an access sequence: `len` accesses
/// at page indexes `start_page + k·stride` for `k in 0..len`, relative
/// to some region base. `stride` is in pages and may be zero (repeated
/// touches of one page) or negative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRun {
    /// Page index of the first access.
    pub start_page: u64,
    /// Pages between consecutive accesses (signed).
    pub stride: i64,
    /// Number of accesses; 0 makes the run a no-op.
    pub len: u64,
}

impl AccessRun {
    /// Page index of access `k` (must be `< len`).
    #[inline]
    pub fn page(&self, k: u64) -> u64 {
        debug_assert!(k < self.len);
        (self.start_page as i64 + self.stride.wrapping_mul(k as i64)) as u64
    }
}

/// Charge the memory half of `span` translated accesses starting
/// at physical address `pa` with byte stride `stride`: bump the
/// load/store counter by `span`, charge `span ×` the tier's per-access
/// cost (the run is tier-uniform by the MMU's proof), and for writes
/// store the same values the interpreter would (`first_value + k` at
/// access `k`). Loads have no side effects, so their data reads are
/// skipped entirely — that is the O(1) half of the fast-forward.
pub fn bulk_memory(
    m: &mut Machine,
    pa: PhysAddr,
    stride: i64,
    span: u64,
    write: bool,
    first_value: u64,
) {
    let tier = m.phys.tier(pa.frame());
    if write {
        m.perf.stores += span;
        let kind = match tier {
            MemTier::Dram => CostKind::MemWriteDram,
            MemTier::Nvm => CostKind::MemWriteNvm,
        };
        m.charge_opn(kind, span);
        m.phys.write_run_u64(pa, stride, span, first_value);
    } else {
        m.perf.loads += span;
        let kind = match tier {
            MemTier::Dram => CostKind::MemReadDram,
            MemTier::Nvm => CostKind::MemReadNvm,
        };
        m.charge_opn(kind, span);
    }
}
