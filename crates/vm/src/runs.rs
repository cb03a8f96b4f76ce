//! Shared pieces of the run-compressed execution engine.
//!
//! Both kernels execute an access batch the same way: the MMU's one
//! translation path proves how many accesses from the current one on
//! share the translation (the rest of the current run and, once it
//! holds all of that, whole following runs of the batch), on a TLB
//! hit or right after the walk that filled the entry, and charges
//! their translation half ([`o1_hw::Mmu::translate`]'s span); the
//! helper here charges the memory half of each covered run and
//! performs the data stores. Splitting
//! it this way keeps the cost knowledge in one place per layer —
//! neither half duplicates the other's cost table. The one exception
//! is the baseline's fault run, which `KernelHooks::resolve` enters
//! where a run's first access fails to translate: it installs the
//! pages it proves absent and charges both halves itself.

use o1_hw::{CostKind, Machine, MemTier, PhysAddr};

/// Charge the memory half of `span` translated accesses starting
/// at physical address `pa` with byte stride `stride`: bump the
/// load/store counter by `span`, charge `span ×` the tier's per-access
/// cost (the run is tier-uniform by the MMU's proof), and for writes
/// store the same values the interpreter would (`first_value + k`,
/// wrapping, at access `k`). Loads have no side effects, so their data reads are
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
