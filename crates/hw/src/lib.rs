//! # o1-hw — simulated hardware substrate for *Towards O(1) Memory*
//!
//! This crate models the hardware that the paper's measurements and
//! proposals rest on:
//!
//! * a physical memory with a volatile DRAM tier and a persistent NVM
//!   tier, sparse-backed so terabyte machines fit in a test process
//!   ([`phys`]);
//! * x86-64-style four-level page tables whose nodes are refcounted and
//!   shareable, implementing the paper's "pointer-swing" shared
//!   mappings ([`pagetable`]);
//! * a set-associative, ASID-tagged TLB ([`tlb`]);
//! * the **range translation** extension — range table plus range TLB —
//!   from Figures 4, 5 and 9 ([`range`]);
//! * an MMU that arbitrates between them and raises faults ([`mmu`]);
//! * a calibrated nanosecond cost model ([`cost`]) and a deterministic
//!   machine clock with performance counters ([`machine`], [`perf`]).
//!
//! Everything is deterministic: a workload's simulated duration is a
//! pure function of the operations it performs, which is exactly the
//! quantity the paper's figures plot.

pub mod addr;
pub mod arena;
pub mod cost;
pub mod dma;
pub mod fasthash;
pub mod hybrid;
pub mod machine;
pub mod mmu;
pub mod pagetable;
pub mod perf;
pub mod phys;
pub mod range;
pub mod tlb;

pub use arena::{Arena, Handle};
pub use fasthash::{FastMap, FastSet};

pub use addr::{
    pages_for, round_up_pages, FrameNo, PageNo, PageSize, PhysAddr, VirtAddr, HUGE_1G, HUGE_2M,
    PAGE_SHIFT, PAGE_SIZE, PT_ENTRIES, PT_LEVELS,
};
pub use cost::CostModel;
pub use dma::{DmaEngine, DmaMode, IOTLB_ENTRIES};
pub use hybrid::FastRegion;
pub use machine::{CpuId, Machine, MachineConfig, ObsMode, SimNs, MAX_CPUS};
pub use mmu::{span_within, Access, Mmu, Satisfied, TranslateError, Translated, WalkMode};
pub use o1_obs::{CostKind, OpKind, Subsystem};
pub use pagetable::{ClearedLeaves, Entry, MapError, PageTables, PtNodeId, PteFlags, Translation};
pub use perf::{PerfCounters, PerfSnapshot};
pub use phys::{FrameImage, MemTier, PhysicalMemory};
pub use range::{RangeEntry, RangeError, RangeTable, RangeTlb};
pub use tlb::{Asid, AsidAllocator, AsidGrant, Tlb};
