//! # o1-vm — the baseline Linux-like virtual memory system
//!
//! The *status quo* design that *Towards O(1) Memory* argues against,
//! implemented in full so every comparison in the paper is runnable:
//!
//! * [`vma`] — VMA trees with region merging;
//! * [`kernel`] — `mmap`/`munmap`/`mprotect`/`madvise`, demand paging
//!   vs `MAP_POPULATE`, COW (fork and private file mappings), page
//!   pinning, per-page teardown;
//! * [`page_meta`] — the `struct page` model (25 flags, 64 B/frame);
//! * [`reclaim`] — clock scanning plus a swap device;
//! * [`api`] — the [`api::MemSys`] trait shared with the file-only
//!   memory kernel so workloads drive both identically;
//! * [`kernel_core`] — the state and code both kernels embed: process
//!   lifecycle, the access-op funnel and the fast-forward run loops.

pub mod api;
pub mod kernel;
pub mod kernel_core;
pub mod page_meta;
pub mod proc_table;
pub mod reclaim;
pub mod runs;
pub mod types;
pub mod vma;

pub use api::{MemSys, OnCpu};
pub use proc_table::ProcTable;
pub use runs::AccessRun;
pub use kernel::{
    span_end, BaselineBuilder, BaselineConfig, BaselineKernel, ThpMode, MAX_MAP_BYTES, MMAP_BASE,
};
pub use kernel_core::{CoreProc, KernelCore, KernelHooks};
pub use page_meta::{PageFlag, PageMeta, PageMetaTable, PAGE_FLAG_COUNT, STRUCT_PAGE_BYTES};
pub use reclaim::{LruLists, ReclaimPolicy, ScanDecision, SwapDevice, SwapSlot};
pub use types::{Backing, CpuId, MapFlags, Pid, Prot, VmError};
pub use vma::{Vma, VmaMap};
