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
//!   lifecycle, the one MMU translate call, the access-op funnel, the
//!   fast-forward run loop and the page-by-page syscall loop (DMA).

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
pub use kernel::{BaselineBuilder, BaselineConfig, BaselineKernel, ThpMode, MMAP_BASE};
pub use kernel_core::{span_end, CoreProc, KernelCore, KernelHooks, Resolved, MAX_MAP_BYTES};
pub use o1_hw::AccessRun;
pub use page_meta::{PageFlag, PageMeta, PageMetaTable, PAGE_FLAG_COUNT, STRUCT_PAGE_BYTES};
pub use proc_table::ProcTable;
pub use reclaim::{LruLists, ReclaimPolicy, ScanDecision, SwapDevice, SwapSlot};
pub use types::{Backing, CpuId, MapFlags, Pid, Prot, VmError};
pub use vma::{Vma, VmaMap};
