//! # o1mem — *Towards O(1) Memory* (HotOS '17), reproduced in Rust
//!
//! A complete, deterministic simulation of the paper's world: a
//! conventional Linux-like VM kernel, a file-only-memory kernel with
//! four O(1) mapping mechanisms, the hardware they run on (page
//! tables, TLBs, range translations, tiered DRAM/NVM), the persistent
//! memory file system underneath, and a benchmark harness regenerating
//! every figure.
//!
//! ## Quick start
//!
//! ```
//! use o1mem::core::{FomKernel, MapMech};
//! use o1mem::memfs::FileClass;
//! use o1mem::MemSys;
//!
//! let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
//! let pid = k.create_process().unwrap();
//! // 64 MiB allocated and mapped in O(1): one extent, one range entry.
//! let (_, va) = k.falloc(pid, 64 << 20, FileClass::Volatile).unwrap();
//! k.store(pid, va, 42).unwrap();
//! assert_eq!(k.load(pid, va).unwrap(), 42);
//! assert_eq!(k.machine().perf.minor_faults, 0); // no demand paging
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results; run `cargo run --release -p o1-bench
//! --bin figures` to regenerate every figure.

mod error;

pub use error::Error;

/// Simulated hardware: machine, page tables, TLBs, range translations.
pub mod hw {
    pub use o1_hw::*;
}

/// Physical allocators: buddy, bitmap, extent, slab, zero policies.
pub mod palloc {
    pub use o1_palloc::*;
}

/// File systems: page-granular tmpfs, extent-based persistent PMFS.
pub mod memfs {
    pub use o1_memfs::*;
}

/// The baseline Linux-like virtual memory kernel.
pub mod vm {
    pub use o1_vm::*;
}

/// File-only memory — the paper's contribution.
pub mod core {
    pub use o1_core::*;
}

/// Workload generators and drivers.
pub mod workloads {
    pub use o1_workloads::*;
}

pub use o1_core::{ErasePolicy, FomConfig, FomHeap, FomKernel, MapMech, SyncFom};
pub use o1_hw::{Machine, PerfCounters, SimNs, VirtAddr, PAGE_SIZE};
pub use o1_memfs::FileClass;
pub use o1_vm::{BaselineKernel, MemSys, Pid, Prot, VmError};
