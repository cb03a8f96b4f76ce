//! # o1-palloc — physical-memory allocators for *Towards O(1) Memory*
//!
//! Four allocators and three zeroing policies, all charging calibrated
//! simulated costs so the paper's allocation experiments (Figure 2/7,
//! A-ALLOC, A-ZERO) can be regenerated:
//!
//! * [`buddy::BuddyAllocator`] — the Linux-style baseline, called once
//!   per page by the conventional kernel;
//! * [`bitmap::BitmapAllocator`] — the file-system-style one-bit-per-
//!   frame allocator used by the PMFS model;
//! * [`extent::ExtentAllocator`] — best-fit contiguous extents with
//!   O(1) simulated cost independent of length, the backbone of
//!   file-only memory;
//! * [`slab::SizeClassAllocator`] — Bonwick-style slabs (one
//!   [`slab::SlabCache`] per size class) applied to physical memory,
//!   as §3.1 proposes;
//! * [`zero`] — eager, background-pool and crypto-erase zeroing.
//!
//! All allocators implement [`extent::FrameSource`], so kernels are
//! parametric in allocation policy.

pub mod bitmap;
pub mod buddy;
pub mod extent;
pub mod slab;
pub mod zero;

pub use bitmap::BitmapAllocator;
pub use buddy::{BuddyAllocator, MAX_ORDER};
pub use extent::{AllocError, ExtentAllocator, FrameSource, PhysExtent};
pub use slab::SizeClassAllocator;
pub use zero::{CryptoZero, EagerZero, ZeroPool};
