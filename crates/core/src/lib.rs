//! # o1-core — file-only memory, the contribution of *Towards O(1) Memory*
//!
//! [`fom::FomKernel`] manages all user memory as whole files in a
//! persistent-memory file system, with six mapping mechanisms
//! ([`fom::MapMech`]) behind one strategy seam (the private `mech`
//! module):
//! conventional page tables, pre-created shared page-table subtrees,
//! physically based mappings (§4.2), hardware range translations
//! (§4.3), a Utopia-style hybrid fast region (arXiv:2211.12205), and
//! OBASE-style DRAM↔NVM tiering (arXiv:2603.00378). See the
//! repository's DESIGN.md for the experiment map.

pub mod fom;
pub mod heap;
pub(crate) mod mech;
pub mod sync;

pub use fom::{ErasePolicy, FomBuilder, FomConfig, FomKernel, MapMech, FOM_MMAP_BASE, PBM_BASE};
pub use heap::FomHeap;
pub use sync::SyncFom;
