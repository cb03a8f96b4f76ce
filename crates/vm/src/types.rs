//! Kernel-facing types shared by the baseline and file-only kernels.

use core::fmt;

use o1_hw::PteFlags;
use o1_memfs::FsError;

/// Identifies one simulated CPU. Typed so CPU ids never travel as
/// bare integers through public kernel signatures; re-exported from
/// the hardware layer, where per-CPU translation caches live.
pub use o1_hw::CpuId;

/// Process identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Mapping protection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Prot {
    /// Read-only.
    Read,
    /// Read + write.
    ReadWrite,
    /// Read + execute (code segments).
    ReadExec,
}

impl Prot {
    /// True if stores are allowed.
    pub fn writable(self) -> bool {
        matches!(self, Prot::ReadWrite)
    }

    /// User PTE (and range-entry) flags for this protection.
    pub fn pte_flags(self) -> PteFlags {
        match self {
            Prot::Read => PteFlags::user_ro(),
            Prot::ReadWrite => PteFlags::user_rw(),
            Prot::ReadExec => PteFlags::user_ro().union(PteFlags::EXEC),
        }
    }
}

/// What backs a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Anonymous memory (zero-filled, process-private).
    Anon,
    /// A file, starting at the given byte offset.
    File {
        /// File being mapped.
        id: o1_memfs::FileId,
        /// Byte offset of the mapping's start within the file.
        offset: u64,
    },
}

/// mmap-style flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MapFlags {
    /// Pre-populate page tables (MAP_POPULATE) instead of demand
    /// paging.
    pub populate: bool,
    /// Shared (writes visible through the file) vs private
    /// (copy-on-write).
    pub shared: bool,
}

impl MapFlags {
    /// Demand-paged private mapping (MAP_PRIVATE).
    pub const fn private() -> MapFlags {
        MapFlags {
            populate: false,
            shared: false,
        }
    }

    /// Pre-populated private mapping (MAP_PRIVATE | MAP_POPULATE).
    pub const fn private_populate() -> MapFlags {
        MapFlags {
            populate: true,
            shared: false,
        }
    }

    /// Demand-paged shared mapping (MAP_SHARED).
    pub const fn shared() -> MapFlags {
        MapFlags {
            populate: false,
            shared: true,
        }
    }

    /// Pre-populated shared mapping (MAP_SHARED | MAP_POPULATE).
    pub const fn shared_populate() -> MapFlags {
        MapFlags {
            populate: true,
            shared: true,
        }
    }
}

/// Kernel call errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Unknown process.
    NoProcess,
    /// Address not covered by any mapping (SIGSEGV).
    BadAddress,
    /// Access violates the mapping's protection (SIGSEGV).
    ProtectionFault,
    /// Out of physical memory (after reclaim).
    NoMemory,
    /// Malformed range (unaligned, zero-length, or not a mapping
    /// boundary).
    BadRange,
    /// The process table is full (all 16-bit ASIDs are live).
    ProcessLimit,
    /// Machine configuration rejected at build time (`cpus == 0` or
    /// `cpus > o1_hw::MAX_CPUS`).
    InvalidConfig,
    /// Underlying file-system error.
    Fs(FsError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoProcess => write!(f, "no such process"),
            VmError::BadAddress => write!(f, "bad address (SIGSEGV)"),
            VmError::ProtectionFault => write!(f, "protection fault (SIGSEGV)"),
            VmError::NoMemory => write!(f, "out of memory"),
            VmError::BadRange => write!(f, "bad range"),
            VmError::ProcessLimit => write!(f, "process table full"),
            VmError::InvalidConfig => write!(f, "invalid machine configuration"),
            VmError::Fs(e) => write!(f, "file system: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<FsError> for VmError {
    fn from(e: FsError) -> VmError {
        match e {
            FsError::NoSpace => VmError::NoMemory,
            other => VmError::Fs(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prot_writability() {
        assert!(!Prot::Read.writable());
        assert!(Prot::ReadWrite.writable());
        assert!(!Prot::ReadExec.writable());
    }

    #[test]
    fn flag_constructors() {
        assert!(!MapFlags::private().populate);
        assert!(MapFlags::private_populate().populate);
        assert!(MapFlags::shared().shared);
        assert!(MapFlags::shared_populate().populate && MapFlags::shared_populate().shared);
    }

    #[test]
    fn fs_errors_convert() {
        assert_eq!(VmError::from(FsError::NoSpace), VmError::NoMemory);
        assert_eq!(
            VmError::from(FsError::NotFound),
            VmError::Fs(FsError::NotFound)
        );
    }
}
