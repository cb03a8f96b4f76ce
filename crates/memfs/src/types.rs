//! Common file-system types.

use core::fmt;

/// Identifier of a file (inode number).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// The paper's file classes: files "can be marked at any time as
/// volatile or persistent to indicate whether they should survive
/// process terminations and system restarts" (§3.1), and discardable
/// files provide transcendent-memory-style reclamation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FileClass {
    /// Erased on crash/restart (backs anonymous memory).
    Volatile,
    /// Survives crashes and restarts.
    Persistent,
    /// Volatile *and* reclaimable by the OS under memory pressure
    /// (caches — the transcendent-memory use case).
    Discardable,
}

impl FileClass {
    /// True if the file's contents must survive a restart.
    pub fn survives_crash(self) -> bool {
        matches!(self, FileClass::Persistent)
    }
}

/// File-system errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// No file with that name or id.
    NotFound,
    /// A file with that name already exists.
    Exists,
    /// The backing store has no room (or is too fragmented).
    NoSpace,
    /// Offset past the end of the file where not permitted.
    OutOfRange,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "file not found"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space on device"),
            FsError::OutOfRange => write!(f, "offset out of range"),
        }
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_persistence() {
        assert!(!FileClass::Volatile.survives_crash());
        assert!(FileClass::Persistent.survives_crash());
        assert!(!FileClass::Discardable.survives_crash());
    }

    #[test]
    fn errors_display() {
        assert_eq!(FsError::NoSpace.to_string(), "no space on device");
        assert_eq!(FsError::NotFound.to_string(), "file not found");
    }
}
