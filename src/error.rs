//! The crate-wide error type: one [`Error`] that any subsystem's
//! failure converts into, so binaries and integration code can use
//! `?` across kernel, file-system and hardware boundaries without
//! hand-written plumbing.

use std::fmt;

use o1_hw::{MapError, RangeError, TranslateError};
use o1_memfs::FsError;
use o1_vm::VmError;

/// Any failure the simulated system can report.
///
/// Every subsystem keeps its own precise error enum; this type is the
/// union for callers that cross subsystems. All variants preserve the
/// inner error, reachable through [`std::error::Error::source`].
///
/// # Examples
/// ```
/// use o1mem::core::{FomKernel, MapMech};
/// use o1mem::{Error, FileClass, MemSys};
///
/// fn scratch() -> Result<u64, Error> {
///     let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
///     let pid = k.create_process()?;
///     let (_, va) = k.falloc(pid, 1 << 20, FileClass::Volatile)?;
///     k.store(pid, va, 7)?;
///     Ok(k.load(pid, va)?)
/// }
/// assert_eq!(scratch().unwrap(), 7);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Virtual-memory / kernel error.
    Vm(VmError),
    /// File-system error.
    Fs(FsError),
    /// Hardware address-translation fault.
    Translate(TranslateError),
    /// Page-table mapping error.
    Map(MapError),
    /// Range-table / range-TLB error.
    Range(RangeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Vm(e) => write!(f, "vm: {e}"),
            Error::Fs(e) => write!(f, "fs: {e}"),
            Error::Translate(e) => write!(f, "translate: {e}"),
            Error::Map(e) => write!(f, "map: {e}"),
            Error::Range(e) => write!(f, "range: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Vm(e) => Some(e),
            Error::Fs(e) => Some(e),
            Error::Translate(e) => Some(e),
            Error::Map(e) => Some(e),
            Error::Range(e) => Some(e),
        }
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Error {
        Error::Vm(e)
    }
}

impl From<FsError> for Error {
    fn from(e: FsError) -> Error {
        Error::Fs(e)
    }
}

impl From<TranslateError> for Error {
    fn from(e: TranslateError) -> Error {
        Error::Translate(e)
    }
}

impl From<MapError> for Error {
    fn from(e: MapError) -> Error {
        Error::Map(e)
    }
}

impl From<RangeError> for Error {
    fn from(e: RangeError) -> Error {
        Error::Range(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_every_subsystem_error() {
        let cases: Vec<(Error, &str)> = vec![
            (VmError::ProcessLimit.into(), "vm: process table full"),
            (FsError::NotFound.into(), "fs: file not found"),
            (
                TranslateError::NotMapped.into(),
                "translate: address not mapped",
            ),
            (MapError::AlreadyMapped.into(), "map: slot already mapped"),
            (
                RangeError::Overlap.into(),
                "range: range overlaps an existing entry",
            ),
        ];
        for (err, msg) in cases {
            assert_eq!(err.to_string(), msg);
            assert!(err.source().is_some(), "{err:?} keeps its source");
        }
    }

    #[test]
    fn question_mark_converts() {
        fn inner() -> Result<(), Error> {
            Err(VmError::NoMemory)?
        }
        assert_eq!(inner(), Err(Error::Vm(VmError::NoMemory)));
    }
}
