//! Thread-safe wrapper around the file-only memory kernel.
//!
//! The simulation core is single-threaded and deterministic; real
//! consumers want to call it from many threads. [`SyncFom`] wraps a
//! [`FomKernel`] in a [`std::sync::Mutex`] and exposes the common
//! operations. Determinism of the *per-operation* costs is preserved;
//! the interleaving across threads is whatever the scheduler produces,
//! as it would be on real hardware.

use std::sync::{Mutex, MutexGuard, PoisonError};

use o1_hw::{SimNs, VirtAddr};
use o1_memfs::FileClass;
use o1_vm::{MemSys, Pid, Prot, VmError};

use crate::fom::{FomConfig, FomKernel};

/// A `Send + Sync` handle to a file-only-memory kernel.
#[derive(Debug)]
pub struct SyncFom {
    inner: Mutex<FomKernel>,
}

impl SyncFom {
    /// Boot a kernel behind a lock.
    pub fn new(config: FomConfig) -> SyncFom {
        SyncFom {
            inner: Mutex::new(FomKernel::new(config)),
        }
    }

    /// Take the lock. A panic in another thread does not poison the
    /// handle: the kernel is handed back as that thread left it.
    fn lock(&self) -> MutexGuard<'_, FomKernel> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a process.
    ///
    /// # Errors
    /// [`VmError::ProcessLimit`] when the process table is exhausted.
    pub fn create_process(&self) -> Result<Pid, VmError> {
        self.lock().create_process()
    }

    /// Destroy a process.
    pub fn destroy_process(&self, pid: Pid) -> Result<(), VmError> {
        self.lock().destroy_process(pid)
    }

    /// Allocate-and-map a volatile file of `bytes`.
    pub fn alloc(&self, pid: Pid, bytes: u64) -> Result<VirtAddr, VmError> {
        self.lock()
            .falloc(pid, bytes, FileClass::Volatile)
            .map(|(_, va)| va)
    }

    /// Create-and-map a named persistent file.
    pub fn create_named(&self, pid: Pid, name: &str, bytes: u64) -> Result<VirtAddr, VmError> {
        self.lock()
            .create_named(pid, name, bytes, FileClass::Persistent)
            .map(|(_, va)| va)
    }

    /// Map an existing named file.
    pub fn open_map(&self, pid: Pid, name: &str, prot: Prot) -> Result<VirtAddr, VmError> {
        self.lock().open_map(pid, name, prot).map(|(_, va)| va)
    }

    /// Unmap a mapping by base address.
    pub fn unmap(&self, pid: Pid, va: VirtAddr) -> Result<(), VmError> {
        self.lock().unmap(pid, va)
    }

    /// 8-byte load.
    pub fn load(&self, pid: Pid, va: VirtAddr) -> Result<u64, VmError> {
        self.lock().load(pid, va)
    }

    /// 8-byte store.
    pub fn store(&self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), VmError> {
        self.lock().store(pid, va, value)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimNs {
        self.lock().machine().now()
    }

    /// Free frames in the volume.
    pub fn free_frames(&self) -> u64 {
        self.lock().free_frames()
    }

    /// Run `f` with exclusive kernel access (batch operations).
    pub fn with<T>(&self, f: impl FnOnce(&mut FomKernel) -> T) -> T {
        f(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::MapMech;
    use o1_hw::PAGE_SIZE;

    #[test]
    fn concurrent_processes_do_not_interfere() {
        let fom = std::sync::Arc::new(SyncFom::new(FomConfig {
            mech: MapMech::SharedPt,
            ..FomConfig::default()
        }));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let fom = fom.clone();
                std::thread::spawn(move || {
                    let pid = fom.create_process().unwrap();
                    let va = fom.alloc(pid, 64 * PAGE_SIZE).unwrap();
                    for i in 0..64u64 {
                        fom.store(pid, va + i * PAGE_SIZE, t * 1000 + i).unwrap();
                    }
                    for i in 0..64u64 {
                        assert_eq!(fom.load(pid, va + i * PAGE_SIZE).unwrap(), t * 1000 + i);
                    }
                    fom.destroy_process(pid).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn scoped_sharing_of_a_file() {
        let fom = SyncFom::new(FomConfig::default());
        let writer = fom.create_process().unwrap();
        let base = fom.create_named(writer, "/shared/blob", 1 << 20).unwrap();
        for i in 0..16u64 {
            fom.store(writer, base + i * 8, i * i).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let pid = fom.create_process().unwrap();
                    let va = fom.open_map(pid, "/shared/blob", Prot::Read).unwrap();
                    for i in 0..16u64 {
                        assert_eq!(fom.load(pid, va + i * 8).unwrap(), i * i);
                    }
                    fom.destroy_process(pid).unwrap();
                });
            }
        });
    }

    #[test]
    fn with_gives_batch_access() {
        let fom = SyncFom::new(FomConfig::default());
        let frames = fom.with(|k| {
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, PAGE_SIZE, FileClass::Volatile).unwrap();
            k.store(pid, va, 5).unwrap();
            k.free_frames()
        });
        assert!(frames > 0);
        assert!(fom.now().0 > 0);
    }
}
