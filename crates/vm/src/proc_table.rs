//! Dense, arena-backed process table shared by both kernels.
//!
//! Pids are issued monotonically and never reused, so `pid → process`
//! is a dense mapping: a `Vec` of handles into a generational
//! [`Arena`] replaces the old `HashMap<Pid, Proc>`. A lookup — one per
//! simulated kernel call — is two bounds-checked indexes instead of a
//! SipHash probe. The `Vec` keeps one slot per pid ever issued; the
//! recycled 16-bit ASIDs bound the *live* processes, not the pids.
//!
//! The arena's generations keep destroyed pids *stale*: a `Pid` held
//! across `destroy_process` misses (`VmError::NoProcess` at the
//! caller) even if its slot has been recycled for a newer process.

use o1_hw::{Arena, Asid, Handle, PtNodeId};

use crate::kernel_core::CoreProc;
use crate::types::{Pid, VmError};

/// Process table keyed by [`Pid`].
#[derive(Debug, Default)]
pub struct ProcTable<P> {
    arena: Arena<P>,
    /// `pid.0 → handle`; `None` for never-issued or destroyed pids.
    by_pid: Vec<Option<Handle>>,
}

impl<P> ProcTable<P> {
    /// Empty table.
    pub fn new() -> ProcTable<P> {
        ProcTable {
            arena: Arena::new(),
            by_pid: Vec::new(),
        }
    }

    /// Live processes.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if no process is live.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    #[inline]
    fn handle(&self, pid: Pid) -> Option<Handle> {
        *self.by_pid.get(pid.0 as usize)?
    }

    /// Borrow the process for `pid`, if live.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<&P> {
        self.arena.get(self.handle(pid)?)
    }

    /// Mutably borrow the process for `pid`, if live.
    #[inline]
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut P> {
        let h = self.handle(pid)?;
        self.arena.get_mut(h)
    }

    /// Page-table root and ASID of `pid`'s address space.
    ///
    /// # Errors
    /// [`VmError::NoProcess`] when `pid` is not live.
    #[inline]
    pub fn space(&self, pid: Pid) -> Result<(PtNodeId, Asid), VmError>
    where
        P: CoreProc,
    {
        let p = self.get(pid).ok_or(VmError::NoProcess)?;
        Ok((p.root(), p.asid()))
    }

    /// Register a newly created process under `pid`.
    ///
    /// # Panics
    /// Panics if `pid` is already live (pids are never reissued).
    pub fn insert(&mut self, pid: Pid, proc: P) {
        assert!(self.get(pid).is_none(), "pid {pid:?} already live");
        let h = self.arena.insert(proc);
        let idx = pid.0 as usize;
        if idx >= self.by_pid.len() {
            self.by_pid.resize(idx + 1, None);
        }
        self.by_pid[idx] = Some(h);
    }

    /// Remove and return the process for `pid`. Its handle goes stale
    /// in the arena, so copies of the pid held elsewhere miss.
    pub fn remove(&mut self, pid: Pid) -> Option<P> {
        let h = self.by_pid.get_mut(pid.0 as usize)?.take()?;
        self.arena.remove(h)
    }

    /// Live pids in ascending order (deterministic).
    pub fn pids(&self) -> Vec<Pid> {
        self.by_pid
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_some())
            .map(|(i, _)| Pid(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut t = ProcTable::new();
        t.insert(Pid(1), "a");
        t.insert(Pid(2), "b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Pid(1)), Some(&"a"));
        assert_eq!(t.get_mut(Pid(2)), Some(&mut "b"));
        assert_eq!(t.get(Pid(3)), None);
        assert_eq!(t.remove(Pid(1)), Some("a"));
        assert_eq!(t.get(Pid(1)), None);
        assert_eq!(t.remove(Pid(1)), None);
        assert_eq!(t.pids(), vec![Pid(2)]);
    }

    #[test]
    fn destroyed_pid_stays_stale_after_slot_reuse() {
        let mut t = ProcTable::new();
        t.insert(Pid(1), 10);
        t.remove(Pid(1)).unwrap();
        // A later process reuses the arena slot, but the old pid must
        // keep missing.
        t.insert(Pid(2), 20);
        assert_eq!(t.get(Pid(1)), None);
        assert_eq!(t.get(Pid(2)), Some(&20));
    }

    #[test]
    fn pids_are_sorted() {
        let mut t = ProcTable::new();
        for id in [5u32, 1, 9, 3] {
            t.insert(Pid(id), id);
        }
        t.remove(Pid(9));
        assert_eq!(t.pids(), vec![Pid(1), Pid(3), Pid(5)]);
    }
}
