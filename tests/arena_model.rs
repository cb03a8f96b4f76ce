//! Model tests for the generational arena the kernels keep their
//! process state in: the arena must agree with a plain map oracle
//! under random insert/remove churn, stale handles must never resolve
//! after their slot is reused, and — one level up — a destroyed `Pid`
//! must keep reporting `NoProcess` on the baseline kernel and under
//! every file-only mapping mechanism, even after its table slot has
//! been recycled by later processes. Arguments that overflow 64-bit
//! address arithmetic get errors there too, not panics.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::{Arena, DmaEngine, Handle};
use o1mem::memfs::FileClass;
use o1mem::vm::{AccessRun, BaselineKernel, MemSys, Pid, Prot, VmError};
use o1mem::{VirtAddr, PAGE_SIZE};

#[test]
fn arena_matches_hashmap_oracle_under_churn() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xa2e7a + seed);
        let mut arena: Arena<u64> = Arena::new();
        // key -> (handle, value) for live entries; retired handles are
        // kept so we can prove they stay dead forever.
        let mut live: HashMap<u64, (Handle, u64)> = HashMap::new();
        let mut dead: Vec<Handle> = Vec::new();
        let mut next_key = 0u64;
        for _ in 0..2000 {
            match rng.random_range(0..10u32) {
                // Insert (weighted so the arena grows and shrinks).
                0..=4 => {
                    let value = rng.random::<u64>();
                    let h = arena.insert(value);
                    live.insert(next_key, (h, value));
                    next_key += 1;
                }
                // Remove a random live entry.
                5..=7 => {
                    if let Some(&k) = live.keys().next() {
                        let (h, v) = live.remove(&k).unwrap();
                        assert_eq!(arena.remove(h), Some(v));
                        dead.push(h);
                    }
                }
                // Point lookups agree with the oracle.
                _ => {
                    for (h, v) in live.values() {
                        assert_eq!(arena.get(*h), Some(v));
                    }
                }
            }
            assert_eq!(arena.len(), live.len());
            // Every retired handle stays dead, even though its slot
            // index may now host a newer generation.
            for h in &dead {
                assert_eq!(arena.get(*h), None, "stale handle resolved");
                assert!(!arena.contains(*h));
            }
        }
        // Final sweep: drain everything and confirm emptiness.
        let handles: Vec<Handle> = live.values().map(|(h, _)| *h).collect();
        for h in handles {
            assert!(arena.remove(h).is_some());
        }
        assert_eq!(arena.len(), 0);
        assert!(arena.iter().next().is_none());
    }
}

#[test]
fn slot_reuse_cannot_resurrect_a_stale_handle() {
    let mut arena: Arena<&'static str> = Arena::new();
    let a = arena.insert("a");
    arena.remove(a).unwrap();
    // The freed slot is reused at a newer generation.
    let b = arena.insert("b");
    assert_eq!(b.index(), a.index());
    assert_ne!(b.generation(), a.generation());
    assert_eq!(arena.get(a), None);
    assert_eq!(arena.get(b), Some(&"b"));
    // Double-remove through the stale handle is a no-op.
    assert_eq!(arena.remove(a), None);
    assert_eq!(arena.get(b), Some(&"b"));
}

/// Destroyed pids stay dead on both kernels: even after enough
/// create/destroy churn for the process-table slot behind the old pid
/// to be reused, the old pid answers `NoProcess`, never some newer
/// process's memory.
#[test]
fn destroyed_pid_stays_dead_after_slot_reuse_on_both_kernels() {
    /// Run `call` and check that it fails with `err` without moving
    /// the simulated clock.
    fn rejects<K: MemSys, T>(
        sys: &mut K,
        err: VmError,
        call: impl FnOnce(&mut K) -> Result<T, VmError>,
    ) {
        let t0 = sys.machine().now();
        assert_eq!(call(sys).err(), Some(err));
        assert_eq!(sys.machine().now(), t0, "rejected call charged");
    }
    /// Leaves a live process with four populated pages for the
    /// kernel-specific calls.
    fn scenario(sys: &mut impl MemSys) -> (Pid, VirtAddr) {
        let victim = sys.create_process().unwrap();
        let va = sys.alloc(victim, 4 * PAGE_SIZE, true).unwrap();
        sys.store(victim, va, 7).unwrap();
        sys.destroy_process(victim).unwrap();
        // Churn: later processes recycle the victim's arena slot.
        for _ in 0..8 {
            let p = sys.create_process().unwrap();
            let pva = sys.alloc(p, PAGE_SIZE, true).unwrap();
            sys.store(p, pva, 1).unwrap();
            sys.destroy_process(p).unwrap();
        }
        // The stale pid is rejected by every entry point.
        assert_eq!(sys.load(victim, va), Err(VmError::NoProcess));
        assert_eq!(sys.store(victim, va, 9), Err(VmError::NoProcess));
        assert_eq!(
            sys.alloc(victim, PAGE_SIZE, false),
            Err(VmError::NoProcess)
        );
        assert_eq!(sys.destroy_process(victim), Err(VmError::NoProcess));
        // Overflowing lengths and addresses are errors on a live pid,
        // and a rejected alloc charges nothing.
        let p = sys.create_process().unwrap();
        for bytes in [u64::MAX, u64::MAX - (PAGE_SIZE - 1)] {
            let t0 = sys.machine().now();
            assert_eq!(sys.alloc(p, bytes, false), Err(VmError::BadRange));
            assert_eq!(sys.machine().now(), t0, "rejected alloc charged");
        }
        assert_eq!(sys.load(p, VirtAddr(u64::MAX)), Err(VmError::BadAddress));
        // A run whose page index overflows the address arithmetic is
        // a bad address, rejected before any access is charged, even
        // with the run's region warm in the TLBs.
        let va = sys.alloc(p, 4 * PAGE_SIZE, true).unwrap();
        let warm = AccessRun {
            start_page: 0,
            stride: 1,
            len: 4,
        };
        sys.access_runs(p, va, &[warm], true, 0).unwrap();
        for start_page in [u64::MAX / 2, u64::MAX / PAGE_SIZE] {
            let far = AccessRun {
                start_page,
                stride: 1,
                len: 2,
            };
            for write in [false, true] {
                rejects(sys, VmError::BadAddress, |s| {
                    s.access_runs(p, va, &[far], write, 0)
                });
            }
        }
        (p, va)
    }
    let mut dma = DmaEngine::new();
    let mut k = BaselineKernel::builder().dram(64 << 20).build();
    let (p, va) = scenario(&mut k);
    // Lengths and file offsets that overflow are rejected before the
    // syscall is charged.
    rejects(&mut k, VmError::BadRange, |k| k.munmap(p, va, u64::MAX));
    rejects(&mut k, VmError::BadRange, |k| {
        k.mprotect(p, va, u64::MAX, Prot::Read)
    });
    rejects(&mut k, VmError::BadRange, |k| {
        k.madvise_dontneed(p, va, u64::MAX)
    });
    rejects(&mut k, VmError::BadRange, |k| k.pin_range(p, va, u64::MAX));
    rejects(&mut k, VmError::BadRange, |k| {
        k.unpin_range(p, va, u64::MAX)
    });
    rejects(&mut k, VmError::BadRange, |k| {
        k.dma_transfer(p, va, u64::MAX, &mut dma)
    });
    let id = k.create_file("/f", PAGE_SIZE).unwrap();
    let off = u64::MAX - 2;
    rejects(&mut k, VmError::BadRange, |k| {
        k.file_read(id, off, &mut [0; 8])
    });
    rejects(&mut k, VmError::BadRange, |k| {
        k.file_write(id, off, &[0; 8])
    });
    rejects(&mut k, VmError::BadRange, |k| k.file_allocate(id, off, 8));
    k.destroy_process(p).unwrap();
    // The lifecycle is shared kernel-core code, so every mechanism
    // must agree.
    for mech in MapMech::ALL {
        let mut k = FomKernel::builder().mech(mech).build();
        let (p, va) = scenario(&mut k);
        rejects(&mut k, VmError::BadRange, |k| {
            k.dma_prepare(p, va, u64::MAX)
        });
        rejects(&mut k, VmError::BadRange, |k| {
            k.dma_transfer(p, va, u64::MAX, &mut dma)
        });
        k.destroy_process(p).unwrap();
        // Mapping a file into the dead pid fails without taking a
        // file reference, so deleting the name frees the file.
        let (free0, keys0) = (k.free_frames(), k.keys_live());
        let owner = k.create_process().unwrap();
        let (_, base) = k
            .create_named(owner, "/f", 1 << 20, FileClass::Persistent)
            .unwrap();
        k.unmap(owner, base).unwrap();
        assert_eq!(k.open_map(p, "/f", Prot::Read), Err(VmError::NoProcess));
        k.delete("/f").unwrap();
        assert_eq!(k.free_frames(), free0, "{mech:?} leaked frames");
        assert_eq!(k.keys_live(), keys0, "{mech:?} leaked a key");
    }
}
