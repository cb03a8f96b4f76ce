//! Model tests for the generational arena the kernels keep their
//! process state in: the arena must agree with a plain map oracle
//! under random insert/remove churn, stale handles must never resolve
//! after their slot is reused, and — one level up — a destroyed `Pid`
//! must keep reporting `NoProcess` on the baseline kernel and under
//! every file-only mapping mechanism, even after its table slot has
//! been recycled by later processes.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::{Arena, Handle};
use o1mem::vm::{BaselineKernel, MemSys, VmError};
use o1mem::PAGE_SIZE;

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
    fn scenario(sys: &mut impl MemSys) {
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
    }
    scenario(&mut BaselineKernel::builder().dram(64 << 20).build());
    // The lifecycle is shared kernel-core code, so every mechanism
    // must agree.
    for mech in MapMech::ALL {
        scenario(&mut FomKernel::builder().mech(mech).build());
    }
}
