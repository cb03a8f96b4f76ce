//! The workload drivers are generic (`S: MemSys + ?Sized`) so the
//! figure suite monomorphizes, while tools that need type erasure pass
//! a `&mut dyn MemSys` to the same drivers. Dispatch strategy must be
//! pure host mechanics: this test drives identical scenarios down both
//! paths and requires bit-identical simulated outcomes — clock, every
//! perf counter, and the values the workload reads back.

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::PerfSnapshot;
use o1mem::vm::{BaselineKernel, MemSys};
use o1mem::workloads::{
    drive_access, drive_alloc, drive_churn, drive_launch_storm, AccessPattern,
};
use o1mem::PAGE_SIZE;

/// One representative pass over every driver, returning the simulated
/// outcome: the final snapshot plus the witness values read back.
fn scenario<S: MemSys + ?Sized>(sys: &mut S) -> (PerfSnapshot, Vec<u64>) {
    let pid = sys.create_process().unwrap();
    let (va, _) = drive_alloc(sys, pid, 128, false).unwrap();
    for pat in [
        AccessPattern::Sweep { sweeps: 2 },
        AccessPattern::OnePerPage,
        AccessPattern::Strided { stride: 3, count: 300 },
        AccessPattern::RandomUniform { count: 500 },
        AccessPattern::Zipf { count: 500, theta: 0.9 },
        AccessPattern::HotCold {
            count: 500,
            hot_pct: 90,
            hot_fraction_pct: 10,
        },
    ] {
        drive_access(sys, pid, va, 128, &pat, 42, true).unwrap();
        drive_access(sys, pid, va, 128, &pat, 42, false).unwrap();
    }
    drive_churn(sys, pid, 2, 4, 16).unwrap();
    drive_launch_storm(sys, 4, 32).unwrap();
    let witness: Vec<u64> = (0..128)
        .map(|p| sys.load(pid, va + p * PAGE_SIZE).unwrap())
        .collect();
    sys.destroy_process(pid).unwrap();
    (sys.stats(), witness)
}

/// Run `scenario` twice on identically-built kernels: once through the
/// monomorphic instantiation (the figure harness path) and once
/// through a `dyn MemSys` vtable. Everything simulated must match
/// exactly.
fn assert_paths_identical<K: MemSys>(mut make: impl FnMut() -> K, what: &str) {
    let mut direct = make();
    let (snap, vals) = scenario(&mut direct);
    let mut erased = make();
    let (dyn_snap, dyn_vals) = scenario(&mut erased as &mut dyn MemSys);
    assert_eq!(snap.at, dyn_snap.at, "{what}: simulated clock diverged");
    assert_eq!(
        snap.counters, dyn_snap.counters,
        "{what}: perf counters diverged"
    );
    assert_eq!(vals, dyn_vals, "{what}: witness values diverged");
}

#[test]
fn generic_and_erased_drivers_agree_on_baseline() {
    assert_paths_identical(
        || BaselineKernel::builder().dram(256 << 20).build(),
        "baseline",
    );
}

#[test]
fn generic_and_erased_drivers_agree_on_every_fom_mech() {
    for mech in MapMech::ALL {
        assert_paths_identical(
            || FomKernel::builder().mech(mech).build(),
            &format!("fom {mech:?}"),
        );
    }
}
