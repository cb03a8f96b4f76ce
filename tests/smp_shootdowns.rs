//! TLB-shootdown accounting under simulated SMP: invalidations are
//! broadcasts charged per CPU that actually cached the dying ASID.
//! These tests pin the paper's asymmetry — the baseline broadcasts
//! once per *page* it unmaps, file-only memory once per *range* plus
//! one final ASID flush — and that a CPU which never saw an address
//! space never pays an IPI for it.

use o1mem::core::{FomKernel, MapMech};
use o1mem::vm::{BaselineKernel, CpuId, MemSys};
use o1mem::PAGE_SIZE;

const PAGES: u64 = 256;

/// Baseline `munmap` of N mapped pages: one invalidation broadcast
/// per page plus the closing shootdown round — N+1 in total.
#[test]
fn baseline_unmap_broadcasts_once_per_page() {
    let mut k = BaselineKernel::builder().dram(64 << 20).build();
    let pid = MemSys::create_process(&mut k).unwrap();
    let va = MemSys::alloc(&mut k, pid, PAGES * PAGE_SIZE, true).unwrap();
    let before = k.machine().perf.tlb_shootdowns;
    MemSys::release(&mut k, pid, va, PAGES * PAGE_SIZE).unwrap();
    assert_eq!(k.machine().perf.tlb_shootdowns - before, PAGES + 1);
}

/// Fom-ranges unmap of the same N pages (one extent): one broadcast
/// per range piece plus the single closing ASID flush — 2, not N+1.
#[test]
fn fom_ranges_unmap_broadcasts_once_per_range() {
    let mut k = FomKernel::builder()
        .mech(MapMech::Ranges)
        .nvm(64 << 20)
        .build();
    let pid = MemSys::create_process(&mut k).unwrap();
    let va = MemSys::alloc(&mut k, pid, PAGES * PAGE_SIZE, true).unwrap();
    let before = k.machine().perf.tlb_shootdowns;
    MemSys::release(&mut k, pid, va, PAGES * PAGE_SIZE).unwrap();
    assert_eq!(k.machine().perf.tlb_shootdowns - before, 2);
}

/// IPIs go only to CPUs whose TLBs hold the ASID. The same workload
/// on a bigger machine costs identical simulated time as long as it
/// stays on one CPU, and strictly more once a second CPU has cached
/// the address space.
#[test]
fn remote_cpus_pay_ipis_only_when_they_cached_the_asid() {
    let run = |cpus: u32, touch_remote: bool| -> u64 {
        let mut k = BaselineKernel::builder().dram(64 << 20).cpus(cpus).build();
        let pid = MemSys::create_process(&mut k).unwrap();
        let va = MemSys::alloc(&mut k, pid, PAGES * PAGE_SIZE, true).unwrap();
        if touch_remote {
            k.set_cpu(CpuId(1));
            for page in 0..PAGES {
                MemSys::load(&mut k, pid, va + page * PAGE_SIZE).unwrap();
            }
            k.set_cpu(CpuId(0));
        } else {
            for page in 0..PAGES {
                MemSys::load(&mut k, pid, va + page * PAGE_SIZE).unwrap();
            }
        }
        let t0 = k.machine().now();
        MemSys::release(&mut k, pid, va, PAGES * PAGE_SIZE).unwrap();
        k.machine().now().since(t0)
    };
    let uni = run(1, false);
    let smp_local = run(64, false);
    let smp_remote = run(2, true);
    assert_eq!(uni, smp_local, "an untouched CPU costs nothing");
    assert!(
        smp_remote > smp_local,
        "a second CPU caching the ASID makes the unmap dearer: {smp_remote} vs {smp_local}"
    );
}
