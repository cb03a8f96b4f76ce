//! Cross-kernel integration tests: the two designs must compute the
//! same *values* under identical workloads while charging the costs
//! the paper predicts.

use o1mem::core::{FomKernel, MapMech};
use o1mem::vm::{BaselineKernel, KernelHooks, MemSys};
use o1mem::workloads::{drive_access, drive_alloc, drive_churn, AccessPattern};
use o1mem::PAGE_SIZE;

const MECHS: [MapMech; 4] = [
    MapMech::PageTables,
    MapMech::SharedPt,
    MapMech::Pbm,
    MapMech::Ranges,
];

/// Run the same write-then-read workload on any kernel, returning the
/// values read back.
fn run_workload(sys: &mut impl MemSys, pages: u64, seed: u64) -> Vec<u64> {
    let pid = sys.create_process().unwrap();
    let va = sys.alloc(pid, pages * PAGE_SIZE, false).unwrap();
    let writes = AccessPattern::RandomUniform { count: pages * 2 }.generate(pages, seed);
    for (i, &p) in writes.iter().enumerate() {
        sys.store(pid, va + p * PAGE_SIZE, (i as u64) << 16 | p)
            .unwrap();
    }
    let out = (0..pages)
        .map(|p| sys.load(pid, va + p * PAGE_SIZE).unwrap())
        .collect();
    sys.destroy_process(pid).unwrap();
    out
}

#[test]
fn identical_values_across_all_designs() {
    let mut base = BaselineKernel::builder().dram(128 << 20).build();
    let expected = run_workload(&mut base, 256, 99);
    for mech in MECHS {
        let mut fom = FomKernel::builder().mech(mech).build();
        let got = run_workload(&mut fom, 256, 99);
        assert_eq!(got, expected, "mech {mech:?} diverged from baseline");
    }
}

#[test]
fn fom_never_faults_baseline_always_does() {
    let pages = 512u64;
    let mut base = BaselineKernel::builder().dram(128 << 20).build();
    let bpid = MemSys::create_process(&mut base).unwrap();
    let (bva, _) = drive_alloc(&mut base, bpid, pages, false).unwrap();
    let bm = drive_access(
        &mut base,
        bpid,
        bva,
        pages,
        &AccessPattern::OnePerPage,
        0,
        true,
    )
    .unwrap();
    assert_eq!(bm.perf.minor_faults, pages);

    for mech in MECHS {
        let mut fom = FomKernel::builder().mech(mech).build();
        let fpid = MemSys::create_process(&mut fom).unwrap();
        let (fva, _) = drive_alloc(&mut fom, fpid, pages, false).unwrap();
        let fm = drive_access(
            &mut fom,
            fpid,
            fva,
            pages,
            &AccessPattern::OnePerPage,
            0,
            true,
        )
        .unwrap();
        assert_eq!(fm.perf.minor_faults, 0, "mech {mech:?}");
        assert_eq!(fm.perf.major_faults, 0, "mech {mech:?}");
    }
}

#[test]
fn fom_wins_alloc_heavy_baseline_unaffected_on_rereads() {
    // Allocation-heavy: fom should win by a wide margin.
    let mut base = BaselineKernel::builder().dram(256 << 20).build();
    let bpid = MemSys::create_process(&mut base).unwrap();
    let b = drive_churn(&mut base, bpid, 4, 4, 512).unwrap();
    let mut fom = FomKernel::builder().mech(MapMech::Ranges).build();
    let fpid = MemSys::create_process(&mut fom).unwrap();
    let f = drive_churn(&mut fom, fpid, 4, 4, 512).unwrap();
    assert!(
        b.ns > 3 * f.ns,
        "churn: baseline {} ns vs fom {} ns",
        b.ns,
        f.ns
    );

    // Re-read-heavy (warm): the two designs converge — translation is
    // cheap for both once mapped.
    let bva = drive_alloc(&mut base, bpid, 256, true).unwrap().0;
    let warm_b = {
        drive_access(
            &mut base,
            bpid,
            bva,
            256,
            &AccessPattern::Sweep { sweeps: 1 },
            0,
            false,
        )
        .unwrap();
        drive_access(
            &mut base,
            bpid,
            bva,
            256,
            &AccessPattern::Sweep { sweeps: 4 },
            0,
            false,
        )
        .unwrap()
    };
    let fva = drive_alloc(&mut fom, fpid, 256, true).unwrap().0;
    let warm_f = {
        drive_access(
            &mut fom,
            fpid,
            fva,
            256,
            &AccessPattern::Sweep { sweeps: 1 },
            0,
            false,
        )
        .unwrap();
        drive_access(
            &mut fom,
            fpid,
            fva,
            256,
            &AccessPattern::Sweep { sweeps: 4 },
            0,
            false,
        )
        .unwrap()
    };
    let ratio = warm_b.ns as f64 / warm_f.ns as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "warm access should be comparable, ratio {ratio}"
    );
}

#[test]
fn memory_conserved_after_churn_on_every_design() {
    for mech in MECHS {
        let mut fom = FomKernel::builder().mech(mech).build();
        let free0 = fom.free_frames();
        let pid = MemSys::create_process(&mut fom).unwrap();
        drive_churn(&mut fom, pid, 3, 8, 64).unwrap();
        MemSys::destroy_process(&mut fom, pid).unwrap();
        assert_eq!(fom.free_frames(), free0, "mech {mech:?} leaked");
        assert_eq!(fom.pt_metadata_bytes(), 0, "mech {mech:?} leaked PT nodes");
        // Many live processes at once: each reads back only its own
        // stores, and tearing them all down returns every frame.
        let procs: Vec<_> = (0..16u64)
            .map(|t| {
                let pid = MemSys::create_process(&mut fom).unwrap();
                let pages = 16 + t % 48;
                let va = fom.alloc(pid, pages * PAGE_SIZE, false).unwrap();
                for p in 0..pages {
                    fom.store(pid, va + p * PAGE_SIZE, t << 32 | p).unwrap();
                }
                (t, pid, va, pages)
            })
            .collect();
        for &(t, pid, va, pages) in &procs {
            for p in 0..pages {
                assert_eq!(fom.load(pid, va + p * PAGE_SIZE).unwrap(), t << 32 | p);
            }
        }
        for (_, pid, _, _) in procs {
            MemSys::destroy_process(&mut fom, pid).unwrap();
        }
        assert_eq!(fom.free_frames(), free0, "mech {mech:?} leaked");
    }
}

#[test]
fn metadata_footprint_gap() {
    // The baseline pays 64 B/frame unconditionally; fom pays a bitmap
    // bit per frame plus extent records.
    let base = BaselineKernel::builder().dram(256 << 20).build();
    let baseline_meta = base.page_meta_bytes();
    let fom = FomKernel::builder().mech(MapMech::SharedPt).build();
    let fom_meta = fom.pmfs.allocator_metadata_bytes();
    assert!(
        baseline_meta > 100 * fom_meta * (256 << 20) / (1 << 30),
        "struct page {baseline_meta} B vs bitmap {fom_meta} B"
    );
}
