//! End-to-end multi-process scenarios across the two kernels: COW and
//! pinning on the baseline (the features the paper concedes), shared
//! code and identical-address mappings on file-only memory.

use o1mem::core::{FomKernel, MapMech};
use o1mem::memfs::FileClass;
use o1mem::vm::{Backing, BaselineKernel, MapFlags, MemSys, Prot};
use o1mem::PAGE_SIZE;

#[test]
fn baseline_fork_chain_isolates_writes() {
    let mut k = BaselineKernel::builder().dram(128 << 20).build();
    let gen0 = MemSys::create_process(&mut k).unwrap();
    let va = k
        .mmap(
            gen0,
            8 * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private(),
        )
        .unwrap();
    for p in 0..8 {
        k.store(gen0, va + p * PAGE_SIZE, 100 + p).unwrap();
    }
    // Three generations of forks.
    let gen1 = k.fork(gen0).unwrap();
    let gen2 = k.fork(gen1).unwrap();
    // Everyone sees the original values.
    for pid in [gen0, gen1, gen2] {
        assert_eq!(k.load(pid, va).unwrap(), 100);
    }
    // Each generation writes its own page 0.
    k.store(gen1, va, 1111).unwrap();
    k.store(gen2, va, 2222).unwrap();
    assert_eq!(k.load(gen0, va).unwrap(), 100);
    assert_eq!(k.load(gen1, va).unwrap(), 1111);
    assert_eq!(k.load(gen2, va).unwrap(), 2222);
    // Untouched pages still shared and correct everywhere.
    for pid in [gen0, gen1, gen2] {
        assert_eq!(k.load(pid, va + 7 * PAGE_SIZE).unwrap(), 107);
    }
    for pid in [gen2, gen1, gen0] {
        MemSys::destroy_process(&mut k, pid).unwrap();
    }
}

#[test]
fn fom_many_processes_share_one_dataset() {
    for mech in [MapMech::SharedPt, MapMech::Pbm, MapMech::Ranges] {
        let mut k = FomKernel::builder().mech(mech).build();
        let writer = k.create_process().unwrap();
        let (_, wva) = k
            .create_named(writer, "/data/set", 16 << 20, FileClass::Persistent)
            .unwrap();
        for i in 0..64u64 {
            k.store(writer, wva + i * (256 * 1024), i * 7).unwrap();
        }
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let pid = k.create_process().unwrap();
                let (_, va) = k.open_map(pid, "/data/set", Prot::Read).unwrap();
                (pid, va)
            })
            .collect();
        for &(pid, va) in &readers {
            for i in 0..64u64 {
                assert_eq!(
                    k.load(pid, va + i * (256 * 1024)).unwrap(),
                    i * 7,
                    "{mech:?}"
                );
            }
            // Read-only mapping: stores fault.
            assert!(k.store(pid, va, 1).is_err(), "{mech:?} read-only enforced");
        }
        // Writer updates propagate to every reader instantly (one
        // physical copy).
        k.store(writer, wva, 424242).unwrap();
        for &(pid, va) in &readers {
            assert_eq!(k.load(pid, va).unwrap(), 424242, "{mech:?}");
        }
        for (pid, _) in readers {
            k.destroy_process(pid).unwrap();
        }
        k.destroy_process(writer).unwrap();
    }
}

#[test]
fn pbm_addresses_identical_across_processes() {
    let mut k = FomKernel::builder().mech(MapMech::Pbm).build();
    let a = k.create_process().unwrap();
    k.create_named(a, "/pbm/x", 4 << 20, FileClass::Persistent)
        .unwrap();
    let va_a = k.mapping_base(a, "/pbm/x").unwrap();
    let mut vas = vec![va_a];
    for _ in 0..4 {
        let pid = k.create_process().unwrap();
        let (_, va) = k.open_map(pid, "/pbm/x", Prot::ReadWrite).unwrap();
        vas.push(va);
    }
    assert!(vas.iter().all(|&v| v == va_a), "PBM: same VA everywhere");
}

#[test]
fn baseline_pinning_blocks_eviction_fom_needs_none() {
    // Baseline: explicit pinning, charged per page.
    let mut base = BaselineKernel::builder().dram(64 << 20).build();
    let pid = MemSys::create_process(&mut base).unwrap();
    let va = base
        .mmap(
            pid,
            64 * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private_populate(),
        )
        .unwrap();
    let t0 = base.machine().now();
    base.pin_range(pid, va, 64 * PAGE_SIZE).unwrap();
    let pin_ns = base.machine().now().since(t0);
    assert!(pin_ns >= 64 * base.machine().cost.unit(o1mem::hw::CostKind::PinPage));

    // fom: DMA prep is O(1) because nothing ever moves.
    let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
    let fpid = fom.create_process().unwrap();
    let (_, fva) = fom
        .falloc(fpid, 64 * PAGE_SIZE, FileClass::Volatile)
        .unwrap();
    let t0 = fom.machine().now();
    fom.dma_prepare(fpid, fva, 64 * PAGE_SIZE).unwrap();
    let fom_ns = fom.machine().now().since(t0);
    assert!(
        fom_ns * 10 < pin_ns,
        "implicit pinning {fom_ns} ns vs explicit {pin_ns} ns"
    );
}

#[test]
fn baseline_survives_heavy_overcommit_via_swap() {
    use o1mem::vm::{BaselineConfig, ReclaimPolicy, ThpMode};
    let mut k = BaselineKernel::new(BaselineConfig {
        dram_bytes: 128 * PAGE_SIZE,
        reclaim: ReclaimPolicy::Clock,
        low_watermark_frames: 16,
        swap_enabled: true,
        thp: ThpMode::Never,
        fault_around: 1,
    });
    let pid = MemSys::create_process(&mut k).unwrap();
    let pages = 400u64;
    let va = k
        .mmap(
            pid,
            pages * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private(),
        )
        .unwrap();
    for p in 0..pages {
        k.store(pid, va + p * PAGE_SIZE, p * 3).unwrap();
    }
    for p in 0..pages {
        assert_eq!(k.load(pid, va + p * PAGE_SIZE).unwrap(), p * 3, "p{p}");
    }
    assert!(k.stats().counters.pages_swapped_out > 0);
    assert!(k.stats().counters.major_faults > 0);
}

#[test]
fn mixed_kernels_drive_same_workload_module() {
    // The MemSys abstraction end-to-end: identical results, wildly
    // different charges.
    use o1mem::workloads::{drive_launch_storm, measure, Storm};
    let mut base = BaselineKernel::builder().dram(256 << 20).build();
    let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
    let b = drive_launch_storm(&mut base, 8, 128, Storm::HomeCpu).unwrap();
    let f = drive_launch_storm(&mut fom, 8, 128, Storm::HomeCpu).unwrap();
    assert!(b.ns > f.ns);
    // And both kernels are still functional afterwards — driven as
    // trait objects, since a heterogeneous list needs type erasure.
    for sys in [&mut base as &mut dyn MemSys, &mut fom as &mut dyn MemSys] {
        let m = measure(sys, |s| {
            let pid = s.create_process().unwrap();
            let va = s.alloc(pid, PAGE_SIZE, true)?;
            s.store(pid, va, 9)?;
            assert_eq!(s.load(pid, va)?, 9);
            s.destroy_process(pid)
        })
        .unwrap();
        assert!(m.ns > 0);
    }
}
