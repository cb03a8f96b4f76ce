//! Integration tests for the extension features: translation depth,
//! THP interactions, DMA, file growth, class changes, and erase
//! across a crash — exercised end-to-end across crates.

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::{DmaEngine, WalkMode};
use o1mem::memfs::FileClass;
use o1mem::vm::{
    Backing, BaselineConfig, BaselineKernel, KernelHooks, MapFlags, MemSys, Prot, ReclaimPolicy,
    ThpMode, VmError, MAX_MAP_BYTES,
};
use o1mem::PAGE_SIZE;

#[test]
fn virtualization_hurts_baseline_more_than_fom_ranges() {
    // The same sparse workload under native vs virtualized 5-level
    // translation: the baseline (page tables) slows down; fom with
    // range translations does not.
    let run_base = |mode: WalkMode| {
        let mut k = BaselineKernel::builder().dram(256 << 20).build();
        k.set_walk_mode(mode);
        let pid = MemSys::create_process(&mut k).unwrap();
        let va = k
            .mmap(
                pid,
                64 << 20,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        let t0 = k.machine().now();
        for i in 0..4096u64 {
            k.load(pid, va + (i * 4099 % 16384) * PAGE_SIZE).unwrap();
        }
        k.machine().now().since(t0)
    };
    let run_fom = |mode: WalkMode| {
        let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
        k.set_walk_mode(mode);
        let pid = k.create_process().unwrap();
        let (_, va) = k.falloc(pid, 64 << 20, FileClass::Volatile).unwrap();
        let t0 = k.machine().now();
        for i in 0..4096u64 {
            k.load(pid, va + (i * 4099 % 16384) * PAGE_SIZE).unwrap();
        }
        k.machine().now().since(t0)
    };
    let base_native = run_base(WalkMode::Native4);
    let base_virt = run_base(WalkMode::Virtualized5);
    assert!(
        base_virt as f64 > base_native as f64 * 1.5,
        "virtualization slows the baseline: {base_native} → {base_virt}"
    );
    let fom_native = run_fom(WalkMode::Native4);
    let fom_virt = run_fom(WalkMode::Virtualized5);
    assert_eq!(fom_native, fom_virt, "ranges don't walk page tables");
}

#[test]
fn thp_and_swap_coexist() {
    // Huge pages are unevictable until split; pressure must still be
    // survivable because base pages (and split fragments) swap.
    let mut k = BaselineKernel::new(BaselineConfig {
        dram_bytes: 1100 * PAGE_SIZE,
        reclaim: ReclaimPolicy::Clock,
        low_watermark_frames: 16,
        swap_enabled: true,
        thp: ThpMode::Aligned2M,
        fault_around: 1,
    });
    let pid = MemSys::create_process(&mut k).unwrap();
    // One huge mapping (512 frames)...
    let huge = k
        .mmap(
            pid,
            2 << 20,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private(),
        )
        .unwrap();
    k.store(pid, huge, 0x4242).unwrap();
    // ...plus more base pages than the remaining memory holds.
    let base = k
        .mmap(
            pid,
            900 * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private(),
        )
        .unwrap();
    for p in 0..900u64 {
        k.store(pid, base + p * PAGE_SIZE, p).unwrap();
    }
    assert!(
        k.stats().counters.pages_swapped_out > 0,
        "base pages swapped"
    );
    // Everything still reads correctly.
    assert_eq!(k.load(pid, huge).unwrap(), 0x4242);
    for p in 0..900u64 {
        assert_eq!(k.load(pid, base + p * PAGE_SIZE).unwrap(), p);
    }
}

#[test]
fn dma_transfer_moves_real_bytes_and_counts_faults() {
    let mut base = BaselineKernel::builder().dram(64 << 20).build();
    let pid = MemSys::create_process(&mut base).unwrap();
    let va = base
        .mmap(
            pid,
            16 * PAGE_SIZE,
            Prot::ReadWrite,
            Backing::Anon,
            MapFlags::private_populate(),
        )
        .unwrap();
    let mut dma = DmaEngine::new();
    // Unpinned: IOMMU faults, one per page.
    let pages = base
        .dma_transfer(pid, va, 16 * PAGE_SIZE, &mut dma)
        .unwrap();
    assert_eq!(pages, 16);
    assert_eq!(dma.iommu_faults, 16);
    // Pin, then transfer: no further faults.
    base.pin_range(pid, va, 16 * PAGE_SIZE).unwrap();
    dma.flush_iotlb();
    base.dma_transfer(pid, va, 16 * PAGE_SIZE, &mut dma)
        .unwrap();
    assert_eq!(dma.iommu_faults, 16, "pinned pages never fault");

    // fom: implicitly pinned from the start.
    let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
    let fpid = fom.create_process().unwrap();
    let (_, fva) = fom
        .falloc(fpid, 16 * PAGE_SIZE, FileClass::Volatile)
        .unwrap();
    let mut fdma = DmaEngine::new();
    fom.dma_transfer(fpid, fva, 16 * PAGE_SIZE, &mut fdma)
        .unwrap();
    assert_eq!(fdma.iommu_faults, 0);
}

#[test]
fn fgrow_end_to_end_with_persistence() {
    let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
    let pid = k.create_process().unwrap();
    let (_, va) = k
        .create_named(pid, "/grow/db", 1 << 20, FileClass::Persistent)
        .unwrap();
    k.store(pid, va, 7).unwrap();
    let va2 = k.fgrow(pid, va, 8 << 20).unwrap();
    k.store(pid, va2 + ((8 << 20) - 8), 8).unwrap();
    // Growth is journaled: the bigger file survives a crash.
    k.crash_and_recover();
    let pid = k.create_process().unwrap();
    let (_, va3) = k.open_map(pid, "/grow/db", Prot::ReadWrite).unwrap();
    assert_eq!(k.load(pid, va3).unwrap(), 7);
    assert_eq!(k.load(pid, va3 + ((8 << 20) - 8)).unwrap(), 8);

    // A failed grow leaves the mapping, its contents and the file's
    // references as they were, on every mechanism.
    for mech in MapMech::ALL {
        let mut k = FomKernel::builder().mech(mech).build();
        let pid = k.create_process().unwrap();
        let (frames0, files0) = (k.free_frames(), k.pmfs.file_count());
        let (_, va) = k.falloc(pid, 4 * PAGE_SIZE, FileClass::Volatile).unwrap();
        k.store(pid, va, 42).unwrap();
        let t0 = k.machine().now();
        assert_eq!(k.fgrow(pid, va, MAX_MAP_BYTES + 1), Err(VmError::BadRange));
        assert_eq!(
            k.machine().now(),
            t0,
            "{mech:?}: rejected before any charge"
        );
        assert_eq!(k.fgrow(pid, va, 1 << 40), Err(VmError::NoMemory));
        assert_eq!(k.load(pid, va).unwrap(), 42, "{mech:?}: mapping survives");
        k.unmap(pid, va).unwrap();
        k.destroy_process(pid).unwrap();
        assert_eq!(k.free_frames(), frames0, "{mech:?}: no frame leaked");
        assert_eq!(k.pmfs.file_count(), files0, "{mech:?}: no file leaked");
    }
}

#[test]
fn volatile_data_is_unreadable_after_crash_and_reuse() {
    // The secret's file is either still mapped at the crash or was
    // freed before it; either way, a file that reuses its frames after
    // recovery must read zeros.
    let secret = 0x5ec2e7u64;
    for mech in MapMech::ALL {
        for freed_before_crash in [false, true] {
            let mut k = FomKernel::builder().mech(mech).nvm(512 * PAGE_SIZE).build();
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, 256 * PAGE_SIZE, FileClass::Volatile).unwrap();
            for p in 0..256u64 {
                k.store(pid, va + p * PAGE_SIZE, secret).unwrap();
            }
            if freed_before_crash {
                k.unmap(pid, va).unwrap();
            }
            k.crash_and_recover();
            let pid = k.create_process().unwrap();
            let free = k.free_frames();
            let (_, scan) = k
                .falloc(pid, free * PAGE_SIZE, FileClass::Volatile)
                .unwrap();
            for p in 0..free {
                assert_eq!(
                    k.load(pid, scan + p * PAGE_SIZE).unwrap(),
                    0,
                    "{mech:?}, freed before crash: {freed_before_crash}: page {p}"
                );
            }
        }
    }
}

#[test]
fn walk_mode_and_thp_compose() {
    // Huge pages shorten walks (3 levels); under virtualized 5-level
    // translation that matters even more.
    let run = |thp: ThpMode| {
        let mut k = BaselineKernel::new(BaselineConfig {
            dram_bytes: 64 << 20,
            reclaim: ReclaimPolicy::Clock,
            low_watermark_frames: 0,
            swap_enabled: false,
            thp,
            fault_around: 1,
        });
        k.set_walk_mode(WalkMode::Virtualized5);
        let pid = MemSys::create_process(&mut k).unwrap();
        let va = k
            .mmap(
                pid,
                8 << 20,
                Prot::ReadWrite,
                Backing::Anon,
                MapFlags::private_populate(),
            )
            .unwrap();
        // Sparse touches to defeat the TLB.
        let t0 = k.machine().now();
        for i in 0..2000u64 {
            k.load(pid, va + (i * 131 % 2048) * PAGE_SIZE).unwrap();
        }
        k.machine().now().since(t0)
    };
    let base_4k = run(ThpMode::Never);
    let base_huge = run(ThpMode::Aligned2M);
    assert!(
        base_huge < base_4k,
        "huge pages cut virtualized translation cost: {base_4k} vs {base_huge}"
    );
}
