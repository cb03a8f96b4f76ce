//! Conservation property over randomized workloads: whatever a seeded
//! op stream does to a kernel — allocs, frees, stores, loads, phase
//! switches, process churn — the machine's ledger must account for
//! every simulated nanosecond, and every ledger row must be its count
//! times the kind's price in that machine's table. The figure-suite gate
//! (`suite_matrix.rs`) checks the paths the paper exercises; this
//! one walks the op space at random so new charge paths can't dodge
//! the ledger by staying off the figure suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::{DmaEngine, DmaMode, MachineConfig, ObsMode, PhysAddr};
use o1mem::palloc::{CryptoZero, ExtentAllocator, FrameSource, PhysExtent};
use o1mem::vm::{BaselineKernel, CpuId, MemSys};
use o1mem::{Machine, VirtAddr, PAGE_SIZE};

/// Drive one kernel through a seeded random workload, switching
/// ledger phases along the way and hopping between CPUs so every
/// invalidation broadcast finds a different responder set.
fn churn(sys: &mut impl MemSys, seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cpus = sys.cpu_count();
    let mut pid = sys.create_process().unwrap();
    let mut regions: Vec<Option<(VirtAddr, u64)>> = vec![None; 8];
    for i in 0..ops {
        if i % 64 == 0 {
            sys.phase(["alloc", "access", "churn"][(i / 64) % 3]);
        }
        if i % 7 == 0 {
            sys.set_cpu(CpuId(rng.random_range(0..cpus)));
        }
        match rng.random_range(0..10u32) {
            0 | 1 => {
                if let Some(slot) = regions.iter().position(Option::is_none) {
                    let pages = rng.random_range(1..64);
                    let va = sys.alloc(pid, pages * PAGE_SIZE, rng.random()).unwrap();
                    regions[slot] = Some((va, pages));
                }
            }
            2 => {
                if let Some((va, pages)) = regions[rng.random_range(0..8usize)].take() {
                    sys.release(pid, va, pages * PAGE_SIZE).unwrap();
                }
            }
            3..=6 => {
                if let Some((va, pages)) = regions[rng.random_range(0..8usize)] {
                    let page = rng.random_range(0..pages);
                    sys.store(pid, va + page * PAGE_SIZE, page).unwrap();
                }
            }
            7 | 8 => {
                if let Some((va, pages)) = regions[rng.random_range(0..8usize)] {
                    let page = rng.random_range(0..pages);
                    let _ = sys.load(pid, va + page * PAGE_SIZE).unwrap();
                }
            }
            _ => {
                for r in regions.iter_mut() {
                    if let Some((va, pages)) = r.take() {
                        sys.release(pid, va, pages * PAGE_SIZE).unwrap();
                    }
                }
                pid = sys.create_process().unwrap();
            }
        }
    }
}

/// Close the machine's ledger and assert it conserves the clock and
/// that every row is priced by the machine's own table.
fn assert_conserves(m: &mut Machine, what: &str) {
    let clock = m.now().0;
    let report = m.take_trace().expect("ObsMode::On forces a ledger");
    assert_eq!(report.clock_ns, clock, "{what}: ledger closed at the clock");
    assert!(clock > 0, "{what}: the workload advanced simulated time");
    assert!(
        report.conserves(),
        "{what}: ledger {} ns != clock {} ns",
        report.charged_ns,
        report.clock_ns
    );
    for r in &report.rows {
        assert_eq!(
            r.ns,
            r.count * m.cost.unit(r.kind),
            "{what}: {} row in phase {} is not count x price",
            r.kind.name(),
            r.phase
        );
    }
}

#[test]
fn randomized_workloads_conserve_on_the_baseline_kernel() {
    for seed in 0..4u64 {
        let mut k = BaselineKernel::builder()
            .dram(256 << 20)
            .obs(ObsMode::On)
            .build();
        churn(&mut k, seed, 600);
        assert_conserves(k.machine_mut(), &format!("baseline seed {seed}"));
    }
}

#[test]
fn randomized_workloads_conserve_on_every_fom_mechanism() {
    for mech in MapMech::ALL {
        for seed in 0..2u64 {
            let mut k = FomKernel::builder()
                .dram(128 << 20)
                .nvm(256 << 20)
                .mech(mech)
                .obs(ObsMode::On)
                .build();
            churn(&mut k, seed, 400);
            assert_conserves(k.machine_mut(), &format!("{mech:?} seed {seed}"));
        }
    }
}

/// OBASE tiering moves data between tiers outside any foreground
/// operation, so its traffic is easy to lose track of. Conservation
/// here is exact and two-way: every page the mechanism reports having
/// migrated appears in the ledger as one `PageMigrate` primitive, and
/// the ledger still accounts for every simulated nanosecond including
/// the background ticks.
#[test]
fn obase_migration_bytes_match_the_ledger() {
    use o1mem::hw::CostKind;
    use o1mem::FileClass;

    // A DRAM pool two objects wide under an eight-object working set
    // with skewed heat: promotions fill the pool, then hotter objects
    // evict colder residents, so both copy directions are exercised.
    let mut k = FomKernel::builder()
        .mech(MapMech::Obase)
        .dram(2 * 8 * PAGE_SIZE)
        .nvm(64 << 20)
        .obs(ObsMode::On)
        .build();
    let pid = k.create_process().unwrap();
    let vas: Vec<VirtAddr> = (0..8)
        .map(|_| k.falloc(pid, 8 * PAGE_SIZE, FileClass::Volatile).unwrap().1)
        .collect();
    for round in 0..6u64 {
        for (i, &va) in vas.iter().enumerate() {
            // Rotate which objects are hot so the resident set turns
            // over: heat 8/4/2/1 touches by (object + round) rank.
            let touches = 8u64 >> ((i as u64 + round) % 4);
            for t in 0..touches {
                let _ = k.load(pid, va + (t % 8) * PAGE_SIZE).unwrap();
            }
        }
        k.mechanism_tick(64);
    }
    let migrated = k.migrated_bytes();
    assert!(migrated > 0, "the tiering workload migrated something");
    let clock = k.machine().now().0;
    let report = k.machine_mut().take_trace().expect("ledger on");
    let ledger_pages: u64 = report
        .rows
        .iter()
        .filter(|r| r.kind == CostKind::PageMigrate)
        .map(|r| r.count)
        .sum();
    assert_eq!(
        migrated,
        ledger_pages * PAGE_SIZE,
        "migrated bytes == ledger PageMigrate pages"
    );
    assert_eq!(report.clock_ns, clock, "ledger closed at the clock");
    assert!(report.conserves(), "ledger conserves with background ticks");
}

/// Shootdown broadcasts charge per responding CPU; the ledger must
/// absorb every IPI no matter how the workload migrates between CPUs,
/// on any machine size, on both kernels and every fom mechanism.
#[test]
fn multi_cpu_workloads_conserve_on_both_kernels() {
    for cpus in [1u32, 2, 8, 64] {
        let mut k = BaselineKernel::builder()
            .dram(256 << 20)
            .cpus(cpus)
            .obs(ObsMode::On)
            .build();
        churn(&mut k, 7 + u64::from(cpus), 600);
        assert_conserves(k.machine_mut(), &format!("baseline cpus {cpus}"));
        for mech in MapMech::ALL {
            let mut k = FomKernel::builder()
                .dram(128 << 20)
                .nvm(256 << 20)
                .mech(mech)
                .cpus(cpus)
                .obs(ObsMode::On)
                .build();
            churn(&mut k, 11 + u64::from(cpus), 400);
            assert_conserves(k.machine_mut(), &format!("{mech:?} cpus {cpus}"));
        }
    }
}

/// Device DMA and crypto-erase are charged outside the kernels' op
/// funnel; their rows must come from the same price table as every
/// other charge, on a machine whose table was repriced as well.
#[test]
fn dma_and_crypto_erase_are_priced_by_the_table() {
    use o1mem::hw::CostKind;

    for repriced in [false, true] {
        let mut m = MachineConfig {
            obs: ObsMode::On,
            ..MachineConfig::default()
        }
        .build();
        if repriced {
            m.cost = m
                .cost
                .clone()
                .with(CostKind::DmaPage, 3)
                .with(CostKind::IommuFault, 5)
                .with(CostKind::KeyDrop, 7);
        }
        let mut dma = DmaEngine::new();
        dma.transfer(&mut m, PhysAddr(0), 8 * PAGE_SIZE, DmaMode::Pinned);
        dma.transfer(&mut m, PhysAddr(0), 8 * PAGE_SIZE, DmaMode::IommuFaulting);
        assert_eq!(dma.iommu_faults, 8);
        let mut crypto = CryptoZero::new(ExtentAllocator::new(PhysExtent::new(
            o1mem::hw::FrameNo(0),
            64,
        )));
        let ext = crypto.alloc(&mut m, 4).unwrap();
        crypto.free(&mut m, ext);
        assert_conserves(
            &mut m,
            &format!("dma and crypto-erase, repriced {repriced}"),
        );
    }
}
