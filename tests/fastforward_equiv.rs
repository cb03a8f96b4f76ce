//! Run-compressed fast-forward equivalence: for random access
//! patterns against every kernel, executing through `access_runs`
//! with fast-forward ON must be indistinguishable — simulated clock,
//! every perf counter, every ledger row, every latency histogram
//! bucket — from the per-access interpreter (fast-forward OFF on the
//! same machine via [`Machine::set_fastforward`]). The fast path is
//! an *execution* optimisation, never a *semantics* change.
//!
//! Each comparison builds two identical kernels, drives the identical
//! workload, and diffs the closed ledgers field by field. Toggling is
//! per machine, so no run context is involved.

use std::cell::{Cell, RefCell};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::{DmaEngine, ObsMode};
use o1mem::memfs::FileClass;
use o1mem::vm::{AccessRun, BaselineKernel, CpuId, KernelHooks, MemSys, Pid, Prot, ThpMode};
use o1mem::workloads::{
    drive_access, drive_churn, drive_launch_storm, drive_service_fleet, AccessPattern, Storm,
};
use o1mem::{VirtAddr, PAGE_SIZE};

fn patterns() -> Vec<(AccessPattern, u64)> {
    vec![
        (AccessPattern::OnePerPage, 128),
        (AccessPattern::Sweep { sweeps: 4 }, 96),
        (AccessPattern::RandomUniform { count: 400 }, 64),
        (
            AccessPattern::Zipf {
                count: 300,
                theta: 0.9,
            },
            64,
        ),
        (
            AccessPattern::Strided {
                stride: 7,
                count: 500,
            },
            64,
        ),
        (
            AccessPattern::HotCold {
                count: 300,
                hot_pct: 90,
                hot_fraction_pct: 10,
            },
            64,
        ),
    ]
}

/// Drive the same workload on both kernels (`a` fast-forwards, `b`
/// interprets) and assert the observable universes are identical.
fn assert_equivalent(
    mut a: Box<dyn MemSys>,
    mut b: Box<dyn MemSys>,
    what: &str,
    drive: &dyn Fn(&mut dyn MemSys),
) {
    assert!(a.machine().fastforward(), "{what}: default is on");
    b.machine_mut().set_fastforward(false);
    drive(a.as_mut());
    drive(b.as_mut());
    assert_same_universe(a.as_mut(), b.as_mut(), what);
}

/// Assert that two driven kernels have the same clock, perf counters,
/// ledger rows, phase timeline and latency histograms.
fn assert_same_universe(a: &mut dyn MemSys, b: &mut dyn MemSys, what: &str) {
    assert_eq!(a.stats(), b.stats(), "{what}: clock + perf counters");
    let ra = a.machine_mut().take_trace().expect("ledger on");
    let rb = b.machine_mut().take_trace().expect("ledger on");
    assert_eq!(ra.clock_ns, rb.clock_ns, "{what}: clock");
    assert_eq!(ra.charged_ns, rb.charged_ns, "{what}: charged");
    assert!(ra.conserves(), "{what}: fast-forward ledger conserves");
    assert_eq!(ra.spans, rb.spans, "{what}: phase timeline");
    assert_eq!(ra.rows, rb.rows, "{what}: ledger rows");
    assert_eq!(ra.ops.len(), rb.ops.len(), "{what}: op-histogram keys");
    for (oa, ob) in ra.ops.iter().zip(&rb.ops) {
        assert_eq!(
            (oa.phase, oa.op, oa.mech),
            (ob.phase, ob.op, ob.mech),
            "{what}: op row key"
        );
        assert_eq!(
            oa.hist, ob.hist,
            "{what}: latency buckets for {:?}/{}",
            oa.op, oa.mech
        );
    }
}

/// Two identically-configured kernels behind genuine type erasure —
/// exactly the heterogeneous-list use case `Box<dyn MemSys>` exists
/// for.
type KernelPair = (Box<dyn MemSys>, Box<dyn MemSys>);

fn baseline_pair(thp: ThpMode) -> KernelPair {
    let mk = || {
        Box::new(
            BaselineKernel::builder()
                .dram(256 << 20)
                .thp(thp)
                .obs(ObsMode::On)
                .build(),
        ) as Box<dyn MemSys>
    };
    (mk(), mk())
}

fn fom_pair(mech: MapMech) -> KernelPair {
    let mk = || {
        Box::new(
            FomKernel::builder()
                .dram(128 << 20)
                .nvm(256 << 20)
                .mech(mech)
                .obs(ObsMode::On)
                .build(),
        ) as Box<dyn MemSys>
    };
    (mk(), mk())
}

fn all_kernel_pairs() -> Vec<(String, KernelPair)> {
    let mut pairs: Vec<(String, KernelPair)> = vec![
        ("baseline".into(), baseline_pair(ThpMode::Never)),
        ("baseline-thp".into(), baseline_pair(ThpMode::Aligned2M)),
    ];
    for mech in MapMech::ALL {
        pairs.push((format!("fom-{mech:?}"), fom_pair(mech)));
    }
    pairs
}

#[test]
fn access_patterns_match_the_interpreter_on_every_kernel() {
    for (pattern, pages) in patterns() {
        for populate in [false, true] {
            for write in [false, true] {
                for (name, (a, b)) in all_kernel_pairs() {
                    let what = format!("{name} {pattern:?} populate={populate} write={write}");
                    let p = pattern.clone();
                    assert_equivalent(a, b, &what, &move |sys: &mut dyn MemSys| {
                        let pid = sys.create_process().unwrap();
                        let va = sys.alloc(pid, pages * PAGE_SIZE, populate).unwrap();
                        drive_access(sys, pid, va, pages, &p, 42, write).unwrap();
                        // A second pass runs fully warm, so the fast
                        // path actually engages on every kernel.
                        drive_access(sys, pid, va, pages, &p, 43, write).unwrap();
                        sys.destroy_process(pid).unwrap();
                    });
                }
            }
        }
    }
}

#[test]
fn random_spans_match_the_interpreter() {
    // Raw access_span calls with adversarial strides: negative,
    // page-crossing, sub-page, zero — plus random starting offsets.
    for (name, (a, b)) in all_kernel_pairs() {
        let what = format!("{name} random spans");
        assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
            let mut rng = StdRng::seed_from_u64(7);
            let pid = sys.create_process().unwrap();
            let pages = 64u64;
            let va = sys.alloc(pid, pages * PAGE_SIZE, true).unwrap();
            for i in 0..200u64 {
                let start = rng.random_range(0..pages * PAGE_SIZE - 8) & !7;
                let stride = [
                    0i64,
                    8,
                    -8,
                    64,
                    PAGE_SIZE as i64,
                    -(PAGE_SIZE as i64),
                    2048,
                    3 * PAGE_SIZE as i64,
                ][rng.random_range(0..8usize)];
                let max_len = if stride == 0 {
                    16
                } else {
                    let room = if stride > 0 {
                        (pages * PAGE_SIZE - 8 - start) / stride as u64
                    } else {
                        start / stride.unsigned_abs()
                    };
                    room.min(64)
                };
                let len = rng.random_range(1..=max_len.max(1));
                let write = rng.random();
                sys.access_span(pid, va + start, stride, len, write, i * 1000)
                    .unwrap();
            }
            // An empty run is a no-op, also inside a batch whose hit
            // span crosses run boundaries.
            let runs = [
                AccessRun {
                    start_page: 0,
                    stride: 1,
                    len: 0,
                },
                AccessRun {
                    start_page: 1,
                    stride: 1,
                    len: 4,
                },
            ];
            for write in [false, true] {
                sys.access_runs(pid, va, &runs, write, 7).unwrap();
            }
            sys.destroy_process(pid).unwrap();
        });
    }
}

/// On a multi-CPU machine a hit span must not outlive an invalidation
/// broadcast from another CPU: `Mmu::translate` syncs the proving CPU
/// with every broadcast before it proves a span, across runs too. This
/// drives CPU-hopping accesses interleaved with broadcasting frees on
/// both kernels and asserts the fast path still cannot be told apart
/// from the interpreter.
#[test]
fn smp_machines_match_the_interpreter() {
    for cpus in [2u32, 8, 64] {
        let pairs: Vec<(String, KernelPair)> = vec![
            (format!("baseline cpus={cpus}"), {
                let mk = || {
                    Box::new(
                        BaselineKernel::builder()
                            .dram(256 << 20)
                            .cpus(cpus)
                            .obs(ObsMode::On)
                            .build(),
                    ) as Box<dyn MemSys>
                };
                (mk(), mk())
            }),
            (format!("fom-Ranges cpus={cpus}"), {
                let mk = || {
                    Box::new(
                        FomKernel::builder()
                            .dram(128 << 20)
                            .nvm(256 << 20)
                            .mech(MapMech::Ranges)
                            .cpus(cpus)
                            .obs(ObsMode::On)
                            .build(),
                    ) as Box<dyn MemSys>
                };
                (mk(), mk())
            }),
        ];
        for (name, (a, b)) in pairs {
            assert_equivalent(a, b, &name, &|sys: &mut dyn MemSys| {
                let cpus = sys.cpu_count();
                let pid = sys.create_process().unwrap();
                let pages = 96u64;
                let va = sys.alloc(pid, pages * PAGE_SIZE, true).unwrap();
                // Warm several CPUs' translation caches on one span.
                for cpu in 0..cpus.min(4) {
                    sys.set_cpu(CpuId(cpu));
                    sys.access_span(pid, va, PAGE_SIZE as i64, pages, false, 0)
                        .unwrap();
                }
                // Churn broadcasts invalidations from round-robin
                // CPUs, staling every other CPU's proof window.
                drive_churn(sys, pid, 2, 5, 16).unwrap();
                // Post-broadcast accesses: each CPU re-walks what the
                // broadcasts dropped, then fuses its hit spans again.
                for cpu in 0..cpus.min(4) {
                    sys.set_cpu(CpuId(cpu));
                    sys.access_span(pid, va, PAGE_SIZE as i64, pages, true, 7)
                        .unwrap();
                }
                sys.set_cpu(CpuId(0));
                sys.destroy_process(pid).unwrap();
                drive_launch_storm(sys, 4, 32, Storm::HomeCpu).unwrap();
            });
        }
    }
}

#[test]
fn churn_and_launch_storm_drivers_match_the_interpreter() {
    for (name, (a, b)) in all_kernel_pairs() {
        let what = format!("{name} churn");
        assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
            let pid = sys.create_process().unwrap();
            drive_churn(sys, pid, 2, 3, 32).unwrap();
            sys.destroy_process(pid).unwrap();
        });
    }
    for (name, (a, b)) in all_kernel_pairs() {
        let what = format!("{name} launch storm");
        assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
            drive_launch_storm(sys, 3, 64, Storm::HomeCpu).unwrap();
        });
    }
}

/// The fault-run fast-forward path proves whole missing spans and
/// charges N faults analytically. A cold-start tenant fleet is its
/// worst case: every launch's first touch is a miss span over fresh,
/// unbacked memory, and the tenant is torn down moments later so
/// nothing stays warm. Stream a Zipf fleet through every kernel and
/// assert the analytic charge is indistinguishable from faulting
/// page by page.
#[test]
fn cold_start_fleets_match_the_interpreter() {
    for (name, (a, b)) in all_kernel_pairs() {
        let what = format!("{name} cold-start fleet");
        assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
            drive_service_fleet(sys, 600, 48, 64, 0.9, 17, false, |_| {}).unwrap();
        });
    }
}

/// Past 65,535 launches the ASID space rolls over: every later
/// tenant gets a recycled ASID whose stale translations are flushed
/// first. `fig_service` reaches this only at full scale, so drive one
/// rollover on every kernel and stream a fleet through the recycled
/// generation.
#[test]
fn asid_rollover_fleets_match_the_interpreter() {
    for (name, (a, b)) in all_kernel_pairs() {
        let what = format!("{name} fleet after ASID rollover");
        assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
            for _ in 0..u16::MAX {
                let pid = sys.create_process().unwrap();
                sys.destroy_process(pid).unwrap();
            }
            drive_service_fleet(sys, 600, 48, 64, 0.9, 17, false, |_| {}).unwrap();
        });
    }
}

/// Migration slices each tenant's touch run across every CPU, so
/// every leg's first batch lands on a cold TLB under a fresh ASID
/// and must re-prove its span. Those re-proofs (and the refusals
/// that precede them) have to cost exactly what the interpreter
/// charges.
#[test]
fn migrating_storms_match_the_interpreter() {
    let mut pairs: Vec<(String, KernelPair)> = vec![("baseline cpus=4".into(), {
        let mk = || {
            Box::new(
                BaselineKernel::builder()
                    .dram(256 << 20)
                    .cpus(4)
                    .obs(ObsMode::On)
                    .build(),
            ) as Box<dyn MemSys>
        };
        (mk(), mk())
    })];
    for mech in MapMech::ALL {
        pairs.push((format!("fom-{mech:?} cpus=4"), {
            let mk = move || {
                Box::new(
                    FomKernel::builder()
                        .dram(128 << 20)
                        .nvm(256 << 20)
                        .mech(mech)
                        .cpus(4)
                        .obs(ObsMode::On)
                        .build(),
                ) as Box<dyn MemSys>
            };
            (mk(), mk())
        }));
    }
    for (name, (a, b)) in pairs {
        assert_equivalent(a, b, &name, &|sys: &mut dyn MemSys| {
            drive_launch_storm(sys, 6, 96, Storm::Migrating).unwrap();
        });
    }
}

/// The O(1)-memory claim under churn, measured on the simulator's
/// own heap: streaming 100k tenants through a 256-slot fleet must
/// leave the kernel's live host allocations tracking the 256 live
/// processes, not the 100k that have come and gone. A per-tenant
/// leak of ~80 bytes — one stale rmap entry, one unfreed pid-map
/// slot — would trip the bound.
#[test]
fn tenant_churn_keeps_host_heap_bounded_by_live_processes() {
    if !o1_obs::hostmem::counting() {
        eprintln!("skipped: build without the obs `hostmem` feature");
        return;
    }
    let kernels: Vec<(&str, Box<dyn MemSys>)> = vec![
        (
            "baseline",
            Box::new(BaselineKernel::builder().dram(64 << 20).cpus(4).build()),
        ),
        (
            "fom-Ranges",
            Box::new(
                FomKernel::builder()
                    .nvm(256 << 20)
                    .mech(MapMech::Ranges)
                    .cpus(4)
                    .build(),
            ),
        ),
    ];
    for (name, mut sys) in kernels {
        // One warm-up fleet first, so steady-state table capacity is
        // allocated before the baseline snapshot.
        drive_service_fleet(sys.as_mut(), 2_000, 256, 4096, 0.9, 3, true, |_| {}).unwrap();
        let live0 = o1_obs::hostmem::snapshot().live_bytes;
        let mut deltas: Vec<u64> = Vec::new();
        drive_service_fleet(sys.as_mut(), 100_000, 256, 4096, 0.9, 4, true, |_| {
            let live = o1_obs::hostmem::snapshot().live_bytes;
            deltas.push(live.saturating_sub(live0));
        })
        .unwrap();
        // Early checkpoints still warm per-frame metadata (rmap
        // capacity, buddy reach) as the allocator's footprint spreads
        // across DRAM — that is O(frames), paid once. Past that ramp
        // the heap must plateau: the final 20k tenants may add almost
        // nothing, because live state is O(256 live processes). One
        // leaked rmap entry per tenant (24 B x 20k) would trip this.
        let (ramp, last) = (deltas[7], *deltas.last().unwrap());
        assert!(
            last.saturating_sub(ramp) < 256 << 10,
            "{name}: live host heap still growing in steady state: {ramp} → {last}"
        );
        // Absolute scale sanity: 100k tenants' worth of per-process
        // page tables alone would be hundreds of MiB.
        let worst = deltas.iter().copied().max().unwrap_or(0);
        assert!(
            worst < 32 << 20,
            "{name}: churning 100k tenants grew the live host heap by {worst} bytes"
        );
    }
}

/// The run engine fuses every hit span the MMU can prove: one
/// translate per span, wherever the run starts. Every equivalence test
/// above would still pass with an engine that never fused, and
/// `fig_sweep` would run far slower, so the fusions are pinned here by
/// count.
#[test]
fn the_engine_fuses_every_provable_hit_span() {
    // Four 2 MiB regions, so a warm pass hits four resident 2M TLB
    // entries.
    const PAGES: u64 = 2048;
    let warm_sweep = |sys: &mut dyn MemSys| {
        let pid = sys.create_process().unwrap();
        let va = sys.alloc(pid, PAGES * PAGE_SIZE, false).unwrap();
        let sweep = AccessRun {
            start_page: 0,
            stride: 1,
            len: PAGES,
        };
        // The cold pass faults the region in.
        sys.access_runs(pid, va, &[sweep], true, 0).unwrap();
        let before = sys.machine().ffwd_accesses;
        sys.access_runs(pid, va, &[sweep], false, 0).unwrap();
        sys.machine().ffwd_accesses - before
    };
    // Each region's first access hits its resident 2M entry, so the
    // span starts there: all 2,048 accesses fuse.
    let (mut baseline, _) = baseline_pair(ThpMode::Aligned2M);
    assert_eq!(warm_sweep(baseline.as_mut()), PAGES, "baseline THP sweep");
    let (mut fom_pt, _) = fom_pair(MapMech::PageTables);
    assert_eq!(warm_sweep(fom_pt.as_mut()), PAGES, "fom page-table sweep");

    // A stride-0 span on the page the last access translated fuses
    // whole.
    let (mut sys, _) = baseline_pair(ThpMode::Never);
    let pid = sys.create_process().unwrap();
    let va = sys.alloc(pid, PAGE_SIZE, true).unwrap();
    sys.load(pid, va).unwrap();
    let before = sys.machine().ffwd_accesses;
    sys.access_span(pid, va, 0, 100, true, 7).unwrap();
    assert_eq!(sys.machine().ffwd_accesses - before, 100, "stride-0 span");
    assert_eq!(sys.load(pid, va), Ok(106));

    // A short run on a TLB-resident page that the last translation
    // did not touch fuses from its first access.
    let (baseline, _) = baseline_pair(ThpMode::Never);
    let (fom_pt, _) = fom_pair(MapMech::PageTables);
    for (name, mut sys) in [("baseline", baseline), ("fom_pt", fom_pt)] {
        let pid = sys.create_process().unwrap();
        let va = sys.alloc(pid, 2 * PAGE_SIZE, true).unwrap();
        sys.load(pid, va).unwrap();
        sys.load(pid, va + PAGE_SIZE).unwrap();
        let before = sys.machine().ffwd_accesses;
        sys.access_span(pid, va, 8, 4, false, 0).unwrap();
        assert_eq!(
            sys.machine().ffwd_accesses - before,
            4,
            "{name}: resident page"
        );
    }
}

/// A hit span runs on through the following whole runs of its batch
/// while they stay inside its translation entry: one 4 KiB page, one
/// 2 MiB THP leaf, one range. Batches of single-access and strided
/// runs, read and then written, on every kernel against its
/// interpreting twin, with the fused access counts pinned per kernel.
#[test]
fn hit_spans_cross_run_boundaries_inside_one_entry() {
    let run = |start_page, stride, len| AccessRun {
        start_page,
        stride,
        len,
    };
    for (name, (a, b)) in all_kernel_pairs() {
        let fused = RefCell::new(Vec::new());
        assert_equivalent(a, b, &name, &|sys: &mut dyn MemSys| {
            let pid = sys.create_process().unwrap();
            let va = sys.alloc(pid, 512 * PAGE_SIZE, true).unwrap();
            let other = sys.alloc(pid, PAGE_SIZE, true).unwrap();
            assert!(other.0 > va.0, "{name}: the second region lies above");
            let away = (other.0 - va.0) / PAGE_SIZE;
            let batches = [
                // Eight single accesses on one page.
                vec![run(0, 0, 1); 8],
                // Repeated touches of that page, with an empty run.
                vec![run(0, 0, 3), run(0, 0, 0), run(0, 0, 2), run(0, 0, 1)],
                // Forward and backward strides across the first 2 MiB.
                vec![
                    run(5, 0, 1),
                    run(100, 3, 10),
                    run(400, -7, 5),
                    run(511, 0, 1),
                ],
                // The third run leaves for the other region.
                vec![run(0, 0, 1), run(0, 0, 2), run(away, 0, 1), run(0, 0, 1)],
            ];
            for write in [false, true] {
                for batch in &batches {
                    // The first page's entry is resident.
                    sys.load(pid, va).unwrap();
                    let before = sys.machine().ffwd_accesses;
                    sys.access_runs(pid, va, batch, write, 0).unwrap();
                    if sys.machine().fastforward() {
                        fused
                            .borrow_mut()
                            .push(sys.machine().ffwd_accesses - before);
                    }
                }
            }
            sys.destroy_process(pid).unwrap();
        });
        // Fused accesses per batch, alike in the read and write pass.
        // A 4 KiB entry covers no strided run, and Utopia's fast region
        // takes part in every translation, so it always covers 1.
        let pass = match name.as_str() {
            "fom-Utopia" => [0; 4],
            "baseline-thp" | "fom-PageTables" | "fom-Ranges" => [8, 6, 1 + 10 + 5 + 1, 3],
            _ => [8, 6, 0, 3],
        };
        assert_eq!(fused.into_inner(), [pass, pass].concat(), "{name}");
    }
}

/// A fault run starts at the access whose walk failed, whatever came
/// before it in the run, and is checked against its interpreting twin.
#[test]
fn fault_runs_start_at_the_failed_walk() {
    const PAGES: u64 = 64;
    let stride = PAGE_SIZE as i64;
    // Fuse a cold strided write of `PAGES` after `setup`, on a
    // fast-forwarding kernel and its interpreting twin; return how
    // many of its accesses the fast-forwarding one fused.
    let fused_after =
        |what: &str, (a, b): KernelPair, setup: &dyn Fn(&mut dyn MemSys, Pid, VirtAddr)| {
            let fused = Cell::new(0);
            assert_equivalent(a, b, what, &|sys: &mut dyn MemSys| {
                let pid = sys.create_process().unwrap();
                let va = sys.alloc(pid, PAGES * PAGE_SIZE, false).unwrap();
                setup(sys, pid, va);
                let before = sys.machine().ffwd_accesses;
                sys.access_span(pid, va, stride, PAGES, true, 100).unwrap();
                if sys.machine().fastforward() {
                    fused.set(sys.machine().ffwd_accesses - before);
                }
                for k in 0..PAGES {
                    assert_eq!(sys.load(pid, va + k * PAGE_SIZE), Ok(100 + k), "{what}");
                }
            });
            fused.get()
        };
    // Right after the other CPU broadcast for the same ASID: the
    // failed walk syncs CPU 0 with it, so every access fuses.
    let smp = || {
        Box::new(
            BaselineKernel::builder()
                .dram(256 << 20)
                .cpus(2)
                .obs(ObsMode::On)
                .build(),
        ) as Box<dyn MemSys>
    };
    let broadcast = |sys: &mut dyn MemSys, pid: Pid, _: VirtAddr| {
        sys.set_cpu(CpuId(1));
        let other = sys.alloc(pid, 4 * PAGE_SIZE, true).unwrap();
        sys.release(pid, other, 4 * PAGE_SIZE).unwrap();
        sys.set_cpu(CpuId(0));
    };
    assert_eq!(
        fused_after("after a broadcast", (smp(), smp()), &broadcast),
        PAGES
    );
    // The first page is mapped: its access hits, and the run fuses
    // from the second access, whose walk fails.
    let first_mapped = |sys: &mut dyn MemSys, pid: Pid, va: VirtAddr| {
        sys.store(pid, va, 7).unwrap();
    };
    assert_eq!(
        fused_after(
            "first page mapped",
            baseline_pair(ThpMode::Never),
            &first_mapped
        ),
        PAGES - 1
    );
}

/// The three kernels `hostbench` measures, booted as it boots them
/// (4 CPUs; the baseline on 2 MiB pages for `sweep`), with the ledger
/// on.
fn hostbench_pairs(sweep: bool) -> Vec<(String, KernelPair)> {
    let baseline = || {
        Box::new(
            BaselineKernel::builder()
                .dram(256 << 20)
                .thp(if sweep {
                    ThpMode::Aligned2M
                } else {
                    ThpMode::Never
                })
                .cpus(4)
                .obs(ObsMode::On)
                .build(),
        ) as Box<dyn MemSys>
    };
    let fom = |mech| {
        Box::new(
            FomKernel::builder()
                .mech(mech)
                .nvm(256 << 20)
                .cpus(4)
                .obs(ObsMode::On)
                .build(),
        ) as Box<dyn MemSys>
    };
    vec![
        ("baseline".into(), (baseline(), baseline())),
        (
            "fom_pt".into(),
            (fom(MapMech::PageTables), fom(MapMech::PageTables)),
        ),
        (
            "fom_ranges".into(),
            (fom(MapMech::Ranges), fom(MapMech::Ranges)),
        ),
    ]
}

/// Store runs go through the run store in one call per span when
/// fast-forward is on and one word per call when it is off: both must
/// leave the same clock, counters, ledger, stored words and host
/// backing. `sweep` is shaped like `hostbench`'s (whole-region passes
/// on rotating CPUs, every fourth one a store pass), and `scatter`
/// like its store batches (random runs of one or two accesses).
#[test]
fn sweep_and_scatter_store_batches_match_the_interpreter() {
    const PAGES: u64 = 1024;
    let sweep_batch = |sys: &mut dyn MemSys, pid: Pid, va: VirtAddr| {
        let pass = AccessRun {
            start_page: 0,
            stride: 1,
            len: PAGES,
        };
        for p in 0..8u64 {
            sys.set_cpu(CpuId((p % 4) as u32));
            // Pass 0 stores a zero into the first page.
            sys.access_runs(pid, va, &[pass], p % 4 == 0, p * PAGES)
                .unwrap();
        }
    };
    let scatter_batch = |sys: &mut dyn MemSys, pid: Pid, va: VirtAddr| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut value = 0;
        for c in 0..8u32 {
            // One or two accesses, the second up to 64 pages either
            // side of the first, or on the same page.
            let batch: Vec<AccessRun> = (0..256)
                .map(|_| {
                    let start_page = rng.random_range(64..PAGES - 64);
                    let (stride, len) = match rng.random_range(0..4) {
                        0 => (0, 1),
                        1 => (0, 2),
                        _ => (rng.random_range(0..129u64) as i64 - 64, 2),
                    };
                    AccessRun {
                        start_page,
                        stride,
                        len,
                    }
                })
                .collect();
            sys.set_cpu(CpuId(c % 4));
            let write = c % 4 >= 2;
            let end = sys.access_runs(pid, va, &batch, write, value).unwrap();
            if write {
                value = end;
            }
        }
    };
    for (shape, sweep) in [("sweep", true), ("scatter", false)] {
        let batch: &dyn Fn(&mut dyn MemSys, Pid, VirtAddr) =
            if sweep { &sweep_batch } else { &scatter_batch };
        for (name, (a, b)) in hostbench_pairs(sweep) {
            let what = format!("{name} {shape}");
            let seen = RefCell::new(Vec::new());
            assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
                let pid = sys.create_process().unwrap();
                let va = sys.alloc(pid, PAGES * PAGE_SIZE, false).unwrap();
                batch(sys, pid, va);
                let words: Vec<u64> = (0..PAGES)
                    .map(|k| sys.load(pid, va + k * PAGE_SIZE).unwrap())
                    .collect();
                seen.borrow_mut()
                    .push((words, sys.machine().phys.backed_frames()));
            });
            let seen = seen.into_inner();
            assert_eq!(seen[0], seen[1], "{what}: stored words, backed frames");
            let (words, backed) = &seen[0];
            assert!(*backed > 0, "{what}: the batch stored nothing");
            if sweep {
                // The last store pass wrote 4·PAGES + k at page k.
                assert!(
                    words.iter().zip(4 * PAGES..).all(|(&w, v)| w == v),
                    "{what}"
                );
            }
        }
    }
}

/// Store values wrap past `u64::MAX`, as the interpreter's do: a
/// four-access run from `MAX - 1` stores `MAX - 1, MAX, 0, 1` and
/// returns the counter 2, on a populated region and through the
/// baseline's fault run, on every kernel with and without
/// fast-forward.
#[test]
fn store_values_wrap_past_u64_max() {
    for populate in [true, false] {
        for (name, (a, b)) in all_kernel_pairs() {
            let what = format!("{name} populate={populate}");
            assert_equivalent(a, b, &what, &|sys: &mut dyn MemSys| {
                let pid = sys.create_process().unwrap();
                let va = sys.alloc(pid, 8 * PAGE_SIZE, populate).unwrap();
                let run = AccessRun {
                    start_page: 0,
                    stride: 1,
                    len: 4,
                };
                let end = sys.access_runs(pid, va, &[run], true, u64::MAX - 1);
                assert_eq!(end, Ok(2), "{what}: counter");
                sys.access_span(pid, va + 8, 8, 4, true, u64::MAX - 1)
                    .unwrap();
                let words: Vec<u64> = (0..4)
                    .map(|p| sys.load(pid, va + p * PAGE_SIZE).unwrap())
                    .collect();
                assert_eq!(words, [u64::MAX - 1, u64::MAX, 0, 1], "{what}: pages");
                let words: Vec<u64> = (1..5).map(|w| sys.load(pid, va + 8 * w).unwrap()).collect();
                assert_eq!(words, [u64::MAX - 1, u64::MAX, 0, 1], "{what}: words");
                sys.destroy_process(pid).unwrap();
            });
        }
    }
}

/// Pages of the regions the settle-path tests below store into: 16
/// full 64-frame chunks when the region is physically contiguous.
const COLUMN_PAGES: u64 = 1024;

/// Store `sweeps` page-stride passes over `pages` pages at `va + off`,
/// each with fresh values from `first` on. From the second pass on,
/// a pass that rewrites every frame of a backed chunk is that chunk's
/// pending column in physical memory; a pass at another offset
/// replaces it.
fn store_sweeps(sys: &mut dyn MemSys, pid: Pid, va: VirtAddr, off: u64, sweeps: u64, first: u64) {
    let pass = AccessRun {
        start_page: 0,
        stride: 1,
        len: COLUMN_PAGES,
    };
    for s in 0..sweeps {
        let end = sys
            .access_runs(pid, va + off, &[pass], true, first + s * COLUMN_PAGES)
            .unwrap();
        assert_eq!(end, first + (s + 1) * COLUMN_PAGES);
    }
}

/// The word at each of `offsets` in every page of the region at `va`.
fn read_back(sys: &mut dyn MemSys, pid: Pid, va: VirtAddr, offsets: &[u64]) -> Vec<u64> {
    (0..COLUMN_PAGES)
        .flat_map(|p| offsets.iter().map(move |&o| p * PAGE_SIZE + o))
        .map(|at| sys.load(pid, va + at).unwrap())
        .collect()
}

/// Drive a fast-forwarding kernel and its interpreting twin; assert
/// they read back the same words and keep the same ledgers.
fn assert_twins<K: MemSys>(mut a: K, mut b: K, what: &str, drive: &dyn Fn(&mut K) -> Vec<u64>) {
    assert!(a.machine().fastforward(), "{what}: default is on");
    b.machine_mut().set_fastforward(false);
    let (wa, wb) = (drive(&mut a), drive(&mut b));
    assert!(wa == wb, "{what}: read-back words differ");
    assert_eq!(
        a.machine().phys.backed_frames(),
        b.machine().phys.backed_frames(),
        "{what}: backed frames"
    );
    assert_same_universe(&mut a, &mut b, what);
}

/// A persistent file on NVM takes repeated store sweeps, at one offset
/// and then another, so pending columns form and are replaced; a DMA
/// transfer and a byte write go through chunks that hold a column;
/// then a crash keeps the file and recovery maps it again. Every page
/// reads back alike with fast-forward on and off.
#[test]
fn column_stores_survive_dma_writes_and_crashes_on_fom() {
    for mech in [MapMech::Ranges, MapMech::PageTables] {
        let mk = || {
            FomKernel::builder()
                .dram(64 << 20)
                .nvm(256 << 20)
                .mech(mech)
                .obs(ObsMode::On)
                .build()
        };
        let what = format!("fom-{mech:?}");
        assert_twins(mk(), mk(), &what, &|k: &mut FomKernel| {
            let pid = k.create_process().unwrap();
            let (_, va) = k
                .create_named(pid, "/db", COLUMN_PAGES * PAGE_SIZE, FileClass::Persistent)
                .unwrap();
            store_sweeps(k, pid, va, 0, 3, 1);
            let mut dma = DmaEngine::new();
            let pages = k
                .dma_transfer(pid, va, COLUMN_PAGES * PAGE_SIZE, &mut dma)
                .unwrap();
            assert_eq!(pages, COLUMN_PAGES, "{what}: DMA pages");
            store_sweeps(k, pid, va, 24, 2, 1 << 40);
            // Bytes across a frame edge inside the region.
            k.write_bytes(pid, va + 100 * PAGE_SIZE - 4, &[0xa5; 12])
                .unwrap();
            store_sweeps(k, pid, va, 24, 1, 7 << 40);
            let mut words = read_back(k, pid, va, &[0, 24, PAGE_SIZE - 8]);
            k.crash_and_recover();
            let pid = k.create_process().unwrap();
            let (_, va) = k.open_map(pid, "/db", Prot::ReadWrite).unwrap();
            let after = read_back(k, pid, va, &[0, 24, PAGE_SIZE - 8]);
            assert!(after == words, "{what}: the crash lost file data");
            store_sweeps(k, pid, va, 0, 2, 9 << 40);
            words.extend(read_back(k, pid, va, &[0, 24]));
            words
        });
    }
}

/// A baseline under reclaim pressure swaps out frames of chunks that
/// hold a pending column and faults them back in; a DMA transfer runs
/// over the region first. The columns form on 2 MiB pages, whose hit
/// spans cover whole chunks; splitting the leaves into base pages over
/// the same frames puts those frames on the reclaim lists. Every page
/// reads back alike with fast-forward on and off.
#[test]
fn column_stores_survive_swap_and_dma_on_the_baseline() {
    let mk = || {
        BaselineKernel::builder()
            .dram(8 << 20)
            .thp(ThpMode::Aligned2M)
            .swap(true)
            .obs(ObsMode::On)
            .build()
    };
    assert_twins(mk(), mk(), "baseline swap", &|k: &mut BaselineKernel| {
        let pid = k.create_process().unwrap();
        let va = k.alloc(pid, COLUMN_PAGES * PAGE_SIZE, true).unwrap();
        store_sweeps(k, pid, va, 0, 3, 1);
        let mut dma = DmaEngine::new();
        k.dma_transfer(pid, va, COLUMN_PAGES * PAGE_SIZE, &mut dma)
            .unwrap();
        for leaf in [0, 512] {
            k.mprotect(pid, va + (leaf + 1) * PAGE_SIZE, PAGE_SIZE, Prot::ReadWrite)
                .unwrap();
        }
        // A second region twice the first's size pushes the first out
        // to swap.
        let pages = 2 * COLUMN_PAGES;
        let other = k.alloc(pid, pages * PAGE_SIZE, false).unwrap();
        k.access_span(pid, other + 8, PAGE_SIZE as i64, pages, true, 1 << 40)
            .unwrap();
        assert!(
            k.machine().perf.pages_swapped_out > 0,
            "pressure forced swap"
        );
        let words = read_back(k, pid, va, &[0, 8]);
        assert!(k.machine().perf.pages_swapped_in > 0, "pages came back");
        store_sweeps(k, pid, va, 0, 2, 1 << 41);
        [words, read_back(k, pid, va, &[0])].concat()
    });
}

/// A walk that fills a translation entry covers the accesses after it
/// that stay inside the entry, as the interpreter's hits on that
/// newest entry, with the walked first access recorded as its own op.
/// A warm page-stride sweep over 16 2 MiB pages, twice the ways of
/// the page TLB's set 0 where every 2 MiB entry lands, walks each
/// 2 MiB page on every pass; stride-0 and in-page runs start on cold
/// 4 KiB pages; on Ranges each first access is a cold range walk.
/// Every kernel runs against its interpreting twin, with the fused
/// access counts pinned per kernel and the stored words read back.
#[test]
fn walks_cover_their_hit_span() {
    const PAGES: u64 = 16 * 512;
    for (name, (a, b)) in all_kernel_pairs() {
        let fused = RefCell::new(Vec::new());
        let words = RefCell::new(Vec::new());
        assert_equivalent(a, b, &name, &|sys: &mut dyn MemSys| {
            let counted = |sys: &mut dyn MemSys, access: &dyn Fn(&mut dyn MemSys)| {
                let before = sys.machine().ffwd_accesses;
                access(sys);
                if sys.machine().fastforward() {
                    fused
                        .borrow_mut()
                        .push(sys.machine().ffwd_accesses - before);
                }
            };
            let pid = sys.create_process().unwrap();
            let va = sys.alloc(pid, PAGES * PAGE_SIZE, true).unwrap();
            let sweep = AccessRun {
                start_page: 0,
                stride: 1,
                len: PAGES,
            };
            for (pass, write) in [(0, true), (1, false), (2, true)] {
                counted(sys, &|sys| {
                    sys.access_runs(pid, va, &[sweep], write, pass * PAGES)
                        .unwrap();
                });
            }
            // Each run starts on a page no access has touched.
            let small = sys.alloc(pid, 8 * PAGE_SIZE, true).unwrap();
            for (page, stride, len, write) in [
                (0, 0, 50, true),
                (1, 8, 100, true),
                (2, -8, 20, false),
                (3, 8, 1, true),
                (4, 3 * PAGE_SIZE as i64, 2, true),
                (5, 8, 2, true),
            ] {
                let at = small + page * PAGE_SIZE + PAGE_SIZE / 2;
                counted(sys, &|sys| {
                    sys.access_span(pid, at, stride, len, write, 1000 * page)
                        .unwrap();
                });
            }
            let mut seen: Vec<u64> = (0..PAGES)
                .map(|p| sys.load(pid, va + p * PAGE_SIZE).unwrap())
                .collect();
            seen.extend((0..8 * PAGE_SIZE / 8).map(|w| sys.load(pid, small + 8 * w).unwrap()));
            words.borrow_mut().push(seen);
            sys.destroy_process(pid).unwrap();
        });
        let words = words.into_inner();
        assert!(words[0] == words[1], "{name}: read-back words differ");
        assert!(
            words[0]
                .iter()
                .zip(2 * PAGES..)
                .take(PAGES as usize)
                .all(|(&w, v)| w == v),
            "{name}: the last store pass"
        );
        // Fused accesses per sweep pass, then per short run. A 4 KiB
        // walk covers no page-stride pass; a 2 MiB walk covers its
        // page; a range walk the whole region. The in-page and
        // stride-0 runs fuse after their cold walk; runs of one or two
        // accesses do not, and neither does the run that leaves its
        // page, except on Ranges, where the small region's range,
        // filled by its first run, is a hit for the later ones. Utopia's
        // fast region takes part in every translation, so it always
        // covers 1.
        let (sweeps, short) = match name.as_str() {
            "fom-Utopia" => ([0; 3], [0; 6]),
            "fom-Ranges" => ([PAGES; 3], [50, 100, 20, 0, 2, 2]),
            "baseline-thp" | "fom-PageTables" => ([PAGES; 3], [50, 100, 20, 0, 0, 0]),
            _ => ([0; 3], [50, 100, 20, 0, 0, 0]),
        };
        let pass = [sweeps.as_slice(), &short].concat();
        assert_eq!(fused.into_inner(), pass, "{name}");
    }
}
