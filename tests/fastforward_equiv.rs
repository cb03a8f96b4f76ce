//! Run-compressed fast-forward equivalence: for random access
//! patterns against every kernel, executing through `access_runs`
//! with fast-forward ON must be indistinguishable — simulated clock,
//! every perf counter, every ledger row, every latency histogram
//! bucket — from the per-access interpreter (fast-forward OFF on the
//! same machine via [`Machine::set_fastforward`]). The fast path is
//! an *execution* optimisation, never a *semantics* change.
//!
//! Each comparison builds two identical kernels, drives the identical
//! workload, and diffs the closed ledgers field by field. Per-machine
//! toggling keeps this file safe to run in parallel with other tests:
//! the process-global default is never touched here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::hw::ObsMode;
use o1mem::vm::{BaselineKernel, CpuId, MemSys, ThpMode};
use o1mem::workloads::{
    drive_access, drive_churn, drive_launch_storm, drive_launch_storm_migrating,
    drive_service_fleet, AccessPattern,
};
use o1mem::PAGE_SIZE;

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
                    let what =
                        format!("{name} {pattern:?} populate={populate} write={write}");
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
            sys.destroy_process(pid).unwrap();
        });
    }
}

/// On a multi-CPU machine the whole-batch fast-forward proof carries
/// one more obligation — no invalidation broadcast may have raced the
/// proving CPU — and its refusals must be charge-free. This drives
/// CPU-hopping accesses interleaved with broadcasting frees on both
/// kernels and asserts the fast path still cannot be told apart from
/// the interpreter.
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
                // Post-broadcast accesses: the first batch per CPU
                // must refuse the fast path (charge-identically),
                // then fast-forward again once re-proved.
                for cpu in 0..cpus.min(4) {
                    sys.set_cpu(CpuId(cpu));
                    sys.access_span(pid, va, PAGE_SIZE as i64, pages, true, 7)
                        .unwrap();
                }
                sys.set_cpu(CpuId(0));
                sys.destroy_process(pid).unwrap();
                drive_launch_storm(sys, 4, 32).unwrap();
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
            drive_launch_storm(sys, 3, 64).unwrap();
        });
    }
}

/// The bulk-fault fast-forward path proves whole missing spans and
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
            drive_launch_storm_migrating(sys, 6, 96).unwrap();
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
