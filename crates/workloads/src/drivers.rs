//! Workload drivers: run a scenario against any [`MemSys`] and report
//! simulated time plus the perf-counter delta.

use std::collections::VecDeque;

use o1_hw::{PerfCounters, VirtAddr, PAGE_SIZE};
use o1_vm::{AccessRun, CpuId, MemSys, Pid, VmError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::patterns::AccessPattern;
use crate::zipf::Zipf;

/// Result of one driven scenario.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Simulated nanoseconds consumed.
    pub ns: u64,
    /// Counter deltas over the scenario.
    pub perf: PerfCounters,
}

impl Measurement {
    /// Nanoseconds per event, for per-access/per-page reporting.
    pub fn ns_per(&self, events: u64) -> f64 {
        if events == 0 {
            0.0
        } else {
            self.ns as f64 / events as f64
        }
    }
}

/// Run `f` against the system, measuring simulated time and counters.
pub fn measure<S: MemSys + ?Sized>(
    sys: &mut S,
    f: impl FnOnce(&mut S) -> Result<(), VmError>,
) -> Result<Measurement, VmError> {
    let before = sys.stats();
    f(sys)?;
    let (ns, perf) = sys.stats().since(&before);
    Ok(Measurement { ns, perf })
}

/// Allocate a region of `pages` pages (populate per flag) and measure
/// just the allocation — Figure 1a / Figure 2's allocation half.
pub fn drive_alloc<S: MemSys + ?Sized>(
    sys: &mut S,
    pid: Pid,
    pages: u64,
    populate: bool,
) -> Result<(VirtAddr, Measurement), VmError> {
    sys.phase("alloc");
    let mut va = VirtAddr(0);
    let m = measure(sys, |s| {
        va = s.alloc(pid, pages * PAGE_SIZE, populate)?;
        Ok(())
    })?;
    Ok((va, m))
}

/// Read one u64 from each page per `pattern` — Figure 1b's loop and
/// the sparse-access motivation.
pub fn drive_access<S: MemSys + ?Sized>(
    sys: &mut S,
    pid: Pid,
    va: VirtAddr,
    pages: u64,
    pattern: &AccessPattern,
    seed: u64,
    write: bool,
) -> Result<Measurement, VmError> {
    // Stream the pattern as run-length-encoded chunks instead of
    // materialising a Vec<VirtAddr>: identical accesses in identical
    // order (store values are the sequence index, threaded across
    // chunks by `access_runs`), but peak memory is O(RUN_CHUNK)
    // regardless of access count, and uniform runs fast-forward. The
    // chunk buffer is a reused stack array — the whole access stream
    // allocates nothing on the host.
    const RUN_CHUNK: usize = 1024;
    const EMPTY: AccessRun = AccessRun {
        start_page: 0,
        stride: 0,
        len: 0,
    };
    sys.phase("access");
    // Chunks rotate round-robin over the machine's CPUs — the
    // deterministic stand-in for a scheduler spreading the access
    // stream. With one CPU every `set_cpu` is the identity.
    let cpus = sys.cpu_count();
    measure(sys, |s| {
        let mut buf = [EMPTY; RUN_CHUNK];
        let mut filled = 0usize;
        let mut value = 0u64;
        let mut chunk = 0u32;
        for run in pattern.runs(pages, seed) {
            buf[filled] = run;
            filled += 1;
            if filled == RUN_CHUNK {
                s.set_cpu(CpuId(chunk % cpus));
                chunk += 1;
                value = s.access_runs(pid, va, &buf, write, value)?;
                filled = 0;
            }
        }
        if filled > 0 {
            s.set_cpu(CpuId(chunk % cpus));
            s.access_runs(pid, va, &buf[..filled], write, value)?;
        }
        Ok(())
    })
}

/// Allocation/free churn: `rounds` of allocating `live_regions`
/// regions of `pages` pages, touching one word per page, then freeing
/// them all. Exercises allocator reuse and erase policies.
pub fn drive_churn<S: MemSys + ?Sized>(
    sys: &mut S,
    pid: Pid,
    rounds: u32,
    live_regions: u32,
    pages: u64,
) -> Result<Measurement, VmError> {
    sys.phase("churn");
    // Each live region is handled by one CPU, round-robin across the
    // machine, all within one process: its address space ends up
    // cached on every CPU, so on a big machine each free's
    // invalidations broadcast IPIs to all the CPUs touching siblings.
    let cpus = sys.cpu_count();
    measure(sys, |s| {
        for _ in 0..rounds {
            let mut regions = Vec::new();
            for i in 0..live_regions {
                s.set_cpu(CpuId(i % cpus));
                let va = s.alloc(pid, pages * PAGE_SIZE, false)?;
                // One sequential write run per region: page p gets
                // value p, exactly as the old per-page store loop.
                let touch = [AccessRun {
                    start_page: 0,
                    stride: 1,
                    len: pages,
                }];
                s.access_runs(pid, va, &touch, true, 0)?;
                regions.push(va);
            }
            for (i, va) in regions.into_iter().enumerate() {
                s.set_cpu(CpuId(i as u32 % cpus));
                s.release(pid, va, pages * PAGE_SIZE)?;
            }
        }
        Ok(())
    })
}

/// Where each process of a [`drive_launch_storm`] touches its
/// working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storm {
    /// Each process launches, touches and dies on its own CPU,
    /// round-robin. Its private ASID is therefore cached on exactly
    /// one CPU, so teardown never broadcasts IPIs — the SMP-free
    /// contrast to `drive_churn`, where one address space spans every
    /// CPU.
    HomeCpu,
    /// The scheduler migrates each process across every CPU while it
    /// touches its working set, so its address space ends up cached
    /// machine-wide and teardown pays one remote shootdown per CPU
    /// instead of the home-CPU storm's free local flush. The contrast
    /// closes the gap where the home-CPU series is flat in the CPU
    /// count *by construction*: here the teardown tax grows with the
    /// machine.
    Migrating,
}

/// Process-launch storm: create `n` processes each with a working set
/// of `pages` pages fully touched, then destroy them, each on its home
/// CPU (round-robin) except where `storm` migrates the touch. The
/// build-up runs under the `"launch"` phase and the destruction under
/// `"teardown"`, so a traced run splits the two halves in both the
/// attribution and the per-op latency views (`figures --latency`).
pub fn drive_launch_storm<S: MemSys + ?Sized>(
    sys: &mut S,
    n: u32,
    pages: u64,
    storm: Storm,
) -> Result<Measurement, VmError> {
    sys.phase("launch");
    let cpus = sys.cpu_count();
    let legs = match storm {
        Storm::HomeCpu => 1,
        Storm::Migrating => u64::from(cpus),
    };
    measure(sys, |s| {
        let mut procs = Vec::new();
        for i in 0..n {
            s.set_cpu(CpuId(i % cpus));
            let pid = s.create_process()?;
            let va = s.alloc(pid, pages * PAGE_SIZE, true)?;
            // Touch every 8th page as one stride-8 run. The stored
            // values become the run index k instead of the page index
            // 8k; nothing ever reads them back. A migrating storm
            // slices the run into one leg per CPU, issued round-robin
            // from CPU 0 — the deterministic stand-in for a scheduler
            // migrating the process mid-warmup. Identical accesses in
            // identical order; only the issuing CPU differs.
            let total = pages.div_ceil(8);
            let per = total.div_ceil(legs);
            let (mut done, mut value, mut leg) = (0u64, 0u64, 0u32);
            while done < total {
                let len = per.min(total - done);
                if storm == Storm::Migrating {
                    s.set_cpu(CpuId(leg % cpus));
                }
                let touch = [AccessRun {
                    start_page: done * 8,
                    stride: 8,
                    len,
                }];
                value = s.access_runs(pid, va, &touch, true, value)?;
                done += len;
                leg += 1;
            }
            procs.push(pid);
        }
        s.phase("teardown");
        for (i, pid) in procs.into_iter().enumerate() {
            s.set_cpu(CpuId(i as u32 % cpus));
            s.destroy_process(pid)?;
        }
        Ok(())
    })
}

/// Result of a [`drive_service_fleet`] run.
#[derive(Debug)]
pub struct FleetReport {
    /// Whole-fleet simulated time and counter deltas.
    pub total: Measurement,
    /// Per-tenant launch latency (simulated ns for create + mmap +
    /// first-touch faults), one entry per tenant in launch order. The
    /// buffer is preallocated to full capacity before the stream
    /// starts, so pushing never allocates — host-memory gauges sampled
    /// mid-stream see only the kernel's own state grow.
    pub launch_ns: Vec<u64>,
}

/// Serverless-style tenant fleet: stream `tenants` short-lived
/// processes through the kernel with at most `live_cap` alive at once
/// — each tenant is created, mmaps a small working set, faults it in
/// (one sequential store run, the shape the fault-run fast-forward
/// path proves), and is torn down when it becomes the oldest of a full
/// fleet. Pids are monotonic (the kernel never recycles them), tenant
/// popularity is Zipf(θ)-skewed over `apps` distinct applications, and
/// an app's id deterministically picks its working-set size class
/// (2/4/6/8 pages). `checkpoint(done)` fires every `tenants / 10`
/// completed launches so callers can sample host-memory gauges
/// mid-stream. With `populate` the working set is pre-faulted by the
/// mmap itself and the store run is skipped — a drive that cannot
/// depend on the fast-forward engine, which is what host-memory gauge
/// series must be built from (simulated ns are ff-vs-noff gated
/// byte-identical either way; host allocation *sequences* are only
/// guaranteed identical on the populate-only path).
#[allow(clippy::too_many_arguments)]
pub fn drive_service_fleet<S: MemSys + ?Sized>(
    sys: &mut S,
    tenants: u64,
    live_cap: usize,
    apps: u64,
    theta: f64,
    seed: u64,
    populate: bool,
    mut checkpoint: impl FnMut(u64),
) -> Result<FleetReport, VmError> {
    assert!(live_cap > 0, "fleet needs at least one live slot");
    let cpus = sys.cpu_count();
    let zipf = Zipf::new(apps, theta);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: VecDeque<Pid> = VecDeque::with_capacity(live_cap);
    let mut launch_ns = Vec::with_capacity(tenants as usize);
    let every = (tenants / 10).max(1);
    let before = sys.stats();
    for t in 0..tenants {
        let cpu = CpuId((t % u64::from(cpus)) as u32);
        if live.len() == live_cap {
            let victim = live.pop_front().expect("cap > 0");
            sys.phase("teardown");
            sys.set_cpu(cpu);
            sys.destroy_process(victim)?;
        }
        let app = zipf.sample(&mut rng);
        let pages = 2 + (app & 3) * 2;
        sys.phase("launch");
        sys.set_cpu(cpu);
        let t0 = sys.stats();
        let pid = sys.create_process()?;
        let va = sys.alloc(pid, pages * PAGE_SIZE, populate)?;
        if !populate {
            let touch = [AccessRun {
                start_page: 0,
                stride: 1,
                len: pages,
            }];
            sys.access_runs(pid, va, &touch, true, t)?;
        }
        let (ns, _) = sys.stats().since(&t0);
        launch_ns.push(ns);
        live.push_back(pid);
        if (t + 1) % every == 0 {
            checkpoint(t + 1);
        }
    }
    sys.phase("teardown");
    for (i, pid) in live.into_iter().enumerate() {
        sys.set_cpu(CpuId(i as u32 % cpus));
        sys.destroy_process(pid)?;
    }
    let (ns, perf) = sys.stats().since(&before);
    Ok(FleetReport {
        total: Measurement { ns, perf },
        launch_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_core::{FomKernel, MapMech};
    use o1_vm::BaselineKernel;

    #[test]
    fn measure_reports_time_and_counters() {
        let mut k = BaselineKernel::builder().dram(32 << 20).build();
        let pid = MemSys::create_process(&mut k).unwrap();
        let (va, alloc_m) = drive_alloc(&mut k, pid, 16, false).unwrap();
        assert!(alloc_m.ns > 0);
        let m = drive_access(&mut k, pid, va, 16, &AccessPattern::OnePerPage, 0, false).unwrap();
        assert_eq!(m.perf.minor_faults, 16);
        assert!(m.ns_per(16) > 1000.0, "faults dominate");
    }

    #[test]
    fn same_driver_runs_both_kernels() {
        // One generic instantiation per kernel type: exactly how the
        // figure harness drives the kernels (no erasure on this path).
        fn scenario(sys: &mut impl MemSys) {
            let pid = sys.create_process().unwrap();
            let (va, _) = drive_alloc(sys, pid, 64, true).unwrap();
            let m = drive_access(
                sys,
                pid,
                va,
                64,
                &AccessPattern::Sweep { sweeps: 2 },
                0,
                true,
            )
            .unwrap();
            assert_eq!(m.perf.minor_faults + m.perf.major_faults, 0);
            sys.destroy_process(pid).unwrap();
        }
        scenario(&mut BaselineKernel::builder().dram(64 << 20).build());
        scenario(&mut FomKernel::builder().mech(MapMech::Ranges).build());
    }

    #[test]
    fn churn_conserves_memory() {
        let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
        let free0 = fom.free_frames();
        let pid = MemSys::create_process(&mut fom).unwrap();
        drive_churn(&mut fom, pid, 3, 4, 32).unwrap();
        assert_eq!(fom.free_frames(), free0);
    }

    #[test]
    fn launch_storm_runs_on_both() {
        let mut base = BaselineKernel::builder().dram(64 << 20).build();
        let m1 = drive_launch_storm(&mut base, 4, 32, Storm::HomeCpu).unwrap();
        let mut fom = FomKernel::builder().mech(MapMech::SharedPt).build();
        let m2 = drive_launch_storm(&mut fom, 4, 32, Storm::HomeCpu).unwrap();
        assert!(m1.ns > 0 && m2.ns > 0);
        assert!(m2.ns < m1.ns, "fom launches faster: {} vs {}", m2.ns, m1.ns);
    }
}
