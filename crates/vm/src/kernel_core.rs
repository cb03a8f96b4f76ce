//! The kernel core both memory designs embed.
//!
//! The baseline and file-only-memory kernels differ in what they
//! charge, not in how a process is born, dies or touches memory.
//! [`KernelCore`] owns the state every kernel has — machine, page
//! tables, MMU, process table and ASID allocator — and the blanket
//! [`MemSys`] impl over [`KernelHooks`] holds, once, the code around
//! it: process lifecycle, the access-op latency funnel, the
//! fast-forward run loops and the base timeline gauges. A kernel
//! supplies only what differs, through statically dispatched hooks.

use o1_hw::{
    Access, Asid, AsidAllocator, AsidGrant, CpuId, Machine, MachineConfig, Mmu, OpKind, PageTables,
    PhysAddr, PtNodeId, SimNs, VirtAddr,
};

use crate::api::{span_runs, MemSys};
use crate::proc_table::ProcTable;
use crate::runs::{bulk_memory, AccessRun};
use crate::types::{Pid, VmError};

/// State every kernel owns, shared field-for-field so kernel code can
/// split-borrow it.
#[derive(Debug)]
pub struct KernelCore<P> {
    /// The simulated machine (clock, counters, cost model).
    pub machine: Machine,
    /// Page tables of every address space.
    pub pt: PageTables,
    /// Per-CPU translation caches and the page walker.
    pub mmu: Mmu,
    /// Live processes.
    pub procs: ProcTable<P>,
    /// ASID lifecycle: sequential-first grants, PCID-style recycling
    /// with flush-on-reuse once the 16-bit space rolls over.
    pub asids: AsidAllocator,
    next_pid: u32,
}

/// Per-process state a kernel keeps in the core's process table.
pub trait CoreProc {
    /// Empty state for a new process with address space `root`.
    fn new(asid: Asid, root: PtNodeId) -> Self;
    /// The process's address-space identifier.
    fn asid(&self) -> Asid;
    /// Root of the process's page tables.
    fn root(&self) -> PtNodeId;
}

impl<P> KernelCore<P> {
    /// Boot the machine and MMU a kernel builder describes. CPU counts
    /// outside `1..=o1_hw::MAX_CPUS` are rejected here — at build time,
    /// with an error — rather than panicking deep inside the hardware
    /// layer.
    ///
    /// # Errors
    /// [`VmError::InvalidConfig`] for an invalid CPU count.
    pub fn boot(
        config: MachineConfig,
        ranges: bool,
        tlb: Option<(usize, usize)>,
        rtlb: Option<usize>,
    ) -> Result<KernelCore<P>, VmError> {
        if config.cpus == 0 || config.cpus > o1_hw::MAX_CPUS {
            return Err(VmError::InvalidConfig);
        }
        let mmu = Mmu::smp(ranges, config.cpus, tlb, rtlb);
        Ok(KernelCore {
            machine: Machine::from_config(config),
            pt: PageTables::new(),
            mmu,
            procs: ProcTable::new(),
            asids: AsidAllocator::new(),
            next_pid: 1,
        })
    }

    /// The live process `pid`.
    #[inline]
    pub fn proc(&self, pid: Pid) -> Result<&P, VmError> {
        self.procs.get(pid).ok_or(VmError::NoProcess)
    }

    /// The live process `pid`, mutably.
    #[inline]
    pub fn proc_mut(&mut self, pid: Pid) -> Result<&mut P, VmError> {
        self.procs.get_mut(pid).ok_or(VmError::NoProcess)
    }

    /// Issue the next pid and an ASID for it. Pids are monotonic;
    /// ASIDs come from the recycling allocator, and a recycled grant's
    /// stale translations are flushed from the MMU here (the PCID
    /// rollover cost). The grant says whether that happened, so the
    /// kernel can drop its own per-ASID caches too.
    ///
    /// # Errors
    /// [`VmError::ProcessLimit`] while all 65535 16-bit ASIDs are held
    /// by live processes.
    pub fn alloc_pid(&mut self) -> Result<(Pid, AsidGrant), VmError> {
        let grant = self.asids.alloc().ok_or(VmError::ProcessLimit)?;
        if grant.needs_flush {
            self.mmu.flush_asid(&mut self.machine, grant.asid);
        }
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        Ok((pid, grant))
    }

    /// Latency bookkeeping for one access: clock at entry plus the
    /// fault count, so the op can be classified hit vs fault at exit.
    /// `None` when untraced, keeping the hot path a single branch.
    #[inline]
    fn access_op_start(&self) -> Option<(SimNs, u64)> {
        if self.machine.traced() {
            let perf = &self.machine.perf;
            Some((
                self.machine.op_start(),
                perf.minor_faults + perf.major_faults,
            ))
        } else {
            None
        }
    }
}

/// What a kernel plugs into its [`KernelCore`]. Every type
/// implementing it is a [`MemSys`] through the blanket impl below.
///
/// That impl is generic, so it is compiled in the crate that drives
/// the kernel, not in the kernel's own crate. Implementations mark the
/// accessors and the hooks on the per-access path `#[inline]`, so they
/// can still be inlined there.
pub trait KernelHooks {
    /// Per-process state.
    type Proc: CoreProc;

    /// The embedded core.
    fn core(&self) -> &KernelCore<Self::Proc>;

    /// The embedded core, mutably.
    fn core_mut(&mut self) -> &mut KernelCore<Self::Proc>;

    /// Mechanism label: the latency-ledger key of every op and
    /// [`MemSys::sys_name`].
    fn label(&self) -> &'static str;

    /// Translate `va`, handling whatever faults the design has.
    fn resolve(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<PhysAddr, VmError>;

    /// [`MemSys::alloc`].
    fn alloc_region(&mut self, pid: Pid, bytes: u64, populate: bool) -> Result<VirtAddr, VmError>;

    /// [`MemSys::release`].
    fn release_region(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError>;

    /// Unmap every region of `pid` ahead of its destruction.
    ///
    /// # Errors
    /// [`VmError::NoProcess`] if `pid` is not live.
    fn teardown(&mut self, pid: Pid) -> Result<(), VmError>;

    /// Drop kernel-side caches of `asid` after the MMU flushed it:
    /// when a process dies and when its ASID is recycled. Runs inside
    /// the op, before its latency is recorded and the timeline polled,
    /// so neither sees state the TLB no longer holds.
    fn on_asid_flush(&mut self, asid: Asid) {
        let _ = asid;
    }

    /// Kernel-specific timeline gauges, appended after the base ones.
    fn gauges(&self, g: &mut Vec<(&'static str, u64)>);

    /// Hit-run prover: prove the next `len` accesses of the run all
    /// hit one resident translation, charge their translation half and
    /// return the first physical address and the proven span (≥ 2).
    /// `None` interprets at least one access instead.
    fn hit_run(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        access: Access,
    ) -> Result<Option<(PhysAddr, u64)>, VmError>;

    /// Miss-run prover: prove the next `len` accesses all demand-fault
    /// fresh pages, then perform them, record their latencies from
    /// `t0` and return the span. `None` (the default) interprets.
    #[allow(clippy::too_many_arguments)] // one parameter per proof input
    fn miss_run(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        write: bool,
        first_value: u64,
        t0: SimNs,
    ) -> Option<u64> {
        let _ = (pid, va, stride, len, write, first_value, t0);
        None
    }

    /// Whole-batch prover for [`MemSys::access_runs`]: perform every
    /// run at once and return the value counter after the last
    /// access, or `None` (the default) to run span by span.
    fn bulk_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<Option<u64>, VmError> {
        let _ = (pid, base, runs, write, first_value);
        Ok(None)
    }

    /// Sample the gauge timeline if the machine's sampler is due.
    ///
    /// Called at the end of every top-level kernel operation — the
    /// poll rides the syscall/access funnel rather than the clock
    /// itself, so gauges are read at quiescent points, never
    /// mid-operation. Idempotent at a given clock value: the first due
    /// sample re-arms the sampler past `now`, so nested ops polling
    /// again are no-ops.
    fn poll_timeline(&mut self) {
        let core = self.core();
        if !core.machine.timeline_due() {
            return;
        }
        let mut g: Vec<(&'static str, u64)> = vec![
            ("kernel.procs_live", core.procs.len() as u64),
            ("kernel.asids_live", u64::from(core.asids.live())),
            ("kernel.pt_meta_bytes", core.pt.metadata_bytes()),
        ];
        core.mmu.gauges(&mut g);
        self.gauges(&mut g);
        self.core_mut().machine.timeline_sample(&g);
    }
}

/// Close an access op span opened by `access_op_start`: classify by
/// whether [`KernelHooks::resolve`] took any demand fault and record
/// the latency under the current phase.
#[inline]
fn access_op_end<K: KernelHooks>(k: &mut K, started: Option<(SimNs, u64)>) {
    if let Some((t0, faults0)) = started {
        let label = k.label();
        let m = &mut k.core_mut().machine;
        let op = if m.perf.minor_faults + m.perf.major_faults > faults0 {
            OpKind::AccessFault
        } else {
            OpKind::AccessHit
        };
        m.op_end(t0, op, label);
        k.poll_timeline();
    }
}

impl<K: KernelHooks> MemSys for K {
    fn sys_name(&self) -> &'static str {
        self.label()
    }

    fn machine(&self) -> &Machine {
        &self.core().machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.core_mut().machine
    }

    fn current_cpu(&self) -> CpuId {
        self.core().mmu.current_cpu()
    }

    fn cpu_count(&self) -> u32 {
        self.core().mmu.cpu_count()
    }

    /// # Panics
    /// Panics if `cpu` is out of range for this machine.
    fn set_cpu(&mut self, cpu: CpuId) {
        self.core_mut().mmu.set_cpu(cpu);
    }

    fn create_process(&mut self) -> Result<Pid, VmError> {
        let label = self.label();
        let core = self.core_mut();
        let t0 = core.machine.op_start();
        core.machine.charge_syscall();
        let (pid, grant) = core.alloc_pid()?;
        if grant.needs_flush {
            self.on_asid_flush(grant.asid);
        }
        let core = self.core_mut();
        let root = core.pt.create_root(&mut core.machine);
        core.procs.insert(pid, K::Proc::new(grant.asid, root));
        core.machine.op_end(t0, OpKind::Launch, label);
        self.poll_timeline();
        Ok(pid)
    }

    fn destroy_process(&mut self, pid: Pid) -> Result<(), VmError> {
        let label = self.label();
        let core = self.core_mut();
        let t0 = core.machine.op_start();
        core.machine.charge_syscall();
        self.teardown(pid)?;
        let core = self.core_mut();
        let proc = core.procs.remove(pid).expect("teardown checked the pid");
        core.mmu.flush_asid(&mut core.machine, proc.asid());
        self.on_asid_flush(proc.asid());
        let core = self.core_mut();
        core.asids.free(proc.asid());
        core.pt.release(&mut core.machine, proc.root());
        core.machine.op_end(t0, OpKind::Teardown, label);
        self.poll_timeline();
        Ok(())
    }

    fn alloc(&mut self, pid: Pid, bytes: u64, populate: bool) -> Result<VirtAddr, VmError> {
        self.alloc_region(pid, bytes, populate)
    }

    fn release(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError> {
        self.release_region(pid, va, bytes)
    }

    fn load(&mut self, pid: Pid, va: VirtAddr) -> Result<u64, VmError> {
        let op = self.core().access_op_start();
        let pa = self.resolve(pid, va, Access::Read)?;
        let m = &mut self.core_mut().machine;
        let tier = m.phys.tier(pa.frame());
        m.charge_load(tier);
        let out = m.phys.read_u64(pa);
        access_op_end(self, op);
        Ok(out)
    }

    fn store(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), VmError> {
        let op = self.core().access_op_start();
        let pa = self.resolve(pid, va, Access::Write)?;
        let m = &mut self.core_mut().machine;
        let tier = m.phys.tier(pa.frame());
        m.charge_store(tier);
        m.phys.write_u64(pa, value);
        access_op_end(self, op);
        Ok(())
    }

    /// Run-compressed span execution. Translation-uniform prefixes
    /// are fast-forwarded: the [hit-run prover](KernelHooks::hit_run)
    /// proves every access in the prefix hits the same resident
    /// translation with the same outcome, the whole prefix is charged
    /// in O(1) charge calls, and only data stores run per element;
    /// the [miss-run prover](KernelHooks::miss_run) covers the dual,
    /// all-faulting case. Anything neither can prove (cold TLB,
    /// faults, boundaries) is interpreted one access at a time through
    /// [`load`](MemSys::load) / [`store`](MemSys::store), so simulated
    /// clock, counters, ledger and memory contents are identical to
    /// the plain loop.
    fn access_span(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        write: bool,
        first_value: u64,
    ) -> Result<(), VmError> {
        let access = if write { Access::Write } else { Access::Read };
        let mut k = 0u64;
        while k < len {
            let a = VirtAddr(va.0.wrapping_add_signed(stride.wrapping_mul(k as i64)));
            if self.core().machine.fastforward() && len - k >= 2 {
                let t0 = self.core().machine.op_start();
                if let Some((pa, span)) = self.hit_run(pid, a, stride, len - k, access)? {
                    let label = self.label();
                    let m = &mut self.core_mut().machine;
                    bulk_memory(m, pa, stride, span, write, first_value + k);
                    // Every access in the span hit — `span` AccessHit
                    // latencies, each of the identical per-access cost.
                    m.op_end_n(t0, OpKind::AccessHit, label, span);
                    self.poll_timeline();
                    k += span;
                    continue;
                }
                if let Some(span) =
                    self.miss_run(pid, a, stride, len - k, write, first_value + k, t0)
                {
                    k += span;
                    continue;
                }
            }
            if write {
                self.store(pid, a, first_value + k)?;
            } else {
                self.load(pid, a)?;
            }
            k += 1;
        }
        Ok(())
    }

    fn access_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<u64, VmError> {
        // A whole-batch prover can swallow even a random batch in one
        // uniformity proof; a kernel without one refuses charge-free.
        if self.core().machine.fastforward() && !runs.is_empty() {
            if let Some(value) = self.bulk_runs(pid, base, runs, write, first_value)? {
                return Ok(value);
            }
        }
        span_runs(self, pid, base, runs, write, first_value)
    }
}
