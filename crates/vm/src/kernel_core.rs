//! The kernel core both memory designs embed.
//!
//! The baseline and file-only-memory kernels differ in what they
//! charge, not in how a process is born, dies or touches memory.
//! [`KernelCore`] owns the state every kernel has — machine, page
//! tables, MMU, process table and ASID allocator — and the one call
//! into the MMU's translate ([`KernelCore::translate`]). The blanket
//! [`MemSys`] impl over [`KernelHooks`] and the hooks' provided
//! methods hold, once, the code around it: process lifecycle and
//! retirement, the access-op latency funnel, the one fast-forward run
//! loop behind `access_span` and `access_runs` (a hit span may cross
//! run boundaries, so a batch needs no prover of its own), the
//! page-by-page syscall loop and device DMA over it, and the base
//! timeline gauges. A kernel supplies only what differs, through
//! statically dispatched hooks.

use o1_hw::{
    Access, AccessRun, Asid, AsidAllocator, AsidGrant, CostKind, CpuId, DmaEngine, DmaMode,
    Machine, MachineConfig, Mmu, OpKind, PageTables, PhysAddr, PtNodeId, RangeTable, SimNs,
    TranslateError, Translated, VirtAddr, WalkMode, PAGE_SIZE,
};

use crate::api::MemSys;
use crate::proc_table::ProcTable;
use crate::runs::bulk_memory;
use crate::types::{Pid, VmError};

/// Largest length a mapping call accepts on either kernel (`mmap`,
/// `map_stack`, fom `falloc`): the 47-bit user half of a 48-bit
/// address space. Longer requests are `BadRange` before anything is
/// charged, so page rounding, guard gaps and huge alignment never
/// overflow.
pub const MAX_MAP_BYTES: u64 = 1 << 47;

/// End of `[va, va+len)` rounded out to whole pages, or
/// [`VmError::BadRange`] when `len` is zero, exceeds [`MAX_MAP_BYTES`]
/// or the end does not fit in the address space.
pub fn span_end(va: VirtAddr, len: u64) -> Result<VirtAddr, VmError> {
    if len == 0 || len > MAX_MAP_BYTES {
        return Err(VmError::BadRange);
    }
    va.0.checked_add(o1_hw::round_up_pages(len))
        .map(VirtAddr)
        .ok_or(VmError::BadRange)
}

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
    /// The process's range table, walked on a range-TLB miss.
    fn ranges(&self) -> &RangeTable;
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
    ) -> Result<KernelCore<P>, VmError> {
        if config.cpus == 0 || config.cpus > o1_hw::MAX_CPUS {
            return Err(VmError::InvalidConfig);
        }
        let mmu = Mmu::smp(ranges, config.cpus, tlb);
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

    /// Translate `va` for `pid` through the MMU, as the first of a run
    /// of `len ≥ 1` accesses by byte `stride` followed in its batch by
    /// `rest` (page-indexed from `base`): the one call into
    /// [`Mmu::translate`], which returns the translation and the span
    /// of accesses it covered.
    ///
    /// # Errors
    /// The outer error is [`VmError::NoProcess`] when `pid` is not
    /// live, with nothing charged; the inner one is the MMU's verdict,
    /// which the kernel turns into a fault or an error.
    #[allow(clippy::too_many_arguments)] // one parameter per run field
    #[inline]
    pub fn translate(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        base: VirtAddr,
        rest: &[AccessRun],
        access: Access,
    ) -> Result<Result<(Translated, u64), TranslateError>, VmError>
    where
        P: CoreProc,
    {
        let p = self.procs.get(pid).ok_or(VmError::NoProcess)?;
        Ok(self.mmu.translate(
            &mut self.machine,
            &mut self.pt,
            p.root(),
            p.ranges(),
            p.asid(),
            va,
            stride,
            len,
            base,
            rest,
            access,
        ))
    }

    /// Latency bookkeeping for one access: clock at entry plus the
    /// fault count, so the op can be classified hit vs fault at exit.
    /// `None` when untraced, keeping the hot path a single branch.
    #[inline]
    fn access_op_start(&self) -> Option<(SimNs, u64)> {
        if self.machine.traced() {
            Some((self.machine.op_start(), faults(&self.machine)))
        } else {
            None
        }
    }
}

/// What [`KernelHooks::resolve`] did with the first accesses of a run.
#[derive(Clone, Copy, Debug)]
pub enum Resolved {
    /// The next `span` accesses of the batch translate through one
    /// entry, with their translation half charged; the caller owes the
    /// memory half of each. A span longer than the current run's
    /// remaining length covers whole following runs of the batch too.
    /// The entry maps VA to PA in order, so a covered access at `a`
    /// lands at `pa + (a − va)`.
    Translated {
        /// Physical address of the first access.
        pa: PhysAddr,
        /// Accesses covered, across run boundaries.
        span: u64,
        /// `Some(kind)` when the first access walked and filled the
        /// entry, and the other `span − 1` are hits of `kind` on it
        /// ([`o1_hw::Satisfied::fill_hit`]); `None` when all hit.
        fill_hit: Option<CostKind>,
    },
    /// A fault run of this many accesses (at least two), performed
    /// whole: pages installed, every charge made, values stored,
    /// latencies recorded and the timeline polled.
    FaultRun(u64),
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

    /// Translate `va`, handling whatever faults the design has, as
    /// the first of a run of `len ≥ 1` accesses by byte `stride`, the
    /// `k`-th of which stores `first_value + k` (wrapping) when
    /// `access` writes; `rest` holds the runs that follow in the
    /// batch, page-indexed from `base`. Returns either a translation
    /// of the leading accesses (`Mmu::translate`'s hit span, which may
    /// run on into `rest`, also after a walk that filled the entry; 1
    /// whenever it faulted), whose memory half the caller owes, or a
    /// fault run the kernel performed whole: when the first access of
    /// a run of two or more misses every translation, the baseline
    /// proves that the following accesses of the run demand-fault
    /// fresh pages too and installs, charges, stores and records them
    /// all at once.
    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        base: VirtAddr,
        rest: &[AccessRun],
        access: Access,
        first_value: u64,
    ) -> Result<Resolved, VmError>;

    /// [`resolve`](Self::resolve) of a one-access run, which is always
    /// a translation: the physical address the caller then accesses.
    #[inline]
    fn resolve_one(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<PhysAddr, VmError> {
        match self.resolve(pid, va, 0, 1, VirtAddr(0), &[], access, 0)? {
            Resolved::Translated { pa, .. } => Ok(pa),
            Resolved::FaultRun(_) => unreachable!("a one-access run never fuses"),
        }
    }

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

    /// Whether the frame behind `pa` stays put for a device: what
    /// decides a DMA page's mode in [`dma_transfer`](Self::dma_transfer).
    fn pinned(&self, pa: PhysAddr) -> bool;

    /// Drop the process `pid` and its address space: flush its ASID
    /// from every CPU and from the kernel's own caches
    /// ([`on_asid_flush`](Self::on_asid_flush)), free the ASID and
    /// release the page-table root. Its memory is not unmapped: the
    /// caller has torn it down ([`MemSys::destroy_process`]) or is
    /// discarding it wholesale (a crash).
    ///
    /// # Errors
    /// [`VmError::NoProcess`] if `pid` is not live.
    fn retire(&mut self, pid: Pid) -> Result<(), VmError> {
        let core = self.core_mut();
        let proc = core.procs.remove(pid).ok_or(VmError::NoProcess)?;
        core.mmu.flush_asid(&mut core.machine, proc.asid());
        self.on_asid_flush(proc.asid());
        let core = self.core_mut();
        core.asids.free(proc.asid());
        core.pt.release(&mut core.machine, proc.root());
        Ok(())
    }

    /// The page-by-page syscall loop: charge one syscall, then
    /// [`resolve`](Self::resolve) each page of `[va, va+len)` as a
    /// read, faulting it in if the design demand-pages, and hand its
    /// physical address to `per_page`.
    ///
    /// # Errors
    /// [`VmError::BadRange`] for a zero or oversized `len`, before
    /// anything is charged ([`span_end`]); otherwise the first
    /// translation error.
    fn for_each_page(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        mut per_page: impl FnMut(&mut Self, PhysAddr),
    ) -> Result<(), VmError> {
        let end = span_end(va, len)?;
        self.core_mut().machine.charge_syscall();
        let mut at = va;
        while at < end {
            let pa = self.resolve_one(pid, at, Access::Read)?;
            per_page(self, pa);
            at += PAGE_SIZE;
        }
        Ok(())
    }

    /// Device DMA from `[va, va+len)`, one page at a time. A
    /// [`pinned`](Self::pinned) page streams at device rate; any other
    /// goes through the faulting IOMMU path — "even devices that
    /// support page faults through an IOMMU incur high penalties"
    /// (§3.1). Returns pages transferred.
    ///
    /// # Errors
    /// As [`for_each_page`](Self::for_each_page).
    fn dma_transfer(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        dma: &mut DmaEngine,
    ) -> Result<u64, VmError> {
        let mut pages = 0;
        self.for_each_page(pid, va, len, |k, pa| {
            let mode = if k.pinned(pa) {
                DmaMode::Pinned
            } else {
                DmaMode::IommuFaulting
            };
            pages += dma.transfer(&mut k.core_mut().machine, pa, PAGE_SIZE, mode);
        })?;
        Ok(pages)
    }

    /// Configure the hardware translation depth (§2: 5-level paging,
    /// virtualized nesting). Range translations are unaffected — one
    /// of their selling points.
    fn set_walk_mode(&mut self, mode: WalkMode) {
        self.core_mut().mmu.walk_mode = mode;
    }

    /// Bytes of page-table metadata currently allocated.
    fn pt_metadata_bytes(&self) -> u64 {
        self.core().pt.metadata_bytes()
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

/// Demand faults taken so far, minor and major.
#[inline]
fn faults(m: &Machine) -> u64 {
    m.perf.minor_faults + m.perf.major_faults
}

/// Close an access op span opened by `access_op_start`: classify by
/// whether [`KernelHooks::resolve`] took any demand fault and record
/// the latency under the current phase.
#[inline]
fn access_op_end<K: KernelHooks>(k: &mut K, started: Option<(SimNs, u64)>) {
    if let Some((t0, faults0)) = started {
        let label = k.label();
        let m = &mut k.core_mut().machine;
        let op = if faults(m) > faults0 {
            OpKind::AccessFault
        } else {
            OpKind::AccessHit
        };
        m.op_end(t0, op, label);
        k.poll_timeline();
    }
}

/// Record the latencies of a span of `span ≥ 2` accesses that began
/// at clock `t0` with a walk, whose memory half began at `t1`: `span −
/// 1` equal hits of `hit` plus one memory access each, and the walked
/// first access, which took the rest of the clock advance. Out of
/// line, so the untraced run loop stays small.
#[inline(never)]
fn record_walked_span(
    m: &mut Machine,
    label: &'static str,
    (t0, t1): (SimNs, SimNs),
    hit: CostKind,
    span: u64,
) {
    let (total, mem) = (m.now().since(t0), m.now().since(t1));
    debug_assert_eq!(mem % span, 0, "memory half is uniform");
    let tail = m.cost.unit(hit) + mem / span;
    debug_assert!(
        total - mem >= (span - 1) * m.cost.unit(hit),
        "the translation half holds the span's hits"
    );
    let head = total - (span - 1) * tail;
    m.op_record_n(OpKind::AccessHit, label, head, 1);
    m.op_record_n(OpKind::AccessHit, label, tail, span - 1);
}

/// Pop the next run of `rest` that has accesses: its first address
/// (page-indexed from `base`), byte stride and length.
#[inline]
fn next_run(
    rest: &mut &[AccessRun],
    base: VirtAddr,
) -> Result<Option<(VirtAddr, i64, u64)>, VmError> {
    while let Some((r, tail)) = rest.split_first() {
        *rest = tail;
        if r.len > 0 {
            let va = r.start(base).ok_or(VmError::BadAddress)?;
            return Ok(Some((va, r.stride.wrapping_mul(PAGE_SIZE as i64), r.len)));
        }
    }
    Ok(None)
}

/// The one run loop behind [`MemSys::access_span`] and
/// [`MemSys::access_runs`]: the current run `(va, stride, len)` (byte
/// stride), then each run of `rest`, page-indexed from `base`, with
/// one [`resolve`](KernelHooks::resolve) per translation, not per
/// access. On a TLB hit, or after a walk that filled the entry, the
/// MMU proves and charges the uniform span itself
/// (`o1_hw::Mmu::translate`: same entry, same protection outcome, one
/// memory tier), which may run on through whole following runs; the
/// memory half of each covered run is charged in one step and only
/// data stores run per element. A fault covers one access, exactly as
/// [`load`](MemSys::load) / [`store`](MemSys::store) would. A span
/// that began with a walk records its latencies as the interpreter
/// would: one op of the walk, the fill and one memory access, then
/// `span − 1` equal hits. The dual, all-faulting case comes back from
/// `resolve` as a fault run the kernel already performed, entered
/// where the run's first access failed to translate. Simulated clock,
/// counters, ledger and memory contents are identical to the plain
/// loop. Gauge timelines are not: a fused span is one op boundary,
/// where the interpreter has one per access, so fast-forward can take
/// fewer timeline samples. Returns the value counter after the last
/// access.
#[inline]
fn run_loop<K: KernelHooks>(
    k: &mut K,
    pid: Pid,
    (mut va, mut stride, mut len): (VirtAddr, i64, u64),
    base: VirtAddr,
    mut rest: &[AccessRun],
    write: bool,
    mut value: u64,
) -> Result<u64, VmError> {
    let access = if write { Access::Write } else { Access::Read };
    let fastforward = k.core().machine.fastforward();
    loop {
        if len == 0 {
            match next_run(&mut rest, base)? {
                Some(run) => (va, stride, len) = run,
                None => return Ok(value),
            }
        }
        let (n, after) = if fastforward {
            (len, rest)
        } else {
            (1, &[][..])
        };
        let t0 = k.core().machine.op_start();
        let op = k.core().access_op_start();
        let (here, span) = match k.resolve(pid, va, stride, n, base, after, access, value)? {
            Resolved::FaultRun(span) => (span, span),
            Resolved::Translated { pa, span, fill_hit } => {
                let here = span.min(len);
                let label = k.label();
                let m = &mut k.core_mut().machine;
                let t1 = m.now();
                bulk_memory(m, pa, stride, here, write, value);
                // The covered following runs, each at its offset from
                // `va` through the one entry.
                let mut covered = here;
                while covered < span {
                    let (at, s, n) = next_run(&mut rest, base)?.expect("a span covers whole runs");
                    let pa_run = PhysAddr(pa.0.wrapping_add(at.0.wrapping_sub(va.0)));
                    bulk_memory(m, pa_run, s, n, write, value.wrapping_add(covered));
                    covered += n;
                }
                if span >= 2 {
                    match fill_hit {
                        // Every access in the span hit: `span` AccessHit
                        // latencies, each of the identical per-access
                        // cost.
                        None => m.op_end_n(t0, OpKind::AccessHit, label, span),
                        // The walked head, then `span − 1` equal hits;
                        // every access costs one memory access of one
                        // tier.
                        Some(hit) => {
                            m.note_ffwd_run(span);
                            if m.traced() {
                                record_walked_span(m, label, (t0, t1), hit, span);
                            }
                        }
                    }
                    k.poll_timeline();
                } else {
                    access_op_end(k, op);
                }
                (here, span)
            }
        };
        va = VirtAddr(va.0.wrapping_add_signed(stride.wrapping_mul(here as i64)));
        (len, value) = (len - here, value.wrapping_add(span));
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
        self.retire(pid)?;
        self.core_mut().machine.op_end(t0, OpKind::Teardown, label);
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
        let pa = self.resolve_one(pid, va, Access::Read)?;
        let m = &mut self.core_mut().machine;
        let tier = m.phys.tier(pa.frame());
        m.charge_load(tier);
        let out = m.phys.read_u64(pa);
        access_op_end(self, op);
        Ok(out)
    }

    fn store(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), VmError> {
        let op = self.core().access_op_start();
        let pa = self.resolve_one(pid, va, Access::Write)?;
        let m = &mut self.core_mut().machine;
        let tier = m.phys.tier(pa.frame());
        m.charge_store(tier);
        m.phys.write_u64(pa, value);
        access_op_end(self, op);
        Ok(())
    }

    fn access_span(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        write: bool,
        first_value: u64,
    ) -> Result<(), VmError> {
        run_loop(self, pid, (va, stride, len), va, &[], write, first_value).map(drop)
    }

    fn access_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<u64, VmError> {
        run_loop(self, pid, (base, 0, 0), base, runs, write, first_value)
    }
}
