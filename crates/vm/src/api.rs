//! The common kernel interface both memory designs implement.
//!
//! Workload drivers in `o1-workloads` are written against [`MemSys`],
//! so every experiment runs identically against the baseline kernel
//! and the file-only-memory kernel and differs only in what the two
//! designs charge.

use o1_hw::{AccessRun, CpuId, Machine, PerfSnapshot, VirtAddr, PAGE_SIZE};

use crate::types::{Pid, VmError};

/// Generates the [`MachineConfig`](o1_hw::MachineConfig)-backed setters every kernel
/// builder shares — `cpus`, `obs`, `tlb` — so the baseline
/// and file-only builders cannot drift apart. The builder type must
/// have `machine: MachineConfig` and `tlb: Option<(usize, usize)>`
/// fields; kernel-specific policy setters stay hand-written.
#[macro_export]
macro_rules! machine_config_builder {
    ($builder:ty) => {
        impl $builder {
            /// Number of simulated CPUs (`1..=o1_hw::MAX_CPUS`). Each
            /// CPU owns private translation caches; invalidations
            /// broadcast to the CPUs holding the target ASID and
            /// charge per-responder IPI costs.
            pub fn cpus(mut self, cpus: u32) -> Self {
                self.machine.cpus = cpus;
                self
            }

            /// Cost-attribution ledger mode (see [`o1_hw::ObsMode`]).
            pub fn obs(mut self, mode: ::o1_hw::ObsMode) -> Self {
                self.machine.obs = mode;
                self
            }

            /// Page-TLB geometry (`sets` × `assoc` entries, per CPU).
            pub fn tlb(mut self, sets: usize, assoc: usize) -> Self {
                self.tlb = Some((sets, assoc));
                self
            }
        }
    };
}

/// A memory-management system under test.
pub trait MemSys {
    /// Human-readable name for experiment output.
    fn sys_name(&self) -> &'static str;

    /// The simulated machine (clock + counters).
    fn machine(&self) -> &Machine;

    /// Mutable machine access.
    fn machine_mut(&mut self) -> &mut Machine;

    /// Snapshot the simulated clock and perf counters. Drivers diff
    /// two snapshots ([`PerfSnapshot::since`]) instead of reaching
    /// into [`Machine`] internals.
    fn stats(&self) -> PerfSnapshot {
        PerfSnapshot::of(self.machine())
    }

    /// Label the current execution phase in the cost-attribution
    /// ledger. Free when tracing is off; with a trace every
    /// subsequent charge is attributed to `label` until the next
    /// call. Re-entering the current phase is a no-op.
    fn phase(&mut self, label: &'static str) {
        self.machine_mut().set_phase(label);
    }

    /// The CPU subsequent operations run on.
    fn current_cpu(&self) -> CpuId {
        CpuId::BOOT
    }

    /// How many simulated CPUs this system was booted with. Drivers
    /// use it to spread work round-robin; `1` means every
    /// [`set_cpu`](Self::set_cpu) is a no-op.
    fn cpu_count(&self) -> u32 {
        1
    }

    /// Migrate subsequent operations to `cpu`. Free on the simulated
    /// clock — it models the scheduler having placed the work there,
    /// not a context switch. Kernels route this to the MMU, whose
    /// translation caches are per-CPU.
    fn set_cpu(&mut self, cpu: CpuId) {
        let _ = cpu;
    }

    /// Pin the following operations to `cpu`: the returned handle
    /// derefs to the kernel and restores the previously current CPU
    /// when dropped.
    fn on_cpu(&mut self, cpu: CpuId) -> OnCpu<'_, Self>
    where
        Self: Sized,
    {
        OnCpu::new(self, cpu)
    }

    /// Create an empty process.
    ///
    /// # Errors
    /// [`VmError::ProcessLimit`] when the process table is exhausted
    /// (ASIDs are 16-bit, so at most 65535 *live* processes).
    fn create_process(&mut self) -> Result<Pid, VmError>;

    /// Tear down a process and all its memory.
    fn destroy_process(&mut self, pid: Pid) -> Result<(), VmError>;

    /// Allocate `bytes` of zeroed, writable memory for `pid` —
    /// anonymous mmap on the baseline, a volatile file on file-only
    /// memory. `populate` requests eager mapping.
    fn alloc(&mut self, pid: Pid, bytes: u64, populate: bool) -> Result<VirtAddr, VmError>;

    /// Release memory previously obtained from [`alloc`](Self::alloc).
    ///
    /// # Errors
    /// [`VmError::BadRange`] on file-only memory, with nothing changed
    /// or charged, unless `bytes` is nonzero and rounds up to exactly
    /// the pages of the mapping at `va`: memory is reclaimed only in
    /// the unit of a file.
    fn release(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError>;

    /// 8-byte load at `va`.
    fn load(&mut self, pid: Pid, va: VirtAddr) -> Result<u64, VmError>;

    /// 8-byte store at `va`.
    fn store(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), VmError>;

    /// Drive `len` accesses at `va, va+stride, …` (byte stride): at
    /// access `k`, a [`store`](Self::store) of `first_value + k`
    /// (wrapping) when `write`, else a [`load`](Self::load). This
    /// per-access loop is the *semantics of record*; kernels override
    /// it with the run-compressed fast-forward engine, which is proven
    /// to produce identical charges, counters and data. How many
    /// accesses that engine fuses, and with them the gauge-timeline
    /// sample points, depends on where it tries its provers; the
    /// simulated results do not.
    fn access_span(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        write: bool,
        first_value: u64,
    ) -> Result<(), VmError> {
        for k in 0..len {
            let a = VirtAddr(va.0.wrapping_add_signed(stride.wrapping_mul(k as i64)));
            if write {
                self.store(pid, a, first_value.wrapping_add(k))?;
            } else {
                self.load(pid, a)?;
            }
        }
        Ok(())
    }

    /// Drive a run-length-encoded access sequence against the region
    /// based at `base`: each [`AccessRun`] expands to `len` accesses
    /// at `base + page·PAGE_SIZE`, stores writing a running sequence
    /// value starting at `first_value`. Returns the value counter
    /// after the last access, so chunked callers can stream runs
    /// without materialising the sequence. By default one
    /// [`access_span`](Self::access_span) per run; kernels override
    /// both with one fast-forward run loop, whose spans may cross run
    /// boundaries.
    fn access_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<u64, VmError> {
        let mut value = first_value;
        for r in runs.iter().filter(|r| r.len > 0) {
            let va = r.start(base).ok_or(VmError::BadAddress)?;
            let stride = r.stride.wrapping_mul(PAGE_SIZE as i64);
            self.access_span(pid, va, stride, r.len, write, value)?;
            value = value.wrapping_add(r.len);
        }
        Ok(value)
    }
}

/// Scoped CPU pin over a [`MemSys`], created by [`MemSys::on_cpu`]:
/// derefs to the wrapped kernel and restores the previously current
/// CPU on drop, so callers cannot forget to switch back.
///
/// # Examples
/// ```
/// use o1_vm::{BaselineKernel, CpuId, MemSys};
///
/// let mut k = BaselineKernel::builder().cpus(2).build();
/// {
///     let mut k1 = k.on_cpu(CpuId(1));
///     let pid = k1.create_process().unwrap();
///     k1.destroy_process(pid).unwrap();
/// }
/// assert_eq!(k.current_cpu(), CpuId(0));
/// ```
pub struct OnCpu<'a, M: MemSys> {
    sys: &'a mut M,
    prev: CpuId,
}

impl<'a, M: MemSys> OnCpu<'a, M> {
    fn new(sys: &'a mut M, cpu: CpuId) -> OnCpu<'a, M> {
        let prev = sys.current_cpu();
        sys.set_cpu(cpu);
        OnCpu { sys, prev }
    }
}

impl<M: MemSys> core::ops::Deref for OnCpu<'_, M> {
    type Target = M;

    fn deref(&self) -> &M {
        self.sys
    }
}

impl<M: MemSys> core::ops::DerefMut for OnCpu<'_, M> {
    fn deref_mut(&mut self) -> &mut M {
        self.sys
    }
}

impl<M: MemSys> Drop for OnCpu<'_, M> {
    fn drop(&mut self) {
        self.sys.set_cpu(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BaselineKernel;
    use o1_hw::PAGE_SIZE;

    fn run_generic<S: MemSys + ?Sized>(sys: &mut S) {
        let pid = sys.create_process().unwrap();
        let va = sys.alloc(pid, 8 * PAGE_SIZE, false).unwrap();
        sys.store(pid, va, 1234).unwrap();
        assert_eq!(sys.load(pid, va).unwrap(), 1234);
        sys.release(pid, va, 8 * PAGE_SIZE).unwrap();
        assert_eq!(sys.load(pid, va), Err(VmError::BadAddress));
        sys.destroy_process(pid).unwrap();
    }

    #[test]
    fn baseline_implements_memsys() {
        let mut k = BaselineKernel::builder().dram(16 << 20).build();
        assert_eq!(k.sys_name(), "baseline");
        run_generic(&mut k);
        assert!(k.machine().now().0 > 0);
    }

    #[test]
    fn invalid_cpu_counts_are_rejected_at_build() {
        assert_eq!(
            BaselineKernel::builder().cpus(0).try_build().err(),
            Some(VmError::InvalidConfig)
        );
        assert_eq!(
            BaselineKernel::builder()
                .cpus(o1_hw::MAX_CPUS + 1)
                .try_build()
                .err(),
            Some(VmError::InvalidConfig)
        );
        assert!(BaselineKernel::builder()
            .cpus(o1_hw::MAX_CPUS)
            .try_build()
            .is_ok());
    }

    #[test]
    fn on_cpu_pins_and_restores() {
        use crate::types::CpuId;

        let mut k = BaselineKernel::builder().dram(16 << 20).cpus(4).build();
        assert_eq!(k.current_cpu(), CpuId::BOOT);
        {
            let mut pinned = k.on_cpu(CpuId(3));
            assert_eq!(pinned.current_cpu(), CpuId(3));
            run_generic(&mut *pinned);
        }
        assert_eq!(k.current_cpu(), CpuId::BOOT, "drop restores the CPU");
        // A trait object routes CPU placement and the whole op funnel
        // through the vtable.
        let dynamic: &mut dyn MemSys = &mut k;
        dynamic.set_cpu(CpuId(2));
        assert_eq!(dynamic.current_cpu(), CpuId(2));
        run_generic(dynamic);
        dynamic.set_cpu(CpuId::BOOT);
        assert_eq!(k.current_cpu(), CpuId::BOOT);
    }
}
