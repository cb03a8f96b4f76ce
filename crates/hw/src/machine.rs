//! The simulated machine: physical memory + cost model + clock +
//! performance counters + the cost-attribution ledger.
//!
//! Everything that "takes time" in the simulation charges nanoseconds
//! to the machine clock as a count of one [`CostKind`] at its price in
//! the machine's [`CostModel`] ([`Machine::charge_kind`],
//! [`Machine::charge_opn`]). Experiments read the clock before and
//! after an operation; because the simulation is deterministic, the
//! same workload always yields the same duration.
//!
//! When observability is enabled (the thread's `o1-obs` run context
//! collects, or [`ObsMode::On`] was configured), every charge
//! additionally records `(cost kind, count, ns)` under the current
//! phase label into a per-machine ledger. The *only* way to advance
//! the clock is through the charge methods, and every charge method
//! records exactly what it added — so the ledger always sums to the
//! simulated-clock delta (conservation), and every row is its count
//! times the kind's price. With observability disabled the machine
//! carries no ledger, allocates nothing, and behaves bit-identically.

use o1_obs::{CostKind, MachineTrace, OpKind};

use crate::cost::CostModel;
use crate::perf::PerfCounters;
use crate::phys::{MemTier, PhysicalMemory};

/// Largest CPU count a simulated machine supports. Responder sets are
/// tracked as 64-bit presence masks, so the cap is architectural, not
/// a tuning knob.
pub const MAX_CPUS: u32 = 64;

/// Identifies one simulated CPU. Each CPU owns private translation
/// state (TLB, range TLB, page-walk cache); cross-CPU invalidation is
/// a broadcast that charges per-responding-CPU IPI costs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub struct CpuId(pub u32);

impl CpuId {
    /// The boot CPU, where every machine starts executing.
    pub const BOOT: CpuId = CpuId(0);

    /// Index into per-CPU arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A timestamp on the simulated clock, in nanoseconds since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub struct SimNs(pub u64);

impl SimNs {
    /// Nanoseconds elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimNs) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("SimNs::since: clock went backwards")
    }
}

/// Whether a machine carries the cost-attribution ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ObsMode {
    /// Carry a ledger iff the constructing thread's `o1-obs` run
    /// context collects (what the figure runner arranges).
    #[default]
    Auto,
    /// Never carry a ledger, even in a collecting run.
    Off,
    /// Always carry a ledger; read it back with
    /// [`Machine::take_trace`] (or let `Drop` flush it to a collecting
    /// run).
    On,
}

/// Shared machine configuration: memory geometry, CPU count, and the
/// observability sink. Every machine starts with the
/// [`CostModel::tmpfs_dram`] prices. Kernel builders in `o1-vm` and
/// `o1-core` embed one of these.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// DRAM tier size in bytes.
    pub dram_bytes: u64,
    /// NVM tier size in bytes (0 = no persistent tier).
    pub nvm_bytes: u64,
    /// Number of CPUs, `1..=MAX_CPUS`. Each CPU owns private
    /// translation state in the MMU; invalidations broadcast to the
    /// CPUs that hold the target ASID.
    pub cpus: u32,
    /// Cost-attribution ledger mode.
    pub obs: ObsMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            dram_bytes: 256 << 20,
            nvm_bytes: 0,
            cpus: 1,
            obs: ObsMode::Auto,
        }
    }
}

impl MachineConfig {
    /// Build the configured machine.
    pub fn build(&self) -> Machine {
        Machine::from_config(self.clone())
    }
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Per-operation cost table (public for sensitivity sweeps).
    pub cost: CostModel,
    /// Physical memory (DRAM + NVM tiers).
    pub phys: PhysicalMemory,
    /// Event counters.
    pub perf: PerfCounters,
    clock_ns: u64,
    /// Number of CPUs in the machine (bounds `CpuId`s).
    cpus: u32,
    /// Cost-attribution ledger; `None` when observability is off.
    trace: Option<Box<MachineTrace>>,
    /// Whether kernels may fast-forward provably uniform access runs
    /// on this machine (simulated output is identical either way; the
    /// flag exists so CI can diff the two execution modes).
    fastforward: bool,
    /// Fast-forwarded run completions (one per [`Machine::op_end_n`]
    /// call). Pure host-side observability: never charged, never in
    /// [`PerfCounters`], only surfaced as timeline gauges so the
    /// fast-forward hit ratio is visible over simulated time.
    pub ffwd_runs: u64,
    /// Accesses covered by fast-forwarded runs (the sum of
    /// [`Machine::op_end_n`] counts).
    pub ffwd_accesses: u64,
}

impl Machine {
    /// Build a machine from a full [`MachineConfig`].
    pub fn from_config(config: MachineConfig) -> Self {
        assert!(config.cpus > 0, "machine needs at least one CPU");
        assert!(
            config.cpus <= MAX_CPUS,
            "machine supports at most {MAX_CPUS} CPUs"
        );
        // The one reader of the run context: what the machine reads
        // here it keeps for life, so a scope never changes a live
        // machine.
        let run = o1_obs::run_context();
        let traced = match config.obs {
            ObsMode::Auto => run.collect,
            ObsMode::Off => false,
            ObsMode::On => true,
        };
        Machine {
            cost: CostModel::tmpfs_dram(),
            phys: PhysicalMemory::new(config.dram_bytes, config.nvm_bytes),
            perf: PerfCounters::default(),
            clock_ns: 0,
            cpus: config.cpus,
            trace: traced.then(|| Box::new(MachineTrace::with_timeline(run.timeline_ns))),
            fastforward: run.fastforward,
            ffwd_runs: 0,
            ffwd_accesses: 0,
        }
    }

    /// Whether fast-forwarding uniform access runs is allowed here.
    #[inline]
    pub fn fastforward(&self) -> bool {
        self.fastforward
    }

    /// Enable or disable fast-forwarding on this machine only (tests
    /// compare the two modes on machines built side by side).
    pub fn set_fastforward(&mut self, enabled: bool) {
        self.fastforward = enabled;
    }

    /// Convenience constructor matching the paper's tmpfs testbed:
    /// DRAM only, default cost model.
    pub fn dram_only(dram_bytes: u64) -> Self {
        Machine::with_nvm(dram_bytes, 0)
    }

    /// Convenience constructor for a persistent-memory machine: a small
    /// DRAM tier plus a large NVM tier.
    pub fn with_nvm(dram_bytes: u64, nvm_bytes: u64) -> Self {
        Machine::from_config(MachineConfig {
            dram_bytes,
            nvm_bytes,
            ..MachineConfig::default()
        })
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimNs {
        SimNs(self.clock_ns)
    }

    /// Charge one primitive of `kind` at its price in [`Machine::cost`].
    #[inline]
    pub fn charge_kind(&mut self, kind: CostKind) {
        self.charge_opn(kind, 1);
    }

    /// Charge `count` primitives of `kind` at its price in
    /// [`Machine::cost`]. The single mutation point for `clock_ns`:
    /// it records in the ledger exactly what it adds to the clock,
    /// which is what makes the ledger conserve simulated time.
    #[inline]
    pub fn charge_opn(&mut self, kind: CostKind, count: u64) {
        if count == 0 {
            return;
        }
        let ns = self.cost.unit(kind) * count;
        self.clock_ns = self
            .clock_ns
            .checked_add(ns)
            .expect("simulated clock overflow");
        if let Some(trace) = self.trace.as_mut() {
            trace.record(kind, count, ns);
        }
    }

    /// Enter ledger phase `label` (driver boundaries set these). No
    /// clock effect; a no-op without a ledger.
    #[inline]
    pub fn set_phase(&mut self, label: &'static str) {
        if let Some(trace) = self.trace.as_mut() {
            trace.set_phase(label, self.clock_ns);
        }
    }

    /// True if this machine carries a cost-attribution ledger.
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Mark the start of a top-level operation: returns the clock
    /// value to later hand to [`Machine::op_end`]. Free — it never
    /// advances the clock or touches the ledger.
    #[inline]
    pub fn op_start(&self) -> SimNs {
        SimNs(self.clock_ns)
    }

    /// Record a completed top-level operation of `op` on mechanism
    /// `mech` that began at `started`: its latency (current clock
    /// minus `started`) lands in the ledger's histogram for
    /// `(current phase, op, mech)`. No clock effect; a no-op without
    /// a ledger — untraced runs stay bit-identical.
    #[inline]
    pub fn op_end(&mut self, started: SimNs, op: OpKind, mech: &'static str) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record_op(op, mech, self.clock_ns - started.0);
        }
    }

    /// Record `count` identical completed operations that together
    /// span `started`..now — the fast-forward path's latency record.
    /// Each op is logged at `total / count` ns, which must divide
    /// exactly (a uniform run charges `count` identical per-access
    /// costs, so it does by construction). No clock effect; the
    /// fast-forward hit counters bump either way, but the latency
    /// record itself is a no-op without a ledger.
    #[inline]
    pub fn op_end_n(&mut self, started: SimNs, op: OpKind, mech: &'static str, count: u64) {
        if count == 0 {
            return;
        }
        self.ffwd_runs += 1;
        self.ffwd_accesses += count;
        if let Some(trace) = self.trace.as_mut() {
            let total = self.clock_ns - started.0;
            debug_assert_eq!(total % count, 0, "fast-forwarded run must be uniform");
            trace.record_op_n(op, mech, total / count, count);
        }
    }

    /// Bump the fast-forward counters for one fused run of `count`
    /// accesses, without recording any latency. The bulk-fault path
    /// uses this together with [`op_record_n`](Self::op_record_n):
    /// fault latencies within one run are *not* uniform (buddy splits
    /// and page-table creation vary page to page), so the run cannot
    /// go through [`op_end_n`](Self::op_end_n) — instead it is logged
    /// as groups of identical-latency ops and counted here once.
    #[inline]
    pub fn note_ffwd_run(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        self.ffwd_runs += 1;
        self.ffwd_accesses += count;
    }

    /// Record `count` completed operations of identical `per_ns`
    /// latency each. Trace-only: no clock effect, no fast-forward
    /// counters ([`note_ffwd_run`](Self::note_ffwd_run) covers those
    /// once per fused run), a no-op without a ledger — so untraced
    /// runs stay bit-identical.
    #[inline]
    pub fn op_record_n(&mut self, op: OpKind, mech: &'static str, per_ns: u64, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.record_op_n(op, mech, per_ns, count);
        }
    }

    /// Close and remove the ledger, returning the report (None if
    /// observability is off). After this the machine records nothing.
    pub fn take_trace(&mut self) -> Option<o1_obs::MachineReport> {
        self.trace.take().map(|t| t.finish(self.clock_ns))
    }

    /// True iff a gauge-timeline sample is due at the current clock.
    /// Kernels poll this at operation boundaries and gather gauges
    /// only on a hit, so the untelemetered path does one `Option`
    /// check and nothing else.
    #[inline]
    pub fn timeline_due(&self) -> bool {
        self.trace
            .as_ref()
            .is_some_and(|t| t.timeline_due(self.clock_ns))
    }

    /// Sample the machine-level gauges plus the caller's `extra`
    /// kernel/MMU gauges at the current simulated clock. A no-op
    /// unless a sample is [due](Self::timeline_due).
    pub fn timeline_sample(&mut self, extra: &[(&'static str, u64)]) {
        if !self.timeline_due() {
            return;
        }
        let mut gauges: Vec<(&'static str, u64)> = Vec::with_capacity(extra.len() + 3);
        gauges.push(("machine.backed_frames", self.phys.backed_frames() as u64));
        gauges.push(("machine.ffwd_runs", self.ffwd_runs));
        gauges.push(("machine.ffwd_accesses", self.ffwd_accesses));
        gauges.extend_from_slice(extra);
        let clock_ns = self.clock_ns;
        if let Some(trace) = self.trace.as_mut() {
            trace.timeline_sample(clock_ns, &gauges);
        }
    }

    /// Number of CPUs (affects shootdown costs).
    #[inline]
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Charge the cost of one program-issued load of up to a cache
    /// line from the given tier, and count it.
    #[inline]
    pub fn charge_load(&mut self, tier: MemTier) {
        self.perf.loads += 1;
        let kind = match tier {
            MemTier::Dram => CostKind::MemReadDram,
            MemTier::Nvm => CostKind::MemReadNvm,
        };
        self.charge_kind(kind);
    }

    /// Charge the cost of one program-issued store to the given tier.
    #[inline]
    pub fn charge_store(&mut self, tier: MemTier) {
        self.perf.stores += 1;
        let kind = match tier {
            MemTier::Dram => CostKind::MemWriteDram,
            MemTier::Nvm => CostKind::MemWriteNvm,
        };
        self.charge_kind(kind);
    }

    /// Charge a foreground zero of `bytes` bytes in `tier` and count it
    /// against the critical path.
    pub fn charge_zero_fg(&mut self, tier: MemTier, bytes: u64) {
        self.perf.bytes_zeroed_fg += bytes;
        let kind = match tier {
            MemTier::Dram => CostKind::ZeroPageDram,
            MemTier::Nvm => CostKind::ZeroPageNvm,
        };
        self.charge_opn(kind, bytes.div_ceil(crate::addr::PAGE_SIZE));
    }

    /// Count a background zero of `bytes` bytes. Background work does
    /// not advance the foreground clock (it runs on idle cycles), but
    /// is still recorded so experiments can report total work.
    pub fn note_zero_bg(&mut self, bytes: u64) {
        self.perf.bytes_zeroed_bg += bytes;
    }

    /// Charge one system-call crossing.
    #[inline]
    pub fn charge_syscall(&mut self) {
        self.perf.syscalls += 1;
        self.charge_kind(CostKind::Syscall);
    }

    /// Charge an ASID-flush shootdown broadcast: a local flush plus
    /// one IPI + flush per responding remote CPU. `responders` is the
    /// number of *other* CPUs currently holding translations for the
    /// target ASID — zero on a single-CPU machine, so the charge
    /// degenerates to the local flush alone.
    pub fn charge_shootdown(&mut self, responders: u64) {
        self.perf.tlb_shootdowns += 1;
        self.charge_kind(CostKind::TlbFlushAsid);
        self.charge_opn(CostKind::TlbShootdownPercpu, responders);
    }

    /// Charge `rounds` single-page (or single-range) invalidation
    /// broadcasts: per round, a local `invlpg` plus one IPI +
    /// invalidation per responding remote CPU.
    pub fn charge_invlpg_broadcast(&mut self, rounds: u64, responders: u64) {
        self.perf.tlb_shootdowns += rounds;
        self.charge_opn(CostKind::TlbInvlpg, rounds);
        self.charge_opn(CostKind::TlbShootdownPercpu, rounds * responders);
    }

    /// Run `f` and return its result along with the simulated
    /// nanoseconds it consumed.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Machine) -> T) -> (T, u64) {
        let start = self.now();
        let out = f(self);
        let elapsed = self.now().since(start);
        (out, elapsed)
    }
}

impl Drop for Machine {
    /// Flush the closed ledger to the thread's `o1-obs` run (kept only
    /// if the run collects). Drop order is program order, so collected
    /// reports are as deterministic as the simulation.
    fn drop(&mut self) {
        if let Some(trace) = self.trace.take() {
            o1_obs::submit(trace.finish(self.clock_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn clock_advances_monotonically() {
        let mut m = Machine::dram_only(1 << 20);
        assert_eq!(m.now(), SimNs(0));
        m.charge_opn(CostKind::PteWrite, 2);
        m.charge_kind(CostKind::PteWrite);
        assert_eq!(m.now(), SimNs(3 * 55));
        assert_eq!(m.now().since(SimNs(100)), 65);
    }

    #[test]
    fn loads_and_stores_charge_by_tier() {
        let mut m = Machine::with_nvm(1 << 20, 1 << 20);
        let t0 = m.now();
        m.charge_load(MemTier::Dram);
        let dram_ns = m.now().since(t0);
        let t1 = m.now();
        m.charge_load(MemTier::Nvm);
        let nvm_ns = m.now().since(t1);
        assert!(nvm_ns > dram_ns);
        assert_eq!(m.perf.loads, 2);
        let t2 = m.now();
        m.charge_store(MemTier::Nvm);
        assert!(m.now().since(t2) > nvm_ns, "NVM stores dearer than loads");
        assert_eq!(m.perf.stores, 1);
    }

    #[test]
    fn zeroing_fg_charges_bg_does_not() {
        let mut m = Machine::dram_only(1 << 20);
        let (_, fg) = m.timed(|m| m.charge_zero_fg(MemTier::Dram, 4 * PAGE_SIZE));
        assert_eq!(fg, 4 * m.cost.unit(CostKind::ZeroPageDram));
        let (_, bg) = m.timed(|m| m.note_zero_bg(4 * PAGE_SIZE));
        assert_eq!(bg, 0);
        assert_eq!(m.perf.bytes_zeroed_fg, 4 * PAGE_SIZE);
        assert_eq!(m.perf.bytes_zeroed_bg, 4 * PAGE_SIZE);
    }

    #[test]
    fn shootdown_scales_with_responders() {
        let mut m = Machine::dram_only(1 << 20);
        let (_, alone) = m.timed(|m| m.charge_shootdown(0));
        let (_, seven) = m.timed(|m| m.charge_shootdown(7));
        let ipi = m.cost.unit(CostKind::TlbShootdownPercpu);
        assert_eq!(seven - alone, 7 * ipi);
        let (_, pg) = m.timed(|m| m.charge_invlpg_broadcast(1, 3));
        assert_eq!(pg, m.cost.unit(CostKind::TlbInvlpg) + 3 * ipi);
        assert_eq!(m.perf.tlb_shootdowns, 3);
    }

    #[test]
    fn timed_reports_elapsed() {
        let mut m = Machine::dram_only(1 << 20);
        let (v, ns) = m.timed(|m| {
            m.charge_kind(CostKind::Syscall);
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(ns, m.cost.unit(CostKind::Syscall));
    }

    #[test]
    fn syscall_counts() {
        let mut m = Machine::dram_only(1 << 20);
        m.charge_syscall();
        m.charge_syscall();
        assert_eq!(m.perf.syscalls, 2);
        assert_eq!(m.now().0, 2 * m.cost.unit(CostKind::Syscall));
    }

    #[test]
    fn untraced_by_default_traced_when_forced() {
        let m = Machine::dram_only(1 << 20);
        assert!(!m.traced(), "no collecting run, no ledger");
        let mut m = Machine::from_config(MachineConfig {
            obs: ObsMode::On,
            ..MachineConfig::default()
        });
        assert!(m.traced());
        m.charge_syscall();
        m.set_phase("work");
        m.charge_shootdown(0);
        let report = m.take_trace().expect("forced ledger");
        assert!(report.conserves(), "every charge path records its ns");
        assert_eq!(report.clock_ns, m.now().0);
        assert!(!m.traced(), "ledger is gone after take_trace");
        assert!(report
            .rows
            .iter()
            .any(|r| r.phase == "work" && r.kind == o1_obs::CostKind::TlbFlushAsid));
    }

    #[test]
    fn collecting_run_gathers_machine_on_drop() {
        let run = o1_obs::RunContext {
            collect: true,
            ..o1_obs::RunContext::default()
        };
        let ((), reports) = o1_obs::with_run_context(run, || {
            let mut m = Machine::dram_only(1 << 20);
            assert!(m.traced(), "a collecting run enables the ledger");
            m.charge_zero_fg(MemTier::Dram, 3 * PAGE_SIZE);
            m.charge_syscall();
        });
        assert_eq!(reports.len(), 1);
        assert!(reports[0].conserves());
        let zero = reports[0]
            .rows
            .iter()
            .find(|r| r.kind == o1_obs::CostKind::ZeroPageDram)
            .expect("zeroing recorded");
        assert_eq!(zero.count, 3, "counted in pages");
    }

    #[test]
    fn machines_keep_the_run_context_they_were_built_in() {
        let run = o1_obs::RunContext {
            collect: false,
            timeline_ns: 100,
            fastforward: false,
        };
        let (m, _) = o1_obs::with_run_context(run, || {
            Machine::from_config(MachineConfig {
                obs: ObsMode::On,
                ..MachineConfig::default()
            })
        });
        assert!(!m.fastforward(), "the run's fast-forward setting");
        let trace = m.trace.as_ref().expect("forced ledger");
        assert!(trace.timeline_due(0), "the run's timeline interval");
        let plain = Machine::dram_only(1 << 20);
        assert!(plain.fastforward(), "outside a run: fast-forward on");
        assert!(!plain.traced());
        let forced = Machine::from_config(MachineConfig {
            obs: ObsMode::On,
            ..MachineConfig::default()
        });
        assert!(
            !forced.trace.as_ref().unwrap().timeline_due(0),
            "outside a run: no timeline"
        );
    }

    #[test]
    fn charges_are_priced_by_the_machines_table() {
        let mut m = Machine::dram_only(1 << 20);
        m.cost = m.cost.clone().with(CostKind::DmaPage, 7);
        let t0 = m.now();
        m.charge_kind(CostKind::PteWrite);
        assert_eq!(m.now().since(t0), m.cost.unit(CostKind::PteWrite));
        let t1 = m.now();
        m.charge_opn(CostKind::PtwLevelRef, 4);
        assert_eq!(m.now().since(t1), 4 * m.cost.unit(CostKind::PtwLevelRef));
        let t2 = m.now();
        m.charge_opn(CostKind::DmaPage, 2);
        assert_eq!(
            m.now().since(t2),
            14,
            "a repriced kind charges its new price"
        );
    }
}
