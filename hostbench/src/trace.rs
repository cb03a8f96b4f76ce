//! Spans at the `MemSys` call boundary.
//!
//! The drive loop is generic over [`Probe`], a `MemSys` that can also
//! open and close benchmark-side spans (rounds, requests, generator
//! draws). Plain kernels implement it with no-ops, so the untraced
//! pass compiles to the bare kernel calls. [`Traced`] wraps a kernel,
//! delegates every call, and records one span per kernel operation,
//! so the traced pass runs the same monomorphic loop with spans on.
//!
//! Self time is computed as spans close: each open span accumulates
//! the duration of its children, and its self time is its duration
//! minus that. Per-op totals are kept for every span; the raw spans
//! are kept only up to a cap, for export.

use std::fmt::Write as _;
use std::time::Instant;

use o1_hw::{CpuId, Machine, VirtAddr};
use o1_vm::{AccessRun, MemSys, Pid, VmError};

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One round of the workload on one kernel.
    Round,
    /// One closed-loop request.
    Request,
    /// A generator draw (`Zipf`, `AccessPattern::runs`).
    Generate,
    /// `MemSys::create_process`.
    CreateProcess,
    /// `MemSys::alloc`.
    Alloc,
    /// `MemSys::access_runs`.
    AccessRuns,
    /// `MemSys::release`.
    Release,
    /// `MemSys::destroy_process`.
    DestroyProcess,
    /// `MemSys::load` (the benchmark's output check).
    Load,
}

impl Op {
    /// Number of span kinds.
    pub const COUNT: usize = 9;

    /// The kernel operations whose cost the benchmark reports.
    pub const REPORTED: [Op; 5] = [
        Op::CreateProcess,
        Op::Alloc,
        Op::AccessRuns,
        Op::Release,
        Op::DestroyProcess,
    ];

    /// Name used in metric names and span exports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Round => "round",
            Op::Request => "request",
            Op::Generate => "generate",
            Op::CreateProcess => "create_process",
            Op::Alloc => "alloc",
            Op::AccessRuns => "access_runs",
            Op::Release => "release",
            Op::DestroyProcess => "destroy_process",
            Op::Load => "load",
        }
    }
}

/// A kernel the drive loop can run, with benchmark-side span hooks.
pub trait Probe: MemSys {
    /// Open a span of kind `op`.
    #[inline]
    fn enter(&mut self, _op: Op) {}

    /// Close the innermost open span.
    #[inline]
    fn leave(&mut self) {}
}

impl Probe for o1_vm::BaselineKernel {}
impl Probe for o1_core::FomKernel {}

/// Run `f` inside a span of kind `op`.
#[inline]
pub fn spanned<S: Probe + ?Sized, T>(sys: &mut S, op: Op, f: impl FnOnce(&mut S) -> T) -> T {
    sys.enter(op);
    let out = f(sys);
    sys.leave();
    out
}

/// Totals over every closed span of one kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, host ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), host ns.
    pub self_ns: u64,
}

/// One recorded span. Times are host ns since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the enclosing span in the same buffer, if kept.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 outside requests; ids start at 1).
    pub req: u32,
    /// What the span covers.
    pub op: Op,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

struct Open {
    op: Op,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// A delegating `MemSys` that records one span per kernel call.
pub struct Traced<K> {
    inner: K,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    cap: usize,
    totals: [OpTotals; Op::COUNT],
    req: u32,
    next_req: u32,
}

impl<K: MemSys> Traced<K> {
    /// Wrap `inner`, timing against `epoch` and keeping at most `cap`
    /// raw spans for export.
    pub fn new(inner: K, epoch: Instant, cap: usize) -> Traced<K> {
        Traced {
            inner,
            epoch,
            open: Vec::with_capacity(8),
            spans: Vec::with_capacity(cap),
            cap,
            totals: [OpTotals::default(); Op::COUNT],
            req: 0,
            next_req: 1,
        }
    }

    /// Totals for spans of kind `op`.
    pub fn totals(&self, op: Op) -> OpTotals {
        self.totals[op as usize]
    }

    /// The kept raw spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn call<T>(&mut self, op: Op, f: impl FnOnce(&mut K) -> T) -> T {
        self.enter(op);
        let out = f(&mut self.inner);
        self.leave();
        out
    }
}

impl<K: MemSys> Probe for Traced<K> {
    fn enter(&mut self, op: Op) {
        if op == Op::Request {
            self.req = self.next_req;
            self.next_req += 1;
        }
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < self.cap).then(|| {
            self.spans.push(Span {
                parent: self.open.last().and_then(|o| o.kept),
                req: self.req,
                op,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            op,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    fn leave(&mut self) {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("leave without a matching enter");
        let dur = end_ns - span.start_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = &mut self.totals[span.op as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.child_ns);
        if let Some(i) = span.kept {
            self.spans[i as usize].end_ns = end_ns;
        }
        if span.op == Op::Request {
            self.req = 0;
        }
    }
}

impl<K: MemSys> MemSys for Traced<K> {
    fn sys_name(&self) -> &'static str {
        self.inner.sys_name()
    }

    fn machine(&self) -> &Machine {
        self.inner.machine()
    }

    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }

    fn current_cpu(&self) -> CpuId {
        self.inner.current_cpu()
    }

    fn cpu_count(&self) -> u32 {
        self.inner.cpu_count()
    }

    fn set_cpu(&mut self, cpu: CpuId) {
        self.inner.set_cpu(cpu);
    }

    fn create_process(&mut self) -> Result<Pid, VmError> {
        self.call(Op::CreateProcess, |k| k.create_process())
    }

    fn destroy_process(&mut self, pid: Pid) -> Result<(), VmError> {
        self.call(Op::DestroyProcess, |k| k.destroy_process(pid))
    }

    fn alloc(&mut self, pid: Pid, bytes: u64, populate: bool) -> Result<VirtAddr, VmError> {
        self.call(Op::Alloc, |k| k.alloc(pid, bytes, populate))
    }

    fn release(&mut self, pid: Pid, va: VirtAddr, bytes: u64) -> Result<(), VmError> {
        self.call(Op::Release, |k| k.release(pid, va, bytes))
    }

    fn load(&mut self, pid: Pid, va: VirtAddr) -> Result<u64, VmError> {
        self.call(Op::Load, |k| k.load(pid, va))
    }

    fn store(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), VmError> {
        self.inner.store(pid, va, value)
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
        self.inner
            .access_span(pid, va, stride, len, write, first_value)
    }

    fn access_runs(
        &mut self,
        pid: Pid,
        base: VirtAddr,
        runs: &[AccessRun],
        write: bool,
        first_value: u64,
    ) -> Result<u64, VmError> {
        self.call(Op::AccessRuns, |k| {
            k.access_runs(pid, base, runs, write, first_value)
        })
    }
}

/// Append `spans` of `kernel` to `out` as tab-separated lines:
/// `kernel req index parent op start_ns end_ns` (parent `-` for roots).
pub fn write_tsv(out: &mut String, kernel: &str, spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(out, "{kernel}\t{}\t{i}\t", s.req);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push('-'),
        }
        let _ = writeln!(out, "\t{}\t{}\t{}", s.op.name(), s.start_ns, s.end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_vm::BaselineKernel;

    #[test]
    fn self_time_excludes_children() {
        let k = BaselineKernel::builder().dram(16 << 20).build();
        let mut t = Traced::new(k, Instant::now(), 16);
        t.enter(Op::Round);
        t.enter(Op::Request);
        let pid = t.create_process().unwrap();
        t.leave();
        t.destroy_process(pid).unwrap();
        t.leave();
        let round = t.totals(Op::Round);
        let req = t.totals(Op::Request);
        let create = t.totals(Op::CreateProcess);
        let destroy = t.totals(Op::DestroyProcess);
        assert_eq!((round.count, req.count, create.count), (1, 1, 1));
        assert_eq!(create.self_ns, create.total_ns, "kernel spans are leaves");
        assert_eq!(req.self_ns, req.total_ns - create.total_ns);
        assert_eq!(
            round.self_ns,
            round.total_ns - req.total_ns - destroy.total_ns
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(1)));
        assert_eq!((spans[2].req, spans[3].req), (1, 0));
    }

    #[test]
    fn spans_past_the_cap_still_count() {
        let k = BaselineKernel::builder().dram(16 << 20).build();
        let mut t = Traced::new(k, Instant::now(), 1);
        for _ in 0..3 {
            let pid = t.create_process().unwrap();
            t.destroy_process(pid).unwrap();
        }
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.totals(Op::CreateProcess).count, 3);
    }
}
