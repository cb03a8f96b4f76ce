//! Scoped, thread-local run context: the settings of one run plus
//! the ledgers it collects.
//!
//! Figure functions are plain `fn() -> Figure`: they build kernels,
//! run workloads, and drop everything before returning. Rather than
//! thread settings and an observer through every constructor, the
//! runner installs a [`RunContext`] on the worker thread, runs the
//! figure, and takes the collected ledgers back out. Every `Machine`
//! built on that thread reads the context once, at construction: it
//! fast-forwards or interprets, carries a ledger (flushing its
//! [`MachineReport`](crate::MachineReport) here when dropped) or not,
//! and arms a gauge timeline at the context's interval. Outside any
//! scope a machine sees [`RunContext::default`].
//!
//! Flush order equals drop order equals program order, and each figure
//! runs wholly on one worker thread — so collected traces are as
//! deterministic as the simulation itself, independent of how many
//! workers the runner uses.

use std::cell::RefCell;

use crate::ledger::MachineReport;

/// The settings a run hands every machine built inside it. None of
/// them may change a simulated number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunContext {
    /// Give every machine that does not opt out a ledger, and collect
    /// each ledger when its machine drops.
    pub collect: bool,
    /// Gauge-timeline sampling interval of each ledger, in simulated
    /// ns (0 = no timeline).
    pub timeline_ns: u64,
    /// Let kernels fast-forward provably uniform access runs.
    pub fastforward: bool,
}

impl Default for RunContext {
    /// Outside any run: fast-forward on, no collection, no timeline.
    fn default() -> RunContext {
        RunContext {
            collect: false,
            timeline_ns: 0,
            fastforward: true,
        }
    }
}

thread_local! {
    static RUN: RefCell<Option<(RunContext, Vec<MachineReport>)>> = const { RefCell::new(None) };
}

/// The context installed on this thread, or the default outside any
/// run. `Machine::from_config` reads it once per machine.
pub fn run_context() -> RunContext {
    RUN.with(|r| {
        r.borrow()
            .as_ref()
            .map_or_else(RunContext::default, |r| r.0)
    })
}

/// Run `f` with `ctx` installed on this thread and return its result
/// plus every machine ledger flushed while it ran (none unless
/// `ctx.collect`).
///
/// # Panics
/// Panics if a context is already installed — run scopes must not
/// nest, because a machine flushes to whichever scope is live when it
/// drops.
pub fn with_run_context<T>(ctx: RunContext, f: impl FnOnce() -> T) -> (T, Vec<MachineReport>) {
    RUN.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.is_none(), "run context already installed on this thread");
        *r = Some((ctx, Vec::new()));
    });
    let out = f();
    let (_, reports) = RUN
        .with(|r| r.borrow_mut().take())
        .expect("run context removed while it ran");
    (out, reports)
}

/// Flush one machine's closed ledger to this thread's run, if it
/// collects. Machines call this from `Drop`; otherwise the report is
/// discarded.
pub fn submit(report: MachineReport) {
    RUN.with(|r| {
        if let Some((ctx, reports)) = r.borrow_mut().as_mut() {
            if ctx.collect {
                reports.push(report);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MachineTrace;

    const COLLECT: RunContext = RunContext {
        collect: true,
        timeline_ns: 0,
        fastforward: true,
    };

    #[test]
    fn scoped_collection_gathers_submissions_in_order() {
        assert_eq!(run_context(), RunContext::default());
        let ((), reports) = with_run_context(COLLECT, || {
            assert_eq!(run_context(), COLLECT);
            let mut t = MachineTrace::with_timeline(0);
            t.record(crate::CostKind::Syscall, 1, 500);
            submit(t.finish(500));
            submit(MachineTrace::with_timeline(0).finish(0));
        });
        assert_eq!(run_context(), RunContext::default());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].clock_ns, 500);
        assert_eq!(reports[1].clock_ns, 0);
    }

    #[test]
    fn submit_outside_a_collecting_run_is_a_noop() {
        submit(MachineTrace::with_timeline(0).finish(0));
        let ctx = RunContext {
            collect: false,
            timeline_ns: 250,
            fastforward: false,
        };
        let ((), reports) = with_run_context(ctx, || {
            assert_eq!(run_context(), ctx);
            submit(MachineTrace::with_timeline(0).finish(0));
        });
        assert!(reports.is_empty());
        assert_eq!(run_context(), RunContext::default());
    }
}
