//! Scoped, thread-local trace collection.
//!
//! Figure functions are plain `fn() -> Figure`: they build kernels,
//! run workloads, and drop everything before returning. Rather than
//! thread an observer through every constructor, the runner installs a
//! *collector* on the worker thread, runs the figure, and takes the
//! collector back out. While one is installed, every `Machine` built
//! on that thread carries a ledger and flushes its
//! [`MachineReport`](crate::MachineReport) here when dropped.
//!
//! Flush order equals drop order equals program order, and each figure
//! runs wholly on one worker thread — so collected traces are as
//! deterministic as the simulation itself, independent of how many
//! workers the runner uses.

use std::cell::RefCell;

use crate::ledger::MachineReport;

thread_local! {
    static COLLECTOR: RefCell<Option<Vec<MachineReport>>> = const { RefCell::new(None) };
}

/// True while a collector is installed on this thread. `Machine::new`
/// consults this to decide whether to carry a ledger.
pub fn collector_active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Install a fresh collector on this thread.
///
/// # Panics
/// Panics if one is already installed — collection scopes must not
/// nest, because a machine flushes to whichever collector is live when
/// it drops.
pub fn install_collector() {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        assert!(
            c.is_none(),
            "trace collector already installed on this thread"
        );
        *c = Some(Vec::new());
    });
}

/// Remove this thread's collector and return everything it gathered.
///
/// # Panics
/// Panics if no collector is installed.
pub fn take_collector() -> Vec<MachineReport> {
    COLLECTOR.with(|c| {
        c.borrow_mut()
            .take()
            .expect("no trace collector installed on this thread")
    })
}

/// Flush one machine's closed ledger to this thread's collector, if
/// any. Machines call this from `Drop`; without a collector the report
/// is discarded (the machine should not have had a ledger then anyway).
pub fn submit(report: MachineReport) {
    COLLECTOR.with(|c| {
        if let Some(reports) = c.borrow_mut().as_mut() {
            reports.push(report);
        }
    });
}

/// Run `f` with a collector installed and return its result plus every
/// machine ledger flushed while it ran.
pub fn with_collector<T>(f: impl FnOnce() -> T) -> (T, Vec<MachineReport>) {
    install_collector();
    let out = f();
    (out, take_collector())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MachineTrace;

    #[test]
    fn scoped_collection_gathers_submissions_in_order() {
        assert!(!collector_active());
        let ((), reports) = with_collector(|| {
            assert!(collector_active());
            let mut t = MachineTrace::new();
            t.record(crate::CostKind::Syscall, 1, 500);
            submit(t.finish(500));
            submit(MachineTrace::new().finish(0));
        });
        assert!(!collector_active());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].clock_ns, 500);
        assert_eq!(reports[1].clock_ns, 0);
    }

    #[test]
    fn submit_without_collector_is_a_noop() {
        submit(MachineTrace::new().finish(0));
        assert!(!collector_active());
    }
}
