//! Parallel figure runner.
//!
//! Every figure function builds its own kernels and machines, shares
//! no state, and is deterministic in its inputs — so the suite is
//! embarrassingly parallel. This module runs figures over a scoped
//! thread pool (`std::thread::scope`, no external crates) with a
//! work-stealing index, collects results into per-figure slots so
//! **output order never depends on completion order**, and records a
//! host wall-clock profile per figure for `BENCH_figures.json`.
//!
//! Each figure task runs inside an [`o1_obs::RunContext`] built from
//! its [`RunnerOptions`]: whether to collect ledgers, the timeline
//! interval, and fast-forward. The context is thread-scoped, so two
//! runs with different options may proceed side by side.
//!
//! Parallelism here is pure host-side mechanics: each experiment's
//! simulated clock, perf counters, and series are computed exactly as
//! in a sequential run, so emitted figures are byte-identical for any
//! `--threads` value (enforced by `tests/suite_matrix.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::experiments;
use crate::Figure;

/// Canonical ids of every figure, in output order.
pub const ALL_IDS: [&str; 24] = [
    "fig1a",
    "fig1b",
    "fig2",
    "fig3",
    "fig4_map",
    "fig4_access",
    "fig_faults",
    "fig_read16k",
    "fig_meta",
    "fig_zero",
    "fig_reclaim",
    "fig_palloc",
    "fig_persist",
    "fig_virt",
    "fig_thp",
    "fig_teardown",
    "fig_frag",
    "fig_churn",
    "fig_dma",
    "fig_sweep",
    "fig_smp",
    "fig_tiering",
    "fig_hostmem",
    "fig_service",
];

/// How large a suite run is. Only `fig_service` reads it, as the size
/// of its tenant fleet; every other figure is the same at both scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteScale {
    /// A reduced `fig_service` fleet, for debug-build checks.
    Smoke,
    /// The published figures (`GOLDEN_figures.json`); what the
    /// `figures` binary always runs.
    Full,
}

/// A canonical figure id plus its generator function, as resolved by
/// [`figure_fn`] and consumed by [`run_figures`].
pub type FigureEntry = (&'static str, fn(SuiteScale) -> Figure);

/// Resolve a figure id (canonical name, paper number, or short alias)
/// to `(canonical_id, generator)`.
pub fn figure_fn(id: &str) -> Option<FigureEntry> {
    let entry: FigureEntry = match id {
        "1a" | "fig1a" | "6a" => ("fig1a", |_| experiments::fig1a()),
        "1b" | "fig1b" | "6b" => ("fig1b", |_| experiments::fig1b()),
        "2" | "fig2" | "7" => ("fig2", |_| experiments::fig2()),
        "3" | "fig3" | "8" => ("fig3", |_| experiments::fig3()),
        "4" | "fig4_map" | "fig4" | "9" => ("fig4_map", |_| experiments::fig4_map()),
        "4access" | "fig4_access" => ("fig4_access", |_| experiments::fig4_access()),
        "faults" | "fig_faults" => ("fig_faults", |_| experiments::fig_faults()),
        "read16k" | "fig_read16k" => ("fig_read16k", |_| experiments::fig_read16k()),
        "meta" | "fig_meta" => ("fig_meta", |_| experiments::fig_meta()),
        "zero" | "fig_zero" => ("fig_zero", |_| experiments::fig_zero()),
        "reclaim" | "fig_reclaim" => ("fig_reclaim", |_| experiments::fig_reclaim()),
        "palloc" | "fig_palloc" => ("fig_palloc", |_| experiments::fig_palloc()),
        "persist" | "fig_persist" => ("fig_persist", |_| experiments::fig_persist()),
        "virt" | "fig_virt" => ("fig_virt", |_| experiments::fig_virt()),
        "thp" | "fig_thp" => ("fig_thp", |_| experiments::fig_thp()),
        "teardown" | "fig_teardown" => ("fig_teardown", |_| experiments::fig_teardown()),
        "frag" | "fig_frag" => ("fig_frag", |_| experiments::fig_frag()),
        "churn" | "fig_churn" => ("fig_churn", |_| experiments::fig_churn()),
        "dma" | "fig_dma" => ("fig_dma", |_| experiments::fig_dma()),
        "sweep" | "fig_sweep" => ("fig_sweep", |_| experiments::fig_sweep()),
        "smp" | "fig_smp" => ("fig_smp", |_| experiments::fig_smp()),
        "tiering" | "fig_tiering" => ("fig_tiering", |_| experiments::fig_tiering()),
        "hostmem" | "fig_hostmem" => ("fig_hostmem", |_| experiments::fig_hostmem()),
        "service" | "fig_service" => ("fig_service", experiments::fig_service),
        _ => return None,
    };
    Some(entry)
}

/// How to run the suite.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Worker threads (1 = sequential; same code path either way).
    pub threads: usize,
    /// Times to regenerate each figure (timing samples; the emitted
    /// figure always comes from the first repeat).
    pub repeat: usize,
    /// Collect a cost-attribution trace ([`o1_obs::FigureTrace`]) per
    /// figure. Tracing never changes *simulated* figure bytes: the
    /// ledger records what each machine already charges. The two
    /// exceptions are `fig_hostmem` and `fig_service`, whose host-live
    /// gauges read the host heap and so see the ledger's own
    /// allocations — their numbers shift when traced, identically at
    /// any thread count. Only the first repeat is traced, so
    /// `--repeat` timing samples stay untraced.
    pub trace: bool,
    /// Suite scale, passed to every figure function.
    pub scale: SuiteScale,
    /// Let kernels fast-forward provably uniform access runs (false:
    /// interpret every access). Never changes a figure or trace byte;
    /// it changes only the timeline's sample count, since a fused
    /// run is one op boundary.
    pub fastforward: bool,
    /// Gauge-timeline sampling interval of traced machines, in
    /// simulated ns (0 = no timeline).
    pub timeline_ns: u64,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            repeat: 1,
            trace: false,
            scale: SuiteScale::Full,
            fastforward: true,
            timeline_ns: 0,
        }
    }
}

/// A full suite run: per-figure results in the order the ids were
/// requested, plus the profile. Callers borrow or move the figures and
/// traces out; the report never copies them.
pub struct RunReport {
    /// Worker threads actually used.
    pub threads: usize,
    /// Repeats per figure.
    pub repeat: usize,
    /// Whole-suite host wall-clock (includes scheduling overhead).
    pub total_wall_ns: u64,
    /// The generated figures (identical across repeats and threads).
    pub figures: Vec<Figure>,
    /// Host nanoseconds per repeat of each figure, in repeat order.
    pub wall_ns: Vec<Vec<u64>>,
    /// Cost-attribution traces from the first repeat, one per figure
    /// when [`RunnerOptions::trace`] was set, else empty.
    pub traces: Vec<o1_obs::FigureTrace>,
}

/// Run `fns` (id + generator pairs from [`figure_fn`]) across a
/// scoped thread pool. Results land in per-figure slots indexed by
/// request position, so the report order is deterministic no matter
/// which worker finishes first.
pub fn run_figures(fns: &[FigureEntry], opts: &RunnerOptions) -> RunReport {
    let repeat = opts.repeat.max(1);
    let n_tasks = fns.len() * repeat;
    let threads = opts.threads.max(1).min(n_tasks.max(1));

    // One slot per figure: the figure and trace from repeat 0 plus
    // all timings.
    type Slot = (
        Option<Figure>,
        Option<o1_obs::FigureTrace>,
        Vec<(usize, u64)>,
    );
    let slots: Vec<Mutex<Slot>> = fns
        .iter()
        .map(|_| Mutex::new((None, None, Vec::new())))
        .collect();
    let next = AtomicUsize::new(0);

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let task = next.fetch_add(1, Ordering::Relaxed);
                if task >= n_tasks {
                    break;
                }
                // Interleave figures before repeats so early tasks
                // cover the whole suite and load-balance well.
                let (fi, rep) = (task % fns.len(), task / fns.len());
                let started = Instant::now();
                // A figure runs wholly on this worker, inside one run
                // context that every machine it builds reads at
                // construction. Machines flush their ledgers on drop in
                // program order, so the collected trace is
                // deterministic regardless of thread count.
                let (id, figure_fn) = fns[fi];
                let run = o1_obs::RunContext {
                    collect: opts.trace && rep == 0,
                    timeline_ns: opts.timeline_ns,
                    fastforward: opts.fastforward,
                };
                let (figure, machines) = o1_obs::with_run_context(run, || figure_fn(opts.scale));
                let trace = run.collect.then(|| o1_obs::FigureTrace {
                    id: id.to_string(),
                    machines,
                });
                let ns = started.elapsed().as_nanos() as u64;
                let mut slot = slots[fi].lock().unwrap_or_else(|e| e.into_inner());
                slot.2.push((rep, ns));
                if rep == 0 {
                    slot.0 = Some(figure);
                    slot.1 = trace;
                }
            });
        }
    });
    let total_wall_ns = t0.elapsed().as_nanos() as u64;

    let (mut figures, mut wall_ns, mut traces) = (Vec::new(), Vec::new(), Vec::new());
    for slot in slots {
        let (figure, trace, mut timings) = slot.into_inner().unwrap_or_else(|e| e.into_inner());
        timings.sort_unstable_by_key(|&(rep, _)| rep);
        figures.push(figure.expect("every figure ran at least once"));
        wall_ns.push(timings.into_iter().map(|(_, ns)| ns).collect());
        traces.extend(trace);
    }
    RunReport {
        threads,
        repeat,
        total_wall_ns,
        figures,
        wall_ns,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_resolves_and_aliases_agree() {
        for id in ALL_IDS {
            let (canon, _) = figure_fn(id).expect("canonical id resolves");
            assert_eq!(canon, id);
        }
        assert_eq!(figure_fn("1a").unwrap().0, "fig1a");
        assert_eq!(figure_fn("9").unwrap().0, "fig4_map");
        assert!(figure_fn("nope").is_none());
    }

    #[test]
    fn parallel_matches_sequential_on_a_small_subset() {
        let fns: Vec<_> = ["fig2", "fig_meta", "fig_zero"]
            .iter()
            .map(|id| figure_fn(id).unwrap())
            .collect();
        let seq = run_figures(
            &fns,
            &RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = run_figures(
            &fns,
            &RunnerOptions {
                threads: 3,
                repeat: 2,
                ..Default::default()
            },
        );
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 3);
        assert_eq!(par.wall_ns[0].len(), 2, "repeats all timed");
        let a = crate::figures_to_json_pretty(&seq.figures);
        let b = crate::figures_to_json_pretty(&par.figures);
        assert_eq!(a, b, "thread count never changes figure bytes");
        for (i, (f, wall_ns)) in seq.figures.iter().zip(&seq.wall_ns).enumerate() {
            assert_eq!(f.id, fns[i].0, "request order preserved");
            assert!(wall_ns.iter().min().is_some_and(|&ns| ns > 0));
        }
    }
}
