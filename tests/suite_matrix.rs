//! The figure suite's regression matrix. Every surface the suite
//! exports is a pure function of the experiment definitions, so four
//! runs of the whole suite must agree wherever their settings should
//! not matter:
//!
//! | run | threads × repeats | traced | timeline | fast-forward |
//! |-----|-------------------|--------|----------|--------------|
//! | A   | 1 × 1             | yes    | armed    | on           |
//! | B   | 4 × 2             | yes    | armed    | on           |
//! | C   | 2 × 1             | yes    | armed    | off          |
//! | D   | 2 × 1             | no     | —        | on           |
//!
//! - A vs B: host threads and repeats never change a byte of any
//!   export: plain and enriched figure JSON, traces, timelines.
//! - A vs C: run-compressed execution never changes figure JSON,
//!   enriched JSON or trace exports. Timelines are not compared: a
//!   fused run is one op boundary, so it samples fewer points.
//! - A vs D: tracing never changes figure bytes, except in the
//!   [`HOST_HEAP_READERS`], whose gauges see the ledger's own heap.
//! - A, B and C: every machine's ledger conserves the simulated clock.
//! - D: the plain figures are the committed `GOLDEN_figures.json`.
//!
//! The `#[test]`s below check one shared [`SuiteScale::Smoke`] matrix.
//! `full_scale_matrix` runs every one of the same checks at
//! [`SuiteScale::Full`]; it is ignored here and run in release by
//! `scripts/ci.sh --gate`. Runs differ only in their
//! [`RunnerOptions`]: the runner installs each figure's settings as a
//! thread-scoped `o1-obs` run context, so matrices built side by side
//! (`--include-ignored`) cannot see each other's settings.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

use o1_bench::runner::{figure_fn, run_figures, RunnerOptions, SuiteScale, ALL_IDS};
use o1_bench::{figure_extras, figures_to_json_pretty, figures_to_json_pretty_with_extras, Figure};
use o1_obs::{
    conservation_errors, export_chrome_trace, export_jsonl, export_timeline_chrome,
    export_timeline_jsonl, latency_rows, CostKind, FigureTrace, OpKind,
};

/// Figures whose host-live gauges read the host heap, and so see the
/// ledger's own allocations when traced.
const HOST_HEAP_READERS: [&str; 2] = ["fig_hostmem", "fig_service"];

/// Gauge-timeline sampling interval of the traced runs, in simulated ns.
const TIMELINE_NS: u64 = 100_000;

/// One run of the whole suite, in request order.
struct Run {
    ids: Vec<&'static str>,
    /// Host timing samples taken per figure.
    timed: Vec<usize>,
    figures: Vec<Figure>,
    /// One per figure when traced, else empty.
    traces: Vec<FigureTrace>,
}

impl Run {
    fn new(opts: RunnerOptions) -> Run {
        let fns: Vec<_> = ALL_IDS
            .iter()
            .map(|id| figure_fn(id).expect("known id"))
            .collect();
        let mut run = Run {
            ids: Vec::new(),
            timed: Vec::new(),
            figures: Vec::new(),
            traces: Vec::new(),
        };
        for r in run_figures(&fns, &opts).runs {
            run.ids.push(r.id);
            run.timed.push(r.wall_ns.len());
            run.figures.push(r.figure);
            run.traces.extend(r.trace);
        }
        run
    }

    /// Plain figure JSON of the figures in `at`.
    fn plain(&self, at: Range<usize>) -> String {
        figures_to_json_pretty(&self.figures[at])
    }

    /// The `figures --latency --attrib [--timeline] --json` document
    /// of the figures in `at`.
    fn enriched(&self, at: Range<usize>, timeline: bool) -> String {
        let figs = &self.figures[at.clone()];
        let extras = figure_extras(figs, &self.traces[at], true, true, timeline);
        figures_to_json_pretty_with_extras(figs, &extras)
    }
}

struct Matrix {
    scale: SuiteScale,
    a: Run,
    b: Run,
    c: Run,
    d: Run,
}

impl Matrix {
    fn build(scale: SuiteScale) -> Matrix {
        let run = |threads, repeat, trace, fastforward| {
            Run::new(RunnerOptions {
                threads,
                repeat,
                trace,
                scale,
                fastforward,
                timeline_ns: TIMELINE_NS,
            })
        };
        let a = run(1, 1, true, true);
        let b = run(4, 2, true, true);
        let c = run(2, 1, true, false);
        let d = run(2, 1, false, true);
        Matrix { scale, a, b, c, d }
    }
}

fn smoke() -> &'static Matrix {
    static SMOKE: OnceLock<Matrix> = OnceLock::new();
    SMOKE.get_or_init(|| Matrix::build(SuiteScale::Smoke))
}

/// Assert that runs `x` and `y` export the same bytes through
/// `export`, which renders the figures in a range of request
/// positions. Each side is hashed before the other is rendered, so a
/// full-scale export (the suite's Chrome trace is about 1 GB) is never
/// held twice. A mismatch names the first figure that differs.
fn assert_same(what: &str, x: &Run, y: &Run, export: impl Fn(&Run, Range<usize>) -> String) {
    fn digest(s: String) -> (usize, u64) {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        (s.len(), h.finish())
    }
    let all = 0..x.ids.len();
    if digest(export(x, all.clone())) != digest(export(y, all.clone())) {
        let first = all
            .map(|i| i..i + 1)
            .find(|at| export(x, at.clone()) != export(y, at.clone()))
            .map(|at| x.ids[at.start]);
        panic!("{what} diverged (first differing figure: {first:?})");
    }
}

/// Every check, run once on the shared Smoke matrix by its own
/// `#[test]` and all together at Full by `full_scale_matrix`.
macro_rules! matrix_checks {
    ($($check:ident),* $(,)?) => {
        $(
            #[test]
            fn $check() {
                checks::$check(smoke());
            }
        )*

        #[test]
        #[ignore = "full scale; `scripts/ci.sh --gate` runs it in release"]
        fn full_scale_matrix() {
            let m = Matrix::build(SuiteScale::Full);
            $(checks::$check(&m);)*
        }
    };
}

matrix_checks!(
    all_figures_byte_identical_sequential_vs_parallel,
    full_suite_traces_conserve_and_are_byte_identical_across_threads,
    full_suite_timelines_byte_identical_across_thread_counts,
    sampling_interval_bounds_point_spacing,
    full_suite_exercises_every_cost_kind,
    suite_bytes_identical_with_and_without_fastforward,
    tracing_never_changes_figure_bytes,
    plain_figures_match_golden,
);

mod checks {
    use super::*;

    /// Host-side concurrency must never leak into a simulated number:
    /// every run reports in request order, every repeat is timed, and
    /// the plain figure JSON is the same at any thread count.
    pub fn all_figures_byte_identical_sequential_vs_parallel(m: &Matrix) {
        for run in [&m.a, &m.b, &m.c, &m.d] {
            assert_eq!(run.ids, ALL_IDS, "reports preserve request order");
        }
        assert!(m.a.timed.iter().all(|&n| n == 1));
        assert!(m.b.timed.iter().all(|&n| n == 2), "every repeat is timed");
        assert_same("plain figure JSON across threads", &m.a, &m.b, Run::plain);
    }

    /// Traces are as deterministic as the figures, and every machine's
    /// ledger accounts for every simulated nanosecond in every traced
    /// run. The enriched `--latency --attrib --timeline` JSON (merged
    /// op histograms, attribution rows, timeline summaries) is the
    /// same at any thread count.
    pub fn full_suite_traces_conserve_and_are_byte_identical_across_threads(m: &Matrix) {
        for run in [&m.a, &m.b, &m.c] {
            let ids: Vec<&str> = run.traces.iter().map(|t| t.id.as_str()).collect();
            assert_eq!(ids, ALL_IDS, "every figure traced, in request order");
            let errors = conservation_errors(&run.traces);
            assert!(
                errors.is_empty(),
                "ledger must conserve the simulated clock:\n{}",
                errors.join("\n")
            );
        }
        // Analytic figures (fig_meta) build no machines; everything
        // that simulates must show up in the ledger.
        let machines: usize = m.a.traces.iter().map(|t| t.machines.len()).sum();
        assert!(machines > 100, "suite built {machines} traced machines");

        assert_same("trace JSONL across threads", &m.a, &m.b, |r, at| {
            export_jsonl(&r.traces[at])
        });
        assert_same("Chrome trace across threads", &m.a, &m.b, |r, at| {
            export_chrome_trace(&r.traces[at])
        });
        let doc = m.a.enriched(0..ALL_IDS.len(), true);
        assert!(doc.contains("\"schema_version\": 3,"));
        for section in [
            "\"attribution\": ",
            "\"latency\": [",
            "\"timeline\": [",
            "\"gauge\": ",
        ] {
            assert!(doc.contains(section), "enriched JSON lacks {section}");
        }
        assert_same("enriched JSON across threads", &m.a, &m.b, |r, at| {
            r.enriched(at, true)
        });

        // The suite exercises both kernels' op paths, and only the
        // baseline ever demand-faults.
        let rows: Vec<_> = m.a.traces.iter().flat_map(latency_rows).collect();
        assert!(rows
            .iter()
            .any(|r| r.mech == "baseline" && r.op == OpKind::AccessFault));
        assert!(rows
            .iter()
            .any(|r| r.mech == "baseline" && r.op == OpKind::Mmap));
        assert!(rows
            .iter()
            .any(|r| r.mech.starts_with("fom-") && r.op == OpKind::Alloc));
        assert!(rows
            .iter()
            .any(|r| r.mech.starts_with("fom-") && r.op == OpKind::AccessHit));
        assert!(
            !rows
                .iter()
                .any(|r| r.mech.starts_with("fom-") && r.op == OpKind::AccessFault),
            "fom accesses never demand-fault"
        );
        for r in &rows {
            let (p50, _, p99, p999) = r.hist.percentiles();
            assert!(p50 <= p99 && p99 <= p999 && p999 <= r.hist.max());
        }
    }

    /// Gauge timelines are sampled on the simulated clock at op
    /// boundaries, so both their exports are the same at any thread
    /// count, and the suite really sampled both kernel families.
    pub fn full_suite_timelines_byte_identical_across_thread_counts(m: &Matrix) {
        let series = || {
            m.a.traces
                .iter()
                .flat_map(|t| &t.machines)
                .flat_map(|m| &m.timeline)
        };
        let points: usize = series().map(|s| s.points.len()).sum();
        assert!(points > 1000, "suite sampled {points} gauge points");
        let names: BTreeSet<&str> = series().map(|s| s.name).collect();
        for want in [
            "kernel.procs_live",
            "kernel.free_frames",
            "machine.backed_frames",
            "mmu.tlb_entries",
            "obase.dram_pool_bytes",
            "utopia.fast_occupied",
        ] {
            assert!(names.contains(want), "gauge {want} missing from suite");
        }
        assert_same("timeline JSONL across threads", &m.a, &m.b, |r, at| {
            export_timeline_jsonl(&r.traces[at])
        });
        assert_same(
            "timeline Chrome track across threads",
            &m.a,
            &m.b,
            |r, at| export_timeline_chrome(&r.traces[at]),
        );
    }

    /// Re-arming rounds up to the next interval boundary, so
    /// consecutive samples always land in distinct buckets (though
    /// the raw gap can undershoot the interval).
    pub fn sampling_interval_bounds_point_spacing(m: &Matrix) {
        let churn = m.a.traces.iter().find(|t| t.id == "fig_churn").unwrap();
        let mut checked = 0usize;
        for mach in &churn.machines {
            for s in &mach.timeline {
                for w in s.points.windows(2) {
                    assert!(
                        w[1].0 / TIMELINE_NS > w[0].0 / TIMELINE_NS,
                        "gauge {} sampled twice inside one interval bucket: {} then {}",
                        s.name,
                        w[0].0,
                        w[1].0
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "fig_churn produced multi-point series");
    }

    /// Every `CostKind` the ledger can record is charged somewhere in
    /// the suite or by one of two targeted drivers. A variant nothing
    /// reaches is either dead cost-model surface or a figure that
    /// silently stopped driving its path.
    pub fn full_suite_exercises_every_cost_kind(m: &Matrix) {
        let mut seen = BTreeSet::new();
        let reports = m.a.traces.iter().flat_map(|t| &t.machines);
        // Two paths live off the figure suite (the published figures
        // are byte-frozen, so they can't grow new work): eager zeroing
        // on the NVM tier, and baseline swap-in of a previously
        // evicted page.
        let targeted = [eager_nvm_zero_trace(), swap_in_trace()];
        for report in reports.chain(&targeted) {
            for r in &report.rows {
                if r.count > 0 {
                    seen.insert(r.kind);
                }
            }
        }
        let missing: Vec<&str> = CostKind::ALL
            .iter()
            .filter(|k| !seen.contains(k))
            .map(|k| k.name())
            .collect();
        assert!(
            missing.is_empty(),
            "cost kinds never charged by any figure or targeted driver: {missing:?}"
        );
    }

    /// The interpreted run must produce the same figures, enriched
    /// JSON and traces as the fast-forwarded one: any difference means
    /// a prover changed a simulated number.
    pub fn suite_bytes_identical_with_and_without_fastforward(m: &Matrix) {
        assert_same(
            "plain figure JSON with fast-forward off",
            &m.a,
            &m.c,
            Run::plain,
        );
        assert_same(
            "enriched JSON with fast-forward off",
            &m.a,
            &m.c,
            |r, at| r.enriched(at, false),
        );
        assert_same("trace JSONL with fast-forward off", &m.a, &m.c, |r, at| {
            export_jsonl(&r.traces[at])
        });
        assert_same("Chrome trace with fast-forward off", &m.a, &m.c, |r, at| {
            export_chrome_trace(&r.traces[at])
        });
    }

    /// The ledger observes charges; it must never alter them.
    pub fn tracing_never_changes_figure_bytes(m: &Matrix) {
        assert!(m.d.traces.is_empty(), "untraced run collects nothing");
        for (i, id) in ALL_IDS.iter().enumerate() {
            if !HOST_HEAP_READERS.contains(id) {
                assert!(
                    m.a.plain(i..i + 1) == m.d.plain(i..i + 1),
                    "tracing changed the bytes of {id}"
                );
            }
        }
    }

    /// The untraced run is what `GOLDEN_figures.json` records. Only
    /// `fig_service` reads the scale, and it is the suite's last
    /// figure, so at Smoke every figure before it still matches.
    pub fn plain_figures_match_golden(m: &Matrix) {
        let golden =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_figures.json"))
                .expect("read GOLDEN_figures.json");
        let n = ALL_IDS.len();
        let same = match m.scale {
            SuiteScale::Full => m.d.plain(0..n) == golden,
            SuiteScale::Smoke => {
                assert_eq!(ALL_IDS[n - 1], "fig_service");
                let plain = m.d.plain(0..n - 1);
                golden.starts_with(plain.strip_suffix("\n]\n").expect("closing bracket"))
            }
        };
        if !same {
            let plain = m.d.plain(0..n);
            let line = plain.lines().zip(golden.lines()).position(|(x, y)| x != y);
            panic!(
                "plain figure JSON differs from GOLDEN at line {:?}",
                line.map(|i| i + 1)
            );
        }
    }
}

/// [`EagerZero`] zeroes every extent it hands out on the allocation
/// path; over an NVM span that is the one way to charge
/// `zero_page_nvm`.
///
/// [`EagerZero`]: o1mem::palloc::EagerZero
fn eager_nvm_zero_trace() -> o1_obs::MachineReport {
    use o1mem::palloc::{EagerZero, ExtentAllocator, FrameSource, PhysExtent};
    let mut m = o1mem::hw::MachineConfig {
        nvm_bytes: 64 * o1mem::PAGE_SIZE,
        obs: o1mem::hw::ObsMode::On,
        ..Default::default()
    }
    .build();
    let nvm = PhysExtent::new(m.phys.nvm_base(), m.phys.nvm_frames());
    EagerZero::new(ExtentAllocator::new(nvm))
        .alloc(&mut m, 16)
        .unwrap();
    let report = m.take_trace().unwrap();
    assert!(
        report
            .rows
            .iter()
            .any(|r| r.kind == CostKind::ZeroPageNvm && r.count > 0),
        "eager zeroing on the NVM tier charges zero_page_nvm"
    );
    report
}

/// A memory-starved baseline kernel swaps pages out under pressure;
/// re-reading them major-faults through `swap_in_page`.
fn swap_in_trace() -> o1_obs::MachineReport {
    use o1mem::vm::MemSys;
    let mut k = o1mem::vm::BaselineKernel::builder()
        .dram(96 * o1mem::PAGE_SIZE)
        .swap(true)
        .obs(o1mem::hw::ObsMode::On)
        .build();
    let pid = MemSys::create_process(&mut k).unwrap();
    let va = MemSys::alloc(&mut k, pid, 180 * o1mem::PAGE_SIZE, false).unwrap();
    for i in 0..180u64 {
        MemSys::store(&mut k, pid, va + i * o1mem::PAGE_SIZE, i).unwrap();
    }
    for i in 0..180u64 {
        assert_eq!(
            MemSys::load(&mut k, pid, va + i * o1mem::PAGE_SIZE).unwrap(),
            i
        );
    }
    let report = k.machine_mut().take_trace().unwrap();
    assert!(
        report
            .rows
            .iter()
            .any(|r| r.kind == CostKind::SwapInPage && r.count > 0),
        "memory pressure then re-access charges swap_in_page"
    );
    report
}
