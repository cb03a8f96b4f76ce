//! # o1mem-hostbench — the o1mem host-speed benchmark
//!
//! A single-threaded, closed-loop load generator that drives three
//! kernels (`baseline`, `fom_pt`, `fom_ranges`) through the public
//! `MemSys` API and reports how fast the simulator runs them, in host
//! time, plus the modelled result in simulated time. See `README.md`
//! for the workloads, metrics and how to run it.
//!
//! A run has a set-up phase (timed several times), a timed phase of
//! whole rounds that rotates over the kernels until the time is up,
//! and an output check. Host times are calibrated against a fixed
//! reference workload timed in every rotation (see [`calib`]). The
//! untraced run reports the end-to-end metrics. The traced run adds,
//! per kernel, a lane wrapped in [`trace::Traced`] and a lane with the
//! cost ledger on, and reports the per-layer metrics.

pub mod calib;
pub mod drive;
pub mod kernels;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use o1_hw::PerfSnapshot;

use drive::{Driver, Fault, Latencies, Scale, Tally, Workload};
use kernels::{with_sys, Instance, KernelKind, Mode};
use trace::Op;

/// Rounds per lane that the output check replays and the
/// deterministic counts cover.
pub const PREFIX_ROUNDS: u64 = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Rounds per lane after which `peak_rss_mb` is read, so that it
/// covers a fixed amount of work however fast the rounds run.
const RSS_ROUNDS: u64 = 16;

/// Least number of requests in a latency window.
const LATENCY_WINDOW: usize = 1000;

/// Raw spans each traced lane keeps for export.
const SPAN_CAP: usize = 50_000;

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the timed phase. At least [`PREFIX_ROUNDS`] rounds run
    /// even when it is zero.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work per round.
    pub scale: Scale,
    /// Directory the traced run writes its spans to, if any.
    pub spans_dir: Option<PathBuf>,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No request failed and every digest matched its replay.
    pub correct: bool,
    /// Requests attempted in the measured lanes.
    pub attempted: u64,
    /// Requests that failed, plus the requests of every lane whose
    /// digest did not match.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the simulated clock and `PerfCounters` of each kernel
    /// after [`PREFIX_ROUNDS`] rounds.
    pub digests: Vec<(KernelKind, u64)>,
    /// Human-readable lines: digests, sample counts, check failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// State of one lane after its first [`PREFIX_ROUNDS`] rounds.
#[derive(Clone, Copy, Default)]
struct Prefix {
    snap: PerfSnapshot,
    ffwd_runs: u64,
    tally: Tally,
    /// Host allocation calls made during the prefix rounds.
    allocs: u64,
}

impl Prefix {
    fn events(&self) -> u64 {
        self.snap.counters.loads + self.snap.counters.stores + self.tally.calls
    }

    fn digest(&self) -> u64 {
        fnv1a(format!("{} {:?}", self.snap.at.0, self.snap.counters).as_bytes())
    }
}

/// One kernel instance with its workload and measurements.
struct Lane {
    kind: KernelKind,
    mode: Mode,
    sys: Instance,
    driver: Driver,
    /// Host time of each round, as measured.
    round_ns: Vec<u64>,
    /// Host time of each round, calibrated.
    round_cal_ns: Vec<f64>,
    prefix_allocs: u64,
    prefix: Option<Prefix>,
}

impl Lane {
    fn new(cfg: &Config, kind: KernelKind, mode: Mode, epoch: Instant) -> Lane {
        Lane {
            kind,
            mode,
            sys: Instance::boot(kind, cfg.workload, mode, epoch, SPAN_CAP),
            driver: Driver::new(cfg.workload, cfg.scale, cfg.seed),
            round_ns: Vec::with_capacity(4096),
            round_cal_ns: Vec::with_capacity(4096),
            prefix_allocs: 0,
            prefix: None,
        }
    }

    /// Run and time one round; `scale` calibrates its host time.
    fn step(&mut self, lat: &mut Latencies, scale: f64) -> Result<(), Fault> {
        let allocs = o1_obs::hostmem::snapshot().alloc_calls;
        let t0 = Instant::now();
        let r = with_sys!(&mut self.sys, s => self.driver.round(s, lat));
        let ns = t0.elapsed().as_nanos() as u64;
        if self.prefix.is_none() {
            self.prefix_allocs += o1_obs::hostmem::snapshot().alloc_calls - allocs;
        }
        self.round_ns.push(ns);
        self.round_cal_ns.push(ns as f64 * scale);
        r?;
        if self.driver.rounds() == PREFIX_ROUNDS {
            let m = self.sys.machine();
            self.prefix = Some(Prefix {
                snap: PerfSnapshot::of(m),
                ffwd_runs: m.ffwd_runs,
                tally: self.driver.tally(),
                allocs: self.prefix_allocs,
            });
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), Fault> {
        with_sys!(&mut self.sys, s => self.driver.finish(s))
    }

    /// Loads and stores plus top-level calls so far.
    fn events(&self) -> u64 {
        let c = self.sys.machine().perf;
        c.loads + c.stores + self.driver.tally().calls
    }

    /// Calibrated round times past the warm-up prefix (all of them if
    /// there are no others).
    fn measured_ns(&self) -> &[f64] {
        match self.round_cal_ns.get(PREFIX_ROUNDS as usize..) {
            Some(rest) if !rest.is_empty() => rest,
            _ => &self.round_cal_ns,
        }
    }

    /// Median calibrated host time of a measured round, in seconds.
    fn round_s(&self) -> f64 {
        median(self.measured_ns()) * 1e-9
    }

    /// Simulated events per measured round, given `events` so far.
    fn events_per_round(&self, events: u64) -> f64 {
        let measured = self.measured_ns().len();
        match self.prefix {
            Some(p) if measured < self.round_ns.len() => {
                (events - p.events()) as f64 / measured as f64
            }
            _ => ratio(events as f64, self.round_ns.len() as f64),
        }
    }
}

/// Run the benchmark once.
pub fn run(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    let modes: &[Mode] = if cfg.trace {
        &[Mode::Plain, Mode::Traced, Mode::Ledger]
    } else {
        &[Mode::Plain]
    };
    let boot = || -> Vec<Lane> {
        KernelKind::ALL
            .into_iter()
            .flat_map(|kind| modes.iter().map(move |&mode| (kind, mode)))
            .map(|(kind, mode)| Lane::new(cfg, kind, mode, epoch))
            .collect()
    };
    let mut lat = Latencies::new(LATENCY_WINDOW);
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut lanes = Vec::new();
    for _ in 0..if cfg.trace { 1 } else { SETUP_REPS } {
        drop(std::mem::take(&mut lanes));
        let scale = calib::scale(calib::reference_ns());
        let t0 = Instant::now();
        lanes = boot();
        setup_ns.push(t0.elapsed().as_nanos() as f64 * scale);
    }

    // Timed phase: whole rounds, rotating over the lanes.
    let mut notes = Vec::new();
    let mut failed = 0;
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    let mut peak_rss_mb = None;
    let mut reference_ns = Vec::with_capacity(4096);
    'timed: while lanes[0].driver.rounds() < PREFIX_ROUNDS || start.elapsed() < budget {
        if lanes[0].driver.rounds() == RSS_ROUNDS {
            peak_rss_mb = Some(read_peak_rss_mb());
        }
        reference_ns.push(calib::reference_ns());
        let scale = calib::scale(reference_ns[reference_ns.len() - 1]);
        lat.rotate(scale);
        for lane in &mut lanes {
            if let Err(fault) = lane.step(&mut lat, scale) {
                notes.push(format!(
                    "{} {:?}: round {} failed: {fault:?}",
                    lane.kind.name(),
                    lane.mode,
                    lane.driver.rounds()
                ));
                failed += 1;
                break 'timed;
            }
        }
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(read_peak_rss_mb);
    let events: Vec<u64> = lanes.iter().map(Lane::events).collect();
    for lane in &mut lanes {
        if let Err(fault) = lane.finish() {
            notes.push(format!(
                "{} {:?}: teardown failed: {fault:?}",
                lane.kind.name(),
                lane.mode
            ));
            failed += 1;
        }
    }
    let attempted = lanes
        .iter()
        .map(|l| l.driver.tally().requests)
        .sum::<u64>()
        .max(1);
    let (digests, mismatched) = check_digests(cfg, &lanes, epoch, &mut notes);
    failed += mismatched;
    let reference_ns: Vec<f64> = reference_ns.into_iter().map(|ns| ns as f64).collect();
    notes.push(format!(
        "reference work: median {:.4} ms",
        median(&reference_ns) * 1e-6
    ));
    for lane in &lanes {
        let raw: Vec<f64> = lane.round_ns.iter().map(|&ns| ns as f64).collect();
        notes.push(format!(
            "rounds {} {:?}: median {:.4} ms measured, {:.4} ms calibrated",
            lane.kind.name(),
            lane.mode,
            median(&raw) * 1e-6,
            median(&lane.round_cal_ns) * 1e-6
        ));
    }
    let (windows, p50_ns, p99_ns) = lat.summary();
    notes.push(format!(
        "{} requests over {} rounds per lane; latency: {} samples in {} windows",
        attempted,
        lanes[0].round_ns.len(),
        lat.pushed(),
        windows
    ));

    let metrics = if cfg.trace {
        if let Some(dir) = &cfg.spans_dir {
            match write_spans(dir, cfg.workload, &lanes) {
                Ok(path) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => notes.push(format!("spans not written: {e}")),
            }
        }
        per_layer(&lanes, calib::scale(median(&reference_ns) as u64))
    } else {
        end_to_end(
            &lanes,
            &events,
            &setup_ns,
            (p50_ns, p99_ns),
            peak_rss_mb,
            attempted,
            failed,
        )
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        digests,
        notes,
    }
}

/// The output check: every lane's digest after [`PREFIX_ROUNDS`]
/// rounds must match a replay of the same rounds on a fresh kernel with
/// fast-forward off. Returns the plain lanes' digests and the number of
/// requests that count as failed: those of every mismatched lane.
fn check_digests(
    cfg: &Config,
    lanes: &[Lane],
    epoch: Instant,
    notes: &mut Vec<String>,
) -> (Vec<(KernelKind, u64)>, u64) {
    let mut digests = Vec::new();
    let mut failed = 0;
    for kind in KernelKind::ALL {
        let mut replay = Lane::new(cfg, kind, Mode::Interpreter, epoch);
        let mut scratch = Latencies::new(LATENCY_WINDOW);
        for _ in 0..PREFIX_ROUNDS {
            if let Err(fault) = replay.step(&mut scratch, 1.0) {
                notes.push(format!("{} replay failed: {fault:?}", kind.name()));
                break;
            }
        }
        let want = replay.prefix.map(|p| p.digest());
        for lane in lanes.iter().filter(|l| l.kind == kind) {
            let got = lane.prefix.map(|p| p.digest());
            if let (Mode::Plain, Some(d)) = (lane.mode, got) {
                digests.push((kind, d));
            }
            notes.push(format!(
                "digest {} {:?}: {} (fast-forward off: {})",
                kind.name(),
                lane.mode,
                hex(got),
                hex(want)
            ));
            if got.is_none() || got != want {
                notes.push(format!("digest mismatch: {} {:?}", kind.name(), lane.mode));
                failed += lane.prefix.map_or(1, |p| p.tally.requests.max(1));
            }
        }
    }
    (digests, failed)
}

fn end_to_end(
    lanes: &[Lane],
    events: &[u64],
    setup_ns: &[f64],
    (p50_ns, p99_ns): (f64, f64),
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    put("setup_s".into(), median(setup_ns) * 1e-9, "s");
    let per_round: f64 = lanes
        .iter()
        .zip(events)
        .map(|(l, &e)| l.events_per_round(e))
        .sum();
    let round_s: f64 = lanes.iter().map(Lane::round_s).sum();
    put("sim_events_per_s".into(), ratio(per_round, round_s), "1/s");
    for lane in lanes {
        put(format!("{}.host_s", lane.kind.name()), lane.round_s(), "s");
    }
    put("req_p50_us".into(), p50_ns * 1e-3, "us");
    put("req_p99_us".into(), p99_ns * 1e-3, "us");
    put("peak_rss_mb".into(), peak_rss_mb, "MB");
    put(
        "ok_ratio".into(),
        attempted.saturating_sub(failed) as f64 / attempted as f64,
        "ratio",
    );
    for lane in lanes {
        let p = lane.prefix.as_ref();
        let v = p.map_or(0.0, |p| ratio(p.snap.at.0 as f64, p.events() as f64));
        put(
            format!("{}.sim_ns_per_event", lane.kind.name()),
            v,
            "sim_ns",
        );
    }
    out
}

/// Per-layer metrics. Span times are calibrated by `scale`, the
/// run's median calibration factor.
fn per_layer(lanes: &[Lane], scale: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let lane = |kind, mode| {
        lanes
            .iter()
            .find(|l| l.kind == kind && l.mode == mode)
            .expect("lane booted")
    };
    let prefix = |kind| lane(kind, Mode::Plain).prefix.unwrap_or_default();
    for kind in KernelKind::ALL {
        let t = lane(kind, Mode::Traced);
        let rounds = t.round_ns.len() as f64;
        let head = format!("{}.{}", kind.layer(), kind.name());
        for op in Op::REPORTED {
            let tot = t.sys.totals(op);
            let (self_ns, total_ns) = (tot.self_ns as f64 * scale, tot.total_ns as f64 * scale);
            put(
                format!("{head}.{}.host_s", op.name()),
                ratio(self_ns * 1e-9, rounds),
                "s",
            );
            put(
                format!("{head}.{}.ns_per_call", op.name()),
                ratio(total_ns, tot.count as f64),
                "ns",
            );
        }
        let runs = t.sys.totals(Op::AccessRuns);
        put(
            format!("{head}.access_runs.ns_per_access"),
            ratio(
                runs.total_ns as f64 * scale,
                t.driver.tally().accesses as f64,
            ),
            "ns",
        );
    }
    for kind in KernelKind::ALL {
        let p = prefix(kind);
        let c = p.snap.counters;
        let k = kind.name();
        let lookups = c.tlb_hits + c.tlb_misses + c.rtlb_hits + c.rtlb_misses;
        put(
            format!("hw.{k}.tlb_miss_ratio"),
            ratio((c.tlb_misses + c.rtlb_misses) as f64, lookups as f64),
            "ratio",
        );
        for (name, v) in [
            ("page_walks", c.page_walks),
            ("pte_writes", c.pte_writes),
            ("pt_nodes_alloced", c.pt_nodes_alloced),
            ("tlb_shootdowns", c.tlb_shootdowns),
            ("range_installs", c.range_installs),
            ("ffwd_runs", p.ffwd_runs),
        ] {
            put(format!("hw.{k}.{name}"), v as f64, "count");
        }
        put(
            format!("hw.{k}.ffwd_ratio"),
            ratio(p.tally.ffwd_accesses as f64, p.tally.accesses as f64),
            "ratio",
        );
    }
    for kind in KernelKind::ALL {
        let c = prefix(kind).snap.counters;
        let k = kind.name();
        put(
            format!("palloc.{k}.frames_alloced"),
            c.frames_alloced as f64,
            "count",
        );
        put(
            format!("palloc.{k}.alloc_calls"),
            c.alloc_calls as f64,
            "count",
        );
        put(
            format!("palloc.{k}.bytes_zeroed"),
            (c.bytes_zeroed_fg + c.bytes_zeroed_bg) as f64,
            "B",
        );
    }
    for kind in [KernelKind::FomPt, KernelKind::FomRanges] {
        put(
            format!("memfs.{}.journal_records", kind.name()),
            prefix(kind).snap.counters.journal_records as f64,
            "count",
        );
    }
    for kind in KernelKind::ALL {
        let p = prefix(kind);
        put(
            format!("host.{}.allocs_per_event", kind.name()),
            ratio(p.allocs as f64, p.events() as f64),
            "allocs/event",
        );
    }
    let traced: Vec<&Lane> = lanes.iter().filter(|l| l.mode == Mode::Traced).collect();
    let loop_self_ns: u64 = traced
        .iter()
        .flat_map(|l| [Op::Round, Op::Request, Op::Generate].map(|op| l.sys.totals(op).self_ns))
        .sum();
    let traced_rounds: usize = traced.iter().map(|l| l.round_ns.len()).sum();
    put(
        "workloads.self_s".into(),
        ratio(loop_self_ns as f64 * scale * 1e-9, traced_rounds as f64),
        "s",
    );
    let (runs, accesses) = KernelKind::ALL
        .into_iter()
        .map(|k| prefix(k).tally)
        .fold((0, 0), |(r, a), t| (r + t.runs, a + t.accesses));
    put(
        "workloads.runs_per_access".into(),
        ratio(runs as f64, accesses as f64),
        "runs/access",
    );
    let pass_s = |mode| {
        KernelKind::ALL
            .into_iter()
            .map(|k| lane(k, mode).round_s())
            .sum::<f64>()
    };
    let plain_s = pass_s(Mode::Plain);
    put(
        "obs.span_overhead".into(),
        ratio(pass_s(Mode::Traced), plain_s) - 1.0,
        "ratio",
    );
    put(
        "obs.ledger_overhead".into(),
        ratio(pass_s(Mode::Ledger), plain_s) - 1.0,
        "ratio",
    );
    out
}

/// Write every traced lane's kept spans to `<dir>/spans-<workload>.tsv`.
fn write_spans(
    dir: &std::path::Path,
    workload: Workload,
    lanes: &[Lane],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut out = String::from("kernel\treq\tindex\tparent\top\tstart_ns\tend_ns\n");
    for lane in lanes.iter().filter(|l| l.mode == Mode::Traced) {
        trace::write_tsv(&mut out, lane.kind.name(), lane.sys.spans());
    }
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (0 when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hex(d: Option<u64>) -> String {
    d.map_or_else(|| "none".into(), |d| format!("{d:016x}"))
}
