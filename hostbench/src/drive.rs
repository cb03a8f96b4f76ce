//! The three workloads, as closed-loop round drivers.
//!
//! One client issues the next request when the previous one returns.
//! A round is a fixed amount of work on one kernel, so round times are
//! comparable between runs of any length. Every kernel gets the same
//! input stream: each lane builds its own [`Driver`] from the seed.

use std::collections::VecDeque;
use std::time::Instant;

use o1_hw::{CpuId, VirtAddr, PAGE_SIZE};
use o1_vm::{AccessRun, Pid, VmError};
use o1_workloads::patterns::RunIter;
use o1_workloads::{AccessPattern, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{spanned, Op, Probe};

/// Simulated CPUs in every kernel.
pub const CPUS: u32 = 4;

/// Distinct applications the fleet's tenants are drawn from.
const APPS: u64 = 4096;

/// Zipf skew of app popularity and of the scatter workload's hot pages.
const THETA: f64 = 0.9;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serverless tenant stream: launch and tear down small processes.
    Fleet,
    /// Long sequential passes over one large region.
    Sweep,
    /// Random uniform and Zipf loads and stores over one large region.
    Scatter,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Sweep, Workload::Scatter];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Sweep => "sweep",
            Workload::Scatter => "scatter",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work per round.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `fleet`: tenants launched per round.
    pub tenants: u64,
    /// `fleet`: tenants alive at once; the oldest is evicted first.
    pub live: usize,
    /// `sweep` and `scatter`: region size in pages.
    pub pages: u64,
    /// `sweep`: passes per round. Every fourth pass writes, starting
    /// with the first, which faults the region in; the rest read.
    /// Write passes cost the host far more than read passes, so an
    /// even mix would put the median request between the two.
    pub passes: u32,
    /// `scatter`: chunks per round (a multiple of 4, so every mix of
    /// uniform or Zipf and load or store comes up equally often).
    pub chunks: u32,
    /// `scatter`: access runs per chunk.
    pub chunk_runs: usize,
}

impl Scale {
    /// The measured size: 64 MiB regions.
    pub const FULL: Scale = Scale {
        tenants: 2048,
        live: 256,
        pages: 16384,
        passes: 64,
        chunks: 64,
        chunk_runs: 1024,
    };

    /// A size for tests: short rounds, but regions as large as in
    /// [`Scale::FULL`], since on a smaller one the TLBs would cover the
    /// `scatter` workload.
    pub const SMOKE: Scale = Scale {
        tenants: 96,
        live: 32,
        pages: 16384,
        passes: 8,
        chunks: 32,
        chunk_runs: 1024,
    };
}

/// What a lane has issued so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Requests started.
    pub requests: u64,
    /// Top-level kernel calls other than the output check's loads.
    pub calls: u64,
    /// Loads and stores issued through `access_runs`.
    pub accesses: u64,
    /// Access runs issued through `access_runs`.
    pub runs: u64,
    /// Of `accesses`, those a fast-forward prover covered
    /// (`Machine::ffwd_accesses` gained inside `access_runs`).
    pub ffwd_accesses: u64,
}

/// Why a round stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The kernel returned an error.
    Vm(VmError),
    /// A load returned another value than the last store wrote.
    Check {
        /// Value the last store wrote.
        expected: u64,
        /// Value the load returned.
        got: u64,
    },
}

impl From<VmError> for Fault {
    fn from(e: VmError) -> Fault {
        Fault::Vm(e)
    }
}

/// Calibrated host latency of requests (see [`crate::calib`]),
/// summarised per window. A window is the requests of consecutive
/// rotations, closed once it holds at least `min_window` of them, so
/// its 99th percentile has at least ten samples beyond it. The
/// reported percentiles are medians over windows, which keeps a burst
/// of host noise in one window from moving them.
pub struct Latencies {
    window: Vec<u32>,
    min_window: usize,
    scale: f64,
    pushed: u64,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Latencies {
    /// Windows of at least `min_window` requests.
    pub fn new(min_window: usize) -> Latencies {
        Latencies {
            // Room for a window plus a whole traced `fleet` rotation,
            // so recording never allocates while a lane is timed.
            window: Vec::with_capacity(min_window + (1 << 16)),
            min_window: min_window.max(1),
            scale: 1.0,
            pushed: 0,
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    /// Start a rotation whose samples are calibrated by `scale`,
    /// closing the current window if it is full.
    pub fn rotate(&mut self, scale: f64) {
        if self.window.len() >= self.min_window {
            self.close_window();
        }
        self.scale = scale;
    }

    #[inline]
    fn push(&mut self, ns: u128) {
        self.window
            .push((ns as f64 * self.scale).min(f64::from(u32::MAX)) as u32);
        self.pushed += 1;
    }

    fn close_window(&mut self) {
        let w = &mut self.window;
        w.sort_unstable();
        // Nearest rank.
        let rank = |q: f64| w[((q * w.len() as f64).ceil() as usize).clamp(1, w.len()) - 1] as f64;
        self.p50.push(rank(0.50));
        self.p99.push(rank(0.99));
        w.clear();
    }

    /// Requests recorded.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// `(windows, p50, p99)`: the median over windows of each window's
    /// percentiles, in ns. A run too short to fill one window counts
    /// what it has as one.
    pub fn summary(&mut self) -> (usize, f64, f64) {
        if self.p50.is_empty() && !self.window.is_empty() {
            self.close_window();
        }
        (
            self.p50.len(),
            crate::median(&self.p50),
            crate::median(&self.p99),
        )
    }
}

/// Request bookkeeping shared by the workloads.
#[derive(Default)]
struct Io {
    /// Next value a store writes; every store writes a fresh value.
    value: u64,
    /// Address and value of the most recent store, checked at round end.
    expect: Option<(Pid, VirtAddr, u64)>,
    tally: Tally,
}

impl Io {
    fn call<T>(&mut self, r: Result<T, VmError>) -> Result<T, Fault> {
        self.tally.calls += 1;
        Ok(r?)
    }

    fn access<S: Probe>(
        &mut self,
        sys: &mut S,
        pid: Pid,
        va: VirtAddr,
        runs: &[AccessRun],
        write: bool,
    ) -> Result<(), Fault> {
        let covered = sys.machine().ffwd_accesses;
        let end = self.call(sys.access_runs(pid, va, runs, write, self.value))?;
        self.tally.ffwd_accesses += sys.machine().ffwd_accesses - covered;
        self.tally.accesses += end - self.value;
        self.tally.runs += runs.len() as u64;
        if let (true, Some(last)) = (write, runs.last()) {
            self.expect = Some((pid, va + last.page(last.len - 1) * PAGE_SIZE, end - 1));
        }
        self.value = end;
        Ok(())
    }

    /// Load back the most recent store.
    fn check<S: Probe>(&mut self, sys: &mut S) -> Result<(), Fault> {
        if let Some((pid, va, expected)) = self.expect.take() {
            let got = sys.load(pid, va)?;
            if got != expected {
                return Err(Fault::Check { expected, got });
            }
        }
        Ok(())
    }

    /// Run one request, recording its host latency in `lat`.
    fn request<S: Probe>(
        &mut self,
        sys: &mut S,
        lat: &mut Latencies,
        body: impl FnOnce(&mut S, &mut Io) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        self.tally.requests += 1;
        let t0 = Instant::now();
        let r = spanned(sys, Op::Request, |sys| body(sys, self));
        lat.push(t0.elapsed().as_nanos());
        r
    }
}

/// Generator state of one workload.
enum Gen {
    Fleet {
        apps: Zipf,
        rng: StdRng,
        live: VecDeque<Pid>,
    },
    Sweep {
        cpus: StdRng,
        pid: Option<Pid>,
    },
    Scatter {
        uniform: RunIter,
        zipf: RunIter,
        chunk: Vec<AccessRun>,
        pid: Option<Pid>,
    },
}

/// One lane's workload: generators, live processes and tallies.
pub struct Driver {
    scale: Scale,
    gen: Gen,
    io: Io,
    rounds: u64,
}

impl Driver {
    /// Set up the generators of `workload` from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Driver {
        let gen = match workload {
            Workload::Fleet => Gen::Fleet {
                apps: Zipf::new(APPS, THETA),
                rng: StdRng::seed_from_u64(seed),
                live: VecDeque::with_capacity(scale.live),
            },
            Workload::Sweep => Gen::Sweep {
                cpus: StdRng::seed_from_u64(seed),
                pid: None,
            },
            Workload::Scatter => Gen::Scatter {
                uniform: AccessPattern::RandomUniform { count: u64::MAX }.runs(scale.pages, seed),
                zipf: AccessPattern::Zipf {
                    count: u64::MAX,
                    theta: THETA,
                }
                .runs(scale.pages, seed ^ 0x9e37_79b9_7f4a_7c15),
                chunk: Vec::with_capacity(scale.chunk_runs),
                pid: None,
            },
        };
        Driver {
            scale,
            gen,
            io: Io::default(),
            rounds: 0,
        }
    }

    /// What this lane has issued so far.
    pub fn tally(&self) -> Tally {
        self.io.tally
    }

    /// Rounds completed or attempted.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Run one round on `sys`, appending each request's host latency
    /// in ns to `lat`.
    pub fn round<S: Probe>(&mut self, sys: &mut S, lat: &mut Latencies) -> Result<(), Fault> {
        self.rounds += 1;
        spanned(sys, Op::Round, |sys| self.round_body(sys, lat))
    }

    fn round_body<S: Probe>(&mut self, sys: &mut S, lat: &mut Latencies) -> Result<(), Fault> {
        let scale = self.scale;
        let io = &mut self.io;
        let bytes = scale.pages * PAGE_SIZE;
        match &mut self.gen {
            Gen::Fleet { apps, rng, live } => {
                for _ in 0..scale.tenants {
                    io.request(sys, lat, |sys, io| {
                        sys.set_cpu(CpuId((io.tally.requests % u64::from(CPUS)) as u32));
                        if live.len() == scale.live {
                            let oldest = live.pop_front().expect("the fleet is full");
                            io.call(sys.destroy_process(oldest))?;
                        }
                        let pages = spanned(sys, Op::Generate, |_| 2 + (apps.sample(rng) & 3) * 2);
                        let pid = io.call(sys.create_process())?;
                        live.push_back(pid);
                        let va = io.call(sys.alloc(pid, pages * PAGE_SIZE, false))?;
                        let touch = AccessRun {
                            start_page: 0,
                            stride: 1,
                            len: pages,
                        };
                        io.access(sys, pid, va, &[touch], true)
                    })?;
                }
                io.check(sys)
            }
            Gen::Sweep { cpus, pid } => {
                let pid = process(sys, io, pid)?;
                let va = io.call(sys.alloc(pid, bytes, false))?;
                // The round's passes spread over a seeded number of
                // CPUs, which sets how many TLBs warm up and how far
                // the release's shootdown reaches.
                let spread = spanned(sys, Op::Generate, |_| cpus.random_range(1..=CPUS));
                for pass in 0..scale.passes {
                    io.request(sys, lat, |sys, io| {
                        let (cpu, run) = spanned(sys, Op::Generate, |_| {
                            let run = AccessPattern::Sweep { sweeps: 1 }
                                .runs(scale.pages, 0)
                                .next();
                            (
                                cpus.random_range(0..spread),
                                run.expect("one pass is one run"),
                            )
                        });
                        sys.set_cpu(CpuId(cpu));
                        io.access(sys, pid, va, &[run], pass % 4 == 0)
                    })?;
                }
                io.check(sys)?;
                io.call(sys.release(pid, va, bytes))
            }
            Gen::Scatter {
                uniform,
                zipf,
                chunk,
                pid,
            } => {
                let pid = process(sys, io, pid)?;
                let va = io.call(sys.alloc(pid, bytes, false))?;
                for c in 0..scale.chunks {
                    io.request(sys, lat, |sys, io| {
                        spanned(sys, Op::Generate, |_| {
                            let source = if c % 2 == 0 {
                                &mut *uniform
                            } else {
                                &mut *zipf
                            };
                            chunk.clear();
                            chunk.extend(source.take(scale.chunk_runs));
                        });
                        sys.set_cpu(CpuId(c % CPUS));
                        io.access(sys, pid, va, chunk, c % 4 >= 2)
                    })?;
                }
                io.check(sys)?;
                io.call(sys.release(pid, va, bytes))
            }
        }
    }

    /// Destroy every process the workload still holds.
    pub fn finish<S: Probe>(&mut self, sys: &mut S) -> Result<(), Fault> {
        let io = &mut self.io;
        match &mut self.gen {
            Gen::Fleet { live, .. } => {
                while let Some(pid) = live.pop_front() {
                    io.call(sys.destroy_process(pid))?;
                }
                Ok(())
            }
            Gen::Sweep { pid, .. } | Gen::Scatter { pid, .. } => match pid.take() {
                Some(pid) => io.call(sys.destroy_process(pid)),
                None => Ok(()),
            },
        }
    }
}

/// The workload's one process, created on first use.
fn process<S: Probe>(sys: &mut S, io: &mut Io, slot: &mut Option<Pid>) -> Result<Pid, Fault> {
    if let Some(pid) = *slot {
        return Ok(pid);
    }
    let pid = io.call(sys.create_process())?;
    *slot = Some(pid);
    Ok(pid)
}
