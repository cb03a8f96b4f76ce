//! The three kernels under test and the ways the benchmark runs them.

use std::time::Instant;

use o1_core::{FomKernel, MapMech};
use o1_hw::{Machine, ObsMode};
use o1_vm::{BaselineConfig, BaselineKernel, MemSys, ReclaimPolicy, ThpMode};

use crate::drive::{Workload, CPUS};
use crate::trace::{Op, OpTotals, Span, Traced};

/// A kernel configuration under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// `BaselineKernel`: 4 KiB pages (2 MiB on `sweep`), no reclaim or swap.
    Baseline,
    /// `FomKernel` with `MapMech::PageTables`.
    FomPt,
    /// `FomKernel` with `MapMech::Ranges`.
    FomRanges,
}

impl KernelKind {
    /// Every kernel, in report order.
    pub const ALL: [KernelKind; 3] = [
        KernelKind::Baseline,
        KernelKind::FomPt,
        KernelKind::FomRanges,
    ];

    /// Name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Baseline => "baseline",
            KernelKind::FomPt => "fom_pt",
            KernelKind::FomRanges => "fom_ranges",
        }
    }

    /// Crate whose code runs the kernel's operations.
    pub fn layer(self) -> &'static str {
        match self {
            KernelKind::Baseline => "vm",
            KernelKind::FomPt | KernelKind::FomRanges => "core",
        }
    }
}

/// How a lane runs its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bare kernel, fast-forward on, ledger off: the measured pass.
    Plain,
    /// Wrapped in [`Traced`]: one span per kernel call.
    Traced,
    /// Built with `ObsMode::On`: the cost-attribution ledger runs.
    Ledger,
    /// Fast-forward off: the per-access interpreter, for the output check.
    Interpreter,
}

/// A booted kernel, plain or traced. Each variant is a concrete type,
/// so the drive loop is monomorphic in every mode.
// One instance per lane, matched once per round: the variants' sizes
// do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Instance {
    /// Bare baseline kernel.
    Baseline(BaselineKernel),
    /// Bare file-only-memory kernel.
    Fom(FomKernel),
    /// Traced baseline kernel.
    TracedBaseline(Traced<BaselineKernel>),
    /// Traced file-only-memory kernel.
    TracedFom(Traced<FomKernel>),
}

/// Evaluate `$body` with `$s` bound to the instance's kernel as its
/// concrete type.
macro_rules! with_sys {
    ($inst:expr, $s:ident => $body:expr) => {
        match $inst {
            $crate::kernels::Instance::Baseline($s) => $body,
            $crate::kernels::Instance::Fom($s) => $body,
            $crate::kernels::Instance::TracedBaseline($s) => $body,
            $crate::kernels::Instance::TracedFom($s) => $body,
        }
    };
}
pub(crate) use with_sys;

impl Instance {
    /// Boot `kind` for `workload` in `mode`. Traced instances time
    /// against `epoch` and keep at most `span_cap` raw spans.
    pub fn boot(
        kind: KernelKind,
        workload: Workload,
        mode: Mode,
        epoch: Instant,
        span_cap: usize,
    ) -> Instance {
        let obs = if mode == Mode::Ledger {
            ObsMode::On
        } else {
            ObsMode::Off
        };
        let mut inst = match kind {
            KernelKind::Baseline => Instance::Baseline(
                BaselineKernel::builder()
                    .config(BaselineConfig {
                        dram_bytes: 256 << 20,
                        reclaim: ReclaimPolicy::Clock,
                        low_watermark_frames: 0,
                        swap_enabled: false,
                        // 2 MiB pages on `sweep`, so all three kernels
                        // take the run provers there.
                        thp: if workload == Workload::Sweep {
                            ThpMode::Aligned2M
                        } else {
                            ThpMode::Never
                        },
                        fault_around: 1,
                    })
                    .cpus(CPUS)
                    .obs(obs)
                    .build(),
            ),
            KernelKind::FomPt | KernelKind::FomRanges => Instance::Fom(
                FomKernel::builder()
                    .mech(if kind == KernelKind::FomPt {
                        MapMech::PageTables
                    } else {
                        MapMech::Ranges
                    })
                    .nvm(256 << 20)
                    .cpus(CPUS)
                    .obs(obs)
                    .build(),
            ),
        };
        match mode {
            Mode::Traced => {
                inst = match inst {
                    Instance::Baseline(k) => {
                        Instance::TracedBaseline(Traced::new(k, epoch, span_cap))
                    }
                    Instance::Fom(k) => Instance::TracedFom(Traced::new(k, epoch, span_cap)),
                    traced => traced,
                }
            }
            Mode::Interpreter => with_sys!(&mut inst, s => s.machine_mut().set_fastforward(false)),
            Mode::Plain | Mode::Ledger => {}
        }
        inst
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        with_sys!(self, s => s.machine())
    }

    /// Span totals of kind `op` (zero for untraced instances).
    pub fn totals(&self, op: Op) -> OpTotals {
        match self {
            Instance::TracedBaseline(t) => t.totals(op),
            Instance::TracedFom(t) => t.totals(op),
            Instance::Baseline(_) | Instance::Fom(_) => OpTotals::default(),
        }
    }

    /// Kept raw spans (empty for untraced instances).
    pub fn spans(&self) -> &[Span] {
        match self {
            Instance::TracedBaseline(t) => t.spans(),
            Instance::TracedFom(t) => t.spans(),
            Instance::Baseline(_) | Instance::Fom(_) => &[],
        }
    }
}
