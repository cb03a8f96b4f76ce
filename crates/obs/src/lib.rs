//! # o1-obs — deterministic cost-attribution ledger
//!
//! Every figure in *Towards O(1) Memory* is, by construction,
//! *operation counts × unit costs*. This crate makes that decomposition
//! a first-class, verifiable artifact instead of a claim:
//!
//! * [`CostKind`] tags every primitive the simulated machine charges,
//!   and documents what each one is; [`CostModel`] prices each kind
//!   once, in one table indexed by kind, and [`Subsystem`] groups
//!   kinds the way DESIGN.md groups that table;
//! * [`MachineTrace`] is the per-machine ledger: simulated nanoseconds
//!   aggregated by `(phase label, cost kind)`, plus the phase spans
//!   themselves. Because it observes every clock advance (each one a
//!   `Machine::charge_kind`/`charge_opn` at a table price), the
//!   ledger *conserves time*: the sum of its entries equals the
//!   simulated-clock delta, checked by [`conservation_errors`] and
//!   enforced as a test across the whole figure suite;
//! * a scoped, thread-local [`RunContext`] carries a run's settings
//!   (collect ledgers or not, the timeline interval, fast-forward) to
//!   every machine built inside it and gathers the ledgers those
//!   machines flush, so the figure runner configures and attributes
//!   whole experiments without changing a single figure-function
//!   signature;
//! * [`export_jsonl`] and [`export_chrome_trace`] stream traces into a
//!   [`std::fmt::Write`] sink, byte-identical across runs and threads;
//!   a Chrome span's args are its machine's whole-run per-kind totals
//!   for the span's phase, the same on every span of that phase;
//! * every top-level kernel operation additionally records its
//!   simulated latency into an integer-only, log-bucketed
//!   [`Histogram`] keyed by `(phase, [`OpKind`], mechanism)`, merged
//!   per figure by [`latency_rows`] — the tail-latency view
//!   (`figures --latency`) that means can never show;
//! * [`TimelineSampler`] records gauge readings (TLB occupancy, live
//!   ASIDs, DRAM-pool bytes, …) against the *simulated* clock into
//!   order-independent, mergeable [`GaugeSeries`] — the temporal view
//!   (`figures --timeline`), off unless the run context's
//!   `timeline_ns` arms it;
//! * [`hostmem`] counts the harness's own heap through a wrapping
//!   `#[global_allocator]`, so the O(1)-host-metadata claim is a
//!   measured number ([`HostMemSnapshot`], `fig_hostmem`) instead of
//!   prose.
//!
//! The ledger is strictly opt-in: a machine built outside a
//! collecting run (and not forced on) carries no ledger at all,
//! records nothing, allocates nothing, and emits nothing.
//!
//! [`CostModel`]: https://docs.rs/o1-hw

mod collect;
mod export;
mod hist;
pub mod hostmem;
mod kind;
mod ledger;
mod timeline;

pub use collect::{run_context, submit, with_run_context, RunContext};
pub use export::{
    export_chrome_trace, export_jsonl, export_timeline_chrome, export_timeline_jsonl, json_escape,
};
pub use hist::{Histogram, OpKind};
pub use hostmem::HostMemSnapshot;
pub use kind::{CostKind, Subsystem};
pub use ledger::{
    attribute, conservation_errors, latency_rows, Attribution, FigureTrace, LatencyRow,
    MachineReport, MachineTrace, OpRow, PhaseSpan, TraceRow, INITIAL_PHASE,
};
pub use timeline::{merge_series, GaugeSeries, TimelineSampler};
