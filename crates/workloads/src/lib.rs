//! # o1-workloads — workload generators and drivers
//!
//! Deterministic, seeded workloads that run identically against the
//! baseline kernel and the file-only-memory kernel through the
//! [`o1_vm::MemSys`] trait: access patterns ([`patterns`], including
//! the paper's one-byte-per-page loop and Zipf-skewed sparse access),
//! allocation/churn and process-launch drivers ([`drivers`]), and a
//! constant-time Zipf sampler ([`zipf`]).

pub mod drivers;
pub mod patterns;
pub mod trace;
pub mod zipf;

pub use drivers::{
    drive_access, drive_alloc, drive_churn, drive_launch_storm, drive_service_fleet, measure,
    FleetReport, Measurement, Storm,
};
pub use patterns::AccessPattern;
pub use trace::{Trace, TraceOp};
pub use zipf::Zipf;
