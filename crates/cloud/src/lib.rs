//! # qcs-cloud
//!
//! A discrete-event simulator of a quantum cloud service for the `qcs`
//! study: jobs ([`JobSpec`]) arrive at machines, wait in per-machine
//! [`FairShareQueue`]s (IBM-style dynamic priority), execute under the
//! machine's cost model with fault injection, and leave [`JobRecord`]s.
//! Queue lengths are sampled periodically ([`QueueSample`]).
//!
//! This crate is the substitute for IBM's production cloud in the paper's
//! queuing and execution analyses (Figs 2-4 and 9-14).
//!
//! # Examples
//!
//! ```
//! use qcs_cloud::{CloudConfig, JobSpec, Simulation};
//! use qcs_machine::Fleet;
//!
//! let jobs: Vec<JobSpec> = (0..10)
//!     .map(|i| JobSpec {
//!         id: i, provider: (i % 3) as u32, machine: 1, circuits: 20,
//!         shots: 1024, mean_depth: 15.0, mean_width: 3.0,
//!         submit_s: i as f64, is_study: true, patience_s: f64::INFINITY,
//!     })
//!     .collect();
//! let result = Simulation::new(Fleet::ibm_like(), CloudConfig::default()).run(jobs);
//! assert_eq!(result.records.len(), 10);
//! // Later arrivals on a busy machine wait longer.
//! assert!(result.records.iter().any(|r| r.queue_time_s() > 0.0));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod audit;
mod discipline;
mod fairshare;
mod job;
mod live;
mod outage;
pub mod reference;
mod sim;
mod streaming;

pub use audit::{AuditReport, AuditViolation, Auditor};
pub use discipline::{Discipline, JobQueue};
pub use fairshare::FairShareQueue;
pub use job::{JobOutcome, JobRecord, JobSpec, QueueItem, QueueSample};
pub use live::{JobStatus, LiveCloud, RecordTapFn, SubmitError};
pub use outage::OutagePlan;
pub use sim::{CloudConfig, RecordSink, Simulation, SimulationResult};
pub use streaming::StreamingAggregates;

/// Order-preserving bijection from `f64` to `u64`: the sign-fold of the
/// IEEE bit pattern, so `sign_fold(a).cmp(&sign_fold(b))` equals
/// `a.total_cmp(&b)` (the repo-wide sort convention). The event agenda's
/// packed `(time, seq)` key and the fair-share queue's provider rank both
/// order by it, one integer compare in place of a float chain.
#[inline]
pub(crate) fn sign_fold(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`sign_fold`].
#[inline]
pub(crate) fn sign_unfold(folded: u64) -> f64 {
    let bits = if folded >> 63 == 1 {
        folded & !(1 << 63)
    } else {
        !folded
    };
    f64::from_bits(bits)
}
