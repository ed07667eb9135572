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

/// The day (86 400 s bin) an execution that ended at `end_s` is tallied
/// in: `floor(end_s / 86 400)`, with negative and NaN instants in day 0.
/// The cast computes exactly that for every `f64`: a non-negative value
/// truncates to its floor, negatives, `-0.0` and NaN saturate to 0 and
/// `+inf` to `usize::MAX`, all as `.floor().max(0.0) as usize` does,
/// without the software `floor` an x86-64 baseline build (no SSE4.1)
/// calls. `audit.rs` keeps the `floor` formula as its independent check.
#[inline]
pub(crate) fn day_bin(end_s: f64) -> usize {
    (end_s / 86_400.0) as usize
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

#[cfg(test)]
mod tests {
    use super::day_bin;

    #[test]
    fn day_bin_cast_is_the_floor() {
        let mut instants = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -0.5,
            -86_400.0,
            -86_401.5,
            f64::MAX,
        ];
        for day in [1.0, 2.0, 180.0, 730.0, 1e9, 2f64.powi(52)] {
            let whole = day * 86_400.0;
            instants.extend([whole, whole.next_down(), whole.next_up()]);
        }
        for end_s in instants {
            let floored = (end_s / 86_400.0).floor().max(0.0) as usize;
            assert_eq!(day_bin(end_s), floored, "{end_s:e}");
        }
    }
}
