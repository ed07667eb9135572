//! # qcs — Quantum Cloud Study
//!
//! A full-system Rust reproduction of *"Quantum Computing in the Cloud:
//! Analyzing job and machine characteristics"* (IISWC 2021): a quantum
//! circuit IR and transpiler, an IBM-like 25-machine fleet with a
//! calibration/drift model, a noisy statevector simulator, a discrete-event
//! cloud simulator with fair-share queuing, a calibrated two-year workload
//! generator, and the statistics/prediction machinery behind every figure
//! in the paper's evaluation.
//!
//! The crates re-exported here can be used individually; this facade adds
//! the end-to-end [`Study`] runner and the standalone figure
//! [`experiments`].
//!
//! # Examples
//!
//! ```
//! use qcs::{Study, StudyConfig};
//!
//! let study = Study::run(&StudyConfig::smoke());
//! let (completed, errored, cancelled) = study.outcome_fractions();
//! assert!(completed > 0.8);
//! assert!(errored + cancelled > 0.0); // ~5% wasted executions (Fig 2b)
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod experiments;
mod study;

pub use qcs_exec::ExecConfig;
pub use study::{Study, StudyConfig};

pub use qcs_calibration as calibration;
pub use qcs_circuit as circuit;
pub use qcs_cloud as cloud;
pub use qcs_exec as exec;
pub use qcs_gateway as gateway;
pub use qcs_machine as machine;
pub use qcs_predictor as predictor;
pub use qcs_sim as sim;
pub use qcs_stats as stats;
pub use qcs_topology as topology;
pub use qcs_transpiler as transpiler;
pub use qcs_workload as workload;

/// The chaos proxy's fault roll from `tests/support/wire_fault.rs`,
/// unit-tested here; only the proxy reads `FaultRates::stall`.
#[cfg(test)]
#[allow(dead_code)]
mod fault {
    include!("../tests/support/wire_fault.rs");

    mod tests;
}
