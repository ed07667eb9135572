//! # qcs-workload
//!
//! Synthetic multi-year quantum-cloud workload generation for the `qcs`
//! study: background demand calibrated to per-machine utilization targets
//! (with growth, diurnal and weekly cycles), plus an instrumented set of
//! *study jobs* whose width and mean depth derive from real benchmark
//! circuits. Feed the output of [`generate`] into
//! [`qcs_cloud::Simulation`].
//!
//! # Examples
//!
//! ```
//! use qcs_cloud::{CloudConfig, Simulation};
//! use qcs_machine::Fleet;
//! use qcs_workload::{generate, WorkloadConfig};
//!
//! let fleet = Fleet::ibm_like();
//! let workload = generate(&fleet, &WorkloadConfig::smoke());
//! let result = Simulation::new(fleet, CloudConfig::default()).run(workload.jobs);
//! assert!(result.total_jobs > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod generator;
pub mod ingest;
pub mod population;
pub mod sampler;

pub use generator::{generate, Workload, WorkloadConfig};
pub use ingest::{read_trace, IngestedTrace, INGEST_HEADER};
pub use population::{PopulationConfig, PopulationTrace};
