//! # qcs-workload
//!
//! Synthetic multi-year quantum-cloud workload generation for the `qcs`
//! study: background demand calibrated to per-machine utilization targets
//! (with growth, diurnal and weekly cycles), plus an instrumented set of
//! *study jobs* whose width and mean depth derive from real benchmark
//! circuits.
//!
//! The generator streams: [`stream`] yields the trace in `(submit_s, id)`
//! order an hour at a time, holding one hour of the fleet's background
//! jobs (every machine draws the hour into one buffer, sorted once) and
//! the study jobs, and [`generate`] collects that stream into a `Vec`.
//! Provider ids come from one [`sampler::ZipfProviders`] table per trace.
//! Feed the stream to [`qcs_cloud::Simulation::run_in_order`], which
//! pulls jobs as its clock reaches them, so the trace is never held
//! whole.
//!
//! # Examples
//!
//! ```
//! use qcs_cloud::{CloudConfig, Simulation};
//! use qcs_machine::Fleet;
//! use qcs_workload::{stream, WorkloadConfig};
//!
//! let fleet = Fleet::ibm_like();
//! let jobs = stream(&fleet, &WorkloadConfig::smoke());
//! let result = Simulation::new(fleet.clone(), CloudConfig::default()).run_in_order(jobs);
//! assert!(result.total_jobs > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod generator;
pub mod ingest;
pub mod population;
pub mod sampler;

pub use generator::{generate, stream, Workload, WorkloadConfig};
pub use ingest::{read_trace, write_trace, IngestedTrace, TraceError, INGEST_HEADER};
pub use population::{PopulationConfig, PopulationTrace};

#[cfg(test)]
mod trace;
