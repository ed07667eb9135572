//! # qcs-machine
//!
//! Quantum machine models for the `qcs` quantum-cloud study: a [`Machine`]
//! combines a coupling topology, a calibration noise profile and schedule,
//! an execution cost model, and a cloud access class. [`Fleet::ibm_like`]
//! constructs the 25-machine IBM-like fleet (1–65 qubits) the study runs
//! against.
//!
//! # Examples
//!
//! ```
//! use qcs_machine::Fleet;
//!
//! let fleet = Fleet::ibm_like();
//! let sizes: Vec<usize> = fleet.iter().map(|m| m.num_qubits()).collect();
//! assert_eq!(sizes.iter().max(), Some(&65));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod fleet;
mod machine;

pub use fleet::Fleet;
pub use machine::{Access, ExecutionCostModel, Generation, Machine};
