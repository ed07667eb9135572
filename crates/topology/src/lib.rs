//! # qcs-topology
//!
//! Qubit coupling topologies for the `qcs` quantum-cloud study: the
//! [`CouplingGraph`] type with shortest-path machinery, generators for the
//! topology [`families`] used by IBM-style machines (linear, T, bowtie,
//! heavy-hex, ...), and the [`bisection_bandwidth`] computation behind the
//! paper's Fig 6 connectivity analysis.
//!
//! # Examples
//!
//! ```
//! use qcs_topology::{bisection_bandwidth, families};
//!
//! let manhattan = families::ibm_hummingbird_65q();
//! assert_eq!(manhattan.num_qubits(), 65);
//! assert_eq!(bisection_bandwidth(&manhattan), 3); // paper Fig 6
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod bisection;
pub mod families;
mod graph;

pub use bisection::bisection_bandwidth;
pub use graph::CouplingGraph;
