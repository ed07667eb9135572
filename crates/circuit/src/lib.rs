//! # qcs-circuit
//!
//! Quantum circuit intermediate representation for the `qcs` quantum-cloud
//! study: a gate set, an instruction stream [`Circuit`] container,
//! structural metrics ([`CircuitMetrics`]), a benchmark-circuit
//! [`library`], and OpenQASM 2.0 serialization ([`qasm`]).
//!
//! This crate is the bottom of the circuit stack, below everything but
//! the calibration model its gate durations read
//! ([`Gate::duration_ns`]): the transpiler rewrites these circuits, the
//! simulator executes them, and the workload crate sizes trace jobs from
//! them.
//!
//! # Examples
//!
//! ```
//! use qcs_circuit::{library, CircuitMetrics};
//!
//! let qft = library::qft(8);
//! let metrics = CircuitMetrics::of(&qft);
//! assert_eq!(metrics.width, 8);
//! assert_eq!(metrics.cx_total, 8 * 7 / 2 + 4);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod circuit;
mod gate;
mod instruction;
pub mod library;
mod metrics;
pub mod qasm;

pub use circuit::{Circuit, CircuitError};
pub use gate::{Gate, Params};
pub use instruction::{Clbit, Instruction, Qubit};
pub use metrics::CircuitMetrics;
