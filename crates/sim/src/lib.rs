//! # qcs-sim
//!
//! Quantum circuit simulation for the `qcs` quantum-cloud study: an ideal
//! [`Statevector`] engine, measurement [`Counts`], and a calibration-driven
//! Monte-Carlo [`NoisySimulator`] that substitutes for real-hardware
//! execution in the paper's fidelity experiments (Fig 7).
//!
//! # Examples
//!
//! ```
//! use qcs_calibration::NoiseProfile;
//! use qcs_sim::{probability_of_success, qft_pos_circuit, NoisySimulator};
//! use qcs_topology::families;
//!
//! let circuit = qft_pos_circuit(3);
//! let snapshot = NoiseProfile::with_seed(1).snapshot(&families::complete(3), 0);
//! let counts = NoisySimulator::with_seed(7).run(&circuit, &snapshot, 1024)?;
//! let pos = probability_of_success(&counts, 0);
//! assert!(pos > 0.5); // mild noise, small circuit
//! # Ok::<(), qcs_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// The one exception is `frame`: the call of an AVX2 clone behind a CPU
// probe (DESIGN.md §4g).
#![deny(unsafe_code)]

pub mod backend;
mod complex;
mod counts;
mod equivalence;
#[allow(unsafe_code)]
mod frame;
pub mod fusion;
mod noisy;
mod statevector;
mod support;

pub use backend::{
    sparse_amplitudes, BackendChoice, BackendDispatcher, BackendKind, CircuitProfile, MAX_CLBITS,
    SPARSE_MAX_AMPS, SPARSE_MAX_QUBITS, STABILIZER_MAX_QUBITS,
};
pub use complex::Complex;
pub use equivalence::equivalent_unitaries;
pub use counts::Counts;
pub use fusion::CompiledCircuit;
pub use frame::SvExec;
pub use noisy::{
    clbit_distribution, clifford_pos_circuit, measurement_map, probability_of_success,
    qft_pos_circuit, used_clbit_width, NoisySimulator, DENSE_DISTRIBUTION_MAX_WIDTH,
};
pub use statevector::{CdfSampler, SimError, Statevector, DENSE_MAX_QUBITS};
