//! The gate set understood by the rest of the system.
//!
//! The set mirrors the gates that appear in NISQ-era assembly: the IBM basis
//! gates (`id`, `rz`, `sx`, `x`, `cx`), the common named Clifford+T gates
//! used when authoring circuits, parametric rotations, and the non-unitary
//! `measure` / `reset` / `barrier` directives.

use std::f64::consts::PI;
use std::fmt;
use std::ops::Deref;

use qcs_calibration::{CalibrationSnapshot, DEFAULT_CX_NS, MEASURE_NS, RESET_NS, SINGLE_QUBIT_NS};

use crate::Qubit;

/// A quantum gate or circuit directive.
///
/// Gates carry their continuous parameters inline (e.g. [`Gate::Rz`] holds
/// its rotation angle) so an instruction stream is fully self-describing.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Gate;
///
/// let g = Gate::Rz(std::f64::consts::PI);
/// assert_eq!(g.num_qubits(), 1);
/// assert!(g.is_unitary());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    Id,
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = sqrt(Z).
    S,
    /// S-dagger.
    Sdg,
    /// T = fourth root of Z.
    T,
    /// T-dagger.
    Tdg,
    /// Square root of X (an IBM basis gate).
    Sx,
    /// Rotation about X by the given angle (radians).
    Rx(f64),
    /// Rotation about Y by the given angle (radians).
    Ry(f64),
    /// Rotation about Z by the given angle (radians).
    Rz(f64),
    /// Generic single-qubit unitary U(theta, phi, lambda) in the OpenQASM
    /// convention.
    U(f64, f64, f64),
    /// Controlled-phase by the given angle (radians).
    Cp(f64),
    /// Controlled-X (CNOT). Qubit order is `[control, target]`.
    Cx,
    /// Controlled-Z.
    Cz,
    /// Logical swap of two qubit states.
    Swap,
    /// Projective measurement into a classical bit.
    Measure,
    /// Reset a qubit to |0>.
    Reset,
    /// Scheduling barrier; acts on any number of qubits, no effect on state.
    Barrier,
}

impl Gate {
    /// Number of qubits the gate acts on.
    ///
    /// [`Gate::Barrier`] conceptually spans a variable number of qubits; the
    /// instruction that carries it decides. This method reports `1` for it
    /// as the minimum.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::Cx | Gate::Cz | Gate::Swap | Gate::Cp(_) => 2,
            _ => 1,
        }
    }

    /// Whether the gate is a two-qubit entangling operation.
    ///
    /// Two-qubit gates dominate both error and duration on superconducting
    /// hardware, which is why the paper's fidelity metrics (CX-depth,
    /// CX-total) count exactly these.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        self.num_qubits() == 2
    }

    /// Whether the gate is a unitary operation (as opposed to measurement,
    /// reset, or a barrier directive).
    #[must_use]
    pub fn is_unitary(&self) -> bool {
        !matches!(self, Gate::Measure | Gate::Reset | Gate::Barrier)
    }

    /// Whether the gate is a pure directive with no effect on quantum state.
    #[must_use]
    pub fn is_directive(&self) -> bool {
        matches!(self, Gate::Barrier)
    }

    /// Nominal duration of this gate on `qubits` under `snapshot`,
    /// nanoseconds: the fleet's one pulse-duration policy, which the
    /// transpiler schedules with and the simulator sizes decoherence
    /// windows by. `rz` is virtual (a frame change), and barriers and `id`
    /// take no time. A two-qubit gate takes its edge's calibrated CX
    /// duration ([`DEFAULT_CX_NS`] on an uncalibrated edge), and a SWAP is
    /// three CX pulses back to back. Measurement and reset take
    /// [`MEASURE_NS`] and [`RESET_NS`]; every other gate is one
    /// [`SINGLE_QUBIT_NS`] pulse.
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit gate is given fewer than two qubits.
    #[must_use]
    pub fn duration_ns(&self, qubits: &[Qubit], snapshot: &CalibrationSnapshot) -> f64 {
        match self {
            Gate::Barrier | Gate::Id | Gate::Rz(_) => 0.0,
            Gate::Measure => MEASURE_NS,
            Gate::Reset => RESET_NS,
            g if g.is_two_qubit() => {
                let cx_ns = snapshot
                    .edge(qubits[0].index(), qubits[1].index())
                    .map_or(DEFAULT_CX_NS, |e| e.cx_duration_ns);
                if *g == Gate::Swap {
                    3.0 * cx_ns
                } else {
                    cx_ns
                }
            }
            _ => SINGLE_QUBIT_NS,
        }
    }

    /// The lowercase OpenQASM-style mnemonic for this gate.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Gate::Id => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U(..) => "u",
            Gate::Cp(_) => "cp",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::Measure => "measure",
            Gate::Reset => "reset",
            Gate::Barrier => "barrier",
        }
    }

    /// The inverse gate, if the gate is unitary.
    ///
    /// Returns `None` for non-unitary directives.
    #[must_use]
    pub fn inverse(&self) -> Option<Gate> {
        Some(match self {
            Gate::Id => Gate::Id,
            Gate::X => Gate::X,
            Gate::Y => Gate::Y,
            Gate::Z => Gate::Z,
            Gate::H => Gate::H,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::U(-PI / 2.0, -PI / 2.0, PI / 2.0),
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::U(t, p, l) => Gate::U(-t, -l, -p),
            Gate::Cp(t) => Gate::Cp(-t),
            Gate::Cx => Gate::Cx,
            Gate::Cz => Gate::Cz,
            Gate::Swap => Gate::Swap,
            Gate::Measure | Gate::Reset | Gate::Barrier => return None,
        })
    }

    /// Whether this gate is self-inverse (its own inverse).
    #[must_use]
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::Id | Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::Cx | Gate::Cz | Gate::Swap
        )
    }

    /// Whether the gate is diagonal in the computational basis (commutes
    /// with other diagonal gates and with the control side of a CX).
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Id | Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_)
                | Gate::Cz
                | Gate::Cp(_)
        )
    }

    /// The continuous parameters of the gate, in declaration order.
    #[must_use]
    pub fn params(&self) -> Params {
        let (values, len) = match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Cp(t) => ([t, 0.0, 0.0], 1),
            Gate::U(t, p, l) => ([t, p, l], 3),
            _ => ([0.0; 3], 0),
        };
        Params { values, len }
    }
}

/// A gate's continuous parameters ([`Gate::params`]), held inline: no gate
/// has more than three. Derefs to the parameter slice.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Gate;
///
/// assert_eq!(*Gate::U(0.1, 0.2, 0.3).params(), [0.1, 0.2, 0.3]);
/// assert!(Gate::H.params().is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Params {
    values: [f64; 3],
    len: usize,
}

impl Deref for Params {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        write!(f, "{}", self.name())?;
        for (i, p) in params.iter().enumerate() {
            write!(f, "{}{p:.6}", if i == 0 { "(" } else { "," })?;
        }
        if params.is_empty() {
            Ok(())
        } else {
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_policy_charges_each_gate_class() {
        use qcs_calibration::{EdgeCalibration, QubitCalibration};
        let qubit = QubitCalibration {
            t1_us: 100.0,
            t2_us: 100.0,
            single_qubit_error: 0.0,
            readout_error: 0.0,
        };
        let edge = EdgeCalibration {
            cx_error: 0.0,
            cx_duration_ns: 400.0,
        };
        let snapshot = CalibrationSnapshot::new(0, vec![qubit; 3], [((0, 1), edge)].into());
        let ns = |gate: Gate, qubits: &[u32]| {
            let qubits: Vec<Qubit> = qubits.iter().copied().map(Qubit).collect();
            gate.duration_ns(&qubits, &snapshot)
        };
        for free in [Gate::Rz(0.3), Gate::Id, Gate::Barrier] {
            assert_eq!(ns(free, &[0]), 0.0, "{free:?}");
        }
        assert_eq!(ns(Gate::X, &[0]), SINGLE_QUBIT_NS);
        assert_eq!(ns(Gate::Measure, &[0]), MEASURE_NS);
        assert_eq!(ns(Gate::Reset, &[0]), RESET_NS);
        assert_eq!(ns(Gate::Cx, &[1, 0]), 400.0);
        assert_eq!(ns(Gate::Cx, &[1, 2]), DEFAULT_CX_NS, "uncalibrated edge");
        assert_eq!(ns(Gate::Swap, &[0, 1]), 1200.0, "three CX pulses");
    }

    #[test]
    fn arity_matches_kind() {
        assert_eq!(Gate::H.num_qubits(), 1);
        assert_eq!(Gate::Cx.num_qubits(), 2);
        assert_eq!(Gate::Swap.num_qubits(), 2);
        assert_eq!(Gate::Cp(0.5).num_qubits(), 2);
        assert!(Gate::Cx.is_two_qubit());
        assert!(!Gate::Rz(1.0).is_two_qubit());
    }

    #[test]
    fn unitary_classification() {
        assert!(Gate::H.is_unitary());
        assert!(!Gate::Measure.is_unitary());
        assert!(!Gate::Reset.is_unitary());
        assert!(!Gate::Barrier.is_unitary());
        assert!(Gate::Barrier.is_directive());
    }

    #[test]
    fn inverse_round_trips() {
        for g in [Gate::S, Gate::T, Gate::Rx(0.7), Gate::Rz(-1.2), Gate::Cp(0.3)] {
            let inv = g.inverse().unwrap();
            let back = inv.inverse().unwrap();
            assert_eq!(g, back, "double inverse of {g:?}");
        }
    }

    #[test]
    fn self_inverse_gates_are_their_own_inverse() {
        for g in [Gate::X, Gate::Y, Gate::Z, Gate::H, Gate::Cx, Gate::Cz, Gate::Swap] {
            assert!(g.is_self_inverse());
            assert_eq!(g.inverse(), Some(g));
        }
    }

    #[test]
    fn measure_has_no_inverse() {
        assert_eq!(Gate::Measure.inverse(), None);
        assert_eq!(Gate::Barrier.inverse(), None);
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(1.5).to_string().starts_with("rz(1.5"));
        assert_eq!(Gate::U(0.0, 0.0, 0.0).params().len(), 3);
    }

    #[test]
    fn diagonal_gates() {
        assert!(Gate::Rz(0.2).is_diagonal());
        assert!(Gate::Cz.is_diagonal());
        assert!(!Gate::H.is_diagonal());
        assert!(!Gate::Cx.is_diagonal());
    }
}
