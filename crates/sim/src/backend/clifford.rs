//! Clifford classification of circuit gates.
//!
//! The stabilizer backend and the dispatcher both need to know, per
//! instruction, whether the gate is a Clifford operation — and if so,
//! which sequence of tableau primitives (H, S, S†, X, Y, Z, CX)
//! implements it. Classification happens at the [`Gate`] level, not on
//! decoded kernels: the transpiler emits rotation gates whose *angles*
//! decide Clifford-ness (`Rz(k·π/2)` is Clifford, `Rz(π/4)` is a T), and
//! the angle is only visible here.
//!
//! Angle matching is exact float equality against `k · FRAC_PI_2` for
//! `k ∈ −8..=8`. That is deliberate, not sloppy: the transpiler's basis
//! pass emits angles that are sums of `f64` multiples of `π/2`
//! (`Rz(φ+π)` etc.), and every such sum rounds to the same double as the
//! directly computed multiple, so exact comparison recognizes exactly
//! the angles that are Clifford by construction. An angle that is merely
//! *close* to `k·π/2` is not a Clifford gate and must not be routed to
//! the tableau — approximate matching would silently change the
//! simulated unitary.

use qcs_circuit::{Gate, Instruction};

/// One tableau primitive. Everything the stabilizer backend executes is
/// a sequence of these (in state-application order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CliffordOp {
    /// Hadamard on a qubit.
    H(usize),
    /// Phase gate S on a qubit.
    S(usize),
    /// S-dagger on a qubit.
    Sdg(usize),
    /// Pauli-X on a qubit.
    X(usize),
    /// Pauli-Y on a qubit.
    Y(usize),
    /// Pauli-Z on a qubit.
    Z(usize),
    /// CNOT `(control, target)`.
    Cx(usize, usize),
}

/// `theta == k * (π/2)` for some integer `k ∈ −8..=8`? Returns
/// `k mod 4 ∈ {0, 1, 2, 3}` (quarter turns). Exact float comparison —
/// see the module docs for why that is the right predicate.
fn quarter_turns(theta: f64) -> Option<u32> {
    for k in -8i32..=8 {
        if theta == f64::from(k) * std::f64::consts::FRAC_PI_2 {
            return Some(k.rem_euclid(4) as u32);
        }
    }
    None
}

/// Append the tableau-primitive sequence of `inst` to `out`, in
/// state-application order. Returns `false` (leaving `out` untouched)
/// when the instruction is not a Clifford operation. `Id`, `Barrier`,
/// and `Measure` classify as Clifford with an empty sequence (they have
/// no state effect during evolution); `Reset` is not Clifford.
pub(crate) fn push_clifford_ops(inst: &Instruction, out: &mut Vec<CliffordOp>) -> bool {
    let q0 = || inst.qubits()[0].index();
    let q1 = || inst.qubits()[1].index();
    match inst.gate {
        Gate::Id | Gate::Barrier | Gate::Measure => true,
        Gate::X => {
            out.push(CliffordOp::X(q0()));
            true
        }
        Gate::Y => {
            out.push(CliffordOp::Y(q0()));
            true
        }
        Gate::Z => {
            out.push(CliffordOp::Z(q0()));
            true
        }
        Gate::H => {
            out.push(CliffordOp::H(q0()));
            true
        }
        Gate::S => {
            out.push(CliffordOp::S(q0()));
            true
        }
        Gate::Sdg => {
            out.push(CliffordOp::Sdg(q0()));
            true
        }
        // Sx = H·S·H exactly (no global phase): conjugating the phase
        // gate with Hadamards turns the Z-axis quarter turn into the
        // X-axis one.
        Gate::Sx => {
            let q = q0();
            out.extend([CliffordOp::H(q), CliffordOp::S(q), CliffordOp::H(q)]);
            true
        }
        Gate::T | Gate::Tdg => false,
        Gate::Rz(t) => match quarter_turns(t) {
            Some(k) => {
                push_z_quarter(k, q0(), out);
                true
            }
            None => false,
        },
        Gate::Rx(t) => match quarter_turns(t) {
            Some(k) => {
                push_x_quarter(k, q0(), out);
                true
            }
            None => false,
        },
        Gate::Ry(t) => match quarter_turns(t) {
            Some(k) => {
                push_y_quarter(k, q0(), out);
                true
            }
            None => false,
        },
        // The transpiler's ZXZXZ identity: U(θ,φ,λ) = Rz(φ+π)·Sx·
        // Rz(θ+π)·Sx·Rz(λ) up to global phase — Clifford iff all three
        // Rz angles are quarter turns. The sums are computed exactly as
        // the basis pass computes them, so the match is faithful.
        Gate::U(t, p, l) => {
            let pi = std::f64::consts::PI;
            match (quarter_turns(l), quarter_turns(t + pi), quarter_turns(p + pi)) {
                (Some(kl), Some(kt), Some(kp)) => {
                    let q = q0();
                    push_z_quarter(kl, q, out);
                    out.extend([CliffordOp::H(q), CliffordOp::S(q), CliffordOp::H(q)]);
                    push_z_quarter(kt, q, out);
                    out.extend([CliffordOp::H(q), CliffordOp::S(q), CliffordOp::H(q)]);
                    push_z_quarter(kp, q, out);
                    true
                }
                _ => false,
            }
        }
        Gate::Cx => {
            out.push(CliffordOp::Cx(q0(), q1()));
            true
        }
        // CZ = (I⊗H)·CX·(I⊗H).
        Gate::Cz => {
            let (c, t) = (q0(), q1());
            out.extend([CliffordOp::H(t), CliffordOp::Cx(c, t), CliffordOp::H(t)]);
            true
        }
        // Controlled phase is Clifford only at the CZ angle (π mod 2π);
        // Cp(±π/2) is a controlled-S, which is *not* Clifford.
        Gate::Cp(t) => match quarter_turns(t) {
            Some(0) => true,
            Some(2) => {
                let (c, t) = (q0(), q1());
                out.extend([CliffordOp::H(t), CliffordOp::Cx(c, t), CliffordOp::H(t)]);
                true
            }
            _ => false,
        },
        Gate::Swap => {
            let (a, b) = (q0(), q1());
            out.extend([
                CliffordOp::Cx(a, b),
                CliffordOp::Cx(b, a),
                CliffordOp::Cx(a, b),
            ]);
            true
        }
        Gate::Reset => false,
    }
}

/// Rz by `k` quarter turns: I, S, Z, S† (global phase dropped).
fn push_z_quarter(k: u32, q: usize, out: &mut Vec<CliffordOp>) {
    match k {
        0 => {}
        1 => out.push(CliffordOp::S(q)),
        2 => out.push(CliffordOp::Z(q)),
        _ => out.push(CliffordOp::Sdg(q)),
    }
}

/// Rx by `k` quarter turns: I, Sx, X, Sx† — with Sx = H·S·H and
/// Sx† = H·S†·H.
fn push_x_quarter(k: u32, q: usize, out: &mut Vec<CliffordOp>) {
    match k {
        0 => {}
        1 => out.extend([CliffordOp::H(q), CliffordOp::S(q), CliffordOp::H(q)]),
        2 => out.push(CliffordOp::X(q)),
        _ => out.extend([CliffordOp::H(q), CliffordOp::Sdg(q), CliffordOp::H(q)]),
    }
}

/// Ry by `k` quarter turns: I, H·Z (as a matrix product, i.e. apply Z
/// then H), Y, Z·H (apply H then Z).
fn push_y_quarter(k: u32, q: usize, out: &mut Vec<CliffordOp>) {
    match k {
        0 => {}
        1 => out.extend([CliffordOp::Z(q), CliffordOp::H(q)]),
        2 => out.push(CliffordOp::Y(q)),
        _ => out.extend([CliffordOp::H(q), CliffordOp::Z(q)]),
    }
}

/// Whether `inst` branches a computational-basis state into a
/// superposition. Diagonal gates and basis permutations (X, Y, CX, CZ,
/// Swap, all phase gates) never branch; for Clifford-classifiable gates
/// branching is exactly "the primitive sequence contains an H"; the
/// remaining non-Clifford gates are diagonal (T, Rz, Cp — never branch)
/// or generic rotations (Rx, Ry, U — counted as branching). The sparse
/// dispatcher sums these to bound the reachable support:
/// `|support| ≤ 2^(branching gates)`.
pub(crate) fn branches(inst: &Instruction, scratch: &mut Vec<CliffordOp>) -> bool {
    scratch.clear();
    if push_clifford_ops(inst, scratch) {
        return scratch.iter().any(|op| matches!(op, CliffordOp::H(_)));
    }
    !matches!(inst.gate, Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::Cp(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::Qubit;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn gate1(gate: Gate) -> Instruction {
        Instruction::gate(gate, &[Qubit(0)])
    }

    #[test]
    fn quarter_turn_matching_is_exact() {
        assert_eq!(quarter_turns(0.0), Some(0));
        assert_eq!(quarter_turns(FRAC_PI_2), Some(1));
        assert_eq!(quarter_turns(PI), Some(2));
        assert_eq!(quarter_turns(-FRAC_PI_2), Some(3));
        assert_eq!(quarter_turns(3.0 * FRAC_PI_2), Some(3));
        // Sums the transpiler emits (φ + π with φ itself a multiple).
        assert_eq!(quarter_turns(FRAC_PI_2 + PI), Some(3));
        assert_eq!(quarter_turns(-FRAC_PI_2 + PI), Some(1));
        // Near-misses are not Clifford.
        assert_eq!(quarter_turns(FRAC_PI_4), None);
        assert_eq!(quarter_turns(FRAC_PI_2 + 1e-12), None);
    }

    #[test]
    fn clifford_gates_classify_and_t_does_not() {
        let mut ops = Vec::new();
        for gate in [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::Sx,
            Gate::Rz(FRAC_PI_2),
            Gate::Rx(PI),
            Gate::Ry(-FRAC_PI_2),
        ] {
            ops.clear();
            assert!(push_clifford_ops(&gate1(gate), &mut ops), "{gate:?}");
        }
        for gate in [Gate::T, Gate::Tdg, Gate::Rz(FRAC_PI_4)] {
            ops.clear();
            assert!(!push_clifford_ops(&gate1(gate), &mut ops), "{gate:?}");
            assert!(ops.is_empty(), "non-Clifford must not emit ops");
        }
        // Controlled-S (Cp at π/2) is not Clifford; CZ (Cp at π) is.
        let cs = Instruction::gate(Gate::Cp(FRAC_PI_2), &[Qubit(0), Qubit(1)]);
        ops.clear();
        assert!(!push_clifford_ops(&cs, &mut ops));
        assert!(ops.is_empty(), "non-Clifford must not emit ops");
        let cz = Instruction::gate(Gate::Cp(PI), &[Qubit(0), Qubit(1)]);
        assert!(push_clifford_ops(&cz, &mut ops));
    }

    #[test]
    fn branching_classification() {
        let mut scratch = Vec::new();
        assert!(branches(&gate1(Gate::H), &mut scratch));
        assert!(branches(&gate1(Gate::Sx), &mut scratch));
        assert!(branches(&gate1(Gate::Ry(0.3)), &mut scratch));
        assert!(!branches(&gate1(Gate::X), &mut scratch));
        assert!(!branches(&gate1(Gate::Y), &mut scratch));
        assert!(!branches(&gate1(Gate::T), &mut scratch));
        assert!(!branches(&gate1(Gate::Rz(0.3)), &mut scratch));
        let cx = Instruction::gate(Gate::Cx, &[Qubit(0), Qubit(1)]);
        assert!(!branches(&cx, &mut scratch));
    }
}
