//! Basis translation: rewriting arbitrary gates into the IBM-style basis
//! `{rz, sx, x, cx}` (plus measure/reset/barrier).
//!
//! All decompositions are exact up to global phase; the simulator crate's
//! equivalence tests validate them against the statevector semantics.

use std::f64::consts::PI;

use qcs_circuit::{Circuit, Gate, Instruction, Qubit};

/// Whether `gate` is already a basis gate.
#[must_use]
pub fn is_basis_gate(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::Id
            | Gate::Rz(_)
            | Gate::Sx
            | Gate::X
            | Gate::Cx
            | Gate::Measure
            | Gate::Reset
            | Gate::Barrier
    )
}

/// Translate a circuit into the basis gate set.
///
/// Two-qubit gates become CX-based networks first (`swap` → 3 CX, `cz` and
/// `cp` → CX + single-qubit phases), then remaining single-qubit gates
/// become `rz`/`sx`/`x` sequences via the standard ZSXZSXZ decomposition.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Circuit;
/// use qcs_transpiler::basis::{is_basis_gate, translate_to_basis};
///
/// let mut c = Circuit::new(2);
/// c.h(0).swap(0, 1);
/// let out = translate_to_basis(&c);
/// assert!(out.instructions().iter().all(|i| is_basis_gate(&i.gate)));
/// assert_eq!(out.cx_count(), 3); // the swap
/// ```
#[must_use]
pub fn translate_to_basis(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for inst in circuit.instructions() {
        emit(&mut out, inst);
    }
    out
}

fn emit(out: &mut Circuit, inst: &Instruction) {
    let qs = inst.qubits();
    match inst.gate {
        // Drop identity rotations even though rz is a basis gate.
        Gate::Rz(theta) => push_rz(out, qs[0], theta),
        g if is_basis_gate(&g) => {
            out.push(inst.clone());
        }
        // --- single-qubit rewrites -----------------------------------
        Gate::Z => push_rz(out, qs[0], PI),
        Gate::S => push_rz(out, qs[0], PI / 2.0),
        Gate::Sdg => push_rz(out, qs[0], -PI / 2.0),
        Gate::T => push_rz(out, qs[0], PI / 4.0),
        Gate::Tdg => push_rz(out, qs[0], -PI / 4.0),
        Gate::H => {
            // H = e^{i.} Rz(pi/2) Sx Rz(pi/2)
            push_rz(out, qs[0], PI / 2.0);
            push_1q(out, Gate::Sx, qs[0]);
            push_rz(out, qs[0], PI / 2.0);
        }
        Gate::Y => {
            // Y = i X Z: apply Z then X (global phase dropped).
            push_rz(out, qs[0], PI);
            push_1q(out, Gate::X, qs[0]);
        }
        Gate::Rx(theta) => emit_u(out, qs[0], theta, -PI / 2.0, PI / 2.0),
        Gate::Ry(theta) => emit_u(out, qs[0], theta, 0.0, 0.0),
        Gate::U(theta, phi, lambda) => emit_u(out, qs[0], theta, phi, lambda),
        // --- two-qubit rewrites --------------------------------------
        Gate::Cz => {
            // CZ = (I x H) CX (I x H)
            emit(out, &Instruction::gate(Gate::H, &[qs[1]]));
            push_cx(out, qs[0], qs[1]);
            emit(out, &Instruction::gate(Gate::H, &[qs[1]]));
        }
        Gate::Cp(lambda) => {
            // cp(l) = rz(l/2) on control; cx; rz(-l/2) target; cx; rz(l/2) target
            push_rz(out, qs[0], lambda / 2.0);
            push_cx(out, qs[0], qs[1]);
            push_rz(out, qs[1], -lambda / 2.0);
            push_cx(out, qs[0], qs[1]);
            push_rz(out, qs[1], lambda / 2.0);
        }
        Gate::Swap => {
            push_cx(out, qs[0], qs[1]);
            push_cx(out, qs[1], qs[0]);
            push_cx(out, qs[0], qs[1]);
        }
        ref g => unreachable!("gate {g:?} not covered by basis translation"),
    }
}

/// U(theta, phi, lambda) = Rz(phi + pi) Sx Rz(theta + pi) Sx Rz(lambda),
/// emitted in circuit (application) order.
fn emit_u(out: &mut Circuit, q: Qubit, theta: f64, phi: f64, lambda: f64) {
    push_rz(out, q, lambda);
    push_1q(out, Gate::Sx, q);
    push_rz(out, q, theta + PI);
    push_1q(out, Gate::Sx, q);
    push_rz(out, q, phi + PI);
}

fn push_rz(out: &mut Circuit, q: Qubit, theta: f64) {
    // Skip angles that are multiples of 2*pi.
    let reduced = theta.rem_euclid(2.0 * PI);
    if reduced.abs() > 1e-12 && (reduced - 2.0 * PI).abs() > 1e-12 {
        out.push(Instruction::gate(Gate::Rz(theta), &[q]));
    }
}

fn push_1q(out: &mut Circuit, gate: Gate, q: Qubit) {
    out.push(Instruction::gate(gate, &[q]));
}

fn push_cx(out: &mut Circuit, control: Qubit, target: Qubit) {
    out.push(Instruction::gate(Gate::Cx, &[control, target]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;

    fn all_basis(c: &Circuit) -> bool {
        c.instructions().iter().all(|i| is_basis_gate(&i.gate))
    }

    #[test]
    fn named_gates_translate() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).t(1).z(1).y(0);
        let out = translate_to_basis(&c);
        assert!(all_basis(&out));
        assert_eq!(out.cx_count(), 0);
    }

    #[test]
    fn swap_is_three_cx() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let out = translate_to_basis(&c);
        assert_eq!(out.cx_count(), 3);
        assert!(all_basis(&out));
    }

    #[test]
    fn cz_is_one_cx() {
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let out = translate_to_basis(&c);
        assert_eq!(out.cx_count(), 1);
        assert!(all_basis(&out));
    }

    #[test]
    fn cp_is_two_cx() {
        let mut c = Circuit::new(2);
        c.cp(0.7, 0, 1);
        let out = translate_to_basis(&c);
        assert_eq!(out.cx_count(), 2);
        assert!(all_basis(&out));
    }

    #[test]
    fn qft_translates_fully() {
        let c = library::qft(5);
        let out = translate_to_basis(&c);
        assert!(all_basis(&out));
        // Each cp -> 2 cx, each swap -> 3 cx.
        let cps = 5 * 4 / 2;
        let swaps = 2;
        assert_eq!(out.cx_count(), 2 * cps + 3 * swaps);
        assert_eq!(out.measure_count(), 5);
    }

    #[test]
    fn trivial_rz_skipped() {
        let mut c = Circuit::new(1);
        c.rz(0.0, 0);
        let out = translate_to_basis(&c);
        assert_eq!(out.size(), 0);
    }

    #[test]
    fn measure_and_barrier_preserved() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier();
        c.measure_all();
        let out = translate_to_basis(&c);
        assert_eq!(out.measure_count(), 2);
        assert!(all_basis(&out));
    }

    #[test]
    fn basis_translation_is_idempotent() {
        let c = library::qft(4);
        let once = translate_to_basis(&c);
        let twice = translate_to_basis(&once);
        assert_eq!(once, twice);
    }
}
