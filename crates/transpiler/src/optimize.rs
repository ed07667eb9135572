//! Peephole optimization passes over basis-translated circuits.

use std::f64::consts::PI;

use qcs_circuit::{Circuit, Gate, Instruction, Qubit};

/// Merge runs of adjacent `rz` rotations on the same qubit and drop
/// rotations that reduce to the identity.
///
/// # Examples
///
/// ```
/// use qcs_circuit::{Circuit, Gate};
/// use qcs_transpiler::optimize::merge_rotations;
///
/// let mut c = Circuit::new(1);
/// c.rz(0.3, 0).rz(-0.3, 0);
/// assert_eq!(merge_rotations(&c).size(), 0);
/// ```
#[must_use]
pub fn merge_rotations(circuit: &Circuit) -> Circuit {
    let insts = circuit.instructions();
    let merged = merge_pass(insts, &vec![true; insts.len()], circuit.num_qubits());
    rebuilt(circuit, merged)
}

/// Cancel adjacent self-inverse gate pairs (`X X`, `H H`, `CX CX`, ...)
/// acting on identical operands. Repeats until a fixed point.
#[must_use]
pub fn cancel_adjacent_inverses(circuit: &Circuit) -> Circuit {
    let insts = circuit.instructions();
    let alive = cancel_pass(insts, circuit.num_qubits());
    let kept = insts
        .iter()
        .zip(&alive)
        .filter(|&(_, &a)| a)
        .map(|(inst, _)| inst.clone())
        .collect();
    rebuilt(circuit, kept)
}

/// Merge `rz` rotations that commute through intervening gates: an `rz`
/// commutes with anything diagonal on its qubit and with the **control**
/// side of a CX, so two `rz`s on the same qubit separated only by such
/// gates fuse into one (a standard commutative-cancellation rule).
///
/// # Examples
///
/// ```
/// use qcs_circuit::Circuit;
/// use qcs_transpiler::optimize::commute_rz_cancellation;
///
/// let mut c = Circuit::new(2);
/// c.rz(0.4, 0).cx(0, 1).rz(-0.4, 0); // rz commutes through the control
/// assert_eq!(commute_rz_cancellation(&c).cx_count(), 1);
/// assert_eq!(commute_rz_cancellation(&c).size(), 1); // only the cx left
/// ```
#[must_use]
pub fn commute_rz_cancellation(circuit: &Circuit) -> Circuit {
    let fused = commute_pass(circuit.instructions().to_vec(), circuit.num_qubits());
    rebuilt(circuit, fused)
}

/// The default optimization pipeline: inverse cancellation, rotation
/// merging, and commutation-aware rz fusion, iterated to a fixed point
/// (bounded).
///
/// Each round reads the previous round's instructions by reference: the
/// cancellation marks survivors in place, rotation merging clones each
/// survivor once, and the rz fusion moves them on. A round whose output
/// equals its input is the fixed point (equal here means equal bits: every
/// angle a round recomputes is non-zero).
#[must_use]
pub fn optimize(circuit: &Circuit) -> Circuit {
    let n = circuit.num_qubits();
    let round = |insts: &[Instruction]| {
        let alive = cancel_pass(insts, n);
        commute_pass(merge_pass(insts, &alive, n), n)
    };
    let mut current = round(circuit.instructions());
    if current != circuit.instructions() {
        for _ in 1..4 {
            let next = round(&current);
            if next == current {
                break;
            }
            current = next;
        }
    }
    rebuilt(circuit, current)
}

/// An unnamed circuit over `like`'s registers holding `instructions`.
fn rebuilt(like: &Circuit, instructions: Vec<Instruction>) -> Circuit {
    let mut out = Circuit::with_clbits(like.num_qubits(), like.num_clbits());
    for inst in instructions {
        out.push(inst);
    }
    out
}

/// Whether an `rz` by `theta` is not the identity.
fn is_nontrivial_rz(theta: f64) -> bool {
    let reduced = theta.rem_euclid(2.0 * PI);
    reduced.abs() > 1e-12 && (reduced - 2.0 * PI).abs() > 1e-12
}

fn rz(theta: f64, q: usize) -> Instruction {
    Instruction::gate(Gate::Rz(theta), &[Qubit::from(q)])
}

/// [`cancel_adjacent_inverses`]' sweeps: which instructions survive.
fn cancel_pass(insts: &[Instruction], n: usize) -> Vec<bool> {
    let mut alive = vec![true; insts.len()];
    // last un-cancelled instruction index seen on each qubit.
    let mut last_on: Vec<Option<usize>> = vec![None; n];
    loop {
        let mut changed = false;
        last_on.fill(None);
        for (idx, inst) in insts.iter().enumerate() {
            if !alive[idx] {
                continue;
            }
            if inst.gate.is_directive() || inst.gate == Gate::Measure || inst.gate == Gate::Reset {
                for q in inst.qubits() {
                    last_on[q.index()] = Some(idx);
                }
                continue;
            }
            // The candidate predecessor must be the immediately previous
            // instruction on *all* operand qubits.
            let same_pred = inst
                .qubits()
                .first()
                .and_then(|q| last_on[q.index()])
                .filter(|&p| inst.qubits().iter().all(|q| last_on[q.index()] == Some(p)));
            if let Some(p) = same_pred {
                let prev = &insts[p];
                let cancels = alive[p]
                    && prev.gate.is_self_inverse()
                    && prev.gate == inst.gate
                    && prev.qubits() == inst.qubits();
                if cancels {
                    alive[p] = false;
                    alive[idx] = false;
                    changed = true;
                    // Restore last_on to the pre-`prev` state lazily: a
                    // full rescan on the next iteration handles chains.
                    for q in inst.qubits() {
                        last_on[q.index()] = None;
                    }
                    continue;
                }
            }
            for q in inst.qubits() {
                last_on[q.index()] = Some(idx);
            }
        }
        if !changed {
            return alive;
        }
    }
}

/// [`merge_rotations`] over the instructions of `insts` marked `alive`.
fn merge_pass(insts: &[Instruction], alive: &[bool], n: usize) -> Vec<Instruction> {
    let mut out = Vec::with_capacity(insts.len());
    // Pending rz angle per qubit, flushed when a non-rz touches the qubit.
    let mut pending = vec![0.0f64; n];

    let flush = |out: &mut Vec<Instruction>, pending: &mut [f64], q: usize| {
        let theta = pending[q];
        pending[q] = 0.0;
        if is_nontrivial_rz(theta) {
            out.push(rz(theta, q));
        }
    };

    for (inst, _) in insts.iter().zip(alive).filter(|&(_, &a)| a) {
        if let Gate::Rz(theta) = inst.gate {
            pending[inst.qubits()[0].index()] += theta;
            continue;
        }
        for q in inst.qubits() {
            flush(&mut out, &mut pending, q.index());
        }
        out.push(inst.clone());
    }
    for q in 0..n {
        flush(&mut out, &mut pending, q);
    }
    out
}

/// [`commute_rz_cancellation`] over an owned instruction stream.
fn commute_pass(instructions: Vec<Instruction>, n: usize) -> Vec<Instruction> {
    // For each instruction, the accumulated rz angle that will be emitted
    // *in its place* (rz instructions are absorbed forward when they can
    // commute to a later rz).
    let mut drop = vec![false; instructions.len()];
    let mut extra_angle = vec![0.0f64; instructions.len()];

    // Last pending rz per qubit (index into instructions).
    let mut pending: Vec<Option<usize>> = vec![None; n];
    for (idx, inst) in instructions.iter().enumerate() {
        match inst.gate {
            Gate::Rz(_) => {
                let q = inst.qubits()[0].index();
                if let Some(prev) = pending[q] {
                    // Fuse the earlier rz into this one.
                    let prev_angle = match instructions[prev].gate {
                        Gate::Rz(t) => t,
                        _ => unreachable!("pending entries are rz"),
                    } + extra_angle[prev];
                    drop[prev] = true;
                    extra_angle[idx] += prev_angle;
                }
                pending[q] = Some(idx);
            }
            Gate::Cx => {
                // rz commutes with the control (qubit 0), not the target.
                let target = inst.qubits()[1].index();
                pending[target] = None;
            }
            ref g if g.is_diagonal() && !g.is_two_qubit() => {
                // Diagonal single-qubit gates commute with rz; keep pending.
            }
            Gate::Cz | Gate::Cp(_) => {
                // Diagonal two-qubit gates commute with rz on both qubits.
            }
            _ => {
                for q in inst.qubits() {
                    pending[q.index()] = None;
                }
            }
        }
    }

    let mut out = Vec::with_capacity(instructions.len());
    for (idx, inst) in instructions.into_iter().enumerate() {
        if drop[idx] {
            continue;
        }
        if let Gate::Rz(t) = inst.gate {
            let total = t + extra_angle[idx];
            if is_nontrivial_rz(total) {
                out.push(rz(total, inst.qubits()[0].index()));
            }
            continue;
        }
        out.push(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;

    #[test]
    fn rz_merge_sums_angles() {
        let mut c = Circuit::new(1);
        c.rz(0.25, 0).rz(0.5, 0);
        let out = merge_rotations(&c);
        assert_eq!(out.size(), 1);
        match out.instructions()[0].gate {
            Gate::Rz(t) => assert!((t - 0.75).abs() < 1e-12),
            ref g => panic!("expected rz, got {g:?}"),
        }
    }

    #[test]
    fn rz_merge_respects_interleaving() {
        let mut c = Circuit::new(2);
        c.rz(0.25, 0).cx(0, 1).rz(0.5, 0);
        let out = merge_rotations(&c);
        // The CX blocks merging.
        assert_eq!(out.size(), 3);
    }

    #[test]
    fn full_rotation_disappears() {
        let mut c = Circuit::new(1);
        c.rz(PI, 0).rz(PI, 0);
        assert_eq!(merge_rotations(&c).size(), 0);
    }

    #[test]
    fn xx_cancels() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 0);
    }

    #[test]
    fn cx_pair_cancels() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 0);
    }

    #[test]
    fn cx_reversed_operands_do_not_cancel() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 2);
    }

    #[test]
    fn chain_cancellation_via_fixed_point() {
        // h h h h -> empty (two rounds).
        let mut c = Circuit::new(1);
        c.h(0).h(0).h(0).h(0);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 0);
    }

    #[test]
    fn blocked_pair_survives() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).cx(0, 1);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 3);
    }

    #[test]
    fn measure_blocks_cancellation() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0, 0).x(0);
        assert_eq!(cancel_adjacent_inverses(&c).size(), 3);
    }

    #[test]
    fn rz_commutes_through_cx_control() {
        let mut c = Circuit::new(2);
        c.rz(0.4, 0).cx(0, 1).rz(-0.4, 0);
        let out = commute_rz_cancellation(&c);
        assert_eq!(out.size(), 1);
        assert_eq!(out.cx_count(), 1);
    }

    #[test]
    fn rz_blocked_by_cx_target() {
        let mut c = Circuit::new(2);
        c.rz(0.4, 1).cx(0, 1).rz(-0.4, 1);
        let out = commute_rz_cancellation(&c);
        assert_eq!(out.size(), 3, "target-side rz must not commute");
    }

    #[test]
    fn rz_commutes_through_cz() {
        let mut c = Circuit::new(2);
        c.rz(0.7, 0).cz(0, 1).rz(0.3, 0);
        let out = commute_rz_cancellation(&c);
        // The two rz fuse into rz(1.0) after the cz.
        assert_eq!(out.size(), 2);
        let fused = out
            .instructions()
            .iter()
            .find_map(|i| match i.gate {
                Gate::Rz(t) => Some(t),
                _ => None,
            })
            .unwrap();
        assert!((fused - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_blocked_by_hadamard() {
        let mut c = Circuit::new(1);
        c.rz(0.4, 0).h(0).rz(-0.4, 0);
        assert_eq!(commute_rz_cancellation(&c).size(), 3);
    }

    #[test]
    fn rz_chain_through_multiple_controls() {
        let mut c = Circuit::new(3);
        c.rz(0.5, 0).cx(0, 1).cx(0, 2).rz(0.5, 0);
        let out = commute_rz_cancellation(&c);
        assert_eq!(out.size(), 3); // two cx + one fused rz(1.0)
    }

    #[test]
    fn optimize_compose_and_uncompose() {
        // A circuit followed by its inverse should shrink dramatically.
        let fwd = {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).cx(1, 2);
            c
        };
        let mut both = fwd.clone();
        both.extend_from(&fwd.inverse()).unwrap();
        let out = optimize(&both);
        assert_eq!(out.size(), 0, "compute-uncompute should vanish: {out}");
    }

    #[test]
    fn optimize_iterates_rounds_to_a_fixed_point() {
        // Round one merges the rz pair away; only round two can then
        // cancel the X pair it separated.
        let mut c = Circuit::new(1);
        c.x(0).rz(0.3, 0).rz(-0.3, 0).x(0);
        assert_eq!(merge_rotations(&cancel_adjacent_inverses(&c)).size(), 2);
        assert_eq!(optimize(&c).size(), 0);
    }

    #[test]
    fn optimize_preserves_functional_gates() {
        let c = library::ghz(4);
        let out = optimize(&c);
        assert_eq!(out.cx_count(), c.cx_count());
        assert_eq!(out.measure_count(), 4);
    }
}
