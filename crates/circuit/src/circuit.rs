//! The [`Circuit`] container: an ordered list of instructions over a qubit
//! register and a classical register.

use std::fmt;

use crate::{Clbit, Gate, Instruction, Qubit};

/// Errors produced when building or combining circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// An operand index was outside the circuit's register.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: Qubit,
        /// The register size.
        width: usize,
    },
    /// A classical operand index was outside the classical register.
    ClbitOutOfRange {
        /// The offending clbit.
        clbit: Clbit,
        /// The classical register size.
        width: usize,
    },
    /// An instruction named the same qubit twice.
    DuplicateOperand {
        /// The duplicated qubit.
        qubit: Qubit,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit {qubit} out of range for register of width {width}")
            }
            CircuitError::ClbitOutOfRange { clbit, width } => {
                write!(f, "clbit {clbit} out of range for register of width {width}")
            }
            CircuitError::DuplicateOperand { qubit } => {
                write!(f, "duplicate operand {qubit} in multi-qubit gate")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// The first operand of a wide instruction (a barrier) that repeats an
/// earlier one. Out of line: gates have one or two operands.
#[cold]
fn first_repeat(qubits: &[Qubit]) -> Option<Qubit> {
    (1..qubits.len())
        .find(|&j| qubits[..j].contains(&qubits[j]))
        .map(|j| qubits[j])
}

/// An ordered quantum circuit.
///
/// Instructions execute in list order subject to the usual commutation
/// freedom; depth-style metrics are computed from the induced dependency
/// structure (see [`Circuit::depth`] and [`Circuit::cx_depth`]).
///
/// # Examples
///
/// Building a Bell pair:
///
/// ```
/// use qcs_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.cx_count(), 1);
/// assert_eq!(c.depth(), 3); // h, cx, measure
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Create an empty circuit over `num_qubits` qubits with an equal-sized
    /// classical register.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        Circuit::with_clbits(num_qubits, num_qubits)
    }

    /// Create an empty circuit with distinct quantum and classical register
    /// sizes.
    #[must_use]
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            name: String::new(),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// Set a human-readable name (e.g. `"qft_64"`); returns `self` for
    /// chaining during construction.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The circuit's name ("" if never set).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width of the quantum register.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Width of the classical register.
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction stream in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Total instruction count, excluding directives (barriers).
    #[must_use]
    pub fn size(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| !i.gate.is_directive())
            .count()
    }

    /// Whether the circuit has no instructions at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Validate and append an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if an operand is out of range or an
    /// instruction (a barrier of any width included) repeats a qubit.
    pub fn try_push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        let qubits = instruction.qubits();
        for &q in qubits {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    width: self.num_qubits,
                });
            }
        }
        for &c in instruction.clbits() {
            if c.index() >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit: c,
                    width: self.num_clbits,
                });
            }
        }
        let repeated = match *qubits {
            [] | [_] => None,
            [a, b] => (a == b).then_some(b),
            _ => first_repeat(qubits),
        };
        if let Some(qubit) = repeated {
            return Err(CircuitError::DuplicateOperand { qubit });
        }
        self.instructions.push(instruction);
        Ok(())
    }

    /// Append an instruction, panicking on invalid operands.
    ///
    /// # Panics
    ///
    /// Panics if operands are out of range or duplicated; see
    /// [`Circuit::try_push`] for the fallible form.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        self.try_push(instruction).expect("valid instruction");
        self
    }

    /// Append `gate` on the given qubit indices.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicated operands.
    pub fn apply(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        let instruction = match *qubits {
            [q] => Instruction::gate(gate, &[Qubit::from(q)]),
            [a, b] => Instruction::gate(gate, &[Qubit::from(a), Qubit::from(b)]),
            _ => {
                let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit::from(q)).collect();
                Instruction::gate(gate, &qs)
            }
        };
        self.push(instruction)
    }

    /// Append a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, &[q])
    }

    /// Append a Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, &[q])
    }

    /// Append a Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, &[q])
    }

    /// Append a Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, &[q])
    }

    /// Append an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::S, &[q])
    }

    /// Append a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, &[q])
    }

    /// Append an Rx rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rx(theta), &[q])
    }

    /// Append an Ry rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Ry(theta), &[q])
    }

    /// Append an Rz rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rz(theta), &[q])
    }

    /// Append a CX with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.apply(Gate::Cx, &[control, target])
    }

    /// Append a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cz, &[a, b])
    }

    /// Append a controlled-phase rotation.
    pub fn cp(&mut self, theta: f64, control: usize, target: usize) -> &mut Self {
        self.apply(Gate::Cp(theta), &[control, target])
    }

    /// Append a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Swap, &[a, b])
    }

    /// Append a barrier across the whole register.
    pub fn barrier(&mut self) -> &mut Self {
        let qs: Vec<Qubit> = (0..self.num_qubits).map(Qubit::from).collect();
        self.push(Instruction::gate(Gate::Barrier, &qs))
    }

    /// Append `measure q -> c`.
    pub fn measure(&mut self, q: usize, c: usize) -> &mut Self {
        self.push(Instruction::measure(Qubit::from(q), Clbit::from(c)))
    }

    /// Measure every qubit `i` into clbit `i`.
    ///
    /// # Panics
    ///
    /// Panics if the classical register is narrower than the quantum one.
    pub fn measure_all(&mut self) -> &mut Self {
        assert!(
            self.num_clbits >= self.num_qubits,
            "classical register too small for measure_all"
        );
        for q in 0..self.num_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Append all instructions of `other` (registers must be compatible).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `other` references operands outside this
    /// circuit's registers.
    pub fn extend_from(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        for inst in other.instructions() {
            self.try_push(inst.clone())?;
        }
        Ok(())
    }

    /// The number of instructions acting on each qubit (excluding barriers).
    #[must_use]
    pub fn gate_counts_per_qubit(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_qubits];
        for inst in &self.instructions {
            if inst.gate.is_directive() {
                continue;
            }
            for q in inst.qubits() {
                counts[q.index()] += 1;
            }
        }
        counts
    }

    /// Number of qubits that are touched by at least one instruction.
    ///
    /// The paper's *machine utilization* (Fig 8) is
    /// `active_qubits / machine_qubits`.
    #[must_use]
    pub fn active_qubits(&self) -> usize {
        self.gate_counts_per_qubit().iter().filter(|&&c| c > 0).count()
    }

    /// Count of two-qubit gates ("CX-Total" in the paper, Fig 7).
    #[must_use]
    pub fn cx_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .count()
    }

    /// Count of single-qubit unitary gates.
    #[must_use]
    pub fn single_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_unitary() && !i.gate.is_two_qubit())
            .count()
    }

    /// Count of measurement instructions.
    #[must_use]
    pub fn measure_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate == Gate::Measure)
            .count()
    }

    /// Circuit depth: length of the critical path where every instruction
    /// (except barriers) occupies one time-step on each operand qubit.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth_filtered(|_| true)
    }

    /// Two-qubit-gate depth ("CX-Depth" in the paper, Fig 7): critical-path
    /// length counting only two-qubit gates, while still propagating
    /// dependencies through single-qubit gates.
    #[must_use]
    pub fn cx_depth(&self) -> usize {
        self.depth_filtered(|g| g.is_two_qubit())
    }

    /// Generic depth: instructions matching `counts` contribute one unit of
    /// depth; others propagate the frontier without adding to it.
    fn depth_filtered(&self, counts: impl Fn(&Gate) -> bool) -> usize {
        let mut frontier = vec![0usize; self.num_qubits.max(1)];
        let mut max_depth = 0usize;
        for inst in &self.instructions {
            if inst.gate.is_directive() {
                // A barrier synchronizes its qubits but adds no depth.
                let level = inst
                    .qubits()
                    .iter()
                    .map(|q| frontier[q.index()])
                    .max()
                    .unwrap_or(0);
                for q in inst.qubits() {
                    frontier[q.index()] = level;
                }
                continue;
            }
            let start = inst
                .qubits()
                .iter()
                .map(|q| frontier[q.index()])
                .max()
                .unwrap_or(0);
            let end = start + usize::from(counts(&inst.gate));
            for q in inst.qubits() {
                frontier[q.index()] = end;
            }
            max_depth = max_depth.max(end);
        }
        max_depth
    }

    /// Remap all qubit operands through `f`, producing a new circuit over a
    /// register of `new_width` qubits. Used when placing a logical circuit
    /// onto physical machine qubits.
    #[must_use]
    pub fn remapped(&self, new_width: usize, f: impl Fn(Qubit) -> Qubit) -> Circuit {
        let mut out = Circuit::with_clbits(new_width, self.num_clbits);
        out.name = self.name.clone();
        for inst in &self.instructions {
            out.push(inst.map_qubits(&f));
        }
        out
    }

    /// Compact the circuit onto its active qubits: returns the rewritten
    /// circuit over `active_qubits()` wires plus the mapping
    /// `new index -> old index` (ascending in old index). Classical bits
    /// are unchanged.
    ///
    /// Useful for simulating a compiled circuit that touches only a small
    /// region of a large machine register.
    #[must_use]
    pub fn compacted(&self) -> (Circuit, Vec<usize>) {
        let counts = self.gate_counts_per_qubit();
        let old_of_new: Vec<usize> = (0..self.num_qubits).filter(|&q| counts[q] > 0).collect();
        let mut new_of_old = vec![usize::MAX; self.num_qubits];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old] = new;
        }
        let mut out = Circuit::with_clbits(old_of_new.len(), self.num_clbits);
        out.name = self.name.clone();
        for inst in &self.instructions {
            if inst.gate.is_directive() {
                // Barriers may span inactive qubits; keep active spans only.
                let qubits: Vec<Qubit> = inst
                    .qubits()
                    .iter()
                    .filter(|q| new_of_old[q.index()] != usize::MAX)
                    .map(|q| Qubit::from(new_of_old[q.index()]))
                    .collect();
                if !qubits.is_empty() {
                    out.push(Instruction::gate(Gate::Barrier, &qubits));
                }
                continue;
            }
            out.push(inst.map_qubits(|q| Qubit::from(new_of_old[q.index()])));
        }
        (out, old_of_new)
    }

    /// The inverse circuit (reversed instruction order, inverted gates).
    ///
    /// Measurements, resets and barriers are dropped; the result contains
    /// only the unitary part. Useful for building verification circuits
    /// (compute-uncompute).
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        out.name = format!("{}_dg", self.name);
        for inst in self.instructions.iter().rev() {
            if let Some(inv) = inst.gate.inverse() {
                out.push(Instruction::gate(inv, inst.qubits()));
            }
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} ({} qubits, {} clbits, {} ops)",
            if self.name.is_empty() { "<anon>" } else { &self.name },
            self.num_qubits,
            self.num_clbits,
            self.size()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(3);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.depth(), 0);
        assert_eq!(c.size(), 0);
        assert!(c.is_empty());
        assert_eq!(c.active_qubits(), 0);
    }

    #[test]
    fn bell_metrics() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        assert_eq!(c.size(), 4);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.cx_depth(), 1);
        assert_eq!(c.cx_count(), 1);
        assert_eq!(c.measure_count(), 2);
        assert_eq!(c.active_qubits(), 2);
    }

    #[test]
    fn parallel_gates_share_depth() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.cx_depth(), 2);
    }

    #[test]
    fn barrier_synchronizes_without_adding_depth() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier();
        c.h(1);
        // h(1) must start after the barrier level set by h(0).
        assert_eq!(c.depth(), 2);
        assert_eq!(c.size(), 2); // barrier not counted
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Instruction::gate(Gate::H, &[Qubit(5)]))
            .unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn duplicate_operand_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Instruction::gate(Gate::Cx, &[Qubit(1), Qubit(1)]))
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateOperand { qubit: Qubit(1) });
    }

    #[test]
    fn duplicate_operand_rejected_at_any_width() {
        // Regression: only a two-operand instruction was checked, so a
        // wider barrier could repeat a qubit.
        let mut c = Circuit::new(4);
        for (qubits, repeated) in [
            (&[0, 0, 1][..], 0),
            (&[0, 1, 0][..], 0),
            (&[2, 1, 3, 1][..], 1),
            (&[3, 2, 1, 0, 2, 3][..], 2),
        ] {
            let qubits: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q)).collect();
            let err = c
                .try_push(Instruction::gate(Gate::Barrier, &qubits))
                .unwrap_err();
            assert_eq!(err, CircuitError::DuplicateOperand { qubit: Qubit(repeated) });
        }
        assert!(c.instructions().is_empty());
        c.push(Instruction::gate(Gate::Barrier, &[Qubit(3), Qubit(0), Qubit(2)]));
        assert_eq!(c.instructions().len(), 1);
    }

    #[test]
    fn clbit_out_of_range_rejected() {
        let mut c = Circuit::with_clbits(2, 1);
        let err = c
            .try_push(Instruction::measure(Qubit(0), Clbit(3)))
            .unwrap_err();
        assert!(matches!(err, CircuitError::ClbitOutOfRange { .. }));
    }

    #[test]
    fn remap_preserves_structure() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let r = c.remapped(5, |q| Qubit(q.0 + 3));
        assert_eq!(r.num_qubits(), 5);
        assert_eq!(r.cx_count(), 1);
        assert_eq!(r.instructions()[1].qubits(), &[Qubit(3), Qubit(4)]);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1).measure_all();
        let inv = c.inverse();
        assert_eq!(inv.size(), 3); // measurements dropped
        assert_eq!(inv.instructions()[0].gate, Gate::Cx);
        assert_eq!(inv.instructions()[1].gate, Gate::Sdg);
        assert_eq!(inv.instructions()[2].gate, Gate::H);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b).unwrap();
        assert_eq!(a.size(), 2);
    }

    #[test]
    fn extend_from_incompatible_fails() {
        let mut a = Circuit::new(1);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        assert!(a.extend_from(&b).is_err());
    }

    #[test]
    fn gate_counts_per_qubit_excludes_barriers() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        c.barrier();
        let counts = c.gate_counts_per_qubit();
        assert_eq!(counts, vec![2, 1, 0]);
        assert_eq!(c.active_qubits(), 2);
    }
}
