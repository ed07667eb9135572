//! Instructions: a gate bound to specific qubit (and classical bit) operands.

use std::fmt;

use crate::Gate;

/// Index of a qubit within a circuit or machine register.
///
/// A newtype keeps qubit indices from being confused with classical bit
/// indices or arbitrary counters.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Qubit;
/// let q = Qubit(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Qubit(pub u32);

impl Qubit {
    /// The raw index as a `usize`, convenient for slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Qubit {
    fn from(v: u32) -> Self {
        Qubit(v)
    }
}

impl From<usize> for Qubit {
    fn from(v: usize) -> Self {
        Qubit(u32::try_from(v).expect("qubit index fits in u32"))
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Index of a classical bit within a circuit's classical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Clbit(pub u32);

impl Clbit {
    /// The raw index as a `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Clbit {
    fn from(v: u32) -> Self {
        Clbit(v)
    }
}

impl From<usize> for Clbit {
    fn from(v: usize) -> Self {
        Clbit(u32::try_from(v).expect("clbit index fits in u32"))
    }
}

impl fmt::Display for Clbit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A gate applied to concrete operands.
///
/// For a [`Gate::Measure`], [`Instruction::clbits`] holds the destination
/// classical bit. For a [`Gate::Barrier`], [`Instruction::qubits`] may span
/// any subset of the register.
///
/// An instruction is a value: every gate but a barrier keeps its operands
/// inline (one or two qubits, or a measurement's qubit and clbit), so
/// cloning, remapping or parsing one allocates nothing. Only a barrier's
/// operand list lives on the heap.
///
/// # Examples
///
/// ```
/// use qcs_circuit::{Gate, Instruction, Qubit};
///
/// let cx = Instruction::gate(Gate::Cx, &[Qubit(0), Qubit(1)]);
/// assert!(cx.gate.is_two_qubit());
/// assert_eq!(cx.qubits(), &[Qubit(0), Qubit(1)]);
/// assert!(cx.clbits().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation being applied.
    pub gate: Gate,
    operands: Operands,
}

/// Operand storage, one form per arity. The form is a function of the
/// gate and the operand count (a barrier always spills), so the derived
/// equality compares operands, not representations.
#[derive(Debug, Clone, PartialEq)]
enum Operands {
    One([Qubit; 1]),
    /// Gate-significant order: `[control, target]` for CX.
    Two([Qubit; 2]),
    Measure([Qubit; 1], [Clbit; 1]),
    /// A barrier's operands, every one of which its alignment reads.
    Spill(Box<[Qubit]>),
}

impl Instruction {
    /// Create a purely-quantum instruction (no classical operands).
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the gate's arity (barriers
    /// excepted, which accept any non-zero number of qubits), and for
    /// [`Gate::Measure`], which needs a clbit ([`Instruction::measure`]).
    #[must_use]
    pub fn gate(gate: Gate, qubits: &[Qubit]) -> Self {
        assert!(
            gate != Gate::Measure,
            "measure needs a clbit: use Instruction::measure"
        );
        let operands = if gate.is_directive() {
            assert!(!qubits.is_empty(), "barrier needs at least one qubit");
            Operands::Spill(qubits.into())
        } else {
            match (gate.num_qubits(), qubits) {
                (1, &[q]) => Operands::One([q]),
                (2, &[a, b]) => Operands::Two([a, b]),
                (arity, _) => panic!(
                    "gate {} expects {arity} operand(s), got {}",
                    gate.name(),
                    qubits.len()
                ),
            }
        };
        Instruction { gate, operands }
    }

    /// Create a measurement instruction `qubit -> clbit`.
    #[must_use]
    pub fn measure(qubit: Qubit, clbit: Clbit) -> Self {
        Instruction {
            gate: Gate::Measure,
            operands: Operands::Measure([qubit], [clbit]),
        }
    }

    /// Qubit operands, in gate-significant order (`[control, target]` for
    /// CX).
    #[must_use]
    pub fn qubits(&self) -> &[Qubit] {
        match &self.operands {
            Operands::One(q) | Operands::Measure(q, _) => q,
            Operands::Two(qs) => qs,
            Operands::Spill(qs) => qs,
        }
    }

    /// Classical bit operands (only measurements have one).
    #[must_use]
    pub fn clbits(&self) -> &[Clbit] {
        match &self.operands {
            Operands::Measure(_, c) => c,
            _ => &[],
        }
    }

    /// Whether this instruction touches the given qubit.
    #[must_use]
    pub fn touches(&self, qubit: Qubit) -> bool {
        self.qubits().contains(&qubit)
    }

    /// Remap qubit operands through `f` (used by layout application and
    /// routing). Classical operands are unchanged.
    #[must_use]
    pub fn map_qubits(&self, f: impl Fn(Qubit) -> Qubit) -> Instruction {
        self.map_operands(f, |c| c)
    }

    /// Remap qubit operands through `fq` and classical operands through
    /// `fc` (used when packing programs onto one register with per-program
    /// clbit offsets).
    #[must_use]
    pub fn map_operands(
        &self,
        fq: impl Fn(Qubit) -> Qubit,
        fc: impl Fn(Clbit) -> Clbit,
    ) -> Instruction {
        let operands = match &self.operands {
            Operands::One([q]) => Operands::One([fq(*q)]),
            Operands::Two([a, b]) => Operands::Two([fq(*a), fq(*b)]),
            Operands::Measure([q], [c]) => Operands::Measure([fq(*q)], [fc(*c)]),
            Operands::Spill(qs) => Operands::Spill(qs.iter().map(|&q| fq(q)).collect()),
        };
        Instruction {
            gate: self.gate,
            operands,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.gate)?;
        for (i, q) in self.qubits().iter().enumerate() {
            write!(f, "{}{q}", if i == 0 { " " } else { "," })?;
        }
        for (i, c) in self.clbits().iter().enumerate() {
            write!(f, "{}{c}", if i == 0 { " -> " } else { "," })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_single_qubit() {
        let i = Instruction::gate(Gate::H, &[Qubit(2)]);
        assert_eq!(i.qubits().len(), 1);
        assert!(i.touches(Qubit(2)));
        assert!(!i.touches(Qubit(0)));
    }

    #[test]
    #[should_panic(expected = "expects 2 operand(s)")]
    fn wrong_arity_panics() {
        let _ = Instruction::gate(Gate::Cx, &[Qubit(0)]);
    }

    #[test]
    fn barrier_accepts_many() {
        let i = Instruction::gate(Gate::Barrier, &[Qubit(0), Qubit(1), Qubit(2)]);
        assert_eq!(i.qubits().len(), 3);
    }

    #[test]
    #[should_panic(expected = "barrier needs at least one qubit")]
    fn empty_barrier_panics() {
        let _ = Instruction::gate(Gate::Barrier, &[]);
    }

    #[test]
    fn measure_binds_clbit() {
        let i = Instruction::measure(Qubit(1), Clbit(0));
        assert_eq!(i.gate, Gate::Measure);
        assert_eq!(i.clbits(), &[Clbit(0)]);
        assert_eq!(i.to_string(), "measure q1 -> c0");
    }

    #[test]
    fn map_qubits_applies_permutation() {
        let i = Instruction::gate(Gate::Cx, &[Qubit(0), Qubit(1)]);
        let j = i.map_qubits(|q| Qubit(q.0 + 10));
        assert_eq!(j.qubits(), &[Qubit(10), Qubit(11)]);
        assert_eq!(j.gate, Gate::Cx);
    }

    #[test]
    fn an_instruction_is_a_56_byte_value() {
        // The gate (32 B) beside inline operands; only a barrier spills.
        assert_eq!(std::mem::size_of::<Instruction>(), 56);
    }

    #[test]
    #[should_panic(expected = "measure needs a clbit")]
    fn measure_through_gate_panics() {
        let _ = Instruction::gate(Gate::Measure, &[Qubit(0)]);
    }

    #[test]
    fn map_operands_offsets_the_clbit() {
        let m = Instruction::measure(Qubit(1), Clbit(0));
        let j = m.map_operands(|q| Qubit(q.0 + 4), |c| Clbit(c.0 + 2));
        assert_eq!(j.qubits(), &[Qubit(5)]);
        assert_eq!(j.clbits(), &[Clbit(2)]);
        let cx = Instruction::gate(Gate::Cx, &[Qubit(0), Qubit(1)]);
        assert_eq!(cx.map_operands(|q| q, |c| Clbit(c.0 + 2)), cx);
    }

    #[test]
    fn qubit_conversions() {
        assert_eq!(Qubit::from(5u32), Qubit(5));
        assert_eq!(Qubit::from(5usize).index(), 5);
        assert_eq!(Clbit::from(2usize), Clbit(2));
        assert_eq!(Qubit(7).to_string(), "q7");
    }
}
