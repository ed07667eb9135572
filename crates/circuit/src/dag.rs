//! Dependency analysis over an instruction stream.
//!
//! [`layers`] computes an ASAP (as-soon-as-possible) layering: each
//! instruction is assigned the earliest time-step at which all of its
//! operand qubits are free. The ASCII renderer ([`crate::draw`]) places
//! its columns from it; the transpiler's scheduler keeps its own
//! duration-weighted per-qubit clock.

use crate::{Circuit, Instruction};

/// An ASAP layering of a circuit.
///
/// Layer `k` contains the indices (into [`Circuit::instructions`]) of all
/// instructions scheduled at time-step `k`. Instructions within a layer act
/// on disjoint qubits, so they can execute simultaneously.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layers {
    layers: Vec<Vec<usize>>,
}

impl Layers {
    /// The number of layers (equals [`Circuit::depth`] when no barriers are
    /// present).
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether there are no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Instruction indices in layer `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    #[must_use]
    pub fn layer(&self, k: usize) -> &[usize] {
        &self.layers[k]
    }

    /// Iterate over layers in time order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.layers.iter().map(Vec::as_slice)
    }
}

/// Compute the ASAP layering of `circuit`.
///
/// Barriers synchronize their operand qubits but occupy no layer.
///
/// # Examples
///
/// ```
/// use qcs_circuit::{dag, Circuit};
///
/// let mut c = Circuit::new(3);
/// c.h(0).h(1).cx(0, 1).h(2);
/// let layers = dag::layers(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers.layer(0).len(), 3); // h0, h1, h2 in parallel
/// ```
#[must_use]
pub fn layers(circuit: &Circuit) -> Layers {
    let mut frontier = vec![0usize; circuit.num_qubits().max(1)];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (idx, inst) in circuit.instructions().iter().enumerate() {
        if inst.gate.is_directive() {
            let level = inst
                .qubits
                .iter()
                .map(|q| frontier[q.index()])
                .max()
                .unwrap_or(0);
            for q in &inst.qubits {
                frontier[q.index()] = level;
            }
            continue;
        }
        let start = inst
            .qubits
            .iter()
            .map(|q| frontier[q.index()])
            .max()
            .unwrap_or(0);
        if out.len() <= start {
            out.resize_with(start + 1, Vec::new);
        }
        out[start].push(idx);
        for q in &inst.qubits {
            frontier[q.index()] = start + 1;
        }
    }
    Layers { layers: out }
}

/// For each instruction, the set of instruction indices it directly depends
/// on (the previous instruction touching each of its operand qubits).
///
/// Barriers participate as dependency nodes but are also returned in the
/// result, with their own predecessor sets.
#[must_use]
pub fn predecessors(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits().max(1)];
    let mut preds = Vec::with_capacity(circuit.instructions().len());
    for (idx, inst) in circuit.instructions().iter().enumerate() {
        let mut p: Vec<usize> = inst
            .qubits
            .iter()
            .filter_map(|q| last_on_qubit[q.index()])
            .collect();
        p.sort_unstable();
        p.dedup();
        preds.push(p);
        for q in &inst.qubits {
            last_on_qubit[q.index()] = Some(idx);
        }
    }
    preds
}

/// The front layer of a circuit starting from instruction index `from`:
/// instructions whose operand qubits have no earlier unexecuted instruction.
///
/// This is the working set of SABRE-style routing.
#[must_use]
pub fn front_layer(instructions: &[Instruction], executed: &[bool]) -> Vec<usize> {
    let mut blocked: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut front = Vec::new();
    for (idx, inst) in instructions.iter().enumerate() {
        if executed[idx] {
            continue;
        }
        let free = inst.qubits.iter().all(|q| !blocked.contains(&q.0));
        if free {
            front.push(idx);
        }
        for q in &inst.qubits {
            blocked.insert(q.0);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Gate, Instruction, Qubit};

    #[test]
    fn layers_of_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let l = layers(&c);
        assert_eq!(l.len(), 3);
        assert_eq!(l.layer(0), &[0]);
        assert_eq!(l.layer(1), &[1]);
        assert_eq!(l.layer(2).len(), 2);
        assert_eq!(l.len(), c.depth());
    }

    #[test]
    fn layers_empty_circuit() {
        let c = Circuit::new(2);
        assert!(layers(&c).is_empty());
    }

    #[test]
    fn barrier_pushes_following_gates() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier();
        c.h(1);
        let l = layers(&c);
        assert_eq!(l.len(), 2);
        assert_eq!(l.layer(1), &[2]);
    }

    #[test]
    fn predecessors_chain() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let p = predecessors(&c);
        assert!(p[0].is_empty());
        assert_eq!(p[1], vec![0]);
        assert_eq!(p[2], vec![1]);
    }

    #[test]
    fn predecessors_dedup_two_qubit() {
        // cx(0,1) followed by cx(0,1): second depends on first exactly once.
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let p = predecessors(&c);
        assert_eq!(p[1], vec![0]);
    }

    #[test]
    fn front_layer_respects_blocking() {
        let insts = vec![
            Instruction::gate(Gate::Cx, &[Qubit(0), Qubit(1)]),
            Instruction::gate(Gate::Cx, &[Qubit(1), Qubit(2)]),
            Instruction::gate(Gate::Cx, &[Qubit(3), Qubit(4)]),
        ];
        let executed = vec![false, false, false];
        let f = front_layer(&insts, &executed);
        assert_eq!(f, vec![0, 2]);
        let executed = vec![true, false, false];
        let f = front_layer(&insts, &executed);
        assert_eq!(f, vec![1, 2]);
    }

    #[test]
    fn layers_parallelism_bound() {
        // 6 disjoint CX gates on 12 qubits fit in one layer.
        let mut c = Circuit::new(12);
        for i in 0..6 {
            c.cx(2 * i, 2 * i + 1);
        }
        let l = layers(&c);
        assert_eq!(l.len(), 1);
        assert_eq!(l.layer(0).len(), 6);
    }
}
