//! Multiprogramming: packing several circuits onto disjoint regions of
//! one machine so they execute simultaneously (paper §IV-D ③: "there is
//! opportunity to improve machine utilization by multi-programming on the
//! quantum machines").

use qcs_circuit::{Circuit, Clbit, Qubit};

use crate::layout::noise_aware_layout_excluding;
use crate::transpile::{transpile, LayoutMethod, TranspileOptions};
use crate::{Layout, Target, TranspileError};

/// A packed bundle of circuits sharing one machine.
#[derive(Debug, Clone)]
pub struct PackedProgram {
    /// Per-circuit layouts onto disjoint physical regions.
    pub layouts: Vec<Layout>,
    /// The merged circuit over the machine register; circuit `i`'s
    /// classical bits live at offset [`PackedProgram::clbit_offsets`]`[i]`.
    pub combined: Circuit,
    /// Classical-bit offset of each packed circuit in the combined
    /// readout word.
    pub clbit_offsets: Vec<usize>,
    /// Fraction of machine qubits used by the bundle.
    pub utilization: f64,
}

/// Pack circuits onto disjoint noise-aware regions of `target`.
///
/// Circuits are placed in the given order; each placement excludes the
/// qubits already claimed, so earlier circuits get the cleaner regions.
///
/// # Errors
///
/// Returns [`TranspileError::NoConnectedRegion`] when the remaining
/// machine real estate cannot host the next circuit, and
/// [`TranspileError::CircuitTooWide`] if any single circuit exceeds the
/// machine.
///
/// # Examples
///
/// ```
/// use qcs_circuit::library;
/// use qcs_topology::families;
/// use qcs_transpiler::{multiprog, Target};
///
/// let target = Target::uniform("falcon", families::ibm_falcon_27q(), 3);
/// let a = library::ghz(4);
/// let b = library::ghz(3);
/// let packed = multiprog::pack(&[&a, &b], &target)?;
/// assert_eq!(packed.layouts.len(), 2);
/// assert!(packed.utilization > 0.2);
/// # Ok::<(), qcs_transpiler::TranspileError>(())
/// ```
pub fn pack(circuits: &[&Circuit], target: &Target) -> Result<PackedProgram, TranspileError> {
    let mut used: Vec<usize> = Vec::new();
    let mut layouts = Vec::with_capacity(circuits.len());
    let mut routed_subcircuits = Vec::with_capacity(circuits.len());
    for circuit in circuits {
        let layout = noise_aware_layout_excluding(circuit, target, &used)?;
        // Each program is fully compiled *within its region*: the
        // induced-subgraph target confines routing SWAPs to the region,
        // preserving disjointness.
        let region: Vec<usize> = layout.as_slice().to_vec();
        let sub_target = Target::new(
            format!("{}-region", target.name()),
            target.topology().induced_subgraph(&region),
            target.snapshot().restricted(&region),
        );
        let compiled = transpile(
            circuit,
            &sub_target,
            TranspileOptions {
                // The region was already chosen noise-aware; keep the
                // logical order (region index i hosts logical i).
                layout: LayoutMethod::Trivial,
                ..TranspileOptions::full()
            },
        )?;
        used.extend(region.iter().copied());
        routed_subcircuits.push((compiled.circuit, region));
        layouts.push(layout);
    }

    // Merge onto the machine register with per-circuit clbit offsets.
    let total_clbits: usize = circuits.iter().map(|c| c.num_clbits()).sum();
    let mut combined = Circuit::with_clbits(target.num_qubits(), total_clbits.max(1));
    let mut clbit_offsets = Vec::with_capacity(circuits.len());
    let mut offset = 0usize;
    for ((sub, region), circuit) in routed_subcircuits.iter().zip(circuits) {
        clbit_offsets.push(offset);
        for inst in sub.instructions() {
            let mapped = inst.map_operands(
                |q| Qubit::from(region[q.index()]),
                |c| Clbit::from(c.index() + offset),
            );
            combined.push(mapped);
        }
        offset += circuit.num_clbits();
    }

    Ok(PackedProgram {
        layouts,
        combined,
        clbit_offsets,
        utilization: used.len() as f64 / target.num_qubits() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;
    use qcs_topology::families;

    fn target() -> Target {
        Target::uniform("falcon", families::ibm_falcon_27q(), 9)
    }

    #[test]
    fn regions_are_disjoint() {
        let a = library::qft(4);
        let b = library::ghz(5);
        let c = library::ghz(3);
        let packed = pack(&[&a, &b, &c], &target()).unwrap();
        let mut all: Vec<usize> = packed
            .layouts
            .iter()
            .flat_map(|l| l.as_slice().iter().copied())
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "regions overlap");
        assert_eq!(before, 4 + 5 + 3);
        assert!((packed.utilization - 12.0 / 27.0).abs() < 1e-9);
    }

    #[test]
    fn first_circuit_gets_cleaner_region() {
        let t = target();
        let a = library::ghz(4);
        let b = library::ghz(4);
        let packed = pack(&[&a, &b], &t).unwrap();
        let region_error = |layout: &Layout| {
            let qs: Vec<usize> = layout.as_slice().to_vec();
            let mut errs = Vec::new();
            for (i, &p) in qs.iter().enumerate() {
                for &q in &qs[i + 1..] {
                    if t.topology().are_coupled(p, q) {
                        errs.push(t.cx_error_or(p, q, 1.0));
                    }
                }
            }
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        assert!(region_error(&packed.layouts[0]) <= region_error(&packed.layouts[1]) + 1e-9);
    }

    #[test]
    fn overpacking_fails_cleanly() {
        let a = library::ghz(15);
        let b = library::ghz(15);
        let err = pack(&[&a, &b], &target()).unwrap_err();
        assert!(matches!(err, TranspileError::NoConnectedRegion { .. }));
    }

    #[test]
    fn combined_width_is_machine_register() {
        let a = library::ghz(3);
        let packed = pack(&[&a], &target()).unwrap();
        assert_eq!(packed.combined.num_qubits(), 27);
        assert_eq!(packed.clbit_offsets, vec![0]);
    }
}
