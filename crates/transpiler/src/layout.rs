//! Layout selection: mapping a circuit's logical qubits onto physical
//! machine qubits.
//!
//! Three strategies are provided, mirroring the usual compiler menu:
//!
//! * [`trivial_layout`] — identity mapping (fast, topology-blind)
//! * [`dense_layout`] — densest connected physical region (topology-aware)
//! * [`noise_aware_layout`] — lowest-error connected region with
//!   interaction-weighted placement (topology- and calibration-aware; this
//!   is the mode whose output changes across calibration cycles, Fig 12b)

use std::collections::HashMap;

use qcs_circuit::Circuit;

use crate::{Target, TranspileError};

/// A bijective-on-its-domain mapping from logical circuit qubits to
/// physical machine qubits.
///
/// # Examples
///
/// ```
/// use qcs_transpiler::Layout;
///
/// let layout = Layout::from_logical_to_physical(vec![2, 0, 1]).unwrap();
/// assert_eq!(layout.physical(1), 0);
/// assert_eq!(layout.logical(2), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    l2p: Vec<usize>,
    p2l: HashMap<usize, usize>,
}

impl Layout {
    /// Build from a logical→physical vector (`l2p[logical] = physical`).
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidLayout`] if physical qubits repeat.
    pub fn from_logical_to_physical(l2p: Vec<usize>) -> Result<Self, TranspileError> {
        let mut p2l = HashMap::with_capacity(l2p.len());
        for (logical, &physical) in l2p.iter().enumerate() {
            if p2l.insert(physical, logical).is_some() {
                return Err(TranspileError::InvalidLayout {
                    physical_qubit: physical,
                });
            }
        }
        Ok(Layout { l2p, p2l })
    }

    /// The identity layout on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Layout::from_logical_to_physical((0..n).collect()).expect("identity is valid")
    }

    /// Physical qubit hosting `logical`.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    #[must_use]
    pub fn physical(&self, logical: usize) -> usize {
        self.l2p[logical]
    }

    /// Logical qubit on `physical`, if any.
    #[must_use]
    pub fn logical(&self, physical: usize) -> Option<usize> {
        self.p2l.get(&physical).copied()
    }

    /// The logical→physical vector.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.l2p
    }

    /// Rewrite `circuit` onto the physical register of `num_physical`
    /// qubits according to this layout.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the layout.
    #[must_use]
    pub fn apply(&self, circuit: &Circuit, num_physical: usize) -> Circuit {
        assert!(
            circuit.num_qubits() <= self.l2p.len(),
            "circuit wider than layout"
        );
        circuit.remapped(num_physical, |q| {
            qcs_circuit::Qubit::from(self.l2p[q.index()])
        })
    }
}

/// The logical interaction graph of a circuit: how many two-qubit gates
/// couple each pair of logical qubits.
#[must_use]
pub fn interaction_weights(circuit: &Circuit) -> HashMap<(usize, usize), usize> {
    let mut weights = HashMap::new();
    for inst in circuit.instructions() {
        if inst.gate.is_two_qubit() {
            let a = inst.qubits[0].index();
            let b = inst.qubits[1].index();
            *weights.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    }
    weights
}

/// Identity layout; fails if the circuit does not fit the target.
///
/// # Errors
///
/// Returns [`TranspileError::CircuitTooWide`] if the circuit needs more
/// qubits than the target has.
pub fn trivial_layout(circuit: &Circuit, target: &Target) -> Result<Layout, TranspileError> {
    check_width(circuit, target)?;
    Ok(Layout::identity(circuit.num_qubits()))
}

/// Pick the densest connected physical region of the right size, then map
/// logical qubits onto it by interaction order.
///
/// # Errors
///
/// Returns [`TranspileError::CircuitTooWide`] if the circuit does not fit,
/// or [`TranspileError::NoConnectedRegion`] if the target has no connected
/// region of the required size.
pub fn dense_layout(circuit: &Circuit, target: &Target) -> Result<Layout, TranspileError> {
    check_width(circuit, target)?;
    let blocked = vec![false; target.num_qubits()];
    let region = best_region(circuit, target, RegionObjective::Density, &blocked)?;
    Ok(place_by_interaction(circuit, target, &region))
}

/// Pick the connected physical region minimizing aggregate CX and readout
/// error, then map logical qubits onto it by interaction order. This is
/// the "noise-aware mapping ... the noise information of physical qubits
/// is incorporated into the optimal mapping" of the paper's Fig 12b.
///
/// # Errors
///
/// Same error conditions as [`dense_layout`].
pub fn noise_aware_layout(circuit: &Circuit, target: &Target) -> Result<Layout, TranspileError> {
    noise_aware_layout_excluding(circuit, target, &[])
}

/// [`noise_aware_layout`] restricted to physical qubits *not* in
/// `excluded` — the building block of multiprogramming (paper §IV ③),
/// where several circuits are packed onto disjoint machine regions.
///
/// # Errors
///
/// Same error conditions as [`dense_layout`]; exclusion shrinks the
/// available region, so packing too much returns
/// [`TranspileError::NoConnectedRegion`].
pub fn noise_aware_layout_excluding(
    circuit: &Circuit,
    target: &Target,
    excluded: &[usize],
) -> Result<Layout, TranspileError> {
    check_width(circuit, target)?;
    let mut blocked = vec![false; target.num_qubits()];
    for &q in excluded {
        if q < blocked.len() {
            blocked[q] = true;
        }
    }
    let region = best_region(circuit, target, RegionObjective::LowError, &blocked)?;
    Ok(place_by_interaction(circuit, target, &region))
}

fn check_width(circuit: &Circuit, target: &Target) -> Result<(), TranspileError> {
    if circuit.num_qubits() > target.num_qubits() {
        return Err(TranspileError::CircuitTooWide {
            circuit_qubits: circuit.num_qubits(),
            target_qubits: target.num_qubits(),
        });
    }
    Ok(())
}

enum RegionObjective {
    Density,
    LowError,
}

/// Greedily grow a connected region of `k` physical qubits from every
/// possible seed; keep the best-scoring region.
fn best_region(
    circuit: &Circuit,
    target: &Target,
    objective: RegionObjective,
    blocked: &[bool],
) -> Result<Vec<usize>, TranspileError> {
    let k = circuit.num_qubits();
    let graph = target.topology();
    let n = graph.num_qubits();
    if k == 0 {
        return Ok(Vec::new());
    }
    if k == 1 {
        // Pick the single best available qubit.
        let best = (0..n)
            .filter(|&q| !blocked[q])
            .min_by(|&a, &b| {
                let ea = target.snapshot().qubit(a).readout_error;
                let eb = target.snapshot().qubit(b).readout_error;
                ea.partial_cmp(&eb).expect("readout errors are finite")
            })
            .ok_or(TranspileError::NoConnectedRegion {
                required: 1,
                target_qubits: n,
            })?;
        return Ok(vec![best]);
    }

    let mut best_region: Option<(f64, Vec<usize>)> = None;
    for seed in (0..n).filter(|&q| !blocked[q]) {
        let mut region = vec![seed];
        let mut in_region = blocked.to_vec();
        in_region[seed] = true;
        while region.len() < k {
            // Candidate frontier: neighbors of the region.
            let mut best_cand: Option<(f64, usize)> = None;
            for &r in &region {
                for &v in graph.neighbors(r) {
                    if in_region[v] {
                        continue;
                    }
                    let score = match objective {
                        RegionObjective::Density => {
                            // Maximize edges into region (negated: lower is better).
                            -(graph
                                .neighbors(v)
                                .iter()
                                .filter(|&&u| in_region[u])
                                .count() as f64)
                        }
                        RegionObjective::LowError => {
                            // Average error of edges connecting v to the region
                            // plus its readout error.
                            let edges: Vec<f64> = graph
                                .neighbors(v)
                                .iter()
                                .filter(|&&u| in_region[u])
                                .map(|&u| target.cx_error_or(v, u, 1.0))
                                .collect();
                            let avg_edge =
                                edges.iter().sum::<f64>() / edges.len().max(1) as f64;
                            avg_edge + 0.5 * target.snapshot().qubit(v).readout_error
                        }
                    };
                    let better = best_cand
                        .as_ref()
                        .is_none_or(|&(s, q)| score < s || (score == s && v < q));
                    if better {
                        best_cand = Some((score, v));
                    }
                }
            }
            match best_cand {
                Some((_, v)) => {
                    in_region[v] = true;
                    region.push(v);
                }
                None => break, // ran out of connected qubits from this seed
            }
        }
        if region.len() < k {
            continue;
        }
        let score = region_score(target, &region, &objective);
        let better = best_region
            .as_ref()
            .is_none_or(|(s, _)| score < *s);
        if better {
            best_region = Some((score, region));
        }
    }
    best_region
        .map(|(_, r)| r)
        .ok_or(TranspileError::NoConnectedRegion {
            required: k,
            target_qubits: n,
        })
}

fn region_score(target: &Target, region: &[usize], objective: &RegionObjective) -> f64 {
    let in_region: std::collections::HashSet<usize> = region.iter().copied().collect();
    let mut edge_count = 0usize;
    let mut err_sum = 0.0f64;
    for &(a, b) in target.topology().edges() {
        if in_region.contains(&a) && in_region.contains(&b) {
            edge_count += 1;
            err_sum += target.cx_error_or(a, b, 1.0);
        }
    }
    match objective {
        // More internal edges is better.
        RegionObjective::Density => -(edge_count as f64),
        // Lower mean edge error + readout is better.
        RegionObjective::LowError => {
            let ro: f64 = region
                .iter()
                .map(|&q| target.snapshot().qubit(q).readout_error)
                .sum();
            err_sum / edge_count.max(1) as f64 + 0.2 * ro / region.len().max(1) as f64
        }
    }
}

/// Assign logical qubits to the chosen physical region: most-interacting
/// logical qubits go to the best-connected physical slots, and neighbors
/// in the interaction graph are kept adjacent where possible.
fn place_by_interaction(circuit: &Circuit, target: &Target, region: &[usize]) -> Layout {
    let k = circuit.num_qubits();
    let weights = interaction_weights(circuit);
    // Logical qubit total interaction degree.
    let mut logical_weight = vec![0usize; k];
    for (&(a, b), &w) in &weights {
        logical_weight[a] += w;
        logical_weight[b] += w;
    }
    let mut logical_order: Vec<usize> = (0..k).collect();
    logical_order.sort_by_key(|&q| std::cmp::Reverse(logical_weight[q]));

    // Physical slot quality: degree within region, then inverse error.
    let in_region: std::collections::HashSet<usize> = region.iter().copied().collect();
    let slot_quality = |p: usize| -> (usize, f64) {
        let deg = target
            .topology()
            .neighbors(p)
            .iter()
            .filter(|&&u| in_region.contains(&u))
            .count();
        let err: f64 = target
            .topology()
            .neighbors(p)
            .iter()
            .filter(|&&u| in_region.contains(&u))
            .map(|&u| target.cx_error_or(p, u, 1.0))
            .sum();
        (deg, -err)
    };

    let mut free: Vec<usize> = region.to_vec();
    let mut l2p = vec![usize::MAX; k];

    for &logical in &logical_order {
        // Prefer a free slot adjacent to already-placed interaction
        // partners; fall back to the best-quality free slot.
        let placed_partners: Vec<usize> = weights
            .iter()
            .filter_map(|(&(a, b), _)| {
                if a == logical && l2p[b] != usize::MAX {
                    Some(l2p[b])
                } else if b == logical && l2p[a] != usize::MAX {
                    Some(l2p[a])
                } else {
                    None
                }
            })
            .collect();
        let choice = free
            .iter()
            .copied()
            .max_by(|&p, &q| {
                let adj = |s: usize| {
                    placed_partners
                        .iter()
                        .filter(|&&pp| target.topology().are_coupled(s, pp))
                        .count()
                };
                (adj(p), slot_quality(p))
                    .partial_cmp(&(adj(q), slot_quality(q)))
                    .expect("slot scores comparable")
            })
            .expect("region has a slot for every logical qubit");
        l2p[logical] = choice;
        free.retain(|&p| p != choice);
    }
    Layout::from_logical_to_physical(l2p).expect("region slots are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;
    use qcs_topology::families;

    #[test]
    fn layout_round_trip() {
        let l = Layout::from_logical_to_physical(vec![4, 2, 0]).unwrap();
        assert_eq!(l.as_slice().len(), 3);
        assert_eq!(l.physical(0), 4);
        assert_eq!(l.logical(4), Some(0));
        assert_eq!(l.logical(1), None);
    }

    #[test]
    fn duplicate_physical_rejected() {
        let err = Layout::from_logical_to_physical(vec![1, 1]).unwrap_err();
        assert!(matches!(err, TranspileError::InvalidLayout { .. }));
    }

    #[test]
    fn apply_remaps_instructions() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let l = Layout::from_logical_to_physical(vec![3, 1]).unwrap();
        let out = l.apply(&c, 5);
        assert_eq!(out.num_qubits(), 5);
        assert_eq!(
            out.instructions()[0].qubits,
            vec![qcs_circuit::Qubit(3), qcs_circuit::Qubit(1)]
        );
    }

    #[test]
    fn trivial_fits_or_fails() {
        let t = Target::noiseless("t", families::line(3));
        let c = library::ghz(3);
        assert!(trivial_layout(&c, &t).is_ok());
        let wide = library::ghz(4);
        assert!(matches!(
            trivial_layout(&wide, &t),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn dense_layout_picks_connected_region() {
        // Star graph: 4-qubit circuit on 9-qubit star must include hub 0.
        let t = Target::uniform("star", families::star(9), 3);
        let c = library::ghz(4);
        let l = dense_layout(&c, &t).unwrap();
        let physical: Vec<usize> = (0..4).map(|q| l.physical(q)).collect();
        assert!(physical.contains(&0), "region {physical:?} must use hub");
    }

    #[test]
    fn noise_aware_prefers_clean_edges() {
        // Line of 5; make edge (0,1) pristine and (3,4) horrid by seed
        // search: instead verify determinism + that chosen region is
        // connected.
        let t = Target::uniform("line", families::line(5), 7);
        let c = library::ghz(2);
        let l = noise_aware_layout(&c, &t).unwrap();
        let (a, b) = (l.physical(0), l.physical(1));
        assert!(t.topology().are_coupled(a, b));
        // It picked the minimum-error edge among all edges.
        let chosen = t.cx_error_or(a, b, 9.0);
        let best = t
            .topology()
            .edges()
            .iter()
            .map(|&(x, y)| t.cx_error_or(x, y, 9.0))
            .fold(f64::INFINITY, f64::min);
        assert!((chosen - best).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_picks_best_readout() {
        let t = Target::uniform("line", families::line(5), 11);
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        let l = noise_aware_layout(&c, &t).unwrap();
        let p = l.physical(0);
        let best = (0..5)
            .map(|q| t.snapshot().qubit(q).readout_error)
            .fold(f64::INFINITY, f64::min);
        assert!((t.snapshot().qubit(p).readout_error - best).abs() < 1e-12);
    }

    #[test]
    fn no_connected_region_detected() {
        // Two disconnected 2-qubit islands cannot host a 3-qubit circuit.
        let g = qcs_topology::CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let t = Target::uniform("islands", g, 0);
        let c = library::ghz(3);
        assert!(matches!(
            dense_layout(&c, &t),
            Err(TranspileError::NoConnectedRegion { .. })
        ));
    }

    #[test]
    fn interaction_weights_counts_pairs() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 0).cx(1, 2);
        let w = interaction_weights(&c);
        assert_eq!(w[&(0, 1)], 2);
        assert_eq!(w[&(1, 2)], 1);
    }

    #[test]
    fn layouts_differ_across_calibrations() {
        // Fig 12b: the same circuit compiled against consecutive days can
        // land on different physical qubits.
        use qcs_machine::Fleet;
        let fleet = Fleet::ibm_like();
        let machine = fleet.get("toronto").unwrap();
        let c = library::qft(4);
        let mut distinct = false;
        for day in 0..10 {
            let t0 = Target::new(
                "d0",
                machine.topology().clone(),
                machine.profile().snapshot(machine.topology(), day),
            );
            let t1 = Target::new(
                "d1",
                machine.topology().clone(),
                machine.profile().snapshot(machine.topology(), day + 1),
            );
            let l0 = noise_aware_layout(&c, &t0).unwrap();
            let l1 = noise_aware_layout(&c, &t1).unwrap();
            if l0 != l1 {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "noise-aware layout never changed across 10 days");
    }
}
