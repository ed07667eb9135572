//! Routing: inserting SWAPs so every two-qubit gate acts on coupled
//! physical qubits.
//!
//! Two strategies:
//!
//! * [`naive_route`] — walk each non-adjacent gate's endpoints together
//!   along a BFS shortest path (fast, high SWAP count)
//! * [`sabre_route`] — a SABRE-style heuristic with a front layer,
//!   lookahead window, and decay, producing far fewer SWAPs at higher
//!   compile cost. Together with layout this is the expensive pass of the
//!   paper's Fig 5.
//!
//! Routing input is a *post-layout* circuit: operands are physical qubit
//! indices on the target. SWAPs are inserted as explicit [`Gate::Swap`]
//! instructions (decomposed into CX later by the basis pass).

use qcs_circuit::{Circuit, Clbit, Gate, Instruction, Qubit};

use crate::{Target, TranspileError};

/// Split a circuit into its gate body and its measurements.
///
/// Measurements in this system are *terminal* readout (the simulator
/// defers them too), so routing moves them after all gates and emits them
/// at each wire's final physical location. Emitting them inline would let
/// a later SWAP reuse a measured physical qubit, which has no meaning
/// under terminal-measurement semantics.
fn split_measures(circuit: &Circuit) -> (Vec<&Instruction>, Vec<(Qubit, Clbit)>) {
    let mut body = Vec::new();
    let mut measures = Vec::new();
    for inst in circuit.instructions() {
        if inst.gate == Gate::Measure {
            measures.push((inst.qubits()[0], inst.clbits()[0]));
        } else {
            body.push(inst);
        }
    }
    (body, measures)
}

/// Outcome of a routing pass.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// The routed circuit (operands are physical qubits; contains SWAPs).
    pub circuit: Circuit,
    /// Final wire→physical placement after all inserted SWAPs.
    pub final_placement: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Route by moving gate endpoints together along shortest paths.
///
/// # Errors
///
/// Returns [`TranspileError`] if a gate's endpoints are disconnected on the
/// target.
pub fn naive_route(circuit: &Circuit, target: &Target) -> Result<RoutingResult, TranspileError> {
    let n = target.num_qubits();
    check_input(circuit, target)?;
    let graph = target.topology();
    let mut loc: Vec<usize> = (0..n).collect(); // wire -> physical
    let mut at: Vec<usize> = (0..n).collect(); // physical -> wire
    let mut out = Circuit::with_clbits(n, circuit.num_clbits().max(n));
    let mut swaps = 0usize;
    let (body, measures) = split_measures(circuit);

    for inst in body {
        if inst.gate.is_two_qubit() {
            let (wa, wb) = (inst.qubits()[0].index(), inst.qubits()[1].index());
            let (mut pa, pb) = (loc[wa], loc[wb]);
            if !graph.are_coupled(pa, pb) {
                let path =
                    graph
                        .shortest_path(pa, pb)
                        .ok_or(TranspileError::DisconnectedQubits {
                            a: pa,
                            b: pb,
                            target: target.name().to_string(),
                        })?;
                // Walk wire `wa` along the path until adjacent to pb.
                for &next in &path[1..path.len() - 1] {
                    out.push(Instruction::gate(
                        Gate::Swap,
                        &[Qubit::from(pa), Qubit::from(next)],
                    ));
                    swaps += 1;
                    let other_wire = at[next];
                    at.swap(pa, next);
                    loc[other_wire] = pa;
                    loc[wa] = next;
                    pa = next;
                }
            }
            out.push(inst.map_qubits(|q| Qubit::from(loc[q.index()])));
        } else {
            out.push(inst.map_qubits(|q| Qubit::from(loc[q.index()])));
        }
    }
    for (wire, clbit) in measures {
        out.push(Instruction::measure(Qubit::from(loc[wire.index()]), clbit));
    }
    Ok(RoutingResult {
        circuit: out,
        final_placement: loc,
        swaps_inserted: swaps,
    })
}

/// Size of [`sabre_route`]'s lookahead (extended) gate window.
const LOOKAHEAD: usize = 20;
/// Weight of the lookahead term relative to the front layer.
const LOOKAHEAD_WEIGHT: f64 = 0.5;
/// Additive decay applied to recently-swapped qubits' scores.
const DECAY_INCREMENT: f64 = 0.001;

/// SABRE-style routing.
///
/// # Errors
///
/// Returns [`TranspileError`] if the circuit cannot be routed (disconnected
/// target component, or the internal safety budget is exceeded).
pub fn sabre_route(circuit: &Circuit, target: &Target) -> Result<RoutingResult, TranspileError> {
    let n = target.num_qubits();
    check_input(circuit, target)?;
    let graph = target.topology();
    // Row-major: the distance from `a` to `b` is `dist[a * n + b]`.
    let dist = graph.distance_matrix();

    let (insts, measures) = split_measures(circuit);
    let num_insts = insts.len();

    // Dependency structure: per-qubit chains.
    let mut indegree = vec![0usize; num_insts];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); num_insts];
    {
        let mut last_on: Vec<Option<usize>> = vec![None; n];
        let mut preds: Vec<usize> = Vec::new();
        for (idx, inst) in insts.iter().enumerate() {
            preds.clear();
            preds.extend(inst.qubits().iter().filter_map(|q| last_on[q.index()]));
            preds.sort_unstable();
            preds.dedup();
            indegree[idx] = preds.len();
            for &p in &preds {
                successors[p].push(idx);
            }
            for q in inst.qubits() {
                last_on[q.index()] = Some(idx);
            }
        }
    }

    let mut loc: Vec<usize> = (0..n).collect();
    let mut at: Vec<usize> = (0..n).collect();
    let mut out = Circuit::with_clbits(n, circuit.num_clbits().max(n));
    let mut swaps = 0usize;
    let mut executed = 0usize;
    let mut decay = vec![0.0f64; n];

    let mut ready: Vec<usize> = (0..num_insts).filter(|&i| indegree[i] == 0).collect();

    // Safety budget: no sane routing needs more SWAPs than this. The
    // diameter is the largest distance, or unknown on a disconnected graph.
    let diameter = if dist.contains(&usize::MAX) {
        None
    } else {
        dist.iter().copied().max()
    };
    let swap_budget = 10 * (num_insts + 1) * (diameter.unwrap_or(n) + 1);

    // Buffers reused across SWAP steps. `seen[i] == stamp` marks the
    // instructions the current step's lookahead walk has reached.
    let mut next_ready: Vec<usize> = Vec::new();
    let mut front: Vec<(usize, usize)> = Vec::new();
    let mut lookahead: Vec<(usize, usize)> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut next: Vec<usize> = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut seen = vec![0u64; num_insts];
    let mut stamp = 0u64;

    while executed < num_insts {
        // Phase 1: drain everything executable.
        let mut progressed = true;
        while progressed {
            progressed = false;
            next_ready.clear();
            for &idx in &ready {
                let inst = &insts[idx];
                let executable = if inst.gate.is_two_qubit() {
                    let pa = loc[inst.qubits()[0].index()];
                    let pb = loc[inst.qubits()[1].index()];
                    graph.are_coupled(pa, pb)
                } else {
                    true
                };
                if executable {
                    out.push(inst.map_qubits(|q| Qubit::from(loc[q.index()])));
                    executed += 1;
                    progressed = true;
                    for &s in &successors[idx] {
                        indegree[s] -= 1;
                        if indegree[s] == 0 {
                            next_ready.push(s);
                        }
                    }
                } else {
                    next_ready.push(idx);
                }
            }
            std::mem::swap(&mut ready, &mut next_ready);
            if progressed {
                // Progress resets decay, per the SABRE heuristic.
                decay.iter_mut().for_each(|d| *d = 0.0);
            }
        }
        if executed == num_insts {
            break;
        }

        // Phase 2: the front layer is blocked; pick the best SWAP.
        let on_loc = |i: usize| {
            (
                loc[insts[i].qubits()[0].index()],
                loc[insts[i].qubits()[1].index()],
            )
        };
        frontier.clear();
        frontier.extend(
            ready
                .iter()
                .copied()
                .filter(|&i| insts[i].gate.is_two_qubit()),
        );
        front.clear();
        front.extend(frontier.iter().map(|&i| on_loc(i)));
        debug_assert!(!front.is_empty(), "blocked without blocked 2q gates");

        // Lookahead window: upcoming 2q gates reached by walking the
        // dependency successors of the blocked front gates.
        stamp += 1;
        for &i in &frontier {
            seen[i] = stamp;
        }
        lookahead.clear();
        'walk: while !frontier.is_empty() && lookahead.len() < LOOKAHEAD {
            next.clear();
            for &idx in &frontier {
                for &s in &successors[idx] {
                    if seen[s] != stamp {
                        seen[s] = stamp;
                        if insts[s].gate.is_two_qubit() {
                            lookahead.push(on_loc(s));
                            if lookahead.len() >= LOOKAHEAD {
                                break 'walk;
                            }
                        }
                        next.push(s);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }

        // Candidate swaps: edges touching a front-gate qubit (collected
        // from adjacency lists rather than scanning the whole edge set).
        candidates.clear();
        for &(pa, pb) in &front {
            for &q in [pa, pb].iter() {
                for &nb in graph.neighbors(q) {
                    candidates.push((q.min(nb), q.max(nb)));
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<(f64, (usize, usize))> = None;
        for &(a, b) in &candidates {
            // Score = front distance sum + weighted lookahead, after the
            // hypothetical swap of physical qubits a<->b.
            let swapped = |p: usize| -> usize {
                if p == a {
                    b
                } else if p == b {
                    a
                } else {
                    p
                }
            };
            let front_cost: f64 = front
                .iter()
                .map(|&(pa, pb)| dist[swapped(pa) * n + swapped(pb)] as f64)
                .sum();
            let look_cost: f64 = lookahead
                .iter()
                .map(|&(pa, pb)| dist[swapped(pa) * n + swapped(pb)] as f64)
                .sum::<f64>()
                / lookahead.len().max(1) as f64;
            let score = (front_cost / front.len() as f64 + LOOKAHEAD_WEIGHT * look_cost)
                * (1.0 + decay[a] + decay[b]);
            let better = best
                .as_ref()
                .is_none_or(|&(s, e)| score < s - 1e-12 || (score < s + 1e-12 && (a, b) < e));
            if better {
                best = Some((score, (a, b)));
            }
        }
        let (_, (a, b)) = best.expect("coupled target always has candidate swaps");
        out.push(Instruction::gate(
            Gate::Swap,
            &[Qubit::from(a), Qubit::from(b)],
        ));
        swaps += 1;
        if swaps > swap_budget {
            return Err(TranspileError::RoutingBudgetExceeded {
                swaps,
                target: target.name().to_string(),
            });
        }
        decay[a] += DECAY_INCREMENT;
        decay[b] += DECAY_INCREMENT;
        let (wa, wb) = (at[a], at[b]);
        at.swap(a, b);
        loc[wa] = b;
        loc[wb] = a;
    }

    for (wire, clbit) in measures {
        out.push(Instruction::measure(Qubit::from(loc[wire.index()]), clbit));
    }
    Ok(RoutingResult {
        circuit: out,
        final_placement: loc,
        swaps_inserted: swaps,
    })
}

fn check_input(circuit: &Circuit, target: &Target) -> Result<(), TranspileError> {
    if circuit.num_qubits() > target.num_qubits() {
        return Err(TranspileError::CircuitTooWide {
            circuit_qubits: circuit.num_qubits(),
            target_qubits: target.num_qubits(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;
    use qcs_topology::families;

    fn routed_ok(result: &RoutingResult, target: &Target) {
        for inst in result.circuit.instructions() {
            if inst.gate.is_two_qubit() {
                let (a, b) = (inst.qubits()[0].index(), inst.qubits()[1].index());
                assert!(
                    target.topology().are_coupled(a, b),
                    "gate {inst} on uncoupled pair"
                );
            }
        }
    }

    fn non_swap_2q(c: &Circuit) -> usize {
        c.instructions()
            .iter()
            .filter(|i| i.gate.is_two_qubit() && i.gate != Gate::Swap)
            .count()
    }

    #[test]
    fn adjacent_gates_pass_through() {
        let t = Target::noiseless("line", families::line(3));
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        for result in [naive_route(&c, &t).unwrap(), sabre_route(&c, &t).unwrap()] {
            assert_eq!(result.swaps_inserted, 0);
            assert_eq!(result.circuit.cx_count(), 2);
        }
    }

    #[test]
    fn distant_gate_gets_swaps() {
        let t = Target::noiseless("line", families::line(5));
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let naive = naive_route(&c, &t).unwrap();
        assert_eq!(naive.swaps_inserted, 3);
        routed_ok(&naive, &t);
        let sabre = sabre_route(&c, &t).unwrap();
        assert!(sabre.swaps_inserted >= 3);
        routed_ok(&sabre, &t);
    }

    #[test]
    fn all_gates_preserved() {
        let t = Target::noiseless("line", families::line(6));
        let c = library::qft(6);
        let expected_2q = c.cx_count();
        for result in [naive_route(&c, &t).unwrap(), sabre_route(&c, &t).unwrap()] {
            routed_ok(&result, &t);
            // Original 2q gates preserved (swaps are extra).
            assert_eq!(
                non_swap_2q(&result.circuit),
                expected_2q - 3, // original contains 3 swaps (qubit reversal) which count as swap gates
            );
            assert_eq!(result.circuit.measure_count(), 6);
        }
    }

    #[test]
    fn sabre_beats_naive_on_qft() {
        let t = Target::noiseless("hummingbird", families::ibm_hummingbird_65q());
        let c = library::qft(12);
        let naive = naive_route(&c, &t).unwrap();
        let sabre = sabre_route(&c, &t).unwrap();
        routed_ok(&naive, &t);
        routed_ok(&sabre, &t);
        assert!(
            sabre.swaps_inserted < naive.swaps_inserted,
            "sabre {} vs naive {}",
            sabre.swaps_inserted,
            naive.swaps_inserted
        );
    }

    #[test]
    fn placement_tracks_swaps() {
        let t = Target::noiseless("line", families::line(4));
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let r = naive_route(&c, &t).unwrap();
        // After routing, wire 0 moved next to 3.
        let p0 = r.final_placement[0];
        assert!(t.topology().are_coupled(p0, r.final_placement[3]));
        // Placement is a permutation.
        let mut sorted = r.final_placement.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn disconnected_target_errors() {
        let g = qcs_topology::CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let t = Target::uniform("islands", g, 0);
        let mut c = Circuit::new(4);
        c.cx(0, 2);
        assert!(matches!(
            naive_route(&c, &t),
            Err(TranspileError::DisconnectedQubits { .. })
        ));
    }

    #[test]
    fn too_wide_rejected() {
        let t = Target::noiseless("line", families::line(3));
        let c = library::ghz(5);
        assert!(matches!(
            sabre_route(&c, &t),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn single_qubit_circuit_untouched() {
        let t = Target::noiseless("line", families::line(3));
        let mut c = Circuit::new(3);
        c.h(0).h(1).measure_all();
        let r = sabre_route(&c, &t).unwrap();
        assert_eq!(r.swaps_inserted, 0);
        assert_eq!(r.circuit.size(), c.size());
    }

    #[test]
    fn measurements_follow_wires() {
        // Wire 0 measured into clbit 0 must still be measured into clbit 0
        // wherever it ends up physically.
        let t = Target::noiseless("line", families::line(4));
        let mut c = Circuit::new(4);
        c.cx(0, 3).measure(0, 0);
        let r = naive_route(&c, &t).unwrap();
        let measure = r
            .circuit
            .instructions()
            .iter()
            .find(|i| i.gate == Gate::Measure)
            .unwrap();
        assert_eq!(measure.qubits()[0].index(), r.final_placement[0]);
        assert_eq!(measure.clbits()[0].index(), 0);
    }
}
