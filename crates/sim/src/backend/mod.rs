//! Multi-backend simulation: per-circuit engine selection.
//!
//! The noisy simulator has three execution engines ([`BackendKind`]):
//!
//! - **dense**: the SIMD statevector hot path (pre-decoded kernels,
//!   skip-ahead, prefix checkpoints) — exact for every circuit, memory
//!   `2^n`, capped at [`crate::DENSE_MAX_QUBITS`].
//! - **stabilizer**: an Aaronson–Gottesman tableau — Clifford circuits
//!   only, `O(n²)` memory, so the paper's 65-qubit Manhattan is as cheap
//!   as a 5-qubit machine.
//! - **sparse**: a map-keyed statevector — any gate set, memory
//!   proportional to the state's support, profitable when few gates
//!   branch the computational basis.
//!
//! [`BackendDispatcher`] inspects each circuit once ([`CircuitProfile`])
//! and routes it ([`BackendDispatcher::plan`]); [`NoisySimulator::run`]
//! delegates here unconditionally, so callers keep a single entry point.
//! Routing preserves the repo's bit-identity contract: circuits the
//! dense engine can hold always take the dense path, so every
//! pre-existing result is unchanged, and the wider-only alternatives are
//! property-tested against the dense oracle on their overlapping
//! domains (see DESIGN.md §4i for the per-backend equivalence
//! statements). A circuit outside all three domains gets the typed
//! [`SimError::NoBackend`]; there is no distribution-only fallback
//! route.
//!
//! [`NoisySimulator::run`]: crate::NoisySimulator::run

mod clifford;
pub(crate) mod sparse;
pub(crate) mod stabilizer;

use qcs_calibration::CalibrationSnapshot;
use qcs_circuit::{Circuit, Gate};

use crate::{Counts, NoisySimulator, SimError, DENSE_MAX_QUBITS};

pub use sparse::{sparse_amplitudes, SPARSE_MAX_AMPS, SPARSE_MAX_QUBITS};
pub use stabilizer::STABILIZER_MAX_QUBITS;

/// Widest classical register any backend records: one `u64` outcome word
/// in [`Counts`]. A register limit, not a state limit — a 65-qubit
/// machine simulates fine, but at most 64 of its qubits can land in one
/// outcome word (see [`crate::clifford_pos_circuit`]).
pub const MAX_CLBITS: usize = 64;

/// Largest `log2(support)` the dispatcher will route to the sparse
/// backend: up to `2^20` simultaneously nonzero amplitudes (16 MiB of
/// map payload), comfortably under [`SPARSE_MAX_AMPS`].
pub const SPARSE_MAX_BRANCH_LOG2: usize = 20;

/// The three execution engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Dense SIMD statevector (the original engine).
    Dense,
    /// Aaronson–Gottesman stabilizer tableau.
    Stabilizer,
    /// Map-keyed sparse statevector.
    Sparse,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Dense => "dense",
            BackendKind::Stabilizer => "stabilizer",
            BackendKind::Sparse => "sparse",
        })
    }
}

/// Backend selection policy of a [`NoisySimulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Route each circuit through [`BackendDispatcher::plan`].
    #[default]
    Auto,
    /// Pin one engine; [`NoisySimulator::run`] errors
    /// ([`SimError::NoBackend`]) when that engine cannot faithfully
    /// execute the circuit.
    ///
    /// [`NoisySimulator::run`]: crate::NoisySimulator::run
    Force(BackendKind),
}

/// What the dispatcher learns from one pass over a circuit's
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Qubit count.
    pub width: usize,
    /// Every instruction is Clifford (at the gate-angle level; see the
    /// module docs of the stabilizer backend).
    pub clifford: bool,
    /// Contains a mid-circuit reset (dense-only: its projective draw
    /// depends on the evolving state).
    pub has_reset: bool,
    /// `min(width, branching instruction count)` over the whole
    /// circuit — `log2` of an upper bound on the reachable support.
    pub branch_log2: usize,
}

impl CircuitProfile {
    /// Profile `circuit` in one pass.
    #[must_use]
    pub fn of(circuit: &Circuit) -> Self {
        let width = circuit.num_qubits();
        let mut scratch = Vec::new();
        let mut clifford = true;
        let mut has_reset = false;
        let mut branch_count = 0usize;
        for inst in circuit.instructions() {
            if inst.gate == Gate::Reset {
                has_reset = true;
            }
            scratch.clear();
            let is_clifford = clifford::push_clifford_ops(inst, &mut scratch);
            let branches = if is_clifford {
                scratch
                    .iter()
                    .any(|op| matches!(op, clifford::CliffordOp::H(_)))
            } else {
                clifford = false;
                clifford::branches(inst, &mut scratch)
            };
            if branches {
                branch_count += 1;
            }
        }
        CircuitProfile {
            width,
            clifford,
            has_reset,
            branch_log2: branch_count.min(width),
        }
    }
}

/// Whether engine `kind` can faithfully execute a circuit with `profile`
/// under `sim`'s configuration (noise model flags).
fn supports(kind: BackendKind, sim: &NoisySimulator, profile: &CircuitProfile) -> bool {
    match kind {
        BackendKind::Dense => profile.width <= DENSE_MAX_QUBITS,
        BackendKind::Stabilizer => {
            profile.clifford
                && !profile.has_reset
                && !sim.decoherence
                && profile.width <= STABILIZER_MAX_QUBITS
        }
        BackendKind::Sparse => {
            !profile.has_reset
                && !sim.decoherence
                && profile.width <= SPARSE_MAX_QUBITS
                && profile.branch_log2 <= SPARSE_MAX_BRANCH_LOG2
        }
    }
}

/// Routes each circuit to an engine (see the module docs for the
/// policy).
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendDispatcher;

impl BackendDispatcher {
    /// Resolve the route [`NoisySimulator::run`] will take for
    /// `circuit` under `sim`'s [`BackendChoice`], without running
    /// anything.
    ///
    /// Under [`BackendChoice::Auto`]: dense whenever the circuit fits
    /// ([`crate::DENSE_MAX_QUBITS`]) — the bit-for-bit original path —
    /// then, for wider circuits, stabilizer, then sparse. Under
    /// [`BackendChoice::Force`], the pinned engine or an error.
    ///
    /// [`NoisySimulator::run`]: crate::NoisySimulator::run
    ///
    /// # Errors
    ///
    /// [`SimError::NoBackend`] when no engine (or the forced engine)
    /// can faithfully execute the circuit.
    pub fn plan(sim: &NoisySimulator, circuit: &Circuit) -> Result<BackendKind, SimError> {
        let profile = CircuitProfile::of(circuit);
        let width = profile.width;
        let eligible = |kind| supports(kind, sim, &profile);
        match sim.backend {
            BackendChoice::Force(kind) if eligible(kind) => Ok(kind),
            BackendChoice::Force(BackendKind::Dense) => {
                Err(SimError::TooManyQubits { requested: width })
            }
            BackendChoice::Force(BackendKind::Stabilizer) => Err(SimError::NoBackend {
                width,
                reason: "stabilizer backend needs a reset-free Clifford circuit \
                         (≤ 127 qubits) without decoherence",
            }),
            BackendChoice::Force(BackendKind::Sparse) => Err(SimError::NoBackend {
                width,
                reason: "sparse backend needs a reset-free circuit (≤ 64 qubits) \
                         with a bounded branching count and no decoherence",
            }),
            BackendChoice::Auto => {
                if eligible(BackendKind::Dense) {
                    return Ok(BackendKind::Dense);
                }
                if sim.decoherence {
                    return Err(SimError::NoBackend {
                        width,
                        reason: "decoherence requires the dense backend \
                                 (amplitude-damping draws depend on the state)",
                    });
                }
                if profile.has_reset {
                    return Err(SimError::NoBackend {
                        width,
                        reason: "mid-circuit reset requires the dense backend \
                                 (its projective draw depends on the state)",
                    });
                }
                [BackendKind::Stabilizer, BackendKind::Sparse]
                    .into_iter()
                    .find(|&kind| eligible(kind))
                    .ok_or(SimError::NoBackend {
                        width,
                        reason: "wider than every engine's domain: not Clifford \
                                 (stabilizer), branches too much (sparse)",
                    })
            }
        }
    }

    /// Plan and execute — the body of [`NoisySimulator::run`].
    ///
    /// [`NoisySimulator::run`]: crate::NoisySimulator::run
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] from planning or from the selected engine.
    pub fn execute(
        sim: &NoisySimulator,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        shots: u32,
    ) -> Result<Counts, SimError> {
        match Self::plan(sim, circuit)? {
            BackendKind::Dense => sim.run_dense(circuit, snapshot, shots),
            BackendKind::Stabilizer => stabilizer::run(sim, circuit, snapshot, shots),
            BackendKind::Sparse => sparse::run(sim, circuit, snapshot, shots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clifford_pos_circuit;

    fn auto_sim() -> NoisySimulator {
        NoisySimulator::with_seed(1)
    }

    #[test]
    fn narrow_circuits_stay_dense() {
        // The bit-identity contract: anything the dense engine can hold
        // routes dense, even when it is pure Clifford.
        let c = clifford_pos_circuit(5);
        assert_eq!(
            BackendDispatcher::plan(&auto_sim(), &c).unwrap(),
            BackendKind::Dense
        );
    }

    #[test]
    fn wide_clifford_routes_to_stabilizer() {
        let c = clifford_pos_circuit(65);
        assert_eq!(
            BackendDispatcher::plan(&auto_sim(), &c).unwrap(),
            BackendKind::Stabilizer
        );
        assert_eq!(
            auto_sim().planned_backend(&c).unwrap(),
            BackendKind::Stabilizer
        );
    }

    #[test]
    fn wide_low_branching_routes_to_sparse() {
        let mut c = Circuit::new(30);
        c.h(0);
        for q in 1..30 {
            c.cx(q - 1, q);
        }
        c.t(7); // non-Clifford, diagonal: no extra branching
        c.measure_all();
        let profile = CircuitProfile::of(&c);
        assert!(!profile.clifford);
        assert_eq!(profile.branch_log2, 1);
        assert_eq!(
            BackendDispatcher::plan(&auto_sim(), &c).unwrap(),
            BackendKind::Sparse
        );
    }

    #[test]
    fn heavy_prefix_narrow_tail_has_no_backend() {
        // 60 H's branch too much for the sparse engine and the T/Ry tail
        // rules out the tableau: the answer is a typed error, not a
        // distribution-only approximation.
        let mut c = Circuit::new(30);
        for q in 0..30 {
            c.h(q);
        }
        for q in 0..30 {
            c.h(q);
        }
        c.t(0).ry(0.3, 1);
        c.measure_all();
        let err = BackendDispatcher::plan(&auto_sim(), &c).unwrap_err();
        assert!(matches!(err, SimError::NoBackend { width: 30, .. }), "{err}");
    }

    #[test]
    fn wide_branchy_non_clifford_has_no_backend() {
        let mut c = Circuit::new(30);
        for q in 0..30 {
            c.ry(0.3, q);
        }
        c.measure_all();
        let err = BackendDispatcher::plan(&auto_sim(), &c).unwrap_err();
        assert!(matches!(err, SimError::NoBackend { width: 30, .. }), "{err}");
    }

    #[test]
    fn decoherence_blocks_wide_backends() {
        let c = clifford_pos_circuit(65);
        let sim = auto_sim().with_decoherence();
        assert!(matches!(
            BackendDispatcher::plan(&sim, &c),
            Err(SimError::NoBackend { .. })
        ));
    }

    #[test]
    fn forced_backends_validate_eligibility() {
        let narrow = clifford_pos_circuit(5);
        let wide = clifford_pos_circuit(65);
        let sim = auto_sim();
        // Dense refuses what it cannot hold.
        assert!(matches!(
            BackendDispatcher::plan(&sim.with_backend(BackendChoice::Force(BackendKind::Dense)), &wide),
            Err(SimError::TooManyQubits { requested: 65 })
        ));
        // Stabilizer accepts narrow Clifford circuits when forced.
        assert_eq!(
            BackendDispatcher::plan(
                &sim.with_backend(BackendChoice::Force(BackendKind::Stabilizer)),
                &narrow
            )
            .unwrap(),
            BackendKind::Stabilizer
        );
        // Stabilizer refuses non-Clifford circuits.
        let mut t_circ = Circuit::new(2);
        t_circ.h(0).t(0).measure_all();
        assert!(matches!(
            BackendDispatcher::plan(
                &sim.with_backend(BackendChoice::Force(BackendKind::Stabilizer)),
                &t_circ
            ),
            Err(SimError::NoBackend { .. })
        ));
        // Sparse refuses circuits wider than its keys.
        assert!(matches!(
            BackendDispatcher::plan(
                &sim.with_backend(BackendChoice::Force(BackendKind::Sparse)),
                &clifford_pos_circuit(70)
            ),
            Err(SimError::NoBackend { .. })
        ));
    }

    #[test]
    fn profile_of_reset_circuit() {
        let mut c = Circuit::with_clbits(3, 3);
        c.h(0).apply(Gate::Reset, &[1]).measure_all();
        let p = CircuitProfile::of(&c);
        assert!(p.has_reset);
        assert!(!p.clifford);
    }

    #[test]
    fn backend_kind_labels() {
        assert_eq!(BackendKind::Dense.to_string(), "dense");
        assert_eq!(BackendKind::Stabilizer.to_string(), "stabilizer");
        assert_eq!(BackendKind::Sparse.to_string(), "sparse");
    }
}
