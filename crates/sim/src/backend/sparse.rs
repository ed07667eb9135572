//! Sparse statevector backend: amplitudes keyed by basis state.
//!
//! Stores only the nonzero amplitudes in a `BTreeMap<u64, Complex>`, so
//! memory and per-gate work scale with the state's *support* instead of
//! `2^n`. A wide circuit whose branching gates (H, generic rotations)
//! are few stays sparse forever — e.g. a 60-qubit circuit with 15
//! Hadamards touches at most `2^15` amplitudes per gate where the dense
//! backend would need `2^60` slots it cannot allocate.
//!
//! # Equivalence to the dense oracle
//!
//! Gate application reuses the dense path's own element operation
//! ([`mat1_apply`]) on the same amplitude pairs — absent keys are exact
//! `+0.0` amplitudes, and a dense sweep's arithmetic on an all-zero
//! pair yields zeros — so every stored
//! amplitude is bit-identical to the dense statevector's entry at the
//! same basis index (property-tested). Sampling prefix-sums the nonzero
//! probabilities in ascending basis order; the dense CDF sums the same
//! values interleaved with exact `+0.0` additions, which cannot change
//! the accumulator, so shot resolution is bit-identical too.

use std::collections::BTreeMap;

use qcs_calibration::CalibrationSnapshot;
use qcs_circuit::Circuit;
use qcs_exec::ExecConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use super::SPARSE_MAX_BRANCH_LOG2;
use crate::fusion::{instruction_kernel, mat1_apply, Kernel};
use crate::noisy::{
    dry_walk, merge_partials, pauli_word_kernels, readout_word, used_clbit_width_of_entries,
    TrajStep,
};
use crate::{Complex, Counts, NoisySimulator, SimError};

/// Widest register the sparse backend accepts: basis states are `u64`
/// keys.
pub const SPARSE_MAX_QUBITS: usize = 64;

/// Hard cap on the number of simultaneously nonzero amplitudes. The
/// dispatcher's branching bound keeps planned circuits well under this;
/// the cap is the defensive backstop for support growth the static bound
/// cannot see (and for forced-backend misuse).
pub const SPARSE_MAX_AMPS: usize = 1 << 20;

/// A statevector storing only its nonzero amplitudes, keyed by basis
/// state. Iteration order (the `BTreeMap`) is ascending basis order,
/// which the sampler depends on.
pub(crate) struct SparseState {
    n: usize,
    amps: BTreeMap<u64, Complex>,
}

impl SparseState {
    /// |0…0⟩.
    fn zero(n: usize) -> Self {
        let mut amps = BTreeMap::new();
        amps.insert(0u64, Complex::ONE);
        SparseState { n, amps }
    }

    /// Store `amp` at `key`, dropping exact zeros (either sign: a `-0.0`
    /// component is observationally identical to an absent key — every
    /// downstream product and sum treats them alike, and probabilities
    /// of both are `+0.0`).
    fn set(&mut self, key: u64, amp: Complex) {
        if amp.re == 0.0 && amp.im == 0.0 {
            self.amps.remove(&key);
        } else {
            self.amps.insert(key, amp);
        }
    }

    /// Rekey every amplitude through a basis permutation. The images of
    /// ascending keys are not themselves ascending (bit flips reorder),
    /// so this rebuilds the map rather than mutating in place.
    fn permute(&mut self, f: impl Fn(u64) -> u64) {
        let old = std::mem::take(&mut self.amps);
        for (k, v) in old {
            self.amps.insert(f(k), v);
        }
    }

    /// Apply the 2×2 unitary `m` on wire `q` to every occupied pair —
    /// the sparse counterpart of `Statevector::apply_1q`, using the
    /// identical element operation.
    fn pairwise(&mut self, q: usize, m: &[[Complex; 2]; 2]) {
        let bit = 1u64 << q;
        let mut bases: Vec<u64> = self.amps.keys().map(|&k| k & !bit).collect();
        bases.sort_unstable();
        bases.dedup();
        for base in bases {
            let a0 = self.amps.get(&base).copied().unwrap_or(Complex::ZERO);
            let a1 = self.amps.get(&(base | bit)).copied().unwrap_or(Complex::ZERO);
            let (a0, a1) = mat1_apply(m, a0, a1);
            self.set(base, a0);
            self.set(base | bit, a1);
        }
    }

    /// Apply one pre-decoded kernel, then enforce the support cap.
    fn apply_kernel(&mut self, kernel: &Kernel) -> Result<(), SimError> {
        match kernel {
            Kernel::Noop => return Ok(()),
            Kernel::X(q) => {
                let bit = 1u64 << *q;
                self.permute(|k| k ^ bit);
            }
            Kernel::Cx(c, t) => {
                let cbit = 1u64 << *c;
                let tbit = 1u64 << *t;
                self.permute(|k| if k & cbit != 0 { k ^ tbit } else { k });
            }
            Kernel::Swap(a, b) => {
                let abit = 1u64 << *a;
                let bbit = 1u64 << *b;
                self.permute(|k| {
                    if (k & abit != 0) != (k & bbit != 0) {
                        k ^ abit ^ bbit
                    } else {
                        k
                    }
                });
            }
            Kernel::Phase1(q, p) => {
                let bit = 1u64 << *q;
                for (k, v) in self.amps.iter_mut() {
                    if k & bit != 0 {
                        *v = *v * *p;
                    }
                }
            }
            Kernel::PhasePair1(q, c0, c1) => {
                let bit = 1u64 << *q;
                for (k, v) in self.amps.iter_mut() {
                    if k & bit == 0 {
                        *v = *v * *c0;
                    } else {
                        *v = *v * *c1;
                    }
                }
            }
            Kernel::CPhase(a, b, p) => {
                let mask = (1u64 << *a) | (1u64 << *b);
                for (k, v) in self.amps.iter_mut() {
                    if k & mask == mask {
                        *v = *v * *p;
                    }
                }
            }
            Kernel::Mat1(q, m) => self.pairwise(*q, m),
            Kernel::Reset(_) => return Err(SimError::Unsupported { gate: "reset" }),
        }
        if self.amps.len() > SPARSE_MAX_AMPS {
            return Err(SimError::NoBackend {
                width: self.n,
                reason: "support outgrew the sparse backend's amplitude cap",
            });
        }
        Ok(())
    }
}

/// CDF over the occupied basis states, ascending. Resolves each 53-bit
/// uniform to the exact basis state the dense [`crate::CdfSampler`]
/// search produces: the dense CDF is flat between occupied states, so its
/// first crossing index is always an occupied basis — except when a draw
/// lands beyond the final accumulated sum (float shortfall from 1.0),
/// where the dense search clamps to the top basis state `2^n − 1`; the
/// sparse sampler clamps to the same state.
struct SparseSampler {
    keys: Vec<u64>,
    cdf: Vec<f64>,
    clamp: u64,
}

impl SparseSampler {
    fn build(state: &SparseState) -> Self {
        let mut keys = Vec::with_capacity(state.amps.len());
        let mut cdf = Vec::with_capacity(state.amps.len());
        let mut acc = 0.0f64;
        for (&k, &amp) in &state.amps {
            acc += amp.norm_sqr();
            keys.push(k);
            cdf.push(acc);
        }
        let clamp = if state.n == 64 {
            u64::MAX
        } else {
            (1u64 << state.n) - 1
        };
        SparseSampler { keys, cdf, clamp }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let k = rng.next_u64() >> 11;
        let u = k as f64 * (1.0 / (1u64 << 53) as f64);
        let idx = self.cdf.partition_point(|&c| c <= u);
        if idx == self.keys.len() {
            self.clamp
        } else {
            self.keys[idx]
        }
    }
}

/// Run the noisy trajectory loop on the sparse backend. The caller
/// ([`NoisySimulator::run`] through the dispatcher) guarantees
/// decoherence is off, the circuit is reset-free, and the measured
/// clbits fit one outcome word.
pub(crate) fn run(
    sim: &NoisySimulator,
    circuit: &Circuit,
    snapshot: &CalibrationSnapshot,
    shots: u32,
) -> Result<Counts, SimError> {
    let readout = sim.readout_entries(circuit, snapshot);
    let width = used_clbit_width_of_entries(&readout);
    let n = circuit.num_qubits();
    if n > SPARSE_MAX_QUBITS {
        return Err(SimError::NoBackend {
            width: n,
            reason: "exceeds the sparse backend's 64-bit basis keys",
        });
    }

    let steps: Vec<TrajStep> = circuit
        .instructions()
        .iter()
        .map(|inst| sim.decode_step(inst, snapshot))
        .collect();

    let trajectories = sim.trajectories.clamp(1, shots as usize);
    let base = shots as usize / trajectories;
    let extra = shots as usize % trajectories;

    // Per-gate work scales with the (unknown) live support; charge the
    // dispatcher's branching cap as the sizing estimate.
    let work_per_traj = (steps.len().max(1) as u64) * (1u64 << SPARSE_MAX_BRANCH_LOG2.min(12));
    let traj_workers = ExecConfig::with_threads(sim.threads)
        .effective_threads_for_work(trajectories, work_per_traj);
    let exec = ExecConfig::with_threads(traj_workers);

    let indices: Vec<usize> = (0..trajectories).collect();
    let partials = qcs_exec::parallel_map_with(
        &exec,
        &indices,
        Vec::new,
        |events, _, &t| -> Result<Counts, SimError> {
            let traj_shots = base + usize::from(t < extra);
            let mut rng = StdRng::seed_from_u64(qcs_exec::derive_seed(sim.seed, t as u64));

            // Identical draw sequence to the dense skip-ahead.
            dry_walk(&mut rng, steps.iter().map(TrajStep::noise), events);
            let mut next_event = 0usize;

            let mut state = SparseState::zero(n);
            for (i, step) in steps.iter().enumerate() {
                state.apply_kernel(&step.kernel)?;
                while next_event < events.len() && events[next_event].0 == i {
                    // The same X / Y / Z kernels the dense path injects.
                    for kernel in pauli_word_kernels(&step.qubits, events[next_event].1) {
                        state.apply_kernel(&kernel)?;
                    }
                    next_event += 1;
                }
            }

            let sampler = SparseSampler::build(&state);
            let mut counts = Counts::with_capacity(width, traj_shots);
            for _ in 0..traj_shots {
                let basis = sampler.sample(&mut rng);
                counts.record(readout_word(u128::from(basis), &mut rng, &readout), 1);
            }
            Ok(counts)
        },
    );

    merge_partials(partials, width)
}

/// Evolve `circuit` noiselessly on the sparse backend and return its
/// nonzero amplitudes as `(basis, amplitude)` pairs in ascending basis
/// order. Each returned amplitude is bit-identical to the dense
/// statevector's entry at the same index (the sparse sweeps reuse the
/// dense element operations); absent indices are exact zeros up to the
/// sign of `±0.0`. Exposed for the cross-backend equivalence tests.
///
/// # Errors
///
/// Returns [`SimError`] for circuits the sparse backend cannot run
/// (wider than 64 qubits, mid-circuit reset, or support beyond
/// [`SPARSE_MAX_AMPS`]).
pub fn sparse_amplitudes(circuit: &Circuit) -> Result<Vec<(u64, Complex)>, SimError> {
    let n = circuit.num_qubits();
    if n > SPARSE_MAX_QUBITS {
        return Err(SimError::NoBackend {
            width: n,
            reason: "exceeds the sparse backend's 64-bit basis keys",
        });
    }
    let mut state = SparseState::zero(n);
    for inst in circuit.instructions() {
        state.apply_kernel(&instruction_kernel(inst))?;
    }
    Ok(state.amps.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Statevector;
    use qcs_circuit::Gate;

    fn dense_amps(circuit: &Circuit) -> Vec<Complex> {
        Statevector::from_circuit(circuit).unwrap().amps().to_vec()
    }

    fn assert_matches_dense(circuit: &Circuit) {
        let sparse = sparse_amplitudes(circuit).unwrap();
        let dense = dense_amps(circuit);
        let mut covered = vec![false; dense.len()];
        for (k, amp) in sparse {
            assert_eq!(amp, dense[k as usize], "basis {k} diverged");
            covered[k as usize] = true;
        }
        for (k, amp) in dense.iter().enumerate() {
            if !covered[k] {
                assert_eq!(
                    (amp.re, amp.im),
                    (0.0, 0.0),
                    "dense basis {k} nonzero but absent from sparse"
                );
            }
        }
    }

    #[test]
    fn ghz_matches_dense_bit_for_bit() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        assert_matches_dense(&c);
    }

    #[test]
    fn low_entanglement_rotations_match_dense() {
        let mut c = Circuit::new(5);
        c.h(0).t(0).cx(0, 1).rz(0.3, 2).cp(0.7, 0, 1).h(2).cx(2, 3);
        c.apply(Gate::Sdg, &[3]);
        c.swap(1, 4).x(2).y(0).z(1);
        assert_matches_dense(&c);
    }

    #[test]
    fn wide_sparse_state_stays_small() {
        // 60 qubits, one Hadamard: 2 amplitudes, far beyond dense reach.
        let mut c = Circuit::new(60);
        c.h(0);
        for q in 1..60 {
            c.cx(q - 1, q);
        }
        let amps = sparse_amplitudes(&c).unwrap();
        assert_eq!(amps.len(), 2);
        assert_eq!(amps[0].0, 0);
        assert_eq!(amps[1].0, (1u64 << 60) - 1);
    }

    #[test]
    fn support_cap_is_enforced() {
        let mut state = SparseState::zero(40);
        // Bypass gates: inject an oversized support directly.
        for k in 0..=(SPARSE_MAX_AMPS as u64) {
            state.amps.insert(k << 1, Complex::ONE);
        }
        let err = state.apply_kernel(&Kernel::X(0)).unwrap_err();
        assert!(matches!(err, SimError::NoBackend { .. }), "{err}");
    }

    #[test]
    fn sampler_clamps_like_dense() {
        // A state whose CDF tops out below 1.0 by construction.
        let mut state = SparseState::zero(3);
        state.amps.insert(0, Complex::new(0.5, 0.0)); // prob 0.25
        let sampler = SparseSampler::build(&state);
        assert_eq!(sampler.clamp, 7);
        // Any u >= 0.25 exhausts the CDF and must clamp to 2^n - 1.
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen_clamp = false;
        for _ in 0..64 {
            let b = sampler.sample(&mut rng);
            assert!(b == 0 || b == 7);
            seen_clamp |= b == 7;
        }
        assert!(seen_clamp);
    }
}
