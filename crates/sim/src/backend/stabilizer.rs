//! CHP-style stabilizer tableau backend (Aaronson–Gottesman).
//!
//! Simulates Clifford circuits in O(n) per gate and O(n²) state, so the
//! 65-qubit Manhattan runs as easily as a 5-qubit machine. The
//! Pauli-twirled noise model of [`NoisySimulator`] is *native* here:
//! injected errors are Pauli words, which update a tableau in O(n), and
//! readout errors act on sampled bits, not on the state.
//!
//! # Equivalence to the dense oracle
//!
//! The trajectory loop consumes the RNG stream draw-for-draw like the
//! dense backend's skip-ahead path: per trajectory one uniform per noisy
//! gate plus one Pauli-word draw per fired error (the dry walk), then
//! per shot one uniform for the basis state plus one per readout entry.
//! Basis sampling enumerates the state's support — `2^k` equally likely
//! basis states for a stabilizer state with `k` X-pivots — in ascending
//! basis order and maps the 53-bit uniform to a support rank exactly as
//! the dense CDF scan resolves it when the dense probabilities are the
//! exact dyadics `2^-k`. That makes stabilizer Counts *distribution*-
//! identical to dense rigorously, and bit-identical in practice on the
//! property-tested domain (a disagreement would need a dense probability
//! to round away from its dyadic value AND a uniform to land within that
//! rounding error of a CDF boundary); see DESIGN.md §4i for the honest
//! statement of the guarantee. When `k > 53` the uniform cannot index
//! the support and the backend falls back to per-shot tableau
//! measurement — distribution-correct, with its own draw discipline.
//!
//! [`NoisySimulator`]: crate::NoisySimulator

use qcs_calibration::CalibrationSnapshot;
use qcs_circuit::Circuit;
use qcs_exec::ExecConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::clifford::{push_clifford_ops, CliffordOp};
use crate::noisy::{
    draw_pauli_word, merge_partials, used_clbit_width_of_entries, ReadoutEntry, TrajStep,
};
use crate::{Counts, NoisySimulator, SimError};

/// Widest register the tableau backend accepts: basis states and Pauli
/// row masks live in `u128`, which keeps the per-gate updates simple
/// single-word operations instead of word-vector loops. 127 qubits is
/// double the widest machine in the paper's fleet (65q Manhattan).
pub const STABILIZER_MAX_QUBITS: usize = 127;

/// An Aaronson–Gottesman tableau over `n ≤ 127` qubits: rows `0..n` are
/// destabilizers, `n..2n` stabilizers, row `2n` is the measurement
/// scratch row. Each row is the Pauli `(−1)^r · i^(popcount(x∧z)) ·
/// X^x Z^z` with `x`, `z` packed in one `u128` each.
struct Tableau {
    n: usize,
    x: Vec<u128>,
    z: Vec<u128>,
    r: Vec<u8>,
}

impl Tableau {
    /// The |0…0⟩ state: destabilizer `i` = `X_i`, stabilizer `i` = `Z_i`.
    fn new(n: usize) -> Self {
        assert!(
            (1..=STABILIZER_MAX_QUBITS).contains(&n),
            "tableau width {n}"
        );
        let rows = 2 * n + 1;
        let mut t = Tableau {
            n,
            x: vec![0; rows],
            z: vec![0; rows],
            r: vec![0; rows],
        };
        for i in 0..n {
            t.x[i] = 1u128 << i;
            t.z[n + i] = 1u128 << i;
        }
        t
    }

    /// Reset to |0…0⟩ without reallocating (per-shot scratch reuse).
    fn reset(&mut self) {
        let n = self.n;
        for i in 0..self.x.len() {
            self.x[i] = 0;
            self.z[i] = 0;
            self.r[i] = 0;
        }
        for i in 0..n {
            self.x[i] = 1u128 << i;
            self.z[n + i] = 1u128 << i;
        }
    }

    fn clone_from(&mut self, other: &Tableau) {
        self.n = other.n;
        self.x.copy_from_slice(&other.x);
        self.z.copy_from_slice(&other.z);
        self.r.copy_from_slice(&other.r);
    }

    /// Hadamard on `q`: swap the X and Z columns, `r ^= x·z`.
    fn h(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            let xq = self.x[i] & bit;
            let zq = self.z[i] & bit;
            if xq != 0 && zq != 0 {
                self.r[i] ^= 1;
            }
            self.x[i] = (self.x[i] & !bit) | zq;
            self.z[i] = (self.z[i] & !bit) | xq;
        }
    }

    /// Phase gate S on `q`: `r ^= x·z`, `z ^= x`.
    fn s(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            let xq = self.x[i] & bit;
            if xq != 0 && self.z[i] & bit != 0 {
                self.r[i] ^= 1;
            }
            self.z[i] ^= xq;
        }
    }

    /// S† on `q`: `r ^= x·¬z`, `z ^= x` (S³ collapsed).
    fn sdg(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            let xq = self.x[i] & bit;
            if xq != 0 && self.z[i] & bit == 0 {
                self.r[i] ^= 1;
            }
            self.z[i] ^= xq;
        }
    }

    /// Pauli-X on `q`: `r ^= z` (conjugation flips Z and Y signs).
    fn px(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            if self.z[i] & bit != 0 {
                self.r[i] ^= 1;
            }
        }
    }

    /// Pauli-Z on `q`: `r ^= x`.
    fn pz(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            if self.x[i] & bit != 0 {
                self.r[i] ^= 1;
            }
        }
    }

    /// Pauli-Y on `q`: `r ^= x ⊕ z`.
    fn py(&mut self, q: usize) {
        let bit = 1u128 << q;
        for i in 0..2 * self.n {
            if (self.x[i] & bit != 0) != (self.z[i] & bit != 0) {
                self.r[i] ^= 1;
            }
        }
    }

    /// CNOT control `c` target `t`:
    /// `r ^= x_c·z_t·(x_t ⊕ z_c ⊕ 1)`, `x_t ^= x_c`, `z_c ^= z_t`.
    fn cx(&mut self, c: usize, t: usize) {
        let cb = 1u128 << c;
        let tb = 1u128 << t;
        for i in 0..2 * self.n {
            let xc = self.x[i] & cb != 0;
            let zc = self.z[i] & cb != 0;
            let xt = self.x[i] & tb != 0;
            let zt = self.z[i] & tb != 0;
            if xc && zt && (xt == zc) {
                self.r[i] ^= 1;
            }
            if xc {
                self.x[i] ^= tb;
            }
            if zt {
                self.z[i] ^= cb;
            }
        }
    }

    fn apply(&mut self, op: &CliffordOp) {
        match *op {
            CliffordOp::H(q) => self.h(q),
            CliffordOp::S(q) => self.s(q),
            CliffordOp::Sdg(q) => self.sdg(q),
            CliffordOp::X(q) => self.px(q),
            CliffordOp::Y(q) => self.py(q),
            CliffordOp::Z(q) => self.pz(q),
            CliffordOp::Cx(c, t) => self.cx(c, t),
        }
    }

    /// Inject a pre-drawn Pauli word (same 2-bits-per-qubit encoding as
    /// [`draw_pauli_word`]) on `qubits` — the tableau-native counterpart
    /// of the dense backend's `apply_pauli_word`.
    fn apply_pauli_word(&mut self, qubits: &[qcs_circuit::Qubit], word: usize) {
        for (i, &q) in qubits.iter().enumerate() {
            match (word >> (2 * i)) & 3 {
                1 => self.px(q.index()),
                2 => self.py(q.index()),
                3 => self.pz(q.index()),
                _ => {}
            }
        }
    }

    /// AG rowsum: row `h` ← (row `i`) · (row `h`) with exact mod-4 phase
    /// tracking via the per-qubit `g` function.
    fn rowsum(&mut self, h: usize, i: usize) {
        let (x1, z1) = (self.x[i], self.z[i]);
        let (x2, z2) = (self.x[h], self.z[h]);
        let a = x1 & z1;
        let b = x1 & !z1;
        let c = !x1 & z1;
        let plus = (a & !x2 & z2) | (b & x2 & z2) | (c & x2 & !z2);
        let minus = (a & x2 & !z2) | (b & !x2 & z2) | (c & x2 & z2);
        let sum = 2 * (i32::from(self.r[h]) + i32::from(self.r[i])) + plus.count_ones() as i32
            - minus.count_ones() as i32;
        debug_assert!(sum.rem_euclid(4) % 2 == 0, "rowsum phase must be real");
        self.r[h] = (sum.rem_euclid(4) / 2) as u8;
        self.x[h] = x2 ^ x1;
        self.z[h] = z2 ^ z1;
    }

    /// Measure qubit `q` in the computational basis, collapsing the
    /// state. Random outcomes consume one `next_u64() & 1` bit from
    /// `rng`. Used by the wide sampling fallback only; the aligned path
    /// samples from the support without collapsing.
    fn measure(&mut self, q: usize, rng: &mut StdRng) -> u64 {
        let n = self.n;
        let bit = 1u128 << q;
        if let Some(p) = (n..2 * n).find(|&p| self.x[p] & bit != 0) {
            // Indeterminate: outcome is a fresh random bit.
            for i in 0..2 * n {
                if i != p && self.x[i] & bit != 0 {
                    self.rowsum(i, p);
                }
            }
            self.x[p - n] = self.x[p];
            self.z[p - n] = self.z[p];
            self.r[p - n] = self.r[p];
            let outcome = (rng.next_u64() & 1) as u8;
            self.x[p] = 0;
            self.z[p] = bit;
            self.r[p] = outcome;
            u64::from(outcome)
        } else {
            // Determinate: accumulate the stabilizer that fixes Z_q into
            // the scratch row; its sign is the outcome.
            let scratch = 2 * n;
            self.x[scratch] = 0;
            self.z[scratch] = 0;
            self.r[scratch] = 0;
            for i in 0..n {
                if self.x[i] & bit != 0 {
                    self.rowsum(scratch, n + i);
                }
            }
            u64::from(self.r[scratch])
        }
    }

    /// Enumerate the state's support as an affine space
    /// `x0 ⊕ span{v_1..v_k}` with the `v_j` in reduced form (distinct
    /// leading bits, descending; no other vector or `x0` carries a
    /// pivot bit), so support rank `r`'s basis state is
    /// `x0 ⊕ ⊕_{bit j of r} v_j` and ranks enumerate the support in
    /// ascending basis order.
    fn support(&self) -> Support {
        let n = self.n;
        // Working copy of the stabilizer rows (phases matter: rowsum).
        let mut w = Tableau {
            n,
            x: self.x[n..2 * n].to_vec(),
            z: self.z[n..2 * n].to_vec(),
            r: self.r[n..2 * n].to_vec(),
        };
        let rows = n;
        let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col), col descending
        let mut used = vec![false; rows];
        for col in (0..n).rev() {
            let bit = 1u128 << col;
            let Some(p) = (0..rows).find(|&i| !used[i] && w.x[i] & bit != 0) else {
                continue;
            };
            used[p] = true;
            pivots.push((p, col));
            for i in 0..rows {
                if i != p && w.x[i] & bit != 0 {
                    w.rowsum(i, p);
                }
            }
        }
        let k = pivots.len();

        // Non-pivot rows now have zero X-part: they are the Z-type
        // constraints (−1)^(z·x) = (−1)^r on every support state x.
        // Solve them by GF(2) elimination for a particular solution x0.
        let mut cons: Vec<(u128, u8)> = (0..rows)
            .filter(|&i| !used[i])
            .map(|i| {
                debug_assert_eq!(w.x[i], 0, "non-pivot row must be Z-type");
                (w.z[i], w.r[i])
            })
            .collect();
        let mut x0 = 0u128;
        let mut solved = 0usize;
        for col in (0..n).rev() {
            let bit = 1u128 << col;
            let Some(p) = (solved..cons.len()).find(|&i| cons[i].0 & bit != 0) else {
                continue;
            };
            cons.swap(solved, p);
            let (zp, rp) = cons[solved];
            for (zi, ri) in cons.iter_mut().skip(solved + 1) {
                if *zi & bit != 0 {
                    *zi ^= zp;
                    *ri ^= rp;
                }
            }
            solved += 1;
        }
        // Back-substitute (free bits of x0 = 0).
        for &(z, r) in cons[..solved].iter().rev() {
            let lead = 127 - z.leading_zeros() as usize;
            let parity = ((z & x0).count_ones() & 1) as u8;
            if parity != r {
                x0 ^= 1u128 << lead;
            }
        }
        debug_assert!(cons[..solved]
            .iter()
            .all(|&(z, r)| ((z & x0).count_ones() & 1) as u8 == r));

        // Canonicalize x0 against the pivots so no pivot bit is set in
        // it — the ordering property of the rank enumeration.
        let gens: Vec<u128> = pivots.iter().map(|&(row, _)| w.x[row]).collect();
        for (j, &(_, col)) in pivots.iter().enumerate() {
            if x0 & (1u128 << col) != 0 {
                x0 ^= gens[j];
            }
        }
        debug_assert_eq!(k, gens.len());
        Support { k, x0, gens }
    }
}

/// The support of a stabilizer state: `2^k` basis states
/// `x0 ⊕ span{gens}`, each with probability exactly `2^-k`. `gens` are
/// the X-parts of the pivot stabilizer generators in reduced form.
struct Support {
    k: usize,
    x0: u128,
    gens: Vec<u128>,
}

impl Support {
    /// The basis state of support rank `rank ∈ 0..2^k` (ascending basis
    /// order; see [`Tableau::support`]).
    fn basis_of_rank(&self, rank: u64) -> u128 {
        let mut e = self.x0;
        for (j, gen) in self.gens.iter().enumerate() {
            if rank >> (self.k - 1 - j) & 1 != 0 {
                e ^= gen;
            }
        }
        e
    }
}

/// Run the noisy trajectory loop on the stabilizer tableau. The caller
/// ([`NoisySimulator::run`] through the dispatcher) guarantees the
/// circuit is Clifford-only and reset-free, that decoherence is off, and
/// that the measured clbits fit one outcome word.
pub(crate) fn run(
    sim: &NoisySimulator,
    circuit: &Circuit,
    snapshot: &CalibrationSnapshot,
    shots: u32,
) -> Result<Counts, SimError> {
    let readout = sim.readout_entries(circuit, snapshot);
    let width = used_clbit_width_of_entries(&readout);
    let n = circuit.num_qubits();
    if n > STABILIZER_MAX_QUBITS {
        return Err(SimError::NoBackend {
            width: n,
            reason: "exceeds the stabilizer backend's 127-qubit row words",
        });
    }

    // Steps carry the calibrated error probabilities for the dry walk;
    // ops carry the aligned tableau primitive sequences.
    let steps: Vec<TrajStep> = circuit
        .instructions()
        .iter()
        .map(|inst| sim.decode_step(inst, snapshot))
        .collect();
    let mut ops: Vec<Vec<CliffordOp>> = Vec::with_capacity(steps.len());
    for inst in circuit.instructions() {
        let mut seq = Vec::new();
        if !push_clifford_ops(inst, &mut seq) {
            return Err(SimError::NoBackend {
                width: n,
                reason: "non-Clifford gate reached the stabilizer backend",
            });
        }
        ops.push(seq);
    }

    let trajectories = sim.trajectories.clamp(1, shots as usize);
    let base = shots as usize / trajectories;
    let extra = shots as usize % trajectories;

    // Work per trajectory ~ (gates × rows); far cheaper than dense, so
    // the same work-aware sizing keeps small runs off the pool.
    let work_per_traj = (steps.len().max(1) as u64) * (2 * n as u64);
    let traj_workers = ExecConfig::with_threads(sim.threads)
        .effective_threads_for_work(trajectories, work_per_traj);
    let exec = ExecConfig::with_threads(traj_workers);

    let indices: Vec<usize> = (0..trajectories).collect();
    let partials = qcs_exec::parallel_map_with(
        &exec,
        &indices,
        || Tableau::new(n),
        |tab, _, &t| -> Result<Counts, SimError> {
            let traj_shots = base + usize::from(t < extra);
            let mut rng = StdRng::seed_from_u64(qcs_exec::derive_seed(sim.seed, t as u64));

            // Dry walk: identical draw sequence to the dense skip-ahead.
            let mut events: Vec<(usize, usize)> = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                if step.error_prob > 0.0 && rng.gen_range(0.0..1.0) < step.error_prob {
                    events.push((i, draw_pauli_word(&mut rng, step.qubits.len())));
                }
            }

            tab.reset();
            let mut next_event = 0usize;
            for (i, seq) in ops.iter().enumerate() {
                for op in seq {
                    tab.apply(op);
                }
                while next_event < events.len() && events[next_event].0 == i {
                    tab.apply_pauli_word(&steps[i].qubits, events[next_event].1);
                    next_event += 1;
                }
            }

            let support = tab.support();
            if support.k <= 53 {
                Ok(sample_aligned(&support, &mut rng, traj_shots, &readout, width))
            } else {
                Ok(sample_by_measurement(
                    tab, &mut rng, traj_shots, &readout, width,
                ))
            }
        },
    );

    merge_partials(partials, width)
}

/// The aligned shot loop: one 53-bit uniform selects the support rank
/// (exact dyadic probabilities), one draw per readout entry flips bits —
/// the same draw discipline as the dense `sample_shots`.
fn sample_aligned(
    support: &Support,
    rng: &mut StdRng,
    traj_shots: usize,
    readout: &[ReadoutEntry],
    width: usize,
) -> Counts {
    let k = support.k as u32;
    let mut counts = Counts::with_capacity(width, traj_shots);
    for _ in 0..traj_shots {
        let draw = rng.next_u64() >> 11;
        let rank = if k == 0 { 0 } else { draw >> (53 - k) };
        let basis = support.basis_of_rank(rank);
        counts.record(readout_word(basis, rng, readout), 1);
    }
    counts
}

/// The wide fallback (`k > 53`): collapse a scratch copy of the tableau
/// by measuring each readout qubit per shot. Distribution-identical
/// only; random measurement outcomes draw one `next_u64() & 1` each, so
/// the stream position differs from the aligned mode by construction.
fn sample_by_measurement(
    tab: &mut Tableau,
    rng: &mut StdRng,
    traj_shots: usize,
    readout: &[ReadoutEntry],
    width: usize,
) -> Counts {
    let mut counts = Counts::with_capacity(width, traj_shots);
    let mut scratch = Tableau::new(tab.n);
    for _ in 0..traj_shots {
        scratch.clone_from(tab);
        let mut word = 0u64;
        for &(q, c, threshold) in readout {
            let bit = scratch.measure(q, rng);
            let flip = u64::from(rng.next_u64() >> 11 < threshold);
            word |= (bit ^ flip) << c;
        }
        counts.record(word, 1);
    }
    counts
}

/// Push one sampled basis state through the readout-error channel: one
/// threshold draw per entry, fired or not — identical to the dense
/// `one_shot`. Shared with the sparse backend.
pub(super) fn readout_word(basis: u128, rng: &mut StdRng, readout: &[ReadoutEntry]) -> u64 {
    let mut word = 0u64;
    for &(q, c, threshold) in readout {
        let flip = u64::from(rng.next_u64() >> 11 < threshold);
        word |= ((((basis >> q) & 1) as u64) ^ flip) << c;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz_tableau(n: usize) -> Tableau {
        let mut t = Tableau::new(n);
        t.apply(&CliffordOp::H(0));
        for q in 1..n {
            t.apply(&CliffordOp::Cx(q - 1, q));
        }
        t
    }

    #[test]
    fn zero_state_support_is_the_zero_word() {
        let t = Tableau::new(4);
        let s = t.support();
        assert_eq!(s.k, 0);
        assert_eq!(s.x0, 0);
    }

    #[test]
    fn ghz_support_is_all_zeros_and_all_ones() {
        let t = ghz_tableau(5);
        let s = t.support();
        assert_eq!(s.k, 1);
        assert_eq!(s.basis_of_rank(0), 0);
        assert_eq!(s.basis_of_rank(1), (1u128 << 5) - 1);
    }

    #[test]
    fn x_layer_shifts_the_support() {
        let mut t = Tableau::new(3);
        t.apply(&CliffordOp::X(0));
        t.apply(&CliffordOp::X(2));
        let s = t.support();
        assert_eq!(s.k, 0);
        assert_eq!(s.x0, 0b101);
    }

    #[test]
    fn plus_layer_support_is_uniform() {
        let mut t = Tableau::new(3);
        for q in 0..3 {
            t.apply(&CliffordOp::H(q));
        }
        let s = t.support();
        assert_eq!(s.k, 3);
        // Ranks enumerate all 8 basis states in ascending order.
        let all: Vec<u128> = (0..8).map(|r| s.basis_of_rank(r)).collect();
        assert_eq!(all, (0..8u128).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_measurement_matches_support() {
        let mut t = ghz_tableau(2);
        let mut rng = StdRng::seed_from_u64(7);
        let first = t.measure(0, &mut rng);
        // After measuring qubit 0 the GHZ state collapses; qubit 1 is
        // now determinate and must agree.
        let second = t.measure(1, &mut rng);
        assert_eq!(first, second);
    }

    #[test]
    fn wide_tableau_runs_cheaply() {
        // 100 qubits: far beyond any statevector, trivial for the
        // tableau.
        let t = ghz_tableau(100);
        let s = t.support();
        assert_eq!(s.k, 1);
        assert_eq!(s.basis_of_rank(1), (1u128 << 100) - 1);
    }
}
