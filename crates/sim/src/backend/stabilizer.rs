//! CHP-style stabilizer tableau backend (Aaronson–Gottesman).
//!
//! Simulates Clifford circuits in O(n) per gate and O(n²) state, so the
//! 65-qubit Manhattan is within reach where no statevector is. The
//! Pauli-twirled noise model of [`NoisySimulator`] is *native* here:
//! injected errors are Pauli words and readout errors act on sampled
//! bits, not on the state.
//!
//! # One tableau and one support per run, a Pauli frame per trajectory
//!
//! A Pauli error flips signs of tableau rows and never touches their X/Z
//! bits, so every trajectory of a run holds the *same* tableau up to
//! signs. [`run`] therefore evolves the noiseless tableau and extracts
//! its [`Support`] once, and per trajectory only (1) replays the dry
//! walk draw for draw, (2) pushes the injected Pauli words through the
//! remaining primitives as one [`PauliFrame`] — two `u128` masks, O(1)
//! per primitive instead of a pass over `2n` rows — and (3) samples from
//! the ideal support shifted by the frame. The sampler reads only
//! `Support { k, x0, gens }`, and the shift reproduces all three fields
//! of the support a per-trajectory tableau would have yielded:
//!
//! 1. Conjugating a stabilizer group by a Pauli changes signs only, so
//!    the row space of the stabilizer X-parts — hence `k` and the fully
//!    reduced `gens`, an RREF and so unique for its row space — is the
//!    ideal circuit's.
//! 2. The support of `P|ψ⟩` is the support of `|ψ⟩` XOR the X-part of
//!    `P`, and `x0` is the one element of that affine space with no
//!    pivot bit set: the trajectory's `x0` is [`Support::reduce`] of
//!    `ideal x0 ⊕ frame.x`, the same loop [`Tableau::support`] ends with.
//! 3. The `k > 53` fallback measures a real tableau and needs the signs:
//!    it conjugates a clone of the ideal tableau by the final frame.
//!    Every row (destabilizers included) tracks `W X_i W†` or `W Z_i W†`
//!    with `W = P'·U` equal to the interleaved evolution up to a global
//!    phase conjugation cannot see, so the rows — and with them every
//!    `measure` draw and outcome — are the interleaved evolution's.
//!
//! Ranks then enumerate the same basis states in the same order and the
//! shot loop consumes the same draws, so `Counts` equal, bit for bit,
//! those of evolving a tableau through every gate and injected word of
//! every trajectory. That walk is kept as the `#[cfg(test)]` oracle
//! (`tests::run_oracle`), property-tested against [`run`] at widths up
//! to 127 and through the `k > 53` fallback, where the dense oracle
//! cannot reach.
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
use qcs_circuit::{Circuit, Instruction, Qubit};
use qcs_exec::ExecConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use super::clifford::{push_clifford_ops, CliffordOp};
use crate::noisy::{
    dry_walk, merge_partials, readout_word, step_noise, used_clbit_width_of_entries, ReadoutEntry,
};
use crate::support::Support;
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
#[derive(Clone)]
struct Tableau {
    n: usize,
    x: Vec<u128>,
    z: Vec<u128>,
    r: Vec<u8>,
}

impl Tableau {
    /// The |0…0⟩ state: destabilizer `i` = `X_i`, stabilizer `i` = `Z_i`.
    /// Width 0 is the empty register (the scratch row alone).
    fn new(n: usize) -> Self {
        assert!(n <= STABILIZER_MAX_QUBITS, "tableau width {n}");
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

    /// |0…0⟩ evolved through `ops` in order.
    fn evolved(n: usize, ops: &[CliffordOp]) -> Self {
        let mut t = Tableau::new(n);
        for op in ops {
            t.apply(op);
        }
        t
    }

    /// Overwrite with `other` without reallocating (per-shot scratch
    /// reuse).
    fn copy_from(&mut self, other: &Tableau) {
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

    /// Conjugate by the Pauli `frame` stands for (its phase cannot
    /// matter): a row's sign flips iff the row anticommutes with it —
    /// [`Tableau::px`] on every set X bit and [`Tableau::pz`] on every
    /// set Z bit, in one pass.
    fn conjugate_by(&mut self, frame: PauliFrame) {
        for i in 0..2 * self.n {
            let anti = (self.z[i] & frame.x).count_ones() ^ (self.x[i] & frame.z).count_ones();
            self.r[i] ^= (anti & 1) as u8;
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
            // Indeterminate: outcome is a fresh random bit. A destabilizer
            // may anticommute with row `p`, which makes their product's
            // phase imaginary; nothing ever reads a destabilizer's sign,
            // so those rows take the X/Z bits alone.
            for i in 0..2 * n {
                if i != p && self.x[i] & bit != 0 {
                    if i < n {
                        self.x[i] ^= self.x[p];
                        self.z[i] ^= self.z[p];
                    } else {
                        self.rowsum(i, p);
                    }
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

    /// Enumerate the state's support — `2^k` basis states, each with
    /// probability exactly `2^-k` — as an affine space
    /// `x0 ⊕ span{v_1..v_k}` with the `v_j`, the X-parts of the pivot
    /// stabilizer generators, in reduced form (distinct leading bits,
    /// descending; no other vector or `x0` carries a pivot bit), so
    /// support rank `r`'s basis state is `x0 ⊕ ⊕_{bit j of r} v_j` and
    /// ranks enumerate the support in ascending basis order.
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

        // Every pivot row was unused, hence zero above its column, when
        // chosen, and only rows of lower pivots were added to it since:
        // a generator's leading bit is its pivot.
        let gens: Vec<u128> = pivots.iter().map(|&(row, _)| w.x[row]).collect();
        debug_assert!(pivots
            .iter()
            .zip(&gens)
            .all(|(&(_, col), gen)| 127 - gen.leading_zeros() as usize == col));
        // Canonicalize x0 against the pivots so no pivot bit is set in
        // it — the ordering property of the rank enumeration.
        let mut support = Support { k, x0: 0, gens };
        support.x0 = support.reduce(x0);
        support
    }
}

/// A Pauli operator up to phase, `X^x Z^z`: what a trajectory's injected
/// errors amount to once pushed through the gates after them. Signs are
/// dropped on purpose — sampling reads the X-part alone, and the
/// measurement fallback conjugates by the whole operator
/// ([`Tableau::conjugate_by`]), which no phase survives.
#[derive(Clone, Copy, Default)]
struct PauliFrame {
    x: u128,
    z: u128,
}

impl PauliFrame {
    /// Multiply in a pre-drawn Pauli word on `qubits`
    /// ([`crate::noisy::draw_pauli_word`]'s encoding, two bits per
    /// operand: 1 = X, 2 = Y, 3 = Z).
    fn inject(&mut self, qubits: &[Qubit], word: usize) {
        for (i, q) in qubits.iter().enumerate() {
            let pauli = (word >> (2 * i)) & 3;
            let bit = 1u128 << q.index();
            if pauli == 1 || pauli == 2 {
                self.x ^= bit;
            }
            if pauli >= 2 {
                self.z ^= bit;
            }
        }
    }

    /// Conjugate by `ops` in order: the frame `P'` with `ops·P = ±P'·ops`.
    /// The X/Z-bit halves of the tableau's row updates, on one row.
    fn push_through(&mut self, ops: &[CliffordOp]) {
        for op in ops {
            match *op {
                CliffordOp::H(q) => {
                    let differ = ((self.x ^ self.z) >> q & 1) << q;
                    self.x ^= differ;
                    self.z ^= differ;
                }
                CliffordOp::S(q) | CliffordOp::Sdg(q) => self.z ^= self.x & (1u128 << q),
                CliffordOp::X(_) | CliffordOp::Y(_) | CliffordOp::Z(_) => {}
                CliffordOp::Cx(c, t) => {
                    self.x ^= (self.x >> c & 1) << t;
                    self.z ^= (self.z >> t & 1) << c;
                }
            }
        }
    }
}

/// The circuit's tableau primitives as one flat stream: instruction
/// `i`'s are `ops[step_end[i - 1]..step_end[i]]` (from 0 for the first).
fn clifford_stream(circuit: &Circuit) -> Result<(Vec<CliffordOp>, Vec<usize>), SimError> {
    let mut ops = Vec::new();
    let mut step_end = Vec::with_capacity(circuit.instructions().len());
    for inst in circuit.instructions() {
        if !push_clifford_ops(inst, &mut ops) {
            return Err(SimError::NoBackend {
                width: circuit.num_qubits(),
                reason: "non-Clifford gate reached the stabilizer backend",
            });
        }
        step_end.push(ops.len());
    }
    Ok((ops, step_end))
}

/// The frame one trajectory's error `events` leave on the final state.
/// The word recorded at step `i` acts after `insts[i]` (the faulty gate
/// itself), so it is pushed through the primitives from `step_end[i]`
/// on; nothing before the first event is walked.
fn propagate(
    insts: &[Instruction],
    ops: &[CliffordOp],
    step_end: &[usize],
    events: &[(usize, usize)],
) -> PauliFrame {
    let mut frame = PauliFrame::default();
    let Some(&(first, _)) = events.first() else {
        return frame;
    };
    let mut at = step_end[first];
    for &(i, word) in events {
        frame.push_through(&ops[at..step_end[i]]);
        at = step_end[i];
        frame.inject(insts[i].qubits(), word);
    }
    frame.push_through(&ops[at..]);
    frame
}

/// Workers for the trajectory loop, sized by what a trajectory costs in
/// [`qcs_exec::MIN_WORK_PER_THREAD`]'s currency: one dry-walk draw per
/// step, at most one word update per primitive, and `shot_work` for its
/// shots. There is no tableau in that sum: a 65q × 128-trajectory echo
/// is a millisecond and change, and stays on the calling thread.
fn trajectory_workers(
    threads: usize,
    trajectories: usize,
    steps: usize,
    prims: usize,
    shot_work: usize,
) -> usize {
    let work_per_traj = (steps + prims + shot_work) as u64;
    ExecConfig::with_threads(threads).effective_threads_for_work(trajectories, work_per_traj)
}

/// Run the noisy trajectory loop on the stabilizer backend. The caller
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

    // The dry walk reads each step's calibrated error probability; the
    // frame reads its primitives and, for an injection, its operands.
    let insts = circuit.instructions();
    let noise: Vec<(f64, usize)> = insts
        .iter()
        .map(|inst| step_noise(inst, snapshot))
        .collect();
    let (ops, step_end) = clifford_stream(circuit)?;

    // The one tableau of the run, built serially (see the module docs).
    let ideal = Tableau::evolved(n, &ops);
    let support = ideal.support();
    let aligned = support.k <= 53;

    let trajectories = sim.trajectories.clamp(1, shots as usize);
    let base = shots as usize / trajectories;
    let extra = shots as usize % trajectories;

    // A shot is one draw per readout entry, or on the measurement
    // fallback a scan of the tableau's `2n` rows per entry.
    let shot_work =
        (shots as usize).div_ceil(trajectories) * readout.len() * if aligned { 1 } else { 2 * n };
    let workers = trajectory_workers(sim.threads, trajectories, insts.len(), ops.len(), shot_work);
    let exec = ExecConfig::with_threads(workers);

    let indices: Vec<usize> = (0..trajectories).collect();
    let partials = qcs_exec::parallel_map_with(
        &exec,
        &indices,
        Vec::new,
        |events, _, &t| -> Result<Counts, SimError> {
            let traj_shots = base + usize::from(t < extra);
            let mut rng = StdRng::seed_from_u64(qcs_exec::derive_seed(sim.seed, t as u64));

            // Identical draw sequence to the dense skip-ahead.
            dry_walk(&mut rng, noise.iter().copied(), events);
            let frame = propagate(insts, &ops, &step_end, events);

            Ok(if aligned {
                let x0 = support.reduce(support.x0 ^ frame.x);
                sample_aligned(&support, x0, &mut rng, traj_shots, &readout, width)
            } else {
                let mut noisy = ideal.clone();
                noisy.conjugate_by(frame);
                sample_by_measurement(&noisy, &mut rng, traj_shots, &readout, width)
            })
        },
    );

    merge_partials(partials, width)
}

/// The aligned shot loop over `support` translated to offset `x0`: one
/// 53-bit uniform selects the support rank (exact dyadic probabilities),
/// one draw per readout entry flips bits — the same draw discipline as
/// the dense `sample_shots`.
fn sample_aligned(
    support: &Support,
    x0: u128,
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
        let basis = support.basis_of_rank(x0, rank);
        counts.record(readout_word(basis, rng, readout), 1);
    }
    counts
}

/// The wide fallback (`k > 53`): collapse a scratch copy of the tableau
/// by measuring each readout qubit per shot. Distribution-identical
/// only; random measurement outcomes draw one `next_u64() & 1` each, so
/// the stream position differs from the aligned mode by construction.
fn sample_by_measurement(
    tab: &Tableau,
    rng: &mut StdRng,
    traj_shots: usize,
    readout: &[ReadoutEntry],
    width: usize,
) -> Counts {
    let mut counts = Counts::with_capacity(width, traj_shots);
    let mut scratch = tab.clone();
    for _ in 0..traj_shots {
        scratch.copy_from(tab);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noisy::{draw_pauli_word, TrajStep};
    use proptest::prelude::*;
    use qcs_calibration::NoiseProfile;
    use qcs_circuit::Gate;
    use qcs_topology::families;
    use rand::Rng;
    use std::f64::consts::FRAC_PI_2;

    /// What only the oracle still does to a tableau.
    impl Tableau {
        /// Reset to |0…0⟩ without reallocating.
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

        /// Inject a pre-drawn Pauli word (same 2-bits-per-qubit encoding
        /// as [`draw_pauli_word`]) on `qubits` — the tableau-native
        /// counterpart of the dense backend's `apply_pauli_word`.
        fn apply_pauli_word(&mut self, qubits: &[Qubit], word: usize) {
            for (i, &q) in qubits.iter().enumerate() {
                match (word >> (2 * i)) & 3 {
                    1 => self.px(q.index()),
                    2 => self.py(q.index()),
                    3 => self.pz(q.index()),
                    _ => {}
                }
            }
        }
    }

    /// The oracle [`run`] must match bit for bit: the trajectory loop as
    /// it stood before the Pauli frame — a tableau evolved through every
    /// gate and injected word and a support extracted, per trajectory.
    fn run_oracle(
        sim: &NoisySimulator,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        shots: u32,
    ) -> Counts {
        let readout = sim.readout_entries(circuit, snapshot);
        let width = used_clbit_width_of_entries(&readout);
        let steps: Vec<TrajStep> = circuit
            .instructions()
            .iter()
            .map(|inst| sim.decode_step(inst, snapshot))
            .collect();
        let mut ops: Vec<Vec<CliffordOp>> = Vec::with_capacity(steps.len());
        for inst in circuit.instructions() {
            let mut seq = Vec::new();
            assert!(
                push_clifford_ops(inst, &mut seq),
                "oracle needs a Clifford circuit"
            );
            ops.push(seq);
        }

        let trajectories = sim.trajectories.clamp(1, shots as usize);
        let base = shots as usize / trajectories;
        let extra = shots as usize % trajectories;

        let tab = &mut Tableau::new(circuit.num_qubits());
        let mut counts = Counts::new(width);
        for t in 0..trajectories {
            let traj_shots = base + usize::from(t < extra);
            let mut rng = StdRng::seed_from_u64(qcs_exec::derive_seed(sim.seed, t as u64));

            // Dry walk: identical draw sequence to the dense skip-ahead.
            let mut events: Vec<(usize, usize)> = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                let (error_prob, operands) = step.noise();
                if error_prob > 0.0 && rng.gen_range(0.0..1.0) < error_prob {
                    events.push((i, draw_pauli_word(&mut rng, operands)));
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
            counts.merge(&if support.k <= 53 {
                sample_aligned(&support, support.x0, &mut rng, traj_shots, &readout, width)
            } else {
                sample_by_measurement(tab, &mut rng, traj_shots, &readout, width)
            });
        }
        counts
    }

    /// Append a random Clifford op script (every gate family
    /// [`push_clifford_ops`] expands, quarter-turn rotations computed the
    /// way the classifier matches them) and measure `measured` qubits
    /// spread evenly over the register.
    fn push_script(c: &mut Circuit, script: &[(u8, usize, usize, u8)], measured: usize) {
        let width = c.num_qubits();
        for &(kind, a, b, k) in script {
            let a = a % width;
            let b = if b % width == a {
                (a + 1) % width
            } else {
                b % width
            };
            let theta = f64::from(i32::from(k) - 8) * FRAC_PI_2;
            match kind {
                0 => c.h(a),
                1 => c.s(a),
                2 => c.apply(Gate::Sdg, &[a]),
                3 => c.apply(Gate::Sx, &[a]),
                4 => c.y(a),
                5 => c.rz(theta, a),
                6 => c.rx(theta, a),
                7 => c.ry(theta, a),
                8 | 9 if width > 1 => c.cx(a, b),
                10 if width > 1 => c.cz(a, b),
                11 if width > 1 => c.swap(a, b),
                _ => c.x(a),
            };
        }
        for j in 0..measured {
            c.measure(j * width / measured, j);
        }
    }

    fn ideal_of(circuit: &Circuit) -> Tableau {
        let (ops, _) = clifford_stream(circuit).unwrap();
        Tableau::evolved(circuit.num_qubits(), &ops)
    }

    fn snapshot_of(width: usize, seed: u64, scale_pick: usize) -> CalibrationSnapshot {
        NoiseProfile::with_seed(seed ^ 0xBEEF)
            .scaled_errors([0.2, 1.0, 6.0][scale_pick])
            .snapshot(&families::complete(width.max(2)), 0)
    }

    fn simulator(seed: u64, traj_pick: usize, threads: usize) -> NoisySimulator {
        NoisySimulator {
            trajectories: [1, 3, 128][traj_pick],
            seed,
            threads,
            ..NoisySimulator::default()
        }
    }

    fn support_fields(s: &Support, x0: u128) -> (usize, u128, &[u128]) {
        (s.k, x0, &s.gens)
    }

    /// The frame [`propagate`] derives from `events` against a tableau
    /// that had the same words applied between its gates: row for row
    /// (what the `k > 53` fallback measures) and, shifted onto the ideal
    /// support, field for field (what the aligned sampler reads).
    fn assert_frame_matches_tableau(circuit: &Circuit, events: &[(usize, usize)]) {
        let insts = circuit.instructions();
        let (ops, step_end) = clifford_stream(circuit).unwrap();
        let mut oracle = Tableau::new(circuit.num_qubits());
        let mut start = 0;
        for (i, inst) in insts.iter().enumerate() {
            for op in &ops[start..step_end[i]] {
                oracle.apply(op);
            }
            start = step_end[i];
            for &(_, word) in events.iter().filter(|&&(at, _)| at == i) {
                oracle.apply_pauli_word(inst.qubits(), word);
            }
        }

        let ideal = ideal_of(circuit);
        let frame = propagate(insts, &ops, &step_end, events);
        let mut noisy = ideal.clone();
        noisy.conjugate_by(frame);
        assert_eq!(
            (&noisy.x, &noisy.z, &noisy.r),
            (&oracle.x, &oracle.z, &oracle.r)
        );

        let (ideal, oracle) = (ideal.support(), oracle.support());
        assert_eq!(
            support_fields(&ideal, ideal.reduce(ideal.x0 ^ frame.x)),
            support_fields(&oracle, oracle.x0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn frame_run_matches_per_trajectory_tableau_oracle(
            width in (0u8..4, 1usize..25, 25usize..128)
                .prop_map(|(pick, narrow, wide)| if pick == 0 { narrow } else { wide }),
            script in proptest::collection::vec((0u8..13, 0usize..127, 0usize..127, 0u8..17), 1..80),
            seed in 0u64..10_000,
            (scale_pick, traj_pick, threads) in (0usize..3, 0usize..3, 1usize..4),
        ) {
            // Widths the dense oracle of tests/backends.rs cannot hold:
            // one ideal tableau + a frame per trajectory must reproduce
            // the per-trajectory tableau walk's Counts exactly.
            let measured = width.min(crate::backend::MAX_CLBITS);
            let mut circuit = Circuit::with_clbits(width, measured);
            push_script(&mut circuit, &script, measured);
            let snap = snapshot_of(width, seed, scale_pick);
            let sim = simulator(seed, traj_pick, threads);
            let counts = run(&sim, &circuit, &snap, 192).unwrap();
            prop_assert_eq!(counts, run_oracle(&sim, &circuit, &snap, 192));
        }

        #[test]
        fn measurement_fallback_matches_oracle_beyond_53_pivots(
            script in proptest::collection::vec((0u8..13, 0usize..127, 0usize..127, 0u8..17), 1..40),
            pairs in 1usize..33,
            seed in 0u64..10_000,
            (scale_pick, traj_pick, threads) in (0usize..3, 0usize..3, 1usize..4),
        ) {
            // An H layer on 54 + |script| qubits, of which a one-qubit
            // gate removes at most one pivot: k > 53, so every trajectory
            // samples through `sample_by_measurement`. Its outcomes read
            // the tableau's signs only where a measurement is determinate,
            // so `pairs` more qubits each copy a superposed one and both
            // halves of up to four pairs are measured.
            let plus = 54 + script.len();
            let mut circuit = Circuit::with_clbits(plus + pairs, 8);
            for q in 0..plus {
                circuit.h(q);
            }
            for j in 0..pairs {
                circuit.cx(j, plus + j);
            }
            push_script(&mut circuit, &script, 0);
            for j in 0..4 {
                circuit.measure(j, 2 * j).measure(plus + j % pairs, 2 * j + 1);
            }
            prop_assert!(ideal_of(&circuit).support().k > 53);
            let snap = snapshot_of(plus + pairs, seed, scale_pick);
            let sim = simulator(seed, traj_pick, threads);
            let counts = run(&sim, &circuit, &snap, 160).unwrap();
            prop_assert_eq!(counts, run_oracle(&sim, &circuit, &snap, 160));
        }

        #[test]
        fn frame_shifted_support_equals_the_noisy_tableaus_support(
            width in 1usize..128,
            script in proptest::collection::vec((0u8..13, 0usize..127, 0usize..127, 0u8..17), 0..120),
            (xa, xb, za, zb) in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ) {
            // Random tableau x random Pauli: shifting the ideal support
            // by the Pauli's X-part yields the same k, x0 and gens as
            // extracting the support of the tableau the Pauli acted on.
            let mut circuit = Circuit::new(width);
            push_script(&mut circuit, &script, 0);
            let ideal = ideal_of(&circuit);
            let mask = u128::MAX >> (128 - width);
            let frame = PauliFrame {
                x: (u128::from(xa) << 64 | u128::from(xb)) & mask,
                z: (u128::from(za) << 64 | u128::from(zb)) & mask,
            };
            let mut noisy = ideal.clone();
            for q in 0..width {
                match (frame.x >> q & 1, frame.z >> q & 1) {
                    (1, 0) => noisy.px(q),
                    (1, 1) => noisy.py(q),
                    (0, 1) => noisy.pz(q),
                    _ => {}
                }
            }
            let mut conjugated = ideal.clone();
            conjugated.conjugate_by(frame);
            prop_assert_eq!(&conjugated.r, &noisy.r);

            let (ideal, noisy) = (ideal.support(), noisy.support());
            prop_assert_eq!(
                support_fields(&ideal, ideal.reduce(ideal.x0 ^ frame.x)),
                support_fields(&noisy, noisy.x0)
            );
        }
    }

    /// H(0) · CX(0,1) · SWAP(1,2) · S(2) · CZ(0,2) · H(1): steps 0..=5.
    fn six_step_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).swap(1, 2).s(2).cz(0, 2).h(1);
        c
    }

    #[test]
    fn event_on_the_last_step_is_injected_after_it() {
        // Nothing is left to push the word through: the frame is the
        // word itself (Y on qubit 1).
        let c = six_step_circuit();
        let (ops, step_end) = clifford_stream(&c).unwrap();
        let frame = propagate(c.instructions(), &ops, &step_end, &[(5, 2)]);
        assert_eq!((frame.x, frame.z), (0b010, 0b010));
        assert_frame_matches_tableau(&c, &[(5, 2)]);
    }

    #[test]
    fn event_on_step_zero_crosses_every_later_gate_but_not_its_own() {
        // Z after H(0) — not before it, where H would turn it into X.
        for word in 1..4 {
            assert_frame_matches_tableau(&six_step_circuit(), &[(0, word)]);
        }
    }

    #[test]
    fn two_qubit_word_on_a_swap_step_lands_after_all_three_cx() {
        // Every two-qubit word on the SWAP's operands (1, 2), alone and
        // with neighbours before and after it.
        for word in 1..16 {
            assert_frame_matches_tableau(&six_step_circuit(), &[(2, word)]);
            assert_frame_matches_tableau(&six_step_circuit(), &[(1, 7), (2, word), (4, 9)]);
        }
    }

    #[test]
    fn wide_echo_runs_on_the_calling_thread() {
        // The 65q Manhattan echo at the default 128 trajectories x 1,024
        // shots: about a millisecond of frame walks, which a tableau per
        // trajectory (steps x 2n rows) priced at several workers.
        let c = crate::clifford_pos_circuit(65);
        let (ops, _) = clifford_stream(&c).unwrap();
        let steps = c.instructions().len();
        let shot_work = 8 * 64;
        assert!(128 * (steps + ops.len() + shot_work) < qcs_exec::MIN_WORK_PER_THREAD as usize);
        for threads in [0, 8] {
            assert_eq!(
                trajectory_workers(threads, 128, steps, ops.len(), shot_work),
                1
            );
        }
    }

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
        // Width 0 included: the empty register is the zero word too.
        for n in [0, 4] {
            let s = Tableau::new(n).support();
            assert_eq!(support_fields(&s, s.x0), (0, 0, &[][..]));
        }
    }

    #[test]
    fn ghz_support_is_all_zeros_and_all_ones() {
        let t = ghz_tableau(5);
        let s = t.support();
        assert_eq!(s.k, 1);
        assert_eq!(s.basis_of_rank(s.x0, 0), 0);
        assert_eq!(s.basis_of_rank(s.x0, 1), (1u128 << 5) - 1);
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
        let all: Vec<u128> = (0..8).map(|r| s.basis_of_rank(s.x0, r)).collect();
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
        assert_eq!(s.basis_of_rank(s.x0, 1), (1u128 << 100) - 1);
    }
}
