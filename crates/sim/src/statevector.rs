//! An ideal (noiseless) statevector simulator.

use qcs_circuit::{Circuit, Instruction};
use rand::Rng;

use crate::fusion::instruction_kernel;
use crate::support::Support;
use crate::Complex;

/// Maximum register width of the *dense* statevector backend (memory:
/// `16 bytes * 2^n`). This is a dense-backend-local limit: the stabilizer
/// and sparse backends in [`crate::backend`] run far wider circuits.
pub const DENSE_MAX_QUBITS: usize = 24;

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The circuit is wider than the dense backend's
    /// [`DENSE_MAX_QUBITS`] limit.
    TooManyQubits {
        /// Requested width.
        requested: usize,
    },
    /// The measurement map spans more classical bits than fit one
    /// outcome word (see [`crate::backend::MAX_CLBITS`]) — a classical
    /// register limit, independent of any backend's qubit cap.
    TooManyClbits {
        /// Requested classical width.
        requested: usize,
    },
    /// The circuit contains an operation the statevector engine cannot
    /// apply deterministically (`reset` needs a stochastic trajectory —
    /// use [`Statevector::apply_with_rng`]).
    Unsupported {
        /// Gate name.
        gate: &'static str,
    },
    /// No simulation backend can faithfully execute the circuit under
    /// the requested configuration (see [`crate::backend`] for what each
    /// backend supports).
    NoBackend {
        /// Circuit width.
        width: usize,
        /// Why every backend was ruled out.
        reason: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooManyQubits { requested } => {
                write!(
                    f,
                    "{requested} qubits exceed dense-backend limit of {DENSE_MAX_QUBITS}"
                )
            }
            SimError::TooManyClbits { requested } => {
                write!(f, "{requested} clbits exceed one outcome word")
            }
            SimError::Unsupported { gate } => write!(f, "unsupported operation: {gate}"),
            SimError::NoBackend { width, reason } => {
                write!(f, "no backend for {width}-qubit circuit: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The quantum state of `n` qubits as `2^n` complex amplitudes.
///
/// Qubit 0 is the least-significant bit of the basis-state index.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Circuit;
/// use qcs_sim::Statevector;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = Statevector::from_circuit(&bell).unwrap();
/// let probs = state.probabilities();
/// assert!((probs[0b00] - 0.5).abs() < 1e-12);
/// assert!((probs[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl Statevector {
    /// The all-zeros state |0...0> on `n` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`DENSE_MAX_QUBITS`].
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > DENSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
            });
        }
        let mut amps = vec![Complex::ZERO; 1 << num_qubits];
        amps[0] = Complex::ONE;
        Ok(Statevector { num_qubits, amps })
    }

    /// The all-zeros state built inside a caller-provided buffer, reusing
    /// its allocation — the zero-allocation variant of
    /// [`Statevector::zero`] for trajectory loops. The buffer is
    /// resized and overwritten; reclaim it afterwards with
    /// [`Statevector::into_amps`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`DENSE_MAX_QUBITS`].
    pub fn zero_in(num_qubits: usize, mut buf: Vec<Complex>) -> Result<Self, SimError> {
        if num_qubits > DENSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
            });
        }
        buf.clear();
        buf.resize(1 << num_qubits, Complex::ZERO);
        buf[0] = Complex::ONE;
        Ok(Statevector {
            num_qubits,
            amps: buf,
        })
    }

    /// A state over amplitudes already in canonical order (the frame
    /// executor's materialising gather).
    pub(crate) fn from_amps(num_qubits: usize, amps: Vec<Complex>) -> Self {
        debug_assert_eq!(amps.len(), 1 << num_qubits, "amplitude count mismatch");
        Statevector { num_qubits, amps }
    }

    /// Consume the state, releasing its amplitude buffer for reuse.
    #[must_use]
    pub fn into_amps(self) -> Vec<Complex> {
        self.amps
    }

    /// The raw amplitude slice, in canonical basis order.
    #[must_use]
    pub fn amps(&self) -> &[Complex] {
        &self.amps
    }

    /// Run the unitary part of `circuit` on |0...0>. Measurements and
    /// barriers are skipped (sample afterwards with
    /// [`Statevector::probabilities`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for oversized circuits or mid-circuit resets.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, SimError> {
        let mut state = Statevector::zero(circuit.num_qubits())?;
        for inst in circuit.instructions() {
            state.apply(inst)?;
        }
        Ok(state)
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    #[must_use]
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// Apply one instruction with an RNG available for non-unitary
    /// operations: `reset` collapses the qubit by a projective measurement
    /// trajectory and re-prepares |0>.
    ///
    /// # Errors
    ///
    /// Currently infallible for all supported gates; kept fallible for
    /// parity with [`Statevector::apply`].
    pub fn apply_with_rng<R: Rng + ?Sized>(
        &mut self,
        inst: &Instruction,
        rng: &mut R,
    ) -> Result<(), SimError> {
        self.apply_kernel_with_rng(&instruction_kernel(inst), rng)
    }

    /// Projectively measure qubit `q` (collapsing the state) and flip it
    /// to |0> if the outcome was 1 — the `reset` trajectory operation.
    pub fn reset_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.reset_with(q, |p1| rng.gen_range(0.0..1.0) < p1);
    }

    /// [`Statevector::reset_qubit`] with its one draw resolved by `fire`,
    /// which gets `P(q = 1)` and answers whether the outcome is 1.
    pub(crate) fn reset_with(&mut self, q: usize, fire: impl FnOnce(f64) -> bool) {
        let outcome_one = fire(self.probability_one(q));
        let bit = 1usize << q;
        // Project onto the sampled outcome.
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            let is_one = idx & bit != 0;
            if is_one != outcome_one {
                *amp = Complex::ZERO;
            }
        }
        self.renormalize();
        if outcome_one {
            self.apply_x(q);
        }
    }

    /// Apply one instruction (barriers and measurements are no-ops here):
    /// decode it through the simulator's one gate table
    /// ([`crate::fusion::instruction_kernel`]) and apply the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] for `reset` (which needs an RNG;
    /// see [`Statevector::apply_with_rng`]).
    pub fn apply(&mut self, inst: &Instruction) -> Result<(), SimError> {
        self.apply_kernel(&instruction_kernel(inst))
    }

    /// Apply an arbitrary 2x2 unitary `[[a, b], [c, d]]` to qubit `q`.
    pub(crate) fn apply_1q(&mut self, q: usize, m: &[[Complex; 2]; 2]) {
        let bit = 1usize << q;
        for base in 0..self.amps.len() {
            if base & bit == 0 {
                let i0 = base;
                let i1 = base | bit;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    pub(crate) fn apply_x(&mut self, q: usize) {
        let bit = 1usize << q;
        for base in 0..self.amps.len() {
            if base & bit == 0 {
                self.amps.swap(base, base | bit);
            }
        }
    }

    /// Multiply the |1> component of qubit `q` by `phase`.
    pub(crate) fn apply_phase(&mut self, q: usize, phase: Complex) {
        let bit = 1usize << q;
        for idx in 0..self.amps.len() {
            if idx & bit != 0 {
                self.amps[idx] = self.amps[idx] * phase;
            }
        }
    }

    /// Multiply the |0> component of qubit `q` by `c0` and the |1>
    /// component by `c1` — a general diagonal 1q gate.
    pub(crate) fn apply_phase_pair(&mut self, q: usize, c0: Complex, c1: Complex) {
        let bit = 1usize << q;
        for idx in 0..self.amps.len() {
            let phase = if idx & bit == 0 { c0 } else { c1 };
            self.amps[idx] = self.amps[idx] * phase;
        }
    }

    pub(crate) fn apply_cx(&mut self, control: usize, target: usize) {
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        for base in 0..self.amps.len() {
            if base & cbit != 0 && base & tbit == 0 {
                self.amps.swap(base, base | tbit);
            }
        }
    }

    pub(crate) fn apply_controlled_phase(&mut self, a: usize, b: usize, phase: Complex) {
        let mask = (1usize << a) | (1usize << b);
        for idx in 0..self.amps.len() {
            if idx & mask == mask {
                self.amps[idx] = self.amps[idx] * phase;
            }
        }
    }

    pub(crate) fn apply_swap(&mut self, a: usize, b: usize) {
        let abit = 1usize << a;
        let bbit = 1usize << b;
        for idx in 0..self.amps.len() {
            if idx & abit != 0 && idx & bbit == 0 {
                self.amps.swap(idx, (idx & !abit) | bbit);
            }
        }
    }

    /// Probability that qubit `q` is measured as 1.
    #[must_use]
    pub fn probability_one(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Apply one amplitude-damping trajectory step on qubit `q` with decay
    /// probability `gamma` (sampled via the standard Kraus unraveling:
    /// with probability `gamma * P(q=1)` the excitation decays to |0>;
    /// otherwise the no-jump operator renormalizes the state).
    ///
    /// This is how T1 relaxation enters Monte-Carlo statevector
    /// simulation without density matrices.
    pub fn apply_amplitude_damping<R: Rng + ?Sized>(&mut self, q: usize, gamma: f64, rng: &mut R) {
        self.damp_with(q, gamma, |p_jump| rng.gen_range(0.0..1.0) < p_jump);
    }

    /// [`Statevector::apply_amplitude_damping`] with its draw resolved by
    /// `fire`, which gets the jump probability and answers whether the
    /// excitation decays. No draw at all when `gamma <= 0`.
    pub(crate) fn damp_with(&mut self, q: usize, gamma: f64, fire: impl FnOnce(f64) -> bool) {
        if gamma <= 0.0 {
            return;
        }
        let gamma = gamma.min(1.0);
        let p_jump = gamma * self.probability_one(q);
        let bit = 1usize << q;
        if fire(p_jump) {
            // Jump: K1 = sqrt(gamma)|0><1| — move |1> amplitude to |0>.
            for base in 0..self.amps.len() {
                if base & bit == 0 {
                    self.amps[base] = self.amps[base | bit];
                    self.amps[base | bit] = Complex::ZERO;
                }
            }
        } else {
            // No jump: K0 = diag(1, sqrt(1-gamma)).
            let k = (1.0 - gamma).sqrt();
            for (idx, amp) in self.amps.iter_mut().enumerate() {
                if idx & bit != 0 {
                    *amp = *amp * k;
                }
            }
        }
        self.renormalize();
    }

    /// Apply a dephasing trajectory step on qubit `q`: with probability
    /// `p_phase`, apply Z (pure T2 dephasing).
    pub fn apply_dephasing<R: Rng + ?Sized>(&mut self, q: usize, p_phase: f64, rng: &mut R) {
        self.dephase_with(q, p_phase, |p| rng.gen_range(0.0..1.0) < p);
    }

    /// [`Statevector::apply_dephasing`] with its draw resolved by `fire`,
    /// which gets the flip probability. No draw at all when
    /// `p_phase <= 0`.
    pub(crate) fn dephase_with(&mut self, q: usize, p_phase: f64, fire: impl FnOnce(f64) -> bool) {
        if p_phase > 0.0 && fire(p_phase.min(1.0)) {
            self.apply_phase(q, Complex::real(-1.0));
        }
    }

    fn renormalize(&mut self) {
        let norm = self.norm();
        if norm > 1e-300 {
            let inv = 1.0 / norm;
            for amp in &mut self.amps {
                *amp = *amp * inv;
            }
        }
    }

    /// Measurement probabilities over all `2^n` basis states.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Write the measurement probabilities into `buf` (cleared first),
    /// reusing its allocation — the zero-allocation variant of
    /// [`Statevector::probabilities`] for hot loops.
    pub fn probabilities_into(&self, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend(self.amps.iter().map(|a| a.norm_sqr()));
    }

    /// Sample one basis state according to the measurement distribution.
    ///
    /// A single linear scan; when drawing many shots from the same state,
    /// build a [`CdfSampler`] once instead (`O(n)` per shot becomes
    /// `O(log n)`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // Forward prefix accumulation — the same summation order (and
        // therefore the same rounding) as the CdfSampler table.
        let mut acc = 0.0f64;
        for (idx, amp) in self.amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if u < acc {
                return idx;
            }
        }
        self.amps.len() - 1 // numerical tail
    }

    /// L2 norm of the state (should always be ~1).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// |<self|other>|^2, the state fidelity with another pure state.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn overlap(&self, other: &Statevector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "width mismatch");
        let mut inner = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            inner += a.conj() * *b;
        }
        inner.norm_sqr()
    }
}

/// A cached cumulative-probability table for repeated sampling from one
/// [`Statevector`]: the sampler every dense noisy trajectory draws its
/// shots from.
///
/// Building costs one `O(2^n)` pass; every subsequent
/// [`CdfSampler::sample`] is a binary search (`O(n)` for `n` qubits)
/// instead of the `O(2^n)` linear scan of [`Statevector::sample`]. For
/// `s` shots the total drops from `O(s * 2^n)` to `O(2^n + s * n)`.
///
/// [`Statevector::sample`] is its oracle: draws are bit-identical on the
/// same RNG stream, because both consume exactly one uniform per draw and
/// resolve it against the same forward prefix sums.
///
/// A frame-tracked trajectory builds a *compressed* table: one entry per
/// basis state of its support (the only states it can hold amplitude
/// on), mapped back by rank. The full table's other entries add exact
/// `+0.0` to the running sum, so the two tables hold the same prefix sums
/// and resolve every draw to the same basis state — including the
/// numerical tail, which is the register's last state in both.
///
/// # Examples
///
/// ```
/// use qcs_circuit::Circuit;
/// use qcs_sim::{CdfSampler, Statevector};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = Statevector::from_circuit(&bell).unwrap();
/// let sampler = CdfSampler::of(&state);
/// let mut rng = StdRng::seed_from_u64(7);
/// let outcome = sampler.sample(&mut rng);
/// assert!(outcome == 0b00 || outcome == 0b11);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdfSampler {
    cdf: Vec<f64>,
    /// `None`: entry `i` is basis state `i`. `Some`: entry `j` is the
    /// support's rank-`j` basis state.
    support: Option<Support>,
    /// The basis state a draw past the table's total resolves to: the
    /// register's last one, `2^n - 1`.
    tail: usize,
}

impl CdfSampler {
    /// Build the table for `state`.
    #[must_use]
    pub fn of(state: &Statevector) -> Self {
        let mut sampler = CdfSampler::default();
        sampler.rebuild(state);
        sampler
    }

    /// Rebuild the table for a new `state`, reusing the allocation — the
    /// zero-allocation path for loops that sample many states (e.g. one
    /// per Pauli trajectory).
    pub fn rebuild(&mut self, state: &Statevector) {
        state.probabilities_into(&mut self.cdf);
        self.accumulate(None, state.amps.len() - 1);
    }

    /// Rebuild the compressed table of a state of `num_qubits` qubits
    /// whose amplitude lies on `support`: `fill` writes the probability
    /// of each rank's basis state, in rank (= ascending basis) order. A
    /// support of the whole register is the plain table.
    pub(crate) fn rebuild_over(
        &mut self,
        num_qubits: usize,
        support: Support,
        fill: impl FnOnce(&mut Vec<f64>),
    ) {
        fill(&mut self.cdf);
        debug_assert_eq!(self.cdf.len(), 1 << support.k);
        let support = (support.k < num_qubits).then_some(support);
        self.accumulate(support, (1 << num_qubits) - 1);
    }

    /// Turn the probabilities in the buffer into their prefix sums.
    /// Summation is sequential (its rounding is order-sensitive), so
    /// equal probabilities give an equal table.
    fn accumulate(&mut self, support: Option<Support>, tail: usize) {
        let mut acc = 0.0f64;
        for p in &mut self.cdf {
            acc += *p;
            *p = acc;
        }
        self.support = support;
        self.tail = tail;
    }

    /// Sample one basis state by binary search over the cumulative table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty (built from no state).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.cdf.is_empty(), "CdfSampler::sample on an empty table");
        let u: f64 = rng.gen_range(0.0..1.0);
        let entry = self.cdf.partition_point(|&c| c <= u);
        match &self.support {
            _ if entry == self.cdf.len() => self.tail, // numerical tail
            None => entry,
            Some(support) => support.basis_of_rank(support.x0, entry as u64) as usize,
        }
    }
}

/// Gate matrices for [`crate::fusion`]'s decode table.
pub(crate) mod matrices {
    use crate::Complex;

    pub fn h() -> [[Complex; 2]; 2] {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        [
            [Complex::real(s), Complex::real(s)],
            [Complex::real(s), Complex::real(-s)],
        ]
    }

    pub fn y() -> [[Complex; 2]; 2] {
        [
            [Complex::ZERO, -Complex::I],
            [Complex::I, Complex::ZERO],
        ]
    }

    pub fn sx() -> [[Complex; 2]; 2] {
        let p = Complex::new(0.5, 0.5);
        let m = Complex::new(0.5, -0.5);
        [[p, m], [m, p]]
    }

    /// U(theta, phi, lambda) in the OpenQASM convention.
    pub fn u(theta: f64, phi: f64, lambda: f64) -> [[Complex; 2]; 2] {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        [
            [
                Complex::real(c),
                -(Complex::from_polar(1.0, lambda) * s),
            ],
            [
                Complex::from_polar(1.0, phi) * s,
                Complex::from_polar(1.0, phi + lambda) * c,
            ],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::{library, Gate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn zero_state() {
        let s = Statevector::zero(3).unwrap();
        assert_close(s.probabilities()[0], 1.0);
        assert_close(s.norm(), 1.0);
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(matches!(
            Statevector::zero(30),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn x_flips() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = Statevector::from_circuit(&c).unwrap();
        assert_close(s.probabilities()[0b10], 1.0);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[0b00], 0.5);
        assert_close(p[0b11], 0.5);
        assert_close(p[0b01], 0.0);
    }

    #[test]
    fn ghz_state() {
        let c = library::ghz(4);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[0b0000], 0.5);
        assert_close(p[0b1111], 0.5);
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let c = library::qft(3);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        for &prob in &p {
            assert_close(prob, 1.0 / 8.0);
        }
    }

    #[test]
    fn swap_exchanges_states() {
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[0b10], 1.0);
    }

    #[test]
    fn inverse_restores_zero() {
        let fwd = library::qft(4);
        let mut c = Circuit::with_clbits(4, 4);
        for inst in fwd.instructions() {
            if inst.gate.is_unitary() {
                c.push(inst.clone());
            }
        }
        c.extend_from(&fwd.inverse()).unwrap();
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[0], 1.0);
    }

    #[test]
    fn rz_is_diagonal_phase_only() {
        let mut c = Circuit::new(1);
        c.h(0).rz(1.234, 0);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[0], 0.5);
        assert_close(p[1], 0.5);
    }

    #[test]
    fn sx_squared_is_x() {
        let mut c = Circuit::new(1);
        c.apply(Gate::Sx, &[0]).apply(Gate::Sx, &[0]);
        let p = Statevector::from_circuit(&c).unwrap().probabilities();
        assert_close(p[1], 1.0);
    }

    #[test]
    fn cp_controls_phase() {
        // |11> picks up the phase; |01> does not.
        let mut c = Circuit::new(2);
        c.x(0).x(1).cp(std::f64::consts::PI, 0, 1);
        let s = Statevector::from_circuit(&c).unwrap();
        assert_close(s.amplitude(0b11).re, -1.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = Statevector::from_circuit(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let zeros = (0..n).filter(|_| s.sample(&mut rng) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn probabilities_into_matches_probabilities() {
        let c = library::ghz(4);
        let s = Statevector::from_circuit(&c).unwrap();
        let mut buf = vec![99.0; 3]; // stale content must be cleared
        s.probabilities_into(&mut buf);
        assert_eq!(buf, s.probabilities());
    }

    #[test]
    fn cdf_sampler_matches_linear_scan_stream() {
        // Same seed, same state: the cached-CDF sampler must reproduce the
        // linear-scan sampler draw for draw.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(0.7, 2).cx(1, 2);
        let s = Statevector::from_circuit(&c).unwrap();
        let sampler = CdfSampler::of(&s);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            assert_eq!(sampler.sample(&mut rng_a), s.sample(&mut rng_b));
        }
    }

    #[test]
    fn cdf_sampler_rebuild_reuses_allocation() {
        let a = Statevector::from_circuit(&library::ghz(3)).unwrap();
        let b = Statevector::from_circuit(&library::qft(3)).unwrap();
        let mut sampler = CdfSampler::of(&a);
        sampler.rebuild(&b);
        assert_eq!(sampler, CdfSampler::of(&b));
    }

    #[test]
    fn compressed_table_resolves_every_draw_as_the_full_one() {
        // A state on the support {1, 3, 5, 7} of a 4-qubit register whose
        // probabilities sum to 21/64: most draws land past the total, and
        // both tables must send them to the register's last state, 15 —
        // not to the support's last, 7 — and every other draw to the
        // same basis state.
        let support = Support::spanned(0b0001, [0b0100, 0b0010]);
        let on_support = [(1, 0.5), (3, 0.0), (5, 0.25), (7, 0.125)];
        let mut amps = vec![Complex::ZERO; 16];
        for (v, amp) in on_support {
            amps[v] = Complex::real(amp);
        }
        let full = CdfSampler::of(&Statevector::from_amps(4, amps));
        let mut compressed = CdfSampler::default();
        compressed.rebuild_over(4, support, |probs| {
            probs.clear();
            probs.extend(on_support.map(|(_, amp)| amp * amp));
        });
        let mut rng = StdRng::seed_from_u64(23);
        let mut drawn = [0usize; 16];
        for _ in 0..2000 {
            let mut twin = rng.clone();
            let basis = compressed.sample(&mut rng);
            assert_eq!(basis, full.sample(&mut twin));
            drawn[basis] += 1;
        }
        assert!(drawn[15] > 1000 && drawn[1] > 0 && drawn[5] > 0 && drawn[7] > 0, "{drawn:?}");
        assert_eq!(drawn.iter().sum::<usize>(), drawn[1] + drawn[5] + drawn[7] + drawn[15]);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn cdf_sampler_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = CdfSampler::default().sample(&mut rng);
    }

    #[test]
    fn overlap_of_identical_states_is_one() {
        let c = library::ghz(3);
        let a = Statevector::from_circuit(&c).unwrap();
        let b = Statevector::from_circuit(&c).unwrap();
        assert_close(a.overlap(&b), 1.0);
    }

    #[test]
    fn overlap_orthogonal_states() {
        let mut c0 = Circuit::new(1);
        c0.x(0);
        let a = Statevector::zero(1).unwrap();
        let b = Statevector::from_circuit(&c0).unwrap();
        assert_close(a.overlap(&b), 0.0);
    }

    #[test]
    fn probability_one_tracks_state() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = Statevector::from_circuit(&c).unwrap();
        assert_close(s.probability_one(0), 0.0);
        assert_close(s.probability_one(1), 1.0);
        let mut c = Circuit::new(1);
        c.h(0);
        let s = Statevector::from_circuit(&c).unwrap();
        assert_close(s.probability_one(0), 0.5);
    }

    #[test]
    fn full_damping_resets_to_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Circuit::new(1);
        c.x(0);
        let mut s = Statevector::from_circuit(&c).unwrap();
        s.apply_amplitude_damping(0, 1.0, &mut rng);
        assert_close(s.probabilities()[0], 1.0);
        assert_close(s.norm(), 1.0);
    }

    #[test]
    fn damping_statistics_match_gamma() {
        // Over many trajectories, an excited qubit decays with prob gamma.
        let gamma = 0.3;
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5000;
        let mut decayed = 0usize;
        for _ in 0..n {
            let mut c = Circuit::new(1);
            c.x(0);
            let mut s = Statevector::from_circuit(&c).unwrap();
            s.apply_amplitude_damping(0, gamma, &mut rng);
            if s.probabilities()[0] > 0.5 {
                decayed += 1;
            }
        }
        let frac = decayed as f64 / n as f64;
        assert!((frac - gamma).abs() < 0.03, "decay fraction {frac}");
    }

    #[test]
    fn damping_preserves_ground_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Statevector::zero(2).unwrap();
        s.apply_amplitude_damping(0, 0.5, &mut rng);
        assert_close(s.probabilities()[0], 1.0);
    }

    #[test]
    fn dephasing_kills_coherence_statistically() {
        // |+> dephased with p=0.5 becomes a 50/50 classical mixture: the
        // x-basis expectation averages to 0 over trajectories.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 4000;
        let mut plus_count = 0usize;
        for _ in 0..n {
            let mut c = Circuit::new(1);
            c.h(0);
            let mut s = Statevector::from_circuit(&c).unwrap();
            s.apply_dephasing(0, 0.5, &mut rng);
            // Measure in x basis by applying H again.
            s.apply(&Instruction::gate(Gate::H, &[qcs_circuit::Qubit(0)]))
                .unwrap();
            if s.probabilities()[0] > 0.5 {
                plus_count += 1;
            }
        }
        let frac = plus_count as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "plus fraction {frac}");
    }

    #[test]
    fn reset_unsupported_without_rng() {
        let mut c = Circuit::new(1);
        c.apply(Gate::Reset, &[0]);
        assert!(matches!(
            Statevector::from_circuit(&c),
            Err(SimError::Unsupported { .. })
        ));
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            let mut s = Statevector::from_circuit(&c).unwrap();
            s.reset_qubit(0, &mut rng);
            assert!(s.probability_one(0) < 1e-12);
            assert_close(s.norm(), 1.0);
        }
    }

    #[test]
    fn reset_collapses_entangled_partner() {
        // Resetting one half of a Bell pair leaves the partner classical.
        let mut rng = StdRng::seed_from_u64(6);
        let mut ones = 0usize;
        let n = 2000;
        for _ in 0..n {
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            let mut s = Statevector::from_circuit(&c).unwrap();
            s.reset_qubit(0, &mut rng);
            let p1 = s.probability_one(1);
            assert!(
                !(1e-9..=1.0 - 1e-9).contains(&p1),
                "partner not collapsed: {p1}"
            );
            if p1 > 0.5 {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "partner outcome fraction {frac}");
    }

    #[test]
    fn apply_with_rng_handles_reset() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = Statevector::zero(1).unwrap();
        s.apply_with_rng(&Instruction::gate(Gate::X, &[qcs_circuit::Qubit(0)]), &mut rng)
            .unwrap();
        s.apply_with_rng(
            &Instruction::gate(Gate::Reset, &[qcs_circuit::Qubit(0)]),
            &mut rng,
        )
        .unwrap();
        assert_close(s.probabilities()[0], 1.0);
    }
}
