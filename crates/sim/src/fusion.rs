//! The simulator's gate table and its pre-decoded kernel streams.
//!
//! This module owns the repo's one [`qcs_circuit::Gate`] → matrix/phase
//! table ([`instruction_kernel`]) and the two things built on it:
//!
//! - **Pre-decoding**: each instruction is decoded once into a compact
//!   [`Kernel`] (matrix elements and phases precomputed, dedicated
//!   variants for diagonal gates and X/CX/SWAP index permutations). This
//!   is what every execution path runs — [`Statevector::apply`] is
//!   `apply_kernel(&instruction_kernel(inst))`, and the noisy simulator
//!   decodes each instruction once per run so its trajectory loop never
//!   touches `Instruction` again.
//! - **[`CompiledCircuit`]**: a whole circuit decoded into a kernel
//!   stream (no-ops dropped), executed by the frame executor
//!   ([`crate::frame`]): X/CX/SWAP update an index map in O(1),
//!   diagonal runs are applied many-per-pass, only `Mat1` kernels and
//!   the final read touch the amplitude array, and the array holds only
//!   the `2^k` states the stream's `Mat1`s can reach.
//!
//! The module keeps the name of the sweep-fusion pass it used to hold
//! (PR 5 → PR 15: runs of adjacent gates on one wire or one qubit pair
//! applied in a single array pass). That pass never paid — a fused run
//! went through a generic op-dispatch loop and lost the sparse Cx/phase
//! loops, slower than the per-instruction stream at every width it was
//! timed on — and the frame executor removes the passes it tried to
//! merge (DESIGN.md §4f).

use qcs_circuit::{Circuit, Gate, Instruction};
use rand::Rng;

use crate::frame::{FrameState, Packing};
use crate::statevector::matrices;
use crate::{Complex, SimError, Statevector, SvExec};

/// A pre-decoded statevector operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// No state effect (id, barrier, measure).
    Noop,
    /// Pauli-X index permutation on one qubit.
    X(usize),
    /// General 2×2 unitary on one qubit.
    Mat1(usize, [[Complex; 2]; 2]),
    /// Diagonal phase on the |1> component of one qubit.
    Phase1(usize, Complex),
    /// Separate phases on the |0> and |1> components (Rz).
    PhasePair1(usize, Complex, Complex),
    /// CX index permutation, `(control, target)`.
    Cx(usize, usize),
    /// SWAP index permutation.
    Swap(usize, usize),
    /// Controlled phase on the |11> component of a pair.
    CPhase(usize, usize, Complex),
    /// Mid-circuit reset (needs an RNG; see
    /// [`Statevector::apply_kernel_with_rng`]).
    Reset(usize),
}

/// Apply the 2×2 unitary `m` to an amplitude pair `(a0, a1)` = (bit
/// clear, bit set) — the one `Mat1` element expression outside the
/// oracle, so the sparse backend performs literally the arithmetic of
/// `Statevector::apply_1q`.
#[inline(always)]
pub(crate) fn mat1_apply(m: &[[Complex; 2]; 2], a0: Complex, a1: Complex) -> (Complex, Complex) {
    (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
}

impl Statevector {
    /// Apply one pre-decoded kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] for [`Kernel::Reset`], which
    /// needs an RNG (see [`Statevector::apply_kernel_with_rng`]).
    pub fn apply_kernel(&mut self, kernel: &Kernel) -> Result<(), SimError> {
        match kernel {
            Kernel::Noop => {}
            Kernel::X(q) => self.apply_x(*q),
            Kernel::Mat1(q, m) => self.apply_1q(*q, m),
            Kernel::Phase1(q, p) => self.apply_phase(*q, *p),
            Kernel::PhasePair1(q, c0, c1) => self.apply_phase_pair(*q, *c0, *c1),
            Kernel::Cx(c, t) => self.apply_cx(*c, *t),
            Kernel::Swap(a, b) => self.apply_swap(*a, *b),
            Kernel::CPhase(a, b, p) => self.apply_controlled_phase(*a, *b, *p),
            Kernel::Reset(_) => return Err(SimError::Unsupported { gate: "reset" }),
        }
        Ok(())
    }

    /// Apply one pre-decoded kernel with an RNG available for
    /// [`Kernel::Reset`] (the counterpart of
    /// [`Statevector::apply_with_rng`]).
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for parity with
    /// [`Statevector::apply_kernel`].
    pub fn apply_kernel_with_rng<R: Rng + ?Sized>(
        &mut self,
        kernel: &Kernel,
        rng: &mut R,
    ) -> Result<(), SimError> {
        if let Kernel::Reset(q) = kernel {
            self.reset_qubit(*q, rng);
            return Ok(());
        }
        self.apply_kernel(kernel)
    }
}

/// Decode one instruction into its kernel — the only Gate →
/// matrix/phase table in the simulator. This is what
/// [`Statevector::apply`] and the noisy simulator's trajectories
/// execute.
#[must_use]
pub fn instruction_kernel(inst: &Instruction) -> Kernel {
    use std::f64::consts::FRAC_PI_2;
    use std::f64::consts::FRAC_PI_4;
    // Closures: a barrier may carry no operands at all.
    let q0 = || inst.qubits()[0].index();
    let q1 = || inst.qubits()[1].index();
    match inst.gate {
        Gate::Barrier | Gate::Measure | Gate::Id => Kernel::Noop,
        Gate::Reset => Kernel::Reset(q0()),
        Gate::X => Kernel::X(q0()),
        Gate::Y => Kernel::Mat1(q0(), matrices::y()),
        Gate::Z => Kernel::Phase1(q0(), Complex::real(-1.0)),
        Gate::H => Kernel::Mat1(q0(), matrices::h()),
        Gate::S => Kernel::Phase1(q0(), Complex::I),
        Gate::Sdg => Kernel::Phase1(q0(), -Complex::I),
        Gate::T => Kernel::Phase1(q0(), Complex::from_polar(1.0, FRAC_PI_4)),
        Gate::Tdg => Kernel::Phase1(q0(), Complex::from_polar(1.0, -FRAC_PI_4)),
        Gate::Sx => Kernel::Mat1(q0(), matrices::sx()),
        Gate::Rx(t) => Kernel::Mat1(q0(), matrices::u(t, -FRAC_PI_2, FRAC_PI_2)),
        Gate::Ry(t) => Kernel::Mat1(q0(), matrices::u(t, 0.0, 0.0)),
        Gate::Rz(t) => Kernel::PhasePair1(
            q0(),
            Complex::from_polar(1.0, -t / 2.0),
            Complex::from_polar(1.0, t / 2.0),
        ),
        Gate::U(t, p, l) => Kernel::Mat1(q0(), matrices::u(t, p, l)),
        Gate::Cx => Kernel::Cx(q0(), q1()),
        Gate::Cz => Kernel::CPhase(q0(), q1(), Complex::real(-1.0)),
        Gate::Cp(t) => Kernel::CPhase(q0(), q1(), Complex::from_polar(1.0, t)),
        Gate::Swap => Kernel::Swap(q0(), q1()),
    }
}

/// A circuit decoded into a [`Kernel`] stream, executable without ever
/// re-visiting the source [`Instruction`]s.
///
/// # Examples
///
/// ```
/// use qcs_circuit::library;
/// use qcs_sim::fusion::CompiledCircuit;
/// use qcs_sim::{Statevector, SvExec};
///
/// let circuit = library::qft(4);
/// let compiled = CompiledCircuit::compile(&circuit);
/// let framed = compiled.execute_with(&SvExec::auto()).unwrap();
/// let eager = Statevector::from_circuit(&circuit).unwrap();
/// assert_eq!(framed, eager); // equal amplitudes, to the bit on the support
/// assert!(compiled.kernels().len() <= circuit.instructions().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    num_qubits: usize,
    kernels: Vec<Kernel>,
}

impl CompiledCircuit {
    /// Decode `circuit` into a kernel stream, in instruction order.
    /// `id`/`barrier`/`measure` have no state effect and are dropped.
    #[must_use]
    pub fn compile(circuit: &Circuit) -> Self {
        CompiledCircuit {
            num_qubits: circuit.num_qubits(),
            kernels: circuit
                .instructions()
                .iter()
                .map(instruction_kernel)
                .filter(|kernel| !matches!(kernel, Kernel::Noop))
                .collect(),
        }
    }

    /// Register width of the source circuit.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The kernel stream.
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Execute the stream on |0...0> through the frame executor, which
    /// stores only the stream's support, and scatter the final state
    /// into `2^n` zeros — equal to folding [`Statevector::apply_kernel`]
    /// over [`CompiledCircuit::kernels`], bit for bit on the support (a
    /// zero the oracle computes may be `-0.0` off it). The parameter is
    /// read by nothing (see [`crate::SvExec`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for oversized circuits or mid-circuit resets.
    pub fn execute_with(&self, _exec: &SvExec) -> Result<Statevector, SimError> {
        let packing = Packing::of(self.num_qubits, &self.kernels)?;
        let mut state = FrameState::zero_in(&packing, Vec::new());
        state.run(&self.kernels)?;
        Ok(state.into_statevector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn execute(compiled: &CompiledCircuit) -> Result<Statevector, SimError> {
        compiled.execute_with(&SvExec::auto())
    }

    /// Bit-exact amplitude comparison (PartialEq on f64 is exact up to
    /// the sign of zero; `frame.rs` compares `to_bits`).
    fn assert_bit_identical(circuit: &Circuit) {
        let framed = execute(&CompiledCircuit::compile(circuit)).unwrap();
        let eager = Statevector::from_circuit(circuit).unwrap();
        assert_eq!(framed, eager, "framed != eager for {}", circuit.name());
    }

    #[test]
    fn library_circuits_bit_identical() {
        assert_bit_identical(&library::ghz(5));
        assert_bit_identical(&library::qft(5));
        assert_bit_identical(&crate::qft_pos_circuit(6));
    }

    #[test]
    fn runs_continue_across_barriers_and_measures() {
        // Directives decode to no-ops and are dropped at compile, so a
        // diagonal run stays one pending run across them.
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).barrier().s(0).measure(0, 0).t(0);
        let compiled = CompiledCircuit::compile(&c);
        assert!(matches!(
            compiled.kernels(),
            [Kernel::Mat1(0, _), Kernel::Phase1(0, _), Kernel::Phase1(0, _)]
        ));
        assert_bit_identical(&c);
    }

    #[test]
    fn interleaved_wires_break_runs() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).h(0);
        let compiled = CompiledCircuit::compile(&c);
        // No reordering: three kernels in instruction order.
        assert!(matches!(
            compiled.kernels(),
            [Kernel::Mat1(0, _), Kernel::Mat1(1, _), Kernel::Mat1(0, _)]
        ));
        assert_bit_identical(&c);
    }

    #[test]
    fn distinct_pairs_break_runs() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(
            compiled.kernels(),
            [Kernel::Cx(0, 1), Kernel::Cx(1, 2), Kernel::Cx(0, 1)]
        );
        assert_bit_identical(&c);
    }

    #[test]
    fn cx_direction_preserved() {
        let mut down = Circuit::new(2);
        down.x(1).cx(1, 0); // control is the higher-indexed qubit
        assert_bit_identical(&down);
        let mut pair = Circuit::new(2);
        pair.h(0).cx(1, 0).cx(0, 1); // both directions on one pair
        assert_bit_identical(&pair);
    }

    #[test]
    fn reset_kernel_matches_reset_qubit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut state = execute(&CompiledCircuit::compile(&c)).unwrap();
        let mut reference = state.clone();
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        state
            .apply_kernel_with_rng(&Kernel::Reset(0), &mut rng_a)
            .unwrap();
        reference.reset_qubit(0, &mut rng_b);
        assert_eq!(state, reference);
    }

    #[test]
    fn reset_rejected_without_rng() {
        let mut c = Circuit::new(1);
        c.apply(Gate::Reset, &[0]);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.kernels(), [Kernel::Reset(0)]);
        assert!(matches!(
            execute(&compiled),
            Err(SimError::Unsupported { .. })
        ));
    }

    #[test]
    fn random_circuits_bit_identical() {
        // A seed-driven random circuit sweep (the heavier cross-thread
        // property test lives in tests/properties.rs).
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (rng.gen_range(0..4usize));
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(1..60usize) {
                let q = rng.gen_range(0..n);
                match rng.gen_range(0..10u32) {
                    0 => {
                        c.h(q);
                    }
                    1 => {
                        c.x(q);
                    }
                    2 => {
                        c.rz(rng.gen_range(-3.0..3.0), q);
                    }
                    3 => {
                        c.ry(rng.gen_range(-3.0..3.0), q);
                    }
                    4 => {
                        c.s(q);
                    }
                    5 => {
                        c.t(q);
                    }
                    _ => {
                        let r = (q + 1 + rng.gen_range(0..n - 1)) % n;
                        match rng.gen_range(0..4u32) {
                            0 => {
                                c.cx(q, r);
                            }
                            1 => {
                                c.cz(q, r);
                            }
                            2 => {
                                c.cp(rng.gen_range(-3.0..3.0), q, r);
                            }
                            _ => {
                                c.swap(q, r);
                            }
                        }
                    }
                }
            }
            assert_bit_identical(&c);
        }
    }
}
