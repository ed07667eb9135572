//! Gate fusion: pre-decoded, sweep-fused statevector kernels.
//!
//! This module owns the repo's one [`qcs_circuit::Gate`] → matrix/phase
//! table (`decode`) and the two things built on it:
//!
//! - **Pre-decoding** ([`instruction_kernel`]): each instruction is
//!   decoded once into a compact [`Kernel`] (matrix elements and phases
//!   precomputed, fast paths for diagonal gates and X/CX/SWAP index
//!   permutations). This is what every execution path runs —
//!   [`Statevector::apply`] is `apply_kernel(&instruction_kernel(inst))`,
//!   and the noisy simulator decodes each instruction once per run so
//!   its trajectory loop never touches `Instruction` again.
//! - **Sweep fusion** ([`CompiledCircuit`]): runs of adjacent
//!   single-qubit gates on one wire collapse into a single
//!   [`Kernel::Fused1`] sweep, and adjacent 1q/2q gates sharing a qubit
//!   pair into a single [`Kernel::Fused2`] sweep. One pass loads each
//!   amplitude pair (or 4-amplitude block) into registers, applies every
//!   fused element operation in order, and writes back once — turning k
//!   memory passes into one. Nothing in production executes a fused
//!   stream yet: the noisy trajectories replay per-instruction kernels
//!   (error events land between instructions), and whether the pass
//!   earns its lines is an open question (DESIGN.md §4f).
//!
//! Fusion is *sweep* fusion, not matrix-product fusion: a fused kernel
//! stores the per-element operation **sequence**, not the folded matrix
//! product. Folding `k` 2×2 matrices into one would change floating-point
//! rounding (`(AB)v != A(Bv)` in floats); applying the same element
//! operations in the same order inside one sweep performs bit-identical
//! arithmetic to the unfused path, because each full-array pass decomposes
//! into independent per-pair (or per-block) updates. That is what lets
//! the property tests assert bit-*identical* amplitudes and [`Counts`]
//! between fused and unfused execution (see DESIGN.md §4f).
//!
//! [`Counts`]: crate::Counts

use qcs_circuit::{Circuit, Gate, Instruction};
use rand::Rng;

use crate::statevector::matrices;
use crate::{Complex, SimError, Statevector, SvExec};

/// One element operation of a fused single-qubit sweep, acting on an
/// amplitude pair `(a0, a1)` = (bit clear, bit set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op1 {
    /// General 2×2 unitary.
    Mat([[Complex; 2]; 2]),
    /// Multiply the |1> amplitude by a phase (Z, S, T, ...).
    Phase(Complex),
    /// Multiply |0> and |1> amplitudes by separate phases (Rz).
    PhasePair(Complex, Complex),
    /// Exchange the pair (Pauli-X).
    X,
}

/// One element operation of a fused two-qubit sweep over the 4-amplitude
/// block `(x00, x01, x10, x11)` of a sorted qubit pair `(lo, hi)`, where
/// `x01` has the `lo` bit set and `x10` the `hi` bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op2 {
    /// A 1q operation on the low qubit: acts on pairs `(x00,x01)` and
    /// `(x10,x11)`.
    Low(Op1),
    /// A 1q operation on the high qubit: acts on pairs `(x00,x10)` and
    /// `(x01,x11)`.
    High(Op1),
    /// CX with control = low qubit: swaps `x01 <-> x11`.
    CxControlLow,
    /// CX with control = high qubit: swaps `x10 <-> x11`.
    CxControlHigh,
    /// SWAP: exchanges `x01 <-> x10`.
    SwapQ,
    /// Controlled phase: multiplies `x11`.
    Phase11(Complex),
}

/// A pre-decoded statevector operation. Direct variants are single-pass
/// fast paths; `Fused*` variants apply an operation sequence in one pass.
#[derive(Debug, Clone, PartialEq)]
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
    /// Fused run of 1q operations on one wire.
    Fused1(usize, Vec<Op1>),
    /// Fused run of 1q/2q operations on a sorted qubit pair `(lo, hi)`.
    Fused2(usize, usize, Vec<Op2>),
    /// Mid-circuit reset (needs an RNG; see
    /// [`Statevector::apply_kernel_with_rng`]).
    Reset(usize),
}

#[inline(always)]
pub(crate) fn op1_apply(op: &Op1, a0: &mut Complex, a1: &mut Complex) {
    match op {
        Op1::Mat(m) => {
            let (b0, b1) = (*a0, *a1);
            *a0 = m[0][0] * b0 + m[0][1] * b1;
            *a1 = m[1][0] * b0 + m[1][1] * b1;
        }
        Op1::Phase(p) => *a1 = *a1 * *p,
        Op1::PhasePair(c0, c1) => {
            *a0 = *a0 * *c0;
            *a1 = *a1 * *c1;
        }
        Op1::X => std::mem::swap(a0, a1),
    }
}

/// Apply one element operation of a fused 2q sweep to a 4-amplitude
/// block `(x00, x01, x10, x11)` — shared by [`Statevector::apply_fused2`]
/// and the blocked kernels in [`crate::kernels`], so both paths perform
/// literally the same arithmetic per block.
#[inline(always)]
pub(crate) fn op2_apply(
    op: &Op2,
    x00: &mut Complex,
    x01: &mut Complex,
    x10: &mut Complex,
    x11: &mut Complex,
) {
    match op {
        Op2::Low(op1) => {
            op1_apply(op1, x00, x01);
            op1_apply(op1, x10, x11);
        }
        Op2::High(op1) => {
            op1_apply(op1, x00, x10);
            op1_apply(op1, x01, x11);
        }
        Op2::CxControlLow => std::mem::swap(x01, x11),
        Op2::CxControlHigh => std::mem::swap(x10, x11),
        Op2::SwapQ => std::mem::swap(x01, x10),
        Op2::Phase11(p) => *x11 = *x11 * *p,
    }
}

impl Statevector {
    /// Apply a fused run of 1q operations on wire `q` in one array pass.
    pub(crate) fn apply_fused1(&mut self, q: usize, ops: &[Op1]) {
        let bit = 1usize << q;
        let amps = self.amps_mut();
        for base in 0..amps.len() {
            if base & bit == 0 {
                let i1 = base | bit;
                let mut a0 = amps[base];
                let mut a1 = amps[i1];
                for op in ops {
                    op1_apply(op, &mut a0, &mut a1);
                }
                amps[base] = a0;
                amps[i1] = a1;
            }
        }
    }

    /// Apply a fused run of operations on the sorted pair `(qa, qb)`,
    /// `qa < qb`, in one array pass over 4-amplitude blocks.
    pub(crate) fn apply_fused2(&mut self, qa: usize, qb: usize, ops: &[Op2]) {
        debug_assert!(qa < qb, "fused pair must be sorted");
        let abit = 1usize << qa;
        let bbit = 1usize << qb;
        let mask = abit | bbit;
        let amps = self.amps_mut();
        for base in 0..amps.len() {
            if base & mask == 0 {
                let i01 = base | abit;
                let i10 = base | bbit;
                let i11 = base | mask;
                let mut x00 = amps[base];
                let mut x01 = amps[i01];
                let mut x10 = amps[i10];
                let mut x11 = amps[i11];
                for op in ops {
                    op2_apply(op, &mut x00, &mut x01, &mut x10, &mut x11);
                }
                amps[base] = x00;
                amps[i01] = x01;
                amps[i10] = x10;
                amps[i11] = x11;
            }
        }
    }

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
            Kernel::Fused1(q, ops) => self.apply_fused1(*q, ops),
            Kernel::Fused2(a, b, ops) => self.apply_fused2(*a, *b, ops),
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

/// The decode of one instruction, before fusion grouping.
enum Decoded {
    /// No state effect.
    Skip,
    /// A single-qubit operation.
    One(usize, Op1),
    /// A two-qubit operation in original operand order.
    Two(usize, usize, TwoOp),
    /// Mid-circuit reset.
    Reset(usize),
}

enum TwoOp {
    /// CX; operands are `(control, target)`.
    Cx,
    Swap,
    CPhase(Complex),
}

/// Decode one instruction into its element operation — the only
/// Gate → matrix/phase table in the simulator.
fn decode(inst: &Instruction) -> Decoded {
    use std::f64::consts::FRAC_PI_2;
    use std::f64::consts::FRAC_PI_4;
    let q0 = || inst.qubits[0].index();
    match inst.gate {
        Gate::Barrier | Gate::Measure | Gate::Id => Decoded::Skip,
        Gate::Reset => Decoded::Reset(q0()),
        Gate::X => Decoded::One(q0(), Op1::X),
        Gate::Y => Decoded::One(q0(), Op1::Mat(matrices::y())),
        Gate::Z => Decoded::One(q0(), Op1::Phase(Complex::real(-1.0))),
        Gate::H => Decoded::One(q0(), Op1::Mat(matrices::h())),
        Gate::S => Decoded::One(q0(), Op1::Phase(Complex::I)),
        Gate::Sdg => Decoded::One(q0(), Op1::Phase(-Complex::I)),
        Gate::T => Decoded::One(q0(), Op1::Phase(Complex::from_polar(1.0, FRAC_PI_4))),
        Gate::Tdg => Decoded::One(q0(), Op1::Phase(Complex::from_polar(1.0, -FRAC_PI_4))),
        Gate::Sx => Decoded::One(q0(), Op1::Mat(matrices::sx())),
        Gate::Rx(t) => Decoded::One(q0(), Op1::Mat(matrices::u(t, -FRAC_PI_2, FRAC_PI_2))),
        Gate::Ry(t) => Decoded::One(q0(), Op1::Mat(matrices::u(t, 0.0, 0.0))),
        Gate::Rz(t) => Decoded::One(
            q0(),
            Op1::PhasePair(
                Complex::from_polar(1.0, -t / 2.0),
                Complex::from_polar(1.0, t / 2.0),
            ),
        ),
        Gate::U(t, p, l) => Decoded::One(q0(), Op1::Mat(matrices::u(t, p, l))),
        Gate::Cx => Decoded::Two(q0(), inst.qubits[1].index(), TwoOp::Cx),
        Gate::Cz => Decoded::Two(
            q0(),
            inst.qubits[1].index(),
            TwoOp::CPhase(Complex::real(-1.0)),
        ),
        Gate::Cp(t) => Decoded::Two(
            q0(),
            inst.qubits[1].index(),
            TwoOp::CPhase(Complex::from_polar(1.0, t)),
        ),
        Gate::Swap => Decoded::Two(q0(), inst.qubits[1].index(), TwoOp::Swap),
    }
}

/// The direct (unfused) kernel of a single instruction — the same decode
/// the fusion pass uses, without grouping. This is what
/// [`Statevector::apply`] and the noisy simulator's trajectories execute.
#[must_use]
pub fn instruction_kernel(inst: &Instruction) -> Kernel {
    match decode(inst) {
        Decoded::Skip => Kernel::Noop,
        Decoded::One(q, op) => kernel_of_op1(q, op),
        Decoded::Two(a, b, op) => kernel_of_two(a, b, op),
        Decoded::Reset(q) => Kernel::Reset(q),
    }
}

fn kernel_of_op1(q: usize, op: Op1) -> Kernel {
    match op {
        Op1::X => Kernel::X(q),
        Op1::Mat(m) => Kernel::Mat1(q, m),
        Op1::Phase(p) => Kernel::Phase1(q, p),
        Op1::PhasePair(c0, c1) => Kernel::PhasePair1(q, c0, c1),
    }
}

fn kernel_of_two(a: usize, b: usize, op: TwoOp) -> Kernel {
    match op {
        TwoOp::Cx => Kernel::Cx(a, b),
        TwoOp::Swap => Kernel::Swap(a, b),
        TwoOp::CPhase(p) => Kernel::CPhase(a, b, p),
    }
}

/// Convert a two-qubit operation on original operands `(a, b)` into the
/// block element op of the sorted pair `(lo, hi)`.
fn op2_of_two(a: usize, b: usize, op: &TwoOp) -> Op2 {
    let lo = a.min(b);
    match op {
        TwoOp::Cx => {
            if a == lo {
                Op2::CxControlLow
            } else {
                Op2::CxControlHigh
            }
        }
        TwoOp::Swap => Op2::SwapQ,
        TwoOp::CPhase(p) => Op2::Phase11(*p),
    }
}

/// The open fusion group during the single compile pass.
enum Pending {
    None,
    One(usize, Vec<Op1>),
    /// Sorted pair `(lo, hi)`.
    Two(usize, usize, Vec<Op2>),
}

/// A circuit decoded into a fused [`Kernel`] stream, executable without
/// ever re-visiting the source [`Instruction`]s.
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
/// let fused = compiled.execute_with(&SvExec::auto()).unwrap();
/// let unfused = Statevector::from_circuit(&circuit).unwrap();
/// assert_eq!(fused, unfused); // bit-identical amplitudes
/// assert!(compiled.kernels().len() <= circuit.instructions().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    num_qubits: usize,
    kernels: Vec<Kernel>,
}

impl CompiledCircuit {
    /// Decode and fuse `circuit` into a kernel stream.
    ///
    /// Fusion only merges *adjacent* instructions (runs of 1q gates on one
    /// wire; 1q/2q gates on one qubit pair): reordering commuting gates
    /// would change floating-point evaluation order and break bit
    /// reproducibility. `id`/`barrier`/`measure` are transparent — they
    /// have no state effect, so a run may continue across them.
    #[must_use]
    pub fn compile(circuit: &Circuit) -> Self {
        let mut kernels = Vec::new();
        let mut pending = Pending::None;

        for inst in circuit.instructions() {
            match decode(inst) {
                Decoded::Skip => {}
                Decoded::One(q, op) => {
                    pending = match pending {
                        Pending::One(pq, mut ops) if pq == q => {
                            ops.push(op);
                            Pending::One(pq, ops)
                        }
                        Pending::Two(lo, hi, mut ops) if q == lo || q == hi => {
                            ops.push(if q == lo { Op2::Low(op) } else { Op2::High(op) });
                            Pending::Two(lo, hi, ops)
                        }
                        other => {
                            flush(other, &mut kernels);
                            Pending::One(q, vec![op])
                        }
                    };
                }
                Decoded::Two(a, b, op) => {
                    if a == b {
                        // Degenerate operand pair: keep the per-gate
                        // behavior exactly (no block decomposition).
                        flush(pending, &mut kernels);
                        pending = Pending::None;
                        kernels.push(kernel_of_two(a, b, op));
                        continue;
                    }
                    let (lo, hi) = (a.min(b), a.max(b));
                    pending = match pending {
                        Pending::Two(plo, phi, mut ops) if (plo, phi) == (lo, hi) => {
                            ops.push(op2_of_two(a, b, &op));
                            Pending::Two(lo, hi, ops)
                        }
                        Pending::One(pq, ops1) if pq == lo || pq == hi => {
                            // Promote the 1q run onto the pair's 4-blocks:
                            // each op acts on the same disjoint amplitude
                            // pairs either way, so this is exact.
                            let mut ops: Vec<Op2> = ops1
                                .into_iter()
                                .map(|o| if pq == lo { Op2::Low(o) } else { Op2::High(o) })
                                .collect();
                            ops.push(op2_of_two(a, b, &op));
                            Pending::Two(lo, hi, ops)
                        }
                        other => {
                            flush(other, &mut kernels);
                            Pending::Two(lo, hi, vec![op2_of_two(a, b, &op)])
                        }
                    };
                }
                Decoded::Reset(q) => {
                    flush(pending, &mut kernels);
                    pending = Pending::None;
                    kernels.push(Kernel::Reset(q));
                }
            }
        }
        flush(pending, &mut kernels);
        CompiledCircuit {
            num_qubits: circuit.num_qubits(),
            kernels,
        }
    }

    /// Register width of the source circuit.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The fused kernel stream.
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Whether the stream contains a mid-circuit reset (which the
    /// RNG-free execution paths cannot run).
    #[must_use]
    pub fn has_reset(&self) -> bool {
        self.kernels.iter().any(|k| matches!(k, Kernel::Reset(_)))
    }

    /// Execute the stream on |0...0> under an execution policy —
    /// bit-identical to folding [`Statevector::apply_kernel`] over
    /// [`CompiledCircuit::kernels`] at every setting (see
    /// [`crate::SvExec`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for oversized circuits or mid-circuit resets.
    pub fn execute_with(&self, exec: &SvExec) -> Result<Statevector, SimError> {
        let mut state = Statevector::zero(self.num_qubits)?;
        exec.run_stream(&mut state, &self.kernels)?;
        Ok(state)
    }
}

fn flush(pending: Pending, kernels: &mut Vec<Kernel>) {
    match pending {
        Pending::None => {}
        Pending::One(q, mut ops) => {
            if ops.len() == 1 {
                kernels.push(kernel_of_op1(q, ops.remove(0)));
            } else {
                kernels.push(Kernel::Fused1(q, ops));
            }
        }
        Pending::Two(lo, hi, ops) => {
            if ops.len() == 1 {
                // A lone 2q op: emit the direct fast path.
                kernels.push(match ops[0] {
                    Op2::CxControlLow => Kernel::Cx(lo, hi),
                    Op2::CxControlHigh => Kernel::Cx(hi, lo),
                    Op2::SwapQ => Kernel::Swap(lo, hi),
                    Op2::Phase11(p) => Kernel::CPhase(lo, hi, p),
                    // A Two group always opens with a 2q op, so a lone
                    // Low/High element is unreachable; keep it total.
                    Op2::Low(op) => kernel_of_op1(lo, op),
                    Op2::High(op) => kernel_of_op1(hi, op),
                });
            } else {
                kernels.push(Kernel::Fused2(lo, hi, ops));
            }
        }
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

    /// Bit-exact amplitude comparison (PartialEq on f64 is exact).
    fn assert_bit_identical(circuit: &Circuit) {
        let fused = execute(&CompiledCircuit::compile(circuit)).unwrap();
        let unfused = Statevector::from_circuit(circuit).unwrap();
        assert_eq!(fused, unfused, "fused != unfused for {}", circuit.name());
    }

    #[test]
    fn library_circuits_bit_identical() {
        assert_bit_identical(&library::ghz(5));
        assert_bit_identical(&library::qft(5));
        assert_bit_identical(&crate::qft_pos_circuit(6));
    }

    #[test]
    fn dense_single_wire_run_fuses() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).t(0).rz(0.3, 0).x(0).apply(Gate::Sx, &[0]);
        let compiled = CompiledCircuit::compile(&c);
        assert!(
            matches!(compiled.kernels(), [Kernel::Fused1(0, ops)] if ops.len() == 6),
            "{:?}",
            compiled.kernels()
        );
        assert_bit_identical(&c);
    }

    #[test]
    fn pair_run_promotes_single_qubit_prefix() {
        let mut c = Circuit::new(3);
        c.h(0).rz(0.5, 0).cx(0, 1).h(1).cz(0, 1).swap(0, 1);
        let compiled = CompiledCircuit::compile(&c);
        assert!(
            matches!(compiled.kernels(), [Kernel::Fused2(0, 1, ops)] if ops.len() == 6),
            "{:?}",
            compiled.kernels()
        );
        assert_bit_identical(&c);
    }

    #[test]
    fn runs_continue_across_barriers_and_measures() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).barrier().s(0).measure(0, 0).t(0);
        let compiled = CompiledCircuit::compile(&c);
        assert!(matches!(compiled.kernels(), [Kernel::Fused1(0, ops)] if ops.len() == 3));
        assert_bit_identical(&c);
    }

    #[test]
    fn interleaved_wires_break_runs() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).h(0);
        let compiled = CompiledCircuit::compile(&c);
        // No reordering: three separate direct kernels.
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
        pair.h(0).cx(1, 0).cx(0, 1); // fused block with both directions
        let compiled = CompiledCircuit::compile(&pair);
        assert!(matches!(compiled.kernels(), [Kernel::Fused2(0, 1, _)]));
        assert_bit_identical(&pair);
    }

    #[test]
    fn reset_kernel_matches_reset_qubit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let compiled = CompiledCircuit::compile(&c);
        assert!(!compiled.has_reset());
        let mut state = execute(&compiled).unwrap();
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
        assert!(compiled.has_reset());
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
