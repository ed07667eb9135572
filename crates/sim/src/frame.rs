//! Frame-tracked dense trajectories: the executor behind every
//! skip-ahead replay, the shared ideal evolution and
//! [`CompiledCircuit::execute_with`](crate::CompiledCircuit::execute_with).
//!
//! A routed circuit is mostly index permutations (the 10q QFT POS
//! compiled for paris is 360 `Cx` + 149 `Rz` + 20 `Mat1`), and the
//! per-kernel appliers of [`crate::statevector`]
//! ([`Statevector::apply_kernel`], the arithmetic oracle) pay a full pass
//! over the `2^n` array for each of them. A [`FrameState`] instead
//! carries a GF(2) affine **frame** beside its amplitudes and only
//! touches the array when arithmetic has to happen.
//!
//! # The mapping
//!
//! The state is `(amps, rows[n], cols[n], b)`, every mask a `u32`
//! (`n <= DENSE_MAX_QUBITS = 24`). The amplitude of logical basis state
//! `v` is stored at the physical index `p` with
//!
//! ```text
//! bit q of v = parity(p & rows[q]) ^ bit q of b
//! ```
//!
//! and `cols[q]` is the physical XOR-mask that flips logical bit `q`
//! alone (`rows`·`cols` = I over GF(2)), so `p = M(v ^ b)` with `M(w)`
//! the XOR of `cols[q]` over the set bits of `w`.
//!
//! # Only the support is stored
//!
//! Of the five kernel rules below only `Mat1` spreads amplitude: from
//! |0…0⟩ at `p = 0` the array is nonzero only on the span `S` of the
//! physical directions `cols[q]` its `Mat1`s pass over. Walking a kernel
//! stream with the frame alone, moving no data, finds `S` and its
//! dimension `k` ([`Packing::of`]); the state then starts from a change
//! of basis that maps `S` onto the low `k` physical bits instead of from
//! the identity frame, and `2^k` amplitudes hold it (a routed 10q QFT
//! spread over 15 qubits stores 1 024 of 32 768). Frame updates are
//! linear in `rows` / `cols`, so every later `cols[q]` of a `Mat1` is
//! the old one mapped into the low bits, and every pass stays inside
//! the stored array. The logical basis states held are the affine image
//! `b ⊕ R·S`, which the read enumerates in ascending `v` by rank
//! ([`crate::support::Support`]). Injected Pauli errors add no
//! direction (`Y` is replayed as a diagonal then an `X`), so every
//! trajectory of a run fits the ideal stream's packing.
//!
//! # The five kernel rules
//!
//! 1. `X(q)`: `b ^= 1 << q`.
//! 2. `Cx(c, t)`: `rows[t] ^= rows[c]; cols[c] ^= cols[t]; b_t ^= b_c`.
//!    `Swap(a, b)`: swap the two rows, the two cols, the two bits of
//!    `b`. Degenerate `Cx(q, q)` / `Swap(q, q)` do nothing, as in the
//!    oracle. None of the three moves an amplitude.
//! 3. `Phase1` / `PhasePair1` / `CPhase` (and `CPhase(q, q, ·)` ≡
//!    `Phase1`): push the physical selection masks `(rows[q], b_q)` —
//!    two for `CPhase` — and the constants onto a pending list. No later
//!    frame update or queued op moves data, so masks captured at push
//!    time stay valid until the flush: one pass in which each amplitude
//!    is loaded once, multiplied by every pending op in push order, and
//!    stored once.
//! 4. `Mat1(q, m)`: flush, then one pass over the pairs
//!    `(p, p ^ cols[q])`; the member with `parity(p & rows[q]) ^ b_q ==
//!    0` is `a0`.
//! 5. Read: flush, then gather `|amps[M(v ^ b)]|²` (or the amplitude
//!    itself) for the `v` of `b ⊕ R·S` in ascending order. Prefix sums
//!    over the probabilities are order-sensitive, so the gather is where
//!    canonical order is restored; no canonical-order amplitude copy
//!    exists before it. The states left out have amplitude zero in the
//!    oracle too and add `+0.0` to every prefix sum, so the compressed
//!    sampling table ([`CdfSampler`]) resolves every draw as the full one.
//!
//! # Why equality with the oracle is exact
//!
//! Every amplitude goes through the same `Complex` expressions in the
//! same order as under [`Statevector::apply_kernel`] folded over the
//! stream; only *where* it is stored differs. `Phase1` / `CPhase` leave
//! the amplitudes they do not select bit-for-bit alone (a blend, not a
//! multiply by one, which would turn `-0.0` into `+0.0`). The chunked
//! flush writes a product as `re·cr + im·(−ci)`, `im·cr + re·ci`;
//! `a + (−b)` is `a − b` and `+` commutes in IEEE-754, so that is
//! [`Complex`]'s own `mul`. An amplitude left out is one the oracle
//! computes as a zero from zeros: the read gives it `+0.0` where the
//! oracle may hold `-0.0`, and its probability is `+0.0` either way. The
//! differential tests below and in `noisy.rs` compare `to_bits`, and
//! amplitudes off the support by value.
//!
//! Decoherence and reset trajectories stay off the frame and run on
//! [`Statevector`]'s own appliers: they draw against
//! [`Statevector::probability_one`], a sequential sum in canonical index
//! order that a re-ordered array would round differently, and keeping
//! that order under a frame costs a gather walk per gate (DESIGN.md
//! §4f).
//!
//! # One thread per state, two ISA clones
//!
//! A [`FrameState`] owns a plain `Vec<Complex>` and every pass (flush,
//! `Mat1`, gather) walks it on the calling thread: parallelism in this
//! crate is the trajectory fan-out of [`crate::NoisySimulator`], one
//! state per worker, and nothing else (DESIGN.md §4g and its "Removed
//! designs" appendix have the numbers). The two hot loops are compiled
//! twice, baseline and AVX2 (`isa_dispatch!`); the host CPU picks, the
//! results are identical. That dispatch — calling the AVX2 clone after
//! the CPU probe — is the crate's only `unsafe`. The lane loops index
//! fixed-size chunks (`as_chunks_mut`), so their bounds are known at
//! compile time and nothing is left to check inside them.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::fusion::Kernel;
use crate::support::Support;
use crate::{CdfSampler, Complex, SimError, Statevector, DENSE_MAX_QUBITS};

/// Inert: the worker count of the amplitude-block teams the frame
/// executor used to split its passes over. The teams are gone (a state
/// is walked by the thread that owns it; DESIGN.md, "Removed designs")
/// and nothing reads this type any more. It stays, with
/// [`NoisySimulator::with_sv`](crate::NoisySimulator::with_sv) and the
/// parameter of
/// [`CompiledCircuit::execute_with`](crate::CompiledCircuit::execute_with),
/// only because `benchmark/` names all three; ROADMAP item 1 lists them
/// for removal.
///
/// # Examples
///
/// ```
/// use qcs_circuit::library;
/// use qcs_sim::fusion::CompiledCircuit;
/// use qcs_sim::{Statevector, SvExec};
///
/// let compiled = CompiledCircuit::compile(&library::qft(6));
/// let framed = compiled.execute_with(&SvExec::auto().with_threads(3)).unwrap();
/// let mut oracle = Statevector::zero(6).unwrap();
/// for kernel in compiled.kernels() {
///     oracle.apply_kernel(kernel).unwrap();
/// }
/// assert_eq!(framed, oracle); // equal amplitudes, to the bit on the support
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SvExec {
    /// Read by nothing (see the type's docs).
    pub threads: usize,
}

impl SvExec {
    /// The default value.
    #[must_use]
    pub fn auto() -> Self {
        SvExec::default()
    }

    /// This value with `threads` set; changes nothing.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Map pair index `p` to the lower index of its pair by inserting a 0 at
/// the position of `bit`: the upper index is `expand1(p, bit) | bit`.
/// Injective from `0..n/2` onto the bit-clear indices, ascending in `p`.
#[inline]
fn expand1(p: usize, bit: usize) -> usize {
    let low = p & (bit - 1);
    ((p - low) << 1) | low
}

/// Define an ISA-dispatched pair of clones for a hot loop: `$name`
/// probes the CPU (a cached atomic load) and jumps to `$avx2`, a copy of
/// `$imp` compiled with AVX2 enabled, when the host offers it.
///
/// The build targets baseline x86-64 (SSE2), so without this the
/// autovectorizer can never emit 256-bit lanes no matter how the loops
/// are shaped. `#[target_feature]` recompiles just these loops — plus
/// everything `#[inline(always)]`-ed into them (the register helpers) —
/// for the wider ISA. Packed AVX2 adds/muls are the same IEEE-754
/// operations as their scalar forms and rustc never licenses FMA
/// contraction, so both clones produce bit-identical amplitudes: the
/// dispatch is a pure wall-clock choice.
macro_rules! isa_dispatch {
    ($name:ident / $avx2:ident => $imp:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) {
            $imp($($arg),*)
        }

        /// ISA-dispatched wrapper; see [`isa_dispatch`].
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 just detected on this CPU.
                return unsafe { $avx2($($arg),*) };
            }
            $imp($($arg),*)
        }
    };
}

/// Amplitudes per register block of the flush and `Mat1` passes (four
/// AVX2 registers of two complexes each).
const CHUNK: usize = 8;

/// Fewest amplitudes a [`FrameState`] holds: the flush takes two chunks
/// at a time, so a narrower state is padded with zero amplitudes (idle
/// high qubits that no kernel touches and no read visits) instead of
/// getting per-amplitude loops of its own.
const MIN_AMPS: usize = 2 * CHUNK;

/// Amplitudes per parity super-block of the flush pass: 32 chunks, so
/// one `u64` per op holds both condition parities of every chunk and
/// the parity fold is paid once per 256 amplitudes.
const SUPER: usize = 32 * CHUNK;

/// Pending diagonals that force a flush: keeps the lane tables a flush
/// reads (0.75 KiB of each one-mask op) resident in L1 beside the
/// amplitude stream.
const MAX_PENDING: usize = 16;

/// Parity of the set bits of `x` — a shift-fold, because the build
/// targets baseline x86-64 where `count_ones` is not one instruction.
#[inline(always)]
fn parity(mut x: u32) -> u32 {
    x ^= x >> 16;
    x ^= x >> 8;
    x ^= x >> 4;
    (0x6996 >> (x & 15)) & 1
}

/// The word whose bit `j` is `parity(j & mask)` for `j < 32`.
fn parity_pattern(mask: u32) -> u32 {
    let mut word = 0u32;
    for t in 0..5 {
        let len = 1u32 << t;
        let low = word & ((1u32 << len) - 1);
        let high = if (mask >> t) & 1 == 1 { !low & ((1u32 << len) - 1) } else { low };
        word = low | (high << len);
    }
    word
}

/// The GF(2) affine map between logical basis states and physical
/// amplitude indices (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    rows: [u32; DENSE_MAX_QUBITS],
    cols: [u32; DENSE_MAX_QUBITS],
    b: u32,
}

impl Frame {
    fn identity() -> Self {
        let unit: [u32; DENSE_MAX_QUBITS] = std::array::from_fn(|q| 1 << q);
        Frame {
            rows: unit,
            cols: unit,
            b: 0,
        }
    }

    fn x(&mut self, q: usize) {
        self.b ^= 1 << q;
    }

    fn cx(&mut self, control: usize, target: usize) {
        if control == target {
            return;
        }
        self.rows[target] ^= self.rows[control];
        self.cols[control] ^= self.cols[target];
        self.b ^= self.flip(control) << target;
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.rows.swap(a, b);
        self.cols.swap(a, b);
        let differ = self.flip(a) ^ self.flip(b);
        self.b ^= (differ << a) | (differ << b);
    }

    /// Bit `q` of `b`.
    fn flip(&self, q: usize) -> u32 {
        (self.b >> q) & 1
    }

    /// The frame that stores a state supported on the span `support` of
    /// physical directions in its low `support.k` bits: with `B` the
    /// basis of `S`'s generators by ascending pivot, then the unit
    /// vectors of the other wires, `rows` is `B` (bit `i` of `rows[q]` is
    /// bit `q` of basis vector `i`) and `cols` is `B⁻¹`. The identity
    /// when `S` is every wire.
    fn packing(num_qubits: usize, support: &Support) -> Self {
        let pivots = support.gens.iter().fold(0u32, |m, &g| m | 1 << g.ilog2());
        let basis: Vec<u32> = (support.gens.iter().rev().map(|&g| g as u32))
            .chain((0..num_qubits).filter(|q| pivots >> q & 1 == 0).map(|q| 1 << q))
            .collect();
        // The position in `basis` of the unit vector of non-pivot wire `w`.
        let slot =
            |w: u32| support.k + w as usize - (pivots & ((1 << w) - 1)).count_ones() as usize;
        let mut frame = Frame::identity();
        for q in 0..num_qubits {
            frame.rows[q] = basis.iter().enumerate().fold(0, |row, (i, v)| row | (v >> q & 1) << i);
        }
        for (i, &v) in basis.iter().enumerate() {
            // Basis vector `i` is its leading wire plus non-pivot wires
            // only, so that wire's unit vector is vector `i` plus theirs.
            let wire = v.ilog2();
            let mut rest = v ^ 1 << wire;
            let mut col = 1 << i;
            while rest != 0 {
                col ^= 1 << slot(rest.trailing_zeros());
                rest &= rest - 1;
            }
            frame.cols[wire as usize] = col;
        }
        frame
    }

    /// `(v, p)` for every logical basis state `v` of `support` in
    /// ascending order, `p` the physical index storing it. Rank `j → j +
    /// 1` flips rank bits `0..=t` (`t` = trailing ones of `j`), so `v`
    /// moves by the XOR of the `t + 1` lowest-pivot generators and `p` by
    /// their images under `M`.
    fn stored_indices(&self, support: &Support) -> impl Iterator<Item = (usize, usize)> {
        let image = |w: u128| {
            let (mut w, mut p) = (w as u32, 0u32);
            while w != 0 {
                p ^= self.cols[w.trailing_zeros() as usize];
                w &= w - 1;
            }
            p
        };
        let mut steps = [(0u32, 0u32); DENSE_MAX_QUBITS + 1];
        let mut acc = (0u32, 0u32);
        for (step, &gen) in steps.iter_mut().zip(support.gens.iter().rev()) {
            acc = (acc.0 ^ gen as u32, acc.1 ^ image(gen));
            *step = acc;
        }
        let mut v = support.x0 as u32;
        let mut p = image(support.x0 ^ u128::from(self.b));
        (0..1usize << support.k).map(move |j| {
            let at = (v as usize, p as usize);
            let (dv, dp) = steps[(j + 1).trailing_zeros() as usize];
            v ^= dv;
            p ^= dp;
            at
        })
    }
}

/// How every state of one kernel stream started at |0…0⟩ is stored: the
/// span `S` of the stream's `Mat1` directions has dimension `rank`, and
/// `frame` maps it onto the low `rank` physical bits (module docs, "Only
/// the support is stored").
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packing {
    num_qubits: usize,
    rank: usize,
    frame: Frame,
}

impl Packing {
    /// Walk `kernels` with the frame alone and pack their support.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`DENSE_MAX_QUBITS`].
    pub(crate) fn of<K: Borrow<Kernel>>(
        num_qubits: usize,
        kernels: impl IntoIterator<Item = K>,
    ) -> Result<Self, SimError> {
        if num_qubits > DENSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
            });
        }
        let mut frame = Frame::identity();
        let directions = kernels.into_iter().filter_map(|kernel| match *kernel.borrow() {
            Kernel::Cx(c, t) => {
                frame.cx(c, t);
                None
            }
            Kernel::Swap(a, b) => {
                frame.swap(a, b);
                None
            }
            Kernel::Mat1(q, _) => Some(u128::from(frame.cols[q])),
            _ => None,
        });
        let support = Support::spanned(0, directions);
        Ok(Packing {
            num_qubits,
            rank: support.k,
            frame: Frame::packing(num_qubits, &support),
        })
    }

    /// The amplitudes a state of the stream needs: `2^rank`.
    pub(crate) fn amplitudes(&self) -> usize {
        1 << self.rank
    }
}

/// The constants of a lane-wise complex multiplication of one AVX2
/// register `v = [a.re, a.im, b.re, b.im]` by the complexes `(c, d)`:
/// `v·re − swap(v)·nim` is `[a·c, b·d]` in [`Complex`]'s own `mul`
/// expression (`x − (−y)` is `x + y`, and `·` and `+` commute in
/// IEEE-754).
#[derive(Debug, Clone, Copy)]
struct MulConsts {
    /// `[c.re, c.re, d.re, d.re]`.
    re: [f64; 4],
    /// `[c.im, -c.im, d.im, -d.im]`.
    nim: [f64; 4],
}

impl MulConsts {
    fn new(c: Complex, d: Complex) -> Self {
        MulConsts {
            re: [c.re, c.re, d.re, d.re],
            nim: [c.im, -c.im, d.im, -d.im],
        }
    }

    /// The cross term `swap(v)·nim`.
    #[inline(always)]
    fn cross(&self, v: [f64; 4]) -> [f64; 4] {
        let swapped = [v[1], v[0], v[3], v[2]];
        std::array::from_fn(|k| swapped[k] * self.nim[k])
    }

    #[inline(always)]
    fn mul(&self, v: [f64; 4]) -> [f64; 4] {
        let cross = self.cross(v);
        std::array::from_fn(|k| v[k] * self.re[k] - cross[k])
    }
}

/// [`MulConsts`] of one register for one selection pattern of a
/// [`Diag`], with the mask that leaves unselected amplitudes alone:
/// their `re` is 1 and their cross term is ANDed to `+0.0`, and
/// `x·1 − 0` is `x` to the bit, signed zeros included.
#[derive(Debug, Clone, Copy)]
struct LaneConsts {
    factor: MulConsts,
    /// All-ones where the amplitude is multiplied, zero where it keeps
    /// its exact bits.
    keep: [u64; 4],
}

/// One queued diagonal kernel in physical terms. Amplitude `p` is
/// *selected* when `parity(p & masks[i]) ^ flips[i] == 1` for both
/// `i` (a one-mask op carries `(0, 1)` as its second, always-true
/// condition).
#[derive(Debug, Clone)]
struct Diag {
    masks: [u32; 2],
    flips: [u32; 2],
    /// Whether unselected amplitudes are multiplied too (`PhasePair1`);
    /// `Phase1` / `CPhase` leave them untouched.
    both: bool,
    /// Bit `j` of word `i`: `parity(8j & masks[i])`, the parity of
    /// condition `i` on chunk `j` of a super-block relative to the
    /// super-block's.
    chunk_pattern: [u32; 2],
    /// `lanes[t][r]`: the constants of register `r` of a chunk whose two
    /// condition parities are the bits of `t`.
    lanes: [[LaneConsts; CHUNK / 2]; 4],
}

impl Diag {
    /// `factor`: the multipliers of the unselected and the selected
    /// amplitudes.
    fn new(masks: [u32; 2], flips: [u32; 2], factor: [Complex; 2], both: bool) -> Self {
        let lane_pattern = masks.map(|m| parity_pattern(m & 7));
        let lanes = std::array::from_fn(|t| {
            // Lane l is selected when both conditions hold on it.
            let holds = |i: usize| lane_pattern[i] ^ 0u32.wrapping_sub((t as u32 >> i) & 1);
            let selected = holds(0) & holds(1);
            std::array::from_fn(|r| {
                let pick = |lane: usize| match ((selected >> lane) & 1 == 1, both) {
                    (false, false) => (Complex::ONE, 0),
                    (is_selected, _) => (factor[usize::from(is_selected)], u64::MAX),
                };
                let ((c, keep_c), (d, keep_d)) = (pick(2 * r), pick(2 * r + 1));
                LaneConsts {
                    factor: MulConsts::new(c, d),
                    keep: [keep_c, keep_c, keep_d, keep_d],
                }
            })
        });
        Diag {
            masks,
            flips,
            both,
            chunk_pattern: masks.map(|m| parity_pattern(m >> 3)),
            lanes,
        }
    }

    /// The op applied to the registers of chunk `j` of a super-block
    /// whose per-chunk condition parities are the bits of `words`.
    /// `PhasePair1` keeps nothing (`both`), so its clone skips the AND:
    /// 16 vector operations per chunk instead of 20, on three vector
    /// ports.
    #[inline(always)]
    fn apply_chunk(&self, regs: &mut [[f64; 4]], words: [u32; 2], j: usize) {
        let lanes = &self.lanes[(((words[0] >> j) & 1) | ((words[1] >> j) & 1) << 1) as usize];
        if self.both {
            for (reg, lane) in regs.iter_mut().zip(lanes) {
                *reg = lane.factor.mul(*reg);
            }
        } else {
            for (reg, lane) in regs.iter_mut().zip(lanes) {
                let cross = lane.factor.cross(*reg);
                *reg = std::array::from_fn(|k| {
                    reg[k] * lane.factor.re[k] - f64::from_bits(cross[k].to_bits() & lane.keep[k])
                });
            }
        }
    }
}

/// Load a block of amplitudes into registers of two.
#[inline(always)]
fn load_regs<const N: usize, const R: usize>(amps: &[Complex; N]) -> [[f64; 4]; R] {
    const { assert!(N == 2 * R) };
    std::array::from_fn(|r| {
        let (a, b) = (amps[2 * r], amps[2 * r + 1]);
        [a.re, a.im, b.re, b.im]
    })
}

/// Store registers of two amplitudes to a block of amplitudes.
#[inline(always)]
fn store_regs<const N: usize, const R: usize>(amps: &mut [Complex; N], regs: &[[f64; 4]; R]) {
    const { assert!(N == 2 * R) };
    for (r, reg) in regs.iter().enumerate() {
        amps[2 * r] = Complex::new(reg[0], reg[1]);
        amps[2 * r + 1] = Complex::new(reg[2], reg[3]);
    }
}

isa_dispatch!(flush_pass / flush_pass_avx2 => flush_pass_impl(amps: &mut [Complex], ops: &[Diag]));
isa_dispatch!(mat1_pass / mat1_pass_avx2 => mat1_pass_impl(
    amps: &mut [Complex], select: (u32, u32, u32), m: &[[Complex; 2]; 2]));

/// Apply every op of `ops` (at most [`MAX_PENDING`]), in order, to each
/// amplitude, a super-block of [`SUPER`] amplitudes (the whole state when
/// it is shorter) at a time. Two chunks at a time sit in eight `[f64; 4]`
/// register blocks — two, because one chunk's ops form a dependency
/// chain and the second fills its latency — each loaded and stored once.
#[inline(always)]
fn flush_pass_impl(amps: &mut [Complex], ops: &[Diag]) {
    debug_assert!(amps.len().is_power_of_two() && ops.len() <= MAX_PENDING);
    let block = SUPER.min(amps.len());
    // Fixed-size blocks: every index below is in bounds at compile time,
    // which is what lets LLVM vectorize the lane loops.
    let (pairs, _) = amps.as_chunks_mut::<MIN_AMPS>();
    let mut words = [[0u32; 2]; MAX_PENDING];
    for (sb, pairs) in pairs.chunks_mut(block / MIN_AMPS).enumerate() {
        let start = sb * block;
        // Per op and condition: bit j = its parity on chunk j.
        for (words, op) in words.iter_mut().zip(ops) {
            *words = std::array::from_fn(|i| {
                let base = parity(start as u32 & op.masks[i]) ^ op.flips[i];
                op.chunk_pattern[i] ^ 0u32.wrapping_sub(base)
            });
        }
        for (jj, pair) in pairs.iter_mut().enumerate() {
            let mut regs: [[f64; 4]; CHUNK] = load_regs(pair);
            for (&words, op) in words.iter().zip(ops) {
                let (first, second) = regs.split_at_mut(CHUNK / 2);
                op.apply_chunk(first, words, 2 * jj);
                op.apply_chunk(second, words, 2 * jj + 1);
            }
            store_regs(pair, &regs);
        }
    }
}

/// What [`mat1_pass`] needs of its `Mat1`, computed once per pass.
struct Mat1Consts {
    col: usize,
    row: u32,
    flip: u32,
    /// `parity(l & row)` over the lanes of a chunk.
    lane_roles: u32,
    /// `[own, partner]` multipliers of a register by the roles of its
    /// two lanes: a lane of role `r` has `m[r][r]` and `m[r][!r]`.
    by_roles: [[MulConsts; 2]; 4],
}

impl Mat1Consts {
    /// The new registers of the chunk `own` at index `at`, whose partners
    /// sit in the chunk `other`: with `x` a lane's amplitude, `y` its
    /// partner's and `r` its role, `x' = m[r][r]·x + m[r][!r]·y`. Lane
    /// `l` pairs with lane `l ^ (col % CHUNK)` and has role `parity(l &
    /// row)` XOR one per-chunk parity.
    #[inline(always)]
    fn chunk(
        &self,
        at: usize,
        own: &[Complex; CHUNK],
        other: &[Complex; CHUNK],
    ) -> [[f64; 4]; CHUNK / 2] {
        let chunk_role = parity(at as u32 & self.row) ^ self.flip;
        let roles = self.lane_roles ^ 0u32.wrapping_sub(chunk_role);
        // A loop, not `array::from_fn`: a closure this size is not
        // inlined into the AVX2 clone.
        let mut new = [[0.0f64; 4]; CHUNK / 2];
        for (r, new) in new.iter_mut().enumerate() {
            let x = [own[2 * r], own[2 * r + 1]];
            let y = [2 * r, 2 * r + 1].map(|l| other[l ^ (self.col % CHUNK)]);
            let [own, partner] = &self.by_roles[(roles >> (2 * r)) as usize & 3];
            let from_x = own.mul([x[0].re, x[0].im, x[1].re, x[1].im]);
            let from_y = partner.mul([y[0].re, y[0].im, y[1].re, y[1].im]);
            *new = std::array::from_fn(|k| from_x[k] + from_y[k]);
        }
        new
    }
}

/// Apply `m` to the pairs `(p, p ^ col)`, the member with `parity(p &
/// row) ^ flip == 0` being `a0` (same expressions as
/// `Statevector::apply_1q`), a chunk at a time. For `col >= CHUNK` the
/// partners of an aligned chunk fill the aligned chunk that holds `at ^
/// col`: the pass walks chunk pairs — pair `k` is chunk `expand1(k, high
/// bit of col / CHUNK)` and its partner, exactly one of the two having
/// that bit clear — and both are computed before either is stored.
/// Below, a chunk holds its own partners and the pass walks chunks.
#[inline(always)]
fn mat1_pass_impl(amps: &mut [Complex], (col, row, flip): (u32, u32, u32), m: &[[Complex; 2]; 2]) {
    let consts = Mat1Consts {
        col: col as usize,
        row,
        flip,
        lane_roles: parity_pattern(row & 7),
        by_roles: std::array::from_fn(|roles| {
            let (c, d) = (roles & 1, roles >> 1);
            [MulConsts::new(m[c][c], m[d][d]), MulConsts::new(m[c][1 - c], m[d][1 - d])]
        }),
    };
    let col = consts.col;
    let (chunks, _) = amps.as_chunks_mut::<CHUNK>();
    if col >= CHUNK {
        let high = 1usize << (col / CHUNK).ilog2();
        for k in 0..chunks.len() / 2 {
            let at = expand1(k, high);
            let other = at ^ (col / CHUNK);
            let (a, o) = (chunks[at], chunks[other]);
            let new_at = consts.chunk(at * CHUNK, &a, &o);
            let new_other = consts.chunk(other * CHUNK, &o, &a);
            store_regs(&mut chunks[at], &new_at);
            store_regs(&mut chunks[other], &new_other);
        }
    } else {
        for (k, chunk) in chunks.iter_mut().enumerate() {
            let new = consts.chunk(k * CHUNK, chunk, chunk);
            store_regs(chunk, &new);
        }
    }
}

/// A flushed [`FrameState`] at rest: what a prefix checkpoint stores.
/// Snapshots of one state with no amplitude pass between them share one
/// buffer (see [`FrameState::snapshot`]).
#[derive(Debug)]
pub(crate) struct FrameSnapshot {
    amps: Arc<[Complex]>,
    frame: Frame,
    rank: usize,
}

/// A dense trajectory state with its frame and pending diagonals.
pub(crate) struct FrameState {
    num_qubits: usize,
    /// The physical indices `0..2^rank` are stored (see [`Packing`]);
    /// `amps` pads them with zeros to [`MIN_AMPS`].
    rank: usize,
    amps: Vec<Complex>,
    frame: Frame,
    pending: Vec<Diag>,
    /// The buffer of the last [`FrameState::snapshot`], kept until a pass
    /// writes `amps`: while it is set, the two hold the same bits.
    snapshot_amps: Option<Arc<[Complex]>>,
}

impl FrameState {
    /// |0…0⟩ stored as `packing` says, inside a caller-provided buffer.
    pub(crate) fn zero_in(packing: &Packing, mut buf: Vec<Complex>) -> Self {
        buf.clear();
        buf.resize(packing.amplitudes(), Complex::ZERO);
        buf[0] = Complex::ONE;
        Self::stored(packing.num_qubits, packing.rank, buf, packing.frame)
    }

    /// A snapshotted state restored into a caller-provided buffer.
    pub(crate) fn restore_in(
        num_qubits: usize,
        mut buf: Vec<Complex>,
        snapshot: &FrameSnapshot,
    ) -> Self {
        buf.clear();
        buf.extend_from_slice(&snapshot.amps);
        Self::stored(num_qubits, snapshot.rank, buf, snapshot.frame)
    }

    /// A state at rest over `2^rank` (or already padded) amplitudes in
    /// the physical order `frame` describes.
    fn stored(num_qubits: usize, rank: usize, mut amps: Vec<Complex>, frame: Frame) -> Self {
        assert!(amps.len() == 1 << rank || amps.len() == MIN_AMPS, "width mismatch");
        amps.resize(amps.len().max(MIN_AMPS), Complex::ZERO);
        FrameState {
            num_qubits,
            rank,
            amps,
            frame,
            pending: Vec::new(),
            snapshot_amps: None,
        }
    }

    /// Apply a kernel stream (see the module docs for the rules).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] on [`Kernel::Reset`], which
    /// needs an RNG and a canonical-order reduction.
    ///
    /// # Panics
    ///
    /// Panics on a `Mat1` whose direction leaves the stored support: a
    /// stream the state was not packed for.
    pub(crate) fn run<K: Borrow<Kernel>>(
        &mut self,
        kernels: impl IntoIterator<Item = K>,
    ) -> Result<(), SimError> {
        for kernel in kernels {
            match *kernel.borrow() {
                Kernel::Noop => {}
                Kernel::X(q) => self.frame.x(q),
                Kernel::Cx(c, t) => self.frame.cx(c, t),
                Kernel::Swap(a, b) => self.frame.swap(a, b),
                Kernel::Phase1(q, p) => self.push_phase(q, p),
                Kernel::CPhase(a, b, p) if a == b => self.push_phase(a, p),
                Kernel::PhasePair1(q, c0, c1) => self.push(q, None, [c0, c1], true),
                Kernel::CPhase(a, b, p) => self.push(a, Some(b), [Complex::ONE, p], false),
                Kernel::Mat1(q, ref m) => self.mat1(q, m),
                Kernel::Reset(_) => return Err(SimError::Unsupported { gate: "reset" }),
            }
        }
        Ok(())
    }

    fn push_phase(&mut self, q: usize, phase: Complex) {
        self.push(q, None, [Complex::ONE, phase], false);
    }

    /// Queue a diagonal selecting logical bit `q` (and `second`).
    fn push(&mut self, q: usize, second: Option<usize>, factor: [Complex; 2], both: bool) {
        if self.pending.len() == MAX_PENDING {
            self.flush();
        }
        let condition = |q: usize| (self.frame.rows[q], self.frame.flip(q));
        let (m0, f0) = condition(q);
        let (m1, f1) = second.map_or((0, 1), condition);
        self.pending.push(Diag::new([m0, m1], [f0, f1], factor, both));
    }

    /// Apply the pending diagonals in one pass.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            flush_pass(&mut self.amps, &self.pending);
            self.pending.clear();
            self.snapshot_amps = None;
        }
    }

    fn mat1(&mut self, q: usize, m: &[[Complex; 2]; 2]) {
        self.flush();
        let select = (self.frame.cols[q], self.frame.rows[q], self.frame.flip(q));
        assert!(select.0 >> self.rank == 0, "Mat1 direction outside the stored support");
        mat1_pass(&mut self.amps, select, m);
        self.snapshot_amps = None;
    }

    /// The logical basis states the stored amplitudes hold, `b ⊕ R·S`:
    /// `S` is spanned by the low `rank` physical unit vectors, and `R`
    /// maps `e_i` to the word whose bit `q` is bit `i` of `rows[q]`.
    fn support(&self) -> Support {
        let images = (0..self.rank).map(|i| {
            (0..self.num_qubits).fold(0u128, |w, q| {
                w | u128::from(self.frame.rows[q] >> i & 1) << q
            })
        });
        Support::spanned(u128::from(self.frame.b), images)
    }

    /// Flush, then rebuild `sampler` as this state's compressed table:
    /// the probability of each state of [`FrameState::support`] in
    /// ascending order — the one place canonical order is restored.
    /// Bit-identical, draw for draw, to [`CdfSampler::rebuild`] on the
    /// oracle's state.
    pub(crate) fn sample_table(&mut self, sampler: &mut CdfSampler) {
        self.flush();
        let support = self.support();
        let indices = self.frame.stored_indices(&support);
        let amps = self.amps.as_slice();
        sampler.rebuild_over(self.num_qubits, support, |probs| {
            probs.clear();
            probs.extend(indices.map(|(_, p)| amps[p].norm_sqr()));
        });
    }

    /// Flush and snapshot (a snapshot with diagonals still pending
    /// would restore without them). The amplitudes are copied only when a
    /// pass has written them since the last snapshot: after a run of X /
    /// CX / SWAP kernels, which move no data, the new snapshot shares the
    /// last one's buffer and differs only in its frame.
    pub(crate) fn snapshot(&mut self) -> FrameSnapshot {
        self.flush();
        let amps = self
            .snapshot_amps
            .get_or_insert_with(|| Arc::from(self.amps.as_slice()));
        FrameSnapshot {
            amps: Arc::clone(amps),
            frame: self.frame,
            rank: self.rank,
        }
    }

    /// Materialise the canonical-order [`Statevector`]: the stored
    /// amplitudes scattered into `2^n` zeros.
    pub(crate) fn into_statevector(mut self) -> Statevector {
        self.flush();
        let mut amps = vec![Complex::ZERO; 1 << self.num_qubits];
        for (v, p) in self.frame.stored_indices(&self.support()) {
            amps[v] = self.amps[p];
        }
        Statevector::from_amps(self.num_qubits, amps)
    }

    /// Release the amplitude buffer for reuse.
    pub(crate) fn into_amps(self) -> Vec<Complex> {
        self.amps
    }
}

#[cfg(test)]
impl FrameSnapshot {
    /// Whether the two snapshots store one amplitude buffer.
    pub(crate) fn shares_amps_with(&self, other: &FrameSnapshot) -> bool {
        Arc::ptr_eq(&self.amps, &other.amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::matrices;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_amps(num_qubits: usize, rng: &mut StdRng) -> Vec<Complex> {
        (0..1usize << num_qubits)
            .map(|i| {
                // Signed zeros too: a blend must keep them, a multiply
                // by one would not.
                match (i + rng.gen_range(0..4usize)) % 7 {
                    0 => Complex::new(-0.0, rng.gen_range(-1.0..1.0)),
                    1 => Complex::new(rng.gen_range(-1.0..1.0), -0.0),
                    _ => Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                }
            })
            .collect()
    }

    /// A random kernel over the whole alphabet (the first `kinds` of it:
    /// 7 leaves out `Mat1`) on any qubit positions, degenerate operand
    /// pairs included.
    fn random_kernel(n: usize, kinds: u32, rng: &mut StdRng) -> Kernel {
        let q = rng.gen_range(0..n);
        let r = rng.gen_range(0..n);
        let phase = Complex::from_polar(1.0, rng.gen_range(-3.0..3.0));
        match rng.gen_range(0..kinds) {
            0 => Kernel::Noop,
            1 => Kernel::X(q),
            2 => Kernel::Cx(q, r),
            3 => Kernel::Swap(q, r),
            4 => Kernel::Phase1(q, phase),
            5 => Kernel::PhasePair1(q, phase.conj(), phase),
            6 => Kernel::CPhase(q, r, phase),
            7 => Kernel::Mat1(q, matrices::u(rng.gen_range(-3.0..3.0), 0.4, -1.1)),
            _ => Kernel::Mat1(q, matrices::y()),
        }
    }

    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    /// `state` read back equals `oracle`: probabilities and the sampling
    /// table to the bit, amplitudes to the bit on the stored support and
    /// zeros off it, where the oracle's zeros may carry either sign.
    fn assert_matches_oracle(mut state: FrameState, oracle: &Statevector, what: &str) {
        let mut sampler = CdfSampler::default();
        state.sample_table(&mut sampler);
        let full = CdfSampler::of(oracle);
        let mut rng = StdRng::seed_from_u64(3);
        for draw in 0..256 {
            let mut twin = rng.clone();
            assert_eq!(sampler.sample(&mut rng), full.sample(&mut twin), "{what}: draw {draw}");
        }
        let support = state.support();
        let mut on_support = vec![false; 1 << state.num_qubits];
        for rank in 0..1u64 << support.k {
            on_support[support.basis_of_rank(support.x0, rank) as usize] = true;
        }
        let framed = state.into_statevector();
        let probs = |s: &Statevector| -> Vec<u64> {
            s.probabilities().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(probs(&framed), probs(oracle), "{what}: probabilities");
        for (v, (a, o)) in framed.amps().iter().zip(oracle.amps()).enumerate() {
            if on_support[v] {
                assert_eq!(bits(&[*a]), bits(&[*o]), "{what}: amplitude {v}");
            } else {
                let zeros = *a == Complex::ZERO && *o == Complex::ZERO;
                assert!(zeros, "{what}: amplitude {v} off the support");
            }
        }
    }

    #[test]
    fn parity_pattern_is_the_parity_of_the_masked_index() {
        for mask in 0..32u32 {
            let word = parity_pattern(mask);
            for j in 0..32u32 {
                assert_eq!((word >> j) & 1, (j & mask).count_ones() & 1, "mask {mask} bit {j}");
            }
        }
        for x in [0u32, 1, 0b1011, 0xFF_FFFF, 0x80_0001, 0xABC_DEF] {
            assert_eq!(parity(x), x.count_ones() & 1);
        }
    }

    #[test]
    fn frame_streams_match_the_oracle_bit_for_bit() {
        // Random streams from a random state at every width: padded
        // (n <= 3), a single short super-block (n < 8) and several
        // super-blocks (where random `cols` put `Mat1` partners both
        // inside a chunk and in another one): materialised amplitudes
        // and gathered probabilities must equal `apply_kernel` folded
        // over the stream, to the bit.
        for n in 1..=12usize {
            let mut rng = StdRng::seed_from_u64(900 + n as u64);
            let start = random_amps(n, &mut rng);
            // The middle stretch has no Mat1: its diagonals overflow
            // MAX_PENDING and flush on their own.
            let kernels: Vec<Kernel> = (0..200)
                .map(|i| random_kernel(n, if (80..140).contains(&i) { 7 } else { 9 }, &mut rng))
                .collect();

            let mut oracle = Statevector::from_amps(n, start.clone());
            for kernel in &kernels {
                oracle.apply_kernel(kernel).unwrap();
            }
            let mut expected_probs = Vec::new();
            oracle.probabilities_into(&mut expected_probs);

            let mut state = FrameState::stored(n, n, start, Frame::identity());
            state.run(&kernels).unwrap();
            let mut sampler = CdfSampler::default();
            state.sample_table(&mut sampler);
            assert_eq!(sampler, CdfSampler::of(&oracle), "sampling table, n={n}");
            let framed = state.into_statevector();
            let mut probs = vec![0.5; 3]; // stale, wrong-sized
            framed.probabilities_into(&mut probs);
            assert_eq!(
                probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                expected_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "probabilities, n={n}"
            );
            assert_eq!(bits(framed.amps()), bits(oracle.amps()), "amplitudes, n={n}");
        }
    }

    #[test]
    fn packed_streams_from_zero_match_the_oracle() {
        // From |0…0⟩ the state is stored at 2^k amplitudes, k = rank of
        // the stream's Mat1 directions: a few Mat1s (Y included) among
        // 200 kernels of the rest of the alphabet keep k below n, and the
        // read must still be the oracle's — probabilities, sampling
        // table and on-support amplitudes to the bit, zeros elsewhere.
        let mut packed = 0;
        for n in 1..=12usize {
            for round in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(7100 + 10 * n as u64 + round);
                let mat1s = rng.gen_range(0..=n / 2 + 1);
                let mut kernels: Vec<Kernel> =
                    (0..200).map(|_| random_kernel(n, 7, &mut rng)).collect();
                for _ in 0..mat1s {
                    let at = rng.gen_range(0..=kernels.len());
                    let kind = rng.gen_range(7..9u32);
                    kernels.insert(at, random_kernel(n, kind + 1, &mut rng));
                }
                let packing = Packing::of(n, &kernels).unwrap();
                packed += usize::from(packing.rank < n);
                let mut state = FrameState::zero_in(&packing, Vec::new());
                state.run(&kernels).unwrap();
                let mut oracle = Statevector::zero(n).unwrap();
                for kernel in &kernels {
                    oracle.apply_kernel(kernel).unwrap();
                }
                assert_matches_oracle(state, &oracle, &format!("n={n} round {round}"));
            }
        }
        assert!(packed > 30, "only {packed} of 48 streams stored less than 2^n");
    }

    #[test]
    fn the_read_is_in_ascending_order_under_a_permuting_frame() {
        // CX / SWAP / X after the Mat1s leave logical states stored out
        // of order (v = 0 is not at p = 0, and p does not ascend with v):
        // the gather must still produce them in ascending v.
        let n = 6;
        let kernels = [
            Kernel::Mat1(1, matrices::u(0.9, 0.4, -1.1)),
            Kernel::Mat1(4, matrices::h()),
            Kernel::Cx(1, 3),
            Kernel::Mat1(3, matrices::u(-2.0, 1.3, 0.2)),
            Kernel::Swap(1, 4),
            Kernel::Cx(4, 0),
            Kernel::X(2),
            Kernel::X(4),
            Kernel::Phase1(0, Complex::I),
        ];
        let packing = Packing::of(n, kernels).unwrap();
        assert_eq!(packing.rank, 3);
        let mut state = FrameState::zero_in(&packing, Vec::new());
        state.run(kernels).unwrap();
        let order: Vec<(usize, usize)> = state.frame.stored_indices(&state.support()).collect();
        let physical: Vec<usize> = order.iter().map(|&(_, p)| p).collect();
        assert!(physical.windows(2).any(|w| w[0] > w[1]), "storage order {physical:?}");
        assert!(order.windows(2).all(|w| w[0].0 < w[1].0), "read order {order:?}");
        let mut oracle = Statevector::zero(n).unwrap();
        for kernel in &kernels {
            oracle.apply_kernel(kernel).unwrap();
        }
        assert_matches_oracle(state, &oracle, "permuted frame");
    }

    #[test]
    fn isa_clones_match_bit_for_bit() {
        // `flush_pass` and `mat1_pass` run the AVX2 clone on a host that
        // has AVX2; `*_impl` is the baseline clone every other host runs.
        // Same amplitudes, same diagonals, same `Mat1` partners (inside a
        // chunk and across chunks, as a random frame places them): the
        // same bits.
        for n in 1..=12usize {
            let mut rng = StdRng::seed_from_u64(4100 + n as u64);
            let mut frame = Frame::identity();
            let mut amps = random_amps(n, &mut rng);
            amps.resize(amps.len().max(MIN_AMPS), Complex::ZERO);
            let mut baseline = amps.clone();
            for round in 0..20 {
                for _ in 0..n {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    match rng.gen_range(0..3u32) {
                        0 => frame.x(a),
                        1 => frame.cx(a, b),
                        _ => frame.swap(a, b),
                    }
                }
                let ops: Vec<Diag> = (0..rng.gen_range(1..=MAX_PENDING))
                    .map(|_| {
                        let (q, r) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        let (second, flip) = match rng.gen_range(0..2u32) {
                            0 => (0, 1), // one-mask op
                            _ => (frame.rows[r], frame.flip(r)),
                        };
                        let factor =
                            [(); 2].map(|()| Complex::from_polar(1.0, rng.gen_range(-3.0..3.0)));
                        let both = rng.gen_range(0..2u32) == 0;
                        Diag::new([frame.rows[q], second], [frame.flip(q), flip], factor, both)
                    })
                    .collect();
                flush_pass(&mut amps, &ops);
                flush_pass_impl(&mut baseline, &ops);
                assert_eq!(bits(&amps), bits(&baseline), "flush, n={n} round {round}");

                let q = rng.gen_range(0..n);
                let m = matrices::u(rng.gen_range(-3.0..3.0), 0.4, -1.1);
                let select = (frame.cols[q], frame.rows[q], frame.flip(q));
                mat1_pass(&mut amps, select, &m);
                mat1_pass_impl(&mut baseline, select, &m);
                assert_eq!(bits(&amps), bits(&baseline), "mat1, n={n} round {round}");
            }
        }
    }

    #[test]
    fn unselected_amplitudes_keep_their_exact_bits() {
        // Phase1 / CPhase must not touch what they do not select: a
        // multiply by (1, 0) would turn -0.0 - (-0.0·0) into +0.0.
        for n in [2usize, 5] {
            let start: Vec<Complex> = (0..1usize << n)
                .map(|i| Complex::new(-0.0, -(i as f64) - 1.0))
                .collect();
            let kernels = [
                Kernel::Cx(0, 1),
                Kernel::Phase1(1, Complex::I),
                Kernel::CPhase(0, 1, Complex::real(-1.0)),
            ];
            let mut oracle = Statevector::from_amps(n, start.clone());
            for kernel in &kernels {
                oracle.apply_kernel(kernel).unwrap();
            }
            let mut state = FrameState::stored(n, n, start, Frame::identity());
            state.run(kernels).unwrap();
            assert_eq!(bits(state.into_statevector().amps()), bits(oracle.amps()), "n={n}");
        }
    }

    #[test]
    fn snapshots_share_amplitudes_across_frame_only_segments() {
        // X / CX / SWAP (and no-ops) move no data, so the snapshot after
        // a segment of them shares the last snapshot's buffer; a diagonal
        // or a `Mat1` in the segment writes the array and forces a copy.
        // Every snapshot, restored, is the oracle's state at its step.
        let n = 5;
        let h = Kernel::Mat1(0, matrices::h());
        let segments: [(&[Kernel], bool); 6] = [
            (&[h], false),
            (&[Kernel::X(1), Kernel::Cx(0, 2), Kernel::Swap(1, 3)], true),
            (&[], true),
            (&[Kernel::Cx(2, 4), Kernel::Phase1(4, Complex::I)], false),
            (&[Kernel::Noop, Kernel::Cx(4, 1)], true),
            (&[Kernel::Swap(0, 4), h], false),
        ];
        let stream = segments.iter().flat_map(|&(segment, _)| segment);
        let mut state = FrameState::zero_in(&Packing::of(n, stream).unwrap(), Vec::new());
        let mut oracle = Statevector::zero(n).unwrap();
        let mut previous: Option<FrameSnapshot> = None;
        for (i, &(segment, shared)) in segments.iter().enumerate() {
            state.run(segment).unwrap();
            for kernel in segment {
                oracle.apply_kernel(kernel).unwrap();
            }
            let snapshot = state.snapshot();
            if let Some(previous) = &previous {
                assert_eq!(snapshot.shares_amps_with(previous), shared, "segment {i}");
            }
            let restored = FrameState::restore_in(n, Vec::new(), &snapshot);
            assert_matches_oracle(restored, &oracle, &format!("segment {i}"));
            previous = Some(snapshot);
        }
    }

    #[test]
    fn rows_and_cols_stay_inverse_under_permutation_kernels() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 2, 5, 16, DENSE_MAX_QUBITS] {
            // From the packing of a random span: S onto the low k bits.
            let directions: Vec<u128> = (0..rng.gen_range(0..=n))
                .map(|_| u128::from(rng.gen_range(1..1u32 << n)))
                .collect();
            let support = Support::spanned(0, directions.iter().copied());
            let mut frame = Frame::packing(n, &support);
            for &direction in &directions {
                let mut image = 0;
                for q in 0..n {
                    image ^= (direction >> q & 1) as u32 * frame.cols[q];
                }
                assert_eq!(image >> support.k, 0, "direction {direction:#b} at n={n}");
            }
            for step in 0..=400 {
                for q in 0..n {
                    for r in 0..n {
                        assert_eq!(
                            parity(frame.rows[q] & frame.cols[r]),
                            u32::from(q == r),
                            "rows[{q}]·cols[{r}] after {step} steps at n={n}"
                        );
                    }
                }
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match rng.gen_range(0..3u32) {
                    0 => frame.x(a),
                    1 => frame.cx(a, b),
                    _ => frame.swap(a, b),
                }
            }
        }
    }

    #[test]
    fn reset_kernels_are_rejected() {
        let mut state = FrameState::zero_in(&Packing::of(3, [Kernel::X(0)]).unwrap(), Vec::new());
        assert!(matches!(
            state.run([Kernel::X(0), Kernel::Reset(1)]),
            Err(SimError::Unsupported { .. })
        ));
    }

    #[test]
    fn expand1_enumerates_bit_clear_indices() {
        for q in 0..4usize {
            let bit = 1 << q;
            let indices: Vec<usize> = (0..8).map(|p| expand1(p, bit)).collect();
            let expected: Vec<usize> = (0..16).filter(|i| i & bit == 0).collect();
            assert_eq!(indices, expected, "qubit {q}");
        }
    }
}
