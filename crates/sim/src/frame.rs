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
//! alone (`rows`·`cols` = I over GF(2); both the identity at |0…0⟩), so
//! `p = M(v ^ b)` with `M(w)` the XOR of `cols[q]` over the set bits of
//! `w`.
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
//!    itself) in ascending `v`. Prefix sums over the probabilities are
//!    order-sensitive, so the gather is where canonical order is
//!    restored; no canonical-order amplitude copy exists before it.
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
//! [`Complex`]'s own `mul`. The differential tests below and in
//! `noisy.rs` compare `to_bits`.
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

use crate::fusion::Kernel;
use crate::{Complex, SimError, Statevector, DENSE_MAX_QUBITS};

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
/// assert_eq!(framed, oracle); // bit-identical amplitudes
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

    /// The physical index storing each logical basis state `v` of
    /// `0..len`, ascending in `v`. Stepping `v → v + 1` flips logical
    /// bits `0..=t` (`t` = trailing ones of `v`), so `p` moves by the
    /// prefix XOR `cols[0] ^ … ^ cols[t]`.
    fn physical_indices(&self, len: usize) -> impl Iterator<Item = usize> {
        let mut steps = [0u32; DENSE_MAX_QUBITS + 1];
        let mut acc = 0u32;
        for (step, col) in steps.iter_mut().zip(&self.cols) {
            acc ^= col;
            *step = acc;
        }
        // `v = 0` sits at `M(b)`.
        let mut p = 0u32;
        let mut word = self.b;
        while word != 0 {
            p ^= self.cols[word.trailing_zeros() as usize];
            word &= word - 1;
        }
        (0..len).map(move |v| {
            let at = p as usize;
            p ^= steps[(v + 1).trailing_zeros() as usize];
            at
        })
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
#[derive(Debug, Clone)]
pub(crate) struct FrameSnapshot {
    amps: Vec<Complex>,
    frame: Frame,
}

/// A dense trajectory state with its frame and pending diagonals.
pub(crate) struct FrameState {
    num_qubits: usize,
    amps: Vec<Complex>,
    frame: Frame,
    pending: Vec<Diag>,
}

impl FrameState {
    /// |0…0⟩ inside a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`DENSE_MAX_QUBITS`].
    pub(crate) fn zero_in(num_qubits: usize, buf: Vec<Complex>) -> Result<Self, SimError> {
        let zero = Statevector::zero_in(num_qubits, buf)?;
        Ok(Self::from_amps(num_qubits, zero.into_amps(), Frame::identity()))
    }

    /// A snapshotted state restored into a caller-provided buffer.
    pub(crate) fn restore_in(
        num_qubits: usize,
        mut buf: Vec<Complex>,
        snapshot: &FrameSnapshot,
    ) -> Self {
        buf.clear();
        buf.extend_from_slice(&snapshot.amps);
        Self::from_amps(num_qubits, buf, snapshot.frame)
    }

    /// A state at rest over `2^num_qubits` (or already padded)
    /// amplitudes in the physical order `frame` describes.
    fn from_amps(num_qubits: usize, mut amps: Vec<Complex>, frame: Frame) -> Self {
        assert!(amps.len() == 1 << num_qubits || amps.len() == MIN_AMPS, "width mismatch");
        amps.resize(amps.len().max(MIN_AMPS), Complex::ZERO);
        FrameState {
            num_qubits,
            amps,
            frame,
            pending: Vec::new(),
        }
    }

    /// Apply a kernel stream (see the module docs for the rules).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] on [`Kernel::Reset`], which
    /// needs an RNG and a canonical-order reduction.
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
        }
    }

    fn mat1(&mut self, q: usize, m: &[[Complex; 2]; 2]) {
        self.flush();
        let select = (self.frame.cols[q], self.frame.rows[q], self.frame.flip(q));
        mat1_pass(&mut self.amps, select, m);
    }

    /// Flush, then write `map(amplitude of v)` to `out[v]` for every
    /// logical basis state `v` — the one place canonical order is
    /// restored.
    fn gather_into<T>(&mut self, out: &mut Vec<T>, map: impl Fn(Complex) -> T) {
        self.flush();
        let amps = self.amps.as_slice();
        out.clear();
        out.extend(self.frame.physical_indices(1 << self.num_qubits).map(|p| map(amps[p])));
    }

    /// The measurement probabilities in canonical order — bit-identical
    /// to [`Statevector::probabilities_into`] on the oracle's state.
    pub(crate) fn probabilities_into(&mut self, probs: &mut Vec<f64>) {
        self.gather_into(probs, Complex::norm_sqr);
    }

    /// Flush and snapshot (a snapshot with diagonals still pending
    /// would restore without them).
    pub(crate) fn snapshot(&mut self) -> FrameSnapshot {
        self.flush();
        FrameSnapshot {
            amps: self.amps.clone(),
            frame: self.frame,
        }
    }

    /// Materialise the canonical-order [`Statevector`].
    pub(crate) fn into_statevector(mut self) -> Statevector {
        let mut amps = Vec::new();
        self.gather_into(&mut amps, |amp| amp);
        Statevector::from_amps(self.num_qubits, amps)
    }

    /// Release the amplitude buffer for reuse.
    pub(crate) fn into_amps(self) -> Vec<Complex> {
        self.amps
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

            let snapshot = FrameSnapshot {
                amps: start,
                frame: Frame::identity(),
            };
            let mut state = FrameState::restore_in(n, Vec::new(), &snapshot);
            state.run(&kernels).unwrap();
            let mut probs = vec![0.5; 3]; // stale, wrong-sized
            state.probabilities_into(&mut probs);
            assert_eq!(
                probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                expected_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "probabilities, n={n}"
            );
            assert_eq!(
                bits(state.into_statevector().amps()),
                bits(oracle.amps()),
                "amplitudes, n={n}"
            );
        }
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
            let snapshot = FrameSnapshot {
                amps: start,
                frame: Frame::identity(),
            };
            let mut state = FrameState::restore_in(n, Vec::new(), &snapshot);
            state.run(kernels).unwrap();
            assert_eq!(bits(state.into_statevector().amps()), bits(oracle.amps()), "n={n}");
        }
    }

    #[test]
    fn rows_and_cols_stay_inverse_under_permutation_kernels() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 2, 5, 16, DENSE_MAX_QUBITS] {
            let mut frame = Frame::identity();
            for step in 0..400 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match rng.gen_range(0..3u32) {
                    0 => frame.x(a),
                    1 => frame.cx(a, b),
                    _ => frame.swap(a, b),
                }
                for q in 0..n {
                    for r in 0..n {
                        assert_eq!(
                            parity(frame.rows[q] & frame.cols[r]),
                            u32::from(q == r),
                            "rows[{q}]·cols[{r}] after {step} steps at n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_kernels_are_rejected() {
        let mut state = FrameState::zero_in(3, Vec::new()).unwrap();
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
