//! SIMD-wide, block-parallel statevector kernels — the eager way to run
//! a dense kernel stream ([`SvExec::run_stream`]): one full-array pass
//! per kernel, amplitudes always in canonical order. It is the path of
//! the decoherence and reset trajectories, whose draws read
//! [`Statevector::probability_one`] (a sequential sum in canonical
//! order) between gates; everything else replays through the frame
//! executor ([`crate::frame`]), which borrows this module's team
//! schedule, cell accessors and ISA dispatch.
//!
//! The per-kernel full-array loops in [`crate::statevector`]
//! ([`Statevector::apply_kernel`]) walk the `2^n`-amplitude array one
//! pair at a time on one core; they are the arithmetic oracle. This
//! module adds the two axes of single-circuit parallelism, without
//! changing a single floating-point result:
//!
//! - **Lane parallelism (SIMD).** The wide path processes amplitude
//!   pairs in chunks of [`LANES`] = 4, loading the re/im components into
//!   structure-of-arrays `[f64; 4]` register blocks and applying each
//!   element operation lane-wise — the f64x4 style the autovectorizer
//!   reliably turns into packed AVX/NEON arithmetic. Every lane evaluates
//!   the *same expression tree* as the scalar oracle ([`mat1_apply`]),
//!   so wide results are bit-identical, chunk boundaries included.
//! - **Core parallelism (blocks).** [`SvExec::run_stream`] splits each
//!   kernel's pair (or quad) index domain into one contiguous chunk per
//!   worker of a scoped team ([`qcs_exec::block_ranges`]) and
//!   synchronizes between kernels with a [`std::sync::Barrier`]. Workers
//!   never share an amplitude: the pair→index maps are injective and the
//!   chunks partition the domain, so there are **no atomics and no locks
//!   on amplitude data** — determinism comes from disjointness, not
//!   synchronization order.
//!
//! # Memory layout and dispatch
//!
//! Amplitudes live in one `Vec<Complex>` (`#[repr(Rust)]` struct of two
//! `f64`s, so effectively interleaved `re, im, re, im, ...`), with qubit
//! 0 the least-significant bit of the basis index. A 1q kernel on qubit
//! `q` (`bit = 1 << q`) acts on pairs `(i, i | bit)`; pair `p` of the
//! `2^(n-1)`-element pair domain maps to
//! `i = ((p & !(bit-1)) << 1) | (p & (bit-1))`. A 2q kernel on the sorted
//! pair `(lo, hi)` acts on quads obtained by inserting zeros at `lo` then
//! `hi`.
//!
//! Every selection below is one the code observes from its input — there
//! is no policy knob besides the worker count (see DESIGN.md §4g):
//!
//! - `Mat1` with `bit >= LANES` (target qubit ≥ 2): consecutive pairs
//!   map to *stride-1* runs of `bit` consecutive amplitudes on each side
//!   of the pair — the wide path loads 4-pair chunks straight from
//!   contiguous memory. With `bit < LANES` (*strided*, qubits 0–1) pairs
//!   interleave within a 4-amplitude window and the per-pair scalar loop
//!   is used.
//! - Every other kernel touches one or two amplitudes of its pair or
//!   quad and streams the contiguous runs that hold them: `X` / `Cx` /
//!   `Swap` exchange two runs, `Phase1` / `PhasePair1` / `CPhase`
//!   multiply one or two.
//! - The hot run loops are compiled twice, baseline and AVX2
//!   (`isa_dispatch!`); the host CPU picks, the results are identical.
//! - The work-size threshold ([`qcs_exec::MIN_WORK_PER_THREAD`]) bypasses
//!   the worker team entirely for small states, so an 8-qubit trajectory
//!   never pays spawn/join or barrier overhead; a single worker on at
//!   most `DIRECT_MAX_AMPS` amplitudes goes straight through
//!   [`Statevector::apply_kernel`].
//!
//! The measurement-probability pass ([`SvExec::probabilities_into`])
//! is an elementwise map, so it is bit-identical to
//! [`Statevector::probabilities_into`] at any worker count. Reductions
//! that *accumulate* across amplitudes (CDF prefix sums, `probability_one`,
//! `norm`) stay sequential over that buffer, preserving the oracle's
//! summation order exactly.

use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::Barrier;

use qcs_exec::{block_ranges, run_team, ExecConfig};

use crate::fusion::{mat1_apply, Kernel};
use crate::{Complex, SimError, Statevector};

/// Lane width of the wide path: 4 × f64 per component array (one AVX2
/// register of doubles; two NEON registers).
pub const LANES: usize = 4;

/// Below this many amplitudes a single worker routes kernels through the
/// direct per-kernel appliers ([`Statevector::apply_kernel`]) instead of
/// the run/chunk machinery: the low-qubit trajectory states the noisy
/// simulator replays in bulk (4–9 qubits) spend more time on run
/// bookkeeping than on arithmetic. Identical appliers, identical order —
/// the threshold is invisible in the results.
const DIRECT_MAX_AMPS: usize = 512;

/// Execution policy for statevector kernel streams: the worker count of
/// the amplitude-block team. Lane width, ISA and the small-state bypass
/// are chosen from the input, not configured.
///
/// Every setting is bit-identical to folding
/// [`Statevector::apply_kernel`] over the stream.
///
/// # Examples
///
/// ```
/// use qcs_circuit::library;
/// use qcs_sim::fusion::CompiledCircuit;
/// use qcs_sim::{Statevector, SvExec};
///
/// let compiled = CompiledCircuit::compile(&library::qft(6));
/// let fast = compiled.execute_with(&SvExec::auto().with_threads(3)).unwrap();
/// let mut oracle = Statevector::zero(6).unwrap();
/// for kernel in compiled.kernels() {
///     oracle.apply_kernel(kernel).unwrap();
/// }
/// assert_eq!(fast, oracle); // bit-identical amplitudes
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SvExec {
    /// Worker threads for block-parallel application: `0` = auto
    /// (work-aware: capped by cores and by
    /// [`qcs_exec::MIN_WORK_PER_THREAD`]); an explicit count is honored
    /// verbatim (capped only by the pair count), which is how tests force
    /// real multi-worker execution on small states.
    pub threads: usize,
}

impl SvExec {
    /// The default policy: work-aware threading.
    #[must_use]
    pub fn auto() -> Self {
        SvExec::default()
    }

    /// This policy with an explicit worker count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Worker count for a stream of `num_kernels` kernels over `n_amps`
    /// amplitudes. Explicit counts are honored (they exist to force
    /// multi-worker coverage in tests); auto is work-aware so small
    /// states never pay team overhead.
    pub(crate) fn workers_for(&self, num_kernels: usize, n_amps: usize) -> usize {
        let pairs = n_amps / 2;
        if pairs == 0 {
            return 1;
        }
        if self.threads > 0 {
            return self.threads.min(pairs);
        }
        // Per-pair work: 2 amplitude ops per kernel touching it.
        let work_per_pair = (num_kernels.max(1) as u64) * 2;
        ExecConfig::default().effective_threads_for_work(pairs, work_per_pair)
    }

    /// Apply a kernel stream to `state` under this policy.
    ///
    /// Bit-identical to applying each kernel through
    /// [`Statevector::apply_kernel`] in order, at every worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if the stream contains a
    /// [`Kernel::Reset`] (which needs an RNG and a full-state reduction;
    /// callers split streams at resets).
    pub fn run_stream<K>(&self, state: &mut Statevector, kernels: &[K]) -> Result<(), SimError>
    where
        K: Borrow<Kernel> + Sync,
    {
        if kernels
            .iter()
            .any(|k| matches!(k.borrow(), Kernel::Reset(_)))
        {
            return Err(SimError::Unsupported { gate: "reset" });
        }
        let n = state.amps().len();
        let workers = self.workers_for(kernels.len(), n);

        if workers <= 1 {
            // Tiny states go straight through the per-kernel appliers:
            // below DIRECT_MAX_AMPS the run/chunk bookkeeping costs more
            // than the few-element loops it feeds (runs span at most
            // `bit` elements). Same arithmetic, same order —
            // bit-identical either way.
            if n <= DIRECT_MAX_AMPS {
                for kernel in kernels {
                    state.apply_kernel(kernel.borrow())?;
                }
            } else {
                let cells = ShareCell::slice_from_mut(state.amps_mut());
                for kernel in kernels {
                    let kernel = kernel.borrow();
                    let domain = kernel_domain(kernel, n);
                    // SAFETY: one thread holds the (uniquely borrowed)
                    // cells; no concurrent access exists.
                    unsafe { apply_kernel_cells(cells, kernel, 0..domain) };
                }
            }
            return Ok(());
        }

        let cells = ShareCell::slice_from_mut(state.amps_mut());
        let barrier = Barrier::new(workers);
        run_team(workers, |w| {
            for kernel in kernels {
                let kernel = kernel.borrow();
                let domain = kernel_domain(kernel, n);
                for range in block_ranges(domain, block_for(domain, workers), w, workers) {
                    // SAFETY: `block_ranges` deals disjoint domain ranges
                    // to distinct workers, the pair/quad→index maps are
                    // injective, and a kernel only touches indices of its
                    // own domain elements — so no two workers access the
                    // same amplitude within a phase. The barrier below
                    // orders phases (release/acquire), so cross-phase
                    // access is never concurrent either.
                    unsafe { apply_kernel_cells(cells, kernel, range) };
                }
                barrier.wait();
            }
        });
        Ok(())
    }

    /// Fill `probs` with `|amp|²` of `state` under this policy — the
    /// block-parallel, standalone form of
    /// [`Statevector::probabilities_into`] (bit-identical: the map is
    /// elementwise).
    pub fn probabilities_into(&self, state: &Statevector, probs: &mut Vec<f64>) {
        let amps = state.amps();
        let n = amps.len();
        // One amplitude op per pair: only very large states go wide.
        let workers = self.workers_for(1, n);
        if workers <= 1 {
            state.probabilities_into(probs);
            return;
        }
        probs.clear();
        probs.resize(n, 0.0);
        let prob_cells = ShareCell::slice_from_mut(&mut probs[..]);
        run_team(workers, |w| {
            for range in block_ranges(n, block_for(n, workers), w, workers) {
                for i in range {
                    // SAFETY: disjoint ranges per worker; `amps` is a
                    // plain shared borrow (reads only).
                    unsafe { cell_set(prob_cells, i, amps[i].norm_sqr()) };
                }
            }
        });
    }
}

/// Block size in `domain` units (pairs for 1q kernels, quads for 2q
/// kernels, amplitudes for the probability pass): one contiguous chunk
/// per worker, never 0.
pub(crate) fn block_for(domain: usize, workers: usize) -> usize {
    domain.div_ceil(workers.max(1)).max(1)
}

/// The index-domain size of one kernel over `n_amps` amplitudes: pairs
/// for 1q kernels, quads for 2q kernels, 0 for no-ops. Degenerate 2q
/// kernels (both operands the same qubit) reproduce the scalar oracle's
/// behavior: `Cx(q,q)`/`Swap(q,q)` touch nothing, `CPhase(q,q,_)`
/// degenerates to a 1q phase.
pub(crate) fn kernel_domain(kernel: &Kernel, n_amps: usize) -> usize {
    match kernel {
        Kernel::Noop | Kernel::Reset(_) => 0,
        Kernel::X(_) | Kernel::Mat1(..) | Kernel::Phase1(..) | Kernel::PhasePair1(..) => {
            n_amps / 2
        }
        Kernel::Cx(a, b) | Kernel::Swap(a, b) if a == b => 0,
        Kernel::CPhase(a, b, _) if a == b => n_amps / 2,
        Kernel::Cx(..) | Kernel::Swap(..) | Kernel::CPhase(..) => n_amps / 4,
    }
}

/// Apply `kernel` to the domain elements in `range` through shared
/// cells: 1q kernels over pairs of `1 << q`, 2q kernels over quads of
/// the sorted pair `(lobit, hibit)`.
///
/// # Safety
///
/// No other thread may concurrently access any amplitude belonging to a
/// domain element in `range` (callers guarantee this by partitioning the
/// domain disjointly and barriering between kernels).
pub(crate) unsafe fn apply_kernel_cells(
    cells: &[ShareCell<Complex>],
    kernel: &Kernel,
    range: Range<usize>,
) {
    let sorted = |a: usize, b: usize| (1usize << a.min(b), 1usize << a.max(b));
    // SAFETY (all arms): forwarded from caller.
    match *kernel {
        Kernel::Noop | Kernel::Reset(_) => {}
        Kernel::X(q) => unsafe { apply1_x(cells, 1 << q, range) },
        Kernel::Mat1(q, ref m) if 1usize << q >= LANES => unsafe {
            apply1_mat_wide(cells, 1 << q, m, range)
        },
        Kernel::Mat1(q, ref m) => {
            for p in range {
                unsafe { apply1_mat_pair(cells, 1 << q, p, m) };
            }
        }
        Kernel::Phase1(q, p) => unsafe { apply1_phase(cells, 1 << q, p, range) },
        Kernel::PhasePair1(q, c0, c1) => unsafe { apply1_phasepair(cells, 1 << q, c0, c1, range) },
        Kernel::Cx(a, b) | Kernel::Swap(a, b) if a == b => {}
        // idx & (bit|bit) == bit: exactly the 1q phase on `a`.
        Kernel::CPhase(a, b, p) if a == b => unsafe { apply1_phase(cells, 1 << a, p, range) },
        Kernel::Cx(c, t) => {
            let (lobit, hibit) = sorted(c, t);
            // x(control set, target clear) <-> x11.
            unsafe { apply2_swap(cells, lobit, hibit, 1 << c, lobit | hibit, range) }
        }
        Kernel::Swap(a, b) => {
            let (lobit, hibit) = sorted(a, b);
            unsafe { apply2_swap(cells, lobit, hibit, lobit, hibit, range) }
        }
        Kernel::CPhase(a, b, p) => {
            let (lobit, hibit) = sorted(a, b);
            unsafe { apply2_phase11(cells, lobit, hibit, p, range) }
        }
    }
}

/// A shared amplitude cell: `UnsafeCell` in `#[repr(transparent)]`
/// clothing, so a `&mut [T]` can be reborrowed as `&[ShareCell<T>]` and
/// handed to a worker team. This is the repo's only `unsafe` surface;
/// soundness rests on the disjoint-block partition documented at the
/// module level (and DESIGN.md §4g) — never on locks or atomics.
#[repr(transparent)]
pub(crate) struct ShareCell<T>(UnsafeCell<T>);

// SAFETY: a ShareCell is shared across the scoped worker team, which
// accesses disjoint cells per phase and orders phases with a Barrier;
// T itself crosses threads by value, so `T: Send` suffices.
unsafe impl<T: Send> Sync for ShareCell<T> {}

impl<T: Copy> ShareCell<T> {
    /// View an exclusive slice as shared cells. The returned slice
    /// borrows `slice`, so the exclusive borrow stays frozen (no safe
    /// access can alias it) for the cells' lifetime.
    pub(crate) fn slice_from_mut(slice: &mut [T]) -> &[ShareCell<T>] {
        let ptr: *mut [T] = slice;
        // SAFETY: ShareCell<T> is repr(transparent) over UnsafeCell<T>,
        // which is repr(transparent) over T — identical layout; lifetime
        // and length carried over from the input borrow.
        unsafe { &*(ptr as *const [ShareCell<T>]) }
    }

    /// Read the cell.
    ///
    /// # Safety
    ///
    /// No concurrent write to this cell may exist.
    #[inline]
    pub(crate) unsafe fn get(&self) -> T {
        unsafe { *self.0.get() }
    }

    /// Write the cell.
    ///
    /// # Safety
    ///
    /// No concurrent access to this cell may exist.
    #[inline]
    pub(crate) unsafe fn set(&self, value: T) {
        unsafe { *self.0.get() = value }
    }
}

/// Read cell `i` without a bounds check — the hot-loop accessor. Bounds
/// checks inside the lane loops block LLVM's vectorizer, and every index
/// here is derived from a domain partition that is in range by
/// construction.
///
/// # Safety
///
/// `i < cells.len()` and no concurrent write to cell `i`.
#[inline(always)]
pub(crate) unsafe fn cell_get<T: Copy>(cells: &[ShareCell<T>], i: usize) -> T {
    debug_assert!(i < cells.len());
    // SAFETY: forwarded from caller.
    unsafe { cells.get_unchecked(i).get() }
}

/// Write cell `i` without a bounds check (see [`cell_get`]).
///
/// # Safety
///
/// `i < cells.len()` and no concurrent access to cell `i`.
#[inline(always)]
pub(crate) unsafe fn cell_set<T: Copy>(cells: &[ShareCell<T>], i: usize, value: T) {
    debug_assert!(i < cells.len());
    // SAFETY: forwarded from caller.
    unsafe { cells.get_unchecked(i).set(value) }
}

/// Multiply every amplitude in the contiguous run `start..start + len`
/// by `ph` — the core of the sparse phase fast paths. Each element is
/// the exact [`Complex::mul`] expression of the generic per-pair path,
/// evaluated independently, so scalar and wide chunking agree bit for
/// bit.
///
/// # Safety
///
/// Exclusive access to the run; in bounds.
#[inline(always)]
unsafe fn phase_run(cells: &[ShareCell<Complex>], start: usize, len: usize, ph: Complex) {
    for i in start..start + len {
        // SAFETY: forwarded from caller.
        unsafe {
            let a = cell_get(cells, i);
            cell_set(
                cells,
                i,
                Complex::new(a.re * ph.re - a.im * ph.im, a.re * ph.im + a.im * ph.re),
            );
        }
    }
}

/// Swap the contiguous runs `a..a + len` and `b..b + len` — pure data
/// movement (no float ops), shared by the X and Cx/Swap loops.
///
/// # Safety
///
/// Exclusive access to both runs; disjoint; in bounds.
#[inline(always)]
unsafe fn swap_runs(cells: &[ShareCell<Complex>], a: usize, b: usize, len: usize) {
    for k in 0..len {
        // SAFETY: forwarded from caller.
        unsafe {
            let va = cell_get(cells, a + k);
            cell_set(cells, a + k, cell_get(cells, b + k));
            cell_set(cells, b + k, va);
        }
    }
}

/// Map pair index `p` to the lower amplitude index of its pair by
/// inserting a 0 at the target's bit position: the upper index is
/// `expand1(p, bit) | bit`. Injective from `0..n/2` onto the bit-clear
/// indices, ascending in `p`.
#[inline]
pub(crate) fn expand1(p: usize, bit: usize) -> usize {
    let low = p & (bit - 1);
    ((p - low) << 1) | low
}

/// Map quad index `p` to the `x00` amplitude index of its 4-block on the
/// sorted qubit pair `(lobit, hibit)`: zeros inserted at `lo`, then `hi`.
#[inline]
pub(crate) fn quad_base(p: usize, lobit: usize, hibit: usize) -> usize {
    expand1(expand1(p, lobit), hibit)
}

/// Scalar: apply `m` to pair `p` of qubit mask `bit`.
///
/// # Safety
///
/// Exclusive access to pair `p`'s two amplitudes (see
/// [`apply_kernel_cells`]).
#[inline(always)]
unsafe fn apply1_mat_pair(
    cells: &[ShareCell<Complex>],
    bit: usize,
    p: usize,
    m: &[[Complex; 2]; 2],
) {
    let i0 = expand1(p, bit);
    let i1 = i0 | bit;
    // SAFETY: caller owns this pair.
    unsafe {
        let (a0, a1) = mat1_apply(m, cell_get(cells, i0), cell_get(cells, i1));
        cell_set(cells, i0, a0);
        cell_set(cells, i1, a1);
    }
}

/// Define an ISA-dispatched pair of clones for a hot run loop: `$name`
/// probes the CPU (a cached atomic load) and jumps to `$avx2`, a copy of
/// `$imp` compiled with AVX2 enabled, when the host offers it.
///
/// The build targets baseline x86-64 (SSE2), so without this the
/// autovectorizer can never emit 256-bit lanes no matter how the loops
/// are shaped. `#[target_feature]` recompiles just these loops — plus
/// everything `#[inline(always)]`-ed into them ([`phase_run`],
/// [`mat1_apply`], the cell accessors) — for the wider
/// ISA. Packed AVX2 adds/muls are the same IEEE-754 operations as their
/// scalar forms and rustc never licenses FMA contraction, so both
/// clones produce bit-identical amplitudes: the dispatch is a pure
/// wall-clock choice.
macro_rules! isa_dispatch {
    ($name:ident / $avx2:ident => $imp:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) {
            // SAFETY: forwarded from caller (AVX2 presence checked there).
            unsafe { $imp($($arg),*) }
        }

        /// ISA-dispatched wrapper; see [`isa_dispatch`]. The safety
        /// contract is the wrapped `_impl` loop's.
        unsafe fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature just detected; rest forwarded.
                return unsafe { $avx2($($arg),*) };
            }
            // SAFETY: forwarded from caller.
            unsafe { $imp($($arg),*) }
        }
    };
}

pub(crate) use isa_dispatch;

isa_dispatch!(apply1_x / apply1_x_avx2 => apply1_x_impl(
    cells: &[ShareCell<Complex>], bit: usize, range: Range<usize>));
isa_dispatch!(apply1_phase / apply1_phase_avx2 => apply1_phase_impl(
    cells: &[ShareCell<Complex>], bit: usize, ph: Complex, range: Range<usize>));
isa_dispatch!(apply1_phasepair / apply1_phasepair_avx2 => apply1_phasepair_impl(
    cells: &[ShareCell<Complex>], bit: usize, c0: Complex, c1: Complex, range: Range<usize>));
isa_dispatch!(apply1_mat_wide / apply1_mat_wide_avx2 => apply1_mat_wide_impl(
    cells: &[ShareCell<Complex>], bit: usize, m: &[[Complex; 2]; 2], range: Range<usize>));
isa_dispatch!(apply2_phase11 / apply2_phase11_avx2 => apply2_phase11_impl(
    cells: &[ShareCell<Complex>], lobit: usize, hibit: usize, ph: Complex, range: Range<usize>));
isa_dispatch!(apply2_swap / apply2_swap_avx2 => apply2_swap_impl(
    cells: &[ShareCell<Complex>], lobit: usize, hibit: usize, off_a: usize, off_b: usize,
    range: Range<usize>));

/// `X` loop: exchange the two contiguous runs of each pair run — pure
/// data movement.
///
/// # Safety
///
/// Exclusive access to all pairs in `range`; pairs in bounds.
#[inline(always)]
unsafe fn apply1_x_impl(cells: &[ShareCell<Complex>], bit: usize, range: Range<usize>) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (bit - 1)) + bit);
        let i0 = expand1(p, bit);
        // SAFETY: forwarded from caller; both runs stay inside the pairs
        // `p..run_end`.
        unsafe { swap_runs(cells, i0, i0 | bit, run_end - p) };
        p = run_end;
    }
}

/// `Phase1` loop: only the bit-set side of each pair is
/// touched — stream the contiguous upper runs (1 load + 1 store per
/// amplitude) instead of round-tripping whole pairs.
///
/// # Safety
///
/// Exclusive access to all pairs in `range`; pairs in bounds.
#[inline(always)]
unsafe fn apply1_phase_impl(
    cells: &[ShareCell<Complex>],
    bit: usize,
    ph: Complex,
    range: Range<usize>,
) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (bit - 1)) + bit);
        // SAFETY: forwarded from caller; the run stays inside the pairs
        // `p..run_end`.
        unsafe { phase_run(cells, expand1(p, bit) | bit, run_end - p, ph) };
        p = run_end;
    }
}

/// `PhasePair1` loop: an Rz is two independent
/// diagonal streams, one per pair side.
///
/// # Safety
///
/// Exclusive access to all pairs in `range`; pairs in bounds.
#[inline(always)]
unsafe fn apply1_phasepair_impl(
    cells: &[ShareCell<Complex>],
    bit: usize,
    c0: Complex,
    c1: Complex,
    range: Range<usize>,
) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (bit - 1)) + bit);
        let i0 = expand1(p, bit);
        // SAFETY: forwarded from caller; runs stay inside the pairs.
        unsafe {
            phase_run(cells, i0, run_end - p, c0);
            phase_run(cells, i0 | bit, run_end - p, c1);
        }
        p = run_end;
    }
}

/// Wide `Mat1` loop. Within a run of `bit` consecutive pair indices,
/// `expand1` is an affine shift — both sides of the pair are contiguous
/// amplitude runs, processed in [`LANES`]-wide register blocks. Each
/// element goes through the same [`mat1_apply`] as the scalar path
/// (bit-identical); the chunking gives LLVM fixed-size lanes to pack.
///
/// # Safety
///
/// Exclusive access to all pairs in `range`; pairs in bounds;
/// `bit >= LANES`.
#[inline(always)]
unsafe fn apply1_mat_wide_impl(
    cells: &[ShareCell<Complex>],
    bit: usize,
    m: &[[Complex; 2]; 2],
    range: Range<usize>,
) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (bit - 1)) + bit);
        while p + LANES <= run_end {
            let i0 = expand1(p, bit);
            let i1 = i0 | bit;
            // SAFETY: forwarded from caller; lanes stay inside the run.
            unsafe {
                let mut a0 = [Complex::ZERO; LANES];
                let mut a1 = [Complex::ZERO; LANES];
                for l in 0..LANES {
                    a0[l] = cell_get(cells, i0 + l);
                    a1[l] = cell_get(cells, i1 + l);
                }
                for l in 0..LANES {
                    (a0[l], a1[l]) = mat1_apply(m, a0[l], a1[l]);
                }
                for l in 0..LANES {
                    cell_set(cells, i0 + l, a0[l]);
                    cell_set(cells, i1 + l, a1[l]);
                }
            }
            p += LANES;
        }
        while p < run_end {
            // SAFETY: forwarded from caller.
            unsafe { apply1_mat_pair(cells, bit, p, m) };
            p += 1;
        }
    }
}

/// `CPhase` loop: a controlled-phase touches only
/// the `x11` amplitude of each quad. Within a run of `lobit`
/// consecutive quad indices both `expand1` insertions are affine
/// shifts, so each `base | offset` run is contiguous.
///
/// # Safety
///
/// Exclusive access to all quads in `range`; quads in bounds.
#[inline(always)]
unsafe fn apply2_phase11_impl(
    cells: &[ShareCell<Complex>],
    lobit: usize,
    hibit: usize,
    ph: Complex,
    range: Range<usize>,
) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (lobit - 1)) + lobit);
        let i11 = quad_base(p, lobit, hibit) | lobit | hibit;
        // SAFETY: forwarded from caller; the run stays inside the quads
        // `p..run_end`.
        unsafe { phase_run(cells, i11, run_end - p, ph) };
        p = run_end;
    }
}

/// `Cx` / `Swap` loop: the permutation moves exactly two of the
/// four quad amplitudes (`base | off_a` <-> `base | off_b`) — pure bit
/// movement streamed over the contiguous runs.
///
/// # Safety
///
/// Exclusive access to all quads in `range`; quads in bounds;
/// `off_a != off_b`, both quad offsets of `(lobit, hibit)`.
#[inline(always)]
unsafe fn apply2_swap_impl(
    cells: &[ShareCell<Complex>],
    lobit: usize,
    hibit: usize,
    off_a: usize,
    off_b: usize,
    range: Range<usize>,
) {
    let mut p = range.start;
    let end = range.end;
    while p < end {
        let run_end = end.min(p - (p & (lobit - 1)) + lobit);
        let base = quad_base(p, lobit, hibit);
        // SAFETY: forwarded from caller; disjoint offset runs inside
        // the quads `p..run_end`.
        unsafe { swap_runs(cells, base | off_a, base | off_b, run_end - p) };
        p = run_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::matrices;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(num_qubits: usize, seed: u64) -> Statevector {
        let mut rng = StdRng::seed_from_u64(seed);
        let amps: Vec<Complex> = (0..1usize << num_qubits)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        Statevector::restore_in(num_qubits, Vec::new(), &amps).unwrap()
    }

    /// One kernel of every kind on every qubit position — low qubits
    /// exercise the strided path, high qubits the stride-1 wide path,
    /// and range boundaries exercise chunk remainders.
    fn kernel_menu(n: usize) -> Vec<Kernel> {
        let ph = Complex::from_polar(1.0, 0.37);
        let mut kernels = Vec::new();
        for q in 0..n {
            kernels.push(Kernel::X(q));
            kernels.push(Kernel::Mat1(q, matrices::h()));
            kernels.push(Kernel::Phase1(q, ph));
            kernels.push(Kernel::PhasePair1(
                q,
                Complex::from_polar(1.0, -0.21),
                Complex::from_polar(1.0, 0.21),
            ));
            kernels.push(Kernel::Mat1(q, matrices::sx()));
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                kernels.push(Kernel::Cx(a, b));
                kernels.push(Kernel::CPhase(a, b, ph));
                if a < b {
                    kernels.push(Kernel::Swap(a, b));
                }
            }
        }
        kernels
    }

    /// Apply through the oracle (`Statevector::apply_kernel`).
    fn oracle_apply(state: &mut Statevector, kernels: &[Kernel]) {
        for k in kernels {
            state.apply_kernel(k).unwrap();
        }
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

    #[test]
    fn quad_base_enumerates_both_bits_clear() {
        for (lo, hi) in [(0usize, 1usize), (0, 3), (1, 2), (2, 3)] {
            let (lobit, hibit) = (1 << lo, 1 << hi);
            let bases: Vec<usize> = (0..4).map(|p| quad_base(p, lobit, hibit)).collect();
            let expected: Vec<usize> = (0..16).filter(|i| i & (lobit | hibit) == 0).collect();
            assert_eq!(bases, expected, "pair ({lo},{hi})");
        }
    }

    #[test]
    fn single_worker_cells_match_oracle_for_every_kernel_and_position() {
        // Per-kernel differential on a 10-qubit random state: above
        // DIRECT_MAX_AMPS one worker runs the cell loops (strided pairs
        // on qubits 0-1, LANES-wide chunks above), which must reproduce
        // the full-array oracle bit-exactly.
        const N: usize = 10;
        const { assert!(1usize << N > DIRECT_MAX_AMPS) };
        for (i, kernel) in kernel_menu(N).iter().enumerate() {
            let mut oracle = random_state(N, 1000 + i as u64);
            let mut cells = oracle.clone();
            oracle.apply_kernel(kernel).unwrap();
            SvExec::auto()
                .with_threads(1)
                .run_stream(&mut cells, std::slice::from_ref(kernel))
                .unwrap();
            assert_eq!(oracle, cells, "kernel #{i}: {kernel:?}");
        }
    }

    #[test]
    fn blocked_teams_match_oracle_across_widths_and_team_sizes() {
        // The full menu as one stream at 3-7 qubits: explicit thread
        // counts force real multi-worker teams even on 1 core, and team
        // sizes coprime to the power-of-two domains put every worker's
        // chunk boundary off a LANES multiple, so strided (q < 2) and
        // wide kernels both start and end mid-run.
        for n in 3..=7usize {
            let kernels = kernel_menu(n);
            let mut oracle = random_state(n, 7);
            oracle_apply(&mut oracle, &kernels);
            for threads in [2usize, 3, 5, 7] {
                let mut state = random_state(n, 7);
                SvExec::auto()
                    .with_threads(threads)
                    .run_stream(&mut state, &kernels)
                    .unwrap();
                assert_eq!(oracle, state, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn degenerate_two_qubit_kernels_match_oracle() {
        // Same-operand 2q kernels keep the scalar per-gate semantics:
        // Cx/Swap are no-ops, CPhase acts as a 1q phase.
        let ph = Complex::from_polar(1.0, 0.9);
        for kernel in [
            Kernel::Cx(2, 2),
            Kernel::Swap(1, 1),
            Kernel::CPhase(3, 3, ph),
        ] {
            let mut oracle = random_state(4, 11);
            let mut blocked = oracle.clone();
            oracle.apply_kernel(&kernel).unwrap();
            SvExec::auto()
                .with_threads(3)
                .run_stream(&mut blocked, std::slice::from_ref(&kernel))
                .unwrap();
            assert_eq!(oracle, blocked, "{kernel:?}");
        }
    }

    #[test]
    fn standalone_probabilities_match_across_teams() {
        let state = random_state(6, 21);
        let mut expected = Vec::new();
        state.probabilities_into(&mut expected);
        for threads in [1usize, 2, 5] {
            let mut probs = Vec::new();
            SvExec::auto()
                .with_threads(threads)
                .probabilities_into(&state, &mut probs);
            assert_eq!(probs, expected, "threads={threads}");
        }
    }

    #[test]
    fn reset_kernels_are_rejected() {
        let mut state = random_state(3, 1);
        let kernels = vec![Kernel::X(0), Kernel::Reset(1)];
        assert!(matches!(
            SvExec::auto().run_stream(&mut state, &kernels),
            Err(SimError::Unsupported { .. })
        ));
    }

    #[test]
    fn auto_threads_bypass_team_for_small_states() {
        // 6 qubits × a few kernels is far below MIN_WORK_PER_THREAD:
        // auto must choose 1 worker. Explicit counts are honored.
        let exec = SvExec::auto();
        assert_eq!(exec.workers_for(10, 1 << 6), 1);
        assert_eq!(SvExec::auto().with_threads(3).workers_for(1, 1 << 6), 3);
        // Explicit counts still cap at the pair count.
        assert_eq!(SvExec::auto().with_threads(64).workers_for(1, 8), 4);
    }

    #[test]
    fn block_for_is_one_chunk_per_worker() {
        assert_eq!(block_for(32, 4), 8);
        assert_eq!(block_for(30, 4), 8);
        assert_eq!(block_for(2, 7), 1);
        assert_eq!(block_for(0, 3), 1); // never 0
    }
}
