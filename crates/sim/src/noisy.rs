//! Noisy execution: Monte-Carlo Pauli-trajectory simulation driven by a
//! machine's calibration snapshot.
//!
//! This stands in for real-hardware execution in the paper's fidelity
//! experiments (Fig 7): each gate fails with its calibrated error
//! probability (injecting a random Pauli on its operands), and each
//! measured bit flips with its calibrated readout error. Error magnitudes
//! come straight from the calibration snapshot, so fidelity inherits the
//! machine-to-machine and day-to-day variation of the calibration model.
//!
//! # The dense hot path
//!
//! [`NoisySimulator::run`] is several times faster than the naive
//! per-instruction loop (preserved as [`NoisySimulator::run_reference`],
//! the one oracle) while producing bit-identical [`Counts`]:
//!
//! - **Pre-decoded steps**: instructions are decoded once per run into
//!   [`fusion::instruction_kernel`] kernels with their calibrated error
//!   probability and per-operand decoherence probabilities attached, so
//!   trajectories never re-match gate enums, re-derive matrices, repeat
//!   snapshot lookups or recompute an `exp`.
//! - **Trajectory skip-ahead**: gate error probabilities are
//!   state-independent, so a cheap dry walk over each trajectory's own RNG
//!   stream — consuming exactly the one uniform per noisy gate plus one
//!   Pauli-word draw per fired error the real run would — records the
//!   trajectory's error events up front. Event-free trajectories share one
//!   ideal-circuit execution and one sampling table, and sample their
//!   shots from their own RNG exactly where the full run would have left
//!   it. Skip-ahead is disabled when decoherence is on or the circuit
//!   contains a reset, whose draws depend on the evolving state (see
//!   DESIGN.md §4f for the soundness argument).
//! - **Frame-tracked replay**: the shared ideal evolution and every
//!   eventful trajectory run on a [`FrameState`] — X/CX/SWAP kernels and
//!   injected X errors update an index map and move no data, diagonal
//!   runs (and injected Z errors) are applied many-per-pass, and only
//!   `Mat1` kernels, injected Y errors and the final probability gather
//!   touch the `2^n` array. Decoherence and reset trajectories run on
//!   [`Statevector`]'s appliers: they read `probability_one`, a sum in
//!   canonical index order, between gates.
//! - **Noiseless-prefix reuse**: every trajectory evolves identically to
//!   the ideal circuit until its first error event, so the ideal evolution
//!   is snapshotted every few instructions (`PrefixCheckpoints`, frame
//!   beside amplitudes) and an eventful trajectory restores the longest
//!   checkpointed prefix at or before its first event — a `memcpy` —
//!   instead of recomputing it, then replays only the remainder with its
//!   recorded Pauli injections.
//! - **Buffer reuse**: eventful trajectories build their statevector
//!   inside their worker's one scratch buffer instead of a fresh `2^n`
//!   allocation each.
//! - **Integer shot loop**: basis states come from the same
//!   [`CdfSampler`] the reference uses, and readout errors are pre-scaled
//!   to exact integer thresholds on the raw 53-bit uniform draw
//!   ([`readout_word`], shared by all three backends), resolving every
//!   draw to the exact outcome the reference float comparison produces.
//!   Each shot records straight into [`Counts`].

use qcs_calibration::{CalibrationSnapshot, DEFAULT_CX_NS, SINGLE_QUBIT_NS};
use qcs_circuit::{Circuit, Gate, Instruction, Qubit};
use qcs_exec::ExecConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::backend::{BackendChoice, MAX_CLBITS};
use crate::frame::{FrameSnapshot, FrameState};
use crate::fusion::{self, Kernel};
use crate::statevector::matrices;
use crate::{CdfSampler, Complex, Counts, SimError, Statevector, SvExec};

/// Monte-Carlo noisy simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoisySimulator {
    /// Number of independent Pauli trajectories; shots are distributed
    /// evenly across them.
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
    /// Also apply T1 amplitude damping and T2 dephasing, scaled by each
    /// gate's duration against the operand qubits' calibrated coherence
    /// times. Off by default (gate + readout errors only).
    pub decoherence: bool,
    /// Worker threads for the trajectory loop; `0` (default) means
    /// [`std::thread::available_parallelism`], and the pool is bypassed
    /// entirely (1 worker) when the total work is too small to amortize
    /// it (see [`qcs_exec::ExecConfig::effective_threads_for_work`]).
    /// Counts are bit-identical at any thread count: every trajectory
    /// draws from its own RNG, seeded by SplitMix64 from
    /// `(seed, trajectory index)`.
    pub threads: usize,
    /// Read by nothing: the amplitude-block teams it used to size are gone
    /// and every state is walked by the trajectory worker that owns it
    /// (see [`SvExec`]). Kept only because `benchmark/` names
    /// [`NoisySimulator::with_sv`].
    pub sv: SvExec,
    /// Simulation backend selection: [`BackendChoice::Auto`] (default)
    /// routes each circuit through [`crate::backend::BackendDispatcher`]
    /// (dense when it fits, stabilizer for wide Clifford circuits, sparse
    /// for wide low-branching circuits); `Force(kind)` pins one engine
    /// and errors if it cannot faithfully run the circuit.
    pub backend: BackendChoice,
}

impl Default for NoisySimulator {
    fn default() -> Self {
        NoisySimulator {
            trajectories: 128,
            seed: 0,
            decoherence: false,
            threads: 0,
            sv: SvExec::auto(),
            backend: BackendChoice::Auto,
        }
    }
}

/// One pre-decoded instruction of the trajectory loop: the statevector
/// kernel plus everything the noise model needs, computed once per run.
/// Shared with the alternative backends in [`crate::backend`], which walk
/// the same step stream with the same draw discipline.
pub(crate) struct TrajStep {
    pub(crate) kernel: Kernel,
    /// Operand qubits, for Pauli injection and decoherence.
    pub(crate) qubits: Vec<Qubit>,
    /// Whether the noise model applies to this step at all (unitary,
    /// non-identity, non-directive).
    eligible: bool,
    /// Calibrated gate error probability (0 when ineligible).
    error_prob: f64,
    /// Per operand `(qubit, gamma, p_phase)`: the amplitude-damping and
    /// dephasing probabilities of this step's duration (empty when
    /// decoherence is off or the step has no duration).
    decoherence: Vec<(usize, Option<f64>, Option<f64>)>,
}

impl TrajStep {
    /// The dry walk's view of this step (see [`step_noise`]).
    pub(crate) fn noise(&self) -> (f64, usize) {
        (self.error_prob, self.qubits.len())
    }
}

/// Per-worker scratch of the trajectory loop: the CDF table each
/// eventful trajectory rebuilds in place, the amplitude buffer the
/// worker's one live trajectory state is built in (taken out for the
/// trajectory, put back after) and the dry walk's event list, all
/// thread-local by construction.
#[derive(Default)]
struct Scratch {
    sampler: CdfSampler,
    amps: Vec<Complex>,
    events: Vec<(usize, usize)>,
}

/// A measurement-map entry with the readout error pre-scaled by
/// [`uniform_threshold`] and the lookup hoisted out of the shot loop:
/// `(qubit, clbit, flip_threshold)`.
pub(crate) type ReadoutEntry = (usize, usize, u64);

/// The scale of the 53-bit uniform draw: `gen_range(0.0..1.0)` returns
/// exactly `k * 2^-53` for `k = next_u64() >> 11`.
const UNIFORM_SCALE: f64 = (1u64 << 53) as f64;

/// The exact integer threshold reproducing `gen_range(0.0..1.0) < p`:
/// the draw is `k * 2^-53` with integer `k`, so `u < p  ⟺  k < p * 2^53`
/// (exact reals) `⟺  k < ceil(p * 2^53)` — and `p * 2^53` is an exact
/// f64 product (power-of-two scaling), so this threshold resolves every
/// draw bit-identically to the float comparison while the shot loop
/// skips the int-to-float conversion.
pub(crate) fn uniform_threshold(p: f64) -> u64 {
    (p * UNIFORM_SCALE).ceil() as u64
}

/// Snapshots of the shared noiseless evolution, taken every `stride`
/// instructions: every trajectory is identical to the ideal circuit until
/// its first error event, so an eventful trajectory restores the longest
/// checkpointed prefix at or before that event (a `memcpy`) instead of
/// recomputing it. Storage is capped ([`CHECKPOINT_BUDGET_BYTES`]); for
/// states too large to snapshot the stride widens until the scheme
/// degrades to plain recompute, which is still correct.
struct PrefixCheckpoints {
    stride: usize,
    /// `snapshots[j]` = the flushed state after `(j + 1) * stride`
    /// instructions: amplitudes in their physical order plus the frame
    /// that says where each logical basis state sits.
    snapshots: Vec<FrameSnapshot>,
}

/// Cap on total prefix-checkpoint storage per run.
const CHECKPOINT_BUDGET_BYTES: usize = 32 << 20;

impl PrefixCheckpoints {
    /// Build by evolving |0..0> through the per-instruction step kernels —
    /// the same per-amplitude arithmetic a trajectory performs, so every
    /// snapshot is bit-identical to any trajectory's own ideal prefix.
    /// Returns the checkpoints and the final ideal state (which seeds the
    /// shared event-free sampling table).
    ///
    /// Kernels stream through the frame executor in stride-aligned
    /// segments, so every snapshot lands on the exact same instruction
    /// boundary as a sequential walk.
    fn build(num_qubits: usize, steps: &[TrajStep]) -> Result<(Self, FrameState), SimError> {
        let state_bytes = (1usize << num_qubits) * std::mem::size_of::<Complex>();
        let max_snapshots = (CHECKPOINT_BUDGET_BYTES / state_bytes.max(1)).min(16);
        let stride = match max_snapshots {
            0 => steps.len().max(1),
            n => steps.len().div_ceil(n).max(1),
        };
        let mut state = FrameState::zero_in(num_qubits, Vec::new())?;
        let mut snapshots = Vec::new();
        for (j, segment) in steps.chunks(stride).enumerate() {
            state.run(segment.iter().map(|step| &step.kernel))?;
            if segment.len() == stride && (j + 1) * stride < steps.len() {
                snapshots.push(state.snapshot());
            }
        }
        Ok((PrefixCheckpoints { stride, snapshots }, state))
    }

    /// The longest checkpointed prefix spanning at most `upto`
    /// instructions, as `(instructions_applied, snapshot)`; `None`
    /// means start from |0..0>.
    fn restore_point(&self, upto: usize) -> Option<(usize, &FrameSnapshot)> {
        let j = (upto / self.stride).min(self.snapshots.len());
        j.checked_sub(1)
            .map(|j| ((j + 1) * self.stride, &self.snapshots[j]))
    }
}

impl NoisySimulator {
    /// A simulator with the given seed and default trajectory count.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        NoisySimulator {
            seed,
            ..NoisySimulator::default()
        }
    }

    /// Enable duration-scaled T1/T2 decoherence; returns the modified
    /// simulator for chaining.
    #[must_use]
    pub fn with_decoherence(mut self) -> Self {
        self.decoherence = true;
        self
    }

    /// Set the trajectory-loop worker thread count (`0` = auto); returns
    /// the modified simulator for chaining. The result of
    /// [`NoisySimulator::run`] does not depend on this value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set [`NoisySimulator::sv`], which nothing reads; returns the
    /// simulator for chaining.
    #[must_use]
    pub fn with_sv(mut self, sv: SvExec) -> Self {
        self.sv = sv;
        self
    }

    /// Set the backend selection policy (see [`BackendChoice`]); returns
    /// the modified simulator for chaining.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Execute `circuit` for `shots` shots under the noise described by
    /// `snapshot`. Operand indices of the circuit must be physical qubits
    /// covered by the snapshot (i.e. run this on *transpiled* circuits).
    ///
    /// Trajectories run on a bounded worker pool ([`NoisySimulator::threads`])
    /// and each one seeds its own RNG from `(self.seed, trajectory index)`
    /// via SplitMix64, so the returned [`Counts`] are bit-identical for a
    /// given seed at any thread count — and bit-identical to the
    /// unoptimized [`NoisySimulator::run_reference`] path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the circuit exceeds simulator limits
    /// ([`SimError::TooManyClbits`] when a measured clbit does not fit
    /// one outcome word, whatever the backend).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or the snapshot does not cover the circuit
    /// width.
    pub fn run(
        &self,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        shots: u32,
    ) -> Result<Counts, SimError> {
        check_run_inputs(circuit, snapshot, shots)?;
        crate::backend::BackendDispatcher::execute(self, circuit, snapshot, shots)
    }

    /// The backend this simulator's [`BackendChoice`] resolves to for
    /// `circuit` — what [`NoisySimulator::run`] will execute on — without
    /// running anything. Experiments use this to label results per
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when no backend can faithfully execute the
    /// circuit under this configuration.
    pub fn planned_backend(&self, circuit: &Circuit) -> Result<crate::BackendKind, SimError> {
        crate::backend::BackendDispatcher::plan(self, circuit)
    }

    /// The dense-statevector execution path (the engine behind
    /// [`NoisySimulator::run`] whenever the circuit fits
    /// [`crate::DENSE_MAX_QUBITS`]): pre-decoded per-instruction kernels,
    /// trajectory skip-ahead on frame-tracked states, prefix checkpoints,
    /// pooled buffers, integer shot loop.
    pub(crate) fn run_dense(
        &self,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        shots: u32,
    ) -> Result<Counts, SimError> {
        let readout = self.readout_entries(circuit, snapshot);
        let width = used_clbit_width_of_entries(&readout);
        let num_qubits = circuit.num_qubits();

        let trajectories = self.trajectories.clamp(1, shots as usize);
        let base = shots as usize / trajectories;
        let extra = shots as usize % trajectories;

        // Decode every instruction once; trajectories replay the compact
        // step stream instead of the instruction list.
        let steps: Vec<TrajStep> = circuit
            .instructions()
            .iter()
            .map(|inst| self.decode_step(inst, snapshot))
            .collect();

        // Skip-ahead is sound only when every random draw of a trajectory
        // is state-independent: decoherence (jump probabilities depend on
        // the state) and reset (a projective measurement draw) disable it.
        let has_reset = steps.iter().any(|s| matches!(s.kernel, Kernel::Reset(_)));
        let skip_ahead = !self.decoherence && !has_reset;

        // Work-aware trajectory fan-out: items are trajectories, work is
        // (kernel applications) x (amplitudes), so a small circuit at a
        // high thread count bypasses the pool instead of paying spawn
        // overhead that dwarfs the work (the threads/{2,4,8} regression).
        let work_per_traj = (steps.len().max(1) as u64) << num_qubits.min(40);
        let traj_workers = ExecConfig::with_threads(self.threads)
            .effective_threads_for_work(trajectories, work_per_traj);
        let exec = ExecConfig::with_threads(traj_workers);

        let shared = if skip_ahead {
            let (prefix, mut ideal) = PrefixCheckpoints::build(num_qubits, &steps)?;
            let mut sampler = CdfSampler::default();
            sampler.rebuild_with(|probs| ideal.probabilities_into(probs));
            Some((prefix, sampler))
        } else {
            None
        };

        let indices: Vec<usize> = (0..trajectories).collect();
        let partials = qcs_exec::parallel_map_with(
            &exec,
            &indices,
            Scratch::default,
            |scratch, _, &t| -> Result<Counts, SimError> {
                let traj_shots = base + usize::from(t < extra);
                let seed = qcs_exec::derive_seed(self.seed, t as u64);
                let mut rng = StdRng::seed_from_u64(seed);

                if let Some((prefix, shared_sampler)) = &shared {
                    // The full run's state applications consume no
                    // randomness here, so after the dry walk the RNG sits
                    // exactly where the full run would have left it.
                    dry_walk(
                        &mut rng,
                        steps.iter().map(TrajStep::noise),
                        &mut scratch.events,
                    );
                    let events = &scratch.events;
                    if events.is_empty() {
                        // Identical to the ideal circuit: share its
                        // execution and sampling table.
                        return Ok(sample_shots(
                            shared_sampler,
                            &mut rng,
                            traj_shots,
                            &readout,
                            width,
                        ));
                    }
                    // Restore the shared noiseless prefix nearest the
                    // first event and replay only the remainder, injecting
                    // the recorded Pauli words at their steps.
                    let buf = std::mem::take(&mut scratch.amps);
                    let (mut next, mut state) = match prefix.restore_point(events[0].0 + 1) {
                        Some((applied, snapshot)) => {
                            (applied, FrameState::restore_in(num_qubits, buf, snapshot))
                        }
                        None => (0, FrameState::zero_in(num_qubits, buf)?),
                    };
                    let kernels = |range: std::ops::Range<usize>| {
                        steps[range].iter().map(|step| &step.kernel)
                    };
                    for &(i, word) in events {
                        if next <= i {
                            state.run(kernels(next..i + 1))?;
                            next = i + 1;
                        }
                        state.run(pauli_word_kernels(&steps[i].qubits, word))?;
                    }
                    state.run(kernels(next..steps.len()))?;
                    scratch.sampler.rebuild_with(|probs| state.probabilities_into(probs));
                    scratch.amps = state.into_amps();
                    return Ok(sample_shots(
                        &scratch.sampler,
                        &mut rng,
                        traj_shots,
                        &readout,
                        width,
                    ));
                }

                // Decoherence or reset: the full per-gate stochastic path.
                let buf = std::mem::take(&mut scratch.amps);
                let mut state = Statevector::zero_in(num_qubits, buf)?;
                self.apply_steps(&steps, &mut state, &mut rng)?;
                scratch.sampler.rebuild(&state);
                scratch.amps = state.into_amps();
                Ok(sample_shots(
                    &scratch.sampler,
                    &mut rng,
                    traj_shots,
                    &readout,
                    width,
                ))
            },
        );

        merge_partials(partials, width)
    }

    /// The pre-optimization execution path: per-instruction gate matching,
    /// a fresh statevector and CDF rebuild per trajectory, no skip-ahead.
    ///
    /// Kept as the regression oracle: [`NoisySimulator::run`] must produce
    /// bit-identical [`Counts`] (property-tested).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the circuit exceeds simulator limits.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or the snapshot does not cover the circuit
    /// width.
    pub fn run_reference(
        &self,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        shots: u32,
    ) -> Result<Counts, SimError> {
        check_run_inputs(circuit, snapshot, shots)?;
        let measure_map = measurement_map(circuit);
        let width = used_clbit_width(&measure_map);

        let trajectories = self.trajectories.clamp(1, shots as usize);
        let base = shots as usize / trajectories;
        let extra = shots as usize % trajectories;

        let indices: Vec<usize> = (0..trajectories).collect();
        let exec = ExecConfig::with_threads(self.threads);
        // Each worker reuses one CDF table allocation across all the
        // trajectories it processes.
        let partials = qcs_exec::parallel_map_with(
            &exec,
            &indices,
            CdfSampler::default,
            |sampler, _, &t| -> Result<Counts, SimError> {
                let traj_shots = base + usize::from(t < extra);
                let mut rng = StdRng::seed_from_u64(qcs_exec::derive_seed(self.seed, t as u64));
                let state = self.run_trajectory(circuit, snapshot, &mut rng)?;
                sampler.rebuild(&state);
                let mut counts = Counts::new(width);
                for _ in 0..traj_shots {
                    let basis = sampler.sample(&mut rng);
                    let mut word = 0u64;
                    for &(q, c) in &measure_map {
                        let mut bit = (basis >> q) & 1;
                        let ro = snapshot.qubit(q).readout_error;
                        if rng.gen_range(0.0..1.0) < ro {
                            bit ^= 1;
                        }
                        word |= (bit as u64) << c;
                    }
                    counts.record(word, 1);
                }
                Ok(counts)
            },
        );

        merge_partials(partials, width)
    }

    /// Decode one instruction into its trajectory step.
    pub(crate) fn decode_step(&self, inst: &Instruction, snapshot: &CalibrationSnapshot) -> TrajStep {
        let eligible = noise_eligible(inst);
        TrajStep {
            kernel: fusion::instruction_kernel(inst),
            qubits: inst.qubits.clone(),
            eligible,
            error_prob: step_noise(inst, snapshot).0,
            decoherence: if eligible && self.decoherence {
                let duration_ns = gate_duration_ns(inst, snapshot);
                inst.qubits
                    .iter()
                    .filter_map(|q| {
                        let (gamma, p_phase) =
                            decoherence_probabilities(q.index(), duration_ns, snapshot);
                        (gamma.is_some() || p_phase.is_some()).then_some((q.index(), gamma, p_phase))
                    })
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Run one full noisy trajectory over the pre-decoded step stream —
    /// draw-for-draw identical to [`NoisySimulator::run_trajectory`], on
    /// the same [`Statevector`] appliers.
    fn apply_steps(
        &self,
        steps: &[TrajStep],
        state: &mut Statevector,
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        for step in steps {
            state.apply_kernel_with_rng(&step.kernel, rng)?;
            if !step.eligible {
                continue;
            }
            if step.error_prob > 0.0 && rng.gen_range(0.0..1.0) < step.error_prob {
                inject_pauli(state, &step.qubits, rng)?;
            }
            for &(q, gamma, p_phase) in &step.decoherence {
                decohere(state, q, gamma, p_phase, rng);
            }
        }
        Ok(())
    }

    /// Run one Pauli trajectory the pre-optimization way: the ideal
    /// circuit with stochastic Pauli injections after faulty gates.
    fn run_trajectory(
        &self,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
        rng: &mut StdRng,
    ) -> Result<Statevector, SimError> {
        let mut state = Statevector::zero(circuit.num_qubits())?;
        for inst in circuit.instructions() {
            state.apply_with_rng(inst, rng)?;
            if !inst.gate.is_unitary() || inst.gate.is_directive() || inst.gate == Gate::Id {
                continue;
            }
            let error_prob = gate_error(inst, snapshot);
            if error_prob > 0.0 && rng.gen_range(0.0..1.0) < error_prob {
                inject_pauli(&mut state, &inst.qubits, rng)?;
            }
            if self.decoherence {
                let duration_ns = gate_duration_ns(inst, snapshot);
                for q in &inst.qubits {
                    apply_decoherence(&mut state, q.index(), duration_ns, snapshot, rng);
                }
            }
        }
        Ok(state)
    }

    /// The measurement map with readout errors attached (pre-scaled to
    /// integer flip thresholds), hoisting the per-shot snapshot lookup
    /// and float comparison out of the loop.
    pub(crate) fn readout_entries(
        &self,
        circuit: &Circuit,
        snapshot: &CalibrationSnapshot,
    ) -> Vec<ReadoutEntry> {
        measurement_map(circuit)
            .into_iter()
            .map(|(q, c)| (q, c, uniform_threshold(snapshot.qubit(q).readout_error)))
            .collect()
    }
}

/// The shared front door of [`NoisySimulator::run`] and
/// [`NoisySimulator::run_reference`]: the documented panics, then the one
/// classical-register check — every backend packs a shot into one `u64`
/// outcome word, so a measured clbit at or beyond [`MAX_CLBITS`] has
/// nowhere to land.
fn check_run_inputs(
    circuit: &Circuit,
    snapshot: &CalibrationSnapshot,
    shots: u32,
) -> Result<(), SimError> {
    assert!(shots > 0, "shots must be positive");
    assert!(
        snapshot.num_qubits() >= circuit.num_qubits(),
        "snapshot narrower than circuit"
    );
    let width = used_clbit_width(&measurement_map(circuit));
    if width > MAX_CLBITS {
        return Err(SimError::TooManyClbits { requested: width });
    }
    Ok(())
}

/// Widest classical register [`clbit_distribution`] materializes as a
/// dense `2^width` probability array. A classical-register limit on that
/// function's output size, distinct from the dense backend's
/// [`crate::DENSE_MAX_QUBITS`] state cap (the values coincide today, but
/// one is about amplitude memory and the other about distribution-array
/// memory).
pub const DENSE_DISTRIBUTION_MAX_WIDTH: usize = 24;

/// The shot loop shared by both trajectory kinds: sample a basis state,
/// push it through the readout-error channel, record the clbit word.
///
/// Draw-for-draw identical to the reference shot loop: one uniform per
/// basis sample resolved by the same [`CdfSampler`], one uniform per
/// readout entry resolved against its exact [`uniform_threshold`].
fn sample_shots(
    sampler: &CdfSampler,
    rng: &mut StdRng,
    traj_shots: usize,
    readout: &[ReadoutEntry],
    width: usize,
) -> Counts {
    let mut counts = Counts::with_capacity(width, traj_shots);
    for _ in 0..traj_shots {
        let basis = sampler.sample(rng) as u128;
        counts.record(readout_word(basis, rng, readout), 1);
    }
    counts
}

/// Push one sampled basis state through the readout-error channel: flip
/// each measured bit with its readout probability (one threshold draw per
/// entry, fired or not) and pack the clbit word. The one readout channel
/// of all three backends.
pub(crate) fn readout_word(basis: u128, rng: &mut StdRng, readout: &[ReadoutEntry]) -> u64 {
    let mut word = 0u64;
    for &(q, c, threshold) in readout {
        let flip = u64::from(rng.next_u64() >> 11 < threshold);
        word |= ((((basis >> q) & 1) as u64) ^ flip) << c;
    }
    word
}

/// Merge per-trajectory partial counts in trajectory order; the first
/// error (by trajectory index) wins, matching a sequential loop.
pub(crate) fn merge_partials(
    partials: Vec<Result<Counts, SimError>>,
    width: usize,
) -> Result<Counts, SimError> {
    let mut counts = Counts::new(width);
    for partial in partials {
        counts.merge(&partial?);
    }
    Ok(counts)
}

/// Nominal duration of a noise-eligible instruction (unitary, not a
/// directive, not `Id` — both callers check) for decoherence purposes, ns:
/// the same pulse-duration policy the transpiler schedules with.
fn gate_duration_ns(inst: &Instruction, snapshot: &CalibrationSnapshot) -> f64 {
    if inst.gate.is_two_qubit() {
        let (a, b) = (inst.qubits[0].index(), inst.qubits[1].index());
        let base = snapshot.edge(a, b).map_or(DEFAULT_CX_NS, |e| e.cx_duration_ns);
        if inst.gate == Gate::Swap {
            return 3.0 * base;
        }
        return base;
    }
    if matches!(inst.gate, Gate::Rz(_)) {
        return 0.0; // virtual Z
    }
    SINGLE_QUBIT_NS
}

/// One T1/T2 trajectory step on qubit `q` over `duration_ns` — the
/// oracle's form: probabilities recomputed on every visit. The optimized
/// path computes them once per step in [`NoisySimulator::decode_step`].
fn apply_decoherence(
    state: &mut Statevector,
    q: usize,
    duration_ns: f64,
    snapshot: &CalibrationSnapshot,
    rng: &mut StdRng,
) {
    let (gamma, p_phase) = decoherence_probabilities(q, duration_ns, snapshot);
    decohere(state, q, gamma, p_phase, rng);
}

/// The amplitude-damping probability `gamma = 1 - exp(-t/T1)` and the
/// dephasing probability `p_phase = ½(1 - exp(-t/Tφ))` of qubit `q` over
/// `duration_ns`; `None` where the channel does not apply (no duration,
/// or a non-finite / non-positive coherence time). They depend on the
/// step and the operand only, never on the trajectory.
fn decoherence_probabilities(
    q: usize,
    duration_ns: f64,
    snapshot: &CalibrationSnapshot,
) -> (Option<f64>, Option<f64>) {
    if duration_ns <= 0.0 {
        return (None, None);
    }
    let cal = snapshot.qubit(q);
    let t_us = duration_ns / 1000.0;
    let has_t1 = cal.t1_us.is_finite() && cal.t1_us > 0.0;
    let gamma = has_t1.then(|| 1.0 - (-t_us / cal.t1_us).exp());
    // Pure dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1).
    let p_phase = (cal.t2_us.is_finite() && cal.t2_us > 0.0).then(|| {
        let inv_t1 = if has_t1 { 1.0 / (2.0 * cal.t1_us) } else { 0.0 };
        let inv_tphi = (1.0 / cal.t2_us - inv_t1).max(0.0);
        0.5 * (1.0 - (-t_us * inv_tphi).exp())
    });
    (gamma, p_phase)
}

/// Apply the two decoherence channels of one operand, damping first.
fn decohere(
    state: &mut Statevector,
    q: usize,
    gamma: Option<f64>,
    p_phase: Option<f64>,
    rng: &mut StdRng,
) {
    if let Some(gamma) = gamma {
        state.apply_amplitude_damping(q, gamma, rng);
    }
    if let Some(p_phase) = p_phase {
        state.apply_dephasing(q, p_phase, rng);
    }
}

/// Whether the noise model applies to `inst` at all: unitary,
/// non-identity, non-directive.
fn noise_eligible(inst: &Instruction) -> bool {
    inst.gate.is_unitary() && !inst.gate.is_directive() && inst.gate != Gate::Id
}

/// The dry walk's view of one instruction, `(error probability, operand
/// count)`, without the statevector kernel [`NoisySimulator::decode_step`]
/// builds beside it — all the stabilizer backend reads of a step.
pub(crate) fn step_noise(inst: &Instruction, snapshot: &CalibrationSnapshot) -> (f64, usize) {
    let error_prob = if noise_eligible(inst) {
        gate_error(inst, snapshot)
    } else {
        0.0
    };
    (error_prob, inst.qubits.len())
}

/// The dry walk of a state-independent trajectory: one uniform per noisy
/// step plus one Pauli-word draw per fired error — exactly the draw
/// sequence of the full run — recorded as `(step, word)` in the
/// caller-owned `events` (cleared first). `steps` yields each step's
/// `(error probability, operand count)`.
pub(crate) fn dry_walk(
    rng: &mut StdRng,
    steps: impl Iterator<Item = (f64, usize)>,
    events: &mut Vec<(usize, usize)>,
) {
    events.clear();
    for (i, (error_prob, operands)) in steps.enumerate() {
        if error_prob > 0.0 && rng.gen_range(0.0..1.0) < error_prob {
            events.push((i, draw_pauli_word(rng, operands)));
        }
    }
}

/// The calibrated error probability of one instruction.
fn gate_error(inst: &Instruction, snapshot: &CalibrationSnapshot) -> f64 {
    if inst.gate.is_two_qubit() {
        let (a, b) = (inst.qubits[0].index(), inst.qubits[1].index());
        let edge = snapshot.edge(a, b).map_or_else(
            // Uncoupled pair (e.g. pre-routing circuit): charge the average.
            || snapshot.avg_cx_error(),
            |e| e.cx_error,
        );
        // A swap is three CX applications.
        if inst.gate == Gate::Swap {
            1.0 - (1.0 - edge).powi(3)
        } else {
            edge
        }
    } else {
        snapshot.qubit(inst.qubits[0].index()).single_qubit_error
    }
}

/// Apply a uniformly random non-identity Pauli word on the given qubits.
fn inject_pauli(
    state: &mut Statevector,
    qubits: &[Qubit],
    rng: &mut StdRng,
) -> Result<(), SimError> {
    let word = draw_pauli_word(rng, qubits.len());
    apply_pauli_word(state, qubits, word)
}

/// Draw a uniformly random non-identity Pauli word on `k` qubits (two
/// bits per qubit, at least one nonzero): one `gen_range` draw, split out
/// of [`inject_pauli`] so the skip-ahead dry walk can consume it at the
/// reference stream position and apply it later.
pub(crate) fn draw_pauli_word(rng: &mut StdRng, k: usize) -> usize {
    // For k qubits there are 4^k - 1 non-identity words.
    let choices = 4usize.pow(k as u32) - 1;
    rng.gen_range(1..=choices)
}

/// The kernels of a pre-drawn Pauli word (see [`draw_pauli_word`]): two
/// bits per operand, identity factors skipped — the same X / Y / Z
/// kernels [`fusion::instruction_kernel`] decodes those gates to. Shared
/// with the sparse backend.
pub(crate) fn pauli_word_kernels(qubits: &[Qubit], word: usize) -> impl Iterator<Item = Kernel> + '_ {
    qubits.iter().enumerate().filter_map(move |(i, q)| {
        let q = q.index();
        match (word >> (2 * i)) & 3 {
            0 => None,
            1 => Some(Kernel::X(q)),
            2 => Some(Kernel::Mat1(q, matrices::y())),
            _ => Some(Kernel::Phase1(q, Complex::real(-1.0))),
        }
    })
}

/// Apply a pre-drawn Pauli word (see [`draw_pauli_word`]).
fn apply_pauli_word(state: &mut Statevector, qubits: &[Qubit], word: usize) -> Result<(), SimError> {
    pauli_word_kernels(qubits, word).try_for_each(|kernel| state.apply_kernel(&kernel))
}

/// The `(qubit, clbit)` pairs of final measurements (later measurements of
/// the same qubit override earlier ones).
#[must_use]
pub fn measurement_map(circuit: &Circuit) -> Vec<(usize, usize)> {
    let mut map: Vec<(usize, usize)> = Vec::new();
    for inst in circuit.instructions() {
        if inst.gate == Gate::Measure {
            let q = inst.qubits[0].index();
            let c = inst.clbits[0].index();
            map.retain(|&(mq, _)| mq != q);
            map.push((q, c));
        }
    }
    map.sort_unstable();
    map
}

/// Width of the classical word actually used by a measurement map: one
/// past the highest measured clbit (minimum 1).
#[must_use]
pub fn used_clbit_width(measure_map: &[(usize, usize)]) -> usize {
    measure_map.iter().map(|&(_, c)| c + 1).max().unwrap_or(1)
}

/// [`used_clbit_width`] over readout-annotated entries.
pub(crate) fn used_clbit_width_of_entries(entries: &[ReadoutEntry]) -> usize {
    entries.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(1)
}

/// The exact clbit-word distribution of `circuit` under noiseless
/// execution (unitary evolution + measurement map, no sampling). The
/// distribution is indexed by clbit word and sized by the highest clbit
/// actually measured.
///
/// # Errors
///
/// Returns [`SimError`] for oversized or unsupported circuits, including
/// measurement maps spanning more clbits than
/// [`DENSE_DISTRIBUTION_MAX_WIDTH`].
pub fn clbit_distribution(circuit: &Circuit) -> Result<Vec<f64>, SimError> {
    let state = Statevector::from_circuit(circuit)?;
    let map = measurement_map(circuit);
    let width = used_clbit_width(&map);
    // This is a classical-register limit on the size of the returned
    // dense `2^width` distribution array — deliberately its own constant,
    // not the dense backend's qubit cap, even though the values coincide.
    if width > DENSE_DISTRIBUTION_MAX_WIDTH {
        return Err(SimError::TooManyClbits { requested: width });
    }
    let mut probs = Vec::new();
    state.probabilities_into(&mut probs);
    let mut dist = vec![0.0f64; 1 << width];
    for (basis, &p) in probs.iter().enumerate() {
        let mut word = 0u64;
        for &(q, c) in &map {
            word |= (((basis >> q) & 1) as u64) << c;
        }
        dist[word as usize] += p;
    }
    Ok(dist)
}

/// Probability of success against a known ideal outcome: the fraction of
/// shots that produced exactly `ideal_outcome` (paper Fig 7's POS).
#[must_use]
pub fn probability_of_success(counts: &Counts, ideal_outcome: u64) -> f64 {
    counts.frequency(ideal_outcome)
}

/// Build the QFT fidelity benchmark used for Fig 7: prepare |+...+> with a
/// layer of Hadamards, apply the inverse QFT (which maps it to |0...0>),
/// and measure. Ideal outcome: the all-zeros word.
#[must_use]
pub fn qft_pos_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n).named(format!("qft_pos_{n}"));
    for q in 0..n {
        c.h(q);
    }
    let inverse = qcs_circuit::library::qft(n).inverse();
    c.extend_from(&inverse)
        .expect("inverse QFT fits the same register");
    c.measure_all();
    c
}

/// Build the Clifford fidelity benchmark for full-fleet POS runs (Fig 7
/// on machines beyond the dense backend): a GHZ "echo" — entangle the
/// whole register into a GHZ state through a CX chain, flip every qubit
/// (the GHZ state is an exact fixed point of `X⊗…⊗X`, and the layer
/// keeps the transpiler's peephole pass from cancelling the echo while
/// charging every qubit's single-qubit error), then un-compute — so the
/// ideal outcome is deterministically the all-zeros word, every gate is
/// Clifford (the stabilizer backend runs it at any width), and the CX
/// count scales with machine size like the paper's benchmark families.
/// Measures the first `min(n, 64)` qubits: one outcome word is 64 bits
/// (see [`crate::backend::MAX_CLBITS`]), which the 65q Manhattan would
/// otherwise overflow.
#[must_use]
pub fn clifford_pos_circuit(n: usize) -> Circuit {
    assert!(n > 0, "circuit needs at least one qubit");
    let measured = n.min(crate::backend::MAX_CLBITS);
    let mut c = Circuit::with_clbits(n, measured).named(format!("clifford_pos_{n}"));
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    for q in 0..n {
        c.x(q);
    }
    for q in (1..n).rev() {
        c.cx(q - 1, q);
    }
    c.h(0);
    for q in 0..measured {
        c.measure(q, q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::NoiseProfile;
    use qcs_topology::families;

    fn noiseless_snapshot(n: usize) -> CalibrationSnapshot {
        let profile = NoiseProfile {
            mean_1q_error: 1e-6,
            mean_cx_error: 1e-6,
            mean_readout_error: 1e-6,
            temporal_cov: 0.0,
            spatial_cov_cx: 0.0,
            spatial_cov_coherence: 0.0,
            ..NoiseProfile::with_seed(0)
        };
        profile.snapshot(&families::complete(n.max(2)), 0)
    }

    fn noisy_snapshot(n: usize, scale: f64) -> CalibrationSnapshot {
        NoiseProfile::with_seed(1)
            .scaled_errors(scale)
            .snapshot(&families::complete(n.max(2)), 0)
    }

    #[test]
    fn qft_pos_circuit_is_deterministic_ideally() {
        let c = qft_pos_circuit(3);
        let dist = clbit_distribution(&c).unwrap();
        assert!((dist[0] - 1.0).abs() < 1e-9, "dist {dist:?}");
    }

    #[test]
    fn noiseless_run_gives_full_pos() {
        let c = qft_pos_circuit(3);
        let sim = NoisySimulator::with_seed(7);
        let counts = sim.run(&c, &noiseless_snapshot(3), 2048).unwrap();
        assert_eq!(counts.total(), 2048);
        assert!(probability_of_success(&counts, 0) > 0.99);
    }

    #[test]
    fn noise_reduces_pos() {
        let c = qft_pos_circuit(4);
        let sim = NoisySimulator::with_seed(7);
        let clean = sim.run(&c, &noiseless_snapshot(4), 2048).unwrap();
        let noisy = sim.run(&c, &noisy_snapshot(4, 3.0), 2048).unwrap();
        let pos_clean = probability_of_success(&clean, 0);
        let pos_noisy = probability_of_success(&noisy, 0);
        assert!(
            pos_noisy < pos_clean - 0.05,
            "clean {pos_clean} noisy {pos_noisy}"
        );
    }

    #[test]
    fn more_noise_lower_pos() {
        let c = qft_pos_circuit(4);
        let sim = NoisySimulator::with_seed(3);
        let mild = sim.run(&c, &noisy_snapshot(4, 1.0), 4096).unwrap();
        let harsh = sim.run(&c, &noisy_snapshot(4, 6.0), 4096).unwrap();
        assert!(
            probability_of_success(&harsh, 0) < probability_of_success(&mild, 0),
        );
    }

    #[test]
    fn readout_error_flips_bits() {
        // Pure readout noise on an identity circuit.
        let mut c = Circuit::new(2);
        c.measure_all();
        let profile = NoiseProfile {
            mean_1q_error: 1e-9,
            mean_cx_error: 1e-9,
            mean_readout_error: 0.25,
            temporal_cov: 0.0,
            spatial_cov_cx: 0.0,
            spatial_cov_coherence: 0.0,
            ..NoiseProfile::with_seed(0)
        };
        let snap = profile.snapshot(&families::complete(2), 0);
        let counts = NoisySimulator::with_seed(1).run(&c, &snap, 8192).unwrap();
        let pos = probability_of_success(&counts, 0);
        // Expect ~(1-0.25)^2 = 0.5625.
        assert!((pos - 0.5625).abs() < 0.05, "pos {pos}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = qft_pos_circuit(3);
        let snap = noisy_snapshot(3, 2.0);
        let a = NoisySimulator::with_seed(9).run(&c, &snap, 512).unwrap();
        let b = NoisySimulator::with_seed(9).run(&c, &snap, 512).unwrap();
        assert_eq!(a, b);
        let c2 = NoisySimulator::with_seed(10).run(&c, &snap, 512).unwrap();
        assert_ne!(a, c2);
    }

    #[test]
    fn decoherence_reduces_pos() {
        let c = qft_pos_circuit(4);
        let snap = noisy_snapshot(4, 1.0);
        let plain = NoisySimulator::with_seed(3).run(&c, &snap, 4096).unwrap();
        let decohering = NoisySimulator::with_seed(3)
            .with_decoherence()
            .run(&c, &snap, 4096)
            .unwrap();
        let pos_plain = probability_of_success(&plain, 0);
        let pos_deco = probability_of_success(&decohering, 0);
        assert!(
            pos_deco < pos_plain,
            "decoherence should hurt: {pos_deco} vs {pos_plain}"
        );
    }

    #[test]
    fn decoherence_negligible_for_long_coherence() {
        // T1/T2 of seconds: decoherence must be invisible.
        let profile = NoiseProfile {
            mean_t1_us: 1e9,
            mean_t2_us: 1e9,
            mean_1q_error: 1e-9,
            mean_cx_error: 1e-9,
            mean_readout_error: 1e-9,
            temporal_cov: 0.0,
            spatial_cov_cx: 0.0,
            spatial_cov_coherence: 0.0,
            ..NoiseProfile::with_seed(0)
        };
        let snap = profile.snapshot(&families::complete(3), 0);
        let c = qft_pos_circuit(3);
        let counts = NoisySimulator::with_seed(1)
            .with_decoherence()
            .run(&c, &snap, 2048)
            .unwrap();
        assert!(probability_of_success(&counts, 0) > 0.99);
    }

    #[test]
    fn measurement_map_last_wins() {
        let mut c = Circuit::new(2);
        c.measure(0, 0).measure(0, 1);
        assert_eq!(measurement_map(&c), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "shots must be positive")]
    fn zero_shots_rejected() {
        let c = qft_pos_circuit(2);
        let _ = NoisySimulator::default().run(&c, &noiseless_snapshot(2), 0);
    }

    #[test]
    fn counts_invariant_under_thread_count() {
        // The determinism guarantee of the execution engine: same seed +
        // same circuit => bit-identical Counts at 1, 2, and 8 threads.
        let c = qft_pos_circuit(4);
        let snap = noisy_snapshot(4, 2.0);
        let sim = NoisySimulator {
            trajectories: 16,
            seed: 5,
            ..NoisySimulator::default()
        };
        let reference = sim.with_threads(1).run(&c, &snap, 4096).unwrap();
        for threads in [2, 8] {
            let counts = sim.with_threads(threads).run(&c, &snap, 4096).unwrap();
            assert_eq!(reference, counts, "diverged at {threads} threads");
        }
    }

    #[test]
    fn pauli_word_kernels_are_the_decoded_gates() {
        // The injected kernels are exactly what the gate table decodes
        // X / Y / Z to, identity factors skipped.
        let qubits = [Qubit(3), Qubit(0)];
        for word in 1..16usize {
            let expected: Vec<Kernel> = qubits
                .iter()
                .enumerate()
                .filter_map(|(i, &q)| {
                    let gate = [None, Some(Gate::X), Some(Gate::Y), Some(Gate::Z)][(word >> (2 * i)) & 3]?;
                    Some(fusion::instruction_kernel(&Instruction::gate(gate, &[q])))
                })
                .collect();
            assert_eq!(pauli_word_kernels(&qubits, word).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn clbit_beyond_the_outcome_word_is_a_typed_error_on_every_path() {
        // Every shot loop shifts by the clbit index (`<< 65` would wrap
        // to `<< 1` in release and panic in debug), so all five entry
        // points must refuse before reaching one.
        use crate::{BackendChoice, BackendKind};
        let mut c = Circuit::with_clbits(2, 70);
        c.x(0).measure(0, 65).measure(1, 3);
        let snap = noisy_snapshot(2, 1.0);
        let sim = NoisySimulator::with_seed(1);
        let too_wide = Err(SimError::TooManyClbits { requested: 66 });
        assert_eq!(sim.run(&c, &snap, 64), too_wide);
        for kind in [BackendKind::Dense, BackendKind::Stabilizer, BackendKind::Sparse] {
            let forced = sim.with_backend(BackendChoice::Force(kind));
            assert_eq!(forced.run(&c, &snap, 64), too_wide, "{kind}");
        }
        assert_eq!(sim.run_reference(&c, &snap, 64), too_wide);
        // Clbit 63 is the last one that fits.
        let mut c = Circuit::with_clbits(2, 64);
        c.x(0).measure(0, 63).measure(1, 3);
        let counts = sim.run(&c, &snap, 64).unwrap();
        assert_eq!(counts.width(), 64);
        assert_eq!(sim.run_reference(&c, &snap, 64).unwrap(), counts);
    }

    #[test]
    fn optimized_path_matches_reference_bit_for_bit() {
        // The load-bearing regression: pre-decoded kernels + skip-ahead +
        // buffer reuse must not change a single observable bit vs the
        // pre-optimization path, at several noise scales and thread counts.
        let c = qft_pos_circuit(5);
        for scale in [0.01, 0.3, 1.0, 4.0] {
            let snap = noisy_snapshot(5, scale);
            for trajectories in [1, 8, 32] {
                let sim = NoisySimulator {
                    trajectories,
                    seed: 11,
                    ..NoisySimulator::default()
                };
                let reference = sim.with_threads(1).run_reference(&c, &snap, 2048).unwrap();
                for threads in [1, 3, 8] {
                    let optimized = sim.with_threads(threads).run(&c, &snap, 2048).unwrap();
                    assert_eq!(
                        reference, optimized,
                        "diverged at scale {scale}, {trajectories} trajectories, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_path_matches_reference_with_decoherence() {
        // Decoherence disables skip-ahead; the step-stream path must still
        // be draw-for-draw identical to the instruction walk, at the
        // paper's width and at one well past it.
        for n in [4, 10] {
            let c = qft_pos_circuit(n);
            let snap = noisy_snapshot(n, 1.5);
            let sim = NoisySimulator {
                trajectories: 12,
                seed: 23,
                ..NoisySimulator::default()
            }
            .with_decoherence();
            let reference = sim.with_threads(1).run_reference(&c, &snap, 1024).unwrap();
            for threads in [1, 4] {
                let optimized = sim.with_threads(threads).run(&c, &snap, 1024).unwrap();
                assert_eq!(reference, optimized, "decoherence path diverged at {n}q");
            }
        }
    }

    #[test]
    fn optimized_path_matches_reference_with_reset() {
        // Mid-circuit reset draws from the state: skip-ahead must stand
        // down and still match the reference bit-for-bit.
        let mut narrow = Circuit::with_clbits(3, 3);
        narrow.h(0).cx(0, 1).apply(Gate::Reset, &[1]).h(1).cx(1, 2);
        // Ten qubits: the reset qubit is entangled with the whole
        // register both times it collapses.
        let mut wide = Circuit::with_clbits(10, 10);
        wide.h(0);
        for q in 1..10 {
            wide.cx(0, q);
        }
        wide.apply(Gate::Reset, &[4]).h(4);
        for q in 0..10 {
            wide.ry(0.3 + q as f64, q).cx(q, (q + 1) % 10);
        }
        wide.apply(Gate::Reset, &[4]);
        for mut c in [narrow, wide] {
            c.measure_all();
            let n = c.num_qubits();
            let snap = noisy_snapshot(n, 2.0);
            let sim = NoisySimulator {
                trajectories: 8,
                seed: 31,
                ..NoisySimulator::default()
            };
            let reference = sim.run_reference(&c, &snap, 512).unwrap();
            let optimized = sim.run(&c, &snap, 512).unwrap();
            assert_eq!(reference, optimized, "reset path diverged at {n}q");
        }
    }

    #[test]
    fn uniform_threshold_is_exact() {
        // k < threshold must agree with the float comparison
        // k * 2^-53 < p for every k, including at the boundary.
        let mut rng = StdRng::seed_from_u64(17);
        let mut checked = 0u32;
        for _ in 0..2000 {
            let p: f64 = rng.gen_range(0.0..1.0) * rng.gen_range(0.0..1.0);
            let threshold = uniform_threshold(p);
            let boundary = (p * UNIFORM_SCALE) as u64;
            for k in boundary.saturating_sub(2)..=(boundary + 2).min((1 << 53) - 1) {
                let float_side = (k as f64) * (1.0 / UNIFORM_SCALE) < p;
                assert_eq!(k < threshold, float_side, "p={p}, k={k}");
                checked += 1;
            }
        }
        assert!(checked > 0);
        assert_eq!(uniform_threshold(0.0), 0);
        assert_eq!(uniform_threshold(1.0), 1 << 53);
    }

    #[test]
    fn wide_register_matches_reference() {
        // A clbit far above the qubit count: the word lands at bit 16 of
        // a 17-clbit register and must still match the reference.
        let mut c = Circuit::with_clbits(2, 17);
        c.h(0).cx(0, 1);
        c.measure(0, 16).measure(1, 3);
        let snap = noisy_snapshot(2, 2.0);
        let sim = NoisySimulator {
            trajectories: 4,
            seed: 13,
            ..NoisySimulator::default()
        };
        let reference = sim.run_reference(&c, &snap, 512).unwrap();
        let optimized = sim.run(&c, &snap, 512).unwrap();
        assert_eq!(reference, optimized, "wide-register path diverged");
        assert_eq!(optimized.width(), 17);
    }

    fn decoded_steps(c: &Circuit, snap: &CalibrationSnapshot) -> Vec<TrajStep> {
        let sim = NoisySimulator::with_seed(0);
        c.instructions()
            .iter()
            .map(|inst| sim.decode_step(inst, snap))
            .collect()
    }

    /// The per-step oracle: `apply_kernel` folded over `steps`.
    fn oracle_prefix(num_qubits: usize, steps: &[TrajStep]) -> Statevector {
        let mut state = Statevector::zero(num_qubits).unwrap();
        for step in steps {
            state.apply_kernel(&step.kernel).unwrap();
        }
        state
    }

    fn materialised(num_qubits: usize, snapshot: &FrameSnapshot) -> Statevector {
        FrameState::restore_in(num_qubits, Vec::new(), snapshot).into_statevector()
    }

    #[test]
    fn prefix_checkpoints_restore_the_exact_ideal_prefix() {
        // Every restore point, materialised, must equal the amplitudes a
        // fresh per-step evolution reaches at the same instruction count.
        let c = qft_pos_circuit(4);
        let steps = decoded_steps(&c, &noisy_snapshot(4, 1.0));
        let (prefix, ideal) = PrefixCheckpoints::build(4, &steps).unwrap();
        assert!(
            !prefix.snapshots.is_empty(),
            "a {} instruction circuit should checkpoint",
            steps.len()
        );
        for upto in 0..=steps.len() {
            let (applied, snapshot) = match prefix.restore_point(upto) {
                Some(point) => point,
                None => continue,
            };
            assert!(applied <= upto, "restore point overshot {upto}");
            assert_eq!(
                materialised(4, snapshot),
                oracle_prefix(4, &steps[..applied]),
                "snapshot at {applied} diverged"
            );
        }
        // The final state of the build pass is the full ideal evolution.
        assert_eq!(ideal.into_statevector(), oracle_prefix(4, &steps));
    }

    #[test]
    fn snapshot_between_a_diagonal_and_the_next_mat1_replays_exactly() {
        // A snapshot taken with diagonals still pending would restore
        // without them: stride 1 puts a restore point after every step,
        // in particular between `rz` / `t` and the `h` whose interference
        // makes their phase visible in the probabilities. Restore ->
        // replay -> read must equal an uninterrupted run.
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).rz(0.7, 1).h(1).cx(1, 2).t(0).h(0);
        let steps = decoded_steps(&c, &noisy_snapshot(3, 1.0));
        let (prefix, mut ideal) = PrefixCheckpoints::build(3, &steps).unwrap();
        assert_eq!(prefix.stride, 1, "an 8-step circuit fits the snapshot budget");
        let mut expected = Vec::new();
        ideal.probabilities_into(&mut expected);
        let mut oracle = Vec::new();
        oracle_prefix(3, &steps).probabilities_into(&mut oracle);
        assert_eq!(expected, oracle);
        for upto in 1..steps.len() {
            let (applied, snapshot) = prefix.restore_point(upto).expect("stride 1");
            assert_eq!(applied, upto);
            let mut state = FrameState::restore_in(3, Vec::new(), snapshot);
            state
                .run(steps[applied..].iter().map(|step| &step.kernel))
                .unwrap();
            let mut probs = Vec::new();
            state.probabilities_into(&mut probs);
            assert_eq!(probs, expected, "replay from {applied} diverged");
        }
    }

    #[test]
    fn heavy_noise_exercises_multi_event_replay() {
        // At scale 8 nearly every trajectory has several events, so the
        // checkpoint-restore path replays across multiple segments; it
        // must stay bit-identical to the reference.
        let c = qft_pos_circuit(6);
        let snap = noisy_snapshot(6, 8.0);
        let sim = NoisySimulator {
            trajectories: 24,
            seed: 19,
            ..NoisySimulator::default()
        };
        let reference = sim.with_threads(1).run_reference(&c, &snap, 2048).unwrap();
        for threads in [1, 4] {
            let optimized = sim.with_threads(threads).run(&c, &snap, 2048).unwrap();
            assert_eq!(reference, optimized, "multi-event replay diverged");
        }
    }

    #[test]
    fn shots_distributed_across_trajectories() {
        let c = qft_pos_circuit(2);
        let sim = NoisySimulator {
            trajectories: 7,
            ..NoisySimulator::default()
        };
        let counts = sim.run(&c, &noiseless_snapshot(2), 100).unwrap();
        assert_eq!(counts.total(), 100);
    }
}
