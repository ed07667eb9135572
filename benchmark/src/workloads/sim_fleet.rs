//! `sim_fleet`: noisy simulation of circuits compiled during set-up, so the
//! measured trip is `NoisySimulator::run` alone: Fig 7's 4q QFT
//! probability-of-success benchmark with decoherence, the full-width
//! Clifford echo on every machine (dense to 16q, tableau beyond 24q), and a
//! 10q noisy QFT on the machines of 16 qubits and more, whose routed region
//! spans 10-15 qubits.
//!
//! The calibration epoch is fixed, not drawn from the seed: the same QFT
//! routes over 12 qubits under one calibration and 17 under another, a
//! 30-fold difference in dense work that would drown every timing. The seed
//! picks the Monte-Carlo streams, and every group runs enough trajectories
//! (a trajectory's cost depends on where its first error falls) for their
//! sum to be steady from seed to seed.

use std::hint::black_box;
use std::time::Instant;

use qcs_calibration::CalibrationSnapshot;
use qcs_circuit::Circuit;
use qcs_machine::{Fleet, Machine};
use qcs_sim::{
    clifford_pos_circuit, qft_pos_circuit, BackendChoice, BackendKind, CompiledCircuit, Counts,
    NoisySimulator, SvExec, SPARSE_MAX_QUBITS,
};
use qcs_transpiler::{transpile, Target, TranspileOptions};

use super::{ns_u32, Scale, UnitOutcome, Workload};
use crate::measure::{mean_ns, median, Digest, InputRng};
use crate::spec::Layers;
use crate::trace::Tracer;

const SHOTS: u32 = 1024;
/// Noon of day 100: mid-cycle for every machine's calibration schedule.
const T_HOURS: f64 = 100.0 * 24.0 + 12.0;
/// Width of the large noisy QFT, and the least machine it is compiled for.
const LARGE_WIDTH: usize = 10;
const LARGE_MIN_MACHINE: usize = 16;
/// Pauli trajectories of a large run; the others keep the default 128.
const LARGE_TRAJECTORIES: usize = 32;
/// Pauli trajectories of a warm-up run: enough to touch every buffer a
/// measured run will. At full count the warm-up of the large runs would
/// make a set-up cost what a unit does, and as seed-dependent.
const WARMUP_TRAJECTORIES: usize = 4;
/// Independent repetitions (simulator seeds) of each run, sized so that a
/// unit spends about a quarter in the small dense runs, a quarter on the
/// tableau, and half in wide dense kernels (the 15q and 16q echoes and the
/// large QFTs).
const SMALL_REPEATS: [usize; 2] = [12, 1];
const TABLEAU_REPEATS: [usize; 2] = [4, 1];
const LARGE_REPEATS: [usize; 2] = [1, 0];

/// One prepared simulation: a compacted compiled circuit, the calibration
/// of the region it touches, and the simulator configured for it.
struct Job {
    layer: &'static str,
    circuit: Circuit,
    snapshot: CalibrationSnapshot,
    simulator: NoisySimulator,
    repeats: usize,
}

pub struct SimFleet {
    jobs: Vec<Job>,
}

/// One amplitude-block worker: the process is pinned to one CPU.
fn one_thread(simulator: NoisySimulator) -> NoisySimulator {
    simulator
        .with_threads(1)
        .with_sv(SvExec::auto().with_threads(1))
}

fn prepare(
    layer: &'static str,
    circuit: &Circuit,
    machine: &Machine,
    simulator: NoisySimulator,
    repeats: usize,
) -> Job {
    let target = Target::from_machine(machine, T_HOURS);
    let compiled = transpile(circuit, &target, TranspileOptions::full())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", circuit.name(), machine.name()));
    let (compact, region) = compiled.circuit.compacted();
    Job {
        layer,
        snapshot: target.snapshot().restricted(&region),
        circuit: compact,
        simulator: one_thread(simulator),
        repeats,
    }
}

fn jobs(seed: u64, scale: Scale) -> Vec<Job> {
    let fleet = Fleet::ibm_like();
    let sim_seed = InputRng::new(seed, 0x7369_6d66).next_u64();
    let mut jobs = Vec::new();
    for machine in fleet.iter() {
        if machine.num_qubits() >= 4 {
            jobs.push(prepare(
                "sim.small_dense",
                &qft_pos_circuit(4),
                machine,
                NoisySimulator::with_seed(sim_seed).with_decoherence(),
                scale.of(SMALL_REPEATS),
            ));
        }
        let mut echo = prepare(
            "sim.echo_dense",
            &clifford_pos_circuit(machine.num_qubits()),
            machine,
            NoisySimulator::with_seed(sim_seed),
            1,
        );
        if echo.simulator.planned_backend(&echo.circuit) == Ok(BackendKind::Stabilizer) {
            echo.layer = "sim.echo_tableau";
            echo.repeats = scale.of(TABLEAU_REPEATS);
        }
        jobs.push(echo);
        if machine.num_qubits() >= LARGE_MIN_MACHINE {
            let simulator = NoisySimulator {
                trajectories: LARGE_TRAJECTORIES,
                ..NoisySimulator::with_seed(sim_seed)
            };
            jobs.push(prepare(
                "sim.large_dense",
                &qft_pos_circuit(LARGE_WIDTH),
                machine,
                simulator,
                scale.of(LARGE_REPEATS),
            ));
        }
    }
    jobs.retain(|job| job.repeats > 0);
    jobs
}

/// Fold a histogram into `digest` in outcome order (the map's own order
/// differs from run to run).
fn digest_counts(digest: &mut Digest, counts: &Counts) {
    let mut entries: Vec<(u64, u64)> = counts.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    for (outcome, n) in entries {
        digest.word(outcome).word(n);
    }
}

fn run(jobs: &[Job], tracer: &mut Tracer) -> UnitOutcome {
    let mut out = UnitOutcome::default();
    let mut digest = Digest::new();
    for job in jobs {
        for repeat in 0..job.repeats {
            let simulator = NoisySimulator {
                seed: job.simulator.seed.wrapping_add(repeat as u64),
                ..job.simulator
            };
            let started = Instant::now();
            let counts = tracer.span(job.layer, |_| {
                simulator.run(&job.circuit, &job.snapshot, SHOTS)
            });
            out.op_ns.push(ns_u32(started.elapsed()));
            out.ops += 1;
            match counts {
                Ok(counts) if counts.total() == u64::from(SHOTS) => {
                    digest_counts(&mut digest, &counts);
                }
                Ok(counts) => {
                    out.failed += 1;
                    out.notes.push(format!(
                        "{}: {} of {SHOTS} shots counted",
                        job.circuit.name(),
                        counts.total()
                    ));
                }
                Err(error) => {
                    out.failed += 1;
                    out.notes.push(format!("{}: {error}", job.circuit.name()));
                }
            }
        }
    }
    out.digest = Some(digest.hex());
    out
}

impl Workload for SimFleet {
    const NAME: &'static str = "sim_fleet";
    const OP: &'static str = "circuit: one noisy run of 1024 shots";

    fn config_digest(scale: Scale) -> String {
        let mut digest = Digest::new();
        digest
            .text(Self::NAME)
            .word(u64::from(SHOTS))
            .word(LARGE_TRAJECTORIES as u64)
            .word(WARMUP_TRAJECTORIES as u64)
            .word(scale.of(SMALL_REPEATS) as u64)
            .word(scale.of(TABLEAU_REPEATS) as u64)
            .word(scale.of(LARGE_REPEATS) as u64)
            .word(LARGE_WIDTH as u64)
            .word(LARGE_MIN_MACHINE as u64)
            .float(T_HOURS);
        digest.hex()
    }

    fn setup(seed: u64, scale: Scale) -> Self {
        let jobs = jobs(seed, scale);
        // Warm-up: every prepared job once, on few trajectories.
        for job in &jobs {
            let warm = NoisySimulator {
                trajectories: WARMUP_TRAJECTORIES,
                ..job.simulator
            };
            black_box(warm.run(&job.circuit, &job.snapshot, SHOTS).is_ok());
        }
        SimFleet { jobs }
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        run(&self.jobs, tracer)
    }
}

/// Layer probes of the circuit trip: dispatch profile, kernel compile, the
/// dense kernels per amplitude, one run on each backend, and the shot loop.
pub fn probe(seed: u64, scale: Scale, layers: &mut Layers) {
    let jobs = jobs(seed, Scale::Full);
    let by_layer = |layer: &'static str| jobs.iter().filter(move |job| job.layer == layer);
    let run_once = |job: &Job, simulator: &NoisySimulator, shots: u32| {
        black_box(
            simulator
                .run(&job.circuit, &job.snapshot, shots)
                .expect("probe run"),
        );
    };
    let iters = scale.of([20, 3]);

    let mut planned = [0usize; 3];
    let started = Instant::now();
    for job in &jobs {
        let kind = job
            .simulator
            .planned_backend(&job.circuit)
            .expect("every job has a backend");
        planned[match kind {
            BackendKind::Dense => 0,
            BackendKind::Stabilizer => 1,
            BackendKind::Sparse => 2,
        }] += 1;
    }
    layers.set(
        "sim.profile_us",
        started.elapsed().as_nanos() as f64 / jobs.len() as f64 / 1e3,
    );
    layers.set("sim.backend_dense_n", planned[0] as f64);
    layers.set("sim.backend_tableau_n", planned[1] as f64);
    layers.set("sim.backend_sparse_n", planned[2] as f64);

    // The widest dense job: the large QFT whose routed region is largest.
    let large = by_layer("sim.large_dense")
        .max_by_key(|job| job.circuit.num_qubits())
        .expect("the fleet has a machine for the large QFT");
    layers.set(
        "sim.compile_us",
        mean_ns(iters, || {
            black_box(CompiledCircuit::compile(&large.circuit));
        }) / 1e3,
    );
    let compiled = CompiledCircuit::compile(&large.circuit);
    let exec = SvExec::auto().with_threads(1);
    let amp_kernels = (1u64 << compiled.num_qubits()) as f64 * compiled.kernels().len() as f64;
    layers.set(
        "sim.dense_ns_per_amp_kernel",
        mean_ns(iters, || {
            black_box(compiled.execute_with(&exec).expect("the region fits dense"));
        }) / amp_kernels,
    );
    layers.set(
        "sim.dense_large_run_ms",
        mean_ns(iters.div_ceil(4), || {
            run_once(large, &large.simulator, SHOTS)
        }) / 1e6,
    );

    // Small dense: the median machine's 4q QFT POS run.
    let small: Vec<f64> = by_layer("sim.small_dense")
        .map(|job| mean_ns(iters, || run_once(job, &job.simulator, SHOTS)) / 1e3)
        .collect();
    layers.set("sim.dense_small_run_us", median(&small));

    // Shot loop: the marginal cost of a shot on a small dense run.
    let first = by_layer("sim.small_dense")
        .next()
        .expect("a 5q machine exists");
    let few = mean_ns(iters * 4, || run_once(first, &first.simulator, SHOTS));
    let many = mean_ns(iters * 4, || run_once(first, &first.simulator, 8 * SHOTS));
    layers.set(
        "sim.sample_ns_per_shot",
        (many - few).max(0.0) / f64::from(7 * SHOTS),
    );

    // Tableau: the widest echo. Sparse: the widest echo it can hold (64
    // qubits), engine forced.
    let wide = by_layer("sim.echo_tableau")
        .max_by_key(|job| job.circuit.num_qubits())
        .expect("the fleet has machines beyond dense reach");
    layers.set(
        "sim.tableau_run_us",
        mean_ns(iters, || run_once(wide, &wide.simulator, SHOTS)) / 1e3,
    );
    let held = by_layer("sim.echo_tableau")
        .filter(|job| job.circuit.num_qubits() <= SPARSE_MAX_QUBITS)
        .max_by_key(|job| job.circuit.num_qubits())
        .expect("the fleet has 27q machines");
    let sparse = held
        .simulator
        .with_backend(BackendChoice::Force(BackendKind::Sparse));
    layers.set(
        "sim.sparse_run_us",
        mean_ns(iters, || run_once(held, &sparse, SHOTS)) / 1e3,
    );
}
