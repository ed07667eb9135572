//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;

use qcs::circuit::{library, qasm, Circuit, CircuitMetrics, Gate};
use qcs::cloud::{
    reference, CloudConfig, Discipline, JobOutcome, JobQueue, JobRecord, JobSpec, OutagePlan,
    RecordSink, Simulation,
};
use qcs::machine::Fleet;
use qcs::sim::{clbit_distribution, equivalent_unitaries, CdfSampler, Statevector};
use qcs::stats;
use qcs::topology::{bisection_bandwidth, families, CouplingGraph};
use qcs::transpiler::{transpile, Target, TranspileOptions};

/// A random small circuit (≤ 5 qubits) built from a gate-op script.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let op = (0u8..8, 0usize..5, 0usize..5, -3.0f64..3.0);
    proptest::collection::vec(op, 1..40).prop_map(|ops| {
        let mut c = Circuit::new(5);
        for (kind, a, b, theta) in ops {
            let b = if b == a { (b + 1) % 5 } else { b };
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.x(a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 => {
                    c.ry(theta, a);
                }
                4 => {
                    c.cx(a, b);
                }
                5 => {
                    c.cz(a, b);
                }
                6 => {
                    c.cp(theta, a, b);
                }
                _ => {
                    c.swap(a, b);
                }
            }
        }
        c.measure_all();
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpile_preserves_distribution(circuit in arb_circuit(), seed in 0u64..1000) {
        let target = Target::uniform("falcon", families::ibm_falcon_27q(), seed);
        let original = clbit_distribution(&circuit).unwrap();
        let compiled = transpile(&circuit, &target, TranspileOptions::full()).unwrap();
        let (compact, _) = compiled.circuit.compacted();
        let output = clbit_distribution(&compact).unwrap();
        let l1: f64 = original
            .iter()
            .zip(&output)
            .map(|(a, b)| (a - b).abs())
            .sum();
        prop_assert!(l1 < 1e-6, "distribution moved by {}", l1);
    }

    #[test]
    fn statevector_stays_normalized(circuit in arb_circuit()) {
        let state = Statevector::from_circuit(&circuit).unwrap();
        prop_assert!((state.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_sampler_matches_linear_scan(circuit in arb_circuit(), seed in 0u64..1_000_000) {
        // The O(log n) CDF sampler must be bit-exact with the O(n)
        // linear-scan sampler on the same RNG stream: both consume one
        // uniform draw per shot and share the same prefix-sum rounding.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let state = Statevector::from_circuit(&circuit).unwrap();
        let sampler = CdfSampler::of(&state);
        let mut rng_cdf = StdRng::seed_from_u64(seed);
        let mut rng_scan = StdRng::seed_from_u64(seed);
        for shot in 0..64 {
            let fast = sampler.sample(&mut rng_cdf);
            let naive = state.sample(&mut rng_scan);
            prop_assert_eq!(fast, naive, "diverged at shot {}", shot);
        }
    }

    #[test]
    fn qasm_round_trip_preserves_metrics(circuit in arb_circuit()) {
        let text = qasm::to_qasm(&circuit);
        let back = qasm::from_qasm(&text).unwrap();
        let a = CircuitMetrics::of(&circuit);
        let b = CircuitMetrics::of(&back);
        prop_assert_eq!(a.total_gates, b.total_gates);
        prop_assert_eq!(a.cx_total, b.cx_total);
        prop_assert_eq!(a.depth, b.depth);
        prop_assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn inverse_restores_identity(circuit in arb_circuit()) {
        // circuit ; circuit^-1 maps |0..0> back to |0..0>.
        let mut round_trip = Circuit::new(5);
        for inst in circuit.instructions() {
            if inst.gate.is_unitary() && !inst.gate.is_directive() {
                round_trip.push(inst.clone());
            }
        }
        round_trip.extend_from(&circuit.inverse()).unwrap();
        let state = Statevector::from_circuit(&round_trip).unwrap();
        prop_assert!(state.probabilities()[0] > 1.0 - 1e-9);
    }

    #[test]
    fn optimization_preserves_distribution(circuit in arb_circuit()) {
        let optimized = qcs::transpiler::optimize::optimize(&circuit);
        let a = clbit_distribution(&circuit).unwrap();
        let b = clbit_distribution(&optimized).unwrap();
        let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        prop_assert!(l1 < 1e-9, "optimization moved distribution by {}", l1);
        prop_assert!(optimized.size() <= circuit.size());
    }

    #[test]
    fn depth_bounds(circuit in arb_circuit()) {
        let m = CircuitMetrics::of(&circuit);
        prop_assert!(m.cx_depth <= m.depth);
        prop_assert!(m.depth <= m.total_gates);
        prop_assert!(m.cx_depth <= m.cx_total);
        prop_assert!(m.active_qubits <= m.width);
    }

    #[test]
    fn quantiles_are_monotone(mut values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q25 = stats::quantile_sorted(&values, 0.25).unwrap();
        let q50 = stats::quantile_sorted(&values, 0.5).unwrap();
        let q75 = stats::quantile_sorted(&values, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert!(q25 >= values[0] && q75 <= values[values.len() - 1]);
    }

    #[test]
    fn pearson_bounded(
        x in proptest::collection::vec(-1e3f64..1e3, 3..100),
        shift in -10.0f64..10.0
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + shift).collect();
        let r = stats::pearson(&x, &y);
        prop_assert!(r <= 1.0 + 1e-12);
        // Perfect linear relation unless x is constant.
        let constant = x.iter().all(|&v| (v - x[0]).abs() < 1e-12);
        if !constant {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {}", r);
        }
    }

    #[test]
    fn bisection_bounded_by_edges(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..40)
    ) {
        let graph = CouplingGraph::from_edges(12, &edges);
        let bw = bisection_bandwidth(&graph);
        prop_assert!(bw <= graph.num_edges());
    }

    #[test]
    fn gate_inverse_involution(theta in -6.3f64..6.3) {
        for gate in [Gate::Rx(theta), Gate::Ry(theta), Gate::Rz(theta), Gate::Cp(theta)] {
            let inv = gate.inverse().unwrap();
            let back = inv.inverse().unwrap();
            prop_assert_eq!(gate, back);
        }
    }

    #[test]
    fn basis_translation_is_unitarily_equivalent(circuit in arb_circuit(), seed in 0u64..500) {
        // Stronger than distribution preservation: catches phase errors.
        let translated = qcs::transpiler::basis::translate_to_basis(&circuit);
        prop_assert!(
            equivalent_unitaries(&circuit, &translated, 3, seed).unwrap(),
            "basis translation changed the unitary"
        );
    }

    #[test]
    fn optimization_is_unitarily_equivalent(circuit in arb_circuit(), seed in 0u64..500) {
        let optimized = qcs::transpiler::optimize::optimize(&circuit);
        prop_assert!(
            equivalent_unitaries(&circuit, &optimized, 3, seed).unwrap(),
            "optimization changed the unitary"
        );
    }

    #[test]
    fn job_queues_conserve_jobs(
        providers in proptest::collection::vec(0u32..8, 1..60),
        discipline_pick in 0u8..3
    ) {
        let discipline = match discipline_pick {
            0 => Discipline::default(),
            1 => Discipline::Fifo,
            _ => Discipline::ShortestJobFirst,
        };
        let mut queue = JobQueue::new(discipline, 8);
        for (i, &p) in providers.iter().enumerate() {
            queue.push(
                JobSpec {
                    id: i as u64,
                    provider: p,
                    machine: 0,
                    circuits: 1 + (i as u32 % 50),
                    shots: 1024,
                    mean_depth: 10.0,
                    mean_width: 2.0,
                    submit_s: i as f64,
                    is_study: false,
                    patience_s: f64::INFINITY,
                },
                || (i % 17) as f64 + 1.0,
            );
        }
        prop_assert_eq!(queue.len(), providers.len());
        let mut seen = std::collections::HashSet::new();
        let mut now = providers.len() as f64;
        while let Some(job) = queue.pop(now) {
            queue.charge(job.provider, 10.0, now);
            prop_assert!(seen.insert(job.id), "job popped twice");
            now += 1.0;
        }
        prop_assert_eq!(seen.len(), providers.len());
        prop_assert!(queue.is_empty());
    }

    #[test]
    fn snapshot_restriction_preserves_values(
        subset_size in 1usize..6,
        seed in 0u64..100
    ) {
        use qcs::calibration::NoiseProfile;
        use qcs::topology::families;
        let graph = families::ibm_h_7q();
        let snap = NoiseProfile::with_seed(seed).snapshot(&graph, 0);
        let subset: Vec<usize> = (0..subset_size.min(7)).collect();
        let restricted = snap.restricted(&subset);
        for (new, &old) in subset.iter().enumerate() {
            prop_assert_eq!(restricted.qubit(new), snap.qubit(old));
        }
    }

    #[test]
    fn qft_metrics_formula(n in 2usize..10) {
        let c = library::qft(n);
        let m = CircuitMetrics::of(&c);
        prop_assert_eq!(m.cx_total, n * (n - 1) / 2 + n / 2);
        prop_assert_eq!(m.single_qubit_gates, n);
        prop_assert_eq!(m.measurements, n);
    }
}

proptest! {
    // The ISSUE 5 acceptance bar: >= 100 random circuits, each with its
    // own seed, thread count, and noise scale.
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn noisy_optimized_path_matches_reference(
        circuit in arb_circuit(),
        seed in 0u64..10_000,
        threads in 1usize..5,
        scale_pick in 0u8..3,
        deco_pick in 0u8..2,
    ) {
        // The load-bearing guarantee of the pre-decoded + skip-ahead +
        // checkpointed + pooled hot path: bit-identical Counts vs the
        // pre-optimization per-instruction path, at every trajectory
        // thread count.
        use qcs::calibration::NoiseProfile;
        use qcs::sim::NoisySimulator;
        let scale = [0.05, 1.0, 6.0][scale_pick as usize];
        let snap = NoiseProfile::with_seed(seed ^ 0xA5A5)
            .scaled_errors(scale)
            .snapshot(&families::complete(5), 0);
        let mut sim = NoisySimulator {
            trajectories: 6,
            seed,
            ..NoisySimulator::default()
        };
        if deco_pick == 1 {
            sim = sim.with_decoherence();
        }
        let reference = sim.with_threads(1).run_reference(&circuit, &snap, 384).unwrap();
        let optimized = sim.with_threads(threads).run(&circuit, &snap, 384).unwrap();
        prop_assert_eq!(reference, optimized);
    }

    #[test]
    fn frame_executor_matches_kernel_fold_amplitudes(circuit in arb_circuit()) {
        // The frame executor behind `execute_with` (X/CX/SWAP as index-map
        // updates, diagonal runs flushed many-per-pass in SIMD chunks,
        // Mat1 over XOR-pairs) must reproduce the sequential full-array
        // amplitudes bit-for-bit: each amplitude goes through the same
        // expressions in the same order, only where it is stored differs.
        // The oracle is a fold of `Statevector::apply_kernel` over the
        // same stream.
        use qcs::sim::{CompiledCircuit, SvExec};
        let compiled = CompiledCircuit::compile(&circuit);
        let mut oracle = Statevector::zero(compiled.num_qubits()).unwrap();
        for kernel in compiled.kernels() {
            oracle.apply_kernel(kernel).unwrap();
        }
        let framed = compiled.execute_with(&SvExec::auto()).unwrap();
        prop_assert_eq!(oracle.amps(), framed.amps());
    }

    #[test]
    fn compiled_execution_matches_instruction_walk(circuit in arb_circuit()) {
        // Compiling a circuit and running it through the frame executor
        // must not change a single amplitude bit against
        // instruction-by-instruction application.
        use qcs::sim::{CompiledCircuit, SvExec};
        let walked = Statevector::from_circuit(&circuit).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).execute_with(&SvExec::auto()).unwrap();
        prop_assert_eq!(walked.amps(), compiled.amps());
    }

    #[test]
    fn transpile_cache_hit_is_bit_identical(circuit in arb_circuit(), seed in 0u64..500) {
        // A cache hit must return exactly the compilation a cold
        // transpile produces.
        use qcs::transpiler::TranspileCache;
        let target = Target::uniform("falcon", families::ibm_falcon_27q(), seed);
        let cache = TranspileCache::new();
        let cold = cache.transpile(&circuit, &target, TranspileOptions::full()).unwrap();
        let hit = cache.transpile(&circuit, &target, TranspileOptions::full()).unwrap();
        let fresh = transpile(&circuit, &target, TranspileOptions::full()).unwrap();
        prop_assert_eq!(&hit.circuit, &cold.circuit);
        prop_assert_eq!(&hit.circuit, &fresh.circuit);
        prop_assert_eq!(hit.layout.clone(), fresh.layout.clone());
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}

/// A routed-looking circuit: rotations (every `Mat1`) on a strict subset
/// of at most six "logical" wires, moved about a register of up to 14 by
/// CX and SWAP ladders, with `Rz`s anywhere — so a trajectory's support,
/// the span of its `Mat1` directions, is usually far below `2^width`.
fn arb_routed_circuit() -> impl Strategy<Value = Circuit> {
    let op = (0u8..7, 0usize..14, 0usize..14, -3.0f64..3.0);
    let wires = (8usize..15, 1usize..7, 0usize..1000);
    (wires, proptest::collection::vec(op, 8..36)).prop_map(|((width, logical, pick), ops)| {
        // The logical wires: `logical` of them, a window of the register
        // starting at a random wire.
        let logical: Vec<usize> =
            (0..logical.min(width - 1)).map(|i| (pick + 2 * i) % width).collect();
        let mut c = Circuit::new(width);
        for (kind, a, b, theta) in ops {
            let (a, b) = (a % width, b % width);
            let rotated = logical[a % logical.len()];
            let (low, high) = (a.min(b), a.max(b));
            match kind {
                0 => {
                    c.h(rotated);
                }
                1 => {
                    c.ry(theta, rotated);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 => {
                    for q in low..high {
                        c.cx(q, q + 1);
                    }
                }
                4 => {
                    for q in (low..high).rev() {
                        c.swap(q, q + 1);
                    }
                }
                5 => {
                    c.cx(a, if b == a { (b + 1) % width } else { b });
                }
                _ => {
                    c.x(a);
                }
            }
        }
        c.measure_all();
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn noisy_routed_circuits_match_reference(
        circuit in arb_routed_circuit(),
        seed in 0u64..10_000,
        scale in 1.0f64..6.0,
    ) {
        // The dense path stores each trajectory at 2^k amplitudes, k the
        // rank of the circuit's Mat1 directions, and injects Y errors as
        // a diagonal and a flip: Counts must still be the reference's,
        // bit for bit, from one trajectory to many.
        use qcs::calibration::NoiseProfile;
        use qcs::sim::NoisySimulator;
        let snap = NoiseProfile::with_seed(seed ^ 0x5A5A)
            .scaled_errors(scale)
            .snapshot(&families::complete(circuit.num_qubits()), 0);
        for trajectories in [1, 3, 128] {
            let sim = NoisySimulator {
                trajectories,
                seed,
                ..NoisySimulator::default()
            };
            let reference = sim.with_threads(1).run_reference(&circuit, &snap, 256).unwrap();
            let optimized = sim.with_threads(2).run(&circuit, &snap, 256).unwrap();
            prop_assert_eq!(reference, optimized, "{} trajectories", trajectories);
        }
    }
}

/// A random small cloud trace: jobs on machines 0-3 from providers 0-3
/// with strictly increasing submit times and a mix of patience levels
/// (impatient enough to cancel, patient enough to run, infinite).
fn arb_trace() -> impl Strategy<Value = Vec<JobSpec>> {
    let job = (0usize..4, 0u32..4, 1u32..30, 1.0f64..400.0, 0u8..4);
    proptest::collection::vec(job, 1..14).prop_map(|specs| {
        let mut t = 0.0;
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (machine, provider, circuits, gap, patience_pick))| {
                t += gap; // gaps >= 1 s keep submit times strictly increasing
                JobSpec {
                    id: i as u64,
                    provider,
                    machine,
                    circuits,
                    shots: 1024,
                    mean_depth: 12.0,
                    mean_width: 3.0,
                    submit_s: t,
                    is_study: i % 3 == 0,
                    patience_s: match patience_pick {
                        0 => 30.0,
                        1 => 250.0,
                        2 => 5_000.0,
                        _ => f64::INFINITY,
                    },
                }
            })
            .collect()
    })
}

/// [`arb_trace`] with about a third of its jobs tied exactly with the
/// previous job's submit time (half of those also on its machine with its
/// batch size, so SJF sees equal keys), handed over shuffled: both sides
/// must sort the trace stably, ties running in input order, not id order.
fn arb_tied_shuffled_trace() -> impl Strategy<Value = Vec<JobSpec>> {
    let picks = proptest::collection::vec((0u8..6, 0u32..1_000), 14..15);
    (arb_trace(), picks).prop_map(|(mut jobs, picks)| {
        for i in 1..jobs.len() {
            if picks[i].0 < 2 {
                jobs[i].submit_s = jobs[i - 1].submit_s;
            }
            if picks[i].0 == 0 {
                jobs[i].machine = jobs[i - 1].machine;
                jobs[i].circuits = jobs[i - 1].circuits;
            }
        }
        let mut keyed: Vec<(u32, JobSpec)> = picks.iter().map(|p| p.1).zip(jobs).collect();
        keyed.sort_by_key(|(key, _)| *key);
        keyed.into_iter().map(|(_, job)| job).collect()
    })
}

proptest! {
    // 110 cases x 3 disciplines each: >= 100 random traces per discipline.
    #![proptest_config(ProptestConfig::with_cases(110))]

    #[test]
    fn des_matches_reference(
        jobs in arb_tied_shuffled_trace(),
        seed in 0u64..10_000,
        outage_pick in 0u8..3,
        divisor in 1u64..4,
    ) {
        let fleet = Fleet::ibm_like();
        let outages = match outage_pick {
            0 => OutagePlan::none(fleet.len()),
            1 => {
                // Hand-placed windows overlapping the submission horizon,
                // including back-to-back windows on one machine.
                let mut windows = vec![Vec::new(); fleet.len()];
                windows[0] = vec![(50.0, 900.0)];
                windows[2] = vec![(300.0, 700.0), (1_000.0, 1_400.0)];
                OutagePlan::from_windows(windows)
            }
            _ => OutagePlan::sample(fleet.len(), 0.1, 0.02, 0.2, seed),
        };
        for discipline in [
            Discipline::FairShare { half_life_hours: 2.0 },
            Discipline::Fifo,
            Discipline::ShortestJobFirst,
        ] {
            let config = CloudConfig {
                seed,
                discipline,
                sample_interval_hours: 0.05,
                background_record_divisor: divisor,
                audit: true,
                ..CloudConfig::default()
            };
            let prod = Simulation::new(fleet.clone(), config)
                .with_outages(outages.clone())
                .run(jobs.clone());
            let naive = reference::simulate(&fleet, &config, &outages, jobs.clone());
            prop_assert_eq!(&prod.records, &naive.records);
            prop_assert_eq!(&prod.queue_samples, &naive.queue_samples);
            prop_assert_eq!(prod.total_jobs, naive.total_jobs);
            prop_assert_eq!(prod.outcome_counts, naive.outcome_counts);
            prop_assert_eq!(&prod.daily_executions, &naive.daily_executions);
            prod.audit.expect("audit enabled").assert_clean();

            // The streaming sink folds every record away, so its
            // whole-population aggregates are checked against a brute-force
            // run that keeps every record (divisor 1).
            let streamed = Simulation::new(
                fleet.clone(),
                CloudConfig { record_sink: RecordSink::streaming(seed), ..config },
            )
            .with_outages(outages.clone())
            .run(jobs.clone());
            let whole = reference::simulate(
                &fleet,
                &CloudConfig { background_record_divisor: 1, ..config },
                &outages,
                jobs.clone(),
            );
            prop_assert!(streamed.records.is_empty(), "streaming keeps no records");
            prop_assert_eq!(&streamed.queue_samples, &whole.queue_samples);
            prop_assert_eq!(streamed.total_jobs, whole.total_jobs);
            prop_assert_eq!(streamed.outcome_counts, whole.outcome_counts);
            prop_assert_eq!(&streamed.daily_executions, &whole.daily_executions);
            let agg = streamed.streaming.as_ref().expect("streaming sink");
            prop_assert_eq!(agg.folded(), whole.total_jobs);
            prop_assert_eq!(agg.cancelled(), whole.outcome_counts[2]);
            // Folded in terminal-event order, the order the brute force
            // stores records in: sums and means are bit-identical.
            let executed: Vec<&JobRecord> = whole
                .records
                .iter()
                .filter(|r| r.outcome != JobOutcome::Cancelled)
                .collect();
            let queue_times: Vec<f64> = executed.iter().map(|r| r.queue_time_s()).collect();
            let moments = agg.queue_time().moments();
            prop_assert_eq!(moments.count(), queue_times.len() as u64);
            if !queue_times.is_empty() {
                prop_assert_eq!(moments.mean(), stats::mean(&queue_times));
            }
            let mut executed_s = vec![0.0f64; config.num_providers];
            for r in &executed {
                executed_s[r.provider as usize] += r.exec_time_s();
            }
            prop_assert_eq!(agg.executed_seconds_by_provider(), &executed_s[..]);
            streamed.audit.expect("audit enabled").assert_clean();
        }
    }

    #[test]
    fn live_matches_batch(
        jobs in arb_trace(),
        seed in 0u64..10_000,
        outage_pick in 0u8..3,
        step_gaps in proptest::collection::vec(1.0f64..2_000.0, 1..10),
    ) {
        // The incremental core, driven by an arbitrary step schedule with
        // jobs submitted online (each as late as its submission time
        // allows), must be bit-identical to the batch run of the same
        // trace: same records, same queue samples, same aggregates.
        use qcs::cloud::LiveCloud;
        let fleet = Fleet::ibm_like();
        let outages = match outage_pick {
            0 => OutagePlan::none(fleet.len()),
            1 => {
                let mut windows = vec![Vec::new(); fleet.len()];
                windows[1] = vec![(100.0, 600.0)];
                windows[3] = vec![(200.0, 450.0), (800.0, 1_200.0)];
                OutagePlan::from_windows(windows)
            }
            _ => OutagePlan::sample(fleet.len(), 0.1, 0.02, 0.2, seed),
        };
        for discipline in [
            Discipline::FairShare { half_life_hours: 2.0 },
            Discipline::Fifo,
            Discipline::ShortestJobFirst,
        ] {
            let config = CloudConfig {
                seed,
                discipline,
                sample_interval_hours: 0.05,
                audit: true,
                ..CloudConfig::default()
            };
            let batch = Simulation::new(fleet.clone(), config)
                .with_outages(outages.clone())
                .run(jobs.clone());

            let mut live = LiveCloud::new(fleet.clone(), config)
                .with_outages(outages.clone());
            // arb_trace submit times are strictly increasing, so iterating
            // in order is iterating in submission-time order.
            let mut pending = jobs.clone().into_iter().peekable();
            let mut t = 0.0;
            for gap in &step_gaps {
                t += gap;
                while pending.peek().is_some_and(|j| j.submit_s <= t) {
                    live.submit(pending.next().expect("peeked")).expect("valid trace job");
                }
                live.step_until(t);
            }
            for job in pending {
                live.submit(job).expect("valid trace job");
            }
            live.run_to_completion();
            let result = live.into_result();

            prop_assert_eq!(&batch.records, &result.records);
            prop_assert_eq!(&batch.queue_samples, &result.queue_samples);
            prop_assert_eq!(batch.total_jobs, result.total_jobs);
            prop_assert_eq!(batch.outcome_counts, result.outcome_counts);
            prop_assert_eq!(&batch.daily_executions, &result.daily_executions);
            result.audit.expect("audit enabled").assert_clean();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    #[test]
    fn streaming_sink_matches_exact_oracle(
        jobs in arb_trace(),
        seed in 0u64..10_000,
        step_gaps in proptest::collection::vec(1.0f64..2_000.0, 1..10),
    ) {
        // The streaming fold must agree with the exact in-memory oracle
        // no matter how the live run is stepped: count and mean
        // bit-identical (the fold runs in the same terminal-event order
        // the exact path stores records), CoV within float-rearrangement
        // tolerance, quantile sketches within their documented envelope.
        use qcs::cloud::LiveCloud;
        let fleet = Fleet::ibm_like();
        let exact_config = CloudConfig { seed, audit: true, ..CloudConfig::default() };
        let exact = Simulation::new(fleet.clone(), exact_config).run(jobs.clone());

        let streaming_config = CloudConfig {
            record_sink: RecordSink::streaming(seed),
            ..exact_config
        };
        let mut live = LiveCloud::new(fleet, streaming_config);
        let mut pending = jobs.into_iter().peekable();
        let mut t = 0.0;
        for gap in &step_gaps {
            t += gap;
            while pending.peek().is_some_and(|j| j.submit_s <= t) {
                live.submit(pending.next().expect("peeked")).expect("valid trace job");
            }
            live.step_until(t);
            // Nothing is ever materialized under streaming.
            prop_assert_eq!(live.records_len(), 0);
        }
        for job in pending {
            live.submit(job).expect("valid trace job");
        }
        live.run_to_completion();
        let result = live.into_result();

        // Sink-independent aggregates are bit-identical.
        prop_assert_eq!(result.total_jobs, exact.total_jobs);
        prop_assert_eq!(result.outcome_counts, exact.outcome_counts);
        prop_assert_eq!(&result.daily_executions, &exact.daily_executions);
        prop_assert_eq!(&result.queue_samples, &exact.queue_samples);
        prop_assert!(result.records.is_empty(), "streaming keeps no records");

        let agg = result.streaming.as_ref().expect("streaming sink");
        prop_assert_eq!(agg.folded(), exact.total_jobs);
        prop_assert_eq!(agg.cancelled(), exact.outcome_counts[2]);

        // Exact queue times in terminal-event order: the fold order.
        let queue_times: Vec<f64> = exact
            .records
            .iter()
            .filter(|r| r.outcome != JobOutcome::Cancelled)
            .map(|r| r.queue_time_s())
            .collect();
        let moments = agg.queue_time().moments();
        prop_assert_eq!(moments.count(), queue_times.len() as u64);
        if queue_times.is_empty() {
            prop_assert_eq!(agg.queue_time_p99(), None);
        } else {
            // Count and mean: bit-identical.
            prop_assert_eq!(moments.mean(), stats::mean(&queue_times));
            // CoV: Welford vs two-pass, identical up to float
            // rearrangement.
            let exact_cov = stats::coefficient_of_variation(&queue_times);
            prop_assert!(
                (moments.coefficient_of_variation() - exact_cov).abs()
                    <= 1e-9 * exact_cov.abs().max(1.0),
                "cov {} vs {}", moments.coefficient_of_variation(), exact_cov
            );
            // Quantiles: exact (sorted-prefix) at n <= 5, bounded by the
            // observed range beyond.
            let min = queue_times.iter().copied().fold(f64::INFINITY, f64::min);
            let max = queue_times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let p99 = agg.queue_time_p99().expect("non-empty");
            if queue_times.len() <= 5 {
                prop_assert_eq!(Some(p99), stats::quantile(&queue_times, 0.99));
            } else {
                prop_assert!((min..=max).contains(&p99), "p99 {p99} outside [{min}, {max}]");
                let exact_median = stats::median(&queue_times);
                let summary = agg.queue_time().to_summary();
                prop_assert!(
                    (summary.median - exact_median).abs() <= 0.35 * (max - min) + 1e-9,
                    "median {} vs {} over range [{min}, {max}]", summary.median, exact_median
                );
            }
        }

        // Conservation: charged fair-share seconds == executed seconds
        // from the streaming ledger, per provider.
        let exec_by_provider = agg.executed_seconds_by_provider();
        let mut charged = vec![0.0f64; exec_by_provider.len()];
        for r in &exact.records {
            if r.outcome != JobOutcome::Cancelled {
                charged[r.provider as usize] += r.exec_time_s();
            }
        }
        for (p, (&c, &e)) in charged.iter().zip(exec_by_provider).enumerate() {
            prop_assert!(
                (c - e).abs() <= 1e-6 * e.abs().max(1.0),
                "provider {p}: exact {c} vs streamed {e}"
            );
        }
    }

    #[test]
    fn streaming_moments_merge_any_partition(
        values in proptest::collection::vec(-1e6f64..1e6, 1..200),
        cuts in proptest::collection::vec(0usize..200, 0..6),
    ) {
        // Folding a stream in chunks (any drain schedule) and merging the
        // per-chunk moments must agree with the exact oracle: count
        // exact, mean/variance within float-rearrangement tolerance.
        use qcs::stats::StreamingMoments;
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % values.len()).collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        let mut merged = StreamingMoments::new();
        for pair in bounds.windows(2) {
            let mut chunk = StreamingMoments::new();
            for &v in &values[pair[0]..pair[1]] {
                chunk.push(v);
            }
            merged.merge(&chunk);
        }
        prop_assert_eq!(merged.count(), values.len() as u64);
        let exact_mean = stats::mean(&values);
        prop_assert!(
            (merged.mean() - exact_mean).abs() <= 1e-9 * exact_mean.abs().max(1.0),
            "mean {} vs {}", merged.mean(), exact_mean
        );
        let exact_var = stats::variance(&values);
        prop_assert!(
            (merged.variance() - exact_var).abs() <= 1e-6 * exact_var.abs().max(1.0),
            "variance {} vs {}", merged.variance(), exact_var
        );
        prop_assert_eq!(merged.min(), values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(merged.max(), values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
}
