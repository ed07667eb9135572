//! Figure experiments that do not need the cloud simulation: compile-time
//! scaling (Fig 5), bisection-bandwidth survey (Fig 6), fidelity vs CX
//! metrics (Fig 7), and calibration-driven layout shift (Fig 12b).

use std::time::Duration;

use qcs_circuit::library;
use qcs_exec::ExecConfig;
use qcs_machine::{Fleet, Machine};
use qcs_sim::{clifford_pos_circuit, probability_of_success, qft_pos_circuit, NoisySimulator};
use qcs_topology::{bisection_bandwidth, families};
use qcs_transpiler::{
    layout::noise_aware_layout, transpile, Layout, Target, TranspileCache, TranspileError,
    TranspileOptions,
};

/// One pass-timing row of the Fig 5 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTimingRow {
    /// Pass name.
    pub pass: String,
    /// Time on the small (current-day) configuration.
    pub small: Duration,
    /// Time on the large (future ~1000q) configuration.
    pub large: Duration,
}

impl PassTimingRow {
    /// `large / small` timing ratio (the paper reports a 100–1000x
    /// blow-up for layout/routing).
    #[must_use]
    pub fn blowup(&self) -> f64 {
        let small = self.small.as_secs_f64().max(1e-9);
        self.large.as_secs_f64() / small
    }
}

/// Fig 5: compile a `small_qubits`-QFT for the 65-qubit Hummingbird and a
/// `large_qubits`-QFT for a synthetic ~1000-qubit heavy-hex machine,
/// reporting measured wall-clock per pass.
///
/// # Errors
///
/// Returns [`TranspileError`] if either compilation fails.
pub fn compile_scaling(
    small_qubits: usize,
    large_qubits: usize,
) -> Result<Vec<PassTimingRow>, TranspileError> {
    let small_target = Target::noiseless("manhattan-65q", families::ibm_hummingbird_65q());
    // 19 rows x 45 qubits + connectors = ~1000 qubits.
    let large_topology = families::heavy_hex(19, 45);
    assert!(
        large_topology.num_qubits() >= large_qubits,
        "large machine smaller than circuit"
    );
    let large_target = Target::noiseless(
        format!("heavyhex-{}q", large_topology.num_qubits()),
        large_topology,
    );
    let options = TranspileOptions::full();
    let small = transpile(&library::qft(small_qubits), &small_target, options)?;
    let large = transpile(&library::qft(large_qubits), &large_target, options)?;
    Ok(small
        .timings
        .entries()
        .iter()
        .map(|&(name, small_d)| PassTimingRow {
            pass: name.to_string(),
            small: small_d,
            large: large.timings.get(name).unwrap_or_default(),
        })
        .collect())
}

/// One machine row of the Fig 6 survey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectionRow {
    /// Machine (or reference topology) name.
    pub name: String,
    /// Qubits / nodes.
    pub qubits: usize,
    /// Bisection bandwidth.
    pub bisection: usize,
}

/// Fig 6: bisection bandwidth of every fleet machine, plus the classical
/// 8x8-mesh reference point.
#[must_use]
pub fn bisection_survey(fleet: &Fleet) -> Vec<BisectionRow> {
    let mut rows: Vec<BisectionRow> = fleet
        .iter()
        .map(|m| BisectionRow {
            name: m.name().to_string(),
            qubits: m.num_qubits(),
            bisection: bisection_bandwidth(m.topology()),
        })
        .collect();
    rows.push(BisectionRow {
        name: "mesh-8x8 (classical ref)".to_string(),
        qubits: 64,
        bisection: bisection_bandwidth(&families::grid(8, 8)),
    });
    rows
}

/// One machine row of the Fig 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityRow {
    /// Machine name.
    pub machine: String,
    /// Machine qubits.
    pub qubits: usize,
    /// Simulation backend that executed the benchmark ("dense",
    /// "stabilizer", or "sparse" — see [`qcs_sim::BackendKind`]).
    pub backend: String,
    /// Measured probability of success of the 4q QFT benchmark.
    pub pos: f64,
    /// CX-depth of the compiled circuit.
    pub cx_depth: usize,
    /// CX-total of the compiled circuit.
    pub cx_total: usize,
    /// CX-depth x average CX error.
    pub cx_depth_err: f64,
    /// CX-total x average CX error.
    pub cx_total_err: f64,
}

/// Fig 7: compile the 4q-QFT POS benchmark for each named machine with
/// noise-aware layout, execute it on the noisy simulator against the
/// machine's calibration, and report POS alongside the compile-time CX
/// metrics.
///
/// Machines are compiled and simulated concurrently on `exec`'s pool, and
/// each machine's trajectory loop runs inline on its fan-out worker (the
/// fan-out owns the pool). Each machine's simulation is seeded
/// independently of thread scheduling, so the rows are identical to the
/// sequential run at any `exec`.
///
/// # Errors
///
/// Returns the [`TranspileError`] of the first (lowest-indexed) machine
/// that fails to compile.
///
/// # Panics
///
/// Panics if a machine name is unknown or simulation fails (fleet machines
/// are always simulable at 4 qubits).
pub fn fidelity_vs_cx(
    exec: &ExecConfig,
    fleet: &Fleet,
    machine_names: &[&str],
    benchmark_qubits: usize,
    t_hours: f64,
    shots: u32,
    seed: u64,
) -> Result<Vec<FidelityRow>, TranspileError> {
    let circuit = qft_pos_circuit(benchmark_qubits);
    qcs_exec::try_parallel_map(exec, machine_names, |_, &name| {
        let machine = fleet
            .get(name)
            .unwrap_or_else(|| panic!("unknown machine {name}"));
        let target = Target::from_machine(machine, t_hours);
        let result = transpile(&circuit, &target, TranspileOptions::full())?;
        // The compiled circuit touches a small region of a possibly-large
        // machine; simulate just that region.
        let (compact, region) = result.circuit.compacted();
        let region_snapshot = target.snapshot().restricted(&region);
        // Decoherence on: every gate's duration is charged against its
        // operands' T1/T2. The readout window itself is not — measurement
        // never decoheres in the simulator (EXPERIMENTS.md, Fig 7).
        let sim = NoisySimulator::with_seed(seed)
            .with_decoherence()
            .with_threads(1);
        // Explicit per-machine backend selection, recorded in the row:
        // the dispatcher (not a hard width assert) decides how each
        // machine's benchmark executes.
        let backend = sim
            .planned_backend(&compact)
            .unwrap_or_else(|e| panic!("{name}: no backend for compacted benchmark: {e}"));
        let counts = sim
            .run(&compact, &region_snapshot, shots)
            .unwrap_or_else(|e| panic!("{name}: planned {backend} backend failed: {e}"));
        let (cx_depth, cx_total, cx_depth_err, cx_total_err) =
            result.cx_fidelity_indicators(&target);
        Ok(FidelityRow {
            machine: name.to_string(),
            qubits: machine.num_qubits(),
            backend: backend.to_string(),
            pos: probability_of_success(&counts, 0),
            cx_depth,
            cx_total,
            cx_depth_err,
            cx_total_err,
        })
    })
}

/// One machine row of the untruncated-fleet Fig 7 variant
/// ([`fleet_fidelity`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFidelityRow {
    /// Machine name.
    pub machine: String,
    /// Machine qubits — also the benchmark width.
    pub qubits: usize,
    /// Simulation backend that executed the benchmark.
    pub backend: String,
    /// Measured probability of success of the machine-wide Clifford
    /// benchmark.
    pub pos: f64,
    /// CX-total of the compiled circuit.
    pub cx_total: usize,
}

/// Result of [`fleet_fidelity`]: one row per simulated machine, plus the
/// number of machines that had to be skipped because no backend could
/// execute their benchmark. With the multi-backend dispatcher the
/// expected count is **zero** — the stabilizer engine covers every
/// machine in the fleet up to 127 qubits — and the tests assert it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFidelity {
    /// Per-machine rows, in fleet iteration order.
    pub rows: Vec<FleetFidelityRow>,
    /// Machines with no eligible backend (expected 0).
    pub skipped: usize,
}

/// Fig 7, untruncated: run a *machine-wide* fidelity benchmark on every
/// machine of the fleet — including the 65-qubit Manhattan that the dense
/// statevector can never hold. The benchmark is the Clifford GHZ echo
/// ([`clifford_pos_circuit`]) at each machine's full width, compiled
/// noise-aware for its topology; per-machine backend selection happens in
/// the simulator's dispatcher (wide machines land on the stabilizer
/// tableau), and the chosen backend is recorded per row.
///
/// Decoherence is off in this variant: the wide backends model gate and
/// readout errors natively, while duration-scaled T1/T2 needs dense
/// amplitudes (see [`qcs_sim::BackendDispatcher`]).
///
/// # Errors
///
/// Returns [`TranspileError`] if a machine's compilation fails.
///
/// # Panics
///
/// Panics if a planned backend fails to execute (planning is checked
/// first; machines with no eligible backend are counted in
/// [`FleetFidelity::skipped`] instead of panicking).
pub fn fleet_fidelity(
    exec: &ExecConfig,
    fleet: &Fleet,
    t_hours: f64,
    shots: u32,
    seed: u64,
) -> Result<FleetFidelity, TranspileError> {
    let machines: Vec<&Machine> = fleet.iter().collect();
    // The machine fan-out owns the pool; a stabilizer trajectory is a dry
    // walk and a two-word Pauli frame (all 128 of the 65q Manhattan's run
    // in ~1.6 ms), so the inner loop never needs workers of its own.
    let rows = qcs_exec::try_parallel_map(exec, &machines, |_, &machine| {
        let circuit = clifford_pos_circuit(machine.num_qubits());
        let target = Target::from_machine(machine, t_hours);
        let result = transpile(&circuit, &target, TranspileOptions::full())?;
        let (compact, region) = result.circuit.compacted();
        let region_snapshot = target.snapshot().restricted(&region);
        let sim = NoisySimulator::with_seed(seed).with_threads(1);
        let Ok(backend) = sim.planned_backend(&compact) else {
            return Ok(None);
        };
        let counts = sim
            .run(&compact, &region_snapshot, shots)
            .unwrap_or_else(|e| {
                panic!("{}: planned {backend} backend failed: {e}", machine.name())
            });
        let (_, cx_total, _, _) = result.cx_fidelity_indicators(&target);
        Ok(Some(FleetFidelityRow {
            machine: machine.name().to_string(),
            qubits: machine.num_qubits(),
            backend: backend.to_string(),
            pos: probability_of_success(&counts, 0),
            cx_total,
        }))
    })?;
    let skipped = rows.iter().filter(|r| r.is_none()).count();
    Ok(FleetFidelity {
        rows: rows.into_iter().flatten().collect(),
        skipped,
    })
}

/// Fig 12b: the noise-aware layouts of the same circuit compiled against
/// two consecutive calibration cycles of a machine.
///
/// # Errors
///
/// Returns [`TranspileError`] if layout fails.
pub fn calibration_layout_shift(
    machine: &Machine,
    circuit_qubits: usize,
    day: u64,
) -> Result<(Layout, Layout), TranspileError> {
    let circuit = library::qft(circuit_qubits);
    let t0 = Target::new(
        format!("{}-day{}", machine.name(), day),
        machine.topology().clone(),
        machine.profile().snapshot(machine.topology(), day),
    );
    let t1 = Target::new(
        format!("{}-day{}", machine.name(), day + 1),
        machine.topology().clone(),
        machine.profile().snapshot(machine.topology(), day + 1),
    );
    Ok((
        noise_aware_layout(&circuit, &t0)?,
        noise_aware_layout(&circuit, &t1)?,
    ))
}

/// One day's comparison in the stale-compilation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessRow {
    /// Calibration cycle compiled against.
    pub compile_day: u64,
    /// POS when the circuit is recompiled against the execution-day
    /// calibration (the paper's proposed dynamic recompilation).
    pub pos_fresh: f64,
    /// POS when yesterday's compilation runs on today's machine (a
    /// calibration crossover, Fig 12a).
    pub pos_stale: f64,
}

/// Recommendation ⑥: quantify the fidelity cost of executing a circuit
/// compiled against a *previous* calibration cycle, versus recompiling on
/// the execution day. For each day `d` in `0..days`, the benchmark is
/// compiled noise-aware against day `d` and executed under day `d + 1`
/// noise (stale), compared to compile-and-execute on day `d + 1` (fresh).
///
/// Days are evaluated concurrently on `exec`'s pool (each day's trajectory
/// loops run inline on its fan-out worker), and each day's two
/// compilations go through `cache`. Day `d` compiles against cycles `d`
/// and `d + 1`, day `d + 1` against `d + 1` and `d + 2` — every interior
/// cycle is requested twice across the experiment, so the cache halves
/// the compile work (read [`TranspileCache::stats`] afterwards to see
/// it). Each day derives its own RNG seed (`seed ^ day`), so the rows are
/// identical to the sequential, cache-cold run.
///
/// # Errors
///
/// Returns the [`TranspileError`] of the first (lowest-indexed) day whose
/// compilation fails.
///
/// # Panics
///
/// Panics if simulation fails (benchmark circuits always fit the
/// simulator after compaction).
pub fn stale_compilation_cost(
    exec: &ExecConfig,
    machine: &Machine,
    benchmark_qubits: usize,
    days: u64,
    shots: u32,
    seed: u64,
    cache: &TranspileCache,
) -> Result<Vec<StalenessRow>, TranspileError> {
    let circuit = qft_pos_circuit(benchmark_qubits);
    let days: Vec<u64> = (0..days).collect();
    qcs_exec::try_parallel_map(exec, &days, |_, &day| {
        let exec_snapshot = machine.profile().snapshot(machine.topology(), day + 1);
        let mut pos = [0.0f64; 2];
        for (slot, compile_day) in [(0usize, day + 1), (1, day)] {
            let target = Target::new(
                format!("{}-day{compile_day}", machine.name()),
                machine.topology().clone(),
                machine.profile().snapshot(machine.topology(), compile_day),
            );
            let compiled = cache.transpile(&circuit, &target, TranspileOptions::full())?;
            let (compact, region) = compiled.circuit.compacted();
            // Execution always sees the *new* calibration.
            let counts = NoisySimulator::with_seed(seed ^ day)
                .with_decoherence()
                .with_threads(1)
                .run(&compact, &exec_snapshot.restricted(&region), shots)
                .expect("compacted benchmark is simulable");
            pos[slot] = probability_of_success(&counts, 0);
        }
        Ok(StalenessRow {
            compile_day: day,
            pos_fresh: pos[0],
            pos_stale: pos[1],
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_scaling_small_case() {
        // A reduced version of Fig 5 (the binary runs the full 64/980).
        let rows = compile_scaling(8, 64).unwrap();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.pass == "routing"));
        let routing = rows.iter().find(|r| r.pass == "routing").unwrap();
        assert!(routing.blowup() > 1.0, "blowup {}", routing.blowup());
    }

    #[test]
    fn bisection_survey_matches_paper_anchor() {
        let fleet = Fleet::ibm_like();
        let rows = bisection_survey(&fleet);
        assert_eq!(rows.len(), 26);
        let manhattan = rows.iter().find(|r| r.name == "manhattan").unwrap();
        assert_eq!(manhattan.bisection, 3); // paper Fig 6
        let mesh = rows.iter().find(|r| r.name.starts_with("mesh")).unwrap();
        assert_eq!(mesh.bisection, 8); // paper Fig 6 reference
    }

    #[test]
    fn fidelity_varies_across_machines() {
        let fleet = Fleet::ibm_like();
        let rows = fidelity_vs_cx(
            &ExecConfig::default(),
            &fleet,
            &["casablanca", "toronto", "manhattan"],
            4,
            12.0,
            2048,
            3,
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.pos > 0.0 && r.pos <= 1.0, "{}: pos {}", r.machine, r.pos);
            assert!(r.cx_total >= r.cx_depth);
        }
        let max = rows.iter().map(|r| r.pos).fold(0.0f64, f64::max);
        let min = rows.iter().map(|r| r.pos).fold(1.0f64, f64::min);
        assert!(max - min > 0.02, "POS spread too small: {min}..{max}");
    }

    #[test]
    fn fleet_fidelity_covers_every_machine_unskipped() {
        // The acceptance gate of the multi-backend dispatcher: the
        // machine-wide benchmark must execute on ALL 25 fleet machines —
        // no more silent truncation to what the dense engine can hold —
        // including the 65q Manhattan, and nothing may be skipped.
        let fleet = Fleet::ibm_like();
        let out = fleet_fidelity(&ExecConfig::default(), &fleet, 12.0, 256, 3).unwrap();
        assert_eq!(out.skipped, 0, "machines skipped: {:?}", out);
        assert_eq!(out.rows.len(), fleet.iter().count());
        assert_eq!(out.rows.len(), 25);
        let manhattan = out
            .rows
            .iter()
            .find(|r| r.machine == "manhattan")
            .expect("manhattan row");
        assert_eq!(manhattan.qubits, 65);
        assert_eq!(
            manhattan.backend, "stabilizer",
            "65q exceeds dense; must route to the tableau"
        );
        for r in &out.rows {
            assert!(
                (0.0..=1.0).contains(&r.pos),
                "{}: pos {}",
                r.machine,
                r.pos
            );
            assert!(
                r.cx_total > 0 || r.qubits == 1,
                "{}: multi-qubit GHZ echo has CX gates",
                r.machine
            );
            let expected = if r.qubits <= qcs_sim::DENSE_MAX_QUBITS {
                "dense"
            } else {
                "stabilizer"
            };
            assert_eq!(r.backend, expected, "{} ({}q)", r.machine, r.qubits);
        }
        // Fidelity varies with machine size/quality, as in the paper.
        let max = out.rows.iter().map(|r| r.pos).fold(0.0f64, f64::max);
        let min = out.rows.iter().map(|r| r.pos).fold(1.0f64, f64::min);
        assert!(max - min > 0.02, "POS spread too small: {min}..{max}");
    }

    #[test]
    fn fidelity_rows_record_their_backend() {
        let fleet = Fleet::ibm_like();
        let rows = fidelity_vs_cx(
            &ExecConfig::default(),
            &fleet,
            &["casablanca"],
            4,
            12.0,
            256,
            3,
        )
        .unwrap();
        // The 4q benchmark compacts into the dense engine's domain.
        assert_eq!(rows[0].backend, "dense");
    }

    #[test]
    fn staleness_costs_fidelity_on_average() {
        let fleet = Fleet::ibm_like();
        let machine = fleet.get("toronto").unwrap();
        let cache = TranspileCache::new();
        let rows = stale_compilation_cost(&ExecConfig::default(), machine, 4, 12, 2048, 3, &cache)
            .unwrap();
        assert_eq!(rows.len(), 12);
        let mean_fresh: f64 =
            rows.iter().map(|r| r.pos_fresh).sum::<f64>() / rows.len() as f64;
        let mean_stale: f64 =
            rows.iter().map(|r| r.pos_stale).sum::<f64>() / rows.len() as f64;
        // Recompiling on the execution day should win on average.
        assert!(
            mean_fresh > mean_stale,
            "fresh {mean_fresh} <= stale {mean_stale}"
        );
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.pos_fresh));
            assert!((0.0..=1.0).contains(&r.pos_stale));
        }
    }

    #[test]
    fn parallel_experiments_match_sequential() {
        let fleet = Fleet::ibm_like();
        let names = ["casablanca", "toronto", "manhattan"];
        let seq =
            fidelity_vs_cx(&ExecConfig::sequential(), &fleet, &names, 4, 12.0, 512, 3).unwrap();
        // Fan-out threads vary; rows must not.
        let par = fidelity_vs_cx(
            &ExecConfig::with_threads(4),
            &fleet,
            &names,
            4,
            12.0,
            512,
            3,
        )
        .unwrap();
        assert_eq!(seq, par);

        let machine = fleet.get("toronto").unwrap();
        let cold = TranspileCache::new();
        let seq = stale_compilation_cost(&ExecConfig::sequential(), machine, 4, 4, 512, 3, &cold)
            .unwrap();
        let warm = TranspileCache::new();
        let par =
            stale_compilation_cost(&ExecConfig::with_threads(4), machine, 4, 4, 512, 3, &warm)
                .unwrap();
        assert_eq!(seq, par);
        // Single-flight lookups: the counters are schedule-independent too.
        assert_eq!(cold.stats(), warm.stats());
        // And a warm cache must not change the rows either.
        let rerun =
            stale_compilation_cost(&ExecConfig::with_threads(4), machine, 4, 4, 512, 3, &warm)
                .unwrap();
        assert_eq!(seq, rerun);
    }

    #[test]
    fn staleness_experiment_reuses_interior_compilations() {
        let fleet = Fleet::ibm_like();
        let machine = fleet.get("casablanca").unwrap();
        let cache = TranspileCache::new();
        let days = 6u64;
        stale_compilation_cost(&ExecConfig::sequential(), machine, 4, days, 256, 3, &cache)
            .unwrap();
        let stats = cache.stats();
        // 2 compiles per day; the interior cycles 1..days are each
        // requested twice -> days - 1 hits, days + 1 unique compilations.
        assert_eq!(stats.hits + stats.misses, 2 * days);
        assert_eq!(stats.misses, days + 1);
        assert_eq!(stats.hits, days - 1);
    }

    #[test]
    fn layout_shift_is_observable() {
        let fleet = Fleet::ibm_like();
        let machine = fleet.get("toronto").unwrap();
        let mut shifted = false;
        for day in 0..10 {
            let (a, b) = calibration_layout_shift(machine, 4, day).unwrap();
            if a != b {
                shifted = true;
                break;
            }
        }
        assert!(shifted, "layout never shifted across calibrations");
    }
}
