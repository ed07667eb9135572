//! Quickstart: build a circuit, compile it for a machine in the fleet,
//! and execute it on the calibration-driven noisy simulator.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use qcs::machine::Fleet;
use qcs::sim::{probability_of_success, qft_pos_circuit, Counts, NoisySimulator};
use qcs::transpiler::{transpile, Target, TranspileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 25-machine IBM-like study fleet.
    let fleet = Fleet::ibm_like();
    let machine = fleet.get("casablanca").expect("casablanca is in the fleet");
    println!("target machine : {machine}");

    // A 4-qubit QFT fidelity benchmark: ideal outcome is |0000>.
    let circuit = qft_pos_circuit(4);
    println!(
        "input circuit  : {} qubits, {} gates, {} CX",
        circuit.num_qubits(),
        circuit.size(),
        circuit.cx_count()
    );

    // Compile against the machine's calibration at hour 12 of the study.
    let target = Target::from_machine(machine, 12.0);
    let result = transpile(&circuit, &target, TranspileOptions::full())?;
    println!(
        "compiled       : {} gates, {} CX, depth {}, {} swaps inserted, {:?} compile time",
        result.output_metrics.total_gates,
        result.output_metrics.cx_total,
        result.output_metrics.depth,
        result.swaps_inserted,
        result.timings.total()
    );
    println!(
        "schedule       : one shot takes {:.2} us",
        result.schedule.duration_us()
    );

    // Execute 4096 shots under the machine's calibrated noise.
    let (compact, region) = result.circuit.compacted();
    let snapshot = target.snapshot().restricted(&region);
    let counts = NoisySimulator::with_seed(7).run(&compact, &snapshot, 4096)?;
    let pos = probability_of_success(&counts, 0);
    println!("executed       : {} shots", counts.total());
    println!(
        "ideal outcome  : {} observed {:.1}% of the time (POS)",
        Counts::to_bitstring(0, 4),
        100.0 * pos
    );

    // Compare with the analytic estimated success probability.
    let esp = result.output_metrics.estimated_success_probability(
        snapshot.avg_single_qubit_error(),
        snapshot.avg_cx_error(),
        snapshot.avg_readout_error(),
    );
    println!("analytic ESP   : {:.1}%", 100.0 * esp);
    Ok(())
}
