//! Cross-crate semantic tests: a transpiled circuit must implement the
//! same measurement distribution as its source, for every layout/routing
//! combination, on every topology shape — verified exactly through the
//! statevector simulator.

use qcs::circuit::{library, Circuit};
use qcs::sim::clbit_distribution;
use qcs::topology::families;
use qcs::transpiler::{
    transpile, LayoutMethod, RoutingMethod, Target, TranspileOptions,
};

/// Maximum L1 distance between two clbit distributions.
fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

fn assert_distribution_preserved(circuit: &Circuit, target: &Target, options: TranspileOptions) {
    let original = clbit_distribution(circuit).expect("source simulable");
    let compiled = transpile(circuit, target, options).expect("transpiles");
    let (compact, _) = compiled.circuit.compacted();
    let output = clbit_distribution(&compact).expect("compiled simulable");
    let distance = l1_distance(&original, &output[..original.len()]);
    assert!(
        distance < 1e-9,
        "distribution changed by {distance} on {} ({:?}/{:?})",
        target.name(),
        options.layout,
        options.routing
    );
    // And nothing leaked into higher clbit words.
    let tail: f64 = output[original.len()..].iter().sum();
    assert!(tail < 1e-12, "probability leaked to unused clbits: {tail}");
}

fn all_option_combos() -> Vec<TranspileOptions> {
    let mut combos = Vec::new();
    for layout in [
        LayoutMethod::Trivial,
        LayoutMethod::Dense,
        LayoutMethod::NoiseAware,
    ] {
        for routing in [RoutingMethod::Naive, RoutingMethod::Sabre] {
            for optimization_level in [0, 1] {
                combos.push(TranspileOptions {
                    layout,
                    routing,
                    optimization_level,
                });
            }
        }
    }
    combos
}

#[test]
fn qft_preserved_on_line_topology() {
    let target = Target::uniform("line7", families::line(7), 3);
    let circuit = library::qft(5);
    for options in all_option_combos() {
        assert_distribution_preserved(&circuit, &target, options);
    }
}

#[test]
fn ghz_preserved_on_t_topology() {
    let target = Target::uniform("t5", families::ibm_t_5q(), 5);
    let circuit = library::ghz(5);
    for options in all_option_combos() {
        assert_distribution_preserved(&circuit, &target, options);
    }
}

#[test]
fn bv_preserved_on_h_topology() {
    let target = Target::uniform("h7", families::ibm_h_7q(), 7);
    let circuit = library::bernstein_vazirani(5, 0b10110);
    for options in all_option_combos() {
        assert_distribution_preserved(&circuit, &target, options);
    }
}

#[test]
fn quantum_volume_preserved_on_ring() {
    let target = Target::uniform("ring8", families::ring(8), 11);
    let circuit = library::quantum_volume(6, 4, 9);
    for options in all_option_combos() {
        assert_distribution_preserved(&circuit, &target, options);
    }
}

#[test]
fn w_state_preserved_on_falcon_region() {
    let target = Target::uniform("falcon", families::ibm_falcon_27q(), 2);
    let circuit = library::w_state(5);
    assert_distribution_preserved(&circuit, &target, TranspileOptions::full());
    assert_distribution_preserved(&circuit, &target, TranspileOptions::minimal());
}

#[test]
fn random_circuits_preserved() {
    let target = Target::uniform("guadalupe", families::ibm_guadalupe_16q(), 17);
    for seed in 0..8 {
        let circuit = library::random_circuit(5, 12, seed);
        assert_distribution_preserved(&circuit, &target, TranspileOptions::full());
    }
}

#[test]
fn ansatz_preserved_on_bowtie() {
    let target = Target::uniform("bowtie", families::ibm_bowtie_5q(), 23);
    let circuit = library::hardware_efficient_ansatz(4, 3, 5);
    for options in all_option_combos() {
        assert_distribution_preserved(&circuit, &target, options);
    }
}

#[test]
fn adder_preserved_on_hummingbird_region() {
    // 1-bit adder: 4 qubits on the 65q machine; compaction keeps the
    // simulation tractable.
    let target = Target::uniform("hummingbird", families::ibm_hummingbird_65q(), 29);
    let circuit = library::ripple_carry_adder(1);
    assert_distribution_preserved(&circuit, &target, TranspileOptions::full());
}

#[test]
fn deep_optimization_preserves_interleaved_measures() {
    // Measurements must survive optimization unscathed.
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).x(2).x(2).cx(1, 2).measure_all();
    let target = Target::uniform("line", families::line(4), 31);
    assert_distribution_preserved(&circuit, &target, TranspileOptions::full());
}
