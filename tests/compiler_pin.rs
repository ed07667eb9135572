//! The compiler's whole output, pinned. The benchmark's `compile_fleet`
//! digest covers only CX totals, SWAP counts and cache counters; this
//! digest covers every field a compilation returns: the instruction
//! stream (angles as bits), the layout, the SWAP count, the output
//! metrics and the schedule. Layout, routing and the peephole passes must
//! reproduce it exactly: a change that moves it changed what the
//! compiler emits, not just how fast.

use std::hash::Hasher;

use qcs::circuit::{library, Circuit};
use qcs::exec::hash::FxHasher;
use qcs::machine::Fleet;
use qcs::transpiler::{
    multiprog, transpile, LayoutMethod, RoutingMethod, Target, TranspileOptions,
};

/// Digest of every compiled output below, fixed when the test was written.
const PINNED: u64 = 0xb45a_b751_b731_9bec;

/// The calibration day every target is built at (noon, mid-cycle).
const T_HOURS: f64 = 100.0 * 24.0 + 12.0;

fn hash_circuit(h: &mut FxHasher, circuit: &Circuit) {
    h.write(circuit.name().as_bytes());
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.num_clbits());
    h.write_usize(circuit.instructions().len());
    for inst in circuit.instructions() {
        h.write(inst.gate.name().as_bytes());
        for p in inst.gate.params().iter() {
            h.write_u64(p.to_bits());
        }
        h.write_usize(inst.qubits().len());
        for q in inst.qubits() {
            h.write_usize(q.index());
        }
        h.write_usize(inst.clbits().len());
        for c in inst.clbits() {
            h.write_usize(c.index());
        }
    }
}

fn option_sets() -> [TranspileOptions; 4] {
    [
        TranspileOptions::full(),
        TranspileOptions::minimal(),
        TranspileOptions {
            layout: LayoutMethod::Dense,
            routing: RoutingMethod::Sabre,
            optimization_level: 1,
        },
        TranspileOptions {
            layout: LayoutMethod::NoiseAware,
            routing: RoutingMethod::Naive,
            optimization_level: 0,
        },
    ]
}

#[test]
fn every_compiled_output_is_pinned() {
    let fleet = Fleet::ibm_like();
    let mut h = FxHasher::default();
    let mut compiles = 0usize;
    for machine in fleet.iter() {
        let target = Target::from_machine(machine, T_HOURS);
        let circuits = [
            library::qft(4),
            library::qft(8),
            library::qft(12),
            library::ghz(machine.num_qubits()),
            library::quantum_volume(8, 8, 7),
            library::bernstein_vazirani(10, 0x15a),
            library::hardware_efficient_ansatz(6, 3, 11),
        ];
        for circuit in circuits
            .iter()
            .filter(|c| c.num_qubits() <= machine.num_qubits())
        {
            for options in option_sets() {
                let out = transpile(circuit, &target, options)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", circuit.name(), machine.name()));
                hash_circuit(&mut h, &out.circuit);
                for &p in out.layout.as_slice() {
                    h.write_usize(p);
                }
                h.write_usize(out.swaps_inserted);
                let m = out.output_metrics;
                for field in [
                    m.width,
                    m.active_qubits,
                    m.total_gates,
                    m.depth,
                    m.cx_depth,
                    m.cx_total,
                    m.single_qubit_gates,
                    m.measurements,
                ] {
                    h.write_usize(field);
                }
                for t in &out.schedule.start_times_ns {
                    h.write_u64(t.to_bits());
                }
                h.write_u64(out.schedule.duration_ns.to_bits());
                compiles += 1;
            }
        }
    }

    // Packing excludes each earlier program's region from the next
    // layout search.
    let programs = [
        library::qft(4),
        library::ghz(5),
        library::bernstein_vazirani(6, 0x15),
        library::hardware_efficient_ansatz(4, 2, 3),
    ];
    let refs: Vec<&Circuit> = programs.iter().collect();
    for name in ["toronto", "manhattan"] {
        let target = Target::from_machine(fleet.get(name).expect("fleet machine"), T_HOURS);
        let packed = multiprog::pack(&refs, &target).expect("programs fit");
        for layout in &packed.layouts {
            for &p in layout.as_slice() {
                h.write_usize(p);
            }
        }
        hash_circuit(&mut h, &packed.combined);
        for &offset in &packed.clbit_offsets {
            h.write_usize(offset);
        }
        h.write_u64(packed.utilization.to_bits());
    }

    assert_eq!(compiles, 388, "machines x circuits x option sets");
    assert_eq!(
        h.finish(),
        PINNED,
        "compiled output moved: {:#018x} over {compiles} compilations",
        h.finish()
    );
}
