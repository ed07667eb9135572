//! `compile_fleet`: QASM text to a hardware-ready circuit, over circuit
//! families x machines x calibration epochs, through one shared transpile
//! cache. The paper's compile-time axis (Fig 5).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use qcs_circuit::library;
use qcs_circuit::qasm::{from_qasm, to_qasm};
use qcs_machine::Fleet;
use qcs_transpiler::{transpile, Target, TranspileCache, TranspileKey, TranspileOptions};

use super::{ns_u32, Scale, UnitOutcome, Workload};
use crate::measure::{median, Digest, InputRng};
use crate::spec::Layers;
use crate::trace::Tracer;

/// Calibration epochs (days) each circuit x machine pair is compiled at.
const EPOCHS: [u64; 2] = [16, 1];
/// One repeat per this many fresh keys: a quarter of all operations hit.
const FRESH_PER_REPEAT: usize = 3;
/// The passes `transpile` records, in pipeline order, and the per-layer
/// metric each one's time goes to.
const PASSES: [(&str, &str); 6] = [
    ("basis_translation", "transpiler.pass_basis_translation_ms"),
    ("layout", "transpiler.pass_layout_ms"),
    ("routing", "transpiler.pass_routing_ms"),
    (
        "swap_decomposition",
        "transpiler.pass_swap_decomposition_ms",
    ),
    ("optimization", "transpiler.pass_optimization_ms"),
    ("scheduling", "transpiler.pass_scheduling_ms"),
];

/// One trip: which text, for which machine, against which calibration.
#[derive(Debug, Clone, Copy)]
struct Trip {
    text: usize,
    machine: usize,
    t_hours: f64,
}

pub struct CompileFleet {
    fleet: Fleet,
    texts: Vec<String>,
    trips: Vec<Trip>,
}

/// The QASM texts (fixed families, then one full-width GHZ per distinct
/// machine size) and the shuffled trips over them.
fn inputs(seed: u64, fleet: &Fleet, epochs: u64) -> (Vec<String>, Vec<Trip>) {
    let mut rng = InputRng::new(seed, 0x636f_6d70);
    let families = [
        library::qft(4),
        library::qft(8),
        library::qft(12),
        library::qft(16),
        library::quantum_volume(8, 8, rng.next_u64()),
        library::bernstein_vazirani(10, rng.next_u64() & 0x1ff),
        library::hardware_efficient_ansatz(6, 3, rng.next_u64()),
    ];
    let mut texts: Vec<String> = families.iter().map(to_qasm).collect();
    let widths: Vec<usize> = families.iter().map(|c| c.num_qubits()).collect();
    let mut ghz_text: BTreeMap<usize, usize> = BTreeMap::new();
    for machine in fleet.iter() {
        ghz_text.entry(machine.num_qubits()).or_insert_with(|| {
            texts.push(to_qasm(&library::ghz(machine.num_qubits())));
            texts.len() - 1
        });
    }

    // Epochs start on a seed-dependent day; noon sits mid-cycle, clear of
    // every machine's calibration hour.
    let first_day = rng.below(300) as u64;
    let mut trips = Vec::new();
    for epoch in 0..epochs {
        let t_hours = (first_day + epoch) as f64 * 24.0 + 12.0;
        for (index, machine) in fleet.iter().enumerate() {
            let fits = widths
                .iter()
                .enumerate()
                .filter(|(_, &w)| w <= machine.num_qubits());
            for text in fits
                .map(|(i, _)| i)
                .chain([ghz_text[&machine.num_qubits()]])
            {
                trips.push(Trip {
                    text,
                    machine: index,
                    t_hours,
                });
            }
        }
    }
    for i in 0..trips.len() / FRESH_PER_REPEAT {
        trips.push(trips[rng.below(trips.len() - i)]);
    }
    rng.shuffle(&mut trips);
    (texts, trips)
}

fn run(fleet: &Fleet, texts: &[String], trips: &[Trip], tracer: &mut Tracer) -> UnitOutcome {
    let cache = TranspileCache::new();
    let machines = fleet.machines();
    let mut out = UnitOutcome {
        ops: trips.len() as u64,
        op_ns: Vec::with_capacity(trips.len()),
        ..UnitOutcome::default()
    };
    let (mut cx_total, mut swaps) = (0u64, 0u64);
    for trip in trips {
        let started = Instant::now();
        let parsed = tracer.span("circuit.from_qasm", |_| from_qasm(&texts[trip.text]));
        let target = tracer.span("calibration.target", |_| {
            Target::from_machine(&machines[trip.machine], trip.t_hours)
        });
        let compiled = parsed.map_err(|e| e.to_string()).and_then(|circuit| {
            tracer
                .span("transpiler.cached_transpile", |_| {
                    cache.transpile(&circuit, &target, TranspileOptions::full())
                })
                .map_err(|e| e.to_string())
        });
        out.op_ns.push(ns_u32(started.elapsed()));
        match compiled {
            Ok(result) => {
                cx_total += result.output_metrics.cx_total as u64;
                swaps += result.swaps_inserted as u64;
            }
            Err(error) => {
                out.failed += 1;
                out.notes.push(format!(
                    "text {} on {}: {error}",
                    trip.text,
                    machines[trip.machine].name()
                ));
            }
        }
    }
    let stats = cache.stats();
    if stats.hits + stats.misses != trips.len() as u64 {
        out.fail_all(format!("cache counted {stats:?} for {} trips", trips.len()));
    }
    out.digest = Some(
        Digest::new()
            .word(cx_total)
            .word(swaps)
            .word(stats.hits)
            .word(stats.misses)
            .hex(),
    );
    out
}

impl Workload for CompileFleet {
    const NAME: &'static str = "compile_fleet";
    const OP: &'static str = "circuit: QASM text to compiled";

    fn config_digest(scale: Scale) -> String {
        Digest::new()
            .text(Self::NAME)
            .word(scale.of(EPOCHS))
            .word(FRESH_PER_REPEAT as u64)
            .text("qft4,qft8,qft12,qft16,qv8x8,bv10,hea6x3,ghz_full")
            .hex()
    }

    fn setup(seed: u64, scale: Scale) -> Self {
        let fleet = Fleet::ibm_like();
        let (texts, trips) = inputs(seed, &fleet, scale.of(EPOCHS));
        // Warm-up: the first epoch's worth of trips.
        let warm = trips.len() / scale.of(EPOCHS) as usize;
        run(&fleet, &texts, &trips[..warm], &mut Tracer::off());
        CompileFleet {
            fleet,
            texts,
            trips,
        }
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        run(&self.fleet, &self.texts, &self.trips, tracer)
    }
}

/// Layer probes of the compile trip on one epoch's trips: parser, target
/// build, the bare pipeline with its pass timings, the cache's key digest
/// and hit path, and compaction of the result.
pub fn probe(seed: u64, layers: &mut Layers) {
    let fleet = Fleet::ibm_like();
    let (texts, trips) = inputs(seed, &fleet, 1);
    let machines = fleet.machines();
    let options = TranspileOptions::full();
    let cache = TranspileCache::new();

    let n = trips.len() as f64;
    let mut parse_ns = 0u128;
    let mut target_ns = 0u128;
    let mut key_ns = 0u128;
    let mut hit_us = Vec::with_capacity(trips.len());
    let mut compact_ns = 0u128;
    let mut pipeline_ns = 0u128;
    let mut pass_ns = [0u128; PASSES.len()];
    let (mut cx_total, mut swaps) = (0u64, 0u64);
    for trip in &trips {
        let started = Instant::now();
        let circuit = from_qasm(&texts[trip.text]).expect("generated QASM parses");
        parse_ns += started.elapsed().as_nanos();

        let started = Instant::now();
        let target = Target::from_machine(&machines[trip.machine], trip.t_hours);
        target_ns += started.elapsed().as_nanos();

        let started = Instant::now();
        let result = transpile(&circuit, &target, options).expect("fitting circuit compiles");
        pipeline_ns += started.elapsed().as_nanos();
        for (slot, (pass, _)) in pass_ns.iter_mut().zip(PASSES) {
            *slot += result.timings.get(pass).map_or(0, |d| d.as_nanos());
        }
        cx_total += result.output_metrics.cx_total as u64;
        swaps += result.swaps_inserted as u64;

        let started = Instant::now();
        black_box(TranspileKey::of(&circuit, &target, &options));
        key_ns += started.elapsed().as_nanos();

        // Miss (or repeat) first, then the timed call is a certain hit.
        cache
            .transpile(&circuit, &target, options)
            .expect("fitting circuit compiles");
        let started = Instant::now();
        black_box(cache.transpile(&circuit, &target, options).expect("cached"));
        hit_us.push(started.elapsed().as_nanos() as f64 / 1e3);

        let started = Instant::now();
        black_box(result.circuit.compacted());
        compact_ns += started.elapsed().as_nanos();
    }
    layers.set("circuit.qasm_parse_us", parse_ns as f64 / n / 1e3);
    layers.set("calibration.target_build_us", target_ns as f64 / n / 1e3);
    layers.set(
        "transpiler.total_ms_per_circuit",
        pipeline_ns as f64 / n / 1e6,
    );
    for ((_, metric), ns) in PASSES.into_iter().zip(pass_ns) {
        layers.set(metric, ns as f64 / n / 1e6);
    }
    layers.set("transpiler.key_digest_us", key_ns as f64 / n / 1e3);
    // The hit path includes the key digest; a median keeps one slow lock
    // hand-off from standing for all of them.
    layers.set("transpiler.cache_hit_us", median(&hit_us));
    layers.set("circuit.compact_us", compact_ns as f64 / n / 1e3);
    layers.set("transpiler.cx_total", cx_total as f64);
    layers.set("transpiler.swaps", swaps as f64);

    // The workload's own hit rate, from a cold cache over the same trips.
    let cold = TranspileCache::new();
    for trip in &trips {
        let circuit = from_qasm(&texts[trip.text]).expect("generated QASM parses");
        let target = Target::from_machine(&machines[trip.machine], trip.t_hours);
        cold.transpile(&circuit, &target, options)
            .expect("fitting circuit compiles");
    }
    layers.set("transpiler.cache_hit_rate", cold.stats().hit_rate());
}
