//! What the benchmark declares: workload names and reasons, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repo root says the
//! same thing to the driver; a unit test keeps the two equal.

use std::collections::BTreeMap;

/// The seed `run.sh` uses when none is given, and the one `golden.json`
/// holds digests for.
pub const DEFAULT_SEED: u64 = 2021;

/// How long one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "fleet_stream",
        why: "PopulationTrace in 20k-job chunks through a 4-shard FleetSim with predictor taps, reconcile and streaming sink: the ROADMAP's unit of account; predictor tap dominates, DES second, no wire",
    },
    WorkloadSpec {
        name: "study_batch",
        why: "Study::run on a 180-day full config plus every figure accessor and prediction_study: generator + batch DES + stats, no tap, full record sink, so a tap-path gain that costs the batch path shows",
    },
    WorkloadSpec {
        name: "gateway_submit",
        why: "closed loop, one FleetClient to a 2-shard GatewayFleet on loopback, running clock, SUBMIT only: wire + parse + state lock + DES step + tap on every request; the write path",
    },
    WorkloadSpec {
        name: "gateway_query",
        why: "same fleet and client; 10% SUBMIT, 45% PREDICT, 35% STATUS, 10% QUEUE, METRICS every 1000th: the read path through the same lock, parser and predictor (read, not trained)",
    },
    WorkloadSpec {
        name: "compile_fleet",
        why: "QASM text -> from_qasm -> Target::from_machine -> cached transpile over 8 circuit families x machines x calibration epochs, 3/4 fresh keys: the paper's compile-time axis; sim does nothing",
    },
    WorkloadSpec {
        name: "sim_fleet",
        why: "NoisySimulator::run on circuits compiled in set-up: 4q QFT POS with decoherence, full-width Clifford echo (dense + tableau), 10q noisy QFT routed over 10-15q: sim does all the work, transpiler none",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload prints every one of these with `--trace 0`.
///
/// `ops_per_s` counts the workload's own operation per host second:
/// terminal jobs (`fleet_stream`, `study_batch`), replies (`gateway_*`),
/// circuits through the measured trip (`compile_fleet`, `sim_fleet`).
/// `op_p50_us` is the median wall time of one operation: a request's round
/// trip, a circuit's trip, a 20k-job chunk, a whole study. Both are taken
/// from the run's fastest unit.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every workload prints every one of these with `--trace 1`: the probes
/// behind them are the same in every traced run, except that the gateway
/// session uses the query mix when the traced workload is `gateway_query`.
/// Counts say `lower` or `higher` only because the schema wants a
/// direction; they are exact and compare as equal or not.
pub const PER_LAYER: [PerLayer; 67] = [
    layer("workload.trace_gen_ns_per_job", "ns", Lower),
    layer("workload.generate_ns_per_job", "ns", Lower),
    layer("cloud.des_ns_per_job", "ns", Lower),
    layer("cloud.submit_ns", "ns", Lower),
    layer("cloud.batch_run_ns_per_job", "ns", Lower),
    layer("cloud.fold_ns_per_record", "ns", Lower),
    layer("cloud.fairshare_ns_per_op", "ns", Lower),
    layer("cloud.completed", "count", Higher),
    layer("cloud.errored", "count", Lower),
    layer("cloud.cancelled", "count", Lower),
    layer("cloud.peak_pending_arrivals", "count", Lower),
    layer("predictor.observe_ns_per_record", "ns", Lower),
    layer("predictor.observe_p50_ns", "ns", Lower),
    layer("predictor.observe_p99_us", "us", Lower),
    layer("predictor.observe_max_us", "us", Lower),
    layer("predictor.refits", "count", Lower),
    layer("predictor.share_of_stream", "frac", Lower),
    layer("predictor.predict_ns", "ns", Lower),
    layer("predictor.batch_fit_ms", "ms", Lower),
    layer("predictor.mae_min", "min", Lower),
    layer("predictor.band_cover_gap", "frac", Lower),
    layer("stats.lm_fit_us", "us", Lower),
    layer("stats.p2_push_ns", "ns", Lower),
    layer("stats.analysis_ms", "ms", Lower),
    layer("gateway.fleetsim_submit_ns", "ns", Lower),
    layer("gateway.reconcile_us_per_round", "us", Lower),
    layer("gateway.parse_ns", "ns", Lower),
    layer("gateway.format_ns", "ns", Lower),
    layer("gateway.inproc_us_per_req", "us", Lower),
    layer("gateway.wire_overhead_us", "us", Lower),
    layer("gateway.rtt_mean_us", "us", Lower),
    layer("gateway.rtt_p90_us", "us", Lower),
    layer("gateway.rtt_p99_us", "us", Lower),
    layer("gateway.rtt_max_us", "us", Lower),
    layer("gateway.sim_s_per_req", "s", Lower),
    layer("gateway.busy", "count", Lower),
    layer("gateway.err", "count", Lower),
    layer("circuit.qasm_parse_us", "us", Lower),
    layer("circuit.compact_us", "us", Lower),
    layer("calibration.target_build_us", "us", Lower),
    layer("machine.fleet_build_ms", "ms", Lower),
    layer("transpiler.total_ms_per_circuit", "ms", Lower),
    layer("transpiler.pass_basis_translation_ms", "ms", Lower),
    layer("transpiler.pass_layout_ms", "ms", Lower),
    layer("transpiler.pass_routing_ms", "ms", Lower),
    layer("transpiler.pass_swap_decomposition_ms", "ms", Lower),
    layer("transpiler.pass_optimization_ms", "ms", Lower),
    layer("transpiler.pass_scheduling_ms", "ms", Lower),
    layer("transpiler.key_digest_us", "us", Lower),
    layer("transpiler.cache_hit_us", "us", Lower),
    layer("transpiler.cache_hit_rate", "frac", Higher),
    layer("transpiler.cx_total", "count", Lower),
    layer("transpiler.swaps", "count", Lower),
    layer("sim.profile_us", "us", Lower),
    layer("sim.compile_us", "us", Lower),
    layer("sim.dense_ns_per_amp_kernel", "ns", Lower),
    layer("sim.dense_small_run_us", "us", Lower),
    layer("sim.dense_large_run_ms", "ms", Lower),
    layer("sim.tableau_run_us", "us", Lower),
    layer("sim.sparse_run_us", "us", Lower),
    layer("sim.sample_ns_per_shot", "ns", Lower),
    layer("sim.backend_dense_n", "count", Higher),
    layer("sim.backend_tableau_n", "count", Higher),
    layer("sim.backend_sparse_n", "count", Higher),
    layer("exec.pool_overhead_us", "us", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.budget_gap_frac", "frac", Lower),
];

/// The per-layer values one traced run gathers, by declared name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not declare or one set twice:
    /// either is a bug in a probe.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "probe set undeclared per-layer metric {name}"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "per-layer metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Declared names no probe has set.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !self.0.contains_key(name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_obey_the_schema_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// What the binary prints is driven by the tables above, so equality of
    /// the tables with `BENCHMARK.json` is equality of the printed names
    /// with the declared ones (`run::tests` checks the printing side).
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );

        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_obj().unwrap().len(), 4);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_obj().unwrap().len(), 3);
                (field(m, "name"), field(m, "unit"), field(m, "better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn layers_report_what_no_probe_set() {
        let mut layers = Layers::default();
        assert_eq!(layers.missing().len(), PER_LAYER.len());
        layers.set("sim.profile_us", 1.5);
        assert_eq!(layers.get("sim.profile_us"), Some(1.5));
        assert_eq!(layers.missing().len(), PER_LAYER.len() - 1);
    }
}
