//! The top-level transpilation pipeline with per-pass wall-clock timing.
//!
//! The pipeline mirrors the structure whose cost the paper measures in
//! Fig 5: basis translation, layout, routing, (swap) decomposition,
//! optimization, and scheduling. [`PassTimings`] records real elapsed time
//! per pass so the Fig 5 experiment measures *our actual algorithms*, not a
//! model.

use std::time::{Duration, Instant};

use qcs_circuit::{Circuit, CircuitMetrics};

use crate::basis::translate_to_basis;
use crate::layout::{dense_layout, noise_aware_layout, trivial_layout, Layout};
use crate::optimize::optimize;
use crate::routing::{naive_route, sabre_route};
use crate::schedule::{schedule_asap, ScheduledCircuit};
use crate::{Target, TranspileError};

/// Layout pass selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMethod {
    /// Identity mapping.
    Trivial,
    /// Densest connected region.
    Dense,
    /// Lowest-error connected region (calibration-aware).
    #[default]
    NoiseAware,
}

/// Routing pass selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMethod {
    /// Shortest-path swap chains.
    Naive,
    /// SABRE-style lookahead heuristic.
    #[default]
    Sabre,
}

/// Transpiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TranspileOptions {
    /// Layout strategy.
    pub layout: LayoutMethod,
    /// Routing strategy.
    pub routing: RoutingMethod,
    /// 0 = none, 1+ = peephole optimization (paper recommendation ②
    /// distinguishes "minimal requirements" from "nice-to-have
    /// optimizations"; level 0 is the minimal pipeline).
    pub optimization_level: u8,
}

impl TranspileOptions {
    /// The default full pipeline (noise-aware layout, SABRE, optimization).
    #[must_use]
    pub fn full() -> Self {
        TranspileOptions {
            optimization_level: 1,
            ..TranspileOptions::default()
        }
    }

    /// The minimal legal pipeline: trivial layout, naive routing, no
    /// optimization.
    #[must_use]
    pub fn minimal() -> Self {
        TranspileOptions {
            layout: LayoutMethod::Trivial,
            routing: RoutingMethod::Naive,
            optimization_level: 0,
        }
    }
}

/// Wall-clock time spent in each pass, in pipeline order.
#[derive(Debug, Clone, Default)]
pub struct PassTimings {
    entries: Vec<(&'static str, Duration)>,
}

impl PassTimings {
    fn record(&mut self, name: &'static str, elapsed: Duration) {
        self.entries.push((name, elapsed));
    }

    /// `(pass name, elapsed)` pairs in execution order.
    #[must_use]
    pub fn entries(&self) -> &[(&'static str, Duration)] {
        &self.entries
    }

    /// Elapsed time of a named pass, if it ran.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
    }

    /// Total time across all passes.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d)| *d).sum()
    }
}

/// The output of [`transpile`].
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The hardware-ready circuit (basis gates, coupled operands).
    pub circuit: Circuit,
    /// The chosen initial layout.
    pub layout: Layout,
    /// SWAPs inserted by routing.
    pub swaps_inserted: usize,
    /// Wall-clock per-pass timings.
    pub timings: PassTimings,
    /// ASAP schedule of the final circuit (single-shot duration).
    pub schedule: ScheduledCircuit,
    /// Metrics of the output circuit.
    pub output_metrics: CircuitMetrics,
}

impl TranspileResult {
    /// The paper's compile-time fidelity indicators for this compilation:
    /// `(cx_depth, cx_total, cx_depth*err, cx_total*err)` against the
    /// target's average CX error (Fig 7).
    #[must_use]
    pub fn cx_fidelity_indicators(&self, target: &Target) -> (usize, usize, f64, f64) {
        let err = target.snapshot().avg_cx_error();
        (
            self.output_metrics.cx_depth,
            self.output_metrics.cx_total,
            self.output_metrics.cx_depth_error_product(err),
            self.output_metrics.cx_total_error_product(err),
        )
    }
}

/// Compile `circuit` for `target`.
///
/// Pipeline: basis translation → layout → routing → swap decomposition →
/// optimization (level ≥ 1) → scheduling.
///
/// # Errors
///
/// Returns [`TranspileError`] if the circuit does not fit the target or
/// routing fails.
pub fn transpile(
    circuit: &Circuit,
    target: &Target,
    options: TranspileOptions,
) -> Result<TranspileResult, TranspileError> {
    let mut timings = PassTimings::default();

    // 1. Basis translation (pre-layout, so interaction analysis sees CX).
    let t0 = Instant::now();
    let translated = translate_to_basis(circuit);
    timings.record("basis_translation", t0.elapsed());

    // 2. Layout.
    let t0 = Instant::now();
    let layout = match options.layout {
        LayoutMethod::Trivial => trivial_layout(&translated, target)?,
        LayoutMethod::Dense => dense_layout(&translated, target)?,
        LayoutMethod::NoiseAware => noise_aware_layout(&translated, target)?,
    };
    let placed = layout.apply(&translated, target.num_qubits());
    timings.record("layout", t0.elapsed());

    // 3. Routing.
    let t0 = Instant::now();
    let routed = match options.routing {
        RoutingMethod::Naive => naive_route(&placed, target)?,
        RoutingMethod::Sabre => sabre_route(&placed, target)?,
    };
    timings.record("routing", t0.elapsed());

    // 4. Decompose the SWAPs routing introduced.
    let t0 = Instant::now();
    let decomposed = translate_to_basis(&routed.circuit);
    timings.record("swap_decomposition", t0.elapsed());

    // 5. Optimization.
    let t0 = Instant::now();
    let optimized = if options.optimization_level >= 1 {
        optimize(&decomposed)
    } else {
        decomposed
    };
    timings.record("optimization", t0.elapsed());

    // 6. Scheduling.
    let t0 = Instant::now();
    let schedule = schedule_asap(&optimized, target);
    timings.record("scheduling", t0.elapsed());

    let output_metrics = CircuitMetrics::of(&optimized);
    Ok(TranspileResult {
        circuit: optimized,
        layout,
        swaps_inserted: routed.swaps_inserted,
        timings,
        schedule,
        output_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::is_basis_gate;
    use qcs_circuit::library;
    use qcs_machine::Fleet;
    use qcs_topology::families;

    fn hardware_ready(result: &TranspileResult, target: &Target) {
        for inst in result.circuit.instructions() {
            assert!(is_basis_gate(&inst.gate), "non-basis gate {inst}");
            if inst.gate.is_two_qubit() {
                let (a, b) = (inst.qubits()[0].index(), inst.qubits()[1].index());
                assert!(target.topology().are_coupled(a, b), "uncoupled {inst}");
            }
        }
    }

    #[test]
    fn qft_on_casablanca() {
        let fleet = Fleet::ibm_like();
        let target = Target::from_machine(fleet.get("casablanca").unwrap(), 10.0);
        let input = library::qft(4);
        let result = transpile(&input, &target, TranspileOptions::full()).unwrap();
        hardware_ready(&result, &target);
        assert_eq!(result.circuit.measure_count(), 4);
        assert!(result.output_metrics.cx_total >= CircuitMetrics::of(&input).cx_total - 2);
        assert_eq!(result.timings.entries().len(), 6);
        assert!(result.timings.get("routing").is_some());
        assert!(result.timings.get("nonexistent").is_none());
        assert!(result.schedule.duration_us() > 0.0);
    }

    #[test]
    fn minimal_pipeline_works() {
        let target = Target::noiseless("line", families::line(8));
        let result =
            transpile(&library::ghz(8), &target, TranspileOptions::minimal()).unwrap();
        hardware_ready(&result, &target);
    }

    #[test]
    fn too_wide_circuit_errors() {
        let target = Target::noiseless("line", families::line(3));
        let err = transpile(&library::ghz(5), &target, TranspileOptions::full()).unwrap_err();
        assert!(matches!(err, TranspileError::CircuitTooWide { .. }));
    }

    #[test]
    fn optimization_reduces_or_preserves_size() {
        let target = Target::noiseless("falcon", families::ibm_falcon_27q());
        let c = library::qft(6);
        let lvl0 = transpile(
            &c,
            &target,
            TranspileOptions {
                optimization_level: 0,
                ..TranspileOptions::full()
            },
        )
        .unwrap();
        let lvl1 = transpile(&c, &target, TranspileOptions::full()).unwrap();
        assert!(lvl1.output_metrics.total_gates <= lvl0.output_metrics.total_gates);
    }

    #[test]
    fn fidelity_indicators_positive_on_noisy_target() {
        let fleet = Fleet::ibm_like();
        let target = Target::from_machine(fleet.get("toronto").unwrap(), 5.0);
        let result = transpile(&library::qft(4), &target, TranspileOptions::full()).unwrap();
        let (cxd, cxt, de, te) = result.cx_fidelity_indicators(&target);
        assert!(cxd > 0 && cxt >= cxd);
        assert!(de > 0.0 && te >= de);
    }

    #[test]
    fn total_timing_is_sum() {
        let target = Target::noiseless("line", families::line(6));
        let result = transpile(&library::qft(5), &target, TranspileOptions::full()).unwrap();
        let sum: std::time::Duration =
            result.timings.entries().iter().map(|(_, d)| *d).sum();
        assert_eq!(result.timings.total(), sum);
    }

    #[test]
    fn sabre_output_smaller_than_naive_on_sparse_target() {
        let target = Target::noiseless("hummingbird", families::ibm_hummingbird_65q());
        let c = library::qft(10);
        let naive = transpile(
            &c,
            &target,
            TranspileOptions {
                routing: RoutingMethod::Naive,
                ..TranspileOptions::full()
            },
        )
        .unwrap();
        let sabre = transpile(&c, &target, TranspileOptions::full()).unwrap();
        assert!(sabre.swaps_inserted <= naive.swaps_inserted);
    }
}
