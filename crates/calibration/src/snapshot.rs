//! Calibration snapshots: the per-qubit and per-edge device parameters as
//! published after a calibration run.

use std::collections::BTreeMap;

use qcs_topology::CouplingGraph;

/// Calibrated parameters of one qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Energy-relaxation time T1, microseconds.
    pub t1_us: f64,
    /// Dephasing time T2, microseconds.
    pub t2_us: f64,
    /// Probability of a single-qubit gate error.
    pub single_qubit_error: f64,
    /// Probability of misreading this qubit at measurement.
    pub readout_error: f64,
}

/// Calibrated parameters of one coupled pair (CX direction-averaged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCalibration {
    /// Probability of a CX gate error.
    pub cx_error: f64,
    /// CX gate duration, nanoseconds.
    pub cx_duration_ns: f64,
}

/// Single-qubit pulse gates (`sx`, `x`, and parametric rotations when not
/// basis-translated), nanoseconds. `rz` is virtual and takes no time.
///
/// These four constants are the fleet's pulse-duration policy: the
/// transpiler's scheduler, the simulator's decoherence windows and
/// [`crate::NoiseProfile`]'s default CX mean all read them here.
pub const SINGLE_QUBIT_NS: f64 = 35.0;
/// CX duration where an edge carries no calibration, and the device-mean
/// CX duration of the default [`crate::NoiseProfile`], nanoseconds.
pub const DEFAULT_CX_NS: f64 = 350.0;
/// Reset duration, nanoseconds.
pub const RESET_NS: f64 = 1000.0;
/// Readout (measurement) duration, nanoseconds.
pub const MEASURE_NS: f64 = 4000.0;

/// The full calibration state of a machine at one calibration cycle.
///
/// Obtained from [`crate::NoiseProfile::snapshot`]; queried by the
/// transpiler (noise-aware layout), the simulator (gate noise), and the
/// fidelity metrics of the paper's Fig 7.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Which calibration cycle (day index since study start) produced this.
    pub cycle: u64,
    qubits: Vec<QubitCalibration>,
    edges: BTreeMap<(usize, usize), EdgeCalibration>,
}

impl CalibrationSnapshot {
    /// Assemble a snapshot from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range of `qubits`.
    #[must_use]
    pub fn new(
        cycle: u64,
        qubits: Vec<QubitCalibration>,
        edges: BTreeMap<(usize, usize), EdgeCalibration>,
    ) -> Self {
        for &(a, b) in edges.keys() {
            assert!(
                a < qubits.len() && b < qubits.len(),
                "edge ({a},{b}) outside qubit range"
            );
        }
        CalibrationSnapshot {
            cycle,
            qubits,
            edges,
        }
    }

    /// Number of qubits covered.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Calibration of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn qubit(&self, q: usize) -> QubitCalibration {
        self.qubits[q]
    }

    /// Calibration of the edge `(a, b)` (order-insensitive), if coupled.
    #[must_use]
    pub fn edge(&self, a: usize, b: usize) -> Option<EdgeCalibration> {
        self.edges.get(&(a.min(b), a.max(b))).copied()
    }

    /// Iterate over `(edge, calibration)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (&(usize, usize), &EdgeCalibration)> {
        self.edges.iter()
    }

    /// Mean single-qubit gate error across the device.
    #[must_use]
    pub fn avg_single_qubit_error(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.single_qubit_error))
    }

    /// Mean readout error across the device.
    #[must_use]
    pub fn avg_readout_error(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.readout_error))
    }

    /// Mean CX error across all coupled pairs (0 if no edges).
    #[must_use]
    pub fn avg_cx_error(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        mean(self.edges.values().map(|e| e.cx_error))
    }

    /// Mean T1 across the device, microseconds.
    #[must_use]
    pub fn avg_t1_us(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.t1_us))
    }

    /// Coefficient of variation (std/mean) of CX errors — the paper cites
    /// ~75 % spatial CoV for 2-qubit error rates.
    #[must_use]
    pub fn cx_error_cov(&self) -> f64 {
        let vals: Vec<f64> = self.edges.values().map(|e| e.cx_error).collect();
        coefficient_of_variation(&vals)
    }

    /// Coefficient of variation of T1 across qubits.
    #[must_use]
    pub fn t1_cov(&self) -> f64 {
        let vals: Vec<f64> = self.qubits.iter().map(|q| q.t1_us).collect();
        coefficient_of_variation(&vals)
    }

    /// Restrict the snapshot to a subset of qubits, renumbering them
    /// `0..subset.len()` in the given order. Edges with both endpoints in
    /// the subset are kept (and renumbered); others are dropped.
    ///
    /// Used to simulate a compiled circuit that only touches a small
    /// region of a large machine.
    ///
    /// # Panics
    ///
    /// Panics if a subset index is out of range or repeated.
    #[must_use]
    pub fn restricted(&self, subset: &[usize]) -> CalibrationSnapshot {
        let mut new_index = BTreeMap::new();
        for (new, &old) in subset.iter().enumerate() {
            assert!(old < self.qubits.len(), "qubit {old} out of range");
            assert!(
                new_index.insert(old, new).is_none(),
                "qubit {old} repeated in subset"
            );
        }
        let qubits = subset.iter().map(|&q| self.qubits[q]).collect();
        let edges = self
            .edges
            .iter()
            .filter_map(|(&(a, b), &cal)| {
                let (na, nb) = (new_index.get(&a)?, new_index.get(&b)?);
                Some(((*na.min(nb), *na.max(nb)), cal))
            })
            .collect();
        CalibrationSnapshot::new(self.cycle, qubits, edges)
    }

    /// Check the snapshot covers exactly the machine topology's edges.
    #[must_use]
    pub fn covers(&self, graph: &CouplingGraph) -> bool {
        self.qubits.len() == graph.num_qubits()
            && graph.num_edges() == self.edges.len()
            && graph
                .edges()
                .iter()
                .all(|&(a, b)| self.edges.contains_key(&(a, b)))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn coefficient_of_variation(vals: &[f64]) -> f64 {
    if vals.len() < 2 {
        return 0.0;
    }
    let m = vals.iter().sum::<f64>() / vals.len() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let var = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64;
    var.sqrt() / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::families;

    fn snap() -> CalibrationSnapshot {
        let q = QubitCalibration {
            t1_us: 80.0,
            t2_us: 70.0,
            single_qubit_error: 1e-3,
            readout_error: 2e-2,
        };
        let mut edges = BTreeMap::new();
        edges.insert(
            (0, 1),
            EdgeCalibration {
                cx_error: 1e-2,
                cx_duration_ns: 300.0,
            },
        );
        edges.insert(
            (1, 2),
            EdgeCalibration {
                cx_error: 3e-2,
                cx_duration_ns: 400.0,
            },
        );
        CalibrationSnapshot::new(7, vec![q; 3], edges)
    }

    #[test]
    fn lookup_is_order_insensitive() {
        let s = snap();
        assert_eq!(s.edge(1, 0), s.edge(0, 1));
        assert!(s.edge(0, 2).is_none());
        assert_eq!(s.cycle, 7);
    }

    #[test]
    fn averages() {
        let s = snap();
        assert!((s.avg_cx_error() - 2e-2).abs() < 1e-12);
        assert!((s.avg_single_qubit_error() - 1e-3).abs() < 1e-12);
        assert!((s.avg_readout_error() - 2e-2).abs() < 1e-12);
        assert!((s.avg_t1_us() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn cov_of_identical_qubits_is_zero() {
        let s = snap();
        assert_eq!(s.t1_cov(), 0.0);
        assert!(s.cx_error_cov() > 0.0);
    }

    #[test]
    fn covers_checks_topology() {
        let s = snap();
        assert!(s.covers(&families::line(3)));
        assert!(!s.covers(&families::line(4)));
        assert!(!s.covers(&families::ring(3)));
    }

    #[test]
    #[should_panic(expected = "outside qubit range")]
    fn new_validates_edges() {
        let q = QubitCalibration {
            t1_us: 1.0,
            t2_us: 1.0,
            single_qubit_error: 0.0,
            readout_error: 0.0,
        };
        let mut edges = BTreeMap::new();
        edges.insert(
            (0, 9),
            EdgeCalibration {
                cx_error: 0.0,
                cx_duration_ns: 0.0,
            },
        );
        let _ = CalibrationSnapshot::new(0, vec![q; 2], edges);
    }
}
