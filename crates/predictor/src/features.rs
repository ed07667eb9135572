//! Feature extraction for the runtime model.
//!
//! The paper's feature set (§VI-C): execution features (batch size, number
//! of shots), circuit features (depth, width, total gates), and machine
//! overheads (size, memory slots required).

use qcs_cloud::JobRecord;

/// Number of runtime-model features ([`FEATURE_NAMES`] length).
pub const NUM_FEATURES: usize = 7;

/// The ordered feature names, aligned with [`JobFeatures::to_array`].
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "batch_size",
    "shots",
    "depth",
    "width",
    "total_gates",
    "machine_qubits",
    "memory_slots",
];

/// One job's prediction features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFeatures {
    /// Circuits in the batch.
    pub batch_size: f64,
    /// Shots per circuit.
    pub shots: f64,
    /// Mean circuit depth.
    pub depth: f64,
    /// Mean circuit width.
    pub width: f64,
    /// Mean total gates per circuit.
    pub total_gates: f64,
    /// Machine size in qubits.
    pub machine_qubits: f64,
    /// Classical result-buffer slots the job needs (derived from batch,
    /// shots and width).
    pub memory_slots: f64,
}

impl JobFeatures {
    /// Derive features from a job record on a `machine_qubits`-qubit
    /// machine. `total_gates` is approximated from depth and width when
    /// per-circuit detail is unavailable.
    #[must_use]
    pub fn from_record(record: &JobRecord, machine_qubits: usize) -> Self {
        let total_gates = record.mean_depth * record.mean_width * 0.6;
        JobFeatures {
            batch_size: f64::from(record.circuits),
            shots: f64::from(record.shots),
            depth: record.mean_depth,
            width: record.mean_width,
            total_gates,
            machine_qubits: machine_qubits as f64,
            memory_slots: memory_slots(record.circuits, record.shots, record.mean_width),
        }
    }

    /// The feature vector in [`FEATURE_NAMES`] order, as a fixed-size
    /// array (no allocation — this runs once per terminal record on the
    /// online predictor's fold path).
    #[must_use]
    pub fn to_array(&self) -> [f64; NUM_FEATURES] {
        [
            self.batch_size,
            self.shots,
            self.depth,
            self.width,
            self.total_gates,
            self.machine_qubits,
            self.memory_slots,
        ]
    }
}

/// Result-buffer slots: one slot holds 8192 measured bits.
#[must_use]
pub fn memory_slots(circuits: u32, shots: u32, width: f64) -> f64 {
    (f64::from(circuits) * f64::from(shots) * width / 8192.0).ceil()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_cloud::JobOutcome;

    fn record() -> JobRecord {
        JobRecord {
            id: 0,
            provider: 0,
            machine: 1,
            circuits: 20,
            shots: 4096,
            mean_width: 5.0,
            mean_depth: 30.0,
            is_study: true,
            submit_s: 0.0,
            start_s: 10.0,
            end_s: 70.0,
            outcome: JobOutcome::Completed,
            pending_at_submit: 0,
            crossed_calibration: false,
        }
    }

    #[test]
    fn vector_matches_names() {
        let f = JobFeatures::from_record(&record(), 27);
        let v = f.to_array();
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(v[0], 20.0);
        assert_eq!(v[1], 4096.0);
        assert_eq!(v[5], 27.0);
    }

    #[test]
    fn memory_slots_scale() {
        assert_eq!(memory_slots(1, 8192, 1.0), 1.0);
        assert_eq!(memory_slots(2, 8192, 1.0), 2.0);
        assert!(memory_slots(900, 8192, 5.0) > 1000.0);
    }
}
