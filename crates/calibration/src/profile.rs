//! Per-machine noise profiles: the generative model behind calibration
//! snapshots.
//!
//! Each machine owns a [`NoiseProfile`]; snapshots are a *pure function* of
//! `(profile, topology, cycle)`, so any component — transpiler, simulator,
//! cloud DES — can query the calibration state at any virtual time without
//! shared mutable history.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qcs_topology::CouplingGraph;

use crate::distributions::lognormal_with_cov;
use crate::{CalibrationSnapshot, EdgeCalibration, QubitCalibration};

/// Generative parameters for a machine's noise behaviour.
///
/// Defaults follow the magnitudes the paper quotes from public IBM data and
/// the Tannu & Qureshi variability study (paper ref 39): 1q error ~1e-3, 2q error ~1e-2, readout
/// ~1e-2..1e-1, T1/T2 of tens of microseconds; spatial CoV 30–40 % for
/// coherence and ~75 % for CX errors; ~2x day-to-day swings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Seed isolating this machine's randomness from the rest of the fleet.
    pub seed: u64,
    /// Device-mean single-qubit gate error.
    pub mean_1q_error: f64,
    /// Device-mean two-qubit (CX) gate error.
    pub mean_cx_error: f64,
    /// Device-mean readout error.
    pub mean_readout_error: f64,
    /// Device-mean T1, microseconds.
    pub mean_t1_us: f64,
    /// Device-mean T2, microseconds (clamped to <= 2*T1 per qubit).
    pub mean_t2_us: f64,
    /// Mean CX duration, nanoseconds.
    pub mean_cx_duration_ns: f64,
    /// Spatial coefficient of variation for coherence times (T1/T2).
    pub spatial_cov_coherence: f64,
    /// Spatial coefficient of variation for CX errors.
    pub spatial_cov_cx: f64,
    /// Day-to-day coefficient of variation of the device-wide error level.
    pub temporal_cov: f64,
    /// Fractional error growth per hour of drift since calibration
    /// (e.g. 0.02 = +2 %/h).
    pub drift_per_hour: f64,
}

impl Default for NoiseProfile {
    fn default() -> Self {
        NoiseProfile {
            seed: 0,
            mean_1q_error: 1e-3,
            mean_cx_error: 1.2e-2,
            mean_readout_error: 2.5e-2,
            mean_t1_us: 85.0,
            mean_t2_us: 75.0,
            mean_cx_duration_ns: crate::DEFAULT_CX_NS,
            spatial_cov_coherence: 0.35,
            spatial_cov_cx: 0.75,
            temporal_cov: 0.35,
            drift_per_hour: 0.015,
        }
    }
}

impl NoiseProfile {
    /// A default profile with the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        NoiseProfile {
            seed,
            ..NoiseProfile::default()
        }
    }

    /// Scale all error means by `factor` (> 1 = noisier machine); returns
    /// the modified profile for chaining.
    #[must_use]
    pub fn scaled_errors(mut self, factor: f64) -> Self {
        self.mean_1q_error *= factor;
        self.mean_cx_error *= factor;
        self.mean_readout_error *= factor;
        self
    }

    /// Deterministically generate the calibration snapshot for calibration
    /// cycle `cycle` (one cycle per day) on the given topology.
    ///
    /// The same `(profile, topology, cycle)` triple always yields the same
    /// snapshot; consecutive cycles yield *different* snapshots (temporal
    /// variation), which is what makes stale compilations sub-optimal
    /// (paper §V-D).
    #[must_use]
    pub fn snapshot(&self, topology: &CouplingGraph, cycle: u64) -> CalibrationSnapshot {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, cycle));

        // Device-wide level for this cycle: one lognormal factor per
        // quantity family, giving the ~2x day-to-day swings of [39].
        let level_err = lognormal_with_cov(&mut rng, 1.0, self.temporal_cov);
        let level_coh = lognormal_with_cov(&mut rng, 1.0, self.temporal_cov * 0.5);

        let n = topology.num_qubits();
        let mut qubits = Vec::with_capacity(n);
        for _ in 0..n {
            let t1 = lognormal_with_cov(&mut rng, self.mean_t1_us, self.spatial_cov_coherence)
                * level_coh;
            let t2_raw = lognormal_with_cov(&mut rng, self.mean_t2_us, self.spatial_cov_coherence)
                * level_coh;
            let t2 = t2_raw.min(2.0 * t1); // physical bound T2 <= 2*T1
            let e1 = clamp_error(
                lognormal_with_cov(&mut rng, self.mean_1q_error, self.spatial_cov_cx * 0.6)
                    * level_err,
            );
            let ro = clamp_error(
                lognormal_with_cov(&mut rng, self.mean_readout_error, self.spatial_cov_cx * 0.6)
                    * level_err,
            );
            qubits.push(QubitCalibration {
                t1_us: t1,
                t2_us: t2,
                single_qubit_error: e1,
                readout_error: ro,
            });
        }

        let mut edges = BTreeMap::new();
        for &(a, b) in topology.edges() {
            let cx = clamp_error(
                lognormal_with_cov(&mut rng, self.mean_cx_error, self.spatial_cov_cx) * level_err,
            );
            let dur = lognormal_with_cov(&mut rng, self.mean_cx_duration_ns, 0.15);
            edges.insert(
                (a, b),
                EdgeCalibration {
                    cx_error: cx,
                    cx_duration_ns: dur,
                },
            );
        }
        CalibrationSnapshot::new(cycle, qubits, edges)
    }

    /// Effective error multiplier after `hours_since_calibration` of drift.
    ///
    /// Linear-in-time multiplicative drift; the paper observes that
    /// characteristics "drift over time — they can differ even within a
    /// single calibrated epoch".
    #[must_use]
    pub fn drift_factor(&self, hours_since_calibration: f64) -> f64 {
        1.0 + self.drift_per_hour * hours_since_calibration.max(0.0)
    }

    /// A snapshot with drift applied to all error quantities (coherence
    /// degrades by the same factor).
    #[must_use]
    pub fn drifted_snapshot(
        &self,
        topology: &CouplingGraph,
        cycle: u64,
        hours_since_calibration: f64,
    ) -> CalibrationSnapshot {
        let base = self.snapshot(topology, cycle);
        let f = self.drift_factor(hours_since_calibration);
        let qubits = (0..base.num_qubits())
            .map(|q| {
                let c = base.qubit(q);
                QubitCalibration {
                    t1_us: c.t1_us / f,
                    t2_us: c.t2_us / f,
                    single_qubit_error: clamp_error(c.single_qubit_error * f),
                    readout_error: clamp_error(c.readout_error * f),
                }
            })
            .collect();
        let edges = base
            .edges()
            .map(|(&e, cal)| {
                (
                    e,
                    EdgeCalibration {
                        cx_error: clamp_error(cal.cx_error * f),
                        cx_duration_ns: cal.cx_duration_ns,
                    },
                )
            })
            .collect();
        CalibrationSnapshot::new(cycle, qubits, edges)
    }
}

fn clamp_error(e: f64) -> f64 {
    e.clamp(1e-6, 0.5)
}

/// SplitMix64-style mixing of machine seed and cycle index.
fn mix(seed: u64, cycle: u64) -> u64 {
    let mut z = seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::families;

    #[test]
    fn snapshots_are_deterministic() {
        let p = NoiseProfile::with_seed(11);
        let g = families::ibm_falcon_27q();
        assert_eq!(p.snapshot(&g, 5), p.snapshot(&g, 5));
    }

    #[test]
    fn snapshots_vary_across_cycles() {
        let p = NoiseProfile::with_seed(11);
        let g = families::ibm_falcon_27q();
        assert_ne!(p.snapshot(&g, 5), p.snapshot(&g, 6));
    }

    #[test]
    fn snapshot_covers_topology() {
        let p = NoiseProfile::with_seed(3);
        let g = families::ibm_hummingbird_65q();
        let s = p.snapshot(&g, 0);
        assert!(s.covers(&g));
    }

    #[test]
    fn error_magnitudes_plausible() {
        let p = NoiseProfile::with_seed(7);
        let g = families::ibm_falcon_27q();
        // Average across many cycles: close to configured means.
        let mut cx_sum = 0.0;
        let cycles = 200;
        for c in 0..cycles {
            cx_sum += p.snapshot(&g, c).avg_cx_error();
        }
        let cx_avg = cx_sum / f64::from(cycles as u32);
        assert!(
            (cx_avg - p.mean_cx_error).abs() / p.mean_cx_error < 0.25,
            "cx avg {cx_avg} vs mean {}",
            p.mean_cx_error
        );
    }

    #[test]
    fn spatial_variation_present() {
        let p = NoiseProfile::with_seed(1);
        let g = families::ibm_hummingbird_65q();
        let s = p.snapshot(&g, 0);
        // Fleet-level claim from [39]: wide spatial variation.
        assert!(s.cx_error_cov() > 0.3, "cx cov {}", s.cx_error_cov());
        assert!(s.t1_cov() > 0.1, "t1 cov {}", s.t1_cov());
    }

    #[test]
    fn t2_respects_physical_bound() {
        let p = NoiseProfile::with_seed(9);
        let g = families::ibm_hummingbird_65q();
        let s = p.snapshot(&g, 3);
        for q in 0..s.num_qubits() {
            let c = s.qubit(q);
            assert!(c.t2_us <= 2.0 * c.t1_us + 1e-9);
        }
    }

    #[test]
    fn drift_increases_errors() {
        let p = NoiseProfile::with_seed(2);
        let g = families::line(5);
        let fresh = p.drifted_snapshot(&g, 0, 0.0);
        let stale = p.drifted_snapshot(&g, 0, 20.0);
        assert!(stale.avg_cx_error() > fresh.avg_cx_error());
        assert!(stale.avg_t1_us() < fresh.avg_t1_us());
        assert!((p.drift_factor(0.0) - 1.0).abs() < 1e-12);
        assert!(p.drift_factor(-5.0) >= 1.0); // negative time clamps
    }

    #[test]
    fn scaled_errors_scale() {
        let p = NoiseProfile::with_seed(0).scaled_errors(2.0);
        assert!((p.mean_cx_error - 2.4e-2).abs() < 1e-12);
        assert!((p.mean_1q_error - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn errors_clamped() {
        let p = NoiseProfile {
            mean_cx_error: 10.0, // absurd; must clamp to 0.5
            ..NoiseProfile::with_seed(4)
        };
        let g = families::line(3);
        let s = p.snapshot(&g, 0);
        for (_, e) in s.edges() {
            assert!(e.cx_error <= 0.5);
        }
    }
}
