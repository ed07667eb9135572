//! The [`Machine`] model: topology + calibration behaviour + execution
//! cost characteristics + cloud access class.

use std::fmt;

use qcs_calibration::{CalibrationSchedule, CalibrationSnapshot, NoiseProfile};
use qcs_topology::CouplingGraph;

/// Cloud access class of a machine.
///
/// Public machines are open to anyone with an account and see far higher
/// demand; privileged (paid / hub) machines require membership (paper §V-A:
/// "the average pending jobs are highest on a public machine").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Open-access machine.
    Public,
    /// Paid / hub-members-only machine.
    Privileged,
}

impl Access {
    /// Whether this is [`Access::Public`].
    #[must_use]
    pub fn is_public(self) -> bool {
        self == Access::Public
    }
}

/// Processor generation, loosely following IBM's family names. Determines
/// baseline gate quality and speed in the fleet construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// Single-qubit early devices (Armonk).
    Canary,
    /// 5-qubit devices.
    Sparrow,
    /// 7–16 qubit devices.
    Falcon,
    /// 27-qubit devices.
    FalconR4,
    /// 65-qubit devices (Manhattan, Brooklyn).
    Hummingbird,
}

/// Constants of the machine's job execution cost model.
///
/// The paper finds (§VI) that NISQ job runtimes are dominated by machine
/// overheads — per-job setup, per-circuit loading, and per-shot repetition
/// delay — rather than by circuit contents. This model reflects that: the
/// circuit only contributes via its (small) duration per shot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionCostModel {
    /// Fixed per-job setup/teardown, seconds (grows with machine size).
    pub job_overhead_s: f64,
    /// Per-circuit program load & binding time, seconds.
    pub circuit_load_s: f64,
    /// Per-shot overhead (reset + repetition delay), microseconds.
    pub shot_overhead_us: f64,
    /// Average duration of one circuit layer (depth unit), microseconds.
    pub layer_time_us: f64,
}

impl ExecutionCostModel {
    /// Duration of executing one circuit of the given depth for `shots`
    /// repetitions, excluding per-job overhead. Seconds.
    #[must_use]
    pub fn circuit_time_s(&self, depth: usize, shots: u32) -> f64 {
        let per_shot_us = self.shot_overhead_us + depth as f64 * self.layer_time_us;
        self.circuit_load_s + f64::from(shots) * per_shot_us * 1e-6
    }

    /// Wall time of a job of `circuits` identical circuits: the per-job
    /// overhead plus each circuit's time (the cloud simulator models a job
    /// by its batch summary). Seconds.
    #[must_use]
    pub fn job_time_uniform_s(&self, circuits: u32, depth: usize, shots: u32) -> f64 {
        self.job_overhead_s + f64::from(circuits) * self.circuit_time_s(depth, shots)
    }
}

/// A quantum machine in the cloud fleet.
///
/// # Examples
///
/// ```
/// use qcs_machine::Fleet;
///
/// let fleet = Fleet::ibm_like();
/// let manhattan = fleet.get("manhattan").unwrap();
/// assert_eq!(manhattan.num_qubits(), 65);
/// let snapshot = manhattan.snapshot_at(30.0); // hours since study start
/// assert!(snapshot.avg_cx_error() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    topology: CouplingGraph,
    profile: NoiseProfile,
    schedule: CalibrationSchedule,
    access: Access,
    generation: Generation,
    cost: ExecutionCostModel,
    max_batch_size: usize,
    max_shots: u32,
}

impl Machine {
    /// Assemble a machine from its parts. Prefer [`crate::Fleet::ibm_like`]
    /// for the study fleet; this constructor is for custom machines.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        topology: CouplingGraph,
        profile: NoiseProfile,
        schedule: CalibrationSchedule,
        access: Access,
        generation: Generation,
        cost: ExecutionCostModel,
    ) -> Self {
        Machine {
            name: name.into(),
            topology,
            profile,
            schedule,
            access,
            generation,
            cost,
            max_batch_size: 900,
            max_shots: 8192,
        }
    }

    /// The machine's name (lowercase, e.g. `"manhattan"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// The coupling topology.
    #[must_use]
    pub fn topology(&self) -> &CouplingGraph {
        &self.topology
    }

    /// The generative noise profile.
    #[must_use]
    pub fn profile(&self) -> &NoiseProfile {
        &self.profile
    }

    /// The calibration schedule.
    #[must_use]
    pub fn schedule(&self) -> &CalibrationSchedule {
        &self.schedule
    }

    /// Cloud access class.
    #[must_use]
    pub fn access(&self) -> Access {
        self.access
    }

    /// Processor generation.
    #[must_use]
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The execution cost model.
    #[must_use]
    pub fn cost_model(&self) -> &ExecutionCostModel {
        &self.cost
    }

    /// Maximum circuits per job (IBM allows ~900).
    #[must_use]
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// Maximum shots per circuit (IBM allows 8192).
    #[must_use]
    pub fn max_shots(&self) -> u32 {
        self.max_shots
    }

    /// The calibration snapshot in effect at `t_hours` since study start,
    /// including intra-day drift.
    #[must_use]
    pub fn snapshot_at(&self, t_hours: f64) -> CalibrationSnapshot {
        let cycle = self.schedule.cycle_at(t_hours);
        let age = self.schedule.hours_since_calibration(t_hours);
        self.profile.drifted_snapshot(&self.topology, cycle, age)
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}q, {:?}, {:?})",
            self.name,
            self.num_qubits(),
            self.generation,
            self.access
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::families;

    fn toy_machine() -> Machine {
        Machine::new(
            "toy",
            families::line(5),
            NoiseProfile::with_seed(1),
            CalibrationSchedule::default(),
            Access::Public,
            Generation::Sparrow,
            ExecutionCostModel {
                job_overhead_s: 4.0,
                circuit_load_s: 0.02,
                shot_overhead_us: 250.0,
                layer_time_us: 0.3,
            },
        )
    }

    #[test]
    fn accessors() {
        let m = toy_machine();
        assert_eq!(m.name(), "toy");
        assert_eq!(m.num_qubits(), 5);
        assert!(m.access().is_public());
        assert_eq!(m.max_batch_size(), 900);
        assert_eq!(m.max_shots(), 8192);
        assert!(m.to_string().contains("5q"));
    }

    #[test]
    fn job_time_scales_with_batch() {
        let m = toy_machine();
        let one = m.cost_model().job_time_uniform_s(1, 10, 1024);
        let five = m.cost_model().job_time_uniform_s(5, 10, 1024);
        // 5 circuits take ~5x the per-circuit time but share job overhead.
        assert!(five > one);
        assert!(five < 5.0 * one);
        let per_circuit = m.cost_model().circuit_time_s(10, 1024);
        assert!((five - (4.0 + 5.0 * per_circuit)).abs() < 1e-9);
    }

    #[test]
    fn shots_dominate_circuit_time() {
        let m = toy_machine();
        let few = m.cost_model().circuit_time_s(10, 100);
        let many = m.cost_model().circuit_time_s(10, 8192);
        assert!(many > 10.0 * few);
        // Per paper: per-circuit time stays well under 0.1 min even at
        // max shots for NISQ-depth circuits.
        assert!(many < 6.0, "circuit time {many}s");
    }

    #[test]
    fn depth_has_minor_effect() {
        let m = toy_machine();
        let shallow = m.cost_model().circuit_time_s(5, 4096);
        let deep = m.cost_model().circuit_time_s(200, 4096);
        // Overheads dominate: 40x depth -> well under 2x time.
        assert!(deep / shallow < 1.5);
        assert!(deep > shallow);
    }

    #[test]
    fn snapshot_at_is_deterministic_and_drifts() {
        let m = toy_machine();
        assert_eq!(m.snapshot_at(30.0), m.snapshot_at(30.0));
        let fresh = fresh_snapshot(&m, 30.0);
        let drifted = m.snapshot_at(30.0);
        // 30h is mid-cycle; drifted errors must be >= fresh errors.
        assert!(drifted.avg_cx_error() >= fresh.avg_cx_error());
    }

    /// The fresh (undrifted) snapshot of the cycle in effect at `t_hours`.
    fn fresh_snapshot(m: &Machine, t_hours: f64) -> CalibrationSnapshot {
        m.profile()
            .snapshot(m.topology(), m.schedule().cycle_at(t_hours))
    }

    #[test]
    fn snapshot_changes_across_calibration() {
        let m = toy_machine();
        let before = fresh_snapshot(&m, 1.0); // cycle 0
        let after = fresh_snapshot(&m, 3.0); // cycle 1 (cal at 01:30)
        assert_ne!(before, after);
    }
}
