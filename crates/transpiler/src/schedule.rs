//! Instruction scheduling: assigning start times and computing the
//! wall-clock duration of one shot of a circuit on a target.
//!
//! Durations follow superconducting-hardware conventions: `rz` is virtual
//! (zero duration, implemented as a frame change), `sx`/`x` take a fixed
//! pulse length, `cx` duration comes from the edge calibration, and
//! measurement is the long readout operation. The policy is
//! [`Gate::duration_ns`](qcs_circuit::Gate::duration_ns), shared with the
//! simulator.

use qcs_circuit::Circuit;

use crate::Target;

/// An ASAP-scheduled circuit: per-instruction start times plus the total
/// single-shot duration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCircuit {
    /// Start time of each instruction (ns), aligned with the circuit's
    /// instruction order.
    pub start_times_ns: Vec<f64>,
    /// Total duration of one shot, nanoseconds.
    pub duration_ns: f64,
}

impl ScheduledCircuit {
    /// Total duration in microseconds.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.duration_ns / 1000.0
    }
}

/// ASAP-schedule `circuit` on `target`.
///
/// # Panics
///
/// Panics if the circuit is wider than the target.
#[must_use]
pub fn schedule_asap(circuit: &Circuit, target: &Target) -> ScheduledCircuit {
    assert!(
        circuit.num_qubits() <= target.num_qubits(),
        "circuit wider than target"
    );
    let mut qubit_free = vec![0.0f64; circuit.num_qubits().max(1)];
    let mut starts = Vec::with_capacity(circuit.instructions().len());
    let mut total = 0.0f64;
    for inst in circuit.instructions() {
        let start = inst
            .qubits()
            .iter()
            .map(|q| qubit_free[q.index()])
            .fold(0.0f64, f64::max);
        let end = start + inst.gate.duration_ns(inst.qubits(), target.snapshot());
        for q in inst.qubits() {
            qubit_free[q.index()] = end;
        }
        starts.push(start);
        total = total.max(end);
    }
    ScheduledCircuit {
        start_times_ns: starts,
        duration_ns: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::Circuit;
    use qcs_topology::families;

    fn target() -> Target {
        Target::noiseless("line", families::line(5))
    }

    #[test]
    fn rz_is_free() {
        let mut c = Circuit::new(1);
        c.rz(1.0, 0).rz(2.0, 0);
        let s = schedule_asap(&c, &target());
        assert_eq!(s.duration_ns, 0.0);
    }

    #[test]
    fn sequential_gates_accumulate() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let s = schedule_asap(&c, &target());
        assert!((s.duration_ns - 70.0).abs() < 1e-9);
        assert_eq!(s.start_times_ns, vec![0.0, 35.0]);
    }

    #[test]
    fn parallel_gates_overlap() {
        let mut c = Circuit::new(2);
        c.x(0).x(1);
        let s = schedule_asap(&c, &target());
        assert!((s.duration_ns - 35.0).abs() < 1e-9);
    }

    #[test]
    fn cx_uses_edge_duration() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let s = schedule_asap(&c, &target());
        assert!((s.duration_ns - 300.0).abs() < 1e-9); // noiseless target edge duration
    }

    #[test]
    fn swap_is_three_cx_long() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let s = schedule_asap(&c, &target());
        assert!((s.duration_ns - 900.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_dominates_short_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let s = schedule_asap(&c, &target());
        assert!(s.duration_ns > 4000.0);
        assert!(s.duration_us() > 4.0);
    }

    #[test]
    fn dependencies_respected() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1).x(1);
        let s = schedule_asap(&c, &target());
        // cx starts after x(0); x(1) after cx.
        assert!((s.start_times_ns[1] - 35.0).abs() < 1e-9);
        assert!((s.start_times_ns[2] - 335.0).abs() < 1e-9);
    }
}
