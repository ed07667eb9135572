//! Job descriptions and execution records.

use std::fmt;

/// A job submitted to the cloud: a batch of circuits for one machine.
///
/// Background jobs (the load generated by the rest of the user population)
/// are described by batch summary statistics; *study* jobs additionally
/// carry per-circuit detail on the side (see `qcs-workload`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id.
    pub id: u64,
    /// Fair-share provider (hub/group) the submitting user belongs to.
    pub provider: u32,
    /// Index of the target machine within the fleet.
    pub machine: usize,
    /// Batch size: number of circuits in the job (1..=900).
    pub circuits: u32,
    /// Shots per circuit.
    pub shots: u32,
    /// Mean scheduled depth of the batched circuits (drives execution
    /// duration, weakly).
    pub mean_depth: f64,
    /// Mean circuit width (for utilization accounting).
    pub mean_width: f64,
    /// Submission time, seconds since study start.
    pub submit_s: f64,
    /// Whether this job belongs to the instrumented study subset.
    pub is_study: bool,
    /// How long the user will wait before cancelling, seconds
    /// (`f64::INFINITY` = never cancels).
    pub patience_s: f64,
}

impl JobSpec {
    /// Total machine executions (trials) this job represents:
    /// `circuits * shots` — the unit counted by the paper's Fig 2a.
    #[must_use]
    pub fn executions(&self) -> u64 {
        u64::from(self.circuits) * u64::from(self.shots)
    }
}

/// The minimal view a queue discipline needs of a queued item.
///
/// [`JobQueue`](crate::JobQueue) and
/// [`FairShareQueue`](crate::FairShareQueue) are generic over this trait
/// so the public API keeps queueing full [`JobSpec`]s while the live
/// event engine queues compact `u32`-handle entries into its slab job
/// storage — ordering decisions only ever read these three fields.
pub trait QueueItem {
    /// Unique job id (cancellation lookups).
    fn id(&self) -> u64;
    /// Fair-share provider the job belongs to.
    fn provider(&self) -> u32;
    /// Submission time, seconds (FIFO tie-breaking).
    fn submit_s(&self) -> f64;
}

impl QueueItem for JobSpec {
    fn id(&self) -> u64 {
        self.id
    }

    fn provider(&self) -> u32 {
        self.provider
    }

    fn submit_s(&self) -> f64 {
        self.submit_s
    }
}

/// Terminal status of a job (paper Fig 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Failed during execution (configuration errors, device faults, ...).
    Errored,
    /// Withdrawn by the user before reaching the head of the queue.
    Cancelled,
}

impl JobOutcome {
    /// The causality rule, as [`is_causal`](Self::is_causal) checks it.
    pub const CAUSALITY_RULE: &'static str =
        "submit <= start <= end, with end == start for a cancelled job and end > start otherwise";

    /// Whether a job with this outcome could have these timestamps: all
    /// finite and [`CAUSALITY_RULE`](Self::CAUSALITY_RULE). The audit
    /// checks every simulated record with it, and the job-log reader
    /// every row.
    #[must_use]
    pub fn is_causal(self, submit_s: f64, start_s: f64, end_s: f64) -> bool {
        let ran = match self {
            JobOutcome::Cancelled => end_s == start_s,
            JobOutcome::Completed | JobOutcome::Errored => end_s > start_s,
        };
        submit_s.is_finite() && end_s.is_finite() && submit_s <= start_s && ran
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Errored => "errored",
            JobOutcome::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// What actually happened to a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Provider id.
    pub provider: u32,
    /// Machine index.
    pub machine: usize,
    /// Batch size.
    pub circuits: u32,
    /// Shots per circuit.
    pub shots: u32,
    /// Mean circuit width.
    pub mean_width: f64,
    /// Mean circuit depth.
    pub mean_depth: f64,
    /// Whether the job is in the instrumented study subset.
    pub is_study: bool,
    /// Submission time (s).
    pub submit_s: f64,
    /// Execution start time (s); cancellation time for cancelled jobs.
    pub start_s: f64,
    /// Completion time (s); equals `start_s` for cancelled jobs.
    pub end_s: f64,
    /// Terminal status.
    pub outcome: JobOutcome,
    /// Jobs pending on the target machine at submission (inclusive of the
    /// one executing).
    pub pending_at_submit: usize,
    /// Whether a calibration ran between submission (= compile) and the
    /// end of execution (paper Fig 12a) — the job's results were produced
    /// against calibration data staler than its compilation assumed,
    /// whether the boundary was crossed while queued or mid-run.
    pub crossed_calibration: bool,
}

impl JobRecord {
    /// Time spent waiting in the queue, seconds.
    #[must_use]
    pub fn queue_time_s(&self) -> f64 {
        self.start_s - self.submit_s
    }

    /// Time spent executing, seconds (0 for cancelled jobs).
    #[must_use]
    pub fn exec_time_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Queue-to-execution ratio (paper Fig 4); `None` for zero execution
    /// time.
    #[must_use]
    pub fn queue_exec_ratio(&self) -> Option<f64> {
        let exec = self.exec_time_s();
        (exec > 0.0).then(|| self.queue_time_s() / exec)
    }

    /// Effective queue time *per circuit* (paper Fig 11): the whole batch
    /// waits once.
    #[must_use]
    pub fn queue_time_per_circuit_s(&self) -> f64 {
        self.queue_time_s() / f64::from(self.circuits.max(1))
    }

    /// Machine executions represented (circuits x shots).
    #[must_use]
    pub fn executions(&self) -> u64 {
        u64::from(self.circuits) * u64::from(self.shots)
    }

    /// Utilization of a `machine_qubits`-wide machine by this job's mean
    /// circuit (paper Fig 8).
    #[must_use]
    pub fn utilization(&self, machine_qubits: usize) -> f64 {
        (self.mean_width / machine_qubits as f64).min(1.0)
    }
}

/// Periodic snapshot of a machine's queue length (paper Fig 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Sample time, seconds since study start.
    pub time_s: f64,
    /// Machine index.
    pub machine: usize,
    /// Jobs pending (queued + executing).
    pub pending: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        JobRecord {
            id: 1,
            provider: 0,
            machine: 2,
            circuits: 10,
            shots: 1024,
            mean_width: 4.0,
            mean_depth: 20.0,
            is_study: true,
            submit_s: 100.0,
            start_s: 700.0,
            end_s: 760.0,
            outcome: JobOutcome::Completed,
            pending_at_submit: 3,
            crossed_calibration: false,
        }
    }

    #[test]
    fn derived_times() {
        let r = record();
        assert_eq!(r.queue_time_s(), 600.0);
        assert_eq!(r.exec_time_s(), 60.0);
        assert_eq!(r.queue_exec_ratio(), Some(10.0));
        assert_eq!(r.queue_time_per_circuit_s(), 60.0);
        assert_eq!(r.executions(), 10 * 1024);
    }

    #[test]
    fn cancelled_job_has_no_ratio() {
        let mut r = record();
        r.end_s = r.start_s;
        r.outcome = JobOutcome::Cancelled;
        assert_eq!(r.queue_exec_ratio(), None);
        assert_eq!(r.exec_time_s(), 0.0);
    }

    #[test]
    fn utilization_capped() {
        let r = record();
        assert_eq!(r.utilization(8), 0.5);
        assert_eq!(r.utilization(2), 1.0);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(JobOutcome::Completed.to_string(), "completed");
        assert_eq!(JobOutcome::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn spec_executions() {
        let spec = JobSpec {
            id: 0,
            provider: 0,
            machine: 0,
            circuits: 900,
            shots: 8192,
            mean_depth: 20.0,
            mean_width: 5.0,
            submit_s: 0.0,
            is_study: false,
            patience_s: f64::INFINITY,
        };
        assert_eq!(spec.executions(), 900 * 8192);
    }
}
