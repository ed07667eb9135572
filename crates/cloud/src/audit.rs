//! Invariant audits over a simulation run.
//!
//! Every figure of the paper is a distributional claim over job records,
//! so a silent accounting bug in the discrete-event simulator skews a
//! whole violin plot with no test failing. This module re-derives the
//! simulator's bookkeeping from first principles — from the *full,
//! un-sampled* record stream — and flags any disagreement:
//!
//! * **Causality** — `submit_s <= start_s <= end_s` for every record;
//!   executed jobs ran for a positive duration, cancelled jobs for none.
//!   Guards every queue-time and execution-time figure (Figs 3, 4, 10,
//!   11, 13, 14).
//! * **Work conservation** — no machine sits idle while its queue is
//!   non-empty, outside its outage windows. Guards the queue-time tail
//!   (Fig 3) and the backlog-based wait predictor (Fig 15/16).
//! * **Fair-share conservation** — the seconds charged to each provider
//!   equal the sum of that provider's execution intervals on the machine.
//!   Guards the fair-share ordering behind every queuing figure.
//! * **Aggregate consistency** — `total_jobs`, `outcome_counts`, and
//!   `daily_executions` match the un-sampled record stream, and the
//!   retained records are a faithful subset of it. Guards Figs 2a/2b.
//! * **Queue-sample sanity** — every periodic pending count matches the
//!   occupancy reconstructed from the records. Guards Fig 9.
//!
//! Enable via [`CloudConfig::audit`](crate::CloudConfig::audit); the
//! report lands in [`SimulationResult::audit`](crate::SimulationResult).
//! The checks are pure functions over records and are exported for use on
//! arbitrary traces (e.g. ones read back from CSV).

use std::fmt;

use crate::{JobOutcome, JobRecord, OutagePlan, QueueSample, SimulationResult};

/// Tolerance for floating-point accounting comparisons, seconds.
const TIME_TOL_S: f64 = 1e-6;

/// A single invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A record's timestamps are out of order, or its execution duration
    /// is inconsistent with its outcome.
    Causality {
        /// Offending job id.
        job: u64,
        /// Submission time (s).
        submit_s: f64,
        /// Start (or cancellation) time (s).
        start_s: f64,
        /// End time (s).
        end_s: f64,
        /// Terminal outcome.
        outcome: JobOutcome,
    },
    /// A machine sat idle with a non-empty queue outside any outage
    /// window.
    WorkConservation {
        /// Machine index.
        machine: usize,
        /// Start of the idle gap (s).
        from_s: f64,
        /// End of the idle gap (s).
        to_s: f64,
        /// Seconds of the gap not covered by outage windows.
        uncovered_s: f64,
    },
    /// A provider's charged seconds disagree with the sum of its
    /// execution intervals on the machine.
    FairShareConservation {
        /// Machine index.
        machine: usize,
        /// Provider id.
        provider: u32,
        /// Seconds charged by the queue (undecayed lifetime total).
        charged_s: f64,
        /// Seconds of execution intervals attributed to the provider.
        executed_s: f64,
    },
    /// A population aggregate disagrees with the un-sampled record
    /// stream.
    AggregateMismatch {
        /// Which aggregate (e.g. `total_jobs`,
        /// `outcome_counts[completed]`, `daily_executions[17]`).
        field: String,
        /// Value recomputed from the record stream.
        expected: u64,
        /// Value reported by the simulation.
        actual: u64,
    },
    /// A retained record does not appear in the full stream in order
    /// (sampling corrupted or reordered the kept subset).
    RecordStreamMismatch {
        /// Offending job id.
        job: u64,
    },
    /// A periodic queue sample disagrees with the occupancy reconstructed
    /// from the records.
    QueueSampleMismatch {
        /// Machine index.
        machine: usize,
        /// Sample time (s).
        time_s: f64,
        /// Pending count the simulator sampled.
        sampled: usize,
        /// Pending count reconstructed from the record stream.
        reconstructed: usize,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Causality {
                job,
                submit_s,
                start_s,
                end_s,
                outcome,
            } => write!(
                f,
                "causality: job {job} ({outcome}) has submit {submit_s} start {start_s} end {end_s}"
            ),
            AuditViolation::WorkConservation {
                machine,
                from_s,
                to_s,
                uncovered_s,
            } => write!(
                f,
                "work conservation: machine {machine} idle {from_s}..{to_s} with jobs waiting \
                 ({uncovered_s:.3} s outside outages)"
            ),
            AuditViolation::FairShareConservation {
                machine,
                provider,
                charged_s,
                executed_s,
            } => write!(
                f,
                "fair-share conservation: machine {machine} provider {provider} charged \
                 {charged_s} s but executed {executed_s} s"
            ),
            AuditViolation::AggregateMismatch {
                field,
                expected,
                actual,
            } => write!(
                f,
                "aggregate mismatch: {field} is {actual}, record stream says {expected}"
            ),
            AuditViolation::RecordStreamMismatch { job } => write!(
                f,
                "record stream mismatch: retained record {job} not in the full stream in order"
            ),
            AuditViolation::QueueSampleMismatch {
                machine,
                time_s,
                sampled,
                reconstructed,
            } => write!(
                f,
                "queue sample mismatch: machine {machine} at {time_s} s sampled {sampled} \
                 pending, records reconstruct {reconstructed}"
            ),
        }
    }
}

/// The outcome of auditing one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Terminal records observed (the whole population, pre-sampling).
    pub records_audited: usize,
    /// Every invariant violation found, in check order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable listing if any invariant was violated.
    ///
    /// # Panics
    ///
    /// Panics if the report contains violations.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "simulation audit found {} violation(s) over {} records:\n{}",
            self.violations.len(),
            self.records_audited,
            self.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Observes the full (un-sampled) terminal-record stream during a run and
/// finalizes into an [`AuditReport`].
#[derive(Debug, Default)]
pub struct Auditor {
    records: Vec<JobRecord>,
}

impl Auditor {
    /// An auditor with no observations yet.
    #[must_use]
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Observe one terminal record (called before sampling can drop it).
    pub fn observe(&mut self, record: &JobRecord) {
        self.records.push(record.clone());
    }

    /// Run every check against the finished result. `charged_raw` holds,
    /// per machine, the queue's lifetime undecayed per-provider charges
    /// (`None` for disciplines without usage accounting).
    #[must_use]
    pub fn finalize(
        self,
        result: &SimulationResult,
        outages: &OutagePlan,
        charged_raw: &[Option<Vec<f64>>],
    ) -> AuditReport {
        let mut violations = Vec::new();
        violations.extend(check_causality(&self.records));
        violations.extend(check_work_conservation(&self.records, outages));
        for (machine, charges) in charged_raw.iter().enumerate() {
            if let Some(charges) = charges {
                violations.extend(check_fair_share_conservation(
                    &self.records,
                    machine,
                    charges,
                ));
            }
        }
        violations.extend(check_aggregates(&self.records, result));
        violations.extend(check_queue_samples(&self.records, &result.queue_samples));
        AuditReport {
            records_audited: self.records.len(),
            violations,
        }
    }
}

/// Check every record against [`JobOutcome::is_causal`]: `submit <=
/// start <= end`, cancelled jobs never executed (`start == end`),
/// executed jobs ran for a positive duration.
#[must_use]
pub fn check_causality(records: &[JobRecord]) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    for r in records {
        if !r.outcome.is_causal(r.submit_s, r.start_s, r.end_s) {
            violations.push(AuditViolation::Causality {
                job: r.id,
                submit_s: r.submit_s,
                start_s: r.start_s,
                end_s: r.end_s,
                outcome: r.outcome,
            });
        }
    }
    violations
}

/// Check that no machine sits idle while jobs wait in its queue, outside
/// outage windows.
///
/// Reconstructed independently of the simulator's internals: per machine,
/// a time-ordered sweep tracks how many jobs are *waiting* (submitted,
/// not yet started or cancelled) and whether one is *executing*; any
/// interval with waiters, no execution, and no outage coverage is a
/// violation.
#[must_use]
pub fn check_work_conservation(
    records: &[JobRecord],
    outages: &OutagePlan,
) -> Vec<AuditViolation> {
    let num_machines = records
        .iter()
        .map(|r| r.machine + 1)
        .max()
        .unwrap_or(0)
        .max(outages.num_machines());
    let mut violations = Vec::new();
    for machine in 0..num_machines {
        // Sweep events: (time, waiting delta, executing delta).
        let mut events: Vec<(f64, i64, i64)> = Vec::new();
        for r in records.iter().filter(|r| r.machine == machine) {
            match r.outcome {
                JobOutcome::Cancelled => {
                    events.push((r.submit_s, 1, 0));
                    events.push((r.start_s, -1, 0));
                }
                JobOutcome::Completed | JobOutcome::Errored => {
                    events.push((r.submit_s, 1, 0));
                    events.push((r.start_s, -1, 1));
                    events.push((r.end_s, 0, -1));
                }
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let windows = merged_windows(outages, machine);

        let mut waiting = 0i64;
        let mut executing = 0i64;
        let mut i = 0;
        while i < events.len() {
            // Apply every event at this instant before judging the
            // interval to the next distinct instant.
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                waiting += events[i].1;
                executing += events[i].2;
                i += 1;
            }
            let Some(&(next, _, _)) = events.get(i) else {
                break;
            };
            if waiting > 0 && executing == 0 {
                let uncovered = (next - t) - overlap(&windows, t, next);
                if uncovered > TIME_TOL_S {
                    violations.push(AuditViolation::WorkConservation {
                        machine,
                        from_s: t,
                        to_s: next,
                        uncovered_s: uncovered,
                    });
                }
            }
        }
    }
    violations
}

/// A machine's outage windows merged into disjoint sorted intervals.
fn merged_windows(outages: &OutagePlan, machine: usize) -> Vec<(f64, f64)> {
    if machine >= outages.num_machines() {
        return Vec::new();
    }
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for &(start, end) in outages.windows(machine) {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Total length of `[from, to)` covered by the disjoint sorted `windows`.
fn overlap(windows: &[(f64, f64)], from: f64, to: f64) -> f64 {
    windows
        .iter()
        .map(|&(s, e)| (e.min(to) - s.max(from)).max(0.0))
        .sum()
}

/// Check that the seconds charged to each provider on `machine` equal the
/// sum of that provider's execution intervals there (cancelled jobs cost
/// nothing). `charged_raw` is the queue's lifetime undecayed per-provider
/// total, so the comparison is exact up to float tolerance — decay never
/// enters it.
#[must_use]
pub fn check_fair_share_conservation(
    records: &[JobRecord],
    machine: usize,
    charged_raw: &[f64],
) -> Vec<AuditViolation> {
    let mut executed = vec![0.0f64; charged_raw.len()];
    for r in records {
        if r.machine == machine && r.outcome != JobOutcome::Cancelled {
            if let Some(slot) = executed.get_mut(r.provider as usize) {
                *slot += r.end_s - r.start_s;
            }
        }
    }
    charged_raw
        .iter()
        .zip(&executed)
        .enumerate()
        .filter(|&(_, (&charged, &ran))| {
            (charged - ran).abs() > TIME_TOL_S * (1.0 + ran.abs())
        })
        .map(|(provider, (&charged, &ran))| AuditViolation::FairShareConservation {
            machine,
            provider: provider as u32,
            charged_s: charged,
            executed_s: ran,
        })
        .collect()
}

/// Check that the population aggregates match the un-sampled record
/// stream, and that the retained (possibly sampled) records are an
/// in-order subset of it.
#[must_use]
pub fn check_aggregates(records: &[JobRecord], result: &SimulationResult) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    let mut mismatch = |field: String, expected: u64, actual: u64| {
        if expected != actual {
            violations.push(AuditViolation::AggregateMismatch {
                field,
                expected,
                actual,
            });
        }
    };

    mismatch(
        "total_jobs".to_string(),
        records.len() as u64,
        result.total_jobs,
    );

    let mut counts = [0u64; 3];
    let mut daily: Vec<u64> = Vec::new();
    for r in records {
        let slot = match r.outcome {
            JobOutcome::Completed => 0,
            JobOutcome::Errored => 1,
            JobOutcome::Cancelled => 2,
        };
        counts[slot] += 1;
        if r.outcome != JobOutcome::Cancelled {
            let day = (r.end_s / 86_400.0).floor().max(0.0) as usize;
            if daily.len() <= day {
                daily.resize(day + 1, 0);
            }
            daily[day] += r.executions();
        }
    }
    for (slot, name) in ["completed", "errored", "cancelled"].iter().enumerate() {
        mismatch(
            format!("outcome_counts[{name}]"),
            counts[slot],
            result.outcome_counts[slot],
        );
    }
    mismatch(
        "daily_executions.len".to_string(),
        daily.len() as u64,
        result.daily_executions.len() as u64,
    );
    for (day, &expected) in daily.iter().enumerate() {
        let actual = result.daily_executions.get(day).copied().unwrap_or(0);
        mismatch(format!("daily_executions[{day}]"), expected, actual);
    }

    // The retained records must appear in the full stream, in order.
    let mut stream = records.iter();
    for kept in &result.records {
        if !stream.any(|r| r == kept) {
            violations.push(AuditViolation::RecordStreamMismatch { job: kept.id });
        }
    }
    violations
}

/// Check every periodic queue sample against the occupancy reconstructed
/// from the record stream.
///
/// The simulator emits samples *before* processing whatever falls at the
/// sample instant, so a job is pending at sample time `t` iff it was
/// submitted strictly before `t` and reached its terminal state (end or
/// cancellation) no earlier than `t`:
/// `pending(t) = #{submit < t} - #{terminal < t}`.
#[must_use]
pub fn check_queue_samples(
    records: &[JobRecord],
    samples: &[QueueSample],
) -> Vec<AuditViolation> {
    let num_machines = records
        .iter()
        .map(|r| r.machine + 1)
        .chain(samples.iter().map(|s| s.machine + 1))
        .max()
        .unwrap_or(0);
    // Per machine, sorted submit and terminal times (a cancelled record's
    // terminal time is its start == end).
    let mut submits: Vec<Vec<f64>> = vec![Vec::new(); num_machines];
    let mut terminals: Vec<Vec<f64>> = vec![Vec::new(); num_machines];
    for r in records {
        submits[r.machine].push(r.submit_s);
        terminals[r.machine].push(r.end_s);
    }
    for v in submits.iter_mut().chain(terminals.iter_mut()) {
        v.sort_by(f64::total_cmp);
    }
    samples
        .iter()
        .filter_map(|s| {
            let arrived = submits[s.machine].partition_point(|&t| t < s.time_s);
            let gone = terminals[s.machine].partition_point(|&t| t < s.time_s);
            let reconstructed = arrived - gone;
            (reconstructed != s.pending).then_some(AuditViolation::QueueSampleMismatch {
                machine: s.machine,
                time_s: s.time_s,
                sampled: s.pending,
                reconstructed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, machine: usize, submit: f64, start: f64, end: f64) -> JobRecord {
        JobRecord {
            id,
            provider: (id % 2) as u32,
            machine,
            circuits: 2,
            shots: 100,
            mean_width: 3.0,
            mean_depth: 10.0,
            is_study: true,
            submit_s: submit,
            start_s: start,
            end_s: end,
            outcome: JobOutcome::Completed,
            pending_at_submit: 0,
            crossed_calibration: false,
        }
    }

    fn result_for(records: &[JobRecord]) -> SimulationResult {
        let mut result = SimulationResult {
            records: records.to_vec(),
            total_jobs: records.len() as u64,
            ..SimulationResult::default()
        };
        for r in records {
            let slot = match r.outcome {
                JobOutcome::Completed => 0,
                JobOutcome::Errored => 1,
                JobOutcome::Cancelled => 2,
            };
            result.outcome_counts[slot] += 1;
            if r.outcome != JobOutcome::Cancelled {
                let day = (r.end_s / 86_400.0).floor().max(0.0) as usize;
                if result.daily_executions.len() <= day {
                    result.daily_executions.resize(day + 1, 0);
                }
                result.daily_executions[day] += r.executions();
            }
        }
        result
    }

    #[test]
    fn clean_records_pass_causality() {
        let records = vec![record(0, 0, 0.0, 5.0, 10.0), record(1, 0, 1.0, 10.0, 12.0)];
        assert!(check_causality(&records).is_empty());
    }

    #[test]
    fn causality_flags_reversed_times() {
        let mut bad = record(7, 0, 10.0, 5.0, 12.0); // started before submit
        assert_eq!(check_causality(std::slice::from_ref(&bad)).len(), 1);
        bad = record(8, 0, 0.0, 5.0, 4.0); // ended before start
        assert_eq!(check_causality(std::slice::from_ref(&bad)).len(), 1);
        // A cancelled job that "executed" is inconsistent too.
        let mut cancelled = record(9, 0, 0.0, 5.0, 9.0);
        cancelled.outcome = JobOutcome::Cancelled;
        let v = check_causality(std::slice::from_ref(&cancelled));
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("causality"));
    }

    #[test]
    fn work_conservation_flags_idle_gap() {
        // Job 1 waits from t=1 while the machine is idle 10..20 with no
        // outage: the gap 10..20 is a violation.
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 20.0, 30.0)];
        let v = check_work_conservation(&records, &OutagePlan::none(1));
        assert_eq!(v.len(), 1);
        match &v[0] {
            AuditViolation::WorkConservation {
                machine,
                from_s,
                to_s,
                ..
            } => {
                assert_eq!(*machine, 0);
                assert_eq!((*from_s, *to_s), (10.0, 20.0));
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn work_conservation_accepts_outage_covered_gap() {
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 20.0, 30.0)];
        let plan = OutagePlan::from_windows(vec![vec![(10.0, 20.0)]]);
        assert!(check_work_conservation(&records, &plan).is_empty());
    }

    #[test]
    fn work_conservation_accepts_back_to_back() {
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 10.0, 30.0)];
        assert!(check_work_conservation(&records, &OutagePlan::none(1)).is_empty());
    }

    #[test]
    fn fair_share_conservation_compares_intervals() {
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 10.0, 25.0)];
        // Provider 0 ran 10 s (job 0), provider 1 ran 15 s (job 1).
        assert!(check_fair_share_conservation(&records, 0, &[10.0, 15.0]).is_empty());
        let v = check_fair_share_conservation(&records, 0, &[10.0, 14.0]);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("provider 1"));
        // Cancelled jobs cost nothing.
        let mut cancelled = record(2, 0, 2.0, 30.0, 30.0);
        cancelled.outcome = JobOutcome::Cancelled;
        let mut with_cancel = records.clone();
        with_cancel.push(cancelled);
        assert!(check_fair_share_conservation(&with_cancel, 0, &[10.0, 15.0]).is_empty());
    }

    #[test]
    fn aggregates_flag_drift() {
        let records = vec![record(0, 0, 0.0, 0.0, 10.0)];
        let mut result = result_for(&records);
        assert!(check_aggregates(&records, &result).is_empty());
        result.total_jobs = 2;
        result.outcome_counts[1] = 1;
        result.daily_executions[0] += 5;
        let v = check_aggregates(&records, &result);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn retained_records_must_be_in_order_subset() {
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 10.0, 20.0)];
        let mut result = result_for(&records);
        // Reversing the kept records breaks stream order.
        result.records.reverse();
        let v = check_aggregates(&records, &result);
        assert!(v
            .iter()
            .any(|v| matches!(v, AuditViolation::RecordStreamMismatch { .. })));
    }

    #[test]
    fn queue_samples_reconstruct() {
        // Job 0 executes 0..10; job 1 waits 1..10, executes 10..20.
        let records = vec![record(0, 0, 0.0, 0.0, 10.0), record(1, 0, 1.0, 10.0, 20.0)];
        let good = vec![
            QueueSample {
                time_s: 5.0,
                machine: 0,
                pending: 2,
            },
            QueueSample {
                time_s: 15.0,
                machine: 0,
                pending: 1,
            },
            QueueSample {
                time_s: 25.0,
                machine: 0,
                pending: 0,
            },
            // Terminal exactly at the sample instant still counts: the
            // sample is emitted before the event is processed.
            QueueSample {
                time_s: 10.0,
                machine: 0,
                pending: 2,
            },
        ];
        assert!(check_queue_samples(&records, &good).is_empty());
        let bad = vec![QueueSample {
            time_s: 5.0,
            machine: 0,
            pending: 1,
        }];
        assert_eq!(check_queue_samples(&records, &bad).len(), 1);
    }

    #[test]
    fn report_formats_and_asserts() {
        let report = AuditReport {
            records_audited: 3,
            violations: Vec::new(),
        };
        assert!(report.is_clean());
        report.assert_clean();
        let dirty = AuditReport {
            records_audited: 3,
            violations: vec![AuditViolation::AggregateMismatch {
                field: "total_jobs".to_string(),
                expected: 3,
                actual: 2,
            }],
        };
        assert!(!dirty.is_clean());
        let caught = std::panic::catch_unwind(|| dirty.assert_clean());
        assert!(caught.is_err());
    }
}
