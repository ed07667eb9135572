//! The discrete-event simulator of the quantum cloud.
//!
//! Each machine is a single server fed by a [`FairShareQueue`]. Jobs
//! arrive at their submission times, wait, execute for a duration given by
//! the machine's [`qcs_machine::ExecutionCostModel`] (plus small stochastic
//! variation), and leave a [`JobRecord`]. Impatient users cancel queued
//! jobs; a small fraction of executions error out (paper Fig 2b). Queue
//! lengths are sampled periodically (Fig 9).
//!
//! Full-study runs process millions of background jobs; to keep memory
//! proportional to what the analysis needs, per-job records can be
//! *sampled* for background jobs (study jobs are always recorded) while
//! aggregate counters (job totals, outcome counts, daily execution counts)
//! cover the entire population.

use qcs_machine::Fleet;

use crate::{
    Discipline, JobOutcome, JobRecord, JobSpec, OutagePlan, QueueSample, StreamingAggregates,
};

/// Where terminal [`JobRecord`]s go.
///
/// The default ([`Exact`](RecordSink::Exact)) accumulates every kept
/// record in [`SimulationResult::records`] — the bit-exact path every
/// existing analysis and the audit oracle run on. The
/// [`Streaming`](RecordSink::Streaming) sink instead folds each record
/// into [`StreamingAggregates`] at its terminal event and discards it,
/// bounding memory for million-job campaigns (records, and therefore
/// [`LiveCloud::records_len`](crate::LiveCloud::records_len), stay
/// empty; aggregates and queue samples are unaffected).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecordSink {
    /// Keep records in memory (current behavior; the audit oracle).
    #[default]
    Exact,
    /// Fold records into constant-memory sketches and drop them.
    Streaming {
        /// Raw points retained per violin reservoir.
        reservoir_capacity: u32,
        /// Seed for the reservoirs' replacement decisions.
        reservoir_seed: u64,
    },
}

impl RecordSink {
    /// A streaming sink with a 512-point reservoir per metric.
    #[must_use]
    pub fn streaming(seed: u64) -> Self {
        RecordSink::Streaming {
            reservoir_capacity: 512,
            reservoir_seed: seed,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudConfig {
    /// RNG seed for execution noise and fault injection.
    pub seed: u64,
    /// Number of fair-share providers across the user population.
    pub num_providers: usize,
    /// Queue scheduling policy for every machine.
    pub discipline: Discipline,
    /// Coefficient of variation of execution-time noise.
    pub exec_noise_cov: f64,
    /// Probability that an execution errors out mid-run.
    pub error_rate: f64,
    /// Queue-length sampling interval, hours.
    pub sample_interval_hours: f64,
    /// Keep a full [`JobRecord`] for background jobs whose
    /// `id % divisor == 0` (study jobs are always kept). `1` keeps all.
    pub background_record_divisor: u64,
    /// Run the invariant [`audit`](crate::audit) over the run: every
    /// terminal record (including background records that sampling would
    /// drop) is observed and checked for causality, work conservation,
    /// fair-share conservation, aggregate consistency, and queue-sample
    /// sanity. The report lands in [`SimulationResult::audit`].
    pub audit: bool,
    /// Terminal-record destination: exact in-memory accumulation
    /// (default) or constant-memory streaming fold.
    pub record_sink: RecordSink,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            seed: 0,
            num_providers: 40,
            discipline: Discipline::default(),
            exec_noise_cov: 0.08,
            error_rate: 0.045,
            sample_interval_hours: 6.0,
            background_record_divisor: 1,
            audit: false,
            record_sink: RecordSink::Exact,
        }
    }
}

/// Everything the simulation produced.
#[derive(Debug, Clone, Default)]
pub struct SimulationResult {
    /// Per-job records (all study jobs; background jobs subject to the
    /// configured sampling divisor), in terminal-event order.
    pub records: Vec<JobRecord>,
    /// Periodic queue-length samples across all machines.
    pub queue_samples: Vec<QueueSample>,
    /// Total jobs that reached a terminal state (whole population).
    pub total_jobs: u64,
    /// Jobs per outcome `[completed, errored, cancelled]` (whole
    /// population).
    pub outcome_counts: [u64; 3],
    /// Machine executions (circuits x shots) of completed/errored jobs,
    /// binned by the day the job finished (whole population).
    pub daily_executions: Vec<u64>,
    /// The invariant-audit report, when [`CloudConfig::audit`] was set.
    pub audit: Option<crate::AuditReport>,
    /// Constant-memory aggregates, when
    /// [`CloudConfig::record_sink`] was [`RecordSink::Streaming`].
    pub streaming: Option<StreamingAggregates>,
}

impl SimulationResult {
    /// Records belonging to the instrumented study subset.
    ///
    /// Borrows lazily — callers that only count or fold pay no
    /// allocation (the old `Vec<&JobRecord>` return resurfaced as an
    /// O(machines × records) rescan cost inside per-machine study loops).
    pub fn study_records(&self) -> impl Iterator<Item = &JobRecord> + '_ {
        self.records.iter().filter(|r| r.is_study)
    }

    /// Fraction of jobs with each outcome: `(completed, errored,
    /// cancelled)` over the whole population.
    #[must_use]
    pub fn outcome_fractions(&self) -> (f64, f64, f64) {
        let total = self.total_jobs.max(1) as f64;
        (
            self.outcome_counts[0] as f64 / total,
            self.outcome_counts[1] as f64 / total,
            self.outcome_counts[2] as f64 / total,
        )
    }

    /// Cumulative executions over time: `(day, cumulative executions)` per
    /// day with any activity (paper Fig 2a).
    #[must_use]
    pub fn cumulative_executions(&self) -> Vec<(usize, u64)> {
        let mut acc = 0u64;
        self.daily_executions
            .iter()
            .enumerate()
            .map(|(day, &n)| {
                acc += n;
                (day, acc)
            })
            .collect()
    }

    /// Mean pending jobs per machine over a time window (paper Fig 9's
    /// week-long average).
    #[must_use]
    pub fn mean_pending(&self, machine: usize, from_s: f64, to_s: f64) -> f64 {
        let (sum, count) = self
            .queue_samples
            .iter()
            .filter(|s| s.machine == machine && s.time_s >= from_s && s.time_s < to_s)
            .fold((0usize, 0usize), |(sum, count), s| {
                (sum + s.pending, count + 1)
            });
        if count == 0 {
            return 0.0;
        }
        sum as f64 / count as f64
    }

    /// [`mean_pending`](Self::mean_pending) for every machine in a single
    /// pass over the samples — per-machine callers looping over
    /// `mean_pending` rescan the whole sample vec once per machine.
    #[must_use]
    pub fn mean_pending_by_machine(&self, num_machines: usize, from_s: f64, to_s: f64) -> Vec<f64> {
        let mut sums = vec![0usize; num_machines];
        let mut counts = vec![0usize; num_machines];
        for s in &self.queue_samples {
            if s.machine < num_machines && s.time_s >= from_s && s.time_s < to_s {
                sums[s.machine] += s.pending;
                counts[s.machine] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&sum, &count)| {
                if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                }
            })
            .collect()
    }

    /// Fraction of executed (non-cancelled) recorded jobs that crossed a
    /// calibration boundary between submission and the end of execution
    /// (Fig 12a).
    #[must_use]
    pub fn calibration_crossover_fraction(&self) -> f64 {
        let (crossed, executed) = self
            .records
            .iter()
            .filter(|r| r.outcome != JobOutcome::Cancelled)
            .fold((0usize, 0usize), |(crossed, executed), r| {
                (crossed + usize::from(r.crossed_calibration), executed + 1)
            });
        if executed == 0 {
            return 0.0;
        }
        crossed as f64 / executed as f64
    }
}

/// The cloud simulator.
///
/// # Examples
///
/// ```
/// use qcs_cloud::{CloudConfig, JobSpec, Simulation};
/// use qcs_machine::Fleet;
///
/// let fleet = Fleet::ibm_like();
/// let jobs = vec![JobSpec {
///     id: 0, provider: 0, machine: 1, circuits: 10, shots: 1024,
///     mean_depth: 20.0, mean_width: 3.0, submit_s: 0.0, is_study: true,
///     patience_s: f64::INFINITY,
/// }];
/// let result = Simulation::new(fleet, CloudConfig::default()).run(jobs);
/// assert_eq!(result.records.len(), 1);
/// assert!(result.records[0].exec_time_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    fleet: Fleet,
    config: CloudConfig,
    outages: OutagePlan,
}

impl Simulation {
    /// Create a simulator over a fleet with no machine outages.
    #[must_use]
    pub fn new(fleet: Fleet, config: CloudConfig) -> Self {
        let machines = fleet.len();
        Simulation {
            fleet,
            config,
            outages: OutagePlan::none(machines),
        }
    }

    /// Attach a maintenance/outage plan: machines stop dispatching new
    /// jobs during their windows (in-flight jobs finish), and the backlog
    /// drains afterwards — the mechanism behind day-long queue tails.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different number of machines.
    #[must_use]
    pub fn with_outages(mut self, outages: OutagePlan) -> Self {
        assert_eq!(
            outages.num_machines(),
            self.fleet.len(),
            "outage plan machine count mismatch"
        );
        self.outages = outages;
        self
    }

    /// The fleet under simulation.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Run the simulation over a set of jobs (any submission order; equal
    /// submission times arrive in input order).
    ///
    /// Deterministic for a fixed `(fleet, config, jobs)`. This feeds the
    /// incremental [`LiveCloud`](crate::LiveCloud) core in windows: after a
    /// stable sort by submission time, it submits the next window of jobs
    /// plus any tied with the last of them, steps the clock to that
    /// submission time, and repeats, so the core holds one window plus
    /// the in-flight jobs rather than the whole trace. Any stepping of a
    /// sorted trace is bit-identical to submitting it all up front (see
    /// `tests/properties.rs::live_matches_batch`).
    ///
    /// # Panics
    ///
    /// Panics with the [`SubmitError`](crate::SubmitError) message of the
    /// first invalid job in submission-time order: a machine index outside
    /// the fleet, a provider outside `config.num_providers`, a negative or
    /// non-finite submission time, or a negative or `NaN` patience.
    #[must_use]
    pub fn run(&self, mut jobs: Vec<JobSpec>) -> SimulationResult {
        // Callers pass sorted traces, on which this is one O(n) pass.
        jobs.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
        let mut live = crate::LiveCloud::new(self.fleet.clone(), self.config)
            .with_outages(self.outages.clone());
        let mut jobs = jobs.into_iter().peekable();
        while jobs.peek().is_some() {
            let mut horizon_s = 0.0;
            for job in jobs.by_ref().take(WINDOW) {
                horizon_s = job.submit_s;
                live.submit(job).unwrap_or_else(|e| panic!("{e}"));
            }
            while let Some(job) = jobs.next_if(|j| j.submit_s == horizon_s) {
                live.submit(job).unwrap_or_else(|e| panic!("{e}"));
            }
            live.step_until(horizon_s);
        }
        live.run_to_completion();
        live.into_result()
    }
}

/// Jobs [`Simulation::run`] submits before each step: enough that a step
/// costs nothing next to its events, few enough that the slab and the
/// arrival queue stay small.
const WINDOW: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, machine: usize, submit: f64) -> JobSpec {
        JobSpec {
            id,
            provider: (id % 4) as u32,
            machine,
            circuits: 5,
            shots: 1024,
            mean_depth: 20.0,
            mean_width: 3.0,
            submit_s: submit,
            is_study: id.is_multiple_of(2),
            patience_s: f64::INFINITY,
        }
    }

    fn sim() -> Simulation {
        Simulation::new(Fleet::ibm_like(), CloudConfig::default())
    }

    #[test]
    fn single_job_executes_immediately() {
        let result = sim().run(vec![job(0, 1, 100.0)]);
        assert_eq!(result.records.len(), 1);
        let r = &result.records[0];
        assert_eq!(r.queue_time_s(), 0.0);
        assert!(r.exec_time_s() > 0.0);
        assert_eq!(r.pending_at_submit, 0);
        assert_eq!(result.total_jobs, 1);
    }

    #[test]
    fn back_to_back_jobs_queue() {
        let jobs = vec![job(0, 1, 0.0), job(1, 1, 1.0)];
        let result = sim().run(jobs);
        assert_eq!(result.records.len(), 2);
        let second = result.records.iter().find(|r| r.id == 1).unwrap();
        assert!(second.queue_time_s() > 0.0, "second job should wait");
        assert_eq!(second.pending_at_submit, 1);
    }

    #[test]
    fn different_machines_run_in_parallel() {
        let jobs = vec![job(0, 1, 0.0), job(1, 2, 0.0)];
        let result = sim().run(jobs);
        assert!(result.records.iter().all(|r| r.queue_time_s() == 0.0));
    }

    #[test]
    fn impatient_job_cancels() {
        let mut blocked = job(1, 1, 1.0);
        blocked.patience_s = 2.0; // gives up after 2 seconds in queue
        let jobs = vec![job(0, 1, 0.0), blocked];
        // Disable fault injection so the first job runs full length.
        let config = CloudConfig {
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        let cancelled = result.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(cancelled.outcome, JobOutcome::Cancelled);
        assert_eq!(cancelled.exec_time_s(), 0.0);
        assert!((cancelled.start_s - 3.0).abs() < 1e-9);
        assert_eq!(result.outcome_counts, [1, 0, 1]);
    }

    #[test]
    fn error_rate_produces_errored_jobs() {
        let config = CloudConfig {
            error_rate: 0.5,
            ..CloudConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..200).map(|i| job(i, 1, i as f64 * 500.0)).collect();
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        let (completed, errored, cancelled) = result.outcome_fractions();
        assert!(errored > 0.3 && errored < 0.7, "errored {errored}");
        assert!((completed + errored + cancelled - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_runs() {
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| job(i, (i % 3) as usize + 1, i as f64 * 10.0))
            .collect();
        let a = sim().run(jobs.clone());
        let b = sim().run(jobs);
        assert_eq!(a.records, b.records);
        assert_eq!(a.queue_samples, b.queue_samples);
        assert_eq!(a.daily_executions, b.daily_executions);
    }

    #[test]
    fn queue_samples_emitted() {
        let config = CloudConfig {
            sample_interval_hours: 0.001, // dense sampling for the test
            ..CloudConfig::default()
        };
        let jobs = vec![job(0, 1, 0.0), job(1, 1, 1.0), job(2, 1, 2.0)];
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        assert!(!result.queue_samples.is_empty());
        let max_pending = result
            .queue_samples
            .iter()
            .filter(|s| s.machine == 1)
            .map(|s| s.pending)
            .max()
            .unwrap();
        assert!(max_pending >= 2, "max pending {max_pending}");
        assert!(result.mean_pending(1, 0.0, 1e9) > 0.0);
    }

    #[test]
    fn crossover_detected_for_overnight_waits() {
        // Submit just before the machine's calibration hour; a long queue
        // forces execution after calibration.
        let fleet = Fleet::ibm_like();
        let m = 1;
        let cal_hour = fleet.machines()[m].schedule().calibration_hour;
        let submit = (cal_hour - 0.01) * 3600.0;
        let mut big = job(0, m, submit - 50.0);
        big.circuits = 900;
        big.shots = 8192; // occupies the machine for a long time
        let small = job(1, m, submit);
        let result = Simulation::new(fleet, CloudConfig::default()).run(vec![big, small]);
        let r = result.records.iter().find(|r| r.id == 1).unwrap();
        assert!(r.queue_time_s() > 0.0);
        assert!(r.crossed_calibration, "queued across calibration");
        assert!(result.calibration_crossover_fraction() > 0.0);
    }

    #[test]
    fn study_filter() {
        let jobs = vec![job(0, 1, 0.0), job(1, 1, 1.0)];
        let result = sim().run(jobs);
        assert_eq!(result.study_records().count(), 1);
        let on_machine = |m| result.records.iter().filter(|r| r.machine == m).count();
        assert_eq!(on_machine(1), 2);
        assert_eq!(on_machine(5), 0);
    }

    #[test]
    fn background_sampling_keeps_aggregates() {
        let config = CloudConfig {
            background_record_divisor: 10,
            ..CloudConfig::default()
        };
        // ids 1,3,5,... are background (is_study = id % 2 == 0).
        let jobs: Vec<JobSpec> = (0..100).map(|i| job(i, 1, i as f64 * 400.0)).collect();
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        assert_eq!(result.total_jobs, 100);
        // All 50 study records plus background ids divisible by 10.
        let study = result.records.iter().filter(|r| r.is_study).count();
        let background = result.records.len() - study;
        assert_eq!(study, 50);
        assert!(background < 50, "background sampled, got {background}");
    }

    #[test]
    fn cumulative_executions_monotonic() {
        let jobs: Vec<JobSpec> = (0..20)
            .map(|i| job(i, 1, i as f64 * 40_000.0))
            .collect();
        let result = sim().run(jobs);
        let cum = result.cumulative_executions();
        assert!(!cum.is_empty());
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
        let total: u64 = result.daily_executions.iter().sum();
        assert_eq!(cum.last().unwrap().1, total);
    }

    #[test]
    fn outage_blocks_dispatch_until_window_end() {
        use crate::OutagePlan;
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[1] = vec![(0.0, 1000.0)];
        let sim = Simulation::new(fleet, CloudConfig::default())
            .with_outages(OutagePlan::from_windows(windows));
        let result = sim.run(vec![job(0, 1, 10.0)]);
        let r = &result.records[0];
        assert!(
            (r.start_s - 1000.0).abs() < 1e-6,
            "job should start at outage end, started {}",
            r.start_s
        );
        assert!(r.queue_time_s() >= 989.0);
    }

    #[test]
    fn outage_on_other_machine_is_invisible() {
        use crate::OutagePlan;
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[2] = vec![(0.0, 1000.0)];
        let sim = Simulation::new(fleet, CloudConfig::default())
            .with_outages(OutagePlan::from_windows(windows));
        let result = sim.run(vec![job(0, 1, 10.0)]);
        assert_eq!(result.records[0].queue_time_s(), 0.0);
    }

    #[test]
    fn all_jobs_error_under_full_fault_injection() {
        let config = CloudConfig {
            error_rate: 1.0,
            ..CloudConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..30).map(|i| job(i, 1, i as f64 * 100.0)).collect();
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        assert_eq!(result.outcome_counts[1], 30);
        // Errored jobs still execute partially.
        assert!(result.records.iter().all(|r| r.exec_time_s() > 0.0));
    }

    #[test]
    fn outage_spanning_whole_run_delays_everything() {
        use crate::OutagePlan;
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[1] = vec![(0.0, 1e6)];
        let sim = Simulation::new(fleet, CloudConfig::default())
            .with_outages(OutagePlan::from_windows(windows));
        let jobs: Vec<JobSpec> = (0..5).map(|i| job(i, 1, i as f64)).collect();
        let result = sim.run(jobs);
        // All jobs eventually run, after the outage lifts.
        assert_eq!(result.records.len(), 5);
        assert!(result.records.iter().all(|r| r.start_s >= 1e6));
    }

    #[test]
    fn sjf_discipline_changes_order() {
        use crate::Discipline;
        // A long job and a short job arrive while the machine is busy;
        // SJF runs the short one first, FIFO preserves arrival order.
        let mut long_job = job(1, 1, 1.0);
        long_job.circuits = 900;
        long_job.shots = 8192;
        let short_job = job(2, 1, 2.0);
        let blocker = job(0, 1, 0.0);
        for (discipline, expect_first) in
            [(Discipline::Fifo, 1u64), (Discipline::ShortestJobFirst, 2)]
        {
            let config = CloudConfig {
                discipline,
                error_rate: 0.0,
                ..CloudConfig::default()
            };
            let result = Simulation::new(Fleet::ibm_like(), config).run(vec![
                blocker.clone(),
                long_job.clone(),
                short_job.clone(),
            ]);
            let mut by_start: Vec<&JobRecord> =
                result.records.iter().filter(|r| r.id != 0).collect();
            by_start.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            assert_eq!(
                by_start[0].id, expect_first,
                "unexpected order under {discipline:?}"
            );
        }
    }

    #[test]
    fn executions_counted() {
        let result = sim().run(vec![job(0, 1, 0.0)]);
        assert_eq!(result.records[0].executions(), 5 * 1024);
    }

    #[test]
    fn crossover_counted_when_run_spans_calibration() {
        // Regression: a job dispatched *before* the calibration hour whose
        // execution crosses the boundary mid-run must count as a
        // crossover. The old code compared submission to dispatch time and
        // missed every boundary crossed during execution, biasing
        // Fig 12a's fraction low for long jobs.
        let fleet = Fleet::ibm_like();
        let m = 1;
        let cal_hour = fleet.machines()[m].schedule().calibration_hour;
        let config = CloudConfig {
            error_rate: 0.0,
            exec_noise_cov: 0.0, // deterministic durations
            audit: true,
            ..CloudConfig::default()
        };
        // Empty machine: dispatched at submission, 5 s before calibration.
        let mut big = job(0, m, cal_hour * 3600.0 - 5.0);
        big.circuits = 900;
        big.shots = 8192;
        let result = Simulation::new(fleet, config).run(vec![big]);
        let r = &result.records[0];
        assert_eq!(r.queue_time_s(), 0.0, "job should not have queued");
        assert!(r.exec_time_s() > 5.0, "job too short to span the boundary");
        assert!(r.crossed_calibration, "mid-run crossover not counted");
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn cancel_at_exact_dispatch_instant_is_stale() {
        // The blocker's completion event was enqueued before the waiter's
        // cancel event, so at the shared instant the completion fires
        // first, the waiter is dispatched, and the cancel finds nothing
        // queued: the job runs.
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            exec_noise_cov: 0.0,
            audit: true,
            ..CloudConfig::default()
        };
        let base = fleet.machines()[1]
            .cost_model()
            .job_time_uniform_s(5, 20, 1024);
        let blocker = job(0, 1, 0.0); // completes at exactly `base`
        let mut waiter = job(1, 1, 0.0); // same instant, after the blocker
        waiter.patience_s = base; // cancel fires at exactly `base`
        let result = Simulation::new(fleet, config).run(vec![blocker, waiter]);
        assert_eq!(result.outcome_counts, [2, 0, 0]);
        assert_eq!(result.total_jobs, 2);
        let w = result.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(w.outcome, JobOutcome::Completed);
        assert!((w.start_s - base).abs() < 1e-9, "started {}", w.start_s);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn cancel_at_outage_end_beats_resume() {
        // The reverse ordering: the cancel event was enqueued at arrival,
        // before the resume event, so at the outage-end instant the job is
        // cancelled first and the resume finds an empty queue.
        use crate::OutagePlan;
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[1] = vec![(0.0, 100.0)];
        let config = CloudConfig {
            audit: true,
            ..CloudConfig::default()
        };
        let mut j = job(0, 1, 10.0);
        j.patience_s = 90.0; // fires at exactly the outage end
        let result = Simulation::new(fleet, config)
            .with_outages(OutagePlan::from_windows(windows))
            .run(vec![j]);
        assert_eq!(result.outcome_counts, [0, 0, 1]);
        let r = &result.records[0];
        assert_eq!(r.outcome, JobOutcome::Cancelled);
        assert_eq!(r.start_s, 100.0);
        assert_eq!(r.exec_time_s(), 0.0);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn cancel_during_outage_window() {
        use crate::OutagePlan;
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[1] = vec![(0.0, 1000.0)];
        let config = CloudConfig {
            audit: true,
            ..CloudConfig::default()
        };
        let mut j = job(0, 1, 10.0);
        j.patience_s = 50.0; // gives up mid-outage, at t = 60
        let result = Simulation::new(fleet, config)
            .with_outages(OutagePlan::from_windows(windows))
            .run(vec![j]);
        assert_eq!(result.outcome_counts, [0, 0, 1]);
        assert_eq!(result.total_jobs, 1);
        assert_eq!(result.records[0].start_s, 60.0);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn stale_cancel_for_completed_job_is_ignored() {
        // A finite patience far beyond the completion time leaves a stale
        // cancel event in the heap; it must not double-record the job.
        let config = CloudConfig {
            error_rate: 0.0,
            audit: true,
            ..CloudConfig::default()
        };
        let mut j = job(0, 1, 0.0);
        j.patience_s = 1e6;
        let result = Simulation::new(Fleet::ibm_like(), config).run(vec![j]);
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.total_jobs, 1);
        assert_eq!(result.outcome_counts, [1, 0, 0]);
        assert_eq!(result.records[0].outcome, JobOutcome::Completed);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn audit_clean_on_busy_trace() {
        // A contended multi-machine trace with cancellations, errors, and
        // record sampling keeps every invariant.
        let config = CloudConfig {
            audit: true,
            error_rate: 0.2,
            background_record_divisor: 5,
            sample_interval_hours: 0.01,
            ..CloudConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..120)
            .map(|i| {
                let mut j = job(i, (i % 3) as usize + 1, i as f64 * 3.0);
                // Batches large enough that arrivals outpace service and
                // queues build, so the impatient jobs actually cancel.
                j.circuits = 40;
                if i % 4 == 0 {
                    j.patience_s = 20.0;
                }
                j
            })
            .collect();
        let result = Simulation::new(Fleet::ibm_like(), config).run(jobs);
        let report = result.audit.as_ref().expect("audit enabled");
        assert_eq!(report.records_audited, 120);
        report.assert_clean();
        assert!(result.outcome_counts[2] > 0, "no cancellations exercised");
    }

    #[test]
    fn audit_disabled_by_default() {
        let result = sim().run(vec![job(0, 1, 0.0)]);
        assert!(result.audit.is_none());
    }

    #[test]
    fn windowed_feed_matches_submit_everything_then_drain() {
        // Over two windows of jobs in groups of seven tied submission
        // times. `WINDOW % 7 == 1`, so the last job of every window opens a
        // tie group and the ties straddle each edge. The input is shuffled,
        // so ties arrive in neither id nor time order. The oracle is the
        // old body of `run`: the same stable sort, every job submitted up
        // front, one drain.
        const GROUP: usize = 7;
        assert_eq!(WINDOW % GROUP, 1, "ties must straddle every window edge");
        let n = 2 * WINDOW + 1000;
        let jobs: Vec<JobSpec> = (0..n)
            .map(|k| {
                // 7919 is prime and does not divide n: a permutation.
                let i = k * 7919 % n;
                let mut j = job(i as u64, 1 + i % 6, (i / GROUP) as f64 * 20.0);
                j.circuits = 1 + (i % 40) as u32;
                if i.is_multiple_of(9) {
                    j.patience_s = 60.0;
                }
                j
            })
            .collect();
        let fleet = Fleet::ibm_like();
        let outages = OutagePlan::sample(fleet.len(), 0.4, 0.05, 0.5, 11);
        let config = CloudConfig {
            audit: true,
            sample_interval_hours: 0.05,
            ..CloudConfig::default()
        };
        let windowed = Simulation::new(fleet.clone(), config)
            .with_outages(outages.clone())
            .run(jobs.clone());

        let mut sorted = jobs;
        sorted.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
        let mut live = crate::LiveCloud::new(fleet, config).with_outages(outages);
        for j in sorted {
            live.submit(j).unwrap();
        }
        live.run_to_completion();
        let drained = live.into_result();

        assert_eq!(windowed.total_jobs, n as u64);
        assert!(windowed.outcome_counts[2] > 0, "no cancellations exercised");
        assert_eq!(windowed.records, drained.records);
        assert_eq!(windowed.queue_samples, drained.queue_samples);
        assert_eq!(windowed.outcome_counts, drained.outcome_counts);
        assert_eq!(windowed.daily_executions, drained.daily_executions);
        windowed.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    #[should_panic(expected = "job 2 has non-finite submission time NaN")]
    fn run_panics_on_a_nan_submit_time() {
        // Sorted by `total_cmp`, NaN comes last: the window loop meets it
        // after the valid jobs and panics rather than stepping forever.
        let mut bad = job(2, 1, 0.0);
        bad.submit_s = f64::NAN;
        let _ = sim().run(vec![bad, job(0, 1, 5.0), job(1, 1, 9.0)]);
    }
}
