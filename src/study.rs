//! The end-to-end study runner: fleet + workload + cloud simulation +
//! per-figure data extraction.

use std::collections::HashMap;

use qcs_cloud::{CloudConfig, JobOutcome, JobRecord, OutagePlan, Simulation, SimulationResult};
use qcs_exec::ExecConfig;
use qcs_machine::Fleet;
use qcs_predictor::{run_prediction_study, PredictionStudy};
use qcs_stats::{fraction_where, median, Summary};
use qcs_workload::{stream, WorkloadConfig};

/// Configuration of a full study run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Workload generation parameters.
    pub workload: WorkloadConfig,
    /// Cloud simulation parameters.
    pub cloud: CloudConfig,
    /// Mean days between machine maintenance outages (0 disables).
    pub outage_interval_days: f64,
    /// Mean outage duration, hours.
    pub outage_duration_hours: f64,
    /// Worker-pool configuration for the per-machine analysis fan-out
    /// (the per-machine summaries of Figs 8/10/13). Analysis results do
    /// not depend on the thread count.
    pub exec: ExecConfig,
}

impl StudyConfig {
    /// The paper-scale configuration: 730 days, 6000 study jobs, background
    /// records sampled 1-in-20 (aggregates still cover everything).
    #[must_use]
    pub fn full() -> Self {
        StudyConfig {
            workload: WorkloadConfig::default(),
            cloud: CloudConfig {
                background_record_divisor: 20,
                ..CloudConfig::default()
            },
            outage_interval_days: 12.0,
            outage_duration_hours: 18.0,
            exec: ExecConfig::default(),
        }
    }

    /// A fast configuration for tests, examples and CI: two weeks of
    /// trace, 150 study jobs.
    #[must_use]
    pub fn smoke() -> Self {
        StudyConfig {
            workload: WorkloadConfig::smoke(),
            cloud: CloudConfig::default(),
            outage_interval_days: 12.0,
            outage_duration_hours: 18.0,
            exec: ExecConfig::default(),
        }
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig::smoke()
    }
}

/// A completed study: the simulated trace plus analysis accessors, one per
/// figure of the paper. The accessors read the retained job records, so
/// under [`qcs_cloud::RecordSink::Streaming`] (which retains none) every
/// record-based series, Fig 8 included, is empty.
#[derive(Debug)]
pub struct Study {
    fleet: Fleet,
    result: SimulationResult,
    exec: ExecConfig,
}

impl Study {
    /// Run the cloud simulation on the workload, streamed from the
    /// generator as the clock reaches it (the trace is never held whole).
    #[must_use]
    pub fn run(config: &StudyConfig) -> Self {
        let fleet = Fleet::ibm_like();
        let result = Simulation::new(fleet.clone(), config.cloud)
            .with_outages(study_outages(config, &fleet))
            .run_in_order(stream(&fleet, &config.workload));
        Study {
            fleet,
            result,
            exec: config.exec,
        }
    }

    /// The simulated fleet.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The raw simulation result.
    #[must_use]
    pub fn result(&self) -> &SimulationResult {
        &self.result
    }

    /// The invariant-audit report, present when the study ran with
    /// [`CloudConfig::audit`] enabled.
    #[must_use]
    pub fn audit_report(&self) -> Option<&qcs_cloud::AuditReport> {
        self.result.audit.as_ref()
    }

    /// Study job records that actually executed (completed or errored),
    /// lazily — figure methods fold or collect as needed instead of
    /// re-materializing a `Vec<&JobRecord>` per call.
    pub fn executed_study_records(&self) -> impl Iterator<Item = &JobRecord> + '_ {
        self.result
            .records
            .iter()
            .filter(|r| r.is_study && r.outcome != JobOutcome::Cancelled)
    }

    // --- Fig 2 ----------------------------------------------------------

    /// Fig 2a: cumulative executions per day (whole population).
    #[must_use]
    pub fn cumulative_executions(&self) -> Vec<(usize, u64)> {
        self.result.cumulative_executions()
    }

    /// Fig 2a (study view): cumulative executions of the instrumented
    /// study jobs only — the series directly comparable to the paper's
    /// ~10 billion trials, since the paper counts its own experiments.
    #[must_use]
    pub fn cumulative_study_executions(&self) -> Vec<(usize, u64)> {
        let mut daily: Vec<u64> = Vec::new();
        for r in self.executed_study_records() {
            let day = (r.end_s / 86_400.0).floor().max(0.0) as usize;
            if daily.len() <= day {
                daily.resize(day + 1, 0);
            }
            daily[day] += r.executions();
        }
        let mut acc = 0u64;
        daily
            .into_iter()
            .enumerate()
            .map(|(day, n)| {
                acc += n;
                (day, acc)
            })
            .collect()
    }

    /// Fig 2b: `(completed, errored, cancelled)` fractions.
    #[must_use]
    pub fn outcome_fractions(&self) -> (f64, f64, f64) {
        self.result.outcome_fractions()
    }

    // --- Fig 3 ----------------------------------------------------------

    /// Fig 3: sorted queue times (minutes) of executed study jobs.
    #[must_use]
    pub fn queue_times_sorted_min(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .executed_study_records()
            .map(|r| r.queue_time_s() / 60.0)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Fig 3 anchors: `(frac under 1 min, median minutes, frac over 2 h,
    /// frac over 1 day)`.
    #[must_use]
    pub fn queue_time_anchors(&self) -> (f64, f64, f64, f64) {
        let q = self.queue_times_sorted_min();
        (
            fraction_where(&q, |m| m < 1.0),
            median(&q),
            fraction_where(&q, |m| m > 120.0),
            fraction_where(&q, |m| m >= 1440.0),
        )
    }

    // --- Fig 4 ----------------------------------------------------------

    /// Fig 4: sorted queue/execution ratios of executed study jobs.
    #[must_use]
    pub fn queue_exec_ratios_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .executed_study_records()
            .filter_map(JobRecord::queue_exec_ratio)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    // --- Fig 8 ----------------------------------------------------------

    /// Fig 8: per-machine utilization summary over study circuits
    /// (`width / machine qubits`): each study job's
    /// [`JobRecord::utilization`] counted once per circuit of its batch.
    /// Only machines with data are returned.
    #[must_use]
    pub fn utilization_by_machine(&self) -> Vec<(String, Summary)> {
        let mut per_machine: HashMap<usize, Vec<(f64, usize)>> = HashMap::new();
        for r in self.result.study_records() {
            let qubits = self.fleet.machines()[r.machine].num_qubits();
            per_machine
                .entry(r.machine)
                .or_default()
                .push((r.utilization(qubits), r.circuits as usize));
        }
        self.named_summaries(per_machine, Summary::of_runs)
    }

    // --- Fig 9 ----------------------------------------------------------

    /// Fig 9: mean pending jobs per machine over a late-study week,
    /// `(machine name, qubits, public?, mean pending)`.
    #[must_use]
    pub fn pending_jobs_by_machine(&self) -> Vec<(String, usize, bool, f64)> {
        // Use the last full week of *arrivals*: after the submission
        // horizon the simulator merely drains its backlog, which would
        // bias the averages toward zero.
        let end = self
            .result
            .records
            .iter()
            .map(|r| r.submit_s)
            .fold(0.0f64, f64::max);
        let from = (end - 7.0 * 86_400.0).max(0.0);
        // One pass over the queue samples for every machine at once —
        // per-machine `mean_pending` calls would rescan the whole sample
        // series fleet-len times.
        let pending = self
            .result
            .mean_pending_by_machine(self.fleet.len(), from, end + 1.0);
        self.fleet
            .iter()
            .zip(pending)
            .map(|(m, mean)| {
                (
                    m.name().to_string(),
                    m.num_qubits(),
                    m.access().is_public(),
                    mean,
                )
            })
            .collect()
    }

    // --- Fig 10 ---------------------------------------------------------

    /// Fig 10: queue-time summaries (hours) per machine over all recorded
    /// executed jobs.
    #[must_use]
    pub fn queue_time_by_machine(&self) -> Vec<(String, Summary)> {
        let mut per_machine: HashMap<usize, Vec<f64>> = HashMap::new();
        for r in &self.result.records {
            if r.outcome != JobOutcome::Cancelled {
                per_machine
                    .entry(r.machine)
                    .or_default()
                    .push(r.queue_time_s() / 3600.0);
            }
        }
        self.named_summaries(per_machine, Summary::of)
    }

    // --- Fig 11 ---------------------------------------------------------

    /// Fig 11: `(batch bucket label, median queue time per job (min),
    /// median queue time per circuit (min), jobs)` for executed study jobs.
    #[must_use]
    pub fn queue_time_vs_batch(&self) -> Vec<(String, f64, f64, usize)> {
        const BUCKETS: [(u32, u32, &str); 5] = [
            (1, 1, "1"),
            (2, 10, "2-10"),
            (11, 100, "11-100"),
            (101, 899, "101-899"),
            (900, 900, "900"),
        ];
        let records: Vec<&JobRecord> = self.executed_study_records().collect();
        BUCKETS
            .iter()
            .map(|&(lo, hi, label)| {
                let in_bucket: Vec<&&JobRecord> = records
                    .iter()
                    .filter(|r| (lo..=hi).contains(&r.circuits))
                    .collect();
                let per_job: Vec<f64> =
                    in_bucket.iter().map(|r| r.queue_time_s() / 60.0).collect();
                let per_circuit: Vec<f64> = in_bucket
                    .iter()
                    .map(|r| r.queue_time_per_circuit_s() / 60.0)
                    .collect();
                (
                    label.to_string(),
                    median(&per_job),
                    median(&per_circuit),
                    in_bucket.len(),
                )
            })
            .collect()
    }

    // --- Fig 12a --------------------------------------------------------

    /// Fig 12a: fraction of executed recorded jobs whose queueing crossed a
    /// calibration boundary.
    #[must_use]
    pub fn calibration_crossover_fraction(&self) -> f64 {
        self.result.calibration_crossover_fraction()
    }

    // --- Fig 13 ---------------------------------------------------------

    /// Fig 13: execution-time summaries (minutes) per machine over all
    /// recorded completed jobs.
    #[must_use]
    pub fn exec_time_by_machine(&self) -> Vec<(String, Summary)> {
        let mut per_machine: HashMap<usize, Vec<f64>> = HashMap::new();
        for r in &self.result.records {
            if r.outcome == JobOutcome::Completed {
                per_machine
                    .entry(r.machine)
                    .or_default()
                    .push(r.exec_time_s() / 60.0);
            }
        }
        self.named_summaries(per_machine, Summary::of)
    }

    // --- Fig 14 ---------------------------------------------------------

    /// Fig 14: `(batch size, runtime minutes)` scatter of completed study
    /// jobs.
    #[must_use]
    pub fn runtime_vs_batch(&self) -> Vec<(u32, f64)> {
        self.result
            .records
            .iter()
            .filter(|r| r.is_study && r.outcome == JobOutcome::Completed)
            .map(|r| (r.circuits, r.exec_time_s() / 60.0))
            .collect()
    }

    // --- Figs 15/16 -----------------------------------------------------

    /// Figs 15–16: fit the runtime predictor on completed study jobs and
    /// evaluate Pearson correlation per machine (70/30 split).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 10 study jobs completed.
    #[must_use]
    pub fn prediction_study(&self, seed: u64) -> PredictionStudy {
        let records: Vec<&JobRecord> = self
            .result
            .records
            .iter()
            .filter(|r| r.is_study)
            .collect();
        let qubits: Vec<usize> = self.fleet.iter().map(qcs_machine::Machine::num_qubits).collect();
        run_prediction_study(&records, &qubits, 0.7, seed, 4)
    }

    /// Machine name by index.
    #[must_use]
    pub fn machine_name(&self, index: usize) -> &str {
        self.fleet.machines()[index].name()
    }

    /// `summarize` each machine's sample, in machine order, with its name.
    fn named_summaries<T: Sync>(
        &self,
        per_machine: HashMap<usize, Vec<T>>,
        summarize: impl Fn(&[T]) -> Summary + Sync,
    ) -> Vec<(String, Summary)> {
        let mut keyed: Vec<(usize, Vec<T>)> = per_machine.into_iter().collect();
        keyed.sort_by_key(|(m, _)| *m);
        qcs_exec::parallel_map(&self.exec, &keyed, |_, (m, sample)| {
            (
                self.fleet.machines()[*m].name().to_string(),
                summarize(sample),
            )
        })
    }
}

/// The sampled maintenance plan of a study configuration.
fn study_outages(config: &StudyConfig, fleet: &Fleet) -> OutagePlan {
    if config.outage_interval_days > 0.0 {
        OutagePlan::sample(
            fleet.len(),
            config.workload.days,
            config.outage_interval_days,
            config.outage_duration_hours,
            config.workload.seed ^ 0x0u64.wrapping_sub(0x6F75_7461_6765), // "outage"-derived
        )
    } else {
        OutagePlan::none(fleet.len())
    }
}

/// Analysis of an externally ingested job log (see
/// [`qcs_workload::ingest`]): the audit and queue-prediction halves of
/// the study pipeline, run over real records instead of simulated ones.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalTraceReport {
    /// Records analyzed.
    pub total_jobs: usize,
    /// `[completed, errored, cancelled]` counts.
    pub outcome_counts: [u64; 3],
    /// Median queue time over completed jobs, minutes.
    pub median_queue_min: f64,
    /// Causality violations (`submit <= start <= end`, durations) found
    /// by the study auditor. Ingestion validates per row, so anything
    /// here indicates a bug in the adapter, not the log.
    pub causality_violations: usize,
    /// Queue-wait evaluation on the held-out 30% tail (submission order),
    /// when the training head contains at least one completed job.
    pub queue_prediction: Option<qcs_predictor::QueuePredictionReport>,
}

/// Run an ingested external trace through the study's audit and
/// queue-prediction pipeline: causality checks over every record, then a
/// [`qcs_predictor::OnlinePredictor`] trained on the first 70%
/// (submission order) and scored on the rest.
#[must_use]
pub fn external_trace_report(trace: &qcs_workload::IngestedTrace) -> ExternalTraceReport {
    let records = &trace.records;
    let mut outcome_counts = [0u64; 3];
    for r in records {
        let slot = match r.outcome {
            JobOutcome::Completed => 0,
            JobOutcome::Errored => 1,
            JobOutcome::Cancelled => 2,
        };
        outcome_counts[slot] += 1;
    }
    let mut queue_min: Vec<f64> = records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed)
        .map(|r| r.queue_time_s() / 60.0)
        .collect();
    queue_min.sort_by(f64::total_cmp);
    let causality_violations = qcs_cloud::audit::check_causality(records).len();
    let split = records.len() * 7 / 10;
    let (train, test) = records.split_at(split);
    let mut online = qcs_predictor::OnlinePredictor::new(trace.machine_qubits.clone());
    for r in train {
        online.observe(r);
    }
    let queue_prediction = online.ready().then(|| {
        qcs_predictor::evaluate_queue_prediction(&online, &test.iter().collect::<Vec<_>>())
    });
    ExternalTraceReport {
        total_jobs: records.len(),
        outcome_counts,
        // Zero-job semantics, not NaN: an empty completed set reads as 0.
        median_queue_min: qcs_stats::quantile(&queue_min, 0.5).unwrap_or(0.0),
        causality_violations,
        queue_prediction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_study() -> Study {
        Study::run(&StudyConfig::smoke())
    }

    #[test]
    fn live_core_matches_batch_on_smoke_study() {
        // `Study::run` streams the generator into the core in windows;
        // the study's whole trace, generated, submitted up front and
        // drained in one step, must equal it bit for bit.
        let config = StudyConfig {
            cloud: CloudConfig {
                audit: true,
                ..CloudConfig::default()
            },
            ..StudyConfig::smoke()
        };
        let batch = Study::run(&config);

        let fleet = Fleet::ibm_like();
        let outages = study_outages(&config, &fleet);
        let workload = qcs_workload::generate(&fleet, &config.workload);
        let mut live = qcs_cloud::LiveCloud::new(fleet, config.cloud).with_outages(outages);
        for job in workload.jobs {
            live.submit(job).expect("generated jobs are valid");
        }
        live.run_to_completion();
        let l = live.into_result();

        let b = batch.result();
        assert_eq!(b.records, l.records);
        assert_eq!(b.queue_samples, l.queue_samples);
        assert_eq!(b.total_jobs, l.total_jobs);
        assert_eq!(b.outcome_counts, l.outcome_counts);
        assert_eq!(b.daily_executions, l.daily_executions);
        l.audit.as_ref().expect("audited").assert_clean();
    }

    #[test]
    fn smoke_study_produces_all_figures() {
        let study = smoke_study();

        // Fig 2.
        let cum = study.cumulative_executions();
        assert!(!cum.is_empty());
        let (completed, errored, cancelled) = study.outcome_fractions();
        assert!(completed > 0.85, "completed {completed}");
        assert!(errored > 0.0);
        assert!((completed + errored + cancelled - 1.0).abs() < 1e-9);

        // Fig 3/4.
        let q = study.queue_times_sorted_min();
        assert!(!q.is_empty());
        assert!(q.windows(2).all(|w| w[0] <= w[1]));
        let ratios = study.queue_exec_ratios_sorted();
        assert!(!ratios.is_empty());

        // Fig 8: small machines more utilized than the 65q machines.
        let util = study.utilization_by_machine();
        assert!(!util.is_empty());

        // Fig 9: athens should be among the most loaded machines.
        let pending = study.pending_jobs_by_machine();
        assert_eq!(pending.len(), 25);
        let athens = pending.iter().find(|p| p.0 == "athens").unwrap();
        let bogota = pending.iter().find(|p| p.0 == "bogota").unwrap();
        assert!(
            athens.3 > bogota.3,
            "athens {} bogota {}",
            athens.3,
            bogota.3
        );

        // Figs 10/13.
        assert!(!study.queue_time_by_machine().is_empty());
        assert!(!study.exec_time_by_machine().is_empty());

        // Fig 11: per-circuit queue time decreases with batch size.
        let batch = study.queue_time_vs_batch();
        assert_eq!(batch.len(), 5);

        // Fig 12a.
        let crossover = study.calibration_crossover_fraction();
        assert!((0.0..=1.0).contains(&crossover));

        // Fig 14.
        assert!(!study.runtime_vs_batch().is_empty());
    }

    #[test]
    fn prediction_study_correlates() {
        let study = smoke_study();
        let prediction = study.prediction_study(7);
        assert!(
            prediction.overall_correlation > 0.8,
            "overall {}",
            prediction.overall_correlation
        );
        assert!(!prediction.per_machine.is_empty());
    }

    #[test]
    fn runtime_grows_with_batch() {
        let study = smoke_study();
        let points = study.runtime_vs_batch();
        let small: Vec<f64> = points
            .iter()
            .filter(|(b, _)| *b <= 10)
            .map(|(_, t)| *t)
            .collect();
        let large: Vec<f64> = points
            .iter()
            .filter(|(b, _)| *b >= 300)
            .map(|(_, t)| *t)
            .collect();
        assert!(!small.is_empty() && !large.is_empty());
        assert!(median(&large) > median(&small));
    }

    #[test]
    fn machine_name_lookup() {
        let study = smoke_study();
        assert_eq!(study.machine_name(0), "armonk");
    }
}
