//! The end-to-end study runner: fleet + workload + cloud simulation +
//! per-figure data extraction.

use std::collections::HashMap;

use qcs_cloud::{CloudConfig, JobOutcome, JobRecord, OutagePlan, Simulation, SimulationResult};
use qcs_exec::ExecConfig;
use qcs_machine::Fleet;
use qcs_predictor::{
    evaluate_queue_prediction, run_prediction_study, OnlinePredictor, PredictionStudy,
    QueuePredictionReport,
};
use qcs_stats::{fraction_where, median, Summary};
use qcs_workload::{stream, IngestedTrace, WorkloadConfig};

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

/// A completed study: a job trace, simulated or read from a log, plus
/// analysis accessors, one per figure of the paper. The accessors read the
/// retained job records, so under [`qcs_cloud::RecordSink::Streaming`]
/// (which retains none) every record-based series, Fig 8 included, is
/// empty. A figure whose input the trace lacks is `None`.
#[derive(Debug)]
pub struct Study {
    machines: MachineTable,
    /// Whether the records say which jobs crossed a calibration.
    crossings_known: bool,
    result: SimulationResult,
    exec: ExecConfig,
}

/// What the figures know of each machine, indexed by
/// [`JobRecord::machine`].
#[derive(Debug)]
struct MachineTable {
    names: Vec<String>,
    qubits: Vec<usize>,
    /// Whether each machine is public; a job log does not say.
    public: Option<Vec<bool>>,
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
        let machines = MachineTable {
            names: fleet.iter().map(|m| m.name().to_string()).collect(),
            qubits: fleet.iter().map(qcs_machine::Machine::num_qubits).collect(),
            public: Some(fleet.iter().map(|m| m.access().is_public()).collect()),
        };
        Study::new(machines, result, true, config.exec)
    }

    /// The study of a job log (see [`qcs_workload::ingest`]). Its result
    /// holds the records and the aggregates they imply (`total_jobs`,
    /// `outcome_counts`, `daily_executions`); it has no queue samples and
    /// no audit.
    #[must_use]
    pub fn from_trace(trace: IngestedTrace) -> Self {
        let mut result = SimulationResult::default();
        for r in &trace.records {
            result.tally(r);
        }
        result.records = trace.records;
        let machines = MachineTable {
            names: trace.machines,
            qubits: trace.machine_qubits,
            public: None,
        };
        Study::new(machines, result, trace.extended, ExecConfig::default())
    }

    /// Where both a simulated and an ingested study end.
    fn new(
        machines: MachineTable,
        result: SimulationResult,
        crossings_known: bool,
        exec: ExecConfig,
    ) -> Self {
        Study {
            machines,
            crossings_known,
            result,
            exec,
        }
    }

    /// Qubit count per machine, indexed by [`JobRecord::machine`].
    #[must_use]
    pub fn machine_qubits(&self) -> &[usize] {
        &self.machines.qubits
    }

    /// Machine names, indexed by [`JobRecord::machine`].
    #[must_use]
    pub fn machine_names(&self) -> &[String] {
        &self.machines.names
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
        let mut executed = SimulationResult::default();
        for r in self.executed_study_records() {
            executed.tally(r);
        }
        executed.cumulative_executions()
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
            let utilization = r.utilization(self.machines.qubits[r.machine]);
            per_machine
                .entry(r.machine)
                .or_default()
                .push((utilization, r.circuits as usize));
        }
        self.named_summaries(per_machine, Summary::of_runs)
    }

    // --- Fig 9 ----------------------------------------------------------

    /// Fig 9: mean pending jobs per machine over a late-study week,
    /// `(machine name, qubits, public?, mean pending)`; `None` without
    /// queue samples or machine access (a job log has neither).
    #[must_use]
    pub fn pending_jobs_by_machine(&self) -> Option<Vec<(String, usize, bool, f64)>> {
        let MachineTable { names, qubits, public } = &self.machines;
        let public = public.as_ref()?;
        if self.result.queue_samples.is_empty() {
            return None;
        }
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
            .mean_pending_by_machine(names.len(), from, end + 1.0);
        Some(
            (0..names.len())
                .map(|m| (names[m].clone(), qubits[m], public[m], pending[m]))
                .collect(),
        )
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
    /// calibration boundary; `None` for a job log without the
    /// `crossed_calibration` column.
    #[must_use]
    pub fn calibration_crossover_fraction(&self) -> Option<f64> {
        self.crossings_known
            .then(|| self.result.calibration_crossover_fraction())
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
        run_prediction_study(&records, &self.machines.qubits, 0.7, seed, 4)
    }

    /// Queue-wait prediction (paper Recommendation ⑤): an
    /// [`OnlinePredictor`] trained on the first `train` retained records
    /// (all of them if there are fewer), scored by
    /// [`evaluate_queue_prediction`] on the rest. `None` when the training
    /// head has no completed job to learn from.
    #[must_use]
    pub fn queue_prediction(
        &self,
        train: usize,
    ) -> Option<(OnlinePredictor, QueuePredictionReport)> {
        let records = &self.result.records;
        let (head, tail) = records.split_at(train.min(records.len()));
        let mut online = OnlinePredictor::new(self.machines.qubits.clone());
        for r in head {
            online.observe(r);
        }
        online.ready().then(move || {
            let report = evaluate_queue_prediction(&online, &tail.iter().collect::<Vec<_>>());
            (online, report)
        })
    }

    /// Machine name by index.
    #[must_use]
    pub fn machine_name(&self, index: usize) -> &str {
        &self.machines.names[index]
    }

    /// Machine index by name.
    #[must_use]
    pub fn machine_index(&self, name: &str) -> Option<usize> {
        self.machines.names.iter().position(|n| n == name)
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
            (self.machines.names[*m].clone(), summarize(sample))
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
        let pending = study.pending_jobs_by_machine().expect("sampled queues");
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
        let crossover = study
            .calibration_crossover_fraction()
            .expect("simulated crossings");
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
