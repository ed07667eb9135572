//! `study_batch`: the paper-scale study pipeline on a 180-day horizon, then
//! every figure accessor. Generator, batch DES and stats do the work; no
//! tap, full record sink.

use std::hint::black_box;
use std::time::Instant;

use qcs::{ExecConfig, Study, StudyConfig};
use qcs_cloud::{CloudConfig, OutagePlan, Simulation};
use qcs_machine::Fleet;
use qcs_stats::quantile_sorted;
use qcs_workload::{generate, WorkloadConfig};

use super::{ns_u32, Scale, UnitOutcome, Workload};
use crate::measure::Digest;
use crate::spec::Layers;
use crate::trace::Tracer;

/// The 730-day run is left out on purpose: its 3.5M-job `Vec` spends
/// seconds of system time on page faults that vary threefold between runs.
const UNIT_DAYS: [f64; 2] = [180.0, 21.0];
const WARMUP_DAYS: [f64; 2] = [14.0, 7.0];
const PROBE_DAYS: [f64; 2] = [45.0, 14.0];

fn config(seed: u64, days: f64) -> StudyConfig {
    let full = StudyConfig::full();
    StudyConfig {
        workload: WorkloadConfig {
            seed,
            days,
            ..full.workload
        },
        cloud: CloudConfig { seed, ..full.cloud },
        exec: ExecConfig::with_threads(1),
        ..full
    }
}

pub struct StudyBatch {
    config: StudyConfig,
}

/// Every figure accessor, results kept from the optimizer.
fn analyse(study: &Study) {
    black_box(study.cumulative_executions());
    black_box(study.cumulative_study_executions());
    black_box(study.outcome_fractions());
    black_box(study.queue_time_anchors());
    black_box(study.queue_exec_ratios_sorted());
    black_box(study.utilization_by_machine());
    black_box(study.pending_jobs_by_machine());
    black_box(study.queue_time_by_machine());
    black_box(study.queue_time_vs_batch());
    black_box(study.calibration_crossover_fraction());
    black_box(study.exec_time_by_machine());
    black_box(study.runtime_vs_batch());
}

fn run(config: &StudyConfig, tracer: &mut Tracer) -> UnitOutcome {
    let started = Instant::now();
    let study = tracer.span("qcs.study_run", |_| Study::run(config));
    tracer.span("stats.analysis", |_| analyse(&study));
    let correlation = tracer.span("predictor.batch_fit", |_| {
        study
            .prediction_study(config.workload.seed)
            .overall_correlation
    });
    let op_ns = ns_u32(started.elapsed());

    let result = study.result();
    let mut out = UnitOutcome {
        ops: result.total_jobs,
        op_ns: vec![op_ns],
        ..UnitOutcome::default()
    };
    if result.outcome_counts.iter().sum::<u64>() != result.total_jobs {
        out.fail_all(format!(
            "outcomes {:?} do not sum to {}",
            result.outcome_counts, result.total_jobs
        ));
    }
    if !correlation.is_finite() {
        out.fail_all(format!("prediction study correlation is {correlation}"));
    }
    let queue_min = study.queue_times_sorted_min();
    let mut digest = Digest::new();
    for count in result.outcome_counts {
        digest.word(count);
    }
    digest
        .word(result.total_jobs)
        .word(result.records.len() as u64)
        .word(result.daily_executions.iter().sum())
        .float(quantile_sorted(&queue_min, 0.99).unwrap_or(0.0));
    out.digest = Some(digest.hex());
    out
}

impl Workload for StudyBatch {
    const NAME: &'static str = "study_batch";
    const OP: &'static str = "terminal job (latency: one whole study)";

    fn config_digest(scale: Scale) -> String {
        let full = StudyConfig::full();
        Digest::new()
            .text(Self::NAME)
            .float(scale.of(UNIT_DAYS))
            .float(scale.of(WARMUP_DAYS))
            .word(full.workload.study_jobs as u64)
            .float(full.workload.demand_scale)
            .word(full.cloud.background_record_divisor)
            .float(full.outage_interval_days)
            .hex()
    }

    fn setup(seed: u64, scale: Scale) -> Self {
        run(&config(seed, scale.of(WARMUP_DAYS)), &mut Tracer::off());
        StudyBatch {
            config: config(seed, scale.of(UNIT_DAYS)),
        }
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        run(&self.config, tracer)
    }
}

/// Layer probes of the batch path: the generator and the batch DES apart
/// (which `Study::run` fuses), the analysis, and the batch predictor fit.
pub fn probe(seed: u64, scale: Scale, layers: &mut Layers) {
    let config = config(seed, scale.of(PROBE_DAYS));
    let fleet = Fleet::ibm_like();

    let started = Instant::now();
    let workload = generate(&fleet, &config.workload);
    let jobs = workload.jobs.len() as f64;
    layers.set(
        "workload.generate_ns_per_job",
        started.elapsed().as_nanos() as f64 / jobs,
    );

    // The outage plan only has to be of the study's kind for the DES to do
    // the study's work; `Study::run` derives its own seed for it.
    let outages = OutagePlan::sample(
        fleet.len(),
        config.workload.days,
        config.outage_interval_days,
        config.outage_duration_hours,
        seed,
    );
    let simulation = Simulation::new(fleet, config.cloud).with_outages(outages);
    let started = Instant::now();
    let result = simulation.run(workload.jobs);
    layers.set(
        "cloud.batch_run_ns_per_job",
        started.elapsed().as_nanos() as f64 / jobs,
    );
    assert_eq!(black_box(result.total_jobs) as f64, jobs);

    let study = Study::run(&config);
    let started = Instant::now();
    analyse(&study);
    layers.set("stats.analysis_ms", started.elapsed().as_secs_f64() * 1e3);
    let started = Instant::now();
    black_box(study.prediction_study(seed));
    layers.set(
        "predictor.batch_fit_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
}
