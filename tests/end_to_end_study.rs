//! End-to-end invariants of the full study pipeline (workload → cloud DES
//! → analysis), on the smoke configuration.

use qcs::cloud::JobOutcome;
use qcs::stats::{median, Summary};
use qcs::{Study, StudyConfig};

fn study() -> Study {
    // Every end-to-end test also runs under the invariant auditor: any
    // causality, conservation, or aggregate violation panics the run.
    let mut config = StudyConfig::smoke();
    config.cloud.audit = true;
    Study::run(&config)
}

/// One machine's entry in a per-machine series. The machine must be
/// there: a missing one used to pass the figure tests vacuously.
fn summary_of(series: &[(String, Summary)], name: &str) -> Summary {
    let (_, summary) = series
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} has no data"));
    *summary
}

#[test]
fn job_conservation() {
    let s = study();
    // Aggregates cover every job exactly once.
    let total: u64 = s.result().outcome_counts.iter().sum();
    assert_eq!(total, s.result().total_jobs);
    // Every study job reached a terminal state and was recorded.
    let study_records = s
        .result()
        .records
        .iter()
        .filter(|r| r.is_study)
        .count();
    assert_eq!(study_records, StudyConfig::smoke().workload.study_jobs);
}

#[test]
fn time_ordering_invariants() {
    let s = study();
    for r in &s.result().records {
        assert!(r.start_s >= r.submit_s, "job {} started before submit", r.id);
        assert!(r.end_s >= r.start_s, "job {} ended before start", r.id);
        if r.outcome == JobOutcome::Cancelled {
            assert_eq!(r.exec_time_s(), 0.0);
        } else {
            assert!(r.exec_time_s() > 0.0);
        }
    }
}

#[test]
fn wasted_executions_fraction_matches_paper_band() {
    // Paper Fig 2b: ~95% completed, ~5% wasted.
    let (completed, errored, cancelled) = study().outcome_fractions();
    assert!(
        (0.90..=0.98).contains(&completed),
        "completed {completed}"
    );
    assert!(errored + cancelled > 0.02, "wasted {}", errored + cancelled);
}

#[test]
fn batching_reduces_per_circuit_queue_time() {
    // Paper Fig 11: per-circuit queue time almost always decreases with
    // batch size.
    let s = study();
    let rows = s.queue_time_vs_batch();
    let populated: Vec<&(String, f64, f64, usize)> =
        rows.iter().filter(|r| r.3 >= 10).collect();
    assert!(populated.len() >= 3, "not enough populated buckets");
    // Compare the smallest against the largest populated bucket.
    let first = populated.first().unwrap();
    let last = populated.last().unwrap();
    assert!(
        last.2 < first.2,
        "per-circuit queue did not fall: {} -> {}",
        first.2,
        last.2
    );
}

#[test]
fn small_machines_are_more_utilized() {
    // Paper Fig 8.
    let s = study();
    let util = s.utilization_by_machine();
    let median_of = |name: &str| summary_of(&util, name).median;
    assert!(median_of("athens") > median_of("manhattan"));

    // EXPERIMENTS.md's Fig 8 anchor as bands on the smoke study: the mean
    // of the per-machine medians falls with machine size, class by class.
    let class_mean = |qubits: usize| {
        let medians: Vec<f64> = util
            .iter()
            .filter(|(name, _)| {
                s.machine_qubits()[s.machine_index(name).expect("fleet machine")] == qubits
            })
            .map(|(_, summary)| summary.median)
            .collect();
        assert!(
            !medians.is_empty(),
            "no {qubits}q machine has study circuits"
        );
        qcs::stats::mean(&medians)
    };
    let (q5, q7, q27, q65) = (class_mean(5), class_mean(7), class_mean(27), class_mean(65));
    assert!((0.70..=1.00).contains(&q5), "5q {q5}");
    assert!((0.40..=0.65).contains(&q7), "7q {q7}");
    assert!((0.20..=0.35).contains(&q27), "27q {q27}");
    assert!((0.10..=0.20).contains(&q65), "65q {q65}");
    assert!(q5 > q7 && q7 > q27 && q27 > q65);
}

#[test]
fn utilization_counts_every_generated_study_circuit_once() {
    // Fig 8 is read off the job records; the circuits it weighs by must be
    // exactly the ones the generator emitted, machine by machine. Passes at
    // the parent too (there through the per-circuit side table): it pins
    // the invariant the generator's own test used to check on that table.
    let s = study();
    let fleet = qcs::machine::Fleet::ibm_like();
    let workload = qcs::workload::generate(&fleet, &StudyConfig::smoke().workload);
    let mut expected = vec![0usize; s.machine_qubits().len()];
    for job in workload.jobs.iter().filter(|j| j.is_study) {
        expected[job.machine] += job.circuits as usize;
    }
    let counted: Vec<(usize, usize)> = s
        .utilization_by_machine()
        .iter()
        .map(|(name, summary)| {
            (
                s.machine_index(name).expect("fleet machine"),
                summary.count,
            )
        })
        .collect();
    let generated: Vec<(usize, usize)> = expected
        .into_iter()
        .enumerate()
        .filter(|&(_, circuits)| circuits > 0)
        .collect();
    assert_eq!(counted, generated);
}

#[test]
fn utilization_smoke_values_are_pinned() {
    // Values read off the commit before Fig 8 moved from the per-circuit
    // table to the job records (its `fig08_utilization --smoke` CSV): no
    // other test covers the figure's numbers.
    let s = study();
    let util = s.utilization_by_machine();
    for (name, count, median) in [
        ("athens", 6494, 1.0),
        ("casablanca", 1387, 4.0 / 7.0),
        ("manhattan", 2783, 7.0 / 65.0),
    ] {
        let summary = summary_of(&util, name);
        assert_eq!((summary.count, summary.median), (count, median), "{name}");
    }
}

#[test]
fn larger_machines_run_slower() {
    // Paper Fig 13: a common trend that larger machines have higher
    // run times.
    let s = study();
    let exec = s.exec_time_by_machine();
    assert!(summary_of(&exec, "manhattan").median > summary_of(&exec, "athens").median);
}

#[test]
fn execution_time_scales_with_batch() {
    // Paper Fig 14.
    let s = study();
    let points = s.runtime_vs_batch();
    let small: Vec<f64> = points
        .iter()
        .filter(|(b, _)| *b <= 20)
        .map(|(_, t)| *t)
        .collect();
    let large: Vec<f64> = points
        .iter()
        .filter(|(b, _)| *b >= 400)
        .map(|(_, t)| *t)
        .collect();
    assert!(!small.is_empty() && !large.is_empty());
    assert!(median(&large) > 5.0 * median(&small));
}

#[test]
fn queue_times_dominate_execution_times() {
    // Paper §III-C: queuing dominates execution on average (ratios well
    // above 1 in the upper half of the distribution).
    let s = study();
    let ratios = s.queue_exec_ratios_sorted();
    let high = qcs::stats::quantile(&ratios, 0.75).unwrap();
    assert!(high > 2.0, "p75 ratio {high}");
}

#[test]
fn prediction_correlation_is_high() {
    // Paper Fig 15: correlation >= 0.95 on all but two machines. On the
    // smoke study we demand a high pooled correlation and mostly-high
    // per-machine values.
    let s = study();
    let p = s.prediction_study(11);
    assert!(p.overall_correlation > 0.9, "overall {}", p.overall_correlation);
    let high = p
        .per_machine
        .iter()
        .filter(|m| m.correlation > 0.9)
        .count();
    assert!(
        high * 10 >= p.per_machine.len() * 7,
        "only {high}/{} machines above 0.9",
        p.per_machine.len()
    );
}

#[test]
fn queue_prediction_smoke_values_are_pinned() {
    // `extension_queue_prediction --smoke`'s half split. The point waits
    // are the training split's per-machine means, so jobs, r and MAE are
    // the values read off the batch estimator this one replaced; only the
    // band's coverage depends on how it is learned.
    let s = study();
    let (_, report) = s
        .queue_prediction(s.result().records.len() / 2)
        .expect("completed jobs in the training half");
    assert_eq!(report.jobs, 28827);
    assert_eq!(report.correlation, 0.5162442901825799);
    assert_eq!(report.median_abs_error_min, 220.376442876939);
    assert!(
        (0.70..=0.80).contains(&report.band_coverage),
        "coverage {}",
        report.band_coverage
    );
}

#[test]
fn calibration_crossovers_exist() {
    let s = study();
    let f = s.calibration_crossover_fraction().expect("simulated crossings");
    assert!(f > 0.0, "no crossovers observed");
    assert!(f < 0.9, "implausibly many crossovers: {f}");
}

#[test]
fn queue_samples_cover_all_machines() {
    let s = study();
    let machines: std::collections::HashSet<usize> = s
        .result()
        .queue_samples
        .iter()
        .map(|q| q.machine)
        .collect();
    assert_eq!(machines.len(), 25);
}

#[test]
fn audit_invariants_hold_on_smoke_study() {
    let s = study();
    let report = s.audit_report().expect("audit enabled");
    assert!(report.records_audited as u64 >= s.result().total_jobs);
    report.assert_clean();
}

#[test]
fn study_is_deterministic() {
    let a = Study::run(&StudyConfig::smoke());
    let b = Study::run(&StudyConfig::smoke());
    assert_eq!(a.result().total_jobs, b.result().total_jobs);
    assert_eq!(a.result().outcome_counts, b.result().outcome_counts);
    assert_eq!(a.queue_times_sorted_min(), b.queue_times_sorted_min());
}
