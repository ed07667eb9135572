//! External-trace ingestion end to end: the ARLIS-style CSV fixture is
//! parsed into [`JobRecord`]s and analysed by `Study::from_trace`: the
//! figures it has inputs for, the audit, and queue-wait prediction.

use std::fs::File;
use std::io::BufReader;

use qcs::cloud::audit::check_causality;
use qcs::cloud::JobOutcome;
use qcs::predictor;
use qcs::workload::ingest::{read_trace, TraceError, INGEST_HEADER};
use qcs::Study;

fn fixture() -> qcs::workload::IngestedTrace {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/arlis_sample.csv");
    let file = File::open(path).expect("fixture exists");
    read_trace(BufReader::new(file)).expect("fixture parses")
}

#[test]
fn fixture_parses_with_derived_backlogs() {
    let trace = fixture();
    assert_eq!(trace.records.len(), 36);
    assert_eq!(
        trace.machines,
        vec!["ibm_lagos", "ibm_perth", "ibm_brisbane"]
    );
    assert_eq!(trace.machine_qubits, vec![7, 7, 27]);
    assert_eq!(trace.job_ids.len(), 36);
    // Re-based to the UTC midnight before the first submission
    // (1,700,000,000 s is 80,000 s past it) and causal.
    assert_eq!(trace.records[0].submit_s, 80_000.0);
    for r in &trace.records {
        assert!(r.submit_s <= r.start_s && r.start_s <= r.end_s);
        assert!(r.machine < trace.machines.len());
    }
    // The serial backlog in the fixture means later jobs queue behind
    // earlier ones: some derived pending counts must be positive.
    assert!(
        trace.records.iter().any(|r| r.pending_at_submit > 0),
        "backlog derivation found no queued job"
    );
    // All three terminal statuses appear.
    for outcome in [
        JobOutcome::Completed,
        JobOutcome::Errored,
        JobOutcome::Cancelled,
    ] {
        assert!(trace.records.iter().any(|r| r.outcome == outcome));
    }
}

#[test]
fn fixture_flows_through_study_audit_and_prediction() {
    let study = Study::from_trace(fixture());
    let result = study.result();
    assert_eq!(result.total_jobs, 36);
    assert_eq!(result.outcome_counts.iter().sum::<u64>(), 36);
    assert_eq!(
        check_causality(&result.records).len(),
        0,
        "ingestion validated causality per row; the auditor must agree"
    );
    let (_, median_queue_min, _, _) = study.queue_time_anchors();
    assert!(median_queue_min > 0.0 && median_queue_min.is_finite());
    let (_, queue) = study
        .queue_prediction(result.records.len() * 7 / 10)
        .expect("fixture trains a model");
    // The point waits are the head's per-machine means: these are the
    // values the batch estimator this replaced printed.
    assert_eq!(queue.jobs, 8, "held-out tail has scored jobs");
    assert_eq!(queue.correlation, 0.9091526217410578);
    assert_eq!(queue.median_abs_error_min, 1.3333333333333335);
    assert!((0.0..=1.0).contains(&queue.band_coverage));
}

#[test]
fn fixture_yields_every_figure_it_has_inputs_for() {
    let study = Study::from_trace(fixture());
    // Fig 2: executions land on calendar days, all on the first.
    assert_eq!(study.cumulative_executions().len(), 1);
    let (completed, errored, cancelled) = study.outcome_fractions();
    assert!(completed > 0.0 && errored > 0.0 && cancelled > 0.0);
    // Figs 3, 4, 8, 10, 11, 13, 14, 15.
    assert!(!study.queue_times_sorted_min().is_empty());
    assert!(!study.queue_exec_ratios_sorted().is_empty());
    let machines = |series: Vec<(String, qcs::stats::Summary)>| series.len();
    assert_eq!(machines(study.utilization_by_machine()), 3);
    assert_eq!(machines(study.queue_time_by_machine()), 3);
    assert_eq!(machines(study.exec_time_by_machine()), 3);
    assert_eq!(study.queue_time_vs_batch().len(), 5);
    assert!(!study.runtime_vs_batch().is_empty());
    assert!(study.prediction_study(7).overall_correlation.is_finite());
    // A log has no queue samples, no machine access and no calibration
    // column: those figures are absent, not zero.
    assert_eq!(study.pending_jobs_by_machine(), None);
    assert_eq!(study.calibration_crossover_fraction(), None);
}

#[test]
fn external_trace_without_a_completed_head_has_no_queue_prediction() {
    // Seven errored or cancelled jobs fill the 70 % head; only the tail
    // completes, so nothing trains the predictor.
    let mut text = format!("{INGEST_HEADER}\n");
    for i in 0..10 {
        let status = match i {
            0..=3 => "FAILED",
            4..=6 => "CANCELLED",
            _ => "COMPLETED",
        };
        let t = 1000 + 10 * i;
        let end = if status == "CANCELLED" { t + 5 } else { t + 8 };
        text.push_str(&format!(
            "j{i},lagos,7,1,1,1,1,{t},{},{end},{status}\n",
            t + 5
        ));
    }
    let study = Study::from_trace(read_trace(text.as_bytes()).expect("well-formed"));
    assert_eq!(study.result().outcome_counts, [3, 4, 3]);
    assert!(study.queue_prediction(10 * 7 / 10).is_none());
}

#[test]
fn ingested_records_feed_the_online_predictor() {
    let trace = fixture();
    let mut online = predictor::OnlinePredictor::new(trace.machine_qubits.clone());
    for record in &trace.records {
        online.observe(record);
    }
    assert_eq!(online.observed(), 36);
    for machine in 0..trace.machines.len() {
        let estimate = online
            .predict(machine, 10, 1024, 3)
            .expect("trained from the fixture");
        assert!(estimate.wait_s >= 0.0 && estimate.wait_s.is_finite());
        assert!(estimate.wait_lo_s <= estimate.wait_hi_s);
        assert!(estimate.run_s > 0.0 && estimate.run_s.is_finite());
    }
}

#[test]
fn malformed_rows_surface_typed_errors() {
    let bad = format!("{INGEST_HEADER}\nj-a,lagos,7,1,1,1,1,50,40,60,DONE\n");
    match read_trace(bad.as_bytes()) {
        Err(TraceError::Parse { line: 2, message }) => {
            assert!(message.contains("submit <= start <= end"), "{message}");
        }
        other => panic!("expected a typed parse error, got {other:?}"),
    }
}

/// A one-row log's parse error, which must name the audit's rule.
fn refused(row: &str) -> String {
    match read_trace(format!("{INGEST_HEADER}\n{row}\n").as_bytes()) {
        Err(TraceError::Parse { line: 2, message }) => message,
        other => panic!("{row}: expected a typed parse error, got {other:?}"),
    }
}

#[test]
fn a_completed_row_that_never_ran_is_refused() {
    // Ordered timestamps, but a completed job runs for a positive time:
    // the causality audit would flag this record.
    let message = refused("j-a,lagos,7,1,1,1,1,1000,1040,1040,COMPLETED");
    assert!(message.contains(JobOutcome::CAUSALITY_RULE), "{message}");
    assert!(!JobOutcome::Completed.is_causal(1000.0, 1040.0, 1040.0));
}

#[test]
fn a_cancelled_row_that_ran_is_refused() {
    // A cancelled job never executed: its end is its cancellation.
    let message = refused("j-a,lagos,7,1,1,1,1,1000,1040,1100,CANCELLED");
    assert!(message.contains(JobOutcome::CAUSALITY_RULE), "{message}");
    assert!(!JobOutcome::Cancelled.is_causal(1000.0, 1040.0, 1100.0));
}
