//! External-trace ingestion end to end: the ARLIS-style CSV fixture is
//! parsed into [`JobRecord`]s, audited, and run through the study's
//! queue-prediction pipeline.

use std::fs::File;
use std::io::BufReader;

use qcs::cloud::JobOutcome;
use qcs::cloud::trace::TraceError;
use qcs::workload::ingest::{read_trace, INGEST_HEADER};
use qcs::{external_trace_report, predictor};

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
    // Re-based to t = 0 and causal.
    assert_eq!(trace.records[0].submit_s, 0.0);
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
    let trace = fixture();
    let report = external_trace_report(&trace);
    assert_eq!(report.total_jobs, 36);
    assert_eq!(report.outcome_counts.iter().sum::<u64>(), 36);
    assert_eq!(
        report.causality_violations, 0,
        "ingestion validated causality per row; the auditor must agree"
    );
    assert!(report.median_queue_min > 0.0 && report.median_queue_min.is_finite());
    let queue = report.queue_prediction.expect("fixture trains a model");
    // The point waits are the head's per-machine means: these are the
    // values the batch estimator this replaced printed.
    assert_eq!(queue.jobs, 8, "held-out tail has scored jobs");
    assert_eq!(queue.correlation, 0.9091526217410578);
    assert_eq!(queue.median_abs_error_min, 1.3333333333333335);
    assert!((0.0..=1.0).contains(&queue.band_coverage));
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
        text.push_str(&format!("j{i},lagos,7,1,1,1,1,{t},{},{},{status}\n", t + 5, t + 8));
    }
    let trace = read_trace(text.as_bytes()).expect("well-formed");
    let report = external_trace_report(&trace);
    assert_eq!(report.outcome_counts, [3, 4, 3]);
    assert_eq!(report.queue_prediction, None);
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
