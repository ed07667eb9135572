//! Queue-wait prediction (paper Recommendation ⑤: "research on predicting
//! queuing times with quantitative confidence levels ... are worth
//! pursuing"), scored on a held-out split.
//!
//! The estimator is the one [`OnlinePredictor`] folds on the record tap
//! and serves to `PREDICT`: the work ahead of a job — pending jobs x the
//! machine's mean service time — with a 10–90 % band of `actual/predicted`
//! ratios. It rests on the observation chain the paper itself builds:
//! execution times are highly predictable (§VI-C), so the backlog's work
//! is predictable too, and under work-conserving scheduling the wait
//! tracks it. A batch reader [`observe`](OnlinePredictor::observe)s its
//! training split and scores the rest here.

use qcs_cloud::JobRecord;
use qcs_stats::{pearson, quantile};

use crate::online::{OnlinePredictor, WaitScore};

/// Evaluation of the queue-wait estimator on held-out records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePredictionReport {
    /// Jobs evaluated (waited, completed).
    pub jobs: usize,
    /// Pearson correlation of predicted vs actual waits.
    pub correlation: f64,
    /// Median absolute error, minutes.
    pub median_abs_error_min: f64,
    /// Fraction of actual waits inside the model's 10–90 % band.
    pub band_coverage: f64,
}

/// Score a trained predictor on records (typically a held-out split)
/// without training on them.
///
/// Only completed jobs that actually waited behind someone are scored —
/// the same filter [`OnlinePredictor::observe`] scores prequentially.
/// An empty scored set has defined zero-job semantics: every metric is
/// `0.0` (never NaN), so reports aggregate and serialize cleanly.
#[must_use]
pub fn evaluate_queue_prediction(
    online: &OnlinePredictor,
    records: &[&JobRecord],
) -> QueuePredictionReport {
    let scores: Vec<WaitScore> = records.iter().filter_map(|r| online.score(r)).collect();
    let predicted: Vec<f64> = scores.iter().map(|s| s.predicted_s).collect();
    let actual: Vec<f64> = scores.iter().map(|s| s.actual_s).collect();
    let mut abs_err: Vec<f64> = scores.iter().map(|s| s.abs_err_min()).collect();
    abs_err.sort_by(f64::total_cmp);
    let in_band = scores.iter().filter(|s| s.in_band).count();
    QueuePredictionReport {
        jobs: scores.len(),
        correlation: pearson(&predicted, &actual),
        median_abs_error_min: quantile(&abs_err, 0.5).unwrap_or(0.0),
        band_coverage: if scores.is_empty() {
            0.0
        } else {
            in_band as f64 / scores.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_cloud::JobOutcome;

    fn record(id: u64, machine: usize, pending: usize, exec_s: f64, wait_s: f64) -> JobRecord {
        JobRecord {
            id,
            provider: 0,
            machine,
            circuits: 10,
            shots: 1024,
            mean_width: 3.0,
            mean_depth: 15.0,
            is_study: true,
            submit_s: 0.0,
            start_s: wait_s,
            end_s: wait_s + exec_s,
            outcome: JobOutcome::Completed,
            pending_at_submit: pending,
            crossed_calibration: false,
        }
    }

    /// Records where wait = pending * 100s exactly, service = 100s.
    fn ideal_records(n: usize) -> Vec<JobRecord> {
        (0..n)
            .map(|i| record(i as u64, i % 2, i % 7 + 1, 100.0, (i % 7 + 1) as f64 * 100.0))
            .collect()
    }

    /// A predictor for `machines` 5-qubit machines trained on `records`.
    fn trained(records: &[JobRecord], machines: usize) -> OnlinePredictor {
        let mut online = OnlinePredictor::new(vec![5; machines]);
        for r in records {
            online.observe(r);
        }
        online
    }

    #[test]
    fn fits_mean_service() {
        let online = trained(&ideal_records(50), 3);
        assert!((online.mean_service_s(0) - 100.0).abs() < 1e-9);
        assert!((online.mean_service_s(1) - 100.0).abs() < 1e-9);
        // Machine 2 has no data: falls back to fleet mean.
        assert!((online.mean_service_s(2) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_backlog_predicts_perfectly() {
        let records = ideal_records(60);
        let online = trained(&records, 2);
        let refs: Vec<&JobRecord> = records.iter().collect();
        let report = evaluate_queue_prediction(&online, &refs);
        assert!(report.jobs > 0);
        assert!(report.correlation > 0.999, "corr {}", report.correlation);
        assert!(report.median_abs_error_min < 1e-6);
        assert!(report.band_coverage > 0.99);
    }

    #[test]
    fn confidence_band_orders() {
        let online = trained(&ideal_records(30), 2);
        let estimate = online.predict(0, 10, 1024, 5).expect("trained");
        assert!(estimate.wait_lo_s <= estimate.wait_hi_s);
        assert!(estimate.wait_lo_s > 0.0);
        assert_eq!(online.predict_wait_s(0, 0), 0.0);
    }

    #[test]
    fn noisy_waits_reduce_coverage_gracefully() {
        // Waits 2x the backlog estimate: correlation stays perfect,
        // coverage depends on the learned band (which adapts).
        let records: Vec<JobRecord> = (0..40)
            .map(|i| {
                record(
                    i as u64,
                    0,
                    (i % 5 + 1) as usize,
                    100.0,
                    (i % 5 + 1) as f64 * 200.0,
                )
            })
            .collect();
        let online = trained(&records, 1);
        let refs: Vec<&JobRecord> = records.iter().collect();
        let report = evaluate_queue_prediction(&online, &refs);
        assert!(report.correlation > 0.999);
        // The band was learned around the 2x ratio, so coverage is high.
        assert!(report.band_coverage > 0.9, "coverage {}", report.band_coverage);
    }

    #[test]
    fn machine_index_past_num_machines_grows_the_table() {
        // An external-trace shape: the caller promises 2 machines but a
        // record names machine 7.
        let mut records = ideal_records(20);
        records.push(record(99, 7, 3, 40.0, 120.0));
        let online = trained(&records, 2);
        assert!((online.mean_service_s(7) - 40.0).abs() < 1e-9);
        assert!((online.predict_wait_s(7, 3) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_past_learned_table_uses_fleet_mean() {
        let online = trained(&ideal_records(20), 2);
        // Fleet mean service is 100 s, so machine 42 predicts from it.
        assert!((online.mean_service_s(42) - 100.0).abs() < 1e-9);
        assert!((online.predict_wait_s(42, 2) - 200.0).abs() < 1e-9);
        let estimate = online.predict(42, 10, 1024, 2).expect("trained");
        let (lo, hi) = (estimate.wait_lo_s, estimate.wait_hi_s);
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
    }

    #[test]
    fn empty_scored_set_reports_zeros_not_nan() {
        // A model trained on real data, evaluated on records that all fail
        // the scoring filter (zero wait): every metric must be 0.0.
        let online = trained(&ideal_records(20), 2);
        let unscored: Vec<JobRecord> =
            (0..5).map(|i| record(i, 0, 0, 100.0, 0.0)).collect();
        let unscored_refs: Vec<&JobRecord> = unscored.iter().collect();
        let report = evaluate_queue_prediction(&online, &unscored_refs);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.correlation, 0.0);
        assert_eq!(report.median_abs_error_min, 0.0);
        assert_eq!(report.band_coverage, 0.0);
        assert!(!report.correlation.is_nan());
        assert!(!report.median_abs_error_min.is_nan());
    }

    #[test]
    fn held_out_point_waits_are_the_training_means() {
        // Uneven service times on three machines, with errored and
        // cancelled jobs mixed in (they never train the means).
        let records: Vec<JobRecord> = (0..300u64)
            .map(|i| {
                let exec = 1.0 + (i as f64 * 0.37) % 5.3 + 1.0 / (i + 3) as f64;
                let mut r = record(i, (i % 3) as usize, (i % 4) as usize, exec, 7.0 * i as f64);
                r.outcome = match i % 11 {
                    0 => JobOutcome::Errored,
                    5 => JobOutcome::Cancelled,
                    _ => JobOutcome::Completed,
                };
                r
            })
            .collect();
        let online = trained(&records, 3);
        for machine in 0..3 {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for r in records
                .iter()
                .filter(|r| r.machine == machine && r.outcome == JobOutcome::Completed)
            {
                sum += r.exec_time_s();
                n += 1;
            }
            for pending in [1, 7, 20] {
                assert_eq!(
                    online.predict_wait_s(machine, pending).to_bits(),
                    (pending as f64 * (sum / n as f64)).to_bits(),
                    "machine {machine}, {pending} pending"
                );
            }
        }
    }
}
