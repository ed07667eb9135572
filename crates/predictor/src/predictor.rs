//! The runtime predictor: fit, evaluate per machine, report correlations
//! (paper Figs 15–16).

use qcs_cloud::{JobOutcome, JobRecord};
use qcs_stats::{pearson, train_test_split, ProductModel};

use crate::{JobFeatures, NUM_FEATURES};

/// LM iteration bound of a batch (cold) fit.
const BATCH_ITERATIONS: usize = 400;

/// A fitted runtime predictor with its feature normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimePredictor {
    model: ProductModel,
    scale: Vec<f64>,
    /// Per-feature: did training ever see a nonzero value? Inactive
    /// features carry no information in the fit (their slope is
    /// unconstrained), so predict-time values for them are clamped to
    /// zero instead of entering the model unnormalized through the
    /// placeholder scale of 1.0.
    active: Vec<bool>,
}

impl RuntimePredictor {
    /// Fit the paper's model `t = prod_i (a_i + b_i x_i)` on feature rows
    /// and runtimes. Features are max-normalized before fitting; a
    /// feature that is all-zero in training is marked inactive and
    /// ignored at predict time (see [`RuntimePredictor::predict`]).
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged input.
    #[must_use]
    pub fn fit(rows: &[Vec<f64>], runtimes: &[f64]) -> Self {
        assert!(!rows.is_empty(), "empty training set");
        let k = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == k), "ragged feature rows");
        Self::fit_flat(rows.concat(), k, runtimes, None, BATCH_ITERATIONS)
    }

    /// The one normalized fit, batch and online: max-normalize the
    /// row-major `rows` in place, start from `warm`'s coefficients — its
    /// slopes rescaled to the new scales (the model sees `x/s`, so
    /// keeping `a + b'·x/s' == a + b·x/s` needs `b' = b·s'/s`) — or from
    /// [`ProductModel::cold_start`], and run at most `iterations`
    /// Levenberg–Marquardt steps.
    pub(crate) fn fit_flat(
        mut rows: Vec<f64>,
        k: usize,
        runtimes: &[f64],
        warm: Option<&RuntimePredictor>,
        iterations: usize,
    ) -> Self {
        let mut scale = vec![0.0f64; k];
        for row in rows.chunks_exact(k) {
            for (s, &x) in scale.iter_mut().zip(row) {
                *s = s.max(x.abs());
            }
        }
        let active = scale.iter().map(|&s| s > 0.0).collect();
        for s in &mut scale {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        for row in rows.chunks_exact_mut(k) {
            for (x, &s) in row.iter_mut().zip(&scale) {
                *x /= s;
            }
        }
        let init = match warm {
            Some(prev) => ProductModel {
                a: prev.model.a.clone(),
                b: prev
                    .model
                    .b
                    .iter()
                    .zip(scale.iter().zip(&prev.scale))
                    .map(|(&b, (&s_new, &s_old))| b * (s_new / s_old.max(1e-12)))
                    .collect(),
            },
            None => ProductModel::cold_start(k, runtimes),
        };
        RuntimePredictor {
            model: ProductModel::fit_flat(&init, &rows, k, runtimes, iterations),
            scale,
            active,
        }
    }

    /// Predict a runtime (seconds) from a raw feature vector:
    /// `prod_i (a_i + b_i x_i / s_i)`.
    ///
    /// Features that were all-zero in training are clamped to zero here:
    /// the fit never constrained their slope, so letting a nonzero value
    /// through (divided by the placeholder scale of 1.0) would multiply
    /// the prediction by an arbitrary unfitted factor.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the training set.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.scale.len(), "feature count mismatch");
        let coefficients = self.model.a.iter().zip(&self.model.b);
        let normalization = self.scale.iter().zip(&self.active);
        coefficients
            .zip(features)
            .zip(normalization)
            .map(|(((&a, &b), &x), (&s, &alive))| a + b * if alive { x / s } else { 0.0 })
            .product()
    }
}

/// Per-machine evaluation of a fitted predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineEvaluation {
    /// Machine index.
    pub machine: usize,
    /// Pearson correlation of predicted vs actual runtimes on the test
    /// split (Fig 15's bar per machine).
    pub correlation: f64,
    /// Number of test jobs on this machine.
    pub test_jobs: usize,
    /// `(actual, predicted)` runtime pairs, seconds (Fig 16's scatter).
    pub pairs: Vec<(f64, f64)>,
}

/// The overall study: fit on a 70/30 split and evaluate per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionStudy {
    /// The fitted predictor.
    pub predictor: RuntimePredictor,
    /// Pearson correlation on the pooled test set.
    pub overall_correlation: f64,
    /// Per-machine evaluations, ordered by machine index.
    pub per_machine: Vec<MachineEvaluation>,
}

/// Run the paper's §VI-C experiment: extract features from executed jobs,
/// split 70/30, fit the product model on the training set, and correlate
/// predictions with actual runtimes per machine.
///
/// Cancelled jobs are excluded (they have no runtime). Machines with fewer
/// than `min_jobs` test jobs are skipped in the per-machine report.
///
/// # Panics
///
/// Panics if fewer than 10 executed jobs are available.
#[must_use]
pub fn run_prediction_study(
    records: &[&JobRecord],
    machine_qubits: &[usize],
    train_fraction: f64,
    seed: u64,
    min_jobs: usize,
) -> PredictionStudy {
    let executed: Vec<&&JobRecord> = records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed)
        .collect();
    assert!(
        executed.len() >= 10,
        "need at least 10 executed jobs, got {}",
        executed.len()
    );

    let rows: Vec<[f64; NUM_FEATURES]> = executed
        .iter()
        .map(|r| {
            // External traces may name machines past the qubit table;
            // 0 qubits keeps the row well-formed instead of panicking.
            let qubits = machine_qubits.get(r.machine).copied().unwrap_or(0);
            JobFeatures::from_record(r, qubits).to_array()
        })
        .collect();
    let runtimes: Vec<f64> = executed.iter().map(|r| r.exec_time_s()).collect();

    let (train_idx, test_idx) = train_test_split(executed.len(), train_fraction, seed);
    let train_rows: Vec<f64> = train_idx.iter().flat_map(|&i| rows[i]).collect();
    let train_y: Vec<f64> = train_idx.iter().map(|&i| runtimes[i]).collect();
    let predictor =
        RuntimePredictor::fit_flat(train_rows, NUM_FEATURES, &train_y, None, BATCH_ITERATIONS);

    let mut pooled_actual = Vec::new();
    let mut pooled_predicted = Vec::new();
    let mut by_machine: std::collections::BTreeMap<usize, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for &i in &test_idx {
        let predicted = predictor.predict(&rows[i]);
        pooled_actual.push(runtimes[i]);
        pooled_predicted.push(predicted);
        by_machine
            .entry(executed[i].machine)
            .or_default()
            .push((runtimes[i], predicted));
    }

    let per_machine = by_machine
        .into_iter()
        .filter(|(_, pairs)| pairs.len() >= min_jobs)
        .map(|(machine, pairs)| {
            let actual: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let predicted: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            MachineEvaluation {
                machine,
                correlation: pearson(&actual, &predicted),
                test_jobs: pairs.len(),
                pairs,
            }
        })
        .collect();

    PredictionStudy {
        predictor,
        overall_correlation: pearson(&pooled_actual, &pooled_predicted),
        per_machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize records whose runtimes follow a machine-overhead +
    /// batch/shots law, as the cloud simulator produces.
    fn synthetic_records(n: usize, seed: u64) -> Vec<JobRecord> {
        // Deterministic pseudo-random from splitmix-style hashing.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let machine = (next() % 3) as usize;
                let qubits = [5.0, 27.0, 65.0][machine];
                let circuits = (next() % 200 + 1) as u32;
                let shots = [1024u32, 4096, 8192][(next() % 3) as usize];
                let depth = (next() % 40 + 5) as f64;
                let width = (next() % 5 + 1) as f64;
                let exec = 3.0
                    + 0.1 * qubits
                    + f64::from(circuits)
                        * (0.02 + f64::from(shots) * (200.0 + 1.5 * qubits + depth * 0.3) * 1e-6);
                JobRecord {
                    id: i as u64,
                    provider: 0,
                    machine,
                    circuits,
                    shots,
                    mean_width: width,
                    mean_depth: depth,
                    is_study: true,
                    submit_s: 0.0,
                    start_s: 0.0,
                    end_s: exec,
                    outcome: JobOutcome::Completed,
                    pending_at_submit: 0,
                    crossed_calibration: false,
                }
            })
            .collect()
    }

    #[test]
    fn predictor_learns_cost_law() {
        let records = synthetic_records(800, 1);
        let refs: Vec<&JobRecord> = records.iter().collect();
        let study = run_prediction_study(&refs, &[5, 27, 65], 0.7, 42, 10);
        assert!(
            study.overall_correlation > 0.95,
            "overall corr {}",
            study.overall_correlation
        );
        for eval in &study.per_machine {
            assert!(
                eval.correlation > 0.9,
                "machine {} corr {}",
                eval.machine,
                eval.correlation
            );
        }
        assert_eq!(study.per_machine.len(), 3);
    }

    #[test]
    fn predictions_positive_and_ordered() {
        let records = synthetic_records(400, 2);
        let refs: Vec<&JobRecord> = records.iter().collect();
        let study = run_prediction_study(&refs, &[5, 27, 65], 0.7, 1, 5);
        // Bigger batch at same machine/shots must predict longer runtime.
        let small = JobFeatures {
            batch_size: 5.0,
            shots: 4096.0,
            depth: 20.0,
            width: 3.0,
            total_gates: 36.0,
            machine_qubits: 27.0,
            memory_slots: 8.0,
        };
        let large = JobFeatures {
            batch_size: 400.0,
            ..small
        };
        let p_small = study.predictor.predict(&small.to_array());
        let p_large = study.predictor.predict(&large.to_array());
        assert!(p_small > 0.0);
        assert!(p_large > 3.0 * p_small, "small {p_small} large {p_large}");
    }

    #[test]
    fn cancelled_jobs_excluded() {
        let mut records = synthetic_records(100, 3);
        for r in records.iter_mut().take(50) {
            r.outcome = JobOutcome::Cancelled;
            r.end_s = r.start_s;
        }
        let refs: Vec<&JobRecord> = records.iter().collect();
        let study = run_prediction_study(&refs, &[5, 27, 65], 0.7, 1, 1);
        let total_test: usize = study.per_machine.iter().map(|m| m.test_jobs).sum();
        assert!(total_test <= 15); // 30% of the 50 completed
    }

    #[test]
    #[should_panic(expected = "at least 10 executed jobs")]
    fn too_few_jobs_panics() {
        let records = synthetic_records(5, 4);
        let refs: Vec<&JobRecord> = records.iter().collect();
        let _ = run_prediction_study(&refs, &[5, 27, 65], 0.7, 1, 1);
    }

    #[test]
    fn fit_and_predict_round_trip() {
        let rows = vec![vec![1.0, 100.0], vec![2.0, 200.0], vec![3.0, 300.0], vec![4.0, 150.0]];
        let y = vec![10.0, 20.0, 30.0, 40.0];
        let p = RuntimePredictor::fit(&rows, &y);
        // In-sample predictions are finite and positive-ish.
        for (row, _target) in rows.iter().zip(&y) {
            assert!(p.predict(row).is_finite());
        }
    }

    #[test]
    fn nested_fit_is_the_flat_fit() {
        // There is one fit: the nested-row entry and the flat one the
        // study and the online refit call give `==` predictors (model,
        // scales and the inactive all-zero column alike).
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                let x = f64::from(i);
                vec![x, (x * 7.0) % 13.0, 1.0 + (x % 5.0), 0.0]
            })
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| (2.0 + 0.5 * r[0]) * (1.0 + 0.1 * r[1]) * (3.0 + 0.2 * r[2]))
            .collect();
        let nested = RuntimePredictor::fit(&rows, &targets);
        let flat = RuntimePredictor::fit_flat(rows.concat(), 4, &targets, None, BATCH_ITERATIONS);
        assert_eq!(nested, flat);
        assert_eq!(nested.active, [true, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_arity_checked() {
        let p = RuntimePredictor::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0]);
        let _ = p.predict(&[1.0, 2.0]);
    }

    #[test]
    fn all_zero_training_feature_is_inert_at_predict_time() {
        // Feature 1 is identically zero in training: the fit learns
        // nothing about it, so a nonzero predict-time value must not
        // change the prediction (it used to enter unnormalized through
        // the placeholder scale of 1.0).
        let rows: Vec<Vec<f64>> = (1..=20).map(|i| vec![f64::from(i), 0.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[0]).collect();
        let p = RuntimePredictor::fit(&rows, &y);
        let base = p.predict(&[5.0, 0.0]);
        let spiked = p.predict(&[5.0, 1e9]);
        assert!(
            (base - spiked).abs() < 1e-9,
            "inactive feature moved prediction: {base} vs {spiked}"
        );
        assert!((base - 17.0).abs() < 1e-3, "base {base}");
    }

    #[test]
    fn machine_index_past_qubit_table_does_not_panic() {
        // A record naming machine 9 with a 3-entry qubit table used to
        // index out of bounds; now it contributes a 0-qubit row.
        let mut records = synthetic_records(100, 9);
        records.push(JobRecord {
            machine: 9,
            ..records[0].clone()
        });
        let refs: Vec<&JobRecord> = records.iter().collect();
        let study = run_prediction_study(&refs, &[5, 27, 65], 0.7, 1, 5);
        assert!(study.overall_correlation.is_finite());
    }
}
