//! Regression: ordinary least squares and Levenberg–Marquardt nonlinear
//! least squares, including the paper's product-of-linear-terms runtime
//! model (§VI-C).

/// Simple OLS fit `y = intercept + slope * x`.
///
/// Returns `(intercept, slope)`; a constant `x` yields slope 0.
///
/// # Panics
///
/// Panics if lengths differ or input is empty.
#[must_use]
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "sample length mismatch");
    assert!(!x.is_empty(), "empty input");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// The paper's execution-time model: `y = prod_i (a_i + b_i * x_i)` over
/// `k` features, fitted with Levenberg–Marquardt (the role scipy
/// `curve_fit` plays in §VI-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductModel {
    /// Per-feature intercepts `a_i`.
    pub a: Vec<f64>,
    /// Per-feature slopes `b_i`.
    pub b: Vec<f64>,
}

impl ProductModel {
    /// Number of features.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.a.len()
    }

    /// Evaluate the model on one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.num_features()`.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.a.len(), "feature count mismatch");
        self.a
            .iter()
            .zip(&self.b)
            .zip(features)
            .map(|((&a, &b), &x)| a + b * x)
            .product()
    }

    /// The cold initialization: every factor starts at `mean(y)^(1/k)`
    /// with zero slope, so the product starts at the mean target.
    #[must_use]
    pub fn cold_start(k: usize, targets: &[f64]) -> Self {
        let mean_y = targets.iter().sum::<f64>() / targets.len().max(1) as f64;
        let init_a = mean_y.abs().max(1e-6).powf(1.0 / k as f64);
        ProductModel {
            a: vec![init_a; k],
            b: vec![0.0; k],
        }
    }

    /// Fit by Levenberg–Marquardt from `init` ([`cold_start`](Self::cold_start),
    /// or a previous fit: a few iterations from there are one damped
    /// Gauss–Newton step each) over a row-major flat feature matrix
    /// (`rows.len() == k * targets.len()`). Every scratch buffer (Jacobian
    /// products, factor/gradient vectors, the damped normal matrix) is
    /// hoisted out of the per-row loop, `J^T J` is filled on the upper
    /// triangle only and mirrored — IEEE multiplication commutes, so the
    /// result is bit-identical to the full accumulation — and the normal
    /// equations are rebuilt only after an accepted step: a rejected one
    /// changes `lambda`, not the parameters they are evaluated at.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, `rows.len()` is not `k * targets.len()`,
    /// or `init`'s feature count does not match `k`.
    #[must_use]
    pub fn fit_flat(
        init: &ProductModel,
        rows: &[f64],
        k: usize,
        targets: &[f64],
        max_iterations: usize,
    ) -> Self {
        Self::levenberg_marquardt::<false>(init, rows, k, targets, max_iterations).0
    }

    /// The LM loop behind [`fit_flat`](Self::fit_flat); also returns how
    /// many steps it rejected. `ALWAYS_REBUILD` recomputes `J^T J` and
    /// `J^T r` every iteration, rejected step or not — the loop as it was
    /// before the rebuild was skipped, instantiated only as the tests'
    /// oracle.
    fn levenberg_marquardt<const ALWAYS_REBUILD: bool>(
        init: &ProductModel,
        rows: &[f64],
        k: usize,
        targets: &[f64],
        max_iterations: usize,
    ) -> (Self, usize) {
        assert!(k > 0, "need at least one feature");
        assert_eq!(rows.len(), k * targets.len(), "row/target length mismatch");
        assert!(!targets.is_empty(), "empty training set");
        assert_eq!(init.num_features(), k, "init feature count mismatch");

        let p = 2 * k;
        let mut params = vec![0.0; p];
        for i in 0..k {
            params[2 * i] = init.a[i];
            params[2 * i + 1] = init.b[i];
        }

        // Scratch reused across iterations: no allocation inside the LM
        // loop.
        let mut jtj = vec![0.0f64; p * p];
        let mut jtr = vec![0.0f64; p];
        let mut damped = vec![0.0f64; p * p];
        let mut factors = vec![0.0f64; k];
        let mut grad = vec![0.0f64; p];
        let mut candidate = vec![0.0f64; p];
        let mut delta = vec![0.0f64; p];

        let mut lambda = 1e-3;
        let mut current_sse = sse(&params, rows, k, targets);
        let mut rejected = 0usize;
        // Do `jtj` / `jtr` still describe `params`?
        let mut built = false;

        for _ in 0..max_iterations {
            if !built || ALWAYS_REBUILD {
                // Build J^T J (upper triangle) and J^T r with the analytic
                // Jacobian.
                jtj.iter_mut().for_each(|x| *x = 0.0);
                jtr.iter_mut().for_each(|x| *x = 0.0);
                for (row, &y) in rows.chunks_exact(k).zip(targets) {
                    for i in 0..k {
                        factors[i] = params[2 * i] + params[2 * i + 1] * row[i];
                    }
                    let yhat: f64 = factors.iter().product();
                    let r = yhat - y;
                    for i in 0..k {
                        // d yhat / d a_i = prod_{j != i} factor_j
                        let mut others = 1.0f64;
                        for (j, &f) in factors.iter().enumerate() {
                            if j != i {
                                others *= f;
                            }
                        }
                        grad[2 * i] = others;
                        grad[2 * i + 1] = others * row[i];
                    }
                    for u in 0..p {
                        jtr[u] += grad[u] * r;
                        for v in u..p {
                            jtj[u * p + v] += grad[u] * grad[v];
                        }
                    }
                }
                // Mirror the strict upper triangle (`x * y` is commutative in
                // IEEE 754, so this equals accumulating both halves).
                for u in 0..p {
                    for v in (u + 1)..p {
                        jtj[v * p + u] = jtj[u * p + v];
                    }
                }
                built = true;
            }

            // Solve (J^T J + lambda diag) delta = J^T r.
            damped.copy_from_slice(&jtj);
            for u in 0..p {
                damped[u * p + u] += lambda * (jtj[u * p + u].max(1e-12));
            }
            if !solve(&mut damped, &jtr, &mut delta) {
                rejected += 1;
                lambda *= 10.0;
                continue;
            }

            for ((c, &prev), &d) in candidate.iter_mut().zip(&params).zip(&delta) {
                *c = prev - d;
            }
            let candidate_sse = sse(&candidate, rows, k, targets);
            if candidate_sse < current_sse {
                let improvement = (current_sse - candidate_sse) / current_sse.max(1e-30);
                params.copy_from_slice(&candidate);
                built = false;
                current_sse = candidate_sse;
                lambda = (lambda * 0.5).max(1e-12);
                if improvement < 1e-10 {
                    break;
                }
            } else {
                rejected += 1;
                lambda *= 10.0;
                if lambda > 1e12 {
                    break;
                }
            }
        }

        let (a, b): (Vec<f64>, Vec<f64>) =
            (0..k).map(|i| (params[2 * i], params[2 * i + 1])).unzip();
        (ProductModel { a, b }, rejected)
    }
}

fn sse(params: &[f64], rows: &[f64], k: usize, targets: &[f64]) -> f64 {
    rows.chunks_exact(k)
        .zip(targets)
        .map(|(row, &y)| {
            let yhat: f64 = (0..k)
                .map(|i| params[2 * i] + params[2 * i + 1] * row[i])
                .product();
            (yhat - y).powi(2)
        })
        .sum()
}

/// Gaussian elimination with partial pivoting over a row-major `n x n`
/// matrix, solution written into `x`; `false` if singular. In-place and
/// allocation-free so the LM loop can call it every iteration.
fn solve(a: &mut [f64], b: &[f64], x: &mut [f64]) -> bool {
    let n = b.len();
    x.copy_from_slice(b);
    for col in 0..n {
        // Pivot. `max_by` keeps the *last* maximum on ties, matching the
        // original nested-Vec implementation exactly.
        let Some(pivot) = (col..n).max_by(|&i, &j| {
            a[i * n + col]
                .abs()
                .partial_cmp(&a[j * n + col].abs())
                .expect("finite")
        }) else {
            return false;
        };
        if a[pivot * n + col].abs() < 1e-14 {
            return false;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            x.swap(col, pivot);
        }
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            for c in col..n {
                a[row * n + c] -= factor * a[col * n + c];
            }
            x[row] -= factor * x[col];
        }
    }
    for col in (0..n).rev() {
        x[col] /= a[col * n + col];
        for row in 0..col {
            let f = a[row * n + col];
            x[row] -= f * x[col];
            a[row * n + col] = 0.0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Cold fit over nested rows.
    fn fit(rows: &[Vec<f64>], targets: &[f64], max_iterations: usize) -> ProductModel {
        let k = rows[0].len();
        let init = ProductModel::cold_start(k, targets);
        ProductModel::fit_flat(&init, &rows.concat(), k, targets, max_iterations)
    }

    #[test]
    fn linear_fit_exact() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let (b0, b1) = linear_fit(&x, &y);
        assert!((b0 - 1.0).abs() < 1e-12);
        assert!((b1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_constant_x() {
        let (b0, b1) = linear_fit(&[2.0, 2.0], &[3.0, 5.0]);
        assert_eq!(b1, 0.0);
        assert_eq!(b0, 4.0);
    }

    #[test]
    fn product_model_recovers_single_factor() {
        // y = 2 + 3x: one factor, exact recovery expected.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i) / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[0]).collect();
        let model = fit(&rows, &y, 200);
        for (row, &target) in rows.iter().zip(&y) {
            assert!((model.predict(row) - target).abs() < 1e-6);
        }
    }

    #[test]
    fn product_model_recovers_two_factors() {
        // y = (1 + 2x0)(3 + 0.5x1), noiseless.
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (1.0 + 2.0 * r[0]) * (3.0 + 0.5 * r[1]))
            .collect();
        let model = fit(&rows, &y, 400);
        let max_rel = rows
            .iter()
            .zip(&y)
            .map(|(r, &t)| ((model.predict(r) - t) / t).abs())
            .fold(0.0f64, f64::max);
        assert!(max_rel < 0.01, "max relative error {max_rel}");
    }

    #[test]
    fn product_model_tolerates_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rng.gen_range(1.0..10.0), rng.gen_range(0.0..2.0)])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (0.5 + 1.5 * r[0]) * (2.0 + r[1]) * rng.gen_range(0.95..1.05))
            .collect();
        let model = fit(&rows, &y, 300);
        // Predictions correlate strongly with targets.
        let preds: Vec<f64> = rows.iter().map(|r| model.predict(r)).collect();
        let corr = crate::pearson(&preds, &y);
        assert!(corr > 0.99, "corr {corr}");
    }

    #[test]
    fn predict_checks_arity() {
        let model = ProductModel {
            a: vec![1.0],
            b: vec![1.0],
        };
        assert_eq!(model.num_features(), 1);
        assert_eq!(model.predict(&[2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_wrong_arity_panics() {
        let model = ProductModel {
            a: vec![1.0],
            b: vec![1.0],
        };
        let _ = model.predict(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn fit_empty_panics() {
        let _ = ProductModel::fit_flat(&ProductModel::cold_start(1, &[]), &[], 1, &[], 10);
    }

    #[test]
    fn warm_start_refines_from_prior_fit() {
        // y = (1 + 2x0)(3 + 0.5x1): a warm start from an already-good
        // model must stay good with very few iterations.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (1.0 + 2.0 * r[0]) * (3.0 + 0.5 * r[1]))
            .collect();
        let cold = fit(&rows, &y, 400);
        let warm = ProductModel::fit_flat(&cold, &rows.concat(), 2, &y, 5);
        let max_rel = rows
            .iter()
            .zip(&y)
            .map(|(r, &t)| ((warm.predict(r) - t) / t).abs())
            .fold(0.0f64, f64::max);
        assert!(max_rel < 0.01, "max relative error {max_rel}");
    }

    #[test]
    #[should_panic(expected = "init feature count mismatch")]
    fn warm_start_checks_feature_count() {
        let init = ProductModel {
            a: vec![1.0],
            b: vec![0.0],
        };
        let _ = ProductModel::fit_flat(&init, &[1.0, 2.0], 2, &[3.0], 5);
    }

    #[test]
    fn solver_handles_identity() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut x = [0.0; 2];
        assert!(solve(&mut a, &[3.0, 4.0], &mut x));
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solver_detects_singular() {
        let mut a = vec![1.0, 1.0, 1.0, 1.0];
        let mut x = [0.0; 2];
        assert!(!solve(&mut a, &[1.0, 2.0], &mut x));
    }

    #[test]
    fn fit_flat_skipping_rebuilds_is_bit_identical_to_always_rebuilding() {
        // Random 3-factor problems from inits far enough off that LM
        // overshoots and rejects steps; the skipped rebuild must not move
        // one coefficient bit at any iteration budget.
        let mut rng = StdRng::seed_from_u64(13);
        let k = 3;
        let mut total_rejected = 0;
        for case in 0..40 {
            let n = rng.gen_range(8..200usize);
            let rows: Vec<f64> = (0..n * k).map(|_| rng.gen_range(0.0..4.0)).collect();
            let targets: Vec<f64> = rows
                .chunks_exact(k)
                .map(|r| {
                    (1.0 + 2.0 * r[0]) * (3.0 + 0.5 * r[1]) * (0.5 + r[2]) * rng.gen_range(0.9..1.1)
                })
                .collect();
            let init = ProductModel {
                a: (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect(),
                b: (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect(),
            };
            for iterations in [1, 6, 40, 200] {
                let (skipping, rejected) = ProductModel::levenberg_marquardt::<false>(
                    &init, &rows, k, &targets, iterations,
                );
                let (rebuilding, rejected_oracle) = ProductModel::levenberg_marquardt::<true>(
                    &init, &rows, k, &targets, iterations,
                );
                let bits = |m: &ProductModel| {
                    let coefficients = m.a.iter().chain(&m.b);
                    coefficients.map(|x| x.to_bits()).collect::<Vec<u64>>()
                };
                assert_eq!(
                    bits(&skipping),
                    bits(&rebuilding),
                    "case {case}, {iterations} its"
                );
                assert_eq!(rejected, rejected_oracle);
                total_rejected += rejected;
            }
        }
        assert!(
            total_rejected > 100,
            "only {total_rejected} rejected steps exercised"
        );
    }
}
