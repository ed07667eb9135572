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
    /// (`rows.len() == k * targets.len()`).
    ///
    /// Each `k` runs its own instantiation of one kernel generic over the
    /// feature count, so parameters, gradient, `J^T J`, `J^T r` and the
    /// solver's matrix are fixed-size stack arrays and every row is a
    /// `[f64; k]` with its bounds known at compile time. `J^T J` is
    /// filled on the upper triangle only and mirrored — IEEE
    /// multiplication commutes, so the result is bit-identical to the
    /// full accumulation — and the normal equations are rebuilt only
    /// after an accepted step: a rejected one changes `lambda`, not the
    /// parameters they are evaluated at.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, `rows.len()` is not `k * targets.len()`,
    /// or `init`'s feature count does not match `k`; panics with
    /// `fit_flat fits at most 8 features` if `k > 8`.
    #[must_use]
    pub fn fit_flat(
        init: &ProductModel,
        rows: &[f64],
        k: usize,
        targets: &[f64],
        max_iterations: usize,
    ) -> Self {
        levenberg_marquardt(init, rows, k, targets, max_iterations).0
    }
}

/// [`ProductModel::fit_flat`] with the number of steps it rejected: checks
/// the shapes and runs the kernel instantiated for `k`.
fn levenberg_marquardt(
    init: &ProductModel,
    rows: &[f64],
    k: usize,
    targets: &[f64],
    max_iterations: usize,
) -> (ProductModel, usize) {
    assert!(k > 0, "need at least one feature");
    assert_eq!(rows.len(), k * targets.len(), "row/target length mismatch");
    assert!(!targets.is_empty(), "empty training set");
    assert_eq!(init.num_features(), k, "init feature count mismatch");
    let kernel = match k {
        1 => lm_kernel::<1, 2>,
        2 => lm_kernel::<2, 4>,
        3 => lm_kernel::<3, 6>,
        4 => lm_kernel::<4, 8>,
        5 => lm_kernel::<5, 10>,
        6 => lm_kernel::<6, 12>,
        7 => lm_kernel::<7, 14>,
        8 => lm_kernel::<8, 16>,
        _ => panic!("fit_flat fits at most 8 features, got {k}"),
    };
    kernel(init, rows, targets, max_iterations)
}

/// The LM loop at `K` features and `P = 2 K` parameters, interleaved
/// `a_0, b_0, a_1, b_1, ...` (stable Rust cannot spell `[f64; 2 * K]`).
fn lm_kernel<const K: usize, const P: usize>(
    init: &ProductModel,
    rows: &[f64],
    targets: &[f64],
    max_iterations: usize,
) -> (ProductModel, usize) {
    const { assert!(P == 2 * K) };
    let (rows, _) = rows.as_chunks::<K>();
    let mut params = [0.0f64; P];
    for i in 0..K {
        params[2 * i] = init.a[i];
        params[2 * i + 1] = init.b[i];
    }

    let mut jtj = [[0.0f64; P]; P];
    let mut jtr = [0.0f64; P];
    let mut delta = [0.0f64; P];
    let mut lambda = 1e-3;
    let mut current_sse = sse(&params, rows, targets);
    let mut rejected = 0usize;
    // Do `jtj` / `jtr` still describe `params`?
    let mut built = false;

    for _ in 0..max_iterations {
        if !built {
            (jtj, jtr) = normal_equations(&params, rows, targets);
            built = true;
        }

        // Solve (J^T J + lambda diag) delta = J^T r.
        let mut damped = jtj;
        for u in 0..P {
            damped[u][u] += lambda * jtj[u][u].max(1e-12);
        }
        if !solve(damped.as_flattened_mut(), &jtr, &mut delta) {
            rejected += 1;
            lambda *= 10.0;
            continue;
        }

        let mut candidate = params;
        for (c, &d) in candidate.iter_mut().zip(&delta) {
            *c -= d;
        }
        let candidate_sse = sse(&candidate, rows, targets);
        if candidate_sse < current_sse {
            let improvement = (current_sse - candidate_sse) / current_sse.max(1e-30);
            params = candidate;
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

    let (a, b) = params
        .as_chunks::<2>()
        .0
        .iter()
        .map(|&[a, b]| (a, b))
        .unzip();
    (ProductModel { a, b }, rejected)
}

/// `J^T J` (accumulated on the upper triangle) and `J^T r` at `params`
/// with the analytic Jacobian:
/// `d yhat / d a_i` is the product of the other factors, and
/// `d yhat / d b_i` that times `x_i`.
fn normal_equations<const K: usize, const P: usize>(
    params: &[f64; P],
    rows: &[[f64; K]],
    targets: &[f64],
) -> ([[f64; P]; P], [f64; P]) {
    let mut upper = [[0.0f64; P]; P];
    let mut jtr = [0.0f64; P];
    for (row, &y) in rows.iter().zip(targets) {
        let mut factors = [0.0f64; K];
        for i in 0..K {
            factors[i] = params[2 * i] + params[2 * i + 1] * row[i];
        }
        let yhat: f64 = factors.iter().product();
        let r = yhat - y;
        let mut grad = [0.0f64; P];
        for i in 0..K {
            let mut others = 1.0f64;
            for (j, &f) in factors.iter().enumerate() {
                if j != i {
                    others *= f;
                }
            }
            grad[2 * i] = others;
            grad[2 * i + 1] = others * row[i];
        }
        for u in 0..P {
            jtr[u] += grad[u] * r;
            for v in u..P {
                upper[u][v] += grad[u] * grad[v];
            }
        }
    }
    // Mirror the strict upper triangle (`x * y` is commutative in IEEE
    // 754, so this equals accumulating both halves).
    let jtj = std::array::from_fn(|u| std::array::from_fn(|v| upper[u.min(v)][u.max(v)]));
    (jtj, jtr)
}

fn sse<const K: usize, const P: usize>(
    params: &[f64; P],
    rows: &[[f64; K]],
    targets: &[f64],
) -> f64 {
    rows.iter()
        .zip(targets)
        .map(|(row, &y)| {
            let yhat: f64 = (0..K)
                .map(|i| params[2 * i] + params[2 * i + 1] * row[i])
                .product();
            (yhat - y).powi(2)
        })
        .sum()
}

/// Gaussian elimination with partial pivoting over a row-major `n x n`
/// matrix, solution written into `x`; `false` if singular. In-place and
/// allocation-free so the LM loop can call it every iteration.
///
/// A pivot that is non-finite or below `1e-14` in magnitude counts as
/// singular: a matrix that overflowed (an LM step from a far-off start)
/// rejects the step instead of eliminating with infinities.
fn solve(a: &mut [f64], b: &[f64], x: &mut [f64]) -> bool {
    let n = b.len();
    x.copy_from_slice(b);
    for col in 0..n {
        // Pivot. `max_by` keeps the *last* maximum on ties, matching the
        // original nested-Vec implementation exactly; `total_cmp` orders
        // finite magnitudes as `partial_cmp` does and ranks a NaN above
        // them all, so a column holding one pivots on it and is refused.
        let Some(pivot) =
            (col..n).max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
        else {
            return false;
        };
        let magnitude = a[pivot * n + col].abs();
        if !magnitude.is_finite() || magnitude < 1e-14 {
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
    fn solver_refuses_non_finite_pivots() {
        // A NaN below a finite diagonal outranks it as the pivot.
        for mut a in [
            vec![f64::INFINITY, 0.0, 0.0, 1.0],
            vec![1.0, 0.0, f64::NAN, 1.0],
            vec![1.0, 2.0, 3.0, f64::NEG_INFINITY],
        ] {
            let mut x = [0.0; 2];
            assert!(!solve(&mut a, &[1.0, 2.0], &mut x), "{a:?}");
        }
    }

    /// The dynamic-`k` LM loop the kernel replaced, in its always-rebuild
    /// flavour: heap buffers, a runtime feature count, and `J^T J` /
    /// `J^T r` recomputed every iteration, rejected step or not. The
    /// kernel's only oracle; shapes are trusted.
    fn dynamic_oracle(
        init: &ProductModel,
        rows: &[f64],
        k: usize,
        targets: &[f64],
        max_iterations: usize,
    ) -> (ProductModel, usize) {
        let p = 2 * k;
        let mut params = vec![0.0; p];
        for i in 0..k {
            params[2 * i] = init.a[i];
            params[2 * i + 1] = init.b[i];
        }
        let mut jtj = vec![0.0f64; p * p];
        let mut jtr = vec![0.0f64; p];
        let mut damped = vec![0.0f64; p * p];
        let mut factors = vec![0.0f64; k];
        let mut grad = vec![0.0f64; p];
        let mut candidate = vec![0.0f64; p];
        let mut delta = vec![0.0f64; p];
        let mut lambda = 1e-3;
        let mut current_sse = dynamic_sse(&params, rows, k, targets);
        let mut rejected = 0usize;

        for _ in 0..max_iterations {
            jtj.iter_mut().for_each(|x| *x = 0.0);
            jtr.iter_mut().for_each(|x| *x = 0.0);
            for (row, &y) in rows.chunks_exact(k).zip(targets) {
                for i in 0..k {
                    factors[i] = params[2 * i] + params[2 * i + 1] * row[i];
                }
                let yhat: f64 = factors.iter().product();
                let r = yhat - y;
                for i in 0..k {
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
            for u in 0..p {
                for v in (u + 1)..p {
                    jtj[v * p + u] = jtj[u * p + v];
                }
            }

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
            let candidate_sse = dynamic_sse(&candidate, rows, k, targets);
            if candidate_sse < current_sse {
                let improvement = (current_sse - candidate_sse) / current_sse.max(1e-30);
                params.copy_from_slice(&candidate);
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

        let (a, b) = (0..k).map(|i| (params[2 * i], params[2 * i + 1])).unzip();
        (ProductModel { a, b }, rejected)
    }

    fn dynamic_sse(params: &[f64], rows: &[f64], k: usize, targets: &[f64]) -> f64 {
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

    fn bits(m: &ProductModel) -> Vec<u64> {
        m.a.iter().chain(&m.b).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fit_flat_skipping_rebuilds_is_bit_identical_to_always_rebuilding() {
        // Random 3-factor problems from inits far enough off that LM
        // overshoots and rejects steps; the kernel's skipped rebuild must
        // not move one coefficient bit at any iteration budget.
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
            for iterations in BUDGETS {
                let (skipping, rejected) =
                    levenberg_marquardt(&init, &rows, k, &targets, iterations);
                let (rebuilding, rejected_oracle) =
                    dynamic_oracle(&init, &rows, k, &targets, iterations);
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

    /// One random problem at `k` features, drawn like the 3-factor ones
    /// above: rows uniform in `[0, 4)`, one problem in three with a
    /// feature that is zero in every row (a zero `J^T J` diagonal, which
    /// the damping clamps), targets from a random positive product law
    /// with ±10 % noise, and three inits: the law itself (warm),
    /// `cold_start`, and coefficients uniform in `[-5, 5)`, far enough off
    /// that LM overshoots and rejects steps.
    fn problem(rng: &mut StdRng, k: usize) -> (Vec<f64>, Vec<f64>, [ProductModel; 3]) {
        let n = rng.gen_range(8..48usize);
        let mut rows: Vec<f64> = (0..n * k).map(|_| rng.gen_range(0.0..4.0)).collect();
        if rng.gen_range(0..3) == 0 {
            let zero = rng.gen_range(0..k);
            rows.iter_mut().skip(zero).step_by(k).for_each(|x| *x = 0.0);
        }
        let law = ProductModel {
            a: (0..k).map(|_| rng.gen_range(0.5..3.0)).collect(),
            b: (0..k).map(|_| rng.gen_range(0.0..2.0)).collect(),
        };
        let targets: Vec<f64> = rows
            .chunks_exact(k)
            .map(|r| law.predict(r) * rng.gen_range(0.9..1.1))
            .collect();
        let cold = ProductModel::cold_start(k, &targets);
        let far = ProductModel {
            a: (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect(),
            b: (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect(),
        };
        (rows, targets, [law, cold, far])
    }

    const BUDGETS: [usize; 4] = [1, 6, 40, 200];

    #[test]
    fn lm_kernel_matches_dynamic_oracle() {
        let mut rng = StdRng::seed_from_u64(4949);
        for k in 1..=8 {
            let mut rejected_at_k = 0;
            for case in 0..3 {
                let (rows, targets, inits) = problem(&mut rng, k);
                for (init, start) in inits.iter().zip(["warm", "cold", "far"]) {
                    for iterations in BUDGETS {
                        let (fit, rejected) =
                            levenberg_marquardt(init, &rows, k, &targets, iterations);
                        let (oracle, oracle_rejected) =
                            dynamic_oracle(init, &rows, k, &targets, iterations);
                        let at = format!("k {k}, case {case}, {start} init, {iterations} its");
                        assert_eq!(bits(&fit), bits(&oracle), "{at}");
                        assert_eq!(rejected, oracle_rejected, "{at}");
                        rejected_at_k += rejected;
                    }
                }
            }
            assert!(
                rejected_at_k >= 5,
                "k {k}: only {rejected_at_k} rejected steps"
            );
        }
    }

    /// Kernel and oracle could drift together; these bits were folded
    /// from the dynamic-`k` loop before the kernel replaced it.
    #[test]
    fn lm_kernel_bits_are_pinned() {
        let mut rng = StdRng::seed_from_u64(49);
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for k in 1..=8 {
            for _ in 0..2 {
                let (rows, targets, inits) = problem(&mut rng, k);
                for init in &inits {
                    for iterations in BUDGETS {
                        let fit = ProductModel::fit_flat(init, &rows, k, &targets, iterations);
                        for x in bits(&fit) {
                            fold = (fold ^ x).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(fold, 0x337b_7e19_f7e7_377c);
    }

    #[test]
    #[should_panic(expected = "fit_flat fits at most 8 features")]
    fn fit_flat_refuses_more_than_eight_features() {
        let init = ProductModel {
            a: vec![1.0; 9],
            b: vec![0.0; 9],
        };
        let _ = ProductModel::fit_flat(&init, &[1.0; 9], 9, &[1.0], 5);
    }

    #[test]
    fn overflowing_normal_equations_reject_the_step() {
        // From a = b = 1e200 every product overflows: J^T J is all
        // infinities, which used to reach the pivot compare as NaN and
        // panic. Each step is now refused as singular and the fit keeps
        // its init, kernel and oracle alike.
        let init = ProductModel {
            a: vec![1e200; 2],
            b: vec![1e200; 2],
        };
        let rows = [1.0, 2.0, 0.5, 0.25, 3.0, 1.0];
        let targets = [1.0, 2.0, 3.0];
        let (fit, rejected) = levenberg_marquardt(&init, &rows, 2, &targets, 5);
        let (oracle, oracle_rejected) = dynamic_oracle(&init, &rows, 2, &targets, 5);
        assert_eq!(fit, init);
        assert_eq!(bits(&fit), bits(&oracle));
        assert_eq!((rejected, oracle_rejected), (5, 5));
    }
}
