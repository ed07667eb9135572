//! Small sampling helpers (Box–Muller normal, lognormal) so the workspace
//! does not need `rand_distr`.

use rand::Rng;

/// Sample a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample `N(mean, std_dev)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// A lognormal distribution **with a given linear-scale mean** and
/// coefficient of variation (std/mean), its constants computed once.
///
/// For CoV `c`, the underlying normal has `sigma^2 = ln(1 + c^2)` and
/// `mu = ln(mean) - sigma^2 / 2`, so `E[X] = mean` exactly. A CoV of zero
/// is the constant `mean`, and sampling it draws nothing.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mean: f64,
    cov: f64,
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// The lognormal with this mean and coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cov < 0`.
    #[must_use]
    pub fn with_cov(mean: f64, cov: f64) -> Self {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(cov >= 0.0, "coefficient of variation must be non-negative");
        let sigma2 = (1.0 + cov * cov).ln();
        LogNormal {
            mean,
            cov,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draw one sample: the two words of [`standard_normal`], or none for
    /// a zero CoV.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.cov == 0.0 {
            return self.mean;
        }
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Sample a lognormal distribution with the given linear-scale mean and
/// coefficient of variation: [`LogNormal::with_cov`] then
/// [`LogNormal::sample`].
///
/// # Panics
///
/// Panics if `mean <= 0` or `cov < 0`.
pub fn lognormal_with_cov<R: Rng + ?Sized>(rng: &mut R, mean: f64, cov: f64) -> f64 {
    LogNormal::with_cov(mean, cov).sample(rng)
}

/// Consume exactly the words [`lognormal_with_cov`] draws with this `cov`
/// (the two of [`standard_normal`], none for a constant), without
/// sampling.
pub fn skip_lognormal_with_cov<R: Rng + ?Sized>(rng: &mut R, cov: f64) {
    if cov != 0.0 {
        rng.next_u64();
        rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_mean_and_cov() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 40_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| lognormal_with_cov(&mut rng, 0.01, 0.75))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cov = var.sqrt() / mean;
        assert!((mean - 0.01).abs() < 0.001, "mean {mean}");
        assert!((cov - 0.75).abs() < 0.08, "cov {cov}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_skip_draws_what_the_sampler_draws() {
        let mut sampled = StdRng::seed_from_u64(5);
        let mut skipped = sampled.clone();
        for cov in [0.0, 1.0, 0.0, 0.3] {
            let _ = lognormal_with_cov(&mut sampled, 2.0, cov);
            skip_lognormal_with_cov(&mut skipped, cov);
            assert_eq!(sampled, skipped, "cov {cov}");
        }
    }

    #[test]
    fn lognormal_type_is_the_inline_formula() {
        // The formula `lognormal_with_cov` evaluated inline before the
        // constants moved into `LogNormal`: same value bits, same words.
        let inline = |rng: &mut StdRng, mean: f64, cov: f64| {
            let sigma2: f64 = (1.0 + cov * cov).ln();
            let mu = mean.ln() - sigma2 / 2.0;
            (mu + sigma2.sqrt() * standard_normal(rng)).exp()
        };
        let mut sampled = StdRng::seed_from_u64(6);
        let mut oracle = sampled.clone();
        for (mean, cov) in [(1.0, 0.08), (57_600.0, 1.0), (12.0, 0.8), (3e-4, 1e-12)] {
            let ln = LogNormal::with_cov(mean, cov);
            for _ in 0..1000 {
                assert_eq!(
                    ln.sample(&mut sampled).to_bits(),
                    inline(&mut oracle, mean, cov).to_bits()
                );
            }
            assert_eq!(sampled, oracle, "mean {mean} cov {cov}");
        }
    }

    #[test]
    fn lognormal_zero_cov_is_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(lognormal_with_cov(&mut rng, 0.5, 0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lognormal_rejects_nonpositive_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = lognormal_with_cov(&mut rng, 0.0, 0.5);
    }
}
