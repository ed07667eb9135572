//! Random samplers for workload characteristics (batch sizes, shots,
//! widths, arrival counts).
//!
//! Every draw takes exactly one word from the generator. The samplers the
//! trace generator's sizing pass steps over have `skip_*` twins beside
//! them that consume the same words without computing the sample; change
//! a sampler's draws and its twin must change with it.

use rand::Rng;

/// Sample a Poisson random variable.
///
/// Knuth's multiplication method for small means, normal approximation for
/// large means.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen_range(0.0..1.0);
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen_range(0.0..1.0f64);
            count += 1;
        }
        count
    } else {
        // Normal approximation N(lambda, lambda).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as u64
    }
}

/// Sample a geometric variable with the given mean, truncated to
/// `[1, max]`.
pub fn geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64, max: u32) -> u32 {
    let p = 1.0 / mean.max(1.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let k = (u.ln() / (1.0 - p).ln()).floor() as u32 + 1;
    k.clamp(1, max)
}

/// Sample log-uniformly from `[lo, hi]`.
pub fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi > lo, "log_uniform needs 0 < lo < hi");
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

/// Batch size (circuits per job), following the paper's observation of a
/// wide 1-900 spread dominated by small batches with a spike at the
/// maximum (Fig 11).
pub fn batch_size<R: Rng + ?Sized>(rng: &mut R, max_batch: u32) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let b = if u < 0.25 {
        geometric(rng, 8.0, max_batch)
    } else if u < 0.55 {
        log_uniform(rng, 10.0, 100.0).round() as u32
    } else if u < 0.85 {
        log_uniform(rng, 100.0, 900.0).round() as u32
    } else {
        max_batch
    };
    b.clamp(1, max_batch)
}

/// Consume exactly the words [`batch_size`] draws: its branch draw, then
/// one more unless the batch is the maximum.
pub(crate) fn skip_batch_size<R: Rng + ?Sized>(rng: &mut R) {
    let u: f64 = rng.gen_range(0.0..1.0);
    if u < 0.85 {
        rng.next_u64();
    }
}

/// Shots per circuit: mass at the typical powers of two, capped at the
/// machine limit.
pub fn shots<R: Rng + ?Sized>(rng: &mut R, max_shots: u32) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let s = if u < 0.10 {
        1024
    } else if u < 0.22 {
        2048
    } else if u < 0.42 {
        4096
    } else if u < 0.92 {
        8192
    } else {
        log_uniform(rng, 100.0, 1000.0).round() as u32
    };
    s.min(max_shots).max(1)
}

/// Consume exactly the words [`shots`] draws: its branch draw, then one
/// more for the log-uniform tail.
pub(crate) fn skip_shots<R: Rng + ?Sized>(rng: &mut R) {
    let u: f64 = rng.gen_range(0.0..1.0);
    if u >= 0.92 {
        rng.next_u64();
    }
}

/// Circuit width on a machine with `machine_qubits` qubits: small machines
/// run near-full-width circuits, large machines mostly small fractions
/// (the paper's Fig 8 utilization pattern).
pub fn width<R: Rng + ?Sized>(rng: &mut R, machine_qubits: usize) -> usize {
    if machine_qubits <= 1 {
        return 1;
    }
    let mean_fraction = match machine_qubits {
        0..=5 => 0.75,
        6..=16 => 0.50,
        17..=30 => 0.28,
        _ => 0.16,
    };
    let jitter: f64 = rng.gen_range(0.5..1.5);
    let w = (machine_qubits as f64 * mean_fraction * jitter).round() as usize;
    w.clamp(1, machine_qubits)
}

/// Consume exactly the words [`width`] draws.
pub(crate) fn skip_width<R: Rng + ?Sized>(rng: &mut R, machine_qubits: usize) {
    if machine_qubits > 1 {
        rng.next_u64();
    }
}

/// Sample an exponential inter-arrival gap with the given mean (seconds,
/// or any unit). Returns `0.0` for a non-positive mean.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// A Zipf(1)-activity rank in `[1, n]`, O(1) per draw.
///
/// Uses the continuous inverse-CDF approximation `rank = ⌊n^U⌋` (density
/// ∝ 1/rank): exact enough for activity skew over millions of users,
/// where the weights walk in [`ZipfProviders`] would cost O(n) per
/// sample.
pub fn zipf_rank<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n >= 1, "need at least one rank");
    let u: f64 = rng.gen_range(0.0..1.0);
    ((n as f64).powf(u).floor() as u64).clamp(1, n)
}

/// Zipf-distributed provider ids in `[1, num_providers)` (provider 0 is
/// reserved for the study group), with the `1/k` weights and their total
/// computed once rather than per draw.
#[derive(Debug, Clone)]
pub struct ZipfProviders {
    /// `1.0 / k as f64` at index `k - 1`.
    weights: Vec<f64>,
    /// The weights summed for `k = 1..=n` in that order.
    total: f64,
}

impl ZipfProviders {
    /// The table for `num_providers` providers.
    ///
    /// # Panics
    ///
    /// Panics if `num_providers < 2`.
    #[must_use]
    pub fn new(num_providers: usize) -> Self {
        assert!(num_providers >= 2, "need at least two providers");
        let weights: Vec<f64> = (1..num_providers).map(|k| 1.0 / k as f64).collect();
        let total = weights.iter().sum();
        ZipfProviders { weights, total }
    }

    /// Draw one provider id: one word, then a walk that subtracts each
    /// weight from the draw until it falls below one.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let mut u = rng.gen_range(0.0..self.total);
        for (i, &w) in self.weights.iter().enumerate() {
            if u < w {
                return i as u32 + 1;
            }
            u -= w;
        }
        self.weights.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skip_twins_draw_what_their_samplers_draw() {
        // Both branches of every twin: 20k draws from one stream reach
        // each branch thousands of times.
        let mut sampled = StdRng::seed_from_u64(10);
        let mut skipped = sampled.clone();
        for i in 0..20_000 {
            let qubits = [1, 5, 27][i % 3];
            width(&mut sampled, qubits);
            skip_width(&mut skipped, qubits);
            batch_size(&mut sampled, 900);
            skip_batch_size(&mut skipped);
            shots(&mut sampled, [8192, 1000][i % 2]);
            skip_shots(&mut skipped);
            assert_eq!(sampled, skipped, "draw {i}");
        }
    }

    #[test]
    fn poisson_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        for &lambda in &[0.5, 5.0, 50.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn geometric_mean_and_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<u32> = (0..n).map(|_| geometric(&mut rng, 5.0, 900)).collect();
        let mean = samples.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.3, "mean {mean}");
        assert!(samples.iter().all(|&x| (1..=900).contains(&x)));
    }

    #[test]
    fn batch_sizes_span_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u32> = (0..5_000).map(|_| batch_size(&mut rng, 900)).collect();
        assert!(samples.contains(&1));
        assert!(samples.contains(&900));
        assert!(samples.iter().all(|&b| (1..=900).contains(&b)));
        // Spike at max: roughly 10% + log-uniform tail.
        let at_max = samples.iter().filter(|&&b| b == 900).count();
        assert!(at_max > 500, "at_max {at_max}");
    }

    #[test]
    fn shots_typical_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<u32> = (0..5_000).map(|_| shots(&mut rng, 8192)).collect();
        let at_8192 = samples.iter().filter(|&&s| s == 8192).count();
        assert!(at_8192 > 2000, "8192 count {at_8192}");
        assert!(samples.iter().all(|&s| s <= 8192));
        // Capping respected.
        assert!((0..100).all(|_| shots(&mut rng, 1000) <= 1000));
    }

    #[test]
    fn width_respects_machine_size() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(width(&mut rng, 1), 1);
        let small: Vec<usize> = (0..2_000).map(|_| width(&mut rng, 5)).collect();
        let large: Vec<usize> = (0..2_000).map(|_| width(&mut rng, 65)).collect();
        let mean_frac_small =
            small.iter().sum::<usize>() as f64 / (2_000.0 * 5.0);
        let mean_frac_large =
            large.iter().sum::<usize>() as f64 / (2_000.0 * 65.0);
        assert!(mean_frac_small > 0.55, "small {mean_frac_small}");
        assert!(mean_frac_large < 0.30, "large {mean_frac_large}");
        assert!(small.iter().all(|&w| (1..=5).contains(&w)));
    }

    /// The per-draw provider sampler [`ZipfProviders`] replaced: the
    /// harmonic total and every weight recomputed on each draw.
    fn zipf_provider_oracle<R: Rng + ?Sized>(rng: &mut R, num_providers: usize) -> u32 {
        let n = num_providers - 1;
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = rng.gen_range(0.0..total);
        for k in 1..=n {
            let w = 1.0 / k as f64;
            if u < w {
                return k as u32;
            }
            u -= w;
        }
        n as u32
    }

    /// A generator that hands out one fixed word: a one-word draw sees it.
    struct Word(u64);

    impl rand::RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn zipf_table_draws_what_the_per_draw_walk_draws() {
        // A prefix-sum table (compare the draw with running totals, or
        // binary-search them) is the same distribution but rounds
        // differently where the draw sits within a few ulps of a weight
        // boundary, so it moves some draws. Random draws almost never land
        // there; the second loop puts every draw word within 512 steps of
        // each boundary through both samplers. The stream-vs-oracle test
        // cannot see such a change, as both of its sides build the table.
        for num_providers in [2, 3, 40, 41] {
            let table = ZipfProviders::new(num_providers);
            let mut drawn = StdRng::seed_from_u64(0x21ff ^ num_providers as u64);
            let mut oracle = drawn.clone();
            for i in 0..1_000_000 {
                let got = table.draw(&mut drawn);
                let want = zipf_provider_oracle(&mut oracle, num_providers);
                assert_eq!(got, want, "{num_providers} providers, draw {i}");
                assert_eq!(drawn, oracle, "{num_providers} providers, draw {i}");
            }
            // `gen_range(0.0..total)` maps word `j << 11` to
            // `j * 2^-53 * total`.
            let steps = (1u64 << 53) as f64;
            let mut boundary = 0.0;
            for &w in &table.weights {
                boundary += w;
                let j = (boundary / table.total * steps) as u64;
                for j in j.saturating_sub(512)..(j + 512).min(1 << 53) {
                    let word = j << 11;
                    let want = zipf_provider_oracle(&mut Word(word), num_providers);
                    assert_eq!(table.draw(&mut Word(word)), want, "word {word:#x}");
                }
            }
        }
    }

    #[test]
    fn zipf_favors_low_ids() {
        let mut rng = StdRng::seed_from_u64(6);
        let table = ZipfProviders::new(40);
        let samples: Vec<u32> = (0..10_000).map(|_| table.draw(&mut rng)).collect();
        let ones = samples.iter().filter(|&&p| p == 1).count();
        let thirties = samples.iter().filter(|&&p| p == 30).count();
        assert!(
            ones > 10 * thirties.max(1) / 2,
            "ones {ones} thirties {thirties}"
        );
        assert!(samples.iter().all(|&p| (1..40).contains(&p)));
    }

    #[test]
    fn exponential_mean_and_edge() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 3.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        assert_eq!(exponential(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn zipf_rank_is_skewed_and_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 3_000_000u64;
        let samples: Vec<u64> = (0..20_000).map(|_| zipf_rank(&mut rng, n)).collect();
        assert!(samples.iter().all(|&r| (1..=n).contains(&r)));
        let head = samples.iter().filter(|&&r| r <= 10).count();
        let mid = samples.iter().filter(|&&r| (1_000..=1_010).contains(&r)).count();
        // Density ∝ 1/rank: the first ten ranks outweigh any ten-rank
        // window further out by orders of magnitude.
        assert!(head > 20 * mid.max(1), "head {head} mid {mid}");
        assert_eq!(zipf_rank(&mut rng, 1), 1);
    }

    #[test]
    fn log_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = log_uniform(&mut rng, 10.0, 100.0);
            assert!((10.0..=100.0).contains(&x));
        }
    }
}
