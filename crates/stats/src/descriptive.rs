//! Descriptive statistics over `f64` samples.
//!
//! Quantile functions make their edge cases explicit: an empty sample has
//! *no* quantile (the functions return [`Option`]), and NaN inputs are a
//! caller bug (the functions panic) — a NaN that slipped into a sample
//! would otherwise silently poison every order statistic above its sort
//! position. Aggregators that summarize possibly-dirty data
//! ([`Summary::of`]) filter NaN up front instead.

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance; 0 for fewer than two samples.
#[must_use]
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Coefficient of variation (std / |mean|); 0 if the mean is 0.
///
/// The magnitude of the mean is used so a sample with a negative mean
/// still reports a non-negative dispersion (CoV is a scale-free spread
/// measure, not a signed one).
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        0.0
    } else {
        std_dev(values) / m.abs()
    }
}

/// The `q`-quantile (0..=1) with linear interpolation, computed on a
/// sorted copy. `None` for an empty slice — an empty sample has no
/// quantile, and the previous silent `0.0` masked empty-bucket bugs in
/// aggregation pipelines.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The `q`-quantile of an already-sorted slice; `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN (checked at the
/// sorted tail, where `total_cmp` places every NaN).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let last = sorted.last()?;
    // total_cmp sorts every NaN after +inf, so the tail is the only
    // place one can hide.
    assert!(
        !last.is_nan(),
        "quantile of a sample containing NaN is undefined"
    );
    Some(interpolated(sorted.len(), q, |rank| sorted[rank]))
}

/// The `q`-quantile, with linear interpolation, of `n > 0` sorted values
/// read by rank through `at`.
fn interpolated(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Median (the 0.5 quantile); NaN for an empty slice.
///
/// # Panics
///
/// Panics if any value is NaN (see [`quantile`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// The fraction of samples satisfying `predicate`.
#[must_use]
pub fn fraction_where(values: &[f64], predicate: impl Fn(f64) -> bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| predicate(v)).count() as f64 / values.len() as f64
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Sample size (NaN values are excluded).
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarize a sample. NaN values are dropped first (a summary is a
    /// report over the measurable part of the data); an input with no
    /// finite-or-infinite values gives an all-zero summary.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return Summary::default();
        }
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| quantile_sorted(&sorted, p).unwrap_or(f64::NAN);
        Summary {
            count: sorted.len(),
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(&sorted),
            std_dev: std_dev(&sorted),
        }
    }

    /// [`Summary::of`] the sample in which each `(value, count)` run
    /// repeats its value `count` times, without building that sample:
    /// the runs are sorted, quantiles are read through cumulative counts,
    /// and the mean and variance fold the repeated values lazily in the
    /// same order, so the result is bit-identical to `Summary::of` on the
    /// expansion. NaN runs are dropped, as `of` drops NaN values.
    #[must_use]
    pub fn of_runs(runs: &[(f64, usize)]) -> Self {
        let mut sorted: Vec<(f64, usize)> = runs
            .iter()
            .copied()
            .filter(|&(v, count)| !v.is_nan() && count > 0)
            .collect();
        if sorted.is_empty() {
            return Summary::default();
        }
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        // `ends[i]` is one past the last rank of run `i`.
        let ends: Vec<usize> = sorted
            .iter()
            .scan(0, |end, &(_, count)| {
                *end += count;
                Some(*end)
            })
            .collect();
        let n = ends[ends.len() - 1];
        let at = |rank: usize| sorted[ends.partition_point(|&end| end <= rank)].0;
        let q = |p: f64| interpolated(n, p, at);
        let values = || {
            sorted
                .iter()
                .flat_map(|&(v, count)| std::iter::repeat_n(v, count))
        };
        let mean = values().sum::<f64>() / n as f64;
        let variance = if n < 2 {
            0.0
        } else {
            values().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64
        };
        Summary {
            count: n,
            min: sorted[0].0,
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1].0,
            mean,
            std_dev: variance.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
        assert_eq!(coefficient_of_variation(&v), 0.4);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[], 0.0), None);
        assert!(median(&[]).is_nan());
        assert_eq!(Summary::of(&[]).count, 0);
        assert_eq!(fraction_where(&[], |_| true), 0.0);
    }

    #[test]
    fn single_element_is_every_quantile() {
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(quantile(&[7.5], q), Some(7.5));
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert!((quantile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn extreme_quantiles_are_min_and_max() {
        let v = [9.0, -3.0, 4.5, 0.0, 12.25];
        assert_eq!(quantile(&v, 0.0), Some(-3.0));
        assert_eq!(quantile(&v, 1.0), Some(12.25));
    }

    #[test]
    fn median_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(5.0));
    }

    #[test]
    fn fraction_where_counts() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_where(&v, |x| x > 2.0), 0.5);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn quantile_rejects_nan_input() {
        let _ = quantile(&[3.0, f64::NAN, 1.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn quantile_rejects_all_nan_input() {
        let _ = quantile(&[f64::NAN, f64::NAN], 0.0);
    }

    #[test]
    fn summary_of_runs_is_summary_of_the_expansion_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Few distinct values, so runs tie; both zeros, infinities, NaN
        // runs, zero counts, single runs and empty inputs all come up.
        const POOL: [f64; 9] = [
            0.1,
            0.3,
            -0.0,
            0.0,
            2.5,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            -7.25,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..2_000 {
            let len = if case % 10 == 0 {
                1
            } else {
                rng.gen_range(0..12)
            };
            let runs: Vec<(f64, usize)> = (0..len)
                .map(|_| {
                    let pool = if case % 3 == 0 { &POOL[..] } else { &POOL[..6] };
                    (pool[rng.gen_range(0..pool.len())], rng.gen_range(0..6))
                })
                .collect();
            let expansion: Vec<f64> = runs
                .iter()
                .flat_map(|&(v, count)| std::iter::repeat_n(v, count))
                .collect();
            // Debug prints each float's shortest round-trip form: equal
            // strings mean equal bits (signed zeros included).
            assert_eq!(
                format!("{:?}", Summary::of_runs(&runs)),
                format!("{:?}", Summary::of(&expansion)),
                "runs {runs:?}"
            );
        }
    }

    #[test]
    fn summary_filters_nan_instead_of_propagating() {
        let s = Summary::of(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(Summary::of(&[f64::NAN]), Summary::default());
    }

    #[test]
    fn negative_mean_cov_is_positive() {
        let v = [-2.0, -4.0, -4.0, -4.0, -5.0, -5.0, -7.0, -9.0];
        assert_eq!(coefficient_of_variation(&v), 0.4);
    }
}
