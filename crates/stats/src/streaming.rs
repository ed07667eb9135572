//! O(1)-memory streaming statistics for million-job traces.
//!
//! The exact descriptive path ([`crate::Summary`], [`crate::quantile`])
//! materializes the whole sample; at 10⁶⁺ jobs that Vec dominates memory.
//! This module provides constant-memory substitutes that the exact path
//! audits on small traces:
//!
//! - [`StreamingMoments`]: count / mean / variance / CoV via a Welford
//!   accumulator plus a plain running sum. `count` and `mean` are
//!   **bit-identical** to [`crate::mean`] when samples are folded in slice
//!   order (the sum is the same left fold); variance and CoV agree with the
//!   two-pass oracle to ~1e-9 relative (Welford is at least as accurate,
//!   but rounds differently).
//! - [`P2Quantile`]: the Jain–Chlamtac P² online quantile estimator —
//!   five markers, no buffering. Exact (matching [`crate::quantile`])
//!   below five samples; afterwards an estimate whose error on unimodal
//!   job-metric distributions is typically well under 5 % of the
//!   interquartile range (the documented tolerance used by the
//!   streaming-vs-exact property tests).
//! - [`ReservoirSample`]: seeded Algorithm-R uniform reservoir, for
//!   consumers that need raw sample points.
//! - [`StreamingSummary`]: the bundle of all three shaped like
//!   [`crate::Summary`].
//!
//! All types reject NaN pushes (matching [`crate::quantile`]'s contract:
//! a NaN in a sample is a caller bug).

use crate::descriptive::{quantile_sorted, Summary};

/// Welford online moments plus an order-preserving running sum.
///
/// `mean()` is computed as `sum / count` so it is bit-identical to
/// [`crate::mean`] over the same values in the same order; the Welford
/// `(mean, m2)` pair backs `variance()` without a second pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingMoments {
    count: u64,
    sum: f64,
    w_mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingMoments {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        StreamingMoments {
            count: 0,
            sum: 0.0,
            w_mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN — a NaN would silently poison every moment.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "streaming moments of NaN are undefined");
        self.count += 1;
        self.sum += x;
        let delta = x - self.w_mean;
        self.w_mean += delta / self.count as f64;
        self.m2 += delta * (x - self.w_mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (left fold, same rounding as `iter().sum()`).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 when empty (matching [`crate::mean`]).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance; 0 below two samples (matching
    /// [`crate::variance`] up to Welford-vs-two-pass rounding).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std / |mean|); 0 if the mean is 0
    /// (matching [`crate::coefficient_of_variation`]).
    #[must_use]
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Minimum observation; +inf when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; -inf when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Absorb another accumulator (Chan et al. parallel combine). Used to
    /// roll per-shard moments up to fleet level; the merged mean keeps the
    /// `sum / count` definition, so it is bit-identical to a single global
    /// sum only when the shard sums happen to add in the same order.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.w_mean - self.w_mean;
        self.m2 += other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.w_mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// P² (Jain & Chlamtac 1985) online estimator of a single quantile.
///
/// Five markers track the running min, max, target quantile and its two
/// flanking mid-quantiles; marker heights move by parabolic (falling back
/// to linear) interpolation as observations arrive. Memory is five
/// `(height, position)` pairs regardless of stream length. Exact for the
/// first five observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
}

impl P2Quantile {
    /// Estimator for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        P2Quantile {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations folded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN (see [`crate::quantile`]).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "quantile of a sample containing NaN is undefined");
        self.count += 1;
        if self.count <= 5 {
            // Bootstrap: insert into the sorted marker prefix.
            let n = self.count as usize;
            self.heights[n - 1] = x;
            self.heights[..n].sort_by(f64::total_cmp);
            return;
        }

        // Locate the cell, stretching the extreme markers if needed.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k + 1]
            (0..4)
                .rfind(|&i| self.heights[i] <= x)
                .unwrap_or(0)
        };

        for pos in &mut self.positions[k + 1..] {
            *pos += 1.0;
        }
        for (des, inc) in self.desired.iter_mut().zip(self.increments) {
            *des += inc;
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let room_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && room_up) || (d <= -1.0 && room_down) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate; `None` when empty. Exact (matching
    /// [`crate::quantile`]) for up to five observations.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n <= 5 => quantile_sorted(&self.heights[..n as usize], self.q),
            _ => Some(self.heights[2]),
        }
    }
}

/// Seeded Algorithm-R reservoir: a uniform fixed-capacity sample of an
/// unbounded stream, deterministic per `(seed, input order)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirSample {
    capacity: usize,
    seen: u64,
    state: u64,
    samples: Vec<f64>,
}

impl ReservoirSample {
    /// Reservoir holding at most `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        ReservoirSample {
            capacity,
            seen: 0,
            state: seed,
            samples: Vec::with_capacity(capacity.min(1024)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (same generator as train_test_split).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Offer one observation to the reservoir.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else if self.capacity > 0 {
            let j = self.next_u64() % self.seen;
            if (j as usize) < self.capacity {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Total observations offered (not retained).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained sample, in reservoir order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Constant-memory stand-in for [`Summary`]: Welford moments plus P²
/// quartile markers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSummary {
    moments: StreamingMoments,
    q1: P2Quantile,
    median: P2Quantile,
    q3: P2Quantile,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// An empty streaming summary.
    #[must_use]
    pub fn new() -> Self {
        StreamingSummary {
            moments: StreamingMoments::new(),
            q1: P2Quantile::new(0.25),
            median: P2Quantile::new(0.5),
            q3: P2Quantile::new(0.75),
        }
    }

    /// Fold one observation into every component.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.q1.push(x);
        self.median.push(x);
        self.q3.push(x);
    }

    /// The moment accumulator (count / mean / variance / CoV).
    #[must_use]
    pub fn moments(&self) -> &StreamingMoments {
        &self.moments
    }

    /// Render as a [`Summary`]. `count`, `min`, `max` match the exact
    /// path; `mean` is bit-identical to [`crate::mean`] in fold order
    /// (note [`Summary::of`] averages a *sorted* copy, which rounds
    /// differently at the ulp level); quartiles and `std_dev` are
    /// estimates. All-zero when empty, like `Summary::of(&[])`.
    #[must_use]
    pub fn to_summary(&self) -> Summary {
        if self.moments.count() == 0 {
            return Summary::default();
        }
        Summary {
            count: self.moments.count() as usize,
            min: self.moments.min(),
            q1: self.q1.estimate().unwrap_or(f64::NAN),
            median: self.median.estimate().unwrap_or(f64::NAN),
            q3: self.q3.estimate().unwrap_or(f64::NAN),
            max: self.moments.max(),
            mean: self.moments.mean(),
            std_dev: self.moments.std_dev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{coefficient_of_variation, mean, quantile, variance, Summary};

    fn ramp(n: usize) -> Vec<f64> {
        // Deterministic but rough sequence: a skewed sawtooth.
        (0..n)
            .map(|i| {
                let k = (i * 2_654_435_761) % 1_000_003;
                (k as f64 / 1000.0).powf(1.3)
            })
            .collect()
    }

    #[test]
    fn moments_mean_bit_identical() {
        let values = ramp(10_000);
        let mut m = StreamingMoments::new();
        for &v in &values {
            m.push(v);
        }
        assert_eq!(m.count(), values.len() as u64);
        assert_eq!(m.mean(), mean(&values));
        assert_eq!(m.min(), values.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            m.max(),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn moments_variance_and_cov_close() {
        let values = ramp(10_000);
        let mut m = StreamingMoments::new();
        for &v in &values {
            m.push(v);
        }
        let exact_var = variance(&values);
        assert!((m.variance() - exact_var).abs() <= 1e-9 * exact_var.abs().max(1.0));
        let exact_cov = coefficient_of_variation(&values);
        assert!((m.coefficient_of_variation() - exact_cov).abs() <= 1e-9 * exact_cov.max(1.0));
    }

    #[test]
    fn moments_empty_matches_oracle() {
        let m = StreamingMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn moments_single_sample() {
        let mut m = StreamingMoments::new();
        m.push(7.5);
        assert_eq!(m.mean(), 7.5);
        assert_eq!(m.variance(), 0.0);
        assert_eq!((m.min(), m.max()), (7.5, 7.5));
    }

    #[test]
    fn moments_merge_matches_single_pass() {
        let values = ramp(5_000);
        let (a, b) = values.split_at(1_234);
        let mut left = StreamingMoments::new();
        let mut right = StreamingMoments::new();
        for &v in a {
            left.push(v);
        }
        for &v in b {
            right.push(v);
        }
        left.merge(&right);

        let mut whole = StreamingMoments::new();
        for &v in &values {
            whole.push(v);
        }
        assert_eq!(left.count(), whole.count());
        // Partial sums round differently from one sequential fold; the
        // merged mean agrees to ulp-level, not bit-exactly.
        assert!((left.mean() - whole.mean()).abs() <= 1e-12 * whole.mean().abs());
        assert!((left.variance() - whole.variance()).abs() <= 1e-9 * whole.variance());
        assert_eq!((left.min(), left.max()), (whole.min(), whole.max()));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = StreamingMoments::new();
        m.push(1.0);
        m.push(2.0);
        let before = m;
        m.merge(&StreamingMoments::new());
        assert_eq!(m, before);
        let mut empty = StreamingMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn moments_reject_nan() {
        StreamingMoments::new().push(f64::NAN);
    }

    #[test]
    fn p2_exact_below_five_samples() {
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let mut p = P2Quantile::new(q);
            assert_eq!(p.estimate(), None);
            let values = [9.0, -3.0, 4.5, 0.0];
            for (i, &v) in values.iter().enumerate() {
                p.push(v);
                assert_eq!(p.estimate(), quantile(&values[..=i], q), "q={q} n={}", i + 1);
            }
        }
    }

    #[test]
    fn p2_tracks_known_quantiles() {
        // Tolerance documented in the module docs: 5% of the IQR on
        // unimodal streams.
        let values = ramp(50_000);
        for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
            let mut p = P2Quantile::new(q);
            for &v in &values {
                p.push(v);
            }
            let exact = quantile(&values, q).expect("non-empty");
            let iqr = quantile(&values, 0.75).expect("non-empty")
                - quantile(&values, 0.25).expect("non-empty");
            assert!(
                (p.estimate().expect("non-empty") - exact).abs() <= 0.05 * iqr,
                "q={q}: p2={:?} exact={exact} iqr={iqr}",
                p.estimate()
            );
        }
    }

    #[test]
    fn p2_monotone_markers_stay_bounded() {
        let values = ramp(10_000);
        let mut p = P2Quantile::new(0.5);
        for &v in &values {
            p.push(v);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let est = p.estimate().expect("non-empty");
        assert!((lo..=hi).contains(&est), "estimate {est} outside [{lo}, {hi}]");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_out_of_range_q() {
        let _ = P2Quantile::new(1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn p2_rejects_nan() {
        P2Quantile::new(0.5).push(f64::NAN);
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let mut r = ReservoirSample::new(100, 42);
        for i in 0..80 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 80);
        assert_eq!(r.samples().len(), 80);
        assert_eq!(r.samples()[17], 17.0);
    }

    #[test]
    fn reservoir_caps_and_stays_deterministic() {
        let run = |seed| {
            let mut r = ReservoirSample::new(64, seed);
            for i in 0..10_000 {
                r.push(i as f64);
            }
            r.samples().to_vec()
        };
        let a = run(7);
        assert_eq!(a.len(), 64);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8));
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Mean of a uniform reservoir over 0..n should be near n/2.
        let mut r = ReservoirSample::new(512, 3);
        let n = 100_000;
        for i in 0..n {
            r.push(i as f64);
        }
        let m = mean(r.samples());
        assert!(
            (m - n as f64 / 2.0).abs() < 0.1 * n as f64,
            "reservoir mean {m} far from {}",
            n / 2
        );
    }

    #[test]
    fn zero_capacity_reservoir_is_inert() {
        let mut r = ReservoirSample::new(0, 1);
        r.push(1.0);
        r.push(2.0);
        assert_eq!(r.seen(), 2);
        assert!(r.samples().is_empty());
    }

    #[test]
    fn streaming_summary_matches_exact_on_small_trace() {
        let values = [3.0, 1.0, 2.0, 5.0, 4.0];
        let mut s = StreamingSummary::new();
        for &v in &values {
            s.push(v);
        }
        let exact = Summary::of(&values);
        let streamed = s.to_summary();
        // <= 5 samples: P2 is still in its exact bootstrap phase.
        assert_eq!(streamed, exact);
    }

    #[test]
    fn streaming_summary_empty_is_default() {
        assert_eq!(StreamingSummary::new().to_summary(), Summary::default());
    }

    #[test]
    fn streaming_summary_large_trace_tolerances() {
        let values = ramp(20_000);
        let mut s = StreamingSummary::new();
        for &v in &values {
            s.push(v);
        }
        let exact = Summary::of(&values);
        let streamed = s.to_summary();
        assert_eq!(streamed.count, exact.count);
        // Bit-identity holds against mean() in fold order; Summary::of
        // averages the *sorted* copy, which rounds differently.
        assert_eq!(streamed.mean, mean(&values));
        assert!((streamed.mean - exact.mean).abs() <= 1e-12 * exact.mean.abs());
        assert_eq!(streamed.min, exact.min);
        assert_eq!(streamed.max, exact.max);
        let iqr = exact.q3 - exact.q1;
        for (got, want) in [
            (streamed.q1, exact.q1),
            (streamed.median, exact.median),
            (streamed.q3, exact.q3),
        ] {
            assert!((got - want).abs() <= 0.05 * iqr, "got {got} want {want}");
        }
    }
}
