//! An offline, in-workspace stand-in for the tiny subset of the `rand`
//! 0.8 API this workspace uses: the [`Rng`] / [`RngCore`] / [`SeedableRng`]
//! traits, integer/float `gen_range`, `gen`, and a deterministic
//! [`rngs::StdRng`].
//!
//! The build environment has no network access and no registry cache, so
//! the real `rand` crate cannot be resolved; this crate is path-substituted
//! for it in the workspace `Cargo.toml`. The generator is xoshiro256**
//! seeded via SplitMix64 — statistically solid for the Monte-Carlo and
//! workload-sampling purposes of this repository, and fully deterministic
//! for a given seed. Streams differ from upstream `rand`'s ChaCha-based
//! `StdRng`, which only matters for tests with hard-coded expectations.

#![warn(clippy::all)]
#![forbid(unsafe_code)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value in `range` (half-open or inclusive).
    fn gen_range<T, RG: SampleRange<T>>(&mut self, range: RG) -> T {
        range.sample_from(self)
    }

    /// A value sampled from the standard distribution of `T` (uniform over
    /// the full integer domain; uniform in `[0, 1)` for floats).
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction of deterministic generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn from their "standard" distribution via
/// [`Rng::gen`].
pub trait SampleStandard {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl SampleStandard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types with a uniform range-sampling rule.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Ranges that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draw one value from `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + v) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}

impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "empty range in gen_range");
                let u = <$t as SampleStandard>::sample_standard(rng);
                let v = lo + u * (hi - lo);
                // Guard the open upper bound against rounding.
                if v >= hi { lo } else { v }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "empty range in gen_range");
                let u = <$t as SampleStandard>::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_float_uniform!(f32, f64);

/// Deterministic generators.
pub mod rngs {
    use super::SeedableRng;

    /// The workspace's standard deterministic generator: xoshiro256**
    /// seeded through SplitMix64.
    ///
    /// Not the upstream `rand` ChaCha12 `StdRng`; streams differ but the
    /// interface and determinism guarantees are the same.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1]
                .wrapping_mul(5)
                .rotate_left(7)
                .wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn float_range_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_range_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn int_ranges_cover_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = rng.gen_range(3u64..=7);
            assert!((3..=7).contains(&v));
        }
    }

    #[test]
    fn every_draw_takes_exactly_one_word() {
        // Callers that step over draws by counting words (the trace
        // generator's sizing pass) rely on this.
        let draws: [fn(&mut StdRng); 14] = [
            |r| _ = r.gen_range(0.0..1.0f64),
            |r| _ = r.gen_range(f64::MIN_POSITIVE..1.0),
            |r| _ = r.gen_range(-3.0..=2.0f64),
            |r| _ = r.gen_range(0.5..1.5f32),
            |r| _ = r.gen_range(0u32..7),
            |r| _ = r.gen_range(3u64..=7),
            |r| _ = r.gen_range(-5i64..5),
            |r| _ = r.gen_range(0usize..1),
            |r| _ = r.gen::<f64>(),
            |r| _ = r.gen::<f32>(),
            |r| _ = r.gen::<u64>(),
            |r| _ = r.gen::<u32>(),
            |r| _ = r.gen::<bool>(),
            |r| _ = r.gen_bool(0.3),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for (i, draw) in draws.iter().cycle().take(14 * 50).enumerate() {
            let mut stepped = rng.clone();
            stepped.next_u64();
            draw(&mut rng);
            assert_eq!(rng, stepped, "draw {} took other than one word", i % 14);
        }
    }

    #[test]
    fn works_through_unsized_ref() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(4);
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
