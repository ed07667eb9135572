//! An offline, in-workspace stand-in for the subset of the `proptest` API
//! this workspace uses: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`, range and tuple strategies, [`collection::vec`], and the
//! `prop_assert*` macros.
//!
//! The build environment has no network access, so the real `proptest`
//! crate cannot be resolved; this crate is path-substituted for it. It
//! keeps the property-based *testing* semantics (many random cases per
//! property, deterministic per test name) but does not implement
//! shrinking.
//!
//! # Replaying a failure
//!
//! A failing case panics with its assert message, prefixed by the
//! property's name, its seed ([`seed_for`] of the name) and the case
//! index `k`. Cases are drawn one after another from that seed, so
//! setting `PROPTEST_CASE=k` replays exactly that case: the runner still
//! generates cases `0..k` on the same stream, discards them unrun, then
//! runs case `k` alone. For example
//! `PROPTEST_CASE=17 cargo test -q -p qcs-cloud fairshare_tree_matches_scan_oracle`.
//! `k` may lie past the property's case count.

#![warn(clippy::all)]
#![forbid(unsafe_code)]

use rand::SeedableRng;

/// The RNG driving case generation.
pub type TestRng = rand::rngs::StdRng;

/// Per-property configuration (case count only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy for `Vec`s of `element` values with a length drawn from
    /// `size` (half-open).
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The [`vec`] strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rand::Rng::gen_range(rng, self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Deterministic per-test seed derived from the property name.
#[must_use]
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build a fresh case-generation RNG for a property name.
#[must_use]
pub fn test_rng(name: &str) -> TestRng {
    TestRng::seed_from_u64(seed_for(name))
}

/// Assert inside a property (no shrinking: behaves like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property (behaves like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property (behaves like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declare property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases (or only case
/// `PROPTEST_CASE`; see the crate docs).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __name = stringify!($name);
                let __only: Option<u32> = std::env::var("PROPTEST_CASE").ok().map(|k| {
                    k.trim().parse().unwrap_or_else(|_| {
                        panic!("PROPTEST_CASE must be a case index, not {k:?}")
                    })
                });
                let mut __rng = $crate::test_rng(__name);
                for __case in 0..__only.map_or(__cfg.cases, |k| k.saturating_add(1)) {
                    let ( $($pat,)+ ) =
                        ( $( $crate::Strategy::generate(&($strat), &mut __rng), )+ );
                    if __only.is_some_and(|k| k != __case) {
                        continue;
                    }
                    let __run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                    if let Err(__payload) = __run {
                        let __message = __payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| __payload.downcast_ref::<&str>().copied())
                            .unwrap_or("(a non-string panic)");
                        panic!(
                            "property {} (seed {:#018x}) failed at case {}; replay it alone \
                             with PROPTEST_CASE={}: {}",
                            __name,
                            $crate::seed_for(__name),
                            __case,
                            __case,
                            __message,
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 2usize..10, y in -1.5f64..1.5) {
            prop_assert!((2..10).contains(&x));
            prop_assert!((-1.5..1.5).contains(&y));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u8..4, 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn prop_map_applies(n in (0u32..5).prop_map(|n| n * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert!(n < 10);
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::seed_for("a"), crate::seed_for("b"));
        assert_eq!(crate::seed_for("a"), crate::seed_for("a"));
    }
}
