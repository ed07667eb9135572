//! Bounded retry with jittered exponential backoff.
//!
//! The jitter is *seeded* — derived per attempt through the same
//! SplitMix64 derivation (`qcs_exec::derive_seed`) the simulator uses for
//! per-trajectory RNG seeds — so a retry schedule is a pure function of
//! `(policy, attempt)`. Chaos tests can assert exact delays; production
//! callers get decorrelated jitter by varying the seed per client.

use std::time::Duration;

use qcs_exec::derive_seed;

/// A bounded-retry policy: up to [`max_retries`](RetryPolicy::max_retries)
/// re-attempts after the first try, sleeping a jittered exponential
/// backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first try (`0` = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the per-attempt jitter derivation.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// Total tries a request may consume (first attempt + retries).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The backoff before retry number `attempt` (0-based): the capped
    /// exponential `min(base << attempt, max)` scaled by a deterministic
    /// jitter factor in `[0.5, 1.0)` drawn from
    /// `derive_seed(seed, attempt)`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1_u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay.max(self.base_delay));
        // 53 high-quality bits -> a float in [0, 1), mapped to [0.5, 1.0).
        let unit = (derive_seed(self.seed, u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit / 2.0)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// What retrying calls observed: the caller passes one block to every
/// [`GatewayClient::request_with_retry`](crate::GatewayClient::request_with_retry)
/// it wants counted together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Re-attempts performed (transport errors and `BUSY` responses).
    pub retries: u64,
    /// Requests abandoned with their retry budget exhausted.
    pub giveups: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            seed: 42,
        };
        for attempt in 0..6 {
            assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert!(
            (0..6).any(|a| policy.backoff(a) != other.backoff(a)),
            "seed must influence jitter"
        );
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(8),
            max_delay: Duration::from_secs(2),
            seed: 7,
        };
        for attempt in 0..6u32 {
            let exp = Duration::from_millis(8 << attempt).min(Duration::from_secs(2));
            let delay = policy.backoff(attempt);
            assert!(
                delay >= exp.mul_f64(0.5),
                "attempt {attempt}: {delay:?} < half"
            );
            assert!(delay < exp, "attempt {attempt}: {delay:?} >= full {exp:?}");
        }
    }

    #[test]
    fn backoff_caps_at_max_delay() {
        let policy = RetryPolicy {
            max_retries: 40,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(250),
            seed: 0,
        };
        // Shift amounts far past the cap (and past u32 overflow) saturate.
        for attempt in [10, 31, 32, 1000] {
            assert!(policy.backoff(attempt) < Duration::from_millis(250));
        }
    }

    #[test]
    fn zero_base_means_no_sleep() {
        assert_eq!(RetryPolicy::none().backoff(0), Duration::ZERO);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
    }
}
