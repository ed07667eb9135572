//! Per-provider token-bucket rate limiting, driven by *simulation* time.
//!
//! Using the simulation clock (not wall time) keeps admission decisions a
//! pure function of the request sequence and their sim-timestamps, so a
//! replay at a different time compression sees the same accept/reject
//! pattern.

/// A token bucket: capacity `capacity` tokens, refilled continuously at
/// `refill_per_s` tokens per (simulated) second. Each admitted request
/// takes one token.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_s: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `refill_per_s` is negative.
    #[must_use]
    pub fn new(capacity: f64, refill_per_s: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(refill_per_s >= 0.0, "refill rate must be non-negative");
        TokenBucket {
            capacity,
            refill_per_s,
            tokens: capacity,
            last_s: 0.0,
        }
    }

    /// Refill for the elapsed time and try to take one token. The clock
    /// must not move backwards (a stale `now_s` refills nothing).
    pub fn try_take(&mut self, now_s: f64) -> bool {
        let elapsed = (now_s - self.last_s).max(0.0);
        self.last_s = self.last_s.max(now_s);
        self.tokens = (self.tokens + elapsed * self.refill_per_s).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after the last refill instant).
    #[must_use]
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity_then_rejects() {
        let mut bucket = TokenBucket::new(3.0, 0.1);
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(0.0));
        assert!(!bucket.try_take(0.0), "bucket exhausted");
    }

    #[test]
    fn refills_over_time_and_caps_at_capacity() {
        let mut bucket = TokenBucket::new(2.0, 0.5); // 1 token / 2 s
        for _ in 0..2 {
            assert!(bucket.try_take(0.0));
        }
        assert!(!bucket.try_take(1.0), "only 0.5 tokens back");
        assert!(bucket.try_take(2.0), "1 token accrued by t=2");
        assert!(bucket.try_take(1000.0));
        assert!(
            bucket.try_take(1000.0),
            "capped at capacity 2, both spendable"
        );
        assert!(!bucket.try_take(1000.0));
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut bucket = TokenBucket::new(1.0, 1.0);
        assert!(bucket.try_take(10.0));
        assert!(!bucket.try_take(5.0), "stale timestamp refills nothing");
        assert!(
            bucket.try_take(11.0),
            "refill resumes from the high-water mark"
        );
    }

    #[test]
    fn zero_refill_is_a_fixed_budget() {
        let mut bucket = TokenBucket::new(2.0, 0.0);
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(1e9));
        assert!(!bucket.try_take(1e12));
        assert_eq!(bucket.available(), 0.0);
    }
}
