//! Gateway counters, snapshotted by the `METRICS` request.

/// Monotonic counters over the gateway's lifetime. All counts are jobs
/// unless noted; `submitted = accepted + rejected_rate +
/// rejected_backpressure + rejected_invalid`.
///
/// All increments saturate at `u64::MAX` instead of wrapping: a pinned
/// counter is an obviously-wrong reading, a wrapped one silently corrupts
/// the `submitted = accepted + rejected_*` ledger on long campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayMetrics {
    /// `SUBMIT` requests received.
    pub submitted: u64,
    /// Submissions admitted into the simulator.
    pub accepted: u64,
    /// Submissions rejected by the per-provider token bucket (`BUSY`).
    pub rejected_rate: u64,
    /// Submissions rejected because the target machine's admission queue
    /// was at its bound (`BUSY`).
    pub rejected_backpressure: u64,
    /// Submissions rejected as unsatisfiable (`ERR`): unknown machine or
    /// provider, zero-size batch, or a job shape outside the admissible
    /// ranges / the target machine's caps.
    pub rejected_invalid: u64,
    /// Jobs cancelled through the API.
    pub cancelled_via_api: u64,
    /// Jobs that reached a terminal state, per outcome
    /// `[completed, errored, cancelled]`.
    pub finished: [u64; 3],
    /// Connections accepted.
    pub connections: u64,
    /// Request lines that failed protocol validation (unparsable,
    /// non-UTF-8, or over the line-length bound) and were answered with a
    /// typed `ERR`.
    pub protocol_errors: u64,
    /// Connections closed by the idle reaper (no complete request line
    /// within the idle timeout).
    pub reaped_idle: u64,
    /// `PREDICT` requests answered with an estimate (`ERR NOT_READY` and
    /// invalid-machine rejections do not count).
    pub predictions_served: u64,
}

/// Count one event on a [`GatewayMetrics`] counter, pinning at `u64::MAX`.
pub(crate) fn bump(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

impl GatewayMetrics {
    /// Render as ordered `key=value` pairs for the `METRICS` response.
    /// `sim_time_s` is appended by the server from the live clock.
    #[must_use]
    pub fn pairs(&self) -> Vec<(String, String)> {
        [
            ("submitted", self.submitted),
            ("accepted", self.accepted),
            ("rejected_rate", self.rejected_rate),
            ("rejected_backpressure", self.rejected_backpressure),
            ("rejected_invalid", self.rejected_invalid),
            ("cancelled_via_api", self.cancelled_via_api),
            ("completed", self.finished[0]),
            ("errored", self.finished[1]),
            ("cancelled", self.finished[2]),
            ("connections", self.connections),
            ("protocol_errors", self.protocol_errors),
            ("reaped_idle", self.reaped_idle),
            ("predictions_served", self.predictions_served),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_ordered_and_complete() {
        let metrics = GatewayMetrics {
            submitted: 5,
            accepted: 3,
            finished: [1, 0, 1],
            ..GatewayMetrics::default()
        };
        let pairs = metrics.pairs();
        assert_eq!(pairs[0], ("submitted".to_string(), "5".to_string()));
        assert_eq!(pairs[1], ("accepted".to_string(), "3".to_string()));
        let completed = pairs.iter().find(|(k, _)| k == "completed").unwrap();
        assert_eq!(completed.1, "1");
        let cancelled = pairs.iter().find(|(k, _)| k == "cancelled").unwrap();
        assert_eq!(cancelled.1, "1");
        assert_eq!(pairs.len(), 13);
        let served = pairs
            .iter()
            .find(|(k, _)| k == "predictions_served")
            .unwrap();
        assert_eq!(served.1, "0");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut metrics = GatewayMetrics {
            protocol_errors: u64::MAX - 1,
            ..GatewayMetrics::default()
        };
        bump(&mut metrics.protocol_errors);
        bump(&mut metrics.protocol_errors);
        assert_eq!(metrics.protocol_errors, u64::MAX, "pinned, not wrapped");
    }
}
