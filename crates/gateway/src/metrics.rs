//! Gateway counters, snapshotted by the `METRICS` request.

use crate::fault::FaultKind;

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
    /// Faults injected by the active [`FaultPlan`](crate::FaultPlan),
    /// indexed by [`FaultKind::index`].
    pub faults_injected: [u64; 5],
    /// `PREDICT` requests answered with an estimate (`ERR NOT_READY` and
    /// invalid-machine rejections do not count).
    pub predictions_served: u64,
}

impl GatewayMetrics {
    /// Record one injected fault.
    pub fn note_fault(&mut self, kind: FaultKind) {
        let slot = kind.index();
        self.faults_injected[slot] = self.faults_injected[slot].saturating_add(1);
    }

    /// Total faults injected across all modes.
    #[must_use]
    pub fn faults_total(&self) -> u64 {
        self.faults_injected.iter().sum()
    }

    /// Handler panics injected by [`FaultKind::PanicHandler`]. Every one
    /// of these must show up in `Gateway::handler_panics` (caught on the
    /// session's own thread) — and vice versa when no other fault source
    /// exists.
    #[must_use]
    pub fn injected_panics(&self) -> u64 {
        self.faults_injected[FaultKind::PanicHandler.index()]
    }

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
            ("faults_injected", self.faults_total()),
            ("injected_panics", self.injected_panics()),
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
        assert_eq!(pairs.len(), 15);
        let served = pairs
            .iter()
            .find(|(k, _)| k == "predictions_served")
            .unwrap();
        assert_eq!(served.1, "0");
    }

    #[test]
    fn fault_counters_track_kinds_and_panics() {
        let mut metrics = GatewayMetrics::default();
        metrics.note_fault(FaultKind::DropConnection);
        metrics.note_fault(FaultKind::PanicHandler);
        metrics.note_fault(FaultKind::PanicHandler);
        assert_eq!(metrics.faults_total(), 3);
        assert_eq!(metrics.injected_panics(), 2);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut metrics = GatewayMetrics::default();
        metrics.faults_injected[FaultKind::PanicHandler.index()] = u64::MAX;
        metrics.note_fault(FaultKind::PanicHandler);
        assert_eq!(metrics.injected_panics(), u64::MAX, "pinned, not wrapped");
    }
}
