//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is handed to
//! [`Gateway::start_with_faults`](crate::Gateway::start_with_faults) and
//! consulted once per request line. Decisions are a pure function of
//! `(plan seed, request-line bytes, simulation time)` — no wall clock, no
//! global counters — so a chaos test can *predict* exactly which requests
//! will be faulted (via [`FaultPlan::decide`], which is public for that
//! reason) and assert that everything the faults did not touch is
//! bit-identical to a fault-free run.
//!
//! Five wire/handler fault modes (one per [`FaultKind`]) plus machine
//! outages threaded into the [`LiveCloud`](qcs_cloud::LiveCloud) via
//! [`FaultPlan::outages`] cover the failure classes the cloud-QC
//! measurement papers report: dropped and half-closed connections,
//! corrupted lines, stalled (slow-loris) peers, crashed handlers, and
//! machines going down mid-job.

use std::time::Duration;

use qcs_cloud::OutagePlan;
use qcs_exec::splitmix64;

/// One injected fault, decided per request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Close the connection before the request is processed: the peer
    /// sees EOF, the simulator never sees the job.
    DropConnection,
    /// Corrupt the request line before parsing (simulated wire
    /// corruption): the server must answer a typed `ERR`, not panic.
    GarbleRequest,
    /// Process the request, then write only a prefix of the response and
    /// close: the peer sees a truncated frame (no trailing newline).
    TruncateResponse,
    /// Process the request, write half the response, stall for
    /// [`FaultPlan::partial_write_stall`], then write the rest — a
    /// server-side slow-loris that exercises client read timeouts.
    PartialWrite,
    /// Panic the connection handler before the request is processed; the
    /// session's thread must catch it and every other session keep serving.
    PanicHandler,
}

impl FaultKind {
    /// Every kind, in the order used by per-kind counters.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::DropConnection,
        FaultKind::GarbleRequest,
        FaultKind::TruncateResponse,
        FaultKind::PartialWrite,
        FaultKind::PanicHandler,
    ];

    /// Stable index into per-kind counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultKind::DropConnection => 0,
            FaultKind::GarbleRequest => 1,
            FaultKind::TruncateResponse => 2,
            FaultKind::PartialWrite => 3,
            FaultKind::PanicHandler => 4,
        }
    }
}

/// A seeded, sim-time-gated fault-injection plan.
///
/// Rates are in permille of request lines; the five modes draw from
/// disjoint ranges of one per-line roll, so their rates must sum to at
/// most 1000. A line rolls its fault (or none) deterministically from
/// the plan seed and the line's bytes — replaying the same request lines
/// against the same plan injects the same faults regardless of thread
/// interleaving or wall-clock timing. The flip side is intentional:
/// retrying a byte-identical request hits the byte-identical fault while
/// the plan's window is active.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed mixed into every per-line roll.
    pub seed: u64,
    /// Permille of lines whose connection is dropped before processing.
    pub drop_connection_permille: u16,
    /// Permille of lines garbled before parsing.
    pub garble_request_permille: u16,
    /// Permille of lines whose response is truncated mid-frame.
    pub truncate_response_permille: u16,
    /// Permille of lines whose response is written in two stalled halves.
    pub partial_write_permille: u16,
    /// Permille of lines whose handler panics.
    pub panic_handler_permille: u16,
    /// Faults fire only while simulation time is in
    /// `[active_from_s, active_until_s)`.
    pub active_from_s: f64,
    /// End of the active window (exclusive); `f64::INFINITY` = forever.
    pub active_until_s: f64,
    /// Wall-clock stall inserted mid-response by
    /// [`FaultKind::PartialWrite`].
    pub partial_write_stall: Duration,
    /// Machine outage windows threaded into the `LiveCloud`, so jobs
    /// experience mid-job machine downtime alongside the wire faults.
    pub outages: Option<OutagePlan>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default serving configuration).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_connection_permille: 0,
            garble_request_permille: 0,
            truncate_response_permille: 0,
            partial_write_permille: 0,
            panic_handler_permille: 0,
            active_from_s: 0.0,
            active_until_s: f64::INFINITY,
            partial_write_stall: Duration::from_millis(25),
            outages: None,
        }
    }

    fn total_permille(&self) -> u32 {
        u32::from(self.drop_connection_permille)
            + u32::from(self.garble_request_permille)
            + u32::from(self.truncate_response_permille)
            + u32::from(self.partial_write_permille)
            + u32::from(self.panic_handler_permille)
    }

    /// The fault (if any) this plan injects for a request line read at
    /// simulation time `now_s`. Pure: same `(plan, line, window)` → same
    /// answer. The line is hashed without its trailing newline, exactly
    /// as the server strips it.
    ///
    /// # Panics
    ///
    /// Panics if the per-mode rates sum to more than 1000 permille.
    #[must_use]
    pub fn decide(&self, line: &str, now_s: f64) -> Option<FaultKind> {
        let total = self.total_permille();
        assert!(total <= 1000, "fault rates sum to {total} > 1000 permille");
        if total == 0 || now_s < self.active_from_s || now_s >= self.active_until_s {
            return None;
        }
        // FNV-1a over the line bytes, scrambled with the seed through
        // SplitMix64: cheap, deterministic, well-mixed.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in line.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let roll = splitmix64(self.seed ^ hash) % 1000;
        let mut edge = u64::from(self.drop_connection_permille);
        if roll < edge {
            return Some(FaultKind::DropConnection);
        }
        edge += u64::from(self.garble_request_permille);
        if roll < edge {
            return Some(FaultKind::GarbleRequest);
        }
        edge += u64::from(self.truncate_response_permille);
        if roll < edge {
            return Some(FaultKind::TruncateResponse);
        }
        edge += u64::from(self.partial_write_permille);
        if roll < edge {
            return Some(FaultKind::PartialWrite);
        }
        edge += u64::from(self.panic_handler_permille);
        if roll < edge {
            return Some(FaultKind::PanicHandler);
        }
        None
    }

    /// Deterministically corrupt a request line (the transformation
    /// applied by [`FaultKind::GarbleRequest`]): every other ASCII
    /// character is replaced with `#`, which reliably breaks the verb
    /// or a field while keeping the line valid UTF-8.
    #[must_use]
    pub fn garble(line: &str) -> String {
        line.chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { '#' } else { c })
            .collect()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            drop_connection_permille: 150,
            garble_request_permille: 150,
            truncate_response_permille: 150,
            partial_write_permille: 150,
            panic_handler_permille: 150,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn inactive_plan_never_faults() {
        let plan = FaultPlan::none();
        for i in 0..200 {
            assert_eq!(plan.decide(&format!("SUBMIT 0 1 {i} 1024 20 3"), 0.0), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_content_keyed() {
        let plan = noisy_plan();
        let mut faulted = 0;
        for i in 0..400 {
            let line = format!("SUBMIT 0 1 {i} 1024 20 3");
            let first = plan.decide(&line, 0.0);
            assert_eq!(first, plan.decide(&line, 0.0), "decision must be pure");
            faulted += usize::from(first.is_some());
        }
        // 75% aggregate rate over 400 lines: statistically impossible to
        // miss by this much if the hash is sane.
        assert!((200..=400).contains(&faulted), "faulted {faulted}/400");
        // Every mode fires somewhere in a sample this large.
        for kind in FaultKind::ALL {
            assert!(
                (0..400)
                    .any(|i| plan.decide(&format!("SUBMIT 0 1 {i} 1024 20 3"), 0.0) == Some(kind)),
                "mode {kind:?} never fired"
            );
        }
    }

    #[test]
    fn sim_time_window_gates_injection() {
        let plan = FaultPlan {
            drop_connection_permille: 1000,
            active_from_s: 100.0,
            active_until_s: 200.0,
            ..FaultPlan::none()
        };
        assert_eq!(plan.decide("SUBMIT 0 1 1 1 1 1", 99.9), None);
        assert_eq!(
            plan.decide("SUBMIT 0 1 1 1 1 1", 100.0),
            Some(FaultKind::DropConnection)
        );
        assert_eq!(plan.decide("SUBMIT 0 1 1 1 1 1", 200.0), None);
    }

    #[test]
    fn rates_partition_the_roll_space() {
        // With rates summing to 1000, every line draws some fault.
        let plan = FaultPlan {
            seed: 3,
            drop_connection_permille: 200,
            garble_request_permille: 200,
            truncate_response_permille: 200,
            partial_write_permille: 200,
            panic_handler_permille: 200,
            ..FaultPlan::none()
        };
        for i in 0..100 {
            assert!(plan.decide(&format!("STATUS {i}"), 0.0).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn oversubscribed_rates_are_rejected() {
        let plan = FaultPlan {
            drop_connection_permille: 600,
            garble_request_permille: 600,
            ..FaultPlan::none()
        };
        let _ = plan.decide("QUIT", 0.0);
    }

    #[test]
    fn garble_is_deterministic_and_breaks_the_verb() {
        let garbled = FaultPlan::garble("SUBMIT 0 1 10 1024 20 3");
        assert_eq!(garbled, FaultPlan::garble("SUBMIT 0 1 10 1024 20 3"));
        assert!(garbled.starts_with('#'));
        assert!(crate::Request::parse(&garbled).is_err());
    }

    #[test]
    fn seed_changes_the_fault_pattern() {
        let a = FaultPlan {
            seed: 1,
            ..noisy_plan()
        };
        let b = FaultPlan {
            seed: 2,
            ..noisy_plan()
        };
        let differs = (0..200).any(|i| {
            let line = format!("CANCEL {i}");
            a.decide(&line, 0.0) != b.decide(&line, 0.0)
        });
        assert!(differs, "seed must influence decisions");
    }
}
