//! Constant-memory aggregation of terminal job records.
//!
//! [`StreamingAggregates`] is the fold target of the
//! [`RecordSink::Streaming`](crate::RecordSink::Streaming) pipeline: every
//! terminal [`JobRecord`] passes through once and is reduced into O(1)
//! queue-time sketches ([`qcs_stats::StreamingSummary`],
//! [`qcs_stats::P2Quantile`], [`qcs_stats::ReservoirSample`]) plus an
//! O(providers) executed-seconds ledger, instead of being pushed onto
//! [`SimulationResult::records`](crate::SimulationResult::records). Memory
//! is independent of trace length, which is what lets a ≥10⁶-job campaign
//! run in a bounded footprint.
//!
//! The executed-seconds ledger doubles as the streaming side of the
//! cross-shard conservation audit: per provider, the sum of execution
//! intervals folded here must equal the fair-share queues' undecayed
//! `charged_raw` accumulators (the invariant
//! [`audit::check_fair_share_conservation`](crate::audit) checks record
//! by record on exact runs).

use qcs_stats::{P2Quantile, ReservoirSample, StreamingSummary};

use crate::{JobOutcome, JobRecord};

/// O(1)-memory roll-up of a stream of terminal [`JobRecord`]s.
///
/// Executed jobs (completed or errored) contribute queue-time statistics
/// and their execution seconds to the per-provider ledger; cancelled jobs
/// count only toward `folded` and the cancellation tally. Queue-time tails
/// get a dedicated P² p99 marker (the paper's headline latency statistic)
/// and a seeded reservoir of raw queue times.
#[derive(Debug, Clone)]
pub struct StreamingAggregates {
    folded: u64,
    cancelled: u64,
    queue_time: StreamingSummary,
    queue_time_p99: P2Quantile,
    queue_time_reservoir: ReservoirSample,
    executed_s_by_provider: Vec<f64>,
}

impl StreamingAggregates {
    /// Aggregates over `num_providers` providers, retaining at most
    /// `reservoir_capacity` raw queue times, seeded for reproducibility.
    #[must_use]
    pub fn new(reservoir_capacity: usize, reservoir_seed: u64, num_providers: usize) -> Self {
        StreamingAggregates {
            folded: 0,
            cancelled: 0,
            queue_time: StreamingSummary::new(),
            queue_time_p99: P2Quantile::new(0.99),
            queue_time_reservoir: ReservoirSample::new(reservoir_capacity, reservoir_seed),
            executed_s_by_provider: vec![0.0; num_providers],
        }
    }

    /// Fold one terminal record.
    ///
    /// # Panics
    ///
    /// Panics if the record's provider is outside the configured provider
    /// count.
    pub fn fold(&mut self, record: &JobRecord) {
        self.folded += 1;
        if record.outcome == JobOutcome::Cancelled {
            self.cancelled += 1;
            return;
        }
        let queue_s = record.queue_time_s();
        self.queue_time.push(queue_s);
        self.queue_time_p99.push(queue_s);
        self.queue_time_reservoir.push(queue_s);
        self.executed_s_by_provider[record.provider as usize] += record.exec_time_s();
    }

    /// Total records folded (all outcomes).
    #[must_use]
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Records folded with a cancelled outcome.
    #[must_use]
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Queue-time sketch over executed jobs (seconds).
    #[must_use]
    pub fn queue_time(&self) -> &StreamingSummary {
        &self.queue_time
    }

    /// P² estimate of the 99th-percentile queue time; `None` before any
    /// executed job.
    #[must_use]
    pub fn queue_time_p99(&self) -> Option<f64> {
        self.queue_time_p99.estimate()
    }

    /// Seeded uniform sample of raw queue times (seconds).
    #[must_use]
    pub fn queue_time_samples(&self) -> &[f64] {
        self.queue_time_reservoir.samples()
    }

    /// Per-provider executed seconds: the streaming side of the
    /// charged-seconds conservation law (must match the fair-share
    /// `charged_raw` totals summed over the same machines).
    #[must_use]
    pub fn executed_seconds_by_provider(&self) -> &[f64] {
        &self.executed_s_by_provider
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, provider: u32, outcome: JobOutcome, queue_s: f64, exec_s: f64) -> JobRecord {
        JobRecord {
            id,
            provider,
            machine: 0,
            circuits: 2,
            shots: 1024,
            mean_width: 3.0,
            mean_depth: 10.0,
            is_study: true,
            submit_s: 100.0,
            start_s: 100.0 + queue_s,
            end_s: 100.0 + queue_s + exec_s,
            outcome,
            pending_at_submit: 0,
            crossed_calibration: false,
        }
    }

    #[test]
    fn folds_executed_jobs_only() {
        let mut agg = StreamingAggregates::new(32, 1, 4);
        agg.fold(&record(0, 1, JobOutcome::Completed, 10.0, 5.0));
        agg.fold(&record(1, 2, JobOutcome::Errored, 20.0, 3.0));
        agg.fold(&record(2, 1, JobOutcome::Cancelled, 30.0, 0.0));
        assert_eq!(agg.folded(), 3);
        assert_eq!(agg.cancelled(), 1);
        assert_eq!(agg.queue_time().moments().count(), 2);
        assert_eq!(agg.queue_time().moments().mean(), 15.0);
        assert_eq!(agg.executed_seconds_by_provider(), &[0.0, 5.0, 3.0, 0.0]);
        assert_eq!(agg.queue_time_samples(), &[10.0, 20.0]);
        assert_eq!(
            agg.queue_time_p99(),
            qcs_stats::quantile(&[10.0, 20.0], 0.99),
            "exact below 5 samples"
        );
    }

    #[test]
    fn empty_aggregates() {
        let agg = StreamingAggregates::new(8, 0, 2);
        assert_eq!(agg.folded(), 0);
        assert_eq!(agg.queue_time_p99(), None);
        assert_eq!(agg.executed_seconds_by_provider(), &[0.0, 0.0]);
        assert!(agg.queue_time_samples().is_empty());
    }

    #[test]
    fn queue_reservoir_is_deterministic_per_seed() {
        let run = |seed| {
            let mut agg = StreamingAggregates::new(16, seed, 2);
            for i in 0..1000 {
                agg.fold(&record(i, 0, JobOutcome::Completed, i as f64, 1.0));
            }
            agg.queue_time_samples().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "the seed picks the retained points");
    }
}
