//! Online queue-time prediction: the streaming counterpart of the batch
//! Figs 15–16 pipeline.
//!
//! [`OnlinePredictor`] folds terminal [`JobRecord`]s one at a time — as
//! the gateway's `LiveCloud` emits them — and keeps three things current:
//!
//! - an incremental **queue-wait model** (per-machine running mean
//!   service times with a fleet-mean fallback, plus a 10–90 % band of
//!   `actual/predicted` wait ratios tracked by P² quantile estimators),
//! - an online **runtime model**: the paper's `Π(aᵢ + bᵢxᵢ)` product
//!   model refit by mini-batch Gauss–Newton over a bounded window of
//!   recent jobs, warm-started from the previous coefficients
//!   ([`qcs_stats::ProductModel::fit_flat`]) so each refit is a handful
//!   of damped steps instead of a cold Levenberg–Marquardt descent,
//! - **prequential accuracy counters**: every record is scored against
//!   the model *as it stood before folding that record* (the classic
//!   test-then-train protocol), giving an honest rolling median absolute
//!   error and band-coverage rate with no held-out split.
//!
//! Memory is O(window + machines): nothing materializes the record
//! stream, so the predictor rides the same streaming path as the
//! `RecordSink` aggregates.
//!
//! # Fold and fit
//!
//! The two halves cost differently and run in different places.
//! [`observe`](OnlinePredictor::observe) is the **fold**: O(1), tens of
//! nanoseconds, called from the `LiveCloud` record tap in the middle of a
//! DES step. It pushes the row into the window and counts it; apart from
//! the one-off cold fit at the 16th completion it never fits anything.
//! The windowed **fit** is ~90 µs for a warm refit of a full 512-row
//! window (`stats.lm_fit_us`; 350–460 µs before `fit_flat` became one
//! const-width kernel) and belongs to whoever owns the predictor, at its batch boundary (a gateway
//! connection after each request, `FleetSim` once per shard per step
//! call), in three parts so that a predictor behind a mutex is locked
//! only to copy and to publish: [`take_refit`](OnlinePredictor::take_refit)
//! copies the window out, [`RefitJob::run`] fits with no lock held, and
//! [`install`](OnlinePredictor::install) publishes the coefficients. The
//! fit feeds only `run_s`; the queue-wait model and every prequential
//! counter live entirely in the fold.

use std::collections::VecDeque;
use std::fmt;

use qcs_cloud::{JobOutcome, JobRecord};
use qcs_stats::P2Quantile;

use crate::{JobFeatures, RuntimePredictor, NUM_FEATURES};

/// Bounded window of recent `(features, runtime)` rows the runtime model
/// refits over.
pub const ONLINE_WINDOW: usize = 512;
/// Minimum completed jobs between runtime-model refits once the model
/// exists: [`OnlinePredictor::take_refit`] hands out no job before this
/// many rows have been folded since the last one.
pub const ONLINE_REFIT_EVERY: usize = 64;
/// Completed jobs required before the first runtime-model fit.
const MIN_FIT: usize = 16;
/// LM iterations for a warm-started refit (mini-batch Gauss–Newton); the
/// dominant per-refit cost: each accepted step rebuilds `J^T J` over the
/// whole window, and six of them over 512 rows × 7 features read ~90 µs
/// (`stats.lm_fit_us`). Sized for the stalest warm start an owner
/// produces, not the freshest: a `FleetSim` shard refits once per
/// several thousand completions, so the previous coefficients were fitted
/// on a window that has since turned over completely. Measured by
/// `online_refit_tracks_drift_at_window_turnover_cadence` (per-shot cost
/// doubled, ±10 % runtime noise, one refit per 2 000 rows): six steps
/// land within 2·10⁻⁷ relative of the 400-iteration batch fit at the
/// first boundary after the change, so the budget does not need to scale
/// with staleness.
const WARM_ITERATIONS: usize = 6;
/// LM iterations for the cold first fit.
const COLD_ITERATIONS: usize = 200;

/// Why [`OnlinePredictor::predict`] could not produce an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// No completed job has been observed yet — there is nothing to
    /// estimate service times from.
    NotReady,
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::NotReady => {
                write!(f, "no completed jobs observed yet; prediction not ready")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// A queue-time estimate: point wait, 10–90 % band, and expected runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitEstimate {
    /// Point estimate of the queue wait, seconds.
    pub wait_s: f64,
    /// 10th-percentile wait (lower band edge), seconds.
    pub wait_lo_s: f64,
    /// 90th-percentile wait (upper band edge), seconds.
    pub wait_hi_s: f64,
    /// Expected execution time of the job itself, seconds.
    pub run_s: f64,
}

/// One waited job scored against the queue-wait model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitScore {
    /// Point estimate of the wait, seconds.
    pub(crate) predicted_s: f64,
    /// Actual wait, seconds.
    pub(crate) actual_s: f64,
    /// Whether the actual wait fell inside the 10–90 % band.
    pub(crate) in_band: bool,
}

impl WaitScore {
    /// Absolute error of the point estimate, minutes.
    pub(crate) fn abs_err_min(self) -> f64 {
        (self.predicted_s - self.actual_s).abs() / 60.0
    }
}

/// A fitted runtime model together with the per-feature normalization
/// it was fitted under: what [`RefitJob::run`] produces and
/// [`OnlinePredictor::install`] publishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Refit {
    predictor: RuntimePredictor,
    /// [`OnlinePredictor::observed`] when the window was copied, so a
    /// fit that finishes late cannot replace one taken after it.
    taken_at: u64,
}

/// One windowed fit, detached from the predictor it was
/// [taken](OnlinePredictor::take_refit) from: a copy of the window rows
/// and of the model to warm-start from. It borrows nothing, so
/// [`run`](Self::run) needs no lock.
#[derive(Debug)]
pub struct RefitJob {
    /// Raw (unnormalized) window rows, row-major, oldest first.
    rows: Vec<f64>,
    targets: Vec<f64>,
    prev: Option<Refit>,
    taken_at: u64,
}

impl RefitJob {
    /// Fit the product model over the copied window: a few damped
    /// Gauss–Newton steps from the previous model, or a full cold descent
    /// when there is none.
    #[must_use]
    pub fn run(self) -> Refit {
        let prev = self.prev.as_ref().map(|refit| &refit.predictor);
        let iterations = if prev.is_some() {
            WARM_ITERATIONS
        } else {
            COLD_ITERATIONS
        };
        Refit {
            predictor: RuntimePredictor::fit_flat(
                self.rows,
                NUM_FEATURES,
                &self.targets,
                prev,
                iterations,
            ),
            taken_at: self.taken_at,
        }
    }
}

/// The online predictor: fold records with [`observe`](Self::observe),
/// query with [`predict`](Self::predict), refit the runtime model at the
/// owner's batch boundary with [`take_refit`](Self::take_refit),
/// [`RefitJob::run`] and [`install`](Self::install), read accuracy
/// counters any time.
#[derive(Debug, Clone)]
pub struct OnlinePredictor {
    /// Qubit count per machine index, for runtime-feature extraction.
    machine_qubits: Vec<usize>,

    // Incremental queue-wait model.
    service_sum_s: Vec<f64>,
    service_count: Vec<u64>,
    fleet_sum_s: f64,
    fleet_count: u64,
    band_lo: P2Quantile,
    band_hi: P2Quantile,

    // Online runtime model over a bounded window. Rows are fixed-size
    // arrays, so folding a record never allocates off the happy path (the
    // gateway taps this once per terminal job).
    window: VecDeque<([f64; NUM_FEATURES], f64)>,
    since_refit: usize,
    fitted: Option<Refit>,
    refits: u64,

    // Running feature means, to fill in depth/width at predict time
    // (the PREDICT verb only carries machine/circuits/shots).
    depth_sum: f64,
    width_sum: f64,
    feature_count: u64,

    // Prequential (test-then-train) accuracy.
    observed: u64,
    scored: u64,
    in_band: u64,
    abs_err_min: P2Quantile,
}

impl OnlinePredictor {
    /// An empty predictor for a fleet whose machine `i` has
    /// `machine_qubits[i]` qubits. Machines past the table (external
    /// traces) contribute 0-qubit feature rows instead of panicking.
    #[must_use]
    pub fn new(machine_qubits: Vec<usize>) -> Self {
        let machines = machine_qubits.len();
        OnlinePredictor {
            machine_qubits,
            service_sum_s: vec![0.0; machines],
            service_count: vec![0; machines],
            fleet_sum_s: 0.0,
            fleet_count: 0,
            band_lo: P2Quantile::new(0.10),
            band_hi: P2Quantile::new(0.90),
            window: VecDeque::with_capacity(ONLINE_WINDOW),
            since_refit: 0,
            fitted: None,
            refits: 0,
            depth_sum: 0.0,
            width_sum: 0.0,
            feature_count: 0,
            observed: 0,
            scored: 0,
            in_band: 0,
            abs_err_min: P2Quantile::new(0.5),
        }
    }

    /// Has at least one completed job been folded? Until then
    /// [`predict`](Self::predict) returns [`PredictError::NotReady`].
    #[must_use]
    pub fn ready(&self) -> bool {
        self.fleet_count > 0
    }

    /// Terminal records folded so far (all outcomes).
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Records that were prequentially scored (completed, waited, and
    /// arrived after the model was ready).
    #[must_use]
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Rolling median absolute wait error in minutes (prequential);
    /// `0.0` before anything has been scored.
    #[must_use]
    pub fn median_abs_error_min(&self) -> f64 {
        self.abs_err_min.estimate().unwrap_or(0.0)
    }

    /// Fraction of scored waits that fell inside the 10–90 % band at
    /// scoring time; `0.0` before anything has been scored.
    #[must_use]
    pub fn band_coverage(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.in_band as f64 / self.scored as f64
        }
    }

    /// Runtime-model fits installed so far, the cold first one included.
    #[must_use]
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Window rows folded since the last fit was taken: how stale the
    /// runtime coefficients are, in completions.
    #[must_use]
    pub fn rows_since_refit(&self) -> usize {
        self.since_refit
    }

    /// Fold one terminal record. Scores the *current* model first
    /// (test-then-train), then updates the queue means, band, feature
    /// means, and runtime window. O(1) except for the one cold fit when
    /// the window first holds `MIN_FIT` rows; warm refits are the
    /// owner's to run (see [`take_refit`](Self::take_refit)).
    pub fn observe(&mut self, record: &JobRecord) {
        self.observed += 1;
        if record.outcome != JobOutcome::Completed {
            return;
        }

        // Test before train: score the pre-update model on this record.
        let score = self.score(record);
        if let Some(score) = score.filter(|_| self.ready()) {
            let err_min = score.abs_err_min();
            if err_min.is_finite() {
                self.scored += 1;
                self.abs_err_min.push(err_min);
                self.in_band += u64::from(score.in_band);
            }
        }

        // Queue model update.
        let exec = record.exec_time_s();
        if record.machine >= self.service_sum_s.len() {
            self.service_sum_s.resize(record.machine + 1, 0.0);
            self.service_count.resize(record.machine + 1, 0);
        }
        self.service_sum_s[record.machine] += exec;
        self.service_count[record.machine] += 1;
        self.fleet_sum_s += exec;
        self.fleet_count += 1;
        if let Some(score) = score {
            let predicted = self.predict_wait_s(record.machine, record.pending_at_submit);
            let ratio = score.actual_s / predicted.max(1e-9);
            if ratio.is_finite() {
                self.band_lo.push(ratio);
                self.band_hi.push(ratio);
            }
        }

        // Feature means for predict-time fill-in.
        if record.mean_depth.is_finite() && record.mean_width.is_finite() {
            self.depth_sum += record.mean_depth;
            self.width_sum += record.mean_width;
            self.feature_count += 1;
        }

        // Runtime window; the first model is fitted as soon as it can be.
        let qubits = self.machine_qubits.get(record.machine).copied().unwrap_or(0);
        let row = JobFeatures::from_record(record, qubits).to_array();
        if row.iter().all(|x| x.is_finite()) && exec.is_finite() {
            if self.window.len() == ONLINE_WINDOW {
                self.window.pop_front();
            }
            self.window.push_back((row, exec));
            self.since_refit += 1;
            if self.fitted.is_none() && self.window.len() >= MIN_FIT {
                let cold = self.snapshot().run();
                self.install(cold);
            }
        }
    }

    /// Copy the window out for a fit and restart the staleness count.
    fn snapshot(&mut self) -> RefitJob {
        self.since_refit = 0;
        let mut rows = Vec::with_capacity(self.window.len() * NUM_FEATURES);
        let mut targets = Vec::with_capacity(self.window.len());
        for (row, y) in &self.window {
            rows.extend_from_slice(row);
            targets.push(*y);
        }
        RefitJob {
            rows,
            targets,
            prev: self.fitted.clone(),
            taken_at: self.observed,
        }
    }

    /// The fit that is due, if one is: `None` until
    /// [`ONLINE_REFIT_EVERY`] rows have been folded since the last job
    /// was taken. Taking a job restarts that count, so a second call
    /// right after the first returns `None`; records folded while the job
    /// runs stay in the window and count towards the next one.
    pub fn take_refit(&mut self) -> Option<RefitJob> {
        (self.since_refit >= ONLINE_REFIT_EVERY).then(|| self.snapshot())
    }

    /// Publish a finished fit. One taken before the installed one (two
    /// connections racing on a shared predictor) is dropped.
    pub fn install(&mut self, refit: Refit) {
        if self
            .fitted
            .as_ref()
            .is_some_and(|current| current.taken_at > refit.taken_at)
        {
            return;
        }
        self.fitted = Some(refit);
        self.refits += 1;
    }

    /// Estimate wait and runtime for a prospective job: `pending` jobs
    /// ahead on `machine`, a batch of `circuits` circuits at `shots`
    /// shots each. Depth/width are filled from the running means of the
    /// observed stream.
    ///
    /// # Errors
    ///
    /// [`PredictError::NotReady`] until one completed job has been
    /// observed.
    pub fn predict(
        &self,
        machine: usize,
        circuits: u32,
        shots: u32,
        pending: usize,
    ) -> Result<WaitEstimate, PredictError> {
        if !self.ready() {
            return Err(PredictError::NotReady);
        }
        let wait_s = self.predict_wait_s(machine, pending);
        let (wait_lo_s, wait_hi_s) = self.band_s(wait_s);
        let run_s = self
            .predict_run_s(machine, circuits, shots)
            .unwrap_or_else(|| self.mean_service_s(machine));
        Ok(WaitEstimate {
            wait_s,
            wait_lo_s,
            wait_hi_s,
            run_s,
        })
    }

    /// Point wait estimate: backlog × learned mean service time.
    #[must_use]
    pub fn predict_wait_s(&self, machine: usize, pending: usize) -> f64 {
        pending as f64 * self.mean_service_s(machine)
    }

    /// Running mean service time of `machine`, seconds; the fleet mean
    /// for machines with no data (or outside the table).
    #[must_use]
    pub fn mean_service_s(&self, machine: usize) -> f64 {
        let fleet = if self.fleet_count == 0 {
            0.0
        } else {
            self.fleet_sum_s / self.fleet_count as f64
        };
        match (
            self.service_sum_s.get(machine),
            self.service_count.get(machine),
        ) {
            (Some(&sum), Some(&count)) if count > 0 => sum / count as f64,
            _ => fleet,
        }
    }

    /// Score the current queue-wait model on one record: the prequential
    /// test in [`observe`](Self::observe) and the held-out
    /// [`evaluate_queue_prediction`](crate::evaluate_queue_prediction).
    /// `None` unless the job completed after waiting behind someone:
    /// zero-wait jobs are trivially predictable and would inflate every
    /// metric.
    pub(crate) fn score(&self, record: &JobRecord) -> Option<WaitScore> {
        let actual_s = record.queue_time_s();
        let waited = record.outcome == JobOutcome::Completed
            && record.pending_at_submit > 0
            && actual_s > 0.0;
        if !waited {
            return None;
        }
        let predicted_s = self.predict_wait_s(record.machine, record.pending_at_submit);
        let (lo, hi) = self.band_s(predicted_s);
        Some(WaitScore {
            predicted_s,
            actual_s,
            in_band: (lo..=hi).contains(&actual_s),
        })
    }

    /// The current 10–90 % band around a point wait, seconds.
    fn band_s(&self, wait_s: f64) -> (f64, f64) {
        let lo_q = self.band_lo.estimate().unwrap_or(1.0).max(1e-3);
        let hi_q = self.band_hi.estimate().unwrap_or(1.0).max(1e-3);
        let (lo_q, hi_q) = if lo_q <= hi_q { (lo_q, hi_q) } else { (hi_q, lo_q) };
        (wait_s * lo_q, wait_s * hi_q)
    }

    /// Runtime estimate from the online product model, if fitted.
    fn predict_run_s(&self, machine: usize, circuits: u32, shots: u32) -> Option<f64> {
        let fitted = self.fitted.as_ref()?;
        if self.feature_count == 0 {
            return None;
        }
        let depth = self.depth_sum / self.feature_count as f64;
        let width = self.width_sum / self.feature_count as f64;
        let qubits = self.machine_qubits.get(machine).copied().unwrap_or(0);
        let features = JobFeatures {
            batch_size: f64::from(circuits),
            shots: f64::from(shots),
            depth,
            width,
            total_gates: depth * width * 0.6,
            machine_qubits: qubits as f64,
            memory_slots: crate::memory_slots(circuits, shots, width),
        };
        let run = fitted.predictor.predict(&features.to_array());
        run.is_finite().then(|| run.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The same machine-overhead + batch/shots runtime law the batch
    /// predictor tests use, plus queue waits proportional to backlog.
    fn synthetic_stream(n: usize, seed: u64) -> Vec<JobRecord> {
        drifting_stream(n, seed, 1.0, 0.0)
    }

    /// [`synthetic_stream`] with the per-shot cost scaled by `shot_cost`
    /// and every runtime scaled by a uniform factor in `1 ± jitter`.
    fn drifting_stream(n: usize, seed: u64, shot_cost: f64, jitter: f64) -> Vec<JobRecord> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let machine = (next() % 3) as usize;
                let qubits = [5.0, 27.0, 65.0][machine];
                let circuits = (next() % 200 + 1) as u32;
                let shots = [1024u32, 4096, 8192][(next() % 3) as usize];
                let depth = (next() % 40 + 5) as f64;
                let width = (next() % 5 + 1) as f64;
                let pending = (next() % 6) as usize;
                let exec = 3.0
                    + 0.1 * qubits
                    + f64::from(circuits)
                        * (0.02
                            + shot_cost
                                * f64::from(shots)
                                * (200.0 + 1.5 * qubits + depth * 0.3)
                                * 1e-6);
                // Drawn only when asked for, so the plain stream is unchanged.
                let exec = if jitter > 0.0 {
                    exec * (1.0 + jitter * ((next() % 1000) as f64 / 500.0 - 1.0))
                } else {
                    exec
                };
                let wait = pending as f64 * 120.0;
                JobRecord {
                    id: i as u64,
                    provider: 0,
                    machine,
                    circuits,
                    shots,
                    mean_width: width,
                    mean_depth: depth,
                    is_study: true,
                    submit_s: 0.0,
                    start_s: wait,
                    end_s: wait + exec,
                    outcome: JobOutcome::Completed,
                    pending_at_submit: pending,
                    crossed_calibration: false,
                }
            })
            .collect()
    }

    #[test]
    fn not_ready_until_first_completion() {
        let mut online = OnlinePredictor::new(vec![5, 27, 65]);
        assert_eq!(
            online.predict(0, 10, 1024, 3).unwrap_err(),
            PredictError::NotReady
        );
        let mut cancelled = synthetic_stream(1, 1).remove(0);
        cancelled.outcome = JobOutcome::Cancelled;
        online.observe(&cancelled);
        assert!(!online.ready(), "cancelled jobs must not make it ready");
        assert_eq!(online.observed(), 1);
        let completed = synthetic_stream(1, 2).remove(0);
        online.observe(&completed);
        assert!(online.ready());
        let estimate = online.predict(0, 10, 1024, 3).expect("ready");
        assert!(estimate.wait_s >= 0.0);
        assert!(estimate.wait_lo_s <= estimate.wait_hi_s);
        assert!(estimate.run_s >= 0.0);
    }

    #[test]
    fn wait_estimates_track_backlog_times_service() {
        let mut online = OnlinePredictor::new(vec![5, 27, 65]);
        for r in synthetic_stream(300, 3) {
            online.observe(&r);
        }
        // Mean service on each machine is deterministic for the law above;
        // the wait prediction must be pending-linear in it.
        let one = online.predict_wait_s(0, 1);
        let five = online.predict_wait_s(0, 5);
        assert!(one > 0.0);
        assert!((five - 5.0 * one).abs() < 1e-9);
        // Out-of-table machine falls back to the fleet mean, no panic.
        let fleet = online.predict_wait_s(99, 1);
        assert!(fleet > 0.0);
    }

    #[test]
    fn prequential_counters_update_and_stay_finite() {
        let mut online = OnlinePredictor::new(vec![5, 27, 65]);
        for r in synthetic_stream(400, 4) {
            online.observe(&r);
        }
        assert_eq!(online.observed(), 400);
        assert!(online.scored() > 100, "scored {}", online.scored());
        assert!(online.median_abs_error_min().is_finite());
        let coverage = online.band_coverage();
        assert!((0.0..=1.0).contains(&coverage), "coverage {coverage}");
        // Waits in the stream are a constant 120 s per pending job while
        // learned service means differ per machine, so errors are small
        // but nonzero and the band adapts around the observed ratios.
        assert!(coverage > 0.5, "coverage {coverage}");
    }

    #[test]
    fn window_stays_bounded() {
        let mut online = OnlinePredictor::new(vec![5, 27, 65]);
        for r in synthetic_stream(2 * ONLINE_WINDOW + 37, 5) {
            online.observe(&r);
        }
        assert!(online.window.len() <= ONLINE_WINDOW);
        assert!(online.fitted.is_some());
    }

    const QUBITS: [usize; 3] = [5, 27, 65];

    /// An owner's batch boundary: take, run and install the fit that is
    /// due, if any. Returns whether a fit ran.
    fn refit_due(online: &mut OnlinePredictor) -> bool {
        let Some(job) = online.take_refit() else {
            return false;
        };
        online.install(job.run());
        true
    }

    /// Fold `records`, running the fit every `cadence` records (the
    /// owner's batch boundary) and once more at the end (its drain).
    fn drive(online: &mut OnlinePredictor, records: &[JobRecord], cadence: usize) {
        for (i, r) in records.iter().enumerate() {
            online.observe(r);
            if (i + 1) % cadence == 0 {
                refit_due(online);
            }
        }
        refit_due(online);
    }

    /// Batch Levenberg–Marquardt fit over the last [`ONLINE_WINDOW`]
    /// records: what the online model's window holds.
    fn batch_fit_on_window(records: &[JobRecord]) -> RuntimePredictor {
        let tail = &records[records.len() - ONLINE_WINDOW..];
        let rows: Vec<Vec<f64>> = tail
            .iter()
            .map(|r| {
                JobFeatures::from_record(r, QUBITS[r.machine])
                    .to_array()
                    .to_vec()
            })
            .collect();
        let runtimes: Vec<f64> = tail.iter().map(|r| r.exec_time_s()).collect();
        RuntimePredictor::fit(&rows, &runtimes)
    }

    /// Largest relative gap between the online and the batch runtime
    /// prediction over a sample of `records`. `predict_run_s` fills
    /// depth/width from running means, so the batch model is evaluated on
    /// the same fill-in. (The product model's coefficients are only
    /// identifiable up to per-factor rescaling, so the comparison is on
    /// predictions, not raw a/b vectors.)
    fn worst_rel_gap(
        online: &OnlinePredictor,
        batch: &RuntimePredictor,
        records: &[JobRecord],
    ) -> f64 {
        let depth = online.depth_sum / online.feature_count as f64;
        let width = online.width_sum / online.feature_count as f64;
        records
            .iter()
            .step_by(37)
            .map(|r| {
                let online_pred = online
                    .predict_run_s(r.machine, r.circuits, r.shots)
                    .expect("model fitted");
                let filled = JobFeatures {
                    batch_size: f64::from(r.circuits),
                    shots: f64::from(r.shots),
                    depth,
                    width,
                    total_gates: depth * width * 0.6,
                    machine_qubits: QUBITS[r.machine] as f64,
                    memory_slots: crate::memory_slots(r.circuits, r.shots, width),
                };
                let batch_pred = batch.predict(&filled.to_array());
                (online_pred - batch_pred).abs() / batch_pred.abs().max(1e-6)
            })
            .fold(0.0, f64::max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The online-vs-batch convergence property: on a stationary
        /// stream, the warm-started mini-batch Gauss–Newton coefficients
        /// must predict within 15 % of the batch Levenberg–Marquardt fit
        /// on the same law, whatever cadence the owner refits at: after
        /// every record, every 64, every 200, or only once at the drain.
        #[test]
        fn online_fit_converges_to_batch_fit(seed in 0u64..1000) {
            let records = synthetic_stream(600, seed);
            // The stream is stationary, so the window's law is the
            // stream's law.
            let batch = batch_fit_on_window(&records);
            for cadence in [1, 64, 200, usize::MAX] {
                let mut online = OnlinePredictor::new(QUBITS.to_vec());
                drive(&mut online, &records, cadence);
                prop_assert!(online.refits() >= 2, "cadence {cadence}: no warm refit ran");
                let rel = worst_rel_gap(&online, &batch, &records);
                prop_assert!(rel < 0.15, "cadence {cadence}: online vs batch rel {rel}");
            }
        }
    }

    /// The `fleet_stream` regime: the owner refits once per 2 000
    /// completions, so every warm start resumes from coefficients fitted
    /// on a window that has since turned over completely. When the law
    /// itself moves (per-shot cost doubles, runtimes noisy by ±10 %), the
    /// warm budget must still re-converge within three boundaries.
    #[test]
    fn online_refit_tracks_drift_at_window_turnover_cadence() {
        const BOUNDARY: usize = 2000;
        const _: () = assert!(BOUNDARY >= ONLINE_WINDOW);
        for seed in [11, 12, 13, 14] {
            let mut online = OnlinePredictor::new(QUBITS.to_vec());
            let before = drifting_stream(3 * BOUNDARY, seed, 1.0, 0.1);
            drive(&mut online, &before, BOUNDARY);
            let after = drifting_stream(3 * BOUNDARY, seed + 100, 2.0, 0.1);
            let mut gaps = Vec::new();
            for chunk in after.chunks(BOUNDARY) {
                for r in chunk {
                    online.observe(r);
                }
                assert!(online.rows_since_refit() >= ONLINE_WINDOW);
                let batch = batch_fit_on_window(chunk);
                if gaps.is_empty() {
                    let stale = worst_rel_gap(&online, &batch, chunk);
                    assert!(
                        stale > 0.15,
                        "seed {seed}: the drift moved nothing ({stale})"
                    );
                }
                assert!(refit_due(&mut online));
                gaps.push(worst_rel_gap(&online, &batch, chunk));
            }
            assert!(
                gaps.iter().any(|&gap| gap < 0.15),
                "seed {seed}: rel gap per boundary after the change {gaps:?}"
            );
        }
    }

    /// A job is a snapshot: records folded while it runs change neither
    /// its result nor get lost from the window.
    #[test]
    fn online_refit_job_is_isolated_from_later_observes() {
        let records = synthetic_stream(400, 21);
        let mut online = OnlinePredictor::new(QUBITS.to_vec());
        for r in &records[..300] {
            online.observe(r);
        }
        assert!(online.rows_since_refit() >= ONLINE_REFIT_EVERY);
        let mut undisturbed = online.clone();

        let job = online.take_refit().expect("a fit is due");
        assert_eq!(online.rows_since_refit(), 0);
        assert!(
            online.take_refit().is_none(),
            "taking the job restarts the count"
        );
        for r in &records[300..] {
            online.observe(r);
        }
        let refits_before = online.refits();
        online.install(job.run());
        assert_eq!(online.refits(), refits_before + 1);
        assert_eq!(online.rows_since_refit(), 100);
        let newest = records.last().expect("non-empty").exec_time_s();
        assert_eq!(online.window.back().map(|(_, y)| *y), Some(newest));

        assert!(refit_due(&mut undisturbed));
        assert!(
            !refit_due(&mut undisturbed),
            "nothing is due right after a fit"
        );
        let predictor = |p: &OnlinePredictor| p.fitted.clone().expect("fitted").predictor;
        assert_eq!(predictor(&online), predictor(&undisturbed));

        // A fit taken earlier never replaces one taken later.
        let stale = undisturbed.fitted.clone().expect("fitted");
        let current = online.fitted.clone();
        online.install(Refit {
            taken_at: 0,
            ..stale
        });
        assert_eq!(online.fitted, current);
        assert_eq!(online.refits(), refits_before + 1);
    }
}
