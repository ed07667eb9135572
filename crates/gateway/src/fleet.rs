//! Sharded multi-gateway fleet: N gateways over a partitioned machine
//! fleet, with periodic cross-shard fair-share reconciliation.
//!
//! One gateway over one simulator serializes every request through one
//! lock; the million-job regime wants N independent shards. [`ShardMap`]
//! deals machines round-robin onto shards, [`GatewayFleet`] runs one
//! [`Gateway`] per shard (real TCP endpoints), and [`FleetSim`] drives the
//! same partitioning in-process for deterministic smoke tests and
//! million-job traces where wall-clock-driven TCP would be both slow and
//! nondeterministic.
//!
//! # Cross-shard fair share
//!
//! Fair-share ordering is per-queue, so out of the box a provider could
//! dodge its priority debt by spreading jobs across shards. Periodic
//! [`reconcile`](FleetSim::reconcile) fixes that: each round snapshots
//! every shard's per-provider `charged_raw` totals, takes the delta since
//! the last round, and injects each shard's delta into every *other*
//! shard's **decayed** usage accumulators
//! ([`LiveCloud::inject_external_usage`]). The undecayed `charged_raw`
//! ledger is never touched, so the conservation law the auditor checks —
//! charged seconds == seconds executed on that shard's machines — keeps
//! holding per shard, and summing over shards gives the fleet-level law
//! that [`check_conservation`] verifies.

use std::sync::{Arc, Mutex};

use qcs_cloud::{CloudConfig, JobSpec, LiveCloud, SimulationResult, SubmitError};
use qcs_machine::Fleet;
use qcs_predictor::{OnlinePredictor, PredictError, WaitEstimate};

use crate::client::{GatewayClient, PredictEstimate};
use crate::error::GatewayError;
use crate::metrics::GatewayMetrics;
use crate::protocol::Response;
use crate::server::{lock, refit_off_lock, Gateway, GatewayConfig};

/// Relative tolerance for the fleet-level charged-vs-executed seconds
/// comparison: float summation order differs between the two ledgers.
pub const CONSERVATION_REL_TOL: f64 = 1e-6;

/// Round-robin assignment of global machine indices onto shards.
///
/// Global machine `g` lives on shard `g % shards` at local index
/// `g / shards`; round-robin keeps per-shard machine counts within one of
/// each other and spreads big and small machines evenly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    num_machines: usize,
    num_shards: usize,
}

impl ShardMap {
    /// Map `num_machines` machines onto `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when there are no shards or more shards than machines (an
    /// empty shard would serve nothing).
    #[must_use]
    pub fn new(num_machines: usize, num_shards: usize) -> ShardMap {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            num_shards <= num_machines,
            "{num_shards} shards over {num_machines} machines leaves empty shards"
        );
        ShardMap {
            num_machines,
            num_shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of machines across all shards.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// `(shard, local index)` of a global machine index.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    #[must_use]
    pub fn locate(&self, global: usize) -> (usize, usize) {
        assert!(global < self.num_machines, "machine {global} out of range");
        (global % self.num_shards, global / self.num_shards)
    }

    /// Global machine index of `(shard, local index)` — inverse of
    /// [`locate`](ShardMap::locate).
    #[must_use]
    pub fn global(&self, shard: usize, local: usize) -> usize {
        local * self.num_shards + shard
    }

    /// Split a fleet into one sub-fleet per shard, preserving local-index
    /// order (`local = 0, 1, ...` maps back via [`global`](ShardMap::global)).
    #[must_use]
    pub fn partition(&self, fleet: &Fleet) -> Vec<Fleet> {
        assert_eq!(fleet.len(), self.num_machines, "fleet size mismatch");
        (0..self.num_shards)
            .map(|shard| {
                Fleet::from_machines(
                    fleet
                        .machines()
                        .iter()
                        .skip(shard)
                        .step_by(self.num_shards)
                        .cloned()
                        .collect(),
                )
            })
            .collect()
    }
}

/// Verify the fleet-level conservation law: per provider, charged seconds
/// summed over shards must equal executed seconds summed over shards,
/// within [`CONSERVATION_REL_TOL`].
///
/// # Errors
///
/// The first violating provider, with both sides of the ledger.
pub fn check_conservation(charged: &[f64], executed: &[f64]) -> Result<(), String> {
    if charged.len() != executed.len() {
        return Err(format!(
            "ledger length mismatch: {} charged vs {} executed providers",
            charged.len(),
            executed.len()
        ));
    }
    for (provider, (&c, &e)) in charged.iter().zip(executed).enumerate() {
        let tol = CONSERVATION_REL_TOL * e.abs().max(1.0);
        if (c - e).abs() > tol {
            return Err(format!(
                "provider {provider}: charged {c} s but executed {e} s (tol {tol})"
            ));
        }
    }
    Ok(())
}

/// What the fleet-level ledger reads and writes of one shard, whether it
/// is an in-process [`LiveCloud`] or a TCP [`Gateway`].
trait Shard {
    /// Per-provider lifetime charged seconds (undecayed).
    fn charged(&self) -> Vec<f64>;
    /// Per-provider seconds executed on this shard's machines.
    fn executed(&self) -> Vec<f64>;
    /// Fold usage observed on other shards into the decayed accumulators.
    fn inject(&mut self, provider: u32, seconds: f64);
}

impl Shard for LiveCloud {
    fn charged(&self) -> Vec<f64> {
        self.charged_seconds_by_provider()
    }
    fn executed(&self) -> Vec<f64> {
        self.executed_seconds_by_provider()
    }
    fn inject(&mut self, provider: u32, seconds: f64) {
        self.inject_external_usage(provider, seconds);
    }
}

impl Shard for Gateway {
    fn charged(&self) -> Vec<f64> {
        self.charged_seconds_by_provider()
    }
    fn executed(&self) -> Vec<f64> {
        self.executed_seconds_by_provider()
    }
    fn inject(&mut self, provider: u32, seconds: f64) {
        self.inject_external_usage(provider, seconds);
    }
}

/// Element-wise sum over shards of one per-provider ledger.
fn fleet_totals<S>(shards: &[S], ledger: impl Fn(&S) -> Vec<f64>) -> Vec<f64> {
    let mut per_shard = shards.iter().map(ledger);
    let mut totals = per_shard.next().unwrap_or_default();
    for shard in per_shard {
        for (total, v) in totals.iter_mut().zip(shard) {
            *total += v;
        }
    }
    totals
}

/// One reconciliation round: broadcast each shard's charged-seconds delta
/// since `last_charged` into every other shard, and move `last_charged`
/// up to this round's snapshot.
fn reconcile<S: Shard>(shards: &mut [S], last_charged: &mut Vec<Vec<f64>>) {
    let snapshots: Vec<Vec<f64>> = shards.iter().map(S::charged).collect();
    for (source, snapshot) in snapshots.iter().enumerate() {
        for (provider, &total) in snapshot.iter().enumerate() {
            let delta = total - last_charged[source][provider];
            if delta <= 0.0 {
                continue;
            }
            for (target, shard) in shards.iter_mut().enumerate() {
                if target != source {
                    shard.inject(provider as u32, delta);
                }
            }
        }
    }
    *last_charged = snapshots;
}

/// The fleet-level conservation audit over `shards` (see
/// [`check_conservation`]).
fn audit_conservation<S: Shard>(shards: &[S]) -> Result<(), String> {
    check_conservation(
        &fleet_totals(shards, S::charged),
        &fleet_totals(shards, S::executed),
    )
}

/// In-process sharded cloud: the [`GatewayFleet`] partitioning and
/// reconciliation over plain [`LiveCloud`]s, driven by simulation time
/// instead of wall clock. This is the deterministic harness the
/// million-job smoke gate and the property tests use.
#[derive(Debug)]
pub struct FleetSim {
    shards: Vec<LiveCloud>,
    /// One online predictor per shard, folded into by that shard's
    /// record tap and refitted after the shard has stepped (same wiring
    /// as the TCP [`Gateway`], minus the socket).
    predictors: Vec<Arc<Mutex<OnlinePredictor>>>,
    map: ShardMap,
    last_charged: Vec<Vec<f64>>,
}

impl FleetSim {
    /// Partition `fleet` over `num_shards` simulators, each configured
    /// with `config` (shared fair-share discipline, sink, and provider
    /// count).
    ///
    /// # Panics
    ///
    /// Panics on an invalid shard count (see [`ShardMap::new`]).
    #[must_use]
    pub fn new(fleet: &Fleet, config: CloudConfig, num_shards: usize) -> FleetSim {
        let map = ShardMap::new(fleet.len(), num_shards);
        let mut shards = Vec::with_capacity(num_shards);
        let mut predictors = Vec::with_capacity(num_shards);
        for shard_fleet in map.partition(fleet) {
            let qubits: Vec<usize> = shard_fleet
                .machines()
                .iter()
                .map(|m| m.num_qubits())
                .collect();
            let predictor = Arc::new(Mutex::new(OnlinePredictor::new(qubits)));
            let tap = Arc::clone(&predictor);
            shards.push(
                LiveCloud::new(shard_fleet, config).with_record_tap(Box::new(move |record| {
                    lock(&tap).observe(record);
                })),
            );
            predictors.push(predictor);
        }
        let last_charged = vec![vec![0.0; config.num_providers]; num_shards];
        FleetSim {
            shards,
            predictors,
            map,
            last_charged,
        }
    }

    /// Queue-wait estimate for a hypothetical submission addressed by
    /// *global* machine index, answered by the owning shard's online
    /// predictor against that shard's current backlog.
    ///
    /// # Errors
    ///
    /// [`PredictError::NotReady`] until the owning shard has completed at
    /// least one job.
    ///
    /// # Panics
    ///
    /// Panics if the global machine index is out of range.
    pub fn predict(
        &self,
        global_machine: usize,
        circuits: u32,
        shots: u32,
    ) -> Result<WaitEstimate, PredictError> {
        let (shard, local) = self.map.locate(global_machine);
        let pending = self.shards[shard].queue_depth(local);
        lock(&self.predictors[shard]).predict(local, circuits, shots, pending)
    }

    /// Terminal records folded into the online predictors, summed over
    /// shards. Under any sink this equals the fleet's terminal-job count.
    #[must_use]
    pub fn predictor_observed(&self) -> u64 {
        self.predictors.iter().map(|p| lock(p).observed()).sum()
    }

    /// Runtime-model fits the online predictors have installed, summed
    /// over shards: at most one per shard per
    /// [`step_until`](FleetSim::step_until) /
    /// [`run_to_completion`](FleetSim::run_to_completion) call, plus each
    /// shard's cold first fit. A function of the step schedule alone.
    #[must_use]
    pub fn predictor_refits(&self) -> u64 {
        self.predictors.iter().map(|p| lock(p).refits()).sum()
    }

    /// The machine-to-shard assignment.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Submit a job addressed by *global* machine index; it is rewritten
    /// to the owning shard's local index and routed there. A shard admits
    /// jobs in submission order: its jobs must come in nondecreasing
    /// `submit_s`, none before its clock, and ties arrive in submission
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`SubmitError`]:
    /// [`SubmitInPast`](SubmitError::SubmitInPast) for a job submitted
    /// before the shard's clock or its last pending arrival.
    ///
    /// # Panics
    ///
    /// Panics if the global machine index is out of range.
    pub fn submit(&mut self, mut job: JobSpec) -> Result<(), SubmitError> {
        let (shard, local) = self.map.locate(job.machine);
        job.machine = local;
        self.shards[shard].submit(job)
    }

    /// Advance every shard to `t_s`. The step is the predictors' batch
    /// boundary: the taps only fold while a shard steps, and a shard's
    /// runtime model is refitted (if enough completions have accrued)
    /// once it has.
    pub fn step_until(&mut self, t_s: f64) {
        for (shard, predictor) in self.shards.iter_mut().zip(&self.predictors) {
            shard.step_until(t_s);
            refit_off_lock(predictor);
        }
    }

    /// Drain every shard to completion (a batch boundary like
    /// [`step_until`](FleetSim::step_until)).
    pub fn run_to_completion(&mut self) {
        for (shard, predictor) in self.shards.iter_mut().zip(&self.predictors) {
            shard.run_to_completion();
            refit_off_lock(predictor);
        }
    }

    /// Exchange charged-seconds deltas: every shard learns how much each
    /// provider consumed on the *other* shards since the last round and
    /// folds it into its decayed fair-share accumulators. `charged_raw`
    /// is untouched, so per-shard conservation survives (see the module
    /// docs).
    pub fn reconcile(&mut self) {
        reconcile(&mut self.shards, &mut self.last_charged);
    }

    /// Fleet-wide per-provider charged seconds (undecayed).
    #[must_use]
    pub fn charged_seconds_by_provider(&self) -> Vec<f64> {
        fleet_totals(&self.shards, Shard::charged)
    }

    /// Fleet-wide per-provider executed seconds.
    #[must_use]
    pub fn executed_seconds_by_provider(&self) -> Vec<f64> {
        fleet_totals(&self.shards, Shard::executed)
    }

    /// The fleet-level conservation audit (see [`check_conservation`]).
    ///
    /// # Errors
    ///
    /// The first violating provider.
    pub fn audit_conservation(&self) -> Result<(), String> {
        audit_conservation(&self.shards)
    }

    /// Terminal jobs per outcome `[completed, errored, cancelled]` summed
    /// over shards.
    #[must_use]
    pub fn outcome_counts(&self) -> [u64; 3] {
        let mut totals = [0u64; 3];
        for shard in &self.shards {
            for (total, count) in totals.iter_mut().zip(shard.outcome_counts()) {
                *total += count;
            }
        }
        totals
    }

    /// Not-yet-arrived submissions summed over shards — the number the
    /// chunked driver keeps bounded on huge traces.
    #[must_use]
    pub fn pending_arrivals(&self) -> usize {
        self.shards.iter().map(LiveCloud::pending_arrivals).sum()
    }

    /// Records currently materialized across shards (stays 0 under a
    /// streaming sink).
    #[must_use]
    pub fn records_len(&self) -> usize {
        self.shards.iter().map(|s| s.records_len()).sum()
    }

    /// Immutable view of the per-shard simulators.
    #[must_use]
    pub fn shards(&self) -> &[LiveCloud] {
        &self.shards
    }
}

/// N live TCP gateways over a partitioned fleet, reconciled by a driver
/// thread calling [`reconcile`](GatewayFleet::reconcile).
pub struct GatewayFleet {
    shards: Vec<Gateway>,
    map: ShardMap,
    last_charged: Vec<Vec<f64>>,
}

impl GatewayFleet {
    /// Partition `fleet` over `num_shards` gateways, each bound to its
    /// own loopback port and serving its sub-fleet under `cloud_config` /
    /// `gateway_config`.
    ///
    /// # Errors
    ///
    /// Propagates the first bind failure.
    ///
    /// # Panics
    ///
    /// Panics on an invalid shard count (see [`ShardMap::new`]).
    pub fn start(
        fleet: &Fleet,
        cloud_config: CloudConfig,
        gateway_config: GatewayConfig,
        num_shards: usize,
    ) -> std::io::Result<GatewayFleet> {
        let map = ShardMap::new(fleet.len(), num_shards);
        let shards = map
            .partition(fleet)
            .into_iter()
            .map(|shard_fleet| Gateway::start(shard_fleet, cloud_config, gateway_config))
            .collect::<std::io::Result<Vec<Gateway>>>()?;
        let last_charged = vec![vec![0.0; cloud_config.num_providers]; num_shards];
        Ok(GatewayFleet {
            shards,
            map,
            last_charged,
        })
    }

    /// The machine-to-shard assignment.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// The per-shard gateways, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[Gateway] {
        &self.shards
    }

    /// Exchange charged-seconds deltas across shards (the TCP-side twin
    /// of [`FleetSim::reconcile`]).
    pub fn reconcile(&mut self) {
        reconcile(&mut self.shards, &mut self.last_charged);
    }

    /// Fleet-wide per-provider charged seconds (undecayed).
    #[must_use]
    pub fn charged_seconds_by_provider(&self) -> Vec<f64> {
        fleet_totals(&self.shards, Shard::charged)
    }

    /// Fleet-wide per-provider executed seconds.
    #[must_use]
    pub fn executed_seconds_by_provider(&self) -> Vec<f64> {
        fleet_totals(&self.shards, Shard::executed)
    }

    /// The fleet-level conservation audit (see [`check_conservation`]).
    ///
    /// # Errors
    ///
    /// The first violating provider.
    pub fn audit_conservation(&self) -> Result<(), String> {
        audit_conservation(&self.shards)
    }

    /// Shut every shard down, drain its simulator, and return the
    /// per-shard results and counters, in shard order.
    #[must_use]
    pub fn shutdown_and_drain(self) -> Vec<(SimulationResult, GatewayMetrics)> {
        self.shards
            .into_iter()
            .map(Gateway::shutdown_and_drain)
            .collect()
    }
}

/// A client of every shard: routes requests addressed by global machine
/// index to the owning shard's gateway.
pub struct FleetClient {
    clients: Vec<GatewayClient>,
    map: ShardMap,
}

impl FleetClient {
    /// Connect one [`GatewayClient`] per shard.
    ///
    /// # Errors
    ///
    /// Propagates the first connection failure.
    pub fn connect(fleet: &GatewayFleet) -> Result<FleetClient, GatewayError> {
        let clients = fleet
            .shards()
            .iter()
            .map(|gateway| GatewayClient::connect(gateway.addr()))
            .collect::<Result<Vec<GatewayClient>, GatewayError>>()?;
        Ok(FleetClient {
            clients,
            map: fleet.map(),
        })
    }

    /// Submit a job addressed by *global* machine index to the owning
    /// shard. Job ids are assigned per shard; callers that need a
    /// fleet-unique handle pair the returned id with the shard index.
    ///
    /// # Errors
    ///
    /// Propagates the shard client's transport error.
    ///
    /// # Panics
    ///
    /// Panics if the global machine index is out of range.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<(usize, Response), GatewayError> {
        let (shard, local) = self.map.locate(spec.machine);
        let mut routed = spec.clone();
        routed.machine = local;
        Ok((shard, self.clients[shard].submit_spec(&routed)?))
    }

    /// `PREDICT` for a *global* machine index, routed to the owning
    /// shard's gateway; returns the shard index alongside the estimate.
    ///
    /// # Errors
    ///
    /// Propagates the shard client's transport error; `ERR NOT_READY`
    /// surfaces as [`GatewayError::Unexpected`] (see
    /// [`GatewayClient::predict`]).
    ///
    /// # Panics
    ///
    /// Panics if the global machine index is out of range.
    pub fn predict(
        &mut self,
        global_machine: usize,
        circuits: u32,
        shots: u32,
    ) -> Result<(usize, PredictEstimate), GatewayError> {
        let (shard, local) = self.map.locate(global_machine);
        let estimate = self.clients[shard].predict(&local.to_string(), circuits, shots)?;
        Ok((shard, estimate))
    }

    /// Mutable access to one shard's client (for `STATUS` / `CANCEL` /
    /// `METRICS` against a known shard).
    #[must_use]
    pub fn shard_client(&mut self, shard: usize) -> &mut GatewayClient {
        &mut self.clients[shard]
    }

    /// Close every shard connection politely.
    ///
    /// # Errors
    ///
    /// The first `QUIT` that fails to round-trip.
    pub fn quit(self) -> Result<(), GatewayError> {
        for client in self.clients {
            client.quit()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_cloud::RecordSink;

    #[test]
    fn shard_map_round_trips() {
        let map = ShardMap::new(11, 4);
        let mut per_shard = [0usize; 4];
        for global in 0..map.num_machines() {
            let (shard, local) = map.locate(global);
            assert_eq!(map.global(shard, local), global);
            // Round-robin: each shard's local indices are dense from 0.
            assert_eq!(local, per_shard[shard], "machine {global}");
            per_shard[shard] += 1;
        }
        assert_eq!(per_shard, [3, 3, 3, 2], "counts within one of each other");
    }

    #[test]
    fn partition_preserves_machines() {
        let fleet = Fleet::ibm_like();
        let map = ShardMap::new(fleet.len(), 3);
        let shards = map.partition(&fleet);
        assert_eq!(shards.len(), 3);
        for (shard, sub) in shards.iter().enumerate() {
            for (local, machine) in sub.machines().iter().enumerate() {
                let global = map.global(shard, local);
                assert_eq!(machine.name(), fleet.machines()[global].name());
            }
        }
    }

    #[test]
    fn conservation_check_catches_drift() {
        assert!(check_conservation(&[10.0, 20.0], &[10.0, 20.0]).is_ok());
        // Within relative tolerance.
        assert!(check_conservation(&[1e9], &[1e9 + 1.0]).is_ok());
        let err = check_conservation(&[10.0, 25.0], &[10.0, 20.0]).unwrap_err();
        assert!(err.contains("provider 1"), "{err}");
        assert!(check_conservation(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn fleet_sim_routes_and_conserves() {
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            record_sink: RecordSink::streaming(7),
            ..CloudConfig::default()
        };
        let mut sim = FleetSim::new(&fleet, config, 3);
        for id in 0..60 {
            let machine = (id as usize * 5) % fleet.len();
            sim.submit(JobSpec {
                id,
                provider: (id % 4) as u32,
                machine,
                circuits: 4,
                shots: 1024,
                mean_depth: 20.0,
                mean_width: 3.0,
                submit_s: id as f64 * 10.0,
                is_study: false,
                patience_s: f64::INFINITY,
            })
            .unwrap();
            if id % 10 == 9 {
                sim.step_until(id as f64 * 10.0);
                sim.reconcile();
            }
        }
        sim.run_to_completion();
        sim.reconcile();
        let [completed, errored, cancelled] = sim.outcome_counts();
        assert_eq!(completed + errored + cancelled, 60);
        assert_eq!(sim.records_len(), 0, "streaming sink keeps no records");
        sim.audit_conservation().expect("charged == executed");
        assert_eq!(sim.shards().len(), 3);
        let folded: u64 = sim
            .shards()
            .iter()
            .map(|s| s.streaming_aggregates().unwrap().folded())
            .sum();
        assert_eq!(folded, 60);
    }

    #[test]
    fn fleet_sim_conserves_under_a_sampled_exact_sink() {
        // The exact sink keeps only every fifth background record, but
        // the executed side of the ledger must still count all of them.
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            background_record_divisor: 5,
            ..CloudConfig::default()
        };
        let mut sim = FleetSim::new(&fleet, config, 3);
        for id in 0..60 {
            sim.submit(JobSpec {
                id,
                provider: (id % 4) as u32,
                machine: (id as usize * 5) % fleet.len(),
                circuits: 4,
                shots: 1024,
                mean_depth: 20.0,
                mean_width: 3.0,
                submit_s: id as f64 * 10.0,
                is_study: false,
                patience_s: f64::INFINITY,
            })
            .unwrap();
        }
        sim.run_to_completion();
        sim.reconcile();
        assert_eq!(sim.outcome_counts().iter().sum::<u64>(), 60);
        assert_eq!(sim.records_len(), 12, "one background record in five kept");
        sim.audit_conservation().expect("charged == executed");
    }

    #[test]
    fn fleet_sim_predicts_per_shard_after_completions() {
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let mut sim = FleetSim::new(&fleet, config, 2);
        // Cold start: no shard has completed anything.
        assert_eq!(sim.predict(0, 10, 1024), Err(PredictError::NotReady));
        assert_eq!(sim.predictor_observed(), 0);
        for id in 0..20 {
            sim.submit(JobSpec {
                id,
                provider: (id % 3) as u32,
                machine: id as usize % fleet.len(),
                circuits: 8,
                shots: 1024,
                mean_depth: 20.0,
                mean_width: 3.0,
                submit_s: id as f64,
                is_study: false,
                patience_s: f64::INFINITY,
            })
            .unwrap();
        }
        sim.run_to_completion();
        assert_eq!(
            sim.predictor_observed(),
            20,
            "tap fed every terminal record"
        );
        for global in 0..fleet.len() {
            let estimate = sim
                .predict(global, 10, 1024)
                .expect("both shards have completions");
            assert!(estimate.wait_s >= 0.0 && estimate.wait_s.is_finite());
            assert!(estimate.wait_lo_s <= estimate.wait_hi_s);
            assert!(estimate.run_s > 0.0 && estimate.run_s.is_finite());
        }
    }

    /// The fit is a pure function of the step schedule and never feeds
    /// back into the DES.
    #[test]
    fn online_refits_are_deterministic_in_fleet_sim() {
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            record_sink: RecordSink::streaming(7),
            ..CloudConfig::default()
        };
        const SHARDS: usize = 2;
        const JOBS: u64 = 600;
        let run = |step_every: u64| {
            let mut sim = FleetSim::new(&fleet, config, SHARDS);
            for id in 0..JOBS {
                sim.submit(JobSpec {
                    id,
                    provider: (id % 4) as u32,
                    machine: (id as usize * 7) % fleet.len(),
                    circuits: 1 + (id % 13) as u32 * 5,
                    shots: [1024, 4096, 8192][(id % 3) as usize],
                    mean_depth: 10.0 + (id % 17) as f64,
                    mean_width: 1.0,
                    submit_s: id as f64 * 30.0,
                    is_study: false,
                    patience_s: f64::INFINITY,
                })
                .unwrap();
                if id % step_every == step_every - 1 {
                    sim.step_until(id as f64 * 30.0);
                }
            }
            sim.run_to_completion();
            sim
        };
        let (a, b) = (run(100), run(100));
        assert_eq!(a.predictor_refits(), b.predictor_refits());
        // Per shard: the cold fit, then at most one per step call.
        let step_calls = JOBS / 100 + 1;
        let refits = a.predictor_refits();
        assert!(refits > SHARDS as u64, "no warm refit ran ({refits})");
        assert!(
            refits <= (step_calls + 1) * SHARDS as u64,
            "{refits} refits"
        );
        for machine in 0..fleet.len() {
            let (ea, eb) = (a.predict(machine, 20, 4096), b.predict(machine, 20, 4096));
            let bits =
                |e: WaitEstimate| [e.wait_s, e.wait_lo_s, e.wait_hi_s, e.run_s].map(f64::to_bits);
            assert_eq!(
                bits(ea.expect("ready")),
                bits(eb.expect("ready")),
                "machine {machine}"
            );
        }
        // A different schedule fits at different moments and the DES
        // cannot tell.
        let c = run(u64::MAX);
        assert_eq!(
            c.predictor_refits(),
            2 * SHARDS as u64,
            "cold fit + the drain's"
        );
        assert_eq!(c.outcome_counts(), a.outcome_counts());
        assert_eq!(
            c.charged_seconds_by_provider(),
            a.charged_seconds_by_provider()
        );
    }

    #[test]
    fn reconcile_injections_shift_priority_across_shards() {
        // Two shards, one provider hammering shard 0. After reconcile,
        // shard 1's fair-share state must rank that provider below a
        // fresh one even though it never ran a job there.
        let fleet = Fleet::ibm_like();
        let config = CloudConfig {
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let mut sim = FleetSim::new(&fleet, config, 2);
        let heavy_global = sim.map().global(0, 0);
        for id in 0..8 {
            sim.submit(JobSpec {
                id,
                provider: 1,
                machine: heavy_global,
                circuits: 64,
                shots: 8192,
                mean_depth: 30.0,
                mean_width: 4.0,
                submit_s: 0.0,
                is_study: false,
                patience_s: f64::INFINITY,
            })
            .unwrap();
        }
        sim.run_to_completion();
        let charged = sim.charged_seconds_by_provider();
        assert!(charged[1] > 0.0, "provider 1 consumed time on shard 0");
        sim.reconcile();
        // All usage was on shard 0: its own ledger must be unchanged by
        // reconciliation (charged_raw untouched), and conservation holds.
        assert_eq!(sim.charged_seconds_by_provider(), charged);
        sim.audit_conservation().expect("conserved after reconcile");
    }
}
