//! Zipf-activity provider population: a streaming generator for
//! millions-of-users, million-job traces.
//!
//! Where [`stream`](crate::stream) yields the paper-calibrated trace and
//! holds an hour of each machine's jobs, [`PopulationTrace`] is an
//! `Iterator` of homogeneous Poisson arrivals that yields [`JobSpec`]s one
//! at a time in submit order: O(1) memory however long the trace, so a
//! ≥10⁶-job campaign can be streamed straight into a chunked
//! [`LiveCloud`](qcs_cloud::LiveCloud) driver without ever holding the
//! trace in memory.
//!
//! The activity model follows the adaptive-quantum-cloud framing of the
//! growing-demand regime: a population of `users` whose activity is
//! Zipf(1)-distributed by rank (a few power users dominate, a long tail
//! submits rarely), arriving as a Poisson process over the horizon. Users
//! map onto fair-share providers by `provider = (user - 1) % providers`,
//! which preserves the skew: provider 0 inherits rank 1 (the heaviest
//! user), so provider activity is itself Zipf-like — the contention
//! pattern cross-shard fair-share reconciliation has to get right.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qcs_cloud::JobSpec;
use qcs_machine::Fleet;

use crate::sampler;

/// Parameters of a streamed population trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Population size; user activity ranks are Zipf(1) over `[1, users]`.
    pub users: u64,
    /// Fair-share providers; must match the simulator's
    /// `CloudConfig::num_providers`.
    pub providers: usize,
    /// Jobs to emit over the horizon.
    pub jobs: u64,
    /// Submission horizon, days. Arrivals are Poisson at rate
    /// `jobs / horizon`.
    pub horizon_days: f64,
    /// Per-job patience before abandonment, hours (`INFINITY` = never
    /// cancel).
    pub patience_hours: f64,
    /// RNG seed; the trace is a pure function of the config.
    pub seed: u64,
}

impl PopulationConfig {
    /// A million jobs from three million users over sixty days — the
    /// bounded-memory smoke-gate trace. Demand deliberately outpaces
    /// supply (the paper's growth regime); finite patience is what real
    /// users do under it, and it also bounds per-machine queue depth, so
    /// the overloaded fair-share scans stay O(patience-window) instead of
    /// O(backlog).
    #[must_use]
    pub fn million() -> PopulationConfig {
        PopulationConfig {
            users: 3_000_000,
            providers: 40,
            jobs: 1_000_000,
            horizon_days: 60.0,
            patience_hours: 6.0,
            seed: 7,
        }
    }

    /// A small trace with the same shape, for tests.
    #[must_use]
    pub fn smoke() -> PopulationConfig {
        PopulationConfig {
            jobs: 2_000,
            horizon_days: 2.0,
            ..PopulationConfig::million()
        }
    }
}

/// Per-machine caps copied out of the fleet so the iterator borrows
/// nothing.
#[derive(Debug, Clone, Copy)]
struct MachineCaps {
    qubits: usize,
    max_batch: u32,
    max_shots: u32,
}

/// Streaming job trace over a Zipf-activity population; see the module
/// docs. Yields jobs in nondecreasing `submit_s` order with ids
/// `0..jobs`.
#[derive(Debug, Clone)]
pub struct PopulationTrace {
    config: PopulationConfig,
    machines: Vec<MachineCaps>,
    rng: StdRng,
    emitted: u64,
    clock_s: f64,
    mean_gap_s: f64,
}

impl PopulationTrace {
    /// Build a trace over `fleet`'s machines.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet, zero users/providers, or a non-positive
    /// horizon.
    #[must_use]
    pub fn new(fleet: &Fleet, config: PopulationConfig) -> PopulationTrace {
        assert!(!fleet.is_empty(), "need at least one machine");
        assert!(config.users >= 1, "need at least one user");
        assert!(config.providers >= 1, "need at least one provider");
        assert!(config.horizon_days > 0.0, "horizon must be positive");
        let machines = fleet
            .machines()
            .iter()
            .map(|m| MachineCaps {
                qubits: m.num_qubits(),
                max_batch: m.max_batch_size() as u32,
                max_shots: m.max_shots(),
            })
            .collect();
        let mean_gap_s = config.horizon_days * 86_400.0 / config.jobs.max(1) as f64;
        PopulationTrace {
            config,
            machines,
            rng: StdRng::seed_from_u64(config.seed),
            emitted: 0,
            clock_s: 0.0,
            mean_gap_s,
        }
    }

    /// The config this trace was built from.
    #[must_use]
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }
}

impl Iterator for PopulationTrace {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.emitted >= self.config.jobs {
            return None;
        }
        self.clock_s += sampler::exponential(&mut self.rng, self.mean_gap_s);
        let user = sampler::zipf_rank(&mut self.rng, self.config.users);
        let provider = ((user - 1) % self.config.providers as u64) as u32;
        let machine = self.rng.gen_range(0..self.machines.len());
        let caps = self.machines[machine];
        let id = self.emitted;
        self.emitted += 1;
        Some(JobSpec {
            id,
            provider,
            machine,
            circuits: sampler::batch_size(&mut self.rng, caps.max_batch),
            shots: sampler::shots(&mut self.rng, caps.max_shots),
            mean_depth: 15.0 + 0.3 * caps.qubits as f64,
            mean_width: sampler::width(&mut self.rng, caps.qubits) as f64,
            submit_s: self.clock_s,
            is_study: false,
            patience_s: self.config.patience_hours * 3600.0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.jobs - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PopulationTrace {}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(config: PopulationConfig) -> PopulationTrace {
        PopulationTrace::new(&Fleet::ibm_like(), config)
    }

    #[test]
    fn deterministic_and_submit_ordered() {
        let a: Vec<JobSpec> = trace(PopulationConfig::smoke()).collect();
        let b: Vec<JobSpec> = trace(PopulationConfig::smoke()).collect();
        assert_eq!(a, b, "pure function of the config");
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0].submit_s <= w[1].submit_s));
        assert!(a.windows(2).all(|w| w[1].id == w[0].id + 1));
        let last = a.last().unwrap();
        // Poisson arrivals at rate jobs/horizon land the last job near
        // the horizon (well within ±20% at n = 2000).
        let horizon_s = 2.0 * 86_400.0;
        assert!(
            (last.submit_s / horizon_s - 1.0).abs() < 0.2,
            "last submit {} vs horizon {horizon_s}",
            last.submit_s
        );
    }

    #[test]
    fn provider_activity_inherits_zipf_skew() {
        let mut per_provider = vec![0u64; 40];
        for job in trace(PopulationConfig::smoke()) {
            per_provider[job.provider as usize] += 1;
        }
        // Rank 1 maps to provider 0. The modular fold means every
        // provider shares the same 1/rank tail (~ln(users)/40 mass each);
        // what distinguishes provider 0 is the rank-1 head, worth about
        // 3x a mid-pack provider at these parameters.
        assert!(
            per_provider[0] > 2 * per_provider[20].max(1),
            "provider 0: {}, provider 20: {}",
            per_provider[0],
            per_provider[20]
        );
        assert_eq!(per_provider.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn jobs_respect_machine_caps() {
        let fleet = Fleet::ibm_like();
        for job in trace(PopulationConfig::smoke()) {
            let m = &fleet.machines()[job.machine];
            assert!(job.circuits >= 1 && job.circuits <= m.max_batch_size() as u32);
            assert!(job.shots >= 1 && job.shots <= m.max_shots());
            assert!(job.mean_width >= 1.0 && job.mean_width <= m.num_qubits() as f64);
            assert_eq!(job.patience_s, 6.0 * 3600.0);
        }
    }

    #[test]
    fn iterator_is_sized() {
        let mut t = trace(PopulationConfig::smoke());
        assert_eq!(t.len(), 2_000);
        t.next();
        assert_eq!(t.len(), 1_999);
    }
}
