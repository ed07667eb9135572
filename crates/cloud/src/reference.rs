//! A brute-force reference implementation of the cloud DES.
//!
//! [`simulate`] reproduces the semantics of
//! [`Simulation::run`](crate::Simulation::run) with the dumbest data
//! structures that can express them: a flat `Vec` of pending events
//! scanned for the minimum at every step (no binary heap), per-machine
//! job lists scanned per discipline at every dispatch (no incremental
//! fair-share state), and fair-share usage recomputed from the full
//! charge history with the closed-form decay
//! `usage(t) = Σ sᵢ · 2^-((t-tᵢ)/half_life)` (no stepwise accumulator).
//! Everything is O(n²) or worse — which is the point: it is too simple to
//! share bugs with the production simulator's clever bookkeeping.
//!
//! `tests/properties.rs` asserts that the production DES matches this
//! reference **record-for-record** (records, queue samples, and all
//! population aggregates) on random small traces across every queue
//! discipline and under outage plans. Both consume the same RNG stream in
//! the same order, so all timestamps are bit-identical when the semantics
//! agree.

use std::collections::HashMap;

use qcs_calibration::distributions::lognormal_with_cov;
use qcs_machine::Fleet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{CloudConfig, Discipline, JobOutcome, JobRecord, JobSpec, OutagePlan, QueueSample,
            SimulationResult};

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefEventKind {
    Completion { machine: usize },
    CancelCheck { job_id: u64, machine: usize },
    Resume { machine: usize },
}

#[derive(Debug, Clone, PartialEq)]
struct RefEvent {
    time_s: f64,
    seq: u64,
    kind: RefEventKind,
}

/// One machine's naive state: jobs in arrival order, the in-flight job's
/// pending record, and the full per-provider charge history.
struct MachineState {
    queue: Vec<JobSpec>,
    executing: Option<JobRecord>,
    resume_scheduled: bool,
    /// Per provider: every `(charge_time_s, seconds)` ever charged.
    charges: Vec<Vec<(f64, f64)>>,
}

impl MachineState {
    /// Closed-form decayed usage of a provider at `now_s`.
    fn usage(&self, provider: usize, now_s: f64, half_life_s: f64) -> f64 {
        self.charges[provider]
            .iter()
            .map(|&(t, s)| s * 0.5f64.powf((now_s - t) / half_life_s))
            .sum()
    }

    /// Index into `queue` of the next job under `discipline`, recomputed
    /// from scratch.
    fn select(&self, discipline: Discipline, now_s: f64, fleet: &Fleet, machine: usize)
        -> Option<usize>
    {
        if self.queue.is_empty() {
            return None;
        }
        match discipline {
            Discipline::Fifo => Some(0),
            Discipline::ShortestJobFirst => {
                let mut best: Option<(f64, f64, usize)> = None;
                for (i, job) in self.queue.iter().enumerate() {
                    let estimate = fleet.machines()[machine].cost_model().job_time_uniform_s(
                        job.circuits,
                        job.mean_depth.round().max(1.0) as usize,
                        job.shots,
                    );
                    let key = (estimate, job.submit_s);
                    if best.is_none_or(|(e, s, _)| key < (e, s)) {
                        best = Some((estimate, job.submit_s, i));
                    }
                }
                best.map(|(_, _, i)| i)
            }
            Discipline::FairShare { half_life_hours } => {
                let half_life_s = half_life_hours * 3600.0;
                // Lowest decayed usage wins, ties broken by the earliest
                // front-of-queue submit, then lowest provider index.
                let mut best: Option<(f64, f64, usize)> = None;
                for provider in 0..self.charges.len() {
                    let Some(front) =
                        self.queue.iter().find(|j| j.provider as usize == provider)
                    else {
                        continue;
                    };
                    let key = (self.usage(provider, now_s, half_life_s), front.submit_s);
                    if best.is_none_or(|(u, s, _)| key < (u, s)) {
                        best = Some((key.0, key.1, provider));
                    }
                }
                let provider = best.map(|(_, _, p)| p)?;
                self.queue.iter().position(|j| j.provider as usize == provider)
            }
        }
    }
}

/// Run the reference simulation. Produces the same [`SimulationResult`]
/// as [`Simulation::run`](crate::Simulation::run) for the same
/// `(fleet, config, outages, jobs)` — minus the audit report, which the
/// reference never attaches.
///
/// # Panics
///
/// Panics if a job references a machine outside the fleet or a provider
/// outside `config.num_providers`.
#[must_use]
pub fn simulate(
    fleet: &Fleet,
    config: &CloudConfig,
    outages: &OutagePlan,
    mut jobs: Vec<JobSpec>,
) -> SimulationResult {
    let n_machines = fleet.len();
    for job in &jobs {
        assert!(job.machine < n_machines, "job {} targets unknown machine", job.id);
        assert!(
            (job.provider as usize) < config.num_providers,
            "job {} has unknown provider",
            job.id
        );
    }
    jobs.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut machines: Vec<MachineState> = (0..n_machines)
        .map(|_| MachineState {
            queue: Vec::new(),
            executing: None,
            resume_scheduled: false,
            charges: vec![Vec::new(); config.num_providers],
        })
        .collect();
    let mut events: Vec<RefEvent> = Vec::new();
    let mut seq = 0u64;
    let mut result = SimulationResult::default();
    let sample_interval_s = config.sample_interval_hours * 3600.0;
    // Integer tick grid, mirroring production: sample k lands at exactly
    // k * interval (a running `+=` accumulator drifts over long horizons).
    let mut next_sample_tick = 1u64;
    let mut pending_memo: HashMap<u64, usize> = HashMap::new();
    let mut arrival_idx = 0usize;

    loop {
        let next_arrival_s = jobs.get(arrival_idx).map(|j| j.submit_s);
        // Naive min-scan over the pending events: earliest (time, seq).
        let next_event_idx = (0..events.len()).reduce(|a, b| {
            if (events[b].time_s, events[b].seq) < (events[a].time_s, events[a].seq) {
                b
            } else {
                a
            }
        });
        // A patience check whose job already left its queue (finished or
        // dispatched) cancels nothing: drop it without moving the clock.
        if let Some(i) = next_event_idx {
            if let RefEventKind::CancelCheck { job_id, machine } = events[i].kind {
                if !machines[machine].queue.iter().any(|j| j.id == job_id) {
                    events.swap_remove(i);
                    continue;
                }
            }
        }
        let next_event_s = next_event_idx.map(|i| events[i].time_s);
        let now_s = match (next_arrival_s, next_event_s) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(e)) => e,
            (Some(a), Some(e)) => a.min(e),
        };

        if sample_interval_s > 0.0 {
            loop {
                let sample_s = next_sample_tick as f64 * sample_interval_s;
                if sample_s > now_s {
                    break;
                }
                for (m, state) in machines.iter().enumerate() {
                    result.queue_samples.push(QueueSample {
                        time_s: sample_s,
                        machine: m,
                        pending: state.queue.len() + usize::from(state.executing.is_some()),
                    });
                }
                next_sample_tick += 1;
            }
        }

        // Arrivals win ties, exactly as in production.
        if next_arrival_s.is_some_and(|a| next_event_s.is_none_or(|e| a <= e)) {
            let job = jobs[arrival_idx].clone();
            arrival_idx += 1;
            let machine = job.machine;
            let pending = machines[machine].queue.len()
                + usize::from(machines[machine].executing.is_some());
            pending_memo.insert(job.id, pending);
            if job.patience_s.is_finite() {
                events.push(RefEvent {
                    time_s: job.submit_s + job.patience_s,
                    seq,
                    kind: RefEventKind::CancelCheck { job_id: job.id, machine },
                });
                seq += 1;
            }
            machines[machine].queue.push(job);
            if machines[machine].executing.is_none() {
                dispatch(
                    machine, now_s, fleet, config, outages, &mut machines, &mut events,
                    &mut seq, &mut rng, &pending_memo,
                );
            }
            continue;
        }

        let Some(event_idx) = next_event_idx else {
            // The loop head breaks when both the arrival stream and the
            // event list are empty, and the arrival branch above consumed
            // the tie; an event must exist here.
            unreachable!("no arrival and no event, yet the loop did not terminate")
        };
        let event = events.swap_remove(event_idx);
        match event.kind {
            RefEventKind::Completion { machine } => {
                let Some(record) = machines[machine].executing.take() else {
                    unreachable!("completion event without an executing job")
                };
                machines[machine].charges[record.provider as usize]
                    .push((record.end_s, record.end_s - record.start_s));
                pending_memo.remove(&record.id);
                finish(config, &mut result, record);
                dispatch(
                    machine, event.time_s, fleet, config, outages, &mut machines, &mut events,
                    &mut seq, &mut rng, &pending_memo,
                );
            }
            RefEventKind::Resume { machine } => {
                machines[machine].resume_scheduled = false;
                if machines[machine].executing.is_none() {
                    dispatch(
                        machine, event.time_s, fleet, config, outages, &mut machines,
                        &mut events, &mut seq, &mut rng, &pending_memo,
                    );
                }
            }
            RefEventKind::CancelCheck { job_id, machine } => {
                if let Some(pos) = machines[machine].queue.iter().position(|j| j.id == job_id) {
                    let job = machines[machine].queue.remove(pos);
                    let pending = pending_memo.remove(&job.id).unwrap_or(0);
                    finish(
                        config,
                        &mut result,
                        JobRecord {
                            id: job.id,
                            provider: job.provider,
                            machine,
                            circuits: job.circuits,
                            shots: job.shots,
                            mean_width: job.mean_width,
                            mean_depth: job.mean_depth,
                            is_study: job.is_study,
                            submit_s: job.submit_s,
                            start_s: event.time_s,
                            end_s: event.time_s,
                            outcome: JobOutcome::Cancelled,
                            pending_at_submit: pending,
                            crossed_calibration: false,
                        },
                    );
                }
            }
        }
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    machine: usize,
    now_s: f64,
    fleet: &Fleet,
    config: &CloudConfig,
    outages: &OutagePlan,
    machines: &mut [MachineState],
    events: &mut Vec<RefEvent>,
    seq: &mut u64,
    rng: &mut StdRng,
    pending_memo: &HashMap<u64, usize>,
) {
    if let Some(until_s) = outages.down_until(machine, now_s) {
        if !machines[machine].resume_scheduled && !machines[machine].queue.is_empty() {
            machines[machine].resume_scheduled = true;
            events.push(RefEvent {
                time_s: until_s,
                seq: *seq,
                kind: RefEventKind::Resume { machine },
            });
            *seq += 1;
        }
        return;
    }
    let Some(idx) = machines[machine].select(config.discipline, now_s, fleet, machine) else {
        return;
    };
    let job = machines[machine].queue.remove(idx);
    let m = &fleet.machines()[machine];
    let base = m.cost_model().job_time_uniform_s(
        job.circuits,
        job.mean_depth.round().max(1.0) as usize,
        job.shots,
    );
    // Same RNG draws in the same order as production.
    let noisy = base * lognormal_with_cov(rng, 1.0, config.exec_noise_cov);
    let (outcome, duration) = if rng.gen_range(0.0..1.0) < config.error_rate {
        (JobOutcome::Errored, noisy * rng.gen_range(0.05..0.8))
    } else {
        (JobOutcome::Completed, noisy)
    };
    let pending = pending_memo.get(&job.id).copied().unwrap_or(0);
    let end_s = now_s + duration;
    let crossed = m.schedule().crossover(job.submit_s / 3600.0, end_s / 3600.0);
    events.push(RefEvent {
        time_s: end_s,
        seq: *seq,
        kind: RefEventKind::Completion { machine },
    });
    *seq += 1;
    machines[machine].executing = Some(JobRecord {
        id: job.id,
        provider: job.provider,
        machine,
        circuits: job.circuits,
        shots: job.shots,
        mean_width: job.mean_width,
        mean_depth: job.mean_depth,
        is_study: job.is_study,
        submit_s: job.submit_s,
        start_s: now_s,
        end_s,
        outcome,
        pending_at_submit: pending,
        crossed_calibration: crossed,
    });
}

/// Aggregate + record-sampling bookkeeping, mirroring production.
fn finish(config: &CloudConfig, result: &mut SimulationResult, record: JobRecord) {
    result.tally(&record);
    let keep = record.is_study
        || config.background_record_divisor <= 1
        || record.id.is_multiple_of(config.background_record_divisor);
    if keep {
        result.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    fn job(id: u64, machine: usize, submit: f64, patience: f64) -> JobSpec {
        JobSpec {
            id,
            provider: (id % 3) as u32,
            machine,
            circuits: 1 + (id % 30) as u32,
            shots: 1024,
            mean_depth: 15.0,
            mean_width: 3.0,
            submit_s: submit,
            is_study: id.is_multiple_of(2),
            patience_s: patience,
        }
    }

    fn compare(config: CloudConfig, outages: OutagePlan, jobs: Vec<JobSpec>) {
        let fleet = Fleet::ibm_like();
        let production = Simulation::new(fleet.clone(), config)
            .with_outages(outages.clone())
            .run(jobs.clone());
        let reference = simulate(&fleet, &config, &outages, jobs);
        assert_eq!(production.records, reference.records);
        assert_eq!(production.queue_samples, reference.queue_samples);
        assert_eq!(production.total_jobs, reference.total_jobs);
        assert_eq!(production.outcome_counts, reference.outcome_counts);
        assert_eq!(production.daily_executions, reference.daily_executions);
        if config.audit {
            production.audit.expect("audit enabled").assert_clean();
        }
    }

    #[test]
    fn matches_production_on_contended_trace() {
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| job(i, (i % 2) as usize, i as f64 * 7.0, f64::INFINITY))
            .collect();
        let config = CloudConfig {
            audit: true,
            sample_interval_hours: 0.05,
            ..CloudConfig::default()
        };
        compare(config, OutagePlan::none(25), jobs);
    }

    #[test]
    fn matches_production_with_cancellations_and_outage() {
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| {
                let patience = if i % 3 == 0 { 40.0 + i as f64 } else { f64::INFINITY };
                job(i, (i % 2) as usize, i as f64 * 11.0, patience)
            })
            .collect();
        let mut windows = vec![Vec::new(); 25];
        windows[0] = vec![(50.0, 400.0)];
        windows[1] = vec![(10.0, 60.0), (80.0, 200.0)];
        let config = CloudConfig {
            audit: true,
            sample_interval_hours: 0.02,
            background_record_divisor: 3,
            ..CloudConfig::default()
        };
        compare(config, OutagePlan::from_windows(windows), jobs);
    }

    #[test]
    fn matches_production_across_disciplines() {
        for discipline in [
            Discipline::default(),
            Discipline::Fifo,
            Discipline::ShortestJobFirst,
        ] {
            let jobs: Vec<JobSpec> = (0..25)
                .map(|i| job(i, (i % 3) as usize, i as f64 * 5.0, f64::INFINITY))
                .collect();
            let config = CloudConfig {
                discipline,
                audit: true,
                seed: 42,
                ..CloudConfig::default()
            };
            compare(config, OutagePlan::none(25), jobs);
        }
    }
}
