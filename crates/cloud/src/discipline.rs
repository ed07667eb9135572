//! Pluggable queue disciplines.
//!
//! The paper observes that "strategies for queuing and job scheduling are
//! simplistic at the present" and recommends vendor-side scheduling
//! research (§V-E ①④). [`Discipline`] selects the policy a machine's
//! queue uses; [`JobQueue`] adapts the chosen policy behind one interface
//! for the simulator. Like [`FairShareQueue`], the queue is generic over
//! [`QueueItem`] so the live engine can queue compact slab handles while
//! the public API queues full [`JobSpec`]s.

use std::collections::VecDeque;

use crate::{FairShareQueue, JobSpec, QueueItem};

/// Queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// IBM-style fair-share across providers (the production default).
    FairShare {
        /// Usage decay half-life, hours.
        half_life_hours: f64,
    },
    /// First-in-first-out, provider-blind.
    Fifo,
    /// Shortest-expected-job-first (by estimated service time), with FIFO
    /// tie-breaking. A classical HPC heuristic that minimizes mean wait at
    /// the cost of starving long jobs.
    ShortestJobFirst,
}

impl Default for Discipline {
    fn default() -> Self {
        Discipline::FairShare {
            half_life_hours: 24.0,
        }
    }
}

/// A single machine's queue under some [`Discipline`].
#[derive(Debug, Clone)]
pub enum JobQueue<T = JobSpec> {
    /// Fair-share state.
    FairShare(FairShareQueue<T>),
    /// FIFO state.
    Fifo(VecDeque<T>),
    /// SJF state: jobs with a precomputed service estimate.
    ShortestJobFirst(Vec<(f64, T)>),
}

impl<T: QueueItem> JobQueue<T> {
    /// Create an empty queue for the given discipline.
    #[must_use]
    pub fn new(discipline: Discipline, num_providers: usize) -> Self {
        match discipline {
            Discipline::FairShare { half_life_hours } => {
                JobQueue::FairShare(FairShareQueue::new(num_providers, half_life_hours * 3600.0))
            }
            Discipline::Fifo => JobQueue::Fifo(VecDeque::new()),
            Discipline::ShortestJobFirst => JobQueue::ShortestJobFirst(Vec::new()),
        }
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            JobQueue::FairShare(q) => q.len(),
            JobQueue::Fifo(q) => q.len(),
            JobQueue::ShortestJobFirst(q) => q.len(),
        }
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue a job. `service_estimate_s` computes the machine's expected
    /// execution time for the job; only SJF calls it.
    pub fn push(&mut self, job: T, service_estimate_s: impl FnOnce() -> f64) {
        match self {
            JobQueue::FairShare(q) => q.push(job),
            JobQueue::Fifo(q) => q.push_back(job),
            JobQueue::ShortestJobFirst(q) => q.push((service_estimate_s(), job)),
        }
    }

    /// Pop the next job to execute at time `now_s`.
    pub fn pop(&mut self, now_s: f64) -> Option<T> {
        match self {
            JobQueue::FairShare(q) => q.pop(now_s),
            JobQueue::Fifo(q) => q.pop_front(),
            JobQueue::ShortestJobFirst(q) => {
                let idx = q
                    .iter()
                    .enumerate()
                    .min_by(|(_, (sa, ja)), (_, (sb, jb))| {
                        sa.total_cmp(sb)
                            .then_with(|| ja.submit_s().total_cmp(&jb.submit_s()))
                    })
                    .map(|(i, _)| i)?;
                // `remove`, not `swap_remove`: the queue stays in arrival
                // order, so the first of equal keys is the earliest arrival.
                Some(q.remove(idx).1)
            }
        }
    }

    /// Charge provider usage at time `now_s` (fair-share only; a no-op
    /// otherwise). Usage is decayed to `now_s` before the charge lands.
    pub fn charge(&mut self, provider: u32, seconds: f64, now_s: f64) {
        if let JobQueue::FairShare(q) = self {
            q.charge(provider, seconds, now_s);
        }
    }

    /// Lifetime per-provider charged seconds, undecayed (fair-share only;
    /// `None` for disciplines without usage accounting).
    #[must_use]
    pub fn charged_raw(&self) -> Option<&[f64]> {
        match self {
            JobQueue::FairShare(q) => Some(q.charged_raw()),
            JobQueue::Fifo(_) | JobQueue::ShortestJobFirst(_) => None,
        }
    }

    /// Install cross-shard usage into the decayed accumulator only
    /// (fair-share only; a no-op otherwise). See
    /// [`FairShareQueue::inject_usage`].
    pub fn inject_usage(&mut self, provider: u32, seconds: f64, now_s: f64) {
        if let JobQueue::FairShare(q) = self {
            q.inject_usage(provider, seconds, now_s);
        }
    }

    /// Remove a queued job by id (user cancellation).
    pub fn remove(&mut self, job_id: u64) -> Option<T> {
        match self {
            JobQueue::FairShare(q) => q.remove(job_id),
            JobQueue::Fifo(q) => {
                let pos = q.iter().position(|j| j.id() == job_id)?;
                q.remove(pos)
            }
            JobQueue::ShortestJobFirst(q) => {
                let pos = q.iter().position(|(_, j)| j.id() == job_id)?;
                Some(q.remove(pos).1)
            }
        }
    }

    /// Remove a queued job by id when its fair-share provider is already
    /// known (patience-expiry hot path): fair-share scans only that
    /// provider's FIFO; other disciplines fall back to [`remove`](Self::remove).
    pub fn remove_for_provider(&mut self, provider: u32, job_id: u64) -> Option<T> {
        match self {
            JobQueue::FairShare(q) => q.remove_for_provider(provider, job_id),
            other => other.remove(job_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, provider: u32, submit: f64) -> JobSpec {
        JobSpec {
            id,
            provider,
            machine: 0,
            circuits: 1,
            shots: 1024,
            mean_depth: 10.0,
            mean_width: 2.0,
            submit_s: submit,
            is_study: false,
            patience_s: f64::INFINITY,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = JobQueue::new(Discipline::Fifo, 4);
        q.push(job(1, 0, 0.0), || 100.0);
        q.push(job(2, 1, 1.0), || 1.0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(5.0).unwrap().id, 1);
        assert_eq!(q.pop(5.0).unwrap().id, 2);
        assert!(q.pop(5.0).is_none());
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let mut q = JobQueue::new(Discipline::ShortestJobFirst, 4);
        q.push(job(1, 0, 0.0), || 500.0);
        q.push(job(2, 0, 1.0), || 5.0);
        q.push(job(3, 0, 2.0), || 50.0);
        assert_eq!(q.pop(5.0).unwrap().id, 2);
        assert_eq!(q.pop(5.0).unwrap().id, 3);
        assert_eq!(q.pop(5.0).unwrap().id, 1);
    }

    #[test]
    fn sjf_ties_break_fifo() {
        let mut q = JobQueue::new(Discipline::ShortestJobFirst, 4);
        q.push(job(1, 0, 0.0), || 10.0);
        q.push(job(2, 0, 1.0), || 10.0);
        assert_eq!(q.pop(5.0).unwrap().id, 1);
    }

    #[test]
    fn sjf_exact_ties_stay_fifo_after_a_pop() {
        // Regression: popping with `swap_remove` moved the last job into
        // the hole, so of two jobs with equal estimate and submit time the
        // later arrival ran first (the brute-force reference disagreed).
        let mut q = JobQueue::new(Discipline::ShortestJobFirst, 4);
        q.push(job(1, 0, 0.0), || 5.0);
        q.push(job(2, 0, 1.0), || 10.0);
        q.push(job(3, 0, 1.0), || 10.0);
        assert_eq!(q.pop(5.0).unwrap().id, 1);
        assert_eq!(q.pop(5.0).unwrap().id, 2);
        assert_eq!(q.pop(5.0).unwrap().id, 3);
    }

    #[test]
    fn only_sjf_evaluates_the_service_estimate() {
        for discipline in [Discipline::default(), Discipline::Fifo] {
            let mut q = JobQueue::new(discipline, 4);
            q.push(job(1, 0, 0.0), || {
                panic!("{discipline:?} evaluated the estimate")
            });
            assert_eq!(q.len(), 1);
        }
        let mut evaluated = false;
        let mut q = JobQueue::new(Discipline::ShortestJobFirst, 4);
        q.push(job(1, 0, 0.0), || {
            evaluated = true;
            1.0
        });
        assert!(evaluated);
    }

    #[test]
    fn fair_share_variant_delegates() {
        let mut q = JobQueue::new(Discipline::default(), 2);
        q.push(job(1, 0, 0.0), || 1.0);
        q.charge(0, 1000.0, 0.0);
        q.push(job(2, 1, 1.0), || 1.0);
        // Provider 1 has no usage: its job goes first.
        assert_eq!(q.pop(2.0).unwrap().id, 2);
    }

    #[test]
    fn remove_works_for_all_variants() {
        for discipline in [
            Discipline::default(),
            Discipline::Fifo,
            Discipline::ShortestJobFirst,
        ] {
            let mut q = JobQueue::new(discipline, 4);
            q.push(job(1, 0, 0.0), || 1.0);
            q.push(job(2, 1, 1.0), || 2.0);
            assert_eq!(q.remove(1).map(|j| j.id), Some(1));
            assert_eq!(q.len(), 1);
            assert!(q.remove(99).is_none());
        }
    }

    #[test]
    fn remove_for_provider_works_for_all_variants() {
        for discipline in [
            Discipline::default(),
            Discipline::Fifo,
            Discipline::ShortestJobFirst,
        ] {
            let mut q = JobQueue::new(discipline, 4);
            q.push(job(1, 0, 0.0), || 1.0);
            q.push(job(2, 1, 1.0), || 2.0);
            assert_eq!(q.remove_for_provider(1, 2).map(|j| j.id), Some(2));
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn charged_raw_only_for_fair_share() {
        let mut fair: JobQueue = JobQueue::new(Discipline::default(), 2);
        fair.charge(1, 30.0, 5.0);
        assert_eq!(fair.charged_raw(), Some(&[0.0, 30.0][..]));
        for discipline in [Discipline::Fifo, Discipline::ShortestJobFirst] {
            let mut q: JobQueue = JobQueue::new(discipline, 2);
            q.charge(0, 10.0, 0.0); // no-op
            assert_eq!(q.charged_raw(), None);
        }
    }

    #[test]
    fn empty_checks() {
        let q: JobQueue = JobQueue::new(Discipline::Fifo, 1);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
