//! IBM-style fair-share queuing.
//!
//! "Fair-share queuing executes jobs on a quantum system in a dynamic order
//! so that no user can monopolize the system ... jobs from various
//! providers are inter-weaved in a non-trivial manner, and the order in
//! which jobs complete is not necessarily the order in which they were
//! submitted" (paper §II-B ⑤). Each provider accumulates exponentially
//! decayed usage; the next job comes from the eligible provider with the
//! lowest usage (FIFO within a provider). Every provider holds an equal
//! share.
//!
//! # Incremental selection
//!
//! Exponential decay multiplies every provider's usage by the *same*
//! factor, so the usage **ordering** between providers is invariant
//! between charges — only a charge (or injection) can reorder anyone, and
//! it reorders exactly one provider. The queue exploits this by giving
//! each provider a decay-invariant sort key
//!
//! ```text
//! key(p) = log2(usage_p(t_p)) + t_p / half_life
//! ```
//!
//! where `usage_p(t_p)` is the provider's decayed usage valued at its own
//! last-touch time `t_p`: the decayed usage at any later `t` is
//! `usage_p(t_p) · 2^-((t - t_p)/half_life)`, whose log2 is `key(p) − t /
//! half_life` — the same `t`-term for every provider, so comparing cached
//! keys at *any* time reproduces the usage order without decaying
//! anything. A provider's key is recomputed only when it is charged or
//! injected (one `log2` instead of an O(P) `decay_to` sweep), and a
//! winner tree over the providers repositions just that provider in
//! O(log P); `pop` reads the root. The tie-break chain is `(key, front
//! submit time, provider index)`. The O(P) scan over the same keys
//! survives only as a test-scope method: the unit tests assert that the
//! tree root equals the scan's pick on the *same* queue before every pop,
//! over random push/charge/inject/remove schedules.

use std::collections::VecDeque;

use crate::{JobSpec, QueueItem};

/// Sentinel for "no provider" in the winner tree.
const NONE: u32 = u32::MAX;

/// A single machine's fair-share queue.
///
/// Generic over the queued item ([`QueueItem`]): the public simulation
/// API queues full [`JobSpec`]s, the live engine queues compact slab
/// handles.
#[derive(Debug, Clone)]
pub struct FairShareQueue<T = JobSpec> {
    /// Per-provider FIFO queues (indexed by provider id).
    queues: Vec<VecDeque<T>>,
    /// Per-provider decayed usage, seconds, valued at `touch_s` — decayed
    /// lazily (closed-form per segment) instead of eagerly sweeping every
    /// provider on every queue event.
    usage: Vec<f64>,
    /// Per-provider time its `usage` is valued at.
    touch_s: Vec<f64>,
    /// Per-provider decay-invariant sort key (see module docs); `-inf`
    /// for zero usage.
    key: Vec<f64>,
    /// Per-provider lifetime charged seconds, *undecayed* (audit
    /// accounting: must equal the sum of the provider's execution
    /// intervals on this machine).
    charged_raw: Vec<f64>,
    /// Usage half-life, seconds.
    half_life_s: f64,
    /// Total queued jobs.
    len: usize,
    /// Winner tree: `tree[1]` is the best eligible provider, leaves for
    /// provider `p` at `leaf_base + p`. `NONE` marks empty subtrees.
    tree: Vec<u32>,
    /// First leaf index (= padded provider count, a power of two).
    leaf_base: usize,
}

impl<T: QueueItem> FairShareQueue<T> {
    /// Create a queue for `num_providers` providers.
    #[must_use]
    pub fn new(num_providers: usize, half_life_s: f64) -> Self {
        let leaf_base = num_providers.next_power_of_two().max(1);
        FairShareQueue {
            queues: (0..num_providers).map(|_| VecDeque::new()).collect(),
            usage: vec![0.0; num_providers],
            touch_s: vec![0.0; num_providers],
            key: vec![f64::NEG_INFINITY; num_providers],
            charged_raw: vec![0.0; num_providers],
            half_life_s,
            len: 0,
            tree: vec![NONE; 2 * leaf_base],
            leaf_base,
        }
    }

    /// Number of queued jobs (excluding any executing job).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue a job.
    ///
    /// # Panics
    ///
    /// Panics if the job's provider id is out of range.
    pub fn push(&mut self, job: T) {
        let p = job.provider() as usize;
        self.queues[p].push_back(job);
        self.len += 1;
        if self.queues[p].len() == 1 {
            // Became eligible; a push behind an existing front changes
            // neither the key nor the tie-break, so the tree stands.
            self.update_path(p);
        }
    }

    /// Pop the next job under fair-share order: the eligible provider
    /// with the lowest decayed usage, ties broken by earliest front
    /// submission then lowest provider index. (`now_s` is
    /// retained for signature stability; selection reads the cached
    /// decay-invariant keys, which need no decay sweep — see the module
    /// docs.)
    pub fn pop(&mut self, now_s: f64) -> Option<T> {
        debug_assert!(!now_s.is_nan(), "pop time must not be NaN");
        let p = self.select_tree()?;
        let job = self.queues[p].pop_front();
        if job.is_some() {
            self.len -= 1;
            self.update_path(p);
        }
        job
    }

    /// Charge `seconds` of machine usage to `provider` at time `now_s`:
    /// the provider's usage decays closed-form to `now_s`, the fresh
    /// seconds land at full weight, and the provider's sort key is
    /// recomputed (no other provider moves).
    pub fn charge(&mut self, provider: u32, seconds: f64, now_s: f64) {
        let p = provider as usize;
        self.advance(p, now_s);
        self.usage[p] += seconds;
        self.charged_raw[p] += seconds;
        self.rekey(p);
    }

    /// Lifetime per-provider charged seconds, undecayed. The audit layer
    /// checks these against the sum of each provider's execution intervals.
    #[must_use]
    pub fn charged_raw(&self) -> &[f64] {
        &self.charged_raw
    }

    /// Install usage charged *elsewhere* (another gateway shard) into the
    /// decayed accumulator only. Scheduling then orders providers by their
    /// global footprint, while `charged_raw` keeps counting only seconds
    /// executed on *this* machine — preserving the per-machine
    /// conservation law the auditor checks (charged_raw == sum of local
    /// execution intervals).
    pub fn inject_usage(&mut self, provider: u32, seconds: f64, now_s: f64) {
        let p = provider as usize;
        self.advance(p, now_s);
        self.usage[p] += seconds;
        self.rekey(p);
    }

    /// Remove a specific queued job by id (user cancellation). Returns the
    /// job if it was still queued.
    pub fn remove(&mut self, job_id: u64) -> Option<T> {
        for p in 0..self.queues.len() {
            if let Some(pos) = self.queues[p].iter().position(|j| j.id() == job_id) {
                self.len -= 1;
                let job = self.queues[p].remove(pos);
                self.update_path(p);
                return job;
            }
        }
        None
    }

    /// Remove a queued job by id when its provider is already known (the
    /// patience-expiry hot path): only that provider's FIFO is scanned.
    pub fn remove_for_provider(&mut self, provider: u32, job_id: u64) -> Option<T> {
        let p = provider as usize;
        let pos = self.queues[p].iter().position(|j| j.id() == job_id)?;
        self.len -= 1;
        let job = self.queues[p].remove(pos);
        self.update_path(p);
        job
    }

    /// Decay `p`'s usage closed-form to `now_s` (no-op for a stale or
    /// equal timestamp, mirroring the old eager sweep's `dt <= 0` guard).
    fn advance(&mut self, p: usize, now_s: f64) {
        let dt = now_s - self.touch_s[p];
        if dt > 0.0 {
            self.usage[p] *= 0.5f64.powf(dt / self.half_life_s);
            self.touch_s[p] = now_s;
        }
    }

    /// Recompute `p`'s decay-invariant key and reposition it in the tree.
    fn rekey(&mut self, p: usize) {
        self.key[p] = self.usage[p].log2() + self.touch_s[p] / self.half_life_s;
        self.update_path(p);
    }

    /// Winner of two providers (either may be `NONE`): lowest
    /// `(key, front submit, index)`. `a` must come from the left subtree
    /// so full ties resolve to the lower provider index.
    #[inline]
    fn winner(&self, a: u32, b: u32) -> u32 {
        if a == NONE {
            return b;
        }
        if b == NONE {
            return a;
        }
        let (pa, pb) = (a as usize, b as usize);
        match self.key[pa].total_cmp(&self.key[pb]) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                let ta = self.queues[pa].front().map(QueueItem::submit_s);
                let tb = self.queues[pb].front().map(QueueItem::submit_s);
                // Eligible providers always have a front; compare defensively.
                match (ta, tb) {
                    (Some(ta), Some(tb)) if tb.total_cmp(&ta).is_lt() => b,
                    _ => a,
                }
            }
        }
    }

    /// Re-run the matches on `p`'s path to the root (O(log P)).
    fn update_path(&mut self, p: usize) {
        let mut node = self.leaf_base + p;
        self.tree[node] = if self.queues[p].is_empty() {
            NONE
        } else {
            p as u32
        };
        while node > 1 {
            node >>= 1;
            self.tree[node] = self.winner(self.tree[2 * node], self.tree[2 * node + 1]);
        }
    }

    /// Tree selector: the root of the winner tree.
    fn select_tree(&self) -> Option<usize> {
        let w = self.tree[1];
        (w != NONE).then_some(w as usize)
    }

    /// Scan selector (the tree's test oracle): a full min over eligible
    /// providers on the same key array and tie-break chain.
    #[cfg(test)]
    fn select_scan(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for p in 0..self.queues.len() {
            if self.queues[p].is_empty() {
                continue;
            }
            best = Some(match best {
                None => p,
                // `winner` keeps the left (lower-index) provider on full
                // ties, and `best < p` here, so the semantics match.
                Some(b) => self.winner(b as u32, p as u32) as usize,
            });
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn fifo_within_provider() {
        let mut q = FairShareQueue::new(1, 3600.0);
        q.push(job(1, 0, 0.0));
        q.push(job(2, 0, 1.0));
        assert_eq!(q.pop(2.0).unwrap().id, 1);
        assert_eq!(q.pop(2.0).unwrap().id, 2);
        assert!(q.pop(2.0).is_none());
    }

    #[test]
    fn low_usage_provider_jumps_ahead() {
        let mut q = FairShareQueue::new(2, 3600.0);
        q.charge(0, 1000.0, 0.0); // provider 0 has been hogging
        q.push(job(1, 0, 0.0));
        q.push(job(2, 1, 5.0)); // later submit, but fresher provider
        assert_eq!(q.pop(10.0).unwrap().id, 2);
        assert_eq!(q.pop(10.0).unwrap().id, 1);
    }

    #[test]
    fn usage_decays_over_time() {
        // Old usage is forgiven relative to fresh usage.
        let mut q = FairShareQueue::new(2, 100.0);
        q.charge(0, 1000.0, 0.0); // ancient hog
        let mut later = q.clone();
        // Immediately, provider 0 loses to untouched provider 1.
        q.push(job(1, 0, 0.0));
        q.push(job(2, 1, 1.0));
        assert_eq!(q.pop(0.0).unwrap().id, 2);
        // Ten half-lives later, provider 0's usage ~1s; provider 1 charged
        // 500s recently, so provider 0 now wins.
        later.charge(1, 500.0, 1000.0);
        later.push(job(1, 0, 1000.0));
        later.push(job(2, 1, 1000.5));
        assert_eq!(later.pop(1000.0).unwrap().id, 1);
    }

    #[test]
    fn charge_decays_to_charge_time_first() {
        // Regression: `charge` must decay usage to the charge time before
        // adding. Accounting that adds fresh seconds undecayed (or decays
        // them by the whole elapsed interval afterwards) would produce a
        // spurious 50/50 tie here.
        let mut q = FairShareQueue::new(2, 100.0);
        // Provider 0 works 100 s at t = 0.
        q.charge(0, 100.0, 0.0);
        // One half-life later, provider 1 works 100 s. Correct accounting:
        // provider 0 decays to 50, provider 1 sits at a full 100.
        q.charge(1, 100.0, 100.0);
        // Provider 1's queued job has the earlier submit, so under the
        // buggy tie it would win the tie-break and pop first.
        q.push(job(1, 1, 0.0));
        q.push(job(2, 0, 5.0));
        assert_eq!(q.pop(100.0).unwrap().id, 2, "provider 0 is fresher");
        assert_eq!(q.pop(100.0).unwrap().id, 1);
    }

    #[test]
    fn charged_raw_accumulates_undecayed() {
        let mut q: FairShareQueue = FairShareQueue::new(2, 100.0);
        q.charge(0, 100.0, 0.0);
        q.charge(0, 50.0, 1000.0); // many half-lives later
        q.charge(1, 7.0, 2000.0);
        assert_eq!(q.charged_raw(), &[150.0, 7.0]);
    }

    #[test]
    fn remove_cancels_queued_job() {
        let mut q = FairShareQueue::new(1, 3600.0);
        q.push(job(1, 0, 0.0));
        q.push(job(2, 0, 1.0));
        let removed = q.remove(1).unwrap();
        assert_eq!(removed.id, 1);
        assert_eq!(q.len(), 1);
        assert!(q.remove(99).is_none());
        assert_eq!(q.pop(2.0).unwrap().id, 2);
    }

    #[test]
    fn remove_for_provider_scans_one_fifo() {
        let mut q = FairShareQueue::new(3, 3600.0);
        q.push(job(1, 0, 0.0));
        q.push(job(2, 2, 1.0));
        q.push(job(3, 2, 2.0));
        assert!(q.remove_for_provider(1, 2).is_none(), "wrong provider");
        assert_eq!(q.remove_for_provider(2, 2).unwrap().id, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(3.0).unwrap().id, 1);
        assert_eq!(q.pop(3.0).unwrap().id, 3);
    }

    #[test]
    fn interleaving_across_providers() {
        // With continuous charging, providers alternate.
        let mut q = FairShareQueue::new(2, 1e12);
        for i in 0..4 {
            q.push(job(i, 0, i as f64));
        }
        for i in 4..8 {
            q.push(job(i, 1, i as f64));
        }
        let mut order = Vec::new();
        let mut now = 10.0;
        while let Some(j) = q.pop(now) {
            q.charge(j.provider, 60.0, now);
            order.push(j.provider);
            now += 60.0;
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // One queue, both selectors: before every pop the winner tree's
        // root must be the provider a full scan picks, under a random
        // push / charge / inject / remove / pop schedule.
        #[test]
        fn fairshare_tree_matches_scan_oracle(
            providers in 1usize..12,
            ops in proptest::collection::vec((0u32..7, 0u32..12, 0.0f64..5e4), 1..300),
        ) {
            let mut q: FairShareQueue = FairShareQueue::new(providers, 2.0 * 3600.0);
            let mut clock = 0.0f64;
            let mut queued: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            for &(op, p, x) in &ops {
                clock += x * 1e-2; // monotone clock, as the DES guarantees
                let provider = p % providers as u32;
                match op {
                    0..=2 => {
                        q.push(job(next_id, provider, clock));
                        queued.push(next_id);
                        next_id += 1;
                    }
                    // Whole-second charges collide on equal keys, so the
                    // submit-time and provider-index tie-breaks run too.
                    3 => q.charge(provider, x.round(), clock),
                    4 => q.inject_usage(provider, x, clock),
                    5 if !queued.is_empty() => {
                        let id = queued.swap_remove(p as usize % queued.len());
                        prop_assert_eq!(q.remove(id).map(|j| j.id), Some(id));
                    }
                    _ => {
                        prop_assert_eq!(q.select_tree(), q.select_scan());
                        if let Some(j) = q.pop(clock) {
                            queued.retain(|&id| id != j.id);
                        }
                    }
                }
                prop_assert_eq!(q.len(), queued.len());
            }
            // Drain completely: every remaining selection must agree.
            while !q.is_empty() {
                prop_assert_eq!(q.select_tree(), q.select_scan());
                if let Some(j) = q.pop(clock) {
                    q.charge(j.provider, 45.0, clock);
                }
                clock += 45.0;
            }
            prop_assert_eq!(q.select_scan(), None);
        }
    }
}
