//! The incremental (resumable) cloud-simulation core.
//!
//! [`LiveCloud`] is the event engine behind
//! [`Simulation::run`](crate::Simulation::run), exposed as a stepping API:
//! jobs are [`submit`](LiveCloud::submit)ted in submission-time order at
//! or after the current clock, the clock advances via
//! [`step_until`](LiveCloud::step_until), queued jobs can be
//! [`cancel`](LiveCloud::cancel)led, and per-machine
//! queue depth, fair-share state, and terminal records are observable
//! while the simulation is in flight. This is what lets a network-fronted
//! service (`qcs-gateway`) run the simulator *online* — job by job — in
//! contrast to the batch replay of a complete trace.
//!
//! **Equivalence guarantee:** a trace submitted in submission-time order
//! and advanced through any sequence of `step_until` calls produces
//! records, queue samples, and aggregates *bit-for-bit identical* to
//! `Simulation::run` on the same trace. The batch API is in fact a
//! windowed feed of this type's public `submit` / `step_until`, and
//! `tests/properties.rs::live_matches_batch` locks the equivalence across
//! disciplines, outage plans, and random step schedules.
//!
//! # Hot-path layout
//!
//! The engine stores each in-flight job once, in a slab
//! ([`JobSlab`]), and moves only `u32` handles through the arrival queue,
//! the machine queues and the event agenda — no per-job `HashMap`
//! traffic, no 80-byte specs sifting through a heap. Jobs arrive in
//! submission order, so arrivals are a FIFO of handles and
//! [`submit`](LiveCloud::submit) refuses a job that would arrive before
//! the last one queued. The event agenda orders one packed `(time, seq)`
//! `u128` key (a single integer compare) across three lanes: a small heap
//! of completions and resumes (at most two per machine), a FIFO of
//! patience checks, and a heap for the checks that arrive out of
//! deadline order. Equal patience, as in every population trace, pushes
//! its checks in deadline order, so they no longer sift a heap of
//! thousands: on a 300k-job `fleet_stream` unit 300,000 of 426,570 pops
//! are checks. `step_until` reads the agenda's top once per event.
//! Fair-share selection is the incremental winner tree of
//! [`FairShareQueue`](crate::FairShareQueue), one `u128` rank compare per
//! match. There is exactly one engine; its oracle is the brute-force
//! [`reference::simulate`](crate::reference::simulate), matched
//! bit-for-bit by `tests/properties.rs::des_matches_reference`.
//!
//! # Examples
//!
//! ```
//! use qcs_cloud::{CloudConfig, JobSpec, LiveCloud};
//! use qcs_machine::Fleet;
//!
//! let mut cloud = LiveCloud::new(Fleet::ibm_like(), CloudConfig::default());
//! cloud.submit(JobSpec {
//!     id: 0, provider: 0, machine: 1, circuits: 10, shots: 1024,
//!     mean_depth: 20.0, mean_width: 3.0, submit_s: 5.0, is_study: true,
//!     patience_s: f64::INFINITY,
//! }).unwrap();
//! cloud.step_until(5.0);
//! assert_eq!(cloud.queue_depth(1), 1); // dispatched, executing
//! cloud.run_to_completion();
//! let result = cloud.into_result();
//! assert_eq!(result.records.len(), 1);
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use qcs_calibration::distributions::LogNormal;
use qcs_exec::hash::FxHashMap;
use qcs_machine::Fleet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    day_bin, sign_fold, sign_unfold, CloudConfig, JobOutcome, JobQueue, JobRecord, JobSpec,
    OutagePlan, QueueItem, QueueSample, RecordSink, SimulationResult, StreamingAggregates,
};

/// One in-flight job in the slab: the spec, its queue depth at
/// submission, and a generation counter detecting stale handles.
#[derive(Debug, Clone)]
struct JobState {
    spec: JobSpec,
    /// Jobs pending on the target machine when this one was admitted.
    pending_at_submit: u32,
    /// Bumped every time the slot is freed; events carrying an older
    /// generation are stale and ignored.
    generation: u32,
}

/// Slab storage for in-flight jobs: `u32` handles into a reusable entry
/// vector (a free list recycles terminal slots), replacing the old
/// per-job `HashMap` traffic on the admit/dispatch/terminal path.
#[derive(Debug, Default)]
struct JobSlab {
    entries: Vec<JobState>,
    free: Vec<u32>,
}

impl JobSlab {
    fn alloc(&mut self, spec: JobSpec) -> u32 {
        if let Some(handle) = self.free.pop() {
            let entry = &mut self.entries[handle as usize];
            entry.spec = spec;
            entry.pending_at_submit = 0;
            handle
        } else {
            self.entries.push(JobState {
                spec,
                pending_at_submit: 0,
                generation: 0,
            });
            (self.entries.len() - 1) as u32
        }
    }

    #[inline]
    fn spec(&self, handle: u32) -> &JobSpec {
        &self.entries[handle as usize].spec
    }

    #[inline]
    fn generation(&self, handle: u32) -> u32 {
        self.entries[handle as usize].generation
    }

    fn set_pending(&mut self, handle: u32, pending: u32) {
        self.entries[handle as usize].pending_at_submit = pending;
    }

    /// Release a slot at its terminal event: returns the spec and the
    /// memoized pending-at-submit, bumps the generation so any
    /// still-scheduled event for this handle turns stale, and recycles
    /// the slot.
    fn release(&mut self, handle: u32) -> (JobSpec, u32) {
        let entry = &mut self.entries[handle as usize];
        entry.generation = entry.generation.wrapping_add(1);
        let pending = entry.pending_at_submit;
        let spec = entry.spec.clone();
        self.free.push(handle);
        (spec, pending)
    }
}

/// The compact queue entry: everything a discipline's ordering decisions
/// read, plus the slab handle to the full spec. 24 bytes versus the
/// 80-byte `JobSpec` the queues used to shuffle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QItem {
    handle: u32,
    provider: u32,
    id: u64,
    submit_s: f64,
}

impl QueueItem for QItem {
    fn id(&self) -> u64 {
        self.id
    }

    fn provider(&self) -> u32 {
        self.provider
    }

    fn submit_s(&self) -> f64 {
        self.submit_s
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Completion { machine: u32 },
    CancelCheck { handle: u32, generation: u32 },
    Resume { machine: u32 },
}

/// Monotone key encoding: orders exactly like `(time_s, seq)` under
/// `f64::total_cmp` on the time (the repo-wide sort convention), so one
/// integer compare replaces a float compare plus a sequence tie-break.
#[inline]
fn key_of(time_s: f64, seq: u64) -> u128 {
    (u128::from(sign_fold(time_s)) << 64) | u128::from(seq)
}

/// Inverse of [`key_of`]'s time half, for recovering an entry's time.
#[inline]
fn key_time(key: u128) -> f64 {
    sign_unfold((key >> 64) as u64)
}

/// An agenda entry ordered by its packed `(time, seq)` key, reversed for
/// the max-heap so the earliest entry pops first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: u128,
    kind: EventKind,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The [`Agenda`] lane an entry sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Service,
    Checks,
    Late,
}

/// The time-ordered event agenda over [`key_of`]`(time, seq)`, in three
/// lanes that share one `seq` counter:
///
/// - `service`: a heap of `Completion`s and `Resume`s (at most two per
///   machine, so it stays small);
/// - `checks`: a FIFO of `CancelCheck`s, each pushed after the back key
///   (equal patience gives deadlines in admission order);
/// - `late`: a heap of the `CancelCheck`s that arrive before the FIFO's
///   back key.
///
/// Every push takes the next `seq`, so keys are unique, equal times pop
/// in push order whatever their lanes, and [`peek`](Agenda::peek) takes
/// the least of the three fronts: pop order depends on the keys alone,
/// exactly as one heap over every entry.
#[derive(Debug, Default)]
struct Agenda {
    service: BinaryHeap<HeapEntry>,
    checks: VecDeque<HeapEntry>,
    late: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl Agenda {
    fn len(&self) -> usize {
        self.service.len() + self.checks.len() + self.late.len()
    }

    fn push(&mut self, time_s: f64, kind: EventKind) {
        let entry = HeapEntry {
            key: key_of(time_s, self.seq),
            kind,
        };
        self.seq += 1;
        match kind {
            EventKind::CancelCheck { .. } => {
                if self.checks.back().is_none_or(|back| back.key < entry.key) {
                    self.checks.push_back(entry);
                } else {
                    self.late.push(entry);
                }
            }
            EventKind::Completion { .. } | EventKind::Resume { .. } => self.service.push(entry),
        }
    }

    /// The earliest entry and the lane holding it.
    #[inline]
    fn peek(&self) -> Option<(Lane, HeapEntry)> {
        let mut top = self.service.peek().map(|&e| (Lane::Service, e));
        for (lane, front) in [
            (Lane::Checks, self.checks.front()),
            (Lane::Late, self.late.peek()),
        ] {
            if let Some(&e) = front {
                if top.is_none_or(|(_, t)| e.key < t.key) {
                    top = Some((lane, e));
                }
            }
        }
        top
    }

    /// Drop the front entry of `lane` (the one [`peek`](Agenda::peek)
    /// named).
    #[inline]
    fn pop_lane(&mut self, lane: Lane) {
        match lane {
            Lane::Service => drop(self.service.pop()),
            Lane::Checks => drop(self.checks.pop_front()),
            Lane::Late => drop(self.late.pop()),
        }
    }
}

struct Executing {
    handle: u32,
    start_s: f64,
    end_s: f64,
    outcome: JobOutcome,
    crossed: bool,
}

/// Where a job currently is in its lifecycle, as tracked by
/// [`LiveCloud::status`] (requires
/// [`with_status_tracking`](LiveCloud::with_status_tracking)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Submitted, waiting in a machine queue (or for the clock to reach
    /// its submission time).
    Queued,
    /// Dispatched and executing on its machine.
    Running,
    /// Ran to completion.
    Completed,
    /// Failed during execution.
    Errored,
    /// Withdrawn before dispatch.
    Cancelled,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Errored => "errored",
            JobStatus::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Why a [`LiveCloud::submit`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The job targets a machine index outside the fleet.
    UnknownMachine {
        /// Offending job id.
        job: u64,
        /// The out-of-range machine index.
        machine: usize,
    },
    /// The job's provider is outside `config.num_providers`.
    UnknownProvider {
        /// Offending job id.
        job: u64,
        /// The out-of-range provider id.
        provider: u32,
    },
    /// The job's submission time is `NaN` or infinite: it would never
    /// arrive, and draining the run would sample queues forever.
    NonFiniteSubmit {
        /// Offending job id.
        job: u64,
        /// The job's submission time (s).
        submit_s: f64,
    },
    /// The job's submission time precedes the current simulation clock
    /// (the past cannot be rewritten) or the last pending arrival's
    /// submission time (jobs arrive in submission order).
    SubmitInPast {
        /// Offending job id.
        job: u64,
        /// The job's submission time (s).
        submit_s: f64,
        /// The later of the clock and the last pending arrival's
        /// submission time (s): the earliest time `submit` accepts.
        floor_s: f64,
    },
    /// The job's patience is negative or `NaN` (`inf` is the patient
    /// default): it would be cancelled before it was submitted.
    InvalidPatience {
        /// Offending job id.
        job: u64,
        /// The job's patience (s).
        patience_s: f64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownMachine { job, machine } => {
                write!(f, "job {job} targets unknown machine {machine}")
            }
            SubmitError::UnknownProvider { job, provider } => {
                write!(f, "job {job} has unknown provider {provider}")
            }
            SubmitError::NonFiniteSubmit { job, submit_s } => {
                write!(f, "job {job} has non-finite submission time {submit_s}")
            }
            SubmitError::SubmitInPast {
                job,
                submit_s,
                floor_s,
            } => write!(
                f,
                "job {job} submitted at {submit_s} s, before {floor_s} s, the later of \
                 the clock and the last pending arrival"
            ),
            SubmitError::InvalidPatience { job, patience_s } => {
                write!(f, "job {job} has patience {patience_s} s; it must be >= 0")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The resumable cloud simulator: accepts submissions and cancellations
/// at arbitrary simulation times and advances on demand.
///
/// See the [module docs](self) for the equivalence guarantee against the
/// batch API and the hot-path layout.
pub struct LiveCloud {
    fleet: Fleet,
    config: CloudConfig,
    outages: OutagePlan,
    /// Per machine, the index of its first outage window that can still
    /// cover the clock (see [`OutagePlan::down_until_from`]).
    outage_cursors: Vec<usize>,
    /// `config.exec_noise_cov`'s multiplicative noise, mean 1.
    exec_noise: LogNormal,
    rng: StdRng,
    /// In-flight job storage; queues and agendas hold `u32` handles.
    slab: JobSlab,
    queues: Vec<JobQueue<QItem>>,
    executing: Vec<Option<Executing>>,
    resume_scheduled: Vec<bool>,
    events: Agenda,
    /// Submitted jobs waiting for the clock to reach their submission
    /// time, as slab handles in submission order, which `submit` keeps
    /// nondecreasing in `submit_s`.
    arrivals: VecDeque<u32>,
    result: SimulationResult,
    auditor: Option<crate::Auditor>,
    streaming: Option<StreamingAggregates>,
    /// Per-provider seconds executed by every terminal record, added
    /// before any sink can sample or fold the record away.
    executed_s_by_provider: Vec<f64>,
    sample_interval_s: f64,
    /// Index of the next sample instant: the k-th sample lands at exactly
    /// `k as f64 * sample_interval_s`. An integer tick (not a running
    /// float sum) so a 2-year campaign cannot drift the sample grid.
    next_sample_tick: u64,
    now_s: f64,
    statuses: Option<FxHashMap<u64, JobStatus>>,
    /// Observer invoked for every terminal record, before any sink can
    /// sample or fold it away — the hook online consumers (the gateway's
    /// queue-time predictor) learn from, independent of `RecordSink`.
    tap: Option<RecordTapFn>,
}

/// A terminal-record observer installed with
/// [`LiveCloud::with_record_tap`].
pub type RecordTapFn = Box<dyn FnMut(&JobRecord) + Send>;

impl fmt::Debug for LiveCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveCloud")
            .field("now_s", &self.now_s)
            .field("machines", &self.fleet.len())
            .field("pending_arrivals", &self.arrivals.len())
            .field("pending_events", &self.events.len())
            .field("total_jobs", &self.result.total_jobs)
            .finish_non_exhaustive()
    }
}

impl LiveCloud {
    /// Create a live simulator over a fleet with no machine outages and no
    /// per-job status tracking.
    ///
    /// # Panics
    ///
    /// Panics if `config.exec_noise_cov` is negative.
    #[must_use]
    pub fn new(fleet: Fleet, config: CloudConfig) -> Self {
        let n_machines = fleet.len();
        let sample_interval_s = config.sample_interval_hours * 3600.0;
        let queues = (0..n_machines)
            .map(|_| JobQueue::new(config.discipline, config.num_providers))
            .collect();
        LiveCloud {
            rng: StdRng::seed_from_u64(config.seed),
            slab: JobSlab::default(),
            queues,
            executing: (0..n_machines).map(|_| None).collect(),
            resume_scheduled: vec![false; n_machines],
            events: Agenda::default(),
            arrivals: VecDeque::new(),
            result: SimulationResult::default(),
            auditor: config.audit.then(crate::Auditor::new),
            streaming: match config.record_sink {
                RecordSink::Exact => None,
                RecordSink::Streaming {
                    reservoir_capacity,
                    reservoir_seed,
                } => Some(StreamingAggregates::new(
                    reservoir_capacity as usize,
                    reservoir_seed,
                    config.num_providers,
                )),
            },
            executed_s_by_provider: vec![0.0; config.num_providers],
            sample_interval_s,
            next_sample_tick: 1,
            now_s: 0.0,
            statuses: None,
            tap: None,
            outages: OutagePlan::none(n_machines),
            outage_cursors: vec![0; n_machines],
            exec_noise: LogNormal::with_cov(1.0, config.exec_noise_cov),
            fleet,
            config,
        }
    }

    /// Install a terminal-record tap: `tap` runs for **every** terminal
    /// record (completed, errored, cancelled) the moment it is produced,
    /// before background sampling or the streaming sink can drop it. This
    /// is how online consumers — e.g. the gateway's queue-time predictor
    /// — learn from the record stream without materializing it.
    #[must_use]
    pub fn with_record_tap(mut self, tap: RecordTapFn) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Attach a maintenance/outage plan (see
    /// [`Simulation::with_outages`](crate::Simulation::with_outages)).
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different number of machines.
    #[must_use]
    pub fn with_outages(mut self, outages: OutagePlan) -> Self {
        assert_eq!(
            outages.num_machines(),
            self.fleet.len(),
            "outage plan machine count mismatch"
        );
        self.outages = outages;
        self.outage_cursors.fill(0);
        self
    }

    /// Enable per-job lifecycle tracking so [`status`](LiveCloud::status)
    /// answers for every job ever submitted. Off by default: the batch
    /// path runs millions of background jobs and does not need it.
    #[must_use]
    pub fn with_status_tracking(mut self) -> Self {
        self.statuses = Some(FxHashMap::default());
        self
    }

    /// The fleet under simulation.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The current simulation clock, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Jobs pending on a machine right now: queued plus executing.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    #[must_use]
    pub fn queue_depth(&self, machine: usize) -> usize {
        self.queues[machine].len() + usize::from(self.executing[machine].is_some())
    }

    /// Per-provider lifetime charged seconds (undecayed) summed over
    /// every machine. Zeros for disciplines without usage accounting.
    /// This is the shard-local side of the cross-shard conservation law:
    /// it must equal the seconds executed on this cloud's machines.
    #[must_use]
    pub fn charged_seconds_by_provider(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.config.num_providers];
        for queue in &self.queues {
            if let Some(charged) = queue.charged_raw() {
                for (total, c) in totals.iter_mut().zip(charged) {
                    *total += c;
                }
            }
        }
        totals
    }

    /// Per-provider seconds executed on this cloud's machines so far, over
    /// every terminal job whatever the sink keeps (summed in finishing
    /// order).
    #[must_use]
    pub fn executed_seconds_by_provider(&self) -> Vec<f64> {
        self.executed_s_by_provider.clone()
    }

    /// Jobs that reached a terminal state so far (whole population).
    #[must_use]
    pub fn total_jobs(&self) -> u64 {
        self.result.total_jobs
    }

    /// Jobs per outcome `[completed, errored, cancelled]` so far (whole
    /// population). Unlike [`records_len`](Self::records_len) this counts
    /// every terminal job regardless of record sampling or sink mode.
    #[must_use]
    pub fn outcome_counts(&self) -> [u64; 3] {
        self.result.outcome_counts
    }

    /// Submitted jobs whose submission time the clock has not reached yet
    /// — the arrival-queue backlog. Chunked drivers use this to keep the
    /// in-flight window (and thus memory) bounded on huge traces.
    #[must_use]
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Terminal records materialized so far. Grows with the trace under
    /// [`RecordSink::Exact`](crate::RecordSink::Exact); stays `0` under a
    /// streaming sink — the number the bounded-memory smoke gate asserts
    /// on.
    #[must_use]
    pub fn records_len(&self) -> usize {
        self.result.records.len()
    }

    /// Live view of the streaming aggregates; `None` under the exact
    /// record sink.
    #[must_use]
    pub fn streaming_aggregates(&self) -> Option<&StreamingAggregates> {
        self.streaming.as_ref()
    }

    /// Install cross-shard fair-share usage: `seconds` of machine time
    /// provider `provider` consumed *elsewhere* (on another gateway
    /// shard's machines) since the last reconciliation. The seconds enter
    /// every machine queue's **decayed** usage accumulator — each queue
    /// orders against the provider's global footprint — but never the
    /// undecayed `charged_raw` ledger, which stays equal to the seconds
    /// executed *on this shard* so the auditor's per-machine conservation
    /// law keeps holding exactly.
    ///
    /// No-op for disciplines without usage accounting.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is outside the configured provider count.
    pub fn inject_external_usage(&mut self, provider: u32, seconds: f64) {
        assert!(
            (provider as usize) < self.config.num_providers,
            "unknown provider {provider}"
        );
        if seconds <= 0.0 {
            return;
        }
        let now_s = self.now_s;
        for queue in &mut self.queues {
            queue.inject_usage(provider, seconds, now_s);
        }
    }

    /// Where `job_id` currently is. `None` when status tracking is off or
    /// the id was never submitted.
    #[must_use]
    pub fn status(&self, job_id: u64) -> Option<JobStatus> {
        self.statuses.as_ref()?.get(&job_id).copied()
    }

    /// Submit a job. Jobs arrive in submission order: its `submit_s` must
    /// not precede the current clock or the last pending arrival's
    /// `submit_s`. The job enters its machine's queue when the clock
    /// reaches it; jobs sharing a submission time arrive in submission
    /// order.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the job targets an unknown machine or
    /// provider, its submission time is non-finite or earlier than the
    /// clock or the last pending arrival, or its patience is negative or
    /// `NaN`.
    pub fn submit(&mut self, job: JobSpec) -> Result<(), SubmitError> {
        if job.machine >= self.fleet.len() {
            return Err(SubmitError::UnknownMachine {
                job: job.id,
                machine: job.machine,
            });
        }
        if (job.provider as usize) >= self.config.num_providers {
            return Err(SubmitError::UnknownProvider {
                job: job.id,
                provider: job.provider,
            });
        }
        if !job.submit_s.is_finite() {
            return Err(SubmitError::NonFiniteSubmit {
                job: job.id,
                submit_s: job.submit_s,
            });
        }
        // A pending arrival is never behind the clock: stepping admits it.
        let floor_s = self
            .arrivals
            .back()
            .map_or(self.now_s, |&last| self.slab.spec(last).submit_s);
        if job.submit_s < floor_s {
            return Err(SubmitError::SubmitInPast {
                job: job.id,
                submit_s: job.submit_s,
                floor_s,
            });
        }
        // A range check rather than `< 0.0`, so NaN fails it too.
        if !(0.0..=f64::INFINITY).contains(&job.patience_s) {
            return Err(SubmitError::InvalidPatience {
                job: job.id,
                patience_s: job.patience_s,
            });
        }
        if let Some(statuses) = self.statuses.as_mut() {
            statuses.insert(job.id, JobStatus::Queued);
        }
        let handle = self.slab.alloc(job);
        self.arrivals.push_back(handle);
        Ok(())
    }

    /// Cancel a job that has not started executing. Returns `true` when
    /// the job was withdrawn: a queued job leaves a cancelled
    /// [`JobRecord`] at the current clock; a job whose submission time has
    /// not been reached yet is silently unscheduled (it never entered the
    /// service, so it produces no record). Running, finished, or unknown
    /// jobs are not cancellable and return `false`.
    pub fn cancel(&mut self, job_id: u64) -> bool {
        // Not yet arrived? Unschedule without a record.
        let slab = &self.slab;
        let pending = self
            .arrivals
            .iter()
            .position(|&h| slab.spec(h).id == job_id);
        if let Some(handle) = pending.and_then(|pos| self.arrivals.remove(pos)) {
            self.slab.release(handle);
            if let Some(statuses) = self.statuses.as_mut() {
                statuses.insert(job_id, JobStatus::Cancelled);
            }
            return true;
        }
        // Sample instants that already passed must be recorded against the
        // pre-cancellation queue state.
        self.emit_samples_until(self.now_s);
        for machine in 0..self.queues.len() {
            if let Some(item) = self.queues[machine].remove(job_id) {
                let (spec, pending) = self.slab.release(item.handle);
                let now_s = self.now_s;
                self.finish(cancelled_record(&spec, machine, now_s, pending));
                return true;
            }
        }
        false
    }

    /// Advance the simulation clock to `t_s`, processing every arrival
    /// and event up to (and including) that instant in time order.
    /// Periodic queue samples are emitted exactly as the batch run does.
    /// Passing a non-finite `t_s` drains everything
    /// ([`run_to_completion`](LiveCloud::run_to_completion) is the
    /// readable spelling). The clock never moves backwards; `t_s` in the
    /// past is a no-op.
    pub fn step_until(&mut self, t_s: f64) {
        loop {
            let next_event = self.next_live_event();
            let next_arrival_s = self.arrivals.front().map(|&h| self.slab.spec(h).submit_s);
            let next_event_s = next_event.map(|(_, e)| key_time(e.key));
            let now_s = match (next_arrival_s, next_event_s) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(e)) => e,
                (Some(a), Some(e)) => a.min(e),
            };
            if now_s > t_s {
                break;
            }
            self.emit_samples_until(now_s);
            self.now_s = now_s;

            // Arrivals win ties so a job can start on an exactly-coincident
            // completion.
            if next_arrival_s.is_some_and(|a| next_event_s.is_none_or(|e| a <= e)) {
                if let Some(handle) = self.arrivals.pop_front() {
                    self.admit(handle, now_s);
                }
                continue;
            }

            if let Some((lane, entry)) = next_event {
                self.events.pop_lane(lane);
                self.process_event(now_s, entry.kind);
            }
        }
        if t_s.is_finite() {
            self.now_s = self.now_s.max(t_s);
        }
    }

    /// The agenda's earliest entry once every `CancelCheck` ahead of it
    /// whose job already reached a terminal state (its generation was
    /// bumped) or was dispatched is popped: such a check can cancel
    /// nothing, so it must not move the clock or the queue-sample grid. A
    /// job never returns to its queue, so a check that is stale at the top
    /// stays stale.
    fn next_live_event(&mut self) -> Option<(Lane, HeapEntry)> {
        loop {
            let top = self.events.peek()?;
            let EventKind::CancelCheck { handle, generation } = top.1.kind else {
                return Some(top);
            };
            let queued = self.slab.generation(handle) == generation && {
                let machine = self.slab.spec(handle).machine;
                self.executing[machine]
                    .as_ref()
                    .is_none_or(|e| e.handle != handle)
            };
            if queued {
                return Some(top);
            }
            self.events.pop_lane(top.0);
        }
    }

    /// Drain every pending arrival and event; the clock ends at the last
    /// terminal instant.
    pub fn run_to_completion(&mut self) {
        self.step_until(f64::INFINITY);
    }

    /// Finish the run: finalize the audit (when enabled) and return the
    /// accumulated [`SimulationResult`]. Pending arrivals or in-flight
    /// jobs are *not* drained automatically — call
    /// [`run_to_completion`](LiveCloud::run_to_completion) first unless a
    /// truncated result is intended.
    #[must_use]
    pub fn into_result(self) -> SimulationResult {
        let mut result = self.result;
        if let Some(auditor) = self.auditor {
            let charged_raw: Vec<Option<Vec<f64>>> = self
                .queues
                .iter()
                .map(|q| q.charged_raw().map(<[f64]>::to_vec))
                .collect();
            result.audit = Some(auditor.finalize(&result, &self.outages, &charged_raw));
        }
        result.streaming = self.streaming;
        result
    }

    /// Emit queue samples for all machines up to `now_s`. Also called
    /// before any externally-triggered state change (cancellation) so a
    /// sample instant that already passed is recorded against the state
    /// that actually held at that instant.
    fn emit_samples_until(&mut self, now_s: f64) {
        if self.sample_interval_s <= 0.0 {
            return;
        }
        // The k-th sample instant is derived as k * interval rather than
        // by repeated float addition: over a 2-year, 6-hour campaign the
        // accumulated `+=` error drifts the grid and can skip or
        // duplicate a tick (non-representable intervals drift fastest).
        loop {
            let sample_s = self.next_sample_tick as f64 * self.sample_interval_s;
            if sample_s > now_s {
                break;
            }
            for (m, queue) in self.queues.iter().enumerate() {
                let pending = queue.len() + usize::from(self.executing[m].is_some());
                self.result.queue_samples.push(QueueSample {
                    time_s: sample_s,
                    machine: m,
                    pending,
                });
            }
            self.next_sample_tick += 1;
        }
    }

    /// A job's submission time has been reached: enqueue it on its
    /// machine, schedule its patience, and dispatch if the machine is
    /// idle.
    fn admit(&mut self, handle: u32, now_s: f64) {
        let spec = self.slab.spec(handle);
        let machine = spec.machine;
        let item = QItem {
            handle,
            provider: spec.provider,
            id: spec.id,
            submit_s: spec.submit_s,
        };
        let patience_s = spec.patience_s;
        let (circuits, mean_depth, shots) = (spec.circuits, spec.mean_depth, spec.shots);
        let pending = self.queue_depth(machine);
        self.slab.set_pending(handle, pending as u32);
        if patience_s.is_finite() {
            self.events.push(
                item.submit_s + patience_s,
                EventKind::CancelCheck {
                    handle,
                    generation: self.slab.generation(handle),
                },
            );
        }
        let cost = self.fleet.machines()[machine].cost_model();
        self.queues[machine].push(item, || {
            cost.job_time_uniform_s(circuits, mean_depth.round().max(1.0) as usize, shots)
        });
        if self.executing[machine].is_none() {
            self.start_next(machine, now_s);
        }
    }

    fn process_event(&mut self, time_s: f64, kind: EventKind) {
        match kind {
            EventKind::Completion { machine } => {
                let machine = machine as usize;
                let Some(done) = self.executing[machine].take() else {
                    unreachable!("completion event without an executing job")
                };
                let (spec, pending) = self.slab.release(done.handle);
                // Charge at the completion time so usage decays to
                // "now" before the executed seconds land.
                self.queues[machine].charge(spec.provider, done.end_s - done.start_s, done.end_s);
                self.finish(JobRecord {
                    id: spec.id,
                    provider: spec.provider,
                    machine,
                    circuits: spec.circuits,
                    shots: spec.shots,
                    mean_width: spec.mean_width,
                    mean_depth: spec.mean_depth,
                    is_study: spec.is_study,
                    submit_s: spec.submit_s,
                    start_s: done.start_s,
                    end_s: done.end_s,
                    outcome: done.outcome,
                    pending_at_submit: pending as usize,
                    crossed_calibration: done.crossed,
                });
                self.start_next(machine, time_s);
            }
            EventKind::Resume { machine } => {
                let machine = machine as usize;
                self.resume_scheduled[machine] = false;
                if self.executing[machine].is_none() {
                    self.start_next(machine, time_s);
                }
            }
            EventKind::CancelCheck { handle, generation } => {
                // A bumped generation means the job already reached a
                // terminal state (and the slot may have been recycled):
                // the event is stale.
                if self.slab.generation(handle) != generation {
                    return;
                }
                let spec = self.slab.spec(handle);
                let (machine, provider, id) = (spec.machine, spec.provider, spec.id);
                // Still a live handle but possibly executing, in which
                // case it is not in the queue and not cancellable.
                if self.queues[machine].remove_for_provider(provider, id).is_some() {
                    let (spec, pending) = self.slab.release(handle);
                    self.finish(cancelled_record(&spec, machine, time_s, pending));
                }
            }
        }
    }

    /// Record a terminal job state: aggregates always, the full record
    /// subject to background sampling. The auditor (when enabled) observes
    /// every record *before* sampling can drop it.
    fn finish(&mut self, record: JobRecord) {
        if let Some(statuses) = self.statuses.as_mut() {
            let status = match record.outcome {
                JobOutcome::Completed => JobStatus::Completed,
                JobOutcome::Errored => JobStatus::Errored,
                JobOutcome::Cancelled => JobStatus::Cancelled,
            };
            statuses.insert(record.id, status);
        }
        if let Some(a) = self.auditor.as_mut() {
            a.observe(&record);
        }
        if let Some(tap) = self.tap.as_mut() {
            tap(&record);
        }
        self.result.total_jobs += 1;
        let slot = match record.outcome {
            JobOutcome::Completed => 0,
            JobOutcome::Errored => 1,
            JobOutcome::Cancelled => 2,
        };
        self.result.outcome_counts[slot] += 1;
        if record.outcome != JobOutcome::Cancelled {
            let day = day_bin(record.end_s);
            if self.result.daily_executions.len() <= day {
                self.result.daily_executions.resize(day + 1, 0);
            }
            self.result.daily_executions[day] += record.executions();
            self.executed_s_by_provider[record.provider as usize] += record.exec_time_s();
        }
        if let Some(aggregates) = self.streaming.as_mut() {
            // Streaming sink: every record (no background sampling — the
            // sketches cover the whole population) folds into O(1) state
            // and is dropped.
            aggregates.fold(&record);
            return;
        }
        let keep = record.is_study
            || self.config.background_record_divisor <= 1
            || record.id.is_multiple_of(self.config.background_record_divisor);
        if keep {
            self.result.records.push(record);
        }
    }

    /// Dispatch the next queued job on `machine`, respecting outages.
    fn start_next(&mut self, machine: usize, now_s: f64) {
        // An empty queue has nothing to dispatch and, if the machine is
        // down, nothing to resume for.
        if self.queues[machine].is_empty() {
            return;
        }
        // A machine in maintenance dispatches nothing until the window
        // ends; queued jobs keep waiting. The clock never goes back, so
        // the machine's cursor only moves forward.
        let cursor = &mut self.outage_cursors[machine];
        if let Some(until_s) = self.outages.down_until_from(machine, now_s, cursor) {
            if !self.resume_scheduled[machine] {
                self.resume_scheduled[machine] = true;
                self.events.push(
                    until_s,
                    EventKind::Resume {
                        machine: machine as u32,
                    },
                );
            }
            return;
        }
        let Some(item) = self.queues[machine].pop(now_s) else {
            return;
        };
        let spec = self.slab.spec(item.handle);
        let m = &self.fleet.machines()[machine];
        let base = m.cost_model().job_time_uniform_s(
            spec.circuits,
            spec.mean_depth.round().max(1.0) as usize,
            spec.shots,
        );
        let submit_s = spec.submit_s;
        let job_id = spec.id;
        let noisy = base * self.exec_noise.sample(&mut self.rng);
        let (outcome, duration) = if self.rng.gen_range(0.0..1.0) < self.config.error_rate {
            // Errored jobs die partway through their execution.
            (JobOutcome::Errored, noisy * self.rng.gen_range(0.05..0.8))
        } else {
            (JobOutcome::Completed, noisy)
        };
        let end_s = now_s + duration;
        // A job's results are stale if a calibration ran anywhere between
        // submission (= compile time) and the *end* of execution: a
        // boundary crossed mid-run invalidates the results just the same
        // as one crossed while queued (paper Fig 12a). Checking against
        // the dispatch time would systematically miss long jobs.
        let crossed = m.schedule().crossover(submit_s / 3600.0, end_s / 3600.0);
        self.events.push(
            end_s,
            EventKind::Completion {
                machine: machine as u32,
            },
        );
        if let Some(statuses) = self.statuses.as_mut() {
            statuses.insert(job_id, JobStatus::Running);
        }
        self.executing[machine] = Some(Executing {
            handle: item.handle,
            start_s: now_s,
            end_s,
            outcome,
            crossed,
        });
    }
}

/// A cancellation record at `time_s` (start == end, no execution).
fn cancelled_record(spec: &JobSpec, machine: usize, time_s: f64, pending: u32) -> JobRecord {
    JobRecord {
        id: spec.id,
        provider: spec.provider,
        machine,
        circuits: spec.circuits,
        shots: spec.shots,
        mean_width: spec.mean_width,
        mean_depth: spec.mean_depth,
        is_study: spec.is_study,
        submit_s: spec.submit_s,
        start_s: time_s,
        end_s: time_s,
        outcome: JobOutcome::Cancelled,
        pending_at_submit: pending as usize,
        crossed_calibration: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    fn job(id: u64, machine: usize, submit: f64) -> JobSpec {
        JobSpec {
            id,
            provider: (id % 4) as u32,
            machine,
            circuits: 5,
            shots: 1024,
            mean_depth: 20.0,
            mean_width: 3.0,
            submit_s: submit,
            is_study: true,
            patience_s: f64::INFINITY,
        }
    }

    fn live() -> LiveCloud {
        LiveCloud::new(Fleet::ibm_like(), CloudConfig::default())
    }

    #[test]
    fn submit_validates_machine_provider_and_clock() {
        let mut cloud = live();
        let mut bad_machine = job(0, 99, 0.0);
        bad_machine.machine = 99;
        assert!(matches!(
            cloud.submit(bad_machine),
            Err(SubmitError::UnknownMachine { job: 0, machine: 99 })
        ));
        let mut bad_provider = job(1, 1, 0.0);
        bad_provider.provider = 500;
        assert!(matches!(
            cloud.submit(bad_provider),
            Err(SubmitError::UnknownProvider { job: 1, provider: 500 })
        ));
        cloud.step_until(100.0);
        let err = cloud.submit(job(2, 1, 50.0)).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::SubmitInPast { job: 2, floor_s, .. } if floor_s == 100.0
        ));
        assert!(err.to_string().contains("at 50 s, before 100 s"), "{err}");
    }

    #[test]
    fn submit_rejects_out_of_order_arrivals() {
        // Arrivals are a FIFO: a job submitted behind a pending arrival
        // with a later submission time is refused, clock or no clock.
        let mut cloud = live().with_status_tracking();
        cloud.submit(job(0, 1, 100.0)).unwrap();
        let err = cloud.submit(job(1, 2, 60.0)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::SubmitInPast {
                job: 1,
                submit_s: 60.0,
                floor_s: 100.0
            }
        );
        assert!(err.to_string().contains("last pending arrival"), "{err}");
        assert_eq!(cloud.status(1), None, "a refused job leaves no trace");
        assert_eq!(cloud.pending_arrivals(), 1);
        // A tie is in order: admitted, and it arrives second.
        cloud.submit(job(2, 1, 100.0)).unwrap();
        assert_eq!(cloud.pending_arrivals(), 2);
        cloud.step_until(100.0);
        assert_eq!(cloud.status(0), Some(JobStatus::Running));
        assert_eq!(cloud.status(2), Some(JobStatus::Queued));
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert_eq!(result.total_jobs, 2);
        let start = |id| result.records.iter().find(|r| r.id == id).unwrap().start_s;
        assert!(start(0) < start(2), "the tie arrived second");
    }

    #[test]
    fn submit_rejects_non_finite_submit_time() {
        // Regression: an `inf` or NaN submission time was accepted, and
        // draining the run then pushed queue samples forever.
        let mut cloud = live();
        for (id, submit_s) in [(0, f64::INFINITY), (1, f64::NAN), (2, f64::NEG_INFINITY)] {
            let err = cloud.submit(job(id, 1, submit_s)).unwrap_err();
            assert!(
                matches!(err, SubmitError::NonFiniteSubmit { job, .. } if job == id),
                "{err}"
            );
        }
        assert_eq!(cloud.pending_arrivals(), 0);
        cloud.run_to_completion();
        assert_eq!(cloud.total_jobs(), 0);
    }

    #[test]
    fn submit_rejects_negative_or_nan_patience() {
        // Regression: a negative patience was accepted and cancelled the
        // job before it was submitted, which the audit flags.
        let config = CloudConfig {
            audit: true,
            ..CloudConfig::default()
        };
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        for (id, patience_s) in [(0, -5.0), (1, f64::NAN)] {
            let mut j = job(id, 1, 10.0);
            j.patience_s = patience_s;
            let err = cloud.submit(j).unwrap_err();
            assert!(
                matches!(err, SubmitError::InvalidPatience { job, .. } if job == id),
                "{err}"
            );
            assert!(err.to_string().contains("must be >= 0"));
        }
        // Zero patience is the boundary and is admitted.
        let mut zero = job(2, 1, 10.0);
        zero.patience_s = 0.0;
        cloud.submit(zero).unwrap();
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert_eq!(result.total_jobs, 1);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn step_until_is_monotone_and_lazy() {
        let mut cloud = live();
        cloud.submit(job(0, 1, 50.0)).unwrap();
        cloud.step_until(10.0);
        assert_eq!(cloud.now_s(), 10.0);
        assert_eq!(cloud.queue_depth(1), 0, "job not yet arrived");
        cloud.step_until(5.0); // backwards: no-op
        assert_eq!(cloud.now_s(), 10.0);
        cloud.step_until(50.0);
        assert_eq!(cloud.queue_depth(1), 1, "arrived and dispatched");
        cloud.run_to_completion();
        assert_eq!(cloud.queue_depth(1), 0);
        assert_eq!(cloud.total_jobs(), 1);
    }

    #[test]
    fn status_tracking_follows_lifecycle() {
        let mut cloud = live().with_status_tracking();
        cloud.submit(job(0, 1, 0.0)).unwrap();
        cloud.submit(job(1, 1, 1.0)).unwrap();
        assert_eq!(cloud.status(0), Some(JobStatus::Queued));
        cloud.step_until(1.0);
        assert_eq!(cloud.status(0), Some(JobStatus::Running));
        assert_eq!(cloud.status(1), Some(JobStatus::Queued));
        assert_eq!(cloud.status(7), None);
        cloud.run_to_completion();
        let s0 = cloud.status(0).unwrap();
        assert!(s0 == JobStatus::Completed || s0 == JobStatus::Errored);
    }

    #[test]
    fn status_untracked_by_default() {
        let mut cloud = live();
        cloud.submit(job(0, 1, 0.0)).unwrap();
        cloud.step_until(0.0);
        assert_eq!(cloud.status(0), None);
    }

    #[test]
    fn record_tap_sees_every_terminal_record_under_any_sink() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        for sink in [
            RecordSink::Exact,
            RecordSink::Streaming {
                reservoir_capacity: 16,
                reservoir_seed: 1,
            },
        ] {
            let config = CloudConfig {
                record_sink: sink,
                ..CloudConfig::default()
            };
            let seen = Arc::new(AtomicU64::new(0));
            let tap_seen = Arc::clone(&seen);
            let mut cloud = LiveCloud::new(Fleet::ibm_like(), config)
                .with_record_tap(Box::new(move |record: &JobRecord| {
                    assert!(record.end_s >= record.submit_s);
                    tap_seen.fetch_add(1, Ordering::SeqCst);
                }));
            for i in 0..20 {
                cloud.submit(job(i, (i % 3) as usize, i as f64)).unwrap();
            }
            // Cancel one while queued: the tap must see cancellations too.
            cloud.step_until(19.0);
            assert!(cloud.cancel(19), "job 19 should be queued and cancellable");
            cloud.run_to_completion();
            assert_eq!(cloud.total_jobs(), 20);
            assert_eq!(
                seen.load(Ordering::SeqCst),
                20,
                "tap missed records under {sink:?}"
            );
        }
    }

    #[test]
    fn cancel_queued_job_records_cancellation() {
        let config = CloudConfig {
            error_rate: 0.0,
            audit: true,
            ..CloudConfig::default()
        };
        let mut cloud =
            LiveCloud::new(Fleet::ibm_like(), config).with_status_tracking();
        let mut blocker = job(0, 1, 0.0);
        blocker.circuits = 900;
        blocker.shots = 8192;
        cloud.submit(blocker).unwrap();
        cloud.submit(job(1, 1, 1.0)).unwrap();
        cloud.step_until(30.0);
        assert_eq!(cloud.queue_depth(1), 2);
        assert!(cloud.cancel(1), "queued job is cancellable");
        assert!(!cloud.cancel(1), "already terminal");
        assert!(!cloud.cancel(0), "running job is not cancellable");
        assert!(!cloud.cancel(99), "unknown job");
        assert_eq!(cloud.status(1), Some(JobStatus::Cancelled));
        assert_eq!(cloud.queue_depth(1), 1);
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert_eq!(result.outcome_counts, [1, 0, 1]);
        let r = result.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(r.outcome, JobOutcome::Cancelled);
        assert_eq!(r.start_s, 30.0);
        assert_eq!(r.end_s, 30.0);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn cancel_before_arrival_leaves_no_record() {
        let mut cloud = live().with_status_tracking();
        cloud.submit(job(0, 1, 500.0)).unwrap();
        assert!(cloud.cancel(0));
        assert_eq!(cloud.status(0), Some(JobStatus::Cancelled));
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert_eq!(result.total_jobs, 0, "job never entered the service");
        assert!(result.records.is_empty());
    }

    #[test]
    fn cancel_between_samples_keeps_audit_clean() {
        // A sample instant passes with the job queued; the API cancel
        // lands later, between occurrences. The retro-emitted sample must
        // reflect the pre-cancel state or the audit reconstruction fails.
        let config = CloudConfig {
            error_rate: 0.0,
            audit: true,
            sample_interval_hours: 0.01, // 36 s
            ..CloudConfig::default()
        };
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        let mut blocker = job(0, 1, 0.0);
        blocker.circuits = 900;
        blocker.shots = 8192;
        cloud.submit(blocker).unwrap();
        cloud.submit(job(1, 1, 1.0)).unwrap();
        cloud.step_until(60.0); // past the 36 s sample... if an event fell there
        assert!(cloud.cancel(1));
        cloud.run_to_completion();
        let result = cloud.into_result();
        result.audit.as_ref().unwrap().assert_clean();
        assert!(!result.queue_samples.is_empty());
    }

    #[test]
    fn fair_share_state_visible_live() {
        let mut cloud = live();
        assert_eq!(cloud.charged_seconds_by_provider(), vec![0.0; 40]);
        cloud.submit(job(0, 1, 0.0)).unwrap();
        cloud.run_to_completion();
        let charged = cloud.charged_seconds_by_provider();
        assert!(charged[0] > 0.0, "provider 0 was charged");
        assert!(charged[1..].iter().all(|&c| c == 0.0));
        let mut fifo = LiveCloud::new(
            Fleet::ibm_like(),
            CloudConfig {
                discipline: crate::Discipline::Fifo,
                ..CloudConfig::default()
            },
        );
        fifo.submit(job(0, 1, 0.0)).unwrap();
        fifo.run_to_completion();
        assert_eq!(fifo.total_jobs(), 1);
        assert_eq!(
            fifo.charged_seconds_by_provider(),
            vec![0.0; 40],
            "no usage accounting"
        );
    }

    #[test]
    fn interleaved_submission_matches_batch() {
        // Submit jobs one at a time, stepping between submissions; the
        // result must be bit-identical to the batch replay of the full
        // trace. (The property test covers random schedules; this is the
        // deterministic smoke version.)
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| job(i, (i % 3) as usize + 1, i as f64 * 40.0))
            .collect();
        let config = CloudConfig {
            audit: true,
            sample_interval_hours: 0.05,
            ..CloudConfig::default()
        };
        let batch = Simulation::new(Fleet::ibm_like(), config).run(jobs.clone());
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        for j in jobs {
            let submit_s = j.submit_s;
            cloud.submit(j).unwrap();
            cloud.step_until(submit_s + 13.0);
        }
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert_eq!(batch.records, result.records);
        assert_eq!(batch.queue_samples, result.queue_samples);
        assert_eq!(batch.total_jobs, result.total_jobs);
        assert_eq!(batch.outcome_counts, result.outcome_counts);
        assert_eq!(batch.daily_executions, result.daily_executions);
        result.audit.as_ref().unwrap().assert_clean();
    }

    #[test]
    fn packed_key_roundtrips_and_orders_like_total_cmp() {
        let times = [0.0, 1e-300, 1.5, 86_400.0, 1e18, f64::INFINITY, -0.0, -3.5];
        for &t in &times {
            assert_eq!(key_time(key_of(t, 7)).to_bits(), t.to_bits());
        }
        let mut by_key = times;
        by_key.sort_by_key(|&t| sign_fold(t));
        let mut by_cmp = times;
        by_cmp.sort_by(f64::total_cmp);
        assert_eq!(by_key.map(f64::to_bits), by_cmp.map(f64::to_bits));
        // Equal times order by sequence number.
        assert!(key_of(5.0, 1) < key_of(5.0, 2));
        assert!(key_of(5.0, u64::MAX) < key_of(5.000_000_1, 0));
    }

    #[test]
    fn cancelled_arrival_and_queued_job_match_run_without_them() {
        // 60 jobs in ten groups of six tied submission times. Mid-run, one
        // queued job is cancelled and one not-yet-arrived job (in the
        // middle of a tie group) is unscheduled, which removes it from
        // the middle of the arrival queue. The outcome must equal the run
        // that never submitted the unscheduled job and cancelled the
        // queued one at the same instant: ties among the survivors still
        // arrive in submission order.
        const QUEUED: u64 = 16;
        const UNSCHEDULED: u64 = 40;
        let jobs: Vec<JobSpec> = (0..60)
            .map(|i| {
                let mut j = job(i, (i % 3) as usize + 1, (i / 6) as f64 * 50.0);
                j.circuits = 150; // ~40 s each: arrivals outpace service
                if i % 5 == 0 {
                    j.patience_s = 150.0;
                }
                j
            })
            .collect();
        let config = CloudConfig {
            audit: true,
            error_rate: 0.1,
            sample_interval_hours: 0.02,
            ..CloudConfig::default()
        };
        let run = |submit_unscheduled: bool| {
            let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
            for j in &jobs {
                if submit_unscheduled || j.id != UNSCHEDULED {
                    cloud.submit(j.clone()).unwrap();
                }
            }
            cloud.step_until(120.0);
            let (terminal, arrivals) = (cloud.total_jobs(), cloud.pending_arrivals());
            assert!(cloud.cancel(QUEUED), "job {QUEUED} should be queued");
            assert_eq!(cloud.total_jobs(), terminal + 1, "queued cancel leaves a record");
            assert_eq!(cloud.pending_arrivals(), arrivals);
            if submit_unscheduled {
                assert!(cloud.cancel(UNSCHEDULED), "job {UNSCHEDULED} has not arrived");
                assert_eq!(cloud.total_jobs(), terminal + 1, "unscheduling leaves none");
                assert_eq!(cloud.pending_arrivals(), arrivals - 1);
            }
            cloud.run_to_completion();
            let result = cloud.into_result();
            result.audit.as_ref().unwrap().assert_clean();
            result
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with.total_jobs, 59);
        assert!(with.outcome_counts[2] > 1, "no patience cancellations exercised");
        assert_eq!(with.records, without.records);
        assert_eq!(with.queue_samples, without.queue_samples);
        assert_eq!(with.outcome_counts, without.outcome_counts);
        assert_eq!(with.daily_executions, without.daily_executions);
    }

    #[test]
    fn sample_grid_exact_over_long_horizons() {
        // Regression: `emit_samples_until` used to advance the sample
        // clock by repeated float addition. With a non-representable
        // interval the accumulated error drifts the grid off k * interval
        // and can eventually skip or duplicate a tick. The k-th sample
        // must land at exactly `k as f64 * interval`.
        for (interval_hours, horizon_s) in [
            (6.0, 2.0 * 365.0 * 86_400.0), // the paper's 2-year campaign
            (0.001, 86_400.0),             // 3.6 s: not representable, drifts fastest
        ] {
            let config = CloudConfig {
                sample_interval_hours: interval_hours,
                ..CloudConfig::default()
            };
            let fleet = Fleet::ibm_like();
            let machines = fleet.len();
            let mut cloud = LiveCloud::new(fleet, config);
            cloud.submit(job(0, 1, horizon_s)).unwrap();
            cloud.run_to_completion();
            // Samples run to the last processed event (the completion),
            // which lands shortly after the horizon.
            let end_s = cloud.now_s();
            let result = cloud.into_result();
            let interval_s = interval_hours * 3600.0;
            let expected_ticks = (1..)
                .take_while(|&k| k as f64 * interval_s <= end_s)
                .count();
            assert_eq!(
                result.queue_samples.len(),
                expected_ticks * machines,
                "interval {interval_hours} h: tick count drifted"
            );
            for (i, sample) in result.queue_samples.iter().enumerate() {
                let k = (i / machines + 1) as f64;
                assert_eq!(
                    sample.time_s,
                    k * interval_s,
                    "sample {i} off the k * interval grid"
                );
            }
        }
    }

    #[test]
    fn streaming_sink_matches_exact_aggregates() {
        let jobs: Vec<JobSpec> = (0..60)
            .map(|i| {
                let mut j = job(i, (i % 3) as usize + 1, i as f64 * 20.0);
                if i % 5 == 0 {
                    j.patience_s = 30.0; // force some cancellations
                }
                j
            })
            .collect();
        let exact = Simulation::new(Fleet::ibm_like(), CloudConfig::default()).run(jobs.clone());
        let config = CloudConfig {
            record_sink: crate::RecordSink::streaming(7),
            ..CloudConfig::default()
        };
        let streamed = Simulation::new(Fleet::ibm_like(), config).run(jobs);

        // Whole-population aggregates are sink-independent.
        assert_eq!(streamed.total_jobs, exact.total_jobs);
        assert_eq!(streamed.outcome_counts, exact.outcome_counts);
        assert_eq!(streamed.daily_executions, exact.daily_executions);
        assert_eq!(streamed.queue_samples, exact.queue_samples);
        // Records are folded, not accumulated.
        assert!(streamed.records.is_empty());
        assert!(exact.streaming.is_none());
        let agg = streamed.streaming.as_ref().expect("streaming sink");
        assert_eq!(agg.folded(), exact.total_jobs);
        assert_eq!(agg.cancelled(), exact.outcome_counts[2]);
        // Folding happens in terminal-event order — the same order the
        // exact path stores records — so the mean is bit-identical.
        let exact_queue_times: Vec<f64> = exact
            .records
            .iter()
            .filter(|r| r.outcome != JobOutcome::Cancelled)
            .map(JobRecord::queue_time_s)
            .collect();
        assert_eq!(
            agg.queue_time().moments().count(),
            exact_queue_times.len() as u64
        );
        assert_eq!(
            agg.queue_time().moments().mean(),
            qcs_stats::mean(&exact_queue_times)
        );
    }

    #[test]
    fn streaming_sink_visible_live_and_drains_nothing() {
        let config = CloudConfig {
            record_sink: crate::RecordSink::streaming(1),
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        cloud.submit(job(0, 1, 0.0)).unwrap();
        cloud.submit(job(1, 2, 0.0)).unwrap();
        assert_eq!(cloud.pending_arrivals(), 2);
        cloud.run_to_completion();
        assert_eq!(cloud.pending_arrivals(), 0);
        assert_eq!(cloud.outcome_counts(), [2, 0, 0]);
        assert_eq!(
            cloud.streaming_aggregates().map(StreamingAggregates::folded),
            Some(2)
        );
        assert_eq!(
            cloud.records_len(),
            0,
            "streaming sink never materializes records"
        );
    }

    #[test]
    fn injected_usage_reorders_but_preserves_charged_raw() {
        let config = CloudConfig {
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        // Blocker occupies the machine while two rivals queue behind it.
        let mut blocker = job(0, 1, 0.0);
        blocker.circuits = 900;
        blocker.shots = 8192;
        cloud.submit(blocker).unwrap();
        let mut a = job(1, 1, 1.0);
        a.provider = 1;
        let mut b = job(2, 1, 2.0);
        b.provider = 2;
        cloud.submit(a).unwrap();
        cloud.submit(b).unwrap();
        cloud.step_until(10.0);
        // Provider 1 hogged another shard: locally it should now lose to
        // provider 2 despite its earlier submission.
        cloud.inject_external_usage(1, 1e6);
        cloud.run_to_completion();
        // Every job ran on machine 1, so the fleet ledger is its ledger.
        let charged = cloud.charged_seconds_by_provider();
        let result = cloud.into_result();
        let first = result
            .records
            .iter()
            .filter(|r| r.id != 0)
            .min_by(|x, y| x.start_s.total_cmp(&y.start_s))
            .expect("rivals ran");
        assert_eq!(first.provider, 2, "external usage demoted provider 1");
        // charged_raw still equals locally-executed seconds only.
        let executed: Vec<f64> = (0..3)
            .map(|p| {
                result
                    .records
                    .iter()
                    .filter(|r| r.provider == p && r.outcome != JobOutcome::Cancelled)
                    .map(JobRecord::exec_time_s)
                    .sum()
            })
            .collect();
        for p in 0..3 {
            assert!(
                (charged[p as usize] - executed[p as usize]).abs() < 1e-6,
                "provider {p}: charged {} != executed {}",
                charged[p as usize],
                executed[p as usize]
            );
        }
    }

    #[test]
    fn outage_respected_by_live_stepping() {
        let fleet = Fleet::ibm_like();
        let mut windows = vec![Vec::new(); fleet.len()];
        windows[1] = vec![(0.0, 1000.0)];
        let mut cloud = LiveCloud::new(fleet, CloudConfig::default())
            .with_outages(OutagePlan::from_windows(windows));
        cloud.submit(job(0, 1, 10.0)).unwrap();
        cloud.step_until(500.0);
        assert_eq!(cloud.queue_depth(1), 1, "queued through the outage");
        cloud.run_to_completion();
        let result = cloud.into_result();
        assert!((result.records[0].start_s - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn with_outages_resets_the_window_cursors() {
        // Three windows on machine 1 that jobs at 25, 45 and 55 s step the
        // machine's cursor past; the next plan's first window covers 150 s
        // and its fourth lies beyond it, so a cursor kept at 3 would find
        // no window and start the job at 150 s.
        let fleet = Fleet::ibm_like();
        let mut first = vec![Vec::new(); fleet.len()];
        first[1] = vec![(0.0, 10.0), (20.0, 30.0), (40.0, 50.0)];
        let mut second = vec![Vec::new(); fleet.len()];
        second[1] = vec![
            (100.0, 200.0),
            (300.0, 400.0),
            (500.0, 600.0),
            (700.0, 800.0),
        ];
        let mut cloud = LiveCloud::new(fleet, CloudConfig::default())
            .with_outages(OutagePlan::from_windows(first));
        for (id, submit_s) in [(0, 25.0), (1, 45.0), (2, 55.0)] {
            cloud.submit(job(id, 1, submit_s)).unwrap();
        }
        cloud.run_to_completion();
        assert_eq!(cloud.outage_cursors[1], 3);
        let mut cloud = cloud.with_outages(OutagePlan::from_windows(second));
        cloud.submit(job(3, 1, 150.0)).unwrap();
        cloud.run_to_completion();
        let result = cloud.into_result();
        let last = result.records.iter().find(|r| r.id == 3).unwrap();
        assert_eq!(last.start_s, 200.0);
    }

    #[test]
    fn a_stale_patience_check_does_not_drive_the_clock() {
        // Regression: a dispatched job's patience check stayed on the
        // agenda, and draining stepped the clock and the 6-hour sample
        // grid out to it: 115,725 samples for one job with patience 1e8.
        let mut cloud = live();
        let mut j = job(0, 1, 0.0);
        j.patience_s = 1e8;
        cloud.submit(j).unwrap();
        cloud.run_to_completion();
        let now_s = cloud.now_s();
        let result = cloud.into_result();
        let end_s = result.records[0].end_s;
        assert_eq!(now_s, end_s);
        assert!(
            end_s < 6.0 * 3600.0,
            "one short job: no sample instant passes"
        );
        assert!(
            result.queue_samples.is_empty(),
            "{} samples",
            result.queue_samples.len()
        );
    }

    #[test]
    fn slab_recycles_slots_across_generations() {
        // A long trace through a slab whose live set stays tiny: the slab
        // must recycle slots (bounded memory) and stale cancel events
        // against recycled slots must stay inert.
        let config = CloudConfig {
            error_rate: 0.0,
            ..CloudConfig::default()
        };
        let mut cloud = LiveCloud::new(Fleet::ibm_like(), config);
        for i in 0..200u64 {
            let mut j = job(i, 1, i as f64 * 2000.0);
            j.patience_s = 1e9; // stale CancelCheck long after completion
            cloud.submit(j).unwrap();
            cloud.step_until(i as f64 * 2000.0 + 1000.0);
        }
        cloud.run_to_completion();
        assert!(
            cloud.slab.entries.len() < 20,
            "slab grew to {} entries for a live set of ~1",
            cloud.slab.entries.len()
        );
        let result = cloud.into_result();
        assert_eq!(result.total_jobs, 200);
        assert_eq!(result.outcome_counts, [200, 0, 0]);
    }

    /// The single-heap agenda the lanes replaced, kept as their oracle:
    /// one `BinaryHeap` over every entry's packed `(time, seq)` key.
    #[derive(Default)]
    struct HeapAgenda {
        heap: BinaryHeap<HeapEntry>,
        seq: u64,
    }

    impl HeapAgenda {
        fn push(&mut self, time_s: f64, kind: EventKind) {
            self.heap.push(HeapEntry {
                key: key_of(time_s, self.seq),
                kind,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(f64, EventKind)> {
            self.heap.pop().map(|e| (key_time(e.key), e.kind))
        }
    }

    fn pop_lanes(agenda: &mut Agenda) -> Option<(f64, EventKind)> {
        let (lane, entry) = agenda.peek()?;
        agenda.pop_lane(lane);
        Some((key_time(entry.key), entry.kind))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // The three lanes pop the same `(time, kind)` sequence as one
        // heap, under random interleavings of every event kind: deadlines
        // in order, tied with the last one, out of order, and tied with a
        // service event's time in the other lane, with pops in between.
        #[test]
        fn agenda_lanes_match_single_heap_oracle(
            ops in proptest::collection::vec((0u32..9, 0u32..64, 0.0f64..1.0), 1..400),
        ) {
            let (mut lanes, mut oracle) = (Agenda::default(), HeapAgenda::default());
            // The last popped time (the clock) and the last pushed deadline.
            let (mut clock, mut deadline) = (0.0f64, 0.0f64);
            for &(op, a, x) in &ops {
                let tied = clock + f64::from(a % 4);
                let (time_s, kind) = match op {
                    0 => (clock + 100.0 * x, EventKind::Completion { machine: a }),
                    1 => (tied, EventKind::Resume { machine: a }),
                    2 => {
                        deadline = deadline.max(clock) + 10.0 * x;
                        (deadline, EventKind::CancelCheck { handle: a, generation: op })
                    }
                    3 => (deadline, EventKind::CancelCheck { handle: a, generation: op }),
                    4 => (deadline - 50.0 * x, EventKind::CancelCheck { handle: a, generation: op }),
                    5 => (tied, EventKind::CancelCheck { handle: a, generation: op }),
                    _ => {
                        let popped = pop_lanes(&mut lanes);
                        let want = oracle.pop();
                        proptest::prop_assert_eq!(
                            popped.map(|(t, k)| (t.to_bits(), k)),
                            want.map(|(t, k)| (t.to_bits(), k))
                        );
                        if let Some((t, _)) = want {
                            clock = clock.max(t);
                        }
                        continue;
                    }
                };
                lanes.push(time_s, kind);
                oracle.push(time_s, kind);
                proptest::prop_assert_eq!(lanes.len(), oracle.heap.len());
            }
            loop {
                let want = oracle.pop();
                proptest::prop_assert_eq!(
                    pop_lanes(&mut lanes).map(|(t, k)| (t.to_bits(), k)),
                    want.map(|(t, k)| (t.to_bits(), k))
                );
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
