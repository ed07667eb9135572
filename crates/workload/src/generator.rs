//! The synthetic two-year trace generator.
//!
//! Background load (the rest of the user population) is generated per
//! machine as a nonhomogeneous Poisson process whose rate is calibrated to
//! a target utilization: `rate(t) = target_utilization * growth(t) *
//! diurnal(t) * weekly(t) / E[service]`. Growth makes demand accelerate
//! over the study (paper Fig 2a); diurnal/weekly modulation creates the
//! transient overloads behind day-long queue tails (Fig 3).
//!
//! Study jobs — the instrumented subset standing in for the paper's 6 000
//! academic jobs — take their width and mean depth from real benchmark
//! circuits ([`qcs_circuit::library`]).
//!
//! Every draw comes from one `StdRng`, machine by machine, hour by hour,
//! then the study jobs. [`stream`] replays that order in two passes
//! without holding the trace: a sizing pass that only counts each job's
//! words, snapshotting the generator at each machine boundary, then hour
//! batches: every machine regenerates the hour from its snapshot into one
//! buffer, which is sorted once. [`generate`] collects the stream.

use std::cmp::Ordering;

use qcs_circuit::library;
use qcs_cloud::JobSpec;
use qcs_machine::{Fleet, Machine};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::sampler::{self, ZipfProviders};

/// Circuit family mix for study jobs: `(family, weight, seed_free)`,
/// where `seed_free` says the family's circuit has the same depth and
/// width at every seed (so [`StudyShapes`] builds it once per width).
const STUDY_FAMILIES: &[(&str, f64, bool)] = &[
    ("qft", 0.15, true),
    ("ghz", 0.15, true),
    ("bv", 0.10, false),
    ("qv", 0.10, true),
    ("rand", 0.25, false),
    ("hea", 0.15, true),
    ("adder", 0.05, true),
    ("w", 0.05, true),
];

/// Widest representative circuit a study job builds.
const STUDY_MAX_WIDTH: usize = 32;

/// `(depth, width)` of each study job's representative circuit,
/// `library::by_family(family, width, seed)`: a seed-free family's shape
/// is built once per width and kept, the others are built per job.
struct StudyShapes {
    /// Indexed `family * (STUDY_MAX_WIDTH + 1) + width`.
    seed_free: Vec<Option<(usize, usize)>>,
}

impl StudyShapes {
    fn new() -> Self {
        StudyShapes {
            seed_free: vec![None; STUDY_FAMILIES.len() * (STUDY_MAX_WIDTH + 1)],
        }
    }

    /// The shape of family `family`'s circuit at `width` (at most
    /// [`STUDY_MAX_WIDTH`]) and `seed`.
    fn shape(&mut self, family: usize, width: usize, seed: u64) -> (usize, usize) {
        let (name, _, seed_free) = STUDY_FAMILIES[family];
        let build = || {
            let circuit = library::by_family(name, width, seed).expect("study families are valid");
            (circuit.depth(), circuit.num_qubits())
        };
        if !seed_free {
            return build();
        }
        *self.seed_free[family * (STUDY_MAX_WIDTH + 1) + width].get_or_insert_with(build)
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Study duration in days (the paper covers ~730).
    pub days: f64,
    /// Number of instrumented study jobs to generate (~6000 in the paper).
    pub study_jobs: usize,
    /// Fair-share providers across the population (study jobs share hubs
    /// with everyone else).
    pub num_providers: usize,
    /// Global multiplier on background demand (1.0 = calibrated default).
    pub demand_scale: f64,
    /// End-of-study demand relative to start (e.g. 4.0 = 4x growth).
    pub growth_end_factor: f64,
    /// Fraction of users who will cancel if queued too long.
    pub impatient_fraction: f64,
    /// Mean patience of impatient users, hours.
    pub mean_patience_hours: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0,
            days: 730.0,
            study_jobs: 6000,
            num_providers: 40,
            demand_scale: 1.0,
            growth_end_factor: 3.0,
            impatient_fraction: 0.05,
            mean_patience_hours: 16.0,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for tests and examples: two weeks, light
    /// demand.
    #[must_use]
    pub fn smoke() -> Self {
        WorkloadConfig {
            days: 14.0,
            study_jobs: 400,
            ..WorkloadConfig::default()
        }
    }
}

/// The generated trace.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// All jobs (background + study), in strictly increasing
    /// `(submit_s, id)` order: by submission time, ties by id.
    pub jobs: Vec<JobSpec>,
}

impl Workload {
    /// Number of study jobs in the trace.
    #[must_use]
    pub fn num_study_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_study).count()
    }
}

/// Target mid-study utilization for each machine, encoding the demand
/// imbalance of the paper's Fig 9: public machines run near saturation,
/// privileged machines are lighter, large privileged machines are popular.
fn target_utilization(machine: &Machine, rng: &mut StdRng) -> f64 {
    (base_utilization(machine) * rng.gen_range(0.92..1.08)).clamp(0.05, 0.97)
}

/// Deterministic demand level per machine (before per-machine jitter).
/// Also reused as the popularity weight for study-job machine choice.
fn base_utilization(machine: &Machine) -> f64 {
    if machine.access().is_public() {
        match machine.name() {
            "athens" => 0.99, // "10-100x more in demand than other 5-qubit machines"
            _ => 0.96,
        }
    } else {
        match machine.num_qubits() {
            0..=9 => 0.55,
            10..=26 => 0.68,
            _ => 0.85, // 27q and 65q premium machines still see high demand
        }
    }
}

/// Expected service time per job on a machine given the sampler's mean
/// batch/shots/depth, used to convert utilization targets into arrival
/// rates.
fn expected_service_s(machine: &Machine) -> f64 {
    // Means of the mixtures in `sampler` (kept in sync by a test below).
    let mean_batch = 258.0;
    let mean_shots = 6050.0;
    let mean_depth = (15.0 + 0.3 * machine.num_qubits() as f64).round() as usize;
    machine.cost_model().job_overhead_s
        + mean_batch
            * machine
                .cost_model()
                .circuit_time_s(mean_depth, mean_shots as u32)
}

/// Demand growth over the study: exponential with `end/start =
/// end_factor`, anchored so the base level is reached a quarter of the way
/// in (demand then sits at or above base — capped — for most of the
/// study, as it did on the heavily-contended 2019-2021 IBM fleet).
fn growth_factor(t_days: f64, days: f64, end_factor: f64) -> f64 {
    if end_factor <= 1.0 {
        return 1.0;
    }
    let k = end_factor.ln() / days;
    (k * t_days).exp() / (k * 0.25 * days).exp()
}

/// Intra-day demand modulation: peak mid-afternoon, trough overnight.
fn diurnal_factor(t_hours: f64) -> f64 {
    let hour_of_day = t_hours.rem_euclid(24.0);
    1.0 + 0.50 * ((hour_of_day - 15.0) * std::f64::consts::PI / 12.0).cos()
}

/// Weekly modulation: weekends are quieter.
fn weekly_factor(t_days: f64) -> f64 {
    let day_of_week = (t_days.floor() as u64) % 7;
    if day_of_week >= 5 {
        0.60
    } else {
        1.15
    }
}

/// Generate the full trace for a fleet: [`stream`] collected into a
/// `Vec`.
///
/// Deterministic given `(fleet, config)`.
///
/// # Examples
///
/// ```
/// use qcs_machine::Fleet;
/// use qcs_workload::{generate, WorkloadConfig};
///
/// let workload = generate(&Fleet::ibm_like(), &WorkloadConfig::smoke());
/// assert!(workload.num_study_jobs() > 0);
/// assert!(workload.jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s));
/// ```
#[must_use]
pub fn generate(fleet: &Fleet, config: &WorkloadConfig) -> Workload {
    Workload {
        jobs: stream(fleet, config).collect(),
    }
}

/// Stream the trace [`generate`] returns, job for job, in strictly
/// increasing `(submit_s, id)` order, holding one hour of the fleet's
/// background jobs and the study jobs rather than the whole trace.
///
/// Every job is drawn from one `StdRng` in the order a single loop over
/// machines, hours and jobs would draw it, so the trace does not depend
/// on how it is consumed. Two passes make that streamable:
/// - a *sizing pass* runs each machine's per-hour arrival counts but
///   consumes each job's words without building it (the `skip_*` twins of
///   the samplers), and records the generator's state and the next job id
///   where each machine's draws begin; the study jobs are drawn from the
///   state it ends in;
/// - an *emitting pass* goes hour by hour: every machine regenerates the
///   hour from its own snapshot into one buffer, the study jobs due
///   before the hour's end join it, and the buffer is sorted once.
///
/// # Panics
///
/// Panics naming the machine if its last hour ends on a different
/// generator state or job id than the sizing pass recorded for the next
/// machine: a sampler and its skip twin drew different numbers of words.
///
/// # Examples
///
/// ```
/// use qcs_machine::Fleet;
/// use qcs_workload::{generate, stream, WorkloadConfig};
///
/// let fleet = Fleet::ibm_like();
/// let config = WorkloadConfig { days: 1.0, study_jobs: 20, ..WorkloadConfig::default() };
/// assert!(stream(&fleet, &config).eq(generate(&fleet, &config).jobs));
/// ```
pub fn stream<'f>(fleet: &'f Fleet, config: &WorkloadConfig) -> impl Iterator<Item = JobSpec> + 'f {
    let boundaries = size_machines(fleet, config);
    let providers = ZipfProviders::new(config.num_providers);
    let Boundary { mut rng, next_id } = boundaries[fleet.len()].clone();
    let study = study_jobs(fleet, config, &providers, &mut rng, next_id);
    let mut machines: Vec<MachineJobs<'f>> = fleet
        .iter()
        .enumerate()
        .zip(boundaries.windows(2))
        .map(|((index, machine), pair)| {
            MachineJobs::new(index, machine, *config, pair[0].clone(), pair[1].clone())
        })
        .collect();
    let draw_hour = move |_, batch: &mut Vec<JobSpec>| {
        for machine in &mut machines {
            machine.draw_hour(batch, &providers);
        }
    };
    HourBatches::new(total_hours(config), study, draw_hour)
}

/// `(submit_s, id)`: the trace's order. Ids are unique, so it is total.
fn by_submit_then_id(a: &JobSpec, b: &JobSpec) -> Ordering {
    a.submit_s.total_cmp(&b.submit_s).then(a.id.cmp(&b.id))
}

/// Where a machine's draws begin (or, after the last machine, where the
/// study jobs' draws begin): the generator's state and the next job id.
#[derive(Clone)]
struct Boundary {
    rng: StdRng,
    next_id: u64,
}

/// The sizing pass: the boundary before each machine's draws, then the
/// one after the last machine's.
fn size_machines(fleet: &Fleet, config: &WorkloadConfig) -> Vec<Boundary> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut next_id = 0;
    let mut boundaries = Vec::with_capacity(fleet.len() + 1);
    for machine in fleet.iter() {
        boundaries.push(Boundary {
            rng: rng.clone(),
            next_id,
        });
        let demand = Demand::draw(machine, config, &mut rng);
        for hour in 0..demand.total_hours {
            let n = demand.arrivals(hour, config, &mut rng);
            for _ in 0..n {
                skip_background_job(machine, config, &mut rng);
            }
            next_id += n;
        }
    }
    boundaries.push(Boundary { rng, next_id });
    boundaries
}

/// The number of hours every machine draws arrivals for.
fn total_hours(config: &WorkloadConfig) -> u64 {
    (config.days * 24.0).ceil() as u64
}

/// A machine's background demand, drawn where its draws begin.
struct Demand {
    rho: f64,
    base_rate_per_hour: f64,
    saturation_cap: f64,
    total_hours: u64,
}

impl Demand {
    fn draw(machine: &Machine, config: &WorkloadConfig, rng: &mut StdRng) -> Self {
        let rho = target_utilization(machine, rng) * config.demand_scale;
        let service = expected_service_s(machine);
        Demand {
            rho,
            base_rate_per_hour: rho * 3600.0 / service,
            // Demand saturates per machine: popular machines can run much
            // closer to capacity than lightly-used hub machines, whose
            // member population bounds their demand. Without a cap the
            // busiest queues diverge; real users flee unbounded backlogs.
            saturation_cap: (rho + 0.6 * (1.0 - rho)).min(0.985),
            total_hours: total_hours(config),
        }
    }

    /// Draw the number of jobs submitted during `hour`.
    fn arrivals(&self, hour: u64, config: &WorkloadConfig, rng: &mut StdRng) -> u64 {
        let t_hours = hour as f64;
        let t_days = t_hours / 24.0;
        let grown = (self.rho * growth_factor(t_days, config.days, config.growth_end_factor))
            .min(self.saturation_cap);
        let rate = grown / self.rho.max(1e-9)
            * self.base_rate_per_hour
            * diurnal_factor(t_hours)
            * weekly_factor(t_days);
        sampler::poisson(rng, rate)
    }
}

/// One machine's background jobs, regenerated an hour at a time from the
/// sizing pass's snapshot.
struct MachineJobs<'f> {
    index: usize,
    machine: &'f Machine,
    config: WorkloadConfig,
    demand: Demand,
    rng: StdRng,
    next_id: u64,
    /// The next hour to draw.
    hour: u64,
    /// The sizing pass's boundary after this machine.
    end: Boundary,
}

impl<'f> MachineJobs<'f> {
    fn new(
        index: usize,
        machine: &'f Machine,
        config: WorkloadConfig,
        start: Boundary,
        end: Boundary,
    ) -> Self {
        let Boundary { mut rng, next_id } = start;
        let demand = Demand::draw(machine, &config, &mut rng);
        MachineJobs {
            index,
            machine,
            config,
            demand,
            rng,
            next_id,
            hour: 0,
            end,
        }
    }

    /// Append the next hour's jobs to `batch` in draw order; after the
    /// last hour, check that the draws ended where the sizing pass said.
    fn draw_hour(&mut self, batch: &mut Vec<JobSpec>, providers: &ZipfProviders) {
        let n = self.demand.arrivals(self.hour, &self.config, &mut self.rng);
        for _ in 0..n {
            batch.push(background_job(
                self.next_id,
                self.index,
                self.machine,
                self.hour,
                &self.config,
                providers,
                &mut self.rng,
            ));
            self.next_id += 1;
        }
        self.hour += 1;
        if self.hour == self.demand.total_hours {
            assert!(
                self.rng == self.end.rng && self.next_id == self.end.next_id,
                "machine {} ({}): the emitting pass ended at job id {} and the sizing \
                 pass at {}, or on another generator state: a sampler and its skip \
                 twin draw different numbers of words",
                self.index,
                self.machine.name(),
                self.next_id,
                self.end.next_id,
            );
        }
    }
}

/// The emitting pass: the trace an hour at a time, each hour's batch
/// sorted once by `(submit_s, id)` and handed out in that order.
///
/// Hour `h`'s batch is the jobs carried over from hour `h - 1`, every
/// machine's draws for the hour (`draw_hour`) and the study jobs due
/// before `(h + 1)` hours. A background job of hour `h` lies in
/// `[h, h + 1]` hours, so every job of a later hour, and every study job
/// not yet due, is at or after the hour's end. Only the jobs before the
/// end are handed out: a job that rounds to exactly the end can tie with
/// a later hour's job of lower id, so it is carried into the next batch.
/// After the last hour the carry and the study jobs left (any at exactly
/// the study's end) form one final batch.
struct HourBatches<D> {
    draw_hour: D,
    hours: u64,
    /// The next hour to draw.
    hour: u64,
    /// Study jobs not yet batched, in descending `(submit_s, id)` order.
    study: Vec<JobSpec>,
    /// The current batch in descending `(submit_s, id)` order: the jobs
    /// before `end_s` are handed out from its tail, and the carry stays.
    batch: Vec<JobSpec>,
    /// The current batch's end, or infinity once the final batch is in.
    end_s: f64,
}

impl<D: FnMut(u64, &mut Vec<JobSpec>)> HourBatches<D> {
    fn new(hours: u64, mut study: Vec<JobSpec>, draw_hour: D) -> Self {
        study.sort_unstable_by(|a, b| by_submit_then_id(b, a));
        HourBatches {
            draw_hour,
            hours,
            hour: 0,
            study,
            batch: Vec::new(),
            end_s: 0.0,
        }
    }

    /// Add the next hour (or the final batch) and sort.
    fn refill(&mut self) {
        if self.hour == self.hours {
            self.end_s = f64::INFINITY;
            self.batch.append(&mut self.study);
        } else {
            self.end_s = (self.hour + 1) as f64 * 3600.0;
            (self.draw_hour)(self.hour, &mut self.batch);
            let end_s = self.end_s;
            while let Some(job) = self.study.pop_if(|job| job.submit_s < end_s) {
                self.batch.push(job);
            }
            self.hour += 1;
        }
        self.batch.sort_unstable_by(|a, b| by_submit_then_id(b, a));
    }
}

impl<D: FnMut(u64, &mut Vec<JobSpec>)> Iterator for HourBatches<D> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        loop {
            let end_s = self.end_s;
            if let Some(job) = self.batch.pop_if(|job| job.submit_s < end_s) {
                return Some(job);
            }
            if end_s == f64::INFINITY {
                return None;
            }
            self.refill();
        }
    }
}

/// The study jobs, drawn from the generator state after every machine's
/// background draws, ids from `first_id` in draw order.
fn study_jobs(
    fleet: &Fleet,
    config: &WorkloadConfig,
    providers: &ZipfProviders,
    rng: &mut StdRng,
    first_id: u64,
) -> Vec<JobSpec> {
    let weights: Vec<f64> = fleet
        .iter()
        .map(|m| {
            // Researchers blend popularity-following (the busy machines are
            // busy because everyone picks them) with quality/size-seeking.
            let quality_bias = 1.2e-2 / m.profile().mean_cx_error.max(1e-4);
            let size_bias = 1.0 + m.num_qubits() as f64 / 30.0;
            4.0 * base_utilization(m).powi(3) + 0.5 * quality_bias * size_bias
        })
        .collect();
    let weight_total: f64 = weights.iter().sum();
    let mut shapes = StudyShapes::new();

    (first_id..first_id + config.study_jobs as u64)
        .map(|id| {
            // Submission time follows the same demand growth curve, and
            // the hour-of-day follows the diurnal work pattern (researchers
            // submit when everyone else does, which is when queues are
            // longest).
            let t_days = sample_growth_time(rng, config.days, config.growth_end_factor);
            let hour = sample_diurnal_hour(rng);
            let submit_s = (t_days.floor() + hour / 24.0).min(config.days) * 86_400.0;
            // Weighted machine choice.
            let mut pick = rng.gen_range(0.0..weight_total);
            let mut m_idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    m_idx = i;
                    break;
                }
                pick -= w;
            }
            let machine = &fleet.machines()[m_idx];
            // Study jobs queue inside an ordinary shared hub: the
            // fair-share scheduler must not hand the instrumented group a
            // fast lane.
            let provider = providers.draw(rng);
            study_job(id, m_idx, machine, provider, submit_s, &mut shapes, rng)
        })
        .collect()
}

/// Rejection-sample an hour-of-day from the diurnal demand profile.
fn sample_diurnal_hour(rng: &mut StdRng) -> f64 {
    loop {
        let h = rng.gen_range(0.0..24.0);
        let accept = diurnal_factor(h) / 1.50; // peak value of the profile
        if rng.gen_range(0.0..1.0) < accept {
            return h;
        }
    }
}

/// Inverse-CDF sample of a time in `[0, days]` under exponential demand
/// growth.
fn sample_growth_time(rng: &mut StdRng, days: f64, end_factor: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    if end_factor <= 1.0 {
        return u * days;
    }
    let k = end_factor.ln() / days;
    (1.0 + u * (end_factor - 1.0)).ln() / k
}

/// Draw one background job submitted during `hour`.
fn background_job(
    id: u64,
    machine_idx: usize,
    machine: &Machine,
    hour: u64,
    config: &WorkloadConfig,
    providers: &ZipfProviders,
    rng: &mut StdRng,
) -> JobSpec {
    let submit_s = (hour as f64 + rng.gen_range(0.0..1.0)) * 3600.0;
    let width = sampler::width(rng, machine.num_qubits());
    let depth = 5.0 + 1.6 * width as f64 + rng.gen_range(0.0..10.0);
    let patience_s = if rng.gen_range(0.0..1.0) < config.impatient_fraction {
        qcs_calibration::distributions::lognormal_with_cov(
            rng,
            config.mean_patience_hours * 3600.0,
            PATIENCE_COV,
        )
    } else {
        f64::INFINITY
    };
    JobSpec {
        id,
        provider: providers.draw(rng),
        machine: machine_idx,
        circuits: sampler::batch_size(rng, machine.max_batch_size() as u32),
        shots: sampler::shots(rng, machine.max_shots()),
        mean_depth: depth,
        mean_width: width as f64,
        submit_s,
        is_study: false,
        patience_s,
    }
}

/// Consume exactly the words [`background_job`] draws, in its order,
/// evaluating only the draws that decide how many words follow.
fn skip_background_job(machine: &Machine, config: &WorkloadConfig, rng: &mut StdRng) {
    rng.next_u64(); // submission offset within the hour
    sampler::skip_width(rng, machine.num_qubits());
    rng.next_u64(); // depth jitter
    if rng.gen_range(0.0..1.0) < config.impatient_fraction {
        qcs_calibration::distributions::skip_lognormal_with_cov(rng, PATIENCE_COV);
    }
    rng.next_u64(); // provider
    sampler::skip_batch_size(rng);
    sampler::skip_shots(rng);
}

/// Coefficient of variation of an impatient user's patience.
const PATIENCE_COV: f64 = 1.0;

/// Build one study job whose width and mean depth derive from a real
/// benchmark circuit of the chosen family.
fn study_job(
    id: u64,
    machine_idx: usize,
    machine: &Machine,
    provider: u32,
    submit_s: f64,
    shapes: &mut StudyShapes,
    rng: &mut StdRng,
) -> JobSpec {
    // Family choice.
    let total_w: f64 = STUDY_FAMILIES.iter().map(|(_, w, _)| w).sum();
    let mut pick = rng.gen_range(0.0..total_w);
    let mut fam_idx = 0;
    for (i, (_, w, _)) in STUDY_FAMILIES.iter().enumerate() {
        if pick < *w {
            fam_idx = i;
            break;
        }
        pick -= w;
    }

    let width = sampler::width(rng, machine.num_qubits()).min(STUDY_MAX_WIDTH);
    // Drawn for every family, seed-free or not, so the stream is the same.
    let (depth, representative_width) = shapes.shape(fam_idx, width, rng.gen());
    let representative_depth = depth as f64;

    let batch = sampler::batch_size(rng, machine.max_batch_size() as u32);
    let shots = sampler::shots(rng, machine.max_shots());

    let mut depth_sum = 0.0;
    for _ in 0..batch {
        // Circuits within a batch are close variants of the representative.
        let jitter = rng.gen_range(0.9..1.1);
        let depth = (representative_depth * jitter).round().max(1.0) as u32;
        depth_sum += f64::from(depth);
    }

    JobSpec {
        id,
        provider,
        machine: machine_idx,
        circuits: batch,
        shots,
        mean_depth: depth_sum / f64::from(batch),
        mean_width: representative_width as f64,
        submit_s,
        is_study: true,
        patience_s: f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            days: 3.0,
            study_jobs: 40,
            ..WorkloadConfig::default()
        }
    }

    /// The materialise-and-sort generator the stream replaced: one loop
    /// over machines, hours and jobs on one generator, then the study
    /// jobs, then one sort of the whole trace by `(submit_s, id)`.
    fn generate_oracle(fleet: &Fleet, config: &WorkloadConfig) -> Vec<JobSpec> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let providers = ZipfProviders::new(config.num_providers);
        let mut jobs = Vec::new();
        let mut next_id = 0u64;
        for (m_idx, machine) in fleet.iter().enumerate() {
            let demand = Demand::draw(machine, config, &mut rng);
            for hour in 0..demand.total_hours {
                for _ in 0..demand.arrivals(hour, config, &mut rng) {
                    jobs.push(background_job(
                        next_id, m_idx, machine, hour, config, &providers, &mut rng,
                    ));
                    next_id += 1;
                }
            }
        }
        jobs.extend(study_jobs(fleet, config, &providers, &mut rng, next_id));
        jobs.sort_unstable_by(by_submit_then_id);
        jobs
    }

    #[test]
    fn stream_equals_the_materialising_oracle() {
        // Every value of every knob the draws depend on, each days value
        // against every impatient fraction, the two-valued knobs rotated
        // through; a fresh seed per config. Impatience 0 and 1 pin both
        // ends of the skipped patience pair; 14.5 days ends mid-day.
        let fleet = Fleet::ibm_like();
        let mut case = 0u64;
        for days in [0.3, 1.0, 14.5, 60.0] {
            for impatient_fraction in [0.0, 0.05, 1.0] {
                let bit = |k: u64| (case >> k) & 1 == 1;
                let config = WorkloadConfig {
                    seed: 0x5eed ^ case.wrapping_mul(0x9E37_79B9),
                    days,
                    impatient_fraction,
                    // The 60-day cases stay light: the oracle holds the
                    // whole trace twice in a debug build.
                    demand_scale: if bit(0) && days < 30.0 { 3.0 } else { 0.5 },
                    growth_end_factor: if bit(1) { 3.0 } else { 0.5 },
                    study_jobs: if bit(2) { 40 } else { 0 },
                    ..WorkloadConfig::default()
                };
                let oracle = generate_oracle(&fleet, &config);
                let streamed: Vec<JobSpec> = stream(&fleet, &config).collect();
                assert_eq!(streamed.len(), oracle.len(), "{config:?}");
                if let Some(i) = (0..oracle.len()).find(|&i| streamed[i] != oracle[i]) {
                    panic!(
                        "{config:?}: job {i} {:?} != oracle {:?}",
                        streamed[i], oracle[i]
                    );
                }
                case += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "machine 0 (armonk)")]
    fn emitting_stream_panics_where_it_leaves_the_sizing_pass() {
        let fleet = Fleet::ibm_like();
        let config = small_config();
        let boundaries = size_machines(&fleet, &config);
        // A sizing pass one word short for machine 0.
        let mut end = boundaries[1].clone();
        end.rng.next_u64();
        let mut machine =
            MachineJobs::new(0, &fleet.machines()[0], config, boundaries[0].clone(), end);
        let providers = ZipfProviders::new(config.num_providers);
        let mut batch = Vec::new();
        for _ in 0..total_hours(&config) {
            machine.draw_hour(&mut batch, &providers);
        }
    }

    #[test]
    fn hour_batches_hold_back_a_job_at_the_hour_end() {
        let job = |id: u64, submit_s: f64, is_study: bool| JobSpec {
            id,
            provider: 1,
            machine: 0,
            circuits: 1,
            shots: 1,
            mean_depth: 1.0,
            mean_width: 1.0,
            submit_s,
            is_study,
            patience_s: f64::INFINITY,
        };
        let bg = |id, submit_s| job(id, submit_s, false);
        let study = |id, submit_s| job(id, submit_s, true);
        // Three hours. Hour 0 draws id 7 at exactly 1 h, after id 3 drawn
        // in hour 1 by a machine that comes first in draw order: emitting
        // hour 0's batch whole would put 7 before 3. Hour 1 also rounds a
        // job to its end (2 h), hour 2 draws nothing, and the study jobs
        // sit inside hour 0, at the hour edges and at the study's end
        // (3 h, after the last hour).
        let hours: Vec<Vec<JobSpec>> = vec![
            vec![bg(7, 3600.0), bg(5, 10.0), bg(6, 3599.0)],
            vec![bg(3, 3600.0), bg(4, 7200.0), bg(8, 3600.5)],
            vec![],
        ];
        let study = vec![
            study(20, 10_800.0),
            study(21, 7200.0),
            study(22, 3600.0),
            study(23, 10.0),
        ];
        let mut drawn = Vec::new();
        let batches = HourBatches::new(3, study, |hour, batch: &mut Vec<JobSpec>| {
            drawn.push(hour);
            batch.extend(hours[hour as usize].iter().cloned());
        });
        let order: Vec<(f64, u64)> = batches.map(|j| (j.submit_s, j.id)).collect();
        assert_eq!(
            order,
            [
                (10.0, 5),
                (10.0, 23),
                (3599.0, 6),
                (3600.0, 3),
                (3600.0, 7),
                (3600.0, 22),
                (3600.5, 8),
                (7200.0, 4),
                (7200.0, 21),
                (10_800.0, 20),
            ]
        );
        assert_eq!(drawn, [0, 1, 2]);
    }

    #[test]
    fn generates_sorted_jobs() {
        let w = generate(&Fleet::ibm_like(), &small_config());
        assert!(!w.jobs.is_empty());
        assert!(w.jobs.windows(2).all(|p| p[0].submit_s <= p[1].submit_s));
    }

    #[test]
    fn order_is_submit_then_id_and_equals_stable_sort() {
        let w = generate(&Fleet::ibm_like(), &small_config());
        assert!(w.jobs.windows(2).all(|p| {
            p[0].submit_s
                .total_cmp(&p[1].submit_s)
                .then(p[0].id.cmp(&p[1].id))
                .is_lt()
        }));
        // Ids are generation order: re-sorting by id recovers the order the
        // jobs were pushed in, and a stable sort of that must agree.
        let mut stable = w.jobs.clone();
        stable.sort_unstable_by_key(|j| j.id);
        stable.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
        assert_eq!(stable, w.jobs);
    }

    #[test]
    fn study_shapes_equal_the_built_circuits() {
        // A seed-free family's first shape is kept for every later seed, so
        // this fails if any of them varies with the seed.
        let mut shapes = StudyShapes::new();
        let mut rng = StdRng::seed_from_u64(48);
        let seeds: Vec<u64> = (0..128).map(|_| rng.gen()).collect();
        for (family, &(name, _, _)) in STUDY_FAMILIES.iter().enumerate() {
            for width in 1..=STUDY_MAX_WIDTH {
                for &seed in &seeds {
                    let circuit = library::by_family(name, width, seed).unwrap();
                    assert_eq!(
                        shapes.shape(family, width, seed),
                        (circuit.depth(), circuit.num_qubits()),
                        "{name} at width {width}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn study_jobs_present_with_details() {
        let w = generate(&Fleet::ibm_like(), &small_config());
        assert_eq!(w.num_study_jobs(), 40);
        assert!(w
            .jobs
            .iter()
            .filter(|j| j.is_study)
            .all(|j| j.circuits >= 1 && j.mean_depth >= 1.0 && j.mean_width >= 1.0));
    }

    #[test]
    fn deterministic() {
        let fleet = Fleet::ibm_like();
        let a = generate(&fleet, &small_config());
        let b = generate(&fleet, &small_config());
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn ids_unique() {
        let w = generate(&Fleet::ibm_like(), &small_config());
        let mut ids: Vec<u64> = w.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.jobs.len());
    }

    #[test]
    fn public_machines_attract_more_demand() {
        let fleet = Fleet::ibm_like();
        // A statistical assertion on base demand rates (athens 0.99 vs
        // bogota 0.55): disable growth, whose saturation cap lets bogota
        // catch up over the study, and use a 10-day window so the ratio
        // converges well clear of the 1.4x threshold regardless of the
        // RNG stream.
        let config = WorkloadConfig {
            days: 10.0,
            study_jobs: 40,
            growth_end_factor: 1.0,
            ..WorkloadConfig::default()
        };
        let w = generate(&fleet, &config);
        let count = |name: &str| {
            let idx = fleet.index_of(name).unwrap();
            w.jobs.iter().filter(|j| j.machine == idx && !j.is_study).count()
        };
        // athens (public, hot, base 0.99) vs bogota (privileged 5q, 0.55).
        let athens = count("athens") as f64;
        let bogota = count("bogota").max(1) as f64;
        assert!(athens > 1.4 * bogota, "athens {athens} bogota {bogota}");
    }

    #[test]
    fn growth_increases_rate() {
        let fleet = Fleet::ibm_like();
        let config = WorkloadConfig {
            days: 20.0,
            study_jobs: 0,
            ..WorkloadConfig::default()
        };
        let w = generate(&fleet, &config);
        let first_half = w.jobs.iter().filter(|j| j.submit_s < 10.0 * 86400.0).count();
        let second_half = w.jobs.len() - first_half;
        assert!(
            second_half > first_half,
            "first {first_half} second {second_half}"
        );
    }

    #[test]
    fn growth_factor_anchored_at_first_quarter() {
        let days = 730.0;
        // Base level is reached a quarter of the way in.
        assert!((growth_factor(0.25 * days, days, 4.0) - 1.0).abs() < 1e-12);
        // End/start ratio equals the configured factor.
        let ratio = growth_factor(days, days, 4.0) / growth_factor(0.0, days, 4.0);
        assert!((ratio - 4.0).abs() < 1e-9);
        // Monotone increasing.
        assert!(growth_factor(100.0, days, 4.0) < growth_factor(600.0, days, 4.0));
    }

    #[test]
    fn diurnal_peaks_mid_afternoon() {
        assert!(diurnal_factor(15.0) > 1.4);
        assert!(diurnal_factor(3.0) < 0.6);
        // Mean over a day ~ 1.
        let mean: f64 = (0..240).map(|i| diurnal_factor(i as f64 / 10.0)).sum::<f64>() / 240.0;
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn expected_service_matches_samplers() {
        // The analytic means used for rate calibration must track the
        // samplers within ~15%; drift here silently mis-calibrates load.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let n = 40_000;
        let mean_batch: f64 = (0..n)
            .map(|_| f64::from(sampler::batch_size(&mut rng, 900)))
            .sum::<f64>()
            / n as f64;
        let mean_shots: f64 = (0..n)
            .map(|_| f64::from(sampler::shots(&mut rng, 8192)))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_batch - 258.0).abs() / 258.0 < 0.15,
            "batch mean {mean_batch}"
        );
        assert!(
            (mean_shots - 6050.0).abs() / 6050.0 < 0.15,
            "shots mean {mean_shots}"
        );
    }

    #[test]
    fn demand_scale_scales() {
        let fleet = Fleet::ibm_like();
        let base = generate(
            &fleet,
            &WorkloadConfig {
                days: 3.0,
                study_jobs: 0,
                ..WorkloadConfig::default()
            },
        );
        let light = generate(
            &fleet,
            &WorkloadConfig {
                days: 3.0,
                study_jobs: 0,
                demand_scale: 0.3,
                ..WorkloadConfig::default()
            },
        );
        assert!(
            (light.jobs.len() as f64) < 0.5 * base.jobs.len() as f64,
            "light {} base {}",
            light.jobs.len(),
            base.jobs.len()
        );
    }
}
