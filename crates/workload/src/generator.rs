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

use qcs_circuit::library;
use qcs_cloud::JobSpec;
use qcs_machine::{Fleet, Machine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sampler;

/// Circuit family mix for study jobs: `(family, weight)`.
const STUDY_FAMILIES: &[(&str, f64)] = &[
    ("qft", 0.15),
    ("ghz", 0.15),
    ("bv", 0.10),
    ("qv", 0.10),
    ("rand", 0.25),
    ("hea", 0.15),
    ("adder", 0.05),
    ("w", 0.05),
];

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

/// Generate the full trace for a fleet.
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut next_id = 0u64;

    // --- background load ------------------------------------------------
    for (m_idx, machine) in fleet.iter().enumerate() {
        let rho = target_utilization(machine, &mut rng) * config.demand_scale;
        let service = expected_service_s(machine);
        let base_rate_per_hour = rho * 3600.0 / service;
        let total_hours = (config.days * 24.0).ceil() as u64;
        // Demand saturates per machine: popular machines can run much
        // closer to capacity than lightly-used hub machines, whose member
        // population bounds their demand. Without a cap the busiest
        // queues diverge; real users flee unbounded backlogs.
        let saturation_cap = (rho + 0.6 * (1.0 - rho)).min(0.985);
        for hour in 0..total_hours {
            let t_hours = hour as f64;
            let t_days = t_hours / 24.0;
            let grown = (rho * growth_factor(t_days, config.days, config.growth_end_factor))
                .min(saturation_cap);
            let rate = grown / rho.max(1e-9)
                * base_rate_per_hour
                * diurnal_factor(t_hours)
                * weekly_factor(t_days);
            let n = sampler::poisson(&mut rng, rate);
            for _ in 0..n {
                let submit_s = (t_hours + rng.gen_range(0.0..1.0)) * 3600.0;
                jobs.push(background_job(
                    next_id, m_idx, machine, submit_s, config, &mut rng,
                ));
                next_id += 1;
            }
        }
    }

    // --- study jobs -------------------------------------------------------
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

    for _ in 0..config.study_jobs {
        // Submission time follows the same demand growth curve, and the
        // hour-of-day follows the diurnal work pattern (researchers submit
        // when everyone else does, which is when queues are longest).
        let t_days = sample_growth_time(&mut rng, config.days, config.growth_end_factor);
        let hour = sample_diurnal_hour(&mut rng);
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
        // Study jobs queue inside an ordinary shared hub: the fair-share
        // scheduler must not hand the instrumented group a fast lane.
        let provider = sampler::zipf_provider(&mut rng, config.num_providers);
        jobs.push(study_job(
            next_id, m_idx, machine, provider, submit_s, &mut rng,
        ));
        next_id += 1;
    }

    // Ids were handed out in push order, so `(submit_s, id)` is a total
    // order equal to the stable sort by `submit_s`, with no scratch buffer.
    jobs.sort_unstable_by(|a, b| a.submit_s.total_cmp(&b.submit_s).then(a.id.cmp(&b.id)));
    Workload { jobs }
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

fn background_job(
    id: u64,
    machine_idx: usize,
    machine: &Machine,
    submit_s: f64,
    config: &WorkloadConfig,
    rng: &mut StdRng,
) -> JobSpec {
    let width = sampler::width(rng, machine.num_qubits());
    let depth = 5.0 + 1.6 * width as f64 + rng.gen_range(0.0..10.0);
    let patience_s = if rng.gen_range(0.0..1.0) < config.impatient_fraction {
        qcs_calibration::distributions::lognormal_with_cov(
            rng,
            config.mean_patience_hours * 3600.0,
            1.0,
        )
    } else {
        f64::INFINITY
    };
    JobSpec {
        id,
        provider: sampler::zipf_provider(rng, config.num_providers),
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

/// Build one study job whose width and mean depth derive from a real
/// benchmark circuit of the chosen family.
fn study_job(
    id: u64,
    machine_idx: usize,
    machine: &Machine,
    provider: u32,
    submit_s: f64,
    rng: &mut StdRng,
) -> JobSpec {
    // Family choice.
    let total_w: f64 = STUDY_FAMILIES.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total_w);
    let mut fam_idx = 0;
    for (i, (_, w)) in STUDY_FAMILIES.iter().enumerate() {
        if pick < *w {
            fam_idx = i;
            break;
        }
        pick -= w;
    }
    let family = STUDY_FAMILIES[fam_idx].0;

    let width = sampler::width(rng, machine.num_qubits()).min(32);
    let representative = library::by_family(family, width, rng.gen())
        .expect("study families are valid");
    let representative_depth = representative.depth() as f64;

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
        mean_width: representative.num_qubits() as f64,
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
