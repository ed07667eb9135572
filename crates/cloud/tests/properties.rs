//! Stepping-schedule equivalence for the DES core.
//!
//! [`live_matches_batch`]: incremental stepping of [`LiveCloud`] through
//! random schedules, with jobs submitted online, equals the batch replay
//! of the same trace bit for bit — across disciplines, error rates and
//! contended traces with patience cancellations.
//!
//! The engine's implementation-independent oracle is the brute-force
//! `qcs_cloud::reference::simulate`; the root package's
//! `tests/properties.rs::des_matches_reference` matches the two on random
//! traces, outage plans, disciplines and both record sinks. The winner
//! tree's scan oracle lives with it in `src/fairshare.rs`.

use proptest::collection::vec;
use proptest::prelude::*;

use qcs_cloud::{CloudConfig, Discipline, JobSpec, LiveCloud, Simulation};
use qcs_machine::Fleet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn live_matches_batch(
        raw in vec((0u32..6, 0u32..8, 0u32..90, 0.0f64..120.0, 0u32..400), 1..80),
        discipline_sel in 0u32..3,
        error_rate in 0.0f64..0.3,
        step_jitter in vec(0.0f64..200.0, 1..40),
    ) {
        let fleet = Fleet::ibm_like();
        let mut t = 0.0f64;
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(provider, machine, circuits, gap, patience))| {
                t += gap;
                JobSpec {
                    id: i as u64,
                    provider,
                    machine: 1 + machine as usize % (fleet.len() - 1),
                    circuits: 1 + circuits % 60,
                    shots: 1024,
                    mean_depth: 5.0 + f64::from(circuits % 40),
                    mean_width: 3.0,
                    submit_s: t,
                    is_study: i % 3 == 0,
                    patience_s: match patience % 4 {
                        0 => 60.0 + f64::from(patience),
                        _ => f64::INFINITY,
                    },
                }
            })
            .collect();
        let config = CloudConfig {
            discipline: match discipline_sel {
                0 => Discipline::default(),
                1 => Discipline::Fifo,
                _ => Discipline::ShortestJobFirst,
            },
            error_rate,
            audit: true,
            sample_interval_hours: 0.05,
            ..CloudConfig::default()
        };
        let batch = Simulation::new(fleet.clone(), config).run(jobs.clone());

        // Live: submit in submission order, stepping by a random schedule
        // interleaved with the submissions.
        let mut cloud = LiveCloud::new(fleet, config);
        let mut jitter = step_jitter.iter().cycle();
        for job in &jobs {
            let target = job.submit_s - jitter.next().copied().unwrap_or(0.0);
            cloud.step_until(target);
            cloud.submit(job.clone()).expect("valid job");
        }
        cloud.run_to_completion();
        let live = cloud.into_result();
        live.audit.as_ref().expect("audit on").assert_clean();
        prop_assert_eq!(&batch.records, &live.records);
        prop_assert_eq!(&batch.queue_samples, &live.queue_samples);
        prop_assert_eq!(batch.total_jobs, live.total_jobs);
        prop_assert_eq!(batch.outcome_counts, live.outcome_counts);
        prop_assert_eq!(&batch.daily_executions, &live.daily_executions);
    }
}
