//! Criterion benchmarks of the cloud DES and workload generator (the
//! substrate behind Figs 2-4 and 9-14), plus a micro point for the
//! winner-tree fair-share queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcs::{Study, StudyConfig};
use qcs_cloud::{CloudConfig, FairShareQueue, JobSpec, Simulation};
use qcs_machine::Fleet;
use qcs_workload::{generate, WorkloadConfig};

fn small_workload() -> (Fleet, Vec<JobSpec>) {
    let fleet = Fleet::ibm_like();
    let workload = generate(
        &fleet,
        &WorkloadConfig {
            days: 3.0,
            study_jobs: 100,
            ..WorkloadConfig::default()
        },
    );
    (fleet, workload.jobs)
}

fn bench_des(c: &mut Criterion) {
    let (fleet, jobs) = small_workload();
    c.bench_function("des_3day_trace", |b| {
        b.iter(|| {
            Simulation::new(fleet.clone(), CloudConfig::default()).run(jobs.clone())
        });
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let fleet = Fleet::ibm_like();
    let config = WorkloadConfig {
        days: 3.0,
        study_jobs: 100,
        ..WorkloadConfig::default()
    };
    c.bench_function("workload_gen_3day", |b| b.iter(|| generate(&fleet, &config)));
}

fn bench_fair_share_queue(c: &mut Criterion) {
    // Winner-tree selection under a 40-provider push/charge/pop stream:
    // O(log P) per pop.
    let spec = |i: u64| JobSpec {
        id: i,
        provider: (i % 40) as u32,
        machine: 0,
        circuits: 10,
        shots: 1024,
        mean_depth: 20.0,
        mean_width: 3.0,
        submit_s: i as f64,
        is_study: false,
        patience_s: f64::INFINITY,
    };
    c.bench_function("fairshare_push_pop_1k", |b| {
        b.iter(|| {
            let mut queue = FairShareQueue::new(40, 86_400.0);
            for i in 0..1000u64 {
                queue.push(spec(i));
            }
            let mut drained = 0usize;
            while let Some(job) = queue.pop(2000.0) {
                queue.charge(job.provider, 60.0, 2000.0);
                drained += 1;
            }
            drained
        });
    });
}

fn bench_study_analysis(c: &mut Criterion) {
    // Per-machine analysis fan-out (violins + pending-job scans) at 1 vs
    // 4 worker threads; results are identical, only wall-clock differs.
    let mut group = c.benchmark_group("study_analysis_smoke");
    for threads in [1usize, 4] {
        let study = Study::run(&StudyConfig::smoke().with_threads(threads));
        group.bench_with_input(BenchmarkId::new("threads", threads), &study, |b, study| {
            b.iter(|| {
                (
                    study.queue_time_by_machine(),
                    study.exec_time_by_machine(),
                    study.pending_jobs_by_machine(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_des,
    bench_workload_generation,
    bench_fair_share_queue,
    bench_study_analysis
);
criterion_main!(benches);
