//! The study streams its trace instead of holding it: the process's peak
//! resident memory grows across a `Study::run` by well under the size of
//! the trace it simulates.
//!
//! The binary holds this one test, so the peak (`VmHWM`) is this test's
//! alone: a test running beside it would add its own allocations.
#![cfg(target_os = "linux")]

use qcs::cloud::JobSpec;
use qcs::{ExecConfig, Study, StudyConfig};

/// The process's peak resident set so far, KiB (`VmHWM`).
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

#[test]
fn study_run_peak_memory_grows_by_under_half_its_trace() {
    // A month of the full study's demand with few study jobs: ~150k
    // background jobs, every 20th recorded, a sequential analysis pool.
    let full = StudyConfig::full();
    let config = StudyConfig {
        workload: qcs::workload::WorkloadConfig {
            seed: 2021,
            days: 30.0,
            study_jobs: 300,
            ..full.workload
        },
        exec: ExecConfig::sequential(),
        ..full
    };
    let before_kib = peak_rss_kib();
    let study = Study::run(&config);
    let grown_kib = peak_rss_kib() - before_kib;
    let trace_kib = study.result().total_jobs * std::mem::size_of::<JobSpec>() as u64 / 1024;
    assert!(
        trace_kib > 8 * 1024,
        "the trace ({trace_kib} KiB) is big enough to show"
    );
    assert!(
        2 * grown_kib < trace_kib,
        "peak RSS grew {grown_kib} KiB across Study::run, not under half the {trace_kib} KiB \
         a materialised trace of {} jobs takes",
        study.result().total_jobs
    );
}
