//! Bounded-memory million-job smoke gate.
//!
//! Streams a [`PopulationTrace`] (Zipf-activity population, Poisson
//! arrivals) through a sharded [`FleetSim`] in fixed-size chunks, with a
//! cross-shard fair-share reconcile per chunk, and asserts the structural
//! O(1)-in-job-count memory properties of the streaming pipeline:
//!
//! - no terminal record is ever materialized (`records_len() == 0`);
//! - the arrival queue never holds more than one chunk of submissions;
//! - per-shard reservoirs stay at their fixed capacity;
//! - the cross-shard charged-vs-executed conservation audit passes;
//! - every submitted job is folded exactly once into the aggregates;
//! - the online predictors refit at the chunk boundary, not per record:
//!   at most one fit per shard per step call, plus each shard's cold fit.
//!
//! Run with `--jobs N` to shrink the trace (ci smoke uses the full 10⁶).
//! Prints throughput, outcome mix, p99 queue time, and peak RSS.

use std::time::Instant;

use qcs_cloud::{CloudConfig, RecordSink};
use qcs_gateway::FleetSim;
use qcs_machine::Fleet;
use qcs_workload::{PopulationConfig, PopulationTrace};

const SHARDS: usize = 4;
const CHUNK: usize = 20_000;

/// Current resident set size in MiB, from `/proc/self/status` (`None`
/// off-Linux).
fn vm_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn parse_jobs() -> u64 {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        None => 1_000_000,
        Some("--jobs") => {
            let value = args.next().expect("--jobs needs a value");
            value.parse().expect("--jobs needs an integer")
        }
        Some("--smoke") => 50_000,
        Some(other) => panic!("unknown argument {other}; expected --jobs N or --smoke"),
    }
}

fn main() {
    let jobs = parse_jobs();
    let population = PopulationConfig {
        jobs,
        ..PopulationConfig::million()
    };
    let fleet = Fleet::ibm_like();
    let config = CloudConfig {
        num_providers: population.providers,
        record_sink: RecordSink::streaming(population.seed),
        ..CloudConfig::default()
    };
    let mut sim = FleetSim::new(&fleet, config, SHARDS);
    let mut trace = PopulationTrace::new(&fleet, population);

    let started = Instant::now();
    let mut submitted = 0u64;
    let mut peak_pending = 0usize;
    let mut peak_rss_mib: f64 = 0.0;
    let mut chunks = 0u64;
    loop {
        let mut last_submit_s = 0.0;
        let mut in_chunk = 0usize;
        for job in trace.by_ref().take(CHUNK) {
            last_submit_s = job.submit_s;
            sim.submit(job).expect("chunked submit admits every job");
            in_chunk += 1;
        }
        if in_chunk == 0 {
            break;
        }
        submitted += in_chunk as u64;
        chunks += 1;
        // The arrival queue holds at most the chunk we just pushed.
        peak_pending = peak_pending.max(sim.pending_arrivals());
        sim.step_until(last_submit_s);
        sim.reconcile();
        assert_eq!(sim.records_len(), 0, "streaming sink materialized records");
        if let Some(rss) = vm_rss_mib() {
            peak_rss_mib = peak_rss_mib.max(rss);
        }
        if submitted.is_multiple_of(200_000) {
            eprintln!(
                "  ... {submitted} submitted, sim day {:.1}, {:.0}s elapsed",
                last_submit_s / 86_400.0,
                started.elapsed().as_secs_f64()
            );
        }
    }
    sim.run_to_completion();
    sim.reconcile();
    let elapsed = started.elapsed();

    assert_eq!(submitted, jobs, "trace emitted every configured job");
    assert!(
        peak_pending <= CHUNK,
        "arrival queue grew past one chunk: {peak_pending}"
    );
    assert_eq!(sim.records_len(), 0, "streaming sink materialized records");
    let [completed, errored, cancelled] = sim.outcome_counts();
    assert_eq!(
        completed + errored + cancelled,
        jobs,
        "every job reached a terminal outcome"
    );
    sim.audit_conservation()
        .expect("cross-shard charged == executed");
    let mut folded = 0u64;
    let mut p99_queue_s: f64 = 0.0;
    for shard in sim.shards() {
        let aggregates = shard
            .streaming_aggregates()
            .expect("streaming sink populates aggregates");
        folded += aggregates.folded();
        assert!(
            aggregates.queue_time_samples().len() <= 512,
            "reservoir exceeded its fixed capacity"
        );
        p99_queue_s = p99_queue_s.max(aggregates.queue_time_p99().unwrap_or(0.0));
    }
    assert_eq!(folded, jobs, "every job folded exactly once");
    // One step call per chunk and one drain, each refitting a shard at
    // most once; the cold fits come on top.
    let refits = sim.predictor_refits();
    let shards = SHARDS as u64;
    assert!(
        refits <= (chunks + 1) * shards + shards,
        "{refits} predictor refits over {chunks} chunks: the fit is back on the record path"
    );
    if let Some(rss) = vm_rss_mib() {
        peak_rss_mib = peak_rss_mib.max(rss);
        let ceiling: f64 = std::env::var("QCS_SMOKE_MAX_RSS_MIB")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(512.0);
        assert!(
            peak_rss_mib < ceiling,
            "peak RSS {peak_rss_mib:.0} MiB exceeds {ceiling:.0} MiB ceiling"
        );
    }

    let jobs_per_s = jobs as f64 / elapsed.as_secs_f64();
    println!(
        "PASS million-job smoke: {jobs} jobs / {SHARDS} shards in {:.1}s ({jobs_per_s:.0} jobs/s)",
        elapsed.as_secs_f64()
    );
    println!(
        "  outcomes: {completed} completed, {errored} errored, {cancelled} cancelled (patience {:.0}h)",
        population.patience_hours
    );
    println!(
        "  p99 queue time {:.2}h; peak pending arrivals {peak_pending}; peak RSS {:.0} MiB",
        p99_queue_s / 3600.0,
        peak_rss_mib
    );
    println!("  predictor refits {refits} over {chunks} chunks x {SHARDS} shards");
}
