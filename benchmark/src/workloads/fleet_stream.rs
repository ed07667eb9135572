//! `fleet_stream`: a Zipf-population trace streamed in chunks through a
//! sharded in-process fleet with the online predictor tapping every
//! terminal record. The ROADMAP's unit of account.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qcs_cloud::{CloudConfig, JobRecord, JobSpec, LiveCloud, RecordSink, StreamingAggregates};
use qcs_gateway::FleetSim;
use qcs_machine::Fleet;
use qcs_predictor::{OnlinePredictor, ONLINE_REFIT_EVERY};
use qcs_workload::{PopulationConfig, PopulationTrace};

use super::{ns_u32, Scale, UnitOutcome, Workload};
use crate::measure::{percentile_ns, Digest};
use crate::spec::Layers;
use crate::trace::Tracer;

const SHARDS: usize = 4;
const CHUNK: usize = 20_000;
/// Jobs per unit; the horizon scales with it so the arrival rate stays
/// `PopulationConfig::million()`'s.
const UNIT_JOBS: [u64; 2] = [300_000, 40_000];
const WARMUP_JOBS: [u64; 2] = [40_000, 20_000];
const PROBE_JOBS: [u64; 2] = [100_000, 20_000];
/// Fixed capacity of the streaming sink's reservoirs.
const RESERVOIR: usize = 512;

fn population(seed: u64, jobs: u64) -> PopulationConfig {
    let million = PopulationConfig::million();
    PopulationConfig {
        jobs,
        horizon_days: million.horizon_days * jobs as f64 / million.jobs as f64,
        seed,
        ..million
    }
}

fn cloud_config(population: &PopulationConfig) -> CloudConfig {
    CloudConfig {
        seed: population.seed,
        num_providers: population.providers,
        record_sink: RecordSink::streaming(population.seed),
        ..CloudConfig::default()
    }
}

pub struct FleetStream {
    fleet: Fleet,
    population: PopulationConfig,
    chunk: Vec<JobSpec>,
}

/// One whole stream: fresh fleet simulator, fresh trace, run to completion.
fn stream(
    fleet: &Fleet,
    population: PopulationConfig,
    chunk: &mut Vec<JobSpec>,
    tracer: &mut Tracer,
) -> UnitOutcome {
    let jobs = population.jobs;
    let mut sim = FleetSim::new(fleet, cloud_config(&population), SHARDS);
    let mut trace = PopulationTrace::new(fleet, population);
    let mut out = UnitOutcome {
        ops: jobs,
        ..UnitOutcome::default()
    };
    let mut submitted = 0u64;
    let mut peak_pending = 0usize;
    loop {
        let started = Instant::now();
        chunk.clear();
        tracer.span("workload.trace_gen", |_| {
            chunk.extend(trace.by_ref().take(CHUNK))
        });
        let Some(last_submit_s) = chunk.last().map(|job| job.submit_s) else {
            break;
        };
        submitted += chunk.len() as u64;
        let rejected = tracer.span("gateway.fleetsim_submit", |_| {
            chunk
                .drain(..)
                .filter_map(|job| sim.submit(job).err())
                .count()
        });
        if rejected > 0 {
            out.notes
                .push(format!("{rejected} chunked submits rejected"));
            out.failed += rejected as u64;
        }
        peak_pending = peak_pending.max(sim.pending_arrivals());
        tracer.span("cloud.step", |_| sim.step_until(last_submit_s));
        tracer.span("gateway.reconcile", |_| sim.reconcile());
        out.op_ns.push(ns_u32(started.elapsed()));
    }
    tracer.span("cloud.drain", |_| sim.run_to_completion());
    tracer.span("gateway.reconcile", |_| sim.reconcile());

    tracer.span("bench.verify", |_| {
        verify(&sim, jobs, submitted, peak_pending, &mut out)
    });
    out
}

/// The million-job smoke's structural checks, then the digest.
fn verify(sim: &FleetSim, jobs: u64, submitted: u64, peak_pending: usize, out: &mut UnitOutcome) {
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.notes.push(what);
        }
    };
    check(
        submitted == jobs,
        format!("trace emitted {submitted} of {jobs} jobs"),
    );
    check(
        sim.records_len() == 0,
        "streaming sink materialized records".to_string(),
    );
    check(
        peak_pending <= CHUNK,
        format!("arrival agenda held {peak_pending} > one chunk"),
    );
    let outcomes = sim.outcome_counts();
    check(
        outcomes.iter().sum::<u64>() == jobs,
        format!("outcomes {outcomes:?} do not sum to {jobs}"),
    );
    check(
        sim.predictor_observed() == jobs,
        format!("predictor taps saw {} of {jobs}", sim.predictor_observed()),
    );
    if let Err(violation) = sim.audit_conservation() {
        check(false, format!("charged != executed: {violation}"));
    }
    let mut folded = 0u64;
    let mut p99_queue_s = 0.0f64;
    for shard in sim.shards() {
        match shard.streaming_aggregates() {
            Some(aggregates) => {
                folded += aggregates.folded();
                check(
                    aggregates.queue_time_samples().len() <= RESERVOIR,
                    "reservoir exceeded its fixed capacity".to_string(),
                );
                p99_queue_s = p99_queue_s.max(aggregates.queue_time_p99().unwrap_or(0.0));
            }
            None => check(false, "streaming sink left no aggregates".to_string()),
        }
    }
    check(folded == jobs, format!("folded {folded} of {jobs} jobs"));
    if !out.notes.is_empty() {
        out.failed = out.ops;
    }
    let mut digest = Digest::new();
    for count in outcomes {
        digest.word(count);
    }
    out.digest = Some(digest.word(folded).float(p99_queue_s).hex());
}

impl Workload for FleetStream {
    const NAME: &'static str = "fleet_stream";
    const OP: &'static str = "terminal job (latency: one 20k-job chunk)";

    fn config_digest(scale: Scale) -> String {
        let million = PopulationConfig::million();
        Digest::new()
            .text(Self::NAME)
            .word(scale.of(UNIT_JOBS))
            .word(scale.of(WARMUP_JOBS))
            .word(SHARDS as u64)
            .word(CHUNK as u64)
            .word(million.users)
            .word(million.jobs)
            .float(million.horizon_days)
            .float(million.patience_hours)
            .hex()
    }

    fn setup(seed: u64, scale: Scale) -> Self {
        let fleet = Fleet::ibm_like();
        let mut chunk = Vec::with_capacity(CHUNK);
        let warmup = population(seed, scale.of(WARMUP_JOBS));
        stream(&fleet, warmup, &mut chunk, &mut Tracer::off());
        FleetStream {
            population: population(seed, scale.of(UNIT_JOBS)),
            fleet,
            chunk,
        }
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        stream(&self.fleet, self.population, &mut self.chunk, tracer)
    }
}

/// Layer probes of the job trip without a wire: trace generation, the bare
/// DES, the predictor replayed on the DES's own records, the streaming
/// fold, and the sharded fleet's submit and reconcile.
pub fn probe(seed: u64, scale: Scale, layers: &mut Layers) {
    let started = Instant::now();
    let fleet = Fleet::ibm_like();
    layers.set(
        "machine.fleet_build_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let population = population(seed, scale.of(PROBE_JOBS));
    let jobs = population.jobs as f64;

    let started = Instant::now();
    let trace: Vec<JobSpec> = PopulationTrace::new(&fleet, population).collect();
    layers.set(
        "workload.trace_gen_ns_per_job",
        started.elapsed().as_nanos() as f64 / jobs,
    );

    // Bare DES: one LiveCloud over the whole fleet, no tap, same chunking.
    let mut cloud = LiveCloud::new(fleet.clone(), cloud_config(&population));
    let mut submit_ns = 0u128;
    let mut peak_pending = 0usize;
    let started = Instant::now();
    for chunk in trace.chunks(CHUNK) {
        let submit_started = Instant::now();
        for job in chunk {
            cloud
                .submit(job.clone())
                .expect("trace jobs are admissible");
        }
        submit_ns += submit_started.elapsed().as_nanos();
        peak_pending = peak_pending.max(cloud.pending_arrivals());
        cloud.step_until(chunk[chunk.len() - 1].submit_s);
    }
    cloud.run_to_completion();
    let des_ns = started.elapsed().as_nanos() as f64;
    layers.set("cloud.des_ns_per_job", des_ns / jobs);
    layers.set("cloud.submit_ns", submit_ns as f64 / jobs);
    let [completed, errored, cancelled] = cloud.outcome_counts();
    layers.set("cloud.completed", completed as f64);
    layers.set("cloud.errored", errored as f64);
    layers.set("cloud.cancelled", cancelled as f64);
    layers.set("cloud.peak_pending_arrivals", peak_pending as f64);

    // The same run again with a capturing tap, untimed: the records the
    // predictor and the fold are then replayed on.
    let captured: Arc<Mutex<Vec<JobRecord>>> = Arc::default();
    let sink = Arc::clone(&captured);
    let mut cloud = LiveCloud::new(fleet.clone(), cloud_config(&population)).with_record_tap(
        Box::new(move |record| sink.lock().expect("tap lock").push(record.clone())),
    );
    for chunk in trace.chunks(CHUNK) {
        for job in chunk {
            cloud
                .submit(job.clone())
                .expect("trace jobs are admissible");
        }
        cloud.step_until(chunk[chunk.len() - 1].submit_s);
    }
    cloud.run_to_completion();
    drop(cloud);
    let records = std::mem::take(&mut *captured.lock().expect("tap lock"));

    let qubits: Vec<usize> = fleet.iter().map(|m| m.num_qubits()).collect();
    let mut predictor = OnlinePredictor::new(qubits);
    let mut observe_ns: Vec<u32> = Vec::with_capacity(records.len());
    for record in &records {
        let call = Instant::now();
        predictor.observe(record);
        observe_ns.push(ns_u32(call.elapsed()));
    }
    let observe_total: f64 = observe_ns.iter().map(|&ns| f64::from(ns)).sum();
    let observe_per_record = observe_total / records.len() as f64;
    layers.set("predictor.observe_ns_per_record", observe_per_record);
    layers.set(
        "predictor.observe_p50_ns",
        percentile_ns(&mut observe_ns, 0.5),
    );
    layers.set(
        "predictor.observe_p99_us",
        percentile_ns(&mut observe_ns, 0.99) / 1e3,
    );
    layers.set(
        "predictor.observe_max_us",
        percentile_ns(&mut observe_ns, 1.0) / 1e3,
    );
    layers.set(
        "predictor.refits",
        (completed / ONLINE_REFIT_EVERY as u64) as f64,
    );
    layers.set("predictor.mae_min", predictor.median_abs_error_min());
    layers.set(
        "predictor.band_cover_gap",
        (predictor.band_coverage() - 0.8).abs(),
    );

    let calls = records.len();
    let started = Instant::now();
    let mut ready = 0usize;
    for (i, record) in records.iter().enumerate() {
        let estimate = predictor.predict(record.machine, record.circuits, record.shots, i % 64);
        ready += usize::from(std::hint::black_box(estimate).is_ok());
    }
    assert_eq!(ready, calls, "a trained predictor answers every PREDICT");
    layers.set(
        "predictor.predict_ns",
        started.elapsed().as_nanos() as f64 / calls as f64,
    );

    let mut aggregates = StreamingAggregates::new(RESERVOIR, seed, population.providers);
    let started = Instant::now();
    for record in &records {
        aggregates.fold(record);
    }
    layers.set(
        "cloud.fold_ns_per_record",
        started.elapsed().as_nanos() as f64 / records.len() as f64,
    );
    assert_eq!(
        std::hint::black_box(aggregates.folded()),
        records.len() as u64
    );

    // The sharded stream itself, traced: submit routing and reconcile.
    let mut tracer = Tracer::on();
    let stream_started = Instant::now();
    let outcome = stream(
        &fleet,
        population,
        &mut Vec::with_capacity(CHUNK),
        &mut tracer,
    );
    let stream_ns = stream_started.elapsed().as_nanos() as f64;
    assert_eq!(
        outcome.failed, 0,
        "probe stream failed: {:?}",
        outcome.notes
    );
    let spans = tracer.self_time_ns(None);
    layers.set(
        "gateway.fleetsim_submit_ns",
        spans["gateway.fleetsim_submit"].total_ns as f64 / jobs,
    );
    let reconcile = spans["gateway.reconcile"];
    layers.set(
        "gateway.reconcile_us_per_round",
        reconcile.total_ns as f64 / reconcile.count as f64 / 1e3,
    );
    layers.set(
        "predictor.share_of_stream",
        observe_per_record / (stream_ns / jobs),
    );
}
