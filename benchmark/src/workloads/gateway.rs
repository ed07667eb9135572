//! `gateway_submit` and `gateway_query`: one closed-loop client, one
//! request outstanding, against a two-shard TCP fleet on loopback with the
//! simulation clock running. Outcomes depend on wall time, so these two
//! check reply variants and the fleet's conservation counters, not a
//! digest.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qcs_cloud::{CloudConfig, JobSpec, LiveCloud, RecordSink};
use qcs_gateway::{FleetClient, GatewayConfig, GatewayFleet, Request, Response, ShardMap};
use qcs_machine::Fleet;
use qcs_predictor::OnlinePredictor;
use qcs_workload::{PopulationConfig, PopulationTrace};

use super::{ns_u32, Scale, UnitOutcome, Workload};
use crate::measure::{percentile_ns, Digest, InputRng};
use crate::spec::Layers;
use crate::trace::Tracer;

const SHARDS: usize = 2;
const UNIT_REQUESTS: [usize; 2] = [50_000, 4_000];
const WARMUP_REQUESTS: [usize; 2] = [4_000, 1_000];
const PROBE_REQUESTS: [usize; 2] = [30_000, 4_000];
/// Distinct job shapes drawn from the population trace and cycled through.
const SHAPES: u64 = 8_192;
/// Simulated seconds per wall second. At the ~50k req/s a pinned loopback
/// client reaches, a request advances the clock by about the 5.2 s mean
/// arrival gap of `PopulationConfig::million()`, so queues sit in the same
/// patience-bounded regime as `fleet_stream`.
const TIME_COMPRESSION: f64 = 250_000.0;
/// In the query mix every this-many-th request is `METRICS`.
const METRICS_EVERY: u64 = 1_000;
const STATES: [&str; 5] = ["queued", "running", "completed", "errored", "cancelled"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `SUBMIT` only.
    Submit,
    /// 10 % `SUBMIT`, 45 % `PREDICT`, 35 % `STATUS` of accepted ids, 10 %
    /// `QUEUE`, and `METRICS` every [`METRICS_EVERY`]-th request.
    Query,
}

/// What the client counted over a session, checked against the fleet's own
/// counters when the session ends.
#[derive(Debug, Default, Clone, Copy)]
struct ClientCounts {
    submits: u64,
    accepted: u64,
    busy: u64,
    err: u64,
}

struct Session {
    fleet: GatewayFleet,
    client: FleetClient,
    map: ShardMap,
    mix: Mix,
    shapes: Vec<JobSpec>,
    next_shape: usize,
    sent: u64,
    rng: InputRng,
    /// `(shard, gateway-assigned id)` of every accepted job.
    accepted: Vec<(usize, u64)>,
    counts: ClientCounts,
    unit_requests: usize,
    /// The traced run's gateway probe keeps the conversation for replay.
    log: Option<Vec<(usize, Request, Response)>>,
}

fn cloud_config(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        record_sink: RecordSink::streaming(seed),
        ..CloudConfig::default()
    }
}

impl Session {
    fn start(seed: u64, mix: Mix, unit_requests: usize, warmup_requests: usize) -> Session {
        let machines = Fleet::ibm_like();
        // Admission opened wide: the serving stack is measured, not the
        // rate limiter.
        let gateway = GatewayConfig {
            time_compression: TIME_COMPRESSION,
            rate_capacity: 1e15,
            rate_refill_per_s: 1e12,
            max_pending_per_machine: usize::MAX,
            ..GatewayConfig::default()
        };
        let fleet = GatewayFleet::start(&machines, cloud_config(seed), gateway, SHARDS)
            .expect("bind loopback gateways");
        let client = FleetClient::connect(&fleet).expect("connect to every shard");
        let population = PopulationConfig {
            jobs: SHAPES,
            seed,
            ..PopulationConfig::million()
        };
        let mut session = Session {
            map: fleet.map(),
            fleet,
            client,
            mix,
            shapes: PopulationTrace::new(&machines, population).collect(),
            next_shape: 0,
            sent: 0,
            rng: InputRng::new(seed, 0x6761_7465),
            accepted: Vec::new(),
            counts: ClientCounts::default(),
            unit_requests,
            log: None,
        };
        session.warm_up(warmup_requests);
        session
    }

    /// Submit a burst, then wait until every shard's predictor has seen a
    /// completed job, so no `PREDICT` of the measured mix is `NOT_READY`.
    fn warm_up(&mut self, requests: usize) {
        for _ in 0..requests {
            let (shard, request) = self.submit_request();
            let reply = self.round_trip(shard, &request);
            assert!(
                self.judge(shard, &request, &reply),
                "warm-up SUBMIT got {reply}"
            );
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for shard in 0..SHARDS {
            let probe = Request::Predict {
                machine: "0".to_string(),
                circuits: 1,
                shots: 1024,
            };
            while !matches!(self.round_trip(shard, &probe), Response::Predict { .. }) {
                assert!(
                    Instant::now() < deadline,
                    "shard {shard} predictor never became ready"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn round_trip(&mut self, shard: usize, request: &Request) -> Response {
        self.client
            .shard_client(shard)
            .request(request)
            .expect("loopback round trip")
    }

    fn submit_request(&mut self) -> (usize, Request) {
        let spec = &self.shapes[self.next_shape];
        self.next_shape = (self.next_shape + 1) % self.shapes.len();
        let (shard, local) = self.map.locate(spec.machine);
        (
            shard,
            Request::Submit {
                provider: spec.provider,
                machine: local.to_string(),
                circuits: spec.circuits,
                shots: spec.shots,
                mean_depth: spec.mean_depth,
                mean_width: spec.mean_width,
                patience_s: spec.patience_s,
            },
        )
    }

    fn next_request(&mut self) -> (usize, Request) {
        self.sent += 1;
        if self.mix == Mix::Submit {
            return self.submit_request();
        }
        if self.sent.is_multiple_of(METRICS_EVERY) {
            return (self.rng.below(SHARDS), Request::Metrics);
        }
        let machine = self.rng.below(self.map.num_machines());
        let (shard, local) = self.map.locate(machine);
        match self.rng.below(100) {
            0..10 => self.submit_request(),
            10..55 => {
                let shape = &self.shapes[self.rng.below(self.shapes.len())];
                (
                    shard,
                    Request::Predict {
                        machine: local.to_string(),
                        circuits: shape.circuits,
                        shots: shape.shots,
                    },
                )
            }
            55..90 => {
                let (shard, id) = self.accepted[self.rng.below(self.accepted.len())];
                (shard, Request::Status(id))
            }
            _ => (shard, Request::Queue(local.to_string())),
        }
    }

    /// Whether `reply` is the right variant for `request`; also keeps the
    /// client-side counters.
    fn judge(&mut self, shard: usize, request: &Request, reply: &Response) -> bool {
        if matches!(request, Request::Submit { .. }) {
            self.counts.submits += 1;
        }
        match (request, reply) {
            (_, Response::Busy(_)) => {
                self.counts.busy += 1;
                false
            }
            (_, Response::Err(_)) => {
                self.counts.err += 1;
                false
            }
            (Request::Submit { .. }, Response::Ok(id)) => {
                self.counts.accepted += 1;
                self.accepted.push((shard, *id));
                true
            }
            (
                Request::Predict { .. },
                Response::Predict {
                    wait_s,
                    lo_s,
                    hi_s,
                    run_s,
                    ..
                },
            ) => [wait_s, lo_s, hi_s, run_s]
                .iter()
                .all(|x| x.is_finite() && **x >= 0.0),
            (Request::Status(asked), Response::Status { id, state }) => {
                asked == id && STATES.contains(&state.as_str())
            }
            (Request::Queue(_), Response::Queue { .. }) => true,
            (Request::Metrics, Response::Metrics(pairs)) => !pairs.is_empty(),
            _ => false,
        }
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        let mut out = UnitOutcome {
            ops: self.unit_requests as u64,
            op_ns: Vec::with_capacity(self.unit_requests),
            ..UnitOutcome::default()
        };
        let mut first_bad = None;
        for _ in 0..self.unit_requests {
            let (shard, request) = tracer.span("workload.next_request", |_| self.next_request());
            let sent = Instant::now();
            let reply = tracer.span("gateway.round_trip", |_| self.round_trip(shard, &request));
            out.op_ns.push(ns_u32(sent.elapsed()));
            if !self.judge(shard, &request, &reply) {
                out.failed += 1;
                first_bad.get_or_insert_with(|| format!("{request} -> {reply}"));
            }
            if let Some(log) = self.log.as_mut() {
                log.push((shard, request, reply));
            }
        }
        if let Some(bad) = first_bad {
            out.notes
                .push(format!("{} bad replies, first: {bad}", out.failed));
        }
        tracer.span("gateway.reconcile", |_| self.fleet.reconcile());
        out
    }

    /// Close the connections, audit, drain, and compare the fleet's
    /// counters with the client's.
    fn finish(mut self) -> Vec<String> {
        let mut failures = Vec::new();
        self.fleet.reconcile();
        if let Err(violation) = self.fleet.audit_conservation() {
            failures.push(format!("charged != executed: {violation}"));
        }
        let panics: usize = self.fleet.shards().iter().map(|g| g.handler_panics()).sum();
        if panics > 0 {
            failures.push(format!("{panics} connection handlers panicked"));
        }
        if let Err(error) = self.client.quit() {
            failures.push(format!("QUIT failed: {error}"));
        }
        let (mut submitted, mut accepted, mut terminal) = (0u64, 0u64, 0u64);
        for (shard, (result, metrics)) in self.fleet.shutdown_and_drain().into_iter().enumerate() {
            let rejected =
                metrics.rejected_rate + metrics.rejected_backpressure + metrics.rejected_invalid;
            if metrics.submitted != metrics.accepted + rejected {
                failures.push(format!(
                    "shard {shard}: submitted {} != accepted {} + rejected {rejected}",
                    metrics.submitted, metrics.accepted
                ));
            }
            if metrics.protocol_errors > 0 {
                failures.push(format!(
                    "shard {shard}: {} protocol errors",
                    metrics.protocol_errors
                ));
            }
            if result.total_jobs != metrics.accepted {
                failures.push(format!(
                    "shard {shard}: drained {} terminal jobs of {} accepted",
                    result.total_jobs, metrics.accepted
                ));
            }
            submitted += metrics.submitted;
            accepted += metrics.accepted;
            terminal += result.total_jobs;
        }
        let counts = self.counts;
        if (submitted, accepted) != (counts.submits, counts.accepted) {
            failures.push(format!(
                "fleet saw {submitted} SUBMITs / {accepted} accepted, client sent {} / {}",
                counts.submits, counts.accepted
            ));
        }
        if terminal != counts.accepted {
            failures.push(format!(
                "{terminal} terminal jobs of {} accepted",
                counts.accepted
            ));
        }
        failures
    }
}

/// Both gateway workloads: the same session, told apart by the mix.
pub struct Gateway<const QUERY: bool>(Session);
pub type GatewaySubmit = Gateway<false>;
pub type GatewayQuery = Gateway<true>;

impl<const QUERY: bool> Gateway<QUERY> {
    const MIX: Mix = if QUERY { Mix::Query } else { Mix::Submit };
}

impl<const QUERY: bool> Workload for Gateway<QUERY> {
    const NAME: &'static str = if QUERY {
        "gateway_query"
    } else {
        "gateway_submit"
    };
    const OP: &'static str = if QUERY {
        "mixed request round trip"
    } else {
        "SUBMIT round trip"
    };
    const GATEWAY_MIX: Option<Mix> = Some(Self::MIX);

    fn config_digest(scale: Scale) -> String {
        Digest::new()
            .text(Self::NAME)
            .word(scale.of(UNIT_REQUESTS) as u64)
            .word(scale.of(WARMUP_REQUESTS) as u64)
            .word(SHARDS as u64)
            .word(SHAPES)
            .float(TIME_COMPRESSION)
            .word(METRICS_EVERY)
            .hex()
    }

    fn setup(seed: u64, scale: Scale) -> Self {
        Gateway(Session::start(
            seed,
            Self::MIX,
            scale.of(UNIT_REQUESTS),
            scale.of(WARMUP_REQUESTS),
        ))
    }

    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome {
        self.0.unit(tracer)
    }

    fn finish(self) -> Vec<String> {
        self.0.finish()
    }
}

/// One shard of the in-process twin: the simulator and predictor a gateway
/// wraps, without its sockets, threads, parser or lock.
struct InprocShard {
    cloud: LiveCloud,
    predictor: Arc<Mutex<OnlinePredictor>>,
    next_id: u64,
}

impl InprocShard {
    fn new(machines: Fleet, config: CloudConfig) -> InprocShard {
        let qubits = machines.iter().map(|m| m.num_qubits()).collect();
        let predictor = Arc::new(Mutex::new(OnlinePredictor::new(qubits)));
        let tap = Arc::clone(&predictor);
        let cloud = LiveCloud::new(machines, config)
            .with_status_tracking()
            .with_record_tap(Box::new(move |record| {
                tap.lock().expect("predictor lock").observe(record);
            }));
        InprocShard {
            cloud,
            predictor,
            next_id: 0,
        }
    }

    /// What the gateway does for `request` once it holds the state lock.
    fn serve(&mut self, request: &Request, now_s: f64) {
        self.cloud.step_until(now_s);
        let index = |machine: &str| {
            machine
                .parse::<usize>()
                .expect("machines are sent by index")
        };
        match request {
            Request::Submit {
                provider,
                machine,
                circuits,
                shots,
                mean_depth,
                mean_width,
                patience_s,
            } => {
                let spec = JobSpec {
                    id: self.next_id,
                    provider: *provider,
                    machine: index(machine),
                    circuits: *circuits,
                    shots: *shots,
                    mean_depth: *mean_depth,
                    mean_width: *mean_width,
                    submit_s: self.cloud.now_s(),
                    is_study: true,
                    patience_s: *patience_s,
                };
                self.next_id += 1;
                self.cloud
                    .submit(spec)
                    .expect("replayed SUBMIT is admissible");
            }
            Request::Status(id) => {
                black_box(self.cloud.status(*id));
            }
            Request::Queue(machine) => {
                black_box(self.cloud.queue_depth(index(machine)));
            }
            Request::Predict {
                machine,
                circuits,
                shots,
            } => {
                let machine = index(machine);
                let pending = self.cloud.queue_depth(machine);
                let predictor = self.predictor.lock().expect("predictor lock");
                black_box(predictor.predict(machine, *circuits, *shots, pending).ok());
            }
            Request::Metrics => {
                black_box(self.cloud.outcome_counts());
            }
            Request::Cancel(_) | Request::Quit => unreachable!("the mixes send neither"),
        }
    }
}

/// Layer probes of the wire trip: one TCP session of the given mix, its
/// round-trip distribution, the same conversation replayed in process, and
/// the parser and formatter on the same lines.
pub fn probe(seed: u64, scale: Scale, mix: Mix, layers: &mut Layers) {
    let requests = scale.of(PROBE_REQUESTS);
    let mut session = Session::start(seed, mix, requests, scale.of(WARMUP_REQUESTS));
    session.log = Some(Vec::with_capacity(requests));
    let sim_before_s = session.fleet.shards()[0].sim_now_s();
    let mut outcome = session.unit(&mut Tracer::off());
    let sim_s_per_req = (session.fleet.shards()[0].sim_now_s() - sim_before_s) / requests as f64;
    let log = session.log.take().expect("log was switched on");
    let counts = session.counts;
    let failures = session.finish();
    assert!(
        outcome.failed == 0 && failures.is_empty(),
        "probe session failed: {:?} {failures:?}",
        outcome.notes
    );

    let total_ns: f64 = outcome.op_ns.iter().map(|&ns| f64::from(ns)).sum();
    let rtt_mean_us = total_ns / requests as f64 / 1e3;
    layers.set("gateway.rtt_mean_us", rtt_mean_us);
    layers.set(
        "gateway.rtt_p90_us",
        percentile_ns(&mut outcome.op_ns, 0.90) / 1e3,
    );
    layers.set(
        "gateway.rtt_p99_us",
        percentile_ns(&mut outcome.op_ns, 0.99) / 1e3,
    );
    layers.set(
        "gateway.rtt_max_us",
        percentile_ns(&mut outcome.op_ns, 1.0) / 1e3,
    );
    layers.set("gateway.sim_s_per_req", sim_s_per_req);
    layers.set("gateway.busy", counts.busy as f64);
    layers.set("gateway.err", counts.err as f64);

    // Replay on the twin at the pace the session's clock actually ran. The
    // twin starts cold, so ids the session's warm-up made are unknown to
    // it; STATUS then takes the miss path of the same map.
    let machines = Fleet::ibm_like();
    let map = ShardMap::new(machines.len(), SHARDS);
    let mut twins: Vec<InprocShard> = map
        .partition(&machines)
        .into_iter()
        .map(|shard| InprocShard::new(shard, cloud_config(seed)))
        .collect();
    let started = Instant::now();
    for (i, (shard, request, _)) in log.iter().enumerate() {
        twins[*shard].serve(request, (i + 1) as f64 * sim_s_per_req);
    }
    let inproc_us = started.elapsed().as_nanos() as f64 / requests as f64 / 1e3;
    layers.set("gateway.inproc_us_per_req", inproc_us);
    layers.set("gateway.wire_overhead_us", rtt_mean_us - inproc_us);

    // One round trip formats and parses one request and one reply.
    let started = Instant::now();
    let lines: Vec<(String, String)> = log
        .iter()
        .map(|(_, request, reply)| (request.to_string(), reply.to_string()))
        .collect();
    layers.set(
        "gateway.format_ns",
        started.elapsed().as_nanos() as f64 / requests as f64,
    );
    let started = Instant::now();
    for (request, reply) in &lines {
        black_box(Request::parse(request).is_ok() && Response::parse(reply).is_ok());
    }
    layers.set(
        "gateway.parse_ns",
        started.elapsed().as_nanos() as f64 / requests as f64,
    );
}
