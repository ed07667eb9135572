//! The gateway server: a TCP front-end over a [`LiveCloud`].
//!
//! A session is a thread: the accept loop spawns one per accepted
//! connection (up to `MAX_SESSIONS`; the next connection is answered
//! `BUSY connection limit` and closed), and that thread reads request
//! lines, takes the shared simulator lock, advances the simulation clock
//! to "now" (wall-clock elapsed × time compression), and answers.
//! Admission control happens before a job reaches the simulator:
//!
//! 1. **Validation** — unknown machine/provider, an empty batch, or a
//!    job shape no machine could run (non-finite or out-of-range
//!    `mean_depth` / `mean_width` / `patience_s`, a batch or shot count
//!    over the target machine's caps) is a permanent `ERR` with a typed
//!    code. A parsed `f64` is not a plausible one: an unchecked
//!    `mean_depth` of `1e18` schedules a completion ~10¹⁸ s out, and
//!    draining to it grows the sample grid without bound.
//! 2. **Rate limiting** — a per-provider [`TokenBucket`] driven by
//!    *simulation* time; an empty bucket is a retryable `BUSY`.
//! 3. **Backpressure** — a machine whose pending depth (queued +
//!    executing) is at [`GatewayConfig::max_pending_per_machine`] answers
//!    `BUSY` instead of queueing unboundedly.
//!
//! The read path treats every byte as hostile: request lines are read
//! under a socket timeout with a per-line idle-reaping deadline
//! ([`GatewayConfig::idle_timeout`]), capped at
//! [`GatewayConfig::max_line_bytes`] (a longer line is answered
//! `ERR LINE_TOO_LONG` and the connection closed), and non-UTF-8 lines
//! are answered `ERR NOT_UTF8`. Nothing a peer can send panics a
//! handler — `clippy::unwrap_used`/`expect_used` are denied crate-wide
//! outside tests — and should one panic anyway, the session's thread
//! catches it and every other session keeps serving. The chaos suite
//! (`tests/chaos_gateway.rs`) drives a gateway through a seeded proxy
//! that drops, garbles, truncates and stalls lines on the wire.
//!
//! [`Gateway::shutdown_and_drain`] stops accepting, joins every handler,
//! runs the simulator to completion, and returns the final
//! [`SimulationResult`] (auditable via `CloudConfig::audit`) plus the
//! [`GatewayMetrics`] counters.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qcs_cloud::{CloudConfig, JobSpec, LiveCloud, OutagePlan, SimulationResult};
use qcs_machine::{Fleet, Machine};
use qcs_predictor::{OnlinePredictor, PredictError};

use crate::error::{ErrorCode, ProtocolError};
use crate::metrics::{bump, GatewayMetrics};
use crate::protocol::{Request, Response};
use crate::ratelimit::TokenBucket;

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Simulated seconds per wall-clock second. `0.0` freezes the
    /// simulation clock (useful for deterministic tests: jobs queue but
    /// time never advances on its own).
    pub time_compression: f64,
    /// Token-bucket capacity per provider (burst size).
    pub rate_capacity: f64,
    /// Token refill rate per provider, tokens per *simulated* second.
    pub rate_refill_per_s: f64,
    /// Admission bound per machine: a `SUBMIT` targeting a machine with
    /// this many jobs pending is answered `BUSY`.
    pub max_pending_per_machine: usize,
    /// A connection that sends no complete line for this long is reaped
    /// (closed and counted in [`GatewayMetrics::reaped_idle`]) — the
    /// slow-loris defence.
    pub idle_timeout: Duration,
    /// Longest accepted request line, bytes. Anything longer is answered
    /// `ERR LINE_TOO_LONG` and the connection is closed, bounding
    /// per-connection memory.
    pub max_line_bytes: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            time_compression: 1.0,
            rate_capacity: 64.0,
            rate_refill_per_s: 1.0,
            max_pending_per_machine: 256,
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: 64 * 1024,
        }
    }
}

/// Most sessions served at once, one OS thread each: what bounds the
/// gateway's threads and sockets. A connection over the limit is answered
/// `BUSY connection limit` and closed instead of waiting unanswered.
const MAX_SESSIONS: usize = 128;

/// Socket read timeout of a session (shortened to
/// [`GatewayConfig::idle_timeout`] when that is smaller): the longest a
/// silent peer keeps `read_request_line` from checking its per-line idle
/// deadline. The deadline is checked after every `fill_buf` return, data
/// or timeout, so a peer that dribbles bytes without a newline is reaped
/// on time however fast it sends; one that sends nothing is reaped at
/// most this long after the deadline.
const READ_POLL: Duration = Duration::from_millis(100);

/// Largest `mean_depth` a `SUBMIT` may carry: 10⁵ layers, far past any
/// circuit a NISQ machine runs coherently (the study's deepest are in the
/// hundreds). Together with the per-machine batch and shot caps it bounds
/// one job's simulated run time to days, so a hostile depth cannot push a
/// completion event — and the queue-sample grid behind it — out to
/// astronomical times.
pub const MAX_MEAN_DEPTH: f64 = 1e5;

/// Largest finite `patience_s` a `SUBMIT` may carry: 30 days, past any
/// queue wait the paper reports. A finite patience schedules a cancel
/// check that stays queued after the job starts, and the drain runs the
/// simulation clock — and the queue-sample grid behind it — out to that
/// check, so an unbounded one exhausts memory at shutdown.
const MAX_PATIENCE_S: f64 = 30.0 * 86_400.0;

/// Admission check on the job shape of a `SUBMIT` aimed at `machine`.
/// Field values that are invalid on any machine are `BAD_FIELD`; values
/// over this machine's caps are `REJECTED`.
fn check_job_shape(
    machine: &Machine,
    circuits: u32,
    shots: u32,
    mean_depth: f64,
    mean_width: f64,
    patience_s: f64,
) -> Result<(), ProtocolError> {
    let bad_field = |detail: String| Err(ProtocolError::new(ErrorCode::BadField, detail));
    let over_cap = |detail: String| Err(ProtocolError::new(ErrorCode::Rejected, detail));
    // Range checks rather than comparisons, so NaN fails them too.
    if !(1.0..=MAX_MEAN_DEPTH).contains(&mean_depth) {
        return bad_field(format!(
            "mean_depth must be in [1, {MAX_MEAN_DEPTH}], got {mean_depth}"
        ));
    }
    if !(1.0..=f64::MAX).contains(&mean_width) {
        return bad_field(format!(
            "mean_width must be finite and >= 1, got {mean_width}"
        ));
    }
    // `inf` is the patient default.
    if patience_s != f64::INFINITY && !(0.0..=MAX_PATIENCE_S).contains(&patience_s) {
        return bad_field(format!(
            "patience_s must be in [0, {MAX_PATIENCE_S}] or inf, got {patience_s}"
        ));
    }
    let (name, qubits) = (machine.name(), machine.num_qubits());
    if mean_width > qubits as f64 {
        return over_cap(format!(
            "mean_width {mean_width} exceeds {name}'s {qubits} qubits"
        ));
    }
    if circuits as usize > machine.max_batch_size() {
        return over_cap(format!("{circuits} circuits exceed {name}'s batch cap"));
    }
    if shots > machine.max_shots() {
        return over_cap(format!("{shots} shots exceed {name}'s shot cap"));
    }
    Ok(())
}

/// Maps wall-clock elapsed time onto the simulation clock.
#[derive(Debug)]
struct SimClock {
    started: Instant,
    compression: f64,
}

impl SimClock {
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * self.compression
    }
}

/// Per-connection read-path limits, derived from [`GatewayConfig`].
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    idle_timeout: Duration,
    max_line_bytes: usize,
}

struct State {
    cloud: LiveCloud,
    next_id: u64,
    buckets: Vec<TokenBucket>,
    metrics: GatewayMetrics,
    max_pending: usize,
    /// The online queue-wait predictor. Behind its own mutex (not just
    /// the state lock) because the [`LiveCloud`] record tap — which runs
    /// while the state lock is held — and each connection's refit — which
    /// runs while it is not — need a handle independent of `State`. The
    /// predictor mutex is taken either second (state → predictor: the
    /// tap's fold, `PREDICT`, `METRICS`) or alone (a connection taking or
    /// installing a refit), never first of two, so the pair cannot
    /// deadlock.
    online: Arc<Mutex<OnlinePredictor>>,
}

impl State {
    /// Advance the simulator to the clock's "now" and refresh the
    /// finished counters.
    fn advance(&mut self, now_s: f64) {
        self.cloud.step_until(now_s);
        self.reconcile_finished();
    }

    /// Mirror the simulator's outcome tallies into the metrics. Counting
    /// drained records would read zero under `RecordSink::Streaming`
    /// (terminal records fold into sketches instead of materializing);
    /// the tallies are sink-independent.
    fn reconcile_finished(&mut self) {
        self.metrics.finished = self.cloud.outcome_counts();
    }

    fn resolve_machine(&self, token: &str) -> Option<usize> {
        let fleet = self.cloud.fleet();
        if let Ok(index) = token.parse::<usize>() {
            return (index < fleet.len()).then_some(index);
        }
        fleet.index_of(token)
    }

    fn respond(&mut self, request: &Request, now_s: f64) -> Response {
        self.advance(now_s);
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
                bump(&mut self.metrics.submitted);
                let Some(machine_idx) = self.resolve_machine(machine) else {
                    bump(&mut self.metrics.rejected_invalid);
                    return Response::err(
                        ErrorCode::UnknownMachine,
                        format!("unknown machine {machine:?}"),
                    );
                };
                if *provider as usize >= self.buckets.len() {
                    bump(&mut self.metrics.rejected_invalid);
                    return Response::err(
                        ErrorCode::UnknownProvider,
                        format!("unknown provider {provider}"),
                    );
                }
                if *circuits == 0 || *shots == 0 {
                    bump(&mut self.metrics.rejected_invalid);
                    return Response::err(ErrorCode::EmptyBatch, "circuits and shots must be >= 1");
                }
                if let Err(error) = check_job_shape(
                    &self.cloud.fleet().machines()[machine_idx],
                    *circuits,
                    *shots,
                    *mean_depth,
                    *mean_width,
                    *patience_s,
                ) {
                    bump(&mut self.metrics.rejected_invalid);
                    return Response::Err(error);
                }
                if !self.buckets[*provider as usize].try_take(self.cloud.now_s()) {
                    bump(&mut self.metrics.rejected_rate);
                    return Response::Busy(format!("rate limit: provider {provider}"));
                }
                if self.cloud.queue_depth(machine_idx) >= self.max_pending {
                    bump(&mut self.metrics.rejected_backpressure);
                    return Response::Busy(format!(
                        "queue full: machine {} at {} pending",
                        machine, self.max_pending
                    ));
                }
                let id = self.next_id;
                let spec = JobSpec {
                    id,
                    provider: *provider,
                    machine: machine_idx,
                    circuits: *circuits,
                    shots: *shots,
                    mean_depth: *mean_depth,
                    mean_width: *mean_width,
                    // Equal to the live clock, so never behind it or
                    // behind a pending arrival.
                    submit_s: self.cloud.now_s(),
                    is_study: true,
                    patience_s: *patience_s,
                };
                match self.cloud.submit(spec) {
                    Ok(()) => {
                        self.next_id += 1;
                        bump(&mut self.metrics.accepted);
                        Response::Ok(id)
                    }
                    Err(err) => {
                        bump(&mut self.metrics.rejected_invalid);
                        Response::err(ErrorCode::Rejected, err.to_string())
                    }
                }
            }
            Request::Status(id) => Response::Status {
                id: *id,
                state: self
                    .cloud
                    .status(*id)
                    .map_or_else(|| "unknown".to_string(), |s| s.to_string()),
            },
            Request::Cancel(id) => {
                if self.cloud.cancel(*id) {
                    bump(&mut self.metrics.cancelled_via_api);
                    // Pick the cancellation outcome (if the job had already
                    // entered service) up immediately, not on the next
                    // advance.
                    self.reconcile_finished();
                    Response::Ok(*id)
                } else {
                    Response::err(
                        ErrorCode::NotCancellable,
                        format!("job {id} is not cancellable"),
                    )
                }
            }
            Request::Queue(machine) => match self.resolve_machine(machine) {
                Some(index) => Response::Queue {
                    machine: self.cloud.fleet().machines()[index].name().to_string(),
                    depth: self.cloud.queue_depth(index),
                },
                None => Response::err(
                    ErrorCode::UnknownMachine,
                    format!("unknown machine {machine:?}"),
                ),
            },
            Request::Predict {
                machine,
                circuits,
                shots,
            } => {
                let Some(machine_idx) = self.resolve_machine(machine) else {
                    return Response::err(
                        ErrorCode::UnknownMachine,
                        format!("unknown machine {machine:?}"),
                    );
                };
                if *circuits == 0 || *shots == 0 {
                    return Response::err(ErrorCode::EmptyBatch, "circuits and shots must be >= 1");
                }
                let pending = self.cloud.queue_depth(machine_idx);
                let estimate = lock(&self.online).predict(machine_idx, *circuits, *shots, pending);
                match estimate {
                    Ok(est) => {
                        bump(&mut self.metrics.predictions_served);
                        Response::Predict {
                            machine: self.cloud.fleet().machines()[machine_idx]
                                .name()
                                .to_string(),
                            wait_s: est.wait_s,
                            lo_s: est.wait_lo_s,
                            hi_s: est.wait_hi_s,
                            run_s: est.run_s,
                        }
                    }
                    Err(PredictError::NotReady) => {
                        Response::err(ErrorCode::NotReady, "no completed jobs observed yet")
                    }
                }
            }
            Request::Metrics => {
                let mut pairs = self.metrics.pairs();
                pairs.push((
                    "sim_time_s".to_string(),
                    format!("{:.3}", self.cloud.now_s()),
                ));
                {
                    let online = lock(&self.online);
                    pairs.push((
                        "predictor_observed".to_string(),
                        online.observed().to_string(),
                    ));
                    pairs.push((
                        "predictor_mae_min".to_string(),
                        format!("{:.3}", online.median_abs_error_min()),
                    ));
                    pairs.push((
                        "predictor_band_coverage".to_string(),
                        format!("{:.3}", online.band_coverage()),
                    ));
                    pairs.push(("predictor_refits".to_string(), online.refits().to_string()));
                    pairs.push((
                        "predictor_rows_since_refit".to_string(),
                        online.rows_since_refit().to_string(),
                    ));
                }
                Response::Metrics(pairs)
            }
            Request::Quit => Response::Bye,
        }
    }
}

/// A running gateway. Dropping it (or calling
/// [`shutdown_and_drain`](Gateway::shutdown_and_drain)) stops the accept
/// loop and joins every connection handler.
pub struct Gateway {
    addr: SocketAddr,
    state: Option<Arc<Mutex<State>>>,
    clock: Arc<SimClock>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    panics: Arc<AtomicUsize>,
}

impl Gateway {
    /// Bind a loopback port and start serving, every machine up.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        fleet: Fleet,
        cloud_config: CloudConfig,
        config: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        let outages = OutagePlan::none(fleet.len());
        Gateway::start_with_outages(fleet, cloud_config, config, outages)
    }

    /// Bind a loopback port and start serving, with machine outage windows
    /// threaded into the [`LiveCloud`]: jobs on a machine that is down
    /// wait out its window.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    ///
    /// # Panics
    ///
    /// Panics if the outage windows cover a different number of machines
    /// than the fleet (a configuration error, not peer input).
    pub fn start_with_outages(
        fleet: Fleet,
        cloud_config: CloudConfig,
        config: GatewayConfig,
        outages: OutagePlan,
    ) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let machine_qubits: Vec<usize> = fleet.machines().iter().map(|m| m.num_qubits()).collect();
        let online = Arc::new(Mutex::new(OnlinePredictor::new(machine_qubits)));
        // Every terminal record — under any RecordSink — is folded into
        // the online predictor. The tap fires inside cloud.step_until(),
        // i.e. while the state lock is held, and the fold is O(1); the
        // windowed refit is each connection's to run between requests
        // (see `refit_off_lock`).
        let tap_online = Arc::clone(&online);
        let cloud = LiveCloud::new(fleet, cloud_config)
            .with_outages(outages)
            .with_status_tracking()
            .with_record_tap(Box::new(move |record| {
                lock(&tap_online).observe(record);
            }));
        let state = Arc::new(Mutex::new(State {
            cloud,
            next_id: 0,
            buckets: (0..cloud_config.num_providers)
                .map(|_| TokenBucket::new(config.rate_capacity, config.rate_refill_per_s))
                .collect(),
            metrics: GatewayMetrics::default(),
            max_pending: config.max_pending_per_machine,
            online: Arc::clone(&online),
        }));
        let clock = Arc::new(SimClock {
            started: Instant::now(),
            compression: config.time_compression,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let limits = ConnLimits {
            read_timeout: config
                .idle_timeout
                .clamp(Duration::from_millis(1), READ_POLL),
            idle_timeout: config.idle_timeout,
            max_line_bytes: config.max_line_bytes.max(1),
        };
        let panics = Arc::new(AtomicUsize::new(0));

        let accept_state = Arc::clone(&state);
        let accept_clock = Arc::clone(&clock);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_panics = Arc::clone(&panics);
        let accept_handle = std::thread::Builder::new()
            .name("qcs-gateway-accept".to_string())
            .spawn(move || {
                let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    bump(&mut lock(&accept_state).metrics.connections);
                    sessions.retain(|session| !session.is_finished());
                    if sessions.len() >= MAX_SESSIONS {
                        let refusal = Response::Busy("connection limit".to_string());
                        let _ = writeln!(stream, "{refusal}");
                        continue;
                    }
                    let state = Arc::clone(&accept_state);
                    let online = Arc::clone(&online);
                    let clock = Arc::clone(&accept_clock);
                    let panics = Arc::clone(&accept_panics);
                    let session = std::thread::Builder::new()
                        .name("qcs-gateway-session".to_string())
                        .spawn(move || {
                            let serve = std::panic::AssertUnwindSafe(|| {
                                handle_connection(stream, &state, &online, &clock, limits);
                            });
                            if std::panic::catch_unwind(serve).is_err() {
                                panics.fetch_add(1, Ordering::SeqCst);
                            }
                        });
                    // A failed spawn drops the closure and the stream in
                    // it: the peer sees the connection close.
                    if let Ok(session) = session {
                        sessions.push(session);
                    }
                }
                for session in sessions {
                    let _ = session.join();
                }
            })?;

        Ok(Gateway {
            addr,
            state: Some(state),
            clock,
            shutdown,
            accept_handle: Some(accept_handle),
            panics,
        })
    }

    /// The bound loopback address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current simulation time as seen by the gateway clock.
    #[must_use]
    pub fn sim_now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Per-provider lifetime charged seconds (undecayed) summed over this
    /// shard's machines — the shard-local half of the cross-shard
    /// conservation law. Zeros after `shutdown_and_drain` has taken the
    /// state.
    #[must_use]
    pub fn charged_seconds_by_provider(&self) -> Vec<f64> {
        self.state
            .as_ref()
            .map(|state| lock(state).cloud.charged_seconds_by_provider())
            .unwrap_or_default()
    }

    /// Per-provider seconds executed on this shard's machines so far (see
    /// [`LiveCloud::executed_seconds_by_provider`]).
    #[must_use]
    pub fn executed_seconds_by_provider(&self) -> Vec<f64> {
        self.state
            .as_ref()
            .map(|state| lock(state).cloud.executed_seconds_by_provider())
            .unwrap_or_default()
    }

    /// Install cross-shard fair-share usage observed on *other* shards
    /// (see [`LiveCloud::inject_external_usage`]): the provider's queues
    /// here start ordering against its fleet-wide footprint, while this
    /// shard's undecayed `charged_raw` ledger stays untouched.
    pub fn inject_external_usage(&self, provider: u32, seconds: f64) {
        if let Some(state) = &self.state {
            lock(state).cloud.inject_external_usage(provider, seconds);
        }
    }

    /// Connection-handler panics caught on their session threads so far.
    /// This must stay `0`: no peer input is allowed to panic a handler.
    #[must_use]
    pub fn handler_panics(&self) -> usize {
        self.panics.load(Ordering::SeqCst)
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Poke the blocking accept so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    /// Stop accepting connections, wait for in-flight handlers, run the
    /// simulation to completion, and return the final result and the
    /// gateway counters.
    #[must_use]
    pub fn shutdown_and_drain(mut self) -> (SimulationResult, GatewayMetrics) {
        self.stop_accepting();
        // The state is taken only here (this method consumes `self`), and
        // the accept thread joined every session before it exited, so the
        // gateway holds the only clone: the fallback is unreachable.
        let Some(state) = self.state.take().and_then(Arc::into_inner) else {
            return (SimulationResult::default(), GatewayMetrics::default());
        };
        let State {
            mut cloud,
            mut metrics,
            ..
        } = state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cloud.run_to_completion();
        // Sink-independent final tally (see `State::reconcile_finished`).
        metrics.finished = cloud.outcome_counts();
        (cloud.into_result(), metrics)
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Lock `mutex`, recovering from poison. A handler that panicked
/// mid-request poisons what it held, but what sits behind the gateway's
/// mutexes is consistent between calls — the simulator and counters are
/// left in a consistent snapshot by every early return, the online
/// predictor's updates are single-record folds — so recover rather than
/// cascade.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One attempt to read a request line under the connection limits.
enum LineRead {
    /// A complete line (newline stripped), or the final unterminated
    /// frame before EOF — still answered, so a truncated `SUBMIT` on a
    /// half-closed socket gets its `ERR` where the write half survives.
    Line(Vec<u8>),
    /// Clean close.
    Eof,
    /// No complete line within the idle deadline: reap the connection.
    Idle,
    /// The line exceeded `max_line_bytes`.
    TooLong,
    /// Unrecoverable transport error.
    Failed,
}

/// Read one newline-terminated line, never buffering more than
/// `limits.max_line_bytes + 1` bytes. The line must complete within
/// `limits.idle_timeout` of the call: the deadline is checked after every
/// `fill_buf` return that leaves the line incomplete, so neither silence
/// (woken every [`READ_POLL`]) nor a dribble of bytes outlives it.
fn read_request_line(reader: &mut BufReader<TcpStream>, limits: ConnLimits) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let started = Instant::now();
    loop {
        let (used, complete) = match reader.fill_buf() {
            Ok([]) if buf.is_empty() => return LineRead::Eof,
            Ok([]) => return LineRead::Line(buf),
            Ok(available) => {
                let budget = limits.max_line_bytes + 1 - buf.len();
                let window = &available[..available.len().min(budget)];
                match window.iter().position(|&b| b == b'\n') {
                    Some(newline) => {
                        buf.extend_from_slice(&window[..newline]);
                        (newline + 1, true)
                    }
                    None => {
                        buf.extend_from_slice(window);
                        (window.len(), false)
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                (0, false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        reader.consume(used);
        if complete {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return LineRead::Line(buf);
        }
        if buf.len() > limits.max_line_bytes {
            return LineRead::TooLong;
        }
        if started.elapsed() >= limits.idle_timeout {
            return LineRead::Idle;
        }
    }
}

/// Write one response line.
///
/// `buf` is a per-connection scratch buffer reused across responses, so
/// the reply path does not allocate a fresh `String` per frame — on the
/// sustained-submit bench the encode buffer reaches steady state after
/// the first response.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    // Formatting into a Vec<u8> is infallible; any error here would be a
    // Display bug, which the protocol tests would catch.
    let _ = writeln!(buf, "{response}");
    stream.write_all(buf)
}

/// Run the runtime-model refit if one is due, holding the predictor mutex
/// only to copy the window out and to publish the result: the
/// Levenberg–Marquardt iterations run with no lock held, so they delay
/// the calling connection (or `FleetSim` step) and nobody else.
pub(crate) fn refit_off_lock(online: &Arc<Mutex<OnlinePredictor>>) {
    let job = lock(online).take_refit();
    if let Some(job) = job {
        let refit = job.run();
        lock(online).install(refit);
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &Arc<Mutex<State>>,
    online: &Arc<Mutex<OnlinePredictor>>,
    clock: &Arc<SimClock>,
    limits: ConnLimits,
) {
    if stream.set_read_timeout(Some(limits.read_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Reply-path scratch reused for every response on this connection.
    let mut encode_buf = Vec::new();
    loop {
        let raw = match read_request_line(&mut reader, limits) {
            LineRead::Line(raw) => raw,
            LineRead::Eof | LineRead::Failed => return,
            LineRead::Idle => {
                bump(&mut lock(state).metrics.reaped_idle);
                return;
            }
            LineRead::TooLong => {
                bump(&mut lock(state).metrics.protocol_errors);
                let response = Response::err(
                    ErrorCode::LineTooLong,
                    format!("line exceeds {} bytes", limits.max_line_bytes),
                );
                // The rest of the oversized line is unread; close rather
                // than resynchronize.
                let _ = write_response(&mut writer, &response, &mut encode_buf);
                return;
            }
        };
        let Ok(line) = String::from_utf8(raw) else {
            bump(&mut lock(state).metrics.protocol_errors);
            let response = Response::err(ErrorCode::NotUtf8, "request line is not valid UTF-8");
            if write_response(&mut writer, &response, &mut encode_buf).is_err() {
                return;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        #[cfg(test)]
        if line == tests::PANIC_LINE {
            panic!("test-triggered handler panic");
        }
        let now_s = clock.now_s();
        let (response, quit) = match Request::parse(&line) {
            Ok(Request::Quit) => (Response::Bye, true),
            Ok(request) => (lock(state).respond(&request, now_s), false),
            Err(error) => {
                bump(&mut lock(state).metrics.protocol_errors);
                (Response::Err(error), false)
            }
        };
        if write_response(&mut writer, &response, &mut encode_buf).is_err() || quit {
            return;
        }
        // The reply is on the wire and no lock is held: the completions
        // this request's step folded may have made a refit due.
        refit_off_lock(online);
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    use super::*;

    /// A gateway with a frozen simulation clock: jobs queue, nothing
    /// completes, every admission decision is deterministic.
    fn frozen(config: GatewayConfig) -> Gateway {
        let cloud_config = CloudConfig {
            audit: true,
            ..CloudConfig::default()
        };
        Gateway::start(
            Fleet::ibm_like(),
            cloud_config,
            GatewayConfig {
                time_compression: 0.0,
                ..config
            },
        )
        .expect("bind loopback")
    }

    fn roundtrip(client: &mut crate::GatewayClient, line: &str) -> Response {
        client
            .request(&Request::parse(line).expect("test request parses"))
            .expect("request round-trips")
    }

    /// The request line on which a test build's session handler panics
    /// (in a release build it is an unknown verb).
    pub(super) const PANIC_LINE: &str = "PANIC";

    /// A handler panic is contained to its session: three sessions panic
    /// mid-request while another keeps getting correct replies, each panic
    /// is caught on its own thread and counted, and the drain audits clean.
    #[test]
    fn handler_panics_are_contained_to_their_session() {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let triggered = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.starts_with("test-triggered"));
                if !triggered {
                    default(info);
                }
            }));
        });
        const PANICKING: usize = 3;
        let gateway = frozen(GatewayConfig::default());
        let mut survivor = crate::GatewayClient::connect(gateway.addr()).unwrap();
        for n in 0..PANICKING {
            let mut doomed = TcpStream::connect(gateway.addr()).unwrap();
            doomed
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            writeln!(doomed, "{PANIC_LINE}").unwrap();
            let mut reply = Vec::new();
            doomed.read_to_end(&mut reply).unwrap();
            assert!(reply.is_empty(), "a panicking session answered {reply:?}");
            assert_eq!(
                roundtrip(&mut survivor, "SUBMIT 0 1 10 1024 20 3"),
                Response::Ok(n as u64)
            );
            assert_eq!(survivor.queue_depth("1").unwrap(), n + 1);
        }
        // The count lands once the unwinding thread leaves `catch_unwind`.
        let deadline = Instant::now() + Duration::from_secs(5);
        while gateway.handler_panics() < PANICKING && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(gateway.handler_panics(), PANICKING);
        survivor.quit().unwrap();
        let (result, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.accepted, PANICKING as u64);
        assert_eq!(metrics.connections, PANICKING as u64 + 1);
        result.audit.expect("audit enabled").assert_clean();
    }

    #[test]
    fn submit_status_cancel_lifecycle() {
        let gateway = frozen(GatewayConfig::default());
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        assert_eq!(
            roundtrip(&mut client, "SUBMIT 0 1 10 1024 20 3"),
            Response::Ok(0)
        );
        assert_eq!(
            roundtrip(&mut client, "SUBMIT 1 1 10 1024 20 3"),
            Response::Ok(1)
        );
        // Frozen clock: job 0 is running (dispatched at t=0), job 1 queued.
        assert_eq!(client.status(0).unwrap(), "running");
        assert_eq!(client.status(1).unwrap(), "queued");
        assert_eq!(client.status(99).unwrap(), "unknown");
        assert_eq!(client.queue_depth("1").unwrap(), 2);
        assert_eq!(roundtrip(&mut client, "CANCEL 1"), Response::Ok(1));
        assert_eq!(client.status(1).unwrap(), "cancelled");
        match roundtrip(&mut client, "CANCEL 0") {
            Response::Err(error) => {
                assert_eq!(error.code, ErrorCode::NotCancellable);
                assert!(error.detail.contains("not cancellable"));
            }
            other => panic!("expected ERR, got {other}"),
        }
        client.quit().unwrap();
        let (result, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.accepted, 2);
        assert_eq!(metrics.cancelled_via_api, 1);
        assert_eq!(result.total_jobs, 2);
        assert_eq!(metrics.finished.iter().sum::<u64>(), 2);
        result.audit.expect("audit enabled").assert_clean();
    }

    #[test]
    fn invalid_submissions_are_err_not_busy() {
        let gateway = frozen(GatewayConfig::default());
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        for (line, code) in [
            (
                "SUBMIT 0 no-such-machine 10 1024 20 3",
                ErrorCode::UnknownMachine,
            ),
            ("SUBMIT 9999 1 10 1024 20 3", ErrorCode::UnknownProvider),
            ("SUBMIT 0 1 0 1024 20 3", ErrorCode::EmptyBatch),
            // Parsable, implausible: each would otherwise reach the DES.
            ("SUBMIT 0 1 10 1024 1e18 3", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 inf 3", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 NaN 3", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 0.5 3", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 NaN", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 0", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 3 -50", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 3 NaN", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 inf", ErrorCode::BadField),
            ("SUBMIT 0 1 10 1024 20 6", ErrorCode::Rejected), // athens has 5 qubits
            ("SUBMIT 0 1 901 1024 20 3", ErrorCode::Rejected),
            ("SUBMIT 0 1 10 8193 20 3", ErrorCode::Rejected),
            ("SUBMIT 0 1 4000000000 4000000000 20 3", ErrorCode::Rejected),
        ] {
            match roundtrip(&mut client, line) {
                Response::Err(error) => assert_eq!(error.code, code, "for {line:?}"),
                other => panic!("expected ERR for {line:?}, got {other}"),
            }
        }
        client.quit().unwrap();
        // A wire-level malformed line (unparsable client-side) still gets
        // a well-formed, typed ERR response.
        let mut raw = TcpStream::connect(gateway.addr()).unwrap();
        raw.write_all(b"BOGUS 1 2 3\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&raw).read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR UNKNOWN_VERB") && reply.contains("BOGUS"),
            "got {reply:?}"
        );
        drop(raw);
        let (result, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.rejected_invalid, 16);
        assert_eq!(metrics.submitted, 16);
        assert_eq!(metrics.protocol_errors, 1);
        assert_eq!(metrics.accepted, 0);
        assert_eq!(result.total_jobs, 0);
    }

    #[test]
    fn rate_limit_and_backpressure_reply_busy() {
        let gateway = frozen(GatewayConfig {
            rate_capacity: 2.0,
            rate_refill_per_s: 0.0,
            max_pending_per_machine: 1,
            ..GatewayConfig::default()
        });
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        // First submit fills machine 1 to its bound of 1.
        assert_eq!(
            roundtrip(&mut client, "SUBMIT 0 1 10 1024 20 3"),
            Response::Ok(0)
        );
        // Same provider, different machine: token available, but now
        // try the *full* machine -> backpressure.
        match roundtrip(&mut client, "SUBMIT 0 1 10 1024 20 3") {
            Response::Busy(reason) => assert!(reason.contains("queue full"), "{reason}"),
            other => panic!("expected BUSY, got {other}"),
        }
        // Bucket for provider 0 is now empty (2 tokens spent, refill 0).
        match roundtrip(&mut client, "SUBMIT 0 2 10 1024 20 3") {
            Response::Busy(reason) => assert!(reason.contains("rate limit"), "{reason}"),
            other => panic!("expected BUSY, got {other}"),
        }
        // A different provider still has tokens and machine 2 is empty.
        assert_eq!(
            roundtrip(&mut client, "SUBMIT 1 2 10 1024 20 3"),
            Response::Ok(1)
        );
        let pairs = client.metrics().unwrap();
        let get = |k: &str| {
            pairs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("submitted"), "4");
        assert_eq!(get("accepted"), "2");
        assert_eq!(get("rejected_rate"), "1");
        assert_eq!(get("rejected_backpressure"), "1");
        client.quit().unwrap();
        let (result, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.rejected_backpressure, 1);
        assert_eq!(result.total_jobs, 2);
    }

    #[test]
    fn metrics_reply_key_list_is_pinned() {
        let gateway = frozen(GatewayConfig::default());
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        let pairs = client.metrics().unwrap();
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        // The wire surface of `METRICS`, in reply order: the gateway's
        // counters, the live clock, then the online predictor's gauges.
        assert_eq!(
            keys,
            [
                "submitted",
                "accepted",
                "rejected_rate",
                "rejected_backpressure",
                "rejected_invalid",
                "cancelled_via_api",
                "completed",
                "errored",
                "cancelled",
                "connections",
                "protocol_errors",
                "reaped_idle",
                "predictions_served",
                "sim_time_s",
                "predictor_observed",
                "predictor_mae_min",
                "predictor_band_coverage",
                "predictor_refits",
                "predictor_rows_since_refit",
            ]
        );
        client.quit().unwrap();
        let (_, _) = gateway.shutdown_and_drain();
    }

    #[test]
    fn predict_on_the_wire_rejects_before_any_completion() {
        let gateway = frozen(GatewayConfig::default());
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        // Frozen clock: nothing ever completes, so PREDICT is a typed ERR.
        match roundtrip(&mut client, "PREDICT 1 10 1024") {
            Response::Err(error) => assert_eq!(error.code, ErrorCode::NotReady),
            other => panic!("expected ERR NOT_READY, got {other}"),
        }
        match roundtrip(&mut client, "PREDICT no-such-machine 10 1024") {
            Response::Err(error) => assert_eq!(error.code, ErrorCode::UnknownMachine),
            other => panic!("expected ERR, got {other}"),
        }
        match roundtrip(&mut client, "PREDICT 1 0 1024") {
            Response::Err(error) => assert_eq!(error.code, ErrorCode::EmptyBatch),
            other => panic!("expected ERR, got {other}"),
        }
        client.quit().unwrap();
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.predictions_served, 0, "rejections never count");
    }

    /// Drives `State::respond` directly with a synthetic clock so the
    /// served-estimate path is deterministic (no wall-clock compression).
    #[test]
    fn predict_serves_estimates_after_completions() {
        let fleet = Fleet::ibm_like();
        let cloud_config = CloudConfig::default();
        let machine_qubits: Vec<usize> = fleet.machines().iter().map(|m| m.num_qubits()).collect();
        let online = Arc::new(Mutex::new(OnlinePredictor::new(machine_qubits)));
        let tap = Arc::clone(&online);
        let cloud = LiveCloud::new(fleet, cloud_config)
            .with_status_tracking()
            .with_record_tap(Box::new(move |record| lock(&tap).observe(record)));
        let mut state = State {
            cloud,
            next_id: 0,
            buckets: (0..cloud_config.num_providers)
                .map(|_| TokenBucket::new(64.0, 1.0))
                .collect(),
            metrics: GatewayMetrics::default(),
            max_pending: 256,
            online,
        };
        let predict = Request::parse("PREDICT 1 10 1024").expect("parses");
        match state.respond(&predict, 0.0) {
            Response::Err(error) => assert_eq!(error.code, ErrorCode::NotReady),
            other => panic!("expected ERR NOT_READY, got {other}"),
        }
        let submit = Request::parse("SUBMIT 0 1 10 1024 20 3").expect("parses");
        for _ in 0..5 {
            assert!(matches!(state.respond(&submit, 0.0), Response::Ok(_)));
        }
        // Advance far enough that every submitted job has completed and
        // the tap has fed the predictor.
        match state.respond(&predict, 1e7) {
            Response::Predict {
                machine,
                wait_s,
                lo_s,
                hi_s,
                run_s,
            } => {
                assert_eq!(machine, Fleet::ibm_like().machines()[1].name());
                assert!(wait_s >= 0.0 && wait_s.is_finite());
                assert!(lo_s <= hi_s, "band inverted: [{lo_s}, {hi_s}]");
                assert!(run_s > 0.0 && run_s.is_finite());
            }
            other => panic!("expected PREDICT, got {other}"),
        }
        assert_eq!(state.metrics.predictions_served, 1);
        match state.respond(&Request::Metrics, 1e7) {
            Response::Metrics(pairs) => {
                let get = |k: &str| {
                    pairs
                        .iter()
                        .find(|(key, _)| key == k)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_else(|| panic!("METRICS reply missing {k}"))
                };
                assert_eq!(get("predictions_served"), "1");
                let observed: u64 = get("predictor_observed").parse().expect("u64");
                assert!(observed >= 5, "tap fed {observed} records");
                let mae: f64 = get("predictor_mae_min").parse().expect("f64");
                assert!(mae.is_finite() && mae >= 0.0);
                let coverage: f64 = get("predictor_band_coverage").parse().expect("f64");
                assert!((0.0..=1.0).contains(&coverage));
            }
            other => panic!("expected METRICS, got {other}"),
        }
    }

    /// The windowed refit runs on the serving path — between requests, on
    /// the connection whose step made it due — and `PREDICT` serves its
    /// coefficients from the next request on.
    #[test]
    fn online_refit_runs_between_requests_on_the_connection() {
        let gateway = Gateway::start(
            Fleet::ibm_like(),
            CloudConfig {
                error_rate: 0.0,
                ..CloudConfig::default()
            },
            GatewayConfig {
                // Running clock, compressed so hours of queued work
                // complete within milliseconds of polling.
                time_compression: 1e6,
                rate_capacity: 1e9,
                max_pending_per_machine: 100_000,
                ..GatewayConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        fn metric(client: &mut crate::GatewayClient, key: &str) -> u64 {
            let pairs = client.metrics().unwrap();
            let value = pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.parse());
            value
                .unwrap_or_else(|| panic!("METRICS reply missing {key}"))
                .unwrap()
        }
        // Depth and width are the same on every job, so the running means
        // PREDICT fills in never move: `run_s` for a fixed request changes
        // only when the coefficients do.
        let mut submitted = 0;
        let mut submit_and_complete =
            |client: &mut crate::GatewayClient, jobs: u32, circuits: u32, shots: u32| {
                for i in 0..jobs {
                    let line = format!("SUBMIT 0 1 {} {shots} 20 3", circuits + i % 7);
                    assert!(matches!(roundtrip(client, &line), Response::Ok(_)));
                }
                submitted += u64::from(jobs);
                let deadline = Instant::now() + Duration::from_secs(30);
                while metric(client, "predictor_observed") < submitted {
                    assert!(Instant::now() < deadline, "jobs never completed");
                    std::thread::sleep(Duration::from_millis(1));
                }
            };

        submit_and_complete(&mut client, 40, 5, 1024);
        let before = client.predict("1", 50, 4096).unwrap().run_s;
        assert_eq!(metric(&mut client, "predictor_refits"), 1, "the cold fit");
        assert_eq!(metric(&mut client, "predictor_rows_since_refit"), 24);

        // 80 further completions of a different shape make a refit due;
        // it runs after the reply of whichever request stepped past them.
        submit_and_complete(&mut client, 80, 100, 8192);
        let after = client.predict("1", 50, 4096).unwrap().run_s;
        assert!(metric(&mut client, "predictor_refits") >= 2);
        assert!(metric(&mut client, "predictor_rows_since_refit") < 64);
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "PREDICT still serves the cold fit"
        );
        client.quit().unwrap();
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.finished, [120, 0, 0]);
    }

    #[test]
    fn machines_resolve_by_name_and_index() {
        let gateway = frozen(GatewayConfig::default());
        let name = gateway_fleet_name();
        let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
        let by_name = roundtrip(&mut client, &format!("SUBMIT 0 {name} 10 1024 20 1"));
        assert_eq!(by_name, Response::Ok(0));
        assert_eq!(client.queue_depth(&name).unwrap(), 1);
        assert_eq!(client.queue_depth("0").unwrap(), 1);
        client.quit().unwrap();
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.accepted, 1);
    }

    fn gateway_fleet_name() -> String {
        Fleet::ibm_like().machines()[0].name().to_string()
    }

    /// How many clients a gateway talks to at once is not a function of
    /// the host's core count.
    #[test]
    fn default_gateway_serves_more_sessions_than_cores() {
        let gateway = frozen(GatewayConfig::default());
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut held = Vec::new();
        for session in 0..cores + 2 {
            let mut client =
                crate::GatewayClient::connect_with_timeout(gateway.addr(), Duration::from_secs(1))
                    .unwrap();
            let depth = client.queue_depth("0");
            assert!(
                matches!(depth, Ok(0)),
                "session {session} of {} unanswered with the earlier ones held open: {depth:?}",
                cores + 2
            );
            held.push(client);
        }
        drop(held);
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.connections, cores as u64 + 2);
    }

    #[test]
    fn connections_over_the_session_limit_are_refused_busy() {
        let gateway = frozen(GatewayConfig::default());
        let mut held: Vec<crate::GatewayClient> = (0..MAX_SESSIONS)
            .map(|_| {
                let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
                // A round trip: this session has its thread.
                assert_eq!(client.queue_depth("0").unwrap(), 0);
                client
            })
            .collect();
        // One over: told why, then closed.
        let over = TcpStream::connect(gateway.addr()).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = String::new();
        BufReader::new(&over).read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "BUSY connection limit\n");
        // Closing one session admits the next connection, as soon as the
        // closed session's thread has finished.
        held.pop().unwrap().quit().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let admitted = loop {
            let mut client = crate::GatewayClient::connect(gateway.addr()).unwrap();
            match client.queue_depth("0") {
                Ok(_) => break client,
                Err(refused) => assert!(
                    Instant::now() < deadline,
                    "still refused after a session closed: {refused:?}"
                ),
            }
        };
        drop((held, admitted));
        assert_eq!(gateway.handler_panics(), 0);
        let (_, metrics) = gateway.shutdown_and_drain();
        assert!(metrics.connections >= MAX_SESSIONS as u64 + 2);
    }

    /// Framing at the line reader: `\r\n` is stripped, two lines in one
    /// segment are two requests, a line of exactly `max_line_bytes` (a
    /// `\r` counts) is parsed, and one byte more is `LINE_TOO_LONG` then
    /// close.
    #[test]
    fn line_reader_frames_crlf_pipelined_and_capped_lines() {
        let gateway = frozen(GatewayConfig {
            max_line_bytes: 16,
            ..GatewayConfig::default()
        });
        let mut raw = TcpStream::connect(gateway.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut reply = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        raw.write_all(b"QUEUE 0\r\nQUEUE 1\n").unwrap();
        assert!(reply().starts_with("QUEUE "));
        assert!(reply().starts_with("QUEUE "));
        raw.write_all(b"XXXXXXXXXXXXXXX\r\nXXXXXXXXXXXXXXXX\n")
            .unwrap();
        assert!(reply().starts_with("ERR UNKNOWN_VERB"));
        assert!(reply().starts_with("ERR UNKNOWN_VERB"));
        // No newline: the 17th byte alone breaks the cap, and nothing is
        // left unread to turn the close into a reset.
        raw.write_all(b"XXXXXXXXXXXXXXXXX").unwrap();
        assert!(reply().starts_with("ERR LINE_TOO_LONG"));
        assert_eq!(reply(), "", "closed after LINE_TOO_LONG");
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.protocol_errors, 3);
    }

    const DRIBBLE_IDLE: Duration = Duration::from_millis(600);

    /// A peer that keeps sending bytes but never a newline is reaped at
    /// the per-line deadline: its bytes do not reset it, because the
    /// deadline runs from the start of the line and is checked after every
    /// read, whether it brought a byte or timed out.
    #[test]
    fn dribbling_peer_is_reaped_at_the_line_deadline() {
        assert_dribbler_reaped(DRIBBLE_IDLE / 3);
    }

    /// The same, one byte every 20 ms: each `recv` restarts the socket's
    /// `READ_POLL` timeout before it fires, so only the per-read deadline
    /// check catches this pace.
    #[test]
    fn dribble_faster_than_the_read_poll_is_reaped_at_the_line_deadline() {
        assert_dribbler_reaped(Duration::from_millis(20));
    }

    /// Dribble one byte per `pace` and assert the gateway closes the
    /// connection in `[idle, 2 × idle)` and counts one idle reap.
    fn assert_dribbler_reaped(pace: Duration) {
        let idle = DRIBBLE_IDLE;
        let gateway = frozen(GatewayConfig {
            idle_timeout: idle,
            ..GatewayConfig::default()
        });
        // Started before the connect, so it cannot trail the server's
        // deadline clock.
        let started = Instant::now();
        let mut stream = TcpStream::connect(gateway.addr()).unwrap();
        // The client's read timeout paces the dribble (one byte every
        // `pace`) and its read is where the server's close shows.
        stream.set_read_timeout(Some(pace)).unwrap();
        let closed_after = loop {
            let elapsed = started.elapsed();
            assert!(elapsed < 2 * idle, "still connected after {elapsed:?}");
            // Fails once the server has closed; the read below says so.
            let _ = stream.write_all(b"S");
            match stream.read(&mut [0u8; 1]) {
                Ok(0) => break started.elapsed(),
                Ok(_) => panic!("a line with no newline was answered"),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {}
                    // Closed with our latest byte still unread.
                    std::io::ErrorKind::ConnectionReset => break started.elapsed(),
                    other => panic!("unexpected read error {other:?}"),
                },
            }
        };
        assert!(
            (idle..2 * idle).contains(&closed_after),
            "reaped after {closed_after:?}, want [{idle:?}, {:?})",
            2 * idle
        );
        let (_, metrics) = gateway.shutdown_and_drain();
        assert_eq!(metrics.reaped_idle, 1);
    }

    #[test]
    fn drop_without_drain_shuts_down_cleanly() {
        let gateway = frozen(GatewayConfig::default());
        let addr = gateway.addr();
        drop(gateway);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly; a read must then hit EOF.
                true
            }
        );
    }
}
