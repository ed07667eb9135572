//! A blocking line-protocol client and a trace-replaying load generator.
//!
//! Every call returns a typed [`GatewayError`] instead of hanging or
//! panicking: reads run under a socket timeout (a server that half-closes
//! or stalls yields [`GatewayError::Timeout`] /
//! [`GatewayError::Disconnected`], never a blocked-forever call). What to
//! do after a failure is the caller's policy: [`GatewayError::is_transient`]
//! says whether a fresh attempt could succeed, and
//! [`GatewayClient::reconnect`] replaces a wedged socket.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qcs_cloud::JobSpec;

use crate::error::GatewayError;
use crate::protocol::{Request, Response};

/// Default per-read socket timeout for [`GatewayClient::connect`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A blocking client over one TCP connection. One request line out, one
/// response line back.
pub struct GatewayClient {
    addr: SocketAddr,
    read_timeout: Duration,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl GatewayClient {
    /// Connect to a gateway with the [`DEFAULT_READ_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`GatewayError`].
    pub fn connect(addr: SocketAddr) -> Result<GatewayClient, GatewayError> {
        GatewayClient::connect_with_timeout(addr, DEFAULT_READ_TIMEOUT)
    }

    /// Connect with an explicit per-read socket timeout. The timeout
    /// bounds each read syscall, so a silent or half-closed server
    /// surfaces as [`GatewayError::Timeout`] instead of a read that
    /// blocks forever.
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`GatewayError`].
    pub fn connect_with_timeout(
        addr: SocketAddr,
        read_timeout: Duration,
    ) -> Result<GatewayClient, GatewayError> {
        let (reader, writer) = open(addr, read_timeout)?;
        Ok(GatewayClient {
            addr,
            read_timeout,
            reader,
            writer,
        })
    }

    /// Drop the current connection and establish a fresh one to the same
    /// address (used after a transport-level failure, where the old
    /// socket may be wedged mid-frame).
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`GatewayError`].
    pub fn reconnect(&mut self) -> Result<(), GatewayError> {
        let (reader, writer) = open(self.addr, self.read_timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Send one request and read the response line.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Timeout`] when no response arrives within the read
    /// timeout, [`GatewayError::Disconnected`] on EOF (including EOF
    /// mid-line: a truncated response frame), [`GatewayError::Protocol`]
    /// when the response line does not parse, [`GatewayError::Io`] for
    /// other transport failures.
    pub fn request(&mut self, request: &Request) -> Result<Response, GatewayError> {
        writeln!(self.writer, "{request}")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(GatewayError::Disconnected);
        }
        if !line.ends_with('\n') {
            // Bytes then EOF with no terminator: a truncated frame.
            return Err(GatewayError::Disconnected);
        }
        Ok(Response::parse(&line)?)
    }

    /// Submit a job described by a [`JobSpec`] (its `id` and `submit_s`
    /// are ignored: the gateway assigns both).
    ///
    /// # Errors
    ///
    /// See [`request`](GatewayClient::request).
    pub fn submit_spec(&mut self, spec: &JobSpec) -> Result<Response, GatewayError> {
        self.request(&Request::Submit {
            provider: spec.provider,
            machine: spec.machine.to_string(),
            circuits: spec.circuits,
            shots: spec.shots,
            mean_depth: spec.mean_depth,
            mean_width: spec.mean_width,
            patience_s: spec.patience_s,
        })
    }

    /// `STATUS <id>`: the job's lifecycle state as a string.
    ///
    /// # Errors
    ///
    /// See [`request`](GatewayClient::request); a well-formed response of
    /// the wrong verb is [`GatewayError::Unexpected`].
    pub fn status(&mut self, id: u64) -> Result<String, GatewayError> {
        match self.request(&Request::Status(id))? {
            Response::Status { state, .. } => Ok(state),
            other => Err(GatewayError::Unexpected(other)),
        }
    }

    /// `QUEUE <machine>`: pending depth of one machine.
    ///
    /// # Errors
    ///
    /// See [`status`](GatewayClient::status).
    pub fn queue_depth(&mut self, machine: &str) -> Result<usize, GatewayError> {
        match self.request(&Request::Queue(machine.to_string()))? {
            Response::Queue { depth, .. } => Ok(depth),
            other => Err(GatewayError::Unexpected(other)),
        }
    }

    /// `PREDICT <machine> <circuits> <shots>`: the gateway's online
    /// queue-wait estimate for a hypothetical submission.
    ///
    /// # Errors
    ///
    /// See [`status`](GatewayClient::status); `ERR NOT_READY` (no
    /// completed job observed yet) arrives as
    /// [`GatewayError::Protocol`]-free `Response::Err` and is surfaced as
    /// [`GatewayError::Unexpected`] by this typed helper — use
    /// [`request`](GatewayClient::request) directly to branch on the code.
    pub fn predict(
        &mut self,
        machine: &str,
        circuits: u32,
        shots: u32,
    ) -> Result<PredictEstimate, GatewayError> {
        match self.request(&Request::Predict {
            machine: machine.to_string(),
            circuits,
            shots,
        })? {
            Response::Predict {
                machine,
                wait_s,
                lo_s,
                hi_s,
                run_s,
            } => Ok(PredictEstimate {
                machine,
                wait_s,
                lo_s,
                hi_s,
                run_s,
            }),
            other => Err(GatewayError::Unexpected(other)),
        }
    }

    /// `METRICS`: the gateway counters as `(key, value)` pairs.
    ///
    /// # Errors
    ///
    /// See [`status`](GatewayClient::status).
    pub fn metrics(&mut self) -> Result<Vec<(String, String)>, GatewayError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(pairs) => Ok(pairs),
            other => Err(GatewayError::Unexpected(other)),
        }
    }

    /// `QUIT`: ask the gateway to close this connection.
    ///
    /// # Errors
    ///
    /// See [`request`](GatewayClient::request).
    pub fn quit(mut self) -> Result<(), GatewayError> {
        match self.request(&Request::Quit)? {
            Response::Bye => Ok(()),
            other => Err(GatewayError::Unexpected(other)),
        }
    }
}

/// A `PREDICT` reply unpacked by [`GatewayClient::predict`]: the resolved
/// machine name plus the gateway's wait estimate (point, 10–90% band) and
/// expected execution time, all in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictEstimate {
    /// Canonical machine name (as resolved by the gateway).
    pub machine: String,
    /// Point estimate of queue wait, seconds.
    pub wait_s: f64,
    /// 10th-percentile band edge, seconds.
    pub lo_s: f64,
    /// 90th-percentile band edge, seconds.
    pub hi_s: f64,
    /// Expected execution time of the batch, seconds.
    pub run_s: f64,
}

fn open(
    addr: SocketAddr,
    read_timeout: Duration,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), GatewayError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let timeout = (!read_timeout.is_zero()).then_some(read_timeout);
    stream.set_read_timeout(timeout)?;
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

/// What a replay run observed, per submission.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Gateway-assigned ids of accepted jobs, in submission order.
    pub accepted_ids: Vec<u64>,
    /// Submissions answered `BUSY` (rate limit or backpressure).
    pub busy: usize,
    /// Submissions answered `ERR`.
    pub rejected: usize,
    /// Submissions abandoned on a transport failure. The job may or may
    /// not have reached the simulator: a `SUBMIT` is not idempotent end to
    /// end, since a fault *after* the server processed it loses only the
    /// reply, so resending it can duplicate the job.
    pub lost: usize,
}

/// Replays a trace of [`JobSpec`]s against a gateway, compressing trace
/// time onto wall time.
pub struct LoadGenerator {
    /// Trace seconds per wall-clock second. Must match (or exceed) the
    /// gateway's own `time_compression` if the replay should preserve the
    /// trace's inter-arrival structure in simulation time.
    pub time_compression: f64,
}

impl LoadGenerator {
    /// A generator replaying at the given compression factor.
    ///
    /// # Panics
    ///
    /// Panics if `time_compression` is not positive.
    #[must_use]
    pub fn new(time_compression: f64) -> Self {
        assert!(time_compression > 0.0, "compression must be positive");
        LoadGenerator { time_compression }
    }

    /// Replay `jobs` over one connection: sleep until each job's
    /// compressed submission instant, then submit it, one attempt per
    /// job. Jobs are sent in `submit_s` order regardless of input order.
    /// A transport failure is counted as [`ReplayReport::lost`] and the
    /// replay continues on a fresh connection.
    ///
    /// # Errors
    ///
    /// The initial connection failure, or a non-transient protocol
    /// error.
    pub fn replay(&self, addr: SocketAddr, jobs: &[JobSpec]) -> Result<ReplayReport, GatewayError> {
        let mut ordered: Vec<&JobSpec> = jobs.iter().collect();
        ordered.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
        let mut client = GatewayClient::connect(addr)?;
        let started = Instant::now();
        let mut report = ReplayReport::default();
        for job in ordered {
            let target = Duration::from_secs_f64(job.submit_s / self.time_compression);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
            match client.submit_spec(job) {
                Ok(Response::Ok(id)) => report.accepted_ids.push(id),
                Ok(Response::Busy(_)) => report.busy += 1,
                Ok(Response::Err(_)) => report.rejected += 1,
                Ok(other) => return Err(GatewayError::Unexpected(other)),
                Err(e) if e.is_transient() => {
                    report.lost += 1;
                    // Leave the wedged socket behind. If this best-effort
                    // reconnect fails too, the next job is lost the same
                    // way and tries again.
                    let _ = client.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
        // The connection may already be gone under fault injection.
        let _ = client.quit();
        Ok(report)
    }
}
