//! Chaos harness for the gateway serving stack.
//!
//! Because [`FaultPlan`] decisions are a pure function of the plan seed
//! and the request-line bytes (`FaultPlan::decide` is public), these
//! tests *predict* which requests will be faulted and assert the exact
//! consequence of every injection:
//!
//! - no handler ever panics except by injection, and every injected
//!   panic is caught on its own session thread;
//! - `shutdown_and_drain` always returns a clean [`AuditReport`] run;
//! - jobs the faults did not touch produce records **bit-identical** to
//!   a fault-free run;
//! - malformed raw bytes (bad arity, non-UTF-8, oversized lines,
//!   truncated frames) get typed `ERR` responses, never a hang or crash;
//! - well-formed `SUBMIT`s carrying implausible numbers are rejected at
//!   admission, so the drain stays bounded;
//! - slow-loris connections are reaped, and silent/half-closed servers
//!   surface typed, transient client errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Once;
use std::time::Duration;

use qcs::cloud::{CloudConfig, OutagePlan};
use qcs::gateway::{
    ErrorCode, FaultKind, FaultPlan, Gateway, GatewayClient, GatewayConfig, GatewayError,
    Request, Response,
};
use qcs::machine::Fleet;

/// Silence the panic reports of *injected* handler panics so a passing
/// chaos run does not spam stderr; every other panic still reports.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A raw line client: sends exact bytes, so the test-side fault
/// prediction hashes the very same line the server will see.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What one request observed on the wire.
#[derive(Debug, PartialEq)]
enum Wire {
    /// A complete response line (newline stripped).
    Reply(String),
    /// EOF, or a truncated frame followed by EOF.
    Closed,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawClient { reader, writer }
    }

    fn send(&mut self, line: &str) -> Wire {
        if self.writer.write_all(format!("{line}\n").as_bytes()).is_err() {
            return Wire::Closed;
        }
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Wire::Closed,
            Ok(_) if reply.ends_with('\n') => Wire::Reply(reply.trim_end().to_string()),
            Ok(_) => Wire::Closed, // truncated frame then EOF
            Err(_) => Wire::Closed,
        }
    }
}

fn chaos_gateway(faults: FaultPlan) -> Gateway {
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    Gateway::start_with_faults(
        Fleet::ibm_like(),
        cloud_config,
        GatewayConfig {
            time_compression: 0.0, // frozen clock: deterministic admission
            rate_capacity: 1e9,
            rate_refill_per_s: 0.0,
            max_pending_per_machine: 100_000,
            ..GatewayConfig::default()
        },
        faults,
    )
    .expect("bind loopback")
}

/// Every fault mode enabled at once, N concurrent clients, and an exact
/// prediction of each request's fate. Zero unexpected panics, clean
/// audited drain, per-mode fault counters matching the predictions.
#[test]
fn all_fault_modes_under_concurrent_clients() {
    quiet_injected_panics();
    let plan = FaultPlan {
        seed: 0xC4A05,
        drop_connection_permille: 90,
        garble_request_permille: 90,
        truncate_response_permille: 90,
        partial_write_permille: 70,
        panic_handler_permille: 70,
        partial_write_stall: Duration::from_millis(5),
        ..FaultPlan::none()
    };
    let gateway = chaos_gateway(plan.clone());
    let addr = gateway.addr();

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 30;

    struct ClientTally {
        faults: [u64; 5],
        garbles: u64,
        accepted: u64,
    }

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let plan = &plan;
                scope.spawn(move || {
                    let mut client = RawClient::connect(addr);
                    let mut tally = ClientTally {
                        faults: [0; 5],
                        garbles: 0,
                        accepted: 0,
                    };
                    for i in 0..REQUESTS {
                        let line = match i % 4 {
                            0 => format!(
                                "SUBMIT 0 {} {} {} 12 1",
                                i % 3,
                                1 + (i % 9),
                                100 + c * 100 + i
                            ),
                            1 => format!("STATUS {}", c * 1000 + i),
                            // Frozen clock: nothing ever completes, so an
                            // unfaulted PREDICT deterministically answers
                            // ERR NOT_READY.
                            2 => format!("PREDICT {} {} 1024", i % 3, 1 + (i % 9)),
                            _ => format!("QUEUE {}", i % 3),
                        };
                        // Frozen clock: the server decides at sim time 0.
                        let predicted = plan.decide(&line, 0.0);
                        if let Some(kind) = predicted {
                            tally.faults[kind.index()] += 1;
                        }
                        let is_submit = line.starts_with("SUBMIT");
                        let outcome = client.send(&line);
                        match predicted {
                            Some(
                                FaultKind::DropConnection
                                | FaultKind::PanicHandler
                                | FaultKind::TruncateResponse,
                            ) => {
                                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                                // Truncation happens after processing: the
                                // job was admitted even though the reply
                                // died on the wire.
                                if is_submit
                                    && predicted == Some(FaultKind::TruncateResponse)
                                {
                                    tally.accepted += 1;
                                }
                                client = RawClient::connect(addr);
                            }
                            Some(FaultKind::GarbleRequest) => {
                                tally.garbles += 1;
                                match outcome {
                                    Wire::Reply(reply) => assert!(
                                        reply.starts_with("ERR "),
                                        "garbled {line:?} answered {reply:?}"
                                    ),
                                    Wire::Closed => panic!("garble closed {line:?}"),
                                }
                            }
                            Some(FaultKind::PartialWrite) | None => {
                                let Wire::Reply(reply) = outcome else {
                                    panic!("lost reply for {line:?}");
                                };
                                let verb = line.split(' ').next().unwrap();
                                match verb {
                                    "SUBMIT" => {
                                        assert!(reply.starts_with("OK "), "{line:?} -> {reply:?}");
                                        tally.accepted += 1;
                                    }
                                    "STATUS" => assert!(reply.starts_with("STATUS ")),
                                    "PREDICT" => assert!(
                                        reply.starts_with("ERR NOT_READY"),
                                        "{line:?} -> {reply:?}"
                                    ),
                                    _ => assert!(reply.starts_with("QUEUE ")),
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });

    let mut predicted_faults = [0u64; 5];
    let mut predicted_garbles = 0;
    let mut predicted_accepted = 0;
    for tally in &tallies {
        for (total, n) in predicted_faults.iter_mut().zip(tally.faults) {
            *total += n;
        }
        predicted_garbles += tally.garbles;
        predicted_accepted += tally.accepted;
    }
    // Every mode must actually have fired for the test to mean anything.
    for (kind, &count) in FaultKind::ALL.iter().zip(&predicted_faults) {
        assert!(count > 0, "fault mode {kind:?} never fired — tune rates/seed");
    }

    // Panic containment: exactly the injected panics, each caught on its
    // session thread. Give unwinding handlers a moment to finish.
    let expected_panics = predicted_faults[FaultKind::PanicHandler.index()] as usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gateway.handler_panics() < expected_panics
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gateway.handler_panics(), expected_panics);

    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.faults_injected, predicted_faults);
    assert_eq!(metrics.injected_panics() as usize, expected_panics);
    assert_eq!(metrics.protocol_errors, predicted_garbles);
    assert_eq!(metrics.accepted, predicted_accepted);
    assert_eq!(metrics.rejected_rate + metrics.rejected_backpressure, 0);
    assert_eq!(result.total_jobs, predicted_accepted);
    assert_eq!(metrics.finished.iter().sum::<u64>(), predicted_accepted);
    result.audit.expect("audit enabled").assert_clean();
}

/// The bit-identical guarantee: a faulted run's simulator output equals
/// a fault-free run that submits only the jobs the faults did not
/// swallow. Submission order is serialized (round-robin over two
/// connections) so id assignment and the simulator's RNG stream are
/// reproducible.
#[test]
fn fault_untouched_jobs_are_bit_identical_to_fault_free_run() {
    quiet_injected_panics();
    let plan = FaultPlan {
        seed: 99,
        drop_connection_permille: 150,
        garble_request_permille: 150,
        panic_handler_permille: 150,
        truncate_response_permille: 100,
        partial_write_permille: 100,
        partial_write_stall: Duration::from_millis(2),
        ..FaultPlan::none()
    };
    let lines: Vec<String> = (0..60)
        .map(|i| format!("SUBMIT 0 {} {} {} 14 1 ", i % 3, 1 + (i % 9), 200 + i))
        .map(|l| l.trim_end().to_string())
        .collect();

    // Faulted run: serial submissions alternating over two connections.
    let gateway = chaos_gateway(plan.clone());
    let addr = gateway.addr();
    let mut clients = [RawClient::connect(addr), RawClient::connect(addr)];
    let mut survivors: Vec<&str> = Vec::new();
    let mut admitted = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let slot = i % 2;
        let predicted = plan.decide(line, 0.0);
        let outcome = clients[slot].send(line);
        match predicted {
            Some(FaultKind::DropConnection | FaultKind::PanicHandler) => {
                // Swallowed before processing: the simulator never saw it.
                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                clients[slot] = RawClient::connect(addr);
            }
            Some(FaultKind::GarbleRequest) => {
                assert!(
                    matches!(&outcome, Wire::Reply(r) if r.starts_with("ERR ")),
                    "garbled {line:?} -> {outcome:?}"
                );
            }
            Some(FaultKind::TruncateResponse) => {
                // Admitted, but the OK died on the wire.
                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                survivors.push(line);
                admitted += 1;
                clients[slot] = RawClient::connect(addr);
            }
            Some(FaultKind::PartialWrite) | None => {
                // Deterministic id assignment: ids count admissions.
                assert_eq!(
                    outcome,
                    Wire::Reply(format!("OK {admitted}")),
                    "for {line:?}"
                );
                survivors.push(line);
                admitted += 1;
            }
        }
    }
    assert!(
        admitted > 10 && (admitted as usize) < lines.len(),
        "want a mixed run, got {admitted}/{}",
        lines.len()
    );
    drop(clients);
    let (faulted, faulted_metrics) = gateway.shutdown_and_drain();
    faulted.audit.as_ref().expect("audit enabled").assert_clean();
    assert_eq!(faulted_metrics.accepted, admitted);

    // Fault-free reference run: submit exactly the survivors, in order.
    let baseline_gateway = chaos_gateway(FaultPlan::none());
    let mut client = RawClient::connect(baseline_gateway.addr());
    for (k, line) in survivors.iter().enumerate() {
        assert_eq!(client.send(line), Wire::Reply(format!("OK {k}")));
    }
    drop(client);
    let (baseline, baseline_metrics) = baseline_gateway.shutdown_and_drain();
    baseline.audit.as_ref().expect("audit enabled").assert_clean();
    assert_eq!(baseline_metrics.accepted, admitted);

    // The faults never touched these jobs, so the simulator's story of
    // them must be byte-for-byte the same.
    assert_eq!(faulted.total_jobs, baseline.total_jobs);
    assert_eq!(faulted.outcome_counts, baseline.outcome_counts);
    assert_eq!(faulted.daily_executions, baseline.daily_executions);
    assert_eq!(faulted.records, baseline.records);
}

/// Satellite: raw malformed bytes are answered with typed `ERR` codes —
/// regression tests for what used to be `unwrap()` panics in the parse
/// and read paths.
#[test]
fn malformed_raw_bytes_get_typed_errors_not_panics() {
    let gateway = chaos_gateway(FaultPlan::none());
    let addr = gateway.addr();
    let reply_to = |payload: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(payload).expect("write");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };

    // Missing fields on a SUBMIT.
    assert!(reply_to(b"SUBMIT 0 1\n").starts_with("ERR BAD_ARITY"));
    // A field of the wrong type.
    assert!(reply_to(b"SUBMIT zero 1 10 1024 20 3\n").starts_with("ERR BAD_FIELD"));
    // A verb with its argument missing entirely.
    assert!(reply_to(b"STATUS\n").starts_with("ERR MISSING_FIELD"));
    // Non-UTF-8 bytes in the line.
    assert!(reply_to(b"SUBMIT \xff\xfe 1 10 1024 20 3\n").starts_with("ERR NOT_UTF8"));
    // An oversized line (2x the 64 KiB default bound) without a newline:
    // the server must answer and close instead of buffering forever.
    let mut flood = vec![b'A'; 128 * 1024];
    flood.push(b'\n');
    assert!(reply_to(&flood).starts_with("ERR LINE_TOO_LONG"));

    // A truncated final frame (no newline, then write half closed) is
    // still answered before the connection winds down.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut write_half = stream.try_clone().expect("clone");
    write_half
        .write_all(b"SUBMIT 0 1 10 1024 20")
        .expect("write");
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("read");
    assert!(reply.starts_with("ERR BAD_ARITY"), "got {reply:?}");

    // After the NOT_UTF8 reply the connection stays usable: the server
    // resynchronizes on the next newline.
    let mut client = RawClient::connect(addr);
    assert!(
        matches!(&client.send("SUBMIT \u{1F600} x y"), Wire::Reply(r) if r.starts_with("ERR ")),
    );
    assert_eq!(client.send("QUIT"), Wire::Reply("BYE".to_string()));

    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.accepted, 0);
    assert_eq!(result.total_jobs, 0);
    assert!(metrics.protocol_errors >= 6);
    result.audit.expect("audit enabled").assert_clean();
}

/// Satellite: a slow-loris connection (bytes but never a newline) is
/// reaped at the idle timeout instead of pinning a session forever.
#[test]
fn idle_connections_are_reaped() {
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    let gateway = Gateway::start(
        Fleet::ibm_like(),
        cloud_config,
        GatewayConfig {
            time_compression: 0.0,
            idle_timeout: Duration::from_millis(150),
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback");

    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"SUBM").expect("write a stalled prefix");
    // The server must close on us (EOF), not answer.
    let mut sink = Vec::new();
    let n = stream.read_to_end(&mut sink).expect("read to EOF");
    assert_eq!(n, 0, "reaped connection must see bare EOF, got {sink:?}");

    let (_, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.reaped_idle, 1);
}

/// Satellite: a client facing a silent or half-closing server gets typed
/// errors — `Timeout` and `Disconnected` — instead of hanging forever.
#[test]
fn client_times_out_and_types_half_closes() {
    // (a) A server that accepts and never answers -> Timeout.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_millis(600));
        drop(stream);
    });
    let mut client =
        GatewayClient::connect_with_timeout(addr, Duration::from_millis(100)).expect("connect");
    match client.request(&Request::Status(1)) {
        Err(GatewayError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    hold.join().expect("stub");

    // (b) A server that half-closes mid-frame -> Disconnected.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read request");
        let mut stream = stream;
        stream.write_all(b"STATU").expect("partial frame");
        // Drop: the client sees 5 bytes then EOF.
    });
    let mut client =
        GatewayClient::connect_with_timeout(addr, Duration::from_secs(5)).expect("connect");
    match client.request(&Request::Status(1)) {
        Err(GatewayError::Disconnected) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    stub.join().expect("stub");

    // (c) A server that closes immediately -> Disconnected.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        drop(stream);
    });
    let mut client =
        GatewayClient::connect_with_timeout(addr, Duration::from_secs(5)).expect("connect");
    match client.request(&Request::Status(1)) {
        Err(e) if e.is_transient() => {}
        other => panic!("expected a transient error, got {other:?}"),
    }
    stub.join().expect("stub");
}

/// A `SUBMIT` whose numbers parse but describe no runnable job (a 10^18
/// layer depth, non-finite fields, a negative patience, counts far over
/// the machine caps) is turned away at admission with a typed `ERR`. One
/// such line used to be admitted and then abort the process at drain
/// time: the job "ended" ~10^18 s out and the sample grid grew until
/// allocation failed.
#[test]
fn hostile_submit_numbers_are_rejected_and_the_drain_stays_bounded() {
    let gateway = chaos_gateway(FaultPlan::none());
    let mut client = RawClient::connect(gateway.addr());
    let hostile = [
        ("SUBMIT 1 athens 10 1024 1e18 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 inf 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 NaN 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 -4 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 NaN", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 3 -50", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 3 NaN", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 1e300", "ERR REJECTED"),
        ("SUBMIT 1 athens 4000000000 4000000000 20 3", "ERR REJECTED"),
        ("SUBMIT 1 athens 10 4000000000 20 3", "ERR REJECTED"),
    ];
    for (i, (line, code)) in hostile.iter().enumerate() {
        // Interleave admissible jobs so the drain has real work to do.
        assert_eq!(
            client.send("SUBMIT 1 athens 10 1024 20 3 3600"),
            Wire::Reply(format!("OK {i}"))
        );
        match client.send(line) {
            Wire::Reply(reply) => assert!(reply.starts_with(code), "{line:?} got {reply:?}"),
            Wire::Closed => panic!("{line:?} closed the connection"),
        }
    }
    drop(client);
    assert_eq!(gateway.handler_panics(), 0);

    let (result, metrics) = gateway.shutdown_and_drain();
    let n = hostile.len() as u64;
    assert_eq!(metrics.rejected_invalid, n);
    assert_eq!(metrics.accepted, n);
    assert_eq!(
        metrics.submitted,
        metrics.accepted
            + metrics.rejected_rate
            + metrics.rejected_backpressure
            + metrics.rejected_invalid
    );
    assert_eq!(result.total_jobs, n);
    // Bounded drain: ten small jobs finish within the first simulated day.
    assert!(result.daily_executions.len() <= 1, "{:?}", result.daily_executions);
    assert!(result.queue_samples.len() <= 4 * Fleet::ibm_like().len());
    result.audit.expect("audit enabled").assert_clean();
}

/// Mid-job machine outages threaded through the fault plan: jobs aimed
/// at the dead machine wait out the window, everyone else is untouched,
/// and the audit stays clean.
#[test]
fn machine_outage_delays_only_the_dead_machines_jobs() {
    let fleet = Fleet::ibm_like();
    let mut windows = vec![Vec::new(); fleet.len()];
    windows[0] = vec![(0.0, 250.0)];
    let plan = FaultPlan {
        outages: Some(OutagePlan::from_windows(windows)),
        ..FaultPlan::none()
    };
    let gateway = chaos_gateway(plan);
    let mut client = GatewayClient::connect(gateway.addr()).expect("connect");
    for machine in [0, 0, 1, 1] {
        let response = client
            .request(&Request::parse(&format!("SUBMIT 0 {machine} 5 256 12 1")).expect("parse"))
            .expect("submit");
        assert!(matches!(response, Response::Ok(_)), "got {response}");
    }
    client.quit().expect("quit");
    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.accepted, 4);
    for record in &result.records {
        if record.machine == 0 {
            assert!(
                record.start_s >= 250.0,
                "machine 0 job ran at {} during its outage",
                record.start_s
            );
        } else {
            assert!(
                record.start_s < 250.0,
                "machine 1 job needlessly delayed to {}",
                record.start_s
            );
        }
    }
    result.audit.expect("audit enabled").assert_clean();
}

/// Satellite: `PREDICT` under every fault mode with a *running* clock —
/// jobs actually complete mid-run, the predictor trains live, and no
/// request (faulted or not) panics a handler. The drain must audit clean
/// and panic containment must stay exact.
#[test]
fn predict_under_faults_never_panics_and_drains_clean() {
    quiet_injected_panics();
    let plan = FaultPlan {
        seed: 0xF0CA1,
        drop_connection_permille: 80,
        garble_request_permille: 80,
        truncate_response_permille: 80,
        partial_write_permille: 60,
        panic_handler_permille: 60,
        partial_write_stall: Duration::from_millis(2),
        ..FaultPlan::none()
    };
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    let gateway = Gateway::start_with_faults(
        Fleet::ibm_like(),
        cloud_config,
        GatewayConfig {
            // Running clock, heavily compressed: submissions from early in
            // the loop complete while the loop is still going, so PREDICT
            // exercises both the NOT_READY and the served paths.
            time_compression: 50_000.0,
            rate_capacity: 1e9,
            rate_refill_per_s: 0.0,
            max_pending_per_machine: 100_000,
            ..GatewayConfig::default()
        },
        plan.clone(),
    )
    .expect("bind loopback");
    let addr = gateway.addr();

    let mut client = RawClient::connect(addr);
    let mut expected_panics = 0usize;
    let mut served_on_wire = 0u64;
    for i in 0..120 {
        let line = if i % 2 == 0 {
            format!("SUBMIT 0 {} 5 256 12 1", i % 9)
        } else {
            format!("PREDICT {} 5 256", i % 9)
        };
        // Fault decisions are content-keyed, so they stay predictable
        // even though the serving clock runs.
        if plan.decide(&line, gateway.sim_now_s()) == Some(FaultKind::PanicHandler) {
            expected_panics += 1;
        }
        match client.send(&line) {
            Wire::Reply(reply) => {
                if line.starts_with("PREDICT") && reply.starts_with("PREDICT ") {
                    served_on_wire += 1;
                }
                assert!(
                    reply.starts_with("OK ")
                        || reply.starts_with("BUSY ")
                        || reply.starts_with("ERR ")
                        || reply.starts_with("PREDICT "),
                    "unexpected reply {reply:?} for {line:?}"
                );
            }
            Wire::Closed => client = RawClient::connect(addr),
        }
    }
    drop(client);

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gateway.handler_panics() < expected_panics && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gateway.handler_panics(), expected_panics);

    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.injected_panics() as usize, expected_panics);
    // Truncated replies may have been served but not observed client-side.
    assert!(
        metrics.predictions_served >= served_on_wire,
        "served {} < observed {served_on_wire}",
        metrics.predictions_served
    );
    assert!(
        served_on_wire > 0,
        "no PREDICT was ever served — compression too low for this loop"
    );
    result.audit.expect("audit enabled").assert_clean();
}

/// ErrorCode tokens on the wire match the table the README documents.
#[test]
fn err_code_table_is_stable() {
    let expected = [
        "EMPTY",
        "UNKNOWN_VERB",
        "BAD_ARITY",
        "MISSING_FIELD",
        "BAD_FIELD",
        "LINE_TOO_LONG",
        "NOT_UTF8",
        "UNKNOWN_MACHINE",
        "UNKNOWN_PROVIDER",
        "EMPTY_BATCH",
        "NOT_CANCELLABLE",
        "REJECTED",
        "NOT_READY",
    ];
    let actual: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_token()).collect();
    assert_eq!(actual, expected);
}
