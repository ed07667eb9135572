//! Chaos harness for the gateway serving stack.
//!
//! Wire faults come from [`FaultProxy`], a seeded TCP proxy that sits
//! between raw clients and a gateway and rolls each request line on a
//! pure function of the proxy seed and the line bytes
//! ([`FaultRates::decide`]). So these tests *predict* which requests will
//! be faulted and assert the exact consequence of every injection:
//!
//! - no handler ever panics, whatever the wire does;
//! - `shutdown_and_drain` always returns a clean [`AuditReport`] run;
//! - jobs the faults did not touch produce records **bit-identical** to
//!   a fault-free run;
//! - malformed raw bytes (bad arity, non-UTF-8, oversized lines,
//!   truncated frames) get typed `ERR` responses, never a hang or crash;
//! - well-formed `SUBMIT`s carrying implausible numbers are rejected at
//!   admission, so the drain stays bounded;
//! - slow-loris connections are reaped, and silent/half-closed servers
//!   surface typed, transient client errors.
//!
//! Handler-panic containment is a unit test beside the session loop
//! (`server::tests::handler_panics_are_contained_to_their_session`): on
//! the wire a panicking handler looks like a dropped connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use qcs::cloud::{CloudConfig, OutagePlan};
use qcs::gateway::{
    ErrorCode, Gateway, GatewayClient, GatewayConfig, GatewayError, Request, Response,
};
use qcs::machine::Fleet;

#[path = "support/wire_fault.rs"]
mod fault;

use fault::{garble, Fault, FaultRates};

/// A seeded fault-injecting TCP proxy in front of a gateway. Each client
/// connection gets its own upstream connection and relay thread; the
/// relay expects one reply per request line (send it no blank lines) and
/// counts every fault it injects.
struct FaultProxy {
    addr: SocketAddr,
    injected: Arc<[AtomicU64; 4]>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    fn start(upstream: SocketAddr, rates: FaultRates) -> FaultProxy {
        let total: u64 = rates.permille.iter().sum();
        assert!(total <= 1000, "fault rates sum to {total} > 1000 permille");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let injected: Arc<[AtomicU64; 4]> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (counts, stopping) = (Arc::clone(&injected), Arc::clone(&stop));
        let accept = std::thread::spawn(move || {
            for client in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let (Ok(client), Ok(gateway)) = (client, TcpStream::connect(upstream)) else {
                    continue;
                };
                let counts = Arc::clone(&counts);
                std::thread::spawn(move || relay(client, gateway, rates, &counts));
            }
        });
        FaultProxy {
            addr,
            injected,
            stop,
            accept: Some(accept),
        }
    }

    /// Faults injected so far, indexed as [`Fault::ALL`].
    fn injected(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.injected[i].load(Ordering::SeqCst))
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Relay one client connection line by line, injecting the rolled faults.
/// Returning drops both sockets: the client sees EOF and the gateway's
/// session ends.
fn relay(
    client: TcpStream,
    gateway: TcpStream,
    rates: FaultRates,
    injected: &[AtomicU64; 4],
) -> std::io::Result<()> {
    client.set_nodelay(true)?;
    gateway.set_nodelay(true)?;
    let mut requests = BufReader::new(client.try_clone()?);
    let mut replies = BufReader::new(gateway.try_clone()?);
    let (mut client, mut gateway) = (client, gateway);
    let (mut line, mut reply) = (String::new(), String::new());
    loop {
        line.clear();
        reply.clear();
        if requests.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let request = line.trim_end_matches('\n');
        let fault = rates.decide(request);
        if let Some(fault) = fault {
            injected[fault as usize].fetch_add(1, Ordering::SeqCst);
        }
        let forwarded = match fault {
            Some(Fault::Drop) => return Ok(()),
            Some(Fault::Garble) => garble(request),
            _ => request.to_string(),
        };
        gateway.write_all(format!("{forwarded}\n").as_bytes())?;
        if replies.read_line(&mut reply)? == 0 {
            return Ok(());
        }
        // A strict prefix, never the newline.
        let (head, tail) = reply.as_bytes().split_at(reply.len() / 2);
        match fault {
            Some(Fault::Truncate) => return client.write_all(head),
            Some(Fault::PartialWrite) => {
                client.write_all(head)?;
                std::thread::sleep(rates.stall);
                client.write_all(tail)?;
            }
            _ => client.write_all(reply.as_bytes())?,
        }
    }
}

/// A raw line client: sends exact bytes, so the test-side fault
/// prediction hashes the very same line the proxy will see.
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

/// A frozen-clock, audited gateway with no admission limits in the way.
fn chaos_gateway() -> Gateway {
    outage_gateway(OutagePlan::none(Fleet::ibm_like().len()))
}

fn outage_gateway(outages: OutagePlan) -> Gateway {
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    Gateway::start_with_outages(
        Fleet::ibm_like(),
        cloud_config,
        GatewayConfig {
            time_compression: 0.0, // frozen clock: deterministic admission
            rate_capacity: 1e9,
            rate_refill_per_s: 0.0,
            max_pending_per_machine: 100_000,
            ..GatewayConfig::default()
        },
        outages,
    )
    .expect("bind loopback")
}

/// Every fault mode enabled at once, N concurrent clients, and an exact
/// prediction of each request's fate. Zero handler panics, clean audited
/// drain, per-mode proxy counters matching the predictions.
#[test]
fn all_fault_modes_under_concurrent_clients() {
    let rates = FaultRates {
        seed: 0xC4A05,
        permille: [160, 90, 90, 70],
        stall: Duration::from_millis(5),
    };
    let gateway = chaos_gateway();
    let proxy = FaultProxy::start(gateway.addr(), rates);
    let addr = proxy.addr;

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 30;

    struct ClientTally {
        faults: [u64; 4],
        garbles: u64,
        accepted: u64,
    }

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = RawClient::connect(addr);
                    let mut tally = ClientTally {
                        faults: [0; 4],
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
                        let predicted = rates.decide(&line);
                        if let Some(fault) = predicted {
                            tally.faults[fault as usize] += 1;
                        }
                        let is_submit = line.starts_with("SUBMIT");
                        let outcome = client.send(&line);
                        match predicted {
                            Some(Fault::Drop | Fault::Truncate) => {
                                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                                // Truncation happens after processing: the
                                // job was admitted even though the reply
                                // died on the wire.
                                if is_submit && predicted == Some(Fault::Truncate) {
                                    tally.accepted += 1;
                                }
                                client = RawClient::connect(addr);
                            }
                            Some(Fault::Garble) => {
                                tally.garbles += 1;
                                match outcome {
                                    Wire::Reply(reply) => assert!(
                                        reply.starts_with("ERR "),
                                        "garbled {line:?} answered {reply:?}"
                                    ),
                                    Wire::Closed => panic!("garble closed {line:?}"),
                                }
                            }
                            Some(Fault::PartialWrite) | None => {
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

    let mut predicted_faults = [0u64; 4];
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
    for (fault, &count) in Fault::ALL.iter().zip(&predicted_faults) {
        assert!(count > 0, "fault mode {fault:?} never fired — tune rates/seed");
    }
    assert_eq!(proxy.injected(), predicted_faults);
    drop(proxy);
    // Wire faults are not handler faults.
    assert_eq!(gateway.handler_panics(), 0);

    let (result, metrics) = gateway.shutdown_and_drain();
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
    let rates = FaultRates {
        seed: 99,
        permille: [300, 150, 100, 100],
        stall: Duration::from_millis(2),
    };
    let lines: Vec<String> = (0..60)
        .map(|i| format!("SUBMIT 0 {} {} {} 14 1", i % 3, 1 + (i % 9), 200 + i))
        .collect();

    // Faulted run: serial submissions alternating over two connections.
    let gateway = chaos_gateway();
    let proxy = FaultProxy::start(gateway.addr(), rates);
    let mut clients = [RawClient::connect(proxy.addr), RawClient::connect(proxy.addr)];
    let mut survivors: Vec<&str> = Vec::new();
    let mut admitted = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let slot = i % 2;
        let predicted = rates.decide(line);
        let outcome = clients[slot].send(line);
        match predicted {
            Some(Fault::Drop) => {
                // Swallowed before processing: the simulator never saw it.
                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                clients[slot] = RawClient::connect(proxy.addr);
            }
            Some(Fault::Garble) => {
                assert!(
                    matches!(&outcome, Wire::Reply(r) if r.starts_with("ERR ")),
                    "garbled {line:?} -> {outcome:?}"
                );
            }
            Some(Fault::Truncate) => {
                // Admitted, but the OK died on the wire.
                assert_eq!(outcome, Wire::Closed, "for {line:?}");
                survivors.push(line);
                admitted += 1;
                clients[slot] = RawClient::connect(proxy.addr);
            }
            Some(Fault::PartialWrite) | None => {
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
    drop((clients, proxy));
    let (faulted, faulted_metrics) = gateway.shutdown_and_drain();
    faulted.audit.as_ref().expect("audit enabled").assert_clean();
    assert_eq!(faulted_metrics.accepted, admitted);

    // Fault-free reference run: submit exactly the survivors, in order.
    let baseline_gateway = chaos_gateway();
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
    let gateway = chaos_gateway();
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
/// layer depth, non-finite fields, a negative or ~10^19 s patience, counts
/// far over the machine caps) is turned away at admission with a typed
/// `ERR`. Two such lines used to be admitted and then abort the process
/// at drain time: the job "ended" ~10^18 s out, or its cancel check sat
/// ~10^19 s out, and the sample grid grew until allocation failed.
#[test]
fn hostile_submit_numbers_are_rejected_and_the_drain_stays_bounded() {
    let gateway = chaos_gateway();
    let mut client = RawClient::connect(gateway.addr());
    let hostile = [
        ("SUBMIT 1 athens 10 1024 1e18 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 inf 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 NaN 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 -4 3", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 NaN", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 3 -50", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 3 NaN", "ERR BAD_FIELD"),
        ("SUBMIT 1 athens 10 1024 20 3 18446744073709551616", "ERR BAD_FIELD"),
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

/// Mid-job machine outages threaded through the gateway's constructor:
/// jobs aimed at the dead machine wait out the window, everyone else is
/// untouched, and the audit stays clean.
#[test]
fn machine_outage_delays_only_the_dead_machines_jobs() {
    let fleet = Fleet::ibm_like();
    let mut windows = vec![Vec::new(); fleet.len()];
    windows[0] = vec![(0.0, 250.0)];
    let gateway = outage_gateway(OutagePlan::from_windows(windows));
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
/// and the proxy's counters must match the content-keyed predictions.
#[test]
fn predict_under_faults_never_panics_and_drains_clean() {
    let rates = FaultRates {
        seed: 0xF0CA1,
        permille: [140, 80, 80, 60],
        stall: Duration::from_millis(2),
    };
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    let gateway = Gateway::start(
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
    )
    .expect("bind loopback");
    let proxy = FaultProxy::start(gateway.addr(), rates);

    let mut client = RawClient::connect(proxy.addr);
    let mut predicted_faults = [0u64; 4];
    let mut served_on_wire = 0u64;
    for i in 0..120 {
        let line = if i % 2 == 0 {
            format!("SUBMIT 0 {} 5 256 12 1", i % 9)
        } else {
            format!("PREDICT {} 5 256", i % 9)
        };
        // Fault decisions are content-keyed, so they stay predictable
        // even though the serving clock runs.
        if let Some(fault) = rates.decide(&line) {
            predicted_faults[fault as usize] += 1;
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
            Wire::Closed => client = RawClient::connect(proxy.addr),
        }
    }
    drop(client);
    assert_eq!(proxy.injected(), predicted_faults);
    drop(proxy);
    assert_eq!(gateway.handler_panics(), 0);

    let (result, metrics) = gateway.shutdown_and_drain();
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
