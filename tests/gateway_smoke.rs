//! Loopback smoke test of the full gateway stack: many concurrent
//! clients submitting, polling, cancelling; explicit backpressure; a
//! graceful drain ending in a clean audit.
//!
//! The gateway runs with a frozen simulation clock (`time_compression:
//! 0.0`), which makes every admission decision deterministic: jobs queue
//! but never complete while clients are connected, so a machine's
//! admission bound is guaranteed to fill and answer `BUSY`. The drain
//! then runs the backlog to completion under the invariant auditor.

use std::net::SocketAddr;

use qcs::cloud::CloudConfig;
use qcs::gateway::{Gateway, GatewayClient, GatewayConfig, Request, Response};
use qcs::machine::Fleet;

const CLIENTS: usize = 8;
const HOT_MACHINE_BOUND: usize = 4;

struct ClientReport {
    accepted: Vec<u64>,
    busy: usize,
    cancelled: usize,
}

fn run_client(addr: SocketAddr, thread_id: usize) -> ClientReport {
    let mut client = GatewayClient::connect(addr).expect("connect");
    let mut report = ClientReport {
        accepted: Vec::new(),
        busy: 0,
        cancelled: 0,
    };
    let submit = |provider: u32, machine: usize| Request::Submit {
        provider,
        machine: machine.to_string(),
        circuits: 10,
        shots: 1024,
        mean_depth: 20.0,
        mean_width: 1.0, // fits every machine, 1-qubit armonk included
        patience_s: f64::INFINITY,
    };
    // Two submissions to the shared hot machine 0 (bound 4: across 8
    // clients x 2 jobs = 16 attempts, at least 12 must bounce) and two to
    // a per-client machine with plenty of room.
    let quiet_machine = 1 + (thread_id % 4);
    for machine in [0, 0, quiet_machine, quiet_machine] {
        match client
            .request(&submit(thread_id as u32, machine))
            .expect("submit round-trip")
        {
            Response::Ok(id) => report.accepted.push(id),
            Response::Busy(reason) => {
                assert!(reason.contains("queue full"), "unexpected BUSY: {reason}");
                report.busy += 1;
            }
            other => panic!("unexpected submit response: {other}"),
        }
    }
    // Every accepted job is visible as queued or running.
    for &id in &report.accepted {
        let state = client.status(id).expect("status");
        assert!(
            state == "queued" || state == "running",
            "job {id} in state {state} under a frozen clock"
        );
    }
    // Cancel the last accepted job if it is still queued.
    if let Some(&id) = report.accepted.last() {
        if client.status(id).expect("status") == "queued" {
            match client.request(&Request::Cancel(id)).expect("cancel") {
                Response::Ok(_) => report.cancelled += 1,
                Response::Err(_) => {} // lost a race with another canceller? not possible: ids are private to this client
                other => panic!("unexpected cancel response: {other}"),
            }
        }
    }
    let depth = client.queue_depth("0").expect("queue depth");
    assert!(depth <= HOT_MACHINE_BOUND, "machine 0 over its bound: {depth}");
    client.quit().expect("quit");
    report
}

#[test]
fn gateway_smoke_concurrent_clients_backpressure_and_drain() {
    let cloud_config = CloudConfig {
        audit: true,
        ..CloudConfig::default()
    };
    let gateway = Gateway::start(
        Fleet::ibm_like(),
        cloud_config,
        GatewayConfig {
            time_compression: 0.0,
            max_pending_per_machine: HOT_MACHINE_BOUND,
            rate_capacity: 64.0,
            rate_refill_per_s: 0.0,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = gateway.addr();

    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread_id| scope.spawn(move || run_client(addr, thread_id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let accepted: usize = reports.iter().map(|r| r.accepted.len()).sum();
    let busy: usize = reports.iter().map(|r| r.busy).sum();
    let cancelled: usize = reports.iter().map(|r| r.cancelled).sum();
    assert!(busy >= 1, "backpressure reply must be exercised");
    // 16 hot-machine attempts against a bound of 4 => at least 12 bounced.
    assert!(busy >= 12, "expected >= 12 BUSY, got {busy}");
    // The quiet machines (4 clients x 2 jobs each on machines 1-4) all fit.
    assert!(accepted >= CLIENTS * 2, "accepted only {accepted}");

    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.connections, CLIENTS as u64);
    assert_eq!(metrics.accepted, accepted as u64);
    assert_eq!(metrics.rejected_backpressure, busy as u64);
    assert_eq!(metrics.rejected_rate, 0);
    assert_eq!(metrics.cancelled_via_api, cancelled as u64);
    assert_eq!(
        metrics.submitted,
        metrics.accepted + metrics.rejected_backpressure
    );
    // Every accepted job reached a terminal state, and the whole run
    // satisfies the invariant audit.
    assert_eq!(result.total_jobs, accepted as u64);
    assert_eq!(metrics.finished.iter().sum::<u64>(), accepted as u64);
    assert_eq!(result.outcome_counts[2], cancelled as u64);
    result.audit.expect("audit enabled").assert_clean();

    // All gateway-assigned ids are unique across clients.
    let mut ids: Vec<u64> = reports.iter().flat_map(|r| r.accepted.clone()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), accepted, "duplicate job ids handed out");
}
