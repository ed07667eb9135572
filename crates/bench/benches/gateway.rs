//! Criterion benchmarks of the sharded gateway fleet: SUBMIT→OK
//! round-trip latency and sustained submission throughput over real TCP
//! loopback connections (the headline numbers in `BENCH_gateway.json`).
//!
//! Alongside the criterion means, this bench prints two extra
//! hand-measured lines in the same `BENCH {...}` format the stand-in
//! emits, so `ci.sh` can scrape p99 latency and sustained ns/job with the
//! same grep/sed pipeline:
//!
//! - `gateway_fleet/submit_p99` — P² 99th-percentile SUBMIT→OK latency.
//! - `gateway_fleet/submit_sustained` — wall-clock ns per job over a
//!   sustained burst (jobs/sec = 1e9 / mean_ns).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use qcs_cloud::{CloudConfig, JobSpec, RecordSink};
use qcs_gateway::{FleetClient, GatewayConfig, GatewayFleet};
use qcs_machine::Fleet;
use qcs_stats::P2Quantile;

const SHARDS: usize = 2;
const SUSTAINED_JOBS: usize = 4_000;

/// A fleet sized for throughput measurement: streaming sink (no record
/// growth), fast simulated clock (queues drain between submissions), and
/// admission control opened wide so we measure the serving stack, not the
/// rate limiter.
fn start_fleet() -> GatewayFleet {
    let cloud = CloudConfig {
        record_sink: RecordSink::streaming(11),
        ..CloudConfig::default()
    };
    let gateway = GatewayConfig {
        time_compression: 50_000.0,
        rate_capacity: 1e15,
        rate_refill_per_s: 1e12,
        max_pending_per_machine: usize::MAX,
        ..GatewayConfig::default()
    };
    GatewayFleet::start(&Fleet::ibm_like(), cloud, gateway, SHARDS)
        .expect("bind loopback gateways")
}

fn job(id: u64, num_machines: usize) -> JobSpec {
    JobSpec {
        id,
        provider: (id % 40) as u32,
        machine: id as usize % num_machines,
        circuits: 4,
        shots: 1024,
        mean_depth: 20.0,
        mean_width: 1.0, // admissible on every machine, 1-qubit armonk included
        submit_s: 0.0,
        is_study: false,
        patience_s: f64::INFINITY,
    }
}

fn bench_submit_roundtrip(c: &mut Criterion) {
    let num_machines = Fleet::ibm_like().len();
    let mut fleet = start_fleet();
    let mut client = FleetClient::connect(&fleet).expect("connect to every shard");
    let mut next = 0u64;

    c.bench_function("gateway_fleet/submit_roundtrip", |b| {
        b.iter(|| {
            let spec = job(next, num_machines);
            next += 1;
            client.submit(&spec).expect("SUBMIT round-trip")
        });
    });

    // Sustained burst: p99 per-submit latency and aggregate ns/job,
    // printed in the stand-in's BENCH line format for ci.sh scraping.
    fleet.reconcile();
    let mut p99 = P2Quantile::new(0.99);
    let started = Instant::now();
    for _ in 0..SUSTAINED_JOBS {
        let spec = job(next, num_machines);
        next += 1;
        let t0 = Instant::now();
        client.submit(&spec).expect("SUBMIT round-trip");
        p99.push(t0.elapsed().as_nanos() as f64);
    }
    let sustained_ns = started.elapsed().as_nanos() as f64 / SUSTAINED_JOBS as f64;
    let p99_ns = p99.estimate().expect("nonempty latency stream");
    println!("BENCH {{\"id\":\"gateway_fleet/submit_p99\",\"mean_ns\":{p99_ns:.1},\"iters\":{SUSTAINED_JOBS}}}");
    println!(
        "BENCH {{\"id\":\"gateway_fleet/submit_sustained\",\"mean_ns\":{sustained_ns:.1},\"iters\":{SUSTAINED_JOBS}}}"
    );

    fleet.reconcile();
    fleet
        .audit_conservation()
        .expect("cross-shard conservation under load");
    client.quit().expect("polite shutdown");
    let drained = fleet.shutdown_and_drain();
    let submitted: u64 = drained.iter().map(|(_, m)| m.submitted).sum();
    assert_eq!(submitted, next, "every SUBMIT reached a shard");
}

criterion_group!(benches, bench_submit_roundtrip);
criterion_main!(benches);
