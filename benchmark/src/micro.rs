//! Layer probes with no workload of their own: the stats kernels the online
//! predictor leans on, the fair-share queue, and the worker pool's fixed
//! cost.

use std::hint::black_box;
use std::time::Instant;

use qcs_cloud::{FairShareQueue, JobSpec};
use qcs_exec::{parallel_map, ExecConfig};
use qcs_predictor::{NUM_FEATURES, ONLINE_WINDOW};
use qcs_stats::{P2Quantile, ProductModel};

use crate::measure::{mean_ns, InputRng};
use crate::spec::Layers;
use crate::workloads::Scale;

/// Iterations the online predictor's warm refit is allowed.
const WARM_REFIT_ITERATIONS: usize = 6;
const PROVIDERS: u32 = 40;

fn unit_float(rng: &mut InputRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

pub fn probe(seed: u64, scale: Scale, layers: &mut Layers) {
    let mut rng = InputRng::new(seed, 0x6d69_6372);
    let repeats = scale.of([200, 20]);

    // A window-sized warm refit of the product model, as the tap runs it.
    let truth = ProductModel {
        a: vec![1.0; NUM_FEATURES],
        b: vec![0.25; NUM_FEATURES],
    };
    let rows: Vec<f64> = (0..ONLINE_WINDOW * NUM_FEATURES)
        .map(|_| unit_float(&mut rng))
        .collect();
    let targets: Vec<f64> = rows
        .chunks(NUM_FEATURES)
        .map(|row| truth.predict(row) * (0.95 + 0.1 * unit_float(&mut rng)))
        .collect();
    let init = ProductModel {
        a: vec![1.1; NUM_FEATURES],
        b: vec![0.2; NUM_FEATURES],
    };
    let fit_ns = mean_ns(repeats, || {
        black_box(ProductModel::fit_flat(
            &init,
            &rows,
            NUM_FEATURES,
            &targets,
            WARM_REFIT_ITERATIONS,
        ));
    });
    layers.set("stats.lm_fit_us", fit_ns / 1e3);

    let samples: Vec<f64> = (0..4096).map(|_| unit_float(&mut rng)).collect();
    let mut sketch = P2Quantile::new(0.9);
    let mut pushed = 0usize;
    let push_ns = mean_ns(repeats * 5_000, || {
        sketch.push(samples[pushed % samples.len()]);
        pushed += 1;
    });
    layers.set("stats.p2_push_ns", push_ns);
    black_box(sketch.estimate());

    // Push 1000 jobs from 40 providers, then pop and charge them all: one
    // op is one push or one pop-and-charge.
    let spec = |id: u64| JobSpec {
        id,
        provider: (id % u64::from(PROVIDERS)) as u32,
        machine: 0,
        circuits: 10,
        shots: 1024,
        mean_depth: 20.0,
        mean_width: 3.0,
        submit_s: id as f64,
        is_study: false,
        patience_s: f64::INFINITY,
    };
    let started = Instant::now();
    let mut ops = 0u64;
    for _ in 0..repeats {
        let mut queue = FairShareQueue::new(PROVIDERS as usize, 86_400.0);
        for id in 0..1000 {
            queue.push(spec(id));
        }
        while let Some(job) = queue.pop(2000.0) {
            queue.charge(job.provider, 60.0, 2000.0);
            ops += 1;
        }
        ops += 1000;
    }
    layers.set(
        "cloud.fairshare_ns_per_op",
        started.elapsed().as_nanos() as f64 / ops as f64,
    );

    // A no-op fan-out over 25 items (one per machine) on the one-thread
    // pool every workload runs with.
    let exec = ExecConfig::with_threads(1);
    let items = [0u64; 25];
    let fanout_ns = mean_ns(repeats * 50, || {
        black_box(parallel_map(&exec, &items, |i, x| *x + i as u64));
    });
    layers.set("exec.pool_overhead_us", fanout_ns / 1e3);
}
