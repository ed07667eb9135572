//! Extension (paper Recommendation ⑤/①): predicting queue waits with
//! quantitative confidence levels, from the backlog at submission and the
//! machine's learned service rate.

use qcs::predictor::{evaluate_queue_prediction, OnlinePredictor};
use qcs_bench::study_from_args;

fn main() {
    let study = study_from_args();
    let records: Vec<&qcs::cloud::JobRecord> = study.result().records.iter().collect();
    let split = records.len() / 2;
    let (train, test) = records.split_at(split);

    let qubits = study.fleet().machines().iter().map(|m| m.num_qubits()).collect();
    let mut online = OnlinePredictor::new(qubits);
    for record in train {
        online.observe(record);
    }
    let report = evaluate_queue_prediction(&online, test);

    println!("Queue-wait prediction (backlog x learned service rate)");
    println!("  held-out jobs scored : {}", report.jobs);
    println!("  correlation          : {:.3}", report.correlation);
    println!("  median abs error     : {:.1} min", report.median_abs_error_min);
    println!("  10-90% band coverage : {:.1}%", 100.0 * report.band_coverage);
    println!();
    for name in ["athens", "toronto", "manhattan"] {
        let idx = study.fleet().index_of(name).expect("machine exists");
        let estimate = online
            .predict(idx, 1, 1024, 20)
            .expect("completed jobs in trace");
        println!(
            "  {name:<10} 20 pending jobs -> predict {:.0} min (80% CI {:.0}-{:.0} min)",
            estimate.wait_s / 60.0,
            estimate.wait_lo_s / 60.0,
            estimate.wait_hi_s / 60.0
        );
    }
    println!("\n(the paper argues queue prediction is tractable *because* execution");
    println!(" times are predictable — this estimator is built on exactly that chain)");
}
