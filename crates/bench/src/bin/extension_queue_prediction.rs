//! Extension (paper Recommendation ⑤/①): predicting queue waits with
//! quantitative confidence levels, from the backlog at submission and the
//! machine's learned service rate.

use qcs_bench::study_from_args;

fn main() {
    let study = study_from_args();
    let (online, report) = study
        .queue_prediction(study.result().records.len() / 2)
        .expect("completed jobs in the training half");

    println!("Queue-wait prediction (backlog x learned service rate)");
    println!("  held-out jobs scored : {}", report.jobs);
    println!("  correlation          : {:.3}", report.correlation);
    println!("  median abs error     : {:.1} min", report.median_abs_error_min);
    println!("  10-90% band coverage : {:.1}%", 100.0 * report.band_coverage);
    println!();
    for name in ["athens", "toronto", "manhattan"] {
        let idx = study.machine_index(name).expect("machine exists");
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
