//! Run the cloud study end to end and print the headline numbers behind
//! every queuing/execution figure of the paper.
//!
//! ```sh
//! cargo run --release --example cloud_campaign           # 2-week smoke run
//! cargo run --release --example cloud_campaign -- --full # full 2-year study
//! cargo run --release --example cloud_campaign -- --export # also write the job log
//! ```
//!
//! `--export` writes every retained record to
//! `target/figures/study_trace.csv` in the job-log format that
//! `qcs::workload::read_trace` reads back into `Study::from_trace`.

use qcs::{Study, StudyConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let export = std::env::args().any(|a| a == "--export");
    let config = if full {
        StudyConfig::full()
    } else {
        StudyConfig::smoke()
    };
    println!(
        "running {} study ({} days, {} study jobs)...",
        if full { "FULL" } else { "smoke" },
        config.workload.days,
        config.workload.study_jobs
    );
    let started = std::time::Instant::now();
    let study = Study::run(&config);
    println!(
        "simulated {} jobs in {:?}\n",
        study.result().total_jobs,
        started.elapsed()
    );

    // Fig 2: growth and outcomes.
    let cumulative = study.cumulative_study_executions();
    if let Some(&(last_day, total)) = cumulative.last() {
        let quarter = cumulative[cumulative.len() / 4].1;
        println!(
            "Fig 2a  study executions: {:.2}B by day {last_day} ({:.2}B by 1st quarter); whole population {:.1}B",
            total as f64 / 1e9,
            quarter as f64 / 1e9,
            study.cumulative_executions().last().map_or(0.0, |&(_, t)| t as f64 / 1e9)
        );
    }
    let (completed, errored, cancelled) = study.outcome_fractions();
    println!(
        "Fig 2b  outcomes: {:.1}% completed, {:.1}% errored, {:.1}% cancelled",
        100.0 * completed,
        100.0 * errored,
        100.0 * cancelled
    );

    // Fig 3: queue-time anchors.
    let (under_min, median_min, over_2h, over_day) = study.queue_time_anchors();
    println!(
        "Fig 3   queue times: {:.0}% <1min | median {:.0} min | {:.0}% >2h | {:.0}% >=1 day",
        100.0 * under_min,
        median_min,
        100.0 * over_2h,
        100.0 * over_day
    );

    // Fig 4: queue/exec ratios.
    let ratios = study.queue_exec_ratios_sorted();
    if !ratios.is_empty() {
        let frac_le_1 = ratios.iter().filter(|&&r| r <= 1.0).count() as f64 / ratios.len() as f64;
        let frac_ge_100 =
            ratios.iter().filter(|&&r| r >= 100.0).count() as f64 / ratios.len() as f64;
        println!(
            "Fig 4   queue/exec ratio: {:.0}% <=1x | median {:.1}x | {:.0}% >=100x",
            100.0 * frac_le_1,
            qcs::stats::median(&ratios),
            100.0 * frac_ge_100
        );
    }

    // Fig 8: utilization extremes.
    println!("Fig 8   machine utilization (median of circuit width / machine size):");
    for (name, s) in study.utilization_by_machine() {
        println!(
            "          {name:<12} median {:>5.2}  (n={})",
            s.median, s.count
        );
    }

    // Fig 9: pending jobs per machine.
    println!("Fig 9   mean pending jobs (last week):");
    for (name, qubits, public, pending) in study
        .pending_jobs_by_machine()
        .expect("a simulated study samples its queues")
    {
        println!(
            "          {name:<12} {qubits:>2}q {} {pending:>8.1}",
            if public { "public    " } else { "privileged" }
        );
    }

    // Fig 10/13: per-machine distributions.
    println!("Fig 10  queue time by machine (hours):");
    for (name, s) in study.queue_time_by_machine() {
        println!(
            "          {name:<12} q1 {:>7.2}  median {:>7.2}  q3 {:>7.2}  max {:>8.1}",
            s.q1, s.median, s.q3, s.max
        );
    }
    println!("Fig 13  exec time by machine (minutes):");
    for (name, s) in study.exec_time_by_machine() {
        println!(
            "          {name:<12} q1 {:>6.2}  median {:>6.2}  q3 {:>6.2}  max {:>7.1}",
            s.q1, s.median, s.q3, s.max
        );
    }

    // Fig 11: batching.
    println!("Fig 11  queue time vs batch size (medians, minutes):");
    for (bucket, per_job, per_circuit, n) in study.queue_time_vs_batch() {
        println!(
            "          batch {bucket:<8} per-job {per_job:>7.1}  per-circuit {per_circuit:>8.3}  (n={n})"
        );
    }

    // Fig 12a.
    println!(
        "Fig 12a {:.1}% of executed jobs crossed a calibration boundary",
        100.0
            * study
                .calibration_crossover_fraction()
                .expect("a simulated study records its crossings")
    );

    // Fig 14: runtime vs batch.
    let points = study.runtime_vs_batch();
    let small: Vec<f64> = points
        .iter()
        .filter(|(b, _)| *b <= 10)
        .map(|(_, t)| *t)
        .collect();
    let large: Vec<f64> = points
        .iter()
        .filter(|(b, _)| *b >= 450)
        .map(|(_, t)| *t)
        .collect();
    println!(
        "Fig 14  median runtime: batch<=10 -> {:.1} min | batch>=450 -> {:.1} min ({} jobs)",
        qcs::stats::median(&small),
        qcs::stats::median(&large),
        points.len()
    );

    if export {
        let path = "target/figures/study_trace.csv";
        std::fs::create_dir_all("target/figures").expect("create figures dir");
        let file = std::fs::File::create(path).expect("create trace file");
        qcs::workload::write_trace(
            std::io::BufWriter::new(file),
            &study.result().records,
            study.machine_names(),
            study.machine_qubits(),
        )
        .expect("write trace");
        println!("\nexported every retained record to {path}");
    }

    // Figs 15/16: predictability.
    let prediction = study.prediction_study(42);
    println!(
        "Fig 15  runtime prediction: overall Pearson {:.3}; per machine:",
        prediction.overall_correlation
    );
    for eval in &prediction.per_machine {
        println!(
            "          {:<12} corr {:.3} over {} test jobs",
            study.machine_name(eval.machine),
            eval.correlation,
            eval.test_jobs
        );
    }
}
