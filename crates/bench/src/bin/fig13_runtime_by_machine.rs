//! Fig 13: execution-time distribution per machine (paper: sub-minute to
//! 15+ minutes; larger machines run slower).

use qcs_bench::{study_from_args, write_csv};

fn main() {
    let study = study_from_args();
    let summaries = study.exec_time_by_machine();
    println!("Fig 13 — run time by machine (minutes)");
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "machine", "q1", "median", "q3", "mean", "max", "n"
    );
    for (name, s) in &summaries {
        println!(
            "  {:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>9}",
            name, s.q1, s.median, s.q3, s.mean, s.max, s.count
        );
    }
    write_csv(
        "fig13_runtime_by_machine.csv",
        "machine,q1_min,median_min,q3_min,mean_min,max_min,count",
        summaries.iter().map(|(name, s)| {
            format!("{name},{},{},{},{},{},{}", s.q1, s.median, s.q3, s.mean, s.max, s.count)
        }),
    );
}
