//! Fig 10: queuing-time distribution per machine (paper: public machines'
//! means are hours; big privileged machines a couple of hours; the rest
//! under an hour).

use qcs_bench::{study_from_args, write_csv};

fn main() {
    let study = study_from_args();
    let summaries = study.queue_time_by_machine();
    println!("Fig 10 — queue time by machine (hours)");
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "machine", "q1", "median", "q3", "mean", "max", "n"
    );
    for (name, s) in &summaries {
        println!(
            "  {:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>10.1} {:>9}",
            name, s.q1, s.median, s.q3, s.mean, s.max, s.count
        );
    }
    write_csv(
        "fig10_queue_by_machine.csv",
        "machine,q1_hours,median_hours,q3_hours,mean_hours,max_hours,count",
        summaries.iter().map(|(name, s)| {
            format!("{name},{},{},{},{},{},{}", s.q1, s.median, s.q3, s.mean, s.max, s.count)
        }),
    );
}
