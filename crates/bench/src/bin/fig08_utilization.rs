//! Fig 8: machine utilization (circuit width / machine qubits) summary per
//! machine (paper: high on small machines, low on large ones).

use qcs_bench::{study_from_args, write_csv};

fn main() {
    let study = study_from_args();
    let summaries = study.utilization_by_machine();
    println!("Fig 8 — machine utilization by circuits");
    println!(
        "  {:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "machine", "min", "q1", "median", "q3", "max", "n"
    );
    for (name, s) in &summaries {
        println!(
            "  {:<12} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>8}",
            name, s.min, s.q1, s.median, s.q3, s.max, s.count
        );
    }
    write_csv(
        "fig08_utilization.csv",
        "machine,min,q1,median,q3,max,count",
        summaries.iter().map(|(name, s)| {
            format!("{name},{},{},{},{},{},{}", s.min, s.q1, s.median, s.q3, s.max, s.count)
        }),
    );
}
