//! Fig 9: average pending jobs per machine over a week (paper: jobs are
//! unequally distributed; the public machine leads each size block).

use qcs_bench::{study_from_args, write_csv};

fn main() {
    let study = study_from_args();
    let rows = study
        .pending_jobs_by_machine()
        .expect("a simulated study samples its queues");
    println!("Fig 9 — mean pending jobs (final week of submissions)");
    let mut current_block = 0usize;
    for (name, qubits, public, pending) in &rows {
        let block = match qubits {
            1 => 1,
            2..=5 => 2,
            6..=16 => 3,
            _ => 4,
        };
        if block != current_block {
            println!("  --- block: {} ---", match block {
                1 => "1 qubit",
                2 => "5 qubits",
                3 => "7-16 qubits",
                _ => "27-65 qubits",
            });
            current_block = block;
        }
        println!(
            "  {:<12} {:>2}q {:<10} {:>9.1}",
            name,
            qubits,
            if *public { "public" } else { "privileged" },
            pending
        );
    }
    write_csv(
        "fig09_pending_jobs.csv",
        "machine,qubits,public,mean_pending",
        rows.iter()
            .map(|(n, q, p, m)| format!("{n},{q},{p},{m}")),
    );
}
