//! Fig 12: calibration crossovers. (a) fraction of jobs compiled against
//! one calibration but executed after another (paper estimate: >20%);
//! (b) the same circuit gets a different noise-aware mapping on
//! consecutive calibration days.

use qcs::experiments::calibration_layout_shift;
use qcs::machine::Fleet;
use qcs_bench::{study_from_args, write_csv};

fn main() {
    let study = study_from_args();
    let crossover = study
        .calibration_crossover_fraction()
        .expect("a simulated study records its crossings");
    println!("Fig 12a — calibration crossovers");
    println!(
        "  {:.1}% of executed jobs crossed a calibration boundary (paper coarse estimate: >20%)",
        100.0 * crossover
    );
    write_csv(
        "fig12a_crossover.csv",
        "crossover_fraction",
        vec![format!("{crossover}")],
    );

    println!("\nFig 12b — noise-aware layout across consecutive calibrations (toronto, QFT-4)");
    let fleet = Fleet::ibm_like();
    let machine = fleet.get("toronto").expect("toronto in fleet");
    let mut shifts = 0usize;
    let days = 30u64;
    for day in 0..days {
        let (before, after) =
            calibration_layout_shift(machine, 4, day).expect("layout succeeds");
        if before != after {
            shifts += 1;
            if shifts <= 3 {
                println!(
                    "  day {day:>2} -> {day_next:>2}: logical->physical {:?} => {:?}",
                    before.as_slice(),
                    after.as_slice(),
                    day_next = day + 1
                );
            }
        }
    }
    println!(
        "  layout changed across {shifts}/{days} consecutive calibration pairs"
    );
    write_csv(
        "fig12b_layout_shift.csv",
        "days_tested,layout_shifts",
        vec![format!("{days},{shifts}")],
    );
}
