//! Fig 7: probability of success of a 4q QFT benchmark vs compile-time CX
//! metrics across machines (paper: POS 62%..19%, anti-correlated with CX
//! depth/count/error products; not correlated with machine size), plus the
//! untruncated variant — a machine-wide Clifford benchmark on the FULL
//! 25-machine fleet, with per-machine simulator-backend selection (the
//! 65q Manhattan runs on the stabilizer tableau).

use qcs::experiments::{fidelity_vs_cx, fleet_fidelity};
use qcs::machine::Fleet;
use qcs::stats::pearson;
use qcs_bench::write_csv;
use qcs_exec::ExecConfig;

fn main() {
    let fleet = Fleet::ibm_like();
    // Machine fan-out pool; QCS_THREADS=1 forces sequential. Rows do not
    // depend on the thread count.
    let exec = ExecConfig::from_env();
    // The paper's machine set.
    let machines = ["casablanca", "toronto", "guadalupe", "rome", "manhattan"];
    let rows = fidelity_vs_cx(&exec, &fleet, &machines, 4, 36.0, 8192, 7).expect("experiment runs");
    println!("Fig 7 — 4q QFT fidelity vs CX metrics");
    println!(
        "  {:<12} {:>3} {:>10} {:>8} {:>9} {:>9} {:>12} {:>12}",
        "machine", "q", "backend", "POS", "CX-Depth", "CX-Total", "CXD*err", "CXT*err"
    );
    for r in &rows {
        println!(
            "  {:<12} {:>3} {:>10} {:>7.1}% {:>9} {:>9} {:>12.4} {:>12.4}",
            r.machine, r.qubits, r.backend, 100.0 * r.pos, r.cx_depth, r.cx_total,
            r.cx_depth_err, r.cx_total_err
        );
    }
    let pos: Vec<f64> = rows.iter().map(|r| r.pos).collect();
    let cxd_err: Vec<f64> = rows.iter().map(|r| r.cx_depth_err).collect();
    let cxt_err: Vec<f64> = rows.iter().map(|r| r.cx_total_err).collect();
    let sizes: Vec<f64> = rows.iter().map(|r| r.qubits as f64).collect();
    println!("  correlation(POS, CX-D*err) = {:.2} (paper: strongly negative)", pearson(&pos, &cxd_err));
    println!("  correlation(POS, CX-T*err) = {:.2} (paper: strongly negative)", pearson(&pos, &cxt_err));
    println!("  correlation(POS, qubits)   = {:.2} (paper: not size-correlated)", pearson(&pos, &sizes));
    write_csv(
        "fig07_fidelity_cx.csv",
        "machine,qubits,backend,pos,cx_depth,cx_total,cx_depth_err,cx_total_err",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{}",
                r.machine, r.qubits, r.backend, r.pos, r.cx_depth, r.cx_total,
                r.cx_depth_err, r.cx_total_err
            )
        }),
    );

    // The untruncated fleet: machine-wide Clifford GHZ echo on all 25
    // machines; the dispatcher picks each machine's engine.
    let fleet_rows = fleet_fidelity(&exec, &fleet, 36.0, 8192, 7).expect("fleet experiment runs");
    assert_eq!(fleet_rows.skipped, 0, "no machine may be skipped");
    println!();
    println!(
        "Fig 7 (untruncated) — machine-wide Clifford GHZ echo, {} machines, 0 skipped",
        fleet_rows.rows.len()
    );
    println!(
        "  {:<12} {:>3} {:>10} {:>8} {:>9}",
        "machine", "q", "backend", "POS", "CX-Total"
    );
    for r in &fleet_rows.rows {
        println!(
            "  {:<12} {:>3} {:>10} {:>7.1}% {:>9}",
            r.machine, r.qubits, r.backend, 100.0 * r.pos, r.cx_total
        );
    }
    write_csv(
        "fig07_fleet_fidelity.csv",
        "machine,qubits,backend,pos,cx_total",
        fleet_rows.rows.iter().map(|r| {
            format!(
                "{},{},{},{},{}",
                r.machine, r.qubits, r.backend, r.pos, r.cx_total
            )
        }),
    );
}
