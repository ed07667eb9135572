//! Extension (paper Recommendation ⑥): the fidelity cost of stale
//! device-aware compilation, and the benefit of dynamic recompilation on
//! new calibration data.

use qcs::experiments::stale_compilation_cost;
use qcs::machine::Fleet;
use qcs::transpiler::TranspileCache;
use qcs_bench::write_csv;
use qcs_exec::ExecConfig;

fn main() {
    let fleet = Fleet::ibm_like();
    let exec = ExecConfig::from_env();
    // One cache across all machines: per-machine keys never collide (the
    // target name and calibration content differ), while each machine's
    // interior calibration cycles are compiled once instead of twice.
    let cache = TranspileCache::new();
    println!("Stale vs fresh compilation (4q QFT benchmark, 30 calibration days)");
    println!(
        "  {:<12} {:>12} {:>12} {:>14}",
        "machine", "fresh POS", "stale POS", "mean benefit"
    );
    let mut csv_rows = Vec::new();
    for name in ["casablanca", "toronto", "manhattan"] {
        let machine = fleet.get(name).expect("machine exists");
        let rows = stale_compilation_cost(&exec, machine, 4, 30, 4096, 7, &cache)
            .expect("experiment runs");
        let mean = |f: &dyn Fn(&qcs::experiments::StalenessRow) -> f64| {
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        };
        let fresh = mean(&|r| r.pos_fresh);
        let stale = mean(&|r| r.pos_stale);
        println!(
            "  {:<12} {:>11.1}% {:>11.1}% {:>+13.2}pp",
            name,
            100.0 * fresh,
            100.0 * stale,
            100.0 * (fresh - stale)
        );
        for r in &rows {
            csv_rows.push(format!(
                "{name},{},{},{}",
                r.compile_day, r.pos_fresh, r.pos_stale
            ));
        }
    }
    let stats = cache.stats();
    println!(
        "  transpile cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );
    write_csv(
        "extension_stale_compilation.csv",
        "machine,compile_day,pos_fresh,pos_stale",
        csv_rows,
    );
    println!("\n(dynamic recompilation against the new calibration recovers the gap;");
    println!(" the paper recommends overlapping it with the long queuing times)");
}
