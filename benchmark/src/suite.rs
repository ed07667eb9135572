//! The whole suite: one child process per workload (so `peak_rss_mib` is
//! that workload's own high-water mark), a summary, and `--repeat-check`.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::workloads::Scale;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One child's metrics by name, and whether it ran correctly.
#[derive(Debug)]
pub struct ChildResult {
    pub workload: &'static str,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Per-layer metrics that are counts or simulated statistics: a pure
/// function of the seed, so two runs must agree exactly.
const EXACT_LAYERS: [&str; 12] = [
    "cloud.completed",
    "cloud.errored",
    "cloud.cancelled",
    "cloud.peak_pending_arrivals",
    "predictor.refits",
    "predictor.mae_min",
    "predictor.band_cover_gap",
    "transpiler.cx_total",
    "transpiler.swaps",
    "transpiler.cache_hit_rate",
    "sim.backend_dense_n",
    "sim.backend_tableau_n",
];

/// A difference below this is never a regression, whatever its share:
/// 0.2 s of set-up, 4 MiB of resident memory.
fn absolute_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.2,
        "peak_rss_mib" => 4.0,
        _ => 0.0,
    }
}

fn run_child(workload: &'static str, args: &SuiteArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.scale == Scale::Quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(ChildResult {
        workload,
        correct: result.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        metrics,
    })
}

/// Run every workload once; print each child's account and a summary.
pub fn run_suite(args: &SuiteArgs) -> Result<Vec<ChildResult>, String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "suite: seed {}, {} s per workload, {}, cpus_available {cpus} (no parallel speed-up is measured or claimed)",
        args.seed,
        args.seconds,
        if args.trace { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
    );
    if args.scale == Scale::Quick {
        println!("suite: --quick sizes: these numbers are NOT comparable with anything");
    }
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        println!();
        println!("{}: {}", spec.name, spec.why);
        results.push(run_child(spec.name, args)?);
    }
    if !args.trace {
        println!();
        println!(
            "{:<16} {}",
            "workload",
            END_TO_END.map(|m| format!("{:>14}", m.name)).join(" ")
        );
        for result in &results {
            let cells = END_TO_END.map(|m| match result.value(m.name) {
                Some(v) => format!("{v:>14.4}"),
                None => format!("{:>14}", "missing"),
            });
            println!("{:<16} {}", result.workload, cells.join(" "));
        }
        println!(
            "{:<16} {}",
            "(unit)",
            END_TO_END.map(|m| format!("{:>14}", m.unit)).join(" ")
        );
    }
    Ok(results)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Compare two untraced suites metric by metric; returns the violations.
pub fn compare_end_to_end(first: &[ChildResult], second: &[ChildResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                violations.push(format!("{}: {} missing from a run", a.workload, m.name));
                continue;
            };
            // Either run may be the unlucky one: bound the difference in
            // both directions.
            let worse = worse_by(m.better, x, y).max(worse_by(m.better, y, x));
            let verdict = if worse > m.bound && (x - y).abs() > absolute_floor(m.name) {
                violations.push(format!(
                    "{}: {} differs by {:.1}% (bound {:.0}%): {x} vs {y} {}",
                    a.workload,
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound,
                    m.unit
                ));
                "EXCEEDS BOUND"
            } else {
                "ok"
            };
            println!(
                "  {:<16} {:<14} {x:>16.4} {y:>16.4} {:>7.1}%  {verdict}",
                a.workload,
                m.name,
                100.0 * worse
            );
        }
    }
    violations
}

/// Compare the exact per-layer metrics of two traced runs.
pub fn compare_exact(first: &ChildResult, second: &ChildResult) -> Vec<String> {
    let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
    EXACT_LAYERS
        .iter()
        .filter_map(|&name| {
            let (x, y) = (first.value(name), second.value(name));
            println!("  {name:<32} {:>20} {:>20}", show(x), show(y));
            (x.is_none() || x.map(f64::to_bits) != y.map(f64::to_bits))
                .then(|| format!("{name}: {} vs {} must repeat exactly", show(x), show(y)))
        })
        .collect()
}

/// `--repeat-check`: the untraced suite twice, bounded; then one traced
/// workload twice, whose counts and simulated statistics must be equal.
pub fn repeat_check(args: &SuiteArgs) -> Result<bool, String> {
    let untraced = SuiteArgs {
        trace: false,
        ..args.clone()
    };
    let first = run_suite(&untraced)?;
    let second = run_suite(&untraced)?;
    println!();
    println!("repeat-check, end to end (first run, second run, difference):");
    let mut violations = compare_end_to_end(&first, &second);
    for result in first.iter().chain(&second).filter(|r| !r.correct) {
        violations.push(format!("{}: outputs were wrong", result.workload));
    }

    let traced = SuiteArgs {
        trace: true,
        ..args.clone()
    };
    println!();
    let a = run_child(WORKLOADS[0].name, &traced)?;
    let b = run_child(WORKLOADS[0].name, &traced)?;
    println!();
    println!("repeat-check, exact per-layer metrics (first run, second run):");
    violations.extend(compare_exact(&a, &b));

    println!();
    for violation in &violations {
        println!("REPEAT-CHECK FAILED: {violation}");
    }
    if violations.is_empty() {
        println!("repeat-check passed: every end-to-end metric within its bound, every exact metric equal");
    }
    Ok(violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(values: [f64; 4]) -> ChildResult {
        ChildResult {
            workload: "fleet_stream",
            correct: true,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), v))
                .collect(),
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn repeat_check_applies_bounds_and_absolute_floors() {
        // setup_s, ops_per_s, op_p50_us, peak_rss_mib
        let base = child([0.10, 1000.0, 50.0, 20.0]);
        // Set-up doubled but by under 0.2 s; memory +15% but under 4 MiB.
        let near = child([0.20, 1050.0, 52.0, 23.0]);
        assert!(compare_end_to_end(&[base], &[near]).is_empty());

        // Beyond 25 %, the widest bound the schema allows.
        let base = child([1.0, 1000.0, 50.0, 200.0]);
        let far = child([1.5, 700.0, 50.0, 260.0]);
        let violations = compare_end_to_end(&[base], &[far]);
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    #[test]
    fn exact_layers_must_match_to_the_bit() {
        for name in EXACT_LAYERS {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not declared"
            );
        }
        let make = |mae: f64| ChildResult {
            workload: "fleet_stream",
            correct: true,
            metrics: EXACT_LAYERS
                .iter()
                .map(|name| {
                    let v = if *name == "predictor.mae_min" {
                        mae
                    } else {
                        3.0
                    };
                    (name.to_string(), v)
                })
                .collect(),
        };
        assert!(compare_exact(&make(1.25), &make(1.25)).is_empty());
        let violations = compare_exact(&make(1.25), &make(1.250_000_000_000_000_2));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("predictor.mae_min"));
    }
}
