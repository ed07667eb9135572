//! # qcs-bench
//!
//! The benchmark harness of the `qcs` study: one `fig*` binary per figure
//! of the paper (each prints the figure's data series and writes a CSV
//! under `target/figures/`) and `ablation_*` / `extension_*` binaries for
//! the design-choice studies listed in DESIGN.md. Timing lives in the
//! standalone `benchmark/` package (`bash benchmark/run.sh --trace`).
//!
//! Run a figure:
//!
//! ```sh
//! cargo run --release -p qcs-bench --bin fig03_queue_sorted
//! cargo run --release -p qcs-bench --bin fig03_queue_sorted -- --smoke  # fast
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::PathBuf;

use qcs::{Study, StudyConfig};

/// Parse the common `--smoke` flag and run the corresponding study.
///
/// The full (730-day) study takes a few seconds in release mode; `--smoke`
/// runs the two-week configuration.
#[must_use]
pub fn study_from_args() -> Study {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut config = if smoke {
        StudyConfig::smoke()
    } else {
        StudyConfig::full()
    };
    // Analysis worker-pool size; QCS_THREADS=1 forces sequential.
    config.exec = qcs::ExecConfig::from_env();
    eprintln!(
        "[qcs-bench] running {} study ({} days)...",
        if smoke { "smoke" } else { "full" },
        config.workload.days
    );
    let started = std::time::Instant::now();
    let study = Study::run(&config);
    eprintln!(
        "[qcs-bench] simulated {} jobs in {:?}",
        study.result().total_jobs,
        started.elapsed()
    );
    study
}

/// Directory where figure CSVs are written (`target/figures`).
#[must_use]
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Write a CSV with a header row; rows are pre-formatted strings.
///
/// # Panics
///
/// Panics on I/O errors (benchmark binaries want loud failures).
pub fn write_csv(name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    let path = figures_dir().join(name);
    let mut file = std::fs::File::create(&path).expect("create csv");
    writeln!(file, "{header}").expect("write header");
    for row in rows {
        writeln!(file, "{row}").expect("write row");
    }
    eprintln!("[qcs-bench] wrote {}", path.display());
}

/// Render a compact percentile table of a sorted series.
#[must_use]
pub fn percentile_table(sorted: &[f64], unit: &str) -> String {
    let q = |p: f64| qcs::stats::quantile_sorted(sorted, p).unwrap_or(f64::NAN);
    format!(
        "n={}  p10={:.2}{u}  p25={:.2}{u}  p50={:.2}{u}  p75={:.2}{u}  p90={:.2}{u}  p99={:.2}{u}",
        sorted.len(),
        q(0.10),
        q(0.25),
        q(0.50),
        q(0.75),
        q(0.90),
        q(0.99),
        u = unit
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_table_formats() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0];
        let t = percentile_table(&sorted, "m");
        assert!(t.contains("n=4"));
        assert!(t.contains("p50=2.50m"));
    }

    #[test]
    fn figures_dir_exists() {
        assert!(figures_dir().is_dir());
    }
}
